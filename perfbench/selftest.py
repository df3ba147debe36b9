"""Self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py

Runs each workload's smoke pass, which must pass every check, then shows
that the checks are not vacuous: a coloring file with one vertex recolored
to match a neighbor, a wrong pinned triangle count and a command that exits
2 must each count as one failed command. It also runs the smoke passes
traced twice and requires the per-layer counts to repeat exactly, and
checks that the metrics emitted are the ones BENCHMARK.json declares. Exits
0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

os.environ.update(workloads.PROGRAM_ENV)  # before uqgraph imports numpy

import checks  # noqa: E402
from run import END_TO_END, unit  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Runner, import_program, traced_pass  # noqa: E402

REPEATED_COUNTS = ("field.scalar.calls", "graph.build_graph.calls", "graph.edges",
                   "chi.nodes", "chi.budget_hit", "chi_gap")


def _fails_once(runner: Runner, cmd: workloads.Command) -> bool:
    before = runner.failed
    runner.issue(cmd)
    return runner.failed == before + 1


def _recolor_one_vertex(coloring_path: str, dimacs_path: str) -> None:
    with open(dimacs_path, encoding="ascii") as stream:
        _, u, v = next(line for line in stream if line.startswith("e ")).split()
    with open(coloring_path, encoding="utf-8") as stream:
        lines = stream.readlines()
    color_u = lines[int(u)].split()[1]  # line 0 is the header; vertices are 1-based
    lines[int(v)] = f"{int(v) - 1} {color_u}\n"
    with open(coloring_path, "w", encoding="utf-8") as stream:
        stream.writelines(lines)


def main() -> int:
    cli = import_program(ROOT)
    reference = checks.load_reference()
    work = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    results = {}
    try:
        for name, specs in workloads.SMOKE.items():
            runner = Runner(cli, reference)
            runner.run_pass([c for spec in specs for c in workloads.instance_commands(spec, work)])
            results[f"smoke pass of {name} passes"] = runner.failed == 0
            for problem in runner.problems:
                print(f"  {problem}")

        build, color, verify, triangles, _ = workloads.instance_commands(
            ("graph", 7, 2, "cayley"), work)
        runner = Runner(cli, reference)
        runner.issue(build)
        runner.issue(color)
        _recolor_one_vertex(color.out, build.out)
        results["recolored vertex fails verify"] = _fails_once(runner, verify)

        wrong = copy.deepcopy(reference)
        wrong[triangles.key]["json"]["triangles"] += 1
        results["wrong pinned triangle count fails"] = _fails_once(
            Runner(cli, wrong), triangles)

        exits_2 = workloads.Command(build.key, "build", ["build", "--q", "6", "--out", build.out],
                                    7, 2, build.out)
        results["exit code 2 fails"] = _fails_once(Runner(cli, reference), exits_2)

        runner = Runner(cli, reference, Tracer())
        smoke = workloads.smoke_commands(work)
        first, second = (traced_pass(runner, [], smoke)["layers"] for _ in range(2))
        results["traced counts repeat exactly"] = runner.failed == 0 and all(
            first[key] == second[key] for key in REPEATED_COUNTS)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
            bench = json.load(stream)
        declared = bench["end_to_end"] + bench["per_layer"]
        emitted = {*END_TO_END, "trace.overhead_frac", *first}
        results["metric names and units match BENCHMARK.json"] = (
            {m["name"] for m in declared} == emitted
            and all(unit(m["name"]) == m["unit"] for m in declared))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
