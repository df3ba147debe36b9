"""uqgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run it from the repository root; it needs nothing but the sources in src/.
Each run starts one fresh worker process (worker.py) with BLAS pinned to one
thread, which drives the CLI in a closed loop for about S seconds, checks
every output and times set-up in fresh interpreters between passes. The
end-to-end times are seconds at a fixed machine speed (speed.py); the wall
times they come from are printed and recorded next to them. The last line
of stdout is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run. Lines above
it repeat the figures for people, per-command totals included. The full
record of a run, spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import PROGRAM_ENV, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0  # a run that is not done by then is abandoned
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PROGRAM_ENV)


def run_worker(args, workload: str, deadline: float) -> dict:
    work = os.path.join(OUT, f"work-{os.getpid()}")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", ROOT, "--work", work],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(1.0, deadline - perf_counter()))
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median of {len(values)}, quartiles {q1:.4f} .. {q3:.4f}"


def unit(name: str) -> str:
    """The unit of a metric, read off its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(".bytes"):
        return "B"
    return "ratio" if name.endswith("_frac") else "count"


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def measure(args, workload: str) -> dict:
    """One run of one workload; returns the result line's object."""
    result = run_worker(args, workload, perf_counter() + DEADLINE_S)
    setup = [s for _, s in result["setup_s"]]
    untraced = result["untraced"]
    pass_s = [p["seconds"] for p in untraced]
    fail_frac = result["failed"] / result["attempted"]
    print(f"{workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced and"
          f" {len(result['traced'])} traced passes, {result['attempted']} commands,"
          f" {result['failed']} failed (fail_frac {fail_frac:g})")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    raw = [p["raw"] for p in untraced]
    print(f"  pass_s      {statistics.median(pass_s):.4f} s    {_quartiles(pass_s)}")
    print(f"    wall time {statistics.median(raw):.4f} s    {_quartiles(raw)}")
    for kind in sorted(untraced[0]["commands"]):
        values = [p["commands"][kind] for p in untraced]
        print(f"  {kind + '_s':<11} {statistics.median(values):.4f} s    {_quartiles(values)}")
    print(f"  chi_gap     {untraced[-1]['chi_gap']} (count, at {workload}'s node budget)")
    if setup:
        setup_raw = [r for r, _ in result["setup_s"]]
        print(f"  setup_s     {statistics.median(setup):.4f} s    {_quartiles(setup)}")
        print(f"    wall time {statistics.median(setup_raw):.4f} s    {_quartiles(setup_raw)}")
        print(f"  peak_rss_mb {result['peak_rss_mb']:.1f} MiB")
    if args.trace:
        metrics = _layer_metrics(result, untraced)
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    else:
        values = [statistics.median(pass_s), statistics.median(setup), result["peak_rss_mb"]]
        metrics = _metrics(dict(zip(END_TO_END, values)))
    print(f"  machine     {json.dumps(result['machine'])}")
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as stream:
        json.dump(dict(result, workload=workload, seed=args.seed), stream)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _layer_metrics(result: dict, untraced: list) -> dict:
    traced = result["traced"]
    # median_low keeps counts whole
    values = {name: statistics.median_low(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = (statistics.median(p["seconds"] for p in traced)
                                     / statistics.median(p["seconds"] for p in untraced) - 1)
    return _metrics(values)


def main() -> int:
    parser = argparse.ArgumentParser(description="uqgraph benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "uqgraph", "cli.py")):
        print(f"error: no uqgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            line = measure(args, args.workload)
        else:
            results = {name: measure(args, name) for name in WORKLOADS}
            line = {"correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{w}.{k}": v for w, r in results.items()
                                for k, v in r["metrics"].items()}}
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
