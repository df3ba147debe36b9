"""One run of one workload, in a fresh process started by run.py.

It drives the real CLI in-process through `uqgraph.cli.main(argv)` as a
closed loop: one client, each command issued after the previous one has
returned and been checked. It first issues the smoke commands as a checked
warm-up, then whole passes for about `--seconds`, timing set-up in fresh
interpreters after each. With `--trace 1` it alternates untraced and traced
passes and times no set-up; a traced pass also re-issues the smoke commands,
so every layer has spans on every workload. Command and set-up times are
reported both as wall times and scaled to a fixed machine speed (speed.py).
It prints one JSON object as the last line of its stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checks
import workloads
from speed import ScaledClock, scaled
from tracing import Tracer

# Set-up is timed in fresh interpreters after every untraced pass, so its
# samples spread over the run like the passes do.
SETUP_PER_PASS = 3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import uqgraph
for arg in sys.argv[1:]:
    uqgraph.make_field(*map(int, arg.split(":")))
seconds = time.perf_counter() - t0
sys.path.insert(0, "perfbench")
from speed import kernel_seconds
print(seconds, kernel_seconds())
"""


def _run_cli(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a crash is one failed command; the run goes on
        rc = "exception: " + traceback.format_exc(limit=-3)
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Issues commands, checks their outputs and keeps the tallies."""

    def __init__(self, cli, reference: dict, tracer: Tracer | None = None):
        self.cli = cli
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def issue(self, cmd: workloads.Command, traced: bool = False) -> tuple:
        """Run one command; returns (its ScaledClock, observed output or None,
        problems)."""
        tracer = self.tracer if traced else None
        if tracer:
            tracer.command = self.attempted
            tracer.spectra = {}
            span = tracer.open(f"cli.{cmd.kind}")
        with ScaledClock() as clock:
            rc, stdout, stderr = _run_cli(self.cli, cmd.argv)
        if tracer:
            tracer.close(span)
        obs = None
        try:
            obs = checks.observe(cmd, rc, stdout, stderr)
            problems = checks.check(cmd, obs, self.reference)
            problems += self._guards(cmd, obs, clock.raw, tracer)
        except Exception:  # unparsable output fails the command, not the run
            problems = [f"{cmd.key}: unreadable output: {traceback.format_exc(limit=-2)}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return clock, obs, problems

    def _guards(self, cmd, obs, seconds, tracer) -> list[str]:
        """Determinism guards that need more than the command's own output."""
        out = []
        if cmd.kind == "report" and obs["rc"] == 0:
            # a per-q wall-clock cap can only fire in a command that ran that
            # long; the margin covers the speed kernel's time, left out of seconds
            bounded = any(r["chiStatus"] == "bounded" for r in obs["records"])
            if bounded and seconds >= 0.9 * workloads.REPORT_TIMEOUT:
                out.append(f"{cmd.key}: may have stopped on the wall-clock cap")
            if tracer:
                for span in tracer.spans:
                    if (span.command == tracer.command and span.name == "chi.exact_chromatic"
                            and span.attrs.get("status") == "bounded"
                            and span.attrs["nodes"] < span.attrs["node_limit"]):
                        out.append(f"{cmd.key}: chi stopped on the wall-clock cap")
        if tracer and {"dense", "cayley"} <= set(tracer.spectra):
            import numpy as np

            dense = np.sort(tracer.spectra["dense"])
            cayley = np.sort(tracer.spectra["cayley"])
            if dense.shape != cayley.shape or np.max(np.abs(dense - cayley)) > checks.TOL:
                out.append(f"{cmd.key}: dense and Cayley multisets differ")
        return out

    def run_pass(self, commands: list, traced: bool = False) -> dict:
        """Issue the commands in order. Returns the pass's command time, raw
        and at the reference speed, per-kind totals at the reference speed
        and the chi gap."""
        import uqgraph.field

        wall = perf_counter()
        uqgraph.field.make_field.cache_clear()  # every pass pays the field set-up
        per_kind: dict[str, float] = {}
        raw = 0.0
        gap = 0
        for cmd in commands:
            clock, obs, problems = self.issue(cmd, traced)
            per_kind[cmd.kind] = per_kind.get(cmd.kind, 0.0) + clock.seconds
            raw += clock.raw
            if obs and not problems:
                gap += checks.chi_gap(obs)
        return {"seconds": sum(per_kind.values()), "raw": raw, "commands": per_kind,
                "chi_gap": gap, "wall": perf_counter() - wall}


def measure_setup(workload: str, root: str) -> list[tuple[float, float]]:
    """(raw, scaled) seconds fresh interpreters take to import uqgraph and
    build the workload's fields; each times the kernel right after. This
    process's environment pins BLAS and the path."""
    fields = [f"{p}:{n}" for p, n in map(workloads.odd_prime_power,
                                         workloads.setup_orders(workload))]
    times = []
    for _ in range(SETUP_PER_PASS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *fields], cwd=root,
                              capture_output=True, text=True, check=True, timeout=60)
        seconds, kernel_s = map(float, done.stdout.split()[-2:])
        times.append((seconds, scaled(seconds, kernel_s)))
    return times


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in workloads.PROGRAM_ENV},
    }


def import_program(root: str):
    """Import the CLI from the checkout's src/, and nowhere else."""
    import uqgraph.cli

    src = os.path.join(root, "src", "")
    if not os.path.abspath(uqgraph.cli.__file__).startswith(src):
        raise SystemExit(f"uqgraph was imported from {uqgraph.cli.__file__}, not {src}")
    return uqgraph.cli


def traced_pass(runner: Runner, smoke: list, commands: list) -> dict:
    """The smoke commands and one pass, traced; the pass's own figures plus
    per-layer totals over both."""
    tracer = runner.tracer
    tracer.reset()
    tracer.install()
    try:
        warm = runner.run_pass(smoke, traced=True)
        result = runner.run_pass(commands, traced=True)
    finally:
        tracer.uninstall()
    result["wall"] += warm["wall"]
    result["layers"] = dict(tracer.layer_metrics(), chi_gap=warm["chi_gap"] + result["chi_gap"])
    return result


def run(args) -> dict:
    cli = import_program(args.root)
    runner = Runner(cli, checks.load_reference(), Tracer() if args.trace else None)
    os.makedirs(args.work, exist_ok=True)
    smoke = workloads.smoke_commands(args.work)
    commands = workloads.pass_commands(workloads.WORKLOADS[args.workload], args.seed, args.work)
    untraced, traced, spans, setup = [], [], [], []
    try:
        runner.run_pass(smoke)
        start = perf_counter()
        while True:
            # with tracing, untraced and traced passes alternate, starting and
            # ending untraced so the first, colder pass is not the only reference
            if args.trace and len(traced) < len(untraced):
                traced.append(traced_pass(runner, smoke, commands))
                spans += [dict(s.record(), passno=len(traced)) for s in runner.tracer.spans]
            else:
                untraced.append(runner.run_pass(commands))
                if not args.trace:
                    setup += measure_setup(args.workload, args.root)
            upcoming = traced if args.trace and len(traced) < len(untraced) else untraced
            if args.trace and len(untraced) < 2:
                continue
            # start the next pass only if its expected midpoint lies in the window
            expected = statistics.median(p["wall"] for p in upcoming)
            if perf_counter() - start + expected / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    return {
        "untraced": untraced,
        "traced": traced,
        "spans": spans,
        "setup_s": setup,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_facts(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/uqgraph")
    parser.add_argument("--work", required=True,
                        help="directory for the files commands write, removed at the end")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
