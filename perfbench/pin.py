"""Pin the reference outputs the checks compare against.

    python3 perfbench/pin.py

Runs every command of every workload and smoke pass once with the sources in
src/ and writes perfbench/reference.json. Pin only from a commit whose
outputs are trusted; a change that alters an output on purpose re-pins and
says why. Outputs that break a closed form are refused, not pinned.
"""

from __future__ import annotations

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
from worker import _run_cli, import_program  # noqa: E402


def main() -> int:
    cli = import_program(ROOT)
    work = os.path.join(HERE, "out", "pin-work")
    os.makedirs(work, exist_ok=True)
    specs = [s for group in workloads.SMOKE.values() for s in group]
    specs += [s for group in workloads.WORKLOADS.values() for s in group]
    reference, problems = {}, []
    try:
        for spec in specs:
            for cmd in workloads.instance_commands(spec, work):
                obs = checks.observe(cmd, *_run_cli(cli, cmd.argv))
                problems += checks.check(cmd, obs, {cmd.key: obs})
                reference[cmd.key] = obs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as stream:
        json.dump(reference, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"pinned {len(reference)} commands to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
