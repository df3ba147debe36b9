"""The benchmark's workloads: which CLI commands one pass issues, in what order.

A pass is a list of `Command`s. Graph instances issue five commands in a
fixed order (verify reads the file color writes); the workload seed only
permutes the order of instances within a pass, so every seed does the same
work and the program sees nothing but the generated argv.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Every process that runs the program gets these: BLAS pinned to one thread.
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-q node budget for `report`. At the seed it settles the same chi
# brackets as 50 000 nodes (chi_gap 51) at 40% of the cost, which leaves
# room for several passes in one run.
REPORT_NODES = 20_000
# Wall-clock cap per q, kept only as a safety net: the node budget ends
# every search long before it, and a record that hits it counts as failed.
REPORT_TIMEOUT = 60.0

# Instance specs: ("report", "lo..hi") or ("graph", q, m, spectrum method).
# q = 169 (plane-large) and (61, 2) (dense-m3) are left out: 14 s and 8 s
# per pass on their own would leave room for only one pass per run.
WORKLOADS = {
    "report-sweep": [("report", "5..31")],
    "plane-large": [("graph", 121, 2, "cayley"), ("graph", 125, 2, "cayley"),
                    ("graph", 127, 2, "cayley")],
    "dense-m3": [("graph", 49, 2, "both"), ("graph", 13, 3, "both"),
                 ("graph", 7, 4, "both")],
}

# A small pass of each workload, done in well under a second. Every run
# issues all of them first, as a checked warm-up, and every traced pass
# includes them, so each layer has spans on each workload.
SMOKE = {
    "report-sweep": [("report", "5..9")],
    "plane-large": [("graph", 7, 2, "cayley"), ("graph", 9, 2, "cayley")],
    "dense-m3": [("graph", 5, 3, "both")],
}


@dataclass(frozen=True)
class Command:
    key: str          # stable name, the key of the command's pinned reference
    kind: str         # CLI subcommand
    argv: list
    q: int | None     # graph instances only
    m: int | None
    out: str | None   # file the command writes, checked after it returns


def _graph_commands(q: int, m: int, method: str, work: str) -> list[Command]:
    tag = f"q={q} m={m}"
    dimacs = os.path.join(work, f"graph-{q}-{m}.col")
    coloring = os.path.join(work, f"coloring-{q}-{m}.txt")
    common = ["--q", str(q), "--m", str(m)]
    spectrum = ["spectrum", *common, "--method", method, "--json"]
    spectrum_out = None
    if method == "both":
        # the file holds the Cayley multiset, pinned with its multiplicities
        spectrum_out = os.path.join(work, f"spectrum-{q}-{m}.txt")
        spectrum += ["--out", spectrum_out]
    return [
        Command(f"build {tag}", "build", ["build", *common, "--out", dimacs], q, m, dimacs),
        Command(f"color {tag}", "color", ["color", *common, "--json", "--out", coloring],
                q, m, coloring),
        Command(f"verify {tag}", "verify", ["verify", coloring], q, m, None),
        Command(f"triangles {tag}", "triangles", ["triangles", *common, "--json"], q, m, None),
        Command(f"spectrum {tag} {method}", "spectrum", spectrum, q, m, spectrum_out),
    ]


def instance_commands(spec: tuple, work: str) -> list[Command]:
    if spec[0] == "report":
        argv = ["report", "--q", spec[1], "--json", "--nodes", str(REPORT_NODES),
                "--timeout", str(REPORT_TIMEOUT)]
        return [Command(f"report q={spec[1]} nodes={REPORT_NODES}", "report", argv,
                        None, None, None)]
    _, q, m, method = spec
    return _graph_commands(q, m, method, work)


def smoke_commands(work: str) -> list[Command]:
    return [cmd for specs in SMOKE.values() for spec in specs
            for cmd in instance_commands(spec, work)]


def pass_commands(specs: list, seed: int, work: str) -> list[Command]:
    """The commands of one pass, instance order permuted by the seed."""
    order = list(specs)
    random.Random(seed).shuffle(order)
    return [cmd for spec in order for cmd in instance_commands(spec, work)]


def setup_orders(name: str) -> list[int]:
    """The field orders a workload's set-up builds."""
    orders = set()
    for spec in WORKLOADS[name]:
        if spec[0] == "report":
            lo, hi = (int(x) for x in spec[1].split(".."))
            orders.update(range(lo, hi + 1))
        else:
            orders.add(spec[1])
    return sorted(q for q in orders if odd_prime_power(q))


def odd_prime_power(q: int) -> tuple[int, int] | None:
    """(p, n) with q = p**n for an odd prime p, else None; the harness's own
    route, independent of the program's."""
    if q < 3:
        return None
    p = next(f for f in range(2, q + 1) if q % f == 0)
    n = 0
    while q % p == 0:
        q //= p
        n += 1
    return (p, n) if q == 1 and p != 2 else None
