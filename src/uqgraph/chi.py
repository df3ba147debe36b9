"""Exact chromatic numbers at desk scale.

The solver is DSATUR-ordered backtracking with branch and bound: the
upper bound is seeded from a greedy DSATUR coloring and, when the graph
carries a field context, from the line-pairing construction; the lower
bound is the larger of a bounded clique search and min(greedy colors, 3).
Each round tries to exhaust (upper-1)-colorings with color-permutation
symmetry removed (the first vertex is fixed to color 0 and new colors
are introduced in order). A completed exhaustion proves optimality; an
exhausted budget degrades the result to a valid bracket.

The greedy coloring is the search's first descent with k = N colors: no
vertex can see N colors, so it never backtracks and takes the argmax
vertex and its lowest free color at every step. DSATUR colors every
bipartite graph with at most 2 colors (Brelaz, CACM 22, 1979), and an
odd cycle needs 3, so min(greedy colors, 3) is the exact odd-cycle bound.

The search branches on the argmax of the key sat * (N + 1) + deg:
saturation, then degree, then the lowest index. The keys live in one
int64 array that argmax reads and a memoryview of it updates with Python
ints; a colored vertex sinks below zero by (k + 1) * (N + 1). A colored
vertex holds forbid = -1, so one bit test skips colored and
already-forbidden neighbors alike; the search frame keeps the vertex's
real forbid value and restores it on undo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .construction import (
    Coloring,
    build_coloring_md,
    make_plan,
)
from .errors import (
    ConstructionUnavailableError,
    InvalidPlanError,
    NoSlopeExistsError,
)

DEFAULT_TIME_LIMIT = 60.0
DEFAULT_NODE_LIMIT = 10**8


@dataclass(frozen=True)
class ChiResult:
    """Outcome of a chromatic-number run; exact exactly when lower == upper."""

    status: str  # "exact" | "bounded"
    lower: int
    upper: int
    witness: Coloring
    nodes: int
    millis: float

    def record(self) -> dict:
        """JSON-ready summary of the run."""
        return {
            "q": self.witness.q,
            "m": self.witness.m,
            "status": self.status,
            "lower": self.lower,
            "upper": self.upper,
            "nodes": self.nodes,
            "millis": int(self.millis),
        }


def greedy_bound(graph) -> Coloring:
    """Proper coloring from greedy assignment in DSATUR order.

    Ties break by degree, then by smallest vertex index, so the result is
    deterministic. It is the search's first descent with N colors, which
    never backtracks, and it 2-colors every bipartite graph (Brelaz 1979).
    """
    return _search_k_coloring(graph, graph.n_vertices, math.inf, math.inf, 0)[1]


def clique_lower(graph, node_budget: int = 100_000) -> int:
    """Size of the largest clique found within the node budget.

    Always a valid chromatic lower bound; exact when the search finishes
    before the budget runs out (it does on desk-scale instances). Each
    root r is searched over bitmasks local to its later neighbors N+(r).
    A graph with a field is a Cayley graph, so vertex 0's subtree over
    N+(0) = S already holds a largest clique and is the only one searched.
    """
    n = graph.n_vertices
    if n == 0:
        return 0
    best = 1
    nodes = 0

    def extend(size: int, cand: int, rows: list[int]) -> None:
        nonlocal best, nodes
        while cand:
            if nodes >= node_budget:
                return
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            nodes += 1
            if size + 1 > best:
                best = size + 1
            sub = cand & rows[v]
            if sub:
                extend(size + 1, sub, rows)

    for r in range(1 if getattr(graph, "ctx", None) is not None else n):
        if nodes >= node_budget or n - r <= best:  # a clique from r on has <= n - r vertices
            break
        nodes += 1
        later = sorted(w for w in graph.neighbors_of(r).tolist() if w > r)
        bit = {w: 1 << i for i, w in enumerate(later)}
        rows = [sum(bit.get(x, 0) for x in graph.neighbors_of(w).tolist()) for w in later]
        extend(1, (1 << len(later)) - 1, rows)
    return best


def _construction_seed(graph) -> Coloring | None:
    ctx = getattr(graph, "ctx", None)
    if ctx is None:
        return None
    try:
        plan = make_plan(ctx)
        return build_coloring_md(ctx, graph.m, plan)
    except (ConstructionUnavailableError, NoSlopeExistsError, InvalidPlanError):
        return None


def _search_k_coloring(graph, k, deadline, node_limit, nodes):
    """Try to k-color the graph; returns (status, coloring, nodes) with
    status in {"found", "none", "budget"}."""
    n = graph.n_vertices
    if n == 0:
        return "found", Coloring(graph.q, graph.m, np.zeros(0, dtype=np.int64), 0), nodes
    if k < 1:
        return "none", None, nodes
    nbrs = [graph.neighbors_of(u).tolist() for u in range(n)]
    colors = [-1] * n
    forbid = [0] * n  # -1 while colored
    big = n + 1  # outranks any degree, so saturation dominates the score
    done = (k + 1) * big  # outranks any saturation, so colored vertices sink
    keys = np.array([len(x) for x in nbrs], dtype=np.int64)
    score = memoryview(keys)
    full = (1 << k) - 1
    max_used = -1

    v0 = int(keys.argmax())
    # frame: [vertex, colors left to try, bit of current try, touched, saved max_used, saved forbid]
    stack = [[v0, (~forbid[v0]) & ((1 << (max_used + 2)) - 1) & full, 0, [], -1, 0]]
    while stack:
        frame = stack[-1]
        v = frame[0]
        if frame[2]:
            bit = frame[2]
            for w in frame[3]:
                forbid[w] ^= bit
                score[w] -= big
            forbid[v] = frame[5]
            score[v] += done
            max_used = frame[4]
            frame[2] = 0
        rem = frame[1]
        if rem == 0:
            stack.pop()
            continue
        bit = rem & -rem
        c = bit.bit_length() - 1
        frame[1] = rem ^ bit
        nodes += 1
        if nodes >= node_limit or (
            (nodes & 1023) == 0 and perf_counter() > deadline
        ):
            return "budget", None, nodes
        colors[v] = c
        frame[5] = forbid[v]
        forbid[v] = -1
        score[v] -= done
        frame[2] = bit
        frame[4] = max_used
        if c > max_used:
            max_used = c
        touched = frame[3] = [w for w in nbrs[v] if not forbid[w] & bit]
        dead = False
        for w in touched:
            fw = forbid[w] | bit
            forbid[w] = fw
            score[w] += big
            if fw == full:
                dead = True
        if dead:
            continue
        if len(stack) == n:  # every frame on the stack holds a colored vertex
            witness = Coloring(
                q=graph.q,
                m=graph.m,
                colors=np.array(colors, dtype=np.int64),
                k=max_used + 1,
            )
            return "found", witness, nodes
        nv = int(keys.argmax())
        # mask before meeting full, which has N bits in greedy_bound
        allowed = (~forbid[nv]) & ((1 << (max_used + 2)) - 1) & full
        if allowed == 0:
            continue
        stack.append([nv, allowed, 0, [], -1, 0])
    return "none", None, nodes


def exact_chromatic(
    graph,
    time_limit: float = DEFAULT_TIME_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ChiResult:
    """Compute the chromatic number exactly, or a valid bracket on budget
    exhaustion (status "bounded", never an error)."""
    t0 = perf_counter()
    deadline = t0 + time_limit
    witness = greedy_bound(graph)
    upper = witness.k
    odd_cycle = min(upper, 3)  # exact: DSATUR 2-colors every bipartite graph
    seed = _construction_seed(graph)
    if seed is not None and seed.k < upper:
        upper, witness = seed.k, seed
    lower = max(
        odd_cycle,
        clique_lower(graph, node_budget=min(100_000, node_limit)),
    )
    nodes = 0
    interrupted = False
    while lower < upper and not interrupted:
        status, found, nodes = _search_k_coloring(
            graph, upper - 1, deadline, node_limit, nodes
        )
        if status == "found":
            upper, witness = found.k, found
        elif status == "none":
            lower = upper
        else:
            interrupted = True
    return ChiResult(
        status="exact" if lower == upper else "bounded",
        lower=lower,
        upper=upper,
        witness=witness,
        nodes=nodes,
        millis=(perf_counter() - t0) * 1000.0,
    )
