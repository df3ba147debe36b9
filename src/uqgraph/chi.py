"""Exact chromatic numbers at desk scale.

Every graph is a Cayley graph Cay(F_q^m, S); the neighbors of u are its
translates u + S. The solver is DSATUR-ordered backtracking with branch
and bound: the upper bound is seeded from a greedy DSATUR coloring and,
at m >= 2, from the line-pairing construction, built only when its
closed-form count is below greedy's and taken only when it is proper on
the graph's own connection set; the lower bound is the larger of a
bounded clique search and 3. S is non-empty and p is odd, so for any s
in S the points 0, s, 2s, ..., (p-1)s are a cycle of odd length p.
Each round tries to exhaust (upper-1)-colorings with color-permutation
symmetry removed (the first vertex is fixed to color 0 and new colors
are introduced in order). A completed exhaustion proves optimality; an
exhausted budget degrades the result to a valid bracket, and a spent
node budget starts no further round.

The greedy coloring is the search's first descent with k = N colors: no
vertex can see N colors, so it never backtracks, keeps no snapshot and
takes the most saturated vertex and its lowest free color at every step.

The search state is a few Python-int bitsets over vertex indices. Every
degree is |S|, so the lowest set bit of a candidate set is the DSATUR
tie-break. Each vertex has one neighbor mask, N**2 / 8 bytes in all,
built once per graph for the greedy descent, the clique bound and every
round by translating S's mask one base-p digit at a time, so no
neighbor row is ever formed. forbid[c] holds the uncolored vertices with a
neighbor of color c (exact on uncolored vertices only), and saturation
is a bit-sliced counter over them. Coloring v with c touches
nbr[v] & uncolored & ~forbid[c]. The next vertex is the lowest bit of the
counter's maximum, narrowed from the top slice down; the slices that
narrow it spell its saturation level. forbid[c] is empty above max_used,
so that vertex has, with no scan, (max_used + 1 - level) +
(max_used + 1 < k) free colors; a try is dead when it has none. A frame
holds its vertex, its last color tried and the count left; each try scans
forbid upward from the last color tried. A frame with a second color
keeps forbid and max_used as they were before its first try. A retry
restores them, so its scan sees the sets its count came from, and
rebuilds the counter from forbid[c] & uncolored (a kept counter would pin
width more N-bit ints per frame, some 1 GB at q = 251). A dead end pops
the frames with no color left; a found coloring is read off the stack.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .construction import Coloring, construct, expected_color_count
from .errors import ConstructionUnavailableError
from .graph import UnitQuadranceGraph

# the default budget counts nodes only, so a default record is the same on any machine
DEFAULT_TIME_LIMIT = math.inf
DEFAULT_NODE_LIMIT = 2_500_000
_MASKS = weakref.WeakKeyDictionary()  # graph -> neighbor masks, freed with the graph


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


def greedy_bound(graph: UnitQuadranceGraph) -> Coloring:
    """Proper coloring from greedy assignment in DSATUR order.

    Every degree is |S|, so ties break by smallest vertex index and the
    result is deterministic. It is the search's first descent with N
    colors, which never backtracks.
    """
    return _search_k_coloring(graph, graph.n_vertices, math.inf, math.inf, 0)[1]


def clique_lower(graph: UnitQuadranceGraph, node_budget: int = 100_000) -> int:
    """Size of the largest clique found within the node budget.

    Always a valid chromatic lower bound; exact when the search finishes
    before the budget runs out (it does on desk-scale instances). The
    graph is a Cayley graph, so a largest clique translates onto one that
    holds vertex 0, with its other vertices in N+(0) = S. Only vertex 0's
    subtree is searched, over the search's neighbor masks, its candidates
    starting at masks[0] = S. A call on its own builds the masks (about
    0.6 s and N**2 / 8 bytes at q = 251); exact_chromatic has them already.
    """
    masks = _masks(graph)
    best = 1
    nodes = 1  # the root, vertex 0

    def extend(size: int, cand: int) -> None:
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
            sub = cand & masks[v]
            if sub:
                extend(size + 1, sub)

    extend(1, masks[0])
    return best


def _masks(graph: UnitQuadranceGraph) -> list[int]:
    """The graph's neighbor masks, built on first use and kept while it lives."""
    if graph not in _MASKS:  # greedy_bound, the clique bound and every round share one build
        _MASKS[graph] = _neighbor_masks(graph)
    return _MASKS[graph]


def _neighbor_masks(graph: UnitQuadranceGraph) -> list[int]:
    """Bit v of masks[u] is set when v is in u + S. The base-p digits of an
    index are its group digits, so masks[0] is S's and, for each w = p**j
    < N, masks[u] for u in [w, p*w) is masks[u - w] plus 1 in digit j: the
    bits whose digit j is below p - 1 (keep) move up w, the rest wrap down."""
    n, p = graph.n_vertices, graph.ctx.p
    masks = [sum(1 << s for s in graph.connection_set.tolist())]
    w = 1
    while w < n:
        wrap = (p - 1) * w
        keep = ((1 << wrap) - 1) * (((1 << n) - 1) // ((1 << p * w) - 1))
        for u in range(wrap):  # masks[u] for u >= w was appended at step u - w
            up = masks[u] & keep
            masks.append((up << w) | ((masks[u] ^ up) >> wrap))
        w *= p
    return masks


def _add_one(sat: list[int], carry: int) -> None:
    """Add 1 to the bit-sliced counters of the vertices in carry."""
    j = 0
    while carry:
        s = sat[j]
        sat[j] = s ^ carry
        carry &= s
        j += 1


def _search_k_coloring(graph: UnitQuadranceGraph, k, deadline, node_limit, nodes):
    """Try to k-color the graph; returns (status, coloring, nodes) with
    status in {"found", "none", "budget"}."""
    n, max_degree = graph.n_vertices, graph.degree
    if k < 1:
        return "none", None, nodes
    nbr = _masks(graph)
    # with more colors than any degree no vertex runs out, so nothing is undone
    snapshots = k <= max_degree
    k = min(k, max_degree + 1)  # no vertex's lowest free color exceeds its degree
    width = k.bit_length()
    slices = [(j, 1 << j) for j in reversed(range(width))]
    forbid = [0] * k  # forbid[c]: uncolored vertices with a neighbor of color c
    sat = [0] * width  # bit j of each uncolored vertex's saturation
    unc = (1 << n) - 2  # uncolored, less vertex 0: the first frame's vertex
    max_used = -1
    check = min(node_limit, (nodes | 1023) + 1)  # the next node that reads the budget
    # frame: [vertex, last color tried, colors left, (forbid, max_used) before its first try]
    frame = [0, -1, 1, None]
    stack = [frame]
    while True:
        v, c, left, _ = frame
        low = 1 << v
        c += 1
        while forbid[c] & low:
            c += 1
        frame[1] = c
        frame[2] = left - 1
        nodes += 1
        if nodes >= check:
            if nodes >= node_limit or perf_counter() > deadline:
                return "budget", None, nodes
            check = min(node_limit, nodes + 1024)
        if c > max_used:
            max_used = c
        f = forbid[c]
        carry = nbr[v] & unc & ~f
        forbid[c] = f | carry
        j = 0
        while carry:  # add 1 to the counters of the vertices in carry
            s = sat[j]
            sat[j] = s ^ carry
            carry &= s
            j += 1
        if not unc:
            colors = [0] * n
            for v, c, *_ in stack:
                colors[v] = c
            witness = Coloring(graph.q, graph.m, np.array(colors, dtype=np.int64), max_used + 1)
            return "found", witness, nodes
        best = unc  # narrowed to the uncolored vertices of highest saturation
        level = 0
        for j, weight in slices:
            top = best & sat[j]
            if top:
                best = top
                level += weight
        free = max_used + 1 - level + (max_used + 1 < k)
        if free == 0:  # the most saturated vertex sees all k colors: this try is dead
            while not frame[2]:  # a frame with no color left returns its vertex
                stack.pop()
                if not stack:
                    return "none", None, nodes
                unc |= 1 << frame[0]
                frame = stack[-1]
            # only a frame with a second color gets here, and it kept a snapshot
            forbid, max_used = list(frame[3][0]), frame[3][1]
            sat = [0] * width
            for f in forbid[: max_used + 1]:
                _add_one(sat, f & unc)
            continue
        low = best & -best
        unc ^= low
        saved = (tuple(forbid), max_used) if snapshots and free > 1 else None
        frame = [low.bit_length() - 1, -1, free, saved]
        stack.append(frame)


def exact_chromatic(
    graph: UnitQuadranceGraph,
    time_limit: float = DEFAULT_TIME_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ChiResult:
    """Compute the chromatic number exactly, or a valid bracket on budget
    exhaustion (status "bounded", never an error)."""
    t0 = perf_counter()
    deadline = t0 + time_limit
    witness = greedy_bound(graph)
    upper = witness.k
    # the construction colors F_q^m, m >= 2, but this graph need not be D_q^m
    if graph.m >= 2 and expected_color_count(graph.ctx, graph.m) < upper:
        try:
            _, seed, violation = construct(graph)
            if violation is None:
                upper, witness = seed.k, seed
        except ConstructionUnavailableError:  # q = 3 has no shift
            pass
    # 0, s, ..., (p-1)s for any s in S is a cycle of odd length p
    lower = max(3, clique_lower(graph, node_budget=min(100_000, node_limit)))
    nodes = 0
    while lower < upper and nodes < node_limit:  # a spent budget starts no round
        status, found, nodes = _search_k_coloring(
            graph, upper - 1, deadline, node_limit, nodes
        )
        if status == "found":
            upper, witness = found.k, found
        elif status == "none":
            lower = upper
        else:
            break
    return ChiResult(
        status="exact" if lower == upper else "bounded",
        lower=lower,
        upper=upper,
        witness=witness,
        nodes=nodes,
        millis=(perf_counter() - t0) * 1000.0,
    )
