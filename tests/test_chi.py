"""Greedy bound, clique bound, and the exact chromatic solver."""

from itertools import combinations, product
from time import perf_counter

import numpy as np
import pytest

from conftest import field_for, graph_for, vertex_index
from uqgraph import (
    build_graph,
    cayley_spectrum,
    clique_lower,
    exact_chromatic,
    greedy_bound,
    hoffman_bound,
    verify_coloring,
    vertex_coords,
)
from uqgraph import chi
from uqgraph.chi import _neighbor_masks, _search_k_coloring
from uqgraph.construction import Coloring
from uqgraph.graph import UnitQuadranceGraph


class StubGraph:
    """Minimal graph protocol for solver tests on hand-built instances."""

    def __init__(self, n, edges, q=0, m=2):
        self.q, self.m = q, m
        self._n = n
        self._adj = [set() for _ in range(n)]
        for u, v in edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def n_vertices(self):
        return self._n

    def neighbors_of(self, u):
        return np.array(sorted(self._adj[u]), dtype=np.int64)


def brute_chi(n, edges):
    for k in range(1, n + 1):
        for assignment in product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    return n


def test_greedy_bound_q7():
    g = graph_for(7)
    coloring = greedy_bound(g)
    assert verify_coloring(g, coloring) is None
    assert coloring.k >= 4  # exact chromatic number is 4


def test_greedy_bound_q5():
    g = graph_for(5)
    coloring = greedy_bound(g)
    assert verify_coloring(g, coloring) is None
    assert coloring.k >= 3


def test_greedy_single_vertex():
    assert greedy_bound(StubGraph(1, [])).k == 1


def test_empty_graph():
    assert greedy_bound(StubGraph(0, [])).k == 0
    result = exact_chromatic(StubGraph(0, []))
    assert (result.status, result.lower, result.upper) == ("exact", 0, 0)


def test_clique_lower():
    assert clique_lower(graph_for(7)) == 2  # triangle-free
    assert clique_lower(graph_for(5)) == 2
    assert clique_lower(graph_for(11)) == 3  # a triangle exists, no K4


def test_clique_lower_stubs():
    k4 = StubGraph(4, list(combinations(range(4), 2)))
    assert clique_lower(k4) == 4
    assert clique_lower(StubGraph(3, [])) == 1


def test_exact_chromatic_q7():
    result = exact_chromatic(graph_for(7))
    assert result.status == "exact"
    assert result.lower == result.upper == 4
    assert result.witness.k == 4
    assert verify_coloring(graph_for(7), result.witness) is None


def test_exact_chromatic_q5():
    g = graph_for(5)
    result = exact_chromatic(g)
    assert result.status == "exact"
    assert result.lower == result.upper == 3
    assert verify_coloring(g, result.witness) is None
    # cross-check: D_5 is the 5x5 torus grid, whose edges join coordinate
    # neighbors; it is non-bipartite (odd cycles) and 3-colorable
    for u in range(g.n_vertices):
        xu, yu = vertex_coords(g.q, g.m, u)
        expected = {
            vertex_index(g.q, ((xu + 1) % 5, yu)),
            vertex_index(g.q, ((xu - 1) % 5, yu)),
            vertex_index(g.q, (xu, (yu + 1) % 5)),
            vertex_index(g.q, (xu, (yu - 1) % 5)),
        }
        assert set(int(v) for v in g.neighbors_of(u)) == expected


def test_exact_chromatic_budget_path():
    result = exact_chromatic(graph_for(7), node_limit=1)
    assert result.status == "bounded"
    assert 2 <= result.lower <= 4
    assert result.upper <= 4
    assert result.lower <= result.upper
    assert verify_coloring(graph_for(7), result.witness) is None
    assert result.witness.k == result.upper


def test_exact_chromatic_tiny_timeout_still_valid():
    result = exact_chromatic(graph_for(13), time_limit=0.3)
    assert result.lower <= result.upper
    assert result.upper <= 7  # construction uses (13+1)/2 colors
    assert verify_coloring(graph_for(13), result.witness) is None


def test_exact_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(20260808)
    for _ in range(25):
        n = int(rng.integers(5, 9))
        edges = [
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5
        ]
        g = StubGraph(n, edges)
        result = exact_chromatic(g)
        assert result.status == "exact"
        assert result.lower == result.upper == brute_chi(n, edges)
        witness = result.witness.colors
        assert all(witness[u] != witness[v] for u, v in edges)


def small_stub_graphs():
    """(graph, chromatic number) for n = 0 and n = 1, C5, C6, K4 and the
    Petersen graph."""
    petersen = StubGraph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
         (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    return [
        (StubGraph(0, []), 0),
        (StubGraph(1, []), 1),
        (StubGraph(5, [(i, (i + 1) % 5) for i in range(5)]), 3),
        (StubGraph(6, [(i, (i + 1) % 6) for i in range(6)]), 2),
        (StubGraph(4, list(combinations(range(4), 2))), 4),
        (petersen, 3),
    ]


def test_exact_known_structured_graphs():
    for graph, expected in small_stub_graphs():
        result = exact_chromatic(graph)
        assert (result.status, result.lower, result.upper) == ("exact", expected, expected)


def test_bound_monotonicity():
    for q in (5, 7, 9):
        g = graph_for(q)
        result = exact_chromatic(g)
        assert clique_lower(g) <= result.lower
        assert result.upper <= greedy_bound(g).k


def test_hoffman_consistency_where_exact():
    import math

    for q in (5, 7):
        g = graph_for(q)
        result = exact_chromatic(g)
        assert result.status == "exact"
        bound = hoffman_bound(cayley_spectrum(g.ctx, 2))
        assert math.ceil(bound - 1e-9) <= result.lower


def test_determinism():
    first = exact_chromatic(graph_for(7))
    second = exact_chromatic(graph_for(7))
    assert (first.status, first.lower, first.upper) == (
        second.status,
        second.lower,
        second.upper,
    )
    assert np.array_equal(first.witness.colors, second.witness.colors)


def test_record_shape():
    record = exact_chromatic(graph_for(5)).record()
    assert set(record) == {"q", "m", "status", "lower", "upper", "nodes", "millis"}
    assert record["q"] == 5 and record["m"] == 2 and record["status"] == "exact"


def scan_search_k_coloring(graph, k, deadline, node_limit, nodes):
    """The DSATUR search as it was before the score array: pick() scans
    every vertex at every node. Kept as the oracle for the array search."""
    n = graph.n_vertices
    if n == 0:
        return "found", Coloring(graph.q, graph.m, np.zeros(0, dtype=np.int64), 0), nodes
    if k < 1:
        return "none", None, nodes
    nbrs = [[int(w) for w in graph.neighbors_of(u)] for u in range(n)]
    deg = [len(x) for x in nbrs]
    colors = [-1] * n
    forbid = [0] * n
    sat = [0] * n
    full = (1 << k) - 1
    max_used = -1
    n_colored = 0

    def pick() -> int:
        best_v = -1
        best_sat = -1
        best_deg = -1
        for u in range(n):
            if colors[u] < 0:
                s = sat[u]
                if s > best_sat or (s == best_sat and deg[u] > best_deg):
                    best_v = u
                    best_sat = s
                    best_deg = deg[u]
        return best_v

    v0 = pick()
    stack = [[v0, (~forbid[v0]) & full & ((1 << (max_used + 2)) - 1), 0, [], -1]]
    while stack:
        frame = stack[-1]
        v = frame[0]
        if frame[2]:
            bit = frame[2]
            for w in frame[3]:
                forbid[w] ^= bit
                sat[w] -= 1
            colors[v] = -1
            n_colored -= 1
            max_used = frame[4]
            frame[2] = 0
            frame[3] = []
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
        n_colored += 1
        frame[2] = bit
        frame[4] = max_used
        if c > max_used:
            max_used = c
        touched = frame[3]
        dead = False
        for w in nbrs[v]:
            if colors[w] < 0:
                fw = forbid[w]
                if not fw & bit:
                    fw |= bit
                    forbid[w] = fw
                    sat[w] += 1
                    touched.append(w)
                    if fw == full:
                        dead = True
        if dead:
            continue
        if n_colored == n:
            witness = Coloring(
                q=graph.q,
                m=graph.m,
                colors=np.array(colors, dtype=np.int64),
                k=max_used + 1,
            )
            return "found", witness, nodes
        nv = pick()
        allowed = (~forbid[nv]) & full & ((1 << (max_used + 2)) - 1)
        if allowed == 0:
            continue
        stack.append([nv, allowed, 0, [], -1])
    return "none", None, nodes


def search_outcomes(search, graph):
    """(k, node limit, status, nodes, witness colors) for every k from 2 up
    to the greedy bound and every node limit, with no deadline."""
    out = []
    for k in range(2, greedy_bound(graph).k + 1):
        for node_limit in (1, 500, 5000):
            status, found, nodes = search(graph, k, float("inf"), node_limit, 0)
            colors = None if found is None else found.colors.tolist()
            out.append((k, node_limit, status, nodes, colors))
    return out


def uneven_stub_graphs():
    """50 seeded random graphs whose per-vertex edge weights spread the
    degrees, so ties in the DSATUR key are rare and the order matters."""
    rng = np.random.default_rng(20261017)
    for _ in range(50):
        n = int(rng.integers(10, 61))
        weight = rng.uniform(0.05, 0.95, size=n)
        yield StubGraph(n, [
            (u, v)
            for u, v in combinations(range(n), 2)
            if rng.random() < weight[u] * weight[v]
        ])


ORACLE_POINTS = [(5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (3, 3), (5, 3)]


@pytest.mark.parametrize("q, m", ORACLE_POINTS)
def test_score_array_search_matches_scan_oracle(q, m):
    g = graph_for(q, m)
    assert search_outcomes(_search_k_coloring, g) == search_outcomes(scan_search_k_coloring, g)


def test_score_array_search_matches_scan_oracle_on_uneven_degrees():
    for g in uneven_stub_graphs():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            scan_search_k_coloring, g
        )


def memoryview_search_k_coloring(graph, k, deadline, node_limit, nodes):
    """The DSATUR search as it was before the bitsets: neighbor lists, a -1
    forbid value on colored vertices and score updates through a memoryview
    of the int64 key array, undone neighbor by neighbor. Kept as the oracle
    for the bitset search."""
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


@pytest.mark.parametrize("q, m", ORACLE_POINTS)
def test_bitset_search_matches_memoryview_oracle(q, m):
    g = graph_for(q, m)
    assert search_outcomes(_search_k_coloring, g) == search_outcomes(
        memoryview_search_k_coloring, g
    )


def test_bitset_search_matches_memoryview_oracle_on_uneven_degrees():
    """Degrees differ, so a vertex's rank is not its index."""
    for g in uneven_stub_graphs():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            memoryview_search_k_coloring, g
        )


def test_bitset_greedy_descent_matches_memoryview_oracle():
    """k = N: more colors than any degree, so no frame keeps a snapshot."""
    for g in [graph_for(q, m) for q, m in ORACLE_POINTS] + list(uneven_stub_graphs()):
        n = g.n_vertices
        new = _search_k_coloring(g, n, float("inf"), float("inf"), 0)
        old = memoryview_search_k_coloring(g, n, float("inf"), float("inf"), 0)
        assert (new[0], new[2], new[1].k) == (old[0], old[2], old[1].k)
        assert np.array_equal(new[1].colors, old[1].colors)


def test_bitset_search_matches_memoryview_oracle_when_retries_dominate():
    """D_13 has no 4-coloring and the search backtracks throughout its
    first 20 000 nodes: 1 678 of them restore a frame's color masks."""
    g = graph_for(13)
    new = _search_k_coloring(g, 4, float("inf"), 20000, 0)
    assert new == memoryview_search_k_coloring(g, 4, float("inf"), 20000, 0)
    assert new == ("budget", None, 20000)


def masks_one_vertex_at_a_time(graph):
    """Neighbor masks in rank order, one packbits per vertex: the oracle for
    the blocked build in _neighbor_masks."""
    n = graph.n_vertices
    degrees = np.array([len(graph.neighbors_of(u)) for u in range(n)], dtype=np.int64)
    order = np.argsort(-degrees, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    masks = []
    for u in order.tolist():
        row = np.zeros(n, dtype=bool)
        row[rank[graph.neighbors_of(u)]] = True
        masks.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
    return order.tolist(), masks


def test_blocked_neighbor_masks_match_one_vertex_at_a_time():
    """On uneven stubs rank is not index; at (3,8), N = 6561, the build
    packs more than one block."""
    for g in list(uneven_stub_graphs())[:5]:
        order, masks = _neighbor_masks(g)
        assert order != list(range(g.n_vertices))
        assert (order, masks) == masks_one_vertex_at_a_time(g)
    g = graph_for(3, 8)
    assert g.n_vertices > (1 << 22) // g.n_vertices  # rows per block
    order, masks = _neighbor_masks(g)
    assert order == list(range(g.n_vertices))  # a field graph is regular
    assert (order, masks) == masks_one_vertex_at_a_time(g)


def test_pinned_search_counts():
    assert exact_chromatic(graph_for(7)).nodes == 41
    for q in (11, 13):
        result = exact_chromatic(graph_for(q), node_limit=20000)
        assert (result.status, result.lower, result.upper) == ("bounded", 3, 6)


def array_greedy_bound(graph) -> Coloring:
    """Greedy DSATUR with numpy colors and numpy scalar score updates, as it
    was before the memoryview score. Kept as the oracle for greedy_bound."""
    n = graph.n_vertices
    nbrs = [graph.neighbors_of(u) for u in range(n)]
    colors = np.full(n, -1, dtype=np.int64)
    forbid = [0] * n
    big = n + 1
    score = np.array([len(x) for x in nbrs], dtype=np.int64)
    for _ in range(n):
        v = int(np.argmax(score))
        c = ((forbid[v] + 1) & ~forbid[v]).bit_length() - 1
        colors[v] = c
        score[v] = -1
        bit = 1 << c
        for w in nbrs[v]:
            w = int(w)
            if colors[w] < 0 and not forbid[w] & bit:
                forbid[w] |= bit
                score[w] += big
    return Coloring(q=graph.q, m=graph.m, colors=colors, k=int(colors.max(initial=-1)) + 1)


def array_search_k_coloring(graph, k, deadline, node_limit, nodes):
    """The DSATUR search with numpy scalar score updates and a separate
    colored test per neighbor, as it was before the -1 forbid sentinel and
    the memoryview score. Kept as the oracle for _search_k_coloring."""
    n = graph.n_vertices
    if n == 0:
        return "found", Coloring(graph.q, graph.m, np.zeros(0, dtype=np.int64), 0), nodes
    if k < 1:
        return "none", None, nodes
    nbrs = [[int(w) for w in graph.neighbors_of(u)] for u in range(n)]
    colors = [-1] * n
    forbid = [0] * n
    big = n + 1
    done = (k + 1) * big
    score = np.array([len(x) for x in nbrs], dtype=np.int64)
    full = (1 << k) - 1
    max_used = -1

    v0 = int(score.argmax())
    stack = [[v0, (~forbid[v0]) & full & ((1 << (max_used + 2)) - 1), 0, [], -1]]
    while stack:
        frame = stack[-1]
        v = frame[0]
        if frame[2]:
            bit = frame[2]
            for w in frame[3]:
                forbid[w] ^= bit
                score[w] -= big
            colors[v] = -1
            score[v] += done
            max_used = frame[4]
            frame[2] = 0
            frame[3] = []
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
        score[v] -= done
        frame[2] = bit
        frame[4] = max_used
        if c > max_used:
            max_used = c
        touched = frame[3]
        dead = False
        for w in nbrs[v]:
            if colors[w] < 0:
                fw = forbid[w]
                if not fw & bit:
                    fw |= bit
                    forbid[w] = fw
                    score[w] += big
                    touched.append(w)
                    if fw == full:
                        dead = True
        if dead:
            continue
        if len(stack) == n:
            witness = Coloring(
                q=graph.q,
                m=graph.m,
                colors=np.array(colors, dtype=np.int64),
                k=max_used + 1,
            )
            return "found", witness, nodes
        nv = int(score.argmax())
        allowed = (~forbid[nv]) & full & ((1 << (max_used + 2)) - 1)
        if allowed == 0:
            continue
        stack.append([nv, allowed, 0, [], -1])
    return "none", None, nodes


@pytest.mark.parametrize("q, m", ORACLE_POINTS)
def test_search_matches_score_array_oracle(q, m):
    g = graph_for(q, m)
    assert search_outcomes(_search_k_coloring, g) == search_outcomes(array_search_k_coloring, g)


def test_search_matches_score_array_oracle_on_uneven_degrees():
    for g in uneven_stub_graphs():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            array_search_k_coloring, g
        )


def test_greedy_matches_array_oracle():
    extra = list(bipartite_stub_graphs()) + [StubGraph(0, []), StubGraph(1, [])]
    for g in [graph_for(q, m) for q, m in ORACLE_POINTS] + list(uneven_stub_graphs()) + extra:
        new, old = greedy_bound(g), array_greedy_bound(g)
        assert new.k == old.k
        assert new.colors.dtype == old.colors.dtype
        assert np.array_equal(new.colors, old.colors)


def bfs_structural_lower(graph) -> int:
    """1 for edgeless, 2 for bipartite with edges, 3 when an odd cycle
    exists, by breadth-first 2-coloring, as exact_chromatic computed it
    before it read min(k, 3) off the greedy coloring. Kept as the oracle
    for that bound."""
    n = graph.n_vertices
    if n == 0:
        return 0
    side = [-1] * n
    has_edge = False
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in graph.neighbors_of(u).tolist():
                if w == u:
                    continue
                has_edge = True
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return 3
    return 2 if has_edge else 1


def bipartite_stub_graphs():
    """120 seeded graphs that are bipartite by construction: up to four
    components, each with random sides and edges only across them, plus
    isolated vertices, all under a random relabeling."""
    rng = np.random.default_rng(20261018)
    for _ in range(120):
        sizes = rng.integers(1, 16, size=int(rng.integers(1, 5)))
        n = int(sizes.sum() + rng.integers(0, 6))
        label = rng.permutation(n).tolist()
        edges, start = [], 0
        for size in sizes.tolist():
            side = rng.integers(0, 2, size=size)
            density = rng.uniform(0.1, 0.9)
            edges += [
                (label[start + u], label[start + v])
                for u, v in combinations(range(size), 2)
                if side[u] != side[v] and rng.random() < density
            ]
            start += size
        yield StubGraph(n, edges)


def structural_test_graphs():
    return ([graph_for(q, m) for q, m in ORACLE_POINTS] + list(uneven_stub_graphs())
            + list(bipartite_stub_graphs()) + [g for g, _ in small_stub_graphs()])


def test_odd_cycle_bound_from_greedy_matches_bfs_oracle():
    """DSATUR 2-colors every bipartite graph (Brelaz 1979), so min(k, 3) of
    the greedy coloring is 0, 1, 2 or 3 exactly as the BFS finds it."""
    bounds = [(min(greedy_bound(g).k, 3), bfs_structural_lower(g)) for g in structural_test_graphs()]
    assert all(bound == oracle for bound, oracle in bounds)
    assert {oracle for _, oracle in bounds} == {0, 1, 2, 3}
    assert sum(oracle == 2 for _, oracle in bounds) >= 100


def test_greedy_is_the_search_first_descent():
    """With k = n colors no vertex can see every color, so the search
    never backtracks: it finds a coloring after exactly n nodes."""
    for g in structural_test_graphs():
        status, _, nodes = _search_k_coloring(g, g.n_vertices, float("inf"), float("inf"), 0)
        assert (status, nodes) == ("found", g.n_vertices)


BRACKETS_BEFORE_SEARCH = {
    (3, 2): 3, (5, 2): 3, (7, 2): 4, (9, 2): 3, (11, 2): 6, (13, 2): 7, (17, 2): 8,
    (19, 2): 9, (23, 2): 11, (25, 2): 10, (27, 2): 11, (29, 2): 11, (31, 2): 12,
    (3, 3): 3, (5, 3): 10, (7, 3): 15, (3, 4): 14, (5, 4): 30,
}


@pytest.mark.parametrize("q, m", list(BRACKETS_BEFORE_SEARCH))
def test_bracket_before_any_search(q, m):
    """At node_limit=1 only the greedy, construction, odd-cycle and clique
    bounds act: the bracket is [3, upper] with upper the smaller of the
    greedy and construction colors."""
    result = exact_chromatic(graph_for(q, m), node_limit=1)
    upper = BRACKETS_BEFORE_SEARCH[q, m]
    assert (result.lower, result.upper) == (3, upper)
    assert result.status == ("exact" if upper == 3 else "bounded")
    assert result.witness.k == upper


def global_clique_lower(graph, node_budget=100_000):
    """The clique search as it was before local masks: one N-bit neighbor
    mask per vertex and a top-level loop over every vertex. Kept as the
    oracle for clique_lower."""
    n = graph.n_vertices
    if n == 0:
        return 0
    rows = [sum(1 << v for v in graph.neighbors_of(u).tolist()) for u in range(n)]
    best = 1
    nodes = 0

    def extend(size, cand):
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
                extend(size + 1, sub)

    extend(0, (1 << n) - 1)
    return best


CLIQUE_BUDGETS = (0, 1, 2, 3, 10, 500, 20000, 100000)


@pytest.mark.parametrize("q, m", [(5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2),
                                  (31, 2), (3, 3), (5, 3), (7, 3), (9, 3), (3, 4), (5, 4)])
def test_clique_lower_from_vertex_0_matches_global_oracle(q, m):
    g = graph_for(q, m)
    for budget in CLIQUE_BUDGETS:
        assert clique_lower(g, budget) == global_clique_lower(g, budget), budget


def test_clique_lower_matches_global_oracle_on_uneven_degrees():
    for g in uneven_stub_graphs():
        for budget in CLIQUE_BUDGETS:
            assert clique_lower(g, budget) == global_clique_lower(g, budget), budget


def test_clique_numbers_reach_five():
    points = [(31, 2), (11, 2), (7, 3), (3, 4), (5, 4)]
    assert [clique_lower(graph_for(q, m)) for q, m in points] == [2, 3, 4, 4, 5]


def counted(monkeypatch, name):
    """Replace uqgraph.chi's function name by a wrapper that lists the
    arguments of every call, and return that list."""
    calls = []
    call = getattr(chi, name)

    def wrapper(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(chi, name, wrapper)
    return calls


def test_masks_are_built_once_per_exact_chromatic(monkeypatch):
    """greedy_bound and every search round share one mask build; the runs
    keep the nodes, bracket and witness they had with a build per call."""
    builds = counted(monkeypatch, "_neighbor_masks")
    rounds = counted(monkeypatch, "_search_k_coloring")
    g = build_graph(field_for(13), 2)
    result = exact_chromatic(g, node_limit=20000)
    assert len(builds) == 1 and [k for _, k, *_ in rounds] == [169, 6, 5]
    assert (result.status, result.lower, result.upper, result.nodes) == ("bounded", 3, 6, 20000)
    assert result.witness.k == 6 and verify_coloring(g, result.witness) is None
    builds.clear()
    rounds.clear()
    result = exact_chromatic(list(uneven_stub_graphs())[1], node_limit=100000)
    assert len(builds) == 1 and [k for _, k, *_ in rounds] == [52, 8, 7]
    assert (result.status, result.lower, result.nodes) == ("exact", 8, 263)
    assert result.witness.colors[:10].tolist() == [7, 3, 3, 1, 4, 5, 1, 1, 0, 2]


def test_masks_live_as_long_as_their_graph(monkeypatch):
    """A second run on the same graph builds nothing, and the masks go
    when the graph goes."""
    builds = counted(monkeypatch, "_neighbor_masks")
    kept = len(chi._MASKS)
    g = build_graph(field_for(7), 2)
    first = exact_chromatic(g)
    assert exact_chromatic(g).witness.colors.tolist() == first.witness.colors.tolist()
    assert len(builds) == 1 and len(chi._MASKS) == kept + 1
    del g, builds[0]  # the last references to the graph
    assert len(chi._MASKS) == kept


def clashes_on_rows(graph, colors) -> bool:
    """True when some row edge {u, v} of graph.adjacency has both ends
    colored alike: the rows, not S, judge the witness."""
    return bool((colors[graph.adjacency] == colors[:, None]).any())


def line_quotient(q):
    """Cay(F_q, T) with T = {b*x - y : (x, y) in S}, b the smallest code
    with 1 + b**2 a nonsquare (so 0 is not in T), and the map
    f(x, y) = b*x - y from F_q**2. f carries every edge of D_q onto an
    edge of the quotient, so a coloring c of the quotient lifts to c o f."""
    ctx = field_for(q)
    nonsquare = ctx.character_vector() == -1
    b = next(b for b in range(q) if nonsquare[ctx.add(ctx.mul(b, b), 1)])
    f = np.array([ctx.sub(ctx.mul(b, x), y) for x, y in
                  (vertex_coords(q, 2, u) for u in range(q * q))])
    return UnitQuadranceGraph(ctx, 1, np.unique(f[graph_for(q).connection_set])), f


def test_chi_of_the_13_cycle():
    """At m = 1 the unit circle is {1, -1}: D_13^1 is the 13-cycle."""
    graph = UnitQuadranceGraph(field_for(13), 1, np.array([1, 12]))
    result = exact_chromatic(graph)
    assert (result.status, result.lower, result.upper) == ("exact", 3, 3)
    assert result.witness.m == 1
    assert not clashes_on_rows(graph, result.witness.colors)


@pytest.mark.parametrize("q, expected, nodes", [(11, 6, 88), (13, 5, 12), (23, 8, 4616)])
def test_chi_of_line_quotients_lifts_to_the_plane(q, expected, nodes):
    quotient, f = line_quotient(q)
    result = exact_chromatic(quotient)
    assert (result.status, result.upper, result.nodes) == ("exact", expected, nodes)
    assert not clashes_on_rows(quotient, result.witness.colors)
    lift = Coloring(q, 2, result.witness.colors[f], result.witness.k)
    assert verify_coloring(graph_for(q), lift) is None


def test_chi_takes_the_construction_witness_only_when_it_is_proper():
    """The line-pairing construction colors the unit-circle graph. With the
    24 points of quadrance 1 or 2 as the connection set its coloring
    clashes, so the witness comes from the search instead."""
    q, ctx = 13, field_for(13)
    quadrance = [ctx.add(ctx.mul(x, x), ctx.mul(y, y)) for x, y in
                 (vertex_coords(q, 2, u) for u in range(q * q))]
    graph = UnitQuadranceGraph(ctx, 2, np.flatnonzero(np.isin(quadrance, (1, 2))))
    assert len(graph.connection_set) == 24
    seed = chi._construction_seed(graph)
    assert verify_coloring(graph, seed) == (0, 14)
    assert clashes_on_rows(graph, seed.colors)  # the rows see the clash that S does
    result = exact_chromatic(graph, node_limit=1)
    assert verify_coloring(graph, result.witness) is None
    assert not clashes_on_rows(graph, result.witness.colors)
    assert result.upper == result.witness.k == greedy_bound(graph).k
