"""Greedy bound, clique bound, and the exact chromatic solver."""

import gc
import hashlib
from time import perf_counter

import numpy as np
import pytest

from conftest import adjacency_by_columns, field_for, graph_for, odd_prime_powers, vertex_index
from uqgraph import (
    build_graph,
    cayley_spectrum,
    clique_lower,
    exact_chromatic,
    greedy_bound,
    hoffman_bound,
    verify_coloring,
)
from uqgraph import chi
from uqgraph.chi import _neighbor_masks, _search_k_coloring
from uqgraph.construction import (
    Coloring,
    build_coloring_md,
    construct,
    expected_color_count,
    make_plan,
)
from uqgraph.errors import ConstructionUnavailableError
from uqgraph.graph import UnitQuadranceGraph, circle_translates


def neighbor_lists(graph):
    """Every vertex's sorted neighbors from the adjacency_by_columns oracle."""
    return adjacency_by_columns(graph).tolist()


def edge_list(graph):
    """Every edge {u, v}, u < v, once, from the adjacency_by_columns oracle."""
    return [(u, v) for u, row in enumerate(neighbor_lists(graph)) for v in row if u < v]


def brute_chi(n, edges):
    """The fewest independent sets that cover the n vertices, over every
    subset of them: an exhaustive oracle that shares no code with chi.
    Best[mask] takes the independent set I holding the lowest vertex of
    mask and recurses on mask minus I, in 3**n / 2 steps."""
    adjacent = [0] * n
    for u, v in edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    independent = [True] * (1 << n)
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        independent[mask] = independent[rest] and not adjacent[low.bit_length() - 1] & rest
        fewest, sub = n, rest
        while True:  # I = low | sub for every subset sub of rest
            if independent[low | sub]:
                fewest = min(fewest, best[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        best[mask] = fewest
    return best[-1]


def test_brute_chi_on_known_graphs():
    """The oracle on graphs chi no longer takes: no vertex, one vertex, the
    even and odd cycles C6 and C5, K4 and the Petersen graph."""
    petersen = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
                (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    c6, c5 = ([(i, (i + 1) % n) for i in range(n)] for n in (6, 5))
    k4 = [(u, v) for v in range(4) for u in range(v)]
    cases = [(0, [], 0), (1, [], 1), (6, c6, 2), (5, c5, 3), (4, k4, 4), (10, petersen, 3)]
    assert [brute_chi(n, edges) for n, edges, _ in cases] == [chi for *_, chi in cases]


def symmetric_set(rng, q, m):
    """A seeded random connection set of F_q^m, q prime: each pair {x, -x},
    x != 0, joins S with one chance drawn per set, and S is never empty."""
    shape = (q,) * m
    negated = np.ravel_multi_index(tuple(-np.array(np.unravel_index(np.arange(q**m), shape)) % q),
                                   shape)
    pairs = [x for x in range(1, q**m) if x < negated[x]]
    chance = rng.uniform(0.1, 0.9)
    chosen = [x for x in pairs if rng.random() < chance] or [pairs[int(rng.integers(len(pairs)))]]
    return np.sort(np.concatenate([chosen, negated[chosen]]))


def random_cayley_graphs(seed, points, count):
    """count seeded Cay(F_q^m, S) with random symmetric S, (q, m) drawn from points."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q, m = points[int(rng.integers(len(points)))]
        yield UnitQuadranceGraph(field_for(q), m, symmetric_set(rng, q, m))


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


def test_clique_lower():
    assert clique_lower(graph_for(7)) == 2  # triangle-free
    assert clique_lower(graph_for(5)) == 2
    assert clique_lower(graph_for(11)) == 3  # a triangle exists, no K4


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
    rows = circle_translates(g, np.arange(g.n_vertices))
    for u in range(g.n_vertices):
        xu, yu = np.unravel_index(u, (g.q,) * g.m)
        expected = {
            vertex_index(g.q, ((xu + 1) % 5, yu)),
            vertex_index(g.q, ((xu - 1) % 5, yu)),
            vertex_index(g.q, (xu, (yu + 1) % 5)),
            vertex_index(g.q, (xu, (yu - 1) % 5)),
        }
        assert set(rows[u].tolist()) == expected


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


BRUTE_FORCE_POINTS = [(5, 1), (7, 1), (11, 1), (3, 2)]


def brute_force_graphs():
    """40 seeded random symmetric S on Z_5, Z_7, Z_11 and F_3^2."""
    return list(random_cayley_graphs(20260808, BRUTE_FORCE_POINTS, 40))


def test_exact_matches_brute_force_on_random_graphs():
    """Random circulants and Cayley graphs on F_3^2, each solved exactly and
    its witness checked edge by edge against the oracle's edges."""
    graphs = brute_force_graphs()
    assert {(g.q, g.m) for g in graphs} == set(BRUTE_FORCE_POINTS)
    for g in graphs:
        edges = edge_list(g)
        result = exact_chromatic(g)
        assert result.status == "exact"
        assert result.lower == result.upper == brute_chi(g.n_vertices, edges)
        witness = result.witness.colors
        assert all(witness[u] != witness[v] for u, v in edges)


def small_cayley_graphs():
    """(graph, chromatic number, clique number) for the 5-cycle
    Cay(Z_5, {1, 4}) and the complete graphs Cay(Z_p, F_p*), p = 5, 7."""
    return [
        (UnitQuadranceGraph(field_for(5), 1, np.array([1, 4])), 3, 2),
        (UnitQuadranceGraph(field_for(5), 1, np.arange(1, 5)), 5, 5),
        (UnitQuadranceGraph(field_for(7), 1, np.arange(1, 7)), 7, 7),
    ]


def test_exact_known_structured_graphs():
    for graph, expected, _ in small_cayley_graphs():
        result = exact_chromatic(graph)
        assert (result.status, result.lower, result.upper) == ("exact", expected, expected)


def test_clique_lower_stubs():
    """The small graphs whose clique number is known by hand: the complete
    graphs K_5 and K_7 give their order, the 5-cycle gives 2."""
    for graph, _, clique in small_cayley_graphs():
        assert clique_lower(graph) == clique


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
    if k < 1:
        return "none", None, nodes
    nbrs = neighbor_lists(graph)
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
        for node_limit in (1, 500, 1023, 1024, 1025, 5000):
            status, found, nodes = search(graph, k, float("inf"), node_limit, 0)
            colors = None if found is None else found.colors.tolist()
            out.append((k, node_limit, status, nodes, colors))
    return out


RANDOM_SET_POINTS = [(p, 1) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)] + [(3, 2), (5, 2)]


def random_connection_sets():
    """50 seeded Cayley graphs with random symmetric S on Z_p (p <= 31),
    F_3^2 and F_5^2: S and its density vary, so the searches meet graphs
    far from D_q^m, from sparse circulants to near-complete ones."""
    return random_cayley_graphs(20261017, RANDOM_SET_POINTS, 50)


ORACLE_POINTS = [(5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (3, 3), (5, 3)]


@pytest.mark.parametrize("q, m", ORACLE_POINTS)
def test_score_array_search_matches_scan_oracle(q, m):
    g = graph_for(q, m)
    assert search_outcomes(_search_k_coloring, g) == search_outcomes(scan_search_k_coloring, g)


def test_score_array_search_matches_scan_oracle_on_uneven_degrees():
    """Random symmetric connection sets; every degree is |S|, so the scan's
    degree tie-break always falls to the lowest index."""
    for g in random_connection_sets():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            scan_search_k_coloring, g
        )


def memoryview_search_k_coloring(graph, k, deadline, node_limit, nodes):
    """The DSATUR search as it was before the bitsets: neighbor lists, a -1
    forbid value on colored vertices and score updates through a memoryview
    of the int64 key array, undone neighbor by neighbor. Kept as the oracle
    for the bitset search."""
    n = graph.n_vertices
    if k < 1:
        return "none", None, nodes
    nbrs = neighbor_lists(graph)
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
    """Random symmetric connection sets: every degree is |S|, and the bitset
    search's lowest-index tie-break is the memoryview oracle's argmax."""
    for g in random_connection_sets():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            memoryview_search_k_coloring, g
        )


def test_bitset_greedy_descent_matches_memoryview_oracle():
    """k = N: more colors than any degree, so no frame keeps a snapshot."""
    for g in [graph_for(q, m) for q, m in ORACLE_POINTS] + list(random_connection_sets()):
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


@pytest.mark.parametrize("q, k", [(23, 9), (31, 10)])
def test_bitset_search_matches_memoryview_oracle_with_four_counter_slices(q, k):
    """The first rounds of report-sweep's two heaviest points: k >= 8 gives
    the saturation counter four slices, and restores rebuild it from all k
    color sets (20 to 174 restores per limit), where ORACLE_POINTS stop at
    three slices."""
    g = graph_for(q)
    for node_limit in (1023, 1024, 5000):
        new = _search_k_coloring(g, k, float("inf"), node_limit, 0)
        assert new == memoryview_search_k_coloring(g, k, float("inf"), node_limit, 0)


def test_budget_stops_at_the_first_multiple_of_1024_past_a_deadline():
    """The deadline is read at every node whose cumulative count is a
    multiple of 1024, wherever the round's count starts."""
    g = graph_for(13)
    starts = (0, 1000, 1023, 1024, 5000)
    stops = [_search_k_coloring(g, 4, float("-inf"), float("inf"), s) for s in starts]
    assert stops == [("budget", None, n) for n in (1024, 1024, 1024, 2048, 5120)]
    assert stops == [
        memoryview_search_k_coloring(g, 4, float("-inf"), float("inf"), s) for s in starts
    ]


def brooks_exception(graph) -> bool:
    """True when every component is an odd cycle or a complete graph, the
    graphs that Brooks' theorem leaves with chi = degree + 1. Every s in S
    has odd order p, so degree 2 gives odd cycles; the graph is
    vertex-transitive, so its components are complete when N(0) is a clique."""
    rows = neighbor_lists(graph)
    return graph.degree == 2 or all(set(rows[0]) - {w} <= set(rows[w]) for w in rows[0])


def test_found_witness_matches_memoryview_oracle_on_both_sides_of_the_snapshot_rule():
    """k = max degree keeps a snapshot in every frame with two free colors;
    k = max degree + 1 keeps none. Each search colors every vertex, bar
    k = max degree on Brooks' odd cycles and complete graphs, which it
    refutes, and the witness read off the stack is the oracle's."""
    graphs = [graph_for(q, m) for q, m in ORACLE_POINTS] + list(random_connection_sets())
    refuted = 0
    for g in graphs:
        max_degree = max(map(len, neighbor_lists(g)))
        for k in (max_degree, max_degree + 1):
            new = _search_k_coloring(g, k, float("inf"), float("inf"), 0)
            old = memoryview_search_k_coloring(g, k, float("inf"), float("inf"), 0)
            want = "none" if k == max_degree and brooks_exception(g) else "found"
            assert new[0] == old[0] == want and new[2] == old[2]
            refuted += want == "none"
            if want == "found":
                assert new[1].k == old[1].k
                assert np.array_equal(new[1].colors, old[1].colors)
    assert 0 < refuted < len(graphs) // 2


def masks_one_vertex_at_a_time(graph):
    """Neighbor masks in index order, one packbits per vertex from the
    oracle's rows: the oracle for the digit translates in _neighbor_masks."""
    n, masks = graph.n_vertices, []
    for nbrs in neighbor_lists(graph):
        row = np.zeros(n, dtype=bool)
        row[nbrs] = True
        masks.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
    return masks


def test_blocked_neighbor_masks_match_one_vertex_at_a_time():
    """Masks translated from S's mask one base-p digit at a time: random
    circulants and random S on F_3^2 and F_5^2; F_27 adds digit-wise,
    (5,3) translates three coordinates and (3,8) eight digits; 37 is a
    prime above 36, the largest base numpy's base_repr takes, and F_25
    and F_9 give each coordinate two base-p digits."""
    for g in list(random_connection_sets())[:5]:
        assert _neighbor_masks(g) == masks_one_vertex_at_a_time(g)
    for q, m in [(27, 2), (5, 3), (3, 8), (37, 2), (25, 2), (9, 3)]:
        g = graph_for(q, m)
        assert _neighbor_masks(g) == masks_one_vertex_at_a_time(g)


# q: (status, lower, upper, nodes, sha256 of the witness colors' int64 bytes) at m = 2 and
# node_limit=20000, report-sweep's points: the brackets alone would miss a change of node order
PINNED_SEARCHES = {
    5: ("exact", 3, 3, 0, "4b39f45cc5939a45bcf3063ee09b17ac0514e66991ac88ceb2f6e4bb4df7ebeb"),
    7: ("exact", 4, 4, 41, "f8dcf6629dcbfa8dd5c6990290495cabb80883f7f36e87c1ac1a65da7c67796e"),
    9: ("exact", 3, 3, 0, "bbfbb81e57019c7d938a0a3183f14d086c5989c823f1ab73b5e47ea28b6653d3"),
    11: ("bounded", 3, 6, 20000, "b647609dea4cce8f94be25cbc462a5949672c2bfaa5a27699cabcb2571bcd0c2"),
    13: ("bounded", 3, 6, 20000, "c83f142f7b59709eccc34332ca94acdeec99945b430f596254dd5b2485e8fcc7"),
    17: ("bounded", 3, 7, 20000, "07e5338b03baa0f3ff783362b84befe34b6a84bd7b685cac17929742b6e868b8"),
    19: ("bounded", 3, 8, 20000, "22c72499930934870cf4099735054f679576b3aff319bd9b8c93857fb62ad4aa"),
    23: ("bounded", 3, 10, 20000, "d5a58e0666990e42e1beb376bcda990f3527be00278855d8caf3c396e5673905"),
    25: ("bounded", 3, 9, 20000, "6dfbb859f3bb706170cca9e46e3e574bc82b07a6585449742ba69ea8afb60583"),
    27: ("bounded", 3, 11, 20000, "29cb15ef0fe1ba0e70a135e9a7bb3014b4c9667691908d938731ed390e549dc2"),
    29: ("bounded", 3, 10, 20000, "66044ca95d7a2db81fb5e403f4d6b0daf23e8d721c705bd8af698cbd2b2f731b"),
    31: ("bounded", 3, 11, 20000, "d7db6fae8908674e8994d25caa690d4eb02cfced8762655a3228a8afd8a3c432"),
}


def test_pinned_search_counts():
    assert exact_chromatic(graph_for(7)).nodes == 41
    assert list(PINNED_SEARCHES) == odd_prime_powers(5, 31)
    for q, pinned in PINNED_SEARCHES.items():
        result = exact_chromatic(graph_for(q), node_limit=20000)
        digest = hashlib.sha256(result.witness.colors.tobytes()).hexdigest()
        assert (result.status, result.lower, result.upper, result.nodes, digest) == pinned, q


def array_greedy_bound(graph) -> Coloring:
    """Greedy DSATUR with numpy colors and numpy scalar score updates, as it
    was before the memoryview score. Kept as the oracle for greedy_bound."""
    n = graph.n_vertices
    nbrs = neighbor_lists(graph)
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
    if k < 1:
        return "none", None, nodes
    nbrs = neighbor_lists(graph)
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
    """Random symmetric connection sets: every degree is |S|, so the
    argmax of the oracle's scores breaks ties by index as the search does."""
    for g in random_connection_sets():
        assert search_outcomes(_search_k_coloring, g) == search_outcomes(
            array_search_k_coloring, g
        )


def cayley_test_graphs():
    """The D_q^m oracle points, the random connection sets and the small
    Cayley graphs, for the tests that run on every instance."""
    return ([graph_for(q, m) for q, m in ORACLE_POINTS] + list(random_connection_sets())
            + [g for g, *_ in small_cayley_graphs()])


def test_greedy_matches_array_oracle():
    for g in cayley_test_graphs():
        new, old = greedy_bound(g), array_greedy_bound(g)
        assert new.k == old.k
        assert new.colors.dtype == old.colors.dtype
        assert np.array_equal(new.colors, old.colors)


def test_odd_cycle_bound_is_a_p_cycle_through_0():
    """For the first s in S, 0, s, 2s, ..., (p-1)s are p distinct vertices,
    each adjacent to the next and the last to 0: a cycle of odd length p,
    so chi >= 3 on every graph, and the bracket says so before any search."""
    circulants = [g for g in brute_force_graphs() if g.m == 1]
    graphs = [graph_for(q, m) for q, m in ORACLE_POINTS] + circulants
    for g in graphs:
        ctx, m = g.ctx, g.m
        s = np.unravel_index(int(g.connection_set[0]), (g.q,) * m)
        walk, point = [], (0,) * m
        for _ in range(ctx.p):
            walk.append(vertex_index(g.q, point))
            point = tuple(ctx.add(int(x), int(y)) for x, y in zip(point, s))
        assert point == (0,) * m and len(set(walk)) == ctx.p, (g.q, m)
        rows = neighbor_lists(g)
        assert all(v in rows[u] for u, v in zip(walk, walk[1:] + walk[:1])), (g.q, m)
        assert exact_chromatic(g, node_limit=1).lower >= 3
    assert {g.q for g in circulants} == {5, 7, 11}


def test_greedy_is_the_search_first_descent():
    """With k = n colors no vertex can see every color, so the search
    never backtracks: it finds a coloring after exactly n nodes."""
    for g in cayley_test_graphs():
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
    bounds act: the bracket is [3, upper], 3 from the p-cycle 0, s, ...,
    (p-1)s, with upper the smaller of the greedy and construction colors."""
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
    rows = [sum(1 << v for v in nbrs) for nbrs in neighbor_lists(graph)]
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
                                  (31, 2), (3, 3), (5, 3), (7, 3), (9, 3), (3, 4), (5, 4),
                                  (3, 6)])
def test_clique_lower_from_vertex_0_matches_global_oracle(q, m):
    g = graph_for(q, m)
    for budget in CLIQUE_BUDGETS:
        assert clique_lower(g, budget) == global_clique_lower(g, budget), budget


def test_clique_lower_matches_global_oracle_on_uneven_degrees():
    """Random symmetric connection sets: cliques of 2 up to p vertices, each
    found from vertex 0 over S alone."""
    for g in random_connection_sets():
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
    g = list(random_connection_sets())[13]  # a circulant on Z_19 of degree 14
    result = exact_chromatic(g, node_limit=100000)
    assert (g.q, g.m, g.degree) == (19, 1, 14)
    assert len(builds) == 1 and [k for _, k, *_ in rounds] == [19, 11, 10, 9]
    assert (result.status, result.lower, result.nodes) == ("exact", 10, 766)
    assert result.witness.colors[:10].tolist() == [0, 1, 8, 0, 1, 2, 3, 2, 9, 3]
    assert verify_coloring(g, result.witness) is None


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


def test_clique_lower_leaves_no_cycle_for_the_collector():
    """The clique search's recursive closure is dropped before it returns,
    so the masks it holds go with the graph, not at the next gc run."""
    g = build_graph(field_for(7), 2)
    gc.collect()
    gc.disable()
    try:
        assert clique_lower(g) == 2 and gc.collect() == 0
    finally:
        gc.enable()


def clashes_on_rows(graph, colors) -> bool:
    """True when some row edge {u, v} of adjacency_by_columns has both ends
    colored alike: the rows, not S, judge the witness."""
    return bool((colors[adjacency_by_columns(graph)] == colors[:, None]).any())


def line_quotient(q):
    """Cay(F_q, T) with T = {b*x - y : (x, y) in S}, b the smallest code
    with 1 + b**2 a nonsquare (so 0 is not in T), and the map
    f(x, y) = b*x - y from F_q**2. f carries every edge of D_q onto an
    edge of the quotient, so a coloring c of the quotient lifts to c o f."""
    ctx = field_for(q)
    nonsquare = ctx.character_vector() == -1
    b = next(b for b in range(q) if nonsquare[ctx.add(ctx.mul(b, b), 1)])
    f = np.array([ctx.sub(ctx.mul(b, x), y) for x, y in
                  (np.unravel_index(u, (q, q)) for u in range(q * q))])
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


def quadrance_graph(q, values):
    """Cay(F_q^2, S) with S the points whose quadrance x**2 + y**2 is in values."""
    ctx = field_for(q)
    quadrance = [ctx.add(ctx.mul(x, x), ctx.mul(y, y)) for x, y in
                 (np.unravel_index(u, (q, q)) for u in range(q * q))]
    return UnitQuadranceGraph(ctx, 2, np.flatnonzero(np.isin(quadrance, values)))


def test_chi_takes_the_construction_witness_only_when_it_is_proper():
    """The line-pairing construction colors the unit-circle graph. With the
    24 points of quadrance 1 or 2 as the connection set its coloring
    clashes, so the witness comes from the search instead."""
    graph = quadrance_graph(13, (1, 2))
    assert len(graph.connection_set) == 24
    _, seed, violation = construct(graph)
    assert violation == verify_coloring(graph, seed) == (0, 14)
    assert clashes_on_rows(graph, seed.colors)  # the rows see the clash that S does
    result = exact_chromatic(graph, node_limit=1)
    assert verify_coloring(graph, result.witness) is None
    assert not clashes_on_rows(graph, result.witness.colors)
    assert result.upper == result.witness.k == greedy_bound(graph).k


def ungated_seed(graph, upper):
    """chi's construction seed as it was before the gate: always plan and
    build, and take the coloring when it has fewer than upper colors and is
    proper on the graph's own connection set. Kept as the oracle for the
    gate; None where the seed is not taken."""
    try:
        seed = build_coloring_md(graph.ctx, graph.m, make_plan(graph.ctx))
    except ConstructionUnavailableError:  # q = 3 has no shift
        return None
    return seed if seed.k < upper and verify_coloring(graph, seed) is None else None


GATE_POINTS = ([(q, 2) for q in odd_prime_powers(3, 61)] + [(q, 3) for q in odd_prime_powers(3, 13)]
               + [(q, 4) for q in odd_prime_powers(3, 7)])


def test_construction_gate_matches_the_ungated_seed(monkeypatch):
    """chi builds the construction only when its closed-form count is below
    greedy's, and the witness before any search is the one the ungated seed
    gives: the construction where it is taken, else greedy's coloring."""
    built = []
    monkeypatch.setattr(chi, "construct", lambda graph: built.append(graph) or construct(graph))
    taken = []
    graphs = [((q, m), graph_for(q, m)) for q, m in GATE_POINTS]
    for point, graph in graphs + [("quadrance 1, 2", quadrance_graph(13, (1, 2)))]:
        ctx, m = graph.ctx, graph.m
        if ctx.q == 3:
            with pytest.raises(ConstructionUnavailableError):
                construct(graph)
        else:
            assert construct(graph)[1].k == expected_color_count(ctx, m), point
        greedy = greedy_bound(graph)
        seed = ungated_seed(graph, greedy.k)
        built.clear()
        witness = exact_chromatic(graph, node_limit=0).witness
        assert built == ([graph] if expected_color_count(ctx, m) < greedy.k else []), point
        assert witness.colors.tolist() == (seed or greedy).colors.tolist(), point
        if seed is not None:
            taken.append(point)
    assert taken == [(7, 2), (11, 2)]
