"""Graph construction, degrees, triangles, and DIMACS export."""

import functools
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adjacency_by_columns,
    digit_columns,
    field_for,
    graph_for,
    odd_prime_powers,
    refused_peak,
    vertex_index,
)
from uqgraph import (
    Coloring,
    DimensionTooSmallError,
    FieldCtx,
    InvalidConnectionSetError,
    IOFailureError,
    TooLargeError,
    UnitQuadranceGraph,
    build_coloring_md,
    build_graph,
    cayley_spectrum,
    degree_formula,
    export_dimacs,
    make_field,
    make_plan,
    triangle_count,
    triangle_free_predicted,
    unit_circle,
    verify_coloring,
)
from uqgraph.graph import (
    DEFAULT_MAX_VERTICES,
    circle_translates,
    decimal_names,
    dimacs_words,
    index_coords,
    place_values,
    write_ascii,
)


def coordinate_sums(ctx: FieldCtx) -> np.ndarray:
    """Oracle: the (q, q) codes a + x, row a; a take along row a translates
    one coordinate by a. verify_coloring read it whole before it formed the
    rows of only the values its shifts take."""
    codes = np.arange(ctx.q)
    return ctx.add_arrays(codes[:, None], codes)


def test_vertex_indexing_round_trip():
    for q, m in [(5, 2), (7, 3)]:
        for idx in range(q**m):
            coords = np.unravel_index(idx, (q,) * m)
            assert vertex_index(q, coords) == idx
    assert vertex_index(7, (2, 3)) == 17


def test_unit_circle_q5():
    circle = unit_circle(field_for(5), 2)
    assert {np.unravel_index(i, (5, 5)) for i in circle} == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert len(circle) == degree_formula(5) == 4
    indices = circle.tolist()
    assert indices == sorted(indices)


def test_unit_circle_q7_size():
    assert len(unit_circle(field_for(7), 2)) == 8  # q = 3 mod 4 gives q + 1


def test_unit_circle_is_symmetric():
    for q in (5, 7, 9, 13):
        ctx = field_for(q)
        circle = {np.unravel_index(i, (q, q)) for i in unit_circle(ctx, 2)}
        for s in circle:
            assert (ctx.neg(s[0]), ctx.neg(s[1])) in circle


def test_build_graph_basic():
    g7 = graph_for(7)
    assert g7.n_vertices == 49
    assert g7.degree == 8
    assert g7.n_edges == 196
    g5 = graph_for(5)
    assert g5.n_vertices == 25 and g5.degree == 4 and g5.n_edges == 50


def test_build_graph_m3():
    g = graph_for(5, 3)
    assert g.n_vertices == 125
    # oracle: enumerate the unit sphere with plain modular arithmetic
    sphere = sum(
        1
        for x in range(5)
        for y in range(5)
        for z in range(5)
        if (x * x + y * y + z * z) % 5 == 1
    )
    assert g.degree == sphere
    counts = {np.unique(row).size for row in circle_translates(g, np.arange(g.n_vertices))}
    assert counts == {sphere}


def test_build_graph_errors():
    with pytest.raises(DimensionTooSmallError):
        build_graph(field_for(7), 1)
    assert refused_peak(build_graph, field_for(257), 2) < 1 << 20  # 257**2 > 2**16


def test_no_self_loops_and_symmetry():
    g = graph_for(9)
    rows = circle_translates(g, np.arange(g.n_vertices))
    for u in range(g.n_vertices):
        assert u not in rows[u]
        for v in rows[u]:
            assert u in rows[v]


@pytest.mark.parametrize("q", odd_prime_powers(3, 27))
def test_degree_formula_small(q):
    g = graph_for(q)
    expected = degree_formula(q)
    assert g.degree == expected
    degrees = {np.unique(row).size for row in circle_translates(g, np.arange(g.n_vertices))}
    assert degrees == {expected}


def test_adjacency_matches_quadrance_definition():
    # oracle: plain modular arithmetic over all pairs
    for q in (5, 7):
        g = graph_for(q)
        for u in range(g.n_vertices):
            xu, yu = np.unravel_index(u, (q, q))
            row = circle_translates(g, u)
            for v in range(u + 1, g.n_vertices):
                xv, yv = np.unravel_index(v, (q, q))
                expected = ((xu - xv) ** 2 + (yu - yv) ** 2) % q == 1
                assert (v in row) == expected


@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_translation_invariance(data):
    q = data.draw(st.sampled_from([5, 7, 9, 11, 13]))
    g = graph_for(q)
    ctx = g.ctx
    c = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
    u = data.draw(st.integers(0, g.n_vertices - 1))
    v = data.draw(st.integers(0, g.n_vertices - 1))
    cu = np.unravel_index(u, (q, q))
    cv = np.unravel_index(v, (q, q))
    tu = vertex_index(q, (ctx.add(cu[0], c[0]), ctx.add(cu[1], c[1])))
    tv = vertex_index(q, (ctx.add(cv[0], c[0]), ctx.add(cv[1], c[1])))
    assert (v in circle_translates(g, u)) == (tv in circle_translates(g, tu))


def test_triangle_counts():
    assert triangle_count(graph_for(7)) == 0
    assert triangle_count(graph_for(5)) == 0
    # oracle-verified by exhaustive triple enumeration
    assert triangle_count(graph_for(11)) == 484
    assert triangle_count(graph_for(13)) == 676


@pytest.mark.parametrize(
    "q, m, expected",
    [
        (5, 2, 0), (7, 2, 0), (9, 2, 108), (11, 2, 484), (13, 2, 676),
        (25, 2, 5000), (27, 2, 3402), (49, 2, 38416), (3, 3, 27), (5, 3, 2500),
    ],
)
def test_triangle_count_against_enumeration_oracle(q, m, expected):
    g = graph_for(q, m)
    adj = [set(row) for row in adjacency_by_columns(g).tolist()]
    count = 0
    for u in range(g.n_vertices):
        for v in adj[u]:
            if v > u:
                count += sum(1 for w in adj[u] & adj[v] if w > v)
    assert triangle_count(g) == count == expected


def triangles_by_row_lookup(graph):
    """Oracle: the route triangle_count took before it read only the unit
    circle, S's own neighbor rows s + S looked up in S."""
    circle = graph.connection_set
    pairs = int(np.count_nonzero(np.isin(adjacency_by_columns(graph)[circle], circle)))
    return graph.n_vertices * pairs // 6


ROW_LOOKUP_POINTS = [
    (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2), (49, 2), (3, 3), (5, 3), (7, 4),
]


@pytest.mark.parametrize("q, m", ROW_LOOKUP_POINTS)
def test_triangle_count_against_row_lookup_oracle(q, m):
    g = graph_for(q, m)
    assert triangle_count(g) == triangles_by_row_lookup(g)


def triangles_by_circle_pairs(graph):
    """Oracle: the S-pair count triangle_count made before it read one edge.

    Summing S + S coordinate by coordinate and looking the sums up in S
    counts the pairs (s, s') with s + s' in S. Each triangle {0, s, s + s'}
    at the origin is counted twice, every vertex lies on as many, and a
    triangle has three vertices. columns[j][a, k] is a + s_k[j], so the sums
    of a block of circle points with all of S take one row gather per
    coordinate, in blocks of about 2**16 sums.
    """
    q, m, circle = graph.q, graph.m, graph.connection_set
    coords, sums = index_coords(q, m, circle), coordinate_sums(graph.ctx)
    columns = [sums[:, c] for c in coords.T]
    on_circle = np.zeros(graph.n_vertices, dtype=bool)
    on_circle[circle] = True
    step = max(1, (1 << 16) // len(circle))
    pairs = 0
    for start in range(0, len(circle), step):
        block = coords[start : start + step]
        total = columns[0][block[:, 0]]  # row i, column k: index of block[i] + s_k
        for j in range(1, m):
            total = total * q + columns[j][block[:, j]]
        pairs += int(np.count_nonzero(on_circle[total]))
    return graph.n_vertices * pairs // 6


@pytest.mark.parametrize("q, m", ROW_LOOKUP_POINTS + [(5, 6), (3, 8), (3, 9)])
def test_triangle_count_against_circle_pair_oracle(q, m):
    # past (7, 4) the rows are too large to build, so only the pair count checks there
    g = build_graph(field_for(q), m)
    assert triangle_count(g) == triangles_by_circle_pairs(g)


@pytest.mark.parametrize(
    "q, m",
    [(q, 2) for q in odd_prime_powers(5, 27)]
    + [(5, 3), (7, 3), (9, 3), (3, 4), (5, 4), (3, 5)],
)
def test_every_edge_has_the_same_common_neighbor_count(q, m):
    # the premise of triangle_count: |S & (s + S)| does not depend on s in S
    g = graph_for(q, m)
    circle = g.connection_set
    common = np.isin(adjacency_by_columns(g)[circle], circle).sum(axis=1)
    assert len(set(common.tolist())) == 1


@pytest.mark.parametrize("q, m", [(9, 2), (13, 2), (5, 3), (3, 4)])
def test_circle_translates_are_the_neighbors_in_circle_order(q, m):
    g = graph_for(q, m)
    rows = adjacency_by_columns(g)
    assert np.array_equal(circle_translates(g, 0), g.connection_set)
    for u in (1, g.n_vertices // 3, g.n_vertices - 1):
        translates = circle_translates(g, u)
        assert np.array_equal(np.sort(translates), rows[u])
        # the k-th translate is u + S[k], coordinate by coordinate
        k = len(translates) // 2
        su, sk = np.unravel_index(u, (q,) * m), np.unravel_index(g.connection_set[k], (q,) * m)
        assert translates[k] == vertex_index(q, [g.ctx.add(a, b) for a, b in zip(su, sk)])


@pytest.mark.parametrize("q, m", [(9, 2), (49, 2), (13, 3), (7, 4), (3, 7), (13, 1)])
def test_circle_translates_of_many_vertices_are_their_rows(q, m):
    g = graph_for(q, m) if m >= 2 else UnitQuadranceGraph(field_for(q), 1, np.array([1, q - 1]))
    vertices = np.random.default_rng(q + m).permutation(g.n_vertices)[: g.n_vertices // 3 + 1]
    translates = circle_translates(g, vertices)
    assert translates.shape == (len(vertices), g.degree)
    assert np.array_equal(np.sort(translates, axis=1), adjacency_by_columns(g)[vertices])
    # row i is circle_translates of vertices[i], in circle order
    assert np.array_equal(translates[-1], circle_translates(g, int(vertices[-1])))
    grid = circle_translates(g, vertices[: 2 * (len(vertices) // 2)].reshape(-1, 2))
    assert np.array_equal(grid.reshape(-1, g.degree), translates[: 2 * (len(vertices) // 2)])


@pytest.mark.parametrize("circle, message", [
    ([], "^the connection set is empty$"),
    ([1, 4, 99], r"^connection set index 99 is outside the vertices \[0, 25\)$"),
    ([-1, 1, 4], r"^connection set index -1 is outside the vertices \[0, 25\)$"),
    ([1, 5], "^the connection set is not closed under negation$"),  # -(0, 1) is (0, 4)
    ([1, 4, 5, 5], "^the connection set is not closed under negation$"),  # -(1, 0) is (4, 0)
    ([0, 1, 4], "^the connection set holds 0, a loop at every vertex$"),
    ([1, 1, 4, 4], "^connection set index 1 is repeated$"),  # every edge written twice
    ([4, 5, 20, 1, 5, 20], "^connection set index 5 is repeated$"),
])
def test_graph_refuses_an_empty_outside_or_asymmetric_connection_set(circle, message):
    with pytest.raises(InvalidConnectionSetError, match=message):
        UnitQuadranceGraph(make_field(5), 2, np.array(circle, dtype=np.int64))


def test_graph_accepts_symmetric_connection_sets_in_any_order():
    ctx = field_for(9)  # -S from the digits: -(a0 + a1*x) = (3 - a0) % 3 + ((3 - a1) % 3)*x
    circle = graph_for(9).connection_set
    graph = UnitQuadranceGraph(ctx, 2, circle[::-1].copy())
    assert np.array_equal(np.sort(graph.connection_set), circle)
    UnitQuadranceGraph(ctx, 2, np.array([3, 6]))  # (0, x) and (0, 2x)
    with pytest.raises(InvalidConnectionSetError):
        UnitQuadranceGraph(ctx, 2, np.array([3, 4]))  # (0, x) and (0, 1 + x)
    UnitQuadranceGraph(make_field(13), 1, np.array([12, 1]))


@pytest.mark.parametrize("m", [40, 41])
def test_graph_refuses_vertex_indices_past_int64(m):
    # 3**40 > 2**63: the place values 3**(m-1) would wrap in int64,
    # and at m = 41 the set {1, 2} read as not closed under negation
    with pytest.raises(TooLargeError, match=f"^3\\*\\*{m} vertices exceed int64 indices$"):
        UnitQuadranceGraph(make_field(3), m, np.array([1, 2]))


@pytest.mark.parametrize("q, m", [(13, 1), (5, 2), (9, 2), (3, 3), (7, 3)])
def test_index_coords_round_trip_against_unravel_index(q, m):
    n = q**m
    assert place_values(q, m).tolist() == [q ** (m - 1 - j) for j in range(m)]
    coords = index_coords(q, m, np.arange(n))
    assert coords.shape == (n, m)
    assert np.array_equal(coords, np.column_stack(np.unravel_index(np.arange(n), (q,) * m)))
    assert np.array_equal(coords @ place_values(q, m), np.arange(n))
    assert index_coords(q, m, n - 1).tolist() == list(np.unravel_index(n - 1, (q,) * m))  # one index


def test_index_coords_reach_place_values_of_3_to_the_38():
    places = place_values(3, 39)
    assert places.dtype == np.int64 and places[0] == 3**38
    rng = np.random.default_rng(39)
    vertices = np.concatenate([[0, 1, 3**38, 3**39 - 1], rng.integers(0, 3**39, 50)])
    coords = index_coords(3, 39, vertices)
    # the base-3 digits of each index, most significant first (unravel_index
    # takes at most 32 dimensions before numpy 2)
    digits = [[int(d) for d in np.base_repr(u, 3).zfill(39)] for u in vertices.tolist()]
    assert coords.tolist() == digits
    assert np.array_equal(coords @ places, vertices)


def test_index_coords_keep_the_shape_of_the_indices():
    vertices = np.arange(5**3).reshape(25, 5)
    coords = index_coords(5, 3, vertices)
    assert coords.shape == (25, 5, 3)
    assert coords[7, 2].tolist() == list(np.unravel_index(vertices[7, 2], (5, 5, 5)))
    assert np.array_equal(coords @ place_values(5, 3), vertices)


def test_graph_with_the_largest_int64_indices_builds():
    graph = UnitQuadranceGraph(make_field(3), 39, np.array([1, 2]))
    assert graph.n_vertices == 3**39 < 2**63
    assert index_coords(3, 39, graph.connection_set).tolist() == [[0] * 38 + [1], [0] * 38 + [2]]


def _neighbor_rows(graph):
    """Oracle: (N, |S|) int32 rows u + S, each sorted, as export_dimacs
    built them before it went block by block: the rows over the first j
    coordinates, times q, plus coordinate j of every u + s (the sums
    a + s_k[j] of coordinate_sums) give the rows over the first j + 1, all
    in int32, which holds every index below the vertex bound."""
    rows = np.zeros((1, graph.degree), dtype=np.int32)
    for c in index_coords(graph.q, graph.m, graph.connection_set).T:
        column = coordinate_sums(graph.ctx)[:, c].astype(np.int32, order="C")  # reshape is a view
        rows = (rows[:, None, :] * graph.q + column).reshape(-1, graph.degree)
    rows.sort(axis=1)
    return rows


def test_first_adjacency_read_builds_int32_rows_within_budget():
    # the whole-array row oracle; build_graph keeps only the circle
    g = build_graph(field_for(127), 2)
    tracemalloc.start()
    try:
        rows = _neighbor_rows(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.int32 and rows.nbytes == 127**2 * 128 * 4
    assert np.array_equal(rows, adjacency_by_columns(g))
    assert vars(g).keys() == {"ctx", "m", "connection_set"}  # the graph keeps no rows
    # the rows are 8.3 MB in int32; an int64 intermediate would be about 16 MB
    assert peak < 12 * 2**20


@pytest.mark.parametrize("q, m", [(5, 6), (3, 9)])
def test_triangles_and_verify_never_build_the_rows(q, m):
    # the rows alone would take 190 MB at (5, 6) and 520 MB at (3, 9)
    n = q**m
    colors = np.arange(n, dtype=np.int64)
    colors[-1] = colors[-2]  # vertex n - 1 is n - 2 plus (0, ..., 0, 1)
    damaged = Coloring(q=q, m=m, colors=colors, k=n)
    # 6T is the sum of the cubed eigenvalues, the closed walks of length 3
    cubes = float(np.sum(cayley_spectrum(field_for(q), m).eigenvalues ** 3))
    for call, expected in ((triangle_count, round(cubes / 6)),
                           (lambda g: verify_coloring(g, damaged), (n - 2, n - 1))):
        graph = build_graph(field_for(q), m)
        tracemalloc.start()
        try:
            result = call(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 16 * 2**20


def test_triangles_and_verify_make_no_scalar_field_calls(monkeypatch):
    ctx = field_for(125)
    graph = build_graph(ctx, 2)
    coloring = build_coloring_md(ctx, 2, make_plan(ctx))

    def refuse(*args):
        raise AssertionError("scalar FieldCtx call")

    for name in ("add", "sub", "neg", "mul", "pow", "inv", "quadratic_character", "abs_trace"):
        monkeypatch.setattr(FieldCtx, name, refuse)
    assert triangle_count(graph) == 0
    assert verify_coloring(graph, coloring) is None


def test_triangle_free_predicted():
    assert triangle_free_predicted(7) is True
    assert triangle_free_predicted(19) is True
    assert triangle_free_predicted(5) is True
    assert triangle_free_predicted(13) is None  # criterion silent
    assert triangle_free_predicted(9) is None  # prime power, not prime
    assert triangle_free_predicted(49) is None


@pytest.mark.parametrize("q", [5, 7, 17, 19, 29, 31])
def test_prediction_implies_triangle_free(q):
    assert triangle_free_predicted(q) is True
    assert triangle_count(graph_for(q)) == 0


def test_export_dimacs_q5():
    sink = io.StringIO()
    export_dimacs(graph_for(5), sink)
    lines = sink.getvalue().splitlines()
    comments = [line for line in lines if line.startswith("c ")]
    assert "c q=5 p=5 n=1 m=2" in comments
    assert any(line.startswith("c modulus=") for line in comments)
    header = [line for line in lines if line.startswith("p ")]
    assert header == ["p edge 25 50"]
    edges = [line for line in lines if line.startswith("e ")]
    assert len(edges) == 50
    pairs = [tuple(int(x) for x in line.split()[1:]) for line in edges]
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    assert all(1 <= u and v <= 25 for u, v in pairs)


def test_export_dimacs_q7_header():
    sink = io.StringIO()
    export_dimacs(graph_for(7), sink)
    assert "p edge 49 196" in sink.getvalue()


def test_export_dimacs_binary_sink():
    sink = io.BytesIO()
    export_dimacs(graph_for(5), sink)
    assert b"p edge 25 50" in sink.getvalue()


@pytest.mark.parametrize("start", [0, 1, 7, 99999])
def test_decimal_names_match_numpy_string_cast(start):
    # start = stop, every stop around a power of ten (some below start: no names),
    # and the vertex bound plus one
    stops = [start] + [10**j + d for j in range(6) for d in (-1, 0, 1)] + [65536, 65537]
    for stop in stops:
        width = len(str(max(stop - 1, 0)))
        names = decimal_names(start, stop)
        expected = np.arange(start, stop).astype(f"S{width}")
        assert names.dtype == expected.dtype and np.array_equal(names, expected), stop
    assert len(decimal_names(start, start)) == 0
    assert decimal_names(1000, 1003).tolist() == [b"1000", b"1001", b"1002"]


def test_dimacs_words_hold_the_largest_name_in_eight_bytes():
    head, tail = dimacs_words(65536)
    assert head.dtype == tail.dtype == np.dtype("<u8") and len(head) == len(tail) == 65536
    assert head[65535:].tobytes().translate(None, b"\0") == b"e 65536 "
    assert tail[65535:].tobytes().translate(None, b"\0") == b"65536\n"
    # a name is NUL-padded to the widest one before its space or newline
    assert head[:1].tobytes() == b"e 1\0\0\0\0 " and tail[:1].tobytes() == b"1\0\0\0\0\n\0\0"


def test_export_dimacs_refuses_a_graph_above_the_vertex_bound_before_reading_rows():
    # 3**11 vertices: six-digit names would not fit a word
    graph = UnitQuadranceGraph(make_field(3), 11, np.array([1, 2]))
    assert refused_peak(export_dimacs, graph, io.BytesIO()) < 1 << 20


class LineCounter:
    """A binary sink that keeps only the number of lines in each write."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(data.count(b"\n"))


# (1009, 1) with S all units: q * |S| = 1 017 072 > 2**17, so each of its
# 1009 vertices is a block of its own
@pytest.mark.parametrize("q, m", [(127, 2), (7, 4), (1009, 1)])
def test_export_dimacs_writes_at_most_2_17_edge_lines_at_once(q, m):
    graph = graph_for(q, m) if m >= 2 else UnitQuadranceGraph(field_for(q), m, np.arange(1, q))
    sink = LineCounter()
    export_dimacs(graph, sink)
    header, *blocks = sink.lines
    assert header == 4 and sum(blocks) == graph.n_edges
    assert max(blocks) <= 1 << 17
    # one write per block of q**j vertices, j >= 0 the largest with q**j * |S| <= 2**17
    j = max(j for j in range(m + 1) if q**j * graph.degree <= 1 << 17)
    assert len(blocks) == q ** (m - j) == {127: 127, 7: 7, 1009: 1009}[q]


def test_every_graph_below_the_vertex_bound_writes_blocks_of_q_vertices_or_more():
    # q * |S| <= 2**17 at every D_q^m within the bound, so its blocks have j >= 1
    for q in odd_prime_powers(3, 256):
        ctx, m = field_for(q), 2
        while q**m <= DEFAULT_MAX_VERTICES:
            assert q * len(unit_circle(ctx, m)) <= 1 << 17, (q, m)
            m += 1


@pytest.mark.parametrize("q, m, mib", [(127, 2, 2), (251, 2, 8), (3, 8, 8)])
def test_export_dimacs_traced_peak_holds_no_rows(q, m, mib):
    # the (N, |S|) int32 rows alone are 7.9 MiB at q = 127, 60.6 MiB at
    # q = 251 and 54.1 MiB at (3, 8); the whole-row export peaked at 14.1,
    # 67.6 and 92.4 MiB
    graph = build_graph(field_for(q), m)
    tracemalloc.start()
    try:
        export_dimacs(graph, LineCounter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_export_dimacs_failure():
    closed = io.StringIO()
    closed.close()
    with pytest.raises(IOFailureError):
        export_dimacs(graph_for(5), closed)
    with pytest.raises(IOFailureError):
        export_dimacs(graph_for(5), None)


def test_unit_circle_lies_at_quadrance_one():
    # the scalar sum of squared coordinates over every vertex picks out exactly the circle
    for q, m in [(5, 2), (9, 2), (3, 3), (5, 3)]:
        ctx = field_for(q)
        at_one = [i for i in range(q**m) if functools.reduce(
            ctx.add, [ctx.mul(x, x) for x in np.unravel_index(i, (q,) * m)]) == 1]
        assert unit_circle(ctx, m).tolist() == at_one


# The column-by-column unit circle, the per-row DIMACS writer, the
# fixed-width record writer and the whole-row word writer that the
# per-coordinate broadcasts, the word writer and the block-by-block rows
# replaced, kept as oracles; the column-by-column neighbor rows are
# conftest's adjacency_by_columns.


def unit_circle_by_columns(ctx, m):
    cols = digit_columns(ctx.q, m, ctx.q**m)
    add_tab, squares = ctx.add_table(), ctx.square_vector()
    acc = np.zeros(ctx.q**m, dtype=np.int64)
    for col in cols:
        acc = add_tab[acc, squares[col]]
    return np.flatnonzero(acc == 1)


def dimacs_header(graph):
    ctx = graph.ctx
    return (
        "c unit-quadrance graph\n"
        f"c q={ctx.q} p={ctx.p} n={ctx.n} m={graph.m}\n"
        f"c modulus={','.join(str(c) for c in ctx.modulus)}\n"
        f"p edge {graph.n_vertices} {graph.n_edges}\n"
    )


def export_dimacs_by_rows(graph, sink, binary):
    header = dimacs_header(graph)
    sink.write(header.encode("ascii") if binary else header)
    names = [str(v + 1) for v in range(graph.n_vertices)]
    for u, row in enumerate(adjacency_by_columns(graph)):
        later = row[row > u].tolist()
        if later:
            head = f"e {names[u]} "
            text = head + ("\n" + head).join([names[v] for v in later]) + "\n"
            sink.write(text.encode("ascii") if binary else text)


def export_dimacs_by_fixed_records(graph, sink):
    names = decimal_names(1, graph.n_vertices + 1)
    record = np.dtype(
        [("e", "S2"), ("u", names.dtype), ("sp", "S1"), ("v", names.dtype), ("nl", "S1")]
    )
    step = max(1, (1 << 18) // graph.degree)  # rows per block
    neighbor_rows = adjacency_by_columns(graph)
    edges = np.empty(min(step * graph.degree, graph.n_edges), dtype=record)
    edges["e"], edges["sp"], edges["nl"] = b"e ", b" ", b"\n"  # each block fills a prefix
    write_ascii(sink, dimacs_header(graph).encode("ascii"))
    for start in range(0, graph.n_vertices, step):
        rows = neighbor_rows[start : start + step]
        later = rows > np.arange(start, start + len(rows))[:, None]
        block = edges[: np.count_nonzero(later)]
        block["u"] = np.repeat(names[start : start + len(rows)], later.sum(axis=1))
        block["v"] = names[rows[later]]
        write_ascii(sink, block.tobytes().translate(None, b"\0"))  # deletes the padding


def export_dimacs_by_whole_rows(graph, sink):
    head, tail = dimacs_words(graph.n_vertices)
    step = max(1, (1 << 17) // graph.degree)  # rows per block
    edges = np.empty(min(step * graph.degree, graph.n_edges), dtype=[("u", "<u8"), ("v", "<u8")])
    neighbor_rows = _neighbor_rows(graph)
    write_ascii(sink, dimacs_header(graph).encode("ascii"))
    for start in range(0, graph.n_vertices, step):
        rows = neighbor_rows[start : start + step]
        later = rows > np.arange(start, start + len(rows))[:, None]
        block = edges[: np.count_nonzero(later)]
        block["u"] = np.repeat(head[start : start + len(rows)], later.sum(axis=1))
        block["v"] = tail[rows[later]]
        write_ascii(sink, block.tobytes().translate(None, b"\0"))  # deletes the padding


# q = 101, 121, 127, (13, 3) and (7, 4) write several DIMACS blocks, (49, 2)
# one; names cross 9999 -> 10000 at q = 101. At m = 1 the unit circle
# {1, -1} of F_13 gives the 13-cycle, which build_graph refuses.
@pytest.mark.parametrize(
    "q, m",
    [(3, 2), (5, 2), (9, 2), (11, 2), (25, 2), (27, 2), (49, 2), (101, 2), (121, 2), (127, 2),
     (3, 3), (5, 3), (13, 3), (7, 4), (13, 1)],
)
def test_build_and_export_match_column_and_row_oracles(q, m):
    ctx = field_for(q)
    circle = unit_circle_by_columns(ctx, m)
    graph = build_graph(ctx, m) if m >= 2 else UnitQuadranceGraph(ctx, m, circle)
    assert np.array_equal(graph.connection_set, circle)
    for binary, stream in ((False, io.StringIO), (True, io.BytesIO)):
        sink, expected, records, whole = stream(), stream(), stream(), stream()
        export_dimacs(graph, sink)
        export_dimacs_by_rows(graph, expected, binary)
        export_dimacs_by_fixed_records(graph, records)
        export_dimacs_by_whole_rows(graph, whole)
        assert sink.getvalue() == expected.getvalue() == records.getvalue() == whole.getvalue()


class Sha256Sink:
    """A binary sink that keeps only the sha256 of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)


# the whole-row export wrote these; (3, 8) has blocks of 27 vertices under
# five leading coordinates
@pytest.mark.parametrize("q, m, digest", [
    (243, 2, "30e53ad3e91ec6e6bc57dd94ccd72a6ca563b146977ccc98fa24fc7753c2a59b"),
    (251, 2, "7ad3a3efc0a926adc665904bc02d4afd7ec76f85886dbe1c6ce3a30ad837a457"),
    (3, 8, "3260d934e7d4f848fbebc3f653ce05c50f5750c7d2b35e9dd76f440e584bd2e1"),
])
def test_export_dimacs_keeps_the_whole_row_sha256(q, m, digest):
    sink = Sha256Sink()
    export_dimacs(build_graph(field_for(q), m), sink)
    assert sink.digest.hexdigest() == digest


# S is every nonzero index, so q * |S| > 2**17 at (1009, 1) and (53, 2) and
# each vertex is a block of its own, except {±1, ±2, ±3} of F_41, one write
# of the one block
@pytest.mark.parametrize("q, m, circle", [
    (1009, 1, np.arange(1, 1009)),
    (53, 2, np.arange(1, 53**2)),
    (41, 1, np.array([1, 2, 3, 38, 39, 40])),
])
def test_export_dimacs_of_a_large_connection_set_matches_the_whole_rows(q, m, circle):
    graph = UnitQuadranceGraph(field_for(q), m, circle)
    sink, whole = Sha256Sink(), Sha256Sink()
    export_dimacs(graph, sink)
    export_dimacs_by_whole_rows(graph, whole)
    assert sink.digest.hexdigest() == whole.digest.hexdigest()


# The q**m quadrance grid, summed with the digit-matmul sums, that the
# prefix-and-roots circle replaced, kept as an oracle.


def unit_circle_by_grid(ctx, m):
    squares, digits = ctx.square_vector(), ctx.digits_matrix()
    acc = np.zeros(1, dtype=np.int64)
    for _ in range(m):  # quadrances of every point, one more coordinate each pass
        acc = (np.add(digits[acc[:, None]], digits[squares], dtype=np.int64) % ctx.p
               @ ctx.p ** np.arange(ctx.n)).ravel()
    return np.flatnonzero(acc == 1)


def _grid_points():
    """(q, 2) for every odd prime power q <= 256, and every (q, m) with
    3 <= m <= 10 and q**m inside the vertex bound."""
    plane = [(q, 2) for q in odd_prime_powers(3, 256)]
    return plane + [(q, m) for m in range(3, 11) for q in odd_prime_powers(3, 41)
                    if q**m <= 1 << 16]


@pytest.mark.parametrize("q, m", _grid_points())
def test_unit_circle_matches_the_grid(q, m):
    ctx = field_for(q)
    circle, grid = unit_circle(ctx, m), unit_circle_by_grid(ctx, m)
    assert circle.dtype == grid.dtype == np.int64
    assert np.array_equal(circle, grid)


@pytest.mark.parametrize("q", [243, 251])
def test_unit_circle_peak_memory_is_its_output_not_the_grid(q):
    # the q**2 grid peaked near 1 MiB at q = 251; the prefixes and roots are O(q)
    ctx = field_for(q)
    unit_circle(ctx, 2)  # the exp, log, square and digit tables are kept, not traced
    tracemalloc.start()
    try:
        circle = unit_circle(ctx, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(circle) == degree_formula(q)
    assert peak < 64 << 10
