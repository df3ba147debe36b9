"""Graph construction, degrees, triangles, and DIMACS export."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for, graph_for, odd_prime_powers, refused_peak, vertex_index
from uqgraph import (
    Coloring,
    DimensionMismatchError,
    DimensionTooSmallError,
    FieldCtx,
    IOFailureError,
    build_coloring_md,
    build_graph,
    cayley_spectrum,
    degree_formula,
    export_dimacs,
    make_plan,
    quadrance,
    triangle_count,
    triangle_free_predicted,
    unit_circle,
    verify_coloring,
    vertex_coords,
)
from uqgraph.graph import circle_coords, circle_translates, coordinate_sums, decimal_names


def test_quadrance_examples():
    f7 = field_for(7)
    assert quadrance(f7, (0, 0), (1, 0)) == 1
    # 2^2 + 3^2 = 13 = 6 mod 7
    assert quadrance(f7, (0, 0), (2, 3)) == 6
    assert quadrance(f7, (0, 0, 0), (1, 1, 1)) == 3
    assert quadrance(f7, (4, 5), (4, 5)) == 0
    assert quadrance(f7, (1, 2), (3, 4)) == quadrance(f7, (3, 4), (1, 2))


def test_quadrance_dimension_errors():
    f7 = field_for(7)
    with pytest.raises(DimensionMismatchError):
        quadrance(f7, (0, 0), (1, 0, 0))
    with pytest.raises(DimensionTooSmallError):
        quadrance(f7, (0,), (1,))


def test_vertex_indexing_round_trip():
    for q, m in [(5, 2), (7, 3)]:
        for idx in range(q**m):
            coords = vertex_coords(q, m, idx)
            assert vertex_index(q, coords) == idx
    assert vertex_index(7, (2, 3)) == 17


def test_unit_circle_q5():
    circle = unit_circle(field_for(5), 2)
    assert {vertex_coords(5, 2, i) for i in circle} == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert len(circle) == degree_formula(5) == 4
    indices = circle.tolist()
    assert indices == sorted(indices)


def test_unit_circle_q7_size():
    assert len(unit_circle(field_for(7), 2)) == 8  # q = 3 mod 4 gives q + 1


def test_unit_circle_is_symmetric():
    for q in (5, 7, 9, 13):
        ctx = field_for(q)
        circle = {vertex_coords(q, 2, i) for i in unit_circle(ctx, 2)}
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
    counts = {np.unique(g.neighbors_of(u)).size for u in range(g.n_vertices)}
    assert counts == {sphere}


def test_build_graph_errors():
    with pytest.raises(DimensionTooSmallError):
        build_graph(field_for(7), 1)
    assert refused_peak(build_graph, field_for(257), 2) < 1 << 20  # 257**2 > 2**16


def test_no_self_loops_and_symmetry():
    g = graph_for(9)
    for u in range(g.n_vertices):
        assert u not in g.adjacency[u]
        for v in g.neighbors_of(u):
            assert u in g.adjacency[v]


@pytest.mark.parametrize("q", odd_prime_powers(3, 27))
def test_degree_formula_small(q):
    g = graph_for(q)
    expected = degree_formula(q)
    assert g.degree == expected
    degrees = {np.unique(g.neighbors_of(u)).size for u in range(g.n_vertices)}
    assert degrees == {expected}


def test_adjacency_matches_quadrance_definition():
    # oracle: plain modular arithmetic over all pairs
    for q in (5, 7):
        g = graph_for(q)
        for u in range(g.n_vertices):
            xu, yu = vertex_coords(q, 2, u)
            for v in range(u + 1, g.n_vertices):
                xv, yv = vertex_coords(q, 2, v)
                expected = ((xu - xv) ** 2 + (yu - yv) ** 2) % q == 1
                assert (v in g.adjacency[u]) == expected


@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_translation_invariance(data):
    q = data.draw(st.sampled_from([5, 7, 9, 11, 13]))
    g = graph_for(q)
    ctx = g.ctx
    c = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
    u = data.draw(st.integers(0, g.n_vertices - 1))
    v = data.draw(st.integers(0, g.n_vertices - 1))
    cu = vertex_coords(q, 2, u)
    cv = vertex_coords(q, 2, v)
    tu = vertex_index(q, (ctx.add(cu[0], c[0]), ctx.add(cu[1], c[1])))
    tv = vertex_index(q, (ctx.add(cv[0], c[0]), ctx.add(cv[1], c[1])))
    assert (v in g.adjacency[u]) == (tv in g.adjacency[tu])


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
    adj = [set(int(v) for v in g.neighbors_of(u)) for u in range(g.n_vertices)]
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
    pairs = int(np.count_nonzero(np.isin(graph.adjacency[circle], circle)))
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
    coords, sums = circle_coords(graph), coordinate_sums(graph.ctx)
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
    common = np.isin(g.adjacency[circle], circle).sum(axis=1)
    assert len(set(common.tolist())) == 1


@pytest.mark.parametrize("q, m", [(9, 2), (13, 2), (5, 3), (3, 4)])
def test_circle_translates_are_the_neighbors_in_circle_order(q, m):
    g = graph_for(q, m)
    assert np.array_equal(circle_translates(g, 0), g.connection_set)
    for u in (1, g.n_vertices // 3, g.n_vertices - 1):
        translates = circle_translates(g, u)
        assert np.array_equal(np.sort(translates), g.adjacency[u])
        # the k-th translate is u + S[k], coordinate by coordinate
        k = len(translates) // 2
        su, sk = vertex_coords(q, m, u), vertex_coords(q, m, int(g.connection_set[k]))
        assert translates[k] == vertex_index(q, [g.ctx.add(a, b) for a, b in zip(su, sk)])


def test_first_adjacency_read_builds_int32_rows_within_budget():
    # build_graph keeps only the circle, so its traced peak no longer spans the rows
    g = build_graph(field_for(127), 2)
    tracemalloc.start()
    try:
        rows = g.adjacency
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 127**2 * 128 * 4
    assert g.adjacency is rows  # built once
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


@pytest.mark.parametrize("start", [0, 1])
def test_decimal_names_match_numpy_string_cast(start):
    # every stop at a decade boundary, and the vertex bound plus one
    stops = [10**j + d for j in range(5) for d in (-1, 0, 1)] + [65536, 65537]
    for stop in stops:
        width = len(str(max(stop - 1, 0)))
        names = decimal_names(start, stop)
        expected = np.arange(start, stop).astype(f"S{width}")
        assert names.dtype == expected.dtype and np.array_equal(names, expected), stop
    assert decimal_names(1000, 1003).tolist() == [b"1000", b"1001", b"1002"]


def test_export_dimacs_failure():
    closed = io.StringIO()
    closed.close()
    with pytest.raises(IOFailureError):
        export_dimacs(graph_for(5), closed)
    with pytest.raises(IOFailureError):
        export_dimacs(graph_for(5), None)


def test_unit_circle_lies_at_quadrance_one():
    # the scalar quadrance over every vertex picks out exactly the circle
    for q, m in [(5, 2), (9, 2), (3, 3), (5, 3)]:
        ctx = field_for(q)
        origin = (0,) * m
        at_one = [i for i in range(q**m) if quadrance(ctx, origin, vertex_coords(q, m, i)) == 1]
        assert unit_circle(ctx, m).tolist() == at_one


# The column-by-column unit circle and neighbor-row builds and the per-row
# DIMACS writer that the per-coordinate broadcasts and the block writer
# replaced, kept as oracles.


def _digit_columns(q, m, n_vertices):
    idx = np.arange(n_vertices, dtype=np.int64)
    return [(idx // q ** (m - 1 - j)) % q for j in range(m)]


def unit_circle_by_columns(ctx, m):
    cols = _digit_columns(ctx.q, m, ctx.q**m)
    add_tab, squares = ctx.add_table(), ctx.square_vector()
    acc = np.zeros(ctx.q**m, dtype=np.int64)
    for col in cols:
        acc = add_tab[acc, squares[col]]
    return np.flatnonzero(acc == 1)


def adjacency_by_columns(ctx, m, circle):
    q, n_vertices = ctx.q, ctx.q**m
    add_tab = ctx.add_table()
    cols = _digit_columns(q, m, n_vertices)
    adjacency = np.empty((n_vertices, len(circle)), dtype=np.int64)
    for k, s in enumerate(circle):
        coords = vertex_coords(q, m, int(s))
        acc = add_tab[cols[0], coords[0]]
        for j in range(1, m):
            acc = acc * q + add_tab[cols[j], coords[j]]
        adjacency[:, k] = acc
    adjacency.sort(axis=1)
    return adjacency


def export_dimacs_by_rows(graph, sink, binary):
    ctx = graph.ctx
    header = (
        "c unit-quadrance graph\n"
        f"c q={ctx.q} p={ctx.p} n={ctx.n} m={graph.m}\n"
        f"c modulus={','.join(str(c) for c in ctx.modulus)}\n"
        f"p edge {graph.n_vertices} {graph.n_edges}\n"
    )
    sink.write(header.encode("ascii") if binary else header)
    names = [str(v + 1) for v in range(graph.n_vertices)]
    for u, row in enumerate(graph.adjacency):
        later = row[row > u].tolist()
        if later:
            head = f"e {names[u]} "
            text = head + ("\n" + head).join([names[v] for v in later]) + "\n"
            sink.write(text.encode("ascii") if binary else text)


# q = 121 and (13, 3) write several DIMACS blocks, the last one partial.
@pytest.mark.parametrize(
    "q, m",
    [(3, 2), (5, 2), (9, 2), (11, 2), (25, 2), (27, 2), (49, 2), (121, 2),
     (3, 3), (5, 3), (13, 3), (7, 4)],
)
def test_build_and_export_match_column_and_row_oracles(q, m):
    ctx = field_for(q)
    graph = build_graph(ctx, m)
    circle = unit_circle_by_columns(ctx, m)
    assert np.array_equal(graph.connection_set, circle)
    assert graph.adjacency.dtype == np.int32
    assert graph.adjacency.flags.c_contiguous
    assert graph.adjacency.nbytes == q**m * len(circle) * 4
    assert np.array_equal(graph.adjacency, adjacency_by_columns(ctx, m, circle))
    for binary, stream in ((False, io.StringIO), (True, io.BytesIO)):
        sink, expected = stream(), stream()
        export_dimacs(graph, sink)
        export_dimacs_by_rows(graph, expected, binary)
        assert sink.getvalue() == expected.getvalue()
