"""The plan search and its refusals, character counts, the certificate
checks against the line lemmas, and colorings."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adjacency_by_columns,
    coloring_text_by_lines,
    field_for,
    graph_for,
    odd_prime_powers,
    refused_peak,
)
from uqgraph import (
    Coloring,
    ConstructionUnavailableError,
    IncompleteColoringError,
    InvalidPlanError,
    NotNonsquareError,
    UnitQuadranceGraph,
    build_coloring_md,
    count_Aq,
    exact_chromatic,
    expected_color_count,
    greedy_bound,
    make_plan,
    read_coloring,
    validate_plan,
    verify_coloring,
    write_coloring,
)
from uqgraph import construction
from uqgraph.cli import main
from uqgraph.construction import (
    _coset_reps,
    _read_lines,
    _require_shift,
    _require_slope,
    _shift_chars,
    _slope_chars,
)
from uqgraph.field import FieldCtx, make_field, prime_power


def test_find_slope_examples():
    assert make_plan(field_for(7)).a == 2  # 2^2+1 = 5, the smallest nonsquare hit
    assert make_plan(field_for(5)).a == 1  # 1+1 = 2, nonsquare mod 5
    assert make_plan(field_for(7), a=5).a == 5  # 5^2+1 = 5 is a nonsquare


def test_find_slope_rejects_bad_override():
    with pytest.raises(InvalidPlanError):
        make_plan(field_for(7), a=0)  # 0^2+1 = 1 is a square
    with pytest.raises(InvalidPlanError):
        make_plan(field_for(7), a=9)


def test_count_Aq_example():
    report = count_Aq(field_for(7), 5)
    assert report.brute_count == 1  # only i=2: chi(2)=+1 and chi(3)=-1
    assert report.formula_value == 1  # (7 - 1 - 2) / 4
    assert report.t == 5


def test_count_Aq_rejects_square():
    with pytest.raises(NotNonsquareError):
        count_Aq(field_for(7), 2)  # 2 = 3^2 mod 7
    with pytest.raises(NotNonsquareError):
        count_Aq(field_for(7), 0)


@pytest.mark.parametrize("q", odd_prime_powers(5, 49))
def test_count_Aq_matches_formula_everywhere(q):
    ctx = field_for(q)
    for t in range(1, q):
        if ctx.quadratic_character(t) == -1:
            report = count_Aq(ctx, t)
            assert report.brute_count == report.formula_value >= 1


def test_find_shift_examples():
    f7 = field_for(7)
    assert make_plan(f7, a=5).t == 3  # t^2 = 2, 5 - 2 = 3 nonsquare
    assert make_plan(f7, a=2).t == 3  # a^2+1 = 5 again
    assert make_plan(f7, a=5, t=3).t == 3


def test_find_shift_unavailable_for_q3():
    # a = 1 and a = 2 are the slopes of F_3 (a^2+1 = 2); no shift exists for either
    f3 = field_for(3)
    for a, t in [(1, None), (2, None), (1, 1), (2, 2), (None, 1)]:
        with pytest.raises(ConstructionUnavailableError):
            make_plan(f3, a=a, t=t)


def test_find_shift_rejects_bad_override():
    f7 = field_for(7)
    with pytest.raises(InvalidPlanError):
        make_plan(f7, a=5, t=0)
    with pytest.raises(InvalidPlanError):
        make_plan(f7, a=5, t=1)  # 5 - 1 = 4 is a square


def test_make_plan_refusal_order():
    # a bad slope is refused before q = 3 and before any shift search: at q = 5,
    # a = 2 gives a^2+1 = 0, where no shift exists and the search would index an
    # empty array
    with pytest.raises(InvalidPlanError, match=r"^a=2 rejected: a\^2\+1 is a square in F_5$"):
        make_plan(field_for(5), a=2)
    with pytest.raises(InvalidPlanError, match=r"^a=2 rejected"):
        make_plan(field_for(5), a=2, t=1)
    with pytest.raises(InvalidPlanError, match=r"^a=0 rejected: a\^2\+1 is a square in F_3$"):
        make_plan(field_for(3), a=0)
    with pytest.raises(InvalidPlanError, match=r"^slope code 3 outside"):
        make_plan(field_for(3), a=3, t=1)
    with pytest.raises(ConstructionUnavailableError, match=r"^no shift exists for q=3;"):
        make_plan(field_for(3))
    # the shift is checked only after the slope passes
    with pytest.raises(InvalidPlanError, match=r"^t=1 rejected"):
        make_plan(field_for(7), a=5, t=1)
    with pytest.raises(InvalidPlanError, match=r"^a=0 rejected"):
        make_plan(field_for(7), a=0, t=1)


def test_make_plan_and_coloring_compute_each_character_vector_at_most_twice(
        monkeypatch, capsys):
    # color searches for a and t once each, and build_coloring_md checks the plan once
    calls = {"_slope_chars": 0, "_shift_chars": 0}
    for name in calls:
        def counted(*args, _inner=getattr(construction, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(construction, name, counted)
    assert main(["color", "--q", "13"]) == 0
    assert "proper: True" in capsys.readouterr().out
    assert all(1 <= count <= 2 for count in calls.values()), calls


def test_slope_and_shift_counts_leave_no_field_without_a_plan():
    # sum over a of eta(a^2 + 1) is -1, so (q - eta(-1)) / 2 slopes exist; for a
    # nonsquare c the sum over t of eta(c - t^2) is -eta(-1), so (q + eta(-1)) / 2
    # values of t qualify, t = 0 among them: make_plan always finds a slope and,
    # for q >= 5, a shift
    qs = odd_prime_powers(3, 4096)
    assert len(qs) == 592
    for q in qs:
        ctx = make_field.__wrapped__(*prime_power(q))  # uncached: kept, they would hold 50 MiB
        eta = (-1) ** ((q - 1) // 2)  # eta(-1)
        slopes = np.flatnonzero(_slope_chars(ctx) == -1)
        assert len(slopes) == (q - eta) // 2 >= 1, q
        for a in slopes[:3].tolist():
            shifts = np.count_nonzero(_shift_chars(ctx, a)[1:] == -1)
            assert shifts == (q + eta) // 2 - 1, (q, a)
            assert shifts >= 1 or q == 3, (q, a)


# Oracles: the line lemmas checked point pair by point pair, and the scalar
# loops the certificate search, the character counts and the coloring ran
# before they became array expressions, one FieldCtx call per element or
# point pair.


def scalar_line_lemma(ctx, a):
    q = ctx.q
    for i in range(q):
        pts = [(x, ctx.add(ctx.mul(a, x), i)) for x in range(q)]
        for u in range(q):
            for v in range(u + 1, q):
                x, y = ctx.sub(pts[u][0], pts[v][0]), ctx.sub(pts[u][1], pts[v][1])
                if ctx.add(ctx.mul(x, x), ctx.mul(y, y)) == 1:
                    return False
    return True


def scalar_cross_line_lemma(ctx, a, t):
    q = ctx.q
    for i in range(q):
        shifted = ctx.add(i, t)
        pts_a = [(x, ctx.add(ctx.mul(a, x), i)) for x in range(q)]
        pts_b = [(x, ctx.add(ctx.mul(a, x), shifted)) for x in range(q)]
        for xa, ya in pts_a:
            for xb, yb in pts_b:
                x, y = ctx.sub(xa, xb), ctx.sub(ya, yb)
                if ctx.add(ctx.mul(x, x), ctx.mul(y, y)) == 1:
                    return False
    return True


def scalar_count_Aq(ctx, t):
    return sum(
        1
        for i in range(1, ctx.q)
        if ctx.quadratic_character(i) == 1 and ctx.quadratic_character(ctx.sub(t, i)) == -1
    )


def scalar_coloring_2d(ctx, plan):
    p, q = ctx.p, ctx.q
    color_of_line = {}
    next_color = 0
    for rep in scalar_coset_reps(ctx, plan.t):
        line = [rep]
        for _ in range(p - 1):
            line.append(ctx.add(line[-1], plan.t))
        for k in range((p - 1) // 2):
            color_of_line[line[2 * k]] = next_color
            color_of_line[line[2 * k + 1]] = next_color
            next_color += 1
        color_of_line[line[p - 1]] = next_color
        next_color += 1
    colors = [color_of_line[ctx.sub(y, ctx.mul(plan.a, x))] for x in range(q) for y in range(q)]
    return colors, next_color


def scalar_coset_reps(ctx, t):
    # smallest-uncovered-first walk of the cosets x + F_p*t
    covered = bytearray(ctx.q)
    reps = []
    for r in range(ctx.q):
        if covered[r]:
            continue
        reps.append(r)
        cur = r
        for _ in range(ctx.p):
            covered[cur] = 1
            cur = ctx.add(cur, t)
    return tuple(reps)


def scalar_slope_target(ctx, a):
    return ctx.add(ctx.mul(a, a), 1)


def scalar_slope_ok(ctx, a):
    return ctx.quadratic_character(scalar_slope_target(ctx, a)) == -1


def scalar_shift_ok(ctx, a, t):
    return ctx.quadratic_character(ctx.sub(scalar_slope_target(ctx, a), ctx.mul(t, t))) == -1


def scalar_find_slope(ctx):
    return next((a for a in range(ctx.q) if scalar_slope_ok(ctx, a)), None)


def scalar_find_shift(ctx, a):
    return next((t for t in range(1, ctx.q) if scalar_shift_ok(ctx, a, t)), None)


def accepts(check, *args):
    try:
        check(*args)
    except InvalidPlanError:
        return False
    return True


@pytest.mark.parametrize("q", odd_prime_powers(3, 243))
def test_certificate_search_matches_scalar_loops(q):
    ctx = field_for(q)
    slopes = [b for b in range(q) if scalar_slope_ok(ctx, b)]
    assert [b for b in range(-1, q + 1) if accepts(_require_slope, ctx, b)] == slopes
    if q == 3:
        return
    a = make_plan(ctx).a
    assert a == scalar_find_slope(ctx)
    for b in slopes:  # a good slope and no shift: the smallest shift
        assert make_plan(ctx, a=b).t == scalar_find_shift(ctx, b), b
    shifts = [t for t in range(1, q) if scalar_shift_ok(ctx, a, t)]
    assert [t for t in range(-1, q + 1) if accepts(_require_shift, ctx, a, t)] == shifts


@pytest.mark.parametrize("q", odd_prime_powers(3, 243))
def test_count_Aq_is_the_same_for_every_nonsquare(q):
    ctx = field_for(q)
    nonsquares = np.flatnonzero(ctx.character_vector() == -1).tolist()
    assert len(nonsquares) == (q - 1) // 2
    assert len({count_Aq(ctx, t).brute_count for t in nonsquares}) == 1


@pytest.mark.parametrize("q", odd_prime_powers(3, 81) + [121, 125, 243])
def test_coset_reps_match_scalar_walk(q):
    ctx = field_for(q)
    shifts = range(1, q) if q <= 81 else [1, 2, ctx.p, ctx.p + 1, q // 2, q - 1]
    for t in shifts:
        assert _coset_reps(ctx, t) == scalar_coset_reps(ctx, t), t


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_lemma_checks_match_scalar_oracle_for_every_slope_and_shift(q):
    """The certificate checks are the line lemmas. Two points of a line
    y = a*x + i differ by (d, a*d), at quadrance d**2 * (a**2 + 1): none is
    1 when a**2 + 1 is a nonsquare or 0. Points of lines t apart differ by
    (d, a*d + t), at quadrance 1 for some d exactly when a**2 + 1 - t**2 is
    a square or 0, for every slope a."""
    ctx = field_for(q)
    verdicts = set()
    for a in range(q):
        isotropic = scalar_slope_target(ctx, a) == 0
        verdict = scalar_line_lemma(ctx, a)
        assert verdict == (accepts(_require_slope, ctx, a) or isotropic), a
        verdicts.add(verdict)
        for t in range(1, q):
            verdict = scalar_cross_line_lemma(ctx, a, t)
            assert verdict == accepts(_require_shift, ctx, a, t), (a, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", odd_prime_powers(5, 49))
def test_count_Aq_and_coloring_match_scalar_oracles(q):
    ctx = field_for(q)
    for t in range(1, q):
        if ctx.quadratic_character(t) == -1:
            assert count_Aq(ctx, t).brute_count == scalar_count_Aq(ctx, t), t
    plan = make_plan(ctx)
    coloring = build_coloring_md(ctx, 2, plan)
    assert (coloring.colors.tolist(), coloring.k) == scalar_coloring_2d(ctx, plan)


def test_plan_coset_partition():
    for q in (7, 9, 25, 27):
        ctx = field_for(q)
        plan = make_plan(ctx)
        reps = _coset_reps(ctx, plan.t)
        assert len(reps) == ctx.p ** (ctx.n - 1)
        seen = set()
        for rep in reps:
            cur = rep
            for _ in range(ctx.p):
                assert cur not in seen
                seen.add(cur)
                cur = ctx.add(cur, plan.t)
        assert seen == set(range(q))
        validate_plan(ctx, plan)


def test_validate_plan_rejects_garbage():
    ctx = field_for(7)
    plan = make_plan(ctx)
    with pytest.raises(InvalidPlanError):
        validate_plan(ctx, plan.__class__(a=0, t=plan.t))
    with pytest.raises(InvalidPlanError):
        validate_plan(ctx, plan.__class__(a=plan.a, t=0))


def test_build_coloring_2d_q7_paper_choice():
    ctx = field_for(7)
    plan = make_plan(ctx, a=5, t=3)
    coloring = build_coloring_md(ctx, 2, plan)
    assert coloring.k == 4
    assert verify_coloring(graph_for(7), coloring) is None
    # line i carries the color of point (0, i); the coset walk 0,3,6,2,5,1,4
    # pairs lines {0,3}, {6,2}, {5,1} and leaves line 4 alone
    line_color = {i: int(coloring.colors[i]) for i in range(7)}
    assert line_color[0] == line_color[3]
    assert line_color[6] == line_color[2]
    assert line_color[5] == line_color[1]
    assert len({line_color[0], line_color[6], line_color[5], line_color[4]}) == 4


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_build_coloring_2d_count_and_properness(q):
    ctx = field_for(q)
    coloring = build_coloring_md(ctx, 2, make_plan(ctx))
    assert coloring.k == expected_color_count(ctx, 2)
    assert verify_coloring(graph_for(q), coloring) is None
    used = np.unique(coloring.colors)
    assert used.tolist() == list(range(coloring.k))


@pytest.mark.parametrize("q,m", [(5, 3), (7, 3)])
def test_build_coloring_md(q, m):
    ctx = field_for(q)
    coloring = build_coloring_md(ctx, m, make_plan(ctx))
    assert coloring.k == expected_color_count(ctx, m)
    assert verify_coloring(graph_for(q, m), coloring) is None
    used = np.unique(coloring.colors)
    assert used.tolist() == list(range(coloring.k))


def test_build_coloring_md_guards():
    from uqgraph import DimensionTooSmallError

    ctx = field_for(7)
    plan = make_plan(ctx)
    with pytest.raises(DimensionTooSmallError):
        build_coloring_md(ctx, 1, plan)
    big = field_for(41)  # 41**3 > 2**16
    assert refused_peak(build_coloring_md, big, 3, make_plan(big)) < 1 << 20


def test_build_coloring_md_matches_2d_for_m2():
    # the plane is the coloring of F_q^3 with one block: block i of F_q^3 is the
    # plane's colors shifted by i*k
    ctx = field_for(7)
    plan = make_plan(ctx)
    plane = build_coloring_md(ctx, 2, plan)
    assert (plane.colors.tolist(), plane.k) == scalar_coloring_2d(ctx, plan)
    space = build_coloring_md(ctx, 3, plan)
    assert space.k == 7 * plane.k
    blocks = space.colors.reshape(7, 49) - plane.k * np.arange(7)[:, None]
    assert np.array_equal(blocks, np.broadcast_to(plane.colors, (7, 49)))


@pytest.mark.parametrize("q, m", [(5, 2), (7, 3), (9, 2), (25, 2), (27, 3), (127, 2)])
def test_build_coloring_md_makes_no_scalar_field_calls(monkeypatch, q, m):
    cached = field_for(q)
    want = build_coloring_md(cached, m, make_plan(cached))

    def refuse(*args):
        raise AssertionError("scalar FieldCtx call while building a coloring")

    for name in ("add", "sub", "neg", "mul", "pow", "inv", "quadratic_character", "abs_trace"):
        monkeypatch.setattr(FieldCtx, name, refuse)
    ctx = FieldCtx(cached.p, cached.n, cached.modulus)  # no tables or vectors built yet
    got = build_coloring_md(ctx, m, make_plan(ctx))
    assert got.k == want.k and np.array_equal(got.colors, want.colors)


def test_expected_color_counts():
    assert expected_color_count(field_for(9)) == 6
    assert expected_color_count(field_for(7)) == 4
    assert expected_color_count(field_for(27)) == 18
    assert expected_color_count(field_for(7), 3) == 28
    assert expected_color_count(field_for(5), 3) == 15


def test_verify_coloring_negatives():
    g = graph_for(7)
    flat = Coloring(q=7, m=2, colors=np.zeros(49, dtype=np.int64), k=1)
    violation = verify_coloring(g, flat)
    assert violation is not None
    u, v = violation
    assert v in adjacency_by_columns(g)[u]
    identity = Coloring(q=7, m=2, colors=np.arange(49, dtype=np.int64), k=49)
    assert verify_coloring(g, identity) is None
    short = Coloring(q=7, m=2, colors=np.zeros(10, dtype=np.int64), k=1)
    with pytest.raises(IncompleteColoringError):
        verify_coloring(g, short)
    wrong_q = Coloring(q=5, m=2, colors=np.zeros(25, dtype=np.int64), k=1)
    with pytest.raises(IncompleteColoringError):
        verify_coloring(g, wrong_q)
    uncolored = np.arange(49, dtype=np.int64)
    uncolored[48] = -1
    with pytest.raises(IncompleteColoringError, match="^some vertices are uncolored$"):
        verify_coloring(g, Coloring(q=7, m=2, colors=uncolored, k=49))


def test_verify_coloring_reports_first_violation():
    g = graph_for(5)
    colors = np.arange(25, dtype=np.int64)
    u = 0
    v = int(adjacency_by_columns(g)[0, 0])
    colors[v] = colors[u]
    damaged = Coloring(q=5, m=2, colors=colors, k=25)
    assert verify_coloring(g, damaged) == (u, v)


def _first_violation_by_rows(rows, colors):
    """Oracle: scan each vertex's later neighbors in order, in the sorted
    neighbor rows of adjacency_by_columns."""
    for u, nbrs in enumerate(rows):
        later = nbrs[nbrs > u]
        hits = later[colors[later] == colors[u]]
        if hits.size:
            return (u, int(hits[0]))
    return None


def verify_by_row_blocks(adjacency, coloring):
    """Oracle: the route verify_coloring took before it read only the unit
    circle, a gather of the colors over blocks of the sorted neighbor rows
    of adjacency_by_columns."""
    (n, degree), colors = adjacency.shape, coloring.colors
    # Rows are sorted and symmetric, so the first clash in row-major order is
    # the first conflicting edge: a clashing neighbor below u clashes earlier.
    step = max(1, (1 << 16) // degree)
    for start in range(0, n, step):
        rows = adjacency[start : start + step]
        clash = colors[rows] == colors[start : start + len(rows), None]
        if clash.any():
            u, k = divmod(int(clash.argmax()), degree)
            return (start + u, int(rows[u, k]))
    return None


# (13, 3) and (121, 2) span several row blocks of the oracle; F_25, F_27 and
# F_125 add digit-wise, not mod q, and (7, 4), (3, 5) translate four and five
# coordinates. F_3 has no construction, so its base is the greedy coloring.
@pytest.mark.parametrize("q, m", [
    (5, 2), (7, 2), (9, 2), (25, 2), (27, 2), (121, 2), (125, 2),
    (5, 3), (9, 3), (13, 3), (7, 4), (3, 5),
])
def test_verify_coloring_against_row_scan_oracle(q, m):
    ctx = field_for(q)
    g = graph_for(q, m)
    base = build_coloring_md(ctx, m, make_plan(ctx)) if q > 3 else greedy_bound(g)
    rng = np.random.default_rng(1000 * q + m)
    rows = adjacency_by_columns(g)
    assert verify_coloring(g, base) is None
    assert _first_violation_by_rows(rows, base.colors) is None
    n = g.n_vertices
    constant = Coloring(q=q, m=m, colors=np.zeros(n, dtype=np.int64), k=1)
    identity = Coloring(q=q, m=m, colors=np.arange(n, dtype=np.int64), k=n)
    assert verify_coloring(g, constant) == verify_by_row_blocks(rows, constant) == (0, 1)
    assert verify_coloring(g, identity) is verify_by_row_blocks(rows, identity) is None
    for trial in range(40):
        colors = base.colors.copy()
        changed = rng.choice(n, size=1 + trial % 4, replace=False)
        colors[changed] = rng.integers(0, base.k, size=changed.size)
        recolored = Coloring(q=q, m=m, colors=colors, k=base.k)
        expected = _first_violation_by_rows(rows, colors)
        assert verify_coloring(g, recolored) == verify_by_row_blocks(rows, recolored) == expected


def test_verify_coloring_memory_stays_flat():
    # The whole-array gather held an intp copy of the int32 rows and the
    # gathered colors at once: about 31 MB at q = 127.
    ctx = field_for(127)
    g = graph_for(127)
    coloring = build_coloring_md(ctx, 2, make_plan(ctx))
    colors = coloring.colors.copy()
    rows = adjacency_by_columns(g)  # built before tracing
    colors[-1] = colors[rows[-1, 0]]
    damaged = Coloring(q=127, m=2, colors=colors, k=coloring.k)
    tracemalloc.start()
    try:
        assert verify_coloring(g, coloring) is None
        assert verify_coloring(g, damaged) == _first_violation_by_rows(rows, colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _first_violation_by_all_pairs(graph, colors):
    """Oracle at m = 1: every pair u < v, adjacent when v - u lies in S, with
    the differences from the addition table and -u from multiplying by -1."""
    ctx, q = graph.ctx, graph.q
    minus = ctx.mul_vector(ctx.p - 1)
    differences = ctx.add_table()[np.arange(q), minus[:, None]]  # row u: v - u
    later = np.triu(np.ones((q, q), dtype=bool), 1)
    clash = np.isin(differences, graph.connection_set) & (colors[:, None] == colors) & later
    return tuple(int(x) for x in divmod(int(clash.argmax()), q)) if clash.any() else None


def _odd_cycle_coloring(q):
    """0, 1, 0, ... around the cycle of {1, -1}, the last vertex a third color."""
    colors = np.arange(q, dtype=np.int64) % 2
    colors[-1] = 2
    return colors


# the 13-cycle and the complete graph on F_1009, with S = every unit
@pytest.mark.parametrize("q, circle, proper", [
    (13, [1, 12], _odd_cycle_coloring(13)),
    (1009, list(range(1, 1009)), np.arange(1009, dtype=np.int64)),
])
def test_verify_coloring_at_m1_against_the_all_pairs_oracle(q, circle, proper):
    graph = UnitQuadranceGraph(field_for(q), 1, np.array(circle, dtype=np.int64))
    coloring = Coloring(q=q, m=1, colors=proper, k=int(proper.max()) + 1)
    assert verify_coloring(graph, coloring) is _first_violation_by_all_pairs(graph, proper) is None
    colors = proper.copy()
    u = q // 2 - 1
    colors[u + 1] = colors[u]  # u and u + 1 are adjacent in both graphs
    damaged = Coloring(q=q, m=1, colors=colors, k=coloring.k)
    assert verify_coloring(graph, damaged) == _first_violation_by_all_pairs(graph, colors) == (u, u + 1)


def test_verify_coloring_on_a_long_cycle_builds_no_q_by_q_table():
    # a (q, q) table of every sum a + x and its argmin took 256 MiB at q = 4099,
    # for a graph of 4099 edges
    graph = UnitQuadranceGraph(field_for(4099), 1, np.array([1, 4098]))
    proper = Coloring(q=4099, m=1, colors=_odd_cycle_coloring(4099), k=3)
    colors = proper.colors.copy()
    colors[2049] = colors[2048]
    damaged = Coloring(q=4099, m=1, colors=colors, k=3)
    tracemalloc.start()
    try:
        assert verify_coloring(graph, proper) is None
        assert verify_coloring(graph, damaged) == (2048, 2049)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coloring_file_round_trip(tmp_path):
    ctx = field_for(7)
    coloring = build_coloring_md(ctx, 2, make_plan(ctx))
    path = tmp_path / "coloring.txt"
    write_coloring(coloring, path)
    text = path.read_text()
    assert text.startswith("# q=7 m=2 k=4\n")
    back = read_coloring(path)
    assert back.q == 7 and back.m == 2 and back.k == 4
    assert np.array_equal(back.colors, coloring.colors)
    # text and binary stream round trips as well
    for stream in (io.StringIO, io.BytesIO):
        buf = stream()
        write_coloring(coloring, buf)
        buf.seek(0)
        again = read_coloring(buf)
        assert (again.q, again.m, again.k) == (7, 2, 4)
        assert np.array_equal(again.colors, coloring.colors)


def test_read_coloring_rejects_bytes_that_are_not_utf8():
    with pytest.raises(ValueError):
        read_coloring(io.BytesIO(Q5_HEADER.encode() + b"0 \xff\n"))


def _colorings_for_writer():
    for q, m in [(7, 2), (11, 2), (5, 3), (101, 2)]:
        ctx = field_for(q)
        yield build_coloring_md(ctx, m, make_plan(ctx))
    yield exact_chromatic(graph_for(5)).witness
    # colors past k, and colors past the vertex count, which get no table
    yield Coloring(q=5, m=2, colors=np.arange(25) % 13, k=3)
    yield Coloring(q=3, m=2, colors=np.array([0, 10**15, 7, 9, 10, 99, 100, 1, 0]), k=2)


@pytest.mark.parametrize("coloring", list(_colorings_for_writer()))
def test_write_coloring_matches_the_line_writer(tmp_path, coloring):
    expected = coloring_text_by_lines(coloring)
    path = tmp_path / "coloring.txt"
    write_coloring(coloring, path)
    assert path.read_bytes() == expected.encode("ascii")
    text, binary = io.StringIO(), io.BytesIO()
    write_coloring(coloring, text)
    write_coloring(coloring, binary)
    assert text.getvalue() == expected
    assert binary.getvalue() == expected.encode("ascii")


def test_write_coloring_refuses_an_uncolored_vertex():
    coloring = Coloring(q=3, m=2, colors=np.array([0, 1, 2, 0, 1, 2, 0, 1, -1]), k=3)
    with pytest.raises(IncompleteColoringError):
        write_coloring(coloring, io.BytesIO())


def test_read_coloring_missing_vertex(tmp_path):
    path = tmp_path / "broken.txt"
    lines = ["# q=5 m=2 k=3\n"] + [f"{i} 0\n" for i in range(24)]
    path.write_text("".join(lines))
    with pytest.raises(IncompleteColoringError):
        read_coloring(path)


def test_read_coloring_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header\n0 0\n")
    with pytest.raises(ValueError):
        read_coloring(path)
    path.write_text("# q=5 m=2 k=3\n0 7\n")
    with pytest.raises(ValueError):
        read_coloring(path)


Q5_HEADER = "# q=5 m=2 k=3\n"
Q5_BODY = [f"{i} {i % 3}" for i in range(25)]


def q5_file(*changes):
    """The q = 5 coloring file with some body lines replaced: changes are
    (line, text) pairs, and a text of None deletes the line."""
    body = list(Q5_BODY)
    for i, line in sorted(changes, reverse=True):
        if line is None:
            del body[i]
        else:
            body[i] = line
    return Q5_HEADER + "".join(line + "\n" for line in body)


@pytest.mark.parametrize("text, kind, message", [
    pytest.param("", ValueError, "empty coloring file", id="empty"),
    pytest.param(" \n\t\n", ValueError, "empty coloring file", id="blank"),
    pytest.param("no header\n0 0\n", ValueError, "bad coloring header: 'no header'",
                 id="bad-header"),
    pytest.param("# q=4 m=2 k=3\n", ValueError,
                 "coloring header q=4 m=2 needs an odd prime power q, m >= 2 and q**m <= 65536",
                 id="header-bound"),
    pytest.param(q5_file((3, "3 1 2")), ValueError, "bad coloring line: '3 1 2'",
                 id="three-tokens"),
    pytest.param(q5_file((3, "3")), ValueError, "bad coloring line: '3'", id="one-token"),
    pytest.param(q5_file((3, "25 0")), ValueError, "vertex index 25 outside [0, 25)",
                 id="index-high"),
    pytest.param(q5_file((3, "-1 0")), ValueError, "vertex index -1 outside [0, 25)",
                 id="index-negative"),
    pytest.param(q5_file((3, "99999999999999999999 0")), ValueError,
                 "vertex index 99999999999999999999 outside [0, 25)", id="index-past-int64"),
    pytest.param(q5_file((3, "3 3")), ValueError, "color 3 outside [0, 3)", id="color-high"),
    pytest.param(q5_file((3, "3 -18446744073709551616")), ValueError,
                 "color -18446744073709551616 outside [0, 3)", id="color-past-int64"),
    pytest.param(q5_file((3, "2 0")), ValueError, "vertex index 2 is colored twice",
                 id="repeated-index"),
    pytest.param(q5_file((3, "3 x")), ValueError,
                 "invalid literal for int() with base 10: 'x'", id="not-an-integer"),
    pytest.param(q5_file((13, None)), IncompleteColoringError, "vertex 13 has no color",
                 id="missing-vertex"),
    pytest.param(Q5_HEADER, IncompleteColoringError, "vertex 0 has no color", id="no-body"),
])
def test_read_coloring_messages(text, kind, message):
    with pytest.raises(kind) as caught:
        read_coloring(io.StringIO(text))
    assert type(caught.value) is kind and str(caught.value) == message


def test_read_coloring_reports_the_first_offending_line():
    """With several faults, the error names the first offending line; one
    line's checks run as pair, integers, index, color, repeat."""
    cases = [
        ((3, "25 0"), (7, "7 1 1"), "vertex index 25 outside [0, 25)"),
        ((3, "7 1 1"), (7, "25 0"), "bad coloring line: '7 1 1'"),
        ((3, "3 x"), (7, "2 0"), "invalid literal for int() with base 10: 'x'"),
        ((3, "2 0"), (7, "y 1"), "vertex index 2 is colored twice"),
        ((3, "3 7"), (7, "3 0"), "color 7 outside [0, 3)"),
        ((3, "x 7"), (7, "7 1 1"), "invalid literal for int() with base 10: 'x'"),
        ((3, "3 y"), (7, "z 1"), "invalid literal for int() with base 10: 'y'"),
        ((3, "3 0 0"), (7, "x"), "bad coloring line: '3 0 0'"),
        ((3, "-5 9"), (7, "x"), "vertex index -5 outside [0, 25)"),
        ((23, "1 1"), (24, "99999999999999999999 0"), "vertex index 1 is colored twice"),
    ]
    for first, second, message in cases:
        text = q5_file(first, second)
        with pytest.raises(ValueError) as caught:
            read_coloring(io.StringIO(text))
        assert str(caught.value) == message


def test_read_coloring_accepts_comments_blanks_and_int_spellings():
    lines = ["", "  # q=5 m=2 k=3  ", "# a comment", "", "#0 0 0"]
    lines += [f"\t{i}   {i % 3} " for i in range(3, 25)]
    lines += ["+0 0", "  # another", "0_1 1", "\u0662 2", ""]
    text = "\r\n".join(lines)
    coloring = read_coloring(io.StringIO(text))
    assert (coloring.q, coloring.m, coloring.k) == (5, 2, 3)
    assert coloring.colors.dtype == np.int64
    assert coloring.colors.tolist() == [i % 3 for i in range(25)]


# Files exactly as write_coloring writes them take the bulk route; the line
# reader is the only source of errors and the oracle for every other file.

CANONICAL_POINTS = [(3, 2), (9, 2), (25, 2), (13, 3), (3, 4)]


def _outcome(read, source):
    try:
        coloring = read(source)
    except (ValueError, OverflowError) as exc:  # IncompleteColoringError is a ValueError
        return type(exc), str(exc)
    return coloring.q, coloring.m, coloring.k, coloring.colors.dtype, coloring.colors.tolist()


def _random_coloring(q, m, k, seed):
    colors = np.random.default_rng(seed).integers(0, k, q**m)
    return Coloring(q=q, m=m, colors=colors, k=k)


def _mutate(lines, n, k, kind, data):
    """One change to a canonical file's lines (header first), drawn from data."""
    if kind in ("replace", "drop", "repeat"):  # the header included
        row = data.draw(st.integers(0, n))
        if kind == "replace":
            lines[row] = f"{data.draw(st.integers(0, n + 1))} {data.draw(st.integers(0, k + 1))}"
        elif kind == "drop":
            del lines[row]
        else:
            lines.insert(row, lines[row])
        return
    row, over = data.draw(st.integers(1, n)), data.draw(st.integers(0, 9))
    index, color = lines[row].split(" ")
    # 19 digits: zero-padded (a valid color) or at least 10**18
    long_token = f"{int(color):019d}" if over % 2 else str(10**18 + over)
    lines[row] = {
        "tab": f"{index}\t{color}",
        "plus": f"+{index} {color}",
        "underscore": f"{index} 0_{color}",
        "arabic-digit": f"{index} \u0662",  # 2, when k > 2
        "comment": f"# a comment\n{index} {color}",
        "index-high": f"{n + over} {color}",
        "color-high": f"{index} {k + over}",
        "19-digit": f"{index} {long_token}",
    }[kind]


MUTATIONS = ["none", "replace", "drop", "repeat", "crlf", "tab", "plus", "underscore",
             "arabic-digit", "comment", "index-high", "color-high", "19-digit",
             "no-final-newline", "trailing-digits"]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_read_coloring_agrees_with_the_line_reader(data):
    q, m = data.draw(st.sampled_from(CANONICAL_POINTS))
    k = data.draw(st.integers(1, min(30, q**m)))  # a header k above q**m is refused
    coloring = _random_coloring(q, m, k, data.draw(st.integers(0, 2**32 - 1)))
    lines = coloring_text_by_lines(coloring).split("\n")[:-1]
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind not in ("none", "crlf", "no-final-newline", "trailing-digits"):
        _mutate(lines, q**m, k, kind, data)
    end = "\r\n" if kind == "crlf" else "\n"
    text = end.join(lines) + ("" if kind == "no-final-newline" else end)
    if kind == "trailing-digits":
        text += str(data.draw(st.integers(0, 99)))
    expected = _outcome(_read_lines, text)
    assert _outcome(read_coloring, io.StringIO(text)) == expected
    assert _outcome(read_coloring, io.BytesIO(text.encode("utf-8"))) == expected


# the bytes next to the digits, and a few that int or the line reader treat specially
@pytest.mark.parametrize("stray", "/:;.,-+x#")
def test_read_coloring_agrees_with_the_line_reader_on_a_stray_byte(stray):
    lines = coloring_text_by_lines(_random_coloring(5, 2, 3, seed=1)).split("\n")
    for row, line in ((3, lines[3].replace(" ", stray)), (4, lines[4] + stray)):
        text = "\n".join(lines[:row] + [line] + lines[row + 1 :])
        assert _outcome(read_coloring, io.StringIO(text)) == _outcome(_read_lines, text)


def _refuse_line_reader(text):
    raise AssertionError("a canonical file went to the line reader")


@pytest.mark.parametrize("q, m", CANONICAL_POINTS)
def test_canonical_files_never_reach_the_line_reader(monkeypatch, tmp_path, q, m):
    coloring = _random_coloring(q, m, 5, seed=q * m)
    path = tmp_path / "coloring.txt"
    write_coloring(coloring, path)
    expected = _outcome(_read_lines, path.read_text())
    monkeypatch.setattr(construction, "_read_lines", _refuse_line_reader)
    assert _outcome(read_coloring, path) == expected
    assert expected[:3] == (q, m, 5) and expected[4] == coloring.colors.tolist()


def _q5_file(colors, width=1):
    """A q = 5 file with k = 25, each color zero-padded to width digits."""
    return "# q=5 m=2 k=25\n" + "".join(f"{i} {c:0{width}d}\n" for i, c in enumerate(colors))


def test_bulk_route_reads_18_digit_colors_exactly(monkeypatch):
    # every color is below k <= q**m, so an 18-digit color is zero-padded
    colors = [7 * i % 25 for i in range(25)]
    text = _q5_file(colors, width=18)
    expected = _outcome(_read_lines, text)
    monkeypatch.setattr(construction, "_read_lines", _refuse_line_reader)
    assert _outcome(read_coloring, io.StringIO(text)) == expected
    assert expected[4] == colors


def test_19_digit_colors_go_to_the_line_reader():
    # past int64 they would not parse exactly in bulk
    texts = [_q5_file([top] + [0] * 24) for top in (10**18, 2**63, 10**19 - 1)]
    texts.append(_q5_file([7] + [0] * 24, width=19))  # a well-formed file, read line by line
    for text in texts:
        assert _outcome(read_coloring, io.StringIO(text)) == _outcome(_read_lines, text)
    assert _outcome(read_coloring, io.StringIO(texts[-1]))[4] == [7] + [0] * 24


def test_read_coloring_refuses_a_header_k_above_the_vertex_count():
    message = "coloring header k=26 exceeds the 25 vertices of q=5 m=2"
    text = "# q=5 m=2 k=26\n" + "".join(f"{i} 0\n" for i in range(25))
    assert _outcome(_read_lines, text) == (ValueError, message)  # the line loop
    for source in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):  # the bulk parser
        assert _outcome(read_coloring, source) == (ValueError, message)
    assert _outcome(read_coloring, io.StringIO(text.replace("k=26", "k=25")))[2] == 25
