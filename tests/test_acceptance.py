"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from conftest import field_for, graph_for, odd_prime_powers, vectorized_no_unit_pair
from uqgraph import (
    build_coloring_md,
    cayley_spectrum,
    count_Aq,
    degree_formula,
    dense_spectrum,
    exact_chromatic,
    expected_color_count,
    hoffman_bound,
    make_plan,
    read_coloring,
    spectrum_record,
    triangle_count,
    triangle_free_predicted,
    verify_coloring,
    write_coloring,
)
from uqgraph.cli import main
from uqgraph.graph import circle_translates


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE criterion {number} ({name}): PASS")


def test_criterion_1_chi_d7_both_directions():
    start = time.perf_counter()
    g7 = graph_for(7)
    result = exact_chromatic(g7)
    assert result.status == "exact"
    assert result.lower == result.upper == 4  # no 3-coloring exists
    assert verify_coloring(g7, result.witness) is None
    ctx = field_for(7)
    coloring = build_coloring_md(ctx, 2, make_plan(ctx, a=5, t=3))
    assert coloring.k == 4
    assert verify_coloring(g7, coloring) is None
    assert time.perf_counter() - start < 60.0
    _report(1, "chi(D_7) = 4, both directions, < 60 s")


def test_criterion_2_color_count_formula():
    for q in (5, 7, 9, 11, 13, 25, 27):
        start = time.perf_counter()
        ctx = field_for(q)
        coloring = build_coloring_md(ctx, 2, make_plan(ctx))
        assert coloring.k == expected_color_count(ctx, 2)
        assert verify_coloring(graph_for(q), coloring) is None
        assert time.perf_counter() - start < 10.0
    for q, m in ((5, 3), (7, 3)):
        start = time.perf_counter()
        ctx = field_for(q)
        coloring = build_coloring_md(ctx, m, make_plan(ctx))
        assert coloring.k == expected_color_count(ctx, m)
        assert verify_coloring(graph_for(q, m), coloring) is None
        assert time.perf_counter() - start < 10.0
    _report(2, "construction color counts, plane and higher dimension")


def test_criterion_3_degree_formula():
    for q in odd_prime_powers(3, 81):
        g = graph_for(q)
        expected = degree_formula(q)
        degrees = {np.unique(row).size for row in circle_translates(g, np.arange(g.n_vertices))}
        assert degrees == {expected}, f"q={q}"
        assert g.degree == expected
    _report(3, "degree formula for every odd prime power q <= 81")


def test_criterion_4_Aq_identity():
    for q in odd_prime_powers(5, 81):
        ctx = field_for(q)
        sign = (-1) ** ((q - 1) // 2)
        expected = (q + sign - 2) // 4
        for t in range(1, q):
            if ctx.quadratic_character(t) == -1:
                report = count_Aq(ctx, t)
                assert report.brute_count == report.formula_value == expected
                assert report.brute_count >= 1
    _report(4, "A_q brute force equals the closed formula for q <= 81")


def test_criterion_5_line_lemmas_exhaustive():
    for q in odd_prime_powers(5, 31):
        ctx = field_for(q)
        plan = make_plan(ctx)
        assert vectorized_no_unit_pair(ctx, plan.a, 0), f"q={q}"
        assert vectorized_no_unit_pair(ctx, plan.a, plan.t), f"q={q}"
    _report(5, "no same-line or t-offset pair at quadrance 1, q <= 31")


def test_criterion_6_triangle_counts():
    start = time.perf_counter()
    for q in (5, 7, 17, 19, 29, 31):
        assert triangle_free_predicted(q) is True
        assert triangle_count(graph_for(q)) == 0, f"q={q}"
    observed = {q: triangle_count(graph_for(q)) for q in (11, 13)}
    # recorded (not asserted from theory): exhaustive counts for q = 11, 13
    assert observed[11] == 484 and observed[13] == 676
    assert all(count > 0 for count in observed.values())
    assert time.perf_counter() - start < 30.0
    _report(6, f"triangle-freeness, with positive counts {observed}")


def test_criterion_7_spectral_cross_oracle():
    for q in (5, 7, 9, 11, 13):
        g = graph_for(q)
        n, d = g.n_vertices, g.degree
        dense = dense_spectrum(g)
        cayley = cayley_spectrum(g.ctx, 2)
        assert np.max(np.abs(dense.eigenvalues - cayley.eigenvalues)) < 1e-6
        for spec in (dense, cayley):
            assert abs(spec.eigenvalues.sum()) < 1e-6 * n * d
            assert abs((spec.eigenvalues**2).sum() - n * d) < 1e-6 * n * d
            assert abs((spec.eigenvalues**3).sum() - 6 * triangle_count(g)) < 1e-4
    _report(7, "dense and Cayley spectra agree, moment identities hold")


def test_criterion_8_hoffman_and_magnitude_flags():
    for q in (5, 7):
        result = exact_chromatic(graph_for(q))
        assert result.status == "exact"
        bound = hoffman_bound(cayley_spectrum(field_for(q), 2))
        assert math.ceil(bound - 1e-9) <= result.lower
    flags = {}
    for q in odd_prime_powers(3, 31):
        spec = cayley_spectrum(field_for(q), 2)
        record = spectrum_record(spec, q, 2)
        assert record["withinTwoSqrtQ"] is True, f"q={q}"
        # the bound again, on the spectrum itself rather than the record
        assert np.abs(spec.eigenvalues[1:]).max() <= 2 * math.sqrt(q) + spec.slack, f"q={q}"
        flags[q] = record["withinSqrtQ"]  # reported, not asserted
    _report(8, f"Hoffman <= chi; sqrt(q) flags (informational): {flags}")


def test_criterion_9_round_trip_and_determinism(capsys, tmp_path):
    path = tmp_path / "c7.txt"
    ctx = field_for(7)
    write_coloring(build_coloring_md(ctx, 2, make_plan(ctx)), path)
    assert verify_coloring(graph_for(7), read_coloring(path)) is None
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()

    assert main(["report", "--q", "5..7", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--q", "5..7", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    records = json.loads(first)
    assert [record["q"] for record in records] == [5, 7]
    _report(9, "color/verify round trip and byte-identical reports")
