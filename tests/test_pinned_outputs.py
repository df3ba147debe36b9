"""CLI outputs over extension fields, pinned to the values the digit-loop field
arithmetic produced.

A field rewrite that is proper but picks other codes (another slope, shift or
vertex order) would pass every properness check; these pins catch it. The
m = 3 report pins the same kind of exact fields in three dimensions. Floats
are compared at 1e-9, so numpy versions that round the last digit differently
cannot flip them.
"""

import hashlib
import json

import pytest

from uqgraph.cli import main

# (q, m, slope a, shift t, colors k, sha256 of `build --out`, sha256 of `color --out`)
COLOR_PINS = [
    (9, 2, 4, 3, 6,
     "79096e18c91ab95a0ada065a12211eb3d362a0b8b75ef4c2c9c99cf4c83821d7",
     "43cde1b9cc1e502a475b4e54c815f9188649e48c14d132d8dbbc715ec692fd6e"),
    (25, 2, 7, 6, 15,
     "82115e4775b6e28e40f4f2228b23609f28458e2641fb15569b975f1513c93680",
     "2b508830f5a547c9f0e0609e1124505e7b0baad64ce1676a1670b0e7f1e0f8c4"),
    (27, 2, 1, 4, 18,
     "113b238b54bc10e192b06148a3e554af68fe42a63269927c69779d9d0348d638",
     "adf483f773db3844e332ae23a8ebd96f37877424007d1ec2e2330994c9c27127"),
    (49, 2, 8, 2, 28,
     "325d73229dfce3846b823d1590eddfeda1fcf8efc1251dac1c2eba5aee916837",
     "4becb738cae70a9930a1573be3d01e941ae041edec92838dcf4c3207f0f07f2c"),
    (81, 2, 3, 10, 54,
     "b4e2410a31b9c9b4451551fc2c866f4d074f94fa5c33e5ee69c45b26fa1197c2",
     "00f9f1a0e485fb2c1aebe7835e1fba6b48345dcaf9691ca8b3a07bb524107729"),
    (125, 2, 1, 2, 75,
     "f8fc0df49d3d19fbb41079dee123949517b409fc68500fbeb68f6ee6390d9001",
     "fdb8983f08c7e1ce17610df4160cb32231748b023666e5349e1296d47c81a908"),
    (9, 3, 4, 3, 54,
     "d3591e033a8c7e9d86f5e931739fa2ff2210437a7b661bc8e0be5dcdd1202070",
     "2b73ee10f6ce7e24541a85416c377c2226be6bae5700b7eb975963d19b194551"),
]

# `report --q 9..27 --json --nodes 20000`, exact fields:
# (q, p, n, degree, constructionColors, chiStatus, chiLower, chiUpper, triangles,
#  aqValue, predictedTriangleFree, withinSqrtQ, withinTwoSqrtQ,
#  checks.hoffmanLeChi, checks.trianglePrediction)
REPORT_EXACT = [
    (9, 3, 2, 8, 6, "exact", 3, 3, 108, 2, None, False, True, True, None),
    (11, 11, 1, 12, 6, "bounded", 3, 6, 484, 2, None, False, True, None, None),
    (13, 13, 1, 12, 7, "bounded", 3, 6, 676, 3, None, False, True, None, None),
    (17, 17, 1, 16, 9, "bounded", 3, 7, 0, 4, True, False, True, None, True),
    (19, 19, 1, 20, 10, "bounded", 3, 8, 0, 4, True, False, True, None, True),
    (23, 23, 1, 24, 12, "bounded", 3, 10, 4232, 5, None, False, True, None, None),
    (25, 5, 2, 24, 15, "bounded", 3, 9, 5000, 6, None, False, True, None, None),
    (27, 3, 3, 28, 18, "bounded", 3, 11, 3402, 6, None, False, True, None, None),
]

# (q, lambda1, lambdaMin, hoffman, maxNonprincipalAbs) from the same report
REPORT_FLOATS = [
    (9, 8.0, -4.0, 3.0, 5.0),
    (11, 12.0, -4.795754778, 3.50221301, 5.716952715),
    (13, 12.0, -4.820040097, 3.489605845, 6.296229811),
    (17, 16.0, -7.960346064, 3.009962867, 7.960346064),
    (19, 20.0, -7.609728632, 3.628214614, 7.609728632),
    (23, 24.0, -7.960687187, 4.014815108, 7.960687187),
    (25, 24.0, -7.708203932, 4.113565781, 9.854101966),
    (27, 28.0, -8.0, 4.5, 10.0),
]


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("q, m, a, t, k, dimacs_sha, coloring_sha", COLOR_PINS)
def test_build_and_color_outputs_are_pinned(capsys, tmp_path, q, m, a, t, k, dimacs_sha, coloring_sha):
    dimacs, coloring = tmp_path / "graph.col", tmp_path / "coloring.txt"
    assert main(["build", "--q", str(q), "--m", str(m), "--out", str(dimacs)]) == 0
    assert main(["color", "--q", str(q), "--m", str(m), "--json", "--out", str(coloring)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["a"], record["t"], record["k"], record["proper"]) == (a, t, k, True)
    assert sha256_of(dimacs) == dimacs_sha
    assert sha256_of(coloring) == coloring_sha


def test_report_over_extension_fields_is_pinned(capsys):
    assert main(["report", "--q", "9..27", "--json", "--nodes", "20000"]) == 0
    records = json.loads(capsys.readouterr().out)
    exact = [
        (r["q"], r["p"], r["n"], r["degree"], r["constructionColors"], r["chiStatus"],
         r["chiLower"], r["chiUpper"], r["triangles"], r["aqValue"],
         r["predictedTriangleFree"], r["withinSqrtQ"], r["withinTwoSqrtQ"],
         r["checks"]["hoffmanLeChi"], r["checks"]["trianglePrediction"])
        for r in records
    ]
    assert exact == REPORT_EXACT
    for r in records:
        assert r["m"] == 2 and r["circleSize"] == r["degree"]
        assert r["constructionProper"] is True
        assert r["checks"]["aqIdentity"] and r["checks"]["colorCount"] and r["checks"]["degreeFormula"]
    floats = [(r["q"], r["lambda1"], r["lambdaMin"], r["hoffman"], r["maxNonprincipalAbs"])
              for r in records]
    assert [row[0] for row in floats] == [row[0] for row in REPORT_FLOATS]
    for got, want in zip(floats, REPORT_FLOATS):
        assert got[1:] == pytest.approx(want[1:], abs=1e-9, rel=0)


# `report --q 3..13 --m 3 --json --nodes 2000`, exact fields:
# (q, degree, circleSize, constructionColors, constructionProper, chiStatus, chiLower, chiUpper,
#  triangles, aqValue, checks as (aqIdentity, colorCount, degreeFormula, hoffmanLeChi,
#  trianglePrediction)). They read the unit circle's prefix sums, verify's takes along three
# axes and build_coloring_md's leading coordinates.
REPORT_M3_EXACT = [
    (3, 6, 6, None, None, "exact", 3, 3, 27, 0, (True, None, None, True, None)),
    (5, 30, 30, 15, True, "bounded", 3, 10, 2500, 1, (True, True, None, None, None)),
    (7, 42, 42, 28, True, "bounded", 4, 14, 19208, 1, (True, True, None, None, None)),
    (9, 90, 90, 54, True, "bounded", 4, 29, 185895, 2, (True, True, None, None, None)),
    (11, 110, 110, 66, True, "bounded", 3, 29, 292820, 2, (True, True, None, None, None)),
    (13, 182, 182, 91, True, "bounded", 3, 40, 799708, 3, (True, True, None, None, None)),
]


def test_report_in_three_dimensions_is_pinned(capsys):
    assert main(["report", "--q", "3..13", "--m", "3", "--json", "--nodes", "2000"]) == 0
    records = json.loads(capsys.readouterr().out)
    checks = ("aqIdentity", "colorCount", "degreeFormula", "hoffmanLeChi", "trianglePrediction")
    exact = [
        (r["q"], r["degree"], r["circleSize"], r["constructionColors"], r["constructionProper"],
         r["chiStatus"], r["chiLower"], r["chiUpper"], r["triangles"], r["aqValue"],
         tuple(r["checks"][name] for name in checks))
        for r in records
    ]
    assert exact == REPORT_M3_EXACT
    assert all(r["m"] == 3 for r in records)


# `spectrum --q Q --m M --method METHOD` without --json: one line per method, then the
# magnitude line at m = 2 only. Keys and words are compared exactly, numbers at 1e-9.
SPECTRUM_TEXT = [
    (7, 2, "both", [
        "method=dense lambda1=8.0 lambdaMin=-4.493959207 hoffman=2.780167472",
        "method=cayley lambda1=8.0 lambdaMin=-4.493959207 hoffman=2.780167472",
        "maxNonprincipalAbs=4.493959207 withinSqrtQ=False withinTwoSqrtQ=True",
    ]),
    (49, 2, "both", [
        "method=dense lambda1=48.0 lambdaMin=-11.652792811 hoffman=5.119184197",
        "method=cayley lambda1=48.0 lambdaMin=-11.652792811 hoffman=5.119184197",
        "maxNonprincipalAbs=13.305585622 withinSqrtQ=False withinTwoSqrtQ=True",
    ]),
    (13, 3, "both", [
        "method=dense lambda1=182.0 lambdaMin=-25.244487253 hoffman=8.209494817",
        "method=cayley lambda1=182.0 lambdaMin=-25.244487253 hoffman=8.209494817",
    ]),
    (3, 5, "cayley", [
        "method=cayley lambda1=90.0 lambdaMin=-9.0 hoffman=11.0",
    ]),
]


def split_fields(line):
    """(key, word) pairs with every number replaced by None, and the numbers."""
    words, numbers = [], []
    for field in line.split(" "):
        key, _, value = field.partition("=")
        try:
            numbers.append(float(value))
            words.append((key, None))
        except ValueError:
            words.append((key, value))
    return words, numbers


@pytest.mark.parametrize("q, m, method, lines", SPECTRUM_TEXT)
def test_spectrum_text_output_is_pinned(capsys, q, m, method, lines):
    assert main(["spectrum", "--q", str(q), "--m", str(m), "--method", method]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\n")
    got = out.splitlines()
    assert len(got) == len(lines)
    for got_line, want_line in zip(got, lines):
        (got_words, got_numbers), (want_words, want_numbers) = map(split_fields, (got_line, want_line))
        assert got_words == want_words
        assert got_numbers == pytest.approx(want_numbers, abs=1e-9, rel=0)
