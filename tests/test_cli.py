"""CLI subcommands, exit codes, and output stability."""

import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import coloring_text_by_lines, field_for, graph_for, within_a_second
from uqgraph import (
    Spectrum,
    build_coloring_md,
    chi,
    cli,
    construction,
    exact_chromatic,
    make_plan,
    spectral,
)
from uqgraph.cli import main
from uqgraph.field import FieldCtx, make_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_dimacs(capsys, tmp_path):
    out = tmp_path / "d5.col"
    code, _, _ = run(capsys, "build", "--q", "5", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "p edge 25 50" in text
    assert text.count("\ne ") == 50


def test_build_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "build", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_build_rejects_even_prime_power(capsys):
    code, _, _ = run(capsys, "build", "--q", "8")
    assert code == 2


def test_build_rejects_dimension_one(capsys):
    code, _, _ = run(capsys, "build", "--q", "7", "--m", "1")
    assert code == 2


def test_color_paper_overrides(capsys, tmp_path):
    out = tmp_path / "c7.txt"
    code, stdout, _ = run(
        capsys, "color", "--q", "7", "--a", "5", "--t", "3", "--json",
        "--out", str(out),
    )
    assert code == 0
    record = json.loads(stdout)
    assert record["k"] == 4 and record["proper"] is True
    assert record["a"] == 5 and record["t"] == 3
    assert out.read_text().startswith("# q=7 m=2 k=4")


def test_color_q9(capsys):
    code, stdout, _ = run(capsys, "color", "--q", "9", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["k"] == 6 and record["proper"] is True


def test_color_q3_unavailable(capsys):
    code, _, err = run(capsys, "color", "--q", "3")
    assert code == 2
    assert "q > 3" in err or "q=3" in err


def test_color_rejects_bad_override(capsys):
    code, _, _ = run(capsys, "color", "--q", "7", "--a", "0")
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--a", "-1", "slope code -1 outside [0, 7)"),
    ("--a", "0", "a=0 rejected: a^2+1 is a square in F_7"),
    ("--a", "7", "slope code 7 outside [0, 7)"),
    ("--t", "-1", "shift t=-1 must be a nonzero code in [1, 7)"),
    ("--t", "0", "shift t=0 must be a nonzero code in [1, 7)"),
    ("--t", "7", "shift t=7 must be a nonzero code in [1, 7)"),
    ("--t", "1", "t=1 rejected: a^2+1-t^2 is a square in F_7"),
])
def test_color_bad_override_messages(capsys, flag, value, message):
    # out-of-range codes are rejected before they index any vector
    assert run(capsys, "color", "--q", "7", flag, value) == (2, "", f"error: {message}\n")


def test_chi_q7(capsys):
    code, stdout, _ = run(capsys, "chi", "--q", "7")
    assert code == 0
    record = json.loads(stdout)
    assert record["status"] == "exact"
    assert record["lower"] == record["upper"] == 4
    assert set(record) == {"q", "m", "status", "lower", "upper", "nodes", "millis"}


def test_chi_q5(capsys):
    code, stdout, _ = run(capsys, "chi", "--q", "5")
    record = json.loads(stdout)
    assert code == 0 and record["status"] == "exact" and record["upper"] == 3


def test_chi_budget_gives_valid_bracket(capsys):
    code, stdout, _ = run(capsys, "chi", "--q", "13", "--nodes", "10")
    assert code == 0
    record = json.loads(stdout)
    assert record["lower"] <= record["upper"]


def test_chi_spends_no_node_past_a_budget_of_zero(capsys):
    # the search round used to start anyway and spend one node past the budget
    code, stdout, _ = run(capsys, "chi", "--q", "7", "--nodes", "0", "--json")
    record = json.loads(stdout)
    del record["millis"]
    assert code == 0
    assert record == {"lower": 3, "m": 2, "nodes": 0, "q": 7, "status": "bounded", "upper": 4}


@pytest.mark.parametrize("command", [["chi", "--q", "7"], ["report", "--q", "5..7"]])
@pytest.mark.parametrize("flag, value, message", [
    ("--timeout", "nan", "--timeout must be a number of seconds >= 0, not nan"),
    ("--timeout", "-1", "--timeout must be a number of seconds >= 0, not -1.0"),
    ("--timeout", "-0.5", "--timeout must be a number of seconds >= 0, not -0.5"),
    ("--nodes", "-1", "--nodes must be >= 0, not -1"),
])
def test_budgets_reject_nan_and_negatives_before_building(
    capsys, monkeypatch, command, flag, value, message
):
    # nan would lift chi's wall-clock cap: perf_counter() > nan is never true
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "build_graph", no_graph)
    assert run(capsys, *command, flag, value) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code", [
    (["triangles", "--q", "7"], 0),
    (["build", "--q", "6"], 2),
])
def test_every_command_pins_the_malloc_thresholds_first(capsys, monkeypatch, argv, code):
    calls = []
    monkeypatch.setattr(cli, "_fix_malloc_thresholds", lambda: calls.append(argv[0]))
    assert run(capsys, *argv)[0] == code
    assert calls == [argv[0]]


MAPPED_BLOCKS = """
import ctypes, json
from uqgraph import cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
cli._fix_malloc_thresholds()
mapped = []
for size in (12 << 20, 11 << 20, 13 << 20, 5 << 20):
    before = libc.mallinfo2().hblkhd
    block = bytearray(size)
    mapped.append(libc.mallinfo2().hblkhd - before)
    del block
print(json.dumps(mapped))
"""


def test_blocks_above_4_mib_are_mapped_whatever_was_freed_before():
    # in a fresh interpreter, whose heap holds no large free chunk: glibc's
    # sliding threshold would rise to 12 MiB at the first free and keep the
    # 11 MiB block in the heap, held beside the 13 MiB one
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc 2.33 or later")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", MAPPED_BLOCKS], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    mapped = json.loads(done.stdout)
    assert [m >= size << 20 for m, size in zip(mapped, (12, 11, 13, 5))] == [True] * 4


def test_spectrum_both_methods_agree(capsys):
    code, stdout, _ = run(capsys, "spectrum", "--q", "7", "--json")
    assert code == 0
    payload = json.loads(stdout)
    dense, cayley = payload["spectra"]
    assert dense["method"] == "dense" and cayley["method"] == "cayley"
    assert dense["lambda1"] == pytest.approx(cayley["lambda1"], abs=1e-6)
    assert dense["lambdaMin"] == pytest.approx(cayley["lambdaMin"], abs=1e-6)
    assert payload["diagnostics"]["withinTwoSqrtQ"] is True


def test_spectrum_single_method(capsys):
    code, stdout, _ = run(capsys, "spectrum", "--q", "5", "--method", "dense", "--json")
    assert code == 0
    payload = json.loads(stdout)
    (record,) = payload["spectra"]
    assert record["method"] == "dense"
    assert record["lambda1"] == pytest.approx(4.0)


def test_spectrum_file_output(capsys, tmp_path):
    out = tmp_path / "spec.txt"
    code, _, _ = run(capsys, "spectrum", "--q", "5", "--method", "cayley", "--out", str(out))
    assert code == 0
    first_value, first_count = out.read_text().splitlines()[0].split()
    assert float(first_value) == pytest.approx(4.0)
    assert int(first_count) >= 1


def test_triangles_output(capsys):
    code, stdout, _ = run(capsys, "triangles", "--q", "11", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["triangles"] == 484
    assert record["predictedTriangleFree"] is None
    code, stdout, _ = run(capsys, "triangles", "--q", "7", "--json")
    record = json.loads(stdout)
    assert record["triangles"] == 0 and record["predictedTriangleFree"] is True


def test_triangles_writes_its_record_to_out(capsys, tmp_path):
    out = tmp_path / "t11.json"
    code, stdout, _ = run(capsys, "triangles", "--q", "11", "--json", "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text()) == {
        "q": 11, "m": 2, "triangles": 484, "predictedTriangleFree": None,
    }


@pytest.mark.parametrize("command", [("color", "--json"), ("chi",)])
def test_coloring_out_dash_goes_to_stdout(capsys, monkeypatch, tmp_path, command):
    # '-' means stdout, as for build, spectrum, triangles and report
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, *command, "--q", "7", "--out", "-")
    assert code == 0
    *coloring, record = stdout.splitlines()
    assert json.loads(record)["q"] == 7
    assert coloring[0] == "# q=7 m=2 k=4"
    assert [int(line.split()[0]) for line in coloring[1:]] == list(range(49))
    assert list(tmp_path.iterdir()) == []


def _stdout_of(argv):
    # perfbench's worker redirects stdout to a StringIO, which has no .buffer
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_color_out_dash_prints_text_to_a_plain_stdout():
    code, stdout = _stdout_of(["color", "--q", "7", "--out", "-"])
    assert code == 0
    ctx = field_for(7)
    record = "a: 2\nexpectedK: 4\nk: 4\nm: 2\nproper: True\nq: 7\nt: 3\nviolation: None\n"
    assert stdout == coloring_text_by_lines(build_coloring_md(ctx, 2, make_plan(ctx))) + record


def test_python_m_uqgraph_prints_what_main_prints():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["report", "--q", "5..7", "--json", "--nodes", "1000"]
    done = subprocess.run([sys.executable, "-m", "uqgraph", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == _stdout_of(argv)
    refused = subprocess.run([sys.executable, "-m", "uqgraph", "build", "--q", "4"], env=env,
                             capture_output=True, text=True, timeout=60)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == "error: characteristic 2 is not supported\n"


SKIPPED = "".join(f"warning: skipping q={q}, not an odd prime power\n" for q in (6, 8, 10, 12))


@pytest.mark.parametrize("argv, err", [
    (["build", "--q", "31"], ""),
    (["report", "--q", "5..13", "--nodes", "100"], SKIPPED),  # printed whether stdout is open or not
])
def test_a_closed_stdout_ends_the_process_quietly_with_exit_0(argv, err):
    """As `uqgraph build --q 31 | head -1`, but with the reader gone before
    the first write, so every write meets a closed pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-m", "uqgraph", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    _, stderr = child.communicate(timeout=120)
    assert (child.returncode, stderr) == (0, err)  # no error, and no "Exception ignored" line


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["build", "--q", "7"], ["triangles", "--q", "7"],
                                  ["report", "--q", "5", "--nodes", "100"]])
def test_main_returns_0_on_a_closed_stdout_and_2_on_an_unwritable_out(capsys, monkeypatch,
                                                                        tmp_path, argv):
    with monkeypatch.context() as patched:
        patched.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    missing = tmp_path / "missing" / "out.txt"
    assert main([*argv, "--out", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_chi_out_dash_prints_text_to_a_plain_stdout():
    code, stdout = _stdout_of(["chi", "--q", "5", "--out", "-"])
    assert code == 0
    coloring, _, record = stdout.rstrip("\n").rpartition("\n")
    assert coloring + "\n" == coloring_text_by_lines(exact_chromatic(graph_for(5)).witness)
    record = json.loads(record)
    del record["millis"]
    assert record == {"lower": 3, "m": 2, "nodes": 0, "q": 5, "status": "exact", "upper": 3}


def test_verify_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# q=5 m=2 k=3\n0 \xff\n")
    code, stdout, err = run(capsys, "verify", str(path))
    assert code == 2 and stdout == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "c9.txt"
    code, _, _ = run(capsys, "color", "--q", "9", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "proper" in stdout


def test_verify_missing_vertex_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    lines = ["# q=5 m=2 k=3\n"] + [f"{i} 0\n" for i in range(24)]
    path.write_text("".join(lines))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "vertex" in err


def test_verify_improper_file(capsys, tmp_path):
    path = tmp_path / "improper.txt"
    lines = ["# q=5 m=2 k=1\n"] + [f"{i} 0\n" for i in range(25)]
    path.write_text("".join(lines))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "violation" in stdout


@pytest.mark.parametrize(
    "header",
    [
        "# q=1000003 m=3 k=1",  # q**m far beyond the vertex bound
        "# q=3 m=30 k=1",  # m alone rules the size out, before q**m is formed
        "# q=6 m=2 k=1",
        "# q=8 m=2 k=1",
        "# q=5 m=1 k=1",
    ],
)
def test_verify_rejects_header_before_allocating(capsys, tmp_path, header):
    path = tmp_path / "header.txt"
    path.write_text(header + "\n0 0\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: coloring header")
    assert "Traceback" not in err


def test_verify_duplicate_vertex_is_input_error(capsys, tmp_path):
    path = tmp_path / "twice.txt"
    lines = ["# q=3 m=2 k=2\n", "0 0\n", "0 1\n"] + [f"{i} 0\n" for i in range(1, 9)]
    path.write_text("".join(lines))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: vertex index 0 ")


def test_verify_rejects_a_color_past_int64_as_input_error(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("# q=3 m=2 k=9\n" + "".join(f"{i} 10000000000000000000\n" for i in range(9)))
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (2, "")
    assert err == "error: color 10000000000000000000 outside [0, 9)\n"


def test_verify_rejects_a_header_k_above_the_vertex_count(capsys, tmp_path):
    path = tmp_path / "small.txt"
    body = "".join(f"{i} {i}\n" for i in range(9))
    path.write_text("# q=3 m=2 k=100000000000000000000\n" + body)
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (2, "")
    assert err == ("error: coloring header k=100000000000000000000"
                   " exceeds the 9 vertices of q=3 m=2\n")
    path.write_text("# q=3 m=2 k=9\n" + body)  # k = q**m is allowed
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout, err) == (0, "proper: 9 colors on 9 vertices\n", "")


def test_report_rejects_oversized_range(capsys):
    code, stdout, err = run(capsys, "report", "--q", "3..1000000000000000", "--json")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: q range") and "Traceback" not in err


def run_within_a_second(capsys, *argv):
    return within_a_second(run, capsys, *argv)


def test_build_rejects_huge_q_before_factoring(capsys):
    code, stdout, err = run_within_a_second(capsys, "build", "--q", str(10**400))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: q=") and "order bound" in err
    assert "Traceback" not in err


def test_report_rejects_huge_q_before_factoring(capsys):
    code, stdout, err = run_within_a_second(
        capsys, "report", "--q", "1000000000000000003", "--json"
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: q=") and "order bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "color", "chi", "spectrum", "triangles"])
@pytest.mark.parametrize("m", ["100000", "1000000000"])
def test_graph_commands_reject_huge_m_before_forming_q_to_the_m(capsys, command, m):
    code, stdout, err = run_within_a_second(capsys, command, "--q", "3", "--m", m)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: 3**") and "exceed the bound" in err
    assert "Traceback" not in err


def test_report_records_huge_m_per_q_without_forming_q_to_the_m(capsys):
    code, stdout, _ = run_within_a_second(capsys, "report", "--q", "5..7", "--m", "1000000000", "--json")
    assert code == 0
    assert [(r["q"], r["error"]) for r in json.loads(stdout)] == [
        (5, "5**1000000000 vertices exceed the bound 65536"),
        (7, "7**1000000000 vertices exceed the bound 65536"),
    ]


def test_color_rejects_oversized_graph_before_building_field_tables(capsys):
    code, stdout, err = run_within_a_second(capsys, "color", "--q", "1048573")
    assert code == 2
    assert stdout == ""
    assert err == "error: 1099505336329 vertices exceed the bound 65536\n"
    assert make_field(1048573)._exp is None  # the cached field never built its tables


@pytest.mark.parametrize("argv, n", [
    (["spectrum", "--q", "7", "--m", "5", "--method", "dense"], 16807),
    (["spectrum", "--q", "13", "--m", "4"], 28561),
])
def test_spectrum_rejects_dense_bound_before_building_the_graph(capsys, argv, n):
    tracemalloc.start()
    try:
        code, stdout, err = run_within_a_second(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout, err) == (2, "", f"error: {n} vertices exceed the dense bound 4096\n")
    assert peak < 4 * 2**20  # the neighbor rows alone would be over 100 MB


@pytest.mark.parametrize("argv, message", [
    (["build", "--q", "257"], "66049 vertices exceed the bound 65536"),
    (["chi", "--q", "7", "--m", "1"], "unit-quadrance graphs need dimension >= 2"),
    (["color", "--q", "7", "--m", "0"], "colorings need dimension >= 2"),
    (["triangles", "--q", "6", "--m", "1"], "q=6 is not a prime power"),
    (["spectrum", "--q", "4", "--m", "1"], "characteristic 2 is not supported"),
])
def test_graph_command_errors_check_the_field_before_the_dimension(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_report_single_q(capsys):
    code, stdout, _ = run(capsys, "report", "--q", "7", "--json")
    assert code == 0
    (record,) = json.loads(stdout)
    assert record["chiUpper"] == 4 and record["chiStatus"] == "exact"
    assert record["triangles"] == 0
    assert record["constructionColors"] == 4
    assert record["checks"]["degreeFormula"] is True
    assert record["checks"]["aqIdentity"] is True
    assert record["checks"]["colorCount"] is True
    assert record["checks"]["hoffmanLeChi"] is True


def test_report_range_skips_non_prime_powers(capsys):
    code, stdout, err = run(capsys, "report", "--q", "5..9", "--json")
    assert code == 0
    records = json.loads(stdout)
    assert [record["q"] for record in records] == [5, 7, 9]
    assert "skipping q=6" in err
    assert "skipping q=8" in err


def test_report_is_byte_identical(capsys):
    _, first, _ = run(capsys, "report", "--q", "5..7", "--json")
    _, second, _ = run(capsys, "report", "--q", "5..7", "--json")
    assert first == second


def test_report_text_mode(capsys):
    code, stdout, _ = run(capsys, "report", "--q", "5")
    assert code == 0
    assert "-- q=5" in stdout
    assert "chiStatus: exact" in stdout


@pytest.mark.parametrize("q_range, m", [("5..31", 2), ("3..13", 3)])
def test_report_fields_equal_the_spectrum_and_triangles_records(capsys, q_range, m):
    """report's spectral and triangle fields are the records that spectrum
    and triangles print for the same q; the flags are null off the plane."""
    code, stdout, _ = run(capsys, "report", "--q", q_range, "--m", f"{m}", "--json", "--nodes", "1")
    assert code == 0
    records = json.loads(stdout)
    assert len(records) == (12 if m == 2 else 6)  # odd prime powers in range
    for record in records:
        point = ["--q", f"{record['q']}", "--m", f"{m}", "--json"]
        _, stdout, _ = run(capsys, "spectrum", *point, "--method", "cayley")
        printed = json.loads(stdout)
        (spectral,) = printed["spectra"]
        for key in ("lambda1", "lambdaMin", "hoffman", "maxNonprincipalAbs"):
            assert record[key] == spectral[key], (record["q"], key)
        flags = printed["diagnostics"] or {"withinSqrtQ": None, "withinTwoSqrtQ": None}
        assert (printed["diagnostics"] is None) == (m != 2)
        for key in ("withinSqrtQ", "withinTwoSqrtQ"):
            assert record[key] == flags[key], (record["q"], key)
        _, stdout, _ = run(capsys, "triangles", *point)
        triangles = json.loads(stdout)
        for key in ("triangles", "predictedTriangleFree"):
            assert record[key] == triangles[key], (record["q"], key)


def test_report_computes_the_hoffman_bound_once_per_record(capsys, monkeypatch):
    calls = []

    def counted(spectrum, _inner=spectral.hoffman_bound):
        calls.append(spectrum.n)
        return _inner(spectrum)

    monkeypatch.setattr(spectral, "hoffman_bound", counted)
    monkeypatch.setattr(cli, "hoffman_bound", counted, raising=False)
    code, stdout, _ = run(capsys, "report", "--q", "5..13", "--json", "--nodes", "2000")
    assert code == 0
    records = json.loads(stdout)
    assert calls == [record["q"] ** 2 for record in records] == [25, 49, 81, 121, 169]
    assert all(record["hoffman"] is not None for record in records)


def count_construction_calls(monkeypatch):
    """Wrap make_plan, build_coloring_md and verify_coloring in
    uqgraph.construction, FieldCtx.character_vector and chi's construct, and
    return, for each, the list of the q of every call."""
    calls = {name: [] for name in ("make_plan", "build_coloring_md", "verify_coloring")}
    for name, seen in calls.items():
        def counted(first, *args, _inner=getattr(construction, name), _seen=seen, **kwargs):
            _seen.append(first.q)
            return _inner(first, *args, **kwargs)

        monkeypatch.setattr(construction, name, counted)
    calls["character_vector"] = chars = []
    inner = FieldCtx.character_vector
    monkeypatch.setattr(FieldCtx, "character_vector", lambda ctx: chars.append(ctx.q) or inner(ctx))
    calls["chi.construct"] = seeds = []
    monkeypatch.setattr(chi, "construct",
                        lambda graph: seeds.append(graph.q) or construction.construct(graph))
    return calls


def test_report_plans_and_builds_the_construction_once_per_record(capsys, monkeypatch):
    """report builds the construction once per q for constructionColors, and
    chi builds it again only where its closed-form count beats greedy."""
    calls = count_construction_calls(monkeypatch)
    code, stdout, _ = run(capsys, "report", "--q", "5..31", "--json", "--nodes", "20000")
    assert code == 0
    qs = [record["q"] for record in json.loads(stdout)]
    assert calls["chi.construct"] == [7, 11]
    for name in ("make_plan", "build_coloring_md", "verify_coloring"):
        assert sorted(calls[name]) == sorted(qs + [7, 11]), name
    assert len(calls["make_plan"]) == 14 and len(calls["character_vector"]) == 80
    monkeypatch.undo()
    calls = count_construction_calls(monkeypatch)
    code, _, _ = run(capsys, "report", "--q", "13", "--json", "--nodes", "1000")
    assert code == 0 and len(calls["character_vector"]) == 6
    assert calls["chi.construct"] == []


def test_chi_builds_no_construction_that_greedy_beats(capsys, monkeypatch):
    # greedy's 31 colors at q = 127 beat the construction's 64, so chi never plans it
    calls = count_construction_calls(monkeypatch)
    code, stdout, _ = run(capsys, "chi", "--q", "127", "--nodes", "1000")
    assert code == 0 and json.loads(stdout)["upper"] == 31
    assert calls["make_plan"] == calls["chi.construct"] == []


def test_report_on_a_degenerate_spectrum_nulls_the_bound_and_its_check(capsys, monkeypatch):
    """A spectrum with no negative eigenvalue has no spectral bound: report
    prints hoffman and checks.hoffmanLeChi as null and the rest of the record
    as usual. No D_q^m has one, since each has edges and so a negative
    eigenvalue; a patched Cayley spectrum stands in."""
    def nonnegative(ctx, m):
        eigenvalues = np.zeros(ctx.q**m)
        eigenvalues[0] = 8.0
        return Spectrum(eigenvalues=eigenvalues, method="cayley")

    monkeypatch.setattr(cli, "cayley_spectrum", nonnegative)
    code, stdout, _ = run(capsys, "report", "--q", "7", "--json")
    assert code == 0
    (record,) = json.loads(stdout)
    assert (record["lambda1"], record["lambdaMin"], record["hoffman"]) == (8.0, 0.0, None)
    assert record["checks"]["hoffmanLeChi"] is None
    assert (record["chiStatus"], record["chiUpper"], record["constructionColors"]) == ("exact", 4, 4)
    assert "error" not in record


def test_report_empty_range_is_input_error(capsys):
    code, _, err = run(capsys, "report", "--q", "9..5")
    assert code == 2
    assert "range" in err


def test_chi_writes_witness_coloring(capsys, tmp_path):
    out = tmp_path / "witness.txt"
    code, _, _ = run(capsys, "chi", "--q", "5", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "3 colors" in stdout


@pytest.fixture
def no_add_table(monkeypatch):
    """FieldCtx.add_table raises: the addition table is a test oracle only."""
    def no_table(self):
        raise AssertionError("FieldCtx.add_table was called")

    monkeypatch.setattr(FieldCtx, "add_table", no_table)


@pytest.mark.parametrize("q, m", [("9", "2"), ("5", "3")])
def test_commands_never_read_the_addition_table(capsys, no_add_table, tmp_path, q, m):
    coloring = tmp_path / "coloring.txt"
    for argv in (
        ["build", "--q", q, "--m", m, "--out", str(tmp_path / "graph.col")],
        ["color", "--q", q, "--m", m, "--out", str(coloring)],
        ["verify", str(coloring)],
        ["triangles", "--q", q, "--m", m, "--json"],
        ["spectrum", "--q", q, "--m", m, "--method", "both"],
    ):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_report_never_reads_the_addition_table(capsys, no_add_table):
    code, stdout, _ = run(capsys, "report", "--q", "5..9", "--nodes", "2000", "--json")
    assert code == 0
    assert [record["q"] for record in json.loads(stdout)] == [5, 7, 9]
