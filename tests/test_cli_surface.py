"""The CLI's help, usage and error texts and exit codes, pinned at an
80-column terminal, and every documented option of each subcommand.

`main` registers the options of the named subcommand only; these texts are
what the parser with every subcommand's options printed. Each subcommand's
parser is built once per process, so the texts must not depend on which
commands ran before."""

import argparse
import json
import sys

import pytest

from uqgraph import cli
from uqgraph.cli import main

USAGE = "usage: uqgraph [-h] {build,color,chi,spectrum,triangles,verify,report} ...\n"

MAIN_HELP = USAGE + """\

Unit-quadrance graphs over finite fields: build, color, solve, analyze.

positional arguments:
  {build,color,chi,spectrum,triangles,verify,report}
    build               export the graph in DIMACS format
    color               run the line-pairing coloring construction
    chi                 exact chromatic number within a budget
    spectrum            eigenvalues, spectral bound, magnitude flags
    triangles           triangle count and the prime-form prediction
    verify              check a coloring file against its graph
    report              consolidated per-q record over a range

options:
  -h, --help            show this help message and exit
"""

COMMON = """\
  --q Q       field order (odd prime power)
  --m M       dimension, default 2
  --json      machine-readable output
  --out OUT   output path ('-' for stdout)
"""

BUILD_USAGE = "usage: uqgraph build [-h] --q Q [--m M] [--out OUT]\n"

COMMAND_HELP = {
    "build": BUILD_USAGE + """\

options:
  -h, --help  show this help message and exit
  --q Q       field order (odd prime power)
  --m M       dimension, default 2
  --out OUT   output path ('-' for stdout)
""",
    "color": """\
usage: uqgraph color [-h] --q Q [--m M] [--json] [--out OUT] [--a A] [--t T]

options:
  -h, --help  show this help message and exit
""" + COMMON + """\
  --a A       slope override (canonical code)
  --t T       shift override (canonical code)
""",
    "chi": """\
usage: uqgraph chi [-h] --q Q [--m M] [--json] [--out OUT] [--timeout TIMEOUT]
                   [--nodes NODES]

options:
  -h, --help         show this help message and exit
  --q Q              field order (odd prime power)
  --m M              dimension, default 2
  --json             machine-readable output
  --out OUT          output path ('-' for stdout)
  --timeout TIMEOUT  seconds
  --nodes NODES      search node limit
""",
    "spectrum": """\
usage: uqgraph spectrum [-h] --q Q [--m M] [--json] [--out OUT]
                        [--method {dense,cayley,both}]

options:
  -h, --help            show this help message and exit
  --q Q                 field order (odd prime power)
  --m M                 dimension, default 2
  --json                machine-readable output
  --out OUT             output path ('-' for stdout)
  --method {dense,cayley,both}
""",
    "triangles": """\
usage: uqgraph triangles [-h] --q Q [--m M] [--json] [--out OUT]

options:
  -h, --help  show this help message and exit
""" + COMMON,
    "verify": """\
usage: uqgraph verify [-h] file

positional arguments:
  file        coloring file path

options:
  -h, --help  show this help message and exit
""",
    "report": """\
usage: uqgraph report [-h] --q Q [--m M] [--json] [--out OUT]
                      [--timeout TIMEOUT] [--nodes NODES]

options:
  -h, --help         show this help message and exit
  --q Q              field order (odd prime power)
  --m M              dimension, default 2
  --json             machine-readable output
  --out OUT          output path ('-' for stdout)
  --timeout TIMEOUT  seconds per q
  --nodes NODES      search node limit per q
""",
}

CHOICES = "'build', 'color', 'chi', 'spectrum', 'triangles', 'verify', 'report'"

ERRORS = [
    (["frobnicate"], USAGE + "uqgraph: error: argument command: invalid choice:"
     f" 'frobnicate' (choose from {CHOICES})\n"),
    ([], USAGE + "uqgraph: error: the following arguments are required: command\n"),
    (["build"], BUILD_USAGE + "uqgraph build: error: the following arguments are required: --q\n"),
    # options before the command, and a command name after an invalid one
    (["--foo", "build", "--q", "5"], USAGE + "uqgraph: error: unrecognized arguments: --foo\n"),
    (["xyz", "build", "--q", "5"], USAGE + "uqgraph: error: argument command: invalid choice:"
     f" 'xyz' (choose from {CHOICES})\n"),
    (["report", "--q", "5", "--bogus"], USAGE + "uqgraph: error: unrecognized arguments: --bogus\n"),
    # build writes DIMACS text only
    (["build", "--q", "5", "--json"], USAGE + "uqgraph: error: unrecognized arguments: --json\n"),
]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def exits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "build"]])
def test_main_help(capsys, argv):
    assert exits(capsys, argv) == (0, MAIN_HELP, "")


@pytest.mark.parametrize("command", list(COMMAND_HELP))
def test_command_help(capsys, command):
    assert exits(capsys, [command, "--help"]) == (0, COMMAND_HELP[command], "")


def test_help_lists_every_command_in_table_order():
    assert list(COMMAND_HELP) == list(cli._COMMANDS)


# ids from the argv alone, so a change to a pinned usage text renames no test
@pytest.mark.parametrize("argv, err", ERRORS, ids=[" ".join(argv) or "(none)" for argv, _ in ERRORS])
def test_usage_errors(capsys, argv, err):
    assert exits(capsys, argv) == (2, "", err)


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["uqgraph", "triangles", "--q", "7", "--json"])
    assert main() == 0
    assert capsys.readouterr().out == (
        '{"m": 2, "predictedTriangleFree": true, "q": 7, "triangles": 0}\n'
    )
    monkeypatch.setattr(sys, "argv", ["uqgraph", "build"])
    assert exits(capsys, None) == (
        2, "", BUILD_USAGE + "uqgraph build: error: the following arguments are required: --q\n"
    )


COMMON_ARGV = ["--q", "9", "--m", "3", "--json", "--out", "x.txt"]
COMMON_PARSED = {"q": 9, "m": 3, "json": True, "out": "x.txt"}
DEFAULTS = {"m": 2, "json": False, "out": None}

BUILD_DEFAULTS = {"m": 2, "out": None}

PARSES = [
    ("build", ["--q", "9", "--m", "3", "--out", "x.txt"], {"q": 9, "m": 3, "out": "x.txt"}),
    ("build", ["--q", "9"], dict(BUILD_DEFAULTS, q=9)),
    ("color", COMMON_ARGV + ["--a", "5", "--t", "3"], dict(COMMON_PARSED, a=5, t=3)),
    ("color", ["--q", "7"], dict(DEFAULTS, q=7, a=None, t=None)),
    ("chi", COMMON_ARGV + ["--timeout", "1.5", "--nodes", "100"],
     dict(COMMON_PARSED, timeout=1.5, nodes=100)),
    ("chi", ["--q", "7"], dict(DEFAULTS, q=7, timeout=cli.DEFAULT_TIME_LIMIT,
                               nodes=cli.DEFAULT_NODE_LIMIT)),
    ("spectrum", COMMON_ARGV + ["--method", "dense"], dict(COMMON_PARSED, method="dense")),
    ("spectrum", ["--q", "7"], dict(DEFAULTS, q=7, method="both")),
    ("triangles", COMMON_ARGV, COMMON_PARSED),
    ("verify", ["coloring.txt"], {"file": "coloring.txt"}),
    ("report", ["--q", "5..9", "--m", "3", "--json", "--out", "x.txt", "--timeout", "2",
                "--nodes", "7"],
     {"q": "5..9", "m": 3, "json": True, "out": "x.txt", "timeout": 2.0, "nodes": 7}),
    ("report", ["--q", "5"], dict(DEFAULTS, q="5", timeout=cli.DEFAULT_TIME_LIMIT,
                                  nodes=cli.DEFAULT_NODE_LIMIT)),
]


@pytest.mark.parametrize("command, argv, parsed", PARSES)
def test_every_documented_option_parses(command, argv, parsed):
    args = cli._build_parser(command).parse_args([command, *argv])
    assert vars(args) == dict(parsed, command=command)


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call; chi's millis dropped."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if argv[0] == "chi":
        out = {k: v for k, v in json.loads(out).items() if k != "millis"}
    return code, out, err


def test_each_command_key_builds_one_parser_tree_per_process(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    coloring = str(tmp_path / "coloring.txt")
    sequence = [
        ["build", "--q", "5", "--out", str(tmp_path / "graph.col")],
        ["color", "--q", "5", "--json", "--out", coloring],
        ["build"],  # usage error: --q is required
        ["chi", "--q", "5", "--nodes", "1000", "--json"],
        ["frobnicate"],
        ["spectrum", "--q", "5", "--json"],
        ["--help"],
        ["triangles", "--q", "5", "--json"],
        ["verify", coloring],
        ["report", "--q", "5..7", "--json", "--nodes", "100"],
    ]
    first = [outcome(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    # one tree per key, each the main parser ("uqgraph") and its seven subparsers
    keys = len(cli._COMMANDS) + 1  # every subcommand, and None for --help and frobnicate
    assert built.count("uqgraph") == keys and len(built) == keys * (len(cli._COMMANDS) + 1)
    built.clear()
    assert [outcome(capsys, argv) for argv in sequence] == first
    assert built == []


HELP_AND_ERRORS = (
    [(["--help"], 0, MAIN_HELP, "")]
    + [([command, "--help"], 0, text, "") for command, text in COMMAND_HELP.items()]
    + [(argv, 2, "", err) for argv, err in ERRORS]
)


def test_pinned_texts_hold_in_any_order_on_reused_parsers(capsys):
    cli._build_parser.cache_clear()
    cases = HELP_AND_ERRORS
    for order in (cases, cases[::-1], cases[1::2] + cases[::2]):
        for argv, code, out, err in order:
            assert exits(capsys, argv) == (code, out, err), argv


def test_reused_parser_formats_help_at_the_current_width(capsys, monkeypatch):
    assert exits(capsys, ["chi", "--help"]) == (0, COMMAND_HELP["chi"], "")
    monkeypatch.setenv("COLUMNS", "200")
    _, out, _ = exits(capsys, ["chi", "--help"])
    assert out.splitlines()[0] == (
        "usage: uqgraph chi [-h] --q Q [--m M] [--json] [--out OUT] [--timeout TIMEOUT]"
        " [--nodes NODES]"
    )
    monkeypatch.setenv("COLUMNS", "80")
    assert exits(capsys, ["chi", "--help"]) == (0, COMMAND_HELP["chi"], "")


def test_report_parses_its_budget_after_a_failed_report(capsys, monkeypatch):
    parsed = []

    def handler(args):
        parsed.append(vars(args))
        return 0

    text, options, _ = cli._COMMANDS["report"]
    monkeypatch.setitem(cli._COMMANDS, "report", (text, options, handler))
    assert exits(capsys, ["report", "--q", "5", "--bogus"]) == (
        2, "", USAGE + "uqgraph: error: unrecognized arguments: --bogus\n"
    )
    assert main(["report", "--q", "5..9", "--nodes", "123", "--timeout", "7.5"]) == 0
    assert main(["report", "--q", "5"]) == 0
    assert parsed == [
        dict(DEFAULTS, command="report", q="5..9", nodes=123, timeout=7.5),
        dict(DEFAULTS, command="report", q="5", nodes=cli.DEFAULT_NODE_LIMIT,
             timeout=cli.DEFAULT_TIME_LIMIT),
    ]
