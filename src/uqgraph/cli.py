"""Command-line front end.

Subcommands build, color, chi, spectrum, triangles, verify and report tie
the library together. Exit codes: 0 success or proper, 1 mathematical
negative (an improper coloring or a violated check), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager

from .chi import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, exact_chromatic
from .construction import (
    construct,
    count_Aq,
    expected_color_count,
    read_coloring,
    verify_coloring,
    write_coloring,
)
from .errors import TooLargeError, UQGraphError
from .field import DEFAULT_MAX_ORDER, make_field, prime_power
from .graph import (
    DEFAULT_MAX_VERTICES,
    build_graph,
    degree_formula,
    export_dimacs,
    triangle_count,
    triangle_free_predicted,
    vertex_count,
)
from .spectral import (
    cayley_spectrum,
    dense_spectrum,
    spectrum_record,
    write_spectrum,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _check_order(q: int) -> None:
    if q > DEFAULT_MAX_ORDER:  # before prime_power, which trial-divides
        raise TooLargeError(f"q={q} exceeds the order bound {DEFAULT_MAX_ORDER}")


def _field_for(q: int, m: int, what: str = "unit-quadrance graphs"):
    _check_order(q)
    decomposition = prime_power(q)
    if decomposition is None:
        raise UQGraphError(f"q={q} is not a prime power")
    p, n = decomposition
    ctx = make_field(p, n)
    vertex_count(q, m, what=what)  # before any field table is built
    return ctx


def _check_budget(args) -> None:
    # perf_counter() > nan is never true, so a nan --timeout would lift chi's cap
    if not args.timeout >= 0:
        raise ValueError(f"--timeout must be a number of seconds >= 0, not {args.timeout}")
    if args.nodes < 0:
        raise ValueError(f"--nodes must be >= 0, not {args.nodes}")


@contextmanager
def _open_out(path, binary=False):
    # perfbench and pytest swap in a sys.stdout without .buffer: '-' stays text
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8") as stream:
            yield stream


def _dump(record, as_json: bool, sink=None) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True), file=sink)
    else:
        for key in sorted(record):
            print(f"{key}: {record[key]}", file=sink)


def cmd_build(args) -> int:
    ctx = _field_for(args.q, args.m)
    graph = build_graph(ctx, args.m)
    with _open_out(args.out, binary=True) as sink:
        export_dimacs(graph, sink)
    return EXIT_OK


def cmd_color(args) -> int:
    ctx = _field_for(args.q, args.m, what="colorings")
    plan, coloring, violation = construct(build_graph(ctx, args.m), args.a, args.t)
    if args.out:
        with _open_out(args.out, binary=True) as sink:
            write_coloring(coloring, sink)
    record = {
        "q": ctx.q,
        "m": args.m,
        "a": plan.a,
        "t": plan.t,
        "k": coloring.k,
        "expectedK": expected_color_count(ctx, args.m),
        "proper": violation is None,
        "violation": list(violation) if violation else None,
    }
    _dump(record, args.json)
    return EXIT_OK if violation is None else EXIT_NEGATIVE


def cmd_chi(args) -> int:
    _check_budget(args)
    ctx = _field_for(args.q, args.m)
    graph = build_graph(ctx, args.m)
    result = exact_chromatic(graph, time_limit=args.timeout, node_limit=args.nodes)
    if args.out:
        with _open_out(args.out, binary=True) as sink:
            write_coloring(result.witness, sink)
    print(json.dumps(result.record(), sort_keys=True))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = _field_for(args.q, args.m)
    methods = ["dense", "cayley"] if args.method == "both" else [args.method]
    spectra = [  # dense first: its bound is checked before the Cayley route runs
        dense_spectrum(build_graph(ctx, args.m)) if method == "dense"
        else cayley_spectrum(ctx, args.m)
        for method in methods
    ]
    preferred = spectra[-1]  # the Cayley spectrum whenever it was computed
    if args.out:
        with _open_out(args.out) as sink:
            write_spectrum(preferred, sink)
    records = [spectrum_record(spectrum, ctx.q, args.m) for spectrum in spectra]
    flags = ("withinSqrtQ", "withinTwoSqrtQ")  # printed once, from the preferred record
    keys = ("maxNonprincipalAbs", *flags)
    diagnostics = {key: records[-1][key] for key in keys} if args.m == 2 else None
    for record in records:
        for key in flags:
            del record[key]
    if args.json:
        print(json.dumps({"spectra": records, "diagnostics": diagnostics}, sort_keys=True))
    else:
        for record in records:
            print(
                f"method={record['method']} lambda1={record['lambda1']}"
                f" lambdaMin={record['lambdaMin']} hoffman={record['hoffman']}"
            )
        if diagnostics:
            print(
                f"maxNonprincipalAbs={diagnostics['maxNonprincipalAbs']}"
                f" withinSqrtQ={diagnostics['withinSqrtQ']}"
                f" withinTwoSqrtQ={diagnostics['withinTwoSqrtQ']}"
            )
    return EXIT_OK


def _triangles_record(graph) -> dict:
    return {
        "q": graph.q,
        "m": graph.m,
        "triangles": triangle_count(graph),
        "predictedTriangleFree": triangle_free_predicted(graph.q) if graph.m == 2 else None,
    }


def cmd_triangles(args) -> int:
    ctx = _field_for(args.q, args.m)
    with _open_out(args.out) as sink:
        _dump(_triangles_record(build_graph(ctx, args.m)), args.json, sink)
    return EXIT_OK


def cmd_verify(args) -> int:
    coloring = read_coloring(args.file)
    ctx = _field_for(coloring.q, coloring.m)
    graph = build_graph(ctx, coloring.m)
    violation = verify_coloring(graph, coloring)
    if violation is None:
        print(f"proper: {coloring.k} colors on {graph.n_vertices} vertices")
        return EXIT_OK
    print(f"violation: edge {violation[0]} {violation[1]} shares a color")
    return EXIT_NEGATIVE


def _parse_q_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty q range {text!r}")
        if hi - lo >= DEFAULT_MAX_VERTICES:
            raise ValueError(f"q range {text!r} holds more than {DEFAULT_MAX_VERTICES} values")
    else:
        lo = hi = int(text)
    _check_order(hi)
    return list(range(lo, hi + 1))


def _report_record(q: int, m: int, time_limit: float, node_limit: int) -> dict:
    ctx = _field_for(q, m)
    graph = build_graph(ctx, m)
    record = {
        "q": q,
        "p": ctx.p,
        "n": ctx.n,
        "m": m,
        "degree": graph.degree,
        "circleSize": len(graph.connection_set),
    }
    try:
        _, coloring, violation = construct(graph)
        record["constructionColors"] = coloring.k
        record["constructionProper"] = violation is None
    except UQGraphError as exc:
        record["constructionColors"] = None
        record["constructionProper"] = None
        record["constructionError"] = str(exc)
    result = exact_chromatic(graph, time_limit=time_limit, node_limit=node_limit)
    record["chiStatus"] = result.status
    record["chiLower"] = result.lower
    record["chiUpper"] = result.upper
    spectral = spectrum_record(cayley_spectrum(ctx, m), q, m)
    del spectral["method"]
    record.update(spectral)
    record.update(_triangles_record(graph))
    # i -> u*u*i carries the count at t onto the count at u*u*t, and u*u*t runs
    # through every nonsquare: the smallest nonsquare stands for all of them
    aq = count_Aq(ctx, ctx.character_vector().tolist().index(-1))
    record["aqValue"] = aq.formula_value
    record["checks"] = {
        "degreeFormula": (graph.degree == degree_formula(q)) if m == 2 else None,
        "aqIdentity": aq.brute_count == aq.formula_value,
        "colorCount": (
            record["constructionColors"] == expected_color_count(ctx, m)
            if record["constructionColors"] is not None
            else None
        ),
        "trianglePrediction": (
            record["triangles"] == 0 if record["predictedTriangleFree"] else None
        ),
        "hoffmanLeChi": (  # null for a degenerate spectrum, whose bound is null
            math.ceil(record["hoffman"] - 1e-9) <= result.upper
            if result.status == "exact" and record["hoffman"] is not None
            else None
        ),
    }
    return record


def cmd_report(args) -> int:
    _check_budget(args)
    records = []
    for q in _parse_q_range(args.q):
        decomposition = prime_power(q)
        if decomposition is None or decomposition[0] == 2:
            print(f"warning: skipping q={q}, not an odd prime power", file=sys.stderr)
            continue
        try:
            records.append(_report_record(q, args.m, args.timeout, args.nodes))
        except UQGraphError as exc:
            records.append({"q": q, "m": args.m, "error": str(exc)})
    with _open_out(args.out) as sink:
        if args.json:
            sink.write(json.dumps(records, sort_keys=True) + "\n")
        else:
            for record in records:
                sink.write(f"-- q={record['q']} m={record.get('m')} --\n")
                for key in sorted(record):
                    if key != "q":
                        sink.write(f"  {key}: {record[key]}\n")
    return EXIT_OK


def _common(p, q_type=int, json_flag=True):
    p.add_argument("--q", type=q_type, required=True, help="field order (odd prime power)")
    p.add_argument("--m", type=int, default=2, help="dimension, default 2")
    if json_flag:
        p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="output path ('-' for stdout)")


def _color_options(p):
    _common(p)
    p.add_argument("--a", type=int, default=None, help="slope override (canonical code)")
    p.add_argument("--t", type=int, default=None, help="shift override (canonical code)")


def _budget_options(p, q_type=int, per=""):
    _common(p, q_type)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIME_LIMIT, help="seconds" + per)
    p.add_argument("--nodes", type=int, default=DEFAULT_NODE_LIMIT, help="search node limit" + per)


def _spectrum_options(p):
    _common(p)
    p.add_argument("--method", choices=["dense", "cayley", "both"], default="both")


def _verify_options(p):
    p.add_argument("file", help="coloring file path")


# name -> (help, options, handler), in the order `uqgraph --help` lists them
_COMMANDS = {
    "build": (  # DIMACS text only: no --json
        "export the graph in DIMACS format",
        lambda p: _common(p, json_flag=False),
        cmd_build,
    ),
    "color": ("run the line-pairing coloring construction", _color_options, cmd_color),
    "chi": ("exact chromatic number within a budget", _budget_options, cmd_chi),
    "spectrum": ("eigenvalues, spectral bound, magnitude flags", _spectrum_options, cmd_spectrum),
    "triangles": ("triangle count and the prime-form prediction", _common, cmd_triangles),
    "verify": ("check a coloring file against its graph", _verify_options, cmd_verify),
    "report": (
        "consolidated per-q record over a range",
        lambda p: _budget_options(p, str, " per q"),
        cmd_report,
    ),
}


@functools.cache
def _build_parser(command) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the options of `command` alone:
    a call parses one subcommand, so it registers only that one's options.

    Built on the first call for each `command` (a subcommand name or None)
    and reused after: parse_args makes a fresh Namespace and leaves the
    parser unchanged, handlers are looked up in _COMMANDS at dispatch, and
    help and usage are formatted, at the terminal width, when printed."""
    parser = argparse.ArgumentParser(
        prog="uqgraph",
        description="Unit-quadrance graphs over finite fields: build, color, solve, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == command:
            options(p)
    return parser


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 4 MiB and its trim threshold at twice
    that, once per process (no-op on other C libraries).

    glibc slides the mmap threshold up to the largest mapped block freed so
    far, so in a process that runs command after command, a large buffer
    read after one command can stay in the heap and be held beside a
    larger one mapped after the next: the peak then depends on the order of
    the commands. With the threshold pinned, a block above 4 MiB that no
    free heap chunk holds gets its own mapping, returned when freed, free
    heap above 8 MiB at the top is given back, and the export's write
    buffers (2**17 edges of 16 bytes, and a copy) stay in the heap.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc's option numbers below
    except (OSError, TypeError, AttributeError):
        return
    libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    """Run one command; a process may call it again and again. Each
    subcommand's parser is built on its first call and reused after."""
    _fix_malloc_thresholds()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the main parser takes no option values, so the first command name is
    # the subcommand argparse picks (subcommands allow no abbreviation)
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (UQGraphError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) or isinstance(exc.__cause__, BrokenPipeError):
            return EXIT_OK  # the reader closed stdout: not an input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    """main as a process. If stdout's reader is gone, stdout is pointed at devnull, as
    the SIGPIPE note of Python's signal module does, so the flush at exit stays quiet."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
