"""Proper colorings of unit-quadrance graphs from slope and shift certificates.

The plane F_q^2 is sliced into the q parallel lines y = a*x + i for a
slope a such that a**2 + 1 is a nonsquare; no two points of one line are
then at quadrance 1. A nonzero shift t with a**2 + 1 - t**2 also a
nonsquare guarantees the same for any point pair taken from lines i and
i + t, so two such lines can be fused into one color class. Walking the
additive cosets {r, r+t, ..., r+(p-1)*t} of the subgroup generated by t
pairs the lines at offsets (2k)t and (2k+1)t and leaves the (p-1)t line
alone, using (p**n + p**(n-1)) / 2 colors in total. In higher dimensions
the plane coloring is applied to the last two coordinates and the
leading coordinates become part of the color, which multiplies the count
by q**(m-2) and stays proper: equal colors force the leading coordinates
to agree, reducing the quadrance to the plane case.

make_plan finds the certificate (a, t), checking only the values it is
given; validate_plan checks a plan built elsewhere; build_coloring_md
checks its plan once and colors every m >= 2 on one path, the plane
being the case of a single block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConstructionUnavailableError,
    DimensionTooSmallError,
    IncompleteColoringError,
    InvalidPlanError,
    NotNonsquareError,
    TooLargeError,
)
from .field import FieldCtx, prime_power
from .graph import (
    DEFAULT_MAX_VERTICES,
    UnitQuadranceGraph,
    circle_translates,
    decimal_names,
    index_coords,
    place_values,
    vertex_count,
    write_ascii,
)


@dataclass(frozen=True)
class ColoringPlan:
    """Slope a and shift t, the certificates of the line-pairing coloring;
    the cosets of F_p*t follow from t."""

    a: int
    t: int


@dataclass(frozen=True)
class CharCountReport:
    """Brute-force count of squares i with t - i a nonsquare, next to the
    closed-form value (q + (-1)**((q-1)/2) - 2) / 4."""

    t: int
    brute_count: int
    formula_value: int


@dataclass(frozen=True)
class Coloring:
    """A vertex-to-color map for D_q^m; color ids are 0-based and contiguous."""

    q: int
    m: int
    colors: np.ndarray
    k: int


def _slope_chars(ctx: FieldCtx) -> np.ndarray:
    """The character of a**2 + 1 for every slope code a."""
    return ctx.character_vector()[ctx.add_arrays(ctx.square_vector(), 1)]


def _shift_chars(ctx: FieldCtx, a: int) -> np.ndarray:
    """The character of a**2 + 1 - t**2 for every shift code t."""
    squares = ctx.square_vector()
    rest = ctx.add_arrays(ctx.add_arrays(squares[a], 1), ctx.neg_vector()[squares])
    return ctx.character_vector()[rest]


def _require_slope(ctx: FieldCtx, a: int) -> None:
    if not 0 <= a < ctx.q:
        raise InvalidPlanError(f"slope code {a} outside [0, {ctx.q})")
    if _slope_chars(ctx)[a] != -1:
        raise InvalidPlanError(f"a={a} rejected: a^2+1 is a square in F_{ctx.q}")


def _require_shift(ctx: FieldCtx, a: int, t: int) -> None:
    if not 0 < t < ctx.q:
        raise InvalidPlanError(f"shift t={t} must be a nonzero code in [1, {ctx.q})")
    if _shift_chars(ctx, a)[t] != -1:
        raise InvalidPlanError(f"t={t} rejected: a^2+1-t^2 is a square in F_{ctx.q}")


def count_Aq(ctx: FieldCtx, t: int) -> CharCountReport:
    """Count squares i in F_q* with t - i a nonsquare, for a nonsquare t."""
    if ctx.quadratic_character(t) != -1:
        raise NotNonsquareError(f"t={t} is not a nonsquare in F_{ctx.q}")
    chars = ctx.character_vector()
    t_minus = ctx.add_arrays(t, ctx.neg_vector())  # t - i for every i
    brute = int(np.count_nonzero((chars == 1) & (chars[t_minus] == -1)))
    sign = (-1) ** ((ctx.q - 1) // 2)
    return CharCountReport(t=t, brute_count=brute, formula_value=(ctx.q + sign - 2) // 4)


def _coset_reps(ctx: FieldCtx, t: int) -> tuple[int, ...]:
    """The smallest code of each coset x + F_p*t, ascending.

    Adding k*t runs the top nonzero digit of t through F_p and leaves the
    digits above it alone, so each coset has exactly one code with that
    digit 0, and it is the smallest.
    """
    top = int(np.flatnonzero(ctx.digits_matrix()[t])[-1])
    return tuple(np.flatnonzero(ctx.digits_matrix()[:, top] == 0).tolist())


def make_plan(ctx: FieldCtx, a: int | None = None, t: int | None = None) -> ColoringPlan:
    """The smallest slope a with a**2 + 1 a nonsquare, then the smallest
    nonzero shift t with a**2 + 1 - t**2 a nonsquare; an override is checked
    instead of searched for, the slope before any shift.

    Every odd q has (q - eta(-1)) / 2 slopes, eta the quadratic character,
    since the sum of eta(a**2 + 1) over F_q is -1. A nonsquare c = a**2 + 1
    has (q + eta(-1)) / 2 - 1 shifts, at least one for q >= 5 and none for
    q = 3, where the construction is unavailable.
    """
    if a is None:
        a = int(np.flatnonzero(_slope_chars(ctx) == -1)[0])
    else:
        _require_slope(ctx, a)
    if ctx.q <= 3:
        raise ConstructionUnavailableError(
            f"no shift exists for q={ctx.q}; the construction needs q > 3"
        )
    if t is None:
        t = int(np.flatnonzero(_shift_chars(ctx, a)[1:] == -1)[0]) + 1
    else:
        _require_shift(ctx, a, t)
    return ColoringPlan(a=a, t=t)


def validate_plan(ctx: FieldCtx, plan: ColoringPlan) -> None:
    """Check the slope and shift certificates of a plan built elsewhere."""
    _require_slope(ctx, plan.a)
    _require_shift(ctx, plan.a, plan.t)


def _coset_lines(ctx: FieldCtx, plan: ColoringPlan) -> np.ndarray:
    """Row r lists the intercepts rep_r + k*t for k in F_p, one row per coset
    of F_p*t. The codes below p are the prime field, so mul_vector(t)[:p]
    lists the k*t."""
    reps = np.array(_coset_reps(ctx, plan.t), dtype=np.int64)
    return ctx.add_arrays(reps[:, None], ctx.mul_vector(plan.t)[: ctx.p])


def expected_color_count(ctx: FieldCtx, m: int = 2) -> int:
    """q**(m-2) * (p**n + p**(n-1)) / 2, the construction's color count."""
    return ctx.q ** (m - 2) * (ctx.p**ctx.n + ctx.p ** (ctx.n - 1)) // 2


def build_coloring_md(ctx: FieldCtx, m: int, plan: ColoringPlan) -> Coloring:
    """Color F_q^m: the plane of the last two coordinates by fused line pairs
    along each coset of the plan, and each value of the leading coordinates,
    as one index, picks its own block of the plane's colors (one block at
    m = 2)."""
    vertex_count(ctx.q, m, what="colorings")
    validate_plan(ctx, plan)
    p, q = ctx.p, ctx.q
    # Line rep + k*t of a coset shares color k // 2 with its pair partner;
    # k = p - 1 is left alone. Colors count up coset by coset.
    lines = _coset_lines(ctx, plan)
    per_coset = (p + 1) // 2
    line_colors = np.empty(q, dtype=np.int64)
    line_colors[lines] = np.arange(len(lines))[:, None] * per_coset + np.arange(p) // 2
    # (x, y) lies on the line with intercept y - a*x.
    intercepts = ctx.add_arrays(ctx.mul_vector(ctx.neg_vector()[plan.a])[:, None], np.arange(q))
    k = len(lines) * per_coset  # colors in one block
    colors = (np.arange(q ** (m - 2))[:, None] * k + line_colors[intercepts].ravel()).ravel()
    return Coloring(q=q, m=m, colors=colors, k=q ** (m - 2) * k)


def verify_coloring(graph: UnitQuadranceGraph, coloring: Coloring):
    """Return None when proper, else the first conflicting edge (u, v) in
    lexicographic order.

    Reads the unit circle S, never the neighbor rows. The colors form a
    grid over F_q^m, and u clashes with u + s exactly where the grid equals
    itself translated by s: one take per coordinate along the sums a + x for
    s's coordinate a, the takes for a prefix shared with the previous point
    reused. The sums are formed only for the values a that the shifts and
    their negatives take, so a sparse S needs no q x q table. One point of
    each pair {s, -s} covers every edge. The smallest
    vertex on a clashing edge is the smaller end of that edge, so it is the
    first u, and its smallest clashing neighbor is the first v.
    """
    n = graph.n_vertices
    if (coloring.q, coloring.m, len(coloring.colors)) != (graph.q, graph.m, n):
        raise IncompleteColoringError(
            f"coloring for q={coloring.q}, m={coloring.m},"
            f" {len(coloring.colors)} vertices does not cover this graph"
        )
    colors = coloring.colors
    if np.any(colors < 0):
        raise IncompleteColoringError("some vertices are uncolored")
    ctx, q, m = graph.ctx, graph.q, graph.m
    neg, coords = ctx.neg_vector(), index_coords(q, m, graph.connection_set)
    # the s with s < -s, one of each pair, and the leading coordinates each
    # shares with the one before it
    shifts = coords[graph.connection_set < neg[coords] @ place_values(q, m)]
    shared = np.cumprod(shifts[1:] == shifts[:-1], axis=1).sum(axis=1)
    taken = np.zeros(q, dtype=bool)
    taken[shifts] = taken[neg[shifts]] = True
    sums = ctx.add_arrays(np.flatnonzero(taken)[:, None], np.arange(q))  # a + x for taken a
    row = np.cumsum(taken) - 1  # row[a]: the row of sums for a
    grid = colors.reshape((q,) * m)
    moved = [grid]  # moved[j]: the grid translated by the first j coordinates of s
    first = n  # smallest vertex on a clashing edge so far
    for s, keep in zip(shifts, np.concatenate(([0], shared))):
        del moved[keep + 1 :]
        for j in range(keep, m):
            moved.append(moved[j].take(sums[row[s[j]]], axis=j))
        clash = moved[m] == grid  # u clashes with u + s
        if clash.any():
            back = clash  # back[u + s] = clash[u]
            for j in range(m):
                back = back.take(sums[row[neg[s[j]]]], axis=j)
            first = min(first, int(clash.argmax()), int(back.argmax()))
            if first == 0:  # no vertex is smaller
                break
    if first == n:
        return None
    ends = circle_translates(graph, first)
    return (first, int(ends[colors[ends] == colors[first]].min()))


# ---------------------------------------------------------------------------
# Coloring file format: "# q=<q> m=<m> k=<k>" header, then "index color"
# lines, both 0-based, UTF-8.

_HEADER_RE = re.compile(r"#\s*q=(\d+)\s+m=(\d+)\s+k=(\d+)\s*$")
_CANONICAL_HEADER_RE = re.compile(rb"# q=(\d+) m=(\d+) k=(\d+)\n")


def write_coloring(coloring: Coloring, sink) -> None:
    """Write a coloring in the text format as ASCII bytes; sink is a path or a
    binary or text stream. An uncolored (negative) vertex raises IncompleteColoringError."""
    colors = coloring.colors
    if np.any(colors < 0):
        raise IncompleteColoringError("some vertices are uncolored")
    index_names, top = decimal_names(0, len(colors)), int(colors.max(initial=0)) + 1
    # a table of color names, unless it would hold more names than there are vertices
    color_names = (decimal_names(0, top)[colors] if top <= len(colors)
                   else colors.astype(f"S{len(str(top - 1))}"))
    fields = [("i", index_names.dtype), ("sp", "S1"), ("c", color_names.dtype), ("nl", "S1")]
    lines = np.empty(len(colors), dtype=fields)
    lines["i"], lines["sp"], lines["c"], lines["nl"] = index_names, b" ", color_names, b"\n"
    data = f"# q={coloring.q} m={coloring.m} k={coloring.k}\n".encode("ascii")
    data += lines.tobytes().translate(None, b"\0")  # deletes the padding
    if isinstance(sink, (str, Path)):
        Path(sink).write_bytes(data)
    else:
        write_ascii(sink, data)


def read_coloring(source) -> Coloring:
    """Read a UTF-8 coloring file from a path or a binary or text stream; raises
    IncompleteColoringError when vertices are missing and ValueError on malformed
    content. A file as write_coloring writes it is parsed in bulk, others line by line."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return (text.isascii() and _read_canonical(text.encode("ascii"))) or _read_lines(text)


def _header_vertices(q: int, m: int, k: int) -> int:
    """q**m for a coloring header, checked before anything is sized by it; a
    header with more colors k than vertices is refused."""
    decomposition = prime_power(q) if q <= DEFAULT_MAX_VERTICES else None
    try:
        n = vertex_count(q, m) if decomposition and decomposition[0] != 2 else None
    except (DimensionTooSmallError, TooLargeError):
        n = None
    if n is None:
        raise ValueError(f"coloring header q={q} m={m} needs an odd prime power q,"
                         f" m >= 2 and q**m <= {DEFAULT_MAX_VERTICES}")
    if k > n:
        raise ValueError(f"coloring header k={k} exceeds the {n} vertices of q={q} m={m}")
    return n


def _read_canonical(data: bytes) -> Coloring | None:
    """A file exactly as write_coloring writes it, parsed in bulk: the header, then n lines
    "digits SP digits LF" of at most 18 digits a token (each fits an int64), the indices a
    permutation of 0..n-1 and every color below k. None for any other file."""
    header = _CANONICAL_HEADER_RE.match(data)
    if header is None:
        return None
    q, m, k = (int(g) for g in header.groups())
    n = _header_vertices(q, m, k)
    body = np.frombuffer(data, dtype=np.uint8, offset=header.end())
    ends = np.flatnonzero(body - ord("0") >= 10)  # every byte but the digits
    gaps = np.diff(ends, prepend=-1)  # token lengths plus one
    if (len(ends) != 2 * n or not data.endswith(b"\n") or not 2 <= gaps.min() <= gaps.max() <= 19
            or not (body[ends].reshape(n, 2) == (ord(" "), ord("\n"))).all()):
        return None
    index, color = np.fromstring(data[header.end() :], dtype=np.int64, sep=" ").reshape(n, 2).T
    if index.max() >= n or color.max() >= k:
        return None
    colors = np.full(n, -1, dtype=np.int64)
    colors[index] = color
    # n indices below n leave a vertex uncolored exactly when one repeats
    return Coloring(q=q, m=m, colors=colors, k=k) if colors.min() >= 0 else None


def _read_lines(text: str) -> Coloring:
    """Read a coloring file's text line by line; errors name the first offending line."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty coloring file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(f"bad coloring header: {lines[0]!r}")
    q, m, k = (int(g) for g in header.groups())
    n = _header_vertices(q, m, k)
    colors = [-1] * n
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad coloring line: {line!r}")
        idx, color = int(parts[0]), int(parts[1])
        if not 0 <= idx < n:
            raise ValueError(f"vertex index {idx} outside [0, {n})")
        if not 0 <= color < k:
            raise ValueError(f"color {color} outside [0, {k})")
        if colors[idx] >= 0:
            raise ValueError(f"vertex index {idx} is colored twice")
        colors[idx] = color
    if -1 in colors:
        raise IncompleteColoringError(f"vertex {colors.index(-1)} has no color")
    return Coloring(q=q, m=m, colors=np.array(colors, dtype=np.int64), k=k)
