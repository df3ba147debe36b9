"""Shared helpers: cached graph construction, prime-power enumeration, a
one-second alarm, the traced peak of a refused call, the per-vertex
coloring file writer, and the scalar coefficient, element, vertex-index,
neighbor-row and line-lemma oracles."""

import signal
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from uqgraph import TooLargeError, build_graph, make_field, prime_power


def odd_prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(lo, hi + 1):
        decomposition = prime_power(q)
        if decomposition and decomposition[0] != 2:
            out.append(q)
    return out


def scalar_coeffs(ctx, code: int) -> tuple[int, ...]:
    """Little-endian coefficient vector of an element code, digit by digit
    with divmod: the scalar loop ctx.digits_matrix() replaced, kept as an
    oracle."""
    if not 0 <= code < ctx.q:
        raise ValueError(f"element code {code} outside [0, {ctx.q})")
    out = []
    for _ in range(ctx.n):
        code, r = divmod(code, ctx.p)
        out.append(r)
    return tuple(out)


def element(ctx, coeffs) -> int:
    """Canonical code of the element with the given little-endian
    coefficient vector, by Horner: the inverse of a row of
    ctx.digits_matrix() and of scalar_coeffs, kept as an oracle."""
    coeffs = tuple(coeffs)
    if len(coeffs) != ctx.n:
        raise ValueError(f"expected {ctx.n} coefficients, got {len(coeffs)}")
    if any(not 0 <= c < ctx.p for c in coeffs):
        raise ValueError(f"coefficients must lie in [0, {ctx.p})")
    code = 0
    for c in reversed(coeffs):
        code = code * ctx.p + c
    return code


def vertex_index(q: int, coords) -> int:
    """Row-major index of a coordinate vector, last coordinate fastest: the
    inverse of np.unravel_index over the shape (q,) * m, kept as an oracle."""
    idx = 0
    for c in coords:
        idx = idx * q + c
    return idx


def digit_columns(q: int, m: int, n_vertices: int):
    """The m coordinate columns of the vertices 0..n_vertices-1, each by
    its own place value."""
    idx = np.arange(n_vertices, dtype=np.int64)
    return [(idx // q ** (m - 1 - j)) % q for j in range(m)]


def adjacency_by_columns(graph):
    """Oracle: the (N, |S|) int64 neighbor rows u + S, each sorted, one
    column per point s of the connection set from the scalar digits of s
    and the field's addition table."""
    ctx, m, q = graph.ctx, graph.m, graph.q
    add_tab = ctx.add_table()
    cols = digit_columns(q, m, q**m)
    adjacency = np.empty((q**m, len(graph.connection_set)), dtype=np.int64)
    for k, s in enumerate(graph.connection_set):
        coords = np.unravel_index(int(s), (q,) * m)
        acc = add_tab[cols[0], coords[0]]
        for j in range(1, m):
            acc = acc * q + add_tab[cols[j], coords[j]]
        adjacency[:, k] = acc
    adjacency.sort(axis=1)
    return adjacency


def vectorized_no_unit_pair(ctx, a, t):
    """Oracle for the line lemmas: True when no point A on a line
    y = a*x + i and no point B on the line y = a*x + i + t are at quadrance
    1, over every line offset i and every pair of points, through the
    addition table. At t = 0 it checks pairs on one line, A = B included
    (quadrance 0)."""
    add_tab, squares = ctx.add_table(), ctx.square_vector()
    minus = ctx.mul_vector(ctx.neg(1))  # -x for every x
    on_line = ctx.mul_vector(a)
    dx2 = squares[add_tab[:, minus]]  # (x_A - x_B)**2 for every pair
    for i in range(ctx.q):
        ya = add_tab[on_line, i]
        yb = add_tab[on_line, ctx.add(i, t)]
        dy2 = squares[add_tab[ya[:, None], minus[yb][None, :]]]
        if np.any(add_tab[dx2, dy2] == 1):
            return False
    return True


@lru_cache(maxsize=None)
def field_for(q: int):
    p, n = prime_power(q)
    return make_field(p, n)


@lru_cache(maxsize=None)
def graph_for(q: int, m: int = 2):
    return build_graph(field_for(q), m)


class Expired(Exception):
    """Raised by the alarm; not an error type the code under test handles."""


def within_a_second(call, *args):
    """call(*args), failing with Expired if it runs past one second."""
    def expire(signum, frame):
        raise Expired(f"{call.__name__}{args} did not return within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def refused_peak(call, *args) -> int:
    """The tracemalloc peak of call(*args), which must raise TooLargeError."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coloring_text_by_lines(coloring) -> str:
    """The coloring file text, one f-string per vertex: the writer that the
    fixed-width records replaced, kept as an oracle."""
    return f"# q={coloring.q} m={coloring.m} k={coloring.k}\n" + "".join(
        [f"{i} {c}\n" for i, c in enumerate(coloring.colors.tolist())]
    )
