"""Unit-quadrance graphs on F_q^m.

Vertices are the points of F_q^m indexed row-major over canonical
element codes, last coordinate fastest; two points are adjacent exactly
when their quadrance (the sum of squared coordinate differences) is 1.
Adjacency is a Cayley structure on the additive group: u ~ v exactly when
v - u lies on the unit circle S, which is one ascending array of vertex
indices. A graph is S and nothing else; its (N, |S|) int32 array of sorted
neighbor rows u + S is a cache, grown one coordinate at a time from digit
sums of the field codes the first time `adjacency` is read. DIMACS export,
the chromatic search and the dense spectrum read the rows (the CLI's
build, chi, report and dense spectrum); the triangle count and the
coloring check (construction.verify_coloring) read only S, so color,
verify and triangles never build them. Every edge lies on the same number
lambda = |S & (s0 + S)| of triangles, so T = N * |S| * lambda / 6.
DIMACS export writes the edges as ASCII bytes in blocks of fixed-width
records, so its memory stays flat.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    IOFailureError,
    TooLargeError,
)
from .field import FieldCtx, is_prime

DEFAULT_MAX_VERTICES = 1 << 16


def vertex_coords(q: int, m: int, index: int) -> tuple[int, ...]:
    """Coordinates of a row-major vertex index, last coordinate fastest."""
    out = []
    for _ in range(m):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(reversed(out))


def quadrance(ctx: FieldCtx, x: Sequence[int], y: Sequence[int]) -> int:
    """Sum of squared coordinate differences, as an element code.

    x and y are coordinate sequences of equal dimension >= 2.
    """
    cx, cy = tuple(x), tuple(y)
    if len(cx) != len(cy):
        raise DimensionMismatchError(
            f"points of dimension {len(cx)} and {len(cy)} cannot be compared"
        )
    if len(cx) < 2:
        raise DimensionTooSmallError("quadrance needs dimension >= 2")
    acc = 0
    for a, b in zip(cx, cy):
        d = ctx.sub(a, b)
        acc = ctx.add(acc, ctx.mul(d, d))
    return acc


def vertex_count(q: int, m: int, what: str = "unit-quadrance graphs") -> int:
    """q**m for a dimension m >= 2, checked against DEFAULT_MAX_VERTICES.

    With q >= 2 an m of DEFAULT_MAX_VERTICES.bit_length() or more is over
    the bound already, so a huge m is rejected before q**m is formed.
    """
    if m < 2:
        raise DimensionTooSmallError(f"{what} need dimension >= 2")
    if m >= DEFAULT_MAX_VERTICES.bit_length():
        raise TooLargeError(f"{q}**{m} vertices exceed the bound {DEFAULT_MAX_VERTICES}")
    n_vertices = q**m
    if n_vertices > DEFAULT_MAX_VERTICES:
        raise TooLargeError(f"{n_vertices} vertices exceed the bound {DEFAULT_MAX_VERTICES}")
    return n_vertices


def unit_circle(ctx: FieldCtx, m: int = 2) -> np.ndarray:
    """Ascending vertex indices of the points at quadrance 1 from the origin."""
    vertex_count(ctx.q, m)
    squares = ctx.square_vector()
    acc = np.zeros(1, dtype=np.int64)
    for _ in range(m):  # quadrances of every point, one more coordinate each pass
        acc = ctx.add_arrays(acc[:, None], squares).ravel()
    return np.flatnonzero(acc == 1)


def coordinate_sums(ctx: FieldCtx) -> np.ndarray:
    """(q, q) codes a + x, row a: a take along row a translates one coordinate by a."""
    codes = np.arange(ctx.q)
    return ctx.add_arrays(codes[:, None], codes)


def circle_coords(graph: UnitQuadranceGraph) -> np.ndarray:
    """(|S|, m) coordinates of the unit circle, the base-q digits of its indices."""
    return graph.connection_set[:, None] // graph.q ** np.arange(graph.m - 1, -1, -1) % graph.q


def circle_translates(graph: UnitQuadranceGraph, u: int) -> np.ndarray:
    """u + s for every s in the unit circle, in circle order: the neighbors of u."""
    q, m = graph.q, graph.m
    coords = graph.ctx.add_arrays(np.array(vertex_coords(q, m, u)), circle_coords(graph))
    return coords @ q ** np.arange(m - 1, -1, -1)


class UnitQuadranceGraph:
    """Cay(F_q^m, S) for a connection set S of vertex indices, in any order
    (for D_q^m, the unit circle); the neighbor rows are built from S on first use.

    The rows, chi, verify_coloring and dense_spectrum accept any symmetric
    connection set at any m >= 1 (chi takes its construction witness at
    m >= 2 only when it is proper on that set, and dense_spectrum at
    m >= 2 refuses a set that the signed coordinate permutations do not
    keep); triangle_count assumes the unit circle.
    """

    def __init__(self, ctx, m, connection_set):
        self.ctx = ctx
        self.m = m
        self.connection_set = connection_set
        self._adjacency = None

    @property
    def adjacency(self) -> np.ndarray:
        """(N, degree) int32 rows u + S, each sorted, C-contiguous.

        Rows grow one coordinate at a time: the rows over the first j
        coordinates, times q, plus coordinate j of every u + s (column[a, k]
        = a + s_k[j]) give the rows over the first j + 1. Every intermediate
        is int32, which holds every index below the vertex bound
        and halves the array and its sort.
        """
        if self._adjacency is None:
            sums = coordinate_sums(self.ctx)
            rows = np.zeros((1, self.degree), dtype=np.int32)
            for c in circle_coords(self).T:
                column = sums[:, c].astype(np.int32, order="C")
                rows = (rows[:, None, :] * self.q + column).reshape(-1, self.degree)
            rows.sort(axis=1)
            self._adjacency = rows
        return self._adjacency

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n_vertices(self) -> int:
        return self.q**self.m

    @property
    def degree(self) -> int:
        return len(self.connection_set)

    @property
    def n_edges(self) -> int:
        return self.n_vertices * self.degree // 2

    def neighbors_of(self, u: int) -> np.ndarray:
        return self.adjacency[u]

    def __repr__(self) -> str:
        return (
            f"UnitQuadranceGraph(q={self.q}, m={self.m},"
            f" vertices={self.n_vertices}, degree={self.degree})"
        )


def build_graph(ctx: FieldCtx, m: int = 2) -> UnitQuadranceGraph:
    """D_q^m from its unit circle; the neighbor rows wait for their first reader."""
    return UnitQuadranceGraph(ctx, m, unit_circle(ctx, m))


def triangle_count(graph: UnitQuadranceGraph) -> int:
    """Exact number of triangles, from the unit circle S alone.

    S is the unit circle, so translations and the orthogonal group of the
    quadrance act transitively on the arcs (Witt's theorem makes O(Q)
    transitive on S): every edge has the common neighbors of 0 and s0 =
    S[0], lambda = |S & (s0 + S)| of them. There are N * |S| / 2 edges and
    a triangle has three, so T = N * |S| * lambda / 6.
    """
    circle = graph.connection_set
    on_circle = np.zeros(graph.n_vertices, dtype=bool)
    on_circle[circle] = True
    common = int(np.count_nonzero(on_circle[circle_translates(graph, int(circle[0]))]))
    return graph.n_vertices * len(circle) * common // 6


def triangle_free_predicted(q: int) -> bool | None:
    """True when q is a prime with q mod 12 in {5, 7}, which forces
    triangle-freeness; None when the criterion is silent (prime powers
    with n > 1, other residues)."""
    if is_prime(q) and q % 12 in (5, 7):
        return True
    return None


def decimal_names(start: int, stop: int) -> np.ndarray:
    """The decimal names of start..stop-1, NUL-padded to the digit count of stop - 1."""
    width = len(str(max(stop - 1, 0)))
    digits = np.zeros((max(stop - start, 0), width), dtype=np.uint8)
    for d in range(1, width + 1):  # the values with d digits: one run, between powers of ten
        lo, hi = max(start, 10 ** (d - 1) if d > 1 else 0), min(stop, 10**d)
        if lo < hi:
            run = np.arange(lo, hi)[:, None] // 10 ** np.arange(d - 1, -1, -1)
            digits[lo - start : hi - start, :d] = run % 10 + ord("0")
    return digits.view(f"S{width}").ravel()


def write_ascii(sink, data: bytes) -> None:
    """Write ASCII bytes to a binary stream, or as text to a text stream."""
    try:
        sink.write(data)
    except TypeError:  # a text stream refuses bytes before writing any
        sink.write(data.decode("ascii"))


def export_dimacs(graph: UnitQuadranceGraph, sink) -> None:
    """Write the graph in DIMACS coloring format.

    Header comments record q, p, n, m and the field modulus; edges are
    1-based, u < v, in lexicographic order. The sink may be a binary or a
    text stream. Edges are written in blocks of at most 2**18 fixed-width
    'e U V' records (a block holds 2**18 // |S| rows, and a low vertex
    leads on nearly all of its edges), gathered from one table of vertex
    names into one record buffer and stripped of their NUL padding.
    """
    ctx = graph.ctx
    header = (
        "c unit-quadrance graph\n"
        f"c q={ctx.q} p={ctx.p} n={ctx.n} m={graph.m}\n"
        f"c modulus={','.join(str(c) for c in ctx.modulus)}\n"
        f"p edge {graph.n_vertices} {graph.n_edges}\n"
    )
    names = decimal_names(1, graph.n_vertices + 1)
    record = np.dtype(
        [("e", "S2"), ("u", names.dtype), ("sp", "S1"), ("v", names.dtype), ("nl", "S1")]
    )
    step = max(1, (1 << 18) // graph.degree)  # rows per block
    edges = np.empty(min(step * graph.degree, graph.n_edges), dtype=record)
    edges["e"], edges["sp"], edges["nl"] = b"e ", b" ", b"\n"  # each block fills a prefix
    try:
        write_ascii(sink, header.encode("ascii"))
        for start in range(0, graph.n_vertices, step):
            rows = graph.adjacency[start : start + step]
            later = rows > np.arange(start, start + len(rows))[:, None]
            block = edges[: np.count_nonzero(later)]
            block["u"] = np.repeat(names[start : start + len(rows)], later.sum(axis=1))
            block["v"] = names[rows[later]]
            write_ascii(sink, block.tobytes().translate(None, b"\0"))  # deletes the padding
    except (OSError, ValueError, AttributeError) as exc:
        raise IOFailureError(f"could not write DIMACS output: {exc}") from exc


def degree_formula(q: int) -> int:
    """q - (-1)**((q-1)/2), the regular degree of the plane graph D_q."""
    return q - (-1) ** ((q - 1) // 2)
