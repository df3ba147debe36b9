"""Unit-quadrance graphs on F_q^m.

Vertices are the points of F_q^m indexed row-major over canonical
element codes, last coordinate fastest, a layout that only place_values
and index_coords spell out; two points are adjacent exactly when their
quadrance (the sum of squared coordinate differences) is 1. The graph is
a Cayley graph on the additive group: u ~ v exactly when v - u lies on
the unit circle S, one ascending array of vertex indices. S is found in
O(|S| + q**(m-1)), not from the q**m grid: each prefix of the first m - 1
coordinates, with quadrance a, ends on S at the square roots of 1 - a. A
graph is S and nothing else, and its constructor refuses an S that is
empty, leaves the vertices, is not closed under negation (the field's
neg_vector on each coordinate), holds 0 or repeats an index, and an m
with q**m past the int64 indices. The neighbors of u are its translates
u + S (circle_translates, for one vertex or a block), which the triangle
count, the coloring check and the dense spectrum read; chi translates
S's bitmask instead, and DIMACS export builds the rows a block at a
time, never an (N, |S|) array. Every edge lies on the same number
lambda = |S & (s0 + S)| of triangles, so T = N * |S| * lambda / 6.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionTooSmallError,
    InvalidConnectionSetError,
    IOFailureError,
    TooLargeError,
)
from .field import FieldCtx, is_prime

DEFAULT_MAX_VERTICES = 1 << 16


def place_values(q: int, m: int) -> np.ndarray:
    """q**(m-1), ..., q, 1: the weight of each coordinate in a row-major vertex index."""
    return q ** np.arange(m - 1, -1, -1, dtype=np.int64)


def index_coords(q: int, m: int, indices) -> np.ndarray:
    """Coordinates of row-major vertex indices of any shape, on one more axis of length m."""
    return np.asarray(indices)[..., None] // place_values(q, m) % q


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
    """Ascending vertex indices of the points at quadrance 1 from the origin.

    Only the q**(m-1) prefixes (every coordinate but the last) get a
    quadrance a, summed one coordinate at a time; a prefix then ends on the
    circle at each root y of y**2 = 1 - a. The roots are grouped once by
    key[y] = 1 - y**2, ascending within each group, so the points come out
    prefix-major with ascending roots: already in index order.
    """
    vertex_count(ctx.q, m)
    q, squares = ctx.q, ctx.square_vector()
    acc = squares
    for _ in range(m - 2):
        acc = ctx.add_arrays(acc[:, None], squares).ravel()
    key = ctx.add_arrays(1, ctx.neg_vector()[squares])  # 1 - y**2
    roots, counts = np.argsort(key, kind="stable"), np.bincount(key, minlength=q)
    hits = counts[acc]  # the roots y with key[y] = a end each prefix
    # hit k of a prefix is roots[where key a starts + k]; shift takes off where its hits start
    shift = (np.cumsum(counts) - counts)[acc] - (np.cumsum(hits) - hits)
    prefixes = np.repeat(np.arange(len(acc)), hits)
    return prefixes * q + roots[np.repeat(shift, hits) + np.arange(len(prefixes))]


def circle_translates(graph: UnitQuadranceGraph, vertices) -> np.ndarray:
    """u + s for each vertex u and every s in the unit circle, in circle order:
    the neighbors of u. vertices is one index, giving shape (|S|,), or an
    array of them, giving one more axis of length |S|. Per coordinate, the
    field sums a + s_j are formed once for each value a that the vertices
    take there, times the coordinate's place value, then gathered and added."""
    q, m = graph.q, graph.m
    coords, places = index_coords(q, m, vertices), place_values(q, m)
    translates = 0
    for j, column in enumerate(index_coords(q, m, graph.connection_set).T):
        taken = np.zeros(q, dtype=bool)
        taken[coords[..., j]] = True
        sums = graph.ctx.add_arrays(np.flatnonzero(taken)[:, None], column) * places[j]
        translates += sums[np.cumsum(taken)[coords[..., j]] - 1]  # in place after the first
    return translates


class UnitQuadranceGraph:
    """Cay(F_q^m, S) for a connection set S of vertex indices, in any order
    (for D_q^m, the unit circle); the graph is S, and the neighbors of a
    vertex are its translates u + S.

    S must be a nonempty array of distinct nonzero indices in [0, q**m)
    with -S = S, or InvalidConnectionSetError is raised before any reader
    runs: 0 would put a loop at every vertex, and a repeated index would
    count its edges twice. -S is the field's neg_vector on each coordinate.
    q**m above 2**63 raises TooLargeError first: indices are int64.
    DIMACS export, chi and verify_coloring accept any such set at any
    m >= 1; chi builds its construction witness at m >= 2 only when its
    closed-form count beats greedy, and takes it only when proper on that set.
    dense_spectrum raises DimensionTooSmallError at m = 1 and refuses a set
    that the signed coordinate permutations do not keep; triangle_count
    assumes the unit circle.
    """

    def __init__(self, ctx, m, connection_set):
        self.ctx = ctx
        self.m = m
        self.connection_set = connection_set
        n, q = self.n_vertices, self.q
        if n > 1 << 63:
            raise TooLargeError(f"{q}**{m} vertices exceed int64 indices")
        if not len(connection_set):
            raise InvalidConnectionSetError("the connection set is empty")
        outside = connection_set[(connection_set < 0) | (connection_set >= n)]
        if len(outside):
            raise InvalidConnectionSetError(
                f"connection set index {outside[0]} is outside the vertices [0, {n})"
            )
        negated = ctx.neg_vector()[index_coords(q, m, connection_set)] @ place_values(q, m)
        ordered = np.sort(connection_set)  # S in any order
        if not np.array_equal(np.sort(negated), ordered):
            raise InvalidConnectionSetError("the connection set is not closed under negation")
        if ordered[0] == 0:
            raise InvalidConnectionSetError("the connection set holds 0, a loop at every vertex")
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise InvalidConnectionSetError(f"connection set index {repeated[0]} is repeated")

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

    def __repr__(self) -> str:
        return (
            f"UnitQuadranceGraph(q={self.q}, m={self.m},"
            f" vertices={self.n_vertices}, degree={self.degree})"
        )


def build_graph(ctx: FieldCtx, m: int = 2) -> UnitQuadranceGraph:
    """D_q^m from its unit circle."""
    return UnitQuadranceGraph(ctx, m, unit_circle(ctx, m))


def triangle_count(graph: UnitQuadranceGraph) -> int:
    """Exact number of triangles, from the unit circle S alone.

    S is the unit circle, so translations and the orthogonal group of the
    quadrance act transitively on the arcs (Witt's theorem makes O(Q)
    transitive on S): every edge has the common neighbors of 0 and s0 =
    S[0], lambda = |S & (s0 + S)| of them, two sets of distinct indices.
    N * |S| / 2 edges, three to a triangle, give T = N * |S| * lambda / 6.
    """
    circle = graph.connection_set
    common = len(np.intersect1d(circle, circle_translates(graph, circle[0]), assume_unique=True))
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
            digits[lo - start : hi - start, :d] = index_coords(10, d, np.arange(lo, hi)) + ord("0")
    return digits.view(f"S{width}").ravel()


def write_ascii(sink, data: bytes) -> None:
    """Write ASCII bytes to a binary stream, or as text to a text stream."""
    try:
        sink.write(data)
    except TypeError:  # a text stream refuses bytes before writing any
        sink.write(data.decode("ascii"))


def dimacs_words(n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian uint64 words head[u] = 'e U ' and tail[v] = 'V\\n' for
    the 1-based names U = u + 1 and V = v + 1, NUL-padded to 8 bytes.

    The vertex bound keeps a name to five digits, and b"e 65536 " is 8 bytes.
    """
    names = decimal_names(1, n_vertices + 1)
    width = names.dtype.itemsize
    digits = names.view(np.uint8).reshape(-1, width)
    head = np.zeros((len(names), 8), dtype=np.uint8)
    head[:, :2] = np.frombuffer(b"e ", dtype=np.uint8)
    head[:, 2 : 2 + width] = digits
    head[:, 2 + width] = ord(" ")
    tail = np.zeros((len(names), 8), dtype=np.uint8)
    tail[:, :width] = digits
    tail[:, width] = ord("\n")
    return head.view("<u8").ravel(), tail.view("<u8").ravel()


def export_dimacs(graph: UnitQuadranceGraph, sink) -> None:
    """Write the graph in DIMACS coloring format.

    Header comments record q, p, n, m and the field modulus; edges are
    1-based, u < v, in lexicographic order. The sink may be a binary or a
    text stream. A graph above DEFAULT_MAX_VERTICES raises TooLargeError
    before any row is built.

    A block is q**j consecutive vertices, for the largest j >= 1 with
    q**j * |S| <= 2**17. Its sorted int32 rows u + S are the rows over the
    last j coordinates, grown once one coordinate at a time, plus the
    block's vector over S: the field sums of its leading m - j coordinates
    with those of S, times their place values. When q * |S| exceeds 2**17
    (then j = 1), a block's rows are built 2**17 // |S| at a time. So no
    array of N * |S| or (N / q) * |S| entries is built. Each edge is a
    head word of u and a tail word of v from dimacs_words, and each write
    of at most 2**17 edges is stripped of its NUL padding.
    """
    if graph.n_vertices > DEFAULT_MAX_VERTICES:
        raise TooLargeError(f"{graph.n_vertices} vertices exceed the bound {DEFAULT_MAX_VERTICES}")
    ctx, q, m, degree = graph.ctx, graph.q, graph.m, graph.degree
    header = (
        "c unit-quadrance graph\n"
        f"c q={ctx.q} p={ctx.p} n={ctx.n} m={graph.m}\n"
        f"c modulus={','.join(str(c) for c in ctx.modulus)}\n"
        f"p edge {graph.n_vertices} {graph.n_edges}\n"
    )
    head, tail = dimacs_words(graph.n_vertices)
    j = 1
    while j < m and q ** (j + 1) * degree <= 1 << 17:
        j += 1
    width = q**j  # vertices per block
    step = min(width, (1 << 17) // degree)  # rows per write, below width only at j = 1
    coords = index_coords(q, m, graph.connection_set).T
    leading, trailing, places = coords[: m - j], coords[m - j :], place_values(q, m)[: m - j, None]
    blocks = index_coords(q, m - j, np.arange(graph.n_vertices // width))  # leading coordinates

    def trailing_rows(first: np.ndarray) -> np.ndarray:
        """Rows over the last j coordinates, the first of them taking the
        values first: the rows so far times q, plus the next coordinate's sums."""
        rows = np.zeros((1, degree), dtype=np.int32)
        for values, c in zip([first] + [np.arange(q)] * (j - 1), trailing):
            rows = rows[:, None, :] * q + ctx.add_arrays(values[:, None], c).astype(np.int32)
            rows = rows.reshape(-1, degree)
        return rows

    whole = trailing_rows(np.arange(q)) if step == width else None
    edges = np.empty((min(step * degree, graph.n_edges), 2), dtype="<u8")
    try:
        write_ascii(sink, header.encode("ascii"))
        for block, prefix in zip(range(0, graph.n_vertices, width), blocks):
            lead = (ctx.add_arrays(prefix[:, None], leading) * places).sum(axis=0).astype(np.int32)
            for start in range(block, block + width, step):
                stop = min(start + step, block + width)
                rows = whole if whole is not None else trailing_rows(np.arange(start, stop) - block)
                rows = rows + lead
                rows.sort(axis=1)
                later = rows > np.arange(start, stop, dtype=np.int32)[:, None]
                counts = np.count_nonzero(later, axis=1)
                lines = edges[: counts.sum()]
                lines[:, 0] = np.repeat(head[start:stop], counts)
                lines[:, 1] = tail[rows[later]]
                write_ascii(sink, lines.tobytes().translate(None, b"\0"))  # deletes the padding
    except (OSError, ValueError, AttributeError) as exc:
        raise IOFailureError(f"could not write DIMACS output: {exc}") from exc


def degree_formula(q: int) -> int:
    """q - (-1)**((q-1)/2), the regular degree of the plane graph D_q."""
    return q - (-1) ** ((q - 1) // 2)
