"""Spectra of unit-quadrance graphs, computed two independent ways.

The dense route checks that signed vertex permutations keep the
connection set, then splits the 0/1 adjacency matrix by them with _split:
first by the coordinate flips x_j -> -x_j, one block per sign pattern and
one solved per popcount, then each such block by a coordinate swap that
fixes its pattern and, for q = p**n with n even, the Galois involution
x -> x**(p**(n/2)) when that keeps the connection set. Each component is
summed from the translates r + S of orbit minima r, never from the
neighbor rows; the route uses no character or field trace. The Cayley
route is one FFT of the unit circle's indicator over (Z_p)^(nm), the
base-p digits of a vertex index (real because the circle is symmetric).
Agreement of the two multisets validates the graph build and the vertex
index layout, not the trace. The extreme eigenvalues feed the spectral
chromatic lower bound 1 - lambda1/lambda_min, and spectrum_record alone
turns a spectrum into the printed numbers, the largest non-principal
|eigenvalue| among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .errors import DegenerateSpectrumError, NoConvergenceError, TooLargeError
from .field import FieldCtx
from .graph import circle_translates, index_coords, place_values, unit_circle, vertex_count

DENSE_MAX_VERTICES = 4096
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset (descending) with its computation provenance."""

    eigenvalues: np.ndarray
    method: str  # "dense" | "cayley"

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def slack(self) -> float:
        """DEFAULT_TOL scaled by max(1, |lambda1|): values closer than this are equal."""
        return DEFAULT_TOL * max(1.0, abs(self.lambda1))


def _swap(m: int, j: int) -> np.ndarray:
    """The coordinate order of the swap that splits popcount block j. It
    exchanges two coordinates on which eps = 2**j - 1 agrees, so it fixes
    eps; at m = 2, j = 1 none does, and the order is unmoved."""
    order = np.arange(m)
    a, b = (1, 2) if j == 1 else (0, 1)
    if b < m:
        order[[a, b]] = b, a
    return order


def _split(size: int, generators, wanted=slice(None)) -> list[tuple[np.ndarray, ...]]:
    """The isotypic components of a symmetric block B under a group G.

    Each generator is a pair (perm, sign) of arrays over B's indices, the
    signed involution e_r -> sign[r] * e_perm[r]; they commute with each
    other and with B, and generate G. Element k of G is the product of the
    generators i with bit i of k set, and character c is (-1)**(bit i of c)
    on generator i, so chi_c(g_k) = (-1)**popcount(c & k): the rows of a
    Sylvester Hadamard matrix. A G-orbit O with minimum r0 lies in chi's
    component when chi(g) * s_g(r0) = 1 for every g fixing r0, s_g(r) being
    the sign g gives e_r. The component then has the orthonormal basis
    vectors v_O = (sum of c_y * e_y over y in O) / sqrt(|O|), with c_y =
    chi(g) * s_g(r0) for any g carrying r0 to y, and B is zero between
    components (Serre, Linear Representations of Finite Groups, 2.6-2.7).

    Returns one (rows, column, weight) per character in wanted (all by
    default): the orbit minima of the component, column[y] the orbit of y
    within them (-1 outside it), and weight[y] = c_y / sqrt(|O|) for y in O
    (0 outside it). Since B commutes with G, entry [i, column[y]] of the
    component sums B[rows[i], y] * weight[y] / weight[rows[i]] over y: only
    the rows of orbit minima are read, and a y of weight 0 adds 0 to any
    column. The orbits are grown one generator h at a time, with no |G|-row
    table: the orbit of y under the first i + 1 generators joins its orbit
    under the first i and that of h(y). Where the two are one and y is
    their minimum, the element carrying h(y) to y, times h, fixes y and
    joins its stabilizer; only minima are read.
    """
    at = np.arange(size)
    characters = np.ones((1, 1))
    for _ in generators:
        characters = np.block([[characters, characters], [characters, -characters]])
    characters = characters[wanted]
    # per y: orbit minimum, an element carrying y there and back, its sign, |orbit|
    minimum, to_min, sign, orbit = at, np.zeros(size, np.intp), np.ones(size), np.ones(size)
    kept = np.ones((len(characters), size), dtype=bool)
    for i, (perm, s) in enumerate(generators):
        joined = minimum[perm] == minimum  # at a minimum y, to_min[h(y)] h then fixes y
        kept &= ~joined | (characters[:, to_min[perm] | 1 << i] * s * sign[perm] == 1)
        lower = minimum[perm] < minimum
        to_min = np.where(lower, to_min[perm] | 1 << i, to_min)
        sign = np.where(lower, s * sign[perm], sign)
        minimum = np.minimum(minimum, minimum[perm])
        orbit = np.where(joined, orbit, 2 * orbit)
    components = []
    for value, alive in zip(characters, kept):
        row = (minimum == at) & alive
        column = np.where(row, np.cumsum(row) - 1, -1)[minimum]
        weight = np.where(column >= 0, value[to_min] * sign, 0.0) / np.sqrt(orbit)
        components.append((np.flatnonzero(row), column, weight))
    return components


def dense_spectrum(graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix A, up to four dense solves per popcount class.

    The signed coordinate permutations B_m keep quadrance and fix 0.
    Negating coordinate 0, swapping 0 and 1 and cycling all coordinates
    generate B_m; each is first checked to be an automorphism of the graph,
    or NoConvergenceError is raised. Each is an automorphism g of the group
    (F_q^m, +), and such a g is one of Cay(F_q^m, S) exactly when g(S) = S
    (Godsil and Royle, Algebraic Graph Theory, ch. 3), so the check maps
    the |S| points of S, not N rows.

    The first _split, by the m flips x_j -> -x_j of the N vertices, gives
    one block per character eps in {0,1}^m, whose orbit minima r (each
    coordinate c replaced by min(c, -c)) are nonzero wherever eps is 1. A
    coordinate permutation pi carries block eps onto block pi(eps), so
    blocks of equal popcount j are isospectral: only eps = 2**j - 1 is
    kept, and counted C(m, j) times. A second _split cuts that block by up
    to two commuting involutions that keep eps. One swaps two coordinates
    on which eps agrees: 0 and 1 for j = 0 and j >= 2, 1 and 2 for j = 1
    at m >= 3, none for j = 1 at m = 2. Swapping 1 and 2 is the cycle, then
    the swap of 0 and 1, then the cycle undone, so it is checked too. The
    other, for q = p**n with n even, is the Galois involution
    Phi(x) = x**(p**(n/2)) on every coordinate, an additive field
    automorphism fixing F_p, so Q(Phi x) = Phi(Q(x)). It is used only when
    it maps S onto itself, as it does the unit circle; otherwise the swap
    alone splits the block, with no error. A vertex map g keeping eps
    carries the basis vector of orbit minimum r to sign(weight1[g(r)])
    times that of column1[g(r)], in the block's (rows1, column1, weight1).
    An eigensolve costs O(size**3), so four components of about a quarter
    of the block cost about a sixteenth of it together.

    A component weighs y by W[y] = weight1[y] * weight2[column1[y]], and
    _split's entry formula with W sums it with one bincount over the
    translates r + S of its rows, from circle_translates: no other
    neighbor row is formed, and no block is formed whole. Its tracemalloc
    peak misses eigvalsh's copy of each component and its LAPACK
    workspace, which numpy allocates outside tracemalloc: at (49,2) at
    most one 300-wide solve.
    """
    n = graph.n_vertices
    if n > DENSE_MAX_VERTICES:  # before any translate is formed
        raise TooLargeError(f"{n} vertices exceed the dense bound {DENSE_MAX_VERTICES}")
    vertex_count(graph.q, graph.m, what="dense spectra")  # m >= 2: a swap needs two coordinates
    ctx, m = graph.ctx, graph.m
    neg, places = ctx.neg_vector(), place_values(ctx.q, m)
    circle, target = index_coords(ctx.q, m, graph.connection_set), np.sort(graph.connection_set)
    generators = [  # images of S; at m = 2 the cycle is the swap
        ("negating coordinate 0", np.column_stack((neg[circle[:, 0]], circle[:, 1:]))),
        ("swapping coordinates 0 and 1", circle[:, [1, 0, *range(2, m)]]),
        ("cycling the coordinates", np.roll(circle, 1, axis=1)),
    ][: 3 if m >= 3 else 2]
    for name, image in generators:  # sorted both sides: S need not be ascending
        if not np.array_equal(np.sort(image @ places), target):
            raise NoConvergenceError(f"{name} is not a graph automorphism")
    galois = ctx.power_vector(ctx.p ** (ctx.n // 2)) if ctx.n % 2 == 0 else None
    if galois is not None and not np.array_equal(np.sort(galois[circle] @ places), target):
        galois = None  # not an automorphism of this graph: the swaps alone split it
    index = np.arange(n)
    coords = index_coords(ctx.q, m, index)
    flips = [(index + (neg[c] - c) * place, np.ones(n)) for c, place in zip(coords.T, places)]
    parts = _split(n, flips, (1 << np.arange(m + 1)) - 1)  # eps = 2**j - 1 flips the first j
    translates = circle_translates(graph, parts[0][0])  # eps = 0 keeps every orbit minimum
    blocks = []
    for j, (rows1, column1, weight1) in enumerate(parts):
        order = _swap(m, j)
        images = [coords[rows1][:, order] @ places] if np.any(order != np.arange(m)) else []
        if galois is not None:
            images.append(galois[coords[rows1]] @ places)
        involutions = [(column1[image], np.sign(weight1[image])) for image in images]
        eig = []
        for rows2, column2, weight2 in _split(len(rows1), involutions):
            if not len(rows2):
                continue
            size, rows = len(rows2), rows1[rows2]
            weight = weight1 * weight2[column1]  # 0 outside the component
            neighbors = translates[parts[0][1][rows]]
            pairs = np.arange(size)[:, None] * size + np.maximum(column2[column1[neighbors]], 0)
            weights = weight[neighbors] / weight[rows][:, None]
            component = np.bincount(pairs.ravel(), weights.ravel(), minlength=size * size)
            try:
                eig.append(np.linalg.eigvalsh(component.reshape(size, size)))
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(f"dense eigensolver failed: {exc}") from exc
            del component  # summing the next component must not hold this one as well
        blocks.append(np.tile(np.concatenate(eig), comb(m, j)))
    eig = np.concatenate(blocks)
    eig.sort()
    return Spectrum(eigenvalues=eig[::-1].copy(), method="dense")


def cayley_spectrum(ctx: FieldCtx, m: int = 2) -> Spectrum:
    """Exact eigenvalues as character sums over the unit circle S.

    The base-p digits of a vertex index are the nm digits of its coordinates
    and u + v adds them mod p, so (F_q^m, +) is (Z_p)^(nm). Entry k of the
    FFT of S's indicator over those axes is sum_{s in S} exp(-2*pi*i*<k,s>/p),
    the eigenvalue of one character; the zero frequency gives the degree.
    """
    circle = unit_circle(ctx, m)  # checks q**m first
    indicator = np.zeros(ctx.q**m)
    indicator[circle] = 1.0
    eig = np.fft.fftn(indicator.reshape((ctx.p,) * (ctx.n * m))).real.ravel()
    eig.sort()
    return Spectrum(eigenvalues=eig[::-1].copy(), method="cayley")


def hoffman_bound(spectrum: Spectrum) -> float:
    """The spectral chromatic lower bound 1 - lambda1/lambda_min.

    Callers take the ceiling for an integer bound. Raises when no safely
    negative eigenvalue exists.
    """
    if spectrum.lambda_min >= -spectrum.slack:
        raise DegenerateSpectrumError(
            f"lambda_min={spectrum.lambda_min} is not negative"
        )
    return 1.0 - spectrum.lambda1 / spectrum.lambda_min


def grouped_eigenvalues(spectrum: Spectrum) -> list[tuple[float, int]]:
    """Cluster the descending eigenvalues into (value, multiplicity) pairs,
    merging values closer than the spectrum's slack."""
    slack = spectrum.slack
    groups = []
    for value in spectrum.eigenvalues:
        value = float(value)
        if groups and groups[-1][0] - value <= slack:
            groups[-1][1] += 1
        else:
            groups.append([value, 1])
    return [(v, c) for v, c in groups]


def write_spectrum(spectrum: Spectrum, sink) -> None:
    """Write one 'eigenvalue multiplicity' pair per line, sorted descending;
    a value that rounds to zero prints unsigned, whatever its float's sign."""
    for value, count in grouped_eigenvalues(spectrum):
        text = f"{value:.9f}"
        sink.write(f"{text.lstrip('-') if float(text) == 0 else text} {count}\n")


def spectrum_record(spectrum: Spectrum, q: int, m: int) -> dict:
    """JSON-ready summary: the extremes, the spectral lower bound (null for
    a degenerate spectrum) and the largest non-principal |eigenvalue|.

    One copy of the principal (largest) eigenvalue is left out of that
    maximum, which is 0.0 when nothing else is left. At m = 2 the unrounded
    maximum is compared against sqrt(q) and 2*sqrt(q), the magnitude bound
    the paper's lower bound rests on: both flags are reported, neither is
    asserted, and both are null at other m.
    """
    max_abs = float(np.abs(spectrum.eigenvalues[1:]).max(initial=0.0))
    try:
        hoffman = round(hoffman_bound(spectrum), 9)
    except DegenerateSpectrumError:
        hoffman = None
    plane = m == 2
    return {
        "q": q,
        "m": m,
        "method": spectrum.method,
        "lambda1": round(spectrum.lambda1, 9),
        "lambdaMin": round(spectrum.lambda_min, 9),
        "maxNonprincipalAbs": round(max_abs, 9),
        "hoffman": hoffman,
        "withinSqrtQ": max_abs <= sqrt(q) + spectrum.slack if plane else None,
        "withinTwoSqrtQ": max_abs <= 2.0 * sqrt(q) + spectrum.slack if plane else None,
    }
