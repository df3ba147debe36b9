"""Spectra of unit-quadrance graphs, computed two independent ways.

The dense route splits the 0/1 adjacency matrix into one block per sign
pattern of the coordinate flips x_j -> -x_j and solves one block per
popcount, after checking that generators of the signed coordinate
permutations keep the connection set. It splits that block into up to
four components by a coordinate swap that fixes its sign pattern and, for
q = p**n with n even, the Galois involution x -> x**(p**(n/2)) when that
keeps the connection set. Each component is summed from the translates
r + S of representatives r, never from the neighbor rows; the route uses
no character or field trace. The Cayley route is one FFT of the unit
circle's indicator over (Z_p)^(nm), the base-p digits of a vertex index
(real because the circle is symmetric). Agreement of the two multisets
validates the graph build and the vertex index layout, not the trace.
The extreme eigenvalues feed the spectral chromatic lower bound
1 - lambda1/lambda_min, and spectrum_record alone turns a spectrum into
the printed numbers, the largest non-principal |eigenvalue| among them.
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


def _split(size: int, generators) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The isotypic components of a symmetric block B under a group G.

    Each generator is a pair (perm, sign) of arrays over B's indices, the
    signed involution e_r -> sign[r] * e_perm[r]; they commute with each
    other and with B, and generate G. For a character chi of G (+1 or -1 on
    each generator), a G-orbit O with minimum r0 lies in chi's component
    when chi(g) * s_g(r0) = 1 for every g fixing r0, s_g(r) being the sign g
    gives e_r. The component then has the orthonormal basis vectors
    v_O = (sum of c_y * e_y over y in O) / sqrt(|O|), with c_y = chi(g) *
    s_g(r0) for any g carrying r0 to y, and B is zero between components
    (Serre, Linear Representations of Finite Groups, 2.6-2.7). Since B
    commutes with G, v_O1 . B v_O2 = sqrt(|O1| / |O2|) * sum of c_y *
    B[r1, y] over y in O2: only the rows of orbit minima are read.

    Returns one (rows, column, weight) per character: the orbit minima of
    the component, column[y] the orbit of y within them (-1 outside it),
    and weight[y] = c_y / sqrt(|O|) for y in O. Entry [i, column[y]] of the
    component sums B[rows[i], y] * weight[y] / weight[rows[i]] over y.
    Element k of G is the product of the generators i with bit i of k set,
    and character c is (-1)**(bit i of c) on generator i, so chi_c(g_k) =
    (-1)**popcount(c & k): the rows of a Sylvester Hadamard matrix.
    """
    at = np.arange(size)
    images, signs, characters = at[None], np.ones((1, size)), np.ones((1, 1))
    for perm, sign in generators:  # G doubles: each element g, then the generator after g
        images, signs = np.vstack((images, perm[images])), np.vstack((signs, signs * sign[images]))
        characters = np.block([[characters, characters], [characters, -characters]])
    fixed = images == at
    to_min = images.argmin(axis=0)  # an involution carrying y to its orbit minimum, and back
    minimum = images[to_min, at]
    orbit = len(images) / np.count_nonzero(fixed, axis=0)
    components = []
    for value in characters:
        signed = value[:, None] * signs
        rows = np.flatnonzero((minimum == at) & np.all(~fixed | (signed == 1), axis=0))
        column = np.full(size, -1)
        column[rows] = np.arange(len(rows))
        components.append((rows, column[minimum], signed[to_min, at] / np.sqrt(orbit)))
    return components


def dense_spectrum(graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix A, up to four dense solves per popcount class.

    The signed coordinate permutations B_m keep quadrance and fix 0. Their
    m flips x_j -> -x_j split A into one block per character eps in {0,1}^m
    (Serre, Linear Representations of Finite Groups, 2.6). The orbit O_r of
    r (every coordinate c replaced by min(c, -c)) has 2**(nonzero coords
    of r) points. Block eps keeps the r nonzero wherever eps is 1, with
    entry sqrt(|O_r1| / |O_r2|) * sum of (-1)**(eps . sigma(y)) over the
    neighbors y of r1 in O_r2, sigma(y) marking y's flipped coordinates.
    A coordinate permutation pi carries block eps onto block pi(eps), so
    blocks of equal popcount j are isospectral: only eps = 2**j - 1 is
    solved, counted C(m, j) times. Negating coordinate 0, swapping 0 and 1
    and cycling all coordinates generate B_m; each is first checked to be
    an automorphism of the graph, or NoConvergenceError is raised. Each is
    an automorphism g of the group (F_q^m, +), and such a g is one of
    Cay(F_q^m, S) exactly when g(S) = S (Godsil and Royle, Algebraic Graph
    Theory, ch. 3), so the check maps the |S| points of S, not N rows.

    Each block is split further by a group G of at most two commuting
    involutions that keep it and act on its basis as signed permutations
    (_split). The first is a swap tau of two coordinates on which eps
    agrees: it maps representatives to representatives and keeps eps .
    sigma, so its signs are all +1. Swapping 0 and 1 serves j = 0 and
    j >= 2, swapping 1 and 2 serves j = 1 at m >= 3, and at m = 2 block
    j = 1 has no swap. Swapping 1 and 2 needs no check of its own: it is
    the cycle, then the swap of 0 and 1, then the cycle undone, all three
    checked. The second exists when q = p**n with n even: the Galois
    involution Phi(x) = x**(p**(n/2)) on every coordinate, an additive
    field automorphism fixing F_p, so Q(Phi x) = Phi(Q(x)). It commutes with
    the flips and the swaps and keeps nonzero coordinates, so it carries
    representative r to the representative r' of Phi(r) with sign
    (-1)**(eps . sigma(Phi r)). Phi is checked by mapping the |S| points
    of S too, but it is used only when it maps S onto itself, as it does
    the unit circle; otherwise the block splits by the swap alone, with no
    error. An eigensolve costs O(size**3), so four components of about a
    quarter of the block cost about a sixteenth of it together.

    Each component is summed with one bincount over the neighbors r + S of
    its orbit minima, from circle_translates: no other neighbor row is
    formed, and no block is formed whole. Its
    tracemalloc peak misses eigvalsh's copy of each component and its
    LAPACK workspace, which numpy allocates outside tracemalloc: at
    (49,2) at most one 300-wide solve.
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
    coords = index_coords(ctx.q, m, np.arange(n))
    bits = 1 << np.arange(m)
    sigma = (coords > neg[coords]) @ bits  # coordinates flipped from the representative
    orbit = np.minimum(coords, neg[coords]) @ places  # the representative
    reps = np.flatnonzero(sigma == 0)
    slot = np.zeros(n, dtype=np.intp)
    slot[reps] = np.arange(len(reps))  # index in reps of each representative
    neighbors = circle_translates(graph, reps)
    columns = slot[orbit[neighbors]]
    neighbor_sigma = sigma[neighbors]
    support = (coords[reps] != 0) @ bits
    patterns = np.arange(1 << m)
    ones = ((patterns[:, None] & bits) != 0).sum(axis=1)  # popcount of each pattern
    root_size = np.sqrt(2.0 ** ones[support])  # sqrt(|O_r|) per representative
    if galois is not None:  # Phi(r) is galois_sigma's flips of the representative galois_slot
        image = galois[coords[reps]] @ places
        galois_slot, galois_sigma = slot[orbit[image]], sigma[image]
    blocks = []
    for j in range(m + 1):
        eps = (1 << j) - 1
        keep = (support & eps) == eps
        members = np.flatnonzero(keep)  # the representative of each block index
        position = np.cumsum(keep) - 1  # block index of each kept representative
        signs = 1.0 - 2.0 * (ones[patterns & eps] % 2)
        involutions = []
        order = _swap(m, j)
        if np.any(order != np.arange(m)):
            swapped = position[slot[coords[reps[keep]][:, order] @ places]]
            involutions.append((swapped, np.ones(len(members))))
        if galois is not None:
            involutions.append((position[galois_slot[keep]], signs[galois_sigma[keep]]))
        eig = []
        for rows, column, weight in _split(len(members), involutions):
            if not len(rows):
                continue
            size, first = len(rows), members[rows]
            # each representative's column and weight / sqrt(|O_r|); one outside the
            # component has weight 0, so its neighbors add 0.0 to column 0
            to = np.zeros(len(reps), dtype=np.intp)
            across = np.zeros(len(reps))
            to[members], across[members] = np.maximum(column, 0), np.where(column >= 0, weight, 0.0)
            cols = columns[first]  # the representative of each neighbor's orbit
            scale = (root_size[first] / weight[rows])[:, None] * (across / root_size)[cols]
            weights = (signs[neighbor_sigma[first]] * scale).ravel()
            pairs = (np.arange(size)[:, None] * size + to[cols]).ravel()
            component = np.bincount(pairs, weights, minlength=size * size).reshape(size, size)
            try:
                eig.append(np.linalg.eigvalsh(component))
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
