"""Spectra of unit-quadrance graphs, computed two independent ways.

The dense route splits the 0/1 adjacency matrix into one block per sign
pattern of the coordinate flips x_j -> -x_j, solves one block per
popcount, and splits that block in two by a coordinate swap that fixes
its sign pattern, after checking that generators of the signed
coordinate permutations keep the connection set; it uses no character
or field trace. The Cayley route is one FFT of the unit
circle's indicator over (Z_p)^(nm), the base-p digits of a vertex index
(real because the circle is symmetric). Agreement of the two multisets
validates the graph build and the vertex index layout, not the trace.
The extreme eigenvalues feed the spectral chromatic lower bound
1 - lambda1/lambda_min.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .errors import DegenerateSpectrumError, NoConvergenceError, TooLargeError
from .field import FieldCtx
from .graph import circle_coords, unit_circle

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


@dataclass(frozen=True)
class EigenBoundReport:
    """Measured magnitude of non-principal eigenvalues against sqrt(q) and
    2*sqrt(q); both flags are reported, neither is asserted."""

    q: int
    max_nonprincipal_abs: float
    within_sqrt_q: bool
    within_two_sqrt_q: bool


def _swap(m: int, j: int) -> np.ndarray:
    """The coordinate order of the swap that splits popcount block j. It
    exchanges two coordinates on which eps = 2**j - 1 agrees, so it fixes
    eps; at m = 2, j = 1 none does, and the order is unmoved."""
    order = np.arange(m)
    a, b = (1, 2) if j == 1 else (0, 1)
    if b < m:
        order[[a, b]] = b, a
    return order


def _halves(top, tau) -> list[np.ndarray]:
    """B+ and B-: the symmetric block B in the orthonormal bases
    (e_r + e_tau(r))/sqrt(2) then e_f, and (e_r - e_tau(r))/sqrt(2), for the
    r < tau(r) and the f = tau(f) in index order. tau is an involution of
    B's indices with B[tau(r), tau(k)] = B[r, k], so B has no entry between
    the two bases and eig(B) = eig(B+) u eig(B-). top holds the rows
    r <= tau(r) of B, in index order; no other row is read.
    """
    at = np.arange(len(tau))
    lo, fixed = np.flatnonzero(tau > at), np.flatnonzero(tau == at)
    if not len(lo):  # tau is the identity: B is solved whole
        return [top, top[:0, :0]]
    row = np.cumsum(tau >= at) - 1  # the row of top that holds row r of B
    even = np.concatenate((lo, fixed))
    plus = top[np.ix_(row[even], even)]
    cross = top[np.ix_(row[lo], tau[lo])]  # B[r, tau(k)] for r < tau(r), k < tau(k)
    pairs = len(lo)
    minus = plus[:pairs, :pairs] - cross
    plus[:pairs, :pairs] += cross
    plus[:pairs, pairs:] *= sqrt(2.0)
    plus[pairs:, :pairs] *= sqrt(2.0)
    return [plus, minus]


def dense_spectrum(graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix A, at most two dense solves per popcount class.

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

    A swap tau of two coordinates on which eps agrees maps representatives
    to representatives and keeps the block's support, eps . sigma and the
    orbit sizes, so it permutes the block's basis and commutes with it. The
    block splits into its tau-even and tau-odd halves, solved apart; an
    eigensolve costs O(size**3), so each half costs about a quarter of the
    block. Swapping 0 and 1 serves j = 0 and j >= 2, swapping 1 and 2 serves
    j = 1 at m >= 3, and at m = 2 block j = 1 is solved whole. Swapping 1
    and 2 needs no check of its own: it is the cycle, then the swap of 0 and
    1, then the cycle undone, all three checked.

    Its tracemalloc peak misses eigvalsh's copy of each half and its LAPACK
    workspace, which numpy allocates outside tracemalloc. When this is the
    first read of graph.adjacency, the peak includes building the rows.
    """
    n = graph.n_vertices
    if n > DENSE_MAX_VERTICES:  # before the rows are read
        raise TooLargeError(f"{n} vertices exceed the dense bound {DENSE_MAX_VERTICES}")
    ctx, m = graph.ctx, graph.m
    neg = ctx.mul_vector(ctx.neg(1))
    places = ctx.q ** np.arange(m - 1, -1, -1)
    circle = circle_coords(graph)
    generators = [  # images of S; at m = 2 the cycle is the swap
        ("negating coordinate 0", np.column_stack((neg[circle[:, 0]], circle[:, 1:]))),
        ("swapping coordinates 0 and 1", circle[:, [1, 0, *range(2, m)]]),
        ("cycling the coordinates", np.roll(circle, 1, axis=1)),
    ][: 3 if m >= 3 else 2]
    for name, image in generators:  # sorted both sides: S need not be ascending
        if not np.array_equal(np.sort(image @ places), np.sort(graph.connection_set)):
            raise NoConvergenceError(f"{name} is not a graph automorphism")
    rows = graph.adjacency
    coords = np.arange(n)[:, None] // places % ctx.q
    bits = 1 << np.arange(m)
    sigma = (coords > neg[coords]) @ bits  # coordinates flipped from the representative
    orbit = np.minimum(coords, neg[coords]) @ places  # the representative
    reps = np.flatnonzero(sigma == 0)
    slot = np.zeros(n, dtype=np.intp)
    slot[reps] = np.arange(len(reps))  # index in reps of each representative
    neighbors = rows[reps]
    columns = slot[orbit[neighbors]]
    neighbor_sigma = sigma[neighbors]
    support = (coords[reps] != 0) @ bits
    patterns = np.arange(1 << m)
    ones = ((patterns[:, None] & bits) != 0).sum(axis=1)  # popcount of each pattern
    root_size = np.sqrt(2.0 ** ones[support])
    scale = root_size[:, None] / root_size[columns]  # sqrt(|O_r1| / |O_r2|) per neighbor
    blocks = []
    for j in range(m + 1):
        eps = (1 << j) - 1
        keep = (support & eps) == eps
        size = np.count_nonzero(keep)
        position = np.cumsum(keep) - 1  # block index of each kept representative
        tau = position[slot[coords[reps[keep]][:, _swap(m, j)] @ places]]  # on block indices
        top = np.flatnonzero(keep)[tau >= np.arange(size)]  # the rows _halves reads
        cols = columns[top]
        inside = keep[cols]  # neighbors whose orbit lies in the block
        signs = 1.0 - 2.0 * (ones[patterns & eps] % 2)
        weights = (signs[neighbor_sigma[top]] * scale[top])[inside]
        pairs = (np.arange(len(top))[:, None] * size + position[cols])[inside]
        block = np.bincount(pairs, weights, minlength=len(top) * size).reshape(len(top), size)
        halves = _halves(block, tau)
        try:
            eig = np.concatenate([np.linalg.eigvalsh(half) for half in halves if len(half)])
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"dense eigensolver failed: {exc}") from exc
        del block, halves  # summing the next block must not hold these as well
        blocks.append(np.tile(eig, comb(m, j)))
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


def eigen_bound_report(spectrum: Spectrum, q: int) -> EigenBoundReport:
    """Compare the largest non-principal |eigenvalue| against sqrt(q) and
    2*sqrt(q). One copy of the principal (largest) eigenvalue is excluded."""
    rest = spectrum.eigenvalues[1:]
    max_abs = float(np.max(np.abs(rest))) if rest.size else 0.0
    return EigenBoundReport(
        q=q,
        max_nonprincipal_abs=max_abs,
        within_sqrt_q=max_abs <= sqrt(q) + spectrum.slack,
        within_two_sqrt_q=max_abs <= 2.0 * sqrt(q) + spectrum.slack,
    )


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
    """JSON-ready summary with the spectral lower bound and the magnitude
    diagnostic; hoffman is null for degenerate spectra."""
    report = eigen_bound_report(spectrum, q)
    try:
        hoffman = round(hoffman_bound(spectrum), 9)
    except DegenerateSpectrumError:
        hoffman = None
    return {
        "q": q,
        "m": m,
        "method": spectrum.method,
        "lambda1": round(spectrum.lambda1, 9),
        "lambdaMin": round(spectrum.lambda_min, 9),
        "maxNonprincipalAbs": round(report.max_nonprincipal_abs, 9),
        "hoffman": hoffman,
    }
