"""Dense and Cayley spectra, spectral bound, and magnitude diagnostics."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from conftest import adjacency_by_columns, field_for, graph_for, refused_peak, within_a_second
from uqgraph import (
    DegenerateSpectrumError,
    DimensionTooSmallError,
    NoConvergenceError,
    Spectrum,
    cayley_spectrum,
    dense_spectrum,
    grouped_eigenvalues,
    hoffman_bound,
    make_field,
    spectrum_record,
    triangle_count,
    unit_circle,
    write_spectrum,
)
from uqgraph import build_graph, spectral
from uqgraph.graph import UnitQuadranceGraph, index_coords
from uqgraph.spectral import _split, _swap


def test_dense_lambda1_is_degree():
    spec = dense_spectrum(graph_for(5))
    assert spec.lambda1 == pytest.approx(4.0, abs=1e-9)
    spec7 = dense_spectrum(graph_for(7))
    assert spec7.lambda1 == pytest.approx(8.0, abs=1e-9)


def test_spectrum_sums_to_zero():
    for q in (5, 7, 9):
        spec = dense_spectrum(graph_for(q))
        assert abs(spec.eigenvalues.sum()) <= spec.n * 1e-9


def test_cayley_principal_eigenvalue():
    for q in (5, 7, 13):
        ctx = field_for(q)
        spec = cayley_spectrum(ctx, 2)
        assert spec.lambda1 == pytest.approx(graph_for(q).degree, abs=1e-9)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_cross_oracle_agreement(q):
    dense = dense_spectrum(graph_for(q))
    cayley = cayley_spectrum(field_for(q), 2)
    assert np.max(np.abs(dense.eigenvalues - cayley.eigenvalues)) < 1e-6


def full_matrix_eigenvalues(graph):
    """Oracle: the route dense_spectrum took before its sign-flip blocks,
    eigvalsh on the whole N x N adjacency matrix, in descending order."""
    n = graph.n_vertices
    adj = np.zeros((n, n), dtype=np.float64)
    np.put_along_axis(adj, adjacency_by_columns(graph), 1.0, axis=1)
    return np.linalg.eigvalsh(adj)[::-1]


@pytest.mark.parametrize("q, m", [
    (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2), (49, 2),
    (3, 3), (5, 3), (7, 3), (9, 3), (13, 3), (3, 4), (5, 4), (7, 4), (3, 5),
])
def test_dense_blocks_match_full_matrix(q, m):
    graph = graph_for(q, m)
    blocks = dense_spectrum(graph).eigenvalues
    assert blocks.shape == (graph.n_vertices,)
    expected = full_matrix_eigenvalues(graph)
    assert np.max(np.abs(blocks - expected)) < 1e-9
    # the Cayley FFT against the same oracle: graph build and index layout
    assert np.max(np.abs(cayley_spectrum(graph.ctx, m).eigenvalues - expected)) < 1e-9


def flip_block_eigenvalues(graph):
    """Oracle: the route dense_spectrum took before it solved one block per
    popcount class, all 2**m sign-flip blocks behind m flip checks, in
    descending order."""
    n = graph.n_vertices
    ctx, m, rows = graph.ctx, graph.m, adjacency_by_columns(graph)
    neg = ctx.mul_vector(ctx.neg(1))
    places = ctx.q ** np.arange(m - 1, -1, -1)
    coords = np.arange(n)[:, None] // places % ctx.q
    for j in range(m):  # flip j as a vertex permutation; row g(u) must be g(row u)
        flip = (np.arange(n) + (neg[coords[:, j]] - coords[:, j]) * places[j]).astype(rows.dtype)
        image = flip[rows]
        image.sort(axis=1)
        if not np.array_equal(rows[flip], image):
            raise NoConvergenceError(f"negating coordinate {j} is not a graph automorphism")
    bits = 1 << np.arange(m)
    sigma = (coords > neg[coords]) @ bits  # coordinates flipped from the representative
    orbit = np.minimum(coords, neg[coords]) @ places  # the representative
    reps = np.flatnonzero(sigma == 0)
    size = len(reps)
    neighbors = rows[reps]
    pairs = np.arange(size)[:, None] * size + np.searchsorted(reps, orbit[neighbors])
    neighbor_sigma = sigma[neighbors]
    support = (coords[reps] != 0) @ bits
    patterns = np.arange(1 << m)
    ones = ((patterns[:, None] & bits) != 0).sum(axis=1)  # popcount of each pattern
    root_size = np.sqrt(2.0 ** ones[support])
    blocks = []
    for eps in patterns:
        keep = (support & eps) == eps
        signs = 1.0 - 2.0 * (ones[patterns & eps] % 2)
        weights = signs[neighbor_sigma[keep]].ravel()  # rows outside the block are skipped
        block = np.bincount(pairs[keep].ravel(), weights, minlength=size * size)
        block = block.reshape(size, size)[np.ix_(keep, keep)]
        block *= root_size[keep, None] / root_size[keep]
        blocks.append(np.linalg.eigvalsh(block))
    eig = np.concatenate(blocks)
    eig.sort()
    return eig[::-1]


@pytest.mark.parametrize("q, m", [
    (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2), (49, 2),
    (3, 3), (5, 3), (7, 3), (9, 3), (13, 3), (3, 4), (5, 4), (7, 4), (3, 5),
    (61, 2), (3, 6), (3, 7),  # too slow for the full-matrix oracle
])
def test_popcount_classes_match_every_flip_block(q, m):
    graph = graph_for(q, m)
    assert np.max(np.abs(dense_spectrum(graph).eigenvalues - flip_block_eigenvalues(graph))) < 1e-9


def popcount_block_eigenvalues(graph):
    """Oracle: the route dense_spectrum took before it split each block by a
    coordinate swap, one solve per popcount class eps = 2**j - 1, counted
    C(m, j) times, in descending order. It checks no automorphism."""
    n = graph.n_vertices
    ctx, m, rows = graph.ctx, graph.m, adjacency_by_columns(graph)
    neg = ctx.mul_vector(ctx.neg(1))
    places = ctx.q ** np.arange(m - 1, -1, -1)
    coords = np.arange(n)[:, None] // places % ctx.q
    bits = 1 << np.arange(m)
    sigma = (coords > neg[coords]) @ bits  # coordinates flipped from the representative
    orbit = np.minimum(coords, neg[coords]) @ places  # the representative
    reps = np.flatnonzero(sigma == 0)
    neighbors = rows[reps]
    columns = np.searchsorted(reps, orbit[neighbors])
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
        cols = columns[keep]
        inside = keep[cols]  # neighbors whose orbit lies in the block
        signs = 1.0 - 2.0 * (ones[patterns & eps] % 2)
        weights = (signs[neighbor_sigma[keep]] * scale[keep])[inside]
        pairs = (np.arange(size)[:, None] * size + position[cols])[inside]
        block = np.bincount(pairs, weights, minlength=size * size).reshape(size, size)
        blocks.append(np.tile(np.linalg.eigvalsh(block), math.comb(m, j)))
    eig = np.concatenate(blocks)
    eig.sort()
    return eig[::-1]


@pytest.mark.parametrize("q, m", [
    (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2), (49, 2),
    (3, 3), (5, 3), (7, 3), (9, 3), (13, 3), (3, 4), (5, 4), (7, 4), (3, 5),
    (61, 2), (3, 6), (3, 7),
])
def test_swap_halves_match_one_solve_per_popcount_block(q, m):
    graph = graph_for(q, m)
    expected = popcount_block_eigenvalues(graph)
    assert np.max(np.abs(dense_spectrum(graph).eigenvalues - expected)) < 1e-9


def swap_halves(top, tau) -> list[np.ndarray]:
    """Oracle: the splitter dense_spectrum used before _split, for one swap.
    B+ and B-: the symmetric block B in the orthonormal bases
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
    plus[:pairs, pairs:] *= math.sqrt(2.0)
    plus[pairs:, :pairs] *= math.sqrt(2.0)
    return [plus, minus]


def component_matrix(block, rows, column, weight):
    """One component of _split formed from the whole block: entry
    [i, column[y]] sums block[rows[i], y] * weight[y] / weight[rows[i]]."""
    inside = column >= 0
    mix = np.zeros((len(block), len(rows)))
    mix[inside, column[inside]] = weight[inside]
    return block[rows] @ mix / weight[rows][:, None]


@pytest.mark.parametrize("size, pairs", [(1, 0), (5, 0), (6, 3), (9, 2), (40, 17)])
def test_halves_split_a_swap_invariant_block_into_two_spectra(size, pairs):
    rng = np.random.default_rng(size)
    tau = np.arange(size)
    ends = rng.permutation(size)[: 2 * pairs].reshape(pairs, 2)
    tau[ends[:, 0]], tau[ends[:, 1]] = ends[:, 1], ends[:, 0]
    block = rng.normal(size=(size, size))
    block += block.T
    block += block[np.ix_(tau, tau)]  # B[tau(r), tau(k)] = B[r, k]
    plus, minus = swap_halves(block[tau >= np.arange(size)], tau)
    assert (len(plus), len(minus)) == (size - pairs, pairs)
    assert np.array_equal(plus, plus.T) and np.array_equal(minus, minus.T)
    both = np.sort(np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)]))
    assert np.max(np.abs(both - np.linalg.eigvalsh(block))) < 1e-9
    # _split with the swap alone gives the same two components
    components = [component_matrix(block, *c) for c in _split(size, [(tau, np.ones(size))])]
    assert [len(c) for c in components] == [size - pairs, pairs]
    for ours, theirs in zip(components, (plus, minus)):
        if len(ours):
            assert np.max(np.abs(np.linalg.eigvalsh(ours) - np.linalg.eigvalsh(theirs))) < 1e-9


def klein_involutions(rng, kinds):
    """Two commuting signed involutions (perm, sign), e_r -> sign[r] *
    e_perm[r], on the orbits named in kinds: "free" (4 points), "t1", "t2",
    "t12" (2 points each, fixed by t1, t2 or t1 t2) and "all" (1 point).
    Each sign on a 2-cycle is random; the signs of fixed points alternate
    from orbit to orbit, so both occur. The points are then relabeled at random."""
    perm1, sign1, perm2, sign2 = [], [], [], []
    turn = {kind: 1 for kind in kinds}
    for kind in kinds:
        base, (a, c), fixed = len(perm1), rng.choice((-1, 1), size=2), turn[kind]
        turn[kind] = -fixed
        if kind == "free":  # points r, t1 r, t2 r, t1 t2 r; t1 t2 = t2 t1 needs the last sign
            b = rng.choice((-1, 1))
            local = ([1, 0, 3, 2], [a, a, b, b], [2, 3, 0, 1], [c, a * b * c, c, a * b * c])
        elif kind == "t1":
            local = ([0, 1], [fixed, fixed], [1, 0], [c, c])
        elif kind == "t2":
            local = ([1, 0], [a, a], [0, 1], [fixed, fixed])
        elif kind == "t12":
            local = ([1, 0], [a, a], [1, 0], [c, c])
        else:
            local = ([0], [fixed], [0], [-fixed])
        perm1 += [base + r for r in local[0]]
        sign1 += local[1]
        perm2 += [base + r for r in local[2]]
        sign2 += local[3]
    label = rng.permutation(len(perm1))
    involutions = []
    for perm, sign in ((perm1, sign1), (perm2, sign2)):
        relabeled, signs = np.empty(len(perm), dtype=int), np.empty(len(perm))
        relabeled[label], signs[label] = label[perm], sign
        involutions.append((relabeled, signs))
    return involutions


def signed_matrix(perm, sign):
    """The matrix of e_r -> sign[r] * e_perm[r]."""
    matrix = np.zeros((len(perm), len(perm)))
    matrix[perm, np.arange(len(perm))] = sign
    return matrix


@pytest.mark.parametrize("generators", [0, 1, 2])
@pytest.mark.parametrize("seed, kinds", [
    (1, ["free", "t1", "t1", "t2", "t2", "t12", "all", "all"]),
    (2, ["all", "all", "all", "all"]),
    (3, ["free"] * 3 + ["t1"] * 4 + ["t2"] * 3 + ["t12"] * 2 + ["all"] * 5),
])
def test_split_by_two_commuting_signed_involutions_keeps_the_spectrum(seed, kinds, generators):
    rng = np.random.default_rng(seed)
    both = klein_involutions(rng, kinds)
    size, involutions = len(both[0][0]), both[:generators]
    group = [np.eye(size)]  # element k holds generator i when bit i of k is set
    for perm, sign in involutions:
        group += [signed_matrix(perm, sign) @ g for g in group]
    block = rng.normal(size=(size, size))
    block = sum(g @ (block + block.T) @ g.T for g in group)  # commutes with the group
    components = _split(size, involutions)
    assert len(components) == 2**generators
    solved = []
    for c, (rows, column, weight) in enumerate(components):
        # character c is (-1)**(bit i of c) on generator i, and the dimension
        # of its component is the trace of its projector
        trace = sum((-1) ** bin(c & k).count("1") * np.trace(g) for k, g in enumerate(group))
        assert len(rows) == round(trace / len(group))
        assert np.array_equal(column[rows], np.arange(len(rows)))
        assert np.array_equal(weight == 0, column < 0)  # weight 0 exactly outside the component
        if len(rows):
            component = component_matrix(block, rows, column, weight)
            assert np.max(np.abs(component - component.T)) < 1e-9
            solved.append(np.linalg.eigvalsh(component))
    both = np.sort(np.concatenate(solved))
    assert len(both) == size
    assert np.max(np.abs(both - np.linalg.eigvalsh(block))) < 1e-9


@pytest.mark.parametrize("generators", [1, 2])
@pytest.mark.parametrize("seed, kinds", [
    (1, ["free", "t1", "t1", "t2", "t2", "t12", "all", "all"]),
    (2, ["all", "all", "all", "all"]),
    (3, ["free"] * 3 + ["t1"] * 4 + ["t2"] * 3 + ["t12"] * 2 + ["all"] * 5),
])
def test_split_keeps_the_wanted_components_of_the_full_split(seed, kinds, generators):
    involutions = klein_involutions(np.random.default_rng(seed), kinds)[:generators]
    size = len(involutions[0][0])
    full = _split(size, involutions)
    for wanted in ([0], [2**generators - 1], [1, 0], np.arange(2**generators)[::-1]):
        kept = _split(size, involutions, np.array(wanted))
        assert len(kept) == len(wanted)
        for c, component in zip(wanted, kept):
            assert all(np.array_equal(ours, theirs) for ours, theirs in zip(component, full[c]))


@pytest.mark.parametrize("q, m", [(5, 2), (5, 3), (5, 4), (3, 5), (9, 2), (25, 2), (9, 3)])
def test_each_block_splits_by_a_swap_that_fixes_its_sign_pattern(q, m, monkeypatch):
    for j in range(m + 1):
        eps, order = (1 << j) - 1, _swap(m, j)
        moved = np.flatnonzero(order != np.arange(m))
        if len(moved) == 0:
            assert (m, j) == (2, 1)  # no swap fixes eps = (1, 0)
        else:
            assert len(moved) == 2
            a, b = moved
            assert (order[a], order[b]) == (b, a)
            assert (eps >> a) & 1 == (eps >> b) & 1
    split = []

    def recorded(size, generators, *wanted):
        components = _split(size, generators, *wanted)
        split.append((size, len(generators), [len(rows) for rows, _, _ in components]))
        return components

    monkeypatch.setattr(spectral, "_split", recorded)
    dense_spectrum(graph_for(q, m))
    # (q + 1) / 2 representatives per coordinate, (q - 1) / 2 of them nonzero
    sizes = [((q - 1) // 2) ** j * ((q + 1) // 2) ** (m - j) for j in range(m + 1)]
    # first the m flips over all q**m vertices, keeping the m + 1 blocks eps = 2**j - 1
    assert split.pop(0) == (q**m, m, sizes)
    assert [size for size, _, _ in split] == sizes
    assert all(sum(dims) == size for size, _, dims in split)
    galois = q in (9, 25)  # q = p**n with n even: the Galois involution joins the swap
    assert [count for _, count, _ in split] == [
        (m, j) != (2, 1) and 1 + galois or galois for j in range(m + 1)
    ]
    if m == 2 and not galois:
        assert split[1][2] == [sizes[1]]  # solved whole


def row_automorphisms(graph):
    """Oracle: the guard dense_spectrum ran before it mapped only S. For
    each generator it checked, in its order, whether row g(u) is g(row u)
    for every vertex u: a dict from the generator's name to that verdict."""
    n = graph.n_vertices
    ctx, m, rows = graph.ctx, graph.m, adjacency_by_columns(graph)
    neg = ctx.mul_vector(ctx.neg(1))
    places = ctx.q ** np.arange(m - 1, -1, -1)
    coords = np.arange(n)[:, None] // places % ctx.q
    generators = [  # as vertex permutations; at m = 2 the cycle is the swap
        ("negating coordinate 0", np.column_stack((neg[coords[:, 0]], coords[:, 1:])) @ places),
        ("swapping coordinates 0 and 1", coords[:, [1, 0, *range(2, m)]] @ places),
        ("cycling the coordinates", np.roll(coords, 1, axis=1) @ places),
    ][: 3 if m >= 3 else 2]
    return {
        name: np.array_equal(rows[g], np.sort(g.astype(rows.dtype)[rows], axis=1))
        for name, g in generators
    }


def with_circle(graph, coords):
    """The graph on the same field and dimension whose connection set is
    the points with the given (|S|, m) coordinates."""
    places = graph.q ** np.arange(graph.m - 1, -1, -1)
    return UnitQuadranceGraph(graph.ctx, graph.m, np.sort(coords @ places))


def sheared(graph, c):
    """The graph on the image of S under (x0, x1, ...) -> (x0 + c*x1, x1, ...):
    an automorphism of (F_q^m, +), so the same spectrum, but negating
    coordinate 0 does not keep the image for c != 0."""
    ctx, coords = graph.ctx, index_coords(graph.q, graph.m, graph.connection_set)
    coords[:, 0] = ctx.add_arrays(coords[:, 0], ctx.mul_vector(c)[coords[:, 1]])
    return with_circle(graph, coords)


def doubled(graph, j):
    """The graph on the image of S under x_j -> 2 * x_j: the same spectrum,
    and every sign flip still keeps the image, but a coordinate permutation
    that moves j need not."""
    ctx, coords = graph.ctx, index_coords(graph.q, graph.m, graph.connection_set)
    coords[:, j] = ctx.mul_vector(ctx.add(1, 1))[coords[:, j]]
    return with_circle(graph, coords)


@pytest.mark.parametrize("q, m", [(7, 2), (5, 3)])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_dense_rejects_graph_whose_flips_are_not_automorphisms(q, m, c):
    graph = sheared(graph_for(q, m), c)
    expected = full_matrix_eigenvalues(graph_for(q, m))
    assert np.max(np.abs(full_matrix_eigenvalues(graph) - expected)) < 1e-9
    with pytest.raises(NoConvergenceError, match="negating coordinate 0 is not a graph automorphism"):
        dense_spectrum(graph)


@pytest.mark.parametrize("q, m, j", [(7, 2, 1), (11, 2, 1), (5, 3, 2), (7, 3, 2)])
def test_dense_rejects_graph_whose_coordinate_permutations_are_not_automorphisms(q, m, j):
    graph = doubled(graph_for(q, m), j)
    expected = full_matrix_eigenvalues(graph_for(q, m))
    assert np.max(np.abs(full_matrix_eigenvalues(graph) - expected)) < 1e-9
    # every flip passes the flip-only guard, and its blocks still give the spectrum
    assert np.max(np.abs(flip_block_eigenvalues(graph) - expected)) < 1e-9
    # the swap at m = 2 or the cycle at m = 3 is not an automorphism
    with pytest.raises(NoConvergenceError, match="not a graph automorphism"):
        dense_spectrum(graph)


def test_dense_splits_by_the_swap_alone_when_the_galois_involution_moves_s(monkeypatch):
    """At q = 9 the signed permutations of (a, 0), for a outside F_3 with
    a**2 != -1, form a symmetric connection set that B_2 keeps, but the
    Galois involution a -> a**3 maps a to neither a nor -a."""
    ctx = field_for(9)
    neg = ctx.mul_vector(ctx.neg(1))
    a = next(a for a in range(3, 9) if ctx.square_vector()[a] != neg[1])
    assert ctx.power_vector(3)[a] not in (a, neg[a])
    graph = with_circle(graph_for(9), np.array([(a, 0), (neg[a], 0), (0, a), (0, neg[a])]))
    generators = []

    def recorded(size, involutions, *wanted):
        generators.append(len(involutions))
        return _split(size, involutions, *wanted)

    monkeypatch.setattr(spectral, "_split", recorded)
    eigenvalues = dense_spectrum(graph).eigenvalues
    assert generators == [2, 1, 0, 1]  # the flips, then the swap at j = 0 and 2, nothing at j = 1
    assert np.max(np.abs(eigenvalues - full_matrix_eigenvalues(graph))) < 1e-9
    assert np.max(np.abs(eigenvalues - popcount_block_eigenvalues(graph))) < 1e-9


@pytest.mark.parametrize("q, m", [(49, 2), (7, 4), (3, 7)])
def test_dense_spectrum_builds_no_neighbor_rows(q, m):
    graph = build_graph(field_for(q), m)
    assert np.max(np.abs(dense_spectrum(graph).eigenvalues
                         - cayley_spectrum(graph.ctx, m).eigenvalues)) < 1e-9


@pytest.mark.parametrize("q, m", [
    (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (25, 2), (27, 2), (49, 2),
    (3, 3), (5, 3), (7, 3), (9, 3), (13, 3), (3, 4), (5, 4), (7, 4), (3, 5),
])
def test_symmetry_check_on_the_circle_agrees_with_the_row_oracle(q, m):
    unit = graph_for(q, m)
    graphs = [unit, sheared(unit, 1), *(doubled(unit, j) for j in range(m))]
    verdicts = []
    for graph in graphs:
        failing = [name for name, kept in row_automorphisms(graph).items() if not kept]
        if failing:
            with pytest.raises(NoConvergenceError, match=f"^{failing[0]} is not a graph automorphism$"):
                dense_spectrum(graph)
        else:
            assert dense_spectrum(graph).n == q**m
        verdicts.append(not failing)
    assert verdicts[:2] == [True, False]  # the unit circle passes, its shear does not
    if q == 3:  # 2 = -1 in F_3: doubling a coordinate is its sign flip
        assert all(verdicts[2:])


def test_dense_refuses_dimension_one_before_reading_rows():
    """At m = 1 the unit circle {1, -1} of F_13 gives the 13-cycle, which has
    no coordinates to swap or cycle."""
    graph = UnitQuadranceGraph(make_field(13), 1, np.array([1, 12]))
    with pytest.raises(DimensionTooSmallError, match="^dense spectra need dimension >= 2$"):
        dense_spectrum(graph)


def test_dense_accepts_a_connection_set_in_any_order():
    graph = graph_for(7, 3)
    shuffled = np.random.default_rng(7).permutation(graph.connection_set)
    other = UnitQuadranceGraph(graph.ctx, graph.m, shuffled)
    assert np.array_equal(adjacency_by_columns(other), adjacency_by_columns(graph))
    assert np.array_equal(dense_spectrum(other).eigenvalues, dense_spectrum(graph).eigenvalues)


def test_dense_reports_an_eigensolver_failure_as_no_convergence(monkeypatch):
    def fail(block):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError, match="^dense eigensolver failed: Eigenvalues did not"):
        dense_spectrum(graph_for(5))


@pytest.mark.parametrize("q, m, sizes", [
    # blocks of 625, 600 and 576, split by the swap and the Galois involution
    # (600 by the Galois involution alone); they were 325, 300, 600, 300, 276
    (49, 2, [181, 156, 144, 144, 300, 300, 156, 132, 144, 144]),
    (13, 3, [196, 147, 168, 126, 147, 105, 126, 90]),  # 343, 294, 252, 216
    (7, 4, [160, 96, 120, 72, 96, 48, 72, 36, 54, 27]),  # 256, 192, 144, 108, 81
])
def test_dense_solves_the_components_of_each_popcount_class(q, m, sizes, monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(block):
        solved.append(len(block))
        return eigvalsh(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert dense_spectrum(graph_for(q, m)).n == q**m
    assert solved == sizes


@pytest.mark.parametrize("q, m", [(49, 2), (7, 4), (3, 7)])
def test_dense_peak_memory_stays_below_the_full_matrix(q, m):
    graph = graph_for(q, m)  # built outside the measurement
    tracemalloc.start()
    try:
        dense_spectrum(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the float64 matrix alone is 2401**2 * 8 bytes, 44 MiB


def scalar_cayley_eigenvalues(ctx, m):
    """Oracle: the route cayley_spectrum took before it used trace linearity,
    one ctx.mul per element and an add-table gather per coordinate."""
    q = ctx.q
    add_tab, traces = ctx.add_table(), ctx.trace_vector()
    cosines = np.cos(2.0 * np.pi * np.arange(ctx.p) / ctx.p)
    idx = np.arange(q**m)
    cols = [(idx // q ** (m - 1 - j)) % q for j in range(m)]
    eig = np.zeros(q**m)
    for s in unit_circle(ctx, m):
        coords = np.unravel_index(s, (q,) * m)
        inner = None
        for j in range(m):
            term = np.array([ctx.mul(x, coords[j]) for x in range(q)])[cols[j]]
            inner = term if inner is None else add_tab[inner, term]
        eig += cosines[traces[inner]]
    return np.sort(eig)[::-1]


def grid_cayley_eigenvalues(ctx, m):
    """Oracle: the route cayley_spectrum took before its FFT, a q**m grid of
    field traces summed once per circle point and read in a cosine table."""
    circle = unit_circle(ctx, m)
    q, p = ctx.q, ctx.p
    traces = ctx.trace_vector()
    # Tr is F_p-linear: Tr(<c, s>) is the sum of Tr(c_j * s_j) mod p. The m
    # coordinate traces sum below m*p, so m copies of the table take the mod.
    cosines = np.tile(np.cos(2.0 * np.pi * np.arange(p) / p), m)
    # Axis j of the grid is coordinate c_j, so it ravels to vertex order.
    eig = np.zeros((q,) * m, dtype=np.float64)
    for s in circle:
        inner = sum(
            traces[ctx.mul_vector(c)].reshape((q,) + (1,) * (m - 1 - j))
            for j, c in enumerate(np.unravel_index(s, (q,) * m))
        )
        eig += cosines[inner]
    eig = eig.ravel()
    eig.sort()
    return eig[::-1].copy()


@pytest.mark.parametrize("q, m", [(5, 2), (9, 2), (25, 2), (27, 2), (49, 2), (5, 3), (3, 4)])
def test_cayley_spectrum_matches_scalar_route_bit_for_bit(q, m):
    # pins the grid oracle's use of trace linearity to the per-element route
    expected = scalar_cayley_eigenvalues(field_for(q), m)
    assert np.array_equal(grid_cayley_eigenvalues(field_for(q), m), expected)


@pytest.mark.parametrize("q, m", [
    *[(q, 2) for q in (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 243, 251)],
    (3, 3), (5, 3), (7, 3), (9, 3), (13, 3), (25, 3), (27, 3),
    (3, 4), (5, 4), (7, 4), (9, 4), (3, 5), (5, 5), (3, 6), (3, 7), (3, 8),
])
def test_cayley_fft_matches_grid_oracle(q, m):
    expected = grid_cayley_eigenvalues(field_for(q), m)
    assert np.max(np.abs(cayley_spectrum(field_for(q), m).eigenvalues - expected)) < 1e-9


def test_cayley_spectrum_reaches_3_to_the_10_within_a_second():
    ctx = make_field(3)
    degree = len(unit_circle(ctx, 10))
    eig = within_a_second(cayley_spectrum, ctx, 10).eigenvalues
    n = 3**10
    assert eig.shape == (n,)
    assert eig[0] == pytest.approx(degree, abs=1e-9)
    assert abs(eig.sum()) < 1e-6 * n * degree
    assert abs((eig**2).sum() - n * degree) < 1e-6 * n * degree


@pytest.mark.parametrize("q, m, zero_line", [(13, 3, "0.000000000 936"), (3, 5, "0.000000000 72")])
def test_write_spectrum_prints_zero_unsigned_for_both_methods(q, m, zero_line):
    texts = []
    for spec in (dense_spectrum(graph_for(q, m)), cayley_spectrum(field_for(q), m)):
        sink = io.StringIO()
        write_spectrum(spec, sink)
        texts.append(sink.getvalue())
    assert texts[0] == texts[1]
    assert "-0.000000000" not in texts[1]
    assert zero_line in texts[1].splitlines()


def test_moment_identities():
    for q in (5, 7, 11):
        g = graph_for(q)
        for spec in (dense_spectrum(g), cayley_spectrum(g.ctx, 2)):
            n, d = g.n_vertices, g.degree
            assert abs(spec.eigenvalues.sum()) < 1e-6 * n * d
            assert abs((spec.eigenvalues**2).sum() - n * d) < 1e-6 * n * d
            assert abs((spec.eigenvalues**3).sum() - 6 * triangle_count(g)) < 1e-4


def test_multiplicities_sum_to_vertex_count():
    spec = cayley_spectrum(field_for(9), 2)
    assert spec.n == 81
    assert sum(count for _, count in grouped_eigenvalues(spec)) == 81


def test_cayley_m3():
    ctx = field_for(5)
    spec = cayley_spectrum(ctx, 3)
    assert spec.n == 125
    g = graph_for(5, 3)
    dense = dense_spectrum(g)
    assert np.max(np.abs(dense.eigenvalues - spec.eigenvalues)) < 1e-6


def test_hoffman_complete_graph():
    for n in (3, 5, 8):
        spec = Spectrum(
            eigenvalues=np.array([float(n - 1)] + [-1.0] * (n - 1)), method="dense"
        )
        assert hoffman_bound(spec) == pytest.approx(n)


def test_hoffman_bipartite_regular():
    spec = Spectrum(eigenvalues=np.array([3.0, 0.0, 0.0, -3.0]), method="dense")
    assert hoffman_bound(spec) == pytest.approx(2.0)


def test_hoffman_degenerate():
    spec = Spectrum(eigenvalues=np.zeros(4), method="dense")
    with pytest.raises(DegenerateSpectrumError):
        hoffman_bound(spec)


def test_hoffman_q7_below_exact_chi():
    spec = cayley_spectrum(field_for(7), 2)
    bound = hoffman_bound(spec)
    assert bound == pytest.approx(1.0 - 8.0 / spec.lambda_min)
    assert math.ceil(bound - 1e-9) <= 4


def magnitude_fields(eigenvalues, q, m=2):
    record = spectrum_record(Spectrum(eigenvalues=np.array(eigenvalues), method="dense"), q, m)
    return record["maxNonprincipalAbs"], record["withinSqrtQ"], record["withinTwoSqrtQ"]


def test_spectrum_record_max_excludes_principal():
    assert magnitude_fields([8.0, 2.0, -1.0], 7) == (2.0, True, True)
    assert magnitude_fields([8.0, 1.0, -4.0], 7) == (4.0, False, True)  # sqrt(7) < 4 < 2*sqrt(7)
    assert magnitude_fields([8.0, 6.0, -1.0], 7) == (6.0, False, False)
    assert magnitude_fields([3.0], 7) == (0.0, True, True)  # nothing but the principal one


def test_spectrum_record_flags_allow_the_slack_and_only_the_max_is_rounded():
    bound, slack = 2.0 * math.sqrt(7), 8e-6  # slack = 1e-6 * |lambda1|
    assert magnitude_fields([8.0, -(bound + slack / 2)], 7)[2] is True
    assert magnitude_fields([8.0, -(bound + 2 * slack)], 7)[2] is False
    got = magnitude_fields([8.0, 1.23456789049], 7)[0]
    assert got == 1.23456789  # rounded to 9 places for printing only


def test_spectrum_record_flags_are_null_off_the_plane():
    for eigenvalues in ([8.0, 2.0, -1.0], [8.0, 6.0, -1.0], [3.0]):
        assert magnitude_fields(eigenvalues, 7, 3)[1:] == (None, None)
    spec = cayley_spectrum(field_for(5), 3)
    record = spectrum_record(spec, 5, 3)
    assert (record["withinSqrtQ"], record["withinTwoSqrtQ"]) == (None, None)
    assert record["maxNonprincipalAbs"] == round(float(np.abs(spec.eigenvalues[1:]).max()), 9)
    assert record["maxNonprincipalAbs"] > 2 * math.sqrt(5)  # the plane's bound does not hold here


def test_spectrum_record_measured():
    for q in (5, 7):
        record = spectrum_record(cayley_spectrum(field_for(q), 2), q, 2)
        # measured magnitudes obey the classical 2*sqrt(q) bound; the bare
        # sqrt(q) flag is reported, not asserted
        assert record["withinTwoSqrtQ"] is True
        assert isinstance(record["withinSqrtQ"], bool)


def kloosterman_plane_spectrum(p):
    """Oracle: the eigenvalues of D_p for a prime p as Kloosterman sums.

    Expanding [Q(x) = 1] as (1/p) * sum over t of e(t(Q(x) - 1)) and summing
    the two Gauss sums gives, for k != 0, lambda_k = eta(-1) * sum over t != 0
    of e(-t - Q(k)/(4t)), e(x) = exp(2*pi*i*x/p) (Medrano, Myers, Stark and
    Terras 1996): the eigenvalue depends on Q(k) alone. Q(k) = c != 0 holds
    for p - eta(-1) points k, Q(k) = 0 for p - 1 + (p - 1)*eta(-1) points k != 0.
    """
    eta = (-1) ** ((p - 1) // 2)  # eta(-1)
    t = np.arange(1, p)
    inverse_4t = np.array([pow(4 * int(u), -1, p) for u in t])
    values = [eta * np.cos(2 * np.pi * ((-t - c * inverse_4t) % p) / p).sum() for c in range(p)]
    counts = [(p - 1) * (1 + eta)] + [p - eta] * (p - 1)
    eig = np.concatenate([[p - eta], np.repeat(values, counts)])  # the degree, then k != 0
    return np.sort(eig)[::-1]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_spectrum_record_max_matches_kloosterman_sums(p):
    eig = kloosterman_plane_spectrum(p)
    cayley = cayley_spectrum(field_for(p), 2)
    assert np.max(np.abs(cayley.eigenvalues - eig)) < 1e-9
    record = spectrum_record(cayley, p, 2)
    assert record["maxNonprincipalAbs"] == pytest.approx(np.abs(eig[1:]).max(), abs=1e-9)
    assert record["withinTwoSqrtQ"] is True  # Weil: |K(a, b)| <= 2*sqrt(p)


def test_dense_too_large():
    assert refused_peak(dense_spectrum, graph_for(67)) < 1 << 20  # 67**2 > 4096
    assert refused_peak(cayley_spectrum, field_for(257), 2) < 1 << 20  # 257**2 > 2**16


def test_write_spectrum_format():
    sink = io.StringIO()
    spec = cayley_spectrum(field_for(5), 2)
    write_spectrum(spec, sink)
    lines = sink.getvalue().splitlines()
    values = []
    total = 0
    for line in lines:
        value_text, count_text = line.split()
        values.append(float(value_text))
        total += int(count_text)
    assert total == 25
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(4.0)


def test_spectrum_record_shape():
    record = spectrum_record(cayley_spectrum(field_for(7), 2), 7, 2)
    assert set(record) == {
        "q", "m", "method", "lambda1", "lambdaMin", "maxNonprincipalAbs", "hoffman",
        "withinSqrtQ", "withinTwoSqrtQ",
    }
    assert record["method"] == "cayley"
    assert record["lambda1"] == pytest.approx(8.0)
