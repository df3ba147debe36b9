"""Field arithmetic, characters, roots, traces, and the choice of modulus and g."""

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    element,
    field_for,
    odd_prime_powers,
    refused_peak,
    scalar_coeffs,
    within_a_second,
)
from uqgraph import (
    DivisionByZeroError,
    EvenCharacteristicError,
    NonPrimeError,
    TooLargeError,
    is_prime,
    make_field,
    prime_power,
)
from uqgraph.field import (
    DEFAULT_MAX_ORDER,
    TABLE_MAX_ORDER,
    FieldCtx,
    _PackedPolys,
    _is_irreducible,
    _prime_divisors,
    _row_chunks,
    _smallest_irreducible,
)


def test_make_field_orders():
    assert make_field(7, 1).q == 7
    assert make_field(3, 2).q == 9


def test_make_field_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristicError):
        make_field(2, 3)


def test_make_field_rejects_nonprime():
    with pytest.raises(NonPrimeError):
        make_field(9, 1)
    with pytest.raises(NonPrimeError):
        make_field(15)


def test_make_field_rejects_oversized():
    # 3**13 is the first power of 3 past the order bound 2**20
    assert refused_peak(make_field, 3, 13) < 1 << 20


@pytest.mark.parametrize("p, n, message", [
    (1000000000000000003, 1, "q=1000000000000000003**1 exceeds the order bound 1048576"),
    (3, 10**8, "q=3**100000000 exceeds the order bound 1048576"),
    (1048583, 1, "q=1048583**1 exceeds the order bound 1048576"),
    (3, 21, "q=3**21 exceeds the order bound 1048576"),
])
def test_make_field_rejects_huge_p_or_n_before_factoring(p, n, message):
    with pytest.raises(TooLargeError, match=re.escape(message)):
        within_a_second(make_field, p, n)


def test_make_field_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        make_field(7, 0)


def test_modulus_is_smallest_irreducible():
    # degree-2 candidates over F_3 in constant-first order: x^2 is divisible
    # by x, x^2+x and x^2+2x have root 0, so x^2+1 is the first irreducible
    assert make_field(3, 2).modulus == (1, 0, 1)
    f25 = make_field(5, 2)
    assert f25.modulus[-1] == 1
    assert list_is_irreducible(list(f25.modulus), 5)
    assert f25.modulus == list_smallest_irreducible(5, 2)


def test_modulus_irreducible_for_higher_degrees():
    for p, n in [(3, 3), (3, 4), (5, 3), (7, 2)]:
        ctx = make_field(p, n)
        assert len(ctx.modulus) == n + 1
        assert ctx.modulus[-1] == 1
        assert list_is_irreducible(list(ctx.modulus), p)
        assert ctx.modulus == list_smallest_irreducible(p, n)


def test_prime_field_arithmetic():
    f7 = make_field(7)
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.add(4, 5) == 2
    assert f7.sub(2, 5) == 4
    with pytest.raises(DivisionByZeroError):
        f7.inv(0)


def test_extension_multiplication_against_polynomial_oracle():
    # oracle: multiply coefficient vectors as polynomials, reduce mod x^2+1
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)

    def oracle_mul(a, b):
        a0, a1 = a % 3, a // 3
        b0, b1 = b % 3, b // 3
        c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
        # x^2 = -1
        return (c0 - c2) % 3 + 3 * (c1 % 3)

    for a in range(9):
        for b in range(9):
            assert f9.mul(a, b) == oracle_mul(a, b)
    # the generator squares to -1 = 2
    assert f9.mul(3, 3) == 2


def test_element_coeffs_round_trip():
    # each row of digits_matrix is the coefficient vector of its code
    for p, n in [(3, 3), (5, 3), (3, 7)]:
        ctx = make_field(p, n)
        digits = ctx.digits_matrix()
        assert digits.shape == (ctx.q, n)
        for code in range(ctx.q):
            assert element(ctx, digits[code].tolist()) == code, (p, n, code)
    f27 = make_field(3, 3)
    with pytest.raises(ValueError):
        element(f27, (1, 2))
    with pytest.raises(ValueError):
        element(f27, (3, 0, 0))
    with pytest.raises(ValueError):
        scalar_coeffs(f27, 27)


def test_quadratic_character_prime_field():
    f7 = make_field(7)
    assert f7.quadratic_character(0) == 0
    assert f7.quadratic_character(1) == 1
    # squares mod 7, enumerated independently: {1, 2, 4}
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    for x in range(1, 7):
        assert f7.quadratic_character(x) == (1 if x in squares else -1)


def test_square_roots():
    f7 = make_field(7)
    roots = {x: {y for y in range(7) if f7.mul(y, y) == x} for x in (2, 0, 5)}
    assert roots == {2: {3, 4}, 0: {0}, 5: set()}


def test_abs_trace_examples():
    f9 = make_field(3, 2)
    assert f9.abs_trace(0) == 0
    assert f9.abs_trace(1) == 2
    # the class of x: x + x^3 = x - x = 0 under x^2 = -1
    assert f9.abs_trace(3) == 0
    assert make_field(7).abs_trace(0) == 0


@pytest.mark.parametrize("q", odd_prime_powers(3, 81))
def test_character_sums_to_zero(q):
    ctx = field_for(q)
    assert sum(ctx.quadratic_character(x) for x in range(q)) == 0


@pytest.mark.parametrize("q", odd_prime_powers(3, 49))
def test_character_is_multiplicative(q):
    ctx = field_for(q)
    chi = [ctx.quadratic_character(x) for x in range(q)]
    for x in range(1, q):
        for y in range(1, q):
            assert chi[ctx.mul(x, y)] == chi[x] * chi[y]


@pytest.mark.parametrize("q", odd_prime_powers(3, 81))
def test_nonzero_square_count(q):
    ctx = field_for(q)
    squares = {ctx.mul(x, x) for x in range(1, q)}
    assert len(squares) == (q - 1) // 2


@pytest.mark.parametrize("q", odd_prime_powers(3, 81))
def test_trace_is_linear_and_surjective(q):
    ctx = field_for(q)
    traces = [ctx.abs_trace(x) for x in range(q)]
    assert set(traces) == set(range(ctx.p))
    hits = {t: traces.count(t) for t in range(ctx.p)}
    assert all(count == q // ctx.p for count in hits.values())
    for x in range(q):
        for y in range(0, q, max(1, q // 7)):
            assert traces[ctx.add(x, y)] == (traces[x] + traces[y]) % ctx.p


@settings(max_examples=200, derandomize=True)
@given(data=st.data())
def test_field_axioms(data):
    ctx = field_for(data.draw(st.sampled_from([7, 9, 13, 25, 27])))
    a = data.draw(st.integers(0, ctx.q - 1))
    b = data.draw(st.integers(0, ctx.q - 1))
    c = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.sub(ctx.add(a, b), b) == a
    if a != 0:
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_pow_matches_repeated_multiplication():
    f25 = make_field(5, 2)
    for a in range(25):
        acc = 1
        for e in range(6):
            assert f25.pow(a, e) == acc
            acc = f25.mul(acc, a)


def test_is_prime_and_prime_power():
    assert is_prime(2) and is_prime(31) and not is_prime(1) and not is_prime(49)
    assert prime_power(49) == (7, 2)
    assert prime_power(81) == (3, 4)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_is_prime_and_prime_power_match_a_sieve():
    limit = 10**4
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for f in range(2, 100):
        if sieve[f]:
            sieve[f * f :: f] = False
    powers = {}
    for p in np.flatnonzero(sieve).tolist():
        q, n = p, 1
        while q < limit:
            powers[q] = (p, n)
            q, n = q * p, n + 1
    for k in range(-3, limit):
        assert is_prime(k) == (k >= 0 and bool(sieve[k])), k
        assert prime_power(k) == powers.get(k), k


# ---------------------------------------------------------------------------
# Oracle: the coefficient-list polynomials that chose the modulus and g
# before field.py ran Rabin's test and the order test on n x n matrices.
# Polynomials are trimmed little-endian coefficient lists over F_p; the
# irreducibility test screens for roots, then takes gcds with
# x**(p**(n/r)) - x.


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem(a, b, p):
    a = _trim(a)
    b = _trim(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a = _trim(a)
        if not a:
            break
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_powmod(base, e, f, p):
    result = [1]
    base = _poly_rem(base, f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def list_is_irreducible(coeffs, p):
    """A root screen settles degree <= 3; the gcd test covers the rest."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if n <= 3:
        return True
    x_poly = [0, 1]
    if _poly_powmod(x_poly, p**n, coeffs, p) != x_poly:
        return False
    for r in _prime_divisors(n):
        h = _poly_powmod(x_poly, p ** (n // r), coeffs, p)
        diff = _trim(
            [(hi - xi) % p for hi, xi in itertools.zip_longest(h, x_poly, fillvalue=0)]
        )
        if len(_poly_gcd(diff, coeffs, p)) > 1:
            return False
    return True


def list_smallest_irreducible(p, n):
    if n == 1:
        return (0, 1)
    for cs in itertools.product(range(p), repeat=n):
        if cs[0] and list_is_irreducible(list(cs) + [1], p):
            return cs + (1,)
    raise AssertionError("no irreducible polynomial found")


def list_primitive_element(p, n, modulus):
    """The smallest code g with g**((q-1)/r) != 1 for every prime r | q - 1."""
    q = p**n
    for code in range(1, q):
        g = [code // p**j % p for j in range(n)]
        if all(_poly_powmod(g, (q - 1) // r, modulus, p) != [1]
               for r in _prime_divisors(q - 1)):
            return code
    raise AssertionError("no primitive element found")


def _fields_up_to_the_order_bound():
    """Every (p, n) with p odd, n >= 2 and p**n <= 2**20."""
    return [(p, n) for p in range(3, 1 << 10) if is_prime(p)
            for n in range(2, 21) if p**n <= DEFAULT_MAX_ORDER]


def test_smallest_irreducible_matches_the_list_oracle():
    fields = _fields_up_to_the_order_bound()
    assert len(fields) == 223
    for p, n in fields:
        want = list_smallest_irreducible(p, n)
        assert _smallest_irreducible(p, n) == want == matrix_smallest_irreducible(p, n), (p, n)


@pytest.mark.parametrize("p, max_degree", [(3, 6), (5, 4), (7, 4)])
def test_is_irreducible_matches_the_list_oracle_on_every_monic(p, max_degree):
    for n in range(2, max_degree + 1):
        irreducible = 0
        for cs in itertools.product(range(p), repeat=n):
            f = list(cs) + [1]
            want = list_is_irreducible(f, p)
            assert _is_irreducible(f, p) == want == matrix_is_irreducible(f, p), f
            irreducible += want
        # Gauss: n times the number of monic irreducibles of degree n is the
        # sum of mu(n/d) * p**d over the divisors d of n
        mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
        assert n * irreducible == sum(mobius[n // d] * p**d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("q", odd_prime_powers(3, 2000))
def test_primitive_element_matches_the_list_oracle(q):
    ctx = field_for(q)
    assert ctx.modulus == list_smallest_irreducible(ctx.p, ctx.n)
    assert ctx._log_tables()[0][1] == list_primitive_element(ctx.p, ctx.n, ctx.modulus)


# ---------------------------------------------------------------------------
# Oracle: the digit-loop arithmetic FieldCtx used before its log tables. It
# works on the coefficient digits of the codes and reduces products by the
# modulus, so it shares nothing with the exp/log tables it checks.


class DigitLoopField:
    def __init__(self, ctx):
        self.p, self.n, self.q, self.modulus = ctx.p, ctx.n, ctx.q, ctx.modulus

    def add(self, a, b):
        p, out, mult = self.p, 0, 1
        for _ in range(self.n):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        p, out, mult = self.p, 0, 1
        for _ in range(self.n):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, n = self.p, self.n
        ca, cb = [], []
        for _ in range(n):
            ca.append(a % p)
            cb.append(b % p)
            a //= p
            b //= p
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(ca):
            for j, bj in enumerate(cb):
                prod[i + j] += ai * bj
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i] % p
            for j in range(n):
                prod[i - n + j] -= c * mod[j]
        code = 0
        for j in range(n - 1, -1, -1):
            code = code * p + prod[j] % p
        return code

    def pow(self, a, e):
        """Square and multiply; negative e uses a**(q-2) as the inverse."""
        if e < 0:
            a, e = self.pow(a, self.q - 2), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def quadratic_character(self, x):
        """Euler's criterion."""
        if x == 0:
            return 0
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1

    def abs_trace(self, x):
        """The Frobenius orbit x + x**p + ... + x**(p**(n-1))."""
        acc = term = x
        for _ in range(self.n - 1):
            term = self.pow(term, self.p)
            acc = self.add(acc, term)
        return acc


@pytest.mark.parametrize("q", odd_prime_powers(3, 81) + [121, 125, 243])
def test_tables_match_digit_loops_exhaustively(q):
    ctx = field_for(q)
    oracle = DigitLoopField(ctx)
    codes = range(q)
    plus = np.array([[oracle.add(a, b) for b in codes] for a in codes])
    times = np.array([[oracle.mul(a, b) for b in codes] for a in codes])
    minus = [oracle.neg(a) for a in codes]
    assert list(ctx.mul_vector(1)) == list(codes)  # exp and log are inverse
    assert list(ctx.square_vector()) == times.diagonal().tolist()
    assert list(ctx.character_vector()) == [oracle.quadratic_character(x) for x in codes]
    assert list(ctx.trace_vector()) == [oracle.abs_trace(x) for x in codes]
    exponents = (-2, -1, 0, 1, 2, 3, (q - 1) // 2, q - 2, q - 1, q, 3 * q + 1)
    for a in codes:
        assert [ctx.add(a, b) for b in codes] == plus[a].tolist()
        assert [ctx.sub(a, b) for b in codes] == plus[a, minus].tolist()
        assert [ctx.mul(a, b) for b in codes] == times[a].tolist()
        assert list(ctx.add_arrays(a, codes)) == plus[a].tolist()
        assert list(ctx.mul_vector(a)) == times[a].tolist()
        assert ctx.neg(a) == minus[a]
        assert ctx.quadratic_character(a) == oracle.quadratic_character(a)
        assert ctx.abs_trace(a) == oracle.abs_trace(a)
        for e in exponents:
            if a or e >= 0:
                assert ctx.pow(a, e) == oracle.pow(a, e), (a, e)
        if a:
            assert ctx.inv(a) == oracle.pow(a, q - 2)


@pytest.mark.parametrize("p, n", [(1048573, 1), (3, 12), (1021, 2)])
def test_tables_match_digit_loops_at_the_order_bound(p, n):
    # built outside make_field's cache, so the tables are freed after the test
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))
    oracle = DigitLoopField(ctx)
    q = ctx.q
    assert q <= DEFAULT_MAX_ORDER
    assert ctx.modulus == list_smallest_irreducible(p, n)
    assert ctx._log_tables()[0][1] == list_primitive_element(p, n, ctx.modulus)
    assert np.array_equal(ctx.mul_vector(1), np.arange(q))  # exp and log are inverse
    rng = random.Random(q)
    sample = [0, 1, p - 1, q - 1] + [rng.randrange(q) for _ in range(100)]
    for a, b in zip(sample, rng.sample(sample, len(sample))):
        assert ctx.add(a, b) == oracle.add(a, b), (a, b)
        assert ctx.sub(a, b) == oracle.sub(a, b), (a, b)
        assert ctx.mul(a, b) == oracle.mul(a, b), (a, b)
        assert ctx.add(a, oracle.neg(a)) == 0
        assert ctx.neg(a) == oracle.neg(a)
        assert ctx.quadratic_character(a) == oracle.quadratic_character(a)
        assert ctx.abs_trace(a) == oracle.abs_trace(a)
        e = rng.randrange(-q, q)
        if a or e >= 0:
            assert ctx.pow(a, e) == oracle.pow(a, e), (a, e)


def test_table_builds_peak_memory_stays_near_the_kept_tables():
    # F_{3^12} keeps about 15 MB of exp, log and digits. Forming a doubling
    # block of exp, or the traces, as one int64 product peaked near 140 / 55 MB.
    ctx = FieldCtx(3, 12, _smallest_irreducible(3, 12))
    tracemalloc.start()
    try:
        ctx._log_tables()
        log_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ctx.trace_vector()
        trace_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_peak < 48 << 20
    assert trace_peak < 48 << 20


# ---------------------------------------------------------------------------
# Oracles: the n x n matrix routes that the packed digit polynomials
# replaced, and the digit matmul that the conditional subtraction of p
# replaced. Polynomials over F_p act on digit rows as n x n matrices: row j
# of the matrix of h holds the digits of h * x**j mod f, so v @ M is v * h.
# matrix_is_irreducible runs Rabin's test on the matrix X of
# multiplication by x; log_tables_by_matrices tests every candidate g from
# code 1 on its n x n matrix, 1 x 1 at n = 1; add_arrays_by_digit_matmul
# reduces the int64 digit sums with % p and recombines them with one matmul.


def _times_x(f, p):
    """The matrix X of multiplication by x mod the monic f: row j holds x**(j+1)."""
    x = np.eye(len(f) - 1, k=1, dtype=np.int64)
    x[-1] = -np.asarray(f[:-1], dtype=np.int64) % p
    return x


def _mat_pow(a, e, p):
    """a**e mod p by square and multiply, for e >= 0."""
    result = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ a % p
        a = a @ a % p
        e >>= 1
    return result


def matrix_is_irreducible(coeffs, p):
    """X**(p**n) = X, then (X**(p**(n/r)) - X)**(p**n - 1) = I for each prime r | n."""
    n = len(coeffs) - 1
    x = _times_x(coeffs, p)
    if not np.array_equal(_mat_pow(x, p**n, p), x):
        return False
    identity = np.eye(n, dtype=np.int64)
    return all(
        np.array_equal(_mat_pow((_mat_pow(x, p ** (n // r), p) - x) % p, p**n - 1, p), identity)
        for r in _prime_divisors(n)
    )


def matrix_smallest_irreducible(p, n):
    for cs in itertools.product(range(p), repeat=n):
        if cs[0] and matrix_is_irreducible(list(cs) + [1], p):
            return cs + (1,)
    raise AssertionError("no irreducible polynomial found")


def log_tables_by_matrices(ctx):
    p, n, q = ctx.p, ctx.n, ctx.q
    x = _times_x(ctx.modulus, p)
    x_powers = np.stack([_mat_pow(x, j, p) for j in range(n)])
    divisors = _prime_divisors(q - 1)
    for code in range(1, q):
        step = np.array(scalar_coeffs(ctx, code)) @ x_powers % p
        if all(not np.array_equal(_mat_pow(step, (q - 1) // r, p), x_powers[0])
               for r in divisors):
            break
    digits, exp = ctx.digits_matrix(), np.ones(1, dtype=np.int64)
    while len(exp) < q - 1:
        exp = np.concatenate(
            [exp] + [digits[exp[rows]] @ step % p @ ctx._powers for rows in _row_chunks(len(exp))]
        )
        step = step @ step % p
    exp = exp[: q - 1]
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    return exp, log


def add_arrays_by_digit_matmul(ctx, a, b):
    digits = ctx.digits_matrix()
    return np.add(digits[a], digits[b], dtype=np.int64) % ctx.p @ ctx._powers


def _assert_same_tables(p, n=1):
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))  # fresh, so nothing is cached
    exp, log = ctx._log_tables()
    want_exp, want_log = log_tables_by_matrices(ctx)
    assert exp[1] == want_exp[1], (p, n)  # g
    assert np.array_equal(exp, want_exp) and np.array_equal(log, want_log), (p, n)


def test_prime_field_tables_match_the_matrix_route_below_3000():
    primes = [p for p in range(3, 3000) if is_prime(p)]
    assert len(primes) == 429
    for p in primes:
        _assert_same_tables(p)


@pytest.mark.parametrize("p", [9973, 65521, 1048573])
def test_prime_field_tables_match_the_matrix_route_at_large_primes(p):
    _assert_same_tables(p)


EXTENSIONS = [prime_power(q) for q in odd_prime_powers(9, 3**7) if prime_power(q)[1] > 1]


def test_extension_field_tables_match_the_matrix_route_to_3_to_the_7():
    assert len(EXTENSIONS) == 22 and EXTENSIONS[-1] == (3, 7)
    for p, n in EXTENSIONS:
        _assert_same_tables(p, n)


@pytest.mark.parametrize("p, n", [(3, 12), (1021, 2), (5, 8)])
def test_extension_field_tables_match_the_matrix_route_at_the_order_bound(p, n):
    _assert_same_tables(p, n)


@pytest.mark.parametrize("p, n", [(3, 2), (3, 5), (11, 2), (5, 3), (7, 4), (1021, 2), (3, 12)])
def test_packed_polys_multiply_like_the_digit_loops(p, n):
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))
    oracle, polys = DigitLoopField(ctx), _PackedPolys(ctx.modulus, p)
    rng = random.Random(ctx.q)
    sample = [0, 1, p - 1, p, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(60)]
    for a, b in zip(sample, rng.sample(sample, len(sample))):
        got = polys.mul(polys.pack(scalar_coeffs(ctx, a)), polys.pack(scalar_coeffs(ctx, b)))
        assert polys.digits(got) == list(scalar_coeffs(ctx, oracle.mul(a, b))), (a, b)
        e = rng.randrange(ctx.q)
        assert polys.digits(polys.pow(polys.pack(scalar_coeffs(ctx, a)), e)) == list(
            scalar_coeffs(ctx, oracle.pow(a, e))), (a, e)
        # a product is carry-free only on reduced coefficients, so a difference is reduced
        got = polys.sub(polys.pack(scalar_coeffs(ctx, a)), polys.pack(scalar_coeffs(ctx, b)))
        assert got == polys.pack(scalar_coeffs(ctx, oracle.sub(a, b))), (a, b)


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3),
                                  (5, 4), (7, 2), (11, 2)])
def test_packed_polys_multiply_only_reduced_polynomials(monkeypatch, p, n):
    # a slot is sized for products of coefficients below p, so Rabin's test
    # and the search for g must reduce every factor (a difference included)
    multiply, calls = _PackedPolys.mul, []

    def checked(self, a, b):
        for c in (a, b):
            assert 0 <= c <= self.low, (p, n, c)  # no bit above slot n - 1
            assert max(self.digits(c)) < p, (p, n, self.digits(c))
        calls.append(1)
        return multiply(self, a, b)

    monkeypatch.setattr(_PackedPolys, "mul", checked)
    FieldCtx(p, n, _smallest_irreducible(p, n))._log_tables()
    assert calls


def smallest_primitive_root(p):
    """The smallest g in [1, p) with pow(g, (p-1)/r, p) != 1 for every prime r | p - 1."""
    divisors = _prime_divisors(p - 1)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in divisors))


def test_prime_field_g_is_the_smallest_primitive_root():
    primes = [p for p in range(3, 10**4) if is_prime(p)] + [1048573]
    assert len(primes) == 1229
    for p in primes:
        # built outside make_field's cache, so the tables are freed after each field
        assert FieldCtx(p, 1, (0, 1))._log_tables()[0][1] == smallest_primitive_root(p), p


@pytest.mark.parametrize("p, n", [(3, 1), (7, 1), (1021, 1), (11, 2), (5, 3), (3, 7)])
def test_extension_field_tables_make_no_scalar_field_calls(monkeypatch, p, n):
    def refuse(*args):
        raise AssertionError("scalar FieldCtx call while building the tables")

    for name in ("add", "sub", "neg", "mul", "pow", "inv", "quadratic_character", "abs_trace"):
        monkeypatch.setattr(FieldCtx, name, refuse)
    exp, log = FieldCtx(p, n, _smallest_irreducible(p, n))._log_tables()
    assert len(exp) == p**n - 1 and log[1] == 0


def _assert_sums_match_the_digit_matmul(ctx, pairs):
    for a, b in pairs:
        got, want = ctx.add_arrays(a, b), add_arrays_by_digit_matmul(ctx, a, b)
        assert np.shape(got) == np.shape(want), (ctx, np.shape(a), np.shape(b))
        assert np.asarray(got).dtype == np.int64
        assert np.array_equal(got, want), (ctx, a, b)


@pytest.mark.parametrize("q", odd_prime_powers(3, 4096))
def test_sums_match_the_digit_matmul(q):
    p, n = prime_power(q)
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))
    codes = np.arange(q)
    rng = np.random.default_rng(q)
    rows = np.concatenate([[0, 1, p - 1, q - 1], rng.integers(0, q, 4)])[:, None]
    _assert_sums_match_the_digit_matmul(ctx, [
        (rows, codes),  # 8 x q, every carry pattern of a digit against each row
        (q - 1, q - 1), (0, 0), (np.int64(p - 1), 1),  # scalars
        (q - 1, codes), (codes, np.int64(1)),
        (rng.integers(0, q, (3, 1, 2)), rng.integers(0, q, (4, 1))),  # broadcast to (3, 4, 2)
        (np.array([], dtype=np.int64), 5 % q),
    ])


def test_sums_match_the_digit_matmul_at_3_to_the_12():
    ctx = FieldCtx(3, 12, _smallest_irreducible(3, 12))
    rng = np.random.default_rng(12)
    a, b = rng.integers(0, ctx.q, 20000), rng.integers(0, ctx.q, 20000)
    _assert_sums_match_the_digit_matmul(ctx, [
        (a, b), (a[:100, None], b[:100]), (ctx.q - 1, ctx.q - 1), (ctx.q - 1, a),
    ])


@pytest.mark.parametrize("q", odd_prime_powers(3, 256))
def test_neg_vector_is_scalar_neg_at_every_code(q):
    ctx = field_for(q)
    negs = ctx.neg_vector()
    assert negs.tolist() == [ctx.neg(x) for x in range(q)]
    assert not ctx.add_arrays(np.arange(q), negs).any()  # x + (-x) = 0
    assert ctx.neg_vector() is negs  # cached


@pytest.mark.parametrize("p, n", [(3, 12), (1048573, 1)])
def test_neg_vector_matches_multiplying_by_minus_one_at_the_order_bound(p, n):
    # built outside make_field's cache, so the tables are freed after the test
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))
    negs = ctx.neg_vector()
    assert negs.dtype == np.int64
    assert np.array_equal(negs, ctx.mul_vector(p - 1))  # the code p - 1 is -1
    assert not ctx.add_arrays(np.arange(ctx.q), negs).any()
    assert ctx.neg_vector() is negs


@pytest.mark.parametrize("q", [3, 7, 1021, 9, 125, 729])
def test_add_table_matches_the_sums_at_every_pair(q):
    # the table's digit sums mod p share no reduction with add_arrays: n = 1 and n > 1
    p, n = prime_power(q)
    ctx = FieldCtx(p, n, _smallest_irreducible(p, n))
    table, codes = ctx.add_table(), np.arange(q)
    assert table.shape == (q, q) and table.dtype == np.int64
    assert np.array_equal(table, ctx.add_arrays(codes[:, None], codes))
    assert ctx.add_table() is table  # cached


def test_add_table_refuses_an_order_above_the_table_bound_before_building():
    ctx = FieldCtx(1031, 1, _smallest_irreducible(1031, 1))
    assert ctx.q > TABLE_MAX_ORDER
    assert refused_peak(ctx.add_table) < 1 << 16  # the table would be 8.5 MB


@pytest.mark.parametrize("code", [-1, 9])
def test_scalar_calls_refuse_a_code_outside_the_field(code):
    f9 = make_field(3, 2)
    calls = [lambda: f9.add(code, 1), lambda: f9.add(1, code), lambda: f9.mul(code, 1),
             lambda: f9.mul(1, code), lambda: f9.pow(code, 2), lambda: f9.quadratic_character(code)]
    for call in calls:
        with pytest.raises(ValueError, match=rf"element code {code} outside \[0, 9\)"):
            call()
