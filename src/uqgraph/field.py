"""Exact arithmetic in F_{p^n} for odd primes p.

An element is identified with its canonical code: the integer
sum(c[j] * p**j) built from its little-endian coefficient vector
(c[0], ..., c[n-1]) over F_p. Codes run through [0, q) and give the
canonical element ordering used by every other module. The modulus is
the lexicographically smallest monic irreducible polynomial of degree n
(coefficients compared constant term first), so a field of a given
order is identical across runs.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    DivisionByZeroError,
    EvenCharacteristicError,
    NonPrimeError,
    TooLargeError,
)

DEFAULT_MAX_ORDER = 1 << 20
TABLE_MAX_ORDER = 1 << 10  # q x q lookup tables are only built below this


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, n) with q = p**n and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    p = q
    for f in range(2, math.isqrt(q) + 1):
        if q % f == 0:
            p = f
            break
    n = 0
    rest = q
    while rest % p == 0:
        rest //= p
        n += 1
    return (p, n) if rest == 1 else None


# ---------------------------------------------------------------------------
# Polynomials over F_p as trimmed little-endian coefficient lists.


def _trim(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem(a, b, p) -> list[int]:
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


def _poly_mul(a, b, p) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_powmod(base, e, f, p) -> list[int]:
    result = [1]
    base = _poly_rem(base, f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p) -> list[int]:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(coeffs, p) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    A root screen settles degree <= 3 (any factorization of such a
    polynomial has a linear factor); the x**(p**k) - x gcd test covers
    the general case.
    """
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


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    # product() varies the last entry fastest, which is exactly the
    # low-degree-first comparison order for (c0, ..., c_{n-1}).
    # Candidates with zero constant term are divisible by x, skip them.
    for cs in itertools.product(range(p), repeat=n):
        if cs[0] == 0:
            continue
        candidate = list(cs) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """Immutable arithmetic context for F_{p^n}.

    All element arguments and results are canonical integer codes in
    [0, q). Operations are pure, so a context can be shared freely.
    """

    __slots__ = ("p", "n", "q", "modulus", "_add_tab", "_squares", "_traces", "_digits")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = tuple(modulus)
        self._add_tab = None
        self._squares = None
        self._traces = None
        self._digits = None

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, q={self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    # -- element codes ------------------------------------------------------

    def _check(self, x: int) -> None:
        if not 0 <= x < self.q:
            raise ValueError(f"element code {x} outside [0, {self.q})")

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of an element code."""
        self._check(code)
        out = []
        for _ in range(self.n):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def element(self, coeffs) -> int:
        """Canonical code of the element with the given coefficient vector."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p = self.p
        if self.n == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p = self.p
        if self.n == 1:
            return (a - b) % p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((a % p - b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        p = self.p
        if self.n == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p, n = self.p, self.n
        if n == 1:
            return (a * b) % p
        ca = []
        cb = []
        x, y = a, b
        for _ in range(n):
            ca.append(x % p)
            cb.append(y % p)
            x //= p
            y //= p
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] += ai * bj
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(n):
                    prod[i - n + j] -= c * mod[j]
        code = 0
        for j in range(n - 1, -1, -1):
            code = code * p + prod[j] % p
        return code

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation; negative e inverts first."""
        self._check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    # -- characters ---------------------------------------------------------

    def quadratic_character(self, x: int) -> int:
        """x**((q-1)/2) collapsed to {-1, 0, +1}, with 0 at x = 0."""
        self._check(x)
        if x == 0:
            return 0
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1

    def square_roots(self, x: int) -> set[int]:
        """All y with y*y = x, found by exhaustive search."""
        self._check(x)
        squares = self.square_vector()
        return {int(y) for y in np.flatnonzero(squares == x)}

    def abs_trace(self, x: int) -> int:
        """Sum of the Frobenius orbit x + x**p + ... + x**(p**(n-1)), in [0, p)."""
        self._check(x)
        acc = x
        term = x
        for _ in range(self.n - 1):
            term = self.pow(term, self.p)
            acc = self.add(acc, term)
        assert acc < self.p, "trace left the prime subfield"
        return acc

    # -- cached bulk tables for the graph and spectral modules --------------

    def digits_matrix(self) -> np.ndarray:
        """(q, n) array of little-endian digits for every element code."""
        if self._digits is None:
            digs = np.empty((self.q, self.n), dtype=np.int64)
            rest = np.arange(self.q, dtype=np.int64)
            for j in range(self.n):
                digs[:, j] = rest % self.p
                rest = rest // self.p
            self._digits = digs
        return self._digits

    def add_table(self) -> np.ndarray:
        """q x q addition table over codes, for vectorized graph building."""
        if self._add_tab is None:
            if self.q > TABLE_MAX_ORDER:
                raise TooLargeError(
                    f"q={self.q} exceeds the lookup-table bound {TABLE_MAX_ORDER}"
                )
            digs = self.digits_matrix()
            table = np.zeros((self.q, self.q), dtype=np.int64)
            w = 1
            for j in range(self.n):
                table += ((digs[:, None, j] + digs[None, :, j]) % self.p) * w
                w *= self.p
            self._add_tab = table
        return self._add_tab

    def square_vector(self) -> np.ndarray:
        """squares[x] = x*x for every code x."""
        if self._squares is None:
            self._squares = np.array(
                [self.mul(x, x) for x in range(self.q)], dtype=np.int64
            )
        return self._squares

    def trace_vector(self) -> np.ndarray:
        """traces[x] = abs_trace(x) for every code x."""
        if self._traces is None:
            if self.n == 1:
                self._traces = np.arange(self.q, dtype=np.int64)
            else:
                self._traces = np.array(
                    [self.abs_trace(x) for x in range(self.q)], dtype=np.int64
                )
        return self._traces


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int = 1, max_order: int = DEFAULT_MAX_ORDER) -> FieldCtx:
    """Build the canonical F_{p^n} context for an odd prime p.

    The modulus is deterministic (smallest irreducible, constant term
    compared first), so repeated calls agree across runs and the result
    is cached.
    """
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    if p == 2:
        raise EvenCharacteristicError("characteristic 2 is not supported")
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    q = p**n
    if q > max_order:
        raise TooLargeError(f"q={q} exceeds the order bound {max_order}")
    return FieldCtx(p, n, _smallest_irreducible(p, n))
