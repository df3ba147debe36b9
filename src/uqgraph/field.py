"""Exact arithmetic in F_{p^n} for odd primes p.

An element is identified with its canonical code: the integer
sum(c[j] * p**j) built from its little-endian coefficient vector
(c[0], ..., c[n-1]) over F_p. Codes run through [0, q) and give the
canonical element ordering used by every other module. The modulus is
the lexicographically smallest monic irreducible polynomial of degree n
(coefficients compared constant term first), so a field of a given
order is identical across runs.

Polynomials mod f are packed into Python ints, one slot of bits per
coefficient, and a product folds its high coefficients back through
x**(n+k) mod f, so nothing divides polynomials. On them Rabin's
irreducibility test chooses the modulus and the order test
g**((q-1)/r) != 1 chooses g, by square and multiply, for every n.

A sum adds digits: each digit sum is below 2p, so one conditional
subtraction of p reduces it, and Horner recombines the digits (at n = 1
the codes are the digits). Products are table lookups: on first use a
context builds exp[k] = g**k for the smallest primitive element g and
its inverse log; a product adds logarithms and the quadratic character
is the parity of the logarithm. Results are field elements, never
logarithms, so the choice of g does not show.
"""

from __future__ import annotations

import functools
import itertools

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
    return _prime_divisors(n) == [n]


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, n) with q = p**n and p prime, or None if q is not a prime power."""
    divisors = _prime_divisors(q)
    if len(divisors) != 1:
        return None
    p, n = divisors[0], 0
    while q > 1:
        q //= p
        n += 1
    return p, n


class _PackedPolys:
    """F_p[x]/(f) on Python ints, for Rabin's test on a candidate modulus f
    and the search for g: a polynomial sum(c[j] * x**j) of degree below n
    is the int sum(c[j] << shifts[j]), one slot of bits per coefficient.

    A product is one int multiplication; its n - 1 high slots fold back
    through x**(n + k) mod f, and each slot is reduced mod p. A slot holds
    2n(p-1)**2, above any coefficient before reduction when both factors
    have reduced coefficients, so nothing carries from one slot into the
    next. A difference is therefore reduced slot by slot before it is used.
    """

    def __init__(self, f, p):
        n = len(f) - 1
        slot = (2 * n * (p - 1) ** 2).bit_length()
        self.p, self.mask, self.low = p, (1 << slot) - 1, (1 << (slot * n)) - 1
        self.shifts = [slot * j for j in range(n)]
        x_n = [-c % p for c in f[:n]]  # x**n mod f
        self.folds, row = [], x_n
        for k in range(n - 1):  # x**(n + k) mod f, for slot n + k of a product
            self.folds.append((slot * (n + k), self.pack(row)))
            row = [((row[j - 1] if j else 0) + row[-1] * x_n[j]) % p for j in range(n)]

    def pack(self, digits) -> int:
        return sum(d << t for d, t in zip(digits, self.shifts))

    def digits(self, a: int) -> list[int]:
        return [(a >> t) & self.mask for t in self.shifts]

    def sub(self, a: int, b: int) -> int:
        return self.pack([(c - d) % self.p for c, d in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        p, mask, prod = self.p, self.mask, a * b
        acc = prod & self.low
        for shift, fold in self.folds:
            acc += ((prod >> shift) & mask) % p * fold
        return sum(((acc >> t) & mask) % p << t for t in self.shifts)

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply, for e >= 0."""
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; [] below 2."""
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
    """Irreducibility of a monic polynomial f of degree n >= 2 over F_p (Rabin).

    x**(p**n) = x mod f says f divides x**(p**n) - x, so F_p[x]/(f) is a
    product of fields of orders dividing p**n. There h is a unit exactly
    when h**(p**n - 1) = 1, which stands in for gcd(h, f) = 1 with
    h = x**(p**(n/r)) - x for each prime r dividing n.
    """
    n = len(coeffs) - 1
    polys = _PackedPolys(coeffs, p)
    x = 1 << polys.shifts[1]
    if polys.pow(x, p**n) != x:
        return False
    return all(polys.pow(polys.sub(polys.pow(x, p ** (n // r)), x), p**n - 1) == 1
               for r in _prime_divisors(n))


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


def _row_chunks(n_rows: int):
    """Slices of 2**15 rows covering range(n_rows), so int64 products stay small."""
    return (slice(start, start + (1 << 15)) for start in range(0, n_rows, 1 << 15))


class FieldCtx:
    """Immutable arithmetic context for F_{p^n}.

    All element arguments and results are canonical integer codes in
    [0, q). Operations are pure, so a context can be shared freely.

    The first operation builds O(q) tables that the context keeps, and
    make_field caches contexts for the life of the process: 16 bytes per
    element for exp and log, n digit bytes (4 at large p), 8 more per cached
    vector. At q = 1048573 that is about 46 MB kept; F_{3^12} keeps 32 MB.
    Products over the digits run in row chunks, so building exp at F_{3^12}
    peaks near 23 MB (tracemalloc).
    """

    __slots__ = ("p", "n", "q", "modulus", "_powers", "_add_tab", "_squares", "_traces",
                 "_negs", "_digits", "_exp", "_log")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = tuple(modulus)
        # p**j for j < n: the digit weights, and the codes of the basis x**j
        self._powers = p ** np.arange(n, dtype=np.int64)
        self._add_tab = None
        self._squares = None
        self._traces = None
        self._negs = None
        self._digits = None
        self._exp = self._log = None

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

    # -- arithmetic: sums by digits, products by discrete logarithms ---------

    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) over the smallest primitive element g, built on first use.

        exp[k] = g**k for k in [0, q-1); log inverts exp and holds -1 at 0.
        """
        if self._exp is None:
            p, n, q = self.p, self.n, self.q
            # g is the first code of order q - 1, by powers of its packed digit
            # polynomial; at n > 1 the codes below p lie in F_p, of order
            # dividing p - 1, so none is g. Multiplying by h is F_p-linear:
            # row j of step holds the digits of h * x**j, starting from h = g.
            polys, divisors = _PackedPolys(self.modulus, p), _prime_divisors(q - 1)
            g = next(a for a in map(polys.pack, map(self.coeffs, range(1 if n == 1 else p, q)))
                     if all(polys.pow(a, (q - 1) // r) != 1 for r in divisors))
            step = np.array([polys.digits(polys.mul(g, 1 << t)) for t in polys.shifts],
                            dtype=np.int64)
            digits, exp = self.digits_matrix(), np.ones(1, dtype=np.int64)
            while len(exp) < q - 1:  # exp[L:2L] = exp[:L] * g**L, then h = g**2L
                exp = np.concatenate(
                    [exp] + [digits[exp[rows]] @ step % p @ self._powers
                             for rows in _row_chunks(len(exp))]
                )
                step = step @ step % p
            exp = exp[: q - 1]
            log = np.full(q, -1, dtype=np.int64)
            log[exp] = np.arange(q - 1, dtype=np.int64)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(self.add_arrays(a, b))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        exp, log = self._log_tables()
        return int(exp[(log[a] + log[b]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        """a**e; negative e inverts first."""
        self._check(a)
        if a == 0:
            if e < 0:
                raise DivisionByZeroError("0 has no multiplicative inverse")
            return 0 if e else 1
        exp, log = self._log_tables()
        return int(exp[int(log[a]) * e % (self.q - 1)])

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    # -- characters ---------------------------------------------------------

    def quadratic_character(self, x: int) -> int:
        """+1 on nonzero squares (even logarithm), -1 on nonsquares, 0 at 0."""
        self._check(x)
        if x == 0:
            return 0
        return -1 if self._log_tables()[1][x] % 2 else 1

    def abs_trace(self, x: int) -> int:
        """Sum of the Frobenius orbit x + x**p + ... + x**(p**(n-1)), in [0, p)."""
        self._check(x)
        return int(self.trace_vector()[x])

    # -- bulk vectors over every element code -------------------------------

    def digits_matrix(self) -> np.ndarray:
        """(q, n) array of little-endian digits for every element code, in the
        narrowest unsigned dtype that holds p - 1."""
        if self._digits is None:
            codes = np.arange(self.q, dtype=np.int64)
            self._digits = np.empty((self.q, self.n), dtype=np.min_scalar_type(self.p - 1))
            for j in range(self.n):
                self._digits[:, j] = codes % self.p
                codes //= self.p
        return self._digits

    def add_table(self) -> np.ndarray:
        """q x q addition table over codes. Library sums all go through add_arrays;
        this table stays as the tests' independent oracle, and perfbench traces it."""
        if self._add_tab is None:
            if self.q > TABLE_MAX_ORDER:
                raise TooLargeError(
                    f"q={self.q} exceeds the lookup-table bound {TABLE_MAX_ORDER}"
                )
            codes = np.arange(self.q, dtype=np.int64)
            self._add_tab = self.add_arrays(codes[:, None], codes)
        return self._add_tab

    def add_arrays(self, a, b) -> np.ndarray:
        """Elementwise a + b over code arrays (or codes), broadcast like numpy.

        A sum of two digits is below 2p, so one conditional subtraction
        reduces it: in an unsigned dtype d - p wraps above d exactly when
        d < p, and min(d, d - p) is d mod p. At n = 1 the digits are the
        codes; otherwise each digit column is summed in uint16 and the
        columns are recombined by Horner, highest digit first.
        """
        if np.ndim(a) == np.ndim(b) == 0:  # the reduction below works in place, on arrays
            return self.add_arrays(np.array([a]), b)[0]
        p = self.p
        if self.n == 1:
            sums = np.add(a, b, dtype=np.int64)
            wrapped = sums.view(np.uint64)
            np.minimum(wrapped, wrapped - p, out=wrapped)
            return sums
        sums = np.int64(0)
        for column in self.digits_matrix().T[::-1]:
            digit = np.add(column[a], column[b], dtype=np.uint16)
            np.minimum(digit, digit - p, out=digit)
            sums = sums * p + digit
        return sums

    def mul_vector(self, c: int) -> np.ndarray:
        """products[x] = c * x for every code x."""
        self._check(c)
        exp, log = self._log_tables()
        products = exp[(log + log[c]) % (self.q - 1)]
        products[(log < 0) | (log[c] < 0)] = 0  # log is -1 at zero
        return products

    def character_vector(self) -> np.ndarray:
        """chars[x] = quadratic_character(x) for every code x."""
        chars = 1 - 2 * (self._log_tables()[1] % 2)
        chars[0] = 0
        return chars

    def power_vector(self, e: int) -> np.ndarray:
        """powers[x] = x**e for every code x, for e >= 1."""
        exp, log = self._log_tables()
        powers = exp[log * e % (self.q - 1)]
        powers[0] = 0  # log is -1 at zero
        return powers

    def square_vector(self) -> np.ndarray:
        """squares[x] = x*x for every code x."""
        if self._squares is None:
            self._squares = self.power_vector(2)
        return self._squares

    def neg_vector(self) -> np.ndarray:
        """negs[x] = -x for every code x: each digit d becomes (p - d) % p, recombined by Horner."""
        if self._negs is None:
            negs = np.zeros(self.q, dtype=np.int64)
            for column in self.digits_matrix().T[::-1]:
                negs = negs * self.p + (self.p - column) % self.p
            self._negs = negs
        return self._negs

    def trace_vector(self) -> np.ndarray:
        """traces[x] = abs_trace(x) for every code x.

        The trace is F_p-linear: the digits of x dotted with the traces of
        the basis elements x**j, each the sum of its orbit (x**j)**(p**i).
        """
        if self._traces is None:
            exp, log = self._log_tables()
            powers, digits = self._powers, self.digits_matrix()
            orbits = exp[log[powers][:, None] * powers % (self.q - 1)]
            basis = digits[orbits, 0].sum(axis=1, dtype=np.int64) % self.p
            self._traces = np.concatenate(
                [digits[rows] @ basis % self.p for rows in _row_chunks(self.q)]
            )
        return self._traces


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int = 1) -> FieldCtx:
    """Build the canonical F_{p^n} context for an odd prime p.

    The modulus is deterministic (smallest irreducible, constant term
    compared first), so repeated calls agree across runs and the result
    is cached.
    """
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    if p == 2:
        raise EvenCharacteristicError("characteristic 2 is not supported")
    # With p >= 3 an n of DEFAULT_MAX_ORDER.bit_length() or more is over the
    # bound already, so a huge p or n is rejected before trial division and p**n.
    if p > DEFAULT_MAX_ORDER or n >= DEFAULT_MAX_ORDER.bit_length():
        raise TooLargeError(f"q={p}**{n} exceeds the order bound {DEFAULT_MAX_ORDER}")
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    q = p**n
    if q > DEFAULT_MAX_ORDER:
        raise TooLargeError(f"q={q} exceeds the order bound {DEFAULT_MAX_ORDER}")
    return FieldCtx(p, n, _smallest_irreducible(p, n))
