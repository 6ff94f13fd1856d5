"""Polynomials in one variable over Q, Z and F_p.

Coefficients run lowest degree first, with no trailing zeros (`_trim`).
Over Q, `Polynomial` is a record with ring operations, and `poly_roots`
gives the float root labels of the exceptional locus.  Every gcd,
square-free part, Yun factor and rational root runs over Z, on primitive
integer polynomials (`_integer_primitive`): the primitive remainder
sequence (`_gcd_ints`), exact quotients, Yun's `_squarefree_factors`,
and `_rational_roots`, with multiplicity, from the divisors of the end
coefficients (`_factor` is trial division).  Over F_p, p prime: division
by a monic polynomial, products and powers modulo one, monic gcds,
synthetic division, and `_split_roots`, the roots of a product of
distinct linear factors (Cantor-Zassenhaus).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Sequence

from .dynkin import InputTooLarge, _Frozen
from .linalg import frac


def _trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


# -- Q[t] -------------------------------------------------------------------------

class Polynomial(_Frozen):
    """Dense univariate polynomial, rational coefficients, ascending order.

    The coefficient tuple is canonical: no trailing zeros, so the zero
    polynomial is the empty tuple and degree is len - 1 (or -1 for zero).
    """

    __slots__ = _fields = ("coefficients",)

    @classmethod
    def of(cls, coeffs: Polynomial | Sequence) -> Polynomial:
        """The polynomial with these ascending coefficients; a Polynomial comes back as is."""
        if isinstance(coeffs, Polynomial):
            return coeffs
        return cls(tuple(_trim([frac(c) for c in coeffs])))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls.of([c])

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls.of([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return Polynomial.of(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple(c * x for x in self.coefficients))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial.of(out)

    def __call__(self, x) -> Fraction:
        """Horner evaluation at a rational x; exact."""
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def poly_roots(p: Polynomial) -> list[tuple[complex, int]]:
    """Complex roots with exact multiplicities, sorted by (real, imag).

    Multiplicities come from Yun's square-free decomposition over Z
    (`_squarefree_factors`), whose factors are square-free and coprime,
    so no root repeats.  Each factor is read through its monic
    coefficients, as floats: a linear factor t + c0 gives its root -c0
    directly (0.0 for c0 = 0, as the companion-matrix solver returns it);
    longer factors go to that solver (numpy), whose simple roots are well
    conditioned.  The locations are float labels: InputTooLarge when a
    monic coefficient leaves the float range.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root locus")
    entries: list[tuple[complex, int]] = []
    for g, mult in _squarefree_factors(_integer_primitive(p.coefficients)):
        try:
            coeffs = [float(Fraction(c, g[-1])) for c in reversed(g)]
        except OverflowError:
            raise InputTooLarge("a root lies beyond the float range of the points") from None
        if len(g) == 2:
            entries.append((complex(-coeffs[1] if coeffs[1] else 0.0), mult))
            continue
        import numpy as np
        entries.extend((complex(r), mult) for r in np.roots(coeffs))
    return sorted(entries, key=lambda e: (e[0].real, e[0].imag))


# -- Z[t] -------------------------------------------------------------------------

def _integer_primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer coefficients proportional to nonzero rational ones."""
    d = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (d // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _gcd_ints(x: list[int], y: list[int]) -> list[int]:
    """A primitive greatest common divisor of primitive integer polynomials ([] for two zeros).

    Runs the primitive remainder sequence: the content is divided out of
    every pseudo-remainder, which keeps the integers near the size of the
    result, where Euclid over Q lets them grow at every step.
    """
    if len(x) < len(y):
        x, y = y, x
    while y:
        lead, r = y[-1], list(x)
        while len(r) >= len(y):            # pseudo-remainder: lead^k * x mod y
            f = r.pop()
            k = len(r) - len(y) + 1
            r = [c * lead for c in r]
            for i, c in enumerate(y[:-1]):
                r[k + i] -= f * c
            _trim(r)
        x, y = y, (_integer_primitive(r) if r else [])
    return x


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b primitive and dividing a over Q; by Gauss's
    lemma the quotient has integer coefficients, so every step divides exactly."""
    a, top = list(a), len(b) - 1
    q = [0] * (len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        if c := a[k + top] // b[-1]:
            q[k] = c
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q


def _derivative(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _squarefree_ints(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a nonzero primitive integer polynomial f, primitive too."""
    return _exact_quotient(f, _gcd_ints(f, _integer_primitive(_derivative(f))))


def _squarefree_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a nonzero primitive integer polynomial:
    f = +-prod g_i^i, as the (g_i, i) with g_i of positive degree, i ascending.

    Each g_i is primitive, square-free and coprime to the others.  With
    a = gcd(f, f'), b = f / a and c = f' / a, each step takes
    g = gcd(b, c - b') and goes on with b / g and (c - b') / g, every
    quotient exact over Z (Gauss's lemma).  b and c keep one scale, so a
    derivative is made primitive only where it enters a gcd, never where
    it is divided.
    """
    df = _derivative(f)
    a = _gcd_ints(f, _integer_primitive(df))
    b, c = _exact_quotient(f, a), _exact_quotient(df, a)
    out, i = [], 1
    while len(b) > 1:
        z = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g = _gcd_ints(b, _integer_primitive(z))
        if len(g) > 1:
            out.append((g, i))
        b, c, i = _exact_quotient(b, g), _exact_quotient(z, g), i + 1
    return out


def _factor(n: int) -> list[int]:
    """The prime factors of nonzero n with repetition, ascending, by trial division."""
    n, out, q = abs(n), [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _divisors(n: int) -> list[int]:
    """The positive divisors of nonzero n, ascending."""
    out = {1}
    for q in _factor(n):
        out |= {d * q for d in out}
    return sorted(out)


def _rational_roots(coeffs: Sequence) -> dict[Fraction, int]:
    """The rational roots of a nonzero rational polynomial, ascending, with multiplicity.

    Zero is a root as often as the coefficients start with zero; the rest
    is made primitive over Z.  A candidate p/q in lowest terms, p | c_0
    and q | c_d, is a root iff sum_i c_i p^i q^(d-i) = 0; each root found
    is divided out as the integer factor q t - p, and counted as (p, q).
    Once the rest is linear, its root is read off its two coefficients.
    """
    zeros = next(i for i, c in enumerate(coeffs) if c)
    counts = {(0, 1): zeros} if zeros else {}
    work = _integer_primitive(coeffs[zeros:])
    if len(work) > 2:
        heads = _divisors(work[0])
        for p, q in ((s * h, q) for q in _divisors(work[-1]) for h in heads if gcd(h, q) == 1
                     for s in (1, -1)):
            while len(work) > 2:
                acc, qk = work[-1], 1
                for c in reversed(work[:-1]):
                    qk *= q
                    acc = acc * p + c * qk
                if acc:
                    break
                counts[p, q] = counts.get((p, q), 0) + 1
                b = 0
                for k in range(len(work) - 1, 0, -1):
                    b = work[k] = (work[k] + p * b) // q
                del work[0]
            if len(work) == 2:
                break
    if len(work) == 2:                  # primitive, so -c_0 / c_1 is in lowest terms
        p, q = (-work[0], work[1]) if work[1] > 0 else (work[0], -work[1])
        counts[p, q] = counts.get((p, q), 0) + 1
    return dict(sorted((Fraction(p, q), k) for (p, q), k in counts.items()))


# -- F_p[t] -----------------------------------------------------------------------

def _divmod(a: list, f: list, p: int) -> tuple[list, list]:
    """(quotient, remainder) of a by monic f."""
    a, df, low = list(a), len(f) - 1, f[:-1]
    q = [0] * max(0, len(a) - df)
    for k in range(len(a) - 1, df - 1, -1):
        c = q[k - df] = a[k] % p
        if c:
            a[k - df:k] = [x - c * y for x, y in zip(a[k - df:k], low)]
    return q, _trim([x % p for x in a[:df]])


def _mulmod(a: list, b: list, f: list, p: int) -> list:
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    out, n = [0] * (len(a) + len(b) - 1), len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], b)]
    return _divmod(out, f, p)[1]


def _powmod(base: list, e: int, f: list, p: int) -> list:
    """base^e mod f, squaring from the top bit down (cheap for a short base)."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, base, f, p)
    return out


def _monic_gcd(a: list, b: list, p: int) -> list:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        lead = pow(b[-1], -1, p)
        b = [c * lead % p for c in b]
        a, b = b, _divmod(a, b, p)[1]
    lead = pow(a[-1], -1, p)
    return [c * lead % p for c in a]


def _quotient(a: list, root: int, p: int) -> tuple[list, int]:
    """(a / (x - root), a(root)) by synthetic division."""
    acc, out = 0, []
    for c in reversed(a):
        acc = (acc * root + c) % p
        out.append(acc)
    return out[-2::-1], out[-1]


def _split_roots(f: list, p: int) -> list[int] | None:
    """The roots of monic f in F_p, or None unless f splits into distinct linear
    factors there.

    Factors are separated by gcds with (x + a)^((p - 1) / 2) - 1 for
    a = 0, 1, 2, ... (Cantor and Zassenhaus, with the shifts taken in
    order, each part going on from the shift that made it); a factor that
    no shift below p separates is not a product of distinct linear
    factors.
    """
    roots, stack = [], [(f, 0)]
    while stack:
        g, start = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        for a in range(start, p):
            h = _powmod([a, 1], (p - 1) // 2, g, p)
            h = _trim([(h[0] if h else 0) - 1] + h[1:])
            d = _monic_gcd(g, h, p) if h else g
            if 1 < len(d) < len(g):
                # every shift up to a leaves the roots of each part on one side
                stack += [(d, a + 1), (_divmod(g, d, p)[0], a + 1)]
                break
        else:
            return None
    # a repeated factor comes apart into equal roots
    return roots if len(set(roots)) == len(roots) else None
