"""Polynomials in one variable over Q, Z and F_p.

Coefficients run lowest degree first, with no trailing zeros (`_trim`).
Over Q: `Polynomial`, monic gcds by a primitive remainder sequence on
integers (`poly_gcd`), Yun's square-free decomposition and the float
root labels of the exceptional locus (`poly_roots`).  Over Z, on
primitive polynomials: gcds (`_gcd_ints`, the sequence `poly_gcd` runs),
exact quotients and square-free parts; and every rational root with its
multiplicity, from the divisors of the end coefficients
(`_rational_roots`; `_factor` is trial division).  Over
F_p, p prime: division by a monic polynomial, products and powers modulo
one, monic gcds, synthetic division, and `_split_roots`, the roots of a
product of distinct linear factors (Cantor-Zassenhaus).
"""

from __future__ import annotations

from fractions import Fraction
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

    def derivative(self) -> "Polynomial":
        return Polynomial.of([i * c for i, c in enumerate(self.coefficients)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coefficients[-1]
        return Polynomial(tuple(c / lead for c in self.coefficients))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        div = other.coefficients
        q = [Fraction(0)] * max(0, len(rem) - len(div) + 1)
        while len(rem) >= len(div):
            f = rem[-1] / div[-1]
            k = len(rem) - len(div)
            q[k] = f
            for i, d in enumerate(div):
                rem[k + i] -= f * d
            if not _trim(rem):
                break
        return Polynomial.of(q), Polynomial.of(rem)


def _integer_primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer coefficients proportional to nonzero rational ones."""
    d = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (d // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals, by `_gcd_ints` on the primitive
    integer polynomials proportional to a and b."""
    return Polynomial.of(_gcd_ints(_integer_primitive(a.coefficients),
                                   _integer_primitive(b.coefficients))).monic()


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


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p = lead * prod g_i^i with g_i square-free and coprime."""
    if p.degree < 1:
        return []
    p = p.monic()
    d = p.derivative()
    a = poly_gcd(p, d)
    b = p.divmod(a)[0]
    c = d.divmod(a)[0]
    out = []
    i = 1
    while b.degree > 0:
        z = c - b.derivative()
        g = poly_gcd(b, z)
        if g.degree > 0:
            out.append((g, i))
        b = b.divmod(g)[0]
        c = z.divmod(g)[0]
        i += 1
    return out


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic p / gcd(p, p'): one simple factor per distinct root of nonzero p."""
    return Polynomial.of(_squarefree_ints(_integer_primitive(p.coefficients))).monic()


def _squarefree_ints(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a nonzero primitive integer polynomial f, primitive too."""
    return _exact_quotient(f, _gcd_ints(f, _integer_primitive(
        [k * c for k, c in enumerate(f)][1:])))


def poly_roots(p: Polynomial) -> list[tuple[complex, int]]:
    """Complex roots with exact multiplicities, sorted by (real, imag).

    Multiplicities come from the square-free decomposition, whose factors
    are monic, square-free and coprime, so no root repeats.  A linear
    factor t + c0 gives its root -c0 directly (0.0 for c0 = 0, as the
    companion-matrix solver returns it); longer factors go to that
    solver (numpy), whose simple roots are well conditioned.  The
    locations are float labels: InputTooLarge when a factor's
    coefficients leave the float range.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root locus")
    entries: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        try:
            coeffs = [float(c) for c in reversed(factor.coefficients)]
        except OverflowError:
            raise InputTooLarge("a root lies beyond the float range of the points") from None
        if factor.degree == 1:
            entries.append((complex(-coeffs[1] if coeffs[1] else 0.0), mult))
            continue
        import numpy as np
        entries.extend((complex(r), mult) for r in np.roots(coeffs))
    return sorted(entries, key=lambda e: (e[0].real, e[0].imag))


# -- Z[t] -------------------------------------------------------------------------

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
