"""Deformation parameters: one polynomial per affine node, tied by the marks.

A parameter assigns each node a polynomial in one variable with exact
rational coefficients.  The geometric regime demands
sum_a delta_a * Theta_a = 0 identically; `complete_affine_theta` solves
for the affine node's polynomial, and the `constrained` flag records
whether a given parameter satisfies the identity.

Projections along positive roots, their vanishing loci on the affine
line, and the genericity test live here too.  Genericity and root
multiplicities are decided exactly (gcds and square-free decomposition
over the rationals); root locations are float labels that no verdict
reads: read off directly for linear square-free factors, companion-matrix
eigenvalues (numpy) for longer ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .dynkin import (MAX_DEGREE, DynkinType, InputTooLarge, Root, is_positive_root, marks,
                     node_labels, positive_roots)
from .linalg import ComputeFailure, frac


class NotARoot(ComputeFailure):
    """The supplied coefficient vector is not a positive root."""


class IdenticallyZeroProjection(ComputeFailure):
    """A positive-root projection collapsed to the zero polynomial."""

    def __init__(self, root: Root):
        self.root = root
        super().__init__(f"projection along {root.coefficients} is identically zero")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, rational coefficients, ascending order.

    The coefficient tuple is canonical: no trailing zeros, so the zero
    polynomial is the empty tuple and degree is len - 1 (or -1 for zero).
    """

    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Polynomial | Sequence) -> Polynomial:
        """The polynomial with these ascending coefficients; a Polynomial comes back as is."""
        if isinstance(coeffs, Polynomial):
            return coeffs
        out = [frac(c) for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

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

    def __call__(self, x):
        """Horner evaluation; exact on Fractions, numeric on complex."""
        acc = Fraction(0) if isinstance(x, (Fraction, int)) else 0j
        for c in reversed(self.coefficients):
            acc = acc * x + (c if isinstance(x, (Fraction, int)) else complex(c))
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
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Polynomial.of(q), Polynomial.of(rem)


def _integer_primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer coefficients proportional to nonzero rational ones."""
    d = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (d // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals.

    Runs the primitive remainder sequence on the integer polynomials
    proportional to a and b: the content is divided out of every
    pseudo-remainder, which keeps the integers near the size of the
    result, where Euclid over Q lets them grow at every step.
    """
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero:
        return a.monic()
    x, y = _integer_primitive(a.coefficients), _integer_primitive(b.coefficients)
    while y:
        lead, r = y[-1], list(x)
        while len(r) >= len(y):            # pseudo-remainder: lead^k * x mod y
            f = r.pop()
            k = len(r) - len(y) + 1
            r = [c * lead for c in r]
            for i, c in enumerate(y[:-1]):
                r[k + i] -= f * c
            while r and r[-1] == 0:
                r.pop()
        x, y = y, (_integer_primitive(r) if r else [])
    return Polynomial.of(x).monic()


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
    return p.divmod(poly_gcd(p, p.derivative()))[0].monic()


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


@dataclass(frozen=True)
class DeformationParam:
    type: DynkinType
    theta: dict[int, Polynomial]      # keyed by affine node label
    constrained: bool

    def __post_init__(self):
        labels = node_labels(self.type, affine=True)
        if sorted(self.theta) != labels:
            raise ValueError(f"need one polynomial per node {labels}")

    @cached_property
    def projections(self) -> tuple[tuple[Root, Polynomial], ...]:
        """Every positive root with the projection along it, computed once per parameter."""
        return tuple((root, theta_of_root(self, root)) for root in positive_roots(self.type))


def _of_capped_degree(theta: Mapping[int, Polynomial]) -> dict[int, Polynomial]:
    """The table as Polynomials; InputTooLarge if a degree passes MAX_DEGREE."""
    theta = {a: Polynomial.of(p) for a, p in theta.items()}
    top = max((p.degree for p in theta.values()), default=-1)
    if top > MAX_DEGREE:
        raise InputTooLarge(f"theta degree {top} exceeds the cap {MAX_DEGREE}")
    return theta


def make_deformation(t: DynkinType, theta: Mapping[int, Polynomial]) -> DeformationParam:
    """Wrap a full node -> polynomial table; the constraint flag is computed."""
    labels = node_labels(t, affine=True)
    if sorted(theta) != labels:
        raise ValueError(f"need one polynomial per node {labels}")
    theta = _of_capped_degree(theta)
    delta = marks(t).delta
    total = Polynomial(())
    for a in node_labels(t, affine=True):
        total = total + theta[a].scale(delta[a])
    return DeformationParam(t, dict(theta), total.is_zero)


def complete_affine_theta(t: DynkinType, finite_theta: Mapping[int, Polynomial]) -> DeformationParam:
    """Solve for the affine node's polynomial from the marks identity."""
    finite = node_labels(t, affine=False)
    if sorted(finite_theta) != finite:
        raise ValueError(f"need one polynomial per finite node {finite}")
    theta = _of_capped_degree(finite_theta)
    delta = marks(t).delta
    total = Polynomial(())
    for a in finite:
        total = total + theta[a].scale(delta[a])
    theta[0] = total.scale(Fraction(-1, delta[0]))
    d = make_deformation(t, theta)
    if not d.constrained:
        raise AssertionError("completion must satisfy the marks identity")
    return d


def theta_of_root(d: DeformationParam, root: Root) -> Polynomial:
    """Projection of the parameter along a positive root."""
    if len(root.coefficients) != d.type.rank:
        raise NotARoot(f"coefficient vector has length {len(root.coefficients)}")
    if not is_positive_root(d.type, root.coefficients):
        raise NotARoot(f"{root.coefficients} is not a positive root of {d.type}")
    acc = [0] * max(len(p.coefficients) for p in d.theta.values())
    for a, mu in root.as_dict().items():
        for k, c in enumerate(d.theta[a].coefficients):
            acc[k] += mu * c
    return Polynomial.of(acc)


@dataclass(frozen=True)
class LocusEntry:
    point: complex
    root: Root
    multiplicity: int


@dataclass(frozen=True)
class ExceptionalLocus:
    type: DynkinType
    entries: tuple[LocusEntry, ...]


def _projections(d: DeformationParam) -> list[tuple[Root, Polynomial]]:
    """Every nonconstant positive-root projection; IdenticallyZeroProjection on a zero one."""
    for root, p in d.projections:
        if p.is_zero:
            raise IdenticallyZeroProjection(root)
    return [(root, p) for root, p in d.projections if p.degree > 0]


def exceptional_locus(d: DeformationParam) -> ExceptionalLocus:
    """Vanishing points of every positive-root projection, with multiplicities.

    Raises IdenticallyZeroProjection when some projection collapses;
    constant nonzero projections simply contribute no points.
    """
    entries = [
        LocusEntry(point, root, mult)
        for root, p in _projections(d)
        for point, mult in poly_roots(p)
    ]
    return ExceptionalLocus(d.type, tuple(entries))


def is_generic(d: DeformationParam) -> bool:
    """Every projection is square-free and no two share a factor; exact.

    Linear projections are compared by their rational roots; gcds run
    only where a degree is above one.
    """
    points: set[Fraction] = set()
    higher: list[Polynomial] = []
    for _, p in _projections(d):
        if p.degree == 1:
            x = -p.coefficients[0] / p.coefficients[1]
            if x in points:
                return False
            points.add(x)
        elif squarefree_part(p).degree < p.degree:
            return False
        else:
            higher.append(p)
    for i, p in enumerate(higher):
        if any(p(x) == 0 for x in points):
            return False
        if any(poly_gcd(p, q).degree > 0 for q in higher[i + 1:]):
            return False
    return True
