"""Deformation parameters: one polynomial per affine node, tied by the marks.

A parameter assigns each node a polynomial in one variable with exact
rational coefficients.  The geometric regime demands
sum_a delta_a * Theta_a = 0 identically; `complete_affine_theta` solves
for the affine node's polynomial, and the `constrained` flag records
whether a given parameter satisfies the identity.

Projections along positive roots, their vanishing loci on the affine
line, and the genericity test live here too.  Root multiplicities are
exact (square-free decomposition over the rationals); root locations are
numeric (companion-matrix eigenvalues), clustered at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .dynkin import DynkinType, Root, marks, node_labels, positive_roots
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
    def of(cls, coeffs: Sequence) -> "Polynomial":
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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


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


def poly_roots(p: Polynomial, tol: float = 1e-8) -> list[tuple[complex, int]]:
    """Complex roots with exact multiplicities.

    Multiplicities come from the square-free decomposition; each
    square-free factor is fed to the companion-matrix solver, whose
    simple roots are well conditioned.  Nearby locations are merged at
    tol as a numerical guard.
    """
    import numpy as np

    if p.is_zero:
        raise ValueError("the zero polynomial has no root locus")
    entries: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        coeffs = [float(c) for c in reversed(factor.coefficients)]
        for r in np.roots(coeffs):
            entries.append((complex(r), mult))
    merged: list[tuple[complex, int]] = []
    for point, mult in sorted(entries, key=lambda e: (e[0].real, e[0].imag)):
        if merged and abs(merged[-1][0] - point) < tol:
            prev_point, prev_mult = merged[-1]
            merged[-1] = (prev_point, prev_mult + mult)
        else:
            merged.append((point, mult))
    return merged


@dataclass(frozen=True)
class DeformationParam:
    type: DynkinType
    theta: dict[int, Polynomial]      # keyed by affine node label
    constrained: bool

    def __post_init__(self):
        labels = node_labels(self.type, affine=True)
        if sorted(self.theta) != labels:
            raise ValueError(f"need one polynomial per node {labels}")


def make_deformation(t: DynkinType, theta: Mapping[int, Polynomial]) -> DeformationParam:
    """Wrap a full node -> polynomial table; the constraint flag is computed."""
    labels = node_labels(t, affine=True)
    if sorted(theta) != labels:
        raise ValueError(f"need one polynomial per node {labels}")
    theta = {a: p if isinstance(p, Polynomial) else Polynomial.of(p) for a, p in theta.items()}
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
    theta = {
        a: p if isinstance(p, Polynomial) else Polynomial.of(p) for a, p in finite_theta.items()
    }
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
    if root not in set(positive_roots(d.type)):
        raise NotARoot(f"{root.coefficients} is not a positive root of {d.type}")
    out = Polynomial(())
    for a, mu in root.as_dict().items():
        if mu:
            out = out + d.theta[a].scale(mu)
    return out


@dataclass(frozen=True)
class LocusEntry:
    point: complex
    root: Root
    multiplicity: int


@dataclass(frozen=True)
class ExceptionalLocus:
    type: DynkinType
    entries: tuple[LocusEntry, ...]


def exceptional_locus(d: DeformationParam, tol: float = 1e-8) -> ExceptionalLocus:
    """Vanishing points of every positive-root projection, with multiplicities.

    Raises IdenticallyZeroProjection when some projection collapses;
    constant nonzero projections simply contribute no points.
    """
    entries: list[LocusEntry] = []
    for root in positive_roots(d.type):
        p = theta_of_root(d, root)
        if p.is_zero:
            raise IdenticallyZeroProjection(root)
        if p.degree == 0:
            continue
        for point, mult in poly_roots(p, tol):
            entries.append(LocusEntry(point, root, mult))
    return ExceptionalLocus(d.type, tuple(entries))


def is_generic(d: DeformationParam, tol: float = 1e-8) -> bool:
    """Every locus point is simple and no point is shared by two roots."""
    locus = exceptional_locus(d, tol)
    if any(e.multiplicity != 1 for e in locus.entries):
        return False
    for i, a in enumerate(locus.entries):
        for b in locus.entries[i + 1:]:
            if a.root != b.root and abs(a.point - b.point) < tol:
                return False
    return True
