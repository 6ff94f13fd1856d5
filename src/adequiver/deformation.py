"""Deformation parameters: one polynomial per affine node, tied by the marks.

A parameter assigns each node a polynomial in one variable with exact
rational coefficients.  The geometric regime demands
sum_a delta_a * Theta_a = 0 identically; `complete_affine_theta` solves
for the affine node's polynomial.  A `DeformationParam` stores its type
and table only; `constrained`, whether the table satisfies the identity,
is derived from them on first read.

Projections along positive roots, their vanishing loci on the affine
line, and the genericity test live here too.  Genericity and root
multiplicities are decided exactly, by the gcds, square-free parts and
Yun factors of `poly` on primitive integer polynomials; root locations
are float labels that no verdict reads (`poly.poly_roots`).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Mapping

from .dynkin import (MAX_DEGREE, DynkinType, InputTooLarge, Root, _Frozen, is_positive_root,
                     marks, node_labels, positive_roots)
from .linalg import ComputeFailure
from .poly import Polynomial, _gcd_ints, _integer_primitive, _squarefree_ints, poly_roots


class NotARoot(ComputeFailure):
    """The supplied coefficient vector is not a positive root."""


class IdenticallyZeroProjection(ComputeFailure):
    """A positive-root projection collapsed to the zero polynomial."""

    def __init__(self, root: Root):
        self.root = root
        super().__init__(f"projection along {root.coefficients} is identically zero")


class _ReadOnlyDict(dict):
    """A dict that refuses in-place edits and hashes by its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a deformation parameter's table cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return self.__class__, (dict(self),)


class DeformationParam(_Frozen):
    """One polynomial per affine node label, read by `Polynomial.of`; ValueError unless theta
    covers exactly the affine nodes of type, InputTooLarge past MAX_DEGREE."""

    _fields = ("type", "theta")

    def __init__(self, type: DynkinType, theta: Mapping[int, Polynomial]):
        labels = node_labels(type, affine=True)
        if sorted(theta) != labels:
            raise ValueError(f"need one polynomial per node {labels}")
        super().__init__(type, _ReadOnlyDict(_of_capped_degree(theta)))

    @cached_property
    def constrained(self) -> bool:
        """Whether sum_a delta_a * theta_a vanishes identically, delta the marks."""
        return _weighted_sum(self.type, self.theta).is_zero

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


def _weighted_sum(t: DynkinType, theta: Mapping[int, Polynomial]) -> Polynomial:
    """sum_a delta_a * theta_a over the nodes a of theta, delta the marks of t."""
    delta = marks(t).delta
    return sum((p.scale(delta[a]) for a, p in theta.items()), Polynomial(()))


def complete_affine_theta(t: DynkinType, finite_theta: Mapping[int, Polynomial]) -> DeformationParam:
    """Solve for the affine node's polynomial from the marks identity."""
    finite = node_labels(t, affine=False)
    if sorted(finite_theta) != finite:
        raise ValueError(f"need one polynomial per finite node {finite}")
    theta = _of_capped_degree(finite_theta)
    theta[0] = _weighted_sum(t, theta).scale(Fraction(-1, marks(t).delta[0]))
    d = DeformationParam(t, theta)
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
    for a, mu in enumerate(root.coefficients, 1):     # finite node labels 1..rank
        for k, c in enumerate(d.theta[a].coefficients):
            acc[k] += mu * c
    return Polynomial.of(acc)


class LocusEntry(_Frozen):
    __slots__ = _fields = ("point", "root", "multiplicity")


class ExceptionalLocus(_Frozen):
    __slots__ = _fields = ("type", "entries")


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

    Linear projections are compared by their rational roots; the others
    run as primitive integer polynomials, square-free when `_squarefree_ints`
    keeps their degree and coprime when `_gcd_ints` is a constant, so gcds
    run only where a degree is above one.
    """
    points: set[Fraction] = set()
    higher: list[tuple[Polynomial, list[int]]] = []
    for _, p in _projections(d):
        if p.degree == 1:
            x = -p.coefficients[0] / p.coefficients[1]
            if x in points:
                return False
            points.add(x)
            continue
        f = _integer_primitive(p.coefficients)
        if len(_squarefree_ints(f)) < len(f):
            return False
        higher.append((p, f))
    for i, (p, f) in enumerate(higher):
        if any(p(x) == 0 for x in points):
            return False
        if any(len(_gcd_ints(f, g)) > 1 for _, g in higher[i + 1:]):
            return False
    return True
