"""Simply laced (ADE) root data: Cartan matrices, marks, positive roots.

Node labelling convention, used everywhere in this package:

* the affine node is always 0;
* A_n: finite nodes 1..n along the path, affine diagram a cycle
  0-1-...-n-0 (for n = 1 a doubled edge between 0 and 1);
* D_n: nodes 0 and 1 both attach to node 2, the tail runs 2..n-2, and
  nodes n-1, n fork off node n-2;
* E_n: long chain 0-1-...-(n-1) with the branch node labelled n sitting
  on the trivalent node (node 3 for E6 and E7, node 5 for E8; for E6 the
  affine node hangs off the branch: 0-6-3).
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter

from .linalg import integer

FAMILIES = ("A", "D", "E")

_MIN_RANK = {"A": 1, "D": 4}
_E_RANKS = (6, 7, 8)
# Largest rank accepted.  Roots, marks and quivers grow with the rank, so a
# larger one is refused before anything is built; the tests, README and
# benchmark use ranks up to 8.
MAX_RANK = 100
# Largest degree of a deformation parameter's polynomials.  The locus and
# genericity checks run exact gcds whose cost grows with the degree, so a
# larger one is refused before any projection is formed.
MAX_DEGREE = 32


class InputTooLarge(Exception):
    """An input past a size cap, refused before anything of its size is allocated."""


def _read_only(self, name: str, value=None):
    """`__setattr__` and `__delattr__` of the immutable records: construction sets
    each field once with `object.__setattr__`, and nothing changes one afterwards."""
    raise AttributeError(f"cannot assign to field {name!r}")


class _Record:
    """Construction, `==` and `repr` of the package's records, read from `_fields`.

    A record declares its fields once, in `_fields`; a record equals only a record of
    the same class, and `repr` shows `_repr_fields` where a class sets it, else every
    field.  Records are unhashable; `_Frozen` ones hash by their fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _repr_fields: tuple[str, ...] | None = None

    def __init_subclass__(cls, **kwargs):
        # `_values`, the tuple of the fields, in one attrgetter call: DynkinType is an
        # lru_cache key, hashed and compared about 8 times per point-data round trip
        super().__init_subclass__(**kwargs)
        if cls._fields and "_values" not in vars(cls):
            get = attrgetter(*cls._fields)
            cls._values = property(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        """args, then kwargs, then `_defaults` bound to `_fields` as a signature of those
        parameters would bind them: TypeError for a surplus, unknown, repeated or missing
        argument.  Each field is set with `object.__setattr__`, so `_Frozen` shares this.
        """
        fields = self._fields
        if kwargs or len(args) != len(fields):      # else every field given in order
            who = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{who}() takes {len(fields)} arguments, got {len(args)}")
            given = {**self._defaults, **dict(zip(fields, args))}
            for key, value in kwargs.items():
                if key not in fields:
                    raise TypeError(f"{who}() got an unexpected keyword argument {key!r}")
                if key in fields[:len(args)]:
                    raise TypeError(f"{who}() got multiple values for argument {key!r}")
                given[key] = value
            missing = [key for key in fields if key not in given]
            if missing:
                raise TypeError(f"{who}() missing arguments {missing}")
            args = [given[key] for key in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._repr_fields or self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class _Frozen(_Record):
    """A record whose fields are set once, at construction: assignment raises
    AttributeError, it hashes by its `_values`, and copy and pickle rebuild it by
    calling the class on them."""

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return self.__class__, self._values


class DynkinType(_Frozen):
    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        super().__init__(family, integer(rank, "the rank", None))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "E":
            if self.rank not in _E_RANKS:
                raise ValueError("family E has ranks 6, 7, 8 only")
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(f"family {self.family} needs rank >= {_MIN_RANK[self.family]}")
        elif self.rank > MAX_RANK:
            raise InputTooLarge(f"rank {self.rank} exceeds the cap {MAX_RANK}")

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        family, rank = text[:1], text[1:]       # one spelling, the one str() prints
        if family not in FAMILIES or not re.fullmatch(r"0|[1-9][0-9]*", rank):
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return cls(family, int(rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def node_labels(t: DynkinType, affine: bool = True) -> list[int]:
    start = 0 if affine else 1
    return list(range(start, t.rank + 1))


def affine_edges(t: DynkinType) -> list[tuple[int, int]]:
    """Edges of the affine diagram; the doubled A1 bond appears twice."""
    n = t.rank
    if t.family == "A":
        if n == 1:
            return [(0, 1), (0, 1)]
        return [(a, (a + 1) % (n + 1)) for a in range(n + 1)]
    if t.family == "D":
        edges = [(0, 2), (1, 2)]
        edges += [(a, a + 1) for a in range(2, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        return edges
    branch_at = {6: 3, 7: 3, 8: 5}[n]
    edges = [(a, a + 1) for a in range(0, n - 1)]
    if n == 6:
        # the chain is 1-2-3-4-5; the affine node reaches the branch, not node 1
        edges = [(a, a + 1) for a in range(1, n - 1)]
        edges += [(branch_at, 6), (0, 6)]
        return edges
    edges += [(branch_at, n)]
    return edges


def finite_edges(t: DynkinType) -> list[tuple[int, int]]:
    return [(a, b) for a, b in affine_edges(t) if a != 0 and b != 0]


class CartanMatrix(_Frozen):
    __slots__ = _fields = ("entries", "affine", "node_labels")


def cartan_matrix(t: DynkinType, affine: bool = False) -> CartanMatrix:
    labels = node_labels(t, affine)
    index = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for a, b in (affine_edges(t) if affine else finite_edges(t)):
        m[index[a]][index[b]] -= 1
        m[index[b]][index[a]] -= 1
    return CartanMatrix(tuple(tuple(row) for row in m), affine, tuple(labels))


def adjacency_matrix(t: DynkinType, affine: bool = True) -> list[list[int]]:
    """Edge multiplicities of the (affine) diagram, indexed like cartan_matrix."""
    c = cartan_matrix(t, affine)
    n = len(c.node_labels)
    return [[-c.entries[i][j] if i != j else 0 for j in range(n)] for i in range(n)]


class MarksVector(_Frozen):
    """The marks of a type; `delta` is indexed over the affine nodes 0..rank."""

    __slots__ = _fields = ("type", "delta")

    @property
    def group_order(self) -> int:
        return sum(d * d for d in self.delta)


# Marks of E6, E7, E8 in the node order of the module docstring.
_E_MARKS = {
    6: (1, 1, 2, 3, 2, 1, 2),
    7: (1, 2, 3, 4, 3, 2, 1, 2),
    8: (1, 2, 3, 4, 5, 6, 4, 2, 3),
}


@lru_cache(maxsize=None)
def marks(t: DynkinType) -> MarksVector:
    """Primitive positive null vector of the affine Cartan matrix, entry 1 at node 0.

    Closed forms: all 1 for A_n; 1 at the four end nodes and 2 along the
    tail 2..n-2 for D_n; a fixed table for E6, E7, E8.  Built once per
    type; the result is immutable and shared.
    """
    n = t.rank
    if t.family == "A":
        delta = (1,) * (n + 1)
    elif t.family == "D":
        delta = (1, 1) + (2,) * (n - 3) + (1, 1)
    else:
        delta = _E_MARKS[n]
    return MarksVector(t, delta)


class Root(_Frozen):
    """A root written in the simple-root basis over the finite nodes 1..rank."""
    __slots__ = _fields = ("coefficients",)

    @property
    def height(self) -> int:
        return sum(self.coefficients)


def positive_roots(t: DynkinType) -> list[Root]:
    """All positive roots, by reflection closure upward from the simple roots.

    Sorted by (height, coefficient tuple) so the output is deterministic.
    """
    return list(_positive_roots_cached(t))


@lru_cache(maxsize=None)
def _positive_roots_cached(t: DynkinType) -> tuple[Root, ...]:
    n = t.rank
    cart = cartan_matrix(t, affine=False).entries
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for a in range(n):
                pair = sum(cart[a][b] * v[b] for b in range(n))
                w = list(v)
                w[a] -= pair
                wt = tuple(w)
                if all(x >= 0 for x in wt) and any(x > 0 for x in wt) and wt not in seen:
                    seen.add(wt)
                    nxt.append(wt)
        frontier = nxt
    return tuple(Root(v) for v in sorted(seen, key=lambda v: (sum(v), v)))


@lru_cache(maxsize=None)
def _positive_root_set(t: DynkinType) -> frozenset[Root]:
    return frozenset(_positive_roots_cached(t))


def is_positive_root(t: DynkinType, coefficients) -> bool:
    coeffs = tuple(integer(x, "a root coefficient", None) for x in coefficients)
    if len(coeffs) != t.rank:
        raise ValueError(f"expected {t.rank} coefficients, got {len(coeffs)}")
    return Root(coeffs) in _positive_root_set(t)


def highest_root(t: DynkinType) -> Root:
    return max(positive_roots(t), key=lambda r: (r.height, r.coefficients))


def positive_root_count(t: DynkinType) -> int:
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]
