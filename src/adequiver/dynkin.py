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

from dataclasses import dataclass
from functools import lru_cache

from . import linalg

FAMILIES = ("A", "D", "E")

_MIN_RANK = {"A": 1, "D": 4}
_E_RANKS = (6, 7, 8)
# Largest rank accepted.  Roots, marks and quivers grow with the rank, so a
# larger one is refused before anything is built; the tests, README and
# benchmark use ranks up to 8.
MAX_RANK = 100


class InputTooLarge(Exception):
    """An input past a size cap, refused before anything of its size is allocated."""


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self):
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
        text = text.strip()
        if not text or text[0].upper() not in FAMILIES or not text[1:].isdigit():
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

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


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple[tuple[int, ...], ...]
    affine: bool
    node_labels: tuple[int, ...]


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


@dataclass(frozen=True)
class MarksVector:
    type: DynkinType
    delta: tuple[int, ...]          # indexed over affine nodes 0..rank

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.delta))

    @property
    def group_order(self) -> int:
        return sum(d * d for d in self.delta)


def marks(t: DynkinType) -> MarksVector:
    """Primitive positive null vector of the affine Cartan matrix, entry 1 at node 0.

    Computed once per type; the result is immutable and shared.
    """
    return _marks_cached(t)


@lru_cache(maxsize=None)
def _marks_cached(t: DynkinType) -> MarksVector:
    c = cartan_matrix(t, affine=True)
    kernel = linalg.nullspace(linalg.matrix(c.entries))
    if len(kernel) != 1:
        raise AssertionError("affine Cartan matrix must have a one-dimensional kernel")
    v = kernel[0]
    v = [x / v[0] for x in v]
    if any(x.denominator != 1 or x <= 0 for x in v):
        raise AssertionError("marks must be positive integers once normalised at node 0")
    return MarksVector(t, tuple(int(x) for x in v))


@dataclass(frozen=True)
class Root:
    """A root written in the simple-root basis over the finite nodes 1..rank."""
    coefficients: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coefficients)

    def as_dict(self) -> dict[int, int]:
        return {a + 1: c for a, c in enumerate(self.coefficients)}


def _pairing_rows(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    return cartan_matrix(t, affine=False).entries


def root_norm(t: DynkinType, coefficients: tuple[int, ...]) -> int:
    """Squared length under the Cartan pairing (2 for every root)."""
    c = _pairing_rows(t)
    n = t.rank
    return sum(coefficients[i] * c[i][j] * coefficients[j] for i in range(n) for j in range(n))


def positive_roots(t: DynkinType) -> list[Root]:
    """All positive roots, by reflection closure upward from the simple roots.

    Sorted by (height, coefficient tuple) so the output is deterministic.
    """
    return list(_positive_roots_cached(t))


@lru_cache(maxsize=None)
def _positive_roots_cached(t: DynkinType) -> tuple[Root, ...]:
    n = t.rank
    cart = _pairing_rows(t)
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


def is_positive_root(t: DynkinType, coefficients) -> bool:
    coeffs = tuple(int(x) for x in coefficients)
    if len(coeffs) != t.rank:
        raise ValueError(f"expected {t.rank} coefficients, got {len(coeffs)}")
    return Root(coeffs) in set(_positive_roots_cached(t))


def highest_root(t: DynkinType) -> Root:
    return max(positive_roots(t), key=lambda r: (r.height, r.coefficients))


def positive_root_count(t: DynkinType) -> int:
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]
