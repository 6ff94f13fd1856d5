"""Finite subgroups of SL(2, C), one per simply laced type.

Cyclic groups for A_n, binary dihedral for D_n, and the binary
tetrahedral / octahedral / icosahedral groups for E6 / E7 / E8, the last
three realised through the standard quaternion embedding
i -> diag(i, -i), j -> [[0, 1], [-1, 0]].

Group arithmetic is floating point; elements are deduplicated by
componentwise rounding at 1e-9, which is three orders of magnitude wider
than the error accumulated by products of <= 200 unitary 2x2 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sin, sqrt

import numpy as np

from .dynkin import DynkinType, adjacency_matrix, marks

DEDUP_DECIMALS = 9
CLOSURE_CAP = 200


class ClosureOverflow(Exception):
    """Generator closure exceeded the element cap without stabilising."""


class DegenerateSpectrum(Exception):
    """No random class-matrix combination produced a simple spectrum."""


class NonIntegralMultiplicity(Exception):
    """A McKay multiplicity failed to round to an integer within tolerance."""


@dataclass(frozen=True)
class GroupElement:
    m: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.m, dtype=complex)
        if a.shape != (2, 2):
            raise ValueError("group elements are 2x2 complex matrices")
        if abs(np.linalg.det(a) - 1.0) >= 1e-9:
            raise ValueError("group elements must have determinant 1")
        object.__setattr__(self, "m", a)


def _quat(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Unit quaternion a + bi + cj + dk as a special unitary matrix."""
    return np.array([[a + b * 1j, c + d * 1j], [-c + d * 1j, a - b * 1j]], dtype=complex)


def generators(t: DynkinType) -> list[GroupElement]:
    n = t.rank
    if t.family == "A":
        zeta = complex(cos(2 * pi / (n + 1)), sin(2 * pi / (n + 1)))
        return [GroupElement(np.diag([zeta, zeta.conjugate()]))]
    if t.family == "D":
        xi = complex(cos(pi / (n - 2)), sin(pi / (n - 2)))
        return [
            GroupElement(np.diag([xi, xi.conjugate()])),
            GroupElement(np.array([[0, 1], [-1, 0]], dtype=complex)),
        ]
    if n == 6:
        return [GroupElement(_quat(0, 1, 0, 0)), GroupElement(_quat(0.5, 0.5, 0.5, 0.5))]
    if n == 7:
        r = 1 / sqrt(2)
        return [GroupElement(_quat(0.5, 0.5, 0.5, 0.5)), GroupElement(_quat(r, r, 0, 0))]
    phi = (1 + sqrt(5)) / 2
    return [
        GroupElement(_quat(phi / 2, 1 / (2 * phi), 0.5, 0)),
        GroupElement(_quat(-0.5, 0.5, 0.5, 0.5)),
    ]


def _key(m: np.ndarray) -> bytes:
    rounded = np.round(np.asarray(m, dtype=complex).reshape(-1), DEDUP_DECIMALS) + 0.0
    return np.ascontiguousarray(rounded).tobytes()


@dataclass
class GammaGroup:
    type: DynkinType
    elements: list[GroupElement]
    classes: list[list[int]]                # partition of element indices
    identity_index: int
    mult_table: np.ndarray = field(repr=False)   # [i, j] -> index of elements[i] @ elements[j]
    inverse: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_of(self) -> np.ndarray:
        out = np.empty(self.order, dtype=int)
        for c, members in enumerate(self.classes):
            out[members] = c
        return out


def enumerate_group(t: DynkinType, cap: int = CLOSURE_CAP) -> GammaGroup:
    """Closure of the generators, with conjugacy classes and a multiplication table."""
    gens = [g.m for g in generators(t)]
    stack = [np.eye(2, dtype=complex)]
    index = {_key(stack[0]): 0}
    frontier = list(range(len(stack)))
    for g in gens:
        k = _key(g)
        if k not in index:
            index[k] = len(stack)
            stack.append(g)
            frontier.append(len(stack) - 1)
    while frontier:
        fresh: list[int] = []
        current = np.stack(stack)
        front = current[frontier]
        for prods in (
            np.einsum("aij,bjk->abik", current, front),
            np.einsum("aij,bjk->abik", front, current),
        ):
            for mat in prods.reshape(-1, 2, 2):
                k = _key(mat)
                if k not in index:
                    index[k] = len(stack)
                    stack.append(mat)
                    fresh.append(len(stack) - 1)
                    if len(stack) > cap:
                        raise ClosureOverflow(
                            f"closure for {t} exceeded {cap} elements"
                        )
        frontier = fresh
    n = len(stack)
    arr = np.stack(stack)
    prods = np.einsum("aij,bjk->abik", arr, arr).reshape(n, n, 4)
    rounded = np.round(prods, DEDUP_DECIMALS) + 0.0
    table = np.empty((n, n), dtype=int)
    flat = np.ascontiguousarray(rounded).reshape(n * n, 4)
    for pos in range(n * n):
        table[pos // n, pos % n] = index[flat[pos].tobytes()]
    if set(np.unique(table)) != set(range(n)):
        raise AssertionError("multiplication table does not close")
    inv = np.argmax(table == 0, axis=1)
    classes: list[list[int]] = []
    assigned = np.full(n, -1, dtype=int)
    for x in range(n):
        if assigned[x] >= 0:
            continue
        members = sorted({int(table[table[g, x], inv[g]]) for g in range(n)})
        for m in members:
            assigned[m] = len(classes)
        classes.append(members)
    return GammaGroup(
        type=t,
        elements=[GroupElement(m) for m in stack],
        classes=classes,
        identity_index=0,
        mult_table=table,
        inverse=inv,
    )


@dataclass
class CharacterTable:
    chars: np.ndarray        # rows: irreducibles, cols: conjugacy classes
    dims: np.ndarray         # integer character degrees, one per row
    class_sizes: np.ndarray
    class_reps: list[int]    # representative element index per class


def _class_matrices(g: GammaGroup) -> np.ndarray:
    """Structure constants of the class-sum algebra: K_i K_j = sum_k a[i,j,k] K_k."""
    k = len(g.classes)
    cls = g.class_of
    counts = np.zeros((k, k, k), dtype=np.int64)
    left = np.broadcast_to(cls[:, None], g.mult_table.shape)
    right = np.broadcast_to(cls[None, :], g.mult_table.shape)
    np.add.at(counts, (left.ravel(), right.ravel(), cls[g.mult_table].ravel()), 1)
    sizes = np.array([len(c) for c in g.classes])
    if np.any(counts % sizes[None, None, :] != 0):
        raise AssertionError("class products are not constant on classes")
    return counts // sizes[None, None, :]


def character_table(g: GammaGroup, seed: int = 0, retries: int = 10) -> CharacterTable:
    """Character table via simultaneous eigenvectors of the class-sum matrices.

    A random real combination of the structure-constant matrices is
    diagonalised; its eigenvectors are the central characters, which are
    rescaled to ordinary characters of positive integer degree.  A
    degenerate draw (repeated eigenvalue, or a degree failing to round)
    is retried with fresh coefficients.
    """
    k = len(g.classes)
    a = _class_matrices(g).astype(float)
    sizes = np.array([len(c) for c in g.classes], dtype=float)
    id_class = int(g.class_of[g.identity_index])
    rng = np.random.default_rng(seed)
    order = float(g.order)
    last_gap = None
    for _ in range(retries):
        combo = np.tensordot(rng.random(k), a, axes=1)
        vals, vecs = np.linalg.eig(combo)
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(k)
        last_gap = gaps.min()
        if last_gap < 1e-6 * max(1.0, np.abs(vals).max()):
            continue
        omega = vecs / vecs[id_class, :][None, :]
        degs = np.sqrt(order / np.sum(np.abs(omega) ** 2 / sizes[:, None], axis=0))
        rounded = np.round(degs)
        if np.any(np.abs(degs - rounded) > 1e-6) or np.any(rounded < 1):
            continue
        chars = np.ascontiguousarray((rounded[None, :] * omega / sizes[:, None]).T)
        key = sorted(
            range(k),
            key=lambda r: (
                int(rounded[r]),
                tuple(np.round(chars[r].view(float), 6)),
            ),
        )
        return CharacterTable(
            chars=chars[key],
            dims=rounded[key].astype(int),
            class_sizes=sizes.astype(int),
            class_reps=[c[0] for c in g.classes],
        )
    raise DegenerateSpectrum(
        f"no simple spectrum for {g.type} after {retries} draws (last gap {last_gap:.2e})"
    )


def mckay_multiplicities(g: GammaGroup, table: CharacterTable,
                         tol: float = 1e-6) -> tuple[list[list[int]], float]:
    """Multiplicity of irrep b inside Q tensor irrep a, Q the defining 2-dim rep.

    Also returns the largest distance of a computed multiplicity from its
    rounded integer; beyond tol the matrix is rejected.
    """
    chi_q = np.array([np.trace(g.elements[r].m) for r in table.class_reps])
    sizes = table.class_sizes.astype(float)
    weights = sizes * chi_q
    raw = np.einsum("j,aj,bj->ab", weights, table.chars, table.chars.conj()) / g.order
    out = np.round(raw.real).astype(int)
    deviation = float(np.max(np.abs(raw - out)))
    if deviation > tol:
        raise NonIntegralMultiplicity(
            f"multiplicity matrix for {g.type} is off by {deviation:.2e}"
        )
    if np.any(out != out.T) or np.any(np.diag(out) != 0):
        raise NonIntegralMultiplicity("multiplicity matrix must be symmetric with zero diagonal")
    return out.tolist(), deviation


def mckay_adjacency(g: GammaGroup, table: CharacterTable, tol: float = 1e-6) -> list[list[int]]:
    """The multiplicity matrix of `mckay_multiplicities` alone."""
    return mckay_multiplicities(g, table, tol)[0]


def find_labeled_isomorphism(
    adj_a: list[list[int]],
    labels_a: list[int],
    adj_b: list[list[int]],
    labels_b: list[int],
) -> list[int] | None:
    """Backtracking graph isomorphism respecting node labels and edge multiplicities.

    Returns a mapping (index in a -> index in b) or None.
    """
    n = len(labels_a)
    if len(labels_b) != n or sorted(labels_a) != sorted(labels_b):
        return None

    def signature(adj, labels, v):
        return (labels[v], sorted((m, labels[w]) for w, m in enumerate(adj[v]) if m))

    sig_a = [signature(adj_a, labels_a, v) for v in range(n)]
    sig_b = [signature(adj_b, labels_b, v) for v in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    mapping: list[int] = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig_a[v] != sig_b[w]:
                continue
            if any(adj_a[v][u] != adj_b[w][mapping[u]] for u in range(v)):
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    return mapping if extend(0) else None


def verify_mckay(g: GammaGroup, seed: int = 0) -> bool:
    """True iff the McKay graph of g matches the affine diagram of g.type.

    The match must send character degrees to marks and respect edge
    multiplicities (the doubled affine A1 bond included).
    """
    table = character_table(g, seed=seed)
    adj = mckay_adjacency(g, table)
    dynkin_adj = adjacency_matrix(g.type, affine=True)
    delta = list(marks(g.type).delta)
    iso = find_labeled_isomorphism(adj, [int(d) for d in table.dims], dynkin_adj, delta)
    return iso is not None
