"""Dictionary between torsion modules on the line and nilpotent-plus-semisimple data.

A finite-length torsion module is recorded as a list of (support point,
partition): the partition gives the sizes of the cyclic summands at that
point.  The matrix side is the multiplication-by-coordinate operator on
global sections, i.e. a block Jordan matrix.  Both directions are exact
and need rational supports and matrices; complex supports can be held
(point data files allow them) but have no matrix form.

The same dictionary upgraded to quivers: a representation whose loops
all intertwine with the arrow maps (zero edge defects) corresponds to
per-node torsion modules plus arrow maps written in the Jordan bases,
with framing vectors carried along by the same base change.  The round
trip runs on integer rows (`linalg.IntMat`): each loop and arrow is
converted once, each Jordan matrix is built from its partitions, and
Fractions are made only for the fields of the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .adhm import ArrowKey, N1Representation, check_total_dim, transport
from .dynkin import DynkinType, node_labels
from .linalg import ComputeFailure, IntMat, Mat, Vec
from .quiver import build_n1_quiver


class EdgeRelationViolated(ComputeFailure):
    """Arrow maps fail to intertwine the loops, so no sheaf dictionary exists."""


Support = object   # Fraction, or complex as read from a point data file


def _support_sort_key(s) -> tuple:
    # exact: a Fraction compares exactly with the float parts of a complex support
    if isinstance(s, Fraction):
        return (s, 0)
    z = complex(s)
    return (z.real, z.imag)


@dataclass(frozen=True)
class TorsionSheafData:
    """Canonicalised: supports sorted and distinct, partitions nonincreasing."""

    points: tuple[tuple[Support, tuple[int, ...]], ...]

    @classmethod
    def of(cls, points: Sequence[tuple[object, Sequence[int]]]) -> "TorsionSheafData":
        norm = []
        for s, parts in points:
            if isinstance(s, int):
                s = Fraction(s)
            parts = tuple(sorted((int(p) for p in parts), reverse=True))
            if not parts or any(p <= 0 for p in parts):
                raise ValueError("partitions must be nonempty with positive parts")
            norm.append((s, parts))
        norm.sort(key=lambda e: _support_sort_key(e[0]))
        for a, b in zip(norm, norm[1:]):
            if a[0] == b[0]:
                raise ValueError(f"duplicate support {a[0]}")
        return cls(tuple(norm))

    @property
    def dimension(self) -> int:
        return sum(sum(parts) for _, parts in self.points)


def _jordan_ints(data: TorsionSheafData) -> IntMat:
    """The block Jordan matrix of the points, as integer rows; TypeError on a complex support."""
    return linalg.jordan_matrix((s, size) for s, parts in data.points for size in parts)


def sheaf_to_endo(data: TorsionSheafData) -> tuple[int, Mat]:
    """(dimension, block Jordan matrix), supports in canonical order, blocks nonincreasing.

    TypeError on a support that is not rational.
    """
    n = data.dimension
    return n, linalg.rational_matrix(_jordan_ints(data), n, n)


def _partition_from_kernel_dims(dims: list[int]) -> tuple[int, ...]:
    """Partition whose conjugate has column heights dim ker N^k - dim ker N^{k-1}."""
    diffs = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    parts = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def _jordan_points(j: IntMat) -> TorsionSheafData:
    """Support points and partitions read off the blocks of a Jordan matrix."""
    rows, d = j
    blocks: dict[Fraction, list[int]] = {}
    start = 0
    for i, row in enumerate(rows):
        if i + 1 == len(rows) or row[i + 1] == 0:
            blocks.setdefault(Fraction(row[i], d), []).append(i + 1 - start)
            start = i + 1
    return TorsionSheafData.of(list(blocks.items()))


def endo_to_sheaf(psi) -> TorsionSheafData:
    """Support points and partitions of an endomorphism, from kernel dimensions.

    Exact: entries must be rational (TypeError otherwise) and so must the
    spectrum (NonRationalSpectrum).  The partition at each eigenvalue
    lambda comes from the ranks of the powers of psi - lambda, independently
    of `linalg.jordan_form`.
    """
    m = linalg.matrix(psi)
    n = linalg.shape(m)[0]
    eig = linalg.rational_eigenvalues(m)
    points = []
    for lam, mult in sorted(eig.items()):
        nmat = linalg.mat_sub(m, linalg.mat_scale(lam, linalg.identity(n)))
        dims = [0]
        power = linalg.identity(n)
        while dims[-1] < mult:
            power = linalg.mat_mul(nmat, power)
            dims.append(n - linalg.rank(power))
        points.append((lam, _partition_from_kernel_dims(dims)))
    return TorsionSheafData.of(points)


def _require_rational(node_sheaves: Mapping[int, TorsionSheafData], nodes) -> None:
    """ValueError naming the first node and support among nodes that is not rational."""
    for a in nodes:
        for s, _ in node_sheaves[a].points:
            if not isinstance(s, Fraction):
                raise ValueError(
                    f"node {a}: support {s} is not rational; matrix form needs rational supports"
                )


def _check_intertwining(loops: Mapping[int, IntMat], arrows: Mapping[ArrowKey, IntMat]) -> None:
    """EdgeRelationViolated naming the first arrow B with Psi_target B - B Psi_source nonzero."""
    for key, b in arrows.items():
        src, tgt, _ = key
        terms = [(1, loops[tgt], b), (-1, b, loops[src])]
        if linalg.sum_of_products(terms, len(b[0]), len(loops[src][0])) is not None:
            raise EdgeRelationViolated(f"edge defect at {key} is nonzero")


@dataclass
class QuiverSheafData:
    type: DynkinType
    node_sheaves: dict[int, TorsionSheafData]
    arrow_maps: dict[ArrowKey, Mat]
    framing_ranks: dict[int, int] = field(default_factory=dict)
    framing_vectors: dict[int, list[Vec]] = field(default_factory=dict)
    affine: bool = True

    def __post_init__(self):
        labels = node_labels(self.type, self.affine)
        if sorted(self.node_sheaves) != labels:
            raise ValueError(f"need sheaf data for exactly the nodes {labels}")
        check_total_dim(sum(self.node_sheaves[a].dimension for a in labels))
        quiver = build_n1_quiver(self.type, self.affine)
        stray = set(self.arrow_maps) - {arrow.key for arrow in quiver.mckay_arrows()}
        if stray:
            raise ValueError(f"arrows {sorted(stray)} are not in the {self.type} quiver")
        stray = (set(self.framing_ranks) | set(self.framing_vectors)) - set(labels)
        if stray:
            raise ValueError(f"framing data at unknown nodes {sorted(stray)}")
        # Jordan matrices only where an arrow needs one, and only of rational supports
        touched = list(dict.fromkeys(a for key in self.arrow_maps for a in key[:2]))
        _require_rational(self.node_sheaves, touched)
        self.arrow_maps = {key: linalg.matrix(m) for key, m in self.arrow_maps.items()}
        for (s, t, i), m in self.arrow_maps.items():
            want = (self.node_sheaves[t].dimension, self.node_sheaves[s].dimension)
            if not linalg.has_shape(m, *want):
                raise ValueError(f"arrow {(s, t, i)} wants shape {want}")
        _check_intertwining({a: _jordan_ints(self.node_sheaves[a]) for a in touched},
                            {key: linalg.int_matrix(m) for key, m in self.arrow_maps.items()})


def quadruple_to_quintuple(rep: N1Representation) -> tuple[QuiverSheafData, dict[int, Mat]]:
    """Per-node torsion data plus transported arrows and framing.

    Requires every edge defect to vanish exactly.  Arrows move to g_b B p_a,
    p a node's Jordan basis and g its inverse, on integer rows; the intertwining
    is checked once, on the Jordan matrices, when `QuiverSheafData` is built (a
    broken edge outranks a non-rational spectrum).  Returns the sheaf data and the
    per-node base changes g (new = g * old), so callers can verify the transport.
    """
    labels = node_labels(rep.type, rep.affine)
    psi = {a: linalg.int_matrix(rep.Psi[a]) for a in labels}
    sheaves: dict[int, TorsionSheafData] = {}
    g: dict[int, Mat] = {}
    p: dict[int, IntMat] = {}
    for a in labels:
        try:
            j, p[a] = linalg.jordan_basis(psi[a])
        except linalg.NonRationalSpectrum:
            _check_intertwining(psi, {k: linalg.int_matrix(m) for k, m in rep.B.items()})
            raise
        sheaves[a] = _jordan_points(j)
        if sheaves[a].dimension != rep.dims[a] or _jordan_ints(sheaves[a]) != j:
            raise AssertionError("jordan data disagrees with the partition data")
        n = rep.dims[a]
        g[a] = linalg.inverse(linalg.rational_matrix(p[a], n, n))
    gi = {a: linalg.int_matrix(m) for a, m in g.items()}
    arrows = {(s, t, i): transport(gi[t], linalg.int_matrix(m), p[s], rep.dims[t], rep.dims[s])
              for (s, t, i), m in rep.B.items()}
    vectors = {a: [linalg.mat_vec(g[a], v) for v in rep.I[a]] for a in labels}
    data = QuiverSheafData(
        type=rep.type,
        node_sheaves=sheaves,
        arrow_maps=arrows,
        framing_ranks=dict(rep.framing_ranks),
        framing_vectors=vectors,
        affine=rep.affine,
    )
    return data, g


def quintuple_to_quadruple(data: QuiverSheafData) -> N1Representation:
    """Representation with Jordan loops read off the torsion data."""
    labels = node_labels(data.type, data.affine)
    _require_rational(data.node_sheaves, labels)
    dims = {}
    psi = {}
    for a in labels:
        dims[a], psi[a] = sheaf_to_endo(data.node_sheaves[a])
    return N1Representation(
        type=data.type,
        dims=dims,
        B={k: [row[:] for row in m] for k, m in data.arrow_maps.items()},
        Psi=psi,
        framing_ranks=dict(data.framing_ranks),
        I={a: [list(v) for v in data.framing_vectors.get(a, [])] for a in labels},
        affine=data.affine,
    )
