"""Dictionary between torsion modules on the line and nilpotent-plus-semisimple data.

A finite-length torsion module is recorded as a list of (support point,
partition): the partition gives the sizes of the cyclic summands at that
point.  Supports are rationals (Fractions), so every point list has a
matrix side: the multiplication-by-coordinate operator on global
sections, i.e. a block Jordan matrix.  Both directions are exact.

The same dictionary upgraded to quivers: a representation whose loops
all intertwine with the arrow maps (zero edge defects) corresponds to
per-node torsion modules plus arrow maps written in the Jordan bases,
with framing vectors carried along by the same base change.  The round
trip runs on the integer rows (`linalg.IntMat`), one table per kind of
block (`arrows`, `loops`, `framing`), and on one Jordan matrix per
`TorsionSheafData` (`.jordan`); the base changes carry their inverses.
As in `adhm`, every record holds every arrow, no stored block is None,
each is stored over its least denominator, and `_fields` names the
tables, so `==` compares them and the Fraction views are no fields.
Both directions build their records directly (`adhm._direct`),
unchecked, and the arrows and framing move as `adhm.conjugate` moves
them (`adhm._moved`).  Every intertwining decision is one pass of
`adhm._edge_defects`: `QuiverSheafData` runs it on its points' Jordan
matrices, and `quadruple_to_quintuple` on the Jordan loops and the moved
arrows.  Reports print the tables; the Fraction views serve callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .adhm import (ArrowKey, BaseChanges, N1Representation, _direct, _edge_defects,
                   _fractions, _moved, _quiver_data)
from .dynkin import DynkinType, _Frozen, _Record, node_labels
from .linalg import ComputeFailure, IntMat, Mat, Vec


class EdgeRelationViolated(ComputeFailure):
    """Arrow maps fail to intertwine the loops, so no sheaf dictionary exists."""


class TorsionSheafData(_Frozen):
    """Canonicalised: supports Fractions, sorted and distinct; partitions nonempty and
    nonincreasing, of parts read by `linalg.integer`."""

    _fields = ("points",)

    @classmethod
    def of(cls, points: Sequence[tuple[object, Sequence[int]]]) -> "TorsionSheafData":
        norm = []
        for s, parts in points:
            parts = tuple(sorted((linalg.integer(p, "a partition part", 1) for p in parts),
                                 reverse=True))
            if not parts:
                raise ValueError("a partition must be nonempty")
            norm.append((linalg.frac(s), parts))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a[0] == b[0]:
                raise ValueError(f"duplicate support {a[0]}")
        return cls(tuple(norm))

    @property
    def dimension(self) -> int:
        return sum(sum(parts) for _, parts in self.points)

    @cached_property
    def jordan(self) -> IntMat:
        """The points' Jordan matrix on integer rows, built once."""
        return linalg.jordan_matrix((s, size) for s, parts in self.points for size in parts)


def sheaf_to_endo(data: TorsionSheafData) -> tuple[int, Mat]:
    """(dimension, block Jordan matrix), supports in canonical order, blocks nonincreasing."""
    n = data.dimension
    return n, linalg.rational_matrix(data.jordan, n, n)


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
    a, d = m = linalg.int_rows(psi, "the endomorphism")
    n = len(a)
    points = []
    for lam, mult in sorted(linalg.rational_eigenvalues(m).items()):
        q, s = lam.denominator, lam.numerator * d           # (psi - lambda) q d
        nmat = [[q * x - (s if j == i else 0) for j, x in enumerate(row)]
                for i, row in enumerate(a)], 1
        power, dims = nmat, [0, n - linalg.rank(nmat[0])]
        while dims[-1] < mult:
            power = linalg.sum_of_products([(1, nmat, power)], n, n)
            dims.append(n - linalg.rank(power[0] if power else []))
        points.append((lam, _partition_from_kernel_dims(dims)))
    return TorsionSheafData.of(points)


def _check_intertwining(defects: Mapping[ArrowKey, IntMat | None]) -> None:
    """EdgeRelationViolated at the first arrow whose defect (`adhm._edge_defects`) is nonzero."""
    for key, defect in defects.items():
        if defect is not None:
            raise EdgeRelationViolated(f"edge defect at {key} is nonzero")


class QuiverSheafData(_Record):
    """Torsion data per node, arrow maps and framing; missing arrows are zero.  `arrows`
    holds every arrow map as integer rows, by key, and `framing` the framing vectors;
    `arrow_maps` and `framing_vectors` are their Fraction views, cached on first read."""

    _fields = ("type", "node_sheaves", "arrows", "framing_ranks", "framing", "affine")

    def __init__(self, type: DynkinType, node_sheaves: dict[int, TorsionSheafData],
                 arrow_maps: dict[ArrowKey, Mat], framing_ranks: dict[int, int] | None = None,
                 framing_vectors: dict[int, list[Vec]] | None = None, affine: bool = True):
        self.type, self.node_sheaves, self.affine = type, node_sheaves, affine
        labels = node_labels(type, affine)
        if sorted(node_sheaves) != labels:
            raise ValueError(f"need sheaf data for exactly the nodes {labels}")
        self.arrows, self.framing_ranks, self.framing = _quiver_data(
            type, affine, {a: node_sheaves[a].dimension for a in labels},
            arrow_maps, framing_ranks or {}, framing_vectors or {})
        _check_intertwining(_edge_defects({a: node_sheaves[a].jordan for a in labels},
                                          self.arrows))

    arrow_maps = cached_property(lambda self: _fractions(self.arrows))
    framing_vectors = cached_property(lambda self: _fractions(self.framing))


def quadruple_to_quintuple(rep: N1Representation) -> tuple[QuiverSheafData, BaseChanges]:
    """Per-node torsion data plus transported arrows and framing.

    Requires every edge defect to vanish exactly.  Arrows move to g_b B p_a,
    p a node's Jordan basis and g its inverse, on integer rows; the intertwining
    is checked once, on the Jordan matrices and the moved arrows (a broken edge
    outranks a non-rational spectrum).  Returns the sheaf data and the
    per-node base changes g (new = g * old) with their inverses p, so callers can
    verify the transport.
    """
    sheaves: dict[int, TorsionSheafData] = {}
    p: dict[int, IntMat] = {}
    for a, m in rep.loops.items():
        try:
            j, p[a] = linalg.jordan_basis(m)
        except linalg.NonRationalSpectrum:
            _check_intertwining(_edge_defects(rep.loops, rep.arrows))
            raise
        sheaves[a] = _jordan_points(j)
        if sheaves[a].dimension != rep.dims[a] or sheaves[a].jordan != j:
            raise AssertionError("jordan data disagrees with the partition data")
    pairs = {a: (linalg.inverse_ints(pa), pa) for a, pa in p.items()}
    arrows, framing = _moved(rep, pairs)
    data = _direct(QuiverSheafData, arrows=arrows, framing=framing, type=rep.type,
                   node_sheaves=sheaves, framing_ranks=dict(rep.framing_ranks), affine=rep.affine)
    _check_intertwining(_edge_defects({a: s.jordan for a, s in sheaves.items()}, arrows))
    return data, BaseChanges(pairs)


def quintuple_to_quadruple(data: QuiverSheafData) -> N1Representation:
    """Representation with Jordan loops read off the torsion data."""
    labels = node_labels(data.type, data.affine)
    return _direct(N1Representation, arrows=dict(data.arrows), framing=dict(data.framing),
                   loops={a: data.node_sheaves[a].jordan for a in labels}, type=data.type,
                   dims={a: data.node_sheaves[a].dimension for a in labels},
                   framing_ranks=dict(data.framing_ranks), affine=data.affine)
