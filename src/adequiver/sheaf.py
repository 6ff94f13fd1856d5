"""Dictionary between torsion modules on the line and nilpotent-plus-semisimple data.

A finite-length torsion module is recorded as a list of (support point,
partition): the partition gives the sizes of the cyclic summands at that
point.  The matrix side is the multiplication-by-coordinate operator on
global sections, i.e. a block Jordan matrix.  Both directions are exact
when supports and matrices are rational; a numeric path with an explicit
tolerance handles float data.

The same dictionary upgraded to quivers: a representation whose loops
all intertwine with the arrow maps (zero edge defects) corresponds to
per-node torsion modules plus arrow maps written in the Jordan bases,
with framing vectors carried along by the same base change.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from . import linalg
from .adhm import ArrowKey, N1Representation, check_total_dim, edge_residual
from .deformation import Polynomial
from .dynkin import DynkinType, node_labels
from .linalg import ComputeFailure, Mat, Vec

if TYPE_CHECKING:
    import numpy as np


class IllConditioned(ComputeFailure):
    """A numeric rank decision landed inside the tolerance band."""


class EdgeRelationViolated(ComputeFailure):
    """Arrow maps fail to intertwine the loops, so no sheaf dictionary exists."""


Support = object   # Fraction for the exact path, complex for the numeric one


def _support_sort_key(s) -> tuple[float, float]:
    if isinstance(s, Fraction):
        return (float(s), 0.0)
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

    @property
    def exact(self) -> bool:
        return all(isinstance(s, Fraction) for s, _ in self.points)


def _jordan_block(lam, size: int, exact: bool):
    if exact:
        block = linalg.mat_shift(linalg.zeros(size), lam)
        for i in range(size - 1):
            block[i][i + 1] = Fraction(1)
        return block
    import numpy as np

    return np.eye(size, k=1, dtype=complex) + complex(lam) * np.eye(size, dtype=complex)


def sheaf_to_endo(data: TorsionSheafData):
    """(dimension, block Jordan matrix), supports in canonical order, blocks nonincreasing."""
    if data.exact:
        blocks = [
            _jordan_block(s, size, True) for s, parts in data.points for size in parts
        ]
        mat = linalg.block_diag(blocks) if blocks else linalg.zeros(0, 0)
        return data.dimension, mat
    import numpy as np

    n = data.dimension
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for s, parts in data.points:
        for size in parts:
            out[at:at + size, at:at + size] = _jordan_block(s, size, False)
            at += size
    return n, out


def _partition_from_kernel_dims(dims: list[int]) -> tuple[int, ...]:
    """Partition whose conjugate has column heights dim ker N^k - dim ker N^{k-1}."""
    diffs = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    parts = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def _endo_to_sheaf_exact(m: Mat) -> TorsionSheafData:
    n = linalg.shape(m)[0]
    eig = linalg.rational_eigenvalues(m)
    points = []
    for lam, mult in sorted(eig.items()):
        nmat = linalg.mat_shift(m, -lam)
        dims = [0]
        power = linalg.identity(n)
        while dims[-1] < mult:
            power = linalg.mat_mul(nmat, power)
            dims.append(n - linalg.rank(power))
        points.append((lam, _partition_from_kernel_dims(dims)))
    return TorsionSheafData.of(points)


def _jordan_points(j: Mat) -> TorsionSheafData:
    """Support points and partitions read off the blocks of a Jordan matrix."""
    blocks: dict[Fraction, list[int]] = {}
    start = 0
    for i in range(len(j)):
        if i + 1 == len(j) or j[i][i + 1] == 0:
            blocks.setdefault(j[i][i], []).append(i + 1 - start)
            start = i + 1
    return TorsionSheafData.of(list(blocks.items()))


def _numeric_rank(m: np.ndarray, tol: float) -> int:
    import numpy as np

    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    band_lo, band_hi = tol / 16, tol * 16
    if np.any((s > band_lo) & (s < band_hi)):
        raise IllConditioned(
            f"singular value {s[(s > band_lo) & (s < band_hi)][0]:.3e} sits in the "
            f"tolerance band around {tol:.1e}"
        )
    return int(np.sum(s >= band_hi))


def _endo_to_sheaf_numeric(m: np.ndarray, tol: float) -> TorsionSheafData:
    import numpy as np

    n = m.shape[0]
    vals = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
    clusters: list[list] = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0]) < tol:
            c = clusters[-1]
            c[0] = (c[0] * c[1] + v) / (c[1] + 1)
            c[1] += 1
        else:
            clusters.append([v, 1])
    points = []
    for lam, mult in clusters:
        nmat = m - lam * np.eye(n)
        dims = [0]
        power = np.eye(n, dtype=complex)
        while dims[-1] < mult:
            power = nmat @ power
            dims.append(n - _numeric_rank(power, tol))
            if len(dims) > n + 1:
                raise IllConditioned("kernel filtration failed to stabilise")
        points.append((complex(lam), _partition_from_kernel_dims(dims)))
    return TorsionSheafData.of(points)


def endo_to_sheaf(psi, tol: float = 1e-8) -> TorsionSheafData:
    """Support points and partitions of an endomorphism.

    Rational input runs exactly (rational spectrum required); float or
    complex input is clustered at tol with IllConditioned guarding rank
    decisions near the tolerance.
    """
    # an ndarray exists only once numpy is loaded, so exact input never loads it
    np = sys.modules.get("numpy")
    if np is not None and isinstance(psi, np.ndarray):
        return _endo_to_sheaf_numeric(np.asarray(psi, dtype=complex), tol)
    if psi and any(isinstance(x, (float, complex)) for row in psi for x in row):
        import numpy as np

        return _endo_to_sheaf_numeric(np.array(psi, dtype=complex), tol)
    return _endo_to_sheaf_exact(linalg.matrix(psi))


def char_poly(psi: Mat) -> Polynomial:
    """Monic characteristic polynomial; the coefficients classify regular data."""
    return Polynomial.of(linalg.char_poly_coeffs(linalg.matrix(psi)))


def is_regular(psi: Mat) -> bool:
    """True iff the minimal polynomial has full degree (one block per eigenvalue)."""
    m = linalg.matrix(psi)
    return linalg.minimal_poly_degree(m) == linalg.shape(m)[0]


def _require_rational(node_sheaves: Mapping[int, TorsionSheafData], nodes) -> None:
    """ValueError naming the first node and support among nodes that is not rational."""
    for a in nodes:
        for s, _ in node_sheaves[a].points:
            if not isinstance(s, Fraction):
                raise ValueError(
                    f"node {a}: support {s} is not rational; matrix form needs rational supports"
                )


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
        jordan = {a: sheaf_to_endo(self.node_sheaves[a])[1] for a in labels}
        for key, m in self.arrow_maps.items():
            src, tgt, _ = key
            _require_rational(self.node_sheaves, (src, tgt))
            m = linalg.matrix(m)
            lhs = linalg.mat_mul(jordan[tgt], m)
            rhs = linalg.mat_mul(m, jordan[src])
            if not linalg.mat_eq(lhs, rhs):
                raise EdgeRelationViolated(f"arrow map {key} does not intertwine the supports")
            self.arrow_maps[key] = m


def quadruple_to_quintuple(rep: N1Representation) -> tuple[QuiverSheafData, dict[int, Mat]]:
    """Per-node torsion data plus transported arrows and framing.

    Requires every edge defect to vanish exactly.  Returns the sheaf
    data together with the per-node base changes g (new = g * old), so
    callers can verify the transport.
    """
    labels = node_labels(rep.type, rep.affine)
    for arrow in rep.quiver.mckay_arrows():
        if not linalg.is_zero_matrix(edge_residual(rep, arrow.key)):
            raise EdgeRelationViolated(f"edge defect at {arrow.key} is nonzero")
    sheaves: dict[int, TorsionSheafData] = {}
    g: dict[int, Mat] = {}
    for a in labels:
        j, ga = linalg.jordan_form(rep.Psi[a])
        sheaves[a] = _jordan_points(j)
        expected_dim, jmat = sheaf_to_endo(sheaves[a])
        if expected_dim != rep.dims[a] or not linalg.mat_eq(jmat, j):
            raise AssertionError("jordan data disagrees with the partition data")
        g[a] = ga
    ginv = {a: linalg.inverse(g[a]) for a in labels}
    arrows = {
        k: linalg.mat_mul(g[k[1]], linalg.mat_mul(m, ginv[k[0]]))
        for k, m in rep.B.items()
    }
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
