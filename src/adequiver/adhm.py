"""Representations of the looped doubled quiver and their relation defects.

A representation assigns a rational vector space to every node, a matrix
to every doubled arrow, a loop endomorphism to every node, and framing
vectors at nodes with positive framing rank (framing enters through the
vectors only; there is no map back out of the framing).

Two families of defects are computed exactly:

* node defect at a: sum over arrows out of a of sign * (reverse o arrow)
  plus Theta_a evaluated on the loop at a (matrix Horner);
* edge defect at an arrow a -> b: Psi_b o B - B o Psi_a, the failure of
  the arrow to intertwine the loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import linalg
from .deformation import DeformationParam, Polynomial, theta_of_root
from .dynkin import DynkinType, InputTooLarge, node_labels, positive_roots
from .linalg import Mat, Vec
from .quiver import QuiverSpec, build_n1_quiver

ArrowKey = tuple  # (source, target, pair_index)

# Largest total dimension (sum over nodes) accepted for a representation or
# point data; matrices are square in the node dimensions, so a larger one is
# refused before any is built.  The tests, README and benchmark stay under 40.
MAX_TOTAL_DIM = 1000


def check_total_dim(total: int) -> None:
    """InputTooLarge if a total dimension passes MAX_TOTAL_DIM."""
    if total > MAX_TOTAL_DIM:
        raise InputTooLarge(f"total dimension {total} exceeds the cap {MAX_TOTAL_DIM}")


@dataclass
class N1Representation:
    type: DynkinType
    dims: dict[int, int]
    B: dict[ArrowKey, Mat] = field(default_factory=dict)
    Psi: dict[int, Mat] = field(default_factory=dict)
    framing_ranks: dict[int, int] = field(default_factory=dict)
    I: dict[int, list[Vec]] = field(default_factory=dict)
    affine: bool = True

    def __post_init__(self):
        labels = node_labels(self.type, self.affine)
        if sorted(self.dims) != labels:
            raise ValueError(f"dims must cover exactly the nodes {labels}")
        check_total_dim(sum(self.dims.values()))
        q = self.quiver
        valid_keys = {arrow.key for arrow in q.mckay_arrows()}
        stray = set(self.B) - valid_keys
        if stray:
            raise ValueError(f"arrows {sorted(stray)} are not in the {self.type} quiver")
        b = {}
        for arrow in q.mckay_arrows():
            m = self.B.get(arrow.key)
            want = (self.dims[arrow.target], self.dims[arrow.source])
            if m is None:
                m = linalg.zeros(*want)
            elif 0 in want:
                # zero-dim blocks lose their shape in list form; check what survives
                m = linalg.matrix(m)
                if len(m) != want[0] or any(len(r) != want[1] for r in m):
                    raise ValueError(f"arrow {arrow.key} wants shape {want}")
                m = linalg.zeros(*want)
            else:
                m = linalg.matrix(m)
                if linalg.shape(m) != want:
                    raise ValueError(f"arrow {arrow.key} wants shape {want}")
            b[arrow.key] = m
        self.B = b
        for table, what in ((self.Psi, "loop"), (self.I, "framing")):
            stray = set(table) - set(labels)
            if stray:
                raise ValueError(f"{what} data at unknown nodes {sorted(stray)}")
        psi = {}
        for a in labels:
            m = self.Psi.get(a)
            if m is None:
                m = linalg.zeros(self.dims[a])
            else:
                m = linalg.matrix(m)
                if linalg.shape(m) != (self.dims[a], self.dims[a]):
                    raise ValueError(f"loop at {a} must be {self.dims[a]} square")
            psi[a] = m
        self.Psi = psi
        ranks = {a: int(self.framing_ranks.get(a, 0)) for a in labels}
        if any(r < 0 for r in ranks.values()):
            raise ValueError("framing ranks must be nonnegative")
        self.framing_ranks = ranks
        vectors = {}
        for a in labels:
            vs = [[linalg.frac(x) for x in v] for v in self.I.get(a, [])]
            if len(vs) != ranks[a]:
                raise ValueError(f"node {a} wants {ranks[a]} framing vectors")
            if any(len(v) != self.dims[a] for v in vs):
                raise ValueError(f"framing vectors at {a} must have length {self.dims[a]}")
            vectors[a] = vs
        self.I = vectors

    @property
    def quiver(self) -> QuiverSpec:
        return build_n1_quiver(self.type, self.affine)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def evaluate_on_matrix(p: Polynomial, m: Mat) -> Mat:
    """p(M) by matrix Horner; exact."""
    n = linalg.shape(m)[0]
    acc = linalg.zeros(n)
    for c in reversed(p.coefficients):
        acc = linalg.mat_shift(linalg.mat_mul(acc, m), c)
    return acc


def _theta_table(rep: N1Representation, theta) -> dict[int, Polynomial]:
    if isinstance(theta, DeformationParam):
        table = theta.theta
    elif isinstance(theta, Mapping):
        table = {a: p if isinstance(p, Polynomial) else Polynomial.of(p) for a, p in theta.items()}
    else:
        raise TypeError("theta must be a DeformationParam or a node -> polynomial mapping")
    missing = [a for a in node_labels(rep.type, rep.affine) if a not in table]
    if missing:
        raise ValueError(f"theta lacks polynomials for nodes {missing}")
    return table


def node_residual(rep: N1Representation, theta, a: int) -> Mat:
    """Defect of the node relation at a; the zero matrix iff the relation holds."""
    table = _theta_table(rep, theta)
    if rep.dims[a] == 0:
        return []
    acc = evaluate_on_matrix(table[a], rep.Psi[a])
    for arrow in rep.quiver.mckay_arrows():
        # arrows through an empty node contribute nothing
        if arrow.source != a or rep.dims[arrow.target] == 0:
            continue
        back = rep.B[arrow.reversed_key()]
        forth = rep.B[arrow.key]
        term = linalg.mat_mul(back, forth)
        acc = linalg.mat_add(acc, term if arrow.sign > 0 else linalg.mat_neg(term))
    return acc


def edge_residual(rep: N1Representation, key: ArrowKey) -> Mat:
    """Intertwining defect Psi_target o B - B o Psi_source for one arrow."""
    src, tgt, _ = key
    if rep.dims[src] == 0 or rep.dims[tgt] == 0:
        return linalg.zeros(rep.dims[tgt], rep.dims[src])
    b = rep.B[key]
    return linalg.mat_sub(linalg.mat_mul(rep.Psi[tgt], b), linalg.mat_mul(b, rep.Psi[src]))


@dataclass
class RelationResidual:
    node_residuals: dict[int, Mat]
    edge_residuals: dict[ArrowKey, Mat]

    @property
    def nodes_zero(self) -> bool:
        return all(linalg.is_zero_matrix(m) for m in self.node_residuals.values())

    @property
    def edges_zero(self) -> bool:
        return all(linalg.is_zero_matrix(m) for m in self.edge_residuals.values())

    @property
    def is_zero(self) -> bool:
        return self.nodes_zero and self.edges_zero


def check_relations(rep: N1Representation, theta) -> RelationResidual:
    nodes = {a: node_residual(rep, theta, a) for a in node_labels(rep.type, rep.affine)}
    edges = {arrow.key: edge_residual(rep, arrow.key) for arrow in rep.quiver.mckay_arrows()}
    return RelationResidual(nodes, edges)


def is_nondegenerate(rep: N1Representation) -> bool:
    """No proper subspace collection contains the framing vectors and is arrow/loop stable.

    Grows the span of the framing vectors under every arrow map and
    every loop until it stabilises, then compares dimensions; zero
    dimensional nodes are vacuously covered.
    """
    labels = node_labels(rep.type, rep.affine)
    spans = {a: linalg.SpanBasis(rep.dims[a]) for a in labels}
    for a in labels:
        for v in rep.I[a]:
            spans[a].add(v)
    arrows = [(k.source, k.target, rep.B[k.key]) for k in rep.quiver.mckay_arrows()]
    loops = [(a, a, rep.Psi[a]) for a in labels]
    changed = True
    while changed:
        changed = False
        for src, tgt, m in arrows + loops:
            for v in list(spans[src].rows):
                if spans[tgt].add(linalg.mat_vec(m, v)):
                    changed = True
    return all(spans[a].dim == rep.dims[a] for a in labels)


def restrict_finite(rep: N1Representation) -> N1Representation:
    """Drop the affine node with its arrows, loop, and framing."""
    if not rep.affine:
        raise ValueError("representation is already finite")
    keep = node_labels(rep.type, affine=False)
    return N1Representation(
        type=rep.type,
        dims={a: rep.dims[a] for a in keep},
        B={k: m for k, m in rep.B.items() if k[0] != 0 and k[1] != 0},
        Psi={a: rep.Psi[a] for a in keep},
        framing_ranks={a: rep.framing_ranks[a] for a in keep},
        I={a: rep.I[a] for a in keep},
        affine=False,
    )


def support(rep: N1Representation, tol: float = 1e-8) -> dict[int, list[complex]]:
    """Loop eigenvalues per node, numerically, nearby values merged at tol."""
    import numpy as np

    out: dict[int, list[complex]] = {}
    for a in node_labels(rep.type, rep.affine):
        if rep.dims[a] == 0:
            out[a] = []
            continue
        m = np.array([[complex(x) for x in row] for row in rep.Psi[a]])
        vals = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
        merged: list[list] = []
        for v in vals:
            if merged and abs(v - merged[-1][0]) < tol:
                merged[-1][1] += 1
            else:
                merged.append([v, 1])
        out[a] = [complex(v) for v, k in merged for _ in range(k)]
    return out


@dataclass
class SupportReportRow:
    node: int
    point: complex
    best_root: tuple[int, ...]
    best_value: float
    ok: bool


@dataclass
class SupportReport:
    rows: list[SupportReportRow]
    ok: bool


def check_support_property(rep: N1Representation, theta, tol: float = 1e-6) -> SupportReport:
    """Every loop eigenvalue must kill some positive-root projection (within tol).

    Meaningful for finite representations (node 0 absent or of dimension
    zero); the relation-satisfying hypothesis is the caller's business.
    """
    if rep.affine and rep.dims.get(0, 0) != 0:
        raise ValueError("support check wants a finite representation (node 0 empty)")
    if isinstance(theta, DeformationParam):
        d = theta
    else:
        raise TypeError("support check needs a DeformationParam")
    roots = positive_roots(d.type)
    projections = [(r, theta_of_root(d, r)) for r in roots]
    rows: list[SupportReportRow] = []
    for a, eigs in support(rep, tol).items():
        for point in dict.fromkeys(eigs):     # unique, order preserved
            best = None
            for r, p in projections:
                value = abs(p(complex(point)))
                if best is None or value < best[1]:
                    best = (r, value)
            rows.append(
                SupportReportRow(
                    node=a,
                    point=point,
                    best_root=best[0].coefficients,
                    best_value=best[1],
                    ok=best[1] < tol,
                )
            )
    return SupportReport(rows, all(r.ok for r in rows))


def direct_sum(r1: N1Representation, r2: N1Representation) -> N1Representation:
    if r1.type != r2.type or r1.affine != r2.affine:
        raise ValueError("direct sum needs matching quivers")
    labels = node_labels(r1.type, r1.affine)
    dims = {a: r1.dims[a] + r2.dims[a] for a in labels}
    b = {k: linalg.block_diag([r1.B[k], r2.B[k]]) for k in r1.B}
    psi = {a: linalg.block_diag([r1.Psi[a], r2.Psi[a]]) for a in labels}
    ranks = {a: r1.framing_ranks[a] + r2.framing_ranks[a] for a in labels}
    vectors = {}
    for a in labels:
        pad1, pad2 = r1.dims[a], r2.dims[a]
        vs = [list(v) + [Fraction(0)] * pad2 for v in r1.I[a]]
        vs += [[Fraction(0)] * pad1 + list(v) for v in r2.I[a]]
        vectors[a] = vs
    return N1Representation(r1.type, dims, b, psi, ranks, vectors, r1.affine)


def conjugate(rep: N1Representation, g: Mapping[int, Mat]) -> N1Representation:
    """Change basis at every node: arrows g_b B g_a^{-1}, loops g Psi g^{-1}, vectors g v."""
    labels = node_labels(rep.type, rep.affine)
    gm = {a: linalg.matrix(g[a]) for a in labels}
    ginv = {a: linalg.inverse(gm[a]) for a in labels}
    b = {
        k: linalg.mat_mul(gm[k[1]], linalg.mat_mul(m, ginv[k[0]]))
        for k, m in rep.B.items()
    }
    psi = {a: linalg.mat_mul(gm[a], linalg.mat_mul(rep.Psi[a], ginv[a])) for a in labels}
    vectors = {a: [linalg.mat_vec(gm[a], v) for v in rep.I[a]] for a in labels}
    return N1Representation(
        rep.type, dict(rep.dims), b, psi, dict(rep.framing_ranks), vectors, rep.affine
    )


def zero_representation(t: DynkinType, dims: Mapping[int, int] | None = None,
                        affine: bool = True) -> N1Representation:
    labels = node_labels(t, affine)
    d = {a: 0 for a in labels} if dims is None else {a: int(dims[a]) for a in labels}
    return N1Representation(t, d, affine=affine)


def trace_identity_defect(rep: N1Representation, theta) -> Fraction:
    """sum_a tr Theta_a(Psi_a); zero whenever every node relation holds."""
    table = _theta_table(rep, theta)
    total = Fraction(0)
    for a in node_labels(rep.type, rep.affine):
        total += linalg.trace(evaluate_on_matrix(table[a], rep.Psi[a]))
    return total
