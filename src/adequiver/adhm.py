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

Each defect is summed in one integer pass of `linalg.sum_of_products`,
at its full shape, so empty nodes need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import linalg
from .deformation import DeformationParam, Polynomial, poly_gcd, poly_roots, squarefree_part
from .dynkin import DynkinType, InputTooLarge, node_labels
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
            else:
                m = linalg.matrix(m)
                if not linalg.has_shape(m, *want):
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
                if not linalg.has_shape(m, self.dims[a], self.dims[a]):
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
        table = {a: Polynomial.of(p) for a, p in theta.items()}
    else:
        raise TypeError("theta must be a DeformationParam or a node -> polynomial mapping")
    missing = [a for a in node_labels(rep.type, rep.affine) if a not in table]
    if missing:
        raise ValueError(f"theta lacks polynomials for nodes {missing}")
    return table


def node_residual(rep: N1Representation, theta, a: int) -> Mat:
    """Defect of the node relation at a; the zero matrix iff the relation holds."""
    table = _theta_table(rep, theta)
    d = rep.dims[a]
    terms = [(1, linalg.int_matrix(evaluate_on_matrix(table[a], rep.Psi[a])), None)]
    for arrow in rep.quiver.mckay_arrows():
        if arrow.source == a:
            terms.append((arrow.sign, linalg.int_matrix(rep.B[arrow.reversed_key()]),
                          linalg.int_matrix(rep.B[arrow.key])))
    return linalg.rational_matrix(linalg.sum_of_products(terms, d, d), d, d)


def edge_residual(rep: N1Representation, key: ArrowKey) -> Mat:
    """Intertwining defect Psi_target o B - B o Psi_source for one arrow."""
    src, tgt, _ = key
    b = linalg.int_matrix(rep.B[key])
    terms = [(1, linalg.int_matrix(rep.Psi[tgt]), b), (-1, b, linalg.int_matrix(rep.Psi[src]))]
    rows, cols = rep.dims[tgt], rep.dims[src]
    return linalg.rational_matrix(linalg.sum_of_products(terms, rows, cols), rows, cols)


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
    every loop: each vector that enlarges a span passes its images on, once,
    until none is left.  Then compares dimensions; zero dimensional nodes
    are vacuously covered.
    """
    labels = node_labels(rep.type, rep.affine)
    spans = {a: linalg.SpanBasis(rep.dims[a]) for a in labels}
    maps = {a: [(a, rep.Psi[a])] for a in labels}
    for k in rep.quiver.mckay_arrows():
        maps[k.source].append((k.target, rep.B[k.key]))
    todo = [(a, v) for a in labels for v in rep.I[a]]
    while todo:
        a, v = todo.pop()
        if spans[a].add(v):
            todo += [(b, linalg.mat_vec(m, v)) for b, m in maps[a]]
    return all(spans[a].dim == rep.dims[a] for a in labels)


def _char_poly(m: Mat) -> Polynomial:
    return Polynomial.of(linalg.char_poly_coeffs(m))


def support(rep: N1Representation) -> dict[int, list[complex]]:
    """Loop eigenvalues per node, repeated by their exact multiplicity, as float labels."""
    return {
        a: [point for point, k in poly_roots(_char_poly(rep.Psi[a])) for _ in range(k)]
        for a in node_labels(rep.type, rep.affine)
    }


@dataclass
class SupportReportRow:
    """One node: its distinct loop eigenvalues, how many of them each root's
    projection vanishes at, and how many lie where no projection vanishes."""

    node: int
    distinct: int
    roots: list[tuple[tuple[int, ...], int]]
    off_locus: int

    @property
    def ok(self) -> bool:
        return self.off_locus == 0


@dataclass
class SupportReport:
    rows: list[SupportReportRow]
    ok: bool


def check_support_property(rep: N1Representation, theta, tol: float = 1e-6) -> SupportReport:
    """Every loop eigenvalue must kill some positive-root projection; decided exactly.

    At each occupied node, s is the square-free part of the loop's
    characteristic polynomial, one simple factor per distinct eigenvalue.
    Every projection takes its common factor with s away; the node passes
    when nothing of positive degree is left.  tol is ignored: no tolerance
    enters the decision.

    Meaningful for finite representations (node 0 absent or of dimension
    zero); the relation-satisfying hypothesis is the caller's business.
    """
    if rep.affine and rep.dims.get(0, 0) != 0:
        raise ValueError("support check wants a finite representation (node 0 empty)")
    if not isinstance(theta, DeformationParam):
        raise TypeError("support check needs a DeformationParam")
    # a zero projection vanishes everywhere, so it stays and shares all of s
    projections = [(r.coefficients, p) for r, p in theta.projections if p.degree != 0]
    rows: list[SupportReportRow] = []
    for a in node_labels(rep.type, rep.affine):
        if rep.dims[a] == 0:
            continue
        s = left = squarefree_part(_char_poly(rep.Psi[a]))
        shared = []
        for r, p in projections:
            g = poly_gcd(p, s)
            if g.degree > 0:
                shared.append((r, g.degree))
                left = left.divmod(poly_gcd(left, g))[0]
        rows.append(SupportReportRow(a, s.degree, shared, left.degree))
    return SupportReport(rows, all(r.ok for r in rows))


def direct_sum(r1: N1Representation, r2: N1Representation) -> N1Representation:
    if r1.type != r2.type or r1.affine != r2.affine:
        raise ValueError("direct sum needs matching quivers")
    labels = node_labels(r1.type, r1.affine)

    def stack(m1: Mat, m2: Mat, a: int) -> Mat:
        # rows of m1 padded right, then rows of m2 padded left, by the dims at
        # source node a: a block with no rows ([]) still has its width there
        return ([list(row) + [Fraction(0)] * r2.dims[a] for row in m1]
                + [[Fraction(0)] * r1.dims[a] + list(row) for row in m2])

    dims = {a: r1.dims[a] + r2.dims[a] for a in labels}
    b = {k: stack(r1.B[k], r2.B[k], k[0]) for k in r1.B}
    psi = {a: stack(r1.Psi[a], r2.Psi[a], a) for a in labels}
    ranks = {a: r1.framing_ranks[a] + r2.framing_ranks[a] for a in labels}
    vectors = {a: stack(r1.I[a], r2.I[a], a) for a in labels}
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
