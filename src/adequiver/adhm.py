"""Representations of the looped doubled quiver and their relation defects.

A representation assigns a rational vector space to every node, a matrix
to every doubled arrow, a loop endomorphism to every node, and framing
vectors at nodes with positive framing rank (framing enters through the
vectors only; there is no map back out of the framing).

Two families of defects are computed exactly:

* node defect at a: sum over arrows out of a of sign * (reverse o arrow)
  plus Theta_a evaluated on the loop at a;
* edge defect at an arrow a -> b: Psi_b o B - B o Psi_a, the failure of
  the arrow to intertwine the loops.

Each defect is one integer pass of `linalg.sum_of_products` at its full
shape, so empty nodes need no special case; Theta_a(Psi_a) enters the
node's pass as terms c_0 I, c_1 Psi and c_k Psi^(k-1) Psi, one power more
per degree above 2.  A representation keeps one table of integer rows
(`linalg.IntMat`) per kind of block: `arrows` (B, by arrow key), `loops`
(Psi, by node) and `framing` (the framing vectors at each node as the
rows of one block).  Each block is read once, by `linalg.int_rows`, and
stored only so, over its least denominator; B, Psi and I are Fraction
views of one table each, built on first read and not fields.  So every
record's `_fields` names what it stores, and `==` compares them: equal
matrices are equal rows.  Every record holds every arrow of its quiver,
in quiver order, and no stored block is None: a block not given is stored
as zeros.  Outside input goes through the validating constructors; the
records that `conjugate` and the round trip in `sheaf` compute from
validated ones are built directly (`_direct`), equal field for field to
those; `_moved` moves the arrows and framing of both.  Residuals and base
changes keep integer rows too, and a record derives what its data decide
(`RelationResidual.is_zero`, `SupportReport.ok`) rather than storing it.
Checks and reports read only integer rows; the Fraction views serve
callers that ask for them.  `_edge_defects` is the one intertwining
check, for `check_relations` and the round trip in `sheaf`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from . import linalg
from .deformation import DeformationParam
from .dynkin import DynkinType, InputTooLarge, _Record, node_labels
from .linalg import IntMat, Mat, Vec
from .poly import (Polynomial, _exact_quotient, _gcd_ints, _integer_primitive,
                   _squarefree_ints, poly_roots)
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


def _quiver_data(t: DynkinType, affine: bool, dims: Mapping[int, int], arrows: Mapping,
                 ranks: Mapping, vectors: Mapping) -> tuple[dict, dict, dict]:
    """The arrows and framing of quiver data whose nodes have dimensions dims, validated.

    InputTooLarge past MAX_TOTAL_DIM; ValueError on an arrow not in the quiver or on
    framing at an unknown node; `linalg.integer` refuses a bad rank, `linalg.int_rows` a bad
    block, each node's framing vectors being the rows of one rank x dimension block.
    Returns every arrow of the quiver in quiver order (zeros where none is given), the
    framing ranks and the framing blocks at every node, the blocks as integer rows.
    """
    check_total_dim(sum(dims.values()))
    keys = [arrow.key for arrow in build_n1_quiver(t, affine).mckay_arrows()]
    stray = set(arrows) - set(keys)
    if stray:
        raise ValueError(f"arrows {sorted(stray)} are not in the {t} quiver")
    stray = (set(ranks) | set(vectors)) - set(dims)
    if stray:
        raise ValueError(f"framing data at unknown nodes {sorted(stray)}")
    arrows = {key: linalg.int_rows(arrows.get(key), f"arrow {key}", (dims[key[1]], dims[key[0]]))
              for key in keys}
    ranks = {a: linalg.integer(ranks.get(a, 0), f"the framing rank at node {a}")
             for a in sorted(dims)}
    framing = {a: linalg.int_rows(vectors.get(a, []), f"framing at node {a}", (ranks[a], n))
               for a, n in sorted(dims.items())}
    return arrows, ranks, framing


def _images(m: IntMat, vectors: IntMat) -> IntMat:
    """The framing block whose rows are m v, v the rows of vectors, in one pass."""
    rank, n = len(vectors[0]), len(m[0])
    return (linalg.sum_of_products([(1, vectors, linalg._transposed(m))], rank, n)
            or ([[0] * n for _ in range(rank)], 1))


def _direct(cls, **fields):
    """The record of cls holding fields as given, with nothing checked or copied."""
    record = object.__new__(cls)
    vars(record).update(fields)
    return record


def _fractions(blocks: Mapping) -> dict:
    return {k: linalg.rational_matrix(m) for k, m in blocks.items()}


class N1Representation(_Record):
    """Dims, arrows B, loops Psi and framing of a representation; missing blocks are zero.
    Each is stored as integer rows, in `arrows` (by arrow key, in quiver order), `loops` (by
    node) and `framing` (the framing vectors at each node as the rows of one block); B, Psi
    and I are their Fraction views, cached on first read.  The constructor validates outside
    input, B, Psi and I as any matrix `linalg.int_rows` reads; `_direct` builds one from
    tables already validated."""

    _fields = ("type", "dims", "arrows", "loops", "framing_ranks", "framing", "affine")

    def __init__(self, type: DynkinType, dims: dict[int, int],
                 B: dict[ArrowKey, Mat] | None = None, Psi: dict[int, Mat] | None = None,
                 framing_ranks: dict[int, int] | None = None,
                 I: dict[int, list[Vec]] | None = None, affine: bool = True):
        self.type, self.affine = type, affine
        labels = node_labels(type, affine)
        if sorted(dims) != labels:
            raise ValueError(f"dims must cover exactly the nodes {labels}")
        self.dims = {a: linalg.integer(dims[a], f"dims[{a}]") for a in labels}
        self.arrows, self.framing_ranks, self.framing = _quiver_data(
            type, affine, self.dims, B or {}, framing_ranks or {}, I or {})
        Psi = Psi or {}
        stray = set(Psi) - set(labels)
        if stray:
            raise ValueError(f"loop data at unknown nodes {sorted(stray)}")
        self.loops = {a: linalg.int_rows(Psi.get(a), f"loop at {a}", (dims[a],) * 2)
                      for a in labels}

    B = cached_property(lambda self: _fractions(self.arrows))
    Psi = cached_property(lambda self: _fractions(self.loops))
    I = cached_property(lambda self: _fractions(self.framing))

    @property
    def quiver(self) -> QuiverSpec:
        return build_n1_quiver(self.type, self.affine)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def _theta_terms(p: Polynomial, m: IntMat, n: int) -> list[tuple]:
    """p(m) for an n x n integer matrix as `linalg.sum_of_products` terms c_0 I, c_1 m
    and c_k m^(k-1) m, zero ones left out: a power of m is formed for each degree above 2."""
    power, terms = m, []
    for k, c in enumerate(p.coefficients):
        if k > 2 and (power := linalg.sum_of_products([(1, power, m)], n, n)) is None:
            break                   # m^(k-1) is zero, and so is every later term
        if c:
            terms.append((c, None, None) if k == 0 else (c, m, None) if k == 1 else (c, power, m))
    return terms


def _of_type(rep: N1Representation, theta: DeformationParam) -> DeformationParam:
    if theta.type != rep.type:
        raise ValueError(f"theta is of type {theta.type}, the representation of type {rep.type}")
    return theta


def _theta_table(rep: N1Representation, theta) -> dict[int, Polynomial]:
    if isinstance(theta, DeformationParam):
        table = _of_type(rep, theta).theta
    elif isinstance(theta, Mapping):
        table = {a: Polynomial.of(p) for a, p in theta.items()}
    else:
        raise TypeError("theta must be a DeformationParam or a node -> polynomial mapping")
    missing = [a for a in node_labels(rep.type, rep.affine) if a not in table]
    if missing:
        raise ValueError(f"theta lacks polynomials for nodes {missing}")
    return table


class RelationResidual(_Record):
    """Node and edge residuals as integer rows (`linalg.IntMat`), None where zero, in `nodes`
    (by node) and `edges` (by arrow), shaped by the node dimensions `dims`.  Their Fraction
    views are built on first read, and the zero tests read the rows."""

    _fields = ("nodes", "edges", "dims")

    node_residuals = cached_property(lambda self: {
        a: linalg.rational_matrix(m, self.dims[a], self.dims[a]) for a, m in self.nodes.items()})
    edge_residuals = cached_property(lambda self: {(s, t, i): linalg.rational_matrix(
        m, self.dims[t], self.dims[s]) for (s, t, i), m in self.edges.items()})
    nodes_zero = property(lambda self: not any(self.nodes.values()))
    edges_zero = property(lambda self: not any(self.edges.values()))
    is_zero = property(lambda self: self.nodes_zero and self.edges_zero)


def _edge_defects(loops: Mapping[int, IntMat],
                  arrows: Mapping[ArrowKey, IntMat]) -> dict[ArrowKey, IntMat | None]:
    """Psi_target B - B Psi_source on integer rows for each arrow B, None where it is zero:
    one `linalg.sum_of_products` per arrow with a nonzero end loop, on that loop's terms."""
    live = {a: any(map(any, loops[a][0])) for a in {a for s, t, _ in arrows for a in (s, t)}}
    return {(s, t, i): linalg.sum_of_products(
                [(1, loops[t], b)] * live[t] + [(-1, b, loops[s])] * live[s],
                len(loops[t][0]), len(loops[s][0])) if live[s] or live[t] else None
            for (s, t, i), b in arrows.items()}


def check_relations(rep: N1Representation, theta) -> RelationResidual:
    """Every node and edge residual, each one sum of products on the representation's
    integer rows; all are zero iff the relations hold."""
    table = _theta_table(rep, theta)
    nodes = {}
    for a in node_labels(rep.type, rep.affine):   # theta_a(Psi_a) + sum of sign * reverse o arrow
        d = rep.dims[a]
        terms = _theta_terms(table[a], rep.loops[a], d)
        terms += [(arrow.sign, rep.arrows[arrow.reversed_key()], rep.arrows[arrow.key])
                  for arrow in rep.quiver.mckay_arrows() if arrow.source == a]
        nodes[a] = linalg.sum_of_products(terms, d, d)
    return RelationResidual(nodes, _edge_defects(rep.loops, rep.arrows), dict(rep.dims))


def is_nondegenerate(rep: N1Representation) -> bool:
    """No proper subspace collection contains the framing vectors and is arrow/loop stable.

    Grows the span of the framing vectors under every arrow map and
    every loop: each vector that enlarges a span passes its images on, once,
    until none is left.  Then compares dimensions; zero dimensional nodes
    are vacuously covered.  It runs on the integer rows of `rep.framing`,
    `rep.arrows` and `rep.loops`, whose denominators a span ignores.
    """
    spans = {a: linalg.SpanBasis(rep.dims[a]) for a in rep.loops}
    maps = {a: [(a, linalg._transposed(m))] for a, m in rep.loops.items()}
    for (s, t, _), m in rep.arrows.items():
        maps[s].append((t, linalg._transposed(m)))
    todo = [(a, v) for a, (vectors, _) in rep.framing.items() for v in vectors if spans[a].add(v)]
    while todo:                     # each w lies in spans[a]; its images are not yet added
        a, w = todo.pop()
        for b, mt in maps[a]:
            image = linalg.sum_of_products([(1, ([w], 1), mt)], 1, rep.dims[b])
            if image and spans[b].add(image[0][0]):
                todo.append((b, image[0][0]))
    return all(span.dim == rep.dims[a] for a, span in spans.items())


def support(rep: N1Representation) -> dict[int, list[complex]]:
    """Loop eigenvalues per node, repeated by their exact multiplicity, as float labels."""
    return {a: [point for point, k in poly_roots(Polynomial.of(linalg.char_poly_coeffs(m)))
                for _ in range(k)] for a, m in rep.loops.items()}


class SupportReportRow(_Record):
    """One node: its distinct loop eigenvalues, how many of them each root's
    projection vanishes at, and how many lie where no projection vanishes."""

    __slots__ = _fields = ("node", "distinct", "roots", "off_locus")

    @property
    def ok(self) -> bool:
        return self.off_locus == 0


class SupportReport(_Record):
    """The rows of the occupied nodes; ok when every row is."""

    __slots__ = _fields = ("rows",)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def check_support_property(rep: N1Representation, theta, tol: float = 1e-6) -> SupportReport:
    """Every loop eigenvalue must kill some positive-root projection; decided exactly.

    At each occupied node, s is the square-free part of the loop's
    characteristic polynomial, one simple factor per distinct eigenvalue.
    Every projection takes its common factor with s away; the node passes
    when nothing of positive degree is left.  All of it runs on primitive
    integer polynomials, where every quotient is exact over Z (Gauss's
    lemma); only degrees leave it.  tol is ignored: no tolerance enters
    the decision.

    Meaningful for finite representations (node 0 absent or of dimension
    zero); the relation-satisfying hypothesis is the caller's business.
    """
    if rep.affine and rep.dims.get(0, 0) != 0:
        raise ValueError("support check wants a finite representation (node 0 empty)")
    if not isinstance(theta, DeformationParam):
        raise TypeError("support check needs a DeformationParam")
    # a zero projection vanishes everywhere, so it stays and shares all of s
    projections = [(r.coefficients, _integer_primitive(p.coefficients))
                   for r, p in _of_type(rep, theta).projections if p.degree != 0]
    rows: list[SupportReportRow] = []
    for a, m in rep.loops.items():
        if rep.dims[a] == 0:
            continue
        s = left = _squarefree_ints(_integer_primitive(linalg._char_poly_ints(m)))
        shared = []
        for r, q in projections:
            if len(g := _gcd_ints(q, s)) > 1:
                shared.append((r, len(g) - 1))
                left = _exact_quotient(left, _gcd_ints(left, g))
        rows.append(SupportReportRow(a, len(s) - 1, shared, len(left) - 1))
    return SupportReport(rows)


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


def transport(left: IntMat, m: IntMat, right: IntMat, rows: int, cols: int) -> IntMat:
    """left m right, integer matrices with m rows x cols, in two passes."""
    moved = linalg.sum_of_products([(1, m, right)], rows, cols)
    return ((moved and linalg.sum_of_products([(1, left, moved)], rows, cols))
            or ([[0] * cols for _ in range(rows)], 1))


def _moved(rep: N1Representation, pairs: Mapping[int, tuple[IntMat, IntMat]]) -> tuple[dict, dict]:
    """The arrows g_t B g_s^-1 and the framing blocks g v of rep, for pairs (g, g^-1) by node."""
    arrows = {(s, t, i): transport(pairs[t][0], m, pairs[s][1], rep.dims[t], rep.dims[s])
              for (s, t, i), m in rep.arrows.items()}
    return arrows, {a: _images(pairs[a][0], m) for a, m in rep.framing.items()}


class BaseChanges(Mapping):
    """Base changes g by node as Fraction matrices, built on first read, from `pairs`: each
    (g, g^-1) on integer rows, which `conjugate` takes as they are.  Edit none of them."""

    def __init__(self, pairs: dict[int, tuple[IntMat, IntMat]]):
        self.pairs = pairs

    _matrices = cached_property(
        lambda self: _fractions({a: g for a, (g, _) in self.pairs.items()}))

    def __getitem__(self, a: int) -> Mat:
        return self._matrices[a]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def conjugate(rep: N1Representation, g: Mapping[int, Mat]) -> N1Representation:
    """Change basis at every node: arrows g_b B g_a^{-1}, loops g Psi g^{-1}, vectors g v."""
    labels = node_labels(rep.type, rep.affine)
    fits = isinstance(g, BaseChanges) and all(len(g.pairs[a][0][0]) == rep.dims[a] for a in labels)
    pairs = g.pairs if fits else {a: (m, linalg.inverse_ints(m)) for a, m in (
        (a, linalg.int_rows(g[a], f"base change at {a}", (rep.dims[a],) * 2)) for a in labels)}
    b, framing = _moved(rep, pairs)
    loops = {a: transport(pairs[a][0], m, pairs[a][1], rep.dims[a], rep.dims[a])
             for a, m in rep.loops.items()}
    return _direct(N1Representation, arrows=b, loops=loops, framing=framing, type=rep.type,
                   dims=dict(rep.dims), framing_ranks=dict(rep.framing_ranks), affine=rep.affine)


def trace_identity_defect(rep: N1Representation, theta) -> Fraction:
    """sum_a tr Theta_a(Psi_a); zero whenever every node relation holds."""
    table = _theta_table(rep, theta)
    total = Fraction(0)
    for a, m in rep.loops.items():
        n = rep.dims[a]
        total += linalg.trace(linalg.sum_of_products(_theta_terms(table[a], m, n), n, n) or ([], 1))
    return total
