"""Two-term complexes over a central-parameter plane, checked fiberwise.

Elements live in the quotient of the free algebra on x1, x2, z by
centrality of z and the single relation [x1, x2] + lam * z^2 = 0, kept
in the normal-form basis

    1; x1, x2, z; x1x1, x1x2, x2x2, zx1, zx2, zz

via the rewrite x2*x1 -> x1*x2 + lam*zz.  Coefficients are block
matrices over the rationals; lam acts blockwise (one rational per node)
through left multiplication on the target layout.

Only the cyclic (type A) case is wired up, rank 0 meaning the trivial
group: the first family of maps runs along a -> a+1, the second along
a -> a-1 (indices mod rank+1).  The two three-term maps

    a = (B1 z - x1, -(B2 z - x2), J z)^T
    b = (B2 z - x2,   B1 z - x1,  I z)

compose to a pure zz term whose block at node a is the node relation
defect B2B1 - B1B2 + IJ + lam there; every other degree-2 coefficient
cancels identically, whatever the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .linalg import Mat

MONOMIALS = ("1", "x1", "x2", "z", "x1x1", "x1x2", "x2x2", "zx1", "zx2", "zz")
DEGREE = {
    "1": 0,
    "x1": 1, "x2": 1, "z": 1,
    "x1x1": 2, "x1x2": 2, "x2x2": 2, "zx1": 2, "zx2": 2, "zz": 2,
}

# word concatenation in normal form; None marks the lam * zz correction term
_PRODUCTS: dict[tuple[str, str], list[tuple[str, bool]]] = {
    ("x1", "x1"): [("x1x1", False)],
    ("x1", "x2"): [("x1x2", False)],
    ("x1", "z"): [("zx1", False)],
    ("x2", "x1"): [("x1x2", False), ("zz", True)],
    ("x2", "x2"): [("x2x2", False)],
    ("x2", "z"): [("zx2", False)],
    ("z", "x1"): [("zx1", False)],
    ("z", "x2"): [("zx2", False)],
    ("z", "z"): [("zz", False)],
}

Layout = tuple[tuple[int, int], ...]    # ((node, dim), ...)


def layout_dim(layout: Layout) -> int:
    return sum(d for _, d in layout)


@dataclass
class NCElement:
    """Matrix-valued element in the normal-form basis."""

    row_layout: Layout
    col_layout: Layout
    coefficients: dict[str, Mat]

    def __post_init__(self):
        rows, cols = layout_dim(self.row_layout), layout_dim(self.col_layout)
        clean = {}
        for mono, m in self.coefficients.items():
            if mono not in DEGREE:
                raise ValueError(f"unknown monomial {mono!r}")
            m = linalg.matrix(m)
            if not linalg.has_shape(m, rows, cols):
                raise ValueError(f"coefficient of {mono} must be {rows}x{cols}")
            if not linalg.is_zero_matrix(m):
                clean[mono] = m
        self.coefficients = clean

    def coefficient(self, mono: str) -> Mat:
        rows, cols = layout_dim(self.row_layout), layout_dim(self.col_layout)
        return self.coefficients.get(mono, linalg.zeros(rows, cols))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def is_homogeneous(self, degree: int) -> bool:
        return all(DEGREE[m] == degree for m in self.coefficients)

    def __add__(self, other: "NCElement") -> "NCElement":
        if self.row_layout != other.row_layout or self.col_layout != other.col_layout:
            raise ValueError("layout mismatch in addition")
        out = {}
        for mono in set(self.coefficients) | set(other.coefficients):
            out[mono] = linalg.mat_add(self.coefficient(mono), other.coefficient(mono))
        return NCElement(self.row_layout, self.col_layout, out)

    def diagonal_block(self, mono: str, node: int) -> Mat:
        """Square block of a coefficient at one node (layouts must agree there)."""
        row_at = col_at = None
        i = 0
        for nd, d in self.row_layout:
            if nd == node:
                row_at = (i, d)
            i += d
        i = 0
        for nd, d in self.col_layout:
            if nd == node:
                col_at = (i, d)
            i += d
        if row_at is None or col_at is None:
            raise KeyError(f"node {node} is not in both layouts")
        m = self.coefficient(mono)
        return [row[col_at[0]:col_at[0] + col_at[1]] for row in m[row_at[0]:row_at[0] + row_at[1]]]


def _scale_rows(layout: Layout, lam: Mapping[int, Fraction], m: Mat) -> Mat:
    """lam acting on the rows of m, node by node along the layout."""
    out: Mat = []
    at = 0
    for node, dim in layout:
        c = lam[node]
        out.extend([c * x for x in row] for row in m[at:at + dim])
        at += dim
    return out


def nc_multiply(u: NCElement, v: NCElement, lam: Mapping[int, Fraction]) -> NCElement:
    """Normal-form product; the rewrite's lam acts blockwise on u's row layout.

    The product of the monomial parts must stay inside the degree <= 2
    basis, so both factors of degree 1, or either factor of degree 0.
    """
    if u.col_layout != v.row_layout:
        raise ValueError("inner layouts do not match")
    lam = {node: linalg.frac(x) for node, x in lam.items()}
    out: dict[str, Mat] = {}
    rows, cols = layout_dim(u.row_layout), layout_dim(v.col_layout)

    def accumulate(mono: str, m: Mat) -> None:
        if mono in out:
            out[mono] = linalg.mat_add(out[mono], m)
        else:
            out[mono] = m

    for mu, cu in u.coefficients.items():
        for mv, cv in v.coefficients.items():
            prod = linalg.mat_mul(cu, cv)
            if mu == "1":
                accumulate(mv, prod)
                continue
            if mv == "1":
                accumulate(mu, prod)
                continue
            terms = _PRODUCTS.get((mu, mv))
            if terms is None:
                raise ValueError(f"product {mu} * {mv} leaves the degree-2 normal form")
            for mono, needs_lam in terms:
                if needs_lam:
                    accumulate(mono, _scale_rows(u.row_layout, lam, prod))
                else:
                    accumulate(mono, prod)
    return NCElement(u.row_layout, v.col_layout, out)


@dataclass
class MonadData:
    rank: int                      # cyclic group of order rank+1; 0 = trivial
    dims: dict[int, int]
    framing_dims: dict[int, int]
    lam: dict[int, Fraction]
    a: list[NCElement]             # column of three maps
    b: list[NCElement]             # row of three maps

    @property
    def nodes(self) -> list[int]:
        return list(range(self.rank + 1))


def _assemble(rank: int, blocks: Mapping[int, Mat], row_dims: Mapping[int, int],
              col_dims: Mapping[int, int], shift: int) -> Mat:
    """Block matrix sending node a into node a+shift (mod rank+1)."""
    n = rank + 1
    stray = set(blocks) - set(range(n))
    if stray:
        raise ValueError(f"blocks at unknown nodes {sorted(stray)}")
    row_layout = [(a, row_dims[a]) for a in range(n)]
    col_layout = [(a, col_dims[a]) for a in range(n)]
    out = linalg.zeros(layout_dim(tuple(row_layout)), layout_dim(tuple(col_layout)))
    row_at = {}
    at = 0
    for a, d in row_layout:
        row_at[a] = at
        at += d
    col_at = {}
    at = 0
    for a, d in col_layout:
        col_at[a] = at
        at += d
    for a in range(n):
        tgt = (a + shift) % n
        m = blocks.get(a)
        want = (row_dims[tgt], col_dims[a])
        if m is None:
            continue
        m = linalg.matrix(m)
        if not linalg.has_shape(m, *want):
            raise ValueError(f"block at node {a} must have shape {want}")
        for i in range(want[0]):
            for j in range(want[1]):
                out[row_at[tgt] + i][col_at[a] + j] = m[i][j]
    return out


def build_monad(rank: int, b1: Mapping[int, Mat], b2: Mapping[int, Mat],
                i_blocks: Mapping[int, Mat], j_blocks: Mapping[int, Mat],
                lam: Mapping[int, Fraction],
                dims: Mapping[int, int], framing_dims: Mapping[int, int]) -> MonadData:
    """Assemble the two three-term maps from per-node blocks.

    b1[a] maps node a to a+1, b2[a] maps a to a-1 (mod rank+1); i_blocks
    and j_blocks are the framing maps in and out, per node.  Missing
    blocks are zero.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    n = rank + 1
    dims = {a: int(dims[a]) for a in range(n)}
    framing = {a: int(framing_dims.get(a, 0)) for a in range(n)}
    lam_full = {a: linalg.frac(lam.get(a, 0)) for a in range(n)}
    v_layout: Layout = tuple((a, dims[a]) for a in range(n))
    w_layout: Layout = tuple((a, framing[a]) for a in range(n))
    b1_full = _assemble(rank, b1, dims, dims, +1)
    b2_full = _assemble(rank, b2, dims, dims, -1)
    i_full = _assemble(rank, i_blocks, dims, framing, 0)
    j_full = _assemble(rank, j_blocks, framing, dims, 0)
    nv = layout_dim(v_layout)
    ident = linalg.identity(nv)
    a_col = [
        NCElement(v_layout, v_layout, {"z": b1_full, "x1": linalg.mat_neg(ident)}),
        NCElement(v_layout, v_layout, {"z": linalg.mat_neg(b2_full), "x2": ident}),
        NCElement(w_layout, v_layout, {"z": j_full}),
    ]
    b_row = [
        NCElement(v_layout, v_layout, {"z": b2_full, "x2": linalg.mat_neg(ident)}),
        NCElement(v_layout, v_layout, {"z": b1_full, "x1": linalg.mat_neg(ident)}),
        NCElement(v_layout, w_layout, {"z": i_full}),
    ]
    for e in a_col + b_row:
        if not e.is_homogeneous(1):
            raise AssertionError("monad maps must be homogeneous of degree 1")
    return MonadData(rank, dims, framing, lam_full, a_col, b_row)


STRUCTURAL_ZERO_MONOMIALS = ("x1x1", "x2x2", "zx1", "zx2", "x1x2")


def compose_and_check(m: MonadData) -> tuple[NCElement, bool]:
    """Normal form of b o a and whether it vanishes identically."""
    total = None
    for be, ae in zip(m.b, m.a):
        term = nc_multiply(be, ae, m.lam)
        total = term if total is None else total + term
    return total, total.is_zero


def node_relation_defects(m: MonadData) -> dict[int, Mat]:
    """zz blocks of the composite, one square matrix per node."""
    composite, _ = compose_and_check(m)
    return {a: composite.diagonal_block("zz", a) for a in m.nodes}
