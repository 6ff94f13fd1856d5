"""Two-term complexes over a central-parameter plane, checked fiberwise.

Elements live in the quotient of the free algebra on x1, x2, z by
centrality of z and the single relation [x1, x2] + lam * z^2 = 0, kept
in the normal-form basis

    1; x1, x2, z; x1x1, x1x2, x2x2, zx1, zx2, zz

via the rewrite x2*x1 -> x1*x2 + lam*zz.  Coefficients are block
matrices over the rationals, stored as their nonzero blocks keyed by
(row node, column node), each as integer rows over its least denominator
(`linalg.int_rows`) or as an int c, meaning c*I on a nonempty node; lam
acts blockwise (one rational per node) through left multiplication on
the target layout.  Products and sums run on those ints, one
`linalg.sum_of_products` pass per output block with each scalar folded
into its term's coefficient; Fractions are built only when read.

Only the cyclic (type A) case is wired up, rank 0 meaning the trivial
group: the first family of maps runs along a -> a+1, the second along
a -> a-1 (indices mod rank+1), so blocks sit at a -> a and a -> a+-1
only.  The two three-term maps

    a = (B1 z - x1, -(B2 z - x2), J z)^T
    b = (B2 z - x2,   B1 z - x1,  I z)

have the scalars -+1 as every x1 and x2 coefficient.  They compose to a
pure zz term whose block at node a is the node relation defect
B2B1 - B1B2 + IJ + lam there; every other degree-2 coefficient cancels
identically, whatever the input.  Each monad is composed once, on the
first read of `MonadData.composite`, in one pass over the three products
b_i a_i (`nc_sum_of_products`) that sums every output block once into
integer rows: on n-dimensional nodes only B2B1, B1B2 and IJ multiply
(n^3 each), a z*x term is -+B (n^2), an x*x term -+I or lam*I (n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from . import linalg
from .dynkin import _Record
from .linalg import IntMat, Mat

DEGREE = {
    "1": 0,
    "x1": 1, "x2": 1, "z": 1,
    "x1x1": 2, "x1x2": 2, "x2x2": 2, "zx1": 2, "zx2": 2, "zz": 2,
}

# word concatenation in normal form; True marks the lam * zz correction term
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
Blocks = dict[tuple[int, int], IntMat | int]   # (row node, column node) -> nonzero block


def layout_dim(layout: Layout) -> int:
    return sum(d for _, d in layout)


def _starts(layout: Layout) -> dict[int, int]:
    """First index of each node's block along the layout."""
    return dict(zip((node for node, _ in layout), accumulate((d for _, d in layout), initial=0)))


def _nonzero_blocks(blocks: Mapping[tuple[int, int], IntMat]) -> Blocks:
    return {key: m for key, m in blocks.items() if any(map(any, m[0]))}


def _term(c, a: IntMat | int, b: IntMat | int | None = None) -> tuple:
    """The `linalg.sum_of_products` term c*a*b, each int block s folded into c as s*I."""
    if isinstance(b, int):
        c, b = c * b, None
    return (c * a, b, None) if isinstance(a, int) else (c, a, b)


def _rational(m: IntMat | int | None, rows: int, cols: int) -> Mat:
    """The Fraction matrix of a block (None: zero), an int c read as c*I."""
    return linalg.rational_matrix(([[m * (i == j) for j in range(cols)] for i in range(rows)], 1)
                                  if isinstance(m, int) else m, rows, cols)


class NCElement:
    """Matrix-valued element in the normal-form basis, stored by nonzero integer blocks."""

    def __init__(self, row_layout: Layout, col_layout: Layout, coefficients: Mapping[str, Mat]):
        rows, cols = layout_dim(row_layout), layout_dim(col_layout)
        r0, c0 = _starts(row_layout), _starts(col_layout)
        if len(r0) != len(row_layout) or len(c0) != len(col_layout):
            raise ValueError("a layout lists a node twice")
        blocks = {}
        for mono, m in coefficients.items():
            if mono not in DEGREE:
                raise ValueError(f"unknown monomial {mono!r}")
            m, d = linalg.int_rows(m, f"coefficient of {mono}", (rows, cols))
            blocks[mono] = _nonzero_blocks({(r, c): linalg.int_rows(
                ([row[c0[c]:c0[c] + dc] for row in m[r0[r]:r0[r] + dr]], d))
                for r, dr in row_layout for c, dc in col_layout})
        self.row_layout, self.col_layout = row_layout, col_layout
        self.blocks: dict[str, Blocks] = {mono: t for mono, t in blocks.items() if t}

    @classmethod
    def _from_blocks(cls, row_layout: Layout, col_layout: Layout,
                     blocks: Mapping[str, Blocks]) -> "NCElement":
        """Element from its nonzero blocks by monomial; monomials without blocks are dropped."""
        e = cls.__new__(cls)
        e.row_layout, e.col_layout = row_layout, col_layout
        e.blocks = {mono: table for mono, table in blocks.items() if table}
        return e

    def _dense(self, table: Blocks) -> Mat:
        r0, c0 = _starts(self.row_layout), _starts(self.col_layout)
        rows, cols = dict(self.row_layout), dict(self.col_layout)
        out = linalg.zeros(layout_dim(self.row_layout), layout_dim(self.col_layout))
        for (r, c), m in table.items():
            for i, row in enumerate(_rational(m, rows[r], cols[c])):
                out[r0[r] + i][c0[c]:c0[c] + len(row)] = row
        return out

    @property
    def coefficients(self) -> dict[str, Mat]:
        """Dense Fraction view of the nonzero coefficients, built on each read."""
        return {mono: self._dense(table) for mono, table in self.blocks.items()}

    def coefficient(self, mono: str) -> Mat:
        return self._dense(self.blocks.get(mono, {}))

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def __add__(self, other: "NCElement") -> "NCElement":
        if self.row_layout != other.row_layout or self.col_layout != other.col_layout:
            raise ValueError("layout mismatch in addition")
        return _summed(self.row_layout, self.col_layout, [
            (mono, key, _term(1, m))
            for e in (self, other) for mono, table in e.blocks.items() for key, m in table.items()])

    def diagonal_block(self, mono: str, node: int) -> Mat:
        """Square block of a coefficient at one node (layouts must agree there), as Fractions."""
        dr, dc = dict(self.row_layout).get(node), dict(self.col_layout).get(node)
        if dr is None or dc is None:
            raise KeyError(f"node {node} is not in both layouts")
        return _rational(self.blocks.get(mono, {}).get((node, node)), dr, dc)


def nc_sum_of_products(pairs: Sequence[tuple[NCElement, NCElement]],
                       lam: Mapping[int, Fraction]) -> NCElement:
    """Normal form of the sum of u v over the pairs (u, v), in one pass.

    Every u must have the first u's row layout and every v the first v's
    column layout (ValueError otherwise); the rewrite's lam acts blockwise on
    that row layout.  Every term landing in one output block, from all pairs
    and the lam * zz terms included, is summed in one `linalg.sum_of_products`.
    The product of the monomial parts must stay inside the degree <= 2 basis,
    so in each pair both factors of degree 1, or either factor of degree 0.
    """
    rows_at, cols_at = pairs[0][0].row_layout, pairs[0][1].col_layout
    lam = {node: linalg.frac(x) for node, x in lam.items()}
    terms = []      # (monomial, output block, (scalar, left factor, right factor))
    for u, v in pairs:
        if u.col_layout != v.row_layout:
            raise ValueError("inner layouts do not match")
        if u.row_layout != rows_at or v.col_layout != cols_at:
            raise ValueError("outer layouts differ between the products")
        # v's blocks of each monomial, by row node: k -> [(c, block), ...]
        v_rows: dict[str, dict[int, list[tuple[int, IntMat]]]] = {}
        for mv, table in v.blocks.items():
            for (k, c), m in table.items():
                v_rows.setdefault(mv, {}).setdefault(k, []).append((c, m))
        for mu, cu in u.blocks.items():
            for mv, rows_of in v_rows.items():
                words = ([(mv, False)] if mu == "1" else [(mu, False)] if mv == "1"
                         else _PRODUCTS.get((mu, mv)))
                if words is None:
                    raise ValueError(f"product {mu} * {mv} leaves the degree-2 normal form")
                for (r, k), bu in cu.items():
                    for c, bv in rows_of.get(k, ()):
                        for mono, needs_lam in words:
                            scalar = lam[r] if needs_lam else 1
                            if scalar:
                                terms.append((mono, (r, c), _term(scalar, bu, bv)))
    return _summed(rows_at, cols_at, terms)


def _summed(row_layout: Layout, col_layout: Layout, terms: Iterable[tuple]) -> NCElement:
    """Element whose block at each (monomial, block) sums the terms (c, a, b) given there."""
    at: dict[tuple[str, tuple[int, int]], list] = {}
    for mono, key, term in terms:
        at.setdefault((mono, key), []).append(term)
    rows, cols = dict(row_layout), dict(col_layout)
    blocks: dict[str, Blocks] = {}
    for (mono, (r, c)), block_terms in at.items():
        total = linalg.sum_of_products(block_terms, rows[r], cols[c])
        if total is not None:
            blocks.setdefault(mono, {})[r, c] = total
    return NCElement._from_blocks(row_layout, col_layout, blocks)


class MonadData(_Record):
    """The monad for the cyclic group of order `rank` + 1 (rank 0: the trivial group);
    `a` is a column of three maps, `b` a row of three."""
    _fields = ("rank", "dims", "framing_dims", "lam", "a", "b")

    @cached_property
    def composite(self) -> NCElement:
        """Normal form of b o a, the sum of the b_i a_i, composed on first read in one pass."""
        return nc_sum_of_products(list(zip(self.b, self.a)), self.lam)


def build_monad(rank: int, b1: Mapping[int, Mat], b2: Mapping[int, Mat],
                i_blocks: Mapping[int, Mat], j_blocks: Mapping[int, Mat],
                lam: Mapping[int, Fraction],
                dims: Mapping[int, int], framing_dims: Mapping[int, int]) -> MonadData:
    """Assemble the two three-term maps from per-node blocks.

    b1[a] maps node a to a+1, b2[a] maps a to a-1 (mod rank+1); i_blocks
    and j_blocks are the framing maps in and out, per node.  Missing
    blocks are zero.
    """
    n = linalg.integer(rank, "rank") + 1
    dims = {a: linalg.integer(dims[a], f"dims[{a}]") for a in range(n)}
    framing = {a: linalg.integer(framing_dims.get(a, 0), f"framing_dims[{a}]") for a in range(n)}
    lam_full = {a: linalg.frac(lam.get(a, 0)) for a in range(n)}
    v_layout: Layout = tuple((a, dims[a]) for a in range(n))
    w_layout: Layout = tuple((a, framing[a]) for a in range(n))

    def place(name: str, blocks: Mapping[int, Mat], row_dims: Mapping[int, int],
              col_dims: Mapping[int, int], shift: int) -> Blocks:
        # per-node blocks sending node a into node a+shift (mod rank+1)
        stray = set(blocks) - set(range(n))
        if stray:
            raise ValueError(f"{name} blocks at unknown nodes {sorted(stray)}")
        return _nonzero_blocks({((a + shift) % n, a): linalg.int_rows(
            m, f"{name} block at node {a}", (row_dims[(a + shift) % n], col_dims[a]))
            for a, m in sorted(blocks.items())})

    b1_blocks = place("b1", b1, dims, dims, +1)
    b2_blocks = place("b2", b2, dims, dims, -1)
    i_z, j_z = place("i", i_blocks, dims, framing, 0), place("j", j_blocks, framing, dims, 0)
    neg_b2 = {key: ([[-x for x in row] for row in ints], d)
              for key, (ints, d) in b2_blocks.items()}
    ident = {(a, a): 1 for a, d in dims.items() if d}     # I at every nonempty node
    neg_ident = dict.fromkeys(ident, -1)
    a_col = [
        NCElement._from_blocks(v_layout, v_layout, {"z": b1_blocks, "x1": neg_ident}),
        NCElement._from_blocks(v_layout, v_layout, {"z": neg_b2, "x2": ident}),
        NCElement._from_blocks(w_layout, v_layout, {"z": j_z}),
    ]
    b_row = [
        NCElement._from_blocks(v_layout, v_layout, {"z": b2_blocks, "x2": neg_ident}),
        NCElement._from_blocks(v_layout, v_layout, {"z": b1_blocks, "x1": neg_ident}),
        NCElement._from_blocks(v_layout, w_layout, {"z": i_z}),
    ]
    return MonadData(rank, dims, framing, lam_full, a_col, b_row)


STRUCTURAL_ZERO_MONOMIALS = ("x1x1", "x2x2", "zx1", "zx2", "x1x2")


def compose_and_check(m: MonadData) -> tuple[NCElement, bool]:
    """Normal form of b o a and whether it vanishes identically."""
    return m.composite, m.composite.is_zero


def node_relation_defects(m: MonadData) -> dict[int, Mat]:
    """zz blocks of the composite, one square matrix per node."""
    return {a: m.composite.diagonal_block("zz", a) for a in m.dims}
