"""Quiver shapes built on the (affine) ADE diagrams.

Three flavours share a node set and the doubled-edge skeleton:

* ``mckay``: every diagram edge doubled into an opposite pair of arrows
  carrying signs +1/-1;
* ``extended``: the McKay quiver plus one framing leaf per node, with an
  arrow in each direction between leaf and node;
* ``n1``: the McKay quiver plus one loop at every node.

Sign convention.  On type-A affine diagrams the positive arrow runs
along the cycle a -> a+1 (mod n+1); for the doubled A1 bond the second
pair is reversed, so 0 -> 1 is positive in pair 0 and 1 -> 0 is positive
in pair 1.  On the D and E trees the positive arrow runs from the lower
to the higher node label.  Opposite arrows always carry opposite signs;
loops and framing arrows carry sign 0.
"""

from __future__ import annotations

from functools import lru_cache

from .dynkin import (DynkinType, _Frozen, adjacency_matrix, affine_edges, finite_edges,
                     node_labels)

MCKAY = "mckay"
EXTENDED = "extended"
N1 = "n1"

KIND_MCKAY = "mckay"
KIND_LOOP = "loop"
KIND_FRAMING_IN = "framing_in"
KIND_FRAMING_OUT = "framing_out"


class Arrow(_Frozen):
    __slots__ = _fields = ("source", "target", "kind", "sign", "pair_index")
    _defaults = {"pair_index": 0}

    def reversed_key(self) -> tuple:
        return (self.target, self.source, self.pair_index)

    @property
    def key(self) -> tuple:
        return (self.source, self.target, self.pair_index)


class QuiverSpec(_Frozen):
    __slots__ = _fields = ("type", "flavor", "affine", "nodes", "arrows")

    def mckay_arrows(self) -> list[Arrow]:
        return [a for a in self.arrows if a.kind == KIND_MCKAY]


def _oriented_pairs(t: DynkinType, affine: bool) -> list[tuple[int, int, int]]:
    """(source, target, pair_index) for the positive arrow of every doubled edge."""
    n = t.rank
    if affine and t.family == "A":
        if n == 1:
            return [(0, 1, 0), (1, 0, 1)]
        return [(a, (a + 1) % (n + 1), 0) for a in range(n + 1)]
    edges = affine_edges(t) if affine else finite_edges(t)
    return [(min(a, b), max(a, b), 0) for a, b in edges]


def _doubled_arrows(t: DynkinType, affine: bool) -> list[Arrow]:
    arrows = []
    for src, tgt, pair in _oriented_pairs(t, affine):
        arrows.append(Arrow(src, tgt, KIND_MCKAY, +1, pair))
        arrows.append(Arrow(tgt, src, KIND_MCKAY, -1, pair))
    return arrows


def build_mckay_quiver(t: DynkinType, affine: bool = True) -> QuiverSpec:
    nodes = tuple(node_labels(t, affine))
    return QuiverSpec(t, MCKAY, affine, nodes, tuple(_doubled_arrows(t, affine)))


def build_extended_quiver(t: DynkinType, affine: bool = True) -> QuiverSpec:
    base = node_labels(t, affine)
    leaves = [f"leaf({a})" for a in base]
    arrows = _doubled_arrows(t, affine)
    for a in base:
        arrows.append(Arrow(f"leaf({a})", a, KIND_FRAMING_IN, 0))
        arrows.append(Arrow(a, f"leaf({a})", KIND_FRAMING_OUT, 0))
    return QuiverSpec(t, EXTENDED, affine, tuple(base + leaves), tuple(arrows))


def build_n1_quiver(t: DynkinType, affine: bool = True) -> QuiverSpec:
    """The McKay quiver with a loop at every node; built once per (type, affine) and shared."""
    return _n1_quiver_cached(t, affine)


@lru_cache(maxsize=None)
def _n1_quiver_cached(t: DynkinType, affine: bool) -> QuiverSpec:
    # lru_cache keys on how a call is spelled, so (t), (t, True) and (t, affine=True) on
    # build_n1_quiver itself would build three quivers; the wrapper passes one spelling
    nodes = tuple(node_labels(t, affine))
    arrows = _doubled_arrows(t, affine)
    for a in nodes:
        arrows.append(Arrow(a, a, KIND_LOOP, 0))
    return QuiverSpec(t, N1, affine, nodes, tuple(arrows))


def validate_quiver(q: QuiverSpec) -> None:
    """Structural sanity: pairing, sign antisymmetry, arrow counts."""
    mckay = q.mckay_arrows()
    by_key = {a.key: a for a in mckay}
    if len(by_key) != len(mckay):
        raise AssertionError("duplicate arrow keys")
    for a in mckay:
        partner = by_key.get(a.reversed_key())
        if partner is None or partner.sign != -a.sign or abs(a.sign) != 1:
            raise AssertionError(f"arrow {a.key} lacks an opposite partner of opposite sign")
    expected = 2 * sum(
        m
        for i, row in enumerate(adjacency_matrix(q.type, q.affine))
        for j, m in enumerate(row)
        if j > i
    )
    if len(mckay) != expected:
        raise AssertionError(f"expected {expected} doubled arrows, found {len(mckay)}")


def to_dot(q: QuiverSpec) -> str:
    """Deterministic Graphviz rendering; signs label the doubled arrows."""
    lines = [f'digraph "{q.type}_{q.flavor}" {{']
    for n in q.nodes:
        if isinstance(n, str):
            lines.append(f'  "{n}" [shape=square];')
        else:
            lines.append(f'  "{n}" [shape=circle];')
    for a in sorted(q.arrows, key=lambda a: (str(a.source), str(a.target), a.pair_index, a.kind)):
        attrs = []
        if a.kind == KIND_MCKAY:
            attrs.append(f'label="{a.sign:+d}"')
            if a.pair_index:
                attrs.append('style=dashed')
        elif a.kind == KIND_LOOP:
            attrs.append('label="loop"')
        else:
            attrs.append('style=dotted')
        lines.append(f'  "{a.source}" -> "{a.target}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
