"""Workload monad-flatness: cyclic two-term composites, in process.

Each operation builds the two maps of a type A instance, composes them
(`monad.build_monad` -> `compose_and_check` -> `node_relation_defects`)
and is checked against a blockwise expansion of the node defects

    b2[a+1] b1[a] - b1[a-1] b2[a] + i[a] j[a] + lam[a]

computed at set-up with the benchmark's own arithmetic.

Inputs: cycle lengths 1-6, dimensions 0-6 per node, framing 0-2 per
node.  Half of the instances are flat by construction: the two arrow
families live on complementary summands at every node (so both products
vanish), framing maps either compose to zero or to -lam on nodes small
enough to carry a nonzero lam, and the whole instance is conjugated by
random unimodular base changes.  The other half add a nonzero shift to
lam at one occupied node, which leaves that node's defect a nonzero
multiple of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import exact

WHY = ("dense zero-padded block products: almost all time is linalg.mat_mul "
       "in monad; no elimination, numpy, gamma or io")

# (dimensions per node, instances per round), in four bands of the
# round whose costs do not overlap: light (40%, under 5 ms here), middle
# (20%, about 35 ms), upper (20%, 50-65 ms) and heavy (20%, over 100 ms).
# Each instance puts its cell's dimensions in a random order around the
# cycle.  The cost of an operation grows with the cube of the total
# dimension, so fixing each cell's dimensions (rather than drawing them)
# keeps the mix the same from seed to seed; and latency_p50_ms and
# latency_p90_ms fall inside the middle and heavy bands, not on a
# boundary between cells.  Half of each cell is flat.
CELLS = (
    ((2,), 2), ((4,), 2), ((1, 3), 2), ((0, 2, 1), 2),
    ((6, 2), 4),
    ((2, 2, 2, 2), 2), ((3, 0, 2, 2, 2), 2),
    ((2, 2, 2, 2, 2, 2), 4),
)


@dataclass
class Instance:
    cell: str
    rank: int
    dims: dict
    framing: dict
    b1: dict
    b2: dict
    i_blocks: dict
    j_blocks: dict
    lam: dict
    defects: dict      # expected node defects, from the blockwise expansion
    flat: bool


def _embed(block: list, rows: int, cols: int, row_at: int, col_at: int) -> list:
    out = exact.zeros(rows, cols)
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            out[row_at + i][col_at + j] = x
    return out


def _framing_pair(rng: Random, d: int, f: int, lam: Fraction) -> tuple[list, list]:
    """(i, j) of shapes d x f and f x d with i j = -lam."""
    if lam:
        # d <= f here: i = [m | x], j = -lam [m^-1; 0]
        while True:
            m = exact.rand_int_matrix(rng, d, d, 2)
            if exact.rank(m, d) == d:
                break
        i = [row + [Fraction(rng.randint(-2, 2)) for _ in range(f - d)] for row in m]
        minv = exact.scale(-lam, exact.inverse(m))
        j = minv + exact.zeros(f - d, d)
        return i, j
    if f >= 2:
        # i kills the second framing direction, j maps into it
        i = [[Fraction(rng.randint(-2, 2))] + [Fraction(0)] * (f - 1) for _ in range(d)]
        j = [[Fraction(0)] * d] + exact.rand_int_matrix(rng, f - 1, d, 2)
        return i, j
    if f == 1 and rng.random() < 0.5:
        return exact.rand_int_matrix(rng, d, 1, 2), exact.zeros(1, d)
    return exact.zeros(d, f), exact.rand_int_matrix(rng, f, d, 2)


def blockwise_defects(n: int, dims: dict, framing: dict, b1: dict, b2: dict,
                      i_blocks: dict, j_blocks: dict, lam: dict) -> dict:
    out = {}
    for a in range(n):
        up, dn, d = (a + 1) % n, (a - 1) % n, dims[a]
        acc = exact.mul(b2[up], b1[a], d, dims[up], d)
        acc = exact.sub(acc, exact.mul(b1[dn], b2[a], d, dims[dn], d))
        acc = exact.add(acc, exact.mul(i_blocks[a], j_blocks[a], d, framing[a], d))
        out[a] = exact.add(acc, exact.scale(lam[a], exact.ident(d)))
    return out


def make_instance(rng: Random, dims: tuple, flat: bool, framing_out: bool = True) -> Instance:
    """One instance on a cycle with these dimensions, in random order.

    Without framing_out every j block is zero (and so is lam when flat).
    """
    n = len(dims)
    dims = rng.sample(dims, n)
    framing = rng.sample(([1, 2, 0] * 2)[:n], n)
    # summand carrying b1 at each node: half of it, so that neither arrow
    # family vanishes and the cost of a cell does not depend on the draw
    first = [(d + 1) // 2 for d in dims]
    lam = [Fraction(0)] * n
    for a in range(n):
        if framing_out and 0 < dims[a] <= framing[a] and rng.random() < 0.7:
            lam[a] = exact.rand_frac(rng) or Fraction(1)
    b1, b2, ib, jb = {}, {}, {}, {}
    for a in range(n):
        up, dn = (a + 1) % n, (a - 1) % n
        blk = exact.rand_int_matrix(rng, first[up], first[a], 2)
        b1[a] = _embed(blk, dims[up], dims[a], 0, 0)
        blk = exact.rand_int_matrix(rng, dims[dn] - first[dn], dims[a] - first[a], 2)
        b2[a] = _embed(blk, dims[dn], dims[a], first[dn], first[a])
        ib[a], jb[a] = _framing_pair(rng, dims[a], framing[a], lam[a])
        if not framing_out:
            jb[a] = exact.zeros(framing[a], dims[a])
    gs = [exact.rand_unimodular(rng, d) for d in dims]
    for a in range(n):
        up, dn, d = (a + 1) % n, (a - 1) % n, dims[a]
        g, ginv = gs[a]
        b1[a] = exact.mul(exact.mul(gs[up][0], b1[a], dims[up], dims[up], d), ginv,
                          dims[up], d, d)
        b2[a] = exact.mul(exact.mul(gs[dn][0], b2[a], dims[dn], dims[dn], d), ginv,
                          dims[dn], d, d)
        ib[a] = exact.mul(g, ib[a], d, d, framing[a])
        jb[a] = exact.mul(jb[a], ginv, framing[a], d, d)
    if not flat:
        occupied = [a for a in range(n) if dims[a]]
        a = rng.choice(occupied)
        lam[a] += Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.choice((1, 2, 3)))
    dims_d = dict(enumerate(dims))
    framing_d = dict(enumerate(framing))
    lam_d = dict(enumerate(lam))
    defects = blockwise_defects(n, dims_d, framing_d, b1, b2, ib, jb, lam_d)
    return Instance(
        cell=f"L{n}-T{sum(dims)}", rank=n - 1, dims=dims_d, framing=framing_d,
        b1=b1, b2=b2, i_blocks=ib, j_blocks=jb, lam=lam_d, defects=defects,
        flat=all(exact.is_zero(m) for m in defects.values()),
    )


def make_round(rng: Random) -> list:
    ops = [make_instance(rng, dims, k % 2 == 0) for dims, count in CELLS for k in range(count)]
    rng.shuffle(ops)
    return ops


class Workload:
    name = "monad-flatness"
    why = WHY
    in_process = True

    def __init__(self, root: str, seed: int, pool_rounds: int):
        self.seed = seed
        self.pool_rounds = pool_rounds

    def setup(self) -> None:
        rng = Random(f"monad-flatness/{self.seed}")
        self.rounds = [make_round(rng) for _ in range(self.pool_rounds)]

    def warm_up(self) -> None:
        # the smallest instance of each cycle length touches every code path
        seen = {}
        for inst in self.rounds[0]:
            key = inst.rank
            if key not in seen or sum(inst.dims.values()) < sum(seen[key].dims.values()):
                seen[key] = inst
        for inst in seen.values():
            self.check(inst, self.run(inst))

    def run(self, inst: Instance):
        from adequiver import monad
        m = monad.build_monad(inst.rank, inst.b1, inst.b2, inst.i_blocks, inst.j_blocks,
                              inst.lam, inst.dims, inst.framing)
        composite, holds = monad.compose_and_check(m)
        return composite, holds, monad.node_relation_defects(m)

    def check(self, inst: Instance, outcome) -> bool:
        composite, holds, defects = outcome
        return (holds == inst.flat
                and set(composite.coefficients) <= {"zz"}
                and defects == inst.defects)

    def close(self) -> None:
        pass
