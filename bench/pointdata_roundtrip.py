"""Workload pointdata-roundtrip: representations through point data and back, in process.

Each input is an affine A2 or A3 representation built in a planted
basis: loops are rational Jordan matrices, arrows are random
intertwiners between them (upper triangular Toeplitz blocks between
Jordan blocks of equal eigenvalue), and everything is then conjugated
by a random rational base change per node.

One operation runs `sheaf.quadruple_to_quintuple` and
`quintuple_to_quadruple`, compares the result with
`adhm.conjugate(rep, g)`, and runs `adhm.check_relations`.  It is
checked against what was planted: the partitions per support point, the
Jordan matrices the round trip must return, zero edge defects, and the
node-relation verdict, which is computed at set-up in the planted basis
(conjugation does not change whether a residual vanishes).

Dimensions are 1-5 per node for most instances; a tail has one node of
dimension 8-10.  Each round fixes the dimension vector of every instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import exact

WHY = ("exact elimination and spectra (rref, char_poly_coeffs, rational_eigenvalues, "
       "jordan_form, inverse) and their bit growth, plus sheaf and adhm; no monad or gamma")

# (type, dims per node, instances per round), in four bands of the
# round: light (40%), middle (20%), upper (20%) and a tail (20%) with one
# node of dimension 8-10.  latency_p50_ms falls in the middle of the
# middle band and latency_p90_ms inside the tail's largest cell, not on a
# boundary between cells, so neither jumps from seed to seed.
CELLS = (
    ("A2", (1, 2, 1), 3), ("A3", (1, 2, 2, 1), 3), ("A2", (2, 3, 2), 4),
    ("A3", (2, 3, 3, 2), 5),
    ("A2", (3, 4, 3), 2), ("A2", (5, 4, 5), 3),
    ("A2", (8, 2, 3), 1), ("A3", (2, 3, 8, 4), 2), ("A2", (3, 9, 2), 1), ("A3", (10, 2, 3, 1), 1),
)


# loop eigenvalues: two of these per instance
PALETTE = tuple(sorted({Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2)}))


@dataclass
class Instance:
    cell: str
    rep: object                # adequiver.adhm.N1Representation, conjugated
    theta: dict                # node -> ascending coefficients
    points: dict               # node -> planted canonical point data
    jordan: dict               # node -> Jordan matrix the round trip must return
    nodes_zero: bool


def _partition_blocks(rng: Random, d: int, palette: list) -> list:
    """Jordan blocks (eigenvalue, size) filling dimension d.

    Block sizes follow the fixed pattern 2, 1, 3, 1, 2, 1, 3, ... and the
    eigenvalues alternate over the palette from a random start, so the
    cost of an instance depends on its cell and not on the draw.
    """
    blocks = []
    left = d
    start = rng.randrange(len(palette))
    for k in range(d):
        if not left:
            break
        size = min((2, 1, 3, 1)[k % 4], left)
        blocks.append((palette[(start + k) % len(palette)], size))
        left -= size
    return blocks


def _canonical(blocks: list) -> tuple:
    by_point = {}
    for lam, size in blocks:
        by_point.setdefault(lam, []).append(size)
    return tuple((lam, tuple(sorted(sizes, reverse=True))) for lam, sizes in sorted(by_point.items()))


def _jordan_of(points: tuple) -> list:
    blocks = [exact.jordan_block(lam, size) for lam, sizes in points for size in sizes]
    sizes = [size for _, sizes in points for size in sizes]
    return exact.block_diag(blocks, sizes)


def intertwiner(rng: Random, tgt: list, src: list) -> list:
    """Random X with J_tgt X = X J_src, block by block."""
    rows, cols = sum(s for _, s in tgt), sum(s for _, s in src)
    out = exact.zeros(rows, cols)
    r0 = 0
    for lam_t, n in tgt:
        c0 = 0
        for lam_s, m in src:
            if lam_t == lam_s:
                # X[i][j] = c[j - i], nonzero only for max(0, m - n) <= j - i <= m - 1
                coeffs = {t: exact.rand_frac(rng, 2) for t in range(max(0, m - n), m)}
                for i in range(n):
                    for j in range(m):
                        if j - i in coeffs:
                            out[r0 + i][c0 + j] = coeffs[j - i]
            c0 += m
        r0 += n
    return out


def make_instance(rng: Random, type_name: str, dims: tuple):
    from adequiver import adhm, dynkin
    t = dynkin.DynkinType.parse(type_name)
    labels = list(range(len(dims)))
    n = len(labels)
    # affine A_n, n >= 2: the positive arrow runs a -> a+1 around the cycle
    arrows = [(a, (a + 1) % n, 0, 1) for a in labels] + [((a + 1) % n, a, 0, -1) for a in labels]
    palette = rng.sample(PALETTE, 2)
    blocks = {a: _partition_blocks(rng, dims[a], palette) for a in labels}
    psi = {a: exact.block_diag([exact.jordan_block(l, s) for l, s in blocks[a]],
                               [s for _, s in blocks[a]]) for a in labels}
    b = {(s, tg, p): intertwiner(rng, blocks[tg], blocks[s]) for s, tg, p, _ in arrows}
    framing = {a: (1 if rng.random() < 0.5 else 0) for a in labels}
    vectors = {a: [[exact.rand_frac(rng) for _ in range(dims[a])] for _ in range(framing[a])]
               for a in labels}
    theta = {a: [exact.rand_frac(rng) for _ in range(rng.randint(1, 3))] for a in labels}
    nodes_zero = True
    for a in labels:
        d = dims[a]
        acc = exact.poly_at(theta[a], psi[a], d)
        for s, tg, p, sign in arrows:
            if s == a:
                term = exact.mul(b[(tg, s, p)], b[(s, tg, p)], d, dims[tg], d)
                acc = exact.add(acc, term) if sign > 0 else exact.sub(acc, term)
        nodes_zero = nodes_zero and exact.is_zero(acc)
    gs = {a: exact.rand_invertible(rng, dims[a]) for a in labels}
    rep = adhm.N1Representation(
        type=t, dims=dict(enumerate(dims)),
        B={k: exact.mul(exact.mul(gs[k[1]][0], m, dims[k[1]], dims[k[1]], dims[k[0]]),
                        gs[k[0]][1], dims[k[1]], dims[k[0]], dims[k[0]])
           for k, m in b.items()},
        Psi={a: exact.mul(exact.mul(gs[a][0], psi[a], dims[a], dims[a], dims[a]),
                          gs[a][1], dims[a], dims[a], dims[a]) for a in labels},
        framing_ranks=framing,
        I={a: [[sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in gs[a][0]]
               for v in vectors[a]] for a in labels},
    )
    points = {a: _canonical(blocks[a]) for a in labels}
    return Instance(
        cell=f"{type_name}-{'x'.join(map(str, dims))}", rep=rep, theta=theta,
        points=points, jordan={a: _jordan_of(points[a]) for a in labels},
        nodes_zero=nodes_zero,
    )


def make_round(rng: Random) -> list:
    ops = [make_instance(rng, t, dims) for t, dims, count in CELLS for _ in range(count)]
    rng.shuffle(ops)
    return ops


class Workload:
    name = "pointdata-roundtrip"
    why = WHY
    in_process = True

    def __init__(self, root: str, seed: int, pool_rounds: int):
        self.seed = seed
        self.pool_rounds = pool_rounds

    def setup(self) -> None:
        rng = Random(f"pointdata-roundtrip/{self.seed}")
        self.rounds = [make_round(rng) for _ in range(self.pool_rounds)]

    def warm_up(self) -> None:
        small = [inst for inst in self.rounds[0] if inst.rep.total_dim <= 6]
        for inst in small[:2]:
            self.check(inst, self.run(inst))

    def run(self, inst: Instance):
        from adequiver import adhm, sheaf
        data, g = sheaf.quadruple_to_quintuple(inst.rep)
        back = sheaf.quintuple_to_quadruple(data)
        same = back == adhm.conjugate(inst.rep, g)
        return data, back, same, adhm.check_relations(inst.rep, inst.theta)

    def check(self, inst: Instance, outcome) -> bool:
        data, back, same, residual = outcome
        return (same
                and all(data.node_sheaves[a].points == pts for a, pts in inst.points.items())
                and all(back.Psi[a] == j for a, j in inst.jordan.items())
                and residual.edges_zero
                and residual.nodes_zero == inst.nodes_zero)

    def close(self) -> None:
        pass
