import random
from fractions import Fraction

import pytest

from adequiver import linalg, monad
from adequiver.monad import NCElement

from helpers import rand_matrix

ONE_NODE = ((0, 1),)


def scalar(mono, value, lay=ONE_NODE):
    return NCElement(lay, lay, {mono: [[value]]})


class TestNCElement:
    def test_monomials_validated(self):
        with pytest.raises(ValueError):
            NCElement(ONE_NODE, ONE_NODE, {"x3": [[1]]})
        with pytest.raises(ValueError):
            NCElement(ONE_NODE, ONE_NODE, {"x1": [[1, 2]]})

    def test_zero_coefficients_dropped(self):
        e = NCElement(ONE_NODE, ONE_NODE, {"x1": [[0]], "z": [[2]]})
        assert set(e.coefficients) == {"z"}
        assert e.coefficient("x1") == [[0]]

    def test_degenerate_layout_blocks_accepted(self):
        lay0 = ((0, 0),)
        NCElement(lay0, ONE_NODE, {"z": []})
        NCElement(ONE_NODE, lay0, {"z": [[]]})
        with pytest.raises(ValueError):
            NCElement(lay0, ONE_NODE, {"z": [[1]]})

    def test_degrees_and_homogeneity(self):
        e = scalar("x1", 1)
        assert {monad.DEGREE[m] for m in e.coefficients} == {1}
        assert e.is_homogeneous(1) and not e.is_homogeneous(2)
        assert (e + scalar("x1", -1)).is_zero

    def test_add_requires_matching_layouts(self):
        with pytest.raises(ValueError):
            scalar("z", 1) + NCElement(((1, 1),), ((1, 1),), {"z": [[1]]})

    def test_diagonal_block(self):
        lay = ((0, 1), (1, 2))
        e = NCElement(lay, lay, {"zz": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
        assert e.diagonal_block("zz", 0) == [[1]]
        assert e.diagonal_block("zz", 1) == [[5, 6], [8, 9]]
        with pytest.raises(KeyError):
            e.diagonal_block("zz", 7)


class TestNormalFormProduct:
    def test_plain_concatenation(self):
        got = monad.nc_multiply(scalar("x1", 1), scalar("x2", 1), {0: 1})
        assert got.coefficients == {"x1x2": [[Fraction(1)]]}

    def test_rewrite_injects_corrector(self):
        got = monad.nc_multiply(scalar("x2", 3), scalar("x1", 5), {0: 2})
        assert got.coefficient("x1x2") == [[Fraction(15)]]
        assert got.coefficient("zz") == [[Fraction(30)]]

    def test_center_commutes(self):
        zx = monad.nc_multiply(scalar("z", 1), scalar("x1", 1), {0: 0})
        xz = monad.nc_multiply(scalar("x1", 1), scalar("z", 1), {0: 0})
        assert zx.coefficients == xz.coefficients == {"zx1": [[Fraction(1)]]}

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            monad.nc_multiply(scalar("x1x1", 1), scalar("x1", 1), {0: 0})

    def test_inner_layout_mismatch_rejected(self):
        u = NCElement(ONE_NODE, ((0, 2),), {"z": [[1, 0]]})
        with pytest.raises(ValueError):
            monad.nc_multiply(u, scalar("z", 1), {0: 0})

    def test_unit_passthrough_and_associativity(self):
        rng = random.Random(7)
        lay = ((0, 2),)
        lam = {0: Fraction(3, 2)}
        u = NCElement(lay, lay, {"x2": rand_matrix(rng, 2, 2), "z": rand_matrix(rng, 2, 2)})
        v = NCElement(lay, lay, {"x1": rand_matrix(rng, 2, 2)})
        w = NCElement(lay, lay, {"1": rand_matrix(rng, 2, 2)})
        left = monad.nc_multiply(monad.nc_multiply(u, v, lam), w, lam)
        right = monad.nc_multiply(u, monad.nc_multiply(v, w, lam), lam)
        assert left.coefficients == right.coefficients
        wu = monad.nc_multiply(w, u, lam)
        assert set(wu.coefficients) == set(u.coefficients)

    def test_lambda_acts_on_target_blocks(self):
        lay = ((0, 1), (1, 1))
        lam = {0: Fraction(2), 1: Fraction(-3)}
        u = NCElement(lay, lay, {"x2": linalg.identity(2)})
        v = NCElement(lay, lay, {"x1": linalg.identity(2)})
        got = monad.nc_multiply(u, v, lam)
        assert got.coefficient("zz") == [[Fraction(2), 0], [0, Fraction(-3)]]


def cyclic_blockwise_defects(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing):
    """Independent per-node expansion of the quadratic relation."""
    n = rank + 1

    def blk(table, a, rows, cols):
        m = table.get(a)
        if m is None:
            return linalg.zeros(rows, cols)
        return linalg.matrix(m)

    def safe_mul(p, q, out_dim, inner):
        if inner == 0:
            return linalg.zeros(out_dim)
        return linalg.mat_mul(p, q)

    out = {}
    for a in range(n):
        up, down = (a + 1) % n, (a - 1) % n
        t1 = safe_mul(
            blk(b2, up, dims[a], dims[up]), blk(b1, a, dims[up], dims[a]),
            dims[a], dims[up],
        )
        t2 = safe_mul(
            blk(b1, down, dims[a], dims[down]), blk(b2, a, dims[down], dims[a]),
            dims[a], dims[down],
        )
        t3 = safe_mul(
            blk(i_blocks, a, dims[a], framing.get(a, 0)),
            blk(j_blocks, a, framing.get(a, 0), dims[a]),
            dims[a], framing.get(a, 0),
        )
        acc = linalg.mat_sub(t1, t2)
        acc = linalg.mat_add(acc, t3)
        acc = linalg.mat_add(
            acc, linalg.mat_scale(linalg.frac(lam.get(a, 0)), linalg.identity(dims[a]))
        )
        out[a] = acc
    return out


class TestMonad:
    def test_rank1_satisfying_instance(self):
        b1 = {0: [[2]], 1: [[3]]}
        b2 = {0: [[5]], 1: [[7]]}
        lam = {0: 1, 1: -1}
        m = monad.build_monad(1, b1, b2, {}, {}, lam, {0: 1, 1: 1}, {})
        composite, ok = monad.compose_and_check(m)
        assert ok and composite.is_zero
        assert monad.node_relation_defects(m) == {0: [[0]], 1: [[0]]}

    def test_rank1_perturbed_defects(self):
        b1 = {0: [[4]], 1: [[3]]}
        b2 = {0: [[5]], 1: [[7]]}
        lam = {0: 1, 1: -1}
        m = monad.build_monad(1, b1, b2, {}, {}, lam, {0: 1, 1: 1}, {})
        composite, ok = monad.compose_and_check(m)
        assert not ok
        assert monad.node_relation_defects(m) == {0: [[14]], 1: [[-14]]}
        for mono in monad.STRUCTURAL_ZERO_MONOMIALS:
            assert linalg.is_zero_matrix(composite.coefficient(mono))

    def test_rank0_framed_instance(self):
        # one node, dim 1: commutator vanishes, so lam must cancel i*j
        m = monad.build_monad(
            0, {0: [[2]]}, {0: [[3]]}, {0: [[5]]}, {0: [[7]]},
            {0: -35}, {0: 1}, {0: 1},
        )
        composite, ok = monad.compose_and_check(m)
        assert ok
        m2 = monad.build_monad(
            0, {0: [[2]]}, {0: [[3]]}, {0: [[5]]}, {0: [[7]]},
            {0: 0}, {0: 1}, {0: 1},
        )
        assert monad.node_relation_defects(m2) == {0: [[35]]}

    def test_composite_is_purely_quadratic(self):
        m = monad.build_monad(
            0, {0: [[0, 1], [0, 0]]}, {0: [[0, 0], [1, 0]]},
            {0: [[1], [0]]}, {0: [[0, 2]]}, {0: Fraction(1, 3)}, {0: 2}, {0: 1},
        )
        composite, _ = monad.compose_and_check(m)
        assert composite.is_homogeneous(2)
        assert set(composite.coefficients) <= {"zz"}

    def test_structural_cancellation_random(self):
        rng = random.Random(42)
        for trial in range(60):
            rank = rng.randrange(4)
            n = rank + 1
            dims = {a: rng.randrange(4) for a in range(n)}
            framing = {a: rng.randrange(3) for a in range(n)}
            b1 = {a: rand_matrix(rng, dims[(a + 1) % n], dims[a]) for a in range(n)}
            b2 = {a: rand_matrix(rng, dims[(a - 1) % n], dims[a]) for a in range(n)}
            i_blocks = {a: rand_matrix(rng, dims[a], framing[a]) for a in range(n)}
            j_blocks = {a: rand_matrix(rng, framing[a], dims[a]) for a in range(n)}
            lam = {a: Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for a in range(n)}
            m = monad.build_monad(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing)
            composite, ok = monad.compose_and_check(m)
            for mono in monad.STRUCTURAL_ZERO_MONOMIALS:
                assert linalg.is_zero_matrix(composite.coefficient(mono)), (trial, mono)
            want = cyclic_blockwise_defects(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing)
            got = monad.node_relation_defects(m)
            assert got == want, trial
            assert ok == all(linalg.is_zero_matrix(v) for v in want.values())

    def test_lambda_shift_moves_defects_by_identity(self):
        rng = random.Random(8)
        dims = {0: 2, 1: 1, 2: 2}
        b1 = {a: rand_matrix(rng, dims[(a + 1) % 3], dims[a]) for a in range(3)}
        b2 = {a: rand_matrix(rng, dims[(a - 1) % 3], dims[a]) for a in range(3)}
        lam = {0: 1, 1: 2, 2: 0}
        base = monad.node_relation_defects(
            monad.build_monad(2, b1, b2, {}, {}, lam, dims, {})
        )
        mu = Fraction(5, 2)
        shifted = monad.node_relation_defects(
            monad.build_monad(2, b1, b2, {}, {}, {a: lam[a] + mu for a in lam}, dims, {})
        )
        for a in range(3):
            assert shifted[a] == linalg.mat_add(
                base[a], linalg.mat_scale(mu, linalg.identity(dims[a]))
            )

    def test_build_monad_validation(self):
        with pytest.raises(ValueError):
            monad.build_monad(-1, {}, {}, {}, {}, {}, {}, {})
        with pytest.raises(ValueError):
            monad.build_monad(1, {5: [[1]]}, {}, {}, {}, {}, {0: 1, 1: 1}, {})
        with pytest.raises(ValueError):
            monad.build_monad(1, {0: [[1, 2]]}, {}, {}, {}, {}, {0: 1, 1: 1}, {})

    def test_empty_monad(self):
        m = monad.build_monad(2, {}, {}, {}, {}, {}, {0: 0, 1: 0, 2: 0}, {})
        composite, ok = monad.compose_and_check(m)
        assert ok
        assert monad.node_relation_defects(m) == {0: [], 1: [], 2: []}
