import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequiver import linalg, monad
from adequiver.monad import NCElement

from helpers import naive_product, rand_frac, rand_matrix

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
        assert (e + scalar("x1", -1)).is_zero

    def test_add_requires_matching_layouts(self):
        with pytest.raises(ValueError):
            scalar("z", 1) + NCElement(((1, 1),), ((1, 1),), {"z": [[1]]})

    def test_layout_listing_a_node_twice_rejected(self):
        with pytest.raises(ValueError):
            NCElement(((0, 1), (0, 1)), ONE_NODE, {"z": [[1], [2]]})

    def test_coefficients_is_a_read_only_dense_view(self):
        lay = ((0, 1), (1, 0), (2, 2))
        e = NCElement(lay, lay, {"z": [[1, 0, 2], [0, 0, 0], [0, 3, 0]]})
        assert e.coefficients == {"z": [[1, 0, 2], [0, 0, 0], [0, 3, 0]]}
        e.coefficients["z"][0][0] = 9
        assert e.coefficient("z")[0][0] == 1
        with pytest.raises(AttributeError):
            e.coefficients = {}

    def test_diagonal_block(self):
        lay = ((0, 1), (1, 2))
        e = NCElement(lay, lay, {"zz": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
        assert e.diagonal_block("zz", 0) == [[1]]
        assert e.diagonal_block("zz", 1) == [[5, 6], [8, 9]]
        with pytest.raises(KeyError):
            e.diagonal_block("zz", 7)


class TestNormalFormProduct:
    def test_plain_concatenation(self):
        got = monad.nc_sum_of_products([(scalar("x1", 1), scalar("x2", 1))], {0: 1})
        assert got.coefficients == {"x1x2": [[Fraction(1)]]}

    def test_rewrite_injects_corrector(self):
        got = monad.nc_sum_of_products([(scalar("x2", 3), scalar("x1", 5))], {0: 2})
        assert got.coefficient("x1x2") == [[Fraction(15)]]
        assert got.coefficient("zz") == [[Fraction(30)]]

    def test_center_commutes(self):
        zx = monad.nc_sum_of_products([(scalar("z", 1), scalar("x1", 1))], {0: 0})
        xz = monad.nc_sum_of_products([(scalar("x1", 1), scalar("z", 1))], {0: 0})
        assert zx.coefficients == xz.coefficients == {"zx1": [[Fraction(1)]]}

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            monad.nc_sum_of_products([(scalar("x1x1", 1), scalar("x1", 1))], {0: 0})

    def test_inner_layout_mismatch_rejected(self):
        u = NCElement(ONE_NODE, ((0, 2),), {"z": [[1, 0]]})
        with pytest.raises(ValueError):
            monad.nc_sum_of_products([(u, scalar("z", 1))], {0: 0})

    def test_unit_passthrough_and_associativity(self):
        rng = random.Random(7)
        lay = ((0, 2),)
        lam = {0: Fraction(3, 2)}
        u = NCElement(lay, lay, {"x2": rand_matrix(rng, 2, 2), "z": rand_matrix(rng, 2, 2)})
        v = NCElement(lay, lay, {"x1": rand_matrix(rng, 2, 2)})
        w = NCElement(lay, lay, {"1": rand_matrix(rng, 2, 2)})
        left = monad.nc_sum_of_products([(monad.nc_sum_of_products([(u, v)], lam), w)], lam)
        right = monad.nc_sum_of_products([(u, monad.nc_sum_of_products([(v, w)], lam))], lam)
        assert left.coefficients == right.coefficients
        wu = monad.nc_sum_of_products([(w, u)], lam)
        assert set(wu.coefficients) == set(u.coefficients)

    def test_lambda_acts_on_target_blocks(self):
        lay = ((0, 1), (1, 1))
        lam = {0: Fraction(2), 1: Fraction(-3)}
        u = NCElement(lay, lay, {"x2": linalg.identity(2)})
        v = NCElement(lay, lay, {"x1": linalg.identity(2)})
        got = monad.nc_sum_of_products([(u, v)], lam)
        assert got.coefficient("zz") == [[Fraction(2), 0], [0, Fraction(-3)]]


def reference_terms(mu, mv):
    """Normal form of the word mu mv: [(monomial, carries lam)], written out by hand."""
    if mu == "1" or mv == "1":
        return [(mv if mu == "1" else mu, False)]
    if "z" in (mu, mv):
        other = mv if mu == "z" else mu
        return [("z" + other, False)]
    if (mu, mv) == ("x2", "x1"):
        return [("x1x2", False), ("zz", True)]
    return [(mu + mv, False)]


def dense_product(u, v, lam):
    """Every coefficient of u v from the dense coefficients of u and v."""
    rows, cols = monad.layout_dim(u.row_layout), monad.layout_dim(v.col_layout)
    row_lam = [linalg.frac(lam[node]) for node, dim in u.row_layout for _ in range(dim)]
    out = {mono: linalg.zeros(rows, cols) for mono in monad.DEGREE}
    for mu in u.coefficients:
        for mv in v.coefficients:
            prod = naive_product(u.coefficient(mu), v.coefficient(mv), cols)
            for mono, with_lam in reference_terms(mu, mv):
                term = ([[c * x for x in row] for c, row in zip(row_lam, prod)]
                        if with_lam else prod)
                out[mono] = linalg.mat_add(out[mono], term)
    return out


def rand_layout(rng, nodes):
    return tuple((a, rng.choice((0, 0, 1, 2, 3))) for a in nodes)


def rand_element(rng, rows, cols, monos):
    """Dense random coefficients, nonzero anywhere (not only on the cyclic pattern)."""
    r, c = monad.layout_dim(rows), monad.layout_dim(cols)
    coeffs = {}
    for mono in monos:
        m = rand_matrix(rng, r, c)
        coeffs[mono] = [[x if rng.random() < 0.6 else Fraction(0) for x in row] for row in m]
    return NCElement(rows, cols, coeffs)


class TestBlockStorageMatchesDense:
    def test_products_and_sums_random_layouts(self):
        rng = random.Random(2026)
        degree_le1 = ("1", "x1", "x2", "z")
        for trial in range(150):
            nodes = rng.sample(range(6), rng.randint(1, 4))
            rows, inner, cols = (rand_layout(rng, nodes) for _ in range(3))
            lam = {a: rand_frac(rng) for a in nodes}
            u = rand_element(rng, rows, inner, rng.sample(degree_le1, rng.randint(0, 4)))
            if rng.random() < 0.2:
                u = rand_element(rng, rows, inner, ["1"])
                v_monos = rng.sample(list(monad.DEGREE), rng.randint(1, 4))
            else:
                v_monos = rng.sample(degree_le1, rng.randint(0, 4))
            v = rand_element(rng, inner, cols, v_monos)
            got = monad.nc_sum_of_products([(u, v)], lam)
            want = dense_product(u, v, lam)
            for mono in monad.DEGREE:
                assert got.coefficient(mono) == want[mono], (trial, mono)
            assert set(got.coefficients) == {
                mono for mono, m in want.items() if not linalg.is_zero_matrix(m)}
            w = rand_element(rng, rows, inner, rng.sample(list(monad.DEGREE), 3))
            total = u + w
            for mono in monad.DEGREE:
                assert total.coefficient(mono) == linalg.mat_add(
                    u.coefficient(mono), w.coefficient(mono)), (trial, mono)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_monad_products_match_dense(self, rank):
        # rank 0 puts b1, b2 on a -> a, rank 1 both on a -> a+1 = a-1
        rng = random.Random(rank)
        n = rank + 1
        for trial in range(20):
            dims = {a: rng.randrange(4) for a in range(n)}
            framing = {a: rng.randrange(3) for a in range(n)}
            b1 = {a: rand_matrix(rng, dims[(a + 1) % n], dims[a]) for a in range(n)}
            b2 = {a: rand_matrix(rng, dims[(a - 1) % n], dims[a]) for a in range(n)}
            i_blocks = {a: rand_matrix(rng, dims[a], framing[a]) for a in range(n)}
            j_blocks = {a: rand_matrix(rng, framing[a], dims[a]) for a in range(n)}
            lam = {a: rand_frac(rng) for a in range(n)}
            m = monad.build_monad(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing)
            total = {mono: linalg.zeros(sum(dims.values())) for mono in monad.DEGREE}
            for be, ae in zip(m.b, m.a):
                want = dense_product(be, ae, m.lam)
                got = monad.nc_sum_of_products([(be, ae)], m.lam)
                for mono in monad.DEGREE:
                    assert got.coefficient(mono) == want[mono], (trial, mono)
                    total[mono] = linalg.mat_add(total[mono], want[mono])
            for mono in monad.DEGREE:
                assert m.composite.coefficient(mono) == total[mono], (trial, mono)


def cyclic_blockwise_defects(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing):
    """Independent per-node expansion of the quadratic relation."""
    n = rank + 1

    def blk(table, a, rows, cols):
        m = table.get(a)
        if m is None:
            return linalg.zeros(rows, cols)
        return linalg.matrix(m)

    out = {}
    for a in range(n):
        up, down = (a + 1) % n, (a - 1) % n
        t1 = naive_product(
            blk(b2, up, dims[a], dims[up]), blk(b1, a, dims[up], dims[a]), dims[a])
        t2 = naive_product(
            blk(b1, down, dims[a], dims[down]), blk(b2, a, dims[down], dims[a]), dims[a])
        t3 = naive_product(
            blk(i_blocks, a, dims[a], framing.get(a, 0)),
            blk(j_blocks, a, framing.get(a, 0), dims[a]), dims[a])
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

    def test_blocks_take_every_exact_entry_kind(self):
        # ints, Fractions and numeric strings are read; anything else is a TypeError
        exact = monad.build_monad(1, {0: [[Fraction(1, 2)]], 1: [[3]]}, {0: [[5]], 1: [[-2]]},
                                  {0: [[Fraction(3, 4)]]}, {0: [[2]]}, {0: 1, 1: 0},
                                  {0: 1, 1: 1}, {0: 1, 1: 0})
        mixed = monad.build_monad(1, {0: [["1/2"]], 1: [[3]]}, {0: [["5"]], 1: [[-2]]},
                                  {0: [[Fraction(3, 4)]]}, {0: [["2"]]}, {0: 1, 1: 0},
                                  {0: 1, 1: 1}, {0: 1, 1: 0})
        assert monad.node_relation_defects(mixed) == monad.node_relation_defects(exact)
        assert mixed.composite.blocks == exact.composite.blocks
        assert NCElement(ONE_NODE, ONE_NODE, {"z": [["-3/2"]]}).coefficient("z") == [
            [Fraction(-3, 2)]]
        for bad in (0.5, None, 1j):
            with pytest.raises(TypeError):
                monad.build_monad(0, {0: [[bad]]}, {}, {}, {}, {}, {0: 1}, {})
            with pytest.raises(TypeError):
                NCElement(ONE_NODE, ONE_NODE, {"z": [[bad]]})

    def test_composed_once_per_monad(self, monkeypatch):
        calls = []
        kernel = linalg.sum_of_products

        def counting(terms, rows, cols):
            calls.append((rows, cols))
            return kernel(terms, rows, cols)

        monkeypatch.setattr(linalg, "sum_of_products", counting)
        m = monad.build_monad(1, {0: [[4]], 1: [[3]]}, {0: [[5]], 1: [[7]]}, {}, {},
                              {0: 1, 1: -1}, {0: 1, 1: 1}, {})
        composite, ok = monad.compose_and_check(m)
        assert monad.node_relation_defects(m) == {0: [[14]], 1: [[-14]]}
        # one kernel call per output block over all three products: zz, zx1, zx2
        # and x1x2 (which cancels) at two blocks each; the framing adds none
        assert len(calls) == 8
        assert monad.compose_and_check(m) == (composite, ok)
        monad.node_relation_defects(m)
        assert len(calls) == 8

    def test_one_pass_equals_the_sum_of_the_three_products(self):
        rng = random.Random(17)
        for rank in range(4):
            n = rank + 1
            for trial in range(12):
                dims = {a: rng.randrange(4) for a in range(n)}
                dims[rng.randrange(n)] = 0          # a zero-dimensional node every time
                framed = trial % 2 == 0
                framing = {a: rng.randrange(3) if framed else 0 for a in range(n)}
                b1 = {a: rand_matrix(rng, dims[(a + 1) % n], dims[a]) for a in range(n)}
                b2 = {a: rand_matrix(rng, dims[(a - 1) % n], dims[a]) for a in range(n)}
                i_blocks = {a: rand_matrix(rng, dims[a], framing[a]) for a in range(n)}
                j_blocks = {a: rand_matrix(rng, framing[a], dims[a]) for a in range(n)}
                lam = {a: 0 if trial % 3 == 0 else rand_frac(rng) for a in range(n)}
                m = monad.build_monad(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing)
                (b0, a0), (b1_, a1), (b2_, a2) = zip(m.b, m.a)
                want = (monad.nc_sum_of_products([(b0, a0)], m.lam)
                        + monad.nc_sum_of_products([(b1_, a1)], m.lam)
                        + monad.nc_sum_of_products([(b2_, a2)], m.lam))
                assert m.composite.blocks == want.blocks, (rank, trial)
                assert m.composite.coefficients == want.coefficients, (rank, trial)

    def test_an_affine_a2_monad_multiplies_by_no_identity(self, monkeypatch):
        # the -+I coefficients of x1 and x2 reach the kernel as scalars, each added down a
        # diagonal, never as a dense identity factor of n^3 additions
        rng = random.Random(34)
        dims = {a: rng.randint(2, 40) for a in range(3)}
        dims[rng.randrange(3)] = 40
        framing = {a: rng.randrange(3) for a in range(3)}
        b1 = {a: rand_matrix(rng, dims[(a + 1) % 3], dims[a]) for a in range(3)}
        b2 = {a: rand_matrix(rng, dims[(a - 1) % 3], dims[a]) for a in range(3)}
        i_blocks = {a: rand_matrix(rng, dims[a], framing[a]) for a in range(3)}
        j_blocks = {a: rand_matrix(rng, framing[a], dims[a]) for a in range(3)}
        lam = {0: Fraction(1, 2), 1: 0, 2: -3}
        m = monad.build_monad(2, b1, b2, i_blocks, j_blocks, lam, dims, framing)
        terms, kernel = [], linalg.sum_of_products

        def spying(block_terms, rows, cols):
            terms.extend(block_terms)
            return kernel(block_terms, rows, cols)

        def signed_identity(f):
            return f is not None and f[1] == 1 and any(f[0] == [
                [s if i == j else 0 for j in range(len(f[0]))] for i in range(len(f[0]))]
                for s in (1, -1))

        monkeypatch.setattr(linalg, "sum_of_products", spying)
        assert set(m.composite.blocks) == {"zz"}
        assert [t for t in terms if signed_identity(t[1]) or signed_identity(t[2])] == []
        # x1x2 from x2*x1 and from x1*x2 at each node, and lam*zz at the two nodes lam != 0
        assert sorted(c for c, a, b in terms if a is None) == sorted(
            [1, -1] * 3 + [Fraction(1, 2), -3])

    def test_one_pass_refuses_mismatched_outer_layouts(self):
        lay2 = ((0, 1), (1, 1))
        u, v = scalar("x1", 1), scalar("z", 2)
        wide = NCElement(ONE_NODE, lay2, {"z": [[1, 1]]})
        tall = NCElement(lay2, ONE_NODE, {"x2": [[1], [1]]})
        for pairs in ([(u, v), (tall, v)], [(u, v), (u, wide)]):
            with pytest.raises(ValueError, match="outer layouts"):
                monad.nc_sum_of_products(pairs, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="inner layouts"):
            monad.nc_sum_of_products([(u, v), (u, tall)], {0: 1})
        assert monad.nc_sum_of_products([(u, v), (u, v)], {0: 1}).coefficients == {
            "zx1": [[4]]}

    def test_empty_monad(self):
        m = monad.build_monad(2, {}, {}, {}, {}, {}, {0: 0, 1: 0, 2: 0}, {})
        composite, ok = monad.compose_and_check(m)
        assert ok
        assert monad.node_relation_defects(m) == {0: [], 1: [], 2: []}


# -- the composite against an independent dense expansion ----------------------

_entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
_nonzero_lam = st.fractions(-5, 5, max_denominator=6).filter(bool)


@st.composite
def cyclic_instances(draw):
    """Random cyclic monad inputs; about half are flat by construction."""
    rank = draw(st.integers(0, 5))
    n = rank + 1
    lam = {a: draw(_nonzero_lam) for a in range(n)}

    def mat(rows, cols):
        return [[draw(_entry) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        # no arrows, and i j = -lam at every node: b o a vanishes
        dims = {a: draw(st.integers(0, 2)) for a in range(n)}
        framing = dict(dims)
        i_blocks = {a: linalg.mat_scale(-lam[a], linalg.identity(dims[a])) for a in range(n)}
        j_blocks = {a: linalg.identity(dims[a]) for a in range(n)}
        return rank, {}, {}, i_blocks, j_blocks, lam, dims, framing, True
    dims = {a: draw(st.integers(0, 3)) for a in range(n)}
    framing = {a: draw(st.integers(0, 2)) for a in range(n)}
    b1 = {a: mat(dims[(a + 1) % n], dims[a]) for a in range(n)}
    b2 = {a: mat(dims[(a - 1) % n], dims[a]) for a in range(n)}
    i_blocks = {a: mat(dims[a], framing[a]) for a in range(n)}
    j_blocks = {a: mat(framing[a], dims[a]) for a in range(n)}
    return rank, b1, b2, i_blocks, j_blocks, lam, dims, framing, False


def _dense_mul(p, q, rows, cols):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i, row in enumerate(p):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(q[k]):
                    out[i][j] += x * y
    return out


def dense_composite(rank, b1, b2, i_blocks, j_blocks, lam, dims, framing):
    """Every coefficient of b o a, expanded on dense Fraction matrices word by word."""
    n = rank + 1
    v_at, w_at = [0], [0]
    for a in range(n):
        v_at.append(v_at[-1] + dims[a])
        w_at.append(w_at[-1] + framing[a])
    v, w = v_at[-1], w_at[-1]

    def big(blocks, shift, rows, row_at, cols, col_at, sign=1):
        out = [[Fraction(0)] * cols for _ in range(rows)]
        for a, m in blocks.items():
            t = (a + shift) % n
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    out[row_at[t] + i][col_at[a] + j] = sign * Fraction(x)
        return out

    ident = {a: [[int(i == j) for j in range(dims[a])] for i in range(dims[a])] for a in range(n)}
    x1_a = big(ident, 0, v, v_at, v, v_at, -1)
    lam_rows = [Fraction(lam[a]) for a in range(n) for _ in range(dims[a])]
    a_col = [{"z": big(b1, 1, v, v_at, v, v_at), "x1": x1_a},
             {"z": big(b2, -1, v, v_at, v, v_at, -1), "x2": big(ident, 0, v, v_at, v, v_at)},
             {"z": big(j_blocks, 0, w, w_at, v, v_at)}]
    b_row = [{"z": big(b2, -1, v, v_at, v, v_at), "x2": x1_a},
             {"z": big(b1, 1, v, v_at, v, v_at), "x1": x1_a},
             {"z": big(i_blocks, 0, v, v_at, w, w_at)}]
    total = {mono: [[Fraction(0)] * v for _ in range(v)] for mono in monad.DEGREE}
    for be, ae in zip(b_row, a_col):
        for left, p in be.items():
            for right, q in ae.items():
                prod = _dense_mul(p, q, v, v)
                if (left, right) == ("x2", "x1"):
                    words = [("x1x2", prod), ("zz", [[c * x for x in row]
                                                     for c, row in zip(lam_rows, prod)])]
                elif "z" in (left, right):
                    words = [("z" + (right if left == "z" else left), prod)]
                else:
                    words = [(left + right, prod)]
                for mono, m in words:
                    total[mono] = [[x + y for x, y in zip(r, s)] for r, s in zip(total[mono], m)]
    return total, v_at


@settings(max_examples=80)
@given(cyclic_instances())
def test_composite_matches_dense_expansion(case):
    *inputs, flat = case
    rank, lam, dims = inputs[0], inputs[5], inputs[6]
    m = monad.build_monad(*inputs)
    want, at = dense_composite(*inputs)
    composite = m.composite
    for mono in monad.DEGREE:
        assert composite.coefficient(mono) == want[mono], mono
    nonzero = {mono for mono, c in want.items() if not linalg.is_zero_matrix(c)}
    assert set(composite.coefficients) == nonzero
    assert composite.is_zero == (not nonzero)
    if flat:
        assert composite.is_zero
    defects = monad.node_relation_defects(m)
    for a in range(rank + 1):
        assert defects[a] == [row[at[a]:at[a + 1]] for row in want["zz"][at[a]:at[a + 1]]]
    # no zero block and no empty table is stored, in the inputs or in the composite; the
    # inputs keep +-I as the int +-1, and the composite's blocks are integer rows
    for e in [*m.a, *m.b, composite]:
        for table in e.blocks.values():
            assert table
            for block in table.values():
                if isinstance(block, int):
                    assert e is not composite and block in (1, -1)
                else:
                    ints, d = block
                    assert d > 0 and any(map(any, ints))
