import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adequiver import adhm, linalg, sheaf
from adequiver.dynkin import DynkinType
from adequiver.linalg import NonRationalSpectrum
from adequiver.quiver import build_n1_quiver

from helpers import rand_invertible, worked_cycle_example

A2 = DynkinType.parse("A2")


class TestTorsionSheafData:
    def test_canonicalisation(self):
        d = sheaf.TorsionSheafData.of([(3, [1, 3, 2]), (Fraction(-1, 2), [1])])
        assert d.points == ((Fraction(-1, 2), (1,)), (Fraction(3), (3, 2, 1)))
        assert d.dimension == 7
        assert all(isinstance(x, Fraction) for x, _ in d.points)

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            sheaf.TorsionSheafData.of([(1, [1]), (Fraction(1), [2])])

    def test_bad_partitions_rejected(self):
        with pytest.raises(ValueError):
            sheaf.TorsionSheafData.of([(0, [])])
        with pytest.raises(ValueError):
            sheaf.TorsionSheafData.of([(0, [2, 0])])

    @pytest.mark.parametrize("support", [1j, 0.5 + 0j, 0.5, True, None])
    def test_supports_that_are_not_rational_are_refused(self, support):
        with pytest.raises(TypeError, match="cannot coerce"):
            sheaf.TorsionSheafData.of([(0, [1]), (support, [1])])

    def test_supports_sort_exactly(self):
        # 1 and 1 + 10^-20 are one float, 10^400 is none
        tiny, huge = Fraction(1, 10 ** 20), Fraction(10 ** 400)
        d = sheaf.TorsionSheafData.of([(huge, [1]), (1 + tiny, [1]), ("-1/2", [1]),
                                       (Fraction(1), [1])])
        assert [s for s, _ in d.points] == [Fraction(-1, 2), Fraction(1), 1 + tiny, huge]


class TestSheafToEndo:
    def test_distinct_simple_points(self):
        n, m = sheaf.sheaf_to_endo(sheaf.TorsionSheafData.of([(1, [1]), (2, [1])]))
        assert n == 2
        assert m == [[1, 0], [0, 2]]

    def test_jordan_block_superdiagonal(self):
        n, m = sheaf.sheaf_to_endo(sheaf.TorsionSheafData.of([(0, [2])]))
        assert n == 2
        assert m == [[0, 1], [0, 0]]

    def test_block_layout_follows_canonical_order(self):
        d = sheaf.TorsionSheafData.of([(2, [1]), (0, [2, 1])])
        n, m = sheaf.sheaf_to_endo(d)
        assert n == 4
        want = [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 2],
        ]
        assert m == want

    def test_complex_support_has_no_matrix_form(self):
        with pytest.raises(TypeError):
            sheaf.sheaf_to_endo(sheaf.TorsionSheafData.of([(1j, [1])]))

    def test_empty(self):
        n, m = sheaf.sheaf_to_endo(sheaf.TorsionSheafData.of([]))
        assert n == 0 and m == []


class TestEndoToSheaf:
    def test_exact_diagonal(self):
        got = sheaf.endo_to_sheaf([[1, 0], [0, 1]])
        assert got == sheaf.TorsionSheafData.of([(1, [1, 1])])

    def test_exact_jordan_structure(self):
        m = [[5, 1, 0], [0, 5, 0], [0, 0, 5]]
        assert sheaf.endo_to_sheaf(m) == sheaf.TorsionSheafData.of([(5, [2, 1])])

    def test_exact_requires_rational_spectrum(self):
        with pytest.raises(NonRationalSpectrum):
            sheaf.endo_to_sheaf([[0, 1], [-1, 0]])
        with pytest.raises(NonRationalSpectrum):
            sheaf.endo_to_sheaf([[0, 1], [2, 0]])

    def test_roundtrip_identity_planted(self):
        rng = random.Random(3)
        for _ in range(20):
            supports = rng.sample(range(-3, 4), rng.randint(1, 3))
            d = sheaf.TorsionSheafData.of(
                [(s, [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]) for s in supports]
            )
            n, j = sheaf.sheaf_to_endo(d)
            assert sheaf.endo_to_sheaf(j) == d

    def test_invariant_under_similarity(self):
        rng = random.Random(4)
        d = sheaf.TorsionSheafData.of([(0, [2, 1]), (1, [1])])
        n, j = sheaf.sheaf_to_endo(d)
        for _ in range(5):
            g = rand_invertible(rng, n)
            m = linalg.mat_mul(linalg.inverse(g), linalg.mat_mul(j, g))
            assert sheaf.endo_to_sheaf(m) == d
            j2, h = linalg.jordan_form(m)
            assert linalg.mat_eq(j2, j)
            assert linalg.mat_eq(linalg.mat_mul(h, m), linalg.mat_mul(j2, h))

    def test_float_matrix_is_rejected(self):
        for m in ([[0.5]], [[1, 0], [0, 1.0]], np.eye(2)):
            with pytest.raises(TypeError):
                sheaf.endo_to_sheaf(m)


def test_char_poly():
    assert linalg.char_poly_coeffs(linalg.matrix([[1, 2], [0, 3]])) == [3, -4, 1]
    assert linalg.char_poly_coeffs([]) == [1]


def _jordan(blocks):
    """The Jordan matrix of (eigenvalue, size) blocks in the order given."""
    n = sum(size for _, size in blocks)
    return linalg.rational_matrix(linalg.jordan_matrix(blocks), n, n)


def _intertwiner(rng, tgt, src):
    """Random X with J_tgt X = X J_src for Jordan matrices given as (eigenvalue, size) blocks.

    Between blocks of one eigenvalue, of sizes n (target) and m (source),
    X is upper triangular Toeplitz: X[i][j] = c[j - i] for
    max(0, m - n) <= j - i <= m - 1; elsewhere it is zero.
    """
    rows = sum(n for _, n in tgt)
    cols = sum(m for _, m in src)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = 0
    for lam_t, n in tgt:
        c0 = 0
        for lam_s, m in src:
            if lam_t == lam_s:
                c = {t: Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for t in range(max(0, m - n), m)}
                for i in range(n):
                    for j in range(m):
                        out[r0 + i][c0 + j] = c.get(j - i, Fraction(0))
            c0 += m
        r0 += n
    return out


def nilpotent_cycle_rep():
    """A2 cycle with a 2-dim node 0, nilpotent loop there, intertwining arrows."""
    return adhm.N1Representation(
        A2,
        {0: 2, 1: 1, 2: 0},
        B={(0, 1, 0): [[0, 1]], (1, 0, 0): [[1], [0]]},
        Psi={0: [[0, 1], [0, 0]]},
        framing_ranks={0: 1},
        I={0: [[1, 0]]},
    )


class TestQuiverSheafData:
    def test_post_init_checks_intertwining(self):
        sheaves = {
            0: sheaf.TorsionSheafData.of([(0, [1])]),
            1: sheaf.TorsionSheafData.of([(1, [1])]),
            2: sheaf.TorsionSheafData.of([(0, [1])]),
        }
        with pytest.raises(sheaf.EdgeRelationViolated):
            sheaf.QuiverSheafData(A2, sheaves, {(0, 1, 0): [[1]]})
        # a zero map always intertwines
        sheaf.QuiverSheafData(A2, dict(sheaves), {(0, 1, 0): [[0]]})

    def test_node_coverage_enforced(self):
        with pytest.raises(ValueError):
            sheaf.QuiverSheafData(A2, {0: sheaf.TorsionSheafData.of([])}, {})

    def test_point_data_compares_by_content(self):
        # an arrow left out is stored as zeros, so writing the zeros out changes nothing
        sheaves = {a: sheaf.TorsionSheafData.of([(0, [1])]) for a in range(3)}
        keys = [arrow.key for arrow in build_n1_quiver(A2).mckay_arrows()]
        omitted = sheaf.QuiverSheafData(A2, sheaves, {(0, 1, 0): [[1]]})
        written = sheaf.QuiverSheafData(
            A2, sheaves, {k: [[int(k == (0, 1, 0))]] for k in reversed(keys)})
        assert omitted == written
        assert list(omitted.arrow_maps) == list(written.arrow_maps) == keys
        assert omitted.arrow_maps[(1, 0, 0)] == [[0]]


class TestDictionary:
    def test_worked_example_scalar_case(self):
        rep, _ = worked_cycle_example()
        data, g = sheaf.quadruple_to_quintuple(rep)
        assert data.node_sheaves == {
            a: sheaf.TorsionSheafData.of([(0, [1])]) for a in (0, 1, 2)
        }
        back = sheaf.quintuple_to_quadruple(data)
        assert back == adhm.conjugate(rep, g)

    def test_nilpotent_loop_roundtrip(self):
        rep = nilpotent_cycle_rep()
        data, g = sheaf.quadruple_to_quintuple(rep)
        assert data.node_sheaves[0] == sheaf.TorsionSheafData.of([(0, [2])])
        assert data.node_sheaves[2] == sheaf.TorsionSheafData.of([])
        back = sheaf.quintuple_to_quadruple(data)
        assert back == adhm.conjugate(rep, g)

    def test_conjugated_input_lands_on_same_sheaves(self):
        rng = random.Random(9)
        rep = nilpotent_cycle_rep()
        data, _ = sheaf.quadruple_to_quintuple(rep)
        for _ in range(5):
            g = {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims}
            data2, _ = sheaf.quadruple_to_quintuple(adhm.conjugate(rep, g))
            assert data2.node_sheaves == data.node_sheaves

    def test_edge_violation_refused(self):
        rep, _ = worked_cycle_example()
        broken = adhm.N1Representation(
            rep.type, dict(rep.dims), dict(rep.B),
            Psi={0: [[0]], 1: [[1]], 2: [[0]]},
            framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
        )
        with pytest.raises(sheaf.EdgeRelationViolated):
            sheaf.quadruple_to_quintuple(broken)

    def test_repeated_blocks_read_off_the_jordan_form(self):
        # blocks 2, 2, 1 at 1/2 and 3 at -1 at node 0; 3, 1 at 1/2 and 1, 1 at -1 at node 1
        lam, mu = Fraction(1, 2), Fraction(-1)
        blocks = {0: [(lam, 2), (lam, 2), (lam, 1), (mu, 3)],
                  1: [(lam, 3), (mu, 1), (lam, 1), (mu, 1)]}
        rng = random.Random(17)
        planted = {a: _jordan(bl) for a, bl in blocks.items()}
        rep = adhm.N1Representation(
            A2, {0: 8, 1: 6, 2: 0},
            B={(0, 1, 0): _intertwiner(rng, blocks[1], blocks[0]),
               (1, 0, 0): _intertwiner(rng, blocks[0], blocks[1])},
            Psi=planted,
        )
        g0 = {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims}
        rep = adhm.conjugate(rep, g0)
        data, g = sheaf.quadruple_to_quintuple(rep)
        assert data.node_sheaves[0] == sheaf.TorsionSheafData.of([(mu, [3]), (lam, [2, 2, 1])])
        assert data.node_sheaves[1] == sheaf.TorsionSheafData.of([(mu, [1, 1]), (lam, [3, 1])])
        for a in (0, 1):
            # the independent rank-filtration path agrees on the partitions
            assert data.node_sheaves[a] == sheaf.endo_to_sheaf(rep.Psi[a])
            j = sheaf.sheaf_to_endo(data.node_sheaves[a])[1]
            ga = g[a]
            assert linalg.mat_mul(linalg.mat_mul(ga, rep.Psi[a]), linalg.inverse(ga)) == j
        assert sheaf.quintuple_to_quadruple(data) == adhm.conjugate(rep, g)

    def test_irrational_loop_spectrum_refused(self):
        rep = adhm.N1Representation(A2, {0: 2, 1: 0, 2: 0}, Psi={0: [[0, 1], [2, 0]]})
        with pytest.raises(NonRationalSpectrum):
            sheaf.quadruple_to_quintuple(rep)

    def test_broken_edge_outranks_irrational_loop_elsewhere(self):
        # node 0 fails first in node order, but the defect at (1, 2, 0) is reported
        rep = adhm.N1Representation(
            A2, {0: 2, 1: 1, 2: 1},
            B={(1, 2, 0): [[1]]},
            Psi={0: [[0, 1], [2, 0]], 1: [[0]], 2: [[1]]},
        )
        with pytest.raises(sheaf.EdgeRelationViolated, match=r"edge defect at \(1, 2, 0\)"):
            sheaf.quadruple_to_quintuple(rep)

    def test_one_inverse_per_node_and_no_separate_edge_pass(self, monkeypatch):
        rng = random.Random(5)
        rep = nilpotent_cycle_rep()
        rep = adhm.conjugate(rep, {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims})
        calls = {"inverse_ints": 0, "_edge_defects": 0}
        kernel, loops_seen = adhm._edge_defects, []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def edge_defects(loops, arrows):
            loops_seen.append(loops)
            return kernel(loops, arrows)

        monkeypatch.setattr(linalg, "inverse_ints", counted("inverse_ints", linalg.inverse_ints))
        # every module-level name bound to the edge kernel counts, imported copies too
        for module in (adhm, sheaf):
            monkeypatch.setattr(module, "_edge_defects", counted("_edge_defects", edge_defects))
        data, g = sheaf.quadruple_to_quintuple(rep)
        assert calls == {"inverse_ints": len(rep.dims), "_edge_defects": 1}
        # the one edge pass reads the Jordan loops of the point data, not the dense ones
        assert loops_seen == [{a: data.node_sheaves[a].jordan for a in rep.dims}]
        monkeypatch.undo()
        assert sheaf.quintuple_to_quadruple(data) == adhm.conjugate(rep, g)


def _planted_a2(rng):
    """Affine A2 representation in a planted Jordan basis: nodes of dimension at
    most 3, loops Jordan over two eigenvalues, random intertwining arrows, and
    framing at node 0 when it is occupied."""
    blocks = {}
    for a in (0, 1, 2):
        left, blocks[a] = rng.randint(0, 3), []
        while left:
            size = rng.randint(1, left)
            blocks[a].append((rng.choice((Fraction(0), Fraction(1, 2))), size))
            left -= size
    dims = {a: sum(n for _, n in bl) for a, bl in blocks.items()}
    arrows = build_n1_quiver(A2, True).mckay_arrows()
    framed = 1 if dims[0] else 0
    return adhm.N1Representation(
        A2, dims,
        B={k.key: _intertwiner(rng, blocks[k.target], blocks[k.source]) for k in arrows},
        Psi={a: _jordan(bl) for a, bl in blocks.items()},
        framing_ranks={0: framed},
        I={0: [[Fraction(rng.randint(-2, 2)) for _ in range(dims[0])]] * framed},
    )


@given(st.randoms(use_true_random=False))
def test_round_trip_is_invariant_under_conjugation(rng):
    rep = _planted_a2(rng)
    data, _ = sheaf.quadruple_to_quintuple(rep)
    moved = adhm.conjugate(rep, {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims})
    moved_data, g = sheaf.quadruple_to_quintuple(moved)
    assert moved_data.node_sheaves == data.node_sheaves
    assert sheaf.quintuple_to_quadruple(moved_data) == adhm.conjugate(moved, g)
