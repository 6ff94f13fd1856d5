import random
from fractions import Fraction

import pytest

from adequiver import adhm, linalg
from adequiver.deformation import DeformationParam, Polynomial, complete_affine_theta
from adequiver.dynkin import DynkinType, InputTooLarge, node_labels

from helpers import finite_pair_example, rand_invertible, worked_cycle_example

A2 = DynkinType.parse("A2")
T = Polynomial.variable()


def test_worked_cycle_satisfies_everything():
    rep, theta = worked_cycle_example()
    res = adhm.check_relations(rep, theta)
    assert res.is_zero
    assert adhm.is_nondegenerate(rep)
    assert adhm.trace_identity_defect(rep, theta) == 0


def test_worked_cycle_node_residuals_are_the_cyclic_words():
    rep, theta = worked_cycle_example()
    # doubling u2 breaks nodes 0 and 2 by exactly -1 and +1
    rep2 = adhm.N1Representation(
        rep.type, dict(rep.dims),
        {(0, 1, 0): [[1]], (2, 0, 0): [[2]], (0, 2, 0): [[1]]},
        framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
    )
    res = adhm.check_relations(rep2, theta)
    assert res.node_residuals[0] == [[Fraction(-1)]]
    assert res.node_residuals[1] == [[Fraction(0)]]
    assert res.node_residuals[2] == [[Fraction(1)]]
    assert not res.nodes_zero and res.edges_zero


def test_edge_residual_detects_nonintertwining_loop():
    rep, theta = worked_cycle_example()
    rep2 = adhm.N1Representation(
        rep.type, dict(rep.dims), dict(rep.B),
        Psi={0: [[0]], 1: [[1]], 2: [[0]]},
        framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
    )
    res = adhm.check_relations(rep2, theta)
    assert not res.edges_zero
    # u0: 0 -> 1 with scalar 1, Psi jumps from 0 to 1
    assert res.edge_residuals[(0, 1, 0)] == [[Fraction(1)]]


def test_finite_pair_example_satisfies_relations():
    rep, theta = finite_pair_example()
    assert adhm.check_relations(rep, theta).is_zero
    report = adhm.check_support_property(rep, theta)
    assert report.ok
    assert {r.node for r in report.rows} == {1, 2}
    for row in report.rows:
        assert abs(row.point - 0.5) < 1e-9
        assert row.best_root == (1, 1)
        assert row.best_value < 1e-12


def test_support_check_rejects_occupied_affine_node():
    rep, theta = worked_cycle_example()
    with pytest.raises(ValueError):
        adhm.check_support_property(rep, theta)


def test_evaluate_on_matrix_matches_direct_expansion():
    p = Polynomial.of([Fraction(1), Fraction(-3), Fraction(2)])
    m = linalg.matrix([[1, 2], [0, 3]])
    sq = linalg.mat_mul(m, m)
    want = linalg.mat_add(
        linalg.mat_add(linalg.mat_scale(2, sq), linalg.mat_scale(-3, m)),
        linalg.identity(2),
    )
    assert adhm.evaluate_on_matrix(p, m) == want


def test_theta_table_errors():
    rep, _ = worked_cycle_example()
    with pytest.raises(ValueError):
        adhm.check_relations(rep, {0: T})
    with pytest.raises(TypeError):
        adhm.check_relations(rep, "nope")


class TestValidation:
    def test_dims_must_cover_nodes(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(A2, {0: 1, 1: 1})

    def test_stray_arrow_key(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(A2, {0: 1, 1: 1, 2: 1}, B={(0, 1, 7): [[1]]})

    def test_arrow_shape_checked(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(A2, {0: 1, 1: 2, 2: 1}, B={(0, 1, 0): [[1]]})

    def test_loop_at_unknown_node(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(A2, {0: 1, 1: 1, 2: 1}, Psi={5: [[1]]})

    def test_framing_vector_length(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(
                A2, {0: 2, 1: 0, 2: 0}, framing_ranks={0: 1}, I={0: [[1]]}
            )

    def test_missing_blocks_fill_with_zeros(self):
        rep = adhm.N1Representation(A2, {0: 1, 1: 2, 2: 0})
        assert rep.B[(0, 1, 0)] == linalg.zeros(2, 1)
        assert rep.Psi[1] == linalg.zeros(2)
        assert rep.I[0] == []


class TestNondegeneracy:
    def test_unframed_positive_dims_degenerate(self):
        rep, _ = worked_cycle_example()
        bare = adhm.N1Representation(rep.type, dict(rep.dims), dict(rep.B))
        assert not adhm.is_nondegenerate(bare)

    def test_zero_rep_vacuously_nondegenerate(self):
        assert adhm.is_nondegenerate(adhm.zero_representation(A2))

    def test_framing_spans_under_arrows(self):
        rep, _ = worked_cycle_example()
        # one framing vector at node 0 reaches nodes 1 and 2 through u0, w2
        assert adhm.is_nondegenerate(rep)
        # kill u0: node 1 becomes unreachable (w0 and u1 are zero)
        rep2 = adhm.N1Representation(
            rep.type, dict(rep.dims), {(2, 0, 0): [[1]], (0, 2, 0): [[1]]},
            framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
        )
        assert not adhm.is_nondegenerate(rep2)

    def test_direct_sum_with_unframed_summand_degenerates(self):
        rep, theta = worked_cycle_example()
        bare = adhm.N1Representation(rep.type, dict(rep.dims), dict(rep.B))
        both = adhm.direct_sum(rep, bare)
        assert adhm.check_relations(both, theta).is_zero
        assert not adhm.is_nondegenerate(both)


def test_restrict_finite():
    rep, _ = worked_cycle_example()
    fin = adhm.restrict_finite(rep)
    assert not fin.affine
    assert sorted(fin.dims) == [1, 2]
    assert all(k[0] != 0 and k[1] != 0 for k in fin.B)
    with pytest.raises(ValueError):
        adhm.restrict_finite(fin)


def test_support_merges_nearby_eigenvalues():
    rep = adhm.N1Representation(
        A2, {0: 0, 1: 3, 2: 0},
        Psi={1: [[1, 0, 0], [0, Fraction(1) + Fraction(1, 10 ** 13), 0], [0, 0, 5]]},
    )
    sup = adhm.support(rep)
    assert sup[0] == [] and sup[2] == []
    vals = sup[1]
    assert len(vals) == 3
    assert abs(vals[0] - vals[1]) == 0          # merged onto one representative
    assert abs(vals[2] - 5) < 1e-9


def test_support_check_merges_eigenvalues_within_its_tol():
    _, theta = worked_cycle_example()
    near = Fraction(1, 2) + Fraction(1, 10 ** 7)
    rep = adhm.N1Representation(A2, {0: 0, 1: 2, 2: 0},
                                Psi={1: [[Fraction(1, 2), 0], [0, near]]})
    report = adhm.check_support_property(rep, theta, tol=1e-6)
    assert report.ok
    assert len(report.rows) == 1          # 1/2 and 1/2 + 1e-7 are one point at tol 1e-6
    assert abs(report.rows[0].point - 0.5) < 1e-12
    assert len(adhm.check_support_property(rep, theta, tol=1e-8).rows) == 2


def test_direct_sum_blocks():
    rep, theta = worked_cycle_example()
    both = adhm.direct_sum(rep, rep)
    assert both.dims == {0: 2, 1: 2, 2: 2}
    assert both.framing_ranks[0] == 2
    assert both.I[0] == [[1, 0], [0, 1]]
    assert adhm.check_relations(both, theta).is_zero
    assert adhm.is_nondegenerate(both)


class TestConjugation:
    def _random_g(self, rep, rng):
        return {a: rand_invertible(rng, rep.dims[a]) for a in node_labels(rep.type, rep.affine)}

    def test_residuals_transported(self):
        rng = random.Random(11)
        rep, theta = worked_cycle_example()
        # make it violating so the transport law is visible
        bad = adhm.N1Representation(
            rep.type, dict(rep.dims),
            {(0, 1, 0): [[1]], (2, 0, 0): [[2]], (0, 2, 0): [[1]]},
            framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
        )
        before = adhm.check_relations(bad, theta)
        for _ in range(5):
            g = self._random_g(bad, rng)
            after = adhm.check_relations(adhm.conjugate(bad, g), theta)
            for a, r in before.node_residuals.items():
                gm = linalg.matrix(g[a])
                want = linalg.mat_mul(gm, linalg.mat_mul(r, linalg.inverse(gm)))
                assert after.node_residuals[a] == want

    def test_statuses_and_nondegeneracy_invariant(self):
        rng = random.Random(12)
        for rep, theta in (worked_cycle_example(), finite_pair_example()):
            res = adhm.check_relations(rep, theta)
            nd = adhm.is_nondegenerate(rep)
            for _ in range(5):
                g = self._random_g(rep, rng)
                moved = adhm.conjugate(rep, g)
                res2 = adhm.check_relations(moved, theta)
                assert res2.is_zero == res.is_zero
                assert adhm.is_nondegenerate(moved) == nd

    def test_identity_conjugation_is_identity(self):
        rep, _ = worked_cycle_example()
        g = {a: linalg.identity(rep.dims[a]) for a in rep.dims}
        assert adhm.conjugate(rep, g) == rep


def test_trace_identity_defect_tracks_node_traces():
    rep, theta = finite_pair_example()
    assert adhm.trace_identity_defect(rep, theta) == 0
    # shift one loop off the locus: defect = Theta_1(1) - Theta_1(1/2)
    moved = adhm.N1Representation(
        rep.type, dict(rep.dims), dict(rep.B),
        Psi={1: [[1]], 2: [[Fraction(1, 2)]]}, affine=False,
    )
    assert adhm.trace_identity_defect(moved, theta) == Fraction(1, 2)


def test_total_dimension_cap_refuses_before_allocating():
    adhm.check_total_dim(adhm.MAX_TOTAL_DIM)
    with pytest.raises(InputTooLarge, match=f"total dimension {adhm.MAX_TOTAL_DIM + 1} exceeds"):
        adhm.check_total_dim(adhm.MAX_TOTAL_DIM + 1)
    with pytest.raises(InputTooLarge):
        adhm.N1Representation(A2, {0: 100000, 1: 0, 2: 0})
