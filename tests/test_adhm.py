import random
from fractions import Fraction

import pytest

from adequiver import adhm, linalg
from adequiver.deformation import DeformationParam, Polynomial, complete_affine_theta
from adequiver.dynkin import DynkinType, InputTooLarge, node_labels

from helpers import (finite_pair_example, plant, rand_frac, rand_invertible,
                     worked_cycle_example)

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


def test_zero_loops_cost_no_edge_product(monkeypatch):
    # zero loops: every edge residual is zero without a product; one nonzero loop
    # costs one product per arrow at it, and those residuals stay exact
    rng = random.Random(5)
    dims = {0: 2, 1: 3, 2: 1}
    arrows = {arrow.key: [[rand_frac(rng) for _ in range(dims[arrow.source])]
                          for _ in range(dims[arrow.target])]
              for arrow in adhm.N1Representation(A2, dims).quiver.mckay_arrows()}
    calls = []
    kernel = linalg.sum_of_products

    def counting(terms, rows, cols):
        calls.append(len(terms))
        return kernel(terms, rows, cols)

    monkeypatch.setattr(linalg, "sum_of_products", counting)
    rep = adhm.N1Representation(A2, dims, arrows)
    edges = adhm._edge_defects(rep.loops, {key: rep.arrows[key] for key in rep.B})
    assert set(edges) == set(rep.B) and all(m is None for m in edges.values())
    assert calls == []
    loops = {a: linalg.zeros(d) for a, d in dims.items()}
    loops[1] = [[1, 0, 2], [0, 0, 0], [3, 0, 1]]
    rep = adhm.N1Representation(A2, dims, arrows, Psi={1: loops[1]})
    edges = adhm._edge_defects(rep.loops, {key: rep.arrows[key] for key in rep.B})
    assert calls == [1, 1, 1, 1]        # one single-term product per arrow at node 1
    res = adhm.check_relations(rep, {a: [1] for a in range(3)})
    for (s, t, i), b in rep.B.items():
        want = linalg.mat_sub(linalg.mat_mul(loops[t], b), linalg.mat_mul(b, loops[s]))
        assert res.edge_residuals[s, t, i] == want
        assert (edges[s, t, i] is None) == linalg.is_zero_matrix(want)


@pytest.mark.parametrize(("theta_1", "extra"), [([2, 0, 1], 0), ([0, 1], 0), ([], 0),
                                              ([1, 0, 0, 0, 3], 2)],
                         ids=["quadratic", "linear", "zero", "quartic"])
def test_theta_of_degree_two_costs_no_call_of_its_own(monkeypatch, theta_1, extra):
    # one sum of products per node, Theta_a(Psi_a) among its terms, plus one per arrow
    # with a nonzero end loop; a degree 4 theta forms Psi^2 and Psi^3 on top
    rng = random.Random(5)
    dims = {0: 2, 1: 3, 2: 1}
    arrows = {arrow.key: [[rand_frac(rng) for _ in range(dims[arrow.source])]
                          for _ in range(dims[arrow.target])]
              for arrow in adhm.N1Representation(A2, dims).quiver.mckay_arrows()}
    rep = adhm.N1Representation(A2, dims, arrows, Psi={1: [[1, 0, 2], [0, 0, 0], [3, 0, 1]]})
    theta = {0: [1, -1, Fraction(1, 2)], 1: theta_1, 2: [Fraction(-3, 4)]}
    calls = []
    kernel = linalg.sum_of_products

    def counting(terms, rows, cols):
        calls.append(len(terms))
        return kernel(terms, rows, cols)

    monkeypatch.setattr(linalg, "sum_of_products", counting)
    res = adhm.check_relations(rep, theta)
    arrows_at_1 = sum(1 in key[:2] for key in rep.B)
    assert len(calls) == len(dims) + arrows_at_1 + extra
    monkeypatch.undo()
    for a, coeffs in theta.items():        # the residuals as Fractions, by Horner
        want = linalg.zeros(dims[a])
        for c in reversed(coeffs):
            want = linalg.mat_add(linalg.mat_mul(want, rep.Psi[a]) if dims[a] else want,
                                  linalg.mat_scale(c, linalg.identity(dims[a])))
        for arrow in rep.quiver.mckay_arrows():
            if arrow.source == a:
                want = linalg.mat_add(want, linalg.mat_scale(arrow.sign, linalg.mat_mul(
                    rep.B[arrow.reversed_key()], rep.B[arrow.key])))
        assert res.node_residuals[a] == want


@pytest.mark.parametrize("coeffs", [[5], [0, 0, 1], [1, 0, 0, -2], [0, 2, 0, 0, 0, 1],
                                    [Fraction(1, 3), -1, Fraction(5, 2), 0, 1]])
@pytest.mark.parametrize("loop", [[[0, 1, 0], [0, 0, 1], [0, 0, 0]],      # nilpotent: Psi^3 = 0
                                  [[Fraction(1, 2), 1, 0], [0, 2, -1], [3, 0, Fraction(-2, 3)]],
                                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
def test_theta_on_the_loop_and_its_trace_match_horner(coeffs, loop):
    rep = adhm.N1Representation(A2, {1: 3, 2: 0}, Psi={1: loop}, affine=False)
    m = linalg.matrix(loop)
    want = linalg.zeros(3)
    for c in reversed(coeffs):
        want = linalg.mat_add(linalg.mat_mul(want, m), linalg.mat_scale(c, linalg.identity(3)))
    theta = {1: Polynomial.of(coeffs), 2: T}
    assert adhm.check_relations(rep, theta).node_residuals[1] == want
    assert adhm.trace_identity_defect(rep, theta) == linalg.trace(want)


def test_finite_pair_example_satisfies_relations():
    rep, theta = finite_pair_example()
    assert adhm.check_relations(rep, theta).is_zero
    report = adhm.check_support_property(rep, theta)
    assert report.ok
    assert {r.node for r in report.rows} == {1, 2}
    for row in report.rows:
        # the one eigenvalue 1/2 is where the (1, 1) projection 2t - 1 vanishes
        assert (row.distinct, row.roots, row.off_locus, row.ok) == (1, [((1, 1), 1)], 0, True)


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "E6", "E7"])
@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-3)])
def test_planted_solutions_hold_and_a_moved_entry_breaks_its_two_nodes(name, x):
    finite, arrows, loops = plant(random.Random(f"{name} at {x}"), name, x)
    t = DynkinType.parse(name)
    theta, dims = complete_affine_theta(t, finite), {a: len(m) for a, m in loops.items()}
    rep = adhm.N1Representation(t, dims, arrows, loops, affine=False)
    assert any(any(map(any, m)) for m in arrows.values())
    assert adhm.check_relations(rep, theta).is_zero
    assert adhm.check_support_property(rep, theta).ok
    # B' + E_00 / d for the reverse B' of a forward arrow B: s -> t moves the node relation
    # at s by E_00 B / d (row 0 of B) and at t by -B E_00 / d (column 0 of B)
    s, t_, i = next(key for key, m in arrows.items() if key[0] < key[1] and any(map(any, m)))
    forward, moved = arrows[s, t_, i], {k: [list(row) for row in m] for k, m in arrows.items()}
    moved[t_, s, i][0][0] += Fraction(1, rep.arrows[t_, s, i][1])
    residual = adhm.check_relations(adhm.N1Representation(t, dims, moved, loops, affine=False),
                                    theta)
    broken = {a for a, hit in ((s, any(forward[0])), (t_, any(row[0] for row in forward))) if hit}
    assert broken and {a for a, m in residual.nodes.items() if m is not None} == broken
    assert residual.edges_zero


def test_support_check_rejects_occupied_affine_node():
    rep, theta = worked_cycle_example()
    with pytest.raises(ValueError):
        adhm.check_support_property(rep, theta)


def test_node_residual_evaluates_theta_on_the_loop():
    # no arrow is nonzero, so the residual at node 1 is Theta_1(Psi_1) alone
    p = Polynomial.of([Fraction(1), Fraction(-3), Fraction(2)])
    m = linalg.matrix([[1, 2], [0, 3]])
    sq = linalg.mat_mul(m, m)
    want = linalg.mat_add(
        linalg.mat_add(linalg.mat_scale(2, sq), linalg.mat_scale(-3, m)),
        linalg.identity(2),
    )
    rep = adhm.N1Representation(A2, {1: 2, 2: 0}, Psi={1: m}, affine=False)
    assert adhm.check_relations(rep, {1: p, 2: T}).node_residuals[1] == want


def test_theta_table_errors():
    rep, _ = worked_cycle_example()
    with pytest.raises(ValueError):
        adhm.check_relations(rep, {0: T})
    with pytest.raises(TypeError):
        adhm.check_relations(rep, "nope")


def test_theta_of_another_type_is_refused():
    rep = adhm.N1Representation(DynkinType("A", 1), {1: 1}, Psi={1: [[5]]}, affine=False)
    theta = complete_affine_theta(A2, {1: T, 2: T})
    for check in (adhm.check_relations, adhm.check_support_property):
        with pytest.raises(ValueError, match="theta is of type A2, the representation of type A1"):
            check(rep, theta)
    # a plain node -> polynomial table is read by its labels, as before
    assert adhm.check_relations(rep, {0: T, 1: T, 2: T}).node_residuals[1] == [[Fraction(5)]]


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

    def test_framing_rank_at_unknown_node(self):
        with pytest.raises(ValueError, match=r"framing data at unknown nodes \[9\]"):
            adhm.N1Representation(A2, {0: 1, 1: 1, 2: 1}, framing_ranks={9: 1})

    def test_framing_vector_length(self):
        with pytest.raises(ValueError):
            adhm.N1Representation(
                A2, {0: 2, 1: 0, 2: 0}, framing_ranks={0: 1}, I={0: [[1]]}
            )

    @pytest.mark.parametrize("loop", [([[1]], 0), ([[Fraction(3, 2)]], 1), ([[1.5]], 1),
                                      ([[True]], 1), ([[1]], 2.0), ([[1]], True)])
    def test_integer_rows_want_ints_over_a_nonzero_int_denominator(self, loop):
        with pytest.raises(ValueError, match="loop at 0 wants integer rows"):
            adhm.N1Representation(DynkinType.parse("A1"), {0: 1, 1: 1}, Psi={0: loop})

    @pytest.mark.parametrize("loop", [[[True]], [[False]], [[1.5]]])
    def test_fraction_rows_refuse_bools_as_integer_rows_do(self, loop):
        with pytest.raises(TypeError, match="cannot coerce"):
            adhm.N1Representation(DynkinType.parse("A1"), {0: 1, 1: 0}, Psi={0: loop})

    def test_integer_rows_of_the_wrong_width_name_the_arrow(self):
        with pytest.raises(ValueError, match=r"arrow \(0, 1, 0\) wants shape \(2, 1\)"):
            adhm.N1Representation(A2, {0: 1, 1: 2, 2: 1}, B={(0, 1, 0): ([[1], [2, 3]], 1)})
        with pytest.raises(ValueError, match=r"arrow \(1, 2, 0\) wants integer rows"):
            adhm.N1Representation(A2, {0: 1, 1: 2, 2: 1}, B={(1, 2, 0): ([[1, None]], 1)})

    def test_a_negative_denominator_is_made_positive(self):
        rep = adhm.N1Representation(A2, {0: 1, 1: 2, 2: 1}, B={(0, 1, 0): ([[1], [-2]], -4)},
                                    Psi={1: ([[0, -3], [5, 0]], -6)})
        assert rep.arrows[0, 1, 0] == ([[-1], [2]], 4) and rep.loops[1] == ([[0, 3], [-5, 0]], 6)
        assert rep.B[0, 1, 0] == [[Fraction(-1, 4)], [Fraction(1, 2)]]
        assert rep == adhm.N1Representation(A2, {0: 1, 1: 2, 2: 1},
                                            B={(0, 1, 0): [[Fraction(-1, 4)], [Fraction(1, 2)]]},
                                            Psi={1: [[0, Fraction(1, 2)], [Fraction(-5, 6), 0]]})

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
        assert adhm.is_nondegenerate(adhm.N1Representation(A2, {0: 0, 1: 0, 2: 0}))

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


def test_support_merges_nearby_eigenvalues():
    # a conjugated Jordan block: floating-point eigenvalues of such a matrix
    # scatter around 1/3, the exact characteristic polynomial puts them on one point
    rng = random.Random(5)
    block = [[Fraction(1, 3), 1, 0], [0, Fraction(1, 3), 1], [0, 0, Fraction(1, 3)]]
    g = rand_invertible(rng, 3)
    loop = linalg.block_diag([linalg.mat_mul(g, linalg.mat_mul(block, linalg.inverse(g))),
                              [[5]]])
    rep = adhm.N1Representation(A2, {0: 0, 1: 4, 2: 0}, Psi={1: loop})
    sup = adhm.support(rep)
    assert sup[0] == [] and sup[2] == []
    vals = sup[1]
    assert len(vals) == 4
    assert vals[0] == vals[1] == vals[2] and abs(vals[0] - 1 / 3) < 1e-12
    assert abs(vals[3] - 5) < 1e-12


def test_support_check_separates_an_eigenvalue_near_the_locus():
    _, theta = worked_cycle_example()
    near = Fraction(1, 2) + Fraction(1, 10 ** 7)
    rep = adhm.N1Representation(A2, {0: 0, 1: 2, 2: 0},
                                Psi={1: [[Fraction(1, 2), 0], [0, near]]})
    report = adhm.check_support_property(rep, theta, tol=1e-6)      # tol is ignored
    assert not report.ok
    (row,) = report.rows
    # 1/2 is on the (1, 1) locus, 1/2 + 1e-7 is on none
    assert (row.node, row.distinct, row.roots, row.off_locus) == (1, 2, [((1, 1), 1)], 1)


def test_support_check_keeps_an_identically_zero_projection():
    # theta_1 = t and theta_2 = -t put the root (1, 1) on the zero polynomial, which
    # vanishes everywhere: 5 is on no other root's locus, so only that projection holds it
    theta = complete_affine_theta(A2, {1: T, 2: Polynomial.of([0, -1])})
    assert [r.coefficients for r, p in theta.projections if not p.coefficients] == [(1, 1)]
    rep = adhm.N1Representation(A2, {0: 0, 1: 1, 2: 0}, Psi={1: [[5]]})
    report = adhm.check_support_property(rep, theta)
    assert report.ok
    (row,) = report.rows
    assert (row.node, row.distinct, row.roots, row.off_locus) == (1, 1, [((1, 1), 1)], 0)


def test_direct_sum_blocks():
    rep, theta = worked_cycle_example()
    both = adhm.direct_sum(rep, rep)
    assert both.dims == {0: 2, 1: 2, 2: 2}
    assert both.framing_ranks[0] == 2
    assert both.I[0] == [[1, 0], [0, 1]]
    assert adhm.check_relations(both, theta).is_zero
    assert adhm.is_nondegenerate(both)


def test_direct_sum_beside_an_empty_node():
    # node 0 of the first summand is empty, so its arrows out of node 1 have no
    # rows; their width 2 still has to reach the sum
    a1 = DynkinType.parse("A1")
    r1 = adhm.N1Representation(a1, {0: 0, 1: 2}, Psi={1: [[1, 1], [0, 1]]})
    r2 = adhm.N1Representation(a1, {0: 1, 1: 1}, B={(1, 0, 0): [[2]], (0, 1, 1): [[3]]},
                               Psi={0: [[4]], 1: [[5]]})
    both = adhm.direct_sum(r1, r2)
    assert both.dims == {0: 1, 1: 3}
    assert both.B[(1, 0, 0)] == [[0, 0, 2]]
    assert both.B[(0, 1, 1)] == [[0], [0], [3]]
    assert both.Psi == {0: [[4]], 1: [[1, 1, 0], [0, 1, 0], [0, 0, 5]]}
    assert adhm.direct_sum(r2, r1).B[(1, 0, 0)] == [[2, 0, 0]]


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

    def test_base_change_of_the_wrong_size_refused(self):
        rep, _ = worked_cycle_example()
        g = {a: linalg.identity(rep.dims[a]) for a in rep.dims}
        g[1] = linalg.identity(2)
        with pytest.raises(ValueError, match=r"base change at 1 wants shape \(1, 1\)"):
            adhm.conjugate(rep, g)


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
