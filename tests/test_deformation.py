from collections import Counter
from fractions import Fraction

import pytest
import sympy

from adequiver import adhm, sheaf
from adequiver import deformation as dfm
from adequiver.dynkin import DynkinType, Root, positive_roots

A1 = DynkinType.parse("A1")
A2 = DynkinType.parse("A2")
D4 = DynkinType.parse("D4")

T = dfm.Polynomial.variable()
ONE = dfm.Polynomial.constant(1)


def to_sympy(p):
    t = sympy.Symbol("t")
    return sum(sympy.Rational(c) * t ** k for k, c in enumerate(p.coefficients))


class TestPolynomial:
    def test_canonical_trailing_zeros(self):
        assert dfm.Polynomial.of([1, 2, 0, 0]) == dfm.Polynomial.of([1, 2])
        assert dfm.Polynomial.of([0]).is_zero
        assert dfm.Polynomial.of([]).degree == -1

    def test_arith_matches_sympy(self):
        import random
        rng = random.Random(5)
        t = sympy.Symbol("t")
        for _ in range(25):
            a = dfm.Polynomial.of([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rng.randint(0, 4))])
            b = dfm.Polynomial.of([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rng.randint(0, 4))])
            assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0
            assert sympy.expand(to_sympy(a) + to_sympy(b) - to_sympy(a + b)) == 0
            if not b.is_zero:
                q, r = a.divmod(b)
                qs, rs = sympy.div(to_sympy(a), to_sympy(b), t)
                assert sympy.expand(to_sympy(q) - qs) == 0
                assert sympy.expand(to_sympy(r) - rs) == 0

    def test_eval_and_derivative(self):
        p = dfm.Polynomial.of([1, -3, 2])        # 2t^2 - 3t + 1
        assert p(Fraction(1)) == 0
        assert p(Fraction(1, 2)) == 0
        assert p(0) == 1
        assert p.derivative() == dfm.Polynomial.of([-3, 4])
        assert ONE.derivative().is_zero

    def test_monic_and_gcd(self):
        p = dfm.Polynomial.of([-2, 0, 2])        # 2(t-1)(t+1)
        assert p.monic() == dfm.Polynomial.of([-1, 0, 1])
        q = dfm.Polynomial.of([-1, 1])           # t - 1
        assert dfm.poly_gcd(p, q) == q.monic()
        assert dfm.poly_gcd(q, dfm.Polynomial.of([1, 1])) == ONE

    def test_squarefree_decomposition(self):
        # t (t-1)^2
        p = dfm.Polynomial.of([0, 1, -2, 1])
        parts = dfm.squarefree_decomposition(p)
        got = {(tuple(f.coefficients), k) for f, k in parts}
        assert got == {((0, 1), 1), ((-1, 1), 2)}

    def test_poly_roots_with_multiplicity(self):
        p = dfm.Polynomial.of([0, 1, -2, 1])
        roots = sorted(dfm.poly_roots(p), key=lambda rm: rm[0].real)
        assert len(roots) == 2
        assert abs(roots[0][0]) < 1e-9 and roots[0][1] == 1
        assert abs(roots[1][0] - 1) < 1e-9 and roots[1][1] == 2

    def test_poly_roots_complex_pair(self):
        p = dfm.Polynomial.of([1, 0, 1])         # t^2 + 1
        pts = sorted((r for r, _ in dfm.poly_roots(p)), key=lambda z: z.imag)
        assert abs(pts[0] + 1j) < 1e-9 and abs(pts[1] - 1j) < 1e-9


CLUSTER_TOL = 1e-3


def _clustered(path: str, gap: Fraction) -> list:
    """(point, multiplicity) pairs that `path` reports for the points 1/2 and 1/2 + gap."""
    low, high = Fraction(1, 2), Fraction(1, 2) + gap
    if path == "support":
        rep = adhm.N1Representation(A1, {0: 0, 1: 2}, Psi={1: [[low, 0], [0, high]]})
        return sorted(Counter(adhm.support(rep, CLUSTER_TOL)[1]).items(), key=lambda e: e[0].real)
    if path == "poly_roots":        # (t - low)^2 (t - high)
        a, b = T - dfm.Polynomial.constant(low), T - dfm.Polynomial.constant(high)
        return dfm.poly_roots(a * a * b, CLUSTER_TOL)
    # float input, so the numeric path; the superdiagonal 1 keeps rank decisions clear of tol
    got = sheaf.endo_to_sheaf([[float(low), 1.0], [0.0, float(high)]], CLUSTER_TOL)
    return [(s, sum(parts)) for s, parts in got.points]


@pytest.mark.parametrize("path, mults", [
    ("support", [1, 1]), ("poly_roots", [2, 1]), ("endo_to_sheaf", [1, 1]),
])
def test_one_clustering_rule_for_every_numeric_path(path, mults):
    (point, mult), = _clustered(path, Fraction(1, 2000))       # 0.5 tol apart: merged
    assert abs(point - 0.5) < CLUSTER_TOL
    assert mult == sum(mults)
    apart = _clustered(path, Fraction(1, 500))                 # 2 tol apart: separate
    assert [m for _, m in apart] == mults
    assert abs(apart[0][0] - 0.5) < 1e-9 and abs(apart[1][0] - 0.502) < 1e-9


class TestDeformationParam:
    def test_make_requires_full_table(self):
        with pytest.raises(ValueError):
            dfm.make_deformation(A2, {1: T, 2: T})

    def test_completion_a1(self):
        d = dfm.complete_affine_theta(A1, {1: T})
        assert d.theta[0] == -T
        assert d.constrained

    def test_completion_a2(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        assert d.theta[0] == ONE - T - T
        assert d.constrained

    def test_completion_d4_weights_the_branch_node(self):
        # marks (1,1,2,1,1): node 2 counts twice
        d = dfm.complete_affine_theta(D4, {1: T, 2: -T, 3: T, 4: T})
        assert d.theta[0] == -T
        assert d.constrained

    def test_unconstrained_detected(self):
        d = dfm.make_deformation(A1, {0: T, 1: T})
        assert not d.constrained
        assert dfm.make_deformation(A1, {0: -T, 1: T}).constrained

    def test_theta_of_root_linearity(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        assert dfm.theta_of_root(d, Root((1, 1))) == T + T - ONE
        assert dfm.theta_of_root(d, Root((1, 0))) == T
        total = dfm.Polynomial(())
        for r in [Root((1, 0)), Root((0, 1))]:
            total = total + dfm.theta_of_root(d, r)
        assert total == dfm.theta_of_root(d, Root((1, 1)))

    def test_theta_of_root_rejects_nonroots(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        with pytest.raises(dfm.NotARoot):
            dfm.theta_of_root(d, Root((1,)))
        with pytest.raises(dfm.NotARoot):
            dfm.theta_of_root(d, Root((2, 0)))


class TestExceptionalLocus:
    def test_worked_a2_locus(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        locus = dfm.exceptional_locus(d)
        got = {(e.root.coefficients, round(e.point.real, 9), round(e.point.imag, 9), e.multiplicity)
               for e in locus.entries}
        assert got == {
            ((1, 0), 0.0, 0.0, 1),
            ((0, 1), 1.0, 0.0, 1),
            ((1, 1), 0.5, 0.0, 1),
        }
        assert dfm.is_generic(d)

    def test_equal_thetas_share_a_point(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T})
        locus = dfm.exceptional_locus(d)
        zero_roots = {e.root.coefficients for e in locus.entries if abs(e.point) < 1e-9}
        assert zero_roots == {(1, 0), (0, 1), (1, 1)}
        assert not dfm.is_generic(d)

    def test_double_root_is_not_generic(self):
        d = dfm.complete_affine_theta(A1, {1: T * T})
        locus = dfm.exceptional_locus(d)
        assert len(locus.entries) == 1
        assert locus.entries[0].multiplicity == 2
        assert not dfm.is_generic(d)

    def test_identically_zero_projection(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: -T})
        with pytest.raises(dfm.IdenticallyZeroProjection) as e:
            dfm.exceptional_locus(d)
        assert e.value.root == Root((1, 1))

    def test_constant_projection_contributes_nothing(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: ONE - T})
        locus = dfm.exceptional_locus(d)
        assert all(e.root.coefficients != (1, 1) for e in locus.entries)
        assert dfm.is_generic(d)

    def test_every_positive_root_is_covered_when_degrees_positive(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        covered = {e.root for e in dfm.exceptional_locus(d).entries}
        assert covered == set(positive_roots(A2))
