import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from adequiver import deformation as dfm, poly
from adequiver.dynkin import DynkinType, Root, positive_roots

A1 = DynkinType.parse("A1")
A2 = DynkinType.parse("A2")
D4 = DynkinType.parse("D4")

T = dfm.Polynomial.variable()
ONE = dfm.Polynomial.constant(1)


def to_sympy(p):
    t = sympy.Symbol("t")
    return sum(sympy.Rational(c) * t ** k for k, c in enumerate(p.coefficients))


def ints(p) -> list[int]:
    """The primitive integer polynomial proportional to a Polynomial or a sympy Poly,
    with a positive leading coefficient."""
    coeffs = p.coefficients if isinstance(p, dfm.Polynomial) else [
        Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return up_to_sign(poly._integer_primitive(coeffs))


def up_to_sign(f: list[int]) -> list[int]:
    return [-c for c in f] if f and f[-1] < 0 else f


class TestPolynomial:
    def test_canonical_trailing_zeros(self):
        assert dfm.Polynomial.of([1, 2, 0, 0]) == dfm.Polynomial.of([1, 2])
        assert dfm.Polynomial.of([0]).is_zero
        assert dfm.Polynomial.of([]).degree == -1

    def test_arith_matches_sympy(self):
        import random
        rng = random.Random(5)
        for _ in range(25):
            a = dfm.Polynomial.of([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rng.randint(0, 4))])
            b = dfm.Polynomial.of([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rng.randint(0, 4))])
            assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0
            assert sympy.expand(to_sympy(a) + to_sympy(b) - to_sympy(a + b)) == 0

    def test_eval(self):
        p = dfm.Polynomial.of([1, -3, 2])        # 2t^2 - 3t + 1
        assert p(Fraction(1)) == 0
        assert p(Fraction(1, 2)) == 0
        assert p(0) == 1

    def test_gcd_up_to_sign(self):
        p = ints(dfm.Polynomial.of([-2, 0, 2]))  # 2(t-1)(t+1), primitive (t-1)(t+1)
        q = [-1, 1]                              # t - 1
        assert up_to_sign(poly._gcd_ints(p, q)) == q
        assert up_to_sign(poly._gcd_ints(q, [1, 1])) == [1]

    def test_gcd_matches_sympy(self):
        rng = random.Random(6)
        t = sympy.Symbol("t")

        def rand(degree):
            return dfm.Polynomial.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                      for _ in range(degree + 1)])

        for _ in range(25):
            common = rand(rng.randint(0, 3))
            a, b = rand(rng.randint(0, 8)) * common, rand(rng.randint(0, 8)) * common
            want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), t)
            got = poly._gcd_ints(ints(a), ints(b))
            assert got == [] if want.is_zero else up_to_sign(got) == ints(want)

    def test_gcd_of_large_polynomials_finishes(self):
        # Euclid over Q grows these coefficients at every step: about 20 s before
        rng = random.Random(7)
        a = dfm.Polynomial.of([Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 20))
                               for _ in range(31)])
        x = T - dfm.Polynomial.constant(Fraction(1, 3))
        start = time.perf_counter()
        f, g = ints(a), ints(a * x * x)
        assert up_to_sign(poly._gcd_ints(f, poly._integer_primitive(poly._derivative(f)))) == [1]
        assert up_to_sign(poly._gcd_ints(g, poly._integer_primitive(poly._derivative(g)))) \
            == ints(x)
        assert time.perf_counter() - start < 5

    def test_squarefree_decomposition(self):
        # t (t-1)^2
        parts = poly._squarefree_factors([0, 1, -2, 1])
        got = {(tuple(up_to_sign(f)), k) for f, k in parts}
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

    def test_poly_roots_keeps_close_roots_apart(self):
        # distinct exact roots 1e-12 apart stay two points, sorted by (real, imag)
        a = T - dfm.Polynomial.constant(Fraction(1, 2))
        b = T - dfm.Polynomial.constant(Fraction(1, 2) + Fraction(1, 10 ** 12))
        roots = dfm.poly_roots(a * a * b)
        assert [m for _, m in roots] == [2, 1]
        assert roots[0][0].real < roots[1][0].real

    def test_squarefree_part(self):
        p = (T - ONE) * (T - ONE) * T          # t (t - 1)^2
        assert up_to_sign(poly._squarefree_ints(ints(p.scale(3)))) == ints((T - ONE) * T)
        assert up_to_sign(poly._squarefree_ints(ints(ONE.scale(5)))) == [1]


class TestDeformationParam:
    def test_make_requires_full_table(self):
        with pytest.raises(ValueError):
            dfm.DeformationParam(A2, {1: T, 2: T})

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
        d = dfm.DeformationParam(A1, {0: T, 1: T})
        assert not d.constrained
        assert dfm.DeformationParam(A1, {0: -T, 1: T}).constrained

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

    def test_theta_of_root_rejects_a_non_root_of_e8(self):
        e8 = DynkinType.parse("E8")
        d = dfm.complete_affine_theta(e8, {a: T.scale(a) - ONE for a in range(1, 9)})
        assert len(d.projections) == 120
        highest = positive_roots(e8)[-1].coefficients
        for coeffs in [(0,) * 8, (1, 1, 0, 0, 0, 0, 0, 1), highest[:-1] + (highest[-1] + 1,)]:
            with pytest.raises(dfm.NotARoot, match="is not a positive root of E8"):
                dfm.theta_of_root(d, Root(coeffs))

    def test_theta_of_root_rejects_a_wrong_length(self):
        d = dfm.complete_affine_theta(D4, {a: T.scale(a) for a in range(1, 5)})
        for coeffs in [(1, 0, 0), (1, 0, 0, 0, 0)]:
            with pytest.raises(dfm.NotARoot, match="coefficient vector has length"):
                dfm.theta_of_root(d, Root(coeffs))


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
        with pytest.raises(dfm.IdenticallyZeroProjection):
            dfm.is_generic(d)

    def test_constant_projection_contributes_nothing(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: ONE - T})
        locus = dfm.exceptional_locus(d)
        assert all(e.root.coefficients != (1, 1) for e in locus.entries)
        assert dfm.is_generic(d)

    @pytest.mark.parametrize("finite, generic", [
        # linear projections 1e-12 apart: distinct exact roots, so generic
        pytest.param({1: T - dfm.Polynomial.constant(Fraction(1, 3)),
                      2: T - dfm.Polynomial.constant(Fraction(1, 3) + Fraction(1, 10 ** 12))},
                     True, id="close-linear"),
        # t^2 - 2, t (t^2 - 3) and their sum (t + 2)(t^2 - t - 1): coprime, square-free
        pytest.param({1: T * T - dfm.Polynomial.constant(2), 2: T * T * T - T.scale(3)},
                     True, id="coprime-irrational"),
        # the quadratic at node 1 vanishes where the linear one at node 2 does
        pytest.param({1: (T - ONE) * (T - dfm.Polynomial.constant(2)), 2: (T - ONE).scale(2)},
                     False, id="linear-root-of-quadratic"),
        # every projection shares the irrational factor t^2 - 2
        pytest.param({1: T * T - dfm.Polynomial.constant(2), 2: T * T * T - T.scale(2)},
                     False, id="shared-irrational-factor"),
    ])
    def test_genericity_is_exact(self, finite, generic):
        assert dfm.is_generic(dfm.complete_affine_theta(A2, finite)) is generic

    def test_every_positive_root_is_covered_when_degrees_positive(self):
        d = dfm.complete_affine_theta(A2, {1: T, 2: T - ONE})
        covered = {e.root for e in dfm.exceptional_locus(d).entries}
        assert covered == set(positive_roots(A2))


# roots of linear square-free factors are read without numpy's solver
_constants = st.one_of(
    st.just(Fraction(0)),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
)


@settings(max_examples=300)
@given(_constants, _constants.filter(bool), st.integers(1, 3))
def test_poly_roots_on_linear_inputs_match_the_companion_solver(c0, c1, power):
    # (c1 t + c0)^power has one square-free factor, t + c0 / c1, of that multiplicity
    np = pytest.importorskip("numpy")
    p = dfm.Polynomial.of([1])
    for _ in range(power):
        p = p * dfm.Polynomial.of([c0, c1])
    try:
        companion = [1.0, float(c0 / c1)]
    except OverflowError:
        with pytest.raises(dfm.InputTooLarge):
            dfm.poly_roots(p)
        return
    got = dfm.poly_roots(p)
    assert got == [(complex(-companion[1] if companion[1] else 0.0), power)]
    want = complex(np.roots(companion)[0])
    if companion[1] == 0 or 1e-138 < abs(companion[1]) < 1e138:
        assert repr(got[0][0]) == repr(want)
    else:
        # LAPACK rescales a matrix whose norm leaves [6.7e-139, 1.5e138], which
        # can cost the solver's root its last bit; the exact root keeps it
        assert abs(got[0][0] - want) <= 4e-16 * abs(want)


def _small(min_degree: int):
    """Nonzero polynomials over Q of degree min_degree to 2."""
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                    min_size=min_degree + 1, max_size=3).filter(lambda c: c[-1] != 0)


@settings(max_examples=100)
@given(st.sampled_from(["A1", "A2", "A3", "D4", "D5", "E6"]), _small(1), st.data())
def test_is_generic_matches_the_oracle(name, planted, data):
    # random nodes; the planted factor times one or two of them, so that their projections
    # share it, or its square times one, so that a projection repeats it, or neither
    t, s = DynkinType.parse(name), dfm.Polynomial.of(planted)
    finite = {a: dfm.Polynomial.of(data.draw(_small(0))) for a in range(1, t.rank + 1)}
    nodes = data.draw(st.lists(st.integers(1, t.rank), min_size=1, max_size=2, unique=True))
    factor = data.draw(st.sampled_from([ONE, s, s * s]))
    for a in nodes[:1] if factor == s * s else nodes:
        finite[a] = finite[a] * factor
    d = dfm.complete_affine_theta(t, finite)
    found = oracle.projections(name[0], t.rank, {a: [sympy.Rational(c.numerator, c.denominator)
                                                     for c in p.coefficients]
                                                 for a, p in finite.items()})
    if any(p.is_zero for _, p in found):
        with pytest.raises(dfm.IdenticallyZeroProjection):
            dfm.is_generic(d)
    else:
        assert dfm.is_generic(d) is oracle.generic(found)


_factors = st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@settings(max_examples=60)
@given(st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=3),
       st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
def test_poly_roots_are_the_companion_roots_of_the_monic_sqf_factors(factors, content):
    # the float labels are exactly those of the monic square-free factors of sympy, a linear
    # one read as -c0 (0.0 for c0 = 0) and a longer one by numpy's companion solver
    np = pytest.importorskip("numpy")
    t = sympy.Symbol("t")
    f = sympy.Poly(sympy.Rational(content.numerator, content.denominator), t, domain="QQ")
    for c, k in factors:
        f *= sympy.Poly(list(reversed(c)), t) ** k
    want = []
    for g, k in f.sqf_list()[1]:
        coeffs = [float(Fraction(int(c.p), int(c.q))) for c in g.monic().all_coeffs()]
        if len(coeffs) == 2:
            want.append((complex(-coeffs[1] if coeffs[1] else 0.0), k))
        else:
            want.extend((complex(r), k) for r in np.roots(coeffs))
    p = dfm.Polynomial.of([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])
    assert dfm.poly_roots(p) == sorted(want, key=lambda e: (e[0].real, e[0].imag))
