"""The F_p layer and the rational-root core of `poly`, checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from adequiver import poly

P = 2521                # the prime of every McKay verdict up to rank 8
t = sympy.Symbol("t")


def to_sympy(coeffs: list, p: int) -> sympy.Poly:
    return sympy.Poly(list(reversed(coeffs)) or [0], t, modulus=p)


def from_sympy(f: sympy.Poly, p: int) -> list:
    # sympy prints residues symmetrically around 0; ours lie in [0, p)
    return poly._trim([int(c) % p for c in reversed(f.all_coeffs())])


def residues(p: int, min_size: int = 0, max_size: int = 7):
    return st.lists(st.integers(0, p - 1), min_size=min_size, max_size=max_size)


def monic(p: int):
    return residues(p, 1, 5).map(lambda low: low + [1])


@settings(max_examples=15)
@given(residues(P, max_size=10), monic(P))
def test_divmod_by_a_monic_polynomial(a, f):
    q, r = poly._divmod(a, f, P)
    sq, sr = sympy.div(to_sympy(a, P), to_sympy(f, P))
    assert (poly._trim(q), r) == (from_sympy(sq, P), from_sympy(sr, P))


@settings(max_examples=15)
@given(residues(P), residues(P), monic(P))
def test_mulmod(a, b, f):
    want = (to_sympy(a, P) * to_sympy(b, P)).rem(to_sympy(f, P))
    assert poly._mulmod(a, b, f, P) == from_sympy(want, P)


@settings(max_examples=15)
@given(residues(P, 1, 3), st.integers(0, 60), monic(P))
def test_powmod(base, e, f):
    want = (to_sympy(base, P) ** e).rem(to_sympy(f, P))
    assert poly._powmod(base, e, f, P) == from_sympy(want, P)


def test_powmod_at_the_splitting_exponent_is_euler_criterion():
    # mod t - r, (t + a)^((p - 1) / 2) is the Legendre symbol of r + a
    for r, a in ((3, 0), (5, 7), (P - 1, 1), (1000, 21)):
        want = pow(r + a, (P - 1) // 2, P)
        assert poly._powmod([a, 1], (P - 1) // 2, [-r % P, 1], P) == poly._trim([want])


@settings(max_examples=15)
@given(monic(P), residues(P), residues(P, 0, 3))
def test_monic_gcd(a, b, common):
    a, b = (from_sympy(to_sympy(x, P) * to_sympy(common + [1], P), P) for x in (a, b))
    want = sympy.gcd(to_sympy(a, P), to_sympy(b, P)).monic()
    assert poly._monic_gcd(a, b, P) == from_sympy(want, P)


@settings(max_examples=15)
@given(residues(P, 1), st.integers(0, P - 1))
def test_quotient_is_synthetic_division(a, root):
    q, value = poly._quotient(a, root, P)
    sq, sr = sympy.div(to_sympy(a, P), to_sympy([-root % P, 1], P))
    assert (poly._trim(q), poly._trim([value])) == (from_sympy(sq, P), from_sympy(sr, P))


@pytest.mark.parametrize("p", [P, 7])
def test_split_roots_finds_exactly_the_planted_roots(p):
    @settings(max_examples=15)
    @given(st.sets(st.integers(0, p - 1), min_size=1, max_size=6))
    def check(roots):
        f = [1]
        for r in roots:
            f = from_sympy(to_sympy(f, p) * to_sympy([-r % p, 1], p), p)
        got = poly._split_roots(f, p)
        assert sorted(got) == sorted(roots)

    check()


@pytest.mark.parametrize("p", [7, 13])
def test_split_roots_reports_an_irreducible_quadratic(p):
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)    # a non-residue
    assert poly._split_roots([-n % p, 0, 1], p) is None                      # t^2 - n
    assert poly._split_roots([1, p - 2, 1], p) is None                       # (t - 1)^2


roots = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=15)
@given(st.lists(st.tuples(roots, st.integers(1, 3)), max_size=4), st.integers(0, 3),
       st.booleans(), st.integers(1, 4))
def test_rational_roots_match_sympy(planted, zeros, irreducible, scale):
    # scale / 3 t^zeros (t^2 + 2)^irreducible prod (q t - p)^k
    f = sympy.Poly([sympy.Rational(scale, 3)] + [0] * zeros, t)
    if irreducible:
        f *= sympy.Poly([1, 0, 2], t)
    for r, k in planted:
        f *= sympy.Poly([r.denominator, -r.numerator], t) ** k
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
    want = {Fraction(int(r.p), int(r.q)): k for r, k in sympy.roots(f, filter="Q").items()}
    got = poly._rational_roots(coeffs)
    assert got == want
    assert list(got) == sorted(want)


def test_divisors_and_factors_match_sympy():
    for n in [1, -1, 2, 12, -36, 97, 2520, 2521 * 4, 2 ** 10 * 3 ** 4, 999983 * 7]:
        assert poly._divisors(n) == sympy.divisors(n)
        assert poly._factor(n) == sorted(p for p, k in sympy.factorint(abs(n)).items()
                                         for _ in range(k))


@pytest.mark.parametrize(("coeffs", "roots"), [
    ([Fraction(-3), Fraction(2)], {Fraction(3, 2): 1}),
    ([0, 0, Fraction(1, 2), Fraction(-1, 3)], {Fraction(0): 2, Fraction(3, 2): 1}),
    ([0, Fraction(5, 7), Fraction(5, 7)], {Fraction(-1): 1, Fraction(0): 1}),
    ([-10 ** 40, 1], {Fraction(10 ** 40): 1}),
])
def test_rational_roots_of_linear_polynomials_come_ascending(coeffs, roots):
    got = poly._rational_roots([Fraction(c) for c in coeffs])
    assert got == roots and list(got) == sorted(roots)
