import math
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from adequiver import linalg, poly
from helpers import (mat_from_sympy, naive_product, nullspace, rand_frac, rand_invertible,
                     rand_matrix, reference_char_poly, reference_jordan_basis, rref,
                     sympy_nullspace)


def test_frac_accepts_strings_ints_fractions():
    assert linalg.frac("3/4") == Fraction(3, 4)
    assert linalg.frac(2) == 2
    assert linalg.frac(Fraction(-1, 3)) == Fraction(-1, 3)


@pytest.mark.parametrize("x", [True, False, 1.5, None])
def test_frac_refuses_bools_and_floats(x):
    with pytest.raises(TypeError, match="cannot coerce"):
        linalg.frac(x)


RAGGED = [[1, 2], [3]]


@pytest.mark.parametrize("fn, args, name", [
    (linalg.matrix, (RAGGED,), "a matrix"),
    (linalg.mat_mul, (RAGGED, [[1], [1]]), "the left factor"),
    (linalg.mat_mul, ([[1, 2]], [[1], [1, 2]]), "the right factor"),
    (rref, ([[1], [3, 4]],), "a matrix"),
    (linalg.rank, (RAGGED,), "a matrix"),
    (nullspace, (RAGGED,), "a matrix"),
    (linalg.inverse, (RAGGED,), "a matrix"),
    (linalg.char_poly_coeffs, (RAGGED,), "a matrix"),
    (linalg.rational_eigenvalues, (RAGGED,), "a matrix"),
    (linalg.jordan_form, (RAGGED,), "a matrix"),
    (linalg.mat_eq, (RAGGED, [[1, 2], [3, 4]]), "the left operand"),
    (linalg.mat_eq, ([[1, 2], [3, 4]], RAGGED), "the right operand"),
    (linalg.mat_add, (RAGGED, RAGGED), "the left operand"),
    (linalg.mat_add, ([[1, 2], [3, 4]], RAGGED), "the right operand"),
    (linalg.mat_sub, (RAGGED, RAGGED), "the left operand"),
    (linalg.mat_sub, ([[1, 2], [3, 4]], RAGGED), "the right operand"),
    (linalg.mat_scale, (2, RAGGED), "the matrix"),
    (linalg.trace, (RAGGED,), "a matrix"),
    (linalg.trace, ([[1], [3, 4]],), "a matrix"),
    (linalg.block_diag, ([[[1]], RAGGED],), "block 1"),
], ids=["matrix", "mat_mul-left", "mat_mul-right", "rref", "rank", "nullspace", "inverse",
        "char_poly_coeffs", "rational_eigenvalues", "jordan_form", "mat_eq-left",
        "mat_eq-right", "mat_add-left", "mat_add-right", "mat_sub-left", "mat_sub-right",
        "mat_scale", "trace", "trace-short-first-row", "block_diag"])
def test_the_fraction_api_refuses_ragged_rows_naming_the_matrix(fn, args, name):
    # every Fraction matrix enters through int_rows, so none is truncated or misread
    with pytest.raises(ValueError, match=f"^{name} has ragged rows$"):
        fn(*args)


def test_the_fraction_helpers_read_whole_matrices():
    # shapes come from every row, so a short row is no longer read as a match or an index
    assert not linalg.mat_eq([[1, 2], [3, 4]], [[1, 2], [3, 5]])
    assert linalg.mat_eq([[Fraction(1, 2), 2]], [["1/2", 2]])
    assert not linalg.mat_eq([], [[]]) and linalg.mat_eq([[]], [[]])
    assert linalg.mat_add([[1, Fraction(1, 2)]], [[2, Fraction(1, 3)]]) == [[3, Fraction(5, 6)]]
    assert linalg.mat_sub([[]], [[]]) == [[]] and linalg.mat_add([], []) == []
    with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) - \(2, 1\)$"):
        linalg.mat_sub([[1, 2]], [[1], [2]])
    assert linalg.trace([[Fraction(1, 2), 5], [7, Fraction(1, 3)]]) == Fraction(5, 6)
    assert linalg.trace([]) == 0
    with pytest.raises(ValueError, match="non-square"):
        linalg.trace([[1, 2]])
    assert linalg.block_diag([[[1, 2]], [[]], [[Fraction(1, 2)], [3]]]) == [
        [1, 2, 0], [0, 0, 0], [0, 0, Fraction(1, 2)], [0, 0, 3]]


def test_identity_and_zeros_shapes():
    assert linalg.shape(linalg.identity(3)) == (3, 3)
    assert linalg.shape(linalg.zeros(2, 5)) == (2, 5)
    assert linalg.is_zero_matrix(linalg.zeros(4))


def test_arithmetic_roundtrip():
    rng = Random(1)
    a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 3)
    assert linalg.mat_sub(linalg.mat_add(a, b), b) == a
    assert linalg.mat_scale(Fraction(1, 2), linalg.mat_scale(2, a)) == a


def test_mat_mul_against_sympy():
    rng = Random(2)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 4)
    sa = sympy.Matrix([[sympy.Rational(x) for x in r] for r in a])
    sb = sympy.Matrix([[sympy.Rational(x) for x in r] for r in b])
    assert linalg.mat_mul(a, b) == mat_from_sympy(sa * sb)


# ints and Fractions, negative values, large denominators, and many zeros
_entries = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12),
)


@st.composite
def _operands(draw):
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    a = [[draw(_entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(_entries) for _ in range(cols)] for _ in range(inner)]
    return a, b


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_mat_mul_matches_naive_fraction_product(operands):
    a, b = operands
    before = (_typed(a), _typed(b))
    out = linalg.mat_mul(a, b)
    assert out == naive_product(a, b)
    assert all(type(x) is Fraction for row in out for x in row)
    assert (_typed(a), _typed(b)) == before


def test_mat_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.mat_mul([[1, 2]], [[1, 2]])


def _naive_rref(m):
    """Textbook Gauss-Jordan on Fractions: (reduced rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(rows):
            if i != r:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


@st.composite
def _rref_inputs(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    # rank-deficient inputs: some rows become combinations of two others
    for i in range(draw(st.integers(0, max(rows - 2, 0)))):
        j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c, e = draw(_entries), draw(_entries)
        m[i] = [c * x + e * y for x, y in zip(m[j], m[k])]
    return m


@settings(max_examples=300)
@given(_rref_inputs())
def test_rref_matches_naive_gauss_jordan(m):
    before = _typed(m)
    red, pivots = rref(m)
    want, want_pivots = _naive_rref(m)
    assert pivots == want_pivots
    assert _typed(red) == _typed(want)
    assert _typed(m) == before


_small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


# no shrink phase: shrinking n x n Fraction matrices ran for minutes and
# hundreds of MB on a failure; the first failing example is reported as found
@settings(max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(_small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_sympy_up_to_n8(m):
    # sympy's matrices over QQ: exact, and without the expression cache
    theirs = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in m],
                          (len(m), len(m)), QQ).charpoly()[::-1]
    ours = linalg.char_poly_coeffs(m)
    assert all(type(x) is Fraction for x in ours)
    assert ours == [Fraction(int(c.numerator), int(c.denominator)) for c in theirs]


def _conjugated_by_random(rng, j):
    """g^-1 j g for a random invertible g, by sympy."""
    g = sympy.Matrix(rand_invertible(rng, len(j)))
    return mat_from_sympy(g.inv() * sympy.Matrix(j) * g)


@pytest.mark.parametrize("case", ["zero", "empty", "strictly-upper", "nilpotent-jordan",
                                  "projection"])
def test_char_poly_and_eigenvalues_match_sympy_when_the_powers_vanish_early(case):
    # Faddeev-LeVerrier stops once its power is zero; these reach zero before step n
    rng = Random(15)
    if case == "zero":
        m = linalg.zeros(4)
    elif case == "empty":
        m = []
    elif case == "strictly-upper":
        m = [[rand_frac(rng) if j > i else Fraction(0) for j in range(5)] for i in range(5)]
    elif case == "nilpotent-jordan":           # blocks of sizes 3 and 1 at 0: cube zero
        m = _conjugated_by_random(rng, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    else:                                       # rank one idempotent: m^2 = m
        m = _conjugated_by_random(rng, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    n = len(m)
    theirs = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in m],
                          (n, n), QQ).charpoly()[::-1]
    assert linalg.char_poly_coeffs(m) == [Fraction(int(c.numerator), int(c.denominator))
                                          for c in theirs]
    eig = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for r in m for x in r])
    assert linalg.rational_eigenvalues(m) == {
        Fraction(int(sympy.fraction(k)[0]), int(sympy.fraction(k)[1])): int(v)
        for k, v in eig.eigenvals().items()}


@st.composite
def _invertible(draw):
    """Unit lower times upper triangular with a nonzero diagonal, rows permuted."""
    n = draw(st.integers(1, 6))
    lower = [[1 if i == j else (draw(_entries) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[(draw(_entries) or 1) if i == j else (draw(_entries) if i < j else 0) for j in range(n)]
             for i in range(n)]
    m = naive_product(lower, upper)
    return [m[i] for i in draw(st.permutations(range(n)))]


@settings(max_examples=150)
@given(_invertible())
def test_inverse_times_matrix_is_identity(m):
    inv = linalg.inverse(m)
    ident = linalg.identity(len(m))
    assert naive_product(inv, m) == ident
    assert naive_product(m, inv) == ident


def test_rank_and_nullspace_small():
    m = [[1, 2], [2, 4]]
    assert linalg.rank(linalg.matrix(m)) == 1
    ns = nullspace(linalg.matrix(m))
    assert len(ns) == 1
    x, y = ns[0]
    assert x + 2 * y == 0


def test_nullspace_matches_sympy_spans():
    rng = Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        ours = nullspace(linalg.matrix(m))
        theirs = sympy_nullspace(m)
        assert len(ours) == len(theirs)
        for v in ours:
            assert all(
                sum(Fraction(m[i][j]) * v[j] for j in range(cols)) == 0
                for i in range(rows)
            )


def test_inverse():
    rng = Random(4)
    for n in (1, 2, 3, 4):
        g = rand_invertible(rng, n)
        inv = linalg.inverse(linalg.matrix(g))
        assert linalg.mat_mul(g, inv) == linalg.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        linalg.inverse(linalg.matrix([[1, 2], [2, 4]]))


@settings(max_examples=100)
@given(_rref_inputs())
def test_span_basis_dim_is_rank(vectors):
    n = len(vectors[0]) if vectors else 0
    sb = linalg.SpanBasis(n)
    grew = [sb.add(v) for v in vectors]
    assert sum(grew) == sb.dim == linalg.rank(vectors)
    # every vector added is a member now: adding it again changes nothing
    assert not any(sb.add(v) for v in vectors)


def test_span_basis_growth_and_membership():
    sb = linalg.SpanBasis(3)
    assert sb.add([Fraction(1), Fraction(0), Fraction(0)])
    assert not sb.add([Fraction(2), Fraction(0), Fraction(0)])
    assert sb.add([Fraction(0), Fraction(1), Fraction(1)])
    # membership: adding a vector of the span leaves it unchanged
    assert not sb.add([Fraction(3), Fraction(2), Fraction(2)])
    assert sb.dim == 2
    assert sb.add([Fraction(0), Fraction(1), Fraction(0)])
    assert sb.dim == 3


@st.composite
def _int_matrices(draw):
    # integer rows, some of them combinations of two others (zero rows among them), and
    # some columns zeroed; 0 x n and n x 0 included
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c, e = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[i] = [c * x + e * y for x, y in zip(m[j], m[k])]
    for j in draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in m:
            row[j] = 0
    return cols, m


def _reduced_echelon(rows, pivots, cols):
    # primitive rows, pivots increasing, each the first nonzero column of its row and
    # every other row 0 there
    assert all(len(row) == cols and math.gcd(*row) == 1 for row in rows)
    assert len(pivots) == len(rows) and pivots == sorted(set(pivots))
    for row, p in zip(rows, pivots):
        assert not any(row[:p]) and row[p]
        assert not any(row[q] for q in pivots if q != p)


@settings(max_examples=200)
@given(_int_matrices(), st.randoms(use_true_random=False))
def test_the_one_eliminator_keeps_rows_primitive_and_reduced(case, rng):
    cols, m = case
    before = [row[:] for row in m]
    rows, pivots = linalg._rref_ints(m)
    assert m == before
    _reduced_echelon(rows, pivots, cols)
    assert len(rows) == (sympy.Matrix(m).rank() if m and cols else 0)
    # any sequence of adds, repeats and zero vectors included
    sb = linalg.SpanBasis(cols)
    added = []
    for v in rng.choices(m, k=len(m) + 2) if m else ():
        sb.add(v)
        added.append(v)
        _reduced_echelon(sb.rows, sb.pivots, cols)
        assert sb.dim == (sympy.Matrix(added).rank() if cols else 0)


def test_is_nondegenerate_keeps_its_integers_small(monkeypatch):
    # a 90-dimensional closure in 30-dimensional spans: every row step divides by the
    # content, so the largest integer the eliminator sees has 5202 bits on this input
    # (28605 when a span reduced each new vector without dividing until the end)
    from adequiver import adhm
    from adequiver.dynkin import DynkinType

    a2, rng = DynkinType.parse("A2"), Random(30)
    dims = {0: 30, 1: 30, 2: 30}
    arrows = {(s, t, 0): [[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)]
              for s, t in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]}
    rep = adhm.N1Representation(a2, dims, arrows, framing_ranks={0: 1},
                                I={0: [[rng.randint(-3, 3) for _ in range(30)]]})
    bits = [0]

    def spy(*args):
        bits[0] = max(bits[0], *(x.bit_length() for x in args))
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "gcd", spy)
    assert adhm.is_nondegenerate(rep)
    assert bits[0] < 8000


def test_char_poly_matches_sympy():
    rng = Random(5)
    for n in (1, 2, 3, 4):
        m = rand_matrix(rng, n, n)
        ours = linalg.char_poly_coeffs(linalg.matrix(m))
        t = sympy.symbols("t")
        sm = sympy.Matrix([[sympy.Rational(x) for x in r] for r in m])
        theirs = sympy.Poly(sm.charpoly(t).as_expr(), t).all_coeffs()[::-1]
        assert [Fraction(int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
                for c in theirs] == list(ours)


def test_rational_eigenvalues_with_multiplicity():
    m = linalg.matrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    assert linalg.rational_eigenvalues(m) == {Fraction(2): 2, Fraction(5): 1}


def test_rational_eigenvalues_zero_and_fractions():
    m = linalg.matrix([[0, 0], [0, Fraction(1, 3)]])
    assert linalg.rational_eigenvalues(m) == {Fraction(0): 1, Fraction(1, 3): 1}


def test_rational_eigenvalues_rejects_irrational():
    with pytest.raises(linalg.NonRationalSpectrum):
        linalg.rational_eigenvalues(linalg.matrix([[0, 2], [1, 0]]))   # +-sqrt(2)
    with pytest.raises(linalg.NonRationalSpectrum):
        linalg.rational_eigenvalues(linalg.matrix([[0, 1], [-1, 0]]))  # +-i


def test_rational_eigenvalues_match_sympy_on_planted_spectra():
    rng = Random(11)
    spectra = [{Fraction(0): 1, Fraction(7, 10): 4, Fraction(-3, 8): 2}]
    for _ in range(6):
        spectrum = {Fraction(0): rng.randint(1, 2)}
        for _ in range(2):
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 10))
            spectrum[lam] = rng.randint(1, 4)
        spectra.append(spectrum)
    for spectrum in spectra:
        blocks = []
        for lam, mult in spectrum.items():
            while mult:
                size = rng.randint(1, mult)
                blocks.append((lam, size))
                mult -= size
        m = _planted(rng, blocks)
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                               for row in m]).eigenvals()
        want = {Fraction(int(sympy.fraction(k)[0]), int(sympy.fraction(k)[1])): int(v)
                for k, v in theirs.items()}
        assert want == spectrum
        assert linalg.rational_eigenvalues(m) == want


def _planted(rng: Random, blocks):
    """g^-1 J g for the given (eigenvalue, size) blocks and a random g."""
    n = sum(size for _, size in blocks)
    j = linalg.zeros(n)
    at = 0
    for lam, size in blocks:
        for i in range(size):
            j[at + i][at + i] = Fraction(lam)
            if i + 1 < size:
                j[at + i][at + i + 1] = Fraction(1)
        at += size
    g = rand_invertible(rng, n)
    ginv = linalg.inverse(linalg.matrix(g))
    return linalg.mat_mul(ginv, linalg.mat_mul(j, g))


def test_jordan_form_recovers_planted_blocks():
    rng = Random(6)
    cases = [
        [(0, 2)],
        [(1, 1), (2, 1)],
        [(Fraction(1, 2), 2), (Fraction(1, 2), 1)],
        [(3, 3)],
        [(0, 1), (0, 1), (5, 2)],
    ]
    for blocks in cases:
        m = _planted(rng, blocks)
        j, g = linalg.jordan_form(linalg.matrix(m))
        assert linalg.mat_mul(g, m) == linalg.mat_mul(j, g)
        # eigenvalue multiset on the diagonal is the planted one
        diag = sorted(j[i][i] for i in range(len(j)))
        planted = sorted(Fraction(lam) for lam, size in blocks for _ in range(size))
        assert diag == planted
        # block sizes per eigenvalue, largest first
        sizes = {}
        for lam, size in blocks:
            sizes.setdefault(Fraction(lam), []).append(size)
        for lam, ss in sizes.items():
            got = []
            run = 0
            for i in range(len(j)):
                if j[i][i] == lam:
                    run += 1
                    ends = i + 1 == len(j) or j[i][i + 1] == 0
                    if ends:
                        got.append(run)
                        run = 0
            assert sorted(got, reverse=True) == sorted(ss, reverse=True)


_EIGENVALUES = {
    "several": st.sampled_from([-2, -1, 0, 1, 3]),
    "nilpotent": st.just(0),
    "semisimple": st.sampled_from([2, Fraction(-1, 3)]),
    "denominators": st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]),
}


@st.composite
def _planted_jordan(draw):
    """(eigenvalue, size) blocks of total size at most 8: semisimple ones all of size 1."""
    kind = draw(st.sampled_from(sorted(_EIGENVALUES)))
    blocks, room = [], draw(st.integers(1, 8))
    while room:
        size = 1 if kind == "semisimple" else draw(st.integers(1, room))
        blocks.append((draw(_EIGENVALUES[kind]), size))
        room -= size
    return blocks, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(_planted_jordan())
def test_jordan_basis_equals_the_dense_power_reference(case):
    # kernels from reduced rows and chain tops by count give the reference's (J, p),
    # integer rows and denominators
    blocks, seed = case
    m = linalg.int_rows(_planted(Random(seed), blocks))
    assert linalg.jordan_basis(m) == reference_jordan_basis(m)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_jordan_basis_kernels_shrink_with_the_rank_of_the_power(monkeypatch, n):
    # on one nilpotent block of size n the k-th kernel is taken of rank N^(k-1) rows
    m = linalg.int_rows(_planted(Random(n), [(0, n)]))
    rows = []
    kernel = linalg._kernel

    def counting(a, cols):
        rows.append(len(a))
        return kernel(a, cols)

    monkeypatch.setattr(linalg, "_kernel", counting)
    j, p = linalg.jordan_basis(m)
    assert rows == [n - k + 1 for k in range(1, n + 1)]
    assert j == linalg.jordan_matrix([(0, n)])


@pytest.mark.parametrize(("blocks", "spans"), [
    ([(2, 1), (2, 1), (2, 1)], 0),          # every kernel vector starts a chain
    ([(0, 2), (0, 2)], 1),                  # tops at level 2 only; level 1 has none
    ([(1, 3), (1, 1), (Fraction(-1, 2), 2)], 3),    # levels 3 and 1 of 1; level 2 of -1/2
    ([(0, 3)], 1),                          # one chain: a span picks its top at level 3
])
def test_jordan_basis_builds_a_span_only_to_pick_some_tops(monkeypatch, blocks, spans):
    m = linalg.int_rows(_planted(Random(3), blocks))
    built = []
    init = linalg.SpanBasis.__init__

    def counting(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(linalg.SpanBasis, "__init__", counting)
    j, p = linalg.jordan_basis(m)
    assert len(built) == spans
    monkeypatch.undo()
    assert (j, p) == reference_jordan_basis(m)


def test_jordan_form_rejects_irrational():
    with pytest.raises(linalg.NonRationalSpectrum):
        linalg.jordan_form(linalg.matrix([[0, 2], [1, 0]]))


@st.composite
def _sum_terms(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    scalars = st.sampled_from([1, -1, 2, Fraction(3, 7), Fraction(-5, 2)])
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        inner = draw(st.integers(0, 5))
        a = linalg.matrix([[draw(_entries) for _ in range(inner)] for _ in range(rows)])
        b = linalg.matrix([[draw(_entries) for _ in range(cols)] for _ in range(inner)])
        terms.append((draw(scalars), a, b))
    if draw(st.booleans()):
        p = linalg.matrix([[draw(_entries) for _ in range(cols)] for _ in range(rows)])
        terms.append((draw(scalars), p, None))
    if terms and draw(st.booleans()):
        c, a, b = terms[0]
        terms.append((-c, a, b))            # cancels the first term exactly
    return rows, cols, terms


def _sum_case(rows, cols, *terms):
    return rows, cols, [(c, linalg.matrix(a), b and linalg.matrix(b)) for c, a, b in terms]


_ONE = [[1, 0], [0, 1]]
_A = [[Fraction(1, 2), 2], [3, Fraction(-4, 3)]]


@settings(max_examples=150, deadline=None)
@given(_sum_terms())
# corners of the closing pass: a zero sum over d == 1 and over d > 1, every entry a
# multiple of d (over d > 1 and for the c*a term alone), leading zero rows before the first
# row that brings the gcd to 1, and the c*a term alone
@example(_sum_case(2, 2, (1, [[1, 2], [3, 4]], _ONE), (-1, [[1, 2], [3, 4]], _ONE)))
@example(_sum_case(2, 2, (Fraction(1, 3), _A, _ONE), (Fraction(-1, 3), _A, _ONE)))
@example(_sum_case(1, 2, (Fraction(1, 2), [[0, 0]], None), (Fraction(1, 3), [[0, 0]], None)))
@example(_sum_case(2, 2, (Fraction(1, 2), [[2, 4], [6, 8]], _ONE)))
@example(_sum_case(2, 2, (Fraction(-5, 2), [[Fraction(2, 5), 0], [0, Fraction(4, 5)]], None)))
@example(_sum_case(3, 2, (Fraction(1, 7), [[0, 0], [0, 0], [Fraction(1, 3), 2]], _ONE)))
@example(_sum_case(3, 2, (Fraction(1, 2), [[0, 0], [0, 0], [1, 3]], None)))
@example(_sum_case(2, 3, (Fraction(3, 7), [[1, 0, Fraction(-1, 2)], [0, 0, 0]], None)))
def test_sum_of_products_matches_the_naive_product_and_mat_add(case):
    rows, cols, terms = case
    # the reference: textbook Fraction products, added entry by entry
    want = [[Fraction(0)] * cols for _ in range(rows)]
    for c, a, b in terms:
        term = a if b is None else naive_product(a, b, cols)
        want = [[x + c * y for x, y in zip(wr, tr)] for wr, tr in zip(want, term)]
    added = linalg.zeros(rows, cols)
    for c, a, b in terms:
        added = linalg.mat_add(added, linalg.mat_scale(c, a if b is None else
                                                       naive_product(a, b, cols)))
    assert added == want
    ints = [(c, linalg.int_rows(a), None if b is None else linalg.int_rows(b))
            for c, a, b in terms]
    before = repr(ints)
    got = linalg.sum_of_products(ints, rows, cols)
    assert repr(ints) == before
    assert (got is None) == linalg.is_zero_matrix(want)
    assert linalg.rational_matrix(got, rows, cols) == want
    if got is not None:
        m, d = got
        assert len(m) == rows and all(len(r) == cols for r in m) and d > 0
        assert math.gcd(d, *(x for row in m for x in row)) == 1


@st.composite
def _terms_with_scalars(draw):
    """n x n terms c*a*b, c*a and c*I, the c*I as (c, None, None); and, half the time,
    every term again negated with its c*I as a dense identity, so the sum is zero."""
    n = draw(st.integers(0, 5))
    scalars = st.sampled_from([1, -1, 2, Fraction(3, 7), Fraction(-5, 2)])
    square = st.lists(st.lists(_entries, min_size=n, max_size=n),
                      min_size=n, max_size=n).map(linalg.matrix)
    terms = [(draw(scalars), None, None)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["product", "single", "identity"]))
        terms.append((draw(scalars), None if kind == "identity" else draw(square),
                      draw(square) if kind == "product" else None))
    if draw(st.booleans()):
        terms += [(-c, linalg.identity(n) if a is None else a, b) for c, a, b in terms]
    return n, terms


@settings(max_examples=150, deadline=None)
@given(_terms_with_scalars())
@example((2, [(Fraction(1, 2), None, None), (Fraction(-1, 2), [[1, 0], [0, 1]], None)]))
@example((2, [(3, None, None), (-1, None, None), (-2, None, None)]))
@example((0, [(5, None, None)]))
def test_sum_of_products_reads_a_scalar_term_as_c_times_the_identity(case):
    n, terms = case
    want = linalg.zeros(n)
    for c, a, b in terms:
        term = linalg.identity(n) if a is None else a if b is None else naive_product(a, b, n)
        want = [[x + c * y for x, y in zip(wr, tr)] for wr, tr in zip(want, term)]
    ints = [(c, None if a is None else linalg.int_rows(a), None if b is None else
             linalg.int_rows(b)) for c, a, b in terms]
    got = linalg.sum_of_products(ints, n, n)
    assert (got is None) == linalg.is_zero_matrix(want)
    assert linalg.rational_matrix(got, n, n) == want
    dense = [(c, linalg.int_rows(linalg.identity(n)) if a is None else a, b) for c, a, b in ints]
    assert got == linalg.sum_of_products(dense, n, n)      # the same least denominator


def test_sum_of_products_refuses_a_scalar_term_on_a_non_square_output():
    with pytest.raises(ValueError, match="^a multiple of I needs a square output, not 2 x 3$"):
        linalg.sum_of_products([(1, None, None)], 2, 3)


def test_sum_of_products_keeps_empty_shapes():
    one = linalg.int_rows([[Fraction(1, 2), 3]])
    row_free, col_free = ([], 1), ([[], [], []], 1)
    assert linalg.sum_of_products([(1, row_free, one)], 0, 2) is None
    assert linalg.sum_of_products([(1, linalg.int_rows(linalg.identity(3)), col_free)],
                                  3, 0) is None
    assert linalg.sum_of_products([(1, col_free, ([], 1))], 3, 4) is None
    assert linalg.sum_of_products([], 2, 2) is None
    assert linalg.rational_matrix(None, 0, 2) == []
    assert linalg.rational_matrix(None, 3, 0) == [[], [], []]
    assert linalg.rational_matrix(None, 2, 3) == linalg.zeros(2, 3)


def test_sum_of_products_zero_sum_and_least_denominator():
    a = linalg.int_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    b = linalg.int_rows([[2, 1], [0, 3]])
    assert linalg.sum_of_products([(1, a, b), (-1, a, b)], 2, 2) is None
    assert linalg.sum_of_products([(Fraction(1, 2), b, None), (-1, b, None),
                                   (Fraction(1, 2), b, None)], 2, 2) is None
    assert linalg.sum_of_products([(6, a, b)], 2, 2) == ([[6, 3], [0, 6]], 1)
    assert linalg.sum_of_products([(Fraction(1, 4), b, None)], 2, 2) == ([[2, 1], [0, 3]], 4)


def test_int_rows_round_trip():
    m = [[Fraction(1, 2), Fraction(-2, 3)], [0, 5]]
    assert linalg.int_rows(m) == ([[3, -4], [0, 30]], 6)
    assert linalg.rational_matrix(linalg.int_rows(m), 2, 2) == m
    assert linalg.int_rows([]) == ([], 1)


@st.composite
def _char_poly_rows(draw):
    """Square integer rows of size 0-12: small random entries, zero, nilpotent (strictly
    upper triangular under a permutation), conjugated Jordan blocks or 100-digit entries."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["random", "zero", "nilpotent", "jordan", "huge"]))
    rng = Random(draw(st.integers(0, 2**32)))
    if kind == "jordan" and n:
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        return linalg.int_rows(_planted(rng, [(rng.choice([0, 2, -1]), k) for k in sizes]))[0]
    span = {"random": 9, "zero": 0, "nilpotent": 9, "huge": 10**100}.get(kind, 0)
    rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    if kind == "nilpotent":
        order = rng.sample(range(n), n)
        rows = [[rows[i][j] if order[i] < order[j] else 0 for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=120, deadline=None)
@given(_char_poly_rows(), st.sampled_from([2, 6, 10**30]))
def test_char_poly_equals_the_faddeev_leverrier_reference(rows, d):
    # Berkowitz on the integer rows gives the reference's coefficients, over d = 1 and d > 1
    for m in ((rows, 1), (rows, d)):
        assert linalg.char_poly_coeffs(m) == reference_char_poly(m)
    assert linalg.char_poly_coeffs(rows) == reference_char_poly(rows)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_planted_jordan(), st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))))
def test_rational_roots_of_the_integer_polynomial_equal_those_of_its_fractions(case):
    # rational_eigenvalues hands poly the integer polynomial d^n det(tI - m); its roots
    # are those of m's Fraction coefficients, on planted spectra and on small integer rows
    # (whose constant terms stay small enough for the divisor search)
    m = linalg.int_rows(_planted(Random(case[1]), case[0])) if type(case) is tuple \
        else (case, 6)
    seen = []
    roots = poly._rational_roots

    def recording(coeffs):
        seen.append(coeffs)
        return roots(coeffs)

    with mock.patch.object(poly, "_rational_roots", recording):
        try:
            linalg.rational_eigenvalues(m)
        except linalg.NonRationalSpectrum:
            pass
    [ints] = seen
    assert all(type(c) is int for c in ints)
    assert roots(ints) == roots(linalg.char_poly_coeffs(m))


def test_char_poly_makes_no_matrix_product(monkeypatch):
    # Berkowitz takes its own matrix-vector products, never the matrix product
    m = linalg.int_rows(_planted(Random(8), [(1, 3), (Fraction(-1, 2), 2), (2, 1)]))
    want = reference_char_poly(m)
    calls = []
    kernel = linalg.sum_of_products

    def counting(terms, rows, cols):
        calls.append(len(terms))
        return kernel(terms, rows, cols)

    monkeypatch.setattr(linalg, "sum_of_products", counting)
    assert linalg.char_poly_coeffs(m) == want
    assert linalg.rational_eigenvalues(m) == {Fraction(-1, 2): 2, Fraction(1): 3, Fraction(2): 1}
    assert calls == []


@pytest.mark.parametrize("rows", [[[1, 2], [2, 1]], [[2, 1, 0], [0, 2, 0], [0, 0, -1]]])
def test_rows_as_lists_tuples_and_int_rows_agree(rows):
    # a tuple of rows is a matrix, not an (rows, d) pair: only an int d makes an IntMat
    spellings = [rows, tuple(map(tuple, rows)), linalg.matrix(rows), (rows, 1),
                 ([[2 * x for x in row] for row in rows], 2)]
    for f in (linalg.char_poly_coeffs, linalg.rational_eigenvalues):
        assert len({repr(f(m)) for m in spellings}) == 1
    for f in (linalg.rank, linalg.inverse, nullspace, linalg.jordan_form):
        assert f(spellings[0]) == f(spellings[1]) == f(spellings[2])


def test_char_poly_reads_tuples_of_rows_as_matrices():
    assert linalg.char_poly_coeffs(((1, 2), (3, 4))) == [-2, -5, 1]
    assert linalg.char_poly_coeffs(((1, 0, 0), (0, 2, 0), (0, 0, 3))) == [-6, 11, -6, 1]
    assert linalg.rational_eigenvalues(((1, 2), (2, 1))) == {-1: 1, 3: 1}


@pytest.mark.parametrize("m", [([[1]], 2.0), ([[1]], 0), ([[1]], True), ([[Fraction(1, 2)]], 1),
                               ([[1.5]], 1), ([[True]], 1), ([[1, None]], 1)])
def test_int_rows_refuse_a_pair_the_constructors_refuse(m):
    # a pair (rows, d) is integer rows: ints over a nonzero int d, never a two-row matrix
    for f in (linalg.int_rows, linalg.char_poly_coeffs, linalg.rational_eigenvalues):
        with pytest.raises(ValueError, match="^a matrix wants integer rows as ints over a "
                                             "nonzero int denominator$"):
            f(m)


def test_int_rows_copy_a_pair_over_a_positive_denominator():
    rows = [[1, -2], [0, 3]]
    assert linalg.int_rows((rows, 1)) == (rows, 1) and linalg.int_rows((rows, 1))[0] is not rows
    assert linalg.int_rows((rows, -6)) == ([[-1, 2], [0, -3]], 6)
    assert linalg.char_poly_coeffs((rows, -6)) == linalg.char_poly_coeffs(
        [[Fraction(-1, 6), Fraction(1, 3)], [0, Fraction(-1, 2)]])
    assert linalg.int_rows([[Fraction(1, 2), 1]]) == ([[1, 2]], 2)
