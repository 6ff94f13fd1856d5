"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Nothing in this module mutates
its arguments; every function hands back fresh lists.  Empty matrices
(zero rows or zero columns) are legal everywhere and behave like the
unique map between zero-dimensional spaces.  Every scalar comes in through
`frac` (rationals: Fractions, ints, and strings only as `io.frac_to_str`
prints them) or `integer` (counts: ints only, never truncated).

The exact kernels run on Python ints and build each output Fraction
once.  An `IntMat` is integer rows (lists) over their least positive
denominator, so `==` on it is matrix equality (`rational_matrix` reads
Fractions back); it stores representations and point data (their
`arrows`, `loops` and `framing`) and the nonscalar `monad` blocks.  Every
matrix, from a file or from a caller of the Fraction API, enters through
`int_rows` alone, which names the matrix it refuses, ragged ones
included.  There is one integer product, `sum_of_products`: the caller
gives the output shape, every term c*a*b, c*a or c*I accumulates in one
integer pass, and the sum comes back over its least denominator (a
row-by-row gcd, stopped at 1), or as None when zero.  `mat_mul` is its
Fraction front; the `monad` blocks, the `adhm` residuals, the round trip
and the chain steps of `jordan_basis` run on it.  The characteristic
polynomial is one integer polynomial, d^n det(t - m) for m = a / d, by
division-free Berkowitz on the integer rows (`_char_poly_ints`), and
`poly` finds the spectrum on it.  There is one eliminator, `_insert`: it
reduces an integer row into primitive rows in reduced echelon form, one
fraction-free row step per pivot, each divided by its content.
`_rref_ints` (under `rank`, `inverse_ints` and `_kernel`) inserts the
rows of a matrix, and `SpanBasis` each new vector.

Every exception that means "this computation gave up on this input",
here and in the modules above, derives from `ComputeFailure`; the
command line reports each as a failed verdict named after its class.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Mat = list
Vec = list
IntMat = tuple      # (rows, d): the matrix rows / d, rows lists of ints, d > 0, gcd(d, rows) 1

_ZERO = Fraction(0)


class ComputeFailure(Exception):
    """Base of the exceptions by which a computation gives up on a well-formed input."""


class NonRationalSpectrum(ComputeFailure):
    """A computation that needs an all-rational spectrum met a matrix without one."""


def frac(x) -> Fraction:
    """x as a Fraction, the one reader of rationals: a Fraction, an int but not a bool, or a
    str only in the spelling `io.frac_to_str` prints ("-3", "1/2"; not "0.5", "+3", "2/4").
    TypeError on any other kind of x, ValueError on any other str, naming x."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError(f"cannot coerce {x!r} to an exact rational")
    try:
        y = Fraction(x)
    except (ZeroDivisionError, ValueError) as e:     # only a str reaches here
        why = "zero denominator" if isinstance(e, ZeroDivisionError) else "not a number"
        raise ValueError(f"bad rational {x!r}: {why}") from None
    if isinstance(x, str) and str(y) != x:     # str(y) is what `io.frac_to_str` prints
        raise ValueError(f"bad rational {x!r}: write it {str(y)!r}")
    return y


def integer(x, name: str, least: int | None = 0) -> int:
    """x if it is an int but not a bool, and at least least unless that is None: the one
    reader of counts, which truncates nothing.  ValueError naming name and x otherwise."""
    if type(x) is int and (least is None or x >= least):
        return x
    wanted = "an integer" if least is None else f"an integer >= {least}"
    raise ValueError(f"{name} must be {wanted}, got {x!r}")


def matrix(rows: Sequence[Sequence], name: str = "a matrix") -> Mat:
    return rational_matrix(int_rows(rows, name))


def shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def zeros(r: int, c: int | None = None) -> Mat:
    c = r if c is None else c
    return [[_ZERO] * c for _ in range(r)]


def identity(n: int) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_eq(a: Mat, b: Mat) -> bool:
    return int_rows(a, "the left operand") == int_rows(b, "the right operand")


def is_zero_matrix(m: Mat) -> bool:
    return not any(map(any, int_rows(m, "the matrix")[0]))


def mat_add(a: Mat, b: Mat) -> Mat:
    a, b = matrix(a, "the left operand"), matrix(b, "the right operand")
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} + {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    a, b = matrix(a, "the left operand"), matrix(b, "the right operand")
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} - {shape(b)}")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Mat) -> Mat:
    c, a = frac(c), matrix(a, "the matrix")
    return [[c * x for x in row] for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b as Fractions, one `sum_of_products` pass; [] when a has no rows."""
    a, b = int_rows(a, "the left factor"), int_rows(b, "the right factor")
    (ra, ca), (rb, cb) = shape(a[0]), shape(b[0])
    if not ra:
        return []
    if ca != rb:
        raise ValueError(f"shape mismatch {(ra, ca)} @ {(rb, cb)}")
    return rational_matrix(sum_of_products([(1, a, b)], ra, cb), ra, cb)


def int_rows(m, name: str = "a matrix", shape: tuple[int, int] | None = None) -> IntMat:
    """m as an `IntMat`, the one door for matrix data: rows of entries as `frac` takes them,
    a pair (rows, d) of int rows over an int d != 0, or None for the zeros of shape; each
    comes back as new list rows over its least positive denominator.  Errors name name:
    TypeError on data that are not rows of entries or on an entry `frac` refuses by type,
    ValueError on any other bad entry, ragged rows or a shape other than shape."""
    if m is None and shape:
        return [[0] * shape[1] for _ in range(shape[0])], 1
    pair = isinstance(m, tuple) and len(m) == 2 and not isinstance(m[1], (list, tuple))
    rows, d = m if pair else (m, 1)
    if type(rows) not in (list, tuple) or not {type(r) for r in rows} <= {list, tuple}:
        raise TypeError(f"{name} wants a list of rows")
    if pair:
        if type(d) is not int or not d or not {type(x) for row in rows for x in row} <= {int}:
            raise ValueError(f"{name} wants integer rows as ints over a nonzero int denominator")
        g = gcd(d, *(x for row in rows for x in row)) * (-1 if d < 0 else 1)
        m = [[x // g for x in row] for row in rows], d // g
    else:
        if not {type(x) for row in rows for x in row} <= {int, Fraction}:
            try:
                rows = [[frac(x) for x in row] for row in rows]
            except (TypeError, ValueError) as e:
                raise type(e)(f"{name}: {e}") from None
        d = lcm(*{x.denominator for row in rows for x in row})
        m = ([[x.numerator for x in row] for row in rows] if d == 1 else
             [[x.numerator * (d // x.denominator) for x in row] for row in rows]), d
    widths = {len(row) for row in m[0]}
    if shape and (len(m[0]) != shape[0] or widths - {shape[1]}) or len(widths) > 1:
        raise ValueError(f"{name} wants shape {shape}" if shape else f"{name} has ragged rows")
    return m


def rational_matrix(m: IntMat | None, rows: int = 0, cols: int = 0) -> Mat:
    """The Fraction matrix of m; None, the zero of `sum_of_products`, reads as rows x cols zeros."""
    if m is None:
        return zeros(rows, cols)
    ints, d = m
    return [[Fraction(x, d) if x else _ZERO for x in row] for row in ints]


def _transposed(m: IntMat) -> IntMat:
    """m^T, rows as tuples: for vectors v as the rows of V, the rows of V m^T are the m v."""
    return list(zip(*m[0])), m[1]


def sum_of_products(terms: Iterable[tuple], rows: int, cols: int) -> IntMat | None:
    """The rows x cols sum of the terms, in one integer pass: (c, a, b) is c*a*b for integer
    matrices (`IntMat`) a and b, (c, a, None) is c*a, and (c, None, None) is c*I, n additions
    down the diagonal of a square output (ValueError if rows != cols); c an int or a Fraction.

    Every term is scaled to the lcm of the denominators and accumulates on one grid of ints,
    skipping zero entries of a; rows of b are added whole, with no test per entry.  The sum
    comes back over its least denominator, or as None when zero, so no zero is ever built.
    """
    terms = list(terms)
    d = lcm(*[c.denominator * (a[1] if a else 1) * (b[1] if b else 1) for c, a, b in terms])
    acc = [[0] * cols for _ in range(rows)]
    for c, a, b in terms:
        if a is None:
            if rows != cols:
                raise ValueError(f"a multiple of I needs a square output, not {rows} x {cols}")
            for i, out in enumerate(acc):
                out[i] += c.numerator * (d // c.denominator)
            continue
        a, da = a
        if b is None:
            s = c.numerator * (d // (c.denominator * da))
            for out, row in zip(acc, a):
                for j, x in enumerate(row):
                    if x:
                        out[j] += s * x
            continue
        b, db = b
        s = c.numerator * (d // (c.denominator * da * db))
        for out, row in zip(acc, a):
            for x, b_row in zip(row, b):
                if x:
                    x *= s
                    for j, y in enumerate(b_row):
                        out[j] += x * y
    g = d
    for row in acc if d > 1 else ():        # the gcd with d, row by row, until it is 1
        if (g := gcd(g, *row)) == 1:
            return acc, d
    if g == d and not any(map(any, acc)):    # a zero sum leaves the gcd at d
        return None
    return ([[x // g for x in row] for row in acc] if g > 1 else acc), d // g


def trace(m: Mat) -> Fraction:
    a, d = int_rows(m)
    if any(len(row) != len(a) for row in a):
        raise ValueError("trace of a non-square matrix")
    return Fraction(sum(row[i] for i, row in enumerate(a)), d)


def block_diag(blocks: Sequence[Mat]) -> Mat:
    blocks = [matrix(b, f"block {k}") for k, b in enumerate(blocks)]
    cols = [shape(b)[1] for b in blocks]
    return [[_ZERO] * sum(cols[:k]) + row + [_ZERO] * sum(cols[k + 1:])
            for k, b in enumerate(blocks) for row in b]


def _step(x: list, y: list, p: int) -> list:
    # x with column p cleared by y, the one fraction-free row step: y[p] x - x[p] y over
    # their gcd, divided by its content, so a primitive row comes back
    g = gcd(y[p], x[p])
    a, b = y[p] // g, x[p] // g
    new = [a * s - b * t for s, t in zip(x, y)]
    g = gcd(*new)
    return [s // g for s in new] if g > 1 else new


def _insert(rows: list, pivots: list[int], v: list) -> bool:
    """Reduce the int row v by rows, primitive and in reduced echelon form at the increasing
    pivots; if anything is left, insert it at its first nonzero column, cleared from the
    other rows, and say True.  Rows are rebound, never changed in place."""
    for row, p in zip(rows, pivots):
        if v[p]:
            v = _step(v, row, p)
    p = next((j for j, x in enumerate(v) if x), None)
    if p is None:
        return False
    g = gcd(*v)
    v = [x // g for x in v] if g > 1 else v
    for i, row in enumerate(rows):
        if row[p]:
            rows[i] = _step(row, v, p)
    at = bisect(pivots, p)
    rows.insert(at, v)
    pivots.insert(at, p)
    return True


def _rref_ints(a: list) -> tuple[list, list[int]]:
    """The nonzero rows of the fraction-free reduced echelon form of the integer rows a, one
    `_insert` each, and their pivot columns: row i is primitive, its pivot times row i of
    the reduced echelon form.  a is not changed."""
    rows: list = []
    pivots: list[int] = []
    for v in a:
        _insert(rows, pivots, v)
    return rows, pivots


def rank(m: Mat) -> int:
    return len(_rref_ints(int_rows(m)[0])[1])


def _reduced(v: list, d: int) -> tuple[list, int]:
    # the vector v / d with the common factor of v and d taken out
    g = gcd(d, *v)
    return ([x // g for x in v], d // g) if g > 1 else (v, d)


def _kernel(a: list, cols: int) -> tuple[list[tuple[list, int]], list]:
    """Right kernel of integer rows, one (integers, denominator) vector per free
    column f: 1 at f, 0 at the other free columns; and the nonzero reduced rows,
    a basis of the row space."""
    red, pivots = _rref_ints(a)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        e = lcm(*(row[p] for row, p in zip(red, pivots) if row[f]))
        v = [0] * cols
        v[f] = e
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (e // row[p])
        basis.append(_reduced(v, e))
    return basis, red


def inverse_ints(m: IntMat) -> IntMat:
    """m^-1 on integer rows: for m = a / d, [a | d I] reduces to [I | m^-1] fraction-free
    (`_rref_ints`), and the inverse comes back over its least denominator."""
    a, d = m
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    red, pivots = _rref_ints([row + [d if j == i else 0 for j in range(n)]
                              for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    e = lcm(*(row[i] for i, row in enumerate(red)))      # row i is its pivot times [e_i | ...]
    out = [[x * (e // row[i]) for x in row[n:]] for i, row in enumerate(red)]
    g = gcd(e, *(x for row in out for x in row))
    return [[x // g for x in row] for row in out], e // g


def inverse(m: Mat) -> Mat:
    """m^-1 as Fractions (`inverse_ints`); ValueError when m is singular or not square."""
    return rational_matrix(inverse_ints(int_rows(m)))


class SpanBasis:
    """Incrementally maintained span of rational vectors: the rows and pivots of
    `_rref_ints`, grown one `_insert` per new vector."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence) -> bool:
        """Insert v; True iff it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector has the wrong length")
        d = lcm(*{x.denominator for x in v})
        return _insert(self.rows, self.pivots, [x.numerator * (d // x.denominator) for x in v])


def _char_poly_ints(m: Mat | IntMat) -> list[int]:
    """The integer polynomial d^n det(t - m) = det(d t - a), coefficients ascending, for
    m = a / d of size n (Berkowitz).

    m is Fraction rows or an `IntMat`, as `int_rows` reads them.  With
    A_r the leading r x r block of a and a_rr, R, C the rest of A_(r+1)'s
    last row and column, det(tI - A_(r+1)) is the Toeplitz column 1, -a_rr,
    -R C, -R A_r C, ..., -R A_r^(r-1) C convolved with det(tI - A_r): r - 1
    products of A_r with a vector, and no division.
    """
    a, d = int_rows(m)
    if any(len(row) != len(a) for row in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    p = [1]
    for r, row in enumerate(a):
        col, toeplitz = [a[i][r] for i in range(r)], [1, -row[r]]
        for j in range(r):
            if j:       # zip and map stop at r, so a[i] reads as row i of A_r
                col = [sum(map(mul, a[i], col)) for i in range(r)]
            toeplitz.append(-sum(map(mul, row, col)))
        p = [sum(map(mul, toeplitz[k::-1], p)) for k in range(r + 2)]
    return [c * d ** k for k, c in enumerate(reversed(p))]


def char_poly_coeffs(m: Mat | IntMat) -> list[Fraction]:
    """Monic characteristic polynomial det(t - m), coefficients ascending (Berkowitz):
    the integer polynomial of `_char_poly_ints` over its leading coefficient d^n."""
    f = _char_poly_ints(m)
    return [Fraction(c, f[-1]) for c in f]


def rational_eigenvalues(m: Mat | IntMat) -> dict[Fraction, int]:
    """Eigenvalues with algebraic multiplicity, ascending; error unless the spectrum is
    rational.  m as in `char_poly_coeffs`; `poly._rational_roots` finds them on the
    integer polynomial of `_char_poly_ints`."""
    from .poly import _rational_roots    # only the spectra need polynomial arithmetic
    f = _char_poly_ints(m)
    eig, n = _rational_roots(f), len(f) - 1
    if sum(eig.values()) != n:
        raise NonRationalSpectrum(f"only {sum(eig.values())} of {n} eigenvalues are rational")
    return eig


def jordan_matrix(blocks: Iterable[tuple]) -> IntMat:
    """Block diagonal Jordan matrix of (eigenvalue, size) blocks in order, as integer
    rows over the lcm of the eigenvalue denominators; TypeError on a non-rational one."""
    diag = [(frac(lam), k) for lam, size in blocks for k in range(size)]
    d = lcm(*(lam.denominator for lam, _ in diag))
    rows = [[0] * len(diag) for _ in diag]
    for i, (lam, k) in enumerate(diag):
        rows[i][i] = lam.numerator * (d // lam.denominator)
        if k:                       # not the first of its block
            rows[i - 1][i] = d
    return rows, d


def jordan_basis(m: IntMat) -> tuple[IntMat, IntMat]:
    """Jordan normal form over the rationals and a basis of Jordan chains.

    m, J and p are integer rows over a denominator (`IntMat`), with
    m p == p J exactly, the columns of p the chains bottom first;
    eigenvalues ascending, blocks per eigenvalue nonincreasing.  For
    m = a/d and an eigenvalue s/q, N = q*a - s*d*I is m - s/q times q*d;
    ker N^(k+1) is ker R N, R the nonzero reduced rows of N^k, so no power
    is formed.  Level l starts dim K_l - dim K_(l-1) - (chains so far)
    chains, picked by a span unless that is 0 or all of K_l.  The check
    reads p J off J's two diagonals.  Raises NonRationalSpectrum when the
    spectrum is not rational.
    """
    a, d = m
    n = len(a)
    eig = rational_eigenvalues(m)
    blocks: list[tuple[Fraction, int]] = []
    cols: list[tuple[list, int]] = []        # columns of p, as (integers, denominator)
    for lam in sorted(eig):
        q, s = lam.denominator, lam.numerator * d
        nmat = [[q * x - (s if j == i else 0) for j, x in enumerate(row)]
                for i, row in enumerate(a)], 1
        kernel, red = _kernel(nmat[0], n)
        kernels = [[], kernel]
        while len(kernels[-1]) < eig[lam]:         # a zero power has the full kernel
            power = sum_of_products([(1, (red, 1), nmat)], len(red), n)
            kernel, red = _kernel(power[0] if power else [[0] * n for _ in red], n)
            kernels.append(kernel)
        nmat_t = _transposed(nmat)
        # top down: every chain so far steps one level lower, then kernel
        # vectors independent of the level below and of those steps start chains
        lam_chains: list[list[tuple[list, int]]] = []    # each chain top first
        for level in range(len(kernels) - 1, 0, -1):
            for chain in lam_chains:    # (m - lam) v / e is the row v nmat^T / (e q d), never 0
                v, e = chain[-1]
                w, f = sum_of_products([(1, ([v], e * q * d), nmat_t)], 1, n)
                chain.append((w[0], f))
            tops = len(kernels[level]) - len(kernels[level - 1]) - len(lam_chains)
            if tops == len(kernels[level]):
                lam_chains += ([v] for v in kernels[level])
            elif tops:
                span = SpanBasis(n)
                for v, _ in kernels[level - 1] + [chain[-1] for chain in lam_chains]:
                    span.add(v)
                for v in kernels[level]:
                    if span.add(v[0]):
                        lam_chains.append([v])
                        tops -= 1
                        if not tops:
                            break
        for chain in lam_chains:
            blocks.append((lam, len(chain)))
            cols += reversed(chain)             # bottom of chain first
    e = lcm(*(e for _, e in cols))
    p = [[v[i] * (e // ev) for v, ev in cols] for i in range(n)], e
    j, dj = jordan_matrix(blocks)
    pj = [[x * j[c][c] + (row[c - 1] * j[c - 1][c] if c else 0) for c, x in enumerate(row)]
          for row in p[0]], e * dj                     # column c: lam_c p_c (+ p_(c-1) in a block)
    if sum_of_products([(1, m, p), (-1, pj, None)], n, n) is not None:
        raise AssertionError("jordan basis failed verification")
    return (j, dj), p


def jordan_form(m: Mat) -> tuple[Mat, Mat]:
    """(J, g) with g m g^{-1} == J exactly: `jordan_basis` with g the inverse of p."""
    j, p = jordan_basis(int_rows(m))
    return rational_matrix(j), rational_matrix(inverse_ints(p))
