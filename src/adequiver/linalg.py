"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Nothing in this module mutates
its arguments; every function hands back fresh lists.  Empty matrices
(zero rows or zero columns) are legal everywhere and behave like the
unique map between zero-dimensional spaces.

The exact kernels run on Python ints and build each output Fraction
once.  Products (`mat_mul`) clear denominators and multiply integer
numerators while skipping zero entries.  Elimination (`rref`, and
through it `rank`, `nullspace`, `inverse` and `solve`) is fraction-free
Gauss-Jordan on integer rows kept primitive.  The characteristic
polynomial runs Faddeev-LeVerrier on the integer matrix with one
common denominator.  Products inside these kernels share one integer
product loop.

Every exception that means "this computation gave up on this input",
here and in the modules above, derives from `ComputeFailure`; the
command line reports each as a failed verdict named after its class.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Mat = list
Vec = list

_ZERO = Fraction(0)


class ComputeFailure(Exception):
    """Base of the exceptions by which a computation gives up on a well-formed input."""


class NonRationalSpectrum(ComputeFailure):
    """A computation that needs an all-rational spectrum met a matrix without one."""


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def matrix(rows: Iterable[Iterable]) -> Mat:
    out = [[frac(x) for x in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return out


def shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def zeros(r: int, c: int | None = None) -> Mat:
    c = r if c is None else c
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_eq(a: Mat, b: Mat) -> bool:
    return shape(a) == shape(b) and all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(m: Mat) -> bool:
    return all(x == 0 for row in m for x in row)


def mat_add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} + {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} - {shape(b)}")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Mat) -> Mat:
    c = frac(c)
    return [[c * x for x in row] for row in a]


def mat_shift(a: Mat, c) -> Mat:
    """a + c*I for square a: a copy of a with c added on the diagonal only."""
    c = frac(c)
    out = [list(row) for row in a]
    for i, row in enumerate(out):
        row[i] += c
    return out


def _int_product(a: Mat, scales: list, b: list, cols: int) -> list:
    # Integer product: row i of a, scaled to integer numerators by
    # scales[i], times b given as sparse integer rows (lists of nonzero
    # (column, value) pairs).  Rows accumulate on plain ints in i-k-j
    # order, skipping zero entries of either operand.  Returns int rows.
    out = []
    for row, s in zip(a, scales):
        acc = [0] * cols
        for x, b_row in zip(row, b):
            if x and b_row:
                xn = x.numerator * (s // x.denominator)
                for j, y in b_row:
                    acc[j] += xn * y
        out.append(acc)
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    # Integer kernel: b is scaled to integer numerators over the lcm of its
    # denominators and each row of a over the lcm of that row's (per-row
    # scaling keeps the integers small); each output entry becomes one
    # Fraction at the end.
    # A row-free matrix has lost its column count; the product is [] either way.
    if not a:
        return []
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    db = lcm(*{y.denominator for row in b for y in row})
    b_rows = [[(j, y.numerator * (db // y.denominator)) for j, y in enumerate(row) if y]
              for row in b]
    das = [lcm(*{x.denominator for x in row}) for row in a]
    out = []
    for acc, da in zip(_int_product(a, das, b_rows, cb), das):
        d = da * db
        out.append([Fraction(v, d) if v else _ZERO for v in acc])
    return out


def mat_vec(m: Mat, v: Vec) -> Vec:
    r, c = shape(m)
    if c != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def transpose(m: Mat) -> Mat:
    r, c = shape(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def trace(m: Mat) -> Fraction:
    r, c = shape(m)
    if r != c:
        raise ValueError("trace of a non-square matrix")
    return sum((m[i][i] for i in range(r)), Fraction(0))


def block_diag(blocks: Sequence[Mat]) -> Mat:
    rows = sum(shape(b)[0] for b in blocks)
    cols = sum(shape(b)[1] for b in blocks)
    out = zeros(rows, cols)
    i = j = 0
    for b in blocks:
        r, c = shape(b)
        for di in range(r):
            for dj in range(c):
                out[i + di][j + dj] = b[di][dj]
        i += r
        j += c
    return out


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices.

    Fraction-free Gauss-Jordan: rows are scaled to integers, every row
    operation is an integer one, and each updated row is divided by its
    content, so rows stay primitive.  Pivot rows are divided by their
    pivot once at the end.
    """
    a = []
    for row in m:
        d = lcm(*{x.denominator for x in row})
        a.append([x.numerator * (d // x.denominator) for x in row])
    r, c = shape(a)
    pivots: list[int] = []
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        top = a[row]
        pivot = top[col]
        for i in range(r):
            f = a[i][col]
            if i != row and f:
                g = gcd(pivot, f)
                p, f = pivot // g, f // g
                new = [p * x - f * y for x, y in zip(a[i], top)]
                g = gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == r:
            break
    out = []
    for i, ints in enumerate(a):
        p = ints[pivots[i]] if i < len(pivots) else 1
        out.append([Fraction(x, p) if x else _ZERO for x in ints])
    return out, pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right kernel, one vector per free column."""
    r, c = shape(m)
    red, pivots = rref(m)
    free = [j for j in range(c) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * c
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def det(m: Mat) -> Fraction:
    a = [list(row) for row in m]
    n, c = shape(a)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return d


def inverse(m: Mat) -> Mat:
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None when inconsistent."""
    r, c = shape(a)
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    if c in pivots:
        return None
    x = [Fraction(0)] * c
    for i, p in enumerate(pivots):
        x[p] = red[i][c]
    return x


class SpanBasis:
    """Incrementally maintained span of rational vectors, kept in reduced echelon form."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[Vec] = []   # reduced, pivot columns strictly increasing
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> Vec:
        w = [frac(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("vector has the wrong length")
        for row, p in zip(self.rows, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def add(self, v: Sequence) -> bool:
        """Insert v; True iff it enlarged the span."""
        w = self.reduce(v)
        p = next((j for j, x in enumerate(w) if x != 0), None)
        if p is None:
            return False
        inv = Fraction(1) / w[p]
        w = [x * inv for x in w]
        for i in range(len(self.rows)):
            f = self.rows[i][p]
            if f != 0:
                self.rows[i] = [x - f * y for x, y in zip(self.rows[i], w)]
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, w)
        self.pivots.insert(at, p)
        return True


def char_poly_coeffs(m: Mat) -> list[Fraction]:
    """Monic characteristic polynomial, coefficients ascending (Faddeev-LeVerrier).

    Runs on the integer matrix A = d*m, d the lcm of all denominators:
    A's coefficients c_k are integers, each found by an exact division
    by k, and m's are c_k / d^(n-k).
    """
    n, c = shape(m)
    if n != c:
        raise ValueError("characteristic polynomial of a non-square matrix")
    d = lcm(*{x.denominator for row in m for x in row})
    scales = [d] * n            # every row of m over d: the integer matrix A
    cs = [1]                    # descending: leading first
    mk = [[(i, 1)] for i in range(n)]
    for k in range(1, n + 1):
        am = _int_product(m, scales, mk, n)
        ck = -sum(am[i][i] for i in range(n)) // k
        cs.append(ck)
        for i in range(n):
            am[i][i] += ck
        mk = [[(j, y) for j, y in enumerate(row) if y] for row in am]
    return [Fraction(ck, d ** k) for k, ck in enumerate(cs)][::-1]


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (t - root); the caller guarantees root is exact
    n = len(coeffs) - 1
    q = [Fraction(0)] * n
    q[n - 1] = coeffs[n]
    for i in range(n - 1, 0, -1):
        q[i - 1] = coeffs[i] + root * q[i]
    return q


def rational_eigenvalues(m: Mat) -> dict[Fraction, int]:
    """Eigenvalues with algebraic multiplicity; error unless the spectrum is rational."""
    n = shape(m)[0]
    coeffs = char_poly_coeffs(m)
    mult_zero = next((i for i, c in enumerate(coeffs) if c != 0), n)
    eig: dict[Fraction, int] = {}
    if mult_zero:
        eig[Fraction(0)] = mult_zero
        coeffs = coeffs[mult_zero:]
    # clear denominators to list candidate roots p/q
    denom = lcm(*[c.denominator for c in coeffs]) if len(coeffs) > 1 else 1
    ints = [int(c * denom) for c in coeffs]
    lead, tail = ints[-1], ints[0]
    if len(coeffs) > 1 and tail != 0:
        candidates = set()
        for p in _int_divisors(tail):
            for q in _int_divisors(lead):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        work = list(coeffs)
        for r in sorted(candidates):
            while len(work) > 1 and poly_eval(work, r) == 0:
                eig[r] = eig.get(r, 0) + 1
                work = _deflate(work, r)
    if sum(eig.values()) != n:
        raise NonRationalSpectrum(
            f"only {sum(eig.values())} of {n} eigenvalues are rational"
        )
    return eig


def minimal_poly_degree(m: Mat) -> int:
    """Degree of the minimal polynomial (smallest dependent power)."""
    n = shape(m)[0]
    span = SpanBasis(n * n)
    power = identity(n)
    k = 0
    while span.add([x for row in power for x in row]):
        power = mat_mul(m, power)
        k += 1
    return k


def jordan_form(m: Mat) -> tuple[Mat, Mat]:
    """Jordan normal form over the rationals.

    Returns (J, g) with g m g^{-1} == J exactly; eigenvalues ascending,
    blocks per eigenvalue nonincreasing.  Raises NonRationalSpectrum when
    the spectrum is not rational.
    """
    n = shape(m)[0]
    eig = rational_eigenvalues(m)
    chains: list[tuple[Fraction, list[Vec]]] = []
    for lam in sorted(eig):
        nmat = mat_shift(m, -lam)
        kernels: list[list[Vec]] = [[]]
        power = identity(n)
        while len(kernels[-1]) < eig[lam]:
            power = mat_mul(nmat, power)
            kernels.append(nullspace(power))
        kmax = len(kernels) - 1
        tops_above: list[Vec] = []
        lam_chains: list[tuple[int, Vec]] = []
        for level in range(kmax, 0, -1):
            carried = [mat_vec(nmat, v) for v in tops_above]
            span = SpanBasis(n)
            for v in kernels[level - 1]:
                span.add(v)
            for v in carried:
                span.add(v)
            new_tops = [v for v in kernels[level] if span.add(v)]
            for v in new_tops:
                lam_chains.append((level, v))
            tops_above = carried + new_tops
        lam_chains.sort(key=lambda t: -t[0])
        for length, top in lam_chains:
            chain = [top]
            for _ in range(length - 1):
                chain.append(mat_vec(nmat, chain[-1]))
            chains.append((lam, list(reversed(chain))))  # bottom of chain first
    cols: list[Vec] = []
    jblocks: list[Mat] = []
    for lam, chain in chains:
        cols.extend(chain)
        size = len(chain)
        block = mat_shift(zeros(size), lam)
        for i in range(size - 1):
            block[i][i + 1] = Fraction(1)
        jblocks.append(block)
    p = transpose(cols) if cols else zeros(n, 0)  # columns are the chain vectors
    j = block_diag(jblocks) if jblocks else zeros(0, 0)
    if not mat_eq(mat_mul(m, p), mat_mul(p, j)):
        raise AssertionError("jordan basis failed verification")
    g = inverse(p)
    return j, g
