"""Small exact matrix helpers for building inputs and oracles.

These are written here, not imported from the package, so that every
expected verdict the benchmark checks against is computed independently
of the code being measured.  Matrices are lists of rows of Fractions;
shapes are passed explicitly where a matrix may have no rows.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random


def zeros(r: int, c: int) -> list:
    return [[Fraction(0)] * c for _ in range(r)]


def ident(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a: list, b: list, r: int, k: int, c: int) -> list:
    """(r x k) @ (k x c); shapes explicit so empty factors stay well defined."""
    bt = [[b[i][j] for i in range(k)] for j in range(c)]
    return [[sum((x * y for x, y in zip(a[i], bt[j])), Fraction(0)) for j in range(c)]
            for i in range(r)]


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a: list) -> list:
    return [[c * x for x in row] for row in a]


def is_zero(a: list) -> bool:
    return all(x == 0 for row in a for x in row)


def poly_at(coeffs: list, m: list, d: int) -> list:
    """p(m) for a d x d matrix m, p's coefficients ascending (Horner)."""
    acc = zeros(d, d)
    for c in reversed(coeffs):
        acc = add(mul(acc, m, d, d, d), scale(c, ident(d)))
    return acc


def block_diag(blocks: list, sizes: list) -> list:
    n = sum(sizes)
    out = zeros(n, n)
    at = 0
    for blk, s in zip(blocks, sizes):
        for i in range(s):
            for j in range(s):
                out[at + i][at + j] = blk[i][j]
        at += s
    return out


def rank(a: list, cols: int) -> int:
    m = [list(row) for row in a]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


class Span:
    """Row-echelon basis of a growing set of vectors."""

    def __init__(self):
        self.rows = []                # (pivot column, row scaled to 1 there)

    def add(self, v: list) -> bool:
        """Insert v; True iff it enlarged the span."""
        w = list(v)
        for p, row in self.rows:
            if w[p] != 0:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        p = next((j for j, x in enumerate(w) if x != 0), None)
        if p is None:
            return False
        inv = 1 / w[p]
        self.rows.append((p, [x * inv for x in w]))
        return True


def inverse(a: list) -> list:
    n = len(a)
    m = [list(row) + e for row, e in zip(a, ident(n))]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def rand_frac(rng: Random, span: int = 3, denominators=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_matrix(rng: Random, r: int, c: int, span: int = 3) -> list:
    return [[rand_frac(rng, span) for _ in range(c)] for _ in range(r)]


def rand_int_matrix(rng: Random, r: int, c: int, span: int = 2) -> list:
    return [[Fraction(rng.randint(-span, span)) for _ in range(c)] for _ in range(r)]


def rand_unimodular(rng: Random, n: int) -> tuple[list, list]:
    """(g, g^-1) with g unit lower times unit upper triangular, small integers."""
    lower = [[Fraction(1) if i == j else (Fraction(rng.randint(-1, 1)) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else (Fraction(rng.randint(-1, 1)) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    g = mul(lower, upper, n, n, n)
    return g, inverse(g)


def rand_invertible(rng: Random, n: int) -> tuple[list, list]:
    """(g, g^-1) with rational entries: unit lower times an upper triangle."""
    lower = [[Fraction(1) if i == j else (rand_frac(rng, 2) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))) if i == j
              else (rand_frac(rng, 2) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    g = mul(lower, upper, n, n, n)
    return g, inverse(g)


def jordan_block(lam: Fraction, size: int) -> list:
    out = scale(lam, ident(size))
    for i in range(size - 1):
        out[i][i + 1] = Fraction(1)
    return out


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_json(m: list) -> list:
    return [[frac_str(x) for x in row] for row in m]
