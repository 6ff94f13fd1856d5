"""Shared builders for the test suite.

Everything random is driven by an explicit random.Random instance so
tests stay reproducible.  The matrix oracles here (sympy nullspace,
the textbook product, hand-rolled block formulas) are deliberately
independent of the package internals they test against.  The
exceptions run on the package's own kernels: `rref` and `nullspace`,
Fraction fronts of the elimination in `linalg` that no package code
calls, kept to pin it; `reference_jordan_basis`, the dense-power Jordan
chain construction, kept to pin the exact integer rows that
`linalg.jordan_basis` returns; and `reference_char_poly`,
Faddeev-LeVerrier, kept to pin `linalg.char_poly_coeffs`.
"""

import math
from fractions import Fraction
from random import Random

import sympy

from adequiver import linalg
from adequiver.adhm import N1Representation
from adequiver.deformation import Polynomial, complete_affine_theta
from adequiver.dynkin import DynkinType, highest_root
from adequiver.quiver import build_n1_quiver


def rand_frac(rng: Random, span: int = 4, denominators=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_matrix(rng: Random, rows: int, cols: int, span: int = 4) -> list:
    return [[rand_frac(rng, span) for _ in range(cols)] for _ in range(rows)]


def rand_invertible(rng: Random, n: int, span: int = 3) -> list:
    """Unit lower times unit upper triangular with a diagonal twist: always invertible."""
    lower = [[Fraction(1) if i == j else (rand_frac(rng, span) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]) if i == j
              else (rand_frac(rng, span) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def worked_cycle_example() -> tuple[N1Representation, "DeformationParam"]:
    """The dimension-one cyclic rank-2 fixture with framing at node 0.

    All node and edge defects vanish and the framing generates; node
    polynomials are (1 - 2t, t, t - 1).
    """
    t = DynkinType.parse("A2")
    theta = complete_affine_theta(
        t, {1: Polynomial.of([0, 1]), 2: Polynomial.of([-1, 1])}
    )
    rep = N1Representation(
        type=t,
        dims={0: 1, 1: 1, 2: 1},
        B={(0, 1, 0): [[1]], (2, 0, 0): [[1]], (0, 2, 0): [[1]]},
        framing_ranks={0: 1},
        I={0: [[1]]},
    )
    return rep, theta


def finite_pair_example() -> tuple[N1Representation, "DeformationParam"]:
    """Finite rank-2 fixture supported at the zero of the summed polynomial.

    Loops are 1/2 at both nodes; only theta_1 + theta_2 = 2t - 1
    vanishes there, so the support check must pick the composite root.
    """
    t = DynkinType.parse("A2")
    theta = complete_affine_theta(
        t, {1: Polynomial.of([0, 1]), 2: Polynomial.of([-1, 1])}
    )
    rep = N1Representation(
        type=t,
        dims={1: 1, 2: 1},
        B={(1, 2, 0): [[1]], (2, 1, 0): [[Fraction(-1, 2)]]},
        Psi={1: [[Fraction(1, 2)]], 2: [[Fraction(1, 2)]]},
        affine=False,
    )
    return rep, theta


def naive_product(a: list, b: list, cols: int | None = None) -> list:
    """a b by the textbook triple loop on Fractions; cols (b's width by default) keeps
    the shape of a product whose inner dimension is 0."""
    cols = (len(b[0]) if b else 0) if cols is None else cols
    return [[sum((Fraction(row[k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0))
             for j in range(cols)] for row in a]


def rref(m: list) -> tuple[list, list[int]]:
    """Reduced row echelon form as Fractions and the pivot columns, from `linalg._rref_ints`
    on the matrix as `linalg.int_rows` reads it, padded with its zero rows."""
    a = linalg.int_rows(m)[0]
    rows, pivots = linalg._rref_ints(a)
    out = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
    return out + [[Fraction(0)] * len(row) for row in a[len(rows):]], pivots


def nullspace(m: list) -> list:
    """Basis of the right kernel as Fractions, one vector per free column (`linalg._kernel`)."""
    a = linalg.int_rows(m)[0]
    return [[Fraction(x, e) for x in v] for v, e in linalg._kernel(a, len(a[0]) if a else 0)[0]]


def sympy_nullspace(rows: list) -> list:
    """Rational kernel basis via sympy, returned as lists of Fractions."""
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return [
        [Fraction(int(sympy.fraction(v)[0]), int(sympy.fraction(v)[1])) for v in vec]
        for vec in m.nullspace()
    ]


def sympy_intertwiners(psi_tgt: list, psi_src: list) -> list:
    """Basis of matrices B with psi_tgt @ B = B @ psi_src, via the stacked kernel.

    Returns each basis element as a (rows x cols) list of Fractions,
    rows = size of psi_tgt, cols = size of psi_src.
    """
    rows, cols = len(psi_tgt), len(psi_src)
    tgt = sympy.Matrix([[sympy.Rational(x) for x in r] for r in psi_tgt])
    src = sympy.Matrix([[sympy.Rational(x) for x in r] for r in psi_src])
    op = sympy.kronecker_product(sympy.eye(cols), tgt) \
        - sympy.kronecker_product(src.T, sympy.eye(rows))
    basis = []
    for vec in op.nullspace():
        flat = [Fraction(int(sympy.fraction(v)[0]), int(sympy.fraction(v)[1])) for v in vec]
        # vec stacks B column by column
        basis.append([[flat[c * rows + r] for c in range(cols)] for r in range(rows)])
    return basis


def mat_from_sympy(m) -> list:
    return [
        [Fraction(int(sympy.fraction(m[i, j])[0]), int(sympy.fraction(m[i, j])[1]))
         for j in range(m.cols)]
        for i in range(m.rows)
    ]


def reference_jordan_basis(m: tuple) -> tuple:
    """(J, p) of `linalg.jordan_basis` the direct way: the kernel (`nullspace`)
    of every dense power of N = m - lambda, a span of the level below and the chain
    steps at every level, and m p == p J checked with a dense product p J."""
    a, d = m
    n = len(a)

    def kernel(rows):       # `nullspace`, each vector as (integers, least denominator)
        return [(v[0], e) for v, e in map(linalg.int_rows, ([v] for v in nullspace(rows)))]

    eig = linalg.rational_eigenvalues(m)
    blocks, cols = [], []
    for lam in sorted(eig):
        q, s = lam.denominator, lam.numerator * d
        nmat = [[q * x - (s if j == i else 0) for j, x in enumerate(row)]
                for i, row in enumerate(a)], 1
        power, kernels = nmat, [[], kernel(nmat[0])]
        while len(kernels[-1]) < eig[lam]:
            power = linalg.sum_of_products([(1, nmat, power)], n, n)
            kernels.append(kernel(power[0] if power else [[0] * n] * n))
        nmat_t = linalg._transposed(nmat)
        chains = []                             # each chain top first
        for level in range(len(kernels) - 1, 0, -1):
            for chain in chains:
                v, e = chain[-1]
                w, f = linalg.sum_of_products([(1, ([v], e * q * d), nmat_t)], 1, n)
                chain.append((w[0], f))
            span = linalg.SpanBasis(n)
            for v, _ in kernels[level - 1] + [chain[-1] for chain in chains]:
                span.add(v)
            chains += [[v] for v in kernels[level] if span.add(v[0])]
        for chain in chains:
            blocks.append((lam, len(chain)))
            cols += reversed(chain)
    e = math.lcm(*(e for _, e in cols))
    p = [[v[i] * (e // ev) for v, ev in cols] for i in range(n)], e
    j = linalg.jordan_matrix(blocks)
    assert linalg.sum_of_products([(1, m, p), (-1, p, j)], n, n) is None
    return j, p


def reference_char_poly(m) -> list:
    """Monic characteristic polynomial, coefficients ascending (Faddeev-LeVerrier).

    m is Fraction rows or an `IntMat` a / d.  It runs on the integer rows
    a, N_1 = a and N_{k+1} = a (N_k + c_k I), c_k added to the diagonal in
    place and one `sum_of_products` per later step: the coefficients
    c_k = -tr N_k / k are integers, each an exact division, and m's are
    c_k / d^k.  Once N_k is zero, so are all later N and c.
    """
    a, d = m if isinstance(m, tuple) else linalg.int_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    a, cs, nk = (a, 1), [1], ([list(row) for row in a], 1)     # cs descending: leading first
    for k in range(1, n + 1):
        cs.append(-sum(row[i] for i, row in enumerate(nk[0])) // k)
        if k == n:
            break
        for i, row in enumerate(nk[0]):     # N_k has denominator 1, as a has
            row[i] += cs[-1]
        nk = linalg.sum_of_products([(1, a, nk)], n, n)
        if nk is None:
            break
    cs += [0] * (n + 1 - len(cs))
    return [Fraction(ck, d ** k) for k, ck in enumerate(cs)][::-1]


def plant(rng: Random, name: str, x: Fraction) -> tuple:
    """(finite theta, Fraction arrows, loops) of a finite representation of type name whose
    dimension vector is the highest root and whose node relations hold.

    Each loop is x I.  theta_a is linear at every finite node, drawn at random but at
    the last node, where it makes theta_root(x) zero: a generic representation of root
    dimension lifts to the deformed preprojective algebra only then (Crawley-Boevey).
    The arrows of sign +1 are drawn at random; the node relations are linear in the
    reverse arrows, which sympy's linsolve finds exactly (free parameters 0).  Redraws
    until a solution exists, then checks every node relation by the textbook product.
    """
    t = DynkinType.parse(name)
    dims = dict(zip(range(1, t.rank + 1), highest_root(t).coefficients))
    arrows = build_n1_quiver(t, affine=False).mckay_arrows()
    last = t.rank
    while True:
        theta = {a: [rand_frac(rng), rand_frac(rng)] for a in dims}
        rest = sum(dims[a] * (c + e * x) for a, (c, e) in theta.items() if a != last)
        theta[last][0] = -rest / dims[last] - theta[last][1] * x
        b, unknowns = {}, []
        for k in arrows:
            shape = dims[k.target], dims[k.source]
            if k.sign > 0:
                b[k.key] = sympy.Matrix(rand_matrix(rng, *shape, span=3))
            else:
                b[k.key] = sympy.Matrix(*shape, lambda i, j: sympy.Symbol(f"b{k.key}_{i}_{j}"))
                unknowns += list(b[k.key])
        equations = []
        for a, n in dims.items():
            value = (theta[a][0] + theta[a][1] * x) * sympy.eye(n)
            for k in arrows:
                if k.source == a:
                    value += k.sign * b[k.reversed_key()] * b[k.key]
            equations += list(value)
        solutions = sympy.linsolve(equations, unknowns)
        if solutions:
            break
    (values,) = solutions
    free = {s: 0 for v in values for s in v.free_symbols}
    solved = dict(zip(unknowns, (v.subs(free) for v in values)))
    out = {key: mat_from_sympy(m.subs(solved)) for key, m in b.items()}
    loops = {a: [[x if i == j else Fraction(0) for j in range(n)] for i in range(n)]
             for a, n in dims.items()}
    for a, n in dims.items():
        total = [[theta[a][0] + theta[a][1] * x if i == j else Fraction(0) for j in range(n)]
                 for i in range(n)]
        for k in arrows:
            if k.source == a:
                product = naive_product(out[k.reversed_key()], out[k.key], n)
                total = [[u + k.sign * v for u, v in zip(r, s)] for r, s in zip(total, product)]
        assert all(v == 0 for row in total for v in row), f"node relation at {a} fails"
    return {a: Polynomial.of(c) for a, c in theta.items()}, out, loops
