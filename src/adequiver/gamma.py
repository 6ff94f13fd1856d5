"""Finite subgroups of SL(2, C), one per simply laced type, and their McKay graphs.

Cyclic groups for A_n, binary dihedral for D_n, and the binary
tetrahedral / octahedral / icosahedral groups for E6 / E7 / E8, the last
three realised through the standard quaternion embedding
i -> diag(i, -i), j -> [[0, 1], [-1, 0]].

Everything is decided exactly over a prime field (Dixon's method; Dixon,
Numer. Math. 10, 1967).  Each generator entry is a rational combination
of powers of zeta = e^{2 pi i / N}, and zeta is sent to a fixed element
omega of order N in F_p, p the least prime with N | p - 1.  That is a
ring map to F_p, and it is injective on the group because p does not
divide its order.  N = 2520 = lcm(1, ..., 10) serves every type up to
rank 8, so p = 2521 there; longer cyclic and dihedral generators enlarge
N to a multiple.  The group is closed on 4-tuples of residues, its class
algebra split into central characters over F_p (`poly._split_roots`), and
the McKay multiplicities read off as residues in {0, 1, 2}: no
tolerance, seed or retry decides anything.

The complex matrices, the multiplication table and the complex character
table are views of the exact data, built (with numpy) only when read:
element matrices as products of the complex generators along the
closure's tree, characters from the exact eigenvalues of each class
representative.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count
from math import isqrt, lcm
from operator import mul

from .dynkin import DynkinType, _Frozen, _Record, marks
from .linalg import ComputeFailure, frac
from .poly import _factor, _quotient, _split_roots

BASE_ORDER = 2520     # lcm(1, ..., 10): every root of unity the types up to rank 8 need


class ClosureOverflow(ComputeFailure):
    """Generator closure passed the group order that the marks give without stabilising."""


class DegenerateSpectrum(ComputeFailure):
    """The class algebra did not split into one-dimensional eigenspaces over F_p."""


class NonIntegralMultiplicity(ComputeFailure):
    """A McKay multiplicity read mod p is not 0, 1 or 2, or the matrix is malformed."""


# -- cyclotomic numbers and the prime field -------------------------------------
#
# A cyclotomic number is a tuple of (coefficient, turn) terms, standing for
# sum c * e^{2 pi i turn} with rational c and turn; addition is concatenation.

def _root(turn, c=1) -> tuple:
    return ((frac(c), frac(turn) % 1),)


def _rotate(x: tuple, turn) -> tuple:
    """x times e^{2 pi i turn}."""
    return tuple((c, (t + turn) % 1) for c, t in x)


def _quat(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """Unit quaternion a + bi + cj + dk as the matrix [[a + bi, c + di], [-c + di, a - bi]]."""
    i = Fraction(1, 4)
    return ((a + _rotate(b, i), c + _rotate(d, i)),
            (_rotate(c, 2 * i) + _rotate(d, i), a + _rotate(b, 3 * i)))


def _diag(turn) -> tuple:
    return ((_root(turn), ()), ((), _root(-turn)))


def generators(t: DynkinType) -> list[tuple]:
    """Generators of the subgroup for t, as 2x2 matrices of cyclotomic numbers."""
    n = t.rank
    if t.family == "A":
        return [_diag(Fraction(1, n + 1))]
    if t.family == "D":
        return [_diag(Fraction(1, 2 * (n - 2))), (((), _root(0)), (_root(Fraction(1, 2)), ()))]
    half = _root(0, Fraction(1, 2))
    if n == 6:
        return [_quat((), _root(0), (), ()), _quat(half, half, half, half)]
    if n == 7:
        return [_quat(half, half, half, half), _diag(Fraction(1, 8))]
    # quaternions (phi / 2, 1 / (2 phi), 1/2, 0) and (-1/2, 1/2, 1/2, 1/2), phi the golden
    # ratio; with s = (sqrt 5 - 1) / 4 = (zeta_5 + zeta_5^4) / 2,
    # phi / 2 = 1/2 + s and 1 / (2 phi) = s
    s = _root(Fraction(1, 5), Fraction(1, 2)) + _root(Fraction(4, 5), Fraction(1, 2))
    return [_quat(half + s, s, half, ()), _quat(_rotate(half, Fraction(1, 2)), half, half, half)]


class PrimeField(_Frozen):
    """F_p with omega of order n in it, standing for e^{2 pi i / n}."""

    __slots__ = _fields = ("p", "n", "omega")

    def root(self, turn) -> int:
        """The residue of e^{2 pi i turn}; turn * n must be an integer."""
        e = frac(turn) * self.n
        if e.denominator != 1:
            raise ValueError(f"e^(2 pi i {turn}) is not an {self.n}-th root of unity")
        return pow(self.omega, e.numerator % self.n, self.p)

    def reduce(self, x: tuple) -> int:
        p = self.p
        return sum(c.numerator * pow(c.denominator, -1, p) * self.root(t) for c, t in x) % p


@lru_cache(maxsize=None)
def prime_field(n: int) -> PrimeField:
    """The least prime p = 1 mod n, with omega = g^((p - 1) / n) for g its least primitive root."""
    p = next(m for m in count(n + 1, n) if _factor(m) == [m])
    factors = set(_factor(p - 1))
    g = next(g for g in count(2) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    return PrimeField(p, n, pow(g, (p - 1) // n, p))


def _complex(x: tuple) -> complex:
    return sum(float(c) * cmath.exp(2j * cmath.pi * t) for c, t in x) + 0j


# -- the group -------------------------------------------------------------------

def _mul(x: tuple, y: tuple, p: int) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _inv(x: tuple, p: int) -> tuple:
    a, b, c, d = x
    return (d, -b % p, -c % p, a)


class GroupElement(_Frozen):
    """A complex 2x2 matrix of determinant one (numeric view), held as a read-only copy."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: object):
        import numpy as np
        a = np.array(m, dtype=complex)
        if a.shape != (2, 2):
            raise ValueError("group elements are 2x2 complex matrices")
        if not np.isfinite(a).all():
            raise ValueError("group element entries must be finite")
        if abs(np.linalg.det(a) - 1.0) >= 1e-9:
            raise ValueError("group elements must have determinant 1")
        a.flags.writeable = False
        object.__setattr__(self, "m", a)

    @property
    def _values(self):
        # the entries as nested tuples: equal matrices give equal, hashable values
        return (tuple(map(tuple, self.m.tolist())),)


class GammaGroup(_Record):
    """The closure of the generators over F_p, with its conjugacy classes.

    `gens` are the cyclotomic generator matrices.  `residues[r]` holds the entries
    (a, b, c, d) of element r = [[a, b], [c, d]] mod `fp.p`; element 0 is the
    identity, and element r > 0 is `residues[tree[r][0]]` times generator
    `tree[r][1]`.  `classes` partitions the element indices, `class_index[r]` is the
    class of element r, and `index` maps residues to the element index.  `elements`,
    `mult_table` and `inverse` are numpy views built on first use.
    """

    _fields = ("type", "fp", "gens", "residues", "tree", "classes", "class_index", "index")
    _repr_fields = ("type", "fp", "classes")

    @property
    def order(self) -> int:
        return len(self.residues)

    def inverse_index(self, r: int) -> int:
        return self.index[_inv(self.residues[r], self.fp.p)]

    @cached_property
    def elements(self) -> list[GroupElement]:
        import numpy as np
        gens = [np.array([[_complex(x) for x in row] for row in g]) for g in self.gens]
        mats = [np.eye(2, dtype=complex)]
        for parent, s in self.tree[1:]:
            mats.append(mats[parent] @ gens[s])
        return [GroupElement(m) for m in mats]

    @cached_property
    def mult_table(self):
        """[i, j] -> index of element i times element j."""
        import numpy as np
        p, res = self.fp.p, self.residues
        return np.array([[self.index[_mul(x, y, p)] for y in res] for x in res], dtype=int)

    @cached_property
    def inverse(self):
        import numpy as np
        return np.array([self.inverse_index(r) for r in range(self.order)], dtype=int)


def enumerate_group(t: DynkinType) -> GammaGroup:
    """Closure of the generators over F_p, and conjugacy classes as orbits under them.

    Raises ClosureOverflow once the closure passes the sum of the squared marks,
    the order of the group (`dynkin.MarksVector.group_order`).
    """
    cap, gens = marks(t).group_order, generators(t)
    fld = prime_field(lcm(BASE_ORDER, *(
        turn.denominator for g in gens for row in g for x in row for _, turn in x)))
    p = fld.p
    exact = [tuple(fld.reduce(x) for row in g for x in row) for g in gens]
    for a, b, c, d in exact:
        if (a * d - b * c) % p != 1:
            raise ValueError(f"a generator of {t} has determinant other than 1")
    residues = [(1, 0, 0, 1)]
    index = {residues[0]: 0}
    tree: list = [None]
    frontier = [0]
    while frontier:
        fresh = []
        for r in frontier:
            for s, gen in enumerate(exact):
                y = _mul(residues[r], gen, p)
                if y not in index:
                    index[y] = len(residues)
                    fresh.append(len(residues))
                    residues.append(y)
                    tree.append((r, s))
                    if len(residues) > cap:
                        raise ClosureOverflow(f"closure for {t} exceeded {cap} elements")
        frontier = fresh
    conjugators = [(gen, _inv(gen, p)) for gen in exact]
    class_index = [-1] * len(residues)
    classes: list[list[int]] = []
    for x in range(len(residues)):
        if class_index[x] >= 0:
            continue
        members = [x]
        class_index[x] = len(classes)
        for y in members:                      # grows while it is walked
            for gen, gen_inv in conjugators:
                z = index[_mul(_mul(gen, residues[y], p), gen_inv, p)]
                if class_index[z] < 0:
                    class_index[z] = len(classes)
                    members.append(z)
        classes.append(sorted(members))
    return GammaGroup(type=t, fp=fld, gens=gens, residues=residues, tree=tree,
                      classes=classes, class_index=class_index, index=index)


# -- the character table ----------------------------------------------------------

def _class_matrices(g: GammaGroup) -> list[list[dict]]:
    """Structure constants of the class-sum algebra, K_i K_j = sum_k a[j][i][k] K_k.

    a[j][i][k] counts the x in class i with x^-1 z_k in class j, for one z_k
    in class k: k times |G| products in all.  Zero counts are left out.
    """
    p, res, cls = g.fp.p, g.residues, g.class_index
    k = len(g.classes)
    a = [[{} for _ in range(k)] for _ in range(k)]
    inverses = [_inv(x, p) for x in res]
    for c, members in enumerate(g.classes):
        z = res[members[0]]
        for x, x_inv in enumerate(inverses):
            row = a[cls[g.index[_mul(x_inv, z, p)]]][cls[x]]
            row[c] = row.get(c, 0) + 1
    return a


def _split(u: list, matrix: list[dict], p: int) -> list[list]:
    """The components of u in the eigenspaces of a matrix given by sparse rows.

    The Krylov vectors u, Mu, M^2 u, ... are reduced against each other
    until M^m u depends on the earlier ones; that dependence is the
    minimal polynomial mu of M on u.  For each root l of mu,
    (mu / (x - l))(M) u, scaled by 1 / mu'(l), is the component of u
    at eigenvalue l.
    """
    krylov, reduced = [u], []          # reduced: (pivot, vector, combination of krylov)
    while True:
        vec = krylov[-1]
        comb = [0] * (len(krylov) - 1) + [1]
        for pivot, r, rc in reduced:
            f = vec[pivot]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, r)]
                comb[:len(rc)] = [(x - f * y) % p for x, y in zip(comb, rc)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            break
        scale = pow(vec[pivot], -1, p)
        reduced.append((pivot, [x * scale % p for x in vec], [x * scale % p for x in comb]))
        y = krylov[-1]
        krylov.append([sum(c * y[j] for j, c in row.items()) % p for row in matrix])
    if len(comb) == 2:
        return [u]
    out, coordinates = [], list(zip(*krylov[:-1]))
    roots = _split_roots(comb, p)
    if roots is None:
        raise DegenerateSpectrum("a class matrix has eigenvalues outside F_p or repeated ones")
    for root in roots:
        q, _ = _quotient(comb, root, p)
        scale = pow(_quotient(q, root, p)[1], -1, p)
        out.append([sum(map(mul, row, q)) * scale % p for row in coordinates])
    return out


def _eigen_exponents(power_sums: list, roots: dict, p: int) -> list[int]:
    """Eigenvalues of rho(g) from chi(g^t) mod p for t = 1..deg rho, as exponents m of zeta^m.

    Newton's identities give the characteristic polynomial of rho(g) mod p;
    its roots are powers of one root of unity zeta, and `roots` maps the
    residue of each zeta^m to m.
    """
    d = len(power_sums)
    if d == 1:                                   # the eigenvalue is chi(g) itself
        found = [roots[power_sums[0]]] if power_sums[0] in roots else []
    else:
        e = [1]
        for k in range(1, d + 1):
            s = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
            e.append(s * pow(k, -1, p) % p)
        poly = [(-1) ** (d - i) * e[d - i] % p for i in range(d + 1)]
        found = []
        for r, m in roots.items():
            while len(poly) > 1:
                q, value = _quotient(poly, r, p)
                if value:
                    break
                poly = q
                found.append(m)
            if len(poly) == 1:
                break
    if len(found) != d:
        raise DegenerateSpectrum(f"a character of degree {d} does not lift to roots of unity")
    return found


class CharacterTable(_Record):
    """Irreducible characters mod p, sorted by degree and then by their complex values.

    `values[a][j]` is chi_a at class j mod `group.fp.p`, `degrees[a]`
    its degree, `lifted[a][j]` its complex value.  `chars`, `dims` and
    `class_sizes` are numpy views.
    """

    _fields = ("group", "values", "degrees", "lifted")
    _repr_fields = ("values", "degrees")

    @property
    def class_reps(self) -> list[int]:
        return [c[0] for c in self.group.classes]

    @cached_property
    def chars(self):
        import numpy as np
        return np.array(self.lifted, dtype=complex)

    @property
    def dims(self):
        import numpy as np
        return np.array(self.degrees, dtype=int)

    @property
    def class_sizes(self):
        import numpy as np
        return np.array([len(c) for c in self.group.classes], dtype=int)


def _lift(g: GammaGroup, values: list[list[int]], degrees: list[int]) -> list[list[complex]]:
    """Complex character values: each chi(g_j) summed from the exact eigenvalues of rho(g_j)."""
    p = g.fp.p
    out = [[0j] * len(g.classes) for _ in values]
    for j, members in enumerate(g.classes):
        x = g.residues[members[0]]
        powers = [g.class_index[0]]           # class of x^t, t = 0, 1, ...
        y = x
        while y != g.residues[0]:
            powers.append(g.class_index[g.index[y]])
            y = _mul(y, x, p)
        order = len(powers)
        step = g.fp.root(Fraction(1, order))
        roots = {pow(step, m, p): m for m in range(order)}
        for a, (row, d) in enumerate(zip(values, degrees)):
            found = _eigen_exponents([row[powers[t % order]] for t in range(1, d + 1)], roots, p)
            out[a][j] = sum(cmath.exp(2j * cmath.pi * m / order) for m in found)
    return out


def character_table(g: GammaGroup) -> CharacterTable:
    """Character table over F_p from the simultaneous eigenvectors of the class matrices.

    The class-indicator vector of the identity has a nonzero component
    chi(1)^2 / |G| along each central character; splitting it by one class
    matrix after another leaves one component per irreducible, which
    gives chi(1)^2 and then every chi(g_j).
    """
    p, order = g.fp.p, g.order
    k = len(g.classes)
    sizes = [len(c) for c in g.classes]
    a = _class_matrices(g)
    parts = [[1] + [0] * (k - 1)]
    for matrix in a[1:]:
        if len(parts) == k:
            break
        parts = [v for u in parts for v in _split(u, matrix, p)]
    if len(parts) != k:
        raise DegenerateSpectrum(f"the class algebra of {g.type} splits into {len(parts)} "
                                 f"of {k} characters over F_{p}")
    values, degrees = [], []
    for u in parts:
        square = order * u[0] % p
        d = isqrt(square)
        if d < 1 or d * d != square:
            raise DegenerateSpectrum(f"a character of {g.type} has chi(1)^2 = {square} mod {p}")
        scale = d * pow(u[0], -1, p)
        values.append([x * scale * pow(s, -1, p) % p for x, s in zip(u, sizes)])
        degrees.append(d)
    lifted = _lift(g, values, degrees)
    # degree, then rounded complex values: labels that do not depend on the splitting order
    ranked = sorted(range(k), key=lambda r: (
        degrees[r], tuple(round(v, 6) + 0.0 for z in lifted[r] for v in (z.real, z.imag))))
    return CharacterTable(group=g, values=[values[r] for r in ranked],
                          degrees=[degrees[r] for r in ranked], lifted=[lifted[r] for r in ranked])


def mckay_adjacency(g: GammaGroup, table: CharacterTable) -> list[list[int]]:
    """Multiplicity of irrep b inside Q tensor irrep a, Q the defining 2-dim rep.

    Computed mod p as (1/|G|) sum_j |C_j| chi_Q(g_j) chi_a(g_j) chi_b(g_j^-1),
    and read as an integer in {0, 1, 2}; anything else, or a matrix that is
    not symmetric with zero diagonal, raises NonIntegralMultiplicity.
    """
    p = g.fp.p
    reps = table.class_reps
    weights = [len(c) * (g.residues[r][0] + g.residues[r][3]) for c, r in zip(g.classes, reps)]
    inverse_class = [g.class_index[g.inverse_index(r)] for r in reps]
    scale = pow(g.order, -1, p)
    at_inverse = [[chi[j] for j in inverse_class] for chi in table.values]
    out = []
    for a, chi_a in enumerate(table.values):
        weighted = [w * x for w, x in zip(weights, chi_a)]
        row = []
        for b, chi_b in enumerate(at_inverse):
            m = sum(map(mul, weighted, chi_b)) * scale % p
            if m > 2:
                raise NonIntegralMultiplicity(
                    f"multiplicity ({a}, {b}) for {g.type} reads {m} mod {p}, not 0, 1 or 2")
            row.append(m)
        out.append(row)
    if any(out[a][b] != out[b][a] for a in range(len(out)) for b in range(a)) \
            or any(out[a][a] for a in range(len(out))):
        raise NonIntegralMultiplicity("multiplicity matrix must be symmetric with zero diagonal")
    return out


def find_labeled_isomorphism(
    adj_a: list[list[int]],
    labels_a: list[int],
    adj_b: list[list[int]],
    labels_b: list[int],
) -> list[int] | None:
    """Backtracking graph isomorphism respecting node labels and edge multiplicities.

    Returns a mapping (index in a -> index in b) or None.
    """
    n = len(labels_a)
    if len(labels_b) != n or sorted(labels_a) != sorted(labels_b):
        return None

    def signature(adj, labels, v):
        return (labels[v], sorted((m, labels[w]) for w, m in enumerate(adj[v]) if m))

    sig_a = [signature(adj_a, labels_a, v) for v in range(n)]
    sig_b = [signature(adj_b, labels_b, v) for v in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    mapping: list[int] = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig_a[v] != sig_b[w]:
                continue
            if any(adj_a[v][u] != adj_b[w][mapping[u]] for u in range(v)):
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    return mapping if extend(0) else None
