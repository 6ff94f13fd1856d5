"""A second judge of the golden corpus: relation, nondegeneracy, marks, support, root and
exceptional-locus verdicts re-derived by textbook linear algebra.

Imports nothing from `adequiver`.  It reads the input files with `json`, computes with
sympy rationals, and takes the sign convention and the marks as written down here:

* sign convention, as the `quiver` module docstring states it: on the affine type A
  cycle the positive arrow runs a -> a+1 (mod n+1), and of the doubled A1 bond
  0 -> 1 is positive in pair 0 and 1 -> 0 in pair 1; on the D and E trees the positive
  arrow runs from the lower node label to the higher; opposite arrows carry opposite
  signs;
* marks over the affine nodes 0..n, in the labelling of the `dynkin` diagrams (the
  same table as `bench/cli_verify.marks`), and the edges of those diagrams and the
  closed form of the number of positive roots (as `bench/cli_verify.affine_edges` and
  `bench/cli_verify.positive_root_count` write them).

The positive roots of a finite type are the nonzero vectors v >= 0 over the nodes 1..n
with q(v) = sum_a v_a^2 - sum over edges v_a v_b = 1, the roots of the Tits form; every
one above a simple root is another plus a simple root, so they grow from the simple
roots one step at a time.  The highest root is the one of greatest height.

The relations, on a representation with arrows B, loops Psi and node polynomials theta
(a node 0 polynomial left out is completed by sum_a delta_a theta_a = 0, delta_0 = 1):

* node relation at a: theta_a(Psi_a) + sum over arrows a -> b of sign * B_(b->a) B_(a->b);
* edge relation at a -> b: Psi_b B - B Psi_a.

A representation is nondegenerate when its framing vectors generate every node under the
arrows and the loops: the spans they grow to, column spaces by sympy, fill every node.
A deformation parameter satisfies the marks constraint when sum_a delta_a theta_a = 0,
its node 0 polynomial completed first when the file leaves it out.

A finite representation (node 0 absent or empty) has its support on the vanishing locus
when every eigenvalue of every loop is a zero of some positive-root projection
theta_alpha = sum_a alpha_a theta_a.  The eigenvalues are grouped by the irreducible
factors over Q of the loop's characteristic polynomial (sympy `charpoly` and
`factor_list`); a group is on the locus when its factor divides some projection, so
the zero projection, which vanishes everywhere, holds every group.

A deformation parameter is generic when every nonconstant projection is square-free and
no two share a factor (sympy `sqf_part` and `gcd`); its exceptional locus has one entry per
zero of each projection, with the zero's multiplicity (sympy `sqf_list`), and cannot be
computed when some projection is identically zero.

The monad of an affine type A representation with zero loops composes to zz times one
block per node, B2 B1 - B1 B2 + lam (B1 the positive arrow out of a node, B2 the negative
one; a representation has no map out of the framing, so no IJ term); every other
coefficient cancels identically.  So the composite is zero iff every block is, and the
blocks match the node relations with theta_a = lam_a.
"""

import json
from fractions import Fraction
from pathlib import Path

import sympy

X = sympy.Symbol("x")


def marks(family: str, rank: int) -> list[int]:
    if family == "A":
        return [1] * (rank + 1)
    if family == "D":
        return [1, 1] + [2] * (rank - 3) + [1, 1]
    return {6: [1, 1, 2, 3, 2, 1, 2], 7: [1, 2, 3, 4, 3, 2, 1, 2],
            8: [1, 2, 3, 4, 5, 6, 4, 2, 3]}[rank]


def affine_edges(family: str, rank: int) -> list[tuple[int, int]]:
    """Edges of the affine diagram in the `dynkin` labelling; the doubled A1 bond twice."""
    n = rank
    if family == "A":
        return [(0, 1), (0, 1)] if n == 1 else [(a, (a + 1) % (n + 1)) for a in range(n + 1)]
    if family == "D":
        return ([(0, 2), (1, 2)] + [(a, a + 1) for a in range(2, n - 2)]
                + [(n - 2, n - 1), (n - 2, n)])
    if n == 6:
        return [(a, a + 1) for a in range(1, 5)] + [(3, 6), (0, 6)]
    return [(a, a + 1) for a in range(n - 1)] + [({7: 3, 8: 5}[n], n)]


def positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


def positive_roots(family: str, rank: int) -> list[tuple]:
    """The positive roots over the finite nodes 1..rank, in sorted order."""
    edges = [(a - 1, b - 1) for a, b in affine_edges(family, rank) if a and b]

    def q(v: tuple) -> int:
        return sum(x * x for x in v) - sum(v[a] * v[b] for a, b in edges)

    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found, todo = set(simple), list(simple)
    while todo:
        v = todo.pop()
        for i in range(rank):
            w = v[:i] + (v[i] + 1,) + v[i + 1:]
            if w not in found and q(w) == 1:
                found.add(w)
                todo.append(w)
    return sorted(found)


def sign(family: str, rank: int, key: tuple) -> int:
    s, t, _ = key
    if family == "A" and rank == 1:
        return 1 if key in ((0, 1, 0), (1, 0, 1)) else -1
    if family == "A":
        return 1 if t == (s + 1) % (rank + 1) else -1
    return 1 if s < t else -1


def _rational(x) -> sympy.Rational:
    q = Fraction(str(x))
    return sympy.Rational(q.numerator, q.denominator)


def _matrix(rows: list, r: int, c: int) -> sympy.Matrix:
    return sympy.Matrix(r, c, [_rational(x) for row in rows for x in row])


class Representation:
    """Type, node dimensions, arrows by (source, target, pair index) and loops of a
    representation file; an arrow or loop not given is zero."""

    def __init__(self, path: Path):
        record = json.loads(path.read_text(encoding="utf-8"))
        self.family, self.rank = record["type"][0], int(record["type"][1:])
        self.dims = {int(a): d for a, d in record["dims"].items()}
        self.arrows = {}
        for e in record.get("arrows", []):
            s, t = e["from"], e["to"]
            self.arrows[s, t, e.get("pair_index", 0)] = _matrix(e["matrix"], self.dims[t],
                                                                self.dims[s])
        psi = record.get("psi", {})
        self.loops = {a: _matrix(psi[str(a)], d, d) if str(a) in psi else sympy.zeros(d, d)
                      for a, d in self.dims.items()}
        framing = {int(a): f for a, f in record.get("framing", {}).items()}
        self.framed = any(f["rank"] for f in framing.values())
        # the framing vectors at each node as the columns of one matrix
        self.framing = {a: _matrix(framing[a].get("vectors", []), framing[a]["rank"], d).T
                        if a in framing else sympy.zeros(d, 0) for a, d in self.dims.items()}

    def arrow(self, key: tuple) -> sympy.Matrix:
        s, t, _ = key
        return self.arrows.get(key, sympy.zeros(self.dims[t], self.dims[s]))

    def node_residual(self, a: int, theta: list) -> sympy.Matrix:
        d = self.dims[a]
        out, power = sympy.zeros(d, d), sympy.eye(d)
        for c in theta:
            out += c * power
            power = power * self.loops[a]
        for (s, t, i), b in self.arrows.items():
            if s == a:
                out += sign(self.family, self.rank, (s, t, i)) * self.arrow((t, s, i)) * b
        return out

    def nondegenerate(self) -> bool:
        """Whether the framing vectors, moved by arrows and loops until nothing grows, span
        every node."""
        span = {a: _basis(m) for a, m in self.framing.items()}
        maps = [(s, t, b) for (s, t, _), b in self.arrows.items()]
        maps += [(a, a, psi) for a, psi in self.loops.items()]
        grew = True
        while grew:
            grew = False
            for s, t, b in maps:
                joined = _basis(span[t].row_join(b * span[s]))
                grew |= joined.cols > span[t].cols
                span[t] = joined
        return all(span[a].cols == d for a, d in self.dims.items())

    def edges_zero(self) -> bool:
        return all((self.loops[t] * b - b * self.loops[s]).is_zero_matrix
                   for (s, t, _), b in self.arrows.items())

    def support_on_locus(self, theta: dict) -> bool:
        """Whether every loop eigenvalue is a zero of some positive-root projection."""
        found = [p for _, p in projections(self.family, self.rank, theta)]
        for a, d in self.dims.items():
            if not d:
                continue
            _, factors = sympy.factor_list(self.loops[a].charpoly(X))
            if not all(any(p.rem(f).is_zero for p in found) for f, _ in factors):
                return False
        return True


def projections(family: str, rank: int, theta: dict) -> list[tuple[tuple, sympy.Poly]]:
    """Every positive root alpha with theta_alpha = sum_a alpha_a theta_a over the finite
    nodes, theta a table of ascending coefficients."""
    polys = {a: sympy.Poly(list(reversed(p)) or [0], X, domain=sympy.QQ)
             for a, p in theta.items()}
    return [(root, sum((c * polys[a] for a, c in enumerate(root, 1)),
                       sympy.Poly(0, X, domain=sympy.QQ)))
            for root in positive_roots(family, rank)]


def generic(found: list[tuple[tuple, sympy.Poly]]) -> bool:
    """Whether every nonconstant projection is square-free and no two share a factor."""
    live = [p for _, p in found if p.degree() > 0]
    return (all(p.sqf_part().degree() == p.degree() for p in live)
            and all(p.gcd(q).degree() == 0 for i, p in enumerate(live) for q in live[i + 1:]))


def _basis(m: sympy.Matrix) -> sympy.Matrix:
    """Independent columns spanning the column space of m, as one matrix."""
    cols = m.columnspace()
    return sympy.Matrix.hstack(*cols) if cols else sympy.zeros(m.rows, 0)


def theta_table(path: Path) -> dict[int, list]:
    """Node polynomials of a deformation file, ascending coefficients, node 0 completed."""
    record = json.loads(path.read_text(encoding="utf-8"))
    family, rank = record["type"][0], int(record["type"][1:])
    table = {int(a): [_rational(c) for c in cs] for a, cs in record["theta"].items()}
    if 0 not in table:
        delta = marks(family, rank)
        width = max((len(p) for p in table.values()), default=0)
        table[0] = [-sum(delta[a] * (p[k] if k < len(p) else 0) for a, p in table.items())
                    / delta[0] for k in range(width)]
    return table


def theta_validate(argv: list, root: Path) -> dict[str, bool]:
    """The marks-weighted-sum-vanishes verdict of a theta-validate call."""
    record = json.loads((root / argv[1]).read_text(encoding="utf-8"))
    delta = marks(record["type"][0], int(record["type"][1:]))
    theta = theta_table(root / argv[1])
    width = max(len(p) for p in theta.values())
    total = [sum(delta[a] * p[k] for a, p in theta.items() if k < len(p)) for k in range(width)]
    return {"marks-weighted-sum-vanishes": not any(total)}


def nondeg(argv: list, root: Path) -> dict[str, bool]:
    """The nondegenerate verdict of a nondeg call."""
    return {"nondegenerate": Representation(root / argv[1]).nondegenerate()}


def check_rep(argv: list, path: str, root: Path) -> dict[str, bool]:
    """The node-relations, edge-relations and nondegenerate verdicts of one file of a
    check-rep call, and its support-on-vanishing-locus verdict when it is finite (node 0
    absent or empty); nondegeneracy is judged only with framing or with every node empty."""
    theta = theta_table(root / argv[argv.index("--theta") + 1])
    rep = Representation(root / path)
    verdicts = {f"{path}: node-relations": all(rep.node_residual(a, theta[a]).is_zero_matrix
                                               for a in rep.dims),
                f"{path}: edge-relations": rep.edges_zero()}
    if rep.framed or not any(rep.dims.values()):
        verdicts[f"{path}: nondegenerate"] = rep.nondegenerate()
    if not rep.dims.get(0):
        verdicts[f"{path}: support-on-vanishing-locus"] = rep.support_on_locus(theta)
    return verdicts


def roots(argv: list) -> tuple[dict[str, bool], dict]:
    """The count-matches-closed-form and highest-root-equals-finite-marks verdicts of a
    roots call, with the data it prints: the marks, the count, the roots and the highest."""
    family, rank = argv[1][0], int(argv[1][1:])
    found = positive_roots(family, rank)
    highest = max(found, key=sum)
    delta = marks(family, rank)
    verdicts = {"count-matches-closed-form": len(found) == positive_root_count(family, rank),
                "highest-root-equals-finite-marks": list(highest) == delta[1:]}
    return verdicts, {"marks": delta, "count": len(found), "roots": found,
                      "highest_root": list(highest)}


def monad_check(argv: list, root: Path) -> tuple[dict[str, bool], dict[str, sympy.Matrix]]:
    """The matches-node-relation-residuals and composite-zero verdicts of a monad-check
    call, with the zz block at each node."""
    paths, rest = [], iter(argv[1:])
    for arg in rest:
        if arg.startswith("--lam"):
            text = arg.partition("=")[2] or next(rest)
        elif not arg.startswith("--"):
            paths.append(arg)
    (path,) = paths
    rep = Representation(root / path)
    n = rep.rank + 1
    lam = [_rational(x.strip()) for x in text.split(",")]
    keys = [(a, (a + d) % n, 0) for a in range(n) for d in (1, -1)]
    keys += [(0, 1, 1), (1, 0, 1)] * (n == 2)       # the second pair of the doubled A1 bond
    b1 = {k[0]: rep.arrow(k) for k in keys if sign("A", rep.rank, k) > 0}
    b2 = {k[0]: rep.arrow(k) for k in keys if sign("A", rep.rank, k) < 0}
    zz = {a: b2[(a + 1) % n] * b1[a] - b1[(a - 1) % n] * b2[a] + lam[a] * sympy.eye(rep.dims[a])
          for a in range(n)}
    verdicts = {"matches-node-relation-residuals":
                all(zz[a] == rep.node_residual(a, [lam[a]]) for a in range(n)),
                "composite-zero": all(m.is_zero_matrix for m in zz.values())}
    return verdicts, {str(a): m for a, m in zz.items()}


def exc_locus(argv: list, root: Path) -> tuple[dict[str, bool], dict]:
    """The locus-computed or identically-zero-projection verdict of an exc-locus call, with
    the data it prints when the locus is computed: generic, and the entries as sorted
    (root, multiplicity) pairs, one per point, so a square-free factor of degree k of a
    projection gives k of them."""
    path = root / argv[1]
    record = json.loads(path.read_text(encoding="utf-8"))
    found = projections(record["type"][0], int(record["type"][1:]), theta_table(path))
    if any(p.is_zero for _, p in found):
        return {"identically-zero-projection": False}, {}
    entries = sorted((alpha, k) for alpha, p in found for f, k in p.sqf_list()[1]
                     for _ in range(f.degree()))
    return {"locus-computed": True}, {"generic": generic(found), "entries": entries}
