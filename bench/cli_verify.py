"""Workload cli-verify: one fresh `python -m adequiver ... --json` process per operation.

Set-up writes fixture files for all eleven subcommands into a scratch
directory of the checkout and plants, for every operation, the exit code
and the verdicts (name -> passed) the report must carry, plus a few
values from the report's data that the benchmark recomputes itself
(root counts, group orders, locus points, point data, Jordan loops).

This is how users run the checker, and the only workload in which
interpreter start-up, imports, `io`, report building, `gamma` and the
`check-rep` thread pool block the result.  A round is a fixed mix of 27
operations: two of each light subcommand, `mckay-verify` on E6, E7 and
E8, and three `check-rep` batches each of types A4 and E6.  The heavy
operations (E8 and the batches) are a quarter of the round, so
latency_p90_ms falls among the batches while latency_p50_ms reads
start-up.  At most one child runs at a time.

Each `check-rep` batch holds five A4 or four E6 representations (D
types appear in `nondeg`) with 3-6 dimensions per finite node, the
second and fifth affine, with framing, with zero and (every other one)
random arrows, and with loops whose Jordan blocks sit on roots of the
node polynomials (double roots carry blocks of size two, so loops need
not be diagonalisable).  Loops whose Jordan blocks are longer than the root's
multiplicity trip a known defect of the numeric support check, and
point data with complex supports trip a known crash of `matrixify`.
Neither is in the timed mix (the benchmark's workloads must run without
failed operations); both are run once per run as separate probes whose
outcome is printed in the run record.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import exact
import monad_flatness
import pointdata_roundtrip

WHY = ("the checker as users run it: interpreter start-up, imports, io, report "
       "building, gamma group closure and the check-rep thread pool block the result")

OP_TIMEOUT_S = 60.0
# files per check-rep batch: the two types' batches cost about the same
BATCH_FILES = {"A4": 5, "E6": 4}

# -- type data, written down independently of the package ---------------------


def parse_type(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


def marks(name: str) -> list:
    fam, n = parse_type(name)
    if fam == "A":
        return [1] * (n + 1)
    if fam == "D":
        return [1, 1] + [2] * (n - 3) + [1, 1]
    return {6: [1, 1, 2, 3, 2, 1, 2], 7: [1, 2, 3, 4, 3, 2, 1, 2],
            8: [1, 2, 3, 4, 5, 6, 4, 2, 3]}[n]


def group_order(name: str) -> int:
    return sum(d * d for d in marks(name))


def positive_root_count(name: str) -> int:
    fam, n = parse_type(name)
    if fam == "A":
        return n * (n + 1) // 2
    if fam == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def affine_edges(name: str) -> list:
    """Diagram edges in the package's labelling (see its dynkin module docstring)."""
    fam, n = parse_type(name)
    if fam == "A":
        return [(0, 1), (0, 1)] if n == 1 else [(a, (a + 1) % (n + 1)) for a in range(n + 1)]
    if fam == "D":
        return ([(0, 2), (1, 2)] + [(a, a + 1) for a in range(2, n - 2)]
                + [(n - 2, n - 1), (n - 2, n)])
    if n == 6:
        return [(a, a + 1) for a in range(1, 5)] + [(3, 6), (0, 6)]
    return [(a, a + 1) for a in range(n - 1)] + [({7: 3, 8: 5}[n], n)]


def signed_arrows(name: str, affine: bool) -> list:
    """(source, target, pair_index, sign) for every arrow of the doubled quiver."""
    fam, n = parse_type(name)
    edges = [e for e in affine_edges(name) if affine or 0 not in e]
    if affine and fam == "A":
        pairs = [(0, 1, 0), (1, 0, 1)] if n == 1 else [(a, b, 0) for a, b in edges]
    else:
        pairs = [(min(e), max(e), 0) for e in edges]
    return [x for s, t, p in pairs for x in ((s, t, p, 1), (t, s, p, -1))]


# -- representations ------------------------------------------------------------


@dataclass
class Rep:
    type: str
    dims: dict                        # node -> dim; node 0 present iff affine
    arrows: dict = field(default_factory=dict)    # (src, tgt, pair) -> matrix
    psi: dict = field(default_factory=dict)
    framing: dict = field(default_factory=dict)   # node -> list of vectors

    @property
    def affine(self) -> bool:
        return 0 in self.dims

    def matrix(self, key) -> list:
        return self.arrows.get(key) or exact.zeros(self.dims[key[1]], self.dims[key[0]])

    def loop(self, a) -> list:
        return self.psi.get(a) or exact.zeros(self.dims[a], self.dims[a])

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "dims": {str(a): d for a, d in sorted(self.dims.items())},
            "arrows": [{"from": k[0], "to": k[1], "pair_index": k[2], "matrix": exact.to_json(m)}
                       for k, m in sorted(self.arrows.items())],
            "psi": {str(a): exact.to_json(m) for a, m in sorted(self.psi.items())},
            "framing": {str(a): {"rank": len(vs), "vectors": [[exact.frac_str(x) for x in v]
                                                                for v in vs]}
                        for a, vs in sorted(self.framing.items()) if vs},
        }


def relations_hold(rep: Rep, theta: dict) -> tuple[bool, bool]:
    """(every node defect vanishes, every edge defect vanishes), computed exactly."""
    arrows = signed_arrows(rep.type, rep.affine)
    nodes_ok = edges_ok = True
    for a, d in rep.dims.items():
        acc = exact.poly_at(theta[a], rep.loop(a), d)
        for s, t, p, sign in arrows:
            if s == a:
                term = exact.mul(rep.matrix((t, s, p)), rep.matrix((s, t, p)), d, rep.dims[t], d)
                acc = exact.add(acc, term) if sign > 0 else exact.sub(acc, term)
        nodes_ok = nodes_ok and exact.is_zero(acc)
    for s, t, p, _ in arrows:
        ds, dt = rep.dims[s], rep.dims[t]
        b = rep.matrix((s, t, p))
        defect = exact.sub(exact.mul(rep.loop(t), b, dt, dt, ds), exact.mul(b, rep.loop(s), dt, ds, ds))
        edges_ok = edges_ok and exact.is_zero(defect)
    return nodes_ok, edges_ok


def nondegenerate(rep: Rep) -> bool:
    """Framing vectors generate every node under arrows and loops (own closure)."""
    arrows = [(s, t, rep.matrix((s, t, p))) for s, t, p, _ in signed_arrows(rep.type, rep.affine)]
    arrows += [(a, a, rep.loop(a)) for a in rep.dims]
    spans = {a: exact.Span() for a in rep.dims}
    vectors = {a: [] for a in rep.dims}
    for a, vs in rep.framing.items():
        vectors[a] = [v for v in vs if spans[a].add(v)]
    changed = True
    while changed:
        changed = False
        for s, t, m in arrows:
            for v in list(vectors[s]):
                w = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]
                if spans[t].add(w):
                    vectors[t].append(w)
                    changed = True
    return all(len(spans[a].rows) == d for a, d in rep.dims.items())


# -- operations -------------------------------------------------------------------


@dataclass
class Op:
    cell: str
    argv: list
    exit_code: int
    verdicts: dict                    # verdict name -> passed
    data_check: object = None         # callable(data) -> bool, or None


def _write(workdir: str, name: str, record: dict) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return name


def _theta_record(name: str, theta: dict) -> dict:
    return {"type": name, "theta": {str(a): [exact.frac_str(c) for c in cs]
                                    for a, cs in sorted(theta.items())}}


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _complete(name: str, finite: dict) -> dict:
    """Full theta with node 0 solved from sum_a marks[a] theta_a = 0."""
    delta = marks(name)
    deg = max(len(c) for c in finite.values())
    total = [sum((delta[a] * (cs[i] if i < len(cs) else 0) for a, cs in finite.items()),
                 Fraction(0)) for i in range(deg)]
    return {0: [-c / delta[0] for c in total], **finite}


def op_roots(rng: Random) -> Op:
    name = rng.choice(["A1", "A3", "A6", "A8", "D4", "D6", "D8", "E6", "E7", "E8"])
    count = positive_root_count(name)
    return Op("roots", ["roots", name], 0,
              {"count-matches-closed-form": True, "highest-root-equals-finite-marks": True},
              lambda data: data["count"] == count and data["marks"] == marks(name))


def op_mckay(name: str) -> Op:
    order = group_order(name)
    return Op(f"mckay-verify-{name}", ["mckay-verify", name], 0,
              {"order-equals-sum-of-squared-marks": True, "multiplicities-integral": True,
               "graph-matches-affine-diagram": True},
              lambda data: data["order"] == order)


def op_quiver_dot(rng: Random) -> Op:
    name = rng.choice(["A2", "A5", "D4", "D7", "E6", "E8"])
    flavor = rng.choice(["mckay", "extended", "n1"])
    finite = rng.random() < 0.3
    nodes = parse_type(name)[1] + (0 if finite else 1)
    arrows = 2 * len([e for e in affine_edges(name) if not finite or 0 not in e])
    if flavor == "extended":
        arrows += 2 * nodes
        nodes *= 2
    elif flavor == "n1":
        arrows += nodes
    argv = ["quiver-dot", name, "--flavor", flavor] + (["--finite"] if finite else [])
    return Op("quiver-dot", argv, 0, {"quiver-valid": True},
              lambda data: data["dot"].count(" -> ") == arrows
              and data["dot"].count("[shape=") == nodes)


def _linear_theta(rng: Random, name: str) -> dict:
    """Finite-node polynomials u + v t with v > 0: no projection can vanish identically."""
    n = parse_type(name)[1]
    return {a: [exact.rand_frac(rng), Fraction(rng.randint(1, 3), rng.choice((1, 2)))]
            for a in range(1, n + 1)}


def op_theta_validate(rng: Random, workdir: str, tag: str) -> Op:
    name = rng.choice(["A2", "A4", "D4", "D5", "E6"])
    finite = _linear_theta(rng, name)
    kind = rng.choice(["finite", "complete", "broken"])
    if kind == "finite":
        theta, ok = finite, True
    else:
        theta, ok = _complete(name, finite), True
        if kind == "broken":
            theta[0] = [theta[0][0] + Fraction(rng.choice((1, -1)), rng.randint(1, 3)), theta[0][1]]
            ok = False
    path = _write(workdir, f"{tag}-theta.json", _theta_record(name, theta))
    return Op("theta-validate", ["theta-validate", path], 0 if ok else 1,
              {"marks-weighted-sum-vanishes": ok})


def op_exc_locus(rng: Random, workdir: str, tag: str) -> Op:
    name = rng.choice(["A3", "A5", "D4", "D6", "E6"])
    finite = _linear_theta(rng, name)
    path = _write(workdir, f"{tag}-theta.json", _theta_record(name, finite))
    count = positive_root_count(name)

    def data_check(data) -> bool:
        # each entry: the projection along its root vanishes at its point
        for e in data["entries"]:
            point = e["point"]["re"]
            value = sum(c * (float(finite[a + 1][0]) + float(finite[a + 1][1]) * point)
                        for a, c in enumerate(e["root"]))
            if abs(value) > 1e-6 or abs(e["point"]["im"]) > 1e-9:
                return False
        return len(data["entries"]) == count

    return Op("exc-locus", ["exc-locus", path], 0, {"locus-computed": True}, data_check)


def _loop(rng: Random, d: int, roots: list) -> list:
    """g J g^-1 with J's blocks at the given (root, largest block size) pairs."""
    blocks = []
    left = d
    while left:
        root, most = rng.choice(roots)
        size = rng.randint(1, min(most, left))
        blocks.append((root, size))
        left -= size
    j = exact.block_diag([exact.jordan_block(r, s) for r, s in blocks], [s for _, s in blocks])
    g, ginv = exact.rand_unimodular(rng, d)
    return exact.mul(exact.mul(g, j, d, d, d), ginv, d, d, d)


def _rep_theta(rng: Random, name: str) -> tuple[dict, dict]:
    """Finite-node theta c (t - p)^m (t - q) and, per node, its roots with multiplicity.

    m is 2 at odd nodes and 1 at even ones, so that the degree of theta,
    and with it the cost of checking a batch, does not depend on the draw.
    """
    n = parse_type(name)[1]
    theta, roots = {}, {}
    for a in range(1, n + 1):
        p = exact.rand_frac(rng)
        q = p + Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        m = 1 + a % 2
        poly = [Fraction(rng.choice((1, -1, 2)))]
        for _ in range(m):
            poly = _poly_mul(poly, [-p, Fraction(1)])
        theta[a] = _poly_mul(poly, [-q, Fraction(1)])
        roots[a] = [(p, m), (q, 1)]
    return theta, roots


def make_check_rep_file(rng: Random, name: str, roots: dict, affine: bool,
                        random_arrows: bool, dims: dict | None = None) -> Rep:
    """A representation with random loops on the given roots; dims default
    to 1-3 per finite node and 1-2 at node 0 when affine.  Random arrows
    fill half of the arrows."""
    if dims is None:
        n = parse_type(name)[1]
        dims = {a: rng.randint(1, 3) for a in range(1, n + 1)}
        if affine:
            dims[0] = rng.randint(1, 2)
    rep = Rep(name, dims)
    for a, d in dims.items():
        node_roots = roots.get(a) or [(exact.rand_frac(rng), 1)]
        rep.psi[a] = _loop(rng, d, node_roots)
        if rng.random() < 0.6:
            rep.framing[a] = [[exact.rand_frac(rng) for _ in range(d)]
                              for _ in range(rng.randint(1, 2))]
    if random_arrows:
        arrows = signed_arrows(name, affine)
        for s, t, p, _ in rng.sample(arrows, len(arrows) // 2):
            rep.arrows[(s, t, p)] = exact.rand_matrix(rng, dims[t], dims[s], 2)
    return rep


def check_rep_verdicts(path: str, rep: Rep, theta: dict) -> dict:
    nodes_ok, edges_ok = relations_hold(rep, theta)
    out = {f"{path}: node-relations": nodes_ok, f"{path}: edge-relations": edges_ok}
    if rep.framing or sum(rep.dims.values()) == 0:
        out[f"{path}: nondegenerate"] = nondegenerate(rep)
    if not rep.affine or rep.dims[0] == 0:
        # every loop eigenvalue is a root of its own node polynomial, which is
        # the projection along a simple root: exactly on the locus
        out[f"{path}: support-on-vanishing-locus"] = True
    return out


def op_check_rep(rng: Random, workdir: str, tag: str, name: str) -> Op:
    finite_theta, roots = _rep_theta(rng, name)
    theta = _complete(name, finite_theta)
    theta_path = _write(workdir, f"{tag}-theta.json", _theta_record(name, finite_theta))
    verdicts = {}
    paths = []
    # every batch of a type has the same dimensions (3-6 per finite node, in
    # a random order), every third file affine and every other one with
    # random arrows, so that its cost depends on its type and not on the draw
    n = parse_type(name)[1]
    pattern = [3 + k % 4 for k in range(n)]
    for k in range(BATCH_FILES[name]):
        dims = dict(zip(range(1, n + 1), rng.sample(pattern, n)))
        affine = k % 3 == 1
        if affine:
            dims[0] = 1 + k // 3 % 2
        rep = make_check_rep_file(rng, name, roots, affine=affine, random_arrows=k % 2 == 0,
                                  dims=dims)
        path = _write(workdir, f"{tag}-rep{k}.json", rep.to_dict())
        paths.append(path)
        verdicts.update(check_rep_verdicts(path, rep, theta))
    code = 0 if all(verdicts.values()) else 1
    return Op(f"check-rep-{name}", ["check-rep", "--theta", theta_path] + paths, code,
              verdicts)


def op_nondeg(rng: Random, workdir: str, tag: str) -> Op:
    name = rng.choice(["A3", "D4", "E6"])
    n = parse_type(name)[1]
    rep = make_check_rep_file(rng, name, {a: [(exact.rand_frac(rng), 2)] for a in range(1, n + 1)},
                              affine=rng.random() < 0.5, random_arrows=rng.random() < 0.7)
    ok = nondegenerate(rep)
    path = _write(workdir, f"{tag}-rep.json", rep.to_dict())
    return Op("nondeg", ["nondeg", path], 0 if ok else 1, {"nondegenerate": ok})


def _pointdata_rep(rng: Random) -> tuple[Rep, dict]:
    """Affine A2/A3 representation with rational Jordan loops, and its planted point data."""
    name, dims = rng.choice([("A2", (1, 2, 2)), ("A2", (3, 2, 3)), ("A3", (2, 1, 2, 2))])
    inst = pointdata_roundtrip.make_instance(rng, name, dims)
    r = inst.rep
    rep = Rep(name, dict(r.dims), dict(r.B), dict(r.Psi),
              {a: vs for a, vs in r.I.items() if vs})
    return rep, inst


def _points_json(points: tuple) -> list:
    return [{"support": exact.frac_str(s), "partition": list(parts)} for s, parts in points]


def op_sheafify(rng: Random, workdir: str, tag: str) -> Op:
    rep, inst = _pointdata_rep(rng)
    path = _write(workdir, f"{tag}-rep.json", rep.to_dict())
    argv = ["sheafify", path] + (["--out", f"{tag}-out.json"] if rng.random() < 0.5 else [])
    want = {str(a): _points_json(pts) for a, pts in inst.points.items()}
    return Op("sheafify", argv, 0, {"converted": True},
              lambda data: {a: v["points"] for a, v in data["sheaf"]["nodes"].items()} == want)


def op_matrixify(rng: Random, workdir: str, tag: str) -> Op:
    rep, inst = _pointdata_rep(rng)
    # the planted (unconjugated) data: Jordan loops, intertwiners in the Jordan basis
    name = rep.type
    n = len(rep.dims)
    blocks = {a: [(s, size) for s, sizes in inst.points[a] for size in sizes] for a in range(n)}
    record = {
        "type": name,
        "nodes": {str(a): {"points": _points_json(inst.points[a])} for a in range(n)},
        "arrows": [{"from": s, "to": t, "pair_index": p,
                    "matrix": exact.to_json(pointdata_roundtrip.intertwiner(rng, blocks[t], blocks[s]))}
                   for s, t, p, _ in signed_arrows(name, True)],
        "framing": {},
    }
    path = _write(workdir, f"{tag}-points.json", record)
    argv = ["matrixify", path] + (["--out", f"{tag}-out.json"] if rng.random() < 0.5 else [])
    want = {str(a): exact.to_json(j) for a, j in inst.jordan.items()}
    return Op("matrixify", argv, 0, {"converted": True},
              lambda data: data["representation"]["psi"] == want)


def op_roundtrip(rng: Random, workdir: str, tag: str) -> Op:
    rep, _ = _pointdata_rep(rng)
    path = _write(workdir, f"{tag}-rep.json", rep.to_dict())
    return Op("roundtrip", ["roundtrip", path], 0, {"roundtrip-conjugate-to-input": True},
              lambda data: data["conjugate_to_input"] is True)


def op_monad_check(rng: Random, workdir: str, tag: str, flat: bool) -> Op:
    dims = tuple(rng.randint(1, 3) for _ in range(rng.choice((3, 4))))
    inst = monad_flatness.make_instance(rng, dims, flat, framing_out=False)
    n = len(dims)
    name = f"A{n - 1}"
    rep = Rep(name, dict(inst.dims))
    for a in range(n):
        rep.arrows[(a, (a + 1) % n, 0)] = inst.b1[a]
        rep.arrows[(a, (a - 1) % n, 0)] = inst.b2[a]
        f = inst.framing[a]
        if f:
            rep.framing[a] = [[inst.i_blocks[a][r][c] for r in range(inst.dims[a])]
                              for c in range(f)]
    path = _write(workdir, f"{tag}-rep.json", rep.to_dict())
    lam = ",".join(exact.frac_str(inst.lam[a]) for a in range(n))
    want = {str(a): exact.to_json(inst.defects[a]) for a in range(n)}
    # --lam=... keeps a leading minus sign from reading as an option
    return Op("monad-check", ["monad-check", f"--lam={lam}", path], 0 if inst.flat else 1,
              {"structural-cancellation": True, "matches-node-relation-residuals": True,
               "composite-zero": inst.flat},
              lambda data: data["zz_blocks"] == want)


def make_round(rng: Random, workdir: str, index: int) -> list:
    ops = []

    def tag() -> str:
        return f"r{index}-{len(ops)}"

    for _ in range(2):
        ops.append(op_roots(rng))
        ops.append(op_quiver_dot(rng))
        ops.append(op_theta_validate(rng, workdir, tag()))
        ops.append(op_exc_locus(rng, workdir, tag()))
        ops.append(op_nondeg(rng, workdir, tag()))
        ops.append(op_sheafify(rng, workdir, tag()))
        ops.append(op_matrixify(rng, workdir, tag()))
        ops.append(op_roundtrip(rng, workdir, tag()))
    ops.append(op_monad_check(rng, workdir, tag(), True))
    ops.append(op_monad_check(rng, workdir, tag(), False))
    for name in ("E6", "E7", "E8"):
        ops.append(op_mckay(name))
    # three batches each of A4 and E6, whose batches cost about the same, so
    # that latency_p90_ms falls among equals rather than between types, and
    # on no single batch's draw
    for name in ("A4", "E6") * 3:
        ops.append(op_check_rep(rng, workdir, tag(), name))
    rng.shuffle(ops)
    return ops


def make_defect_probes(rng: Random, workdir: str) -> dict:
    """Inputs that trip known defects of the package: name -> (op, inputs).

    `support-on-defective-loop`: finite A1 loops made of one Jordan block
    of size 3-4 at the simple root 1/3.  The support verdict's truth is a
    pass (the eigenvalue is exactly a vanishing point); the package's
    numeric eigenvalues of a defective matrix miss it by more than the
    tolerance.

    `matrixify-complex-support`: point data with a complex support, which
    the file format documents.  The truth is a report (converted, or
    rejected with exit code 2); the package ends in a traceback.
    """
    theta = {1: [Fraction(-1, 3), Fraction(1)]}           # t - 1/3
    paths, verdicts = [], {}
    for k, size in enumerate((3, 4, 3, 4)):
        g, ginv = exact.rand_invertible(rng, size)
        loop = exact.mul(exact.mul(g, exact.jordan_block(Fraction(1, 3), size), size, size, size),
                         ginv, size, size, size)
        rep = Rep("A1", {1: size}, psi={1: loop})
        path = _write(workdir, f"probe-rep{k}.json", rep.to_dict())
        paths.append(path)
        verdicts[f"{path}: support-on-vanishing-locus"] = True
    theta_path = _write(workdir, "probe-theta.json", _theta_record("A1", theta))
    points = _write(workdir, "probe-points.json", {
        "type": "A2",
        "nodes": {"1": {"points": [{"support": {"re": 0.5, "im": 1.0}, "partition": [1]}]},
                  "2": {"points": [{"support": "1", "partition": [1]}]}},
        "arrows": [], "framing": {},
    })
    return {
        "support-on-defective-loop": (
            Op("probe", ["check-rep", "--theta", theta_path] + paths, 1, verdicts), len(paths)),
        "matrixify-complex-support": (Op("probe", ["matrixify", points], 0, {}), 1),
    }


# -- running children ----------------------------------------------------------------


@dataclass
class Outcome:
    returncode: int | None            # None on timeout
    stdout: str
    wall_s: float
    trace: dict | None = None


class Workload:
    name = "cli-verify"
    why = WHY
    in_process = False

    def __init__(self, root: str, seed: int, pool_rounds: int):
        self.root = root
        self.seed = seed
        self.pool_rounds = pool_rounds
        self.src = os.path.join(root, "src")
        self.workdir = os.path.join(root, "bench", "out", f"cli-verify-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=self.src)

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        rng = Random(f"cli-verify/{self.seed}")
        self.rounds = [make_round(rng, self.workdir, i) for i in range(self.pool_rounds)]
        self.probes = make_defect_probes(rng, self.workdir)

    def warm_up(self) -> None:
        # compiles the package's bytecode and fills the file cache
        for argv in (["roots", "A1"], ["mckay-verify", "A1"]):
            self._spawn(argv, None)

    def _spawn(self, argv: list, trace_path: str | None) -> Outcome:
        if trace_path is None:
            cmd = [sys.executable, "-m", "adequiver"] + argv + ["--json"]
        else:
            launcher = os.path.join(self.root, "bench", "launch.py")
            cmd = [sys.executable, launcher, trace_path] + argv + ["--json"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(None, "", time.perf_counter() - t0)
        return Outcome(proc.returncode, proc.stdout, time.perf_counter() - t0)

    def run(self, op: Op, trace_path: str | None = None) -> Outcome:
        out = self._spawn(op.argv, trace_path)
        if trace_path is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                out.trace = json.load(fh)
            os.remove(trace_path)
        return out

    def check(self, op: Op, out: Outcome) -> bool:
        if out.returncode != op.exit_code:
            return False
        try:
            report = json.loads(out.stdout)
        except json.JSONDecodeError:
            return False
        got = {v["name"]: v["passed"] for v in report["verdicts"]}
        if report["exit_code"] != op.exit_code or got != op.verdicts:
            return False
        return op.data_check is None or bool(op.data_check(report["data"]))

    def run_probes(self) -> dict:
        """Per known defect: how many of its probe inputs got a wrong answer."""
        out = {}
        for name, (op, inputs) in self.probes.items():
            result = self.run(op)
            try:
                report = json.loads(result.stdout)
            except json.JSONDecodeError:
                out[name] = {"inputs": inputs, "wrong": inputs}
                continue
            got = {v["name"]: v["passed"] for v in report["verdicts"]}
            out[name] = {"inputs": inputs,
                         "wrong": sum(1 for v, want in op.verdicts.items() if got.get(v) != want)}
        return out

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
