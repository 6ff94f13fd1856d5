"""End-to-end acceptance checks for the package contract.

One test per criterion; each prints a single [criterion N] line, so a
verbose run reads as a checklist.  Random data is seeded and all
comparisons are exact unless a tolerance is part of the contract.
"""

import random
import time
from fractions import Fraction

import numpy as np

from adequiver import adhm, deformation, dynkin, gamma, linalg, monad, sheaf
from adequiver.deformation import Polynomial, complete_affine_theta
from adequiver.dynkin import DynkinType

from helpers import (
    finite_pair_example,
    rand_frac,
    rand_invertible,
    rand_matrix,
    sympy_intertwiners,
    worked_cycle_example,
)

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
             "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]

# closed forms, written down independently of the library
EXPECTED_GROUP_ORDER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "D4": 8, "D5": 12, "D6": 16, "D7": 20, "D8": 24,
    "E6": 24, "E7": 48, "E8": 120,
}
EXPECTED_ROOT_COUNT = {
    **{f"A{n}": n * (n + 1) // 2 for n in range(1, 9)},
    **{f"D{n}": n * (n - 1) for n in range(4, 9)},
    "E6": 36, "E7": 63, "E8": 120,
}

_cache: dict = {}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: group orders ------------------------------------------------

def test_criterion_1_group_orders_match_marks():
    t0 = time.monotonic()
    bad = []
    for name in ALL_TYPES:
        t = DynkinType.parse(name)
        g = gamma.enumerate_group(t)
        want = sum(d * d for d in dynkin.marks(t).delta)
        if not (g.order == want == EXPECTED_GROUP_ORDER[name]):
            bad.append(f"{name}: {g.order} vs {want}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 2.0
    _report(1, "group order equals sum of squared marks (16 types)", ok,
            f"{elapsed:.2f}s" + ("; " + "; ".join(bad) if bad else ""))


# -- criterion 2: root systems ------------------------------------------------

def test_criterion_2_root_counts_and_highest_root():
    bad = []
    for name in ALL_TYPES:
        t = DynkinType.parse(name)
        roots = dynkin.positive_roots(t)
        if len(roots) != EXPECTED_ROOT_COUNT[name]:
            bad.append(f"{name}: {len(roots)} roots")
            continue
        if len(set(roots)) != len(roots):
            bad.append(f"{name}: duplicates")
            continue
        highest = dynkin.highest_root(t)
        # the height maximum must be unique and sit at the finite marks
        top = max(roots, key=lambda r: r.height)
        ties = [r for r in roots if r.height == top.height]
        if len(ties) != 1 or ties[0] != highest:
            bad.append(f"{name}: highest root not the unique height maximum")
        if highest.coefficients != tuple(dynkin.marks(t).delta[1:]):
            bad.append(f"{name}: highest root differs from finite marks")
    _report(2, "positive root counts and highest roots (16 types)", not bad,
            "; ".join(bad) if bad else "counts and maxima as expected")


# -- criterion 3: graph recovery ----------------------------------------------

def test_criterion_3_mckay_graph_recovery():
    bad = []
    worst = 0.0
    for name in ALL_TYPES:
        t = DynkinType.parse(name)
        g = gamma.enumerate_group(t)
        table = gamma.character_table(g)
        adj = gamma.mckay_adjacency(g, table)
        # independent recomputation of the multiplicities, kept as floats
        chi_q = np.array([np.trace(g.elements[r].m) for r in table.class_reps])
        weights = table.class_sizes.astype(float) * chi_q
        raw = np.einsum("j,aj,bj->ab", weights, table.chars, table.chars.conj()) / g.order
        dev = float(np.max(np.abs(raw - np.round(raw.real))))
        worst = max(worst, dev)
        if dev > 1e-6:
            bad.append(f"{name}: multiplicity deviation {dev:.2e}")
            continue
        iso = gamma.find_labeled_isomorphism(
            adj, [int(d) for d in table.dims],
            dynkin.adjacency_matrix(t, affine=True), list(dynkin.marks(t).delta),
        )
        if iso is None:
            bad.append(f"{name}: no degree-respecting relabelling")
    _report(3, "tensor-multiplicity graph matches the affine diagram (16 types)",
            not bad, f"worst integrality deviation {worst:.1e}"
            + ("; " + "; ".join(bad) if bad else ""))


# -- criterion 4: monad flatness oracle ----------------------------------------

def _blockwise_defects(rank, b1, b2, ib, jb, lam, dims, fr):
    """Independent per-node expansion of the quadratic term."""
    n = rank + 1

    def get(tbl, a, r, c):
        m = tbl.get(a)
        return linalg.matrix(m) if m is not None else linalg.zeros(r, c)

    def mul(p, q, out_dim, inner):
        return linalg.mat_mul(p, q) if inner else linalg.zeros(out_dim)

    out = {}
    for a in range(n):
        up, dn = (a + 1) % n, (a - 1) % n
        d = dims[a]
        acc = mul(get(b2, up, d, dims[up]), get(b1, a, dims[up], d), d, dims[up])
        acc = linalg.mat_sub(
            acc, mul(get(b1, dn, d, dims[dn]), get(b2, a, dims[dn], d), d, dims[dn])
        )
        acc = linalg.mat_add(
            acc, mul(get(ib, a, d, fr[a]), get(jb, a, fr[a], d), d, fr[a])
        )
        out[a] = linalg.mat_add(acc, linalg.mat_scale(lam[a], linalg.identity(d)))
    return out


def _poly_of_matrix(rng, m):
    d = len(m)
    acc = linalg.mat_scale(rand_frac(rng), linalg.identity(d))
    power = linalg.identity(d)
    for _ in range(2):
        power = linalg.mat_mul(power, m)
        acc = linalg.mat_add(acc, linalg.mat_scale(rand_frac(rng), power))
    return acc


def _crit4_instances():
    if "crit4" in _cache:
        return _cache["crit4"]
    rng = random.Random(20240)
    instances = []
    for rank in range(4):
        n = rank + 1
        for k in range(120):
            if k < 30:
                # scalar cycle, lam chosen to close every node relation
                dims = {a: 1 for a in range(n)}
                fr = {a: rng.randrange(2) for a in range(n)}
                b1 = {a: [[rand_frac(rng)]] for a in range(n)}
                b2 = {a: [[rand_frac(rng)]] for a in range(n)}
                ib = {a: rand_matrix(rng, 1, fr[a]) for a in range(n) if fr[a]}
                jb = {a: rand_matrix(rng, fr[a], 1) for a in range(n) if fr[a]}
                lam = {}
                for a in range(n):
                    up, dn = (a + 1) % n, (a - 1) % n
                    word = b2[up][0][0] * b1[a][0][0] - b1[dn][0][0] * b2[a][0][0]
                    ij = sum(
                        ib[a][0][c] * jb[a][c][0] for c in range(fr[a])
                    ) if fr[a] else Fraction(0)
                    lam[a] = -(word + ij)
            elif k < 60:
                # equal dims, second family a polynomial in the first: commuting
                d = rng.randint(1, 3)
                dims = {a: d for a in range(n)}
                fr = {a: rng.randrange(3) for a in range(n)}
                seed_mat = rand_matrix(rng, d, d)
                b1 = {a: [row[:] for row in seed_mat] for a in range(n)}
                com = _poly_of_matrix(rng, seed_mat)
                b2 = {a: [row[:] for row in com] for a in range(n)}
                ib = {a: rand_matrix(rng, d, fr[a]) for a in range(n) if fr[a]}
                jb = {}
                lam = {a: Fraction(0) for a in range(n)}
            else:
                # unconstrained draw, generically violating
                dims = {a: rng.randrange(4) for a in range(n)}
                fr = {a: rng.randrange(3) for a in range(n)}
                b1 = {a: rand_matrix(rng, dims[(a + 1) % n], dims[a]) for a in range(n)}
                b2 = {a: rand_matrix(rng, dims[(a - 1) % n], dims[a]) for a in range(n)}
                ib = {a: rand_matrix(rng, dims[a], fr[a]) for a in range(n)}
                jb = {a: rand_matrix(rng, fr[a], dims[a]) for a in range(n)}
                lam = {a: rand_frac(rng) for a in range(n)}
            instances.append({
                "rank": rank, "dims": dims, "fr": fr,
                "b1": b1, "b2": b2, "ib": ib, "jb": jb, "lam": lam,
            })
    _cache["crit4"] = instances
    return instances


def test_criterion_4_monad_flatness_oracle():
    t0 = time.monotonic()
    per_rank = {r: 0 for r in range(4)}
    verdict_counts = {True: 0, False: 0}
    satisfying = []
    bad = []
    for inst in _crit4_instances():
        m = monad.build_monad(
            inst["rank"], inst["b1"], inst["b2"], inst["ib"], inst["jb"],
            inst["lam"], inst["dims"], inst["fr"],
        )
        composite, verdict = monad.compose_and_check(m)
        structural = all(
            linalg.is_zero_matrix(composite.coefficient(mono))
            for mono in monad.STRUCTURAL_ZERO_MONOMIALS
        )
        want = _blockwise_defects(
            inst["rank"], inst["b1"], inst["b2"], inst["ib"], inst["jb"],
            inst["lam"], inst["dims"], inst["fr"],
        )
        oracle_zero = all(linalg.is_zero_matrix(v) for v in want.values())
        got = monad.node_relation_defects(m)
        if not structural:
            bad.append("structural coefficient survived")
        if got != want:
            bad.append("quadratic blocks differ from the blockwise expansion")
        if verdict != oracle_zero:
            bad.append("verdict disagrees with the independent expansion")
        if bad:
            break
        per_rank[inst["rank"]] += 1
        verdict_counts[verdict] += 1
        if verdict:
            satisfying.append(inst)
    elapsed = time.monotonic() - t0
    _cache["crit4_satisfying"] = satisfying
    ok = (not bad
          and all(per_rank[r] >= 100 for r in range(4))
          and verdict_counts[True] >= 100 and verdict_counts[False] >= 100
          and elapsed < 10.0)
    _report(4, "two-term composites: structural cancellation and flatness oracle", ok,
            f"{sum(per_rank.values())} instances, "
            f"{verdict_counts[True]} flat / {verdict_counts[False]} obstructed, "
            f"{elapsed:.2f}s" + ("; " + bad[0] if bad else ""))


# -- criterion 5: point-data round trips ---------------------------------------

def _random_point_data(rng):
    while True:
        count = rng.randint(1, 3)
        supports = set()
        while len(supports) < count:
            supports.add(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
        points = [
            (s, [rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
            for s in supports
        ]
        data = sheaf.TorsionSheafData.of(points)
        if data.dimension <= 8:
            return data


def test_criterion_5_point_data_roundtrips():
    rng = random.Random(515)
    trips = 0
    bad = []
    for _ in range(100):
        planted = _random_point_data(rng)
        n, j = sheaf.sheaf_to_endo(planted)
        if sheaf.endo_to_sheaf(j) != planted:
            bad.append("normal form did not reproduce the planted data")
            break
        g = rand_invertible(rng, n)
        moved = linalg.mat_mul(linalg.inverse(g), linalg.mat_mul(j, g))
        if sheaf.endo_to_sheaf(moved) != planted:
            bad.append("conjugated matrix classified differently")
            break
        j2, h = linalg.jordan_form(moved)
        if not linalg.mat_eq(j2, j):
            bad.append("normal forms disagree")
            break
        if not linalg.mat_eq(linalg.mat_mul(h, moved),
                             linalg.mat_mul(j2, h)):
            bad.append("returned base change does not intertwine")
            break
        trips += 1
    _report(5, "endomorphism and point data round trips", not bad and trips >= 100,
            f"{trips} round trips, all exact" + ("; " + bad[0] if bad else ""))


# -- criterion 6: representation round trips -----------------------------------

def _rand_jordan(rng, d):
    blocks = []
    left = d
    while left > 0:
        size = rng.randint(1, min(3, left))
        ev = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        blocks.append([
            [ev if i == j else (Fraction(1) if j == i + 1 else Fraction(0))
             for j in range(size)]
            for i in range(size)
        ])
        left -= size
    return linalg.block_diag(blocks) if blocks else []


def _crit6_reps():
    if "crit6" in _cache:
        return _cache["crit6"]
    rng = random.Random(660)
    t = DynkinType.parse("A2")
    _, theta = worked_cycle_example()
    reps = []
    while len(reps) < 50:
        dims = {a: rng.randrange(4) for a in range(3)}
        psi = {a: _rand_jordan(rng, dims[a]) for a in range(3)}
        b = {}
        for key in [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0), (2, 0, 0), (0, 2, 0)]:
            src, tgt, _ = key
            if dims[src] == 0 or dims[tgt] == 0:
                continue
            basis = sympy_intertwiners(psi[tgt], psi[src])
            if not basis:
                continue
            acc = linalg.zeros(dims[tgt], dims[src])
            for elem in basis:
                acc = linalg.mat_add(acc, linalg.mat_scale(rand_frac(rng, 2), elem))
            b[key] = acc
        fr = rng.randrange(3) if dims[0] else 0
        rep = adhm.N1Representation(
            t, dims, b, psi,
            framing_ranks={0: fr, 1: 0, 2: 0},
            I={0: [[rand_frac(rng) for _ in range(dims[0])] for _ in range(fr)]},
        )
        g0 = {a: rand_invertible(rng, dims[a]) for a in range(3)}
        reps.append((adhm.conjugate(rep, g0), theta))
    _cache["crit6"] = reps
    return reps


def test_criterion_6_representation_roundtrips():
    bad = []
    trips = 0
    for rep, theta in _crit6_reps():
        before = adhm.check_relations(rep, theta)
        if not before.edges_zero:
            bad.append("planted representation failed the edge relations")
            break
        data, g = sheaf.quadruple_to_quintuple(rep)
        back = sheaf.quintuple_to_quadruple(data)
        if back != adhm.conjugate(rep, g):
            bad.append("round trip is not the returned base change")
            break
        after = adhm.check_relations(back, theta)
        moved = {
            a: linalg.mat_mul(
                linalg.matrix(g[a]),
                linalg.mat_mul(before.node_residuals[a], linalg.inverse(linalg.matrix(g[a]))),
            )
            for a in before.node_residuals
        }
        if after.node_residuals != moved:
            bad.append("node residuals were not transported by the base change")
            break
        trips += 1
    _report(6, "matrix data through point data and back, exactly conjugate",
            not bad and trips >= 50,
            f"{trips} round trips" + ("; " + bad[0] if bad else ""))


# -- criterion 7: trace identity -----------------------------------------------

def test_criterion_7_trace_identity():
    _crit4_satisfying = _cache.get("crit4_satisfying")
    if _crit4_satisfying is None:
        test_criterion_4_monad_flatness_oracle()
        _crit4_satisfying = _cache["crit4_satisfying"]
    bad = []
    checked = 0
    for inst in _crit4_satisfying:
        n = inst["rank"] + 1
        total = sum(inst["lam"][a] * inst["dims"][a] for a in range(n))
        for a in range(n):
            if inst["fr"].get(a) and a in inst["ib"] and a in inst["jb"]:
                total += linalg.trace(linalg.mat_mul(
                    linalg.matrix(inst["ib"][a]), linalg.matrix(inst["jb"][a])
                ))
        if total != 0:
            bad.append("fiberwise weighted sum is nonzero on a flat instance")
            break
        checked += 1
    if not bad:
        for rep, theta in _crit6_reps():
            res = adhm.check_relations(rep, theta)
            residual_trace = sum(
                (linalg.trace(m) for m in res.node_residuals.values()),
                Fraction(0),
            )
            defect = adhm.trace_identity_defect(rep, theta)
            if residual_trace != defect:
                bad.append("arrow words did not telescope out of the total trace")
                break
            if res.nodes_zero and defect != 0:
                bad.append("satisfying representation has nonzero trace defect")
                break
            checked += 1
    if not bad:
        for rep, theta in (worked_cycle_example(), finite_pair_example()):
            if adhm.trace_identity_defect(rep, theta) != 0:
                bad.append("worked fixture has nonzero trace defect")
                break
            checked += 1
    _report(7, "weighted trace identity on relation-satisfying data",
            not bad and checked >= 150,
            f"{checked} instances, all exact" + ("; " + bad[0] if bad else ""))


# -- criterion 8: worked rank-2 suite -------------------------------------------

def test_criterion_8_worked_suite():
    t = DynkinType.parse("A2")
    var = Polynomial.variable()
    bad = []

    rep, theta = worked_cycle_example()
    if not adhm.check_relations(rep, theta).is_zero or not adhm.is_nondegenerate(rep):
        bad.append("cyclic fixture fails its relations")

    fin, theta = finite_pair_example()
    if not adhm.check_relations(fin, theta).is_zero:
        bad.append("finite fixture fails its relations")
    # every loop eigenvalue must sit within 1e-6 of a vanishing point of
    # some positive-root projection; computed here from the raw polynomials
    roots = dynkin.positive_roots(t)
    locus_points = []
    for r in roots:
        p = deformation.theta_of_root(theta, r)
        if p.degree > 0:
            locus_points.extend(z for z, _ in deformation.poly_roots(p))
    for a, eigs in adhm.support(fin).items():
        for point in eigs:
            dist = min(abs(point - z) for z in locus_points)
            if dist > 1e-6:
                bad.append(f"support point {point} is {dist:.2e} from the locus")
    if not adhm.check_support_property(fin, theta, tol=1e-6).ok:
        bad.append("support report disagrees")

    generic_cases = [
        (complete_affine_theta(t, {1: var, 2: var - Polynomial.constant(1)}), True),
        (complete_affine_theta(t, {1: var, 2: var}), False),
        (complete_affine_theta(DynkinType.parse("A1"), {1: var * var}), False),
    ]
    for d, want in generic_cases:
        if deformation.is_generic(d) != want:
            bad.append(f"genericity of {d.theta} misjudged")

    _report(8, "worked rank-2 suite: relations, support locus, genericity",
            not bad, "; ".join(bad) if bad else
            "support within 1e-6 of the locus; genericity verdicts as expected")


# -- criterion 9: conjugation invariance ----------------------------------------

def test_criterion_9_conjugation_invariance():
    rng = random.Random(90)
    rep, theta = worked_cycle_example()
    bare = adhm.N1Representation(rep.type, dict(rep.dims), dict(rep.B))
    violating = adhm.N1Representation(
        rep.type, dict(rep.dims),
        {(0, 1, 0): [[1]], (2, 0, 0): [[2]], (0, 2, 0): [[1]]},
        framing_ranks=dict(rep.framing_ranks), I={0: [[1]]},
    )
    fin, fin_theta = finite_pair_example()
    fixtures = [
        (rep, theta), (fin, fin_theta), (violating, theta),
        (adhm.direct_sum(rep, rep), theta),
        (adhm.direct_sum(rep, bare), theta),
    ]
    bad = []
    total = 0
    for fx, th in fixtures:
        base = adhm.check_relations(fx, th)
        base_nodes = {a: linalg.is_zero_matrix(m) for a, m in base.node_residuals.items()}
        base_edges = {k: linalg.is_zero_matrix(m) for k, m in base.edge_residuals.items()}
        base_nondeg = adhm.is_nondegenerate(fx)
        for _ in range(20):
            g = {a: rand_invertible(rng, fx.dims[a]) for a in fx.dims}
            moved = adhm.conjugate(fx, g)
            res = adhm.check_relations(moved, th)
            if {a: linalg.is_zero_matrix(m) for a, m in res.node_residuals.items()} != base_nodes:
                bad.append("node residual status changed under conjugation")
                break
            if {k: linalg.is_zero_matrix(m) for k, m in res.edge_residuals.items()} != base_edges:
                bad.append("edge residual status changed under conjugation")
                break
            if adhm.is_nondegenerate(moved) != base_nondeg:
                bad.append("non-degeneracy changed under conjugation")
                break
            total += 1
        if bad:
            break
    _report(9, "residual statuses and non-degeneracy are basis independent",
            not bad and total == 20 * len(fixtures),
            f"{total} conjugations over {len(fixtures)} fixtures"
            + ("; " + bad[0] if bad else ""))
