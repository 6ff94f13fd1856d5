"""The golden corpus against `oracle`, which decides the same questions without the package:
every node-relations, edge-relations, nondegenerate and support-on-vanishing-locus verdict
of check-rep, every nondegenerate verdict of nondeg, every marks-weighted-sum-vanishes
verdict of theta-validate, every matches-node-relation-residuals and composite-zero
verdict of monad-check, with the zz blocks monad-check prints, and every
count-matches-closed-form and highest-root-equals-finite-marks verdict of roots, with the
marks, count, roots and highest root roots prints.  A disagreement is a defect of the
package or of the oracle, never a reason to edit an expected file."""

import json
from fractions import Fraction

import oracle
from golden.regenerate import HERE, calls

FAMILIES = ("node-relations", "edge-relations", "nondegenerate", "marks-weighted-sum-vanishes",
            "matches-node-relation-residuals", "composite-zero", "support-on-vanishing-locus",
            "count-matches-closed-form", "highest-root-equals-finite-marks")


def test_the_oracle_rederives_the_verdicts_of_the_corpus():
    seen = {"check-rep": 0, "monad-check": 0, "nondeg": 0, "theta-validate": 0, "roots": 0}
    disagree = []
    for name, argv, filename in calls():
        if argv[0] not in seen or "--json" not in argv:
            continue
        report = json.loads((HERE / "expected" / filename).read_text())
        got = {v["name"]: v["passed"] for v in report["verdicts"]}
        want = {}
        if argv[0] == "check-rep":
            for entry in report["data"].get("files", []):
                want.update(oracle.check_rep(argv, entry["path"], HERE))
        elif argv[0] == "monad-check" and "composite_zero" in report["data"]:
            want, zz = oracle.monad_check(argv, HERE)
            printed = {a: [[Fraction(x) for x in row] for row in rows]
                       for a, rows in report["data"]["zz_blocks"].items()}
            if printed != {a: m.tolist() for a, m in zz.items()}:
                disagree.append((name, "zz_blocks"))
        elif argv[0] == "nondeg" and "nondegenerate" in report["data"]:
            want = oracle.nondeg(argv, HERE)
        elif argv[0] == "theta-validate" and "constrained" in report["data"]:
            want = oracle.theta_validate(argv, HERE)
        elif argv[0] == "roots" and "count" in report["data"]:
            want, data = oracle.roots(argv)
            printed = {k: sorted(map(tuple, v)) if k == "roots" else v
                       for k, v in report["data"].items() if k in data}
            if printed != data:
                disagree.append((name, "data"))
        # every verdict of these families is re-derived, and no other is claimed
        ours = sorted(k for k in got if k.split(": ")[-1] in FAMILIES)
        if ours != sorted(want):
            disagree.append((name, "verdicts", ours, sorted(want)))
        disagree += [(name, k, got[k]) for k in want if k in got and got[k] != want[k]]
        seen[argv[0]] += len(want)
    assert disagree == []
    assert seen["check-rep"] >= 139 and seen["monad-check"] >= 10
    assert seen["nondeg"] >= 8 and seen["theta-validate"] >= 4 and seen["roots"] >= 8
