"""Command line surface: scriptable verification over the library.

One executable, one subcommand per check.  Reports carry the command
name, sha256 digests of every input file, and a list of named verdicts;
exit code 0 means every verdict passed, 1 means some check failed or a
computation gave up, 2 means the input was malformed or unsupported.
Identical inputs (and --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import adhm, deformation, dynkin, linalg, monad, quiver, sheaf
from . import io as fileio


def _kebab(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _fmt_complex(z) -> str:
    z = complex(z)
    re_, im = z.real + 0.0, z.imag + 0.0
    if abs(im) < 1e-12:
        return f"{re_:.10g}"
    return f"{re_:.10g}{im:+.10g}j"


def _fmt_matrix(m) -> str:
    if not m or not m[0]:
        return "(empty)"
    return "[" + "; ".join(" ".join(fileio.frac_to_str(x) for x in row) for row in m) + "]"


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    command: str
    inputs: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    forced_exit: int | None = None

    def add_input(self, path: str) -> None:
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as e:
            raise fileio.SchemaError(f"cannot read {path}: {e}") from None
        self.inputs.append({"path": path, "sha256": digest})

    def say(self, line: str) -> None:
        self.lines.append(line)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.verdicts.append(Verdict(name, bool(passed), detail))
        return bool(passed)

    @property
    def exit_code(self) -> int:
        if self.forced_exit is not None:
            return self.forced_exit
        return 0 if all(v.passed for v in self.verdicts) else 1

    def to_json(self) -> str:
        record = {
            "command": self.command,
            "inputs": self.inputs,
            "data": self.data,
            "verdicts": [
                {"name": v.name, "passed": v.passed, "detail": v.detail}
                for v in self.verdicts
            ],
            "notes": self.notes,
            "exit_code": self.exit_code,
        }
        return json.dumps(record, indent=2)

    def to_human(self) -> str:
        out = [f"adequiver {self.command}"]
        for rec in self.inputs:
            out.append(f"input {rec['path']}  sha256 {rec['sha256']}")
        out.extend(self.lines)
        for v in self.verdicts:
            mark = "pass" if v.passed else "FAIL"
            out.append(f"check {v.name}: {mark}" + (f"  ({v.detail})" if v.detail else ""))
        for n in self.notes:
            out.append(f"note: {n}")
        out.append(f"exit code {self.exit_code}")
        return "\n".join(out)


# -- roots -------------------------------------------------------------------

def cmd_roots(args, report: RunReport) -> None:
    t = dynkin.DynkinType.parse(args.type)
    delta = dynkin.marks(t)
    roots = dynkin.positive_roots(t)
    highest = dynkin.highest_root(t)
    finite_marks = delta.delta[1:]
    report.say(f"type {t}")
    report.say("marks " + " ".join(str(d) for d in delta.delta)
               + f"  (sum of squares {delta.group_order})")
    report.say(f"positive roots ({len(roots)}):")
    for r in roots:
        report.say("  (" + ", ".join(str(c) for c in r.coefficients) + f")  height {r.height}")
    report.say("highest root (" + ", ".join(str(c) for c in highest.coefficients) + ")")
    report.data = {
        "type": str(t),
        "marks": list(delta.delta),
        "group_order": delta.group_order,
        "count": len(roots),
        "roots": [list(r.coefficients) for r in roots],
        "highest_root": list(highest.coefficients),
    }
    report.check("count-matches-closed-form",
                 len(roots) == dynkin.positive_root_count(t),
                 f"{len(roots)} enumerated")
    report.check("highest-root-equals-finite-marks",
                 highest.coefficients == finite_marks,
                 f"{highest.coefficients}")


# -- mckay-verify ------------------------------------------------------------

def cmd_mckay_verify(args, report: RunReport) -> None:
    from . import gamma  # numeric throughout: loads numpy, which no other command needs

    t = dynkin.DynkinType.parse(args.type)
    delta = dynkin.marks(t)
    g = gamma.enumerate_group(t)
    table = gamma.character_table(g, seed=args.seed)
    tol = args.tol if args.tol is not None else 1e-6
    adj, deviation = gamma.mckay_multiplicities(g, table, tol)
    iso = gamma.find_labeled_isomorphism(
        adj, [int(d) for d in table.dims],
        dynkin.adjacency_matrix(t, affine=True), list(delta.delta),
    )
    report.say(f"type {t}")
    report.say(f"group order {g.order}")
    report.say(f"conjugacy classes {len(g.classes)}")
    report.say("character degrees " + " ".join(str(int(d)) for d in table.dims))
    report.data = {
        "type": str(t),
        "order": g.order,
        "sum_of_squared_marks": delta.group_order,
        "class_count": len(g.classes),
        "degrees": [int(d) for d in table.dims],
        "adjacency": adj,
        "isomorphism": iso,
    }
    report.check("order-equals-sum-of-squared-marks",
                 g.order == delta.group_order,
                 f"{g.order} vs {delta.group_order}")
    report.check("multiplicities-integral", deviation <= tol,
                 f"largest deviation {deviation:.1e}, tol {tol:g}")
    report.check("graph-matches-affine-diagram", iso is not None,
                 "degree-respecting relabelling found" if iso else "no relabelling exists")


# -- quiver-dot --------------------------------------------------------------

def cmd_quiver_dot(args, report: RunReport) -> None:
    t = dynkin.DynkinType.parse(args.type)
    affine = not args.finite
    builders = {
        quiver.MCKAY: quiver.build_mckay_quiver,
        quiver.EXTENDED: quiver.build_extended_quiver,
        quiver.N1: quiver.build_n1_quiver,
    }
    q = builders[args.flavor](t, affine)
    quiver.validate_quiver(q)
    dot = quiver.to_dot(q)
    report.say(dot)
    report.data = {"type": str(t), "flavor": args.flavor, "affine": affine, "dot": dot}
    report.check("quiver-valid", True,
                 f"{len(q.nodes)} nodes, {len(q.arrows)} arrows")


# -- theta-validate ----------------------------------------------------------

def cmd_theta_validate(args, report: RunReport) -> None:
    report.add_input(args.file)
    record = fileio.read_json(args.file)
    given_affine = isinstance(record, dict) and "0" in record.get("theta", {})
    d = fileio.deformation_from_dict(record)
    delta = dynkin.marks(d.type)
    for a in sorted(d.theta):
        coeffs = " ".join(fileio.frac_to_str(c) for c in d.theta[a].coefficients) or "0"
        report.say(f"node {a}: degree {d.theta[a].degree}, coefficients {coeffs}")
    if not given_affine:
        report.note("node 0 polynomial completed from the marks constraint")
    report.data = fileio.deformation_to_dict(d)
    report.data["marks"] = list(delta.delta)
    report.check("marks-weighted-sum-vanishes", d.constrained,
                 "sum_a delta_a * theta_a = 0" if d.constrained
                 else "weighted sum is nonzero")


# -- exc-locus ---------------------------------------------------------------

def cmd_exc_locus(args, report: RunReport) -> None:
    report.add_input(args.file)
    d = fileio.load_deformation(args.file)
    tol = args.tol if args.tol is not None else 1e-8
    locus = deformation.exceptional_locus(d, tol)
    generic = deformation.is_generic(d, tol)
    report.say(f"type {d.type}, {len(locus.entries)} locus points")
    for e in locus.entries:
        root = "(" + ", ".join(str(c) for c in e.root.coefficients) + ")"
        report.say(f"  point {_fmt_complex(e.point)}  root {root}  multiplicity {e.multiplicity}")
    report.data = {
        "type": str(d.type),
        "entries": [
            {
                "point": {"re": complex(e.point).real, "im": complex(e.point).imag},
                "root": list(e.root.coefficients),
                "multiplicity": e.multiplicity,
            }
            for e in locus.entries
        ],
        "generic": generic,
    }
    report.check("locus-computed", True, f"{len(locus.entries)} points")
    report.note("generic: " + ("yes" if generic else
                               "no (repeated or shared vanishing point)"))


# -- check-rep ---------------------------------------------------------------

def _check_one_rep(path: str, theta: deformation.DeformationParam, tol: float):
    try:
        rep = fileio.load_representation(path)
    except fileio.SchemaError as e:
        raise fileio.SchemaError(f"{path}: {e}") from None
    residual = adhm.check_relations(rep, theta)
    framed = any(r > 0 for r in rep.framing_ranks.values())
    nondeg = adhm.is_nondegenerate(rep) if framed or rep.total_dim == 0 else None
    support_report = None
    if not rep.affine or rep.dims.get(0, 0) == 0:
        support_report = adhm.check_support_property(rep, theta, tol)
    return rep, residual, nondeg, support_report


def cmd_check_rep(args, report: RunReport) -> None:
    report.add_input(args.theta)
    for path in args.files:
        report.add_input(path)
    theta = fileio.load_deformation(args.theta)
    tol = args.tol if args.tol is not None else 1e-6
    # every file is checked before any is reported, so one bad file leaves no partial report
    results = [_check_one_rep(path, theta, tol) for path in args.files]
    per_file = []
    for path, (rep, residual, nondeg, support_report) in zip(args.files, results):
        report.say(f"-- {path} (type {rep.type}, total dimension {rep.total_dim})")
        for a in sorted(residual.node_residuals):
            m = residual.node_residuals[a]
            text = "0" if linalg.is_zero_matrix(m) else _fmt_matrix(m)
            report.say(f"node {a} residual: {text}")
        for key in sorted(residual.edge_residuals):
            m = residual.edge_residuals[key]
            if not linalg.is_zero_matrix(m):
                report.say(f"edge {key} residual: {_fmt_matrix(m)}")
        entry = {
            "path": path,
            "node_residuals": {
                str(a): ("0" if linalg.is_zero_matrix(m) else fileio.matrix_to_json(m))
                for a, m in sorted(residual.node_residuals.items())
            },
            "edges_zero": residual.edges_zero,
        }
        report.check(f"{path}: node-relations", residual.nodes_zero,
                     "all node residuals vanish" if residual.nodes_zero
                     else "some node residual is nonzero")
        report.check(f"{path}: edge-relations", residual.edges_zero,
                     "all loop intertwiners commute" if residual.edges_zero
                     else "some edge residual is nonzero")
        if nondeg is None:
            report.note(f"{path}: non-degeneracy skipped (no framing)")
        else:
            entry["nondegenerate"] = nondeg
            report.check(f"{path}: nondegenerate", nondeg,
                         "framing generates everything" if nondeg
                         else "a proper invariant collection survives")
        if support_report is None:
            report.note(f"{path}: support check skipped (node 0 occupied)")
        else:
            entry["support_ok"] = support_report.ok
            for row in support_report.rows:
                root = "(" + ", ".join(str(c) for c in row.best_root) + ")"
                report.say(
                    f"support node {row.node} point {_fmt_complex(row.point)}: "
                    f"nearest projection {root} value {row.best_value:.3e}"
                )
            report.check(f"{path}: support-on-vanishing-locus", support_report.ok,
                         f"{len(support_report.rows)} eigenvalues examined")
        per_file.append(entry)
    report.data = {"theta": fileio.deformation_to_dict(theta), "files": per_file}


# -- nondeg ------------------------------------------------------------------

def cmd_nondeg(args, report: RunReport) -> None:
    report.add_input(args.file)
    rep = fileio.load_representation(args.file)
    verdict = adhm.is_nondegenerate(rep)
    report.say(f"type {rep.type}, dims " +
               " ".join(f"{a}:{rep.dims[a]}" for a in sorted(rep.dims)))
    report.say("framing ranks " +
               " ".join(f"{a}:{rep.framing_ranks[a]}" for a in sorted(rep.framing_ranks)))
    report.data = {
        "type": str(rep.type),
        "dims": {str(a): rep.dims[a] for a in sorted(rep.dims)},
        "nondegenerate": verdict,
    }
    report.check("nondegenerate", verdict,
                 "framing generates everything under arrows and loops" if verdict
                 else "a proper invariant collection contains the framing")


# -- sheafify / matrixify / roundtrip ---------------------------------------

def cmd_sheafify(args, report: RunReport) -> None:
    report.add_input(args.file)
    rep = fileio.load_representation(args.file)
    data, g = sheaf.quadruple_to_quintuple(rep)
    record = fileio.sheaf_data_to_dict(data)
    for a in sorted(data.node_sheaves):
        pts = data.node_sheaves[a].points
        if not pts:
            report.say(f"node {a}: empty")
            continue
        desc = ", ".join(
            f"point {_fmt_complex(s) if not isinstance(s, Fraction) else fileio.frac_to_str(s)}"
            f" partition {tuple(parts)}"
            for s, parts in pts
        )
        report.say(f"node {a}: {desc}")
    report.data = {
        "sheaf": record,
        "base_changes": {str(a): fileio.matrix_to_json(m) for a, m in sorted(g.items())},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fileio.dump_json(record))
        report.note(f"sheaf data written to {args.out}")
    report.check("converted", True, "loops reduced to point data")


def cmd_matrixify(args, report: RunReport) -> None:
    report.add_input(args.file)
    data = fileio.load_sheaf_data(args.file)
    rep = sheaf.quintuple_to_quadruple(data)
    record = fileio.representation_to_dict(rep)
    report.say(f"type {rep.type}, dims " +
               " ".join(f"{a}:{rep.dims[a]}" for a in sorted(rep.dims)))
    report.data = {"representation": record}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fileio.dump_json(record))
        report.note(f"representation written to {args.out}")
    report.check("converted", True, "point data realised as matrices")


def cmd_roundtrip(args, report: RunReport) -> None:
    report.add_input(args.file)
    rep = fileio.load_representation(args.file)
    data, g = sheaf.quadruple_to_quintuple(rep)
    back = sheaf.quintuple_to_quadruple(data)
    expected = adhm.conjugate(rep, g)
    same = back == expected
    for a in sorted(g):
        report.say(f"base change at node {a}: {_fmt_matrix(g[a])}")
    report.data = {
        "base_changes": {str(a): fileio.matrix_to_json(m) for a, m in sorted(g.items())},
        "conjugate_to_input": same,
    }
    report.check("roundtrip-conjugate-to-input", same,
                 "returned representation equals the transported input" if same
                 else "transport mismatch")


# -- monad-check -------------------------------------------------------------

def _unsupported(report: RunReport, message: str) -> None:
    report.check("input-supported", False, message)
    report.forced_exit = 2


def cmd_monad_check(args, report: RunReport) -> None:
    report.add_input(args.file)
    rep = fileio.load_representation(args.file)
    if rep.type.family != "A" or not rep.affine:
        _unsupported(report, "monad check covers affine type A only")
        return
    if any(not linalg.is_zero_matrix(m) for m in rep.Psi.values()):
        _unsupported(
            report,
            "monad check is fiberwise: loops must be zero "
            "(evaluate the node polynomials at the fiber point and pass --lam)",
        )
        return
    n = rep.type.rank + 1
    lam_parts = [s.strip() for s in args.lam.split(",")]
    if len(lam_parts) != n:
        _unsupported(report, f"--lam wants {n} comma-separated rationals (nodes 0..{n - 1})")
        return
    try:
        lam = {a: Fraction(lam_parts[a]) for a in range(n)}
    except (ValueError, ZeroDivisionError):
        _unsupported(report, f"cannot parse --lam {args.lam!r}")
        return

    b1, b2 = {}, {}
    for arrow in rep.quiver.mckay_arrows():
        (b1 if arrow.sign > 0 else b2)[arrow.source] = rep.B[arrow.key]
    i_blocks = {}
    for a in range(n):
        if rep.framing_ranks[a]:
            i_blocks[a] = [
                [rep.I[a][c][r] for c in range(rep.framing_ranks[a])]
                for r in range(rep.dims[a])
            ]
    m = monad.build_monad(rep.type.rank, b1, b2, i_blocks, {}, lam,
                          rep.dims, rep.framing_ranks)
    composite, holds = monad.compose_and_check(m)

    structural_ok = all(
        linalg.is_zero_matrix(composite.coefficient(mono))
        for mono in monad.STRUCTURAL_ZERO_MONOMIALS
    )
    defects = {a: composite.diagonal_block("zz", a) for a in m.nodes}
    theta_table = {a: deformation.Polynomial.constant(lam[a]) for a in range(n)}
    agree = all(
        linalg.mat_eq(defects[a], adhm.node_residual(rep, theta_table, a))
        for a in range(n)
    )

    if holds:
        report.say("b o a = 0")
    else:
        report.say("b o a is nonzero; surviving coefficients:")
        for mono in sorted(composite.coefficients):
            report.say(f"  {mono}: {_fmt_matrix(composite.coefficients[mono])}")
    for a in range(n):
        text = "0" if linalg.is_zero_matrix(defects[a]) else _fmt_matrix(defects[a])
        report.say(f"node {a} quadratic block: {text}")
    report.data = {
        "lam": {str(a): fileio.frac_to_str(lam[a]) for a in range(n)},
        "zz_blocks": {str(a): fileio.matrix_to_json(defects[a]) for a in range(n)},
        "composite_zero": holds,
    }
    report.check("structural-cancellation", structural_ok,
                 "x1x1, x1x2, x2x2, zx1, zx2 all vanish")
    report.check("matches-node-relation-residuals", agree,
                 "quadratic blocks equal the node defects")
    report.check("composite-zero", holds,
                 "flatness holds" if holds else "flatness fails")


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the machine-readable report")
    common.add_argument("--seed", type=int, default=0, help="seed for randomised numerics")
    common.add_argument("--tol", type=float, default=None,
                        help="override numeric tolerances (exact checks are unaffected)")

    parser = argparse.ArgumentParser(
        prog="adequiver",
        description="Root systems, finite subgroup quivers, and matrix-data checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common], help="positive roots and marks of a type")
    p.add_argument("type")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("mckay-verify", parents=[common],
                       help="enumerate the subgroup and match its graph to the diagram")
    p.add_argument("type")
    p.set_defaults(func=cmd_mckay_verify)

    p = sub.add_parser("quiver-dot", parents=[common], help="print a quiver in DOT format")
    p.add_argument("type")
    p.add_argument("--flavor", choices=[quiver.MCKAY, quiver.EXTENDED, quiver.N1],
                   default=quiver.MCKAY)
    p.add_argument("--finite", action="store_true", help="drop node 0")
    p.set_defaults(func=cmd_quiver_dot)

    p = sub.add_parser("theta-validate", parents=[common],
                       help="check the marks-weighted sum of node polynomials")
    p.add_argument("file")
    p.set_defaults(func=cmd_theta_validate)

    p = sub.add_parser("exc-locus", parents=[common],
                       help="vanishing locus of every positive-root projection")
    p.add_argument("file")
    p.set_defaults(func=cmd_exc_locus)

    p = sub.add_parser("check-rep", parents=[common],
                       help="node and edge relations, non-degeneracy, support")
    p.add_argument("--theta", required=True, help="deformation parameter file")
    p.add_argument("files", nargs="+", help="representation files (checked and reported in order)")
    p.set_defaults(func=cmd_check_rep)

    p = sub.add_parser("nondeg", parents=[common], help="non-degeneracy only")
    p.add_argument("file")
    p.set_defaults(func=cmd_nondeg)

    p = sub.add_parser("sheafify", parents=[common],
                       help="matrix data to per-node point data")
    p.add_argument("file")
    p.add_argument("--out", help="write the point data record here")
    p.set_defaults(func=cmd_sheafify)

    p = sub.add_parser("matrixify", parents=[common],
                       help="per-node point data back to matrix form")
    p.add_argument("file")
    p.add_argument("--out", help="write the representation record here")
    p.set_defaults(func=cmd_matrixify)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="matrix data through point data and back; verify conjugacy")
    p.add_argument("file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("monad-check", parents=[common],
                       help="compose the two-term complex and compare with node relations")
    p.add_argument("file", help="affine type A representation file (zero loops)")
    p.add_argument("--lam", required=True,
                   help="comma-separated rationals, one per node starting at node 0")
    p.set_defaults(func=cmd_monad_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = RunReport(command=args.command)
    try:
        args.func(args, report)
    except (fileio.SchemaError, ValueError) as e:
        report.check("input-well-formed", False, str(e))
        report.forced_exit = 2
    except dynkin.InputTooLarge as e:
        report.check(_kebab(type(e).__name__), False, str(e))
        report.forced_exit = 2
    except linalg.ComputeFailure as e:
        report.check(_kebab(type(e).__name__), False, str(e))
    print(report.to_json() if args.json else report.to_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
