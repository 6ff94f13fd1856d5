"""Command line surface: scriptable verification over the library.

One executable, one subcommand per check.  Reports carry the command
name, sha256 digests of every input file, and a list of named verdicts;
exit code 0 means every verdict passed, 1 means some check failed or a
computation gave up, 2 means the input was malformed or unsupported.
Identical inputs and options produce byte-identical output.  Every
matrix a report prints, residuals, base changes and the blocks of a
monad alike, is printed from integer rows by `io.matrix_to_json` (None, a
zero block, as "0"), and every check compares integer rows.  Rationals on
the command line (`--lam`) are read by `linalg.frac`, in the spelling of files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import dynkin, linalg, quiver


def _kebab(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _fmt_complex(z) -> str:
    z = complex(z)
    re_, im = z.real + 0.0, z.imag + 0.0
    if abs(im) < 1e-12:
        return f"{re_:.10g}"
    return f"{re_:.10g}{im:+.10g}j"


def _residual_entries(m) -> list[list[str]] | str:
    """The printed entries of a matrix (`io.matrix_to_json`); "0" for None, a zero block."""
    from . import io as fileio
    return "0" if m is None else fileio.matrix_to_json(m)


def _fmt_entries(rows) -> str:
    """Printed entries on one line: "0" as it is, "(empty)" for a matrix without entries."""
    if rows == "0":
        return rows
    return "[" + "; ".join(" ".join(row) for row in rows) + "]" if rows and rows[0] else "(empty)"


def _fmt_matrix(m) -> str:
    return _fmt_entries(_residual_entries(m))


class Verdict(dynkin._Record):
    __slots__ = _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}


class RunReport(dynkin._Record):
    __slots__ = _fields = ("command", "inputs", "lines", "verdicts", "notes", "data",
                           "forced_exit")

    def __init__(self, command: str, inputs: list | None = None, lines: list | None = None,
                 verdicts: list | None = None, notes: list | None = None,
                 data: dict | None = None, forced_exit: int | None = None):
        self.command = command
        self.inputs = [] if inputs is None else inputs
        self.lines = [] if lines is None else lines
        self.verdicts = [] if verdicts is None else verdicts
        self.notes = [] if notes is None else notes
        self.data = {} if data is None else data
        self.forced_exit = forced_exit

    def add_input(self, path: str) -> bytes:
        """The bytes of the file at path, read once: the ones listed by their sha256
        are the ones parsed."""
        import hashlib
        from . import io as fileio
        data = fileio.read_bytes(path)
        self.inputs.append({"path": path, "sha256": hashlib.sha256(data).hexdigest()})
        return data

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
    from . import gamma  # exact over F_p: loads no numpy

    t = dynkin.DynkinType.parse(args.type)
    delta = dynkin.marks(t)
    g = gamma.enumerate_group(t)
    table = gamma.character_table(g)
    adj = gamma.mckay_adjacency(g, table)
    iso = gamma.find_labeled_isomorphism(
        adj, table.degrees, dynkin.adjacency_matrix(t, affine=True), list(delta.delta),
    )
    report.say(f"type {t}")
    report.say(f"group order {g.order}")
    report.say(f"conjugacy classes {len(g.classes)}")
    report.say("character degrees " + " ".join(str(d) for d in table.degrees))
    report.data = {
        "type": str(t),
        "order": g.order,
        "sum_of_squared_marks": delta.group_order,
        "class_count": len(g.classes),
        "degrees": table.degrees,
        "adjacency": adj,
        "isomorphism": iso,
        "prime": g.fp.p,
    }
    report.check("order-equals-sum-of-squared-marks",
                 g.order == delta.group_order,
                 f"{g.order} vs {delta.group_order}")
    read = sorted({m for row in adj for m in row})
    report.check("multiplicities-integral", read[-1] <= 2, "every multiplicity read as "
                 f"{', '.join(map(str, read[:-1]))} or {read[-1]} mod {g.fp.p}")
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
    from . import io as fileio
    record = fileio.read_json(args.file, report.add_input(args.file))
    d = fileio.deformation_from_dict(record)
    delta = dynkin.marks(d.type)
    for a in sorted(d.theta):
        coeffs = " ".join(fileio.frac_to_str(c) for c in d.theta[a].coefficients) or "0"
        report.say(f"node {a}: degree {d.theta[a].degree}, coefficients {coeffs}")
    if 0 not in fileio._node_table(record, "theta"):
        report.note("node 0 polynomial completed from the marks constraint")
    report.data = fileio.deformation_to_dict(d)
    report.data["marks"] = list(delta.delta)
    report.check("marks-weighted-sum-vanishes", d.constrained,
                 "sum_a delta_a * theta_a = 0" if d.constrained
                 else "weighted sum is nonzero")


# -- exc-locus ---------------------------------------------------------------

def cmd_exc_locus(args, report: RunReport) -> None:
    from . import deformation, io as fileio
    d = fileio.load_deformation(args.file, report.add_input(args.file))
    locus = deformation.exceptional_locus(d)
    generic = deformation.is_generic(d)
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

def _check_one_rep(path: str, data: bytes, theta):
    """The checks of one representation file against theta, a DeformationParam."""
    from . import adhm, io as fileio
    rep = fileio.load_representation(path, data)
    residual = adhm.check_relations(rep, theta)
    framed = any(r > 0 for r in rep.framing_ranks.values())
    nondeg = adhm.is_nondegenerate(rep) if framed or rep.total_dim == 0 else None
    support_report = None
    if not rep.affine or rep.dims.get(0, 0) == 0:
        support_report = adhm.check_support_property(rep, theta)
    return rep, residual, nondeg, support_report


def cmd_check_rep(args, report: RunReport) -> None:
    from . import io as fileio
    theta_data = report.add_input(args.theta)
    files = [(path, report.add_input(path)) for path in args.files]
    theta = fileio.load_deformation(args.theta, theta_data)
    per_file = []
    for path, data in files:
        # a file refused as input fails its own verdict; the others keep theirs
        try:
            rep, residual, nondeg, support_report = _check_one_rep(path, data, theta)
            # formatted here, once, so a value too long to print fails this file alone
            nodes = {str(a): _residual_entries(m) for a, m in sorted(residual.nodes.items())}
            edges = {key: _residual_entries(m) for key, m in sorted(residual.edges.items()) if m}
        except (dynkin.InputTooLarge, ValueError) as e:
            _refuse(report, e, f"; file {path}")
            continue
        report.say(f"-- {path} (type {rep.type}, total dimension {rep.total_dim})")
        for a, entries in nodes.items():
            report.say(f"node {a} residual: {_fmt_entries(entries)}")
        for key, entries in edges.items():
            report.say(f"edge {key} residual: {_fmt_entries(entries)}")
        entry = {"path": path, "node_residuals": nodes, "edges_zero": residual.edges_zero}
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
                roots = ", ".join(
                    "root (" + ", ".join(str(c) for c in r) + f") vanishes at {k} of them"
                    for r, k in row.roots
                ) or "no root vanishes there"
                plural = "" if row.distinct == 1 else "s"
                report.say(f"support node {row.node}: {row.distinct} distinct eigenvalue{plural}; "
                           f"{roots}; {row.off_locus} off the locus")
            report.check(f"{path}: support-on-vanishing-locus", support_report.ok,
                         f"{sum(r.distinct for r in support_report.rows)} eigenvalues examined")
        per_file.append(entry)
    report.data = {"theta": fileio.deformation_to_dict(theta), "files": per_file}


# -- nondeg ------------------------------------------------------------------

def cmd_nondeg(args, report: RunReport) -> None:
    from . import adhm, io as fileio
    rep = fileio.load_representation(args.file, report.add_input(args.file))
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
    from . import io as fileio, sheaf
    rep = fileio.load_representation(args.file, report.add_input(args.file))
    data, g = sheaf.quadruple_to_quintuple(rep)
    record = fileio.sheaf_data_to_dict(data)
    for a in sorted(data.node_sheaves):
        pts = data.node_sheaves[a].points
        if not pts:
            report.say(f"node {a}: empty")
            continue
        desc = ", ".join(
            f"point {fileio.frac_to_str(s)} partition {tuple(parts)}" for s, parts in pts
        )
        report.say(f"node {a}: {desc}")
    report.data = {
        "sheaf": record,
        "base_changes": {str(a): fileio.matrix_to_json(m) for a, (m, _) in sorted(g.pairs.items())},
    }
    if args.out:
        fileio.write_json(args.out, record)
        report.note(f"sheaf data written to {args.out}")
    report.check("converted", True, "loops reduced to point data")


def cmd_matrixify(args, report: RunReport) -> None:
    from . import io as fileio, sheaf
    data = fileio.load_sheaf_data(args.file, report.add_input(args.file))
    rep = sheaf.quintuple_to_quadruple(data)
    record = fileio.representation_to_dict(rep)
    report.say(f"type {rep.type}, dims " +
               " ".join(f"{a}:{rep.dims[a]}" for a in sorted(rep.dims)))
    report.data = {"representation": record}
    if args.out:
        fileio.write_json(args.out, record)
        report.note(f"representation written to {args.out}")
    report.check("converted", True, "point data realised as matrices")


def cmd_roundtrip(args, report: RunReport) -> None:
    from . import adhm, io as fileio, sheaf
    rep = fileio.load_representation(args.file, report.add_input(args.file))
    data, g = sheaf.quadruple_to_quintuple(rep)
    back = sheaf.quintuple_to_quadruple(data)
    expected = adhm.conjugate(rep, g)
    same = back == expected
    changes = {str(a): fileio.matrix_to_json(m) for a, (m, _) in sorted(g.pairs.items())}
    for a, entries in changes.items():
        report.say(f"base change at node {a}: {_fmt_entries(entries)}")
    report.data = {
        "base_changes": changes,
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
    from . import adhm, io as fileio, monad
    rep = fileio.load_representation(args.file, report.add_input(args.file))
    if rep.type.family != "A" or not rep.affine:
        _unsupported(report, "monad check covers affine type A only")
        return
    if any(any(map(any, m[0])) for m in rep.loops.values()):
        _unsupported(
            report,
            "monad check is fiberwise: loops must be zero "
            "(evaluate the node polynomials at the fiber point and pass --lam)",
        )
        return
    n = rep.type.rank + 1
    try:
        lam = dict(enumerate(map(linalg.frac, args.lam.split(","))))
    except ValueError:
        _unsupported(report, f"cannot parse --lam {args.lam!r}")
        return
    if len(lam) != n:
        _unsupported(report, f"--lam wants {n} comma-separated rationals (nodes 0..{n - 1})")
        return

    b1, b2 = {}, {}
    for arrow in rep.quiver.mckay_arrows():
        (b1 if arrow.sign > 0 else b2)[arrow.source] = rep.arrows[arrow.key]
    # i at node a: the framing vectors as its columns
    i_blocks = {a: linalg._transposed(rep.framing[a]) for a in range(n) if rep.framing_ranks[a]}
    m = monad.build_monad(rep.type.rank, b1, b2, i_blocks, {}, lam,
                          rep.dims, rep.framing_ranks)
    composite, holds = monad.compose_and_check(m)

    # a monomial has blocks in the composite only where its coefficient is nonzero, and
    # both the zz blocks and the node residuals are integer rows over their least
    # denominator, None where zero, so == compares them
    surviving = sorted(set(monad.STRUCTURAL_ZERO_MONOMIALS) & set(composite.blocks))
    zz = {a: composite.blocks.get("zz", {}).get((a, a)) for a in range(n)}
    residuals = adhm.check_relations(rep, {a: [lam[a]] for a in range(n)}).nodes
    differ = [a for a in range(n) if zz[a] != residuals[a]]

    if holds:
        report.say("b o a = 0")
    else:
        report.say("b o a is nonzero; surviving coefficients:")
        for mono, c in sorted(composite.coefficients.items()):
            report.say(f"  {mono}: {_fmt_matrix(c)}")
    for a in range(n):
        report.say(f"node {a} quadratic block: {_fmt_matrix(zz[a])}")
    report.data = {
        "lam": {str(a): fileio.frac_to_str(lam[a]) for a in range(n)},
        "zz_blocks": {str(a): fileio.matrix_to_json(zz[a], (rep.dims[a],) * 2) for a in range(n)},
        "composite_zero": holds,
    }
    report.check("structural-cancellation", not surviving,
                 f"{', '.join(surviving)} survive" if surviving
                 else "x1x1, x1x2, x2x2, zx1, zx2 all vanish")
    report.check("matches-node-relation-residuals", not differ,
                 f"quadratic blocks differ from the node defects at nodes {differ}" if differ
                 else "quadratic blocks equal the node defects")
    report.check("composite-zero", holds,
                 "flatness holds" if holds else "flatness fails")


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the machine-readable report")

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
                   help="comma-separated rationals as files spell them, one per node from 0")
    p.set_defaults(func=cmd_monad_check)

    return parser


def _refuse(report: RunReport, e: Exception, where: str = "") -> None:
    """A failed verdict for refused input, named after a size cap or input-well-formed; exit 2."""
    name = _kebab(type(e).__name__) if isinstance(e, dynkin.InputTooLarge) else "input-well-formed"
    report.check(name, False, str(e) + where)
    report.forced_exit = 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = RunReport(command=args.command)
    try:
        args.func(args, report)
    except linalg.ComputeFailure as e:
        report.check(_kebab(type(e).__name__), False, str(e))
    except (dynkin.InputTooLarge, ValueError) as e:
        _refuse(report, e)
    print(report.to_json() if args.json else report.to_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
