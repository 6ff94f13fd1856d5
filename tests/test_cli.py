import builtins
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequiver import adhm, cli, deformation, dynkin, gamma, linalg, sheaf
from adequiver import io as fileio

from helpers import rand_invertible


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, record):
    p = tmp_path / name
    p.write_text(fileio.dump_json(record))
    return str(p)


def theta_record():
    return {"type": "A2", "theta": {"1": ["0", "1"], "2": ["-1", "1"]}}


def rep_record():
    return {
        "type": "A2",
        "dims": {"0": 1, "1": 1, "2": 1},
        "arrows": [
            {"from": 0, "to": 1, "matrix": [["1"]]},
            {"from": 2, "to": 0, "matrix": [["1"]]},
            {"from": 0, "to": 2, "matrix": [["1"]]},
        ],
        "psi": {},
        "framing": {"0": {"rank": 1, "vectors": [["1"]]}},
    }


def finite_rep_record():
    return {
        "type": "A2",
        "dims": {"1": 1, "2": 1},
        "arrows": [
            {"from": 1, "to": 2, "matrix": [["1"]]},
            {"from": 2, "to": 1, "matrix": [["-1/2"]]},
        ],
        "psi": {"1": [["1/2"]], "2": [["1/2"]]},
    }


class TestRoots:
    def test_a2(self, capsys):
        code, out = run(capsys, "roots", "A2")
        assert code == 0
        assert "check count-matches-closed-form: pass" in out
        assert "check highest-root-equals-finite-marks: pass" in out
        assert "exit code 0" in out

    def test_json_payload(self, capsys):
        code, out = run(capsys, "roots", "E8", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["exit_code"] == 0
        assert record["data"]["count"] == 120
        assert record["data"]["marks"] == [1, 2, 3, 4, 5, 6, 4, 2, 3]
        assert all(v["passed"] for v in record["verdicts"])

    def test_unknown_type_is_malformed_input(self, capsys):
        code, out = run(capsys, "roots", "B2")
        assert code == 2
        assert "check input-well-formed: FAIL" in out


class TestMckayVerify:
    def test_a2(self, capsys):
        code, out = run(capsys, "mckay-verify", "A2")
        assert code == 0
        assert "group order 3" in out
        assert "check order-equals-sum-of-squared-marks: pass" in out
        assert "check graph-matches-affine-diagram: pass" in out

    def test_multiplicities_integral_reports_the_residues_read(self, capsys):
        for name, read in (("D4", "0 or 1"), ("A1", "0 or 2")):
            code, out = run(capsys, "mckay-verify", name, "--json")
            assert code == 0
            verdict = next(v for v in json.loads(out)["verdicts"]
                           if v["name"] == "multiplicities-integral")
            assert verdict["passed"]
            assert verdict["detail"] == f"every multiplicity read as {read} mod 2521"
        # nothing is left to tune: the float-era options are gone
        for option in ("--tol", "--seed"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["mckay-verify", "D4", option, "1"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_seeded_runs_byte_identical(self, capsys):
        _, first = run(capsys, "mckay-verify", "D4", "--json")
        _, second = run(capsys, "mckay-verify", "D4", "--json")
        assert first == second

    # the reports byte for byte; the JSON data also carries the prime
    PINNED_HUMAN = {
        "D4": "adequiver mckay-verify\ntype D4\ngroup order 8\nconjugacy classes 5\n"
              "character degrees 1 1 1 1 2\n"
              "check order-equals-sum-of-squared-marks: pass  (8 vs 8)\n"
              "check multiplicities-integral: pass  (every multiplicity read as 0 or 1 mod 2521)\n"
              "check graph-matches-affine-diagram: pass  (degree-respecting relabelling found)\n"
              "exit code 0\n",
        "E8": "adequiver mckay-verify\ntype E8\ngroup order 120\nconjugacy classes 9\n"
              "character degrees 1 2 2 3 3 4 4 5 6\n"
              "check order-equals-sum-of-squared-marks: pass  (120 vs 120)\n"
              "check multiplicities-integral: pass  (every multiplicity read as 0 or 1 mod 2521)\n"
              "check graph-matches-affine-diagram: pass  (degree-respecting relabelling found)\n"
              "exit code 0\n",
    }
    PINNED_DATA = {
        "D4": {"type": "D4", "order": 8, "sum_of_squared_marks": 8, "class_count": 5,
               "degrees": [1, 1, 1, 1, 2],
               "adjacency": [[0, 0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 1],
                             [0, 0, 0, 0, 1], [1, 1, 1, 1, 0]],
               "isomorphism": [0, 1, 3, 4, 2]},
        "E8": {"type": "E8", "order": 120, "sum_of_squared_marks": 120, "class_count": 9,
               "degrees": [1, 2, 2, 3, 3, 4, 4, 5, 6],
               "adjacency": [[0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0],
                             [1, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1],
                             [0, 0, 1, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 1],
                             [0, 0, 0, 0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1, 0, 1],
                             [0, 0, 0, 1, 0, 1, 0, 1, 0]],
               "isomorphism": [0, 7, 1, 8, 2, 6, 3, 4, 5]},
    }

    @pytest.mark.parametrize("name", ["D4", "E8"])
    def test_pinned_reports(self, capsys, name):
        code, out = run(capsys, "mckay-verify", name)
        assert (code, out) == (0, self.PINNED_HUMAN[name])
        code, out = run(capsys, "mckay-verify", name, "--json")
        record = json.loads(out)
        assert out == json.dumps(record, indent=2) + "\n"
        assert record["data"] == {**self.PINNED_DATA[name], "prime": 2521}
        assert [v["detail"] for v in record["verdicts"]] == [
            f"{record['data']['order']} vs {record['data']['order']}",
            "every multiplicity read as 0 or 1 mod 2521",
            "degree-respecting relabelling found",
        ]
        assert code == record["exit_code"] == 0

    def test_wrong_generators_fail_without_a_tolerance(self, capsys, monkeypatch):
        e7 = gamma.generators(dynkin.DynkinType.parse("E7"))
        monkeypatch.setattr(gamma, "generators", lambda t: e7)
        code, out = run(capsys, "mckay-verify", "E8", "--json")
        record = json.loads(out)
        assert code == 1
        assert {v["name"]: v["passed"] for v in record["verdicts"]} == {
            "order-equals-sum-of-squared-marks": False,
            "multiplicities-integral": True,
            "graph-matches-affine-diagram": False,
        }
        assert record["data"]["order"] == 48


class TestQuiverDot:
    def test_default_flavor(self, capsys):
        code, out = run(capsys, "quiver-dot", "A2")
        assert code == 0
        assert "digraph" in out and "check quiver-valid: pass" in out

    def test_n1_finite(self, capsys):
        code, out = run(capsys, "quiver-dot", "D4", "--flavor", "n1", "--finite")
        assert code == 0
        assert 'label="loop"' in out
        assert '"0"' not in out.split("check")[0]

    def test_deterministic(self, capsys):
        _, a = run(capsys, "quiver-dot", "E7", "--flavor", "extended")
        _, b = run(capsys, "quiver-dot", "E7", "--flavor", "extended")
        assert a == b


class TestThetaValidate:
    def test_completion_from_finite_nodes(self, capsys, tmp_path):
        path = write(tmp_path, "theta.json", theta_record())
        code, out = run(capsys, "theta-validate", path)
        assert code == 0
        assert "check marks-weighted-sum-vanishes: pass" in out
        assert "note: node 0 polynomial completed" in out
        assert f"input {path}  sha256 " in out

    def test_unconstrained_full_table_fails(self, capsys, tmp_path):
        rec = {"type": "A1", "theta": {"0": ["0", "1"], "1": ["0", "1"]}}
        path = write(tmp_path, "theta.json", rec)
        code, out = run(capsys, "theta-validate", path)
        assert code == 1
        assert "check marks-weighted-sum-vanishes: FAIL" in out

    @pytest.mark.parametrize("theta", [1000000, True, None])
    def test_non_object_theta_is_malformed_input(self, capsys, tmp_path, theta):
        path = write(tmp_path, "theta.json", {"type": "A2", "theta": theta})
        code, out = run(capsys, "theta-validate", path, "--json")
        assert code == 2
        assert [v["name"] for v in json.loads(out)["verdicts"]] == ["input-well-formed"]

    @pytest.mark.parametrize("label, code", [("0", 0), ("00", 2)])
    def test_node_zero_has_one_spelling(self, capsys, tmp_path, label, code):
        # "00" was read as node 0, while the note took node 0 for missing
        path = write(tmp_path, "theta.json", {"type": "A1", "theta": {label: ["-1"], "1": ["1"]}})
        got, out = run(capsys, "theta-validate", path)
        assert got == code
        assert "completed from the marks constraint" not in out
        assert ("bad node label '00' under 'theta'" in out) == (label == "00")

    def test_malformed_file(self, capsys, tmp_path):
        path = write(tmp_path, "theta.json", {"type": "A2", "theta": {"1": ["1"]}})
        code, out = run(capsys, "theta-validate", path)
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "theta-validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert "input-well-formed: FAIL" in out


class TestExcLocus:
    def test_generic(self, capsys, tmp_path):
        path = write(tmp_path, "theta.json", theta_record())
        code, out = run(capsys, "exc-locus", path)
        assert code == 0
        assert "note: generic: yes" in out
        assert "check locus-computed: pass" in out
        assert "point 0.5" in out

    def test_non_generic_still_exits_zero(self, capsys, tmp_path):
        rec = {"type": "A2", "theta": {"1": ["0", "1"], "2": ["0", "1"]}}
        path = write(tmp_path, "theta.json", rec)
        code, out = run(capsys, "exc-locus", path)
        assert code == 0
        assert "note: generic: no" in out

    def test_collapsed_projection_is_compute_failure(self, capsys, tmp_path):
        rec = {"type": "A2", "theta": {"1": ["0", "1"], "2": ["0", "-1"]}}
        path = write(tmp_path, "theta.json", rec)
        code, out = run(capsys, "exc-locus", path)
        assert code == 1
        assert "check identically-zero-projection: FAIL" in out

    def test_coefficient_beyond_float_range_is_input_too_large(self, capsys, tmp_path):
        # exact checks take it; only the printed float points cannot
        rec = {"type": "A2", "theta": {"1": [str(10 ** 400), "1"], "2": ["0", "1"]}}
        path = write(tmp_path, "theta.json", rec)
        code, out = run(capsys, "exc-locus", path, "--json")
        assert code == 2
        assert [v["name"] for v in json.loads(out)["verdicts"]] == ["input-too-large"]


def _theta_bases():
    return [
        theta_record(),
        {"type": "D4", "theta": {"1": ["1", "1"], "2": ["-1/2", "2"], "3": ["0", "1"],
                                 "4": ["3", "1/3"]}},
        {"type": "A1", "theta": {"0": ["1", "-1"], "1": ["-1", "1"]}},
        {"type": "A2", "theta": {"1": ["1", "0", "1"], "2": ["-1", "1"]}},
    ]


_ODD_VALUES = st.sampled_from([
    True, False, None, 0, 1, -1, 1.5, -0.0, 1e308, 10 ** 30, float("nan"), float("inf"),
    "", " ", "1/0", "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0x10", "\u00bd",
    "1_000", "3/-4", " 2 ", "1/2/3", "1e5", "--1", "x", [], ["1"], [["1"]], {}, {"1": "1"},
])
_ODD_TYPES = st.sampled_from([
    "A1", "A3", "D4", "D5", "E6", "E8", "B2", "", "a2", "A0", "A101", "E9", "D3", "A 2",
    5, None, True, ["A2"], {"A": 2},
])
_ODD_LABELS = st.sampled_from(["x", "-1", "99", "", "1.0", " 1", "01", "0", "3", "true"])


@st.composite
def mutated_theta_records(draw):
    record = draw(st.sampled_from(_theta_bases()))
    for _ in range(draw(st.integers(1, 3))):
        theta = record.get("theta") if isinstance(record, dict) else None
        kind = draw(st.sampled_from(["type", "label", "coefficient", "node", "theta",
                                     "record", "drop", "extra"]))
        if kind == "type" and isinstance(record, dict):
            record["type"] = draw(_ODD_TYPES)
        elif kind == "label" and isinstance(theta, dict) and theta:
            key = draw(st.sampled_from(sorted(theta)))
            theta[draw(_ODD_LABELS)] = theta.pop(key)
        elif kind == "coefficient" and isinstance(theta, dict) and theta:
            coeffs = theta[draw(st.sampled_from(sorted(theta)))]
            if isinstance(coeffs, list) and coeffs:
                coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(_ODD_VALUES)
        elif kind == "node" and isinstance(theta, dict) and theta:
            theta[draw(st.sampled_from(sorted(theta)))] = draw(_ODD_VALUES)
        elif kind == "theta" and isinstance(record, dict):
            record["theta"] = draw(_ODD_VALUES)
        elif kind == "record":
            record = draw(_ODD_VALUES)
        elif kind == "drop" and isinstance(record, dict) and record:
            record.pop(draw(st.sampled_from(sorted(record))))
        elif kind == "extra" and isinstance(record, dict):
            record[draw(st.sampled_from(["extra", "theta ", "Type"]))] = draw(_ODD_VALUES)
    return record


class TestThetaFuzz:
    @settings(max_examples=150)
    @given(mutated_theta_records())
    def test_mutated_theta_files_get_a_verdict(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "theta.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            for command in ("theta-validate", "exc-locus"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, path, "--json"])
                assert code in (0, 1, 2), (command, record)


# representation and point-data files, the bases of the reader fuzzer below
_QUIVER_BASES = [
    rep_record(),
    finite_rep_record(),
    {"type": "A1", "dims": {"0": 2, "1": 1},
     "arrows": [{"from": 0, "to": 1, "matrix": [["0", "1"]]},
                {"from": 1, "to": 0, "matrix": [["1"], ["0"]]}],
     "psi": {"0": [["1", "1"], ["0", "1"]], "1": [["1"]]},
     "framing": {"0": {"rank": 1, "vectors": [["1", "0"]]}}},
    {"type": "A2",
     "nodes": {"1": {"points": [{"support": "0", "partition": [1]}]},
               "2": {"points": [{"support": "0", "partition": [1]}]}},
     "arrows": [{"from": 1, "to": 2, "matrix": [["1"]]}]},
    {"type": "A1",
     "nodes": {"0": {"points": [{"support": "1/2", "partition": [2]}]},
               "1": {"points": [{"support": "1/2", "partition": [1]}]}},
     "arrows": [{"from": 1, "to": 0, "pair_index": 1, "matrix": [["1"], ["0"]]}],
     "framing": {"1": {"rank": 1, "vectors": [["1"]]}}},
]

# small entries only: a loop entry such as 10**400 or 2**61 - 1 keeps the rational-root
# search busy for tens of seconds or more, a known cost of the spectra, not of a reader
_QUIVER_VALUES = st.sampled_from([
    True, False, None, 0, 1, -1, 2, 1.5, 1.9, 2.5, 2.0, -0.0, "", "0", "1", "-1", "1/2", "-3/4",
    "1/0", "x", "0.5", "+3", "2/4", "1_000", "١",
    "nan", "inf", " 2 ", "1/2/3", "0x10", [], [[]], ["1"], [["1"]], [["1", "2"]], [["1"], ["2"]],
    [["0", "1"], ["0", "0"]], {}, {"1": "1"}, {"re": 0.5, "im": 1.0}, {"points": []},
    {"rank": 1, "vectors": [["1"]]}, {"from": 0, "to": 1, "matrix": [["1"]]},
])
_SMALL_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "5/3"])


def _slots(node, out: list) -> list:
    """Every (container, key) inside a JSON value, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        out.append((node, key))
        _slots(value, out)
    return out


@st.composite
def mutated_quiver_records(draw):
    # every drawn value is copied, so no mutation reaches the bases or the value pool
    record = copy.deepcopy(draw(st.sampled_from(_QUIVER_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        slots = _slots(record, [])
        kind = draw(st.sampled_from(["number"] * 4 + ["value"] * 3 + ["drop", "copy", "label",
                                                                       "record"]))
        if kind == "record" or not slots:
            record = copy.deepcopy(draw(_QUIVER_VALUES))
            continue
        strings = [(parent, key) for parent, key in slots if isinstance(parent[key], str)]
        if kind == "number" and strings:    # a well-formed entry, so the input reaches the checks
            parent, key = draw(st.sampled_from(strings))
            parent[key] = draw(_SMALL_RATIONALS)
            continue
        parent, key = draw(st.sampled_from(slots))
        if kind == "value":
            parent[key] = copy.deepcopy(draw(_QUIVER_VALUES))
        elif kind == "drop":
            del parent[key]
        elif kind == "copy" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        elif kind == "label" and isinstance(parent, dict):
            parent[draw(_ODD_LABELS)] = parent.pop(key)
    return record


class TestQuiverFileFuzz:
    @settings(max_examples=150)
    @given(mutated_quiver_records())
    def test_mutated_representation_and_point_data_files_get_a_verdict(self, record):
        dims = record.get("dims") if isinstance(record, dict) else None
        lam = ",".join(["1"] * (len(dims) if isinstance(dims, dict) else 3))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "quiver.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            for command in (["sheafify"], ["matrixify"], ["roundtrip"], ["nondeg"],
                            ["monad-check", "--lam", lam]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*command, path, "--json"])
                assert code in (0, 1, 2), (command, record)


# --lam entries: the spelling of files, spellings `fractions.Fraction` also reads, and any
# string over their alphabet
_ODD_LAM_ENTRIES = st.one_of(
    st.sampled_from(["1_0", " 1", "1 ", "+1", "2/4", "0.5", "1e3", "١", "-0", "", "x"]),
    st.text(alphabet="-+0123456789/ ._e١", max_size=5))


@st.composite
def lams(draw) -> tuple[str, list[str]]:
    """A type, A1 or A2, and one entry per node of it in the spelling of files, then up to
    two mutations: an odd entry, a dropped entry or one entry too many."""
    family = draw(st.sampled_from(["A1", "A2"]))
    entries = draw(st.lists(_SMALL_RATIONALS, min_size=int(family[1]) + 1,
                            max_size=int(family[1]) + 1))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["odd", "odd", "drop", "extra"]))
        if kind == "odd" and entries:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(_ODD_LAM_ENTRIES)
        elif kind == "drop" and entries:
            entries.pop()
        elif kind == "extra":
            entries.append(draw(_SMALL_RATIONALS))
    return family, entries


class TestLamFuzz:
    @settings(max_examples=150)
    @given(lams())
    def test_any_lam_gets_a_verdict_and_only_the_spelling_of_files_runs(self, drawn):
        family, entries = drawn
        record = rep_record() if family == "A2" else {"type": "A1", "dims": {"0": 1, "1": 2}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rep.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["monad-check", "--lam=" + ",".join(entries), path, "--json"])
        read = all(_printed_back(x) for x in entries) and len(entries) == len(record["dims"])
        assert code in ((0, 1) if read else (2,)), (family, entries)


def _printed_back(text: str) -> bool:
    """Whether text is the printed spelling of the rational `fractions.Fraction` reads."""
    try:
        return fileio.frac_to_str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


class TestCheckRep:
    def test_satisfying_affine_rep(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        rep = write(tmp_path, "rep.json", rep_record())
        code, out = run(capsys, "check-rep", "--theta", theta, rep)
        assert code == 0
        assert f"check {rep}: node-relations: pass" in out
        assert f"check {rep}: edge-relations: pass" in out
        assert f"check {rep}: nondegenerate: pass" in out
        assert "support check skipped (node 0 occupied)" in out

    def test_finite_rep_gets_support_check(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        rep = write(tmp_path, "rep.json", finite_rep_record())
        code, out = run(capsys, "check-rep", "--theta", theta, rep)
        assert code == 0
        assert f"check {rep}: support-on-vanishing-locus: pass" in out
        assert "non-degeneracy skipped (no framing)" in out
        assert ("support node 1: 1 distinct eigenvalue; root (1, 1) vanishes at 1 of them; "
                "0 off the locus") in out
        assert f"check {rep}: support-on-vanishing-locus: pass  (2 eigenvalues examined)" in out

    def test_defective_loops_on_the_locus_pass_support(self, capsys, tmp_path):
        # one conjugated Jordan block of size 3 or 4 at 1/3, where t - 1/3 vanishes
        theta = write(tmp_path, "theta.json", {"type": "A1", "theta": {"1": ["-1/3", "1"]}})
        rng = random.Random(7)
        paths = []
        for k, size in enumerate((3, 4, 3, 4)):
            block = [[Fraction(1, 3) if j == i else Fraction(int(j == i + 1)) for j in range(size)]
                     for i in range(size)]
            g = rand_invertible(rng, size)
            loop = linalg.mat_mul(g, linalg.mat_mul(block, linalg.inverse(g)))
            paths.append(write(tmp_path, f"rep{k}.json", {
                "type": "A1", "dims": {"1": size}, "psi": {"1": fileio.matrix_to_json(loop)},
            }))
        code, out = run(capsys, "check-rep", "--theta", theta, *paths)
        assert code == 1                         # t - 1/3 does not kill a nilpotent part
        for path in paths:
            assert f"check {path}: support-on-vanishing-locus: pass  (1 eigenvalues" in out
        assert out.count("support node 1: 1 distinct eigenvalue; "
                         "root (1) vanishes at 1 of them; 0 off the locus") == 4

    def test_violating_rep_fails_with_residuals_shown(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        bad = rep_record()
        bad["arrows"][1]["matrix"] = [["2"]]
        rep = write(tmp_path, "bad.json", bad)
        code, out = run(capsys, "check-rep", "--theta", theta, rep)
        assert code == 1
        assert f"check {rep}: node-relations: FAIL" in out
        assert "node 0 residual: [-1]" in out
        assert "node 2 residual: [1]" in out

    def test_failed_checks_are_reported_line_by_line(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        loops = rep_record()            # loops that break the edge relation at (0, 1, 0)
        loops["psi"] = {"0": [["0"]], "1": [["1"]], "2": [["0"]]}
        unframed = rep_record()         # a zero framing vector generates nothing
        unframed["framing"] = {"0": {"rank": 1, "vectors": [["0"]]}}
        off = finite_rep_record()       # eigenvalue 5 at node 1, where no root vanishes
        off["psi"]["1"] = [["5"]]
        cases = [(write(tmp_path, name, record), lines) for name, record, lines in (
            ("loops.json", loops, [
                "-- {} (type A2, total dimension 3)",
                "node 0 residual: 0", "node 1 residual: [1]", "node 2 residual: 0",
                "edge (0, 1, 0) residual: [1]",
                "check {}: node-relations: FAIL  (some node residual is nonzero)",
                "check {}: edge-relations: FAIL  (some edge residual is nonzero)",
                "check {}: nondegenerate: pass  (framing generates everything)",
                "note: {}: support check skipped (node 0 occupied)"]),
            ("unframed.json", unframed, [
                "-- {} (type A2, total dimension 3)",
                "node 0 residual: 0", "node 1 residual: 0", "node 2 residual: 0",
                "check {}: node-relations: pass  (all node residuals vanish)",
                "check {}: edge-relations: pass  (all loop intertwiners commute)",
                "check {}: nondegenerate: FAIL  (a proper invariant collection survives)",
                "note: {}: support check skipped (node 0 occupied)"]),
            ("off.json", off, [
                "-- {} (type A2, total dimension 2)",
                "node 1 residual: [9/2]", "node 2 residual: 0",
                "edge (1, 2, 0) residual: [-9/2]", "edge (2, 1, 0) residual: [-9/4]",
                "support node 1: 1 distinct eigenvalue; no root vanishes there; 1 off the locus",
                "support node 2: 1 distinct eigenvalue; root (1, 1) vanishes at 1 of them; "
                "0 off the locus",
                "check {}: node-relations: FAIL  (some node residual is nonzero)",
                "check {}: edge-relations: FAIL  (some edge residual is nonzero)",
                "check {}: support-on-vanishing-locus: FAIL  (2 eigenvalues examined)",
                "note: {}: non-degeneracy skipped (no framing)"]))]
        for rep, lines in cases:
            code, out = run(capsys, "check-rep", "--theta", theta, rep)
            assert code == 1, rep
            # after the header and the two input lines
            assert out.splitlines()[3:] == [line.format(rep) for line in lines] + ["exit code 1"]

    def test_multiple_files_keep_order(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        paths = []
        for i in range(5):
            rec = rep_record() if i % 2 == 0 else finite_rep_record()
            paths.append(write(tmp_path, f"rep{i}.json", rec))
        code, out = run(capsys, "check-rep", "--theta", theta, *paths)
        assert code == 0
        starts = [out.index(f"-- {p} ") for p in paths]
        assert starts == sorted(starts)
        # one bad file flips the exit code, good files still pass
        bad = rep_record()
        bad["arrows"][1]["matrix"] = [["3"]]
        paths.insert(2, write(tmp_path, "bad.json", bad))
        code, out = run(capsys, "check-rep", "--theta", theta, *paths)
        assert code == 1
        assert f"check {paths[0]}: node-relations: pass" in out
        assert f"check {paths[2]}: node-relations: FAIL" in out

    def test_refused_file_fails_only_itself(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        good = [write(tmp_path, f"good{i}.json", rep_record()) for i in range(2)]
        malformed = rep_record()
        malformed["arrows"][0]["from"] = None
        bad = write(tmp_path, "bad.json", malformed)
        huge = write(tmp_path, "huge.json", {"type": "A2", "dims": {"0": 100000, "1": 0, "2": 0}})
        code, out = run(capsys, "check-rep", "--theta", theta, good[0], bad, good[1], huge,
                        "--json")
        assert code == 2
        report = json.loads(out)
        alone = [json.loads(run(capsys, "check-rep", "--theta", theta, path, "--json")[1])
                 for path in good]
        want = alone[0]["verdicts"] + [{"name": "input-well-formed", "passed": False}] \
            + alone[1]["verdicts"] + [{"name": "input-too-large", "passed": False}]
        assert [{k: v[k] for k in w} for v, w in zip(report["verdicts"], want)] == want
        assert len(report["verdicts"]) == len(want)
        refused = [v["detail"] for v in report["verdicts"] if not v["passed"]]
        assert refused[0].endswith(f"; file {bad}")
        assert refused[1] == f"total dimension 100000 exceeds the cap 1000; file {huge}"
        assert report["data"]["files"] == [alone[0]["data"]["files"][0],
                                           alone[1]["data"]["files"][0]]
        _, human = run(capsys, "check-rep", "--theta", theta, good[0], bad, good[1], huge)
        assert human.count("-- ") == 2
        assert f"check {good[1]}: nondegenerate: pass" in human

    def test_representation_of_another_type_than_theta_is_refused(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())             # type A2
        a1 = write(tmp_path, "a1.json", {"type": "A1", "dims": {"1": 1}, "psi": {"1": [["5"]]}})
        good = write(tmp_path, "good.json", finite_rep_record())
        code, out = run(capsys, "check-rep", "--theta", theta, a1, good)
        assert code == 2
        assert ("check input-well-formed: FAIL  (theta is of type A2, the representation "
                f"of type A1; file {a1})") in out
        assert f"-- {a1}" not in out and f"{a1}: node-relations" not in out
        assert f"check {good}: support-on-vanishing-locus: pass" in out

    def test_missing_rep_file(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        code, out = run(capsys, "check-rep", "--theta", theta, str(tmp_path / "gone.json"))
        assert code == 2
        assert "gone.json" in out

    def test_runs_byte_identical(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        reps = [write(tmp_path, f"r{i}.json", rep_record()) for i in range(3)]
        _, a = run(capsys, "check-rep", "--theta", theta, *reps, "--json")
        _, b = run(capsys, "check-rep", "--theta", theta, *reps, "--json")
        assert a == b
        record = json.loads(a)
        assert [e["path"] for e in record["data"]["files"]] == reps


class TestNondeg:
    def test_framed_pass(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        code, out = run(capsys, "nondeg", rep)
        assert code == 0
        assert "check nondegenerate: pass" in out

    def test_unframed_fail(self, capsys, tmp_path):
        rec = rep_record()
        rec["framing"] = {}
        rep = write(tmp_path, "rep.json", rec)
        code, out = run(capsys, "nondeg", rep)
        assert code == 1
        assert "check nondegenerate: FAIL" in out

    def test_empty_node_beside_framed_node(self, capsys, tmp_path):
        # the arrow 0 -> 1 lands in a zero-dimensional space: a 0 x 1 matrix
        rec = rep_record()
        rec["dims"]["1"] = 0
        rec["arrows"] = [a for a in rec["arrows"] if 1 not in (a["from"], a["to"])]
        code, out = run(capsys, "nondeg", write(tmp_path, "rep.json", rec))
        assert code == 0
        assert "check nondegenerate: pass" in out


class TestConversions:
    def test_sheafify_matrixify_roundtrip_chain(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        sheaf_out = str(tmp_path / "sheaf.json")
        code, out = run(capsys, "sheafify", rep, "--out", sheaf_out)
        assert code == 0
        assert "node 0: point 0 partition (1,)" in out
        rep_out = str(tmp_path / "back.json")
        code, out = run(capsys, "matrixify", sheaf_out, "--out", rep_out)
        assert code == 0
        back = fileio.load_representation(rep_out)
        assert back.dims == {0: 1, 1: 1, 2: 1}
        code, out = run(capsys, "roundtrip", rep)
        assert code == 0
        assert "check roundtrip-conjugate-to-input: pass" in out

    @pytest.mark.parametrize("plant", [None, "loop", "arrow", "vector", "rank"])
    def test_roundtrip_verdict_agrees_with_conjugate(self, capsys, tmp_path, monkeypatch,
                                                     plant):
        # loops with eigenvalues 1 and 2 that the arrows intertwine, so the base
        # changes are not diagonal; a planted change to the returned representation
        # must fail the verdict exactly when it differs from the transported input
        m = [["1", "1"], ["0", "2"]]
        path = write(tmp_path, "rep.json", {
            "type": "A1", "dims": {"0": 2, "1": 2},
            "arrows": [{"from": 0, "to": 1, "matrix": m},
                       {"from": 1, "to": 0, "matrix": [["1", "0"], ["0", "1"]]}],
            "psi": {"0": m, "1": m},
            "framing": {"0": {"rank": 1, "vectors": [["1", "3"]]}},
        })
        honest, returned = sheaf.quintuple_to_quadruple, []

        def planted(data):
            back = honest(data)
            b, psi, ranks, vectors = dict(back.B), dict(back.Psi), dict(back.framing_ranks), {
                a: [list(v) for v in vs] for a, vs in back.I.items()}
            if plant == "loop":
                psi[1] = [[x + (i == 0 and j == 1) for j, x in enumerate(row)]
                          for i, row in enumerate(psi[1])]
            elif plant == "arrow":
                b[0, 1, 0] = [[x + 1 for x in row] for row in b[0, 1, 0]]
            elif plant == "vector":
                vectors[0][0][1] += 1
            elif plant == "rank":
                ranks[1], vectors[1] = 1, [[1, 0]]
            returned.append(adhm.N1Representation(back.type, back.dims, b, psi, ranks, vectors))
            return returned[-1]

        monkeypatch.setattr(sheaf, "quintuple_to_quadruple", planted)
        code, out = run(capsys, "roundtrip", path, "--json")
        rep = fileio.load_representation(path)
        _, g = sheaf.quadruple_to_quintuple(rep)
        same = returned[0] == adhm.conjugate(rep, g)
        assert same == (plant is None)
        assert json.loads(out)["data"]["conjugate_to_input"] is same
        assert code == (0 if same else 1)

    def test_sheafify_rejects_broken_edges(self, capsys, tmp_path):
        rec = rep_record()
        rec["psi"] = {"1": [["1"]]}
        rep = write(tmp_path, "rep.json", rec)
        code, out = run(capsys, "sheafify", rep)
        assert code == 1
        assert "check edge-relation-violated: FAIL" in out

    def test_sheafify_irrational_spectrum(self, capsys, tmp_path):
        rec = {
            "type": "A2",
            "dims": {"0": 2, "1": 0, "2": 0},
            "psi": {"0": [["0", "1"], ["2", "0"]]},
        }
        rep = write(tmp_path, "rep.json", rec)
        code, out = run(capsys, "sheafify", rep)
        assert code == 1
        assert "check non-rational-spectrum: FAIL" in out

    @pytest.mark.parametrize("command", ["sheafify", "matrixify"])
    def test_unwritable_out_is_input_well_formed(self, capsys, tmp_path, command):
        # a missing directory or a directory itself as --out ended in a traceback
        source = write(tmp_path, "rep.json", rep_record())
        if command == "matrixify":
            data, _ = sheaf.quadruple_to_quintuple(fileio.representation_from_dict(rep_record()))
            source = write(tmp_path, "sheaf.json", fileio.sheaf_data_to_dict(data))
        for target in (str(tmp_path / "absent" / "out.json"), str(tmp_path)):
            code, out = run(capsys, command, source, "--out", target)
            assert code == 2
            assert f"check input-well-formed: FAIL  (cannot write {target}: " in out

    def test_loop_with_a_large_smooth_eigenvalue_finishes(self, capsys, tmp_path):
        # the candidate divisors of 2**70 come from its factorisation; trial
        # division up to 2**35 kept both commands running for minutes
        rep = write(tmp_path, "rep.json", {"type": "A1", "dims": {"0": 1, "1": 0},
                                           "psi": {"0": [[str(2 ** 70)]]}})
        with time_limit(5):
            code, out = run(capsys, "sheafify", rep)
            assert code == 0
            assert f"node 0: point {2 ** 70} partition (1,)" in out
            assert run(capsys, "roundtrip", rep)[0] == 0

    def test_matrixify_malformed(self, capsys, tmp_path):
        path = write(tmp_path, "sheaf.json", {"type": "A2", "nodes": {"0": {}}})
        code, out = run(capsys, "matrixify", path)
        assert code == 2

    @pytest.mark.parametrize("arrows", [[], [{"from": 1, "to": 2, "matrix": [["0"]]}]])
    def test_matrixify_rejects_complex_support(self, capsys, tmp_path, arrows):
        path = write(tmp_path, "sheaf.json", {
            "type": "A2",
            "nodes": {"1": {"points": [{"support": {"re": 0.5, "im": 1.0}, "partition": [1]}]},
                      "2": {"points": [{"support": "1", "partition": [1]}]}},
            "arrows": arrows,
        })
        code, out = run(capsys, "matrixify", path, "--json")
        assert code == 2
        report = json.loads(out)
        assert [v["name"] for v in report["verdicts"]] == ["input-well-formed"]
        assert report["verdicts"][0]["detail"] == (
            "expected a rational support at node 1, got {'re': 0.5, 'im': 1.0}")


def points_record():
    return {
        "type": "A2",
        "nodes": {"1": {"points": [{"support": "0", "partition": [1]}]},
                  "2": {"points": [{"support": "0", "partition": [1]}]}},
        "arrows": [{"from": 1, "to": 2, "matrix": [["1"]]}],
    }


# (subcommand, record, path to the field inside the record, malformed value)
MALFORMED_FIELDS = {
    "from": ("nondeg", rep_record, ("arrows", 0, "from"), None),
    "to": ("sheafify", rep_record, ("arrows", 0, "to"), None),
    "pair_index": ("roundtrip", rep_record, ("arrows", 0, "pair_index"), None),
    "rank": ("check-rep", rep_record, ("framing", "0", "rank"), None),
    "fractional-rank": ("nondeg", rep_record, ("framing", "0", "rank"), 1.7),
    "vectors": ("nondeg", rep_record, ("framing", "0", "vectors"), None),
    "partition-part": ("matrixify", points_record,
                       ("nodes", "1", "points", 0, "partition", 0), None),
    "re": ("matrixify", points_record,
           ("nodes", "1", "points", 0, "support"), {"re": None, "im": 0}),
    "im": ("matrixify", points_record,
           ("nodes", "1", "points", 0, "support"), {"re": 0, "im": None}),
}


@pytest.mark.parametrize("field", MALFORMED_FIELDS)
def test_malformed_field_is_input_well_formed_failure(capsys, tmp_path, field):
    command, make, where, value = MALFORMED_FIELDS[field]
    extra = []
    if command == "check-rep":
        extra = ["--theta", write(tmp_path, "theta.json", theta_record())]
    record = make()
    code, _ = run(capsys, command, *extra, write(tmp_path, "ok.json", record))
    assert code == 0
    inner = record
    for step in where[:-1]:
        inner = inner[step]
    inner[where[-1]] = value
    code, out = run(capsys, command, *extra, write(tmp_path, "bad.json", record), "--json")
    assert code == 2
    assert [v["name"] for v in json.loads(out)["verdicts"]] == ["input-well-formed"]


def test_point_data_rejects_duplicate_arrow(capsys, tmp_path):
    record = points_record()
    record["arrows"].append({"from": 1, "to": 2, "matrix": [["2"]]})
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record), "--json")
    assert code == 2
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "input-well-formed"
    assert verdict["detail"] == "duplicate arrow (1, 2, 0)"


@pytest.mark.parametrize("matrix", [[["1", "2"], ["3", "4"]], [["1"], ["2"]], [["1", "2"]]])
def test_point_data_rejects_arrow_of_the_wrong_shape(capsys, tmp_path, matrix):
    record = points_record()
    record["arrows"] = [{"from": 1, "to": 2, "matrix": matrix}]
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record), "--json")
    assert code == 2
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "input-well-formed"


def test_point_data_rejects_arrow_outside_the_quiver(capsys, tmp_path):
    record = points_record()
    record["arrows"] = [{"from": 7, "to": 8, "matrix": [["1"]]}]
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record), "--json")
    assert code == 2
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "input-well-formed"
    assert verdict["detail"] == "arrows [(7, 8, 0)] are not in the A2 quiver"


def test_point_data_rejects_framing_at_unknown_node(capsys, tmp_path):
    record = points_record()
    record["framing"] = {"9": {"rank": 1, "vectors": [["1"]]}}
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record), "--json")
    assert code == 2
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "input-well-formed"
    assert verdict["detail"] == "framing data at unknown nodes [9]"


@pytest.mark.parametrize("framing, detail", [
    ({"rank": -1}, "the framing rank at node 1 must be an integer >= 0, got -1"),
    ({"rank": 2, "vectors": [["1", "2", "3"]]}, "framing at node 1 wants shape (2, 1)"),
])
def test_point_data_refuses_bad_framing_when_read(capsys, tmp_path, framing, detail):
    record = points_record()
    record["framing"] = {"1": framing}
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record), "--json")
    assert code == 2
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "input-well-formed"
    assert verdict["detail"] == detail


def test_support_beyond_the_float_range_gets_a_verdict(capsys, tmp_path):
    # supports are ordered exactly, so one no float can hold is a plain rational
    record = {"type": "A2", "nodes": {"1": {"points": [
        {"support": str(10 ** 400), "partition": [1]}, {"support": "0", "partition": [1]}]},
        "2": {"points": []}}}
    out_path = tmp_path / "rep.json"
    code, out = run(capsys, "matrixify", write(tmp_path, "sheaf.json", record),
                    "--out", str(out_path), "--json")
    assert code == 0
    assert [v["name"] for v in json.loads(out)["verdicts"]] == ["converted"]
    assert json.loads(out_path.read_text())["psi"]["1"] == [["0", "0"], ["0", str(10 ** 400)]]


MONAD_CHECK_RANK1_SHA = "d2d209285b6d59915b2396f3db0769e3a26ec9f4b7fa87bbd65191b4c8767fa8"

MONAD_CHECK_RANK1_HUMAN = f"""\
adequiver monad-check
input rep.json  sha256 {MONAD_CHECK_RANK1_SHA}
b o a is nonzero; surviving coefficients:
  zz: [3/2 0; 0 3/2]
node 0 quadratic block: [3/2 0; 0 3/2]
node 1 quadratic block: 0
check structural-cancellation: pass  (x1x1, x1x2, x2x2, zx1, zx2 all vanish)
check matches-node-relation-residuals: pass  (quadratic blocks equal the node defects)
check composite-zero: FAIL  (flatness fails)
exit code 1
"""

MONAD_CHECK_RANK1_JSON = json.dumps({
    "command": "monad-check",
    "inputs": [{"path": "rep.json", "sha256": MONAD_CHECK_RANK1_SHA}],
    "data": {
        "lam": {"0": "3/2", "1": "-1"},
        "zz_blocks": {"0": [["3/2", "0"], ["0", "3/2"]], "1": []},
        "composite_zero": False,
    },
    "verdicts": [
        {"name": "structural-cancellation", "passed": True,
         "detail": "x1x1, x1x2, x2x2, zx1, zx2 all vanish"},
        {"name": "matches-node-relation-residuals", "passed": True,
         "detail": "quadratic blocks equal the node defects"},
        {"name": "composite-zero", "passed": False, "detail": "flatness fails"},
    ],
    "notes": [],
    "exit_code": 1,
}, indent=2) + "\n"


class TestMonadCheck:
    def test_satisfying_fiber(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
        assert code == 0
        assert "b o a = 0" in out
        assert "check structural-cancellation: pass" in out
        assert "check matches-node-relation-residuals: pass" in out
        assert "check composite-zero: pass" in out

    def test_violating_fiber_keeps_structure(self, capsys, tmp_path):
        bad = rep_record()
        bad["arrows"][1]["matrix"] = [["2"]]
        rep = write(tmp_path, "rep.json", bad)
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
        assert code == 1
        assert "check structural-cancellation: pass" in out
        assert "check matches-node-relation-residuals: pass" in out
        assert "check composite-zero: FAIL" in out
        assert "node 0 quadratic block: [-1]" in out

    def test_a1_pairs(self, capsys, tmp_path):
        rec = {
            "type": "A1",
            "dims": {"0": 1, "1": 1},
            "arrows": [
                {"from": 0, "to": 1, "pair_index": 0, "matrix": [["2"]]},
                {"from": 1, "to": 0, "pair_index": 0, "matrix": [["3"]]},
                {"from": 0, "to": 1, "pair_index": 1, "matrix": [["1"]]},
                {"from": 1, "to": 0, "pair_index": 1, "matrix": [["5"]]},
            ],
        }
        rep = write(tmp_path, "rep.json", rec)
        # leading dash needs the = form or argparse eats it
        code, out = run(capsys, "monad-check", rep, "--lam=-1,1")
        assert code == 0

    def test_wrong_family_unsupported(self, capsys, tmp_path):
        rec = {"type": "D4", "dims": {str(a): 0 for a in range(5)}}
        rep = write(tmp_path, "rep.json", rec)
        code, out = run(capsys, "monad-check", rep, "--lam", "0,0,0,0,0")
        assert code == 2
        assert "check input-supported: FAIL" in out

    def test_nonzero_loops_unsupported(self, capsys, tmp_path):
        rec = rep_record()
        rec["psi"] = {"0": [["1"]], "1": [["1"]], "2": [["1"]]}
        rep = write(tmp_path, "rep.json", rec)
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
        assert code == 2
        assert "loops must be zero" in out

    def test_lam_arity_checked(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0")
        assert code == 2
        code, out = run(capsys, "monad-check", rep, "--lam", "1,x,2")
        assert code == 2

    def test_violating_rank1_output_is_pinned(self, capsys, tmp_path, monkeypatch):
        # node 1 has dimension 0 but a framing; the zz block at node 0 is lam[0] I
        record = {
            "type": "A1", "dims": {"0": 2, "1": 0}, "psi": {},
            "framing": {"0": {"rank": 1, "vectors": [["1", "-2"]]},
                        "1": {"rank": 1, "vectors": [[]]}},
        }
        write(tmp_path, "rep.json", record)
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "monad-check", "rep.json", "--lam", "3/2,-1")
        assert code == 1
        assert out == MONAD_CHECK_RANK1_HUMAN
        code, out = run(capsys, "monad-check", "rep.json", "--lam", "3/2,-1", "--json")
        assert code == 1
        assert out == MONAD_CHECK_RANK1_JSON

    def test_failing_details_name_what_was_found(self, capsys, tmp_path, monkeypatch):
        # neither check can fail on real data; break the composite, its zz blocks at
        # nodes 1 and 2 among them
        from adequiver import monad
        compose = monad.compose_and_check

        def broken_compose(m):
            composite, _ = compose(m)
            lay = composite.row_layout
            extra = monad.NCElement(lay, lay, {"zx1": linalg.identity(3), "x1x2": [
                [1, 0, 0], [0, 0, 0], [0, 0, 0]], "zz": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]})
            return composite + extra, False

        rep = write(tmp_path, "rep.json", rep_record())
        monkeypatch.setattr(monad, "compose_and_check", broken_compose)
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
        assert code == 1
        assert "check structural-cancellation: FAIL  (x1x2, zx1 survive)" in out
        assert ("check matches-node-relation-residuals: FAIL  "
                "(quadratic blocks differ from the node defects at nodes [1, 2])") in out
        code, out = run(capsys, "monad-check", rep, "--lam", "1,0,-1", "--json")
        details = {v["name"]: v["detail"] for v in json.loads(out)["verdicts"]}
        assert details["structural-cancellation"] == "x1x2, zx1 survive"
        assert details["matches-node-relation-residuals"] == (
            "quadratic blocks differ from the node defects at nodes [1, 2]")

    def test_agrees_with_check_rep_on_same_data(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        for record in (rep_record(),):
            rep = write(tmp_path, "rep.json", record)
            monad_code, _ = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
            check_code, out = run(capsys, "check-rep", "--theta", theta, rep)
            node_ok = f"check {rep}: node-relations: pass" in out
            assert (monad_code == 0) == node_ok


def input_argvs(tmp_path):
    """A call of every subcommand that reads files, with the files it reads."""
    theta = write(tmp_path, "theta.json", theta_record())
    rep = write(tmp_path, "rep.json", rep_record())
    finite = write(tmp_path, "finite.json", finite_rep_record())
    points = write(tmp_path, "points.json", points_record())
    return [(["theta-validate", theta], [theta]), (["exc-locus", theta], [theta]),
            (["check-rep", "--theta", theta, rep, finite], [theta, rep, finite]),
            (["nondeg", rep], [rep]), (["sheafify", rep], [rep]),
            (["matrixify", points], [points]), (["roundtrip", rep], [rep]),
            (["monad-check", rep, "--lam", "1,0,-1"], [rep])]


class TestInputs:
    def test_each_input_is_opened_once(self, capsys, tmp_path, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for argv, paths in input_argvs(tmp_path):
            opened.clear()
            code, _ = run(capsys, *argv)
            assert code == 0, argv
            assert sorted(p for p in opened if p in paths) == sorted(paths), argv

    def test_the_listed_digest_is_of_the_bytes_parsed(self, capsys, tmp_path, monkeypatch):
        # a file rewritten before a second read would be listed under the first digest
        # and parsed from the new bytes
        theta = write(tmp_path, "theta.json", theta_record())
        first = Path(theta).read_bytes()
        real_open = builtins.open
        reads = []

        def open_rewritten_after_the_first_read(file, *args, **kwargs):
            if str(file) == theta:
                if reads:
                    Path(theta).write_text(fileio.dump_json(
                        {"type": "A2", "theta": {"1": ["7"], "2": ["-1", "1"]}}))
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_rewritten_after_the_first_read)
        code, out = run(capsys, "theta-validate", theta, "--json")
        report = json.loads(out)
        assert report["inputs"] == [{"path": theta, "sha256": hashlib.sha256(first).hexdigest()}]
        assert report["data"]["theta"]["1"] == ["0", "1"] and code == 0

    def test_annotations_resolve(self):
        typing.get_type_hints(cli._check_one_rep)


class TestParser:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["frobnicate"])
        assert e.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        with pytest.raises(SystemExit) as e:
            cli.main(["monad-check", rep])
        assert e.value.code == 2


class TestSizeCaps:
    def test_huge_rank_is_input_too_large(self, capsys):
        code, out = run(capsys, "roots", "A100000", "--json")
        assert code == 2
        report = json.loads(out)
        assert [v["name"] for v in report["verdicts"]] == ["input-too-large"]
        assert report["verdicts"][0]["detail"] == f"rank 100000 exceeds the cap {dynkin.MAX_RANK}"

    def test_huge_dimension_is_input_too_large(self, capsys, tmp_path):
        rec = {"type": "A2", "dims": {"0": 100000, "1": 0, "2": 0}}
        rep = write(tmp_path, "rep.json", rec)
        theta = write(tmp_path, "theta.json", theta_record())
        for argv in (["nondeg", rep], ["check-rep", "--theta", theta, rep]):
            code, out = run(capsys, *argv)
            assert code == 2
            assert "check input-too-large: FAIL  (total dimension 100000 exceeds" in out
        points = write(tmp_path, "sheaf.json", {
            "type": "A2",
            "nodes": {"1": {"points": [{"support": "0", "partition": [100000]}]},
                      "2": {"points": []}},
        })
        code, out = run(capsys, "matrixify", points)
        assert code == 2
        assert "check input-too-large: FAIL" in out

    def test_theta_degree_is_capped(self, capsys, tmp_path):
        # a degree-3000 theta kept exc-locus busy for over a minute; it is refused at once
        big = write(tmp_path, "big.json", {"type": "A2",
                                           "theta": {"1": ["1"] * 3001, "2": ["0", "1"]}})
        with time_limit(5):
            for command in ("exc-locus", "theta-validate"):
                code, out = run(capsys, command, big)
                assert code == 2
                assert ("check input-too-large: FAIL  (theta degree 3000 exceeds the cap "
                        f"{dynkin.MAX_DEGREE})") in out
        with pytest.raises(dynkin.InputTooLarge):
            deformation.DeformationParam(
                dynkin.DynkinType.parse("A1"),
                {0: [0] * dynkin.MAX_DEGREE + [1, 1], 1: [0, 1]})
        # at the cap a dense rational theta still gets its locus, well inside the limit
        rng = random.Random(3)
        dense = {str(a): [fileio.frac_to_str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                          for _ in range(dynkin.MAX_DEGREE)] + ["1"] for a in (1, 2)}
        at_cap = write(tmp_path, "cap.json", {"type": "A2", "theta": dense})
        with time_limit(5):
            code, out = run(capsys, "exc-locus", at_cap)
        assert code == 0
        assert f"type A2, {3 * dynkin.MAX_DEGREE} locus points" in out

    def test_value_too_long_to_print_is_input_too_large(self, capsys, tmp_path):
        # a 6000-digit residual was blamed on the input as input-well-formed
        big = "9" * 3000
        theta = write(tmp_path, "theta.json", {"type": "A1", "theta": {"1": ["0", big]}})
        rep = write(tmp_path, "rep.json", {"type": "A1", "dims": {"0": 1, "1": 1},
                                           "psi": {"0": [[big]], "1": [[big]]}})
        monad_rep = rep_record()
        for arrow in monad_rep["arrows"][1:]:
            arrow["matrix"] = [[big]]
        monad_path = write(tmp_path, "monad.json", monad_rep)
        for argv in (["check-rep", "--theta", theta, rep],
                     ["monad-check", monad_path, "--lam", "0,0,0"]):
            code, out = run(capsys, *argv)
            assert code == 2, argv
            assert "check input-too-large: FAIL  (a computed value of 6000 digits exceeds" in out

    def test_value_too_long_to_print_fails_only_its_file(self, capsys, tmp_path):
        big = "9" * 3000
        theta = write(tmp_path, "theta.json", {"type": "A1", "theta": {"1": ["0", big]}})
        huge = write(tmp_path, "big.json", {"type": "A1", "dims": {"0": 1, "1": 1},
                                            "psi": {"0": [[big]], "1": [[big]]}})
        small = [write(tmp_path, f"ok{k}.json", {"type": "A1", "dims": {"0": 0, "1": 1}})
                 for k in (1, 2)]
        code, out = run(capsys, "check-rep", "--theta", theta, small[0], huge, small[1])
        assert code == 2
        assert f"exceeds the cap 4300 on printed digits; file {huge})" in out
        assert f"-- {huge}" not in out
        for path in small:
            assert f"-- {path} (type A1, total dimension 1)" in out
            assert f"check {path}: node-relations: pass" in out


@pytest.mark.parametrize("command", ["nondeg", "theta-validate", "matrixify"])
def test_deeply_nested_json_is_input_well_formed(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    code, out = run(capsys, command, str(deep))
    assert code == 2
    assert f"check input-well-formed: FAIL  ({deep} nests deeper than" in out


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the enclosed block with TimeoutError once seconds of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


COMPUTE_FAILURES = {
    gamma.ClosureOverflow: "closure-overflow",
    gamma.DegenerateSpectrum: "degenerate-spectrum",
    gamma.NonIntegralMultiplicity: "non-integral-multiplicity",
    deformation.IdenticallyZeroProjection: "identically-zero-projection",
    deformation.NotARoot: "not-a-root",
    sheaf.EdgeRelationViolated: "edge-relation-violated",
    linalg.NonRationalSpectrum: "non-rational-spectrum",
}


@pytest.mark.parametrize("cls", COMPUTE_FAILURES)
def test_compute_failures_share_one_base_and_keep_their_verdict_names(cls):
    assert issubclass(cls, linalg.ComputeFailure)
    assert cli._kebab(cls.__name__) == COMPUTE_FAILURES[cls]


# The package directory this suite imported, so a child process runs the same code.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])
CHILD_MAIN = (
    "import sys\n"
    "from adequiver.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write('numpy' if 'numpy' in sys.modules else 'no numpy')\n"
    "sys.exit(code)\n"
)


def run_child(*argv, code=CHILD_MAIN):
    """Run the command line in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def startup_fixtures(tmp_path):
    """Arguments of a run per subcommand, its exit code, and whether it uses numpy."""
    theta = write(tmp_path, "theta.json", theta_record())
    rep = write(tmp_path, "rep.json", rep_record())
    data, _ = sheaf.quadruple_to_quintuple(fileio.representation_from_dict(rep_record()))
    points = write(tmp_path, "sheaf.json", fileio.sheaf_data_to_dict(data))
    irrational = write(tmp_path, "irrational.json", {
        "type": "A2", "dims": {"0": 2, "1": 0, "2": 0}, "psi": {"0": [["0", "1"], ["2", "0"]]},
    })
    finite = write(tmp_path, "finite.json", finite_rep_record())
    quadratic = write(tmp_path, "quadratic.json",
                      {"type": "A2", "theta": {"1": ["1", "0", "1"], "2": ["-1", "1"]}})
    complex_points = write(tmp_path, "complex.json", {
        "type": "A2",
        "nodes": {"1": {"points": [{"support": {"re": 0.5, "im": 1.0}, "partition": [1]}]},
                  "2": {"points": [{"support": "1", "partition": [1]}]}},
        "arrows": [{"from": 1, "to": 2, "matrix": [["0"]]}],
    })
    return [
        (["roots", "E8"], 0, False),
        (["quiver-dot", "D4", "--flavor", "n1"], 0, False),
        (["theta-validate", theta], 0, False),
        (["nondeg", rep], 0, False),
        (["sheafify", rep], 0, False),
        (["sheafify", irrational], 1, False),   # non-rational-spectrum
        (["matrixify", points], 0, False),
        (["matrixify", complex_points], 2, False),   # complex support: no matrix form
        (["roundtrip", rep], 0, False),
        (["monad-check", rep, "--lam", "1,0,-1"], 0, False),
        (["check-rep", "--theta", theta, rep], 0, False),   # support check skipped
        (["check-rep", "--theta", theta, finite], 0, False),   # support check run
        (["mckay-verify", "A2"], 0, False),
        (["exc-locus", theta], 0, False),   # linear projections: roots read exactly
        (["exc-locus", quadratic], 0, True),   # a quadratic factor goes to numpy's solver
    ]


class TestStartup:
    def test_numpy_loaded_only_by_numeric_subcommands(self, capsys, tmp_path):
        for argv, exit_code, numeric in startup_fixtures(tmp_path):
            code, out = run(capsys, *argv)
            assert code == exit_code, argv
            assert run_child(*argv) == (code, out, "numpy" if numeric else "no numpy"), argv

    def test_mckay_verify_loads_no_numpy_on_any_type(self):
        types = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
                 "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
        code, out, err = run_child(*types, code=(
            "import contextlib, io, sys\n"
            "import adequiver.gamma\n"
            "from adequiver.cli import main\n"
            "loaded = 'numpy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['mckay-verify', t]) for t in sys.argv[1:]]\n"
            "print(loaded, 'numpy' in sys.modules, codes)\n"))
        assert (code, err) == (0, "")
        assert out.strip() == f"False False {[0] * len(types)}"

    def test_bare_import_loads_no_submodule(self):
        code, out, err = run_child(code=(
            "import sys, adequiver\n"
            "print(sorted(m for m in sys.modules if m.startswith('adequiver')))"
        ))
        assert (code, err) == (0, "")
        assert out.strip() == "['adequiver']"

    def test_subcommands_load_only_the_package_modules_they_use(self, tmp_path):
        rep = write(tmp_path, "rep.json", rep_record())
        theta = write(tmp_path, "theta.json", theta_record())
        # the package modules, then which of dataclasses and hashlib were imported:
        # no subcommand needs dataclasses, and only those reading files hash them
        code = CHILD_MAIN.replace(
            "'numpy' if 'numpy' in sys.modules else 'no numpy'",
            "' '.join(sorted(m[10:] for m in sys.modules if m.startswith('adequiver.')))"
            " + ' | ' + ' '.join(m for m in ('dataclasses', 'hashlib') if m in sys.modules)")
        light = "cli dynkin linalg quiver | "
        files = "adhm cli deformation dynkin io linalg poly quiver sheaf | hashlib"
        for argv, loaded in (
                (["roots", "A2"], light), (["quiver-dot", "D4"], light),
                (["nondeg", rep], files),
                (["mckay-verify", "A2"], "cli dynkin gamma linalg poly quiver | "),
                (["exc-locus", theta], files)):
            assert run_child(*argv, code=code)[::2] == (0, loaded), argv

    def test_names_are_reached_through_their_submodules(self):
        code, out, err = run_child(code=(
            "import adequiver\n"
            "public = [name for name in vars(adequiver) if not name.startswith('_')]\n"
            "from adequiver import (adhm, cli, deformation, dynkin, gamma, io, linalg, monad,\n"
            "                       poly, quiver, sheaf)\n"
            "print(adequiver.__version__, public, dynkin.marks.__module__)"
        ))
        assert (code, err) == (0, "")
        # the package binds only its version; every other name lives in a submodule
        assert out.split() == ["0.1.0", "[]", "adequiver.dynkin"]


class TestLinearLoops:
    """A 1 x 1 loop has a linear characteristic polynomial, whose root is read off its
    two coefficients.  Searching the divisors of the entry took 30 s for 10**400 and
    did not end within 20 s for the prime 2**61 - 1; each child is cut at 10 s."""

    @pytest.mark.parametrize("entry", [str(10 ** 400), "1/" + str(10 ** 400), str(2 ** 61 - 1),
                                       str(2 ** 70)], ids=["10**400", "10**-400", "2**61-1",
                                                           "2**70"])
    def test_sheafify_and_roundtrip_read_the_root_at_once(self, tmp_path, entry):
        rep = write(tmp_path, "loop.json",
                    {"type": "A1", "dims": {"0": 0, "1": 1}, "psi": {"1": [[entry]]}})
        code = ("import sys\n"
                "from adequiver.cli import main\n"
                "sys.exit(main(['sheafify', sys.argv[1]]) or main(['roundtrip', sys.argv[1]]))\n")
        done = subprocess.run([sys.executable, "-c", code, rep], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT), timeout=10)
        assert done.returncode == 0, done.stdout
        point = fileio.frac_to_str(Fraction(entry))
        assert f"node 1: point {point} partition (1,)" in done.stdout
        assert "check roundtrip-conjugate-to-input: pass" in done.stdout
