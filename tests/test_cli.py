import json

import pytest

from adequiver import cli
from adequiver import io as fileio


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

    def test_multiplicities_integral_reports_deviation_and_tol(self, capsys):
        code, out = run(capsys, "mckay-verify", "D4", "--json")
        assert code == 0
        verdict = next(v for v in json.loads(out)["verdicts"]
                       if v["name"] == "multiplicities-integral")
        assert verdict["passed"]
        assert verdict["detail"].startswith("largest deviation ")
        assert verdict["detail"].endswith(", tol 1e-06")
        code, out = run(capsys, "mckay-verify", "D4", "--tol", "0.25")
        assert code == 0
        assert "check multiplicities-integral: pass" in out
        assert ", tol 0.25)" in out
        # no deviation is below a negative tolerance
        code, out = run(capsys, "mckay-verify", "D4", "--tol", "-1")
        assert code == 1
        assert "check non-integral-multiplicity: FAIL" in out

    def test_seeded_runs_byte_identical(self, capsys):
        _, first = run(capsys, "mckay-verify", "D4", "--json")
        _, second = run(capsys, "mckay-verify", "D4", "--json")
        assert first == second


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
        assert "nearest projection (1, 1)" in out

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
        assert "node 1: support (0.5+1j) is not rational" in report["verdicts"][0]["detail"]


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

    def test_agrees_with_check_rep_on_same_data(self, capsys, tmp_path):
        theta = write(tmp_path, "theta.json", theta_record())
        for record in (rep_record(),):
            rep = write(tmp_path, "rep.json", record)
            monad_code, _ = run(capsys, "monad-check", rep, "--lam", "1,0,-1")
            check_code, out = run(capsys, "check-rep", "--theta", theta, rep)
            node_ok = f"check {rep}: node-relations: pass" in out
            assert (monad_code == 0) == node_ok


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
