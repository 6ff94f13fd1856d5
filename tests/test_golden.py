"""The golden report corpus: every call of `tests/golden/cases.json`, human and
--json, gives the checked-in stdout and exit code byte for byte.

A change to a report regenerates the expected files with
`PYTHONPATH=src python tests/golden/regenerate.py`, so the diff under
`tests/golden/expected/` shows every changed report.
"""

import json
import re
from pathlib import Path

import pytest

from adequiver import cli, linalg
from golden.regenerate import HERE, calls, run

EXIT_CODES = json.loads((HERE / "expected" / "exit_codes.json").read_text())

# (subcommand, exit code) pairs no input reaches: their checks hold on every type within
# the rank cap (mckay-verify's since D53 to D100 close their groups), so they fail only
# in a patched package
UNREACHABLE = {("roots", 1), ("quiver-dot", 1), ("mckay-verify", 1)}


@pytest.mark.parametrize(("name", "argv", "filename"),
                         [pytest.param(*call, id=call[2]) for call in calls()])
def test_report_matches_the_corpus(monkeypatch, name, argv, filename):
    monkeypatch.chdir(HERE)
    code, out = run(argv)
    assert out.encode() == (HERE / "expected" / filename).read_bytes()
    assert code == EXIT_CODES[name]


def test_every_expected_file_belongs_to_a_call():
    names = {filename for _, _, filename in calls()} | {"exit_codes.json"}
    assert {p.name for p in (HERE / "expected").iterdir()} == names
    assert set(EXIT_CODES) == {name for name, _, _ in calls()}


def test_every_literal_check_name_is_in_the_corpus():
    # names built at run time (per file, or after an exception class) are not literal
    names = set(re.findall(r'report\.check\(\s*"([^"]+)"', Path(cli.__file__).read_text()))
    reports = "".join(p.read_text() for p in (HERE / "expected").glob("*.txt"))
    assert len(names) > 10
    assert sorted(n for n in names if f"check {n}: " not in reports) == []


def test_every_subcommand_reaches_every_exit_code():
    reached = {(argv[0], EXIT_CODES[name]) for name, argv, _ in calls()}
    wanted = {(command, code) for command, _ in reached for code in (0, 1, 2)}
    assert sorted(wanted - reached - UNREACHABLE) == []
    assert sorted(reached & UNREACHABLE) == []     # a reached pair leaves the list


def test_every_input_file_belongs_to_a_case_and_every_named_input_exists():
    named = {arg for _, argv, _ in calls() for arg in argv if arg.startswith("inputs/")}
    files = {p.relative_to(HERE).as_posix() for p in (HERE / "inputs").rglob("*") if p.is_file()}
    assert sorted(files - named) == []
    assert sorted(named - files) == []


@pytest.mark.parametrize("command", ["check-rep", "sheafify", "matrixify", "roundtrip",
                                     "monad-check"])
def test_only_surviving_coefficients_build_fraction_matrices(monkeypatch, command):
    # every report prints and compares integer rows, a zero block as None; only monad-check's
    # listing of the surviving coefficients of a nonzero composite reads Fraction matrices
    built, kernel = [], linalg.rational_matrix

    def recording(*args):
        built.append(kernel(*args))
        return built[-1]

    monkeypatch.setattr(linalg, "rational_matrix", recording)
    monkeypatch.chdir(HERE)
    cases = [argv for _, argv, _ in calls() if argv[0] == command]
    for argv in cases:
        before = len(built)
        _, out = run(argv)
        listed = "b o a is nonzero" in out or '"composite_zero": false' in out
        assert len(built) == before or listed, argv
    assert len(cases) >= 16
    assert bool(built) == (command == "monad-check")
    assert [m for m in built if linalg.is_zero_matrix(m)] == []
