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

from adequiver import cli
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
