"""Every scalar enters the package through one of two readers in `linalg`: `frac` for
rationals, in the one spelling `io.frac_to_str` prints, and `integer` for counts, which
truncates nothing.  A refused scalar is named, in Python and in a report alike."""

import ast
import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adequiver import adhm, cli, linalg, monad, sheaf
from adequiver import io as fileio
from adequiver.dynkin import DynkinType, is_positive_root

A1, A2 = DynkinType.parse("A1"), DynkinType.parse("A2")

# spellings `fractions.Fraction` reads but `io.frac_to_str` never prints
ODD_SPELLINGS = ["0.5", "1e3", " 1/2 ", "1_000", "+3", "2/4", "١", "-0", "00", "1/1",
                 "0/3", "1/2\n", "１", "-3/1"]


@pytest.mark.parametrize("text", ODD_SPELLINGS)
def test_a_rational_has_one_spelling(text):
    Fraction(text)
    with pytest.raises(ValueError, match=re.escape(f"bad rational {text!r}")):
        linalg.frac(text)
    with pytest.raises(fileio.SchemaError, match=re.escape(f"got {text!r}")):
        fileio.frac_from_json(text)


@pytest.mark.parametrize(("text", "value"), [
    ("0", 0), ("-3", -3), ("1/2", Fraction(1, 2)), ("-22/7", Fraction(-22, 7)),
    (str(10 ** 400), 10 ** 400), ("1/" + str(10 ** 400), Fraction(1, 10 ** 400)),
])
def test_the_printed_spelling_is_read(text, value):
    assert linalg.frac(text) == value and fileio.frac_from_json(text) == value


@given(st.fractions())
def test_a_printed_rational_reads_back(x):
    assert linalg.frac(fileio.frac_to_str(x)) == x


@given(st.one_of(st.text(alphabet="-+0123456789/ ._e١", max_size=8),
                 st.fractions().map(str)))
def test_a_string_is_read_exactly_when_it_prints_back_as_written(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is not None and fileio.frac_to_str(value) == text:
        assert linalg.frac(text) == value
        assert fileio.frac_to_str(linalg.frac(text)) == text
    else:
        with pytest.raises(ValueError):
            linalg.frac(text)


@pytest.mark.parametrize("x", [1.5, 1.0, True, False, None, "1", Fraction(1), -1])
def test_a_count_is_an_int_from_its_bound_up(x):
    with pytest.raises(ValueError, match=re.escape(f"a count must be an integer >= 0, got {x!r}")):
        linalg.integer(x, "a count")


def test_a_count_comes_back_as_given():
    assert linalg.integer(0, "a count") == 0
    assert linalg.integer(-3, "a coefficient", None) == -3
    assert linalg.integer(2, "a part", 1) == 2
    with pytest.raises(ValueError, match=r"^a part must be an integer >= 1, got 0$"):
        linalg.integer(0, "a part", 1)


# each count the package reads, refused and named where `int()` used to truncate it
REFUSED_COUNTS = {
    "root-coefficient": (lambda: is_positive_root(A2, [1.5, 0]),
                         "a root coefficient must be an integer, got 1.5"),
    "framing-rank": (lambda: adhm.N1Representation(A1, {0: 1, 1: 1}, framing_ranks={0: 1.9}),
                     "the framing rank at node 0 must be an integer >= 0, got 1.9"),
    "partition-part": (lambda: sheaf.TorsionSheafData.of([(0, [2.5])]),
                       "a partition part must be an integer >= 1, got 2.5"),
    "dimension": (lambda: adhm.N1Representation(A1, {0: 1.0, 1: 1}),
                  "dims[0] must be an integer >= 0, got 1.0"),
    "monad-rank": (lambda: monad.build_monad(1.5, {}, {}, {}, {}, {}, {0: 1, 1: 1}, {}),
                   "rank must be an integer >= 0, got 1.5"),
    "monad-dimension": (lambda: monad.build_monad(1, {}, {}, {}, {}, {}, {0: 1, 1: 1.5}, {}),
                        "dims[1] must be an integer >= 0, got 1.5"),
    "monad-framing": (lambda: monad.build_monad(1, {}, {}, {}, {}, {}, {0: 1, 1: 1}, {0: True}),
                      "framing_dims[0] must be an integer >= 0, got True"),
    "type-rank": (lambda: DynkinType("A", 2.5), "the rank must be an integer, got 2.5"),
}


@pytest.mark.parametrize("site", REFUSED_COUNTS)
def test_a_count_that_is_not_an_int_is_refused_not_truncated(site):
    call, message = REFUSED_COUNTS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_negative_root_coefficient_is_no_positive_root():
    assert not is_positive_root(A2, [-1, 0]) and is_positive_root(A2, [1, 1])


def _verdict(tmp_path, record, *argv):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(record))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([*argv, str(path), "--json"])
    verdicts = json.loads(out.getvalue())["verdicts"]
    return code, [(v["name"], v["detail"]) for v in verdicts]


REP = {"type": "A1", "dims": {"0": 1, "1": 1},
       "framing": {"0": {"rank": 1, "vectors": [["1"]]}}}
POINTS = {"type": "A1", "nodes": {"0": {"points": [{"support": "0", "partition": [1]}]},
                                  "1": {"points": [{"support": "0", "partition": [1]}]}}}


@pytest.mark.parametrize(("command", "record", "where", "value", "detail"), [
    ("nondeg", REP, ("framing", "0", "rank"), 1.9,
     "the framing rank at node 0 must be an integer >= 0, got 1.9"),
    ("nondeg", REP, ("dims", "1"), 1.5, "dims[1] must be an integer >= 0, got 1.5"),
    ("nondeg", REP, ("dims", "1"), "1", "dims[1] must be an integer >= 0, got '1'"),
    ("matrixify", POINTS, ("nodes", "1", "points", 0, "partition", 0), 2.5,
     "node 1: a partition part must be an integer >= 1, got 2.5"),
    ("matrixify", POINTS, ("nodes", "1", "points", 0, "partition", 0), True,
     "node 1: a partition part must be an integer >= 1, got True"),
])
def test_a_count_in_a_file_is_refused_by_name(tmp_path, command, record, where, value, detail):
    record = json.loads(json.dumps(record))
    inner = record
    for step in where[:-1]:
        inner = inner[step]
    inner[where[-1]] = value
    assert _verdict(tmp_path, record, command) == (2, [("input-well-formed", detail)])


@pytest.mark.parametrize("lam", ["1_0,0,-1", "1, 0, -1", "١,0,-1", "0.5,0,-1", "+1,0,-1",
                                 "2/2,0,-1"])
def test_lam_is_read_in_the_spelling_of_files(tmp_path, lam):
    record = {"type": "A2", "dims": {"0": 1, "1": 1, "2": 1}}
    assert _verdict(tmp_path, record, "monad-check", f"--lam={lam}") == (
        2, [("input-supported", f"cannot parse --lam {lam!r}")])
    code, _ = _verdict(tmp_path, record, "monad-check", "--lam=1,0,-1/2")
    assert code == 1


# -- the readers are the only ones ------------------------------------------------------

PACKAGE = Path(linalg.__file__).resolve().parent
# the functions that read counts with int() before `linalg.integer` read them
COUNT_SITES = {("adhm", "_quiver_data"), ("sheaf", "of"), ("monad", "build_monad"),
               ("dynkin", "is_positive_root")}


def _calls(name: str) -> list[tuple[str, tuple, ast.Call]]:
    """(module, enclosing functions, call) of every call of name, bare or as an attribute."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*where, child.name)
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                found.append((module, where, child))
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def _literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_one_call_reads_a_fraction_from_a_value():
    reads = [(module, where) for module, where, call in _calls("Fraction")
             if len(call.args) + len(call.keywords) == 1 and call.args
             and not _literal(call.args[0])]
    assert reads == [("linalg", ("frac",))]


def test_no_count_is_truncated_by_int():
    truncating = [(module, where) for module, where, _ in _calls("int")
                  if any((module, f) in COUNT_SITES for f in where)]
    assert truncating == []
    assert len(_calls("int")) > 0
