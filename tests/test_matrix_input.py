"""Matrix data enters through one door, `linalg.int_rows`.

Every kind of block (arrow, loop, framing of a representation or of point
data, base change, `build_monad` block, `NCElement` coefficient) is read
into integer rows there, and each malformed one is refused with an error
that names the block: in Python as ValueError or TypeError, and from a
file as the verdict input-well-formed, exit code 2.
"""

import json
import re
from fractions import Fraction

import pytest

from adequiver import adhm, cli, io as fileio, linalg, monad, sheaf
from adequiver.dynkin import DynkinType

A1 = DynkinType.parse("A1")
GOOD = [[Fraction(1, 2), 0], [0, 1]]       # every block below is 2 x 2

# (fault, bad block, exception class, text of the refusal besides the block's name)
FAULTS = {
    "zero-denominator": ([["1/0", "0"], ["0", "1"]], ValueError, "'1/0'"),
    "float": ([[1.5, 0], [0, 1]], TypeError, "1.5"),
    "bool": ([[True, 0], [0, 1]], TypeError, "True"),
    "ragged": ([["1", "0"], ["0"]], ValueError, "wants shape (2, 2)"),
    "wrong-shape": ([["1", "0"], ["0", "1"], ["0", "0"]], ValueError, "wants shape (2, 2)"),
}


def _rep(**blocks):
    return adhm.N1Representation(A1, {0: 2, 1: 2}, **blocks)


def _points(**framing):
    sheaves = {a: sheaf.TorsionSheafData.of([(0, [2])]) for a in (0, 1)}
    return sheaf.QuiverSheafData(A1, sheaves, {}, **framing)


# (block kind, name in the refusal, builder of the block's owner from the block)
KINDS = {
    "arrow": ("arrow (0, 1, 0)", lambda m: _rep(B={(0, 1, 0): m})),
    "loop": ("loop at 1", lambda m: _rep(Psi={1: m})),
    "representation-framing": ("framing at node 1",
                               lambda m: _rep(framing_ranks={1: 2}, I={1: m})),
    "point-data-framing": ("framing at node 1",
                           lambda m: _points(framing_ranks={1: 2}, framing_vectors={1: m})),
    "base-change": ("base change at 1",
                    lambda m: adhm.conjugate(_rep(), {0: linalg.identity(2), 1: m})),
    "monad-block": ("b1 block at node 0",
                    lambda m: monad.build_monad(1, {0: m}, {}, {}, {}, {}, {0: 2, 1: 2}, {})),
    "nc-coefficient": ("coefficient of x1",
                       lambda m: monad.NCElement(((0, 2),), ((0, 2),), {"x1": m})),
}

# the file of each block kind a file holds: (command, record with the block at m)
FILES = {
    "arrow": ("nondeg", lambda m: {"type": "A1", "dims": {"0": 2, "1": 2},
                                   "arrows": [{"from": 0, "to": 1, "matrix": m}]}),
    "loop": ("nondeg", lambda m: {"type": "A1", "dims": {"0": 2, "1": 2}, "psi": {"1": m}}),
    "representation-framing": ("nondeg", lambda m: {
        "type": "A1", "dims": {"0": 2, "1": 2}, "framing": {"1": {"rank": 2, "vectors": m}}}),
    "point-data-framing": ("matrixify", lambda m: {
        "type": "A1", "nodes": {a: {"points": [{"support": "0", "partition": [2]}]}
                                for a in ("0", "1")},
        "framing": {"1": {"rank": 2, "vectors": m}}}),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_good_block_is_read_into_integer_rows(kind):
    KINDS[kind][1](GOOD)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_malformed_block_is_refused_by_name(kind, fault):
    name, build = KINDS[kind]
    m, error, detail = FAULTS[fault]
    with pytest.raises(error) as refused:
        build(m)
    assert type(refused.value) is error
    assert name in str(refused.value) and detail in str(refused.value)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", FILES)
def test_a_malformed_block_in_a_file_is_refused_by_name(capsys, tmp_path, kind, fault):
    command, record = FILES[kind]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(record(FAULTS[fault][0])))
    assert cli.main([command, str(path), "--json"]) == 2
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["name"] == "input-well-formed" and not verdict["passed"]
    assert KINDS[kind][0] in verdict["detail"] and FAULTS[fault][2] in verdict["detail"]


@pytest.mark.parametrize(("m", "error", "message"), [
    ([[0.5]], TypeError, "the matrix: cannot coerce 0.5 to an exact rational"),
    ([[1, 2], [3]], ValueError, "the matrix has ragged rows"),
    ([["x"]], ValueError, "the matrix: bad rational 'x': not a number"),
    ([[0.0]], TypeError, "the matrix: cannot coerce 0.0 to an exact rational"),
    ([[False]], TypeError, "the matrix: cannot coerce False to an exact rational"),
    ([[0, 0], [0]], ValueError, "the matrix has ragged rows"),
], ids=["float", "ragged", "word", "float-zero", "bool-zero", "ragged-zeros"])
def test_the_fraction_api_reads_a_scaled_matrix_through_the_same_door(m, error, message):
    # a float entry came back as a float from the exact API, and ragged rows passed; the
    # zero test read "x" as nonzero, and 0.0, False and ragged zeros as a zero matrix
    for read in (lambda m: linalg.mat_scale(2, m), linalg.is_zero_matrix):
        with pytest.raises(error) as refused:
            read(m)
        assert type(refused.value) is error and str(refused.value) == message
    assert linalg.mat_scale(2, [["1/4", 1]]) == [[Fraction(1, 2), 2]]
    assert linalg.is_zero_matrix([["0", 0], [Fraction(0), 0]])
    assert not linalg.is_zero_matrix([[0, 0], [0, "1/2"]])


def test_a_file_matrix_reads_back_as_written():
    m = [[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(7, 5)]]
    read = linalg.int_rows(fileio.matrix_to_json(m), "m", (2, 2))
    assert read == linalg.int_rows(m) == ([[5, -30], [0, 14]], 10)
    assert linalg.rational_matrix(read) == m


@pytest.mark.parametrize(("m", "shape", "read"), [
    (None, (2, 3), ([[0, 0, 0], [0, 0, 0]], 1)),      # a missing block is zero
    ([], (0, 3), ([], 1)),                            # no rows: any width
    ((((1, 2),), -2), (1, 2), ([[-1, -2]], 2)),       # a pair (rows, d), d made positive
    (((1, 2), (3, 4)), None, ([[1, 2], [3, 4]], 1)),  # a tuple of rows is a matrix
])
def test_int_rows_reads_zeros_pairs_and_tuples(m, shape, read):
    assert linalg.int_rows(m, "m", shape) == read


@pytest.mark.parametrize("m", [None, "12", {"0": ["1"]}, [["1"], "2"], ([1, 2], 1)])
def test_data_that_are_not_rows_are_refused_by_name(m):
    with pytest.raises(TypeError, match=re.escape("loop at 0 wants a list of rows")):
        linalg.int_rows(m, "loop at 0")


def test_ragged_rows_without_a_shape_are_refused_by_name():
    with pytest.raises(ValueError, match="^the endomorphism has ragged rows$"):
        sheaf.endo_to_sheaf([["1"], ["2", "3"]])


def test_base_changes_made_for_other_dimensions_are_refused_by_name():
    made_for = adhm.N1Representation(A1, {0: 2, 1: 1}, Psi={0: [[1, 1], [0, 1]]})
    _, g = sheaf.quadruple_to_quintuple(made_for)
    with pytest.raises(ValueError, match=re.escape("base change at 0 wants shape (1, 1)")):
        adhm.conjugate(adhm.N1Representation(A1, {0: 1, 1: 2}), g)
