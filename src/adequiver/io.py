"""JSON file formats: deformation parameters, representations, sheaf data.

Rationals, point data supports among them, travel as strings in the one
spelling `frac_to_str` prints, "p/q" in lowest terms or "p" ("-3", "1/2"; not
"0.5", "+3", "2/4"), or as JSON integers; `linalg.frac` reads them all.
Matrices are row-major arrays of them.  Node keys are integers as str() spells
them ("0", "-1"; not "00"); no object repeats a key.  Arrow, loop and framing
arrays, dimensions, framing ranks and partitions go to the constructors as they
are, which read the blocks into integer rows (`linalg.int_rows`) and the counts
with `linalg.integer`.  Every matrix written back, files and reports alike, is
printed by `matrix_to_json` from the records' integer tables (`arrows`,
`loops`, `framing`).  Malformed input raises SchemaError, which the command
line maps to exit code 2.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from . import linalg
from .adhm import N1Representation
from .deformation import DeformationParam, complete_affine_theta
from .dynkin import DynkinType, InputTooLarge, node_labels
from .linalg import IntMat
from .poly import Polynomial
from .sheaf import QuiverSheafData, TorsionSheafData


class SchemaError(ValueError):
    """Input file does not match the documented format."""


def frac_to_str(x: Fraction) -> str:
    """x as p/q, or as p when it is an integer (`str` of a Fraction, the spelling `linalg.frac`
    reads); InputTooLarge past the interpreter's cap on the digits of a printed integer."""
    try:
        return str(x)
    except ValueError:
        n = max(abs(x.numerator), x.denominator)
        digits = int(n.bit_length() * 0.30102999566398120)      # log10(2), one short at most
        digits += n >= 10 ** digits
        raise InputTooLarge(f"a computed value of {digits} digits exceeds the cap "
                            f"{sys.get_int_max_str_digits()} on printed digits") from None


def _expect(v, kinds, what: str):
    """v itself if it is a JSON value of one of kinds (true and false never are)."""
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise SchemaError(f"expected {what}, got {v!r}")
    return v


def frac_from_json(v, what: str = "an exact rational string") -> Fraction:
    """v read by `linalg.frac`; SchemaError naming what on anything it refuses."""
    try:
        return linalg.frac(v)
    except (TypeError, ValueError):
        raise SchemaError(f"expected {what}, got {v!r}") from None


def matrix_to_json(m, shape: tuple[int, int] | None = None) -> list[list[str]]:
    """The printed entries of m, row by row: any matrix `linalg.int_rows` reads, None as
    the zeros of shape."""
    rows, d = linalg.int_rows(m, "a printed matrix", shape)
    return [[frac_to_str(Fraction(x, d)) for x in row] for row in rows]


def _parse_type(record: Any) -> DynkinType:
    if not isinstance(record, dict) or "type" not in record:
        raise SchemaError("record must be an object with a 'type' field")
    try:
        return DynkinType.parse(str(record["type"]))
    except ValueError as e:
        raise SchemaError(str(e)) from None


def _node_table(record: dict, key: str) -> dict[int, Any]:
    table = record.get(key, {})
    if not isinstance(table, dict):
        raise SchemaError(f"'{key}' must be an object keyed by node labels")
    out = {}
    for k, v in table.items():
        if not re.fullmatch(r"0|-?[1-9][0-9]*", str(k)):     # one spelling: str(int(k))
            raise SchemaError(f"bad node label {k!r} under '{key}'")
        out[int(k)] = v
    return out


def _arrows_from_json(record: dict) -> dict[tuple[int, int, int], list]:
    """The 'arrows' array of a representation or point-data file, keyed (from, to, pair_index)."""
    arrows = record.get("arrows", [])
    if not isinstance(arrows, list):
        raise SchemaError("'arrows' must be an array")
    out = {}
    for entry in arrows:
        if not isinstance(entry, dict) or not {"from", "to", "matrix"} <= set(entry):
            raise SchemaError("each arrow needs 'from', 'to', 'matrix' (and optional 'pair_index')")
        key = tuple(_expect(entry.get(f, 0), int, f"an integer for arrow '{f}'")
                    for f in ("from", "to", "pair_index"))
        if key in out:
            raise SchemaError(f"duplicate arrow {key}")
        out[key] = _expect(entry["matrix"], list, f"an array of rows for arrow {key}")
    return out


def _framing_from_json(record: dict) -> tuple[dict[int, int], dict[int, list]]:
    """Framing ranks and vectors per node, from the 'framing' object."""
    table = _node_table(record, "framing")
    if not all(isinstance(v, dict) and "rank" in v for v in table.values()):
        raise SchemaError("framing entries are objects with 'rank' and 'vectors'")
    return ({a: v["rank"] for a, v in table.items()},
            {a: _expect(v.get("vectors", []), list, f"an array of framing vectors at node {a}")
             for a, v in table.items()})


def _arrows_to_json(arrows: dict) -> list[dict]:
    """The 'arrows' array of a representation or point-data file, in numeric key order."""
    return [{"from": s, "to": t, "pair_index": i, "matrix": matrix_to_json(m)}
            for (s, t, i), m in sorted(arrows.items())]


def _framing_to_json(ranks: dict[int, int], framing: dict[int, IntMat]) -> dict:
    """The 'framing' object: rank and vectors (the rows of the framing block) at each node
    of positive rank."""
    return {str(a): {"rank": ranks[a], "vectors": matrix_to_json(framing[a])}
            for a in sorted(ranks) if ranks[a]}


# -- deformation files ------------------------------------------------------

def deformation_from_dict(record: Any) -> DeformationParam:
    t = _parse_type(record)
    theta = {}
    for a, coeffs in _node_table(record, "theta").items():
        if not isinstance(coeffs, list):
            raise SchemaError("polynomials are arrays of rational strings, ascending")
        theta[a] = Polynomial.of([frac_from_json(c, f"an exact rational string at theta[{a}][{k}]")
                                  for k, c in enumerate(coeffs)])
    finite = node_labels(t, affine=False)
    if sorted(theta) == finite:
        return complete_affine_theta(t, theta)
    if sorted(theta) == node_labels(t, affine=True):
        return DeformationParam(t, theta)
    raise SchemaError(
        f"theta must cover the finite nodes {finite} (affine node optional)"
    )


def deformation_to_dict(d: DeformationParam) -> dict:
    return {
        "type": str(d.type),
        "theta": {
            str(a): [frac_to_str(c) for c in d.theta[a].coefficients]
            for a in sorted(d.theta)
        },
        "constrained": d.constrained,
    }


def load_deformation(path: str, data: bytes | None = None) -> DeformationParam:
    return deformation_from_dict(read_json(path, data))


# -- representation files ---------------------------------------------------

def representation_from_dict(record: Any) -> N1Representation:
    t = _parse_type(record)
    dims = _node_table(record, "dims")
    b = _arrows_from_json(record)
    psi = {a: _expect(v, list, f"an array of rows for the loop at {a}")
           for a, v in _node_table(record, "psi").items()}
    ranks, vectors = _framing_from_json(record)
    try:
        return N1Representation(type=t, dims=dims, B=b, Psi=psi, framing_ranks=ranks,
                                I=vectors, affine=0 in dims)
    except (ValueError, TypeError) as e:
        raise SchemaError(str(e)) from None


def representation_to_dict(rep: N1Representation) -> dict:
    return {
        "type": str(rep.type),
        "dims": {str(a): rep.dims[a] for a in sorted(rep.dims)},
        "arrows": _arrows_to_json(rep.arrows),
        "psi": {str(a): matrix_to_json(m) for a, m in sorted(rep.loops.items())},
        "framing": _framing_to_json(rep.framing_ranks, rep.framing),
    }


def load_representation(path: str, data: bytes | None = None) -> N1Representation:
    return representation_from_dict(read_json(path, data))


# -- sheaf data files -------------------------------------------------------

def sheaf_data_from_dict(record: Any) -> QuiverSheafData:
    t = _parse_type(record)
    sheaves = {}
    for a, v in _node_table(record, "nodes").items():
        if not isinstance(v, dict) or "points" not in v or not isinstance(v["points"], list):
            raise SchemaError("each node carries an object with a 'points' array")
        points = []
        for pt in v["points"]:
            if not isinstance(pt, dict) or not {"support", "partition"} <= set(pt):
                raise SchemaError("points are objects with 'support' and 'partition'")
            if not isinstance(pt["partition"], list):
                raise SchemaError("'partition' must be an array of positive integers")
            points.append((frac_from_json(pt["support"], f"a rational support at node {a}"),
                           pt["partition"]))
        try:
            sheaves[a] = TorsionSheafData.of(points)
        except ValueError as e:
            raise SchemaError(f"node {a}: {e}") from None
    maps = _arrows_from_json(record)
    ranks, vectors = _framing_from_json(record)
    try:
        return QuiverSheafData(type=t, node_sheaves=sheaves, arrow_maps=maps,
                               framing_ranks=ranks, framing_vectors=vectors, affine=0 in sheaves)
    except (ValueError, TypeError) as e:
        raise SchemaError(str(e)) from None


def sheaf_data_to_dict(data: QuiverSheafData) -> dict:
    return {
        "type": str(data.type),
        "nodes": {
            str(a): {
                "points": [
                    {"support": frac_to_str(s), "partition": list(parts)}
                    for s, parts in data.node_sheaves[a].points
                ]
            }
            for a in sorted(data.node_sheaves)
        },
        "arrows": _arrows_to_json(data.arrows),
        "framing": _framing_to_json(data.framing_ranks, data.framing),
    }


def load_sheaf_data(path: str, data: bytes | None = None) -> QuiverSheafData:
    return sheaf_data_from_dict(read_json(path, data))


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None


def _unique_keys(pairs: list) -> dict:
    """The JSON object of pairs; SchemaError on a repeated key, which json keeps the last of."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise SchemaError(f"duplicate key {k!r} in one JSON object")
        out[k] = v
    return out


def read_json(path: str, data: bytes | None = None) -> Any:
    """The JSON value of the UTF-8 file at path, or of data, its bytes read already."""
    try:
        return json.loads((read_bytes(path) if data is None else data).decode("utf-8"),
                          object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path} is not UTF-8 JSON: {e.reason} at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests deeper than the JSON reader can follow") from None


def dump_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=False) + "\n"


def write_json(path: str, record: dict) -> None:
    """record as `dump_json` text at path; SchemaError when path cannot be written."""
    text = dump_json(record)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}") from None
