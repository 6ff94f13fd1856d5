import json
import re
import sys
from fractions import Fraction

import pytest

from adequiver import adhm, io, sheaf
from adequiver.deformation import Polynomial
from adequiver.dynkin import DynkinType, InputTooLarge

from helpers import worked_cycle_example

A2 = DynkinType.parse("A2")


class TestRationals:
    def test_roundtrip(self):
        for x in (Fraction(0), Fraction(-3, 7), Fraction(5), Fraction(22, 4)):
            assert io.frac_from_json(io.frac_to_str(x)) == x
        assert io.frac_to_str(Fraction(3)) == "3"
        assert io.frac_to_str(Fraction(-1, 2)) == "-1/2"

    def test_ints_accepted(self):
        assert io.frac_from_json(7) == Fraction(7)

    def test_rejections(self):
        for bad in (True, 1.5, None, "1/0", "a/b", "1/2/3", [1]):
            with pytest.raises(io.SchemaError):
                io.frac_from_json(bad)


class TestDeformationFiles:
    def test_finite_table_is_completed(self):
        d = io.deformation_from_dict(
            {"type": "A2", "theta": {"1": ["0", "1"], "2": ["-1", "1"]}}
        )
        assert d.constrained
        assert d.theta[0] == Polynomial.of([1, -2])

    def test_full_table_taken_verbatim(self):
        d = io.deformation_from_dict(
            {"type": "A1", "theta": {"0": ["0", "1"], "1": ["0", "1"]}}
        )
        assert not d.constrained

    def test_partial_coverage_rejected(self):
        with pytest.raises(io.SchemaError):
            io.deformation_from_dict({"type": "A2", "theta": {"1": ["1"]}})

    def test_bad_type_and_shape(self):
        with pytest.raises(io.SchemaError):
            io.deformation_from_dict({"type": "B2", "theta": {}})
        with pytest.raises(io.SchemaError):
            io.deformation_from_dict({"type": "A1", "theta": {"1": "t"}})
        with pytest.raises(io.SchemaError):
            io.deformation_from_dict({"type": "A1", "theta": {"x": ["1"]}})
        with pytest.raises(io.SchemaError):
            io.deformation_from_dict([1, 2])

    def test_roundtrip_via_dict(self):
        _, theta = worked_cycle_example()
        again = io.deformation_from_dict(io.deformation_to_dict(theta))
        assert again == theta
        assert io.deformation_to_dict(theta)["constrained"] is True


class TestRepresentationFiles:
    def rec(self):
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

    def test_load_matches_worked_example(self):
        rep, _ = worked_cycle_example()
        assert io.representation_from_dict(self.rec()) == rep

    def test_affine_inferred_from_node_zero(self):
        rec = {"type": "A2", "dims": {"1": 1, "2": 1}}
        rep = io.representation_from_dict(rec)
        assert not rep.affine
        assert io.representation_from_dict(self.rec()).affine

    def test_roundtrip(self):
        rep, _ = worked_cycle_example()
        again = io.representation_from_dict(io.representation_to_dict(rep))
        assert again == rep

    def test_duplicate_arrow_rejected(self):
        rec = self.rec()
        rec["arrows"].append({"from": 0, "to": 1, "matrix": [["2"]]})
        with pytest.raises(io.SchemaError):
            io.representation_from_dict(rec)

    def test_stray_arrow_rejected(self):
        rec = self.rec()
        rec["arrows"][0]["to"] = 9
        with pytest.raises(io.SchemaError):
            io.representation_from_dict(rec)

    def test_wrong_matrix_shape_rejected(self):
        rec = self.rec()
        rec["arrows"][0]["matrix"] = [["1", "2"]]
        with pytest.raises(io.SchemaError):
            io.representation_from_dict(rec)

    def test_bad_dims_rejected(self):
        for dims in ({"0": -1, "1": 1, "2": 1}, {"0": True, "1": 1, "2": 1},
                     {"0": "1", "1": 1, "2": 1}):
            with pytest.raises(io.SchemaError):
                io.representation_from_dict({"type": "A2", "dims": dims})

    def test_framing_needs_rank(self):
        rec = self.rec()
        rec["framing"] = {"0": {"vectors": [["1"]]}}
        with pytest.raises(io.SchemaError):
            io.representation_from_dict(rec)

    def test_unframed_nodes_not_serialised(self):
        rep, _ = worked_cycle_example()
        assert set(io.representation_to_dict(rep)["framing"]) == {"0"}

    def test_arrows_written_in_numeric_order_as_in_point_data(self):
        # from rank 10 on, string order would put (0, 10, 0) before (1, 0, 0)
        rep = adhm.N1Representation(DynkinType.parse("A10"), {a: 0 for a in range(11)})
        written = io.representation_to_dict(rep)["arrows"]
        assert [(e["from"], e["to"], e["pair_index"]) for e in written] == sorted(rep.B)
        data, _ = sheaf.quadruple_to_quintuple(rep)
        assert io.sheaf_data_to_dict(data)["arrows"] == written


class TestSheafFiles:
    def rec(self):
        return {
            "type": "A2",
            "nodes": {
                "0": {"points": [{"support": "0", "partition": [1]}]},
                "1": {"points": [{"support": "0", "partition": [1]}]},
                "2": {"points": [{"support": "0", "partition": [1]}]},
            },
            "arrows": [
                {"from": 0, "to": 1, "matrix": [["1"]]},
                {"from": 2, "to": 0, "matrix": [["1"]]},
                {"from": 0, "to": 2, "matrix": [["1"]]},
            ],
            "framing": {"0": {"rank": 1, "vectors": [["1"]]}},
        }

    def test_roundtrip(self):
        data = io.sheaf_data_from_dict(self.rec())
        again = io.sheaf_data_from_dict(io.sheaf_data_to_dict(data))
        assert again.node_sheaves == data.node_sheaves
        assert again.arrow_maps == data.arrow_maps
        assert again.framing_vectors == data.framing_vectors

    def test_matches_dictionary_output(self):
        rep, _ = worked_cycle_example()
        data, _ = sheaf.quadruple_to_quintuple(rep)
        assert io.sheaf_data_from_dict(self.rec()).node_sheaves == data.node_sheaves

    @pytest.mark.parametrize("framing, message", [
        ({"rank": -1}, "the framing rank at node 0 must be an integer >= 0, got -1"),
        ({"rank": 2, "vectors": [["1", "2", "3"]]}, "framing at node 0 wants shape (2, 1)"),
        ({"rank": 1, "vectors": [["1", "2", "3"]]}, "framing at node 0 wants shape (1, 1)"),
    ])
    def test_framing_is_refused_in_the_words_of_a_representation(self, framing, message):
        # node 0 has dimension 1, in the point data and in its representation alike
        rec = self.rec()
        rec["framing"] = {"0": framing}
        with pytest.raises(io.SchemaError) as refused:
            io.sheaf_data_from_dict(rec)
        rep, _ = worked_cycle_example()
        with pytest.raises(ValueError) as also:
            adhm.N1Representation(rep.type, rep.dims, rep.B, rep.Psi,
                                  {0: framing["rank"]}, {0: framing.get("vectors", [])})
        assert str(refused.value) == str(also.value) == message

    @pytest.mark.parametrize("support", [{"re": 0.5, "im": -1.0}, 0.5, None, ["1"]])
    def test_support_that_is_not_a_rational_string_is_refused_naming_its_node(self, support):
        rec = self.rec()
        rec["nodes"]["2"]["points"][0]["support"] = support
        with pytest.raises(io.SchemaError) as refused:
            io.sheaf_data_from_dict(rec)
        assert str(refused.value) == f"expected a rational support at node 2, got {support!r}"

    def test_non_intertwining_arrow_rejected(self):
        # well-formed file, mathematically inconsistent content: compute error
        rec = self.rec()
        rec["nodes"]["1"]["points"][0]["support"] = "5"
        with pytest.raises(sheaf.EdgeRelationViolated):
            io.sheaf_data_from_dict(rec)

    def test_bad_points_rejected(self):
        rec = self.rec()
        rec["nodes"]["0"]["points"] = [{"support": "0"}]
        with pytest.raises(io.SchemaError):
            io.sheaf_data_from_dict(rec)
        rec["nodes"]["0"]["points"] = [{"support": "0", "partition": [0]}]
        with pytest.raises(io.SchemaError):
            io.sheaf_data_from_dict(rec)
        rec["nodes"]["0"] = {"points": [
            {"support": {"re": 1}, "partition": [1]},
        ]}
        with pytest.raises(io.SchemaError):
            io.sheaf_data_from_dict(rec)


class TestNodeLabels:
    # one spelling per node, the one str() gives: int() reads each of these ("²" excepted),
    # so "01" and "1" were one node, the later winning
    @pytest.mark.parametrize("label", ["01", "00", "-0", "+1", " 1", "1_0", "²", "\u0661",
                                       "\uff11"])
    @pytest.mark.parametrize("read, key, value", [
        (io.representation_from_dict, "dims", 2),
        (io.representation_from_dict, "psi", [["0"]]),
        (io.representation_from_dict, "framing", {"rank": 0}),
        (io.deformation_from_dict, "theta", ["1"]),
        (io.sheaf_data_from_dict, "nodes", {"points": []}),
    ])
    def test_other_spellings_are_refused_naming_the_key(self, label, read, key, value):
        rec = {"type": "A1", key: {"0": value, "1": value, label: value}}
        with pytest.raises(io.SchemaError, match=f"^bad node label {re.escape(repr(label))} "
                                                 f"under '{key}'$"):
            read(rec)

    def test_canonical_spellings_are_read(self):
        rep = io.representation_from_dict({"type": "A10", "dims": {str(a): a for a in range(11)}})
        assert rep.dims == {a: a for a in range(11)}
        with pytest.raises(io.SchemaError, match=r"exactly the nodes"):
            io.representation_from_dict({"type": "A1", "dims": {"-1": 1, "1": 1}})


class TestFiles:
    def test_read_json_refuses_a_repeated_key(self):
        for text, key in ((b'{"type": "A1", "dims": {"1": 1, "1": 2}}', "'1'"),
                          (b'{"type": "A1", "type": "A2"}', "'type'"),
                          (b'[{"a": {"b": 1, "c": 2, "b": 1}}]', "'b'")):
            with pytest.raises(io.SchemaError) as refused:
                io.read_json("rep.json", text)
            assert str(refused.value) == f"duplicate key {key} in one JSON object"
        assert io.read_json("rep.json", b'{"a": {"b": 1}, "b": {"a": 2}}') == \
            {"a": {"b": 1}, "b": {"a": 2}}

    def test_read_json_missing_and_invalid(self, tmp_path):
        with pytest.raises(io.SchemaError):
            io.read_json(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(io.SchemaError):
            io.read_json(str(bad))

    def test_value_past_the_print_cap_names_its_digits(self):
        cap = sys.get_int_max_str_digits()
        for x, digits in ((10 ** cap, cap + 1), (-(10 ** cap - 1) * 10, cap + 1),
                          (Fraction(1, 10 ** (cap + 5) - 1), cap + 5)):
            with pytest.raises(InputTooLarge, match=f"of {digits} digits exceeds the cap {cap}"):
                io.frac_to_str(Fraction(x))
        assert io.frac_to_str(Fraction(10 ** (cap - 1), 3)) == "1" + "0" * (cap - 1) + "/3"

    def test_load_representation(self, tmp_path):
        rep, _ = worked_cycle_example()
        p = tmp_path / "rep.json"
        p.write_text(io.dump_json(io.representation_to_dict(rep)))
        assert io.load_representation(str(p)) == rep

    def test_dump_json_is_stable(self):
        rep, _ = worked_cycle_example()
        rec = io.representation_to_dict(rep)
        assert io.dump_json(rec) == io.dump_json(rec)
        assert io.dump_json(rec).endswith("\n")
        json.loads(io.dump_json(rec))
