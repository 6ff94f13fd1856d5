"""The package's record classes: construction, equality, hashing, immutability, repr
and copying.

Each class takes its fields positionally and by keyword, in one fixed order,
with fixed defaults; equal fields compare equal; the immutable ones hash by
their fields and refuse assignment; repr lists the fields a caller reads; a
copy, a deep copy and a pickle round trip give an equal record.
"""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from adequiver.adhm import (N1Representation, RelationResidual, SupportReport, SupportReportRow,
                            check_relations, check_support_property)
from adequiver.cli import RunReport, Verdict
from adequiver.deformation import (DeformationParam, ExceptionalLocus, LocusEntry,
                                   complete_affine_theta, theta_of_root)
from adequiver.dynkin import CartanMatrix, DynkinType, InputTooLarge, MarksVector, Root
from adequiver.gamma import (CharacterTable, GammaGroup, GroupElement, PrimeField,
                             enumerate_group)
from adequiver.monad import MonadData
from adequiver.poly import Polynomial
from adequiver.quiver import Arrow, QuiverSpec
from adequiver.sheaf import QuiverSheafData, TorsionSheafData

from helpers import finite_pair_example, worked_cycle_example

A1 = DynkinType("A", 1)
IDENTITY = (1, 0, 0, 1)
POINT = TorsionSheafData(((F(0), (1,)),))
EMPTY = TorsionSheafData(())

# class, positional args (defaults left out), the same by keyword (defaults given),
# positional args of an unequal instance, repr, frozen, hashable
RECORDS = [
    (DynkinType, ("E", 6), dict(family="E", rank=6), ("E", 7),
     "DynkinType(family='E', rank=6)", True, True),
    (CartanMatrix, (((2, -1), (-1, 2)), False, (1, 2)),
     dict(entries=((2, -1), (-1, 2)), affine=False, node_labels=(1, 2)),
     (((2, -1), (-1, 2)), True, (1, 2)),
     "CartanMatrix(entries=((2, -1), (-1, 2)), affine=False, node_labels=(1, 2))", True, True),
    (MarksVector, (A1, (1, 1)), dict(type=A1, delta=(1, 1)), (A1, (1, 2)),
     "MarksVector(type=DynkinType(family='A', rank=1), delta=(1, 1))", True, True),
    (Root, ((1, 1),), dict(coefficients=(1, 1)), ((1, 0),),
     "Root(coefficients=(1, 1))", True, True),
    (Arrow, (0, 1, "mckay", 1), dict(source=0, target=1, kind="mckay", sign=1, pair_index=0),
     (0, 1, "mckay", 1, 1),
     "Arrow(source=0, target=1, kind='mckay', sign=1, pair_index=0)", True, True),
    (QuiverSpec, (A1, "mckay", False, (1,), ()),
     dict(type=A1, flavor="mckay", affine=False, nodes=(1,), arrows=()),
     (A1, "n1", False, (1,), ()),
     "QuiverSpec(type=DynkinType(family='A', rank=1), flavor='mckay', affine=False, "
     "nodes=(1,), arrows=())", True, True),
    (Polynomial, ((F(1), F(-2)),), dict(coefficients=(F(1), F(-2))), ((F(1),),),
     "Polynomial(coefficients=(Fraction(1, 1), Fraction(-2, 1)))", True, True),
    (DeformationParam, (A1, {0: Polynomial((F(1),)), 1: Polynomial((F(-1),))}),
     dict(type=A1, theta={0: Polynomial((F(1),)), 1: Polynomial((F(-1),))}),
     (A1, {0: Polynomial((F(1),)), 1: Polynomial((F(1),))}),
     "DeformationParam(type=DynkinType(family='A', rank=1), "
     "theta={0: Polynomial(coefficients=(Fraction(1, 1),)), "
     "1: Polynomial(coefficients=(Fraction(-1, 1),))})", True, True),
    (LocusEntry, (0.5 + 0j, Root((1,)), 2), dict(point=0.5 + 0j, root=Root((1,)), multiplicity=2),
     (0.5 + 0j, Root((1,)), 1),
     "LocusEntry(point=(0.5+0j), root=Root(coefficients=(1,)), multiplicity=2)", True, True),
    (ExceptionalLocus, (A1, ()), dict(type=A1, entries=()), (DynkinType("A", 2), ()),
     "ExceptionalLocus(type=DynkinType(family='A', rank=1), entries=())", True, True),
    (PrimeField, (5, 4, 2), dict(p=5, n=4, omega=2), (5, 4, 3),
     "PrimeField(p=5, n=4, omega=2)", True, True),
    (GammaGroup, (A1, PrimeField(5, 4, 2), [], [IDENTITY], [None], [[0]], [0], {IDENTITY: 0}),
     dict(type=A1, fp=PrimeField(5, 4, 2), gens=[], residues=[IDENTITY], tree=[None],
          classes=[[0]], class_index=[0], index={IDENTITY: 0}),
     (A1, PrimeField(5, 4, 2), [], [IDENTITY], [None], [[0]], [0], {}),
     "GammaGroup(type=DynkinType(family='A', rank=1), fp=PrimeField(p=5, n=4, omega=2), "
     "classes=[[0]])", False, False),
    (CharacterTable, (None, [[1]], [1], [[1 + 0j]]),
     dict(group=None, values=[[1]], degrees=[1], lifted=[[1 + 0j]]),
     (None, [[1]], [1], [[1j]]),
     "CharacterTable(values=[[1]], degrees=[1])", False, False),
    (TorsionSheafData, (((F(1, 2), (2, 1)),),), dict(points=((F(1, 2), (2, 1)),)),
     (((F(1, 2), (3,)),),),
     "TorsionSheafData(points=((Fraction(1, 2), (2, 1)),))", True, True),
    (QuiverSheafData, (A1, {0: POINT, 1: EMPTY}, {}),
     dict(type=A1, node_sheaves={0: POINT, 1: EMPTY}, arrow_maps={}, framing_ranks={},
          framing_vectors={}, affine=True),
     (A1, {0: POINT, 1: EMPTY}, {}, {0: 1}, {0: [[1]]}),
     "QuiverSheafData(type=DynkinType(family='A', rank=1), "
     "node_sheaves={0: TorsionSheafData(points=((Fraction(0, 1), (1,)),)), "
     "1: TorsionSheafData(points=())}, "
     "arrows={(0, 1, 0): ([], 1), (1, 0, 0): ([[]], 1), (1, 0, 1): ([[]], 1), (0, 1, 1): ([], 1)}, "
     "framing_ranks={0: 0, 1: 0}, framing={0: ([], 1), 1: ([], 1)}, affine=True)", False, False),
    (N1Representation, (A1, {0: 1, 1: 0}),
     dict(type=A1, dims={0: 1, 1: 0}, B={}, Psi={}, framing_ranks={}, I={}, affine=True),
     (A1, {0: 1, 1: 0}, {}, {0: [[1]]}),
     "N1Representation(type=DynkinType(family='A', rank=1), dims={0: 1, 1: 0}, "
     "arrows={(0, 1, 0): ([], 1), (1, 0, 0): ([[]], 1), (1, 0, 1): ([[]], 1), (0, 1, 1): ([], 1)}, "
     "loops={0: ([[0]], 1), 1: ([], 1)}, framing_ranks={0: 0, 1: 0}, "
     "framing={0: ([], 1), 1: ([], 1)}, affine=True)", False, False),
    (RelationResidual, ({0: None}, {}, {0: 1}), dict(nodes={0: None}, edges={}, dims={0: 1}),
     ({0: ([[1]], 1)}, {}, {0: 1}),
     "RelationResidual(nodes={0: None}, edges={}, dims={0: 1})", False, False),
    (SupportReportRow, (1, 1, [((1,), 1)], 0),
     dict(node=1, distinct=1, roots=[((1,), 1)], off_locus=0), (1, 1, [((1,), 1)], 1),
     "SupportReportRow(node=1, distinct=1, roots=[((1,), 1)], off_locus=0)", False, False),
    (SupportReport, ([],), dict(rows=[]), ([SupportReportRow(1, 1, [], 1)],),
     "SupportReport(rows=[])", False, False),
    (MonadData, (0, {0: 1}, {0: 0}, {0: F(0)}, [], []),
     dict(rank=0, dims={0: 1}, framing_dims={0: 0}, lam={0: F(0)}, a=[], b=[]),
     (0, {0: 1}, {0: 0}, {0: F(1)}, [], []),
     "MonadData(rank=0, dims={0: 1}, framing_dims={0: 0}, lam={0: Fraction(0, 1)}, a=[], b=[])",
     False, False),
    (Verdict, ("relations", True), dict(name="relations", passed=True, detail=""),
     ("relations", False),
     "Verdict(name='relations', passed=True, detail='')", False, False),
    (RunReport, ("roots",),
     dict(command="roots", inputs=[], lines=[], verdicts=[], notes=[], data={}, forced_exit=None),
     ("roots", [], [], [], [], {}, 2),
     "RunReport(command='roots', inputs=[], lines=[], verdicts=[], notes=[], data={}, "
     "forced_exit=None)", False, False),
]


@pytest.mark.parametrize("cls, args, kwargs, other, text, frozen, hashable", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, args, kwargs, other, text, frozen, hashable):
    x, y = cls(*args), cls(**kwargs)
    assert repr(x) == repr(y) == text
    assert x == y and not x != y
    assert x != cls(*other)
    assert x != tuple(kwargs.values())
    for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied.__class__ is cls and copied == x and repr(copied) == text
    name = next(iter(kwargs))
    if hashable:
        assert hash(x) == hash(y)
        assert {x: 1}[y] == 1
    else:
        with pytest.raises(TypeError):
            hash(x)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    else:
        setattr(x, name, getattr(y, name))
    assert x == y


def _record_classes():
    """Every `_Record` subclass the package defines, its modules all imported."""
    import importlib
    import pkgutil

    import adequiver
    from adequiver.dynkin import _Frozen, _Record
    for info in pkgutil.iter_modules(adequiver.__path__):
        if not info.name.startswith("__"):
            importlib.import_module(f"adequiver.{info.name}")
    found, todo = set(), [_Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        todo += subclasses
        found |= {c for c in subclasses if c.__module__.startswith("adequiver.")}
    return found - {_Frozen}


def test_every_record_class_is_covered():
    # GroupElement has its own test below
    assert _record_classes() == {row[0] for row in RECORDS} | {GroupElement}


def test_only_records_that_convert_their_input_write_a_constructor():
    assert {c for c in _record_classes() if "__init__" in vars(c)} == {
        N1Representation, QuiverSheafData, GroupElement, RunReport, DynkinType, DeformationParam}


@pytest.mark.parametrize("cls", [Arrow, Verdict], ids=["frozen", "mutable"])
def test_constructor_refuses_arguments_a_signature_would(cls):
    args = {Arrow: (0, 1, "mckay", 1, 0), Verdict: ("relations", True, "")}[cls]
    assert repr(cls(*args)) == repr(cls(*args[:-1]))      # the last field has a default
    with pytest.raises(TypeError, match="missing arguments"):
        cls(*args[:-2])
    with pytest.raises(TypeError, match="missing arguments"):
        cls(**{name: value for name, value in zip(cls._fields[1:], args[1:])})
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*args, colour=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{cls._fields[0]}'"):
        cls(*args, **{cls._fields[0]: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(args)} arguments, got {len(args) + 1}"):
        cls(*args, None)


def test_deformation_table_refuses_in_place_edits():
    # an edit of theta would leave the cached projections stale
    t = DynkinType("A", 2)
    d = complete_affine_theta(t, {1: Polynomial.of([1, 1]), 2: Polynomial.of([2, 0, 1])})
    root = Root((1, 0))
    assert dict(d.projections)[root] == Polynomial.of([1, 1])
    five = Polynomial.of([5])
    for edit in (lambda th: th.__setitem__(1, five), lambda th: th.__delitem__(1),
                 lambda th: th.update({1: five}), lambda th: th.setdefault(3, five),
                 lambda th: th.pop(1), lambda th: th.popitem(), lambda th: th.clear()):
        with pytest.raises(TypeError):
            edit(d.theta)
    with pytest.raises(TypeError):
        d.theta |= {1: five}
    assert sorted(d.theta) == [0, 1, 2] and d.theta[1] == Polynomial.of([1, 1])
    assert theta_of_root(d, root) == dict(d.projections)[root] == Polynomial.of([1, 1])
    assert hash(d) == hash(DeformationParam(t, dict(d.theta)))


def test_records_derive_what_their_data_decide():
    # a residual stores its dimensions, a report its rows and a parameter its table; the
    # verdicts are read off those, so no argument can disagree with the data
    with pytest.raises(TypeError, match=re.escape("missing arguments ['dims']")):
        RelationResidual({0: None}, {})
    residual = RelationResidual({0: None, 1: None}, {(0, 1, 0): ([[2]], 1)}, {0: 1, 1: 1})
    assert residual.nodes_zero and not residual.edges_zero and not residual.is_zero
    assert residual.node_residuals == {0: [[F(0)]], 1: [[F(0)]]}
    assert residual.edge_residuals == {(0, 1, 0): [[F(2)]]}
    t = Polynomial.of([0, 1])
    assert not DeformationParam(A1, {0: t, 1: t}).constrained
    assert DeformationParam(A1, {0: -t, 1: t}).constrained
    with pytest.raises(TypeError):
        DeformationParam(A1, {0: t, 1: t}, True)
    with pytest.raises(InputTooLarge, match="theta degree 40 exceeds the cap 32"):
        DeformationParam(A1, {0: Polynomial.of([0] * 40 + [1]), 1: t})
    with pytest.raises(ValueError, match=re.escape("need one polynomial per node [0, 1]")):
        DeformationParam(A1, {1: t})
    off = SupportReportRow(1, 1, [], 1)
    assert not SupportReport([off]).ok and SupportReport([]).ok
    with pytest.raises(TypeError):
        SupportReport([off], True)


def test_records_built_from_their_fields_equal_the_computed_ones():
    rep, theta = worked_cycle_example()
    for table in (theta, {a: [1] for a in rep.dims}):      # all zero, then all nonzero
        residual = check_relations(rep, table)
        assert RelationResidual(residual.nodes, residual.edges, residual.dims) == residual
    assert not residual.nodes_zero
    rep, theta = finite_pair_example()
    report = check_support_property(rep, theta)
    assert SupportReport(report.rows) == report and report.ok
    for table in (dict(theta.theta), {a: list(p.coefficients) for a, p in theta.theta.items()}):
        twin = DeformationParam(theta.type, table)
        assert twin == theta and hash(twin) == hash(theta) and twin.constrained


def test_group_elements_compare_and_hash_by_their_matrices():
    import numpy as np
    x, y = GroupElement(np.eye(2)), GroupElement([[1, 0], [0, 1]])
    assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert x != GroupElement([[0, 1], [-1, 0]])
    assert GroupElement([[-0.0, 1], [-1, 0]]) == GroupElement([[0.0, 1], [-1, 0]])
    assert hash(GroupElement([[-0.0, 1], [-1, 0]])) == hash(GroupElement([[0.0, 1], [-1, 0]]))
    for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied.__class__ is GroupElement and copied == x and hash(copied) == hash(x)
    with pytest.raises(ValueError):
        x.m[0, 0] = 2               # the matrix is a read-only copy
    source = np.eye(2, dtype=complex)
    z = GroupElement(source)
    source[0, 0] = 2
    assert z == x
    for entry in (float("nan"), float("inf"), -float("inf"), complex(0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            GroupElement([[entry, 0], [0, 1]])
    elements = enumerate_group(DynkinType("D", 4)).elements
    assert len(elements) == len(set(elements)) == 8
    assert all(a != b for i, a in enumerate(elements) for b in elements[i + 1:])


def test_dynkin_type_prints_as_its_name():
    assert str(DynkinType("E", 6)) == "E6"
    assert str(DynkinType.parse("D5")) == "D5"
