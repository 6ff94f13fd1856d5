from fractions import Fraction

import pytest

from adequiver import dynkin
from helpers import sympy_nullspace

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
             "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]


def test_parse_and_str():
    t = dynkin.DynkinType.parse("e8")
    assert (t.family, t.rank) == ("E", 8)
    assert str(t) == "E8"


@pytest.mark.parametrize("bad", ["", "B3", "A0", "D3", "E5", "E9", "Ax", "7"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        dynkin.DynkinType.parse(bad)


def test_node_labels():
    t = dynkin.DynkinType.parse("D5")
    assert dynkin.node_labels(t, affine=True) == [0, 1, 2, 3, 4, 5]
    assert dynkin.node_labels(t, affine=False) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cartan_matrix_shape_and_symmetry(name):
    t = dynkin.DynkinType.parse(name)
    for affine in (False, True):
        c = dynkin.cartan_matrix(t, affine)
        n = len(c.node_labels)
        assert n == t.rank + (1 if affine else 0)
        for i in range(n):
            assert c.entries[i][i] == 2
            for j in range(n):
                assert c.entries[i][j] == c.entries[j][i]
                if i != j:
                    assert c.entries[i][j] in (0, -1, -2)


def test_affine_a1_has_doubled_bond():
    t = dynkin.DynkinType.parse("A1")
    c = dynkin.cartan_matrix(t, affine=True)
    assert c.entries == ((2, -2), (-2, 2))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_marks_against_sympy_kernel(name):
    t = dynkin.DynkinType.parse(name)
    c = dynkin.cartan_matrix(t, affine=True)
    kernel = sympy_nullspace([list(r) for r in c.entries])
    assert len(kernel) == 1
    v = kernel[0]
    v = [x / v[0] for x in v]
    got = dynkin.marks(t)
    assert list(got.delta) == [int(x) for x in v]
    assert got.delta[0] == 1


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 3), ("A8", 9),
    ("D4", 8), ("D5", 12), ("D8", 24),
    ("E6", 24), ("E7", 48), ("E8", 120),
])
def test_group_order_from_marks(name, order):
    assert dynkin.marks(dynkin.DynkinType.parse(name)).group_order == order


def test_e8_marks_explicit():
    # long chain 0..7 with the branch node 8 on node 5
    assert dynkin.marks(dynkin.DynkinType.parse("E8")).delta == (1, 2, 3, 4, 5, 6, 4, 2, 3)


def test_d4_marks_center_two():
    assert dynkin.marks(dynkin.DynkinType.parse("D4")).as_dict() == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_count_closed_form(name):
    t = dynkin.DynkinType.parse(name)
    roots = dynkin.positive_roots(t)
    assert len(roots) == dynkin.positive_root_count(t)
    assert len(set(roots)) == len(roots)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_every_root_has_norm_two(name):
    t = dynkin.DynkinType.parse(name)
    for r in dynkin.positive_roots(t):
        assert dynkin.root_norm(t, r.coefficients) == 2


@pytest.mark.parametrize("name", ALL_TYPES)
def test_highest_root_equals_finite_marks(name):
    t = dynkin.DynkinType.parse(name)
    assert dynkin.highest_root(t).coefficients == dynkin.marks(t).delta[1:]


def test_a2_roots_exactly():
    t = dynkin.DynkinType.parse("A2")
    assert [r.coefficients for r in dynkin.positive_roots(t)] == [(0, 1), (1, 0), (1, 1)]


def test_is_positive_root():
    t = dynkin.DynkinType.parse("A2")
    assert dynkin.is_positive_root(t, (1, 1))
    assert not dynkin.is_positive_root(t, (2, 0))
    assert not dynkin.is_positive_root(t, (0, 0))
    with pytest.raises(ValueError):
        dynkin.is_positive_root(t, (1, 0, 0))


def test_root_heights_and_dicts():
    t = dynkin.DynkinType.parse("D4")
    top = dynkin.highest_root(t)
    assert top.height == 5
    assert top.as_dict() == {1: 1, 2: 2, 3: 1, 4: 1}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_adjacency_matches_edges(name):
    t = dynkin.DynkinType.parse(name)
    adj = dynkin.adjacency_matrix(t, affine=True)
    labels = dynkin.node_labels(t, affine=True)
    index = {a: i for i, a in enumerate(labels)}
    counted = [[0] * len(labels) for _ in labels]
    for a, b in dynkin.affine_edges(t):
        counted[index[a]][index[b]] += 1
        counted[index[b]][index[a]] += 1
    assert adj == counted


@pytest.mark.parametrize("name", ALL_TYPES)
def test_affine_diagram_is_connected_with_rank_plus_one_nodes(name):
    t = dynkin.DynkinType.parse(name)
    edges = dynkin.affine_edges(t)
    nodes = set(dynkin.node_labels(t, affine=True))
    assert len(nodes) == t.rank + 1
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    assert seen == nodes


def test_marks_computed_once_per_type():
    first = dynkin.marks(dynkin.DynkinType.parse("E7"))
    assert dynkin.marks(dynkin.DynkinType("E", 7)) is first
    assert first.delta == (1, 2, 3, 4, 3, 2, 1, 2)


def test_rank_cap_refuses_before_building_anything():
    at_cap = dynkin.DynkinType("A", dynkin.MAX_RANK)
    assert at_cap.rank == dynkin.MAX_RANK
    for family in ("A", "D"):
        with pytest.raises(dynkin.InputTooLarge, match=f"rank {dynkin.MAX_RANK + 1} exceeds"):
            dynkin.DynkinType(family, dynkin.MAX_RANK + 1)
    with pytest.raises(dynkin.InputTooLarge):
        dynkin.DynkinType.parse("A100000")
