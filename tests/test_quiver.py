import pytest

from adequiver import quiver
from adequiver.dynkin import DynkinType, adjacency_matrix

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
             "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", ALL_TYPES)
@pytest.mark.parametrize("affine", [True, False])
def test_validate_all_flavors(name, affine):
    t = DynkinType.parse(name)
    for build in (quiver.build_mckay_quiver, quiver.build_extended_quiver, quiver.build_n1_quiver):
        quiver.validate_quiver(build(t, affine))


def test_affine_a2_arrow_count_and_cycle_signs():
    q = quiver.build_mckay_quiver(DynkinType.parse("A2"))
    assert len(q.arrows) == 6
    by_key = {a.key: a for a in q.mckay_arrows()}
    for a in range(3):
        fwd = by_key[(a, (a + 1) % 3, 0)]
        back = by_key[((a + 1) % 3, a, 0)]
        assert fwd.sign == 1 and back.sign == -1


def test_a1_doubled_bond():
    q = quiver.build_mckay_quiver(DynkinType.parse("A1"))
    assert len(q.arrows) == 4
    by_key = {a.key: a for a in q.mckay_arrows()}
    assert by_key[(0, 1, 0)].sign == 1
    assert by_key[(1, 0, 0)].sign == -1
    # second pair runs the other way
    assert by_key[(1, 0, 1)].sign == 1
    assert by_key[(0, 1, 1)].sign == -1


def test_de_signs_point_up_the_labels():
    q = quiver.build_mckay_quiver(DynkinType.parse("D5"))
    for a in q.mckay_arrows():
        assert a.sign == (1 if a.source < a.target else -1)


@pytest.mark.parametrize("name", ALL_TYPES)
@pytest.mark.parametrize("affine", [True, False])
def test_adjacency_matches_diagram(name, affine):
    t = DynkinType.parse(name)
    q = quiver.build_mckay_quiver(t, affine)
    index = {a: i for i, a in enumerate(q.nodes)}
    counts = [[0] * len(q.nodes) for _ in q.nodes]
    for arrow in q.mckay_arrows():
        counts[index[arrow.source]][index[arrow.target]] += 1
    assert counts == adjacency_matrix(t, affine)


def test_extended_has_framing_leaves():
    q = quiver.build_extended_quiver(DynkinType.parse("E8"))
    assert len(q.nodes) == 18
    kinds = [a.kind for a in q.arrows]
    assert kinds.count(quiver.KIND_FRAMING_IN) == 9
    assert kinds.count(quiver.KIND_FRAMING_OUT) == 9
    assert all(a.sign == 0 for a in q.arrows if a.kind != quiver.KIND_MCKAY)


def test_n1_has_one_loop_per_node():
    q = quiver.build_n1_quiver(DynkinType.parse("D4"))
    loops = [a for a in q.arrows if a.kind == quiver.KIND_LOOP]
    assert len(loops) == 5
    assert {a.source for a in loops} == set(q.nodes)
    assert all(a.source == a.target and a.sign == 0 for a in loops)


def test_to_dot_deterministic_and_complete():
    t = DynkinType.parse("D4")
    s1 = quiver.to_dot(quiver.build_n1_quiver(t))
    s2 = quiver.to_dot(quiver.build_n1_quiver(t))
    assert s1 == s2
    assert s1.startswith("digraph")
    assert s1.count("->") == len(quiver.build_n1_quiver(t).arrows)
    assert 'label="loop"' in s1


def test_validate_rejects_broken_pairing():
    q = quiver.build_mckay_quiver(DynkinType.parse("A2"))
    broken = quiver.QuiverSpec(q.type, q.flavor, q.affine, q.nodes, q.arrows[:-1])
    with pytest.raises(AssertionError):
        quiver.validate_quiver(broken)


def test_n1_quiver_built_once_per_type_and_affine():
    t = DynkinType.parse("E6")
    affine = quiver.build_n1_quiver(t)
    assert quiver.build_n1_quiver(DynkinType("E", 6), True) is affine
    finite = quiver.build_n1_quiver(t, affine=False)
    assert finite is not affine and 0 not in finite.nodes
    assert quiver.build_n1_quiver(t, False) is finite
