import cmath

import numpy as np
import pytest

from adequiver import cli, gamma
from adequiver.dynkin import DynkinType, marks

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
             "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_order_matches_sum_of_squared_marks(name):
    t = DynkinType.parse(name)
    g = gamma.enumerate_group(t)
    assert g.order == marks(t).group_order


@pytest.mark.parametrize("name,classes", [
    ("A1", 2), ("A5", 6), ("D4", 5), ("D8", 9), ("E6", 7), ("E7", 8), ("E8", 9),
])
def test_class_count_is_rank_plus_one(name, classes):
    g = gamma.enumerate_group(DynkinType.parse(name))
    assert len(g.classes) == classes == g.type.rank + 1


@pytest.mark.parametrize("name", ALL_TYPES)
def test_group_axioms_spotchecks(name):
    g = gamma.enumerate_group(DynkinType.parse(name))
    table = g.mult_table
    n = g.order
    # identity row and column
    assert np.array_equal(table[0], np.arange(n))
    assert np.array_equal(table[:, 0], np.arange(n))
    # inverses really invert
    assert np.array_equal(table[np.arange(n), g.inverse], np.zeros(n, dtype=table.dtype))
    # determinant one throughout
    for e in g.elements:
        assert abs(np.linalg.det(e.m) - 1) < 1e-9


def test_elements_unique_exactly():
    g = gamma.enumerate_group(DynkinType.parse("E8"))
    assert len(set(g.residues)) == g.order == 120


def test_closure_cap_raises(monkeypatch):
    # E8's generators close on 120 elements, past the order 2 that the marks of A1 give
    e8 = gamma.generators(DynkinType.parse("E8"))
    monkeypatch.setattr(gamma, "generators", lambda t: e8)
    with pytest.raises(gamma.ClosureOverflow, match="closure for A1 exceeded 2 elements"):
        gamma.enumerate_group(DynkinType.parse("A1"))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_character_orthogonality(name):
    g = gamma.enumerate_group(DynkinType.parse(name))
    table = gamma.character_table(g)
    chars = table.chars
    sizes = table.class_sizes.astype(float)
    k = len(sizes)
    # row orthogonality: sum_j |C_j| chi_a(j) conj(chi_b(j)) = |G| delta_ab
    gram = np.einsum("j,aj,bj->ab", sizes, chars, chars.conj())
    assert np.max(np.abs(gram - g.order * np.eye(k))) < 1e-6
    # column orthogonality: sum_a chi_a(i) conj(chi_a(j)) = |G|/|C_i| delta_ij
    col = chars.T @ chars.conj()
    expect = np.diag(g.order / sizes)
    assert np.max(np.abs(col - expect)) < 1e-6


@pytest.mark.parametrize("name", ALL_TYPES)
def test_degrees_start_at_one_and_square_sum_to_order(name):
    g = gamma.enumerate_group(DynkinType.parse(name))
    table = gamma.character_table(g)
    assert table.dims[0] == 1
    assert int(np.sum(table.dims.astype(np.int64) ** 2)) == g.order
    assert list(table.dims) == sorted(table.dims)


def test_z2_character_table_exact():
    g = gamma.enumerate_group(DynkinType.parse("A1"))
    table = gamma.character_table(g)
    got = np.round(table.chars.real).astype(int)
    assert np.max(np.abs(table.chars - got)) < 1e-6
    rows = {tuple(r) for r in got.tolist()}
    assert rows == {(1, 1), (1, -1)}


def test_z3_character_table_is_fourier():
    g = gamma.enumerate_group(DynkinType.parse("A2"))
    table = gamma.character_table(g)
    w = cmath.exp(2j * cmath.pi / 3)
    want = {
        (1, 1, 1),
        (1, w, w ** 2),
        (1, w ** 2, w),
    }
    for row in table.chars:
        assert any(
            max(abs(a - b) for a, b in zip(row, target)) < 1e-6
            # the class order of the two generators is not pinned down
            or max(abs(a - b) for a, b in zip(row, (target[0], target[2], target[1]))) < 1e-6
            for target in want
        )


@pytest.mark.parametrize("name", ALL_TYPES)
def test_mckay_adjacency_eigenrelation(name):
    # Q tensor R_a = sum_b m_ab R_b forces sum_b m_ab delta_b = 2 delta_a
    g = gamma.enumerate_group(DynkinType.parse(name))
    table = gamma.character_table(g)
    m = gamma.mckay_adjacency(g, table)
    degs = [int(d) for d in table.dims]
    for a in range(len(degs)):
        assert sum(m[a][b] * degs[b] for b in range(len(degs))) == 2 * degs[a]


def test_mckay_adjacency_a1_doubled():
    g = gamma.enumerate_group(DynkinType.parse("A1"))
    table = gamma.character_table(g)
    assert gamma.mckay_adjacency(g, table) == [[0, 2], [2, 0]]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_verify_mckay(name, capsys):
    # the one McKay verdict path, the `mckay-verify` subcommand, on every type
    assert cli.main(["mckay-verify", name]) == 0
    read = "0 or 2" if name == "A1" else "0 or 1"
    assert (f"check multiplicities-integral: pass  (every multiplicity read as {read} mod 2521)"
            in capsys.readouterr().out)


def test_character_table_deterministic_per_seed():
    g = gamma.enumerate_group(DynkinType.parse("E7"))
    t1 = gamma.character_table(g)
    t2 = gamma.character_table(g)
    assert np.array_equal(t1.chars, t2.chars)


def test_find_labeled_isomorphism_rejects_mismatch():
    square = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    path = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    labels = [1, 1, 1, 1]
    assert gamma.find_labeled_isomorphism(square, labels, path, labels) is None
    assert gamma.find_labeled_isomorphism(square, labels, square, labels) is not None
    assert gamma.find_labeled_isomorphism(square, [1, 2, 1, 2], square, [1, 1, 2, 2]) is None
