"""The exact McKay path over F_p and the numeric views lifted from it."""

import numpy as np
import pytest

from adequiver import dynkin, gamma
from adequiver.dynkin import DynkinType

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
             "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_multiplicities_are_the_affine_diagram_under_the_isomorphism(name):
    t = DynkinType.parse(name)
    g = gamma.enumerate_group(t)
    table = gamma.character_table(g)
    adj = gamma.mckay_adjacency(g, table)
    diagram = dynkin.adjacency_matrix(t, affine=True)
    iso = gamma.find_labeled_isomorphism(adj, table.degrees, diagram,
                                         list(dynkin.marks(t).delta))
    assert g.fp.p == 2521
    assert iso is not None
    n = len(adj)
    assert all(adj[a][b] == diagram[iso[a]][iso[b]] for a in range(n) for b in range(n))
    assert [dynkin.marks(t).delta[iso[a]] for a in range(n)] == table.degrees


@pytest.mark.parametrize("name", ALL_TYPES)
def test_lifted_characters_decompose_the_defining_trace(name):
    # chi_Q(g) = trace of g; Q = Q tensor trivial = sum_b m[trivial][b] R_b
    g = gamma.enumerate_group(DynkinType.parse(name))
    table = gamma.character_table(g)
    adj = gamma.mckay_adjacency(g, table)
    trivial = next(a for a, row in enumerate(table.values) if all(x == 1 for x in row))
    traces = np.array([np.trace(g.elements[r].m) for r in table.class_reps])
    assert np.max(np.abs(traces - np.array(adj[trivial]) @ table.chars)) < 1e-9
    # the exact values are the residues of the lifted ones: chi(1) and trace agree
    assert [int(round(z.real)) for z in table.chars[:, 0]] == table.degrees
    p = g.fp.p
    assert [(x[0] + x[3]) % p for x in (g.residues[r] for r in table.class_reps)] == [
        sum(m * row[j] for m, row in zip(adj[trivial], table.values)) % p
        for j in range(len(table.class_reps))]


@pytest.mark.parametrize("name", ["D5", "E8"])
def test_complex_elements_multiply_like_the_exact_ones(name):
    g = gamma.enumerate_group(DynkinType.parse(name))
    table, mats = g.mult_table, [e.m for e in g.elements]
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            assert np.max(np.abs(x @ y - mats[table[i, j]])) < 1e-9


def test_class_algebra_that_does_not_split_is_degenerate(monkeypatch):
    # over F_5 the binary tetrahedral group still closes (5 does not divide 24),
    # but its characters take values in Q(zeta_3), which F_5 lacks
    monkeypatch.setattr(gamma, "BASE_ORDER", 4)
    g = gamma.enumerate_group(DynkinType.parse("E6"))
    assert (g.fp.p, g.order) == (5, 24)
    with pytest.raises(gamma.DegenerateSpectrum):
        gamma.character_table(g)

