"""The integer-row paths against the Fraction reference kernels.

The relation residuals, the point-data round trip, `conjugate`,
`jordan_basis` and `inverse` run on integer rows over one denominator.
Here each is compared with the same quantity built from the textbook
product on Fractions (`helpers.naive_product`), `mat_add`, `mat_sub` and
`mat_scale` (and sympy for inverses), on
derandomized cases: affine A2 or A3 representations planted in a Jordan
basis (node dimensions 0-3, eigenvalues with denominators), random
intertwining arrows, one arrow sometimes perturbed so that the loops no
longer intertwine, random framing and node polynomials, and a random
base change at every node.
"""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from adequiver import adhm, io as fileio, linalg, monad, sheaf
from adequiver.dynkin import DynkinType, node_labels
from adequiver.quiver import build_n1_quiver

from helpers import mat_from_sympy, naive_product, rand_frac, rand_invertible, rand_matrix

TYPES = (DynkinType.parse("A2"), DynkinType.parse("A3"))
# the Fraction views of each record's integer tables, built on first read and no fields
VIEWS = {adhm.N1Representation: ("B", "Psi", "I"),
         sheaf.QuiverSheafData: ("arrow_maps", "framing_vectors")}
EIGENVALUES = (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3))


def _inv(m):
    return mat_from_sympy(sympy.Matrix(m).inv()) if m else []


def _jordan(blocks):
    n = sum(size for _, size in blocks)
    out = linalg.zeros(n)
    start = 0
    for lam, size in blocks:
        for i in range(start, start + size):
            out[i][i] = lam
            if i > start:
                out[i - 1][i] = Fraction(1)
        start += size
    return out


def _intertwiner(rng, tgt, src):
    """Random X with J_tgt X = X J_src: upper triangular Toeplitz between blocks of
    one eigenvalue, of sizes n and m, on the diagonals max(0, m - n) .. m - 1."""
    out = linalg.zeros(sum(n for _, n in tgt), sum(m for _, m in src))
    r0 = 0
    for lam_t, n in tgt:
        c0 = 0
        for lam_s, m in src:
            if lam_t == lam_s:
                c = {t: rand_frac(rng) for t in range(max(0, m - n), m)}
                for i in range(n):
                    for j in range(m):
                        out[r0 + i][c0 + j] = c.get(j - i, Fraction(0))
            c0 += m
        r0 += n
    return out


def _images(m, vectors):
    """m v for every vector v, by the textbook product."""
    return [[sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m] for v in vectors]


def _conjugated(rep, g):
    """g_b B g_a^-1, g Psi g^-1 and g v by the textbook product."""
    dims = rep.dims
    ginv = {a: _inv(g[a]) for a in dims}
    return adhm.N1Representation(
        rep.type, dict(dims),
        {(s, t, i): naive_product(naive_product(g[t], m, dims[s]), ginv[s], dims[s])
         for (s, t, i), m in rep.B.items()},
        {a: naive_product(naive_product(g[a], m, dims[a]), ginv[a], dims[a])
         for a, m in rep.Psi.items()},
        dict(rep.framing_ranks),
        {a: _images(g[a], vs) for a, vs in rep.I.items()},
    )


def _planted_case(rng):
    """(representation in a random basis, the one planted in the canonical Jordan basis,
    its point data, theta, rng)."""
    t = rng.choice(TYPES)
    labels = node_labels(t, True)
    palette = rng.sample(EIGENVALUES, 2)
    blocks = {}
    for a in labels:
        left, blocks[a] = rng.randint(0, 3), []
        while left:
            size = rng.randint(1, left)
            blocks[a].append((rng.choice(palette), size))
            left -= size
        blocks[a].sort(key=lambda block: (block[0], -block[1]))     # the canonical order
    dims = {a: sum(n for _, n in bl) for a, bl in blocks.items()}
    arrows = {k.key: _intertwiner(rng, blocks[k.target], blocks[k.source])
              for k in build_n1_quiver(t, True).mckay_arrows()}
    filled = [m for m in arrows.values() if m and m[0]]
    if filled and rng.random() < 0.4:
        m = rng.choice(filled)
        m[rng.randrange(len(m))][rng.randrange(len(m[0]))] += rng.choice((1, Fraction(-1, 2)))
    ranks = {a: rng.randint(0, 1) if dims[a] else 0 for a in labels}
    planted = adhm.N1Representation(
        t, dims, arrows, {a: _jordan(bl) for a, bl in blocks.items()}, ranks,
        {a: [[rand_frac(rng) for _ in range(dims[a])] for _ in range(ranks[a])]
         for a in labels})
    points = {a: sheaf.TorsionSheafData.of(
        [(lam, [n for mu, n in bl if mu == lam]) for lam in {mu for mu, _ in bl}])
        for a, bl in blocks.items()}
    theta = {a: [rand_frac(rng) for _ in range(rng.randint(0, 3))] for a in labels}
    rep = _conjugated(planted, {a: rand_invertible(rng, dims[a]) for a in labels})
    return rep, planted, points, theta, rng


planted_cases = st.randoms(use_true_random=False).map(_planted_case)


def _theta_reference(rep, coeffs, a):
    d = rep.dims[a]
    acc = linalg.zeros(d, d)
    for c in reversed(coeffs):
        acc = linalg.mat_add(naive_product(acc, rep.Psi[a], d),
                             linalg.mat_scale(c, linalg.identity(d)))
    return acc


def _node_reference(rep, coeffs, a):
    d = rep.dims[a]
    acc = _theta_reference(rep, coeffs, a)
    for arrow in rep.quiver.mckay_arrows():
        if arrow.source == a:
            term = naive_product(rep.B[arrow.reversed_key()], rep.B[arrow.key], d)
            acc = linalg.mat_add(acc, linalg.mat_scale(arrow.sign, term))
    return acc


def _edge_reference(rep, key):
    src, tgt, _ = key
    cols = rep.dims[src]
    return linalg.mat_sub(naive_product(rep.Psi[tgt], rep.B[key], cols),
                          naive_product(rep.B[key], rep.Psi[src], cols))


@settings(max_examples=60)
@given(planted_cases)
def test_relation_residuals_match_the_fraction_reference(case):
    rep, _, _, theta, _ = case
    got = adhm.check_relations(rep, theta)
    for a in rep.dims:
        assert got.node_residuals[a] == _node_reference(rep, theta[a], a)
    for key in rep.B:
        assert got.edge_residuals[key] == _edge_reference(rep, key)
    want = sum((linalg.trace(_theta_reference(rep, theta[a], a)) for a in rep.dims), Fraction(0))
    assert adhm.trace_identity_defect(rep, theta) == want


@settings(max_examples=60)
@given(planted_cases)
def test_round_trip_transport_matches_the_fraction_reference(case):
    rep, planted, points, _, _ = case
    broken = any(not linalg.is_zero_matrix(_edge_reference(rep, key)) for key in rep.B)
    # the same verdict in the planted basis, where the arrows meet the Jordan matrices
    assert broken == any(not linalg.is_zero_matrix(_edge_reference(planted, key))
                         for key in planted.B)
    if broken:
        with pytest.raises(sheaf.EdgeRelationViolated):
            sheaf.quadruple_to_quintuple(rep)
        with pytest.raises(sheaf.EdgeRelationViolated):
            sheaf.QuiverSheafData(rep.type, points, planted.B)
        return
    sheaf.QuiverSheafData(rep.type, points, planted.B)
    data, g = sheaf.quadruple_to_quintuple(rep)
    dims = rep.dims
    assert data.node_sheaves == points
    p = {a: _inv(g[a]) for a in dims}
    for a in dims:
        moved = naive_product(naive_product(g[a], rep.Psi[a], dims[a]), p[a], dims[a])
        assert moved == sheaf.sheaf_to_endo(points[a])[1]
        assert data.framing_vectors[a] == _images(g[a], rep.I[a])
    for (s, t, i), m in rep.B.items():
        want = naive_product(g[t], naive_product(m, p[s], dims[s]), dims[s])
        assert data.arrow_maps[s, t, i] == want


@settings(max_examples=60)
@given(planted_cases)
def test_conjugate_matches_the_fraction_reference(case):
    rep, _, _, _, rng = case
    g = {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims}
    assert adhm.conjugate(rep, g) == _conjugated(rep, g)


@settings(max_examples=60)
@given(planted_cases)
def test_jordan_basis_and_inverse_match_the_fraction_reference(case):
    rep, _, points, _, rng = case
    for a, m in rep.Psi.items():
        n = rep.dims[a]
        j, p = linalg.jordan_basis(linalg.int_rows(m))
        jm, pm = linalg.rational_matrix(j, n, n), linalg.rational_matrix(p, n, n)
        assert jm == sheaf.sheaf_to_endo(points[a])[1]
        assert naive_product(m, pm, n) == naive_product(pm, jm, n)
        assert sympy.Matrix(pm).rank() == n
        assert linalg.inverse(pm) == _inv(pm)
        g = rand_invertible(rng, n)
        assert linalg.inverse(g) == _inv(g)


def test_relations_convert_each_matrix_once_and_the_round_trip_calls_no_mat_mul(monkeypatch):
    # the first seed giving a framed intertwining case of total dimension 6 or more
    rep, theta = next((rep, theta) for rep, _, _, theta, _ in
                      (_planted_case(random.Random(seed)) for seed in range(100))
                      if rep.total_dim >= 6 and any(rep.I.values())
                      and adhm.check_relations(rep, theta).edges_zero)
    converted, calls = [], {"mat_mul": 0}
    int_rows, mat_mul = linalg.int_rows, linalg.mat_mul

    def convert(m, *args, **kwargs):
        # only rows of entries are converted: an (int rows, d) pair is copied, None read as zeros
        if m is not None and not (isinstance(m, tuple) and len(m) == 2 and type(m[1]) is int):
            converted.append(m)     # kept alive, so no two arguments share an id
        return int_rows(m, *args, **kwargs)

    def multiply(*args):
        calls["mat_mul"] += 1
        return mat_mul(*args)

    monkeypatch.setattr(linalg, "int_rows", convert)
    monkeypatch.setattr(linalg, "mat_mul", multiply)
    rep = adhm.N1Representation(rep.type, rep.dims, rep.B, rep.Psi, rep.framing_ranks, rep.I)
    # one conversion per arrow, loop and framing block, the empty framing of a node included
    assert len(converted) == len(rep.B) + len(rep.Psi) + len(rep.I)
    converted.clear()
    # past construction nothing is converted: the relations, the span growth, the trace
    # identity and the round trip run on the integer rows, conjugate takes the base changes
    # on integer rows, and the framing moves as integer blocks
    adhm.check_relations(rep, theta)
    adhm.is_nondegenerate(rep)
    adhm.trace_identity_defect(rep, theta)
    data, g = sheaf.quadruple_to_quintuple(rep)
    back = sheaf.quintuple_to_quadruple(data)
    moved = adhm.conjugate(rep, g)
    assert back == moved
    assert converted == []
    assert calls["mat_mul"] == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_inverse_ints_matches_sympy_over_its_least_denominator(n):
    rng = random.Random(n)
    for _ in range(25):
        m = rand_matrix(rng, n, n)
        a, d = linalg.int_rows(m)
        scale = rng.choice((1, 2, 6))           # the same matrix over a larger denominator
        ints = [[x * scale for x in row] for row in a], d * scale
        if n and sympy.Matrix(m).det() == 0:
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse_ints(ints)
            continue
        rows, e = linalg.inverse_ints(ints)
        assert e > 0 and gcd(e, *(x for row in rows for x in row)) == 1
        assert linalg.rational_matrix((rows, e), n, n) == _inv(m)


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]],
                                  [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]])
def test_inverse_ints_rejects_singular(rows):
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse_ints(linalg.int_rows(rows))


@settings(max_examples=40)
@given(planted_cases)
def test_a_representation_built_from_integer_rows_equals_the_fraction_one(case):
    rep, _, _, _, rng = case
    scale = rng.choice((1, 3))                  # integer rows not over their least denominator
    ints = {k: ([[x * scale for x in row] for row in a], d * scale)
            for k, (a, d) in {**rep.arrows, **rep.loops}.items()}
    built = adhm.N1Representation(rep.type, dict(rep.dims), {k: ints[k] for k in rep.B},
                                  {a: ints[a] for a in rep.Psi}, dict(rep.framing_ranks), rep.I)
    assert built == rep
    # stored over the least denominator, whichever pair was given
    assert {**built.arrows, **built.loops} == {**rep.arrows, **rep.loops}
    assert fileio.dump_json(fileio.representation_to_dict(built)) \
        == fileio.dump_json(fileio.representation_to_dict(rep))


def test_round_trip_with_a_zero_dimensional_node():
    # node 2 is empty, with one empty framing vector; the arrows between nodes 0 and 1
    # intertwine the Jordan loops
    planted = adhm.N1Representation(
        TYPES[0], {0: 2, 1: 1, 2: 0}, {(0, 1, 0): [[0, 2]], (1, 0, 0): [[Fraction(1, 2)], [0]]},
        {0: [[3, 1], [0, 3]], 1: [[3]]}, {0: 1, 2: 1}, {0: [[1, -1]], 2: [[]]})
    rng = random.Random(3)
    rep = adhm.conjugate(planted, {a: rand_invertible(rng, n) for a, n in planted.dims.items()})
    data, g = sheaf.quadruple_to_quintuple(rep)
    assert data.node_sheaves[2].points == () and g[2] == []
    assert data.node_sheaves[0] == sheaf.TorsionSheafData.of([(3, [2])])
    back = sheaf.quintuple_to_quadruple(data)
    assert back == adhm.conjugate(rep, g)
    assert back.Psi == {0: [[3, 1], [0, 3]], 1: [[3]], 2: []}
    assert back.I[2] == data.framing_vectors[2] == [[]]
    assert adhm.is_nondegenerate(back) == adhm.is_nondegenerate(planted)
    assert back.B[1, 2, 0] == [] and back.B[2, 0, 0] == [[], []]
    assert back.arrows[1, 2, 0] == ([], 1) and back.arrows[2, 0, 0] == ([[], []], 1)


def test_the_round_trip_inverts_each_node_once_and_reads_no_fraction_view(monkeypatch):
    # the first seed giving a framed intertwining case of total dimension 6 or more
    rep, theta = next((rep, theta) for rep, _, _, theta, _ in
                      (_planted_case(random.Random(seed)) for seed in range(100))
                      if rep.total_dim >= 6 and any(rep.I.values())
                      and adhm.check_relations(rep, theta).edges_zero)
    inverted = []
    inverse_ints = linalg.inverse_ints

    def invert(m):
        inverted.append(m)
        return inverse_ints(m)

    views, rational_matrix = [], linalg.rational_matrix

    def view(*args):
        views.append(args)
        return rational_matrix(*args)

    monkeypatch.setattr(linalg, "inverse_ints", invert)
    monkeypatch.setattr(linalg, "rational_matrix", view)
    assert not {"B", "Psi"} & set(vars(rep))
    data, g = sheaf.quadruple_to_quintuple(rep)
    back = sheaf.quintuple_to_quadruple(data)
    moved = adhm.conjugate(rep, g)
    assert back == moved
    residual = adhm.check_relations(rep, theta)
    assert adhm.check_relations(back, theta).is_zero == residual.is_zero
    # quadruple_to_quintuple inverts each Jordan basis; conjugate takes those inverses
    assert len(inverted) == len(rep.dims)
    assert not {"B", "Psi", "arrow_maps"} & {k for r in (rep, data, back, moved) for k in vars(r)}
    # the round trip, conjugate and the relation check build no Fraction matrix
    assert views == []
    # read afterwards, the base changes and residuals are the Fractions they always were
    for a, n in rep.dims.items():
        assert g[a] is g[a] and all(type(x) is Fraction for row in g[a] for x in row)
        assert g[a] == _inv(linalg.rational_matrix(g.pairs[a][1], n, n))
        assert naive_product(naive_product(g[a], rep.Psi[a], n), _inv(g[a]), n) \
            == sheaf.sheaf_to_endo(data.node_sheaves[a])[1]
        assert residual.node_residuals[a] == _node_reference(rep, theta[a], a)
    for key in rep.B:
        assert residual.edge_residuals[key] == _edge_reference(rep, key)
    assert dict(g) == {a: g[a] for a in sorted(rep.dims)} and len(g) == len(rep.dims)
    # any other mapping of the same base changes is converted and inverted again
    assert adhm.conjugate(rep, dict(g)) == moved
    assert len(inverted) == 2 * len(rep.dims)


@st.composite
def integer_blocks(draw):
    """(type, dims, arrows, loops): every arrow and loop of an affine A2 or A3 quiver as
    integer rows (rows, d) over a random nonzero d, often not the least one and sometimes
    negative, the rows sometimes tuples; node dimensions 0-3, so 0 x n and n x 0 blocks."""
    t = draw(st.sampled_from(TYPES))
    dims = {a: draw(st.integers(0, 3)) for a in node_labels(t, True)}

    def block(rows, cols):
        d = draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))
        ints = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
                for _ in range(rows)]
        return (tuple(map(tuple, ints)) if draw(st.booleans()) else ints), d

    arrows = {k.key: block(dims[k.target], dims[k.source])
              for k in build_n1_quiver(t, True).mckay_arrows()}
    return t, dims, arrows, {a: block(n, n) for a, n in dims.items()}


def _as_fractions(blocks):
    return {k: [[Fraction(x, d) for x in row] for row in rows] for k, (rows, d) in blocks.items()}


@settings(max_examples=80)
@given(integer_blocks())
def test_records_from_integer_rows_equal_their_fraction_twins(case):
    t, dims, arrows, loops = case
    # loops all zero at the point 0, so every arrow intertwines them
    sheaves = {a: sheaf.TorsionSheafData.of([(0, [1] * n)] if n else []) for a, n in dims.items()}

    def rep(arrows, loops):
        return adhm.N1Representation(t, dims, arrows, loops)

    def data(arrows, loops):
        return sheaf.QuiverSheafData(t, sheaves, arrows)

    for build, to_dict, blocks in ((rep, fileio.representation_to_dict, {**arrows, **loops}),
                                   (data, fileio.sheaf_data_to_dict, arrows)):
        ints, fractions = build(arrows, loops), build(_as_fractions(arrows), _as_fractions(loops))
        views = VIEWS[type(ints)]
        assert ints == fractions and fractions == ints
        assert not set(views) & {*vars(ints), *vars(fractions)}     # == builds no Fraction
        assert repr(ints) == repr(fractions)
        assert fileio.dump_json(to_dict(ints)) == fileio.dump_json(to_dict(fractions))
        for name in views:
            assert getattr(ints, name) is getattr(ints, name)
        # one entry moved by 1/d
        filled = [k for k, (rows, _) in blocks.items() if rows and rows[0]]
        if filled:
            key = filled[len(filled) // 2]
            rows, d = blocks[key]
            bumped = [list(row) for row in rows]
            bumped[-1][-1] += 1
            moved = {**arrows, **loops, key: (bumped, d)}
            assert build({k: moved[k] for k in arrows}, {a: moved[a] for a in loops}) != fractions


def _jordan_case(rng):
    """(type, point data, arrows as integer rows) on an affine A2 or A3 quiver: node
    dimensions 0-4, 1 often, Jordan blocks on one or two eigenvalues of EIGENVALUES; each
    arrow a planted intertwiner of the Jordan matrices, that one with an entry moved, a
    random block or zeros."""
    t = rng.choice(TYPES)
    palette = rng.sample(EIGENVALUES, rng.randint(1, 2))
    points, arrows = {}, {}
    for a in node_labels(t, True):
        left, blocks = rng.choice((0, 1, 1, 2, 3, 4)), {}
        while left:
            size = rng.randint(1, left)
            blocks.setdefault(rng.choice(palette), []).append(size)
            left -= size
        points[a] = sheaf.TorsionSheafData.of(list(blocks.items()))
    canonical = {a: [(lam, n) for lam, sizes in p.points for n in sizes]
                 for a, p in points.items()}
    for k in build_n1_quiver(t, True).mckay_arrows():
        m = _intertwiner(rng, canonical[k.target], canonical[k.source])
        rows, cols = points[k.target].dimension, points[k.source].dimension
        kind = rng.choice(("planted", "planted", "moved", "random", "zero"))
        if kind == "moved" and rows and cols:
            m[rng.randrange(rows)][rng.randrange(cols)] += rng.choice((1, Fraction(-1, 2)))
        elif kind == "random":
            m = rand_matrix(rng, rows, cols)
        elif kind == "zero":
            m = linalg.zeros(rows, cols)
        arrows[k.key] = linalg.int_rows(m, shape=(rows, cols))
    return t, points, arrows


def _violation(check, *args):
    """The message of the EdgeRelationViolated that check(*args) raises, or None."""
    try:
        check(*args)
    except sheaf.EdgeRelationViolated as e:
        return str(e)
    return None


@settings(max_examples=300)
@given(st.randoms(use_true_random=False).map(_jordan_case))
def test_the_edge_check_on_jordan_loops_names_the_first_broken_arrow(case):
    t, points, arrows = case
    jordans = {a: p.jordan for a, p in points.items()}
    defects = adhm._edge_defects(jordans, arrows)
    # a defect for every arrow, in quiver order, None exactly where the textbook one is zero
    fractions = {key: linalg.rational_matrix(m) for key, m in arrows.items()}
    loops = {a: sheaf.sheaf_to_endo(p)[1] for a, p in points.items()}
    assert list(defects) == list(arrows)
    for (s, tgt, i), m in defects.items():
        b, cols = fractions[s, tgt, i], points[s].dimension
        want = linalg.mat_sub(naive_product(loops[tgt], b, cols), naive_product(b, loops[s], cols))
        assert (m is None) == linalg.is_zero_matrix(want)
    broken = next((key for key, m in defects.items() if m is not None), None)
    want = None if broken is None else f"edge defect at {broken} is nonzero"
    assert _violation(sheaf._check_intertwining, defects) == want
    assert _violation(sheaf.QuiverSheafData, t, points, fractions) == want


def _count_calls(monkeypatch, names):
    """A Counter of the calls of each (module, name), patched where the module looks it up.
    Of int_rows only the calls with a shape count, those validating a block of a record: the
    characteristic polynomial reads its matrix through int_rows too, with no shape."""
    calls = Counter()
    for module, name in names:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            if _name != "int_rows" or len(args) > 2 or "shape" in kwargs:
                calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


VALIDATION = ((adhm, "_quiver_data"), (sheaf, "_quiver_data"), (linalg, "int_rows"),
              (sheaf, "_check_intertwining"))


def test_the_round_trip_builds_its_records_without_validating_them(monkeypatch):
    # the first seed giving a framed intertwining case of total dimension 6 or more
    rep = next(rep for rep, _, _, theta, _ in
               (_planted_case(random.Random(seed)) for seed in range(100))
               if rep.total_dim >= 6 and any(rep.I.values())
               and adhm.check_relations(rep, theta).edges_zero)
    calls = _count_calls(monkeypatch, VALIDATION)
    data, g = sheaf.quadruple_to_quintuple(rep)
    assert calls == {"_check_intertwining": 1}
    back = sheaf.quintuple_to_quadruple(data)
    moved = adhm.conjugate(rep, g)
    assert calls == {"_check_intertwining": 1}
    # outside input still goes through every check: base changes as a plain mapping,
    # then each record's arrows, loops and framing blocks
    moved_again = adhm.conjugate(rep, dict(g))
    assert back == moved == moved_again
    sheaf.QuiverSheafData(data.type, data.node_sheaves, data.arrow_maps, data.framing_ranks,
                          data.framing_vectors)
    adhm.N1Representation(rep.type, rep.dims, rep.B, rep.Psi, rep.framing_ranks, rep.I)
    blocks = (len(rep.dims) + len(data.arrows) + len(data.framing) + len(rep.arrows)
              + len(rep.loops) + len(rep.framing))
    assert calls == {"_check_intertwining": 2, "_quiver_data": 2, "int_rows": blocks}


def test_a_broken_edge_is_still_found_once_by_the_round_trip(monkeypatch):
    # the first seed whose planted arrows fail to intertwine the loops
    rep = next(rep for rep, _, _, theta, _ in
               (_planted_case(random.Random(seed)) for seed in range(100))
               if not adhm.check_relations(rep, theta).edges_zero)
    calls = _count_calls(monkeypatch, VALIDATION)
    with pytest.raises(sheaf.EdgeRelationViolated, match="edge defect at"):
        sheaf.quadruple_to_quintuple(rep)
    assert calls == {"_check_intertwining": 1}


@pytest.mark.parametrize(("arrows", "error"), [
    ({}, linalg.NonRationalSpectrum),
    ({(1, 0, 0): [[1], [0]]}, sheaf.EdgeRelationViolated),      # a broken edge outranks
])
def test_a_non_rational_loop_is_refused_after_the_edge_check(monkeypatch, arrows, error):
    rep = adhm.N1Representation(TYPES[0], {0: 2, 1: 1, 2: 0}, arrows,
                                {0: [[0, 2], [1, 0]], 1: [[1]]}, {1: 1}, {1: [[1]]})
    calls = _count_calls(monkeypatch, VALIDATION)
    with pytest.raises(error):
        sheaf.quadruple_to_quintuple(rep)
    assert calls == {"_check_intertwining": 1}


def _revalidated(record):
    """The record built again through its validating constructor from its own fields, which
    the constructor takes in their order (the integer tables where it takes matrices)."""
    return type(record)(*record._values)


def _same_record(record, to_dict):
    """record equals its validated twin field for field, tables in the same order, in repr
    and JSON, and survives copy and pickle."""
    built = _revalidated(record)
    for f in record._fields:
        mine, theirs = getattr(record, f), getattr(built, f)
        assert mine == theirs
        if isinstance(mine, dict):
            assert list(mine.items()) == list(theirs.items())
    assert record == built and built == record
    assert repr(record) == repr(built)
    assert fileio.dump_json(to_dict(record)) == fileio.dump_json(to_dict(built))
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == built and repr(twin) == repr(built)
    for name in VIEWS[type(record)]:
        assert getattr(record, name) is getattr(record, name)


@settings(max_examples=60)
@given(planted_cases)
def test_records_the_round_trip_builds_equal_their_validated_twins(case):
    rep, _, _, _, rng = case
    g = {a: rand_invertible(rng, rep.dims[a]) for a in rep.dims}
    _same_record(adhm.conjugate(rep, g), fileio.representation_to_dict)
    if not adhm.check_relations(rep, {a: [] for a in rep.dims}).edges_zero:
        return
    data, g = sheaf.quadruple_to_quintuple(rep)
    _same_record(data, fileio.sheaf_data_to_dict)
    back = sheaf.quintuple_to_quadruple(data)
    _same_record(back, fileio.representation_to_dict)
    _same_record(adhm.conjugate(rep, g), fileio.representation_to_dict)
    # point data from outside with only its nonzero arrows: the others read as zero
    some = sheaf.QuiverSheafData(data.type, data.node_sheaves,
                                 {k: m for k, m in data.arrow_maps.items() if any(map(any, m))},
                                 data.framing_ranks, data.framing_vectors)
    assert sheaf.quintuple_to_quadruple(some) == back
    _same_record(sheaf.quintuple_to_quadruple(some), fileio.representation_to_dict)


def _is_least(m) -> bool:
    """m is an `IntMat` over its least positive denominator, its rows lists of ints."""
    rows, d = m
    return (type(rows) is list and all(type(row) is list for row in rows)
            and all(type(x) is int for row in rows for x in row)
            and type(d) is int and d > 0 and gcd(d, *(x for row in rows for x in row)) == 1)


def _stored_blocks(record):
    """Every integer matrix record stores: the tables of a representation, of point data
    (with each point's Jordan matrix) and of a residual (where nonzero), and both matrices
    of each base change."""
    if isinstance(record, adhm.BaseChanges):
        return [m for pair in record.pairs.values() for m in pair]
    if isinstance(record, adhm.RelationResidual):
        return [m for m in (*record.nodes.values(), *record.edges.values()) if m is not None]
    blocks = [*record.arrows.values(), *record.framing.values()]
    if isinstance(record, sheaf.QuiverSheafData):
        return blocks + [s.jordan for s in record.node_sheaves.values()]
    return blocks + list(record.loops.values())


@settings(max_examples=60)
@given(planted_cases)
def test_every_stored_table_is_over_its_least_denominator(case):
    rep, planted, _, theta, rng = case
    scale = rng.choice((2, -3))             # every block given over a larger denominator

    def scaled(blocks):
        return {k: ([[x * scale for x in row] for row in a], d * scale)
                for k, (a, d) in blocks.items()}

    built = adhm.N1Representation(rep.type, dict(rep.dims), scaled(rep.arrows), scaled(rep.loops),
                                  dict(rep.framing_ranks), scaled(rep.framing))
    assert built == rep
    records = [rep, planted, built, adhm.check_relations(rep, theta),
               adhm.conjugate(rep, {a: rand_invertible(rng, n) for a, n in rep.dims.items()})]
    if adhm.check_relations(rep, {a: [] for a in rep.dims}).edges_zero:
        data, g = sheaf.quadruple_to_quintuple(rep)
        records += [data, g, sheaf.quintuple_to_quadruple(data), adhm.conjugate(rep, g),
                    sheaf.QuiverSheafData(data.type, data.node_sheaves, scaled(data.arrows),
                                          data.framing_ranks, scaled(data.framing))]
    for record in records:
        assert all(_is_least(m) for m in _stored_blocks(record)), record
    # a monad coefficient keeps each nonzero block of a dense matrix over its own least
    # denominator: the loops, from their block diagonal, come back as the loops
    layout = tuple(rep.dims.items())
    element = monad.NCElement(layout, layout, {"x1": linalg.block_diag(list(rep.Psi.values()))})
    assert element.blocks.get("x1", {}) == {(a, a): m for a, m in rep.loops.items()
                                            if any(map(any, m[0]))}
