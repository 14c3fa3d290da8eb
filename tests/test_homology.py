"""Integer linear algebra (Smith form), abelian group presentations, and the
simplicial invariants built on them."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import families as fm
from qcatk import homology
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk.cats import cyclic_group_category, nerve
from qcatk.homology import (
    AbelianGroupPresentation,
    group_from_relations,
    h1,
    pi0,
    pi1_abelianized,
    smith_normal_form,
    weak_contractibility_report,
)
from qcatk.ssets import SimplexKey, SimplicialSet, UnionFind
from qcatk.zoo import random_category
from testlib import dense_group_from_relations, dense_smith_form


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(n)
    )


def _mul(M, N):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*N)] for row in M]


matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_smith_form_diagonalizes_by_unimodular_transformations(A):
    U, D, V = dense_smith_form(A)
    assert _mul(_mul(U, A), V) == D
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # any zero on the diagonal comes after all nonzero entries
    if 0 in diag:
        assert all(d == 0 for d in diag[diag.index(0):])


@st.composite
def sparse_relations(draw):
    """Up to 40 relation rows on up to 15 generators, each row with a few
    entries in -3..3: some columns stay zero, and zero rows and duplicate
    rows are mixed in."""
    n = draw(st.integers(0, 15))
    cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)) if n else []
    row = st.dictionaries(st.sampled_from(cols), st.integers(-3, 3), max_size=4) if cols else st.just({})
    rows = draw(st.lists(row, max_size=30))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    rows = draw(st.permutations(rows))
    return n, [[r.get(j, 0) for j in range(n)] for r in rows]


@given(sparse_relations())
@settings(max_examples=300, deadline=None)
def test_sparse_smith_form_matches_the_dense_oracle(presentation):
    n, A = presentation
    D = dense_smith_form(A)[1] if A else []
    assert smith_normal_form(A) == [D[i][i] for i in range(min(len(D), n)) if D[i][i]]
    assert group_from_relations(n, A) == dense_group_from_relations(n, A)


def test_duplicate_and_zero_rows_leave_the_group_alone():
    # a dense route that kept reducing with a pivot swapped in mid-sweep did
    # not finish on these 20 rows in three minutes
    distinct = [
        [3, -3, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0], [0, 3, 0, 0, -1, 0, 0, 0, -2, 0, 1, 0, 0],
        [0, 0, 0, 0, -3, 0, 1, 0, 0, 2, 0, 0, 0], [0, 0, -2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0], [0, 0, 0, 0, 0, 0, 2, 0, 1, 0, -3, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, -3], [0, 0, 0, 0, 1, 0, 0, -3, 0, 0, 0, 0, 0],
        [0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0],
    ]
    order = [0, 1, 2, 3, 4, None, 5, 6, 7, 7, 8, 8, 3, 9, 1, None, None, None, 2, 5]
    A = [[0] * 13 if i is None else distinct[i] for i in order]
    expected = AbelianGroupPresentation(3, (2, 6, 150))
    assert dense_group_from_relations(13, A) == expected
    assert group_from_relations(13, A) == expected


def test_group_presentations_normalize_to_invariant_factors():
    assert group_from_relations(1, [[2]]) == AbelianGroupPresentation(0, (2,))
    assert group_from_relations(2, [[2, 0], [0, 3]]) == AbelianGroupPresentation(0, (6,))
    assert group_from_relations(2, [[1, -1]]) == AbelianGroupPresentation(1, ())
    assert group_from_relations(0, []) == AbelianGroupPresentation(0, ())
    assert group_from_relations(3, []).free_rank == 3


def test_group_presentations_are_equal_hashed_and_printed_by_value():
    # k0_agreement's routes_agree compares two presentations built apart
    a, b = AbelianGroupPresentation(1, (2, 6)), AbelianGroupPresentation(1, (2, 6))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != AbelianGroupPresentation(2, (2, 6))
    assert a != AbelianGroupPresentation(1, (12,))
    assert a != (1, (2, 6))
    assert str(a) == "Z + Z/2 + Z/6"
    assert str(AbelianGroupPresentation(0, ())) == "0"


def test_component_count():
    two_points = fm.join(sx.delta(0), sx.empty_sset(), 0).sset
    assert len(pi0(sx.delta(3))) == 1
    assert len(pi0(sx.boundary(2))) == 1
    assert len(pi0(nerve(cyclic_group_category(2), 1))) == 1


def test_first_homology_of_the_circle_and_the_disk():
    circle = sx.boundary(2)
    assert h1(circle) == AbelianGroupPresentation(1, ())
    assert h1(sx.delta(2)) == AbelianGroupPresentation(0, ())


def test_first_homology_of_a_group_nerve_is_the_group():
    N = nerve(cyclic_group_category(3), 2)
    assert h1(N) == AbelianGroupPresentation(0, (3,))


@pytest.mark.parametrize("order", [2, 3])
def test_first_homology_of_a_group_nerve_survives_a_contractible_exponent(order):
    # the horn is contractible, so the internal hom from it is equivalent to
    # the nerve itself; for Z/3 that is 6,084 relations on 226 generators
    X = qc.internal_hom(sx.horn(2, 1), nerve(cyclic_group_category(order), 3), 2)
    assert h1(X) == AbelianGroupPresentation(0, (order,))


def test_edge_path_group_matches_homology_on_connected_objects():
    for X in [sx.boundary(2), nerve(cyclic_group_category(4), 2), sx.delta(2)]:
        base = pi0(X)[0]
        assert pi1_abelianized(X, base) == h1(X)


def test_contractibility_verdicts():
    rep = weak_contractibility_report(sx.delta(2), 2)
    assert rep["verdict"] == "confirmed-to-2"
    rep = weak_contractibility_report(sx.boundary(2), 2)
    assert rep["verdict"] == "refuted"
    rep = weak_contractibility_report(sx.empty_sset(), 2)
    assert rep["verdict"] == "refuted"


@pytest.mark.parametrize("build, d", [
    (lambda d: sx.product(sx.delta(1), sx.delta(1), d).sset, 1),
    (lambda d: fm.join(sx.delta(0), sx.delta(0), d).sset, 0),
    (lambda d: fm.join(sx.delta(1), sx.delta(0), d).sset, 1),
], ids=["square-1", "join-points-0", "join-edge-point-1"])
def test_a_truncation_below_the_top_dimension_is_never_refuted(build, d):
    """Below dim X + dim Y (products) or dim A + dim B + 1 (joins) of
    complete inputs, the result keeps its bound; the space is contractible,
    so the report may only confirm to the bound or stay open.  One dimension
    higher, each reaches its top dimension and is complete."""
    X = build(d)
    assert X.bound == d
    assert weak_contractibility_report(X)["verdict"] in (f"confirmed-to-{d}", "inconclusive")
    top = build(d + 1)
    assert top.bound is None
    assert weak_contractibility_report(top)["verdict"] == f"confirmed-to-{d + 1}"


def test_several_vertices_at_bound_zero_leave_pi0_open():
    rep = weak_contractibility_report(SimplicialSet([2], {}, bound=0))
    assert rep["verdict"] == "inconclusive"
    assert rep["reason"] == "pi0 of truncation has 2 elements"
    # at bound 1 the edges are known, and there are none
    assert weak_contractibility_report(SimplicialSet([2], {}, bound=1))["verdict"] == "refuted"


# -- oracles: the kernel-basis H_1 and the unit-row edge-path group -------------


def _boundary_matrix(X, n):
    """Normalized boundary C_n -> C_{n-1}; rows index (n-1)-generators,
    columns index n-generators.  Degenerate faces contribute zero."""
    rows = {g: r for r, g in enumerate(X.gens(n - 1))}
    M = [[0] * len(X.gens(n)) for _ in X.gens(n - 1)]
    for c, g in enumerate(X.gens(n)):
        for i in range(n + 1):
            f = X.face(SimplexKey(g), i)
            if not f.is_degenerate:
                M[rows[f.gen]][c] += (-1) ** i
    return M


def h1_by_cycle_basis(X):
    """H_1 as ker d1 / im d2: a kernel basis of d1 from one Smith form, each
    d2 column re-expressed in it through a second."""
    n1 = len(X.gens(1))
    if n1 == 0:
        return AbelianGroupPresentation(0, ())
    _, D, V = dense_smith_form(_boundary_matrix(X, 1))
    rank = sum(1 for i in range(min(len(D), n1)) if D[i][i] != 0)
    K = [[V[i][j] for j in range(rank, n1)] for i in range(n1)]
    rk = n1 - rank
    if rk == 0:
        return AbelianGroupPresentation(0, ())
    d2 = _boundary_matrix(X, 2)
    Uk, Dk, Vk = dense_smith_form(K)
    relations = []
    for c in range(len(X.gens(2))):
        # solve K x = col: y = Uk col, Dk z = y, x = Vk z
        y = [sum(Uk[i][j] * d2[j][c] for j in range(n1)) for i in range(n1)]
        assert all(y[i] % Dk[i][i] == 0 for i in range(rk))
        assert not any(y[rk:])
        z = [y[i] // Dk[i][i] for i in range(rk)]
        relations.append([sum(Vk[i][j] * z[j] for j in range(rk)) for i in range(rk)])
    return group_from_relations(rk, relations)


def pi1_by_unit_rows(X, basepoint):
    """The abelianized edge-path group with every edge of the component a
    generator, a unit row killing each spanning-tree edge and one row per
    nondegenerate 2-simplex."""
    uf = UnionFind()
    for v in X.simplices(0):
        uf.find(v)
    edges = [SimplexKey(g) for g in X.gens(1)]
    tree = {e for e in edges if uf.union(X.vertex(e, 0), X.vertex(e, 1))}
    comp = uf.find(basepoint)
    comp_edges = [e for e in edges if uf.find(X.vertex(e, 0)) == comp]
    idx = {e: i for i, e in enumerate(comp_edges)}
    relations = [[int(f == e) for f in comp_edges] for e in comp_edges if e in tree]
    for g in X.gens(2):
        t = SimplexKey(g)
        if uf.find(X.vertex(t, 0)) == comp:
            row = [0] * len(comp_edges)
            for i, sign in ((0, 1), (2, 1), (1, -1)):
                f = X.face(t, i)
                if not f.is_degenerate:
                    row[idx[f]] += sign
            relations.append(row)
    return group_from_relations(len(comp_edges), relations)


def _disjoint_union(X, Y):
    """X and Y side by side, Y's generators numbered after X's."""
    shift = list(X.n_gens)

    def moved(k):
        n, i = k.gen
        return SimplexKey((n, i + (shift[n] if n < len(shift) else 0)), k.degens)

    faces = dict(X.faces)
    faces.update({moved(SimplexKey(g)).gen: tuple(moved(f) for f in fs)
                  for g, fs in Y.faces.items()})
    n_gens = [a + b for a, b in itertools.zip_longest(X.n_gens, Y.n_gens, fillvalue=0)]
    return SimplicialSet(n_gens, faces)


def _small(rng):
    """A random nerve, its opposite, a horn or a boundary."""
    kind = rng.choice(["nerve", "opposite", "horn", "boundary"])
    if kind == "nerve":
        return nerve(random_category(rng, 3), 2)
    if kind == "opposite":
        return nerve(random_category(rng, 3).opposite(), 2)
    if kind == "horn":
        n = rng.randint(1, 3)
        return sx.horn(n, rng.randint(0, n))
    return sx.boundary(rng.randint(1, 3))


def _instance(rng, kind):
    if kind == "small":
        return _small(rng)
    if kind == "disjoint":
        return _disjoint_union(_small(rng), _small(rng))
    if kind == "product":
        return sx.product(_small(rng), _small(rng), 2).sset
    if kind == "join":
        return fm.join(_small(rng), _small(rng), 2).sset
    X = nerve(random_category(rng, 3), 3)
    if kind == "hom":
        return qc.internal_hom(rng.choice([sx.delta(1), sx.boundary(1)]), X, 2)
    a, b = rng.choice(X.simplices(0)), rng.choice(X.simplices(0))
    return qc.mapping_space(X, a, b, 2)


@pytest.mark.parametrize("kind", ["small", "disjoint", "product", "join", "mapping", "hom"])
@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_forest_presentation_matches_the_oracles_on_every_component(kind, seed):
    X = _instance(random.Random(seed), kind)
    X.check()

    def checked(num_gens, relations):
        # every forest presentation also goes through the dense oracle
        group = group_from_relations(num_gens, relations)
        assert group == dense_group_from_relations(num_gens, relations)
        return group

    with mock.patch.object(homology, "group_from_relations", checked):
        assert h1(X) == h1_by_cycle_basis(X)
        for base in pi0(X):
            assert pi1_abelianized(X, base) == pi1_by_unit_rows(X, base)
