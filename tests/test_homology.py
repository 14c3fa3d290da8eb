"""Integer linear algebra (Smith form), abelian group presentations, and the
simplicial invariants built on them."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
from qcatk.simplicial import SimplexKey


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
    U, D, V = smith_normal_form(A)
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
    two_points = sx.join(sx.delta(0), sx.empty_sset(), 0).sset
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
