"""Slices, over-quasicategories, commas, cocones, and the restriction
equivalence for diagrams admitting colimits."""

import pytest

from qcatk import joinslice as js
from qcatk import simplicial as sx
from qcatk.cats import (
    chain_poset,
    cyclic_group_category,
    nerve,
    poset_category,
    slice_category,
)
from qcatk.simplicial import SimplexKey
from qcatk.zoo import indiscrete_category


def _vertex_map(X, v):
    return sx.SimplicialMap(sx.delta(0), X, {(0, 0): v})


def test_slice_of_a_simplex_over_a_vertex_is_a_simplex():
    D = sx.delta(2)
    last = SimplexKey(D.gen_of_label((2,)))
    S = js.slice_over(_vertex_map(D, last), 2)
    assert sx.iso_check(S, sx.delta(2), 2) is not None


def test_slice_under_a_vertex_of_a_simplex():
    D = sx.delta(2)
    first = SimplexKey(D.gen_of_label((0,)))
    S = js.slice_under(_vertex_map(D, first), 2)
    assert sx.iso_check(S, sx.delta(2), 2) is not None


def test_over_quasicategory_of_a_nerve_is_the_slice_nerve():
    C = chain_poset(2)
    N = nerve(C, 3)
    c = SimplexKey(N.gen_of_label(2))
    O, proj = js.over_quasicategory(N, c, 2)
    NS = nerve(slice_category(C, 2), 2)
    assert sx.iso_check(O, NS, 2) is not None
    proj.check()


def test_comma_of_an_identity_is_the_over_object():
    N = nerve(chain_poset(2), 3)
    ident = sx.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    c = SimplexKey(N.gen_of_label(2))
    K, left, right = js.comma(ident, c, 2)
    O, _ = js.over_quasicategory(N, c, 2)
    assert sx.iso_check(K, O, 2) is not None
    left.check()
    right.check()


def test_initial_vertex_of_a_simplex_nerve():
    D = nerve(chain_poset(2), 3)
    first = SimplexKey(D.gen_of_label(0))
    last = SimplexKey(D.gen_of_label(2))
    assert js.is_initial(D, first, 1)["verdict"].startswith("confirmed")
    assert js.is_initial(D, last, 1)["verdict"] == "refuted"


def test_colimiting_cocone_over_a_span_in_a_square_poset():
    # 0 -> 1, 0 -> 2, both -> 3: the span under 0 has pushout 3
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    N = nerve(C, 4)
    H = sx.horn(2, 0)
    span = sx.SimplicialMap(H, N, {
        H.gen_of_label((0,)): SimplexKey(N.gen_of_label(0)),
        H.gen_of_label((1,)): SimplexKey(N.gen_of_label(1)),
        H.gen_of_label((2,)): SimplexKey(N.gen_of_label(2)),
        H.gen_of_label((0, 1)): SimplexKey(N.gen_of_label(((0, 1),))),
        H.gen_of_label((0, 2)): SimplexKey(N.gen_of_label(((0, 2),))),
    })
    found = js.colimiting_cocones(span, 1)
    assert len(found) >= 1
    tips = set()
    for entry in found:
        ext = entry["cocone"].extension
        J = ext.source
        tip = ext(J.key_of(0, ("b", SimplexKey((0, 0)))))
        tips.add(N.labels[tip.gen])
    assert tips == {3}


def test_restriction_to_diagrams_is_an_equivalence_on_good_instances():
    A = sx.delta(0)
    instances = [
        nerve(chain_poset(1), 3),
        nerve(chain_poset(2), 3),
        nerve(cyclic_group_category(2), 3),
        nerve(indiscrete_category(range(2)), 3),
        nerve(poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3), 3),
    ]
    for X in instances:
        rep = js.restriction_equivalence_check(X, A, 1)
        assert rep["verdict"] == "pass", rep
        assert rep["essentially_surjective"]
        assert rep["full"] and rep["faithful"]


def test_restriction_check_reports_missing_colimits():
    # two incomparable points: vertices have no cocones at all
    X = nerve(poset_category(range(2), lambda a, b: a == b), 3)
    rep = js.restriction_equivalence_check(X, sx.delta(0), 1)
    assert rep["verdict"] == "pass" or rep["verdict"] == "hypothesis-failure"


def test_cone_extension_holds_in_a_nerve_with_terminal_object():
    N = nerve(chain_poset(2), 3)
    rep = js.cone_extension_check(N)
    assert rep["verdict"] == "pass"
    assert rep["maps_tested"] > 0


def test_cone_extension_fails_without_a_terminal_object():
    N = nerve(poset_category(range(2), lambda a, b: a == b), 2)
    rep = js.cone_extension_check(N)
    assert rep["verdict"] == "fail"
    assert rep["failures"]


def test_poset_catalogue_is_complete_for_size_three():
    ps = js.small_posets(3)
    assert len(ps) == 8
    for P in ps:
        P.check()
