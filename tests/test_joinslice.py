"""Slices, over-quasicategories, commas, cocones, and the restriction
equivalence for diagrams admitting colimits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import families as fm
from qcatk import joinslice as js
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk import statements as stm
from qcatk.cats import (
    cyclic_group_category,
    nerve,
    poset_category,
)
from qcatk.ssets import SimplexKey
from qcatk.zoo import indiscrete_category, random_category
from testlib import chain_poset, slice_category, two_homotopic_edges


def _vertex_map(X, v):
    return ss.SimplicialMap(sx.delta(0), X, {(0, 0): v})


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
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
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


def test_a_mapping_space_with_a_loop_in_its_truncation_leaves_initiality_open():
    # X(p, q) is the loop e -> e' -> e of s and t, which no 3-simplex fills;
    # the truncation carries a bound, so H1 = Z there refutes nothing
    X = two_homotopic_edges()
    p, q = (SimplexKey(X.gen_of_label(v)) for v in "pq")
    assert js.is_initial(X, p, 1) == {"verdict": "inconclusive", "dim": 1, "per_vertex": {
        p: {"verdict": "confirmed-to-1", "reason": "pi0 = *, H1 = 0", "dim": 1},
        q: {"verdict": "inconclusive", "reason": "H1 of truncation = Z", "dim": 1}}}


def test_colimiting_cocone_over_a_span_in_a_square_poset():
    # 0 -> 1, 0 -> 2, both -> 3: the span under 0 has pushout 3
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    N = nerve(C, 4)
    H = sx.horn(2, 0)
    span = ss.SimplicialMap(H, N, {
        H.gen_of_label((0,)): SimplexKey(N.gen_of_label(0)),
        H.gen_of_label((1,)): SimplexKey(N.gen_of_label(1)),
        H.gen_of_label((2,)): SimplexKey(N.gen_of_label(2)),
        H.gen_of_label((0, 1)): SimplexKey(N.gen_of_label(((0, 1),))),
        H.gen_of_label((0, 2)): SimplexKey(N.gen_of_label(((0, 2),))),
    })
    found = js.colimiting_cocones(span, 1)
    assert len(found) >= 1
    tips = set()
    for ext in found:
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
        rep = stm.restriction_equivalence_check(X, A, 1)
        assert rep["verdict"] == "pass", rep
        assert rep["essentially_surjective"]
        assert rep["full"] and rep["faithful"]


def test_restriction_check_reports_missing_colimits():
    # two incomparable points: each point is its own colimit, but a diagram
    # on two points that picks both has no coproduct
    X = nerve(poset_category(range(2), lambda a, b: a == b), 3)
    assert stm.restriction_equivalence_check(X, sx.delta(0), 1)["verdict"] == "pass"
    rep = stm.restriction_equivalence_check(X, sx.boundary(1), 1)
    # the vertices of X^A after the two constant diagrams, in generator order
    assert rep == {"dim": 1, "diagrams_without_colimit": [SimplexKey((0, 1)), SimplexKey((0, 2))],
                   "verdict": "hypothesis-failure"}


def test_cone_extension_holds_in_a_nerve_with_terminal_object():
    N = nerve(chain_poset(2), 3)
    rep = stm.cone_extension_check(N)
    assert rep["verdict"] == "pass"
    assert rep["maps_tested"] > 0


def test_cone_extension_fails_without_a_terminal_object():
    N = nerve(poset_category(range(2), lambda a, b: a == b), 2)
    rep = stm.cone_extension_check(N)
    assert rep["verdict"] == "fail"
    assert rep["failures"]


def cone_extension_by_maps(C):
    """The nested route for ``cone_extension_check``: every map NP -> C,
    then one search of the cone per map with its base values fixed."""
    if C.is_empty():
        return {"verdict": "fail", "reason": "empty target"}
    failures, tested = [], 0
    for P in stm.small_posets(2):
        NP = nerve(P, len(P.objects))
        J = fm.join(NP, sx.delta(0), NP.top_dim + 1).sset
        C.require_bound(J.top_dim, "cone extension")
        for f in sx.enumerate_maps(NP, C):
            tested += 1
            fixed = {g: f(J.labels[g][1]) for g in J.all_gens() if J.labels[g][0] == "a"}
            if not sx.enumerate_maps(J, C, fixed=fixed):
                failures.append((P, f))
    return {"verdict": "pass" if not failures else "fail", "maps_tested": tested,
            "failures": failures}


def _same_cone_report(got, want):
    assert {k: v for k, v in got.items() if k != "failures"} == \
        {k: v for k, v in want.items() if k != "failures"}
    assert [(P.morphisms, f.assign) for P, f in got.get("failures", [])] == \
        [(P.morphisms, f.assign) for P, f in want.get("failures", [])]


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_cone_extension_matches_the_nested_oracle(seed, opposite):
    C = random_category(random.Random(seed), 4)
    N = nerve(C.opposite() if opposite else C, 3)
    _same_cone_report(stm.cone_extension_check(N), cone_extension_by_maps(N))


@pytest.mark.parametrize("X", [
    nerve(poset_category(range(2), lambda a, b: a == b), 2),
    sx.boundary(2),
    sx.horn(3, 1),
    sx.empty_sset(),
], ids=["discrete2", "boundary2", "horn31", "empty"])
def test_cone_extension_on_fixed_inputs_matches_the_nested_oracle(X):
    _same_cone_report(stm.cone_extension_check(X), cone_extension_by_maps(X))


def test_cone_extension_is_one_relative_search_per_poset(monkeypatch):
    relative_calls, enumerate_calls = [], []
    search, enumerate_maps = sx.relative_maps, sx.enumerate_maps
    monkeypatch.setattr(sx, "relative_maps",
                        lambda *a, **k: relative_calls.append(a[0]) or search(*a, **k))
    monkeypatch.setattr(sx, "enumerate_maps",
                        lambda *a, **k: enumerate_calls.append(a[0]) or enumerate_maps(*a, **k))
    assert stm.cone_extension_check(nerve(chain_poset(2), 3))["verdict"] == "pass"
    assert len(relative_calls) == len(stm.small_posets(2)) == 3
    assert enumerate_calls == []


def test_poset_catalogue_is_complete_for_size_three():
    ps = stm.small_posets(3)
    assert len(ps) == 8
    for P in ps:
        P.check()
