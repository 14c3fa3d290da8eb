"""Horn-filler audits, the prism construction for promoting component
homotopies, right-lifting-property checks, and the iterated-level
equivalence verifier."""

import random

import pytest

from qcatk import lifting as lf
from qcatk import simplicial as sx
from qcatk.cats import chain_poset, cyclic_group_category, nerve
from qcatk.simplicial import SimplexKey
from qcatk.waldhausen import ExactFunctorData, pointed_sets_waldhausen
from qcatk.zoo import idempotent_monoid_category, pointed_sets_with_duplicate, random_groupoid


# ---------------------------------------------------------------------------
# horn filler audits


def test_group_nerve_fills_all_horn_kinds():
    X = nerve(cyclic_group_category(3), 4)
    rep = lf.horn_fill_class_check(X, "all")
    assert rep["verdict"] == "pass"
    assert rep["checked"] == {(3, 0): 27, (3, 1): 27, (3, 2): 27, (3, 3): 27}


def test_monoid_nerve_fills_inner_but_not_outer_horns():
    X = nerve(idempotent_monoid_category(), 4)
    assert lf.horn_fill_class_check(X, "inner")["verdict"] == "pass"
    rep = lf.horn_fill_class_check(X, "last")
    assert rep["verdict"] == "fail"
    assert rep["witness"]["horn"] == (3, 3)


def test_unknown_horn_kind_is_rejected():
    with pytest.raises(ValueError):
        lf.horn_fill_class_check(sx.delta(3), "sideways")


# ---------------------------------------------------------------------------
# the prism construction


def _parallel_pairs(X, n, budget=10**6):
    """Ordered parallel pairs of transformations I[n] x Delta[1] -> X whose
    last components agree up to homotopy (here: on the nose), along with the
    pairs whose last components differ."""
    P = sx.product(sx.spine(n), sx.delta(1), n + 1).sset
    maps = sx.enumerate_maps(P, X, budget=budget)
    S, D1 = P.family.X, P.family.Y
    last = sx.key_degeneracy(SimplexKey(S.gen_of_label((n,))), 0)
    edge = SimplexKey(D1.gen_of_label((0, 1)))
    comp = P.key_of(1, (last, edge))
    promotable, others = [], []
    for a in maps:
        for b in maps:
            if not lf._parallel(a, b):
                continue
            (promotable if a(comp) == b(comp) else others).append((a, b))
    return P, maps, promotable, others


def test_prism_construction_in_a_group_nerve():
    X = nerve(cyclic_group_category(3), 3)
    P, maps, pairs, others = _parallel_pairs(X, 1)
    assert len(maps) == 27
    assert len(pairs) == 27
    for alpha, beta in pairs:
        rep = lf.homotopy_from_last_component(X, alpha, beta)
        assert rep["status"] == "ok", rep
        h = rep["homotopy"]
        assert lf.prism_face(h, P, 1).assign == alpha.assign
        assert lf.prism_face(h, P, 0).assign == beta.assign
        assert rep["fills"] == 4
    # pairs whose last components are not homotopic stop at the seed
    assert others
    for alpha, beta in others[:3]:
        rep = lf.homotopy_from_last_component(X, alpha, beta)
        assert rep["status"] == "stuck"
        assert rep["witness"]["step"] == "seed"


def test_prism_construction_bottom_up_and_top_down_agree_on_success():
    X = nerve(cyclic_group_category(2), 3)
    P, _, pairs, _ = _parallel_pairs(X, 2)
    assert len(pairs) == 32
    for alpha, beta in pairs:
        for direction in ("last", "first"):
            rep = lf.homotopy_from_last_component(X, alpha, beta, direction)
            assert rep["status"] == "ok", (direction, rep)
            h = rep["homotopy"]
            assert lf.prism_face(h, P, 1).assign == alpha.assign
            assert lf.prism_face(h, P, 0).assign == beta.assign


def test_randomized_prism_instances_in_groupoid_nerves():
    ran = 0
    for seed in range(30):
        rng = random.Random(seed)
        C = random_groupoid(rng)
        X = nerve(C, 3)
        P, _, pairs, _ = _parallel_pairs(X, 1, budget=10**7)
        for alpha, beta in pairs[:4]:
            rep = lf.homotopy_from_last_component(X, alpha, beta)
            assert rep["status"] == "ok", (seed, rep)
            h = rep["homotopy"]
            assert lf.prism_face(h, P, 1).assign == alpha.assign
            assert lf.prism_face(h, P, 0).assign == beta.assign
            assert lf.prism_face(h, P, 2).check() is None
            ran += 1
        if ran >= 12:
            break
    assert ran >= 12


def test_prism_construction_reports_the_stuck_filler():
    X = nerve(idempotent_monoid_category(), 3)
    P, maps, pairs, _ = _parallel_pairs(X, 1)
    reps = [lf.homotopy_from_last_component(X, a, b) for a, b in pairs]
    stuck = [r for r in reps if r["status"] == "stuck"]
    ok = [r for r in reps if r["status"] == "ok"]
    assert len(ok) == 10 and len(stuck) == 6
    for r in stuck:
        w = r["witness"]
        assert w["step"] == "top (outer horn, index 3)"
        assert w["segment"] == 1
        assert r["homotopy"] is None


def test_non_parallel_inputs_are_rejected():
    X = nerve(cyclic_group_category(3), 3)
    P = sx.product(sx.spine(1), sx.delta(1), 2).sset
    maps = sx.enumerate_maps(P, X, budget=10**6)
    bad = next(
        (a, b) for a in maps for b in maps if not lf._parallel(a, b)
    )
    with pytest.raises(ValueError):
        lf.homotopy_from_last_component(X, *bad)


# ---------------------------------------------------------------------------
# homotopic-components hypothesis


def test_components_hypothesis_in_small_nerves():
    rep = lf.components_hypothesis_check(nerve(chain_poset(2), 3))
    assert rep["verdict"] == "pass"
    rep = lf.components_hypothesis_check(nerve(cyclic_group_category(2), 3), nbar=(1,))
    assert rep["verdict"] == "pass"
    assert rep["tested_p"] == [1]


def test_components_hypothesis_with_no_budget_is_inconclusive():
    rep = lf.components_hypothesis_check(nerve(chain_poset(1), 2), p_budget=0)
    assert rep["verdict"] == "inconclusive"


# ---------------------------------------------------------------------------
# right lifting properties


def test_identity_has_the_prism_lifting_property():
    N = nerve(cyclic_group_category(2), 3)
    ident = sx.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    rep = lf.rlp_check(ident, (), kind="prism")
    assert rep["verdict"] == "pass"
    assert rep["problems"] == 4


def test_boundary_inclusion_fails_the_prism_lifting_property():
    inc = sx.delta_inclusion(sx.boundary(2), sx.delta(2), lambda v: v)
    rep = lf.rlp_check(inc, (), kind="prism")
    assert rep["verdict"] == "fail"
    assert rep["witness"] is not None


def test_group_nerve_has_the_strong_replacement_property():
    N = nerve(cyclic_group_category(2), 3)
    rep = lf.rlp_check(N, (), kind="strong-replacement")
    assert rep["verdict"] == "pass"
    assert rep["problems"] == 4


def test_strong_replacement_on_a_spine_shape():
    N = nerve(chain_poset(1), 4)
    rep = lf.rlp_check(N, (1,), kind="strong-replacement", budget=10**7)
    assert rep["verdict"] == "pass"
    assert rep["problems"] == 10
    assert rep["nbar"] == (1,)


# ---------------------------------------------------------------------------
# iterated-level equivalences


def test_identity_map_verifies_the_iterated_statement():
    W = pointed_sets_waldhausen(2, 2)
    N = W.underlying
    ident = sx.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    G = ExactFunctorData(ident, W, W)
    rep = lf.higher_iterate_verify(G, (1,))
    assert rep["hypotheses_hold"]
    assert rep["conclusion_holds"]
    assert rep["consistent_with_statement"]
    assert rep["consistent_with_cof_statement"]


def test_skeleton_inclusion_verifies_the_iterated_statement():
    _, G = pointed_sets_with_duplicate(2, 2)
    rep = lf.higher_iterate_verify(G, (1, 1))
    assert rep["hypotheses_hold"]
    assert rep["conclusion_holds"]
    assert rep["consistent_with_statement"]
    assert rep["consistent_with_cof_statement"]
    assert len(rep["conclusion"]["levels"]) == 2


def test_more_than_two_iterations_are_rejected():
    W = pointed_sets_waldhausen(2, 2)
    N = W.underlying
    ident = sx.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    with pytest.raises(ValueError):
        lf.higher_iterate_verify(ExactFunctorData(ident, W, W), (1, 1, 1))
