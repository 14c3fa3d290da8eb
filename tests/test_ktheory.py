"""Class-group computation by two independent routes, comma-fibre
verification, and the approximation desk check."""

import pytest

from qcatk import ktheory as kt
from qcatk import sconstruction as sc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk import statements as stm
from qcatk import waldhausen as wd
from qcatk.cats import (
    FinFunctor,
    full_subcategory,
    nerve,
    nerve_functor_map,
    pointed_sets_category,
    poset_category,
)
from qcatk.homology import AbelianGroupPresentation, group_from_relations
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import (
    ExactFunctorData,
    nerve_waldhausen,
    pointed_sets_waldhausen,
)
from qcatk.zoo import indiscrete_category, pointed_sets_with_duplicate
from testlib import chain_poset, maximal_marking_waldhausen


# ---------------------------------------------------------------------------
# K0 by two routes


def _instances():
    pt = maximal_marking_waldhausen(poset_category([0], lambda a, b: True), 0, 2)
    return [
        ("point", pt, AbelianGroupPresentation(0, ())),
        ("pointed-sets-2", pointed_sets_waldhausen(2, 2), AbelianGroupPresentation(1, ())),
        ("pointed-sets-3", pointed_sets_waldhausen(3, 2), AbelianGroupPresentation(1, ())),
        ("with-duplicate", pointed_sets_with_duplicate(2, 2)[0], AbelianGroupPresentation(1, ())),
    ]


@pytest.mark.parametrize("name,W,expected", _instances())
def test_class_group_routes_agree(name, W, expected):
    rep = kt.k0_agreement(W)
    assert rep["agree"], (name, rep)
    assert rep["diagonal"] == expected
    assert rep["oracle"] == expected


def test_trivial_instance_has_trivial_class_group():
    pt = maximal_marking_waldhausen(poset_category([0], lambda a, b: True), 0, 2)
    assert kt.k0_via_diagonal(pt).is_trivial


def test_dropping_the_quotient_relations_is_detected():
    W = pointed_sets_waldhausen(3, 2)
    data = kt.k0_relations(W)
    drop = [
        i for i, k in enumerate(data["kinds"])
        if k[0] == "cofibration" and k[1][:2] == (2, 3)
    ]
    assert drop
    rows = [r for i, r in enumerate(data["rows"]) if i not in drop]
    weakened = group_from_relations(len(data["generators"]), rows)
    assert weakened == AbelianGroupPresentation(2, ())
    assert weakened != kt.k0_via_diagonal(W)
    assert kt.k0_presentation_oracle(W) == kt.k0_via_diagonal(W)


def test_cofibrations_without_a_quotient_in_the_base_are_skipped():
    # pointed sets of sizes 1, 2 and 4 with the injective maps marked: the
    # quotient of 2 into 4 has size 3, which is not in the base
    C = full_subcategory(pointed_sets_category(4), [1, 2, 4])
    injective = [m for m in C.morphisms if 0 not in m[2] and len(set(m[2])) == len(m[2])]
    W = nerve_waldhausen(C, 1, injective, 2)
    data = kt.k0_relations(W)
    assert data["skipped"] == 3
    assert len(data["rows"]) == 13
    assert [k for k, _ in data["kinds"]] == ["zero"] + ["cofibration"] * 7 + ["equivalence"] * 5
    assert not any(k == "cofibration" and m[:2] == (2, 4) for k, m in data["kinds"])
    assert kt.k0_presentation_oracle(W) == AbelianGroupPresentation(2, ())


def test_class_group_builds_no_level_nerve_until_read(monkeypatch):
    grids, nerved = [], []
    real_s_n, real_nerve = sc.s_n, wd.nerve

    def recording_s_n(*args, **kwargs):
        grids.append(real_s_n(*args, **kwargs))
        return grids[-1]

    def recording_nerve(C, d):
        nerved.append(C)
        return real_nerve(C, d)

    monkeypatch.setattr(kt, "s_n", recording_s_n)
    monkeypatch.setattr(wd, "nerve", recording_nerve)
    assert kt.k0_via_diagonal(pointed_sets_waldhausen(3, 2)) == AbelianGroupPresentation(1, ())
    assert len(grids) == 3

    def level_nerves():
        return sum(C is g.cat for C in nerved for g in grids)

    assert level_nerves() == 0
    sset = grids[2].sset
    assert level_nerves() == 1
    assert grids[2].wdata.underlying is sset
    assert level_nerves() == 1


def test_class_group_requires_dimension_two():
    with pytest.raises(ValueError):
        kt.k0_via_diagonal(pointed_sets_waldhausen(2, 2), d=1)


# ---------------------------------------------------------------------------
# comma-fibre verification


def test_identities_pass_the_fibre_check():
    N = nerve(chain_poset(2), 3)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    rep = stm.quillen_a_verify(ident, 2)
    assert rep["verdict"] == "pass"
    assert rep["corroboration"]["agree"]


def test_nerve_of_an_equivalence_passes_the_fibre_check():
    I2 = indiscrete_category(range(2))
    P = chain_poset(0)
    F = FinFunctor(I2, P, {o: 0 for o in I2.objects},
                   {m: P.ids[0] for m in I2.morphisms})
    F.check()
    G = nerve_functor_map(F, nerve(I2, 3), nerve(P, 3))
    rep = stm.quillen_a_verify(G, 2)
    assert rep["verdict"] == "pass"


def test_endpoint_inclusion_fails_the_fibre_check_with_witness():
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 1)
    rep = stm.quillen_a_verify(inc, 1)
    assert rep["verdict"] == "fail"
    assert rep["witness"] is not None
    assert rep["per_vertex"][rep["witness"]]["verdict"] == "refuted"


def test_a_fibre_with_a_loop_in_its_truncation_is_inconclusive():
    # the comma of the circle over the point is the circle; its truncation
    # carries a bound, so H1 = Z there refutes nothing
    G = sx.delta_inclusion(sx.boundary(2), sx.delta(0), lambda v: 0)
    rep = stm.quillen_a_verify(G, 2)
    assert rep == {
        "verdict": "inconclusive",
        "witness": None,
        "per_vertex": {SimplexKey((0, 0)): {
            "verdict": "inconclusive", "reason": "H1 of truncation = Z", "dim": 2}},
        "corroboration": {
            "source": {"components": 1, "pi1_abelianized": [(1, ())]},
            "target": {"components": 1, "pi1_abelianized": [(0, ())]},
            "agree": False,
        },
        "dim": 2,
    }


def test_main_comparison_hypotheses_and_conclusion():
    N = nerve(chain_poset(1), 3)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    rep = stm.main_technical_verify(ident, d=2)
    assert rep["hypotheses_hold"]
    assert rep["conclusion"]["agree"]
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 0)
    rep = stm.main_technical_verify(inc, d=2)
    assert not rep["hypotheses"]["essentially_surjective"]


def test_a_map_that_inverts_an_arrow_fails_reflection():
    # [1] into the indiscrete category on 0 and 1: 0 -> 1 goes to an
    # isomorphism, although it is none in [1]
    P, I = chain_poset(1), indiscrete_category([0, 1])
    F = FinFunctor(P, I, {0: 0, 1: 1}, {m: m for m in P.morphisms})
    F.check()
    G = nerve_functor_map(F, nerve(P, 4), nerve(I, 4))
    rep = stm.main_technical_verify(G, d=2)
    assert rep["hypotheses"]["reflects_equivalences"] is False
    assert rep["hypotheses"]["reflection_witness"] == SimplexKey((1, 0))
    assert rep["hypotheses"]["poset_colimits"]["ok"]
    assert rep["hypotheses_hold"] is False


# the posets 0, 1 < 2 and 0, 1 < 2, 3: the pair (0, 1) has the colimit 2 in
# the first and none in the second, where 2 and 3 are both upper bounds
ONE_TOP = poset_category(range(3), lambda a, b: a == b or (a < 2 == b))
TWO_TOPS = poset_category(range(4), lambda a, b: a == b or (a < 2 <= b))


def test_a_source_without_a_coproduct_fails_the_colimit_hypothesis():
    # 24 diagrams: 4 objects, 16 ordered pairs and 4 identity arrows; the
    # pairs (0, 1) and (2, 3) have no colimit, in either order
    N = nerve(TWO_TOPS, 3)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    rep = stm.main_technical_verify(ident, d=2)
    assert rep["hypotheses"]["poset_colimits"] == {
        "diagrams_checked": 24, "without_colimit": 4, "not_preserved": 0, "ok": False}
    assert rep["hypotheses"]["essentially_surjective"]
    assert rep["hypotheses"]["reflects_equivalences"]
    assert rep["hypotheses_hold"] is False
    assert rep["conclusion"]["agree"]


def test_a_map_that_loses_a_coproduct_fails_the_colimit_hypothesis():
    # 2 is the coproduct of 0 and 1 in ONE_TOP but not in TWO_TOPS, so the
    # diagrams (0, 1) and (1, 0) keep no colimit under the inclusion
    F = FinFunctor(ONE_TOP, TWO_TOPS, {o: o for o in ONE_TOP.objects},
                   {m: m for m in ONE_TOP.morphisms})
    F.check()
    G = nerve_functor_map(F, nerve(ONE_TOP, 3), nerve(TWO_TOPS, 3))
    rep = stm.main_technical_verify(G, d=2)
    assert rep["hypotheses"]["poset_colimits"] == {
        "diagrams_checked": 15, "without_colimit": 0, "not_preserved": 2, "ok": False}
    assert rep["hypotheses"]["essentially_surjective"] is False
    assert rep["hypotheses_hold"] is False


# ---------------------------------------------------------------------------
# approximation desk check


def test_skeleton_inclusion_passes_the_approximation_check():
    _, G = pointed_sets_with_duplicate(2, 2)
    rep = kt.approximation_verify(G)
    assert rep["applicable"], rep["hypotheses"]
    assert rep["conclusion"]["pass"], rep["conclusion"]
    assert rep["conclusion"]["k0_match"]
    assert rep["conclusion"]["pi0_source"] == rep["conclusion"]["pi0_target"]


def test_approximation_builds_each_level_once(monkeypatch):
    levels = []
    real_s_n = sc.s_n

    def counting_s_n(W, n, *args, **kwargs):
        levels.append(n)
        return real_s_n(W, n, *args, **kwargs)

    monkeypatch.setattr(sc, "s_n", counting_s_n)
    monkeypatch.setattr(kt, "s_n", counting_s_n)
    _, G = pointed_sets_with_duplicate(2, 2)
    rep = kt.approximation_verify(G)
    assert rep["conclusion"]["pass"]
    assert sorted(levels) == [0, 0, 1, 1, 2, 2]


def test_non_reflecting_map_yields_a_negative_hypothesis_report():
    W = pointed_sets_waldhausen(2, 2)
    C = W.underlying.category
    W_all = nerve_waldhausen(C, 1, list(C.morphisms), 2,
                             universe={"bounded": True, "note": "all marked"})
    N = W.underlying
    ident = ss.SimplicialMap(N, W_all.underlying,
                             {g: SimplexKey(g) for g in N.all_gens()})
    G = ExactFunctorData(ident, W, W_all)
    rep = kt.approximation_verify(G)
    assert not rep["hypotheses"]["reflects_cofibrations"]
    assert not rep["applicable"]
    assert rep["conclusion"] is None
