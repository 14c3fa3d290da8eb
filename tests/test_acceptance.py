"""Top-level acceptance suite: one test per headline property, each ending in
a single pass/fail line."""

import random

import pytest

from qcatk import families as fm
from qcatk import joinslice as js
from qcatk import ktheory as kt
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk import statements as stm
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    nerve,
    nerve_functor_map,
    poset_category,
)
from qcatk.homology import AbelianGroupPresentation, group_from_relations
from qcatk.sconstruction import forgetful_maps
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import (
    ExactFunctorData,
    admits_factorization,
    nerve_waldhausen,
    pointed_sets_waldhausen,
)
from qcatk.zoo import (
    idempotent_monoid_category,
    indiscrete_category,
    pointed_sets_with_duplicate,
    random_category,
    random_groupoid,
    random_poset,
    pointed_sets_with_duplicate as _dup,
)
from testlib import (
    chain_poset,
    ho_equals_category,
    maximal_marking_waldhausen,
    prism_face,
    slice_category,
)


def _line(k, name):
    print(f"[criterion {k:02d}] {name}: PASS")


def test_01_join_of_simplices_is_a_simplex():
    for m in range(4):
        for n in range(4):
            J = fm.join(sx.delta(m), sx.delta(n), m + n + 1).sset
            assert sx.iso_check(J, sx.delta(m + n + 1), m + n + 1) is not None
    _line(1, "join of simplices")


def test_02_nerve_commutes_with_joins_and_slices():
    d = 3
    for seed in range(20):
        rng = random.Random(seed)
        P = random_poset(rng, rng.randint(1, 3))
        Q = random_poset(rng, rng.randint(1, 3))
        NJ = nerve(P.join(Q), d)
        JN = fm.join(nerve(P, d), nerve(Q, d), d).sset
        assert sx.iso_check(NJ, JN, d) is not None
    for seed in range(20):
        rng = random.Random(1000 + seed)
        C = random_category(rng, 4)
        c = rng.choice(sorted(C.objects, key=str))
        N = nerve(C, 3)
        O, _ = js.over_quasicategory(N, SimplexKey(N.gen_of_label(c)), 2)
        NS = nerve(slice_category(C, c), 2)
        assert sx.iso_check(O, NS, 2) is not None
    _line(2, "nerve/join and nerve/slice commutation")


def test_03_homotopy_category_of_a_nerve_is_the_category():
    for seed in range(20):
        C = random_category(random.Random(seed), 4)
        assert ho_equals_category(nerve(C, 2), C)
    _line(3, "homotopy category recovers the nerve's category")


def test_04_spine_maps_into_nerves_extend_uniquely():
    cats = [
        chain_poset(2),
        cyclic_group_category(2),
        cyclic_group_category(3),
        idempotent_monoid_category(),
        indiscrete_category(range(2)),
    ]
    total = 0
    for C in cats:
        assert len(C.morphisms) <= 8
        N = nerve(C, 4)
        for n in range(1, 5):
            S = sx.spine(n)
            D = sx.delta(n)
            inc = sx.delta_inclusion(S, D, lambda v: v)
            with ss.budget(10**7):
                spine_maps = sx.enumerate_maps(S, N)
                simplex_maps = sx.enumerate_maps(D, N)
            restrictions = {}
            for f in simplex_maps:
                key = tuple(sorted(f.compose(inc).assign.items()))
                restrictions[key] = restrictions.get(key, 0) + 1
            assert len(simplex_maps) == len(spine_maps)
            for f in spine_maps:
                key = tuple(sorted(f.assign.items()))
                assert restrictions.get(key) == 1, (C, n)
            total += len(spine_maps)
    assert total == 292
    _line(4, "unique spine extensions in nerves")


def test_05_restriction_to_diagrams_is_an_equivalence():
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
        assert rep["essentially_surjective"] and rep["full"] and rep["faithful"]
    _line(5, "restriction equivalence on colimit-complete instances")


def test_06_grid_levels_compare_to_sequence_levels():
    W = pointed_sets_waldhausen(3, 2)
    for n in (1, 2):
        out = forgetful_maps(W, n)
        for name in ("full_to_restricted", "restricted_to_sequences"):
            rep = out[name]["report"]
            assert rep["equivalence"], (n, name, rep)
            assert rep["reflects_cofibrations"], (n, name, rep)
    _line(6, "level functors are equivalences")


def test_07_class_group_routes_agree_with_negative_control():
    pt = maximal_marking_waldhausen(poset_category([0], lambda a, b: True), 0, 2)
    expected = [
        (pt, AbelianGroupPresentation(0, ())),
        (pointed_sets_waldhausen(2, 2), AbelianGroupPresentation(1, ())),
        (pointed_sets_waldhausen(3, 2), AbelianGroupPresentation(1, ())),
        (_dup(2, 2)[0], AbelianGroupPresentation(1, ())),
    ]
    for W, g in expected:
        rep = kt.k0_agreement(W)
        assert rep["agree"] and rep["diagonal"] == g
    W3 = pointed_sets_waldhausen(3, 2)
    data = kt.k0_relations(W3)
    drop = [i for i, k in enumerate(data["kinds"])
            if k[0] == "cofibration" and k[1][:2] == (2, 3)]
    rows = [r for i, r in enumerate(data["rows"]) if i not in drop]
    weakened = group_from_relations(len(data["generators"]), rows)
    assert weakened != kt.k0_via_diagonal(W3)
    _line(7, "class group agreement across independent routes")


def test_08_approximation_check_with_negative_control():
    _, G = pointed_sets_with_duplicate(2, 2)
    rep = kt.approximation_verify(G)
    assert rep["applicable"] and rep["conclusion"]["pass"]
    assert rep["conclusion"]["k0_match"]
    assert rep["conclusion"]["pi0_source"] == rep["conclusion"]["pi0_target"]
    W = pointed_sets_waldhausen(2, 2)
    C = W.underlying.category
    W_all = nerve_waldhausen(C, 1, list(C.morphisms), 2,
                             universe={"bounded": True, "note": "all marked"})
    N = W.underlying
    ident = ss.SimplicialMap(N, W_all.underlying,
                             {g: SimplexKey(g) for g in N.all_gens()})
    bad = kt.approximation_verify(ExactFunctorData(ident, W, W_all))
    assert not bad["applicable"] and bad["conclusion"] is None
    _line(8, "approximation desk check")


def test_09_comma_fibre_check_on_equivalences_and_a_failure():
    N = nerve(chain_poset(2), 3)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    assert stm.quillen_a_verify(ident, 2)["verdict"] == "pass"
    I2 = indiscrete_category(range(2))
    P = chain_poset(0)
    F = FinFunctor(I2, P, {o: 0 for o in I2.objects},
                   {m: P.ids[0] for m in I2.morphisms})
    G = nerve_functor_map(F, nerve(I2, 3), nerve(P, 3))
    assert stm.quillen_a_verify(G, 2)["verdict"] == "pass"
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 1)
    rep = stm.quillen_a_verify(inc, 1)
    assert rep["verdict"] == "fail" and rep["witness"] is not None
    _line(9, "comma-fibre verification")


def _promotable_pairs(X, n):
    P = sx.product(sx.spine(n), sx.delta(1), n + 1).sset
    with ss.budget(10**7):
        maps = sx.enumerate_maps(P, X)
    S, D1 = P.family.X, P.family.Y
    comp = P.key_of(1, (
        ss.key_degeneracy(SimplexKey(S.gen_of_label((n,))), 0),
        SimplexKey(D1.gen_of_label((0, 1))),
    ))
    return P, [(a, b) for a in maps for b in maps
               if stm._parallel(a, b) and a(comp) == b(comp)]


def test_10_prism_construction_with_stuck_control():
    ran = 0
    for seed in range(30):
        C = random_groupoid(random.Random(seed))
        X = nerve(C, 3)
        P, pairs = _promotable_pairs(X, 1)
        for alpha, beta in pairs[:3]:
            rep = stm.homotopy_from_last_component(X, alpha, beta)
            assert rep["status"] == "ok", (seed, rep)
            h = rep["homotopy"]
            assert prism_face(h, P, 1).assign == alpha.assign
            assert prism_face(h, P, 0).assign == beta.assign
            ran += 1
        if ran >= 10:
            break
    assert ran >= 10
    M = nerve(idempotent_monoid_category(), 3)
    _, pairs = _promotable_pairs(M, 1)
    reps = [stm.homotopy_from_last_component(M, a, b) for a, b in pairs]
    stuck = [r for r in reps if r["status"] == "stuck"]
    assert len(stuck) == 6
    assert all(r["witness"]["step"] == "top (outer horn, index 3)"
               for r in stuck)
    _line(10, "prism construction for component homotopies")


def test_11_marking_structure_consequences():
    # factorization: on valid data the definitional test holds exactly when
    # every edge is marked
    W_all = maximal_marking_waldhausen(
        poset_category([0], lambda a, b: True), 0, 2)
    assert admits_factorization(W_all)
    assert not admits_factorization(pointed_sets_waldhausen(3, 2))
    assert not admits_factorization(pointed_sets_with_duplicate(2, 2)[0])
    # markings are unions of homotopy classes
    for W in [pointed_sets_waldhausen(3, 2), pointed_sets_with_duplicate(2, 2)[0]]:
        cls = qc.homotopy_classes(W.underlying)
        marked = {cls[e] for e in W.edges() if W.is_cof(e)}
        assert all(W.is_cof(e) for e in W.edges() if cls[e] in marked)
    # six-for-two for invertibles in homotopy categories
    triples = 0
    for X in [nerve(cyclic_group_category(3), 2),
              pointed_sets_waldhausen(3, 2).underlying]:
        ho = qc.ho_category(X).cat
        for f in ho.morphisms:
            for g in ho.morphisms:
                if ho.src[g] != ho.tgt[f]:
                    continue
                for h in ho.morphisms:
                    if ho.src[h] != ho.tgt[g]:
                        continue
                    if ho.is_iso(ho.compose_mor(g, f)) and \
                            ho.is_iso(ho.compose_mor(h, g)):
                        triples += 1
                        assert ho.is_iso(f) and ho.is_iso(g) and ho.is_iso(h)
    assert triples > 0
    _line(11, "factorization, marking closure, and six-for-two")
