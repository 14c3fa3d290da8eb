"""Horn-filler audits, the prism construction for promoting component
homotopies, right-lifting-property checks, and the iterated-level
equivalence verifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import lifting as lf
from qcatk import simplicial as sx
from qcatk.cats import (
    FinFunctor,
    chain_poset,
    cyclic_group_category,
    full_subcategory,
    nerve,
    nerve_functor_map,
)
from qcatk.simplicial import SimplexKey
from qcatk.waldhausen import ExactFunctorData, pointed_sets_waldhausen
from qcatk.zoo import (
    idempotent_monoid_category,
    pointed_sets_with_duplicate,
    random_category,
    random_groupoid,
)


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


def _parallel_pairs(X, n):
    """Ordered parallel pairs of transformations I[n] x Delta[1] -> X whose
    last components agree up to homotopy (here: on the nose), along with the
    pairs whose last components differ."""
    P = sx.product(sx.spine(n), sx.delta(1), n + 1).sset
    with sx.budget(10**7):
        maps = sx.enumerate_maps(P, X)
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
        P, _, pairs, _ = _parallel_pairs(X, 1)
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


def _find_simplex(X, n, want):
    """The oracle for ``simplex_with_faces`` in the prism construction: the
    first n-simplex of X (in canonical order) with the prescribed faces,
    found by scanning every n-simplex."""
    for z in X.simplices(n):
        if all(X.face(z, i) == k for i, k in want.items()):
            return z
    return None


def _filler_reports(X, n):
    """Prism-construction reports, both directions, for a few promotable
    and a few non-promotable pairs, then every horn-filler audit."""
    _, _, pairs, others = _parallel_pairs(X, n)
    out = []
    for direction in ("last", "first"):
        for alpha, beta in pairs[:6] + others[:3]:
            rep = lf.homotopy_from_last_component(X, alpha, beta, direction)
            h = rep["homotopy"]
            out.append({**rep, "homotopy": None if h is None else h.assign})
    return out + [lf.horn_fill_class_check(X, kind) for kind in ("all", "last", "first")]


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_filler_lookups_match_the_scanning_oracle(seed):
    rng = random.Random(seed)
    instances = [(nerve(random_category(rng, 3), 3), 1), (nerve(random_groupoid(rng), 3), 1)]
    for X, n in instances:
        found = _filler_reports(X, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sx, "simplex_with_faces", _find_simplex)
            assert found == _filler_reports(X, n)


@pytest.mark.parametrize("category, n", [
    (lambda: cyclic_group_category(3), 1),
    (lambda: cyclic_group_category(2), 2),
    (idempotent_monoid_category, 1),
])
def test_prism_fills_match_the_scanning_oracle(monkeypatch, category, n):
    X = nerve(category(), 3)
    found = _filler_reports(X, n)
    assert any(r.get("status") == "stuck" for r in found)
    monkeypatch.setattr(sx, "simplex_with_faces", _find_simplex)
    assert found == _filler_reports(X, n)


def test_non_parallel_inputs_are_rejected():
    X = nerve(cyclic_group_category(3), 3)
    P = sx.product(sx.spine(1), sx.delta(1), 2).sset
    maps = sx.enumerate_maps(P, X)
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
    with sx.budget(10**7):
        rep = lf.rlp_check(N, (1,), kind="strong-replacement")
    assert rep["verdict"] == "pass"
    assert rep["problems"] == 10
    assert rep["nbar"] == (1,)


def _fixed_from_boundary(Bd, u, push=None):
    return {Bd.labels[gb].gen: push(val) if push else val for gb, val in u.assign.items()}


def rlp_check_oracle(G, nbar=(), kind="prism"):
    """The lifting checks one boundary map at a time: the boundary maps come
    from a search of the boundary subcomplex, then each gets its own
    searches of the whole prism with the boundary ``fixed``; the reference
    for :func:`lifting.rlp_check`'s relative searches."""
    nbar = tuple(nbar)
    In = lf.spine_product(nbar)
    D2 = sx.delta(2)
    P3 = sx.product(In, D2, In.top_dim + 2).sset
    problems = 0
    if kind == "prism":
        A, B = G.source, G.target
        Bd, _ = lf._boundary_subcomplex(P3, D2, strong=False)
        for u in sx.enumerate_maps(Bd, A):
            fixed_b = _fixed_from_boundary(Bd, u, push=G)
            vs = sx.enumerate_maps(P3, B, fixed=fixed_b)
            if not vs:
                continue
            lifts = sx.enumerate_maps(P3, A, fixed=_fixed_from_boundary(Bd, u))
            images = [G.compose(w).assign for w in lifts]
            for v in vs:
                problems += 1
                if v.assign not in images:
                    return {"verdict": "fail", "kind": kind, "nbar": nbar,
                            "problems": problems,
                            "witness": {"boundary": dict(u.assign),
                                        "below": dict(v.assign)}}
    else:
        B = G.target if isinstance(G, sx.SimplicialMap) else G
        Bd, _ = lf._boundary_subcomplex(P3, D2, strong=True)
        for u in sx.enumerate_maps(Bd, B):
            problems += 1
            fixed = _fixed_from_boundary(Bd, u)
            if not sx.enumerate_maps(P3, B, fixed=fixed):
                return {"verdict": "fail", "kind": kind, "nbar": nbar,
                        "problems": problems,
                        "witness": {"boundary": dict(u.assign)}}
    return {"verdict": "pass", "kind": kind, "nbar": nbar,
            "problems": problems, "witness": None}


def _full_inclusion(C, drop, bound):
    """The nerve of the inclusion of C without its ``drop``-th object."""
    S = full_subcategory(C, [o for i, o in enumerate(C.objects) if i != drop])
    F = FinFunctor(S, C, {o: o for o in S.objects}, {m: m for m in S.morphisms})
    return nerve_functor_map(F, nerve(S, bound), nerve(C, bound))


def _matches_the_oracle(G, nbar, kind):
    rep = lf.rlp_check(G, nbar, kind=kind)
    assert rep == rlp_check_oracle(G, nbar, kind=kind)
    return rep


@given(st.integers(0, 10_000), st.sampled_from(["identity", "inclusion", "strong"]),
       st.sampled_from([(), (1,)]), st.data())
@settings(max_examples=40, deadline=None)
def test_lifting_checks_match_the_per_problem_oracle(seed, case, nbar, data):
    C = random_category(random.Random(seed), 4)
    N = nerve(C, 2 + len(nbar))
    if case == "strong":
        _matches_the_oracle(N, nbar, "strong-replacement")
    elif case == "identity" or len(C.objects) == 1:
        _matches_the_oracle(sx.SimplicialMap.identity(N), nbar, "prism")
    else:
        drop = data.draw(st.integers(0, len(C.objects) - 1))
        _matches_the_oracle(_full_inclusion(C, drop, 2 + len(nbar)), nbar, "prism")


SIMPLEX_SHAPES = {
    "boundary2": (lambda: sx.boundary(2), 2), "boundary3": (lambda: sx.boundary(3), 3),
    "horn20": (lambda: sx.horn(2, 0), 2), "horn21": (lambda: sx.horn(2, 1), 2),
    "horn31": (lambda: sx.horn(3, 1), 3), "spine3": (lambda: sx.spine(3), 3),
}
# the shapes that fail, with their nbar
FAILING = {
    ("strong-replacement", "boundary3", (1,)), ("strong-replacement", "horn31", (1,)),
    ("prism", "horn31", ()), ("prism", "horn31", (1,)), ("prism", "boundary2", ()),
    ("prism", "boundary2", (1,)), ("prism", "boundary3", (1,)),
}


@pytest.mark.parametrize("nbar", [(), (1,)])
@pytest.mark.parametrize("kind,shape", [
    ("strong-replacement", s) for s in ("boundary2", "boundary3", "horn20", "horn31")
] + [("prism", s) for s in SIMPLEX_SHAPES])
def test_lifting_checks_on_simplex_shapes_match_the_oracle(kind, shape, nbar):
    make, n = SIMPLEX_SHAPES[shape]
    # strong replacement on the shape itself, prism lifting on its inclusion
    G = make() if kind == "strong-replacement" else sx.delta_inclusion(
        make(), sx.delta(n), lambda v: v)
    verdict = "fail" if (kind, shape, nbar) in FAILING else "pass"
    assert _matches_the_oracle(G, nbar, kind)["verdict"] == verdict


@pytest.mark.parametrize("shape", ["boundary3", "horn31"])
def test_strong_replacement_on_a_shape_times_a_group_nerve_matches_the_oracle(shape):
    # parallel edges, so the boundary maps that come before the failing one
    # depend on the order of the boundary maps
    X = sx.product(SIMPLEX_SHAPES[shape][0](), nerve(cyclic_group_category(2), 3), 3).sset
    assert _matches_the_oracle(X, (1,), "strong-replacement")["verdict"] == "fail"


def test_a_lift_check_is_one_or_two_searches(monkeypatch):
    calls = []
    search = sx.relative_maps
    monkeypatch.setattr(sx, "relative_maps", lambda *a, **k: calls.append(1) or search(*a, **k))
    N = nerve(chain_poset(1), 3)
    assert lf.rlp_check(N, (1,), kind="strong-replacement")["problems"] == 10
    assert len(calls) == 1
    assert lf.rlp_check(sx.SimplicialMap.identity(N), (1,), kind="prism")["verdict"] == "pass"
    assert len(calls) == 3


def test_the_budget_bounds_the_whole_lift_check():
    # one search of 278 nodes, where the per-problem check makes 11 searches
    # of 563 nodes in all
    N = nerve(chain_poset(1), 3)
    with sx.budget(278):
        assert lf.rlp_check(N, (1,), kind="strong-replacement")["verdict"] == "pass"
    with sx.budget(10**6) as ledger:
        assert rlp_check_oracle(N, (1,), kind="strong-replacement")["verdict"] == "pass"
    assert ledger.used == 563
    with sx.budget(277), pytest.raises(sx.BudgetExceeded) as exc:
        lf.rlp_check(N, (1,), kind="strong-replacement")
    assert exc.value.attempted == 278


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
