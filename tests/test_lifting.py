"""Horn-filler audits, the prism construction for promoting component
homotopies, right-lifting-property checks, and the iterated-level
equivalence verifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import lifting as lf
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk import statements as stm
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    full_subcategory,
    nerve,
    nerve_functor_map,
)
from qcatk.fincat import FinCategory
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import ExactFunctorData, pointed_sets_waldhausen
from qcatk.zoo import (
    idempotent_monoid_category,
    pointed_sets_with_duplicate,
    random_category,
    random_groupoid,
)
from testlib import chain_poset, prism_face, two_homotopic_edges


# ---------------------------------------------------------------------------
# horn filler audits


def test_group_nerve_fills_all_horn_kinds():
    X = nerve(cyclic_group_category(3), 4)
    rep = stm.horn_fill_class_check(X, "all")
    assert rep["verdict"] == "pass"
    assert rep["checked"] == {(3, 0): 27, (3, 1): 27, (3, 2): 27, (3, 3): 27}


def test_monoid_nerve_fills_inner_but_not_outer_horns():
    X = nerve(idempotent_monoid_category(), 4)
    assert stm.horn_fill_class_check(X, "inner")["verdict"] == "pass"
    rep = stm.horn_fill_class_check(X, "last")
    assert rep["verdict"] == "fail"
    assert rep["witness"]["horn"] == (3, 3)


def test_unknown_horn_kind_is_rejected():
    with pytest.raises(ValueError):
        stm.horn_fill_class_check(sx.delta(3), "sideways")


# ---------------------------------------------------------------------------
# the prism construction


def _parallel_pairs(X, n):
    """Ordered parallel pairs of transformations I[n] x Delta[1] -> X whose
    last components agree up to homotopy (here: on the nose), along with the
    pairs whose last components differ."""
    P = sx.product(sx.spine(n), sx.delta(1), n + 1).sset
    with ss.budget(10**7):
        maps = sx.enumerate_maps(P, X)
    S, D1 = P.family.X, P.family.Y
    last = ss.key_degeneracy(SimplexKey(S.gen_of_label((n,))), 0)
    edge = SimplexKey(D1.gen_of_label((0, 1)))
    comp = P.key_of(1, (last, edge))
    promotable, others = [], []
    for a in maps:
        for b in maps:
            if not stm._parallel(a, b):
                continue
            (promotable if a(comp) == b(comp) else others).append((a, b))
    return P, maps, promotable, others


def test_prism_construction_in_a_group_nerve():
    X = nerve(cyclic_group_category(3), 3)
    P, maps, pairs, others = _parallel_pairs(X, 1)
    assert len(maps) == 27
    assert len(pairs) == 27
    for alpha, beta in pairs:
        rep = stm.homotopy_from_last_component(X, alpha, beta)
        assert rep["status"] == "ok", rep
        h = rep["homotopy"]
        assert prism_face(h, P, 1).assign == alpha.assign
        assert prism_face(h, P, 0).assign == beta.assign
        assert rep["fills"] == 4
    # pairs whose last components are not homotopic stop at the seed
    assert others
    for alpha, beta in others[:3]:
        rep = stm.homotopy_from_last_component(X, alpha, beta)
        assert rep["status"] == "stuck"
        assert rep["witness"]["step"] == "seed"


def test_prism_construction_bottom_up_and_top_down_agree_on_success():
    X = nerve(cyclic_group_category(2), 3)
    P, _, pairs, _ = _parallel_pairs(X, 2)
    assert len(pairs) == 32
    for alpha, beta in pairs:
        for direction in ("last", "first"):
            rep = stm.homotopy_from_last_component(X, alpha, beta, direction)
            assert rep["status"] == "ok", (direction, rep)
            h = rep["homotopy"]
            assert prism_face(h, P, 1).assign == alpha.assign
            assert prism_face(h, P, 0).assign == beta.assign


def test_randomized_prism_instances_in_groupoid_nerves():
    ran = 0
    for seed in range(30):
        rng = random.Random(seed)
        C = random_groupoid(rng)
        X = nerve(C, 3)
        P, _, pairs, _ = _parallel_pairs(X, 1)
        for alpha, beta in pairs[:4]:
            rep = stm.homotopy_from_last_component(X, alpha, beta)
            assert rep["status"] == "ok", (seed, rep)
            h = rep["homotopy"]
            assert prism_face(h, P, 1).assign == alpha.assign
            assert prism_face(h, P, 0).assign == beta.assign
            assert prism_face(h, P, 2).check() is None
            ran += 1
        if ran >= 12:
            break
    assert ran >= 12


def test_prism_construction_reports_the_stuck_filler():
    X = nerve(idempotent_monoid_category(), 3)
    P, maps, pairs, _ = _parallel_pairs(X, 1)
    reps = [stm.homotopy_from_last_component(X, a, b) for a, b in pairs]
    stuck = [r for r in reps if r["status"] == "stuck"]
    ok = [r for r in reps if r["status"] == "ok"]
    assert len(ok) == 10 and len(stuck) == 6
    for r in stuck:
        w = r["witness"]
        assert w["step"] == "top (outer horn, index 3)"
        assert w["segment"] == 1
        assert r["homotopy"] is None


@pytest.mark.parametrize("alpha, beta, direction, step, faces", [
    (("s0 e", "s0 e"), ("t", "t"), "last", "middle (inner horn, index 2)",
     {0: "t", 1: "s0 e", 3: "s1 s0 p"}),
    (("s0 e", "s0 e"), ("t", "t"), "first", "top (inner horn, index 2)",
     {0: "t", 1: "s0 e", 3: "s1 s0 p"}),
    (("t", "t"), ("s0 e", "s"), "last", "bottom (inner horn, index 1)",
     {0: "s", 2: "t", 3: "s1 s0 p"}),
    (("t", "t"), ("s0 e", "s"), "first", "middle (inner horn, index 1)",
     {0: "s", 2: "t", 3: "s1 s0 p"}),
])
def test_prism_construction_sticks_at_each_inner_horn(alpha, beta, direction, step, faces):
    # each transformation is given by its triangles on the vertex paths
    # (0,0),(0,1),(1,1) and (0,0),(1,0),(1,1) of I[1] x Delta[1]
    X = two_homotopic_edges()

    def key(name):
        *degens, gen = name.split()
        return SimplexKey(X.gen_of_label(gen), tuple(int(d[1:]) for d in degens))

    P, maps, _, _ = _parallel_pairs(X, 1)
    upper, lower = P.gens(2)

    def square(tris):
        return next(m for m in maps if (m.assign[upper], m.assign[lower]) == tuple(map(key, tris)))

    rep = stm.homotopy_from_last_component(X, square(alpha), square(beta), direction)
    assert rep == {"status": "stuck", "homotopy": None, "direction": direction,
                   "witness": {"segment": 1, "step": step,
                               "faces": {i: key(k) for i, k in faces.items()}}}


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
            rep = stm.homotopy_from_last_component(X, alpha, beta, direction)
            h = rep["homotopy"]
            out.append({**rep, "homotopy": None if h is None else h.assign})
    return out + [stm.horn_fill_class_check(X, kind) for kind in ("all", "last", "first")]


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
        (a, b) for a in maps for b in maps if not stm._parallel(a, b)
    )
    with pytest.raises(ValueError):
        stm.homotopy_from_last_component(X, *bad)


# ---------------------------------------------------------------------------
# homotopic-components hypothesis


def test_components_hypothesis_in_small_nerves():
    rep = lf.components_hypothesis_check(nerve(chain_poset(2), 3))
    assert rep["verdict"] == "pass"
    rep = lf.components_hypothesis_check(nerve(cyclic_group_category(2), 3), nbar=(1,))
    assert rep["verdict"] == "pass"
    assert rep["tested_p"] == [1]


def kronecker_category():
    """Two parallel arrows f, g : a -> b."""
    mors = ["1a", "1b", "f", "g"]
    src = {"1a": "a", "1b": "b", "f": "a", "g": "a"}
    tgt = {"1a": "a", "1b": "b", "f": "b", "g": "b"}
    ids = {"a": "1a", "b": "1b"}
    return FinCategory.tabulate(["a", "b"], mors, src, tgt, ids,
                                lambda j, i: i if j in ("1a", "1b") else j)


def with_two_simplices(C, extra):
    """The nerve of C to dimension 2 with further 2-simplices, given by
    their face triples (keys of the nerve), and every compatible
    3-simplex: one per map boundary(Delta[3]) -> X that is not the
    boundary of a degenerate 3-simplex.  Bound 3, no category block."""
    N = nerve(C, 2)
    n_gens = list(N.n_gens) + [0] * (3 - len(N.n_gens))
    faces = dict(N.faces)
    for row in extra:
        faces[(2, n_gens[2])] = tuple(row)
        n_gens[2] += 1
    X2 = ss.SimplicialSet(n_gens, faces, bound=None)
    degenerate = {X2.boundary_tuple(k) for k in X2.simplices(3)}
    B = sx.boundary(3)
    omit = [B.gen_of_label(tuple(v for v in range(4) if v != i)) for i in range(4)]
    rows = [r for r in (tuple(m.assign[g] for g in omit) for m in sx.enumerate_maps(B, X2))
            if r not in degenerate]
    faces.update({(3, i): r for i, r in enumerate(rows)})
    return ss.SimplicialSet(n_gens + [len(rows)], faces, bound=3)


def kronecker_with_homotopy():
    """The Kronecker nerve plus one 2-simplex with faces (id_b, f, g): f and
    g become homotopic, and the transformations whose components are f and
    g form one pair that no homotopy with a degenerate face 2 joins."""
    C = kronecker_category()
    N = nerve(C, 2)
    f, g = (SimplexKey(N.gen_of_label((m,))) for m in ("f", "g"))
    return with_two_simplices(C, [(ss.key_degeneracy(N.face(f, 0), 0), f, g)])


def components_by_pairs(X, nbar=()):
    """The per-pair route for ``components_hypothesis_check``: one search of
    base x Delta[2] -> X per pair, with the boundary values fixed."""
    nbar = tuple(nbar)
    base = lf.spine_product(nbar + (1,))
    needed = base.top_dim + 2
    if X.effective_bound() < needed and X.category is not None:
        X = nerve(X.category, needed)
    X.require_bound(needed, "components hypothesis check")
    D1, D2 = sx.delta(1), sx.delta(2)
    Q1 = sx.product(base, D1, base.top_dim + 1).sset
    edge_cls = qc.homotopy_classes(X)

    def const(v, n):
        return ss.apply_degeneracy_word(v, range(n - 1, -1, -1)) if n else v

    def endpoints(m):
        return tuple(
            tuple(m(Q1.key_of(g[0], (SimplexKey(g), const(SimplexKey(D1.gen_of_label((j,))), g[0]))))
                  for g in base.all_gens())
            for j in (0, 1))

    def component(m, v):
        e = SimplexKey(D1.gen_of_label((0, 1)))
        return m(Q1.key_of(1, (ss.key_degeneracy(SimplexKey(v), 0), e)))

    def homotopy_exists(a, b):
        Q2 = sx.product(base, D2, needed).sset
        fixed = {}
        for h in Q2.all_gens():
            kb, kd = Q2.labels[h]
            V = set(D2.labels[kd.gen])
            if V == {0, 1, 2}:
                continue
            m, phi = ((a, {0: 0, 2: 1}) if V <= {0, 2} else
                      (b, {1: 0, 2: 1}) if V <= {1, 2} else (a, {0: 0, 1: 0}))
            seq = [phi[D2.labels[D2.vertex(kd, t).gen][0]] for t in range(kd.dim + 1)]
            fixed[h] = m(Q1.key_of(h[0], (kb, sx.key_from_vertex_seq(D1, seq))))
        return bool(sx.enumerate_maps(Q2, X, fixed=fixed))

    groups = {}
    for m in sx.enumerate_maps(Q1, X):
        groups.setdefault(endpoints(m), []).append(m)
    pairs = 0
    for group in groups.values():
        for ia, a in enumerate(group):
            for b in group[ia + 1:]:
                if any(edge_cls[component(a, v)] != edge_cls[component(b, v)]
                       for v in base.gens(0)):
                    continue
                pairs += 1
                if not homotopy_exists(a, b):
                    return {"verdict": "fail", "nbar": nbar, "tested_p": [1],
                            "pairs_with_homotopic_components": pairs,
                            "witness": {"p": 1, "alpha": dict(a.assign), "beta": dict(b.assign)}}
    return {"verdict": "pass", "nbar": nbar, "tested_p": [1],
            "pairs_with_homotopic_components": pairs, "witness": None}


def test_a_homotopy_with_the_wrong_degenerate_face_fails_the_hypothesis():
    X = kronecker_with_homotopy()
    rep = lf.components_hypothesis_check(X)
    assert rep["verdict"] == "fail"
    assert rep["pairs_with_homotopic_components"] == 1
    assert rep == components_by_pairs(X)


def _parallel_edges(N):
    """Every ordered pair of parallel edges of a nerve, degenerate included."""
    edges = N.simplices(1)
    return [(f, g) for f in edges for g in edges if N.boundary_tuple(f) == N.boundary_tuple(g)]


def _homotopy_simplex(N, f, g, degenerate_face):
    """A 2-simplex from f to g with a degenerate face 0 (on the target) or
    face 2 (on the source)."""
    if degenerate_face == 0:
        return (ss.key_degeneracy(N.face(f, 0), 0), f, g)
    return (g, f, ss.key_degeneracy(N.face(f, 1), 0))


_COMPONENT_BASES = {
    "kronecker": kronecker_category,
    "z2": lambda: cyclic_group_category(2),
    "idempotent": idempotent_monoid_category,
    "z3": lambda: cyclic_group_category(3),
}


def _components_input(base, picks):
    """A non-nerve from a base category and picks (i, face): the i-th
    parallel pair of edges joined by a homotopy with that degenerate face.
    The first pick has face 0, so the input forms pairs."""
    C = _COMPONENT_BASES[base]()
    N = nerve(C, 2)
    pairs = _parallel_edges(N)
    extra = [_homotopy_simplex(N, *pairs[i % len(pairs)], 0 if j == 0 else face)
             for j, (i, face) in enumerate(picks)]
    return with_two_simplices(C, extra)


@given(st.sampled_from(sorted(_COMPONENT_BASES)),
       st.lists(st.tuples(st.integers(0, 100), st.sampled_from([0, 2])), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_components_hypothesis_matches_the_per_pair_oracle(base, picks):
    X = _components_input(base, picks)
    rep = lf.components_hypothesis_check(X)
    assert rep["pairs_with_homotopic_components"] >= 1
    assert rep == components_by_pairs(X)


def test_components_inputs_give_both_verdicts():
    verdicts = {lf.components_hypothesis_check(_components_input(base, picks))["verdict"]
                for base in _COMPONENT_BASES for picks in ([(0, 0)], [(1, 0), (1, 2)], [(2, 2)])}
    assert verdicts == {"pass", "fail"}


def test_the_components_hypothesis_is_one_relative_search(monkeypatch):
    relative_calls, fixed_calls = [], []
    search, enumerate_maps = sx.relative_maps, sx.enumerate_maps

    def counting_search(K, X, inner=(), restrict=None, fixed=None):
        if inner:
            relative_calls.append(K)
        return search(K, X, inner, restrict, fixed)

    def counting_enumerate(K, X, fixed=None):
        if fixed:
            fixed_calls.append(K)
        return enumerate_maps(K, X, fixed)

    monkeypatch.setattr(sx, "relative_maps", counting_search)
    monkeypatch.setattr(sx, "enumerate_maps", counting_enumerate)
    assert lf.components_hypothesis_check(kronecker_with_homotopy())["verdict"] == "fail"
    assert (len(relative_calls), len(fixed_calls)) == (1, 0)
    assert lf.components_hypothesis_check(_components_input("z2", [(0, 0), (1, 2)]))
    assert (len(relative_calls), len(fixed_calls)) == (2, 0)
    # a nerve forms no pair, so it needs no homotopy search at all
    assert lf.components_hypothesis_check(nerve(cyclic_group_category(2), 3))["verdict"] == "pass"
    assert (len(relative_calls), len(fixed_calls)) == (2, 0)


# ---------------------------------------------------------------------------
# right lifting properties


def test_identity_has_the_prism_lifting_property():
    N = nerve(cyclic_group_category(2), 3)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
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
    with ss.budget(10**7):
        rep = lf.rlp_check(N, (1,), kind="strong-replacement")
    assert rep["verdict"] == "pass"
    assert rep["problems"] == 10
    assert rep["nbar"] == (1,)


def _fixed_from_boundary(Bd, u, push=None):
    return {Bd.labels[gb].gen: push(val) if push else val for gb, val in u.assign.items()}


def _in_prism_order(P3, Bd, maps):
    """Maps out of Bd ordered by their values in ``P3.all_gens()`` order,
    the order in which :func:`lifting.rlp_check` meets boundary maps
    (Bd's own generators are re-indexed, so its order differs)."""
    def key(u):
        fixed = _fixed_from_boundary(Bd, u)
        return [fixed[g] for g in P3.all_gens() if g in fixed]
    return sorted(maps, key=key)


def rlp_check_oracle(G, nbar=(), kind="prism"):
    """The lifting checks one boundary map at a time: the boundary maps come
    from a search of the boundary subcomplex, then each gets its own
    searches of the whole prism with the boundary ``fixed``; the reference
    for :func:`lifting.rlp_check`'s relative searches.  G is applied with
    ``compose`` and lifts are compared as dicts, with no memo."""
    nbar = tuple(nbar)
    In = lf.spine_product(nbar)
    D2 = sx.delta(2)
    P3 = sx.product(In, D2, In.top_dim + 2).sset
    problems = 0
    if kind == "prism":
        A, B = G.source, G.target
        Bd, _ = lf._boundary_subcomplex(P3, D2, strong=False)
        for u in _in_prism_order(P3, Bd, sx.enumerate_maps(Bd, A)):
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
        B = G.target if isinstance(G, ss.SimplicialMap) else G
        Bd, _ = lf._boundary_subcomplex(P3, D2, strong=True)
        for u in _in_prism_order(P3, Bd, sx.enumerate_maps(Bd, B)):
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


def _collapse(C, bound):
    """The nerve of the functor from C to the terminal category, which
    identifies simplices, so distinct lifts can have equal images."""
    T = chain_poset(0)
    t = T.objects[0]
    F = FinFunctor(C, T, {o: t for o in C.objects}, {m: T.ids[t] for m in C.morphisms})
    return nerve_functor_map(F, nerve(C, bound), nerve(T, bound))


@given(st.integers(0, 10_000),
       st.sampled_from(["identity", "inclusion", "strong", "collapse"]),
       st.sampled_from([(), (1,)]), st.data())
@settings(max_examples=40, deadline=None)
def test_lifting_checks_match_the_per_problem_oracle(seed, case, nbar, data):
    C = random_category(random.Random(seed), 4)
    N = nerve(C, 2 + len(nbar))
    if case == "strong":
        _matches_the_oracle(N, nbar, "strong-replacement")
    elif case == "collapse":
        _matches_the_oracle(_collapse(C, 2 + len(nbar)), nbar, "prism")
    elif case == "identity" or len(C.objects) == 1:
        _matches_the_oracle(ss.SimplicialMap.identity(N), nbar, "prism")
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
    assert lf.rlp_check(ss.SimplicialMap.identity(N), (1,), kind="prism")["verdict"] == "pass"
    assert len(calls) == 3


def test_the_budget_bounds_the_whole_lift_check():
    # one search of 278 nodes, where the per-problem check makes 11 searches
    # of 563 nodes in all
    N = nerve(chain_poset(1), 3)
    with ss.budget(278):
        assert lf.rlp_check(N, (1,), kind="strong-replacement")["verdict"] == "pass"
    with ss.budget(10**6) as ledger:
        assert rlp_check_oracle(N, (1,), kind="strong-replacement")["verdict"] == "pass"
    assert ledger.used == 563
    with ss.budget(277), pytest.raises(ss.BudgetExceeded) as exc:
        lf.rlp_check(N, (1,), kind="strong-replacement")
    assert exc.value.attempted == 278


def test_the_budget_bounds_the_whole_prism_check():
    # the two relative searches of a prism check: 50 problems in 2,545 nodes
    G = ss.SimplicialMap.identity(nerve(chain_poset(2), 3))
    with ss.budget(2545) as ledger:
        rep = lf.rlp_check(G, (1,), kind="prism")
    assert (rep["verdict"], rep["problems"], ledger.used) == ("pass", 50, 2545)
    with ss.budget(2544), pytest.raises(ss.BudgetExceeded) as exc:
        lf.rlp_check(G, (1,), kind="prism")
    assert exc.value.attempted == 2545


# ---------------------------------------------------------------------------
# iterated-level equivalences


def test_identity_map_verifies_the_iterated_statement():
    W = pointed_sets_waldhausen(2, 2)
    N = W.underlying
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
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
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    with pytest.raises(ValueError):
        lf.higher_iterate_verify(ExactFunctorData(ident, W, W), (1, 1, 1))
