"""Cofibration structures on finite quasicategories: axiom validation,
factorization, marking closure properties, and exact maps."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import io
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk import statements as stm
from qcatk import waldhausen as wd
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    edge_morphism,
    marked_subcategory,
    nerve,
    nerve_functor_map,
    one_full_subnerve,
    pointed_sets_category,
    poset_category,
)
from qcatk.cli import main
from qcatk.fincat import FinCategory
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import (
    ExactFunctorData,
    WaldhausenData,
    admits_factorization,
    cof_ho_equivalence,
    cof_subquasicategory,
    nerve_waldhausen,
    pointed_sets_waldhausen,
    reflects_cofibrations,
    validate_exact,
    validate_waldhausen,
)
from qcatk.zoo import idempotent_monoid_category, pointed_sets_with_duplicate, random_category
from testlib import comp_table, image_rows, maximal_marking_waldhausen, table_category


def test_pointed_sets_instance_satisfies_the_axioms():
    W = pointed_sets_waldhausen(3, 2)
    rep = validate_waldhausen(W)
    assert rep["ok"]
    assert rep["violations"] == []
    assert rep["checks"]["quasicategory"]
    assert rep["checks"]["pushouts_checked"] > 0


def _without_category_block(W):
    doc = io.serialize_waldhausen(W)
    del doc["sset"]["category"]
    return doc


def test_slice_pushouts_agree_with_the_oracle_without_a_category_block():
    # without its category block, a nerve's pushouts are checked as initial
    # cocones in the slice; Ps<=2 lacks only the wedge of two copies of S^0
    W = pointed_sets_waldhausen(2, 4)
    plain = io.parse_waldhausen(_without_category_block(W))
    assert plain.underlying.category is None
    oracle = validate_waldhausen(W)
    assert oracle == validate_waldhausen(plain)
    assert oracle["violations"] == []
    X = W.underlying
    point_into_s0 = SimplexKey(X.gen_of_label(((1, 2, ()),)))
    assert oracle["local_failures"] == [("pushout-missing", point_into_s0, point_into_s0)]
    assert oracle["checks"]["pushouts_checked"] == 2


@pytest.mark.parametrize("W", [pointed_sets_waldhausen(2, 4),
                               pointed_sets_with_duplicate(2, 4)[0]])
def test_waldhausen_check_prints_one_report_with_and_without_a_category_block(
        tmp_path, capsys, W):
    outputs = []
    for name, doc in [("block", io.serialize_waldhausen(W)),
                      ("plain", _without_category_block(W))]:
        path = tmp_path / f"{name}.json"
        path.write_text(io.dumps(doc))
        main(["waldhausen-check", str(path), "--dim", "2"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_unmarked_equivalence_is_a_violation():
    # drop the marking from the nontrivial automorphism of the 3-element set
    W = pointed_sets_waldhausen(3, 2)
    swap = next(
        e for e in W.cof
        if W.underlying.labels[e.gen][0] == (3, 3, (2, 1))
    )
    W_bad = WaldhausenData(W.underlying, W.zero, W.cof - {swap}, W.universe)
    rep = validate_waldhausen(W_bad)
    kinds = {v[0] for v in rep["violations"]}
    assert "equivalence-not-marked" in kinds


def _kinds(report):
    return sorted({v[0] for v in report["violations"]})


def test_a_zero_that_is_not_a_zero_object_is_a_violation():
    # in Ps<=2 the two-element set has two endomorphisms, so it is neither
    # initial nor terminal, and the maps out of it are not marked
    W = pointed_sets_waldhausen(2, 2)
    X = W.underlying
    two = SimplexKey(X.gen_of_label(2))
    rep = validate_waldhausen(WaldhausenData(X, two, W.cof, W.universe))
    assert _kinds(rep) == ["zero-edge-not-marked", "zero-not-initial", "zero-not-terminal"]
    assert [v[1] for v in rep["violations"][:2]] == [two, two]
    assert all(X.vertex(v[1], 0) == two for v in rep["violations"][2:])


def test_an_unmarked_edge_out_of_zero_is_a_violation():
    W = pointed_sets_waldhausen(2, 2)
    out_of_zero = {e for e in W.cof if W.underlying.vertex(e, 0) == W.zero}
    rep = validate_waldhausen(
        WaldhausenData(W.underlying, W.zero, W.cof - out_of_zero, W.universe))
    assert rep["violations"] == [("zero-edge-not-marked", e) for e in sorted(out_of_zero)]


def test_an_unmarked_pushout_leg_is_a_violation():
    # unmarking the point's inclusion into S^0 in Ps<=3: it is the leg of
    # pushouts along marked maps, and it leaves the zero object
    W = pointed_sets_waldhausen(3, 2)
    point_into_s0 = SimplexKey(W.underlying.gen_of_label(((1, 2, ()),)))
    rep = validate_waldhausen(
        WaldhausenData(W.underlying, W.zero, W.cof - {point_into_s0}, W.universe))
    assert _kinds(rep) == ["pushout-not-marked", "zero-edge-not-marked"]
    assert all(v[3] == point_into_s0 for v in rep["violations"] if v[0] == "pushout-not-marked")


class ParallelEdges(sx.Family):
    """Objects 0 and 1, two parallel edges f, g: 0 -> 1 and every triangle
    filled: an n-simplex is a monotone 0/1 vertex sequence with f or g
    chosen for each pair of its positions that goes from 0 to 1.  Simplices
    are determined by their edges, so inner horns fill; f and g are distinct
    homotopic edges, so this quasicategory is not a nerve."""

    def elements(self, n):
        out = []
        for a in range(n + 2):
            verts = (0,) * a + (1,) * (n + 1 - a)
            for labels in itertools.product("fg", repeat=a * (n + 1 - a)):
                it = iter(labels)
                out.append((verts, tuple(next(it) if verts[i] < verts[j] else "="
                                         for i, j in itertools.combinations(range(n + 1), 2))))
        return out

    def _pull(self, n, x, positions):
        verts, labels = x
        edge = dict(zip(itertools.combinations(range(n + 1), 2), labels))
        return (tuple(verts[p] for p in positions),
                tuple(edge.get((positions[i], positions[j]), "=")
                      for i, j in itertools.combinations(range(len(positions)), 2)))

    def face(self, n, x, i):
        return self._pull(n, x, [m for m in range(n + 1) if m != i])

    def degeneracy(self, n, x, i):
        return self._pull(n, x, sorted([*range(n + 1), i]))


def test_marking_one_of_two_homotopic_edges_is_a_violation():
    X = sx.MaterializedSSet(ParallelEdges(), 4)
    X.check()
    assert qc.is_quasicategory(X, 4)["ok"]
    zero = X.key_of(0, ((0,), ()))
    f, g = (X.key_of(1, ((0, 1), (c,))) for c in "fg")
    assert qc.homotopy_classes(X)[g] == qc.homotopy_classes(X)[f]
    rep = validate_waldhausen(WaldhausenData(X, zero, frozenset({f})))
    # the pushouts are found in the slice, since X has no category block
    assert rep["checks"]["pushouts_checked"] == 3
    assert rep["violations"] == [
        ("homotopy-closure", g),
        ("zero-not-terminal", X.key_of(0, ((1,), ()))),
        ("zero-edge-not-marked", g),
    ]


def test_marking_is_closed_under_edge_homotopy():
    for W in [pointed_sets_waldhausen(3, 2), pointed_sets_with_duplicate(2, 2)[0]]:
        cls = qc.homotopy_classes(W.underlying)
        marked_classes = {cls[e] for e in W.edges() if W.is_cof(e)}
        for e in W.edges():
            if cls[e] in marked_classes:
                assert W.is_cof(e)


def test_factorization_agrees_under_both_definitions():
    # the definitional test (every edge factors as cofibration then
    # equivalence) agrees with all-edges-marked on valid data
    W_all = maximal_marking_waldhausen(
        poset_category([0], lambda a, b: True), 0, 2)
    assert admits_factorization(W_all)
    W_partial = pointed_sets_waldhausen(3, 2)
    assert not admits_factorization(W_partial)
    Wd, _ = pointed_sets_with_duplicate(2, 2)
    assert not admits_factorization(Wd)


def test_six_for_two_for_equivalences_in_homotopy_categories():
    # whenever g.f and h.g are invertible in the homotopy category, all of
    # f, g, h (and hence all six composites) are invertible
    from qcatk.cats import cyclic_group_category

    instances = [
        nerve(cyclic_group_category(3), 2),
        pointed_sets_waldhausen(3, 2).underlying,
        pointed_sets_with_duplicate(2, 2)[0].underlying,
    ]
    triples = 0
    for X in instances:
        ho = qc.ho_category(X).cat
        for f in ho.morphisms:
            for g in ho.morphisms:
                if ho.src[g] != ho.tgt[f]:
                    continue
                for h in ho.morphisms:
                    if ho.src[h] != ho.tgt[g]:
                        continue
                    gf = ho.compose_mor(g, f)
                    hg = ho.compose_mor(h, g)
                    if ho.is_iso(gf) and ho.is_iso(hg):
                        triples += 1
                        assert ho.is_iso(f) and ho.is_iso(g) and ho.is_iso(h)
                        assert ho.is_iso(ho.compose_mor(h, gf))
    assert triples > 0


def test_cofibration_subquasicategory_is_one_full():
    W = pointed_sets_waldhausen(3, 2)
    co, incl = cof_subquasicategory(W, 2)
    assert len(co.gens(1)) == len(W.cof)
    incl.check()


SUBNERVE_CATEGORIES = {"ps2": pointed_sets_category(2), "ps3": pointed_sets_category(3),
                       "z4": cyclic_group_category(4), "idempotent": idempotent_monoid_category(),
                       "square": poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)}


def _random_marking(rng, C, close):
    marked = {m for m in C.morphisms if m not in C.id_set and rng.random() < 0.5}
    while close:
        new = {C.compose_mor(g, f) for f in marked for g in C.nonid_out(C.tgt[f])
               if g in marked} - marked - C.id_set
        marked |= new
        close = bool(new)
    return marked


def _ho_image(sub):
    """The homotopy category of a subcomplex, carried into X by its
    inclusion: identities, composites and isomorphisms."""
    S, incl = sub
    ho = qc.ho_category(S).cat
    return ({incl(v): incl(i) for v, i in ho.ids.items()},
            {(incl(g), incl(f)): incl(ho.compose_mor(g, f))
             for f in ho.morphisms for g in ho.morphisms if ho.src[g] == ho.tgt[f]},
            {incl(m) for m in ho.morphisms if ho.is_iso(m)})


def _cof_ho_outcome(G):
    try:
        return cof_ho_equivalence(G)
    except (ValueError, ss.NotQuasicategory) as exc:
        return type(exc).__name__, str(exc)


@given(st.integers(0, 10_000), st.sampled_from(["zoo", *sorted(SUBNERVE_CATEGORIES)]),
       st.booleans(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_the_subnerve_route_matches_the_face_scan(seed, source, close, d):
    rng = random.Random(seed)
    C = random_category(rng, 3) if source == "zoo" else SUBNERVE_CATEGORIES[source]
    if rng.random() < 0.3:
        C = C.opposite()
    X = nerve(C, 3)
    d = int(min(d, X.effective_bound()))
    marked = _random_marking(rng, C, close)
    keep = {SimplexKey(X.gen_of_label((m,))) for m in marked}
    # a refused identity sends the marking to the scan as well
    refuse = rng.random() < 0.1
    keep |= {e for e in X.simplices(1) if e.is_degenerate and not (refuse and rng.random() < 0.5)}
    got = one_full_subnerve(X, keep.__contains__, d)
    want = sx.one_full_subcomplex(X, keep.__contains__, d)
    assert image_rows(got) == image_rows(want)
    D = marked_subcategory(X, keep.__contains__)
    if close and all(e in keep for e in X.simplices(1) if e.is_degenerate):
        assert D is not None
    if D is None:
        assert io.serialize_sset(got[0]) == io.serialize_sset(want[0])
        assert got[1].assign == want[1].assign
    else:
        assert got[0].category.morphisms == D.morphisms
        assert got[0].category.after == D.after
        if d >= 2:
            assert _ho_image(got) == _ho_image(want)
    # cof_ho_equivalence from a random sub-marking to the marking, along the
    # identity of X, by the route and by the scan
    sub = {m for m in marked if rng.random() < 0.7}
    source_data = WaldhausenData(X, SimplexKey((0, 0)), frozenset(
        SimplexKey(X.gen_of_label((m,))) for m in sub))
    target_data = WaldhausenData(X, SimplexKey((0, 0)), frozenset(
        SimplexKey(X.gen_of_label((m,))) for m in marked))
    G = ExactFunctorData(ss.SimplicialMap.identity(X), source_data, target_data)
    got = _cof_ho_outcome(G)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(wd, "one_full_subnerve", sx.one_full_subcomplex)
        assert got == _cof_ho_outcome(G)


def test_one_iterate_checks_each_category_once(monkeypatch, tmp_path):
    # a passing check is remembered: the tabulated copy of a nerve's category
    # and a wide subcategory of a checked one are not checked again
    runs, kept = {}, []
    real_check = FinCategory.check

    def check(self):
        if not self._checked:
            kept.append(self)  # so that no id is reused
            runs[id(self)] = runs.get(id(self), 0) + 1
        return real_check(self)

    returned = []
    real_ho = qc.ho_category

    def ho_category(X):
        ho = real_ho(X)
        returned.append(ho.cat)
        return ho

    monkeypatch.setattr(FinCategory, "check", check)
    monkeypatch.setattr(qc, "ho_category", ho_category)
    path = tmp_path / "dup.json"
    path.write_text(io.dumps(io.serialize_exact(pointed_sets_with_duplicate(2, 2)[1])))
    assert main(["iterate", str(path), "--n", "2", "--out", str(tmp_path / "out.json")]) == 0
    assert len(returned) == 8
    assert runs and max(runs.values()) == 1
    assert all(cat._checked for cat in returned)


def cof_category_by_all_pairs(W):
    """Oracle for the cofibration category
    ``marked_subcategory(W.underlying, W.is_cof)``: closure tested over all
    marked pairs."""
    X = W.underlying
    C = X.category
    marked = {edge_morphism(C, X, e) for e in W.edges() if W.is_cof(e)} | C.id_set
    for f in marked:
        for g in marked:
            if C.src[g] == C.tgt[f] and C.compose_mor(g, f) not in marked:
                return None
    morphisms = [m for m in C.morphisms if m in marked]
    return table_category(
        C.objects, morphisms,
        {m: C.src[m] for m in morphisms}, {m: C.tgt[m] for m in morphisms},
        C.ids, comp_table(C),
    )


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=80, deadline=None)
def test_cof_category_matches_the_all_pairs_closure(seed, close):
    rng = random.Random(seed)
    C = random_category(rng, 4)
    if rng.random() < 0.3:
        C = C.opposite()
    N = nerve(C, 2)
    marked = _random_marking(rng, C, close)
    cof = frozenset(SimplexKey(N.gen_of_label((m,))) for m in marked)
    W = WaldhausenData(N, SimplexKey((0, 0)), cof)
    got, want = marked_subcategory(W.underlying, W.is_cof), cof_category_by_all_pairs(W)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.objects == want.objects
        assert got.morphisms == want.morphisms
        assert [list(r.items()) for r in got.after] == [list(r.items()) for r in want.after]


def _square_on_corners(N):
    """The square Delta[1] x Delta[1] -> N of the poset nerve N with corners
    0, 1, 2 and 3: 0 -> 1 and 0 -> 2 span it, 3 is its tip."""
    P = sx.product(sx.delta(1), sx.delta(1), 2).sset
    d1 = sx.delta(1)
    corner = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}

    def key_for(verts):
        labels = [corner[v] for v in verts]
        for k in N.simplices(len(verts) - 1):
            if [N.labels[w.gen] for w in N.vertices(k)] == labels:
                return k
        raise AssertionError(verts)

    assign = {}
    for g in P.all_gens():
        ka, kb = P.labels[g]
        verts = [
            (d1.labels[x.gen][0], d1.labels[y.gen][0])
            for x, y in zip(d1.vertices(ka), d1.vertices(kb))
        ]
        assign[g] = key_for(verts)
    square = ss.SimplicialMap(P, N, assign)
    square.check()
    return square


def test_pushout_square_is_homotopy_cocartesian():
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    W = maximal_marking_waldhausen(C, 0, 2)
    assert stm.homotopy_cocartesian_check(W, _square_on_corners(W.underlying))


def test_a_square_with_no_marked_leg_is_not_checked_for_a_colimit():
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    N = maximal_marking_waldhausen(C, 0, 2).underlying
    W = WaldhausenData(N, SimplexKey(N.gen_of_label(0)), frozenset())
    assert stm.homotopy_cocartesian_check(W, _square_on_corners(N)) is False


def test_a_shallow_square_without_a_category_block_exceeds_the_bound():
    # at bound 2 only the 1-categorical fallback could decide the square,
    # and it needs the category
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    W = maximal_marking_waldhausen(C, 0, 2)
    N = W.underlying
    X = ss.SimplicialSet(N.n_gens, N.faces, labels=N.labels, bound=N.bound)
    V = WaldhausenData(X, W.zero, W.cof)
    with pytest.raises(ss.BoundExceeded) as exc:
        stm.homotopy_cocartesian_check(V, _square_on_corners(X))
    assert str(exc.value) == "square check needs dimension 4"


# 0 below everything, 1 and 2 below 3; with a fifth element 4 above 1 and 2
# as well, 3 is not the least upper bound, so the square is not a pushout
_PUSHOUT = (4, lambda a, b: a == b or a == 0 or b == 3, True)
_TWO_UPPER_BOUNDS = (5, lambda a, b: a == b or a == 0 or (a in (1, 2) and b in (3, 4)), False)


@pytest.mark.parametrize("size, leq, want", [_PUSHOUT, _TWO_UPPER_BOUNDS],
                         ids=["pushout", "two-upper-bounds"])
def test_both_routes_of_the_cocartesian_check_agree(monkeypatch, size, leq, want):
    # at bound 2 the nerve is too shallow for the slice, so the check takes
    # the 1-categorical fallback; at bound 4 the nerve is complete and the
    # check decides initiality in the slice under the span
    initiality = []
    is_initial = stm.js.is_initial

    def spy(*args):
        initiality.append(args)
        return is_initial(*args)

    monkeypatch.setattr(stm.js, "is_initial", spy)
    C = poset_category(range(size), leq)
    verdicts = {}
    for bound in (2, 4):
        W = maximal_marking_waldhausen(C, 0, bound)
        verdicts[bound] = stm.homotopy_cocartesian_check(W, _square_on_corners(W.underlying))
        assert bool(initiality) == (bound == 4)
    assert verdicts == {2: want, 4: want}


def _simplex_with_vertices(S, verts):
    """The oracle for the square's vertex-path keys: scan the simplices of
    S for the first with the given vertex sequence."""
    n = len(verts) - 1
    for k in S.simplices(n):
        if list(S.vertices(k)) == list(verts):
            return k
    raise ValueError("no simplex with the requested vertex sequence")


def test_square_path_keys_match_the_vertex_scan():
    S = sx.product(sx.delta(1), sx.delta(1), 2).sset
    A, B = S.family.X, S.family.Y
    corners = list(itertools.product((0, 1), repeat=2))

    def vertex(p):
        ka = SimplexKey(A.gen_of_label((p[0],)))
        kb = SimplexKey(B.gen_of_label((p[1],)))
        return S.key_of(0, (ka, kb))

    paths = [
        path
        for n in range(3)
        for path in itertools.product(corners, repeat=n + 1)
        if all(p <= q for a, b in zip(path, path[1:]) for p, q in zip(a, b))
    ]
    assert len(paths) == 29
    for path in paths:
        oracle = _simplex_with_vertices(S, [vertex(p) for p in path])
        assert stm.product_path_key(S, A, B, path) == oracle


def test_exact_map_validation_and_reflection():
    Wd, G = pointed_sets_with_duplicate(3, 2)
    rep = validate_exact(G)
    assert rep["ok"]
    assert reflects_cofibrations(G)["reflects"]
    assert cof_ho_equivalence(G)["equivalence"]


def test_exact_maps_must_preserve_the_zero_and_the_cofibrations():
    _, G = pointed_sets_with_duplicate(2, 2)
    T = G.target
    other = next(v for v in T.underlying.simplices(0) if v != T.zero)
    moved = ExactFunctorData(G.themap, G.source,
                             WaldhausenData(T.underlying, other, T.cof, T.universe))
    assert validate_exact(moved)["violations"] == [("zero-not-preserved", T.zero)]
    unmarked = ExactFunctorData(G.themap, G.source,
                                WaldhausenData(T.underlying, T.zero, frozenset(), T.universe))
    rep = validate_exact(unmarked)
    assert _kinds(rep) == ["cofibration-not-preserved"]
    assert [v[1] for v in rep["violations"]] == [e for e in G.source.edges() if e in G.source.cof]


def test_non_reflecting_map_is_detected():
    W = pointed_sets_waldhausen(2, 2)
    C = W.underlying.category
    W_all = nerve_waldhausen(C, 1, list(C.morphisms), 2,
                             universe={"bounded": True, "note": "all marked"})
    N = W.underlying
    ident = ss.SimplicialMap(N, W_all.underlying,
                             {g: SimplexKey(g) for g in N.all_gens()})
    G = ExactFunctorData(ident, W, W_all)
    rep = reflects_cofibrations(G)
    assert not rep["reflects"]
    assert rep["witness"] is not None


def pointed_poset(elements, leq):
    """A poset with a zero object "0" adjoined: besides ("le", x, y) for
    x <= y, every ordered pair of objects has the zero map ("z", x, y), and
    a composite through a zero map is zero."""
    objects = ["0", *elements]
    morphisms = [("z", x, y) for x in objects for y in objects]
    morphisms += [("le", x, y) for x in elements for y in elements if leq(x, y)]
    src = {m: m[1] for m in morphisms}
    tgt = {m: m[2] for m in morphisms}
    ids = {x: ("le", x, x) for x in elements}
    ids["0"] = ("z", "0", "0")
    return FinCategory.tabulate(
        objects, morphisms, src, tgt, ids,
        lambda g, f: ("le" if f[0] == g[0] == "le" else "z", f[1], g[2]))


def pushout_breaking_inclusion():
    """An exact-map input that preserves zero and every cofibration but not
    the pushout of b <- a -> c.  The source is the diamond a <= b, c <= d,
    where d is the join of b and c; the target adds a second upper bound e
    of b and c, not comparable with d, so the square at d is no longer a
    pushout.  Cofibrations are the order relations and the maps out of
    zero; the source passes ``validate_waldhausen``."""
    def leq_source(x, y):
        return x == y or x == "a" or y == "d"

    def leq_target(x, y):
        if "e" in (x, y):
            return x == y or x in "abc" and y == "e"
        return leq_source(x, y)

    S = pointed_poset("abcd", leq_source)
    T = pointed_poset("abcde", leq_target)
    F = FinFunctor(S, T, {o: o for o in S.objects}, {m: m for m in S.morphisms})
    F.check()

    def waldhausen(C):
        marked = [m for m in C.morphisms if m[0] == "le" or m[1] == "0"]
        return nerve_waldhausen(C, "0", marked, 2)

    WS, WT = waldhausen(S), waldhausen(T)
    themap = nerve_functor_map(F, WS.underlying, WT.underlying)
    return ExactFunctorData(themap, WS, WT)


def test_a_pushout_that_is_not_preserved_is_a_violation():
    G = pushout_breaking_inclusion()
    f, g = ("le", "a", "b"), ("le", "a", "c")
    CS, CT = G.source.underlying.category, G.target.underlying.category
    assert CS.pushout(f, g) == ("d", ("le", "b", "d"), ("le", "c", "d"))
    assert CT.pushout(f, g) is None
    assert validate_waldhausen(G.source)["ok"]
    rep = validate_exact(G)
    assert not rep["ok"]
    assert ("pushout-not-preserved", f, g) in rep["violations"]
    assert {v[0] for v in rep["violations"]} == {"pushout-not-preserved"}


@pytest.mark.parametrize("argv", [["validate"], ["approx"], ["iterate", "--n", "1"]])
def test_commands_report_a_pushout_that_is_not_preserved(tmp_path, capsys, argv):
    path = tmp_path / "exact.json"
    path.write_text(io.dumps(io.serialize_exact(pushout_breaking_inclusion())))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    rep = json.loads(capsys.readouterr().out)
    violations = rep["hypotheses"]["exact_violations"] if argv[0] == "approx" \
        else rep["exact"]["violations"]
    assert ["pushout-not-preserved", repr(("le", "a", "b")), repr(("le", "a", "c"))] \
        in violations


@pytest.mark.parametrize("stripped", [(), ("target",), ("source", "target")])
def test_validate_says_whether_pushout_preservation_was_tested(tmp_path, capsys, stripped):
    # without both category blocks the squares cannot be tested, so a pass
    # says so with a null count instead of an empty list alone
    doc = io.serialize_exact(pushout_breaking_inclusion())
    for side in stripped:
        del doc[side]["sset"]["category"]
    path = tmp_path / "exact.json"
    path.write_text(io.dumps(doc))
    code = main(["validate", str(path)])
    rep = json.loads(capsys.readouterr().out)["exact"]
    if stripped:
        assert (code, rep["violations"], rep["pushouts_checked"]) == (0, [], None)
    else:
        assert code == 1 and len(rep["violations"]) == 2
        assert rep["pushouts_checked"] == 79


# ---------------------------------------------------------------------------
# factorization from the nondegenerate 2-simplices


def admits_factorization_by_scanning(W):
    """The definitional form by a scan of every 2-simplex, the degenerate
    ones included, for one with boundary (equivalence, f, cofibration)."""
    X = W.underlying
    ho = qc.ho_category(X)
    return all(
        any(X.face(t, 1) == f and W.is_cof(X.face(t, 2))
            and ho.cat.is_iso(ho.cls(X.face(t, 0))) for t in X.simplices(2))
        for f in W.edges())


def _all_marked(W):
    return all(W.is_cof(e) for e in W.edges())


def random_marking(seed):
    """A nerve of a random category or its opposite with each nondegenerate
    edge marked at a random rate: none, some or all."""
    rng = random.Random(seed)
    C = random_category(rng, 4)
    N = nerve(C.opposite() if rng.random() < 0.5 else C, 2)
    rate = rng.choice([0.0, 0.5, 0.9, 1.0])
    cof = frozenset(SimplexKey(g) for g in N.gens(1) if rng.random() < rate)
    return WaldhausenData(N, SimplexKey((0, 0)), cof)


FACTORIZATION_FIXED = {
    "ps2": pointed_sets_waldhausen(2, 2),
    "ps3": pointed_sets_waldhausen(3, 2),
    "dup22": pointed_sets_with_duplicate(2, 2)[1],
    "dup23": pointed_sets_with_duplicate(2, 3)[1],
    "all": maximal_marking_waldhausen(poset_category([0, 1], lambda a, b: True), 0, 2),
}


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_factorization_matches_the_scanning_oracle(seed):
    W = random_marking(seed)
    assert admits_factorization(W) == admits_factorization_by_scanning(W)


def _fixed_factorization_data(name):
    data = FACTORIZATION_FIXED[name]
    return [data.source, data.target] if isinstance(data, ExactFunctorData) else [data]


@pytest.mark.parametrize("name", sorted(FACTORIZATION_FIXED))
def test_factorization_on_fixed_data_matches_the_scanning_oracle(name):
    for W in _fixed_factorization_data(name):
        assert admits_factorization(W) == admits_factorization_by_scanning(W)


def test_the_factorization_inputs_reach_every_outcome():
    markings = [random_marking(s) for s in range(40)]
    assert {admits_factorization(W) for W in markings} == {True, False}
    # invalid data on which the definitional and all-marked forms differ
    assert any(admits_factorization(W) != _all_marked(W) for W in markings)


def test_both_factorization_forms_agree_on_valid_data():
    valid = [W for s in range(120) for W in [random_marking(s)]
             if not validate_waldhausen(W, 2)["violations"]]
    valid += [W for name in sorted(FACTORIZATION_FIXED) for W in _fixed_factorization_data(name)]
    assert {_all_marked(W) for W in valid} == {True, False}
    for W in valid:
        assert not validate_waldhausen(W, 2)["violations"]
        assert admits_factorization(W) == _all_marked(W)
