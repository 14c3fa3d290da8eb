"""Quasicategory recognition, homotopy classes of edges, homotopy categories,
equivalence edges, and mapping spaces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import io
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    monoid_category,
    nerve,
    one_full_subnerve,
    nerve_functor_map,
    pointed_sets_category,
)
from qcatk.ssets import NotQuasicategory, SimplexKey, UnionFind
from qcatk.waldhausen import WaldhausenData, admits_factorization
from qcatk.zoo import idempotent_monoid_category, indiscrete_category, random_category
from test_lifting import kronecker_with_homotopy
from testlib import (
    chain_poset,
    ho_equals_category,
    ill_defined_composition_set,
    non_associative_set,
    table_category,
)


def test_nerves_are_quasicategories():
    for C in [chain_poset(2), cyclic_group_category(3), idempotent_monoid_category()]:
        rep = qc.is_quasicategory(nerve(C, 2), 2)
        assert rep["ok"]


def test_horn_is_not_a_quasicategory():
    rep = qc.is_quasicategory(sx.horn(2, 1), 2)
    assert not rep["ok"]
    assert rep["failures"]


def test_homotopy_classes_in_an_indiscrete_nerve_collapse():
    N = nerve(indiscrete_category(range(2)), 2)
    cls = qc.homotopy_classes(N)
    # all four edges between the same endpoints in the same class as the
    # identity when endpoints agree; parallel edges are homotopic
    e1 = SimplexKey(N.gen_of_label(((0, 1),)))
    for g in N.gens(1):
        e = SimplexKey(g)
        same_ends = (N.vertex(e, 0), N.vertex(e, 1)) == (
            N.vertex(e1, 0), N.vertex(e1, 1))
        assert (cls[e] == cls[e1]) == same_ends


def test_homotopy_classes_in_a_group_nerve_stay_distinct():
    N = nerve(cyclic_group_category(3), 2)
    cls = qc.homotopy_classes(N)
    edges = {cls[k] for k in N.simplices(1)}
    assert len(edges) == 3


def test_homotopy_category_of_a_nerve_is_the_category():
    C = cyclic_group_category(3)
    assert ho_equals_category(nerve(C, 2), C)


def test_fundamental_category_presentation_shape():
    N = nerve(chain_poset(2), 2)
    pres = qc.tau1_presentation(N)
    assert len(pres["objects"]) == 3
    assert len(pres["generators"]) == 3
    assert len(pres["relations"]) == 1


def test_equivalence_edges_of_a_monoid_nerve():
    N = nerve(idempotent_monoid_category(), 2)
    ho = qc.ho_category(N)
    e = SimplexKey(N.gen_of_label(("e",)))
    assert not ho.cat.is_iso(ho.cls(e))
    ident = N.degeneracy(SimplexKey(N.gen_of_label("*")), 0)
    assert ho.cat.is_iso(ho.cls(ident))


def test_maximal_kan_subcomplex_of_a_poset_nerve_is_discrete():
    N = nerve(chain_poset(2), 2)
    K, _ = qc.maximal_kan(N, 2)
    assert len(K.gens(0)) == 3
    assert len(K.gens(1)) == 0


def test_maximal_kan_subcomplex_of_a_group_nerve_is_everything():
    N = nerve(cyclic_group_category(2), 2)
    K, _ = qc.maximal_kan(N, 2)
    assert K.n_gens == N.n_gens


def test_mapping_space_vertices_are_edges():
    N = nerve(cyclic_group_category(3), 3)
    v = SimplexKey(N.gen_of_label("*"))
    M = qc.mapping_space(N, v, v, 1)
    assert len(M.gens(0)) == 3


def test_internal_hom_vertices_count_maps():
    N = nerve(cyclic_group_category(3), 3)
    H = qc.internal_hom(sx.delta(1), N, 1)
    assert len(H.gens(0)) == 3


def test_homotopy_functor_equivalence_verdicts():
    # an isomorphism of nerves is an equivalence
    C = cyclic_group_category(2)
    N = nerve(C, 2)
    ident = ss.SimplicialMap(N, N, {g: SimplexKey(g) for g in N.all_gens()})
    rep = qc.tau1_map_equivalence(ident)
    assert rep["equivalence"]
    # collapsing an indiscrete groupoid to the point is an equivalence
    I2 = indiscrete_category(range(2))
    P = chain_poset(0)
    F = FinFunctor(I2, P, {o: 0 for o in I2.objects},
                   {m: P.ids[0] for m in I2.morphisms})
    F.check()
    rep = qc.tau1_map_equivalence(nerve_functor_map(F, nerve(I2, 2), nerve(P, 2)))
    assert rep["equivalence"] and rep["essentially_surjective"]
    # an endpoint inclusion into the interval is not
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 0)
    rep = qc.tau1_map_equivalence(inc)
    assert not rep["equivalence"]
    assert not rep["essentially_surjective"]


# ---------------------------------------------------------------------------
# the homotopy category from the nondegenerate 2-simplices


def test_two_composite_classes_make_composition_ill_defined():
    # the edges a, b, c, c2 are named 1.0 to 1.3, as in the set's file
    X, _ = ill_defined_composition_set()
    with pytest.raises(ValueError) as exc:
        qc.ho_category(X)
    assert str(exc.value) == "composition ill-defined on classes 1.0, 1.1: [1.2, 1.3]"


def test_a_degenerate_class_is_named_with_its_degeneracies():
    # a: 0 -> 1 and b: 1 -> 0 compose both to the identity of 0 and to a
    # loop c at 0
    v, (a, b, c) = SimplexKey((0, 0)), (SimplexKey((1, i)) for i in range(3))
    X = ss.SimplicialSet([2, 3, 2], {(1, 0): (SimplexKey((0, 1)), v),
                                     (1, 1): (v, SimplexKey((0, 1))),
                                     (1, 2): (v, v),
                                     (2, 0): (b, SimplexKey((0, 0), (0,)), a),
                                     (2, 1): (b, c, a)}, bound=2)
    X.check()
    with pytest.raises(ValueError) as exc:
        qc.ho_category(X)
    assert str(exc.value) == 'composition ill-defined on classes 1.0, 1.1: [["0.0", [0]], 1.2]'


def test_the_boundary_of_a_triangle_has_no_homotopy_category():
    B = sx.boundary(2)
    first, second = (SimplexKey(B.gen_of_label(ends)) for ends in [(0, 1), (1, 2)])
    with pytest.raises(NotQuasicategory) as exc:
        qc.ho_category(B)
    assert exc.value.witness == (first, second)


def homotopy_classes_by_all_simplices(X):
    """Left homotopy over every 2-simplex, degenerate ones included, with the
    minimal edge of each class picked in a separate pass."""
    X.require_bound(2, "edge homotopy")
    uf = UnionFind()
    for e in X.simplices(1):
        uf.find(e)
    for t in X.simplices(2):
        if X.face(t, 0).is_degenerate:
            uf.union(X.face(t, 1), X.face(t, 2))
    out = {e: uf.find(e) for e in X.simplices(1)}
    reps = {}
    for e in sorted(out):
        reps.setdefault(out[e], min(e, reps.get(out[e], e)))
    return {e: reps[r] for e, r in out.items()}


def ho_category_by_all_simplices(X):
    """The homotopy category from every 2-simplex: one set of composite
    classes per pair, then the identity laws.  Returns (category, classes)."""
    X.require_bound(2, "homotopy category")
    cls = homotopy_classes_by_all_simplices(X)
    objects = X.simplices(0)
    morphisms = sorted(set(cls.values()))
    src = {m: X.vertex(m, 0) for m in morphisms}
    tgt = {m: X.vertex(m, 1) for m in morphisms}
    ids = {v: cls[X.degeneracy(v, 0)] for v in objects}
    found = {}
    for t in X.simplices(2):
        a, b = cls[X.face(t, 2)], cls[X.face(t, 0)]
        found.setdefault((b, a), set()).add(cls[X.face(t, 1)])
    comp = {}
    for f in morphisms:
        for g in (m for m in morphisms if src[m] == tgt[f]):
            got = found.get((g, f), set())
            if not got:
                raise NotQuasicategory(
                    f"no composite found for {named(X, f)} then {named(X, g)}", witness=(f, g))
            if len(got) > 1:
                raise ValueError(f"composition ill-defined on classes {named(X, f)}, "
                                 f"{named(X, g)}: [{', '.join(named(X, h) for h in sorted(got))}]")
            comp[(g, f)] = next(iter(got))
    for f in morphisms:
        if comp[(ids[tgt[f]], f)] != f or comp[(f, ids[src[f]])] != f:
            raise ValueError(f"identity law fails in homotopy category at {f}")
    # every composable non-identity triple, f-major, then g and h in order
    nonid = [m for m in morphisms if m not in ids.values()]
    for f in nonid:
        for g in (m for m in nonid if src[m] == tgt[f]):
            for h in (m for m in nonid if src[m] == tgt[g]):
                if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                    raise ValueError(f"associativity fails at "
                                     f"{named(X, f)}, {named(X, g)}, {named(X, h)}")
    return table_category(objects, morphisms, src, tgt, ids, comp), cls


def named(X, k):
    """A key as X's file names it."""
    return io.key_names(X, [k])[0]


def _ho_outcome(route, X):
    try:
        cat, cls = route(X)
    except NotQuasicategory as exc:
        return "not-quasicategory", str(exc), exc.witness
    except ValueError as exc:
        return "ill-defined", str(exc)
    return ("category", list(cls.items()), cat.objects, cat.morphisms,
            list(cat.ids.items()), [list(row.items()) for row in cat.after])


def _ho_by_generators(X):
    ho = qc.ho_category(X)
    return ho.cat, ho.class_of


def _with_rows(N, rows, keep=None):
    """N's vertices and edges, the 2-simplices of N in ``keep`` (all by
    default) and further 2-simplices given by face rows; bound 2."""
    kept = N.gens(2) if keep is None else keep
    faces = {g: N.faces[g] for g in N.gens(1)}
    rows = [N.faces[g] for g in kept] + list(rows)
    faces.update({(2, i): row for i, row in enumerate(rows)})
    return ss.SimplicialSet([len(N.gens(0)), len(N.gens(1)), len(rows)], faces, bound=2)


def _random_rows(N, rng, k):
    """k rows (b, c, a) on composable edges a, b and an edge c parallel to
    their composite, degenerate edges included."""
    edges = N.simplices(1)
    rows = []
    for _ in range(k):
        a = rng.choice(edges)
        b = rng.choice([e for e in edges if N.vertex(e, 0) == N.vertex(a, 1)])
        c = rng.choice([e for e in edges if N.vertex(e, 0) == N.vertex(a, 0)
                        and N.vertex(e, 1) == N.vertex(b, 1)])
        rows.append((b, c, a))
    return rows


def ho_input(seed, kind):
    rng = random.Random(seed)
    C = random_category(rng, 4)
    N = nerve(C.opposite() if rng.random() < 0.5 else C, 2)
    if kind == "nerve":
        return N
    if kind == "extra":
        return _with_rows(N, _random_rows(N, rng, rng.randint(1, 3)))
    return _with_rows(N, [], [g for g in N.gens(2) if rng.random() < 0.7])


HO_KINDS = ["nerve", "extra", "dropped"]
HO_FIXED = {"horn21": sx.horn(2, 1), "boundary2": sx.boundary(2),
            "kronecker_with_homotopy": kronecker_with_homotopy(),
            "non_associative": non_associative_set()[0]}


@given(st.integers(0, 10_000), st.sampled_from(HO_KINDS))
@settings(max_examples=120, deadline=None)
def test_ho_category_matches_the_all_simplices_oracle(seed, kind):
    X = ho_input(seed, kind)
    assert _ho_outcome(_ho_by_generators, X) == _ho_outcome(ho_category_by_all_simplices, X)


@pytest.mark.parametrize("name", sorted(HO_FIXED))
def test_ho_category_on_fixed_inputs_matches_the_all_simplices_oracle(name):
    X = HO_FIXED[name]
    assert _ho_outcome(_ho_by_generators, X) == _ho_outcome(ho_category_by_all_simplices, X)


def test_the_oracle_inputs_reach_every_outcome():
    outcomes = {_ho_outcome(_ho_by_generators, X)[0] for X in HO_FIXED.values()}
    outcomes |= {_ho_outcome(_ho_by_generators, ho_input(seed, kind))[0]
                 for seed in range(20) for kind in HO_KINDS}
    assert outcomes == {"category", "not-quasicategory", "ill-defined"}


def test_homotopy_classes_match_the_all_simplices_oracle():
    for X in list(HO_FIXED.values()) + [ho_input(s, k) for s in range(10) for k in HO_KINDS]:
        assert list(qc.homotopy_classes(X).items()) == \
            list(homotopy_classes_by_all_simplices(X).items())


def without_category(X):
    """X as a plain simplicial set: the same generators, faces, labels and
    bound, so ``ho_category`` takes its generic route."""
    return ss.SimplicialSet(X.n_gens, X.faces, labels=X.labels, bound=X.bound)


NERVE_CATEGORIES = {"chain3": chain_poset(3), "z4": cyclic_group_category(4),
                    "idempotent": idempotent_monoid_category(),
                    "ps2": pointed_sets_category(2), "indiscrete3": indiscrete_category(range(3)),
                    "chain1xz2": chain_poset(1).product(cyclic_group_category(2))}


def _nerve_route_outcome(monkeypatch, X):
    """``ho_category`` on the nerve X, with union-find refused."""
    def refuse():
        raise AssertionError("the nerve route built a union-find")

    with monkeypatch.context() as m:
        m.setattr(qc, "UnionFind", refuse)
        return _ho_outcome(_ho_by_generators, X)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("name", sorted(NERVE_CATEGORIES))
def test_ho_category_of_a_catalogue_nerve_matches_the_generic_route(monkeypatch, name, bound):
    X = nerve(NERVE_CATEGORIES[name], bound)
    got = _nerve_route_outcome(monkeypatch, X)
    assert got[0] == "category"
    assert got == _ho_outcome(_ho_by_generators, without_category(X))


@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_ho_category_of_a_zoo_nerve_matches_the_generic_route(seed, bound):
    rng = random.Random(seed)
    C = random_category(rng, 3)
    X = nerve(C.opposite() if rng.random() < 0.5 else C, bound)
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = _nerve_route_outcome(monkeypatch, X)
    assert got == _ho_outcome(_ho_by_generators, without_category(X))


def test_ho_category_of_a_non_associative_nerve_names_the_edges():
    # a monoid table whose identity laws hold and associativity fails: the
    # nerve's category is checked in place of its relabelled copy, and the
    # witness is named by its edges
    table = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "1", ("b", "b"): "b"}
    M = monoid_category(["1", "a", "b"], lambda g, f: table.get((g, f), g if f == "1" else f),
                        "1")
    X = nerve(M, 2)
    with pytest.raises(ValueError) as law:
        M.check()
    names = io.key_names(X, [SimplexKey(X.gen_of_label((m,))) for m in law.value.witness])
    with pytest.raises(ValueError) as got:
        qc.ho_category(X)
    assert str(got.value) == f"associativity fails at {', '.join(names)}"
    with pytest.raises(ValueError) as generic:
        qc.ho_category(without_category(X))
    assert str(generic.value).startswith("associativity fails at ")
    # a wide subcategory of a category that has not passed is checked itself
    S, _ = one_full_subnerve(X, lambda e: True, 2)
    assert S.category is not None
    with pytest.raises(ValueError, match="associativity fails at "):
        qc.ho_category(S)


def test_ho_category_of_a_nerve_checks_the_identity_laws_of_its_category():
    # the copy's rule takes a composite with an identity to be the other
    # edge; C's own check finds that its table says otherwise
    M = monoid_category(["1", "a"], lambda g, f: "1" if (g, f) == ("1", "a") else
                        (g if f == "1" else f if g == "1" else "a"), "1")
    with pytest.raises(ValueError, match="left identity fails at 'a'"):
        qc.ho_category(nerve(M, 2))


def spy_on_simplices(monkeypatch):
    """Record the dimension of every ``SimplicialSet.simplices`` call."""
    calls = []
    real = ss.SimplicialSet.simplices

    def spy(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(ss.SimplicialSet, "simplices", spy)
    return calls


@pytest.mark.parametrize("X", [nerve(cyclic_group_category(3), 2), kronecker_with_homotopy()],
                         ids=["nerve", "kronecker_with_homotopy"])
def test_homotopy_categories_read_no_list_of_2_simplices(monkeypatch, X):
    W = WaldhausenData(X, SimplexKey((0, 0)), frozenset(SimplexKey(g) for g in X.gens(1)))
    calls = spy_on_simplices(monkeypatch)
    qc.homotopy_classes(X)
    qc.ho_category(X)
    assert admits_factorization(W)
    assert calls and 2 not in calls
