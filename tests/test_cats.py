"""Finite categories, functors, nerves, and the fundamental category."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import families as fm
from qcatk import fincat
from qcatk import io
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import zoo
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    full_subcategory,
    functor_equivalence_report,
    functor_from_nerve_map,
    groupoid_core,
    map_category,
    nerve,
    nerve_functor_map,
    pointed_sets_category,
    poset_category,
    wide_subcategory,
)
from qcatk.fincat import FinCategory, nerve_face_rows
from qcatk.sconstruction import ar_poset, f_n, s_n, s_structure_functor
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import pointed_sets_waldhausen
from qcatk.zoo import (
    idempotent_monoid_category,
    pointed_sets_with_duplicate,
    random_category,
    random_poset,
)
from testlib import (
    chain_poset,
    comp_table,
    disjoint_union_comp_by_pairs,
    duplicate_comp_by_pairs,
    ho_equals_category,
    join_comp_by_target_index,
    monoid_comp_by_pairs,
    pointed_sets_comp_by_pairs,
    poset_comp_by_pairs,
    product_comp_by_target_index,
    slice_category,
    string_route_nerve,
    table_category,
)


# ---------------------------------------------------------------------------
# category laws


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_randomly_generated_categories_satisfy_the_laws(seed):
    rng = random.Random(seed)
    C = random_category(rng, 4)
    C.check()


def test_catalogue_categories_satisfy_the_laws():
    for C in [chain_poset(3), cyclic_group_category(4),
              idempotent_monoid_category(), pointed_sets_category(3)]:
        C.check()


def test_pointed_sets_category_counts():
    C = pointed_sets_category(3)
    # skeletal pointed sets of sizes 1..3: based maps m -> n are n^(m-1)
    assert len(C.objects) == 3
    assert len(C.morphisms) == sum(
        n ** (m - 1) for m in (1, 2, 3) for n in (1, 2, 3)
    )


def test_join_and_product_of_categories():
    A, B = chain_poset(1), chain_poset(1)
    J = A.join(B)
    assert len(J.objects) == 4
    assert len(J.morphisms) == 3 + 3 + 4  # both parts plus one cross map per pair
    P = A.product(B)
    assert len(P.objects) == 4
    assert len(P.morphisms) == 9
    J.check()
    P.check()


def _tabulated_and_by_pairs():
    """(name, category, its table by the pair-loop oracle) for every
    constructor that tabulates a composite rule.  dup(2, 2) and dup(2, 3)
    share the category duplicated from pointed sets of size <= 2."""
    out = [(f"ar{n}", P, poset_comp_by_pairs(P)) for n in range(4) for P in [ar_poset(n)]]
    out += [(f"ps{k}", P, pointed_sets_comp_by_pairs(P))
            for k in (1, 2, 3) for P in [pointed_sets_category(k)]]
    out += [(f"z{k}", M, monoid_comp_by_pairs(M, lambda a, b, k=k: (a + b) % k))
            for k in (2, 3) for M in [cyclic_group_category(k)]]
    E = idempotent_monoid_category()
    out.append(("idem", E, monoid_comp_by_pairs(E, lambda a, b: "e" if "e" in (a, b) else "1")))
    for seed in range(12):
        rng = random.Random(seed)
        P = random_poset(rng, rng.randint(1, 4))
        out.append((f"poset{seed}", P, poset_comp_by_pairs(P)))
        C, D = random_category(rng, 4), random_category(rng, 3)
        for tag, A, B in [("", C, D), ("op", C.opposite(), D), ("op2", C, D.opposite())]:
            X, J, U = A.product(B), A.join(B), zoo._disjoint_union(A, B)
            out += [(f"product{tag}{seed}", X, product_comp_by_target_index(A, B, X)),
                    (f"join{tag}{seed}", J, join_comp_by_target_index(A, B, J)),
                    (f"union{tag}{seed}", U, disjoint_union_comp_by_pairs(A, B, U))]
    for k in (2, 3):
        C = pointed_sets_category(k)
        D, _ = zoo._duplicate_object(C, 2, "dup2")
        out.append((f"dup{k}", D, duplicate_comp_by_pairs(C, D)))
    return out


def test_tabulated_constructors_match_their_pair_loops():
    # every category of the table corpus, diagram levels too
    for C, table in _table_corpus():
        assert_composites_follow(C, table)
        C.check()


# ---------------------------------------------------------------------------
# pushouts


def test_pushout_in_a_poset_is_the_maximum():
    C = poset_category(range(4), lambda a, b: a == b or a == 0 or b == 3)
    f = (0, 1)
    g = (0, 2)
    po = C.pushout(f, g)
    assert po is not None
    d, i, j = po
    assert d == 3


def test_pushout_absent_in_a_discrete_span():
    C = poset_category(range(3), lambda a, b: a == b or a == 0)
    # 1 <- 0 -> 2 has no cocone at all beyond... actually no object above 1,2
    assert C.pushout((0, 1), (0, 2)) is None


# ---------------------------------------------------------------------------
# nerves


def test_nerve_generator_counts_of_a_group():
    N = nerve(cyclic_group_category(3), 3)
    # nondegenerate strings of non-identity elements: 2^n at level n
    assert N.n_gens == [1, 2, 4, 8]
    N.check()


def test_nerve_of_a_chain_poset():
    N = nerve(chain_poset(2), 2)
    assert N.n_gens == [3, 3, 1]
    assert sx.iso_check(N, sx.delta(2), 2) is not None


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fundamental_category_of_a_nerve_recovers_the_category(seed):
    rng = random.Random(seed)
    C = random_category(rng, 4)
    assert ho_equals_category(nerve(C, 2), C)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_nerve_commutes_with_joins_of_posets(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 3))
    Q = random_poset(rng, rng.randint(1, 3))
    d = len(P.objects) + len(Q.objects) - 1
    NJ = nerve(P.join(Q), d)
    JN = fm.join(nerve(P, d), nerve(Q, d), d).sset
    assert sx.iso_check(NJ, JN, d) is not None


def assert_layers_in_repr_order(N):
    for n in range(N.top_dim + 1):
        layer = [N.labels[g] for g in N.gens(n)]
        assert layer == sorted(layer, key=repr)


def two_step_category(firsts, seconds):
    """Objects x, y, z, the given morphisms x -> y and y -> z, and one
    tuple-valued composite x -> z per pair."""
    ids = {o: "1" + o for o in "xyz"}
    morphisms = list(ids.values()) + firsts + seconds
    src = {i: o for o, i in ids.items()}
    tgt = dict(src)
    for f in firsts:
        src[f], tgt[f] = "x", "y"
    for g in seconds:
        src[g], tgt[g] = "y", "z"
        for f in firsts:
            morphisms.append((f, g))
            src[(f, g)], tgt[(f, g)] = "x", "z"

    def compose(g, f):
        if f in ids.values():
            return g
        return f if g in ids.values() else (f, g)

    C = FinCategory.tabulate("xyz", morphisms, src, tgt, ids, compose)
    C.check()
    return C


def test_nerve_layers_follow_repr_order_not_the_names():
    # "a", "a!" and "a " sort one way as names and the other way as reprs
    # ("'a '" < "'a!'" < "'a'")
    N = nerve(two_step_category(["a", "a!", "a "], ["b", "b "]), 3)
    assert N.n_gens == [3, 11, 6]
    assert_layers_in_repr_order(N)
    layer = [N.labels[g] for g in N.gens(2)]
    assert layer != sorted(layer)


class Bare(str):
    """A name whose repr is itself, so one repr can be a prefix of another."""

    __repr__ = str.__str__


def test_nerve_layers_follow_repr_order_when_one_repr_prefixes_another():
    # "(x y, w)" < "(x, z)" although "x" < "x y"
    N = nerve(two_step_category([Bare("x"), Bare("x y")], [Bare("z"), Bare("w")]), 2)
    assert_layers_in_repr_order(N)
    layer = [N.labels[g] for g in N.gens(2)]
    assert layer != sorted(layer, key=lambda s: tuple(map(repr, s)))


@pytest.mark.parametrize("name", ["ps2", "dup22"])
def test_nerve_layers_of_diagram_levels_follow_repr_order(name):
    # morphisms of map_category levels are nested tuples
    _, s_levels, f_levels = _levels(name)
    for level in (s_levels[1], f_levels[1]):
        assert_layers_in_repr_order(nerve(level.cat, 2))


_NERVE_CATEGORIES = {
    "random": lambda rng: random_category(rng, 4),
    "product": lambda rng: random_category(rng, 3).product(random_category(rng, 2)),
    "opposite": lambda rng: random_category(rng, 4).opposite(),
    "z2": lambda rng: cyclic_group_category(2),
    "z3": lambda rng: cyclic_group_category(3),
    "ps3": lambda rng: pointed_sets_category(3),
    # reprs that prefix one another, so the layers sort by the repr strings
    "prefix": lambda rng: two_step_category([Bare("x"), Bare("x y")], [Bare("z"), Bare("w")]),
}


@given(st.sampled_from(sorted(_NERVE_CATEGORIES)), st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_nerve_matches_the_string_route(kind, seed, d):
    C = _NERVE_CATEGORIES[kind](random.Random(seed))
    N, M = nerve(C, d), string_route_nerve(C, d)
    assert (N.n_gens, N.labels, N.bound) == (M.n_gens, M.labels, M.bound)
    assert N.faces == M.faces
    assert io.dumps(io.serialize_sset(N)) == io.dumps(io.serialize_sset(M))


def test_face_rows_by_number_degenerate_at_identity_composites():
    # in Z/2, 1 then 1 is the identity: d_1 of 1|1 is s_0 of the vertex, and
    # d_1, d_2 of 1|1|1 are s_0, s_1 of the edge
    C = cyclic_group_category(2)
    v, e, t = SimplexKey((0, 0)), SimplexKey((1, 0)), SimplexKey((2, 0))
    assert nerve_face_rows(C, [["*"], [(1,)], [(1, 1)], [(1, 1, 1)]]) == {
        (1, 0): (v, v),
        (2, 0): (e, SimplexKey((0, 0), (0,)), e),
        (3, 0): (t, SimplexKey((1, 0), (0,)), SimplexKey((1, 0), (1,)), t),
    }
    # a face string missing from the layers, or a degenerate face whose base
    # is missing, leaves no row
    assert nerve_face_rows(C, [["*"], [], [(1, 1)], [(1, 1, 1)]]) == {
        (2, 0): None, (3, 0): None}
    # nor does a pair that does not compose: (0, 1) cannot follow itself
    P = chain_poset(1)
    assert nerve_face_rows(P, [[0, 1], [(1,)], [(1, 1)]])[(2, 0)] is None


# ---------------------------------------------------------------------------
# functors and nerve maps


def test_nerve_functor_map_round_trips_to_the_functor():
    C = cyclic_group_category(2)
    D = cyclic_group_category(4)
    F = FinFunctor(C, D, {"*": "*"}, {0: 0, 1: 2})
    F.check()
    G = nerve_functor_map(F, nerve(C, 2), nerve(D, 2))
    G.check()
    F2 = functor_from_nerve_map(G)
    assert F2.obj_map == F.obj_map
    assert F2.mor_map == F.mor_map


def test_slice_category_of_a_poset_is_the_downset():
    C = chain_poset(3)
    S = slice_category(C, 2)
    assert len(S.objects) == 3  # arrows 0->2, 1->2, 2->2
    S.check()


def test_groupoid_core_keeps_only_invertibles():
    C = idempotent_monoid_category()
    G = groupoid_core(C)
    assert len(G.morphisms) == 1  # only the unit survives


def test_compose_mor_rejects_a_pair_that_does_not_compose():
    with pytest.raises(ValueError, match="not composable"):
        chain_poset(2).compose_mor((0, 1), (0, 1))


def test_an_identity_with_wrong_endpoints_fails_first():
    C = chain_poset(1)
    bad = FinCategory(C.objects, C.morphisms, C.src, C.tgt, {0: (0, 0), 1: (0, 1)}, C.after)
    with pytest.raises(ValueError, match=r"identity of 1 has wrong endpoints"):
        bad.check()


# ---------------------------------------------------------------------------
# indexed checks against the all-pairs oracles


def naive_check(C):
    """FinCategory.check as it loops over every pair and triple of
    morphisms and filters by endpoint, on C's table by value; the reference
    for the indexed check."""
    table = comp_table(C)

    def compose(g, f):
        """g after f, with an identity composing by the identity law, so
        that only the identity laws read the table's identity composites."""
        if f in C.id_set:
            return g
        return f if g in C.id_set else table[(g, f)]

    for o in C.objects:
        i = C.ids[o]
        if C.src[i] != o or C.tgt[i] != o:
            raise ValueError(f"identity of {o!r} has wrong endpoints")
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src[g] != C.tgt[f]:
                continue
            h = compose(g, f)
            if C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g]:
                raise ValueError(f"composite {g!r} o {f!r} has wrong endpoints")
    for f in C.morphisms:
        if table[(C.ids[C.tgt[f]], f)] != f:
            raise ValueError(f"left identity fails at {f!r}")
        if table[(f, C.ids[C.src[f]])] != f:
            raise ValueError(f"right identity fails at {f!r}")
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src[g] != C.tgt[f]:
                continue
            for h in C.morphisms:
                if C.src[h] != C.tgt[g]:
                    continue
                if compose(h, compose(g, f)) != compose(compose(h, g), f):
                    raise ValueError(f"associativity fails at {f!r}, {g!r}, {h!r}")


def naive_functor_check(F):
    """FinFunctor.check over every pair of source morphisms, g-major."""
    C, D = F.source, F.target
    for o in C.objects:
        if F.mor_map[C.ids[o]] != D.ids[F.obj_map[o]]:
            raise ValueError(f"functor does not preserve identity of {o!r}")
    for f in C.morphisms:
        if D.src[F.mor_map[f]] != F.obj_map[C.src[f]]:
            raise ValueError(f"functor breaks source of {f!r}")
        if D.tgt[F.mor_map[f]] != F.obj_map[C.tgt[f]]:
            raise ValueError(f"functor breaks target of {f!r}")
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src[g] != C.tgt[f]:
                continue
            if F.mor_map[C.compose_mor(g, f)] != D.compose_mor(F.mor_map[g], F.mor_map[f]):
                raise ValueError(f"functor breaks composition {g!r} o {f!r}")


def _outcome(check, x):
    try:
        check(x)
    except ValueError as exc:
        return str(exc)
    return None


def _small_category(rng):
    C = random_category(rng, 4)
    kind = rng.choice(["plain", "opposite", "product"])
    if kind == "opposite":
        return C.opposite()
    if kind == "product":
        return C.product(rng.choice([chain_poset(1), cyclic_group_category(2),
                                     random_poset(rng, 2)]))
    return C


def _replacement(rng, C, old, a, b):
    """Another morphism a -> b, or one with other endpoints, or None."""
    if rng.random() < 0.5:
        pool = [m for m in C.hom(a, b) if m != old]
    else:
        pool = [m for m in C.morphisms if (C.src[m], C.tgt[m]) != (a, b)]
    return rng.choice(pool) if pool else None


# Up to three entries are corrupted, so that the first failure, and with it
# the error text, depends on the order in which pairs and triples are visited.
# With ``identities`` the entries of an identity composed with a morphism, on
# either side, may be corrupted too.


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(1, 3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_indexed_category_check_matches_the_all_pairs_oracle(seed, pick, n_bad, identities):
    rng = random.Random(seed)
    C = _small_category(rng)
    assert _outcome(naive_check, C) is None
    C.check()
    table = comp_table(C)
    keys = [k for k in table if not C.id_set.intersection(k)]
    if identities:
        keys += [(C.ids[C.tgt[f]], f) for f in C.morphisms]
        keys += [(f, C.ids[C.src[f]]) for f in C.morphisms]
    if not keys:
        return
    rng = random.Random(pick)
    for g, f in rng.sample(keys, min(n_bad, len(keys))):
        new = _replacement(rng, C, table[(g, f)], C.src[f], C.tgt[g])
        if new is not None:
            table[(g, f)] = new
    bad = table_category(C.objects, C.morphisms, C.src, C.tgt, C.ids, table)
    assert _outcome(FinCategory.check, bad) == _outcome(naive_check, bad)


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_indexed_functor_check_matches_the_all_pairs_oracle(seed, pick, n_bad):
    rng = random.Random(seed)
    A = _small_category(rng)
    B = random_category(rng, 2)
    if rng.random() < 0.5:
        F = FinFunctor(A, A, {o: o for o in A.objects}, {m: m for m in A.morphisms})
    else:
        P = A.product(B)
        F = FinFunctor(P, A, {o: o[0] for o in P.objects},
                       {m: m[0] for m in P.morphisms})
    assert _outcome(naive_functor_check, F) is None
    F.check()
    C, D = F.source, F.target
    nonid = [m for m in C.morphisms if m not in C.id_set]
    rng = random.Random(pick)
    mor_map = dict(F.mor_map)
    for m in rng.sample(nonid, min(n_bad, len(nonid))):
        old = mor_map[m]
        new = _replacement(rng, D, old, D.src[old], D.tgt[old])
        if new is not None:
            mor_map[m] = new
    bad = FinFunctor(C, D, F.obj_map, mor_map)
    assert _outcome(FinFunctor.check, bad) == _outcome(naive_functor_check, bad)


def naive_map_morphisms(K, C, N, maps):
    """``map_category``'s morphisms as its naturality search found them
    through ``compose_mor``; the reference for the numbered search."""
    verts = K.gens(0)

    def obj_of(mp, v):
        return N.labels[mp.assign[v].gen]

    def edge_mor(mp, e):
        k = mp.assign[e]
        return C.ids[N.labels[k.gen]] if k.is_degenerate else N.labels[k.gen][0]

    ends = [(e, K.vertex(SimplexKey(e), 0).gen, K.vertex(SimplexKey(e), 1).gen)
            for e in K.gens(1)]
    morphisms = []
    for a, F in enumerate(maps):
        for b, G in enumerate(maps):
            pools = [C.hom(obj_of(F, v), obj_of(G, v)) for v in verts]
            for eta in itertools.product(*pools):
                at = dict(zip(verts, eta))
                if all(C.compose_mor(at[v1], edge_mor(F, e))
                       == C.compose_mor(edge_mor(G, e), at[v0]) for e, v0, v1 in ends):
                    morphisms.append((a, b, tuple(sorted(at.items()))))
    return morphisms


def naive_map_composition(C, morphisms, verts):
    """``map_category``'s composition table as it loops over every pair of
    morphisms and filters by endpoint; the reference for the indexed table."""
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if g[0] != f[1]:
                continue
            ef, eg = dict(f[2]), dict(g[2])
            comp[(g, f)] = (
                f[0],
                g[1],
                tuple(sorted((v, C.compose_mor(eg[v], ef[v])) for v in verts)),
            )
    return comp


MAP_SOURCES = [sx.point, lambda: sx.delta(1), lambda: sx.spine(2), lambda: sx.boundary(2)]


@given(st.integers(0, 10_000), st.integers(3, 4), st.booleans(),
       st.integers(0, len(MAP_SOURCES) - 1))
@settings(max_examples=60, deadline=None)
def test_indexed_map_category_matches_the_all_pairs_oracle(seed, size, opposite, which):
    C = random_category(random.Random(seed), size)
    if opposite:
        C = C.opposite()
    K = MAP_SOURCES[which]()
    N = nerve(C, 2)
    maps = sx.enumerate_maps(K, N)
    cat = map_category(K, C, N, maps)
    assert cat.morphisms == naive_map_morphisms(K, C, N, maps)
    expected = naive_map_composition(C, cat.morphisms, K.gens(0))
    assert comp_table(cat) == expected
    assert_rows_in_order(cat)
    cat.check()


# ---------------------------------------------------------------------------
# the composition table by number


def assert_rows_in_order(C):
    """Each row of ``C.after`` lists the identity of the target and then
    its ``nonid_out``, in order."""
    ms = C.morphisms
    assert len(C.after) == len(ms)
    for f, row in zip(ms, C.after):
        b = C.tgt[f]
        assert [ms[j] for j in row] == [C.ids[b], *C.nonid_out(b)], f


def assert_composites_follow(C, table):
    """``compose_mor`` gives the value table's composite on every
    composable pair, and the table lists no other pair."""
    starting: dict = {}
    for g in C.morphisms:
        starting.setdefault(C.src[g], []).append(g)
    pairs = [(g, f) for f in C.morphisms for g in starting.get(C.tgt[f], ())]
    assert len(pairs) == len(table)
    for g, f in pairs:
        assert C.compose_mor(g, f) == table[(g, f)], (g, f)


def _derived_with_tables(C, table):
    """The opposite, the groupoid core, the wide subcategory of
    endomorphisms and the full subcategory on every other object of C, each
    with its table read off C's table by value."""
    isos = {m for m in C.morphisms
            if any(table[(n, m)] == C.ids[C.src[m]] and table[(m, n)] == C.ids[C.tgt[m]]
                   for n in C.hom(C.tgt[m], C.src[m]))}
    endos = {m for m in C.morphisms if C.src[m] == C.tgt[m]}
    objs = C.objects[::2]
    return [
        (C.opposite(), {(f, g): h for (g, f), h in table.items()}),
        (groupoid_core(C), {k: h for k, h in table.items() if isos.issuperset(k)}),
        (wide_subcategory(C, endos), {k: h for k, h in table.items() if endos.issuperset(k)}),
        (full_subcategory(C, objs), {(g, f): h for (g, f), h in table.items()
                                     if {C.src[f], C.tgt[f], C.tgt[g]}.issubset(objs)}),
    ]


def map_level_table(level):
    """The table of a diagram level by its composite rule: two natural
    transformations compose componentwise in the base category."""
    C, cat = level.C, level.cat
    starting: dict = {}
    for g in cat.morphisms:
        starting.setdefault(g[0], []).append(g)
    return {(g, f): (f[0], g[1], tuple((v, C.compose_mor(x, y))
                                       for (v, y), (_, x) in zip(f[2], g[2])))
            for f in cat.morphisms for g in starting[f[1]]}


@functools.lru_cache(maxsize=None)
def _table_corpus():
    """(category, its table by the constructor's composite rule): the
    tabulated constructors, their derived categories and every level s_n
    and f_n with n <= 2 on pointed sets <= 3 and on dup(2, 2)."""
    out = []
    for _, C, table in _tabulated_and_by_pairs():
        out += [(C, table), *_derived_with_tables(C, table)]
    for W in (pointed_sets_waldhausen(3, 2), pointed_sets_with_duplicate(2, 2)[0]):
        for build in (s_n, f_n):
            for n in range(3):
                level = build(W, n)
                out.append((level.cat, map_level_table(level)))
    return out


def test_rows_list_the_identity_first_and_then_nonid_out():
    for C, _ in _table_corpus():
        assert_rows_in_order(C)


def rows_by_name(C) -> dict:
    """C's rows as ``serialize_category`` names the morphisms: each f to
    the composite g after f for every g in its row."""
    name = [m if isinstance(m, str) else repr(m) for m in C.morphisms]
    return {name[i]: {name[j]: name[h] for j, h in row.items()}
            for i, row in enumerate(C.after)}


def test_category_files_round_trip_the_rows():
    for C, _ in _table_corpus():
        D = fincat.parse_category(fincat.serialize_category(C))
        assert_rows_in_order(D)
        assert rows_by_name(D) == rows_by_name(C)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_numbered_rows_agree_with_compose_mor(seed):
    rng = random.Random(seed)
    C, B = random_category(rng, 4), random_category(rng, 2)
    assert_rows_in_order(C)
    table = comp_table(C)
    P = C.product(B)
    for D, rule in [(C.opposite(), {(f, g): h for (g, f), h in table.items()}),
                    (P, product_comp_by_target_index(C, B, P))]:
        assert_rows_in_order(D)
        assert_composites_follow(D, rule)


@functools.lru_cache(maxsize=None)
def _levels(name):
    W = pointed_sets_waldhausen(2, 2) if name == "ps2" else pointed_sets_with_duplicate(2, 2)[0]
    return W, [s_n(W, n) for n in range(3)], [f_n(W, n) for n in range(2)]


@pytest.mark.parametrize("name", ["ps2", "dup22"])
def test_numbered_rows_of_diagram_levels_agree_with_compose_mor(name):
    # map_category hands its rows over; morphisms are nested tuples
    _, s_levels, f_levels = _levels(name)
    for level in s_levels + f_levels:
        assert_rows_in_order(level.cat)
        assert_composites_follow(level.cat, map_level_table(level))


# face maps level 2 -> level 1 and the degeneracy s_0 level 1 -> level 2
THETAS = [((1, 2), 2, 1), ((0, 2), 2, 1), ((0, 1), 2, 1), ((0, 0, 1), 1, 2)]


@given(st.sampled_from(["ps2", "dup22"]), st.integers(0, len(THETAS) - 1),
       st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_numbered_functor_check_matches_the_oracle_on_structure_functors(
        name, which, pick, n_bad):
    W, s_levels, _ = _levels(name)
    theta, n, m = THETAS[which]
    F = s_structure_functor(theta, s_levels[n], s_levels[m])
    assert _outcome(naive_functor_check, F) is None
    C, D = F.source, F.target
    rng = random.Random(pick)
    mor_map = dict(F.mor_map)
    for f in rng.sample(C.morphisms, min(n_bad, len(C.morphisms))):
        old = mor_map[f]
        new = _replacement(rng, D, old, D.src[old], D.tgt[old])
        if new is not None:
            mor_map[f] = new
    bad = FinFunctor(C, D, F.obj_map, mor_map)
    assert _outcome(FinFunctor.check, bad) == _outcome(naive_functor_check, bad)


# ---------------------------------------------------------------------------
# pushouts and equivalence verdicts against the enumerating oracles


def pushout_by_search(C, f, g):
    """The pushout search without a cache: the first commuting cocone, in
    object and then hom-set order, through which every commuting cocone
    factors exactly once."""
    b, c = C.tgt[f], C.tgt[g]
    cocones = []
    for d in C.objects:
        for i in C.hom(b, d):
            for j in C.hom(c, d):
                if C.compose_mor(i, f) == C.compose_mor(j, g):
                    cocones.append((d, i, j))
    for d, i, j in cocones:
        universal = True
        for d2, i2, j2 in cocones:
            mediators = [
                h
                for h in C.hom(d, d2)
                if C.compose_mor(h, i) == i2 and C.compose_mor(h, j) == j2
            ]
            if len(mediators) != 1:
                universal = False
                break
        if universal:
            return (d, i, j)
    return None


def is_pushout_cocone_by_enumeration(C, f, g, d, i, j):
    """Universal property read off every commuting cocone of the span."""
    if C.compose_mor(i, f) != C.compose_mor(j, g):
        return False
    b, c = C.tgt[f], C.tgt[g]
    for d2 in C.objects:
        for i2 in C.hom(b, d2):
            for j2 in C.hom(c, d2):
                if C.compose_mor(i2, f) != C.compose_mor(j2, g):
                    continue
                mediators = [
                    h
                    for h in C.hom(d, d2)
                    if C.compose_mor(h, i) == i2 and C.compose_mor(h, j) == j2
                ]
                if len(mediators) != 1:
                    return False
    return True


def ho_table_equivalence(ho_s, ho_t, push):
    """Essential surjectivity, fullness and faithfulness of the functor of
    homotopy categories that ``push`` induces, read off the class tables."""
    images = {push(v) for v in ho_s.cat.objects}
    ess_surj = True
    for w in ho_t.cat.objects:
        if w in images:
            continue
        if not any(ho_t.cat.is_iso(m) for v in images for m in ho_t.cat.hom(v, w)):
            ess_surj = False
    full = True
    faithful = True
    for a in ho_s.cat.objects:
        for b in ho_s.cat.objects:
            fibers = {}
            for m in ho_s.cat.hom(a, b):
                fibers.setdefault(ho_t.cls(push(m)), []).append(m)
            if set(fibers) != set(ho_t.cat.hom(push(a), push(b))):
                full = False
            if any(len(v) > 1 for v in fibers.values()):
                faithful = False
    return {
        "equivalence": ess_surj and full and faithful,
        "essentially_surjective": ess_surj,
        "full": full,
        "faithful": faithful,
    }


def assert_pushouts_match_the_oracles(C):
    """On every span and every triple (d, i, j) over it, commuting or not."""
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src[g] != C.src[f]:
                continue
            want = pushout_by_search(C, f, g)
            assert C.pushout(f, g) == want
            assert C.pushout(f, g) == want  # read back from the memo
            b, c = C.tgt[f], C.tgt[g]
            for d in C.objects:
                for i in C.hom(b, d):
                    for j in C.hom(c, d):
                        assert C.is_pushout_cocone(f, g, d, i, j) == \
                            is_pushout_cocone_by_enumeration(C, f, g, d, i, j), (f, g, d, i, j)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pushouts_match_the_enumerating_oracles(seed, opposite):
    C = random_category(random.Random(seed), 4)
    assert_pushouts_match_the_oracles(C.opposite() if opposite else C)


@pytest.mark.parametrize("opposite", [False, True])
def test_pushouts_of_pointed_sets_match_the_enumerating_oracles(opposite):
    C = pointed_sets_category(3)
    assert_pushouts_match_the_oracles(C.opposite() if opposite else C)
    # collapsing the first point of a three-element set is a pushout
    f, g = (2, 3, (1,)), (2, 2, (0,))
    assert C.is_pushout_cocone(f, g, 3, (3, 3, (0, 2)), (2, 3, (1,)))
    assert not C.is_pushout_cocone(f, g, 3, (3, 3, (0, 2)), (2, 3, (2,)))


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_tau1_map_equivalence_matches_the_table_oracle(seed_s, seed_t, pick):
    C = random_category(random.Random(seed_s), 4)
    D = random_category(random.Random(seed_t), 4)
    NC, ND = nerve(C, 2), nerve(D, 2)
    functors = sx.enumerate_maps(NC, ND)
    if not functors:
        return
    f = functors[pick % len(functors)]
    want = ho_table_equivalence(qc.ho_category(NC), qc.ho_category(ND), f)
    assert qc.tau1_map_equivalence(f) == want
    assert functor_equivalence_report(functor_from_nerve_map(f)) == want


# Each functor fails exactly one of the three conditions, so a verdict that
# drops or weakens any of them tells them apart.


def _missing_object():
    """The full inclusion of the one-element pointed set into Ps<=2."""
    C = pointed_sets_category(2)
    S = full_subcategory(C, [1])
    return FinFunctor(S, C, {1: 1}, {m: m for m in S.morphisms})


def _groupoid_core_inclusion():
    C = pointed_sets_category(2)
    G = groupoid_core(C)
    return FinFunctor(G, C, {o: o for o in G.objects}, {m: m for m in G.morphisms})


def _collapse_to_the_point():
    """Z/2 onto the terminal category."""
    Z2, P = cyclic_group_category(2), chain_poset(0)
    return FinFunctor(Z2, P, {"*": 0}, {m: P.ids[0] for m in Z2.morphisms})


@pytest.mark.parametrize("build, failing", [
    (_missing_object, "essentially_surjective"),
    (_groupoid_core_inclusion, "full"),
    (_collapse_to_the_point, "faithful"),
])
def test_equivalence_verdicts_fail_one_condition_at_a_time(build, failing):
    F = build()
    F.check()
    want = {"essentially_surjective": True, "full": True, "faithful": True,
            "equivalence": False}
    want[failing] = False
    assert functor_equivalence_report(F) == want
    NF = nerve_functor_map(F, nerve(F.source, 2), nerve(F.target, 2))
    assert qc.tau1_map_equivalence(NF) == want
