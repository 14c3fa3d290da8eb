"""Core simplicial machinery: normal forms, standard objects, products,
joins, subcomplexes, map enumeration, and horn filling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import families as fm
from qcatk import io
from qcatk import lifting as lf
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk.cats import nerve, nerve_key_for_string, cyclic_group_category
from qcatk.ssets import SimplexKey
from qcatk.zoo import random_category, random_poset
from testlib import chain_poset, image_rows


# ---------------------------------------------------------------------------
# normal form arithmetic


@given(st.lists(st.integers(0, 5), max_size=6))
@settings(max_examples=100)
def test_degeneracy_words_stay_strictly_decreasing(word):
    k = SimplexKey((2, 0))
    for i in word:
        k = ss.key_degeneracy(k, min(i, k.dim))
    assert all(k.degens[i] > k.degens[i + 1] for i in range(len(k.degens) - 1))
    assert k.dim == 2 + len(k.degens)


@given(st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=60)
def test_face_of_degeneracy_recovers_simplex(n, i):
    """d_i s_i = id and d_{i+1} s_i = id on every simplex of Delta[n]."""
    D = sx.delta(n)
    for k in D.simplices(min(n, 2)):
        j = min(i, k.dim)
        s = D.degeneracy(k, j)
        assert D.face(s, j) == k
        assert D.face(s, j + 1) == k


def test_simplicial_identities_hold_on_standard_objects():
    for X in [sx.delta(3), sx.boundary(3), sx.horn(3, 1), sx.spine(4)]:
        X.check()


# ---------------------------------------------------------------------------
# standard objects


def test_standard_object_generator_counts():
    assert sx.delta(2).n_gens == [3, 3, 1]
    assert sx.boundary(2).n_gens == [3, 3]
    assert sx.horn(2, 1).n_gens == [3, 2]
    assert sx.spine(3).n_gens == [4, 3]
    assert sx.point().n_gens == [1]
    assert sx.empty_sset().is_empty()


def test_simplex_counts_with_degeneracies():
    D1 = sx.delta(1)
    # Delta[1]_n has n+2 simplices
    for n in range(4):
        assert len(D1.simplices(n)) == n + 2


# ---------------------------------------------------------------------------
# products and joins


def test_product_of_intervals_is_a_square():
    P = sx.product(sx.delta(1), sx.delta(1), 2).sset
    assert P.n_gens == [4, 5, 2]
    P.check()


def test_join_of_simplices_is_a_simplex():
    for m in range(3):
        for n in range(3):
            J = fm.join(sx.delta(m), sx.delta(n), m + n + 1).sset
            assert sx.iso_check(J, sx.delta(m + n + 1), m + n + 1) is not None


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_join_of_poset_nerves_is_associative(seed):
    rng = random.Random(seed)
    parts = [nerve(random_poset(rng, rng.randint(1, 2)), 2) for _ in range(3)]
    d = 3
    left = fm.join(fm.join(parts[0], parts[1], d).sset, parts[2], d).sset
    right = fm.join(parts[0], fm.join(parts[1], parts[2], d).sset, d).sset
    assert sx.iso_check(left, right, d) is not None


def test_maps_are_equal_on_the_same_ends_and_values():
    X = sx.delta(1)
    f, g = ss.SimplicialMap.identity(X), ss.SimplicialMap.identity(X)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    # ends are compared by identity, values by key
    assert f != ss.SimplicialMap(X, sx.delta(1), dict(f.assign))
    v0 = ss.SimplexKey((0, 0))
    assert f != ss.SimplicialMap(X, X, {**f.assign, (0, 1): v0})


def test_join_with_empty_set_is_identity():
    D = sx.delta(2)
    J = fm.join(D, sx.empty_sset(), 2).sset
    assert sx.iso_check(J, D, 2) is not None


# ---------------------------------------------------------------------------
# subcomplexes


def test_boundary_is_a_subcomplex_of_the_simplex():
    D = sx.delta(2)
    top = SimplexKey(D.gen_of_label((0, 1, 2)))
    S, incl = sx.subcomplex(D, lambda k: k != top, 2)
    assert S.n_gens == sx.boundary(2).n_gens
    incl.check()


def test_one_full_subcomplex_on_a_single_edge():
    N = nerve(chain_poset(2), 2)
    keep_edge = SimplexKey(N.gen_of_label(((0, 1),)))
    S, incl = sx.one_full_subcomplex(
        N, lambda e: e.is_degenerate or e == keep_edge, 2
    )
    assert len(S.gens(1)) == 1
    incl.check()


class _KeptSimplices(sx.Family):
    """Every simplex of X that ``keep`` accepts, degenerate ones included."""

    def __init__(self, X, keep):
        self.X, self.keep = X, keep

    def elements(self, n):
        return [k for k in self.X.simplices(n) if self.keep(k)]

    def face(self, n, x, i):
        return self.X.face(x, i)

    def degeneracy(self, n, x, i):
        return self.X.degeneracy(x, i)


def subcomplex_by_materializing(X, keep, d):
    """Oracle for ``subcomplex``: materialize every kept simplex, degenerate
    ones included, and let the materialization find the nondegenerate ones."""
    S = sx.MaterializedSSet(_KeptSimplices(X, keep), d)
    return S, ss.SimplicialMap(S, X, {g: S.labels[g] for g in S.all_gens()})


def _subcomplex_source(rng, kind):
    if kind == "nerve":
        return nerve(random_category(rng, 4), 3)
    if kind == "prism":
        return sx.product(sx.delta(1), sx.delta(2), 3).sset
    if kind == "join":
        return fm.join(nerve(random_category(rng, 2), 3), sx.delta(1), 3).sset
    return sx.horn(4, rng.randrange(5))


@given(st.integers(0, 10_000), st.sampled_from(["nerve", "prism", "join", "horn"]),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_subcomplex_matches_the_materialized_oracle(seed, kind, d):
    rng = random.Random(seed)
    X = _subcomplex_source(rng, kind)
    # the face closure of a random set of generators
    kept = set()
    todo = [g for g in X.all_gens() if rng.random() < 0.3]
    while todo:
        g = todo.pop()
        if g not in kept:
            kept.add(g)
            todo += [f.gen for f in X.faces.get(g, ())]
    keep = lambda k: k.gen in kept
    got, want = sx.subcomplex(X, keep, d), subcomplex_by_materializing(X, keep, d)
    assert_same_subcomplex(got, want)
    assert got[0].labels == want[0].labels and got[0].bound == want[0].bound == d


@pytest.mark.parametrize("X", [nerve(cyclic_group_category(2), 2), sx.product(
    nerve(chain_poset(1), 1), sx.delta(1), 1).sset], ids=["z2", "square"])
def test_subcomplex_above_the_bound_raises_as_the_oracle_does(X):
    with pytest.raises(ss.BoundExceeded) as got:
        sx.subcomplex(X, lambda k: True, X.bound + 2)
    with pytest.raises(ss.BoundExceeded) as want:
        subcomplex_by_materializing(X, lambda k: True, X.bound + 2)
    assert str(got.value) == str(want.value)


def edges_of(X, key):
    """All edges (i, j), i < j, of a simplex, degenerate ones included."""
    n = key.dim
    return [X.subsimplex(key, (i, j)) for i in range(n + 1) for j in range(i + 1, n + 1)]


def one_full_subcomplex_by_edges(X, edge_keep, d):
    """Oracle for ``one_full_subcomplex``: filter every simplex by its edges."""
    return sx.subcomplex(X, lambda k: k.dim == 0 or all(edge_keep(e) for e in edges_of(X, k)), d)


def _one_full_source(rng, kind, d):
    if kind == "nerve":
        return nerve(random_category(rng, 4), d)
    if kind == "opposite":
        return nerve(random_category(rng, 4).opposite(), d)
    if kind == "product":
        return nerve(random_category(rng, 2).product(random_category(rng, 2)), d)
    if kind == "square":
        return sx.product(sx.delta(1), sx.delta(1), 2).sset
    if kind == "boundary":
        return sx.boundary(3)
    return sx.horn(3, rng.randrange(4))


def assert_same_subcomplex(got, want):
    (S, incl), (T, oracle_incl) = got, want
    assert io.serialize_sset(S) == io.serialize_sset(T)
    assert list(incl.assign.items()) == list(oracle_incl.assign.items())


@given(st.integers(0, 10_000),
       st.sampled_from(["nerve", "opposite", "product", "square", "boundary", "horn"]),
       st.integers(1, 3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_one_full_subcomplex_matches_the_edge_filter(seed, kind, d, keep_degenerate):
    rng = random.Random(seed)
    X = _one_full_source(rng, kind, d)
    d = min(d, X.effective_bound())
    # a random set of edges; degenerate edges may be rejected too
    good = {e for e in X.simplices(1)
            if (keep_degenerate and e.is_degenerate) or rng.random() < 0.6}
    assert_same_subcomplex(sx.one_full_subcomplex(X, good.__contains__, d),
                           one_full_subcomplex_by_edges(X, good.__contains__, d))


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_maximal_kan_matches_the_edge_filter(seed, d):
    # on a nerve it is the nerve of the groupoid core, with its own
    # generator order: compared by its image in N
    N = nerve(random_category(random.Random(seed), 4), max(d, 2))
    ho = qc.ho_category(N)
    good = {e for e in N.simplices(1) if ho.cat.is_iso(ho.cls(e))}
    assert image_rows(qc.maximal_kan(N, d)) == image_rows(
        one_full_subcomplex_by_edges(N, good.__contains__, d))


@pytest.mark.parametrize("X", [sx.delta(2), nerve(cyclic_group_category(2), 2)],
                         ids=["delta2", "z2"])
def test_face_keeps_its_errors(X):
    v = SimplexKey((0, 0))
    with pytest.raises(ValueError, match=r"^0-simplices have no faces$"):
        X.face(v, 0)
    for k in (SimplexKey((1, 0)), SimplexKey((2, 0)), X.degeneracy(v, 0),
              X.degeneracy(SimplexKey((1, 0)), 1)):
        for i in (-1, k.dim + 1):
            with pytest.raises(ValueError, match=rf"^face index {i} out of range for dim {k.dim}$"):
                X.face(k, i)


# ---------------------------------------------------------------------------
# map enumeration


def test_maps_from_simplex_to_nerve_count_composable_strings():
    N = nerve(cyclic_group_category(3), 2)
    # maps Delta[1] -> N(Z/3): one per group element
    assert len(sx.enumerate_maps(sx.delta(1), N)) == 3
    # maps spine(2) -> N(Z/3): independent choices
    assert len(sx.enumerate_maps(sx.spine(2), N)) == 9


def forward_checking_order(K):
    """K's generators in the order the search assigns them, derived from K's
    face rows: vertices in ``all_gens()`` order, each followed at once by
    every generator of dimension >= 1 that it completes (the last of its
    faces to be placed), in ``all_gens()`` order and each followed in turn
    by what it completes.  So an edge comes right after its later endpoint."""
    higher = [g for g in K.all_gens() if g[0] >= 1]
    order, placed = [], set()

    def place(g):
        order.append(g)
        placed.add(g)
        for h in higher:
            faces = {f.gen for f in K.faces[h]}
            if h not in placed and g in faces and faces <= placed:
                place(h)

    for g in K.gens(0):
        place(g)
    assert sorted(order) == K.all_gens()
    return order


def naive_enumerate_maps(K, X, fixed=None, budget=10**6, stats=None):
    """The search of ``enumerate_maps`` with its candidate index rebuilt
    from ``X.simplices(n)`` on every call and faces read through ``K.face``;
    the reference for the cached-index search.  A ``stats`` dict receives
    the number of search nodes visited."""
    gens_in_order = forward_checking_order(K)
    X.require_bound(K.top_dim, "map enumeration")
    fixed = fixed or {}
    cand_index = {}
    for n in range(1, K.top_dim + 1):
        idx = {}
        for k in X.simplices(n):
            idx.setdefault(X.boundary_tuple(k), []).append(k)
        cand_index[n] = idx

    counter = [0]
    results = []
    assign = {}

    def image(key):
        return ss.apply_degeneracy_word(assign[key.gen], key.degens)

    def rec(pos):
        counter[0] += 1
        if counter[0] > budget:
            raise ss.BudgetExceeded("map enumeration budget exceeded", counter[0])
        if pos == len(gens_in_order):
            results.append(ss.SimplicialMap(K, X, {g: assign[g] for g in K.all_gens()}))
            return
        g = gens_in_order[pos]
        n = g[0]
        if n == 0:
            cands = X.simplices(0)
        else:
            wanted = tuple(image(K.face(SimplexKey(g), i)) for i in range(n + 1))
            cands = cand_index[n].get(wanted, [])
        if g in fixed:
            cands = [c for c in cands if c == fixed[g]]
        for c in cands:
            assign[g] = c
            rec(pos + 1)
            del assign[g]

    rec(0)
    if stats is not None:
        stats["nodes"] = counter[0]
    return sorted(results, key=lambda m: sorted(m.assign.items()))


def functor_enumerate_maps(K, X, fixed=None):
    """Maps K -> X for X the nerve of a finite category, by functor search.

    A nerve is 2-coskeletal and its simplices are determined by their
    spines, so a map is exactly an assignment of objects to vertices and
    morphisms to edges satisfying the composition relation on every
    2-simplex.  The reference for map search into nerves.
    """
    C = X.category
    verts = K.gens(0)
    edge_gens = K.gens(1)
    fixed = fixed or {}
    obj_of_vertex_key = {SimplexKey(g): X.labels[g] for g in X.gens(0)}

    def edge_value_to_morphism(key):
        if key.is_degenerate:
            return C.ids[obj_of_vertex_key[SimplexKey(key.gen)]]
        return X.labels[key.gen][0]

    # seeds from the fixed generator assignments
    vassign, eassign = {}, {}
    for g, val in fixed.items():
        if g[0] == 0:
            vassign[g] = obj_of_vertex_key[val]
        elif g[0] == 1:
            eassign[g] = edge_value_to_morphism(val)
    # fixed higher generators constrain their edges and vertices
    for g, val in fixed.items():
        if g[0] >= 2:
            gk = SimplexKey(g)
            for i in range(g[0] + 1):
                for j in range(i + 1, g[0] + 1):
                    e = K.subsimplex(gk, (i, j))
                    if e.is_degenerate:
                        continue
                    m = edge_value_to_morphism(X.subsimplex(val, (i, j)))
                    if eassign.setdefault(e.gen, m) != m:
                        return []
            for j in range(g[0] + 1):
                o = obj_of_vertex_key[SimplexKey(X.vertex(val, j).gen)]
                if vassign.setdefault(K.vertex(gk, j).gen, o) != o:
                    return []

    # each triangle is checked as soon as its last nondegenerate edge is assigned
    edge_pos = {e: i for i, e in enumerate(edge_gens)}
    tri_ready, tri_at_start = {}, []
    for g in K.gens(2):
        gk = SimplexKey(g)
        tri = tuple(K.subsimplex(gk, p) for p in ((0, 1), (1, 2), (0, 2)))
        positions = [edge_pos[e.gen] for e in tri if not e.is_degenerate]
        if positions:
            tri_ready.setdefault(max(positions), []).append(tri)
        else:
            tri_at_start.append(tri)

    def mor_of(e, ea, vo):
        if e.is_degenerate:
            return C.ids[vo[K.vertex(e, 0).gen]]
        return ea[e.gen]

    def tri_ok(tri, vo, ea):
        e01, e12, e02 = tri
        return C.compose_mor(mor_of(e12, ea, vo), mor_of(e01, ea, vo)) == mor_of(e02, ea, vo)

    def assemble(vo, ea):
        assign = {}
        for g in K.all_gens():
            if g[0] == 0:
                assign[g] = SimplexKey(X.gen_of_label(vo[g]))
            else:
                spine = [mor_of(e, ea, vo) for e in K.spine_of(SimplexKey(g))]
                assign[g] = nerve_key_for_string(X, spine)
        return ss.SimplicialMap(K, X, assign)

    results = []

    def search_edges(idx, vo, ea):
        if idx == len(edge_gens):
            results.append(assemble(vo, ea))
            return
        egen = edge_gens[idx]
        gk = SimplexKey(egen)
        a, b = vo[K.vertex(gk, 0).gen], vo[K.vertex(gk, 1).gen]
        cands = [eassign[egen]] if egen in eassign else C.hom(a, b)
        for m in cands:
            if C.src[m] != a or C.tgt[m] != b:
                continue
            ea[egen] = m
            if all(tri_ok(t, vo, ea) for t in tri_ready.get(idx, ())):
                search_edges(idx + 1, vo, ea)
            del ea[egen]

    def search_vertices(idx, vo):
        if idx == len(verts):
            if all(tri_ok(t, vo, {}) for t in tri_at_start):
                search_edges(0, dict(vo), {})
            return
        v = verts[idx]
        for o in [vassign[v]] if v in vassign else list(C.objects):
            vo[v] = o
            search_vertices(idx + 1, vo)
            del vo[v]

    search_vertices(0, {})
    return sorted(results, key=lambda m: sorted(m.assign.items()))


def plain(N):
    """A nerve without its category block."""
    return ss.SimplicialSet(N.n_gens, N.faces, labels=N.labels, bound=N.bound)


def search_outcome(search, K, X, fixed, budget):
    """The ordered assignments found within ``budget`` nodes, or the node
    count at which the budget ran out.  The library search is charged to a
    ledger of that size; the oracle keeps its own counter."""
    try:
        if search is naive_enumerate_maps:
            return [m.assign for m in search(K, X, fixed=fixed, budget=budget)]
        with ss.budget(budget):
            return [m.assign for m in search(K, X, fixed=fixed)]
    except ss.BudgetExceeded as exc:
        return ("budget exceeded", exc.attempted)


SOURCES = [
    lambda: sx.delta(1),
    lambda: sx.delta(2),
    lambda: sx.spine(2),
    lambda: sx.spine(3),
    lambda: sx.boundary(2),
    lambda: sx.boundary(3),
    lambda: sx.horn(2, 0),
    lambda: sx.horn(2, 1),
    lambda: sx.horn(3, 2),
    lambda: sx.product(sx.delta(1), sx.delta(1), 2).sset,
    lambda: sx.product(sx.spine(2), sx.delta(1), 2).sset,
]


def draw_fixed(data, K, maps):
    """Up to three generators of K fixed at their values under one of
    ``maps``, or None when there are no maps."""
    if not maps:
        return None
    m = data.draw(st.sampled_from(maps))
    keep = data.draw(st.lists(st.sampled_from(K.all_gens()), unique=True, max_size=3))
    return {g: m.assign[g] for g in keep}


@given(st.integers(0, 10_000), st.integers(0, len(SOURCES) - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_generic_search_matches_the_rebuilding_oracle(seed, which, data):
    X = plain(nerve(random_category(random.Random(seed), 4), 2))
    K = SOURCES[which]()
    fixed = draw_fixed(data, K, naive_enumerate_maps(K, X))
    stats = {}
    expected = [m.assign for m in naive_enumerate_maps(K, X, fixed, stats=stats)]
    assert search_outcome(sx.enumerate_maps, K, X, fixed, 10**6) == expected
    # a small budget, and the last budget that runs out and the first that does not
    nodes = stats["nodes"]
    for budget in (data.draw(st.integers(1, 60)), nodes - 1, nodes):
        assert search_outcome(sx.enumerate_maps, K, X, fixed, budget) == search_outcome(
            naive_enumerate_maps, K, X, fixed, budget
        )


@given(st.integers(0, 10_000), st.integers(0, len(SOURCES) - 1), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_search_into_a_nerve_matches_the_functor_oracle(seed, which, with_fixed, data):
    N = nerve(random_category(random.Random(seed), 4), 2)
    K = SOURCES[which]()
    expected = functor_enumerate_maps(K, N)
    fixed = draw_fixed(data, K, expected) if with_fixed else None
    if fixed is not None:
        expected = functor_enumerate_maps(K, N, fixed)
    found = sx.enumerate_maps(K, N, fixed=fixed)
    assert [m.assign for m in found] == [m.assign for m in expected]


@given(st.integers(0, 10_000), st.integers(0, len(SOURCES) - 1), st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_a_category_block_changes_no_search(seed, which, budget):
    N = nerve(random_category(random.Random(seed), 4), 2)
    K = SOURCES[which]()
    for b in (budget, 10**6):
        assert search_outcome(sx.enumerate_maps, K, N, None, b) == search_outcome(
            sx.enumerate_maps, K, plain(N), None, b
        )


def test_maps_come_in_lexicographic_order_when_boundaries_do_not_fix_simplices():
    # one vertex, one loop and two 2-simplices on the degenerate boundary, so a
    # 2-simplex searched before a later edge has two candidates
    v, s0 = SimplexKey((0, 0)), SimplexKey((0, 0), (0,))
    X = ss.SimplicialSet([1, 1, 2], {(1, 0): (v, v), (2, 0): (s0, s0, s0), (2, 1): (s0, s0, s0)})
    for make in SOURCES:
        K = make()
        stats = {}
        expected = [m.assign for m in naive_enumerate_maps(K, X, stats=stats)]
        assert search_outcome(sx.enumerate_maps, K, X, None, 10**6) == expected
        for budget in (stats["nodes"] - 1, stats["nodes"]):
            assert search_outcome(sx.enumerate_maps, K, X, None, budget) == search_outcome(
                naive_enumerate_maps, K, X, None, budget
            )


def test_generic_searches_into_one_target_share_its_boundary_index(monkeypatch):
    X = plain(nerve(cyclic_group_category(3), 2))
    first = sx.enumerate_maps(sx.delta(2), X)
    index = {n: X.boundary_index(n) for n in (1, 2)}
    assert all(X.boundary_index(n) is index[n] for n in (1, 2))

    scanned = []
    scan = X.simplices
    monkeypatch.setattr(X, "simplices", lambda n: scanned.append(n) or scan(n))
    second = sx.enumerate_maps(sx.delta(2), X)
    assert [m.assign for m in second] == [m.assign for m in first]
    assert all(X.boundary_index(n) is index[n] for n in (1, 2))
    assert set(scanned) == {0}  # vertex candidates only: nothing re-indexed

    twin = plain(nerve(cyclic_group_category(3), 2))
    for n in (1, 2):
        assert twin.boundary_index(n) is not index[n]
        assert twin.boundary_index(n) == index[n]


def test_search_checks_each_simplex_as_soon_as_its_faces_are_assigned():
    # all 19 edges of the cube I[1] x I[1] x Delta[1] assigned before any
    # triangle is checked would be 2^19 leaves, past the default budget
    K = sx.product(lf.spine_product((1, 1)), sx.delta(1), 3).sset
    N = nerve(cyclic_group_category(2), 3)
    maps = sx.enumerate_maps(K, plain(N))
    assert len(maps) == 128
    assert [m.assign for m in maps] == [m.assign for m in functor_enumerate_maps(K, N)]


def test_search_tries_each_edge_as_soon_as_its_endpoints_are_assigned():
    # with every vertex assigned before any edge, an empty hom between two
    # early vertices is found only after all later vertices are tried
    # (1,235 nodes here)
    N = nerve(random_category(random.Random(14), 5), 3)
    with ss.budget(280):
        assert len(sx.enumerate_maps(sx.spine(3), N)) == 39


def test_prism_boundary_search_tries_each_edge_after_its_endpoints():
    # 40,765 nodes with every vertex assigned before any edge
    N = nerve(random_category(random.Random(14), 5), 3)
    In, D2 = lf.spine_product((1,)), sx.delta(2)
    P3 = sx.product(In, D2, In.top_dim + 2).sset
    Bd, _ = lf._boundary_subcomplex(P3, D2, strong=False)
    with ss.budget(4504):
        assert len(sx.enumerate_maps(Bd, N)) == 184


def test_search_into_a_truncated_nerve_respects_its_bound():
    N = nerve(cyclic_group_category(2), 2)
    with pytest.raises(ss.BoundExceeded):
        sx.enumerate_maps(sx.delta(3), N)


def test_enumeration_budget_is_enforced():
    N = nerve(cyclic_group_category(3), 2)
    with ss.budget(2), pytest.raises(ss.BudgetExceeded):
        sx.enumerate_maps(sx.spine(2), N)


def test_fixed_generators_filter_the_enumeration():
    N = nerve(cyclic_group_category(3), 2)
    S = sx.spine(2)
    e01 = S.gen_of_label((0, 1))
    want = SimplexKey(N.gen_of_label((1,)))
    maps = sx.enumerate_maps(S, N, fixed={e01: want})
    assert len(maps) == 3
    assert all(f(SimplexKey(e01)) == want for f in maps)


# ---------------------------------------------------------------------------
# relative search: maps grouped by their restriction to a face-closed part


def face_closure(K, gens):
    closed, todo = set(), list(gens)
    while todo:
        g = todo.pop()
        if g not in closed:
            closed.add(g)
            todo += [f.gen for f in K.faces[g]] if g[0] else []
    return closed


def grouped_oracle(K, X, inner):
    """Every map on ``inner`` (a map out of the subcomplex it spans) with its
    extensions, each found by the rebuilding oracle with ``fixed``."""
    Sub, _ = sx.subcomplex(K, lambda k: k.gen in inner, K.top_dim)
    out = []
    for u in naive_enumerate_maps(Sub, X):
        on_k = {Sub.labels[gs].gen: v for gs, v in u.assign.items()}
        on_k = {g: on_k[g] for g in K.all_gens() if g in on_k}
        out.append((on_k, [m.assign for m in naive_enumerate_maps(K, X, on_k)]))
    return out


def relative_outcome(K, X, inner, restrict=None):
    return [(u, [m.assign for m in maps])
            for u, maps in sx.relative_maps(K, X, inner, restrict=restrict)]


@given(st.integers(0, 10_000), st.integers(0, len(SOURCES) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_relative_search_matches_the_oracle_grouped_by_restriction(seed, which, data):
    X = plain(nerve(random_category(random.Random(seed), 3), 2))
    K = SOURCES[which]()
    inner = face_closure(K, data.draw(st.lists(st.sampled_from(K.all_gens()), max_size=3)))
    expected = grouped_oracle(K, X, inner)
    assert relative_outcome(K, X, inner) == expected

    # a restriction to some of the boundary maps, and to assignments that
    # are drawn value by value and so are mostly not maps
    some = [u for u, _ in expected if data.draw(st.booleans())]
    drawn = [{g: data.draw(st.sampled_from(X.simplices(g[0]))) for g in inner}
             for _ in range(data.draw(st.integers(0, 3)))]
    restrict = some + drawn
    assert relative_outcome(K, X, inner, restrict) == [
        (u, maps) for u, maps in expected if u in restrict
    ]


@pytest.mark.parametrize("which", range(len(SOURCES)))
def test_relative_search_orders_boundary_maps_lexicographically(which):
    # two objects with parallel morphisms, so a search that assigns an edge
    # before a later vertex meets the boundary maps out of lexicographic order
    X = plain(nerve(cyclic_group_category(2).product(chain_poset(1)), 2))
    K = SOURCES[which]()
    inner = {g for g in K.all_gens() if g[0] < 2}
    assert relative_outcome(K, X, inner) == grouped_oracle(K, X, inner)


def test_relative_search_counts_the_nodes_of_the_whole_search():
    N = plain(nerve(cyclic_group_category(3), 2))
    K = sx.delta(2)
    inner = face_closure(K, K.gens(1))
    found = sx.relative_maps(K, N, inner)
    assert [len(maps) for _, maps in found].count(1) == 9  # composable pairs
    assert len(found) == 27  # all boundaries, most with no filler
    # the root, 1 + 1 + 3 + 3 + 9 + 27 nodes over the boundary (one vertex,
    # three edges), and 9 for the fillers below the 9 boundaries that have one
    with ss.budget(54) as ledger:
        assert sx.relative_maps(K, N, inner)
    assert ledger.used == 54
    with ss.budget(53), pytest.raises(ss.BudgetExceeded) as exc:
        sx.relative_maps(K, N, inner)
    assert exc.value.attempted == 54


def test_relative_search_needs_a_face_closed_inner_part():
    K = sx.delta(2)
    with pytest.raises(ValueError):
        sx.relative_maps(K, sx.delta(1), [K.gen_of_label((0, 1))])


# ---------------------------------------------------------------------------
# simplices by their faces, and horn filling


def scan_simplex_with_faces(X, n, faces):
    """The oracle for ``simplex_with_faces``: scan every n-simplex in
    canonical order and return the first with the given faces."""
    for z in X.simplices(n):
        if all(X.face(z, i) == k for i, k in faces.items()):
            return z
    return None


def horn_faces(h):
    """The faces a horn map h : Lambda^k[n] -> X prescribes, with n."""
    H = h.source
    n = max(len(H.labels[g]) for g in H.all_gens())
    full = tuple(range(n + 1))
    faces = {}
    for i in range(n + 1):
        lbl = full[:i] + full[i + 1:]
        if lbl in H._gen_of_label:
            faces[i] = h(SimplexKey(H.gen_of_label(lbl)))
    return n, faces


def scan_horn_filler(X, h):
    """The oracle for ``inner_horn_filler``: the scan it made before it
    looked its filler up."""
    n, faces = horn_faces(h)
    return scan_simplex_with_faces(X, n, faces)


def two_discs():
    """Not a nerve: two 2-simplices on the boundary of one triangle, and a
    third whose boundary is that of the degenerate simplex s_0 of an edge."""
    v0, v1, v2 = (SimplexKey((0, i)) for i in range(3))
    a, b, c = (SimplexKey((1, i)) for i in range(3))
    faces = {
        (1, 0): (v1, v0), (1, 1): (v2, v1), (1, 2): (v2, v0),
        (2, 0): (b, c, a), (2, 1): (b, c, a), (2, 2): (a, a, ss.key_degeneracy(v0, 0)),
    }
    X = ss.SimplicialSet([3, 3, 3], faces)
    X.check()
    return X


FACE_TARGETS = [
    lambda rng: nerve(random_category(rng, 4), 3),
    lambda rng: sx.product(sx.spine(2), sx.delta(1), 3).sset,
    lambda rng: sx.product(nerve(cyclic_group_category(2), 3), sx.delta(1), 3).sset,
    lambda rng: fm.join(sx.horn(2, 1), sx.delta(0), 3).sset,
    lambda rng: fm.join(sx.delta(0), sx.boundary(2), 3).sset,
    lambda rng: sx.horn(3, rng.randint(0, 3)),
    lambda rng: sx.boundary(3),
    lambda rng: two_discs(),
]


def consistent(X, faces):
    """Do the given faces satisfy d_i d_j = d_{j-1} d_i pairwise?"""
    return all(X.face(faces[j], i) == X.face(faces[i], j - 1)
               for j in faces for i in faces if i < j and faces[j].dim > 0)


@given(st.integers(0, 10_000), st.integers(0, len(FACE_TARGETS) - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_simplex_with_faces_matches_the_scan(seed, which, data):
    X = FACE_TARGETS[which](random.Random(seed))
    for n in (2, 3):
        for k in range(n + 1):
            for h in sx.horn_maps(X, n, k):
                assert sx.inner_horn_filler(X, h) == scan_horn_filler(X, h)
    for n in (1, 2, 3):
        B = sx.boundary(n)
        full = tuple(range(n + 1))
        for b in sx.enumerate_maps(B, X):
            faces = {i: b(SimplexKey(B.gen_of_label(full[:i] + full[i + 1:])))
                     for i in range(n + 1)}
            z = sx.simplex_with_faces(X, n, faces)
            assert z == scan_simplex_with_faces(X, n, faces)
            assert z is None or X.boundary_tuple(z) == tuple(faces.values())
    # faces drawn at random, mostly inconsistent; all of them or all but one
    for _ in range(20):
        n = data.draw(st.integers(1, 3))
        missing = data.draw(st.sampled_from([None, *range(n + 1)]))
        faces = {i: data.draw(st.sampled_from(X.simplices(n - 1)))
                 for i in range(n + 1) if i != missing}
        z = sx.simplex_with_faces(X, n, faces)
        assert z == scan_simplex_with_faces(X, n, faces)
        if not consistent(X, faces):
            assert z is None


def test_simplex_with_faces_needs_all_faces_or_all_but_one():
    X = sx.delta(2)
    e = X.simplices(1)[0]
    for faces in ({0: e}, {0: e, 1: e, 2: e, 3: e}, {0: e, 1: e, 5: e}):
        with pytest.raises(ValueError):
            sx.simplex_with_faces(X, 2, faces)


def test_simplex_with_faces_takes_the_first_simplex_on_a_shared_boundary():
    X = two_discs()
    a, b, c = (SimplexKey((1, i)) for i in range(3))
    assert sx.simplex_with_faces(X, 2, {0: b, 1: c, 2: a}) == SimplexKey((2, 0))
    assert sx.simplex_with_faces(X, 2, {0: b, 2: a}) == SimplexKey((2, 0))
    # s_0 a sorts before the nondegenerate (2, 2) with the same boundary
    assert sx.simplex_with_faces(X, 2, {0: a, 1: a}) == SimplexKey((1, 0), (0,))


def test_inner_horns_of_a_nerve_fill():
    N = nerve(cyclic_group_category(2), 2)
    for h in sx.horn_maps(N, 2, 1):
        assert sx.inner_horn_filler(N, h) is not None


def test_outer_horns_of_a_group_nerve_fill():
    N = nerve(cyclic_group_category(2), 2)
    for k in (0, 2):
        for h in sx.horn_maps(N, 2, k):
            assert sx.inner_horn_filler(N, h) is not None


def test_missing_outer_horn_filler_is_detected():
    # in Delta[1]: the index-0 horn asking for a retraction of the edge
    # (long edge constant at 0, short edge 0 -> 1) has no filler
    D = sx.delta(1)
    H = sx.horn(2, 0)
    v0 = SimplexKey(D.gen_of_label((0,)))
    v1 = SimplexKey(D.gen_of_label((1,)))
    e = SimplexKey(D.gen_of_label((0, 1)))
    h = ss.SimplicialMap(H, D, {
        H.gen_of_label((0,)): v0, H.gen_of_label((1,)): v1,
        H.gen_of_label((2,)): v0,
        H.gen_of_label((0, 1)): e,
        H.gen_of_label((0, 2)): ss.key_degeneracy(v0, 0),
    })
    h.check()
    assert sx.inner_horn_filler(D, h) is None


# ---------------------------------------------------------------------------
# isomorphism testing


def test_iso_check_distinguishes_horn_from_boundary():
    # equal top dimensions, unequal edge counts
    assert sx.iso_check(sx.horn(2, 1), sx.boundary(2), 2) is None
    # different top dimensions
    assert sx.iso_check(sx.delta(1), sx.delta(2), 2) is None


def test_iso_check_matches_differently_built_models():
    phi = sx.iso_check(nerve(chain_poset(1), 1), sx.delta(1), 1)
    assert phi is not None
    # the two outer horns of Delta[2] are NOT isomorphic: face order matters
    assert sx.iso_check(sx.horn(2, 0), sx.horn(2, 2), 2) is None
