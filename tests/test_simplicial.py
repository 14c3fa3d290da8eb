"""Core simplicial machinery: normal forms, standard objects, products,
joins, subcomplexes, map enumeration, and horn filling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import simplicial as sx
from qcatk.cats import nerve, cyclic_group_category, chain_poset
from qcatk.simplicial import SimplexKey
from qcatk.zoo import idempotent_monoid_category, random_category, random_poset


# ---------------------------------------------------------------------------
# normal form arithmetic


@given(st.lists(st.integers(0, 5), max_size=6))
@settings(max_examples=100)
def test_degeneracy_words_stay_strictly_decreasing(word):
    k = SimplexKey((2, 0))
    for i in word:
        k = sx.key_degeneracy(k, min(i, k.dim))
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
            J = sx.join(sx.delta(m), sx.delta(n), m + n + 1).sset
            assert sx.iso_check(J, sx.delta(m + n + 1), m + n + 1) is not None


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_join_of_poset_nerves_is_associative(seed):
    rng = random.Random(seed)
    parts = [nerve(random_poset(rng, rng.randint(1, 2)), 2) for _ in range(3)]
    d = 3
    left = sx.join(sx.join(parts[0], parts[1], d).sset, parts[2], d).sset
    right = sx.join(parts[0], sx.join(parts[1], parts[2], d).sset, d).sset
    assert sx.iso_check(left, right, d) is not None


def test_join_with_empty_set_is_identity():
    D = sx.delta(2)
    J = sx.join(D, sx.empty_sset(), 2).sset
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


# ---------------------------------------------------------------------------
# map enumeration


def test_maps_from_simplex_to_nerve_count_composable_strings():
    N = nerve(cyclic_group_category(3), 2)
    # maps Delta[1] -> N(Z/3): one per group element
    assert len(sx.enumerate_maps(sx.delta(1), N, budget=10**6)) == 3
    # maps spine(2) -> N(Z/3): independent choices
    assert len(sx.enumerate_maps(sx.spine(2), N, budget=10**6)) == 9


def naive_enumerate_maps(K, X, fixed=None, budget=10**6, stats=None):
    """The generic search of ``enumerate_maps`` with its candidate index
    rebuilt from ``X.simplices(n)`` on every call and faces read through
    ``K.face``; the reference for the cached-index search.  A ``stats``
    dict receives the number of search nodes visited."""
    gens_in_order = K.all_gens()
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
        return sx.apply_degeneracy_word(assign[key.gen], key.degens)

    def rec(pos):
        counter[0] += 1
        if counter[0] > budget:
            raise sx.BudgetExceeded("map enumeration budget exceeded", counter[0])
        if pos == len(gens_in_order):
            results.append(sx.SimplicialMap(K, X, dict(assign)))
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
    return results


def plain(N):
    """A nerve without its category block, so searches into it are generic."""
    return sx.SimplicialSet(N.n_gens, N.faces, labels=N.labels, bound=N.bound)


def search_outcome(search, K, X, fixed, budget):
    """The ordered assignments found, or the node count at which the
    budget ran out."""
    try:
        return [m.assign for m in search(K, X, fixed=fixed, budget=budget)]
    except sx.BudgetExceeded as exc:
        return ("budget exceeded", exc.attempted)


def generic(K, X, fixed=None, budget=10**6):
    return sx.enumerate_maps(K, X, fixed=fixed, budget=budget, use_category=False)


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


@given(st.integers(0, 10_000), st.integers(0, len(SOURCES) - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_generic_search_matches_the_rebuilding_oracle(seed, which, data):
    X = plain(nerve(random_category(random.Random(seed), 4), 2))
    K = SOURCES[which]()
    fixed = None
    maps = naive_enumerate_maps(K, X)
    if maps:
        m = data.draw(st.sampled_from(maps))
        keep = data.draw(st.lists(st.sampled_from(K.all_gens()), unique=True, max_size=3))
        fixed = {g: m.assign[g] for g in keep}
    stats = {}
    expected = [m.assign for m in naive_enumerate_maps(K, X, fixed, stats=stats)]
    assert search_outcome(generic, K, X, fixed, 10**6) == expected
    # a small budget, and the last budget that runs out and the first that does not
    nodes = stats["nodes"]
    for budget in (data.draw(st.integers(1, 60)), nodes - 1, nodes):
        assert search_outcome(generic, K, X, fixed, budget) == search_outcome(
            naive_enumerate_maps, K, X, fixed, budget
        )


def test_generic_searches_into_one_target_share_its_boundary_index(monkeypatch):
    X = plain(nerve(cyclic_group_category(3), 2))
    first = generic(sx.delta(2), X)
    index = {n: X.boundary_index(n) for n in (1, 2)}
    assert all(X.boundary_index(n) is index[n] for n in (1, 2))

    scanned = []
    scan = X.simplices
    monkeypatch.setattr(X, "simplices", lambda n: scanned.append(n) or scan(n))
    second = generic(sx.delta(2), X)
    assert [m.assign for m in second] == [m.assign for m in first]
    assert all(X.boundary_index(n) is index[n] for n in (1, 2))
    assert set(scanned) == {0}  # vertex candidates only: nothing re-indexed

    twin = plain(nerve(cyclic_group_category(3), 2))
    for n in (1, 2):
        assert twin.boundary_index(n) is not index[n]
        assert twin.boundary_index(n) == index[n]


def test_functor_and_generic_enumeration_agree():
    rng = random.Random(5)
    categories = [cyclic_group_category(2), cyclic_group_category(3),
                  idempotent_monoid_category(), chain_poset(2)]
    categories += [random_category(rng, 4) for _ in range(4)]
    for C in categories:
        N = nerve(C, 2)
        for K in [sx.delta(1), sx.delta(2), sx.spine(2), sx.boundary(2), sx.horn(2, 1)]:
            fast = sx.enumerate_maps(K, N, budget=10**6, use_category=True)
            slow = generic(K, N)
            assert [f.assign for f in fast] == [f.assign for f in slow]


def test_enumeration_budget_is_enforced():
    N = nerve(cyclic_group_category(3), 2)
    with pytest.raises(sx.BudgetExceeded):
        sx.enumerate_maps(sx.spine(2), N, budget=2, use_category=False)


def test_fixed_generators_filter_the_enumeration():
    N = nerve(cyclic_group_category(3), 2)
    S = sx.spine(2)
    e01 = S.gen_of_label((0, 1))
    want = SimplexKey(N.gen_of_label((1,)))
    maps = sx.enumerate_maps(S, N, fixed={e01: want}, budget=10**6)
    assert len(maps) == 3
    assert all(f(SimplexKey(e01)) == want for f in maps)


# ---------------------------------------------------------------------------
# horn filling


def test_inner_horns_of_a_nerve_fill():
    N = nerve(cyclic_group_category(2), 2)
    for h in sx.horn_maps(N, 2, 1, budget=10**6):
        assert sx.inner_horn_filler(N, h) is not None


def test_outer_horns_of_a_group_nerve_fill():
    N = nerve(cyclic_group_category(2), 2)
    for k in (0, 2):
        for h in sx.horn_maps(N, 2, k, budget=10**6):
            assert sx.inner_horn_filler(N, h) is not None


def test_missing_outer_horn_filler_is_detected():
    # in Delta[1]: the index-0 horn asking for a retraction of the edge
    # (long edge constant at 0, short edge 0 -> 1) has no filler
    D = sx.delta(1)
    H = sx.horn(2, 0)
    v0 = SimplexKey(D.gen_of_label((0,)))
    v1 = SimplexKey(D.gen_of_label((1,)))
    e = SimplexKey(D.gen_of_label((0, 1)))
    h = sx.SimplicialMap(H, D, {
        H.gen_of_label((0,)): v0, H.gen_of_label((1,)): v1,
        H.gen_of_label((2,)): v0,
        H.gen_of_label((0, 1)): e,
        H.gen_of_label((0, 2)): sx.key_degeneracy(v0, 0),
    })
    h.check()
    assert sx.inner_horn_filler(D, h) is None


# ---------------------------------------------------------------------------
# isomorphism testing


def test_iso_check_distinguishes_horn_from_boundary():
    assert sx.iso_check(sx.horn(2, 1), sx.boundary(2), 2) is None


def test_iso_check_matches_differently_built_models():
    phi = sx.iso_check(nerve(chain_poset(1), 1), sx.delta(1), 1)
    assert phi is not None
    # the two outer horns of Delta[2] are NOT isomorphic: face order matters
    assert sx.iso_check(sx.horn(2, 0), sx.horn(2, 2), 2) is None


# ---------------------------------------------------------------------------
# subdivision


def test_subdivision_of_a_simplex_is_its_face_poset_nerve():
    Sd = sx.subdivision(sx.delta(1))
    # three vertices (two endpoints and the edge) and two edges
    assert Sd.n_gens[0] == 3
    assert Sd.n_gens[1] == 2
