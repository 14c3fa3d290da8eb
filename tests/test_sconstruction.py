"""Grid constructions (staircase, restricted, and cofibration-sequence
levels), comparison functors, and simplicial structure maps."""

import functools

import pytest

from qcatk import io
from qcatk import ktheory as kt
from qcatk import sconstruction as sc
from qcatk import ssets as ss
from qcatk import zoo
from qcatk import simplicial as sx
from qcatk.cats import (
    FinFunctor,
    functor_equivalence_report,
    functor_from_nerve_map,
    map_category,
    nerve,
    nerve_functor_map,
)
from qcatk.sconstruction import (
    ar_nerve,
    ar_poset,
    f_n,
    forgetful_maps,
    level_functor,
    restricted_grid,
    s_bar_n,
    s_n,
    s_structure_functor,
)
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import (
    ExactFunctorData,
    WaldhausenData,
    pointed_sets_waldhausen,
    validate_exact,
)
from qcatk.zoo import pointed_sets_with_duplicate

W2 = pointed_sets_waldhausen(2, 2)
W3 = pointed_sets_waldhausen(3, 2)


def test_arrow_poset_shape():
    P = ar_poset(2)
    assert len(P.objects) == 6  # pairs i <= j in [2]
    N = ar_nerve(2)
    assert len(N.gens(0)) == 6


def test_restricted_grid_counts_match_the_staircase_region():
    K, incl = restricted_grid(2)
    assert K.n_gens == [6, 9, 4]
    # independent oracle: (n+1)(n+2)/2 vertices; the region is a disk, so
    # its Euler characteristic is 1
    n = 2
    assert K.n_gens[0] == (n + 1) * (n + 2) // 2
    assert K.n_gens[0] - K.n_gens[1] + K.n_gens[2] == 1
    incl.check()


def test_level_object_counts_small_instance():
    assert len(s_n(W2, 1).cat.objects) == 2
    assert len(s_n(W2, 2).cat.objects) == 3
    assert len(s_bar_n(W2, 2).cat.objects) == 3
    assert len(f_n(W2, 0).cat.objects) == 2
    assert len(f_n(W2, 1).cat.objects) == 3


def test_level_object_counts_bound_three_instance():
    assert len(s_n(W3, 1).cat.objects) == 3
    assert len(s_n(W3, 2).cat.objects) == 9
    assert len(s_bar_n(W3, 2).cat.objects) == 9
    assert len(f_n(W3, 0).cat.objects) == 3
    assert len(f_n(W3, 1).cat.objects) == 8


def test_level_zero_and_one_are_degenerate_cases():
    # level 0: only the zero diagram; level 1: objects are the marked maps
    # out of zero, i.e. the objects themselves
    lv0 = s_n(W3, 0)
    assert len(lv0.cat.objects) == 1
    lv1 = s_n(W3, 1)
    assert len(lv1.cat.objects) == len(W3.underlying.simplices(0))


@pytest.mark.parametrize("n", [1, 2])
def test_comparison_functors_are_equivalences(n):
    out = forgetful_maps(W3, n)
    levels = out["levels"]
    for name, src, tgt in (("full_to_restricted", "full", "restricted"),
                           ("restricted_to_sequences", "restricted", "sequences")):
        rep = out[name]["report"]
        assert rep["equivalence"], (n, name, rep)
        assert rep["reflects_cofibrations"], (n, name, rep)
        nerve_functor_map(out[name]["functor"], levels[src].sset, levels[tgt].sset).check()


def test_comparison_detects_a_corrupted_marking():
    # moving one marked morphism out of the sequence-level marking flips the
    # reflection verdict for a functor into that level
    out = forgetful_maps(W3, 2)
    F = out["restricted_to_sequences"]["functor"]
    from qcatk.sconstruction import _reflects_marking

    src_marked = out["levels"]["restricted"].marked
    tgt_marked = out["levels"]["sequences"].marked
    assert _reflects_marking(F, src_marked, tgt_marked)["reflects_cofibrations"]
    moved = set(tgt_marked) | {
        F.mor_map[m] for m in F.source.morphisms
        if m not in src_marked and m not in F.source.id_set
    }
    corrupted = _reflects_marking(F, src_marked, moved)
    assert not corrupted["reflects_cofibrations"]
    assert corrupted["witness"] is not None


def test_structure_maps_compose_functorially():
    lv0 = s_n(W2, 0)
    lv1 = s_n(W2, 1)
    lv2 = s_n(W2, 2)
    d0 = s_structure_functor((1, 2), lv2, lv1)  # face 0
    d1 = s_structure_functor((0, 2), lv2, lv1)  # face 1
    d2 = s_structure_functor((0, 1), lv2, lv1)  # face 2
    to0_a = s_structure_functor((2,), lv2, lv0)
    # simplicial identity at the level of functors: restricting along
    # [0] -> [2], value 2, equals either two-step route through level 1
    step_a = s_structure_functor((1,), lv1, lv0)
    comp = {a: step_a.obj_map[d0.obj_map[a]] for a in d0.source.objects}
    assert comp == to0_a.obj_map
    # degeneracy then either adjacent face is the identity
    s0 = s_structure_functor((0, 0, 1), lv1, lv2)
    assert all(d0.obj_map[s0.obj_map[a]] == a for a in s0.source.objects)
    assert all(d1.obj_map[s0.obj_map[a]] == a for a in s0.source.objects)
    assert d2 is not None


def test_dropped_top_rows_are_reported():
    # with only two pointed sets, some marked composites lack quotient data
    rep2 = s_n(W2, 2).report
    assert "dropped_rows" in rep2
    assert rep2["enumerated"] >= len(s_n(W2, 2).cat.objects)


def test_equivalence_report_shape_is_honest():
    out = forgetful_maps(W2, 1)
    rep = functor_equivalence_report(out["full_to_restricted"]["functor"])
    assert set(rep) == {"essentially_surjective", "full", "faithful", "equivalence"}
    assert rep["equivalence"] == (
        rep["essentially_surjective"] and rep["full"] and rep["faithful"]
    )


# ---------------------------------------------------------------------------
# lazy level nerves against the eager assembly


def _eager_build(level, kind, n, zeros, qualifies, row, d):
    """Oracle for ``_GridLevel.build``: the level assembly that builds the
    level nerve, its marking and its Waldhausen data at once."""
    W, shape, C, N = level.W, level.shape, level.C, level.N
    maps_all = sx.enumerate_maps(shape, N, fixed={level.vgen[e]: W.zero for e in zeros})
    maps = [mp for mp in maps_all if qualifies(mp)]
    cat = map_category(shape, C, N, maps)
    zero_idx = [
        i
        for i, mp in enumerate(maps)
        if all(level.obj_at(mp, e) == level.zero_obj for e in level.vgen)
    ]
    assert len(zero_idx) == 1
    level.cat, level.maps = cat, maps  # read by the marking test
    report = {"enumerated": len(maps_all), "level": n, "kind": kind}
    marked = set()
    for m in cat.morphisms:
        if m in cat.id_set:
            continue
        ok, note = sc._top_row_cofibration(level, row, m)
        if ok:
            marked.add(m)
        elif note is not None:
            report.setdefault("corner_pushout_missing", []).append(note)
    NV = nerve(cat, d)
    cof = frozenset(SimplexKey(NV.gen_of_label((m,))) for m in marked)
    universe = dict(W.universe or {})
    universe["bounded"] = True
    universe["note"] = f"diagram category over {len(C.objects)}-object base"
    report.update({"objects": len(maps), "dim": d})
    level.report = report
    # the cached ``wdata`` filled in at once
    vars(level)["wdata"] = WaldhausenData(NV, SimplexKey(NV.gen_of_label(zero_idx[0])), cof,
                                          universe)
    return level


def _eager(monkeypatch, build, *args):
    with monkeypatch.context() as m:
        m.setattr(sc._GridLevel, "build", _eager_build)
        return build(*args)


DIFF_INSTANCES = {
    "ps2": W2,
    "ps3": W3,
    "dup22": pointed_sets_with_duplicate(2, 2)[0],
    "dup23": pointed_sets_with_duplicate(2, 3)[0],
}


# f_n(ps3, 2) is left out: its 8 s build is the cost of level 3 of the
# staircase construction, which the tests do not reach yet
DIFF_CASES = [
    (name, build, n)
    for name in sorted(DIFF_INSTANCES)
    for build in (s_n, s_bar_n, f_n)
    for n in (0, 1, 2)
    if (name, build, n) != ("ps3", f_n, 2)
]


@pytest.mark.parametrize(
    "name,build,n", DIFF_CASES, ids=[f"{a}-{b.__name__}-{n}" for a, b, n in DIFF_CASES]
)
def test_lazy_level_matches_the_eager_assembly(monkeypatch, name, build, n):
    W = DIFF_INSTANCES[name]
    level = build(W, n)
    oracle = _eager(monkeypatch, build, W, n)
    assert level.report == oracle.report
    assert "wdata" not in vars(level)  # nothing has read the nerve yet
    assert io.serialize_sset(level.sset) == io.serialize_sset(oracle.sset)
    assert level.wdata.cof == oracle.wdata.cof
    assert level.wdata.zero == oracle.wdata.zero
    assert level.wdata.universe == oracle.wdata.universe
    assert level.sset is level.wdata.underlying


@pytest.mark.parametrize("name", sorted(DIFF_INSTANCES))
def test_class_group_base_vertex_is_the_eager_zero(monkeypatch, name):
    # level 0 holds the all-zero diagram alone; levels 1 and 2 hold others
    W = DIFF_INSTANCES[name]
    B, grids = kt.s_equiv_truncation(W)
    for n in range(3):
        zero = SimplexKey(B.levels[n].gen_of_label(grids[n].zero))
        assert zero == _eager(monkeypatch, s_n, W, n).wdata.zero, n


# ---------------------------------------------------------------------------
# the one level functor against the three functors it replaced


def _index_by_assign(maps):
    return {tuple(sorted(mp.assign.items())): i for i, mp in enumerate(maps)}


def _oracle_restriction_functor(source, target, incl, vertex_transfer):
    """Oracle: precomposition with an inclusion of shapes, components moved
    along a vertex table of target-shape to source-shape generators."""
    index = _index_by_assign(target.maps)
    obj_map = {a: index[tuple(sorted(mp.compose(incl).assign.items()))]
               for a, mp in enumerate(source.maps)}
    mor_map = {}
    for m in source.cat.morphisms:
        a, b, eta_items = m
        eta = dict(eta_items)
        eta2 = tuple(sorted((g, eta[vertex_transfer[g]]) for g in target.shape.gens(0)))
        mor_map[m] = (obj_map[a], obj_map[b], eta2)
    return FinFunctor(source.cat, target.cat, obj_map, mor_map)


def _oracle_structure_functor(theta, source, target):
    """Oracle: the staircase structure functor, components moved through the
    arrow-poset functor's object map."""
    n = max(v[1] for v in (source.shape.labels[g] for g in source.shape.gens(0)))
    arf = sc.arrow_poset_functor(theta, n)
    shape_map = nerve_functor_map(arf, target.shape, source.shape)
    index = _index_by_assign(target.maps)
    obj_map = {a: index[tuple(sorted(mp.compose(shape_map).assign.items()))]
               for a, mp in enumerate(source.maps)}
    mor_map = {}
    for m in source.cat.morphisms:
        a, b, eta_items = m
        eta = dict(eta_items)
        eta2 = tuple(sorted(
            (g, eta[source.shape.gen_of_label(arf.obj_map[target.shape.labels[g]])])
            for g in target.shape.gens(0)))
        mor_map[m] = (obj_map[a], obj_map[b], eta2)
    return FinFunctor(source.cat, target.cat, obj_map, mor_map)


def _oracle_exact_level_functor(G, src_level, tgt_level):
    """Oracle: an exact functor pushed through the rebuilt nerve map of its
    underlying functor."""
    Ffin = functor_from_nerve_map(G.themap)
    push = nerve_functor_map(Ffin, G.themap.source, G.themap.target)
    index = _index_by_assign(tgt_level.maps)
    obj_map = {a: index[tuple(sorted(push.compose(mp).assign.items()))]
               for a, mp in enumerate(src_level.maps)}
    mor_map = {}
    for m in src_level.cat.morphisms:
        a, b, eta_items = m
        eta2 = tuple(sorted((g, Ffin.mor_map[x]) for g, x in eta_items))
        mor_map[m] = (obj_map[a], obj_map[b], eta2)
    return FinFunctor(src_level.cat, tgt_level.cat, obj_map, mor_map)


def _assert_same_functor(F, oracle):
    assert F.obj_map == oracle.obj_map
    assert F.mor_map == oracle.mor_map


@functools.lru_cache(maxsize=None)
def _staircase_levels(name):
    W = DIFF_INSTANCES[name]
    return [s_n(W, n) for n in range(3)]


# every face d_i: level n -> n - 1 and degeneracy s_i: level n -> n + 1, n <= 2
THETAS = (
    [(tuple(j for j in range(n + 1) if j != i), n, n - 1)
     for n in (1, 2) for i in range(n + 1)]
    + [(tuple(range(i + 1)) + tuple(range(i, n + 1)), n, n + 1)
       for n in (0, 1) for i in range(n + 1)]
)


@pytest.mark.parametrize("name", sorted(DIFF_INSTANCES))
def test_structure_functors_match_the_oracle(name):
    levels = _staircase_levels(name)
    for theta, n, m in THETAS:
        F = s_structure_functor(theta, levels[n], levels[m])
        _assert_same_functor(F, _oracle_structure_functor(theta, levels[n], levels[m]))


@pytest.mark.parametrize("name,n", [("ps3", 1), ("ps3", 2), ("dup22", 1), ("dup22", 2)])
def test_forgetful_functors_match_the_oracle(name, n):
    out = forgetful_maps(DIFF_INSTANCES[name], n)
    full, bar, seq = (out["levels"][k] for k in ("full", "restricted", "sequences"))
    K, Kbar, Kseq = full.shape, bar.shape, seq.shape
    incl_bar = ss.SimplicialMap(Kbar, K, {g: Kbar.labels[g] for g in Kbar.all_gens()})
    transfer_bar = {g: Kbar.labels[g].gen for g in Kbar.gens(0)}
    bar_vgen = {K.labels[Kbar.labels[g].gen]: g for g in Kbar.gens(0)}
    bar_egen = {}
    for g in Kbar.gens(1):
        e = SimplexKey(g)
        a = K.labels[Kbar.labels[Kbar.vertex(e, 0).gen].gen]
        b = K.labels[Kbar.labels[Kbar.vertex(e, 1).gen].gen]
        bar_egen[(a, b)] = g
    emb_assign = {Kseq.gen_of_label((i,)): SimplexKey(bar_vgen[(0, i + 1)]) for i in range(n)}
    for i in range(1, n):
        emb_assign[Kseq.gen_of_label((i - 1, i))] = SimplexKey(bar_egen[((0, i), (0, i + 1))])
    emb = ss.SimplicialMap(Kseq, Kbar, emb_assign)
    transfer_seq = {g: bar_vgen[(0, Kseq.labels[g][0] + 1)] for g in Kseq.gens(0)}
    _assert_same_functor(out["full_to_restricted"]["functor"],
                         _oracle_restriction_functor(full, bar, incl_bar, transfer_bar))
    _assert_same_functor(out["restricted_to_sequences"]["functor"],
                         _oracle_restriction_functor(bar, seq, emb, transfer_seq))


def _exact_map(k, way):
    """The inclusion of Ps<=2 into dup(2, k), or the exact map back that sends
    the duplicate to the object it copies, so it renames components."""
    G = pointed_sets_with_duplicate(2, k)[1]
    if way == "include":
        return G
    D, C = G.target.underlying.category, G.source.underlying.category
    collapse = FinFunctor(D, C, {o: 2 if o == "dup2" else o for o in D.objects},
                          {m: zoo._underlying_morphism(m) for m in D.morphisms})
    themap = nerve_functor_map(collapse, G.target.underlying, G.source.underlying)
    return ExactFunctorData(themap, G.target, G.source)


EXACT_CASES = [(k, way, build, n) for k in (2, 3) for way in ("include", "collapse")
               for build in (f_n, s_n) for n in (0, 1, 2)]


@pytest.mark.parametrize("k,way,build,n", EXACT_CASES,
                         ids=[f"dup2{k}-{w}-{b.__name__}-{n}" for k, w, b, n in EXACT_CASES])
def test_exact_level_functors_match_the_oracle(k, way, build, n):
    G = _exact_map(k, way)
    assert validate_exact(G)["ok"]
    src, tgt = build(G.source, n), build(G.target, n)
    F = level_functor(src, tgt, base_map=G.themap)
    _assert_same_functor(F, _oracle_exact_level_functor(G, src, tgt))
