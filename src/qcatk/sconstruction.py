"""Cofibration-grid constructions over a Waldhausen structure backed by a
finite category.

Provides the arrow poset Ar[n] and its nerve, the simplicial set of
staircase diagrams of cofibrations with chosen quotients (one quasicategory
per level n), the restricted variant indexed by the unit-square grid, the
complexes of plain cofibration sequences, the forgetful comparison maps
between all three, and the structure maps induced by monotone maps of
finite ordinals.  All levels are nerves of explicitly tabulated diagram
categories, so every verdict reduces to finite table checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import simplicial as sx
from .simplicial import SimplexKey, SimplicialMap, SimplicialSet
from .cats import (
    FinCategory,
    FinFunctor,
    map_category,
    nerve,
    nerve_functor_map,
    poset_category,
    pushout_in_category,
)
from .waldhausen import WaldhausenData, is_pushout_cocone


# -- indexing shapes ----------------------------------------------------------


def ar_poset(n: int) -> FinCategory:
    """Poset of pairs (i, j), 0 <= i <= j <= n, ordered componentwise."""
    elems = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    return poset_category(elems, lambda a, b: a[0] <= b[0] and a[1] <= b[1])


def ar_nerve(n: int) -> SimplicialSet:
    """Nerve of ar_poset(n), stored to dimension 2.

    Maps out of a nerve are determined by vertices, edges, and the
    commutation constraints of the 2-simplices, so the 2-truncation carries
    all the data the diagram categories below consume.  For n <= 1 there is
    nothing nondegenerate above dimension 2 and the nerve is complete."""
    return nerve(ar_poset(n), 3 if n <= 1 else 2)


def restricted_grid(n: int, ambient: SimplicialSet = None):
    """Subcomplex of the arrow-poset nerve of simplices whose vertex chains
    span at most one unit in each coordinate (the part of the nerve lying in
    the product of the two spines).  Returns (grid, inclusion)."""
    N = ambient if ambient is not None else ar_nerve(n)

    def keep(key):
        vs = [N.labels[N.vertex(key, i).gen] for i in range(key.dim + 1)]
        return (
            max(v[0] for v in vs) - min(v[0] for v in vs) <= 1
            and max(v[1] for v in vs) - min(v[1] for v in vs) <= 1
        )

    G, incl = sx.subcomplex(N, keep, d=2)
    # a chain inside a unit square of the grid has at most three distinct
    # elements, so nothing nondegenerate exists above dimension 2
    G.bound = None
    return G, incl


# -- diagram categories -------------------------------------------------------


@dataclass
class GridConstruction:
    """One level of a grid construction: the indexing shape, the category of
    qualifying diagrams and natural transformations, the list decoding object
    indices to maps shape -> nerve, the index of the all-zero diagram and the
    marked morphisms.

    The inherited Waldhausen marking on the nerve of that category (to
    dimension ``d``) is built on the first read of ``wdata`` or ``sset`` and
    kept; callers that need only the category never build the nerve."""

    shape: SimplicialSet
    cat: FinCategory
    maps: list
    zero: int
    marked: frozenset
    d: int
    universe: dict
    report: dict = field(default_factory=dict)

    @cached_property
    def wdata(self) -> WaldhausenData:
        NV = nerve(self.cat, self.d)
        cof = frozenset(SimplexKey(NV.gen_of_label((m,))) for m in self.marked)
        return WaldhausenData(NV, SimplexKey(NV.gen_of_label(self.zero)), cof,
                              self.universe)

    @property
    def sset(self) -> SimplicialSet:
        return self.wdata.underlying


def _nerve_backed(W: WaldhausenData):
    N = W.underlying
    if N.category is None:
        raise ValueError("grid constructions need nerve-backed Waldhausen data")
    return N.category, N


def _mor_marked(W: WaldhausenData, C: FinCategory, N: SimplicialSet, m) -> bool:
    if m in C.id_set:
        return True
    return SimplexKey(N.gen_of_label((m,))) in W.cof


class _DiagramUniverse:
    """Shared plumbing for reading a map shape -> nerve as a diagram of
    objects and morphisms indexed by vertex and edge generators."""

    def __init__(self, W, shape, vertex_elem, edge_ends):
        # vertex_elem: vertex gen -> printable element; edge_ends: edge gen ->
        # (vertex gen, vertex gen)
        self.W = W
        self.C, self.N = _nerve_backed(W)
        self.shape = shape
        self.vertex_elem = dict(vertex_elem)
        self.vgen = {e: g for g, e in self.vertex_elem.items()}
        self.edge_ends = dict(edge_ends)
        self.egen = {
            (self.vertex_elem[a], self.vertex_elem[b]): g
            for g, (a, b) in self.edge_ends.items()
        }
        self.zero_obj = self.N.labels[W.zero.gen]
        self._po_cache = {}

    def obj_at(self, mp: SimplicialMap, elem):
        return self.N.labels[mp.assign[self.vgen[elem]].gen]

    def mor_at(self, mp: SimplicialMap, e1, e2):
        if e1 == e2:
            return self.C.ids[self.obj_at(mp, e1)]
        k = mp.assign[self.egen[(e1, e2)]]
        if k.is_degenerate:
            return self.C.ids[self.N.labels[k.gen]]
        return self.N.labels[k.gen][0]

    def marked(self, m) -> bool:
        return _mor_marked(self.W, self.C, self.N, m)

    def pushout(self, f, g):
        key = (f, g)
        if key not in self._po_cache:
            self._po_cache[key] = pushout_in_category(self.C, f, g)
        return self._po_cache[key]

    def corner_map(self, f, g, apex_obj, i_target, j_target):
        """Mediator from the pushout of (f, g) to the cocone
        (apex_obj, i_target, j_target); None if the pushout is missing."""
        po = self.pushout(f, g)
        if po is None:
            return None
        p, pi, pj = po
        C = self.C
        for h in C.hom(p, apex_obj):
            if C.compose_mor(h, pi) == i_target and C.compose_mor(h, pj) == j_target:
                return h
        raise AssertionError("pushout mediator missing; universal property violated")


def _build_level(W, shape, uni, good_maps, is_cofibration, d, report):
    """Assemble a GridConstruction from the qualifying diagrams.  The
    marking is computed here, since missing corner pushouts go into the
    report; the level nerve waits for its first read."""
    C, N = uni.C, uni.N
    cat, maps = map_category(shape, C, N, maps=good_maps)
    zero_idx = [
        i
        for i, mp in enumerate(maps)
        if all(uni.obj_at(mp, e) == uni.zero_obj for e in uni.vgen)
    ]
    if len(zero_idx) != 1:
        raise AssertionError("expected exactly one all-zero diagram")
    marked = set()
    for m in cat.morphisms:
        if m in cat.id_set:
            continue
        ok, note = is_cofibration(m)
        if ok:
            marked.add(m)
        elif note is not None:
            report.setdefault("corner_pushout_missing", []).append(note)
    universe = dict(W.universe or {})
    universe["bounded"] = True
    universe["note"] = f"diagram category over {len(C.objects)}-object base"
    report.update({"objects": len(maps), "dim": d})
    return GridConstruction(shape, cat, maps, zero_idx[0], frozenset(marked), d,
                            universe, report)


def _top_row_cofibration(uni, maps, row, m):
    """Marking test shared by all three constructions: the listed row of
    components must be marked and each comparison map out of the pushout of a
    row step against the previous component must be marked.

    ``row`` is the list of vertex elements A_0, ..., A_r read left to right.
    Returns (ok, missing-pushout note or None)."""
    a, b, eta_items = m
    eta = dict(eta_items)
    A, B = maps[a], maps[b]
    for e in row:
        if not uni.marked(eta[uni.vgen[e]]):
            return False, None
    for prev, cur in zip(row, row[1:]):
        f = uni.mor_at(A, prev, cur)
        g = eta[uni.vgen[prev]]
        corner = uni.corner_map(
            f, g, uni.obj_at(B, cur), eta[uni.vgen[cur]], uni.mor_at(B, prev, cur)
        )
        if corner is None:
            return False, {"morphism": m, "span": (f, g)}
        if not uni.marked(corner):
            return False, None
    return True, None


def s_n(W: WaldhausenData, n: int, d: int = 2, budget: int = 10**6,
        shape: SimplicialSet = None) -> GridConstruction:
    """Level n of the staircase construction: diagrams over the full arrow
    poset nerve with zero diagonal, marked top-to-right morphisms, and
    pushout squares; natural transformations between them; marking by
    top-row components plus pushout comparison maps."""
    C, N = _nerve_backed(W)
    K = shape if shape is not None else ar_nerve(n)
    P = ar_poset(n)
    vertex_elem = {K.gen_of_label(e): e for e in P.objects}
    edge_ends = {
        K.gen_of_label(((e1, e2),)): (K.gen_of_label(e1), K.gen_of_label(e2))
        for (e1, e2) in P.morphisms
        if e1 != e2
    }
    uni = _DiagramUniverse(W, K, vertex_elem, edge_ends)
    fixed = {uni.vgen[(i, i)]: W.zero for i in range(n + 1)}
    maps_all = sx.enumerate_maps(K, N, fixed=fixed, budget=budget)

    def qualifies(mp):
        for i in range(n + 1):
            for j in range(i, n + 1):
                for k in range(j, n + 1):
                    if j < k and not uni.marked(uni.mor_at(mp, (i, j), (i, k))):
                        return False
                    if i < j < k:
                        if not is_pushout_cocone(
                            C,
                            uni.mor_at(mp, (i, j), (i, k)),
                            uni.mor_at(mp, (i, j), (j, j)),
                            uni.obj_at(mp, (j, k)),
                            uni.mor_at(mp, (i, k), (j, k)),
                            uni.mor_at(mp, (j, j), (j, k)),
                        ):
                            return False
        return True

    good = [mp for mp in maps_all if qualifies(mp)]
    report = {"enumerated": len(maps_all), "level": n, "kind": "staircase"}
    report["dropped_rows"] = _count_dropped_rows(uni, good, n)
    row = [(0, j) for j in range(n + 1)]
    return _build_level(
        W,
        K,
        uni,
        good,
        lambda m: _top_row_cofibration(uni, good, row, m),
        d,
        report,
    )


def _count_dropped_rows(uni, good, n):
    """Sequences of marked morphisms out of zero admitting no qualifying
    diagram with that top row (quotient data missing in the bounded base)."""
    C = uni.C
    rows = set()
    frontier = [(uni.zero_obj, ())]
    for _ in range(n):
        nxt = []
        for obj, seq in frontier:
            for m in C.morphisms:
                if C.src[m] == obj and uni.marked(m):
                    nxt.append((C.tgt[m], seq + (m,)))
        frontier = nxt
    present = set()
    for mp in good:
        present.add(tuple(uni.mor_at(mp, (0, j - 1), (0, j)) for j in range(1, n + 1)))
    rows = {seq for _, seq in frontier}
    return len(rows - present)


def s_bar_n(W: WaldhausenData, n: int, d: int = 2, budget: int = 10**6,
            ambient: SimplicialSet = None) -> GridConstruction:
    """Level n of the restricted construction: diagrams over the unit-square
    grid only, with conditions on adjacent squares."""
    C, N = _nerve_backed(W)
    A = ambient if ambient is not None else ar_nerve(n)
    K, _incl = restricted_grid(n, ambient=A)
    vertex_elem = {g: A.labels[K.labels[g].gen] for g in K.gens(0)}

    def ends(g):
        e = SimplexKey(g)
        return (K.vertex(e, 0).gen, K.vertex(e, 1).gen)

    edge_ends = {g: ends(g) for g in K.gens(1)}
    uni = _DiagramUniverse(W, K, vertex_elem, edge_ends)
    fixed = {uni.vgen[(i, i)]: W.zero for i in range(n + 1)}
    maps_all = sx.enumerate_maps(K, N, fixed=fixed, budget=budget)

    def qualifies(mp):
        for i in range(n + 1):
            for j in range(i, n):
                if not uni.marked(uni.mor_at(mp, (i, j), (i, j + 1))):
                    return False
        for i in range(n + 1):
            for j in range(i + 1, n):
                if not is_pushout_cocone(
                    C,
                    uni.mor_at(mp, (i, j), (i, j + 1)),
                    uni.mor_at(mp, (i, j), (i + 1, j)),
                    uni.obj_at(mp, (i + 1, j + 1)),
                    uni.mor_at(mp, (i, j + 1), (i + 1, j + 1)),
                    uni.mor_at(mp, (i + 1, j), (i + 1, j + 1)),
                ):
                    return False
        return True

    good = [mp for mp in maps_all if qualifies(mp)]
    report = {"enumerated": len(maps_all), "level": n, "kind": "restricted"}
    row = [(0, j) for j in range(n + 1)]
    return _build_level(
        W,
        K,
        uni,
        good,
        lambda m: _top_row_cofibration(uni, good, row, m),
        d,
        report,
    )


def f_n(W: WaldhausenData, n: int, d: int = 2, budget: int = 10**6) -> GridConstruction:
    """Level n of the cofibration-sequence construction: the 0-full part of
    the diagram category over the spine on sequences of marked edges."""
    C, N = _nerve_backed(W)
    K = sx.spine(n)
    vertex_elem = {K.gen_of_label((i,)): i for i in range(n + 1)}
    edge_ends = {
        K.gen_of_label((i - 1, i)): (K.gen_of_label((i - 1,)), K.gen_of_label((i,)))
        for i in range(1, n + 1)
    }
    uni = _DiagramUniverse(W, K, vertex_elem, edge_ends)
    maps_all = sx.enumerate_maps(K, N, budget=budget)

    def qualifies(mp):
        return all(uni.marked(uni.mor_at(mp, i - 1, i)) for i in range(1, n + 1))

    good = [mp for mp in maps_all if qualifies(mp)]
    report = {"enumerated": len(maps_all), "level": n, "kind": "sequences"}
    row = list(range(n + 1))
    return _build_level(
        W,
        K,
        uni,
        good,
        lambda m: _top_row_cofibration(uni, good, row, m),
        d,
        report,
    )


# -- comparison functors -------------------------------------------------------


def _index_by_assign(maps):
    return {tuple(sorted(mp.assign.items())): i for i, mp in enumerate(maps)}


def _restriction_functor(source: GridConstruction, target: GridConstruction,
                         incl: SimplicialMap, vertex_transfer) -> FinFunctor:
    """Functor between diagram categories given by precomposition with an
    inclusion of shapes.  ``vertex_transfer`` maps each vertex generator of
    the target shape to the corresponding vertex generator of the source
    shape."""
    index = _index_by_assign(target.maps)
    obj_map = {}
    for a, mp in enumerate(source.maps):
        comp = mp.compose(incl)
        obj_map[a] = index[tuple(sorted(comp.assign.items()))]
    mor_map = {}
    for m in source.cat.morphisms:
        a, b, eta_items = m
        eta = dict(eta_items)
        eta2 = tuple(
            sorted((g, eta[vertex_transfer[g]]) for g in target.shape.gens(0))
        )
        mor_map[m] = (obj_map[a], obj_map[b], eta2)
    F = FinFunctor(source.cat, target.cat, obj_map, mor_map)
    F.check()
    return F


def functor_equivalence_report(F: FinFunctor) -> dict:
    """Essential surjectivity, fullness, faithfulness by table search."""
    C, D = F.source, F.target
    images = {F.obj_map[c] for c in C.objects}
    ess = all(
        any(any(D.is_iso(m) for m in D.hom(o, i)) for i in images) for o in D.objects
    )
    full = True
    faithful = True
    for a in C.objects:
        for b in C.objects:
            image = [F.mor_map[m] for m in C.hom(a, b)]
            if len(set(image)) != len(image):
                faithful = False
            if set(image) != set(D.hom(F.obj_map[a], F.obj_map[b])):
                full = False
    return {
        "essentially_surjective": ess,
        "full": full,
        "faithful": faithful,
        "equivalence": ess and full and faithful,
    }


def _reflects_marking(F: FinFunctor, src_marked, tgt_marked) -> dict:
    witness = None
    ok = True
    for m in F.source.morphisms:
        img = F.mor_map[m]
        img_marked = img in tgt_marked or img in F.target.id_set
        m_marked = m in src_marked or m in F.source.id_set
        if img_marked and not m_marked:
            ok = False
            witness = m
            break
    return {"reflects_cofibrations": ok, "witness": witness}


def forgetful_maps(W: WaldhausenData, n: int, d: int = 2, budget: int = 10**6) -> dict:
    """The two comparison maps at level n: restriction from the full grid to
    the unit-square grid, and further to the top row read as a sequence of
    n-1 cofibrations.  Each comes with a table-checked equivalence verdict
    and a marking-reflection verdict."""
    if n < 1:
        raise ValueError("comparison maps need n >= 1")
    A = ar_nerve(n)
    full_level = s_n(W, n, d, budget=budget, shape=A)
    bar_level = s_bar_n(W, n, d, budget=budget, ambient=A)
    seq_level = f_n(W, n - 1, d, budget=budget)

    K, Kbar, Kseq = full_level.shape, bar_level.shape, seq_level.shape
    incl_bar = SimplicialMap(Kbar, K, {g: Kbar.labels[g] for g in Kbar.all_gens()})
    transfer_bar = {
        g: K.gen_of_label(A.labels[Kbar.labels[g].gen]) for g in Kbar.gens(0)
    }
    F1 = _restriction_functor(full_level, bar_level, incl_bar, transfer_bar)

    bar_vgen = {A.labels[Kbar.labels[g].gen]: g for g in Kbar.gens(0)}
    bar_egen = {}
    for g in Kbar.gens(1):
        e = SimplexKey(g)
        a = A.labels[Kbar.labels[Kbar.vertex(e, 0).gen].gen]
        b = A.labels[Kbar.labels[Kbar.vertex(e, 1).gen].gen]
        bar_egen[(a, b)] = g
    emb_assign = {}
    for i in range(n):
        emb_assign[Kseq.gen_of_label((i,))] = SimplexKey(bar_vgen[(0, i + 1)])
    for i in range(1, n):
        emb_assign[Kseq.gen_of_label((i - 1, i))] = SimplexKey(
            bar_egen[((0, i), (0, i + 1))]
        )
    emb = SimplicialMap(Kseq, Kbar, emb_assign)
    transfer_seq = {g: bar_vgen[(0, Kseq.labels[g][0] + 1)] for g in Kseq.gens(0)}
    F2 = _restriction_functor(bar_level, seq_level, emb, transfer_seq)

    out = {"levels": {"full": full_level, "restricted": bar_level, "sequences": seq_level}}
    for name, F, src, tgt in (
        ("full_to_restricted", F1, full_level, bar_level),
        ("restricted_to_sequences", F2, bar_level, seq_level),
    ):
        rep = functor_equivalence_report(F)
        rep.update(_reflects_marking(F, src.marked, tgt.marked))
        rep["dim"] = d
        out[name] = {
            "functor": F,
            "map": nerve_functor_map(F, src.sset, tgt.sset),
            "report": rep,
        }
    return out


# -- structure maps of the simplicial object -----------------------------------


def arrow_poset_functor(theta, n: int) -> FinFunctor:
    """Functor of arrow posets induced by a monotone map [m] -> [n] given as
    the tuple of its values."""
    m = len(theta) - 1
    if any(theta[i] > theta[i + 1] for i in range(m)) or any(
        not (0 <= t <= n) for t in theta
    ):
        raise ValueError("theta must be monotone into [n]")
    P, Q = ar_poset(m), ar_poset(n)
    obj_map = {(i, j): (theta[i], theta[j]) for (i, j) in P.objects}
    mor_map = {(a, b): (obj_map[a], obj_map[b]) for (a, b) in P.morphisms}
    F = FinFunctor(P, Q, obj_map, mor_map)
    F.check()
    return F


def s_structure_functor(W: WaldhausenData, theta, source: GridConstruction,
                        target: GridConstruction) -> FinFunctor:
    """The functor between staircase levels induced by a monotone
    theta: [m] -> [n]; source is level n, target is level m."""
    n = max(v[1] for v in (source.shape.labels[g] for g in source.shape.gens(0)))
    arf = arrow_poset_functor(theta, n)
    shape_map = nerve_functor_map(arf, target.shape, source.shape)
    index = _index_by_assign(target.maps)
    obj_map = {}
    for a, mp in enumerate(source.maps):
        comp = mp.compose(shape_map)
        key = tuple(sorted(comp.assign.items()))
        if key not in index:
            raise AssertionError(
                "structure map leaves the qualifying diagrams; source diagram "
                f"{a} has no image"
            )
        obj_map[a] = index[key]
    mor_map = {}
    for m in source.cat.morphisms:
        a, b, eta_items = m
        eta = dict(eta_items)
        eta2 = tuple(
            sorted(
                (
                    g,
                    eta[source.shape.gen_of_label(arf.obj_map[target.shape.labels[g]])],
                )
                for g in target.shape.gens(0)
            )
        )
        mor_map[m] = (obj_map[a], obj_map[b], eta2)
    F = FinFunctor(source.cat, target.cat, obj_map, mor_map)
    F.check()
    return F


def s_simplicial_maps(W: WaldhausenData, theta, source: GridConstruction,
                      target: GridConstruction) -> dict:
    """Structure map of levels for a monotone theta: [m] -> [n], returned as
    the diagram-category functor plus the induced map of nerves."""
    F = s_structure_functor(W, theta, source, target)
    return {"functor": F, "map": nerve_functor_map(F, source.sset, target.sset)}
