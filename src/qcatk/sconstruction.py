"""Cofibration-grid constructions over a Waldhausen structure backed by a
finite category.

Provides the arrow poset Ar[n] and its nerve, and three kinds of level, one
quasicategory per n: staircase diagrams of cofibrations with chosen
quotients (:func:`s_n`), the same diagrams restricted to the unit-square
grid (:func:`s_bar_n`), and plain cofibration sequences (:func:`f_n`).
Each kind states its shape, the elements fixed at zero, its diagram
condition and its marking row.  Each level is one object: it reads maps
from the shape into the base nerve as diagrams, its ``build`` enumerates,
filters and assembles the level, and its nerve and Waldhausen data are
built on first read.  Every functor between levels, whether a forgetful
comparison map (:func:`forgetful_maps`), a structure map induced by a
monotone map of finite ordinals (:func:`s_structure_functor`) or the map
induced by an exact functor, is one :func:`level_functor`.  All levels are
nerves of explicitly tabulated diagram categories, so every verdict
reduces to finite table checks.
"""

from __future__ import annotations

from functools import cache, cached_property

from . import simplicial as sx
from .cats import (
    FinFunctor,
    edge_morphism,
    functor_equivalence_report,
    functor_from_nerve_map,
    map_category,
    nerve,
    nerve_functor_map,
    poset_category,
)
from .fincat import FinCategory
from .ssets import SimplexKey, SimplicialMap, SimplicialSet
from .waldhausen import WaldhausenData, nerve_waldhausen


# -- indexing shapes ----------------------------------------------------------


def ar_poset(n: int) -> FinCategory:
    """Poset of pairs (i, j), 0 <= i <= j <= n, ordered componentwise."""
    elems = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    return poset_category(elems, lambda a, b: a[0] <= b[0] and a[1] <= b[1])


@cache
def ar_nerve(n: int) -> SimplicialSet:
    """Nerve of ar_poset(n) to dimension 2; one object per n, so shape maps compose.

    Maps out of a nerve are determined by vertices, edges, and the
    commutation constraints of the 2-simplices, so the 2-truncation carries
    all the data the diagram categories below consume.  For n <= 1 there is
    nothing nondegenerate above dimension 2 and the nerve is complete."""
    return nerve(ar_poset(n), 3 if n <= 1 else 2)


@cache
def restricted_grid(n: int):
    """Subcomplex of ``ar_nerve(n)`` of simplices whose vertex chains span
    at most one unit in each coordinate (the part of the nerve lying in the
    product of the two spines).  Returns (grid, inclusion), one pair per n."""
    N = ar_nerve(n)

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


# -- diagram levels -----------------------------------------------------------


class _GridLevel:
    """One level of a grid construction, in two steps.  The constructor
    reads maps shape -> nerve as diagrams of objects and morphisms:
    ``vertex_elem`` names each vertex generator of the shape by an element,
    and an edge is named by the elements at its ends.  :meth:`build` then
    enumerates the diagrams, keeps the qualifying ones and assembles the
    category of diagrams and natural transformations, the list decoding
    object indices to diagrams, the index of the all-zero diagram and the
    marked morphisms.

    The inherited Waldhausen marking on the nerve of that category (to
    dimension ``d``, by :func:`waldhausen.nerve_waldhausen`) is built on the
    first read of ``wdata`` or ``sset`` and kept; callers that need only the
    category never build the nerve."""

    def __init__(self, W: WaldhausenData, shape: SimplicialSet, vertex_elem: dict):
        N = W.underlying
        if N.category is None:
            raise ValueError("grid constructions need nerve-backed Waldhausen data")
        self.W, self.C, self.N, self.shape = W, N.category, N, shape
        self.vgen = {e: g for g, e in vertex_elem.items()}

        def ends(g):
            return tuple(vertex_elem[shape.vertex(SimplexKey(g), i).gen] for i in (0, 1))

        self.egen = {ends(g): g for g in shape.gens(1)}
        self.zero_obj = N.labels[W.zero.gen]

    def obj_at(self, mp: SimplicialMap, elem):
        return self.N.labels[mp.assign[self.vgen[elem]].gen]

    def mor_at(self, mp: SimplicialMap, e1, e2):
        if e1 == e2:
            return self.C.ids[self.obj_at(mp, e1)]
        return edge_morphism(self.C, self.N, mp.assign[self.egen[(e1, e2)]])

    def base_marked(self, m) -> bool:
        """Whether a morphism of the base category is an identity or marked."""
        return m in self.C.id_set or SimplexKey(self.N.gen_of_label((m,))) in self.W.cof

    def build(self, kind: str, n: int, zeros, qualifies, row, d: int) -> _GridLevel:
        """Level n: the maps shape -> nerve with the elements ``zeros`` at
        the zero object that pass ``qualifies``, marked along the vertex
        elements ``row``.  The marking is computed here, since missing
        corner pushouts go into the report; the level nerve waits for its
        first read."""
        fixed = {self.vgen[e]: self.W.zero for e in zeros}
        maps_all = sx.enumerate_maps(self.shape, self.N, fixed=fixed)
        self.maps = [mp for mp in maps_all if qualifies(mp)]
        self.cat = map_category(self.shape, self.C, self.N, self.maps)
        zero_idx = [
            i
            for i, mp in enumerate(self.maps)
            if all(self.obj_at(mp, e) == self.zero_obj for e in self.vgen)
        ]
        if len(zero_idx) != 1:
            raise AssertionError("expected exactly one all-zero diagram")
        self.zero, self.d = zero_idx[0], d
        self.report = {"enumerated": len(maps_all), "level": n, "kind": kind}
        marked = set()
        for m in self.cat.morphisms:
            if m in self.cat.id_set:
                continue
            ok, note = _top_row_cofibration(self, row, m)
            if ok:
                marked.add(m)
            elif note is not None:
                self.report.setdefault("corner_pushout_missing", []).append(note)
        self.marked = frozenset(marked)
        self.universe = dict(self.W.universe or {})
        self.universe["bounded"] = True
        self.universe["note"] = f"diagram category over {len(self.C.objects)}-object base"
        self.report.update({"objects": len(self.maps), "dim": d})
        return self

    @cached_property
    def wdata(self) -> WaldhausenData:
        return nerve_waldhausen(self.cat, self.zero, self.marked, self.d, self.universe)

    @property
    def sset(self) -> SimplicialSet:
        return self.wdata.underlying


def _top_row_cofibration(level: _GridLevel, row, m):
    """Marking test shared by all three constructions: the listed row of
    components must be marked and each comparison map out of the pushout of a
    row step against the previous component must be marked.

    ``row`` is the list of vertex elements A_0, ..., A_r read left to right.
    Returns (ok, missing-pushout note or None)."""
    a, b, eta_items = m
    eta = dict(eta_items)
    A, B = level.maps[a], level.maps[b]
    for e in row:
        if not level.base_marked(eta[level.vgen[e]]):
            return False, None
    for prev, cur in zip(row, row[1:]):
        f = level.mor_at(A, prev, cur)
        g = eta[level.vgen[prev]]
        if level.C.pushout(f, g) is None:
            return False, {"morphism": m, "span": (f, g)}
        # the mediator from the pushout of (f, g) to the square's corner
        corner = level.C.mediator(f, g, level.obj_at(B, cur), eta[level.vgen[cur]],
                                  level.mor_at(B, prev, cur))
        if corner is None:
            raise AssertionError("pushout mediator missing; universal property violated")
        if not level.base_marked(corner):
            return False, None
    return True, None


def s_n(W: WaldhausenData, n: int, d: int = 2) -> _GridLevel:
    """Level n of the staircase construction: diagrams over the full arrow
    poset nerve with zero diagonal, marked top-to-right morphisms, and
    pushout squares; natural transformations between them; marking by
    top-row components plus pushout comparison maps."""
    K = ar_nerve(n)
    lv = _GridLevel(W, K, {g: K.labels[g] for g in K.gens(0)})

    def qualifies(mp):
        for i in range(n + 1):
            for j in range(i, n + 1):
                for k in range(j, n + 1):
                    if j < k and not lv.base_marked(lv.mor_at(mp, (i, j), (i, k))):
                        return False
                    if i < j < k:
                        if not lv.C.is_pushout_cocone(
                            lv.mor_at(mp, (i, j), (i, k)),
                            lv.mor_at(mp, (i, j), (j, j)),
                            lv.obj_at(mp, (j, k)),
                            lv.mor_at(mp, (i, k), (j, k)),
                            lv.mor_at(mp, (j, j), (j, k)),
                        ):
                            return False
        return True

    level = lv.build("staircase", n, [(i, i) for i in range(n + 1)], qualifies,
                     [(0, j) for j in range(n + 1)], d)
    level.report["dropped_rows"] = _count_dropped_rows(level, n)
    return level


def _count_dropped_rows(level: _GridLevel, n: int) -> int:
    """Sequences of marked morphisms out of zero admitting no qualifying
    diagram with that top row (quotient data missing in the bounded base)."""
    C = level.C
    frontier = [(level.zero_obj, ())]
    for _ in range(n):
        nxt = []
        for obj, seq in frontier:
            for m in C.morphisms:
                if C.src[m] == obj and level.base_marked(m):
                    nxt.append((C.tgt[m], seq + (m,)))
        frontier = nxt
    present = set()
    for mp in level.maps:
        present.add(tuple(level.mor_at(mp, (0, j - 1), (0, j)) for j in range(1, n + 1)))
    rows = {seq for _, seq in frontier}
    return len(rows - present)


def s_bar_n(W: WaldhausenData, n: int, d: int = 2) -> _GridLevel:
    """Level n of the restricted construction: diagrams over the unit-square
    grid only, with conditions on adjacent squares."""
    A, K = ar_nerve(n), restricted_grid(n)[0]
    lv = _GridLevel(W, K, {g: A.labels[K.labels[g].gen] for g in K.gens(0)})

    def qualifies(mp):
        for i in range(n + 1):
            for j in range(i, n):
                if not lv.base_marked(lv.mor_at(mp, (i, j), (i, j + 1))):
                    return False
        for i in range(n + 1):
            for j in range(i + 1, n):
                if not lv.C.is_pushout_cocone(
                    lv.mor_at(mp, (i, j), (i, j + 1)),
                    lv.mor_at(mp, (i, j), (i + 1, j)),
                    lv.obj_at(mp, (i + 1, j + 1)),
                    lv.mor_at(mp, (i, j + 1), (i + 1, j + 1)),
                    lv.mor_at(mp, (i + 1, j), (i + 1, j + 1)),
                ):
                    return False
        return True

    return lv.build("restricted", n, [(i, i) for i in range(n + 1)], qualifies,
                    [(0, j) for j in range(n + 1)], d)


def f_n(W: WaldhausenData, n: int, d: int = 2) -> _GridLevel:
    """Level n of the cofibration-sequence construction: the 0-full part of
    the diagram category over the spine on sequences of marked edges."""
    K = sx.spine(n)
    lv = _GridLevel(W, K, {g: K.labels[g][0] for g in K.gens(0)})

    def qualifies(mp):
        return all(lv.base_marked(lv.mor_at(mp, i - 1, i)) for i in range(1, n + 1))

    return lv.build("sequences", n, [], qualifies, list(range(n + 1)), d)


# -- functors between levels ----------------------------------------------------


def level_functor(source: _GridLevel, target: _GridLevel,
                  shape_map: SimplicialMap = None,
                  base_map: SimplicialMap = None) -> FinFunctor:
    """The functor between diagram levels induced by a map of shapes
    ``shape_map`` (target shape -> source shape) and a map of base nerves
    ``base_map``; either defaults to the identity.

    A diagram D goes to ``base_map ∘ D ∘ shape_map``, and a transformation's
    component at a vertex v of the target shape is the base functor applied
    to its component at ``shape_map(v)``."""
    index = {tuple(sorted(mp.assign.items())): i for i, mp in enumerate(target.maps)}
    obj_map = {}
    for a, mp in enumerate(source.maps):
        if shape_map is not None:
            mp = mp.compose(shape_map)
        if base_map is not None:
            mp = base_map.compose(mp)
        key = tuple(sorted(mp.assign.items()))
        if key not in index:
            raise ValueError(f"source diagram {a} has no image among the target's diagrams")
        obj_map[a] = index[key]
    verts = target.shape.gens(0)
    at = [v if shape_map is None else shape_map.assign[v].gen for v in verts]
    push = None if base_map is None else functor_from_nerve_map(base_map).mor_map
    mor_map = {}
    for m in source.cat.morphisms:
        a, b, eta_items = m
        eta = dict(eta_items)
        comps = [eta[u] for u in at]
        if push is not None:
            comps = [push[x] for x in comps]
        mor_map[m] = (obj_map[a], obj_map[b], tuple(zip(verts, comps)))
    F = FinFunctor(source.cat, target.cat, obj_map, mor_map)
    F.check()
    return F


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


def forgetful_maps(W: WaldhausenData, n: int, d: int = 2) -> dict:
    """The two comparison maps at level n: restriction from the full grid to
    the unit-square grid, and further to the top row read as a sequence of
    n-1 cofibrations.  Each comes with a table-checked equivalence verdict
    and a marking-reflection verdict; the nerve maps are left to the caller
    (``cats.nerve_functor_map`` of a functor and its levels' ``sset``)."""
    if n < 1:
        raise ValueError("comparison maps need n >= 1")
    full, bar, seq = s_n(W, n, d), s_bar_n(W, n, d), f_n(W, n - 1, d)
    # the sequence i - 1 -> i is the top-row step (0, i) -> (0, i + 1)
    emb_assign = {seq.vgen[i]: SimplexKey(bar.vgen[(0, i + 1)]) for i in range(n)}
    for i in range(1, n):
        emb_assign[seq.egen[(i - 1, i)]] = SimplexKey(bar.egen[((0, i), (0, i + 1))])
    emb = SimplicialMap(seq.shape, bar.shape, emb_assign)

    out = {"levels": {"full": full, "restricted": bar, "sequences": seq}}
    for name, src, tgt, shape_map in (
        ("full_to_restricted", full, bar, restricted_grid(n)[1]),
        ("restricted_to_sequences", bar, seq, emb),
    ):
        F = level_functor(src, tgt, shape_map=shape_map)
        rep = functor_equivalence_report(F)
        rep.update(_reflects_marking(F, src.marked, tgt.marked))
        rep["dim"] = d
        out[name] = {"functor": F, "report": rep}
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


def s_structure_functor(theta, source: _GridLevel,
                        target: _GridLevel) -> FinFunctor:
    """The functor between staircase levels induced by a monotone
    theta: [m] -> [n]; source is level n, target is level m."""
    arf = arrow_poset_functor(theta, source.report["level"])
    return level_functor(source, target, nerve_functor_map(arf, target.shape, source.shape))
