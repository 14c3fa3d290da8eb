"""Homotopy of edges, homotopy categories, equivalences, mapping spaces and
bounded internal homs.

The homotopy relation on parallel edges is the equivalence closure of left
homotopy: f ~ g when some 2-simplex has boundary (degenerate-at-b, g, f).

Only the functions that build shapes, horns or products import
:mod:`qcatk.simplicial`, so the homotopy category and tau1 of a file need
only the two cores, :mod:`qcatk.ssets` and :mod:`qcatk.fincat`.
"""

from __future__ import annotations

from . import io
from .ssets import (
    NotQuasicategory,
    SimplexKey,
    SimplicialMap,
    SimplicialSet,
    UnionFind,
    apply_degeneracy_word,
)


def is_quasicategory(X: SimplicialSet, d: int) -> dict:
    """Check that every inner horn of dimension <= d fills.  Returns a report
    with the failing horns, if any."""
    from . import simplicial as sx

    X.require_bound(d, "quasicategory check")
    failures = []
    checked = 0
    for n in range(2, d + 1):
        for k in range(1, n):
            for h in sx.horn_maps(X, n, k):
                checked += 1
                if sx.inner_horn_filler(X, h) is None:
                    failures.append((n, k, h))
    return {"ok": not failures, "dim": d, "horns_checked": checked, "failures": failures}


# -- homotopy of edges -------------------------------------------------------


def homotopy_classes(X: SimplicialSet) -> dict[SimplexKey, SimplexKey]:
    """Map each edge to the minimal representative of its homotopy class.

    Only nondegenerate 2-simplices join distinct edges: s1(e) has faces
    (s0 tgt e, e, e), and s0(e) has a degenerate d0 only when e is
    degenerate, and then all its faces are e.  On a nerve (``X.category``
    set) no nondegenerate 2-simplex has a degenerate d0, the edge of its
    second morphism, so each edge is its own class."""
    X.require_bound(2, "edge homotopy")
    if X.category is not None:
        return {e: e for e in X.simplices(1)}
    uf = UnionFind()
    for g in X.gens(2):
        d0, d1, d2 = X.faces[g]
        if d0.is_degenerate:
            uf.union(d1, d2)
    return {e: uf.find(e) for e in X.simplices(1)}


# -- homotopy category -------------------------------------------------------


class _HoCategory:
    def __init__(self, cat, class_of: dict[SimplexKey, SimplexKey]):
        self.cat = cat
        self.class_of = class_of  # edge key -> class representative

    def cls(self, edge: SimplexKey) -> SimplexKey:
        return self.class_of[edge]


def ho_category(X: SimplicialSet) -> _HoCategory:
    """Homotopy category of a quasicategory: objects are vertices, morphisms
    homotopy classes of edges, composition read from the nondegenerate
    2-simplices.

    Raises NotQuasicategory if some composable pair has no composing
    2-simplex, and ValueError if composites land in more than one class.

    On a nerve N(C) (``X.category`` set) each edge is its own class, an
    identity or the edge of one morphism of C, and the 2-simplices with
    boundary (g, h, f) are those with h = g after f in C: the table is
    read from C's rows by morphism number.  It is C's table relabelled, so
    its laws hold exactly when C's do, and C is checked in its place:
    ``check()`` remembers a pass, so C, once checked, is not checked
    again.  A failure names the witness by its edges.
    """
    from .fincat import FinCategory

    X.require_bound(2, "homotopy category")
    cls = homotopy_classes(X)
    objects = X.simplices(0)
    morphisms = sorted(set(cls.values()))
    src = {m: X.vertex(m, 0) for m in morphisms}
    tgt = {m: X.vertex(m, 1) for m in morphisms}
    ids = {v: cls[X.degeneracy(v, 0)] for v in objects}
    if X.category is not None:
        compose, edge_of = _nerve_composite(X, ids)
        laws, num = X.category, X.category.number
    else:
        # s0(f) and s1(f) compose f with the identities; the generators give
        # the rest.  A pair with a second composite class keeps all of them.
        found: dict[tuple, SimplexKey] = {}
        for m in morphisms:
            found[(m, ids[src[m]])] = found[(ids[tgt[m]], m)] = m
        clash: dict[tuple, set] = {}
        for t in X.gens(2):
            d0, d1, d2 = (cls[e] for e in X.faces[t])
            first = found.setdefault((d0, d2), d1)
            if first != d1:
                clash.setdefault((d0, d2), {first}).add(d1)

        def compose(g, f):
            if (g, f) not in found:
                f_name, g_name = io.key_names(X, (f, g))
                raise NotQuasicategory(f"no composite found for {f_name} then {g_name}",
                                       witness=(f, g))
            if (g, f) in clash:
                f_name, g_name, *hs = io.key_names(X, (f, g, *sorted(clash[(g, f)])))
                raise ValueError(
                    f"composition ill-defined on classes {f_name}, {g_name}: [{', '.join(hs)}]")
            return found[(g, f)]

        laws = None

    # The identity laws need no check: (id, f) and (f, id) hold f, so any
    # other composite there has raised the ValueError above.
    cat = FinCategory.tabulate(objects, morphisms, src, tgt, ids, compose)
    try:
        (cat if laws is None else laws).check()
    except ValueError as exc:
        witness = getattr(exc, "witness", None)
        if witness is None:  # a law of C other than associativity
            raise
        if laws is not None:
            witness = [edge_of[num[m]] for m in witness]
        names = io.key_names(X, witness)
        raise ValueError(f"associativity fails at {', '.join(names)}") from exc
    cat._checked = True  # on a nerve, by C's check
    return _HoCategory(cat, cls)


def _nerve_composite(X: SimplicialSet, ids: dict):
    """The composite rule of ho(N(C)) from C's rows, and the edge of each
    morphism by its number.  A composite with an identity, a degenerate
    edge, is the other edge, as the generic rule has it."""
    C = X.category
    num = C.number
    edge_of = [None] * len(C.morphisms)
    for v, e in ids.items():
        edge_of[num[C.ids[X.labels[v.gen]]]] = e
    for g in X.gens(1):
        edge_of[num[X.labels[g][0]]] = SimplexKey(g)
    num_of = {e: j for j, e in enumerate(edge_of)}
    after = C.after

    def compose(g, f):
        if f.degens:
            return g
        if g.degens:
            return f
        return edge_of[after[num_of[f]][num_of[g]]]

    return compose, edge_of


def tau1_presentation(X: SimplicialSet) -> dict:
    """Fundamental category as a presentation only: free on nondegenerate
    edges modulo one relation (d_1 = d_0 after d_2) per 2-simplex."""
    X.require_bound(min(2, X.effective_bound()), "fundamental category")
    gens = [SimplexKey(g) for g in X.gens(1)]
    rels = []
    top = int(min(2, X.effective_bound(), X.top_dim if X.top_dim >= 0 else 0))
    if top >= 2:
        for g in X.gens(2):
            t = SimplexKey(g)
            rels.append((X.face(t, 1), (X.face(t, 0), X.face(t, 2))))
    return {
        "objects": X.simplices(0),
        "generators": gens,
        "relations": rels,
    }


# -- equivalences and the maximal Kan subcomplex ------------------------------


def maximal_kan(X: SimplicialSet, d: int):
    """The 1-full subcomplex on the equivalence edges, with its inclusion:
    on a nerve, the nerve of its groupoid core."""
    from .cats import one_full_subnerve

    ho = ho_category(X)
    good = {e for e in X.simplices(1) if ho.cat.is_iso(ho.cls(e))}
    return one_full_subnerve(X, good.__contains__, d)


# -- internal hom -------------------------------------------------------------


def _act_on_delta(e, dmap: SimplicialMap):
    """A monotone map acts on a simplex (a, b) of A x Delta[n] through b."""
    a, b = e
    return (a, dmap(b))


def _hom_shape(A: SimplicialSet):
    """n -> A x Delta[n], materialized to its top dimension."""
    from . import simplicial as sx

    def shape(n: int) -> sx.MaterializedSSet:
        if A.is_empty():
            return sx.MaterializedSSet(sx.ProductFamily(A, sx.delta(n)), 0)
        A.require_bound(A.top_dim + n, "internal hom")
        return sx.product(A, sx.delta(n), A.top_dim + n).sset
    return shape


def internal_hom(A: SimplicialSet, X: SimplicialSet, d: int) -> sx.MaterializedSSet:
    """(X^A)_n = maps A x Delta[n] -> X."""
    from . import simplicial as sx
    from .families import MapFamily

    return sx.MaterializedSSet(MapFamily(X, _hom_shape(A), _act_on_delta, lambda P: {}), d)


def mapping_space(X: SimplicialSet, a: SimplexKey, b: SimplexKey,
                  d: int) -> sx.MaterializedSSet:
    """X(a, b): maps Delta[1] x Delta[n] -> X constant at a and b on the two
    ends, i.e. the fiber of X^{Delta[1]} -> X x X over (a, b)."""
    from . import simplicial as sx
    from .families import MapFamily

    D1 = sx.delta(1)
    end = {D1.gen_of_label((0,)): a, D1.gen_of_label((1,)): b}

    def fixed(P):
        return {g: apply_degeneracy_word(end[P.labels[g][0].gen], range(g[0] - 1, -1, -1))
                for g in P.all_gens() if P.labels[g][0].gen in end}

    return sx.MaterializedSSet(MapFamily(X, _hom_shape(D1), _act_on_delta, fixed), d)


def induced_ho_functor(ho_s: _HoCategory, ho_t: _HoCategory, push):
    """The functor of homotopy categories that ``push`` induces; ``push``
    carries a key of the source (vertex or edge) to the target.  It is not
    checked: it is a functor whenever ``push`` is a simplicial map."""
    from .cats import FinFunctor

    return FinFunctor(ho_s.cat, ho_t.cat, {v: push(v) for v in ho_s.cat.objects},
                      {m: ho_t.cls(push(m)) for m in ho_s.cat.morphisms})


def tau1_map_equivalence(f: SimplicialMap) -> dict:
    """Is the induced functor of homotopy categories an equivalence?"""
    from .cats import functor_equivalence_report

    return functor_equivalence_report(
        induced_ho_functor(ho_category(f.source), ho_category(f.target), f))
