"""Waldhausen structures on finite quasicategories: a distinguished zero
object plus a 1-full class of marked edges (cofibrations) containing the
equivalences, with pushouts along marked edges.

No finite instance honestly has all pushouts, so nerve-backed data carries a
bounded-universe descriptor and pushout failures are reported as "local"
(universe too small) rather than "fatal" when the universe is bounded.
"""

from __future__ import annotations

from typing import Optional

from . import quasicat as qc
from . import simplicial as sx
from .cats import (
    edge_morphism,
    functor_from_nerve_map,
    functor_equivalence_report,
    nerve,
    nerve_key_for_string,
    one_full_subnerve,
)
from .fincat import FinCategory
from .ssets import SimplexKey, SimplicialMap, SimplicialSet, apply_degeneracy_word


class WaldhausenData:
    def __init__(self, underlying: SimplicialSet, zero: SimplexKey, cof: frozenset,
                 universe: Optional[dict] = None):
        self.underlying = underlying
        self.zero = zero  # vertex
        self.cof = cof  # marked nondegenerate edge keys
        self.universe = universe  # e.g. {"bounded": True, "note": ...}

    def is_cof(self, e: SimplexKey) -> bool:
        return e.is_degenerate or e in self.cof

    def edges(self):
        return self.underlying.simplices(1)

    @property
    def bounded(self) -> bool:
        return bool(self.universe and self.universe.get("bounded"))


def validate_waldhausen(W: WaldhausenData, d: int = 2) -> dict:
    """Validate the three axioms to the stated bound.

    Both routes walk the same spans and name them by edge keys, so they
    give one report: for nerve-backed data each pushout is looked up with
    the 1-categorical universal-property oracle; without a category it is
    found as an initial cocone in the slice (much slower, and needing the
    data to dimension 4).  Data that is not a
    quasicategory has no homotopy category, so the report stops at that
    violation.
    """
    X = W.underlying
    report = {"dim": d, "violations": [], "local_failures": [], "checks": {}}

    failures = qc.is_quasicategory(X, min(d, 2))["failures"][:3]
    try:
        ho = None if failures else qc.ho_category(X)
    except ValueError as exc:
        # inner 2-horns fill, but classes compose ill-definedly or not
        # associatively, so some inner 3-horn cannot fill
        failures = [str(exc)]
    report["checks"]["quasicategory"] = not failures
    if failures:
        report["violations"].append(("not-quasicategory", failures))
        report["ok"] = False
        return report

    # (i) marked edges are closed under homotopy and contain all equivalences
    marked_classes = {ho.cls(e) for e in W.edges() if W.is_cof(e)}
    for e in W.edges():
        if ho.cls(e) in marked_classes and not W.is_cof(e):
            report["violations"].append(("homotopy-closure", e))
    for e in W.edges():
        if ho.cat.is_iso(ho.cls(e)) and not W.is_cof(e):
            report["violations"].append(("equivalence-not-marked", e))

    # (ii) zero object: unique maps to and from every object, and every
    # edge out of zero is marked
    for v in X.simplices(0):
        if len(ho.cat.hom(W.zero, v)) != 1:
            report["violations"].append(("zero-not-initial", v))
        if len(ho.cat.hom(v, W.zero)) != 1:
            report["violations"].append(("zero-not-terminal", v))
    for e in W.edges():
        if X.vertex(e, 0) == W.zero and not W.is_cof(e):
            report["violations"].append(("zero-edge-not-marked", e))

    # (iii) pushouts of marked edges: for each marked nondegenerate edge f
    # and each edge g out of f's source, the leg opposite f of a pushout of
    # the span (f, g) must be marked
    opposite_leg = _leg_in_category if X.category is not None else _leg_in_slice
    out_of: dict[SimplexKey, list[SimplexKey]] = {}
    for g in W.edges():
        out_of.setdefault(X.vertex(g, 0), []).append(g)
    pushouts_checked = 0
    for f in W.edges():
        if f.is_degenerate or not W.is_cof(f):
            continue
        for g in out_of[X.vertex(f, 0)]:
            pushouts_checked += 1
            j = opposite_leg(X, f, g)
            if j is None:
                entry = ("pushout-missing", f, g)
                (report["local_failures"] if W.bounded else report["violations"]).append(entry)
            elif not W.is_cof(j):
                report["violations"].append(("pushout-not-marked", f, g, j))
    report["checks"]["pushouts_checked"] = pushouts_checked
    report["ok"] = not report["violations"]
    return report


def _leg_in_category(X: SimplicialSet, f: SimplexKey, g: SimplexKey) -> Optional[SimplexKey]:
    """The edge opposite f in the pushout of the span (f, g) that the
    category of the nerve X chooses, or None when there is no pushout."""
    C = X.category
    po = C.pushout(edge_morphism(C, X, f), edge_morphism(C, X, g))
    return None if po is None else nerve_key_for_string(X, (po[2],))


def _leg_in_slice(X: SimplicialSet, f: SimplexKey, g: SimplexKey) -> Optional[SimplexKey]:
    """The edge opposite f in the first initial cocone under the span
    (f, g), or None when the slice has none."""
    H = sx.horn(2, 0)
    v0, v1, v2 = (H.gen_of_label((k,)) for k in range(3))
    span = SimplicialMap(H, X, {
        v0: X.vertex(f, 0), v1: X.vertex(f, 1), v2: X.vertex(g, 1),
        H.gen_of_label((0, 1)): f, H.gen_of_label((0, 2)): g,
    })
    from . import joinslice as js

    ccs = js.colimiting_cocones(span, 1)
    if not ccs:
        return None
    ext = ccs[0]
    return ext(ext.source.key_of(1, ("j", SimplexKey(v2), SimplexKey((0, 0)))))


# -- cofibration subquasicategory ----------------------------------------------


def cof_subquasicategory(W: WaldhausenData, d: int = 2):
    """1-full subcomplex on marked edges, with inclusion: on nerve-backed
    data, the nerve of the cofibration category
    ``cats.marked_subcategory(W.underlying, W.is_cof)`` when that exists."""
    return one_full_subnerve(W.underlying, W.is_cof, d)


def admits_factorization(W: WaldhausenData) -> bool:
    """Each edge f bounds a 2-simplex (equivalence, f, cofibration).  The
    degenerate ones give s1(f) when f is marked and s0(f) when f is an
    equivalence; the rest are generators.  On valid data this holds exactly
    when every edge is marked."""
    X = W.underlying
    ho = qc.ho_category(X)

    def iso(e):
        return ho.cat.is_iso(ho.cls(e))

    factored = set()
    for g in X.gens(2):
        d0, d1, d2 = X.faces[g]
        if W.is_cof(d2) and iso(d0):
            factored.add(d1)
    return all(W.is_cof(f) or iso(f) or f in factored for f in W.edges())


# -- exact functors --------------------------------------------------------------


class ExactFunctorData:
    def __init__(self, themap: SimplicialMap, source: WaldhausenData,
                 target: WaldhausenData):
        self.themap, self.source, self.target = themap, source, target


def reflects_cofibrations(G: ExactFunctorData) -> dict:
    for e in G.source.edges():
        if not G.source.is_cof(e) and G.target.is_cof(G.themap(e)):
            return {"reflects": False, "witness": e}
    return {"reflects": True, "witness": None}


def validate_exact(G: ExactFunctorData) -> dict:
    """Zero and cofibrations preserved, and every pushout square along a
    cofibration sent to a pushout square.  Pushouts are tested only between
    nerves with category blocks; ``pushouts_checked`` counts the squares
    tested, and is None when the test could not run."""
    report = {"violations": [], "pushouts_checked": None}
    f = G.themap
    if f(G.source.zero) != G.target.zero:
        report["violations"].append(("zero-not-preserved", f(G.source.zero)))
    for e in G.source.edges():
        if G.source.is_cof(e) and not G.target.is_cof(f(e)):
            report["violations"].append(("cofibration-not-preserved", e))
    XS, XT = G.source.underlying, G.target.underlying
    if XS.category is not None and XT.category is not None:
        CS, CT = XS.category, XT.category
        F = functor_from_nerve_map(f)
        marked = {edge_morphism(CS, XS, e) for e in G.source.edges() if G.source.is_cof(e)}
        report["pushouts_checked"] = 0
        for m1 in CS.morphisms:
            if m1 not in marked:
                continue
            for m2 in CS.morphisms:
                if CS.src[m2] != CS.src[m1]:
                    continue
                po = CS.pushout(m1, m2)
                if po is None:
                    continue
                dd, i, j = po
                report["pushouts_checked"] += 1
                ok = CT.is_pushout_cocone(
                    F.mor_map[m1], F.mor_map[m2],
                    F.obj_map[dd], F.mor_map[i], F.mor_map[j],
                )
                if not ok:
                    report["violations"].append(("pushout-not-preserved", m1, m2))
    report["ok"] = not report["violations"]
    return report


def cof_ho_equivalence(G: ExactFunctorData) -> dict:
    """Is tau_1(co G) an equivalence of cofibration homotopy categories?"""
    co_s, incl_s = cof_subquasicategory(G.source, 2)
    co_t, incl_t = cof_subquasicategory(G.target, 2)
    ho_s = qc.ho_category(co_s)
    ho_t = qc.ho_category(co_t)

    # transport a key of co_s through G into co_t
    t_index = {incl_t(SimplexKey(g)): SimplexKey(g) for g in co_t.all_gens()}

    def push(k: SimplexKey) -> SimplexKey:
        img = G.themap(incl_s(k))
        base = t_index.get(SimplexKey(img.gen))
        if base is None:
            raise ValueError(f"image {img} leaves the cofibration subcomplex")
        return apply_degeneracy_word(base, img.degens)

    return functor_equivalence_report(qc.induced_ho_functor(ho_s, ho_t, push))


# -- instances ---------------------------------------------------------------------


def nerve_waldhausen(C: FinCategory, zero_obj, marked_morphisms, d: int,
                     universe=None) -> WaldhausenData:
    N = nerve(C, d)
    marked = frozenset(
        SimplexKey(N.gen_of_label((m,)))
        for m in marked_morphisms
        if m not in C.id_set
    )
    return WaldhausenData(
        N, SimplexKey(N.gen_of_label(zero_obj)), marked,
        universe=universe or {"bounded": True, "note": f"nerve of {len(C.objects)}-object category"},
    )


def pointed_sets_waldhausen(max_size: int = 3, d: int = 2) -> WaldhausenData:
    """Skeletal pointed sets of size <= max_size; cofibrations are the
    injective basepoint-preserving maps."""
    from .cats import pointed_sets_category

    C = pointed_sets_category(max_size)
    injective = [
        m for m in C.morphisms
        if 0 not in m[2] and len(set(m[2])) == len(m[2])
    ]
    return nerve_waldhausen(
        C, 1, injective, d,
        universe={"bounded": True, "note": f"pointed sets of size <= {max_size}"},
    )
