"""Joins, slices, cocones, colimits, over-quasicategories, comma objects,
and the restriction-equivalence and cone-extension checks.

Slices are computed from the join adjunction: an n-simplex of a\\X is an
extension of a : A -> X over A * Delta[n], and dually for X/b.
"""

from __future__ import annotations

from . import homology as hl
from . import quasicat as qc
from . import simplicial as sx
from .cats import FinCategory, functor_equivalence_report, nerve, poset_category
from .simplicial import (
    SimplexKey,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracy_word,
)

# -- slices ----------------------------------------------------------------------


def _under_act(e, dmap: SimplicialMap):
    """A monotone map acts on A * Delta[n] through its Delta[n] part."""
    if e[0] == "a":
        return e
    if e[0] == "b":
        return ("b", dmap(e[1]))
    return ("j", e[1], dmap(e[2]))


def _over_act(e, dmap: SimplicialMap):
    """A monotone map acts on Delta[n] * A through its Delta[n] part."""
    if e[0] == "a":
        return ("a", dmap(e[1]))
    if e[0] == "b":
        return e
    return ("j", dmap(e[1]), e[2])


def _base_values(base: SimplicialMap, tag: str):
    """The values of ``base`` on the copy of its source tagged ``tag`` in a
    join."""
    def fixed(J):
        return {g: base(J.labels[g][1]) for g in J.all_gens() if J.labels[g][0] == tag}
    return fixed


def slice_under(a: SimplicialMap, d: int) -> sx.MaterializedSSet:
    """a\\X: its n-simplices are the maps A * Delta[n] -> X extending a."""
    A = a.source

    def shape(n):
        return sx.join(A, sx.delta(n), A.top_dim + n + 1).sset

    return sx.MaterializedSSet(sx.MapFamily(a.target, shape, _under_act, _base_values(a, "a")), d)


def slice_over(b: SimplicialMap, d: int) -> sx.MaterializedSSet:
    """X/b: its n-simplices are the maps Delta[n] * A -> X extending b."""
    A = b.source

    def shape(n):
        return sx.join(sx.delta(n), A, A.top_dim + n + 1).sset

    return sx.MaterializedSSet(sx.MapFamily(b.target, shape, _over_act, _base_values(b, "b")), d)


# -- over-quasicategories and comma objects ------------------------------------


class _OverFamily(sx.Family):
    """(Y down-at y)_n = (n+1)-simplices of Y with last vertex y."""

    def __init__(self, Y: SimplicialSet, y: SimplexKey):
        self.Y, self.y = Y, y

    def elements(self, n):
        return [z for z in self.Y.simplices(n + 1) if self.Y.vertex(z, n + 1) == self.y]

    def face(self, n, z, i):
        return self.Y.face(z, i)

    def degeneracy(self, n, z, i):
        return self.Y.degeneracy(z, i)


def over_quasicategory(Y: SimplicialSet, y: SimplexKey, d: int):
    """(Y ↓ y) together with the projection sending z to its last face."""
    Y.require_bound(d + 1, "over-quasicategory")
    O = sx.MaterializedSSet(_OverFamily(Y, y), d)
    proj = SimplicialMap(O, Y, {g: Y.face(O.labels[g], g[0] + 1) for g in O.all_gens()})
    return O, proj


def comma(G: SimplicialMap, y: SimplexKey, d: int):
    """(G ↓ y): pullback of the over-quasicategory projection along G.
    Returns (sset, map to X, map to (Y↓y))."""
    O, proj = over_quasicategory(G.target, y, d)
    span = sx.pullback(G, proj, d)
    return span.sset, span.left, span.right


# -- initiality and colimits ----------------------------------------------------


def is_initial(X: SimplicialSet, i: SimplexKey, d: int) -> dict:
    """Initiality certificate: every mapping space X(i, x) must be weakly
    contractible; we certify (pi0, H1) to the bound d."""
    verdicts = {}
    overall = f"confirmed-to-{d}"
    for x in X.simplices(0):
        M = qc.mapping_space(X, i, x, d)
        rep = hl.weak_contractibility_report(M, d)
        verdicts[x] = rep
        if rep["verdict"] == "refuted":
            overall = "refuted"
        elif rep["verdict"] == "inconclusive" and overall != "refuted":
            overall = "inconclusive"
    return {"verdict": overall, "dim": d, "per_vertex": verdicts}


class _Cocone:
    """An extension of a base diagram a : A -> X over A * Delta[0]: the map
    from the join A * Delta[0] and the vertex of a\\X it corresponds to."""

    def __init__(self, extension: SimplicialMap, slice_vertex: SimplexKey):
        self.extension, self.slice_vertex = extension, slice_vertex


def cocones(slice_sset: sx.MaterializedSSet) -> list[_Cocone]:
    fam: sx.MapFamily = slice_sset.family
    return [_Cocone(fam.as_map(0, slice_sset.labels[g]), SimplexKey(g))
            for g in slice_sset.gens(0)]


def colimiting_cocones(a: SimplicialMap, d: int) -> list[dict]:
    """Cocones on a whose initiality in a\\X is confirmed to dimension d.
    Each entry carries the cocone and its initiality report."""
    sl = slice_under(a, d + 1)
    results = []
    for c in cocones(sl):
        rep = is_initial(sl, c.slice_vertex, d)
        if rep["verdict"].startswith("confirmed"):
            results.append({"cocone": c, "report": rep})
    return results


# -- restriction-equivalence check ---------------------------------------------


def _hom_restriction_map(Hbig: sx.MaterializedSSet, Hsmall: sx.MaterializedSSet,
                         j: SimplicialMap) -> SimplicialMap:
    """Restriction X^{A'} -> X^{A} along j : A -> A', where both homs were
    ``internal_hom`` materializations with the same target."""
    fb: sx.MapFamily = Hbig.family
    fs: sx.MapFamily = Hsmall.family
    assign = {}
    for g in Hbig.all_gens():
        n = g[0]
        f = fb.as_map(n, Hbig.labels[g])
        Pb, Ps = fb.shape(n), fs.shape(n)
        vals = []
        for h in Ps.all_gens():
            ka, kb = Ps.labels[h]
            vals.append(f(Pb.key_of(h[0], (j(ka), kb))))
        assign[g] = Hsmall.key_of(n, tuple(vals))
    return SimplicialMap(Hbig, Hsmall, assign)


def restriction_equivalence_check(X: SimplicialSet, A: SimplicialSet, d: int) -> dict:
    """Check that restriction from colimit cocones on A-diagrams to the
    diagrams themselves is an equivalence: essentially surjective and fully
    faithful at the homotopy-category level, with contractible fibers.

    Works with the cone shape A * Delta[0]: the source is the full
    subcomplex of X^{A*1} on the colimiting cocone vertices.
    """
    AJ = sx.join(A, sx.delta(0), (A.top_dim if A.top_dim >= 0 else -1) + 1)
    Hbig = qc.internal_hom(AJ.sset, X, max(d, 2))
    Hsmall = qc.internal_hom(A, X, max(d, 2))
    r_full = _hom_restriction_map(Hbig, Hsmall, AJ.left)

    # classify vertices of Hbig: which are colimiting cocones on their base?
    colim_vertices = []
    hypothesis_failures = []
    base_with_colim = {}
    fb: sx.MapFamily = Hbig.family
    Pb0 = fb.shape(0)
    d0vert = SimplexKey((0, 0))
    emb = SimplicialMap(
        AJ.sset,
        Pb0,
        {
            g: Pb0.key_of(
                g[0],
                (SimplexKey(g), apply_degeneracy_word(d0vert, range(g[0] - 1, -1, -1))),
            )
            for g in AJ.sset.all_gens()
        },
    )
    for g in Hbig.gens(0):
        v = SimplexKey(g)
        ext = fb.as_map(0, Hbig.labels[g]).compose(emb)
        base = ext.compose(AJ.left)
        base_key = tuple(sorted(base.assign.items()))
        sl = slice_under(base, d + 1)
        # the slice vertex equal to this extension: both sides join A and Delta[0]
        vkey = sl.key_of(0, tuple(ext.assign[h] for h in sl.family.shape(0).all_gens()))
        rep = is_initial(sl, vkey, d)
        if rep["verdict"].startswith("confirmed"):
            colim_vertices.append(v)
            base_with_colim[base_key] = True
        else:
            base_with_colim.setdefault(base_key, False)

    keep_verts = set(colim_vertices)
    Colim, incl = sx.full_subcomplex(Hbig, keep_verts, max(d, 2))
    r = r_full.compose(incl)

    report = {"dim": d}
    # hypothesis: every diagram (vertex of Hsmall) admits a colimit
    diagrams = {SimplexKey(g): False for g in Hsmall.gens(0)}
    for v in colim_vertices:
        diagrams[r_full(v)] = True
    missing = [v for v, ok in diagrams.items() if not ok]
    report["diagrams_without_colimit"] = missing
    if missing:
        report["verdict"] = "hypothesis-failure"
        return report

    # essential surjectivity, fullness and faithfulness on homotopy classes
    eq = functor_equivalence_report(
        qc.induced_ho_functor(qc.ho_category(Colim), qc.ho_category(Hsmall), r))
    for key in ("essentially_surjective", "full", "faithful"):
        report[key] = eq[key]

    # fiber contractibility over each diagram vertex
    fiber_reports = {}
    for w in Hsmall.gens(0):
        wk = SimplexKey(w)
        keep = lambda k: r(k) == apply_degeneracy_word(wk, range(k.dim - 1, -1, -1))
        F, _ = sx.subcomplex(Colim, keep, d)
        fiber_reports[wk] = hl.weak_contractibility_report(F, d)
    report["fibers"] = fiber_reports
    bad = [k for k, v in fiber_reports.items() if v["verdict"] == "refuted"]
    report["verdict"] = "pass" if eq["equivalence"] and not bad else "fail"
    return report


# -- cone extension check --------------------------------------------------------


def small_posets(max_size: int = 3) -> list[FinCategory]:
    """All posets with at most max_size elements, up to isomorphism
    (hard-coded for sizes 1..3)."""
    out = []
    rels = {
        1: [[]],
        2: [[], [(0, 1)]],
        3: [
            [],
            [(0, 1)],
            [(0, 1), (0, 2)],          # one bottom, two incomparable tops
            [(0, 2), (1, 2)],          # two incomparable bottoms, one top
            [(0, 1), (1, 2), (0, 2)],  # chain
        ],
    }
    for size in range(1, max_size + 1):
        if size not in rels:
            raise ValueError("poset catalogue only covers sizes up to 3")
        for rel in rels[size]:
            pairs = set(rel) | {(i, i) for i in range(size)}
            out.append(poset_category(range(size), lambda a, b, p=pairs: (a, b) in p))
    return out


def cone_extension_check(C: SimplicialSet) -> dict:
    """Test whether every map NP -> C from the nerve of a poset with at most
    two elements extends over the cone (NP) * 1.  Failure witnesses are
    reported.

    One search per poset, relative to the copy of NP in the cone
    (:func:`simplicial.relative_maps`), yields every map NP -> C with its
    extensions."""
    if C.is_empty():
        return {"verdict": "fail", "reason": "empty target"}
    failures = []
    tested = 0
    for P in small_posets(2):
        NP = nerve(P, len(P.objects))
        J = sx.join(NP, sx.delta(0), NP.top_dim + 1)
        C.require_bound(J.sset.top_dim, "cone extension")
        on_np = J.left.assign  # generator of NP -> its copy in the cone
        for u, exts in sx.relative_maps(J.sset, C, [k.gen for k in on_np.values()]):
            tested += 1
            if not exts:
                f = SimplicialMap(NP, C, {g: u[k.gen] for g, k in on_np.items()})
                failures.append((P, f))
    return {
        "verdict": "pass" if not failures else "fail",
        "maps_tested": tested,
        "failures": failures,
    }
