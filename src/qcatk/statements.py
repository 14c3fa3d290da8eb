"""Checks of the paper's statements that no command runs: dimension-3
horn-filler audits, the prism construction, the Quillen-Theorem-A and
poset-colimit checkers, homotopy-cocartesian squares, and the
restriction-equivalence and cone-extension checks.

No ``qcatk`` command imports this module, so a command never compiles
it; the tests run every check here.
"""

from __future__ import annotations

from . import cats
from . import families as fm
from . import homology as hl
from . import joinslice as js
from . import ktheory as kt
from . import lifting as lf
from . import quasicat as qc
from . import simplicial as sx
from .fincat import FinCategory
from .ssets import (
    BoundExceeded,
    SimplexKey,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracy_word,
    key_degeneracy,
)

# ---------------------------------------------------------------------------
# horn filler audits in dimension 3

_HORN_KINDS = {
    "last": ((3, 3),),
    "first": ((3, 0),),
    "inner": ((3, 1), (3, 2)),
    "all": ((3, 0), (3, 1), (3, 2), (3, 3)),
}


def horn_fill_class_check(X: SimplicialSet, kind: str = "all") -> dict:
    """Exhaustively enumerate dimension-3 horns of the requested kind and
    search for fillers.

    ``kind`` selects which horns: "last" (index 3), "first" (index 0),
    "inner" (indices 1 and 2), or "all".
    """
    if kind not in _HORN_KINDS:
        raise ValueError(f"unknown horn kind {kind!r}")
    X.require_bound(3, "horn filler audit")
    checked = {}
    for (n, k) in _HORN_KINDS[kind]:
        hs = sx.horn_maps(X, n, k)
        checked[(n, k)] = len(hs)
        for h in hs:
            if sx.inner_horn_filler(X, h) is None:
                return {
                    "verdict": "fail",
                    "kind": kind,
                    "checked": checked,
                    "witness": {"horn": (n, k), "assign": dict(h.assign)},
                }
    return {"verdict": "pass", "kind": kind, "checked": checked, "witness": None}


# ---------------------------------------------------------------------------
# the prism construction


def product_path_key(P: sx.MaterializedSSet, A: SimplicialSet, B: SimplicialSet,
                     path) -> SimplexKey:
    """Key of the simplex of the product P = A x B of two vertex-subset
    complexes whose vertex t is ``path[t]`` (a pair of vertex labels, one
    per factor); such a simplex is fixed by its vertex path."""
    ka = sx.key_from_vertex_seq(A, [p[0] for p in path])
    kb = sx.key_from_vertex_seq(B, [p[1] for p in path])
    return P.key_of(len(path) - 1, (ka, kb))


# maximal vertex paths of the prism segment Delta[1] x Delta[2], i.e. the
# three nondegenerate 3-simplices: bottom, middle, top
_SEGMENT_SHUFFLES = (
    ((0, 0), (1, 0), (1, 1), (1, 2)),  # bottom
    ((0, 0), (0, 1), (1, 1), (1, 2)),  # middle
    ((0, 0), (0, 1), (0, 2), (1, 2)),  # top
)


def _transformation_parts(alpha: SimplicialMap):
    """Split the source of a natural transformation I[n] x Delta[1] -> X
    into its factors and recover n."""
    P1 = alpha.source
    fam = getattr(P1, "family", None)
    if not isinstance(fam, sx.ProductFamily):
        raise ValueError("transformation source must be a materialized product")
    S, D1 = fam.X, fam.Y
    n = len(S.gens(0)) - 1
    return P1, S, D1, n


def _parallel(alpha: SimplicialMap, beta: SimplicialMap) -> bool:
    """Same endpoint functors: equal restrictions to both ends of Delta[1]."""
    return lf._ends(alpha) == lf._ends(beta)


def homotopy_from_last_component(X: SimplicialSet, alpha: SimplicialMap,
                                 beta: SimplicialMap,
                                 direction: str = "last") -> dict:
    """Promote a homotopy of one pair of components to a homotopy of two
    natural transformations I[n] x Delta[1] -> X, by explicit prism filling.

    With ``direction="last"`` the construction seeds at the last spine
    vertex and fills each prism segment bottom-up: the bottom 3-simplex
    along its inner horn at index 1, the middle along its inner horn at
    index 2, and the top along its outer horn at index 3 (this last step
    is the one that needs fillers beyond the quasicategory ones).  With
    ``direction="first"`` the seed is at spine vertex 0 and segments are
    filled top-down, ending at the outer horn at index 0.

    Returns a report; on success ``report["homotopy"]`` is a map
    I[n] x Delta[2] -> X whose restrictions along the faces of Delta[2]
    at indices 1 and 0 are ``alpha`` and ``beta``, and whose face at
    index 2 is degenerate.
    """
    if direction not in ("last", "first"):
        raise ValueError("direction must be 'last' or 'first'")
    P1, S, D1, n = _transformation_parts(alpha)
    if beta.source is not P1 and _transformation_parts(beta)[3] != n:
        raise ValueError("alpha and beta must share their source shape")
    X.require_bound(3, "prism filling")
    if not _parallel(alpha, beta):
        raise ValueError("alpha and beta are not parallel transformations")

    def a_key(path):
        return alpha(product_path_key(P1, S, D1, path))

    def b_key(path):
        return beta(product_path_key(P1, S, D1, path))

    def stuck(segment, step, want):
        return {
            "status": "stuck",
            "homotopy": None,
            "direction": direction,
            "witness": {"segment": segment, "step": step,
                        "faces": {i: k for i, k in want.items()}},
        }

    # seed: a 2-simplex witnessing the homotopy of the chosen components,
    # with the face at index 2 degenerate on the common source object
    lev = n if direction == "last" else 0
    a_comp = a_key([(lev, 0), (lev, 1)])
    b_comp = b_key([(lev, 0), (lev, 1)])
    dom = a_key([(lev, 0)])
    seed_want = {0: b_comp, 1: a_comp, 2: key_degeneracy(dom, 0)}
    T = {lev: sx.simplex_with_faces(X, 2, seed_want)}
    if T[lev] is None:
        return stuck(None, "seed", seed_want)

    # per segment (u, v) = (i-1, i): the three filled 3-simplices
    fills: dict[int, tuple] = {}
    segments = range(n, 0, -1) if direction == "last" else range(1, n + 1)
    for i in segments:
        u, v = i - 1, i
        Fe = a_key([(u, 0), (v, 0)])
        s1Fe = key_degeneracy(Fe, 1)
        s0Fe = key_degeneracy(Fe, 0)
        atr1 = a_key([(u, 0), (v, 0), (v, 1)])
        atr2 = a_key([(u, 0), (u, 1), (v, 1)])
        btr1 = b_key([(u, 0), (v, 0), (v, 1)])
        btr2 = b_key([(u, 0), (u, 1), (v, 1)])
        if direction == "last":
            want = {0: T[v], 2: atr1, 3: s1Fe}
            Z1 = sx.simplex_with_faces(X, 3, want)
            if Z1 is None:
                return stuck(i, "bottom (inner horn, index 1)", want)
            want = {0: btr1, 1: X.face(Z1, 1), 3: s0Fe}
            Z2 = sx.simplex_with_faces(X, 3, want)
            if Z2 is None:
                return stuck(i, "middle (inner horn, index 2)", want)
            want = {0: btr2, 1: atr2, 2: X.face(Z2, 2)}
            Z3 = sx.simplex_with_faces(X, 3, want)
            if Z3 is None:
                return stuck(i, "top (outer horn, index 3)", want)
            T[u] = X.face(Z3, 3)
        else:
            want = {0: btr2, 1: atr2, 3: T[u]}
            Z3 = sx.simplex_with_faces(X, 3, want)
            if Z3 is None:
                return stuck(i, "top (inner horn, index 2)", want)
            want = {0: btr1, 2: X.face(Z3, 2), 3: s0Fe}
            Z2 = sx.simplex_with_faces(X, 3, want)
            if Z2 is None:
                return stuck(i, "middle (inner horn, index 1)", want)
            want = {1: X.face(Z2, 1), 2: atr1, 3: s1Fe}
            Z1 = sx.simplex_with_faces(X, 3, want)
            if Z1 is None:
                return stuck(i, "bottom (outer horn, index 0)", want)
            T[v] = X.face(Z1, 0)
        fills[i] = (Z1, Z2, Z3)

    # assemble the homotopy on the materialized prism I[n] x Delta[2]
    D2 = sx.delta(2)
    P3 = sx.product(S, D2, 3).sset
    assign = {}
    for g in P3.all_gens():
        ks, kd = P3.labels[g]
        svals = lf._vertex_seq(S, ks)
        path = list(zip(svals, lf._vertex_seq(D2, kd)))
        if min(svals) == max(svals):
            # lies in one end triangle
            sub = X.subsimplex(T[svals[0]], D2.labels[kd.gen])
            assign[g] = apply_degeneracy_word(sub, kd.degens)
        else:
            u = min(svals)
            local = [(0 if s == u else 1, d) for s, d in path]
            for which, shuffle in enumerate(_SEGMENT_SHUFFLES):
                if set(local) <= set(shuffle):
                    idx = [shuffle.index(x) for x in local]
                    assign[g] = X.subsimplex(fills[u + 1][which], idx)
                    break
            else:
                raise AssertionError(f"prism simplex {path} fits no segment")
    h = SimplicialMap(P3, X, assign)
    h.check()
    return {
        "status": "ok",
        "homotopy": h,
        "direction": direction,
        "witness": None,
        "fills": 3 * n + 1,
    }


# ---------------------------------------------------------------------------
# Theorem-A style checkers


def quillen_a_verify(G: SimplicialMap, d: int = 1) -> dict:
    """Per-vertex weak contractibility of the comma construction, plus a
    direct comparison of components and abelianized edge-path groups."""
    Y = G.target
    per_vertex = {}
    verdict = "pass"
    witness = None
    for y in Y.simplices(0):
        F, _, _ = js.comma(G, y, d)
        rep = hl.weak_contractibility_report(F, d)
        per_vertex[y] = rep
        if rep["verdict"] == "refuted" and verdict == "pass":
            verdict = "fail"
            witness = y
        elif rep["verdict"] == "inconclusive" and verdict == "pass":
            verdict = "inconclusive"
    corroboration = {
        "source": kt._pi_invariants(G.source),
        "target": kt._pi_invariants(Y),
    }
    corroboration["agree"] = corroboration["source"] == corroboration["target"]
    return {
        "verdict": verdict,
        "witness": witness,
        "per_vertex": per_vertex,
        "corroboration": corroboration,
        "dim": d,
    }


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
            out.append(cats.poset_category(range(size), lambda a, b, p=pairs: (a, b) in p))
    return out


def _poset_diagram_colimits(F: SimplicialMap, Akan: SimplicialSet, incl: SimplicialMap,
                            d: int) -> dict:
    """For every diagram over the nerve of a poset with at most two elements
    landing in the maximal Kan complex ``Akan`` of the source (included by
    ``incl``): does a colimiting cocone exist, and is its image under F
    still colimiting?"""
    checked = 0
    missing = []
    not_preserved = []
    for P in small_posets(2):
        NP = cats.nerve(P, d)
        for mp in sx.enumerate_maps(NP, Akan):
            a = incl.compose(mp)
            checked += 1
            found = js.colimiting_cocones(a, 1)
            if not found:
                missing.append(a)
            elif not js.is_colimiting_cocone(F.compose(a), F.compose(found[0]), 1):
                not_preserved.append(a)
    return {
        "diagrams_checked": checked,
        "without_colimit": len(missing),
        "not_preserved": len(not_preserved),
        "ok": not missing and not not_preserved,
    }


def main_technical_verify(F: SimplicialMap, d: int = 2) -> dict:
    """Hypothesis checks (essential surjectivity, poset-indexed colimits in
    the source preserved by F, reflection of equivalences) and the desk-scale
    conclusion: components and abelianized edge-path groups of the maximal
    Kan subcomplexes agree."""
    A, B = F.source, F.target
    hoA, hoB = qc.ho_category(A), qc.ho_category(B)

    ess = cats.functor_equivalence_report(qc.induced_ho_functor(hoA, hoB, F))[
        "essentially_surjective"]

    reflects = True
    reflect_witness = None
    for g in A.gens(1):
        e = SimplexKey(g)
        if hoB.cat.is_iso(hoB.cls(F(e))) and not hoA.cat.is_iso(hoA.cls(e)):
            reflects = False
            reflect_witness = e
            break

    Akan, incl = qc.maximal_kan(A, min(d, A.effective_bound()))
    Bkan, _ = qc.maximal_kan(B, min(d, B.effective_bound()))
    colim = _poset_diagram_colimits(F, Akan, incl, d)

    conclusion = {
        "source": kt._pi_invariants(Akan),
        "target": kt._pi_invariants(Bkan),
    }
    conclusion["agree"] = conclusion["source"] == conclusion["target"]

    hypotheses = {
        "essentially_surjective": ess,
        "reflects_equivalences": reflects,
        "reflection_witness": reflect_witness,
        "poset_colimits": colim,
    }
    return {
        "hypotheses": hypotheses,
        "hypotheses_hold": ess and reflects and colim["ok"],
        "conclusion": conclusion,
        "dim": d,
    }


# ---------------------------------------------------------------------------
# homotopy cocartesian squares


def _square_as_cocone(square: SimplicialMap):
    """Reinterpret a map Delta[1] x Delta[1] -> X as a cocone over its span:
    returns (span base map, extension over span * Delta[0])."""
    S = square.source  # materialized product of delta(1) with delta(1)
    H = sx.horn(2, 0)
    J = fm.join(H, sx.delta(0), 2)
    corner = {0: (0, 0), 1: (0, 1), 2: (1, 0), "tip": (1, 1)}

    def hpath(u):
        return [corner[H.labels[v.gen][0]] for v in H.vertices(u)]

    # a simplex of S is fixed by its vertex path, a monotone path of corners
    vmap = {}
    for g in J.sset.all_gens():
        lbl = J.sset.labels[g]
        if lbl[0] == "a":
            path = hpath(lbl[1])
        elif lbl[0] == "b":
            path = [corner["tip"]]
        else:
            _, u, v = lbl
            path = hpath(u) + [corner["tip"]] * (v.dim + 1)
        vmap[g] = product_path_key(S, S.family.X, S.family.Y, path)
    m = SimplicialMap(J.sset, S, vmap)
    ext = square.compose(m)
    base = ext.compose(J.left)
    return base, ext


def homotopy_cocartesian_check(W, square: SimplicialMap, d: int = 1) -> bool:
    """True iff one leg of the square is marked in the Waldhausen data W
    and the square is a colimiting cocone over its span.

    The cocone is certified by slice initiality when the ambient object is
    deep enough; bounded nerves fall back to the 1-categorical
    universal-property oracle.
    """
    base, ext = _square_as_cocone(square)
    H = base.source
    X = W.underlying
    leg1 = base(SimplexKey(H.gen_of_label((0, 1))))
    leg2 = base(SimplexKey(H.gen_of_label((0, 2))))
    if not (W.is_cof(leg1) or W.is_cof(leg2)):
        return False
    need = 1 + (d + 1) + 1  # join dim for the slice enumeration
    if X.effective_bound() < need:
        if X.category is None:
            raise BoundExceeded("square check needs dimension %d" % need)
        C = X.category
        f_m, g_m = cats.edge_morphism(C, X, leg1), cats.edge_morphism(C, X, leg2)
        J = ext.source
        tipkey = ext(J.key_of(0, ("b", SimplexKey((0, 0)))))
        i_m = cats.edge_morphism(C, X, ext(J.key_of(
            1, ("j", SimplexKey(H.gen_of_label((1,))), SimplexKey((0, 0))))))
        j_m = cats.edge_morphism(C, X, ext(J.key_of(
            1, ("j", SimplexKey(H.gen_of_label((2,))), SimplexKey((0, 0))))))
        return C.is_pushout_cocone(f_m, g_m, X.labels[tipkey.gen], i_m, j_m)
    return js.is_colimiting_cocone(base, ext, d)


# ---------------------------------------------------------------------------
# restriction-equivalence check


def _hom_restriction_map(Hbig: sx.MaterializedSSet, Hsmall: sx.MaterializedSSet,
                         j: SimplicialMap) -> SimplicialMap:
    """Restriction X^{A'} -> X^{A} along j : A -> A', where both homs were
    ``internal_hom`` materializations with the same target."""
    fb: fm.MapFamily = Hbig.family
    fs: fm.MapFamily = Hsmall.family
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
    AJ = fm.join(A, sx.delta(0), (A.top_dim if A.top_dim >= 0 else -1) + 1)
    Hbig = qc.internal_hom(AJ.sset, X, max(d, 2))
    Hsmall = qc.internal_hom(A, X, max(d, 2))
    r_full = _hom_restriction_map(Hbig, Hsmall, AJ.left)

    # classify vertices of Hbig: which are colimiting cocones on their base?
    colim_vertices = []
    base_with_colim = {}
    fb: fm.MapFamily = Hbig.family
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
        if js.is_colimiting_cocone(base, ext, d):
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
    eq = cats.functor_equivalence_report(
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


# ---------------------------------------------------------------------------
# cone extension check


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
        NP = cats.nerve(P, len(P.objects))
        J = fm.join(NP, sx.delta(0), NP.top_dim + 1)
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
