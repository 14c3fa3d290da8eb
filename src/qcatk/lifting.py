"""Lifting-property checks for natural transformations.

Natural transformations between functors out of a spine are maps
``I[n] x Delta[1] -> X`` where ``I[n]`` is the spine of the n-simplex.
This module provides:

* the homotopic-components hypothesis checker used by the iterated-level
  equivalence theorem (:func:`components_hypothesis_check`);
* right-lifting-property checks against prism inclusions
  (:func:`rlp_check`);
* :func:`higher_iterate_verify`, which checks the hypotheses of the
  iterated-level equivalence statement and independently verifies its
  conclusion on iterated cofibration-sequence levels.

The horn-filler audits and the prism construction, which no command runs,
are in :mod:`qcatk.statements`.
"""

from __future__ import annotations

from . import simplicial as sx
from .ssets import SimplexKey, SimplicialMap, SimplicialSet, key_degeneracy

# ---------------------------------------------------------------------------
# simplices of base x Delta[k] and spine products


def _vertex_seq(S: SimplicialSet, key: SimplexKey) -> list:
    """The vertex labels along a simplex of a vertex-subset complex; the
    inverse of :func:`simplicial.key_from_vertex_seq`."""
    return [S.labels[v.gen][0] for v in S.vertices(key)]


def _key_along(Q: sx.MaterializedSSet, kb: SimplexKey, seq) -> SimplexKey:
    """The key of the simplex of Q = base x Delta[k] whose base part is the
    key ``kb`` and whose Delta[k] part has vertex sequence ``seq``.  The
    base part stays a key: the base may be a product of spines, which is
    not a vertex-subset complex."""
    return Q.key_of(kb.dim, (kb, sx.key_from_vertex_seq(Q.family.Y, seq)))


def _end_keys(Q: sx.MaterializedSSet) -> list:
    """The keys of base x {0} and then of base x {1} in Q = base x Delta[1],
    in base generator order."""
    base = Q.family.X
    return [_key_along(Q, SimplexKey(g), (j,) * (g[0] + 1))
            for j in (0, 1) for g in base.all_gens()]


def _ends(m: SimplicialMap) -> tuple:
    """The values of a map out of base x Delta[1] on base x {0} and then on
    base x {1}, in base generator order."""
    return tuple(map(m, _end_keys(m.source)))


def spine_product(ns) -> SimplicialSet:
    """The product of spines I[n_1] x ... x I[n_k]; the point for k = 0.

    The result is complete: a product of k spines is k-dimensional.
    """
    ns = tuple(ns)
    if not ns:
        return sx.point()
    cur = sx.spine(ns[0])
    for j, n in enumerate(ns[1:], start=2):
        cur = sx.product(cur, sx.spine(n), j).sset
    return cur


# ---------------------------------------------------------------------------
# the homotopic-components hypothesis


def components_hypothesis_check(X: SimplicialSet, nbar=()) -> dict:
    """Check, exhaustively for p = 1, that any two natural
    transformations I[p] x Delta[1] -> X^{I[nbar]} with homotopic
    components are homotopic.

    Transformations are handled in adjoint form, as maps
    (I[nbar] x I[p]) x Delta[1] -> X; a component at a vertex of I[p] is
    then a map I[nbar] x Delta[1] -> X.

    A pair (alpha, beta) is homotopic when the map on base x
    boundary(Delta[2]) that is alpha on face 1, beta on face 0 and alpha's
    source end, held constant, on face 2 extends over base x Delta[2].
    One search relative to that boundary
    (:func:`simplicial.relative_maps`) answers it for every pair, and the
    first pair in order with no extension is the witness.
    """
    from . import quasicat as qc

    nbar = tuple(nbar)
    p = 1
    base = spine_product(nbar + (p,))
    needed = base.top_dim + 2  # dimension of base x Delta[2]
    if X.effective_bound() < needed and X.category is not None:
        from .cats import nerve

        X = nerve(X.category, needed)
    X.require_bound(needed, "components hypothesis check")
    Q1 = sx.product(base, sx.delta(1), base.top_dim + 1).sset
    maps = sx.enumerate_maps(Q1, X)
    edge_cls = qc.homotopy_classes(X)

    # components are indexed by vertices of the I[p] factor: in adjoint
    # form, by restrictions to sub-bases I[nbar] x {vertex}.  For the
    # homotopy comparison it is equivalent (and simpler) to compare
    # componentwise at every vertex of the whole base.  The keys of Q1 that
    # the ends and the components read are the same for every map.
    ends = _end_keys(Q1)
    component_keys = [_key_along(Q1, key_degeneracy(SimplexKey(v), 0), (0, 1))
                      for v in base.gens(0)]
    groups: dict = {}
    for m in maps:
        groups.setdefault(tuple(map(m, ends)), []).append(
            (m, [edge_cls[m(k)] for k in component_keys]))
    pairs = [(a, b) for group in groups.values()
             for i, (a, ca) in enumerate(group) for b, cb in group[i + 1:] if ca == cb]

    failed = None
    if pairs:
        D2 = sx.delta(2)
        Q2 = sx.product(base, D2, needed).sset
        _, inner = _boundary_subcomplex(Q2, D2, strong=False)
        inner = set(inner)

        def on_boundary(kb, kd):
            """Which map (0 for alpha, 1 for beta) the boundary spot (kb, kd)
            reads, and at which key of Q1."""
            seq = _vertex_seq(D2, kd)
            if set(seq) <= {0, 2}:
                return 0, _key_along(Q1, kb, [v // 2 for v in seq])
            if set(seq) <= {1, 2}:
                return 1, _key_along(Q1, kb, [v - 1 for v in seq])
            return 0, _key_along(Q1, kb, [0] * len(seq))

        spots = [(g, *on_boundary(*Q2.labels[g])) for g in Q2.all_gens() if g in inner]
        bounds = [{g: ab[side](k) for g, side, k in spots} for ab in pairs]
        extends = {tuple(u.values()): bool(exts)
                   for u, exts in sx.relative_maps(Q2, X, inner, restrict=bounds)}
        failed = next((i for i, u in enumerate(bounds)
                       if not extends.get(tuple(u.values()))), None)
    report = {
        "verdict": "pass" if failed is None else "fail",
        "nbar": nbar,
        "tested_p": [p],
        "pairs_with_homotopic_components": len(pairs) if failed is None else failed + 1,
        "witness": None,
    }
    if failed is not None:
        a, b = pairs[failed]
        report["witness"] = {"p": p, "alpha": dict(a.assign), "beta": dict(b.assign)}
    return report


# ---------------------------------------------------------------------------
# right lifting properties against prism inclusions


def _boundary_subcomplex(P3, D2, strong: bool):
    """The boundary Bd of the prism P3, and the generators of P3 it keeps."""
    def keep(key: SimplexKey) -> bool:
        kI, kD = P3.labels[key.gen]
        partial = set(D2.labels[kD.gen]) != {0, 1, 2}
        if strong:
            return partial or kI.gen[0] == 0
        return partial

    Bd, _ = sx.subcomplex(P3, keep, P3.top_dim)
    return Bd, [Bd.labels[gb].gen for gb in Bd.all_gens()]


def _on_boundary(Bd, u: dict) -> dict:
    """A map on the generators of P3 that ``Bd`` keeps, as a map out of Bd."""
    return {gb: u[Bd.labels[gb].gen] for gb in Bd.all_gens()}


def rlp_check(G, nbar=(), kind: str = "prism") -> dict:
    """Right-lifting-property checks against prism inclusions.

    ``kind="prism"``: does the map G have the right lifting property with
    respect to I[nbar] x boundary(Delta[2]) into I[nbar] x Delta[2]?  All
    commuting squares are enumerated and a lift is searched for each.

    ``kind="strong-replacement"``: a property of the target alone — every
    map defined on the union of (vertices of I[nbar]) x Delta[2] with
    I[nbar] x boundary(Delta[2]) extends to I[nbar] x Delta[2].  ``G`` may
    be the simplicial set itself or a map (its target is used).

    Each check is searched relative to the boundary
    (:func:`simplicial.relative_maps`), so the boundary part of the search
    tree is walked once.  Strong replacement is one search of the prism
    into the target, yielding every boundary map with its extensions.  The
    prism check is two: one into the source, yielding every boundary map u
    with its lifts, and one into the target restricted to the maps G∘u.
    Both charge the ledger of the enclosing ``ssets.budget`` block, so
    the budget bounds the whole check, not the work for one boundary map.

    Problems are counted, and the first failure is reported, in the order
    of :func:`simplicial.relative_maps`: boundary maps by their values in
    ``P3.all_gens()`` order, and the maps below each likewise.  G is
    applied once per simplex of the source, and a problem is solved when
    the values of the map below are those of G after some lift.
    """
    nbar = tuple(nbar)
    In = spine_product(nbar)
    D2 = sx.delta(2)
    P3 = sx.product(In, D2, In.top_dim + 2).sset
    problems = 0
    if kind == "prism":
        if not isinstance(G, SimplicialMap):
            raise ValueError("prism lifting needs a simplicial map")
        A, B = G.source, G.target
        A.require_bound(P3.top_dim, "prism lifting")
        B.require_bound(P3.top_dim, "prism lifting")
        Bd, inner = _boundary_subcomplex(P3, D2, strong=False)
        lifted = sx.relative_maps(P3, A, inner)
        image: dict = {}  # key of A -> G(key), each computed once

        def at(key):
            value = image.get(key)
            if value is None:
                value = image[key] = G(key)
            return value

        pushed = [{g: at(k) for g, k in u.items()} for u, _ in lifted]
        below = {tuple(w.values()): vs
                 for w, vs in sx.relative_maps(P3, B, inner, restrict=pushed)}
        for (u, lifts), w in zip(lifted, pushed):
            vs = below.get(tuple(w.values()))
            if not vs:
                continue
            # lifts and maps below are dicts over P3.all_gens() in one order
            images = {tuple(map(at, m.assign.values())) for m in lifts}
            for v in vs:
                problems += 1
                if tuple(v.assign.values()) not in images:
                    return {
                        "verdict": "fail", "kind": kind, "nbar": nbar,
                        "problems": problems,
                        "witness": {"boundary": _on_boundary(Bd, u),
                                    "below": dict(v.assign)},
                    }
    elif kind == "strong-replacement":
        B = G.target if isinstance(G, SimplicialMap) else G
        B.require_bound(P3.top_dim, "prism extension")
        Bd, inner = _boundary_subcomplex(P3, D2, strong=True)
        for u, extensions in sx.relative_maps(P3, B, inner):
            problems += 1
            if not extensions:
                return {
                    "verdict": "fail", "kind": kind, "nbar": nbar,
                    "problems": problems,
                    "witness": {"boundary": _on_boundary(Bd, u)},
                }
    else:
        raise ValueError(f"unknown lifting kind {kind!r}")
    return {"verdict": "pass", "kind": kind, "nbar": nbar,
            "problems": problems, "witness": None}


# ---------------------------------------------------------------------------
# iterated-level equivalence verification


def _tau1_facts(G: ExactFunctorData) -> tuple[dict, bool, bool]:
    """Whether G reflects cofibrations and whether its homotopy-category
    functor and the cofibration variant are equivalences: these three facts,
    and the reflection taken with each equivalence."""
    from . import quasicat as qc
    from .waldhausen import cof_ho_equivalence, reflects_cofibrations

    facts = {
        "reflects_cofibrations": reflects_cofibrations(G),
        "tau1_equivalence": qc.tau1_map_equivalence(G.themap),
        "tau1_cof_equivalence": cof_ho_equivalence(G),
    }
    reflects = facts["reflects_cofibrations"]["reflects"]
    return (facts, reflects and facts["tau1_equivalence"]["equivalence"],
            reflects and facts["tau1_cof_equivalence"]["equivalence"])


def higher_iterate_verify(G: ExactFunctorData, nbar, d: int = 2) -> dict:
    """Check the hypotheses of the iterated-level equivalence statement for
    an exact map and verify its conclusion directly on iterated
    cofibration-sequence levels.

    Hypotheses: the map reflects cofibrations; its homotopy-category functor
    is an equivalence (and the cofibration variant, for the marked form);
    and the homotopic-components property holds in source and target, which
    is only checkable on finitely many shapes: it is checked for
    transformations I[1] x Delta[1] -> X (nbar = (), p = 1).

    The conclusion is verified for the given ``nbar`` (at most two entries)
    by iterating the cofibration-sequence level construction on both sides,
    transporting the induced functor, and table-checking equivalence of the
    level categories, of their marked subcategories, and reflection of the
    marking.  The report states whether the observed conclusion is
    consistent with each variant of the statement.
    """
    from .cats import functor_equivalence_report, nerve_functor_map
    from .sconstruction import f_n, level_functor
    from .waldhausen import ExactFunctorData

    nbar = tuple(nbar)
    if len(nbar) > 2:
        raise ValueError("at most two iterations are supported")
    hyp, tau1_ok, tau1_cof_ok = _tau1_facts(G)
    hyp["components_source"] = [components_hypothesis_check(G.source.underlying)]
    hyp["components_target"] = [components_hypothesis_check(G.target.underlying)]
    comps_ok = all(r["verdict"] == "pass" for r in
                   hyp["components_source"] + hyp["components_target"])
    hyp_hold, hyp_hold_cof = tau1_ok and comps_ok, tau1_cof_ok and comps_ok

    # build the iterated levels and the induced exact map between them
    cur = G
    level_reports = []
    for n in nbar:
        src = f_n(cur.source, n, d)
        tgt = f_n(cur.target, n, d)
        Ffin = level_functor(src, tgt, base_map=cur.themap)
        themap = nerve_functor_map(Ffin, src.sset, tgt.sset)
        cur = ExactFunctorData(themap, src.wdata, tgt.wdata)
        level_reports.append({
            "n": n,
            "source_objects": len(src.maps),
            "target_objects": len(tgt.maps),
            "functor": functor_equivalence_report(Ffin),
        })

    conclusion, concl_ok, concl_ok_cof = _tau1_facts(cur)
    conclusion["levels"] = level_reports
    return {
        "nbar": nbar,
        "dim": d,
        "hypotheses": hyp,
        "hypotheses_hold": hyp_hold,
        "hypotheses_hold_cof_variant": hyp_hold_cof,
        "conclusion": conclusion,
        "conclusion_holds": concl_ok,
        "conclusion_holds_cof_variant": concl_ok_cof,
        "consistent_with_statement": (not hyp_hold) or concl_ok,
        "consistent_with_cof_statement": (not hyp_hold_cof) or concl_ok_cof,
    }
