"""Desk-scale K-theory invariants.

The class group K0 of a Waldhausen structure is computed two independent
ways — as the abelianized edge-path group of the diagonal of the truncated
bisimplicial set of equivalence subcomplexes of the staircase levels, and
from a direct generators-and-relations presentation — and the two must
agree.  The truncation is one diagonal family: the core nerves of levels
0..2 with the maps that the level functors induce on them, materialized to
level 2.  The module also provides the approximation verifier for exact
functors; the Quillen-Theorem-A checker and the verifier for functors with
poset-indexed colimits are in :mod:`qcatk.statements`.
"""

from __future__ import annotations

from . import homology as hl
from . import quasicat as qc
from . import simplicial as sx
from .cats import groupoid_core, nerve, nerve_functor_map
from .homology import AbelianGroupPresentation, group_from_relations, pi0, pi1_abelianized
from .sconstruction import level_functor, s_n, s_structure_functor
from .ssets import SimplexKey, SimplicialSet
from .waldhausen import (
    ExactFunctorData,
    WaldhausenData,
    cof_ho_equivalence,
    reflects_cofibrations,
    validate_exact,
)


# -- the diagonal of a truncated bisimplicial set ------------------------------


class _DiagonalFamily(sx.Family):
    """The diagonal of a truncated bisimplicial set: levels L_0..L_top,
    where ``hfaces[(n, i)]`` is the horizontal map L_n -> L_{n-1} and
    ``hdegens[(n, i)]`` the map L_n -> L_{n+1}, and vertical structure is
    internal to each level.  diag_n is the n-simplices of level n, with
    mixed face and degeneracy maps."""

    def __init__(self, levels: list, hfaces: dict, hdegens: dict):
        self.levels, self.hfaces, self.hdegens = levels, hfaces, hdegens

    def elements(self, n):
        return self.levels[n].simplices(n)

    def face(self, n, x, i):
        return self.hfaces[(n, i)](self.levels[n].face(x, i))

    def degeneracy(self, n, x, i):
        return self.hdegens[(n, i)](self.levels[n].degeneracy(x, i))


# -- the equivalence levels of the staircase construction ----------------------


def s_equiv_truncation(W: WaldhausenData, d: int = 2):
    """Equivalence subcomplexes of the staircase levels 0..2 as the
    diagonal family of a bisimplicial truncation, plus the levels
    themselves.

    Each level nerve is a nerve of a diagram category, so its equivalence
    subcomplex is the nerve of the subcategory of invertible transformations;
    it is built from the groupoid core, and the level's own nerve is never
    read.  A functor between levels sends invertible transformations to
    invertible ones, so it maps the core nerves as it is.  Each level is
    built once.  Returns (family, grid levels); the family's levels are the
    core nerves."""
    grids = [s_n(W, n, d) for n in range(3)]
    levels = [nerve(groupoid_core(g.cat), max(d, n)) for n, g in enumerate(grids)]

    def structure_map(theta, n, m):
        """Level n -> level m, induced by the monotone theta: [m] -> [n]."""
        return nerve_functor_map(s_structure_functor(theta, grids[n], grids[m]),
                                 levels[n], levels[m])

    hfaces = {(n, i): structure_map(tuple(j for j in range(n + 1) if j != i), n, n - 1)
              for n in range(1, 3) for i in range(n + 1)}
    hdegens = {(n, i): structure_map(tuple(range(i + 1)) + tuple(range(i, n + 1)), n, n + 1)
               for n in range(2) for i in range(n + 1)}
    return _DiagonalFamily(levels, hfaces, hdegens), grids


def _k0_and_levels(W: WaldhausenData, d: int):
    """K0 by the diagonal route, with the levels it was computed from:
    returns (K0, (grid levels, core nerves))."""
    if d < 2:
        raise ValueError("K0 needs dimension at least 2")
    family, grids = s_equiv_truncation(W, d)
    D = sx.MaterializedSSet(family, 2)
    # the core has the level's objects, so the all-zero diagram is a vertex
    base = D.key_of(0, SimplexKey(family.levels[0].gen_of_label(grids[0].zero)))
    return pi1_abelianized(D, base), (grids, family.levels)


def k0_via_diagonal(W: WaldhausenData, d: int = 2) -> AbelianGroupPresentation:
    """K0 as the abelianized edge-path group of the diagonal of the
    2-truncated bisimplicial set of equivalence subcomplexes, based at the
    all-zero diagram."""
    return _k0_and_levels(W, d)[0]


# -- independent presentation oracle -------------------------------------------


def k0_relations(W: WaldhausenData) -> dict:
    """Generators (vertices) and relation rows for the class group of a
    nerve-backed Waldhausen structure.

    Relations: the zero object is trivial; for each marked edge whose
    pushout against the map to zero exists in the bounded base, the target
    class is the sum of the source class and the quotient class; sources and
    targets of equivalence edges agree."""
    X = W.underlying
    C = X.category
    if C is None:
        raise ValueError("presentation oracle needs nerve-backed data")
    verts = X.simplices(0)
    idx = {v: i for i, v in enumerate(verts)}
    zero_obj = X.labels[W.zero.gen]
    rows = []
    kinds = []

    def row():
        return [0] * len(verts)

    r = row()
    r[idx[W.zero]] = 1
    rows.append(r)
    kinds.append(("zero", W.zero))

    skipped = 0
    for e in sorted(W.cof):
        m = X.labels[e.gen][0]
        a, b = C.src[m], C.tgt[m]
        to_zero = C.hom(a, zero_obj)
        if len(to_zero) != 1:
            raise ValueError("zero object is not strictly terminal on hom sets")
        po = C.pushout(m, to_zero[0])
        if po is None:
            skipped += 1
            continue
        q = po[0]
        r = row()
        r[idx[SimplexKey(X.gen_of_label(b))]] += 1
        r[idx[SimplexKey(X.gen_of_label(a))]] -= 1
        r[idx[SimplexKey(X.gen_of_label(q))]] -= 1
        rows.append(r)
        kinds.append(("cofibration", m))
    for g in sorted(X.gens(1)):
        m = X.labels[g][0]
        if C.is_iso(m):
            r = row()
            r[idx[SimplexKey(X.gen_of_label(C.tgt[m]))]] += 1
            r[idx[SimplexKey(X.gen_of_label(C.src[m]))]] -= 1
            rows.append(r)
            kinds.append(("equivalence", m))
    return {"generators": verts, "rows": rows, "kinds": kinds, "skipped": skipped}


def k0_presentation_oracle(W: WaldhausenData) -> AbelianGroupPresentation:
    """Free abelian group on the vertices modulo the relations of
    :func:`k0_relations`."""
    data = k0_relations(W)
    return group_from_relations(len(data["generators"]), data["rows"])


def k0_agreement(W: WaldhausenData, d: int = 2) -> dict:
    a = k0_via_diagonal(W, d)
    b = k0_presentation_oracle(W)
    return {"diagonal": a, "oracle": b, "agree": a == b, "dim": d}


# -- approximation verifier ------------------------------------------------------


def _pi_invariants(X: SimplicialSet) -> dict:
    comps = pi0(X)
    return {
        "components": len(comps),
        "pi1_abelianized": sorted(
            (g.free_rank, g.torsion)
            for g in (pi1_abelianized(X, c) for c in comps)
        ),
    }


def _level_equiv_comparison(G: ExactFunctorData, n: int, src_levels, tgt_levels) -> dict:
    """Compare level n of both sides; each side is the (grid levels, core
    nerves) pair of :func:`_k0_and_levels`."""
    (grids_s, nerves_s), (grids_t, nerves_t) = src_levels, tgt_levels
    Ls, Lt = nerves_s[n], nerves_t[n]
    m = nerve_functor_map(level_functor(grids_s[n], grids_t[n], base_map=G.themap), Ls, Lt)
    src_comps = pi0(Ls)
    comp_of = hl.component_of(Lt)
    tgt_comps = set(comp_of.values())
    # induced map on components: image component of each source representative
    induced = {c: comp_of[m(c)] for c in src_comps}
    bijective = len(set(induced.values())) == len(tgt_comps) and len(src_comps) == len(
        tgt_comps
    )
    return {
        "level": n,
        "pi0_bijective": bijective,
        "source": _pi_invariants(Ls),
        "target": _pi_invariants(Lt),
    }


def approximation_verify(G: ExactFunctorData, d: int = 2) -> dict:
    """Hypothesis report for the approximation statements, and — when the
    hypotheses hold — the desk-scale conclusion: component bijection and
    equality of K0 invariant factors, with per-level comparisons of the
    equivalence subcomplexes for levels n <= 2.  Each side's levels 0..2
    are built once and serve both K0 and the per-level comparisons; the
    level nerves themselves are never built."""
    from .waldhausen import admits_factorization

    exact_rep = validate_exact(G)
    # only an exact map restricts to the cofibrations; else this is unchecked
    cof_equiv = cof_ho_equivalence(G)["equivalence"] if exact_rep["ok"] else None
    refl = reflects_cofibrations(G)
    hypotheses = {
        "exact": exact_rep["ok"],
        "exact_violations": exact_rep["violations"],
        "cofibration_ho_equivalence": cof_equiv,
        "reflects_cofibrations": refl["reflects"],
        "reflection_witness": refl["witness"],
        "source_all_maps_cofibrations": all(
            G.source.is_cof(e) for e in G.source.edges()
        ),
        "source_admits_factorization": admits_factorization(G.source),
        "target_admits_factorization": admits_factorization(G.target),
    }
    applicable = (
        hypotheses["exact"]
        and hypotheses["cofibration_ho_equivalence"]
        and hypotheses["reflects_cofibrations"]
    )
    report = {"hypotheses": hypotheses, "applicable": applicable, "dim": d}
    if not applicable:
        report["conclusion"] = None
        return report

    k_src, src_levels = _k0_and_levels(G.source, d)
    k_tgt, tgt_levels = _k0_and_levels(G.target, d)
    dS = min(d, G.source.underlying.effective_bound())
    dT = min(d, G.target.underlying.effective_bound())
    kan_src, _ = qc.maximal_kan(G.source.underlying, dS)
    kan_tgt, _ = qc.maximal_kan(G.target.underlying, dT)
    levels = [_level_equiv_comparison(G, n, src_levels, tgt_levels) for n in range(3)]
    report["conclusion"] = {
        "k0_source": k_src,
        "k0_target": k_tgt,
        "k0_match": k_src == k_tgt,
        "pi0_source": len(pi0(kan_src)),
        "pi0_target": len(pi0(kan_tgt)),
        "levels": levels,
        "pass": k_src == k_tgt
        and len(pi0(kan_src)) == len(pi0(kan_tgt))
        and all(
            lv["pi0_bijective"]
            and lv["source"]["pi1_abelianized"] == lv["target"]["pi1_abelianized"]
            for lv in levels
        ),
    }
    return report
