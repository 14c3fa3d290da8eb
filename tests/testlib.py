"""Fixtures and oracles shared by the tests: small categories, the
maximal Waldhausen marking, the homotopy-category comparison with a known
category and the faces of a prism homotopy.  The library has no other user
for them."""

from qcatk import lifting as lf
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk.cats import FinCategory, edge_morphism, poset_category
from qcatk.waldhausen import WaldhausenData, nerve_waldhausen


def chain_poset(n: int) -> FinCategory:
    """The linearly ordered poset [n] = {0 < 1 < ... < n}."""
    return poset_category(range(n + 1), lambda a, b: a <= b)


def slice_category(C: FinCategory, c) -> FinCategory:
    """Category of morphisms into c; a morphism f -> g is a triple
    (f, g, h) with g o h = f."""
    objects = [m for m in C.morphisms if C.tgt[m] == c]
    morphisms = [
        (f, g, h)
        for f in objects
        for g in objects
        for h in C.hom(C.src[f], C.src[g])
        if C.compose_mor(g, h) == f
    ]
    src = {m: m[0] for m in morphisms}
    tgt = {m: m[1] for m in morphisms}
    ids = {f: (f, f, C.ids[C.src[f]]) for f in objects}
    comp = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if m1[1] == m2[0]:
                comp[(m2, m1)] = (m1[0], m2[1], C.compose_mor(m2[2], m1[2]))
    return FinCategory(objects, morphisms, src, tgt, ids, comp)


def maximal_marking_waldhausen(C: FinCategory, zero_obj, d: int) -> WaldhausenData:
    return nerve_waldhausen(C, zero_obj, [m for m in C.morphisms], d)


def ho_equals_category(X: sx.SimplicialSet, C: FinCategory) -> bool:
    """For a nerve X = N(C): the homotopy category is isomorphic to C via
    the labelling of vertices and edges."""
    ho = qc.ho_category(X)
    obj_map = {v: X.labels[v.gen] for v in ho.cat.objects}
    if sorted(map(repr, obj_map.values())) != sorted(map(repr, C.objects)):
        return False

    mors = {m: edge_morphism(C, X, m) for m in ho.cat.morphisms}
    if sorted(map(repr, mors.values())) != sorted(map(repr, C.morphisms)):
        return False
    for (g, f), h in ho.cat.comp.items():
        if C.compose_mor(mors[g], mors[f]) != mors[h]:
            return False
    return True


def prism_face(h: sx.SimplicialMap, P1: sx.MaterializedSSet, face: int) -> sx.SimplicialMap:
    """Restriction of a prism homotopy I[n] x Delta[2] -> X along a face of
    Delta[2], as a map out of the given product I[n] x Delta[1].

    Face 1 recovers the first transformation, face 0 the second, face 2
    the degenerate one.
    """
    D1 = P1.family.Y
    vmap = ((1, 2), (0, 2), (0, 1))[face]
    assign = {}
    for g in P1.all_gens():
        kb, kd = P1.labels[g]
        assign[g] = lf._along(h, kb, [vmap[v] for v in lf._vertex_seq(D1, kd)])
    return sx.SimplicialMap(P1, h.target, assign)
