"""Slices, cocones, colimits, over-quasicategories and comma objects.

Slices are computed from the join adjunction: an n-simplex of a\\X is an
extension of a : A -> X over A * Delta[n], and dually for X/b.  A cocone on
a is its extension map A * Delta[0] -> X, a vertex of a\\X, and it is
colimiting when that vertex is initial.
"""

from __future__ import annotations

from . import families as fm
from . import homology as hl
from . import quasicat as qc
from . import simplicial as sx
from .ssets import SimplexKey, SimplicialMap, SimplicialSet

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
        return fm.join(A, sx.delta(n), A.top_dim + n + 1).sset

    return sx.MaterializedSSet(fm.MapFamily(a.target, shape, _under_act, _base_values(a, "a")), d)


def slice_over(b: SimplicialMap, d: int) -> sx.MaterializedSSet:
    """X/b: its n-simplices are the maps Delta[n] * A -> X extending b."""
    A = b.source

    def shape(n):
        return fm.join(sx.delta(n), A, A.top_dim + n + 1).sset

    return sx.MaterializedSSet(fm.MapFamily(b.target, shape, _over_act, _base_values(b, "b")), d)


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
    span = fm.pullback(G, proj, d)
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


def colimiting_cocones(a: SimplicialMap, d: int) -> list[SimplicialMap]:
    """The cocones on a whose initiality in a\\X is confirmed to dimension
    d, as maps A * Delta[0] -> X in the vertex order of a\\X."""
    sl = slice_under(a, d + 1)
    return [sl.family.as_map(0, sl.labels[g]) for g in sl.gens(0)
            if is_initial(sl, SimplexKey(g), d)["verdict"].startswith("confirmed")]


def is_colimiting_cocone(a: SimplicialMap, cocone: SimplicialMap, d: int) -> bool:
    """Whether the cocone A * Delta[0] -> X on a is initial in a\\X, confirmed
    to dimension d: the slice vertex is read off the cocone's values."""
    sl = slice_under(a, d + 1)
    vertex = sl.key_of(0, tuple(cocone.assign[h] for h in sl.family.shape(0).all_gens()))
    return is_initial(sl, vertex, d)["verdict"].startswith("confirmed")
