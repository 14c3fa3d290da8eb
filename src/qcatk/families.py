"""Joins, pullbacks and maps out of a cosimplicial shape, each a
:class:`simplicial.Family` that is materialized to a dimension bound.

Only the commands that build joins, slices, commas or internal homs load
this module; a lift or a homotopy category never does.
"""

from __future__ import annotations

from typing import Any, Callable

from . import simplicial as sx
from .simplicial import MaterializedSSet
from .ssets import Gen, SimplexKey, SimplicialMap, SimplicialSet, apply_degeneracy_word

# -- pullbacks and joins ---------------------------------------------------


class _PullbackFamily(sx.ProductFamily):
    def __init__(self, f: SimplicialMap, g: SimplicialMap):
        if f.target is not g.target:
            raise ValueError("pullback legs must share a target")
        super().__init__(f.source, g.source)
        self.f, self.g = f, g

    def elements(self, n):
        return [x for x in super().elements(n) if self.f(x[0]) == self.g(x[1])]


def pullback(f: SimplicialMap, g: SimplicialMap, d: int) -> sx._Span2:
    f.source.require_bound(d, "pullback")
    g.source.require_bound(d, "pullback")
    P = MaterializedSSet(_PullbackFamily(f, g), d)
    p1 = SimplicialMap(P, f.source, {h: P.labels[h][0] for h in P.all_gens()})
    p2 = SimplicialMap(P, g.source, {h: P.labels[h][1] for h in P.all_gens()})
    return sx._Span2(P, p1, p2)


class _JoinFamily(sx.Family):
    """(A * B)_n = A_n + B_n + sum over i+1+j=n of A_i x B_j."""

    def __init__(self, A: SimplicialSet, B: SimplicialSet):
        self.A, self.B = A, B

    def elements(self, n):
        out = [("a", k) for k in self.A.simplices(n)]
        out += [("b", k) for k in self.B.simplices(n)]
        for i in range(n):
            j = n - 1 - i
            out += [("j", a, b) for a in self.A.simplices(i) for b in self.B.simplices(j)]
        return out

    def face(self, n, x, i):
        if x[0] == "a":
            return ("a", self.A.face(x[1], i))
        if x[0] == "b":
            return ("b", self.B.face(x[1], i))
        _, a, b = x
        da = a.dim
        if i <= da:
            if da == 0:
                return ("b", b)
            return ("j", self.A.face(a, i), b)
        if b.dim == 0:
            return ("a", a)
        return ("j", a, self.B.face(b, i - da - 1))

    def degeneracy(self, n, x, i):
        if x[0] == "a":
            return ("a", self.A.degeneracy(x[1], i))
        if x[0] == "b":
            return ("b", self.B.degeneracy(x[1], i))
        _, a, b = x
        if i <= a.dim:
            return ("j", self.A.degeneracy(a, i), b)
        return ("j", a, self.B.degeneracy(b, i - a.dim - 1))


def join(A: SimplicialSet, B: SimplicialSet, d: int) -> sx._Span2:
    # complete inputs have a complete join once d reaches dim A + dim B + 1
    complete = A.bound is None and B.bound is None and d >= A.top_dim + B.top_dim + 1
    J = MaterializedSSet(_JoinFamily(A, B), d, complete=complete)
    inclA = SimplicialMap(
        A, J, {g: J.key_of(g[0], ("a", SimplexKey(g))) for g in A.all_gens() if g[0] <= d}
    )
    inclB = SimplicialMap(
        B, J, {g: J.key_of(g[0], ("b", SimplexKey(g))) for g in B.all_gens() if g[0] <= d}
    )
    return sx._Span2(J, inclA, inclB)


# -- maps out of a cosimplicial shape --------------------------------------


class MapFamily(sx.Family):
    """Maps out of a cosimplicial shape: the n-simplices are the maps
    ``shape(n) -> X`` that take the values ``fixed(shape(n))``, a dict of
    values on some generators, stored as value tuples in
    ``shape(n).all_gens()`` order.

    A monotone phi : [m] -> [n] sends an element e of ``shape(m)`` to the
    element ``act(e, dmap)`` of ``shape(n)``, where dmap : Delta[m] ->
    Delta[n] is the map phi induces; faces and degeneracies precompose
    along that map.  Internal homs (A x Delta[n]), mapping spaces and
    slices (A * Delta[n], Delta[n] * A) are its instances.
    """

    def __init__(self, X: SimplicialSet, shape: Callable[[int], MaterializedSSet],
                 act: Callable[[Any, SimplicialMap], Any],
                 fixed: Callable[[MaterializedSSet], dict[Gen, SimplexKey]]):
        self.X, self.act, self.fixed = X, act, fixed
        self._shape_of = shape
        self._shapes: dict[int, MaterializedSSet] = {}
        self._pulled: dict[tuple[int, int, int], list] = {}

    def shape(self, n: int) -> MaterializedSSet:
        if n not in self._shapes:
            self._shapes[n] = self._shape_of(n)
        return self._shapes[n]

    def elements(self, n):
        S = self.shape(n)
        maps = sx.enumerate_maps(S, self.X, fixed=self.fixed(S))
        order = S.all_gens()
        return [tuple(mp.assign[g] for g in order) for mp in maps]

    def as_map(self, n, x) -> SimplicialMap:
        S = self.shape(n)
        return SimplicialMap(S, self.X, dict(zip(S.all_gens(), x)))

    def _precompose(self, m, n, i, phi, x):
        # where each generator of shape(m) goes in shape(n), as (position in
        # x, degeneracy word), depends only on (m, n, i): m is n - 1 for a
        # face and n + 1 for a degeneracy
        pulled = self._pulled.get((m, n, i))
        if pulled is None:
            S, T = self.shape(m), self.shape(n)
            dmap = sx.delta_inclusion(sx.delta(m), sx.delta(n), phi)
            position = {g: j for j, g in enumerate(T.all_gens())}
            keys = [T.key_of(g[0], self.act(S.labels[g], dmap)) for g in S.all_gens()]
            pulled = self._pulled[(m, n, i)] = [(position[k.gen], k.degens) for k in keys]
        return tuple(apply_degeneracy_word(x[j], word) for j, word in pulled)

    def face(self, n, x, i):
        return self._precompose(n - 1, n, i, lambda v: v if v < i else v + 1, x)

    def degeneracy(self, n, x, i):
        return self._precompose(n + 1, n, i, lambda v: v if v <= i else v - 1, x)
