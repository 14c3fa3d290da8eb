"""``families.MapFamily`` against the families it replaced: internal
homs, mapping spaces and slices each had a family of their own, kept here
as oracles.  Both sides must give the same serialization, the same key for
every element (degenerate ones included, which exercises faces and
degeneracies) and the same map out of the shape for every generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import families as fm
from qcatk import io
from qcatk import joinslice as js
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk.cats import nerve
from qcatk.ssets import SimplicialMap, apply_degeneracy_word
from qcatk.zoo import random_category


# -- the oracles ----------------------------------------------------------------


def _delta_monotone_map(m, n, phi):
    return sx.delta_inclusion(sx.delta(m), sx.delta(n), phi)


class HomFamily(sx.Family):
    """(X^A)_n = maps A x Delta[n] -> X, stored as assignment tuples over the
    generators of the materialized product in canonical order."""

    def __init__(self, A, X):
        self.A, self.X = A, X
        self._prod = {}

    def prod(self, n):
        if n not in self._prod:
            if self.A.is_empty():
                self._prod[n] = sx.MaterializedSSet(sx.ProductFamily(self.A, sx.delta(n)), 0)
            else:
                d = self.A.top_dim + n
                self.A.require_bound(d, "internal hom")
                self._prod[n] = sx.product(self.A, sx.delta(n), d).sset
        return self._prod[n]

    def fixed_for(self, n):
        return None

    def elements(self, n):
        P = self.prod(n)
        maps = sx.enumerate_maps(P, self.X, fixed=self.fixed_for(n))
        order = P.all_gens()
        return [tuple(mp.assign[g] for g in order) for mp in maps]

    def as_map(self, n, x):
        return SimplicialMap(self.prod(n), self.X, dict(zip(self.prod(n).all_gens(), x)))

    def _precompose(self, n_from, n_to, phi, x):
        Pf, Pt = self.prod(n_from), self.prod(n_to)
        f = self.as_map(n_to, x)
        dmap = _delta_monotone_map(n_from, n_to, phi)
        out = []
        for g in Pf.all_gens():
            ka, kb = Pf.labels[g]
            out.append(f(Pt.key_of(g[0], (ka, dmap(kb)))))
        return tuple(out)

    def face(self, n, x, i):
        return self._precompose(n - 1, n, lambda v: v if v < i else v + 1, x)

    def degeneracy(self, n, x, i):
        return self._precompose(n + 1, n, lambda v: v if v <= i else v - 1, x)


class MappingSpaceFamily(HomFamily):
    """X(a, b): maps Delta[1] x Delta[n] -> X constant at a and b on the two
    ends."""

    def __init__(self, X, a, b):
        super().__init__(sx.delta(1), X)
        self.a, self.b = a, b

    def fixed_for(self, n):
        P = self.prod(n)
        v0 = self.A.gen_of_label((0,))
        v1 = self.A.gen_of_label((1,))
        fixed = {}
        for g in P.all_gens():
            ka, _ = P.labels[g]
            if ka.gen == v0:
                end = self.a
            elif ka.gen == v1:
                end = self.b
            else:
                continue
            fixed[g] = apply_degeneracy_word(end, range(g[0] - 1, -1, -1))
        return fixed


class SliceFamily(sx.Family):
    """a\\X (side='under') or X/b (side='over') via join extensions."""

    def __init__(self, base, side):
        self.base = base
        self.A, self.X = base.source, base.target
        self.side = side
        self._join = {}

    def joined(self, n):
        if n not in self._join:
            d = (self.A.top_dim if self.A.top_dim >= 0 else -1) + n + 1
            if self.side == "under":
                self._join[n] = fm.join(self.A, sx.delta(n), d).sset
            else:
                self._join[n] = fm.join(sx.delta(n), self.A, d).sset
        return self._join[n]

    def fixed_for(self, n):
        J = self.joined(n)
        tag = "a" if self.side == "under" else "b"
        return {g: self.base(J.labels[g][1]) for g in J.all_gens() if J.labels[g][0] == tag}

    def elements(self, n):
        J = self.joined(n)
        maps = sx.enumerate_maps(J, self.X, fixed=self.fixed_for(n))
        order = J.all_gens()
        return [tuple(mp.assign[g] for g in order) for mp in maps]

    def as_map(self, n, x):
        return SimplicialMap(self.joined(n), self.X, dict(zip(self.joined(n).all_gens(), x)))

    def _induced(self, n_from, n_to, phi, x):
        Jf, Jt = self.joined(n_from), self.joined(n_to)
        f = self.as_map(n_to, x)
        dmap = _delta_monotone_map(n_from, n_to, phi)

        def push(elem):
            if elem[0] == "a":
                return elem if self.side == "under" else ("a", dmap(elem[1]))
            if elem[0] == "b":
                return elem if self.side == "over" else ("b", dmap(elem[1]))
            _, u, v = elem
            if self.side == "under":
                return ("j", u, dmap(v))
            return ("j", dmap(u), v)

        return tuple(f(Jt.key_of(g[0], push(Jf.labels[g]))) for g in Jf.all_gens())

    def face(self, n, x, i):
        return self._induced(n - 1, n, lambda v: v if v < i else v + 1, x)

    def degeneracy(self, n, x, i):
        return self._induced(n + 1, n, lambda v: v if v <= i else v - 1, x)


# -- instances ------------------------------------------------------------------


def _target(rng):
    """A random nerve, standard simplex, horn or boundary."""
    kind = rng.choice(["nerve", "delta", "horn", "boundary"])
    if kind == "nerve":
        return nerve(random_category(rng, 3), 4)
    if kind == "delta":
        return sx.delta(rng.randint(0, 3))
    if kind == "horn":
        n = rng.randint(2, 3)
        return sx.horn(n, rng.randint(0, n))
    return sx.boundary(rng.randint(1, 3))


def _base(rng, X, dim):
    """A map Delta[dim] -> X (dim 0 or 1) picking a random vertex or edge."""
    D = sx.delta(dim)
    k = rng.choice(X.simplices(dim))
    if dim == 0:
        return SimplicialMap(D, X, {D.gen_of_label((0,)): k})
    return SimplicialMap(D, X, {D.gen_of_label((0,)): X.vertex(k, 0),
                                D.gen_of_label((1,)): X.vertex(k, 1),
                                D.gen_of_label((0, 1)): k})


HOM_SOURCES = {
    "delta0": lambda: sx.delta(0),
    "delta1": lambda: sx.delta(1),
    "horn21": lambda: sx.horn(2, 1),
    "empty": sx.empty_sset,
}


def _pair(kind, rng, X):
    """(new, oracle) materializations of one instance of ``kind``."""
    if kind.startswith("hom-"):
        A = HOM_SOURCES[kind[4:]]()
        d = 2 if A.top_dim <= 0 else 1
        return qc.internal_hom(A, X, d), sx.MaterializedSSet(HomFamily(A, X), d)
    if kind == "mapping":
        a, b = rng.choice(X.simplices(0)), rng.choice(X.simplices(0))
        return qc.mapping_space(X, a, b, 2), sx.MaterializedSSet(MappingSpaceFamily(X, a, b), 2)
    side, dim = kind.split("-")
    base = _base(rng, X, int(dim))
    new = (js.slice_under if side == "under" else js.slice_over)(base, 2)
    return new, sx.MaterializedSSet(SliceFamily(base, side), 2)


KINDS = ["under-0", "under-1", "over-0", "over-1", "mapping"] + [f"hom-{a}" for a in HOM_SOURCES]


@pytest.mark.parametrize("kind", KINDS)
@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_map_family_matches_the_oracle_families(kind, seed):
    rng = random.Random(seed)
    X = _target(rng)
    new, old = _pair(kind, rng, X)
    assert io.serialize_sset(new) == io.serialize_sset(old)
    assert new.labels == old.labels
    for n in range(new.bound + 1):
        for x in old.family.elements(n):
            assert new.key_of(n, x) == old.key_of(n, x)
    for g in new.all_gens():
        x = new.labels[g]
        assert new.family.as_map(g[0], x).assign == old.family.as_map(g[0], x).assign
