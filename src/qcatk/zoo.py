"""Seeded generators of small categories, posets, and Waldhausen instances
for property tests, plus the object-duplication construction used by the
approximation tests."""

from __future__ import annotations

import random

from .cats import (
    FinFunctor,
    cyclic_group_category,
    monoid_category,
    poset_category,
)
from .fincat import FinCategory
from .waldhausen import nerve_waldhausen


def indiscrete_category(objects) -> FinCategory:
    """Exactly one morphism between any ordered pair; every morphism is
    invertible."""
    return poset_category(objects, lambda a, b: True)


def idempotent_monoid_category() -> FinCategory:
    """The two-element monoid {1, e} with e*e = e."""
    return monoid_category(
        ["1", "e"], lambda a, b: "e" if "e" in (a, b) else "1", "1"
    )


def _disjoint_union(C: FinCategory, D: FinCategory) -> FinCategory:
    sides = {"l": C, "r": D}
    objects = [(t, o) for t, K in sides.items() for o in K.objects]
    morphisms = [(t, m) for t, K in sides.items() for m in K.morphisms]
    src = {(t, m): (t, sides[t].src[m]) for t, m in morphisms}
    tgt = {(t, m): (t, sides[t].tgt[m]) for t, m in morphisms}
    ids = {(t, o): (t, sides[t].ids[o]) for t, o in objects}
    # objects are tagged by side, so a composable pair lies on one side
    return FinCategory.tabulate(objects, morphisms, src, tgt, ids,
                                lambda g, f: (g[0], sides[g[0]].compose_mor(g[1], f[1])))


def random_poset(rng: random.Random, size: int) -> FinCategory:
    """Random partial order on 0..size-1 compatible with the integer order,
    from the transitive closure of random covering pairs."""
    leq = {(i, i) for i in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.5:
                leq.add((i, j))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return poset_category(range(size), lambda a, b: (a, b) in leq)


def random_groupoid(rng: random.Random) -> FinCategory:
    pieces = []
    budget = rng.randint(1, 3)
    for _ in range(budget):
        kind = rng.choice(["cyclic", "indiscrete", "point"])
        if kind == "cyclic":
            pieces.append(cyclic_group_category(rng.choice([2, 3])))
        elif kind == "indiscrete":
            pieces.append(indiscrete_category(range(rng.randint(1, 2))))
        else:
            pieces.append(poset_category([0], lambda a, b: True))
    out = pieces[0]
    for p in pieces[1:]:
        out = _disjoint_union(out, p)
    return out


def random_category(rng: random.Random, max_objects: int = 4) -> FinCategory:
    """A small category drawn from a catalogue: posets, monoids, groupoids,
    and joins/products of smaller ones."""
    kind = rng.choice(["poset", "monoid", "groupoid", "join", "product"])
    if kind == "poset":
        return random_poset(rng, rng.randint(1, max_objects))
    if kind == "monoid":
        return rng.choice(
            [cyclic_group_category(2), cyclic_group_category(3), idempotent_monoid_category()]
        )
    if kind == "groupoid":
        return random_groupoid(rng)
    a = random_poset(rng, rng.randint(1, max_objects // 2))
    b = random_poset(rng, rng.randint(1, max_objects // 2))
    return a.join(b) if kind == "join" else a.product(b)


# -- object duplication ---------------------------------------------------------


def _duplicate_object(C: FinCategory, obj, new_obj):
    """Category with an extra object isomorphic to ``obj``; new morphisms
    are tagged ("dup", underlying, source-flag, target-flag).  Returns the
    category and the inclusion functor of C."""
    objects = C.objects + [new_obj]
    morphisms = list(C.morphisms) + [
        ("dup", f, sf, tf) for f in C.morphisms for sf in (False, True) for tf in (False, True)
        if (sf or tf) and (not sf or C.src[f] == obj) and (not tf or C.tgt[f] == obj)]
    src, tgt = {}, {}
    for m in morphisms:
        f, sf, tf = _dup_parts(m)
        src[m] = new_obj if sf else C.src[f]
        tgt[m] = new_obj if tf else C.tgt[f]
    ids = {**C.ids, new_obj: ("dup", C.ids[obj], True, True)}

    def compose(g, f):
        uf, sf, _ = _dup_parts(f)
        ug, _, tg = _dup_parts(g)
        h = C.compose_mor(ug, uf)
        return ("dup", h, sf, tg) if (sf or tg) else h

    D = FinCategory.tabulate(objects, morphisms, src, tgt, ids, compose)
    incl = FinFunctor(C, D, {o: o for o in C.objects}, {m: m for m in C.morphisms})
    return D, incl


def _dup_parts(m):
    """(underlying morphism, source-flag, target-flag) of a morphism of a
    category with a duplicated object."""
    if isinstance(m, tuple) and len(m) == 4 and m[0] == "dup":
        return m[1], m[2], m[3]
    return m, False, False


def _underlying_morphism(m):
    """Strip the duplication tag, if any."""
    return _dup_parts(m)[0]


def pointed_sets_with_duplicate(max_size: int = 3, d: int = 2):
    """The pointed-sets instance with an extra isomorphic copy of the
    two-element object.  Returns (Waldhausen data, inclusion of the plain
    instance as an exact map of nerves)."""
    from .cats import nerve_functor_map
    from .waldhausen import ExactFunctorData, pointed_sets_waldhausen

    W = pointed_sets_waldhausen(max_size, d)
    C = W.underlying.category
    D, incl = _duplicate_object(C, 2, "dup2")

    def injective(m):
        u = _underlying_morphism(m)
        return 0 not in u[2] and len(set(u[2])) == len(u[2])

    marked = [m for m in D.morphisms if injective(m)]
    W2 = nerve_waldhausen(
        D, 1, marked, d,
        universe={"bounded": True, "note": f"pointed sets <= {max_size} plus duplicate"},
    )
    themap = nerve_functor_map(incl, W.underlying, W2.underlying)
    return W2, ExactFunctorData(themap, W, W2)
