"""Finite categories given by explicit multiplication tables, and nerves.

Objects and morphisms are arbitrary hashable values.  The composition table
``comp[(g, f)]`` stores g after f for every composable pair.  Nerves are
produced as :class:`~qcatk.simplicial.SimplicialSet` objects whose generator
labels are composable strings of non-identity morphisms; the category itself
travels along on the ``category`` attribute so that map enumeration into the
nerve can run as a functor search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .simplicial import SimplexKey, SimplicialSet, SimplicialMap


class FinCategory:
    def __init__(self, objects, morphisms, src, tgt, ids, comp, name=None):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ids = dict(ids)
        self.comp = dict(comp)
        self.name = name
        self.id_set = frozenset(self.ids.values())
        self._hom: dict[tuple, list] = {}
        self._out: dict = {}
        self._into: dict = {}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
            self._into.setdefault(self.tgt[m], []).append(m)
            if m not in self.id_set:
                self._out.setdefault(self.src[m], []).append(m)

    def hom(self, a, b) -> list:
        return self._hom.get((a, b), [])

    def nonid_out(self, a) -> list:
        """Non-identity morphisms with source a, in morphism order."""
        return self._out.get(a, [])

    def into(self, b) -> list:
        """All morphisms with target b, in morphism order."""
        return self._into.get(b, [])

    def compose_mor(self, g, f):
        """g after f."""
        if self.src[g] != self.tgt[f]:
            raise ValueError(f"morphisms not composable: {f!r} then {g!r}")
        if f in self.id_set:
            return g
        if g in self.id_set:
            return f
        return self.comp[(g, f)]

    def check(self) -> None:
        """Raise ValueError at the first failing category law.

        Only pairs and triples of non-identity morphisms are visited, in
        morphism order: once the identities have the right endpoints, the
        identity short cut of ``compose_mor`` makes every pair or triple
        containing one pass.  Composites found by the endpoint pass are kept
        in ``rows[g][f]`` and reused by the associativity pass.
        """
        for o in self.objects:
            i = self.ids[o]
            if self.src[i] != o or self.tgt[i] != o:
                raise ValueError(f"identity of {o!r} has wrong endpoints")
        src, tgt, ids, comp = self.src, self.tgt, self.id_set, self.comp
        nonid = [m for m in self.morphisms if m not in ids]
        rows: dict = {g: {} for g in nonid}
        for f in nonid:
            for g in self.nonid_out(tgt[f]):
                h = rows[g][f] = comp[(g, f)]
                if src[h] != src[f] or tgt[h] != tgt[g]:
                    raise ValueError(f"composite {g!r} o {f!r} has wrong endpoints")
        for f in self.morphisms:
            if self.compose_mor(self.ids[self.tgt[f]], f) != f:
                raise ValueError(f"left identity fails at {f!r}")
            if self.compose_mor(f, self.ids[self.src[f]]) != f:
                raise ValueError(f"right identity fails at {f!r}")
        for f in nonid:
            for g in self.nonid_out(tgt[f]):
                gf = rows[g][f]
                for h in self.nonid_out(tgt[g]):
                    row = rows[h]
                    hg = row[g]
                    if (h if gf in ids else row[gf]) != (f if hg in ids else rows[hg][f]):
                        raise ValueError(f"associativity fails at {f!r}, {g!r}, {h!r}")

    def is_iso(self, m) -> bool:
        for n in self.hom(self.tgt[m], self.src[m]):
            if (
                self.compose_mor(n, m) == self.ids[self.src[m]]
                and self.compose_mor(m, n) == self.ids[self.tgt[m]]
            ):
                return True
        return False

    def opposite(self) -> "FinCategory":
        comp = {(f, g): h for (g, f), h in self.comp.items()}
        return FinCategory(self.objects, self.morphisms, self.tgt, self.src, self.ids, comp)

    def product(self, other: "FinCategory") -> "FinCategory":
        objects = [(a, b) for a in self.objects for b in other.objects]
        morphisms = [(f, g) for f in self.morphisms for g in other.morphisms]
        src = {(f, g): (self.src[f], other.src[g]) for f, g in morphisms}
        tgt = {(f, g): (self.tgt[f], other.tgt[g]) for f, g in morphisms}
        ids = {(a, b): (self.ids[a], other.ids[b]) for a, b in objects}
        comp = {}
        for f1, g1 in morphisms:
            for f2 in self.into(self.src[f1]):
                h1 = self.compose_mor(f1, f2)
                for g2 in other.into(other.src[g1]):
                    comp[((f1, g1), (f2, g2))] = (h1, other.compose_mor(g1, g2))
        return FinCategory(objects, morphisms, src, tgt, ids, comp)

    def join(self, other: "FinCategory") -> "FinCategory":
        """C * D: both categories side by side plus a unique morphism from
        every object of C to every object of D."""
        objects = [("l", a) for a in self.objects] + [("r", b) for b in other.objects]
        morphisms = [("l", f) for f in self.morphisms] + [("r", g) for g in other.morphisms]
        bridge = [("j", a, b) for a in self.objects for b in other.objects]
        morphisms += bridge
        src, tgt = {}, {}
        for m in morphisms:
            if m[0] == "l":
                src[m], tgt[m] = ("l", self.src[m[1]]), ("l", self.tgt[m[1]])
            elif m[0] == "r":
                src[m], tgt[m] = ("r", other.src[m[1]]), ("r", other.tgt[m[1]])
            else:
                src[m], tgt[m] = ("l", m[1]), ("r", m[2])
        ids = {("l", a): ("l", self.ids[a]) for a in self.objects}
        ids.update({("r", b): ("r", other.ids[b]) for b in other.objects})
        into: dict = {}
        for f in morphisms:
            into.setdefault(tgt[f], []).append(f)
        comp = {}
        for g in morphisms:
            for f in into.get(src[g], ()):
                if f[0] == "l" and g[0] == "l":
                    comp[(g, f)] = ("l", self.compose_mor(g[1], f[1]))
                elif f[0] == "r" and g[0] == "r":
                    comp[(g, f)] = ("r", other.compose_mor(g[1], f[1]))
                else:
                    comp[(g, f)] = ("j", src[f][1], tgt[g][1])
        return FinCategory(objects, morphisms, src, tgt, ids, comp)


@dataclass
class FinFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: dict
    mor_map: dict

    def check(self) -> None:
        C, D = self.source, self.target
        for o in C.objects:
            if self.mor_map[C.ids[o]] != D.ids[self.obj_map[o]]:
                raise ValueError(f"functor does not preserve identity of {o!r}")
        for f in C.morphisms:
            if D.src[self.mor_map[f]] != self.obj_map[C.src[f]]:
                raise ValueError(f"functor breaks source of {f!r}")
            if D.tgt[self.mor_map[f]] != self.obj_map[C.tgt[f]]:
                raise ValueError(f"functor breaks target of {f!r}")
        # a pair containing an identity passes once identities, sources and
        # targets are preserved, so only non-identity pairs are visited
        for g in C.morphisms:
            if g in C.id_set:
                continue
            for f in C.into(C.src[g]):
                if f in C.id_set:
                    continue
                if self.mor_map[C.compose_mor(g, f)] != D.compose_mor(
                    self.mor_map[g], self.mor_map[f]
                ):
                    raise ValueError(f"functor breaks composition {g!r} o {f!r}")

    def compose(self, other: "FinFunctor") -> "FinFunctor":
        """self after other."""
        return FinFunctor(
            other.source,
            self.target,
            {o: self.obj_map[v] for o, v in other.obj_map.items()},
            {m: self.mor_map[v] for m, v in other.mor_map.items()},
        )


# -- basic constructors -----------------------------------------------------


def poset_category(elements, leq) -> FinCategory:
    """Category with a unique morphism a -> b whenever leq(a, b)."""
    elements = list(elements)
    morphisms = [(a, b) for a in elements for b in elements if leq(a, b)]
    src = {m: m[0] for m in morphisms}
    tgt = {m: m[1] for m in morphisms}
    ids = {a: (a, a) for a in elements}
    comp = {
        ((b, c), (a, b2)): (a, c)
        for (a, b2) in morphisms
        for (b, c) in morphisms
        if b == b2
    }
    return FinCategory(elements, morphisms, src, tgt, ids, comp)


def chain_poset(n: int) -> FinCategory:
    """The linearly ordered poset [n] = {0 < 1 < ... < n}."""
    return poset_category(range(n + 1), lambda a, b: a <= b)


def monoid_category(elements, op, unit, obj="*") -> FinCategory:
    elements = list(elements)
    src = {m: obj for m in elements}
    tgt = dict(src)
    comp = {(g, f): op(g, f) for g in elements for f in elements}
    return FinCategory([obj], elements, src, tgt, {obj: unit}, comp)


def cyclic_group_category(k: int) -> FinCategory:
    return monoid_category(range(k), lambda a, b: (a + b) % k, 0)


def pointed_sets_category(max_size: int) -> FinCategory:
    """Skeletal category of pointed sets of size 1..max_size with
    basepoint-preserving maps.  Objects are sizes; the basepoint is element 0;
    a morphism is (a, b, values) with values the images of 1..a-1."""
    objects = list(range(1, max_size + 1))
    morphisms = []
    for a in objects:
        for b in objects:
            for values in itertools.product(range(b), repeat=a - 1):
                morphisms.append((a, b, values))
    src = {m: m[0] for m in morphisms}
    tgt = {m: m[1] for m in morphisms}
    ids = {a: (a, a, tuple(range(1, a))) for a in objects}
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if g[0] != f[1]:
                continue
            gv = (0,) + g[2]
            comp[(g, f)] = (f[0], g[1], tuple(gv[v] for v in f[2]))
    return FinCategory(objects, morphisms, src, tgt, ids, comp)


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


# -- nerve -------------------------------------------------------------------


def nerve_key_for_string(N: SimplicialSet, morphisms) -> SimplexKey:
    """Normal-form key of the nerve simplex with the given spine morphisms
    (identity entries become degeneracies)."""
    C = N.category
    morphisms = tuple(morphisms)
    if morphisms and C.id_set.isdisjoint(morphisms):
        return SimplexKey(N.gen_of_label(morphisms))
    word = tuple(sorted((i for i, m in enumerate(morphisms) if m in C.id_set), reverse=True))
    core = tuple(m for m in morphisms if m not in C.id_set)
    if not core:
        if not morphisms:
            raise ValueError("empty string has no source object")
        base = SimplexKey(N.gen_of_label(C.src[morphisms[0]]))
    else:
        base = SimplexKey(N.gen_of_label(core))
    return SimplexKey(base.gen, word)


def nerve_faces(N: SimplicialSet, s: tuple) -> tuple:
    """Face keys of the nondegenerate nerve simplex with the composable
    spine string ``s`` of non-identity morphisms: d_0 drops the first
    morphism, d_n the last, and d_k composes s[k] after s[k - 1]."""
    C = N.category
    if len(s) == 1:
        return (SimplexKey(N.gen_of_label(C.tgt[s[0]])), SimplexKey(N.gen_of_label(C.src[s[0]])))
    inner = (s[: k - 1] + (C.compose_mor(s[k], s[k - 1]),) + s[k + 1 :] for k in range(1, len(s)))
    return tuple(nerve_key_for_string(N, t) for t in (s[1:], *inner, s[:-1]))


def nerve(C: FinCategory, d: int) -> SimplicialSet:
    """Nerve of C with generators up to dimension d.

    Nondegenerate n-simplices are length-n composable strings of non-identity
    morphisms.  If no such string of length d exists the nerve is complete
    and the bound is dropped.
    """
    nonid = [m for m in C.morphisms if m not in C.id_set]
    strings: list[list] = [[(o,) for o in sorted(C.objects, key=repr)]]
    if d >= 1:
        strings.append(sorted(((m,) for m in nonid), key=repr))
    for n in range(2, d + 1):
        layer = [s + (m,) for s in strings[n - 1] for m in C.nonid_out(C.tgt[s[-1]])]
        strings.append(sorted(layer, key=repr))

    n_gens = [len(layer) for layer in strings]
    labels = {}
    for n, layer in enumerate(strings):
        for i, s in enumerate(layer):
            labels[(n, i)] = s[0] if n == 0 else s

    complete = (not nonid) if d == 0 else (not strings[d])

    N = SimplicialSet(n_gens, {}, labels=labels, bound=None if complete else d, category=C)

    for n in range(1, len(strings)):
        for i, s in enumerate(strings[n]):
            N.faces[(n, i)] = nerve_faces(N, s)
    return N


def nerve_functor_map(F: FinFunctor, NC: SimplicialSet, ND: SimplicialSet) -> SimplicialMap:
    """The simplicial map of nerves induced by a functor."""
    assign = {}
    for g in NC.all_gens():
        if g[0] == 0:
            assign[g] = SimplexKey(ND.gen_of_label(F.obj_map[NC.labels[g]]))
        else:
            assign[g] = nerve_key_for_string(ND, tuple(F.mor_map[m] for m in NC.labels[g]))
    return SimplicialMap(NC, ND, assign)


def functor_from_nerve_map(F: SimplicialMap) -> FinFunctor:
    """Recover the functor underlying a simplicial map between nerves."""
    NC, ND = F.source, F.target
    C, D = NC.category, ND.category
    if C is None or D is None:
        raise ValueError("both ends must be nerves of finite categories")
    obj_map = {NC.labels[g]: ND.labels[F.assign[g].gen] for g in NC.gens(0)}
    mor_map = {}
    for m in C.morphisms:
        if m in C.id_set:
            mor_map[m] = D.ids[obj_map[C.src[m]]]
            continue
        k = F.assign[NC.gen_of_label((m,))]
        mor_map[m] = D.ids[ND.labels[k.gen]] if k.is_degenerate else ND.labels[k.gen][0]
    return FinFunctor(C, D, obj_map, mor_map)


# -- functor categories via nerve maps ---------------------------------------


def map_category(
    K: SimplicialSet, C: FinCategory, N: SimplicialSet, budget: int = 10**6, maps=None
):
    """Finite category of simplicial maps K -> N(C).

    Objects are indices into the returned list of maps; a morphism F -> G is
    a vertex-indexed family of C-morphisms natural over the edge generators
    of K.  Its nerve is the exponential N(C)^K.  Pass ``maps`` to build the
    full subcategory on a chosen list of maps instead of enumerating all of
    them.  Returns (category, maps).
    """
    from .simplicial import enumerate_maps

    if maps is None:
        maps = enumerate_maps(K, N, budget=budget)
    verts = K.gens(0)
    edge_gens = K.gens(1)

    def obj_of(mp, v):
        return N.labels[mp.assign[v].gen]

    def edge_mor(mp, e):
        k = mp.assign[e]
        if k.is_degenerate:
            return C.ids[N.labels[k.gen]]
        return N.labels[k.gen][0]

    # naturality squares grouped by the later endpoint in the vertex order
    vpos = {v: i for i, v in enumerate(verts)}
    edges_by_pos: dict[int, list] = {}
    for e in edge_gens:
        ek = SimplexKey(e)
        v0 = K.vertex(ek, 0).gen
        v1 = K.vertex(ek, 1).gen
        edges_by_pos.setdefault(max(vpos[v0], vpos[v1]), []).append((e, v0, v1))

    objects = list(range(len(maps)))
    morphisms = []
    src, tgt = {}, {}
    for a in objects:
        for b in objects:
            F, G = maps[a], maps[b]
            pools = [C.hom(obj_of(F, v), obj_of(G, v)) for v in verts]
            if any(not p for p in pools):
                continue
            eta = {}

            def search(i):
                if i == len(verts):
                    m = (a, b, tuple(sorted(eta.items())))
                    morphisms.append(m)
                    src[m] = a
                    tgt[m] = b
                    return
                for cand in pools[i]:
                    eta[verts[i]] = cand
                    if all(
                        C.compose_mor(eta[v1], edge_mor(F, e))
                        == C.compose_mor(edge_mor(G, e), eta[v0])
                        for e, v0, v1 in edges_by_pos.get(i, ())
                    ):
                        search(i + 1)
                    del eta[verts[i]]

            search(0)
    ids = {
        a: (a, a, tuple(sorted((v, C.ids[obj_of(maps[a], v)]) for v in verts)))
        for a in objects
    }
    # Composition, componentwise in C.  Morphisms of C are numbered, and
    # after[i][j] numbers C's composite "j after i".  A transformation's
    # components are sorted by vertex, so two compose entry by entry, and the
    # composite is looked up among the morphisms: composites of natural
    # transformations are natural.  Composable pairs come from an index by
    # source object, f-major and each g in morphism order.
    pos = {m: i for i, m in enumerate(C.morphisms)}
    after: list[dict[int, int]] = [{} for _ in C.morphisms]
    for f in C.morphisms:
        b = C.tgt[f]
        row = after[pos[f]]
        for g in [C.ids[b], *C.nonid_out(b)]:
            row[pos[g]] = pos[C.compose_mor(g, f)]
    parts = {m: tuple(pos[x] for _, x in m[2]) for m in morphisms}
    by_parts = {(m[0], m[1], parts[m]): m for m in morphisms}
    out_of: dict[int, list] = {}
    for g in morphisms:
        out_of.setdefault(g[0], []).append(g)
    comp = {}
    for f in morphisms:
        fp = parts[f]
        for g in out_of.get(f[1], ()):
            hp = tuple([after[i][j] for i, j in zip(fp, parts[g])])
            comp[(g, f)] = by_parts[(f[0], g[1], hp)]
    cat = FinCategory(objects, morphisms, src, tgt, ids, comp)
    return cat, maps


def groupoid_core(C: FinCategory) -> FinCategory:
    """Wide subcategory of invertible morphisms."""
    morphisms = [m for m in C.morphisms if C.is_iso(m)]
    keep = set(morphisms)
    src = {m: C.src[m] for m in morphisms}
    tgt = {m: C.tgt[m] for m in morphisms}
    comp = {(g, f): h for (g, f), h in C.comp.items() if g in keep and f in keep}
    return FinCategory(C.objects, morphisms, src, tgt, dict(C.ids), comp)


def full_subcategory(C: FinCategory, objs) -> FinCategory:
    objs = list(objs)
    keep = set(objs)
    morphisms = [m for m in C.morphisms if C.src[m] in keep and C.tgt[m] in keep]
    src = {m: C.src[m] for m in morphisms}
    tgt = {m: C.tgt[m] for m in morphisms}
    ids = {o: C.ids[o] for o in objs}
    kept = set(morphisms)
    comp = {(g, f): h for (g, f), h in C.comp.items() if g in kept and f in kept}
    return FinCategory(objs, morphisms, src, tgt, ids, comp)


# -- pushouts by universal property -------------------------------------------


def pushout_in_category(C: FinCategory, f, g):
    """Pushout of the span b <-f- a -g-> c, verified by universal property.

    Returns (d, i, j) with i: b -> d, j: c -> d, or None if no pushout
    exists in C.
    """
    if C.src[f] != C.src[g]:
        raise ValueError("span legs must share a source")
    b, c = C.tgt[f], C.tgt[g]
    cocones = []
    for d in C.objects:
        for i in C.hom(b, d):
            for j in C.hom(c, d):
                if C.compose_mor(i, f) == C.compose_mor(j, g):
                    cocones.append((d, i, j))
    for d, i, j in cocones:
        universal = True
        for d2, i2, j2 in cocones:
            mediators = [
                h
                for h in C.hom(d, d2)
                if C.compose_mor(h, i) == i2 and C.compose_mor(h, j) == j2
            ]
            if len(mediators) != 1:
                universal = False
                break
        if universal:
            return (d, i, j)
    return None
