"""Functors, constructors of finite categories, nerves, diagram categories
and the equivalence report.  The categories themselves and the readers of
nerve files are in :mod:`qcatk.fincat`.

Nerves are produced as :class:`~qcatk.ssets.SimplicialSet` objects whose
generator labels are composable strings of non-identity morphisms; the
category itself travels along on the ``category`` attribute, for the names
and ``category`` block of the nerve's file and for the 1-categorical checks
(pushouts, the K0 presentation oracle).  Map search does not read it.  The
equivalence verdict every other module reports lives here once.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .fincat import FinCategory, nerve_face_rows
from .simplicial import one_full_subcomplex
from .ssets import SimplexKey, SimplicialMap, SimplicialSet


class FinFunctor:
    def __init__(self, source: FinCategory, target: FinCategory, obj_map: dict,
                 mor_map: dict):
        self.source, self.target = source, target
        self.obj_map, self.mor_map = obj_map, mor_map

    def check(self) -> None:
        """Raise ValueError at the first law the functor breaks: identities,
        then endpoints, then composition.  ``mor_map`` is translated to
        target numbers once, and composites are compared by number through
        both categories' ``after`` rows, g-major over non-identity pairs: a
        pair containing an identity passes once identities, sources and
        targets are preserved."""
        C, D = self.source, self.target
        for o in C.objects:
            if self.mor_map[C.ids[o]] != D.ids[self.obj_map[o]]:
                raise ValueError(f"functor does not preserve identity of {o!r}")
        number, image = D.number, []
        for f in C.morphisms:
            x = self.mor_map[f]
            if D.src[x] != self.obj_map[C.src[f]]:
                raise ValueError(f"functor breaks source of {f!r}")
            if D.tgt[x] != self.obj_map[C.tgt[f]]:
                raise ValueError(f"functor breaks target of {f!r}")
            image.append(number[x])
        into: dict = {}
        for i, f in enumerate(C.morphisms):
            if f not in C.id_set:
                into.setdefault(C.tgt[f], []).append(i)
        c_after, d_after = C.after, D.after
        for j, g in enumerate(C.morphisms):
            if g in C.id_set:
                continue
            Fg = image[j]
            for i in into.get(C.src[g], ()):
                if image[c_after[i][j]] != d_after[image[i]][Fg]:
                    raise ValueError(f"functor breaks composition {g!r} o {C.morphisms[i]!r}")


# -- basic constructors -----------------------------------------------------


def poset_category(elements, leq) -> FinCategory:
    """Category with a unique morphism a -> b whenever leq(a, b)."""
    elements = list(elements)
    morphisms = [(a, b) for a in elements for b in elements if leq(a, b)]
    src = {m: m[0] for m in morphisms}
    tgt = {m: m[1] for m in morphisms}
    ids = {a: (a, a) for a in elements}
    return FinCategory.tabulate(elements, morphisms, src, tgt, ids,
                                lambda g, f: (f[0], g[1]))


def monoid_category(elements, op, unit, obj="*") -> FinCategory:
    elements = list(elements)
    src = {m: obj for m in elements}
    return FinCategory.tabulate([obj], elements, src, src, {obj: unit}, op)


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

    def compose(g, f):
        gv = (0,) + g[2]
        return (f[0], g[1], tuple(gv[v] for v in f[2]))

    return FinCategory.tabulate(objects, morphisms, src, tgt, ids, compose)


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


def edge_morphism(C: FinCategory, N: SimplicialSet, k: SimplexKey):
    """The morphism of C that the edge ``k`` of the nerve N of C names: an
    identity when ``k`` is degenerate."""
    if k.is_degenerate:
        return C.ids[N.labels[k.gen]]
    return N.labels[k.gen][0]


def _string_sort_key(rep: dict):
    """A sort key for tuples of two or more morphism numbers, where ``rep``
    maps each number to its morphism's repr: the tuples sort as ``key=repr``
    sorts the tuples of the morphisms they number.

    Such a tuple's repr is "(" + ", ".join(its reprs) + ")".  When no repr
    is a proper prefix of another, two of these strings first differ inside
    their first differing reprs, so the ranks of the reprs order them; else
    the key is the string itself.
    """
    order = sorted(set(rep.values()))
    # a repr that is a prefix of some other one is a prefix of the next one
    if any(b.startswith(a) for a, b in zip(order, order[1:])):
        return lambda s: "(" + ", ".join(map(rep.__getitem__, s)) + ")"
    rank = {r: i for i, r in enumerate(order)}
    num = {j: rank[r] for j, r in rep.items()}
    return lambda s: tuple(map(num.__getitem__, s))


def nerve(C: FinCategory, d: int) -> SimplicialSet:
    """Nerve of C with generators up to dimension d.

    Nondegenerate n-simplices are length-n composable strings of non-identity
    morphisms, each layer in ``repr`` order; the strings are built and
    ordered by morphism number and their faces read by ``nerve_face_rows``.
    If no such string of length d exists the nerve is complete and the bound
    is dropped.
    """
    ms, num = C.morphisms, C.number
    rep = {j: repr(m) for j, m in enumerate(ms) if m not in C.id_set}
    layers: list[list] = [sorted(C.objects, key=repr)]
    if d >= 1:
        # by repr((m,)), which differs from repr(m) where one repr prefixes another
        layers.append([(j,) for j in sorted(rep, key=lambda j: "(" + rep[j] + ",)")])
    key = _string_sort_key(rep)
    out = {o: [num[m] for m in C.nonid_out(o)] for o in C.objects}
    then = [out[C.tgt[m]] for m in ms]
    for n in range(2, d + 1):
        layer = [s + (j,) for s in layers[n - 1] for j in then[s[-1]]]
        layer.sort(key=key)
        layers.append(layer)

    labels = {(0, i): o for i, o in enumerate(layers[0])}
    for n in range(1, len(layers)):
        for i, t in enumerate(layers[n]):
            labels[(n, i)] = tuple([ms[j] for j in t])
    complete = (not rep) if d == 0 else (not layers[d])
    return SimplicialSet([len(layer) for layer in layers], nerve_face_rows(C, layers),
                         labels=labels, bound=None if complete else d, category=C)


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
        mor_map[m] = edge_morphism(D, ND, F.assign[NC.gen_of_label((m,))])
    return FinFunctor(C, D, obj_map, mor_map)


# -- functor categories via nerve maps ---------------------------------------


def map_category(K: SimplicialSet, C: FinCategory, N: SimplicialSet, maps):
    """Finite category on a list of simplicial maps K -> N(C).

    Objects are indices into the list of maps; a morphism F -> G is a
    vertex-indexed family of C-morphisms natural over the edge generators of
    K.  On all the maps its nerve is the exponential N(C)^K; on a chosen list
    it is the full subcategory on them.
    """
    verts = K.gens(0)
    num, after = C.number, C.after

    def obj_of(mp, v):
        return N.labels[mp.assign[v].gen]

    # Everything below composes C-morphisms by number.  Naturality squares
    # are grouped by the later endpoint in the vertex order, and each map's
    # edge morphisms are numbered once.
    vpos = {v: i for i, v in enumerate(verts)}
    edges_by_pos: dict[int, list] = {}
    for k, e in enumerate(K.gens(1)):
        ek = SimplexKey(e)
        p0, p1 = vpos[K.vertex(ek, 0).gen], vpos[K.vertex(ek, 1).gen]
        edges_by_pos.setdefault(max(p0, p1), []).append((k, p0, p1))
    edge_nums = [[num[edge_morphism(C, N, mp.assign[e])] for e in K.gens(1)] for mp in maps]
    vert_objs = [[obj_of(mp, v) for v in verts] for mp in maps]
    homs = {xy: [num[m] for m in ms] for xy, ms in C._hom.items()}

    objects = list(range(len(maps)))
    morphisms, parts = [], []
    src, tgt = {}, {}
    for a in objects:
        for b in objects:
            pools = [homs.get(xy, []) for xy in zip(vert_objs[a], vert_objs[b])]
            if not all(pools):
                continue
            eF, eG = edge_nums[a], edge_nums[b]
            eta = [0] * len(verts)

            def search(i):
                if i == len(verts):
                    p = tuple(eta)
                    m = (a, b, tuple(zip(verts, [C.morphisms[x] for x in p])))
                    morphisms.append(m)
                    parts.append(p)
                    src[m] = a
                    tgt[m] = b
                    return
                for cand in pools[i]:
                    eta[i] = cand
                    if all(
                        after[eF[k]][eta[p1]] == after[eta[p0]][eG[k]]
                        for k, p0, p1 in edges_by_pos.get(i, ())
                    ):
                        search(i + 1)

            search(0)
    # Composition, componentwise in C: a transformation's components are in
    # vertex order, so two compose entry by entry, and the composite is
    # looked up among the morphisms by its components (composites of natural
    # transformations are natural).  Composable pairs come from an index by
    # source object, f-major; each row starts at the identity, as
    # ``FinCategory`` lists it, and goes on in morphism order.
    by_parts = {(m[0], m[1], p): k for k, (m, p) in enumerate(zip(morphisms, parts))}
    id_num = {a: by_parts[(a, a, tuple(num[C.ids[x]] for x in vert_objs[a]))]
              for a in objects}
    ids = {a: morphisms[k] for a, k in id_num.items()}
    out_of: dict[int, list] = {}
    for k, g in enumerate(morphisms):
        out_of.setdefault(g[0], []).append(k)
    rows = []
    for k, f in enumerate(morphisms):
        fp = parts[k]
        row = {id_num[f[1]]: k}
        for j in out_of[f[1]]:
            row[j] = by_parts[(f[0], morphisms[j][1],
                               tuple([after[x][y] for x, y in zip(fp, parts[j])]))]
        rows.append(row)
    return FinCategory(objects, morphisms, src, tgt, ids, rows)


def wide_subcategory(C: FinCategory, keep) -> FinCategory:
    """The subcategory on every object and the morphisms in ``keep``, which
    must hold the identities and be closed under composition."""
    return _wide_by_number(C, [i for i, m in enumerate(C.morphisms) if m in keep])


def _wide_by_number(C: FinCategory, kept: list) -> FinCategory:
    """The wide subcategory on the morphisms numbered ``kept``, in morphism
    order: C's rows restricted to them and renumbered, so a composite that
    is not kept raises KeyError.  Its laws are C's, so it counts as checked
    when C has been."""
    new = {i: k for k, i in enumerate(kept)}
    morphisms = [C.morphisms[i] for i in kept]
    src = {m: C.src[m] for m in morphisms}
    tgt = {m: C.tgt[m] for m in morphisms}
    rows = [{new[j]: new[h] for j, h in C.after[i].items() if j in new} for i in kept]
    D = FinCategory(C.objects, morphisms, src, tgt, C.ids, rows)
    D._checked = C._checked
    return D


def marked_subcategory(X: SimplicialSet, edge_keep) -> Optional[FinCategory]:
    """For a nerve X (``X.category`` set): the wide subcategory of its
    category on the identities and the morphisms of the edges that
    ``edge_keep`` accepts.  None when X is not a nerve, when ``edge_keep``
    refuses a degenerate edge, or when those morphisms are not closed under
    composition.  Closure is tested by number, over kept non-identity
    pairs only: a composite with an identity is the other morphism."""
    C = X.category
    if C is None:
        return None
    X.require_bound(1, "simplex enumeration")
    if not all(edge_keep(SimplexKey(v, (0,))) for v in X.gens(0)):
        return None
    num, after = C.number, C.after
    marked = {num[X.labels[g][0]] for g in X.gens(1) if edge_keep(SimplexKey(g))}
    kept = marked | {num[m] for m in C.id_set}
    for i in marked:
        for j, h in after[i].items():
            if j in marked and h not in kept:
                return None
    return _wide_by_number(C, sorted(kept))


def one_full_subnerve(X: SimplicialSet, edge_keep, d: int):
    """The 1-full subcomplex of X to dimension d on the edges that
    ``edge_keep`` accepts, with its inclusion.

    For a nerve X = N(C) whose kept morphisms and identities are closed
    under composition (``marked_subcategory`` gives their wide subcategory
    D), it is built as N(D).  A simplex of N(C) is a string of morphisms,
    and its edges are the composites of its substrings.  When kept
    morphisms compose to kept ones, all these are kept exactly when the
    string's own morphisms are, that is, when the simplex is one of N(D);
    and D composes as C does, so the faces agree.  Each generator of N(D)
    is found in X by its label, through X's label index, which is built
    once per set; no face of X is scanned.  Every other input takes
    ``one_full_subcomplex``'s face scan.
    """
    D = marked_subcategory(X, edge_keep) if 1 <= d <= X.effective_bound() else None
    if D is None:
        return one_full_subcomplex(X, edge_keep, d)
    S = nerve(D, d)
    assign = {g: SimplexKey(X.gen_of_label(S.labels[g])) for g in S.all_gens()}
    return S, SimplicialMap(S, X, assign)


def groupoid_core(C: FinCategory) -> FinCategory:
    """Wide subcategory of invertible morphisms."""
    return wide_subcategory(C, {m for m in C.morphisms if C.is_iso(m)})


def full_subcategory(C: FinCategory, objs) -> FinCategory:
    objs = list(objs)
    keep = set(objs)
    morphisms = [m for m in C.morphisms if C.src[m] in keep and C.tgt[m] in keep]
    src = {m: C.src[m] for m in morphisms}
    tgt = {m: C.tgt[m] for m in morphisms}
    ids = {o: C.ids[o] for o in objs}
    return FinCategory.tabulate(objs, morphisms, src, tgt, ids, C.compose_mor)


# -- equivalences ---------------------------------------------------------------


def functor_equivalence_report(F: FinFunctor) -> dict:
    """Essential surjectivity, fullness, faithfulness by table search; the
    functor is an equivalence when all three hold."""
    C, D = F.source, F.target
    images = {F.obj_map[c] for c in C.objects}
    ess = all(
        o in images or any(any(D.is_iso(m) for m in D.hom(o, i)) for i in images)
        for o in D.objects
    )
    full = True
    faithful = True
    for a in C.objects:
        for b in C.objects:
            image = [F.mor_map[m] for m in C.hom(a, b)]
            if len(set(image)) != len(image):
                faithful = False
            if set(image) != set(D.hom(F.obj_map[a], F.obj_map[b])):
                full = False
    return {
        "essentially_surjective": ess,
        "full": full,
        "faithful": faithful,
        "equivalence": ess and full and faithful,
    }
