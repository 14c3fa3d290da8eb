"""Finite categories given by explicit multiplication tables, and nerves.

Objects and morphisms are arbitrary hashable values.  Morphisms can be
long nested tuples (a natural transformation lists its components), so the
composition table is held by number, in ``FinCategory.after``: each
morphism is hashed only to number it, and the checks, nerves and diagram
categories compose by number.  ``FinCategory.tabulate`` fills the table
from a composite rule.  Nerves are produced as
:class:`~qcatk.simplicial.SimplicialSet` objects whose generator labels are
composable strings of non-identity morphisms; the category itself travels
along on the ``category`` attribute, for the names and ``category``
block of the nerve's file and for the 1-categorical checks (pushouts, the K0
presentation oracle).  Map search does not read it.  The 1-categorical
checks live here once: pushouts, pushout squares and the equivalence
verdict every other module reports.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

from .io import SchemaError, parse_category
from .simplicial import SimplexKey, SimplicialSet, SimplicialMap, one_full_subcomplex


class FinCategory:
    """A finite category given by its composition table, by number.

    Morphisms are numbered by their position in ``morphisms`` (``number``).
    ``after[i][j]`` is the number of morphism j after morphism i, for every
    j whose source is the target of i: the row of i lists the identity of
    that target first, then its ``nonid_out`` in order.  Every composite
    is held, those with an identity too.
    """

    def __init__(self, objects, morphisms, src, tgt, ids, after):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ids = dict(ids)
        self.after = after
        self.id_set = frozenset(self.ids.values())
        self._checked = False
        self._pushouts: dict = {}
        self._hom: dict[tuple, list] = {}
        self._out: dict = {}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
            if m not in self.id_set:
                self._out.setdefault(self.src[m], []).append(m)

    @classmethod
    def tabulate(cls, objects, morphisms, src, tgt, ids, compose) -> "FinCategory":
        """The category whose rows hold ``compose(g, f)`` for every
        composable pair, identities included, unchecked: f in morphism
        order, then g in row order."""
        C = cls(objects, morphisms, src, tgt, ids, [])
        num = C.number
        heads = {b: [(g, num[g]) for g in (C.ids[b], *C.nonid_out(b))] for b in C.objects}
        C.after.extend({j: num[compose(g, f)] for g, j in heads[C.tgt[f]]}
                       for f in C.morphisms)
        return C

    def hom(self, a, b) -> list:
        return self._hom.get((a, b), [])

    def nonid_out(self, a) -> list:
        """Non-identity morphisms with source a, in morphism order."""
        return self._out.get(a, [])

    def compose_mor(self, g, f):
        """g after f."""
        if self.src[g] != self.tgt[f]:
            raise ValueError(f"morphisms not composable: {f!r} then {g!r}")
        num = self.number
        return self.morphisms[self.after[num[f]][num[g]]]

    @cached_property
    def number(self) -> dict:
        """Each morphism's position in ``morphisms``."""
        return {m: i for i, m in enumerate(self.morphisms)}

    def check(self) -> None:
        """Raise ValueError at the first failing category law.

        The passes run in this order, each in morphism order and reading
        the rows:

        - identities have the right endpoints;
        - composites of non-identity pairs have the right endpoints;
        - the identity laws;
        - associativity, one row comparison per composable non-identity
          pair (f, g): h after (g after f) equals (h after g) after f for
          every h at once.  Once the identities pass, every triple
          containing one passes.  On a mismatch the first failing h in
          ``nonid_out`` order is named, and the error's ``witness`` holds
          the triple (f, g, h).

        A pass is remembered on the object, and a later call returns at
        once: the table is never changed after construction.
        """
        if self._checked:
            return
        for o in self.objects:
            i = self.ids[o]
            if self.src[i] != o or self.tgt[i] != o:
                raise ValueError(f"identity of {o!r} has wrong endpoints")
        after, src, tgt, ids, ms = self.after, self.src, self.tgt, self.ids, self.morphisms
        # the first entry of a row is the identity
        for i, f in enumerate(ms):
            if f not in self.id_set:
                for j, h in itertools.islice(after[i].items(), 1, None):
                    if src[ms[h]] != src[f] or tgt[ms[h]] != tgt[ms[j]]:
                        raise ValueError(f"composite {ms[j]!r} o {f!r} has wrong endpoints")
        num = self.number
        for i, f in enumerate(ms):
            if after[i][num[ids[tgt[f]]]] != i:
                raise ValueError(f"left identity fails at {f!r}")
            if after[num[ids[src[f]]]][i] != i:
                raise ValueError(f"right identity fails at {f!r}")
        for i, f in enumerate(ms):
            if f in self.id_set:
                continue
            rf = after[i]
            for j, gf in itertools.islice(rf.items(), 1, None):
                rg, rgf = after[j], after[gf]
                if list(map(rf.__getitem__, rg.values())) != list(rgf.values()):
                    for (h, hg), hgf in zip(rg.items(), rgf.values()):
                        if rf[hg] != hgf:
                            exc = ValueError(f"associativity fails at {f!r}, {ms[j]!r}, {ms[h]!r}")
                            exc.witness = (f, ms[j], ms[h])
                            raise exc
        self._checked = True

    def pushout(self, f, g):
        """Pushout of the span b <-f- a -g-> c, verified by universal
        property and memoized per span.

        Returns the first cocone (d, i, j), with i: b -> d and j: c -> d,
        through which every cocone factors uniquely, in the order of d among
        the objects and then of i and j in their hom sets; None if no
        pushout exists in the category.
        """
        if (f, g) in self._pushouts:
            return self._pushouts[(f, g)]
        if self.src[f] != self.src[g]:
            raise ValueError("span legs must share a source")
        b, c = self.tgt[f], self.tgt[g]
        cocones = [
            (d, i, j)
            for d in self.objects
            for i in self.hom(b, d)
            for j in self.hom(c, d)
            if self.compose_mor(i, f) == self.compose_mor(j, g)
        ]
        po = None
        for d, i, j in cocones:
            if all(
                sum(
                    1 for h in self.hom(d, d2)
                    if self.compose_mor(h, i) == i2 and self.compose_mor(h, j) == j2
                ) == 1
                for d2, i2, j2 in cocones
            ):
                po = (d, i, j)
                break
        self._pushouts[(f, g)] = po
        return po

    def mediator(self, f, g, d, i, j):
        """The morphism h: p -> d from the pushout (p, pi, pj) of the span
        along f and g with h after pi = i and h after pj = j; None if the
        span has no pushout or (d, i, j) does not factor through it.  Only a
        commuting cocone factors, and then through exactly one h."""
        po = self.pushout(f, g)
        if po is None:
            return None
        p, pi, pj = po
        for h in self.hom(p, d):
            if self.compose_mor(h, pi) == i and self.compose_mor(h, pj) == j:
                return h
        return None

    def is_pushout_cocone(self, f, g, d, i, j) -> bool:
        """Is (d, i: tgt f -> d, j: tgt g -> d) a pushout of the span along f
        and g?  Exactly when its mediator from the pushout is an isomorphism."""
        h = self.mediator(f, g, d, i, j)
        return h is not None and self.is_iso(h)

    def is_iso(self, m) -> bool:
        for n in self.hom(self.tgt[m], self.src[m]):
            if (
                self.compose_mor(n, m) == self.ids[self.src[m]]
                and self.compose_mor(m, n) == self.ids[self.tgt[m]]
            ):
                return True
        return False

    def opposite(self) -> "FinCategory":
        return FinCategory.tabulate(self.objects, self.morphisms, self.tgt, self.src,
                                    self.ids, lambda g, f: self.compose_mor(f, g))

    def product(self, other: "FinCategory") -> "FinCategory":
        objects = [(a, b) for a in self.objects for b in other.objects]
        morphisms = [(f, g) for f in self.morphisms for g in other.morphisms]
        src = {(f, g): (self.src[f], other.src[g]) for f, g in morphisms}
        tgt = {(f, g): (self.tgt[f], other.tgt[g]) for f, g in morphisms}
        ids = {(a, b): (self.ids[a], other.ids[b]) for a, b in objects}
        return FinCategory.tabulate(
            objects, morphisms, src, tgt, ids,
            lambda g, f: (self.compose_mor(g[0], f[0]), other.compose_mor(g[1], f[1])))

    def join(self, other: "FinCategory") -> "FinCategory":
        """C * D: both categories side by side plus a unique morphism from
        every object of C to every object of D."""
        sides = {"l": self, "r": other}
        objects = [(t, o) for t, K in sides.items() for o in K.objects]
        morphisms = [(t, m) for t, K in sides.items() for m in K.morphisms]
        morphisms += [("j", a, b) for a in self.objects for b in other.objects]
        src = {m: ("l", m[1]) if m[0] == "j" else (m[0], sides[m[0]].src[m[1]])
               for m in morphisms}
        tgt = {m: ("r", m[2]) if m[0] == "j" else (m[0], sides[m[0]].tgt[m[1]])
               for m in morphisms}
        ids = {(t, o): (t, sides[t].ids[o]) for t, o in objects}

        def compose(g, f):
            if f[0] != g[0]:  # through a bridge
                return ("j", src[f][1], tgt[g][1])
            return (g[0], sides[g[0]].compose_mor(g[1], f[1]))

        return FinCategory.tabulate(objects, morphisms, src, tgt, ids, compose)


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


def nerve_face_rows(C: FinCategory, layers: list) -> dict:
    """Face rows of nerve generators, read by morphism number.

    ``layers[0]`` holds the objects in vertex order and ``layers[n]`` the
    n-strings as tuples of morphism numbers, in generator order.  Returns
    the row of every generator (n, i) with n >= 1: d_0 and d_n drop an end
    morphism, and d_k composes t[k] after t[k - 1].  An identity composite
    gives the degeneracy s_{k-1} of the string without both, or of the
    source vertex when that string is empty.  A row whose composite or face
    string is missing, which only a bad file has, is None.
    """
    after, ms, num = C.after, C.morphisms, C.number
    ids = {num[m] for m in C.id_set}
    vertex = {o: SimplexKey((0, i)) for i, o in enumerate(layers[0])}
    rows = {}
    if len(layers) > 1:
        for i, (m,) in enumerate(layers[1]):
            rows[(1, i)] = (vertex[C.tgt[ms[m]]], vertex[C.src[ms[m]]])
    lower: dict = {}
    degenerate: dict = {}  # each degenerate face key built once

    def identity_face(t, k):
        """d_k of t when t[k] after t[k - 1] is an identity."""
        core = t[: k - 1] + t[k + 1 :]
        base = lower.get(core) if core else vertex[C.src[ms[t[0]]]]
        if base is None:
            return None
        if (base, k) not in degenerate:
            degenerate[(base, k)] = SimplexKey(base.gen, (k - 1,))
        return degenerate[(base, k)]

    for n in range(2, len(layers)):
        layer = layers[n]
        index = {t: SimplexKey((n - 1, i)) for i, t in enumerate(layers[n - 1])}
        # the face rows by columns: d_0, the inner faces, d_n; a composite
        # that is missing (None) makes a string that is not in the index
        cols = [[index.get(t[1:]) for t in layer]]
        for k in range(1, n):
            hs = [after[t[k - 1]].get(t[k]) for t in layer]
            cols.append([identity_face(t, k) if h in ids
                         else index.get(t[: k - 1] + (h,) + t[k + 1 :])
                         for t, h in zip(layer, hs)])
        cols.append([index.get(t[:-1]) for t in layer])
        faces = zip(*cols)
        if any(None in col for col in cols):
            faces = [None if None in row else row for row in faces]
        rows.update(zip([(n, i) for i in range(len(layer))], faces))
        lower = index
    return rows


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


def nerve_labels_from_names(labels, C: FinCategory, pointer: str) -> dict:
    """Recover nerve labels (objects for vertices, morphism strings above)
    from the generator names of a serialized nerve."""
    out = {}
    for g, name in labels.items():
        if g[0] == 0:
            if name not in C.objects:
                raise SchemaError(f"vertex {name!r} is not an object of the category",
                                  f"{pointer}/generators/0")
            out[g] = name
            continue
        ms = tuple(name.split("|"))
        if not (len(ms) == g[0] and all(map(C.src.__contains__, ms))):
            raise SchemaError(f"generator {name!r} is not a morphism string of length {g[0]}",
                              f"{pointer}/generators/{g[0]}")
        if not C.id_set.isdisjoint(ms):
            raise SchemaError(f"nondegenerate string {name!r} contains an identity",
                              f"{pointer}/generators/{g[0]}")
        out[g] = ms
    return out


def _nerve_rows_of_labels(C: FinCategory, n_gens: list, labels: dict, bound) -> Optional[dict]:
    """The face rows that a nerve file with these generator counts, nerve
    labels and bound must hold, read without building the nerve.

    None when the counts differ from the numbers of composable strings of
    non-identity morphisms of each length up to the bound (the top
    dimension when ``bound`` is None), counted as paths along
    ``C.nonid_out``.  Else each generator (n, i) with n >= 1 and its row,
    in dimension order: False when its label is not a composable string,
    else the row that ``nerve_face_rows`` reads from the labels by morphism
    number.  This is exact: the labels are distinct strings of
    non-identity morphisms (``nerve_labels_from_names``), so composable
    labels as many as the nerve's strings are exactly the nerve's
    generators.  ``n_gens`` has no trailing zero.
    """
    top = len(n_gens) - 1
    d = top if bound is None else bound
    paths = dict.fromkeys(C.objects, 1)  # strings of length n, by last target
    for n in range(max(d, 0) + 1):
        if n:
            longer = dict.fromkeys(C.objects, 0)
            for a, count in paths.items():
                for m in C.nonid_out(a):
                    longer[C.tgt[m]] += count
            paths = longer
        if sum(paths.values()) != (n_gens[n] if n <= top else 0):
            return None
        if n > top:  # no string of length n, so none longer either
            break
    num, after = C.number, C.after
    layers = [[labels[(0, i)] for i in range(n_gens[0] if n_gens else 0)]]
    layers += [[tuple([num[m] for m in labels[(n, i)]]) for i in range(n_gens[n])]
               for n in range(1, top + 1)]
    rows = nerve_face_rows(C, layers)
    # a string that is not composable has a composite missing, so its row
    # is None
    for g, row in rows.items():
        t = layers[g[0]][g[1]]
        if row is None and not all(b in after[a] for a, b in zip(t, t[1:])):
            rows[g] = False
    return rows


def check_nerve_structure(X: SimplicialSet, C: FinCategory, pointer: str) -> None:
    """The generator/face tables of a parsed nerve file must be those of the
    nerve of its category: the rows of ``_nerve_rows_of_labels``, checked on
    X itself.  Generators are visited in dimension order, so every face
    string of a checked label names a generator already checked.
    """
    rows = _nerve_rows_of_labels(C, X.n_gens, X.labels, X.bound)
    if rows is None:
        raise SchemaError("generator counts differ from the nerve of the category", pointer)
    for g, row in rows.items():
        if row is False:
            raise SchemaError(f"generator {X.labels[g]!r} is not a simplex of the nerve",
                              pointer)
        if X.faces[g] != row:
            raise SchemaError(f"faces of {X.labels[g]!r} disagree with the nerve of the "
                              "category", f"{pointer}/faces")


def nerve_from_document(obj: dict, n_gens: list, names: dict, pointer: str):
    """The nerve file ``obj`` read through its category block, or None.

    ``n_gens`` and ``names`` (generator -> name) come from the document's
    checked ``generators``.  The category is parsed, the labels recovered,
    and the face rows of ``_nerve_rows_of_labels`` computed once; then each
    ``faces`` entry must be the ``[name, [degeneracies]]`` list of its row,
    every degeneracy an exact ``int``.  Those rows become ``X.faces``.
    Nothing here raises: on any mismatch the result is None, and the
    generic parse reports the first fault, with its message and pointer.

    ``SimplicialSet.check`` is implied on this route: the labels are the
    generators of the nerve of a category that passed ``check()``, and the
    rows are that nerve's face rows, which satisfy the simplicial
    identities.  So is the generic route's ``check_nerve_structure``.
    """
    faces, bound = obj["faces"], obj.get("bound")
    if type(faces) is not dict or not (bound is None or (type(bound) is int and bound >= 0)):
        return None
    if bound is not None and any(n_gens[bound + 1:]):
        return None
    while n_gens and not n_gens[-1]:
        n_gens = n_gens[:-1]
    try:
        C = parse_category(obj["category"], pointer + "/category")
        labels = nerve_labels_from_names(names, C, pointer)
    except SchemaError:
        return None
    rows = _nerve_rows_of_labels(C, n_gens, labels, bound)
    if rows is None or not all(rows.values()):
        return None
    # each row as the file writes it, one [name, [degeneracies]] list per
    # distinct face key; list equality takes 1.0 and True for 1, so the
    # degeneracies are checked to be ints apart
    written: dict = {}
    expected = {}
    degenerate = []
    for g, row in rows.items():
        out = []
        for i, k in enumerate(row):
            j = written.get(k)
            if j is None:
                j = written[k] = [names[k.gen], list(k.degens)]
            out.append(j)
            if k.degens:
                degenerate.append((names[g], i))
        expected[names[g]] = out
    if len(faces) != len(expected):  # a vertex may list its faces as []
        vertices = {names[(0, i)] for i in range(n_gens[0] if n_gens else 0)}
        faces = {name: row for name, row in faces.items()
                 if not (name in vertices and row == [])}
    if faces != expected or any(type(faces[name][i][1][0]) is not int
                                for name, i in degenerate):
        return None
    return SimplicialSet(n_gens, rows, labels=labels, bound=bound, category=C)


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
