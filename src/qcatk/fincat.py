"""Finite categories given by explicit multiplication tables, the
category file codec, and the readers of nerve files: what reading a nerve
file needs.  It imports only :mod:`qcatk.ssets` and the front end's codec
:mod:`qcatk.io`; the constructors, nerves, functors and diagram categories
are in :mod:`qcatk.cats`.

Objects and morphisms are arbitrary hashable values.  Morphisms can be
long nested tuples (a natural transformation lists its components), so the
composition table is held by number, in ``FinCategory.after``: each
morphism is hashed only to number it, and the checks, nerves and diagram
categories compose by number.  ``FinCategory.tabulate`` fills the table
from a composite rule.  The 1-categorical checks live here once: the
category laws, pushouts and pushout squares.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

from .io import SchemaError, _expect, _name_of
from .ssets import SimplexKey, SimplicialSet


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


# -- category files ----------------------------------------------------------


def serialize_category(C: FinCategory) -> dict:
    oname = {o: _name_of(o) for o in C.objects}
    names = [_name_of(m) for m in C.morphisms]  # by number
    homs: dict = {}
    for m, name in zip(C.morphisms, names):
        homs.setdefault(oname[C.src[m]], {}).setdefault(oname[C.tgt[m]], []).append(name)
    for d in homs.values():
        for k in d:
            d[k] = sorted(d[k])
    compose: dict = {}
    for f, row in zip(names, C.after):
        for j, h in row.items():
            compose.setdefault(names[j], {})[f] = names[h]
    return {
        "objects": sorted(oname.values()),
        "homs": homs,
        "compose": compose,
        "ids": {oname[o]: _name_of(C.ids[o]) for o in C.objects},
    }


def parse_category(obj, pointer: str = "") -> FinCategory:
    _expect(isinstance(obj, dict), "category must be an object", pointer)
    for field in ("objects", "homs", "compose", "ids"):
        _expect(field in obj, f"missing '{field}'", pointer)
    objects = obj["objects"]
    _expect(isinstance(objects, list) and all(isinstance(o, str) for o in objects)
            and len(set(objects)) == len(objects),
            "'objects' must be distinct strings", pointer + "/objects")
    src, tgt = {}, {}
    morphisms = []
    _expect(isinstance(obj["homs"], dict), "'homs' must be an object", pointer + "/homs")
    for a, row in obj["homs"].items():
        _expect(a in objects, f"unknown source object {a!r}", f"{pointer}/homs/{a}")
        _expect(isinstance(row, dict), "hom row must be an object", f"{pointer}/homs/{a}")
        for b, ms in row.items():
            p = f"{pointer}/homs/{a}/{b}"
            _expect(b in objects, f"unknown target object {b!r}", p)
            _expect(isinstance(ms, list) and all(isinstance(m, str) for m in ms),
                    "hom set must list morphism names", p)
            for m in ms:
                if m in src:
                    raise SchemaError(f"morphism {m!r} repeated", p)
                src[m], tgt[m] = a, b
                morphisms.append(m)
    ids = obj["ids"]
    _expect(isinstance(ids, dict) and set(ids) == set(objects),
            "'ids' must name one identity per object", pointer + "/ids")
    for o, m in ids.items():
        _expect(isinstance(m, str) and m in src and src[m] == o and tgt[m] == o,
                f"identity of {o!r} must be an endomorphism of it", f"{pointer}/ids/{o}")
    # a composite with an identity that the file leaves out is the other morphism
    table = {}
    for m in morphisms:
        table[(m, ids[src[m]])] = table[(ids[tgt[m]], m)] = m
    _expect(isinstance(obj["compose"], dict), "'compose' must be an object",
            pointer + "/compose")
    for g, row in obj["compose"].items():
        _expect(g in src, f"unknown morphism {g!r}", f"{pointer}/compose/{g}")
        _expect(isinstance(row, dict), "compose row must be an object",
                f"{pointer}/compose/{g}")
        for f, h in row.items():
            if f not in src or not isinstance(h, str) or h not in src:
                raise SchemaError("unknown morphism in composite", f"{pointer}/compose/{g}/{f}")
            if src[g] != tgt[f]:
                raise SchemaError("composite of non-composable pair", f"{pointer}/compose/{g}/{f}")
            table[(g, f)] = h
    try:
        C = FinCategory.tabulate(objects, morphisms, src, tgt, {o: ids[o] for o in objects},
                                 lambda g, f: table[(g, f)])
        C.check()
    except Exception as exc:
        raise SchemaError(f"category laws fail: {exc}", pointer) from exc
    return C


# -- nerve files -------------------------------------------------------------


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
