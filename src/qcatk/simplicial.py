"""Constructions and searches on finite simplicial sets: the standard
shapes, functionally presented families and their materialization,
products, subcomplexes, the one backtracking kernel of map search,
simplices by their faces and horn fillers, and the isomorphism search.  The
simplicial sets themselves are in :mod:`qcatk.ssets`.

Searches charge one node per partial assignment to the budget ledger of
:func:`qcatk.ssets.budget`, and raise ``BudgetExceeded`` when it runs out.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from .ssets import (
    _LEDGER,
    DEFAULT_BUDGET,
    Gen,
    SimplexKey,
    SimplicialMap,
    SimplicialSet,
    _Ledger,
    apply_degeneracy_word,
    key_degeneracy,
)


# -- generic materialization of functionally presented families -----------


class Family:
    """A simplicial set presented functionally up to a dimension bound.

    Subclasses provide ``elements(n)`` (all n-simplices as hashable values),
    ``face(n, x, i)`` and ``degeneracy(n, x, i)``.
    """


class MaterializedSSet(SimplicialSet):
    """A simplicial set materialized from a :class:`Family`.

    Keeps the family and the element<->key translation, so that maps into
    or out of the materialization can be built from raw elements.
    """

    def __init__(self, family: Family, d: int, complete=False):
        self.family = family
        gens_per_dim: list[list[Any]] = []
        self._elem_gen: dict[tuple[int, Any], Gen] = {}
        key_memo: dict[tuple[int, Any], SimplexKey] = {}

        def key_of(n: int, x) -> SimplexKey:
            item = (n, x)
            if item in key_memo:
                return key_memo[item]
            if item in self._elem_gen:
                k = SimplexKey(self._elem_gen[item])
            else:
                for i in range(n - 1, -1, -1):
                    fx = family.face(n, x, i)
                    if family.degeneracy(n - 1, fx, i) == x:
                        k = key_degeneracy(key_of(n - 1, fx), i)
                        break
                else:
                    raise AssertionError(f"element {x!r} at dim {n} is neither stored nor degenerate")
            key_memo[item] = k
            return k

        faces: dict[Gen, tuple[SimplexKey, ...]] = {}
        labels: dict[Gen, Any] = {}
        for n in range(d + 1):
            layer = []
            for x in sorted(family.elements(n), key=repr):
                degenerate = False
                if n > 0:
                    for i in range(n):
                        fx = family.face(n, x, i)
                        if family.degeneracy(n - 1, fx, i) == x:
                            degenerate = True
                            break
                if degenerate:
                    continue
                g = (n, len(layer))
                layer.append(x)
                self._elem_gen[(n, x)] = g
                labels[g] = x
                if n > 0:
                    faces[g] = tuple(key_of(n - 1, family.face(n, x, i)) for i in range(n + 1))
            gens_per_dim.append(len(layer))
        super().__init__(gens_per_dim, faces, labels=labels, bound=None if complete else d)
        self._key_of_fn = key_of

    def key_of(self, n: int, elem) -> SimplexKey:
        """Normal-form key of a raw family element."""
        return self._key_of_fn(n, elem)


# -- standard objects ------------------------------------------------------


def _subset_complex(subsets) -> SimplicialSet:
    """Simplicial set whose nondegenerate simplices are the given vertex
    subsets of some [n] (each a sorted tuple), closed under taking faces."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in subsets:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    top = max(by_dim) if by_dim else -1
    n_gens, faces, labels = [], {}, {}
    index: dict[tuple[int, ...], Gen] = {}
    for n in range(top + 1):
        layer = sorted(set(by_dim.get(n, [])))
        n_gens.append(len(layer))
        for i, s in enumerate(layer):
            index[s] = (n, i)
            labels[(n, i)] = s
    for s, g in index.items():
        n = g[0]
        if n == 0:
            continue
        row = []
        for i in range(n + 1):
            t = s[:i] + s[i + 1 :]
            if t not in index:
                raise ValueError(f"subset complex not closed under faces: {t} missing")
            row.append(SimplexKey(index[t]))
        faces[g] = tuple(row)
    return SimplicialSet(n_gens, faces, labels=labels, bound=None)


def delta(n: int) -> SimplicialSet:
    """The standard n-simplex."""
    subs = [c for k in range(n + 1) for c in itertools.combinations(range(n + 1), k + 1)]
    return _subset_complex(subs)


def boundary(n: int) -> SimplicialSet:
    if n == 0:
        return empty_sset()
    subs = [
        c
        for k in range(n)
        for c in itertools.combinations(range(n + 1), k + 1)
    ]
    return _subset_complex(subs)


def horn(n: int, k: int) -> SimplicialSet:
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    full = tuple(range(n + 1))
    omit_k = tuple(v for v in full if v != k)
    subs = [
        c
        for m in range(n)
        for c in itertools.combinations(range(n + 1), m + 1)
        if c != omit_k
    ]
    return _subset_complex(subs)


def spine(n: int) -> SimplicialSet:
    subs = [(i,) for i in range(n + 1)] + [(i - 1, i) for i in range(1, n + 1)]
    return _subset_complex(subs)


def point() -> SimplicialSet:
    return delta(0)


def empty_sset() -> SimplicialSet:
    return SimplicialSet([], {}, bound=None)


def key_from_vertex_seq(S: SimplicialSet, seq) -> SimplexKey:
    """Key of the simplex of a vertex-subset complex with the given monotone
    vertex sequence: the generator on its distinct vertices, degenerate at
    each position where consecutive vertices coincide."""
    gen = S.gen_of_label(tuple(sorted(set(seq))))
    word = tuple(i for i in range(len(seq) - 2, -1, -1) if seq[i] == seq[i + 1])
    return SimplexKey(gen, word)


def delta_inclusion(source: SimplicialSet, target: SimplicialSet, vertex_map) -> SimplicialMap:
    """Map between subset complexes induced by a function on vertex labels."""
    assign = {
        g: key_from_vertex_seq(target, [vertex_map(v) for v in source.labels[g]])
        for g in source.all_gens()
    }
    return SimplicialMap(source, target, assign)


# -- products ----------------------------------------------------------------


class ProductFamily(Family):
    def __init__(self, X: SimplicialSet, Y: SimplicialSet):
        self.X, self.Y = X, Y

    def elements(self, n):
        return [(a, b) for a in self.X.simplices(n) for b in self.Y.simplices(n)]

    def face(self, n, x, i):
        return (self.X.face(x[0], i), self.Y.face(x[1], i))

    def degeneracy(self, n, x, i):
        return (self.X.degeneracy(x[0], i), self.Y.degeneracy(x[1], i))


class _Span2:
    """A simplicial set with two structure maps: the projections of a
    product or a pullback, or the inclusions into a join."""

    def __init__(self, sset: MaterializedSSet, left: SimplicialMap, right: SimplicialMap):
        self.sset, self.left, self.right = sset, left, right


def product(X: SimplicialSet, Y: SimplicialSet, d: int) -> _Span2:
    for Z in (X, Y):
        Z.require_bound(d, "product")
    # complete inputs have a complete product once d reaches its top
    # dimension, dim X + dim Y (Eilenberg-Zilber)
    complete = X.bound is None and Y.bound is None and d >= X.top_dim + Y.top_dim
    P = MaterializedSSet(ProductFamily(X, Y), d, complete=complete)
    p1 = SimplicialMap(P, X, {g: P.labels[g][0] for g in P.all_gens()})
    p2 = SimplicialMap(P, Y, {g: P.labels[g][1] for g in P.all_gens()})
    return _Span2(P, p1, p2)


# -- subcomplexes ----------------------------------------------------------


def subcomplex(X: SimplicialSet, keep, d: int) -> tuple[SimplicialSet, SimplicialMap]:
    """The subcomplex of X up to dimension d on a face-closed set of keys,
    given by ``keep``, together with its inclusion.

    Its nondegenerate simplices are the generators of X that ``keep``
    accepts: each layer holds them in ``repr`` order of their keys, which
    are their labels, and face rows are X's, re-indexed.
    """
    # name the first dimension above X's bound, as enumerating simplices
    # dimension by dimension would
    X.require_bound(min(d, X.effective_bound() + 1), "simplex enumeration")
    layers = [sorted((SimplexKey(g) for g in X.gens(n) if keep(SimplexKey(g))), key=repr)
              for n in range(d + 1)]
    index = {k.gen: (n, i) for n, layer in enumerate(layers) for i, k in enumerate(layer)}
    faces = {index[k.gen]: tuple(SimplexKey(index[f.gen], f.degens) for f in X.faces[k.gen])
             for layer in layers[1:] for k in layer}
    labels = {g: SimplexKey(old) for old, g in index.items()}
    S = SimplicialSet([len(layer) for layer in layers], faces, labels=labels, bound=d)
    return S, SimplicialMap(S, X, dict(labels))


def full_subcomplex(X: SimplicialSet, vertices_keep, d: int):
    """0-full subcomplex on a set of vertex keys."""
    vs = set(vertices_keep)

    def keep(k):
        return all(v in vs for v in X.vertices(k))

    return subcomplex(X, keep, d)


def one_full_subcomplex(X: SimplicialSet, edge_keep, d: int):
    """1-full subcomplex on the edges satisfying ``edge_keep``: the simplices
    all of whose edges, degenerate ones included, satisfy it.

    Decided by face membership, memoized per key: every vertex is kept, an
    edge when ``edge_keep`` holds, and a simplex of dimension >= 2 when all
    of its faces are kept.  This is exact for any simplicial set, because
    every edge of an n-simplex with n >= 2 lies in one of its faces (one
    that omits a vertex other than the edge's two), and every edge of a
    face is an edge of the simplex.
    """
    memo: dict[SimplexKey, bool] = {}

    def keep(k):
        if k not in memo:
            n = k.dim
            if n <= 1:
                memo[k] = n == 0 or bool(edge_keep(k))
            else:
                memo[k] = all(keep(X.face(k, i)) for i in range(n + 1))
        return memo[k]

    return subcomplex(X, keep, d)


# -- map enumeration -------------------------------------------------------


def enumerate_maps(
    K: SimplicialSet,
    X: SimplicialSet,
    fixed: Optional[dict[Gen, SimplexKey]] = None,
) -> list[SimplicialMap]:
    """All simplicial maps K -> X, ordered lexicographically by assignment
    in ``K.all_gens()`` order.

    ``fixed`` prescribes values on some generators of K.  One backtracking
    search assigns the generators in forward-checking order
    (``K.search_order()``): each generator of dimension >= 1 right after
    the last of its faces, so an edge is tried as soon as both its
    endpoints are assigned.  A generator's candidates are the simplices of
    X with its assigned boundary, read from ``X.boundary_index``, which X
    builds once and every later search into X reuses.  Into a nerve, a
    2-simplex is fixed by its boundary, so its lookup is the composition
    check of a functor and every higher generator has at most one
    candidate.
    It is :func:`relative_maps` with nothing inner, and charges one node
    per partial assignment to the ledger of the enclosing :func:`~qcatk.ssets.budget`
    block (the CLI's ``--budget``, for the whole command), so the nodes a
    search needs depend on the search order.
    """
    return relative_maps(K, X, fixed=fixed)[0][1]


def relative_maps(
    K: SimplicialSet,
    X: SimplicialSet,
    inner: Iterable[Gen] = (),
    restrict: Optional[Iterable[dict[Gen, SimplexKey]]] = None,
    fixed: Optional[dict[Gen, SimplexKey]] = None,
) -> list[tuple[dict[Gen, SimplexKey], list[SimplicialMap]]]:
    """Every map u from a face-closed set ``inner`` of K's generators into
    X, each with its extensions to maps K -> X: pairs ``(u, maps)``, u a
    dict in ``K.all_gens()`` order, ordered as :func:`enumerate_maps`
    orders maps, and each ``maps`` likewise; a u with no extension comes
    with an empty list.

    One backtracking search (the kernel of :func:`enumerate_maps`) assigns
    ``inner`` first, in ``K.search_order()``, records u when it has
    assigned the last of them, and collects the extensions found below that
    node, so the part of the tree over ``inner`` is searched once for all
    u.  ``restrict`` limits u to the given assignments of ``inner``, through
    a prefix trie in search order; candidates still come from
    ``X.boundary_index``, so an assignment that is not a map yields nothing.
    Every node, over ``inner`` and below it, is charged to the ledger of
    the enclosing :func:`~qcatk.ssets.budget` block, or to a ledger of
    ``DEFAULT_BUDGET`` nodes for this search alone outside any block;
    ``BudgetExceeded`` reports the node count that passed the limit.
    """
    X.require_bound(K.top_dim, "map enumeration")
    fixed = fixed or {}
    inner = set(inner)
    if any(f.gen not in inner for g in inner if g[0] for f in K.faces[g]):
        raise ValueError("inner generators are not closed under faces")
    cand_index = {n: X.boundary_index(n) for n in range(1, K.top_dim + 1)}
    gens = K.all_gens()
    inner_gens = [g for g in gens if g in inner]
    order = K.search_order()
    order = [g for g in order if g in inner] + [g for g in order if g not in inner]
    depth, leaf = len(inner), len(order)
    vertices = X.simplices(0)
    # the values of the current branch live in ``vals``, by search position
    position = {g: p for p, g in enumerate(order)}
    inner_at = [position[g] for g in inner_gens]
    gens_at = [position[g] for g in gens]
    # per generator, in search order: the boundary index of its dimension,
    # its face row as (position, degeneracy word) pairs (None for
    # vertices), and its fixed value
    plan = [(cand_index.get(g[0]),
             tuple((position[f], word) for f, word in K.faces[g]) if g[0] else None,
             fixed.get(g)) for g in order]
    # the restriction: a trie over ``inner``'s values in search order
    trie = None
    if restrict is not None:
        restrict = list(restrict)
        if not restrict:
            return []
        trie = {}
        for u in restrict:
            node = trie
            for g in order[:depth]:
                node = node.setdefault(u[g], {})

    ledger = _LEDGER.get() or _Ledger(DEFAULT_BUDGET)
    found: list[tuple[dict[Gen, SimplexKey], list[SimplicialMap]]] = []
    vals: list[Optional[SimplexKey]] = [None] * leaf
    degenerate: dict[tuple[SimplexKey, tuple[int, ...]], SimplexKey] = {}  # (value, word) -> image

    def rec(pos, node):
        ledger.used += 1
        if ledger.used > ledger.limit:
            ledger.overrun()
        if pos == depth:
            found.append((dict(zip(inner_gens, [vals[p] for p in inner_at])), []))
            node = None
        if pos == leaf:
            found[-1][1].append(SimplicialMap(K, X, dict(zip(gens, [vals[p] for p in gens_at]))))
            return
        index, row, want = plan[pos]
        if row is None:
            cands = vertices
        else:
            # a word is applied once per search
            wanted = []
            for p, word in row:
                v = vals[p]
                if word:
                    w = degenerate.get((v, word))
                    if w is None:
                        w = degenerate[(v, word)] = apply_degeneracy_word(v, word)
                    v = w
                wanted.append(v)
            cands = index.get(tuple(wanted), ())
        if want is not None:
            cands = [c for c in cands if c == want]
        if node is not None:
            cands = [c for c in cands if c in node]
        for c in cands:
            vals[pos] = c
            rec(pos + 1, None if node is None else node[c])

    rec(0, trie)
    found.sort(key=lambda p: list(p[0].values()))
    for _, maps in found:
        maps.sort(key=lambda m: list(m.assign.values()))
    return found


# -- simplices by their faces and horn fillers ----------------------------


def simplex_with_faces(X: SimplicialSet, n: int,
                       faces: dict[int, SimplexKey]) -> Optional[SimplexKey]:
    """The first n-simplex of X (n >= 1) in ``simplices(n)`` order whose
    face i is ``faces[i]`` for every given i, or None.

    ``faces`` gives all n + 1 faces, or all but one.  With all given the
    answer heads one ``boundary_index(n)`` bucket.  With face k missing,
    the simplicial identities give the missing face's own faces:
    d_j d_k = d_{k-1} d_j for j < k and d_j d_k = d_k d_{j+1} for j >= k.
    So its candidates are one ``boundary_index(n - 1)`` bucket (every
    vertex when n = 1), and each costs one ``boundary_index(n)`` lookup;
    the least hit is the first in ``simplices(n)`` order.
    """
    missing = [i for i in range(n + 1) if i not in faces]
    if n < 1 or len(missing) > 1 or len(faces) != n + 1 - len(missing):
        raise ValueError(f"need all {n + 1} faces of the {n}-simplex, or all but one")
    index = X.boundary_index(n)
    if not missing:
        bucket = index.get(tuple(faces[i] for i in range(n + 1)))
        return bucket[0] if bucket else None
    k = missing[0]
    if n == 1:
        cands = X.simplices(0)
    else:
        bd = tuple(X.face(faces[j], k - 1) if j < k else X.face(faces[j + 1], k)
                   for j in range(n))
        cands = X.boundary_index(n - 1).get(bd, [])
    hits = []
    for c in cands:
        bucket = index.get(tuple(c if i == k else faces[i] for i in range(n + 1)))
        if bucket:
            hits.append(bucket[0])
    return min(hits, default=None)


def inner_horn_filler(X: SimplicialSet, h: SimplicialMap) -> Optional[SimplexKey]:
    """First filler (in canonical order) of a horn map h : Lambda^k[n] -> X,
    or None.  Works for outer horns too."""
    H = h.source
    n = max(len(H.labels[g]) for g in H.all_gens())  # largest vertex subset size
    full = tuple(range(n + 1))
    missing = [k for k in range(n + 1) if tuple(v for v in full if v != k) not in H._gen_of_label]
    if len(missing) != 1:
        raise ValueError("source is not a horn")
    k = missing[0]
    X.require_bound(n, "horn filling")
    wanted = {}
    for i in range(n + 1):
        if i == k:
            continue
        face_lbl = tuple(v for v in full if v != i)
        wanted[i] = h(SimplexKey(H.gen_of_label(face_lbl)))
    return simplex_with_faces(X, n, wanted)


def horn_maps(X: SimplicialSet, n: int, k: int):
    """All horn maps Lambda^k[n] -> X."""
    return enumerate_maps(horn(n, k), X)


# -- isomorphism search ----------------------------------------------------


def iso_check(X: SimplicialSet, Y: SimplicialSet, d: int):
    """A face-compatible dimension-wise bijection of generators up to d,
    or None.  Charges one node per partial bijection to the ledger, as
    :func:`relative_maps` does."""
    dx = min(d, X.top_dim)
    dy = min(d, Y.top_dim)
    if dx != dy:
        return None
    for n in range(dx + 1):
        if len(X.gens(n)) != len(Y.gens(n)):
            return None
    gens_in_order = [g for n in range(dx + 1) for g in X.gens(n)]
    ledger = _LEDGER.get() or _Ledger(DEFAULT_BUDGET)
    assign: dict[Gen, Gen] = {}
    used: set[Gen] = set()

    def image(key: SimplexKey) -> SimplexKey:
        return SimplexKey(assign[key.gen], key.degens)

    def rec(pos):
        ledger.used += 1
        if ledger.used > ledger.limit:
            ledger.overrun()
        if pos == len(gens_in_order):
            return dict(assign)
        g = gens_in_order[pos]
        n = g[0]
        for h in Y.gens(n):
            if h in used:
                continue
            if n > 0:
                ok = True
                for i in range(n + 1):
                    f = X.face(SimplexKey(g), i)
                    if f.gen not in assign or image(f) != Y.face(SimplexKey(h), i):
                        ok = False
                        break
                if not ok:
                    continue
            assign[g] = h
            used.add(h)
            out = rec(pos + 1)
            if out is not None:
                return out
            del assign[g]
            used.discard(h)
        return None

    return rec(0)
