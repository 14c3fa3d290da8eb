"""Fixtures and oracles shared by the tests: the dense Smith normal form
with its transforms, small categories, composition tables by value and
those of the category constructors by their pair loops, the nerve built
through morphism strings, the maximal Waldhausen marking, inputs that break
the Waldhausen and quasicategory axioms, the homotopy-category comparison
with a known category and the faces of a prism homotopy.  The library has
no other user for them."""

from qcatk import lifting as lf
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk.cats import (
    cyclic_group_category,
    edge_morphism,
    nerve,
    nerve_key_for_string,
    poset_category,
)
from qcatk.fincat import FinCategory
from qcatk.homology import AbelianGroupPresentation
from qcatk.waldhausen import ExactFunctorData, WaldhausenData, nerve_waldhausen


def dense_smith_form(A: list[list[int]]):
    """Return (U, D, V) with U*A*V = D diagonal, divisibility-ordered.

    U and V are unimodular.  The factorization is verified before returning.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row i += c * row j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):  # col i += c * col j
        for row in D:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    t = 0
    while t < min(m, n):
        # pivot: the smallest nonzero magnitude in the remaining block, picked
        # afresh after each pass over row and column t, so that every
        # remainder the pass leaves is smaller than the last pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        for i in range(t + 1, m):
            if D[i][t]:
                add_row(i, t, -(D[i][t] // D[t][t]))
        for j in range(t + 1, n):
            if D[t][j]:
                add_col(j, t, -(D[t][j] // D[t][t]))
        if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
            continue
        if D[t][t] < 0:
            add_row(t, t, -2)
        t += 1

    # enforce divisibility d_i | d_{i+1}
    r = 0
    while r < min(m, n) and D[r][r] != 0:
        r += 1
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if D[i + 1][i + 1] % D[i][i] != 0:
                add_col(i, i + 1, 1)
                # re-clear the 2x2 block
                a, b = D[i][i], D[i + 1][i]
                while D[i + 1][i]:
                    q = D[i][i] // D[i + 1][i]
                    add_row(i, i + 1, -q)
                    swap_rows(i, i + 1)
                while D[i][i + 1]:
                    q = D[i][i + 1] // D[i][i]
                    add_col(i + 1, i, -q)
                if D[i][i] < 0:
                    add_row(i, i, -2)
                if D[i + 1][i + 1] < 0:
                    add_row(i + 1, i + 1, -2)
                changed = True

    # verify U*A*V == D, forming U*A from the nonzero entries of U and A only
    A_nonzero = [[(j, a) for j, a in enumerate(row) if a] for row in A]
    UA = []
    for Ui in U:
        row = [0] * n
        for k, u in enumerate(Ui):
            if u:
                for j, a in A_nonzero[k]:
                    row[j] += u * a
        UA.append(row)
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    if UAV != D:
        raise AssertionError("Smith normal form verification failed")
    for i in range(m):
        for j in range(n):
            if i != j and D[i][j] != 0:
                raise AssertionError("Smith normal form is not diagonal")
    return U, D, V


def dense_group_from_relations(num_gens: int, relations: list[list[int]]) -> AbelianGroupPresentation:
    """The abelian group of ``homology.group_from_relations``, read from the
    diagonal of the dense Smith form."""
    if num_gens == 0:
        return AbelianGroupPresentation(0, ())
    if not relations:
        return AbelianGroupPresentation(num_gens, ())
    _, D, _ = dense_smith_form(relations)
    diag = [D[i][i] for i in range(min(len(D), num_gens)) if D[i][i] != 0]
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupPresentation(num_gens - len(diag), torsion)


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
    return FinCategory.tabulate(objects, morphisms, src, tgt, ids,
                                lambda g, f: (f[0], g[1], C.compose_mor(g[2], f[2])))


# -- composition tables by value ----------------------------------------------


def comp_table(C: FinCategory) -> dict:
    """C's composition table by value, read off its rows: ``(g, f)`` to g
    after f for every composable pair, f-major and each row in order."""
    ms = C.morphisms
    return {(ms[j], f): ms[h] for f, row in zip(ms, C.after) for j, h in row.items()}


def table_category(objects, morphisms, src, tgt, ids, table) -> FinCategory:
    """The category whose composites are those of the value table, which
    must list every composable pair; unchecked, so the table may break the
    category laws."""
    return FinCategory.tabulate(objects, morphisms, src, tgt, ids,
                                lambda g, f: table[(g, f)])


# -- composition tables by the loops the constructors once wrote --------------
#
# Each oracle rebuilds the value table of a category that a constructor
# tabulated, from that category's morphisms and the categories it was built
# from.


def poset_comp_by_pairs(P: FinCategory) -> dict:
    return {((b, c), (a, b2)): (a, c)
            for (a, b2) in P.morphisms for (b, c) in P.morphisms if b == b2}


def monoid_comp_by_pairs(M: FinCategory, op) -> dict:
    return {(g, f): op(g, f) for g in M.morphisms for f in M.morphisms}


def pointed_sets_comp_by_pairs(P: FinCategory) -> dict:
    comp = {}
    for f in P.morphisms:
        for g in P.morphisms:
            if g[0] == f[1]:
                gv = (0,) + g[2]
                comp[(g, f)] = (f[0], g[1], tuple(gv[v] for v in f[2]))
    return comp


def _by_target(C: FinCategory) -> dict:
    into: dict = {}
    for f in C.morphisms:
        into.setdefault(C.tgt[f], []).append(f)
    return into


def product_comp_by_target_index(C: FinCategory, D: FinCategory, P: FinCategory) -> dict:
    into_c, into_d = _by_target(C), _by_target(D)
    comp = {}
    for f1, g1 in P.morphisms:
        for f2 in into_c.get(C.src[f1], ()):
            h1 = C.compose_mor(f1, f2)
            for g2 in into_d.get(D.src[g1], ()):
                comp[((f1, g1), (f2, g2))] = (h1, D.compose_mor(g1, g2))
    return comp


def join_comp_by_target_index(C: FinCategory, D: FinCategory, J: FinCategory) -> dict:
    into = _by_target(J)
    comp = {}
    for g in J.morphisms:
        for f in into.get(J.src[g], ()):
            if f[0] == "l" and g[0] == "l":
                comp[(g, f)] = ("l", C.compose_mor(g[1], f[1]))
            elif f[0] == "r" and g[0] == "r":
                comp[(g, f)] = ("r", D.compose_mor(g[1], f[1]))
            else:
                comp[(g, f)] = ("j", J.src[f][1], J.tgt[g][1])
    return comp


def disjoint_union_comp_by_pairs(C: FinCategory, D: FinCategory, U: FinCategory) -> dict:
    comp = {}
    for (tg, g) in U.morphisms:
        for (tf, f) in U.morphisms:
            if tg == tf and U.src[(tg, g)] == U.tgt[(tf, f)]:
                side = C if tg == "l" else D
                comp[((tg, g), (tf, f))] = (tg, side.compose_mor(g, f))
    return comp


def duplicate_comp_by_pairs(C: FinCategory, D: FinCategory) -> dict:
    def parts(m):
        if isinstance(m, tuple) and len(m) == 4 and m[0] == "dup":
            return m[1], m[2], m[3]
        return m, False, False

    comp = {}
    for g in D.morphisms:
        for f in D.morphisms:
            if D.src[g] == D.tgt[f]:
                uf, sf, _ = parts(f)
                ug, _, tg = parts(g)
                h = C.compose_mor(ug, uf)
                comp[(g, f)] = ("dup", h, sf, tg) if (sf or tg) else h
    return comp


def nerve_faces(N: ss.SimplicialSet, s: tuple) -> tuple:
    """Face keys of the nondegenerate nerve simplex with the composable
    spine string ``s`` of non-identity morphisms: d_0 drops the first
    morphism, d_n the last, and d_k composes s[k] after s[k - 1]."""
    C = N.category
    if len(s) == 1:
        return (ss.SimplexKey(N.gen_of_label(C.tgt[s[0]])),
                ss.SimplexKey(N.gen_of_label(C.src[s[0]])))
    # dropping an end morphism leaves a string with no identities
    inner = (
        nerve_key_for_string(N, s[: k - 1] + (C.compose_mor(s[k], s[k - 1]),) + s[k + 1 :])
        for k in range(1, len(s))
    )
    return (ss.SimplexKey(N.gen_of_label(s[1:])), *inner,
            ss.SimplexKey(N.gen_of_label(s[:-1])))


def string_route_nerve(C: FinCategory, d: int) -> ss.SimplicialSet:
    """Oracle for ``cats.nerve``: the strings of morphisms themselves, each
    layer sorted by ``repr``, and every face row from ``nerve_faces``."""
    nonid = [m for m in C.morphisms if m not in C.id_set]
    strings: list[list] = [[(o,) for o in sorted(C.objects, key=repr)]]
    if d >= 1:
        strings.append(sorted(((m,) for m in nonid), key=repr))
    for n in range(2, d + 1):
        strings.append(sorted((s + (m,) for s in strings[n - 1]
                               for m in C.nonid_out(C.tgt[s[-1]])), key=repr))
    labels = {(n, i): s[0] if n == 0 else s
              for n, layer in enumerate(strings) for i, s in enumerate(layer)}
    complete = (not nonid) if d == 0 else (not strings[d])
    N = ss.SimplicialSet([len(layer) for layer in strings], {}, labels=labels,
                         bound=None if complete else d, category=C)
    for n in range(1, len(strings)):
        for i, s in enumerate(strings[n]):
            N.faces[(n, i)] = nerve_faces(N, s)
    return N


def image_rows(sub) -> dict:
    """A subcomplex with its inclusion, by its image: the image of each
    generator, with the images of its faces."""
    S, incl = sub
    return {incl(ss.SimplexKey(g)): tuple(map(incl, S.faces.get(g, ()))) for g in S.all_gens()}


def maximal_marking_waldhausen(C: FinCategory, zero_obj, d: int) -> WaldhausenData:
    return nerve_waldhausen(C, zero_obj, [m for m in C.morphisms], d)


def cyclic_nerve_waldhausen(marked: bool) -> WaldhausenData:
    """N(Z/2) at bound 2 with zero *, its edge marked or not: well-formed
    data whose zero is no zero object, since * has two endomorphisms."""
    return nerve_waldhausen(cyclic_group_category(2), "*", [1] if marked else [], 2)


def identity_exact(W: WaldhausenData) -> ExactFunctorData:
    return ExactFunctorData(ss.SimplicialMap.identity(W.underlying), W, W)


def two_simplex_set(n_vertices, edges, rows):
    """Bound-2 set on vertices 0..n-1 with the given edges (source, target)
    and 2-simplices (d0, d1, d2), each given by edge indices.  Returns the
    set and its edge keys."""
    v = [ss.SimplexKey((0, i)) for i in range(n_vertices)]
    e = [ss.SimplexKey((1, i)) for i in range(len(edges))]
    faces = {(1, i): (v[t], v[s]) for i, (s, t) in enumerate(edges)}
    faces.update({(2, i): tuple(e[j] for j in row) for i, row in enumerate(rows)})
    X = ss.SimplicialSet([n_vertices, len(edges), len(rows)], faces, bound=2)
    X.check()
    return X, e


def ill_defined_composition_set():
    """a: 0 -> 1, b: 1 -> 2 and two unrelated c, c': 0 -> 2, each a
    composite of a then b."""
    return two_simplex_set(3, [(0, 1), (1, 2), (0, 2), (0, 2)], [(1, 2, 0), (1, 3, 0)])


def non_associative_set():
    """Edges f: a -> b, g: b -> c, h: c -> d, gf, hg and x, y: a -> d, with
    2-simplices composing g after f, h after g, h after gf (to x) and hg
    after f (to y): every inner 2-horn fills, but x and y are not
    homotopic, so composition of classes is not associative."""
    return two_simplex_set(
        4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3), (0, 3)],
        [(1, 3, 0), (2, 4, 1), (2, 5, 3), (4, 6, 0)])


def two_homotopic_edges():
    """Edges e, e': p -> q with 2-simplices s: e => e' and t: e' => e (faces
    (e', e, s0 p) and (e, e', s0 p)), and no 3-simplex: complete, but not a
    quasicategory (the inner horn with faces t, s0 e and s1 s0 p at 0, 1 and 3
    has no filler)."""
    p, q, e, e2 = (ss.SimplexKey(g) for g in ((0, 0), (0, 1), (1, 0), (1, 1)))
    faces = {(1, 0): (q, p), (1, 1): (q, p),
             (2, 0): (e2, e, ss.key_degeneracy(p, 0)), (2, 1): (e, e2, ss.key_degeneracy(p, 0))}
    labels = dict(zip(((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)),
                      ("p", "q", "e", "e'", "s", "t")))
    X = ss.SimplicialSet([2, 2, 2], faces, labels=labels)
    X.check()
    return X


def ho_equals_category(X: ss.SimplicialSet, C: FinCategory) -> bool:
    """For a nerve X = N(C): the homotopy category is isomorphic to C via
    the labelling of vertices and edges."""
    ho = qc.ho_category(X)
    obj_map = {v: X.labels[v.gen] for v in ho.cat.objects}
    if sorted(map(repr, obj_map.values())) != sorted(map(repr, C.objects)):
        return False

    mors = {m: edge_morphism(C, X, m) for m in ho.cat.morphisms}
    if sorted(map(repr, mors.values())) != sorted(map(repr, C.morphisms)):
        return False
    for (g, f), h in comp_table(ho.cat).items():
        if C.compose_mor(mors[g], mors[f]) != mors[h]:
            return False
    return True


def prism_face(h: ss.SimplicialMap, P1: sx.MaterializedSSet, face: int) -> ss.SimplicialMap:
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
        assign[g] = h(lf._key_along(h.source, kb, [vmap[v] for v in lf._vertex_seq(D1, kd)]))
    return ss.SimplicialMap(P1, h.target, assign)
