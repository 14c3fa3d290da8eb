"""Fixtures and oracles shared by the tests: the dense Smith normal form
with its transforms, small categories, the maximal Waldhausen marking, the
homotopy-category comparison with a known category and the faces of a prism
homotopy.  The library has no other user for them."""

from qcatk import lifting as lf
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk.cats import FinCategory, edge_morphism, poset_category
from qcatk.homology import AbelianGroupPresentation
from qcatk.waldhausen import WaldhausenData, nerve_waldhausen


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
        # find pivot: smallest nonzero magnitude in remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
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
    comp = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if m1[1] == m2[0]:
                comp[(m2, m1)] = (m1[0], m2[1], C.compose_mor(m2[2], m1[2]))
    return FinCategory(objects, morphisms, src, tgt, ids, comp)


def maximal_marking_waldhausen(C: FinCategory, zero_obj, d: int) -> WaldhausenData:
    return nerve_waldhausen(C, zero_obj, [m for m in C.morphisms], d)


def ho_equals_category(X: sx.SimplicialSet, C: FinCategory) -> bool:
    """For a nerve X = N(C): the homotopy category is isomorphic to C via
    the labelling of vertices and edges."""
    ho = qc.ho_category(X)
    obj_map = {v: X.labels[v.gen] for v in ho.cat.objects}
    if sorted(map(repr, obj_map.values())) != sorted(map(repr, C.objects)):
        return False

    mors = {m: edge_morphism(C, X, m) for m in ho.cat.morphisms}
    if sorted(map(repr, mors.values())) != sorted(map(repr, C.morphisms)):
        return False
    for (g, f), h in ho.cat.comp.items():
        if C.compose_mor(mors[g], mors[f]) != mors[h]:
            return False
    return True


def prism_face(h: sx.SimplicialMap, P1: sx.MaterializedSSet, face: int) -> sx.SimplicialMap:
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
        assign[g] = lf._along(h, kb, [vmap[v] for v in lf._vertex_seq(D1, kd)])
    return sx.SimplicialMap(P1, h.target, assign)
