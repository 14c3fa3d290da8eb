"""Exact integral linear algebra and low-dimensional invariants of finite
simplicial sets: Smith normal form, and pi_0, abelianized pi_1 and H_1 of
normalized chains from one spanning-forest presentation.  All arithmetic is
over Python integers."""

from __future__ import annotations

from .simplicial import SimplexKey, SimplicialSet, UnionFind


def smith_normal_form(A: list[list[int]]):
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


class AbelianGroupPresentation:
    """Finitely generated abelian group in invariant-factor form, equal and
    hashed by value."""

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        self.free_rank = free_rank
        self.torsion = torsion  # invariant factors > 1, each dividing the next

    def __eq__(self, other):
        return (isinstance(other, AbelianGroupPresentation)
                and (self.free_rank, self.torsion) == (other.free_rank, other.torsion))

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def group_from_relations(num_gens: int, relations: list[list[int]]) -> AbelianGroupPresentation:
    """Abelian group on num_gens generators modulo integer relation rows."""
    if num_gens == 0:
        return AbelianGroupPresentation(0, ())
    if not relations:
        return AbelianGroupPresentation(num_gens, ())
    _, D, _ = smith_normal_form(relations)
    diag = [D[i][i] for i in range(min(len(D), num_gens)) if D[i][i] != 0]
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupPresentation(num_gens - len(diag), torsion)


# -- invariants of simplicial sets -------------------------------------------


def _spanning_forest(X: SimplicialSet) -> tuple[UnionFind, set]:
    """The components of X's 1-skeleton, each rooted at its minimal vertex,
    and a spanning forest of it: the generators of ``gens(1)`` that, taken
    in order, joined two components."""
    uf = UnionFind()
    for v in X.simplices(0):
        uf.find(v)
    tree = set()
    for g in X.gens(1):
        e = SimplexKey(g)
        if uf.union(X.vertex(e, 0), X.vertex(e, 1)):
            tree.add(g)
    return uf, tree


def component_of(X: SimplicialSet) -> dict[SimplexKey, SimplexKey]:
    """Each vertex's connected-component representative (the minimal vertex
    of its component)."""
    uf, _ = _spanning_forest(X)
    return {v: uf.find(v) for v in X.simplices(0)}


def pi0(X: SimplicialSet) -> list[SimplexKey]:
    """Connected-component representatives (minimal vertex per component)."""
    return sorted(set(component_of(X).values()))


def _forest_presentation(X: SimplicialSet, basepoint=None) -> AbelianGroupPresentation:
    """The free abelian group on the nondegenerate edges outside a spanning
    forest, modulo d0 + d2 - d1 for each nondegenerate 2-simplex, with
    degenerate and forest faces dropped: over the basepoint's component, or
    over all of X when ``basepoint`` is None.

    Since the boundary is injective on the span of the forest and has the
    same image there as on all 1-chains, 1-chains are the cycles plus that
    span, so this is H_1 and, per component, the abelianized edge-path group.
    """
    uf, tree = _spanning_forest(X)
    root = None if basepoint is None else uf.find(basepoint)

    def kept(key: SimplexKey) -> bool:
        return root is None or uf.find(X.vertex(key, 0)) == root

    col = {g: c for c, g in enumerate(
        g for g in X.gens(1) if g not in tree and kept(SimplexKey(g)))}
    relations = []
    for g in X.gens(2):
        t = SimplexKey(g)
        if kept(t):
            row = [0] * len(col)
            for i, sign in ((0, 1), (2, 1), (1, -1)):  # d2 then d0 equals d1
                f = X.face(t, i)
                if not f.is_degenerate and f.gen in col:
                    row[col[f.gen]] += sign
            relations.append(row)
    return group_from_relations(len(col), relations)


def h1(X: SimplicialSet) -> AbelianGroupPresentation:
    """H_1 of the normalized chain complex of the stored truncation."""
    return _forest_presentation(X)


def pi1_abelianized(X: SimplicialSet, basepoint: SimplexKey) -> AbelianGroupPresentation:
    """Abelianized edge-path group of the component of the basepoint
    (degenerate faces act as identities)."""
    return _forest_presentation(X, basepoint)


def weak_contractibility_report(X: SimplicialSet, d: int = None) -> dict:
    """Desk-scale certificate: nonempty, one component, trivial H_1 of the
    stored truncation.  The verdict carries its dimension bound."""
    if d is None:
        d = X.top_dim if X.bound is None else X.bound
    if X.is_empty():
        return {"verdict": "refuted", "reason": "empty", "dim": d}
    comps = pi0(X)
    if len(comps) > 1:
        return {"verdict": "refuted", "reason": f"pi0 has {len(comps)} elements", "dim": d}
    g = h1(X)
    if g.is_trivial:
        return {"verdict": f"confirmed-to-{d}", "reason": "pi0 = *, H1 = 0", "dim": d}
    if X.bound is None:
        return {"verdict": "refuted", "reason": f"H1 = {g}", "dim": d}
    return {"verdict": "inconclusive", "reason": f"H1 of truncation = {g}", "dim": d}
