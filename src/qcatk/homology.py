"""Exact integral linear algebra and low-dimensional invariants of finite
simplicial sets: Smith normal form, pi_0, abelianized pi_1 via edge paths,
and H_1 of normalized chains.  All arithmetic is over Python integers."""

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


def component_of(X: SimplicialSet) -> dict[SimplexKey, SimplexKey]:
    """Each vertex's connected-component representative (the minimal vertex
    of its component)."""
    uf = UnionFind()
    for v in X.simplices(0):
        uf.find(v)
    for g in X.gens(1):
        e = SimplexKey(g)
        uf.union(X.vertex(e, 0), X.vertex(e, 1))
    return {v: uf.find(v) for v in X.simplices(0)}


def pi0(X: SimplicialSet) -> list[SimplexKey]:
    """Connected-component representatives (minimal vertex per component)."""
    return sorted(set(component_of(X).values()))


def _boundary_matrix(X: SimplicialSet, n: int) -> list[list[int]]:
    """Normalized boundary C_n -> C_{n-1}; rows index (n-1)-generators,
    columns index n-generators.  Degenerate faces contribute zero."""
    rows = {g: r for r, g in enumerate(X.gens(n - 1))}
    M = [[0] * len(X.gens(n)) for _ in X.gens(n - 1)]
    for c, g in enumerate(X.gens(n)):
        for i in range(n + 1):
            f = X.face(SimplexKey(g), i)
            if not f.is_degenerate:
                M[rows[f.gen]][c] += (-1) ** i
    return M


def h1(X: SimplicialSet) -> AbelianGroupPresentation:
    """H_1 of the normalized chain complex of the stored truncation."""
    n1 = len(X.gens(1))
    if n1 == 0:
        return AbelianGroupPresentation(0, ())
    d1 = _boundary_matrix(X, 1)
    # kernel of d1 via SNF: columns of V beyond rank give a kernel basis
    U, D, V = smith_normal_form(d1)
    rank = sum(1 for i in range(min(len(D), n1)) if i < len(D) and D[i][i] != 0)
    kernel_basis = [[V[i][j] for i in range(n1)] for j in range(rank, n1)]
    if not kernel_basis:
        return AbelianGroupPresentation(0, ())
    n2 = len(X.gens(2))
    d2 = _boundary_matrix(X, 2) if n2 else [[0] * 0 for _ in range(n1)]
    # express each d2 column in the kernel basis: solve K * x = col
    # K has full column rank; use SNF of K
    K = [[kernel_basis[j][i] for j in range(len(kernel_basis))] for i in range(n1)]
    Uk, Dk, Vk = smith_normal_form(K)
    rk = len(kernel_basis)
    relations = []
    for c in range(n2):
        col = [d2[i][c] for i in range(n1)]
        # y = Uk * col ; then Dk * z = y ; x = Vk * z
        y = [sum(Uk[i][j] * col[j] for j in range(n1)) for i in range(n1)]
        z = []
        for i in range(rk):
            if Dk[i][i] == 0:
                if y[i] != 0:
                    raise AssertionError("boundary image not in cycle lattice")
                z.append(0)
            else:
                if y[i] % Dk[i][i] != 0:
                    raise AssertionError("boundary image not in cycle lattice")
                z.append(y[i] // Dk[i][i])
        for i in range(rk, n1):
            if y[i] != 0:
                raise AssertionError("boundary image not in cycle lattice")
        x = [sum(Vk[i][j] * z[j] for j in range(rk)) for i in range(rk)]
        relations.append(x)
    return group_from_relations(rk, relations)


def pi1_abelianized(X: SimplicialSet, basepoint: SimplexKey) -> AbelianGroupPresentation:
    """Abelianized edge-path group of the component of the basepoint.

    Generators: nondegenerate edges within the component, with spanning-tree
    edges killed; relations from nondegenerate 2-simplices (degenerate faces
    act as identities).
    """
    uf = UnionFind()
    for v in X.simplices(0):
        uf.find(v)
    edges = [SimplexKey(g) for g in X.gens(1)]
    tree = set()
    for e in sorted(edges):
        if uf.union(X.vertex(e, 0), X.vertex(e, 1)):
            tree.add(e)
    comp = uf.find(basepoint)
    comp_edges = [e for e in edges if uf.find(X.vertex(e, 0)) == comp]
    idx = {e: i for i, e in enumerate(comp_edges)}
    relations = []
    for e in comp_edges:
        if e in tree:
            row = [0] * len(comp_edges)
            row[idx[e]] = 1
            relations.append(row)
    if X.top_dim >= 2:
        for g in X.gens(2):
            t = SimplexKey(g)
            if uf.find(X.vertex(t, 0)) != comp:
                continue
            row = [0] * len(comp_edges)
            for i, sign in ((0, 1), (2, 1), (1, -1)):  # d2 then d0 equals d1
                f = X.face(t, i)
                if not f.is_degenerate:
                    row[idx[f]] += sign
            relations.append(row)
    return group_from_relations(len(comp_edges), relations)


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
