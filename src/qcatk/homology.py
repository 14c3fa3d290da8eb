"""Exact integral linear algebra and low-dimensional invariants of finite
simplicial sets: Smith normal form, and pi_0, abelianized pi_1 and H_1 of
normalized chains from one spanning-forest presentation.  All arithmetic is
over Python integers."""

from __future__ import annotations

from math import gcd

from .ssets import SimplexKey, SimplicialSet, UnionFind


def _pivot(rows: list[dict[int, int]]) -> tuple[int, int]:
    """(row, column) of the first entry of absolute value 1 in row order, or
    else of the first entry of least absolute value."""
    best = None
    for i, row in enumerate(rows):
        for j, a in row.items():
            if abs(a) == 1:
                return i, j
            if best is None or abs(a) < abs(rows[best[0]][best[1]]):
                best = i, j
    return best


def smith_normal_form(A: list[list[int]]) -> list[int]:
    """The nonzero diagonal of the Smith normal form of the integer matrix A
    (a list of rows), each entry dividing the next.

    Rows are held as dicts of their nonzero entries.  Row operations clear
    the pivot's column; then column operations, which change only the
    pivot's row, reduce each of its other entries modulo the pivot.  A
    nonzero remainder is smaller than the pivot and becomes the next pivot.
    A pivot alone in its row and column is a diagonal entry, and its row is
    dropped.  Replacing each pair of diagonal entries by their gcd and lcm
    puts the diagonal in divisibility order.
    """
    rows = [r for r in ({j: a for j, a in enumerate(row) if a} for row in A) if r]
    diag = []
    while rows:
        p, j = _pivot(rows)
        while True:
            pivot, a = rows[p], rows[p][j]
            for i, row in enumerate(rows):
                if i != p and j in row:
                    q = row[j] // a
                    for k, b in pivot.items():
                        row[k] = row.get(k, 0) - q * b
                        if not row[k]:
                            del row[k]
                    if j in row:  # a remainder: the next pivot
                        p = i
                        break
            else:  # the pivot is alone in its column
                reduced = {k: b % a for k, b in pivot.items() if k != j and b % a}
                if not reduced:
                    break
                rows[p] = {j: a, **reduced}
                j = next(iter(reduced))
        diag.append(abs(a))
        rows = [row for i, row in enumerate(rows) if row and i != p]
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[k])
            diag[i], diag[k] = g, diag[i] * diag[k] // g
    return diag


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
    diag = smith_normal_form(relations)
    return AbelianGroupPresentation(num_gens - len(diag), tuple(d for d in diag if d > 1))


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
        # without the edges (bound 0) the vertices may still be connected
        if X.bound == 0:
            return {"verdict": "inconclusive",
                    "reason": f"pi0 of truncation has {len(comps)} elements", "dim": d}
        return {"verdict": "refuted", "reason": f"pi0 has {len(comps)} elements", "dim": d}
    g = h1(X)
    if g.is_trivial:
        return {"verdict": f"confirmed-to-{d}", "reason": "pi0 = *, H1 = 0", "dim": d}
    if X.bound is None:
        return {"verdict": "refuted", "reason": f"H1 = {g}", "dim": d}
    return {"verdict": "inconclusive", "reason": f"H1 of truncation = {g}", "dim": d}
