"""Finite, dimension-bounded simplicial sets: generators, face tables and
simplex keys, maps given on generators, union-find, and the budget ledger
that searches charge.  This is what reading, checking and writing a
simplicial-set file needs, and it imports nothing else from the package;
the constructions and searches are in :mod:`qcatk.simplicial`.

A simplicial set is stored by its nondegenerate generators per dimension
together with face tables whose entries are simplices in Eilenberg-Zilber
normal form: a generator plus a strictly decreasing degeneracy word.
Degenerate simplices are never stored; they are keys computed on demand.

Every object carries an explicit dimension bound (``bound``); ``bound = None``
means the object is complete (no unknown generators in any dimension).
Operations that would need simplices above the bound raise ``BoundExceeded``
rather than silently truncating.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

Gen = tuple[int, int]  # (dimension, index within that dimension)


class BoundExceeded(Exception):
    """An operation needed simplices above the stored dimension bound."""


class BudgetExceeded(Exception):
    """A search passed the node limit of its budget ledger."""

    def __init__(self, message, attempted=None):
        super().__init__(message)
        self.attempted = attempted


DEFAULT_BUDGET = 10**6


class _Ledger:
    """Search nodes used against a limit.  A search charges a node as
    ``used += 1`` and calls ``overrun`` once ``used`` passes ``limit``."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def overrun(self):
        raise BudgetExceeded(f"search budget of {self.limit} nodes exceeded", self.used)


_LEDGER: contextvars.ContextVar[Optional[_Ledger]] = contextvars.ContextVar(
    "qcatk_budget", default=None)


@contextlib.contextmanager
def budget(limit: int = DEFAULT_BUDGET):
    """Charge every search inside the block to one ledger of ``limit``
    nodes, which the block yields.  Outside any block each search has a
    ledger of its own with ``DEFAULT_BUDGET`` nodes."""
    ledger = _Ledger(limit)
    token = _LEDGER.set(ledger)
    try:
        yield ledger
    finally:
        _LEDGER.reset(token)


class NotQuasicategory(Exception):
    """An inner horn that an operation needed filled has no filler."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SimplexKey(NamedTuple):
    """A simplex in degeneracy normal form: s_{w0} s_{w1} ... applied to a
    nondegenerate generator, with w0 > w1 > ... (outermost first)."""

    gen: Gen
    degens: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.gen[0] + len(self.degens)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degens)


def key_degeneracy(key: SimplexKey, i: int) -> SimplexKey:
    """Apply s_i to a normal-form key, renormalizing the degeneracy word.

    Uses s_i s_j = s_{j+1} s_i for i <= j, so indices >= i shift up by one.
    """
    if not 0 <= i <= key.dim:
        raise ValueError(f"degeneracy index {i} out of range for dim {key.dim}")
    word = [w + 1 for w in key.degens if w >= i] + [i] + [w for w in key.degens if w < i]
    return SimplexKey(key.gen, tuple(word))


def apply_degeneracy_word(key: SimplexKey, word: Iterable[int]) -> SimplexKey:
    """Apply a composite s_{w0} .. s_{wk} (w0 outermost) to a key."""
    for i in reversed(tuple(word)):
        key = key_degeneracy(key, i)
    return key


class SimplicialMap:
    """A simplicial map given by its values on nondegenerate generators."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 assign: dict[Gen, SimplexKey]):
        self.source, self.target, self.assign = source, target, assign

    def __call__(self, key: SimplexKey) -> SimplexKey:
        if not key.degens:
            return self.assign[key.gen]
        return apply_degeneracy_word(self.assign[key.gen], key.degens)

    def check(self) -> None:
        """Verify dimensions and faces generator by generator, in ``source.all_gens()``
        order; a failing face raises ValueError with ``witness`` (g, i, lhs, rhs)."""
        for g in self.source.all_gens():
            img = self.assign[g]
            if img.dim != g[0]:
                raise ValueError(f"map does not preserve dimension at {g}")
            for i in range(g[0] + 1) if g[0] else ():
                lhs, rhs = self(self.source.face(SimplexKey(g), i)), self.target.face(img, i)
                if lhs != rhs:
                    exc = ValueError(f"map fails d_{i} at generator {g}: {lhs} != {rhs}")
                    exc.witness = (g, i, lhs, rhs)
                    raise exc

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        assign = {g: self(k) for g, k in other.assign.items()}
        return SimplicialMap(other.source, self.target, assign)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialMap)
            and self.source is other.source
            and self.target is other.target
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), tuple(sorted(self.assign.items()))))

    @staticmethod
    def identity(X: "SimplicialSet") -> "SimplicialMap":
        assign = {g: SimplexKey(g) for n in range(X.top_dim + 1) for g in X.gens(n)}
        return SimplicialMap(X, X, assign)


class SimplicialSet:
    """Nondegenerate generators per dimension with face tables in normal form.

    Parameters
    ----------
    faces : dict mapping each generator (dim, idx) with dim >= 1 to its
        tuple of dim+1 face keys.  Generators of dimension 0 appear via
        ``n_gens`` only.
    n_gens : list of generator counts per dimension.
    labels : optional payloads attached to generators (vertex tuples for
        standard simplices, morphism strings for nerves, ...).
    bound : maximum dimension up to which the generator list is faithful;
        ``None`` means complete in all dimensions.
    """

    def __init__(self, n_gens, faces, labels=None, bound=None, category=None):
        self.n_gens = list(n_gens)
        while self.n_gens and self.n_gens[-1] == 0:
            self.n_gens.pop()
        self.faces = dict(faces)
        self.labels = dict(labels or {})
        self.bound = bound
        self.category = category  # set for nerves
        self._simplices_cache: dict[int, list[SimplexKey]] = {}
        self._boundary_index_cache: dict[int, dict[tuple, list[SimplexKey]]] = {}
        self._search_order: Optional[list[Gen]] = None

    @cached_property
    def _gen_of_label(self) -> dict:
        """Each generator by its label, built on the first lookup: a set that
        is only written out never hashes its labels."""
        return {v: g for g, v in self.labels.items()}

    # -- basic structure -------------------------------------------------

    @property
    def top_dim(self) -> int:
        return len(self.n_gens) - 1 if self.n_gens else -1

    def effective_bound(self) -> float:
        return float("inf") if self.bound is None else self.bound

    def require_bound(self, d: int, what: str = "operation") -> None:
        if d > self.effective_bound():
            raise BoundExceeded(f"{what} needs dimension {d} but bound is {self.bound}")

    def gens(self, n: int) -> list[Gen]:
        if n < 0 or n >= len(self.n_gens):
            return []
        return [(n, i) for i in range(self.n_gens[n])]

    def all_gens(self) -> list[Gen]:
        return [g for n in range(self.top_dim + 1) for g in self.gens(n)]

    def is_empty(self) -> bool:
        return not self.n_gens

    def gen_of_label(self, label) -> Gen:
        return self._gen_of_label[label]

    # -- face and degeneracy operators on keys ---------------------------

    def face(self, key: SimplexKey, i: int) -> SimplexKey:
        """d_i in normal form, via d_i s_j identities and the face tables."""
        # a generator's faces are its row of the table
        if not key.degens and key.gen[0] and 0 <= i <= key.gen[0]:
            return self.faces[key.gen][i]
        n = key.dim
        if n == 0:
            raise ValueError("0-simplices have no faces")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dim {n}")
        out: list[int] = []
        word = key.degens
        for pos, j in enumerate(word):
            if i < j:
                out.append(j - 1)
            elif i in (j, j + 1):
                return SimplexKey(key.gen, tuple(out) + word[pos + 1 :])
            else:
                out.append(j)
                i -= 1
        base = self.faces[key.gen][i]
        return apply_degeneracy_word(base, out)

    def degeneracy(self, key: SimplexKey, i: int) -> SimplexKey:
        return key_degeneracy(key, i)

    def simplices(self, n: int) -> list[SimplexKey]:
        """All n-simplices (degenerate included) in canonical order."""
        if n < 0:
            return []
        self.require_bound(n, "simplex enumeration")
        if n not in self._simplices_cache:
            out = []
            for m in range(min(n, self.top_dim) + 1):
                for g in self.gens(m):
                    for word in itertools.combinations(range(n - 1, -1, -1), n - m):
                        out.append(SimplexKey(g, word))
            out.sort()
            self._simplices_cache[n] = out
        return self._simplices_cache[n]

    def boundary_tuple(self, key: SimplexKey) -> tuple[SimplexKey, ...]:
        return tuple(self.face(key, i) for i in range(key.dim + 1))

    def boundary_index(self, n: int) -> dict[tuple, list[SimplexKey]]:
        """The n-simplices (n >= 1) grouped by boundary tuple, each group in
        ``simplices(n)`` order.

        Built on first use and kept, like ``simplices(n)``: face tables are
        complete once a constructor returns and never change afterwards.
        """
        if n not in self._boundary_index_cache:
            idx: dict[tuple, list[SimplexKey]] = {}
            for k in self.simplices(n):
                idx.setdefault(self.boundary_tuple(k), []).append(k)
            self._boundary_index_cache[n] = idx
        return self._boundary_index_cache[n]

    def search_order(self) -> list[Gen]:
        """The generators in forward-checking order: vertices in
        ``all_gens()`` order, and each generator of dimension >= 1 right
        after the last of its faces (generators placed after the same face
        keep ``all_gens()`` order), so an edge comes right after its later
        endpoint.  Built on first use and kept, like ``boundary_index``."""
        if self._search_order is None:
            rank: dict[Gen, tuple[int, ...]] = {}
            for i, g in enumerate(self.all_gens()):
                rank[g] = (i,) if g[0] == 0 else max(rank[f.gen] for f in self.faces[g]) + (i,)
            self._search_order = sorted(rank, key=rank.__getitem__)
        return self._search_order

    def subsimplex(self, key: SimplexKey, indices) -> SimplexKey:
        """The face of ``key`` spanned by the given sorted vertex indices."""
        indices = sorted(indices)
        k = key
        for idx in sorted(set(range(key.dim + 1)) - set(indices), reverse=True):
            k = self.face(k, idx)
        return k

    def vertex(self, key: SimplexKey, j: int) -> SimplexKey:
        return self.subsimplex(key, [j])

    def vertices(self, key: SimplexKey) -> tuple[SimplexKey, ...]:
        return tuple(self.vertex(key, j) for j in range(key.dim + 1))

    def spine_of(self, key: SimplexKey) -> list[SimplexKey]:
        return [self.subsimplex(key, (i - 1, i)) for i in range(1, key.dim + 1)]

    # -- validation -------------------------------------------------------

    def check(self) -> None:
        """Verify simplicial identities d_i d_j = d_{j-1} d_i on generators.

        Generators and identities are visited in dimension order, so the
        face rows below the current dimension are already checked, and a
        nondegenerate face's own faces are read from its row; ``face`` is
        needed only for degenerate faces.
        """
        for n in range(1, self.top_dim + 1):
            for g in self.gens(n):
                row = self.faces[g]
                if len(row) != n + 1:
                    raise ValueError(f"generator {g} has {len(row)} faces, wanted {n + 1}")
                for f in row:
                    if f.dim != n - 1:
                        raise ValueError(f"face of {g} has wrong dimension")
                    if f.gen not in (self.faces if f.gen[0] else {}) and f.gen[0] > 0:
                        raise ValueError(f"face of {g} refers to unknown generator {f.gen}")
                    if f.gen[1] >= self.n_gens[f.gen[0]]:
                        raise ValueError(f"face of {g} refers to unknown generator {f.gen}")
                if n >= 2:
                    for j in range(n + 1):
                        for i in range(j):
                            a, b = row[j], row[i]
                            lhs = self.face(a, i) if a.degens else self.faces[a.gen][i]
                            rhs = self.face(b, j - 1) if b.degens else self.faces[b.gen][j - 1]
                            if lhs != rhs:
                                raise ValueError(f"d_{i} d_{j} fails at generator {g}")


# -- disjoint sets ---------------------------------------------------------


class UnionFind:
    """Disjoint sets over hashable, mutually comparable elements; each root
    is the minimal element of its set."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the sets of x and y; return whether they were apart."""
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)
            return True
        return False
