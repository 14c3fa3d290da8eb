"""The fixed catalogue of benchmark instances and the commands run on them.

Every input file is built from the library (``zoo``/``cats``/``waldhausen``
constructors, then ``io.serialize_*``).  A workload is a list of slots; each
slot is a list of interchangeable variants of about the same cost, such as
a category and its opposite.  A variant is a tuple of entries drawn together,
such as every command on one category, so that each draw builds the same
input files.  The run seed picks one variant per slot and the order of the
entries in every pass, so the program only ever sees generated files and a
seed always yields the same files.

Each entry carries its expected outcome: the exit code, a verdict predicate
on fields known without running the program, and a report key under which
``expected.json`` stores the sha256 of the report recorded at the seed
commit.  The ``lift-nerve`` and ``lift-plain`` workloads share report keys,
so the functor search and the generic search must produce byte-identical
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from qcatk import io, zoo
from qcatk.cats import (
    FinFunctor,
    cyclic_group_category,
    full_subcategory,
    nerve,
    nerve_functor_map,
    pointed_sets_category,
)
from qcatk.simplicial import SimplicialMap
from qcatk.waldhausen import pointed_sets_waldhausen

# ---------------------------------------------------------------------------
# categories and instances


def _zoo_category(seed: int, max_objects: int):
    return zoo.random_category(random.Random(seed), max_objects)


# name -> zero-argument constructor of a FinCategory
CATEGORIES: dict[str, Callable] = {
    "ps2xps3": lambda: pointed_sets_category(2).product(pointed_sets_category(3)),
    "z3xps3": lambda: cyclic_group_category(3).product(pointed_sets_category(3)),
    "zoo5-14": lambda: _zoo_category(14, 5),
    "zoo5-19": lambda: _zoo_category(19, 5),
    "zoo4-0": lambda: _zoo_category(0, 4),
}


def category(name: str):
    """Category by catalogue name; a trailing ``-op`` takes the opposite."""
    if name.endswith("-op"):
        return CATEGORIES[name[:-3]]().opposite()
    return CATEGORIES[name]()


def _strip_category(doc):
    """Drop every ``category`` block, so searches take the generic path."""
    if isinstance(doc, dict):
        return {k: _strip_category(v) for k, v in doc.items() if k != "category"}
    return doc


def _nerve_doc(cat_name: str, bound: int):
    return io.serialize_sset(nerve(category(cat_name), bound))


def _identity_doc(cat_name: str, bound: int):
    return io.serialize_map(SimplicialMap.identity(nerve(category(cat_name), bound)))


def _inclusion_doc(cat_name: str, drop: int, bound: int):
    """Inclusion of the full subcategory without the ``drop``-th object."""
    C = category(cat_name)
    S = full_subcategory(C, [o for i, o in enumerate(C.objects) if i != drop])
    F = FinFunctor(S, C, {o: o for o in S.objects}, {m: m for m in S.morphisms})
    return io.serialize_map(nerve_functor_map(F, nerve(S, bound), nerve(C, bound)))


def _build_instance(name: str):
    """JSON document of a catalogue instance, by file stem."""
    kind, _, rest = name.partition(":")
    if kind == "nerve2":
        return _nerve_doc(rest, 2)
    if kind == "nerve3":
        return _nerve_doc(rest, 3)
    if kind == "id3":
        return _identity_doc(rest, 3)
    if kind == "incl3":
        cat_name, _, drop = rest.rpartition("/")
        return _inclusion_doc(cat_name, int(drop), 3)
    if kind == "wps":
        return io.serialize_waldhausen(pointed_sets_waldhausen(int(rest), 2))
    size, d = (int(x) for x in rest.split("/"))
    W, G = zoo.pointed_sets_with_duplicate(size, d)
    if kind == "dupexact":
        return io.serialize_exact(G)
    if kind == "dupwald":
        return io.serialize_waldhausen(W)
    if kind == "dupmap":
        return io.serialize_map(G.themap)
    raise KeyError(f"unknown instance {name!r}")


def instance_doc(name: str, plain: bool = False):
    doc = _build_instance(name)
    return _strip_category(doc) if plain else doc


def file_stem(name: str) -> str:
    return name.replace(":", "_").replace("/", "_")


# ---------------------------------------------------------------------------
# expected verdicts, from facts known without running the program


def _count_homs(cat_doc) -> int:
    return sum(len(ms) for row in cat_doc["homs"].values() for ms in row.values())


def _ho_recovers(cat_name):
    C = category(cat_name)

    def ok(rep):
        cat = rep["category"]
        return (len(cat["objects"]) == len(C.objects)
                and _count_homs(cat) == len(C.morphisms))
    return ok


def _tau1_counts(cat_name):
    C = category(cat_name)
    nonid = [m for m in C.morphisms if m not in C.id_set]
    pairs = sum(1 for f in nonid for g in nonid if C.src[g] == C.tgt[f])

    def ok(rep):
        p = rep["presentation"]
        return (len(p["objects"]) == len(C.objects)
                and len(p["generators"]) == len(nonid)
                and len(p["relations"]) == pairs)
    return ok


def _valid(rep):
    return rep["valid"] is True


def _k0_is_z(rep):
    return rep["invariant_factors"] == [0] and rep["routes_agree"] is True


def _approx_passes(rep):
    return rep["conclusion"]["pass"] is True


def _iterate_consistent(rep):
    return (rep["consistent_with_statement"] is True
            and rep["consistent_with_cof_statement"] is True)


def _level(n):
    return lambda rep: rep["n"] == n


def _lift_passes(kind):
    return lambda rep: (rep["verdict"] == "pass" and rep["kind"] == kind
                        and rep["nbar"] == [1])


@dataclass(frozen=True)
class Entry:
    """One command of the catalogue: ``qcatk <args[0]> FILE <args[1:]>``."""

    instance: str
    args: tuple
    verdict: Callable[[dict], bool]
    exit_code: int = 0

    @property
    def key(self) -> str:
        """Report key in ``expected.json``; the same for nerve and plain inputs."""
        return " ".join((self.args[0], self.instance) + self.args[1:])

    def argv(self, path: str) -> list[str]:
        return [self.args[0], path, *self.args[1:]]


def _slot(*entries):
    """A slot whose variants are single entries."""
    return [(e,) for e in entries]


def _ho_slot(*variants):
    """``ho``, ``validate`` and ``tau1`` on one category, drawn together."""
    return [(Entry("nerve2:" + c, ("ho",), _ho_recovers(c)),
             Entry("nerve2:" + c, ("validate",), _valid),
             Entry("nerve2:" + c, ("tau1",), _tau1_counts(c))) for c in variants]


def _lift_slots():
    prism = ("lift", "--shape", "prism", "--nbar", "1")
    strong = ("lift", "--shape", "strong-replacement", "--nbar", "1")
    ok_prism, ok_strong = _lift_passes("prism"), _lift_passes("strong-replacement")
    # no opposites: on one search path or the other, the lift on an opposite
    # category took 3-50% more or less time, which moved the median command
    # of a run with the seed; the seed orders the commands
    return [
        _slot(Entry("id3:" + c, prism, ok_prism)) for c in ("zoo5-14", "zoo5-19")
    ] + [
        _slot(Entry("nerve3:" + c, strong, ok_strong)) for c in ("zoo5-14", "zoo5-19", "zoo4-0")
    ] + [
        _slot(Entry("incl3:zoo5-14/0", prism, ok_prism)),
        _slot(Entry("dupmap:2/3", prism, ok_prism)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: list
    plain: bool = False  # strip category blocks from every input


WORKLOADS = {
    "ho-check": Workload("ho-check", [
        _ho_slot("ps2xps3", "ps2xps3-op"),
        # one variant, so which command sits at the median of a pass does not
        # depend on the draw
        _ho_slot("z3xps3"),
        _slot(Entry("dupexact:2/2", ("iterate", "--n", "2"), _iterate_consistent)),
        _slot(Entry("dupexact:2/2", ("iterate", "--n", "1"), _iterate_consistent)),
    ]),
    # an odd number of entries, so that the median command of a run is one
    # entry's time, not the mean of two
    "k0-levels": Workload("k0-levels", [
        _slot(Entry("wps:3", ("k0",), _k0_is_z)),
        _slot(Entry("dupwald:2/3", ("k0",), _k0_is_z)),
        _slot(Entry("dupwald:2/2", ("sconstruct", "--n", "2"), _level(2))),
        _slot(Entry("dupexact:2/2", ("approx",), _approx_passes)),
        _slot(Entry("dupexact:2/3", ("approx",), _approx_passes)),
    ]),
    "lift-nerve": Workload("lift-nerve", _lift_slots()),
    "lift-plain": Workload("lift-plain", _lift_slots(), plain=True),
}


def all_entries(workload: Workload) -> list:
    """Every entry of every variant."""
    return [e for slot in workload.slots for variant in slot for e in variant]


def draw(workload: Workload, seed: int):
    """The seed's choice of one variant per slot, and an endless sequence of
    passes, each a seed-shuffled order of the chosen entries."""
    rng = random.Random(seed)
    chosen = [e for slot in workload.slots for e in rng.choice(slot)]

    def passes():
        while True:
            order = list(chosen)
            rng.shuffle(order)
            yield order

    return chosen, passes()
