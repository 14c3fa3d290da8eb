"""JSON round trips, canonical forms, nerve-structure validation, and
schema-error pointers."""

import pytest

from qcatk import io
from qcatk import simplicial as sx
from qcatk.cats import chain_poset, cyclic_group_category, nerve
from qcatk.quasicat import ho_category
from qcatk.waldhausen import pointed_sets_waldhausen
from qcatk.zoo import pointed_sets_with_duplicate


def _idem(obj):
    once = io.canonical(obj)
    assert io.canonical(once) == once
    return once


# ---------------------------------------------------------------------------
# simplicial sets


@pytest.mark.parametrize("X", [
    sx.delta(3),
    sx.boundary(2),
    sx.spine(3),
    sx.horn(2, 1),
])
def test_sset_round_trip(X):
    doc = io.serialize_sset(X)
    Y = io.parse_sset(doc)
    assert Y.n_gens == X.n_gens
    assert io.serialize_sset(Y) == doc
    _idem(doc)


def test_nerve_round_trip_keeps_the_category_block():
    N = nerve(cyclic_group_category(3), 3)
    doc = io.serialize_sset(N)
    assert "category" in doc
    M = io.parse_sset(doc)
    assert M.category is not None
    assert M.n_gens == N.n_gens
    assert io.serialize_sset(M) == doc


def test_parsed_nerve_supports_the_functor_fast_path():
    N = nerve(cyclic_group_category(3), 3)
    M = io.parse_sset(io.serialize_sset(N))
    S = sx.spine(2)
    got = sx.enumerate_maps(S, M, budget=10**6)
    want = sx.enumerate_maps(S, N, budget=10**6)
    assert len(got) == len(want) == 9
    assert ho_category(M).cat.check() is None


def test_tampered_nerve_face_table_is_rejected():
    N = nerve(cyclic_group_category(3), 3)
    doc = io.serialize_sset(N)
    name = next(
        n for n, faces in doc["faces"].items()
        if "|" in n and faces != faces[::-1]
    )
    bad = dict(doc)
    bad["faces"] = dict(doc["faces"])
    bad["faces"][name] = list(reversed(doc["faces"][name]))
    with pytest.raises(io.SchemaError):
        io.parse_sset(bad)


def test_malformed_face_entry_reports_a_pointer():
    doc = io.serialize_sset(sx.delta(1))
    bad = dict(doc)
    bad["faces"] = dict(doc["faces"])
    key = next(iter(bad["faces"]))
    bad["faces"][key] = [["no-such-generator", []]]
    with pytest.raises(io.SchemaError) as exc:
        io.parse_sset(bad)
    assert exc.value.pointer.startswith("/faces")


@pytest.mark.parametrize("bound", [-3, True])
def test_bound_must_be_null_or_a_nonnegative_integer(bound):
    doc = dict(io.serialize_sset(sx.delta(1)), bound=bound)
    with pytest.raises(io.SchemaError) as exc:
        io.parse_sset(doc)
    assert exc.value.pointer == "/bound"


def test_generators_above_the_bound_are_rejected():
    doc = dict(io.serialize_sset(sx.delta(1)), bound=0)
    with pytest.raises(io.SchemaError) as exc:
        io.parse_sset(doc)
    assert exc.value.pointer == "/generators/1"


# ---------------------------------------------------------------------------
# categories


def test_category_round_trip():
    C = chain_poset(2)
    doc = io.serialize_category(C)
    D = io.parse_category(doc)
    assert len(D.objects) == len(C.objects)
    assert len(D.morphisms) == len(C.morphisms)
    assert io.serialize_category(D) == doc
    _idem(doc)


# ---------------------------------------------------------------------------
# Waldhausen data and exact maps


def test_waldhausen_round_trip_preserves_the_marking():
    W = pointed_sets_waldhausen(3, 2)
    doc = io.serialize_waldhausen(W)
    V = io.parse_waldhausen(doc)
    assert len(V.cof) == len(W.cof)
    assert V.universe == W.universe
    assert io.serialize_waldhausen(V) == doc
    _idem(doc)


def test_bad_cofibration_key_reports_a_pointer():
    W = pointed_sets_waldhausen(2, 2)
    doc = io.serialize_waldhausen(W)
    bad = dict(doc)
    bad["cofibrations"] = [["no-such-edge", []]] + doc["cofibrations"][1:]
    with pytest.raises(io.SchemaError) as exc:
        io.parse_waldhausen(bad)
    assert exc.value.pointer.startswith("/cofibrations/0")


def test_exact_map_round_trip():
    _, G = pointed_sets_with_duplicate(2, 2)
    doc = io.serialize_exact(G)
    H = io.parse_exact(doc)
    assert io.serialize_exact(H) == doc
    H.themap.check()
    _idem(doc)


# ---------------------------------------------------------------------------
# simplicial maps


def test_map_round_trip():
    inc = sx.delta_inclusion(sx.boundary(2), sx.delta(2), lambda v: v)
    doc = io.serialize_map(inc)
    f = io.parse_map(doc)
    f.check()
    assert io.serialize_map(f) == doc
    _idem(doc)


def test_incomplete_assignment_reports_the_assign_pointer():
    inc = sx.delta_inclusion(sx.boundary(2), sx.delta(2), lambda v: v)
    doc = io.serialize_map(inc)
    bad = dict(doc)
    bad["assign"] = dict(doc["assign"])
    bad["assign"].popitem()
    with pytest.raises(io.SchemaError) as exc:
        io.parse_map(bad)
    assert exc.value.pointer.startswith("/assign")


# ---------------------------------------------------------------------------
# kind detection and canonical form


def test_detect_kind_covers_all_formats():
    W = pointed_sets_waldhausen(2, 2)
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 0)
    _, G = pointed_sets_with_duplicate(2, 2)
    cases = {
        "sset": io.serialize_sset(sx.delta(1)),
        "category": io.serialize_category(chain_poset(1)),
        "waldhausen": io.serialize_waldhausen(W),
        "map": io.serialize_map(inc),
        "exact": io.serialize_exact(G),
    }
    for kind, doc in cases.items():
        assert io.detect_kind(doc) == kind
        _idem(doc)


def test_unrecognized_input_raises_at_the_root():
    with pytest.raises(io.SchemaError) as exc:
        io.detect_kind({"mystery": 1})
    assert exc.value.pointer == "/"
