"""JSON round trips, canonical forms, nerve-structure validation, and
schema-error pointers."""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import cats, fincat, io
from qcatk import families as fm
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk.cats import cyclic_group_category, nerve, pointed_sets_category
from qcatk.quasicat import ho_category
from qcatk.ssets import SimplexKey
from qcatk.waldhausen import cof_subquasicategory, pointed_sets_waldhausen
from qcatk.zoo import idempotent_monoid_category, pointed_sets_with_duplicate, random_category
from testlib import chain_poset, string_route_nerve


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


def test_writing_a_nerve_builds_no_label_index():
    N = nerve(pointed_sets_category(2), 2)
    io.serialize_sset(N)
    assert "_gen_of_label" not in vars(N)
    N.gen_of_label(1)
    assert "_gen_of_label" in vars(N)


def test_nerve_round_trip_keeps_the_category_block():
    N = nerve(cyclic_group_category(3), 3)
    doc = io.serialize_sset(N)
    assert "category" in doc
    M = io.parse_sset(doc)
    assert M.category is not None
    assert M.n_gens == N.n_gens
    assert io.serialize_sset(M) == doc


@pytest.mark.parametrize("make", [
    lambda: fm.join(nerve(chain_poset(1), 2), nerve(cyclic_group_category(2), 2), 2).sset,
    lambda: sx.product(nerve(chain_poset(1), 2), nerve(cyclic_group_category(2), 2), 2).sset,
    lambda: sx.one_full_subcomplex(pointed_sets_waldhausen(2, 2).underlying,
                                   pointed_sets_waldhausen(2, 2).is_cof, 2)[0],
])
def test_sets_built_from_nerves_round_trip_without_a_category_block(make):
    # their generators are not composable strings, so a category block
    # would not describe them
    X = make()
    doc = io.serialize_sset(X)
    assert "category" not in doc
    Y = io.parse_sset(doc)
    assert Y.n_gens == X.n_gens
    assert io.serialize_sset(Y) == doc


def test_the_cofibration_subnerve_round_trips_with_its_category_block():
    # its marking is closed under composition, so it is built as a nerve
    X = cof_subquasicategory(pointed_sets_waldhausen(2, 2), 2)[0]
    doc = io.serialize_sset(X)
    assert "category" in doc
    assert io.serialize_sset(io.parse_sset(doc)) == doc


def test_parsed_nerve_supports_the_functor_fast_path():
    N = nerve(cyclic_group_category(3), 3)
    M = io.parse_sset(io.serialize_sset(N))
    S = sx.spine(2)
    got = sx.enumerate_maps(S, M)
    want = sx.enumerate_maps(S, N)
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


# ---------------------------------------------------------------------------
# nerve files: the checks against the category block


def naive_validate_nerve_structure(X, C, pointer):
    """Oracle for ``fincat.check_nerve_structure``: build the nerve of C by the
    string route and compare generator counts and face tables through the
    labels."""
    N = string_route_nerve(C, X.top_dim if X.bound is None else X.bound)
    if N.n_gens != X.n_gens:
        raise io.SchemaError("generator counts differ from the nerve of the category", pointer)

    def transfer(k):
        try:
            g = N.gen_of_label(X.labels[k.gen])
        except KeyError:
            raise io.SchemaError(
                f"generator {X.labels[k.gen]!r} is not a simplex of the nerve", pointer)
        return SimplexKey(g, k.degens)

    for g in X.all_gens():
        if g[0] == 0:
            continue
        got = tuple(transfer(k) for k in X.faces[g])
        if got != N.faces[transfer(SimplexKey(g)).gen]:
            raise io.SchemaError(
                f"faces of {X.labels[g]!r} disagree with the nerve of the category",
                f"{pointer}/faces")


def naive_sset_check(X):
    """Oracle for ``SimplicialSet.check``: every face through ``X.face``."""
    for n in range(1, X.top_dim + 1):
        for g in X.gens(n):
            row = X.faces[g]
            if len(row) != n + 1:
                raise ValueError(f"generator {g} has {len(row)} faces, wanted {n + 1}")
            for f in row:
                if f.dim != n - 1:
                    raise ValueError(f"face of {g} has wrong dimension")
                if f.gen not in (X.faces if f.gen[0] else {}) and f.gen[0] > 0:
                    raise ValueError(f"face of {g} refers to unknown generator {f.gen}")
                if f.gen[1] >= X.n_gens[f.gen[0]]:
                    raise ValueError(f"face of {g} refers to unknown generator {f.gen}")
            if n >= 2:
                k = SimplexKey(g)
                for j in range(n + 1):
                    for i in range(j):
                        if X.face(X.face(k, j), i) != X.face(X.face(k, i), j - 1):
                            raise ValueError(f"d_{i} d_{j} fails at generator {g}")


def _outcome(doc):
    try:
        X = io.parse_sset(doc)
    except io.SchemaError as exc:
        return "rejected", str(exc), exc.pointer, repr(exc.__cause__)
    except Exception as exc:  # a crash must at least be the same crash
        return "crashed", repr(exc)
    return "accepted", io.serialize_sset(X)


def _rename(doc, old, new):
    """The document with generator ``old`` renamed to ``new`` everywhere."""
    def rn(name):
        return new if name == old else name

    return dict(
        doc,
        generators=[[rn(n) for n in layer] for layer in doc["generators"]],
        faces={rn(n): [[rn(k[0]), k[1]] for k in row] for n, row in doc["faces"].items()},
    )


def _corrupt(doc, rng):
    """One fault: a face entry, a renamed or swapped generator, or a dropped
    or added generator.  New names are strings of the category's morphisms,
    identities included, so they may be non-composable or degenerate."""
    higher = [(n, name) for n, layer in enumerate(doc["generators"]) if n
              for name in layer if name in doc["faces"]]
    if not higher:
        return doc
    n, name = rng.choice(higher)
    morphisms = sorted(m for row in doc["category"]["homs"].values()
                       for ms in row.values() for m in ms)
    nonid = sorted(set(morphisms) - set(doc["category"]["ids"].values()))
    new = "|".join(rng.choice(morphisms if rng.random() < 0.2 else nonid)
                   for _ in range(n))
    kind = rng.choice(["face", "rename", "swap", "drop", "add"])
    if kind == "face":
        pool = [k for m, other in higher if m == n for k in doc["faces"][other]]
        row = doc["faces"][name]
        row[rng.randrange(len(row))] = list(rng.choice(pool))
    elif kind == "rename":
        doc = _rename(doc, name, new)
    elif kind == "swap":
        other = rng.choice(doc["generators"][n])
        doc = _rename(_rename(_rename(doc, name, "\0"), other, name), "\0", other)
    elif kind == "drop":
        doc["generators"][n].remove(name)
        del doc["faces"][name]
    else:
        doc["generators"][n].append(new)
        doc["faces"][new] = [list(k) for k in doc["faces"][name]]
    return doc


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_nerve_file_checks_agree_with_the_rebuilding_oracles(seed, faults):
    rng = random.Random(seed)
    C = random_category(rng, 3)
    if rng.random() < 0.3:
        C = C.opposite()
    if rng.random() < 0.3:
        C = C.product(random_category(rng, 2))
    bound = rng.choice([1, 2, 3] if len(C.morphisms) <= 20 else [1, 2])
    doc = json.loads(json.dumps(io.serialize_sset(nerve(C, bound))))
    for _ in range(faults):
        doc = _corrupt(doc, rng)
    got = _outcome(json.loads(json.dumps(doc)))
    with mock.patch.object(fincat, "check_nerve_structure", naive_validate_nerve_structure), \
            mock.patch.object(ss.SimplicialSet, "check", naive_sset_check), \
            mock.patch.object(fincat, "nerve_from_document", _generic_route):
        want = _outcome(doc)
    assert got == want


def _generic_route(*args):
    """A stand-in for ``fincat.nerve_from_document`` that always declines, so
    that ``io.parse_sset`` takes the generic route."""
    return None


_ROUTE_CATEGORIES = [chain_poset(2), cyclic_group_category(3), idempotent_monoid_category(),
                     pointed_sets_category(2), chain_poset(1).product(cyclic_group_category(2))]


def _corrupt_once(doc, rng):
    """One fault of a kind the category route must hand to the generic
    route: a face name swapped, a degeneracy written 1.0, true or -1, a
    faces entry dropped or added, faces on a vertex, a changed bound, or a
    broken category block.  Some faults leave an equivalent document."""
    higher = [name for layer in doc["generators"][1:] for name in layer]
    names = [name for layer in doc["generators"] for name in layer]
    kind = rng.choice(["swap", "degeneracy", "drop", "add", "vertex", "bound", "category"])
    if kind == "swap" and higher:
        row = doc["faces"][rng.choice(higher)]
        k = rng.randrange(len(row))
        row[k] = [rng.choice(names), row[k][1]]
    elif kind == "degeneracy" and higher:
        row = doc["faces"][rng.choice(higher)]
        entries = [e for e in row if e[1]] or row
        entry = rng.choice(entries)
        d = entry[1][0] if entry[1] else 1
        entry[1] = [rng.choice([float(d), bool(d), -1, 1.0, True])]
    elif kind == "drop" and higher:
        del doc["faces"][rng.choice(higher)]
    elif kind == "add":
        doc["faces"][rng.choice(["zz", rng.choice(names)])] = rng.choice([[], [["zz", []]]])
    elif kind == "vertex":
        doc["faces"][rng.choice(doc["generators"][0])] = rng.choice([[], [[names[0], []]]])
    elif kind == "bound":
        doc["bound"] = rng.choice([None, -1, 0, 1, 2, 3, 4, True, 2.0, "2"])
    elif kind == "category":
        block = doc["category"]
        fault = rng.choice(["compose", "ids", "objects", "homs", "missing"])
        if fault == "compose" and block["compose"]:
            g = rng.choice(sorted(block["compose"]))
            f = rng.choice(sorted(block["compose"][g]))
            block["compose"][g][f] = rng.choice(sorted(block["compose"]))
        elif fault == "ids":
            o = rng.choice(sorted(block["ids"]))
            block["ids"][o] = rng.choice(sorted(block["compose"]) or ["zz"])
        elif fault == "objects":
            block["objects"] = block["objects"][1:]
        elif fault == "homs":
            block["homs"] = {}
        else:
            del block["ids"]
    return doc


def _parsed(doc):
    """What ``io.parse_sset`` makes of a document: its rejection, or the
    parsed set's counts, faces, labels, bound and category, in order."""
    try:
        X = io.parse_sset(doc)
    except io.SchemaError as exc:
        return "rejected", str(exc), exc.pointer
    return ("accepted", X.n_gens, list(X.faces.items()), list(X.labels.items()), X.bound,
            fincat.serialize_category(X.category))


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_the_category_route_gives_the_generic_parse(seed, corrupt):
    rng = random.Random(seed)
    C = rng.choice(_ROUTE_CATEGORIES + [random_category(rng, 3)] * 3)
    doc = json.loads(json.dumps(io.serialize_sset(nerve(C, rng.choice([1, 2, 3])))))
    if corrupt:
        doc = _corrupt_once(doc, rng)
    accepted = []
    route = fincat.nerve_from_document

    def spy(*args):
        X = route(*args)
        if X is not None:
            accepted.append(X)
        return X

    with mock.patch.object(fincat, "nerve_from_document", spy):
        got = _parsed(json.loads(json.dumps(doc)))
    with mock.patch.object(fincat, "nerve_from_document", _generic_route):
        want = _parsed(doc)
    assert got == want
    # the route takes every file it wrote; it may decline one that the
    # generic route accepts (a degeneracy written true or false)
    assert accepted or corrupt
    for X in accepted:
        X.check()


def test_the_category_route_takes_only_exact_integer_degeneracies():
    # in N(Z/2) the string 1|1 has the degenerate face s_0 of the vertex
    doc = json.loads(json.dumps(io.serialize_sset(nerve(cyclic_group_category(2), 2))))
    assert doc["faces"]["1|1"][1] == ["*", [0]]
    names = {(0, 0): "*", (1, 0): "1", (2, 0): "1|1"}
    assert fincat.nerve_from_document(doc, [1, 1, 1], names, "") is not None
    for value in (0.0, False):
        bad = json.loads(json.dumps(doc))
        bad["faces"]["1|1"][1] = ["*", [value]]
        assert bad == doc
        assert fincat.nerve_from_document(bad, [1, 1, 1], names, "") is None
        # so the generic route decides: it rejects both
        assert _rejection(bad) == ("/faces/1|1/1/1",
                                   "degeneracies must be nonnegative integers")


_CHECKED = [sx.delta(3), sx.horn(3, 1), sx.product(sx.delta(1), sx.delta(1), 2).sset,
            sx.product(sx.delta(2), sx.delta(1), 3).sset, nerve(cyclic_group_category(2), 4),
            nerve(cyclic_group_category(3), 3)]


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_sset_check_agrees_with_the_face_oracle(seed, faults):
    rng = random.Random(seed)
    X = rng.choice(_CHECKED)
    faces = dict(X.faces)
    for _ in range(faults):
        g = rng.choice([g for g in X.all_gens() if g[0]])
        row = list(faces[g])
        row[rng.randrange(len(row))] = rng.choice(X.simplices(g[0] - 1))
        faces[g] = tuple(row)
    Y = ss.SimplicialSet(X.n_gens, faces, bound=X.bound)

    def failure(check):
        try:
            check(Y)
        except ValueError as exc:
            return str(exc)

    assert failure(ss.SimplicialSet.check) == failure(naive_sset_check)


def _z3_doc():
    """N(Z/3) to dimension 2: vertex '*', edges '1', '2' (identity '0'),
    2-simplices '1|1', '1|2', '2|1', '2|2'."""
    return json.loads(json.dumps(io.serialize_sset(nerve(cyclic_group_category(3), 2))))


def _rejection(doc):
    with pytest.raises(io.SchemaError) as exc:
        io.parse_sset(doc)
    return exc.value.pointer, exc.value.message


def test_nerve_file_with_a_generator_too_few_is_rejected():
    doc = _z3_doc()
    doc["generators"][2].remove("2|2")
    del doc["faces"]["2|2"]
    assert _rejection(doc) == ("/", "generator counts differ from the nerve of the category")


def test_nerve_file_with_a_non_composable_string_is_rejected():
    doc = json.loads(json.dumps(io.serialize_sset(nerve(chain_poset(2), 2))))
    assert doc["generators"][2] == ["(0, 1)|(1, 2)"]
    doc = _rename(doc, "(0, 1)|(1, 2)", "(1, 2)|(0, 1)")
    assert _rejection(doc) == (
        "/", f"generator {('(1, 2)', '(0, 1)')!r} is not a simplex of the nerve")


def _z3_arrow_doc(bound):
    """N(Z/3 x [1]) to the bound: the object (*, 0) carries the loops
    '(1, (0, 0))' and '(2, (0, 0))', and (*, 1) the loop '(1, (1, 1))'."""
    C = cyclic_group_category(3).product(chain_poset(1))
    return json.loads(json.dumps(io.serialize_sset(nerve(C, bound))))


@pytest.mark.parametrize("bound, earlier_row_wrong, pointer, message", [
    (3, False, "/",
     f"generator {('(1, (1, 1))', '(1, (0, 0))')!r} is not a simplex of the nerve"),
    (2, True, "/faces",
     f"faces of {('(1, (0, 0))', '(1, (0, 0))')!r} disagree with the nerve of the category"),
])
def test_nerve_file_with_right_counts_and_a_non_composable_string(
        bound, earlier_row_wrong, pointer, message):
    # a loop at (*, 1), then one at (*, 0), in place of a string of the
    # nerve: every count is right and the simplicial identities hold
    doc = _rename(_z3_arrow_doc(bound), "(2, (1, 1))|(2, (1, 1))", "(1, (1, 1))|(1, (0, 0))")
    if earlier_row_wrong:
        # a loop at (*, 0) for another: the identities still hold, and the
        # string sorts before the non-composable one
        doc["faces"]["(1, (0, 0))|(1, (0, 0))"][1] = ["(1, (0, 0))", []]
    assert _rejection(doc) == (pointer, message)


def test_nerve_file_with_a_wrong_composite_face_is_rejected():
    doc = _z3_doc()
    assert doc["faces"]["1|1"] == [["1", []], ["2", []], ["1", []]]
    doc["faces"]["1|1"][1] = ["1", []]  # simplicial identities still hold
    assert _rejection(doc) == (
        "/faces", f"faces of {('1', '1')!r} disagree with the nerve of the category")


def test_nerve_file_with_a_vertex_that_is_no_object_is_rejected():
    doc = _rename(_z3_doc(), "*", "o")
    assert _rejection(doc) == ("/generators/0", "vertex 'o' is not an object of the category")


def test_nerve_file_bound_above_its_top_dimension_is_kept():
    # N([1]) is complete at dimension 1, so no 2- or 3-strings are missing
    doc = dict(io.serialize_sset(nerve(chain_poset(1), 1)), bound=3)
    X = io.parse_sset(doc)
    assert (X.n_gens, X.bound) == ([2, 1], 3)
    assert io.serialize_sset(X) == doc


def test_nerve_file_with_an_identity_in_a_string_is_rejected():
    doc = _rename(_z3_doc(), "1", "0")
    assert _rejection(doc) == ("/generators/1", "nondegenerate string '0' contains an identity")


def test_parsing_a_nerve_file_never_builds_the_nerve(monkeypatch):
    N = nerve(pointed_sets_category(2).product(chain_poset(1)), 3)
    doc = io.serialize_sset(N)

    def refuse(*args, **kwargs):
        raise AssertionError("the nerve was built while parsing")

    monkeypatch.setattr(cats, "nerve", refuse)
    monkeypatch.setattr(io, "nerve", refuse, raising=False)
    assert io.serialize_sset(io.parse_sset(doc)) == doc


def test_face_keys_validated_once_still_reject_look_alikes():
    # a loop e at a, and 2-simplices t, u with faces e, s_0 a, e; each
    # look-alike in u follows a valid key of t that it equals or resembles
    row = [["e", []], ["a", [0]], ["e", []]]
    doc = {"bound": None, "generators": [["a"], ["e"], ["t", "u"]],
           "faces": {"e": [["a", []], ["a", []]], "t": row, "u": row}}
    io.parse_sset(doc)
    for i, bad, pointer, message in [
        (1, ["a", [0.0]], "/faces/u/1/1", "degeneracies must be nonnegative integers"),
        (2, ["e", [], 0], "/faces/u/2", "key must be [name, [degens]]"),
        (2, ["a", []], "/faces/u/2", "key has dimension 0, expected 1"),
    ]:
        worse = json.loads(json.dumps(doc))
        worse["faces"]["u"][i] = bad
        assert _rejection(worse) == (pointer, message)


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
    doc = fincat.serialize_category(C)
    D = fincat.parse_category(doc)
    assert len(D.objects) == len(C.objects)
    assert len(D.morphisms) == len(C.morphisms)
    assert fincat.serialize_category(D) == doc
    _idem(doc)


def test_identity_composites_may_be_left_out_of_a_category_file():
    full = json.loads(io.dumps(fincat.serialize_category(pointed_sets_category(2))))
    ids = set(full["ids"].values())
    sparse = dict(full, compose={
        g: {f: h for f, h in row.items() if f not in ids}
        for g, row in full["compose"].items() if g not in ids})
    assert sum(map(len, sparse["compose"].values())) < sum(map(len, full["compose"].values()))
    assert io.canonical(sparse) == io.canonical(full) == full
    assert io.dumps(io.canonical(sparse)) == io.dumps(full)


def test_a_morphism_named_in_two_hom_sets_is_rejected():
    doc = fincat.serialize_category(chain_poset(1))
    doc["homs"]["0"]["0"].append("(0, 1)")
    with pytest.raises(io.SchemaError) as exc:
        fincat.parse_category(doc)
    assert exc.value.message == "morphism '(0, 1)' repeated"


def test_a_composite_of_a_pair_that_does_not_compose_is_rejected():
    doc = fincat.serialize_category(chain_poset(2))
    doc["compose"]["(0, 1)"]["(1, 2)"] = "(1, 2)"
    with pytest.raises(io.SchemaError) as exc:
        fincat.parse_category(doc)
    assert exc.value.pointer == "/compose/(0, 1)/(1, 2)"


def test_a_missing_composite_of_two_non_identities_names_the_pair():
    doc = fincat.serialize_category(chain_poset(2))
    del doc["compose"]["(1, 2)"]["(0, 1)"]
    with pytest.raises(io.SchemaError) as exc:
        fincat.parse_category(doc)
    assert exc.value.message == "category laws fail: ('(1, 2)', '(0, 1)')"


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


def test_a_map_failing_at_two_generators_is_rejected_at_the_first_in_generator_order():
    """The file lists the assignment in reverse; the error names the first
    failing generator of ``source.all_gens()``, as the map's own check does."""
    D = sx.delta(2)
    assign = {g: SimplexKey(g) for g in reversed(D.all_gens())}
    assign[(0, 2)] = SimplexKey((0, 0))  # edges 1.1 and 1.2 now fail d_0
    f = ss.SimplicialMap(D, D, assign)
    with pytest.raises(ValueError) as exc:
        f.check()
    assert exc.value.witness == ((1, 1), 0, SimplexKey((0, 0)), SimplexKey((0, 2)))
    doc = json.loads(json.dumps(io.serialize_map(f)))
    assert list(doc["assign"])[:3] == ["2.0", "1.2", "1.1"]
    with pytest.raises(io.SchemaError) as exc:
        io.parse_map(doc)
    assert exc.value.pointer == "/assign/1.1"
    assert str(exc.value).startswith("not a simplicial map: map fails d_0 at generator 1.1: "
                                     "0.0 != 0.2")


# ---------------------------------------------------------------------------
# kind detection and canonical form


def test_detect_kind_covers_all_formats():
    W = pointed_sets_waldhausen(2, 2)
    inc = sx.delta_inclusion(sx.delta(0), sx.delta(1), lambda _: 0)
    _, G = pointed_sets_with_duplicate(2, 2)
    cases = {
        "sset": io.serialize_sset(sx.delta(1)),
        "category": fincat.serialize_category(chain_poset(1)),
        "waldhausen": io.serialize_waldhausen(W),
        "map": io.serialize_map(inc),
        "exact": io.serialize_exact(G),
    }
    for kind, doc in cases.items():
        assert io.detect_kind(doc) == kind
        _idem(doc)


_JSON_LEAVES = (
    st.text(st.characters(blacklist_categories=("Cs",)))  # controls, quotes, non-ASCII
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é\u2028☃😀"])
    | st.integers() | st.integers(min_value=-10**40, max_value=10**40)
    | st.booleans() | st.none()
    | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_dumps_writes_the_text_of_json_dumps(value):
    want = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert io.dumps(value) == want
    assert io.dumps([value, {}, [[]], {"k": [value, ()]}]) == json.dumps(
        [value, {}, [[]], {"k": [value, ()]}], sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_dumps_writes_a_report_with_floats_as_json_does():
    report = {"command": "lift", "dim": 2, "filled_frac": 0.25, "ratio": float("nan"),
              "sset": {"bound": None, "gens": [1, 2]}, "verdict": "pass", "witness": None}
    assert io.dumps(report) == json.dumps(report, sort_keys=True, indent=2,
                                          ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}], {"a": 1, 2: "b"}])
def test_dumps_takes_only_string_keys(value):
    with pytest.raises(TypeError):
        io.dumps(value)


def test_dumps_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        io.dumps({"a": {1, 2}})


def test_unrecognized_input_raises_at_the_root():
    with pytest.raises(io.SchemaError) as exc:
        io.detect_kind({"mystery": 1})
    assert exc.value.pointer == "/"
