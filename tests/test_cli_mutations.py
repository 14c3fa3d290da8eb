"""Every subcommand on mutated input documents of every kind: the exit code
is 0, 1 or 2, and the command writes exactly one JSON object, a report on
stdout or an error on stderr, never a traceback."""

import contextlib
import copy
import io as stdio
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatk import fincat
from qcatk import io
from qcatk import simplicial as sx
from qcatk.cats import cyclic_group_category, nerve
from qcatk.cli import main
from qcatk.waldhausen import pointed_sets_waldhausen
from qcatk.zoo import pointed_sets_with_duplicate
from testlib import chain_poset, cyclic_nerve_waldhausen, identity_exact, non_associative_set


def _without_category(doc):
    """The document with every ``category`` block dropped."""
    if isinstance(doc, dict):
        return {k: _without_category(v) for k, v in doc.items() if k != "category"}
    if isinstance(doc, list):
        return [_without_category(v) for v in doc]
    return doc


DOCUMENTS = {
    "simplex": io.serialize_sset(sx.delta(2)),
    "nerve": io.serialize_sset(nerve(cyclic_group_category(2), 3)),
    "category": fincat.serialize_category(chain_poset(1)),
    "map": io.serialize_map(sx.delta_inclusion(sx.boundary(1), sx.delta(1), lambda v: v)),
    "waldhausen": io.serialize_waldhausen(pointed_sets_waldhausen(2, 2)),
    "exact": io.serialize_exact(pointed_sets_with_duplicate(2, 2)[1]),
    "waldhausen-z2": io.serialize_waldhausen(cyclic_nerve_waldhausen(True)),
    "exact-z2": io.serialize_exact(identity_exact(cyclic_nerve_waldhausen(True))),
    "non-associative": io.serialize_sset(non_associative_set()[0]),
}
# plain trees: a serialized document shares one list per face key, and a
# mutation must reach one site alone
DOCUMENTS = {kind: json.loads(io.dumps(doc)) for kind, doc in DOCUMENTS.items()}
for _kind in ("nerve", "waldhausen", "exact"):
    DOCUMENTS[_kind + "-plain"] = _without_category(DOCUMENTS[_kind])

# "{}" is the input file and "{v}" the name of a vertex of the unmutated input
COMMANDS = [
    ["validate", "{}"], ["nerve", "{}"], ["tau1", "{}"], ["ho", "{}"], ["join", "{}", "{}"],
    ["join", "{}", "{}", "{}", "--check-assoc"], ["slice", "{}"],
    ["overcat", "{}", "--vertex", "{v}"], ["comma", "{}", "--vertex", "{v}"],
    ["contractible", "{}"], ["waldhausen-check", "{}"], ["sconstruct", "{}", "--n", "1"],
    ["k0", "{}"], ["approx", "{}"], ["lift", "{}", "--shape", "prism", "--nbar", "1"],
    ["lift", "{}", "--shape", "strong-replacement"], ["iterate", "{}", "--n", "1"],
]
BUDGET = "2000"


def _first_vertex(doc):
    for part in (doc, doc.get("target", {}), doc.get("sset", {})):
        if isinstance(part, dict) and part.get("generators"):
            return part["generators"][0][0]
    return "0"


def _sites(doc):
    """Every (container, key) place of a document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        yield doc, key
        yield from _sites(value)


def _retyped(value):
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, str):
        return len(value)
    if value is None:
        return 0
    return str(value)


def _renamed(doc, old):
    """The document with the string ``old`` renamed wherever it occurs, as
    a key or as a value."""
    if isinstance(doc, dict):
        return {_renamed(k, old): _renamed(v, old) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old) for v in doc]
    return old + "'" if doc == old else doc


def _waldhausen_parts(doc):
    """The Waldhausen data of a document, or of both sides of an exact map,
    wherever it still has the shape that ``_remarked`` edits."""
    if not isinstance(doc, dict):
        return []
    parts = [doc] if "sset" in doc else [doc.get("source"), doc.get("target")]

    def editable(part):
        if not (isinstance(part, dict) and isinstance(part.get("cofibrations"), list)
                and isinstance(part.get("sset"), dict)):
            return False
        layers = part["sset"].get("generators")
        return isinstance(layers, list) and len(layers) > 1 \
            and all(isinstance(layer, list) for layer in layers[:2])

    return [part for part in parts if editable(part)]


def _remarked(doc, op, at):
    """A mutation the schema accepts: unmark a marked edge, mark an edge, or
    move the zero to another vertex, in the Waldhausen data numbered ``at``
    and at the place numbered ``at`` there (each modulo the count)."""
    doc = copy.deepcopy(doc)
    parts = _waldhausen_parts(doc)
    if not parts:
        return doc
    part = parts[at % len(parts)]
    cofs, (vertices, edges) = part["cofibrations"], part["sset"]["generators"][:2]
    if op == "unmark" and cofs:
        del cofs[at % len(cofs)]
    elif op == "mark" and edges and [edges[at % len(edges)], []] not in cofs:
        cofs.append([edges[at % len(edges)], []])
    elif op == "move-zero" and vertices:
        part["zero"] = [vertices[at % len(vertices)], []]
    return doc


def mutate(doc, op, at):
    """Apply one mutation at the site numbered ``at`` (modulo the number of
    sites): drop it, wrap it in a list, retype it, or rename the generator
    (or any other name) written there; or one of ``_remarked``'s."""
    if op in ("unmark", "mark", "move-zero"):
        return _remarked(doc, op, at)
    doc = copy.deepcopy(doc)
    sites = list(_sites(doc))
    if not sites:
        return doc
    container, key = sites[at % len(sites)]
    if op == "drop":
        del container[key]
    elif op == "wrap":
        container[key] = [container[key]]
    elif op == "retype":
        container[key] = _retyped(container[key])
    else:
        value = container[key]
        return _renamed(doc, value if isinstance(value, str) else str(key))
    return doc


def run_every_command(doc, vertex, dim="2"):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        for template in COMMANDS:
            argv = [path if a == "{}" else vertex if a == "{v}" else a for a in template]
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--budget", BUDGET, "--dim", dim])
            where = (template[0], code, err.getvalue()[:200])
            assert code in (0, 1, 2), where
            if code == 2 or err.getvalue():
                assert code and out.getvalue() == "", where
                assert "error" in json.loads(err.getvalue()), where
            else:
                assert isinstance(json.loads(out.getvalue()), dict), where


def test_every_command_on_every_unmutated_document():
    for doc in DOCUMENTS.values():
        run_every_command(doc, _first_vertex(doc))


@pytest.mark.parametrize("dim", ["-1", "0", "1"])
def test_every_command_on_every_unmutated_document_at_low_dimension_bounds(dim):
    for doc in DOCUMENTS.values():
        run_every_command(doc, _first_vertex(doc), dim)


@given(st.sampled_from(sorted(DOCUMENTS)),
       st.lists(st.tuples(st.sampled_from(["drop", "wrap", "retype", "rename",
                                           "unmark", "mark", "move-zero"]),
                          st.integers(0, 10**6)), min_size=1, max_size=2))
@settings(max_examples=100, deadline=None)
def test_every_command_on_mutated_documents(kind, mutations):
    doc = DOCUMENTS[kind]
    vertex = _first_vertex(doc)
    for op, at in mutations:
        doc = mutate(doc, op, at)
    run_every_command(doc, vertex)
