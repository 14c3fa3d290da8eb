"""One budget mechanism: no library function takes a budget parameter, only
the ledger in ``ssets`` constructs ``BudgetExceeded``, and both searches
charge it.  A check charges one ledger for all of its searches."""

import ast
from pathlib import Path

import pytest

from qcatk import lifting as lf
from qcatk import simplicial as sx
from qcatk import ssets as ss
from qcatk.cats import cyclic_group_category, nerve

from test_lifting import kronecker_with_homotopy

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qcatk").glob("*.py"))


def _walk(node, scope):
    """Every node below ``node`` with the dotted names of the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield from _walk(child, inner)


def _nodes():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, scope in _walk(tree, (path.stem,)):
            yield node, ".".join(scope)


def test_no_library_function_takes_a_budget_parameter():
    found = []
    for node, where in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            found += [f"{where}:{p.arg}" for p in params if p is not None and "budget" in p.arg]
    assert found == []


def test_only_the_ledger_constructs_budget_exceeded():
    sites = []
    for node, where in _nodes():
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "BudgetExceeded":
                sites.append(where)
    assert sites == ["ssets._Ledger.overrun"]


def test_an_isomorphism_search_charges_the_ledger():
    X = nerve(cyclic_group_category(3), 2)
    with ss.budget() as ledger:
        assert sx.iso_check(X, X, 2) is not None
    nodes = ledger.used
    assert nodes > 1
    with ss.budget(nodes):
        assert sx.iso_check(X, X, 2) is not None
    with ss.budget(nodes - 1), pytest.raises(ss.BudgetExceeded) as exc:
        sx.iso_check(X, X, 2)
    assert exc.value.attempted == nodes


def test_searches_in_one_block_share_its_ledger():
    N = nerve(cyclic_group_category(3), 2)
    with ss.budget() as ledger:
        sx.enumerate_maps(sx.spine(2), N)
    once = ledger.used
    with ss.budget(2 * once) as ledger:
        sx.enumerate_maps(sx.spine(2), N)
        sx.enumerate_maps(sx.spine(2), N)
    assert ledger.used == 2 * once
    with ss.budget(2 * once - 1), pytest.raises(ss.BudgetExceeded):
        sx.enumerate_maps(sx.spine(2), N)
        sx.enumerate_maps(sx.spine(2), N)
    # outside any block each search has a ledger of its own
    assert len(sx.enumerate_maps(sx.spine(2), N)) == 9


def test_the_budget_bounds_the_whole_components_check():
    X = kronecker_with_homotopy()
    with ss.budget() as ledger:
        rep = lf.components_hypothesis_check(X)
    assert rep["pairs_with_homotopic_components"] == 1
    nodes = ledger.used
    with ss.budget(nodes):
        assert lf.components_hypothesis_check(X) == rep
    with ss.budget(nodes - 1), pytest.raises(ss.BudgetExceeded) as exc:
        lf.components_hypothesis_check(X)
    assert exc.value.attempted == nodes
