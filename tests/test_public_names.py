"""Every public top-level function and class of the library has a user: it
is named in another module, the CLI or the tests.  Every public method and
property of a library class has one too: some module or test, its own
module included, reads it as an attribute."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


MODULES = sorted((ROOT / "src" / "qcatk").glob("*.py"))
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))


def _named(path):
    """Every identifier a file names: variables, attributes and imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_has_a_user():
    named = {path: _named(path) for path in FILES}
    unused = []
    for path in MODULES:
        # the CLI is a user of its own commands
        users = [p for p in named if p != path or path.name == "cli.py"]
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in named[p] for p in users)):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def _overrides(stem, cls_name, name):
    """Whether the method overrides one of a base class, which calls it."""
    cls = getattr(importlib.import_module(f"qcatk.{stem}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_public_method_has_a_user():
    # a method is used only through an attribute; its own module counts,
    # since a class may serve only the module it lives in
    read = set()
    for path in FILES:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute)}
    unused = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unused += [f"{path.stem}.{cls.name}.{node.name}" for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("_") and node.name not in read
                           and not _overrides(path.stem, cls.name, node.name)]
    assert unused == []
