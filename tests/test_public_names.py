"""Every public top-level function and class of the library has a user: it
is named in another module, the CLI or the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    modules = sorted((ROOT / "src" / "qcatk").glob("*.py"))
    named = {path: _named(path) for path in modules + sorted((ROOT / "tests").glob("*.py"))}
    unused = []
    for path in modules:
        # the CLI is a user of its own commands
        users = [p for p in named if p != path or path.name == "cli.py"]
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in named[p] for p in users)):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
