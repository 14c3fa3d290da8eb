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


def _library_classes():
    """Each library class by name: (module stem, base names, public methods)."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                out[node.name] = (path.stem,
                                  [b.id if isinstance(b, ast.Name) else b.attr
                                   for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))],
                                  {n.name for n in node.body if isinstance(n, ast.FunctionDef)
                                   and not n.name.startswith("_")})
    return out


def _annotated_class(ann, classes):
    """The library class an annotation names, through Optional[...] and
    string annotations; else None."""
    if isinstance(ann, ast.Subscript):
        ann = ann.slice
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
        return _annotated_class(ann, classes)
    return ann.id if isinstance(ann, ast.Name) and ann.id in classes else None


class _Reads(ast.NodeVisitor):
    """Every attribute read, with the library classes its receiver may be:
    ``self`` in a class body, a class named directly or called, a name
    bound in an enclosing function to an annotated parameter, to a class's
    instance or to the result of a function annotated to return one.  An
    empty set is a receiver of unknown class."""

    def __init__(self, classes, returns):
        self.classes, self.returns = classes, returns
        self.scopes = [{}]
        self.owner = None
        self.reads = []  # (attribute, set of classes)

    def kind(self, node):
        env = self.scopes[-1]
        if isinstance(node, ast.Name):
            if node.id == "self" and self.owner:
                return {self.owner}
            if node.id in self.classes:
                return {node.id}
            return env.get(node.id, set())
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                if f.id in self.classes:
                    return {f.id}
                return {self.returns[f.id]} if f.id in self.returns else set()
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in self.classes:
                return {f.value.id}  # a constructor such as FinCategory.tabulate
        return set()

    def visit_ClassDef(self, node):
        owner, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = owner

    def visit_FunctionDef(self, node):
        env = dict(self.scopes[-1])
        for a in node.args.args + node.args.kwonlyargs:
            k = a.annotation is not None and _annotated_class(a.annotation, self.classes)
            if k:
                env[a.arg] = {k}
        self.scopes.append(env)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name):
                k = self.kind(sub.value)
                if k:
                    env[sub.targets[0].id] = k
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                k = _annotated_class(sub.annotation, self.classes)
                if k:
                    env[sub.target.id] = {k}
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        self.reads.append((node.attr, self.kind(node.value)))
        self.generic_visit(node)


def test_every_public_method_has_a_user():
    # a method is used only through an attribute; its own module counts,
    # since a class may serve only the module it lives in.  A read counts
    # for the class of its receiver, its subclasses and the base it
    # inherits the method from; a read on a receiver of unknown class counts
    # only for a method name that one class alone defines, so that a name
    # shared across classes cannot hide a dead method
    classes = _library_classes()
    returns = {}
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in FILES]
    for tree in trees[:len(MODULES)]:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                k = _annotated_class(node.returns, classes)
                if k:
                    returns[node.name] = k
    owners = {}
    for k, (_, _, methods) in classes.items():
        for name in methods:
            owners.setdefault(name, set()).add(k)

    def lineage(k):
        while k in classes:
            yield k
            k = next((b for b in classes[k][1] if b in classes), None)

    used = set()
    for tree in trees:
        visitor = _Reads(classes, returns)
        visitor.visit(tree)
        for name, kinds in visitor.reads:
            if name not in owners:
                continue
            if not kinds:
                if len(owners[name]) == 1:
                    used |= {(k, name) for k in owners[name]}
                continue
            for k in kinds:
                # the subclasses it may dispatch to, and the base it inherits from
                used |= {(o, name) for o in owners[name] if k in lineage(o)}
                used |= {(o, name) for o in lineage(k) if o in owners[name]}
    unused = [f"{stem}.{k}.{name}" for k, (stem, _, methods) in sorted(classes.items())
              for name in sorted(methods)
              if (k, name) not in used and not _overrides(stem, k, name)]
    assert unused == []
