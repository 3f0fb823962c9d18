"""Every module-level private name in the package is used, every public
function or class has a reader, and so is every name a module imports.

A private helper (`_x`, not a dunder) that nothing in `src/` refers to is
dead code: it is either left over from a path that was replaced, or it is
only reached from the tests, which should then test the public path.  A
public function or class is kept when another line of `src/` reads it,
when the package lists it in `__all__`, when the README's Library section
names it for library callers, or when the benchmark's span table
(`bench/spans.py`, `LAYERS`) wraps it; a name only the tests read belongs
in `tests/oracles.py`.  An import that its module never reads is left over
the same way; a package `__init__` re-exports what it lists in `__all__`.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "congrlab"


def private_definitions(tree):
    """(name, first line, last line) of each private name the module
    defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def references(tree):
    """(name, line) of each name the module reads, attribute it takes or
    name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def source_trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def unread(trees, definitions):
    """module:name of each definition (name, first line, last line) that no
    line of `src/` outside it reads."""
    refs = [(module, name, line) for module, tree in trees.items() for name, line in references(tree)]
    for module, tree in trees.items():
        for name, first, last in definitions(tree):
            if not any(n == name and (m != module or not first <= line <= last) for m, n, line in refs):
                yield f"{module}:{name}"


def test_every_private_name_is_referenced_outside_its_definition():
    trees = source_trees()
    assert sum(1 for tree in trees.values() for _ in private_definitions(tree)) > 20
    assert list(unread(trees, private_definitions)) == []


def public_definitions(tree):
    """(name, first line, last line) of each public function or class the
    module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def library_names():
    """The code spans of the public-names column, the last one, of the
    module table in the README's Library section."""
    text = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.rstrip(" |").rsplit("|", 1)[1] for line in text.splitlines() if line.startswith("| `congrlab.")]
    return {name for cell in rows for name in re.findall(r"`(\w+)`", cell)}


def span_targets():
    """The "module:attribute" and "module:Class.method" strings of LAYERS
    in bench/spans.py, read without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    return [target for targets in ast.literal_eval(layers).values() for target in targets]


def test_every_public_function_or_class_has_a_reader():
    trees = source_trees()
    named = library_names() | {name for tree in trees.values() for name in exported_names(tree)}
    wrapped = {f"{module}.py:{attr.split('.')[0]}" for module, attr in (t.split(":") for t in span_targets())}
    unreached = [e for e in unread(trees, public_definitions) if e.split(":")[1] not in named and e not in wrapped]
    assert sum(1 for tree in trees.values() for _ in public_definitions(tree)) > 100
    assert unreached == []


def test_every_span_target_resolves():
    """Each target of LAYERS is there to be wrapped, as Tracer.install
    looks it up: a module attribute, or a method in its class's own dict."""
    targets, missing = span_targets(), []
    for target in targets:
        module, attr = target.split(":")
        owner = importlib.import_module(f"congrlab.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(target)
    assert len(targets) > 30
    assert missing == []


def imported_names(tree):
    """(bound name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def exported_names(tree):
    """The strings listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def test_every_import_is_read_by_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(exported_names(tree))
        unused += [f"{path.name}:{line}:{name}" for name, line in imported_names(tree) if name not in read]
    assert unused == []
