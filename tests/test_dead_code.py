"""Every module-level private name in the package is used, and so is
every name a module imports.

A private helper (`_x`, not a dunder) that nothing in `src/` refers to is
dead code: it is either left over from a path that was replaced, or it is
only reached from the tests, which should then test the public path.  An
import that its module never reads is left over the same way; a package
`__init__` re-exports what it lists in `__all__`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "congrlab"


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


def test_every_private_name_is_referenced_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in references(tree)]
    defined, orphans = 0, []
    for module, tree in trees.items():
        for name, first, last in private_definitions(tree):
            defined += 1
            if not any(n == name and (m != module or not first <= line <= last) for m, n, line in refs):
                orphans.append(f"{module}:{name}")
    assert defined > 20
    assert orphans == []


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
