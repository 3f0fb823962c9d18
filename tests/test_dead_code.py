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

A line reads a module-level name in one of two ways: its own module loads
the name where no parameter or local of an enclosing function, lambda or
comprehension shadows it, or another module imports it with
`from .module import name` (and the import test checks that the importer
reads it).  An attribute such as `cl.elements`, or a local that happens to
share the name, reads nothing.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def split_scope(node):
    """(children of node read in the enclosing scope, children read in
    node's own).  A function's decorators, parameters' defaults and
    annotations, and a comprehension's first iterable, are read outside;
    a class body binds nothing its methods see, so it is read as if
    outside too.  Any other node has no scope of its own."""
    children = list(ast.iter_child_nodes(node))
    if isinstance(node, COMPREHENSIONS):
        first = node.generators[0]
        return [first.iter], [c for c in children if c is not first] + [first.target, *first.ifs]
    if isinstance(node, FUNCTIONS):
        body = node.body if isinstance(node.body, list) else [node.body]
        return [c for c in children if c not in body], body
    return children, []


def local_names(node):
    """The names a function or lambda binds in its own scope: its
    parameters and the names its body stores, defines, imports or catches,
    less those it declares global; for a comprehension, its targets."""
    if isinstance(node, COMPREHENSIONS):
        return {n.id for g in node.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
    a = node.args
    names = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
    declared_global, stack = set(), list(split_scope(node)[1])
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in n.names)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.Global):
            declared_global.update(n.names)
        # a nested function or comprehension binds in its own scope
        stack += split_scope(n)[0] if isinstance(n, FUNCTIONS + COMPREHENSIONS) else ast.iter_child_nodes(n)
    return names - declared_global


def module_reads(node, shadowed=frozenset()):
    """(name, line) of each Name load under node that reads a module-level
    name: one that no enclosing scope's parameter or local shadows."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        yield node.id, node.lineno
    outside, inside = split_scope(node)
    for child in outside:
        yield from module_reads(child, shadowed)
    if inside:
        shadowed = shadowed | local_names(node)
    for child in inside:
        yield from module_reads(child, shadowed)


def relative_imports(trees):
    """(module, name) of each `from .module import name` in the trees."""
    return {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def source_trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def unread(trees, definitions):
    """module:name of each definition (name, first line, last line) that no
    line of `src/` outside it reads."""
    imported = relative_imports(trees)
    for module, tree in trees.items():
        reads = list(module_reads(tree))
        for name, first, last in definitions(tree):
            if (module[:-3], name) not in imported and not any(n == name and not first <= line <= last for n, line in reads):
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
