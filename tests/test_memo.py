"""One memo for every fact derived from an algebra or its congruence lattice.

algebra.cached keeps fn(X, *args) in X._cache under fn's name.  Nothing
else in the package reads or writes a _cache, bar the private constructor
FiniteAlgebra._derived, which seeds order_masks with the masks its caller
derived; a cold copy of an algebra computes its own facts.  The J(Con A)
record that factor.jspace memoizes keeps its own fields as attributes,
each computed once (J's order as the record of a pure lattice is made, the
rest on first read), and a raised exception is kept by neither.  The
per-θ lifting verdicts are one memo per property, not one per θ: the list
lifting._lifting_column, which one loop fills in index order (a memo keyed
by θ once made the first calls about 25% slower, a median of 510 µs
against 403 µs for the 128 θ of C8 on both sides, in 40 interleaved cold
rounds in one process).
"""

import ast
from pathlib import Path

import pytest

from congrlab import factor, lifting, residuated
from congrlab.algebra import join_classes
from congrlab.congruences import all_congruences
from congrlab.errors import AmbiguousComplement, NotDistributive
from congrlab.fixtures import fixture

from test_congruences import xor_algebra
from test_join_irreducible_masks import cold

SRC = Path(__file__).resolve().parent.parent / "src" / "congrlab"

# (module, innermost function or class) of each place that touches a _cache
ALLOWED = {
    ("algebra.py", "FiniteAlgebra"),  # the slot
    ("algebra.py", "memo"),  # inside cached
    ("algebra.py", "_derived"),  # FiniteAlgebra's memo, empty or seeded with order_masks
    ("congruences.py", "ConLattice"),  # the slot
    ("congruences.py", "__init__"),  # ConLattice's empty memo
}

MEMOIZED = {
    "order_masks",
    "join_classes",
    "is_distributive_lattice",
    "_operations",
    "is_distributive",
    "is_permutable",
    "all_congruences",
    "_interval_centers",
    "jspace",
    "_holds",
    "_lifting_column",
    "_joins_to_nabla",
    "element_boolean_center",
    "algebra_blp",
    "_p_order",
}


def trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def cache_uses(node, module, scope=None):
    """(module, scope, line) of each _cache attribute or "_cache" string
    under node, scope being the innermost enclosing function or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "_cache") or (
        isinstance(node, ast.Constant) and node.value == "_cache"
    ):
        yield module, scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from cache_uses(child, module, scope)


def seeded_keys(tree, scope):
    """The constant keys written into a _cache inside the function scope,
    by subscript or in a dict display."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == scope:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute) and sub.value.attr == "_cache":
                    yield sub.slice.value
                if isinstance(sub, ast.Dict):
                    yield from (key.value for key in sub.keys)


def test_no_cache_is_touched_outside_the_one_memo():
    parsed = trees()
    uses = [use for module, tree in parsed.items() for use in cache_uses(tree, module)]
    assert {(m, s) for m, s, _ in uses} == ALLOWED
    # the one seed writes order_masks and nothing else
    assert list(seeded_keys(parsed["algebra.py"], "_derived")) == ["order_masks"]
    assert "order_masks" in MEMOIZED


def test_no_two_memoized_functions_share_a_name():
    names = [
        node.name
        for tree in trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(isinstance(d, ast.Name) and d.id == "cached" for d in node.decorator_list)
    ]
    assert len(names) == len(set(names))
    assert set(names) == MEMOIZED


@pytest.mark.parametrize("name", ["P", "X", "H", "R0", "L2x3cube", "L1"])
def test_a_cold_copy_computes_its_own_facts_once(name):
    A = fixture(name)
    B = cold(A)
    assert B._cache == {}
    cl = all_congruences(B)
    assert cl is all_congruences(B) and cl is not all_congruences(A)
    assert cl.elements == all_congruences(A).elements
    # each fact as plain data, so that B's can be compared with A's
    facts = {
        "order_masks": lambda X: X.order_masks(),
        "join_classes": join_classes,
        "is_distributive_lattice": lambda X: X.is_distributive_lattice(),
        "jspace.down": lambda X: factor.jspace(X).down,
        "jspace.components": lambda X: factor.jspace(X).components,
        "jspace.p_order": lambda X: factor.jspace(X).p_order,
        "_holds": lambda X: lifting._holds(X, True),
        "_joins_to_nabla": lambda X: lifting._joins_to_nabla(all_congruences(X)),
        "_interval_centers": lambda X: factor._interval_centers(all_congruences(X), 0)[1].complement,
    }
    if B.is_distributive_lattice():  # else a complement is ambiguous
        facts["element_boolean_center"] = lambda X: residuated.element_boolean_center(X).complement
    for fact, read in facts.items():
        first = read(B)
        assert read(B) is first and first == read(A), (name, fact)
    assert "jspace" in B._cache and ("_interval_centers", 0) in cl._cache


def test_a_raised_exception_is_not_kept():
    D = cold(fixture("D"))  # the diamond: each atom has two complements
    for _ in range(2):
        with pytest.raises(AmbiguousComplement):
            residuated.element_boolean_center(D)
    assert "element_boolean_center" not in D._cache
    V4 = xor_algebra()  # Con(V4) is the diamond, which is not distributive
    for _ in range(2):
        with pytest.raises(NotDistributive):
            factor.jspace(V4).down
    assert "down" not in vars(factor.jspace(V4)) and "all_congruences" in V4._cache
