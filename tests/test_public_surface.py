"""Every function and method in ``src/fourfold`` has a caller in ``src/``,
every name a module imports is used in it, and no class defines arithmetic
or ordering operators.

No linter is part of this project's toolchain, so this test is the check:
code that only the tests reach belongs in ``tests/oracles.py`` or nowhere.  A
function counts as called when a name or attribute access in ``src/fourfold``
outside its own body spells its name.  That over-counts (two methods of one
name keep each other alive) but never misses a caller.  A name spelled only
inside a dunder other than a constructor does not count: an operator method
is reached only when a production path applies the operator, and the test
for that is the operator check below.
"""

import ast
from pathlib import Path

import fourfold

SRC = Path(fourfold.__file__).resolve().parent
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}

# Kept without a caller in src/, each for its reason.  The names in
# ``fourfold.__all__`` are allowed too (the names only, not their methods).
ALLOWED = {
    "cli._CliParser.error": "argparse calls it on a bad command line",
    "exact.solve_unique": "bench/tracer.py wraps it and requires it to exist",
    "monopole.MonopoleClassSet.classes": "bench/tracer.py counts len(result.classes)",
}


# Dunders whose bodies count as callers: every build of an instance runs them.
CONSTRUCTORS = {"__init__", "__post_init__"}

# Arithmetic and ordering operators.  No report adds, scales by an operator or
# orders the values it prints, so no class in src/ defines one.
OPERATORS = {"__add__", "__sub__", "__mul__", "__neg__", "__abs__",
             "__lt__", "__le__", "__gt__", "__ge__"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _spelled_names(node):
    """The Name and Attribute nodes under ``node``, leaving out the bodies of
    dunders other than the constructors."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_dunder(child.name) and child.name not in CONSTRUCTORS):
            continue
        if isinstance(child, (ast.Name, ast.Attribute)):
            yield child
        yield from _spelled_names(child)


def _defs():
    """(dotted name, node) of every top-level function and non-dunder method."""
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{mod}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(sub.name)):
                        yield f"{mod}.{node.name}.{sub.name}", sub


def test_every_function_and_method_has_a_caller_in_src():
    spelled: dict[str, list[tuple[str, int]]] = {}
    for mod, tree in MODULES.items():
        for node in _spelled_names(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr
            spelled.setdefault(name, []).append((mod, node.lineno))
    uncalled = []
    for dotted, node in _defs():
        mod = dotted.split(".")[0]
        if dotted in ALLOWED or (dotted.count(".") == 1 and node.name in fourfold.__all__):
            continue
        if not any(m != mod or not node.lineno <= line <= node.end_lineno
                   for m, line in spelled.get(node.name, ())):
            uncalled.append(dotted)
    assert uncalled == []


def test_allowed_names_exist():
    assert set(ALLOWED) <= {dotted for dotted, _ in _defs()}


def test_every_import_is_used():
    unused = []
    for mod, tree in MODULES.items():
        if mod == "__init__":
            continue  # its imports are the package's re-exports
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(f"{mod}: {alias.asname or alias.name}" for alias in node.names
                              if (alias.asname or alias.name).split(".")[0] not in used)
    assert unused == []


def test_no_class_defines_an_arithmetic_or_ordering_operator():
    defined = [f"{mod}.{node.name}.{sub.name}"
               for mod, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for sub in node.body
               if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
               and sub.name in OPERATORS]
    assert defined == []
