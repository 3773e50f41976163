"""Every function and method in ``src/fourfold`` has a caller in ``src/``,
every name a module imports is used in it, no class defines arithmetic
or ordering operators, no method only forwards to a same-named method of a
field, every enum member is spelled outside its class, no ``assert``
statement stands in ``src/fourfold``, no class hand-writes what a dataclass
generates, and every value quoted by an f-string raised in a fourfold error
goes through ``shown``, is a module constant or is allowed with its reason.

No linter is part of this project's toolchain, so this test is the check:
code that only the tests reach belongs in ``tests/oracles.py`` or nowhere.  A
function counts as called when a name or attribute access in ``src/fourfold``
outside its own body spells its name.  That over-counts (two methods of one
name keep each other alive) but never misses a caller.  A name spelled only
inside a dunder other than a constructor does not count: an operator method
is reached only when a production path applies the operator, and the test
for that is the operator check below.

Because a same-named method elsewhere counts as a caller, the reach test at
the end runs a fixed list of CLI commands in process under ``sys.setprofile``
and requires every function and method, dunders included, to be entered.
"""

import ast
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import fourfold
from fourfold import cli
from fourfold.errors import FourfoldError

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


def _is_forwarder(method) -> bool:
    """Whether a method's whole body is ``return self.<attr>.<its name>(...)``."""
    body = method.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # a docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == method.name
            and isinstance(call.func.value, ast.Attribute)
            and isinstance(call.func.value.value, ast.Name)
            and call.func.value.value.id == "self")


def test_no_method_only_forwards_to_a_namesake():
    # one formula, one place: a method that hands its call on to a same-named
    # method of a field is a second entry point to the same thing
    forwarders = [dotted for dotted, node in _defs()
                  if dotted.count(".") == 2 and _is_forwarder(node)]
    assert forwarders == []


def _enum_members():
    """(module, enum class node, member name) of every enum in src/."""
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base) in ("enum.Enum", "Enum") for base in node.bases):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                yield mod, node, target.id


def test_every_enum_member_is_spelled_outside_its_class():
    # Enums that the catalog reader builds from document values through
    # ``_enum(Cls, ...)`` may hold members that only a document names.
    built = {call.args[0].id for tree in MODULES.values() for call in ast.walk(tree)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
             and call.func.id == "_enum" and call.args and isinstance(call.args[0], ast.Name)}
    spelled = {(node.value.id, node.attr, mod, node.lineno)
               for mod, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    unspelled = [f"{mod}.{cls.name}.{member}" for mod, cls, member in _enum_members()
                 if cls.name not in built
                 and not any(name == cls.name and attr == member
                             and (m != mod or not cls.lineno <= line <= cls.end_lineno)
                             for name, attr, m, line in spelled)]
    assert unspelled == []


def test_no_assert_statement_in_src():
    # python -O drops assert statements, so a check that matters must raise
    asserts = [f"{mod}:{node.lineno}" for mod, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


# Dataclasses generate these; a class writes one only for its reason.
HAND_WRITTEN = {"__eq__", "__hash__", "__repr__", "__setattr__"}
HAND_WRITTEN_ALLOWED = {
    "model.Manifold.__hash__": "the search hashes sums by name, which CPython caches, "
                               "not by every field",
}


def test_no_class_hand_writes_what_a_dataclass_generates():
    written = {f"{mod}.{node.name}.{sub.name}"
               for mod, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for sub in node.body
               if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
               and sub.name in HAND_WRITTEN}
    assert written == set(HAND_WRITTEN_ALLOWED)


# -- every number or text an error line quotes is bounded ---------------------

# Placeholders of an f-string raised in a fourfold error that neither go
# through ``shown`` nor name a module constant, as "module: expression", each
# with why its text stays short.
PLACEHOLDERS_ALLOWED = {
    "catalog: where": "fixed words, list indices and a name cut by shown",
    "catalog: path": "a field path of fixed names and list indices, or the --catalog "
                     "file path, which the OS bounds and a line names whole",
    "catalog: what": "a fixed phrase naming a JSON type",
    "catalog: allowed": "the member values of one enum",
    "catalog: family": "a family name the id pattern matched: Sigma or Gompf",
    "catalog: int_str_limit()": "the interpreter's int-str limit",
    "catalog: exc": "a message of the JSON reader or of GramLattice; neither quotes "
                    "more than a few digits of a value",
    "catalog: exc.strerror": "the operating system's message",
    "catalog: first": "a list index",
    "catalog: i": "a list index",
    "catalog: len(problems) - 1": "a count of validate messages",
    "catalog: len(rows)": "the length of a list in memory",
    "catalog: problems[0]": "a validate message, which quotes values through shown",
    "certify: n": "a piece count below 2",
    "cli: cause": "fixed words, or an option value cut by shown",
    "cli: int_str_limit()": "the interpreter's int-str limit",
    "cli: limit": "int_str_limit()",
    "cli: shown": "a local holding errors.shown of the option value",
    "cli: source": "an option name: --c4 or --k",
    "einstein: n": "the length of a list in memory",
    "monopole: limit": "int_str_limit()",
    "parser: count": "a repetition count below 1, so 0: its token is digits",
    "parser: int_str_limit()": "the interpreter's int-str limit",
    "parser: len(tok.text)": "the length of a string in memory",
    "parser: lexeme": "one character",
    "parser: limit": "int_str_limit()",
}


def _fourfold_errors() -> set[str]:
    """The names of FourfoldError and of every class derived from it in src/."""
    return {name for mod in MODULES
            for name, value in vars(importlib.import_module(
                f"fourfold.{mod}" if mod != "__init__" else "fourfold")).items()
            if isinstance(value, type) and issubclass(value, FourfoldError)}


def _is_shown(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) in ("shown", "errors.shown")


def _placeholders(node):
    """The values of the f-string placeholders under ``node``, leaving out
    ``shown(...)`` calls and whatever they hold."""
    for child in ast.iter_child_nodes(node):
        if _is_shown(child):
            continue
        if isinstance(child, ast.FormattedValue) and not _is_shown(child.value):
            yield child.value
        yield from _placeholders(child)


def _module_constants(tree) -> set[str]:
    """Upper-case names a module assigns or imports at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if name.isupper()}


def test_every_raised_placeholder_is_shown_constant_or_allowed():
    # An error line quotes at most 40 characters of a value; a number past the
    # int-str limit cannot be printed at all.  shown() does both.
    errors = _fourfold_errors()
    found = set()
    for mod, tree in MODULES.items():
        constants = _module_constants(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func).split(".")[-1] in errors):
                found.update(f"{mod}: {ast.unparse(value)}"
                             for value in _placeholders(node.exc)
                             if not (isinstance(value, ast.Name) and value.id in constants))
    assert found == set(PLACEHOLDERS_ALLOWED)


# -- reach: which functions a fixed list of CLI commands enters ---------------

# Kept although no command below enters them, each for its reason.
UNREACHED = {
    "exact.solve_unique": "bench/tracer.py wraps it and requires it to exist",
    "monopole.MonopoleClassSet.classes": "bench/tracer.py counts len(result.classes)",
}

# A custom atom with a lattice and a c1 vector, for --catalog.
_CUSTOM_CATALOG = {"version": 1, "manifolds": [{
    "version": 1, "name": "Xl", "b1": 0, "b_plus": 1, "b_minus": 1,
    "is_spin": False, "is_simply_connected": True, "flags": [],
    "lattice": {"basis": ["u", "v"], "gram": [[0, 1], [1, 0]]},
    "spinc": [{"c1": [2, 2], "c1_squared": 8, "s_matrix": [],
               "sw_parity": "Unknown", "provenance": "Derived"}],
    "sv_factors": [], "summand_record": [["Xl", 1]],
}]}

_EXPRS = ("2*Sigma(3,3)", "2*Sigma(3,3) # 18*CP2bar", "Sigma(3,3) # K3 # 2*S1xS3",
          "K3 # Kodaira # CP2bar", "3*K3 # T4", "5*K3", "CP2 # 4*CP2bar", "Gompf(2,1) # K3")


def _commands(catalog_path: str) -> list[list[str]]:
    commands = [["catalog"], ["catalog", "Y(2)"], ["frobnicate"], ["build", "K3 #"],
                ["--catalog", catalog_path, "catalog"],
                ["--catalog", catalog_path, "build", "Xl # K3"],
                ["--catalog", catalog_path, "check", "exotic", "Xl # Kodaira"],
                ["--approx", "invariants", "2*Sigma(3,3) # CP2bar", "--k", "2/3",
                 "--c4", "7/3"],
                ["search", "--mode", "spin", "--g", "3", "--h", "3", "--mmax", "4",
                 "--nmax", "6", "--c4", "1"],
                ["search", "--mode", "nonspin", "--g", "3", "--h", "5", "--mmax", "3",
                 "--nmax", "3"]]
    for expr in _EXPRS:
        commands += [["build", expr], ["invariants", expr], ["beta2", expr]]
        commands += [["check", theorem, expr] for theorem in cli.CHECK_IDS]
        commands.append(["check", "ght", expr, "--non-strict", "--c4", "7/3"])
    return commands


class _ClosedPipe:
    """A stdout whose reader has gone; it has no ``fileno``, so
    ``_detach_stdout`` leaves the real file descriptor 1 alone."""

    def write(self, text: str) -> int:
        raise BrokenPipeError


def _code_objects() -> dict:
    """The code object of every top-level function and method of
    ``src/fourfold`` -> its dotted name; functions with a cache are cleared,
    so that their bodies run again."""
    codes = {}
    for mod, tree in MODULES.items():
        module = importlib.import_module(f"fourfold.{mod}" if mod != "__init__" else "fourfold")
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found = [(f"{mod}.{node.name}", getattr(module, node.name))]
            elif isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                found = [(f"{mod}.{node.name}.{sub.name}", cls.__dict__[sub.name])
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for dotted, fn in found:
                fn = getattr(fn, "fget", None) or getattr(fn, "__func__", None) or fn
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
                codes[getattr(fn, "__wrapped__", fn).__code__] = dotted
    return codes


def test_every_function_and_method_is_entered_by_a_cli_command(tmp_path):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(_CUSTOM_CATALOG))
    codes = _code_objects()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.add(codes[frame.f_code])

    out, previous = io.StringIO(), sys.getprofile()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        sys.setprofile(profile)
        try:
            for argv in _commands(str(path)):
                cli.main(argv)
            with contextlib.redirect_stdout(_ClosedPipe()):
                cli.main(["catalog"])
        finally:
            sys.setprofile(previous)
    assert set(UNREACHED) <= set(codes.values())
    missed = sorted(set(codes.values()) - entered - set(UNREACHED))
    assert not missed, "no command entered " + ", ".join(missed)
