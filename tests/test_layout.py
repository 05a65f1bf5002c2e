"""Source layout checks that read the package with ``ast`` and import nothing of it.

No module but ``__init__`` may keep an import it never uses, or a
module-level private function that no code in the package refers to: the
orphans a deletion tends to leave behind. A public module-level function
needs a reader too: package code, a benchmark or an acceptance test, since an
entry point that only its own unit tests call is one that nothing uses. The
package defines one exception class per exit code of the CLI, and its except
clauses list exception classes only, ``NumericError`` the one
``ArithmeticError`` among them. Only ``data`` splits text into CSV lines and
fields, only ``search`` reads an evaluation record's status, and every
``json.dump`` or ``json.dumps`` call passes ``allow_nan=False``.
"""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fewcast"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
CHECKED = sorted(set(MODULES) - {"__init__"})
ROOT = PACKAGE.parents[1]
OUTSIDE_READERS = [ast.parse(path.read_text(encoding="utf-8"))
                   for path in [*sorted((ROOT / "benchmarks").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]]


def bindings(tree):
    """(name, line) of every name an import statement binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def references(tree, skip=None):
    """Every identifier the tree reads, as a name, an attribute or an imported name, outside the definition
    ``skip`` (so that a function's call to itself does not count)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_import(module):
    tree = MODULES[module]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{name} (line {line})" for name, line in bindings(tree) if name not in read] == []


@pytest.mark.parametrize("module", CHECKED)
def test_no_uncalled_private_function(module):
    orphans = []
    for node in MODULES[module].body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
            if not any(node.name in references(tree, skip=node) for tree in MODULES.values()):
                orphans.append(f"{node.name} (line {node.lineno})")
    assert orphans == []


@pytest.mark.parametrize("module", CHECKED)
def test_no_unread_public_function(module):
    unread = [f"{node.name} (line {node.lineno})" for node in MODULES[module].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and not any(node.name in references(tree, skip=node) for tree in [*MODULES.values(), *OUTSIDE_READERS])]
    assert unread == []


# each class the package defines, with the last dotted part of each of its bases
BASES = {node.name: {ast.unparse(base).split(".")[-1] for base in node.bases}
         for tree in MODULES.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def builtin_exception(name):
    """The builtin exception class that ``name`` is, or derives from if the package defines it; None when
    ``name`` is no exception class."""
    if name == "json.JSONDecodeError":
        return ValueError
    if name in BASES:
        return next(filter(None, map(builtin_exception, sorted(BASES[name]))), None)
    value = getattr(builtins, name, None)
    return value if isinstance(value, type) and issubclass(value, BaseException) else None


def test_one_exception_class_per_exit_code():
    # 2 usage, 3 data, 4 numeric: a further type would be a second name for one of them
    assert sorted(name for name in BASES if builtin_exception(name)) == ["DataError", "NumericError", "UsageError"]


@pytest.mark.parametrize("module", CHECKED)
def test_except_clauses_catch_no_arithmetic_error_but_numeric_error(module):
    # NumericError is the one failure, a reward-0 evaluation and exit 4: a clause that caught another
    # ArithmeticError, or a name bound to a tuple of them, would record a bug as a failed evaluation
    wrong = []
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.ExceptHandler):
            listed = node.type or ast.Name("BaseException")  # what a bare except catches
            for name in map(ast.unparse, listed.elts if isinstance(listed, ast.Tuple) else [listed]):
                caught = builtin_exception(name)
                if caught is None or name != "NumericError" and (
                        issubclass(caught, ArithmeticError) or issubclass(ArithmeticError, caught)):
                    wrong.append(f"{name} (line {node.lineno})")
    assert wrong == []


def csv_splits(tree):
    """Every ``.splitlines()`` call and ``.split(",")`` call in the tree, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            first = node.args[0] if node.args else None
            if node.func.attr == "splitlines" or (
                    node.func.attr == "split" and isinstance(first, ast.Constant) and first.value == ","):
                yield f"{node.func.attr} (line {node.lineno})"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"data"}))
def test_only_data_splits_csv_text(module):
    # one CSV grammar: every other reader iterates data.read_rows
    assert list(csv_splits(MODULES[module])) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"search"}))
def test_only_search_reads_a_record_status(module):
    # one rule for whether an evaluation succeeded: search's, which the trajectory's readers call
    reads = [f"status (line {node.lineno})" for node in ast.walk(MODULES[module])
             if isinstance(node, ast.Attribute) and node.attr == "status"]
    assert reads == []


@pytest.mark.parametrize("module", CHECKED)
def test_every_json_dump_refuses_non_finite_values(module):
    # every JSON file a command writes is strict JSON: a NaN or an infinity raises instead of writing NaN or Infinity
    loose = [f"{node.func.attr} (line {node.lineno})" for node in ast.walk(MODULES[module])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps") and not any(
                 keyword.arg == "allow_nan" and ast.unparse(keyword.value) == "False" for keyword in node.keywords)]
    assert loose == []
