"""Source layout checks that read the package with ``ast`` and import nothing of it.

No module but ``__init__`` may keep an import it never uses, or a
module-level private function that no code in the package refers to: the
orphans a deletion tends to leave behind. A public module-level function
needs a reader too: package code, a benchmark or an acceptance test, since an
entry point that only its own unit tests call is one that nothing uses. The
package defines one exception class per exit code of the CLI, only ``data``
splits text into CSV lines and fields, and only ``search`` reads an evaluation
record's status.
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


def test_one_exception_class_per_exit_code():
    # 2 usage, 3 data, 4 numeric: a further type would be a second name for one of them
    bases = {node.name: {ast.unparse(base).split(".")[-1] for base in node.bases}
             for tree in MODULES.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    exceptions = set()
    while derived := {name for name, names in bases.items() if name not in exceptions and any(
            base in exceptions or isinstance(getattr(builtins, base, None), type)
            and issubclass(getattr(builtins, base), BaseException) for base in names)}:
        exceptions |= derived
    assert sorted(exceptions) == ["DataError", "NumericError", "UsageError"]


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
