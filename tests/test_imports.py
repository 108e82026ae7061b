"""Every name a package module imports is used in that module, and every
function and method of the package has a caller outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ncreflect

PACKAGE = Path(ncreflect.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the package, the tools and the benchmark may call package code; tests may not
CALLERS = MODULES + sorted((ROOT / "tools").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def annotations(tree: ast.AST) -> list[ast.expr]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            out.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "Elem | None"
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ('from x import a, b, e\nimport c.d\n\n'
              'def f(y: "e") -> None:\n    print(a, "b")\n')
    assert unused_imports(source) == ["b (line 1)", "c (line 2)"]


def defined_functions(source: str) -> list[str]:
    """Module-level functions and methods ("Class.name"); dunder methods
    are called by Python itself and are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, FUNCTIONS)
                       and not (item.name.startswith("__") and item.name.endswith("__")))
    return out


def referenced_names(sources) -> tuple[set[str], set[str]]:
    """The bare names in the sources, and their attribute names and string
    constants (the benchmark's tracer finds the functions it wraps by
    their names).  A method is reached only through the second kind: a
    local variable that shares its name does not call it."""
    names: set[str] = set()
    attributes: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names, attributes


def uncalled(defining: str, refs: tuple[set[str], set[str]]) -> list[str]:
    names, attributes = refs
    out = []
    for name in defined_functions(defining):
        owner, _, short = name.rpartition(".")
        if short not in attributes and (owner or short not in names):
            out.append(name)
    return out


def test_every_function_has_a_caller_outside_the_tests():
    refs = referenced_names(path.read_text() for path in CALLERS)
    unused = [f"{path.relative_to(PACKAGE)}: {name}" for path in MODULES
              for name in uncalled(path.read_text(), refs)]
    assert unused == []


def test_detects_a_function_nothing_calls():
    defining = ("def used(): pass\ndef unused(): pass\ndef named(): pass\n"
                "class C:\n    def __init__(self): pass\n"
                "    def m(self): pass\n    def n(self): pass\n"
                "    def hidden(self): pass\n")
    # the loop variable shares the name of C.hidden but calls nothing
    caller = 'used()\nC().m()\nwrap(module, "named")\nfor hidden in range(3):\n    print(hidden)\n'
    assert uncalled(defining, referenced_names([defining, caller])) == [
        "unused", "C.n", "C.hidden"]
