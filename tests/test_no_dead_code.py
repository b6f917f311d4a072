"""Source guard: no private function, method or class is left unused.

A definition whose name starts with `_` (functions, methods and classes,
nested ones included, dunder methods excepted) is internal to `src/tiltkit`,
so a use of it must appear there too.  This test fails on any such
definition whose name is read nowhere in `src/tiltkit` outside its own body:
as a name, as an attribute or in an import."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltkit"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(tree):
    """Every name the tree reads, once per occurrence."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def unused_private_definitions(sources):
    """(file, line, name) of the private definitions in `sources`, a mapping
    from file name to source text, that nothing outside their own body reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    found = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and _is_private(node.name):
                if total[node.name] - _references(node)[node.name] <= 0:
                    found.append((fname, node.lineno, node.name))
    return sorted(found)


@pytest.mark.parametrize("source, unused", [
    ("def _f():\n    pass\n", ["_f"]),
    ("def _f():\n    pass\n\n_f()\n", []),
    ("def _f(n):\n    return _f(n - 1)\n", ["_f"]),
    ("class A:\n    class _B:\n        pass\n", ["_B"]),
    ("class A:\n    def _m(self):\n        pass\n\n    def g(self):\n        return self._m()\n", []),
    ("def __regular(a):\n    return a\n", ["__regular"]),
    ("class A:\n    def __eq__(self, other):\n        return True\n", []),
    ("from .m import _g\n\ndef _g():\n    pass\n", []),
])
def test_guard_recognises_unused_private_definitions(source, unused):
    assert [name for _, _, name in unused_private_definitions({"m.py": source})] == unused


def test_no_unused_private_definitions_in_source():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = unused_private_definitions({p.name: p.read_text(encoding="utf-8") for p in files})
    assert not found, "unused private definitions: " + ", ".join(
        f"{fname}:{line} {name}" for fname, line, name in found)
