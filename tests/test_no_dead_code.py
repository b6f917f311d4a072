"""Source guards: no private function, method or class is left unused, no
module imports a name it never reads, and no function imports from a
sibling module unless a top-level import would close a cycle.

A definition whose name starts with `_` (functions, methods and classes,
nested ones included, dunder methods excepted) is internal to `src/tiltkit`,
so a use of it must appear there too.  The first guard fails on any such
definition whose name is read nowhere in `src/tiltkit` outside its own body:
as a name, as an attribute or in an import.  The second fails on any name
imported into a `src/tiltkit` module and never read in it; the re-exports
of `__init__.py` and `from __future__` imports are exempt.  The third fails
on a `from .m import ...` inside a function unless m imports the module
holding that function at top level, directly or through other modules of
`src/tiltkit`: only a real import cycle keeps an import local."""

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


def unused_imports(source):
    """(line, name) of the names `source` imports and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os\nos.getcwd()\n", []),
    ("import os.path\nos.path.join()\n", []),
    ("from a import b, c\nb()\n", ["c"]),
    ("from a import b as c\nc()\n", []),
    ("from a import b as c\nb()\n", ["c"]),
    ("from a import b\nb = 1\n", ["b"]),
    ("from a import b\n\ndef f() -> b:\n    pass\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return 1\n", ["b"]),
])
def test_guard_recognises_unused_imports(source, unused):
    assert [name for _, name in unused_imports(source)] == unused


def test_no_unused_imports_in_source():
    found = [(p.name, line, name) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports: " + ", ".join(
        f"{fname}:{line} {name}" for fname, line, name in found)


def acyclic_local_imports(sources):
    """(file, line, module) of each `from .m import ...` inside a function of
    `sources`, a mapping from file name to source text, where m does not
    import that file's module at top level, directly or through others."""
    trees = {Path(name).stem: ast.parse(text) for name, text in sources.items()}
    top = {mod: {node.module for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1}
           for mod, tree in trees.items()}

    def imports_at_top(start, goal):
        seen, todo = set(), list(top.get(start, ()))
        while todo:
            mod = todo.pop()
            if mod == goal:
                return True
            if mod not in seen:
                seen.add(mod)
                todo.extend(top.get(mod, ()))
        return False

    found = set()
    for fname in sources:
        mod = Path(fname).stem
        for func in ast.walk(trees[mod]):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level == 1 \
                        and not imports_at_top(node.module, mod):
                    found.add((fname, node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("sources, flagged", [
    ({"a.py": "x = 1\n", "b.py": "def f():\n    from .a import x\n    return x\n"},
     [("b.py", 2, "a")]),
    ({"a.py": "from .b import f\n", "b.py": "def f():\n    from .a import f\n"}, []),
    ({"a.py": "from .c import g\n", "c.py": "from .b import f\n\ndef g():\n    pass\n",
      "b.py": "def f():\n    from .a import g\n"}, []),
    ({"a.py": "def g():\n    from .b import f\n",
      "b.py": "def f():\n    from .a import g\n"}, [("a.py", 2, "b"), ("b.py", 2, "a")]),
    ({"a.py": "x = 1\n",
      "b.py": "class K:\n    def m(self):\n        from .a import x\n        return x\n"},
     [("b.py", 3, "a")]),
    ({"b.py": "def f():\n    from fractions import Fraction\n    return Fraction\n"}, []),
    ({"a.py": "from .b import f\n", "b.py": "from .a import g\n\ndef f():\n    pass\n"}, []),
])
def test_guard_recognises_acyclic_local_imports(sources, flagged):
    assert acyclic_local_imports(sources) == flagged


def test_no_acyclic_local_imports_in_source():
    found = acyclic_local_imports(
        {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    assert not found, "function-level imports outside an import cycle: " + ", ".join(
        f"{fname}:{line} .{mod}" for fname, line, mod in found)
