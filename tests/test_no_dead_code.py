"""Source guards: no private function, method or class is left unused, no
module imports a name it never reads, no function imports from a sibling
module unless a top-level import would close a cycle, and no option is left
that no caller sets or that every caller sets.

A definition whose name starts with `_` (functions, methods and classes,
nested ones included, dunder methods excepted) is internal to `src/tiltkit`,
so a use of it must appear there too.  The first guard fails on any such
definition whose name is read nowhere in `src/tiltkit` outside its own body:
as a name, as an attribute or in an import.  The second fails on any name
imported into a module of `src/tiltkit` or `tests/` and never read in it;
the re-exports of `__init__.py` and `from __future__` imports are exempt.
The third fails on a `from .m import ...` inside a function unless m
imports the module holding that function at top level, directly or through
other modules of `src/tiltkit`: only a real import cycle keeps an import
local.  The fourth fails on a parameter of a function or method in
`src/tiltkit` with a default of None, a bool or a string that no call in
`src/tiltkit` or `tests/` outside the function's own body passes, by
keyword or by position.  The
fifth fails on such a parameter when every one of those calls passes it,
and there is one: its default, and any branch on it, is then dead.  Calls
are matched by the name they call, and a class name stands for its
`__init__`.  The sixth fails on a field of a record in `src/tiltkit` (an
attribute of self that the class's `__init__` assigns, when that is all it
does, or a dataclass field) that nothing in `src/tiltkit` or `tests/` reads
as an attribute: a report field no caller or test looks at is either dead or
unchecked output.  The
seventh fails on a public function or method in `src/tiltkit` (dunder
methods excepted) whose name nothing in `src/tiltkit` reads outside its own
body, unless `PUBLIC_ALLOWED` names it, with the reason it stays.  The
eighth is the fourth with calls from `tests/` left out: it fails on an
option that no call in `src/tiltkit` sets, since an option that only tests
set is a path the program never takes, unless `SOURCE_UNSET_ALLOWED` names
it, with the reason it stays.  The ninth is the fifth with calls from
`tests/` left out: it fails on an option that every call in `src/tiltkit`
sets, since its default is then one that only tests take, unless
`SOURCE_ALWAYS_SET_ALLOWED` names it, with the reason it stays.  The tenth
fails on an import of a `test_*` module in any file of `tests/`: helpers
that several test modules use live in `conftest.py` or `reference.py`."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tiltkit"


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


def _unread_definitions(sources, selected):
    """(file, line, name) of the definitions in `sources`, a mapping from
    file name to source text, for which `selected(file, node)` holds and
    whose name nothing outside their own body reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    return sorted((fname, node.lineno, node.name)
                  for fname, tree in trees.items() for node in ast.walk(tree)
                  if selected(fname, node)
                  and total[node.name] - _references(node)[node.name] <= 0)


def unused_private_definitions(sources):
    """(file, line, name) of the private definitions in `sources` that
    nothing outside their own body reads."""
    return _unread_definitions(sources, lambda fname, node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name))


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


def _assert_no_unused_imports(root):
    found = [(p.name, line, name) for p in sorted(root.glob("*.py")) if p.name != "__init__.py"
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports: " + ", ".join(
        f"{fname}:{line} {name}" for fname, line, name in found)


def test_no_unused_imports_in_source():
    _assert_no_unused_imports(SRC)


def test_no_unused_imports_in_tests():
    _assert_no_unused_imports(TESTS)


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


def _is_option_default(node):
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (bool, str)))


def _passed(tree):
    """Counter of the calls in the tree, one key per call: (called name,
    the keywords it passes with None for **kwargs, the number of positional
    arguments or None when one is starred)."""
    out = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        out[(name, frozenset(kw.arg for kw in node.keywords),
             None if starred else len(node.args))] += 1
    return out


def _may_pass(call, param, pos):
    """Whether a call, a key of `_passed`, may pass the parameter `param`
    at position `pos` (None for keyword-only): **kwargs and a starred
    argument may."""
    _, keywords, npos = call
    return param in keywords or None in keywords or \
        (pos is not None and (npos is None or npos > pos))


def _must_pass(call, param, pos):
    """Whether a call surely passes `param`: by name, or by position with no
    starred argument."""
    _, keywords, npos = call
    return param in keywords or (pos is not None and npos is not None and npos > pos)


def _options(func, method):
    """(name, position or None) of each parameter of `func` with a default of
    None, a bool or a string; the position counts the arguments a call
    passes, so the self of a method is not counted, and keyword-only
    parameters have none."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = int(method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in func.decorator_list))
    out = [(arg.arg, pos - skip)
           for pos, (arg, default) in enumerate(zip(positional[first:], args.defaults),
                                                start=first)
           if _is_option_default(default)]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if _is_option_default(default)]
    return out


def _functions(node, cls=None):
    """(definition, the name a call uses for it, whether it is a method) for
    each function under `node`; a class name stands for its `__init__`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls if child.name == "__init__" and cls else child.name, cls is not None
            yield from _functions(child)
        else:
            yield from _functions(child, cls)


def _option_calls(sources, callers):
    """(file, line, name, param, pos, calls) for each option of a function in
    `sources`, with `calls` the calls of it in `sources` or `callers` (both
    mappings from file name to source text) outside the function's own
    body, as `_passed` keys."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = Counter()
    for tree in list(trees.values()) + [ast.parse(text) for text in callers.values()]:
        total.update(_passed(tree))
    for fname, tree in trees.items():
        for func, name, method in _functions(tree):
            options = _options(func, method)
            if options:
                calls = [call for call in total - _passed(func) if call[0] == name]
                for param, pos in options:
                    yield fname, func.lineno, name, param, pos, calls


def unset_options(sources, callers):
    """(file, line, "name(param=)") of each option that no call passes."""
    return sorted((fname, line, f"{name}({param}=)")
                  for fname, line, name, param, pos, calls in _option_calls(sources, callers)
                  if not any(_may_pass(call, param, pos) for call in calls))


def always_set_options(sources, callers):
    """(file, line, "name(param=)") of each option that every call passes,
    when there is a call: its default, and any branch on it, is then dead."""
    return sorted((fname, line, f"{name}({param}=)")
                  for fname, line, name, param, pos, calls in _option_calls(sources, callers)
                  if calls and all(_must_pass(call, param, pos) for call in calls))


@pytest.mark.parametrize("source, callers, unset", [
    ("def f(x, flag=False):\n    pass\n\nf(1)\n", {}, ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", {}, []),
    ("def f(x, flag=False):\n    pass\n\nf(1, True)\n", {}, []),
    ("def f(x, n=2):\n    pass\n\nf(1)\n", {}, []),
    ("def f(side='left', known=None):\n    pass\n\nf()\n", {}, ["f(known=)", "f(side=)"]),
    ("def f(n, flag=None):\n    return f(n - 1, flag=flag)\n", {}, ["f(flag=)"]),
    ("def f(*, flag=True):\n    pass\n\nf(flag=False)\n", {}, []),
    ("def f(*, flag=True):\n    pass\n\nf(False)\n", {}, ["f(flag=)"]),
    ("def f(flag=None):\n    pass\n\ndef g(**kw):\n    f(**kw)\n", {}, []),
    ("def f(x, flag=None):\n    pass\n\ndef g(*xs):\n    f(*xs)\n", {}, []),
    ("def f(flag=None):\n    pass\n", {"test_m.py": "f(flag=1)\n"}, []),
    ("class K:\n    def m(self, flag=False):\n        pass\n\nK().m(True)\n", {}, []),
    ("class K:\n    def m(self, x, flag=False):\n        pass\n\nK().m(True)\n", {},
     ["m(flag=)"]),
    ("class K:\n    @staticmethod\n    def s(flag=None):\n        pass\n\nK.s(1)\n", {}, []),
    ("class K:\n    def __init__(self, a, quick=None):\n        pass\n\nK(1)\n", {},
     ["K(quick=)"]),
    ("class K:\n    def __init__(self, a, quick=None):\n        pass\n\nK(1, 2)\n", {}, []),
])
def test_guard_recognises_unset_options(source, callers, unset):
    assert [label for _, _, label in unset_options({"m.py": source}, callers)] == unset


def _read(folder):
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(folder.glob("*.py"))}


def test_no_unset_options_in_source():
    found = unset_options(_read(SRC), _read(TESTS))
    assert not found, "options that no caller sets: " + ", ".join(
        f"{fname}:{line} {label}" for fname, line, label in found)


@pytest.mark.parametrize("source, callers, always", [
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", {}, ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n\nf(1, True)\nf(2, flag=False)\n", {}, ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n\nf(1, True)\nf(2)\n", {}, []),
    ("def f(x, flag=False):\n    pass\n", {}, []),
    ("def f(x, n=2):\n    pass\n\nf(1, 3)\n", {}, []),
    ("def f(flag=None):\n    return f(flag=1)\n\nf()\n", {}, []),
    ("def f(flag=None):\n    pass\n", {"test_m.py": "f(flag=1)\n"}, ["f(flag=)"]),
    ("def f(flag=None):\n    pass\n\ndef g(**kw):\n    f(**kw)\n", {}, []),
    ("def f(x, flag=None):\n    pass\n\ndef g(*xs):\n    f(*xs)\n", {}, []),
    ("def f(*, flag=True):\n    pass\n\nf(flag=False)\nf(True)\n", {}, []),
    ("class K:\n    def __init__(self, a, quick=None):\n        pass\n\nK(1, quick=2)\n",
     {}, ["K(quick=)"]),
    ("class K:\n    def m(self, flag=False):\n        pass\n\nK().m(True)\nK().m()\n", {}, []),
])
def test_guard_recognises_always_set_options(source, callers, always):
    assert [label for _, _, label in always_set_options({"m.py": source}, callers)] == always


def test_no_always_set_options_in_source():
    found = always_set_options(_read(SRC), _read(TESTS))
    assert not found, "options that every call sets: " + ", ".join(
        f"{fname}:{line} {label}" for fname, line, label in found)


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass" or
               isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _record_fields(node):
    """(line, name) of each field of the class `node` when it is a record:
    the annotated names of a dataclass, or the attributes of self that
    `__init__` assigns when assigning them is all it does."""
    if _is_dataclass(node):
        return [(stmt.lineno, stmt.target.id) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    init = next((stmt for stmt in node.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"), None)
    if init is None or not all(
            isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Attribute)
            and isinstance(stmt.targets[0].value, ast.Name) and stmt.targets[0].value.id == "self"
            for stmt in init.body):
        return []
    return [(stmt.lineno, stmt.targets[0].attr) for stmt in init.body]


def records(sources):
    """(file, class name, fields) of each record class in `sources`, a
    mapping from file name to source text, with `fields` as `_record_fields`
    gives them."""
    return [(fname, node.name, fields)
            for fname, text in sources.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and (fields := _record_fields(node))]


def unread_record_fields(sources, readers):
    """(file, line, "Class.field") of each field of a record in `sources`
    that no attribute read in `sources` or `readers` (both mappings from file
    name to source text) names."""
    read = {node.attr
            for text in list(sources.values()) + list(readers.values())
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((fname, line, f"{name}.{field}")
                  for fname, name, fields in records(sources)
                  for line, field in fields if field not in read)


@pytest.mark.parametrize("source, readers, unread", [
    ("@dataclass\nclass R:\n    a: int\n    b: int = 0\n", {}, ["R.a", "R.b"]),
    ("@dataclass\nclass R:\n    a: int\n\ndef f(r):\n    return r.a\n", {}, []),
    ("@dataclass\nclass R:\n    a: int\n", {"test_m.py": "assert R(1).a == 1\n"}, []),
    ("@dataclass(frozen=True)\nclass R:\n    a: int\n", {}, ["R.a"]),
    ("@dataclass\nclass R:\n    a: int\n\ndef f(r):\n    r.a = 1\n", {}, ["R.a"]),
    ("@dataclass\nclass R:\n    a: int\n\nR(a=1)\n", {}, ["R.a"]),
    ("class K:\n    a: int\n", {}, []),
    ("@dataclass\nclass R:\n    a: int\n\n    def g(self):\n        return self.a\n", {}, []),
    ("class R:\n    def __init__(self, a, b=0):\n        self.a = a\n        self.b = b\n", {},
     ["R.a", "R.b"]),
    ("class R:\n    def __init__(self, a):\n        self.a = a\n\ndef f(r):\n    return r.a\n",
     {}, []),
    ("class R:\n    def __init__(self, a):\n        self.a = a\n",
     {"test_m.py": "assert R(1).a == 1\n"}, []),
    ("class R:\n    def __init__(self, a):\n        self.a = a\n\ndef f(r):\n    r.a = 1\n", {},
     ["R.a"]),
    ("class R:\n    def __init__(self):\n        self.checks = []\n", {}, ["R.checks"]),
    ("class R:\n    def __init__(self, a):\n        self.a = a\n\n    def g(self):\n"
     "        return self.a\n", {}, []),
    ("class K:\n    def __init__(self, a):\n        if a is None:\n            raise ValueError\n"
     "        self.a = a\n", {}, []),
    ("class K:\n    def __init__(self, a):\n        self.a = a\n        self.b = self.a\n", {},
     ["K.b"]),
])
def test_guard_recognises_unread_record_fields(source, readers, unread):
    assert [label for _, _, label in unread_record_fields({"m.py": source}, readers)] == unread


def test_no_unread_record_fields_in_source():
    found = unread_record_fields(_read(SRC), _read(TESTS))
    assert not found, "record fields that nothing reads: " + ", ".join(
        f"{fname}:{line} {label}" for fname, line, label in found)


# the report and data classes of `src/tiltkit` that the record guard must see
RECORDS = {
    "Arrow", "PathInfo", "CornerData", "QuotientData", "TriangularPresentation", "Condition",
    "InvariantComparison", "EquivalenceCertificate", "HomotopyHom", "ResolvedComplex",
    "ExceptionalityVerdict", "HomSpace", "Cover", "Resolution", "ExtGroup",
    "TiltingReport", "AxiomCheck", "RecollementReport", "FunctorCriteria",
    "TorsionPairWitness", "TauInverseData", "AprTiltingData", "TriangularityReport",
}


def test_record_guard_sees_every_record():
    # a record whose __init__ does more than assign fields drops out of the guard
    seen = {name for _, name, _ in records(_read(SRC))}
    assert sorted(RECORDS - seen) == []


# "module.name" of each public function or method that nothing in `src/tiltkit`
# calls, with the reason it stays
PUBLIC_ALLOWED = {
    "certs.condition":
        "looks a certificate condition up by id; the glue and acceptance tests read it",
    "modules.in_additive_closure":
        "timed by the benchmark's layer table until it wraps the approximation instead",
}


def unread_public_functions(sources, allowed):
    """(file, line, name) of the public functions and methods in `sources`
    that nothing outside their own body reads and that `allowed`, a
    collection of "module.name" strings, does not name."""
    def selected(fname, node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            and not node.name.startswith("_") \
            and f"{Path(fname).stem}.{node.name}" not in allowed
    return _unread_definitions(sources, selected)


@pytest.mark.parametrize("source, allowed, unread", [
    ("def f():\n    pass\n", (), ["f"]),
    ("def f():\n    pass\n\nf()\n", (), []),
    ("def f(n):\n    return f(n - 1)\n", (), ["f"]),
    ("def f():\n    pass\n", ("m.f",), []),
    ("def f():\n    pass\n", ("other.f",), ["f"]),
    ("class A:\n    def size(self):\n        pass\n", (), ["size"]),
    ("class A:\n    @property\n    def size(self):\n        return 1\n\nA().size\n", (), []),
    ("class A:\n    def __eq__(self, other):\n        return True\n", (), []),
    ("def _f():\n    pass\n", (), []),
    ("def f():\n    def g():\n        pass\n    return g()\n\nf()\n", (), []),
    ("from .m import f\n\ndef f():\n    pass\n", (), []),
])
def test_guard_recognises_unread_public_functions(source, allowed, unread):
    assert [name for _, _, name in unread_public_functions({"m.py": source}, allowed)] == unread


def test_no_unread_public_functions_in_source():
    found = unread_public_functions(_read(SRC), PUBLIC_ALLOWED)
    assert not found, "public functions that nothing in src/tiltkit calls: " + ", ".join(
        f"{fname}:{line} {name}" for fname, line, name in found)


def test_every_allowed_public_function_is_unread():
    # an entry outlives its reason once src/tiltkit calls the function
    unread = {f"{Path(fname).stem}.{name}"
              for fname, _, name in unread_public_functions(_read(SRC), ())}
    assert sorted(set(PUBLIC_ALLOWED) - unread) == []


# "module.name(param=)" of each option that no call in `src/tiltkit` sets,
# with the reason it stays
SOURCE_UNSET_ALLOWED = {
    "cli.main(argv=)": "None reads sys.argv; the tests pass their own argument lists",
}


def options_unset_in_source(sources, allowed):
    """(file, line, "name(param=)") of each option of a function in `sources`
    that no call in `sources` passes and that `allowed`, a collection of
    "module.name(param=)" strings, does not name."""
    return [(fname, line, label) for fname, line, label in unset_options(sources, {})
            if f"{Path(fname).stem}.{label}" not in allowed]


@pytest.mark.parametrize("source, allowed, unset", [
    ("def f(x, flag=False):\n    pass\n\nf(1)\n", (), ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", (), []),
    ("def f(x, flag=False):\n    pass\n\nf(1)\n", ("m.f(flag=)",), []),
    ("def f(x, flag=False):\n    pass\n\nf(1)\n", ("other.f(flag=)",), ["f(flag=)"]),
    ("class K:\n    def __init__(self, a, quick=None):\n        pass\n\nK(1)\n", (),
     ["K(quick=)"]),
    ("def f(flag=None):\n    pass\n\ndef g(**kw):\n    f(**kw)\n", (), []),
])
def test_guard_recognises_options_unset_in_source(source, allowed, unset):
    assert [label for _, _, label in options_unset_in_source({"m.py": source}, allowed)] \
        == unset


def test_guard_ignores_calls_from_tests():
    # the fourth guard counts a call from a test; this one does not
    source = "def f(flag=None):\n    pass\n"
    callers = {"test_m.py": "f(flag=1)\n"}
    assert unset_options({"m.py": source}, callers) == []
    assert [label for _, _, label in options_unset_in_source({"m.py": source}, ())] \
        == ["f(flag=)"]


def test_no_options_unset_in_source():
    found = options_unset_in_source(_read(SRC), SOURCE_UNSET_ALLOWED)
    assert not found, "options that no call in src/tiltkit sets: " + ", ".join(
        f"{fname}:{line} {label}" for fname, line, label in found)


def test_every_allowed_option_is_unset_in_source():
    # an entry outlives its reason once src/tiltkit sets the option
    unset = {f"{Path(fname).stem}.{label}"
             for fname, _, label in options_unset_in_source(_read(SRC), ())}
    assert sorted(set(SOURCE_UNSET_ALLOWED) - unset) == []


# "module.name(param=)" of each option that every call in `src/tiltkit` sets,
# with the reason it keeps its default
SOURCE_ALWAYS_SET_ALLOWED = {
    "translate.build_apr_tilting(enforce=)":
        "enforce is set from --force; a caller that does not ask to build T "
        "anyway gets the refusal",
}


def options_always_set_in_source(sources, allowed):
    """(file, line, "name(param=)") of each option of a function in `sources`
    that every call in `sources` passes, when there is one, and that
    `allowed`, a collection of "module.name(param=)" strings, does not name."""
    return [(fname, line, label) for fname, line, label in always_set_options(sources, {})
            if f"{Path(fname).stem}.{label}" not in allowed]


@pytest.mark.parametrize("source, allowed, always", [
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", (), ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\nf(2)\n", (), []),
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", ("m.f(flag=)",), []),
    ("def f(x, flag=False):\n    pass\n\nf(1, flag=True)\n", ("other.f(flag=)",),
     ["f(flag=)"]),
    ("def f(x, flag=False):\n    pass\n", (), []),
    ("class K:\n    def __init__(self, a, quick=None):\n        pass\n\nK(1, quick=2)\n", (),
     ["K(quick=)"]),
])
def test_guard_recognises_options_always_set_in_source(source, allowed, always):
    assert [label for _, _, label in options_always_set_in_source({"m.py": source}, allowed)] \
        == always


def test_always_set_guard_ignores_calls_from_tests():
    # the fifth guard counts a call from a test that takes the default; this
    # one does not
    source = "def f(flag=None):\n    pass\n\nf(flag=1)\n"
    callers = {"test_m.py": "f()\n"}
    assert always_set_options({"m.py": source}, callers) == []
    assert [label for _, _, label in options_always_set_in_source({"m.py": source}, ())] \
        == ["f(flag=)"]


def test_no_options_always_set_in_source():
    found = options_always_set_in_source(_read(SRC), SOURCE_ALWAYS_SET_ALLOWED)
    assert not found, "options that every call in src/tiltkit sets: " + ", ".join(
        f"{fname}:{line} {label}" for fname, line, label in found)


def test_every_allowed_option_is_always_set_in_source():
    # an entry outlives its reason once a call in src/tiltkit takes the default
    always = {f"{Path(fname).stem}.{label}"
              for fname, _, label in options_always_set_in_source(_read(SRC), ())}
    assert sorted(set(SOURCE_ALWAYS_SET_ALLOWED) - always) == []


# -- tests share helpers through conftest.py and reference.py, not test modules ---------


def imports_of_test_modules(sources):
    """(file, line, module) of each import of a `test_*` module in
    `sources`, a mapping from file name to source text."""
    found = []
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(fname, node.lineno, n) for n in names
                      if n.split(".")[-1].startswith("test_")]
    return sorted(found)


@pytest.mark.parametrize("source, imported", [
    ("from test_cli import A3_DOC\n", ["test_cli"]),
    ("import test_glue as g\n", ["test_glue"]),
    ("from tests.test_modules import middle_term_module\n", ["tests.test_modules"]),
    ("def f():\n    from test_ext_homotopy import typed\n", ["test_ext_homotopy"]),
    ("from conftest import typed\nimport reference\nfrom tiltkit import modules\n", []),
])
def test_guard_recognises_imports_of_test_modules(source, imported):
    assert [m for _, _, m in imports_of_test_modules({"t.py": source})] == imported


def test_no_test_module_imports_another():
    found = imports_of_test_modules(_read(TESTS))
    assert not found, "test modules imported by tests: " + ", ".join(
        f"{fname}:{line} {module}" for fname, line, module in found)
