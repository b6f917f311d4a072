"""Source guard: no `/` on field elements outside the field classes.

Over Q an integral rational is a plain int, and `a / b` on two ints is a
float, which is never an exact field element.  Division goes through
`field.inv` instead.  This test fails on any true division (`/` or `/=`)
in `src/tiltkit` other than those in the body of a field class in
`linalg.py` (`FpElement`, `RationalField`, `PrimeField`) and the `Path`
joins of `cli.py`, which start from the workspace root `root`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltkit"
FIELD_CLASSES = {"FpElement", "RationalField", "PrimeField"}


def _leftmost(node):
    while isinstance(node, ast.BinOp):
        node = node.left
    return node


def true_divisions(source, allowed_classes=(), path_roots=()):
    """Line numbers of the true divisions in `source`, except those inside a
    class named in `allowed_classes` and the `/` chains whose leftmost
    operand is a name in `path_roots`."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in allowed_classes:
            allowed.update(id(sub) for sub in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            root = _leftmost(node)
            if not (isinstance(root, ast.Name) and root.id in path_roots):
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("snippet, flagged", [
    ("y = a / b", True),
    ("x /= n", True),
    ("y = tr / dim if dim else 0", True),
    ("class RationalField:\n    def inv(self, x):\n        return 1 / x", False),
    ("class Matrix:\n    def inv(self, x):\n        return 1 / x", True),
    ("p = root / 'objects' / name", False),
    ("p = base / 'objects'", True),
    ("q = a // b", False),
    ("y = a * f.inv(b)", False),
])
def test_guard_recognises_true_division(snippet, flagged):
    found = true_divisions(snippet, allowed_classes=FIELD_CLASSES, path_roots={"root"})
    assert bool(found) is flagged


def test_no_true_division_in_source():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        classes = FIELD_CLASSES if path.name == "linalg.py" else ()
        roots = {"root"} if path.name == "cli.py" else ()
        found += [f"{path.name}:{line}" for line in
                  true_divisions(path.read_text(encoding="utf-8"), classes, roots)]
    assert not found, "divide field elements with field.inv: " + ", ".join(found)
