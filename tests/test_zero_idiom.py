"""Source guard: the exact kernel tests for zero by truthiness.

Fraction, FpElement and int are all false exactly at zero, so `if x:` gives
the same verdicts as `x != field.zero()` without a comparison call.  This
test fails on any `==` / `!=` whose operand is a `....zero()` call or a
name bound to one (`z`, `zero`) anywhere in `src/tiltkit`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltkit"


def _is_zero_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero" and not node.args)


def _zero_names(tree):
    """`z`, `zero` and every name assigned a `....zero()` call."""
    names = {"z", "zero"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            names.update(t.id for t, v in pairs
                         if isinstance(t, ast.Name) and _is_zero_call(v))
    return names


def zero_comparisons(source):
    """Line numbers of `==` / `!=` comparisons against a field zero."""
    tree = ast.parse(source)
    names = _zero_names(tree)

    def is_zero(node):
        return _is_zero_call(node) or (isinstance(node, ast.Name) and node.id in names)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (is_zero(lhs) or is_zero(rhs)):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("snippet, flagged", [
    ("if x != z:\n    pass", True),
    ("y = zero == x", True),
    ("if x == f.zero():\n    pass", True),
    ("o, nil = f.one(), f.zero()\nok = a < b != nil", True),
    ("if x:\n    pass", False),
    ("ok = x == f.one()", False),
    ("z = 0\nok = [z] * 3", False),
])
def test_guard_recognises_zero_comparisons(snippet, flagged):
    assert bool(zero_comparisons(snippet)) is flagged


def test_no_zero_comparisons_in_source():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files
             for line in zero_comparisons(path.read_text(encoding="utf-8"))]
    assert not found, "compare with a field zero by truthiness: " + ", ".join(found)
