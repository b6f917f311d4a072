"""Per-layer tracing from outside the program.

Wraps public functions and methods of the `tiltkit` modules, records calls,
inclusive time and self time for each, plus work counters read from the
arguments and results the wrapper sees.  Nothing inside `src/` changes: the
wrappers are installed into every `tiltkit` module namespace that binds the
target (and onto the class for methods) and removed again afterwards.

Timing rules:
- incl_s counts only the outermost activation of a function, so recursion
  counts once;
- self_s is a span's duration minus the durations of the wrapped spans
  nested directly inside it.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from fractions import Fraction


def _count_cells(tr, args, result):
    tr.add("linalg.rank_and_rref.cells", args[0].rows * args[0].cols)


def _count_mul_ops(tr, args, result):
    a, b = args
    tr.add("linalg.mul.ops", a.rows * a.cols * b.cols)


def _count_solve_lhs(tr, args, result):
    m = args[0]
    key = hashlib.blake2b(repr((m.rows, m.cols, m.data)).encode(), digest_size=16).digest()
    if key not in tr.op_lhs:
        tr.op_lhs.add(key)
        tr.add("linalg.solve.distinct_lhs", 1)


def _count_hom_space(tr, args, result):
    x, y = args[0], args[1]
    tr.add("modules.hom_space.unknowns", x.total_dim * y.total_dim)
    tr.add("modules.hom_space.result_dim", result.dimension)


def _count_summands(tr, args, result):
    tr.add("modules.decompose_instances.summands", len(result))


def _count_closure(tr, args, result):
    tr.add("modules.in_additive_closure.input_dim", args[0].total_dim)
    tr.add("modules.in_additive_closure.hits", 1 if result is True else 0)


# (layer, module, attribute path, metric name, counter or None).  A counter
# receives the tracer, the positional arguments and the result.
TIMED = [
    ("linalg", "linalg", "Matrix.rank_and_rref", "rank_and_rref", _count_cells),
    ("linalg", "linalg", "Matrix.__mul__", "mul", _count_mul_ops),
    ("linalg", "linalg", "Matrix.solve", "solve", _count_solve_lhs),
    ("algebra", "algebra", "build_fd_algebra", "build_fd_algebra", None),
    ("algebra", "algebra", "FDAlgebra.check_axioms", "check_axioms", None),
    ("algebra", "algebra", "FDAlgebra.radical_basis", "radical_basis", None),
    ("modules", "modules", "hom_space", "hom_space", _count_hom_space),
    ("modules", "modules", "HomSpace.coordinates_of", "coordinates_of", None),
    ("modules", "modules", "decompose_instances", "decompose_instances", _count_summands),
    ("modules", "modules", "in_additive_closure", "in_additive_closure", _count_closure),
    ("modules", "modules", "endo_algebra", "endo_algebra", None),
    ("modules", "modules", "min_projective_resolution", "min_projective_resolution", None),
    ("modules", "modules", "ext", "ext", None),
    ("modules", "modules", "tilting_module_check", "tilting_module_check", None),
    ("translate", "translate", "tau_inverse", "tau_inverse", None),
    ("translate", "translate", "build_apr_tilting", "build_apr_tilting", None),
    ("translate", "translate", "apr_equivalent_algebra", "apr_equivalent_algebra", None),
    ("complexes", "complexes", "hom_homotopy", "hom_homotopy", None),
    ("complexes", "complexes", "HomotopyHom.coordinates_of", "coordinates_of", None),
    ("complexes", "complexes", "proj_resolve", "proj_resolve", None),
    ("glue", "glue", "homotopy_endo_algebra", "homotopy_endo_algebra", None),
    ("glue", "glue", "glue_jshriek", "glue_jshriek", None),
    ("glue", "glue", "shifted_stalk_glue", "shifted_stalk_glue", None),
    ("recollement", "recollement", "verify_recollement_axioms",
     "verify_recollement_axioms", None),
    ("recollement", "recollement", "functor_criteria_check", "functor_criteria_check", None),
    ("recollement", "recollement", "torsion_canonical_sequence",
     "torsion_canonical_sequence", None),
    ("certs", "certs", "invariants_compare", "invariants_compare", None),
    ("formats", "formats", "canonical_json", "canonical_json", None),
    ("cli", "cli", "load_algebra", "load_algebra", None),
]

# Called too often to time: only their calls are counted.
COUNTED = [
    ("algebra", "algebra", "FDAlgebra.multiply", "multiply"),
]

# Work counters and the ratios derived from them, with their units.
EXTRA = {
    "linalg.rank_and_rref.cells": "count",
    "linalg.mul.ops": "count",
    "linalg.solve.distinct_lhs": "count",
    "linalg.solve.solves_per_lhs": "ratio",
    "linalg.fraction_eq.calls": "count",
    "modules.hom_space.unknowns": "count",
    "modules.hom_space.result_dim": "count",
    "modules.decompose_instances.summands": "count",
    "modules.in_additive_closure.input_dim": "count",
    "modules.in_additive_closure.hit_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for layer, _, _, name, _ in TIMED:
        base = f"{layer}.{name}"
        units[f"{base}.calls"] = "count"
        units[f"{base}.incl_s"] = "s"
        units[f"{base}.self_s"] = "s"
    for layer, _, _, name in COUNTED:
        units[f"{layer}.{name}.calls"] = "count"
    units.update(EXTRA)
    return units


def _resolve(modname, path):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(f"tiltkit.{modname}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def _bindings(owner, attr, original):
    """Every place the target is bound: its class, or each tiltkit module
    namespace that holds the same function object."""
    if isinstance(owner, type):
        return [owner]
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "tiltkit" or name.startswith("tiltkit."))
            and getattr(mod, attr, None) is original]


class Tracer:
    """Wrappers, counters and the span stack of one traced run."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_ = {}
        self.counts = {}
        self.stack = []
        self.op_lhs = set()     # one traced process runs one operation
        self.absent = []
        self._undo = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def state(self):
        """The raw totals, as JSON, for absorb() in another process."""
        return {"calls": self.calls, "incl": self.incl, "self": self.self_,
                "counts": self.counts, "absent": self.absent}

    def absorb(self, state):
        """Add the totals of another tracer's state()."""
        for mine, theirs in ((self.calls, state["calls"]), (self.incl, state["incl"]),
                             (self.self_, state["self"]), (self.counts, state["counts"])):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.absent += [name for name in state["absent"] if name not in self.absent]

    def _timed(self, key, fn, counter):
        calls, incl, self_ = self.calls, self.incl, self.self_
        stack = self.stack
        clock = time.perf_counter
        active = [0]

        def wrapper(*args, **kwargs):
            calls[key] += 1
            child = [0.0]
            stack.append(child)
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[0] -= 1
                self_[key] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if not active[0]:
                    incl[key] += dt
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, modname, path, make):
        target = _resolve(modname, path)
        if target is None:
            self.absent.append(f"tiltkit.{modname}.{path}")
            return
        owner, attr, original = target
        wrapper = make(original)
        for place in _bindings(owner, attr, original):
            self._undo.append((place, attr, original))
            setattr(place, attr, wrapper)

    def install(self):
        import tiltkit.cli  # noqa: F401  (loads every layer module)
        for layer, modname, path, name, counter in TIMED:
            key = f"{layer}.{name}"
            self.calls[key] = 0
            self.incl[key] = 0.0
            self.self_[key] = 0.0
            self._install(modname, path,
                          lambda fn, key=key, counter=counter: self._timed(key, fn, counter))
        for layer, modname, path, name in COUNTED:
            key = f"{layer}.{name}"
            self.calls[key] = 0
            self._install(modname, path, lambda fn, key=key: self._counted(key, fn))
        key = "linalg.fraction_eq"
        self.calls[key] = 0
        self._undo.append((Fraction, "__eq__", Fraction.__dict__["__eq__"]))
        Fraction.__eq__ = self._counted(key, Fraction.__dict__["__eq__"])

    def uninstall(self):
        for place, attr, original in reversed(self._undo):
            setattr(place, attr, original)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self):
        """name -> value for every name in metric_units(); 0 where nothing ran."""
        tables = {"calls": self.calls, "incl_s": self.incl, "self_s": self.self_}
        out = {}
        for name in metric_units():
            key, _, kind = name.rpartition(".")
            out[name] = tables[kind].get(key, 0) if kind in tables \
                else self.counts.get(name, 0)
        lhs = out["linalg.solve.distinct_lhs"]
        out["linalg.solve.solves_per_lhs"] = out["linalg.solve.calls"] / lhs if lhs else 0.0
        closure = out["modules.in_additive_closure.calls"]
        hits = self.counts.get("modules.in_additive_closure.hits", 0)
        out["modules.in_additive_closure.hit_ratio"] = hits / closure if closure else 0.0
        return out
