"""JSON formats: algebra presentations, modules, complexes, certificates.

All scalars serialize as exact "numerator/denominator" strings; canonical
artifacts use sorted keys and carry no timestamps, so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import FDAlgebra, PathAlgebraPresentation, Quiver
from .certs import Condition, EquivalenceCertificate
from .complexes import Complex
from .linalg import Matrix, PrimeField, QQ
from .modules import Module, ModuleMap, module_from_arrow_matrices


class FormatError(Exception):
    pass


class SizeLimitError(Exception):
    """An input refused for its size, before anything is allocated for it."""


MAX_MODULE_ENTRIES = 10 ** 7    # dense action matrix entries, over all basis elements


def parse_field(spec):
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and "p" in spec:
        return PrimeField(_json_int("field p", spec["p"]))
    raise FormatError(f"unknown field spec {spec!r}")


def _json_int(name, raw):
    """`raw` when it is a JSON integer (not a bool); raises FormatError."""
    if type(raw) is not int:
        raise FormatError(f"{name} must be an integer, got {raw!r}")
    return raw


def _json_list(name, raw):
    """`raw` when it is a JSON list; raises FormatError."""
    if not isinstance(raw, list):
        raise FormatError(f"algebra schema violation: {name} must be a list, got {raw!r:.40}")
    return raw


def _json_name(rule, raw):
    """`raw` when it is a JSON string, as the name of a vertex or an arrow
    must be; raises FormatError stating `rule`."""
    if not isinstance(raw, str):
        raise FormatError(f"algebra schema violation: {rule}, got {raw!r:.40}")
    return raw


def field_to_json(field):
    if field == QQ:
        return "Q"
    return {"p": field.p}


def parse_scalar(field, raw):
    """An integer or a 'num/den' string as an element of `field`; raises
    FormatError for anything else, a zero denominator, or a denominator
    that is zero in the field."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return field.of(raw)
    if not isinstance(raw, str):
        raise FormatError(f"bad scalar {raw!r}; use an integer or 'num/den' string")
    try:
        x = Fraction(raw)
    except ValueError:
        raise FormatError(f"bad scalar {raw!r}; use an integer or 'num/den' string") from None
    except ZeroDivisionError:
        raise FormatError(f"bad scalar {raw!r}: zero denominator") from None
    if field.characteristic and x.denominator % field.characteristic == 0:
        raise FormatError(f"scalar {raw!r} has no value in {field.name}: its denominator "
                          f"is divisible by {field.characteristic}")
    return field.of(x)


def scalar_to_json(field, x):
    return field.format(x)


def parse_matrix(field, rows, shape=None):
    """A list of equally long rows of scalars as a Matrix.  With `shape`, a
    matrix with no rows or no columns may be written in any shape, but only
    with zero entries."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError(f"bad matrix {rows!r}; use a list of rows")
    data = [[parse_scalar(field, x) for x in row] for row in rows]
    if len({len(row) for row in data}) > 1:
        raise FormatError("matrix rows have different lengths")
    if shape is not None:
        want_r, want_c = shape
        got_r = len(data)
        got_c = len(data[0]) if data else 0
        if (got_r, got_c) != (want_r, want_c) and not (want_r == 0 or want_c == 0):
            raise FormatError(f"matrix shape {(got_r, got_c)}, want {shape}")
        if want_r == 0 or want_c == 0:
            if any(any(row) for row in data):
                raise FormatError(f"nonzero entries in a matrix of shape {shape}")
            return Matrix.zeros(field, want_r, want_c)
    cols = len(data[0]) if data else (shape[1] if shape else 0)
    return Matrix(field, data, cols=cols)


# -- algebra presentations ----------------------------------------------------------


def parse_algebra_input(doc, field_override) -> PathAlgebraPresentation:
    """The algebra input schema:
    {"field": "Q" | {"p": N},
     "quiver": {"vertices": [...], "arrows": [{"name", "from", "to"}, ...]},
     "relations": [[{"coeff": "num/den", "path": ["a1", "a2", ...]}, ...], ...],
     "nilpotency_bound": N}
    with relation paths listed in traversal order.  A field_override other
    than None replaces the field the document names."""
    if not isinstance(doc, dict):
        raise FormatError(f"algebra schema violation: expected an object, got {doc!r:.40}")
    try:
        field = field_override if field_override is not None \
            else parse_field(doc.get("field", "Q"))
        qv = doc["quiver"]
        quiver = Quiver([_json_name("a vertex name must be a string", v)
                         for v in _json_list("vertices", qv["vertices"])],
                        [tuple(_json_name(f'arrow "{key}" must be a string', a[key])
                               for key in ("name", "from", "to"))
                         for a in _json_list("arrows", qv["arrows"])])
        relations = []
        for i, rel in enumerate(_json_list("relations", doc.get("relations", []))):
            terms = []
            for term in _json_list("a relation", rel):
                path = tuple(_json_name("a path entry must be an arrow name", name)
                             for name in _json_list("path", term["path"]))
                terms.append((parse_scalar(field, term["coeff"]), path))
            if not terms:
                raise FormatError(f"relation {i} has no terms")
            relations.append(terms)
        bound = _json_int("nilpotency_bound", doc["nilpotency_bound"])
    except (KeyError, TypeError) as err:
        raise FormatError(f"algebra schema violation: {err}") from err
    return PathAlgebraPresentation(quiver, relations, bound, field=field)


def algebra_input_to_json(p: PathAlgebraPresentation):
    return {
        "field": field_to_json(p.field),
        "quiver": {
            "vertices": list(p.quiver.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                       for a in p.quiver.arrows],
        },
        "relations": [
            [{"coeff": scalar_to_json(p.field, c), "path": list(path)}
             for c, path in rel]
            for rel in p.relations
        ],
        "nilpotency_bound": p.nilpotency_bound,
    }


def algebra_to_json(a: FDAlgebra):
    """Inline structure-constant form of an algebra (used inside certificates)."""
    return {
        "field": field_to_json(a.field),
        "dimension": a.dim,
        "basis": list(a.labels),
        "idempotent_names": list(a.idempotent_names),
        "idempotents": [[scalar_to_json(a.field, x) for x in e] for e in a.idempotents],
        "products": [[[scalar_to_json(a.field, x) for x in a.table[i][j]]
                      for j in range(a.dim)] for i in range(a.dim)],
        "block_row": list(a.block_row),
        "block_col": list(a.block_col),
    }


# -- modules --------------------------------------------------------------------------


def parse_module(doc, algebra: FDAlgebra) -> Module:
    """Module schema: {"algebra": ref, "dims": {vertex: n},
    "arrows": {name: [[...]]}} with matrices acting on column coordinates."""
    try:
        dims_doc = doc["dims"]
        arrows_doc = doc.get("arrows", {})
    except (KeyError, TypeError) as err:
        raise FormatError(f"module schema violation: {err}") from err
    if not isinstance(dims_doc, dict):
        raise FormatError('module schema violation: "dims" must map vertex names to dimensions')
    if not isinstance(arrows_doc, dict):
        raise FormatError('module schema violation: "arrows" must map arrow names to matrices')
    names = algebra.idempotent_names
    for name, n in dims_doc.items():
        if type(n) is not int or n < 0:
            raise FormatError(f"dimension at {name!r} must be a non-negative integer, got {n!r}")
        if n and name not in names:
            raise FormatError(f"dimension {n} at {name!r}, which is not a vertex of the quiver")
    dims = [dims_doc.get(name, 0) for name in names]
    entries = sum(dims[r] * dims[c] for r, c in zip(algebra.block_row, algebra.block_col))
    if entries > MAX_MODULE_ENTRIES:
        raise SizeLimitError(f"module needs {entries} matrix entries, above {MAX_MODULE_ENTRIES}")
    if algebra.quiver is None:
        raise FormatError("algebra has no quiver provenance; cannot parse arrow matrices")
    q = algebra.quiver
    for name, raw in arrows_doc.items():
        if name not in q.arrow_index and raw is not None \
                and any(any(row) for row in parse_matrix(algebra.field, raw).data):
            raise FormatError(f"nonzero matrix for {name!r}, which is not an arrow of the quiver")
    arrow_mats = {}
    for arr in q.arrows:
        shape = (dims[q.vertex_index[arr.target]], dims[q.vertex_index[arr.source]])
        raw = arrows_doc.get(arr.name)
        if raw is None:
            arrow_mats[arr.name] = Matrix.zeros(algebra.field, *shape)
        else:
            arrow_mats[arr.name] = parse_matrix(algebra.field, raw, shape)
    return module_from_arrow_matrices(algebra, dims, arrow_mats)


# -- complexes ------------------------------------------------------------------------


def parse_complex(doc, algebra, module_parser) -> Complex:
    """Complex schema: {"degrees": [lo, hi], "modules": [...],
    "differentials": [{vertex: [[...]]}, ...]}."""
    try:
        degrees = doc["degrees"]
        mods_doc = doc["modules"]
        diffs_doc = doc.get("differentials", [])
    except (KeyError, TypeError) as err:
        raise FormatError(f"complex schema violation: {err}") from err
    if not (isinstance(degrees, list) and len(degrees) == 2
            and all(type(d) is int for d in degrees)):
        raise FormatError('complex schema violation: "degrees" must be [lo, hi], two integers')
    if not isinstance(mods_doc, list):
        raise FormatError('complex schema violation: "modules" must be a list of modules')
    if not isinstance(diffs_doc, list) or not all(isinstance(dd, dict) for dd in diffs_doc):
        raise FormatError('complex schema violation: "differentials" must be a list of '
                          'maps from vertex names to matrices')
    lo, hi = degrees
    mods = [module_parser(m) for m in mods_doc]
    if len(mods) != hi - lo + 1:
        raise FormatError("modules list does not match the degree range")
    if len(diffs_doc) != max(len(mods) - 1, 0):
        raise FormatError("need one differential between consecutive modules")
    names = algebra.idempotent_names
    diffs = []
    for i, dd in enumerate(diffs_doc):
        for name, raw in dd.items():
            if name not in names and raw is not None \
                    and not parse_matrix(algebra.field, raw).is_zero():
                raise FormatError(f"nonzero matrix for {name!r} in differential {i}, "
                                  "which is not a vertex of the algebra")
        src, tgt = mods[i], mods[i + 1]
        comps = []
        for j, name in enumerate(names):
            raw = dd.get(name)
            if raw is None:
                comps.append(Matrix.zeros(algebra.field, tgt.dims[j], src.dims[j]))
            else:
                comps.append(parse_matrix(algebra.field, raw, (tgt.dims[j], src.dims[j])))
        diffs.append(ModuleMap(src, tgt, comps))
    return Complex(algebra, lo, mods, diffs)


# -- certificates ----------------------------------------------------------------------


def jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        raise FormatError("floating point values are never serialized")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Module):
        return {"dims": list(x.dims)}
    if isinstance(x, FDAlgebra):
        return algebra_to_json(x)
    return str(x)


def condition_to_json(c: Condition):
    out = {"id": c.id, "verdict": jsonable(c.verdict),
           "window": list(c.window) if c.window is not None else None}
    if c.witness is not None:
        out["witness"] = jsonable(c.witness)
    return out


def certificate_to_json(cert: EquivalenceCertificate):
    out = {
        "kind": cert.kind,
        "conditions": [condition_to_json(c) for c in cert.conditions],
        "verdict": cert.verdict,
        "notes": list(cert.notes),
    }
    if cert.endo is not None:
        out["E"] = algebra_to_json(cert.endo)
    if cert.endo_triangular is not None:
        tri = cert.endo_triangular
        out["E_triangular"] = {
            "corner_b_dim": tri.algebra_b.dim,
            "corner_c_dim": tri.algebra_c.dim,
            "bimodule_dim": tri.bimodule.dim,
        }
    if cert.invariants is not None:
        out["invariants"] = {k: {"left": jsonable(a), "right": jsonable(b),
                                 "equal": a == b}
                             for k, (a, b) in cert.invariants.values.items()}
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
