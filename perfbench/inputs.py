"""Seeded input generator for the benchmark.

Writes the algebra, module and corpus JSON files the CLI reads, from two
families: the loop-pair algebras k<d, f, t>/(d^a, t^b, fd - tf) and the
three-vertex zero-relation algebra u -> v -> w.  It imports nothing from the
program or its tests, so it keeps working when the program's own
serializers change.

The seed never changes an isomorphism class.  It conjugates each module by a
random unimodular change of basis per vertex, so the CLI sees different
matrices but every report, which records only isomorphism invariants,
keeps the same bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path


def loop_pair_doc(a, b, names=("x", "y", "d", "f", "t")):
    """The loop-pair presentation; `names` relabels vertices x, y and arrows
    d, f, t, which gives an isomorphic algebra under other names."""
    x, y, d, f, t = names
    arrows = [{"name": f, "from": x, "to": y}]
    if a > 1:
        arrows.insert(0, {"name": d, "from": x, "to": x})
    if b > 1:
        arrows.append({"name": t, "from": y, "to": y})

    def term(coeff, *path):
        return {"coeff": coeff, "path": list(path)}

    rels = []
    if a > 1:
        rels.append([term("1", *[d] * a)])
    if b > 1:
        rels.append([term("1", *[t] * b)])
    if a > 1 and b > 1:
        rels.append([term("1", d, f), term("-1", f, t)])
    elif a > 1:
        rels.append([term("1", d, f)])
    elif b > 1:
        rels.append([term("1", f, t)])
    return {
        "field": "Q",
        "quiver": {"vertices": [x, y], "arrows": arrows},
        "relations": rels,
        "nilpotency_bound": max(a, b, min(a, b) + 1) + 1,
    }


def a3_zero_relation_doc():
    """u -> v -> w with the composite of the two arrows zero."""
    return {
        "field": "Q",
        "quiver": {"vertices": ["u", "v", "w"],
                   "arrows": [{"name": "a", "from": "u", "to": "v"},
                              {"name": "b", "from": "v", "to": "w"}]},
        "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
        "nilpotency_bound": 3,
    }


# -- matrices over Q, as lists of rows of Fractions -------------------------------------


def _zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def _mul(p, q):
    inner = len(q)
    cols = len(q[0]) if q else 0
    return [[sum((p[i][k] * q[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(p))]


def _shift(n):
    """The nilpotent Jordan block sending e_i to e_{i+1}."""
    m = _zeros(n, n)
    for i in range(n - 1):
        m[i + 1][i] = Fraction(1)
    return m


def _block_diag(blocks, rows, cols):
    out = _zeros(sum(rows), sum(cols))
    r0 = c0 = 0
    for blk, r, c in zip(blocks, rows, cols):
        for i in range(r):
            for j in range(c):
                out[r0 + i][c0 + j] = blk[i][j]
        r0 += r
        c0 += c
    return out


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1 and its integer inverse:
    a signed permutation times a unit lower-triangular matrix."""
    low = _zeros(n, n)
    for i in range(n):
        low[i][i] = Fraction(1)
        for j in range(i):
            low[i][j] = Fraction(rng.choice((-1, 0, 0, 1)))
    low_inv = _zeros(n, n)
    for col in range(n):
        for i in range(n):
            acc = Fraction(1 if i == col else 0)
            for j in range(i):
                acc -= low[i][j] * low_inv[j][col]
            low_inv[i][col] = acc
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    sp = _zeros(n, n)
    sp_inv = _zeros(n, n)
    for i, j in enumerate(perm):
        sp[i][j] = Fraction(signs[i])
        sp_inv[j][i] = Fraction(signs[i])
    return _mul(sp, low), _mul(low_inv, sp_inv)


# -- loop-pair modules --------------------------------------------------------------------


def loop_pair_piece(m, n):
    """A module with k^m at x and k^n at y, d and t acting as single Jordan
    blocks and f the k[s]-linear map that sends the generator of k^m to the
    deepest vector of k^n it may reach (so f d = t f holds)."""
    f = _zeros(n, m)
    if m and n:
        start = max(n - m, 0)
        for i in range(m):
            if start + i < n:
                f[start + i][i] = Fraction(1)
    return {"x": m, "y": n, "d": _shift(m), "t": _shift(n), "f": f}


def loop_pair_module_doc(pieces, rng=None):
    """Direct sum of (m, n) pieces, conjugated by a seeded change of basis."""
    parts = [loop_pair_piece(m, n) for m, n in pieces]
    dx = [p["x"] for p in parts]
    dy = [p["y"] for p in parts]
    mats = {
        "d": _block_diag([p["d"] for p in parts], dx, dx),
        "t": _block_diag([p["t"] for p in parts], dy, dy),
        "f": _block_diag([p["f"] for p in parts], dy, dx),
    }
    nx, ny = sum(dx), sum(dy)
    if rng is not None:
        px, px_inv = _unimodular(rng, nx)
        py, py_inv = _unimodular(rng, ny)
        mats = {"d": _mul(_mul(px, mats["d"]), px_inv),
                "t": _mul(_mul(py, mats["t"]), py_inv),
                "f": _mul(_mul(py, mats["f"]), px_inv)}
    return {"dims": {"x": nx, "y": ny},
            "arrows": {k: [[str(v) for v in row] for row in m]
                       for k, m in mats.items() if m and m[0]}}


def a3_module_doc(dims, rng=None):
    """A module over u -> v -> w: the direct sum of the interval modules
    [u,v], [v,w] and the simples, `dims` counting each as
    (uv, vw, u, v, w).  Arrow a is the identity on the [u,v] copies and b on
    the [v,w] copies, so the composite vanishes."""
    uv, vw, su, sv, sw = dims
    nu, nv, nw = uv + su, uv + vw + sv, vw + sw
    a = _zeros(nv, nu)
    for i in range(uv):
        a[i][i] = Fraction(1)
    b = _zeros(nw, nv)
    for i in range(vw):
        b[i][uv + i] = Fraction(1)
    if rng is not None:
        pu, pu_inv = _unimodular(rng, nu)
        pv, pv_inv = _unimodular(rng, nv)
        pw, pw_inv = _unimodular(rng, nw)
        a = _mul(_mul(pv, a), pu_inv)
        b = _mul(_mul(pw, b), pv_inv)
    arrows = {}
    if nu and nv:
        arrows["a"] = [[str(v) for v in row] for row in a]
    if nv and nw:
        arrows["b"] = [[str(v) for v in row] for row in b]
    return {"dims": {"u": nu, "v": nv, "w": nw}, "arrows": arrows}


def write_json(path: Path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
