"""Krull-Schmidt decomposition against the plain candidate search.

`_reference_decompose_instances` is the search as it was before End(X) was
cached, local endomorphism rings were certified before the search and
candidates were built lazily: every module, every time, tries the endo basis,
all products and all pairwise sums for a Fitting split, and certifies a local
End(X) only after every candidate failed.  The cached search must return the
same summands (dims and action matrices) with the same projection
components, and must reuse one decomposition per module.
"""

import functools
import random
from fractions import Fraction

import pytest

import tiltkit.modules as modules
from tiltkit.algebra import FDAlgebra
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    DecompositionError,
    Module,
    ModuleMap,
    _fitting_split,
    _min_poly,
    _rational_roots,
    decompose,
    decompose_instances,
    direct_sum,
    hom_space,
    projective_module,
    regular_module,
    submodule,
)

from conftest import a3_zero_relation_algebra, loop_pair_algebra


def _reference_decompose_instances(x: Module):
    if x.is_zero():
        return []
    f = x.algebra.field
    endo = hom_space(x, x)
    if endo.dimension == 1:
        return [(x, ModuleMap.identity(x))]
    if f.characteristic:
        # the eigenvalue search below (_rational_roots) works over Q only
        raise DecompositionError(
            f"decomposition over the prime field {f.name} is not supported yet")
    mats = [b.total_matrix() for b in endo.basis]
    candidates = list(mats)
    for i in range(len(mats)):
        for j in range(len(mats)):
            candidates.append(mats[i] * mats[j])
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            candidates.append(mats[i] + mats[j])
    ident = Matrix.identity(f, x.total_dim)
    for z in candidates:
        mp = _min_poly(f, z)
        for lam in _rational_roots(mp):
            split = _fitting_split(x, z - ident.scale(lam))
            if split is None:
                continue
            kvecs, ivecs = split
            out = []
            for vecs in (kvecs, ivecs):
                sub, incl = submodule(x, vecs, check_stable=False)
                # projection onto the summand along the complement
                other = ivecs if vecs is kvecs else kvecs
                basis_cols = [list(v) for v in vecs] + [list(v) for v in other]
                p = Matrix.from_columns(f, basis_cols, rows=x.total_dim).inverse()
                proj_total = Matrix(f, p.data[: len(vecs)], cols=x.total_dim)
                comps = []
                for i in range(len(x.dims)):
                    lo, hi = x.block_slice(i)
                    slo, shi = sub.block_slice(i)
                    # rows of proj_total corresponding to sub block i, restricted
                    rows = []
                    for rr in range(slo, shi):
                        rows.append([proj_total.data[rr][cc] for cc in range(lo, hi)])
                    comps.append(Matrix(f, rows, cols=hi - lo) if rows
                                 else Matrix.zeros(f, 0, hi - lo))
                out.append((sub, ModuleMap(x, sub, comps)))
            result = []
            for sub, proj in out:
                for inner_mod, inner_proj in _reference_decompose_instances(sub):
                    result.append((inner_mod, inner_proj.compose(proj)))
            return result
    # no split found: certify indecomposability or give up loudly
    table = []
    for i, b1 in enumerate(endo.basis):
        row = []
        for b2 in endo.basis:
            row.append(endo.coordinates_of(b1.compose(b2)))
        table.append(row)
    idc = endo.coordinates_of(ModuleMap.identity(x))
    endo_alg = FDAlgebra.from_structure_constants(
        f, [f"h{i}" for i in range(endo.dimension)], table, [idc], check=False)
    if endo_alg.dim - endo_alg.radical_dim() == 1:
        return [(x, ModuleMap.identity(x))]
    raise DecompositionError(
        "could not split a module whose endomorphism ring is not local")


def _snapshot(pieces):
    return [(m.dims, m.mats, p.components) for m, p in pieces]


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: a product of elementary
    row additions and a signed row permutation."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows = [[-a for a in r] if rng.random() < 0.5 else r for r in rows]
    return Matrix(QQ, rows, cols=n)


def _rebased(x: Module, rng):
    """x in a random unimodular basis of each block: the action of basis
    element k becomes g_r * x_k * g_c^-1."""
    a = x.algebra
    gs = [_unimodular(rng, d) for d in x.dims]
    invs = [g.inverse() if g.rows else g for g in gs]
    mats = [gs[a.block_row[k]] * m * invs[a.block_col[k]] for k, m in enumerate(x.mats)]
    return Module(a, x.dims, mats, check=True)


def _algebras():
    return [loop_pair_algebra(3, 2), loop_pair_algebra(2, 2), loop_pair_algebra(1, 2),
            loop_pair_algebra(3, 3), a3_zero_relation_algebra()]


@functools.cache
def _cases():
    rng = random.Random(5)
    cases = []
    for a in _algebras():
        projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
        cases += [(a, p) for p in projectives]
        cases.append((a, regular_module(a)))
        for _ in range(2):
            picks = [rng.choice(projectives) for _ in range(rng.randint(2, 3))]
            total, _, _ = direct_sum(picks)
            cases.append((a, _rebased(total, rng)))
    return cases


@pytest.mark.parametrize("case", range(len(_cases())))
def test_decomposition_matches_reference(case):
    _, x = _cases()[case]
    want = _snapshot(_reference_decompose_instances(x))
    assert _snapshot(modules._decompose_instances(x)) == want
    assert len(want) == len(decompose_instances(x))


def test_repeated_calls_share_one_decomposition():
    a = loop_pair_algebra(3, 2)
    x = _rebased(direct_sum([projective_module(a, 0), projective_module(a, 1),
                             projective_module(a, 0)])[0], random.Random(11))
    search_order = _snapshot(modules._decompose_instances(x))
    first = decompose_instances(x)
    want = _snapshot(first)
    first.reverse()
    second = decompose_instances(x)
    assert _snapshot(second) == want
    assert _snapshot(modules._decompose_instances(x)) == search_order
    assert modules._decompose_instances(x) is modules._decompose_instances(x)
    assert modules._endo_space(x) is modules._endo_space(x)


def test_local_endo_skips_candidate_search(monkeypatch):
    calls = []

    def counting_min_poly(f, mat):
        calls.append(mat)
        return _min_poly(f, mat)

    monkeypatch.setattr(modules, "_min_poly", counting_min_poly)
    a = loop_pair_algebra(3, 3)
    px = projective_module(a, 0)
    assert hom_space(px, px).dimension >= 2
    parts = decompose(px)
    assert len(parts) == 1 and parts[0][1] == 1
    assert calls == []
    decompose(regular_module(a))
    assert calls, "a decomposable module still runs the candidate search"
