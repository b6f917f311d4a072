"""Krull-Schmidt decomposition against the plain candidate search.

`_reference_decompose_instances` is the search as it was before End(X) was
cached, local endomorphism rings were certified before the search and
candidates were built lazily: every module, every time, tries the endo basis,
all products and all pairwise sums for a Fitting split, and certifies a local
End(X) only after every candidate failed.  `_reference_fitting_split` is the
Fitting split it used, with w^d built by d products.  The cached search must
return the same summands (dims and action matrices) and must reuse one
decomposition per module.

The reference reads its projections against the kernel and image vectors,
not against the basis of the summand, so on a module in a non-adapted basis
they are not module maps.  Its projection components are compared on the
modules in adapted bases only; on every module the projections and
inclusions of the cached search are checked to split X.
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
    _min_poly,
    _rational_roots,
    decompose,
    decompose_instances,
    direct_sum,
    endo_algebra,
    hom_space,
    projective_module,
    regular_module,
    submodule,
)

from conftest import a3_zero_relation_algebra, loop_pair_algebra


def _reference_fitting_split(x: Module, endo_mat: Matrix):
    """Split X = ker(w^d) + im(w^d) for w = endo_mat when both are proper."""
    f = x.algebra.field
    d = x.total_dim
    w = endo_mat
    power = Matrix.identity(f, d)
    for _ in range(d):
        power = power * w
    k = power.nullspace()
    if not k or len(k) == d:
        return None
    img = power.column_space_basis()
    return k, img


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
            split = _reference_fitting_split(x, z - ident.scale(lam))
            if split is None:
                continue
            kvecs, ivecs = split
            out = []
            for vecs in (kvecs, ivecs):
                sub, incl = submodule(x, vecs)
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
    endo_alg = FDAlgebra.from_structure_constants(f, table, [idc])
    if endo_alg.dim - endo_alg.radical_dim() == 1:
        return [(x, ModuleMap.identity(x))]
    raise DecompositionError(
        "could not split a module whose endomorphism ring is not local")


def _snapshot(pieces):
    return [(m.dims, m.mats, p.components) for m, p, *_ in pieces]


def _summands(pieces):
    return [(m.dims, m.mats) for m, *_ in pieces]


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
    out = Module(a, x.dims, mats)
    out.validate()
    return out


def _algebras():
    return [loop_pair_algebra(3, 2), loop_pair_algebra(2, 2), loop_pair_algebra(1, 2),
            loop_pair_algebra(3, 3), a3_zero_relation_algebra()]


@functools.cache
def _cases():
    rng = random.Random(5)
    cases = []
    for a in _algebras():
        projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
        cases += [(a, p, False) for p in projectives]
        cases.append((a, regular_module(a), False))
        for _ in range(2):
            picks = [rng.choice(projectives) for _ in range(rng.randint(2, 3))]
            total, _, _ = direct_sum(picks)
            cases.append((a, _rebased(total, rng), True))
    return cases


@pytest.mark.parametrize("case", range(len(_cases())))
def test_decomposition_matches_reference(case):
    _, x, rebased = _cases()[case]
    want = _reference_decompose_instances(x)
    got = modules._decompose_instances(x)
    assert _summands(got) == _summands(want)
    if not rebased:
        assert _snapshot(got) == _snapshot(want)
    assert len(want) == len(decompose_instances(x))


@pytest.mark.parametrize("case", range(len(_cases())))
def test_summand_maps_split_x(case):
    # each projection and inclusion is a module map, proj_i o incl_j is
    # delta_ij id, and the incl_i o proj_i sum to the identity of X
    _, x, _ = _cases()[case]
    pieces = modules._decompose_instances(x)
    total = ModuleMap.zero(x, x)
    for i, (mod_i, proj_i, incl_i) in enumerate(pieces):
        proj_i.check_intertwines()
        incl_i.check_intertwines()
        for j, (mod_j, _, incl_j) in enumerate(pieces):
            want = ModuleMap.identity(mod_i) if i == j else ModuleMap.zero(mod_j, mod_i)
            assert proj_i.compose(incl_j).components == want.components
        total = total.add(incl_i.compose(proj_i))
    assert total.components == ModuleMap.identity(x).components


@pytest.mark.parametrize("a, b", [(2, 2), (3, 2)])
def test_endo_algebra_of_rebased_sum(a, b):
    # P_x + P_y + P_x in a non-adapted basis: one idempotent per summand
    alg = loop_pair_algebra(a, b)
    px, py = projective_module(alg, 0), projective_module(alg, 1)
    x = _rebased(direct_sum([px, py, px])[0], random.Random(11))
    e = endo_algebra(x)
    assert e.dim == hom_space(x, x).dimension
    assert e.idempotent_count == 3


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
    assert modules.hom_space(x, x) is modules.hom_space(x, x)


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
