"""`FDAlgebra.mult_matrix`, the one primitive behind every multiplication
inside Peirce blocks, compared with the eight constructions it replaced.

The oracles below are those constructions as they were written before the
primitive existed, copied verbatim up to the names of their arguments:
the action matrices of `detect_triangular`, the action matrices of
`projective_module`, `IdempotentRecollement._corner_column` and
`_right_mult_corner_map`, `translate.right_mult_map`, and the glue helpers
`_right_mult_ae_b`, `_right_mult_on_bimodule` and `_m_into_ae_b` (right
multiplication by e_B from the layout of M into the layout of A e_B).  Each
test builds the same matrix with the primitive, over the layouts the call
sites now pass, and requires equal entries of equal types (over Q, of exact
rational types, ``conftest.entry_types``).
"""

import functools
import random
from fractions import Fraction

import pytest

from tiltkit.algebra import AlgebraError, FDAlgebra, detect_triangular
from tiltkit.complexes import inflate_complex, stalk_complex
from tiltkit.glue import _m_layout
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    ModuleError,
    ModuleMap,
    bimodule_left_module,
    direct_sum,
    projective_module,
)
from tiltkit.recollement import IdempotentRecollement

from conftest import a3_zero_relation_algebra, entry_types, glued_loop_fixture, loop_pair_algebra
from test_algebra_generators import rebased

F101 = PrimeField(101)
FIELDS = [QQ, F101]
LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (5, 5), (6, 5)]


# -- the old code -----------------------------------------------------------------


def oracle_detect_triangular_actions(a: FDAlgebra, idem_subset):
    subset = list(idem_subset)
    sset = set(subset)
    pres = detect_triangular(a, subset)
    corner_b, corner_c = pres.corner_b, pres.corner_c
    m_idx = [k for k in range(a.dim)
             if a.block_row[k] not in sset and a.block_col[k] in sset]
    pos = {k: t for t, k in enumerate(m_idx)}
    f = a.field
    z = f.zero()

    def action_matrix(vec_amb, side):
        cols = []
        for k in m_idx:
            bk = a.coordinate_vector(k)
            prod = a.multiply(vec_amb, bk) if side == "left" else a.multiply(bk, vec_amb)
            col = [z] * len(m_idx)
            for kk, x in enumerate(prod):
                if x:
                    if kk not in pos:
                        raise AlgebraError("bimodule action leaves the M corner")
                    col[pos[kk]] = x
            cols.append(col)
        return Matrix.from_columns(f, cols, rows=len(m_idx))

    left_action = [action_matrix(corner_c.embed_vector(corner_c.algebra.coordinate_vector(t)),
                                 "left") for t in range(corner_c.algebra.dim)]
    right_action = [action_matrix(corner_b.embed_vector(corner_b.algebra.coordinate_vector(t)),
                                  "right") for t in range(corner_b.algebra.dim)]
    return left_action, right_action


def oracle_projective_mats(a: FDAlgebra, i):
    col_basis = {r: a.basis_in_block(r, i) for r in range(a.idempotent_count)}
    f = a.field
    z = f.zero()
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        src = col_basis[c]
        tgt = col_basis[r]
        pos = {idx: t for t, idx in enumerate(tgt)}
        cols = []
        for m_idx in src:
            col = [z] * len(tgt)
            for t, val in a.sparse_table[k][m_idx]:
                col[pos[t]] = val
            cols.append(col)
        mats.append(Matrix.from_columns(f, cols, rows=len(tgt)))
    return mats


def oracle_corner_column_mats(rec: IdempotentRecollement, i):
    a = rec.ambient
    c = rec.corner
    f = a.field
    z = f.zero()
    per_block = {s: a.basis_in_block(s, i) for s in rec.subset}
    mats = []
    for l, kl in enumerate(c.basis_indices):
        r = c.algebra.block_row[l]
        cc = c.algebra.block_col[l]
        src = per_block[rec.subset[cc]]
        tgt = per_block[rec.subset[r]]
        pos = {k: t for t, k in enumerate(tgt)}
        cols = []
        for u in src:
            col = [z] * len(tgt)
            for k, val in a.sparse_table[kl][u]:
                col[pos[k]] = val
            cols.append(col)
        mats.append(Matrix.from_columns(f, cols, rows=len(tgt)) if cols
                    else Matrix.zeros(f, len(tgt), 0))
    return mats


def oracle_right_mult_corner_comps(rec: IdempotentRecollement, k, r, cc):
    a = rec.ambient
    f = a.field
    z = f.zero()
    comps = []
    for si, s in enumerate(rec.subset):
        sb = a.basis_in_block(s, r)
        tb = a.basis_in_block(s, cc)
        pos = {kk: t for t, kk in enumerate(tb)}
        cols = []
        for u in sb:
            col = [z] * len(tb)
            for kk, val in a.sparse_table[u][k]:
                col[pos[kk]] = val
            cols.append(col)
        comps.append(Matrix.from_columns(f, cols, rows=len(tb)) if cols
                     else Matrix.zeros(f, len(tb), 0))
    return comps


def oracle_right_mult_map(a: FDAlgebra, i: int, j: int, x_vec):
    p_i = projective_module(a, i)
    p_j = projective_module(a, j)
    f = a.field
    z = f.zero()
    comps = []
    for r in range(a.idempotent_count):
        src = a.basis_in_block(r, i)
        tgt = a.basis_in_block(r, j)
        pos = {k: t for t, k in enumerate(tgt)}
        cols = []
        for b in src:
            prod = a.multiply(a.coordinate_vector(b), x_vec)
            col = [z] * len(tgt)
            for k, val in enumerate(prod):
                if val:
                    if k not in pos:
                        raise ModuleError("right multiplication left the target corner")
                    col[pos[k]] = val
            cols.append(col)
        comps.append(Matrix.from_columns(f, cols, rows=len(tgt)) if cols
                     else Matrix.zeros(f, len(tgt), 0))
    return ModuleMap(p_i, p_j, comps)


def oracle_right_mult_ae_b(pres, amb_vec, ae_b):
    a = pres.ambient
    f = a.field
    layout = {}
    for r in range(a.idempotent_count):
        cols = []
        for i in pres.b_idems:
            cols.extend(a.basis_in_block(r, i))
        layout[r] = cols
    comps = []
    for r in range(a.idempotent_count):
        src_cols = layout[r]
        pos = {k: t for t, k in enumerate(src_cols)}
        comp = Matrix.zeros(f, len(src_cols), len(src_cols))
        for cidx, k in enumerate(src_cols):
            prod = a.multiply(a.coordinate_vector(k), amb_vec)
            for kk, val in enumerate(prod):
                if val:
                    comp.data[pos[kk]][cidx] = val
        comps.append(comp)
    out = ModuleMap(ae_b, ae_b, comps)
    out.check_intertwines()
    return out


def oracle_right_mult_on_bimodule(pres, amb_vec, m_c):
    bim = pres.bimodule
    f = pres.ambient.field
    b_coords = [amb_vec[k] for k in pres.corner_b.basis_indices]
    act = Matrix.zeros(f, bim.dim, bim.dim)
    for k, c in enumerate(b_coords):
        if c:
            act = act + bim.right_action[k].scale(c)
    comps = []
    for i in range(bim.left_algebra.idempotent_count):
        rows = [t for t in range(bim.dim) if bim.block_row[t] == i]
        comp = Matrix(f, [[act.data[rr][cc] for cc in rows] for rr in rows],
                      cols=len(rows)) if rows else Matrix.zeros(f, 0, 0)
        comps.append(comp)
    return ModuleMap(m_c, m_c, comps)


def oracle_m_into_ae_b(pres, m_infl, ae_b):
    a = pres.ambient
    f = a.field
    bim = pres.bimodule
    layout = {}
    for r in range(a.idempotent_count):
        cols = []
        for i in pres.b_idems:
            cols.extend(a.basis_in_block(r, i))
        layout[r] = {k: t for t, k in enumerate(cols)}
    comps = []
    for r in range(a.idempotent_count):
        rows_m = [t for t in range(bim.dim)
                  if pres.c_idems[bim.block_row[t]] == r]
        comp = Matrix.zeros(f, ae_b.dims[r], len(rows_m))
        for col, t in enumerate(rows_m):
            amb_index = pres.m_basis_indices[t]
            comp.data[layout[r][amb_index]][col] = f.one()
        comps.append(comp)
    out = ModuleMap(m_infl, ae_b, comps)
    out.check_intertwines()
    return out


# -- the algebras ------------------------------------------------------------------


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in LOOP_PAIRS}
    out["a3z"] = lambda: a3_zero_relation_algebra(field)
    out["rebased-lp32"] = lambda: rebased(loop_pair_algebra(3, 2, field=field), 3)
    if field == QQ:
        out["glued-jordan-322"] = lambda: glued_loop_fixture(3, 2, 2).ambient
    return out


CASES = [(field, name) for field in FIELDS for name in _builders(field)]


@functools.cache
def algebra(field, name):
    return _builders(field)[name]()


def case_id(case):
    return f"{case[0]!r}-{case[1]}"


def splits(a):
    """The proper nonempty idempotent subsets of a."""
    n = a.idempotent_count
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n - 1)]


def triangular_splits(a):
    return [s for s in splits(a) if detect_triangular(a, s) is not None]


def random_element(a, indices, seed):
    """A seeded random combination of the basis elements in `indices`."""
    rng = random.Random(seed)
    f = a.field
    v = a.zero_vector()
    for k in indices:
        v[k] = f.of(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3])))
    return v


def same(got, want):
    """Equal shapes and entries, and entries of equal types."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.data == want.data
    assert entry_types(got.field, got.data) == entry_types(want.field, want.data)


def same_all(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        same(g, w)


# -- the eight sites ---------------------------------------------------------------


def test_every_case_has_a_triangular_split():
    for case in CASES:
        assert triangular_splits(algebra(*case)), case


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_detect_triangular_actions_match_oracle(case):
    a = algebra(*case)
    for subset in triangular_splits(a):
        left, right = oracle_detect_triangular_actions(a, subset)
        bim = detect_triangular(a, subset).bimodule
        same_all(bim.left_action, left)
        same_all(bim.right_action, right)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projective_module_matches_oracle(case):
    a = algebra(*case)
    for i in range(a.idempotent_count):
        same_all(projective_module(a, i).mats, oracle_projective_mats(a, i))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_corner_column_matches_oracle(case):
    a = algebra(*case)
    for subset in splits(a):
        rec = IdempotentRecollement(a, subset)
        for i in range(a.idempotent_count):
            same_all(rec._corner_column(i).mats, oracle_corner_column_mats(rec, i))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_on_corner_columns_matches_oracle(case):
    # the map e A e_r -> e A e_cc of j_lower, for each basis element k
    a = algebra(*case)
    for subset in splits(a):
        rec = IdempotentRecollement(a, subset)
        for k in range(a.dim):
            r, cc = a.block_row[k], a.block_col[k]
            got = [a.mult_matrix(k, a.basis_in_block(s, r), a.basis_in_block(s, cc),
                                 left=False) for s in subset]
            same_all(got, oracle_right_mult_corner_comps(rec, k, r, cc))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_between_projectives_matches_oracle(case):
    # the components of A e_i -> A e_j in the transpose behind tau^-1, for
    # each basis element of e_i A e_j and one random element of it
    a = algebra(*case)
    n = a.idempotent_count
    for i in range(n):
        for j in range(n):
            block = a.basis_in_block(i, j)
            elements = [a.coordinate_vector(k) for k in block]
            if block:
                elements.append(random_element(a, block, 7 * i + j))
            for x in elements:
                got = [a.mult_matrix(x, a.basis_in_block(r, i), a.basis_in_block(r, j),
                                     left=False) for r in range(n)]
                same_all(got, oracle_right_mult_map(a, i, j, x).components)


def _b_corner_elements(pres):
    """(x, the same element as an ambient coordinate vector): the basis of
    the B corner as basis indices, and one random element of it."""
    a = pres.ambient
    elements = [(k, a.coordinate_vector(k)) for k in pres.corner_b.basis_indices]
    x = random_element(a, pres.corner_b.basis_indices, 11)
    return elements + [(x, x)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_on_ae_b_matches_oracle(case):
    a = algebra(*case)
    for subset in triangular_splits(a):
        pres = detect_triangular(a, subset)
        ae_b, _, _ = direct_sum([projective_module(a, i) for i in pres.b_idems])
        layouts = projective_module(a, *pres.b_idems).layout
        for x, amb in _b_corner_elements(pres):
            got = [a.mult_matrix(x, lay, lay, left=False) for lay in layouts]
            same_all(got, oracle_right_mult_ae_b(pres, amb, ae_b).components)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_on_bimodule_matches_oracle(case):
    a = algebra(*case)
    for subset in triangular_splits(a):
        pres = detect_triangular(a, subset)
        m_c = bimodule_left_module(pres.bimodule)
        layouts = [_m_layout(pres, r) for r in pres.c_idems]
        for x, amb in _b_corner_elements(pres):
            got = [a.mult_matrix(x, lay, lay, left=False) for lay in layouts]
            same_all(got, oracle_right_mult_on_bimodule(pres, amb, m_c).components)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_inclusion_of_m_into_ae_b_matches_oracle(case):
    a = algebra(*case)
    for subset in triangular_splits(a):
        pres = detect_triangular(a, subset)
        m_c = bimodule_left_module(pres.bimodule)
        ae_b, _, _ = direct_sum([projective_module(a, i) for i in pres.b_idems])
        m_infl = inflate_complex(pres.ambient, pres.b_idems, stalk_complex(m_c, 0)).term(0)
        e_b = pres.corner_b.embed_vector(pres.algebra_b.unit())
        layouts = projective_module(a, *pres.b_idems).layout
        got = [a.mult_matrix(e_b, _m_layout(pres, r), layouts[r], left=False)
               for r in range(a.idempotent_count)]
        same_all(got, oracle_m_into_ae_b(pres, m_infl, ae_b).components)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_basis_index_stands_for_its_coordinate_vector(case):
    a = algebra(*case)
    everything = list(range(a.dim))
    for k in range(a.dim):
        for left in (True, False):
            same(a.mult_matrix(k, everything, everything, left=left),
                 a.mult_matrix(a.coordinate_vector(k), everything, everything, left=left))


# -- products that leave the target span -------------------------------------------


def leaving_products(a):
    """(k, src, tgt, left) whose products do not all lie in span(tgt): a
    basis element b_k of block (r, c) acting on A e_i (left) or on e_i A
    (right), written in the layout of a wrong target vertex, or in the right
    layout with one hit basis element dropped."""
    out = []
    n = a.idempotent_count
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        for i in range(n):
            for left, src, right_tgt in (
                    (True, a.basis_in_block(c, i), a.basis_in_block(r, i)),
                    (False, a.basis_in_block(i, r), a.basis_in_block(i, c))):
                hit = [kk for u in src
                       for kk, _ in (a.sparse_table[k][u] if left else a.sparse_table[u][k])]
                if not hit:
                    continue
                for w in range(n):
                    if w != (r if left else c):
                        wrong = a.basis_in_block(w, i) if left else a.basis_in_block(i, w)
                        out.append((k, src, wrong, left))
                out.append((k, src, [kk for kk in right_tgt if kk != hit[0]], left))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_product_leaving_the_target_span_is_refused(case):
    a = algebra(*case)
    bad = leaving_products(a)
    assert len(bad) >= a.idempotent_count
    for k, src, tgt, left in bad:
        for x in (k, a.coordinate_vector(k)):
            with pytest.raises(AlgebraError, match="leaves the span of the target"):
                a.mult_matrix(x, src, tgt, left=left)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projective_into_the_wrong_vertex_is_refused(case):
    # left multiplication by e_x on A e_x, written in the layout of A e_y
    a = algebra(*case)
    for i in range(a.idempotent_count):
        for j in range(a.idempotent_count):
            src, tgt = a.basis_in_block(i, i), a.basis_in_block(i, j)
            if i != j:
                with pytest.raises(AlgebraError):
                    a.mult_matrix(a.idempotents[i], src, tgt, left=True)
            else:
                same(a.mult_matrix(a.idempotents[i], src, tgt, left=True),
                     Matrix.identity(a.field, len(src)))


def test_m_layout_into_the_b_corner_is_refused():
    # M = e_C A e_B lies outside e_B A e_B, so the inclusion of M written in
    # the layout of B instead of A e_B is refused
    a = algebra(QQ, "lp32")
    pres = detect_triangular(a, [0])
    e_b = pres.corner_b.embed_vector(pres.algebra_b.unit())
    src = _m_layout(pres, 1)
    assert src
    with pytest.raises(AlgebraError):
        a.mult_matrix(e_b, src, pres.corner_b.basis_indices, left=False)


def cancelling_products(a):
    """(x, u, k, left): x = c_j b_i - c_i b_j with b_i and b_j two basis
    elements whose products with b_u both have a nonzero coordinate c_i,
    c_j at b_k, so that the product of x with b_u has coordinate 0 there."""
    out = []
    for left in (True, False):
        for u in range(a.dim):
            seen = {}
            for i in range(a.dim):
                for k, c in (a.sparse_table[i][u] if left else a.sparse_table[u][i]):
                    if k in seen:
                        j, cj = seen[k]
                        x = a.zero_vector()
                        x[i], x[j] = cj, -c
                        out.append((x, u, k, left))
                    seen[k] = (i, c)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coordinates_that_cancel_do_not_leave_the_target(field):
    # rebased structure constants are dense inside each Peirce block, so
    # products of different basis elements share coordinates
    a = algebra(field, "rebased-lp32")
    cases = cancelling_products(a)
    assert len(cases) >= 10
    for x, u, k, left in cases:
        rest = [kk for kk in range(a.dim) if kk != k]
        got = a.mult_matrix(x, [u], rest, left=left)
        full = a.mult_matrix(x, [u], list(range(a.dim)), left=left)
        assert not full.data[k][0]
        assert got.column(0) == full.column(0)[:k] + full.column(0)[k + 1:]


def test_zero_element_has_no_products():
    # no product leaves even an empty target span
    a = algebra(QQ, "lp32")
    src = a.basis_in_block(0, 0)
    same(a.mult_matrix(a.zero_vector(), src, [], left=True), Matrix.zeros(a.field, 0, len(src)))
