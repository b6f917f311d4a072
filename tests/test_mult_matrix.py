"""`FDAlgebra.mult_matrix`, the one primitive behind every multiplication
inside Peirce blocks, against `reference.mult_matrix`, which reads each
product off the dense structure table.

Each test builds a matrix the primitive builds for one of its call sites,
over the layouts those sites pass: the actions of `detect_triangular` on M,
the actions of `projective_module`, `IdempotentRecollement._corner_column`
and the right multiplications of `j_lower`, of the transpose behind
tau^{-1}, on A e_B, on M and from M into A e_B.  The reference builds the
same matrix over layouts written out from the Peirce blocks, and every
entry must agree, with its type as `conftest.entry_types` reads it.
"""

import functools
import random
from fractions import Fraction

import pytest

from tiltkit.algebra import AlgebraError, detect_triangular
from tiltkit.glue import _m_layout
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import projective_module
from tiltkit.recollement import IdempotentRecollement

import reference
from conftest import (
    FIELDS,
    a3_zero_relation_algebra,
    glued_loop_fixture,
    loop_pair_algebra,
    rebased_algebra,
    typed,
)

LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (5, 5), (6, 5)]


def m_layout(pres, r):
    """Basis indices of block r of M = e_C A e_B, in ambient order."""
    if r not in pres.c_idems:
        return []
    return sorted(reference.projective_layout(pres.ambient, pres.b_idems)[r])


# -- the algebras ------------------------------------------------------------------


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in LOOP_PAIRS}
    out["a3z"] = lambda: a3_zero_relation_algebra(field)
    out["rebased-lp32"] = lambda: rebased_algebra(loop_pair_algebra(3, 2, field=field),
                                                  random.Random(3))
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
    assert typed(got) == typed(want)


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
        pres = detect_triangular(a, subset)
        m_idx = [k for k in range(a.dim)
                 if a.block_row[k] not in subset and a.block_col[k] in subset]
        for corner, left, got in [(pres.corner_c, True, pres.bimodule.left_action),
                                  (pres.corner_b, False, pres.bimodule.right_action)]:
            same_all(got, [reference.mult_matrix(a, corner.embed_vector(
                corner.algebra.coordinate_vector(t)), m_idx, m_idx, left)
                for t in range(corner.algebra.dim)])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projective_module_matches_oracle(case):
    a = algebra(*case)
    for i in range(a.idempotent_count):
        same_all(projective_module(a, i).mats, reference.projective_module(a, i).mats)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_corner_column_matches_oracle(case):
    a = algebra(*case)
    for subset in splits(a):
        rec = IdempotentRecollement(a, subset)
        for i in range(a.idempotent_count):
            same_all(rec._corner_column(i).mats,
                     reference.corner_column(a, subset, rec.corner, i).mats)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_on_corner_columns_matches_oracle(case):
    # the map e A e_r -> e A e_cc of j_lower, for each basis element k
    a = algebra(*case)
    for subset in splits(a):
        for k in range(a.dim):
            r, cc = a.block_row[k], a.block_col[k]
            blocks = [(a.basis_in_block(s, r), a.basis_in_block(s, cc)) for s in subset]
            same_all([a.mult_matrix(k, src, tgt, left=False) for src, tgt in blocks],
                     [reference.mult_matrix(a, a.coordinate_vector(k), src, tgt, left=False)
                      for src, tgt in blocks])


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
                blocks = [(a.basis_in_block(r, i), a.basis_in_block(r, j)) for r in range(n)]
                same_all([a.mult_matrix(x, src, tgt, left=False) for src, tgt in blocks],
                         [reference.mult_matrix(a, x, src, tgt, left=False)
                          for src, tgt in blocks])


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
        layouts = projective_module(a, *pres.b_idems).layout
        for x, amb in _b_corner_elements(pres):
            same_all([a.mult_matrix(x, lay, lay, left=False) for lay in layouts],
                     [reference.mult_matrix(a, amb, lay, lay, left=False)
                      for lay in reference.projective_layout(a, pres.b_idems)])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_right_mult_on_bimodule_matches_oracle(case):
    a = algebra(*case)
    for subset in triangular_splits(a):
        pres = detect_triangular(a, subset)
        for x, amb in _b_corner_elements(pres):
            same_all([a.mult_matrix(x, _m_layout(pres, r), _m_layout(pres, r), left=False)
                      for r in pres.c_idems],
                     [reference.mult_matrix(a, amb, m_layout(pres, r), m_layout(pres, r),
                                            left=False)
                      for r in pres.c_idems])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_inclusion_of_m_into_ae_b_matches_oracle(case):
    # right multiplication by e_B from the layout of M into that of A e_B
    a = algebra(*case)
    for subset in triangular_splits(a):
        pres = detect_triangular(a, subset)
        e_b = pres.corner_b.embed_vector(pres.algebra_b.unit())
        layouts = projective_module(a, *pres.b_idems).layout
        same_all([a.mult_matrix(e_b, _m_layout(pres, r), layouts[r], left=False)
                  for r in range(a.idempotent_count)],
                 [reference.mult_matrix(a, e_b, m_layout(pres, r), lay, left=False)
                  for r, lay in enumerate(reference.projective_layout(a, pres.b_idems))])


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
