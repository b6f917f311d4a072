"""The recollement functors and the triangular derived lifts, compared with
the code they replaced and with `tests/reference.py`.

The quotient algebra A / A e A is compared with `reference.quotient_algebra`,
the quotient of A by the span of the products b_i e b_j read at the free
columns of its rref.  The other oracles below are the old functors, verbatim
except that methods became functions of the recollement and that each
quotient by a span is a `reference.Quotient`: `oracle_j_shriek` and
`oracle_j_shriek_map` wrote the tensor relations and the actions out with
index arithmetic, `oracle_corner_inflation` inflated along a corner
presentation instead of the recollement's quotient, and `oracle_i_upper`
restricted the spanning vectors to each block and took one more quotient
per block.  Every quotient in them is the quotient by a span, whose reduced
row echelon form is unique, so the new code must give exactly the same
matrices.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from tiltkit.algebra import (
    PathAlgebraPresentation,
    Quiver,
    build_fd_algebra,
    detect_triangular,
    quotient_algebra,
)
from tiltkit.complexes import (
    Complex,
    inflate_complex,
    resolution_complex,
    stalk_complex,
)
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    Module,
    ModuleError,
    ModuleMap,
    hom_space,
    min_projective_resolution,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.recollement import IdempotentRecollement

import reference
from conftest import (
    FIELDS,
    a3_zero_relation_algebra,
    loop_pair_algebra,
    rebased,
    rebased_algebra,
)
from paper_criteria import lift_functor

ALGEBRAS = {
    "lp22": lambda field: loop_pair_algebra(2, 2, field=field),
    "lp33": lambda field: loop_pair_algebra(3, 3, field=field),
    "lp65": lambda field: loop_pair_algebra(6, 5, field=field),
    "a3z": a3_zero_relation_algebra,
}
CASES = [(field, name) for field in FIELDS for name in ALGEBRAS]


def case_id(case):
    field, name = case
    return f"{field.name}-{name}"


# -- the old code -----------------------------------------------------------------


def oracle_quotient_rep_index(qd, t):
    """Ambient basis index representing quotient basis element t."""
    col = qd.section.column(t)
    hits = [k for k, v in enumerate(col) if v]
    if len(hits) != 1:
        raise ModuleError("quotient section is not a coordinate section")
    return hits[0]


def oracle_to_quotient_module(rec, qd, x_on_a: Module) -> Module:
    """Reinterpret an A-module with zero e-part as an (A/AeA)-module."""
    d = rec.quotient.algebra
    for s in rec.subset:
        if x_on_a.dims[s] != 0:
            raise ModuleError("module has nonzero corner part; not killed by AeA")
    dims = [x_on_a.dims[amb] for amb in qd.idem_map]
    mats = []
    for t in range(d.dim):
        # the quotient basis element t is the class of an ambient basis element
        amb_index = oracle_quotient_rep_index(qd, t)
        mats.append(x_on_a.mats[amb_index])
    return Module(d, dims, mats)


def oracle_restrict_block(x, vectors, i):
    lo, hi = x.block_slice(i)
    return reference.span(x.algebra.field, [v[lo:hi] for v in vectors], x.dims[i])


def oracle_i_upper(rec, x: Module):
    """X / (A e X) as a module over A/AeA, with the per-block projections."""
    a = rec.ambient
    f = a.field
    span = []
    for s in rec.subset:
        lo, hi = x.block_slice(s)
        for t in range(lo, hi):
            for k in range(a.dim):
                span.append(x.action_column(k, t))
            unit = [f.zero()] * x.total_dim
            unit[t] = f.one()
            span.append(unit)
    quot, _ = reference.quotient_module(x, span)
    block_quotients = [reference.Quotient(f, x.dims[i], oracle_restrict_block(x, span, i))
                       for i in range(a.idempotent_count)]
    q, _, idem_map, _ = reference.quotient_algebra(a, rec.subset)
    qd = SimpleNamespace(section=q.section, idem_map=idem_map)
    return oracle_to_quotient_module(rec, qd, quot), block_quotients


def oracle_tensor_block_data(rec, i):
    """Basis of e_i A e (ambient indices) used by the tensor functor."""
    a = rec.ambient
    out = []
    for s in rec.subset:
        out.extend(a.basis_in_block(i, s))
    return out


def oracle_j_shriek(rec, n: Module, with_data=False):
    """Ae tensor_{eAe} n, block by block via the bilinear-relation quotient."""
    a = rec.ambient
    c = rec.corner
    f = a.field
    z = f.zero()
    q = n.total_dim
    blocks = []
    for i in range(a.idempotent_count):
        basis = oracle_tensor_block_data(rec, i)
        p = len(basis)
        pos = {k: t for t, k in enumerate(basis)}
        relations = []
        for ui, u in enumerate(basis):
            for l, kl in enumerate(c.basis_indices):
                prod = a.sparse_table[u][kl]
                for ncoord in range(q):
                    vec = [z] * (p * q)
                    # (u * lam) tensor n
                    for k, val in prod:
                        vec[pos[k] * q + ncoord] += val
                    # minus u tensor (lam * n)
                    for m, val in enumerate(n.action_column(l, ncoord)):
                        if val:
                            vec[ui * q + m] -= val
                    if any(vec):
                        relations.append(vec)
        blocks.append((basis, reference.Quotient(f, p * q, relations)))
    dims = [len(sq.free) for _, sq in blocks]
    mats = []
    for k in range(a.dim):
        r, cc = a.block_row[k], a.block_col[k]
        basis_c, sq_c = blocks[cc]
        basis_r, sq_r = blocks[r]
        pos_r = {kk: t for t, kk in enumerate(basis_r)}
        p_c, p_r = len(basis_c), len(basis_r)
        raw = Matrix.zeros(f, p_r * q, p_c * q)
        for ui, u in enumerate(basis_c):
            for kk, val in a.sparse_table[k][u]:
                for ncoord in range(q):
                    raw.data[pos_r[kk] * q + ncoord][ui * q + ncoord] = val
        mats.append(reference.mul(reference.mul(sq_r.projection, raw), sq_c.section))
    mod = Module(a, dims, mats)
    return (mod, blocks) if with_data else mod


def oracle_j_shriek_map(rec, fmap: ModuleMap, src_data, tgt_data) -> ModuleMap:
    """Induced map Ae tensor f between tensor images."""
    src_mod, src_blocks = src_data
    tgt_mod, tgt_blocks = tgt_data
    f = rec.ambient.field
    ftot = fmap.total_matrix()
    q_src = fmap.source.total_dim
    q_tgt = fmap.target.total_dim
    comps = []
    for i in range(rec.ambient.idempotent_count):
        basis_s, sq_s = src_blocks[i]
        basis_t, sq_t = tgt_blocks[i]
        p = len(basis_s)
        raw = Matrix.zeros(f, p * q_tgt, p * q_src)
        for ui in range(p):
            for rr in range(q_tgt):
                for cc in range(q_src):
                    raw.data[ui * q_tgt + rr][ui * q_src + cc] = ftot.data[rr][cc]
        comps.append(reference.mul(reference.mul(sq_t.projection, raw), sq_s.section))
    return ModuleMap(src_mod, tgt_mod, comps)


def oracle_corner_inflation(pres, x, side):
    a = pres.ambient
    f = a.field
    corner = pres.corner_c if side == "c" else pres.corner_b
    own = set(pres.c_idems if side == "c" else pres.b_idems)
    pos_of = {amb: t for t, amb in enumerate(corner.idem_map)}

    def inflate_module(n):
        dims = [n.dims[pos_of[i]] if i in pos_of else 0
                for i in range(a.idempotent_count)]
        mats = []
        for k in range(a.dim):
            r, c = a.block_row[k], a.block_col[k]
            if r in own and c in own:
                cvec = [a.coordinate_vector(k)[kk] for kk in corner.basis_indices]
                mats.append(n.block_action(cvec, pos_of[r], pos_of[c]))
            else:
                mats.append(Matrix.zeros(f, dims[r], dims[c]))
        return Module(a, dims, mats)

    terms = [inflate_module(t) for t in x.terms]
    diffs = [oracle_inflate_map(corner, d, terms[i], terms[i + 1])
             for i, d in enumerate(x.diffs)]
    return Complex(a, x.lo, terms, diffs)


def oracle_inflate_map(corner, fmap: ModuleMap, source: Module, target: Module) -> ModuleMap:
    a = source.algebra
    pos_of = {amb: t for t, amb in enumerate(corner.idem_map)}
    comps = []
    for i in range(a.idempotent_count):
        if i in pos_of:
            comps.append(fmap.components[pos_of[i]])
        else:
            comps.append(Matrix.zeros(a.field, 0, 0))
    return ModuleMap(source, target, comps)


# -- comparisons ------------------------------------------------------------------


def same_module(x, y):
    return x.dims == y.dims and x.mats == y.mats


def same_complex(x, y):
    return (x.lo == y.lo and len(x.terms) == len(y.terms)
            and all(same_module(s, t) for s, t in zip(x.terms, y.terms))
            and all(d.components == e.components for d, e in zip(x.diffs, y.diffs)))


def proper_subsets(a):
    n = a.idempotent_count
    return [list(s) for size in range(1, n) for s in itertools.combinations(range(n), size)]


def sample_modules(alg, seed):
    """The regular module, the nonzero simples and a rebased regular module."""
    rng = random.Random(seed)
    simples = [simple_module(alg, i) for i in range(alg.idempotent_count)]
    reg = regular_module(alg)
    return [reg] + [s for s in simples if not s.is_zero()] + [rebased(reg, rng)]


def sample_complexes(alg, seed):
    """Stalks of the sample modules and the minimal projective resolution of
    each simple, truncated after three steps, which has differentials."""
    out = [stalk_complex(m, 0) for m in sample_modules(alg, seed)]
    for i in range(alg.idempotent_count):
        res = min_projective_resolution(simple_module(alg, i), 3)
        if res.length >= 1:
            out.append(resolution_complex(res))
    return out


def read_off(field, n, free, residue):
    """The dense projection and section of a quotient of k^n whose classes
    are read at the positions free: projection column j is the class of the
    j-th unit vector, section column t the unit vector at free[t]."""
    units = Matrix.identity(field, n).data
    return (Matrix.from_columns(field, [residue(u) for u in units], rows=len(free)),
            Matrix.from_columns(field, [units[j] for j in free], rows=n))


def residue_at(span, free):
    def residue(v):
        out = span.reduce(v)[0]
        return [out[t] for t in free]
    return residue


def assert_same_quotient(a, subset):
    new = quotient_algebra(a, subset)
    q, table, idem_map, idems = reference.quotient_algebra(a, subset)
    remap = {s: t for t, s in enumerate(idem_map)}
    assert new.algebra.table == table
    assert new.algebra.labels == [a.labels[k] for k in q.free]
    assert new.algebra.idempotents == idems
    assert (new.algebra.block_row, new.algebra.block_col) == \
        ([remap[a.block_row[k]] for k in q.free], [remap[a.block_col[k]] for k in q.free])
    assert new.algebra.paths == (None if a.paths is None else [a.paths[k] for k in q.free])
    assert new.idem_map == idem_map
    assert new.ideal_basis == q.basis
    assert new.ideal.free(a.dim) == new.rep_indices
    assert read_off(a.field, a.dim, new.rep_indices, new.project_vector) == \
        (q.projection, q.section)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_quotient_algebra_matches_oracle(case):
    field, name = case
    a = ALGEBRAS[name](field)
    for subset in proper_subsets(a):
        assert_same_quotient(a, subset)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_quotient_algebra_matches_oracle_when_the_ideal_cuts_a_block(field):
    # x <-> y with paths of length < 3: A e_y A meets e_x A e_x in the span of
    # the 2-cycle at x only, so in a seeded basis the ideal is no coordinate
    # subspace and each class needs its residue, not the entries at the
    # representatives
    quiver = Quiver(["x", "y"], [("f", "x", "y"), ("g", "y", "x")])
    cycle = build_fd_algebra(PathAlgebraPresentation(quiver, [], 3, field))
    for a in [cycle] + [rebased_algebra(cycle, random.Random(seed)) for seed in (1, 2)]:
        for subset in proper_subsets(a):
            assert_same_quotient(a, subset)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_i_upper_matches_oracle(case):
    field, name = case
    a = ALGEBRAS[name](field)
    for subset in proper_subsets(a):
        rec = IdempotentRecollement(a, subset)
        for x in sample_modules(a, case_id(case)):
            up, blocks = rec.i_upper(x)
            old_up, old_blocks = oracle_i_upper(rec, x)
            assert same_module(up, old_up)
            assert [p for p, _ in blocks] == [sq.projection for sq in old_blocks]
            assert [free for _, free in blocks] == [sq.free for sq in old_blocks]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_j_shriek_matches_oracle(case):
    field, name = case
    a = ALGEBRAS[name](field)
    for subset in proper_subsets(a):
        rec = IdempotentRecollement(a, subset)
        for n in sample_modules(rec.corner.algebra, case_id(case)):
            mod, blocks = rec.j_shriek(n)
            old_mod, old_blocks = oracle_j_shriek(rec, n, with_data=True)
            assert same_module(mod, old_mod)
            for (basis, span, free), (old_basis, old_sq) in zip(blocks, old_blocks):
                assert basis == old_basis
                assert read_off(field, len(basis) * n.total_dim, free,
                                residue_at(span, free)) == (old_sq.projection, old_sq.section)
            for g in hom_space(n, n).basis:
                new_map = rec.j_shriek_map(g, (mod, blocks), (mod, blocks))
                old_map = oracle_j_shriek_map(rec, g, (old_mod, old_blocks),
                                              (old_mod, old_blocks))
                assert new_map.components == old_map.components


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_triangular_inflation_matches_oracle(case):
    field, name = case
    a = ALGEBRAS[name](field)
    splits = [pres for pres in (detect_triangular(a, s) for s in proper_subsets(a))
              if pres is not None]
    assert splits
    for pres in splits:
        for x in sample_complexes(pres.algebra_c, case_id(case)):
            assert same_complex(inflate_complex(pres.ambient, pres.b_idems, x),
                                oracle_corner_inflation(pres, x, "c"))
        for x in sample_complexes(pres.algebra_b, case_id(case)):
            assert same_complex(inflate_complex(pres.ambient, pres.c_idems, x),
                                oracle_corner_inflation(pres, x, "b"))


# -- idempotent order -------------------------------------------------------------


def test_triangular_split_ignores_the_order_of_its_idempotents(a3z):
    """Inflation through the recollement at e_C, and the tensor functor at
    e_B, place every B-projective at its own vertex for either order of B."""
    sorted_pres = detect_triangular(a3z, [0, 1])
    swapped = detect_triangular(a3z, [1, 0])
    assert swapped.b_idems == [0, 1]
    for i in range(sorted_pres.algebra_b.idempotent_count):
        results = []
        for pres in (sorted_pres, swapped):
            p = stalk_complex(projective_module(pres.algebra_b, i), 0)
            results.append((inflate_complex(pres.ambient, pres.c_idems, p),
                            lift_functor(pres, "j_shriek", p)))
        (infl, tensor), (infl2, tensor2) = results
        assert same_complex(infl, infl2)
        assert same_complex(tensor, tensor2)
        # the B-projective at vertex i sits at ambient vertex i
        assert infl.term(0).dims[i] == 1
        assert sum(infl.term(0).dims) == projective_module(sorted_pres.algebra_b, i).total_dim
