"""Minimal left add(T)-approximations against the universal ones.

`_reference_in_additive_closure` and `_reference_tilting_module_check` are
the membership test and the tilting check as they were before minimal
approximations: each coresolution stage maps X into T^{dim Hom(X, T)} along
the whole hom basis, and membership in add(T) peels one pool summand at a
time.  A universal approximation is the minimal one plus 0 -> T'', so the
reports (coresolution lengths, failure stage, verdict) and every membership
answer must agree, while the stage modules get smaller.
"""

import functools
import hashlib
import random
import sys
from fractions import Fraction

import pytest

import tiltkit.modules as modules
from tiltkit.algebra import (
    PathAlgebraPresentation,
    Quiver,
    build_fd_algebra,
    detect_triangular,
)
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    DecompositionError,
    Module,
    ModuleError,
    ModuleMap,
    TiltingReport,
    _min_left_approximation,
    _pool_radical,
    _top_scalar,
    decompose,
    direct_sum,
    ext,
    hom_space,
    in_additive_closure,
    min_projective_resolution,
    module_from_arrow_matrices,
    projective_module,
    quotient_module,
    regular_module,
    simple_module,
    submodule,
    tilting_module_check,
)
from tiltkit.translate import build_apr_tilting

from conftest import loop_pair_algebra, nilpotent_loop_algebra, rref_solve
from test_certificate_digests import run_case
from test_decompose_once import _rebased
from test_modules import middle_term_module


def _reference_in_additive_closure(x: Module, summand_pool) -> bool:
    """Is x a direct sum of copies of modules in the pool (indecomposables)?

    Peels off one pool summand at a time: when x has a summand isomorphic to
    T_i, some composite of hom basis elements x -> T_i -> x splits it off
    (complete for split local endomorphism rings), so a module in add(pool)
    peels down to zero and anything stuck short of zero is outside.
    """
    current = x
    guard = 0
    while not current.is_zero():
        guard += 1
        if guard > x.total_dim + 1:
            raise ModuleError("additive-closure peeling failed to terminate")
        split = None
        for t_i in summand_pool:
            if t_i.total_dim > current.total_dim:
                continue
            fwd = hom_space(t_i, current)
            bwd = hom_space(current, t_i)
            for g in bwd.basis:
                for f_ in fwd.basis:
                    comp = g.compose(f_)
                    if comp.total_matrix().is_invertible():
                        split = (t_i, f_, g, comp)
                        break
                if split:
                    break
            if split:
                break
        if split is None:
            return False
        t_i, f_, g, comp = split
        inv = ModuleMap(t_i, t_i, [m.inverse() for m in comp.components])
        idem = f_.compose(inv).compose(g)
        f = current.algebra.field
        ker_vectors = []
        total = idem.total_matrix()
        for v in (total - Matrix.identity(f, current.total_dim)).column_space_basis():
            ker_vectors.append(v)
        current, _ = submodule(current, ker_vectors)
    return True


def _reference_tilting_module_check(t: Module, bound: int = 12) -> TiltingReport:
    """The three tilting conditions: finite projective dimension, vanishing
    self-extensions, and an add(T)-coresolution of the regular module built
    from universal left approximations (the generation condition is certified
    through this coresolution; that substitution is recorded in the notes)."""
    notes = ["generation condition certified via add(T)-coresolution of the regular module"]
    res = min_projective_resolution(t, bound)
    pd_known = res.completed
    pd = res.pd if pd_known else f">= {bound + 1}"
    if not pd_known:
        notes.append(f"projective dimension exceeds bound {bound}")
    # self-extension table up to the deepest computable degree; a nonzero
    # value at any computable degree is a definite failure even when the
    # projective dimension is unknown
    max_degree = res.pd if pd_known else max(res.length - 1, 0)
    ext_table = {}
    ext_failed = False
    for i in range(1, max_degree + 1):
        e = ext(t, t, i, bound=bound)
        ext_table[i] = e.dim
        if e.dim != 0:
            ext_failed = True
            break
    # coresolution of each indecomposable projective by universal left
    # approximations into add(T); an approximation with a kernel, or one with
    # no maps at all, is a definite failure
    summand_pool = [mod for mod, _, _ in decompose(t)]
    a = t.algebra
    stage_cap = res.pd if pd_known else bound
    coreso_lengths = []
    failure_stage = None
    coreso_verdict = True
    for i in range(a.idempotent_count):
        current = projective_module(a, i)
        stages = 0
        while True:
            if current.is_zero() or _reference_in_additive_closure(current, summand_pool):
                break
            if stages > stage_cap:
                # beyond pd this cannot happen for a tilting module; with pd
                # unknown it is merely inconclusive
                coreso_verdict = False if pd_known else "unknown"
                failure_stage = stages
                break
            h = hom_space(current, t)
            if h.dimension == 0:
                coreso_verdict = False
                failure_stage = stages
                break
            target, incs, _ = direct_sum([t] * h.dimension)
            comps = []
            for bi in range(len(current.dims)):
                stacked = None
                for f_, inc in zip(h.basis, incs):
                    piece = inc.components[bi] * f_.components[bi]
                    stacked = piece if stacked is None else stacked + piece
                comps.append(stacked)
            approx = ModuleMap(current, target, comps)
            if not approx.is_injective():
                coreso_verdict = False
                failure_stage = stages
                break
            img_vectors = []
            fz = a.field.zero()
            for bi in range(len(target.dims)):
                lo, _ = target.block_slice(bi)
                for v in approx.components[bi].columns():
                    total = [fz] * target.total_dim
                    for tt, xx in enumerate(v):
                        total[lo + tt] = xx
                    img_vectors.append(total)
            current, _, _ = quotient_module(target, img_vectors)
            stages += 1
        if coreso_verdict is not True:
            break
        coreso_lengths.append(stages)
    if ext_failed or coreso_verdict is False:
        verdict = False
    elif pd_known and coreso_verdict is True:
        verdict = True
    else:
        verdict = "undetermined"
    return TiltingReport(t, pd, ext_table,
                         coreso_lengths if coreso_verdict is True else None,
                         failure_stage, verdict, notes)


# sha256 of `apr --e x` on loop pairs (3,3) and (4,4), recorded with the
# universal approximations
APR_DIGESTS = {
    "apr-33": "6c14361607ebbd4e0ec57a59c5fd3258c4bfb6948bb3375a46a80830684fb932",
    "apr-44": "8b93d6279275e7b03567c6880d0b066145b054f2909a52a0a31c3c7c03d021e2",
}


@functools.cache
def _apr_module(a, b):
    alg = loop_pair_algebra(a, b)
    return build_apr_tilting(detect_triangular(alg, [0]), bound=8).module


def _pool(t):
    return [mod for mod, _, _ in decompose(t)]


def _cokernel(approx):
    vectors = approx.total_matrix().columns()
    return quotient_module(approx.target, vectors)[0]


def _fresh(t):
    """The same module as a new object, so no cached decomposition is shared
    between the check under test and the reference."""
    return Module(t.algebra, t.dims, t.mats)


def _tilting_cases():
    kr32 = loop_pair_algebra(3, 2)
    dual = nilpotent_loop_algebra(2)
    c_plus_s, _, _ = direct_sum([regular_module(dual), simple_module(dual, 0)])
    return [
        ("kr32-regular", regular_module(kr32), 6),
        ("kr32-P_y", projective_module(kr32, 1), 6),
        ("kr32-middle-term", middle_term_module(kr32), 6),
        ("dual-S", simple_module(dual, 0), 4),
        ("dual-C+S", c_plus_s, 1),
        ("apr-22", _apr_module(2, 2), 8),
        ("apr-32", _apr_module(3, 2), 8),
        ("apr-33", _apr_module(3, 3), 8),
    ]


def summary(report):
    """The tilting report as one dict."""
    return {
        "pd": report.pd,
        "ext_self_orthogonal": all(v == 0 for v in report.ext_table.values())
        if report.ext_table else True,
        "coresolution": report.coresolution_lengths,
        "verdict": report.verdict,
    }


@pytest.mark.parametrize("case", range(8))
def test_tilting_report_matches_reference(case):
    _, t, bound = _tilting_cases()[case]
    got = tilting_module_check(_fresh(t), bound=bound)
    want = _reference_tilting_module_check(_fresh(t), bound=bound)
    assert summary(got) == summary(want)
    assert (got.failure_stage, got.notes) == (want.failure_stage, want.notes)


def _membership_pools():
    """(algebra, basic pool, the vertices whose projective lies in add(pool)).
    The APR module for --e x keeps P_x as a summand; the pool {P_y} over the
    (3,2) fixture holds neither P_x nor any simple."""
    kr32 = loop_pair_algebra(3, 2)
    pools = [(kr32, [projective_module(kr32, 1)], {1})]
    for ab in ((2, 2), (3, 2), (3, 3)):
        t = _apr_module(*ab)
        pools.append((t.algebra, _pool(t), {0}))
    return pools


@functools.cache
def _membership_cases():
    """(pool, module, expected membership): seeded unimodular-basis direct
    sums of pool summands are members; the simples, and the projectives that
    are not pool summands, are not."""
    rng = random.Random(17)
    cases = []
    for a, pool, members in _membership_pools():
        for _ in range(3):
            picks = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            cases.append((pool, _rebased(direct_sum(picks)[0], rng), True))
        for i in range(a.idempotent_count):
            cases.append((pool, projective_module(a, i), i in members))
            cases.append((pool, simple_module(a, i), False))
    return cases


def test_membership_cases_cover_both_answers():
    answers = [want for _, _, want in _membership_cases()]
    assert len(answers) == 28
    assert answers.count(True) == 16 and answers.count(False) == 12


@pytest.mark.parametrize("case", range(28))
def test_membership_matches_reference(case):
    pool, x, want = _membership_cases()[case]
    assert _reference_in_additive_closure(x, pool) is want
    assert in_additive_closure(x, pool) is want


def _approximated_modules():
    """Every membership case, and the first cokernel of each module outside
    add(pool) whose approximation is injective."""
    out = []
    for pool, x, want in _membership_cases():
        out.append((pool, x))
        if not want and not x.is_zero():
            approx = _min_left_approximation(x, pool, _pool_radical(pool))
            if approx.is_injective() and not approx.target.is_zero():
                out.append((pool, _cokernel(approx)))
    return out


def test_every_map_to_the_pool_factors_through_the_approximation():
    checked = 0
    for pool, x in _approximated_modules():
        approx = _min_left_approximation(x, pool, _pool_radical(pool))
        for t_i in pool:
            via = hom_space(approx.target, t_i)
            lhs = Matrix.from_columns(
                QQ, [modules._flatten_components(h.compose(approx).components)
                     for h in via.basis],
                rows=sum(d * e for d, e in zip(t_i.dims, x.dims)))
            for g in hom_space(x, t_i).basis:
                flat = modules._flatten_components(g.components)
                assert via.dimension and rref_solve(lhs, flat) is not None
                checked += 1
    assert checked == 166


def test_approximation_of_each_pool_summand_is_an_isomorphism():
    for _, pool, _ in _membership_pools():
        rad = _pool_radical(pool)
        for t_i in pool:
            approx = _min_left_approximation(t_i, pool, rad)
            assert approx.target.dims == t_i.dims
            assert approx.is_injective()


# -- sizes and certificates -------------------------------------------------------------------


@pytest.mark.parametrize("ab, want_minimal, want_universal",
                         [((3, 3), [(6, 3)], [(27, 24)]),
                          ((4, 4), [(8, 4)], [(48, 44)])])
def test_coresolution_stage_sizes(ab, want_minimal, want_universal, monkeypatch):
    """(target dim, cokernel dim) of every stage that is not yet in add(T)."""
    t = _apr_module(*ab)
    minimal, universal = [], []

    def recording_approximation(x, pool, rad):
        approx = _min_left_approximation(x, pool, rad)
        if approx.target.total_dim != x.total_dim:
            minimal.append((approx.target.total_dim,
                            approx.target.total_dim - x.total_dim))
        return approx

    def recording_quotient(module, vectors):
        out = modules.quotient_module(module, vectors)
        universal.append((module.total_dim, out[0].total_dim))
        return out

    monkeypatch.setattr(modules, "_min_left_approximation", recording_approximation)
    monkeypatch.setattr(sys.modules[__name__], "quotient_module", recording_quotient)
    got = tilting_module_check(_fresh(t), bound=8)
    want = _reference_tilting_module_check(_fresh(t), bound=8)
    assert got.coresolution_lengths == want.coresolution_lengths == [0, 1]
    assert minimal == want_minimal
    assert universal == want_universal


@pytest.mark.parametrize("case", sorted(APR_DIGESTS))
def test_apr_certificate_digest(case, tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    rc, written = run_case(case, tmp_path)
    assert rc == 0
    assert hashlib.sha256(written).hexdigest() == APR_DIGESTS[case]


# -- the top scalar of a local endomorphism ring ------------------------------------------------


def test_top_scalar_on_end_p_x():
    px = projective_module(loop_pair_algebra(3, 3), 0)
    endo = hom_space(px, px)
    assert endo.dimension == 3
    ident = ModuleMap.identity(px)
    assert _top_scalar(ident) == 1
    assert _top_scalar(ident.scale(Fraction(5))) == 5
    rad = _pool_radical([px])[0][0]
    assert Matrix.from_columns(
        QQ, [modules._flatten_components(r.components) for r in rad],
        rows=px.dims[0] ** 2 + px.dims[1] ** 2).rank() == endo.dimension - 1
    for r in rad:
        assert _top_scalar(r) == 0
        assert not r.total_matrix().is_invertible()
        assert _top_scalar(ident.add(r)) == 1


def test_top_scalar_when_the_radical_moves_top_vectors():
    """The Kronecker module x = I, y = J_2 has End = k[t]/t^2 with t = (J, J),
    which maps a top vector to another top vector; the trace still reads
    t as radical."""
    q = Quiver(["a", "b"], [("x", "a", "b"), ("y", "a", "b")])
    kron = build_fd_algebra(PathAlgebraPresentation(q, [], 2))
    one, zero = QQ.one(), QQ.zero()
    ident = Matrix(QQ, [[one, zero], [zero, one]])
    jordan = Matrix(QQ, [[zero, zero], [one, zero]])
    m = module_from_arrow_matrices(kron, [2, 2], {"x": ident, "y": jordan})
    assert hom_space(m, m).dimension == 2
    t = ModuleMap(m, m, [jordan, jordan])
    t.check_intertwines()
    # t moves the top vector e_1 at vertex a to e_2, also outside rad M
    assert t.components[0].apply([one, zero]) == [zero, one]
    assert _top_scalar(t) == 0
    rad = _pool_radical([m])[0][0]
    assert all(_top_scalar(r) == 0 for r in rad)
    assert any(not r.is_zero() for r in rad)
    assert in_additive_closure(direct_sum([m, m])[0], [m])


def test_top_scalar_refuses_a_prime_field():
    px = projective_module(loop_pair_algebra(3, 3, field=PrimeField(101)), 0)
    with pytest.raises(DecompositionError, match="F101"):
        _top_scalar(ModuleMap.identity(px))
    with pytest.raises(DecompositionError, match="F101"):
        _pool_radical([px])
