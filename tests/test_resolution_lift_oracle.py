"""Lifts along resolutions through `_lift_through_quasi_iso`, against the
stage-by-stage solver they replaced.

`ext_bimodule` lifts the right multiplications by B along the resolution of
M once, as chain maps, and `_cross_check_shifted_glue` takes those and lifts
End_C(T) and the Ext classes with the same routine: one matrix per call,
solved against every target.  The oracles below are the parent's
`_lift_along_resolutions`, `ext_bimodule` and `_cross_check_shifted_glue`,
copied verbatim up to their names and their solves (`conftest.rref_solve`):
each lifted one map at a time, stage by stage, and the cross check fixed
the sign (-1)^{sj} of the Ext images by hand.  Any two lifts of one map
are homotopic, and both the Ext-bimodule matrices and the match verdict
depend only on homotopy classes, so the two must agree exactly, entry by
entry with types.
"""

from fractions import Fraction

import pytest

import tiltkit.complexes
from tiltkit.algebra import (
    Bimodule,
    bimodule_from_actions,
    detect_triangular,
    glue_triangular,
    quotient_algebra,
)
from tiltkit.complexes import (
    ChainMap,
    _lift_through_quasi_iso,
    direct_sum_complexes,
    hom_homotopy,
    inflate_complex,
    inflate_map,
    resolution_complex,
    shift_complex,
)
from tiltkit.glue import (
    GlueRefusal,
    _augmentation,
    _cross_check_shifted_glue,
    _m_layout,
    ext_bimodule,
    structured_b_resolution,
)
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    ModuleError,
    ModuleMap,
    endo_algebra,
    ext,
    hom_space,
    min_projective_resolution,
    module_from_arrow_matrices,
    regular_module,
)

from conftest import (
    a2_algebra,
    glued_loop_fixture,
    loop_pair_algebra,
    nilpotent_loop_algebra,
    padded_resolution,
    rref_solve,
)
from test_ext_homotopy import ext_on, typed, typed_map

BOUND = 8


def ext_bimodule_at(pres, t, degree):
    """ext_bimodule on Ext_C^degree(M, T), followed by that Ext group."""
    eg = ext(pres.bimodule.left_module, t, degree, bound=BOUND)
    return (*ext_bimodule(pres, t, eg), eg)


# -- the code before the change -------------------------------------------------------


def parent_lift_along_resolutions(res_src, res_tgt, first: ModuleMap, degree: int = 0):
    """Maps lambda_j: Q_{degree+j} -> R_j between the terms of resolutions
    Q of M and R of T lifting `first`: Q_degree -> T, stage by stage:
    out_j o lambda_j = lambda_{j-1} o d, with out_j the augmentation or a
    differential of R (deterministic particular solutions).  An endomorphism
    f of M lifts along Q with Q = R and first = f o augmentation."""
    f = first.source.algebra.field
    lifts = []
    for j in range(min(len(res_src.modules) - degree, len(res_tgt.modules))):
        k = degree + j
        src, tgt = res_src.modules[k], res_tgt.modules[j]
        h = hom_space(src, tgt)
        out_map = res_tgt.augmentation if j == 0 else res_tgt.differentials[j - 1]
        target_map = first if j == 0 else lifts[-1].compose(res_src.differentials[k - 1])
        tspace = hom_space(src, out_map.target)
        cols = [tspace.coordinates_of(out_map.compose(b)) for b in h.basis]
        sol = rref_solve(Matrix.from_columns(f, cols, rows=tspace.dimension),
                         tspace.coordinates_of(target_map))
        if sol is None:
            raise ModuleError("cocycle lift failed; input is not a cocycle")
        lifts.append(h.from_coordinates(sol))
    return lifts


def parent_ext_bimodule(pres, t_mod, degree: int,
                        bound: int = 12, *, pad_resolution: bool, ext_group=None):
    """Ext_C^degree(M, T) as a (B, End_C(T)^op)-bimodule: the left B-action
    precomposes with a lifted right multiplication, the right action
    postcomposes with endomorphisms of T.  ext_group is that Ext group when
    the caller has it already; it is used when it was computed on the
    resolution of M used here, and Ext is computed again otherwise.  Returns
    (bimodule, ext group, End_C(T)^op algebra)."""
    c_alg = pres.algebra_c
    b_alg = pres.algebra_b
    m_c = pres.bimodule.left_module
    f = c_alg.field
    endt = endo_algebra(t_mod)
    endt_hom = hom_space(t_mod, t_mod)
    if m_c.is_zero():
        zero_bim = bimodule_from_actions(
            b_alg, endt, 0,
            [Matrix.zeros(f, 0, 0) for _ in range(b_alg.dim)],
            [Matrix.zeros(f, 0, 0) for _ in range(endt.dim)])
        return zero_bim, None, endt
    res = min_projective_resolution(m_c, bound)
    if not res.completed:
        raise GlueRefusal(f"pd of M over C exceeds bound {bound}")
    if pad_resolution:
        res = padded_resolution(res)
    eg = ext_group if ext_group is not None and ext_group.resolution is res else \
        ext_on(m_c, t_mod, degree, res)
    r = eg.dim
    a = pres.ambient
    m_layouts = [_m_layout(pres, i) for i in pres.c_idems]
    # left B-action: precompose with lifts of the right multiplications
    left_mats = []
    for k in pres.corner_b.basis_indices:
        rmul = ModuleMap(m_c, m_c, [a.mult_matrix(k, lay, lay, left=False) for lay in m_layouts])
        lifts = parent_lift_along_resolutions(res, res, rmul.compose(res.augmentation))
        cols = []
        for rep in eg.cocycles:
            acted = rep.compose(lifts[degree]) if degree < len(lifts) else \
                ModuleMap.zero(rep.source, rep.target)
            cols.append(eg.class_coordinates(acted))
        left_mats.append(Matrix.from_columns(f, cols, rows=r) if cols
                         else Matrix.zeros(f, r, 0))
    # right End^op-action: postcompose with the endomorphism itself
    right_mats = []
    for k in range(endt.dim):
        coords = endt.change_to_input.column(k)
        phi = endt_hom.from_coordinates(coords)
        cols = []
        for rep in eg.cocycles:
            cols.append(eg.class_coordinates(phi.compose(rep)))
        right_mats.append(Matrix.from_columns(f, cols, rows=r) if cols
                          else Matrix.zeros(f, r, 0))
    bim = bimodule_from_actions(b_alg, endt, r, left_mats, right_mats)
    return bim, eg, endt


def parent_cross_check_shifted_glue(pres, t_mod, s, endo_tri, endt, bim, eg, bound):
    """Exact structure-constant comparison between the glued E and the
    homotopy endomorphism algebra of (structured res of B) + (res of T)[s].

    The deterministic alignment maps each glued basis element to an explicit
    chain map; matching means the images are chain maps, their classes are a
    basis, and their multiplication table reproduces E's structure constants.
    """
    a = pres.ambient
    f = a.field
    p_b, _ = structured_b_resolution(pres, bound)
    res_t = min_projective_resolution(t_mod, bound)
    if not res_t.completed:
        raise GlueRefusal("pd of T over C exceeds the bound")
    rt = inflate_complex(pres.ambient, pres.b_idems, resolution_complex(res_t))
    c_side = quotient_algebra(a, pres.b_idems)
    p_t = shift_complex(rt, s)
    total, incs, projs = direct_sum_complexes([p_b, p_t])
    h = hom_homotopy(total, total, 0)
    e_glued = endo_tri.ambient
    if h.dim != e_glued.dim:
        return False
    images = []
    # corner End_C(T)^op: lift each endomorphism along the resolution of T
    endt_hom = hom_space(t_mod, t_mod)
    for k in range(endt.dim):
        coords = endt.change_to_input.column(k)
        phi = endt_hom.from_coordinates(coords)
        lifts = parent_lift_along_resolutions(res_t, res_t, phi.compose(res_t.augmentation))
        comps = {}
        for j, lam in enumerate(lifts):
            comps[-j - s] = inflate_map(c_side, lam, rt.term(-j), rt.term(-j))
        cm = ChainMap(p_t, p_t, comps)
        images.append(("t", k, incs[1].compose(cm).compose(projs[1])))
    # corner B: right multiplication on A e_B plus the lifted action on res M
    ae_b = p_b.term(0)
    m_c = pres.bimodule.left_module
    m_layouts = [_m_layout(pres, i) for i in pres.c_idems]
    for k in pres.corner_b.basis_indices:
        top = ModuleMap(ae_b, ae_b, [a.mult_matrix(k, lay, lay, left=False)
                                     for lay in ae_b.layout])
        top.check_intertwines()
        comps = {0: top}
        if not m_c.is_zero():
            res_m = min_projective_resolution(m_c, bound)
            rmul = ModuleMap(m_c, m_c, [a.mult_matrix(k, lay, lay, left=False)
                                        for lay in m_layouts])
            lifts = parent_lift_along_resolutions(res_m, res_m,
                                                  rmul.compose(res_m.augmentation))
            for j, lam in enumerate(lifts):
                comps[-j - 1] = inflate_map(c_side, lam, p_b.term(-j - 1),
                                            p_b.term(-j - 1))
        cm = ChainMap(p_b, p_b, comps)
        images.append(("b", k, incs[0].compose(cm).compose(projs[0])))
    # connecting Ext classes: lift each element of the bimodule's basis, a
    # combination of the Ext cocycles, to a chain map P_B -> P_T
    if bim.dim:
        res_m = eg.resolution
        for idx, coeffs in enumerate(bim.basis_change.columns()):
            rep = ModuleMap.zero(eg.cocycles[0].source, eg.cocycles[0].target)
            for c, cocycle in zip(coeffs, eg.cocycles):
                if c:
                    rep = rep.add(cocycle.scale(c))
            lifts = parent_lift_along_resolutions(res_m, res_t, rep, s - 1)
            comps = {}
            for j, lam in enumerate(lifts):
                # lam: Q_{s-1+j} -> R_T^{-j}; P_B degree -(s+j), target degree
                # in p_t is -j - s
                sign = f.one() if (s * j) % 2 == 0 else -f.one()
                src_deg = -(s + j)
                src = p_b.term(src_deg)
                tgt = p_t.term(src_deg)
                if src is None or tgt is None:
                    continue
                comps[src_deg] = inflate_map(c_side, lam.scale(sign), src, tgt)
            cm = ChainMap(p_b, p_t, comps)
            images.append(("m", idx, incs[1].compose(cm).compose(projs[0])))
    # alignment order must match the glued algebra's basis order: B-corner
    # basis, then M, then C-corner (= End part) per glue_triangular layout
    order = {"t": 0, "m": 1, "b": 2}
    images.sort(key=lambda rec: (order[rec[0]], rec[1]))
    aligned = [cm for _, _, cm in images]
    coords = [h.class_coordinates(cm) for cm in aligned]
    basis_matrix = Matrix.from_columns(f, coords, rows=h.dim)
    if basis_matrix.rank() != e_glued.dim:
        return False
    # multiplication table must match exactly
    for i in range(e_glued.dim):
        for j in range(e_glued.dim):
            comp = aligned[j].compose(aligned[i])
            got = h.class_coordinates(comp)
            want = [f.zero()] * h.dim
            for k, cval in e_glued.sparse_table[i][j]:
                want = [w + cval * cc for w, cc in zip(want, coords[k])]
            if got != want:
                return False
    return True


# -- cases ------------------------------------------------------------------------------


def loop_pair_case(a, b):
    pres = detect_triangular(loop_pair_algebra(a, b), [0])
    return pres, regular_module(pres.algebra_c), 1


def ah_case():
    # B = k, C = u -> v, M the simple at u: Ext^1(M, C) is one-dimensional,
    # so s = 2 glues with T = C
    b = nilpotent_loop_algebra(1)
    c = a2_algebra()
    m = Bimodule(c, b, 1,
                 [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 1, 1)],
                 [Matrix.identity(QQ, 1)],
                 block_row=[0], block_col=[0])
    pres = glue_triangular(b, c, m)
    return pres, regular_module(pres.algebra_c), 2


def two_summand_case(t_rows):
    # T = C + C over loop pair (2,2): End(T) has two idempotents
    pres = detect_triangular(loop_pair_algebra(2, 2), [0])
    t = module_from_arrow_matrices(
        pres.algebra_c, [4], {"t": Matrix(QQ, [[Fraction(v) for v in row] for row in t_rows])})
    return pres, t, 1


def zero_bimodule_case():
    pres = glued_loop_fixture(2, 2, 0)
    return pres, regular_module(pres.algebra_c), 1


CASES = {
    "loop22": lambda: loop_pair_case(2, 2),
    "loop32": lambda: loop_pair_case(3, 2),
    "loop33": lambda: loop_pair_case(3, 3),
    "ah-s2": ah_case,
    "two-summand-adapted": lambda: two_summand_case(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]),
    "two-summand-rebased": lambda: two_summand_case(
        [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, -1, 1, 0]]),
    "zero-bimodule": zero_bimodule_case,
}


def typed_matrices(mats):
    return [[typed(row) for row in m.data] for m in mats]


@pytest.mark.parametrize("name", list(CASES))
def test_ext_bimodule_and_match_verdict_equal_the_parent(name):
    pres, t, s = CASES[name]()
    want_bim, want_eg, want_endt = parent_ext_bimodule(pres, t, s - 1, BOUND,
                                                       pad_resolution=False)
    bim, endt, b_action, eg = ext_bimodule_at(pres, t, s - 1)
    assert bim.dim == want_bim.dim
    assert typed_matrices(bim.left_action) == typed_matrices(want_bim.left_action)
    assert typed_matrices(bim.right_action) == typed_matrices(want_bim.right_action)
    assert typed_matrices([bim.basis_change]) == typed_matrices([want_bim.basis_change])
    assert len(b_action) == pres.algebra_b.dim
    endo_tri = glue_triangular(endt, pres.algebra_b, bim)
    want = parent_cross_check_shifted_glue(
        pres, t, s, glue_triangular(want_endt, pres.algebra_b, want_bim), want_endt,
        want_bim, want_eg, BOUND)
    got = _cross_check_shifted_glue(pres, t, s, endo_tri, endt, bim, eg, b_action, BOUND)
    assert got is want is True


@pytest.mark.parametrize("name", ["loop33", "ah-s2", "two-summand-rebased"])
def test_many_targets_equal_one_solve_per_target(name, monkeypatch):
    pres, t, _ = CASES[name]()
    res = min_projective_resolution(t, BOUND)
    p = resolution_complex(res)
    q = _augmentation(p, res)
    endt = endo_algebra(t)
    maps = [hom_space(t, t).from_coordinates(endt.change_to_input.column(k)).compose(
        res.augmentation) for k in range(endt.dim)]
    targets = [{0: m} for m in maps] + [{0: maps[0].add(maps[-1])}]
    layouts = []
    real = tiltkit.complexes.hom_layout

    def counting(*args):
        layouts.append(args)
        return real(*args)

    monkeypatch.setattr(tiltkit.complexes, "hom_layout", counting)
    together = _lift_through_quasi_iso(p, q, targets)
    # one call builds the four layouts of its matrix once, for all targets
    assert len(layouts) == 4
    apart = [_lift_through_quasi_iso(p, q, [target])[0] for target in targets]

    def summary(lift):
        g, h = lift
        return ([(m, typed_map(g.comps[m])) for m in sorted(g.comps)],
                [(m, typed_map(h[m])) for m in sorted(h)])

    assert [summary(lift) for lift in together] == [summary(lift) for lift in apart]
    for g, _ in together:
        ChainMap(g.source, g.target, g.comps)


def test_cross_check_refuses_a_scaled_b_image(monkeypatch):
    pres, t, s = CASES["loop22"]()
    bim, endt, b_action, eg = ext_bimodule_at(pres, t, s - 1)
    endo_tri = glue_triangular(endt, pres.algebra_b, bim)
    assert _cross_check_shifted_glue(pres, t, s, endo_tri, endt, bim, eg, b_action, BOUND)
    # twice the image of the first basis element of B, on A e_B and on the
    # resolution of M alike, is still a chain map but breaks the table
    a = pres.ambient
    k = pres.corner_b.basis_indices[0]
    two = a.field.of(2)
    real = a.mult_matrix

    def doubled(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        return out.scale(two) if x == k else out

    monkeypatch.setattr(a, "mult_matrix", doubled)
    scaled = [b_action[0].scale(two)] + b_action[1:]
    assert _cross_check_shifted_glue(pres, t, s, endo_tri, endt, bim, eg, scaled,
                                     BOUND) is False


@pytest.mark.parametrize("name", ["loop33", "ah-s2"])
def test_cross_check_refuses_a_product_on_summands_that_do_not_meet(name):
    # the images of End_C(T)^op, M and B map P_T -> P_T, P_B -> P_T and
    # P_B -> P_B, so (B then End_C(T)^op) and (M then M) compose to zero
    # without being composed; a term in the glued table there is refused
    pres, t, s = CASES[name]()
    bim, endt, b_action, eg = ext_bimodule_at(pres, t, s - 1)
    pairs = [(-1, 0)] + ([(endt.dim, endt.dim)] if bim.dim else [])
    assert len(pairs) == 2
    for i, j in pairs:
        endo_tri = glue_triangular(endt, pres.algebra_b, bim)
        e = endo_tri.ambient
        assert _cross_check_shifted_glue(pres, t, s, endo_tri, endt, bim, eg, b_action, BOUND)
        table = e.sparse_table
        assert table[i][j] == []
        table[i][j] = [(0, e.field.one())]
        assert _cross_check_shifted_glue(pres, t, s, endo_tri, endt, bim, eg, b_action,
                                         BOUND) is False
