from fractions import Fraction

import pytest

from tiltkit.algebra import Bimodule, detect_triangular, glue_triangular
from tiltkit.complexes import (
    Complex,
    direct_sum_complexes,
    exceptionality_check,
    homology_dims,
    stalk_complex,
)
from tiltkit.glue import (
    GlueRefusal,
    ext_bimodule,
    glue_jshriek,
    glue_jstar,
    shifted_stalk_glue,
    structured_b_resolution,
)
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    ModuleMap,
    direct_sum,
    ext,
    module_from_arrow_matrices,
    projective_module,
    regular_module,
)
from tiltkit.translate import build_apr_tilting

from conftest import (
    a2_algebra,
    apr_tilt_over,
    glued_loop_fixture,
    nilpotent_loop_algebra,
    padded_glue_resolutions,
    point_extension_of_a2,
    violation_fixture,
)
from paper_criteria import (
    ext_vanishing_glue_check,
    hom_surjectivity_check,
    homology_corner_check,
    restrict_tilting_to_corner,
    restriction_sequence_check,
)


def tri(alg):
    return detect_triangular(alg, [0])


def corner_stalks(pres):
    y = stalk_complex(regular_module(pres.algebra_c), 0)
    z = stalk_complex(regular_module(pres.algebra_b), 0)
    return y, z


# -- identity gluing -------------------------------------------------------------


def test_glue_jshriek_identity(kr32):
    pres = tri(kr32)
    y, z = corner_stalks(pres)
    cert = glue_jshriek(pres, y, z)
    assert cert.verdict == "VALID"
    assert cert.endo.dim == kr32.dim
    assert cert.invariants.all_equal
    assert cert.endo_triangular is not None
    # E is isomorphic to A: corner dimensions match the split
    assert cert.endo_triangular.algebra_b.dim == 3
    assert cert.endo_triangular.algebra_c.dim == 2
    assert cert.endo_triangular.bimodule.dim == 2


def test_glue_jstar_zero_bimodule():
    pres = glued_loop_fixture(2, 3, 0)
    y, z = corner_stalks(pres)
    cert = glue_jstar(pres, y, z)
    assert cert.verdict == "VALID"
    assert cert.endo.dim == pres.ambient.dim
    assert cert.invariants.all_equal


def test_glue_jstar_22_fails_hom_window(kr22):
    # with M = C free the pipeline runs; validity is decided by the Hom
    # window check, which finds Hom(j_* B, i_* C[1]) of dimension 2
    pres = tri(kr22)
    y, z = corner_stalks(pres)
    cert = glue_jstar(pres, y, z)
    assert cert.verdict == "INVALID"
    cond = cert.condition("cross_vanishing")
    assert cond.verdict is False
    assert cond.witness == (1, 2)


def test_glue_jstar_refuses_infinite_pd(kr12):
    pres = tri(kr12)
    y, z = corner_stalks(pres)
    with pytest.raises(GlueRefusal):
        glue_jstar(pres, y, z, bound=6)


# -- homology corner check (cor45-style) --------------------------------------------


def test_homology_corner_stalk_passes(kr32):
    pres = tri(kr32)
    _, z = corner_stalks(pres)
    rep = homology_corner_check(pres, z)
    assert rep.verdict
    assert all(v == 0 for v in rep.per_degree.values())


def test_homology_corner_violation_matches_certificate():
    pres = violation_fixture()
    b_alg = pres.algebra_b
    z_parts = [stalk_complex(projective_module(b_alg, 0), 0),
               stalk_complex(projective_module(b_alg, 1), -1)]
    z, _, _ = direct_sum_complexes(z_parts)
    rep = homology_corner_check(pres, z)
    assert not rep.verdict
    assert any(v != 0 for v in rep.per_degree.values())
    y = stalk_complex(regular_module(pres.algebra_c), 0)
    cert = glue_jshriek(pres, y, z)
    assert cert.verdict == "INVALID"
    assert (cert.condition("cross_vanishing").verdict is True) == rep.verdict


def test_homology_corner_two_term_quasi_stalk(kr22):
    # two-term complex with homology concentrated in degree zero
    pres = tri(kr22)
    b_alg = pres.algebra_b
    p = projective_module(b_alg, 0)
    two, incs, projs = direct_sum([p, p])
    d = incs[0].compose(projs[0]).compose(ModuleMap.identity(two))
    z = Complex(b_alg, -1, [p, two], [incs[0]])
    rep = homology_corner_check(pres, z)
    assert rep.verdict


# -- surjectivity check (cor46-style) ---------------------------------------------------


def test_surjectivity_stalk_vacuous(kr32):
    pres = tri(kr32)
    p = stalk_complex(regular_module(pres.algebra_c), 0)
    rep = hom_surjectivity_check(pres, p)
    assert rep.verdict


def test_surjectivity_two_term_table(kr22):
    pres = tri(kr22)
    c_alg = pres.algebra_c
    creg = regular_module(c_alg)
    two, incs, _ = direct_sum([creg, creg])
    p = Complex(c_alg, -1, [creg, two], [incs[0]])
    rep = hom_surjectivity_check(pres, p)
    assert rep.verdict
    assert rep.per_degree[-1][0] == rep.per_degree[-1][1]
    # cross-check: exceptionality of A e_B + P agrees
    from tiltkit.complexes import inflate_complex
    ip = inflate_complex(pres.ambient, pres.b_idems, p)
    ae_b = stalk_complex(projective_module(pres.ambient, 0), 0)
    total, _, _ = direct_sum_complexes([ae_b, ip])
    assert exceptionality_check(total, bound=8).verdict is True


def test_surjectivity_violation_matches_exceptionality():
    pres = violation_fixture()
    c_alg = pres.algebra_c
    z_parts = [stalk_complex(regular_module(c_alg), 0),
               stalk_complex(regular_module(c_alg), -1)]
    p, _, _ = direct_sum_complexes(z_parts)
    rep = hom_surjectivity_check(pres, p)
    assert not rep.verdict
    n, (rank, dim) = sorted(rep.per_degree.items())[0]
    assert rank < dim
    from tiltkit.complexes import inflate_complex
    ip = inflate_complex(pres.ambient, pres.b_idems, p)
    a = pres.ambient
    ae_b, _, _ = direct_sum([projective_module(a, i) for i in pres.b_idems])
    total, _, _ = direct_sum_complexes([stalk_complex(ae_b, 0), ip])
    assert exceptionality_check(total, bound=8).verdict is False


# -- module-level ext vanishing (cor47-style) ---------------------------------------------


def test_ext_vanishing_projective_corner(kr22):
    pres = tri(kr22)
    rep = ext_vanishing_glue_check(pres, regular_module(pres.algebra_c))
    assert rep.verdict is True
    assert (rep.pd_c, rep.pd_a, rep.ext_dims) == (0, 0, {})
    assert rep.agreement_with_tilting


def test_ext_vanishing_apr_corner():
    pres = point_extension_of_a2()
    t = apr_tilt_over(pres.algebra_c)
    rep = ext_vanishing_glue_check(pres, t)
    assert (rep.pd_c, rep.pd_a, rep.ext_dims) == (1, 1, {1: 0})
    assert rep.verdict is True
    assert rep.agreement_with_tilting


# -- shifted stalk gluing (cor48-style) ----------------------------------------------------


def test_shifted_glue_s1_point_extension():
    pres = point_extension_of_a2()
    t = apr_tilt_over(pres.algebra_c)
    cert = shifted_stalk_glue(pres, t, 1, bound=8)
    assert cert.verdict == "VALID"
    assert cert.condition("homotopy_endo_match").verdict is True
    assert cert.invariants.all_equal
    # lower corner: Hom_C(M, T) = e_u T of dimension 2
    assert cert.endo_triangular.bimodule.dim == 2


def test_shifted_glue_s1_loop_pair(kr22):
    pres = tri(kr22)
    t = regular_module(pres.algebra_c)
    cert = shifted_stalk_glue(pres, t, 1, bound=8)
    assert cert.verdict == "VALID"
    assert cert.condition("homotopy_endo_match").verdict is True
    assert cert.endo_triangular.bimodule.dim == 2
    assert cert.invariants.values["cartan_det"] == (4, 4)


def test_shifted_glue_ah_case():
    # B = k, C = u -> v, M the simple at u: pd_C M = 1, Hom(M, C) = 0,
    # and Ext^1(M, C) is one-dimensional, so s = 2 glues with T = C
    b = nilpotent_loop_algebra(1)
    c = a2_algebra()
    m = Bimodule(c, b, 1,
                 [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 1, 1)],
                 [Matrix.identity(QQ, 1)],
                 block_row=[0], block_col=[0])
    pres = glue_triangular(b, c, m)
    t = regular_module(pres.algebra_c)
    cert = shifted_stalk_glue(pres, t, 2, bound=8)
    assert cert.verdict == "VALID"
    assert cert.endo_triangular.bimodule.dim == 1   # dim Ext^1(M, C)
    assert cert.condition("homotopy_endo_match").verdict is True
    # brute-force cross-check of the corner dimension via a padded resolution
    with padded_glue_resolutions():
        bim, _, _ = ext_bimodule(pres, t, ext(pres.bimodule.left_module, t, 1, bound=8))
    assert bim.dim == 1


@pytest.mark.parametrize("t_rows", [
    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, -1, 1, 0]],
], ids=["adapted", "rebased"])
def test_shifted_glue_two_summand_t(kr22, t_rows):
    # T = C + C: End(T) has two idempotents, so the Ext bimodule is rebased
    # and the cross-check lifts the cocycles in that basis
    pres = tri(kr22)
    c_alg = pres.algebra_c
    t = module_from_arrow_matrices(
        c_alg, [4], {"t": Matrix(QQ, [[Fraction(v) for v in row] for row in t_rows])})
    cert = shifted_stalk_glue(pres, t, 1, bound=8)
    assert cert.verdict == "VALID"
    assert cert.condition("homotopy_endo_match").verdict is True
    assert cert.endo_triangular.bimodule.dim == 4


def test_shifted_glue_wrong_shift_invalid():
    pres = point_extension_of_a2()
    t = apr_tilt_over(pres.algebra_c)
    cert = shifted_stalk_glue(pres, t, 2, bound=8)
    assert cert.verdict == "INVALID"
    assert cert.condition("ext_vanishing_off_shift").verdict is False


def test_shifted_glue_zero_bimodule():
    pres = glued_loop_fixture(2, 2, 0)
    t = regular_module(pres.algebra_c)
    cert = shifted_stalk_glue(pres, t, 1, bound=6)
    assert cert.verdict == "VALID"
    assert cert.condition("homotopy_endo_match").verdict is True
    assert cert.endo_triangular.bimodule.dim == 0
    assert cert.endo.dim == pres.ambient.dim


def test_padded_resolution_invariance(kr22):
    pres = tri(kr22)
    t = regular_module(pres.algebra_c)
    plain = shifted_stalk_glue(pres, t, 1, bound=8)
    with padded_glue_resolutions():
        padded = shifted_stalk_glue(pres, t, 1, bound=8)
    # M is free over C; the padding gives its resolution a second term
    assert plain.condition("ext_vanishing_off_shift").window == (0, 0)
    assert padded.condition("ext_vanishing_off_shift").window == (0, 1)
    assert padded.condition("homotopy_endo_match").verdict is True
    assert plain.endo.dim == padded.endo.dim
    assert plain.endo_triangular.bimodule.dim == padded.endo_triangular.bimodule.dim
    for key in ("simple_count", "cartan_det", "center_dim"):
        assert plain.invariants.values[key] == padded.invariants.values[key]


# -- structured resolution -------------------------------------------------------------------


def test_structured_b_resolution_shapes(kr32):
    pres = tri(kr32)
    cx, witness = structured_b_resolution(pres, bound=8)
    assert cx.term(0).total_dim == 5          # A e_B
    assert cx.term(-1).total_dim == 2         # inflated cover of M = C
    assert homology_dims(cx, 0) == [3, 0]     # the inflated B
    assert not any(homology_dims(cx, -1))


# -- restriction sequence and corner restriction ----------------------------------------------


def test_restriction_sequence_regular(kr22):
    pres = tri(kr22)
    rep = restriction_sequence_check(pres, regular_module(kr22), bound=8)
    assert rep.alternating_sum_zero
    assert rep.higher_vanishing
    assert rep.ext1_torsion == 0              # projective T


def test_restriction_sequence_apr(kr22):
    pres = tri(kr22)
    t = build_apr_tilting(pres).module
    rep = restriction_sequence_check(pres, t, bound=8)
    assert rep.alternating_sum_zero
    assert rep.higher_vanishing


def test_restriction_sequence_zero_bimodule():
    pres = glued_loop_fixture(2, 2, 0)
    rep = restriction_sequence_check(pres, regular_module(pres.ambient), bound=6)
    assert rep.alternating_sum_zero
    # with M = 0 the middle map is a dimension isomorphism
    assert rep.hom_torsion + rep.hom_free == rep.end_t


def test_corner_restriction_regular(kr22):
    pres = tri(kr22)
    rep = restrict_tilting_to_corner(pres, regular_module(kr22), bound=8)
    assert rep.tilting is True
    assert rep.pd == 0
    assert rep.module.total_dim == 2          # e_B A = e_B A e_B = B


def test_corner_restriction_apr(kr22):
    pres = tri(kr22)
    t = build_apr_tilting(pres).module
    rep = restrict_tilting_to_corner(pres, t, bound=8)
    assert rep.tilting is True
    assert rep.pd <= 1


def test_corner_restriction_refuses_pd2():
    # u -> v -> w with the composite zero: the simple at u has pd 2
    from tiltkit.algebra import PathAlgebraPresentation, Quiver, build_fd_algebra
    q = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    alg = build_fd_algebra(PathAlgebraPresentation(q, [[(1, ("a", "b"))]], 3))
    pres = detect_triangular(alg, [0])
    assert pres is not None
    from tiltkit.modules import simple_module
    s = simple_module(alg, 0)
    with pytest.raises(GlueRefusal):
        restrict_tilting_to_corner(pres, s, bound=6)
