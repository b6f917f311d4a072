"""Structural coverage on a three-vertex algebra: multi-idempotent corners,
depth-two resolutions, and cross-module consistency of the gluing checks."""

import pytest

from tiltkit.algebra import detect_triangular
from tiltkit.complexes import hom_homotopy, proj_resolve, stalk_complex
from tiltkit.formats import canonical_json, certificate_to_json
from tiltkit.glue import glue_jshriek
from tiltkit.modules import (
    decompose,
    direct_sum,
    ext,
    min_projective_resolution,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.recollement import (
    IdempotentRecollement,
    functor_criteria_check,
    torsion_canonical_sequence,
    verify_recollement_axioms,
)
from tiltkit.translate import apr_equivalent_algebra, build_apr_tilting, tau_inverse

from paper_criteria import ext_vanishing_glue_check


def test_pd_two_and_ext_square(a3z):
    s_u = simple_module(a3z, 0)
    res = min_projective_resolution(s_u, 5)
    assert res.pd == 2
    # the zero relation contributes a two-step extension class
    s_w = simple_module(a3z, 2)
    assert ext(s_u, s_w, 2, bound=5).dim == 1
    assert ext(s_u, s_w, 1, bound=5).dim == 0


def test_homotopy_ext_agreement_depth_two(a3z):
    mods = [simple_module(a3z, i) for i in range(3)]
    mods += [projective_module(a3z, i) for i in range(3)]
    for x in mods:
        rx = proj_resolve(stalk_complex(x, 0), 6)
        assert not rx.truncated
        for y in mods:
            for n in range(0, 4):
                assert hom_homotopy(rx.complex, stalk_complex(y, 0), n).dim == \
                    ext(x, y, n, bound=6).dim, (x.dims, y.dims, n)


@pytest.mark.parametrize("subset", [[0], [0, 1], [1, 2], [2]])
def test_multi_idempotent_splits(a3z, subset):
    crit = functor_criteria_check(a3z, subset)
    # every downward-closed vertex set gives a triangular split here except
    # the ones whose corner receives arrows from outside
    pres = detect_triangular(a3z, subset)
    assert crit.all_four == crit.corner_vanishes
    assert (pres is not None) == crit.corner_vanishes


def test_two_vertex_corner_recollement(a3z):
    rec = IdempotentRecollement(a3z, [0, 1])
    assert rec.corner.algebra.idempotent_count == 2
    corpus = [m for m in
              [regular_module(a3z)] + [simple_module(a3z, i) for i in range(3)]
              if not m.is_zero()]
    report = verify_recollement_axioms(rec, corpus)
    assert report.ok, report.failures()[:3]
    pres = detect_triangular(a3z, [0, 1])
    for x in corpus:
        wit = torsion_canonical_sequence(pres, x)
        assert wit.exact and wit.hom_vanishes


def test_apr_on_two_vertex_corner(a3z):
    # e_B = {u, v}: the corner C = k is self-injective local and M = (b) is
    # one-dimensional and free over C, so the generalized construction applies
    pres = detect_triangular(a3z, [0, 1])
    data = build_apr_tilting(pres, bound=8)
    assert data.selfinjective_local[0] and data.selfinjective_local[1]
    assert data.free_summand
    assert data.tilting_report.verdict is True
    assert len(decompose(data.module)) == 3
    cert = apr_equivalent_algebra(data)
    assert cert.verdict == "VALID"
    assert cert.invariants.all_equal


def test_glue_validity_matches_module_level_check(a3z):
    # the corner C on {v, w} carries its own tilting module; gluing it with
    # the projective side must agree with the module-level Ext criterion
    pres = detect_triangular(a3z, [0])
    assert pres is not None
    c_alg = pres.algebra_c
    t_c, _, _ = direct_sum([projective_module(c_alg, 0),
                            tau_inverse(projective_module(c_alg, 1)).module])
    rep = ext_vanishing_glue_check(pres, t_c, bound=8)
    cert = glue_jshriek(pres, stalk_complex(t_c, 0),
                        stalk_complex(regular_module(pres.algebra_b), 0), bound=8)
    assert (cert.verdict == "VALID") == (rep.verdict is True)
    if cert.verdict == "VALID":
        assert cert.invariants.all_equal


def test_certificates_reproducible_at_library_level(a3z):
    pres = detect_triangular(a3z, [0, 1])
    docs = []
    for _ in range(2):
        data = build_apr_tilting(detect_triangular(a3z, [0, 1]), bound=8)
        docs.append(canonical_json(certificate_to_json(apr_equivalent_algebra(data))))
    assert docs[0] == docs[1]
