"""Acceptance criteria, one test per criterion.

Every check is exact (integer dimensions, exact verdicts); there are no
tolerances anywhere.  Each test prints a single PASS line on success so the
suite output doubles as the acceptance report.
"""

import json
from pathlib import Path

import pytest

from tiltkit.algebra import Bimodule, detect_triangular
from tiltkit.complexes import (
    direct_sum_complexes,
    exceptionality_check,
    hom_homotopy,
    inflate_complex,
    proj_resolve,
    stalk_complex,
)
from tiltkit.glue import (
    GluedTiltingSpec,
    ext_bimodule,
    glue_jshriek,
    glue_jstar,
    shifted_stalk_glue,
)
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    direct_sum,
    ext,
    hom_dim,
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
from tiltkit.translate import (
    AprPreconditionError,
    apr_equivalent_algebra,
    build_apr_tilting,
    endo_triangularity,
    tau_inverse,
)
from conftest import (
    glued_loop_fixture,
    jordan_bimodule,
    loop_pair_algebra,
    matrix2_algebra,
    nilpotent_loop_algebra,
    padded_glue_resolutions,
    product_kk_algebra,
    a2_algebra,
)
from paper_criteria import hom_surjectivity_check, homology_corner_check
from test_glue import point_extension_of_a2, violation_fixture, apr_tilt_over
from test_modules import middle_term_module


def tri(alg):
    return detect_triangular(alg, [0])


def direct_sum_bimodule(m1: Bimodule, m2: Bimodule) -> Bimodule:
    f = m1.left_algebra.field
    dim = m1.dim + m2.dim
    sizes = [m1.dim, m2.dim]

    def block_diag(a, bmat):
        return Matrix.from_blocks(f, sizes, sizes, {(0, 0): a, (1, 1): bmat})

    return Bimodule(
        m1.left_algebra, m1.right_algebra, dim,
        [block_diag(m1.left_action[k], m2.left_action[k]) for k in range(m1.left_algebra.dim)],
        [block_diag(m1.right_action[k], m2.right_action[k]) for k in range(m1.right_algebra.dim)],
        labels=[f"a.{l}" for l in m1.labels] + [f"b.{l}" for l in m2.labels],
        block_row=list(m1.block_row) + list(m2.block_row),
        block_col=list(m1.block_col) + list(m2.block_col))


_cache = {}


def cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def test_acceptance_1_example_dimensions(kr32):
    pres = tri(kr32)
    assert kr32.dim == 7
    assert pres.algebra_b.dim == 3
    assert pres.algebra_c.dim == 2
    assert pres.bimodule.dim == 2
    assert projective_module(kr32, 0).dims == [3, 2]
    assert projective_module(kr32, 1).dims == [0, 2]
    tau = tau_inverse(projective_module(kr32, 1))
    assert tau.module.dims == [3, 0]
    print("ACCEPTANCE 1 PASS: dims A=7, B=3, C=2, M=2; P_x=(3,2), P_y=(0,2), "
          "tau^{-1}P_y=(3,0), exact")


def test_acceptance_2_trichotomy(kr12, kr22, kr32):
    # (1, 2): preconditions fail and T is not tilting
    with pytest.raises(AprPreconditionError):
        build_apr_tilting(tri(kr12), bound=8)
    data12 = cached("apr12", lambda: build_apr_tilting(tri(kr12), enforce=False, bound=8))
    assert data12.free_summand is False
    assert data12.tilting_report.verdict is False
    # (3, 2): tilting, both Hom spaces nonzero, E not triangular
    data32 = cached("apr32", lambda: build_apr_tilting(tri(kr32), bound=8))
    assert data32.tilting_report.verdict is True
    rep32 = endo_triangularity(data32)
    assert rep32.hom_aeb_to_tau > 0 and rep32.hom_tau_to_aeb > 0
    cert32 = cached("cert32", lambda: apr_equivalent_algebra(data32))
    assert cert32.endo_triangular is None
    # (2, 2): tilting, Hom(tau^{-1}P_y, P_x) = 0, E triangular with corners
    # End(tau^{-1} C)^op and B
    data22 = cached("apr22", lambda: build_apr_tilting(tri(kr22), bound=8))
    assert data22.tilting_report.verdict is True
    rep22 = endo_triangularity(data22)
    assert rep22.hom_tau_to_aeb == 0
    cert22 = cached("cert22", lambda: apr_equivalent_algebra(data22))
    assert cert22.endo_triangular is not None
    endt_dim = hom_dim(data22.tau_part.module, data22.tau_part.module)
    assert cert22.endo_triangular.algebra_b.dim == endt_dim
    assert cert22.endo_triangular.algebra_c.dim == tri(kr22).algebra_b.dim
    print("ACCEPTANCE 2 PASS: trichotomy (1,2) fails preconditions and tilting; "
          "(3,2) tilting non-triangular; (2,2) tilting triangular")


def test_acceptance_3_projectivity_criterion_corpus():
    fixtures = []
    for a in range(1, 5):
        for b in range(1, 5):
            for m in range(1, min(a, b) + 1):
                fixtures.append((a, b, m, None))
    # direct-sum bimodule variants (proper submodule-plus-quotient shapes)
    fixtures.append((2, 2, None, (1, 1)))
    fixtures.append((3, 3, None, (2, 1)))
    assert len(fixtures) >= 20
    tilting_cases = 0
    for a, b, m, pair in fixtures:
        if pair is None:
            pres = glued_loop_fixture(a, b, m)
        else:
            from tiltkit.algebra import glue_triangular
            balg = nilpotent_loop_algebra(a)
            calg = nilpotent_loop_algebra(b)
            bim = direct_sum_bimodule(jordan_bimodule(calg, balg, pair[0]),
                                      jordan_bimodule(calg, balg, pair[1]))
            pres = glue_triangular(balg, calg, bim)
        data = build_apr_tilting(pres, enforce=False, bound=6)
        rep = endo_triangularity(data)   # raises on any counterexample
        if data.tilting_report.verdict is True:
            tilting_cases += 1
            assert rep.equivalence_holds
            # classical cross-check: number of distinct indecomposable
            # summands of a tilting module equals the number of simples
            from tiltkit.modules import decompose
            assert len(decompose(data.module)) == pres.ambient.idempotent_count
    assert tilting_cases >= 10
    print(f"ACCEPTANCE 3 PASS: projectivity criterion on {len(fixtures)} fixtures, "
          f"{tilting_cases} tilting cases, zero counterexamples")


def test_acceptance_4_functor_criteria_corpus():
    corpus = [(matrix2_algebra(), [0]), (matrix2_algebra(), [1]),
              (product_kk_algebra(), [0]), (product_kk_algebra(), [1]),
              (a2_algebra(), [0]), (a2_algebra(), [1])]
    for (a, b, m) in [(1, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 1)]:
        amb = glued_loop_fixture(a, b, m).ambient
        corpus.append((amb, [0]))
        corpus.append((amb, [1]))
    for alg, subset in corpus:
        crit = functor_criteria_check(alg, subset)
        assert crit.all_four == crit.corner_vanishes, (alg, subset)
    print(f"ACCEPTANCE 4 PASS: four functor criteria match corner vanishing on "
          f"{len(corpus)} instances including non-triangular controls")


def test_acceptance_5_six_functor_axioms_and_torsion(kr32, kr22):
    checked = 0
    for alg in (kr32, kr22):
        corpus = [projective_module(alg, i) for i in range(2)]
        corpus += [simple_module(alg, i) for i in range(2)]
        corpus += [regular_module(alg), middle_term_module(alg)] \
            if alg is kr32 else [regular_module(alg)]
        rec = IdempotentRecollement(alg, [0])
        report = verify_recollement_axioms(rec, corpus)
        assert report.ok, report.failures()[:3]
        pres = tri(alg)
        for x in corpus:
            wit = torsion_canonical_sequence(pres, x)
            assert wit.exact and wit.hom_vanishes
            checked += 1
    print(f"ACCEPTANCE 5 PASS: six-functor axioms and torsion sequences on "
          f"{checked} corpus modules")


def test_acceptance_6_oracle_equivalence(kr32, dual_numbers):
    corpus = [projective_module(kr32, 0), projective_module(kr32, 1),
              simple_module(kr32, 0), simple_module(kr32, 1),
              middle_term_module(kr32),
              tau_inverse(projective_module(kr32, 1)).module]
    sources = [m for m in corpus if min_projective_resolution(m, 7).completed]
    assert len(sources) >= 4
    pairs = 0
    for x in sources:
        rx = proj_resolve(stalk_complex(x, 0), 7)
        assert not rx.truncated
        for y in corpus:
            for n in range(0, 7):
                e = ext(x, y, n, bound=8)
                h = hom_homotopy(rx.complex, stalk_complex(y, 0), n)
                assert e.dim == h.dim, (x.dims, y.dims, n)
            pairs += 1
    # one more algebra for range
    s = regular_module(dual_numbers)
    rs = proj_resolve(stalk_complex(s, 0), 7)
    for n in range(0, 7):
        assert hom_homotopy(rs.complex, stalk_complex(
            simple_module(dual_numbers, 0), 0), n).dim == \
            ext(s, simple_module(dual_numbers, 0), n, bound=8).dim
    print(f"ACCEPTANCE 6 PASS: homotopy Hom equals Ext on {pairs} stalk pairs, "
          "degrees 0..6, two independent code paths")


def _glued_fixture_certs():
    def build():
        out = []
        pres32 = tri(loop_pair_algebra(3, 2))
        y32 = stalk_complex(regular_module(pres32.algebra_c), 0)
        z32 = stalk_complex(regular_module(pres32.algebra_b), 0)
        out.append(("identity32", glue_jshriek(GluedTiltingSpec(pres32, y32, z32), 8)))
        pres22 = tri(loop_pair_algebra(2, 2))
        y22 = stalk_complex(regular_module(pres22.algebra_c), 0)
        z22 = stalk_complex(regular_module(pres22.algebra_b), 0)
        out.append(("identity22", glue_jshriek(GluedTiltingSpec(pres22, y22, z22), 8)))
        out.append(("jstar22", glue_jstar(GluedTiltingSpec(pres22, y22, z22), 8)))
        pres0 = glued_loop_fixture(2, 3, 0)
        y0 = stalk_complex(regular_module(pres0.algebra_c), 0)
        z0 = stalk_complex(regular_module(pres0.algebra_b), 0)
        out.append(("jstar_m0", glue_jstar(GluedTiltingSpec(pres0, y0, z0), 8)))
        vpres = violation_fixture()
        vy = stalk_complex(regular_module(vpres.algebra_c), 0)
        vz_parts = [stalk_complex(projective_module(vpres.algebra_b, 0), 0),
                    stalk_complex(projective_module(vpres.algebra_b, 1), -1)]
        vz, _, _ = direct_sum_complexes(vz_parts)
        out.append(("violation", glue_jshriek(GluedTiltingSpec(vpres, vy, vz), 8)))
        return out
    return cached("glued_certs", build)


def test_acceptance_7_automatic_vanishing_and_checks():
    certs = _glued_fixture_certs()
    for name, cert in certs:
        auto = cert.condition("automatic_reverse_vanishing")
        assert auto is not None and auto.verdict is True, name
        assert auto.window is not None
    # homology-corner verdict matches certificate validity (Y = stalk C)
    pres32 = tri(loop_pair_algebra(3, 2))
    z32 = stalk_complex(regular_module(pres32.algebra_b), 0)
    assert homology_corner_check(pres32, z32).verdict is True
    ident = dict(certs)["identity32"]
    assert (ident.verdict == "VALID") is True
    vpres = violation_fixture()
    vz_parts = [stalk_complex(projective_module(vpres.algebra_b, 0), 0),
                stalk_complex(projective_module(vpres.algebra_b, 1), -1)]
    vz, _, _ = direct_sum_complexes(vz_parts)
    hc = homology_corner_check(vpres, vz)
    viol = dict(certs)["violation"]
    assert hc.verdict is False and viol.verdict == "INVALID"
    # dual-surjectivity verdict matches exceptionality of A e_B + P, with a
    # positive two-term fixture and the hand-built violation
    pres22 = tri(loop_pair_algebra(2, 2))
    creg = regular_module(pres22.algebra_c)
    two, incs, _ = direct_sum([creg, creg])
    from tiltkit.complexes import Complex
    p_pos = Complex(pres22.algebra_c, -1, [creg, two], [incs[0]])
    for pres, p in ((pres22, stalk_complex(creg, 0)), (pres22, p_pos)):
        rep = hom_surjectivity_check(pres, p)
        ip = inflate_complex(pres.ambient, pres.b_idems, p)
        ae_b, _, _ = direct_sum([projective_module(pres.ambient, i)
                                 for i in pres.b_idems])
        total, _, _ = direct_sum_complexes([stalk_complex(ae_b, 0), ip])
        assert rep.verdict == (exceptionality_check(total, 8).verdict is True)
    vcreg = regular_module(vpres.algebra_c)
    p_neg, _, _ = direct_sum_complexes([stalk_complex(vcreg, 0),
                                        stalk_complex(vcreg, -1)])
    rep = hom_surjectivity_check(vpres, p_neg)
    ipn = inflate_complex(vpres.ambient, vpres.b_idems, p_neg)
    ae_bn, _, _ = direct_sum([projective_module(vpres.ambient, i)
                              for i in vpres.b_idems])
    totn, _, _ = direct_sum_complexes([stalk_complex(ae_bn, 0), ipn])
    assert rep.verdict is False
    assert exceptionality_check(totn, 8).verdict is False
    print("ACCEPTANCE 7 PASS: automatic vanishing in full windows on "
          f"{len(certs)} glued fixtures; corner-homology and surjectivity "
          "verdicts match certificate validity incl. hand-built violations")


def test_acceptance_8_shifted_glue_exact_match():
    pres1 = point_extension_of_a2()
    t1 = apr_tilt_over(pres1.algebra_c)
    c1 = cached("stalk1", lambda: shifted_stalk_glue(pres1, t1, 1, bound=8))
    assert c1.verdict == "VALID"
    assert c1.condition("homotopy_endo_match").verdict is True
    pres2 = tri(loop_pair_algebra(2, 2))
    t2 = regular_module(pres2.algebra_c)
    c2 = cached("stalk2", lambda: shifted_stalk_glue(pres2, t2, 1, bound=8))
    assert c2.verdict == "VALID"
    assert c2.condition("homotopy_endo_match").verdict is True
    # AH case: s = d + 1 with T = C; lower corner dim = dim Ext^d(M, C)
    from tiltkit.algebra import Bimodule, glue_triangular
    from tiltkit.linalg import QQ, Matrix
    balg = nilpotent_loop_algebra(1)
    calg = a2_algebra()
    m = Bimodule(calg, balg, 1,
                 [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1),
                  Matrix.zeros(QQ, 1, 1)],
                 [Matrix.identity(QQ, 1)], block_row=[0], block_col=[0])
    pres3 = glue_triangular(balg, calg, m)
    t3 = regular_module(pres3.algebra_c)
    c3 = cached("stalkAH", lambda: shifted_stalk_glue(pres3, t3, 2, bound=8))
    assert c3.verdict == "VALID"
    assert c3.endo_triangular.bimodule.dim == 1
    # brute force: recompute the Ext dimension through a padded resolution
    with padded_glue_resolutions():
        eg = ext(pres3.bimodule.left_module, t3, 1, bound=8)
        bim_pad, _, _ = ext_bimodule(pres3, t3, eg)
    assert bim_pad.dim == 1
    assert c3.condition("homotopy_endo_match").verdict is True
    print("ACCEPTANCE 8 PASS: shifted gluing matches the homotopy endomorphism "
          "algebra exactly on two s=1 fixtures; s=d+1 corner dim cross-checked")


def test_acceptance_9_valid_certificates_pass_invariants(kr22):
    certs = []
    certs.extend(c for _, c in _glued_fixture_certs())
    certs.append(_cache.get("cert22") or apr_equivalent_algebra(
        build_apr_tilting(tri(kr22), bound=8)))
    certs.append(_cache.get("stalk1"))
    certs.append(_cache.get("stalk2"))
    certs.append(_cache.get("stalkAH"))
    valid = 0
    for cert in certs:
        if cert is None:
            continue
        if cert.verdict == "VALID":
            valid += 1
            assert cert.invariants is not None
            assert cert.invariants.all_equal
    assert valid >= 5
    apr22 = _cache.get("cert22")
    for key in ("simple_count", "cartan_det", "center_dim"):
        left, right = apr22.invariants.values[key]
        assert left == right
    assert apr22.invariants.values["cartan_det"] == (4, 4)
    assert apr22.invariants.values["center_dim"] == (2, 2)
    assert apr22.invariants.values["simple_count"] == (2, 2)
    print(f"ACCEPTANCE 9 PASS: all {valid} VALID certificates agree on simple "
          "count, Cartan determinant, and center dimension")


def test_acceptance_10_byte_identical_runs(tmp_path):
    from tiltkit.cli import main
    from conftest import loop_pair_presentation
    from tiltkit.formats import algebra_input_to_json

    def run_suite(root: Path):
        root.mkdir()
        alg22 = root / "alg22.json"
        alg32 = root / "alg32.json"
        alg22.write_text(json.dumps(algebra_input_to_json(
            loop_pair_presentation(2, 2)), sort_keys=True))
        alg32.write_text(json.dumps(algebra_input_to_json(
            loop_pair_presentation(3, 2)), sort_keys=True))
        t_doc = {"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}
        (root / "t.json").write_text(json.dumps(t_doc, sort_keys=True))
        outputs = []
        cmds = [
            (["--workspace", str(root / "ws"), "algebra", "build", str(alg22)], 0),
            (["apr", str(alg22), "--e", "x", "--bound", "8",
              "--out", str(root / "apr22.json")], 0),
            (["apr", str(alg32), "--e", "x", "--bound", "8",
              "--out", str(root / "apr32.json")], 0),
            (["glue", str(alg32), "--e", "x", "--mode", "jshriek", "--bound", "8",
              "--out", str(root / "glue32.json")], 0),
            (["glue", str(alg22), "--e", "x", "--mode", "stalk", "-T",
              str(root / "t.json"), "--shift", "1", "--bound", "8",
              "--out", str(root / "stalk22.json")], 0),
        ]
        for argv, want in cmds:
            rc = main(argv)
            assert rc == want, argv
        for name in ("apr22.json", "apr32.json", "glue32.json", "stalk22.json"):
            outputs.append((name, (root / name).read_bytes()))
        ws_objects = sorted((root / "ws" / "objects").glob("*.json"))
        outputs.append(("objects", [(p.name, p.read_bytes()) for p in ws_objects]))
        return outputs

    first = run_suite(tmp_path / "run1")
    second = run_suite(tmp_path / "run2")
    assert first == second
    print("ACCEPTANCE 10 PASS: two consecutive CLI runs produced byte-identical "
          "certificate files")
