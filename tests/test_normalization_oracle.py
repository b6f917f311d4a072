"""The one Peirce normalization (``algebra._peirce_basis``) and tau^{-1} read
off the recorded projective layouts, against the implementations they
replaced, kept here verbatim as oracles.

``oracle_from_structure_constants`` splits each unit vector with
2 * n^2 * dim dense products, ``oracle_bimodule_from_actions`` has its own
action helper, and ``oracle_tau_inverse`` builds four direct sums and sums
the transpose map over every pair of summands.  Their products, spans,
inverses, direct sums and quotients are those of `tests/reference.py`.
Each case runs over Q and
over F_101, and every entry is compared with its type, so an `int` where an
`FpElement` was would show; over Q every entry must be an `int` or a
`Fraction` (``conftest.entry_types``).

Normalization inputs are recorded from the calls the program makes: End(T)
of the APR tilting module and the homotopy End of the j_shriek gluing on
loop pairs (2,2) and (3,3), ``certs.refine_idempotents`` on algebras with a
single idempotent, algebras put in a seeded basis by
``conftest.rebased_algebra``, and the Ext bimodules of
``ext_bimodule``, among them the dim-0 one of a zero M.  Over F_101 the
rational inputs are read modulo 101.  tau^{-1} runs on the modules of
kr32, kr22, kk, kr12, loop pair (3,3) and the three-vertex algebra u -> v -> w.
"""

import contextlib
import random

import pytest

from tiltkit import glue
from tiltkit.algebra import (
    AlgebraError,
    Bimodule,
    FDAlgebra,
    PathAlgebraPresentation,
    Quiver,
    bimodule_from_actions,
    build_fd_algebra,
    detect_triangular,
    opposite,
)
from tiltkit.certs import refine_idempotents
from tiltkit.complexes import stalk_complex
from tiltkit.glue import ext_bimodule, glue_jshriek
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    ModuleError,
    ModuleMap,
    Resolution,
    dual_module,
    ext,
    min_projective_resolution,
    projective_module,
    regular_module,
    simple_module,
    zero_module,
)
from tiltkit.translate import (
    TauInverseData,
    apr_equivalent_algebra,
    build_apr_tilting,
    tau_inverse,
)

import reference
from conftest import (
    FIELDS,
    a3_zero_relation_algebra,
    glued_loop_fixture,
    loop_pair_algebra,
    padded_glue_resolutions,
    rebased_algebra,
    reduced,
    typed,
)


# -- the replaced implementations ------------------------------------------------------


def oracle_from_structure_constants(field, labels, table, idempotents,
                                    idempotent_names=None, check=True):
    dim = len(labels)
    raw = FDAlgebra.__new__(FDAlgebra)
    raw.field = field
    raw.labels = list(labels)
    raw.dim = dim
    raw.table = table
    raw.idempotents = [list(v) for v in idempotents]
    raw.idempotent_names = list(idempotent_names) if idempotent_names else \
        [f"e{i}" for i in range(len(idempotents))]
    raw._radical = raw._radical_generators = raw._generators = None
    raw.quiver = raw.paths = raw.presentation = None
    if check:
        raw._check_multiplication_axioms()
    # Peirce decomposition of each unit coordinate vector
    new_basis = []   # vectors in input coordinates
    blocks = []
    new_labels = []
    z = field.zero()
    n = len(raw.idempotents)
    for r in range(n):
        for c in range(n):
            block_vecs = []
            for k in range(dim):
                b = [z] * dim
                b[k] = field.one()
                v = reference.multiply(field, table, reference.multiply(
                    field, table, raw.idempotents[r], b), raw.idempotents[c])
                if any(v):
                    block_vecs.append(v)
            for t, v in enumerate(reference.span(field, block_vecs, dim)):
                new_basis.append(v)
                blocks.append((r, c))
                new_labels.append(f"b{r}.{c}.{t}")
    if len(new_basis) != dim:
        raise AlgebraError("Peirce blocks do not span; idempotents not complete orthogonal")
    change = Matrix.from_columns(field, new_basis, rows=dim)  # new coords -> old coords
    inv = reference.inverse(change)
    new_table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            prod_old = reference.multiply(field, table, new_basis[i], new_basis[j])
            row.append(reference.apply(inv, prod_old))
        new_table.append(row)
    new_idems = [reference.apply(inv, e) for e in raw.idempotents]
    alg = FDAlgebra(field, new_labels, new_table, new_idems,
                    idempotent_names=raw.idempotent_names,
                    block_row=[b[0] for b in blocks], block_col=[b[1] for b in blocks],
                    check=check)
    alg.change_from_input = inv          # old coords -> new coords
    alg.change_to_input = change
    return alg


def oracle_bimodule_from_actions(left_algebra, right_algebra, dim, left_mats,
                                 right_mats) -> Bimodule:
    f = left_algebra.field

    def act(mats, vec, n):
        out = Matrix.zeros(f, dim, dim)
        for k, c in enumerate(vec):
            if c:
                out = out + mats[k].scale(c)
        return out

    new_basis, rows, cols = [], [], []
    for r in range(left_algebra.idempotent_count):
        lmat = act(left_mats, left_algebra.idempotents[r], dim)
        for c in range(right_algebra.idempotent_count):
            rmat = act(right_mats, right_algebra.idempotents[c], dim)
            proj = lmat * rmat
            block = reference.span(f, [proj.column(j) for j in range(dim)], dim)
            for v in block:
                new_basis.append(v)
                rows.append(r)
                cols.append(c)
    if len(new_basis) != dim:
        raise AlgebraError("bimodule does not decompose along the idempotent pairs")
    change = Matrix.from_columns(f, new_basis, rows=dim) if dim else Matrix.zeros(f, 0, 0)
    inv = reference.inverse(change) if dim else change
    new_left = [inv * m * change for m in left_mats]
    new_right = [inv * m * change for m in right_mats]
    bim = Bimodule(left_algebra, right_algebra, dim, new_left, new_right,
                   block_row=rows, block_col=cols)
    bim.basis_change = change
    return bim


def oracle_tau_inverse(x):
    a = x.algebra
    if x.is_zero():
        p = zero_module(a)
        res = Resolution(x, [p], [], ModuleMap.zero(p, p), [[]], completed=True)
        return TauInverseData(zero_module(a), res, True)
    gamma = opposite(a)
    dx = dual_module(x)
    pres = min_projective_resolution(dx, 1)
    # element matrix of the presentation differential
    p1_summands = pres.summands[1] if pres.length else []
    p0_summands = pres.summands[0]
    p1_mods = [reference.projective_module(gamma, j) for j in p1_summands]
    if p1_mods:
        _, p1_incs, _ = reference.direct_sum(p1_mods)
    else:
        p1_incs = []
    p0_projs = None
    if p0_summands:
        p0_mods = [reference.projective_module(gamma, i) for i in p0_summands]
        _, _, p0_projs = reference.direct_sum(p0_mods)
    elements = {}
    f = a.field
    z = f.zero()
    for t, j in enumerate(p1_summands):
        # generator e_j inside Gamma e_j: coordinates of e_j in block (j, j)
        gj = p1_mods[t]
        gen = [z] * gj.total_dim
        lo, _ = gj.block_slice(j)
        blk = gamma.basis_in_block(j, j)
        for tt, k in enumerate(blk):
            gen[lo + tt] = gamma.idempotents[j][k]
        total_gen = p1_incs[t].apply(gen)
        img = pres.differentials[0].apply(total_gen)
        for s, i in enumerate(p0_summands):
            piece = p0_projs[s].apply(img)
            # piece is an element of Gamma e_i = e_i A; coordinates over the
            # algebra basis indices in Gamma column-block i
            elem = [z] * a.dim
            p0m = p0_projs[s].target
            for r in range(gamma.idempotent_count):
                lo_r, _ = p0m.block_slice(r)
                for tt, k in enumerate(gamma.basis_in_block(r, i)):
                    elem[k] = piece[lo_r + tt]
            elements[(s, t)] = elem
    # transpose: direct sums of A e_i with right-multiplication components
    a_p0_mods = [reference.projective_module(a, i) for i in p0_summands]
    a_p1_mods = [reference.projective_module(a, j) for j in p1_summands]
    if not a_p1_mods:
        # dual is projective over gamma: the translate vanishes, and the
        # two-step sequence 0 -> P_0^t -> 0 -> 0 is left-exact only if P_0 is 0
        src, _, _ = reference.direct_sum(a_p0_mods) if a_p0_mods else (zero_module(a), [], [])
        tau = zero_module(a)
        exact_left = src.total_dim == 0
        res = Resolution(tau, [src], [], ModuleMap.zero(src, tau), [p0_summands],
                         completed=exact_left)
        return TauInverseData(tau, res, exact_left)
    src, src_incs, src_projs = reference.direct_sum(a_p0_mods)
    tgt, tgt_incs, tgt_projs = reference.direct_sum(a_p1_mods)
    transpose_map = ModuleMap.zero(src, tgt)
    for (s, t), elem in elements.items():
        rm = ModuleMap(a_p0_mods[s], a_p1_mods[t],
                       [reference.mult_matrix(a, elem, a.basis_in_block(r, p0_summands[s]),
                                              a.basis_in_block(r, p1_summands[t]), left=False)
                        for r in range(a.idempotent_count)])
        transpose_map = transpose_map.add(
            tgt_incs[t].compose(rm).compose(src_projs[s]))
    tau, coker_proj = reference.quotient_module(tgt, reference.total_vectors(transpose_map))
    exact_left = transpose_map.is_injective()
    res = Resolution(tau, [tgt, src], [transpose_map], coker_proj,
                     [p1_summands, p0_summands], completed=exact_left)
    return TauInverseData(tau, res, exact_left)


# -- comparison ------------------------------------------------------------------------


def algebra_data(alg):
    f = alg.field
    return (alg.labels, alg.idempotent_names, [[typed(p, f) for p in row] for row in alg.table],
            [typed(e, f) for e in alg.idempotents], alg.block_row, alg.block_col,
            typed(alg.change_to_input), typed(alg.change_from_input))


def bimodule_data(bim):
    return (bim.dim, bim.labels, [typed(m) for m in bim.left_action],
            [typed(m) for m in bim.right_action], list(bim.block_row),
            list(bim.block_col), typed(bim.basis_change))


def tau_data(d):
    r = d.resolution
    return (typed(d.module), [typed(m) for m in r.modules],
            [typed(m) for m in r.differentials], typed(r.augmentation), r.summands,
            r.completed, d.exact_left)


def outcome(fn, data, *args):
    """data(fn(*args)), or the type and message of the error it raises."""
    try:
        return data(fn(*args))
    except (AlgebraError, ModuleError) as err:
        return type(err), str(err)


# -- inputs ------------------------------------------------------------------------------


def recorded(owner, name, run):
    """The positional arguments of each call of owner.name that run() makes."""
    calls = []
    original = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(owner, name, staticmethod(record) if isinstance(owner, type) else record)
    try:
        run()
    finally:
        setattr(owner, name, staticmethod(original) if isinstance(owner, type) else original)
    return calls


def apr_and_glue(a, b):
    alg = loop_pair_algebra(a, b)
    pres = detect_triangular(alg, [0])
    apr_equivalent_algebra(build_apr_tilting(pres))
    glue_jshriek(pres, stalk_complex(regular_module(pres.algebra_c), 0),
                 stalk_complex(regular_module(pres.algebra_b), 0))


def single_idempotent(alg):
    return FDAlgebra.from_structure_constants(alg.field, alg.table, [alg.unit()])


def algebra_inputs():
    """(name, field, table, idempotents) over Q."""
    out = []
    for a, b in [(2, 2), (3, 3)]:
        calls = recorded(FDAlgebra, "from_structure_constants", lambda: apr_and_glue(a, b))
        out += [(f"end-{a}{b}-{k}", *args[:3]) for k, args in enumerate(calls)]
    for name, alg in [("lp22", loop_pair_algebra(2, 2)), ("lp33", loop_pair_algebra(3, 3)),
                      ("a3z", a3_zero_relation_algebra())]:
        coarse = single_idempotent(alg)
        calls = recorded(FDAlgebra, "from_structure_constants",
                         lambda: refine_idempotents(coarse))
        out += [(f"refine-{name}", *args[:3]) for args in calls]
        for seed in (1, 2):
            calls = recorded(FDAlgebra, "from_structure_constants",
                             lambda: rebased_algebra(alg, random.Random(seed)))
            out += [(f"rebased-{name}-{seed}", *args[:3]) for args in calls]
    return out


ALGEBRA_INPUTS = algebra_inputs()


def over(field, vectors):
    return [[field.of(x) for x in v] for v in vectors]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", ALGEBRA_INPUTS, ids=lambda c: c[0])
def test_normalization_matches_oracle(case, field):
    _, _, table, idems = case
    if field != QQ:
        table, idems = [over(field, row) for row in table], over(field, idems)
    labels = [f"w{k}" for k in range(len(table))]
    want = outcome(oracle_from_structure_constants, algebra_data, field, labels, table, idems)
    got = outcome(FDAlgebra.from_structure_constants, algebra_data, field, table, idems)
    assert got == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", ALGEBRA_INPUTS, ids=lambda c: c[0])
def test_normalized_algebra_passes_an_explicit_axiom_check(case, field):
    """The construction checks only the input table; the normalized one
    passes the whole check_axioms, block homogeneity included."""
    _, _, table, idems = case
    if field != QQ:
        table, idems = [over(field, row) for row in table], over(field, idems)
    FDAlgebra.from_structure_constants(field, table, idems).check_axioms()


def test_algebra_inputs_cover_each_source():
    kinds = {name.split("-")[0] for name, *_ in ALGEBRA_INPUTS}
    assert kinds == {"end", "refine", "rebased"}
    assert {len(table) for name, _, table, _ in ALGEBRA_INPUTS if name.startswith("end")} >= {9}


def bimodule_inputs():
    """(name, left algebra, right algebra, dim, left mats, right mats) over Q."""
    out = []
    for name, pres in [("lp22", detect_triangular(loop_pair_algebra(2, 2), [0])),
                       ("lp32", detect_triangular(loop_pair_algebra(3, 2), [0])),
                       ("m0", glued_loop_fixture(2, 3, 0))]:
        t = regular_module(pres.algebra_c)
        for pad in (False, True):
            with padded_glue_resolutions() if pad else contextlib.nullcontext():
                calls = recorded(glue, "bimodule_from_actions", lambda: ext_bimodule(
                    pres, t, ext(pres.bimodule.left_module, t, 0)))
            out += [(f"{name}-{pad}", *args) for args in calls]
    return out


BIMODULE_INPUTS = bimodule_inputs()


def bimodule_over(field, case):
    _, left, right, dim, left_mats, right_mats = case
    if field == QQ:
        return left, right, dim, left_mats, right_mats

    def mats(ms):
        return [Matrix(field, over(field, m.data), cols=m.cols) for m in ms]

    return reduced(left, field), reduced(right, field), dim, mats(left_mats), mats(right_mats)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", BIMODULE_INPUTS, ids=lambda c: c[0])
def test_bimodule_normalization_matches_oracle(case, field):
    args = bimodule_over(field, case)
    want = outcome(oracle_bimodule_from_actions, bimodule_data, *args)
    got = outcome(bimodule_from_actions, bimodule_data, *args)
    assert got == want


def test_bimodule_inputs_include_the_zero_bimodule():
    assert {case[3] for case in BIMODULE_INPUTS if case[0].startswith("m0")} == {0}
    assert any(case[3] for case in BIMODULE_INPUTS)


def product_kk(field):
    return build_fd_algebra(PathAlgebraPresentation(Quiver(["x", "y"], []), [], 1,
                                                    field=field))


TAU_ALGEBRAS = {
    "kr32": lambda f: loop_pair_algebra(3, 2, field=f),
    "kr22": lambda f: loop_pair_algebra(2, 2, field=f),
    "kk": product_kk,
    "kr12": lambda f: loop_pair_algebra(1, 2, field=f),
    "lp33": lambda f: loop_pair_algebra(3, 3, field=f),
    "a3z": a3_zero_relation_algebra,
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(TAU_ALGEBRAS))
def test_tau_inverse_matches_oracle(name, field):
    """On the indecomposable projectives, the simples and the regular module,
    whose presentations have up to three summands, some repeated."""
    a = TAU_ALGEBRAS[name](field)
    n = a.idempotent_count
    modules = [projective_module(a, i) for i in range(n)] + \
        [simple_module(a, i) for i in range(n)] + [regular_module(a)]
    for k, x in enumerate(modules):
        assert outcome(tau_inverse, tau_data, x) == outcome(oracle_tau_inverse, tau_data, x), k
