"""Algebra-level checks against a generating set, compared with the checks
that walk the whole basis.

The oracles below are the code as it was before the generating set existed:
`oracle_a_generators` closes the span of the chosen elements by squaring it
again after each new generator, `oracle_verify_nilpotent_ideal` tests b*v
and v*b for every basis element b and builds each power from all pairwise
products, and `oracle_center_dimension` stacks the commutator matrix of
every basis element.  They differ from the old code only where noted: the
oracle generator list is not cached on the algebra, the nilpotency check
also returns the dimensions of the powers it built, and membership in a
span is `reference.Quotient.contains`.  rad(A) X is compared with
`reference.radical_vectors`, the span of r X over every radical basis
vector r.  Every result is a span with a unique rref basis, so the new code
must give exactly the same lists.
"""

import functools
import json
import random

import pytest

from tiltkit.algebra import (
    AlgebraError,
    FDAlgebra,
    PathAlgebraPresentation,
    Quiver,
    build_fd_algebra,
    corner_algebra,
    opposite,
    quotient_algebra,
)
from tiltkit.cli import main
from tiltkit.formats import algebra_input_to_json
from tiltkit.linalg import QQ, Matrix, span_basis
from tiltkit.modules import (
    ModuleError,
    direct_sum,
    endo_algebra,
    projective_module,
    quotient_module,
    radical_vectors,
    regular_module,
)

import reference
from conftest import (
    FIELDS,
    a3_zero_relation_algebra,
    loop_pair_algebra,
    loop_pair_presentation,
    matrix2_algebra,
    rebased,
    rebased_algebra,
    reduced,
)

LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (6, 5), (7, 6), (8, 6)]


def a_generators(a: FDAlgebra):
    """The generators of A beyond the idempotents (``FDAlgebra.generators``),
    as a list of (coordinate vector, block_row, block_col)."""
    return [(a.coordinate_vector(k), a.block_row[k], a.block_col[k]) for k in a.generators()]


# -- the old code -----------------------------------------------------------------


def oracle_a_generators(a: FDAlgebra):
    f = a.field
    current = [list(e) for e in a.idempotents]
    gens = []

    def closure(vectors):
        basis = span_basis(f, vectors, a.dim)
        while True:
            products = list(basis)
            for u in basis:
                for v in basis:
                    products.append(a.multiply(u, v))
            new_basis = span_basis(f, products, a.dim)
            if len(new_basis) == len(basis):
                return new_basis
            basis = new_basis

    span = closure(current)
    sq = reference.Quotient(f, a.dim, span)
    for k in range(a.dim):
        b = a.coordinate_vector(k)
        if not sq.contains(b):
            gens.append((b, a.block_row[k], a.block_col[k]))
            span = closure(span + [b])
            sq = reference.Quotient(f, a.dim, span)
    if len(span) != a.dim:
        raise ModuleError("generator closure failed to span the algebra")
    return gens


def oracle_verify_nilpotent_ideal(a: FDAlgebra, rad):
    """Returns the dimensions of rad, rad^2, ..., the last nonzero power."""
    dims = []
    if not rad:
        return dims
    amb = reference.Quotient(a.field, a.dim, rad)
    for v in rad:
        for k in range(a.dim):
            b = a.coordinate_vector(k)
            if not amb.contains(a.multiply(b, v)) or not amb.contains(a.multiply(v, b)):
                raise AlgebraError("trace-form radical is not a two-sided ideal")
    power = list(rad)
    for _ in range(a.dim + 1):
        if not power:
            return dims
        dims.append(len(power))
        nxt = []
        for u in power:
            for v in rad:
                nxt.append(a.multiply(u, v))
        nxt = span_basis(a.field, nxt, a.dim)
        if len(nxt) >= len(power) and nxt == power:
            raise AlgebraError("trace-form radical is not nilpotent")
        power = nxt


def oracle_radical_basis(a: FDAlgebra):
    z = a.field.zero()
    sparse = a.sparse_table
    traces = []
    for k in range(a.dim):
        tr = z
        for j in range(a.dim):
            for m, c in sparse[k][j]:
                if m == j:
                    tr = tr + c
        traces.append(tr)
    gram = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            tr = z
            for k, c in sparse[i][j]:
                tr = tr + c * traces[k]
            row.append(tr)
        gram.append(row)
    null = Matrix(a.field, gram, cols=a.dim).nullspace()
    pieces = []
    n = a.idempotent_count
    for v in null:
        for r in range(n):
            for c in range(n):
                idx = a.basis_in_block(r, c)
                w = [z] * a.dim
                nonzero = False
                for k in idx:
                    if v[k]:
                        w[k] = v[k]
                        nonzero = True
                if nonzero:
                    pieces.append(w)
    rad = span_basis(a.field, pieces, a.dim)
    oracle_verify_nilpotent_ideal(a, rad)
    return rad


def oracle_center_dimension(a: FDAlgebra):
    def left_mult_matrix(u):
        cols = [a.multiply(u, a.coordinate_vector(j)) for j in range(a.dim)]
        return Matrix.from_columns(a.field, cols, rows=a.dim)

    def right_mult_matrix(u):
        cols = [a.multiply(a.coordinate_vector(j), u) for j in range(a.dim)]
        return Matrix.from_columns(a.field, cols, rows=a.dim)

    if a.dim == 0:
        return 0
    stacked = []
    for k in range(a.dim):
        b = a.coordinate_vector(k)
        stacked += (left_mult_matrix(b) - right_mult_matrix(b)).data
    return len(Matrix(a.field, stacked).nullspace())


# -- the algebras ------------------------------------------------------------------


def non_basic_endo():
    """End(P_x + P_x)^op over the loop pair (3,2): two isomorphic primitive
    idempotents, so not basic."""
    a = loop_pair_algebra(3, 2)
    px = projective_module(a, 0)
    total, _, _ = direct_sum([px, px])
    return endo_algebra(total)


def two_cycle_algebra(field):
    """x -> y -> x by arrows a and b, no relations, paths of length < 5.  Its
    corner at x is generated by the path a*b of length 2, not an arrow."""
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "y", "x")])
    return build_fd_algebra(PathAlgebraPresentation(q, [], 5, field=field))


def scaled_loop_pair_algebra(field):
    """The loop pair (3,3) with commutation relation d*f - 2 f*t: single-term
    products with coefficients 2 and 4."""
    q = Quiver(["x", "y"], [("d", "x", "x"), ("f", "x", "y"), ("t", "y", "y")])
    rels = [[(1, ("d",) * 3)], [(1, ("t",) * 3)], [(1, ("d", "f")), (-2, ("f", "t"))]]
    return build_fd_algebra(PathAlgebraPresentation(q, rels, 5, field=field))


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in LOOP_PAIRS}
    out.update({
        "two-cycle": lambda: two_cycle_algebra(field),
        "corner-x-two-cycle": lambda: corner_algebra(two_cycle_algebra(field), [0]).algebra,
        "quotient-y-two-cycle": lambda: quotient_algebra(two_cycle_algebra(field), [1]).algebra,
        "lp33-scaled": lambda: scaled_loop_pair_algebra(field),
        "a3z": lambda: a3_zero_relation_algebra(field),
        "opposite-lp43": lambda: opposite(loop_pair_algebra(4, 3, field=field)),
        "corner-x-lp54": lambda: corner_algebra(loop_pair_algebra(5, 4, field=field), [0]).algebra,
        "corner-vw-a3z": lambda: corner_algebra(a3_zero_relation_algebra(field), [1, 2]).algebra,
        "quotient-y-lp43": lambda: quotient_algebra(loop_pair_algebra(4, 3, field=field),
                                                    [1]).algebra,
        "quotient-u-a3z": lambda: quotient_algebra(a3_zero_relation_algebra(field), [0]).algebra,
        "rebased-lp32": lambda: rebased_algebra(loop_pair_algebra(3, 2, field=field),
                                                random.Random(3)),
        "rebased-a3z": lambda: rebased_algebra(a3_zero_relation_algebra(field),
                                               random.Random(4)),
        "end-px-px": lambda: reduced(non_basic_endo(), field),
        "m2": lambda: reduced(matrix2_algebra(), field),
    })
    return out


CASES = [(field, name) for field in FIELDS for name in _builders(field)]


@functools.cache
def algebra(field, name):
    return _builders(field)[name]()


def case_id(case):
    field, name = case
    return f"{field.name}-{name}"


# -- equal to the oracle --------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_generators_match_oracle(case):
    a = algebra(*case)
    want = oracle_a_generators(a)
    assert a_generators(a) == want
    assert [a.coordinate_vector(k) for k in a.generators()] == [v for v, _, _ in want]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_radical_and_its_powers_match_oracle(case):
    a = algebra(*case)
    rad = a.radical_basis()
    assert rad == oracle_radical_basis(a)
    gens, dims = a._verify_nilpotent_ideal(rad)
    assert dims == oracle_verify_nilpotent_ideal(a, rad)
    assert gens == a.radical_generators()
    assert all(g in rad for g in gens)


PATH_PRESENTED = {f"lp{a}{b}" for a, b in LOOP_PAIRS} | {
    "a3z", "corner-x-lp54", "corner-vw-a3z", "quotient-y-lp43", "quotient-u-a3z",
    "two-cycle", "corner-x-two-cycle", "quotient-y-two-cycle", "lp33-scaled", "opposite-lp43"}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_radical_route_follows_path_provenance(case, monkeypatch):
    # path-presented algebras, their corners, quotients and opposites read
    # the radical off the path grading and never run the trace-form verifier;
    # the others take the trace form and the verifier
    field, name = case
    a = _builders(field)[name]()
    assert (a.paths is not None) == (name in PATH_PRESENTED)
    verified = []
    real = FDAlgebra._verify_nilpotent_ideal

    def recording(self, ideal):
        verified.append(self)
        return real(self, ideal)

    monkeypatch.setattr(FDAlgebra, "_verify_nilpotent_ideal", recording)
    rad = a.radical_basis()
    assert (a in verified) == (name not in PATH_PRESENTED)
    monkeypatch.undo()
    assert rad == oracle_radical_basis(a)
    assert a.radical_generators() == a._verify_nilpotent_ideal(rad)[0]


@pytest.mark.parametrize("case", [c for c in CASES if c[1] in PATH_PRESENTED], ids=case_id)
def test_path_presented_generating_sets_never_close_a_span(case, monkeypatch):
    # the generators and the radical's right-ideal generators come from the
    # grading pass over the structure table, with no greedy span closure
    field, name = case
    closed = []
    real = FDAlgebra._close

    def recording(self, *args, **kwargs):
        closed.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FDAlgebra, "_close", recording)
    a = _builders(field)[name]()
    a.generators()
    a.radical_basis()
    assert closed == []
    assert a.radical_generators() == [a.coordinate_vector(k) for k in a.generators()]


def test_algebra_info_multiplies_four_times(tmp_path, monkeypatch):
    # loop pair (8,6), dimension 20: only the idempotent axioms multiply.
    # The greedy span closures for the generators and the radical's
    # right-ideal generators made it 192 calls.
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    path = tmp_path / "alg86.json"
    path.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(8, 6)),
                               sort_keys=True), encoding="utf-8")
    real = FDAlgebra.multiply
    counted = []

    def counting(self, u, v):
        counted.append(self)
        return real(self, u, v)

    monkeypatch.setattr(FDAlgebra, "multiply", counting)
    assert main(["algebra", "info", str(path)]) == 0
    assert len(counted) == 4


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_center_dimension_matches_oracle(case):
    a = algebra(*case)
    assert a.center_dimension() == oracle_center_dimension(a)


def seeded_modules(a, seed):
    """The projectives, the regular module, a rebased sum of projectives and
    a rebased quotient of one by the submodule a seeded vector of its radical
    generates."""
    rng = random.Random(seed)
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    out = projectives + [regular_module(a)]
    total, _, _ = direct_sum([rng.choice(projectives) for _ in range(2)])
    out.append(rebased(total, rng))
    p = projectives[-1]
    rad_p = reference.radical_vectors(p)
    if rad_p:
        v = rng.choice(rad_p)
        quot, _, _ = quotient_module(p, [p.act(a.coordinate_vector(k)).apply(v)
                                         for k in range(a.dim)])
        out.append(rebased(quot, rng))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_radical_vectors_match_oracle(case):
    a = algebra(*case)
    for x in seeded_modules(a, len(case[1])):
        assert radical_vectors(x) == reference.radical_vectors(x)


def test_zero_algebra():
    a = quotient_algebra(loop_pair_algebra(2, 2), [0, 1]).algebra
    assert a.dim == 0
    assert (a.generators(), a.radical_basis(), a.radical_generators()) == ([], [], [])
    assert a.center_dimension() == 0


# -- the gate refuses what is not a nilpotent two-sided ideal -------------------------


def span_of_products(a, v, side):
    products = [a.multiply(a.coordinate_vector(k), v) if side == "left"
                else a.multiply(v, a.coordinate_vector(k)) for k in range(a.dim)]
    return span_basis(a.field, products, a.dim)


def is_two_sided(a, basis):
    sq = reference.Quotient(a.field, a.dim, basis)
    return all(sq.contains(w) for v in basis for side in ("left", "right")
               for w in span_of_products(a, v, side))


def one_sided_ideals():
    """A*p and p*A for each basis path p: one-sided ideals; those that are
    not two-sided, once each."""
    out, seen = [], set()
    for name in ("a3z", "lp22", "lp32", "lp33"):
        a = algebra(QQ, name)
        for k, p in enumerate(a.paths):
            for side in ("left", "right"):
                ideal = span_of_products(a, a.coordinate_vector(k), side)
                key = (name, tuple(map(tuple, ideal)))
                if key not in seen and not is_two_sided(a, ideal):
                    seen.add(key)
                    out.append((f"{name}-{side}-{a.labels[k]}", a, ideal))
    return out


def two_sided_ideal(a, seeds):
    """The two-sided ideal the seeds generate, by products with every basis
    element until the span stops growing."""
    ideal = span_basis(a.field, seeds, a.dim)
    while True:
        grown = span_basis(a.field, ideal + [w for v in ideal for side in ("left", "right")
                                             for w in span_of_products(a, v, side)], a.dim)
        if len(grown) == len(ideal):
            return ideal
        ideal = grown


def ideals_but_one_generator():
    """k*p + I, where p is a basis path and I the two-sided ideal generated by
    g*p and p*g over every generator g but one, h: a subspace closed under
    multiplication by the idempotents and every generator but h, on either
    side.  Those that are not two-sided, once each."""
    out, seen = [], set()
    for name in ("a3z", "lp22", "lp32", "lp33"):
        a = algebra(QQ, name)
        gens = a_generators(a)
        for k in range(a.dim):
            p = a.coordinate_vector(k)
            for h in range(len(gens)):
                others = [g for i, (g, _, _) in enumerate(gens) if i != h]
                seeds = [w for g in others for w in (a.multiply(g, p), a.multiply(p, g))]
                ideal = span_basis(a.field, [p] + two_sided_ideal(a, seeds), a.dim)
                key = (name, tuple(map(tuple, ideal)))
                if key not in seen and not is_two_sided(a, ideal):
                    seen.add(key)
                    out.append((f"{name}-{a.labels[k]}-but-{a.labels[a.generators()[h]]}",
                                a, ideal))
    return out


@pytest.mark.parametrize("case", one_sided_ideals() + ideals_but_one_generator(),
                         ids=lambda c: c[0])
def test_subspace_that_is_not_a_two_sided_ideal_is_refused(case):
    _, a, ideal = case
    with pytest.raises(AlgebraError, match="not a two-sided ideal"):
        a._verify_nilpotent_ideal(ideal)


def idempotent_ideals():
    """A*e_u*A for each vertex u, and A itself: two-sided, not nilpotent."""
    out = []
    for field in FIELDS:
        for name in ("a3z", "lp32", "lp65", "rebased-lp32", "m2"):
            a = algebra(field, name)
            for u in range(a.idempotent_count):
                left = span_of_products(a, a.idempotents[u], "left")
                ideal = span_basis(a.field, [w for v in left
                                             for w in span_of_products(a, v, "right")], a.dim)
                out.append((f"{field.name}-{name}-{u}", a, ideal))
            out.append((f"{field.name}-{name}-all", a,
                        [a.coordinate_vector(k) for k in range(a.dim)]))
    return out


@pytest.mark.parametrize("case", idempotent_ideals(), ids=lambda c: c[0])
def test_idempotent_ideal_is_refused(case):
    _, a, ideal = case
    assert is_two_sided(a, ideal)
    with pytest.raises(AlgebraError, match="not nilpotent"):
        a._verify_nilpotent_ideal(ideal)
