"""Axiom checks against a generating set, compared with the checks that walk
the whole basis.

`FDAlgebra.check_axioms` tests associativity only on the basis triples
(i, j, k) with j in `generating_indices()` (Light's associativity test), and
`Module.validate` tests multiplicativity only on the pairs (k, l) with k
there.  Both rerun the full scan when the restricted one fails, so the first
failing triple or pair in full scan order is still the witness.

The oracles below are the code as it was before: `oracle_check_axioms` and
`oracle_check_multiplication_axioms` test every basis triple, and
`oracle_validate` tests every basis pair.  Each perturbation of a verified
algebra or module must be accepted or refused exactly as the oracle does,
with the same message.
"""

import functools
import json
import random
import re
from fractions import Fraction

import pytest

from tiltkit.algebra import (
    AlgebraError,
    FDAlgebra,
    build_fd_algebra,
    corner_algebra,
    quotient_algebra,
)
from tiltkit.cli import main
from tiltkit.formats import algebra_input_to_json
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    Module,
    ModuleError,
    direct_sum,
    endo_algebra,
    projective_module,
    regular_module,
)

from conftest import (
    a3_zero_relation_algebra,
    loop_pair_algebra,
    loop_pair_presentation,
    matrix2_algebra,
)

F101 = PrimeField(101)
FIELDS = [QQ, F101]
LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (6, 5), (7, 6), (8, 6)]


# -- the old code -----------------------------------------------------------------


def oracle_check_multiplication_axioms(self):
    sparse = self.sparse_table

    def combine(terms):
        """Sum of c * prod over (c, prod), as a dict without zeros."""
        acc = {}
        for c, prod in terms:
            for k, t in prod:
                acc[k] = acc[k] + c * t if k in acc else c * t
        return {k: x for k, x in acc.items() if x}

    for i in range(self.dim):
        for j in range(self.dim):
            ij = sparse[i][j]
            for k in range(self.dim):
                left = combine((c, sparse[m][k]) for m, c in ij)
                right = combine((c, sparse[i][m]) for m, c in sparse[j][k])
                if left != right:
                    raise AlgebraError(
                        f"associativity fails on basis triple ({i},{j},{k})")
    for i, ei in enumerate(self.idempotents):
        for j, ej in enumerate(self.idempotents):
            p = self.multiply(ei, ej)
            if (p != ei) if i == j else any(p):
                raise AlgebraError(f"idempotent axiom fails on (e{i}, e{j})")
    u = self.unit()
    for k in range(self.dim):
        b = self.coordinate_vector(k)
        if self.multiply(u, b) != b or self.multiply(b, u) != b:
            raise AlgebraError("sum of idempotents is not a two-sided unit")


def oracle_check_axioms(self):
    oracle_check_multiplication_axioms(self)
    # block homogeneity
    for k in range(self.dim):
        b = self.coordinate_vector(k)
        r, c = self.block_row[k], self.block_col[k]
        if self.multiply(self.multiply(self.idempotents[r], b), self.idempotents[c]) != b:
            raise AlgebraError(f"basis element {k} not homogeneous for its declared block")


def oracle_validate(self):
    """Check multiplicativity on all basis pairs and unit behaviour.

    Raises ModuleError with the offending pair as witness.
    """
    a = self.algebra
    f = a.field
    for i, e in enumerate(a.idempotents):
        m = self.block_action(e, i, i)
        if m != Matrix.identity(f, self.dims[i]):
            raise ModuleError(f"idempotent {a.idempotent_names[i]} does not act as identity")
    for k in range(a.dim):
        for l in range(a.dim):
            if a.block_col[k] != a.block_row[l]:
                continue
            lhs = self.mats[k] * self.mats[l]
            rhs = Matrix.zeros(f, self.dims[a.block_row[k]], self.dims[a.block_col[l]])
            for t, c in a.sparse_table[k][l]:
                rhs = rhs + self.mats[t].scale(c)
            if lhs != rhs:
                raise ModuleError(
                    f"action not multiplicative at basis pair "
                    f"({a.labels[k]}, {a.labels[l]})")


# -- algebras and their perturbations -----------------------------------------------------


def verdict(check, obj):
    """None if `check(obj)` passes, else the message it raises."""
    try:
        check(obj)
    except (AlgebraError, ModuleError) as err:
        return str(err)
    return None


def random_invertible(field, rng, n):
    while True:
        m = Matrix(field, [[field.of(rng.choice([-2, -1, 1, 3])) if rng.random() < 0.5
                            else field.zero() for _ in range(n)] for _ in range(n)], cols=n)
        if m.is_invertible():
            return m


def rebased(alg, seed):
    """alg on a seeded random basis, normalized again by
    from_structure_constants: its idempotents are not basis elements."""
    field = alg.field
    p = random_invertible(field, random.Random(seed), alg.dim)
    inv = p.inverse()
    basis = p.columns()
    table = [[inv.apply(alg.multiply(u, v)) for v in basis] for u in basis]
    return FDAlgebra.from_structure_constants(
        field, table, [inv.apply(e) for e in alg.idempotents],
        idempotent_names=alg.idempotent_names)


def reduced(alg, field):
    """An algebra with rational structure constants, read over `field`."""
    if field == alg.field:
        return alg
    table = [[[field.of(x) for x in prod] for prod in row] for row in alg.table]
    return FDAlgebra(field, alg.labels, table,
                     [[field.of(x) for x in e] for e in alg.idempotents],
                     idempotent_names=alg.idempotent_names,
                     block_row=alg.block_row, block_col=alg.block_col)


def end_px_px():
    """End(P_x + P_x)^op over the loop pair (3,2), built by
    from_structure_constants."""
    px = projective_module(loop_pair_algebra(3, 2), 0)
    return endo_algebra(direct_sum([px, px])[0])


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in LOOP_PAIRS}
    out.update({
        "a3z": lambda: a3_zero_relation_algebra(field),
        "end-px-px": lambda: reduced(end_px_px(), field),
        "corner-x-lp54": lambda: corner_algebra(loop_pair_algebra(5, 4, field=field), [0]).algebra,
        "quotient-y-lp43": lambda: quotient_algebra(loop_pair_algebra(4, 3, field=field),
                                                    [1]).algebra,
        "rebased-lp32": lambda: rebased(loop_pair_algebra(3, 2, field=field), 3),
        "rebased-a3z": lambda: rebased(a3_zero_relation_algebra(field), 4),
        "m2": lambda: reduced(matrix2_algebra(), field),
    })
    return out


CASES = [(field, name) for field in FIELDS for name in _builders(field)]
SMALL = [(field, name) for field in FIELDS
         for name in ("lp22", "lp32", "a3z", "m2", "rebased-lp32", "rebased-a3z")]


@functools.cache
def algebra(field, name):
    return _builders(field)[name]()


def case_id(case):
    field, name = case
    return f"{field.name}-{name}"


def perturbed(a, i, j, k, delta):
    """A copy of `a`, not checked, with delta added to the b_k coordinate of
    b_i b_j."""
    table = [[list(prod) for prod in row] for row in a.table]
    table[i][j][k] = table[i][j][k] + delta
    return FDAlgebra(a.field, a.labels, table, a.idempotents,
                     idempotent_names=a.idempotent_names,
                     block_row=a.block_row, block_col=a.block_col, check=False)


def failing_triple(message):
    m = re.fullmatch(r"associativity fails on basis triple \((\d+),(\d+),(\d+)\)",
                     message or "")
    return tuple(map(int, m.groups())) if m else None


def idempotent_support(a):
    return sorted({k for e in a.idempotents for k, x in enumerate(e) if x})


def test_generating_indices_are_idempotents_and_generators():
    a = loop_pair_algebra(8, 6)
    assert a.dim == 20
    assert a.generating_indices() == sorted(idempotent_support(a) + a.generators())
    assert len(a.generating_indices()) == 5


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_verified_algebra_is_accepted(case):
    a = algebra(*case)
    assert verdict(oracle_check_axioms, a) is None
    assert verdict(FDAlgebra.check_axioms, a) is None


@pytest.mark.parametrize("case", SMALL, ids=case_id)
def test_every_single_entry_perturbation_matches_oracle(case):
    a = algebra(*case)
    one = a.field.one()
    refused = outside = 0
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                b = perturbed(a, i, j, k, one)
                want = verdict(oracle_check_axioms, b)
                assert verdict(FDAlgebra.check_axioms, b) == want, (i, j, k)
                refused += want is not None
                triple = failing_triple(want)
                outside += triple is not None and triple[1] not in b.generating_indices()
    assert refused
    if len(a.generating_indices()) < a.dim:
        assert outside


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_seeded_perturbations_match_oracle(case):
    a = algebra(*case)
    rng = random.Random(case_id(case))
    field = a.field
    for _ in range(4):
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        delta = field.of(Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2])))
        b = perturbed(a, i, j, k, delta)
        assert verdict(FDAlgebra.check_axioms, b) == verdict(oracle_check_axioms, b)


# a3z, M_2 and a rebased a3z need every basis element to generate
@pytest.mark.parametrize("case", [c for c in CASES if c[1] not in ("a3z", "m2", "rebased-a3z")],
                         ids=case_id)
def test_first_failing_middle_index_outside_generating_set(case):
    # b_m b_j perturbed for a non-generator b_m: the full scan first fails
    # at a triple whose middle index is outside the generating set, so the
    # restricted scan fails elsewhere and the fallback must name the
    # oracle's triple
    a = algebra(*case)
    middle = a.generating_indices()
    assert len(middle) < a.dim
    for m in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim if m not in middle else 0):
                b = perturbed(a, m, j, k, a.field.one())
                want = verdict(oracle_check_axioms, b)
                triple = failing_triple(want)
                if triple is not None and triple[1] not in b.generating_indices():
                    assert verdict(FDAlgebra.check_axioms, b) == want
                    return
    pytest.fail("no perturbation fails first outside the generating set")


def test_unit_failure_falls_back_to_full_scan():
    # idempotents that do not sum to a unit: the generator closure cannot
    # span A, and the full scan reports what the oracle reports
    a = loop_pair_algebra(3, 2)
    b = FDAlgebra(a.field, a.labels, a.table, a.idempotents[:1],
                  idempotent_names=a.idempotent_names[:1],
                  block_row=[0] * a.dim, block_col=[0] * a.dim, check=False)
    with pytest.raises(AlgebraError):
        b.generators()
    assert list(b.generating_indices()) == list(range(b.dim))
    want = verdict(oracle_check_axioms, b)
    assert want is not None
    assert verdict(FDAlgebra.check_axioms, b) == want


# -- how often the full scan runs ------------------------------------------------------


@pytest.fixture
def full_scans(monkeypatch):
    """The number of calls to _check_multiplication_axioms with every index
    as middle (middle=None) made by check_axioms, that is on normalized
    tables, and the number with a restricted middle."""
    counts = {"full": 0, "restricted": 0}
    inside = []
    check, check_axioms = FDAlgebra._check_multiplication_axioms, FDAlgebra.check_axioms

    def counted(self, middle=None):
        if inside:
            counts["full" if middle is None else "restricted"] += 1
        return check(self, middle)

    def counted_check_axioms(self):
        inside.append(self)
        try:
            return check_axioms(self)
        finally:
            inside.pop()

    monkeypatch.setattr(FDAlgebra, "_check_multiplication_axioms", counted)
    monkeypatch.setattr(FDAlgebra, "check_axioms", counted_check_axioms)
    return counts


def test_valid_tables_never_run_the_full_scan(full_scans, tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    build_fd_algebra(loop_pair_presentation(8, 6))
    end_px_px()
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(3, 3))))
    assert main(["apr", str(alg), "--e", "x", "--out", str(tmp_path / "apr.json")]) == 0
    assert full_scans["full"] == 0
    assert full_scans["restricted"] >= 3


def test_failed_restricted_scan_runs_the_full_scan_once(full_scans):
    a = algebra(QQ, "lp32")
    message = verdict(FDAlgebra.check_axioms, perturbed(a, 5, 5, 6, QQ.one()))
    assert failing_triple(message) is not None
    assert full_scans == {"full": 1, "restricted": 1}


def test_from_structure_constants_checks_its_input_once(monkeypatch):
    # the input table is scanned in full; the normalized table, the input's
    # moved by a change of basis, is not checked again
    alg = algebra(QQ, "lp32")
    middles = []
    check = FDAlgebra._check_multiplication_axioms

    def counted(self, middle=None):
        middles.append(middle)
        return check(self, middle)

    monkeypatch.setattr(FDAlgebra, "_check_multiplication_axioms", counted)
    rebased(alg, 1)
    assert middles == [None]


# -- modules and their perturbations ------------------------------------------------------


def seeded_module(a, seed):
    """A sum of two projectives in a seeded random basis of each block."""
    rng = random.Random(seed)
    field = a.field
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    x, _, _ = direct_sum([rng.choice(projectives) for _ in range(2)])
    gs = []
    for d in x.dims:
        while True:
            g = Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(d)]
                               for _ in range(d)], cols=d)
            if g.is_invertible():
                break
        gs.append(g)
    invs = [g.inverse() if g.rows else g for g in gs]
    return Module(a, x.dims, [gs[a.block_row[k]] * m * invs[a.block_col[k]]
                              for k, m in enumerate(x.mats)])


def perturbed_module(x, k, r, c, delta):
    mats = [Matrix(m.field, m.data, cols=m.cols) for m in x.mats]
    mats[k].data[r][c] = mats[k].data[r][c] + delta
    return Module(x.algebra, x.dims, mats)


def entries(x):
    return [(k, r, c) for k, m in enumerate(x.mats)
            for r in range(m.rows) for c in range(m.cols)]


def failing_pair(x, message):
    a = x.algebra
    return next((k, l) for k in range(a.dim) for l in range(a.dim)
                if message == f"action not multiplicative at basis pair "
                              f"({a.labels[k]}, {a.labels[l]})")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_module_perturbations_match_oracle(case):
    a = algebra(*case)
    rng = random.Random(case_id(case))
    x = seeded_module(a, 7)
    assert verdict(Module.validate, x) is None
    for k, r, c in rng.sample(entries(x), 4):
        y = perturbed_module(x, k, r, c, a.field.of(rng.choice([-1, 2])))
        assert verdict(Module.validate, y) == verdict(oracle_validate, y), (k, r, c)


@pytest.mark.parametrize("case", SMALL, ids=case_id)
def test_every_module_entry_perturbation_matches_oracle(case):
    # validate scans only generating left factors and has no fallback: the
    # oracle's first failing pair must have its left factor among them
    a = algebra(*case)
    middle = a.generating_indices()
    refused = 0
    for x in (regular_module(a), seeded_module(a, 11)):
        for k, r, c in entries(x):
            y = perturbed_module(x, k, r, c, a.field.one())
            want = verdict(oracle_validate, y)
            assert verdict(Module.validate, y) == want, (k, r, c)
            if want is not None and want.startswith("action not multiplicative"):
                refused += 1
                assert failing_pair(y, want)[0] in middle
    assert refused


def test_valid_module_is_checked_once(monkeypatch):
    calls = []
    scan = Module._first_unmultiplicative_pair
    monkeypatch.setattr(Module, "_first_unmultiplicative_pair",
                        lambda self: calls.append(self) or scan(self))
    x = seeded_module(loop_pair_algebra(3, 2), 5)
    x.validate()
    x.validate()
    assert calls == [x]
    # a refused module is not marked valid: each call scans again
    y = perturbed_module(x, *entries(x)[-1], Fraction(1))
    for _ in range(2):
        with pytest.raises(ModuleError):
            y.validate()
    assert calls.count(y) == 2


def test_recollement_verify_scans_each_corpus_module_once(tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(3, 2))))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "m1.json").write_text(json.dumps(
        {"dims": {"x": 3, "y": 2},
         "arrows": {"d": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
                    "t": [["0", "0"], ["1", "0"]],
                    "f": [["0", "0", "0"], ["1", "0", "0"]]}}))
    (corpus / "m2.json").write_text(json.dumps(
        {"dims": {"x": 1, "y": 1}, "arrows": {"f": [["1"]]}}))
    scans = {}
    scan = Module._first_unmultiplicative_pair

    def counted(self):
        scans[id(self)] = scans.get(id(self), 0) + 1
        return scan(self)

    monkeypatch.setattr(Module, "_first_unmultiplicative_pair", counted)
    assert main(["recollement", "verify", str(alg), str(corpus), "--e", "x",
                 "--out", str(tmp_path / "rec.json")]) == 0
    assert len(scans) == 2
    assert sorted(scans.values()) == [1, 1]
