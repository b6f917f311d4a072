"""The six module-level functors induced by an idempotent, their axioms on a
test corpus, the four functor criteria characterizing triangular algebras,
and the canonical torsion sequence of a triangular split.

For an idempotent e in A the diagram glues (A/AeA)-Mod, A-Mod, and eAe-Mod:

    i_upper  = (A/AeA) tensor_A -      (quotient by the trace of Ae)
    i_lower  = inflation along A ->> A/AeA
    i_shriek = Hom_A(A/AeA, -)         (largest submodule killed by AeA)
    j_shriek = Ae tensor_{eAe} -
    j_upper  = e(-)                    (corner restriction)
    j_lower  = Hom_{eAe}(eA, -)
"""

from __future__ import annotations

from .algebra import FDAlgebra, TriangularPresentation, corner_algebra, quotient_algebra
from .linalg import EchelonBasis, Matrix
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    hom_dim,
    hom_space,
    is_projective,
    projective_cover,
    projective_module,
    quotient_module,
    regular_module,
    simple_module,
    submodule,
)

class IdempotentRecollement:
    """The recollement data of e in A: corner eAe, quotient A/AeA, and the
    span of the two-sided ideal AeA.  The corner and the quotient are built
    once per algebra, so a recollement costs little to make again."""

    def __init__(self, a: FDAlgebra, idem_subset):
        subset = sorted(idem_subset)
        if not subset or len(subset) >= a.idempotent_count:
            raise ModuleError("idempotent subset must be proper and nonempty")
        self.ambient = a
        self.subset = subset
        self.corner = corner_algebra(a, subset)
        self.quotient = quotient_algebra(a, subset)
        self.ideal_basis = self.quotient.ideal_basis

    # -- i-side ------------------------------------------------------------------

    def i_lower(self, n: Module) -> Module:
        """Inflation of an (A/AeA)-module along the projection."""
        a = self.ambient
        qd = self.quotient
        d = qd.algebra
        pos_of = {amb: t for t, amb in enumerate(qd.idem_map)}
        dims = [n.dims[pos_of[i]] if i in pos_of else 0
                for i in range(a.idempotent_count)]
        f = a.field
        mats = []
        for k in range(a.dim):
            r, c = a.block_row[k], a.block_col[k]
            if r in pos_of and c in pos_of:
                dvec = qd.project_vector(a.coordinate_vector(k))
                mats.append(n.block_action(dvec, pos_of[r], pos_of[c]))
            else:
                mats.append(Matrix.zeros(f, dims[r], dims[c]))
        return Module(a, dims, mats)

    def i_upper(self, x: Module):
        """X / AeA X as a module over A/AeA, with the projection of each
        block of X onto the quotient and the block's free positions (those
        of ``quotient_module``).  AeA X is spanned by the columns of the actions
        of the ideal's basis, whose common kernel ``i_shriek`` reads; the zero
        columns are left out of the elimination."""
        quot, proj, free = quotient_module(
            x, [col for g in self.ideal_basis for col in zip(*x.act(g).data) if any(col)])
        return self._to_quotient_module(quot), list(zip(proj.components, free))

    def _to_quotient_module(self, x_on_a: Module) -> Module:
        """Reinterpret an A-module with zero e-part as an (A/AeA)-module."""
        qd = self.quotient
        for s in self.subset:
            if x_on_a.dims[s] != 0:
                raise ModuleError("module has nonzero corner part; not killed by AeA")
        dims = [x_on_a.dims[amb] for amb in qd.idem_map]
        return Module(qd.algebra, dims, [x_on_a.mats[k] for k in qd.rep_indices])

    def i_upper_map(self, fmap: ModuleMap, src_data, tgt_data) -> ModuleMap:
        """Induced map on i_upper images from the recorded block projections:
        f on the source's representatives, projected onto the target."""
        src_mod, src_q = src_data
        tgt_mod, tgt_q = tgt_data
        f = self.ambient.field
        comps = []
        for amb in self.quotient.idem_map:
            m = fmap.components[amb]
            comps.append(tgt_q[amb][0] * Matrix.from_columns(
                f, [m.column(j) for j in src_q[amb][1]], rows=m.rows))
        return ModuleMap(src_mod, tgt_mod, comps)

    def i_shriek(self, x: Module):
        """Largest submodule killed by AeA, as an (A/AeA)-module, with its
        inclusion into x, the counit i_lower i_shriek -> id."""
        nt = x.total_dim
        stacked = Matrix.from_blocks(self.ambient.field, [nt] * len(self.ideal_basis), [nt],
                                     {(t, 0): x.act(g) for t, g in enumerate(self.ideal_basis)})
        sub, incl = submodule(x, stacked.nullspace())
        return self._to_quotient_module(sub), incl

    # -- j-side ------------------------------------------------------------------

    def j_upper(self, x: Module) -> Module:
        """eX with its eAe-action."""
        a = self.ambient
        c = self.corner
        dims = [x.dims[s] for s in self.subset]
        mats = [x.mats[k] for k in c.basis_indices]
        return Module(c.algebra, dims, mats)

    def _j_shriek_blocks(self, n: Module):
        """Ae tensor_{eAe} n, block by block, as (basis of e_i A e, echelon
        basis of the relations, positions without a pivot) per block i:
        e_i A e tensor n modulo the relations
        u lam tensor m = u tensor lam m, the columns of R_lam x I - I x N_lam,
        where R_lam is right multiplication by lam on e_i A e and N_lam the
        action of lam on n.  lam runs over the corner basis elements that
        generate eAe (``generating_indices``): the relations of a product
        lam mu are sums of those of lam and of mu, so they span the same
        subspace as the relations of every basis element.  Column (p, j) is
        sum_q R_lam[q][p] (q, j) - sum_m N_lam[m][j] (p, m), written directly
        from column p of R_lam and column j of N_lam."""
        a = self.ambient
        c = self.corner
        f = a.field
        nt = n.total_dim
        gens = [(c.basis_indices[l],
                 [[-y for y in col] for col in n.act(c.algebra.coordinate_vector(l)).columns()])
                for l in c.algebra.generating_indices()]
        blocks = []
        for i in range(a.idempotent_count):
            basis = [k for s in self.subset for k in a.basis_in_block(i, s)]
            span = EchelonBasis(f)
            for kl, neg_cols in gens:
                right = a.mult_matrix(kl, basis, basis, left=False)
                for p, rcol in enumerate(right.columns()):
                    nz = [(q * nt, x) for q, x in enumerate(rcol) if x]
                    for j, neg in enumerate(neg_cols):
                        v = [f.zero()] * (len(basis) * nt)
                        v[p * nt:(p + 1) * nt] = neg
                        for off, x in nz:
                            v[off + j] = v[off + j] + x
                        span.add(v)
            blocks.append((basis, span, span.free(len(basis) * nt)))
        return blocks

    def j_shriek(self, n: Module):
        """Ae tensor_{eAe} n on the quotients of ``_j_shriek_blocks``, with
        those blocks, for ``j_shriek_map``.  Basis element k
        sends the representative (p, j) at free position p * dim n + j to
        the class of (L_k x I)(p, j) = sum_q L_k[q][p] (q, j)."""
        a = self.ambient
        f = a.field
        nt = n.total_dim
        blocks = self._j_shriek_blocks(n)
        dims = [len(free) for _, _, free in blocks]
        mats = []
        for k in range(a.dim):
            r, cc = a.block_row[k], a.block_col[k]
            _, span, free = blocks[r]
            lk = a.mult_matrix(k, blocks[cc][0], blocks[r][0], left=True).data
            cols = []
            for rep in blocks[cc][2]:
                p, j = divmod(rep, nt)
                v = [f.zero()] * (len(lk) * nt)
                for q, row in enumerate(lk):
                    v[q * nt + j] = row[p]
                out = span.reduce(v)[0]
                cols.append([out[t] for t in free])
            mats.append(Matrix.from_columns(f, cols, rows=dims[r]))
        return Module(a, dims, mats), blocks

    def j_shriek_map(self, fmap: ModuleMap, src_data, tgt_data) -> ModuleMap:
        """Induced map Ae tensor f between tensor images: I x f sends the
        representative column (p, j) of the source to (p, f(e_j)), which is
        then projected onto the target quotient."""
        src_mod, src_blocks = src_data
        tgt_mod, tgt_blocks = tgt_data
        f = self.ambient.field
        ftot = fmap.total_matrix()
        images = ftot.columns()
        ns, nt = ftot.cols, ftot.rows
        comps = []
        for (basis, _, free_s), (_, span_t, free_t) in zip(src_blocks, tgt_blocks):
            cols = []
            for rep in free_s:
                p, j = divmod(rep, ns)
                v = [f.zero()] * (len(basis) * nt)
                v[p * nt:(p + 1) * nt] = images[j]
                out = span_t.reduce(v)[0]
                cols.append([out[t] for t in free_t])
            comps.append(Matrix.from_columns(f, cols, rows=len(free_t)))
        return ModuleMap(src_mod, tgt_mod, comps)

    def _corner_column(self, i) -> Module:
        """e A e_i as a left module over the corner algebra."""
        return self.j_upper(projective_module(self.ambient, i))

    def j_lower(self, n: Module):
        """Hom_{eAe}(eA, n) with the action (a psi)(m) = psi(m a), with the
        Hom space Hom_{eAe}(eAe_i, n) of each block i."""
        a = self.ambient
        f = a.field
        columns = [self._corner_column(i) for i in range(a.idempotent_count)]
        homs = [hom_space(col, n) for col in columns]
        dims = [h.dimension for h in homs]
        mats = []
        for k in range(a.dim):
            r, cc = a.block_row[k], a.block_col[k]
            # b in e_r A e_cc sends psi in Hom(eAe_cc, n) to psi o (right mult b)
            rmb = ModuleMap(columns[r], columns[cc],
                            [a.mult_matrix(k, a.basis_in_block(s, r), a.basis_in_block(s, cc),
                                           left=False) for s in self.subset])
            cols = []
            for psi in homs[cc].basis:
                cols.append(homs[r].coordinates_of(psi.compose(rmb)))
            mats.append(Matrix.from_columns(f, cols, rows=dims[r]))
        return Module(a, dims, mats), homs


# -- axiom verification ---------------------------------------------------------------


class AxiomCheck:
    def __init__(self, id: str, passed: bool, witness):
        self.id = id
        self.passed = passed
        self.witness = witness


class RecollementReport:
    def __init__(self):
        self.checks = []

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _invertible_map(source: Module, target: Module, components) -> bool:
    """Do the block matrices form an invertible module map source -> target?"""
    try:
        fmap = ModuleMap(source, target, components)
        fmap.check_intertwines()
    except ModuleError:
        return False
    return source.dims == target.dims and fmap.rank() == source.total_dim


def _adjunction_check(check_id, lhs, rhs, image, witness) -> AxiomCheck:
    """Passes when the adjunction map, `image` on block matrices, sends the
    basis of the Hom space lhs to a basis of the Hom space rhs: the images
    are independent and span every basis map of rhs."""
    span = EchelonBasis(rhs.source.algebra.field)
    ok = lhs.dimension == rhs.dimension and all(
        span.add([x for m in image(g.components) for row in m.data for x in row]) is not None
        for g in lhs.basis) and all(span.contains(v) for v in rhs.span.vectors)
    return AxiomCheck(check_id, ok, witness=witness + (lhs.dimension, rhs.dimension))


def verify_recollement_axioms(rec: IdempotentRecollement, corpus) -> RecollementReport:
    """The adjunctions, the composite identities and j_upper o i_lower = 0 on
    every module of the corpus, each by its canonical map.

    A composite identity passes when its map is an invertible module map:
    the quotient map i_lower Y -> i^* i_lower Y, multiplication eAe tensor N
    -> N read through the sections of j_shriek, and evaluation at e on
    Hom(eAe, N).  An adjunction passes when its unit or counit sends a basis
    of one Hom space to a basis of the other: f -> i_*(f) o q_X, g -> incl o
    i_*(g), f -> j^*(f) o (m -> e tensor m) and g -> ev o j^*(g).  Corpus
    modules are validated first; a corrupted action matrix is reported as a
    witness instead of poisoning the later checks.
    """
    report = RecollementReport()
    valid = []
    for idx, x in enumerate(corpus):
        try:
            x.validate()
            valid.append(x)
        except ModuleError as err:
            report.checks.append(AxiomCheck("corpus_module_valid", False,
                                            witness=(idx, str(err))))
    a = rec.ambient
    f = a.field
    qpos = {amb: t for t, amb in enumerate(rec.quotient.idem_map)}
    # i_upper with its quotient maps, i_shriek with its inclusion and j_upper
    # of each corpus module, computed once.  At the vertices of e, where i_*
    # is zero, the quotient map and the inclusion are empty blocks.
    ups = [rec.i_upper(x) for x in valid]
    corners = [rec.j_upper(x) for x in valid]
    quotient_corpus = [up for up, _ in ups]
    d = rec.quotient.algebra
    if d.dim:
        quotient_corpus += [simple_module(d, i) for i in range(d.idempotent_count)]
    shrieks = [rec.i_shriek(x) for x in valid]
    for y in quotient_corpus:
        infl = rec.i_lower(y)
        back, q = rec.i_upper(infl)
        report.checks.append(AxiomCheck("i_upper_i_lower_id", _invertible_map(
            y, back, [q[amb][0] for amb in rec.quotient.idem_map]), witness=y.dims))
        report.checks.append(AxiomCheck(
            "j_upper_i_lower_zero", rec.j_upper(infl).is_zero(), witness=y.dims))
        for x, (up, qx), (shriek, incl) in zip(valid, ups, shrieks):
            report.checks.append(_adjunction_check(
                "adjunction_i_upper_i_lower", hom_space(up, y), hom_space(x, infl),
                lambda g: [g[qpos[i]] * p if i in qpos else p for i, (p, _) in enumerate(qx)],
                (x.dims, y.dims)))
            report.checks.append(_adjunction_check(
                "adjunction_i_lower_i_shriek", hom_space(y, shriek), hom_space(infl, x),
                lambda g: [m * g[qpos[i]] if i in qpos else m
                           for i, m in enumerate(incl.components)], (x.dims, y.dims)))
    cpos = {k: l for l, k in enumerate(rec.corner.basis_indices)}
    sigmas = list(enumerate(rec.subset))
    for n in corners:
        js, blocks = rec.j_shriek(n)
        jl, jl_homs = rec.j_lower(n)
        nt = n.total_dim
        mult, unit, ev = [], [], []
        for sig, s in sigmas:
            lo, hi = n.block_slice(sig)
            basis, span, free = blocks[s]
            # u tensor m -> u m on the coset representatives, m -> e_s tensor m,
            # and psi -> psi(e_s)
            mult.append(Matrix.from_columns(f, [
                n.action_column(cpos[basis[rep // nt]], rep % nt)[lo:hi]
                for rep in free], rows=hi - lo))
            classes = []
            for j in range(lo, hi):
                out = span.reduce([a.idempotents[s][k] if t == j else f.zero()
                                   for k in basis for t in range(nt)])[0]
                classes.append([out[t] for t in free])
            unit.append(Matrix.from_columns(f, classes, rows=js.dims[s]))
            e_s = [a.idempotents[s][k] for k in a.basis_in_block(s, s)]
            ev.append(Matrix.from_columns(f, [psi.components[sig].apply(e_s)
                                              for psi in jl_homs[s].basis], rows=hi - lo))
        report.checks.append(AxiomCheck(
            "j_upper_j_shriek_id", _invertible_map(rec.j_upper(js), n, mult), witness=n.dims))
        report.checks.append(AxiomCheck(
            "j_upper_j_lower_id", _invertible_map(rec.j_upper(jl), n, ev), witness=n.dims))
        for x, c in zip(valid, corners):
            report.checks.append(_adjunction_check(
                "adjunction_j_shriek_j_upper", hom_space(js, x), hom_space(n, c),
                lambda g: [g[s] * unit[sig] for sig, s in sigmas], (n.dims, x.dims)))
            report.checks.append(_adjunction_check(
                "adjunction_j_upper_j_lower", hom_space(x, jl), hom_space(c, n),
                lambda g: [ev[sig] * g[s] for sig, s in sigmas], (n.dims, x.dims)))
    return report


# -- the four functor criteria ----------------------------------------------------------


class FunctorCriteria:
    """Four verdicts that are simultaneously true exactly when eAf = 0."""

    def __init__(self, quotient_preserves_projectives, quotient_projective_over_ambient,
                 complement_quotient_exact, corner_tensor_faithful_dims,
                 corner_vanishes: bool, degenerate):
        # i_upper(Af) projective over A/AeA
        self.quotient_preserves_projectives = quotient_preserves_projectives
        # A/AeA projective as left A-module
        self.quotient_projective_over_ambient = quotient_projective_over_ambient
        # (A/AfA) tensor - exact on covers of simples
        self.complement_quotient_exact = complement_quotient_exact
        # dim(Af tensor_{fAf} N) = dim N on projectives
        self.corner_tensor_faithful_dims = corner_tensor_faithful_dims
        self.corner_vanishes = corner_vanishes  # dim eAf == 0
        self.degenerate = degenerate

    @property
    def all_four(self):
        return (self.quotient_preserves_projectives is True
                and self.quotient_projective_over_ambient is True
                and self.complement_quotient_exact is True
                and self.corner_tensor_faithful_dims is True)


def functor_criteria_check(a: FDAlgebra, idem_subset) -> FunctorCriteria:
    """Evaluate the four functor conditions for e = sum of chosen idempotents.

    A side with a vanishing corner algebra or quotient (AeA = A) cannot carry
    the displayed recollement of module categories over nonzero algebras, so
    the affected verdicts are False with a 'degenerate' marker.
    """
    subset = sorted(idem_subset)
    comp = [i for i in range(a.idempotent_count) if i not in set(subset)]
    if not subset or not comp:
        raise ModuleError("idempotent subset must be proper and nonempty")
    eaf = sum(a.block_dim(r, c) for r in subset for c in comp)
    degenerate = []
    rec_e = IdempotentRecollement(a, subset)
    d = rec_e.quotient.algebra
    if d.dim == 0:
        degenerate.append("A e A = A")
        v1 = v2 = False
    else:
        v1 = is_projective(rec_e.i_upper(projective_module(a, *comp))[0])
        v2 = is_projective(rec_e.i_lower(regular_module(d)))
    rec_f = IdempotentRecollement(a, comp)
    d2 = rec_f.quotient.algebra
    if d2.dim == 0:
        degenerate.append("A f A = A")
        v3 = False
    else:
        v3 = True
        for i in range(a.idempotent_count):
            s = simple_module(a, i)
            if s.is_zero():
                continue
            cover = projective_cover(s)
            if cover.kernel.is_zero():
                continue
            ks, ks_q = rec_f.i_upper(cover.kernel)
            ps, ps_q = rec_f.i_upper(cover.projective)
            ss, _ = rec_f.i_upper(s)
            induced = rec_f.i_upper_map(cover.inclusion, (ks, ks_q), (ps, ps_q))
            if not induced.is_injective() or \
                    ks.total_dim + ss.total_dim != ps.total_dim:
                v3 = False
                break
    corner_f = rec_f.corner.algebra
    v4 = True
    for s in range(corner_f.idempotent_count):
        n = projective_module(corner_f, s)
        if sum(len(free) for _, _, free in rec_f._j_shriek_blocks(n)) != n.total_dim:
            v4 = False
            break
    return FunctorCriteria(v1, v2, v3, v4, eaf == 0, degenerate)


# -- torsion pair -------------------------------------------------------------------------


class TorsionPairWitness:
    def __init__(self, torsion: Module, torsion_free: Module, hom_vanishes: bool, exact: bool):
        self.torsion = torsion              # t(X) = e_C X
        self.torsion_free = torsion_free    # X / t(X) = e_B X
        self.hom_vanishes = hom_vanishes
        self.exact = exact


def torsion_canonical_sequence(pres: TriangularPresentation, x: Module) -> TorsionPairWitness:
    """The canonical sequence 0 -> e_C X -> X -> e_B X -> 0 of a triangular
    split, with Hom(t(X), X/t(X)) = 0 verified."""
    f = pres.ambient.field
    vectors = []
    for s in pres.c_idems:
        lo, hi = x.block_slice(s)
        for t in range(lo, hi):
            unit = [f.zero()] * x.total_dim
            unit[t] = f.one()
            vectors.append(unit)
    sub, incl = submodule(x, vectors)
    quot, proj, _ = quotient_module(x, vectors)
    exact = (sub.total_dim + quot.total_dim == x.total_dim
             and proj.compose(incl).is_zero())
    hom_vanishes = hom_dim(sub, quot) == 0
    return TorsionPairWitness(sub, quot, hom_vanishes, exact)
