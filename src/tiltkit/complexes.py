"""Bounded cochain complexes of modules, homotopy-category Hom computations,
derived lifts of the triangular recollement functors, and the exceptionality
check.

Conventions: differentials raise degree (d_n: X^n -> X^{n+1}); the shift
X[s]^n = X^{n+s} negates the differential s times (d[s] = (-1)^s d).  All
"vanishing for n != 0" claims are certified on the finite window outside
which chain maps are impossible for support reasons; that window is recorded.
"""

from __future__ import annotations

from .algebra import FDAlgebra, QuotientData, TriangularPresentation, same_algebra
from .linalg import EchelonBasis, Matrix, _kernel_basis, reversed_span
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    block_map,
    direct_sum,
    hom_space,
    is_projective,
    min_projective_resolution,
    zero_module,
)
from .recollement import IdempotentRecollement


class ComplexError(ModuleError):
    pass


class Complex:
    """A bounded cochain complex; terms[i] lives in degree lo + i."""

    def __init__(self, algebra, lo, terms, diffs, check=True):
        self.algebra = algebra
        self.lo = lo
        self.terms = list(terms)
        self.diffs = list(diffs)
        if self.terms and len(self.diffs) != len(self.terms) - 1:
            raise ComplexError("need one differential between consecutive terms")
        if check:
            for i, d in enumerate(self.diffs):
                if d.source.dims != self.terms[i].dims or \
                        d.target.dims != self.terms[i + 1].dims:
                    raise ComplexError(f"differential {i} endpoints mismatch")
            for i in range(len(self.diffs) - 1):
                if not self.diffs[i + 1].compose(self.diffs[i]).is_zero():
                    raise ComplexError(f"d o d != 0 at degree {self.lo + i}")

    @property
    def hi(self):
        return self.lo + len(self.terms) - 1

    def is_zero(self):
        return all(t.is_zero() for t in self.terms)

    def degrees(self):
        return range(self.lo, self.lo + len(self.terms))

    def term(self, n):
        if self.lo <= n <= self.hi:
            return self.terms[n - self.lo]
        return None

    def diff(self, n):
        """d_n: X^n -> X^{n+1}, or None outside the stored range."""
        i = n - self.lo
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return None

    def trim(self):
        """Drop zero terms at both ends."""
        lo_i = 0
        terms = list(self.terms)
        diffs = list(self.diffs)
        while terms and terms[0].is_zero():
            terms.pop(0)
            if diffs:
                diffs.pop(0)
            lo_i += 1
        while terms and terms[-1].is_zero():
            terms.pop()
            if diffs:
                diffs.pop()
        if not terms:
            return Complex(self.algebra, 0, [], [], check=False)
        return Complex(self.algebra, self.lo + lo_i, terms, diffs, check=False)

    def all_projective(self):
        return all(is_projective(t) for t in self.terms)

    def __repr__(self):
        return f"Complex([{self.lo}..{self.hi}], dims={[t.total_dim for t in self.terms]})"


def stalk_complex(module: Module, degree: int = 0) -> Complex:
    if module.is_zero():
        return Complex(module.algebra, 0, [], [], check=False)
    return Complex(module.algebra, degree, [module], [], check=False)


def resolution_complex(res, degree: int = 0) -> Complex:
    """A projective resolution P_r -> ... -> P_0 as a complex with P_k in
    degree ``degree - k``; d_k: P_k -> P_{k-1} becomes a degree-raising
    differential."""
    return Complex(res.target.algebra, degree - res.length,
                   list(reversed(res.modules)), list(reversed(res.differentials)), check=False)


def shift_complex(x: Complex, s: int) -> Complex:
    """X[s]^n = X^{n+s} with d[s] = (-1)^s d."""
    if s % 2 == 0:
        diffs = list(x.diffs)
    else:
        diffs = [d.scale(-x.algebra.field.one()) for d in x.diffs]
    return Complex(x.algebra, x.lo - s, x.terms, diffs, check=False)


class ChainMap:
    """A degree-0 map of complexes; absent components are zero."""

    def __init__(self, source: Complex, target: Complex, comps: dict, check=True):
        self.source = source
        self.target = target
        self.comps = dict(comps)
        if check:
            self.check_chain()

    def component(self, n):
        if n in self.comps:
            return self.comps[n]
        return None

    def check_chain(self):
        for n in range(min(self.source.lo, self.target.lo) - 1,
                       max(self.source.hi, self.target.hi) + 1):
            sn = self.source.term(n)
            if sn is None:
                continue
            # d_target o f_n == f_{n+1} o d_source on X^n
            lhs = None
            f_n = self.component(n)
            d_t = self.target.diff(n)
            if f_n is not None and d_t is not None:
                lhs = d_t.compose(f_n)
            rhs = None
            d_s = self.source.diff(n)
            f_n1 = self.component(n + 1)
            if d_s is not None and f_n1 is not None:
                rhs = f_n1.compose(d_s)
            if lhs is None and rhs is None:
                continue
            if lhs is None:
                if not rhs.is_zero():
                    raise ComplexError(f"chain condition fails at degree {n}")
            elif rhs is None:
                if not lhs.is_zero():
                    raise ComplexError(f"chain condition fails at degree {n}")
            elif not all((a - b).is_zero()
                         for a, b in zip(lhs.components, rhs.components)):
                raise ComplexError(f"chain condition fails at degree {n}")

    def is_zero(self):
        return all(m.is_zero() for m in self.comps.values())

    def compose(self, other):
        comps = {}
        for n, g in other.comps.items():
            f = self.component(n)
            if f is not None:
                comps[n] = f.compose(g)
        return ChainMap(other.source, self.target, comps, check=False)

    def add(self, other):
        comps = dict(self.comps)
        for n, g in other.comps.items():
            comps[n] = comps[n].add(g) if n in comps else g
        return ChainMap(self.source, self.target, comps, check=False)

    def scale(self, c):
        return ChainMap(self.source, self.target,
                        {n: m.scale(c) for n, m in self.comps.items()}, check=False)


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, {n: ModuleMap.identity(x.term(n)) for n in x.degrees()},
                    check=False)


def cone(u: ChainMap) -> Complex:
    """Mapping cone: C^k = P^{k+1} + Q^k with d = [[-d_P, 0], [u, d_Q]]."""
    p, q = u.source, u.target
    a = p.algebra
    f = a.field
    if p.is_zero() and q.is_zero():
        return Complex(a, 0, [], [], check=False)
    lo = min(p.lo - 1, q.lo)
    hi = max(p.hi - 1, q.hi)
    parts = [[p.term(k + 1) or zero_module(a), q.term(k) or zero_module(a)]
             for k in range(lo, hi + 1)]
    terms = [direct_sum(pair)[0] for pair in parts]
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        blocks = {}
        dp = p.diff(k + 1)
        if dp is not None:
            blocks[0, 0] = dp.scale(-f.one())
        uk = u.component(k + 1)
        if uk is not None:
            blocks[1, 0] = uk
        dq = q.diff(k)
        if dq is not None:
            blocks[1, 1] = dq
        diffs.append(block_map(terms[i], terms[i + 1], parts[i], parts[i + 1], blocks))
    return Complex(a, lo, terms, diffs)


def homology_dims(x: Complex, n: int) -> list:
    """dim e_i H^n(x) for each vertex i: dim e_i X^n - rank e_i d_n -
    rank e_i d_{n-1}, as every differential is block diagonal."""
    xn = x.term(n)
    if xn is None or xn.is_zero():
        return [0] * x.algebra.idempotent_count
    d_n, d_prev = x.diff(n), x.diff(n - 1)
    if d_n is not None and d_prev is not None and not d_n.compose(d_prev).is_zero():
        raise ComplexError("image does not lie inside the kernel")
    return [dim - sum(d.components[i].rank() for d in (d_n, d_prev) if d is not None)
            for i, dim in enumerate(xn.dims)]


def direct_sum_complexes(parts):
    """Degreewise direct sum with inclusion and projection chain maps."""
    parts = [p for p in parts]
    a = parts[0].algebra
    nonzero = [p for p in parts if not p.is_zero()]
    if not nonzero:
        z = Complex(a, 0, [], [], check=False)
        return z, [ChainMap(p, z, {}, check=False) for p in parts], \
            [ChainMap(z, p, {}, check=False) for p in parts]
    lo = min(p.lo for p in nonzero)
    hi = max(p.hi for p in nonzero)
    terms = []
    sums = []
    for k in range(lo, hi + 1):
        mods = [(p.term(k) or zero_module(a)) for p in parts]
        total, incs, projs = direct_sum(mods)
        terms.append(total)
        sums.append((mods, incs, projs))
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        blocks = {}
        for t, p in enumerate(parts):
            dp = p.diff(k)
            if dp is not None:
                blocks[t, t] = dp
        diffs.append(block_map(terms[i], terms[i + 1], sums[i][0], sums[i + 1][0], blocks))
    total_complex = Complex(a, lo, terms, diffs)
    inc_maps, proj_maps = [], []
    for t, p in enumerate(parts):
        ic, pc = {}, {}
        for i, k in enumerate(range(lo, hi + 1)):
            if p.term(k) is not None:
                ic[k] = sums[i][1][t]
                pc[k] = sums[i][2][t]
        inc_maps.append(ChainMap(p, total_complex, ic, check=False))
        proj_maps.append(ChainMap(total_complex, p, pc, check=False))
    return total_complex, inc_maps, proj_maps


# -- homotopy-category Hom ---------------------------------------------------------


class HomotopyHom:
    """Hom_K(P, Y[n]): chain maps modulo null-homotopic maps.  ``cycles`` is
    the kernel basis of D_n, echelon at its free columns; ``boundaries``
    spans the boundaries in its coordinates (``linalg.reversed_span``), and
    the reps are the cycles at the positions ``rep_at`` where none ends."""

    def __init__(self, source: Complex, target: Complex, degree: int, dim: int, reps,
                 coord_layout, cycles: EchelonBasis, boundaries: EchelonBasis, rep_at):
        self.source = source
        self.target = target
        self.degree = degree
        self.dim = dim
        self.reps = reps                # ChainMaps P -> Y[n]
        self.coord_layout = coord_layout
        self.cycles = cycles
        self.boundaries = boundaries
        self.rep_at = rep_at

    def coordinates_of(self, cm: ChainMap):
        coords = []
        for m, h in self.coord_layout:
            comp = cm.component(m)
            if comp is None:
                coords.extend([self.source.algebra.field.zero()] * h.dimension)
            else:
                coords.extend(h.coordinates_of(comp))
        return coords

    def class_coordinates(self, cm: ChainMap):
        """Coefficients of the homotopy class of cm in the reps: its cycle
        coordinates, reduced modulo the boundaries, read at ``rep_at``."""
        w = self.cycles.coordinates(self.coordinates_of(cm))
        if w is None:
            raise ComplexError("homotopy class escapes the computed basis")
        out = self.boundaries.reduce(w[::-1])[0][::-1]
        return [out[k] for k in self.rep_at]


def forced_window(p: Complex, y: Complex):
    """Degrees n for which a chain map P -> Y[n] can exist at all; outside
    this window Hom_K vanishes for support reasons."""
    if p.is_zero() or y.is_zero() or not p.terms or not y.terms:
        return (0, -1)
    return (y.lo - p.hi, y.hi - p.lo)


def hom_layout(p: Complex, y: Complex, n: int):
    """Hom^n(P, Y) = prod_m Hom(P^m, Y^{m+n}) as (m, HomSpace) pairs, over
    the degrees m where both terms are nonzero; ``hom_space`` keeps each
    factor for its pair of contents."""
    layout = []
    for m in p.degrees():
        x, t = p.term(m), y.term(m + n)
        if not x.is_zero() and t is not None and not t.is_zero():
            layout.append((m, hom_space(x, t)))
    return layout


def _offsets(layout):
    """Where the coordinates of each factor of a layout start, and their total."""
    offs, pos = {}, 0
    for m, h in layout:
        offs[m] = pos
        pos += h.dimension
    return offs, pos


def _maps_of(layout, vec):
    """The maps, by degree, whose coordinates in a layout are vec."""
    offs, _ = _offsets(layout)
    return {m: h.from_coordinates(vec[offs[m]: offs[m] + h.dimension]) for m, h in layout}


def _composition_columns(f, src, tgt, post, pre):
    """Columns, in the coordinates of the layouts src and tgt, of the linear
    map that sends a basis map b of the degree-m factor of src to c * (u o b)
    in the degree-m factor of tgt, for post[m] = (c, u), plus c * (b o v) in
    the degree-(m - 1) factor, for pre[m] = (c, v)."""
    offs, rows = _offsets(tgt)
    spaces = {m: h for m, h in tgt if h.dimension}
    cols = []
    for m, h in src:
        terms = [(m, post[m], True)] if m in post and m in spaces else []
        if m in pre and m - 1 in spaces:
            terms.append((m - 1, pre[m], False))
        for b in h.basis:
            col = [f.zero()] * rows
            for k, (c, u), after in terms:
                image = u.compose(b) if after else b.compose(u)
                for r, val in enumerate(spaces[k].coordinates_of(image), start=offs[k]):
                    col[r] = c * val
            cols.append(col)
    return cols


def hom_differential(p: Complex, y: Complex, n: int, src, tgt):
    """Columns of the matrix of D_n f = (-1)^n d_Y o f - f o d_P from
    Hom^n(P, Y) to Hom^{n+1}(P, Y), in the coordinates of their layouts src
    and tgt."""
    f = p.algebra.field
    sign = f.one() if n % 2 == 0 else -f.one()
    post = {m: (sign, y.diff(m + n)) for m, _ in src if y.diff(m + n) is not None}
    pre = {m: (-f.one(), p.diff(m - 1)) for m, _ in src if p.diff(m - 1) is not None}
    return _composition_columns(f, src, tgt, post, pre)


def hom_homotopy(p: Complex, y: Complex, n: int) -> HomotopyHom:
    """Hom_K(P, Y[n]) for P a bounded complex of projectives: H^n of the Hom
    complex, ker D_n / im D_{n-1}.  The cycles come from one elimination of
    D_n, the boundaries are read at its free columns, and the representatives
    are the cycles outside the span of the boundaries and the earlier cycles."""
    a = p.algebra
    if not same_algebra(a, y.algebra):
        raise ComplexError("hom between complexes over different algebras")
    f = a.field
    layout = hom_layout(p, y, n)
    if not layout:
        return HomotopyHom(p, y, n, 0, [], [], EchelonBasis(f), EchelonBasis(f), [])
    total = _offsets(layout)[1]
    rows = [list(row) for row in zip(*hom_differential(p, y, n, layout, hom_layout(p, y, n + 1)))
            if any(row)]
    # with no equations every coordinate vector is a cycle
    _, rref, pivots = Matrix(f, rows, cols=total).rank_and_rref()
    free = sorted(set(range(total)).difference(pivots))
    cycles = _kernel_basis(f, total, rref.data, pivots)
    boundaries = [[col[c] for c in free]
                  for col in hom_differential(p, y, n - 1, hom_layout(p, y, n - 1), layout)]
    span, rep_at = reversed_span(f, boundaries, len(free))
    shifted = shift_complex(y, n) if rep_at else None
    reps = [ChainMap(p, shifted, _maps_of(layout, cycles[k]), check=False) for k in rep_at]
    return HomotopyHom(p, y, n, len(reps), reps, layout,
                       EchelonBasis.echelon_at(f, cycles, free), span, rep_at)


# -- projective resolution of a complex ----------------------------------------------


class ResolvedComplex:
    def __init__(self, complex: Complex | None, witness: ChainMap | None, truncated: bool):
        self.complex = complex
        self.witness = witness          # quasi-isomorphism onto the original
        self.truncated = truncated


def proj_resolve(x: Complex, bound: int = 12) -> ResolvedComplex:
    """A bounded complex of projectives quasi-isomorphic to x, built by
    resolving the lowest stalk and coning onto the resolved truncation.
    The witness chain map is certified by checking its cone is exact."""
    x = x.trim()
    if x.is_zero() or not x.terms:
        z = Complex(x.algebra, 0, [], [], check=False)
        return ResolvedComplex(z, ChainMap(z, x, {}, check=False), False)
    if x.all_projective():
        return ResolvedComplex(x, identity_chain_map(x), False)
    result = _resolve_rec(x, bound)
    if not result.truncated:
        require_quasi_isomorphism(result.witness,
                                  "resolution witness failed its quasi-isomorphism check")
    return result


def require_quasi_isomorphism(u: ChainMap, message: str):
    """Raise ComplexError(message) unless the cone of u is exact."""
    c = cone(u)
    for k in range(c.lo, c.hi + 1):
        if any(homology_dims(c, k)):
            raise ComplexError(message)


def _resolve_stalk(module: Module, degree: int, bound: int):
    res = min_projective_resolution(module, bound)
    if not res.completed:
        return ResolvedComplex(None, None, True)
    cx = resolution_complex(res, degree)
    target = stalk_complex(module, degree)
    witness = ChainMap(cx, target, {degree: res.augmentation}, check=False)
    return ResolvedComplex(cx, witness, False)


def _resolve_rec(x: Complex, bound: int) -> ResolvedComplex:
    x = x.trim()
    if not x.terms:
        z = Complex(x.algebra, 0, [], [], check=False)
        return ResolvedComplex(z, ChainMap(z, x, {}, check=False), False)
    if len(x.terms) == 1:
        return _resolve_stalk(x.terms[0], x.lo, bound)
    low = x.terms[0]
    upper = Complex(x.algebra, x.lo + 1, x.terms[1:], x.diffs[1:], check=False)
    rs = _resolve_stalk(low, x.lo, bound)
    if rs.truncated:
        return rs
    ra = _resolve_rec(upper, bound)
    if ra.truncated:
        return ra
    # connecting map: stalk(low)[-1] --(d_X at lo)--> upper
    rs_shift = shift_complex(rs.complex, -1)
    target0 = {x.lo + 1: x.diffs[0].compose(rs.witness.component(x.lo))}
    [(g, h)] = _lift_through_quasi_iso(rs_shift, ra.witness, [target0])
    cx = cone(g)
    # witness onto cone(delta) = x, blockwise [[q_S, 0], [h_{k+1}, q_A]]
    comps = {}
    for i, k in enumerate(range(cx.lo, cx.hi + 1)):
        xk = x.term(k)
        if xk is None:
            continue
        pk1 = rs.complex.term(k) or zero_module(x.algebra)      # = rs_shift^(k+1)
        qk = ra.complex.term(k) or zero_module(x.algebra)
        if k == x.lo:
            # x^lo sits as the stalk part of cone(delta)
            blocks = {(0, 0): rs.witness.component(x.lo)}
        else:
            blocks = {(0, 0): h.get(k + 1), (0, 1): ra.witness.component(k)}
        comps[k] = block_map(cx.terms[i], xk, [pk1, qk], [xk],
                             {ij: m for ij, m in blocks.items() if m is not None})
    witness = ChainMap(cx, x, comps)
    return ResolvedComplex(cx, witness, False)


def _lift_through_quasi_iso(p: Complex, q: ChainMap, targets):
    """For a quasi-isomorphism q: R -> Y and each target, the components by
    degree of a chain map t: P -> Y, a chain map g: P -> R and maps h with
    q o g - t = d h + h d.  [g; h] solves the block system
    [[D_0(P, R), 0], [q o -, D_{-1}(P, Y)]] [g; h] = [0; t], and one
    elimination of the system beside every target solves them all
    (``Matrix.solve``), with every free unknown 0.  Returns the (g, h)
    pairs in the order of the targets."""
    r, y = q.source, q.target
    f = p.algebra.field
    z = f.zero()
    g_layout, h_layout = hom_layout(p, r, 0), hom_layout(p, y, -1)
    chain_layout, y_layout = hom_layout(p, r, 1), hom_layout(p, y, 0)
    top = _offsets(chain_layout)[1]
    post = {m: (f.one(), q.component(m)) for m, _ in g_layout if q.component(m) is not None}
    columns = [chain + lifted for chain, lifted in zip(
        hom_differential(p, r, 0, g_layout, chain_layout),
        _composition_columns(f, g_layout, y_layout, post, {}))]
    columns += [[z] * top + col for col in hom_differential(p, y, -1, h_layout, y_layout)]
    system = Matrix.from_columns(f, columns, rows=top + _offsets(y_layout)[1])
    y_spaces = dict(y_layout)
    rhs = []
    for target in targets:
        if any(m not in y_spaces and not t.is_zero() for m, t in target.items()):
            raise ComplexError("target map hits a zero degree")
        b = [z] * top
        for m, h in y_layout:
            b += h.coordinates_of(target[m]) if m in target else [z] * h.dimension
        rhs.append(b)
    solutions = system.solve(rhs)
    if None in solutions:
        raise ComplexError("comparison lift has no solution; witness is not a quasi-isomorphism")
    g_total = _offsets(g_layout)[1]
    lifts = []
    for vec in solutions:
        g = {m: c for m, c in _maps_of(g_layout, vec[:g_total]).items() if not c.is_zero()}
        lifts.append((ChainMap(p, r, g, check=False), _maps_of(h_layout, vec[g_total:])))
    return lifts


# -- derived lifts of the recollement functors -----------------------------------------


def inflate_complex(a: FDAlgebra, idems, x: Complex) -> Complex:
    """Inflation along A ->> A/AeA, degreewise, for e the sum of the
    idempotents idems.  On a triangular split, idems = b_idems gives i_lower
    (the quotient is C) and idems = c_idems gives j_lower (the quotient is
    B); the defining corner makes both functors."""
    rec = IdempotentRecollement(a, idems)
    terms = [rec.i_lower(t) for t in x.terms]
    diffs = [inflate_map(rec.quotient, d, terms[i], terms[i + 1]) for i, d in enumerate(x.diffs)]
    return Complex(a, x.lo, terms, diffs)


def inflate_map(quotient: QuotientData, fmap: ModuleMap, source: Module,
                target: Module) -> ModuleMap:
    """A map of modules over A/AeA as a map between their inflations
    ``source`` and ``target``: its components at the quotient's idempotents,
    empty blocks elsewhere."""
    a = source.algebra
    pos_of = {amb: t for t, amb in enumerate(quotient.idem_map)}
    comps = []
    for i in range(a.idempotent_count):
        if i in pos_of:
            comps.append(fmap.components[pos_of[i]])
        else:
            comps.append(Matrix.zeros(a.field, 0, 0))
    return ModuleMap(source, target, comps)


def tensor_b_complex(pres: TriangularPresentation, x: Complex) -> Complex:
    """j_shriek on complexes: A e_B tensor_B -, degreewise.  On x a complex of
    projectives over B (``proj_resolve``) this is the left-derived functor."""
    rec = IdempotentRecollement(pres.ambient, pres.b_idems)
    data = [rec.j_shriek(t) for t in x.terms]
    terms = [d[0] for d in data]
    diffs = []
    for i, d in enumerate(x.diffs):
        diffs.append(rec.j_shriek_map(d, data[i], data[i + 1]))
    return Complex(pres.ambient, x.lo, terms, diffs)


# -- verdicts ----------------------------------------------------------------------------


class ExceptionalityVerdict:
    def __init__(self, verdict, window: tuple, witness_degree: int | None,
                 witness_dim: int | None):
        self.verdict = verdict          # True / False / "unknown"
        self.window = window
        self.witness_degree = witness_degree
        self.witness_dim = witness_dim


def exceptionality_check(x: Complex, bound: int = 12) -> ExceptionalityVerdict:
    """Hom_K(P, P[n]) = 0 for all n != 0 in the support-forced window of a
    perfect representative; outside the window vanishing is automatic."""
    if x.is_zero():
        return ExceptionalityVerdict(True, (0, -1), None, None)
    resolved = proj_resolve(x, bound)
    if resolved.truncated:
        return ExceptionalityVerdict("unknown", (0, 0), None, None)
    p = resolved.complex
    window, witness = window_witness(p, p, True)
    if witness is not None:
        return ExceptionalityVerdict(False, window, *witness)
    return ExceptionalityVerdict(True, window, None, None)


def window_witness(p: Complex, q: Complex, skip_zero: bool):
    """The support-forced window of Hom_K(P, Q[n]) and the first n in it,
    passing over n = 0 with skip_zero, where Hom_K(P, Q[n]) is nonzero, as
    (n, dim), or None when it vanishes throughout."""
    lo, hi = forced_window(p, q)
    for n in range(lo, hi + 1):
        if skip_zero and n == 0:
            continue
        dim = hom_homotopy(p, q, n).dim
        if dim != 0:
            return (lo, hi), (n, dim)
    return (lo, hi), None
