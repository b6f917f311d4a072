"""Bounded cochain complexes of modules, homotopy-category Hom computations,
derived lifts of the triangular recollement functors, and the compactness and
exceptionality checks.

Conventions: differentials raise degree (d_n: X^n -> X^{n+1}); the shift
X[s]^n = X^{n+s} negates the differential s times (d[s] = (-1)^s d).  All
"vanishing for n != 0" claims are certified on the finite window outside
which chain maps are impossible for support reasons; that window is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import QuotientData, TriangularPresentation
from .linalg import Matrix, SubspaceQuotient
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    direct_sum,
    hom_space,
    is_projective,
    kernel_of,
    min_projective_resolution,
    quotient_module,
    same_algebra,
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
    terms = []
    parts = []
    for k in range(lo, hi + 1):
        pk1 = p.term(k + 1) or zero_module(a)
        qk = q.term(k) or zero_module(a)
        total, incs, projs = direct_sum([pk1, qk])
        terms.append(total)
        parts.append((pk1, qk, incs, projs))
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        pk1, qk, incs, projs = parts[i]
        pk2, qk1, incs1, projs1 = parts[i + 1]
        d = ModuleMap.zero(terms[i], terms[i + 1])
        dp = p.diff(k + 1)
        if dp is not None:
            d = d.add(incs1[0].compose(dp.scale(-f.one())).compose(projs[0]))
        uk = u.component(k + 1)
        if uk is not None:
            d = d.add(incs1[1].compose(uk).compose(projs[0]))
        dq = q.diff(k)
        if dq is not None:
            d = d.add(incs1[1].compose(dq).compose(projs[1]))
        diffs.append(d)
    return Complex(a, lo, terms, diffs)


def homology(x: Complex, n: int) -> Module:
    """ker(d_n) / im(d_{n-1}) with its induced action."""
    a = x.algebra
    f = a.field
    xn = x.term(n)
    if xn is None or xn.is_zero():
        return zero_module(a)
    # past the last differential every element of X^n is a cycle
    d_n = x.diff(n) or ModuleMap.zero(xn, zero_module(a))
    k_mod, incl = kernel_of(d_n)
    d_prev = x.diff(n - 1)
    if d_prev is None:
        return k_mod
    img_in_k = []
    for i in range(len(xn.dims)):
        lo_i, _ = xn.block_slice(i)
        for v in d_prev.components[i].column_space_basis():
            sol = incl.components[i].solve(v)
            if sol is None:
                raise ComplexError("image does not lie inside the kernel")
            total_k = [f.zero()] * k_mod.total_dim
            klo, _ = k_mod.block_slice(i)
            for t, val in enumerate(sol):
                total_k[klo + t] = val
            img_in_k.append(total_k)
    quot, _, _ = quotient_module(k_mod, img_in_k)
    return quot


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
        mods, incs, projs = sums[i]
        mods1, incs1, projs1 = sums[i + 1]
        d = ModuleMap.zero(terms[i], terms[i + 1])
        for t, p in enumerate(parts):
            dp = p.diff(k)
            if dp is not None:
                d = d.add(incs1[t].compose(dp).compose(projs[t]))
        diffs.append(d)
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


@dataclass
class HomotopyHom:
    """Hom_K(P, Y[n]): chain maps modulo null-homotopic maps."""
    source: Complex
    target: Complex
    degree: int
    dim: int
    reps: list = field(default_factory=list)       # ChainMaps P -> Y[n]
    class_quotient: SubspaceQuotient | None = None
    coord_layout: list = field(default_factory=list)
    rep_matrix: Matrix | None = None  # columns = projected coordinates of reps

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
        """Coefficients of the homotopy class of cm in the chosen rep basis."""
        cls = self.class_quotient.project(self.coordinates_of(cm))
        sol = self.rep_matrix.solve(cls)
        if sol is None:
            raise ComplexError("homotopy class escapes the computed basis")
        return sol


def forced_window(p: Complex, y: Complex):
    """Degrees n for which a chain map P -> Y[n] can exist at all; outside
    this window Hom_K vanishes for support reasons."""
    if p.is_zero() or y.is_zero() or not p.terms or not y.terms:
        return (0, -1)
    return (y.lo - p.hi, y.hi - p.lo)


def hom_homotopy(p: Complex, y: Complex, n: int) -> HomotopyHom:
    """Dimension and representatives of Hom_{K}(P, Y[n]) for P a bounded
    complex of projectives, via two nested linear systems (chain maps, then
    null-homotopies)."""
    a = p.algebra
    if not same_algebra(a, y.algebra):
        raise ComplexError("hom between complexes over different algebras")
    f = a.field
    degrees = [m for m in p.degrees()
               if p.term(m) is not None and y.term(m + n) is not None
               and not p.term(m).is_zero() and not y.term(m + n).is_zero()]
    if not degrees:
        return HomotopyHom(p, y, n, 0, [],
                           SubspaceQuotient(f, 0, []), [], Matrix.zeros(f, 0, 0))
    homs = {m: hom_space(p.term(m), y.term(m + n)) for m in degrees}
    layout = [(m, homs[m]) for m in degrees]
    offs = {}
    pos = 0
    for m, h in layout:
        offs[m] = pos
        pos += h.dimension
    total = pos
    sign = f.one() if n % 2 == 0 else -f.one()
    # chain-map conditions: sign * d_Y o f_m - f_{m+1} o d_P = 0 in
    # Hom(P^m, Y^{m+n+1})
    rows = []
    for m in p.degrees():
        pm = p.term(m)
        if pm is None or pm.is_zero():
            continue
        tgt = y.term(m + n + 1)
        if tgt is None or tgt.is_zero():
            continue
        cspace = hom_space(pm, tgt)
        if cspace.dimension == 0:
            continue
        con = [[f.zero()] * total for _ in range(cspace.dimension)]
        d_y = y.diff(m + n)
        if d_y is not None and m in homs:
            for j, b in enumerate(homs[m].basis):
                coords = cspace.coordinates_of(d_y.compose(b).scale(sign))
                for r, val in enumerate(coords):
                    con[r][offs[m] + j] += val
        d_p = p.diff(m)
        if d_p is not None and (m + 1) in homs:
            for j, b in enumerate(homs[m + 1].basis):
                coords = cspace.coordinates_of(b.compose(d_p))
                for r, val in enumerate(coords):
                    con[r][offs[m + 1] + j] -= val
        rows.extend(row for row in con if any(row))
    if rows:
        chain_vectors = Matrix(f, rows, cols=total).nullspace()
    else:
        chain_vectors = [v for v in Matrix.identity(f, total).columns()]
    # boundaries: h = (h_m: P^m -> Y^{m+n-1}); boundary(h)_m =
    # sign * d_Y o h_m + h_{m+1} o d_P
    h_degrees = [m for m in p.degrees()
                 if p.term(m) is not None and y.term(m + n - 1) is not None
                 and not p.term(m).is_zero() and not y.term(m + n - 1).is_zero()]
    h_homs = {m: hom_space(p.term(m), y.term(m + n - 1)) for m in h_degrees}
    boundaries = []
    for m in h_degrees:
        for b in h_homs[m].basis:
            vec = [f.zero()] * total
            d_y = y.diff(m + n - 1)
            if d_y is not None and m in homs:
                coords = homs[m].coordinates_of(d_y.compose(b).scale(sign))
                for r, val in enumerate(coords):
                    vec[offs[m] + r] += val
            d_p = p.diff(m - 1)
            if d_p is not None and (m - 1) in homs:
                coords = homs[m - 1].coordinates_of(b.compose(d_p))
                for r, val in enumerate(coords):
                    vec[offs[m - 1] + r] += val
            if any(vec):
                boundaries.append(vec)
    sq = SubspaceQuotient(f, total, boundaries)
    # one elimination of [boundaries | cycles]: a pivot past the boundaries is
    # a cycle outside the span of the boundaries and the earlier cycles
    _, _, pivots = Matrix.from_columns(
        f, boundaries + chain_vectors, rows=total).rank_and_rref()
    reps_coords = [chain_vectors[c - len(boundaries)] for c in pivots if c >= len(boundaries)]
    chosen = [sq.project(v) for v in reps_coords]
    reps = []
    for v in reps_coords:
        comps = {}
        for m, h in layout:
            coords = v[offs[m]: offs[m] + h.dimension]
            comps[m] = h.from_coordinates(coords)
        reps.append(ChainMap(p, shift_complex(y, n), comps, check=False))
    rep_matrix = Matrix.from_columns(f, chosen, rows=sq.quotient_dim)
    return HomotopyHom(p, y, n, len(reps_coords), reps, sq, layout, rep_matrix)


# -- projective resolution of a complex ----------------------------------------------


@dataclass
class ResolvedComplex:
    complex: Complex | None
    witness: ChainMap | None        # quasi-isomorphism onto the original
    truncated: bool
    certified: bool
    reason: str = ""


def proj_resolve(x: Complex, bound: int = 12) -> ResolvedComplex:
    """A bounded complex of projectives quasi-isomorphic to x, built by
    resolving the lowest stalk and coning onto the resolved truncation.
    The witness chain map is certified by checking its cone is exact."""
    x = x.trim()
    if x.is_zero() or not x.terms:
        z = Complex(x.algebra, 0, [], [], check=False)
        return ResolvedComplex(z, ChainMap(z, x, {}, check=False), False, True)
    if x.all_projective():
        return ResolvedComplex(x, identity_chain_map(x), False, True)
    result = _resolve_rec(x, bound)
    if result.truncated:
        return result
    conew = cone(result.witness)
    for k in range(conew.lo, conew.hi + 1):
        if not homology(conew, k).is_zero():
            raise ComplexError("resolution witness failed its quasi-isomorphism check")
    return ResolvedComplex(result.complex, result.witness, False, True)


def _resolve_stalk(module: Module, degree: int, bound: int):
    res = min_projective_resolution(module, bound)
    if not res.completed:
        return ResolvedComplex(None, None, True, False,
                               f"projective dimension exceeds bound {bound}")
    cx = resolution_complex(res, degree)
    target = stalk_complex(module, degree)
    witness = ChainMap(cx, target, {degree: res.augmentation}, check=False)
    return ResolvedComplex(cx, witness, False, False)


def _resolve_rec(x: Complex, bound: int) -> ResolvedComplex:
    x = x.trim()
    if not x.terms:
        z = Complex(x.algebra, 0, [], [], check=False)
        return ResolvedComplex(z, ChainMap(z, x, {}, check=False), False, False)
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
    g, h = _lift_through_quasi_iso(rs_shift, ra, target0, upper)
    cx = cone(ChainMap(rs_shift, ra.complex, g, check=False))
    # witness onto cone(delta) = x, blockwise [[q_S, 0], [h_{k+1}, q_A]]
    comps = {}
    for i, k in enumerate(range(cx.lo, cx.hi + 1)):
        xk = x.term(k)
        if xk is None:
            continue
        ck = cx.terms[i]
        pk1 = rs.complex.term(k)          # = rs_shift^(k+1)
        qk = ra.complex.term(k)
        pk1 = pk1 if pk1 is not None else zero_module(x.algebra)
        qk = qk if qk is not None else zero_module(x.algebra)
        _, incs, projs = direct_sum([pk1, qk])
        comp = ModuleMap.zero(ck, xk)
        if k == x.lo:
            # x^lo sits as the stalk part of cone(delta)
            qs = rs.witness.component(x.lo)
            if qs is not None:
                comp = comp.add(qs.compose(projs[0]))
        else:
            hk = h.get(k + 1)
            if hk is not None:
                comp = comp.add(hk.compose(projs[0]))
            qa = ra.witness.component(k)
            if qa is not None:
                comp = comp.add(qa.compose(projs[1]))
        comps[k] = comp
    witness = ChainMap(cx, x, comps)
    return ResolvedComplex(cx, witness, False, False)


def _lift_through_quasi_iso(p: Complex, resolved: ResolvedComplex, target_comps,
                            target_complex: Complex):
    """Find g: p -> resolved.complex and homotopy h with
    witness o g - target = d h + h d, by one joint linear solve."""
    r = resolved.complex
    y = target_complex
    q = resolved.witness
    a = p.algebra
    f = a.field
    g_degrees = [m for m in p.degrees()
                 if not p.term(m).is_zero() and r.term(m) is not None
                 and not r.term(m).is_zero()]
    h_degrees = [m for m in p.degrees()
                 if not p.term(m).is_zero() and y.term(m - 1) is not None
                 and not y.term(m - 1).is_zero()]
    g_homs = {m: hom_space(p.term(m), r.term(m)) for m in g_degrees}
    h_homs = {m: hom_space(p.term(m), y.term(m - 1)) for m in h_degrees}
    offs = {}
    pos = 0
    for m in g_degrees:
        offs[("g", m)] = pos
        pos += g_homs[m].dimension
    for m in h_degrees:
        offs[("h", m)] = pos
        pos += h_homs[m].dimension
    total = pos
    rows = []
    rhs = []

    def add_equations(cspace, build_terms, const_map):
        con = [[f.zero()] * total for _ in range(cspace.dimension)]
        for kind, m, mapper, sgn in build_terms:
            key = (kind, m)
            if key not in offs:
                continue
            basis = (g_homs if kind == "g" else h_homs)[m].basis
            for j, b in enumerate(basis):
                coords = cspace.coordinates_of(mapper(b))
                for rr, val in enumerate(coords):
                    con[rr][offs[key] + j] += sgn * val
        cvec = [f.zero()] * cspace.dimension if const_map is None else \
            cspace.coordinates_of(const_map)
        for rr in range(cspace.dimension):
            rows.append(con[rr])
            rhs.append(cvec[rr])

    # chain condition on g: d_r o g_m - g_{m+1} o d_p = 0
    for m in p.degrees():
        pm = p.term(m)
        if pm.is_zero():
            continue
        tgt = r.term(m + 1)
        if tgt is None or tgt.is_zero():
            continue
        cspace = hom_space(pm, tgt)
        if cspace.dimension == 0:
            continue
        terms = []
        d_r = r.diff(m)
        if d_r is not None:
            terms.append(("g", m, lambda b, d_r=d_r: d_r.compose(b), f.one()))
        d_p = p.diff(m)
        if d_p is not None:
            terms.append(("g", m + 1, lambda b, d_p=d_p: b.compose(d_p), -f.one()))
        add_equations(cspace, terms, None)
    # homotopy condition: q o g_m - target_m = d_y h_m + h_{m+1} d_p
    for m in p.degrees():
        pm = p.term(m)
        if pm.is_zero():
            continue
        ym = y.term(m)
        if ym is None or ym.is_zero():
            if m in target_comps and not target_comps[m].is_zero():
                raise ComplexError("target map hits a zero degree")
            continue
        cspace = hom_space(pm, ym)
        if cspace.dimension == 0:
            continue
        terms = []
        qm = q.component(m)
        if qm is not None:
            terms.append(("g", m, lambda b, qm=qm: qm.compose(b), f.one()))
        d_y = y.diff(m - 1)
        if d_y is not None:
            terms.append(("h", m, lambda b, d_y=d_y: d_y.compose(b), -f.one()))
        d_p = p.diff(m)
        if d_p is not None:
            terms.append(("h", m + 1, lambda b, d_p=d_p: b.compose(d_p), -f.one()))
        const = target_comps.get(m)
        add_equations(cspace, terms, const)
    if rows:
        vec = Matrix(f, rows, cols=total).solve(rhs)
        if vec is None:
            raise ComplexError("comparison lift has no solution; witness is not a quasi-isomorphism")
    else:
        vec = [f.zero()] * total
    g = {}
    for m in g_degrees:
        lo = offs[("g", m)]
        coords = vec[lo: lo + g_homs[m].dimension]
        comp = g_homs[m].from_coordinates(coords)
        if not comp.is_zero():
            g[m] = comp
    h = {}
    for m in h_degrees:
        lo = offs[("h", m)]
        coords = vec[lo: lo + h_homs[m].dimension]
        comp = h_homs[m].from_coordinates(coords)
        h[m] = comp
    return g, h


# -- derived lifts of the recollement functors -----------------------------------------


def _triangular_recollement(pres: TriangularPresentation, idems) -> IdempotentRecollement:
    """The recollement of the ambient algebra at e_B (idems = b_idems, whose
    quotient A/Ae_BA is C) or at e_C (idems = c_idems, quotient B), built
    once per presentation."""
    key = tuple(idems)
    if key not in pres.recollements:
        corner = pres.corner_b if idems == pres.b_idems else pres.corner_c
        pres.recollements[key] = IdempotentRecollement(pres.ambient, idems, corner=corner)
    return pres.recollements[key]


def inflate_c_complex(pres: TriangularPresentation, x: Complex) -> Complex:
    """i_lower on complexes: inflation along A ->> A/Ae_BA = C, degreewise
    (the defining corner makes this a functor)."""
    rec = _triangular_recollement(pres, pres.b_idems)
    terms = [rec.i_lower(t) for t in x.terms]
    diffs = [inflate_map(rec.quotient, d, terms[i], terms[i + 1]) for i, d in enumerate(x.diffs)]
    return Complex(pres.ambient, x.lo, terms, diffs)


def inflate_b_complex(pres: TriangularPresentation, x: Complex) -> Complex:
    """j_lower on complexes: inflation along A ->> A/Ae_CA = B, degreewise."""
    rec = _triangular_recollement(pres, pres.c_idems)
    terms = [rec.i_lower(t) for t in x.terms]
    diffs = [inflate_map(rec.quotient, d, terms[i], terms[i + 1]) for i, d in enumerate(x.diffs)]
    return Complex(pres.ambient, x.lo, terms, diffs)


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


def tensor_b_complex(pres: TriangularPresentation, x: Complex, bound: int = 12) -> Complex:
    """j_shriek on complexes: A e_B tensor_B -, after resolving the input to
    projectives over B to realize the left-derived functor."""
    b_alg = pres.algebra_b
    if not x.all_projective():
        resolved = proj_resolve(x, bound)
        if resolved.truncated:
            raise ComplexError("cannot resolve the input complex within the bound")
        x = resolved.complex
    rec = _triangular_recollement(pres, pres.b_idems)
    data = [rec.j_shriek(t, with_data=True) for t in x.terms]
    terms = [d[0] for d in data]
    diffs = []
    for i, d in enumerate(x.diffs):
        diffs.append(rec.j_shriek_map(d, data[i], data[i + 1]))
    return Complex(pres.ambient, x.lo, terms, diffs)


def lift_functor(pres: TriangularPresentation, which: str, x: Complex,
                 bound: int = 12) -> Complex:
    """Degreewise lift of i_lower / j_shriek / j_lower along the triangular
    recollement; j_shriek resolves its input first."""
    if which == "i_lower":
        if not same_algebra(x.algebra, pres.algebra_c):
            raise ComplexError("i_lower expects a complex over the corner C")
        return inflate_c_complex(pres, x)
    if which == "j_lower":
        if not same_algebra(x.algebra, pres.algebra_b):
            raise ComplexError("j_lower expects a complex over the corner B")
        return inflate_b_complex(pres, x)
    if which == "j_shriek":
        if not same_algebra(x.algebra, pres.algebra_b):
            raise ComplexError("j_shriek expects a complex over the corner B")
        return tensor_b_complex(pres, x, bound)
    raise ComplexError(f"unsupported derived lift {which!r}")


# -- verdicts ----------------------------------------------------------------------------


@dataclass
class CompactnessVerdict:
    verdict: str                  # "compact-certified" or "unknown"
    resolved: ResolvedComplex


def compactness_check(x: Complex, bound: int = 12) -> CompactnessVerdict:
    resolved = proj_resolve(x, bound)
    if resolved.truncated:
        return CompactnessVerdict("unknown", resolved)
    return CompactnessVerdict("compact-certified", resolved)


@dataclass
class ExceptionalityVerdict:
    verdict: object               # True / False / "unknown"
    window: tuple
    witness_degree: int | None
    witness_dim: int | None


def exceptionality_check(x: Complex, bound: int = 12) -> ExceptionalityVerdict:
    """Hom_K(P, P[n]) = 0 for all n != 0 in the support-forced window of a
    perfect representative; outside the window vanishing is automatic."""
    if x.is_zero():
        return ExceptionalityVerdict(True, (0, -1), None, None)
    if x.all_projective():
        p = x.trim()
    else:
        resolved = proj_resolve(x, bound)
        if resolved.truncated:
            return ExceptionalityVerdict("unknown", (0, 0), None, None)
        p = resolved.complex
    lo, hi = forced_window(p, p)
    for n in range(lo, hi + 1):
        if n == 0:
            continue
        hom = hom_homotopy(p, p, n)
        if hom.dim != 0:
            return ExceptionalityVerdict(False, (lo, hi), n, hom.dim)
    return ExceptionalityVerdict(True, (lo, hi), None, None)


@dataclass
class GeneratorPairWitness:
    """Window-limited verdicts for a candidate recollement generator pair:
    which conditions were checked, and in which windows."""
    t1_compact: str
    t1_exceptional: object
    t2_self_window: object         # finite-sum proxy of the T2 condition
    cross_vanishing: object        # Hom(T1, T2[n]) = 0 for all n in window
    windows: dict
    unchecked: tuple = ("generation_of_unbounded_derived_category",)


def generator_pair_witness_check(t1: Complex, t2: Complex,
                                 bound: int = 12) -> GeneratorPairWitness:
    """Check the computable window-limited conditions for (T1, T2); the
    unbounded-coproduct and generation conditions are recorded as unchecked."""
    comp = compactness_check(t1, bound)
    exc = exceptionality_check(t1, bound)
    windows = {"t1_exceptional": exc.window}
    r2 = proj_resolve(t2, bound)
    if r2.truncated:
        t2_self = "unknown"
        cross = "unknown"
        windows["t2_self"] = None
        windows["cross"] = None
    else:
        p2 = r2.complex
        sums, _, _ = direct_sum_complexes([p2, p2])
        lo, hi = forced_window(p2, sums)
        t2_self = True
        for n in range(lo, hi + 1):
            if n == 0:
                continue
            if hom_homotopy(p2, sums, n).dim != 0:
                t2_self = False
                break
        windows["t2_self"] = (lo, hi)
        if comp.verdict == "compact-certified":
            p1 = comp.resolved.complex
            lo2, hi2 = forced_window(p1, p2)
            cross = True
            for n in range(lo2, hi2 + 1):
                if hom_homotopy(p1, p2, n).dim != 0:
                    cross = False
                    break
            windows["cross"] = (lo2, hi2)
        else:
            cross = "unknown"
            windows["cross"] = None
    return GeneratorPairWitness(comp.verdict, exc.verdict, t2_self, cross, windows)
