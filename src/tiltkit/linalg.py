"""Exact linear algebra over the rationals and prime fields.

Everything here is deterministic: pivots are always chosen leftmost-column,
topmost-row, and a class modulo a subspace is a vector's residue read at
the positions where an echelon basis of the subspace has no pivot.  All
arithmetic is exact (a rational is an ``int`` when integral and a
``fractions.Fraction`` otherwise; F_p holds residues mod p), nothing is ever
rounded, and only the fields' ``inv`` divides.  Storage is dense (a list of
rows), but every arithmetic loop skips zero entries: a product, an
elimination step or a sum only touches the nonzero entries of its operands.
A system is solved by one elimination beside all of its right-hand sides,
and nothing is factored or cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate


class LinalgError(Exception):
    """Contract violation in a linear-algebra operation (e.g. shape mismatch)."""


class FpElement:
    """Residue class mod p with field operator overloads."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise LinalgError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        if isinstance(other, Fraction):
            return FpElement(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, Fraction):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}m{self.p}"


class RationalField:
    """The field of rationals with arbitrary-precision integer arithmetic.

    An integral rational is a plain ``int`` and any other is a ``Fraction``.
    Python's numeric tower keeps ``int`` with ``int`` an ``int`` and gives a
    ``Fraction`` for any ``Fraction`` operand, so integer entries add,
    multiply and test for zero without a ``Fraction`` object.  ``/`` on two
    ints gives a float, so division goes only through ``inv``."""

    name = "Q"
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise LinalgError(f"cannot coerce {x!r} into Q")

    def inv(self, x):
        q = Fraction(x.denominator, x.numerator)
        return q.numerator if q.denominator == 1 else q

    def format(self, x):
        return f"{x.numerator}/{x.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p < 2^31, a bound that caps the primality test
    (trial division up to sqrt p) at 46,341 divisions, about 5 ms.  It hands
    out one shared zero and one shared one: field elements are never changed
    in place, so sharing them is safe."""

    def __init__(self, p):
        if p >= 2**31:
            raise LinalgError("the characteristic of a prime field must be below 2^31")
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise LinalgError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self._zero = FpElement(p, 0)
        self._one = FpElement(p, 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise LinalgError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(self.p, x)
        if isinstance(x, Fraction):
            return FpElement(self.p, x.numerator * pow(x.denominator, -1, self.p))
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise LinalgError(f"cannot coerce {x!r} into F_{self.p}")

    def inv(self, x):
        return self._one / x

    def format(self, x):
        return f"{x.v}/1"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


class Matrix:
    """Dense row-major matrix over an exact field.

    Instances are immutable once built: all operations return fresh
    matrices and nothing is cached on an instance.  A constructor may fill
    a matrix it has just created in place (``Matrix.zeros`` followed by
    ``.data[i][j] = ...``) as long as it does so before handing it out.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise LinalgError("ragged matrix rows")
        else:
            self.cols = 0 if cols is None else cols

    @staticmethod
    def _own(field, data, cols):
        """Wrap rows the caller has just built and hands over: no copy and no
        ragged check, so every row must be a fresh list of length cols."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero()
        return Matrix._own(field, [[z] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field, n):
        out = Matrix.zeros(field, n, n)
        o = field.one()
        for i, row in enumerate(out.data):
            row[i] = o
        return out

    @staticmethod
    def from_columns(field, columns, rows):
        if not columns:
            return Matrix.zeros(field, rows, 0)
        n = len(columns[0])
        return Matrix._own(field, [[col[i] for col in columns] for i in range(n)], len(columns))

    @staticmethod
    def from_blocks(field, row_sizes, col_sizes, blocks):
        """The matrix with row parts of sizes row_sizes and column parts of
        sizes col_sizes whose block (i, j) is blocks[i, j], a Matrix of shape
        row_sizes[i] x col_sizes[j]; a missing block is zero."""
        row_offs = list(accumulate(row_sizes, initial=0))
        col_offs = list(accumulate(col_sizes, initial=0))
        z, cols = field.zero(), col_offs[-1]
        data = [[z] * cols for _ in range(row_offs[-1])]
        for (i, j), b in blocks.items():
            if b.rows != row_sizes[i] or b.cols != col_sizes[j]:
                raise LinalgError(f"block ({i}, {j}) has shape {b.rows}x{b.cols}, "
                                  f"want {row_sizes[i]}x{col_sizes[j]}")
            co, ce = col_offs[j], col_offs[j + 1]
            for r, row in enumerate(b.data, row_offs[i]):
                data[r][co:ce] = row
        return Matrix._own(field, data, cols)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def row(self, i):
        return list(self.data[i])

    def is_zero(self):
        return not any(map(any, self.data))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self):
        return Matrix._own(self.field, [[self.data[i][j] for i in range(self.rows)]
                                        for j in range(self.cols)], self.rows)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        return Matrix._own(self.field, [[(a + b if a else b) if b else a for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.data, other.data)], self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in sub")
        return Matrix._own(self.field, [[(a - b if a else -b) if b else a for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.data, other.data)], self.cols)

    def scale(self, c):
        return Matrix._own(self.field, [[c * x if x else x for x in row] for row in self.data],
                           self.cols)

    def __neg__(self):
        return self.scale(-self.field.one())

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch in mul: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        z = self.field.zero()
        nz_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for ri in self.data:
            row = [z] * other.cols
            for k, a in enumerate(ri):
                if a:
                    for j, b in nz_rows[k]:
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix._own(self.field, out, other.cols)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch in apply")
        z = self.field.zero()
        nz = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for ri in self.data:
            s = z
            for k, x in nz:
                a = ri[k]
                if a:
                    s = s + a * x
            out.append(s)
        return out

    def rank_and_rref(self):
        """Reduced row echelon form with deterministic pivoting.

        Returns (rank, rref, pivot_columns).  The pivot in each step is the
        topmost nonzero entry of the leftmost unfinished column.  Each step
        updates the other rows over the nonzero entries of the pivot row.
        """
        m = [list(row) for row in self.data]
        nr, nc = self.rows, self.cols
        one = self.field.one()
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            sel = None
            for i in range(r, nr):
                if m[i][c]:
                    sel = i
                    break
            if sel is None:
                continue
            if sel != r:
                m[r], m[sel] = m[sel], m[r]
            pv = m[r][c]
            if pv != one:
                inv = self.field.inv(pv)
                m[r] = [inv * x if x else x for x in m[r]]
            nz = [(j, b) for j, b in enumerate(m[r]) if b]
            for i in range(nr):
                row = m[i]
                f = row[c]
                if f and i != r:
                    for j, b in nz:
                        row[j] = row[j] - f * b
            pivots.append(c)
            r += 1
        return r, Matrix._own(self.field, m, nc), pivots

    def rank(self):
        return self.rank_and_rref()[0]

    def nullspace(self):
        """Deterministic kernel basis: one vector per free column, with the
        free coordinate set to 1 and other free coordinates 0."""
        _, rref, pivots = self.rank_and_rref()
        return _kernel_basis(self.field, self.cols, rref.data, pivots)

    def solve(self, targets):
        """Solve self * x = b for each b in targets by one elimination of
        [self | targets]: None where b's column is nonzero in a row past the
        rank of self, else the solution with every free variable zero (x at
        the pivot column of row r is row r's entry in b's column).  A length
        mismatch between a b and the row count raises LinalgError."""
        if any(len(b) != self.rows for b in targets):
            raise LinalgError("rhs length must equal row count")
        n = self.cols
        aug = Matrix._own(self.field, [row + [b[i] for b in targets]
                                       for i, row in enumerate(self.data)], n + len(targets))
        _, rref, pivots = aug.rank_and_rref()
        rank = sum(p < n for p in pivots)
        out = []
        for j in range(n, n + len(targets)):
            x = [self.field.zero()] * n
            for row, pc in zip(rref.data, pivots[:rank]):
                if row[j]:
                    x[pc] = row[j]
            out.append(None if any(row[j] for row in rref.data[rank:]) else x)
        return out

    def column_space_basis(self):
        """Columns of self at the pivot positions of its rref."""
        _, _, pivots = self.rank_and_rref()
        return [self.column(j) for j in pivots]

    def inverse(self):
        if self.rows != self.cols:
            raise LinalgError("inverse of non-square matrix")
        n = self.rows
        aug = Matrix.from_blocks(self.field, [n], [n, n],
                                 {(0, 0): self, (0, 1): Matrix.identity(self.field, n)})
        rank, rref, _ = aug.rank_and_rref()
        if rank < n:
            raise LinalgError("matrix is singular")
        return Matrix._own(self.field, [row[n:] for row in rref.data], n)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def det(self):
        """Determinant by plain Gaussian elimination over the field: the
        product of the pivots, with a sign flip per row swap.  Each step
        updates the rows below over the nonzero entries of the pivot row."""
        if self.rows != self.cols:
            raise LinalgError("det of non-square matrix")
        z = self.field.zero()
        n = self.rows
        m = [list(row) for row in self.data]
        one = self.field.one()
        det = one
        for c in range(n):
            sel = None
            for i in range(c, n):
                if m[i][c]:
                    sel = i
                    break
            if sel is None:
                return z
            if sel != c:
                m[c], m[sel] = m[sel], m[c]
                det = -det
            det = det * m[c][c]
            inv = self.field.inv(m[c][c])
            nz = [(j, b) for j, b in enumerate(m[c]) if b]
            for i in range(c + 1, n):
                row = m[i]
                if row[c]:
                    f = row[c] * inv
                    for j, b in nz:
                        row[j] = row[j] - f * b
        return det


def _kernel_basis(field, cols, rows, pivots):
    """The kernel basis read off the rows of an rref with the given pivot
    columns: for each free column fc in order, the vector with 1 at fc,
    minus the entry of row r at fc at the pivot column of row r, and 0
    elsewhere."""
    z, o = field.zero(), field.one()
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [z] * cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            b = rows[r][fc]
            if b:
                v[pc] = -b
        basis.append(v)
    return basis


def span_basis(field, vectors, ambient_dim):
    """Deterministic basis of the span of the given vectors in k^ambient_dim.

    The basis is the nonzero rows of the rref of the stacked vectors, so it
    only depends on the span and the input order.
    """
    for v in vectors:
        if len(v) != ambient_dim:
            raise LinalgError("generator has wrong length")
    if not vectors:
        return []
    m = Matrix(field, vectors, cols=ambient_dim)
    rank, rref, _ = m.rank_and_rref()
    return [rref.row(i) for i in range(rank)]


class EchelonBasis:
    """A subspace of k^n that grows one vector at a time.

    ``vectors`` is a basis in echelon form: each vector has entry 1 at its
    pivot and 0 at the pivots of the vectors stored before it, so reducing a
    vector against them in order leaves it zero exactly when it lies in the
    span.  Each reduction step touches the nonzero entries of one vector.
    """

    __slots__ = ("field", "vectors", "_rows")

    def __init__(self, field, vectors=()):
        self.field = field
        self.vectors = []
        self._rows = []     # (pivot, nonzero (index, entry) pairs) per vector
        for v in vectors:
            self.add(v)

    @staticmethod
    def echelon_at(field, vectors, pivots):
        """The basis ``vectors``, stored as given: vector k is 1 at pivots[k]
        and 0 at the other pivots, as the rows of an rref are at their pivot
        columns and a kernel basis is at its free columns.  So the
        coordinates of a vector in it are its entries at the pivots."""
        out = EchelonBasis(field)
        out.vectors = list(vectors)
        out._rows = [(p, [(j, x) for j, x in enumerate(v) if x]) for p, v in zip(pivots, vectors)]
        return out

    def __len__(self):
        return len(self.vectors)

    def reduce(self, vec):
        """vec minus the combination of the stored vectors that clears
        their pivots, as a fresh list, and the coefficients of that
        combination."""
        out, coords = list(vec), []
        for p, nz in self._rows:
            c = out[p]
            coords.append(c)
            if c:
                for j, b in nz:
                    out[j] = out[j] - c * b
        return out, coords

    def contains(self, vec):
        return not any(self.reduce(vec)[0])

    def free(self, n):
        """The positions k < n at which no stored vector has its pivot, in
        order: for a basis built by ``add`` or from rref rows, the rref's
        non-pivot columns.  The ``reduce`` residue of a vector is zero at
        the pivots, so read at these positions it is the vector's class
        modulo the span, the same for every echelon basis of the span."""
        pivots = {p for p, _ in self._rows}
        return [k for k in range(n) if k not in pivots]

    def coordinates(self, vec):
        """The coefficients of vec in the stored vectors, or None when vec
        lies outside their span: the exact residual left after subtracting
        them must be zero."""
        out, coords = self.reduce(vec)
        return None if any(out) else coords

    def add(self, vec):
        """Store vec when it lies outside the span.  Returns the stored
        vector (vec reduced and scaled to pivot 1), or None when vec was
        already in the span."""
        out = self.reduce(vec)[0]
        pivot = next((j for j, x in enumerate(out) if x), None)
        if pivot is None:
            return None
        pv = out[pivot]
        if pv != self.field.one():
            inv = self.field.inv(pv)
            out = [inv * x if x else x for x in out]
        self.vectors.append(out)
        self._rows.append((pivot, [(j, x) for j, x in enumerate(out) if x]))
        return out


def reversed_span(field, vectors, n):
    """The span S of vectors in k^n, stored back to front as an EchelonBasis,
    and the positions k < n at which no vector of S ends: those where e_k is
    outside the span of S and e_0 .. e_{k-1}, the columns an elimination of
    [vectors | identity] picks past the vectors.  A vector reduced back to
    front against S is zero elsewhere; there it holds its class mod S."""
    span = EchelonBasis(field, [v[::-1] for v in vectors])
    return span, [n - 1 - q for q in reversed(span.free(n))]
