"""Dense exact linear algebra over the scalar types.

Everything here works entrywise with exact field elements; no floats are
produced anywhere.  Echelon forms are fully reduced with leading coefficients
normalized to 1, so bases of row spaces and kernels are canonical and can be
compared bit-exactly.
"""

from __future__ import annotations

from math import lcm

from .errors import DimensionMismatch, SingularMatrix

__all__ = ["Matrix", "echelon_span", "span_coords", "integer_coordinates", "reduce_mod"]


class Matrix:
    """An exact matrix over a fixed field.

    ``rows`` is a list of row lists.  The constructor trusts its input; use
    :meth:`from_rows` to coerce entries (ints, strings, fractions) through
    the field.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = rows

    @classmethod
    def from_rows(cls, field, rows):
        data = [[field.of(x) for x in row] for row in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        return cls(field, data)

    @classmethod
    def from_columns(cls, field, cols):
        """The matrix with the given coordinate columns (entries trusted)."""
        return cls(field, [list(row) for row in zip(*cols)])

    @classmethod
    def zeros(cls, field, n):
        z = field.zero()
        return cls(field, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.rows])

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, [[c * a for a in row] for row in self.rows])

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}"
            )
        z = self.field.zero()
        out = [[z] * other.ncols for _ in range(self.nrows)]
        brows = other.rows
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik == 0:
                    continue
                # skip zero entries: tensor lifts are sparse
                for j, bkj in enumerate(brows[k]):
                    if bkj != 0:
                        orow[j] = orow[j] + aik * bkj
        return Matrix(self.field, out)

    def apply(self, vec):
        """Matrix times coordinate column, as a plain list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector of length {len(vec)} vs {self.ncols} columns")
        z = self.field.zero()
        out = []
        for row in self.rows:
            acc = z
            for a, x in zip(row, vec):
                if a != 0 and x != 0:
                    acc = acc + a * x
            out.append(acc)
        return out

    def col(self, j):
        return [row[j] for row in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.rows)

    def kron(self, other) -> "Matrix":
        """Kronecker product, row-major composite indices."""
        z = self.field.zero()
        n2, m2 = other.nrows, other.ncols
        out = [
            [z] * (self.ncols * m2) for _ in range(self.nrows * n2)
        ]
        for i, arow in enumerate(self.rows):
            for j, a in enumerate(arow):
                if a == 0:
                    continue
                for k, brow in enumerate(other.rows):
                    orow = out[i * n2 + k]
                    base = j * m2
                    for l, b in enumerate(brow):
                        if b != 0:
                            orow[base + l] = a * b
        return Matrix(self.field, out)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def rref(self):
        """Reduced row echelon form and pivot column tuple."""
        m = [row[:] for row in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return Matrix(self.field, m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Canonical basis of the right kernel, one vector per free column."""
        red, pivots = self.rref()
        nc = self.ncols
        z, o = self.field.zero(), self.field.one()
        pivset = set(pivots)
        basis = []
        for f in range(nc):
            if f in pivset:
                continue
            v = [z] * nc
            v[f] = o
            for r_i, c_i in enumerate(pivots):
                v[c_i] = -red.rows[r_i][f]
            basis.append(v)
        return basis

    def row_space_basis(self):
        """Nonzero rows of the reduced echelon form."""
        red, pivots = self.rref()
        return [red.rows[i][:] for i in range(len(pivots))]

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        m = [row[:] for row in self.rows]
        n = self.nrows
        result = self.field.one()
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                return self.field.zero()
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                result = -result
            pv = m[c][c]
            result = result * pv
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] / pv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return result

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field, [row[:] + irow[:] for row, irow in zip(self.rows, ident.rows)])
        red, pivots = aug.rref()
        if len(pivots) < n or pivots[:n] != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix(self.field, [row[n:] for row in red.rows])

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"


def echelon_span(field, vectors):
    """Canonical (RREF) basis of the span of the given coordinate vectors."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    return Matrix.from_rows(field, vecs).row_space_basis()


def span_coords(ech_rows, v):
    """Coordinates of v in the span given by echelonized rows, or None outside it."""
    coords = []
    for row in ech_rows:
        lead = next(i for i, x in enumerate(row) if x != 0)
        f = v[lead] / row[lead]
        coords.append(f)
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return coords if all(x == 0 for x in v) else None


def integer_coordinates(field, xs):
    """Integers n and a scale d > 0 with xs = n / d: d = 1 over F_p, lcm of denominators over Q."""
    if field.characteristic:
        return [x.v for x in xs], 1
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def reduce_mod(ns, p):
    """ns mod p as the residues nearest zero, which negation preserves; ns itself for p = 0 (Q)."""
    h = p // 2
    return [(n + h) % p - h for n in ns] if p else ns
