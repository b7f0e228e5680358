"""Dense exact linear algebra over the scalar types.

Matrices hold exact field elements, but products and elimination run on
Python ints: each operand is converted once to integer coordinates N / d
(:func:`integer_coordinates`), and one field scalar is formed per nonzero
result entry (:func:`field_scalars`).  No floats are produced anywhere.
Echelon forms are fully reduced with leading coefficients normalized to 1,
so bases of row spaces are canonical and can be compared bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatch, SingularMatrix
from .fields import Fp

__all__ = ["Matrix", "echelon_span", "integer_coordinates", "field_scalars", "reduce_mod"]


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
        fld, n, k, m = self.field, self.nrows, self.ncols, other.ncols
        (a, da), (b, db) = self.integers(), other.integers()
        rows, cols = [a[i * k:(i + 1) * k] for i in range(n)], [b[j::m] for j in range(m)]
        out = field_scalars(fld, [sum(map(mul, r, c)) for r in rows for c in cols], da * db)
        return Matrix(fld, [out[i * m:(i + 1) * m] for i in range(n)])

    def apply(self, vec):
        """Matrix times coordinate column, as a plain list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector of length {len(vec)} vs {self.ncols} columns")
        fld, k = self.field, self.ncols
        (a, da), (x, dx) = self.integers(), integer_coordinates(fld, vec)
        rows = (a[i * k:(i + 1) * k] for i in range(self.nrows))
        return field_scalars(fld, [sum(map(mul, r, x)) for r in rows], da * dx)

    def integers(self):
        """Integer coordinates (N, d) of the entries read row-major: self = N / d."""
        return integer_coordinates(self.field, [x for row in self.rows for x in row])

    def col(self, j):
        return [row[j] for row in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.rows)

    def kron(self, other) -> "Matrix":
        """Kronecker product, row-major composite indices."""
        return Matrix(self.field, [[a * b for a in ra for b in rb]
                                   for ra in self.rows for rb in other.rows])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def _eliminate(self):
        """One Gauss-Jordan elimination on integer rows: (rows, pivots, den, (det, scale)).

        The RREF is rows / den; a square matrix of full rank has determinant
        det / scale.  Over Q, on rows scaled to integers, it is fraction-free
        (Bareiss): each step divides exactly by the previous pivot, so every
        pivot ends equal to the last one, den.  Over F_p it runs on residues.
        """
        fld, p = self.field, self.field.characteristic
        m, scale = [], 1
        for row in self.rows:
            n, d = integer_coordinates(fld, row)
            m.append(n)
            scale *= d
        pivots, den, det = [], 1, 1
        for c in range(self.ncols):
            r = len(pivots)
            pr = next((i for i in range(r, len(m)) if m[i][c]), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                det = -det
            pv = m[r][c]
            if p:
                inv = pow(pv, -1, p)
                m[r] = top = [x * inv % p for x in m[r]]
                det = det * pv % p
                m = [row if i == r or not row[c] else
                     [(x - row[c] * y) % p for x, y in zip(row, top)] for i, row in enumerate(m)]
            else:
                top = m[r]
                m = [row if i == r or not any(row) else
                     [(pv * x - row[c] * y) // den for x, y in zip(row, top)]
                     for i, row in enumerate(m)]
                den = pv
            pivots.append(c)
            if len(pivots) == len(m):
                break
        return m, tuple(pivots), den, (det if p else det * den, scale)

    def rref(self):
        """Reduced row echelon form and pivot column tuple."""
        rows, pivots, den, _ = self._eliminate()
        out = field_scalars(self.field, [x for row in rows for x in row], den)
        k = self.ncols
        return Matrix(self.field, [out[i * k:(i + 1) * k] for i in range(len(rows))]), pivots

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        _, pivots, _, (det, scale) = self._eliminate()
        return field_scalars(self.field, [det if len(pivots) == self.nrows else 0], scale)[0]

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
    red, pivots = Matrix.from_rows(field, vectors).rref()
    return red.rows[:len(pivots)]


def integer_coordinates(field, xs):
    """Integers n and a scale d > 0 with xs = n / d: d = 1 over F_p, lcm of denominators over Q."""
    if field.characteristic:
        try:
            return [x.v for x in xs], 1
        except AttributeError:  # plain ints, which embed in every field
            return [field.of(x).v for x in xs], 1
    dens = [x.denominator for x in xs]
    d = lcm(*dens)
    return [x.numerator * (d // e) for x, e in zip(xs, dens)], d


def field_scalars(field, ns, d=1):
    """The field scalars n / d of integers ns, every 0 one shared zero (d is 1 over F_p)."""
    z, p = field.zero(), field.characteristic
    if p:
        return [Fp(r, p) if (r := n % p) else z for n in ns]
    return [Fraction(n, d) if n else z for n in ns]


def reduce_mod(ns, p):
    """ns mod p as the residues nearest zero, which negation preserves; ns itself for p = 0 (Q)."""
    h = p // 2
    return [(n + h) % p - h for n in ns] if p else ns
