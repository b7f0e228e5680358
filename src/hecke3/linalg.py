"""Dense exact linear algebra over the scalar types.

A matrix is stored as its integer coordinates: row-major Python ints N and
one scale d > 0 with the matrix equal to N / d.  Over Q the pair is reduced
(gcd(d, *N) = 1), over F_p N holds residues and d = 1, so equal matrices have
equal pairs.  Arithmetic, products and elimination run on N; field scalars
are formed only where a caller reads entries (``rows``, ``col``, ``apply``,
``det``).  No floats are produced anywhere.  Echelon forms are fully reduced
with leading coefficients normalized to 1, so bases of row spaces are
canonical and can be compared bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, FieldMismatch, SingularMatrix
from .fields import Fp

__all__ = ["Matrix", "integer_coordinates", "field_scalars", "reduce_mod"]


class Matrix:
    """An exact matrix over a fixed field, held as row-major integers N over a scale d.

    ``Matrix(field, rows)`` and :meth:`from_rows` convert entries once, by
    :func:`integer_coordinates`; integer data enters through :meth:`of_integers`, which takes
    it as it is.  ``rows`` forms fresh lists of field scalars on each read.
    """

    __slots__ = ("field", "nrows", "ncols", "N", "d")

    def __init__(self, field, rows):
        nrows, ncols = len(rows), len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        self.field, self.nrows, self.ncols = field, nrows, ncols
        self.N, self.d = integer_coordinates(field, [x for row in rows for x in row])

    @classmethod
    def of_integers(cls, field, nrows, ncols, N, d=1) -> "Matrix":
        """The nrows x ncols matrix N / d of row-major integers N: d > 0 over Q, a unit over F_p."""
        if len(N) != nrows * ncols:
            raise DimensionMismatch(f"a {nrows}x{ncols} matrix from {len(N)} entries")
        p, m = field.characteristic, cls.__new__(cls)
        if p:  # a scale d != 1 is folded into the residues
            inv = pow(d, -1, p)
            N, d = [x % p for x in N] if inv == 1 else [x * inv % p for x in N], 1
        elif (g := gcd(d, *N)) != 1:
            N, d = [x // g for x in N], d // g
        m.field, m.nrows, m.ncols, m.N, m.d = field, nrows, ncols, N, d
        return m

    @classmethod
    def from_rows(cls, field, rows):
        return cls(field, rows)

    @classmethod
    def from_columns(cls, field, cols):
        """The matrix with the given coordinate columns; ragged columns raise DimensionMismatch."""
        return cls(field, cols).transpose()

    @classmethod
    def zeros(cls, field, n):
        return cls.of_integers(field, n, n, [0] * (n * n))

    @classmethod
    def identity(cls, field, n):
        return cls.of_integers(field, n, n, [int(c % (n + 1) == 0) for c in range(n * n)])

    @property
    def rows(self):
        """The entries as field scalars, in fresh row lists: writing into them changes nothing."""
        out, k = field_scalars(self.field, self.N, self.d), self.ncols
        return [out[i * k:(i + 1) * k] for i in range(self.nrows)]

    def integers(self):
        """The integer coordinates (N, d) of the entries read row-major: self = N / d."""
        return self.N, self.d

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.d == other.d and self.N == other.N)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.d, tuple(self.N)))

    def _combine(self, other, sign):
        """self + sign * other, over the product of the two scales."""
        self._same_field(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        (a, da), (b, db) = self.integers(), other.integers()
        return Matrix.of_integers(self.field, self.nrows, self.ncols,
                                  [x * db + sign * y * da for x, y in zip(a, b)], da * db)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Matrix.of_integers(self.field, self.nrows, self.ncols, [-x for x in self.N], self.d)

    def scale(self, c) -> "Matrix":
        (cn,), cd = integer_coordinates(self.field, [c])
        return Matrix.of_integers(self.field, self.nrows, self.ncols,
                                  [cn * x for x in self.N], cd * self.d)

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field.name} matrix mixed with {other.field.name} matrix")

    def _int_rows(self):
        k, n = self.ncols, self.N
        return [n[i * k:(i + 1) * k] for i in range(self.nrows)]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}"
            )
        m, b = other.ncols, other.N
        cols = [b[j::m] for j in range(m)]
        return Matrix.of_integers(self.field, self.nrows, m, [
            sum(map(mul, r, c)) for r in self._int_rows() for c in cols], self.d * other.d)

    def apply(self, vec):
        """Matrix times coordinate column, as a plain list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector of length {len(vec)} vs {self.ncols} columns")
        x, dx = integer_coordinates(self.field, vec)
        return field_scalars(self.field, [sum(map(mul, r, x)) for r in self._int_rows()],
                             self.d * dx)

    def col(self, j):
        if not 0 <= j < self.ncols:
            raise DimensionMismatch(f"no column {j} in a {self.nrows}x{self.ncols} matrix")
        return field_scalars(self.field, self.N[j::self.ncols], self.d)

    def transpose(self) -> "Matrix":
        k, n = self.ncols, self.N
        return Matrix.of_integers(self.field, k, self.nrows,
                                  [x for j in range(k) for x in n[j::k]], self.d)

    def kron(self, other) -> "Matrix":
        """Kronecker product, row-major composite indices."""
        self._same_field(other)
        brows = other._int_rows()
        return Matrix.of_integers(
            self.field, self.nrows * other.nrows, self.ncols * other.ncols,
            [x * y for ra in self._int_rows() for rb in brows for x in ra for y in rb],
            self.d * other.d)

    def is_zero(self) -> bool:
        return not any(self.N)

    def _eliminate(self):
        """One Gauss-Jordan elimination on the integer rows: (rows, pivots, den, (det, scale)).

        The RREF is rows / den; a square matrix of full rank has determinant
        det / scale.  Over Q it is fraction-free (Bareiss): each step divides
        exactly by the previous pivot, so every pivot ends equal to the last
        one, den, which may be negative.  Over F_p it runs on residues.
        """
        p, m = self.field.characteristic, self._int_rows()
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
        return m, tuple(pivots), den, (det if p else det * den, self.d ** self.nrows)

    def rref(self):
        """Reduced row echelon form and pivot column tuple."""
        rows, pivots, den, _ = self._eliminate()
        s = -1 if den < 0 else 1  # a negative last Bareiss pivot: the scale must be positive
        return Matrix.of_integers(self.field, self.nrows, self.ncols,
                                  [s * x for row in rows for x in row], s * den), pivots

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        _, pivots, _, (det, scale) = self._eliminate()
        return field_scalars(self.field, [det if len(pivots) == self.nrows else 0], scale)[0]

    def inverse(self) -> "Matrix":
        """The right half of the RREF of [self | Id]."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n, d = self.nrows, self.d
        aug = Matrix.of_integers(self.field, n, 2 * n, [x for i, row in enumerate(self._int_rows())
                                 for x in row + [d * (i == j) for j in range(n)]], d)
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix.of_integers(self.field, n, n,
                                  [x for row in red._int_rows() for x in row[n:]], red.d)

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"


def integer_coordinates(field, xs):
    """Integers n and a scale d > 0 with xs = n / d: d = 1 over F_p, lcm of denominators over Q.

    Over F_p every entry but an ``Fp`` (an int too) goes through ``field.of``; integer data
    enters through :meth:`Matrix.of_integers` instead, and leaves through :func:`field_scalars`.
    """
    try:
        if not (p := field.characteristic):
            dens = [x.denominator for x in xs]
            d = lcm(*dens)
            return [x.numerator * (d // e) for x, e in zip(xs, dens)], d
        if len(ns := [x.v for x in xs if x.p == p]) == len(xs):
            return ns, 1
    except AttributeError:  # text, floats, and ints over F_p
        pass
    return integer_coordinates(field, [field.of(x) for x in xs])


def field_scalars(field, ns, d=1):
    """The field scalars n / d of integers ns (n d^-1 mod p over F_p), 0 as one shared zero."""
    z, p = field.zero(), field.characteristic
    if p:
        inv = pow(d, -1, p)
        return [Fp(r, p) if (r := n * inv % p) else z for n in ns]
    return [Fraction(n, d) if n else z for n in ns]


def reduce_mod(ns, p):
    """ns mod p as the residues nearest zero, which negation preserves; ns itself for p = 0 (Q)."""
    h = p // 2
    return [(n + h) % p - h for n in ns] if p else ns
