"""Exact tensor algebra on a 3-dimensional space V.

Tensors are coordinate lists in the fixed basis e1, e2, e3: a vector has 3
entries, a degree-2 tensor 9, a degree-3 tensor 27.  The index layout is
lexicographic: e_i (x) e_j sits at position 3*(i-1) + (j-1) and
e_i (x) e_j (x) e_k at 9*(i-1) + 3*(j-1) + (k-1).  Operators on the tensor
powers are square :class:`~hecke3.linalg.Matrix` objects acting on coordinate
columns.

The wedge follows x ^ y = xy - yx, and ``vol`` is the alternating trilinear volume form
pinned by vol(e1, e2, e3) = 1 (the coordinate determinant).  The convention
x ^ y ^ z = xyz + yzx + zxy - zyx - xzy - yxz defines only e1 ^ e2 ^ e3, whose
e_i (x) e_j (x) e_k coordinate is vol(e_i, e_j, e_k).  That tensor, the Alt2 pairs and basis
and the pairing rows 5, 6 and 1 are defined here and nowhere else.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionMismatch
from .linalg import Matrix, field_scalars, reduce_mod

__all__ = [
    "idx2",
    "idx3",
    "std_basis",
    "tensor2",
    "wedge2",
    "vol",
    "pair_vt",
    "pairing_coordinates",
    "bivector",
    "is_alt2",
    "is_alt3",
    "unit_tensors",
    "alt2_basis",
    "slot_action",
    "slot_product",
    "unpack",
    "vanishes_mod",
    "lift_left",
    "lift_right",
    "cyclic_shift",
    "random_invertible",
    "change_of_basis",
]

def idx2(i: int, j: int) -> int:
    """Position of e_i (x) e_j, 0-based indices."""
    return 3 * i + j


def idx3(i: int, j: int, k: int) -> int:
    """Position of e_i (x) e_j (x) e_k, 0-based indices."""
    return 9 * i + 3 * j + k


def std_basis(field):
    return [field_scalars(field, e) for e in unit_tensors(1)]


def _check_len(t, n, what):
    if len(t) != n:
        raise DimensionMismatch(f"{what} must have {n} coordinates, got {len(t)}")


def _checked_operator(m: Matrix, k: int) -> Matrix:
    """m itself, once it is a degree-k operator, n x n for n = 3^k: the one shape rule."""
    if m.nrows != (n := 3 ** k) or m.ncols != n:
        raise DimensionMismatch(f"a degree-{k} operator must be {n}x{n}, got {m.nrows}x{m.ncols}")
    return m


def tensor2(x, y):
    """Plain tensor product x (x) y of two vectors."""
    return [xi * yj for xi in x for yj in y]


def wedge2(x, y):
    """x ^ y = x(x)y - y(x)x."""
    _check_len(x, 3, "vector")
    _check_len(y, 3, "vector")
    return [xi * yj - yi * xj for xi, yi in zip(x, y) for xj, yj in zip(x, y)]


def is_alt2(t) -> bool:
    """t_ii = 0 and t_ij = -t_ji: idx2 positions 0, 4, 8, and pairs (1, 3), (2, 6), (5, 7)."""
    _check_len(t, 9, "degree-2 tensor")
    return t[0] == t[4] == t[8] == 0 and t[1] == -t[3] and t[2] == -t[6] and t[5] == -t[7]


def non_alternating_columns(op: Matrix):
    """Indices of the columns of a 9x9 operator outside Alt2, read on its integer coordinates."""
    n = reduce_mod(_checked_operator(op, 2).integers()[0], op.field.characteristic)
    return [c for c in range(9) if not is_alt2(n[c::9])]


def cyclic_shift(w):
    """Coordinate action of x(x)y(x)z |-> y(x)z(x)x."""
    _check_len(w, 27, "degree-3 tensor")
    return [w[c] for c in _SHIFT]


def vol(x, y, z):
    """The alternating trilinear form with vol(e1,e2,e3) = 1: the determinant pair_vt(x, y ^ z)."""
    _check_len(x, 3, "vector")
    return pair_vt(x, wedge2(y, z))


def unit_tensors(degree: int):
    """The 3**degree basis tensors in integer coordinates, which every field accepts."""
    return [[int(i == j) for j in range(3 ** degree)] for i in range(3 ** degree)]


def pair_vt(x, t):
    """Coefficient of x ^ t against e1^e2^e3, for a t the caller guarantees alternating.

    Reads the three independent coordinates of t straight off: the pairing
    is x_1 t_23 + x_2 t_31 + x_3 t_12, so pair_vt(x, y ^ z) = vol(x, y, z).
    """
    return x[0] * t[5] + x[1] * t[6] + x[2] * t[1]


# e1^e2^e3, vol(e_i, e_j, e_k) at idx3(i, j, k): every alternating 3-tensor is a multiple of it
_ALT3_UNIT = [vol(*triple) for triple in product(unit_tensors(1), repeat=3)]
# the (j, k) of the Alt2 basis e_j ^ e_k: j < k, in product order
_ALT2_PAIRS = ((0, 1), (0, 2), (1, 2))
_SHIFT = [idx3(k, i, j) for i, j, k in product(range(3), repeat=3)]  # cyclic_shift's sources
# braid_table's positions (i,j,k), (i,k,j) of V (x) Alt2, then (j,k,i), (k,j,i) of Alt2 (x) V
_ANTISYM = ([(idx3(i, j, k), idx3(i, k, j)) for i in range(3) for j, k in _ALT2_PAIRS],
            [(idx3(j, k, i), idx3(k, j, i)) for i in range(3) for j, k in _ALT2_PAIRS])


def is_alt3(w) -> bool:
    """w = c e1^e2^e3, with c the e1 (x) e2 (x) e3 coordinate of w."""
    _check_len(w, 27, "degree-3 tensor")
    c = w[idx3(0, 1, 2)]
    return list(w) == [c * s for s in _ALT3_UNIT]


def pairing_coordinates(ys):
    """l[i][j][k] = pair_vt(e_i, Y(e_j e_k)), read off rows 5, 6 and 1 of Y given row-major.

    Those rows hold the t23, t31 and t12 coordinates of each column, so the
    reading is exact only when every column of Y is alternating.  The entries
    may be field scalars or the integer coordinates of Y.
    """
    return [[ys[9 * r + 3 * j:9 * r + 3 * j + 3] for j in range(3)] for r in (5, 6, 1)]


def bivector(s):
    """The bivector u = s0 e2^e3 + s1 e3^e1 + s2 e1^e2, inverse to pairing: pair_vt(e_k, u) = s[k].

    Its coordinates are u[idx2(j, k)] = vol(s, e_j, e_k); the three zeros are the int 0.
    """
    return [0, s[2], -s[1], -s[2], 0, s[0], s[1], -s[0], 0]


def alt2_basis():
    """Basis e1^e2, e1^e3, e2^e3 of the alternating square, in integer coordinates."""
    e = unit_tensors(1)
    return [wedge2(e[j], e[k]) for j, k in _ALT2_PAIRS]


_ALT2 = alt2_basis()  # e_j ^ e_k for (j, k) in _ALT2_PAIRS, built from no input


def slot_action(op2: Matrix, s: int, t: int):
    """The 9x9 operator op2 = N / d on slots (s, t) of degree-3 tensors, as (moves, d, m).

    moves[b] lists the (position, coefficient) pairs of N applied to basis tensor b, N read
    from :meth:`~hecke3.linalg.Matrix.integers` as residues nearest zero over F_p; m is the
    largest |coefficient|.  Slot s takes the first tensor factor, slot t the second: (0, 1) is
    Y (x) Id, (1, 2) is Id (x) Y, (0, 2) the outer slots.  The shape check of every degree-3
    action.  One scan lists the moves of N e_c for each column c; basis tensor b reads those of
    its column (digits s and t), shifted by the weight of its slot u left alone.
    """
    (n, d), weight, u = _checked_operator(op2, 2).integers(), (9, 3, 1), 3 - s - t
    n = reduce_mod(n, op2.field.characteristic)
    offsets = [weight[s] * (r // 3) + weight[t] * (r % 3) for r in range(9)]
    cols = [[(o, x) for o, x in zip(offsets, n[c::9]) if x] for c in range(9)]  # N e_c
    moves = [[(weight[u] * digit[u] + o, x) for o, x in cols[3 * digit[s] + digit[t]]]
             for digit in product(range(3), repeat=3)]
    return moves, d, max(map(abs, n))


def slot_product(factors, w, cols=None):
    """The packed ``cols`` (default: the identity's 27 columns) times the move tables ``factors``.

    Column c_0..c_26 is the int sum c_k 2^(w k), exact to unpack while every |c_k| < 2^(w-1).
    Six 2-fold products (the CYBE commutators) of <= 9 moves of |coefficient| <= m per column
    need w = 2 bitlen(9m) + 4.  An entry of a braid side of M = a d Id - b N sums 27 products of
    3 N moves, 15 of 2, 3 of 1 and 1 of none: with s = |a| d + 3 b m, w = 3 bitlen(s) + 2.
    """
    cols = cols or [1 << (w * b) for b in range(27)]
    for moves in factors:  # right multiplication combines whole columns
        prev, cols = cols, [0] * 27
        for b, mv in enumerate(moves):
            for o, x in mv:
                cols[b] += x * prev[o]
    return cols


def unpack(columns, w, p):
    """The 27 coordinates of each packed column of width w, reduced mod p (p = 0: exact): a lane
    of v + 2^(w-1) ones (ones = sum_k 2^(w k)) is its coordinate plus 2^(w-1), in [0, 2^w)."""
    mask, half, lift = (1 << w) - 1, 1 << (w - 1), ((1 << 27 * w) - 1) // ((1 << w) - 1) << (w - 1)
    return [reduce_mod([(u >> s & mask) - half for s in range(0, 27 * w, w)], p)
            for u in (v + lift for v in columns)]


def vanishes_mod(columns, w, p):
    """Whether every coordinate of each packed column of width w is 0 mod p (p = 0: v == 0).
    One division decides v = sum c_k X^k (X = 2^w, |c_k| < X/2): for ones = sum X^k, t = (X/2 - 1)
    // p, high = (X/2) ones and z = v/p + t ones, all c_k are 0 mod p iff p | v and (z | z + (X/2 -
    2t - 1) ones) & high == 0.  If all c_k = p u_k, then |u_k| <= t, z has the digits u_k + t in [0,
    2t], and adding X/2 - 2t - 1 sets no bit w-1.  Conversely, |v/p|, t ones < X^27/4, so -X^27/4 <
    z < X^27: a negative z fails z & high at its top digit (& reads two's complement); z & high == 0
    keeps each digit below X/2, the addition carries nothing, and each z_k <= 2t.  So v = sum p (z_k
    - t) X^k, |p (z_k - t)| <= p t < X/2: balanced base-X digits are unique: c_k = p (z_k - t)."""
    if not p:
        return [not v for v in columns]
    ones, t = ((1 << 27 * w) - 1) // ((1 << w) - 1), ((1 << (w - 1)) - 1) // p
    high, lo, hi = ones << (w - 1), t * ones, ((1 << (w - 1)) - t - 1) * ones
    return [not r and not (u + lo | u + hi) & high for u, r in (divmod(v, p) for v in columns)]


def lift_left(op2: Matrix) -> Matrix:
    """The operator Y (x) Id acting on the third tensor power."""
    return op2.kron(Matrix.identity(op2.field, 3))


def lift_right(op2: Matrix) -> Matrix:
    """The operator Id (x) Y acting on the third tensor power."""
    return Matrix.identity(op2.field, 3).kron(op2)


def random_invertible(field, rng) -> Matrix:
    """Random invertible 3x3 matrix with integer entries in [-3, 3]."""
    while True:
        n = [rng.randint(-3, 3) for _ in range(9)]  # det = vol of the rows, not 0 in the field
        if reduce_mod([vol(n[:3], n[3:6], n[6:])], field.characteristic)[0]:
            return Matrix.of_integers(field, 3, 3, n)


def change_of_basis(op: Matrix, P: Matrix) -> Matrix:
    """A degree-2 operator transported along an invertible P: (P (x) P) op (P (x) P)^-1."""
    Pinv = P.inverse()
    return P.kron(P) * op * Pinv.kron(Pinv)
