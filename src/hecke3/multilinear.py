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
e_i (x) e_j (x) e_k coordinate is vol(e_i, e_j, e_k).  That tensor, the Alt2 pair order
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


def tensor2(x, y):
    """Plain tensor product x (x) y of two vectors."""
    return [xi * yj for xi in x for yj in y]


def wedge2(x, y):
    """x ^ y = x(x)y - y(x)x."""
    return [xi * yj - yi * xj for xi, yi in zip(x, y) for xj, yj in zip(x, y)]


def is_alt2(t) -> bool:
    _check_len(t, 9, "degree-2 tensor")
    for i in range(3):
        if t[idx2(i, i)] != 0:
            return False
        for j in range(i + 1, 3):
            if t[idx2(i, j)] != -t[idx2(j, i)]:
                return False
    return True


def non_alternating_columns(op: Matrix):
    """Indices of the columns of a 9x9 operator outside Alt2, read on its integer coordinates."""
    n = reduce_mod(op.integers()[0], op.field.characteristic)
    return [c for c in range(9) if not is_alt2(n[c::9])]


def cyclic_shift(w):
    """Coordinate action of x(x)y(x)z |-> y(x)z(x)x."""
    _check_len(w, 27, "degree-3 tensor")
    return [w[idx3(k, i, j)] for i in range(3) for j in range(3) for k in range(3)]


def vol(x, y, z):
    """The alternating trilinear form with vol(e1,e2,e3) = 1 (a determinant)."""
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )


def unit_tensors(degree: int):
    """The 3**degree basis tensors in integer coordinates, which every field accepts."""
    return [[int(i == j) for j in range(3 ** degree)] for i in range(3 ** degree)]


# e1^e2^e3, vol(e_i, e_j, e_k) at idx3(i, j, k): every alternating 3-tensor is a multiple of it
_ALT3_UNIT = [vol(*triple) for triple in product(unit_tensors(1), repeat=3)]
# the (j, k) of the Alt2 basis e_j ^ e_k: j < k, in product order
_ALT2_PAIRS = ((0, 1), (0, 2), (1, 2))


def is_alt3(w) -> bool:
    """w = c e1^e2^e3, with c the e1 (x) e2 (x) e3 coordinate of w."""
    _check_len(w, 27, "degree-3 tensor")
    c = w[idx3(0, 1, 2)]
    return all(x == c * s if s else x == 0 for x, s in zip(w, _ALT3_UNIT))


def pair_vt(x, t):
    """Coefficient of x ^ t against e1^e2^e3, for an alternating t.

    Reads the three independent coordinates of t straight off: the pairing
    is x_1 t_23 + x_2 t_31 + x_3 t_12, so pair_vt(x, y ^ z) = vol(x, y, z).
    The caller guarantees t alternating.
    """
    return x[0] * t[5] + x[1] * t[6] + x[2] * t[1]


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


def slot_action(op2: Matrix, s: int, t: int):
    """The 9x9 operator op2 = N / d on slots (s, t) of degree-3 tensors, as (moves, d, m).

    moves[b] lists the (position, coefficient) pairs of N applied to basis tensor b, N read
    from :meth:`~hecke3.linalg.Matrix.integers` as residues nearest zero over F_p; m is the
    largest |coefficient|.  Slot s takes the first tensor factor, slot t the second: (0, 1) is
    Y (x) Id, (1, 2) is Id (x) Y, (0, 2) the outer slots.  The one shape check of degree 3.
    One scan lists the moves of N e_c for each column c; basis tensor b reads those of its
    column (digits s and t), shifted by the weight of its slot u left alone.
    """
    if op2.nrows != 9 or op2.ncols != 9:
        raise DimensionMismatch(f"a degree-2 operator must be 9x9, got {op2.nrows}x{op2.ncols}")
    (n, d), weight, u = op2.integers(), (9, 3, 1), 3 - s - t  # u: the slot left alone
    n = reduce_mod(n, op2.field.characteristic)
    offsets = [weight[s] * (r // 3) + weight[t] * (r % 3) for r in range(9)]
    cols = [[(o, x) for o, x in zip(offsets, n[c::9]) if x] for c in range(9)]  # N e_c
    moves = [[(weight[u] * digit[u] + o, x) for o, x in cols[3 * digit[s] + digit[t]]]
             for digit in product(range(3), repeat=3)]
    return moves, d, max(map(abs, n))


def slot_product(factors, w):
    """The 27 columns of the product of the move tables ``factors``, leftmost first, packed.

    Column c_0..c_26 is the int sum c_k 2^(w k), exact to unpack while every |c_k| < 2^(w-1).
    With at most 9 moves of |coefficient| <= m per column, a k-fold product has |c_k| <= (9m)^k
    and a difference of two 2 (9m)^k, so w = k bitlen(9m) + 2; a sum of six 2-fold products
    (the CYBE commutators) needs w = 2 bitlen(9m) + 4.
    """
    cols = [1 << (w * b) for b in range(27)]
    for moves in factors:  # right multiplication combines whole columns
        prev, cols = cols, [0] * 27
        for b, mv in enumerate(moves):
            for o, x in mv:
                cols[b] += x * prev[o]
    return cols


def _lanes(v, w):
    """The 27 coordinates of the packed column v of width w, each plus 2^(w-1): in [0, 2^w)."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    v += half * ((1 << 27 * w) - 1) // mask
    return [(v >> s) & mask for s in range(0, 27 * w, w)]


def unpack(v, w, p):
    """The 27 coordinates of the packed column v of width w, reduced mod p (p = 0: exact)."""
    half = 1 << (w - 1)
    return reduce_mod([x - half for x in _lanes(v, w)], p)


def vanishes_mod(v, w, p):
    """Whether every coordinate of the packed column v of width w is 0 mod p, for p > 0: each
    lane is its coordinate plus 2^(w-1), so every lane must be 2^(w-1) mod p."""
    h = (1 << (w - 1)) % p
    return all(x % p == h for x in _lanes(v, w))


def lift_left(op2: Matrix) -> Matrix:
    """The operator Y (x) Id acting on the third tensor power."""
    return op2.kron(Matrix.identity(op2.field, 3))


def lift_right(op2: Matrix) -> Matrix:
    """The operator Id (x) Y acting on the third tensor power."""
    return Matrix.identity(op2.field, 3).kron(op2)


def random_invertible(field, rng) -> Matrix:
    """Random invertible 3x3 matrix with integer entries in [-3, 3]."""
    while True:
        m = Matrix.of_integers(field, 3, 3, [rng.randint(-3, 3) for _ in range(9)])
        if m.det() != 0:
            return m


def change_of_basis(op: Matrix, P: Matrix) -> Matrix:
    """A degree-2 operator transported along an invertible P: (P (x) P) op (P (x) P)^-1."""
    Pinv = P.inverse()
    return P.kron(P) * op * Pinv.kron(Pinv)
