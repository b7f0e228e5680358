"""Exact checks of every identity a Hecke symmetry must satisfy.

Each check returns a :class:`CheckReport`; a failing report carries a witness
(the first offending basis tensor or index tuple, with both side values).
There are no tolerances anywhere: a check passes iff the identity holds
bit-exactly.  Witness indices are printed 1-based to match the e1, e2, e3
naming.  Every check reduces each side mod p once and compares integer sides in one of two
shapes: flat (:func:`_first_witness`), or packed (:func:`packed_witness`, :func:`braid_table`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, InputError, InvalidConstraint, NoHeckeParameter, NotHeckeSym0
from .jsonio import vector_to_json
from .linalg import Matrix, field_scalars, integer_coordinates, reduce_mod
from .multilinear import (
    _ALT2,
    _ALT2_PAIRS,
    _ALT3_UNIT,
    _ANTISYM,
    _checked_operator,
    bivector,
    idx2,
    idx3,
    cyclic_shift,
    non_alternating_columns,
    pair_vt,
    pairing_coordinates,
    random_invertible,
    slot_action,
    slot_product,
    tensor2,
    unit_tensors,
    unpack,
    vanishes_mod,
    wedge2,
)
from .heckecore import (
    _admissible_q,
    _alt2_eigen_sides,
    FOperator,
    HeckeData,
    HeckeSymmetry,
    build_R,
    build_Y_from_F,
    conjugate_data,
    extract_F,
    extract_q,
    hecke_residual,
    skewsymmetrizer_matrix,
    t_operator_of_F,
)
from .classify import Q_FAMILIES, TYPE_LABELS, canonical

__all__ = [
    "CheckReport",
    "column_witness",
    "packed_witness",
    "check_braid",
    "check_hecke",
    "check_image_and_eigen",
    "check_containments",
    "check_component_identity",
    "check_pairing_identities",
    "check_cyclic_shift_identity",
    "run_suite",
    "sample_strategy_a",
    "sample_strategy_b",
    "sample_adversarial",
    "fuzz",
]

# bound on one fuzz run's trials: the CLI takes the count from outside
MAX_FUZZ_TRIALS = 10_000


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact check; it failed iff it carries a witness."""

    name: str
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


def _basis_tensor(c: int, n: int):
    """1-based index tuple of column ``c`` of an n x n operator (n = 9 or 27)."""
    digits = [c // 9 + 1, c // 3 % 3 + 1, c % 3 + 1]
    return digits[1:] if n == 9 else digits


def _witness(field, input, lhs, rhs, scale=1, **head) -> dict:
    """The witness document; a side is text or integer coordinates, each n for n / scale."""

    def side(x):
        return [x] if isinstance(x, str) else vector_to_json(field, field_scalars(field, x, scale))

    return {**head, "input": input, "lhs": side(lhs), "rhs": side(rhs)}


def _first_witness(field, lhs, rhs, scale, input, size=1, **head) -> dict | None:
    """Witness at the first block of ``size`` coordinates where the integer sides differ mod p
    (each n for n / scale), or None; each side is reduced once, and ``input(block)`` is formed
    for the witness block only."""
    p = field.characteristic
    lhs, rhs = reduce_mod(lhs, p), reduce_mod(rhs, p)
    if lhs == rhs:
        return None
    c = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y) // size
    block = slice(c * size, (c + 1) * size)
    return _witness(field, input(c), lhs[block], rhs[block], scale, **head)


def column_witness(lhs: Matrix, rhs: Matrix) -> dict | None:
    """Witness at the first basis tensor where two 9x9 or 27x27 operators differ, or None.

    Equal operators have equal integer coordinates, so they are decided without a scan; others
    are compared column by column on integer coordinates, both sides over the product of the scales.
    """
    if (lhs.nrows, lhs.ncols) != (rhs.nrows, rhs.ncols):
        raise DimensionMismatch(f"{lhs.nrows}x{lhs.ncols} vs {rhs.nrows}x{rhs.ncols}")
    lhs._same_field(rhs)
    if lhs == rhs:
        return None
    (a, da), (b, db), n = lhs.integers(), rhs.integers(), lhs.ncols
    return _first_witness(lhs.field, [x * db for c in range(n) for x in a[c::n]],
                          [y * da for c in range(n) for y in b[c::n]], da * db,
                          lambda c: {"basis_tensor": _basis_tensor(c, n)}, n)


def packed_witness(field, lhs, rhs, w, scale, shared=()) -> dict | None:
    """:func:`column_witness` of packed columns of width w (c_k for c_k / scale), each side plus
    sum k col[c] over (k, col) in ``shared``: one :func:`~hecke3.multilinear.vanishes_mod` call
    tests lhs - rhs, and only the witness column c forms that sum and unpacks."""
    p = field.characteristic
    zero = vanishes_mod([x - y for x, y in zip(lhs, rhs)], w, p)
    c = zero.index(False) if False in zero else None
    return c if c is None else _witness(field, {"basis_tensor": _basis_tensor(c, 27)}, *unpack(
        [x + sum(k * col[c] for k, col in shared) for x in (lhs[c], rhs[c])], w, p), scale)


def _alternation_witness(Y: Matrix) -> dict | None:
    """Witness at the first column of Y outside the alternating square, or None."""
    (n, d), bad = Y.integers(), non_alternating_columns(Y)
    return _witness(Y.field, {"basis_tensor": _basis_tensor(bad[0], 9)}, n[bad[0]::9],
                    "alternating tensor expected", d) if bad else None


def check_braid(R: Matrix, table=None) -> CheckReport:
    """R1 R2 R1 = R2 R1 R2 (R1 = R x Id, R2 = Id x R) on the packed braid of a :func:`braid_table`,
    times (b d)^3 at width 3 bitlen(|a| d + 3 b m) + 2; alone, of Y = -R at q = 0 by the slot
    kernel.  One :func:`packed_witness` call; only the witness column forms both sides."""
    lhs, rhs, w, scale, shared = (table or _braid_products(-R, 0))[3]
    return CheckReport("braid", packed_witness(R.field, lhs, rhs, w, scale, shared))


def check_hecke(R: Matrix, q) -> CheckReport:
    """(R - q*Id)(R + Id) = 0 as a 9x9 identity, read off ``heckecore.hecke_residual``."""
    zero = (res := hecke_residual(R, q)).is_zero()  # the zero operator only for a witness
    return CheckReport("hecke", None if zero else column_witness(res, Matrix.zeros(R.field, 9)))


def check_image_and_eigen(Y: Matrix, q) -> CheckReport:
    """Image of Y is exactly Alt2 and Yw = (q+1)w there: alternation, then the sides of
    ``heckecore._alt2_eigen_sides`` formed once; rank 3 read off the lemma where they agree and
    q + 1 != 0, else Y ranked.  q is read after alternation, untested: HeckeSymmetry gates it."""
    if bad := _alternation_witness(Y):
        return CheckReport("image_eigen", bad)
    fld, (lhs, rhs, scale) = Y.field, _alt2_eigen_sides(Y, q)
    rk = 3 if lhs == rhs and fld.of(q) != -1 else Y.rank()
    return CheckReport("image_eigen", rk != 3 and _witness(fld, {"rank": rk}, str(rk), "3") or
                       lhs != rhs and _first_witness(fld, lhs, rhs, scale, lambda s: {
                           "bivector": vector_to_json(fld, _ALT2[s])}, 9) or None)


def _braid_products(Y: Matrix, q):
    """:func:`_braid_columns` by the slot kernel, for any 9x9 Y, with both braid sides in full."""
    (a,), b = integer_coordinates(Y.field, [q])
    (y1, d, m), (y2, _, _) = slot_action(Y, 0, 1), slot_action(Y, 1, 2)
    w, ad = 3 * (abs(a) * d + 3 * b * m).bit_length() + 2, a * d
    n1, n2 = slot_product((y1,), w), slot_product((y2,), w)
    y12, y21 = slot_product((y2,), w, n1), slot_product((y1,), w, n2)
    lin = [(ad * ad << w * c) - a * b * d * (x + y) for c, (x, y) in enumerate(zip(n1, n2))]
    m12, m21 = ([u + b * b * x for u, x in zip(lin, yy)] for yy in (y12, y21))
    sides = ([ad * x - b * y for x, y in zip(mm, slot_product((last,), w, mm))]
             for mm, last in ((m12, y1), (m21, y2)))  # (M1 M2) M1 and (M2 M1) M2
    return _antisym(y21, 0), _antisym(y12, 1), d, (*sides, w, (b * d) ** 3, ())


def _antisym(cols, h):
    """The 9 packed columns at e_i (x) t_s (h = 0) or t_s (x) e_i (h = 1), (i, s) in order."""
    return [cols[u] - cols[v] for u, v in _ANTISYM[h]]


def _through(ell, vecs, h):
    """L N2 (h = 0) or L N1 (h = 1) from vecs = _antisym(L, h), for N e_c = sum_s ell[c][s] t_s."""
    return [ell[j][0] * vecs[o] + ell[j][1] * vecs[o + 1] + ell[j][2] * vecs[o + 2]
            for j, o in _SLOTS[h]]


def _braid_columns(Y: Matrix, q):
    """braid_table's (vxa, axv, d, braid), by its lemma's closed form where Y alternates."""
    (a,), b = integer_coordinates(Y.field, [q])
    if non_alternating_columns(Y):
        return _braid_products(Y, q)
    n, d = reduce_mod(Y.integers()[0], Y.field.characteristic), Y.integers()[1]
    w, ad = 3 * (abs(a) * d + 3 * b * max(map(abs, n))).bit_length() + 2, a * d
    ell, ident = list(zip(n[9:18], n[18:27], n[45:54])), [1 << w * c for c in range(27)]
    units = [_antisym(ident, h) for h in (0, 1)]  # e_i (x) t_s, then t_s (x) e_k
    n2, n1 = (_through(ell, units[h], h) for h in (0, 1))
    n12, n21 = (_through(ell, _antisym(nn, h), h) for nn, h in ((n1, 0), (n2, 1)))
    vxa, axv, c1, c2, c3 = _antisym(n21, 0), _antisym(n12, 1), ad * ad * b, ad * b * b, b ** 3
    lhs, rhs = (_through(ell, [c2 * x - c1 * y - c3 * z for x, y, z in zip(
        _antisym(nn, h), units[h], yy)], h) for nn, yy, h in ((n1, axv, 1), (n2, vxa, 0)))
    shared = ((ad ** 3, ident), (-c1, n1), (-c1, n2), (c2, n12), (c2, n21))  # of both sides
    return vxa, axv, d, (lhs, rhs, w, (b * d) ** 3, shared)


def braid_table(Y: Matrix, q):
    """(diffs, alt3, d, braid): the degree-3 columns the checks read, for Y = N / d, q = a / b.

    diffs packs D_c = b col_c - a d^2 w_c at width w, w_c the 18 spanning tensors e_i (x) t_s, then
    t_s (x) e_i (t_s = e_u ^ e_v, (u, v) in _ALT2_PAIRS; (i, s) in order), col_c = vxa[i][s] =
    (Id x N)(N x Id) w_c, then axv[i][s] = (N x Id)(Id x N) w_c.  alt3 holds (k_c, D_c in Alt3
    mod p): k_c is lane 5 (e1 (x) e2 (x) e3) of D_c plus 2^(w-1) on lanes 0 to 5, and one
    :func:`~hecke3.multilinear.vanishes_mod` call tests all 18 D_c - k_c e1^e2^e3.  Width: a lane
    of col_c sums 6 products of N entries, so for s = |a| d + 3 b m one of D_c is at most
    6 b m^2 + |a| d^2 <= s^2, one of D_c - k_c e1^e2^e3 at most 2 s^2 <= 2 s^3 < 2^(w-1) for
    w = 3 bitlen(s) + 2 (s = 0: D_c = 0).  braid = (lhs, rhs, w, (b d)^3, shared) packs M1 M2 M1
    and M2 M1 M2, M = a d Id - b N, each plus the sum over ``shared`` (:func:`packed_witness`):
    lhs - rhs = -(a d)^2 b (N1 - N2) + a d b^2 (N1^2 - N2^2) - b^3 (N1 N2 N1 - N2 N1 N2).
    Lemma: if every column of Y alternates, N e_c = sum_s l_c[s] t_s for l_c = (N[1,c], N[2,c],
    N[5,c]), so N1 e_(c,k) = sum_s l_c[s] t_s (x) e_k and N2 e_(i,c) = sum_s l_c[s] e_i (x) t_s:
    every packed column of N1, N2, N1 N2, N2 N1, N1^2 and N2^2 is a three-term combination of
    nine packed vectors formed once per call, N1 N2 N1 e_(c,k) = sum_s l_c[s] axv[k][s] and
    N2 N1 N2 e_(i,c) = sum_s l_c[s] vxa[i][s].  Each column packs the slot kernel's integers;
    that kernel, :func:`_braid_products`, runs where a column of Y is outside Alt2 mod p.
    """
    vxa, axv, d, braid = _braid_columns(Y, q)
    (a,), b = integer_coordinates(Y.field, [q])
    w, ad2, half = braid[2], a * d * d, 1 << braid[2] - 1
    diffs = [b * x - ad2 * ((1 << w * u) - (1 << w * v))
             for x, (u, v) in zip(vxa + axv, _ANTISYM[0] + _ANTISYM[1])]
    lift, e123 = half * ((1 << 6 * w) - 1) // ((1 << w) - 1), sum(
        s << w * k for k, s in enumerate(_ALT3_UNIT) if s)  # 2^(w-1) on lanes 0-5; e1^e2^e3
    ks = [((x + lift) >> 5 * w & (1 << w) - 1) - half for x in diffs]
    oks = vanishes_mod([x - k * e123 for x, k in zip(diffs, ks)], w, Y.field.characteristic)
    return diffs, list(zip(ks, oks)), d, braid


# Fixed data, built from no input: _through's (l index, vecs offset) per column (i, j, k) of N2, N1;
_SLOTS = ([(c % 9, c // 9 * 3) for c in range(27)], [(c // 3, c % 3 * 3) for c in range(27)])
# the 81 component cells (i, s, e_r e_r e_t position, 1-based i, j, k, r, t), right sides / a d^2;
_CELLS = [(i, s, idx3(r, r, t), (i + 1, j + 1, k + 1, r + 1, t + 1))
          for r, t, i in product(range(3), repeat=3) for s, (j, k) in enumerate(_ALT2_PAIRS)]
_UNITS = [_ALT2[s][idx2(r, t)] if i == r else 0 for r, t, i, s in product(range(3), repeat=4)]
# the pairing sample, its wedge cells (j, k, u, v), u < v, and vol(x, e_j, e_k) vol(x, e_u, e_v)
_SAMPLE = (("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("e3", (0, 0, 1)), ("e1+e2", (1, 1, 0)),
           ("e1+e3", (1, 0, 1)))
_WEDGE_CELLS = [(j, k, u, v) for j, k in product(range(3), repeat=2) for u, v in _ALT2_PAIRS]
_WEDGE_VOLS = [bx[idx2(j, k)] * bx[idx2(u, v)] for bx in (bivector(x) for _, x in _SAMPLE)
               for j, k, u, v in _WEDGE_CELLS]


def check_containments(Y: Matrix, q, table=None) -> CheckReport:
    """Degree-3 containments of the reformulated braid equation.

    (Id x Y)(Y x Id)w - q w must be alternating for every w in V (x) Alt2,
    and (Y x Id)(Id x Y)w - q w for every w in Alt2 (x) V; both are checked
    on the 9 spanning tensors of each space, as b column - a d^2 w for Y = N / d, q = a / b: the
    18 verdicts of :func:`braid_table`, decided packed.  The first false one fails, and only its
    difference unpacks, reduced mod p, for the witness.
    """
    diffs, alt3, d, braid = table or braid_table(Y, q)
    c = next((c for c, (_, ok) in enumerate(alt3) if not ok), None)
    return CheckReport("containments", c if c is None else _witness(Y.field, {
        "space": ("VxAlt2", "Alt2xV")[c // 9], "vector": c // 3 % 3 + 1,
        "bivector": vector_to_json(Y.field, _ALT2[c % 3])}, unpack(
        diffs[c:c + 1], braid[2], Y.field.characteristic)[0], "element of Alt3 expected",
        integer_coordinates(Y.field, [q])[1] * d * d))


def check_component_identity(Y: Matrix, q, table=None) -> CheckReport:
    """Quadratic identity satisfied by the matrix components of Y.

    With components Y(e_i e_j) = sum Y_ij^{kl} e_k e_l, the sum over l of
    Y_ij^{rl} Y_lk^{rt} - Y_ik^{rl} Y_lj^{rt} must equal q, -q or 0
    according to the index pattern: the e_r e_r e_t coordinates of
    (Id x Y)(Y x Id)w and of q w for w = e_i (x) e_j^e_k.  So it is the first
    containment read where an index repeats.  When Y maps into Alt2 that
    difference lies in V (x) Alt2, where vanishing on every x (x) x (x) y, i.e.
    for Y transported along every P (``change_of_basis(Y, P)``), is lying in Alt3.  Read off
    the V (x) Alt2 differences D of :func:`braid_table` (times b d^2, for Y = N / d and q = a / b)
    at j < k: j = k gives 0, and j > k mirrors j < k later in the loop order.  The e_r e_r e_t
    coordinate of w is e_i[r] (e_j^e_k)[idx2(r, t)]: that of e_j^e_k when i = r, else 0.
    Lemma: the 81 cells are the lanes (r, r, t) of those 9 D, where e1^e2^e3 vanishes, so the
    identity holds where all 9 lie in Alt3 mod p.  Elsewhere they unpack, and each side is formed
    on all 81 (r, t, i, j, k) in loop order, the left as D + a d^2 w, and reduced mod p once.
    """
    diffs, alt3, d, braid = table or braid_table(Y, q)
    if all(ok for _, ok in alt3[:9]):
        return CheckReport("component_identity")
    (a,), b = integer_coordinates(Y.field, [q])
    cols, rhs = unpack(diffs[:9], braid[2], Y.field.characteristic), [a * d * d * u for u in _UNITS]
    return CheckReport("component_identity", _first_witness(
        Y.field, [cols[3 * i + s][c] + x for (i, s, c, _), x in zip(_CELLS, rhs)], rhs,
        b * d * d, lambda c: {"indices": [*_CELLS[c][3]]}))


def check_pairing_identities(Y: Matrix, q) -> CheckReport:
    """The two identities for the pairing forms of Y.

    With L[x,y](z) = pair_vt(x, Y(y z)), the coefficient of x ^ Y(y z), read
    off Y by :func:`~hecke3.multilinear.pairing_coordinates`:

      * L[x,y](z) - L[x,z](y) = (q+1) vol(x,y,z), linear: at (e_i, e_j, e_k), times b d for
        Y = N / d, q = a / b, it is pair_vt(e_i, .) of the sides of ``heckecore._alt2_eigen_sides``
        at pair (j, k), as d L[e_i,e_j](e_k) = pair_vt(e_i, column jk of N) and vol(e_i,e_j,e_k) =
        pair_vt(e_i, e_j^e_k).  Read i first, pair second, they first fail where the triples do in
        product order: j = k gives 0 = 0, and j > k fails iff (i, k, j), which comes first, does.
      * (L[x,y] ^ L[x,z] - L[x,x] ^ L[y,z])(u,v) = q vol(x,y,z) vol(x,u,v), vol(x, e_u, e_v) =
        bivector(x)[idx2(u, v)]: quadratic in x with defect sum c_im x_i x_m, c_im in Z[q, l].
        x = e1, e2, e3, e1+e2 and e1+e3 pin c_11, c_22, c_33, c_12, c_13; each component of c_23
        is +- one of theirs or the sum of two, so the sample decides the identity exactly
        (compared times b d^2).  Both sides alternate in (u, v); u < v comes first: read there.
    """
    fld, e, (n, d) = Y.field, unit_tensors(1), Y.integers()
    (a,), b = integer_coordinates(fld, [q])
    if bad := _alternation_witness(Y):
        return CheckReport("pairing_identities", bad)
    ell = pairing_coordinates(n)  # d L
    *sides, scale = _alt2_eigen_sides(Y, q)  # e_i paired with each side at pair (j, k): i, pair
    eigen = [[pair_vt(v, w[9 * s:9 * s + 9]) for v in e for s in range(3)] for w in sides]
    if bad := _first_witness(fld, *eigen, scale, lambda c: {
            "indices": [c // 3 + 1, *(z + 1 for z in _ALT2_PAIRS[c % 3])]}, identity="eigenvalue"):
        return CheckReport("pairing_identities", bad)
    lxs = [[[x[0] * r + x[1] * s + x[2] * t for r, s, t in zip(*rows)] for rows in zip(*ell)]
           for _, x in _SAMPLE]  # lx[j][u] = d L[x, e_j](e_u) = sum_i x_i ell[i][j][u]
    xxs = [[x[0] * r + x[1] * s + x[2] * t for r, s, t in zip(*lx)]
           for (_, x), lx in zip(_SAMPLE, lxs)]  # xx[u] = d L[x, x](e_u) likewise
    wedge = [b * (lx[j][u] * lx[k][v] - lx[j][v] * lx[k][u] - xx[u] * ell[j][k][v] + xx[v] *
                  ell[j][k][u]) for lx, xx in zip(lxs, xxs) for j, k, u, v in _WEDGE_CELLS]
    return CheckReport("pairing_identities", _first_witness(
        fld, wedge, [a * d * d * v for v in _WEDGE_VOLS], b * d * d, lambda c: {
            "x": _SAMPLE[c // 27][0], "indices": [z + 1 for z in _WEDGE_CELLS[c % 27]]},
        identity="wedge"))


def check_cyclic_shift_identity(Y: Matrix, T: Matrix, q, table=None) -> CheckReport:
    """Y1 Y2(t x) - shift(Y2 Y1(x t)) = 2(q+1) Tx ^ t for basis x and bivectors t.

    Both mixed products land in the alternating cube when shifted against
    each other, and their difference is controlled by the traceless
    operator alone.  Both products are :func:`braid_table` columns, and
    Tx ^ t = pair_vt(Tx, t) e1^e2^e3.  Compared times b m d^2, for Y = N / d,
    T = M / m, q = a / b.  T must be a 3x3 operator over Y's field.  With D, D' the table's
    differences at e_i (x) t and t (x) e_i = shift(e_i (x) t), b (Y1 Y2(t x) - shift(Y2 Y1(x t)))
    is D' - shift(D).  Lemma: shift fixes e1^e2^e3, so where all 18 D lie in Alt3 mod p, as
    k e1^e2^e3, it is (k' - k) e1^e2^e3, and the identity at (x, t) is m (k' - k) = 2 (a + b) d^2
    pair_vt(M e_i, t) mod p: nine scalars, each times e1^e2^e3 for a witness.  Elsewhere the 18
    D unpack and the 27 coordinates of each side are compared.
    """
    _checked_operator(T, 1)
    Y._same_field(T)
    fld, p = Y.field, Y.field.characteristic
    diffs, alt3, d, braid = table or braid_table(Y, q)
    (qn,), qd = integer_coordinates(fld, [q])
    tn, td = T.integers()
    # 2(q+1) pair_vt(td T e_i, t) d^2, tn[i::3] = td T e_i
    rhs = [2 * (qn + qd) * d * d * pair_vt(tn[i::3], t) for i in range(3) for t in _ALT2]
    if all(ok for _, ok in alt3):
        lhs = [td * (k - h) for (h, _), (k, _) in zip(alt3, alt3[9:])]
        if reduce_mod(lhs, p) == reduce_mod(rhs, p):
            return CheckReport("cyclic_shift_identity")
        lhs = [x * s for x in lhs for s in _ALT3_UNIT]
    else:
        cols = unpack(diffs, braid[2], p)
        lhs = [td * (x - y) for c in range(9) for x, y in zip(cols[9 + c], cyclic_shift(cols[c]))]
    return CheckReport("cyclic_shift_identity", _first_witness(
        fld, lhs, [c * s for c in rhs for s in _ALT3_UNIT], qd * td * d * d,
        lambda c: {"vector": c // 3 + 1, "bivector": vector_to_json(fld, _ALT2[c % 3])}, 27))


def run_suite(sym: HeckeSymmetry) -> list[CheckReport]:
    """All checks on one symmetry, in a fixed order.

    The traceless operator for the shift identity comes from the extracted
    invariant operator.
    """
    return _suite_and_F(sym)[0]


def _suite_and_F(sym: HeckeSymmetry):
    """The reports of :func:`run_suite` and the extracted F (None when extraction failed)."""
    table = braid_table(sym.Y, sym.q)  # read by the braid and the three degree-3 checks
    reports = [
        check_braid(sym.R, table),
        check_hecke(sym.R, sym.q),
        check_image_and_eigen(sym.Y, sym.q),
        check_containments(sym.Y, sym.q, table),
        check_component_identity(sym.Y, sym.q, table),
        check_pairing_identities(sym.Y, sym.q),
    ]
    try:
        f_op = extract_F(sym)
    except NotHeckeSym0 as exc:
        reports.append(CheckReport(
            "cyclic_shift_identity",
            {"error": f"no valid invariant operator: {exc}"},
        ))
        return reports, None
    reports.append(check_cyclic_shift_identity(sym.Y, t_operator_of_F(f_op), sym.q, table))
    return reports, f_op


def _random_int(field, rng):
    """A random integer coordinate: in [-4, 4] over Q, a residue over F_p."""
    p = field.characteristic
    return rng.randint(0, p - 1) if p else rng.randint(-4, 4)


def _random_independent_pair(field, rng):
    """The integer coordinates of two random vectors a, b with a^b != 0 in the field."""
    while True:
        a, b = ([_random_int(field, rng) for _ in range(3)] for _ in range(2))
        if any(reduce_mod(wedge2(a, b), field.characteristic)):
            return a, b


def sample_strategy_a(field, rng) -> HeckeData:
    """Generic data with g isotropic on a, so an admissible q always exists.

    In a basis B starting with a, the form G has a zero corner; the discriminant
    is then -g(a,b)^2 and q = 1 +/- 2 g(a,b) lies in the field.  The nonzero
    root is kept.  B is a, then e_i for i != L, the last index with a_L != 0 in the field: the
    pivots of an elimination of (a, e1, e2, e3).  Proof: e_i is outside span(a, e_m : m < i) for
    i < L (coordinate L forces a's coefficient to 0) and for i > L (the span vanishes at i), and
    e_L = (a - sum_{m<L} a_m e_m) / a_L is inside.  So det B = +-a_L, and g = B^-T G B^-1 =
    adj^T G adj / det^2 on integers, the rows of adj B the cross products of B's columns.
    """
    an, bn = _random_independent_pair(field, rng)
    v = [_random_int(field, rng) for _ in range(5)]
    G = [0, v[0], v[1], v[0], v[2], v[3], v[1], v[3], v[4]]  # the form in the basis B
    L, e = max(i for i, x in enumerate(reduce_mod(an, field.characteristic)) if x), unit_tensors(1)
    B = [an] + [e[i] for i in range(3) if i != L]  # the columns of B
    adj = [[pair_vt(x, w) for x in e] for w in (wedge2(B[i - 2], B[i - 1]) for i in range(3))]
    s = sum(x * y for x, y in zip(an, adj[0])) ** 2  # det(B)^2
    ga = [sum(G[3 * i + j] * adj[j][n] for j in range(3)) for i in range(3) for n in range(3)]
    gn = [sum(adj[i][m] * ga[3 * i + n] for i in range(3)) for m in range(3) for n in range(3)]
    gab = sum(x * y for x, y in zip(gn, tensor2(an, bn)))  # g(a, b) = gab / s
    q = field_scalars(field, [s + 2 * gab, s - 2 * gab], s)
    return HeckeData(q[0] or q[1], field_scalars(field, an), field_scalars(field, bn),
                     Matrix.of_integers(field, 3, 3, gn, s))


_CANONICAL_Q_POOL = (2, 3, -1, "1/2", 5, "-2/3")


def sample_strategy_b(field, rng) -> HeckeData:
    """A canonical type transported by a random basis; a pool q not in the field, 0 or 1 redraws."""
    label, q = rng.choice(TYPE_LABELS), None
    while label in Q_FAMILIES and q in (None, 0, 1):
        try:
            q = field.of(rng.choice(_CANONICAL_Q_POOL))
        except InputError:  # -2/3 over F_3
            continue
    return conjugate_data(canonical(label, q, field), random_invertible(field, rng))


def sample_adversarial(field, rng):
    """Quadruple of the right shape whose q constraint is deliberately broken.

    Returns (q, a, b, g) that ``HeckeData`` rejects with InvalidConstraint; feeding it to
    the raw skewsymmetrizer assembly yields an operator with image in the
    alternating square that cannot satisfy the braid equation.
    """
    while True:
        data = sample_strategy_a(field, rng)
        for i in range(3):
            for j in range(i, 3):  # g + E_ij + E_ji, or g + E_ii
                cand = data.g + Matrix.of_integers(field, 3, 3, [int(c in (3 * i + j, 3 * j + i))
                                                                 for c in range(9)])
                try:
                    _admissible_q(data.q, FOperator(cand, data.t))  # only g differs from data
                except InvalidConstraint:
                    return data.q, data.a, data.b, cand
        # every single-entry bump kept the constraint (not expected); resample


def fuzz(field, trials: int, seed: int, strategy: str = "A",
         adversarial: bool = False) -> CheckReport:
    """Deterministic sampling harness running the full suite per trial.

    Per-trial random streams are derived from (seed, trial index), so the aggregate is
    independent of execution order.  In adversarial mode the q constraint is broken on purpose
    and a trial counts as expected when the braid or quadratic check fails.  That mode ignores
    ``strategy``: every adversarial trial comes from strategy A's sampler, while the report's
    name still gives the strategy passed.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if trials > MAX_FUZZ_TRIALS:
        raise InputError(f"trials must be <= {MAX_FUZZ_TRIALS}")
    strategy = strategy.upper()
    if strategy not in ("A", "B"):
        raise InputError("strategy must be 'A' or 'B'")
    sampler = sample_strategy_a if strategy == "A" else sample_strategy_b
    failures = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        if adversarial:
            q, a, b, g = sample_adversarial(field, rng)
            Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
            R = Matrix.identity(field, 9).scale(q) - Y
            if check_braid(R, _braid_columns(Y, q)).passed and check_hecke(R, q).passed:
                failures.append({"trial": trial, "check": "adversarial",
                                 "witness": {"note": "broken constraint went undetected"}})
            continue
        data = sampler(field, rng)
        sym = build_R(data)
        reports, f_op = _suite_and_F(sym)
        failures += [{"trial": trial, "check": rep.name, "witness": rep.witness}
                     for rep in reports if not rep.passed]
        # a failed extraction is already the cyclic_shift_identity failure
        if f_op is not None and build_Y_from_F(sym.q, f_op) != sym.Y:
            failures.append({"trial": trial, "check": "roundtrip",
                             "witness": {"note": "rebuilt skewsymmetrizer differs"}})
        # reports[1] is check_hecke.  Where it passed, (R - q)(R + Id) = 0 makes R act as q
        # on the image of R + Id, so extract_q's candidate is q, unless R = -Id.  No sampler
        # gives R = -Id: it needs Y = (q+1) Id inside Alt2, so q = -1 and Y = 0; then F = 0
        # and delta = 0, against (q-1)^2 = 4 = -4 delta.  So extract_q runs only where it failed.
        try:
            note = None if reports[1].passed or extract_q(sym.R) == sym.q else "extracted q differs"
        except NoHeckeParameter as exc:  # no q satisfies the relation
            note = str(exc)
        if note:
            failures.append({"trial": trial, "check": "parameter_roundtrip",
                             "witness": {"note": note}})
    name = f"fuzz(field={field.name},strategy={strategy}," \
           f"trials={trials},seed={seed},adversarial={adversarial})"
    witness = {"failures": failures} if failures else None
    return CheckReport(name, witness)
