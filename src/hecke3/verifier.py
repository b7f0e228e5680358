"""Exact checks of every identity a Hecke symmetry must satisfy.

Each check returns a :class:`CheckReport`; a failing report carries a witness
(the first offending basis tensor or index tuple, with both side values).
There are no tolerances anywhere: a check passes iff the identity holds
bit-exactly.  Witness indices are printed 1-based to match the e1, e2, e3
naming.  Every check but the containments' Alt3 test compares integer sides in one of two
shapes: flat, each reduced mod p once (:func:`_first_witness`), or packed (:func:`packed_witness`).
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
    _checked_operator,
    bivector,
    idx2,
    idx3,
    is_alt3,
    cyclic_shift,
    non_alternating_columns,
    pair_vt,
    pairing_coordinates,
    random_invertible,
    slot_action,
    slot_product,
    std_basis,
    tensor2,
    unit_tensors,
    unpack,
    vanishes_mod,
    wedge2,
)
from .heckecore import (
    _alt2_eigen_sides,
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


def packed_witness(field, lhs, rhs, w, scale) -> dict | None:
    """:func:`column_witness` of packed columns of width w (c_k for c_k / scale): one
    :func:`~hecke3.multilinear.vanishes_mod` call tests lhs - rhs, and only the witness unpacks."""
    p = field.characteristic
    zero = vanishes_mod([x - y for x, y in zip(lhs, rhs)], w, p)
    c = zero.index(False) if False in zero else None
    return c if c is None else _witness(field, {"basis_tensor": _basis_tensor(c, 27)},
                                        *unpack([lhs[c], rhs[c]], w, p), scale)


def _alternation_witness(Y: Matrix) -> dict | None:
    """Witness at the first column of Y outside the alternating square, or None."""
    (n, d), bad = Y.integers(), non_alternating_columns(Y)
    return _witness(Y.field, {"basis_tensor": _basis_tensor(bad[0], 9)}, n[bad[0]::9],
                    "alternating tensor expected", d) if bad else None


def check_braid(R: Matrix, table=None) -> CheckReport:
    """R1 R2 R1 = R2 R1 R2 (R1 = R x Id, R2 = Id x R) on the packed sides of a :func:`braid_table`,
    times (b d)^3 at width 3 bitlen(|a| d + 3 b m) + 2; alone, of Y = -R at q = 0.  The sides'
    27 differences are decided in one :func:`packed_witness` call; only the witness unpacks."""
    lhs, rhs, w, scale = (table or _braid_products(-R, 0))[3]
    return CheckReport("braid", packed_witness(R.field, lhs, rhs, w, scale))


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
    """The packed N2 N1, N1 N2, d and braid of :func:`braid_table`, before any unpack."""
    (a,), b = integer_coordinates(Y.field, [q])
    (y1, d, m), (y2, _, _) = slot_action(Y, 0, 1), slot_action(Y, 1, 2)
    w, ad = 3 * (abs(a) * d + 3 * b * m).bit_length() + 2, a * d
    n1, n2 = slot_product((y1,), w), slot_product((y2,), w)
    y12, y21 = slot_product((y2,), w, n1), slot_product((y1,), w, n2)
    lin = [(ad * ad << w * c) - a * b * d * (x + y) for c, (x, y) in enumerate(zip(n1, n2))]
    m12, m21 = ([u + b * b * x for u, x in zip(lin, yy)] for yy in (y12, y21))
    sides = ([ad * x - b * y for x, y in zip(mm, slot_product((last,), w, mm))]
             for mm, last in ((m12, y1), (m21, y2)))  # (M1 M2) M1 and (M2 M1) M2
    return y21, y12, d, (*sides, w, (b * d) ** 3)


def braid_table(Y: Matrix, q):
    """(vxa, axv, d, braid): the degree-3 columns the braid checks read, for Y = N / d, q = a / b.

    vxa[i][s] = (Id x N)(N x Id)(e_i (x) t_s) and axv[i][s] = (N x Id)(Id x N)(t_s (x) e_i)
    for t_s = e_j ^ e_k in :func:`alt2_basis`: the packed columns (i,j,k) - (i,k,j) and
    (j,k,i) - (k,j,i) of the products, unpacked mod p.  braid = (lhs, rhs, w, (b d)^3) packs
    M1 M2 M1 and M2 M1 M2 for M = a d Id - b N = b d (q Id - Y): one more factor on M1 M2 =
    (a d)^2 - a b d (N1 + N2) + b^2 N1 N2, so lhs - rhs = (b d)^3 (-q^2 (Y1 - Y2) + q (Y1^2 - Y2^2)
    - (Y1 Y2 Y1 - Y2 Y1 Y2)); w = 3 bitlen(|a| d + 3 b m) + 2 (:func:`slot_product`).
    """
    y21, y12, d, braid = _braid_products(Y, q)
    diffs = [y21[idx3(i, j, k)] - y21[idx3(i, k, j)] for i in range(3) for j, k in _ALT2_PAIRS]
    diffs += [y12[idx3(j, k, i)] - y12[idx3(k, j, i)] for i in range(3) for j, k in _ALT2_PAIRS]
    cols = unpack(diffs, braid[2], Y.field.characteristic)
    return [cols[i:i + 3] for i in (0, 3, 6)], [cols[i:i + 3] for i in (9, 12, 15)], d, braid


def check_containments(Y: Matrix, q, table=None) -> CheckReport:
    """Degree-3 containments of the reformulated braid equation.

    (Id x Y)(Y x Id)w - q w must be alternating for every w in V (x) Alt2,
    and (Y x Id)(Id x Y)w - q w for every w in Alt2 (x) V; both are checked
    on the 9 spanning tensors of each space (the :func:`braid_table` columns),
    as b column - a d^2 w reduced mod p, for Y = N / d, q = a / b.
    """
    vxa, axv, d, _ = table or braid_table(Y, q)
    (a,), b = integer_coordinates(Y.field, [q])
    e, p = unit_tensors(1), Y.field.characteristic
    diffs = ((s, i, t, reduce_mod([b * x - a * d * d * y for x, y in zip(col, w)], p))
             for s, cols in (("VxAlt2", vxa), ("Alt2xV", axv)) for i in range(3)
             for t, col in zip(_ALT2, cols[i])
             for w in [tensor2(e[i], t) if s == "VxAlt2" else tensor2(t, e[i])])
    return CheckReport("containments", next((_witness(
        Y.field, {"space": s, "vector": i + 1, "bivector": vector_to_json(Y.field, t)},
        u, "element of Alt3 expected", scale=b * d * d) for s, i, t, u in diffs
        if not is_alt3(u)), None))


def check_component_identity(Y: Matrix, q, table=None) -> CheckReport:
    """Quadratic identity satisfied by the matrix components of Y.

    With components Y(e_i e_j) = sum Y_ij^{kl} e_k e_l, the sum over l of
    Y_ij^{rl} Y_lk^{rt} - Y_ik^{rl} Y_lj^{rt} must equal q, -q or 0
    according to the index pattern: the e_r e_r e_t coordinates of
    (Id x Y)(Y x Id)w and of q w for w = e_i (x) e_j^e_k.  So it is the first
    containment read where an index repeats.  When Y maps into Alt2 that
    difference lies in V (x) Alt2, where vanishing on every x (x) x (x) y, i.e.
    for Y transported along every P (``change_of_basis(Y, P)``), is lying in Alt3.  Read off
    the V (x) Alt2 columns of :func:`braid_table` (times b d^2, for Y = N / d and q = a / b)
    at j < k: j = k gives 0, and j > k mirrors j < k later in the loop order.  The e_r e_r e_t
    coordinate of w is e_i[r] (e_j^e_k)[idx2(r, t)]: that of e_j^e_k when i = r, else 0.
    Each side is formed on all 81 (r, t, i, j, k) in loop order and reduced mod p once.
    """
    vxa, _, d, _ = table or braid_table(Y, q)
    (a,), b = integer_coordinates(Y.field, [q])
    cells = [(r, t, i, j, k, s) for r, t, i in product(range(3), repeat=3)
             for s, (j, k) in enumerate(_ALT2_PAIRS)]
    lhs = [b * vxa[i][s][idx3(r, r, t)] for r, t, i, j, k, s in cells]
    rhs = [a * d * d * _ALT2[s][idx2(r, t)] if i == r else 0 for r, t, i, j, k, s in cells]
    return CheckReport("component_identity", _first_witness(
        Y.field, lhs, rhs, b * d * d,
        lambda c: {"indices": [cells[c][x] + 1 for x in (2, 3, 4, 0, 1)]}))  # i, j, k, r, t


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
    cells = list(product(product(range(3), repeat=2), _ALT2_PAIRS))

    def wedge(xname, x):
        # lx[j][u] = d L[x, e_j](e_u) = sum_i x_i ell[i][j][u], lxx[u] = d L[x, x](e_u) likewise
        lx = [[x[0] * r + x[1] * s + x[2] * t for r, s, t in zip(*rows)] for rows in zip(*ell)]
        lxx = [x[0] * r + x[1] * s + x[2] * t for r, s, t in zip(*lx)]
        volx = bivector(x)
        return _first_witness(
            fld, [b * (lx[j][u] * lx[k][v] - lx[j][v] * lx[k][u] - lxx[u] * ell[j][k][v]
                       + lxx[v] * ell[j][k][u]) for (j, k), (u, v) in cells],
            [a * d * d * volx[idx2(j, k)] * volx[idx2(u, v)] for (j, k), (u, v) in cells],
            b * d * d, lambda c: {"x": xname, "indices": [z + 1 for jk in cells[c] for z in jk]},
            identity="wedge")

    xs = [(f"e{i+1}", e[i]) for i in range(3)] + [(f"e1+e{j+1}", [
        s + t for s, t in zip(e[0], e[j])]) for j in (1, 2)]
    return CheckReport("pairing_identities", _first_witness(fld, *eigen, scale, lambda c: {
        "indices": [c // 3 + 1, *(z + 1 for z in _ALT2_PAIRS[c % 3])]}, identity="eigenvalue")
        or next(filter(None, (wedge(*x) for x in xs)), None))


def check_cyclic_shift_identity(Y: Matrix, T: Matrix, q, table=None) -> CheckReport:
    """Y1 Y2(t x) - shift(Y2 Y1(x t)) = 2(q+1) Tx ^ t for basis x and bivectors t.

    Both mixed products land in the alternating cube when shifted against
    each other, and their difference is controlled by the traceless
    operator alone.  Both products are :func:`braid_table` columns, and
    Tx ^ t = pair_vt(Tx, t) e1^e2^e3.  Compared times b m d^2, for Y = N / d,
    T = M / m, q = a / b.  T must be a 3x3 operator over Y's field.
    """
    _checked_operator(T, 1)
    Y._same_field(T)
    fld = Y.field
    vxa, axv, d, _ = table or braid_table(Y, q)
    (qn,), qd = integer_coordinates(fld, [q])
    tn, td = T.integers()
    # Y1 Y2(t x) - shift(Y2 Y1(x t)) and 2(q+1) pair_vt(td T e_i, t) d^2, tn[i::3] = td T e_i
    lhs = [qd * td * (a - b) for i in range(3) for ytx, yxt in zip(axv[i], vxa[i])
           for a, b in zip(ytx, cyclic_shift(yxt))]
    cs = [2 * (qn + qd) * d * d * pair_vt(tn[i::3], t) for i in range(3) for t in _ALT2]
    return CheckReport("cyclic_shift_identity", _first_witness(
        fld, lhs, [c * s for c in cs for s in _ALT3_UNIT], qd * td * d * d,
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

    In a basis starting with a, the form has a zero corner; the discriminant
    is then -g(a,b)^2 and q = 1 +/- 2 g(a,b) lies in the field.  The nonzero
    root is kept.
    """
    an, bn = _random_independent_pair(field, rng)
    a, b = field_scalars(field, an), field_scalars(field, bn)
    # complete a to a basis by the first standard vectors independent of it
    e = std_basis(field)
    pivots = Matrix.from_columns(field, [a] + e).rref()[1]
    B = Matrix.from_columns(field, [a] + [e[p - 1] for p in pivots[1:]])
    v = [_random_int(field, rng) for _ in range(5)]
    g_new = Matrix.of_integers(field, 3, 3, [0, v[0], v[1], v[0], v[2], v[3], v[1], v[3], v[4]])
    binv = B.inverse()
    g = binv.transpose() * g_new * binv
    gn, gd = g.integers()
    gab, = field_scalars(field, [sum(x * y for x, y in zip(gn, tensor2(an, bn)))], gd)  # g(a, b)
    return HeckeData(field.one() + 2 * gab or field.one() - 2 * gab, a, b, g)


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
                    HeckeData(data.q, data.a, data.b, cand)
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
            R = Matrix.identity(field, 9).scale(q) - skewsymmetrizer_matrix(q, g, wedge2(a, b))
            if check_braid(R).passed and check_hecke(R, q).passed:
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
