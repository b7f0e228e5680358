"""Exact checks of every identity a Hecke symmetry must satisfy.

Each check returns a :class:`CheckReport`; a failing report carries a witness
(the first offending basis tensor or index tuple, with both side values).
There are no tolerances anywhere: a check passes iff the identity holds
bit-exactly.  Witness indices are printed 1-based to match the e1, e2, e3
naming.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import InputError, NoHeckeParameter, NotHeckeSym0
from .jsonio import vector_to_json
from .linalg import Matrix, field_scalars, integer_coordinates, reduce_mod
from .multilinear import (
    alt2_basis,
    idx2,
    idx3,
    is_alt3,
    cyclic_shift,
    non_alternating_columns,
    random_invertible,
    slot_action,
    std_basis,
    tensor2,
    unit_tensors,
    vol,
    wedge2,
    wedge_vt,
)
from .heckecore import (
    HeckeData,
    HeckeSymmetry,
    _q_candidate,
    build_R,
    build_Y_from_F,
    conjugate_data,
    discriminant,
    extract_F,
    extract_q,
    g_value,
    hecke_residual,
    pairing_coordinates,
    skewsymmetrizer_matrix,
    t_operator_of_F,
)

__all__ = [
    "CheckReport",
    "column_witness",
    "columns_witness",
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
    """The witness document; a side is text, a scalar or a coordinate list (int n is n / scale)."""

    def side(x):
        if isinstance(x, str):
            return [x]
        xs = x if isinstance(x, list) else [x]
        return vector_to_json(field, xs if scale == 1 else field_scalars(field, xs, scale))

    return {**head, "input": input, "lhs": side(lhs), "rhs": side(rhs)}


def column_witness(lhs: Matrix, rhs: Matrix, **context) -> dict | None:
    """Witness at the first basis tensor where two 9x9 or 27x27 operators differ, or None.

    The columns are compared on integer coordinates, both sides over the product of the scales.
    """
    (a, da), (b, db), n = lhs.integers(), rhs.integers(), lhs.ncols
    columns = (([x * db for x in a[c::n]], [y * da for y in b[c::n]]) for c in range(n))
    return columns_witness(lhs.field, columns, da * db, **context)


def columns_witness(field, columns, scale=1, **context) -> dict | None:
    """:func:`column_witness` of the (lhs, rhs) column pairs, read up to the first mismatch.

    Integer columns stand for n / scale; ``context`` keys precede the basis tensor.
    """
    return next((_witness(field, {**context, "basis_tensor": _basis_tensor(c, len(x))},
                          x, y, scale) for c, (x, y) in enumerate(columns) if x != y), None)


def _non_alternating_columns(Y: Matrix):
    """Witnesses at the columns of Y outside the alternating square."""
    for c in non_alternating_columns(Y):
        yield _witness(Y.field, {"basis_tensor": _basis_tensor(c, 9)}, Y.col(c),
                       "alternating tensor expected")


def check_braid(R: Matrix) -> CheckReport:
    """(R x Id)(Id x R)(R x Id) = (Id x R)(R x Id)(Id x R), times d^3 for R = N / d."""
    (r1, d), (r2, _) = slot_action(R, 0, 1), slot_action(R, 1, 2)
    columns = ((r1(r2(r1(w))), r2(r1(r2(w)))) for w in unit_tensors(3))
    return CheckReport("braid", columns_witness(R.field, columns, d ** 3))


def check_hecke(R: Matrix, q) -> CheckReport:
    """(R - q*Id)(R + Id) = 0 as a 9x9 identity."""
    return CheckReport("hecke", column_witness(hecke_residual(R, q), Matrix.zeros(R.field, 9)))


def check_image_and_eigen(Y: Matrix, q) -> CheckReport:
    """Image of Y is exactly the alternating square and Yw = (q+1)w there."""
    fld = Y.field

    def mismatches():
        yield from _non_alternating_columns(Y)
        rk = Y.rank()
        if rk != 3:
            yield _witness(fld, {"rank": rk}, str(rk), "3")
        qq = fld.of(q)
        for w in alt2_basis():
            got = Y.apply(w)
            want = [(qq + 1) * c for c in w]
            if got != want:
                yield _witness(fld, {"bivector": vector_to_json(fld, w)}, got, want)

    return CheckReport("image_eigen", next(mismatches(), None))


def braid_table(Y: Matrix):
    """(vxa, axv, d): the 18 degree-3 columns the reformulated braid equation reads, for Y = N / d.

    vxa[i][s] = (Id x N)(N x Id)(e_i (x) t_s) and axv[i][s] = (N x Id)(Id x N)(t_s (x) e_i)
    for t_s in :func:`alt2_basis`, reduced mod p over F_p.  A check given no table forms its own.
    """
    (y1, d), (y2, _) = slot_action(Y, 0, 1), slot_action(Y, 1, 2)
    e, alt = unit_tensors(1), alt2_basis()
    return ([[y2(y1(tensor2(e[i], t))) for t in alt] for i in range(3)],
            [[y1(y2(tensor2(t, e[i]))) for t in alt] for i in range(3)], d)


def check_containments(Y: Matrix, q, table=None) -> CheckReport:
    """Degree-3 containments of the reformulated braid equation.

    (Id x Y)(Y x Id)w - q w must be alternating for every w in V (x) Alt2,
    and (Y x Id)(Id x Y)w - q w for every w in Alt2 (x) V; both are checked
    on the 9 spanning tensors of each space (the :func:`braid_table` columns),
    times b d^2 for Y = N / d, q = a / b.
    """
    fld, e = Y.field, unit_tensors(1)
    vxa, axv, d = table or braid_table(Y)
    (qn,), qd = integer_coordinates(fld, [q])

    def mismatches():
        for space, cols in (("VxAlt2", vxa), ("Alt2xV", axv)):
            for i in range(3):
                for t, col in zip(alt2_basis(), cols[i]):
                    w = tensor2(e[i], t) if space == "VxAlt2" else tensor2(t, e[i])
                    u = [qd * a - qn * d * d * b for a, b in zip(col, w)]
                    if not is_alt3(u := reduce_mod(u, fld.characteristic)):
                        yield _witness(fld, {"space": space, "vector": i + 1,
                                             "bivector": vector_to_json(fld, t)},
                                       u, "element of Alt3 expected", scale=qd * d * d)

    return CheckReport("containments", next(mismatches(), None))


def check_component_identity(Y: Matrix, q, table=None) -> CheckReport:
    """Quadratic identity satisfied by the matrix components of Y.

    With components Y(e_i e_j) = sum Y_ij^{kl} e_k e_l, the sum over l of
    Y_ij^{rl} Y_lk^{rt} - Y_ik^{rl} Y_lj^{rt} must equal q, -q or 0
    according to the index pattern: the e_r e_r e_t coordinates of
    (Id x Y)(Y x Id)w and of q w for w = e_i (x) e_j^e_k.  So it is the first
    containment read where an index repeats.  When Y maps into Alt2 that
    difference lies in V (x) Alt2, where vanishing on every x (x) x (x) y, i.e.
    for Y transported along every P (``change_of_basis(Y, P)``), is lying in Alt3.
    (Id x Y)(Y x Id)w is 0 or +- a V (x) Alt2 column of the :func:`braid_table`; the
    sides are compared times b d^2, for Y = N / d and q = a / b.
    """
    fld, e = Y.field, unit_tensors(1)
    vxa, _, d = table or braid_table(Y)
    (qn,), qd = integer_coordinates(fld, [q])
    yw = [[0] * 27 if j == k else vxa[i][j + k - 1] if j < k else [-x for x in vxa[i][j + k - 1]]
          for i, j, k in product(range(3), repeat=3)]  # e_j^e_k = +-alt2_basis()[j + k - 1]
    w = [tensor2(e[i], wedge2(e[j], e[k])) for i, j, k in product(range(3), repeat=3)]

    def mismatches():
        for r, t, i, j, k in product(range(3), repeat=5):
            n, c = idx3(i, j, k), idx3(r, r, t)
            if reduce_mod([qd * yw[n][c] - qn * d * d * w[n][c]], fld.characteristic) != [0]:
                yield _witness(fld, {"indices": [i + 1, j + 1, k + 1, r + 1, t + 1]},
                               yw[n][c] * qd, qn * d * d * w[n][c], scale=qd * d * d)

    return CheckReport("component_identity", next(mismatches(), None))


def check_pairing_identities(Y: Matrix, q) -> CheckReport:
    """The two identities for the pairing forms of Y.

    With L[x,y](z) = pair_vt(x, Y(y z)), the coefficient of x ^ Y(y z), read
    off rows 5, 6 and 1 of Y by :func:`~hecke3.heckecore.pairing_coordinates`:

      * L[x,y](z) - L[x,z](y) = (q+1) vol(x,y,z)  (linear in all slots,
        checked on basis triples, times b d for Y = N / d and q = a / b);
      * (L[x,y] ^ L[x,z] - L[x,x] ^ L[y,z])(u,v) = q vol(x,y,z) vol(x,u,v),
        quadratic in x with defect sum c_im x_i x_m, c_im in Z[q, l].  x = e1, e2, e3, e1+e2
        and e1+e3 pin c_11, c_22, c_33, c_12, c_13; each component of c_23 is +- one of theirs
        or the sum of two, so the sample decides the identity exactly (compared times b d^2).
    """
    fld, p, e = Y.field, Y.field.characteristic, unit_tensors(1)
    n, d = Y.integers()
    (a,), b = integer_coordinates(fld, [q])
    ell = pairing_coordinates(n)  # d L

    def vols(x):  # vols(x)[idx2(u, v)] = vol(x, e_u, e_v)
        return [vol(x, e[u], e[v]) for u, v in product(range(3), repeat=2)]

    def mismatches():
        yield from _non_alternating_columns(Y)
        vol_e = [vols(x) for x in e]
        for i, j, k in product(range(3), repeat=3):
            lhs, rhs = reduce_mod([b * (ell[i][j][k] - ell[i][k][j]),
                                   (a + b) * d * vol_e[i][idx2(j, k)]], p)
            if lhs != rhs:
                yield _witness(fld, {"indices": [i + 1, j + 1, k + 1]}, lhs, rhs, scale=b * d,
                               identity="eigenvalue")
        xs = [(f"e{i+1}", e[i]) for i in range(3)] + [(f"e1+e{j+1}", [
            s + t for s, t in zip(e[0], e[j])]) for j in (1, 2)]
        for xname, x in xs:
            # lx[j][u] = d L[x, e_j](e_u) and lxx[u] = d L[x, x](e_u), linear in each x
            lx = [[sum(x[i] * ell[i][j][u] for i in range(3)) for u in range(3)] for j in range(3)]
            lxx = [sum(x[j] * lx[j][u] for j in range(3)) for u in range(3)]
            volx = vols(x)
            for j, k in product(range(3), repeat=2):
                lhs = [b * (s - t) for s, t in zip(wedge2(lx[j], lx[k]), wedge2(lxx, ell[j][k]))]
                c = a * d * d * volx[idx2(j, k)]
                for (u, v), s, t in zip(product(range(3), repeat=2), reduce_mod(lhs, p),
                                        reduce_mod([c * w for w in volx], p)):
                    if s != t:
                        yield _witness(fld, {"x": xname, "indices": [j + 1, k + 1, u + 1, v + 1]},
                                       s, t, scale=b * d * d, identity="wedge")

    return CheckReport("pairing_identities", next(mismatches(), None))


def check_cyclic_shift_identity(Y: Matrix, T: Matrix, q, table=None) -> CheckReport:
    """Y1 Y2(t x) - shift(Y2 Y1(x t)) = 2(q+1) Tx ^ t for basis x and bivectors t.

    Both mixed products land in the alternating cube when shifted against
    each other, and their difference is controlled by the traceless
    operator alone.  Both products are :func:`braid_table` columns.  Compared
    times b m d^2, for Y = N / d, T = M / m, q = a / b.
    """
    fld = Y.field
    vxa, axv, d = table or braid_table(Y)
    (qn,), qd = integer_coordinates(fld, [q])
    tn, td = T.integers()

    def mismatches():
        for i in range(3):
            for t, ytx, yxt in zip(alt2_basis(), axv[i], vxa[i]):  # Y1 Y2(t x), Y2 Y1(x t)
                lhs = reduce_mod([qd * td * (a - b) for a, b in zip(ytx, cyclic_shift(yxt))],
                                 fld.characteristic)
                rhs = wedge_vt(tn[i::3], t)  # tn[i::3] = td T e_i
                rhs = reduce_mod([2 * (qn + qd) * d * d * c for c in rhs], fld.characteristic)
                if lhs != rhs:
                    yield _witness(fld, {"vector": i + 1, "bivector": vector_to_json(fld, t)},
                                   lhs, rhs, scale=qd * td * d * d)

    return CheckReport("cyclic_shift_identity", next(mismatches(), None))


def run_suite(sym: HeckeSymmetry) -> list[CheckReport]:
    """All checks on one symmetry, in a fixed order.

    The traceless operator for the shift identity comes from the extracted
    invariant operator.
    """
    return _suite_and_F(sym)[0]


def _suite_and_F(sym: HeckeSymmetry):
    """The reports of :func:`run_suite` and the extracted F (None when extraction failed)."""
    table = braid_table(sym.Y)  # read by the three degree-3 checks
    reports = [
        check_braid(sym.R),
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


def _random_scalar(field, rng):
    if field.characteristic == 0:
        return field.of(rng.randint(-4, 4))
    return field.of(rng.randint(0, field.characteristic - 1))


def _random_independent_pair(field, rng):
    while True:
        a, b = ([_random_scalar(field, rng) for _ in range(3)] for _ in range(2))
        if any(x != 0 for x in wedge2(a, b)):
            return a, b


def sample_strategy_a(field, rng) -> HeckeData:
    """Generic data with g isotropic on a, so an admissible q always exists.

    In a basis starting with a, the form has a zero corner; the discriminant
    is then -g(a,b)^2 and q = 1 +/- 2 g(a,b) lies in the field.  The nonzero
    root is kept.
    """
    a, b = _random_independent_pair(field, rng)
    # complete a to a basis by the first standard vectors independent of it
    e = std_basis(field)
    pivots = Matrix.from_columns(field, [a] + e).rref()[1]
    B = Matrix.from_columns(field, [a] + [e[p - 1] for p in pivots[1:]])
    v = [_random_scalar(field, rng) for _ in range(5)]
    g_new = Matrix(field, [[field.zero(), v[0], v[1]], [v[0], v[2], v[3]], [v[1], v[3], v[4]]])
    binv = B.inverse()
    g = binv.transpose() * g_new * binv
    gab = g_value(g, a, b)
    q = field.of(1) + 2 * gab
    if q == 0:
        q = field.of(1) - 2 * gab
    return HeckeData(q, a, b, g)


_CANONICAL_Q_POOL = (2, 3, -1, "1/2", 5, "-2/3")


def sample_strategy_b(field, rng) -> HeckeData:
    """A canonical type at an admissible q, transported by a random basis."""
    from .classify import TYPE_LABELS, canonical

    label = rng.choice(TYPE_LABELS)
    if label in ("Type1", "Type2"):
        while True:
            try:
                q = field.of(rng.choice(_CANONICAL_Q_POOL))
            except InputError:
                continue  # denominator vanishes in this field
            if q != 0 and q != 1:
                break
        data = canonical(label, q, field)
    else:
        data = canonical(label, field=field)
    return conjugate_data(data, random_invertible(field, rng))


def sample_adversarial(field, rng):
    """Quadruple of the right shape whose q constraint is deliberately broken.

    Returns (q, a, b, g) such that (q-1)^2 != -4*discriminant; feeding it to
    the raw skewsymmetrizer assembly yields an operator with image in the
    alternating square that cannot satisfy the braid equation.
    """
    while True:
        data = sample_strategy_a(field, rng)
        for i in range(3):
            for j in range(i, 3):
                bump = field.one()
                rows = data.g.rows
                rows[i][j] = rows[i][j] + bump
                if i != j:
                    rows[j][i] = rows[j][i] + bump
                cand = Matrix(field, rows)
                if (data.q - 1) ** 2 != -4 * discriminant(data.a, data.b, cand):
                    return data.q, data.a, data.b, cand
        # every single-entry bump kept the constraint (not expected); resample


def fuzz(field, trials: int, seed: int, strategy: str = "A",
         adversarial: bool = False) -> CheckReport:
    """Deterministic sampling harness running the full suite per trial.

    Per-trial random streams are derived from (seed, trial index), so the
    aggregate is independent of execution order.  In adversarial mode the
    q constraint is broken on purpose and a trial counts as expected when
    the braid or quadratic check fails.
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
        try:  # reports[1] is check_hecke: where it passed, extract_q would verify the candidate
            q = _q_candidate(sym.R) if reports[1].passed else extract_q(sym.R)
            note = None if q == sym.q else "extracted q differs"
        except NoHeckeParameter as exc:  # no q satisfies the relation
            note = str(exc)
        if note:
            failures.append({"trial": trial, "check": "parameter_roundtrip",
                             "witness": {"note": note}})
    name = f"fuzz(field={field.name},strategy={strategy}," \
           f"trials={trials},seed={seed},adversarial={adversarial})"
    witness = {"failures": failures} if failures else None
    return CheckReport(name, witness)
