"""Field-object linear algebra, kept as the reference for the integer kernels of ``linalg``.

Every function here computes entrywise on exact field elements (``Fraction``
or ``Fp``), the way ``Matrix`` did before its products and elimination moved
to Python ints.  The differential tests compare the two on the same inputs.
The zero-skipping Kronecker product, the Tonelli-Shanks square root, the
column-by-column alternation test and the bordered Gram determinant are the
former forms of ``Matrix.kron``, ``PrimeField.sqrt``,
``multilinear.non_alternating_columns`` and ``heckecore.discriminant``; the
skewsymmetrizer assembled entry by entry is that of
``heckecore.skewsymmetrizer_matrix``, and ``q Id - M`` formed entry by entry
checks the ``Matrix`` expression ``Matrix.identity(...).scale(q) - M``.
``extract_F`` is the former field-scalar body of ``heckecore.extract_F``, and
``slot_action`` the former list action of ``multilinear.slot_action``, one
coordinate at a time, which the packed columns of ``multilinear.slot_product``
replaced.  ``delta`` is the former field-scalar -tr(T^2)/2 of ``FOperator.delta``, and
``g_value`` the former ``heckecore.g_value``, which evaluated a form on field scalars.
``t_matrix`` is the former ``heckecore._t_matrix``, which turned the field scalars of t back
into a matrix on each use where ``FOperator.plane`` is now formed once on integers, and
``t_operator_of_F`` multiplies it by g on field products.  ``is_bivector``, ``f_matrix`` and
``is_zero`` are ``FOperator``'s former alternation test, ``matrix`` and ``is_zero`` on the
field scalars of t, and ``ratios`` the former ``fld.of(x) / lm`` of ``extract_F``.
``wedge_vt`` and ``wedge3`` are the former list wedges of ``multilinear``, which built
e1^e2^e3 through two cyclic shifts before ``multilinear._ALT3_UNIT`` was read off ``vol``.
``component_identity`` and ``pairing_identities`` are the former bodies of the verifier's
checks, which reduced each (lhs, rhs) pair mod p on its own where the checks now reduce
each side of a block once.  ``braid`` is the former body of ``verifier.check_braid``, which formed
two slot actions of R and both of R's 3-fold products where the suite now reads the braid off
``braid_table``'s products of Y.  ``unpack`` and ``vanishes_mod`` are the former
``multilinear`` kernels of one packed column each, which read all 27 lanes of a column (over F_p,
every column of a passing braid) where ``multilinear.vanishes_mod`` now decides a batch of
columns with one exact division each.  ``lie_subalgebra`` and ``fingerprint`` are the former bodies of
``cybe.lie_subalgebra`` and ``cybe.fingerprint``, which formed all dim^2 brackets [x_i, x_j] on
each closure pass and ranked all dim^2 rows of the constants, where the package now forms
i < j only, and formed the Killing form at every (i, j), where the package forms i <= j.
``_center_dim`` is the former ``cybe._center_dim``, an elimination of the constants at every
dimension; ``lie_subalgebra`` stores it as ``center_dim``, and ``fingerprint`` reads it.  The
three treated gl(3) like every other carrier, where the package reads its brackets, centre and
ranks off a lemma at dimension 9.
``_witness``, ``columns_witness``, ``column_witness`` and ``_non_alternating_columns`` are the
former witness builders of ``verifier``: ``_witness`` took field scalars as well as integer
coordinates, and each comparison loop was written out by hand where the checks now share
``verifier._first_witness``; the references of this module and of ``test_verifier`` pass field
scalars to ``_witness``.  ``image_and_eigen`` and ``cyclic_shift_identity`` are the former bodies
of ``verifier.check_image_and_eigen`` and ``verifier.check_cyclic_shift_identity``, which reduced
each bivector's block mod p on its own; the latter read any T, of any shape or field.
``canonical_gram`` and ``canonical`` are the former pair of ``classify``, which split a type's
rule for q and its form between two functions where ``classify.canonical`` now states both.
``hecke_residual``, ``check_hecke``, ``check_image_and_eigen``, ``extract_q`` and ``from_matrix``
are the former ``heckecore`` and ``verifier`` bodies, which formed the 9x9 product
(R - q Id)(R + Id) and ranked Y by elimination on every input, where the package reads both off
how Y acts on Alt2 when it acts there as q + 1.  ``non_alternating_columns_unchecked`` is the
former ``multilinear.non_alternating_columns``, which read any operator's first 81 integers in
columns of 9 and so reported a non-9x9 shape as a column of the wrong length.
``checked_form``, ``hecke_data``, ``identity``, ``flip_matrix``, ``of_integers`` and
``column_witness_scanned`` are the former ``heckecore._checked_form`` (its own shape text, and
g against its transpose), ``HeckeData.__post_init__`` (its own length and form checks),
``Matrix.identity`` and ``heckecore.flip_matrix`` (a call per entry), ``Matrix.of_integers``
(any scale taken as it is) and ``verifier.column_witness``, which scanned equal operators too.
"""

import operator
from itertools import product
from math import gcd


from hecke3.classify import Q_FAMILIES, TYPE_LABELS
from hecke3.cybe import LieSubalgebra, _bracket
from hecke3.errors import (
    DimensionMismatch,
    FieldMismatch,
    Hecke3Error,
    InputError,
    InvalidQ,
    NoHeckeParameter,
    NotHeckeSym0,
    SingularMatrix,
)
from hecke3.fields import QQ, Fp, clip
from hecke3.heckecore import FOperator, HeckeData, HeckeSymmetry, _admissible_q, _leading
from hecke3 import multilinear
from hecke3.linalg import Matrix, field_scalars, integer_coordinates, reduce_mod
from hecke3.multilinear import (
    _ALT2_PAIRS,
    _ALT3_UNIT,
    alt2_basis,
    bivector,
    cyclic_shift,
    idx2,
    idx3,
    is_alt2,
    pair_vt,
    pairing_coordinates,
    slot_product,
    std_basis,
    tensor2,
    unit_tensors,
    vol,
    wedge2,
)
from hecke3.jsonio import vector_to_json
from hecke3.verifier import CheckReport, _basis_tensor, _first_witness, braid_table
from hecke3 import verifier


def _witness(field, input, lhs, rhs, scale=1, **head) -> dict:
    """The witness document; a side is text, a scalar or a coordinate list (int n is n / scale)."""

    def side(x):
        if isinstance(x, str):
            return [x]
        xs = x if isinstance(x, list) else [x]
        return vector_to_json(field, xs if scale == 1 else field_scalars(field, xs, scale))

    return {**head, "input": input, "lhs": side(lhs), "rhs": side(rhs)}


def column_witness(lhs: Matrix, rhs: Matrix):
    """The former verifier.column_witness: integer columns over the product of the scales."""
    (a, da), (b, db), n = lhs.integers(), rhs.integers(), lhs.ncols
    columns = (([x * db for x in a[c::n]], [y * da for y in b[c::n]]) for c in range(n))
    return columns_witness(lhs.field, columns, da * db)


def columns_witness(field, columns, scale=1):
    """The witness of the first (lhs, rhs) integer column pair that differs, each n for n / scale."""
    return next((_witness(field, {"basis_tensor": _basis_tensor(c, len(x))}, x, y, scale)
                 for c, (x, y) in enumerate(columns) if x != y), None)


def _non_alternating_columns(Y: Matrix):
    """Witnesses at the columns of Y outside the alternating square, from its field scalars."""
    for c in multilinear.non_alternating_columns(Y):
        yield _witness(Y.field, {"basis_tensor": _basis_tensor(c, 9)}, Y.col(c),
                       "alternating tensor expected")


def mul(a: Matrix, b: Matrix) -> Matrix:
    """a * b by sums of field products, skipping zero entries."""
    if a.ncols != b.nrows:
        raise DimensionMismatch("cannot compose")
    z = a.field.zero()
    out = [[z] * b.ncols for _ in range(a.nrows)]
    for i, arow in enumerate(a.rows):
        orow = out[i]
        for k, aik in enumerate(arow):
            if aik == 0:
                continue
            for j, bkj in enumerate(b.rows[k]):
                if bkj != 0:
                    orow[j] = orow[j] + aik * bkj
    return Matrix(a.field, out)


def apply(a: Matrix, vec):
    """a times a coordinate column, as a plain list."""
    if len(vec) != a.ncols:
        raise DimensionMismatch("vector length")
    z = a.field.zero()
    out = []
    for row in a.rows:
        acc = z
        for x, y in zip(row, vec):
            if x != 0 and y != 0:
                acc = acc + x * y
        out.append(acc)
    return out


def rref(a: Matrix):
    """Reduced row echelon form and pivot tuple, by field division."""
    m = [row[:] for row in a.rows]
    nr, nc = a.nrows, a.ncols
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
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(a.field, m), tuple(pivots)


def det(a: Matrix):
    """Determinant by forward elimination, the product of the pivots."""
    if a.nrows != a.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    m = [row[:] for row in a.rows]
    n = a.nrows
    result = a.field.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return a.field.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        pv = m[c][c]
        result = result * pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def inverse(a: Matrix) -> Matrix:
    """The inverse from the reduced echelon form of [a | Id]."""
    n = a.nrows
    ident = Matrix.identity(a.field, n)
    red, pivots = rref(Matrix(a.field, [row[:] + irow[:] for row, irow in zip(a.rows, ident.rows)]))
    if len(pivots) < n or pivots[:n] != tuple(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix(a.field, [row[n:] for row in red.rows])


def trace(a: Matrix):
    """Sum of the diagonal entries."""
    if a.nrows != a.ncols:
        raise DimensionMismatch("trace of a non-square matrix")
    acc = a.field.zero()
    for i in range(a.nrows):
        acc = acc + a.rows[i][i]
    return acc


def span_coords(ech_rows, v):
    """Coordinates of v in the span given by echelonized rows, or None outside it."""
    coords = []
    for row in ech_rows:
        lead = next(i for i, x in enumerate(row) if x != 0)
        f = v[lead] / row[lead]
        coords.append(f)
        if f != 0:
            v = [x - f * y for x, y in zip(v, row)]
    return coords if all(x == 0 for x in v) else None


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major composite indices, forming only nonzero products."""
    z = a.field.zero()
    n2, m2 = b.nrows, b.ncols
    out = [[z] * (a.ncols * m2) for _ in range(a.nrows * n2)]
    for i, arow in enumerate(a.rows):
        for j, x in enumerate(arow):
            if x == 0:
                continue
            for k, brow in enumerate(b.rows):
                orow = out[i * n2 + k]
                for l, y in enumerate(brow):
                    if y != 0:
                        orow[j * m2 + l] = x * y
    return Matrix(a.field, out)


def sqrt_mod(field, x):
    """Square root in F_p via Tonelli-Shanks, or None for a non-residue; the smaller root."""
    a, p = field.of(x).v, field.p
    if a == 0:
        return Fp(0, p)
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return Fp(min(r, p - r), p)


def non_alternating_columns(op: Matrix):
    """Indices of the columns of a 9x9 operator outside Alt2, tested on field scalars."""
    return [j for j in range(9) if not is_alt2(op.col(j))]


def g_value(g: Matrix, x, y):
    """Evaluate the bilinear form given by a 3x3 matrix: the sum of x_i g_ij y_j."""
    r = g.rows
    return sum((x[i] * r[i][j] * y[j] for i in range(3) for j in range(3)), g.field.zero())


def wedge_vt(x, t):
    """x ^ t for an alternating degree-2 tensor t, extending x ^ (y ^ z) = x ^ y ^ z bilinearly.

    With w = x (x) t the wedge is w + shift(w) + shift^2(w).
    """
    w = tensor2(x, t)
    s = cyclic_shift(w)
    return [a + b + c for a, b, c in zip(w, s, cyclic_shift(s))]


def wedge3(x, y, z):
    """Full alternation of x (x) y (x) z over the six permutations."""
    return wedge_vt(x, wedge2(y, z))


def t_matrix(field, t) -> Matrix:
    """The bivector t as the 3x3 matrix t[3i+j], formed from its field scalars."""
    return Matrix(field, [t[0:3], t[3:6], t[6:9]])


def t_operator_of_F(f_op: FOperator) -> Matrix:
    """t g by sums of field products, t read off the field scalars of ``f_op.t``."""
    return mul(t_matrix(f_op.field, f_op.t), f_op.g)


def is_bivector(t) -> bool:
    """The alternation test on the field scalars of t: t_ii = 0 and t_ij = -t_ji."""
    return is_alt2(t)


def f_matrix(f_op: FOperator) -> Matrix:
    """The 9x9 matrix of F, its entry (r, c) the field product t_r g_c."""
    g = [x for row in f_op.g.rows for x in row]
    return Matrix(f_op.field, [[x * y for y in g] for x in f_op.t])


def is_zero(f_op: FOperator) -> bool:
    """Whether g or the field scalars of t all vanish."""
    return f_op.g.is_zero() or all(x == 0 for x in f_op.t)


def ratios(field, ns, d):
    """The field scalars n / d, each formed by field division: ``field.of(n) / field.of(d)``."""
    dd = field.of(d)
    return [field.of(n) / dd for n in ns]


def delta(f_op: FOperator):
    """-tr(T^2)/2 for T = t g, summed on the field scalars of T's rows."""
    T = t_operator_of_F(f_op).rows
    return -sum(T[i][j] * T[j][i] for i in range(3) for j in range(3)) / 2


def gram_determinant(g: Matrix, t):
    """n^T adj(g) n with n_k = pair_vt(e_k, t): minus the determinant of g bordered by n.

    For t = a^b, n = a x b and this is g(a,a) g(b,b) - g(a,b)^2.
    """
    n = [pair_vt(v, t) for v in std_basis(g.field)]
    bordered = [row + [x] for row, x in zip(g.rows, n)] + [n + [g.field.zero()]]
    return -det(Matrix(g.field, bordered))


def skewsymmetrizer_matrix(q, g: Matrix, t) -> Matrix:
    """Y from the form g and the bivector t, each entry formed from field scalars."""
    fld, e = g.field, unit_tensors(1)
    n = [pair_vt(v, t) for v in e]
    r = g.rows
    half = (q + 1) / 2
    cols = []
    for j in range(3):
        for k in range(3):
            s = [n[k] * r[i][j] + n[j] * r[i][k] - n[i] * r[j][k] + half * vol(e[i], e[j], e[k])
                 for i in range(3)]
            cols.append(bivector(s))
    return Matrix.from_columns(fld, cols)


def q_id_minus(q, M: Matrix) -> Matrix:
    """q Id - M entry by entry on the field scalars of M's rows."""
    q, z = M.field.of(q), M.field.zero()
    return Matrix(M.field, [[(q if i == j else z) - x for j, x in enumerate(row)]
                            for i, row in enumerate(M.rows)])


def extract_F(sym):
    """heckecore.extract_F on field scalars: the halved pairing coordinates of Y as field
    scalars, and rank 1 tested by comparing the 81 products g_ij t with the 9 columns."""
    fld = sym.field
    ell = pairing_coordinates([x for row in sym.Y.rows for x in row])
    cols = [[fld.of(x) for x in bivector([(ell[i][j][k] + ell[j][i][k]) / 2 for k in range(3)])]
            for i in range(3) for j in range(3)]
    lead = next((c for c in cols if any(x != 0 for x in c)), None)
    if lead is None:
        f_op = FOperator(Matrix.zeros(fld, 3), [fld.zero()] * 9)
    else:
        m = next(k for k, x in enumerate(lead) if x != 0)
        g = Matrix(fld, [[cols[3 * i + j][m] for j in range(3)] for i in range(3)])
        f_op = FOperator(g, [x / lead[m] for x in lead])
        gr = g.rows
        if any(gr[i][j] * f_op.t[k] != cols[3 * i + j][k]
               for i in range(3) for j in range(3) for k in range(9)):
            raise NotHeckeSym0("the invariant operator does not have rank 1")
    if (sym.q - 1) ** 2 != -4 * f_op.delta():
        raise NotHeckeSym0("the parameter-discriminant constraint fails for the extracted operator")
    return f_op


def slot_action(op2: Matrix, s: int, t: int):
    """The 9x9 operator op2 = N / d on slots (s, t) of degree-3 tensors, as (act, d).

    act(w) is N acting on the integer coordinates w one coordinate at a time, reduced mod p
    (to the residues nearest zero) over F_p.
    """
    modulus, (n, d) = op2.field.characteristic, op2.integers()
    weight, u = (9, 3, 1), 3 - s - t  # u: the slot left alone
    moves = []  # moves[b]: the (position, coefficient) pairs of N applied to basis tensor b
    for b in range(27):
        digit = (b // 9, b // 3 % 3, b % 3)
        c, base = 3 * digit[s] + digit[t], weight[u] * digit[u]
        moves.append([(base + weight[s] * (r // 3) + weight[t] * (r % 3), n[9 * r + c])
                      for r in range(9) if n[9 * r + c]])

    def act(w):
        out = [0] * 27
        for p, wp in enumerate(w):
            if wp:
                for o, x in moves[p]:
                    out[o] += x * wp
        return reduce_mod(out, modulus)

    return act, d


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


def braid(R: Matrix) -> CheckReport:
    """The former verifier.check_braid: R's own two slot actions and both of R's 3-fold products,
    packed at width 3 bitlen(9m) + 2, times d^3 for R = N / d; over F_p a difference is tested
    lane by lane.  Only the witness column is unpacked."""
    (r1, d, m), (r2, _, _) = multilinear.slot_action(R, 0, 1), multilinear.slot_action(R, 1, 2)
    w, p, zero = 3 * (9 * m).bit_length() + 2, R.field.characteristic, [0] * 27
    columns = (((unpack(x, w, p), unpack(y, w, p))
                if x != y and (not p or not vanishes_mod(x - y, w, p)) else (zero, zero))
               for x, y in zip(slot_product((r1, r2, r1), w), slot_product((r2, r1, r2), w)))
    return CheckReport("braid", columns_witness(R.field, columns, d ** 3))


def component_identity(Y: Matrix, q, table=None):
    """verifier.check_component_identity with each (lhs, rhs) pair reduced mod p on its own."""
    vxa, _, d, _ = table or braid_table(Y, q)
    (a,), b = integer_coordinates(Y.field, [q])
    p = Y.field.characteristic

    def mismatches():
        for r, t, i in product(range(3), repeat=3):
            c, rt = idx3(r, r, t), idx2(r, t)
            for (j, k), s, col in zip(_ALT2_PAIRS, alt2_basis(), vxa[i]):
                lhs, rhs = reduce_mod([b * col[c], a * d * d * s[rt] if i == r else 0], p)
                if lhs != rhs:
                    yield _witness(Y.field, {"indices": [i + 1, j + 1, k + 1, r + 1, t + 1]},
                                   lhs, rhs, scale=b * d * d)

    return CheckReport("component_identity", next(mismatches(), None))


def image_and_eigen(Y: Matrix, q):
    """The former verifier.check_image_and_eigen: one reduction per bivector's block."""
    (n, d), fld, p = Y.integers(), Y.field, Y.field.characteristic

    def mismatches():
        yield from _non_alternating_columns(Y)
        rk = Y.rank()
        if rk != 3:
            yield _witness(fld, {"rank": rk}, str(rk), "3")
        (a,), b = integer_coordinates(fld, [q])
        for (j, k), w in zip(_ALT2_PAIRS, alt2_basis()):
            got = reduce_mod([b * (x - y) for x, y in zip(n[idx2(j, k)::9], n[idx2(k, j)::9])], p)
            want = reduce_mod([(a + b) * d * c for c in w], p)
            if got != want:
                yield _witness(fld, {"bivector": vector_to_json(fld, w)}, got, want, scale=b * d)

    return CheckReport("image_eigen", next(mismatches(), None))


def cyclic_shift_identity(Y: Matrix, T: Matrix, q, table=None):
    """The former verifier.check_cyclic_shift_identity: one reduction per (vector, bivector)."""
    fld, p = Y.field, Y.field.characteristic
    vxa, axv, d, _ = table or braid_table(Y, q)
    (qn,), qd = integer_coordinates(fld, [q])
    tn, td = T.integers()

    def mismatches():
        for i in range(3):
            for t, ytx, yxt in zip(alt2_basis(), axv[i], vxa[i]):  # Y1 Y2(t x), Y2 Y1(x t)
                lhs = reduce_mod([qd * td * (a - b) for a, b in zip(ytx, cyclic_shift(yxt))], p)
                c = 2 * (qn + qd) * d * d * pair_vt(tn[i::3], t)  # tn[i::3] = td T e_i
                rhs = reduce_mod([c * s for s in _ALT3_UNIT], p)
                if lhs != rhs:
                    yield _witness(fld, {"vector": i + 1, "bivector": vector_to_json(fld, t)},
                                   lhs, rhs, scale=qd * td * d * d)

    return CheckReport("cyclic_shift_identity", next(mismatches(), None))


def pairing_identities(Y: Matrix, q):
    """verifier.check_pairing_identities with each (lhs, rhs) pair reduced mod p on its own."""
    fld, p, e = Y.field, Y.field.characteristic, unit_tensors(1)
    n, d = Y.integers()
    (a,), b = integer_coordinates(fld, [q])
    ell = pairing_coordinates(n)  # d L

    def mismatches():
        yield from _non_alternating_columns(Y)
        for i, j, k in product(range(3), repeat=3):
            lhs, rhs = reduce_mod([b * (ell[i][j][k] - ell[i][k][j]),
                                   (a + b) * d * _ALT3_UNIT[idx3(i, j, k)]], p)
            if lhs != rhs:
                yield _witness(fld, {"indices": [i + 1, j + 1, k + 1]}, lhs, rhs, scale=b * d,
                               identity="eigenvalue")
        xs = [(f"e{i+1}", e[i]) for i in range(3)] + [(f"e1+e{j+1}", [
            s + t for s, t in zip(e[0], e[j])]) for j in (1, 2)]
        for xname, x in xs:
            lx = [[sum(x[i] * ell[i][j][u] for i in range(3)) for u in range(3)] for j in range(3)]
            lxx = [sum(x[j] * lx[j][u] for j in range(3)) for u in range(3)]
            volx = bivector(x)
            for (j, k), (u, v) in product(product(range(3), repeat=2), _ALT2_PAIRS):
                s, t = reduce_mod([b * (lx[j][u] * lx[k][v] - lx[j][v] * lx[k][u]
                                        - lxx[u] * ell[j][k][v] + lxx[v] * ell[j][k][u]),
                                   a * d * d * volx[idx2(j, k)] * volx[idx2(u, v)]], p)
                if s != t:
                    yield _witness(fld, {"x": xname, "indices": [j + 1, k + 1, u + 1, v + 1]},
                                   s, t, scale=b * d * d, identity="wedge")

    return CheckReport("pairing_identities", next(mismatches(), None))


def lie_subalgebra(field, generators) -> LieSubalgebra:
    """cybe.lie_subalgebra forming and testing every bracket [x_i, x_j], i and j in range(dim)."""
    if any(m.field != field for m in generators):
        raise FieldMismatch(f"a generator of a {field.name} subalgebra lies over another field")
    if any(m.nrows != 3 or m.ncols != 3 for m in generators):
        raise DimensionMismatch("a generator of a subalgebra of gl(3) must be 3x3")
    rows, grew, dim, p = [m.integers()[0] for m in generators], False, None, field.characteristic
    while True:
        red, leads = Matrix.of_integers(field, len(rows), 9, [x for r in rows for x in r]).rref()
        if len(leads) == dim:
            raise Hecke3Error("internal inconsistency: brackets outside the span did not grow it")
        (n, d), dim = red.integers(), len(leads)
        basis = [n[9 * k:9 * k + 9] for k in range(dim)]
        free = [t for t in range(9) if t not in leads]
        brackets = [_bracket(x, y) for x in basis for y in basis]
        consts = [[b[lead] for lead in leads] for b in brackets]
        new = [b for b, c in zip(brackets, consts)
               if any(reduce_mod([d * b[t] - sum(ck * v[t] for ck, v in zip(c, basis))
                                  for t in free], p))]
        if not new:
            break
        grew, rows = True, basis + new
    constants = Matrix.of_integers(field, dim * dim, dim, [x for c in consts for x in c], d * d)
    L = LieSubalgebra(field, tuple(Matrix.of_integers(field, 3, 3, v, d) for v in basis),
                      constants, grew)
    object.__setattr__(L, "center_dim", _center_dim(L))
    return L


def _center_dim(L: LieSubalgebra) -> int:
    """cybe._center_dim eliminating the constants at every dimension, gl(3) included."""
    d = L.dim  # the constants read as d x d^2 have row i = every c[i][j][k]
    return d - Matrix.of_integers(L.field, d, d * d, L.constants.integers()[0]).rank()


def fingerprint(L: LieSubalgebra):
    """cybe.fingerprint ranking all dim^2 rows of the constants, Killing form at every (i, j)."""
    d = L.dim
    if d == 0:
        return (0, 0, 0, 0)
    n, _ = L.constants.integers()
    C = [n[i * d * d:(i + 1) * d * d] for i in range(d)]
    adT = [[x for k in range(d) for x in Ci[k::d]] for Ci in C]
    killing = [sum(map(operator.mul, adT[i], C[j])) for i in range(d) for j in range(d)]
    killing_rank = Matrix.of_integers(L.field, d, d, killing).rank()
    return (d, L.constants.rank(), _center_dim(L), killing_rank)


def canonical_gram(label: str, q=None, field=QQ) -> Matrix:
    """The canonical form matrix of a type (q needed for Types 1 and 2)."""
    if label not in TYPE_LABELS:
        raise InputError(f"unknown type label {clip(repr(label))}")
    if label in Q_FAMILIES:
        if q is None:
            raise InvalidQ(f"{label} needs an explicit q")
        q = field.of(q)
        if q == 0 or q == 1:
            raise InvalidQ(f"{label} needs q outside {{0, 1}}")
        s = (q - 1) / 2
        return Matrix.from_rows(field, [[0, s, 0], [s, 0, 0], [0, 0, int(label == "Type1")]])
    grams = {
        "Type3": [1, 0, 0, 0, 0, 1, 0, 1, 0],
        "Type4": [1, 0, 0, 0, 0, 0, 0, 0, 1],
        "Type5": [1, 0, 0, 0, 0, 0, 0, 0, 0],
        "Type6": [0, 0, 0, 0, 0, 1, 0, 1, 0],
        "Type7": [0, 0, 0, 0, 0, 0, 0, 0, 1],
        "Type8": [0, 0, 0, 0, 0, 0, 0, 0, 0],
    }
    return Matrix.of_integers(field, 3, 3, grams[label])


def canonical(label: str, q=None, field=QQ) -> HeckeData:
    """Canonical quadruple of a type, its form from ``canonical_gram``."""
    g = canonical_gram(label, q if label in Q_FAMILIES else None, field)
    e = std_basis(field)
    if label in Q_FAMILIES:
        return HeckeData(q, e[0], e[1], g)
    if q is not None and field.of(q) != 1:
        raise InvalidQ(f"{label} exists only at q = 1")
    return HeckeData(field.one(), e[0], e[1], g)


def hecke_residual(R: Matrix, q) -> Matrix:
    """The former heckecore.hecke_residual: (R - q Id)(R + Id), a 9x9 product on every input."""
    Id = Matrix.identity(R.field, 9)
    return (R - Id.scale(q)) * (R + Id)


def check_hecke(R: Matrix, q) -> CheckReport:
    """The former verifier.check_hecke, on the product of :func:`hecke_residual`."""
    return CheckReport("hecke", verifier.column_witness(hecke_residual(R, q),
                                                        Matrix.zeros(R.field, 9)))


def non_alternating_columns_unchecked(op: Matrix):
    """The former multilinear.non_alternating_columns: no shape check, so the columns of a
    non-9x9 operator reach is_alt2 with 1, 3 or 81 coordinates and raise there."""
    n = reduce_mod(op.integers()[0], op.field.characteristic)
    return [c for c in range(9) if not is_alt2(n[c::9])]


def check_image_and_eigen(Y: Matrix, q) -> CheckReport:
    """The former verifier.check_image_and_eigen: alternation, then the rank by elimination, then
    b (column jk - column kj of N) = (a + b) d (e_j ^ e_k) for Y = N / d and q = a / b."""
    (n, d), fld, basis = Y.integers(), Y.field, alt2_basis()

    def alternation():
        bad = non_alternating_columns_unchecked(Y)
        return verifier._witness(fld, {"basis_tensor": _basis_tensor(bad[0], 9)}, n[bad[0]::9],
                                 "alternating tensor expected", d) if bad else None

    def eigen():  # q is read only after the image test
        (a,), b = integer_coordinates(fld, [q])
        return _first_witness(fld, [b * (x - y) for j, k in _ALT2_PAIRS
                                    for x, y in zip(n[idx2(j, k)::9], n[idx2(k, j)::9])],
                              [(a + b) * d * c for w in basis for c in w], b * d,
                              lambda s: {"bivector": vector_to_json(fld, basis[s])}, 9)

    return CheckReport("image_eigen", alternation() or (rk := Y.rank()) != 3
                       and verifier._witness(fld, {"rank": rk}, str(rk), "3") or eigen())


def extract_q(R: Matrix):
    """The former heckecore.extract_q, verified by the product of :func:`hecke_residual`."""
    M = R + Matrix.identity(R.field, 9)
    col, m = _leading(M.col(j) for j in range(M.ncols))
    if col is None:
        raise NoHeckeParameter("R = -Id: every q satisfies the relation")
    q = R.apply(col)[m] / col[m]
    if not hecke_residual(R, q).is_zero():
        raise NoHeckeParameter("no q satisfies the quadratic Hecke relation")
    return q


def from_matrix(R: Matrix, q=None) -> HeckeSymmetry:
    """The former HeckeSymmetry.from_matrix: the relation by a product, then rank Y = 3 by
    elimination."""
    if R.nrows != 9 or R.ncols != 9:
        raise InputError("R must be a 9x9 matrix")
    if q is None:
        try:
            q = extract_q(R)
        except NoHeckeParameter as exc:
            raise NotHeckeSym0(str(exc)) from exc
    elif not hecke_residual(R, q).is_zero():
        raise NotHeckeSym0("the quadratic Hecke relation fails for the given q")
    sym = HeckeSymmetry(R, q)
    if sym.Y.rank() != 3:
        raise NotHeckeSym0("the skewsymmetrizer image is not the full alternating square")
    return sym


def checked_form(g: Matrix) -> Matrix:
    """The former heckecore._checked_form: its own 3x3 text, then g against its transpose."""
    if g.nrows != 3 or g.ncols != 3:
        raise InputError("bilinear form must be 3x3")
    if g != g.transpose():
        raise InputError("bilinear form must be symmetric")
    return g


def hecke_data(q, a, b, g):
    """The former HeckeData.__post_init__, as the pair (q, t) it stored."""
    if len(a) != 3 or len(b) != 3:
        raise InputError("a and b must be 3-dimensional vectors")
    fld = checked_form(g).field
    (an, ad), (bn, bd) = integer_coordinates(fld, a), integer_coordinates(fld, b)
    t = field_scalars(fld, wedge2(an, bn), ad * bd)
    return _admissible_q(q, FOperator(g, t)), t


def of_integers(field, nrows, ncols, N, d=1):
    """The former Matrix.of_integers, as the pair (N, d) it stored: any scale taken as it is."""
    if len(N) != nrows * ncols:
        raise DimensionMismatch(f"a {nrows}x{ncols} matrix from {len(N)} entries")
    if p := field.characteristic:
        inv = pow(d, -1, p)
        return [x % p for x in N] if inv == 1 else [x * inv % p for x in N], 1
    if (g := gcd(d, *N)) != 1:
        return [x // g for x in N], d // g
    return N, d


def identity(field, n) -> Matrix:
    """The former Matrix.identity: one int(...) per entry."""
    return Matrix.of_integers(field, n, n, [int(c % (n + 1) == 0) for c in range(n * n)])


def flip_matrix(field) -> Matrix:
    """The former heckecore.flip_matrix: one int(...) per entry."""
    return Matrix.of_integers(field, 9, 9, [int(c == idx2(j, i)) for i in range(3)
                                            for j in range(3) for c in range(9)])


def column_witness_scanned(lhs: Matrix, rhs: Matrix):
    """The former verifier.column_witness: equal operators are reduced and scanned too."""
    if (lhs.nrows, lhs.ncols) != (rhs.nrows, rhs.ncols):
        raise DimensionMismatch(f"{lhs.nrows}x{lhs.ncols} vs {rhs.nrows}x{rhs.ncols}")
    lhs._same_field(rhs)
    (a, da), (b, db), n = lhs.integers(), rhs.integers(), lhs.ncols
    return _first_witness(lhs.field, [x * db for c in range(n) for x in a[c::n]],
                          [y * da for c in range(n) for y in b[c::n]], da * db,
                          lambda c: {"basis_tensor": _basis_tensor(c, n)}, n)
