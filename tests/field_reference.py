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
each side of a block once.  ``lie_subalgebra`` and ``fingerprint`` are the former bodies of
``cybe.lie_subalgebra`` and ``cybe.fingerprint``, which formed all dim^2 brackets [x_i, x_j] on
each closure pass and ranked all dim^2 rows of the constants, where the package now forms
i < j only, and formed the Killing form at every (i, j), where the package forms i <= j.
"""

import operator
from itertools import product


from hecke3.cybe import LieSubalgebra, _bracket
from hecke3.errors import (
    DimensionMismatch,
    FieldMismatch,
    Hecke3Error,
    NotHeckeSym0,
    SingularMatrix,
)
from hecke3.fields import Fp
from hecke3.heckecore import FOperator
from hecke3.linalg import Matrix, integer_coordinates, reduce_mod
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
    std_basis,
    tensor2,
    unit_tensors,
    vol,
    wedge2,
)
from hecke3.verifier import CheckReport, _non_alternating_columns, _witness, braid_table


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


def component_identity(Y: Matrix, q, table=None):
    """verifier.check_component_identity with each (lhs, rhs) pair reduced mod p on its own."""
    vxa, _, d = table or braid_table(Y)
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
    return LieSubalgebra(field, tuple(Matrix.of_integers(field, 3, 3, v, d) for v in basis),
                         constants, grew)


def fingerprint(L: LieSubalgebra):
    """cybe.fingerprint ranking all dim^2 rows of the constants, Killing form at every (i, j)."""
    d = L.dim
    if d == 0:
        return (0, 0, 0, 0)
    n, _ = L.constants.integers()
    C = [n[i * d * d:(i + 1) * d * d] for i in range(d)]
    adT = [[x for k in range(d) for x in Ci[k::d]] for Ci in C]
    killing = [sum(map(operator.mul, adT[i], C[j])) for i in range(d) for j in range(d)]
    return (d, L.constants.rank(), L.center_dim, Matrix.of_integers(L.field, d, d, killing).rank())
