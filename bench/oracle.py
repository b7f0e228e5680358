"""Independent exact arithmetic used to build and label benchmark inputs.

Nothing here imports hecke3, so an input's expected outcome does not depend
on the code under test.  Matrices are lists of rows.  Over Q the entries are
``Fraction`` values; over F_p they are ``int`` residues in ``[0, p)`` and
every function takes the modulus ``p`` (``None`` means Q).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b, p=None):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols] for row in a]
    return reduce_mod(out, p)


def kron(a, b):
    """Kronecker product with row-major composite indices."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def lin(c1, a, c2, b, p=None):
    """The combination c1*a + c2*b of two matrices of one shape."""
    out = [[c1 * x + c2 * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return reduce_mod(out, p)


def reduce_mod(m, p):
    if p is None:
        return m
    return [[x % p for x in row] for row in m]


def to_fp(x, p):
    """The residue of a rational number modulo p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def inverse3(m):
    """Inverse of an invertible 3x3 matrix over Q, via the adjugate."""
    d = Fraction(det3(m))
    adj = [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)] for i in range(3)]
    return [[x / d for x in row] for row in adj]


def random_invertible3(rng, bound=3):
    """A random 3x3 integer matrix with entries in [-bound, bound] and det != 0."""
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
        if det3(m) != 0:
            return m


def conjugate(R, P):
    """(P x P) R (P x P)^-1 over Q for an integer basis change P."""
    Pinv = inverse3(P)
    return mat_mul(mat_mul(kron(P, P), R), kron(Pinv, Pinv))


def flip9():
    f = [[0] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            f[3 * j + i][3 * i + j] = 1
    return f


def projection_onto_alt2(G):
    """A projection of V (x) V onto Alt2 along a complement chosen by G.

    With A = (1 - flip)/2 and S = (1 + flip)/2, P = A (1 - G S) is
    idempotent, maps into Alt2 and fixes Alt2 (S A = 0, A A = A); its
    kernel is the graph {s - A G s : s in Sym2}, a complement of Alt2.
    """
    half = Fraction(1, 2)
    one, f = identity(9), flip9()
    A = lin(half, one, -half, f)
    S = lin(half, one, half, f)
    return mat_mul(A, lin(1, one, -1, mat_mul(G, S)))


def _slot_action(R, w, first):
    """Apply R to slots (1,2) (first=True) or (2,3) of a degree-3 tensor."""
    out = [0] * 27
    for pos, x in enumerate(w):
        if x == 0:
            continue
        i, j, k = pos // 9, pos // 3 % 3, pos % 3
        col = 3 * i + j if first else 3 * j + k
        for row in range(9):
            c = R[row][col]
            if c:
                a, b = divmod(row, 3)
                out[9 * a + 3 * b + k if first else 9 * i + 3 * a + b] += c * x
    return out


def _integral(R, p):
    """Integer entries with the same braid behaviour as R.

    The braid equation is homogeneous of degree 3, so over Q a matrix may
    be scaled by the common denominator of its entries.
    """
    if p is not None:
        return R
    d = lcm(*(Fraction(x).denominator for row in R for x in row))
    return [[int(x * d) for x in row] for row in R]


def braid_holds(R, p=None):
    """Whether R12 R23 R12 = R23 R12 R23 on every basis tensor."""
    Ri = _integral(R, p)
    for pos in range(27):
        w = [0] * 27
        w[pos] = 1
        lhs = _slot_action(Ri, _slot_action(Ri, _slot_action(Ri, w, True), False), True)
        rhs = _slot_action(Ri, _slot_action(Ri, _slot_action(Ri, w, False), True), False)
        if p is not None:
            lhs = [x % p for x in lhs]
            rhs = [x % p for x in rhs]
        if lhs != rhs:
            return False
    return True


def quadratic_fails_for_every_q(R, p=None):
    """Whether no scalar q satisfies (R - q)(R + 1) = 0.

    Any such q acts as an eigenvalue of R on every nonzero column of R + 1,
    so the first nonzero column fixes the only candidate.
    """
    M = lin(1, R, 1, identity(9), p)
    cols = [c for c in zip(*M) if any(c)]
    if not cols:
        return False
    c = list(cols[0])
    Rc = [sum(x * y for x, y in zip(row, c)) for row in R]
    m = next(i for i, x in enumerate(c) if x)
    if p is None:
        q = Rc[m] / c[m]
        if Rc != [q * x for x in c]:
            return True
    else:
        q = Rc[m] * pow(c[m], -1, p) % p
        if [x % p for x in Rc] != [q * x % p for x in c]:
            return True
    return any(any(row) for row in mat_mul(lin(1, R, -q, identity(9), p), M, p))
