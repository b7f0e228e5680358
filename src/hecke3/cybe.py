"""Classical r-matrices of Hecke symmetries and their carrier subalgebras.

The classical limit of a symmetry R is r = R0 R - Id, an element of
gl(V) (x) gl(V).  It always solves the classical Yang-Baxter equation

    [r12, r13] + [r12, r23] + [r13, r23] = 0,

and its symmetrization is pinned by r + r21 = (q - 1)(R0 + Id), so r is
skewsymmetric exactly at q = 1.  The carrier is the smallest Lie subalgebra
L of gl(V) with r in L (x) L: operationally, the bracket closure of the
span of the factors of a minimal tensor decomposition of r.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, combinations_with_replacement, product
from operator import mul

from .errors import DimensionMismatch, FieldMismatch, Hecke3Error
from .linalg import Matrix, field_scalars, reduce_mod
from .heckecore import HeckeSymmetry, flip_matrix
from .jsonio import matrix_to_json, vector_to_json
from .multilinear import slot_action, slot_product
from .verifier import CheckReport, column_witness, packed_witness

__all__ = [
    "GlTensor",
    "gl_tensor",
    "classical_r",
    "r21",
    "check_cybe",
    "check_symmetrized",
    "LieSubalgebra",
    "carrier",
    "lie_subalgebra",
    "is_frobenius",
    "FrobeniusResult",
    "fingerprint",
]

# row 9 (3i + j) + 3k + l: [E_ij, E_kl] = d_jk E_il - d_li E_kj on the unit basis E_11, ..., E_33
_GL3_CONSTANTS = [int(j == k and c == 3 * i + l) - int(l == i and c == 3 * k + j)
                  for i, j, k, l in product(range(3), repeat=4) for c in range(9)]


@dataclass(frozen=True)
class GlTensor:
    """A 9x9 operator together with a minimal decomposition sum a_i (x) b_i.

    The decomposition length equals the rank of the flattening, and
    reassembling it reproduces the matrix exactly.
    """

    matrix: Matrix
    left: tuple
    right: tuple

    @property
    def field(self):
        return self.matrix.field

    def to_json(self) -> dict:
        return {
            "matrix": matrix_to_json(self.matrix),
            "left": [matrix_to_json(m) for m in self.left],
            "right": [matrix_to_json(m) for m in self.right],
        }


def _flatten(m: Matrix) -> Matrix:
    """Permute the operator entries so simple tensors become rank-1 blocks."""
    n, d, r = *m.integers(), range(3)
    return Matrix.of_integers(m.field, 9, 9, [n[9 * (3 * i + k) + 3 * j + l]
                                              for i in r for j in r for k in r for l in r], d)


def gl_tensor(m: Matrix) -> GlTensor:
    """Attach a minimal simple-tensor decomposition to a 9x9 operator.

    Rank factorization of the flattening: pivot columns give the left
    factors, reduced rows the right factors.
    """
    if m.nrows != 9 or m.ncols != 9:
        raise DimensionMismatch(f"gl(3) (x) gl(3) element must be 9x9, got {m.nrows}x{m.ncols}")
    fld, flat = m.field, _flatten(m)
    red, pivots = flat.rref()
    (fn, fd), (rn, rd) = flat.integers(), red.integers()
    left = tuple(Matrix.of_integers(fld, 3, 3, fn[c::9], fd) for c in pivots)
    right = tuple(Matrix.of_integers(fld, 3, 3, rn[9 * r:9 * r + 9], rd)
                  for r in range(len(pivots)))
    return GlTensor(m, left, right)


def classical_r(sym: HeckeSymmetry) -> GlTensor:
    """The classical r-matrix R0 R - Id of a Hecke symmetry."""
    fld = sym.field
    return gl_tensor(flip_matrix(fld) * sym.R - Matrix.identity(fld, 9))


def r21(t: GlTensor) -> Matrix:
    """Swap of the two tensor factors, the 9x9 matrix R0 r R0."""
    r0 = flip_matrix(t.field)
    return r0 * t.matrix * r0


def check_cybe(t: GlTensor) -> CheckReport:
    """Classical Yang-Baxter equation on the third tensor power.

    r12, r13 and r23 are r acting on slots (1,2), (1,3) and (2,3); the sum of the three
    commutators is formed on packed columns, times d^2 for r = N / d, and decided by
    :func:`~hecke3.verifier.packed_witness`: only the witness column unpacks.
    """
    (r12, d, m), (r13, _, _), (r23, _, _) = (slot_action(t.matrix, *s)
                                             for s in ((0, 1), (0, 2), (1, 2)))
    w, total = 2 * (9 * m).bit_length() + 4, [0] * 27
    for x, y in ((r12, r13), (r12, r23), (r13, r23)):
        total = [s + a - b for s, a, b in zip(total, slot_product((x, y), w),
                                              slot_product((y, x), w))]
    return CheckReport("cybe", packed_witness(t.field, total, [0] * 27, w, d * d))


def check_symmetrized(t: GlTensor, q) -> CheckReport:
    """r + r21 = (q - 1)(R0 + Id) as a 9x9 identity; the caller's q is read, not tested."""
    fld = t.field
    lhs = t.matrix + r21(t)
    rhs = (flip_matrix(fld) + Matrix.identity(fld, 9)).scale(fld.of(q) - 1)
    return CheckReport("symmetrized", column_witness(lhs, rhs))


@dataclass(frozen=True)
class LieSubalgebra:
    """A bracket-closed subalgebra of gl(3) with an echelonized basis.

    ``constants`` is the dim^2 x dim matrix whose row dim * i + j holds the coordinates
    of [x_i, x_j] in the basis, from the last pass of the closure: formed for i < j, the
    negation of row dim * j + i for i > j, and 0 for i = j; ``center_dim`` is derived once.
    """

    field: object
    basis: tuple          # 3x3 matrices, canonical echelon order
    constants: Matrix
    closure_grew: bool = False
    center_dim: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center_dim", _center_dim(self))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [matrix_to_json(m) for m in self.basis],
            "closure_grew": self.closure_grew,
        }


def _bracket(x, y):
    """xy - yx for 3x3 matrices given as row-major coordinate lists."""
    return [sum(x[3 * i + k] * y[3 * k + j] - y[3 * i + k] * x[3 * k + j] for k in range(3))
            for i in range(3) for j in range(3)]


def lie_subalgebra(field, generators) -> LieSubalgebra:
    """Bracket closure of the span of the given 3x3 matrices.

    On the echelon basis N_k / d, a bracket B / d^2 has coordinates B[lead_k] / d^2
    (pivot columns) and lies in the span iff d B = sum_k B[lead_k] N_k (mod p).  Each pass
    forms and tests [x_i, x_j] for i < j only, but a pass at dimension 9 forms none: over every
    field a 9-dimensional subspace of gl(3) is gl(3), closed, with the echelon basis E_11, ...,
    E_33 at d = 1 (nine leads in nine columns) and the constants ``_GL3_CONSTANTS``.
    """
    if any(m.field != field for m in generators):
        raise FieldMismatch(f"a generator of a {field.name} subalgebra lies over another field")
    if any(m.nrows != 3 or m.ncols != 3 for m in generators):
        raise DimensionMismatch("a generator of a subalgebra of gl(3) must be 3x3")
    # a generator N / e spans the line of its integer coordinates N
    rows, grew, dim, p = [m.integers()[0] for m in generators], False, None, field.characteristic
    while True:
        red, leads = Matrix.of_integers(field, len(rows), 9, [x for r in rows for x in r]).rref()
        if len(leads) == dim:
            raise Hecke3Error("internal inconsistency: brackets outside the span did not grow it")
        (n, d), dim = red.integers(), len(leads)
        basis = [n[9 * k:9 * k + 9] for k in range(dim)]
        if dim == 9:  # gl(3), by the lemma above
            constants = Matrix.of_integers(field, 81, 9, _GL3_CONSTANTS)
            break
        free = [t for t in range(9) if t not in leads]  # d B = sum_k ... holds at the leads
        brackets = [_bracket(x, y) for x, y in combinations(basis, 2)]
        consts = [[b[lead] for lead in leads] for b in brackets]
        new = [b for b, c in zip(brackets, consts)
               if any(reduce_mod([d * b[t] - sum(ck * v[t] for ck, v in zip(c, basis))
                                  for t in free], p))]
        if not new:
            break
        grew, rows = True, basis + new
    if dim < 9:
        upper = dict(zip(combinations(range(dim), 2), consts))  # [x_j, x_i] = -[x_i, x_j]
        full = [upper[i, j] if i < j else [-x for x in upper[j, i]] if j < i else [0] * dim
                for i in range(dim) for j in range(dim)]
        constants = Matrix.of_integers(field, dim * dim, dim, [x for c in full for x in c], d * d)
    return LieSubalgebra(field, tuple(Matrix.of_integers(field, 3, 3, v, d) for v in basis),
                         constants, grew)


def carrier(t: GlTensor) -> LieSubalgebra:
    """Smallest bracket-closed subalgebra containing both factor spans."""
    return lie_subalgebra(t.field, list(t.left) + list(t.right))


@dataclass(frozen=True)
class FrobeniusResult:
    """Outcome of the Frobenius decision."""

    status: str            # "yes" | "no" | "not_applicable"
    witness: tuple | None  # functional coordinates in the echelon basis

    def to_json(self, field) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None
            else vector_to_json(field, self.witness),
        }


def _center_dim(L: LieSubalgebra) -> int:
    """Dimension of the centre: sum a_i x_i is central iff sum_i a_i c[i][j] = 0 for all j.

    At d = 9, gl(3), it is 1 over every field: x E_ij = E_ij x for all i, j forces x = c Id."""
    d, (n, _) = L.dim, L.constants.integers()  # read as d x d^2: row i = every c[i][j][k]
    return 1 if d == 9 else d - Matrix.of_integers(L.field, d, d * d, n).rank()


def _functionals(field, d: int):
    """A finite set of integer functionals holding a witness whenever the field has one.

    Unit functionals, then 0/1 sums in increasing mask order: these hold the
    witnesses of the carriers of the eight types.  Then, with m = d/2: when
    1, ..., m are invertible, every f in Z>=0^d with sum m (the degree-m
    lattice of the simplex, unisolvent for the degree-m Pfaffian on that
    hyperplane); otherwise all of F_p^d.
    """
    for k in range(d):
        yield [int(i == k) for i in range(d)]
    for mask in range(1, 1 << d):
        if mask.bit_count() >= 2:
            yield [mask >> k & 1 for k in range(d)]
    m, p = d // 2, field.characteristic
    if p == 0 or p > m:
        # stars and bars: d - 1 bars among m + d - 1 places
        ends = ((-1,) + bars + (m + d - 1,) for bars in combinations(range(m + d - 1), d - 1))
        points = ([b - a - 1 for a, b in zip(e, e[1:])] for e in ends)
    else:
        # p = 3, d = 6 or 8: at d = 8 the 330 quartics have rank 301 on the 451 points
        # above mod 3 but 302 on F_3^8 (d = 6 would do, 56 of 56; one rule serves both)
        points = product(range(p), repeat=d)
    for f in points:
        if max(f) > 1:  # every 0/1 vector was tried above
            yield list(f)


def is_frobenius(L: LieSubalgebra) -> FrobeniusResult:
    """Decide whether some functional f makes (x, y) |-> f([x, y]) nondegenerate.

    Odd dimension admits no nondegenerate alternating form.  A nonzero
    centre lies in the kernel of every such form: an exact negative.
    Otherwise det B_f = Pf(B_f)^2 with Pf a form of degree d/2 in f, and
    :func:`_functionals` holds a witness whenever the field has one, so a
    nonzero determinant is a witness and none at all is an exact negative.
    """
    if L.dim == 0:
        return FrobeniusResult("yes", ())
    if L.dim % 2 == 1:
        return FrobeniusResult("not_applicable", None)
    if L.center_dim:
        return FrobeniusResult("no", None)
    fld, d, (n, e) = L.field, L.dim, L.constants.integers()
    # the nonzero structure constants of each bracket, found once for every f
    terms = [[(k, x) for k, x in enumerate(n[r:r + d]) if x] for r in range(0, d * d * d, d)]
    for f in _functionals(fld, d):
        form = Matrix.of_integers(fld, d, d, [sum(f[k] * x for k, x in t) for t in terms], e)
        if form.det() != 0:
            return FrobeniusResult("yes", tuple(field_scalars(fld, f)))
    return FrobeniusResult("no", None)


def fingerprint(L: LieSubalgebra):
    """(dim, dim of derived algebra, dim of center, rank of Killing form).

    The first three invariants do not separate all carrier subalgebras that
    occur here (two of the dimension-4 carriers share them), so the Killing
    rank is included; the quadruple is a strictly finer isomorphism
    invariant and separates all six.  At d = 9, gl(3), its derived algebra is sl(3)
    (E_ij = [E_ii, E_ij] and E_ii - E_jj = [E_ij, E_ji] for i != j) and its Killing form is
    6 tr(xy) - 2 tr(x) tr(y), with the scalars as kernel except over F_3: -2 tr(x) tr(y).
    """
    d = L.dim
    if d == 9:
        return (9, 8, 1, 1 if L.field.characteristic == 3 else 8)
    # trace(ad_i ad_j) = sum_{k,m} c[i][m][k] c[j][k][m], on integers c = C / e
    n, _ = L.constants.integers()
    C = [n[i * d * d:(i + 1) * d * d] for i in range(d)]  # C[j][k * d + m] = c[j][k][m]
    adT = [[x for k in range(d) for x in Ci[k::d]] for Ci in C]  # adT[i][k * d + m] = c[i][m][k]
    killing = [0] * (d * d)  # symmetric: formed for i <= j
    for i, j in combinations_with_replacement(range(d), 2):
        killing[d * i + j] = killing[d * j + i] = sum(map(mul, adT[i], C[j]))
    # rows i > j of the constants are negated rows i < j, rows i = j are 0
    derived = [x for i, j in combinations(range(d), 2) for x in C[i][d * j:d * j + d]]
    return (d, Matrix.of_integers(L.field, d * (d - 1) // 2, d, derived).rank(), L.center_dim,
            Matrix.of_integers(L.field, d, d, killing).rank())
