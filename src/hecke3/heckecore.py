"""Construction and inversion of Hecke symmetries on a 3-dimensional space.

A symmetry R here is an invertible operator on V (x) V satisfying the braid
equation and the quadratic relation (R - q)(R + 1) = 0, whose associated
R-symmetric algebra is the ordinary polynomial algebra.  Every such R is
produced from a quadruple (q, a, b, g): a nonzero parameter q, two vectors
a, b and a symmetric bilinear form g tied together by the constraint

    (q - 1)^2 = -4 * (g(a,a) g(b,b) - g(a,b)^2).

The skewsymmetrizer Y = q * Id - R depends on a and b only through the
bivector t = a^b.  It is assembled in pairing coordinates: with
n_k = pair_vt(e_k, t), the bivector Y(e_j e_k) has

    pair_vt(e_i, Y(e_j e_k)) = n_k g_ij + n_j g_ik - n_i g_jk + (q+1)/2 vol(e_i, e_j, e_k).

Conversely, R determines the pair (q, F) where F is the rank-at-most-1
symmetric operator F(x y) = g(x,y) t, and the quadruple can be recovered
from F up to the rescaling (g, t) -> (c g, t / c).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    InputError,
    InvalidConstraint,
    NoHeckeParameter,
    NotHeckeSym0,
    SingularDeformation,
    ZeroQ,
)
from .linalg import Matrix, field_scalars, integer_coordinates, reduce_mod
from .multilinear import (
    _ALT2,
    _ALT2_PAIRS,
    _ALT3_UNIT,
    _check_len,
    _checked_operator,
    bivector,
    change_of_basis,
    idx2,
    idx3,
    is_alt2,
    non_alternating_columns,
    pair_vt,
    pairing_coordinates,
    unit_tensors,
    wedge2,
)

__all__ = [
    "symmetric_form",
    "discriminant",
    "solve_q",
    "HeckeData",
    "skewsymmetrizer_matrix",
    "build_R",
    "flip_matrix",
    "HeckeSymmetry",
    "hecke_residual",
    "extract_q",
    "FOperator",
    "extract_F",
    "t_operator_of_F",
    "build_Y_from_F",
    "deform",
    "conjugate",
    "conjugate_data",
]

_FLIP = [int(c == idx2(j, i)) for i in range(3) for j in range(3) for c in range(9)]  # flip_matrix


def _checked_form(g: Matrix) -> Matrix:
    """g itself, once it is a degree-1 operator whose integer pairs (1, 3), (2, 6), (5, 7) agree:
    the one form rule.  Equal matrices have equal integers, so this is g = g^T."""
    if (n := _checked_operator(g, 1).integers()[0])[1] != n[3] or n[2] != n[6] or n[5] != n[7]:
        raise InputError("bilinear form must be symmetric")
    return g


def symmetric_form(field, rows) -> Matrix:
    """Build a symmetric 3x3 form matrix, rejecting asymmetric input."""
    return _checked_form(Matrix.from_rows(field, rows))


def discriminant(a, b, g: Matrix):
    """g(a,a) g(b,b) - g(a,b)^2: the Gram determinant of g on (a, b), as :meth:`FOperator.delta`."""
    return FOperator(g, wedge2(a, b)).delta()


def solve_q(a, b, g: Matrix):
    """All nonzero q with (q - 1)^2 = -4 * discriminant, possibly empty.

    Returns a deterministically ordered list; the double root at q = 1
    appears once, and a root at q = 0 is dropped.
    """
    fld = g.field
    s = fld.sqrt(-discriminant(a, b, g))
    if s is None:
        return []
    roots = {fld.of(1) + 2 * s, fld.of(1) - 2 * s}
    roots.discard(fld.zero())
    return sorted(roots, key=fld.fmt)


@dataclass(frozen=True)
class HeckeData:
    """A validated quadruple (q, a, b, g), q coerced into g's field; t = a^b formed on integers.
    :func:`wedge2` checks a and b, then :class:`FOperator` g, then :func:`_admissible_q` q."""

    q: object
    a: list
    b: list
    g: Matrix
    t: list = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fld = self.g.field
        (an, ad), (bn, bd) = integer_coordinates(fld, self.a), integer_coordinates(fld, self.b)
        object.__setattr__(self, "t", t := field_scalars(fld, wedge2(an, bn), ad * bd))
        object.__setattr__(self, "q", _admissible_q(self.q, FOperator(self.g, t)))

    @property
    def field(self):
        return self.g.field


def skewsymmetrizer_matrix(q, g: Matrix, t) -> Matrix:
    """Y from the form g and the bivector t by the pairing-coordinate formula, on integers over
    one scale.  Only shapes are checked (g 3x3, t of 9 coordinates); q's constraint, g's symmetry
    and t's alternation are not: :func:`build_R` and :func:`build_Y_from_F` validate first, and
    adversarial harnesses and tests break them on purpose."""
    fld, e = _checked_operator(g, 1).field, unit_tensors(1)
    _check_len(t, 9, "degree-2 tensor")
    (h,), hd = integer_coordinates(fld, [(fld.of(q) + 1) / 2])  # over F_p the 1/2 is in h
    (r, gd), (tn, td) = g.integers(), integer_coordinates(fld, t)
    n = [pair_vt(v, tn) for v in e]  # td n_k
    s = [[h * gd * td * _ALT3_UNIT[idx3(i, j, k)] + hd * (n[k] * r[3 * i + j] + n[j] * r[3 * i + k]
          - n[i] * r[3 * j + k]) for i in range(3)] for j in range(3) for k in range(3)]
    cols = [bivector(c) for c in s]
    return Matrix.of_integers(fld, 9, 9, [c[i] for i in range(9) for c in cols], hd * gd * td)


@dataclass(frozen=True)
class HeckeSymmetry:
    """An operator R with its parameter q; the state is the pair (R, q).

    The constructor is the one gate for q on an operator: it coerces q into R's field and rejects
    0 with NotHeckeSym0 (R may have no pair (q, F), as under ``verify --matrix``).  It derives
    Y = q*Id - R once, mapping into the alternating square; later code relies on this.
    """

    R: Matrix
    q: object
    Y: Matrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", q := self.R.field.of(self.q))
        if q == 0:
            raise NotHeckeSym0("the Hecke parameter is zero")
        Y = Matrix.identity(self.R.field, 9).scale(q) - self.R
        if non_alternating_columns(Y):
            raise NotHeckeSym0("the skewsymmetrizer image is not alternating")
        object.__setattr__(self, "Y", Y)

    @property
    def field(self):
        return self.R.field

    @classmethod
    def from_matrix(cls, R: Matrix, q=None) -> "HeckeSymmetry":
        """Validate a raw 9x9 matrix as a Hecke symmetry: the quadratic relation, then rank Y = 3
        (read off the lemma of :func:`_acts_on_alt2_as_q_plus_1` where it applies), so Y maps onto
        Alt2 and (R - q)(R + 1) = 0 makes q+1 its eigenvalue there.  The braid is the verifier's."""
        _checked_operator(R, 2)
        if q is None:
            try:
                q = extract_q(R)
            except NoHeckeParameter as exc:
                raise NotHeckeSym0(str(exc)) from exc
        elif not hecke_residual(R, q).is_zero():
            raise NotHeckeSym0("the quadratic Hecke relation fails for the given q")
        sym = cls(R, q)
        if (sym.q == -1 or not _acts_on_alt2_as_q_plus_1(sym.Y, sym.q)) and sym.Y.rank() != 3:
            raise NotHeckeSym0("the skewsymmetrizer image is not the full alternating square")
        return sym


def build_R(data: HeckeData) -> HeckeSymmetry:
    """The Hecke symmetry R = q*Id - Y of a validated quadruple."""
    Y = skewsymmetrizer_matrix(data.q, data.g, data.t)
    return HeckeSymmetry(Matrix.identity(data.field, 9).scale(data.q) - Y, data.q)


def flip_matrix(field) -> Matrix:
    """The flip x(x)y |-> y(x)x: row (i, j) of the identity is moved to row (j, i)."""
    return Matrix.of_integers(field, 9, 9, _FLIP.copy())


def hecke_residual(R: Matrix, q) -> Matrix:
    """(R - q*Id)(R + Id) = Y^2 - (q+1) Y; no product where _acts_on_alt2_as_q_plus_1 holds."""
    Id = Matrix.identity(R.field, 9)
    M = R - Id.scale(q)  # R's shape and q are tested first
    return Matrix.zeros(R.field, 9) if _acts_on_alt2_as_q_plus_1(-M, q) else M * (R + Id)


def _alt2_eigen_sides(Y: Matrix, q):
    """Y(e_j^e_k) = (q+1) e_j^e_k, stated once, for the verifier too: b (column jk - column kj of
    N), (a + b) d e_j^e_k mod p and b d, for Y = N / d, q = a / b, (j, k) in _ALT2_PAIRS order."""
    (n, d), ((a,), b), p = Y.integers(), integer_coordinates(Y.field, [q]), Y.field.characteristic
    return (reduce_mod([b * (x - y) for j, k in _ALT2_PAIRS
                        for x, y in zip(n[idx2(j, k)::9], n[idx2(k, j)::9])], p),
            reduce_mod([(a + b) * d * c for w in _ALT2 for c in w], p), b * d)


def _acts_on_alt2_as_q_plus_1(Y: Matrix, q) -> bool:
    """Y maps into Alt2 (tested before q is read) and acts there as q + 1 (_alt2_eigen_sides).
    Lemma: then (R - q)(R + 1) = Y^2 - (q+1) Y = 0 for R = q*Id - Y; rank Y = 3 if q + 1 != 0.
    Proof: Yx is in Alt2, so Y(Yx) = (q+1) Yx.  If q + 1 != 0, Alt2 = Y(Alt2) <= Im Y <= Alt2."""
    return not non_alternating_columns(Y) and (s := _alt2_eigen_sides(Y, q))[0] == s[1]


def _leading(cols):
    """The first nonzero column and the index of its first nonzero entry, or (None, None)."""
    for c in cols:
        for m, x in enumerate(c):
            if x != 0:
                return c, m
    return None, None


def extract_q(R: Matrix):
    """The unique q with (R - q)(R + 1) = 0, when one exists; the one reader of q from R.

    The relation forces R to act as q on the image of R + Id, so the candidate
    is the ratio R c / c on the first nonzero column c of R + Id, then verified.
    R = -Id is rejected as ambiguous.
    """
    M = R + Matrix.identity(R.field, 9)
    col, m = _leading(M.col(j) for j in range(M.ncols))
    if col is None:
        raise NoHeckeParameter("R = -Id: every q satisfies the relation")
    q = R.apply(col)[m] / col[m]
    if not hecke_residual(R, q).is_zero():
        raise NoHeckeParameter("no q satisfies the quadratic Hecke relation")
    return q


@dataclass(frozen=True)
class FOperator:
    """The invariant operator F(x y) = g(x,y) t with t an alternating bivector.

    The pair (g, t) is stored as given, and equality compares it: FOperator(2g, t/2) is the
    same operator as FOperator(g, t) but not equal to it (compare :meth:`matrix`).
    :func:`extract_F` returns the normalized pair.  ``plane`` is t as the 3x3 matrix t[3i+j],
    a b^T - b a^T for t = a^b, whose columns span the plane of t: derived once, on integers.
    The one door for the pair: g passes :func:`_checked_form`, then t must be alternating.
    """

    g: Matrix
    t: list
    plane: Matrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fld = _checked_form(self.g).field
        n, d = integer_coordinates(fld, self.t)
        if not is_alt2(reduce_mod(n, fld.characteristic)):
            raise InputError("the bivector part must be alternating")
        object.__setattr__(self, "plane", Matrix.of_integers(fld, 3, 3, n, d))

    @property
    def field(self):
        return self.g.field

    def is_zero(self) -> bool:
        return self.g.is_zero() or self.plane.is_zero()

    def matrix(self) -> Matrix:
        """The 9x9 matrix of F: its column e_i e_j is g_ij t, so its entry (r, c) is t_r g_c."""
        (gn, gd), (tn, td) = self.g.integers(), self.plane.integers()
        return Matrix.of_integers(self.field, 9, 9, [x * y for x in tn for y in gn], gd * td)

    def delta(self):
        """Gram determinant of g on the plane of t (0 for F = 0): -tr(T^2)/2 for T = t g.

        T (:func:`t_operator_of_F`) maps V into the plane of t = a^b, where T^2 = -delta.
        With T = N / d on integers, delta = -sum N_ij N_ji / (2 d^2), one field scalar.
        """
        n, d = t_operator_of_F(self).integers()
        return field_scalars(self.field, [-sum(n[3 * i + j] * n[3 * j + i] for i in range(3)
                                               for j in range(3))], 2 * d * d)[0]


def _admissible_q(q, f_op: FOperator):
    """q in F's field once the pair (q, F) is admissible: the one statement of the rule for q.

    q = 0 raises ZeroQ before the constraint is tested.  InvalidConstraint quotes no value:
    -4 delta of a quadruple within the input bounds can be too long to print.
    """
    q = f_op.field.of(q)
    if q == 0:
        raise ZeroQ("the Hecke parameter q must be nonzero")
    if (q - 1) ** 2 != -4 * f_op.delta():
        raise InvalidConstraint("(q-1)^2 = -4*discriminant(F) fails for the requested q")
    return q


def extract_F(sym: HeckeSymmetry) -> FOperator:
    """Recover the invariant operator F from a Hecke symmetry.

    F is pinned by 2 F(x y) ^ z = x ^ Y(y z) + y ^ Y(x z), so the pairing
    coordinates of F(e_i e_j) are (l_i(j,k) + l_j(i,k)) / 2 with l those of Y,
    symmetric in (i, j) by construction.  F must have rank at most 1 and its
    discriminant must match the symmetry's q; any violation means the
    operator is not a Hecke symmetry of the polynomial algebra.  The bivector t
    is normalized so that its first nonzero coordinate is 1, the compensating scalar
    folded into g; the zero operator is returned as (g = 0, t = 0).
    """
    fld, p, (n, d) = sym.field, sym.field.characteristic, sym.Y.integers()
    ell = pairing_coordinates(n)  # d l
    cols = [reduce_mod(bivector([ell[i][j][k] + ell[j][i][k] for k in range(3)]), p)
            for i in range(3) for j in range(3)]  # the columns of 2 d F
    lead, m = _leading(cols)
    if lead is None:
        f_op = FOperator(Matrix.zeros(fld, 3), [fld.zero()] * 9)
    else:
        g = Matrix.of_integers(fld, 3, 3, [c[m] for c in cols], 2 * d)  # cols[idx2(i, j)][m]
        f_op = FOperator(g, field_scalars(fld, lead, lead[m]))
        if any(reduce_mod([c[k] * lead[m] - c[m] * lead[k] for c in cols for k in range(9)], p)):
            raise NotHeckeSym0("the invariant operator does not have rank 1")
    try:
        _admissible_q(sym.q, f_op)
    except InvalidConstraint:
        raise NotHeckeSym0("the parameter-discriminant constraint fails for the extracted operator")
    return f_op


def t_operator_of_F(f_op: FOperator) -> Matrix:
    """The traceless operator t g of F = g (x) t, t read as the 3x3 matrix ``plane``.

    It is invariant under the rescaling; for t = a^b it is v |-> g(b,v) a - g(a,v) b.
    """
    return f_op.plane * f_op.g


def build_Y_from_F(q, f_op: FOperator) -> Matrix:
    """Reassemble the skewsymmetrizer from the pair (q, F); inverse of ``extract_F o build_R``."""
    return skewsymmetrizer_matrix(_admissible_q(q, f_op), f_op.g, f_op.t)


def deform(sym: HeckeSymmetry, lam) -> HeckeSymmetry:
    """The member R_lam = R0 + lam (R - R0) of the deformation family.

    Valid whenever lam (q - 1) != -1; the deformed parameter is
    1 + lam (q - 1) and the invariant operator scales by lam.
    """
    fld = sym.field
    lam = fld.of(lam)
    q_lam = 1 + lam * (sym.q - 1)
    if q_lam == 0:
        raise SingularDeformation(
            "lam*(q-1) = -1 makes the deformed operator singular"
        )
    r0 = flip_matrix(fld)
    return HeckeSymmetry(r0 + (sym.R - r0).scale(lam), q_lam)


def conjugate(sym: HeckeSymmetry, P: Matrix) -> HeckeSymmetry:
    """Transport the symmetry along the basis change P (x) P.

    A singular P raises :class:`~hecke3.errors.SingularMatrix`.
    """
    return HeckeSymmetry(change_of_basis(sym.R, P), sym.q)


def conjugate_data(data: HeckeData, P: Matrix) -> HeckeData:
    """Transport a quadruple along P: a, b -> Pa, Pb and g -> P^-T g P^-1.

    ``build_R(conjugate_data(data, P))`` is ``conjugate(build_R(data), P)``.
    """
    Pinv = P.inverse()
    return HeckeData(data.q, P.apply(data.a), P.apply(data.b), Pinv.transpose() * data.g * Pinv)
