"""Exact dense linear algebra."""

import math
import random
from fractions import Fraction

import pytest

import field_reference as fref
from hecke3 import fields
from hecke3.errors import DimensionMismatch, FieldMismatch, InputError, SingularMatrix
from hecke3.fields import GF, QQ, Fp
from hecke3.linalg import Matrix


def test_identity_rank():
    assert Matrix.identity(QQ, 9).rank() == 9


def test_zero_operator_has_rank_zero():
    assert Matrix.zeros(QQ, 9).rank() == 0


def test_mul_and_apply_agree():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (a * b).col(0) == a.apply(b.col(0))


def test_mul_shape_check():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        a * Matrix.zeros(QQ, 3)
    with pytest.raises(DimensionMismatch):
        a.apply([1, 2, 3])


def test_rref_is_canonical():
    m = Matrix.from_rows(QQ, [[2, 4, 6], [1, 2, 4], [0, 0, 2]])
    red, pivots = m.rref()
    assert pivots == (0, 2)
    assert red.rows[0] == [QQ.one(), QQ.of(2), QQ.zero()]
    assert red.rows[1] == [QQ.zero(), QQ.zero(), QQ.one()]


def test_rank_with_dependent_rows():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2


def test_inverse():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    assert m * m.inverse() == Matrix.identity(QQ, 2)
    with pytest.raises(SingularMatrix):
        Matrix.from_rows(QQ, [[1, 2], [2, 4]]).inverse()


def test_det():
    m = Matrix.from_rows(QQ, [[2, 0, 0], [0, 3, 0], [1, 1, "1/6"]])
    assert m.det() == QQ.one()
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).det() == 0


def test_kron_sizes_and_values():
    a = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = Matrix.identity(QQ, 3)
    k = a.kron(b)
    assert k.nrows == 6 and k.ncols == 6
    assert k.rows[0][3] == QQ.of(2)
    assert k.rows[1][4] == QQ.of(2)


def test_trace():
    assert fref.trace(Matrix.from_rows(QQ, [[1, 5], [7, -3]])) == QQ.of(-2)


def test_over_prime_field():
    f7 = GF(7)
    m = Matrix.from_rows(f7, [[1, 2], [3, 4]])
    assert m.det() == f7.of(-2)
    assert m * m.inverse() == Matrix.identity(f7, 2)


def test_from_columns_is_the_transpose_of_from_rows():
    cols = [[QQ.of(1), QQ.of(2), QQ.of(3)], [QQ.of(4), QQ.of(5), QQ.of(6)]]
    m = Matrix.from_columns(QQ, cols)
    assert (m.nrows, m.ncols) == (3, 2)
    assert m == Matrix.from_rows(QQ, cols).transpose()
    assert [m.col(j) for j in range(2)] == cols


def test_from_columns_rejects_ragged_columns():
    """The columns meet the constructor's shape check before they are transposed."""
    for cols in ([[1, 2, 3], [4, 5]], [[1], [2, 3]], [[1, 2], []]):
        with pytest.raises(DimensionMismatch):
            Matrix.from_columns(QQ, cols)


def test_col_rejects_an_index_outside_the_columns():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4], [5, 6]])
    assert [m.col(j) for j in range(2)] == [[1, 3, 5], [2, 4, 6]]
    for j in (2, 3, -1, -2):
        with pytest.raises(DimensionMismatch):
            m.col(j)
    for j in (3, -1):
        with pytest.raises(DimensionMismatch):
            Matrix.identity(QQ, 3).col(j)


def echelon_span(field, vectors):
    """Canonical basis of the span of the given coordinate vectors: the nonzero rows of the RREF."""
    red, pivots = Matrix.from_rows(field, vectors).rref()
    return red.rows[:len(pivots)]


def test_span_helpers():
    rows = echelon_span(QQ, [[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    assert len(rows) == 2
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    coords = fref.span_coords(rows, [2, 3, 1])
    assert coords == [2, 3]  # rows (1,0,-1), (0,1,1)
    assert all(isinstance(x, Fraction) for x in coords)
    assert fref.span_coords(rows, [0, 0, 1]) is None
    other = echelon_span(QQ, [[1, 2, 1], [1, 1, 0]])
    assert rows == other  # equal spans have equal echelon bases


def test_row_and_column_space():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4], [0, 1]])
    assert len(echelon_span(QQ, m.rows)) == 2
    assert len(echelon_span(QQ, m.transpose().rows)) == 2


FIELDS = [QQ, GF(3), GF(7), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp2^61-1"]
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)  # units in every field above


def random_matrix(field, rng, nr, nc, density=1.0, coprime=False):
    """Entries in [-9, 9], a share zero; coprime=True gives pairwise coprime denominators."""
    def entry(i, j):
        if rng.random() >= density:
            return 0
        return Fraction(rng.randint(-9, 9), PRIMES[(i * nc + j) % len(PRIMES)] if coprime else 1)
    return Matrix.from_rows(field, [[entry(i, j) for j in range(nc)] for i in range(nr)])


def matrix_corpus(field, seed):
    """Random, sparse, zero, singular and non-square matrices, some with coprime denominators."""
    rng = random.Random(seed)
    out = [Matrix.zeros(field, 3), Matrix.zeros(field, 9), Matrix.identity(field, 9),
           Matrix.from_rows(field, [[0, 0, 0, 0], [0, 0, 0, 0]])]
    for n in (1, 2, 3, 5, 9):
        out += [random_matrix(field, rng, n, n), random_matrix(field, rng, n, n, coprime=True),
                random_matrix(field, rng, n, n, density=0.2)]
    for nr, nc in ((2, 7), (7, 2), (3, 5), (5, 3), (4, 9)):
        out += [random_matrix(field, rng, nr, nc), random_matrix(field, rng, nr, nc, 0.3, True)]
    for n, k in ((3, 1), (3, 2), (9, 4), (9, 8), (6, 3)):
        # rank at most k: a product through a k-dimensional space
        out.append(fref.mul(random_matrix(field, rng, n, k, coprime=True),
                           random_matrix(field, rng, k, n, density=0.6)))
    rows = random_matrix(field, rng, 5, 9).rows
    out.append(Matrix(field, rows + [[x + y for x, y in zip(rows[0], rows[3])]]))  # dependent row
    return out


def assert_same_scalars(field, got, want):
    """Equal entries, each of the field's scalar type."""
    assert got == want
    kind = Fraction if field.characteristic == 0 else fields.Fp
    assert all(type(x) is kind for x in got)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_integer_products_match_the_field_reference(field):
    """__mul__ and apply on integer coordinates equal the field-object products."""
    rng = random.Random(11)
    for a in matrix_corpus(field, 3):
        shapes = ((a.ncols, 1.0, False), (3, 0.3, True), (1, 1.0, True))
        for b in (random_matrix(field, rng, a.ncols, k, density, coprime)
                  for k, density, coprime in shapes):
            got, want = a * b, fref.mul(a, b)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert_same_scalars(field, [x for row in got.rows for x in row],
                                [x for row in want.rows for x in row])
            assert_same_scalars(field, a.apply(b.col(0)), fref.apply(a, b.col(0)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_integer_elimination_matches_the_field_reference(field):
    """rref, rank, det and inverse from the one integer elimination equal the references."""
    for a in matrix_corpus(field, 5):
        (red, pivots), (want, want_pivots) = a.rref(), fref.rref(a)
        assert pivots == want_pivots and red.nrows == a.nrows
        assert_same_scalars(field, [x for row in red.rows for x in row],
                            [x for row in want.rows for x in row])
        assert a.rank() == len(want_pivots)
        if a.nrows != a.ncols:
            with pytest.raises(DimensionMismatch):
                a.det()
            continue
        assert_same_scalars(field, [a.det()], [fref.det(a)])
        if len(want_pivots) < a.nrows:
            with pytest.raises(SingularMatrix):
                a.inverse()
        else:
            inv = a.inverse()
            assert_same_scalars(field, [x for row in inv.rows for x in row],
                                [x for row in fref.inverse(a).rows for x in row])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_kron_matches_the_zero_skipping_reference(field):
    """kron by its definition equals the loop that formed only the nonzero products."""
    rng = random.Random(13)
    shapes = [((3, 3), (3, 3)), ((3, 3), (9, 9)), ((9, 9), (3, 3)), ((9, 9), (9, 9)),
              ((2, 7), (3, 2))]
    for (n, m), (k, l) in shapes:
        for density in (1.0, 0.5, 0.2):
            a = random_matrix(field, rng, n, m, density, coprime=True)
            b = random_matrix(field, rng, k, l, density)
            got, want = a.kron(b), fref.kron(a, b)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols) == (n * k, m * l)
            assert_same_scalars(field, [x for row in got.rows for x in row],
                                [x for row in want.rows for x in row])


def test_elimination_on_residues_forms_no_field_objects(monkeypatch):
    """Over F_p, rref forms one Fp per nonzero entry of its result plus a zero; det forms two."""
    field = GF(1_000_003)
    a = random_matrix(field, random.Random(2), 9, 9)
    rng = random.Random(3)
    b = fref.mul(random_matrix(field, rng, 9, 4), random_matrix(field, rng, 4, 9))  # rank at most 4
    made = []
    init = fields.Fp.__init__

    def counted(obj, v, p):
        made.append(v)
        init(obj, v, p)

    monkeypatch.setattr(fields.Fp, "__init__", counted)
    for m in (a, b):
        made.clear()
        red, _ = m.rref()
        assert len(made) <= 1 + sum(1 for row in red.rows for x in row if x != 0)
        made.clear()
        m.det()
        assert len(made) <= 2


def assert_canonical(m):
    """The stored pair is the reduced one: d > 0, gcd(d, *N) = 1 over Q; residues, d = 1 over F_p."""
    n, d = m.integers()
    assert len(n) == m.nrows * m.ncols and all(type(x) is int for x in n)
    p = m.field.characteristic
    if p:
        assert d == 1 and all(0 <= x < p for x in n)
    else:
        assert d > 0 and math.gcd(d, *n) == 1


def reference_entrywise(f, *ms):
    """The matrix of f applied entry by entry to the field scalars of the rows of ms."""
    rows = zip(*(m.rows for m in ms))
    return Matrix(ms[0].field, [[f(*xs) for xs in zip(*r)] for r in rows])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_integer_storage_matches_the_field_reference(field):
    """+, -, unary -, scale, transpose, col and kron on (N, d) equal the entrywise reference."""
    rng = random.Random(17)
    half = Fraction(1, 2)
    for a in matrix_corpus(field, 7):
        b = random_matrix(field, rng, a.nrows, a.ncols, 0.5, coprime=True)
        c = field.of(Fraction(rng.randint(-9, 9), 11))
        cases = [
            (a + b, reference_entrywise(lambda x, y: x + y, a, b)),
            (a - b, reference_entrywise(lambda x, y: x - y, a, b)),
            (-a, reference_entrywise(lambda x: -x, a)),
            (a.scale(c), reference_entrywise(lambda x: c * x, a)),
            (a.scale(half), reference_entrywise(lambda x: field.of(half) * x, a)),
            (a.transpose(), Matrix(field, [list(col) for col in zip(*a.rows)])),
            (a.kron(b), fref.kron(a, b)),
        ]
        for got, want in cases:
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert_same_scalars(field, [x for row in got.rows for x in row],
                                [x for row in want.rows for x in row])
            assert got == want and hash(got) == hash(want)
            assert_canonical(got)
        for j in range(a.ncols):
            assert_same_scalars(field, a.col(j), [row[j] for row in a.rows])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_equal_matrices_by_different_routes_compare_and_hash_equal(field):
    """Every route to one matrix ends at the one reduced pair (N, d)."""
    rng = random.Random(19)
    for a in matrix_corpus(field, 9):
        routes = [a.scale(2).scale(Fraction(1, 2)), (a + a) - a, Matrix(field, a.rows),
                  Matrix.from_rows(field, a.rows), a.transpose().transpose(), -(-a),
                  a.scale(field.of(3)) - a.scale(2), a * Matrix.identity(field, a.ncols)]
        if a.nrows == a.ncols and a.rank() == a.nrows:
            routes.append(a.inverse().inverse())
        for m in routes:
            assert_canonical(m)
            assert m == a and hash(m) == hash(a) and m.integers() == a.integers()
        b = random_matrix(field, rng, a.nrows, a.ncols, coprime=True)
        assert (a + b) - b == a and ((a + b) == a) == b.is_zero()


def test_rref_and_inverse_after_a_negative_last_bareiss_pivot():
    """Bareiss ends on a negative pivot here; rref and inverse still store a positive scale."""
    cases = [Matrix.from_rows(QQ, [[1, 0], [0, -1]]),
             Matrix.from_rows(QQ, [[2, 1, 0], [1, 0, 0], [0, 0, 3]]),
             Matrix.from_rows(QQ, [[0, 1, 2], [1, 0, "1/3"], [4, 5, 0]])]
    for a in cases:
        assert a._eliminate()[2] < 0  # the last pivot, den
        red, pivots = a.rref()
        assert red == Matrix.identity(QQ, a.nrows) and pivots == tuple(range(a.nrows))
        assert hash(red) == hash(Matrix.identity(QQ, a.nrows))
        inv = a.inverse()
        assert_canonical(red)
        assert_canonical(inv)
        assert inv == fref.inverse(a) and hash(inv) == hash(fref.inverse(a))
        assert a * inv == Matrix.identity(QQ, a.nrows)
    wide = Matrix.from_rows(QQ, [[1, 0, 2], [0, -1, 5]])  # a 2 x 3 echelon form ending on -1
    assert wide._eliminate()[2] < 0
    red, _ = wide.rref()
    assert_canonical(red)
    assert red == fref.rref(wide)[0]


@pytest.mark.parametrize("field", FIELDS[1:], ids=FIELD_IDS[1:])
def test_prime_field_matrix_from_integers_over_a_scale(field):
    """Over F_p a scale d != 1 is folded in as its inverse: the stored pair has d = 1."""
    p = field.characteristic
    n = [1, -2, 3, 0, 5, p + 4]
    for d in (1, 2, p - 1, 2 * p + 5, -4):
        if d % p == 0:
            continue
        m = Matrix.of_integers(field, 2, 3, n, d)
        assert_canonical(m)
        want = Matrix.from_rows(field, [[Fraction(x, d) for x in r] for r in (n[:3], n[3:])])
        assert m == want and hash(m) == hash(want)
        assert m.scale(d) == Matrix.of_integers(field, 2, 3, n)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_of_integers_rejects_a_list_of_another_length(field):
    """The integer door checks that it holds nrows * ncols entries, as the constructor does."""
    for nrows, ncols, n in ((3, 3, [1, 2, 3, 4]), (3, 3, list(range(10))), (2, 3, [1] * 5),
                            (0, 0, [1]), (1, 2, [])):
        with pytest.raises(DimensionMismatch, match=f"a {nrows}x{ncols} matrix from {len(n)} entries"):
            Matrix.of_integers(field, nrows, ncols, n)
    assert Matrix.of_integers(field, 0, 0, []).rank() == 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_empty_and_single_row_shapes(field):
    empty = Matrix(field, [])
    assert (empty.nrows, empty.ncols) == (0, 0) and empty.rows == []
    assert empty == Matrix.zeros(field, 0) == Matrix.identity(field, 0)
    assert empty.rank() == 0 and empty.det() == field.one() and empty.inverse() == empty
    assert empty * empty == empty and empty.transpose() == empty and empty.is_zero()
    assert_canonical(empty.rref()[0])
    row = Matrix.from_rows(field, [[0, 2, Fraction(1, 5), -3]])
    assert (row.nrows, row.ncols) == (1, 4)
    col = row.transpose()
    assert (col.nrows, col.ncols) == (4, 1) and col.col(0) == row.rows[0]
    red, pivots = row.rref()
    assert pivots == (1,) and red == fref.rref(row)[0]
    assert (row * col).rows == [[fref.apply(row, col.col(0))[0]]]
    assert (col * row) == fref.mul(col, row) and row.kron(col) == fref.kron(row, col)
    assert row.apply(col.col(0)) == fref.apply(row, col.col(0))
    for m in (red, row * col, col * row, row.kron(col), row + row, row.scale(0)):
        assert_canonical(m)
    assert row.scale(0) == Matrix.from_rows(field, [[0] * 4]) and row.scale(0).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_writing_into_rows_leaves_the_matrix_unchanged(field):
    """rows forms fresh lists on each read; writing into them changes no matrix."""
    a = Matrix.from_rows(field, [[1, 2, 0], [0, Fraction(3, 5), 1]])
    before, key = a.integers()[0][:], hash(a)
    rows = a.rows
    rows[0][0] = field.of(9)
    rows[1].append(field.one())
    rows.append([field.zero()] * 3)
    a.rows[1][2] = field.of(4)
    assert a.integers()[0] == before and hash(a) == key
    assert a == Matrix.from_rows(field, [[1, 2, 0], [0, Fraction(3, 5), 1]])
    assert a.rows == [[field.of(1), field.of(2), field.zero()],
                      [field.zero(), field.of(Fraction(3, 5)), field.one()]]


def test_matrices_over_different_fields_do_not_mix():
    a, b = Matrix.identity(QQ, 2), Matrix.identity(GF(7), 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.kron(b),
               lambda: b * Matrix.identity(GF(5), 2)):
        with pytest.raises(FieldMismatch):
            op()
    assert a != b
    # entries are field scalars, ints or text; anything else raises a Hecke3Error
    for field, bad, error in ((GF(7), Fp(1, 5), FieldMismatch), (QQ, Fp(1, 7), FieldMismatch),
                              (QQ, 0.5, InputError), (GF(7), 0.5, InputError)):
        one = Matrix.identity(field, 1)
        for op in (lambda: Matrix(field, [[bad]]), lambda: Matrix(field, [[1, bad]]),
                   lambda: one.apply([bad]), lambda: Matrix.from_rows(field, [[bad]])):
            with pytest.raises(error):
                op()
    for field in (QQ, GF(7)):
        half = Matrix.from_rows(field, [[Fraction(1, 2)]])
        assert Matrix(field, [["1/2"]]) == half
        assert Matrix.identity(field, 1).apply(["1/2"]) == half.col(0)
