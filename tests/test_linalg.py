"""Exact dense linear algebra."""

from fractions import Fraction

import pytest

from hecke3.errors import DimensionMismatch, SingularMatrix
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix, echelon_span, span_coords


def test_identity_rank():
    assert Matrix.identity(QQ, 9).rank() == 9


def test_zero_operator_kernel_is_everything():
    assert len(Matrix.zeros(QQ, 9).kernel_basis()) == 9


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


def test_rank_nullity():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() + len(m.kernel_basis()) == 3


def test_kernel_vectors_are_killed():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    for v in m.kernel_basis():
        assert all(x == 0 for x in m.apply(v))


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
    assert Matrix.from_rows(QQ, [[1, 5], [7, -3]]).trace() == QQ.of(-2)


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


def test_span_helpers():
    rows = echelon_span(QQ, [[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    assert len(rows) == 2
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    coords = span_coords(rows, [2, 3, 1])
    assert coords == [2, 3]  # rows (1,0,-1), (0,1,1)
    assert all(isinstance(x, Fraction) for x in coords)
    assert span_coords(rows, [0, 0, 1]) is None
    other = echelon_span(QQ, [[1, 2, 1], [1, 1, 0]])
    assert rows == other  # equal spans have equal echelon bases


def test_row_and_column_space():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4], [0, 1]])
    assert len(m.row_space_basis()) == 2
    assert len(m.transpose().row_space_basis()) == 2
