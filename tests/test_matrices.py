"""Rational matrices, integer normal forms, and witness alignment."""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import (DimensionMismatch, Matrix, SingularMatrixError,
                    align_witnesses, hnf_left)

from strategies import int_matrices, nonsingular_int_matrices, rationals


def _det_by_permutations(m: Matrix) -> Fraction:
    """Leibniz-formula determinant; shares nothing with the implementation."""
    n = m.nrows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def rational_matrices(dim: int):
    return st.lists(st.lists(rationals(4, 3), min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(Matrix.from_rows)


class TestConstruction:
    def test_from_rows_validates(self):
        with pytest.raises(DimensionMismatch):
            Matrix.from_rows([])
        with pytest.raises(DimensionMismatch):
            Matrix.from_rows([[1, 2], [3]])

    def test_identity_diagonal_columns(self):
        assert Matrix.identity(2) == Matrix.from_rows([[1, 0], [0, 1]])
        assert Matrix.diagonal([2, 3]) == Matrix.from_rows([[2, 0], [0, 3]])
        assert Matrix.from_columns([[1, 2], [3, 4]]) == Matrix.from_rows(
            [[1, 3], [2, 4]])
        with pytest.raises(DimensionMismatch):
            Matrix.from_columns([])
        with pytest.raises(DimensionMismatch):
            Matrix.from_columns([[1, 2], [3]])

    def test_shape_accessors(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)
        assert not m.is_square
        assert m.row(1) == (4, 5, 6)
        assert m.column(2) == (3, 6)
        assert m[1, 0] == 4
        assert m.is_integer()
        assert not Matrix.from_rows([[Fraction(1, 2)]]).is_integer()


class TestArithmetic:
    def test_matmul_and_apply(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
        assert a.apply((1, -1)) == (-1, -1)
        with pytest.raises(DimensionMismatch):
            a @ Matrix.from_rows([[1, 2, 3]])
        with pytest.raises(DimensionMismatch):
            a.apply((1, 2, 3))

    def test_scaled_and_transpose(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.scaled(Fraction(1, 2)) == Matrix.from_rows(
            [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
        assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])

    @given(rational_matrices(3))
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m


class TestElimination:
    def test_det_examples(self):
        assert Matrix.from_rows([[1, 2], [3, 4]]).det() == -2
        assert Matrix.from_rows([[1, 2], [2, 4]]).det() == 0
        assert Matrix.identity(4).det() == 1
        with pytest.raises(DimensionMismatch):
            Matrix.from_rows([[1, 2]]).det()

    @given(st.integers(1, 4).flatmap(rational_matrices))
    def test_det_matches_permutation_expansion(self, m):
        assert m.det() == _det_by_permutations(m)

    def test_rank_examples(self):
        assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1
        assert Matrix.from_rows([[1, 0], [0, 1], [1, 1]]).rank() == 2
        assert Matrix.from_rows([[0, 0]]).rank() == 0

    @given(nonsingular_int_matrices(3), st.lists(
        st.integers(-5, 5), min_size=3, max_size=3))
    def test_solve_round_trip(self, m, x):
        assert m.solve(m.apply(x)) == tuple(Fraction(v) for v in x)

    def test_solve_errors(self):
        with pytest.raises(SingularMatrixError):
            Matrix.from_rows([[1, 2], [2, 4]]).solve((1, 0))
        with pytest.raises(DimensionMismatch):
            Matrix.identity(2).solve((1,))

    @given(nonsingular_int_matrices(3))
    def test_inverse(self, m):
        assert m @ m.inverse() == Matrix.identity(3)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            Matrix.from_rows([[1, 1], [1, 1]]).inverse()


class TestNormalForm:
    def test_one_by_one(self):
        u, h = hnf_left(Matrix.from_rows([[-3]]))
        assert u == Matrix.from_rows([[-1]])
        assert h == Matrix.from_rows([[3]])

    def test_swap(self):
        u, h = hnf_left(Matrix.from_rows([[0, 1], [1, 0]]))
        assert u == Matrix.from_rows([[0, 1], [1, 0]])
        assert h == Matrix.identity(2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hnf_left(Matrix.from_rows([[Fraction(1, 2)]]))
        with pytest.raises(SingularMatrixError):
            hnf_left(Matrix.from_rows([[1, 1], [1, 1]]))
        with pytest.raises(DimensionMismatch):
            hnf_left(Matrix.from_rows([[1, 2]]))

    @given(st.integers(1, 4).flatmap(
        lambda d: nonsingular_int_matrices(d, 5)))
    def test_postconditions(self, z):
        u, h = hnf_left(z)
        n = z.nrows
        assert u.is_integer()
        assert abs(u.det()) == 1
        assert u @ z == h
        for i in range(n):
            assert h[i, i] > 0
            for j in range(n):
                if j < i:
                    assert h[i, j] == 0
                elif j > i:
                    assert 0 <= h[i, j] < h[j, j]


class TestAlignWitnesses:
    def test_swapped_unit_vectors(self):
        u = align_witnesses([(0, 1), (1, 0)])
        assert u == Matrix.from_rows([[0, 1], [1, 0]])

    def test_dependent_vectors_rejected(self):
        with pytest.raises(SingularMatrixError):
            align_witnesses([(1, 2), (2, 4)])

    @given(st.integers(1, 4).flatmap(
        lambda d: nonsingular_int_matrices(d, 4)))
    def test_flag_alignment(self, z):
        witnesses = [tuple(int(e) for e in z.column(j))
                     for j in range(z.ncols)]
        u = align_witnesses(witnesses)
        assert u.is_integer()
        assert abs(u.det()) == 1
        for i, w in enumerate(witnesses):
            image = u.apply(w)
            assert all(image[j] == 0 for j in range(i + 1, len(w)))
