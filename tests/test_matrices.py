"""Rational matrices, integer normal forms, and witness alignment."""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from latmin import (DimensionMismatch, Matrix, SingularMatrixError,
                    align_witnesses)

from strategies import (int_matrices, int_points, nonsingular_int_matrices,
                        rationals)


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


# Negative entries and mixed denominators.
ENTRIES = rationals(6, 6)
SHAPES = st.integers(1, 4)


def shaped_matrices(nrows: int, ncols: int):
    return st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(Matrix.from_rows)


@st.composite
def square_matrices(draw):
    """Square matrices, about half of them made singular by replacing the
    last row with a multiple of a combination of the others."""
    n = draw(SHAPES)
    m = draw(shaped_matrices(n, n))
    if n == 1 or draw(st.booleans()):
        return m
    coeffs = draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    rows = list(m.entries[:-1])
    rows.append(tuple(sum((c * row[j] for c, row in zip(coeffs, rows)),
                          Fraction(0)) for j in range(n)))
    return Matrix(tuple(rows))


def vectors(length: int):
    return st.lists(st.one_of(st.integers(-9, 9), ENTRIES),
                    min_size=length, max_size=length)


def _naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(
        tuple(sum((a[i, k] * b[k, j] for k in range(a.ncols)), Fraction(0))
              for j in range(b.ncols)) for i in range(a.nrows)))


def _naive_apply(a: Matrix, v) -> tuple:
    return tuple(sum((e * Fraction(x) for e, x in zip(row, v)), Fraction(0))
                 for row in a.entries)


def _naive_rank(m: Matrix) -> int:
    """Gaussian elimination on ``Fraction`` rows."""
    work = [list(row) for row in m.entries]
    rank = 0
    for col in range(m.ncols):
        pivot = next((r for r in range(rank, m.nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, m.nrows):
            f = work[r][col] / work[rank][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


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

    @given(nonsingular_int_matrices(3))
    def test_inverse(self, m):
        assert m @ m.inverse() == Matrix.identity(3)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            Matrix.from_rows([[1, 1], [1, 1]]).inverse()


class TestIntegerKernels:
    """``@``, ``apply``, ``det``, ``rank`` and ``inverse`` run on integer
    numerators over a common denominator; they must equal the ``Fraction``
    definitions and raise the same exceptions."""

    @given(SHAPES, SHAPES, SHAPES, st.data())
    def test_matmul_matches_fraction_reference(self, r, k, c, data):
        a = data.draw(shaped_matrices(r, k))
        b = data.draw(shaped_matrices(k, c))
        product = a @ b
        assert product == _naive_matmul(a, b)
        assert all(isinstance(e, Fraction) for row in product.entries
                   for e in row)
        with pytest.raises(DimensionMismatch):
            a @ data.draw(shaped_matrices(k + 1, c))

    @given(SHAPES, SHAPES, st.data())
    def test_apply_matches_fraction_reference(self, r, k, data):
        a = data.draw(shaped_matrices(r, k))
        v = data.draw(vectors(k))
        image = a.apply(v)
        assert image == _naive_apply(a, v)
        assert all(isinstance(e, Fraction) for e in image)
        with pytest.raises(DimensionMismatch):
            a.apply(data.draw(vectors(k + 1)))

    @given(square_matrices())
    def test_det_rank_inverse_match_fraction_reference(self, m):
        det = m.det()
        assert isinstance(det, Fraction)
        assert det == _det_by_permutations(m)
        assert m.rank() == _naive_rank(m)
        assert (m.rank() == m.nrows) == (det != 0)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert m @ m.inverse() == Matrix.identity(m.nrows)

    @given(SHAPES, SHAPES, st.data())
    def test_rank_of_rectangular_matrices(self, r, c, data):
        m = data.draw(shaped_matrices(r, c))
        assert m.rank() == _naive_rank(m)

    def test_wrong_shapes_raise(self):
        wide = Matrix.from_rows([[1, Fraction(1, 2), -3]])
        for query in (wide.det, wide.inverse):
            with pytest.raises(DimensionMismatch):
                query()
        assert wide.rank() == 1


class TestNormalForm:
    """On ``d`` independent vectors, ``align_witnesses`` is the Hermite
    normal form ``H = u Z`` of the square matrix ``Z`` whose columns are
    the vectors; here it is checked through the rational matrix layer."""

    def test_swap(self):
        # A cyclic permutation of the unit vectors: u is its inverse.
        assert align_witnesses([(0, 0, 1), (1, 0, 0), (0, 1, 0)]) == (
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)))

    def test_input_validation(self):
        # A zero vector, or more vectors than coordinates, has no pivot.
        for vectors in ([(0, 0, 0)], [(1,), (2,)],
                        [(1, 0), (0, 1), (1, 1)]):
            with pytest.raises(SingularMatrixError):
                align_witnesses(vectors)

    @given(st.integers(1, 4).flatmap(
        lambda d: nonsingular_int_matrices(d, 5)))
    def test_postconditions(self, z):
        n = z.nrows
        aligned, inverse = align_witnesses(
            [tuple(int(e) for e in z.column(j)) for j in range(n)])
        h = Matrix.from_columns(aligned)
        u = Matrix.from_rows(inverse).inverse()
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
    """``align_witnesses`` returns the Hermite columns of the vectors with
    the integer rows of ``u^-1``, also for fewer vectors than coordinates."""

    @staticmethod
    def _assert_hermite(witnesses):
        aligned, inverse = align_witnesses(witnesses)
        assert len(aligned) == len(witnesses)
        assert len(inverse) == len(witnesses[0])
        assert all(isinstance(e, int) for rows in (aligned, inverse)
                   for row in rows for e in row)
        assert abs(_det_by_permutations(Matrix.from_rows(inverse))) == 1
        for i, (w, h) in enumerate(zip(witnesses, aligned)):
            assert tuple(sum(a * b for a, b in zip(row, h))
                         for row in inverse) == tuple(w)
            assert h[i] > 0
            assert not any(h[i + 1:])
            assert all(0 <= h[j] < h[i] for j in range(i))

    def test_one_by_one(self):
        assert align_witnesses([(-3,)]) == (((3,),), ((-1,),))

    def test_swapped_unit_vectors(self):
        assert align_witnesses([(0, 1), (1, 0)]) == (
            ((1, 0), (0, 1)), ((0, 1), (1, 0)))

    def test_dependent_vectors_rejected(self):
        for vectors in ([(1, 2), (2, 4)], [(1, 1), (1, 1)],
                        [(1, 1, 0), (0, 1, 1), (1, 2, 1)]):
            with pytest.raises(SingularMatrixError):
                align_witnesses(vectors)

    @given(st.integers(1, 4).flatmap(
        lambda d: nonsingular_int_matrices(d, 5)))
    def test_flag_alignment(self, z):
        self._assert_hermite([tuple(int(e) for e in z.column(j))
                              for j in range(z.ncols)])

    @given(st.integers(2, 5).flatmap(
        lambda d: st.integers(1, d - 1).flatmap(
            lambda k: st.lists(int_points(d, 3), min_size=k, max_size=k))))
    def test_partial_flag(self, witnesses):
        # k < d vectors: the stage alignment of the minima search.
        assume(Matrix.from_columns(witnesses).rank() == len(witnesses))
        self._assert_hermite(witnesses)
