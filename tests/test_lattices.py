"""Lattices, sublattices, and residue-class bookkeeping."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from latmin import (DimensionMismatch, Lattice, Matrix, SingularMatrixError,
                    Sublattice)

from strategies import int_points, nonsingular_int_matrices

SKEW = Lattice(Matrix.from_rows([[1, 1], [0, 2]]))


class TestLattice:
    def test_standard(self):
        std = Lattice.standard(3)
        assert std.dim == 3
        assert std.is_standard
        assert std.determinant == 1

    def test_determinant_is_absolute(self):
        assert SKEW.determinant == 2
        assert Lattice(Matrix.diagonal([1, Fraction(-1, 2)])).determinant == \
            Fraction(1, 2)

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularMatrixError):
            Lattice(Matrix.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(DimensionMismatch):
            Lattice(Matrix.from_rows([[1, 2]]))

    def test_point_uses_basis_columns(self):
        # Generators are the columns: coords (1, -1) -> column0 - column1.
        assert SKEW.point((1, -1)) == (0, -2)


class TestSublattice:
    def test_validation(self):
        std = Lattice.standard(2)
        with pytest.raises(DimensionMismatch):
            Sublattice(std, Matrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            Sublattice(std, Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]]))
        with pytest.raises(SingularMatrixError):
            Sublattice(std, Matrix.from_rows([[1, 1], [1, 1]]))

    def test_index_and_as_lattice(self):
        sub = Sublattice(SKEW, Matrix.diagonal([2, -3]))
        assert sub.index == 6
        assert sub.dim == 2
        assert sub.as_lattice().determinant == SKEW.determinant * 6

    def test_residue_representatives_diagonal(self):
        sub = Sublattice(Lattice.standard(2), Matrix.diagonal([1, 3]))
        assert sub.index == 3
        assert sub.residue_representatives() == ((0, 0), (0, 1), (0, 2))

    def test_contains_parent_vector(self):
        sub = Sublattice(Lattice.standard(2), Matrix.diagonal([1, 3]))
        assert sub.contains_parent_vector((5, 3))
        assert not sub.contains_parent_vector((5, 4))

    def test_same_residue(self):
        sub = Sublattice(Lattice.standard(2), Matrix.diagonal([1, 3]))
        assert sub.same_residue((5, 4), (0, 1))
        assert not sub.same_residue((5, 4), (0, 2))
        with pytest.raises(DimensionMismatch):
            sub.same_residue((1,), (0, 0))

    @given(nonsingular_int_matrices(2, 3), int_points(2, 6), int_points(2, 6))
    def test_same_residue_matches_difference_membership(self, coeff, a, b):
        sub = Sublattice(Lattice.standard(2), coeff)
        diff = tuple(x - y for x, y in zip(a, b))
        assert sub.same_residue(a, b) == sub.contains_parent_vector(diff)

    @given(st.integers(2, 3).flatmap(
        lambda d: nonsingular_int_matrices(d, 3)))
    def test_representatives_are_a_transversal(self, coeff):
        sub = Sublattice(Lattice.standard(coeff.nrows), coeff)
        assume(sub.index <= 24)
        reps = sub.residue_representatives()
        assert len(reps) == sub.index
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not sub.same_residue(a, b)
