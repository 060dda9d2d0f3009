"""Lattices, sublattices, and residue classes.

A lattice is ``B @ Z^d`` for a nonsingular rational basis matrix ``B`` whose
*columns* are the generators.  A sublattice is described relative to its
parent by an integer coefficient matrix ``C``: the sublattice is generated by
``B @ C`` and has index ``|det C|`` in the parent.

Residue-class bookkeeping (coset representatives, same-coset tests) is what
the counting arguments downstream lean on, so those operations live here and
are exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .matrices import (DimensionMismatch, IntVector, Matrix,
                       SingularMatrixError, align_witnesses)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice ``basis @ Z^d`` with cached determinant."""

    basis: Matrix
    determinant: Fraction = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.basis.is_square:
            raise DimensionMismatch("lattice basis must be square")
        det = self.basis.det()
        if det == 0:
            raise SingularMatrixError("lattice basis is singular")
        object.__setattr__(self, "determinant", abs(det))

    @staticmethod
    @functools.cache
    def standard(dim: int) -> "Lattice":
        """``Z^dim``, one shared instance per dimension (lattices are
        immutable)."""
        return Lattice(Matrix.identity(dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @functools.cached_property
    def is_standard(self) -> bool:
        """Is the basis the identity?  Read once and kept."""
        return all(e == int(i == j) for i, row in enumerate(self.basis.entries)
                   for j, e in enumerate(row))

    def point(self, coords: Sequence[int]) -> tuple[Fraction, ...]:
        """Ambient coordinates of the lattice point with given basis coords."""
        return self.basis.apply(coords)


@dataclass(frozen=True)
class Sublattice:
    """Sublattice ``parent.basis @ coeff @ Z^d`` of a parent lattice."""

    parent: Lattice
    coeff: Matrix

    def __post_init__(self) -> None:
        if not self.coeff.is_square or self.coeff.nrows != self.parent.dim:
            raise DimensionMismatch("coefficient matrix shape mismatch")
        if not self.coeff.is_integer():
            raise ValueError("coefficient matrix must be integral")
        if self.coeff.det() == 0:
            raise SingularMatrixError("coefficient matrix is singular")

    @property
    def dim(self) -> int:
        return self.parent.dim

    @property
    def index(self) -> int:
        """Index of the sublattice in its parent, ``|det coeff|``."""
        return int(abs(self.coeff.det()))

    def as_lattice(self) -> Lattice:
        return Lattice(self.parent.basis @ self.coeff)

    def _column_triangular_diagonal(self) -> tuple[int, ...]:
        # Column-operation normal form: coeff @ V lower triangular.  Its
        # diagonal gives the mixed-radix digit bounds for coset reps.
        aligned, _ = align_witnesses(
            [[int(e) for e in row] for row in self.coeff.entries])
        return tuple(h[i] for i, h in enumerate(aligned))

    def residue_representatives(self) -> tuple[IntVector, ...]:
        """One representative per coset of the sublattice in its parent.

        Representatives are integer coordinate vectors w.r.t. the *parent*
        basis: mixed-radix digit vectors ``0 <= t_i < d_i`` where ``d_i`` are
        the diagonal entries of a column-style triangular form of ``coeff``.
        The number of representatives equals the index.
        """
        digits = self._column_triangular_diagonal()
        return tuple(itertools.product(*(range(d) for d in digits)))

    def contains_parent_vector(self, v: Sequence[int]) -> bool:
        """Is the parent-lattice point with coords ``v`` in the sublattice?"""
        coords = self.coeff.inverse().apply(v)
        return all(c.denominator == 1 for c in coords)

    def same_residue(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """Do parent points ``a`` and ``b`` lie in the same coset?"""
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionMismatch("vector length mismatch")
        return self.contains_parent_vector(
            tuple(int(x) - int(y) for x, y in zip(a, b)))
