"""Exact rational matrices and the integer Hermite normal form.

Every entry is a :class:`fractions.Fraction`; no routine in this module ever
touches floating point.  The arithmetic runs on integers: a rational matrix
is written as ``Z / D`` (``Z`` the integer numerator matrix, ``D`` the least
common denominator of the entries), products and matrix-vector products
multiply the numerators and divide once per entry, and determinants, ranks
and inverses come from fraction-free (Bareiss 1968) elimination of ``Z``,
whose every division is exact.  The sizes involved are tiny (dimension
<= 6 in practice), so the algorithms favour clarity over asymptotics.

One integer helper lives here because the rest of the package needs it:
:func:`align_witnesses` takes ``k <= d`` independent integer vectors
``w_1..w_k`` and returns, as integer tuples, the Hermite columns
``u @ w_i`` of a unimodular ``u`` (zero below entry ``i``) together with the
rows of ``u^-1``.  It is the change of basis that lines a witness family up
with the standard flag, and its square case is the Hermite normal form that
gives a sublattice's coset digits.  It runs one shared column step,
:func:`_hermite_step`, per vector; the minima search runs the same step
once per new witness and mirrors its row operations onto its stage views,
so the package has one Hermite reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A nonsingular (or full-rank) matrix was required."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _lcd_form(entries: Sequence[Sequence[Scalar]],
              ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(Z, D)`` with ``Z = D * entries`` for the least common denominator
    ``D`` of the entries (integers or fractions)."""
    d = math.lcm(*(e.denominator for row in entries for e in row))
    return (tuple(tuple(e.numerator * (d // e.denominator) for e in row)
                  for row in entries), d)


def _over(z: Iterable[Iterable[int]], d: int) -> tuple[Vector, ...]:
    """The rows of the rational matrix ``z / d``."""
    if d == 1:
        return tuple(tuple(map(Fraction, row)) for row in z)
    return tuple(tuple(Fraction(e, d) for e in row) for row in z)


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    work = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            wi, wik = work[i], work[i][k]
            for j in range(k + 1, n):
                wi[j] = (wi[j] * pivot - wik * work[k][j]) // prev
        prev = pivot
    return sign * work[n - 1][n - 1]


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix stored as a tuple of row tuples.

    Its integer form ``(Z, D)`` and, for a square matrix, the determinant
    of ``Z`` are computed on first read and kept; ``==``, ``hash`` and
    ``repr`` read only ``entries``."""

    entries: tuple[tuple[Fraction, ...], ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "Matrix":
        data = tuple(tuple(_frac(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        return Matrix(data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(tuple(tuple(one if i == j else zero for j in range(n))
                            for i in range(n)))

    @staticmethod
    def diagonal(values: Iterable[Scalar]) -> "Matrix":
        vals = [_frac(v) for v in values]
        zero = Fraction(0)
        return Matrix(tuple(tuple(vals[i] if i == j else zero
                                  for j in range(len(vals)))
                            for i in range(len(vals))))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        if not cols:
            raise DimensionMismatch("no columns")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix.from_rows([[cols[j][i] for j in range(len(cols))]
                                 for i in range(height)])

    # -- shape / access ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_integer(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    @cached_property
    def _integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(Z, D)``: the numerators ``Z = D * self`` over the least
        common denominator ``D`` of the entries (:func:`_lcd_form`)."""
        return _lcd_form(self.entries)

    @cached_property
    def _integer_det(self) -> int:
        """``det Z`` of a square matrix ``Z / D`` (Bareiss elimination)."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        return _int_det(self._integer_form[0])

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.column(j) for j in range(self.ncols)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        za, da = self._integer_form
        zb, db = other._integer_form
        cols = tuple(zip(*zb))
        return Matrix(_over(
            [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in za], da * db))

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product ``self @ v``."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length does not match columns")
        z, d = self._integer_form
        (x,), e = _lcd_form([v])
        return _over([[sum(a * b for a, b in zip(row, x)) for row in z]],
                     d * e)[0]

    def scaled(self, factor: Scalar) -> "Matrix":
        f = _frac(factor)
        return Matrix(tuple(tuple(e * f for e in row) for row in self.entries))

    # -- elimination-based queries ------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant: ``det Z / D^n`` for ``self = Z / D``, with
        ``det Z`` by Bareiss elimination."""
        return Fraction(self._integer_det,
                        self._integer_form[1] ** self.nrows)

    def rank(self) -> int:
        """Rank of the numerators ``Z`` by fraction-free elimination.

        Every entry stays a minor of ``Z`` (Sylvester's identity), also
        across columns without a pivot, so each division is exact."""
        work = [list(row) for row in self._integer_form[0]]
        nrows = self.nrows
        rank, prev = 0, 1
        for col in range(self.ncols):
            pivot_row = next((r for r in range(rank, nrows)
                              if work[r][col] != 0), None)
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            top = work[rank]
            pivot = top[col]
            for r in range(rank + 1, nrows):
                f = work[r][col]
                work[r] = [(a * pivot - f * b) // prev
                           for a, b in zip(work[r], top)]
            prev = pivot
            rank += 1
            if rank == nrows:
                break
        return rank

    def inverse(self) -> "Matrix":
        """``D Z^-1`` for ``self = Z / D``, by fraction-free Gauss-Jordan
        elimination of ``[Z | I]``: it ends at ``[p I | p Z^-1]`` with
        ``p = +-det Z``, every division exact."""
        if not self.is_square:
            raise DimensionMismatch("inverse needs a square matrix")
        z, d = self._integer_form
        n = self.nrows
        work = [list(row) + [int(i == j) for j in range(n)]
                for i, row in enumerate(z)]
        prev = 1
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0),
                             None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            top = work[col]
            pivot = top[col]
            for r in range(n):
                if r != col:
                    f = work[r][col]
                    work[r] = [(a * pivot - f * b) // prev
                               for a, b in zip(work[r], top)]
            prev = pivot
        return Matrix(tuple(tuple(Fraction(e * d, prev) for e in row[n:])
                            for row in work))


def _hermite_step(u: list[list[int]], w: Sequence[int], k: int,
                  ) -> tuple[list[int], list[tuple]]:
    """One column of the Hermite reduction of :func:`align_witnesses`.

    ``u`` holds, as row lists, the unimodular product of the steps before
    column ``k``.  The step reduces the column ``c = u @ w`` at row ``k``:
    Euclidean reduction of ``c[k:]`` pivoting on the smallest nonzero
    entry (Cohen 1993, section 2.4), a positive pivot, and the entries
    above it reduced into ``[0, c[k])``.  It applies its elementary row
    operations to ``u`` in place and returns ``(c, ops)``, the operations
    in order: ``("swap", i, j)`` swaps rows ``i`` and ``j``, ``("sub", i,
    j, q)`` subtracts ``q`` times row ``j`` from row ``i``, ``("neg", i)``
    negates row ``i``.  Every column reduced before is zero from row ``k``
    down, so no later step changes it.

    Raises:
        SingularMatrixError: if ``c[k:]`` is zero, that is ``w`` lies in
            the span of the vectors of the earlier columns.
    """
    dim = len(u)
    c = [sum([a * b for a, b in zip(row, w)]) for row in u]
    ops: list[tuple] = []

    def sub(i: int, q: int) -> None:
        if q:
            c[i] -= q * c[k]
            u[i] = [a - q * b for a, b in zip(u[i], u[k])]
            ops.append(("sub", i, k, q))

    while True:
        live = [r for r in range(k, dim) if c[r]]
        if not live:
            raise SingularMatrixError("vectors are linearly dependent")
        pivot_row = min(live, key=lambda r: abs(c[r]))
        if pivot_row != k:
            c[k], c[pivot_row] = c[pivot_row], c[k]
            u[k], u[pivot_row] = u[pivot_row], u[k]
            ops.append(("swap", k, pivot_row))
        for r in range(k + 1, dim):
            if c[r]:
                sub(r, c[r] // c[k])
        if not any(c[k + 1:]):
            break
    if c[k] < 0:
        c[k] = -c[k]
        u[k] = [-a for a in u[k]]
        ops.append(("neg", k))
    for r in range(k):
        sub(r, c[r] // c[k])
    return c, ops


def align_witnesses(vectors: Sequence[Sequence[int]],
                    ) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
    """Hermite normal form of independent integer vectors, with ``u^-1``.

    Args:
        vectors: ``k <= d`` linearly independent integer vectors
            ``w_1..w_k`` of length ``d``.

    Returns:
        A pair ``(aligned, inverse)``.  ``aligned[i] == u @ w_i`` for a
        unimodular ``u``: it is zero below entry ``i``, positive at ``i``,
        and ``0 <= aligned[i][j] < aligned[i][i]`` for ``j < i``.
        ``inverse`` holds the integer rows of ``u^-1``.

    Raises:
        SingularMatrixError: if the vectors are linearly dependent.

    ``u`` is the product of :func:`_hermite_step`'s row operations, one
    step per column.  ``u^-1`` is built alongside by applying the inverse
    operations to the columns of an identity, kept transposed so that they
    are row operations too, which keeps it integer: row ``i`` of ``u``
    losing ``q`` times row ``j`` is column ``j`` of ``u^-1`` gaining ``q``
    times column ``i``.
    """
    dim = len(vectors[0])
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv_t = [[int(i == j) for j in range(dim)] for i in range(dim)]
    aligned = []
    for k, w in enumerate(vectors):
        c, ops = _hermite_step(u, w, k)
        for op in ops:
            if op[0] == "swap":
                _, i, j = op
                inv_t[i], inv_t[j] = inv_t[j], inv_t[i]
            elif op[0] == "sub":
                _, i, j, q = op
                inv_t[j] = [a + q * b for a, b in zip(inv_t[j], inv_t[i])]
            else:
                inv_t[op[1]] = [-a for a in inv_t[op[1]]]
        aligned.append(tuple(c))
    return tuple(aligned), tuple(zip(*inv_t))
