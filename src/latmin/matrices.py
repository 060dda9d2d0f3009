"""Exact rational matrices and integer normal forms.

Every entry is a :class:`fractions.Fraction`; no routine in this module ever
touches floating point.  The sizes involved are tiny (dimension <= 6 in
practice), so the algorithms favour clarity over asymptotics: Gaussian
elimination for determinants/solves, Euclidean row reduction for the
triangular integer normal form.

Two less common helpers live here because the rest of the package needs them:

* :func:`hnf_left` -- given a nonsingular integer matrix ``z``, produce a
  unimodular ``u`` with ``u @ z`` upper triangular, positive diagonal, and
  each above-diagonal entry reduced modulo the diagonal entry of its column.
* :func:`align_witnesses` -- given independent integer vectors ``z1..zd``,
  produce a unimodular ``u`` such that ``u @ zi`` has zeros below
  coordinate ``i``.  This is the change of basis that lines a witness
  family up with the standard flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A nonsingular (or full-rank) matrix was required."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vector(entries: Iterable[Scalar]) -> Vector:
    return tuple(_frac(e) for e in entries)


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix stored as a tuple of row tuples."""

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

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_integer(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.column(j) for j in range(self.ncols)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        cols = [other.column(j) for j in range(other.ncols)]
        return Matrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries))

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product ``self @ v``."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length does not match columns")
        vv = [_frac(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vv))
                     for row in self.entries)

    def scaled(self, factor: Scalar) -> "Matrix":
        f = _frac(factor)
        return Matrix(tuple(tuple(e * f for e in row) for row in self.entries))

    # -- elimination-based queries ------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant via fraction-free-style Gaussian elimination."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        n = self.nrows
        work = [list(row) for row in self.entries]
        sign = 1
        acc = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0),
                             None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                sign = -sign
            pivot = work[col][col]
            acc *= pivot
            for r in range(col + 1, n):
                factor = work[r][col] / pivot
                if factor:
                    work[r] = [a - factor * b
                               for a, b in zip(work[r], work[col])]
        return acc * sign

    def rank(self) -> int:
        work = [list(row) for row in self.entries]
        nrows, ncols = self.nrows, self.ncols
        rank = 0
        for col in range(ncols):
            pivot_row = next((r for r in range(rank, nrows)
                              if work[r][col] != 0), None)
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pivot = work[rank][col]
            for r in range(rank + 1, nrows):
                factor = work[r][col] / pivot
                if factor:
                    work[r] = [a - factor * b
                               for a, b in zip(work[r], work[rank])]
            rank += 1
            if rank == nrows:
                break
        return rank

    def solve(self, rhs: Sequence[Scalar]) -> Vector:
        """Solve ``self @ x == rhs`` exactly (square, nonsingular)."""
        if not self.is_square:
            raise DimensionMismatch("solve needs a square matrix")
        n = self.nrows
        if len(rhs) != n:
            raise DimensionMismatch("right-hand side has wrong length")
        work = [list(row) + [_frac(rhs[i])] for i, row in
                enumerate(self.entries)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0),
                             None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot = work[col][col]
            work[col] = [e / pivot for e in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [a - factor * b
                               for a, b in zip(work[r], work[col])]
        return tuple(work[r][n] for r in range(n))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.nrows
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0),
                             None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot = work[col][col]
            work[col] = [e / pivot for e in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [a - factor * b
                               for a, b in zip(work[r], work[col])]
        return Matrix(tuple(tuple(work[i][n:]) for i in range(n)))


def hnf_left(z: Matrix) -> tuple[Matrix, Matrix]:
    """Triangularize an integer matrix by a left unimodular factor.

    Args:
        z: square, nonsingular matrix with integer entries.

    Returns:
        A pair ``(u, h)`` with ``u`` unimodular (integer, ``|det u| == 1``)
        and ``h == u @ z`` upper triangular such that every diagonal entry is
        positive and each above-diagonal entry ``h[i][j]`` (``i < j``)
        satisfies ``0 <= h[i][j] < h[j][j]``.

    Raises:
        SingularMatrixError: if ``z`` is singular.
        ValueError: if ``z`` has a non-integer entry.
    """
    if not z.is_square:
        raise DimensionMismatch("normal form needs a square matrix")
    if not z.is_integer():
        raise ValueError("normal form needs integer entries")
    n = z.nrows
    h = [[int(e) for e in row] for row in z.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap(a: int, b: int) -> None:
        h[a], h[b] = h[b], h[a]
        u[a], u[b] = u[b], u[a]

    def submul(dst: int, src: int, q: int) -> None:
        if q:
            h[dst] = [a - q * b for a, b in zip(h[dst], h[src])]
            u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    for col in range(n):
        # Euclidean reduction: shrink entries below the pivot to zero.
        while True:
            live = [r for r in range(col, n) if h[r][col] != 0]
            if not live:
                raise SingularMatrixError("matrix is singular")
            pivot_row = min(live, key=lambda r: abs(h[r][col]))
            if pivot_row != col:
                swap(col, pivot_row)
            done = True
            for r in range(col + 1, n):
                if h[r][col]:
                    submul(r, col, h[r][col] // h[col][col])
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[col][col] < 0:
            h[col] = [-e for e in h[col]]
            u[col] = [-e for e in u[col]]
        # Reduce the entries above the pivot into [0, pivot).
        for r in range(col):
            submul(r, col, h[r][col] // h[col][col])
    return Matrix.from_rows(u), Matrix.from_rows(h)


def align_witnesses(vectors: Sequence[Sequence[int]]) -> Matrix:
    """Unimodular change of basis aligning vectors with the standard flag.

    Args:
        vectors: ``d`` linearly independent integer vectors ``z1..zd``.

    Returns:
        A unimodular matrix ``u`` such that ``u @ zi`` has zeros in all
        coordinates below position ``i`` (so ``u @ zi`` lies in the span of
        the first ``i`` standard basis vectors).
    """
    z = Matrix.from_columns([list(v) for v in vectors])
    if z.det() == 0:
        raise SingularMatrixError("witness vectors are dependent")
    u, _ = hnf_left(z)
    return u
