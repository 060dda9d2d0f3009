"""0-symmetric convex bodies with exact gauge evaluation.

Three shapes are supported, each storing exact rational data:

* :class:`Box` -- ``{x : |x_i| <= w_i}`` with positive rational halfwidths.
* :class:`HPolytope` -- ``{x : |<a_i, x>| <= 1}`` for the rows ``a_i`` of a
  rational matrix of rank ``d`` (rank makes the body bounded).
* :class:`Ellipsoid` -- ``{x : x^T Q x <= 1}`` for a symmetric positive
  definite rational ``Q``.

The gauge (Minkowski functional) of a rational point is rational for the two
polyhedral shapes and a square root of a rational for ellipsoids; both are
returned as :class:`~latmin.gauges.GaugeValue` so callers can compare them
exactly.

Point enumeration walks each body through a projection cascade.  For
polytopes it is a chain of Fourier-Motzkin projections (one per prefix
length, eliminating the last coordinate first); for ellipsoids it is the
chain of Schur complements of the Gram matrix.  Both cascades are kept in
exact integers (primitive integer rows; integer forms ``x M x <= s``), are
computed once per body and cached on the instance; fills are idempotent so
concurrent readers are safe.

Each Fourier-Motzkin row remembers the set of original rows it was built
from.  Besides keeping only the tightest of parallel rows, the elimination
drops the rows that Chernikov's rule (more than ``k + 1`` original rows
after ``k`` eliminations) and Kohler's rule (a set that strictly contains
another kept row's set) prove implied by the others (Imbert 1993).  That
keeps every level at the size of the projection itself: without the rules
a dim-6 polytope reaches tens of thousands of rows.  Only the last level,
the body's own rows, decides membership; the walks, the minima search and
the axis extents use the inner levels only as containers of the
projections, so a row dropped in error could only enlarge an inner level:
it would cost walking time, not give a wrong answer.

``preimage`` writes any nonsingular rational basis as ``Z / D`` (``Z``
integer, ``D`` the least common denominator) and derives the pulled-back
body from the parent's cached integer data: a polytope row ``c.x <= r``
becomes ``(c Z).y <= r D``, the integer Gram form ``(M, s)`` becomes
``(Z^T M Z, s D^2)``, each reduced to the form the constructor computes.
The constructors' checks are replaced by ones of equal strength:
nonsingularity by the integer (Bareiss) determinant of ``Z``, polytope rank
by the parent's rank, and positive definiteness by positive pivots of the
integer Schur chain (Sylvester's criterion), as in the constructor.

A view carries only integer data: its rational ``normals`` (numerators
``N Z`` over ``E D``) or ``gram`` is built on first read from the cached
integer form and kept, so the minima search, which reads only the integer
rows and forms, never builds a ``Fraction`` for its stage views.  ``==``,
``hash`` and ``repr`` read the field and build it; the result equals the
constructor's.  ``dim`` and the gauges read the integer form directly, and
the gauges stay independent of the search rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator, Sequence, Union

from .gauges import GaugeValue
from .lattices import Lattice
from .matrices import (DimensionMismatch, Matrix, Scalar, _frac, _int_det,
                       _lcd_form, _over)

# One-sided integer inequality `coeffs . x <= rhs`.
IntRow = tuple[tuple[int, ...], int]
# Integer quadratic form `x M x <= s` as the pair `(M, s)`.
IntForm = tuple[tuple[tuple[int, ...], ...], int]
# A `preimage` transform: a rational matrix or the rows of an integer one.
Transform = Union[Matrix, Sequence[Sequence[int]]]


class InvalidBodyError(ValueError):
    """Shape data violates a body invariant (positivity, rank, SPD)."""


# ---------------------------------------------------------------------------
# small integer helpers


def _integerize(coeffs: Sequence[Fraction], rhs: Fraction) -> IntRow:
    """Scale ``coeffs . x <= rhs`` by a positive rational into primitive ints."""
    lcm = math.lcm(*(c.denominator for c in coeffs), rhs.denominator)
    ints = [int(c * lcm) for c in coeffs]
    b = int(rhs * lcm)
    g = math.gcd(*ints, b)
    if g > 1:
        ints = [c // g for c in ints]
        b //= g
    return tuple(ints), b


def _row_times(row: Sequence[int],
               cols: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Integer row vector times the integer matrix with columns ``cols``."""
    return tuple([sum(map(mul, row, col)) for col in cols])


def _reduced(z: Sequence[Sequence[int]], d: int) -> IntForm:
    """``(Z, D)`` divided by the gcd of ``D`` and every entry of ``Z``: the
    least-common-denominator form of the rational matrix ``Z / D``."""
    g = math.gcd(d, *(e for row in z for e in row))
    return tuple(tuple([e // g for e in row]) for row in z), d // g


def _rational_field(body, name: str, field: str, source: str) -> Matrix:
    """Attribute ``name`` of a ``preimage`` view, which stores only the
    integer form ``(Z, D)`` of its rational ``field`` matrix, as the
    cached property ``source``: ``field`` is ``Z / D``, built on first read
    and kept.  Any other missing attribute raises as usual."""
    if name != field or source not in body.__dict__:
        raise AttributeError(
            f"{type(body).__name__!r} object has no attribute {name!r}")
    z, d = body.__dict__[source]
    matrix = Matrix(_over(z, d))
    object.__setattr__(body, field, matrix)
    return matrix


def _schur_chain(form: IntForm) -> tuple[IntForm, ...]:
    """The forms of :attr:`Ellipsoid._integer_forms` for the Gram form
    ``form``; raises unless every pivot is positive."""
    forms = [form]
    for k in range(len(form[0]), 0, -1):
        m, s = forms[-1]
        c = m[k - 1][k - 1]
        if c <= 0:
            raise InvalidBodyError("gram matrix must be positive definite")
        if k == 1:
            break
        col = [row[k - 1] for row in m[:k - 1]]
        # zip stops at the k - 1 entries of col: the leading minor.
        n = [[c * e - ci * cj for e, cj in zip(row, col)]
             for row, ci in zip(m, col)]
        g = math.gcd(c * s, *itertools.chain.from_iterable(n))
        forms.append((tuple(tuple([e // g for e in row]) for row in n),
                      c * s // g))
    forms.reverse()
    return tuple(forms)


def _prune_rows(rows: list[IntRow]) -> list[IntRow]:
    """Drop trivial rows and keep only the tightest of parallel rows.

    Parallel rows share the primitive direction ``coeffs / g``; their bounds
    ``rhs / g`` are compared by cross-multiplication.  The kept bound is
    written in lowest terms ``num / den`` as the row ``(den * key, num)``."""
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for coeffs, rhs in rows:
        g = math.gcd(*coeffs)
        if g == 0:
            # 0 <= rhs; trivially true for the 0-symmetric bodies we build.
            if rhs < 0:
                raise InvalidBodyError("projection produced an empty system")
            continue
        key = tuple([c // g for c in coeffs])
        old = best.get(key)
        if old is None or rhs * old[1] < old[0] * g:
            best[key] = (rhs, g)
    out = []
    for key, (rhs, g) in best.items():
        h = math.gcd(rhs, g)
        den = g // h
        out.append((tuple(c * den for c in key), rhs // h))
    return out


def _combinations(rows: Sequence[IntRow], hists: Sequence[int], width: int,
                  limit: int) -> Iterator[tuple[IntRow, int]]:
    """The rows of the Fourier-Motzkin elimination of variable
    ``width - 1``, each with its set of original rows.

    ``hists[i]`` is the set of original rows that ``rows[i]`` was built
    from, as a bitmask.  The rows free of the variable come first, then
    each combination of a row with a positive and a row with a negative
    coefficient, except those of more than ``limit`` original rows:
    Chernikov's rule (1965), ``limit`` being one more than the number of
    variables eliminated so far, proves them implied by the others."""
    pos: list[tuple[IntRow, int]] = []
    neg: list[tuple[IntRow, int]] = []
    for (coeffs, rhs), h in zip(rows, hists):
        last = coeffs[width - 1]
        if last == 0:
            yield (coeffs[:width - 1], rhs), h
        elif last > 0:
            pos.append(((coeffs, rhs), h))
        else:
            neg.append(((coeffs, rhs), h))
    for (cp, bp), hp in pos:
        a = cp[width - 1]
        head = cp[:width - 1]
        for (cn, bn), hn in neg:
            h = hp | hn
            if h.bit_count() > limit:
                continue
            d = -cn[width - 1]
            yield (tuple([d * x + a * y for x, y in zip(head, cn)]),
                   d * bp + a * bn), h


def _eliminate_last(rows: list[IntRow], hists: list[int], width: int,
                    limit: int) -> tuple[list[IntRow], list[int]]:
    """Fourier-Motzkin elimination of variable ``width - 1``.

    ``hists[i]`` is the set of original rows that ``rows[i]`` was built
    from, as a bitmask; the result carries the sets of its rows.  Besides
    the parallel-row pruning of :func:`_prune_rows` two rules drop rows
    that the others imply (Imbert 1993):

    * Chernikov (1965): a combination of more than ``limit`` original
      rows, ``limit`` being one more than the number of variables
      eliminated so far, is never built (:func:`_combinations`);
    * Kohler (1967): a row whose set strictly contains the set of another
      kept row is dropped.

    Of tied parallel rows the one with the smaller set is kept.  By the
    two rules' theorems every dropped row is implied by the kept ones, so
    the result is the same projection; a row dropped in error could only
    enlarge it, never shrink it."""
    # Rows are divided by their gcd, the primitive form _prune_rows writes,
    # so each kept row is one of these and ``hist_of`` gives its smallest
    # set.
    hist_of: dict[IntRow, int] = {}
    out = []
    for (coeffs, rhs), h in _combinations(rows, hists, width, limit):
        g = math.gcd(*coeffs, rhs)
        if g > 1:
            coeffs = tuple([c // g for c in coeffs])
            rhs //= g
        row = (coeffs, rhs)
        out.append(row)
        old = hist_of.get(row)
        if old is None or h.bit_count() < old.bit_count():
            hist_of[row] = h
    kept = _prune_rows(out)
    # By increasing size, so a set is kept iff no kept set is a subset.
    minimal: set[int] = set()
    for h in sorted({hist_of[row] for row in kept}, key=int.bit_count):
        if not any(m & h == m for m in minimal):
            minimal.add(h)
    kept = [row for row in kept if hist_of[row] in minimal]
    return kept, [hist_of[row] for row in kept]


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{x : |x_i| <= halfwidths[i]}``."""

    halfwidths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "halfwidths",
                           tuple(_frac(w) for w in self.halfwidths))
        if not self.halfwidths:
            raise InvalidBodyError("box needs at least one axis")
        if any(w <= 0 for w in self.halfwidths):
            raise InvalidBodyError("halfwidths must be positive")

    @property
    def dim(self) -> int:
        return len(self.halfwidths)

    @property
    def kind(self) -> str:
        return "box"

    def gauge(self, x: Sequence[Scalar]) -> GaugeValue:
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return GaugeValue.rational(
            max((abs(_frac(v)) / w for v, w in zip(x, self.halfwidths)),
                default=Fraction(0)))

    def scale(self, mu: "Scalar | GaugeValue") -> "Box":
        mu = _rational_scale(mu, "box")
        return Box(tuple(w * mu for w in self.halfwidths))

    def preimage(self, a: Transform) -> "SymmetricBody":
        """The body ``{y : a @ y in self}`` (gauge pulled back through ``a``,
        a rational :class:`Matrix` or integer rows): a box for a monomial
        ``a`` (one nonzero entry per row and column), else the pull-back of
        :meth:`polytope`.

        Row ``i`` of a monomial ``a`` reads ``a_ij y_j`` for one ``j``, so
        ``|a_ij y_j| <= w_i`` bounds axis ``j`` by ``w_i / |a_ij|``."""
        rows = a.entries if isinstance(a, Matrix) else a
        support = [[j for j, e in enumerate(row) if e] for row in rows]
        axes = [s[0] for s in support if len(s) == 1]
        if not (len(rows) == self.dim
                and all(len(row) == self.dim for row in rows)
                and sorted(axes) == list(range(self.dim))):
            return self.polytope().preimage(a)
        widths = [Fraction(0)] * self.dim
        for i, (j, w) in enumerate(zip(axes, self.halfwidths)):
            widths[j] = w / abs(rows[i][j])
        return Box(tuple(widths))

    def polytope(self) -> "HPolytope":
        """The same body as the polytope with normals ``e_i / w_i``."""
        return HPolytope(Matrix.diagonal([1 / w for w in self.halfwidths]))

    @property
    def volume(self) -> Fraction:
        vol = Fraction(1)
        for w in self.halfwidths:
            vol *= 2 * w
        return vol


@dataclass(frozen=True)
class HPolytope:
    """Symmetric polytope ``{x : |<a_i, x>| <= 1}`` for rows ``a_i``."""

    normals: Matrix

    def __post_init__(self) -> None:
        if any(all(e == 0 for e in row) for row in self.normals.entries):
            raise InvalidBodyError("zero normal row")
        if self.normals.rank() != self.normals.ncols:
            raise InvalidBodyError(
                "normals must have full column rank (bounded body)")

    def __getattr__(self, name: str) -> Matrix:
        return _rational_field(self, name, "normals", "_integer_normals")

    @property
    def dim(self) -> int:
        return len(self._integer_normals[0][0])

    @property
    def kind(self) -> str:
        return "hpolytope"

    def gauge(self, x: Sequence[Scalar]) -> GaugeValue:
        """``max |<a_i, x>|`` over the normals ``a_i``, from the normals'
        integer numerators ``Z`` over their least common denominator ``D``
        (:attr:`_integer_normals`) and ``x = X / E``: ``max |Z X| / (D E)``,
        one ``Fraction`` at the end."""
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        z, d = self._integer_normals
        (xs,), e = _lcd_form([x])
        return GaugeValue.rational(Fraction(
            max(abs(sum(c * v for c, v in zip(row, xs) if v)) for row in z),
            d * e))

    def scale(self, mu: "Scalar | GaugeValue") -> "HPolytope":
        mu = _rational_scale(mu, "hpolytope")
        return HPolytope(self.normals.scaled(Fraction(1) / mu))

    def preimage(self, a: Transform) -> "HPolytope":
        """The body ``{y : a @ y in self}``, i.e. normals ``self.normals @ a``,
        for a rational :class:`Matrix` or integer rows ``a``.

        With ``a = Z / D`` (``D = 1`` for integer rows) each row ``c.x <= r``
        of :attr:`_top_rows` becomes ``(c Z).y <= r D``, which
        :func:`_prune_rows` brings to the canonical primitive rows the
        constructor would compute, in the same order.  The integer normals
        ``(N, E)`` become ``(N Z, E D)`` in lowest terms; the view's
        ``normals`` are built from them only when read.  The rank carries
        over because ``Z`` is nonsingular."""
        z, d = _integer_basis(a, self.dim)
        cols = tuple(zip(*z))
        nums, den = self._integer_normals
        return _derived(HPolytope, _integer_normals=_reduced(
                            [_row_times(row, cols) for row in nums], den * d),
                        _top_rows=tuple(_prune_rows(
                            [(_row_times(coeffs, cols), rhs * d)
                             for coeffs, rhs in self._top_rows])))

    @cached_property
    def _integer_normals(self) -> IntForm:
        """``(Z, D)`` with ``Z = D * normals`` for the least common
        denominator ``D`` of the entries."""
        return _lcd_form(self.normals.entries)

    @cached_property
    def _top_rows(self) -> tuple[IntRow, ...]:
        """The system ``|<a_i, x>| <= 1`` as pruned primitive integer rows."""
        rows: list[IntRow] = []
        for normal in self.normals.entries:
            coeffs, rhs = _integerize(normal, Fraction(1))
            rows.append((coeffs, rhs))
            rows.append((tuple(-c for c in coeffs), rhs))
        return tuple(_prune_rows(rows))

    @cached_property
    def _cascade(self) -> tuple[tuple[IntRow, ...], ...]:
        """Projection systems indexed by width: entry ``k-1`` constrains the
        first ``k`` coordinates.  Entry ``d-1`` is :attr:`_top_rows`.

        The rows of :attr:`_top_rows` are the original rows of the
        Chernikov and Kohler rules of :func:`_eliminate_last`, row ``i``
        the bit ``1 << i``, so the levels depend only on their order."""
        systems = [self._top_rows]
        hists = [1 << i for i in range(len(self._top_rows))]
        for width in range(self.dim, 1, -1):
            limit = self.dim - width + 2
            if width > 2:
                rows, hists = _eliminate_last(list(systems[-1]), hists,
                                              width, limit)
            else:
                # Level 0 needs no sets: nothing reads them, and
                # _prune_rows leaves one row per sign, neither implied by
                # the other, so Kohler's rule cannot drop either.
                rows = _prune_rows([row for row, _ in _combinations(
                    systems[-1], hists, width, limit)])
            systems.append(tuple(rows))
        systems.reverse()
        for k, system in enumerate(systems):
            has_pos = any(c[k] > 0 for c, _ in system)
            has_neg = any(c[k] < 0 for c, _ in system)
            if not (has_pos and has_neg):
                raise InvalidBodyError(
                    "projection interval unbounded; body is not compact")
        return tuple(systems)


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid ``{x : x^T Q x <= 1}`` with symmetric positive definite Q."""

    gram: Matrix

    def __post_init__(self) -> None:
        q = self.gram
        if not q.is_square:
            raise InvalidBodyError("gram matrix must be square")
        if q != q.transpose():
            raise InvalidBodyError("gram matrix must be symmetric")
        _schur_chain(_lcd_form(q.entries))  # Sylvester's criterion, uncached

    def __getattr__(self, name: str) -> Matrix:
        return _rational_field(self, name, "gram", "_integer_gram")

    @property
    def dim(self) -> int:
        return len(self._integer_gram[0])

    @property
    def kind(self) -> str:
        return "ellipsoid"

    def gauge_squared(self, x: Sequence[Scalar]) -> Fraction:
        """``x^T Q x`` as ``X^T M X / (s E^2)`` from the integer form
        ``(M, s)`` of :attr:`_integer_gram` and ``x = X / E``, one
        ``Fraction`` at the end."""
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        m, s = self._integer_gram
        (xs,), e = _lcd_form([x])
        return Fraction(sum(v * sum(c * w for c, w in zip(row, xs) if w)
                            for v, row in zip(xs, m) if v), s * e * e)

    def gauge(self, x: Sequence[Scalar]) -> GaugeValue:
        return GaugeValue.sqrt_of(self.gauge_squared(x))

    def scale(self, mu: "Scalar | GaugeValue") -> "Ellipsoid":
        if isinstance(mu, GaugeValue):
            sq = mu.squared()
            if sq <= 0:
                raise ValueError("scale factor must be positive")
            return Ellipsoid(self.gram.scaled(Fraction(1) / sq))
        mu = _frac(mu)
        if mu <= 0:
            raise ValueError("scale factor must be positive")
        return Ellipsoid(self.gram.scaled(Fraction(1) / (mu * mu)))

    def preimage(self, a: Transform) -> "Ellipsoid":
        """The body ``{y : a @ y in self}``, with Gram matrix ``a^T Q a``,
        for a rational :class:`Matrix` or integer rows ``a``.

        With ``a = Z / D`` (``D = 1`` for integer rows) the integer form
        ``(M, s)`` of ``Q`` becomes ``(Z^T M Z, s D^2)`` divided by the gcd
        of its entries and scale, which is the least-common-denominator form
        of ``a^T Q a``; the view's ``gram`` is built from it only when read.
        Positive definiteness is re-checked by the positive pivots of the
        view's integer Schur chain."""
        z, d = _integer_basis(a, self.dim)
        m, s = self._integer_gram
        cols = tuple(zip(*z))
        # M is symmetric, so its rows are its columns: Z^T M row by row,
        # then each row times Z.
        zt_m = [_row_times(col, m) for col in cols]
        view = _derived(Ellipsoid, _integer_gram=_reduced(
            [_row_times(row, cols) for row in zt_m], s * d * d))
        view._integer_forms  # raises unless every Schur pivot is positive
        return view

    @cached_property
    def _integer_gram(self) -> IntForm:
        """``(M, s)`` with ``M = s * gram`` for the least common denominator
        ``s`` of the entries."""
        return _lcd_form(self.gram.entries)

    @cached_property
    def _integer_forms(self) -> tuple[IntForm, ...]:
        """Gram forms of the coordinate projections, by prefix width.

        Entry ``k-1`` is ``(M, s)`` with ``x M x <= s`` equivalent to the
        projection of the body onto its first ``k`` coordinates, ``M / s``
        in lowest terms (``s`` the least common denominator).  Each entry is
        the Schur complement of the next one's last diagonal entry ``c``:
        ``(c M' - m m^T) / (c s)``, reduced by the common gcd.  Every pivot
        ``c`` must be positive (Sylvester's criterion for the congruent
        diagonal form); otherwise the body is not positive definite."""
        return _schur_chain(self._integer_gram)


SymmetricBody = Union[Box, HPolytope, Ellipsoid]


# ---------------------------------------------------------------------------
# shared operations


def _rational_scale(mu: "Scalar | GaugeValue", kind: str) -> Fraction:
    if isinstance(mu, GaugeValue):
        try:
            mu = mu.as_rational()
        except ValueError:
            raise ValueError(
                f"cannot scale a {kind} by an irrational factor exactly")
    mu = _frac(mu)
    if mu <= 0:
        raise ValueError("scale factor must be positive")
    return mu


def _integer_basis(a: Transform, dim: int) -> IntForm:
    """Validate a ``preimage`` transform, square of size ``dim`` and
    nonsingular, and write it as ``Z / D``: returns ``(Z, D)`` with ``Z``
    an integer matrix and ``D`` the least common denominator of a rational
    :class:`Matrix`; integer rows are ``Z`` itself over ``D = 1``."""
    if isinstance(a, Matrix):
        if not a.is_square or a.nrows != dim:
            raise DimensionMismatch("transform has wrong shape")
        z, d = _lcd_form(a.entries)
    else:
        if len(a) != dim or any(len(row) != dim for row in a):
            raise DimensionMismatch("transform has wrong shape")
        z, d = a, 1
    if _int_det(z) == 0:
        raise InvalidBodyError("transform must be nonsingular")
    return z, d


def _derived(cls, **fields):
    """An instance of ``cls`` from data derived from a validated body.

    Skips ``__post_init__``, whose checks the caller has replaced by ones of
    equal strength; ``fields`` may pre-fill cached properties."""
    body = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(body, name, value)
    return body


def contains(body: SymmetricBody, lam: "Scalar | GaugeValue",
             x: Sequence[Scalar], strict: bool = False) -> bool:
    """Is ``x`` in ``lam * body`` (interior if ``strict``)?"""
    g = body.gauge(x)
    lam = GaugeValue.coerce(lam)
    return g < lam if strict else g <= lam


def volume_estimate(body: SymmetricBody, lattice: Lattice,
                    resolution: Scalar) -> Fraction:
    """Riemann-sum volume estimate ``r^d * #(K meet r*Lattice) * det``.

    Exact rational output; the counting step is exact, so the only error is
    the discretization itself, which vanishes as ``resolution`` shrinks.
    """
    from .enumeration import count_points

    r = _frac(resolution)
    if r <= 0:
        raise ValueError("resolution must be positive")
    if body.dim != lattice.dim:
        raise DimensionMismatch("body and lattice dimensions differ")
    fine = Lattice(lattice.basis.scaled(r))
    n = count_points(body, fine, GaugeValue.rational(1))
    return r ** body.dim * n * lattice.determinant


def corner_gauge_bound(body: SymmetricBody, lattice: Lattice) -> Fraction:
    """Rational upper bound on ``max`` gauge of ``B c`` over cube corners
    ``c in {-1, 1}^d``; used to bound the Riemann estimate's surface term."""
    best = Fraction(0)
    for corner in itertools.product((-1, 1), repeat=body.dim):
        g = body.gauge(lattice.basis.apply(corner)).rational_upper_bound()
        if g > best:
            best = g
    return best
