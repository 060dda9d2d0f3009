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

The bodies are 0-symmetric, so every projection is too, and each
Fourier-Motzkin row is a pair ``|c . x| <= r``: one row stands for the
one-sided rows ``c . x <= r`` and ``-c . x <= r``, which halves every
level, every interval and every run key.  Each row remembers the set of
original one-sided rows its ``+`` side was built from; its ``-`` side has
the mirrored set.  Besides keeping only the tightest of parallel rows, the
elimination drops the rows that Chernikov's rule (more than ``k + 1``
original rows after ``k`` eliminations) and Kohler's rule (a set that
strictly contains another kept one-sided row's set) prove implied by the
others (Imbert 1993).  That keeps every level at the size of the
projection itself: without the rules a dim-6 polytope reaches tens of
thousands of rows.  Only the last level, the body's own rows, decides
membership; the walks, the minima search and the axis extents use the
inner levels only as containers of the projections, so a row dropped in
error could only enlarge an inner level: it would cost walking time, not
give a wrong answer.

``preimage`` writes any nonsingular rational basis as ``Z / D`` (``Z``
integer, ``D`` the least common denominator) and derives the pulled-back
body from the parent's cached integer data: the integer normals ``(N, E)``
become ``(N Z, E D)``, the integer Gram form ``(M, s)`` becomes ``(Z^T M Z,
s D^2)``, each reduced to the form the constructor computes.  The
constructors' checks are replaced by ones of equal strength:
nonsingularity by the integer (Bareiss) determinant of ``Z``, polytope rank
by the parent's rank, and positive definiteness by positive pivots of the
integer Schur chain (Sylvester's criterion), as in the constructor.

A view carries only integer data.  A polytope view stores only its integer
normals: its top rows, its cascade and its rational ``normals`` (numerators
``N Z`` over ``E D``) are derived from them on first read and kept, as an
ellipsoid view's ``gram`` is from its integer form.  So the minima search,
which reads only the integer rows and forms, never builds a ``Fraction``
for its stage views.  ``==``, ``hash`` and ``repr`` read the field and
build it; the result equals the constructor's.  ``dim`` and the gauges read
the integer form directly, and the gauges stay independent of the search
rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence, Union

from .gauges import GaugeValue
from .lattices import Lattice
from .matrices import (DimensionMismatch, Matrix, Scalar, _frac, _int_det,
                       _lcd_form, _over)

# Integer inequality pair `|coeffs . x| <= rhs`.
IntRow = tuple[tuple[int, ...], int]
# Integer quadratic form `x M x <= s` as the pair `(M, s)`.
IntForm = tuple[tuple[tuple[int, ...], ...], int]
# A `preimage` transform: a rational matrix or the rows of an integer one.
Transform = Union[Matrix, Sequence[Sequence[int]]]


class InvalidBodyError(ValueError):
    """Shape data violates a body invariant (positivity, rank, SPD)."""


# ---------------------------------------------------------------------------
# small integer helpers


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


def _tightest(rows: Iterable[tuple[tuple[int, ...], int, int]], half: int,
              ) -> list[tuple[IntRow, int]]:
    """Drop trivial rows and keep only the tightest of parallel rows.

    A row ``(coeffs, rhs, h)`` is ``|coeffs . x| <= rhs``, built from the
    set ``h`` of original rows (a bitmask of :func:`_eliminate_last`, whose
    ``half`` original pairs take the low bits for ``+`` and the high bits
    for ``-``).  Parallel rows share the primitive direction ``coeffs / g``
    up to sign; each row is turned so that its last nonzero coefficient is
    positive, which mirrors its set, and the bounds ``rhs / g`` are
    compared by cross-multiplication.  Of tied rows the first with the
    smallest set is kept, as ``((den * key, num), h)`` for the bound ``num
    / den`` in lowest terms, in the order the directions first occur."""
    low = (1 << half) - 1
    # Primitive direction, last nonzero entry positive -> (rhs, g, h) of
    # the row |g * key . x| <= rhs.
    best: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for coeffs, rhs, h in rows:
        g = math.gcd(*coeffs)
        if g == 0:
            # |0| <= rhs; trivially true for the 0-symmetric bodies we build.
            if rhs < 0:
                raise InvalidBodyError("projection produced an empty system")
            continue
        for c in reversed(coeffs):
            if c:
                break
        if c < 0:
            g = -g
            h = (h >> half) | ((h & low) << half)
        key = tuple([c // g for c in coeffs]) if g != 1 else coeffs
        g = abs(g)
        old = best.get(key)
        if old is not None:
            cross, old_cross = rhs * old[1], old[0] * g
            if cross > old_cross or (cross == old_cross and
                                     h.bit_count() >= old[2].bit_count()):
                continue
        best[key] = (rhs, g, h)
    out = []
    for key, (rhs, g, h) in best.items():
        q = math.gcd(rhs, g)
        den = g // q
        out.append(((tuple([c * den for c in key]), rhs // q), h))
    return out


def _prune_rows(rows: Iterable[IntRow]) -> list[IntRow]:
    """:func:`_tightest` of rows that carry no sets."""
    return [row for row, _ in _tightest(((c, r, 0) for c, r in rows), 0)]


def _eliminate_last(rows: Sequence[IntRow], hists: Sequence[int], width: int,
                    limit: int, half: int) -> tuple[list[IntRow], list[int]]:
    """Fourier-Motzkin elimination of variable ``width - 1``, in one pass.

    Each row ``(c, r)`` is the pair ``|c . x| <= r``, that is the one-sided
    rows ``c . x <= r`` and ``-c . x <= r``.  ``hists[i]`` is the set of
    original one-sided rows that the ``+`` side of ``rows[i]`` was built
    from, as a bitmask: original pair ``i`` of ``half`` is bit ``i`` for
    ``+`` and bit ``i + half`` for ``-``, so the ``-`` side has the
    mirrored set ``(h >> half) | ((h & (2^half - 1)) << half)``, and
    turning a row over mirrors its set.  The result carries the sets of
    its rows.

    Each pair with a nonzero last coefficient is turned so that the
    coefficient ``a`` is positive.  Of the one-sided combinations, those of
    a pair with itself are zero and those of ``{P, Q}`` come as one row and
    its negative, so each unordered pair is combined once, as ``(d c_P - a
    c_Q, d r_P + a r_Q)`` with the set ``h_P | mirror(h_Q)``, ``a`` and
    ``d`` the last coefficients of ``P`` and ``Q``.  The rows free of the
    variable, then the combinations, go through one :func:`_tightest` pass,
    which keeps the tightest of parallel rows and, of tied ones, the one
    with the smaller set.  Two rules drop rows that the others imply
    (Imbert 1993), read on the one-sided system, whose sets are the kept
    sets and their mirrors:

    * Chernikov (1965): a combination of more than ``limit`` original
      rows, ``limit`` being one more than the number of variables
      eliminated so far, is never built;
    * Kohler (1967): a row whose set strictly contains the set of another
      kept one-sided row, or its mirror, is dropped.

    By the two rules' theorems every dropped row is implied by the kept
    ones, so the result is the same projection; a row dropped in error
    could only enlarge it, never shrink it."""
    last = width - 1
    low = (1 << half) - 1
    out: list[tuple[tuple[int, ...], int, int]] = []
    live = []
    for (coeffs, rhs), h in zip(rows, hists):
        a = coeffs[last]
        if a == 0:
            out.append((coeffs[:last], rhs, h))
        elif a > 0:
            live.append((coeffs[:last], a, rhs, h,
                         (h >> half) | ((h & low) << half)))
        else:
            live.append((tuple([-c for c in coeffs[:last]]), -a, rhs,
                         (h >> half) | ((h & low) << half), h))
    out += [(tuple([d * x - a * y for x, y in zip(cp, cq)]), d * rp + a * rq,
             hp | mq)
            for i, (cp, a, rp, hp, _) in enumerate(live)
            for cq, d, rq, _, mq in live[i + 1:]
            if (hp | mq).bit_count() <= limit]
    kept = _tightest(out, half)
    sets = {h for _, h in kept}
    sets |= {(h >> half) | ((h & low) << half) for h in sets}
    # By increasing size, so a set is kept iff no kept set is a subset.
    minimal: set[int] = set()
    for h in sorted(sets, key=int.bit_count):
        if not any(m & h == m for m in minimal):
            minimal.add(h)
    kept = [(row, h) for row, h in kept if h in minimal]
    return [row for row, _ in kept], [h for _, h in kept]


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
        """The same body as the polytope with normals ``e_i / w_i``: for
        ``w_i = n_i / d_i`` and ``L = lcm(n_i)``, the integer normals
        ``(diag(d_i L / n_i), L)``, with no rank check (a nonzero
        diagonal)."""
        lcm = math.lcm(*(w.numerator for w in self.halfwidths))
        return _derived(HPolytope, _integer_normals=(tuple(
            tuple([w.denominator * lcm // w.numerator if i == j else 0
                   for j in range(self.dim)])
            for i, w in enumerate(self.halfwidths)), lcm))

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

        With ``a = Z / D`` (``D = 1`` for integer rows) the integer normals
        ``(N, E)`` become ``(N Z, E D)`` in lowest terms, and the view stores
        nothing else: its ``normals``, :attr:`_top_rows` and
        :attr:`_cascade` are built from them only when read.  The rank
        carries over because ``Z`` is nonsingular."""
        z, d = _integer_basis(a, self.dim)
        cols = tuple(zip(*z))
        nums, den = self._integer_normals
        return _derived(HPolytope, _integer_normals=_reduced(
            [_row_times(row, cols) for row in nums], den * d))

    @cached_property
    def _integer_normals(self) -> IntForm:
        """``(Z, D)`` with ``Z = D * normals`` for the least common
        denominator ``D`` of the entries."""
        return _lcd_form(self.normals.entries)

    @cached_property
    def _top_rows(self) -> tuple[IntRow, ...]:
        """The system ``|<a_i, x>| <= 1`` as pruned primitive integer pairs:
        row ``z`` of the integer normals ``(Z, D)`` gives ``(z / g, D /
        g)``, ``g = gcd(D, *z)``, turned by :func:`_tightest` so that its
        last nonzero coefficient is positive.  A view's rows are its
        parent's pulled back, in the same order and up to sign: a
        nonsingular basis keeps the parallel classes and which bound of
        each is tightest."""
        z, d = self._integer_normals
        rows: list[IntRow] = []
        for row in z:
            g = math.gcd(d, *row)
            rows.append((tuple([c // g for c in row]), d // g))
        return tuple(_prune_rows(rows))

    @cached_property
    def _cascade(self) -> tuple[tuple[IntRow, ...], ...]:
        """Projection systems indexed by width: entry ``k-1`` constrains the
        first ``k`` coordinates.  Entry ``d-1`` is :attr:`_top_rows`.

        The pairs of :attr:`_top_rows` are the original pairs of the
        Chernikov and Kohler rules of :func:`_eliminate_last`, pair ``i``
        the bit ``1 << i`` on its ``+`` side, so the levels depend only on
        their order.  Every row leaves :func:`_tightest` with its last
        nonzero coefficient positive, so level ``k`` has ``c[k] >= 0`` in
        every row ``c``; it bounds coordinate ``k`` iff some ``c[k]`` is
        nonzero."""
        half = len(self._top_rows)
        systems = [self._top_rows]
        hists = [1 << i for i in range(half)]
        for width in range(self.dim, 1, -1):
            rows, hists = _eliminate_last(systems[-1], hists, width,
                                          self.dim - width + 2, half)
            systems.append(tuple(rows))
        systems.reverse()
        for k, system in enumerate(systems):
            if not any(c[k] for c, _ in system):
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
        # Sylvester's criterion; the chain fills both cached properties.
        chain = _schur_chain(_lcd_form(q.entries))
        self.__dict__["_integer_gram"] = chain[-1]
        self.__dict__["_integer_forms"] = chain

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
    :class:`Matrix`, whose integer form and determinant it keeps, so a
    lattice basis is reduced once however many bodies it pulls back;
    integer rows are ``Z`` itself over ``D = 1``."""
    if isinstance(a, Matrix):
        if not a.is_square or a.nrows != dim:
            raise DimensionMismatch("transform has wrong shape")
        z, d = a._integer_form
        det = a._integer_det
    else:
        if len(a) != dim or any(len(row) != dim for row in a):
            raise DimensionMismatch("transform has wrong shape")
        z, d = a, 1
        det = _int_det(z)
    if det == 0:
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
