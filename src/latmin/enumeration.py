"""Exact enumeration and counting of lattice points in dilated bodies.

Counting ``#(mu*K  meet  Lattice)`` is reduced to the standard lattice: with
``Lattice = B @ Z^d`` the points of ``mu*K meet B Z^d`` are exactly ``B y``
for integer ``y`` in ``mu * (B^-1 K)``, so every routine first pulls the body
back through the basis and then walks integer vectors coordinate by
coordinate.

One walker, :func:`_walk`, does every such walk (Fincke-Pohst style): it
takes the integer range of each coordinate from an interval provider and
yields the last coordinate's range whole, as a leaf run ``(prefix, lo,
hi)``.  Counting sums the run lengths, enumeration expands the runs, and the
minima search (:func:`min_key_point_outside`) walks the same way with
center-out ranges and a provider that reads its shrinking bound.  Boxes
skip the walk: their counts and point lists are products of per-axis ranges.

Every walk of a dilate runs at one integer key.  Since ``mu^2 = p/q`` is
rational, the integer points of ``mu*K``, or of its interior when strict,
are those whose integer gauge key is at most one integer ``K``, the
``key_bound(p, q, strict)`` of the body's walk provider: ``floor(mu lcm)``,
or ``ceil(mu lcm) - 1`` when strict, for a polytope whose rows share the
bound ``lcm`` (computed with ``math.isqrt``, so rational and square-root
dilations alike); ``floor(mu^2 s)``, or ``ceil(mu^2 s) - 1``, for an
ellipsoid with full form ``(M, s)``.  The providers are the search's own,
:func:`_poly_levels` (the Fourier-Motzkin cascade) and
:func:`_chain_levels` (the Schur chain), so every level that ``build(K)``
sets is a projection of that key set.  The key set of a strict walk holds
no point of the boundary, so the walk does not descend through every
prefix of a tied boundary face only to find each last interval empty.

The ellipsoid levels are walked incrementally: each level keeps the
coefficients of its quadratic in the coordinate being fixed and derives
them from its parent's in ``O(k)`` at depth ``k``, not ``O(k^2)``.  That
state is sound because the walk is depth first: a level is always asked
about a child of the prefix its parent was last asked about.

All arithmetic on the hot path is plain integer arithmetic: polytope rows
and ellipsoid Gram forms are integers, and a dilation or a search bound is
folded into the integer key that bounds each level rather than into the
body or the coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator

from .bodies import (Box, Ellipsoid, HPolytope, InvalidBodyError,
                     SymmetricBody)
from .gauges import GaugeValue
from .lattices import Lattice
from .matrices import DimensionMismatch

IntPoint = tuple[int, ...]
# The integer range ``(lo, hi)`` of one coordinate, ``None`` when empty.
Bounds = tuple[int, int] | None
# The leaf points ``prefix + (t,)`` for ``lo <= t <= hi``.
Run = tuple[IntPoint, int, int]


@dataclass(frozen=True)
class PointSet:
    """Lattice points of a dilated body, in lattice-basis coordinates."""

    dim: int
    lattice: Lattice
    points: tuple[IntPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[IntPoint]:
        return iter(self.points)


def _standard_body(body: SymmetricBody, lattice: Lattice) -> SymmetricBody:
    if body.dim != lattice.dim:
        raise DimensionMismatch("body and lattice dimensions differ")
    if lattice.is_standard:
        return body
    return body.preimage(lattice.basis)


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _isqrt_bound(num: int, den: int, strict: bool) -> int:
    """The largest integer ``n`` with ``n <= sqrt(num/den)`` (``<`` when
    strict), for ``num, den > 0``."""
    n = math.isqrt(num // den)
    if strict and n * n * den == num:
        n -= 1
    return n


# ---------------------------------------------------------------------------
# the walker


def _ascending(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


def _walk(dim: int, interval: Callable[[int, IntPoint], Bounds],
          span: Callable[[int, int], Iterable[int]] = _ascending,
          ) -> Iterator[Run]:
    """Leaf runs ``(prefix, lo, hi)``: the integer points ``prefix + (t,)``,
    ``lo <= t <= hi``, of the set that ``interval`` describes.

    ``interval(k, prefix)`` is the integer range ``(lo, hi)`` of coordinate
    ``k`` given the first ``k`` coordinates, or ``None`` when it is empty.
    The inner coordinates take their values in the order ``span(lo, hi)``;
    the last coordinate's range is yielded whole, as one run.  The walk is
    lazy, so ``interval`` may read state that the consumer changes between
    runs (the search tightens its bound this way).  A stack of the open
    ``span`` iterators keeps the depth-first order of a recursion without
    a generator per node or a closure that refers to itself."""
    last = dim - 1
    iv = interval(0, ())
    if iv is None:
        return
    if not last:
        yield (), iv[0], iv[1]
        return
    prefix: IntPoint = ()  # the prefix of the innermost open span
    spans = [iter(span(*iv))]
    while spans:
        k = len(spans)
        for t in spans[-1]:
            child = prefix + (t,)
            iv = interval(k, child)
            if iv is None:
                continue
            if k == last:
                yield child, iv[0], iv[1]
            else:
                prefix = child
                spans.append(iter(span(*iv)))
                break
        else:
            spans.pop()
            prefix = prefix[:-1]


# ---------------------------------------------------------------------------
# polytope levels: lists of integer rows per prefix length


def _poly_interval(rows, prefix: IntPoint, k: int) -> Bounds:
    """Integer range of coordinate ``k`` under the pairs ``|c . x| <= r``
    of ``rows``, each with ``c[k] >= 0``, at ``prefix``; ``None`` when it
    is empty.

    With ``s`` the dot product of ``c`` and the prefix, a pair with ``c[k]
    > 0`` bounds ``t`` by ``-(r + s) <= c[k] t <= r - s``, and one with
    ``c[k] = 0`` fails when ``|s| > r``."""
    lo = None
    hi = None
    for coeffs, rhs in rows:
        s = 0
        for c, p in zip(coeffs, prefix):
            if c:
                s += c * p
        cj = coeffs[k]
        if cj == 0:
            if s > rhs or -s > rhs:
                return None
            continue
        b = (rhs - s) // cj
        if hi is None or b < hi:
            hi = b
        b = -((rhs + s) // cj)
        if lo is None or b > lo:
            lo = b
    if hi is None:
        raise InvalidBodyError("unbounded enumeration interval")
    if lo > hi:
        return None
    return lo, hi


def _poly_levels(view: HPolytope):
    """``(build, interval, run_key, key_bound, to_gauge)``: the walker's
    levels for the points of ``view`` with integer key at most ``K``, and
    the key rule, for the key rows ``(key_rows, lcm)`` of
    :func:`_poly_key_rows`, under which ``gauge(x) = key(x) / lcm``.

    A point has key at most ``K`` iff it satisfies every top pair ``|c.x|
    <= r`` scaled to ``lcm |c.x| <= K r``, and the cascade pairs,
    projections of the top pairs, scale the same way.  So ``build(K)`` sets
    the levels to the cascade's own coefficients, level ``k`` with ``c[k]
    >= 0`` as :attr:`HPolytope._cascade` keeps it, and the bounds ``floor(K
    r / lcm)``: level ``k`` bounds the projection of the key set on the
    first ``k + 1`` coordinates, and the last level is the key set itself.
    ``interval`` (:func:`_poly_interval`) reads the levels of the last
    build, so a search may rebuild between calls.

    ``key_bound(p, q, strict)`` is the ``K`` of the dilate ``mu^2 = p/q``:
    ``key <= mu lcm`` gives ``K = isqrt(lcm^2 p // q)``, one less when
    strict and the root is attained.  ``to_gauge(k)`` is the gauge ``k /
    lcm`` of key ``k``."""
    key_rows, lcm = _poly_key_rows(view)
    levels: list[list[tuple[IntPoint, int]]] = []

    def build(key: int) -> None:
        levels[:] = [[(coeffs, key * rhs // lcm) for coeffs, rhs in rows]
                     for rows in view._cascade]

    def interval(k: int, prefix: IntPoint) -> Bounds:
        return _poly_interval(levels[k], prefix, k)

    def key_bound(p: int, q: int, strict: bool) -> int:
        return _isqrt_bound(lcm * lcm * p, q, strict)

    def to_gauge(key: int) -> GaugeValue:
        return GaugeValue.rational(Fraction(key, lcm))

    return (build, interval, functools.partial(_poly_run_key, key_rows),
            key_bound, to_gauge)


# ---------------------------------------------------------------------------
# ellipsoid levels: the integer Schur chain, walked incrementally


def _chain_levels(body: Ellipsoid):
    """``(build, interval, run_key, key_bound, to_gauge)``: the walker's
    levels for the points of ``body`` with integer key ``x M x <= K``,
    ``(M, s)`` the full form, and the key rule.

    The Schur chain :attr:`Ellipsoid._integer_forms` holds ``(M_k, s_k)``
    on the first ``k + 1`` coordinates, and ``x M_k x <= s_k`` is the
    projection of ``x M x <= s``.  So ``build(K)`` bounds level ``k`` by
    ``x M_k x <= T_k = floor(K s_k / s)`` on integers, and the last level
    is the key set itself.  ``interval(k, prefix)`` is the integer range of
    coordinate ``k`` at ``prefix`` (``None`` when empty): with ``x = prefix
    + (t,)`` membership is ``alpha t^2 + 2 beta t + gamma <= T_k``.  The
    bounds of the last build are read at every call, so a search may
    rebuild between calls.

    Each level keeps the ``(beta, gamma)`` of its last call, which is that
    of the current prefix in a depth-first walk that asks every level in
    turn (:func:`_walk`): the parent's quadratic at the coordinate just
    fixed is then ``Q = (alpha' t + 2 beta') t + gamma'``.  The chain step
    ``c M_k[:k, :k] = g_k M_{k-1} + m m^T`` (``c = alpha``, ``m`` the last
    column, ``g_k = c s_k / s_{k-1}``) gives ``gamma = (g_k Q + beta^2) /
    alpha``, an exact integer division, so a call costs ``O(k)`` for
    ``beta`` instead of ``O(k^2)`` for ``gamma``.  The same step turns the
    discriminant ``beta^2 - alpha (gamma - T_k)`` into ``alpha T_k - g_k
    Q``.

    ``run_key(prefix)`` is ``t -> x M x`` on the last level, read from its
    state, so the last call there must have been at ``prefix``.

    ``key_bound(p, q, strict)`` is the ``K`` of the dilate ``mu^2 = p/q``:
    ``x M x <= p s / q`` gives ``K = floor(p s / q)``, or ``ceil(p s / q) -
    1`` when strict.  ``to_gauge(k)`` is the gauge ``sqrt(k / s)`` of key
    ``k``."""
    forms = body._integer_forms
    scales = [s for _, s in forms]
    alphas = [m[k][k] for k, (m, _) in enumerate(forms)]
    columns = [m[k][:k] for k, (m, _) in enumerate(forms)]
    gains = [0] + [alphas[k] * scales[k] // scales[k - 1]
                   for k in range(1, len(forms))]
    bounds = [0] * len(forms)
    betas = [0] * len(forms)
    gammas = [0] * len(forms)

    def build(key: int) -> None:
        bounds[:] = [key * s // scales[-1] for s in scales]

    def interval(k: int, prefix: IntPoint) -> Bounds:
        a = alphas[k]
        if k:
            j = k - 1
            t = prefix[j]
            gq = gains[k] * ((alphas[j] * t + 2 * betas[j]) * t + gammas[j])
            b = sum(map(mul, columns[k], prefix))
            betas[k] = b
            gammas[k] = (gq + b * b) // a
        else:
            b = gq = 0
        disc = a * bounds[k] - gq
        if disc < 0:
            return None
        root = math.isqrt(disc)
        hi = (root - b) // a
        lo = -((b + root) // a)
        if lo > hi:
            return None
        return lo, hi

    def run_key(prefix: IntPoint) -> Callable[[int], int]:
        a, b, c = alphas[-1], betas[-1], gammas[-1]
        return lambda t: (a * t + 2 * b) * t + c

    def key_bound(p: int, q: int, strict: bool) -> int:
        return (p * scales[-1] - strict) // q

    def to_gauge(key: int) -> GaugeValue:
        return GaugeValue.sqrt_of(Fraction(key, scales[-1]))

    return build, interval, run_key, key_bound, to_gauge


def _levels(view: "Ellipsoid | HPolytope"):
    """The walk provider of ``view``: :func:`_chain_levels` for an
    ellipsoid, :func:`_poly_levels` for a polytope."""
    if isinstance(view, Ellipsoid):
        return _chain_levels(view)
    return _poly_levels(view)


# ---------------------------------------------------------------------------
# box closed forms


def _axis_range(w: Fraction, mu: GaugeValue, strict: bool) -> range:
    """The integers ``t`` with ``|t| <= mu*w`` (``<`` when strict): with
    ``mu^2 = p/q`` that is ``t^2 <= w^2 p/q``."""
    sq = mu.squared()
    m = _isqrt_bound(w.numerator ** 2 * sq.numerator,
                     w.denominator ** 2 * sq.denominator, strict)
    return range(-m, m + 1)


# ---------------------------------------------------------------------------
# public API


def _dilate_interval(zbody: "Ellipsoid | HPolytope", mu: GaugeValue,
                     strict: bool) -> Callable[[int, IntPoint], Bounds]:
    """The walker's interval provider for ``mu * zbody`` (its interior when
    strict): the search's own levels, built at one integer key.

    With ``mu^2 = p/q`` the integer points of the dilate, or of its
    interior when strict, are those of integer key at most the provider's
    ``key_bound(p, q, strict)`` (:func:`_levels`).  Every level is then the
    projection of that key set."""
    sq = mu.squared()
    build, interval, _, key_bound, _ = _levels(zbody)
    build(key_bound(sq.numerator, sq.denominator, strict))
    return interval


def _dilate_runs(zbody: "Ellipsoid | HPolytope", mu: GaugeValue,
                 strict: bool) -> Iterator[Run]:
    """Leaf runs of the integer points of ``mu * zbody`` (its interior when
    strict), in lexicographic order."""
    return _walk(zbody.dim, _dilate_interval(zbody, mu, strict))


def open_point_outside(view: SymmetricBody, mu: GaugeValue, flat: int) -> bool:
    """Does the open dilate ``mu * view`` hold an integer point whose first
    ``flat`` coordinates are not all zero?

    One strict walk that stops at the first run holding such a point.  Its
    levels are projections of the key set of the open dilate
    (:func:`_dilate_interval`), which holds no point of the boundary, so
    the walk does not descend through the prefixes of a tied face.  As
    in :func:`min_key_point_outside`, coordinate ``flat`` gets an empty
    interval when the prefix is zero, so the subspace is never walked; with
    ``flat == dim`` only the origin is left out.  A box holds such a point
    iff one of its first ``flat`` open axis ranges holds a nonzero
    integer."""
    if not 1 <= flat <= view.dim:
        raise ValueError("flat must be in 1..dim")
    if isinstance(view, Box):
        return any(len(_axis_range(w, mu, True)) > 1
                   for w in view.halfwidths[:flat])
    interval = _dilate_interval(view, mu, True)

    def level(k: int, prefix: IntPoint) -> Bounds:
        if k == flat and not any(prefix):
            return None
        return interval(k, prefix)

    return any(any(prefix) or lo or hi
               for prefix, lo, hi in _walk(view.dim, level))


def count_points(body: SymmetricBody, lattice: Lattice,
                 mu: "GaugeValue | Fraction | int",
                 strict: bool = False) -> int:
    """Number of lattice points in ``mu * body`` (interior when strict)."""
    mu = GaugeValue.coerce(mu)
    if mu.is_zero():
        return 0 if strict else 1
    zbody = _standard_body(body, lattice)
    if isinstance(zbody, Box):
        total = 1
        for w in zbody.halfwidths:
            total *= len(_axis_range(w, mu, strict))
        return total
    return sum(hi - lo + 1 for _, lo, hi in _dilate_runs(zbody, mu, strict))


def enumerate_points(body: SymmetricBody, lattice: Lattice,
                     mu: "GaugeValue | Fraction | int",
                     strict: bool = False) -> PointSet:
    """All lattice points of ``mu * body``, in lattice-basis coordinates.

    Points come out in lexicographic order.  The cardinality always matches
    :func:`count_points` for identical arguments.
    """
    mu = GaugeValue.coerce(mu)
    dim = body.dim
    if mu.is_zero():
        pts = () if strict else ((0,) * dim,)
        return PointSet(dim, lattice, pts)
    zbody = _standard_body(body, lattice)
    if isinstance(zbody, Box):
        ranges = [_axis_range(w, mu, strict) for w in zbody.halfwidths]
        return PointSet(dim, lattice, tuple(itertools.product(*ranges)))
    return PointSet(dim, lattice, tuple(
        prefix + (t,) for prefix, lo, hi in _dilate_runs(zbody, mu, strict)
        for t in range(lo, hi + 1)))


# ---------------------------------------------------------------------------
# independent oracle and helpers


def count_oracle(body: SymmetricBody, lattice: Lattice,
                 mu: "GaugeValue | Fraction | int", box_radius: int,
                 strict: bool = False) -> int:
    """Reference count: scan the integer box ``[-R, R]^d`` and test the
    defining inequalities of the body point by point.

    The caller must guarantee (e.g. via :func:`enclosing_radius`) that every
    solution has all coordinates within ``box_radius``.  Deliberately shares
    no interval machinery with :func:`count_points`.
    """
    sq = GaugeValue.coerce(mu).squared()
    a, b = sq.numerator, sq.denominator
    zbody = _standard_body(body, lattice)
    within = _gauge_squared_within(zbody)
    count = 0
    for p in itertools.product(range(-box_radius, box_radius + 1),
                               repeat=zbody.dim):
        g = within(p, a, b)
        if g is not None and not (strict and g[0] * b == a * g[1]):
            count += 1
    return count


def _gauge_squared_within(zbody: SymmetricBody):
    """``within(x, a, b)``: the exact ``gauge(x)^2`` as ``(n, d)`` when
    ``n/d <= a/b``, else ``None``; the evaluator of both brute-force oracles.

    Built straight from the defining data (halfwidths, normals, the Gram
    matrix), so the oracles share no arithmetic with the walks.  A polytope
    is its normals as integer rows ``c`` over ``r``, with ``gauge(x) = max
    |c.x| / r``, and a box the rows ``d_i e_i`` over ``n_i`` for ``w_i =
    n_i/d_i``; ``within`` returns ``None`` at the first row past the bound,
    so a point that cannot qualify rarely costs every row."""
    if isinstance(zbody, Ellipsoid):
        lcm = math.lcm(*(e.denominator for row in zbody.gram.entries
                         for e in row))
        m = [[int(e * lcm) for e in row] for row in zbody.gram.entries]

        def within_ell(x: IntPoint, a: int, b: int) -> tuple[int, int] | None:
            n = sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, m) if xi)
            return None if n * b > a * lcm else (n, lcm)

        return within_ell
    # Each row is ``(c, r^2)``.
    if isinstance(zbody, Box):
        dim = zbody.dim
        rows = [(tuple(w.denominator * (j == i) for j in range(dim)),
                 w.numerator ** 2) for i, w in enumerate(zbody.halfwidths)]
    else:
        rows = []
        for normal in zbody.normals.entries:
            lcm = math.lcm(*(e.denominator for e in normal))
            rows.append((tuple(int(e * lcm) for e in normal), lcm * lcm))

    def within(x: IntPoint, a: int, b: int) -> tuple[int, int] | None:
        n, d = 0, 1
        for coeffs, rr in rows:
            dot = sum(map(mul, coeffs, x))
            dot *= dot
            if dot * b > a * rr:
                return None
            if dot * d > n * rr:
                n, d = dot, rr
        return n, d

    return within


def axis_extent_bounds(body: SymmetricBody,
                       lattice: Lattice) -> tuple[Fraction, ...]:
    """Rational upper bounds ``e_i >= max { |y_i| : y in body }`` in lattice
    coordinates (exact for boxes and polytopes; for ellipsoids a tight
    rational bound on the irrational extent ``sqrt((G^-1)_ii)``)."""
    zbody = _standard_body(body, lattice)
    dim = zbody.dim
    if isinstance(zbody, Box):
        return zbody.halfwidths
    if isinstance(zbody, Ellipsoid):
        inv = zbody.gram.inverse()
        return tuple(GaugeValue.sqrt_of(inv[j, j]).rational_upper_bound()
                     for j in range(dim))
    extents = []
    for axis in range(dim):
        # Level 0 of the cascade of the view with this axis moved first.
        view = zbody
        if axis:
            order = list(range(dim))
            order[0], order[axis] = axis, 0
            view = zbody.preimage([[int(j == order[i]) for j in range(dim)]
                                   for i in range(dim)])
        extents.append(min(Fraction(rhs, abs(coeffs[0]))
                           for coeffs, rhs in view._cascade[0]))
    return tuple(extents)


def axis_radii(body: SymmetricBody, lattice: Lattice,
               mu: "GaugeValue | Fraction | int") -> tuple[int, ...]:
    """Per-axis integer radii ``R_i`` such that every point of ``mu*body``
    in lattice coordinates has ``|y_i| <= R_i``."""
    mu_up = GaugeValue.coerce(mu).rational_upper_bound()
    return tuple(_ceil_div((e * mu_up).numerator, (e * mu_up).denominator)
                 for e in axis_extent_bounds(body, lattice))


def enclosing_radius(body: SymmetricBody, lattice: Lattice,
                     mu: "GaugeValue | Fraction | int") -> int:
    """An integer ``R`` such that every point of ``mu*body`` in lattice
    coordinates has ``|y_i| <= R`` for every coordinate."""
    return max(axis_radii(body, lattice, mu), default=0)


def min_key_point_outside(view: SymmetricBody, flat: int, mu: int,
                          image_rows: tuple[IntPoint, ...]):
    """Preferred smallest-gauge point of ``mu*view`` off a coordinate subspace.

    Considers integer points whose first ``flat`` coordinates are not all
    zero.  Among those of minimal gauge, the winner is chosen by the image
    ``x = image_rows @ y``: smallest ``(abs(reversed(x)), x)`` after
    normalizing each +-pair so the first nonzero entry of ``x`` is positive.
    Returns ``(gauge, x)`` for the winner, or ``None`` when the dilate
    contains no qualifying point.

    The search is a branch-and-bound run of the same walker that counts and
    enumerates: coordinate intervals at every depth come from the
    projection cascade scaled to the best integer key found so far
    (initially that of ``mu``), rebuilt whenever that key shrinks, and each
    interval is scanned center-out so the bound tightens after the first
    root-to-leaf path.  The subspace is left out by giving coordinate
    ``flat`` an empty interval when the prefix is zero.  On the final
    coordinate the tied points form a contiguous run whose preferred image
    is located analytically, so neither time nor memory grows with the
    number of lattice points on a tied gauge face.  A box is searched as the
    polytope with the pairs ``|d x_i| <= n`` for ``w_i = n/d``, whose
    integer key is exactly the box's.
    """
    if not 1 <= flat <= view.dim:
        raise ValueError("flat must be in 1..dim")
    if mu <= 0:
        raise ValueError("mu must be a positive integer")
    if isinstance(view, Box):
        view = view.polytope()
    build, interval, run_key, key_bound, to_gauge = _levels(view)
    state = _OutsideState(key_bound(mu * mu, 1, False))
    built_for = None

    def level(k: int, prefix: IntPoint) -> Bounds:
        nonlocal built_for
        if k == flat and not any(prefix):
            return None
        if built_for != state.best:
            built_for = state.best
            build(built_for)
        return interval(k, prefix)

    whole = flat == view.dim
    for prefix, lo, hi in _walk(view.dim, level, _centered):
        base, dirv = _image_run(image_rows, prefix)
        state.absorb_run(lo, hi, run_key(prefix), base, dirv,
                         whole and not any(prefix))
    return state.result(to_gauge)


def _centered(lo: int, hi: int) -> Iterator[int]:
    """``lo..hi`` ordered by distance from the midpoint.

    Visiting the middle of each feasibility interval first makes the
    branch-and-bound reach a near-minimal leaf on its first descent."""
    c = (lo + hi) // 2
    yield c
    down, up = c - 1, c + 1
    while True:
        emitted = False
        if up <= hi:
            yield up
            up += 1
            emitted = True
        if down >= lo:
            yield down
            down -= 1
            emitted = True
        if not emitted:
            return


def _sign_canonical(p: IntPoint) -> IntPoint:
    for v in p:
        if v > 0:
            return p
        if v < 0:
            return tuple(-x for x in p)
    return p


def _convex_int_min(lo: int, hi: int, f) -> tuple[int, int]:
    """A minimizer of a convex integer-valued function on ``lo..hi``."""
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if f(mid) <= f(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    t_best = lo
    v_best = f(lo)
    for t in range(lo + 1, hi + 1):
        v = f(t)
        if v < v_best:
            t_best, v_best = t, v
    return t_best, v_best


def _left_edge(lo: int, t_min: int, f, bound: int) -> int:
    """Smallest ``t`` with ``f(t) <= bound``; ``f`` nonincreasing on the range."""
    hi = t_min
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) <= bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _right_edge(t_min: int, hi: int, f, bound: int) -> int:
    """Largest ``t`` with ``f(t) <= bound``; ``f`` nondecreasing on the range."""
    lo = t_min
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _run_tie_candidates(a: int, b: int, base: IntPoint,
                        dirv: IntPoint) -> list[int]:
    """The ``t`` in ``a..b`` minimizing ``abs(reversed(base + t*dirv))`` lex.

    Each component ``|base_j + t*dir_j|`` is V-shaped, so its minimum over
    an integer interval sits at the clamped floor/ceil of the vertex and at
    most two values tie; subsequent components filter those.  At most two
    candidates survive (they differ only in later, sign-level preference).
    """
    cand: list[int] | None = None
    for j in reversed(range(len(base))):
        bj, dj = base[j], dirv[j]
        if cand is None:
            if dj == 0:
                continue
            q = -bj // dj
            opts = sorted({min(max(q, a), b), min(max(q + 1, a), b)})
            vals = [abs(bj + t * dj) for t in opts]
            m = min(vals)
            cand = [t for t, v in zip(opts, vals) if v == m]
        else:
            vals = [abs(bj + t * dj) for t in cand]
            m = min(vals)
            cand = [t for t, v in zip(cand, vals) if v == m]
        if len(cand) == 1:
            break
    if cand is None:
        cand = [a]
    return cand


class _OutsideState:
    """Running minimum of a subspace-avoiding search.

    ``best`` is the smallest integer gauge key seen; ``champion`` pairs the
    preference tuple with the canonical image point realizing it.
    """

    __slots__ = ("best", "champion")

    def __init__(self, best: int):
        self.best = best
        self.champion: tuple | None = None

    def absorb_run(self, a0: int, b0: int, key_at, base: IntPoint,
                   dirv: IntPoint, skip_zero: bool) -> None:
        """Fold the leaf run ``t in a0..b0`` (all with key <= best) in.

        ``key_at(t)`` is convex; the run minimum is located by bisection,
        the tied sub-interval recovered exactly, and its preferred image
        chosen analytically.
        """
        runs = ((a0, -1), (1, b0)) if skip_zero else ((a0, b0),)
        for a, b in runs:
            if a > b:
                continue
            t_min, k_run = _convex_int_min(a, b, key_at)
            if k_run > self.best:
                continue
            if k_run < self.best:
                self.best = k_run
                self.champion = None
                a = _left_edge(a, t_min, key_at, k_run)
                b = _right_edge(t_min, b, key_at, k_run)
            for t in _run_tie_candidates(a, b, base, dirv):
                x = _sign_canonical(tuple(bs + t * dv
                                          for bs, dv in zip(base, dirv)))
                entry = (tuple(abs(c) for c in reversed(x)), x)
                if self.champion is None or entry < self.champion:
                    self.champion = entry

    def result(self, to_gauge):
        if self.champion is None:
            return None
        return to_gauge(self.best), self.champion[1]


def _image_run(image_rows: tuple[IntPoint, ...],
               prefix: IntPoint) -> tuple[IntPoint, IntPoint]:
    """Image of the leaf run ``prefix + (t,)`` as ``base + t*dirv``."""
    last = len(prefix)
    # map stops at the end of the prefix.
    base = tuple([sum(map(mul, row, prefix)) for row in image_rows])
    dirv = tuple([row[last] for row in image_rows])
    return base, dirv


def _poly_run_key(key_rows: list[tuple[IntPoint, int]], prefix: IntPoint):
    """``t -> key(prefix + (t,))`` for the rows of :func:`_poly_key_rows`.

    Each pair contributes ``|r + s t|`` with its residual ``r`` at the
    prefix, computed once per run, and its slope ``s``; the maximum of
    these is convex in ``t``."""
    last = len(prefix)
    lines = [(f * sum(c * p for c, p in zip(coeffs, prefix) if c),
              f * coeffs[last]) for coeffs, f in key_rows]
    return lambda t: max(abs(r + s * t) for r, s in lines)


def _poly_key_rows(zbody: HPolytope) -> tuple[list[tuple[IntPoint, int]], int]:
    """``(rows, lcm)`` with ``gauge(x) = max f |<c, x>| / lcm`` over the
    rows ``(c, f)``: the primitive pairs ``|<c, x>| <= r`` scaled by ``f =
    lcm / r`` to the common bound ``lcm``."""
    rows = zbody._top_rows
    lcm = math.lcm(*(rhs for _, rhs in rows))
    return [(coeffs, lcm // rhs) for coeffs, rhs in rows], lcm
