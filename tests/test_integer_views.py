"""Integer paths of the pull-back and the minima search: preimage views
through any rational basis, integer Fourier-Motzkin pruning, the integer
Schur chain and its incremental walk, the leaf run keys, and the rational
matrices that views build only when read.

The polytope systems are pairs ``|c . x| <= r``; the references below
are the one-sided definitions (``c . x <= r``), and a pair system is
compared with them through its one-sided rows ``+-c . x <= r``."""

import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import (Box, DimensionMismatch, Ellipsoid, GaugeValue, HPolytope,
                    InvalidBodyError, Lattice, Matrix, minima)
from latmin.bodies import (_derived, _eliminate_last, _int_det, _integer_basis,
                           _prune_rows, _tightest)
from latmin.enumeration import (_chain_levels, _dilate_interval,
                                _poly_interval, _poly_levels, _standard_body,
                                axis_extent_bounds, count_oracle,
                                enclosing_radius)
from latmin.harness import InstanceSpec, generate, plan_instances
from latmin.matrices import align_witnesses
from latmin.minima import successive_minima

from strategies import (boxes, ellipsoids, hpolytopes, int_matrices,
                        int_points, lattices, positive_fractions,
                        shear_unimodulars, suite_settings)

F = Fraction


def _one_sided(pairs):
    """The one-sided rows ``c . x <= r`` and ``-c . x <= r`` of each pair
    ``|c . x| <= r``, in order."""
    return [row for c, r in pairs
            for row in ((c, r), (tuple(-e for e in c), r))]


def _positive_side(rows):
    """The one-sided rows whose last nonzero coefficient is positive: the
    pairs of a symmetric one-sided system, turned as ``_tightest`` turns
    them."""
    return [(c, r) for c, r in rows if next(e for e in reversed(c) if e) > 0]


def _poly_interval_reference(rows, prefix, k):
    """Integer range of coordinate ``k`` under the one-sided rows ``c . x
    <= r`` at ``prefix`` (the definition); ``None`` when it is empty."""
    lo = None
    hi = None
    for coeffs, rhs in rows:
        r = rhs - sum(c * p for c, p in zip(coeffs, prefix))
        cj = coeffs[k]
        if cj == 0:
            if r < 0:
                return None
        elif cj > 0:
            b = r // cj
            if hi is None or b < hi:
                hi = b
        else:
            b = -(r // (-cj))
            if lo is None or b > lo:
                lo = b
    if lo is None or hi is None:
        raise InvalidBodyError("unbounded enumeration interval")
    if lo > hi:
        return None
    return lo, hi


def _prune_rows_reference(rows):
    """Parallel-row pruning with ``Fraction`` keys (the definition)."""
    best = {}
    for coeffs, rhs in rows:
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        if g == 0:
            if rhs < 0:
                raise InvalidBodyError("projection produced an empty system")
            continue
        key = tuple(c // g for c in coeffs)
        ratio = Fraction(rhs, g)
        if key not in best or ratio < best[key]:
            best[key] = ratio
    return [(tuple(c * ratio.denominator for c in key), ratio.numerator)
            for key, ratio in best.items()]


def _top_rows_reference(body):
    """The one-sided rows ``+-a_i . x <= 1`` of the rational normals, each
    scaled by a positive rational to primitive integers with ``Fraction``
    arithmetic, then pruned of parallel rows (the definition)."""
    rows = []
    for normal in body.normals.entries:
        lcm = math.lcm(*(c.denominator for c in normal))
        ints = [int(c * lcm) for c in normal]
        g = math.gcd(*ints, lcm)
        coeffs = tuple(c // g for c in ints)
        rows.append((coeffs, lcm // g))
        rows.append((tuple(-c for c in coeffs), lcm // g))
    return tuple(_prune_rows_reference(rows))


def _eliminate_reference(rows, width):
    """Fourier-Motzkin elimination of variable ``width - 1`` of one-sided
    rows with every combination kept, pruned only of parallel rows (the
    definition)."""
    out = [(c[:width - 1], r) for c, r in rows if c[width - 1] == 0]
    for cp, bp in rows:
        for cn, bn in rows:
            a, d = cp[width - 1], -cn[width - 1]
            if a > 0 and d > 0:
                out.append((tuple(d * x + a * y
                                  for x, y in zip(cp[:width - 1], cn)),
                            d * bp + a * bn))
    return _prune_rows_reference(out)


def _eliminate_last_reference(rows, hists, width, limit, half):
    """``_eliminate_last`` with Kohler's rule read pairwise: every kept set
    and mirror, by increasing size, is kept iff no smaller kept one is a
    subset, at every elimination."""
    last = width - 1
    low = (1 << half) - 1
    out = []
    live = []
    for (coeffs, rhs), h in zip(rows, hists):
        a = coeffs[last]
        if a == 0:
            out.append((coeffs[:last], rhs, h))
        elif a > 0:
            live.append((coeffs[:last], a, rhs, h,
                         (h >> half) | ((h & low) << half)))
        else:
            live.append((tuple(-c for c in coeffs[:last]), -a, rhs,
                         (h >> half) | ((h & low) << half), h))
    out += [(tuple(d * x - a * y for x, y in zip(cp, cq)), d * rp + a * rq,
             hp | mq)
            for i, (cp, a, rp, hp, _) in enumerate(live)
            for cq, d, rq, _, mq in live[i + 1:]
            if (hp | mq).bit_count() <= limit]
    kept = _tightest(out, half)
    sets = {h for _, h in kept}
    sets |= {(h >> half) | ((h & low) << half) for h in sets}
    minimal = set()
    for h in sorted(sets, key=int.bit_count):
        if not any(m & h == m for m in minimal):
            minimal.add(h)
    kept = [(row, h) for row, h in kept if h in minimal]
    return [row for row, _ in kept], [h for _, h in kept]


def _cascade_reference(top_rows):
    """The one-sided projection cascade with no history pruning, by
    width."""
    systems = [list(top_rows)]
    for width in range(len(top_rows[0][0]), 1, -1):
        systems.append(_eliminate_reference(systems[-1], width))
    systems.reverse()
    return systems


def _same_intervals(got, want, k, mu=2, window=2):
    """Do the pairs ``got`` of a cascade level and the one-sided rows
    ``want`` give coordinate ``k`` the same integer range in the ``mu``
    dilate at every prefix in ``[-window, window]^k``?"""
    got = [(c, r * mu) for c, r in got]
    want = [(c, r * mu) for c, r in want]
    return all(_poly_interval(got, prefix, k) ==
               _poly_interval_reference(want, prefix, k)
               for prefix in itertools.product(range(-window, window + 1),
                                               repeat=k))


def _diagonal_scales(dim):
    return st.lists(positive_fractions(3, 3), min_size=dim,
                    max_size=dim).map(Matrix.diagonal)


@st.composite
def rational_polytopes(draw, dim):
    """Polytopes with rational normals: integer ones, columns rescaled.
    Built by the constructor, not by ``preimage``."""
    body = draw(hpolytopes(dim))
    return HPolytope(body.normals @ draw(_diagonal_scales(dim)))


@st.composite
def rational_ellipsoids(draw, dim):
    body = draw(ellipsoids(dim, bound=2))
    scale = draw(_diagonal_scales(dim))
    return Ellipsoid(scale.transpose() @ body.gram @ scale)


def bases(dim):
    """Unimodular shears and the lattice bases of the fuzz generator
    (identity, diagonal, sheared times diagonal)."""
    return st.one_of(shear_unimodulars(dim),
                     lattices(dim).map(lambda lat: lat.basis))


dims = st.integers(2, 4)


class TestPolytopeViews:
    @given(dims.flatmap(lambda d: st.tuples(rational_polytopes(d),
                                            bases(d))))
    def test_cascade_matches_rebuilt_body(self, case):
        body, u = case
        view = body.preimage(u)
        rebuilt = HPolytope(body.normals @ u)
        assert view == rebuilt
        assert view._integer_normals == rebuilt._integer_normals
        assert view._top_rows == rebuilt._top_rows
        for level, (got, want) in enumerate(zip(view._cascade,
                                                rebuilt._cascade)):
            assert got == want, f"cascade level {level} differs"

    @given(dims.flatmap(lambda d: st.tuples(rational_polytopes(d),
                                            bases(d))))
    def test_top_rows_match_fraction_reference(self, case):
        # A view's rows are read from its integer normals too.
        body, u = case
        view = body.preimage(u)
        for poly in (body, view):
            want = _top_rows_reference(poly)
            assert poly._top_rows == tuple(_positive_side(want))
            assert sorted(_one_sided(poly._top_rows)) == sorted(want)

    @given(dims.flatmap(boxes))
    def test_box_polytope_matches_its_constructor(self, box):
        # Box.polytope builds only the integer normals; the polytope the
        # constructor builds from the rational normals e_i / w_i must be
        # the same body with the same rows and cascade.
        got = box.polytope()
        want = HPolytope(Matrix.diagonal([1 / w for w in box.halfwidths]))
        assert vars(got).keys() == {"_integer_normals"}
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert got._top_rows == want._top_rows == \
            tuple(_positive_side(_top_rows_reference(want)))
        assert got._cascade == want._cascade

    @given(dims.flatmap(lambda d: st.tuples(rational_polytopes(d),
                                            shear_unimodulars(d),
                                            int_points(d, 3))))
    def test_gauge_pulls_back(self, case):
        body, u, y = case
        assert body.preimage(u).gauge(y) == body.gauge(u.apply(y))


class TestCascadePruning:
    """The Chernikov and Kohler rules of ``_eliminate_last`` drop only rows
    that the others imply, so every level is the same projection."""

    @given(dims.flatmap(lambda d: st.tuples(rational_polytopes(d),
                                            bases(d))))
    def test_levels_match_unpruned_cascade(self, case):
        body, u = case
        view = body.preimage(u)
        want = _cascade_reference(_one_sided(view._top_rows))
        for k, (got, ref) in enumerate(zip(view._cascade, want)):
            assert _same_intervals(got, ref, k), f"level {k} differs"

    @given(st.integers(2, 5).flatmap(
        lambda d: st.tuples(rational_polytopes(d), bases(d))))
    def test_each_elimination_matches_unpruned_step(self, case):
        # The unpruned cascade grows past thousands of rows at dim 5, so
        # each level is checked against the unpruned elimination of the
        # (pruned) level above it.
        body, u = case
        levels = body.preimage(u)._cascade
        for k in range(body.dim - 1):
            ref = _eliminate_reference(_one_sided(levels[k + 1]), k + 2)
            assert _same_intervals(levels[k], ref, k), f"level {k} differs"

    def test_tied_parallel_rows_keep_the_smaller_set(self):
        # |x0| <= 1 is original pair 2 and also the combination of pairs 0
        # and 1, x0 + x1 <= 1 (bit 1) with -(x1 - x0) <= 1 (the - side of
        # pair 1, bit 2 << 3); the tie keeps the smaller set.
        rows = [((1, 1), 1), ((-1, 1), 1), ((1, 0), 1)]
        assert _eliminate_last(rows, [1, 2, 4], 2, 2, 3) == \
            ([((1,), 1)], [4])
        # Turning pair 2 over mirrors its set: bit 4 << 3 on the + side.
        rows[2] = ((-1, 0), 1)
        assert _eliminate_last(rows, [1, 2, 4], 2, 2, 3) == \
            ([((1,), 1)], [32])

    def test_kohler_reads_the_mirrored_sets(self):
        # Level 1 of this dim-5 polytope gets a row whose set strictly
        # contains the mirror of another kept row's set, but not that set.
        # The one-sided cascade (2/8/20/30/14 rows) drops it, so the pairs
        # number 1/4/10/15/7; read without the mirrors, Kohler's rule would
        # keep a fifth pair on level 1.
        rows = (((1, 1, 0, 0, 0), 2), ((-1, 0, 1, 1, 1), 1),
                ((-1, -1, 1, 1, 1), 3), ((0, 1, 0, 1, 1), 2),
                ((-1, 0, 0, 1, 1), 3), ((1, 1, -1, -1, 1), 3),
                ((1, -1, 0, 0, 1), 2))
        body = HPolytope(Matrix.from_rows([[F(c, r) for c in coeffs]
                                           for coeffs, r in rows]))
        assert body._top_rows == rows
        assert [len(level) for level in body._cascade] == [1, 4, 10, 15, 7]

    def test_dim5_polytope_levels_stay_small(self):
        # The third spec of plan_instances(7, 8, [5, 6], "hpolytope", 5);
        # with parallel-row pruning alone its levels hold 5/10/25/150/1
        # pairs, top level first.
        body, lattice = generate(InstanceSpec(
            seed=16616101746815609346, dim=5, body_kind="hpolytope",
            coeff_range=5, lattice_kind="identity"))
        assert lattice.basis == Matrix.identity(5)
        sizes = [len(level) for level in body._cascade]
        assert sizes[-1] == 5 and max(sizes) <= 20

    @given(st.integers(2, 6).flatmap(
        lambda d: st.tuples(hpolytopes(d, extra=6), bases(d))))
    def test_eliminations_equal_the_pairwise_pass(self, case):
        # Kohler's rule by subset lookup, skipped at the first and last
        # eliminations, keeps exactly the rows, order and sets of the
        # pairwise pass at every elimination.
        body, u = case
        view = body.preimage(u)
        rows, half = view._top_rows, len(view._top_rows)
        hists = [1 << i for i in range(half)]
        for width in range(view.dim, 1, -1):
            args = (rows, hists, width, view.dim - width + 2, half)
            got = _eliminate_last(*args)
            assert got == _eliminate_last_reference(*args), f"width {width}"
            rows, hists = got

    def test_first_elimination_drops_nothing(self):
        # Pairs 0 and 1 combine to |2 x0| <= 2 with the set of bits 0 and 1
        # (pair 1 turned over, its - side being bit 1 << 5); it replaces
        # the looser free row |x0| <= 2 of pair 2 in its place.  The other
        # combinations, (-1, 1) from pairs 0 and 4 and (1, 1) from pairs 1
        # and 4, are turned, which mirrors their sets; no set strictly
        # contains another.
        rows = [((1, 0, 1), 1), ((1, 0, -1), 1), ((1, 0, 0), 2),
                ((0, 1, 0), 1), ((0, 1, 1), 1)]
        args = (rows, [1, 2, 4, 8, 16], 3, 2, 5)
        want = ([((1, 0), 1), ((0, 1), 1), ((-1, 1), 2), ((1, 1), 2)],
                [0b11, 0b1000, 0b110000, 0b10010])
        assert _eliminate_last(*args) == _eliminate_last_reference(*args) \
            == want

    # Pairs per cascade level, level 0 first, summed over the box and
    # polytope bodies of each corpus pulled back to the standard lattice.
    LEVEL_TOTALS = {
        (7, 60, (5, 6), "hpolytope"): (60, 1198, 1586, 1271, 691, 208),
        (42, 60, (5, 6), "hpolytope"): (60, 1358, 1696, 1350, 698, 205),
        (42, 500, (2, 3, 4), None): (333, 1385, 1041, 479),
    }

    @pytest.mark.parametrize("corpus", sorted(LEVEL_TOTALS, key=str))
    def test_levels_never_grow(self, corpus):
        seed, count, dims, kind = corpus
        want = self.LEVEL_TOTALS[corpus]
        totals = [0] * len(want)
        for spec in plan_instances(seed, count, dims, kind, 5):
            if spec.body_kind == "ellipsoid":
                continue
            body = _standard_body(*generate(spec))
            if isinstance(body, Box):
                body = body.polytope()
            for k, level in enumerate(body._cascade):
                totals[k] += len(level)
        assert all(map(int.__le__, totals, want)), totals


def _vertex_extents(poly):
    """``max |y_i|`` over the vertices of ``{y : |N y| <= 1}`` for the
    normals ``N`` of ``poly``, by coordinate: each vertex solves ``N_S y =
    s`` for a set ``S`` of ``d`` independent rows and signs ``s``, and is
    kept when it satisfies every row.  Reads only the normals."""
    normals = poly.normals.entries
    dim = len(normals[0])
    extents = [F(0)] * dim
    for subset in itertools.combinations(normals, dim):
        square = Matrix.from_rows(subset)
        if square.det() == 0:
            continue
        inverse = square.inverse()
        for signs in itertools.product((-1, 1), repeat=dim):
            y = inverse.apply(signs)
            if all(abs(sum(a * v for a, v in zip(row, y))) <= 1
                   for row in normals):
                extents = [max(e, abs(v)) for e, v in zip(extents, y)]
    return tuple(extents)


class TestAxisExtents:
    """Level 0 of the cascade bounds the walks, and ``axis_extent_bounds``,
    from the row bases of the integer normals, bounds the oracles' scan
    cubes; both must be the exact extent of the body, computed here from
    its vertices, never from a cascade."""

    @given(dims.flatmap(lambda d: st.tuples(
        st.one_of(rational_polytopes(d), boxes(d)), lattices(d),
        st.booleans())))
    def test_level0_extent_is_the_vertex_extent(self, case):
        body, lattice, as_view = case
        if as_view:
            body = body.preimage(lattice.basis)
        poly = body.polytope() if isinstance(body, Box) else body
        want = _vertex_extents(poly)
        assert min(F(r, abs(c[0])) for c, r in poly._cascade[0]) == want[0]
        assert axis_extent_bounds(poly, Lattice.standard(poly.dim)) == want

    def test_fixed_row_bases(self):
        # A repeated row and a parallel one make every subset that holds
        # two of the three singular.  With s = x + z, |s| <= 1, the last
        # row is x = 2s - y - t with |t| <= 1 and z = y + t - s, and
        # |y| <= 3/2.  A box's polytope has one row basis.
        poly = HPolytope(Matrix.from_rows([
            [1, 0, 1], [1, 0, 1], [F(1, 2), 0, F(1, 2)], [0, F(2, 3), 0],
            [1, -1, 2]]))
        box = Box((F(1, 2), F(3), F(5, 4)))
        for body, want in ((poly, (F(9, 2), F(3, 2), F(7, 2))),
                           (box.polytope(), box.halfwidths)):
            assert _vertex_extents(body) == want
            assert axis_extent_bounds(body, Lattice.standard(3)) == want

    @given(dims.flatmap(lambda d: st.tuples(rational_ellipsoids(d),
                                            bases(d))))
    def test_ellipsoid_extent_is_the_gram_inverse_diagonal(self, case):
        body, u = case
        view = body.preimage(u)
        inv = view.gram.inverse()
        want = tuple(GaugeValue.sqrt_of(inv[j, j]).rational_upper_bound()
                     for j in range(view.dim))
        assert axis_extent_bounds(view, Lattice.standard(view.dim)) == want


class TestEllipsoidViews:
    @given(dims.flatmap(lambda d: st.tuples(rational_ellipsoids(d),
                                            bases(d), int_points(d, 3))))
    def test_forms_match_rebuilt_body(self, case):
        body, u, y = case
        view = body.preimage(u)
        rebuilt = Ellipsoid(u.transpose() @ body.gram @ u)
        assert view == rebuilt
        assert view._integer_gram == rebuilt._integer_gram
        assert view._integer_forms == rebuilt._integer_forms
        assert view.gauge(y) == rebuilt.gauge(y) == body.gauge(u.apply(y))

    def test_schur_pivots_check_definiteness(self):
        # The pivots of the integer Schur chain replace the leading minors
        # for views; an indefinite form must be refused by them.
        indefinite = Matrix.from_rows([[1, 2], [2, 1]])
        with pytest.raises(InvalidBodyError):
            _derived(Ellipsoid, gram=indefinite)._integer_forms
        semidefinite = Matrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(InvalidBodyError):
            _derived(Ellipsoid, gram=semidefinite)._integer_forms


@st.composite
def chain_bodies(draw):
    """Ellipsoids of dims 2-6, half of them views over a sheared basis."""
    dim = draw(st.integers(2, 6))
    body = draw(ellipsoids(dim, bound=2))
    if draw(st.booleans()):
        body = body.preimage(draw(shear_unimodulars(dim)))
    return body


class TestChainLevels:
    """The incremental Schur-chain provider of every ellipsoid walk."""

    # Dilations mu as mu^2 = p/q: the body, a rational and a square root.
    MU_SQUARED = (F(1), F(49, 16), F(5, 2))
    WINDOW = range(-3, 4)

    @suite_settings(20, deadline=None)
    @given(chain_bodies(), st.integers(0, 50))
    def test_depth_first_intervals_match_the_definition(self, body, extra):
        # Walk every prefix of [-3, 3]^k depth first, feasible or not, and
        # ask each provider at every node.  Level k of the points of key
        # x M x <= K is the projection x M_k x <= K s_k / s, x M_k x
        # computed here from its definition; each answer must be its
        # integer range.  On the last level a dilate's key set must be the
        # dilate itself, closed or open.
        forms = body._integer_forms
        last = body.dim - 1
        s_full = forms[-1][1]
        walks = []  # (interval, key K, the dilate on the last level)
        for sq in self.MU_SQUARED:
            p, q = sq.numerator, sq.denominator
            for strict in (False, True):
                def dilate(value, p=p, q=q, strict=strict):
                    return q * value < p * s_full if strict else \
                        q * value <= p * s_full
                key = (p * s_full - strict) // q
                walks.append((_dilate_interval(
                    body, GaugeValue.sqrt_of(sq), strict), key, dilate))
        # The search at an integer key that is not a multiple of s.
        key = 2 * s_full + extra
        build, interval, *_ = _chain_levels(body)
        build(key)
        walks.append((interval, key, None))

        def visit(prefix):
            k = len(prefix)
            m, s_k = forms[k]

            # x M_k x at x = prefix + (t,), expanded in t from the
            # definition: a t^2 + 2 b t + c.
            a = m[k][k]
            b = sum(m[i][k] * p for i, p in enumerate(prefix))
            c = sum(p * m[i][j] * r for i, p in enumerate(prefix)
                    for j, r in enumerate(prefix))

            def value(t):
                return (a * t + 2 * b) * t + c

            for interval, key, dilate in walks:
                def inside(t):
                    v = value(t)
                    member = s_full * v <= key * s_k
                    if dilate and k == last:
                        assert member == dilate(v)
                    return member

                got = interval(k, prefix)
                if got is None:
                    # The convex value takes its integer minimum next to
                    # its vertex -b / a.
                    vertex = -b // a
                    assert not inside(vertex) and not inside(vertex + 1)
                else:
                    lo, hi = got
                    assert lo <= hi and inside(lo) and inside(hi)
                    assert not inside(lo - 1) and not inside(hi + 1)
            if k < last:
                for t in self.WINDOW:
                    visit(prefix + (t,))

        visit(())


class TestLazyViews:
    """Stage views keep only integer data until a field is read."""

    @given(st.integers(2, 4).flatmap(
        lambda d: st.tuples(st.one_of(rational_polytopes(d),
                                      rational_ellipsoids(d), boxes(d)),
                            lattices(d))))
    def test_search_builds_no_rational_matrix(self, case):
        body, lattice = case
        seen = []
        search = minima.min_key_point_outside

        def spy(view, flat, mu, rows):
            seen.append((view, rows))
            return search(view, flat, mu, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minima, "min_key_point_outside", spy)
            successive_minima(body, lattice)
        # A stage that doubles mu searches the same view again, so every
        # view is checked before any is read.
        views = [(view, rows) for view, rows in seen if view is not body]
        for view, _ in views:
            assert "gram" not in vars(view) and "normals" not in vars(view)
        polytope = body.polytope() if isinstance(body, Box) else body
        for view, rows in views:
            a = lattice.basis @ Matrix.from_rows(rows)
            if isinstance(view, Ellipsoid):
                rebuilt = Ellipsoid(a.transpose() @ body.gram @ a)
            else:
                rebuilt = HPolytope(polytope.normals @ a)
            assert view == rebuilt and hash(view) == hash(rebuilt)
            assert repr(view) == repr(rebuilt)
            field = "gram" if isinstance(view, Ellipsoid) else "normals"
            assert vars(view)[field] == getattr(rebuilt, field)

    SKEWED = Matrix.from_rows([[1, 2, 0], [0, 1, -1], [F(1, 2), 0, 2]])
    ORACLES = {
        "extents": axis_extent_bounds,
        "count": lambda view, std: count_oracle(
            view, std, 1, enclosing_radius(view, std, 1)),
        # A strict scan at a square-root dilation, the kind that certifies
        # an ellipsoid's first minimum.
        "sqrt2": lambda view, std: count_oracle(
            view, std, GaugeValue.sqrt_of(2),
            enclosing_radius(view, std, GaugeValue.sqrt_of(2)), strict=True),
    }
    BODIES = {
        "hpolytope": (HPolytope(Matrix.from_rows(
            [[1, 0, 1], [0, 2, 1], [1, -1, 0], [F(1, 2), 1, 1]])),
            ("_cascade", "_top_rows", "normals")),
        # ``preimage`` builds an ellipsoid view's Schur chain itself, to
        # check definiteness.
        "ellipsoid": (Ellipsoid(Matrix.from_rows(
            [[2, 1, 0], [1, 3, 1], [0, 1, 2]])), ("gram",)),
    }

    @pytest.mark.parametrize("kind", sorted(BODIES))
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_oracles_read_only_the_stored_integer_data(self, oracle, kind):
        # The brute-force oracles must stay independent of the walks: on a
        # fresh view they read its integer normals or Gram form, and build
        # neither the walks' rows and cascade nor the rational matrices.
        body, fields = self.BODIES[kind]
        view = body.preimage(self.SKEWED)
        self.ORACLES[oracle](view, Lattice.standard(3))
        assert not set(fields) & set(vars(view))


def _stage_lattices(dim):
    """The standard lattice, diagonal lattices and unimodular shears."""
    return st.one_of(st.just(Lattice.standard(dim)),
                     _diagonal_scales(dim).map(Lattice),
                     shear_unimodulars(dim).map(Lattice))


class TestDerivedViews:
    """``successive_minima`` derives each stage's view from the last one by
    the column operations of one Hermite step, not by a pull-back."""

    @given(st.integers(2, 6).flatmap(lambda d: st.tuples(
        st.one_of(boxes(d, max_num=2, max_den=3), hpolytopes(d, bound=2),
                  ellipsoids(d, bound=2)),
        _stage_lattices(d))))
    def test_stage_views_equal_the_pull_back(self, case):
        # Stage k searches through the rows of u^-1 for align_witnesses on
        # the first k witnesses, columns reversed, and its view must be the
        # standard body pulled back through them: the same integer data,
        # Schur chain or cascade, entry for entry.
        body, lattice = case
        zbody = _standard_body(body, lattice)
        identity = tuple(tuple(int(i == j) for j in range(body.dim))
                         for i in range(body.dim))
        seen, found = [], []
        search = minima.min_key_point_outside

        def spy(view, flat, mu, rows):
            seen.append((view, rows, len(found)))
            result = search(view, flat, mu, rows)
            if result is not None:
                found.append(result[1])
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minima, "min_key_point_outside", spy)
            successive_minima(body, lattice)
        for view, rows, k in seen:
            if k == 0:
                assert rows == identity
                continue
            assert rows == tuple(
                r[::-1] for r in align_witnesses(found[:k])[1])
            pulled = zbody.preimage(rows)
            if isinstance(view, Ellipsoid):
                assert view._integer_gram == pulled._integer_gram
                assert view._integer_forms == pulled._integer_forms
            else:
                assert view._integer_normals == pulled._integer_normals
                assert view._cascade == pulled._cascade

    @pytest.mark.parametrize("kind", sorted(TestLazyViews.BODIES))
    def test_one_pull_back_and_no_alignment(self, kind):
        # Over a skewed lattice the search pulls the body back once, onto
        # the standard lattice, and derives its three stage views without
        # another pull-back or a run of align_witnesses.
        body, _ = TestLazyViews.BODIES[kind]
        pulled = []

        def refuse(*args):
            raise AssertionError("align_witnesses called")

        with pytest.MonkeyPatch.context() as mp:
            for cls in (Box, HPolytope, Ellipsoid):
                def counted(self, a, pull=cls.preimage):
                    pulled.append(a)
                    return pull(self, a)
                mp.setattr(cls, "preimage", counted)
            mp.setattr(minima, "align_witnesses", refuse)
            result = successive_minima(body,
                                       Lattice(TestLazyViews.SKEWED))
        assert pulled == [TestLazyViews.SKEWED]
        assert result == successive_minima(
            body.preimage(TestLazyViews.SKEWED), Lattice.standard(3))


class TestTransforms:
    SQUARE = HPolytope(Matrix.from_rows([[1, 0], [0, 1], [1, 1]]))
    DISK = Ellipsoid(Matrix.from_rows([[2, 1], [1, 3]]))
    BOX = Box((F(1), F(3, 2)))

    def test_singular_transform_raises(self):
        singular = Matrix.from_rows([[1, 2], [2, 4]])
        for body in (self.SQUARE, self.DISK, self.BOX):
            with pytest.raises(InvalidBodyError):
                body.preimage(singular)
            with pytest.raises(InvalidBodyError):
                body.preimage(Matrix.from_rows([[F(1, 2), 1], [1, 2]]))
            with pytest.raises(DimensionMismatch):
                body.preimage(Matrix.identity(3))

    def test_non_unimodular_basis_takes_integer_path(self):
        # The normals (N, E) become (N Z, E D) and the view stores nothing
        # else: its rows are read from them, reduced to primitive rows.  The
        # form (M, s) becomes (Z^T M Z, s D^2) over the common gcd.
        a = Matrix.diagonal([2, F(1, 2)])
        pre = self.SQUARE.preimage(a)
        assert "_top_rows" not in vars(pre)
        assert pre._top_rows == (((2, 0), 1), ((0, 1), 2), ((4, 1), 2))
        assert pre == HPolytope(self.SQUARE.normals @ a)
        pre = self.DISK.preimage(Matrix.diagonal([F(1, 2), 1]))
        assert vars(pre)["_integer_gram"] == (((1, 1), (1, 6)), 2)
        assert pre.gram == Matrix.from_rows([[F(1, 2), F(1, 2)],
                                             [F(1, 2), 3]])

    def test_integer_basis(self):
        a = Matrix.from_rows([[2, F(1, 3)], [F(-1, 2), 1]])
        assert _integer_basis(a, 2) == (((12, 2), (-3, 6)), 6)
        u = Matrix.from_rows([[2, 1], [1, 1]])
        assert _integer_basis(u, 2) == (((2, 1), (1, 1)), 1)
        with pytest.raises(InvalidBodyError):
            _integer_basis(Matrix.from_rows([[F(1, 2), 1], [1, 2]]), 2)
        with pytest.raises(DimensionMismatch):
            _integer_basis(u, 3)

    @given(dims.flatmap(lambda d: st.tuples(
        st.one_of(rational_polytopes(d), rational_ellipsoids(d),
                  boxes(d)), st.one_of(shear_unimodulars(d),
                                       int_matrices(d)))))
    def test_integer_rows_pull_back_as_their_matrix(self, case):
        body, u = case
        rows = tuple(tuple(int(e) for e in row) for row in u.entries)
        if u.det() == 0:
            for a in (u, rows):
                with pytest.raises(InvalidBodyError):
                    body.preimage(a)
            return
        by_rows, by_matrix = body.preimage(rows), body.preimage(u)
        assert by_rows == by_matrix
        for cached in ("_top_rows", "_integer_gram"):
            if hasattr(by_matrix, cached):
                assert getattr(by_rows, cached) == getattr(by_matrix, cached)

    def test_integer_rows_of_wrong_shape_raise(self):
        for body in (self.SQUARE, self.DISK, self.BOX):
            for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0]],
                         [[1, 0], [0, 1, 0]], [[1], [0, 1]]):
                with pytest.raises(DimensionMismatch):
                    body.preimage(rows)
            with pytest.raises(InvalidBodyError):
                body.preimage([[0, 1], [0, 2]])

    @given(st.integers(1, 5).flatmap(lambda d: int_matrices(d, 4)))
    def test_bareiss_determinant(self, m):
        # Leibniz expansion: Matrix.det is itself Bareiss on the numerators.
        rows = [[int(e) for e in row] for row in m.entries]
        n = len(rows)
        leibniz = sum(
            (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            * math.prod(rows[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n)))
        assert _int_det(rows) == leibniz


class TestPruneRows:
    def test_parallel_rows_at_different_scales(self):
        # (-1, -2) is the pair (1, 2) turned over.
        rows = [((2, 4), 3), ((1, 2), 2), ((3, 6), 4), ((-1, -2), 5),
                ((0, 3), 1)]
        assert _prune_rows(rows) == \
            _positive_side(_prune_rows_reference(_one_sided(rows))) == \
            [((3, 6), 4), ((0, 3), 1)]

    def test_zero_rows(self):
        assert _prune_rows([((0, 0), 0), ((0, 0), 2), ((1, 0), 1)]) == \
            [((1, 0), 1)]
        with pytest.raises(InvalidBodyError):
            _prune_rows([((1, 0), 1), ((0, 0), -1)])

    @given(st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=3,
                                       max_size=3).map(tuple),
                              st.integers(-20, 20)), max_size=12))
    def test_matches_fraction_reference(self, rows):
        try:
            want = _prune_rows_reference(_one_sided(rows))
        except InvalidBodyError:
            with pytest.raises(InvalidBodyError):
                _prune_rows(rows)
            return
        assert _prune_rows(rows) == _positive_side(want)


def _key_bound_reference(key_bound, gauge):
    """``(closed, strict)`` key bounds of the dilate ``mu = gauge``."""
    sq = gauge.squared()
    return (key_bound(sq.numerator, sq.denominator, False),
            key_bound(sq.numerator, sq.denominator, True))


class TestRunKeys:
    # A point's run key is the closed key bound of its own gauge, and the
    # strict bound is one less: the dilate through a point holds it and its
    # interior does not.  ``to_gauge`` reads the key back as that gauge.

    @given(dims.flatmap(lambda d: st.tuples(rational_polytopes(d),
                                            int_points(d - 1, 3),
                                            st.integers(-5, 5))))
    def test_poly_run_key(self, case):
        body, prefix, t = case
        _, _, run_key, key_bound, to_gauge = _poly_levels(body)
        key = run_key(prefix)(t)
        x = prefix + (t,)
        assert _key_bound_reference(key_bound, body.gauge(x)) == \
            (key, key - 1)
        assert to_gauge(key) == body.gauge(x)

    @given(dims.flatmap(lambda d: st.tuples(rational_ellipsoids(d),
                                            int_points(d - 1, 3),
                                            st.integers(-5, 5))))
    def test_quad_run_key(self, case):
        # The fused key reads the last level's state, so every level is
        # asked in turn along the prefix first, as a depth-first walk does.
        body, prefix, t = case
        s = body._integer_forms[-1][1]
        build, interval, run_key, key_bound, to_gauge = _chain_levels(body)
        build(1)
        for k in range(body.dim):
            interval(k, prefix[:k])
        key = run_key(prefix)(t)
        x = prefix + (t,)
        assert _key_bound_reference(key_bound, body.gauge(x)) == \
            (key, key - 1)
        assert Fraction(key, s) == body.gauge_squared(x)
        assert to_gauge(key) == body.gauge(x)


class TestFlagUnimodular:
    @given(st.integers(2, 5).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, d - 1)).flatmap(
            lambda dk: st.lists(int_points(dk[0], 3), min_size=dk[1],
                                max_size=dk[1]))))
    def test_inverse_alignment(self, witnesses):
        dim, k = len(witnesses[0]), len(witnesses)
        w = Matrix.from_columns(witnesses)
        if w.rank() < k:
            return
        # The stage rows of ``successive_minima``: ``u^-1``, columns
        # reversed, so the witness span lands on the last coordinates.
        rows = tuple(r[::-1] for r in align_witnesses(witnesses)[1])
        assert _int_det(rows) in (1, -1)
        forward = Matrix.from_rows(rows).inverse()
        for p in witnesses:
            assert not any(forward.apply(p)[:dim - k])
