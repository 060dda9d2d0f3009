"""Point counting, enumeration, box scans, and the pruned outside-search."""

import gc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import (Box, Ellipsoid, GaugeValue, HPolytope, Lattice, Matrix,
                    count_oracle, count_points, enclosing_radius,
                    enumerate_points)
from latmin import enumeration
from latmin.enumeration import (_gauge_squared_within, _levels,
                                _standard_body, axis_extent_bounds, axis_radii,
                                min_key_point_outside, open_point_outside)
from latmin.minima import successive_minima

from strategies import (bodies, boxes, instances, lattices,
                        shear_unimodulars, suite_settings)

F = Fraction
STD2 = Lattice.standard(2)
UNIT_BOX = Box((F(1), F(1)))
BOX13 = Box((F(1), F(3)))
ROTATED_SQUARE = HPolytope(Matrix.from_rows([[1, 1], [1, -1]]))
UNIT_DISK = Ellipsoid(Matrix.identity(2))
SKEW = Lattice(Matrix.from_rows([[1, 1], [0, 2]]))


def small_instances():
    return instances(max_dim=3, small=True)


class TestCountExamples:
    def test_boxes(self):
        assert count_points(UNIT_BOX, STD2, 1) == 9
        assert count_points(UNIT_BOX, STD2, 1, strict=True) == 1
        assert count_points(BOX13, STD2, 1) == 21
        assert count_points(BOX13, STD2, 2) == 65
        assert count_points(BOX13, STD2, F(1, 2)) == 3

    def test_polytopes(self):
        assert count_points(ROTATED_SQUARE, STD2, 1) == 5
        assert count_points(ROTATED_SQUARE, STD2, 1, strict=True) == 1

    def test_ellipsoids(self):
        assert count_points(UNIT_DISK, STD2, 1) == 5
        assert count_points(UNIT_DISK, STD2, 2) == 13
        assert count_points(UNIT_DISK, STD2, GaugeValue.sqrt_of(2)) == 9
        assert count_points(UNIT_DISK, STD2, GaugeValue.sqrt_of(2),
                            strict=True) == 5

    def test_sqrt_dilation_of_polyhedra(self):
        mu = GaugeValue.sqrt_of(2)
        assert count_points(UNIT_BOX, STD2, mu) == 9
        assert count_points(ROTATED_SQUARE, STD2, mu) == 5
        assert count_points(ROTATED_SQUARE, STD2, mu, strict=True) == 5
        # sqrt(4) = 2 is attained exactly, so strict counts drop the boundary.
        for body, lattice in ((UNIT_BOX, STD2), (BOX13, SKEW),
                              (ROTATED_SQUARE, STD2)):
            for strict in (False, True):
                assert count_points(body, lattice, GaugeValue.sqrt_of(4),
                                    strict=strict) == \
                    count_points(body, lattice, 2, strict=strict)

    def test_zero_dilation(self):
        assert count_points(UNIT_BOX, STD2, 0) == 1
        assert count_points(UNIT_BOX, STD2, 0, strict=True) == 0

    def test_nonstandard_lattice(self):
        # Lattice generated by (1,0) and (1,2): box(1,3) catches y in
        # {-2,0,2}, each paired with three x values.
        assert count_points(BOX13, SKEW, 1) == 9

    def test_box_counts_past_the_word_size(self):
        # Each axis holds 2*m + 1 integers, more than len(range) can report.
        n = 10 ** 20
        assert count_points(BOX13, STD2, n) == (2 * n + 1) * (6 * n + 1)
        wide, line = Box((F(n),)), Lattice.standard(1)
        assert count_points(wide, line, 1) == 2 * n + 1
        assert count_points(wide, line, 1, strict=True) == 2 * n - 1
        assert open_point_outside(wide, GaugeValue.rational(1), 1)


class TestEnumerate:
    def test_matches_count_and_is_sorted(self):
        pts = enumerate_points(BOX13, STD2, 1)
        assert len(pts) == 21
        assert list(pts) == sorted(pts)
        assert {len(p) for p in pts} == {2}

    def test_zero_dilation(self):
        assert tuple(enumerate_points(UNIT_BOX, STD2, 0)) == ((0, 0),)
        assert len(enumerate_points(UNIT_BOX, STD2, 0, strict=True)) == 0

    @given(small_instances(), st.sampled_from(
        [F(1), F(1, 2), F(3, 2), GaugeValue.sqrt_of(2),
         GaugeValue.sqrt_of(F(9, 4))]),
        st.booleans())
    def test_enumerate_agrees_with_count(self, inst, mu, strict):
        body, lattice = inst
        pts = enumerate_points(body, lattice, mu, strict=strict)
        assert len(pts) == count_points(body, lattice, mu, strict=strict)
        assert list(pts) == sorted(set(pts))

    @given(small_instances())
    def test_every_point_passes_the_gauge_test(self, inst):
        body, lattice = inst
        for p in enumerate_points(body, lattice, 1):
            assert body.gauge(lattice.point(p)) <= 1


class TestCountProperties:
    @given(small_instances(), st.sampled_from(
        [F(1), F(2, 3), GaugeValue.sqrt_of(F(3, 2)),
         GaugeValue.sqrt_of(F(9, 4))]), st.booleans())
    def test_matches_definition_level_oracle(self, inst, mu, strict):
        body, lattice = inst
        radius = enclosing_radius(body, lattice, mu)
        assert count_points(body, lattice, mu, strict=strict) == \
            count_oracle(body, lattice, mu, radius, strict=strict)

    @given(small_instances(), st.booleans())
    def test_count_is_odd_by_symmetry(self, inst, strict):
        body, lattice = inst
        assert count_points(body, lattice, 1, strict=strict) % 2 == 1

    @given(small_instances())
    def test_monotone_in_dilation(self, inst):
        body, lattice = inst
        counts = [count_points(body, lattice, mu)
                  for mu in (F(1, 2), 1, F(3, 2), 2)]
        assert counts == sorted(counts)
        assert count_points(body, lattice, 1, strict=True) <= counts[1]

    @given(small_instances(), st.data())
    def test_invariant_under_unimodular_basis_change(self, inst, data):
        body, lattice = inst
        dim = body.dim
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(dim):
            i = data.draw(st.integers(0, dim - 1))
            j = data.draw(st.integers(0, dim - 1))
            if i != j:
                u[i] = [a + b for a, b in zip(u[i], u[j])]
        changed = Lattice(lattice.basis @ Matrix.from_rows(u))
        assert count_points(body, changed, 1) == \
            count_points(body, lattice, 1)

    @given(small_instances(), st.sampled_from([F(1, 2), F(2), F(3)]))
    def test_scaling_body_equals_dilating(self, inst, c):
        body, lattice = inst
        # c K is the pull-back of K through diag(1/c).
        scaled = body.preimage(Matrix.diagonal([1 / c] * body.dim))
        assert count_points(scaled, lattice, 1) == \
            count_points(body, lattice, c)


class TestExtentHelpers:
    def test_examples(self):
        assert axis_extent_bounds(BOX13, STD2) == (1, 3)
        assert axis_radii(axis_extent_bounds(BOX13, STD2), 2) == (2, 6)
        assert enclosing_radius(BOX13, STD2, 1) == 3
        assert axis_extent_bounds(UNIT_DISK, STD2) == (1, 1)
        assert axis_extent_bounds(ROTATED_SQUARE, STD2) == (1, 1)
        # sqrt(1/2) <= 1: the rational upper bound of an irrational extent.
        assert axis_extent_bounds(Ellipsoid(Matrix.diagonal([1, 2])),
                                  STD2) == (1, 1)

    @given(small_instances())
    def test_extents_cover_all_points(self, inst):
        body, lattice = inst
        radii = axis_radii(axis_extent_bounds(body, lattice), 1)
        radius = enclosing_radius(body, lattice, 1)
        for p in enumerate_points(body, lattice, 1):
            assert all(abs(c) <= r for c, r in zip(p, radii))
            assert all(abs(c) <= radius for c in p)


class TestGaugeSquaredWithin:
    @given(small_instances(), st.data())
    def test_exact_gauge_squared_up_to_the_bound(self, inst, data):
        # Every body kind, as constructed and as a view over a lattice; the
        # bound at, below and above the point's own gauge squared.
        body, lattice = inst
        x = data.draw(st.tuples(*[st.integers(-4, 4)] * body.dim))
        drawn = data.draw(st.fractions(0, 20, max_denominator=12))
        for zbody in (body, _standard_body(body, lattice)):
            within = _gauge_squared_within(zbody)
            sq = zbody.gauge(x).squared()
            for bound in (sq, sq * F(9, 10), sq * F(11, 10) + F(1, 100),
                          drawn):
                got = within(x, bound.numerator, bound.denominator)
                if sq <= bound:
                    assert got is not None and F(*got) == sq
                else:
                    assert got is None


def _provider(body):
    """The walk provider of ``body``; a box is walked as its polytope."""
    return _levels(body.polytope() if isinstance(body, Box) else body)


def _run_key(levels, x):
    """The integer key of ``x`` from the provider's ``run_key``, after
    asking every level along ``x`` in turn, as a depth-first walk does."""
    build, interval, run_key, _, _ = levels
    build(0)
    for k in range(len(x)):
        interval(k, x[:k])
    return run_key(x[:-1])(x[-1])


class TestIntegerGaugeKey:
    @given(st.integers(1, 3).flatmap(lambda d: bodies(d, small=True)),
           st.data())
    def test_key_orders_exactly_like_the_gauge(self, body, data):
        levels = _provider(body)
        _, _, _, key_bound, _ = levels
        xs = [data.draw(st.tuples(*[st.integers(-4, 4)] * body.dim))
              for _ in range(3)]
        keys = [_run_key(levels, x) for x in xs]
        for x, key in zip(xs, keys):
            for mu in (1, 2):
                assert (key <= key_bound(mu * mu, 1, False)) == \
                    (body.gauge(x) <= mu)
                assert (key <= key_bound(mu * mu, 1, True)) == \
                    (body.gauge(x) < mu)
        for a, b, ka, kb in zip(xs, xs[1:], keys, keys[1:]):
            assert (ka < kb) == (body.gauge(a) < body.gauge(b))

    @given(st.integers(1, 3).flatmap(lambda d: bodies(d, small=True)),
           st.data())
    def test_key_converts_back_to_the_exact_gauge(self, body, data):
        levels = _provider(body)
        _, _, _, _, to_gauge = levels
        x = data.draw(st.tuples(*[st.integers(-4, 4)] * body.dim))
        assert to_gauge(_run_key(levels, x)) == body.gauge(x)


def _brute_outside(zbody, flat, mu, rows=None):
    """Reference for the pruned search: enumerate, filter, sort.  Ties are
    broken on the images ``rows @ p`` (the points themselves by default)."""
    std = Lattice.standard(zbody.dim)
    pts = [p for p in enumerate_points(zbody, std, mu) if any(p[:flat])]
    if not pts:
        return None

    def canon(p):
        for v in p:
            if v:
                return p if v > 0 else tuple(-x for x in p)
        return p

    def image(p):
        if rows is None:
            return p
        return tuple(sum(r * v for r, v in zip(row, p)) for row in rows)

    return min(((zbody.gauge(p), canon(image(p))) for p in pts),
               key=lambda gx: (gx[0], tuple(abs(c) for c in reversed(gx[1])),
                               gx[1]))


class TestMinKeyPointOutside:
    def _identity_rows(self, dim):
        return tuple(tuple(int(i == j) for j in range(dim))
                     for i in range(dim))

    def test_validation(self):
        rows = self._identity_rows(2)
        with pytest.raises(ValueError):
            min_key_point_outside(UNIT_BOX, 0, 1, rows)
        with pytest.raises(ValueError):
            min_key_point_outside(UNIT_BOX, 3, 1, rows)
        with pytest.raises(ValueError):
            min_key_point_outside(UNIT_BOX, 1, 0, rows)

    def test_examples(self):
        rows = self._identity_rows(2)
        assert min_key_point_outside(UNIT_BOX, 2, 1, rows) == \
            (GaugeValue.rational(1), (1, 0))
        assert min_key_point_outside(BOX13, 2, 1, rows) == \
            (GaugeValue.rational(F(1, 3)), (0, 1))
        # Requiring support on the first coordinate skips (0, 1).
        assert min_key_point_outside(BOX13, 1, 1, rows) == \
            (GaugeValue.rational(1), (1, 0))
        assert min_key_point_outside(Box((F(1, 3),)), 1, 1, ((1,),)) is None
        assert min_key_point_outside(Box((F(1, 3),)), 1, 4, ((1,),)) == \
            (GaugeValue.rational(3), (1,))
        # The walk visits one point of each ± pair, so the preferred image
        # (0, 1), from y = (1, 1), sits at the ceiling of the vertex of its
        # run's last moving entry; -y, whose floor it was, is not walked.
        for flat in (1, 2):
            assert min_key_point_outside(UNIT_BOX, flat, 1,
                                         ((-1, 1), (-1, 2))) == \
                (GaugeValue.rational(1), (0, 1))

    @suite_settings(60)
    @given(st.integers(1, 3).flatmap(lambda d: bodies(d, small=True)),
           st.data())
    def test_agrees_with_enumeration(self, zbody, data):
        dim = zbody.dim
        flat = data.draw(st.integers(1, dim))
        mu = data.draw(st.integers(1, 2))
        got = min_key_point_outside(zbody, flat, mu,
                                    self._identity_rows(dim))
        assert got == _brute_outside(zbody, flat, mu)

    @suite_settings(40)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(boxes(d, max_num=2, max_den=3),
                            shear_unimodulars(d))), st.data())
    def test_box_searches_as_its_polytope(self, box_and_rows, data):
        # Halfwidth w = n/d gives the polytope pairs |d x_i| <= n; the search
        # must answer the same, including the preferred image under rows.
        box, u = box_and_rows
        flat = data.draw(st.integers(1, box.dim))
        mu = data.draw(st.integers(1, 2))
        rows = tuple(tuple(int(e) for e in row) for row in u.entries)
        poly = HPolytope(Matrix.diagonal([1 / w for w in box.halfwidths]))
        got = min_key_point_outside(box, flat, mu, rows)
        assert got == min_key_point_outside(poly, flat, mu, rows)
        assert got == _brute_outside(box, flat, mu, rows)


class TestOpenPointOutside:
    def test_strict_walk_skips_a_tied_face(self, monkeypatch):
        # |x_1| <= 1 and |x_i| <= 10: the face x_1 = +-1 holds 2 * 21^5
        # lattice points, and the open unit dilate holds none off x_1 = 0.
        # Every level of the strict walk is a projection of the open
        # dilate, so level 0 already pins x_1 = 0 and the walk ends there.
        dim = 6
        body = HPolytope(Matrix.diagonal([F(1)] + [F(1, 10)] * (dim - 1)))
        calls = 0
        inner = enumeration._poly_interval

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(enumeration, "_poly_interval", counted)
        for mu in (GaugeValue.rational(1), GaugeValue.sqrt_of(1)):
            calls = 0
            assert open_point_outside(body, mu, 1) is False
            assert calls <= dim


class TestWalkerLeavesNoCycle:
    """A walk frees everything it built by reference counting alone, so
    counts and searches leave no work for the cyclic collector."""

    LATTICE = Lattice(Matrix.from_rows([[1, 1, 0], [0, 2, 1], [0, 0, 1]]))

    @pytest.mark.parametrize("make_body", [
        lambda: HPolytope(Matrix.from_rows(
            [[1, 1, 0], [1, -1, 2], [0, 1, 3], [F(1, 2), 0, 1]])),
        lambda: Ellipsoid(Matrix.from_rows(
            [[2, 1, 0], [1, 3, 1], [0, 1, F(5, 2)]]))],
        ids=["hpolytope", "ellipsoid"])
    def test_count_and_minima_free_by_refcount(self, make_body):
        body = make_body()
        gc.collect()
        gc.disable()
        try:
            count_points(body, self.LATTICE, GaugeValue.sqrt_of(2),
                         strict=True)
            after_count = gc.collect()
            successive_minima(body, self.LATTICE)
            after_minima = gc.collect()
        finally:
            gc.enable()
        assert (after_count, after_minima) == (0, 0)
