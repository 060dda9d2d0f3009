"""Body shapes: gauges, scaling, preimages, slicing, volume."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import (Box, DimensionMismatch, Ellipsoid, GaugeValue, HPolytope,
                    InvalidBodyError, Lattice, Matrix, corner_gauge_bound,
                    volume_estimate)
from latmin.enumeration import _dilate_interval

from strategies import (bodies, boxes, ellipsoids, hpolytopes, int_points,
                        nonsingular_int_matrices, positive_fractions,
                        rationals)

F = Fraction
STD2 = Lattice.standard(2)
UNIT_BOX = Box((F(1), F(1)))
BOX13 = Box((F(1), F(3)))
ROTATED_SQUARE = HPolytope(Matrix.from_rows([[1, 1], [1, -1]]))
UNIT_DISK = Ellipsoid(Matrix.identity(2))


def small_bodies(max_dim: int = 3):
    return st.integers(1, max_dim).flatmap(bodies)


class TestBox:
    def test_gauge(self):
        assert BOX13.gauge((1, 2)) == 1
        assert BOX13.gauge((0, 0)) == 0
        assert BOX13.gauge((F(-1, 2), 6)) == 2
        with pytest.raises(DimensionMismatch):
            BOX13.gauge((1,))

    def test_validation(self):
        with pytest.raises(InvalidBodyError):
            Box(())
        with pytest.raises(InvalidBodyError):
            Box((F(1), F(0)))
        with pytest.raises(InvalidBodyError):
            Box((F(-1),))

    def test_preimage_diagonal_stays_box(self):
        assert BOX13.preimage(Matrix.diagonal([2, F(1, 2)])) == \
            Box((F(1, 2), F(6)))

    def test_preimage_monomial_stays_box(self):
        assert BOX13.preimage(Matrix.from_rows([[0, 1], [1, 0]])) == \
            Box((F(3), F(1)))
        # Signed and scaled: |2 y_1| <= 1 and |-y_0| <= 3.
        assert BOX13.preimage(Matrix.from_rows([[0, 2], [-1, 0]])) == \
            Box((F(3), F(1, 2)))
        with pytest.raises(InvalidBodyError):
            BOX13.preimage(Matrix.from_rows([[0, 1], [0, 1]]))
        # Diagonal bases take the same path, and so do their errors.
        assert BOX13.preimage(Matrix.diagonal([-1, 3])) == Box((F(1), F(1)))
        with pytest.raises(InvalidBodyError):
            BOX13.preimage(Matrix.diagonal([1, 0]))
        with pytest.raises(DimensionMismatch):
            BOX13.preimage(Matrix.identity(3))

    def test_preimage_general_becomes_polytope(self):
        pre = BOX13.preimage(Matrix.from_rows([[1, 1], [0, 1]]))
        assert isinstance(pre, HPolytope)
        assert pre.gauge((1, 0)) == 1
        assert pre.gauge((0, 1)) == 1
        assert pre.gauge((1, -1)) == F(1, 3)

    def test_volume(self):
        assert BOX13.volume == 12


class TestHPolytope:
    def test_gauge(self):
        assert ROTATED_SQUARE.gauge((1, 1)) == 2
        assert ROTATED_SQUARE.gauge((1, 0)) == 1
        assert HPolytope(Matrix.from_rows([[F(1, 2), F(1, 2)],
                                           [F(1, 2), F(-1, 2)]])
                         ).gauge((1, 1)) == 1

    def test_validation(self):
        with pytest.raises(InvalidBodyError):
            HPolytope(Matrix.from_rows([[1, 0], [0, 0]]))
        with pytest.raises(InvalidBodyError):
            HPolytope(Matrix.from_rows([[1, 0], [2, 0]]))


class TestEllipsoid:
    def test_gauge(self):
        assert UNIT_DISK.gauge((1, 1)) == GaugeValue.sqrt_of(2)
        assert Ellipsoid(Matrix.diagonal([2, 2])).gauge((1, 0)) == \
            GaugeValue.sqrt_of(2)
        assert UNIT_DISK.gauge_squared((3, 4)) == 25

    def test_validation(self):
        with pytest.raises(InvalidBodyError):
            Ellipsoid(Matrix.from_rows([[1, 2], [0, 1]]))  # not symmetric
        with pytest.raises(InvalidBodyError):
            Ellipsoid(Matrix.from_rows([[1, 2], [2, 1]]))  # not definite
        with pytest.raises(InvalidBodyError):
            Ellipsoid(Matrix.from_rows([[1, 0]]))


def _points(dim: int):
    """Integer and rational points, negative entries and mixed
    denominators included."""
    return st.lists(st.one_of(st.integers(-5, 5), rationals(6, 5)),
                    min_size=dim, max_size=dim)


@st.composite
def _rational_scales(draw, dim: int):
    return Matrix.diagonal([draw(positive_fractions(4, 5))
                            for _ in range(dim)])


class TestGaugeDefinitions:
    """The gauges run on integer numerators; they must equal the
    ``Fraction`` definitions from ``normals`` and ``gram``."""

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        hpolytopes(d), _rational_scales(d), _points(d))))
    def test_polytope_gauge_is_max_of_normal_products(self, case):
        body, scale, x = case
        for poly in (body, HPolytope(body.normals @ scale)):
            want = max(abs(sum((a * F(v) for a, v in zip(row, x)), F(0)))
                       for row in poly.normals.entries)
            assert poly.gauge(x) == GaugeValue.rational(want)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        ellipsoids(d, bound=2), _rational_scales(d), _points(d))))
    def test_ellipsoid_gauge_is_the_quadratic_form(self, case):
        body, scale, x = case
        for ell in (body, Ellipsoid(scale.transpose() @ body.gram @ scale)):
            d = ell.dim
            want = sum((F(x[i]) * ell.gram[i, j] * F(x[j])
                        for i in range(d) for j in range(d)), F(0))
            assert ell.gauge_squared(x) == want
            assert isinstance(ell.gauge_squared(x), Fraction)
            assert ell.gauge(x) == GaugeValue.sqrt_of(want)


class TestSharedOperations:
    def test_volume_estimate(self):
        assert volume_estimate(UNIT_BOX, STD2, F(1, 10)) == F(441, 100)
        with pytest.raises(ValueError):
            volume_estimate(UNIT_BOX, STD2, 0)
        with pytest.raises(DimensionMismatch):
            volume_estimate(UNIT_BOX, Lattice.standard(3), F(1, 2))

    def test_corner_gauge_bound(self):
        assert corner_gauge_bound(UNIT_BOX, STD2) == 1
        assert corner_gauge_bound(BOX13, STD2) == 1
        assert corner_gauge_bound(UNIT_BOX, Lattice(Matrix.diagonal([2, 2]))) \
            == 2

    @given(small_bodies(), st.data())
    def test_gauge_symmetry(self, body, data):
        x = data.draw(int_points(body.dim))
        assert body.gauge(x) == body.gauge(tuple(-v for v in x))

    @given(small_bodies(), st.data())
    def test_gauge_homogeneity(self, body, data):
        x = data.draw(int_points(body.dim))
        c = data.draw(st.integers(-3, 3))
        scaled = tuple(c * v for v in x)
        assert body.gauge(scaled).squared() == \
            c * c * body.gauge(x).squared()

    @given(small_bodies(), st.data())
    def test_gauge_subadditive(self, body, data):
        x = data.draw(int_points(body.dim))
        y = data.draw(int_points(body.dim))
        a = body.gauge(x).squared()
        b = body.gauge(y).squared()
        c = body.gauge(tuple(u + v for u, v in zip(x, y))).squared()
        # gauge(x+y) <= gauge(x) + gauge(y), compared through squares.
        excess = c - a - b
        assert excess <= 0 or excess * excess <= 4 * a * b

    @given(small_bodies(), st.data())
    def test_preimage_pulls_back_gauge(self, body, data):
        a = data.draw(nonsingular_int_matrices(body.dim))
        y = data.draw(int_points(body.dim))
        assert body.preimage(a).gauge(y) == body.gauge(a.apply(y))

    @given(small_bodies(), positive_fractions(), st.data())
    def test_scale_divides_gauge(self, body, c, data):
        x = data.draw(int_points(body.dim))
        # c K is the pull-back of K through diag(1/c).
        scaled = body.preimage(Matrix.diagonal([1 / c] * body.dim))
        assert c * scaled.gauge(x) == body.gauge(x)

    @given(st.integers(2, 3).flatmap(bodies), st.data(),
           st.sampled_from([GaugeValue.rational(1),
                            GaugeValue.rational(F(3, 2)),
                            GaugeValue.sqrt_of(2),
                            GaugeValue.sqrt_of(F(9, 4))]),
           st.booleans())
    def test_last_coordinate_bounds_match_membership(self, body, data, mu,
                                                     strict):
        # The walker's last-level integer range at mu, closed or strict,
        # with every level asked in turn along the prefix, as a depth-first
        # walk does; a box is walked as its polytope, as the minima search
        # does.
        prefix = data.draw(int_points(body.dim - 1, bound=2))
        if isinstance(body, Box):
            body = body.polytope()
        interval = _dilate_interval(body, mu, strict)
        for k in range(body.dim):
            bounds = interval(k, prefix[:k])
        for t in range(-8, 9):
            gauge = body.gauge(prefix + (t,))
            inside = gauge < mu if strict else gauge <= mu
            in_interval = bounds is not None and bounds[0] <= t <= bounds[1]
            assert inside == in_interval
