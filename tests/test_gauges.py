"""Exact scalar type: ordering, arithmetic, and conversions."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import GaugeValue

from strategies import positive_fractions


def gauge_values():
    return st.one_of(
        positive_fractions(9, 9).map(GaugeValue.rational),
        positive_fractions(9, 9).map(GaugeValue.sqrt_of),
        st.just(GaugeValue.rational(0)))


class TestConstruction:
    def test_rational_and_sqrt_kinds(self):
        assert not GaugeValue.rational(3).is_sqrt
        assert GaugeValue.sqrt_of(3).is_sqrt

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GaugeValue.rational(-1)
        with pytest.raises(ValueError):
            GaugeValue.sqrt_of(Fraction(-1, 2))

    def test_immutable(self):
        g = GaugeValue.rational(1)
        with pytest.raises(AttributeError):
            g.value = Fraction(2)

    def test_coerce(self):
        g = GaugeValue.sqrt_of(2)
        assert GaugeValue.coerce(g) is g
        assert GaugeValue.coerce(Fraction(3, 2)) == Fraction(3, 2)
        assert GaugeValue.coerce(2) == 2

    def test_zero(self):
        assert GaugeValue.rational(0).is_zero()
        assert not GaugeValue.rational(Fraction(1, 9)).is_zero()
        assert GaugeValue.sqrt_of(0).is_zero()


class TestOrdering:
    def test_cross_kind_comparisons(self):
        assert GaugeValue.rational(Fraction(3, 2)) == GaugeValue.sqrt_of(Fraction(9, 4))
        assert GaugeValue.sqrt_of(2) < GaugeValue.rational(Fraction(3, 2))
        assert GaugeValue.rational(Fraction(7, 5)) < GaugeValue.sqrt_of(2)
        assert GaugeValue.sqrt_of(2) <= GaugeValue.sqrt_of(3)

    def test_comparison_with_plain_rationals(self):
        assert GaugeValue.sqrt_of(4) == 2
        assert GaugeValue.sqrt_of(2) < Fraction(3, 2)
        assert not GaugeValue.rational(2) < 2

    def test_hash_consistent_with_eq(self):
        assert hash(GaugeValue.rational(2)) == hash(GaugeValue.sqrt_of(4))

    def test_eq_other_types(self):
        assert GaugeValue.rational(1) != "1"

    @given(gauge_values(), gauge_values())
    def test_order_matches_squares(self, a, b):
        assert (a < b) == (a.squared() < b.squared())
        assert (a == b) == (a.squared() == b.squared())

    @given(gauge_values(), gauge_values(), positive_fractions())
    def test_multiplication_monotone(self, a, b, c):
        if a <= b:
            assert a * c <= b * c


class TestArithmetic:
    def test_product_kinds(self):
        r = GaugeValue.rational(Fraction(2, 3)) * GaugeValue.rational(3)
        assert not r.is_sqrt and r.value == 2
        s = GaugeValue.sqrt_of(2) * GaugeValue.rational(2)
        assert s.is_sqrt and s.value == 8
        t = GaugeValue.sqrt_of(2) * GaugeValue.sqrt_of(8)
        assert t == 4

    def test_rmul_with_scalars(self):
        assert 2 * GaugeValue.sqrt_of(2) == GaugeValue.sqrt_of(8)
        assert Fraction(1, 2) * GaugeValue.rational(3) == Fraction(3, 2)

    def test_power(self):
        assert GaugeValue.rational(Fraction(2, 3)).power(3) == Fraction(8, 27)
        assert GaugeValue.sqrt_of(2).power(2) == 2
        assert GaugeValue.sqrt_of(5).power(0) == 1
        with pytest.raises(ValueError):
            GaugeValue.rational(2).power(-1)

    @given(gauge_values(), gauge_values())
    def test_product_squares(self, a, b):
        assert (a * b).squared() == a.squared() * b.squared()

    @given(gauge_values(), st.integers(0, 4))
    def test_power_squares(self, a, n):
        assert a.power(n).squared() == a.squared() ** n


class TestConversions:
    def test_rational_upper_bound_examples(self):
        assert GaugeValue.sqrt_of(2).rational_upper_bound() == 2
        assert GaugeValue.sqrt_of(Fraction(9, 4)).rational_upper_bound() == Fraction(3, 2)
        assert GaugeValue.rational(Fraction(7, 3)).rational_upper_bound() == Fraction(7, 3)

    @given(gauge_values())
    def test_rational_upper_bound_dominates(self, g):
        ub = g.rational_upper_bound()
        assert not GaugeValue.rational(ub) < g

    def test_repr_mentions_kind(self):
        assert "sqrt" in repr(GaugeValue.sqrt_of(2))
        assert "sqrt" not in repr(GaugeValue.rational(2))
