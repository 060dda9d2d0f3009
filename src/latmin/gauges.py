"""Exact gauge values: nonnegative rationals and square roots of rationals.

Polytopal gauges evaluate to rationals, ellipsoidal gauges to square roots
of rationals.  Both kinds have to be compared, multiplied, and serialized
exactly, so they share one small value type.  A sqrt-kind value stores the
*square* of the gauge; comparisons across kinds square the rational side,
which is lossless because every gauge is >= 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@functools.total_ordering
class GaugeValue:
    """Exact nonnegative scalar, either rational or sqrt-of-rational."""

    __slots__ = ("is_sqrt", "value")

    def __init__(self, is_sqrt: bool, value: Fraction):
        if value < 0:
            raise ValueError("gauge values are nonnegative")
        object.__setattr__(self, "is_sqrt", is_sqrt)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("GaugeValue is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rational(v: RationalLike) -> "GaugeValue":
        return GaugeValue(False, _frac(v))

    @staticmethod
    def sqrt_of(v: RationalLike) -> "GaugeValue":
        """The value ``sqrt(v)`` for a nonnegative rational ``v``."""
        return GaugeValue(True, _frac(v))

    @staticmethod
    def coerce(v: "GaugeValue | RationalLike") -> "GaugeValue":
        if isinstance(v, GaugeValue):
            return v
        return GaugeValue.rational(v)

    # -- structure -----------------------------------------------------------

    def squared(self) -> Fraction:
        """The exact square, always rational."""
        return self.value if self.is_sqrt else self.value * self.value

    def is_zero(self) -> bool:
        return self.value == 0

    def rational_upper_bound(self) -> Fraction:
        """A rational ``>=`` the exact value (tight for rational kind)."""
        if not self.is_sqrt:
            return self.value
        num, den = self.value.numerator, self.value.denominator
        # sqrt(num/den) = sqrt(num*den)/den <= (isqrt(num*den)+1)/den.
        root = math.isqrt(num * den)
        if root * root == num * den:
            return Fraction(root, den)
        return Fraction(root + 1, den)

    # -- ordering ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaugeValue.rational(other)
        if not isinstance(other, GaugeValue):
            return NotImplemented
        return self.squared() == other.squared()

    def __lt__(self, other: "GaugeValue | RationalLike") -> bool:
        other = GaugeValue.coerce(other)
        return self.squared() < other.squared()

    def __hash__(self) -> int:
        return hash(self.squared())

    # -- arithmetic (closed under products and positive rational scaling) ----

    def __mul__(self, other: "GaugeValue | RationalLike") -> "GaugeValue":
        other = GaugeValue.coerce(other)
        if not self.is_sqrt and not other.is_sqrt:
            return GaugeValue.rational(self.value * other.value)
        return GaugeValue.sqrt_of(self.squared() * other.squared())

    __rmul__ = __mul__

    def power(self, exponent: int) -> "GaugeValue":
        if exponent < 0:
            raise ValueError("nonnegative exponents only")
        if not self.is_sqrt:
            return GaugeValue.rational(self.value ** exponent)
        return GaugeValue.sqrt_of(self.value ** exponent)

    def __repr__(self) -> str:
        if self.is_sqrt:
            return f"GaugeValue(sqrt({self.value}))"
        return f"GaugeValue({self.value})"
