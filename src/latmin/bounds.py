"""Counting bounds driven by successive minima.

Everything here is a small exact computation on top of the geometry layers:

* ``floor_terms`` -- the per-minimum integers ``floor(2/lam_i + 1)``.
* ``first_bound_rhs`` / ``conjecture_rhs`` / ``main_bound_rhs`` -- the three
  right-hand sides compared against the lattice point count: the first term
  raised to the dimension, the product of all terms, and ``2^(d-1)`` times
  that product.
* ``divisor_chain`` -- rounds the floor terms up to a divisibility chain
  ``n_d | n_(d-1) | ... | n_1`` with ``q_i <= n_i < 2 q_i``; the diagonal
  sublattice it spans meets ``2K`` only at the origin (``kernel_check``),
  which combined with the residue-counting lemma yields the main bound.
* ``lemma_bound`` -- the residue-counting inequality itself:
  ``#(K meet L) <= index * #(2K meet sub)`` for any full-rank sublattice.
* Minkowski's two theorems, checked exactly from a volume (or a volume
  estimate plus an explicit surface-term slack).

Floor terms are computed without floating point: rational minima use
integer division, square-root minima use an integer square root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bodies import SymmetricBody, corner_gauge_bound
from .enumeration import count_points
from .gauges import GaugeValue
from .lattices import Lattice, Sublattice
from .matrices import Matrix
from .minima import MinimaResult


def _minima_list(minima: "MinimaResult | Sequence[GaugeValue]",
                 ) -> tuple[GaugeValue, ...]:
    if isinstance(minima, MinimaResult):
        return minima.minima
    return tuple(GaugeValue.coerce(m) for m in minima)


def floor_term(lam: GaugeValue) -> int:
    """``floor(2/lam + 1)`` computed with integer arithmetic only."""
    if lam.is_zero():
        raise ValueError("minima are positive")
    if not lam.is_sqrt:
        v = lam.value
        return (2 * v.denominator) // v.numerator + 1
    # lam = sqrt(p/q): floor(2/lam) = floor(sqrt(4q/p)) = isqrt(4qp) // p.
    p, q = lam.value.numerator, lam.value.denominator
    return math.isqrt(4 * q * p) // p + 1


def floor_terms(minima: "MinimaResult | Sequence[GaugeValue]",
                ) -> tuple[int, ...]:
    """The integers ``floor(2/lam_i + 1)``, one per successive minimum."""
    return tuple(floor_term(lam) for lam in _minima_list(minima))


def first_bound_rhs(minima: "MinimaResult | Sequence[GaugeValue]") -> int:
    """``q_1 ** d``: the bound depending only on the first minimum."""
    q = floor_terms(minima)
    return q[0] ** len(q)


def conjecture_rhs(minima: "MinimaResult | Sequence[GaugeValue]") -> int:
    """``prod q_i``: the conjectured bound (a theorem in dimension 2)."""
    return math.prod(floor_terms(minima))


def main_bound_rhs(minima: "MinimaResult | Sequence[GaugeValue]") -> int:
    """``2^(d-1) * prod q_i``; the strict bound requires ``d >= 2``."""
    q = floor_terms(minima)
    if len(q) < 2:
        raise ValueError("the strict bound is stated for dimension >= 2")
    return 2 ** (len(q) - 1) * conjecture_rhs(minima)


def divisor_chain(q: tuple[int, ...]) -> tuple[int, ...]:
    """Round floor terms to a divisibility chain, last term exact: ``n_1 >=
    ... >= n_d`` with ``n_(i+1) | n_i`` and ``q_i <= n_i < 2 q_i``.

    Working from the last coordinate down: keep ``n_(k+1)`` when it already
    dominates ``q_k``; otherwise write ``q_k = m * n_(k+1) + r`` with
    ``0 <= r < n_(k+1)`` and take ``n_k = q_k + n_(k+1) - r``.  Either way
    ``n_(k+1)`` divides ``n_k`` and ``q_k <= n_k < 2 q_k``.
    """
    d = len(q)
    n = [0] * d
    n[d - 1] = q[d - 1]
    for k in range(d - 2, -1, -1):
        if n[k + 1] >= q[k]:
            n[k] = n[k + 1]
        else:
            r = q[k] % n[k + 1]
            n[k] = q[k] + n[k + 1] - r
    return tuple(n)


def chain_sublattice(chain: tuple[int, ...], parent: Lattice) -> Sublattice:
    """The diagonal sublattice ``diag(n_1..n_d)`` of ``parent``."""
    return Sublattice(parent, Matrix.diagonal(chain))


def kernel_check(body: SymmetricBody, sub: Sublattice) -> bool:
    """Does ``2 * body`` meet the sublattice ``sub`` only at the origin?

    ``body`` is expected to be a canonical instance body (standard lattice)
    and ``sub`` its chain sublattice (:func:`chain_sublattice`).  A
    ``False`` here contradicts the supporting argument for the main bound
    and should be treated as an implementation alarm by callers.
    """
    return count_points(body, sub.as_lattice(), GaugeValue.rational(2)) == 1


def lemma_bound(body: SymmetricBody, lattice: Lattice,
                sub: Sublattice) -> tuple[int, int]:
    """Residue-counting bound: returns ``(lhs, rhs)`` where
    ``lhs = #(K meet lattice)`` and ``rhs = index * #(2K meet sub)``.

    The inequality ``lhs <= rhs`` holds for every full-rank sublattice: two
    points of ``K`` in the same residue class differ by a sublattice point
    of ``K - K = 2K``, so each class contributes at most ``#(2K meet sub)``
    points.
    """
    lhs = count_points(body, lattice, GaugeValue.rational(1))
    inner = count_points(body, sub.as_lattice(), GaugeValue.rational(2))
    return lhs, sub.index * inner


# ---------------------------------------------------------------------------
# Minkowski's volume theorems


def minkowski_first_check(minima: "MinimaResult | Sequence[GaugeValue]",
                          volume: Fraction, det: Fraction,
                          slack: Fraction = Fraction(0)) -> bool:
    """``lam_1^d * vol <= 2^d * det``, with optional relative slack.

    ``slack`` widens the right-hand side to ``2^d det (1+slack)^d`` for use
    with estimated volumes; zero means the exact theorem.
    """
    lams = _minima_list(minima)
    d = len(lams)
    lhs = lams[0].power(d) * GaugeValue.rational(volume)
    rhs = GaugeValue.rational((2 ** d) * det * (1 + slack) ** d)
    return not rhs < lhs


def minkowski_second_check(minima: "MinimaResult | Sequence[GaugeValue]",
                           volume: Fraction, det: Fraction,
                           slack: Fraction = Fraction(0)) -> bool:
    """``prod lam_i * vol <= 2^d * det``, with optional relative slack."""
    lams = _minima_list(minima)
    d = len(lams)
    lhs = GaugeValue.rational(volume)
    for lam in lams:
        lhs = lhs * lam
    rhs = GaugeValue.rational((2 ** d) * det * (1 + slack) ** d)
    return not rhs < lhs


def riemann_slack(body: SymmetricBody, lattice: Lattice,
                  resolution: Fraction) -> Fraction:
    """Relative surface-term slack for the Riemann volume estimate.

    Each counted point carries a cell ``r * B * [-1/2, 1/2]^d``; every such
    cell is contained in ``tau * K`` for ``tau = (r/2) * g`` with ``g`` an
    upper bound on the gauge over ``B``-images of the cube corners.  Hence
    the estimate lies within ``[(1-tau)^d, (1+tau)^d]`` times the volume,
    and inequalities verified with slack ``tau`` must hold whenever the
    exact inequality does.
    """
    return Fraction(resolution, 2) * corner_gauge_bound(body, lattice)
