"""Floor terms, divisor chains, residue-counting bounds, volume theorems."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from latmin import (Box, GaugeValue, Lattice, Matrix, Sublattice,
                    chain_sublattice, conjecture_rhs, count_points,
                    divisor_chain, first_bound_rhs, floor_term, floor_terms,
                    kernel_check, lemma_bound, main_bound_rhs,
                    minkowski_first_check, minkowski_second_check,
                    riemann_slack, successive_minima, volume_estimate)

from strategies import boxes, instances, positive_fractions

F = Fraction
STD2 = Lattice.standard(2)
UNIT_BOX = Box((F(1), F(1)))


def gauge_values():
    return st.one_of(positive_fractions(9, 9).map(GaugeValue.rational),
                     positive_fractions(9, 9).map(GaugeValue.sqrt_of))


class TestFloorTerms:
    def test_rational_examples(self):
        assert floor_term(GaugeValue.rational(1)) == 3
        assert floor_term(GaugeValue.rational(F(2, 3))) == 4
        assert floor_term(GaugeValue.rational(F(9, 10))) == 3
        assert floor_term(GaugeValue.rational(F(1, 3))) == 7

    def test_sqrt_examples(self):
        assert floor_term(GaugeValue.sqrt_of(2)) == 2
        assert floor_term(GaugeValue.sqrt_of(F(1, 4))) == 5
        assert floor_term(GaugeValue.sqrt_of(4)) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            floor_term(GaugeValue.rational(0))

    @given(gauge_values())
    def test_floor_characterization(self, lam):
        q = floor_term(lam)
        # q - 1 = floor(2 / lam):  (q - 1) lam <= 2 < q lam.
        assert not GaugeValue.rational(2) < lam * (q - 1)
        assert GaugeValue.rational(2) < lam * q

    def test_vector_forms(self):
        mins = (GaugeValue.rational(F(1, 3)), GaugeValue.rational(1))
        assert floor_terms(mins) == (7, 3)
        assert first_bound_rhs(mins) == 49
        assert conjecture_rhs(mins) == 21
        assert main_bound_rhs(mins) == 42
        assert floor_terms(successive_minima(UNIT_BOX, STD2)) == (3, 3)
        assert first_bound_rhs([GaugeValue.rational(F(2, 3))] * 3) == 64

    def test_main_bound_needs_dimension_two(self):
        with pytest.raises(ValueError):
            main_bound_rhs([GaugeValue.rational(1)])


class TestDivisorChain:
    def test_examples(self):
        assert divisor_chain((3, 3, 3)) == (3, 3, 3)
        assert divisor_chain((6, 4, 3)) == (6, 6, 3)
        assert divisor_chain((5, 2)) == (6, 2)
        assert divisor_chain((7,)) == (7,)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5)
           .map(lambda q: tuple(sorted(q, reverse=True))))
    def test_invariants(self, q):
        chain = divisor_chain(q)
        assert len(chain) == len(q)
        assert chain[-1] == q[-1]
        for n, next_n in zip(chain, chain[1:]):
            assert n % next_n == 0
        for n, qi in zip(chain, q):
            assert qi <= n < 2 * qi

    def test_chain_sublattice(self):
        sub = chain_sublattice((6, 3), STD2)
        assert sub.index == 18
        assert sub.coeff == Matrix.diagonal([6, 3])


class TestResidueCounting:
    def test_lemma_example(self):
        sub = Sublattice(STD2, Matrix.diagonal([3, 3]))
        assert lemma_bound(UNIT_BOX, STD2, sub) == (9, 9)

    def test_kernel_check(self):
        assert kernel_check(UNIT_BOX, chain_sublattice((3, 3), STD2))
        assert not kernel_check(UNIT_BOX, chain_sublattice((1, 1), STD2))

    @given(instances(max_dim=3, small=True), st.data())
    def test_lemma_holds_for_random_sublattices(self, inst, data):
        body, lattice = inst
        diag = [data.draw(st.integers(1, 4)) for _ in range(body.dim)]
        sub = Sublattice(lattice, Matrix.diagonal(diag))
        lhs, rhs = lemma_bound(body, lattice, sub)
        assert lhs == count_points(body, lattice, 1)
        assert lhs <= rhs


class TestMinkowski:
    @given(st.integers(1, 3).flatmap(boxes))
    def test_second_theorem_is_exact_equality_on_boxes(self, box):
        lattice = Lattice.standard(box.dim)
        mins = successive_minima(box, lattice)
        product = GaugeValue.rational(box.volume)
        for lam in mins.minima:
            product = product * lam
        assert product == F(2 ** box.dim)
        assert minkowski_second_check(mins, box.volume, lattice.determinant)
        assert minkowski_first_check(mins, box.volume, lattice.determinant)

    def test_slack_widens_the_right_side(self):
        mins = (GaugeValue.rational(2), GaugeValue.rational(2))
        # lam^d vol = 4 * 9/4 = 9 > 4 = 2^d det: fails exactly, passes with
        # enough relative slack.
        assert not minkowski_first_check(mins, F(9, 4), F(1))
        assert minkowski_first_check(mins, F(9, 4), F(1), slack=F(1, 2))


class TestRiemannEstimate:
    def test_slack_example(self):
        assert riemann_slack(UNIT_BOX, STD2, F(1, 4)) == F(1, 8)

    @given(boxes(2, max_num=3, max_den=2),
           st.sampled_from([F(1, 2), F(1, 4), F(1, 8)]))
    def test_estimate_within_documented_envelope(self, box, resolution):
        lattice = Lattice.standard(2)
        est = volume_estimate(box, lattice, resolution)
        tau = riemann_slack(box, lattice, resolution)
        vol = box.volume
        assert (1 - tau) ** 2 * vol <= est <= (1 + tau) ** 2 * vol
