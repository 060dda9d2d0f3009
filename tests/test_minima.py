"""Successive minima, witnesses, and canonical instances."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import latmin.minima
from latmin import (Box, Ellipsoid, GaugeValue, HPolytope, Lattice, Matrix,
                    MinimaResult, canonicalize, count_points,
                    enumerate_points, successive_minima)
from latmin.matrices import align_witnesses
from latmin.minima import _certify_flag, align

from strategies import bodies, instances, nonsingular_int_matrices

F = Fraction
STD2 = Lattice.standard(2)
SKEW = Lattice(Matrix.from_rows([[1, 1], [0, 2]]))


def _greedy_reference(body, lattice) -> MinimaResult:
    """Definitional sweep: every lattice point in (gauge, tie-break) order,
    keeping each point that increases the span."""
    dim = body.dim
    zbody = body if lattice.is_standard else body.preimage(lattice.basis)
    std = Lattice.standard(dim)

    def canon(p):
        for v in p:
            if v:
                return p if v > 0 else tuple(-x for x in p)
        return p

    mu = 1
    while True:
        pts = {canon(p) for p in enumerate_points(zbody, std, mu) if any(p)}
        order = sorted(pts, key=lambda p: (zbody.gauge(p),
                                           tuple(abs(c) for c in reversed(p)),
                                           p))
        minima, witnesses = [], []
        for p in order:
            rows = [list(w) for w in witnesses] + [list(p)]
            if Matrix.from_rows(rows).rank() == len(rows):
                minima.append(zbody.gauge(p))
                witnesses.append(p)
                if len(witnesses) == dim:
                    break
        if len(witnesses) == dim and not GaugeValue.rational(mu) < minima[-1]:
            return MinimaResult(tuple(minima), tuple(witnesses))
        mu *= 2


class TestExamples:
    def test_axis_box(self):
        r = successive_minima(Box((F(1), F(3))), STD2)
        assert r.minima == (GaugeValue.rational(F(1, 3)),
                            GaugeValue.rational(1))
        assert r.witnesses == ((0, 1), (1, 0))
        assert r.dim == 2

    def test_box_over_skew_lattice(self):
        r = successive_minima(Box((F(1), F(3))), SKEW)
        assert r.minima == (GaugeValue.rational(F(2, 3)),
                            GaugeValue.rational(1))
        assert r.witnesses == ((1, -1), (1, 0))

    def test_cross_polytope(self):
        cross = HPolytope(Matrix.from_rows([[F(1, 2), F(1, 2)],
                                            [F(1, 2), F(-1, 2)]]))
        r = successive_minima(cross, STD2)
        assert r.minima == (GaugeValue.rational(F(1, 2)),) * 2
        assert r.witnesses == ((1, 0), (0, 1))

    def test_disk_over_skew_lattice(self):
        r = successive_minima(Ellipsoid(Matrix.identity(2)), SKEW)
        assert r.minima == (GaugeValue.sqrt_of(1), GaugeValue.sqrt_of(4))
        assert r.witnesses == ((1, 0), (1, -1))

    def test_tilted_ellipsoid_over_diagonal_lattice(self):
        body = Ellipsoid(Matrix.from_rows([[9, 9], [9, 25]]))
        r = successive_minima(body, Lattice(Matrix.diagonal([1, F(1, 2)])))
        assert r.minima == (GaugeValue.sqrt_of(F(25, 4)),) * 2
        assert r.witnesses == ((0, 1), (1, -1))

    def test_dimension_one(self):
        r = successive_minima(Box((F(3, 2),)), Lattice.standard(1))
        assert r.minima == (GaugeValue.rational(F(2, 3)),)
        assert r.witnesses == ((1,),)


class TestProperties:
    @given(instances(max_dim=3, small=True))
    def test_monotone_and_positive(self, inst):
        body, lattice = inst
        r = successive_minima(body, lattice)
        assert not r.minima[0].is_zero()
        for a, b in zip(r.minima, r.minima[1:]):
            assert a <= b

    @given(instances(max_dim=3, small=True))
    def test_witnesses_attain_their_minima(self, inst):
        body, lattice = inst
        r = successive_minima(body, lattice)
        cols = Matrix.from_columns([list(w) for w in r.witnesses])
        assert cols.det() != 0
        for w, lam in zip(r.witnesses, r.minima):
            assert body.gauge(lattice.point(w)) == lam

    @given(instances(max_dim=3, small=True))
    def test_first_minimum_is_minimal(self, inst):
        body, lattice = inst
        r = successive_minima(body, lattice)
        assert count_points(body, lattice, r.minima[0], strict=True) == 1
        assert count_points(body, lattice, r.minima[0]) >= 3

    @settings(max_examples=25)
    @given(instances(max_dim=3, small=True))
    def test_each_minimum_is_a_rank_threshold(self, inst):
        body, lattice = inst
        dim = body.dim
        r = successive_minima(body, lattice)
        for i, lam in enumerate(r.minima):
            below = [list(p) for p in
                     enumerate_points(body, lattice, lam, strict=True)]
            assert Matrix.from_rows(below).rank() <= i
            at = [list(p) for p in enumerate_points(body, lattice, lam)]
            assert Matrix.from_rows(at).rank() >= i + 1

    @given(instances(max_dim=3, small=True),
           st.sampled_from([F(1, 2), F(2), F(3)]))
    def test_scaling_the_body_divides_the_minima(self, inst, c):
        body, lattice = inst
        base = successive_minima(body, lattice)
        # c K is the pull-back of K through diag(1/c).
        scaled = successive_minima(
            body.preimage(Matrix.diagonal([1 / c] * body.dim)), lattice)
        assert scaled.witnesses == base.witnesses
        assert scaled.minima == tuple(lam / c for lam in base.minima)

    @settings(max_examples=25)
    @given(instances(max_dim=3, small=True))
    def test_matches_greedy_sweep(self, inst):
        body, lattice = inst
        assert successive_minima(body, lattice) == \
            _greedy_reference(body, lattice)


class TestCanonicalize:
    def test_axis_box_example(self):
        # The alignment swaps the axes, and a box pulled back through a
        # permutation stays a box.
        canon = canonicalize(Box((F(1), F(3))), STD2)
        assert canon.body == Box((F(3), F(1)))
        assert canon.minima.minima == (GaugeValue.rational(F(1, 3)),
                                       GaugeValue.rational(1))
        assert canon.minima.witnesses == ((1, 0), (0, 1))

    @given(instances(max_dim=3, small=True))
    def test_preserves_minima_and_flags_witnesses(self, inst):
        body, lattice = inst
        base = successive_minima(body, lattice)
        canon = canonicalize(body, lattice)
        assert canon.minima.minima == base.minima
        std = Lattice.standard(body.dim)
        for i, (w, lam) in enumerate(zip(canon.minima.witnesses,
                                         canon.minima.minima)):
            assert canon.body.gauge(w) == lam
            assert all(w[j] == 0 for j in range(i + 1, body.dim))
        assert count_points(canon.body, std, 1) == \
            count_points(body, lattice, 1)
        assert count_points(canon.body, std, 2, strict=True) == \
            count_points(body, lattice, 2, strict=True)


class TestAlign:
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        bodies(d, small=True), nonsingular_int_matrices(d, 4))))
    def test_integer_inverse_of_the_alignment(self, case):
        body, w = case
        witnesses = tuple(tuple(int(e) for e in col)
                          for col in zip(*w.entries))
        hermite, inv = align_witnesses(witnesses)
        aligned_body, aligned = align(body, witnesses)
        assert aligned == hermite
        assert all(isinstance(e, int) for row in inv for e in row)
        u = Matrix.from_rows(inv).inverse()
        assert u.is_integer()
        for i, p in enumerate(witnesses):
            assert u.apply(p) == aligned[i]
            assert not any(aligned[i][i + 1:])
        assert aligned_body == body.preimage(u.inverse())


class TestFlagCertificate:
    """``_certify_flag`` proves the aligned body keeps the minima; each
    rejection below is one of its three checks firing."""

    @given(instances(max_dim=3))
    def test_accepts_canonical_instances(self, inst):
        canon = canonicalize(*inst)
        _certify_flag(canon.body, canon.minima.minima, canon.minima.witnesses)

    @given(instances(max_dim=3, small=True), st.data())
    def test_rejects_an_inflated_minimum(self, inst, data):
        canon = canonicalize(*inst)
        minima = list(canon.minima.minima)
        i = data.draw(st.integers(0, len(minima) - 1))
        minima[i] = minima[i] * F(11, 10)
        with pytest.raises(AssertionError, match="witness gauge"):
            _certify_flag(canon.body, tuple(minima), canon.minima.witnesses)

    @given(instances(max_dim=3, small=True), st.data())
    def test_rejects_a_doubled_witness_with_its_own_gauge(self, inst, data):
        # Checks (a) and (b) hold for 2 w_i at gauge 2 lambda_i; only the
        # walk (c) sees w_i itself below that gauge.
        canon = canonicalize(*inst)
        minima = list(canon.minima.minima)
        wits = list(canon.minima.witnesses)
        i = data.draw(st.integers(0, len(wits) - 1))
        wits[i] = tuple(2 * c for c in wits[i])
        minima[i] = canon.body.gauge(wits[i])
        with pytest.raises(AssertionError, match="changed the minima"):
            _certify_flag(canon.body, tuple(minima), tuple(wits))

    def test_rejects_a_zero_diagonal_entry(self):
        body = Box((F(3), F(1)))
        third, one = GaugeValue.rational(F(1, 3)), GaugeValue.rational(1)
        _certify_flag(body, (third, one), ((1, 0), (0, 1)))
        # (3, 0) has the second minimum's gauge but lies in span(e_1).
        with pytest.raises(AssertionError, match="flag"):
            _certify_flag(body, (third, one), ((1, 0), (3, 0)))

    def test_canonicalize_rejects_a_non_minimal_witness(self, monkeypatch):
        def fake_search(body, lattice):
            return MinimaResult((GaugeValue.rational(F(1, 3)),
                                 GaugeValue.rational(2)), ((0, 1), (2, 0)))

        monkeypatch.setattr(latmin.minima, "successive_minima", fake_search)
        with pytest.raises(AssertionError, match="changed the minima"):
            canonicalize(Box((F(1), F(3))), STD2)
