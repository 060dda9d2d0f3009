"""Successive minima, witnesses, and canonical instances."""

import itertools
import math
from fractions import Fraction
from operator import mul

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import latmin.minima
from latmin import (Box, Ellipsoid, GaugeValue, HPolytope, Lattice, Matrix,
                    MinimaResult, canonicalize, count_points,
                    enumerate_points, generate, plan_instances,
                    successive_minima)
from latmin.enumeration import (_gauge_squared_within, _standard_body,
                                axis_extent_bounds, axis_radii)
from latmin.matrices import align_witnesses
from latmin.minima import _certify_flag, align

from strategies import (bodies, boxes, ellipsoids, hpolytopes, instances,
                        lattices, nonsingular_int_matrices, shear_unimodulars)

F = Fraction
STD2 = Lattice.standard(2)
SKEW = Lattice(Matrix.from_rows([[1, 1], [0, 2]]))


def _canon(p):
    """``p`` or ``-p``, whichever has a positive first nonzero entry."""
    for v in p:
        if v:
            return p if v > 0 else tuple(-x for x in p)
    return p


def _rank_sweep(order, dim):
    """``(gauge, point)`` pairs in sweep order -> the minima and witnesses
    of the pairs that grow the span, stopping at rank ``dim``."""
    minima, witnesses = [], []
    for gauge, p in order:
        rows = [list(w) for w in witnesses] + [list(p)]
        if Matrix.from_rows(rows).rank() == len(rows):
            minima.append(gauge)
            witnesses.append(p)
            if len(witnesses) == dim:
                break
    return minima, witnesses


def _greedy_reference(body, lattice) -> MinimaResult:
    """Definitional sweep: every lattice point in (gauge, tie-break) order,
    keeping each point that increases the span."""
    dim = body.dim
    zbody = body if lattice.is_standard else body.preimage(lattice.basis)
    std = Lattice.standard(dim)

    mu = 1
    while True:
        pts = {_canon(p) for p in enumerate_points(zbody, std, mu) if any(p)}
        order = sorted(pts, key=lambda p: (zbody.gauge(p),
                                           tuple(abs(c) for c in reversed(p)),
                                           p))
        minima, witnesses = _rank_sweep(((zbody.gauge(p), p) for p in order),
                                        dim)
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
        assert tuple(c * lam for lam in scaled.minima) == base.minima

    @settings(max_examples=25)
    @given(instances(max_dim=3, small=True))
    def test_matches_greedy_sweep(self, inst):
        body, lattice = inst
        assert successive_minima(body, lattice) == \
            _greedy_reference(body, lattice)


# Small bodies of each kind, by dimension.
KIND_BODIES = {
    "box": lambda dim: boxes(dim, max_num=2, max_den=3),
    "hpolytope": lambda dim: hpolytopes(dim, bound=2),
    "ellipsoid": lambda dim: ellipsoids(dim, bound=2),
}


@pytest.mark.parametrize("kind", sorted(KIND_BODIES))
class TestMetamorphic:
    """The minima depend on the body and the lattice as sets, not on the
    basis or the order of the coordinates they are written in."""

    @given(st.data())
    def test_rebasing_the_lattice_keeps_the_minima(self, kind, data):
        dim = data.draw(st.integers(2, 4))
        body = data.draw(KIND_BODIES[kind](dim))
        lattice = data.draw(lattices(dim))
        rebased = Lattice(lattice.basis @ data.draw(shear_unimodulars(dim)))
        assert successive_minima(body, rebased).minima == \
            successive_minima(body, lattice).minima

    @given(st.data())
    def test_permuting_the_coordinates_keeps_the_minima(self, kind, data):
        dim = data.draw(st.integers(2, 4))
        body = data.draw(KIND_BODIES[kind](dim))
        lattice = data.draw(lattices(dim))
        perm = data.draw(st.permutations(range(dim)))
        p = Matrix.from_rows([[int(j == perm[i]) for j in range(dim)]
                              for i in range(dim)])
        # P K is the pull-back of K through P^-1 = P^T.
        permuted = successive_minima(body.preimage(p.transpose()),
                                     Lattice(p @ lattice.basis))
        assert permuted.minima == successive_minima(body, lattice).minima


def _ceil_gauge(lam: GaugeValue) -> int:
    """The least integer ``c >= lam``, exactly."""
    sq = lam.squared()
    c = math.isqrt(-(-sq.numerator // sq.denominator))
    return c if c * c >= sq else c + 1


def _scan_reference(body, lattice, found: MinimaResult):
    """Minima and witnesses of ``body`` over ``lattice`` from a cube scan,
    with no walk: ``(minima squared, witnesses)``, or ``None`` when the
    cube holds more than 20,000 points.

    The cube covers ``c K`` for ``c`` the ceiling of the last minimum the
    search ``found`` (:func:`axis_radii`), in the lattice basis or, when
    smaller, in the basis aligned to its witnesses.  Every point of gauge
    at most ``c`` lies in it, so the greedy sweep of its points is the sweep
    of the whole lattice up to rank ``d`` whenever ``c`` is at least the
    true last minimum, and otherwise stops short of rank ``d``.  Exact
    squared gauges come from the oracles' evaluator."""
    dim = body.dim
    std = Lattice.standard(dim)
    zbody = _standard_body(body, lattice)
    c = _ceil_gauge(found.minima[-1])
    _, inverse = align_witnesses(found.witnesses)
    assert Matrix.from_rows(inverse).det() in (1, -1)
    scans = [(zbody, None), (zbody.preimage(inverse), inverse)]
    size, scan_body, rows, radii = min(
        ((math.prod(2 * r + 1 for r in radii), scan_body, rows, radii)
         for scan_body, rows in scans
         for radii in [axis_radii(axis_extent_bounds(scan_body, std), c)]),
        key=lambda scan: scan[0])
    if size > 20_000:
        return None
    within = _gauge_squared_within(scan_body)
    points = {}
    for y in itertools.product(*(range(-r, r + 1) for r in radii)):
        g = within(y, c * c, 1) if any(y) else None
        if g is None:
            continue
        x = y if rows is None else tuple(sum(map(mul, row, y))
                                         for row in rows)
        points[_canon(x)] = Fraction(*g)
    order = sorted(points.items(), key=lambda px: (
        px[1], tuple(abs(v) for v in reversed(px[0])), px[0]))
    minima, witnesses = _rank_sweep(((g, x) for x, g in order), dim)
    return tuple(minima), tuple(witnesses)


class TestScanReference:
    def test_dim4_campaign_without_the_walker(self):
        # Every dim-4 instance of the seed-42 reference campaign whose scan
        # cube holds at most 20,000 points: each minimum and witness,
        # tie-break included, from a cube scan that shares no walk with
        # the search.
        specs = [s for s in plan_instances(42, 500, [2, 3, 4], None, 5)
                 if s.dim == 4]
        checked, kinds = 0, set()
        for spec in specs:
            body, lattice = generate(spec)
            got = successive_minima(body, lattice)
            ref = _scan_reference(body, lattice, got)
            if ref is None:
                continue
            minima, witnesses = ref
            assert tuple(lam.squared() for lam in got.minima) == minima
            assert got.witnesses == witnesses
            checked += 1
            kinds.add(spec.body_kind)
        assert checked >= 150
        assert kinds == {"box", "hpolytope", "ellipsoid"}


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
