"""Deterministic instance generation and the verification pipeline."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given

from latmin import (Box, GaugeValue, InstanceSpec, Lattice, MinimaResult,
                    campaign, count_oracle, count_points, enclosing_radius,
                    generate, oracle_campaign, plan_instances,
                    successive_minima, summarize, verify, verify_spec)
from latmin.enumeration import _standard_body, axis_extent_bounds
from latmin.harness import (BODY_KINDS, CHECK_NAMES, LATTICE_KINDS, MAX_DIM,
                            SplitMix64)
from latmin.minima import align

from strategies import instances

F = Fraction


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs of the well-known splitmix64 stream seeded with 0.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
            0x06C45D188009454F, 0xF88BB8A8724C81EC]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_derived_draws(self):
        rng = SplitMix64(12345)
        for _ in range(200):
            assert 0 <= rng.below(7) < 7
            assert 3 <= rng.int_in(3, 9) <= 9
            f = rng.fraction(4)
            assert 0 < f <= 4 and f.denominator <= 4
        with pytest.raises(ValueError):
            rng.below(0)


class TestInstanceSpecs:
    def test_validation(self):
        good = dict(seed=1, dim=2, body_kind="box", coeff_range=3,
                    lattice_kind="identity")
        InstanceSpec(**good)
        with pytest.raises(ValueError):
            InstanceSpec(**{**good, "dim": MAX_DIM + 1})
        with pytest.raises(ValueError):
            InstanceSpec(**{**good, "coeff_range": 0})
        with pytest.raises(ValueError):
            InstanceSpec(**{**good, "body_kind": "any"})
        with pytest.raises(ValueError):
            InstanceSpec(**{**good, "lattice_kind": "dual"})

    def test_plan_is_deterministic_and_cycles_dims(self):
        a = plan_instances(7, 12, (2, 3), None, 4)
        b = plan_instances(7, 12, (2, 3), None, 4)
        assert a == b
        assert [s.dim for s in a] == [2, 3] * 6
        assert all(s.coeff_range == 4 for s in a)

    def test_plan_pins_or_mixes_kinds(self):
        pinned = plan_instances(7, 9, (2,), "ellipsoid", 4)
        assert {s.body_kind for s in pinned} == {"ellipsoid"}
        mixed = plan_instances(7, 40, (2,), None, 4)
        assert {s.body_kind for s in mixed} == set(BODY_KINDS)
        assert {s.lattice_kind for s in mixed} == set(LATTICE_KINDS)

    def test_generate_is_reproducible(self):
        for kind in BODY_KINDS:
            spec = InstanceSpec(seed=99, dim=3, body_kind=kind,
                                coeff_range=5,
                                lattice_kind="random-unimodular-times-diagonal")
            assert generate(spec) == generate(spec)

    def test_generated_shapes_match_spec(self):
        for i, spec in enumerate(plan_instances(3, 12, (1, 2, 3), None, 5)):
            body, lattice = generate(spec)
            assert body.kind == spec.body_kind
            assert body.dim == spec.dim == lattice.dim
            if spec.lattice_kind == "identity":
                assert lattice.is_standard


class TestVerify:
    def test_axis_box_report(self):
        report = verify(Box((F(1), F(3))), Lattice.standard(2))
        assert report.count == 21
        assert report.minima == (GaugeValue.rational(F(1, 3)),
                                 GaugeValue.rational(1))
        assert report.first_bound == 49
        assert report.conjecture_bound == 21
        assert report.main_bound == 42
        assert (report.lemma_lhs, report.lemma_rhs) == (21, 27)
        assert report.chain == (9, 3)
        assert report.tightness_ratio == F(1, 2)
        assert report.conjecture_observed
        assert set(report.checks) == set(CHECK_NAMES)
        assert all(v == "pass" for v in report.checks.values())
        assert not report.failed and not report.bug_alarm

    def test_dimension_one_skips_the_strict_bound(self):
        report = verify(Box((F(2),)), Lattice.standard(1))
        assert report.main_bound is None
        assert report.tightness_ratio is None
        assert report.checks["thm-1.4"] == "skipped"
        assert report.checks["conj-d2"] == "reported"
        assert not report.failed

    def test_dimension_three_reports_the_conjecture(self):
        report = verify(Box((F(1), F(1), F(1))), Lattice.standard(3))
        assert report.checks["conj-d2"] == "reported"
        assert report.conjecture_observed

    def test_minkowski_modes(self):
        body = Box((F(1), F(1)))
        std = Lattice.standard(2)
        assert verify(body, std, minkowski="skip").checks["mink-1"] == \
            "skipped"
        # Boxes are checked exactly no matter the mode.
        assert verify(body, std, minkowski="estimate").checks["mink-2"] == \
            "pass"
        spec = InstanceSpec(seed=5, dim=2, body_kind="ellipsoid",
                            coeff_range=3, lattice_kind="identity")
        auto = verify_spec(spec)
        assert auto.checks["mink-1"] == "skipped"
        est = verify(*generate(spec), spec, minkowski="estimate")
        assert est.checks["mink-1"] == "pass"
        assert est.checks["mink-2"] == "pass"
        with pytest.raises(ValueError):
            verify(body, std, minkowski="never")

    def test_failed_and_alarm_flags(self):
        report = verify(Box((F(1), F(3))), Lattice.standard(2))
        broken = dataclasses.replace(
            report, checks={**report.checks, "eq-1.4": "fail"})
        assert broken.failed
        alarmed = dataclasses.replace(report, alerts=("bug-alarm: x",))
        assert alarmed.bug_alarm and not alarmed.failed


class TestCampaign:
    def test_reports_and_summary(self):
        specs = plan_instances(11, 12, (1, 2, 3), None, 4)
        reports, summary = campaign(specs)
        assert [r.spec for r in reports] == specs
        assert summary.total == 12
        assert summary.failures == sum(1 for r in reports if r.failed) == 0
        assert summary.bug_alarms == ()
        ratios = [r.tightness_ratio for r in reports
                  if r.tightness_ratio is not None]
        assert summary.max_tightness == max(ratios)
        assert summarize(reports) == summary

    def test_oracle_campaign(self):
        specs = plan_instances(17, 8, (1, 2, 3), None, 3)
        assert oracle_campaign(specs)
        big = InstanceSpec(seed=1, dim=4, body_kind="box", coeff_range=2,
                           lattice_kind="identity")
        with pytest.raises(ValueError):
            oracle_campaign([big])

    def test_oracle_campaign_takes_each_basis_extents_once(self, monkeypatch):
        # One axis_extent_bounds per candidate basis: the scan radius and
        # the minimum scan both read the chosen basis's extents.
        calls = []

        def spy(body, lattice):
            calls.append(body)
            return axis_extent_bounds(body, lattice)

        monkeypatch.setattr("latmin.harness.axis_extent_bounds", spy)
        monkeypatch.setattr("latmin.enumeration.axis_extent_bounds", spy)
        specs = plan_instances(17, 8, (1, 2, 3), None, 3)
        assert oracle_campaign(specs)
        assert len(calls) == 2 * len(specs)

    @pytest.mark.parametrize("mutant", ["doubled", "halved",
                                        "witness-doubled"])
    def test_oracle_campaign_rejects_a_wrong_first_minimum(self, monkeypatch,
                                                           mutant):
        # A search that reports lambda_1 doubled, halved, or with its
        # witness doubled and that witness's own gauge fails the oracle on
        # every spec.
        def wrong(body, lattice):
            mins = successive_minima(body, lattice)
            lam, w = mins.minima[0], mins.witnesses[0]
            if mutant == "doubled":
                lam = 2 * lam
            elif mutant == "halved":
                lam = F(1, 2) * lam
            else:
                w = tuple(2 * c for c in w)
                lam = _standard_body(body, lattice).gauge(w)
            return MinimaResult((lam,) + mins.minima[1:],
                                (w,) + mins.witnesses[1:])

        monkeypatch.setattr("latmin.harness.successive_minima", wrong)
        specs = plan_instances(17, 8, (1, 2, 3), None, 3)
        assert not any(oracle_campaign([spec]) for spec in specs)

    def test_oracle_campaign_on_a_skewed_polytope(self):
        # Its lattice basis is so skewed that a count scan in the lattice's
        # own coordinates covers 257^3 (about 1.7e7) points for 7 lattice
        # points; in the aligned basis it covers 5^3.
        spec = InstanceSpec(seed=14777826839175547473, dim=3,
                            body_kind="hpolytope", coeff_range=5,
                            lattice_kind="random-unimodular-times-diagonal")
        assert oracle_campaign([spec])


class TestOracleBases:
    @given(instances(max_dim=3, small=True))
    def test_oracles_agree_in_both_bases(self, inst):
        body, lattice = inst
        one = GaugeValue.rational(1)
        mins = successive_minima(body, lattice)
        aligned, aligned_wits = align(_standard_body(body, lattice),
                                      mins.witnesses)
        standard = Lattice.standard(body.dim)
        lam1 = mins.minima[0]
        # lambda_1 by its definition in each basis: its witness is a
        # nonzero point of gauge lambda_1, and the open dilate lambda_1 K
        # holds no lattice point but the origin.
        for scan_body, scan_lattice, w1 in (
                (body, lattice, lattice.point(mins.witnesses[0])),
                (aligned, standard, aligned_wits[0])):
            radius = enclosing_radius(scan_body, scan_lattice, one)
            for strict in (False, True):
                assert count_oracle(scan_body, scan_lattice, one, radius,
                                    strict) == \
                    count_points(body, lattice, one, strict)
            assert any(w1) and scan_body.gauge(w1) == lam1
            assert count_oracle(
                scan_body, scan_lattice, lam1,
                enclosing_radius(scan_body, scan_lattice, lam1),
                strict=True) == 1
