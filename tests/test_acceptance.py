"""Acceptance suite: the end-to-end guarantees this package ships with.

Each criterion is a single test, so ``pytest -v`` emits exactly one
pass/fail line per criterion.  Tolerances, stated once here:

* Criteria 1, 2, 4-8, 10, and the box half of 9 are exact rational
  assertions - tolerance zero.
* Criterion 9 on non-box shapes checks Minkowski's volume theorems against
  the Riemann volume estimate at resolution r = 1/32, widening the
  right-hand side by the documented relative surface slack
  ``tau = (r/2) * (max corner gauge)`` per dimension factor; any instance
  satisfying the exact theorem satisfies the widened check.
* Criterion 10 uses the exact discretization envelope
  ``|estimate - 4| <= 8r + 4r^2`` for the unit square.
* Criterion 11 requires byte-identical CLI output across repeated runs.

Wall-clock caps (10 s / 5 min / 2 min) are asserted where stated.
"""

import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from latmin import (Box, GaugeValue, Lattice, Matrix, Sublattice, campaign,
                    count_points, floor_terms, generate, minkowski_first_check,
                    minkowski_second_check, oracle_campaign, plan_instances,
                    successive_minima, summarize, verify, volume_estimate)
from latmin.harness import BODY_KINDS, SplitMix64

F = Fraction

FUZZ_SEED = 42
FUZZ_COUNT = 500
FUZZ_DIMS = (2, 3, 4)
FUZZ_RANGE = 5

SUBLATTICE_SALT = 0x5EED5EED5EED5EED


def _box_corpus(count=50, seed=20240801):
    """Random axis boxes in dimensions 2, 3, 4.

    Halfwidth fractional parts stay below one half so the number of lattice
    points per axis, 2*floor(w) + 1, equals the floor term floor(2w) + 1;
    criterion 2 asserts exactly that product identity.
    """
    rng = SplitMix64(seed)
    corpus = []
    for i in range(count):
        dim = (2, 3, 4)[i % 3]
        widths = []
        for _ in range(dim):
            whole = rng.int_in(1, 4)
            den = rng.int_in(1, 8)
            num = rng.below(den)  # num/(2*den) < 1/2
            widths.append(whole + F(num, 2 * den))
        corpus.append(Box(tuple(widths)))
    return corpus


@pytest.fixture(scope="module")
def box_corpus():
    boxes = _box_corpus()
    t0 = time.monotonic()
    minima = [successive_minima(b, Lattice.standard(b.dim)) for b in boxes]
    return boxes, minima, time.monotonic() - t0


@pytest.fixture(scope="module")
def fuzz_campaign():
    specs = plan_instances(FUZZ_SEED, FUZZ_COUNT, FUZZ_DIMS, None, FUZZ_RANGE)
    t0 = time.monotonic()
    reports, summary = campaign(specs)
    return specs, reports, summary, time.monotonic() - t0


def test_criterion_01_boxes_attain_second_theorem_equality(box_corpus):
    boxes, minima, elapsed = box_corpus
    assert len(boxes) == 50
    assert {b.dim for b in boxes} == {2, 3, 4}
    for box, mins in zip(boxes, minima):
        product = GaugeValue.rational(box.volume)
        for lam in mins.minima:
            product = product * lam
        assert product == F(2 ** box.dim)
    assert elapsed < 10.0


def test_criterion_02_box_counts_equal_the_floor_term_product(box_corpus):
    boxes, minima, _ = box_corpus
    for box, mins in zip(boxes, minima):
        lattice = Lattice.standard(box.dim)
        expected = 1
        for q in floor_terms(mins):
            expected *= q
        assert count_points(box, lattice, 1) == expected


def test_criterion_03_fuzz_count_stays_under_the_strict_bound(fuzz_campaign):
    specs, reports, summary, elapsed = fuzz_campaign
    assert len(reports) == FUZZ_COUNT
    assert {s.body_kind for s in specs} == set(BODY_KINDS)
    assert {s.dim for s in specs} == {2, 3, 4}
    for report in reports:
        assert report.count < report.main_bound
    assert summary.failures == 0
    assert summary.bug_alarms == ()
    assert elapsed < 300.0


def test_criterion_04_fuzz_count_respects_the_first_minimum_bound(
        fuzz_campaign):
    _, reports, _, _ = fuzz_campaign
    for report in reports:
        assert report.count <= report.first_bound


def test_criterion_05_residue_bound_holds_for_random_sublattices(
        fuzz_campaign):
    specs, reports, _, _ = fuzz_campaign
    for spec, report in zip(specs, reports):
        body, lattice = generate(spec)
        lhs = count_points(body, lattice, 1)
        assert lhs == report.count
        rng = SplitMix64(spec.seed ^ SUBLATTICE_SALT)
        for _ in range(3):
            diag = [rng.int_in(1, 4) for _ in range(spec.dim)]
            sub = Sublattice(lattice, Matrix.diagonal(diag))
            rhs = sub.index * count_points(body, sub.as_lattice(), 2)
            assert lhs <= rhs


def test_criterion_06_canonical_chain_invariants(fuzz_campaign):
    _, reports, _, _ = fuzz_campaign
    for report in reports:
        q = floor_terms(report.minima)
        chain = report.chain
        assert len(chain) == len(q) == report.dim
        for n, next_n in zip(chain, chain[1:]):
            assert n % next_n == 0
        for n, qi in zip(chain, q):
            assert qi <= n < 2 * qi
        assert report.checks["kernel"] == "pass"
        chain_product = 1
        for n in chain:
            chain_product *= n
        assert report.count <= chain_product
        assert chain_product < report.main_bound


def test_criterion_07_dimension_two_conjecture_bound_on_1000_instances():
    specs = plan_instances(777, 1000, (2,), None, FUZZ_RANGE)
    t0 = time.monotonic()
    reports, summary = campaign(specs)
    elapsed = time.monotonic() - t0
    for report in reports:
        assert report.count <= report.conjecture_bound
        assert report.checks["conj-d2"] == "pass"
    assert summary.failures == 0
    assert elapsed < 120.0


def test_criterion_08_oracle_agreement_on_100_small_instances():
    specs = plan_instances(888, 100, (2, 3), None, 5)
    assert len(specs) == 100
    assert oracle_campaign(specs)


def test_criterion_09_minkowski_theorems_have_zero_violations(box_corpus):
    boxes, minima, _ = box_corpus
    for box, mins in zip(boxes, minima):
        det = Lattice.standard(box.dim).determinant
        assert minkowski_first_check(mins, box.volume, det)
        assert minkowski_second_check(mins, box.volume, det)
    specs = plan_instances(999, 60, (2, 3), None, 4)
    reports = [verify(*generate(s), s, minkowski="estimate") for s in specs]
    summary = summarize(reports)
    assert {s.body_kind for s in specs} == set(BODY_KINDS)
    for report in reports:
        assert report.checks["mink-1"] == "pass"
        assert report.checks["mink-2"] == "pass"
    assert summary.failures == 0


def test_criterion_10_unit_square_riemann_error_envelope():
    box = Box((F(1), F(1)))
    lattice = Lattice.standard(2)
    for k in range(6):
        r = F(1, 2 ** k)
        estimate = volume_estimate(box, lattice, r)
        assert abs(estimate - 4) <= 8 * r + 4 * r * r


def test_criterion_11_repeated_campaigns_are_byte_identical():
    base = [shutil.which("latmin") or sys.executable]
    if base == [sys.executable]:
        base += ["-m", "latmin.cli"]
    argv = base + ["fuzz", "--seed", str(FUZZ_SEED),
                   "--count", str(FUZZ_COUNT),
                   "--dim", ",".join(str(d) for d in FUZZ_DIMS),
                   "--range", str(FUZZ_RANGE), "--out", "csv"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert len(first.stdout.splitlines()) == FUZZ_COUNT + 1
