"""Randomized verification harness.

Instances are produced from a self-contained 64-bit splitmix generator so
that every campaign is reproducible bit for bit on any platform; Python's
built-in RNGs are deliberately not used.  An :class:`InstanceSpec` is the
complete recipe for one instance: regenerating from the recorded seed yields
the identical body and lattice.

``verify`` runs the whole pipeline on one instance -- successive minima,
canonicalization, floor terms, divisor chain, kernel check, residue lemma,
and every inequality -- and returns a :class:`VerificationReport` whose
``checks`` map has a fixed set of keys:

    monotone-minima, witness-validity, lemma-2.1, kernel, thm-1.4,
    eq-1.4, mink-1, mink-2, conj-d2

Statuses are ``pass``/``fail``/``reported``/``skipped``.  The product bound
``conj-d2`` is asserted only in dimension 2 (where it is a theorem); in
other dimensions its observed truth value is recorded but never failed.  A
failing kernel check contradicts the supporting argument for the main bound
and is escalated as a bug alarm rather than treated as a counterexample.

The estimate-mode volume checks count the body at the fixed grid
``VOLUME_RESOLUTION = 1/32`` and widen the theorem by the surface slack of
that grid (:func:`~latmin.bounds.riemann_slack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .bodies import (Box, Ellipsoid, HPolytope, SymmetricBody,
                     volume_estimate)
from .bounds import (chain_sublattice, conjecture_rhs, divisor_chain,
                     first_bound_rhs, floor_terms, kernel_check, lemma_bound,
                     main_bound_rhs, minkowski_first_check,
                     minkowski_second_check, riemann_slack)
from .enumeration import (_standard_body, axis_extent_bounds, axis_radii,
                          count_oracle, count_points)
from .gauges import GaugeValue
from .lattices import Lattice
from .matrices import Matrix, _int_det
from .minima import (CanonicalInstance, align, canonicalize,
                     successive_minima)

MAX_DIM = 6
MAX_COEFF_RANGE = 16
VOLUME_RESOLUTION = Fraction(1, 32)

BODY_KINDS = ("box", "hpolytope", "ellipsoid")
LATTICE_KINDS = ("identity", "diagonal", "random-unimodular-times-diagonal")
CHECK_NAMES = ("monotone-minima", "witness-validity", "lemma-2.1", "kernel",
               "thm-1.4", "eq-1.4", "mink-1", "mink-2", "conj-d2")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KIND_SALT = 0xD1B54A32D192ED03


class GenerationError(RuntimeError):
    """Instance generation exhausted its retry budget."""


class SplitMix64:
    """Deterministic 64-bit splitmix stream (Steele-Lea-Flood update)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in ``[0, n)`` by reduction modulo ``n``."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def fraction(self, bound: int) -> Fraction:
        """Positive rational with numerator and denominator in ``[1, bound]``."""
        return Fraction(self.int_in(1, bound), self.int_in(1, bound))


@dataclass(frozen=True)
class InstanceSpec:
    """Complete, reproducible recipe for one randomized instance."""

    seed: int
    dim: int
    body_kind: str
    coeff_range: int
    lattice_kind: str

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}")
        if not 1 <= self.coeff_range <= MAX_COEFF_RANGE:
            raise ValueError(f"coeff_range must be in 1..{MAX_COEFF_RANGE}")
        if self.body_kind not in BODY_KINDS:
            raise ValueError(f"unknown body kind {self.body_kind!r}")
        if self.lattice_kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.lattice_kind!r}")


def _gen_box(rng: SplitMix64, dim: int, bound: int) -> Box:
    return Box(tuple(rng.fraction(bound) for _ in range(dim)))


def _gen_hpolytope(rng: SplitMix64, dim: int, bound: int) -> HPolytope:
    for _ in range(64):
        nrows = dim + rng.below(3)
        rows = []
        for _ in range(nrows):
            row = [rng.int_in(-bound, bound) for _ in range(dim)]
            if any(row):
                rows.append(row)
        if len(rows) < dim:
            continue
        m = Matrix.from_rows(rows)
        if m.rank() == dim:
            return HPolytope(m)
    raise GenerationError("could not draw a full-rank normal matrix")


def _gen_ellipsoid(rng: SplitMix64, dim: int, bound: int) -> Ellipsoid:
    for _ in range(64):
        l = Matrix.from_rows([[rng.int_in(-bound, bound) for _ in range(dim)]
                              for _ in range(dim)])
        if l.det() != 0:
            return Ellipsoid(l.transpose() @ l)
    raise GenerationError("could not draw a nonsingular factor matrix")


def _gen_lattice(rng: SplitMix64, kind: str, dim: int, bound: int) -> Lattice:
    if kind == "identity":
        return Lattice.standard(dim)
    diag = Matrix.diagonal([rng.fraction(bound) for _ in range(dim)])
    if kind == "diagonal":
        return Lattice(diag)
    # Unimodular factor: a short product of elementary shears keeps entries
    # small while still mixing the axes.
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i = rng.below(dim)
        j = rng.below(dim)
        if i == j:
            continue
        s = 1 if rng.below(2) == 0 else -1
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return Lattice(Matrix.from_rows(u) @ diag)


def generate(spec: InstanceSpec) -> tuple[SymmetricBody, Lattice]:
    """Materialize the body and lattice described by a spec.

    The generator stream is consumed in a fixed documented order (body
    first, then lattice), so equal specs always produce equal instances.
    """
    rng = SplitMix64(spec.seed)
    if spec.body_kind == "box":
        body: SymmetricBody = _gen_box(rng, spec.dim, spec.coeff_range)
    elif spec.body_kind == "hpolytope":
        body = _gen_hpolytope(rng, spec.dim, spec.coeff_range)
    else:
        body = _gen_ellipsoid(rng, spec.dim, spec.coeff_range)
    lattice = _gen_lattice(rng, spec.lattice_kind, spec.dim, spec.coeff_range)
    return body, lattice


def plan_instances(base_seed: int, count: int, dims: Sequence[int],
                   body_kind: str | None, coeff_range: int) -> list[InstanceSpec]:
    """Derive ``count`` instance specs from one base seed.

    Per-instance seeds are consecutive outputs of a splitmix stream seeded
    with ``base_seed``; kind choices (when not pinned) come from a salted
    secondary stream so they do not correlate with instance content.
    """
    seeder = SplitMix64(base_seed)
    specs = []
    for i in range(count):
        seed = seeder.next_u64()
        chooser = SplitMix64(seed ^ _KIND_SALT)
        kind = body_kind or BODY_KINDS[chooser.below(3)]
        lattice_kind = LATTICE_KINDS[chooser.below(3)]
        specs.append(InstanceSpec(seed=seed, dim=dims[i % len(dims)],
                                  body_kind=kind, coeff_range=coeff_range,
                                  lattice_kind=lattice_kind))
    return specs


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    """Everything the pipeline measured for one instance."""

    spec: InstanceSpec | None
    dim: int
    body_kind: str
    minima: tuple[GaugeValue, ...]
    witnesses: tuple[tuple[int, ...], ...]
    count: int
    first_bound: int
    conjecture_bound: int
    main_bound: int | None
    lemma_lhs: int
    lemma_rhs: int
    chain: tuple[int, ...]
    checks: dict[str, str]
    conjecture_observed: bool
    tightness_ratio: Fraction | None
    alerts: tuple[str, ...]

    @property
    def failed(self) -> bool:
        return any(v == "fail" for v in self.checks.values())

    @property
    def bug_alarm(self) -> bool:
        return bool(self.alerts)


def _monotone(minima: Sequence[GaugeValue]) -> bool:
    if minima[0].is_zero():
        return False
    return all(not minima[i + 1] < minima[i] for i in range(len(minima) - 1))


def _witnesses_valid(canon: CanonicalInstance) -> bool:
    wits = canon.minima.witnesses
    if _int_det(wits) == 0:
        return False
    for i, (w, lam) in enumerate(zip(wits, canon.minima.minima)):
        if canon.body.gauge(w) != lam:
            return False
        if any(w[j] != 0 for j in range(i + 1, len(w))):
            return False
    return True


def verify(body: SymmetricBody, lattice: Lattice,
           spec: InstanceSpec | None = None, *,
           minkowski: str = "auto") -> VerificationReport:
    """Run the full pipeline on one instance and grade every check.

    ``minkowski`` controls the volume theorems for non-box shapes, whose
    volume is only available through the Riemann estimate: ``"auto"`` skips
    them (boxes are always checked exactly), ``"estimate"`` checks them with
    the estimate at :data:`VOLUME_RESOLUTION` and its surface slack,
    ``"skip"`` skips them for every shape.
    """
    if minkowski not in ("auto", "estimate", "skip"):
        raise ValueError("minkowski must be auto, estimate, or skip")
    dim = body.dim
    canon = canonicalize(body, lattice)
    mins = canon.minima
    standard = Lattice.standard(dim)

    q = floor_terms(mins)
    first = first_bound_rhs(mins)
    conj = conjecture_rhs(mins)
    main = main_bound_rhs(mins) if dim >= 2 else None
    chain = divisor_chain(q)
    sub = chain_sublattice(chain, standard)
    kernel_ok = kernel_check(canon.body, sub)
    lemma_lhs, lemma_rhs = lemma_bound(canon.body, standard, sub)
    count = lemma_lhs  # #(K meet Z^d), the lemma's left-hand side

    checks: dict[str, str] = {}
    checks["monotone-minima"] = "pass" if _monotone(mins.minima) else "fail"
    checks["witness-validity"] = "pass" if _witnesses_valid(canon) else "fail"
    checks["lemma-2.1"] = "pass" if lemma_lhs <= lemma_rhs else "fail"
    checks["kernel"] = "pass" if kernel_ok else "fail"
    if dim >= 2:
        assert main is not None
        checks["thm-1.4"] = "pass" if count < main else "fail"
    else:
        checks["thm-1.4"] = "skipped"
    checks["eq-1.4"] = "pass" if count <= first else "fail"

    if minkowski == "skip" or (minkowski == "auto"
                               and not isinstance(body, Box)):
        checks["mink-1"] = checks["mink-2"] = "skipped"
    else:
        if isinstance(body, Box):
            vol, slack = body.volume, Fraction(0)
        else:
            vol = volume_estimate(body, lattice, VOLUME_RESOLUTION)
            slack = riemann_slack(body, lattice, VOLUME_RESOLUTION)
        det = lattice.determinant
        checks["mink-1"] = ("pass" if
                            minkowski_first_check(mins, vol, det, slack)
                            else "fail")
        checks["mink-2"] = ("pass" if
                            minkowski_second_check(mins, vol, det, slack)
                            else "fail")

    conj_holds = count <= conj
    if dim == 2:
        checks["conj-d2"] = "pass" if conj_holds else "fail"
    else:
        checks["conj-d2"] = "reported"

    alerts: tuple[str, ...] = ()
    if not kernel_ok:
        alerts = ("bug-alarm: kernel intersection is nontrivial",)

    return VerificationReport(
        spec=spec, dim=dim, body_kind=body.kind,
        minima=mins.minima, witnesses=mins.witnesses,
        count=count, first_bound=first, conjecture_bound=conj,
        main_bound=main, lemma_lhs=lemma_lhs, lemma_rhs=lemma_rhs,
        chain=chain, checks=checks, conjecture_observed=conj_holds,
        tightness_ratio=Fraction(count, main) if main else None,
        alerts=alerts)


def verify_spec(spec: InstanceSpec) -> VerificationReport:
    return verify(*generate(spec), spec)


@dataclass(frozen=True)
class CampaignSummary:
    """Order-independent rollup of a list of reports."""

    total: int
    failures: int
    bug_alarms: tuple[int, ...]
    max_tightness: Fraction | None
    max_tightness_seed: int | None


def summarize(reports: Sequence[VerificationReport]) -> CampaignSummary:
    failures = sum(1 for r in reports if r.failed)
    alarms = tuple(sorted(r.spec.seed for r in reports
                          if r.bug_alarm and r.spec))
    best: Fraction | None = None
    best_seed: int | None = None
    for r in sorted(reports, key=lambda r: r.spec.seed if r.spec else 0):
        if r.tightness_ratio is not None and (best is None or
                                              r.tightness_ratio > best):
            best = r.tightness_ratio
            best_seed = r.spec.seed if r.spec else None
    return CampaignSummary(total=len(reports), failures=failures,
                           bug_alarms=alarms, max_tightness=best,
                           max_tightness_seed=best_seed)


def campaign(specs: Iterable[InstanceSpec],
             ) -> tuple[list[VerificationReport], CampaignSummary]:
    """Verify many instances in spec order and summarize."""
    reports = [verify_spec(s) for s in specs]
    return reports, summarize(reports)


# ---------------------------------------------------------------------------
# definition-level cross-checks


def oracle_campaign(specs: Iterable[InstanceSpec]) -> bool:
    """Do the fast paths agree with definition-level scans on every spec?

    Each spec's body is pulled back through its lattice basis once, to
    ``zbody`` over the standard lattice, and every later call reads that
    view or its alignment.  ``count_points`` must agree with
    ``count_oracle`` (closed and strict) at ``mu = 1``, and the computed
    first minimum ``lambda_1`` with witness ``w_1`` must meet its
    definition: ``zbody.gauge(w_1) = lambda_1``, so ``lambda_1 * zbody``
    holds the nonzero point ``w_1``, and the strict ``count_oracle`` at
    ``lambda_1`` is 1, so no nonzero point has a smaller gauge.

    The scans run in whichever basis has the smaller ``mu = 1`` scan
    radius (:func:`axis_radii`): ``zbody``'s own, or the standard basis of
    ``zbody`` aligned to the search's witnesses (:func:`align`).  Each
    basis's extents are computed once, and every scan radius comes from
    them.  A unimodular change of basis keeps every count and minimum, and
    a skewed lattice basis can make the lattice's own scan cube vastly
    larger than the body.  Only sensible at small dimension; callers keep
    ``dim <= 3``.
    """
    one = GaugeValue.rational(1)
    for spec in specs:
        if spec.dim > 3:
            raise ValueError("oracle comparisons are limited to dim <= 3")
        body, lattice = generate(spec)
        standard = Lattice.standard(spec.dim)
        zbody = _standard_body(body, lattice)
        mins = successive_minima(zbody, standard)
        aligned, _ = align(zbody, mins.witnesses)
        scans = [(max(axis_radii(extents, one)), scan_body, extents)
                 for scan_body in (zbody, aligned)
                 for extents in [axis_extent_bounds(scan_body, standard)]]
        radius, scan_body, extents = min(scans, key=lambda scan: scan[0])
        for strict in (False, True):
            if count_points(zbody, standard, one, strict) != count_oracle(
                    scan_body, standard, one, radius, strict):
                return False
        lam1 = mins.minima[0]
        if zbody.gauge(mins.witnesses[0]) != lam1 or count_oracle(
                scan_body, standard, lam1, max(axis_radii(extents, lam1)),
                strict=True) != 1:
            return False
    return True
