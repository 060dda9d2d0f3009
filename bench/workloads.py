"""The benchmark's three workloads.

A workload turns a seed into inputs (``prepare``, the timed set-up), yields
an endless deterministic stream of operations (``ops``), grades results
outside the timed phase (``check``, with what the gate covered in
``gate_notes``) and hashes the outputs of the leading ``digest_ops``
operations (``digest``).  A workload that ``cycles`` runs its corpus pass
after pass and renders each result as the bytes a user would see
(``render``), so that later passes can be compared with the first.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from latmin import cli, enumeration, harness
from latmin.gauges import GaugeValue
from latmin.harness import (BODY_KINDS, LATTICE_KINDS, GenerationError,
                            InstanceSpec, SplitMix64)
from latmin.matrices import Matrix

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` says how to reproduce it, ``run`` does it."""

    key: str
    run: Callable[[], Any]
    info: Any


@dataclass
class Record:
    """What one executed operation returned (``error`` if it raised).

    It keeps the operation's key and info but not the operation itself, so
    the inputs an operation built are freed once it has run.
    """

    index: int
    key: str
    info: Any
    seconds: float
    result: Any
    error: str | None = None


def spec_key(spec: InstanceSpec) -> str:
    return (f"seed={spec.seed} dim={spec.dim} body={spec.body_kind} "
            f"lattice={spec.lattice_kind} range={spec.coeff_range}")


def _error_line(record: Record) -> str:
    """What a digest holds in place of the output of an operation that
    raised, so that the digest no longer matches."""
    return f"error: {record.error}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fresh(body):
    """A copy of a body without its cached projection cascades, so that no
    operation reuses work an earlier one left on a shared object."""
    clone = object.__new__(type(body))
    clone.__dict__.update({f.name: getattr(body, f.name)
                           for f in dataclasses.fields(body)})
    return clone


# ---------------------------------------------------------------------------
# fuzz-d234: the `latmin fuzz --dim 2,3,4 --range 5` path


class FuzzD234:
    """Campaign blocks of ``latmin fuzz --count 500 --dim 2,3,4 --range 5``.

    Block 0 uses the benchmark seed as the campaign seed, so seed 42 is the
    reference corpus; later blocks take campaign seeds from a splitmix
    stream.  Each block is ``block`` verify operations followed by one
    oracle operation per spec of the block's oracle sample, the same sample
    ``latmin fuzz`` checks.
    """

    name = "fuzz-d234"
    cycles = False
    gate_notes: dict = {}
    dims = (2, 3, 4)
    coeff_range = 5
    _block_salt = 0x5851F42D4C957F2D

    def __init__(self, block: int = 500):
        self.block = block

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first_block = self._plan(seed)

    def _plan(self, campaign_seed: int) -> list[InstanceSpec]:
        return harness.plan_instances(campaign_seed, self.block, self.dims,
                                      None, self.coeff_range)

    def _oracle_sample(self, specs: Sequence[InstanceSpec]):
        return [s for s in specs if s.dim <= 3][:cli.ORACLE_SAMPLE_CAP]

    @property
    def digest_ops(self) -> int:
        return self.block + len(self._oracle_sample(self.first_block))

    def ops(self) -> Iterator[Op]:
        seeder = SplitMix64(self.seed ^ self._block_salt)
        specs = self.first_block
        for b in itertools.count():
            if b:
                specs = self._plan(seeder.next_u64())
            for spec in specs:
                yield Op(f"verify {spec_key(spec)}",
                         lambda s=spec: harness.verify_spec(s), ("verify", b))
            for spec in self._oracle_sample(specs):
                yield Op(f"oracle {spec_key(spec)}",
                         lambda s=spec: harness.oracle_campaign([s]),
                         ("oracle", b))

    def check(self, records: Sequence[Record]) -> dict[int, str]:
        bad = {}
        for r in records:
            if r.info[0] == "oracle":
                if not r.result:
                    bad[r.index] = "oracle disagreement"
            elif r.result.bug_alarm:
                bad[r.index] = "bug alarm: " + "; ".join(r.result.alerts)
            elif r.result.failed:
                bad[r.index] = "failed checks: " + ",".join(
                    k for k, v in r.result.checks.items() if v == "fail")
        return bad

    def outputs(self, records: Sequence[Record]) -> tuple[str, str]:
        """The stdout and stderr summary line of ``latmin fuzz`` for the
        campaign whose operations are ``records``."""
        verify = [r for r in records if r.info[0] == "verify"]
        reports = [r.result for r in verify if r.error is None]
        verdicts = [r.error is None and bool(r.result) for r in records
                    if r.info[0] == "oracle"]
        lines = [",".join(cli.CSV_COLUMNS)]
        lines += [_error_line(r) if r.error else
                  ",".join(cli.report_csv_row(r.result)) for r in verify]
        summary = harness.summarize(reports)
        if not verdicts:
            note = "skipped"
        else:
            note = f"{'ok' if all(verdicts) else 'FAIL'} n={len(verdicts)}"
        tightness = ("" if summary.max_tightness is None else
                     " max_tightness="
                     f"{cli.format_rational(summary.max_tightness)}"
                     f" (seed={summary.max_tightness_seed})")
        stderr = (f"fuzz: total={summary.total} failures={summary.failures} "
                  f"alarms={len(summary.bug_alarms)}{tightness} "
                  f"oracle={note}\n")
        return "\n".join(lines) + "\n", stderr

    def digest(self, records: Sequence[Record]) -> str:
        stdout, stderr = self.outputs(records)
        return _sha256(stdout + stderr)


# ---------------------------------------------------------------------------
# count-dilate: `latmin count --mu` at a ladder of dilations


def _mu_text(mu: GaugeValue) -> str:
    return f"sqrt({mu.value})" if mu.is_sqrt else str(mu.value)


@dataclass(frozen=True)
class _Instance:
    spec: InstanceSpec
    body: Any
    lattice: Any


class CountDilate:
    """``count_points`` on instances of dims 2-4 over every body and lattice
    kind, each counted at a fixed ladder of dilations.

    Instances are drawn cell by cell, round robin over (dim, body kind,
    lattice kind), so every seed has the same mix.  An instance is kept
    only if ``K`` holds at most ``max_points`` lattice points: the
    square-root path tests the gauge of every point of its cover ``2K``,
    so a few dense instances would otherwise set the whole run.  The corpus
    is counted pass after pass, on fresh body objects every time.
    """

    name = "count-dilate"
    cycles = True
    gate_notes: dict = {}
    dims = (2, 3, 4)
    coeff_range = 5
    ladder = tuple((GaugeValue.rational(Fraction(m)), strict)
                   for m, strict in (("1/2", False), ("1", False),
                                     ("1", True), ("3/2", False),
                                     ("2", False), ("2", True))) + (
        (GaugeValue.sqrt_of(2), False), (GaugeValue.sqrt_of(2), True))
    max_points = 150
    oracle_points = 1_500_000

    def __init__(self, per_cell: int = 60):
        self.per_cell = per_cell

    def _accept(self, body, lattice) -> bool:
        return enumeration.count_points(body, lattice, 1) <= self.max_points

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = SplitMix64(seed)
        cells = list(itertools.product(self.dims, BODY_KINDS, LATTICE_KINDS))
        corpus = []
        for _ in range(self.per_cell):
            for dim, kind, lattice_kind in cells:
                for _ in range(64):
                    spec = InstanceSpec(seed=rng.next_u64(), dim=dim,
                                        body_kind=kind,
                                        coeff_range=self.coeff_range,
                                        lattice_kind=lattice_kind)
                    body, lattice = harness.generate(spec)
                    if self._accept(body, lattice):
                        corpus.append(_Instance(spec, body, lattice))
                        break
                else:
                    raise GenerationError(f"no instance within the point "
                                          f"cap in cell {dim},{kind},"
                                          f"{lattice_kind}")
        self.corpus = corpus

    @property
    def digest_ops(self) -> int:
        return len(self.corpus) * len(self.ladder)

    def ops(self) -> Iterator[Op]:
        for _ in itertools.count():
            for i, inst in enumerate(self.corpus):
                for j, (mu, strict) in enumerate(self.ladder):
                    key = (f"count {spec_key(inst.spec)} mu={_mu_text(mu)}"
                           f"{' strict' if strict else ''}")
                    body = _fresh(inst.body)
                    yield Op(key, lambda b=body, l=inst.lattice, m=mu,
                             s=strict: enumeration.count_points(b, l, m, s),
                             (i, j))

    def render(self, record: Record) -> str:
        return _error_line(record) if record.error else str(record.result)

    def check(self, records: Sequence[Record]) -> dict[int, str]:
        """Closed counts are at least strict ones at the same dilation, and
        dim <= 3 counts match ``count_oracle`` while its scans stay within
        ``oracle_points`` cube points in all."""
        bad = {}
        closed = {}
        for r in records:
            i, j = r.info
            mu, strict = self.ladder[j]
            if not strict:
                closed[(i, mu)] = r.result
        for r in records:
            i, j = r.info
            mu, strict = self.ladder[j]
            if strict and (i, mu) in closed and closed[(i, mu)] < r.result:
                bad[r.index] = "strict count exceeds closed count"
        scans = []
        radii = {}
        for r in records:
            inst = self.corpus[r.info[0]]
            if inst.spec.dim > 3 or r.index in bad:
                continue
            mu, strict = self.ladder[r.info[1]]
            if (r.info[0], mu) not in radii:
                radii[r.info[0], mu] = enumeration.enclosing_radius(
                    inst.body, inst.lattice, mu)
            radius = radii[r.info[0], mu]
            scans.append(((2 * radius + 1) ** inst.spec.dim, r.index, r, inst,
                          mu, strict, radius))
        # Smallest scans first, so the budget checks as many counts as it can.
        scans.sort(key=lambda scan: scan[:2])
        budget = self.oracle_points
        checked = 0
        for cube, index, r, inst, mu, strict, radius in scans:
            if cube > budget:
                break
            budget -= cube
            checked += 1
            if enumeration.count_oracle(inst.body, inst.lattice, mu, radius,
                                        strict) != r.result:
                bad[index] = "count_oracle disagrees"
        self.gate_notes = {"oracle_checked": checked,
                           "oracle_eligible": len(scans)}
        return bad

    def digest(self, records: Sequence[Record]) -> str:
        return _sha256("".join(self.render(r) + "\n" for r in records))


# ---------------------------------------------------------------------------
# succmin-ell56: `latmin succmin` on dim 5-6 ellipsoids


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[cli.format_rational(e) for e in row] for row in m.entries]


def _succmin(path: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["succmin", "--input", path])
    return code, out.getvalue()


class SuccminEll56:
    """In-process ``latmin succmin --input DOC`` on ellipsoids of dims 5
    and 6 over every lattice kind, drawn round robin over (dim, lattice
    kind) cells.  Set-up writes one instance document per instance; the
    corpus is run pass after pass."""

    name = "succmin-ell56"
    cycles = True
    gate_notes: dict = {}
    dims = (5, 6)
    coeff_range = 5

    def __init__(self, per_cell: int = 60):
        self.per_cell = per_cell

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = SplitMix64(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        cells = list(itertools.product(self.dims, LATTICE_KINDS))
        corpus = []
        for n in range(self.per_cell * len(cells)):
            dim, lattice_kind = cells[n % len(cells)]
            spec = InstanceSpec(seed=rng.next_u64(), dim=dim,
                                body_kind="ellipsoid",
                                coeff_range=self.coeff_range,
                                lattice_kind=lattice_kind)
            body, lattice = harness.generate(spec)
            doc = {"dim": dim,
                   "body": {"kind": "ellipsoid", "gram": _matrix_doc(body.gram)},
                   "lattice": {"basis": _matrix_doc(lattice.basis)}}
            path = workdir / f"ellipsoid-{n:04d}.json"
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            corpus.append((_Instance(spec, body, lattice), str(path)))
        self.corpus = corpus

    @property
    def digest_ops(self) -> int:
        return len(self.corpus)

    def ops(self) -> Iterator[Op]:
        for _ in itertools.count():
            for i, (inst, path) in enumerate(self.corpus):
                yield Op(f"succmin {spec_key(inst.spec)}",
                         lambda p=path: _succmin(p), i)

    def render(self, record: Record) -> str:
        return _error_line(record) + "\n" if record.error else record.result[1]

    def check(self, records: Sequence[Record]) -> dict[int, str]:
        """Exit code 0; each witness's gauge equals its minimum; minima are
        non-decreasing; the witnesses are linearly independent."""
        bad = {}
        for r in records:
            try:
                fault = self._fault(r)
            except (ValueError, KeyError, TypeError) as exc:
                fault = f"unreadable output: {type(exc).__name__}: {exc}"
            if fault:
                bad[r.index] = fault
        return bad

    def _fault(self, record: Record) -> str | None:
        code, text = record.result
        if code != 0:
            return f"exit code {code}"
        inst = self.corpus[record.info][0]
        doc = json.loads(text)
        minima = [cli.gauge_from_json(g, "minima") for g in doc["minima"]]
        wits = doc["witnesses"]
        if len(minima) != inst.spec.dim or len(wits) != inst.spec.dim:
            return "wrong number of minima"
        if any(b < a for a, b in zip(minima, minima[1:])):
            return "minima decrease"
        if any(inst.body.gauge(inst.lattice.point(w)) != lam
               for w, lam in zip(wits, minima)):
            return "witness gauge differs from its minimum"
        if Matrix.from_columns(wits).det() == 0:
            return "witnesses are dependent"
        return None

    def digest(self, records: Sequence[Record]) -> str:
        return _sha256("".join(self.render(r) for r in records))


WORKLOADS = {w.name: w for w in (FuzzD234, CountDilate, SuccminEll56)}
