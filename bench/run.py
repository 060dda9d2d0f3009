"""latmin benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fuzz-d234 --seed 42 --seconds 30 --trace 0

With ``--trace 0`` the run times the workload's set-up in fresh
interpreters, then runs its operations in a closed loop (one thread, the
next operation starts when the previous one returns) for ``--seconds``,
and prints the end-to-end metrics.  With ``--trace 1`` it runs the
workload's digest corpus once with the tracer installed and once without,
in alternating stretches, and prints the per-layer metrics and the
tracing overhead.

Either way every output is checked outside the timed phase, the leading
``digest_ops`` outputs are hashed and, at the default seed, compared with
the pinned digest in ``expected.json``.  The last line of stdout is the
result object; the line before it is a record of the run (machine, commit,
seed, digest, failures, the ten slowest operations), which is also written
to ``.bench_out/`` in the checkout together with the trace spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checkout
from tracing import PER_LAYER, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
OUT = checkout.ROOT / ".bench_out"
WORK = checkout.ROOT / ".bench_work"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
TRACE_CHUNK = 25  # operations per traced or untraced stretch

# End-to-end metrics in report order: (name, unit).
END_TO_END = (
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p98_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of ``SETUP_RUNS`` fresh-interpreter set-ups: start-up,
    importing latmin, input generation and document writing.

    The wait blocks, with a watchdog thread for the time limit, because
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms and would
    round the measured time up to its next poll.
    """
    times = []
    for i in range(SETUP_RUNS):
        start = perf_counter()
        child = subprocess.Popen([sys.executable, str(BENCH / "prepare.py"),
                                  name, str(seed), str(workdir / f"setup-{i}")],
                                 cwd=checkout.ROOT, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(perf_counter() - start)
        if code:
            raise subprocess.CalledProcessError(code, child.args)
    return times


def run_ops(ops, deadline: float | None = None, tracer=None,
            first_index: int = 0) -> list:
    """Run operations one after another until ``ops`` ends or, when
    ``deadline`` is given, until an operation would start after it."""
    from workloads import Record  # importable once the sources are on the path
    records = []
    ops = iter(ops)
    for index in itertools.count(first_index):
        if deadline is not None and perf_counter() >= deadline:
            break
        op = next(ops, None)
        if op is None:
            break
        start = perf_counter()
        result, error = None, None
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("bench.op", index):
                    result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        records.append(Record(index, op.key, op.info, perf_counter() - start,
                              result, error))
    return records


def grade(workload, records: list) -> dict[int, str]:
    """Failure reason per failed operation: an exception, a failed check,
    or, for a corpus run pass after pass, an output that differs from the
    first pass."""
    bad = {r.index: r.error for r in records if r.error}
    ok = [r for r in records if not r.error]
    n = workload.digest_ops
    if not workload.cycles:
        bad.update(workload.check(ok))
        return bad
    first = {r.index: workload.render(r) for r in ok if r.index < n}
    bad.update(workload.check([r for r in ok if r.index < n]))
    for r in ok:
        if r.index >= n and first.get(r.index % n) != workload.render(r):
            bad[r.index] = "output differs from the first pass"
    return bad


def expected_digest(name: str, seed: int) -> str | None:
    pinned = json.loads((BENCH / "expected.json").read_text())
    entry = pinned.get(name)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


def slowest(records: list, n: int = 10) -> list[dict]:
    top = sorted(records, key=lambda r: r.seconds, reverse=True)[:n]
    return [{"ms": round(r.seconds * 1e3, 3), "op": r.key} for r in top]


def timed_run(workload, args, workdir: Path) -> tuple[dict, dict]:
    setups = time_setup(workload.name, args.seed, workdir)
    workload.prepare(args.seed, workdir / "main")
    n = workload.digest_ops
    ops = workload.ops()
    start = perf_counter()
    deadline = start + args.seconds
    timed = run_ops(itertools.islice(ops, n), deadline)
    if len(timed) == n:
        # Peak memory is read once the digest corpus is done, so that it
        # does not grow with the number of operations a fast machine runs.
        rss_mb = peak_rss_mb()
        timed += run_ops(ops, deadline, first_index=n)
        wall = perf_counter() - start
        rest = []
    else:
        wall = perf_counter() - start
        # Operations the timed phase did not reach but the digest covers.
        rest = run_ops(itertools.islice(ops, n - len(timed)),
                       first_index=len(timed))
        rss_mb = peak_rss_mb()
    records = timed + rest
    bad = grade(workload, records)
    digest = workload.digest(records[:n])
    latencies = sorted(r.seconds * 1e3 for r in timed)
    failed = len(bad)
    expected = expected_digest(workload.name, args.seed)
    if expected is not None and digest != expected:
        failed += 1
    attempted = len(records)
    metrics = {
        "throughput_ops": len(timed) / wall,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p98_ms": percentile(latencies, 98),
        "success_ratio": 1 - failed / attempted,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    info = {
        "timed_ops": len(timed), "timed_wall_s": wall,
        "untimed_digest_ops": len(rest), "setup_runs_s": setups,
        "max_ms": latencies[-1], "slowest": slowest(timed),
        "digest": digest, "expected_digest": expected,
        "gate": workload.gate_notes,
    }
    return _result(bad, records, failed, attempted, metrics, END_TO_END), info


def traced_run(workload, args, workdir: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.prepare"):
        workload.prepare(args.seed, workdir / "main")
    n = workload.digest_ops
    streams = (_digest_ops(workload), _digest_ops(workload))
    records: tuple[list, list] = ([], [])
    walls = [0.0, 0.0]
    # Traced (side 0) and untraced (side 1) stretches of the same operations
    # alternate, and so does which side goes first, so that the machine's
    # drift falls on both alike and trace_overhead measures the tracer.
    for k, first in enumerate(range(0, n, TRACE_CHUNK)):
        size = min(TRACE_CHUNK, n - first)
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            ops = itertools.islice(streams[side], size)
            start = perf_counter()
            if side == 0:
                with tracer.installed():
                    chunk = run_ops(ops, tracer=tracer, first_index=first)
            else:
                chunk = run_ops(ops, first_index=first)
            walls[side] += perf_counter() - start
            records[side].extend(chunk)
    traced, plain = records
    traced_wall, plain_wall = walls
    bad = grade(workload, traced)
    digest = workload.digest(traced)
    plain_digest = workload.digest(plain)
    expected = expected_digest(workload.name, args.seed)
    failed = len(bad) + (digest != plain_digest)
    if expected is not None and digest != expected:
        failed += 1
    metrics = layer_metrics(tracer.spans)
    metrics["trace_overhead"] = traced_wall / plain_wall
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.spans, separators=(",", ":")))
    info = {
        "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
        "spans": len(tracer.spans), "spans_file": str(spans_path),
        "slowest": slowest(plain), "digest": digest,
        "untraced_digest": plain_digest, "expected_digest": expected,
        "gate": workload.gate_notes,
    }
    units = [(name, unit) for name, unit, _ in PER_LAYER]
    return _result(bad, traced, failed, len(traced), metrics, units), info


def _digest_ops(workload):
    """The operations the digest covers, built afresh on every call."""
    return itertools.islice(workload.ops(), workload.digest_ops)


def _result(bad, records, failed, attempted, metrics, units) -> dict:
    """The result object; ``failed`` counts failed operations plus digest
    mismatches, so the result is correct exactly when it is 0."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
        "failures": [f"op {i} {next(r.key for r in records if r.index == i)}"
                     f": {reason}" for i, reason in sorted(bad.items())[:20]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.add_sources()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        result, info = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = result.pop("failures")
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": checkout.commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), **info, "failures": failures,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
