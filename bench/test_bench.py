"""Checks of the benchmark itself, on small corpora.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import dataclasses
import io
import itertools
import json

import checkout

checkout.add_sources()

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latmin import cli, harness  # noqa: E402

SMALL = {
    "fuzz-d234": lambda: workloads.FuzzD234(block=9),
    "count-dilate": lambda: workloads.CountDilate(per_cell=1),
    "succmin-ell56": lambda: workloads.SuccminEll56(per_cell=2),
}


def _digest_records(workload):
    return run.run_ops(run._digest_ops(workload))


def test_fuzz_csv_matches_cli_bytes(tmp_path):
    workload = workloads.FuzzD234(block=12)
    workload.prepare(7, tmp_path)
    stdout, stderr = workload.outputs(_digest_records(workload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fuzz", "--seed", "7", "--count", "12",
                         "--dim", "2,3,4", "--range", "5"])
    assert code == 0
    assert stdout == out.getvalue()
    assert stderr == err.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_the_untraced_digest(name, tmp_path):
    workload = SMALL[name]()
    workload.prepare(3, tmp_path)
    plain = _digest_records(workload)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_ops(run._digest_ops(workload), tracer=tracer)
    assert harness.verify.__module__ == "latmin.harness"
    assert not hasattr(harness.verify, "__wrapped__")
    assert all(r.error is None for r in plain + traced)
    assert run.grade(workload, traced) == {}
    assert workload.digest(traced) == workload.digest(plain)
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) == {m for m, _, _ in tracing.PER_LAYER} - {
        "trace_overhead"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_an_operation_that_raises_is_counted(name, tmp_path):
    workload = SMALL[name]()
    workload.prepare(3, tmp_path)
    plain = _digest_records(workload)

    def broken():
        raise AssertionError("canonical chain check failed")

    ops = list(run._digest_ops(workload))
    for i in (1, len(ops) - 1):
        ops[i] = dataclasses.replace(ops[i], run=broken)
    records = run.run_ops(ops)
    reason = "AssertionError: canonical chain check failed"
    assert run.grade(workload, records) == {1: reason, len(ops) - 1: reason}
    assert workload.digest(records) != workload.digest(plain)


def test_repeated_passes_are_graded_against_the_first(tmp_path):
    workload = SMALL["succmin-ell56"]()
    workload.prepare(3, tmp_path)
    n = workload.digest_ops
    records = run.run_ops(itertools.islice(workload.ops(), n + 2))
    assert run.grade(workload, records) == {}
    records[n].result = (0, records[n + 1].result[1])
    assert set(run.grade(workload, records)) == {n}


def test_gates_reject_wrong_outputs(tmp_path):
    count = SMALL["count-dilate"]()
    count.prepare(3, tmp_path)
    records = _digest_records(count)
    low_dim = next(r for r in records
                   if count.corpus[r.info[0]].spec.dim == 2)
    low_dim.result += 1
    assert low_dim.index in count.check(records)

    succ = SMALL["succmin-ell56"]()
    succ.prepare(3, tmp_path / "docs")
    records = _digest_records(succ)
    doc = json.loads(records[0].result[1])
    doc["minima"] = list(reversed(doc["minima"]))
    records[0].result = (0, json.dumps(doc))
    records[1].result = (0, "minima: 1, 2")
    assert set(succ.check(records)) == {0, 1}


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(tracing.PER_LAYER)
