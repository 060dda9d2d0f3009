"""Spans around the calls into latmin's layers, recorded from outside it.

While ``Tracer.installed`` is active, the public functions named in
``SITES`` are replaced, at the module attributes through which the library
calls them (and as three methods on the body classes plus
``Matrix.inverse``), with wrappers that record a span; on exit the
originals are put back.  Nothing under ``src/``
changes.  ``gauges`` and ``lattices`` are too fine-grained to time from
outside, so their cost lands in their callers' self time.

A span is ``[name, parent, start, end, attr]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``attr`` whatever the site's hook
extracted from the call.  Spans stay in memory until the run writes them
out.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable


def _count_attr(args, kwargs, result):
    """(points counted, whether the square-root cover walk ran)."""
    body = args[0]
    mu = args[2] if len(args) > 2 else kwargs["mu"]
    cover = getattr(mu, "is_sqrt", False) and body.kind != "ellipsoid"
    return [result, cover]


def _verify_cell(args, kwargs, result):
    body = args[0]
    return f"{body.kind}.d{body.dim}"


def _search_hit(args, kwargs, result):
    return result is not None


# (module, attribute, span name, attribute hook)
SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("latmin.harness", "generate", "harness.generate", None),
    ("latmin.harness", "verify", "harness.verify", _verify_cell),
    ("latmin.harness", "oracle_campaign", "harness.oracle_campaign", None),
    ("latmin.harness", "canonicalize", "minima.canonicalize", None),
    ("latmin.harness", "successive_minima", "minima.successive_minima", None),
    ("latmin.harness", "count_points", "enumeration.count_points",
     _count_attr),
    ("latmin.harness", "kernel_check", "bounds.kernel_check", None),
    ("latmin.harness", "lemma_bound", "bounds.lemma_bound", None),
    ("latmin.minima", "successive_minima", "minima.successive_minima", None),
    ("latmin.minima", "min_key_point_outside",
     "enumeration.min_key_point_outside", _search_hit),
    ("latmin.minima", "align_witnesses", "matrices.align_witnesses", None),
    ("latmin.bounds", "count_points", "enumeration.count_points",
     _count_attr),
    ("latmin.enumeration", "count_points", "enumeration.count_points",
     _count_attr),
    ("latmin.cli", "main", "cli.main", None),
    ("latmin.cli", "load_instance", "cli.load_instance", None),
    ("latmin.cli", "successive_minima", "minima.successive_minima", None),
    ("latmin.bodies", "Box.preimage", "bodies.preimage", None),
    ("latmin.bodies", "HPolytope.preimage", "bodies.preimage", None),
    ("latmin.bodies", "Ellipsoid.preimage", "bodies.preimage", None),
    ("latmin.matrices", "Matrix.inverse", "matrices.Matrix.inverse", None),
)

VERIFY_CELLS = tuple(f"{kind}.d{dim}" for kind in
                     ("box", "hpolytope", "ellipsoid") for dim in (2, 3, 4))

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("enumeration.min_key_point_outside.calls", "count", "lower"),
    ("enumeration.min_key_point_outside.self_s", "s", "lower"),
    ("enumeration.search_hit_ratio", "ratio", "higher"),
    ("minima.successive_minima.calls", "count", "lower"),
    ("minima.successive_minima.self_s", "s", "lower"),
    ("minima.canonicalize.self_s", "s", "lower"),
    ("minima.recheck_s", "s", "lower"),
    ("enumeration.count_points.calls", "count", "lower"),
    ("enumeration.count_points.self_s", "s", "lower"),
    ("enumeration.points_counted", "count", "lower"),
    ("enumeration.count_points.sqrt_cover_s", "s", "lower"),
    ("bounds.kernel_check.self_s", "s", "lower"),
    ("bounds.lemma_bound.self_s", "s", "lower"),
    ("bounds.count_points.calls", "count", "lower"),
    ("bodies.preimage.calls", "count", "lower"),
    ("bodies.preimage.self_s", "s", "lower"),
    ("matrices.align_witnesses.self_s", "s", "lower"),
    ("matrices.Matrix.inverse.calls", "count", "lower"),
    ("matrices.Matrix.inverse.self_s", "s", "lower"),
    ("harness.generate.self_s", "s", "lower"),
    ("harness.oracle_campaign.self_s", "s", "lower"),
    ("harness.verify.self_s", "s", "lower"),
) + tuple((f"harness.verify.{cell}_s", "s", "lower")
          for cell in VERIFY_CELLS) + (
    ("cli.load_instance.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def _open(self, name: str, attr: Any = None) -> list[Any]:
        span = [name, self._stack[-1] if self._stack else -1, perf_counter(),
                0.0, attr]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list[Any]) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[4] = hook(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site of ``SITES`` while the block runs."""
        saved = []
        try:
            for module_name, attr, name, hook in SITES:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, attr: Any = None):
        """A span opened by the benchmark itself, e.g. one per operation."""
        span = self._open(name, attr)
        try:
            yield
        finally:
            self._close(span)


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer metrics (all of ``PER_LAYER`` but ``trace_overhead``).

    Self time is a span's duration minus the durations of its direct
    children.  ``minima.recheck_s`` is the full duration of the second
    ``successive_minima`` call inside each ``canonicalize``.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    cells = dict.fromkeys(VERIFY_CELLS, 0.0)
    hits = points = bound_counts = 0
    cover_s = recheck_s = 0.0
    minima_seen: dict[int, int] = {}
    for i, (name, parent, start, end, attr) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "enumeration.min_key_point_outside":
            hits += attr
        elif name == "enumeration.count_points":
            points += attr[0]
            if attr[1]:
                cover_s += dur
            if parent_name in ("bounds.kernel_check", "bounds.lemma_bound"):
                bound_counts += 1
        elif name == "harness.verify" and attr in cells:
            cells[attr] += dur
        elif (name == "minima.successive_minima"
              and parent_name == "minima.canonicalize"):
            minima_seen[parent] = minima_seen.get(parent, 0) + 1
            if minima_seen[parent] == 2:
                recheck_s += dur
    searches = calls.get("enumeration.min_key_point_outside", 0)
    out = {
        "enumeration.search_hit_ratio": hits / searches if searches else 0.0,
        "minima.recheck_s": recheck_s,
        "enumeration.points_counted": points,
        "enumeration.count_points.sqrt_cover_s": cover_s,
        "bounds.count_points.calls": bound_counts,
    }
    for cell, total in cells.items():
        out[f"harness.verify.{cell}_s"] = total
    for metric, _, _ in PER_LAYER:
        if metric in out or metric == "trace_overhead":
            continue
        layer, kind = metric.rsplit(".", 1)
        out[metric] = calls.get(layer, 0) if kind == "calls" \
            else self_s.get(layer, 0.0)
    return out
