"""Outside-in layer trace for the benchmark.

The tracer replaces public functions of ``pairrank`` modules with
wrappers, through module attributes only: the harness calls ``rank.*``,
``sample.*`` and ``metrics.*`` by attribute, and ``spectral_baseline``
looks up its stages as ``rank`` module globals, so a patched attribute
sees every call.  Each call becomes one span (name, parent span, start,
end, error flag) kept in memory; the spans are summarised, and may be
written out, when the traced run ends.  Nothing inside ``src/`` is
changed.

A target that is missing, or never called because a refactor moved it,
is reported as absent rather than as a zero-time layer.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

# wrapped public functions, as ``<module>.<function>``, with the stats
# reported for each as ``<module>.<function>.<stat>``
_ALL = ("calls", "self_s", "p50_ms", "tail_ms", "errors")
_NO_ERRORS = ("calls", "self_s", "p50_ms", "tail_ms")
_BASIC = ("calls", "self_s")
LAYER_STATS = {
    "rank.spectral_baseline": _ALL,
    "rank.rank_centrality": _ALL,
    "rank.mle_refine": _ALL,
    "rank.copeland_topk": _ALL,
    "sample.draw_observations": _NO_ERRORS,
    "sample.subsample": _NO_ERRORS,
    "sample.read_comparisons_csv": _BASIC,
    "harness.run_realdata": _BASIC,
    "setfamily.parse_family_spec": _BASIC,
    "metrics.ground_truth": _BASIC,
    "metrics.exact_success": _NO_ERRORS,
    "metrics.hamming_success": _NO_ERRORS,
    "metrics.allowed_success": _NO_ERRORS,
    "model.instantiate": _BASIC,
    "analysis.separation_hamming": _BASIC,
    "analysis.required_repetitions": _BASIC,
    "harness.run_experiment": _BASIC,
    "harness.write_results_csv": _BASIC,
    "harness.write_realdata_csv": _BASIC,
    "cli.main": _BASIC,
}

# metrics derived from counts recorded at the layer boundaries
DERIVED = {
    "rank.estimate_ok_ratio": "ratio",
    "sample.comparisons_per_s": "1/s",
    "sample.obs_bytes_computed": "B",
    "sample.rows_read_per_s": "1/s",
    "harness.csv_bytes": "B",
    "trace.overhead_frac": "frac",
    "trace.absent_layers": "count",
}

_STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms", "errors": "count"}

# percentiles tried for ``tail_ms``, highest first
_TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
_TAIL_BEYOND = 10


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = _STAT_UNITS[stat]
    units.update(DERIVED)
    return units


def _count_observations(counters, args, kwargs, result) -> None:
    counters["comparisons"] += result.total_comparisons()
    counters["obs_bytes"] += result.comparisons.nbytes + result.wins.nbytes


def _count_rows(counters, args, kwargs, result) -> None:
    counters["rows_read"] += len(result)


def _count_csv_bytes(counters, args, kwargs, result) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counters["csv_bytes"] += os.path.getsize(path)


_COUNTERS = {
    "sample.draw_observations": _count_observations,
    "sample.subsample": _count_observations,
    "sample.read_comparisons_csv": _count_rows,
    "harness.write_results_csv": _count_csv_bytes,
    "harness.write_realdata_csv": _count_csv_bytes,
}


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int = 0
    # end of the wrapper's own bookkeeping; the parent's self time
    # excludes it, so counting at the boundary is trace overhead
    outer_end_ns: int = 0
    error: bool = False


@dataclass
class Tracer:
    """Wraps the targets while active and records one span per call.

    Use as a context manager; ``mark_unit()`` separates repetitions of a
    workload unit so per-unit statistics can be formed.
    """

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    unit_starts: list[int] = field(default_factory=list)
    unit_counters: list[dict[str, float]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _originals: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for layer in LAYER_STATS:
            module_name, name = layer.split(".")
            module = importlib.import_module(f"pairrank.{module_name}")
            original = getattr(module, name, None)
            if not callable(original):
                self.missing.append(layer)
                continue
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def mark_unit(self) -> None:
        """Start a new repetition of the workload unit."""
        self.unit_starts.append(len(self.spans))
        self.counters = {"comparisons": 0, "obs_bytes": 0, "rows_read": 0, "csv_bytes": 0}
        self.unit_counters.append(self.counters)

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0)
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                span.outer_end_ns = span.end_ns
            if count is not None:
                count(self.counters, args, kwargs, result)
                span.outer_end_ns = time.perf_counter_ns()
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "error": s.error,
                        }
                    )
                    + "\n"
                )


def _units(tracer: Tracer) -> list[list[Span]]:
    bounds = tracer.unit_starts + [len(tracer.spans)]
    return [tracer.spans[a:b] for a, b in zip(bounds, bounds[1:])]


def self_times_ns(spans: list[Span]) -> dict[str, int]:
    """Per-layer self time: span time minus the time of wrapped child spans."""
    child_ns = [0] * len(spans)
    offset = spans[0].span_id if spans else 0
    for s in spans:
        if s.parent >= offset:
            child_ns[s.parent - offset] += s.outer_end_ns - s.start_ns
    out: dict[str, int] = {}
    for s, inner in zip(spans, child_ns):
        out[s.name] = out.get(s.name, 0) + (s.end_ns - s.start_ns - inner)
    return out


def tail_percentile(n_calls: int) -> float:
    """Highest ladder percentile with at least ten calls beyond it (else 50)."""
    for pct in _TAIL_LADDER:
        if n_calls * (1.0 - pct / 100.0) >= _TAIL_BEYOND:
            return pct
    return 50.0


def _percentile(sorted_values: list[float], pct: float) -> float:
    # nearest-rank percentile
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def summarize(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (value, unit) plus a detail table per layer.

    ``calls``, ``errors`` and counters are per workload unit; ``self_s``
    is the median over the traced units; latency percentiles pool every
    traced call.  Absent layers keep zero values in the metrics and are
    named in the detail table and counted in ``trace.absent_layers``.
    """
    units = _units(tracer)
    n_units = len(units)
    if n_units == 0:
        raise ValueError("no traced units recorded")
    per_unit_self = [self_times_ns(u) for u in units]
    by_layer: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_layer.setdefault(s.name, []).append(s)

    metrics: dict[str, dict] = {}
    detail: dict[str, dict] = {}
    absent = []
    units_by_name = per_layer_metric_units()

    def put(name, value):
        metrics[name] = {"value": value, "unit": units_by_name[name]}

    for layer, stats in LAYER_STATS.items():
        calls = by_layer.get(layer, [])
        if not calls:
            reason = "missing" if layer in tracer.missing else "not called"
            absent.append(layer)
            detail[layer] = {"absent": reason}
            for stat in stats:
                put(f"{layer}.{stat}", 0)
            continue
        durations_ms = sorted((s.end_ns - s.start_ns) / 1e6 for s in calls)
        tail_pct = tail_percentile(len(durations_ms))
        values = {
            "calls": len(calls) / n_units,
            "self_s": statistics.median(u.get(layer, 0) for u in per_unit_self) / 1e9,
            "p50_ms": _percentile(durations_ms, 50.0),
            "tail_ms": _percentile(durations_ms, tail_pct),
            "errors": sum(s.error for s in calls) / n_units,
        }
        for stat in stats:
            put(f"{layer}.{stat}", values[stat])
        detail[layer] = dict(values, tail_pct=tail_pct, sampled_calls=len(calls))

    def total_ns(names):
        return sum(s.end_ns - s.start_ns for name in names for s in by_layer.get(name, []))

    def per_unit(key):
        return statistics.median(c[key] for c in tracer.unit_counters)

    estimates = by_layer.get("rank.spectral_baseline", []) + by_layer.get("rank.copeland_topk", [])
    put(
        "rank.estimate_ok_ratio",
        (sum(not s.error for s in estimates) / len(estimates)) if estimates else 0,
    )
    sampling = ("sample.draw_observations", "sample.subsample")
    sampling_ns = total_ns(sampling)
    total_comparisons = sum(c["comparisons"] for c in tracer.unit_counters)
    put("sample.comparisons_per_s", total_comparisons / (sampling_ns / 1e9) if sampling_ns else 0)
    put("sample.obs_bytes_computed", per_unit("obs_bytes"))
    read_ns = total_ns(("sample.read_comparisons_csv",))
    total_rows = sum(c["rows_read"] for c in tracer.unit_counters)
    put("sample.rows_read_per_s", total_rows / (read_ns / 1e9) if read_ns else 0)
    put("harness.csv_bytes", per_unit("csv_bytes"))
    put("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0)
    put("trace.absent_layers", len(absent))
    for name, empty in (
        ("rank.estimate_ok_ratio", not estimates),
        ("sample.comparisons_per_s", not sampling_ns),
        ("sample.rows_read_per_s", not read_ns),
    ):
        if empty:
            absent.append(name)
            detail[name] = {"absent": "not called"}
    detail["absent"] = absent
    return metrics, detail
