"""Spans recorder for the traced run.

Wraps the public functions of each ``fliess`` module at the names their
callers look them up, records one span per call (name, start, end,
parent, run id) in memory, and derives the per-layer metrics from the
spans and from counts taken at the same boundaries.  Only the traced
run imports this module; the timing runs load no wrappers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter


def _terms(s):
    """Term count of a scalar, vector or matrix series."""
    if hasattr(s, "terms_dict"):
        return len(s.terms_dict())
    if hasattr(s, "entries"):
        return sum(len(e.terms_dict()) for row in s.entries for e in row)
    return sum(len(c.terms_dict()) for c in s)


def _count_group_inverse(counts, args, kwargs, result, before, duration):
    counts["composition.group_inverse_terms"] += _terms(result)
    counts["composition.group_inverse_drift_terms"] += sum(
        1 for comp in result for w in comp.terms_dict() if not any(w)
    )


def _count_shuffle_inverse(counts, args, kwargs, result, before, duration):
    counts["series.shuffle_inverse_terms"] += _terms(result)


def _count_shuffle_terms(counts, args, kwargs, result, before, duration):
    counts["kernels.shuffle_terms_out_terms"] += len(result)


def _table_cache_size():
    return len(getattr(importlib.import_module("fliess.realization"), "_TABLE_CACHE", ()))


def _count_generating_series(counts, args, kwargs, result, before, duration):
    counts["realization.series_terms"] += _terms(result)
    if _table_cache_size() > before:
        counts["realization.table_build_s"] += duration


def _count_rk4(counts, args, kwargs, result, before, duration):
    counts["realization.rk4_steps"] += args[3] if len(args) > 3 else kwargs["steps"]


def _count_rrt(counts, args, kwargs, result, before, duration):
    counts["planner.rrt_nodes"] += len(result.nodes)


def _count_artifacts(counts, args, kwargs, result, before, duration):
    outdir = args[2] if len(args) > 2 else kwargs["outdir"]
    counts["pipeline.artifact_bytes"] += sum(
        os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir)
    )


# (module, attribute, span name, counter, snapshot taken before the call)
TARGETS = (
    ("fliess", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("fliess", "run_section", "pipeline.run_section", None, None),
    ("fliess.pipeline", "run_section", "pipeline.run_section", None, None),
    ("fliess.pipeline", "write_artifacts", "pipeline.write_artifacts", _count_artifacts, None),
    ("fliess.pipeline", "rrt_plan", "planner.rrt_plan", _count_rrt, None),
    ("fliess.pipeline", "smooth_path", "planner.smooth_path", None, None),
    ("fliess.pipeline", "fit_spline", "planner.fit_spline", None, None),
    ("fliess.pipeline", "left_invert", "inversion.left_invert", None, None),
    ("fliess.pipeline", "tracking_error_series", "inversion.tracking_error_series", None, None),
    ("fliess.pipeline", "generating_series", "realization.generating_series",
     _count_generating_series, _table_cache_size),
    ("fliess.pipeline", "rk4_simulate", "realization.rk4_simulate", _count_rk4, None),
    ("fliess.inversion", "group_inverse", "composition.group_inverse", _count_group_inverse, None),
    ("fliess.inversion", "compose", "composition.compose", None, None),
    ("fliess.inversion", "shuffle", "series.shuffle", None, None),
    ("fliess.inversion", "shuffle_inverse", "series.shuffle_inverse", _count_shuffle_inverse, None),
    ("fliess.composition", "group_inverse", "composition.group_inverse", _count_group_inverse, None),
    ("fliess.composition", "compose", "composition.compose", None, None),
    ("fliess.series", "shuffle", "series.shuffle", None, None),
    ("fliess._kernels", "shuffle_terms", "kernels.shuffle_terms", _count_shuffle_terms, None),
)

# span name -> per-layer metric holding the time of its outermost spans
TIMED = {
    "composition.group_inverse": "composition.group_inverse_s",
    "composition.compose": "composition.compose_s",
    "series.shuffle_inverse": "series.shuffle_inverse_s",
    "series.shuffle": "series.shuffle_s",
    "kernels.shuffle_terms": "kernels.shuffle_terms_s",
    "inversion.left_invert": "inversion.left_invert_s",
    "inversion.tracking_error_series": "inversion.tracking_error_series_s",
    "realization.generating_series": "realization.generating_series_s",
    "realization.rk4_simulate": "realization.rk4_simulate_s",
    "planner.rrt_plan": "planner.rrt_plan_s",
    "planner.smooth_path": "planner.smooth_path_s",
    "planner.fit_spline": "planner.fit_spline_s",
    "pipeline.write_artifacts": "pipeline.write_artifacts_s",
}

# span name -> per-layer metric counting its calls
CALLS = {
    "series.shuffle": "series.shuffle_calls",
    "kernels.shuffle_terms": "kernels.shuffle_terms_calls",
    "inversion.left_invert": "inversion.left_invert_calls",
}


class SpanRecorder:
    """In-memory spans; a span is [name, start, end, parent index, nested]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._active = defaultdict(int)
        self._patched = []

    def wrap(self, fn, name, counter=None, snapshot=None):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = snapshot() if snapshot is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result, before, span[2] - span[1])
            return result

        return traced

    def install(self):
        """Patch every target that exists; names that do not are listed in ``missing``."""
        for module_name, attr, name, counter, snapshot in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter, snapshot))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


def _gauge(module_name, attr):
    """Size of a module-level cache, or 0 once a later version removes it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return 0
    value = getattr(module, attr, None)
    if value is None:
        return 0
    return value() if callable(value) else len(value)


def layer_metrics(rec):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    out = {metric: 0.0 for metric in TIMED.values()}
    calls = {metric: 0 for metric in CALLS.values()}
    for name, start, end, parent, nested in rec.spans:
        if name in TIMED and not nested:
            out[TIMED[name]] += end - start
        if name in CALLS:
            calls[CALLS[name]] += 1
    run_section_self = sum(
        t for (name, *_), t in zip(rec.spans, rec.self_times()) if name == "pipeline.run_section"
    )
    c = rec.counts
    gi_terms = c["composition.group_inverse_terms"]
    metrics = {m: (v, "s") for m, v in out.items()}
    metrics.update({m: (v, "count") for m, v in calls.items()})
    metrics.update(
        {
            "composition.group_inverse_terms": (int(gi_terms), "count"),
            "composition.group_inverse_useful_ratio": (
                c["composition.group_inverse_drift_terms"] / gi_terms if gi_terms else 0.0,
                "ratio",
            ),
            "series.shuffle_inverse_terms": (int(c["series.shuffle_inverse_terms"]), "count"),
            "kernels.shuffle_terms_out_terms": (int(c["kernels.shuffle_terms_out_terms"]), "count"),
            "kernels.pair_cache_entries": (_gauge("fliess._kernels", "cache_size"), "count"),
            "realization.table_build_s": (c["realization.table_build_s"], "s"),
            "realization.series_terms": (int(c["realization.series_terms"]), "count"),
            "realization.rk4_steps": (int(c["realization.rk4_steps"]), "count"),
            "realization.table_cache_entries": (_gauge("fliess.realization", "_TABLE_CACHE"), "count"),
            "symexpr.nodes": (_gauge("fliess.symexpr", "_TABLE"), "count"),
            "symexpr.diff_cache_entries": (_gauge("fliess.symexpr", "_DIFF_CACHE"), "count"),
            "planner.rrt_nodes": (int(c["planner.rrt_nodes"]), "count"),
            "pipeline.run_section_s": (run_section_self, "s"),
            "pipeline.artifact_bytes": (int(c["pipeline.artifact_bytes"]), "bytes"),
        }
    )
    return metrics
