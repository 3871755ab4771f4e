"""Span tracing of sqzcavity's public functions, from outside the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, at every module attribute through which a caller reaches it (for
example ``sqzcavity.optimize.measured_sensitivity``, the name that
``optimize_gain_numeric`` looks up).  A call records one span:
``[name, start, end, parent_id, attrs]``.  Spans stay in memory; the caller
writes them out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

# span name -> (modules whose attribute is replaced, attribute name).  Every
# binding must exist: a traced run aborts when one does not, so a layer that a
# change renames or removes cannot silently read as zero; such a change edits
# this table.
BINDINGS = {
    "cli.load_config": (("sqzcavity.cli",), "load_config"),
    "cli.OutputWriter.flush": (("sqzcavity.cli",), "OutputWriter.flush"),
    "decoherence.measured_sensitivity": (
        ("sqzcavity.cli", "sqzcavity.optimize"), "measured_sensitivity"),
    "decoherence.measured_noise_with_jitter": (
        ("sqzcavity.cli", "sqzcavity.decoherence", "sqzcavity.calibrate"),
        "measured_noise_with_jitter"),
    "decoherence.measured_anti_noise_with_jitter": (
        ("sqzcavity.calibrate",), "measured_anti_noise_with_jitter"),
    "sensor.quadrature_noise_spectrum": (
        ("sqzcavity.cli", "sqzcavity.decoherence", "sqzcavity.oracle"),
        "quadrature_noise_spectrum"),
    "sensor.signal_transfer_power": (
        ("sqzcavity.cli", "sqzcavity.decoherence", "sqzcavity.oracle"),
        "signal_transfer_power"),
    "optimize.optimize_gain_numeric": (("sqzcavity.cli",), "optimize_gain_numeric"),
    "optimize.snr_gain_db": (("sqzcavity.cli",), "snr_gain_db"),
    "calibrate.fit_parameters": (
        ("sqzcavity.cli", "sqzcavity.calibrate"), "fit_parameters"),
    "calibrate.forward_variances": (
        ("sqzcavity.cli", "sqzcavity.calibrate"), "forward_variances"),
    "scipy.least_squares": (("sqzcavity.calibrate",), "least_squares"),
    "oracle.run_sde": (("sqzcavity.oracle",), "run_sde"),
    "scipy.lfilter": (("sqzcavity.oracle",), "lfilter"),
    "oracle.compare_analytic": (("sqzcavity.oracle",), "compare_analytic"),
    "oracle.random_compare_grid": (("sqzcavity.cli",), "random_compare_grid"),
}


def _flush_attrs(args, kwargs, result):
    return {"files": len(result)}


def _fit_attrs(args, kwargs, result):
    return {"n_starts_converged": result.n_starts_converged}


def _sde_attrs(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"n_trajectories": spec.n_trajectories,
            "steps": spec.steps_per_trajectory,
            "segment_length": spec.segment_length,
            "n_segments": result.n_segments}


# span name -> function(args, kwargs, result) -> dict kept with the span
ATTRS = {
    "cli.OutputWriter.flush": _flush_attrs,
    "calibrate.fit_parameters": _fit_attrs,
    "oracle.run_sde": _sde_attrs,
}


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a dotted attribute of a module;
    LookupError when the module or attribute does not exist."""
    try:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"traced binding {module_name}.{attr} does not "
                          f"exist ({exc}); update BINDINGS in tracing.py") from exc
    return owner, leaf


class Tracer:
    """Collects spans while installed; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding in BINDINGS; restore them on exit."""
        saved = []
        try:
            for name, (modules, attr) in BINDINGS.items():
                for module_name in modules:
                    owner, leaf = _resolve(module_name, attr)
                    original = getattr(owner, leaf)
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def write_span_sets(path: Path, span_sets: list[list[list]]):
    """Write span lists (one per process) as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                   "span_sets": span_sets}, fh)


def load_span_sets(path: Path) -> list[list[list]]:
    with open(path) as fh:
        return json.load(fh)["span_sets"]


def _ancestor(spans: list[list], i: int, name: str) -> int:
    """Index of the nearest enclosing span called name, or -1."""
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def summarize(span_sets: list[list[list]]) -> dict:
    """Per-name calls and self time plus the derived counts, summed over
    independent span lists (one per process)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts = {"flush_files": 0, "solves": 0, "evals_in_solves": 0,
              "fits": 0, "residual_evals_in_fits": 0, "starts": 0,
              "starts_converged": 0, "sde_samples": 0, "sde_segments": 0,
              "sde_computed_bytes": 0}
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if name == "decoherence.measured_sensitivity":
                if _ancestor(spans, i, "optimize.optimize_gain_numeric") >= 0:
                    counts["evals_in_solves"] += 1
            elif name == "optimize.optimize_gain_numeric":
                counts["solves"] += 1
            elif name == "calibrate.forward_variances":
                if _ancestor(spans, i, "calibrate.fit_parameters") >= 0:
                    counts["residual_evals_in_fits"] += 1
            elif name == "scipy.least_squares":
                counts["starts"] += 1
            elif name == "calibrate.fit_parameters":
                counts["fits"] += 1
                counts["starts_converged"] += attrs["n_starts_converged"]
            elif name == "cli.OutputWriter.flush":
                counts["flush_files"] += attrs["files"]
            elif name == "oracle.run_sde":
                sde = _sde_counts(**attrs)
                counts["sde_samples"] += sde["samples"]
                counts["sde_segments"] += attrs["n_segments"]
                counts["sde_computed_bytes"] += sde["computed_bytes"]
    return {"calls": calls, "self_s": self_s, "counts": counts}


def _sde_counts(n_trajectories: int, steps: int, segment_length: int,
               n_segments: int) -> dict:
    """Work of one run_sde call, computed from array sizes (not measured).

    samples: trajectories x steps x 2 quadratures.
    computed_bytes: float64 arrays the kernel materialises per quadrature
    step (3 noise draws, filter output, detected output) plus the windowed
    segments (float64) and their rfft (complex128).
    """
    samples = n_trajectories * steps * 2
    bins = segment_length // 2 + 1
    # SdeResult.n_segments counts the squeezed quadrature's segments; the
    # anti-squeezed quadrature has as many
    seg_values = 2 * n_segments * segment_length
    fft_values = 2 * n_segments * bins
    return {"samples": samples,
            "computed_bytes": 8 * 5 * samples + 8 * seg_values + 16 * fft_values}
