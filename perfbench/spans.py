"""Spans and work counters around the public functions of each fracbundle layer.

`install` replaces each function listed below with a wrapper that records a
span (name, start, end, parent span) in memory.  A function is replaced in
its defining module and wherever another fracbundle module imported it by
name; methods are replaced on their class.  `numpy.linalg.cholesky`, `solve`
and `lstsq` are counted only while a reconstruction span is open.  Only the
traced repetition calls `install`; untraced repetitions run the package as is.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

# (layer, module, attribute); the span is named "<layer>.<attribute>"
FUNCTIONS = [
    ("config", "config", "parse_config"),
    ("config", "config", "build_scene"),
    ("operator", "operator", "assemble"),
    ("modefun", "modefun", "wave_g"),
    ("modefun", "modefun", "wave_g1"),
    ("modefun", "modefun", "wave_g2"),
    ("propagators", "propagators", "duhamel_solve"),
    ("propagators", "propagators", "duhamel_weights"),
    ("propagators", "propagators", "mode_convolve"),
    ("propagators", "propagators", "heat_kernel_matrix"),
    ("propagators", "propagators", "fractional_apply"),
    ("propagators", "propagators", "fractional_inverse_spectral"),
    ("propagators", "propagators", "fractional_inverse_quadrature"),
    ("s2s", "s2s", "wave_map_assemble"),
    ("s2s", "s2s", "blago_bilinear"),
    ("s2s", "s2s", "frac_map_assemble"),
    ("timequad", "timequad", "interval_integrals"),
    ("timequad", "timequad", "prefix_integrals"),
    ("timequad", "timequad", "time_average_nodes"),
    ("timequad", "timequad", "time_average_linear"),
    ("timequad", "timequad", "pl_times_sampled_array"),
    ("timequad", "timequad", "quadratic_times_sampled_array"),
    ("reconstruction", "reconstruction", "family_responses"),
    ("reconstruction", "reconstruction", "family_gram"),
    ("reconstruction", "reconstruction", "recover_local_operator"),
    ("reconstruction", "reconstruction", "distance_family"),
    ("reconstruction", "reconstruction", "cut_time_estimate"),
    ("reconstruction", "reconstruction", "exterior_distance"),
    ("runner", "runner", "emit_report"),
]

# (layer, module, class, method)
METHODS = [
    ("s2s", "s2s", "WaveMapData", "respond"),
    ("reconstruction", "reconstruction", "ProbeEngine", "max_residual"),
    ("reconstruction", "reconstruction", "SourceFamily", "select"),
]

LAYERS = ("config", "operator", "modefun", "propagators", "s2s", "timequad",
          "reconstruction", "runner")

TASKS = ("verify_spectral", "verify_transmutation", "verify_blago",
         "verify_gauge_equivariance", "reconstruct_distances", "reconstruct_operator")

_TIMEQUAD = tuple(f"timequad.{attr}" for layer, _, attr in FUNCTIONS if layer == "timequad")
_MODEFUN = ("modefun.wave_g", "modefun.wave_g1", "modefun.wave_g2")
_FRACTIONAL = ("propagators.fractional_apply", "propagators.fractional_inverse_spectral",
               "propagators.fractional_inverse_quadrature")

# metric -> spans it sums; a span nested inside another span of the same
# metric is not counted again
TIMES = {
    "config.scene_s": ("config.parse_config", "config.build_scene"),
    "operator.assemble_s": ("operator.assemble",),
    "modefun.s": _MODEFUN,
    "propagators.duhamel_solve_s": ("propagators.duhamel_solve",),
    "propagators.duhamel_weights_s": ("propagators.duhamel_weights",),
    "propagators.mode_convolve_s": ("propagators.mode_convolve",),
    "propagators.heat_kernel_matrix_s": ("propagators.heat_kernel_matrix",),
    "propagators.fractional_s": _FRACTIONAL,
    "s2s.wave_map_assemble_s": ("s2s.wave_map_assemble",),
    "s2s.respond_s": ("s2s.respond",),
    "s2s.blago_bilinear_s": ("s2s.blago_bilinear",),
    "s2s.frac_map_assemble_s": ("s2s.frac_map_assemble",),
    "timequad.s": _TIMEQUAD,
    "reconstruction.family_responses_s": ("reconstruction.family_responses",),
    "reconstruction.family_gram_s": ("reconstruction.family_gram",),
    "reconstruction.recover_local_operator_s": ("reconstruction.recover_local_operator",),
    "reconstruction.distance_family_s": ("reconstruction.distance_family",),
    "reconstruction.cut_time_estimate_s": ("reconstruction.cut_time_estimate",),
    "reconstruction.exterior_distance_s": ("reconstruction.exterior_distance",),
    "reconstruction.max_residual_s": ("reconstruction.max_residual",),
    "reconstruction.select_s": ("reconstruction.select",),
    "runner.emit_report_s": ("runner.emit_report",),
}

CALLS = {
    "operator.assemble_calls": ("operator.assemble",),
    "modefun.calls": _MODEFUN,
    "propagators.duhamel_solve_calls": ("propagators.duhamel_solve",),
    "propagators.duhamel_weights_calls": ("propagators.duhamel_weights",),
    "s2s.wave_map_assemble_calls": ("s2s.wave_map_assemble",),
    "timequad.calls": _TIMEQUAD,
    "reconstruction.cut_time_estimate_calls": ("reconstruction.cut_time_estimate",),
    "reconstruction.exterior_distance_calls": ("reconstruction.exterior_distance",),
    "reconstruction.max_residual_calls": ("reconstruction.max_residual",),
    "reconstruction.select_calls": ("reconstruction.select",),
}

# counters the wrappers keep; *_bytes and factor_flops are computed from
# array shapes, not measured
COUNTERS = ("operator.eigh_dim", "s2s.wave_map_bytes", "reconstruction.probes",
            "reconstruction.responses_bytes", "reconstruction.fft_len",
            "reconstruction.lstsq_calls", "reconstruction.cholesky_calls",
            "reconstruction.solve_calls", "reconstruction.factor_flops",
            "reconstruction.profiles_recovered", "runner.report_bytes")

RATIOS = ("reconstruction.chol_reuse_ratio", "reconstruction.sweep_finite_ratio")

# measures of the reconstruct_distances task, 0 on workloads that skip it
ACCURACY = ("profile_match_fraction", "cut_time_rel")


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    if name in RATIOS or name.endswith("_frac") or name.endswith(ACCURACY):
        return "ratio"
    return "count"


def _better(name):
    higher = RATIOS + ("reconstruction.profiles_recovered",
                       "reconstruction.profile_match_fraction")
    return "higher" if name in higher else "lower"


def per_layer_names():
    """Every per-layer metric a traced run reports, in report order."""
    return (list(TIMES) + list(CALLS) + list(COUNTERS) + list(RATIOS)
            + [f"reconstruction.{m}" for m in ACCURACY]
            + [f"runner.task.{t}_s" for t in TASKS]
            + [f"{layer}.self_s" for layer in LAYERS]
            + ["trace.spans", "trace.overhead_frac"])


def per_layer_spec():
    """(name, unit, better) of every per-layer metric."""
    return [(n, _unit(n), _better(n)) for n in per_layer_names()]


class Tracer:
    """In-memory spans of one run plus the counters read from arguments and results."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent id]
        self.counts = Counter()
        self._stack = []
        self._reconstruction_depth = 0

    def wrap(self, name, fn, after=None):
        """fn, recording a span per call; after(counts, args, result) updates counters."""
        in_reconstruction = name.startswith("reconstruction.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._reconstruction_depth += in_reconstruction
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._reconstruction_depth -= in_reconstruction
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count_linalg(self, name, fn):
        """fn, counted (with its computed flops) while a reconstruction span is open."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._reconstruction_depth:
                self.counts[f"reconstruction.{name}_calls"] += 1
                n = args[0].shape[-1]
                if name == "cholesky":
                    self.counts["reconstruction.factor_flops"] += n**3 / 3
                elif name == "solve":
                    b = args[1]
                    k = b.shape[1] if b.ndim == 2 else 1
                    self.counts["reconstruction.factor_flops"] += n * n * k
            return fn(*args, **kwargs)

        return counted

    # aggregation --------------------------------------------------------
    def _outermost(self, names):
        """(summed duration, count) of spans in `names` not nested in another one."""
        total, count = 0.0, 0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
                count += 1
        return total, count

    def self_times(self):
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[k]
        return out

    def metrics(self, report_payload):
        """The per-layer metrics of this run, all but trace.overhead_frac."""
        out = {name: self._outermost(spans)[0] for name, spans in TIMES.items()}
        out.update({name: self._outermost(spans)[1] for name, spans in CALLS.items()})
        out.update({name: self.counts[name] for name in COUNTERS})
        residuals = out["reconstruction.max_residual_calls"]
        sweeps = out["reconstruction.exterior_distance_calls"]
        out["reconstruction.chol_reuse_ratio"] = (
            1.0 - self.counts["reconstruction.cholesky_calls"] / residuals if residuals else 0.0)
        out["reconstruction.sweep_finite_ratio"] = (
            self.counts["reconstruction.exterior_finite"] / sweeps if sweeps else 0.0)
        tasks = {t["name"]: t for t in report_payload["tasks"]}
        distances = tasks.get("reconstruct_distances", {}).get("measures", {})
        for m in ACCURACY:
            out[f"reconstruction.{m}"] = distances.get(m, 0.0)
        for t in TASKS:
            out[f"runner.task.{t}_s"] = tasks[t]["elapsed_s"] if t in tasks else 0.0
        out.update({f"{layer}.self_s": s for layer, s in self.self_times().items()})
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """All spans as JSON lines: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}))
                fh.write("\n")


# counters read from arguments and results ---------------------------------
def _assembled(counts, args, op):
    counts["operator.eigh_dim"] = max(counts["operator.eigh_dim"], op.dim)


def _wave_map(counts, args, wmap):
    n1, dim, _ = wmap.kernel.shape
    counts["s2s.wave_map_bytes"] += 3 * n1 * dim * dim * 16


def _responses(counts, args, responses):
    m, n1, dim = responses.shape
    fft_len = 1
    while fft_len < 2 * n1:
        fft_len *= 2
    counts["reconstruction.probes"] += m
    counts["reconstruction.responses_bytes"] += m * n1 * dim * 16
    counts["reconstruction.fft_len"] = max(counts["reconstruction.fft_len"], fft_len)


def _exterior(counts, args, distance):
    counts["reconstruction.exterior_finite"] += math.isfinite(distance)


def _profiles(counts, args, family):
    counts["reconstruction.profiles_recovered"] += len(family)


def _emitted(counts, args, paths):
    counts["runner.report_bytes"] += sum(os.path.getsize(p) for p in paths)


_AFTER = {
    "operator.assemble": _assembled,
    "s2s.wave_map_assemble": _wave_map,
    "reconstruction.family_responses": _responses,
    "reconstruction.exterior_distance": _exterior,
    "reconstruction.distance_family": _profiles,
    "runner.emit_report": _emitted,
}


def install(tracer):
    """Wrap every listed function and method of the imported fracbundle package."""
    import numpy

    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "fracbundle" or n.startswith("fracbundle."))]
    for layer, module, attr in FUNCTIONS:
        original = getattr(sys.modules[f"fracbundle.{module}"], attr)
        name = f"{layer}.{attr}"
        traced = tracer.wrap(name, original, _AFTER.get(name))
        for mod in package:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    for layer, module, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"fracbundle.{module}"], cls_name)
        setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", getattr(cls, attr)))
    for attr in ("cholesky", "solve", "lstsq"):
        setattr(numpy.linalg, attr, tracer.count_linalg(attr, getattr(numpy.linalg, attr)))
