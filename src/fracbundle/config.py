"""Experiment configuration: parsing, validation, scene construction."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bundle import build_bundle
from .errors import ConfigError, FracBundleError
from .manifold import Region, build_manifold, lattice

KNOWN_TASKS = (
    "verify_spectral",
    "verify_transmutation",
    "verify_blago",
    "verify_gauge_equivariance",
    "reconstruct_distances",
    "reconstruct_operator",
)

DEFAULT_TOLERANCES = {
    "fractional_round_trip": 1e-10,
    "gamma_route": 1e-6,
    "transmutation_gaussian": 1e-8,
    "blago": 1e-6,
    "gauge_blocks": 1e-11,
    "gauge_heat_kernel": 1e-10,
    "first_arrival_rel": 0.15,
    "cut_time_rel": 0.15,
    "profile_match_rel": 0.15,
    "profile_match_fraction": 0.90,
    "operator_cert": 1e-3,
    "gauge_pipeline_invariance": 1e-10,
    "energy_drift": 1e-9,
    "semigroup": 1e-10,
}

# options the tasks read as numbers, with the type each is read as; every
# value must be positive and finite
NUMERIC_OPTIONS = {
    "probe_delta": float,
    "probe_lead_step": float,
    "probe_width": float,
    "eta": float,
    "blago_pairs": int,
    "round_trip_sections": int,
}

# largest working set a config may ask for, in bytes; parse_config rejects a
# config whose working-set estimate exceeds it (see _check_working_set)
WORKING_SET_BUDGET = 4 << 30

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    manifold: dict
    bundle: dict
    region: dict
    orders: tuple
    horizon: float
    steps: int
    tasks: tuple
    seed: int
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "out"
    options: dict = field(default_factory=dict)

    def tolerance(self, key):
        if key in self.tolerances:
            return float(self.tolerances[key])
        return DEFAULT_TOLERANCES[key]


def _require(cond, fieldname, message):
    if not cond:
        raise ConfigError(fieldname, message)


@contextmanager
def _section(fieldname):
    """Report any failure to read or build one config field as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (FracBundleError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(fieldname, f"{type(exc).__name__}: {exc}") from exc


def parse_config(raw) -> ExperimentConfig:
    """Validate a raw dict (parsed JSON) into an ExperimentConfig."""
    _require(isinstance(raw, dict), "config", "top level must be an object")
    for key in ("manifold", "bundle", "region", "time", "tasks"):
        _require(key in raw, key, "missing required section")
    for key in ("manifold", "bundle", "region", "time"):
        _require(isinstance(raw[key], dict), key, "must be an object")
    man = raw["manifold"]
    _require(man.get("kind") in ("cycle", "torus_grid"), "manifold.kind",
             "must be 'cycle' or 'torus_grid'")
    bun = raw["bundle"]
    with _section("bundle.rank"):
        rank = int(bun.get("rank", 0))
    _require(rank >= 1, "bundle.rank", "must be >= 1")
    time_sec = raw["time"]
    with _section("time.horizon"):
        horizon = float(time_sec.get("horizon", 0.0))
    _require(0 < horizon < math.inf, "time.horizon", "must be positive and finite")
    with _section("time.steps"):
        steps = int(time_sec.get("steps", 0))
    _require(steps >= 4 and steps % 2 == 0, "time.steps", "must be an even integer >= 4")
    with _section("tasks"):
        tasks = tuple(raw["tasks"])
    _require(len(tasks) > 0, "tasks", "task list must be nonempty")
    for t in tasks:
        _require(t in KNOWN_TASKS, "tasks", f"unknown task {t!r}")
    _require(len(set(tasks)) == len(tasks), "tasks", "tasks must be unique")
    with _section("orders"):
        orders = tuple(float(s) for s in raw.get("orders", [0.5]))
    for s in orders:
        _require(0 < s < 1, "orders", "fractional orders must lie in (0, 1)")
    with _section("tolerances"):
        tol = dict(raw.get("tolerances", {}))
    for key in tol:
        _require(key in DEFAULT_TOLERANCES, "tolerances", f"unknown tolerance {key!r}")
        tol[key] = _positive(f"tolerances.{key}", float, tol[key])
    if "profile_match_fraction" in tol:
        _require(tol["profile_match_fraction"] <= 1.0, "tolerances.profile_match_fraction",
                 "must be in (0, 1]")
    with _section("options"):
        options = dict(raw.get("options", {}))
    for key in options:
        _require(key in NUMERIC_OPTIONS or key == "transmutation_times", f"options.{key}",
                 "unknown option")
    for key, kind in NUMERIC_OPTIONS.items():
        if key in options:
            options[key] = _positive(f"options.{key}", kind, options[key])
    if "transmutation_times" in options:
        times = options["transmutation_times"]
        _require(isinstance(times, list) and times, "options.transmutation_times",
                 "must be a nonempty list")
        options["transmutation_times"] = [
            _positive("options.transmutation_times", float, t) for t in times]
    with _section("seed"):
        seed = int(raw.get("seed", 0))
    _check_working_set(man, raw["region"], rank, horizon, steps, tasks, options)
    return ExperimentConfig(
        manifold=dict(man),
        bundle=dict(bun),
        region=dict(raw["region"]),
        orders=orders,
        horizon=horizon,
        steps=steps,
        tasks=tasks,
        seed=seed,
        tolerances=tol,
        output_dir=str(raw.get("output_dir", "out")),
        options=options,
    )


def _positive(fieldname, kind, value):
    """value converted to kind; it must be positive and finite."""
    with _section(fieldname):
        value = kind(value)
    _require(0 < value < math.inf, fieldname, "must be positive and finite")
    return value


def probe_settings(options, h):
    """(delta, lead_step, width) of the probe family: the options' values,
    or by default 1.2, 1 and 1.5 mesh lengths h."""
    return (float(options.get("probe_delta", 1.2 * h)),
            float(options.get("probe_lead_step", h)),
            float(options.get("probe_width", 1.5 * h)))


def _check_working_set(man, region, rank, horizon, steps, tasks, options):
    """Reject a config whose largest arrays would exceed WORKING_SET_BUDGET.

    The estimate is arithmetic on the config alone, in bytes: the dense eigh,
    K^2 complex numbers over the K = V r components of the manifold; the
    Duhamel weights, 2 (N+1) K reals; the wave map, 3 (N+1) D^2 complex
    numbers over the D = |U| r components of the region; and, when
    reconstruct_distances runs, the probe Gram, m^2 complex numbers over
    m = D n_leads probes.  A ConfigError names the field behind the largest
    term.  Malformed manifold or region fields are left to build_scene,
    which names them.
    """
    try:
        if man["kind"] == "cycle":
            counts, lengths = [_size(man["count"])], [float(man["length"])]
        else:
            counts = [_size(c) for c in man["counts"]]
            lengths = [float(x) for x in man["lengths"]]
        kind = region.get("type", "vertices")
        if kind == "vertices":
            n_region = _size(len(region["ids"]))
        elif kind == "arc":
            n_region = _size(region["count"])
        else:
            n_region = _size(region["rows"]) * _size(region["cols"])
    except (KeyError, OverflowError, TypeError, ValueError):
        return
    if (not counts or len(counts) != len(lengths) or min(counts) < 1 or n_region < 1
            or not all(0 < x < math.inf for x in lengths)):
        return
    K = math.prod(counts) * _size(rank)
    D = n_region * _size(rank)
    rows = _size(steps) + 1
    terms = [
        (16 * K * K, "manifold", f"dense eigh over {K:.3g} components"),
        (8 * 2 * rows * K, "time.steps", f"Duhamel weights over {rows:.3g} time rows"),
        (16 * 3 * rows * D * D, "time.steps", f"wave map over {rows:.3g} time rows"),
    ]
    # an infinite manifold is past the budget already and has no mesh length
    if "reconstruct_distances" in tasks and K < math.inf:
        h = min(x / c for x, c in zip(lengths, counts))
        _, lead_step, width = probe_settings(options, h)
        # the lead ladder runs from width to T - 8 dt, with dt = 2T / N
        n_leads = max((horizon - 16 * horizon / (rows - 1) - width) / lead_step, 0.0) + 1
        m = D * n_leads
        terms.append((16 * m * m, "options.probe_lead_step", f"probe Gram of {m:.3g} probes"))
    total = sum(t[0] for t in terms)
    if total > WORKING_SET_BUDGET:
        _, fieldname, what = max(terms, key=lambda t: t[0])
        raise ConfigError(fieldname, f"estimated working set of {total / 2**30:.3g} GiB exceeds "
                          f"the {WORKING_SET_BUDGET / 2**30:g} GiB budget; the largest term is "
                          f"the {what}")


def _size(value):
    """An integer config size as a float, read as int() reads it; a size past
    the float range is infinite."""
    value = int(value)
    try:
        return float(value)
    except OverflowError:
        return math.inf


def build_scene(cfg: ExperimentConfig):
    """Manifold, bundle, and observation region from the config.

    A section that cannot be built raises ConfigError naming the section.
    """
    with _section("manifold"):
        m = build_manifold(cfg.manifold)
    bun = cfg.bundle
    with _section("bundle"):
        b = build_bundle(
            m,
            int(bun["rank"]),
            connection=bun.get("connection", "trivial"),
            potential=bun.get("potential", "zero"),
            seed=bun.get("seed", cfg.seed),
            potential_scale=float(bun.get("potential_scale", 1.0)),
            potential_shift=float(bun.get("potential_shift", 0.0)),
        )
    with _section("region"):
        region = build_region(m, cfg.region)
    return m, b, region


def build_region(m, spec) -> Region:
    kind = spec.get("type", "vertices")
    if kind == "vertices":
        return Region(m, tuple(int(v) for v in spec["ids"]))
    if kind == "arc":
        if m.meta.get("kind") != "cycle":
            raise ConfigError("region", "arc regions need a cycle manifold")
        n = m.num_vertices
        start = int(spec.get("start", 0))
        count = int(spec["count"])
        return Region(m, tuple((start + i) % n for i in range(count)))
    if kind == "block":
        if m.meta.get("kind") != "torus_grid":
            raise ConfigError("region", "block regions need a torus manifold")
        counts = m.meta["counts"]
        if len(counts) != 2:
            raise ConfigError("region", "block regions need a 2-axis torus")
        rows = int(spec["rows"])
        cols = int(spec["cols"])
        r0 = int(spec.get("row_start", 0))
        c0 = int(spec.get("col_start", 0))
        ids = lattice(counts)[np.ix_((r0 + np.arange(rows)) % counts[0],
                                     (c0 + np.arange(cols)) % counts[1])]
        return Region(m, tuple(ids.ravel().tolist()))
    raise ConfigError("region.type", f"unknown region type {kind!r}")
