"""Experiment configuration: parsing, validation, scene construction."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bundle import build_bundle
from .errors import ConfigError, FracBundleError
from .manifold import Region, build_manifold

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
    "ray_bases": int,
    "blago_pairs": int,
    "round_trip_sections": int,
}


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
    except (FracBundleError, KeyError, TypeError, ValueError) as exc:
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
        with _section(f"tolerances.{key}"):
            tol[key] = float(tol[key])
    with _section("options"):
        options = dict(raw.get("options", {}))
    for key, kind in NUMERIC_OPTIONS.items():
        if key in options:
            with _section(f"options.{key}"):
                options[key] = kind(options[key])
            _require(0 < options[key] < math.inf, f"options.{key}", "must be positive and finite")
    with _section("seed"):
        seed = int(raw.get("seed", 0))
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


def build_scene(cfg: ExperimentConfig):
    """Manifold, bundle, and observation region from the config.

    A section that cannot be built raises ConfigError naming the section.
    """
    with _section("manifold"):
        m = build_manifold(cfg.manifold)
    bun = cfg.bundle
    if bun.get("connection", "trivial") == "explicit" or bun.get("potential") == "explicit":
        raise ConfigError("bundle", "explicit structures are not expressible in config files")
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
        ids = []
        for i in range(rows):
            for j in range(cols):
                ids.append(((r0 + i) % counts[0]) * counts[1] + ((c0 + j) % counts[1]))
        return Region(m, tuple(ids))
    raise ConfigError("region.type", f"unknown region type {kind!r}")
