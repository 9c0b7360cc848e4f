"""Experiment configuration: parsing, validation, scene construction."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bundle import build_bundle
from .errors import ConfigError, FracBundleError
from .manifold import Region, build_manifold, lattice
from .reconstruction import ProbeConfig

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

# the keys of each section: key -> (type, default).  A type is int, float,
# str, dict, or [type] for a list; a default of None marks a required key.
# The manifold's keys follow its kind, the region's its type
TOP_FIELDS = {"manifold": (dict, None), "bundle": (dict, None), "region": (dict, None),
              "orders": ([float], [0.5]), "time": (dict, None), "tasks": ([str], None),
              "seed": (int, 0), "tolerances": (dict, {}), "output_dir": (str, "out"),
              "options": (dict, {})}
MANIFOLD_FIELDS = {
    "cycle": {"kind": (str, None), "count": (int, None), "length": (float, None)},
    "torus_grid": {"kind": (str, None), "counts": ([int], None), "lengths": ([float], None)},
}
REGION_FIELDS = {
    "vertices": {"type": (str, "vertices"), "ids": ([int], None)},
    "arc": {"type": (str, None), "start": (int, 0), "count": (int, None)},
    "block": {"type": (str, None), "rows": (int, None), "cols": (int, None),
              "row_start": (int, 0), "col_start": (int, 0)},
}

# largest working set a config may ask for, in bytes; parse_config rejects a
# config whose working-set estimate exceeds it (see _check_working_set)
WORKING_SET_BUDGET = 4 << 30

@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment (see README for the JSON schema): parse_config
    types every value and fills in every default."""

    manifold: dict
    bundle: dict
    region: dict
    orders: tuple
    horizon: float
    steps: int
    tasks: tuple
    seed: int
    tolerances: dict
    output_dir: str
    options: dict

    def echo(self):
        """The config as JSON input; parse_config reads it back to an equal config."""
        return {
            "manifold": self.manifold,
            "bundle": self.bundle,
            "region": self.region,
            "orders": list(self.orders),
            "time": {"horizon": self.horizon, "steps": self.steps},
            "tasks": list(self.tasks),
            "seed": self.seed,
            "tolerances": self.tolerances,
            "output_dir": self.output_dir,
            "options": self.options,
        }


def _require(cond, fieldname, message):
    if not cond:
        raise ConfigError(fieldname, message)


@contextmanager
def _section(fieldname):
    """Report any failure to build one config section as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (FracBundleError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(fieldname, f"{type(exc).__name__}: {exc}") from exc


def _number(fieldname, value, kind):
    """value as kind, int or float: an int or a finite float, never a bool.
    An int field takes integral values only, a float field ints inside the
    float range."""
    if isinstance(value, int) and not isinstance(value, bool):
        _require(kind is int or abs(value) <= sys.float_info.max, fieldname, "must be finite")
    else:
        _require(isinstance(value, float) and math.isfinite(value), fieldname,
                 "must be a finite number")
        _require(kind is float or value.is_integer(), fieldname, "must be an integer")
    return kind(value)


def _typed(fieldname, value, kind):
    """value checked as kind: int or float (_number), str, dict, or [type]."""
    if isinstance(kind, list):
        _require(isinstance(value, list), fieldname, "must be a list")
        return [_typed(fieldname, v, kind[0]) for v in value]
    if kind in (int, float):
        return _number(fieldname, value, kind)
    _require(isinstance(value, kind), fieldname,
             "must be an object" if kind is dict else "must be a string")
    return value


def _fields(prefix, section, fields):
    """The object section read by its key table (key -> (type, default)):
    every value typed, every absent key's default filled in.  A key the
    table does not list, or an absent required key, is refused, naming
    <prefix><key>."""
    for key in section:
        _require(key in fields, f"{prefix}{key}",
                 "unknown option" if prefix == "options." else "unknown key")
    out = {}
    for key, (kind, default) in fields.items():
        _require(key in section or default is not None, f"{prefix}{key}", "missing required key")
        out[key] = _typed(f"{prefix}{key}", section.get(key, default), kind)
    return out


def parse_config(raw) -> ExperimentConfig:
    """Validate a raw dict (parsed JSON) into an ExperimentConfig.

    This is the one reader of the raw config: every value is typed and
    checked here and every default filled in, so later readers take parsed
    values only.  A key that its section does not know is refused.
    """
    _require(isinstance(raw, dict), "config", "top level must be an object")
    top = _fields("", raw, TOP_FIELDS)
    seed = top["seed"]
    _require(seed >= 0, "seed", "must be a non-negative integer")
    kind = top["manifold"].get("kind")
    _require(kind in ("cycle", "torus_grid"), "manifold.kind", "must be 'cycle' or 'torus_grid'")
    manifold = _fields("manifold.", top["manifold"], MANIFOLD_FIELDS[kind])
    counts = manifold["counts"] if kind == "torus_grid" else [manifold["count"]]
    lengths = manifold["lengths"] if kind == "torus_grid" else [manifold["length"]]
    # the working-set estimate and the probe defaults read the mesh length
    _require(len(counts) == len(lengths) > 0, "manifold", "counts and lengths must align")
    _require(min(counts) >= 1 and min(lengths) > 0, "manifold",
             "counts and lengths must be positive")
    bundle = _fields("bundle.", top["bundle"], {
        "rank": (int, None), "connection": (str, "trivial"), "potential": (str, "zero"),
        "seed": (int, seed), "potential_scale": (float, 1.0), "potential_shift": (float, 0.0)})
    _require(bundle["rank"] >= 1, "bundle.rank", "must be >= 1")
    _require(bundle["seed"] >= 0, "bundle.seed", "must be a non-negative integer")
    rtype = top["region"].get("type", "vertices")
    _require(rtype in ("vertices", "arc", "block"), "region.type", f"unknown region type {rtype!r}")
    region = _fields("region.", top["region"], REGION_FIELDS[rtype])
    if rtype == "vertices":
        n_region = len(region["ids"])
    else:
        n_region = region["count"] if rtype == "arc" else region["rows"] * region["cols"]
    time_sec = _fields("time.", top["time"], {"horizon": (float, None), "steps": (int, None)})
    horizon, steps = time_sec["horizon"], time_sec["steps"]
    _require(horizon > 0, "time.horizon", "must be positive")
    _require(steps >= 4 and steps % 2 == 0, "time.steps", "must be an even integer >= 4")
    tasks = top["tasks"]
    _require(len(tasks) > 0, "tasks", "task list must be nonempty")
    for t in tasks:
        _require(t in KNOWN_TASKS, "tasks", f"unknown task {t!r}")
    _require(len(set(tasks)) == len(tasks), "tasks", "tasks must be unique")
    orders = top["orders"]
    _require(len(orders) > 0, "orders", "order list must be nonempty")
    for s in orders:
        _require(0 < s < 1, "orders", "fractional orders must lie in (0, 1)")
    tolerances = _fields("tolerances.", top["tolerances"],
                         {key: (float, tol) for key, tol in DEFAULT_TOLERANCES.items()})
    for key, tol in tolerances.items():
        _require(tol > 0, f"tolerances.{key}", "must be positive")
    _require(tolerances["profile_match_fraction"] <= 1.0, "tolerances.profile_match_fraction",
             "must be in (0, 1]")
    # by default the probe family's delta, lead step and width are 1.2, 1
    # and 1.5 mesh lengths h
    h = min(x / _size(c) for x, c in zip(lengths, counts))
    given = top["options"]
    options = _fields("options.", given, {
        "probe_delta": (float, 1.2 * h), "probe_lead_step": (float, h),
        "probe_width": (float, 1.5 * h), "eta": (float, ProbeConfig.eta),
        "blago_pairs": (int, 100), "round_trip_sections": (int, 20),
        "transmutation_times": ([float], [0.1, 1.0])})
    # every option must be positive.  Only given values are checked: an
    # infinite count makes h, and so the probe defaults, 0, and the
    # working-set check refuses that manifold
    for key in given:
        values = options[key] if key == "transmutation_times" else [options[key]]
        _require(len(values) > 0, f"options.{key}", "must be a nonempty list")
        _require(min(values) > 0, f"options.{key}", "must be positive")
    _check_working_set(counts, n_region, bundle["rank"], horizon, steps, tasks, options)
    return ExperimentConfig(
        manifold=manifold,
        bundle=bundle,
        region=region,
        orders=tuple(orders),
        horizon=horizon,
        steps=steps,
        tasks=tuple(tasks),
        seed=seed,
        tolerances=tolerances,
        output_dir=top["output_dir"],
        options=options,
    )


def _check_working_set(counts, n_region, rank, horizon, steps, tasks, options):
    """Reject a config whose largest arrays would exceed WORKING_SET_BUDGET.

    The estimate is arithmetic on the parsed config alone, in bytes: the
    dense eigh, K^2 complex numbers over the K = V r components of the
    manifold; the Duhamel weights, 2 (N+1) K reals; the wave map, 3 (N+1) D^2
    reals (its Hermitian blocks packed) over the D = |U| r components of the
    region;
    and, when reconstruct_distances runs, the probe Gram, m^2 complex
    numbers over m = D n_leads probes.  A ConfigError names the field behind
    the largest term.
    """
    K = math.prod(_size(c) for c in counts) * _size(rank)
    D = _size(n_region) * _size(rank)
    rows = _size(steps) + 1
    terms = [
        (16 * K * K, "manifold", f"dense eigh over {K:.3g} components"),
        (8 * 2 * rows * K, "time.steps", f"Duhamel weights over {rows:.3g} time rows"),
        (8 * 3 * rows * D * D, "time.steps", f"wave map over {rows:.3g} time rows"),
    ]
    # an infinite manifold is past the budget already and has no mesh length
    if "reconstruct_distances" in tasks and K < math.inf:
        # the lead ladder runs from width to T - 8 dt, with dt = 2T / N
        n_leads = max((horizon - 16 * horizon / (rows - 1) - options["probe_width"])
                      / options["probe_lead_step"], 0.0) + 1
        m = D * n_leads
        terms.append((16 * m * m, "options.probe_lead_step", f"probe Gram of {m:.3g} probes"))
    total = sum(t[0] for t in terms)
    if total > WORKING_SET_BUDGET:
        _, fieldname, what = max(terms, key=lambda t: t[0])
        raise ConfigError(fieldname, f"estimated working set of {total / 2**30:.3g} GiB exceeds "
                          f"the {WORKING_SET_BUDGET / 2**30:g} GiB budget; the largest term is "
                          f"the {what}")


def _size(value):
    """An integer config size as a float; a size past the float range is
    infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def build_scene(cfg: ExperimentConfig):
    """Manifold, bundle, and observation region from the parsed config.

    A section that cannot be built raises ConfigError naming the section.
    """
    with _section("manifold"):
        m = build_manifold(cfg.manifold)
    with _section("bundle"):
        b = build_bundle(m, **cfg.bundle)
    with _section("region"):
        region = build_region(m, cfg.region)
    return m, b, region


def build_region(m, spec) -> Region:
    """The region a parsed region spec (all keys of its type) describes on m."""
    kind = spec["type"]
    if kind == "vertices":
        return Region(m, tuple(spec["ids"]))
    if kind == "arc":
        if m.meta.get("kind") != "cycle":
            raise ConfigError("region", "arc regions need a cycle manifold")
        n = m.num_vertices
        return Region(m, tuple((spec["start"] + i) % n for i in range(spec["count"])))
    if kind == "block":
        if m.meta.get("kind") != "torus_grid":
            raise ConfigError("region", "block regions need a torus manifold")
        counts = m.meta["counts"]
        if len(counts) != 2:
            raise ConfigError("region", "block regions need a 2-axis torus")
        ids = lattice(counts)[np.ix_((spec["row_start"] + np.arange(spec["rows"])) % counts[0],
                                     (spec["col_start"] + np.arange(spec["cols"])) % counts[1])]
        return Region(m, tuple(ids.ravel().tolist()))
    raise ConfigError("region.type", f"unknown region type {kind!r}")
