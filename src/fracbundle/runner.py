"""Config-driven experiment orchestration and report emission."""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bundle import (
    GaugeTransform,
    apply_gauge,
    l2_inner,
    l2_norm,
    pullback_bundle,
    translation_iso,
)
from .config import ExperimentConfig, build_scene, parse_config
from .errors import ConfigError, FracBundleError
from .manifold import Region, shortest_distances
from .operator import assemble
from .propagators import (
    TimeGrid,
    TimeSection,
    duhamel_states,
    fractional_apply,
    fractional_inverse_quadrature,
    fractional_inverse_spectral,
    fractional_kernel_matrix,
    heat_apply,
    heat_kernel_matrix,
    transmutation_gaussian_check,
    transmutation_printed_residual,
    wave_energy,
    wave_kernel_matrix,
)
from .reconstruction import (
    ProbeConfig,
    ProbeEngine,
    RayPlan,
    bump_profile,
    cut_time_estimate,
    distance_family,
    first_arrival_matrix,
    gauge_invariant_compare,
    match_profiles,
    mesh_length,
    recover_local_operator,
)
from .reference import chart_operator_from_bundle
from .s2s import DeltaSources, blago_bilinear, flat_indices, owner_sums, wave_map_assemble

REPORT_SCHEMA = "fracbundle_report@1"


@dataclass
class TaskResult:
    name: str
    status: str  # pass | fail | error
    elapsed_s: float
    measures: dict
    tolerances: dict  # gated measure name -> bound
    tables: dict  # name -> (header, rows)
    message: str


@dataclass
class Report:
    config_echo: dict
    seed: int
    tasks: list

    @property
    def passed(self):
        return all(t.status == "pass" for t in self.tasks)

    def to_payload(self):
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "seed": self.seed,
            "passed": self.passed,
            "config": self.config_echo,
            "tasks": [
                {
                    "name": t.name,
                    "status": t.status,
                    "elapsed_s": t.elapsed_s,
                    "measures": t.measures,
                    "tolerances": t.tolerances,
                    "message": t.message,
                    "tables": sorted(t.tables.keys()),
                }
                for t in self.tasks
            ],
        }


class _Scene:
    """Lazily built shared objects for the tasks.

    The cached objects, op and wmap, live from their first reader to their
    last: _TASKS declares what each task reads, and a reader of wmap reads op
    too, since the map is built from it.  run_experiment calls end_task after
    each task, which drops what no later task reads.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.manifold, self.bundle, self.region = build_scene(cfg)
        # the position in cfg.tasks of each cached object's last reader
        self._last = {}
        for k, name in enumerate(cfg.tasks):
            reads = _TASKS[name][1]
            for obj in reads + (("op",) if "wmap" in reads else ()):
                self._last[obj] = k
        self._task = 0
        self._cache = {}

    def _cached(self, name, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    @property
    def op(self):
        return self._cached("op", lambda: assemble(self.bundle))

    @property
    def grid(self):
        return TimeGrid(2.0 * self.cfg.horizon, self.cfg.steps)

    @property
    def wmap(self):
        return self._cached("wmap", lambda: wave_map_assemble(self.op, self.region, self.grid))

    def release(self, *names):
        """Drop the named cached objects unless a later task reads them."""
        for name in names:
            if self._last.get(name, self._task) <= self._task:
                self._cache.pop(name, None)

    def end_task(self):
        """Drop what the running task read last; the next task runs."""
        self.release(*list(self._cache))
        self._task += 1

    def probe_config(self):
        opts = self.cfg.options
        return ProbeConfig(opts["probe_delta"], opts["probe_lead_step"], opts["probe_width"],
                           opts["eta"])

    def random_sections(self, count, rng):
        return [self.bundle.random_section(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# tasks

# gates of the library's own arithmetic, not config tolerances; a task lists
# them in its gates beside the configured ones
HERMITICITY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
PRINTED_QUADRATURE_TOL = 1e-8
# the one gated measure that must reach its bound; every other stays below
FLOOR_GATE = "profile_match_fraction"


def _task_verify_spectral(scene, cfg):
    rng = np.random.default_rng(cfg.seed)
    op = scene.op
    b = scene.bundle
    measures, tables = {}, {}
    measures["min_eigenvalue"] = op.min_eigenvalue
    measures["max_eigenvalue"] = op.max_eigenvalue
    measures["kernel_dimension"] = int(np.count_nonzero(op.kernel_mask()))
    # Hermiticity and eigensection quality
    herm = []
    for _ in range(5):
        u, v = scene.random_sections(2, rng)
        pu = op.to_section(op.matrix @ op.to_flat(u))
        pv = op.to_section(op.matrix @ op.to_flat(v))
        lhs, rhs = l2_inner(b, pu, v), l2_inner(b, u, pv)
        herm.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    # every gated maximum is np.max, which a NaN wins; Python's max drops a
    # NaN that does not come first
    measures["hermiticity_residual"] = float(np.max(herm))
    mu = op.weights_flat()
    measures["eigensection_orthonormality"] = float(np.max(np.abs(
        op.eigensections.conj().T @ (mu[:, None] * op.eigensections) - np.eye(op.dim))))
    # fractional round trip and the Gamma route
    rt_devs, gamma_devs = [], []
    per_order = max(1, cfg.options["round_trip_sections"] // len(cfg.orders))
    for s in cfg.orders:
        for u in scene.random_sections(per_order, rng):
            f = op.project_complement(u)
            inv = fractional_inverse_spectral(op, s, f)
            back = fractional_apply(op, s, inv)
            rt_devs.append(l2_norm(b, back - f) / l2_norm(b, f))
        f = op.project_complement(scene.random_sections(1, rng)[0])
        qv = fractional_inverse_quadrature(op, s, f)
        sv = fractional_inverse_spectral(op, s, f)
        gamma_devs.append(l2_norm(b, qv - sv) / l2_norm(b, sv))
    measures["fractional_round_trip"] = float(np.max(rt_devs))
    measures["gamma_route"] = float(np.max(gamma_devs))
    # wave energy and the heat semigroup law
    u0, v0 = scene.random_sections(2, rng)
    e0 = wave_energy(op, u0, v0, 0.0)
    measures["energy_drift"] = float(np.max(
        [abs(wave_energy(op, u0, v0, t) - e0) / e0 for t in np.linspace(0, 2 * cfg.horizon, 9)]))
    w = scene.random_sections(1, rng)[0]
    semi = l2_norm(b, heat_apply(op, 0.8, w) - heat_apply(op, 0.5, heat_apply(op, 0.3, w)))
    measures["semigroup"] = semi / l2_norm(b, heat_apply(op, 0.8, w))
    tables["spectrum"] = (
        ["index", "eigenvalue"],
        [[k, float(lam)] for k, lam in enumerate(op.eigenvalues)],
    )
    gates = {
        "fractional_round_trip": cfg.tolerances["fractional_round_trip"],
        "gamma_route": cfg.tolerances["gamma_route"],
        "energy_drift": cfg.tolerances["energy_drift"],
        "semigroup": cfg.tolerances["semigroup"],
        "hermiticity_residual": HERMITICITY_TOL,
        "eigensection_orthonormality": ORTHONORMALITY_TOL,
    }
    return measures, gates, tables


def _task_verify_transmutation(scene, cfg):
    op = scene.op
    rng = np.random.default_rng(cfg.seed + 1)
    measures, tables = {}, {}
    rows = []
    errs = []
    for t in cfg.options["transmutation_times"]:
        Q, E, err = transmutation_gaussian_check(op, t)
        errs.append(np.max(err))
        for k in range(len(E)):
            rows.append([t, k, float(Q[k]), float(E[k]), float(err[k])])
    measures["transmutation_gaussian"] = float(np.max(errs, initial=0.0))
    u = scene.random_sections(1, rng)[0]
    printed_res, quad_err = transmutation_printed_residual(op, 0.5, u)
    measures["printed_form_residual"] = printed_res  # logged, not gated
    measures["printed_form_quadrature_error"] = quad_err
    tables["transmutation"] = (["t", "mode", "quadrature", "exact", "mixed_error"], rows)
    gates = {"transmutation_gaussian": cfg.tolerances["transmutation_gaussian"],
             "printed_form_quadrature_error": PRINTED_QUADRATURE_TOL}
    return measures, gates, tables


def _seeded_pair_sources(scene, cfg, count, rng):
    """Seeded sources of three random bumps each, as (DeltaSources, owners):
    each source is the sum of its delta columns, and the bumps on one flat
    region component of one source sum into one (N+1,) profile, in owner then
    component order."""
    grid = scene.grid
    n, r = len(scene.region), scene.bundle.rank
    T = cfg.horizon
    columns = {}
    for k in range(count):
        for _ in range(3):
            i = rng.integers(0, n)
            j = rng.integers(0, r)
            width = rng.uniform(0.1 * T, 0.3 * T)
            start = rng.uniform(0.0, T - width)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            column = columns.setdefault((k, int(i * r + j)), np.zeros(len(grid), dtype=complex))
            column += amp * bump_profile(grid.times, start, width)
    keys = sorted(key for key, column in columns.items() if np.any(column != 0))
    owners, components = (np.array(a, dtype=np.int64) for a in zip(*keys))
    return DeltaSources(np.stack([columns[key] for key in keys]), np.arange(len(keys)),
                        components), owners


def _task_verify_blago(scene, cfg):
    rng = np.random.default_rng(cfg.seed + 2)
    n_pairs = cfg.options["blago_pairs"]
    n_sources = max(2, int(np.ceil((1 + np.sqrt(1 + 8 * n_pairs)) / 2)))
    columns, owners = _seeded_pair_sources(scene, cfg, n_sources, rng)
    # the reference solves the same sources on the whole manifold over [0, T]
    # (same dt) by the direct interval sum, not the engine's FFT convolution;
    # each full-manifold source is built from its columns as duhamel_states
    # draws it.  It runs before the wave map is built, so its working set and
    # the map's never coexist
    half = scene.grid.n_steps // 2
    ref_grid = TimeGrid(cfg.horizon, half)
    at = flat_indices(scene.region.vertices, scene.bundle.rank)[columns.component]
    shape = (half + 1, scene.manifold.num_vertices, scene.bundle.rank)

    def sources():
        for k in range(n_sources):
            full = np.zeros(shape, dtype=complex)
            mine = owners == k
            full.reshape(half + 1, -1)[:, at[mine]] = columns.profiles[mine, :half + 1].T
            yield TimeSection(ref_grid, full)

    states = [w[0] for w in duhamel_states(scene.op, sources(), [half])]
    G_direct = np.empty((n_sources, n_sources), dtype=np.complex128)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            G_direct[i, j] = l2_inner(scene.bundle, si, sj)
    G_engine = owner_sums(blago_bilinear(scene.wmap, columns, columns), owners, owners,
                          (n_sources, n_sources))
    scale = float(np.max(np.abs(G_direct)))
    err = np.abs(G_engine - G_direct) / scale
    # the first n_pairs pairs i <= j in row order
    pairs = list(itertools.islice(itertools.combinations_with_replacement(range(n_sources), 2),
                                  n_pairs))
    rows = [[i, j, float(G_direct[i, j].real), float(G_direct[i, j].imag),
             float(G_engine[i, j].real), float(G_engine[i, j].imag), float(err[i, j])]
            for i, j in pairs]
    worst = float(np.max([err[i, j] for i, j in pairs], initial=0.0))
    measures = {"blago": worst, "pairs": len(pairs)}
    # ungated diagnostic: a non-finite Gram records NaN (null in the report),
    # so the blago gate, not eigvalsh, decides the status
    ratio = np.nan
    if np.all(np.isfinite(G_engine)):
        ev = np.linalg.eigvalsh(0.5 * (G_engine + G_engine.conj().T))
        ratio = ev.min() / np.trace(G_engine).real
    measures["gram_min_eigenvalue_over_trace"] = float(ratio)
    tables = {"blago_pairs": (["i", "j", "direct_re", "direct_im", "engine_re", "engine_im", "rel_err"], rows)}
    return measures, {"blago": cfg.tolerances["blago"]}, tables


def _seeded_iso(scene, cfg, rng):
    m = scene.manifold
    gauge = GaugeTransform.random(rng, m.num_vertices, scene.bundle.rank)
    if m.meta.get("kind") == "cycle":
        shifts = [int(rng.integers(1, m.num_vertices))]
    else:
        shifts = [int(rng.integers(0, c)) for c in m.meta["counts"]]
        if all(s == 0 for s in shifts):
            shifts[0] = 1
    return translation_iso(scene.bundle, shifts, gauge)


def _task_verify_gauge_equivariance(scene, cfg):
    rng = np.random.default_rng(cfg.seed + 3)
    m = scene.manifold
    r = scene.bundle.rank
    op1 = scene.op
    iso = _seeded_iso(scene, cfg, rng)
    b2 = pullback_bundle(iso)
    op2 = assemble(b2)
    U1 = scene.region
    inv_base = np.empty(m.num_vertices, dtype=np.int64)
    inv_base[iso.base] = np.arange(m.num_vertices)
    U2 = Region(m, tuple(inv_base[list(U1.vertices)]))
    n = len(U1)
    S = np.zeros((n * r, n * r), dtype=complex)
    S.reshape(n, r, n, r)[np.arange(n), :, np.arange(n), :] = iso.fiber[np.asarray(U2.vertices)]
    idx1, idx2 = flat_indices(U1.vertices, r), flat_indices(U2.vertices, r)

    def kernel_dev(kernel_matrix, t):
        K1, K2 = kernel_matrix(op1, t, idx1), kernel_matrix(op2, t, idx2)
        return float(np.max(np.abs(S.conj().T @ K1 @ S - K2)))

    frac_devs = [kernel_dev(fractional_kernel_matrix, s) for s in cfg.orders]
    rows = [["frac", float(s), dev] for s, dev in zip(cfg.orders, frac_devs)]
    frac_dev = float(np.max(frac_devs, initial=0.0))
    measures = {"gauge_frac_blocks": frac_dev}
    grid = scene.grid

    wave_dev = float(np.max([kernel_dev(wave_kernel_matrix, t)
                             for t in grid.times[::max(1, len(grid) // 16)]]))
    rows.append(["wave_kernel", -1.0, wave_dev])
    measures["gauge_wave_blocks"] = wave_dev
    heat_dev = float(np.max([kernel_dev(heat_kernel_matrix, t)
                             for t in np.linspace(grid.dt, 2 * cfg.horizon, 8)]))
    rows.append(["heat_kernel", -1.0, heat_dev])
    measures["gauge_heat_kernel"] = heat_dev
    tables = {"gauge_deviations": (["block", "order", "deviation"], rows)}
    gates = {
        "gauge_frac_blocks": cfg.tolerances["gauge_blocks"],
        "gauge_wave_blocks": cfg.tolerances["gauge_blocks"],
        "gauge_heat_kernel": cfg.tolerances["gauge_heat_kernel"],
    }
    return measures, gates, tables


def _interior_vertices(scene):
    """Region-local indices whose every manifold neighbor lies in the region:
    no edge that leaves the region ends there."""
    inside, _ = scene.region.inner_edges()
    leaving = set(scene.manifold.edges[~inside].ravel().tolist())
    return [i for i, v in enumerate(scene.region.vertices) if v not in leaving]


# ray base points reconstruct_distances spreads over the full-ball vertices
RAY_BASES = 4


def _auto_rays(scene, cfg, pcfg):
    local = scene.wmap.local
    h = mesh_length(scene.wmap)
    full = local.full_balls(pcfg.delta)
    good = np.flatnonzero(full).tolist()
    picks = sorted(set(good[int(k * (len(good) - 1) / (RAY_BASES - 1))]
                       for k in range(RAY_BASES)))
    cap = cfg.horizon - pcfg.delta - 2 * h
    r_values = tuple(np.arange(2 * h, cap, h))
    return [RayPlan(x=x, y=y, r_values=r_values)
            for x in picks for y in sorted(local.neighbors(x)) if full[y]]


def _task_reconstruct_distances(scene, cfg):
    pcfg = scene.probe_config()
    wmap = scene.wmap
    m = scene.manifold
    h = min(m.meta["h"])
    region = scene.region
    # oracle rows from the region's vertices: dist[i, v] for region position i
    dist = shortest_distances(m, region.vertices)
    measures, tables = {}, {}
    # first arrivals against the shortest-path oracle
    arr = first_arrival_matrix(wmap, pcfg.eta)
    rels = []
    rows = []
    for i in range(len(region)):
        for j in range(len(region)):
            d_true = dist[i, region.vertices[j]]
            rows.append([i, j, float(arr[i, j]), float(d_true)])
            if d_true >= 3 * h - 1e-9:
                rels.append(abs(arr[i, j] - d_true) / d_true)
    measures["first_arrival_rel"] = float(np.max(rels, initial=0.0))
    tables["first_arrival"] = (["i", "j", "estimate", "oracle"], rows)
    # cut time along an interior ray; when no vertex is interior, from the
    # first region vertex with a region neighbor (vertex 0 when none has one)
    interior = _interior_vertices(scene)
    x = interior[len(interior) // 2] if interior else next(
        (v for v in range(len(region)) if wmap.local.neighbors(v)), 0)
    y = min(wmap.local.neighbors(x), default=None)
    if y is None:
        raise FracBundleError(f"cut-time ray base {x} has no neighbor in the region")
    # every sweep of the task reads this one engine
    eng = ProbeEngine(wmap, pcfg)
    tstar = cut_time_estimate(eng, x, y, arr[y, x])
    measures["cut_time"] = float(tstar)
    # the ray follows one lattice axis: its cut sits at half that axis length
    ids, _ = wmap.local.edge_index([(x, y)])
    ell = wmap.local.edge_lengths[ids[0]]
    oracle_cut = m.meta["lengths"][m.meta["h"].index(ell)] / 2
    measures["cut_time_oracle"] = float(oracle_cut)
    measures["cut_time_rel"] = float(abs(tstar - oracle_cut) / oracle_cut)
    tables["cut_times"] = ((["x", "y", "estimate", "oracle"]),
                           [[x, y, float(tstar), float(oracle_cut)]])
    # the profile family
    rays = _auto_rays(scene, cfg, pcfg)
    fam = distance_family(eng, rays, arr)
    oracle_profiles = dist.T
    rep = match_profiles(fam, oracle_profiles, rel_tol=cfg.tolerances["profile_match_rel"])
    measures["profile_match_fraction"] = rep["fraction"]
    measures["profiles_recovered"] = len(fam)
    measures["rays_skipped_edge"] = fam.rays_skipped
    measures["profiles_lipschitz_dropped"] = fam.lipschitz_dropped
    measures["profiles_merged"] = fam.duplicates_merged
    prof_rows = [[k] + [float(v) for v in fam.profiles[k]] for k in range(len(fam))]
    tables["distance_profiles"] = (
        ["point"] + [f"z{j}" for j in range(len(region))], prof_rows)
    gates = {
        "first_arrival_rel": cfg.tolerances["first_arrival_rel"],
        "cut_time_rel": cfg.tolerances["cut_time_rel"],
        "profile_match_fraction": cfg.tolerances["profile_match_fraction"],
    }
    return measures, gates, tables


def _fundamental_loops(n_vertices, edges):
    """Cycle basis of a small chart graph (spanning forest + fundamental cycles).

    Each vertex that no earlier BFS reached roots a tree of its own, so a
    disconnected chart gets one tree per component."""
    adj = {}
    for k, (a, b) in enumerate(edges):
        adj.setdefault(a, []).append((b, k))
        adj.setdefault(b, []).append((a, k))
    parent = {}
    for root in range(n_vertices):
        if root in parent:
            continue
        parent[root] = (None, None)
        order = [root]
        for v in order:
            for u, k in adj.get(v, []):
                if u not in parent:
                    parent[u] = (v, k)
                    order.append(u)
    tree_edges = {parent[v][1] for v in parent if parent[v][1] is not None}

    def path_to_root(v):
        out = [v]
        while parent[v][0] is not None:
            v = parent[v][0]
            out.append(v)
        return out

    loops = []
    for k, (a, b) in enumerate(edges):
        if k in tree_edges:
            continue
        pa, pb = path_to_root(a), path_to_root(b)
        seen = set(pa)
        junction = next(v for v in pb if v in seen)
        la = pa[: pa.index(junction) + 1]
        lb = pb[: pb.index(junction)]
        loops.append(la + lb[::-1])
    return loops


def _task_reconstruct_operator(scene, cfg):
    pcfg = scene.probe_config()
    wmap = scene.wmap
    chart = _interior_vertices(scene)
    if not chart:
        raise FracBundleError("region has no interior vertices for a chart")
    rec = recover_local_operator(wmap, chart, pcfg)
    # the gauged rerun assembles a second map: the first goes now, unless a
    # later task reads it
    del wmap
    scene.release("wmap")
    truth = chart_operator_from_bundle(scene.bundle, scene.region, chart)
    loops = _fundamental_loops(len(rec.vertices), rec.edges)
    hol_dev, pot_dev = gauge_invariant_compare(rec, truth, loops)
    measures = {
        "holonomy_deviation": hol_dev,
        "potential_spectrum_deviation": pot_dev,
        "loop_count": len(loops),
        "unitary_correction": rec.diagnostics["unitary_deviation"],
        "hermitian_correction": rec.diagnostics["hermitian_deviation"],
    }
    # rerun the identical pipeline on gauge-transformed map data
    rng = np.random.default_rng(cfg.seed + 4)
    g = GaugeTransform.random(rng, scene.manifold.num_vertices, scene.bundle.rank)
    b2 = apply_gauge(scene.bundle, g)
    wmap2 = wave_map_assemble(assemble(b2), scene.region, scene.grid)
    rec2 = recover_local_operator(wmap2, chart, pcfg)
    gauged_hol, gauged_pot = gauge_invariant_compare(rec, rec2, loops)
    measures["gauged_holonomy_deviation"] = gauged_hol
    measures["gauged_potential_deviation"] = gauged_pot
    # worst per-vertex least-squares condition number over both runs
    measures["ls_condition"] = float(np.max([rec.diagnostics["ls_condition"],
                                             rec2.diagnostics["ls_condition"]]))
    rows = [["holonomy", hol_dev], ["potential_spectrum", pot_dev],
            ["gauged_holonomy", gauged_hol], ["gauged_potential", gauged_pot]]
    tables = {"operator_recovery": (["invariant", "deviation"], rows)}
    cert, invariance = cfg.tolerances["operator_cert"], cfg.tolerances["gauge_pipeline_invariance"]
    gates = {"holonomy_deviation": cert, "potential_spectrum_deviation": cert,
             "gauged_holonomy_deviation": invariance, "gauged_potential_deviation": invariance}
    return measures, gates, tables


# each task and the cached scene objects it reads; a reader of wmap reads op
# too (see _Scene)
_TASKS = {
    "verify_spectral": (_task_verify_spectral, ("op",)),
    "verify_transmutation": (_task_verify_transmutation, ("op",)),
    "verify_blago": (_task_verify_blago, ("wmap",)),
    "verify_gauge_equivariance": (_task_verify_gauge_equivariance, ("op",)),
    "reconstruct_distances": (_task_reconstruct_distances, ("wmap",)),
    "reconstruct_operator": (_task_reconstruct_operator, ("wmap",)),
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run all configured tasks sequentially; failures are recorded, not fatal.

    Each task returns (measures, gates, tables), gates mapping a measure
    to its bound, and one rule gives its status: it passes when every gated
    measure is below its bound, FLOOR_GATE at or above it; a NaN passes no
    gate (the rule reads the measures before a NaN is written as null).
    A task that raises any Exception ends with status "error" and the
    exception's message (prefixed by its type name, except for library,
    LinAlgError and MemoryError failures); the next task still runs.  Each
    cached scene object is dropped after its last reader, whatever that
    task's status.
    """
    scene = _Scene(cfg)
    results = []
    for name in cfg.tasks:
        t0 = time.perf_counter()
        try:
            measures, gates, tables = _TASKS[name][0](scene, cfg)
            ok = all(measures[k] >= bound if k == FLOOR_GATE else measures[k] < bound
                     for k, bound in gates.items())
            results.append(TaskResult(
                name=name, status="pass" if ok else "fail", elapsed_s=time.perf_counter() - t0,
                measures=_to_native(measures), tolerances=_to_native(gates), tables=tables,
                message=""))
        except Exception as exc:  # recorded as data; KeyboardInterrupt passes through
            if isinstance(exc, (FracBundleError, np.linalg.LinAlgError, MemoryError)):
                message = str(exc) or type(exc).__name__
            else:
                message = f"{type(exc).__name__}: {exc}"
            results.append(TaskResult(
                name=name, status="error", elapsed_s=time.perf_counter() - t0,
                measures={}, tolerances={}, tables={}, message=message))
        scene.end_task()
    return Report(config_echo=cfg.echo(), seed=cfg.seed, tasks=results)


def _to_native(d):
    out = {}
    for k, v in d.items():
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        elif not isinstance(v, (bool, int, float, str)):
            v = float(v)
        if isinstance(v, float) and not np.isfinite(v):
            v = None  # sentinel values stay valid JSON
        out[k] = v
    return out


def emit_report(report: Report, out_dir):
    """Write the JSON report and per-task CSV tables; returns file paths."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_payload(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    paths = [path]
    for task in report.tasks:
        for name, (header, rows) in task.tables.items():
            path = os.path.join(out_dir, f"{task.name}__{name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            paths.append(path)
    return paths


def run_from_file(config_path, out_dir=None, seed_override=None):
    """Load a config file, run, emit artifacts; returns (report, exit_code)."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"file is not UTF-8 text ({exc})") from exc
    if seed_override is not None and isinstance(raw, dict):  # parse_config rejects the rest
        raw["seed"] = int(seed_override)
    cfg = parse_config(raw)
    target = out_dir or os.environ.get("FRACBUNDLE_OUT") or cfg.output_dir
    report = run_experiment(cfg)
    emit_report(report, target)
    return report, (0 if report.passed else 1)
