"""Config validation, task orchestration, report emission, CLI exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracbundle
from fracbundle.cli import main
from fracbundle.config import KNOWN_TASKS, parse_config
from fracbundle.errors import ConfigError
from fracbundle.reconstruction import ProbeConfig
from fracbundle import reconstruction, runner, s2s
from fracbundle.runner import emit_report, run_experiment

from dense_sources import delta_columns, dense_pairing

BASE_CONFIG = {
    "manifold": {"kind": "cycle", "count": 16, "length": float(2 * np.pi)},
    "bundle": {"rank": 1, "connection": "trivial", "potential": "zero", "seed": 11},
    "region": {"type": "arc", "start": 0, "count": 6},
    "orders": [0.3, 0.5, 0.7],
    "time": {"horizon": 4.5, "steps": 512},
    "tasks": ["verify_spectral", "verify_blago"],
    "seed": 99,
    "options": {"blago_pairs": 12},
}


def write_config(tmp_path, overrides=None, **replace):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(replace)
    if overrides:
        for key, val in overrides.items():
            raw[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


# -- validation ----------------------------------------------------------------

def test_config_rejects_bad_horizon():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["time"]["horizon"] = -1.0
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "time.horizon" in str(err.value)


def test_config_rejects_odd_steps_and_empty_tasks():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["time"]["steps"] = 511
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = []
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["verify_spectral", "verify_spectral"]
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("section, key, value, field", [
    ("options", "probe_lead_step", 1e-4, "options.probe_lead_step"),
    ("time", "steps", 10**8, "time.steps"),
    ("manifold", "count", 20000, "manifold"),
    ("manifold", "count", 10**400, "manifold"),  # past the float range
])
def test_config_rejects_working_set_past_budget(section, key, value, field):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw[section][key] = value
    if field == "options.probe_lead_step":
        parse_config(raw)  # no task builds the probe lead ladder
    raw["tasks"] = ["verify_spectral"] if field == "manifold" else ["reconstruct_distances"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field and "budget" in str(err.value)


def test_config_rejects_unknown_task_and_order():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["explode"]
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["orders"] = [1.5]
    with pytest.raises(ConfigError):
        parse_config(raw)


# -- runner ---------------------------------------------------------------------

def test_run_experiment_passes_and_is_deterministic():
    cfg = parse_config(BASE_CONFIG)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    assert rep1.passed and rep2.passed
    for t1, t2 in zip(rep1.tasks, rep2.tasks):
        assert t1.measures == t2.measures  # bit-identical reruns


def test_run_experiment_tolerance_failure_is_data():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["verify_spectral"]
    raw["tolerances"] = {"fractional_round_trip": 1e-30}
    rep = run_experiment(parse_config(raw))
    task = rep.tasks[0]
    assert task.status == "fail"
    assert task.measures["fractional_round_trip"] > 1e-30  # measured value recorded
    assert not rep.passed


@pytest.mark.parametrize("task, constant, gate", [
    ("verify_spectral", "HERMITICITY_TOL", "hermiticity_residual"),
    ("verify_spectral", "ORTHONORMALITY_TOL", "eigensection_orthonormality"),
    ("verify_transmutation", "PRINTED_QUADRATURE_TOL", "printed_form_quadrature_error"),
    ("reconstruct_distances", None, "profile_match_fraction"),
])
def test_every_gate_of_a_task_is_in_its_report_tolerances(tmp_path, monkeypatch, task,
                                                         constant, gate):
    # on a run of all six tasks, every tolerance is the measure it gates and
    # each status is the one rule: measure < tolerance, except
    # profile_match_fraction >= tolerance.  A fixed gate at 0, which is not a
    # config tolerance, and a profile_match_fraction floor of 1, above the
    # measured fraction, each fail their task naming that gate alone; every
    # other task passes, reconstruct_distances at a floor of 0.1 too
    if constant:
        monkeypatch.setattr(runner, constant, 0.0)
    cfg_path = write_config(tmp_path, tasks=list(KNOWN_TASKS),
                            tolerances={"profile_match_fraction": 0.1 if constant else 1.0})
    report, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == 1
    written = strict_report(tmp_path / "out")["tasks"]
    for result, entry in zip(report.tasks, written, strict=True):
        assert result.status != "error", result.message
        assert set(result.tolerances) <= set(result.measures)
        missed = [k for k, tol in result.tolerances.items()
                  if not (result.measures[k] >= tol if k == "profile_match_fraction"
                          else result.measures[k] < tol)]
        assert result.status == ("fail" if missed else "pass")
        assert missed == ([gate] if result.name == task else [])
        assert entry["tolerances"] == result.tolerances


def test_a_measure_at_its_bound_fails_and_a_fraction_at_its_floor_passes():
    # the bound is strict for every gate but profile_match_fraction, which
    # passes at its bound; a rerun reproduces each measure bit for bit
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["verify_blago", "reconstruct_distances"]
    first = run_experiment(parse_config(raw)).tasks
    raw["tolerances"] = {"blago": first[0].measures["blago"],
                         "profile_match_fraction": first[1].measures["profile_match_fraction"]}
    blago, distances = run_experiment(parse_config(raw)).tasks
    assert blago.status == "fail" and blago.measures == first[0].measures
    assert distances.status == "pass" and distances.measures == first[1].measures


def test_a_negative_operator_is_a_spectral_task_error():
    # fractional calculus refuses the operator before any gate is read
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["bundle"].update(potential="random_hermitian", potential_scale=50.0, seed=3)
    raw["tasks"] = ["verify_spectral"]
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status == "error"
    assert task.message == ("fractional calculus requires a nonnegative operator; "
                            "min eigenvalue -8.927803e+01")
    assert task.measures == {}


def test_a_grid_shorter_than_the_quadrature_stencil_is_a_blago_task_error():
    # time.steps 4 is a valid config, but its wave data has 5 time nodes,
    # one fewer than the pairing's six-node stencil: the task reads no gate
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["time"]["steps"] = 4
    raw["tasks"] = ["verify_blago"]
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status == "error"
    assert task.message == "5 time nodes are fewer than the 6-node quadrature stencil"
    assert task.measures == {}


def test_distances_task_builds_one_probe_engine(monkeypatch):
    # every sweep of the task reads the engine the runner built
    built, swept = [], []
    init = reconstruction.ProbeEngine.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    def recorded(name):
        fn = getattr(runner, name)

        def wrapper(eng, *args):
            swept.append(eng)
            return fn(eng, *args)
        return wrapper

    monkeypatch.setattr(reconstruction.ProbeEngine, "__init__", counted)
    for name in ("cut_time_estimate", "distance_family"):
        monkeypatch.setattr(runner, name, recorded(name))
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["reconstruct_distances"]
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status != "error" and task.measures["profiles_recovered"] > 0
    assert len(built) == 1
    assert len(swept) == 2 and all(eng is built[0] for eng in swept)


def test_distances_task_reads_each_kernel_row_once(monkeypatch):
    # the README scene's 16 region vertices: the task reads one first-arrival
    # matrix, one _arrival_row per vertex, and hands its entries to the
    # cut-time ray and the profile family; its oracle relaxes once, from
    # exactly those 16 vertices
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example config:", 1)[1].split("```json\n", 1)[1]
    raw = json.loads(example.split("```", 1)[0])
    raw["tasks"] = ["reconstruct_distances"]
    reads = []
    arrival_row = reconstruction._arrival_row

    def counted(wmap, y, eta):
        reads.append(y)
        return arrival_row(wmap, y, eta)

    monkeypatch.setattr(reconstruction, "_arrival_row", counted)
    oracle_sources = []
    oracle = runner.shortest_distances

    def relaxed(m, sources):
        oracle_sources.append(tuple(sources))
        return oracle(m, sources)

    monkeypatch.setattr(runner, "shortest_distances", relaxed)
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status == "pass" and raw["region"] == {"type": "arc", "start": 0, "count": 16}
    assert reads == list(range(16))
    assert oracle_sources == [tuple(range(16))]


def test_reconstruct_operator_reports_ls_condition():
    raw = {
        "manifold": {"kind": "cycle", "count": 20, "length": 20.0},
        "bundle": {"rank": 1, "connection": "random", "potential": "random_positive",
                   "potential_scale": 0.3, "potential_shift": 0.2, "seed": 3},
        "region": {"type": "arc", "start": 0, "count": 8},
        "time": {"horizon": 8.0, "steps": 800},
        "tasks": ["reconstruct_operator"],
        "seed": 4,
        "options": {"probe_delta": 1.2, "probe_lead_step": 0.5, "probe_width": 1.0},
    }
    cfg = parse_config(raw)
    rep1, rep2 = run_experiment(cfg), run_experiment(cfg)
    assert rep1.passed
    cond = rep1.tasks[0].measures["ls_condition"]
    assert 1.0 <= cond < 1e6
    assert rep1.tasks[0].measures == rep2.tasks[0].measures  # bit-identical reruns


@pytest.mark.parametrize("ids", [[0, 8, 16, 24], [0, 10, 11]])
def test_a_ray_base_without_a_region_neighbor_is_a_distance_task_error(ids):
    # with no interior vertex the cut-time ray starts at the first region
    # vertex that has a region neighbor; only a region with none is an error
    statuses, message, rays = {
        # no internal edge: no region vertex has a neighbor to cast the ray toward
        (0, 8, 16, 24): ({"error"}, "cut-time ray base 0 has no neighbor in the region", []),
        # vertex 0 alone, but the edge 10-11 (local 1-2) carries the ray
        (0, 10, 11): ({"pass", "fail"}, "", [[1, 2]]),
    }[tuple(ids)]
    raw = {
        "manifold": {"kind": "cycle", "count": 32, "length": float(2 * np.pi)},
        "bundle": {"rank": 1},
        "region": {"type": "vertices", "ids": ids},
        "time": {"horizon": 3.0, "steps": 256},
        "tasks": ["reconstruct_distances"],
    }
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status in statuses
    assert task.message == message
    cut_rows = task.tables["cut_times"][1] if "cut_times" in task.tables else []
    assert [row[:2] for row in cut_rows] == rays


def test_reconstruct_operator_on_a_disconnected_chart():
    # two arcs of the README cycle: the interior chart has two components
    raw = {
        "manifold": {"kind": "cycle", "count": 64, "length": float(2 * np.pi)},
        "bundle": {"rank": 1, "connection": "random", "potential": "random_positive",
                   "seed": 7},
        "region": {"type": "vertices", "ids": list(range(8)) + list(range(30, 38))},
        "time": {"horizon": 4.5, "steps": 1280},
        "tasks": ["reconstruct_operator"],
        "seed": 7,
    }
    task = run_experiment(parse_config(raw)).tasks[0]
    assert task.status == "pass", task.message
    assert task.measures["loop_count"] == 0


def test_fundamental_loops_spans_every_component():
    # a triangle (0, 1, 2) and a path (3, 4, 5): one loop, from the triangle
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]
    loops = runner._fundamental_loops(6, edges)
    assert len(loops) == 1
    assert sorted(loops[0]) == [0, 1, 2]


def test_probe_config_sets_eta_only_from_options():
    # an unset eta falls back to ProbeConfig's own default
    raw = json.loads(json.dumps(BASE_CONFIG))
    assert runner._Scene(parse_config(raw)).probe_config().eta == ProbeConfig.eta
    raw["options"]["eta"] = 0.25
    assert runner._Scene(parse_config(raw)).probe_config().eta == 0.25


# -- scene lifetime ---------------------------------------------------------------

SMALL_TORUS = {
    "manifold": {"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]},
    "bundle": {"rank": 2, "connection": "random", "potential": "random_positive",
               "potential_scale": 0.3, "potential_shift": 0.2, "seed": 3},
    "region": {"type": "block", "rows": 3, "cols": 3},
    "time": {"horizon": 4.0, "steps": 400},
    "seed": 4,
    "options": {"probe_delta": 1.2, "probe_lead_step": 0.5, "probe_width": 1.0},
}


@pytest.fixture
def traced_maps(monkeypatch):
    """Count runner's assemble and wave_map_assemble calls and keep a weakref
    to each map; per map call, which earlier maps were still alive."""
    trace = {"assemble": 0, "maps": [], "alive": []}
    assemble, wave_map_assemble = runner.assemble, runner.wave_map_assemble

    def counted(bundle):
        trace["assemble"] += 1
        return assemble(bundle)

    def traced(*args):
        trace["alive"].append([ref() is not None for ref in trace["maps"]])
        wmap = wave_map_assemble(*args)
        trace["maps"].append(weakref.ref(wmap))
        return wmap

    monkeypatch.setattr(runner, "assemble", counted)
    monkeypatch.setattr(runner, "wave_map_assemble", traced)
    return trace


def test_last_reader_releases_the_map_before_the_gauged_one(traced_maps):
    rep = run_experiment(parse_config(dict(SMALL_TORUS,
                                           tasks=["verify_blago", "reconstruct_operator"])))
    assert rep.passed
    # the scene's map and the gauged rerun's, each on its own operator
    assert traced_maps["assemble"] == 2 and len(traced_maps["maps"]) == 2
    assert traced_maps["alive"] == [[], [False]]


def test_a_later_reader_keeps_the_map(traced_maps):
    rep = run_experiment(parse_config(dict(SMALL_TORUS,
                                           tasks=["reconstruct_operator", "verify_blago"])))
    assert rep.passed
    # the release in reconstruct_operator leaves the map to verify_blago,
    # which reads it without a third assembly
    assert traced_maps["assemble"] == 2 and len(traced_maps["maps"]) == 2
    assert traced_maps["alive"] == [[], [True]]


def test_a_task_that_raises_still_releases_its_objects(traced_maps, monkeypatch):
    def breaks(scene, cfg):
        scene.wmap
        raise ValueError("after reading the map")

    spectral, _ = runner._TASKS["verify_spectral"]
    alive = []

    def follows(scene, cfg):
        alive.append(traced_maps["maps"][0]() is not None)
        return spectral(scene, cfg)

    monkeypatch.setitem(runner._TASKS, "verify_blago", (breaks, ("wmap",)))
    monkeypatch.setitem(runner._TASKS, "verify_spectral", (follows, ("op",)))
    rep = run_experiment(parse_config(dict(BASE_CONFIG,
                                           tasks=["verify_blago", "verify_spectral"])))
    assert [t.status for t in rep.tasks] == ["error", "pass"]
    # the map went with its erroring last reader; the operator stayed for
    # verify_spectral and was not rebuilt
    assert alive == [False]
    assert traced_maps["assemble"] == 1 and len(traced_maps["maps"]) == 1


def test_blago_reference_runs_before_the_wave_map(traced_maps, monkeypatch):
    # verify_blago solves its direct reference first and only then builds
    # the map, so the reference's working set never sits on top of the map:
    # no map is alive when duhamel_states starts or returns
    states, alive = runner.duhamel_states, []

    def reference(*args):
        alive.append([ref() is not None for ref in traced_maps["maps"]])
        out = states(*args)
        alive.append([ref() is not None for ref in traced_maps["maps"]])
        return out

    monkeypatch.setattr(runner, "duhamel_states", reference)
    rep = run_experiment(parse_config(BASE_CONFIG))
    assert rep.passed
    assert alive == [[], []]
    assert traced_maps["alive"] == [[]] and len(traced_maps["maps"]) == 1


def test_config_echo_reruns_exactly(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    rep = run_experiment(cfg)
    echo = rep.to_payload()["config"]
    rep2 = run_experiment(parse_config(echo))
    for t1, t2 in zip(rep.tasks, rep2.tasks):
        assert t1.measures == t2.measures


def test_report_round_trip_and_tables(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    rep = run_experiment(cfg)
    paths = emit_report(rep, str(tmp_path))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload == rep.to_payload()
    assert payload["config"]["seed"] == 99
    names = {t["name"] for t in payload["tasks"]}
    assert names == set(cfg.tasks)
    spectrum = tmp_path / "verify_spectral__spectrum.csv"
    assert spectrum.exists()
    with open(spectrum) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert len(rows) - 1 == 16  # V * r eigenvalues
    assert set(map(os.path.basename, paths)) >= {"report.json"}


# -- CLI ------------------------------------------------------------------------

def test_cli_pass_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["run", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert (tmp_path / "out" / "report.json").exists()


# (section, key, value): BASE_CONFIG with one field replaced; None deletes it.
# The error names <section>.<key>, or only the section for the SCENE_ERRORS,
# values that parse and are refused when the scene is built
FIELD_ERRORS = {
    "horizon": ("time", "horizon", 0.0),
    "infinite_horizon": ("time", "horizon", float("inf")),
    "cycle_count": ("manifold", "count", 2),
    "region_count": ("region", "count", None),
    "rank": ("bundle", "rank", "two"),
    "connection": ("bundle", "connection", "bogus"),
    "tolerance": ("tolerances", "fractional_round_trip", "tight"),
    "negative_tolerance": ("tolerances", "blago", -1.0),
    "zero_tolerance": ("tolerances", "blago", 0.0),
    "infinite_tolerance": ("tolerances", "blago", float("inf")),
    "nan_tolerance": ("tolerances", "blago", float("nan")),
    "match_fraction_above_one": ("tolerances", "profile_match_fraction", 1.5),
    "option": ("options", "probe_delta", "big"),
    "negative_count_option": ("options", "blago_pairs", -5),
    "infinite_count_option": ("options", "round_trip_sections", float("inf")),
    "transmutation_time_type": ("options", "transmutation_times", ["x"]),
    "transmutation_times_not_list": ("options", "transmutation_times", 0.5),
    # retired options: gamma_quadrature and chart are unknown keys whatever
    # their value
    "gamma_unknown_field": ("options", "gamma_quadrature", {"bogus": 1}),
    "gamma_field_type": ("options", "gamma_quadrature", {"head_nodes": "x"}),
    "gamma_not_object": ("options", "gamma_quadrature", 3),
    "chart_index_type": ("options", "chart", ["x"]),
    "chart_not_list": ("options", "chart", 3),
    "chart_empty": ("options", "chart", []),
    "chart_repeated_index": ("options", "chart", [5, 6, 6, 9]),
    # numbers are finite ints or floats, never bools or strings, and an
    # integer field takes integral values only
    "fractional_steps": ("time", "steps", 512.5),
    "string_steps": ("time", "steps", "512"),
    "bool_rank": ("bundle", "rank", True),
    "bool_tolerance": ("tolerances", "blago", True),
    "fractional_region_start": ("region", "start", 1.5),
    "fractional_count_option": ("options", "blago_pairs", 3.7),
    # the zero potential does not read the shift; the echo would hold NaN
    "nan_unread_potential_shift": ("bundle", "potential_shift", float("nan")),
    "misspelled_bundle_key": ("bundle", "potential_shfit", 0.2),
}
SCENE_ERRORS = {"cycle_count", "connection"}


def field_error_case(case_id, section, key, value):
    """(file bytes, extra CLI args, text the error must name) for one bad field."""
    raw = json.loads(json.dumps(BASE_CONFIG))
    if value is None:
        del raw[section][key]
    else:
        raw.setdefault(section, {})[key] = value
    where = section if case_id in SCENE_ERRORS else f"{section}.{key}"
    return pytest.param(json.dumps(raw).encode(), [], where, id=case_id)


BASE_BYTES = json.dumps(BASE_CONFIG).encode()


def top_level_case(case_id, where, **replace):
    """BASE_CONFIG with top-level fields replaced, as a field-error case."""
    return pytest.param(json.dumps({**BASE_CONFIG, **replace}).encode(), [], where, id=case_id)


@pytest.mark.parametrize("content, args, where", [
    field_error_case(case_id, *edit) for case_id, edit in FIELD_ERRORS.items()
] + [
    pytest.param(b"[]", ["--seed-override", "3"], "config", id="list_top_level_seed_override"),
    pytest.param(b'"x"', ["--seed-override", "3"], "config", id="string_top_level_seed_override"),
    pytest.param(json.dumps(BASE_CONFIG).encode("utf-16"), [], "config", id="not_utf8"),
    # an empty order list would leave the fractional checks nothing to compare
    top_level_case("empty_orders", "orders", orders=[]),
    # bundle.seed is set, so only the task seeds would read the negative seed
    top_level_case("negative_seed", "seed", seed=-3),
    pytest.param(BASE_BYTES, ["--seed-override", "-3"], "seed", id="negative_seed_override"),
    # json reads NaN; the shifted potential is then refused by the bundle
    top_level_case("nan_potential_shift", "bundle.potential_shift", bundle={
        **BASE_CONFIG["bundle"], "potential": "random_positive", "potential_shift": float("nan")}),
    top_level_case("bool_seed", "seed", seed=True),
    top_level_case("fractional_seed", "seed", seed=1.9),
    top_level_case("misspelled_top_level_key", "tolerance: unknown key",
                   tolerance={"blago": 1e-3}),
    # parses, and then the scene build refuses it
    top_level_case("arc_region_on_torus", "region: arc regions need a cycle manifold",
                   manifold={"kind": "torus_grid", "counts": [4, 4], "lengths": [4.0, 4.0]}),
])
def test_cli_config_error_exit_code(tmp_path, capsys, content, args, where):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and where in err


@pytest.mark.parametrize("key, value", [
    ("probe_delat", 0.3),  # a misspelled probe_delta
    # retired options, each with a value the parser once accepted
    ("gamma_quadrature", {"head_nodes": 48}),
    ("ray_bases", 4),
    ("chart", [2, 3]),
], ids=["misspelled", "gamma_quadrature", "ray_bases", "chart"])
def test_cli_unknown_option_exits_2(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, options={"blago_pairs": 12, key: value})
    code = main(["run", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"options.{key}: unknown option" in err
    assert not (tmp_path / "out").exists()


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 2


def test_cli_tolerance_failure_exit_code(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        tasks=["verify_spectral"],
        tolerances={"fractional_round_trip": 1e-30},
    )
    code = main(["run", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "overall: fail" in capsys.readouterr().out


def test_cli_unknown_flag_exits_2(tmp_path, capsys):
    # the BLAS thread count comes from the environment, not from a flag
    cfg_path = write_config(tmp_path, tasks=["verify_spectral"])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg_path, "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_linalg_error_is_recorded_per_task(monkeypatch):
    def breaks(scene, cfg):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setitem(runner._TASKS, "verify_spectral", (breaks, ("op",)))
    rep = run_experiment(parse_config(BASE_CONFIG))
    assert [t.status for t in rep.tasks] == ["error", "pass"]
    assert "positive definite" in rep.tasks[0].message


def test_any_exception_is_recorded_per_task(monkeypatch):
    def breaks(scene, cfg):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setitem(runner._TASKS, "verify_spectral", (breaks, ("op",)))
    rep = run_experiment(parse_config(BASE_CONFIG))
    assert [t.status for t in rep.tasks] == ["error", "pass"]
    assert rep.tasks[0].message == "ValueError: operands could not be broadcast"


def strict_report(out_dir):
    """report.json parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in report.json")

    text = (Path(out_dir) / "report.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=refuse)


def nan_at_calls(*calls):
    """Poison that makes the output of the given 1-based calls all-NaN."""
    return lambda out, call: out * np.nan if call in calls else out


def nan_third_potential(rec, call):
    """Poison that makes the potential at the third chart vertex NaN."""
    rec.potentials[2] = np.nan
    return rec


def nan_at_entry(i, j, *calls):
    """Poison that makes entry (i, j) NaN in the output of the given 1-based
    calls, or of every call when none is given."""
    def poison(out, call):
        if not calls or call in calls:
            out[i, j] = np.nan
        return out
    return poison


def nan_fourth_mode_at_second_time(out, call):
    """Poison that makes the fourth mode's quadrature and error NaN at the
    second transmutation time."""
    Q, E, err = out
    if call == 2:
        Q[3] = err[3] = np.nan
    return Q, E, err


def nan_in_second_solution(out, call):
    """Poison that makes entry (0, 0) of the second lstsq solution NaN."""
    if call == 2:
        out[0][0, 0] = np.nan
    return out


# one stage output goes NaN at a position that is not first:
# fault -> (task, follower task, owner of the stage, stage name, poison)
NAN_FAULTS = {
    # the heat times' blocks come in (op1, op2) pairs: calls 5 and 6 are the
    # third time's
    "gauge_heat_block": ("verify_gauge_equivariance", "verify_spectral", runner,
                         "heat_kernel_matrix", nan_at_calls(5, 6)),
    # the reference pairing fills G_direct row by row over 6 sources: call 9
    # is entry (1, 2)
    "blago_pairing_entry": ("verify_blago", "verify_spectral", runner, "l2_inner",
                            nan_at_calls(9)),
    # the same entry on the engine side: the ungated eigenvalue diagnostic
    # skips a non-finite Gram, so the blago gate itself fails the task
    "blago_engine_entry": ("verify_blago", "verify_spectral", runner, "blago_bilinear",
                           nan_at_entry(1, 2)),
    "operator_potential": ("reconstruct_operator", "verify_spectral", runner,
                           "recover_local_operator", nan_third_potential),
    # the third round-trip section; verify_spectral itself cannot follow
    "spectral_fractional_apply": ("verify_spectral", "verify_transmutation", runner,
                                  "fractional_apply", nan_at_entry(0, 0, 3)),
    "transmutation_quadrature": ("verify_transmutation", "verify_spectral", runner,
                                 "transmutation_gaussian_check", nan_fourth_mode_at_second_time),
    # the per-vertex fit of the second chart vertex
    "operator_lstsq": ("reconstruct_operator", "verify_spectral", np.linalg, "lstsq",
                       nan_in_second_solution),
}

# faults whose task must end fail, not error
NAN_FAILS = {"blago_engine_entry", "spectral_fractional_apply", "transmutation_quadrature",
             "operator_lstsq"}


@pytest.mark.parametrize("fault", sorted(NAN_FAULTS))
def test_nan_stage_output_never_passes(tmp_path, monkeypatch, fault):
    task, follower, owner, target, poison = NAN_FAULTS[fault]
    cfg_path = write_config(tmp_path, tasks=[task, follower])
    _, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "clean"))
    assert code == 0  # the fault, not the scene, fails the task below
    stage = getattr(owner, target)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(None)
        return poison(stage(*args, **kwargs), len(calls))

    monkeypatch.setattr(owner, target, faulty)
    report, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "out"))
    assert [t.status for t in report.tasks][1:] == ["pass"]
    assert report.tasks[0].status in ("fail", "error")
    if fault in NAN_FAILS:
        assert report.tasks[0].status == "fail"
    assert code == 1
    assert strict_report(tmp_path / "out")["passed"] is False


def test_nan_kernel_column_is_a_task_error_and_later_tasks_run(tmp_path, monkeypatch):
    def poisoned_map(*args):
        wmap = s2s.wave_map_assemble(*args)
        wmap.kernel[:, :, 3] = np.nan
        return wmap

    monkeypatch.setattr(runner, "wave_map_assemble", poisoned_map)
    cfg_path = write_config(tmp_path, tasks=["reconstruct_distances", "verify_spectral"])
    report, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "out"))
    assert [t.status for t in report.tasks] == ["error", "pass"]
    assert report.tasks[0].message == "kernel column is not finite"
    assert code == 1
    assert [t["status"] for t in strict_report(tmp_path / "out")["tasks"]] == ["error", "pass"]


def test_nan_probe_gram_is_a_task_error_and_later_tasks_run(tmp_path, monkeypatch):
    gram = reconstruction.family_gram

    def poisoned_gram(*args):
        G = gram(*args)
        G[5, 6] = G[6, 5] = np.nan
        return G

    monkeypatch.setattr(reconstruction, "family_gram", poisoned_gram)
    cfg_path = write_config(tmp_path, tasks=["reconstruct_distances", "verify_spectral"])
    report, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "out"))
    assert [t.status for t in report.tasks] == ["error", "pass"]
    assert report.tasks[0].message == "probe Gram is not finite"
    assert code == 1
    assert [t["status"] for t in strict_report(tmp_path / "out")["tasks"]] == ["error", "pass"]


def test_no_recovered_profile_is_a_task_failure_with_its_measures(tmp_path, monkeypatch):
    def nothing_recovered(eng, rays, arrivals):
        wmap = eng.wmap
        return reconstruction.DistanceProfileSet(
            region_vertices=wmap.local.vertices,
            profiles=np.zeros((0, len(wmap.local.vertices))), provenance=[],
            rays_skipped=0, lipschitz_dropped=0, duplicates_merged=0)

    monkeypatch.setattr(runner, "distance_family", nothing_recovered)
    cfg_path = write_config(tmp_path, tasks=["reconstruct_distances", "verify_spectral"])
    report, code = runner.run_from_file(cfg_path, out_dir=str(tmp_path / "out"))
    assert [t.status for t in report.tasks] == ["fail", "pass"]
    measures = report.tasks[0].measures
    assert measures["profiles_recovered"] == 0
    assert measures["profile_match_fraction"] == 0.0
    assert code == 1


def test_blago_reference_holds_at_most_two_full_sources(monkeypatch):
    # each full-manifold reference source is built as duhamel_states draws
    # it; at every build, count the earlier sources still alive
    section = runner.TimeSection
    built, alive = [], []

    def tracked(grid, values):
        src = section(grid, values)
        alive.append(1 + sum(ref() is not None for ref in built))
        built.append(weakref.ref(src.values))
        return src

    monkeypatch.setattr(runner, "TimeSection", tracked)
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["tasks"] = ["verify_blago"]
    report = run_experiment(parse_config(raw))
    assert report.tasks[0].status == "pass"
    assert len(built) == 6
    assert max(alive) <= 2


def seeded_dense_sources(scene, cfg, count):
    """verify_blago's seeded sources as a dense (count, N+1, |U| r) array: three
    bumps each, drawn as the task draws them and added into zeros."""
    rng = np.random.default_rng(cfg.seed + 2)
    grid, n, r, T = scene.grid, len(scene.region), scene.bundle.rank, cfg.horizon
    dense = np.zeros((count, len(grid), n, r), dtype=complex)
    for k in range(count):
        for _ in range(3):
            i, j = rng.integers(0, n), rng.integers(0, r)
            width = rng.uniform(0.1 * T, 0.3 * T)
            start = rng.uniform(0.0, T - width)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            dense[k, :, i, j] += amp * reconstruction.bump_profile(grid.times, start, width)
    return dense.reshape(count, len(grid), n * r)


def test_blago_engine_gram_is_the_dense_pairing_bit_for_bit():
    # verify_blago pairs its seeded sources as delta columns; the same sources
    # made dense pair to the same Gram, entry for entry, and so to the same
    # gram_min_eigenvalue_over_trace
    cfg = parse_config(dict(SMALL_TORUS, tasks=["verify_blago"]))
    scene = runner._Scene(cfg)
    measures, gates, tables = runner._task_verify_blago(scene, cfg)
    assert measures["blago"] < gates["blago"]
    dense = seeded_dense_sources(scene, cfg, 15)
    got, got_owners = runner._seeded_pair_sources(scene, cfg, 15,
                                                  np.random.default_rng(cfg.seed + 2))
    want, want_owners = delta_columns(dense)
    for a, b in ((got.profiles, want.profiles), (got.profile, want.profile),
                 (got.component, want.component), (got_owners, want_owners)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    G = dense_pairing(scene.wmap, dense, dense)
    header, rows = tables["blago_pairs"]
    assert len(rows) == 100
    for i, j, _, _, engine_re, engine_im, _ in rows:
        assert (engine_re, engine_im) == (float(G[i, j].real), float(G[i, j].imag))
    ev = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    assert measures["gram_min_eigenvalue_over_trace"] == float(ev.min() / np.trace(G).real)


def test_blago_sources_stage_holds_no_dense_source_array():
    # 15 sources of three bumps on an 18-component region are at most 45
    # profiles, well under the dense (15, N+1, 18) complex array
    cfg = parse_config(dict(SMALL_TORUS, tasks=["verify_blago"]))
    scene = runner._Scene(cfg)
    dense_bytes = 15 * len(scene.grid) * 18 * 16
    rng = np.random.default_rng(cfg.seed + 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        columns = runner._seeded_pair_sources(scene, cfg, 15, rng)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes
    sources, owners = columns
    assert sources.profiles.shape == (len(sources), len(scene.grid)) and len(owners) <= 45


def run_with_capped_address_space(cfg_path, out_dir):
    """`fracbundle run` in a child whose address space is capped at 1 GiB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS caps the address space only on Linux")
    import resource
    cap = 1 << 30

    def cap_address_space():  # runs in the child only, before exec
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(fracbundle.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "fracbundle.cli", "run", cfg_path, "--out", str(out_dir)],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=300)


def test_cli_out_of_memory_is_a_task_error(tmp_path):
    # 200000 steps over the whole 16-cycle estimate a 1.2 GiB working set,
    # inside the budget, so the config parses; the wave map's 0.38 GiB
    # packed stacks then fail to allocate under the 1 GiB cap.  The blago
    # task is an error with the allocation message, and the task that
    # passed before it is still in the report
    cfg_path = write_config(tmp_path, region={"type": "arc", "start": 0, "count": 16},
                            time={"horizon": 4.5, "steps": 200000})
    proc = run_with_capped_address_space(cfg_path, tmp_path / "out")
    assert proc.returncode == 1, proc.stderr
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    status = {t["name"]: (t["status"], t["message"]) for t in payload["tasks"]}
    assert status["verify_spectral"][0] == "pass"
    assert status["verify_blago"][0] == "error"
    assert "allocate" in status["verify_blago"][1]
    assert "verify_blago: error" in proc.stdout


def test_cli_lead_step_past_the_budget_exits_2(tmp_path):
    # a 1e-9 lead step asks for 2.3e10 probes, a probe Gram of about
    # 7.6e12 GiB: the config is rejected, naming the lead step, before
    # anything is allocated
    cfg_path = write_config(tmp_path, tasks=["verify_spectral", "reconstruct_distances"],
                            options={"probe_lead_step": 1e-9})
    proc = run_with_capped_address_space(cfg_path, tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert "options.probe_lead_step" in proc.stderr and "budget" in proc.stderr
    assert not (tmp_path / "out").exists()


@st.composite
def oversized_configs(draw):
    """(raw, field): BASE_CONFIG with one scale field far past the working-set
    budget, and the field the config error must name."""
    raw = json.loads(BASE_BYTES)
    field = draw(st.sampled_from(["manifold", "time.steps", "options.probe_lead_step"]))
    if field == "manifold":
        raw["manifold"]["count"] = draw(st.integers(2**15, 2**40))
    elif field == "time.steps":
        raw["time"]["steps"] = 2 * draw(st.integers(2**31, 2**49))
    else:
        # the horizon spans several probe widths (1.5 mesh lengths, 0.59),
        # so the lead ladder is not empty
        raw["tasks"] = ["verify_spectral", "reconstruct_distances"]
        raw["time"]["horizon"] = draw(st.floats(3.0, 12.0))
        raw["options"] = {"probe_lead_step": draw(st.floats(1e-12, 1e-9))}
    return raw, field


@settings(max_examples=30, deadline=None)
@given(case=oversized_configs())
def test_cli_scale_field_past_the_budget_exits_2_before_allocating(case):
    raw, field = case
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                code = main(["run", path, "--out", os.path.join(work, "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not os.path.exists(os.path.join(work, "out"))
    assert code == 2
    assert "config error" in err.getvalue() and field in err.getvalue()
    # the smallest of these configs asks for a 16 GiB eigh
    assert peak < 1 << 20


def test_gauge_task_assembles_no_wave_map(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return s2s.wave_map_assemble(*args)

    monkeypatch.setattr(runner, "wave_map_assemble", counted)
    cfg = parse_config(dict(BASE_CONFIG, tasks=["verify_gauge_equivariance"],
                            bundle={"rank": 2, "connection": "random",
                                    "potential": "random_positive", "seed": 4}))
    measures, gates, _ = runner._task_verify_gauge_equivariance(runner._Scene(cfg), cfg)
    assert calls == []
    assert all(measures[k] < bound for k, bound in gates.items())


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, tasks=["verify_spectral"])
    monkeypatch.setenv("FRACBUNDLE_OUT", str(tmp_path / "envout"))
    code = main(["run", cfg_path])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_cli_seed_override_changes_echo(tmp_path):
    cfg_path = write_config(tmp_path, tasks=["verify_spectral"])
    main(["run", cfg_path, "--out", str(tmp_path / "a"), "--seed-override", "123"])
    payload = json.loads((tmp_path / "a" / "report.json").read_text())
    assert payload["seed"] == 123
    assert payload["config"]["seed"] == 123  # echo suffices to re-run exactly


# -- exit-code contract on random configs ------------------------------------------

CHEAP_TASKS = ["verify_spectral", "verify_transmutation", "verify_blago",
               "verify_gauge_equivariance"]
MISSING = object()

# bad values per (section, key); section None is the top level
BAD_VALUES = {
    ("manifold", "kind"): ["sphere", 3, None, MISSING],
    ("manifold", "count"): [2, 0, -3, 2.5, "many", None, MISSING],
    ("manifold", "length"): [0.0, -1.0, float("inf"), float("nan"), "long", MISSING],
    ("bundle", "rank"): [0, -1, 1.5, "two", None, [1]],
    ("bundle", "connection"): ["bogus", "explicit", 7],
    ("bundle", "potential"): ["bogus", "explicit", None],
    ("bundle", "seed"): [-1, "abc", 1.5],
    ("region", "type"): ["disc", "block", 4],
    ("region", "start"): [-1, 1.5, "x", None],
    ("region", "count"): [0, -2, 100, "x", None, MISSING],
    ("time", "horizon"): [0.0, -1.0, float("inf"), float("nan"), "long", None],
    ("time", "steps"): [0, 3, 7, 4.5, "many", None],
    (None, "tasks"): [[], "verify_spectral", ["explode"], [5], ["verify_blago"] * 2, None, MISSING],
    (None, "orders"): [[1.5], [0.0], [float("nan")], "0.5", [None], 3],
    (None, "seed"): ["s", None, [1], 1.5],
    (None, "tolerances"): [{"blago": "tight"}, {"nope": 1.0}, {"blago": -1.0}, {"blago": 0.0},
                           {"profile_match_fraction": 1.5}, [], "x"],
    (None, "options"): [{"blago_pairs": "many"}, {"blago_pairs": -5}, {"blago_pairs": 0},
                        {"round_trip_sections": -1}, {"eta": float("nan")}, 5,
                        {"blago_pairs": float("inf")},
                        {"gamma_quadrature": {"bogus": 1}},
                        {"gamma_quadrature": {"head_nodes": "x"}}, {"gamma_quadrature": 3},
                        {"transmutation_times": ["x"]}, {"transmutation_times": 0.5}],
    (None, "manifold"): [[], "cycle", None, MISSING],
    (None, "time"): [[], 4.5, MISSING],
}
MUTATIONS = [(field, bad) for field, values in BAD_VALUES.items() for bad in values]


@st.composite
def mutated_configs(draw):
    """A small valid config on a 4-12 vertex cycle with one field set to a bad value."""
    n = draw(st.integers(4, 12))
    raw = {
        "manifold": {"kind": "cycle", "count": n, "length": draw(st.floats(1.0, 10.0))},
        "bundle": {"rank": draw(st.integers(1, 2)),
                   "connection": draw(st.sampled_from(["trivial", "random"])),
                   "potential": draw(st.sampled_from(["zero", "random_positive"])),
                   "seed": draw(st.integers(0, 99))},
        "region": {"type": "arc", "start": draw(st.integers(0, n - 1)),
                   "count": draw(st.integers(1, n))},
        "orders": [0.5],
        "time": {"horizon": draw(st.floats(0.5, 3.0)), "steps": 2 * draw(st.integers(4, 24))},
        "tasks": draw(st.lists(st.sampled_from(CHEAP_TASKS), min_size=1, max_size=2, unique=True)),
        "seed": draw(st.integers(0, 99)),
        "options": {"blago_pairs": draw(st.integers(1, 4))},
    }
    (section, key), bad = draw(st.sampled_from(MUTATIONS))
    target = raw if section is None else raw[section]
    if bad is MISSING:
        target.pop(key, None)
    else:
        target[key] = bad
    return raw


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=mutated_configs())
def test_cli_random_bad_config_exits_with_a_contract_code(raw):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        code = main(["run", path, "--out", os.path.join(work, "out")])
    assert code in (0, 1, 2)


@st.composite
def valid_configs(draw):
    """A valid config on an 8-12 vertex cycle with a short grid and random tasks."""
    n = draw(st.integers(8, 12))
    raw = {
        "manifold": {"kind": "cycle", "count": n, "length": draw(st.floats(4.0, 12.0))},
        "bundle": {"rank": draw(st.integers(1, 2)),
                   "connection": draw(st.sampled_from(["trivial", "random"])),
                   "potential": draw(st.sampled_from(["zero", "random_positive"])),
                   "seed": draw(st.integers(0, 99))},
        "region": {"type": "arc", "start": draw(st.integers(0, n - 1)),
                   "count": draw(st.integers(3, n))},
        "orders": draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=2)),
        "time": {"horizon": draw(st.floats(0.5, 2.0)), "steps": 2 * draw(st.integers(4, 16))},
        "tasks": draw(st.lists(st.sampled_from(list(runner._TASKS)), min_size=1, max_size=3,
                               unique=True)),
        "seed": draw(st.integers(0, 99)),
        "tolerances": draw(st.dictionaries(
            st.sampled_from(["blago", "fractional_round_trip", "profile_match_fraction"]),
            st.floats(1e-12, 1.0), max_size=2)),
        "options": {"blago_pairs": draw(st.integers(1, 4)),
                    "round_trip_sections": draw(st.integers(1, 4)),
                    "transmutation_times": draw(st.lists(st.floats(0.01, 10.0),
                                                         min_size=1, max_size=2))},
    }
    return raw


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=valid_configs())
def test_cli_random_valid_config_exits_0_or_1_and_reruns_exactly(raw):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        measures = []
        for run in ("a", "b"):
            out = os.path.join(work, run)
            assert main(["run", path, "--out", out]) in (0, 1)
            tasks = strict_report(out)["tasks"]
            measures.append(json.dumps([t["measures"] for t in tasks], sort_keys=True))
    assert measures[0] == measures[1]


# numeric fields of valid_configs' configs: (section, key, integer field);
# section None is the top level
NUMBER_FIELDS = [
    ("manifold", "count", True), ("manifold", "length", False), ("bundle", "rank", True),
    ("bundle", "seed", True), ("bundle", "potential_scale", False),
    ("region", "start", True), ("region", "count", True), ("time", "horizon", False),
    ("time", "steps", True), (None, "seed", True), ("tolerances", "blago", False),
    ("options", "blago_pairs", True), ("options", "eta", False),
]
SECTIONS = [None, "manifold", "bundle", "region", "time", "tolerances", "options"]


@st.composite
def refused_configs(draw):
    """(raw, field): a valid config with one field made bad (a non-finite
    number, a bool, a non-integral size, or an unknown key in a random
    section), and the field the config error must name."""
    raw = draw(valid_configs())
    bad = draw(st.sampled_from(["non_finite", "bool", "non_integral", "unknown_key"]))
    if bad == "unknown_key":
        # no config key starts with x_
        section = draw(st.sampled_from(SECTIONS))
        key = "x_" + draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12))
        value = draw(st.one_of(st.integers(), st.floats(-1e3, 1e3), st.text(max_size=4)))
    else:
        section, key, _ = draw(st.sampled_from(
            [f for f in NUMBER_FIELDS if f[2] or bad != "non_integral"]))
        if bad == "non_finite":
            value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif bad == "bool":
            value = draw(st.booleans())
        else:
            value = draw(st.integers(-4, 40)) + draw(st.sampled_from([0.5, 0.25, 1e-6]))
    target = raw if section is None else raw.setdefault(section, {})
    target[key] = value
    return raw, key if section is None else f"{section}.{key}"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=refused_configs())
def test_cli_bad_number_or_unknown_key_exits_2_naming_the_field(case):
    raw, field = case
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", path, "--out", os.path.join(work, "out")])
        assert not os.path.exists(os.path.join(work, "out"))
    assert code == 2
    assert f"config error: {field}: " in err.getvalue()
