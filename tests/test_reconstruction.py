"""Inverse pipeline: containments, distances, operator recovery."""

import ast
import dataclasses
import itertools
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbundle import propagators, reconstruction, s2s
from fracbundle.bundle import GaugeTransform, HermitianBundle, apply_gauge, build_bundle
from fracbundle.errors import ReconstructionError
from fracbundle.manifold import Region, build_manifold, shortest_distances
from fracbundle.operator import assemble
from fracbundle.propagators import TimeGrid, TimeSection, duhamel_solve
from fracbundle.reconstruction import (
    _box_curve,
    _cut_time_curve,
    _exterior_curve,
    _first_accept,
    _shell_width,
    _sweep_radius,
    RIDGE_FACTOR,
    ProbeConfig,
    ProbeEngine,
    RayPlan,
    build_source_family,
    cut_time_estimate,
    distance_family,
    exterior_distance,
    family_gram,
    first_arrival_matrix,
    gauge_invariant_compare,
    match_profiles,
    ray_point,
    recover_local_operator,
)
from fracbundle.reference import chart_operator_from_bundle
from fracbundle.s2s import WaveMapData, blago_bilinear, wave_map_assemble

from dense_sources import dense_gram, region_values


def bump(times, center, width):
    u = (times - (center - width / 2)) / width
    prof = np.zeros_like(times)
    inside = (u > 0) & (u < 1)
    prof[inside] = np.sin(np.pi * u[inside]) ** 4
    return prof


def cycle32(b):
    """(m, b, op, U, wmap, cfg, h) of a line bundle b on cycle32_manifold: the
    region is the first 10 vertices and the map grid has 768 steps to t = 9."""
    m = b.manifold
    op = assemble(b)
    U = Region(m, tuple(range(10)))
    grid = TimeGrid(9.0, 768)
    wmap = wave_map_assemble(op, U, grid)
    h = 2 * np.pi / m.num_vertices
    cfg = ProbeConfig(delta=1.2 * h, lead_step=h, width=1.5 * h)
    return m, b, op, U, wmap, cfg, h


def cycle32_manifold():
    """The 32-cycle of circumference 2 pi."""
    return build_manifold({"kind": "cycle", "count": 32, "length": 2 * np.pi})


@pytest.fixture(scope="module")
def cycle32_scene():
    """Trivial line bundle on a 32-cycle of circumference 2 pi."""
    return cycle32(build_bundle(cycle32_manifold(), 1))


@pytest.fixture(scope="module")
def cycle32_engine(cycle32_scene):
    """The probe engine of cycle32_scene's map, shared as the map is."""
    m, b, op, U, wmap, cfg, h = cycle32_scene
    return ProbeEngine(wmap, cfg)


@pytest.fixture(scope="module")
def complex_cycle32_scene():
    """The cycle32_scene geometry with a random connection and a random
    positive potential: a complex line bundle, so the probe Gram is complex."""
    return cycle32(build_bundle(cycle32_manifold(), 1, connection="random",
                                potential="random_positive", seed=7))


@pytest.fixture(scope="module")
def complex_cycle32_engine(complex_cycle32_scene):
    m, b, op, U, wmap, cfg, h = complex_cycle32_scene
    return ProbeEngine(wmap, cfg)


@pytest.fixture(scope="module")
def torus_scene():
    """Rank-1 bundle with random phases and positive potential on an 8x8 torus."""
    m = build_manifold({"kind": "torus_grid", "counts": [8, 8], "lengths": [8.0, 8.0]})
    rng = np.random.default_rng(123)
    E = len(m.edges)
    tr = np.exp(1j * rng.uniform(-np.pi, np.pi, E)).reshape(E, 1, 1)
    pot = (0.3 + 0.4 * rng.random(m.num_vertices)).reshape(-1, 1, 1).astype(complex)
    b = HermitianBundle(m, 1, tr, pot)
    op = assemble(b)
    U = Region(m, tuple(i * 8 + j for i in range(4) for j in range(4)))
    grid = TimeGrid(12.0, 1200)
    wmap = wave_map_assemble(op, U, grid)
    cfg = ProbeConfig(delta=1.2, lead_step=0.5, width=1.0)
    return m, b, op, U, wmap, cfg


# -- projection residuals -----------------------------------------------------

def engine_residuals(wmap, targets, spans):
    """The _box_curve of the source targets against every leading block of
    the source spans, on their Gram at the engine's ridge (read through a
    stand-in engine that carries only gram and reg); also returns the Gram
    and the ridge."""
    G = dense_gram(wmap, np.stack([region_values(s, wmap.local.vertices)
                                   for s in [*targets, *spans]]))
    reg = RIDGE_FACTOR * np.trace(G).real / len(G)
    nt = len(targets)
    n_span = np.arange(len(G) - nt + 1)
    res = _box_curve(SimpleNamespace(gram=G, reg=reg), np.arange(nt, len(G)), np.arange(nt),
                     n_span, np.full(len(n_span), nt))
    return res, G, reg


def package_imports(path):
    """Modules of the fracbundle package that a source file imports, at any
    depth and in any import form."""
    names = []
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "fracbundle" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names += [f"{base}.{a.name}" for a in node.names]
    parts = [name.split(".") for name in names]
    return {p[1] if len(p) > 1 else p[0] for p in parts if p[0] == "fracbundle"}


def test_reconstruction_reads_only_map_data_modules(tmp_path):
    # the data boundary: the inverse pipeline sees the map data (s2s), the
    # errors and the time rules, never the operator, bundle or solvers
    allowed = {"s2s", "errors", "timequad"}
    assert package_imports(reconstruction.__file__) <= allowed
    leaky = tmp_path / "leaky.py"
    for line, name in (("from .operator import assemble", "operator"),
                       ("from . import propagators", "propagators"),
                       ("def f():\n    from fracbundle.bundle import build_bundle", "bundle"),
                       ("import fracbundle.manifold as mf", "manifold")):
        leaky.write_text(line + "\n", encoding="utf-8")
        assert package_imports(leaky) == {name}


def test_projection_residual_self_and_empty(cycle32_scene):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    grid = wmap.grid
    def src(vloc, c, w):
        vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
        vals[:, U.vertices[vloc], 0] = bump(grid.times, c, w)
        return TimeSection(grid, vals)
    f1 = src(2, 1.0, 0.5)
    f2 = src(5, 1.5, 0.6)
    f3 = src(7, 2.0, 0.5)
    res, G, reg = engine_residuals(wmap, [f1], [f1, f2, f3])
    assert res[0] == 1.0  # the empty span
    # member of its own span: only the ridge is left, |res|^2 <= reg / |f1|^2
    assert res[-1] <= np.sqrt(reg / G[0, 0].real) * (1 + 1e-6)
    assert res[-1] < 1e-3


def test_projection_residual_far_target(cycle32_scene):
    # target emitted on the far side of the circle: the span cannot reach it
    m, b, op, U, wmap, cfg, h = cycle32_scene
    grid = wmap.grid
    vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
    vals[:, U.vertices[9], 0] = bump(grid.times, wmap.horizon - 0.3, 0.25)
    target = TimeSection(grid, vals)
    spans = []
    for vloc in (0, 1):
        sv = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
        sv[:, U.vertices[vloc], 0] = bump(grid.times, wmap.horizon - 0.3, 0.25)
        spans.append(TimeSection(grid, sv))
    res = engine_residuals(wmap, [target], spans)[0]
    assert res[-1] > 0.9
    # direct oracle agrees that the states are nearly orthogonal
    wt = duhamel_solve(op, target).values[wmap.half_index]
    overlaps = []
    for sp in spans:
        ws = duhamel_solve(op, sp).values[wmap.half_index]
        num = abs(np.vdot(wt, ws))
        overlaps.append(num / (np.linalg.norm(wt) * np.linalg.norm(ws)))
    assert max(overlaps) < 0.1


# -- containment ---------------------------------------------------------------

def test_containment_nested_balls_true(cycle32_scene, cycle32_engine):
    h = cycle32_scene[-1]
    assert cycle32_engine.containment(5, 4 * h, [(5, 5 * h)])


def test_containment_tiny_union_false(cycle32_scene, cycle32_engine):
    h = cycle32_scene[-1]
    # B(5, 8h) reaches beyond the union of two barely-positive balls
    assert not cycle32_engine.containment(5, 8 * h, [(5, 2 * h), (3, 2 * h)])


def test_containment_reads_a_union_of_three_balls(cycle32_scene, cycle32_engine, monkeypatch):
    # B(5, 6h) reaches past each of three balls alone but not past their
    # union; the span is the first box, then the later boxes' new members
    # in lead order
    h = cycle32_scene[-1]
    eng = cycle32_engine
    balls = [(5, 3 * h), (2, 4 * h), (8, 4 * h)]
    for ball in balls:
        assert not eng.containment(5, 6 * h, [ball])
    boxes = [eng.box_indices(c, tau) for c, tau in balls]
    spans = []

    def recorded(target_idx, span_idx):
        spans.append(span_idx)
        return max_residual(target_idx, span_idx)

    max_residual = eng.max_residual
    monkeypatch.setattr(eng, "max_residual", recorded)
    assert eng.containment(5, 6 * h, balls)
    seen = list(boxes[0])
    for box in boxes[1:]:
        seen += [i for i in box if i not in seen]
    assert np.array_equal(spans[0], seen) and len(seen) > len(boxes[0])


def test_an_empty_union_never_contains(cycle32_scene, cycle32_engine):
    h = cycle32_scene[-1]
    assert cycle32_engine.containment(5, 4 * h, []) is False
    with pytest.raises(ReconstructionError, match="must exceed the probe delta"):
        cycle32_engine.containment(5, 4 * h, [(5, 0.5 * h)])


def test_containment_monotone_in_union_radius(cycle32_scene, cycle32_engine):
    # no true -> false flip when the union ball is enlarged (verdict level;
    # raw residuals share a quadrature floor where tiny wiggles are legal)
    h = cycle32_scene[-1]
    eng = cycle32_engine
    tau_x = 6 * h
    seen_true = False
    prev_res = None
    for tau_y in (3 * h, 5 * h, 7 * h, 9 * h, 12 * h):
        verdict = eng.containment(4, tau_x, [(4, tau_y)])
        if seen_true:
            assert verdict
        seen_true = seen_true or verdict
        res = eng.max_residual(eng.box_indices(4, tau_x), eng.box_indices(4, tau_y))
        if prev_res is not None and prev_res > 0.01:
            assert res <= prev_res * 1.05  # monotone above the floor
        prev_res = res
    assert seen_true


def _direct_residual(gram, target_idx, span_idx, reg):
    """Largest target residual from a fresh factorization and solve of the span."""
    t = np.asarray(target_idx, dtype=np.int64)
    s = np.asarray(span_idx, dtype=np.int64)
    if len(s) == 0:
        return np.ones(len(t))
    L = np.linalg.cholesky(gram[np.ix_(s, s)] + reg * np.eye(len(s)))
    y = np.linalg.solve(L, gram[np.ix_(s, t)])
    norms = np.real(np.diag(gram))[t]
    proj = np.sum(np.abs(y) ** 2, axis=0)
    return np.sqrt(np.clip((norms - proj) / norms, 0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_box_curve_matches_per_prefix_solves(data):
    # real and complex Grams, read through a stand-in engine; the factor
    # works in place on a gathered copy, so the Gram must come back untouched
    m = data.draw(st.integers(2, 9), label="family size")
    k = data.draw(st.integers(1, m + 2), label="Gram rank bound")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.standard_normal((k, m))
    if data.draw(st.booleans(), label="complex"):
        A = A + 1j * rng.standard_normal((k, m))
    G = A.conj().T @ A
    G_in = G.copy()
    reg = data.draw(st.floats(1e-3, 1e-1), label="reg factor") * np.trace(G).real / m
    order = data.draw(st.permutations(range(m)), label="span order")
    span = np.asarray(order[:data.draw(st.integers(0, m), label="span size")], dtype=np.int64)
    targets = np.asarray(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                                            unique=True), label="targets"), dtype=np.int64)
    # radii as box sizes: non-decreasing span prefixes and target prefixes,
    # the first rows possibly with no target at all
    n_rows = data.draw(st.integers(1, 6), label="radii")
    n_span = sorted(data.draw(st.lists(st.integers(0, len(span)), min_size=n_rows,
                                       max_size=n_rows), label="span sizes"))
    n_empty = data.draw(st.integers(0, n_rows), label="radii with no target")
    n_tgt = [0] * n_empty + sorted(data.draw(st.lists(
        st.integers(1, len(targets)), min_size=n_rows - n_empty, max_size=n_rows - n_empty),
        label="target sizes"))
    eng = SimpleNamespace(gram=G, reg=reg)
    curve = _box_curve(eng, span, targets, n_span, n_tgt)
    assert np.array_equal(G, G_in)
    assert curve.shape == (n_rows,)
    assert np.all(curve[:n_empty] == 1.0)
    direct = [np.max(_direct_residual(G, targets[:nt], span[:ns], reg)) if nt else 1.0
              for ns, nt in zip(n_span, n_tgt)]
    assert np.max(np.abs(curve - direct)) <= 1e-10
    assert np.all((curve >= 0.0) & (curve <= 1.0))
    # with every target at every radius, a longer prefix never projects less
    every = np.arange(len(span) + 1)
    full = _box_curve(eng, span, targets, every, np.full(len(every), len(targets)))
    assert np.all(np.diff(full) <= 0.0)
    # shifted down by more than reg plus the trace (which bounds every
    # eigenvalue), every bordered matrix is negative definite
    shift = reg + data.draw(st.floats(1.01, 4.0), label="shift factor") * np.trace(G).real
    G_ind = G - shift * np.eye(m)
    G_ind_in = G_ind.copy()
    with pytest.raises(ReconstructionError, match="not positive definite"):
        _box_curve(SimpleNamespace(gram=G_ind, reg=reg), span, targets, n_span, n_tgt)
    assert np.array_equal(G_ind, G_ind_in)


def sweep_curves(eng, h, s):
    """Exterior and cut-time curves at x, y, z = 4, 5, 0, the sweeps checked below."""
    wmap, cfg = eng.wmap, eng.cfg
    x, y, z = 4, 5, 0
    exterior = _exterior_curve(eng, ray_point(eng, x, y, s, 8 * h), z)
    cut_grid = np.arange(s + cfg.delta + h / 2, wmap.horizon - cfg.delta, h / 2)
    return exterior, _cut_time_curve(eng, x, y, s, cut_grid)


@pytest.fixture(scope="module")
def gauged_cycle32(cycle32_scene):
    """The cycle32 map data under a random gauge: complex map data and Gram."""
    m, b, op, U, wmap, cfg, h = cycle32_scene
    gauge = GaugeTransform.random(np.random.default_rng(17), m.num_vertices, 1)
    return wave_map_assemble(assemble(apply_gauge(b, gauge)), U, wmap.grid)


@pytest.fixture(scope="module")
def gauged_cycle32_engine(cycle32_scene, gauged_cycle32):
    return ProbeEngine(gauged_cycle32, cycle32_scene[5])


def test_probe_boxes_come_in_lead_order(cycle32_scene, cycle32_engine, gauged_cycle32_engine):
    # the sweeps read a smaller box as a leading block of a larger one, with
    # no sort: the family is lead-major and select returns ascending indices.
    # A box is a slice of its center's ball table, cut exactly where select
    # cuts, also at radii on a lead and within 1e-13 of it
    m, b, op, U, wmap, cfg, h = cycle32_scene
    for eng in (cycle32_engine, gauged_cycle32_engine):
        data = eng.wmap
        fam = eng.family
        assert np.all(np.diff(fam.lead) >= 0)
        for x in range(data.local.size):
            ball = data.local.local_ball(x, cfg.delta)
            for radius in (cfg.delta + cfg.width, cfg.delta + eng.leads[len(eng.leads) // 2],
                           cfg.delta + eng.leads[-1]):
                idx = eng.box_indices(x, radius)
                assert len(idx) > 0 and np.all(np.diff(idx) > 0)
                assert np.all(np.diff(fam.lead[idx]) >= 0)
            for lead in eng.leads:
                for radius in (cfg.delta + lead - 1e-13, cfg.delta + lead, cfg.delta + lead + 1e-13):
                    assert np.array_equal(eng.box_indices(x, radius),
                                          fam.select(ball, radius - cfg.delta))
    assert gauged_cycle32_engine.gram.dtype == np.complex128


def test_probe_engine_builds_no_probe_responses(cycle32_scene, monkeypatch):
    m, b, op, U, wmap, cfg, h = cycle32_scene

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe Gram must not build response series")

    monkeypatch.setattr(WaveMapData, "respond", forbidden)
    monkeypatch.setattr(propagators, "mode_convolve", forbidden)
    monkeypatch.setattr(s2s, "mode_convolve", forbidden)
    eng = ProbeEngine(wmap, cfg)  # a fresh engine, built under the patches
    assert eng.gram.shape == (len(eng.family), len(eng.family))


def test_family_gram_builds_no_square_time_array():
    # the pairing builds no (N+1) x (N+1) time array, which at N = 1000 is
    # 8.0 MB
    m = build_manifold({"kind": "cycle", "count": 3, "length": 3.0})
    grid = TimeGrid(4.0, 1000)
    wmap = wave_map_assemble(assemble(build_bundle(m, 1)), Region(m, (0, 1, 2)), grid)
    fam = build_source_family(wmap, range(3), [1.0, 1.5, 2.0], 1.0)
    tracemalloc.start()
    try:
        G = family_gram(wmap, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (9, 9)
    assert peak < len(grid) ** 2 * 8


@pytest.fixture(scope="module")
def cycle64_family():
    """560 probes: 35 leads over a 16-vertex arc of a trivial 64-cycle."""
    m = build_manifold({"kind": "cycle", "count": 64, "length": 32.0})
    grid = TimeGrid(9.0, 320)
    wmap = wave_map_assemble(assemble(build_bundle(m, 1)), Region(m, tuple(range(16))), grid)
    fam = build_source_family(wmap, range(16), 1.0 + 0.1 * np.arange(35), 1.0)
    assert len(fam) == 560
    return wmap, fam


def test_source_family_holds_one_profile_row_per_lead(cycle64_family):
    # 560 probes share 35 bumps: the family holds those, not one row a probe
    wmap, fam = cycle64_family
    src = fam.sources
    assert src.profiles.shape == (35, len(wmap.grid))
    assert len(src) == len(fam) == 560
    assert np.array_equal(src.profile, np.repeat(np.arange(35), 16))


def test_family_gram_works_inside_its_output(cycle64_family):
    # the pairing writes each lag-table block into the (m, m) output, which
    # family_gram hermitizes in place: above its inputs it holds the output,
    # one full fold and one block at a time
    wmap, fam = cycle64_family
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        G = family_gram(wmap, fam)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (G.nbytes + wmap.conv_a.nbytes)


def test_family_gram_is_the_hermitized_pairing_bit_for_bit(cycle64_family):
    wmap, fam = cycle64_family
    G = blago_bilinear(wmap, fam.sources, fam.sources)
    gram = family_gram(wmap, fam)
    assert np.array_equal(gram, 0.5 * (G + G.conj().T))
    assert np.array_equal(gram, gram.conj().T)


def test_family_gram_is_float64_exactly_on_real_map_data(cycle32_scene, complex_cycle32_scene):
    # the pairing decides the Gram's dtype: a probe family on the trivial
    # bundle's real map pairs in real arithmetic end to end and gives
    # float64, and the complex bundle's map gives complex128.  Real profiles
    # at a few components of the real map pair through the few-component
    # path, which stays complex128 and agrees with the float64 rows
    grams = {}
    for scene in (cycle32_scene, complex_cycle32_scene):
        wmap, cfg = scene[4], scene[5]
        leads = cfg.width + cfg.lead_step * np.arange(3)
        fam = build_source_family(wmap, range(wmap.local.size), leads, cfg.width)
        grams[scene is cycle32_scene] = fam, family_gram(wmap, fam)
    assert grams[False][1].dtype == np.complex128 and np.any(grams[False][1].imag)
    fam, gram = grams[True]
    assert gram.dtype == np.float64
    src = fam.sources
    few = s2s.DeltaSources(src.profiles, src.profile[:4], src.component[:4])
    G = blago_bilinear(cycle32_scene[4], few, src)
    assert G.dtype == np.complex128
    assert np.max(np.abs(G - gram[:4])) <= 1e-10 * np.max(np.abs(gram))


def test_family_gram_hermitizes_within_less_than_one_gram(monkeypatch):
    # the pairing's output is hermitized in place, a panel of rows at a
    # time: the extra memory stays under one full Gram, and every entry is
    # (a + conj b) / 2 as G += G^H, G *= 0.5 gives it
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))
    G = raw.copy()
    monkeypatch.setattr(reconstruction, "blago_bilinear", lambda wmap, F, H: G)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gram = family_gram(None, SimpleNamespace(sources=None))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert gram is G
    assert peak < G.nbytes
    want = raw.copy()
    want += want.conj().T
    want *= 0.5
    assert np.array_equal(gram, want)
    assert np.array_equal(gram, gram.conj().T)


def test_probe_engine_gram_real_exactly_when_data_real(cycle32_scene, cycle32_engine,
                                                       gauged_cycle32_engine):
    # the trivial bundle gives exactly real map data and a float64 Gram; a
    # random gauge makes the data complex, and the complex engine must give
    # the same sweeps (the gauge is a diagonal unitary congruence of the Gram)
    m, b, op, U, wmap, cfg, h = cycle32_scene
    eng = cycle32_engine
    assert eng.gram.dtype == np.float64
    eng_g = gauged_cycle32_engine
    assert eng_g.gram.dtype == np.complex128 and np.any(eng_g.gram.imag)
    s = first_arrival_matrix(wmap, cfg.eta)[5, 4]
    for real, gauged in zip(sweep_curves(eng, h, s), sweep_curves(eng_g, h, s)):
        assert np.max(np.abs(real - gauged)) <= 1e-8
    assert np.min(real) < 0.05 < np.max(real)  # the cut-time sweep crosses the verdict scale


def test_sweep_curves_match_sorted_union_spans(cycle32_scene, cycle32_engine, monkeypatch):
    # the prefix curves of both sweeps against one factorization per radius
    # over the sorted-union spans, at the engine ridge.  These span Grams
    # have condition ~3e9, so two orderings of the same factorization differ
    # by up to ~1e-9 in double precision; a prefix-count error moves the
    # curve by 1e-6 or more.
    import fracbundle.reconstruction as recon

    m, b, op, U, wmap, cfg, h = cycle32_scene
    eng = cycle32_engine
    eps = _shell_width(wmap)
    x, y = 4, 5
    s = first_arrival_matrix(wmap, cfg.eta)[y, x]
    r_prime = 8 * h
    r_grid = np.arange(cfg.delta + h / 2, wmap.horizon - cfg.delta, h / 2)
    t_idx = eng.box_indices(y, r_prime - s + eps)
    x_span = eng.box_indices(x, r_prime)
    point = ray_point(eng, x, y, s, r_prime)
    assert np.array_equal(point.targets, t_idx) and np.array_equal(point.x_box, x_span)
    assert np.array_equal(point.r_grid, r_grid) and point.eps == eps
    spans = []

    def recorded(engine, span_idx, *args):
        spans.append(np.asarray(span_idx))
        return _box_curve(engine, span_idx, *args)

    monkeypatch.setattr(recon, "_box_curve", recorded)
    for z in (0, 5):  # the z ball misses, then overlaps, the x ball
        curve = _exterior_curve(eng, point, z)
        # the span is the x box, then the z box members not already in it:
        # a repeated member would only shift the curve at the ridge's scale
        assert np.array_equal(spans[-1][:len(x_span)], x_span)
        assert len(np.unique(spans[-1])) == len(spans[-1]) > len(x_span)
        direct = [np.max(_direct_residual(
            eng.gram, t_idx, sorted(set(x_span) | set(eng.box_indices(z, r))), eng.reg))
            for r in r_grid]
        assert np.max(np.abs(curve - direct)) <= 1e-8

    cut_grid = np.arange(s + cfg.delta + h / 2, wmap.horizon - cfg.delta, h / 2)
    curve = _cut_time_curve(eng, x, y, s, cut_grid)
    direct = []
    for r in cut_grid:
        tau_t = r - s + eps
        t_idx = eng.box_indices(y, tau_t) if tau_t > cfg.delta + 1e-12 and r > s else []
        direct.append(np.max(_direct_residual(eng.gram, t_idx, eng.box_indices(x, r), eng.reg))
                      if len(t_idx) else 1.0)
    assert np.max(np.abs(curve - np.asarray(direct))) <= 1e-8
    assert np.min(curve) < 0.05 < np.max(curve)  # the sweep crosses the verdict scale


def test_first_arrival_properties(cycle32_scene):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    dist = shortest_distances(m, U.vertices)
    arr = first_arrival_matrix(wmap, cfg.eta)
    # the raw self arrival, which the matrix sets to 0, is within a couple of
    # grid steps of zero
    assert reconstruction._arrival_row(wmap, 3, cfg.eta)[3] < 5 * wmap.grid.dt
    # symmetry is exact by kernel reciprocity
    assert arr[8, 2] == arr[2, 8]
    # accuracy for separated pairs
    for i, j in ((0, 5), (2, 9), (1, 7)):
        d_true = dist[i, U.vertices[j]]
        assert abs(arr[j, i] - d_true) <= 0.15 * d_true


@pytest.fixture(scope="module")
def rank2_cycle32():
    """The cycle32 geometry under a random rank-2 connection: its map data."""
    return cycle32(build_bundle(cycle32_manifold(), 2, connection="random", seed=5))[4]


@pytest.mark.parametrize("scene", ["gauged_cycle32", "rank2_cycle32"])
def test_first_arrival_matrix_stacks_the_pairwise_arrivals(scene, cycle32_scene, request):
    # every off-diagonal entry [y, x] is, bit for bit, the first grid time at
    # which the largest entry modulus of the unpacked block K[:, y, x] passes
    # eta times its peak; reciprocity makes the matrix exactly symmetric,
    # also complex and at rank 2
    wmap, eta = request.getfixturevalue(scene), cycle32_scene[5].eta
    arr = first_arrival_matrix(wmap, eta)
    r, n = wmap.local.rank, wmap.local.size
    kernel = s2s.hermitian_rows(wmap.kernel, range(wmap.local.dim))
    assert np.array_equal(arr, arr.T) and np.all(np.diag(arr) == 0.0)
    for x, y in itertools.permutations(range(n), 2):
        block = kernel[:, y * r:(y + 1) * r, x * r:(x + 1) * r]
        amp = np.max(np.abs(block).reshape(len(block), -1), axis=1)
        assert arr[y, x] == wmap.grid.times[np.flatnonzero(amp > eta * np.max(amp))[0]]


def test_first_arrival_semimetric(cycle32_scene):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    arr = first_arrival_matrix(wmap, cfg.eta)
    assert np.allclose(arr, arr.T)
    n = arr.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                worst = max(worst, arr[i, j] - arr[i, k] - arr[k, j])
    assert worst < 3 * h  # triangle inequality up to the dispersion tolerance


def test_cut_time_on_cycle(cycle32_scene, cycle32_engine):
    # the dispersive front is ~ (t h^2)^(1/3) wide; at this mesh that means
    # a positive bias of a couple of steps, so the gate here is 20% (the
    # finer acceptance scene holds 15%)
    m, b, op, U, wmap, cfg, h = cycle32_scene
    s = first_arrival_matrix(wmap, cfg.eta)[5, 4]
    tstar = cut_time_estimate(cycle32_engine, 4, 5, s)
    assert abs(tstar - np.pi) <= 0.20 * np.pi


def test_both_sweeps_read_one_radius_ladder(cycle32_scene, cycle32_engine):
    # the cut-time sweep steps h/2 from s + delta + h/2 below T - delta, h the
    # mesh length, and reads its curve there; every ray point's sweeps take
    # the same ladder from 0, bit for bit
    m, b, op, U, wmap, cfg, h = cycle32_scene
    mesh = reconstruction.mesh_length(wmap)
    s = first_arrival_matrix(wmap, cfg.eta)[5, 4]
    r_grid = np.arange(s + cfg.delta + mesh / 2, wmap.horizon - cfg.delta, mesh / 2)
    want = _sweep_radius(r_grid, _cut_time_curve(cycle32_engine, 4, 5, s, r_grid))
    assert np.isfinite(want) and cut_time_estimate(cycle32_engine, 4, 5, s) == want
    point = ray_point(cycle32_engine, 4, 5, s, 8 * h)
    ladder = np.arange(cfg.delta + mesh / 2, wmap.horizon - cfg.delta, mesh / 2)
    assert point.r_grid.dtype == ladder.dtype and np.array_equal(point.r_grid, ladder)


def test_cut_time_sentinel_when_sweep_below_distance(cycle32_scene, cycle32_engine):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    s = first_arrival_matrix(wmap, cfg.eta)[5, 4]
    r_grid = np.array([0.25 * s, 0.5 * s, 0.75 * s])  # entirely below the distance
    curve = _cut_time_curve(cycle32_engine, 4, 5, s, r_grid)
    assert _sweep_radius(r_grid, curve) == np.inf


def test_exterior_distance_recovers_profile(cycle32_scene, cycle32_engine):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    x, y = 4, 5
    s = first_arrival_matrix(wmap, cfg.eta)[y, x]
    r_prime = 8 * h
    p = U.vertices[x] + 8  # along the +1 ray
    dist = shortest_distances(m, [p])
    point = ray_point(cycle32_engine, x, y, s, r_prime)
    for z in (0, 4, 9):
        d_est = exterior_distance(cycle32_engine, point, z)
        d_true = dist[0, U.vertices[z]]
        assert abs(d_est - d_true) <= 0.15 * np.pi  # sup-norm scale tolerance
    # z = x returns approximately r_prime itself
    d_xx = exterior_distance(cycle32_engine, point, x)
    assert abs(d_xx - r_prime) <= 3 * h


def test_distance_family_small_scene(cycle32_scene, cycle32_engine):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    rays = [RayPlan(x=4, y=5, r_values=tuple(np.arange(2 * h, 10.5 * h, h))),
            RayPlan(x=5, y=4, r_values=tuple(np.arange(2 * h, 10.5 * h, h)))]
    fam = distance_family(cycle32_engine, rays, first_arrival_matrix(wmap, cfg.eta))
    assert len(fam) >= 12
    # region rows reproduce the restricted distance matrix within tolerance
    oracle = shortest_distances(m, U.vertices)[:, list(U.vertices)]
    rep = match_profiles(fam, oracle, rel_tol=0.15)
    assert rep["fraction"] == 1.0
    # profiles are 1-Lipschitz against the local metric (validity filter ran)
    for prof in fam.profiles:
        dev = np.abs(prof[:, None] - prof[None, :]) - wmap.local.distances
        assert np.max(dev) <= 0.35 * np.max(wmap.local.distances) + 0.35 * h + 1e-9


def test_distance_family_factors_once_per_sweep(cycle32_scene, cycle32_engine, monkeypatch):
    # every cut-time and exterior sweep is one in-place LAPACK factorization,
    # and the sweeps never go through numpy.linalg.cholesky; the engine build,
    # done by the fixture, is not a sweep
    import fracbundle.reconstruction as recon

    lapack = recon._lapack()

    m, b, op, U, wmap, cfg, h = cycle32_scene
    calls = {"potrf": 0, "exterior_distance": 0, "cut_time_estimate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("sweeps must not call numpy.linalg.cholesky")

    for name in ("dpotrf", "zpotrf"):
        monkeypatch.setattr(lapack, name, counted("potrf", getattr(lapack, name)))
    for name in ("exterior_distance", "cut_time_estimate"):
        monkeypatch.setattr(recon, name, counted(name, getattr(recon, name)))
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    rays = [RayPlan(x=4, y=5, r_values=tuple(np.arange(2 * h, 10.5 * h, h)))]
    fam = distance_family(cycle32_engine, rays, first_arrival_matrix(wmap, cfg.eta))
    assert len(fam) > wmap.local.size  # the ray produced exterior profiles
    sweeps = calls["exterior_distance"] + calls["cut_time_estimate"]
    assert calls["cut_time_estimate"] == 1 and calls["exterior_distance"] > 0
    assert calls["potrf"] == sweeps


def test_distance_family_on_a_complex_line_bundle(complex_cycle32_scene, complex_cycle32_engine,
                                                   monkeypatch):
    # the metric is recovered whatever the connection and potential: on a
    # complex line bundle every sweep factors in complex arithmetic (zpotrf)
    # and the profiles still match the region's distances
    lapack = reconstruction._lapack()
    m, b, op, U, wmap, cfg, h = complex_cycle32_scene
    assert np.iscomplexobj(complex_cycle32_engine.gram)
    calls = {"dpotrf": 0, "zpotrf": 0, "exterior_distance": 0, "cut_time_estimate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("dpotrf", "zpotrf"):
        monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
    for name in ("exterior_distance", "cut_time_estimate"):
        monkeypatch.setattr(reconstruction, name, counted(name, getattr(reconstruction, name)))
    rays = [RayPlan(x=4, y=5, r_values=tuple(np.arange(2 * h, 10.5 * h, h)))]
    fam = distance_family(complex_cycle32_engine, rays, first_arrival_matrix(wmap, cfg.eta))
    assert calls["dpotrf"] == 0
    assert calls["zpotrf"] == calls["exterior_distance"] + calls["cut_time_estimate"] > 0
    assert len(fam) == 15
    oracle = shortest_distances(m, U.vertices)[:, list(U.vertices)]
    assert match_profiles(fam, oracle, rel_tol=0.15)["fraction"] == 1.0


def test_distance_profiles_are_gauge_invariant_on_a_complex_line_bundle(complex_cycle32_scene,
                                                                         complex_cycle32_engine):
    # the sweeps read only Gram residuals, which a gauge leaves unchanged
    m, b, op, U, wmap, cfg, h = complex_cycle32_scene
    gauge = GaugeTransform.random(np.random.default_rng(3), m.num_vertices, 1)
    gauged = cycle32(apply_gauge(b, gauge))[4]
    rays = [RayPlan(x=4, y=5, r_values=tuple(np.arange(2 * h, 10.5 * h, h)))]
    want = distance_family(complex_cycle32_engine, rays,
                           first_arrival_matrix(wmap, cfg.eta)).profiles
    got = distance_family(ProbeEngine(gauged, cfg), rays,
                          first_arrival_matrix(gauged, cfg.eta)).profiles
    assert got.shape == want.shape and np.array_equal(got, want)


def distance_family_without_early_exit(eng, rays):
    """distance_family's profiles, provenance and counters from ray profiles
    swept at every region vertex and filtered afterwards, as the early exit
    classifies them: a profile falls at its first vertex z whose sweep is
    non-finite (counted nowhere) or breaks the 1-Lipschitz bound against
    the vertices up to z (lipschitz_dropped).  Also counts the profiles that
    fell at a non-finite sweep and those that broke the bound before one."""
    wmap, cfg = eng.wmap, eng.cfg
    n = wmap.local.size
    h = float(np.min(wmap.local.edge_lengths))
    bound = wmap.local.distances * 1.35 + 0.35 * h + 1e-9

    def first_failure(prof):
        with np.errstate(invalid="ignore"):  # inf - inf
            bad = ~(np.abs(prof[:, None] - prof[None, :]) <= bound)
        bad = np.tril(bad | bad.T)
        fails = np.flatnonzero(~np.isfinite(prof) | np.any(bad, axis=1))
        return int(fails[0]) if len(fails) else None

    arr = first_arrival_matrix(wmap, cfg.eta)
    candidates = [(prof, {"kind": "region", "vertex": i}) for i, prof in enumerate(arr)]
    ball_sizes = [len(wmap.local.local_ball(v, cfg.delta)) for v in range(n)]
    rays_skipped = 0
    for ray in rays:
        if min(ball_sizes[ray.x], ball_sizes[ray.y]) < max(ball_sizes):
            rays_skipped += 1
            continue
        s = arr[ray.y, ray.x]
        tstar = reconstruction.cut_time_estimate(eng, ray.x, ray.y, s)
        for r_prime in ray.r_values:
            if r_prime >= min(reconstruction.CUT_MARGIN * tstar, wmap.horizon - cfg.delta):
                continue
            # a fresh ray point per sweep: nothing is shared between them
            prof = np.array([reconstruction.exterior_distance(
                eng, ray_point(eng, ray.x, ray.y, s, r_prime), z) for z in range(n)])
            candidates.append((prof, {"kind": "ray", "x": ray.x, "y": ray.y, "r": float(r_prime)}))
    kept, provenance, lipschitz_dropped = [], [], 0
    fallen = {"nonfinite": 0, "lipschitz_then_nonfinite": 0}
    for prof, pv in candidates:
        z = first_failure(prof)
        if z is None:
            kept.append(prof)
            provenance.append(pv)
        elif np.isfinite(prof[z]):
            lipschitz_dropped += 1
            fallen["lipschitz_then_nonfinite"] += not np.all(np.isfinite(prof))
        else:
            fallen["nonfinite"] += 1
    merged, merged_prov = [], []
    for prof, pv in zip(kept, provenance):
        if not any(np.max(np.abs(q - prof)) < 0.75 * h for q in merged):
            merged.append(prof)
            merged_prov.append(pv)
    counters = (rays_skipped, lipschitz_dropped, len(kept) - len(merged))
    return np.asarray(merged), merged_prov, counters, fallen


@pytest.mark.parametrize("nonfinite_sweeps", [False, True])
def test_distance_family_early_exit_matches_full_sweeps(cycle32_scene, cycle32_engine,
                                                        monkeypatch, nonfinite_sweeps):
    # stopping a ray profile at its first failing vertex changes nothing but
    # the number of sweeps.  The second scene reads the sweep at vertex
    # 2k - 4 as infinite for the ray parameter k h, so ten profiles meet a
    # non-finite sweep; one of them breaks the Lipschitz bound before it
    m, b, op, U, wmap, cfg, h = cycle32_scene
    sweep = reconstruction.exterior_distance
    calls = [0]

    def counted(eng, point, z):
        calls[0] += 1
        if nonfinite_sweeps and z == 2 * round(point.r_prime / h) - 4:
            return np.inf
        return sweep(eng, point, z)

    monkeypatch.setattr(reconstruction, "exterior_distance", counted)
    rays = [RayPlan(x=4, y=5, r_values=tuple(np.arange(2 * h, 10.5 * h, h))),
            RayPlan(x=5, y=4, r_values=tuple(np.arange(2 * h, 10.5 * h, h))),
            RayPlan(x=0, y=1, r_values=(2 * h,))]
    fam = distance_family(cycle32_engine, rays, first_arrival_matrix(wmap, cfg.eta))
    early = calls[0]
    calls[0] = 0
    profiles, provenance, counters, fallen = distance_family_without_early_exit(
        cycle32_engine, rays)
    assert np.array_equal(fam.profiles, profiles)
    assert fam.provenance == provenance
    assert (fam.rays_skipped, fam.lipschitz_dropped, fam.duplicates_merged) == counters
    assert fam.rays_skipped == 1 and fam.lipschitz_dropped > 0
    assert fallen == ({"nonfinite": 9, "lipschitz_then_nonfinite": 1} if nonfinite_sweeps
                      else {"nonfinite": 0, "lipschitz_then_nonfinite": 0})
    assert early < calls[0]


def test_distance_family_whole_manifold_region():
    # with everything observed the family is exactly the first-arrival rows
    n, L = 16, 2 * np.pi
    m = build_manifold({"kind": "cycle", "count": n, "length": L})
    op = assemble(build_bundle(m, 1))
    U = Region(m, tuple(range(n)))
    wmap = wave_map_assemble(op, U, TimeGrid(8.0, 512))
    h = L / n
    cfg = ProbeConfig(delta=1.2 * h, lead_step=h, width=1.5 * h)
    arr = first_arrival_matrix(wmap, cfg.eta)
    fam = distance_family(ProbeEngine(wmap, cfg), [], arr)
    assert len(fam) <= n  # duplicates merged
    for prof in fam.profiles:
        devs = np.max(np.abs(arr - prof[None, :]), axis=1)
        assert devs.min() == 0.0  # each profile is literally a first-arrival row


def test_containment_verdicts_match_ground_truth():
    # verdict agreement with true set containment on the acceptance-scale
    # scene, for radius triples away from mesh-scale ties
    n, L = 64, 2 * np.pi
    h = L / n
    m = build_manifold({"kind": "cycle", "count": n, "length": L})
    op = assemble(build_bundle(m, 1))
    U = Region(m, tuple(range(16)))
    wmap = wave_map_assemble(op, U, TimeGrid(9.0, 1280))
    cfg = ProbeConfig(delta=1.2 * h, lead_step=h, width=1.5 * h)
    eng = ProbeEngine(wmap, cfg)
    dist = shortest_distances(m, U.vertices)

    def true_containment(x, tx, y, ty, z, tz):
        bx = set(np.nonzero(dist[x] < tx)[0])
        by = set(np.nonzero(dist[y] < ty)[0])
        bz = set(np.nonzero(dist[z] < tz)[0])
        return bx <= (by | bz)

    rng = np.random.default_rng(6)
    agree, total = 0, 0
    while total < 60:
        x, y, z = rng.integers(2, 14, size=3)
        tx = rng.uniform(3 * h, 20 * h)
        ty = rng.uniform(3 * h, 24 * h)
        tz = rng.uniform(3 * h, 24 * h)
        # stay away from verdict ties: perturbing radii by the shell scale
        # must not change the set-containment truth
        margin = 2.5 * h
        truths = {true_containment(x, tx + sx * margin, y, ty + sy * margin, z, tz + sz * margin)
                  for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        if len(truths) > 1:
            continue
        want = truths.pop()
        got = eng.containment(x, tx, [(y, ty), (z, tz)])
        agree += int(got == want)
        total += 1
    assert agree / total >= 0.95, f"verdict agreement {agree}/{total}"


# -- operator recovery -------------------------------------------------------------

def test_recover_operator_trivial_bundle(cycle32_scene):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    chart = [3, 4, 5, 6]
    rec = recover_local_operator(wmap, chart, cfg)
    assert np.max(np.abs(rec.transports - 1.0)) < 1e-3
    assert np.max(np.abs(rec.potentials)) < 1e-3


def test_recovery_evaluates_only_rows_near_horizon(cycle32_scene, monkeypatch):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    shapes = []  # the probe Gram reads no responses: only the recovery calls respond
    respond = WaveMapData.respond

    def recording_respond(self, *args, **kwargs):
        out = respond(self, *args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(WaveMapData, "respond", recording_respond)
    recover_local_operator(wmap, [3, 4, 5, 6], cfg)
    assert [s[1] for s in shapes] == [5]
    # nothing is cached on the map: it holds its six fields and no more
    fields = [f.name for f in dataclasses.fields(wmap)]
    assert fields == ["grid", "horizon", "local", "kernel", "conv_a", "conv_b"]
    assert set(vars(wmap)) == set(fields)


def test_mesh_length_needs_an_internal_edge():
    m = cycle32_manifold()
    wmap = wave_map_assemble(assemble(build_bundle(m, 1)), Region(m, (0, 8, 16, 24)),
                             TimeGrid(3.0, 256))
    with pytest.raises(ReconstructionError, match="region has no internal edge"):
        reconstruction.mesh_length(wmap)


@pytest.mark.parametrize("vertex", [999, -1])
def test_recover_operator_rejects_chart_outside_region(cycle32_scene, vertex):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    with pytest.raises(ReconstructionError, match=f"chart vertex {vertex} "):
        recover_local_operator(wmap, [3, vertex], cfg)


def test_recover_operator_random_phases(torus_scene):
    m, b, op, U, wmap, cfg = torus_scene
    chart = [5, 6, 9, 10]
    rec = recover_local_operator(wmap, chart, cfg)
    truth = chart_operator_from_bundle(b, U, chart)
    deviations = gauge_invariant_compare(rec, truth, [[0, 1, 3, 2]])
    assert max(deviations) < 1e-3, deviations
    assert rec.diagnostics["unitary_deviation"] < 1e-3


def test_recover_operator_diagonal_potential_rank2():
    m = build_manifold({"kind": "cycle", "count": 20, "length": 20.0})
    pot = np.zeros((20, 2, 2), dtype=complex)
    for v in range(20):
        pot[v] = np.diag([0.4 + 0.01 * v, 0.9 - 0.01 * v])
    b = HermitianBundle(m, 2, build_bundle(m, 2).transport, pot)
    op = assemble(b)
    U = Region(m, tuple(range(8)))
    wmap = wave_map_assemble(op, U, TimeGrid(16.0, 1600))
    cfg = ProbeConfig(delta=1.2, lead_step=0.5, width=1.0)
    rec = recover_local_operator(wmap, [3, 4], cfg)
    for i, v in enumerate([3, 4]):
        got = np.sort(np.linalg.eigvalsh(rec.potentials[i]))
        want = np.sort(np.linalg.eigvalsh(pot[U.vertices[v]]))
        assert np.max(np.abs(got - want)) < 1e-3


def test_recover_operator_rank2_random_connection():
    # transports genuinely mix fibers; recovery must still certify up to gauge
    m = build_manifold({"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]})
    b = build_bundle(m, 2, connection="random", potential="random_positive",
                     potential_scale=0.4, potential_shift=0.3, seed=8)
    op = assemble(b)
    assert op.is_nonnegative()
    U = Region(m, tuple(i * 6 + j for i in range(4) for j in range(4)))
    wmap = wave_map_assemble(op, U, TimeGrid(10.0, 1000))
    cfg = ProbeConfig(delta=1.2, lead_step=0.5, width=1.0)
    chart = [1 * 4 + 1, 1 * 4 + 2, 2 * 4 + 1, 2 * 4 + 2]
    rec = recover_local_operator(wmap, chart, cfg)
    truth = chart_operator_from_bundle(b, U, chart)
    deviations = gauge_invariant_compare(rec, truth, [[0, 1, 3, 2]])
    assert max(deviations) < 1e-3, deviations


def test_wave_map_rejects_odd_step_grid():
    m = build_manifold({"kind": "cycle", "count": 8, "length": 8.0})
    op = assemble(build_bundle(m, 1))
    from fracbundle.errors import OperatorError

    with pytest.raises(OperatorError):
        wave_map_assemble(op, Region(m, (0, 1, 2)), TimeGrid(2.0, 33))


def test_recover_operator_gauge_covariant(torus_scene):
    m, b, op, U, wmap, cfg = torus_scene
    chart = [5, 6, 9, 10]
    rec1 = recover_local_operator(wmap, chart, cfg)
    g = GaugeTransform.random(np.random.default_rng(7), m.num_vertices, 1)
    b2 = apply_gauge(b, g)
    wmap2 = wave_map_assemble(assemble(b2), U, wmap.grid)
    rec2 = recover_local_operator(wmap2, chart, cfg)
    deviations = gauge_invariant_compare(rec1, rec2, [[0, 1, 3, 2]])
    assert max(deviations) < 1e-10, deviations
    # the raw recovered structures genuinely differ (only invariants agree)
    assert np.max(np.abs(rec1.transports - rec2.transports)) > 1e-3


def test_recover_operator_spectrum_consistency(torus_scene):
    # reassemble the recovered chart operator and compare its spectrum with
    # the identically truncated true operator
    m, b, op, U, wmap, cfg = torus_scene
    chart = [5, 6, 9, 10]
    rec = recover_local_operator(wmap, chart, cfg)
    truth = chart_operator_from_bundle(b, U, chart)

    def chart_matrix(c):
        nc = len(c.vertices)
        mat = np.zeros((nc, nc), dtype=complex)
        lw = {}
        for i, (a, bb) in enumerate(wmap.local.edges):
            lw[(int(a), int(bb))] = wmap.local.edge_weights[i]
            lw[(int(bb), int(a))] = wmap.local.edge_weights[i]
        pos = {v: i for i, v in enumerate(c.vertices)}
        for (i, j), U_e in zip(c.edges, c.transports):
            w = lw[(c.vertices[i], c.vertices[j])]
            mat[i, j] += -w * U_e[0, 0]
            mat[j, i] += -w * np.conj(U_e[0, 0])
            mat[i, i] += w
            mat[j, j] += w
        for i in range(nc):
            mat[i, i] += c.potentials[i][0, 0]
        return mat

    ev_rec = np.linalg.eigvalsh(chart_matrix(rec))
    ev_true = np.linalg.eigvalsh(chart_matrix(truth))
    assert np.max(np.abs(ev_rec - ev_true)) < 1e-3


def test_gauge_compare_detects_perturbation(torus_scene):
    m, b, op, U, wmap, cfg = torus_scene
    chart = [5, 6, 9, 10]
    truth = chart_operator_from_bundle(b, U, chart)
    perturbed = chart_operator_from_bundle(b, U, chart)
    perturbed.potentials[0] = perturbed.potentials[0] + 0.1
    hol_dev, pot_dev = gauge_invariant_compare(perturbed, truth, [[0, 1, 3, 2]])
    assert not max(hol_dev, pot_dev) < 1e-3
    assert abs(pot_dev - 0.1) < 1e-9
    same_hol, same_pot = gauge_invariant_compare(truth, truth, [[0, 1, 3, 2]])
    assert max(same_hol, same_pot) < 1e-12 and same_hol == 0.0


def test_match_profiles_reports_ambiguity():
    from fracbundle.reconstruction import DistanceProfileSet

    oracle = np.array([[0.0, 1.0, 2.0], [0.05, 1.05, 2.05], [3.0, 2.0, 1.0]])
    got = DistanceProfileSet(
        region_vertices=(0, 1, 2),
        profiles=np.array([[0.02, 1.02, 2.02], [3.0, 2.0, 1.0]]),
        provenance=[{}, {}], rays_skipped=0, lipschitz_dropped=0, duplicates_merged=0,
    )
    rep = match_profiles(got, oracle, rel_tol=0.15)
    assert rep["fraction"] == 1.0
    assert rep["ambiguous"] == [0]  # two oracle rows claim the first profile


def test_match_profiles_with_nothing_recovered_matches_nothing():
    from fracbundle.reconstruction import DistanceProfileSet

    got = DistanceProfileSet(region_vertices=(0, 1, 2), profiles=np.zeros((0, 3)),
                             provenance=[], rays_skipped=0, lipschitz_dropped=0,
                             duplicates_merged=0)
    rep = match_profiles(got, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]), rel_tol=0.15)
    assert rep["fraction"] == 0.0
    assert not rep["matched"].any() and len(rep["matched"]) == 2
    assert rep["assignments"] == [] and rep["ambiguous"] == []


def test_source_family_validation(cycle32_scene):
    m, b, op, U, wmap, cfg, h = cycle32_scene
    refusals = [
        (([0], [0.1], 0.5), "lead must cover the bump width"),
        (([0], [wmap.horizon + 0.1], 0.5), "lead exceeds the horizon"),
        (([0, 1, 10, 11], [1.0], 0.5), "vertex 10 is outside the observation region"),
        (([], [1.0], 0.5), "empty probe family"),
    ]
    for args, message in refusals:
        with pytest.raises(ReconstructionError, match=f"^{message}$"):
            build_source_family(wmap, *args)
    fam = build_source_family(wmap, [0, 1], [0.5, 1.0], width=0.4)
    assert len(fam) == 4
    sel = fam.select(vertices=[0], max_lead=0.6)
    assert len(sel) == 1


def test_first_accept_reads_the_first_radius_that_clears_the_threshold():
    # the threshold is the log-midpoint 1e-2 of the violation level 1 and
    # the floor 1e-4; radius 3 clears it first, though radii 4-8 do not
    curve = np.array([1, 1, 1, 1e-3, 1, 1, 1, 1, 1, 1e-4])
    assert _first_accept(curve) == (3, 1.0, 1e-4)
    assert _first_accept(np.array([0.9, 0.8, 0.7, 0.6]))[0] is None  # no contrast
    assert _first_accept(np.array([0.01, 0.02, 0.01]))[0] == 0  # accepted everywhere


def test_source_family_is_lead_major():
    # members run lead-major, then vertex, then fiber, and share their
    # lead's bump: the engine reads a smaller box as a leading block
    m = build_manifold({"kind": "cycle", "count": 8, "length": 8.0})
    op = assemble(build_bundle(m, 2, connection="random", seed=1))
    wmap = wave_map_assemble(op, Region(m, (0, 1, 2, 3)), TimeGrid(6.0, 120))
    leads, verts = [1.0, 1.5, 2.5], [3, 0, 2]
    fam = build_source_family(wmap, verts, leads, 1.0)
    src = fam.sources
    assert list(zip(fam.lead, fam.vertex, src.component % 2)) == list(
        itertools.product(leads, verts, range(2)))
    assert np.array_equal(src.component // 2, fam.vertex)
    for lead, prof in zip(fam.lead, src.profiles[src.profile]):
        want = reconstruction.bump_profile(wmap.grid.times, wmap.horizon - lead, 1.0)
        assert np.array_equal(prof, want)
