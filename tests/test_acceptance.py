"""Acceptance criteria, one test per criterion, each printing a verdict line.

Scenes and tolerances are pinned here; every expected value is either an
analytic closed form, an independently computed oracle (shortest paths,
direct Duhamel solves), or an exactly verifiable identity.
"""

import re
import time

import numpy as np
import pytest

from fracbundle.bundle import (
    GaugeTransform,
    apply_gauge,
    HermitianBundle,
    build_bundle,
    l2_inner,
    l2_norm,
    pullback_bundle,
    translation_iso,
)
from fracbundle.manifold import Region, build_manifold, shortest_distances
from fracbundle.operator import assemble, kernel_projector
from fracbundle.propagators import (
    TimeGrid,
    TimeSection,
    duhamel_solve,
    fractional_apply,
    fractional_inverse_quadrature,
    fractional_inverse_spectral,
    heat_apply,
    heat_kernel_matrix,
    transmutation_gaussian_check,
    transmutation_printed_residual,
    wave_energy,
)
from fracbundle.reconstruction import (
    ProbeConfig,
    ProbeEngine,
    RayPlan,
    bump_profile,
    cut_time_estimate,
    distance_family,
    first_arrival_matrix,
    gauge_invariant_compare,
    match_profiles,
    recover_local_operator,
)
from fracbundle.reference import chart_operator_from_bundle
from fracbundle.s2s import flat_indices, frac_map_assemble, hermitian_rows, wave_map_assemble

from dense_sources import dense_pairing, region_values


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} -- {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def torus_scene():
    """Torus 8x8, rank-2 seeded bundle, nonnegative with trivial kernel."""
    m = build_manifold({"kind": "torus_grid", "counts": [8, 8], "lengths": [8.0, 8.0]})
    b = build_bundle(m, 2, connection="random", potential="random_positive",
                     potential_scale=0.3, potential_shift=0.2, seed=42)
    op = assemble(b)
    assert op.is_nonnegative()
    return m, b, op


@pytest.fixture(scope="module")
def cycle64_wave():
    """Cycle N=64, L=2pi, trivial line bundle, wave data on a 16-vertex arc."""
    m = build_manifold({"kind": "cycle", "count": 64, "length": 2 * np.pi})
    b = build_bundle(m, 1)
    op = assemble(b)
    U = Region(m, tuple(range(16)))
    grid = TimeGrid(9.0, 1280)  # T = 4.5
    wmap = wave_map_assemble(op, U, grid)
    return m, b, op, U, grid, wmap


def test_acceptance_1_fractional_round_trip(torus_scene):
    m, b, op = torus_scene
    rng = np.random.default_rng(7)
    proj = kernel_projector(op)
    t0 = time.time()
    worst = 0.0
    orders = np.round(np.arange(0.1, 0.95, 0.1), 2)
    sections = [proj.project_complement(b.random_section(rng)) for _ in range(20)]
    for s in orders:
        for f in sections:
            u = fractional_inverse_spectral(op, s, f)
            back = fractional_apply(op, s, u)
            worst = max(worst, l2_norm(b, back - f) / l2_norm(b, f))
    elapsed = time.time() - t0
    verdict(1, worst < 1e-10 and elapsed < 10.0,
            f"round-trip max rel err {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_acceptance_2_gamma_route(torus_scene):
    m, b, op = torus_scene
    rng = np.random.default_rng(8)
    proj = kernel_projector(op)
    t0 = time.time()
    worst = 0.0
    for s in np.round(np.arange(0.1, 0.95, 0.1), 2):
        f = proj.project_complement(b.random_section(rng))
        qv = fractional_inverse_quadrature(op, s, f)
        sv = fractional_inverse_spectral(op, s, f)
        worst = max(worst, l2_norm(b, qv - sv) / l2_norm(b, sv))
    elapsed = time.time() - t0
    verdict(2, worst < 1e-6 and elapsed < 30.0,
            f"Gamma-route max rel err {worst:.3e} (tol 1e-6), {elapsed:.1f}s (< 30s)")


def test_acceptance_3_transmutation(torus_scene):
    m, b, op = torus_scene
    worst = 0.0
    for t in (0.1, 1.0):
        _, _, err = transmutation_gaussian_check(op, t)
        worst = max(worst, float(np.max(err)))
    rng = np.random.default_rng(9)
    printed, quad_err = transmutation_printed_residual(op, 0.5, b.random_section(rng))
    ok = worst < 1e-8 and quad_err < 1e-8
    verdict(3, ok,
            f"Gaussian-kernel identity max err {worst:.3e} (tol 1e-8); "
            f"printed half-line form residual {printed:.3f} (logged, quadrature err {quad_err:.1e})")


def test_acceptance_4_blago_identity(cycle64_wave):
    m, b, op, U, grid_big, _ = cycle64_wave
    grid = TimeGrid(4.0, 2048)  # T = 2 suffices for the identity check
    wmap = wave_map_assemble(op, U, grid)
    rng = np.random.default_rng(11)
    t0 = time.time()
    sources = []
    for _ in range(15):
        vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
        for _ in range(3):
            v = U.vertices[rng.integers(0, len(U))]
            width = rng.uniform(0.2, 0.6)
            start = rng.uniform(0.0, 2.0 - width)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            vals[:, v, 0] += amp * bump_profile(grid.times, start, width)
        sources.append(TimeSection(grid, vals))
    batch = np.stack([region_values(s, U.vertices) for s in sources])
    G_engine = dense_pairing(wmap, batch, batch)
    states = [duhamel_solve(op, f).values[wmap.half_index] for f in sources]
    worst = 0.0
    pairs = 0
    for i in range(len(sources)):
        for j in range(i, len(sources)):
            if pairs >= 100:
                break
            direct = l2_inner(b, states[i], states[j])
            denom = max(abs(direct), 1e-12 * abs(G_engine).max())
            worst = max(worst, abs(G_engine[i, j] - direct) / denom)
            pairs += 1
    elapsed = time.time() - t0
    verdict(4, worst < 1e-6 and pairs == 100 and elapsed < 60.0,
            f"identity vs direct over {pairs} seeded pairs: max rel err {worst:.3e} "
            f"(tol 1e-6), {elapsed:.1f}s (< 60s)")


def test_acceptance_5_gauge_equivariance():
    m = build_manifold({"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]})
    b1 = build_bundle(m, 2, connection="random", potential="random_positive",
                      potential_scale=0.3, potential_shift=0.2, seed=33)
    op1 = assemble(b1)
    rng = np.random.default_rng(5)
    gauge = GaugeTransform.random(rng, m.num_vertices, 2)
    iso = translation_iso(b1, (2, 3), gauge)
    b2 = pullback_bundle(iso)
    op2 = assemble(b2)
    r = 2
    U1 = Region(m, tuple(i * 6 + j for i in range(3) for j in range(3)))
    inv_base = np.empty(m.num_vertices, dtype=np.int64)
    inv_base[iso.base] = np.arange(m.num_vertices)
    U2 = Region(m, tuple(int(inv_base[v]) for v in U1.vertices))
    S = np.zeros((len(U1) * r, len(U1) * r), dtype=complex)
    blocks = flat_indices(range(len(U2)), r).reshape(-1, r)
    S[blocks[:, :, None], blocks[:, None, :]] = iso.fiber[list(U2.vertices)]
    frac_dev = 0.0
    for s in (0.3, 0.5, 0.7):
        f1 = frac_map_assemble(op1, U1, s)
        f2 = frac_map_assemble(op2, U2, s)
        frac_dev = max(frac_dev, float(np.max(np.abs(S.conj().T @ f1.block @ S - f2.block))))
    grid = TimeGrid(6.0, 128)
    w1 = wave_map_assemble(op1, U1, grid)
    w2 = wave_map_assemble(op2, U2, grid)
    every = range(w1.local.dim)
    k1, k2, a1, a2 = (hermitian_rows(s, every) for s in (w1.kernel, w2.kernel, w1.conv_a, w2.conv_a))
    wave_dev = float(max(
        np.max(np.abs(np.einsum("ij,tjk,kl->til", S.conj().T, k1, S) - k2)),
        np.max(np.abs(np.einsum("ij,tjk,kl->til", S.conj().T, a1, S) - a2)),
    ))
    idx1, idx2 = flat_indices(U1.vertices, r), flat_indices(U2.vertices, r)
    heat_dev = 0.0
    for t in grid.times[1:]:
        H1 = heat_kernel_matrix(op1, t, idx1)
        H2 = heat_kernel_matrix(op2, t, idx2)
        heat_dev = max(heat_dev, float(np.max(np.abs(S.conj().T @ H1 @ S - H2))))
    ok = frac_dev < 1e-11 and wave_dev < 1e-11 and heat_dev < 1e-10
    verdict(5, ok,
            f"pullback equivariance: frac blocks {frac_dev:.2e} (tol 1e-11), "
            f"wave blocks {wave_dev:.2e} (tol 1e-11), heat kernels {heat_dev:.2e} (tol 1e-10)")


def test_acceptance_6_distance_reconstruction(cycle64_wave):
    m, b, op, U, grid, wmap = cycle64_wave
    h = 2 * np.pi / 64
    cfg = ProbeConfig(delta=1.2 * h, lead_step=h, width=1.5 * h)
    dist = shortest_distances(m, U.vertices)
    t0 = time.time()
    # first arrivals on U x U for separated pairs, one kernel row read per vertex
    arr = first_arrival_matrix(wmap, cfg.eta)
    worst_rel = 0.0
    for i in range(len(U)):
        for j in range(len(U)):
            d_true = dist[i, U.vertices[j]]
            if d_true < 3 * h - 1e-9:
                continue
            worst_rel = max(worst_rel, abs(arr[j, i] - d_true) / d_true)
    # cut time
    s = arr[9, 8]
    sweep = np.arange(s + cfg.delta + h / 2, wmap.horizon - cfg.delta, h / 2)
    eng = ProbeEngine(wmap, cfg)
    tstar = cut_time_estimate(eng, 8, 9, s, sweep)
    cut_rel = abs(tstar - np.pi) / np.pi
    # exterior profiles
    rays = []
    for x, d in ((3, 1), (3, -1), (8, 1), (8, -1), (12, 1), (12, -1), (13, 1), (2, -1)):
        rays.append(RayPlan(x=x, y=x + d, r_values=tuple(np.arange(2 * h, 29.8 * h, h))))
    fam = distance_family(eng, rays, arr)
    rep = match_profiles(fam, dist.T, rel_tol=0.15)
    elapsed = time.time() - t0
    ok = (worst_rel < 0.15 and cut_rel < 0.15 and rep["fraction"] >= 0.90
          and elapsed < 300.0)
    verdict(6, ok,
            f"first-arrival max rel {worst_rel:.3f} (tol 0.15), cut {tstar:.3f} vs pi "
            f"({cut_rel:+.1%}, tol 15%), profiles matched {rep['fraction']:.1%} "
            f"(>= 90%), {elapsed:.0f}s (< 300s)")


def test_acceptance_7_operator_recovery():
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
    chart = [5, 6, 9, 10]
    loops = [[0, 1, 3, 2]]
    rec = recover_local_operator(wmap, chart, cfg)
    truth = chart_operator_from_bundle(b, U, chart)
    hol_dev, pot_dev = gauge_invariant_compare(rec, truth, loops)
    # identical pipeline on gauge-transformed data
    g = GaugeTransform.random(np.random.default_rng(77), m.num_vertices, 1)
    wmap2 = wave_map_assemble(assemble(apply_gauge(b, g)), U, grid)
    rec2 = recover_local_operator(wmap2, chart, cfg)
    gauged = max(gauge_invariant_compare(rec, rec2, loops))
    ok = hol_dev < 1e-3 and pot_dev < 1e-3 and gauged < 1e-10
    verdict(7, ok,
            f"holonomy dev {hol_dev:.2e}, potential dev {pot_dev:.2e} (tol 1e-3); gauged rerun "
            f"invariants agree to {gauged:.2e} (tol 1e-10)")


def test_acceptance_8_energy_and_semigroup(torus_scene):
    m, b, op = torus_scene
    rng = np.random.default_rng(13)
    u0 = b.random_section(rng)
    v0 = b.random_section(rng)
    T = 3.0
    e0 = wave_energy(op, u0, v0, 0.0)
    drift = max(abs(wave_energy(op, u0, v0, t) - e0) / e0
                for t in np.linspace(0.0, 2 * T, 33))
    w = b.random_section(rng)
    lhs = heat_apply(op, 0.9, w)
    rhs = heat_apply(op, 0.4, heat_apply(op, 0.5, w))
    semi = l2_norm(b, lhs - rhs) / l2_norm(b, lhs)
    ok = drift < 1e-9 and semi < 1e-10
    verdict(8, ok,
            f"energy drift {drift:.2e} over [0, 2T] (tol 1e-9); "
            f"semigroup composition {semi:.2e} (tol 1e-10)")


def test_acceptance_9_data_boundary(cycle64_wave):
    m, b, op, U, grid, wmap = cycle64_wave
    # serialized reconstruction inputs carry only map data and local structure
    wave_keys = set(wmap.to_payload().keys())
    local_keys = set(wmap.local.to_payload().keys())
    frac_keys = set(frac_map_assemble(op, U, 0.5).to_payload().keys())
    wave_ok = wave_keys == {"schema", "horizon", "grid", "local", "kernel", "conv_a", "conv_b"}
    local_ok = local_keys == {"schema", "vertices", "volumes", "rank", "edges",
                              "edge_lengths", "edge_weights", "distances"}
    frac_ok = frac_keys == {"schema", "order", "local", "block", "kernel_block"}
    # the reconstruction module must not reference full-operator structures
    import fracbundle.reconstruction as recon_mod
    with open(recon_mod.__file__) as fh:
        src = fh.read()
    forbidden = [
        "SpectralOperator", "HermitianBundle", "DiscreteManifold",
        "eigensections", "op.matrix", "assemble(", "duhamel_solve",
        "heat_apply", "heat_kernel_matrix", "wave_kernel_matrix",
        "shortest_distances", "build_bundle", "build_manifold",
        "from .operator", "from .bundle", "from .manifold import build",
        "from .propagators",
    ]
    leaks = [tok for tok in forbidden if tok in src]
    imports = re.findall(r"^from \.(\w+) import", src, flags=re.M)
    imports += re.findall(r"^from \. import (\w+)", src, flags=re.M)
    allowed_imports = {"s2s", "errors", "timequad"}
    import_ok = set(imports) <= allowed_imports
    ok = wave_ok and local_ok and frac_ok and not leaks and import_ok
    verdict(9, ok,
            f"payload keys whitelisted (wave {wave_ok}, local {local_ok}, frac {frac_ok}); "
            f"module imports {sorted(set(imports))}; forbidden references: {leaks or 'none'}")
