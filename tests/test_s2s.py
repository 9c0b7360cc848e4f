"""Map data objects, time averaging, and the inner-product engine."""

import numpy as np
import pytest

from fracbundle.bundle import GaugeTransform, build_bundle, l2_inner, pullback_bundle, pullback_section, cycle_rotation_iso
from fracbundle.errors import DataBoundaryError, OperatorError
from fracbundle.manifold import Region, build_manifold
from fracbundle.operator import assemble, kernel_projector
from fracbundle.propagators import TimeGrid, TimeSection, duhamel_solve, fractional_apply, heat_kernel_matrix, wave_kernel_matrix
from fracbundle.reconstruction import build_source_family
from fracbundle.s2s import (
    FracMapData,
    WaveMapData,
    blago_bilinear,
    blago_inner,
    frac_map_assemble,
    gram_matrix,
    local_structure,
    time_average,
    wave_map_assemble,
)
from fracbundle.serialize import dumps, loads


def bump(times, center, width):
    """C^3 time profile supported on [center - width/2, center + width/2]."""
    u = (times - (center - width / 2)) / width
    prof = np.zeros_like(times)
    inside = (u > 0) & (u < 1)
    prof[inside] = np.sin(np.pi * u[inside]) ** 4
    return prof


def cycle_scene(n=16, length=2 * np.pi, rank=1, seed=None, **kw):
    m = build_manifold({"kind": "cycle", "count": n, "length": length})
    b = build_bundle(m, rank, seed=seed, **kw)
    return m, b, assemble(b)


def arc_region(m, start, count):
    return Region(m, tuple((start + i) % m.num_vertices for i in range(count)))


def make_source(grid, region, rank, vertex_local, fiber, center, width, num_vertices):
    vals = np.zeros((len(grid), num_vertices, rank), dtype=complex)
    prof = bump(grid.times, center, width)
    vals[:, region.vertices[vertex_local], fiber] = prof
    return TimeSection(grid, vals)


# -- local structure ---------------------------------------------------------

def test_local_structure_restriction():
    m, b, op = cycle_scene()
    U = arc_region(m, 2, 5)
    loc = local_structure(U, 1)
    assert loc.size == 5
    assert loc.rank == 1
    assert len(loc.edges) == 4  # arc has count-1 internal edges
    h = m.meta["h"]
    assert loc.distances[0, 4] == pytest.approx(4 * h)
    assert np.allclose(loc.volumes, h)


# -- fractional map data ------------------------------------------------------

def test_frac_map_full_region_matches_spectral_matrix():
    m, b, op = cycle_scene(8, 8.0)
    U = Region(m, tuple(range(8)))
    fmap = frac_map_assemble(op, U, 0.5)
    mask = op.kernel_mask()
    V = op.eigensections
    with np.errstate(all="ignore"):
        vals = np.where(mask, 0.0, np.abs(op.eigenvalues) ** -0.5)
    full = (V * vals[None, :]) @ V.conj().T
    assert np.max(np.abs(fmap.block - full)) < 1e-12


def test_frac_map_block_hermitian():
    m, b, op = cycle_scene(12, 12.0, rank=2, connection="random", seed=5)
    U = arc_region(m, 1, 5)
    fmap = frac_map_assemble(op, U, 0.3)
    assert np.max(np.abs(fmap.block - fmap.block.conj().T)) < 1e-10


def test_frac_map_apply_then_power_returns_source():
    rng = np.random.default_rng(0)
    m, b, op = cycle_scene(12, 12.0, rank=2, connection="random", seed=6)
    U = arc_region(m, 3, 4)
    s = 0.45
    fmap = frac_map_assemble(op, U, s)
    proj = kernel_projector(op)
    # region-supported source with its (tiny) kernel part removed
    raw = np.zeros((12, 2), dtype=complex)
    raw[list(U.vertices)] = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = proj.project_complement(raw)
    # f is no longer exactly region-supported, so apply the map to the
    # region restriction and compare against the global route
    fU = f[list(U.vertices)]
    got_U = fmap.apply(fU)
    u_global = fractional_apply(op, s, _global_inverse(op, s, f))
    del u_global
    # oracle: full spectral inverse restricted to U
    full = _global_inverse(op, s, f)
    assert np.max(np.abs(got_U - full[list(U.vertices)])) < 1e-9


def _global_inverse(op, s, f):
    from fracbundle.propagators import fractional_inverse_spectral

    return fractional_inverse_spectral(op, s, f)


def test_frac_map_rejects_kernel_component():
    m, b, op = cycle_scene(8, 8.0)
    U = arc_region(m, 0, 3)
    fmap = frac_map_assemble(op, U, 0.5)
    ones = np.ones((3, 1), dtype=complex)
    with pytest.raises(OperatorError):
        fmap.apply(ones)  # constants have a large kernel part


def test_frac_map_full_region_composition():
    # with the whole manifold observed, applying the fractional power to the
    # mapped source returns its kernel-complement projection
    rng = np.random.default_rng(3)
    m, b, op = cycle_scene(8, 8.0)
    U = Region(m, tuple(range(8)))
    s = 0.4
    fmap = frac_map_assemble(op, U, s)
    proj = kernel_projector(op)
    f = proj.project_complement(b.random_section(rng))
    u = fmap.apply(f)
    back = fractional_apply(op, s, u)
    assert np.max(np.abs(back - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


# -- wave map data ------------------------------------------------------------

@pytest.fixture(scope="module")
def wave_scene():
    m, b, op = cycle_scene(16, 2 * np.pi, rank=1)
    U = arc_region(m, 0, 6)
    grid = TimeGrid(4.0, 256)
    wmap = wave_map_assemble(op, U, grid)
    return m, b, op, U, grid, wmap


def test_wave_map_invariants(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    assert np.max(np.abs(wmap.kernel[0])) == 0.0
    # reciprocity of the spectral kernel blocks
    for t_idx in (3, 50, 200):
        K = wmap.kernel[t_idx]
        assert np.max(np.abs(K - K.conj().T)) < 1e-9


def test_wave_kernel_small_time_growth(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    x = 2  # local index
    mu = wmap.local.volumes[x]
    k1 = wmap.kernel[1][x, x].real
    k2 = wmap.kernel[2][x, x].real
    assert k1 == pytest.approx(grid.dt / mu, rel=5e-3)
    assert k2 == pytest.approx(2 * grid.dt / mu, rel=1e-2)


def test_wave_map_consistency_with_duhamel(wave_scene):
    rng = np.random.default_rng(1)
    m, b, op, U, grid, wmap = wave_scene
    f = make_source(grid, U, 1, 2, 0, center=0.8, width=0.5, num_vertices=m.num_vertices)
    f.values[:, U.vertices[4], 0] += (0.3 - 0.7j) * bump(grid.times, 1.9, 0.7)
    w = duhamel_solve(op, f)
    direct = w.values[:, list(U.vertices), :].reshape(len(grid), -1)
    resp = wmap.respond(wmap.source_array(f)[None])[0]
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(resp - direct)) < 1e-9 * scale


def test_delta_source_paths_match_dense():
    m = build_manifold({"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]})
    b = build_bundle(m, 2, connection="random", potential="random_hermitian", seed=4)
    block = Region(m, tuple(i * 6 + j for i in range(3) for j in range(3)))
    grid = TimeGrid(6.0, 240)
    wmap = wave_map_assemble(assemble(b), block, grid)
    fam = build_source_family(wmap, range(len(block)), [1.0, 1.5, 2.0], 1.0)
    comps = fam.components()
    assert len(fam) == 54
    dense = np.zeros((len(fam), len(grid), wmap.local.dim))
    dense[np.arange(len(fam)), :, comps] = fam.profiles

    resp_delta = wmap.respond(fam.profiles, components=comps)
    resp_dense = wmap.respond(dense)
    assert np.max(np.abs(resp_delta - resp_dense)) <= 1e-12 * np.max(np.abs(resp_dense))
    G_delta = blago_bilinear(wmap, fam.profiles, fam.profiles, components=(comps, comps))
    G_dense = blago_bilinear(wmap, dense, dense)
    assert np.max(np.abs(G_delta - G_dense)) <= 1e-12 * np.max(np.abs(G_dense))


def test_source_support_validated(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
    vals[:, (U.vertices[-1] + 2) % m.num_vertices, 0] = bump(grid.times, 1.0, 0.5)
    with pytest.raises(DataBoundaryError):
        wmap.source_array(TimeSection(grid, vals))


# -- time averaging -----------------------------------------------------------

def test_time_average_closed_forms():
    grid = TimeGrid(4.0, 200)  # T = 2
    T = 2.0
    ts = grid.times
    ones = np.ones(len(grid))
    j1 = time_average(ones, grid, piecewise_linear=True)
    assert np.allclose(j1, T - ts, atol=1e-12)
    j2 = time_average(ts.copy(), grid, piecewise_linear=True)
    assert np.allclose(j2, T * (T - ts), atol=1e-12)
    # sampled rule is exact through quintic polynomials
    for p in (2, 3, 5):
        jp = time_average(ts**p, grid)
        exact = ((2 * T - ts) ** (p + 1) - ts ** (p + 1)) / (2 * (p + 1))
        assert np.max(np.abs(jp - exact)) < 1e-12 * max(1.0, np.max(np.abs(exact)))


def test_time_average_vanishes_at_horizon():
    grid = TimeGrid(6.0, 120)
    rng = np.random.default_rng(2)
    series = rng.standard_normal(len(grid))
    out = time_average(series, grid)
    assert out[60] == 0.0


# -- the inner-product identity ----------------------------------------------

def direct_pairings(op, grid, sources):
    n_half = grid.n_steps // 2
    states = []
    for f in sources:
        w = duhamel_solve(op, f)
        states.append(w.values[n_half])
    G = np.empty((len(states), len(states)), dtype=complex)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            G[i, j] = l2_inner(op.bundle, si, sj)
    return G


def test_blago_matches_direct(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    rng = np.random.default_rng(3)
    sources = []
    for _ in range(6):
        vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
        for _ in range(3):
            v = U.vertices[rng.integers(0, len(U))]
            c = rng.uniform(0.4, 1.7)
            w = rng.uniform(0.3, 0.8)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            vals[:, v, 0] += amp * bump(grid.times, c, w)
        sources.append(TimeSection(grid, vals))
    G_direct = direct_pairings(op, grid, sources)
    G_engine = gram_matrix(wmap, sources)
    scale = np.max(np.abs(G_direct))
    assert np.max(np.abs(G_engine - G_direct)) < 1e-6 * scale


def test_blago_norm_case(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    f = make_source(grid, U, 1, 1, 0, center=1.0, width=0.6, num_vertices=m.num_vertices)
    val = blago_inner(wmap, f, f)
    w = duhamel_solve(op, f)
    direct = l2_inner(op.bundle, w.values[wmap.half_index], w.values[wmap.half_index]).real
    assert val.imag == pytest.approx(0.0, abs=1e-9 * direct)
    assert val.real == pytest.approx(direct, rel=1e-6)
    assert val.real >= 0


def test_blago_source_past_horizon_still_exact(wave_scene):
    # the identity integrates tau over (0, T); parts of h supported past T
    # enter only through the response and must not break the pairing
    m, b, op, U, grid, wmap = wave_scene
    f = make_source(grid, U, 1, 0, 0, center=0.9, width=0.6, num_vertices=m.num_vertices)
    h = make_source(grid, U, 1, 3, 0, center=2.6, width=0.9, num_vertices=m.num_vertices)  # past T = 2
    got = blago_inner(wmap, f, h)
    wf = duhamel_solve(op, f).values[wmap.half_index]
    wh = duhamel_solve(op, h).values[wmap.half_index]
    want = l2_inner(op.bundle, wf, wh)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_blago_bilinearity(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    f1 = make_source(grid, U, 1, 0, 0, 0.8, 0.5, m.num_vertices)
    f2 = make_source(grid, U, 1, 2, 0, 1.3, 0.6, m.num_vertices)
    h = make_source(grid, U, 1, 4, 0, 1.0, 0.7, m.num_vertices)
    a, bb = 0.7 - 0.2j, -1.1 + 0.4j
    combo = TimeSection(grid, a * f1.values + bb * f2.values)
    lhs = blago_inner(wmap, combo, h)
    rhs = np.conj(a) * blago_inner(wmap, f1, h) + np.conj(bb) * blago_inner(wmap, f2, h)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    # conjugate symmetry
    assert blago_inner(wmap, f1, h) == pytest.approx(np.conj(blago_inner(wmap, h, f1)), rel=1e-5, abs=1e-9)


def test_blago_disjoint_supports_nearly_orthogonal():
    # waves from far-apart sources have not met by time T
    m, b, op = cycle_scene(32, 32.0)
    U = Region(m, tuple(range(32)))
    grid = TimeGrid(6.0, 384)  # T = 3
    wmap = wave_map_assemble(op, U, grid)
    fa = make_source(grid, U, 1, 0, 0, center=2.5, width=0.8, num_vertices=32)
    fb = make_source(grid, U, 1, 16, 0, center=2.5, width=0.8, num_vertices=32)  # antipodal: d = 16 > 2T
    na = blago_inner(wmap, fa, fa).real
    cross = abs(blago_inner(wmap, fa, fb))
    assert cross < 1e-6 * na


def test_gram_matrix_properties(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    f1 = make_source(grid, U, 1, 1, 0, 0.9, 0.5, m.num_vertices)
    f2 = make_source(grid, U, 1, 3, 0, 1.4, 0.6, m.num_vertices)
    G = gram_matrix(wmap, [f1, f2, f1])
    assert np.max(np.abs(G - G.conj().T)) == 0.0
    assert G[0, 0].real > 0
    assert abs(G[0, 2] - G[0, 0]) < 1e-8 * abs(G[0, 0])  # duplicated source
    ev = np.linalg.eigvalsh(G)
    assert ev.min() >= -1e-8 * np.trace(G).real


# -- serialization and the data boundary ---------------------------------------

def test_wave_map_round_trip(wave_scene):
    # the serialization boundary: everything the inverse layer needs must
    # survive a dump/load cycle bit-exactly, and reconstruction operations
    # must run identically from the deserialized object
    m, b, op, U, grid, wmap = wave_scene
    payload = loads(dumps(wmap.to_payload()))
    back = WaveMapData.from_payload(payload)
    assert np.array_equal(back.kernel, wmap.kernel)
    assert np.array_equal(back.conv_a, wmap.conv_a)
    assert back.local.vertices == wmap.local.vertices
    f = make_source(grid, U, 1, 2, 0, 1.0, 0.5, m.num_vertices)
    h = make_source(grid, U, 1, 4, 0, 1.2, 0.5, m.num_vertices)
    assert blago_inner(back, f, h) == blago_inner(wmap, f, h)
    from fracbundle.reconstruction import first_arrival_distance

    assert first_arrival_distance(back, 0, 5) == first_arrival_distance(wmap, 0, 5)


def test_frac_map_round_trip():
    m, b, op = cycle_scene(10, 10.0, rank=2, connection="random", seed=9)
    U = arc_region(m, 2, 4)
    fmap = frac_map_assemble(op, U, 0.6)
    back = FracMapData.from_payload(loads(dumps(fmap.to_payload())))
    assert np.array_equal(back.block, fmap.block)
    assert back.local.rank == 2


def test_payload_keys_whitelisted(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    payload = wmap.to_payload()
    assert set(payload.keys()) == {"schema", "horizon", "grid", "local", "kernel", "conv_a", "conv_b"}
    assert set(payload["local"].keys()) == {
        "schema", "vertices", "volumes", "rank", "edges", "edge_lengths", "edge_weights", "distances",
    }


# -- gauge equivariance --------------------------------------------------------

def test_map_data_gauge_equivariance():
    rng = np.random.default_rng(7)
    m, b1, op1 = cycle_scene(12, 12.0, rank=2, connection="random", potential="random_hermitian", seed=11)
    # make the operator nonnegative: shift potential by a constant
    shift = max(0.0, -op1.min_eigenvalue) + 0.2
    pot = b1.potential + shift * np.eye(2)[None]
    b1 = build_bundle(m, 2, connection="random", seed=11, potential="explicit", explicit_potential=pot)
    op1 = assemble(b1)
    gauge = GaugeTransform.random(rng, m.num_vertices, 2)
    iso = cycle_rotation_iso(b1, shift=5, gauge=gauge)
    b2 = pullback_bundle(iso)
    op2 = assemble(b2)
    U1 = arc_region(m, 3, 5)
    U2 = Region(m, tuple(int(np.nonzero(iso.base == v)[0][0]) for v in U1.vertices))
    s = 0.5
    f1 = frac_map_assemble(op1, U1, s)
    f2 = frac_map_assemble(op2, U2, s)
    # conjugate the pulled-back block by the local fiber maps and relabeling
    S = np.zeros((f1.local.dim, f1.local.dim), dtype=complex)
    r = 2
    for i, v2 in enumerate(U2.vertices):
        S[i * r:(i + 1) * r, i * r:(i + 1) * r] = iso.fiber[v2]
    expected = S.conj().T @ f1.block @ S
    assert np.max(np.abs(expected - f2.block)) < 1e-11

    grid = TimeGrid(3.0, 96)
    w1 = wave_map_assemble(op1, U1, grid)
    w2 = wave_map_assemble(op2, U2, grid)
    for t_idx in (5, 40, 96):
        expected_k = S.conj().T @ w1.kernel[t_idx] @ S
        assert np.max(np.abs(expected_k - w2.kernel[t_idx])) < 1e-11
    # heat kernels on U x U agree across the grid after pullback
    for t in (0.15, 0.8):
        idx1 = np.array([v * r + j for v in U1.vertices for j in range(r)])
        idx2 = np.array([v * r + j for v in U2.vertices for j in range(r)])
        H1 = heat_kernel_matrix(op1, t)[np.ix_(idx1, idx1)]
        H2 = heat_kernel_matrix(op2, t)[np.ix_(idx2, idx2)]
        assert np.max(np.abs(S.conj().T @ H1 @ S - H2)) < 1e-10
    # and a pulled-back section maps the same way through the wave kernel
    u1 = b1.random_section(rng)
    u2 = pullback_section(iso, u1)
    K1 = wave_kernel_matrix(op1, 0.7)
    K2 = wave_kernel_matrix(op2, 0.7)
    mu = np.repeat(m.volumes, r)
    y1 = (K1 @ (mu * op1.to_flat(u1)))
    y2 = (K2 @ (mu * op2.to_flat(u2)))
    y1_pulled = op2.to_flat(pullback_section(iso, op1.to_section(y1)))
    assert np.max(np.abs(y1_pulled - y2)) < 1e-10
