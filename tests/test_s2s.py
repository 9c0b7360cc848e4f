"""Map data objects, time averaging, and the inner-product engine."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracbundle import propagators, s2s, timequad
from fracbundle.bundle import (
    GaugeTransform,
    HermitianBundle,
    apply_gauge,
    build_bundle,
    l2_inner,
    pullback_bundle,
    translation_iso,
)
from fracbundle.errors import DataBoundaryError, OperatorError, QuadratureError
from fracbundle.manifold import Region, build_manifold, edge_index
from fracbundle.operator import assemble
from fracbundle.propagators import (
    TimeGrid,
    TimeSection,
    duhamel_solve,
    duhamel_states,
    fractional_apply,
    fractional_inverse_quadrature,
    fractional_inverse_spectral,
    fractional_kernel_matrix,
    heat_kernel_matrix,
    pack_hermitian,
    wave_kernel_matrix,
)
from fracbundle.reconstruction import build_source_family, first_arrival_matrix
from fracbundle.s2s import (
    DeltaSources,
    FracMapData,
    WaveMapData,
    _jh_quadratic_coeffs,
    _jstar_quadratic_coeffs,
    blago_bilinear,
    flat_indices,
    frac_map_assemble,
    hermitian_rows,
    local_structure,
    wave_map_assemble,
)
from fracbundle.serialize import complex_from_list, complex_to_list
from fracbundle.timequad import (
    interval_integrals,
    pl_times_sampled_array,
    prefix_integrals,
    quadratic_times_sampled_array,
    time_average_linear,
    time_average_nodes,
)

from dense_sources import (
    delta_columns,
    dense_gram,
    dense_pairing,
    dense_respond,
    region_values,
)


def pullback_section(iso, u):
    """(pullback u)(x) = fiber(x)^* u(base(x)): the reference pullback of a
    section along a structure isomorphism."""
    return np.einsum("vji,vj->vi", np.conj(iso.fiber), np.asarray(u, dtype=np.complex128)[iso.base])


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


def blago_inner(wmap, f, h):
    """<w^f(T), w^h(T)> of two TimeSections supported in the region."""
    F, H = (region_values(s, wmap.local.vertices)[None] for s in (f, h))
    return complex(dense_pairing(wmap, F, H)[0, 0])


# -- local structure ---------------------------------------------------------

def test_local_structure_restriction():
    m, b, op = cycle_scene()
    U = arc_region(m, 2, 5)
    loc = local_structure(U, 1)
    assert loc.size == 5
    assert loc.rank == 1
    assert len(loc.edges) == 4  # arc has count-1 internal edges
    h = m.meta["h"][0]
    assert loc.distances[0, 4] == pytest.approx(4 * h)
    assert np.allclose(loc.volumes, h)


def test_local_structure_neighbors_in_edge_list_order():
    # one entry per incident edge, in edge-list order: the lstsq column
    # order of recover_local_operator depends on it
    m = build_manifold({"kind": "torus_grid", "counts": [5, 5], "lengths": [5.0, 5.0]})
    loc = local_structure(Region(m, tuple(range(12))), 1)
    want = {v: [] for v in range(loc.size)}
    for a, b in loc.edges:
        want[int(a)].append(int(b))
        want[int(b)].append(int(a))
    assert [loc.neighbors(v) for v in range(loc.size)] == [want[v] for v in range(loc.size)]


def test_full_balls_are_the_largest_local_balls():
    m = build_manifold({"kind": "torus_grid", "counts": [5, 5], "lengths": [5.0, 5.0]})
    loc = local_structure(Region(m, tuple(range(12))), 1)
    for radius in (0.5, 1.5, 2.5, 100.0):
        sizes = [len(loc.local_ball(v, radius)) for v in range(loc.size)]
        assert loc.full_balls(radius).tolist() == [n == max(sizes) for n in sizes]
    assert not np.all(loc.full_balls(1.5))


# -- fractional map data ------------------------------------------------------

@pytest.mark.parametrize("s", [0.0, -0.5, 1.0, 1.5])
def test_fractional_routes_reject_orders_outside_the_unit_interval(s):
    m, b, op = cycle_scene(8, 8.0)
    u = b.random_section(np.random.default_rng(0))
    idx = flat_indices(arc_region(m, 0, 3).vertices, b.rank)
    for call in (lambda: fractional_apply(op, s, u),
                 lambda: fractional_inverse_spectral(op, s, u),
                 lambda: fractional_inverse_quadrature(op, s, u),
                 lambda: fractional_kernel_matrix(op, s, idx),
                 lambda: frac_map_assemble(op, arc_region(m, 0, 3), s)):
        with pytest.raises(OperatorError, match="fractional order"):
            call()


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
    # region-supported source with its (tiny) kernel part removed
    raw = np.zeros((12, 2), dtype=complex)
    raw[list(U.vertices)] = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = op.project_complement(raw)
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
    f = op.project_complement(b.random_section(rng))
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
        K = hermitian_rows(wmap.kernel[t_idx], range(wmap.local.dim))
        assert np.max(np.abs(K - K.conj().T)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hermitian_packing_round_trips_exactly(data):
    d = data.draw(st.integers(1, 6))
    shape = data.draw(st.sampled_from([(), (3,), (2, 2)])) + (d, d)
    floats = st.floats(-1e150, 1e150, allow_nan=False)
    # any real array is the packed form of the blocks it unpacks to
    P = data.draw(hnp.arrays(np.float64, shape, elements=floats))
    every = range(d)
    assert np.array_equal(pack_hermitian(hermitian_rows(P, every)), P)
    # and an exactly Hermitian block unpacks from its packed form exactly
    re, im = (data.draw(hnp.arrays(np.float64, shape, elements=floats)) for _ in range(2))
    A = re + 1j * im
    H = A + np.conj(np.swapaxes(A, -1, -2))
    assert np.array_equal(hermitian_rows(pack_hermitian(H), every), H)
    # any rows, in any order, are those rows of the whole blocks, also read
    # from the block-axes-first layout of a time-innermost stack
    rows = data.draw(st.lists(st.integers(0, d - 1), max_size=2 * d))
    assert np.array_equal(hermitian_rows(P, rows), hermitian_rows(P, every)[..., rows, :])
    stored = np.moveaxis(np.ascontiguousarray(np.moveaxis(P, (-2, -1), (0, 1))), (0, 1), (-2, -1))
    assert np.array_equal(hermitian_rows(stored, rows), hermitian_rows(P, rows))


def test_wave_map_stacks_are_packed_real_with_a_small_build_peak(probe_scene):
    # the three stacks hold 3 (N+1) D^2 reals, and the build holds little
    # beyond them: no complex (K, D, D) table and no complex stack
    wmap = probe_scene[0]
    op = assemble(build_bundle(build_manifold({"kind": "torus_grid", "counts": [6, 6],
                                               "lengths": [6.0, 6.0]}),
                               2, connection="random", potential="random_hermitian", seed=4))
    n1, d = len(wmap.grid), wmap.local.dim
    packed = 3 * n1 * d * d * 8
    block = Region(op.bundle.manifold, wmap.local.vertices)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        built = wave_map_assemble(op, block, wmap.grid)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stacks = (built.kernel, built.conv_a, built.conv_b)
    assert all(s.dtype == np.float64 and s.shape == (n1, d, d) for s in stacks)
    assert sum(s.nbytes for s in stacks) == packed
    assert peak < 1.5 * packed
    assert all(np.array_equal(a, b) for a, b in zip(stacks, (wmap.kernel, wmap.conv_a,
                                                            wmap.conv_b)))


def test_wave_kernel_small_time_growth(wave_scene):
    m, b, op, U, grid, wmap = wave_scene
    x = 2  # local index
    mu = wmap.local.volumes[x]
    k1 = wmap.kernel[1][x, x].real
    k2 = wmap.kernel[2][x, x].real
    assert k1 == pytest.approx(grid.dt / mu, rel=5e-3)
    assert k2 == pytest.approx(2 * grid.dt / mu, rel=1e-2)


def test_wave_map_kernel_is_the_wave_kernel_block():
    m, b, op = cycle_scene(12, 12.0, rank=2, connection="random", potential="random_positive",
                           seed=5)
    U = arc_region(m, 9, 5)
    grid = TimeGrid(3.0, 96)
    wmap = wave_map_assemble(op, U, grid)
    idx = flat_indices(U.vertices, 2)
    assert list(idx[:4]) == [18, 19, 20, 21]
    # the C-order (V, r) reshape that every section uses
    assert np.array_equal(idx, np.arange(24).reshape(12, 2)[list(U.vertices)].ravel())
    kernel = hermitian_rows(wmap.kernel, range(len(idx)))
    scale = np.max(np.abs(kernel))
    for t_idx in (0, 5, 40, 96):
        block = wave_kernel_matrix(op, grid.times[t_idx], idx)
        assert np.max(np.abs(block - kernel[t_idx])) <= 1e-15 * scale


def test_frozen_data_see_the_monodromy():
    # the README cycle with a phase e^{i theta} on the edge (40, 41), outside
    # the region 0..15: the local structure cannot tell the bundles apart,
    # the wave kernel on the region can.  Only walks winding the cycle cross
    # the edge and come back, and the shortest has n = 64 - 15 = 49 edges.
    # The lattice line kernel is K(t)[0, n] = (1/h) int_0^t J_2n(2s/h) ds,
    # and |J_m(x)| <= (x/2)^m / m! bounds it by (t/h)^(2n+1) / (2n+1)!; each
    # of the two single windings moves an entry by at most twice that, and
    # the bound is doubled again for the longer windings.  The kernels must
    # agree within rounding (1e-12 of the peak) until that bound reaches it
    m = build_manifold({"kind": "cycle", "count": 64, "length": 2 * np.pi})
    U = Region(m, tuple(range(16)))
    grid = TimeGrid(9.0, 1280)
    b = build_bundle(m, 1)
    edge = edge_index(m.edges, m.num_vertices, [(40, 41)])[0]

    def twisted_map(theta):
        transport = b.transport.copy()
        transport[edge] *= np.exp(1j * theta)
        return wave_map_assemble(assemble(HermitianBundle(m, 1, transport, b.potential)), U, grid)

    plain = twisted_map(0.0)
    peak = np.max(np.abs(plain.kernel))
    rounding = 1e-12 * peak
    h = m.meta["h"][0]
    log_bound = [math.log(8.0) + 99 * math.log(t / h) - math.lgamma(100) if t > 0 else -np.inf
                 for t in grid.times]
    agree = np.asarray(log_bound) < math.log(rounding)  # before the winding tail shows
    assert 0.25 * len(grid) < np.count_nonzero(agree)  # a window of a quarter of the grid
    for theta in (0.1, 1.0, np.pi):
        twisted = twisted_map(theta)
        assert twisted.local.to_payload() == plain.local.to_payload()
        diff = np.abs(twisted.kernel - plain.kernel)
        assert np.max(diff[agree]) <= 2 * rounding
        assert np.max(diff) > 1e6 * rounding


def test_wave_map_consistency_with_duhamel(wave_scene):
    rng = np.random.default_rng(1)
    m, b, op, U, grid, wmap = wave_scene
    f = make_source(grid, U, 1, 2, 0, center=0.8, width=0.5, num_vertices=m.num_vertices)
    f.values[:, U.vertices[4], 0] += (0.3 - 0.7j) * bump(grid.times, 1.9, 0.7)
    w = duhamel_solve(op, f)
    direct = w.values[:, list(U.vertices), :].reshape(len(grid), -1)
    resp = dense_respond(wmap, region_values(f, U.vertices)[None])[0]
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(resp - direct)) < 1e-9 * scale


@pytest.fixture(scope="module")
def probe_scene():
    """Rank-2 random bundle on a 6x6 torus, 3x3 block, 54 delta probes and their dense form."""
    m = build_manifold({"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]})
    b = build_bundle(m, 2, connection="random", potential="random_hermitian", seed=4)
    block = Region(m, tuple(i * 6 + j for i in range(3) for j in range(3)))
    grid = TimeGrid(6.0, 240)
    wmap = wave_map_assemble(assemble(b), block, grid)
    fam = build_source_family(wmap, range(len(block)), [1.0, 1.5, 2.0], 1.0)
    src = fam.sources
    dense = np.zeros((len(fam), len(grid), wmap.local.dim))
    dense[np.arange(len(fam)), :, src.component] = src.profiles[src.profile]
    return wmap, fam, dense


def jstar_side(wmap, F, responses_h):
    """int_0^T <f, J R_h> dt as the engine forms it: the H responses against
    the exact piecewise-quadratic J* f test arrays of the F sources."""
    dt, n_half, n1 = wmap.grid.dt, wmap.half_index, len(wmap.grid)
    E = np.array([quadratic_times_sampled_array(*_jstar_quadratic_coeffs(f, dt, n_half), n1, dt)
                  for f in F])
    return np.einsum("fjx,x,hjx->fh", np.conj(E), wmap.local.weights_flat(), responses_h)


def qj_side(wmap, F, responses_h):
    """int_0^T <f, J R_h> dt by the sampled time-average rule: the sampled
    time average of the H responses (time_average_nodes) against the
    piecewise-linear F sources (pl_times_sampled_array)."""
    dt, n_half = wmap.grid.dt, wmap.half_index
    E = np.array([pl_times_sampled_array(time_average_nodes(r, dt), n_half, dt)
                  for r in responses_h])
    return np.einsum("fjx,x,hjx->fh", np.conj(F), wmap.local.weights_flat(), E)


def sampled_pairing(wmap, F, H, f_side=jstar_side):
    """f_side - <R_F, e_H> summed over full response series.

    The pairing of dense sources (m, N+1, D) as the identity states it: the
    F side (by default the engine's J* f rule), minus the F responses
    against the exact piecewise-quadratic J h test arrays of the H sources.
    It is the reference for both forms of blago_bilinear.
    """
    dt, n_half, n1 = wmap.grid.dt, wmap.half_index, len(wmap.grid)
    responses_f, responses_h = dense_respond(wmap, F), dense_respond(wmap, H)
    E2 = np.array([quadratic_times_sampled_array(*_jh_quadratic_coeffs(h, dt, n_half), n1, dt)
                   for h in H])
    T2 = np.einsum("fjx,x,hjx->fh", np.conj(responses_f), wmap.local.weights_flat(), E2)
    return f_side(wmap, F, responses_h) - T2


def assert_pairs_like(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_delta_source_paths_match_dense(probe_scene):
    # the probe family's delta sources against the same sources stated
    # densely, and against the pairing summed over full response series
    wmap, fam, dense = probe_scene
    assert len(fam) == 54

    resp_delta = wmap.respond(fam.sources)
    resp_dense = dense_respond(wmap, dense)
    assert np.max(np.abs(resp_delta - resp_dense)) <= 1e-12 * np.max(np.abs(resp_dense))
    G_delta = blago_bilinear(wmap, fam.sources, fam.sources)
    G_dense = dense_pairing(wmap, dense, dense)
    assert np.max(np.abs(G_delta - G_dense)) <= 1e-12 * np.max(np.abs(G_dense))
    assert_pairs_like(G_delta, sampled_pairing(wmap, dense, dense))


@pytest.mark.parametrize("field, bad", [("component", -1), ("component", 18),
                                        ("profile", -1), ("profile", 3)])
def test_delta_source_indices_off_their_range_are_refused(probe_scene, field, bad):
    # a component of -1 would read component D - 1 and a profile of -1 the
    # last profile; the error names the bad value
    wmap, fam = probe_scene[:2]
    src = fam.sources
    index = getattr(src, field).copy()
    index[5] = bad
    bent = dataclasses.replace(src, **{field: index})
    for call in (lambda: wmap.respond(bent), lambda: wmap.respond(bent, rows=[3, 5]),
                 lambda: blago_bilinear(wmap, bent, src), lambda: blago_bilinear(wmap, src, bent)):
        with pytest.raises(OperatorError, match=f"{field} index {bad} is outside"):
            call()


@pytest.mark.parametrize("samples", [237, 245], ids=["short", "long"])
def test_delta_source_profiles_of_another_length_are_refused(probe_scene, samples):
    # the map has 241 time rows; a shorter profile paired as if zero-padded
    # and respond(rows=) read either one, both silently
    wmap, fam = probe_scene[:2]
    src = fam.sources
    profiles = np.zeros((len(src.profiles), samples))
    n = min(samples, len(wmap.grid))
    profiles[:, :n] = src.profiles[:, :n]
    bent = dataclasses.replace(src, profiles=profiles)
    for call in (lambda: wmap.respond(bent), lambda: wmap.respond(bent, rows=[3, 5]),
                 lambda: blago_bilinear(wmap, bent, src), lambda: blago_bilinear(wmap, src, bent)):
        with pytest.raises(OperatorError, match=f"241 samples, not shape .*{samples}"):
            call()


@pytest.mark.parametrize("shape", [(1, 241), (1, 241, 9, 2), (1, 241, 17), (54, 241, 18)],
                         ids=["2d", "4d", "short_components", "map_shape"])
def test_dense_sources_of_another_shape_are_refused(probe_scene, shape):
    # the map's one source form is DeltaSources: a dense batch of any shape,
    # the map's own (m, N+1, D) included, is refused on either side, and the
    # error names the form it must take
    wmap, fam = probe_scene[:2]
    bent, src = np.ones(shape), fam.sources
    for call in (lambda: wmap.respond(bent), lambda: wmap.respond(bent, rows=[3, 5]),
                 lambda: blago_bilinear(wmap, bent, src), lambda: blago_bilinear(wmap, src, bent)):
        with pytest.raises(OperatorError, match="must be DeltaSources, not ndarray"):
            call()


@pytest.mark.parametrize("fields", [
    {"profile": np.array([0, 1]), "component": np.array([3])},
    {"profile": np.array([[0, 1]]), "component": np.array([[3, 5]])},
    {"profile": np.array([0]), "component": [3]},
    {"profile": np.array([0.0]), "component": np.array([3])},
    {"profiles": np.ones(241)},
], ids=["lengths_differ", "2d_indices", "list_component", "float_profile", "1d_profiles"])
def test_malformed_delta_sources_are_refused_at_construction(probe_scene, fields):
    # unchecked, a profile index without its component would respond at
    # another source's component, 2-D indices would give a 4-D response, and
    # a list component would raise a bare TypeError
    profiles = probe_scene[1].sources.profiles
    with pytest.raises(OperatorError, match="1-D integer profile and component arrays of one"):
        DeltaSources(**{"profiles": profiles, "profile": np.array([0]),
                        "component": np.array([3]), **fields})


def test_blago_bilinear_has_one_path(probe_scene, monkeypatch):
    # the pairing runs one spectral pass over the F profiles and builds no
    # response series; a profile need not vanish at t = 0
    wmap, fam, dense = probe_scene
    comps = fam.sources.component[:6]
    # each of the six sources on a profile of its own, one starting at 0.5
    profiles = fam.sources.profiles[fam.sources.profile[:6]]
    profiles[2, 0] = 0.5
    delta = DeltaSources(profiles, np.arange(6), comps)
    sources = dense[:6].copy()
    sources[2, 0, comps[2]] = 0.5
    want = sampled_pairing(wmap, sources, sources)

    def forbidden(*args, **kwargs):
        raise AssertionError("the pairing must not build response series")

    monkeypatch.setattr(WaveMapData, "respond", forbidden)
    monkeypatch.setattr(propagators, "mode_convolve", forbidden)
    monkeypatch.setattr(s2s, "mode_convolve", forbidden)
    assert_pairs_like(blago_bilinear(wmap, delta, delta), want)


def test_complex_families_pair_at_every_component(probe_scene, monkeypatch):
    # every profile of a probe family sits at every component; with complex
    # amplitudes it pairs through the contraction in frequency, which runs
    # no inverse transform.  The sides carry different complex amplitudes,
    # and one profile of each side starts nonzero, so both B_up p[0] terms
    # enter
    wmap, fam, dense = probe_scene
    calls = []
    for name in ("ifft", "irfft"):
        def counted(*args, inverse=getattr(np.fft, name), **kwargs):
            calls.append(inverse)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    src = fam.sources
    rng = np.random.default_rng(12)
    sides = []
    for start in (0.5 - 0.25j, -0.75j):
        profiles = src.profiles * (rng.standard_normal(3) + 1j * rng.standard_normal(3))[:, None]
        profiles[1, 0] = start
        batch = np.zeros(dense.shape, dtype=complex)
        batch[np.arange(len(src)), :, src.component] = profiles[src.profile]
        sides.append((DeltaSources(profiles, src.profile, src.component), batch))
    (F, dense_f), (H, dense_h) = sides
    got = blago_bilinear(wmap, F, H)
    assert calls == []
    assert_pairs_like(got, sampled_pairing(wmap, dense_f, dense_h))


def test_only_profiles_at_every_component_run_an_inverse_transform(probe_scene, monkeypatch):
    # profiles at a few components are contracted in frequency and run no
    # inverse FFT; a probe family's profiles sit at every component and run
    # one each, over every H profile at once
    wmap, fam, dense = probe_scene
    calls = []
    for name in ("ifft", "irfft"):
        def counted(*args, inverse=getattr(np.fft, name), **kwargs):
            calls.append(inverse)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    src = fam.sources
    pick = [0, 20, 40]
    few = DeltaSources(src.profiles, src.profile[pick], src.component[pick])
    for side in (few, delta_columns(dense[:6])[0]):
        blago_bilinear(wmap, side, side)
        assert calls == []
    blago_bilinear(wmap, src, src)
    assert len(calls) == len(src.profiles) == 3


def delta_family(rng, wmap, count, n_profiles, complex_amplitudes):
    """count delta probes over n_profiles bumps at random components.

    The first profile is a bump cut off by t = 0, so it starts nonzero; the
    others lie in (0, T).  Members repeat profiles (and sometimes
    components); with complex amplitudes each profile carries a random
    complex factor.
    """
    times, T = wmap.grid.times, wmap.horizon
    profiles = []
    for k in range(n_profiles):
        width = rng.uniform(0.3, 0.6 * T)
        if k == 0:
            center = rng.uniform(0.1, 0.4) * width
        else:
            center = rng.uniform(width / 2 + 1e-3, T - width / 2)
        prof = bump(times, center, width)
        if complex_amplitudes:
            prof = prof * (rng.standard_normal() + 1j * rng.standard_normal())
        profiles.append(prof)
    profiles = np.asarray(profiles)
    which = rng.integers(0, n_profiles, count)
    comps = rng.integers(0, wmap.local.dim, count)
    dense = np.zeros((count, len(times), wmap.local.dim), dtype=profiles.dtype)
    dense[np.arange(count), :, comps] = profiles[which]
    return DeltaSources(profiles, which, comps), dense


def dense_sources(rng, wmap, complex_amplitudes):
    """Four dense sources: three bumps at random columns, a bump times a
    section over every column, noise over every sample (nonzero at t = 0),
    and zero."""
    times, T, d = wmap.grid.times, wmap.horizon, wmap.local.dim
    shape = (len(times), d)

    def amplitude(*size):
        a = rng.standard_normal(size)
        return a + 1j * rng.standard_normal(size) if complex_amplitudes else a

    out = np.zeros((4,) + shape, dtype=complex if complex_amplitudes else float)
    for _ in range(3):
        width = rng.uniform(0.3, 0.6 * T)
        out[0, :, rng.integers(0, d)] += amplitude() * bump(
            times, rng.uniform(width / 2, T - width / 2), width)
    out[1] = np.outer(bump(times, 0.5 * T, 0.5 * T), amplitude(d))
    out[2] = amplitude(*shape)
    return out


@settings(max_examples=25, deadline=None)
@given(torus=st.booleans(), rank=st.integers(1, 2), complex_f=st.booleans(),
       complex_h=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_spectral_pairing_matches_dense_sources(torus, rank, complex_f, complex_h, seed):
    # blago_bilinear against the pairing summed over full response series of
    # the same sources, also for dense sources paired as their delta columns
    rng = np.random.default_rng(seed)
    if torus:
        m = build_manifold({"kind": "torus_grid", "counts": [4, 3], "lengths": [2.0, 1.5]})
        size = int(rng.integers(2, m.num_vertices + 1))
        U = Region(m, tuple(int(v) for v in rng.choice(m.num_vertices, size, replace=False)))
    else:
        n = int(rng.integers(5, 11))
        m = build_manifold({"kind": "cycle", "count": n, "length": 0.5 * n})
        U = arc_region(m, int(rng.integers(0, n)), int(rng.integers(2, n + 1)))
    b = build_bundle(m, rank, connection="random", potential="random_positive", seed=seed)
    wmap = wave_map_assemble(assemble(b), U, TimeGrid(4.0, 128))
    F, delta_f = delta_family(rng, wmap, int(rng.integers(1, 9)), int(rng.integers(1, 4)),
                              complex_f)
    H, delta_h = delta_family(rng, wmap, int(rng.integers(1, 9)), int(rng.integers(1, 4)),
                              complex_h)
    assert_pairs_like(blago_bilinear(wmap, F, H), sampled_pairing(wmap, delta_f, delta_h))
    dense_f = np.concatenate([delta_f, dense_sources(rng, wmap, complex_f)])
    dense_h = np.concatenate([dense_sources(rng, wmap, complex_h), delta_h])
    G = dense_pairing(wmap, dense_f, dense_h)
    assert_pairs_like(G, sampled_pairing(wmap, dense_f, dense_h))
    # the zero source is the last F source and the fourth H source
    assert np.all(G[-1] == 0) and np.all(G[:, 3] == 0)


def test_pairing_with_an_empty_side_is_an_empty_matrix(probe_scene):
    wmap, fam = probe_scene[:2]
    src = fam.sources

    def first(m):
        return DeltaSources(src.profiles, src.profile[:m], src.component[:m])

    for mf, mh in ((0, 3), (3, 0), (0, 0)):
        G = blago_bilinear(wmap, first(mf), first(mh))
        assert G.shape == (mf, mh) and G.dtype == np.complex128
    # the rows-only responses of no delta source
    none = wmap.respond(first(0), rows=[3, 5])
    assert none.shape == (0, 2, wmap.local.dim)


def test_pairing_at_a_few_components_folds_only_their_rows(probe_scene):
    # delta sources at a few components read a few kernel rows: the pairing
    # folds only those and never holds a whole (N+1, D, D) stack
    wmap, fam, dense = probe_scene
    pick = [0, 20, 40]
    src = fam.sources
    delta = DeltaSources(src.profiles, src.profile[pick], src.component[pick])
    assert len(set(delta.component.tolist())) == 3 < wmap.local.dim
    want = sampled_pairing(wmap, dense[pick], dense[pick])
    for side in (delta, delta_columns(dense[pick])[0]):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            G = blago_bilinear(wmap, side, side)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < wmap.conv_a.nbytes
        assert_pairs_like(G, want)


def test_respond_rows_match_full_series(probe_scene):
    wmap, fam, dense = probe_scene
    n = wmap.grid.n_steps
    rows = [0, 1, n // 2 - 2, n // 2, n // 2 + 2, n]
    rng = np.random.default_rng(8)
    # the columns of dense noise, nonzero at t = 0, exercise the A[j] src[0] term
    noise = rng.standard_normal(dense[:3].shape) + 1j * rng.standard_normal(dense[:3].shape)
    for sources in (fam.sources, delta_columns(dense)[0], delta_columns(noise)[0]):
        full = wmap.respond(sources)
        at_rows = wmap.respond(sources, rows=rows)
        assert at_rows.shape == (len(sources), len(rows), wmap.local.dim)
        assert np.all(at_rows[:, 0] == 0.0)
        assert np.max(np.abs(at_rows - full[:, rows])) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("rows", [[], [17], [-1]], ids=["none", "past_the_end", "negative"])
def test_respond_refuses_rows_off_the_grid(rows):
    # the 16-step map grid has rows 0..16, and the error names that range
    m, b, op = cycle_scene(8, 8.0)
    wmap = wave_map_assemble(op, arc_region(m, 0, 3), TimeGrid(2.0, 16))
    with pytest.raises(OperatorError, match=r"0\.\.16"):
        wmap.respond(DeltaSources(np.ones((1, 17)), np.array([0]), np.array([1])), rows=rows)


def test_complex_profiles_respond_at_rows_as_in_the_full_series(probe_scene):
    # complex profiles combine the packed blocks with complex coefficients:
    # their real and imaginary parts are unpacked apart
    wmap, fam, dense = probe_scene
    src = fam.sources
    rng = np.random.default_rng(12)
    profiles = src.profiles[src.profile].astype(complex)
    profiles[::3] *= 0.6 - 0.8j
    # a shared complex ramp that is nonzero at t = 0
    profiles[1::3] += (0.2 - 0.5j) * rng.standard_normal(profiles.shape[1])
    sources = DeltaSources(profiles, np.arange(len(profiles)), src.component)
    n = wmap.grid.n_steps
    rows = [0, 1, n // 2 - 2, n // 2, n]
    full = wmap.respond(sources)
    at_rows = wmap.respond(sources, rows=rows)
    assert np.max(np.abs(at_rows - full[:, rows])) <= 1e-13 * np.max(np.abs(full))


def test_first_arrival_reads_the_unpacked_kernel_block(probe_scene):
    # entry [y, x] is the first grid time at which the largest entry modulus
    # of the unpacked block K[:, y, x] passes eta times its peak; the
    # diagonal is 0
    wmap = probe_scene[0]
    r, eta = wmap.local.rank, 0.1
    kernel = hermitian_rows(wmap.kernel, range(wmap.local.dim))
    arr = first_arrival_matrix(wmap, eta)
    for x, y in ((0, 4), (4, 0), (2, 7)):
        block = kernel[:, y * r:(y + 1) * r, x * r:(x + 1) * r]
        amp = np.max(np.abs(block).reshape(len(block), -1), axis=1)
        hit = np.nonzero(amp > eta * np.max(amp))[0][0]
        assert arr[y, x] == wmap.grid.times[hit]
    assert arr[5, 5] == 0.0


# -- time averaging -----------------------------------------------------------

def test_time_average_closed_forms():
    grid = TimeGrid(4.0, 200)  # T = 2
    T = 2.0
    ts = grid.times
    ones = np.ones(len(grid))
    j1 = time_average_linear(ones, grid.dt)
    assert np.allclose(j1, T - ts, atol=1e-12)
    j2 = time_average_linear(ts.copy(), grid.dt)
    assert np.allclose(j2, T * (T - ts), atol=1e-12)
    # sampled rule is exact through quintic polynomials
    for p in (2, 3, 5):
        jp = time_average_nodes(ts**p, grid.dt)
        exact = ((2 * T - ts) ** (p + 1) - ts ** (p + 1)) / (2 * (p + 1))
        assert np.max(np.abs(jp - exact)) < 1e-12 * max(1.0, np.max(np.abs(exact)))


def test_time_average_vanishes_at_horizon():
    grid = TimeGrid(6.0, 120)
    rng = np.random.default_rng(2)
    series = rng.standard_normal(len(grid))
    out = time_average_nodes(series, grid.dt)
    assert out[60] == 0.0


def poly1d_moment_tables():
    """The numpy polynomial build of timequad's moment table, kept verbatim
    as the reference its plain-float build must reproduce bit for bit."""
    tables = np.zeros((3, 6, 6))
    for shift in range(6):
        rel = np.arange(6, dtype=np.float64) - shift
        for k in range(6):
            # Lagrange basis polynomial on the stencil nodes
            num = np.poly1d([1.0])
            den = 1.0
            for mm in range(6):
                if mm == k:
                    continue
                num *= np.poly1d([1.0, -rel[mm]])
                den *= rel[k] - rel[mm]
            basis = num / den
            for p in range(3):
                poly = basis * np.poly1d([1.0] + [0.0] * p)
                anti = np.polyint(poly)
                tables[p, shift, k] = anti(1.0) - anti(0.0)
    return tables


def exact_moment(p, shift, k):
    """int_0^1 u^p L_k(u) du in exact rationals, L_k the Lagrange basis on
    the stencil offsets m - shift, coefficients lowest power first."""
    coeffs = [Fraction(1)]
    for m in range(6):
        if m != k:
            coeffs = [(a - (m - shift) * b) / (k - m)
                      for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    return sum(c / (j + p + 1) for j, c in enumerate(coeffs))


def test_moment_table_is_the_poly1d_build_and_near_the_exact_one():
    # bit for bit the numpy polynomial build it replaced, so no pairing moves;
    # that build is not correctly rounded: 75 of its 108 entries differ from
    # the exact rationals, by at most 4.4e-16
    assert np.array_equal(timequad._TABLES, poly1d_moment_tables())
    exact = np.array([[[float(exact_moment(p, shift, k)) for k in range(6)]
                       for shift in range(6)] for p in range(3)])
    assert np.max(np.abs(timequad._TABLES - exact)) <= 4.5e-16


STENCIL_RULES = {
    "interval_integrals": lambda y, dt: np.sum(interval_integrals(y, dt)),
    "prefix_integrals": lambda y, dt: prefix_integrals(y, dt)[-1],
    "time_average_nodes": lambda y, dt: 2 * time_average_nodes(y, dt)[0],
    "pl_times_sampled_array": lambda y, dt: np.sum(pl_times_sampled_array(y, len(y) - 1, dt)),
    "quadratic_times_sampled_array": lambda y, dt: y @ quadratic_times_sampled_array(
        np.ones(len(y) - 1), np.zeros(len(y) - 1), np.zeros(len(y) - 1), len(y), dt),
}


@pytest.mark.parametrize("rule", sorted(STENCIL_RULES))
def test_stencil_rules_refuse_fewer_than_six_nodes(rule):
    # int_0^{(n-1) dt} t^2 dt through each six-node rule: exact at six
    # nodes; at five the stencil would start at node -1, the last node
    dt = 0.05
    for n in (6, 7):
        t = dt * np.arange(n)
        assert abs(STENCIL_RULES[rule](t**2, dt) - t[-1] ** 3 / 3) <= 1e-16
    with pytest.raises(QuadratureError, match="6-node quadrature stencil"):
        STENCIL_RULES[rule]((dt * np.arange(5)) ** 2, dt)


def adjoint_average_linear(samples, dt):
    """(J* f)(s) = F(min(s, 2T - s)) / 2 at the nodes for an exactly
    piecewise-linear f, F its trapezoid prefix."""
    pre = np.zeros_like(samples)
    np.cumsum(0.5 * dt * (samples[1:] + samples[:-1]), out=pre[1:])
    nodes = np.arange(len(samples))
    return 0.5 * pre[np.minimum(nodes, nodes[::-1])]


@pytest.mark.parametrize("coeffs, reference, whole_span", [
    (_jstar_quadratic_coeffs, adjoint_average_linear, True),
    (_jh_quadratic_coeffs, time_average_linear, False),
])
@pytest.mark.parametrize("complex_f", [False, True])
def test_prefix_quadratics_are_exact(coeffs, reference, whole_span, complex_f):
    # the local quadratics of J* f (all N intervals) and J h (the first N/2)
    # against the nodal reference on the grid refined at the midpoints, where
    # f is still piecewise linear and the trapezoid prefix still exact
    rng = np.random.default_rng(7 + complex_f)
    for n, t_max in ((8, 1.0), (64, 4.0), (250, 6.5)):
        dt = t_max / n
        f = rng.standard_normal(n + 1)
        if complex_f:
            f = f + 1j * rng.standard_normal(n + 1)
        fine = np.empty(2 * n + 1, dtype=f.dtype)
        fine[::2], fine[1::2] = f, 0.5 * (f[1:] + f[:-1])
        want = reference(fine, dt / 2)
        c0, c1, c2 = coeffs(f, dt, n // 2)
        count = n if whole_span else n // 2
        assert c0.shape == (count,)
        # u = 0, 1/2 and 1 on interval i sit at fine nodes 2i, 2i + 1 and 2i + 2
        got = np.stack([c0, c0 + c1 / 2 + c2 / 4, c0 + c1 + c2], axis=1)
        want = np.stack([want[0:2 * count:2], want[1:2 * count:2], want[2:2 * count + 1:2]], axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- the inner-product identity ----------------------------------------------

def direct_pairings(op, grid, sources):
    states = [w[0] for w in duhamel_states(op, sources, [grid.n_steps // 2])]
    G = np.empty((len(states), len(states)), dtype=complex)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            G[i, j] = l2_inner(op.bundle, si, sj)
    return G


def test_adjoint_rule_against_duhamel_states():
    # the engine (J* f rule) and the sampled time-average rule against whole
    # manifold Duhamel states, on seeded rank 1-2 cycle scenes: every scene
    # within verify_blago's default gate, and the engine's largest error over
    # the scenes at most 1.1 times the other rule's.  One scene alone may go
    # either way: both errors are quadrature errors of about 1e-8 to 1e-9.
    new_errs, old_errs = [], []
    grid, T = TimeGrid(4.0, 128), 2.0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        n, rank = int(rng.integers(5, 11)), int(rng.integers(1, 3))
        m, b, op = cycle_scene(n, 0.5 * n, rank=rank, connection="random",
                               potential="random_positive", seed=seed)
        U = arc_region(m, int(rng.integers(0, n)), int(rng.integers(2, n + 1)))
        wmap = wave_map_assemble(op, U, grid)
        sources = []
        for _ in range(4):
            vals = np.zeros((len(grid), n, rank), dtype=complex)
            for _ in range(3):
                width = rng.uniform(0.3, 0.6 * T)
                vals[:, U.vertices[rng.integers(0, len(U))], rng.integers(0, rank)] += (
                    (rng.standard_normal() + 1j * rng.standard_normal())
                    * bump(grid.times, rng.uniform(width / 2, T - width / 2), width))
            sources.append(TimeSection(grid, vals))
        batch = np.stack([region_values(src, U.vertices) for src in sources])
        G_direct = direct_pairings(op, grid, sources)
        scale = np.max(np.abs(G_direct))
        new_errs.append(np.max(np.abs(dense_pairing(wmap, batch, batch) - G_direct)) / scale)
        old_errs.append(np.max(np.abs(sampled_pairing(wmap, batch, batch, qj_side) - G_direct))
                        / scale)
    assert max(new_errs) < 1e-6
    assert max(new_errs) <= 1.1 * max(old_errs)


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
    # a section over every region vertex times one bump
    vals = np.zeros((len(grid), m.num_vertices, 1), dtype=complex)
    vals[:, list(U.vertices), 0] = np.outer(bump(grid.times, 1.0, 0.8),
                                            rng.standard_normal(len(U)) + 1j * rng.standard_normal(len(U)))
    sources.append(TimeSection(grid, vals))
    G_direct = direct_pairings(op, grid, sources)
    G_engine = dense_gram(wmap, np.stack([region_values(s, U.vertices) for s in sources]))
    scale = np.max(np.abs(G_direct))
    # within the default verify_blago tolerance
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
    G = dense_gram(wmap, np.stack([region_values(s, U.vertices) for s in (f1, f2, f1)]))
    assert np.max(np.abs(G - G.conj().T)) == 0.0
    assert G[0, 0].real > 0
    assert abs(G[0, 2] - G[0, 0]) < 1e-8 * abs(G[0, 0])  # duplicated source
    ev = np.linalg.eigvalsh(G)
    assert ev.min() >= -1e-8 * np.trace(G).real


@settings(max_examples=15, deadline=None)
@given(n=st.integers(6, 12), rank=st.integers(1, 2), count=st.integers(3, 12),
       seed=st.integers(0, 2**31 - 1))
def test_pairing_engine_invariants_on_random_scenes(n, rank, count, seed):
    # a random bundle on a small cycle, a short horizon and a few seeded
    # bump sources: the Gram is Hermitian and PSD, the pairing is
    # conjugate-linear in F and linear in H, and gauged map data with gauged
    # sources reproduce the Gram
    rng = np.random.default_rng(seed)
    m = build_manifold({"kind": "cycle", "count": n, "length": 0.5 * n})
    b = build_bundle(m, rank, connection="random", potential="random_positive", seed=seed)
    U = arc_region(m, int(rng.integers(0, n)), min(count, n))
    grid = TimeGrid(4.0, 128)  # T = 2
    wmap = wave_map_assemble(assemble(b), U, grid)
    sources = np.zeros((4, len(grid), len(U), rank), dtype=complex)
    for k in range(len(sources)):
        for _ in range(2):
            width = rng.uniform(0.6, 1.2)
            center = rng.uniform(width / 2, 2.0 - width / 2)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            sources[k, :, rng.integers(0, len(U)), rng.integers(0, rank)] += (
                amp * bump(grid.times, center, width))
    batch = sources.reshape(len(sources), len(grid), -1)

    G = dense_gram(wmap, batch)
    trace = np.trace(G).real
    assert np.array_equal(G, G.conj().T)
    assert np.linalg.eigvalsh(G).min() >= -1e-10 * trace

    F, H = batch[:2], batch[2:]
    P = dense_pairing(wmap, F, H)
    scale = np.max(np.abs(P))
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    combo_f = dense_pairing(wmap, np.tensordot(a, F, axes=1)[None], H)[0]
    assert np.max(np.abs(combo_f - np.conj(a) @ P)) <= 1e-10 * scale
    combo_h = dense_pairing(wmap, F, np.tensordot(a, H, axes=1)[None])[:, 0]
    assert np.max(np.abs(combo_h - P @ a)) <= 1e-10 * scale

    g = GaugeTransform.random(rng, n, rank)
    wmap_g = wave_map_assemble(assemble(apply_gauge(b, g)), U, grid)
    S = g.matrices[list(U.vertices)]
    gauged = np.einsum("vji,ktvj->ktvi", S.conj(), sources)
    G_g = dense_gram(wmap_g, gauged.reshape(batch.shape))
    assert np.max(np.abs(G_g - G)) <= 1e-10 * np.max(np.abs(G))


# -- serialization and the data boundary ---------------------------------------

def test_wave_map_round_trip(wave_scene):
    # the serialization boundary: everything the inverse layer needs must
    # survive a dump/load cycle bit-exactly, and reconstruction operations
    # must run identically from the deserialized object
    m, b, op, U, grid, wmap = wave_scene
    payload = json.loads(json.dumps(wmap.to_payload(), indent=1, sort_keys=True))
    back = WaveMapData.from_payload(payload)
    assert np.array_equal(back.kernel, wmap.kernel)
    assert np.array_equal(back.conv_a, wmap.conv_a)
    assert back.local.vertices == wmap.local.vertices
    f = make_source(grid, U, 1, 2, 0, 1.0, 0.5, m.num_vertices)
    h = make_source(grid, U, 1, 4, 0, 1.2, 0.5, m.num_vertices)
    assert blago_inner(back, f, h) == blago_inner(wmap, f, h)
    assert np.array_equal(first_arrival_matrix(back, 0.1), first_arrival_matrix(wmap, 0.1))


def test_wave_map_refuses_stacks_that_are_not_packed(wave_scene):
    wmap = wave_scene[-1]
    d = wmap.local.dim
    for name, bad in (("kernel", hermitian_rows(wmap.kernel, range(d))),
                      ("conv_a", wmap.conv_a[:, :-1, :-1]),
                      ("conv_b", wmap.conv_b.astype(np.float32))):
        with pytest.raises(OperatorError, match=name):
            dataclasses.replace(wmap, **{name: bad})


def test_wave_map_payload_refuses_a_block_that_is_not_hermitian(wave_scene):
    # packing would drop the anti-Hermitian part silently
    wmap = wave_scene[-1]
    d = wmap.local.dim
    payload = json.loads(json.dumps(wmap.to_payload(), indent=1, sort_keys=True))
    block = complex_from_list(payload["conv_b"][7], (d, d))
    block[1, 3] += 1e-9 * np.max(np.abs(block))
    payload["conv_b"][7] = complex_to_list(block)
    with pytest.raises(DataBoundaryError, match="conv_b block at time row 7"):
        WaveMapData.from_payload(payload)
    # an anti-Hermitian part at rounding level is dropped
    block[1, 3] -= 1e-9 * np.max(np.abs(block)) * (1 - 1e-5)
    payload["conv_b"][7] = complex_to_list(block)
    WaveMapData.from_payload(payload)


@pytest.mark.parametrize("field, bad", [
    ("edges", [[0, 1], [0, 9]]),
    ("edges", [[-1, 0]]),
    ("volumes", [1.0] * 6),
    ("volumes", [1.0] * 4),
    ("edge_lengths", [1.0] * 3),
    ("edge_weights", [1.0] * 5),
    ("distances", [0.0] * 24),
    ("vertices", [0, 1, 2, 3, 3]),
    ("rank", 2),
], ids=["endpoint_past_the_region", "negative_endpoint", "extra_volumes", "short_volumes",
        "short_edge_lengths", "long_edge_weights", "short_distances", "repeated_vertex",
        "rank_past_the_blocks"])
def test_wave_map_payload_refuses_local_arrays_that_disagree_with_the_region(field, bad):
    # a 5-vertex arc has 4 inner edges; unchecked, an edge to vertex 9 would
    # give neighbors(0) == [9], extra volumes and a short edge_lengths list
    # would be read silently, short volumes would fail in the pairing, a
    # repeated vertex id would be accepted, and a short distance list or a
    # rank of 2 on rank-1 blocks would fail in a bare numpy reshape
    m, b, op = cycle_scene(8, 8.0)
    payload = wave_map_assemble(op, arc_region(m, 0, 5), TimeGrid(2.0, 16)).to_payload()
    local = payload["local"]
    assert len(local["vertices"]) == 5 and len(local["edges"]) == 4
    WaveMapData.from_payload(payload)
    local[field] = bad
    if field == "edges":
        local["edge_lengths"] = local["edge_weights"] = [1.0] * len(bad)
    with pytest.raises(DataBoundaryError, match="local structure"):
        WaveMapData.from_payload(payload)


def test_frac_map_round_trip():
    m, b, op = cycle_scene(10, 10.0, rank=2, connection="random", seed=9)
    U = arc_region(m, 2, 4)
    fmap = frac_map_assemble(op, U, 0.6)
    back = FracMapData.from_payload(json.loads(json.dumps(fmap.to_payload(), indent=1,
                                                          sort_keys=True)))
    assert np.array_equal(back.block, fmap.block)
    assert back.local.rank == 2


def test_frac_map_payload_refuses_a_rank_that_disagrees_with_its_blocks():
    m, b, op = cycle_scene(10, 10.0, rank=2, connection="random", seed=9)
    payload = frac_map_assemble(op, arc_region(m, 2, 4), 0.6).to_payload()
    payload["local"]["rank"] = 1
    with pytest.raises(DataBoundaryError, match="frac map block holds 64 entries, but the "
                                                "local structure's 4 vertices of rank 1 need 16"):
        FracMapData.from_payload(payload)


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
    b1 = HermitianBundle(m, 2, build_bundle(m, 2, connection="random", seed=11).transport, pot)
    op1 = assemble(b1)
    gauge = GaugeTransform.random(rng, m.num_vertices, 2)
    iso = translation_iso(b1, [5], gauge)
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
    blocks = flat_indices(range(len(U2)), r).reshape(-1, r)
    S[blocks[:, :, None], blocks[:, None, :]] = iso.fiber[list(U2.vertices)]
    expected = S.conj().T @ f1.block @ S
    assert np.max(np.abs(expected - f2.block)) < 1e-11

    grid = TimeGrid(3.0, 96)
    w1 = wave_map_assemble(op1, U1, grid)
    w2 = wave_map_assemble(op2, U2, grid)
    every = range(w1.local.dim)
    for t_idx in (5, 40, 96):
        expected_k = S.conj().T @ hermitian_rows(w1.kernel[t_idx], every) @ S
        assert np.max(np.abs(expected_k - hermitian_rows(w2.kernel[t_idx], every))) < 1e-11
    # heat kernels on U x U agree across the grid after pullback
    for t in (0.15, 0.8):
        H1 = heat_kernel_matrix(op1, t, flat_indices(U1.vertices, r))
        H2 = heat_kernel_matrix(op2, t, flat_indices(U2.vertices, r))
        assert np.max(np.abs(S.conj().T @ H1 @ S - H2)) < 1e-10
    # and a pulled-back section maps the same way through the wave kernel
    u1 = b1.random_section(rng)
    u2 = pullback_section(iso, u1)
    K1 = wave_kernel_matrix(op1, 0.7, np.arange(op1.dim))
    K2 = wave_kernel_matrix(op2, 0.7, np.arange(op2.dim))
    mu = np.repeat(m.volumes, r)
    y1 = (K1 @ (mu * op1.to_flat(u1)))
    y2 = (K2 @ (mu * op2.to_flat(u2)))
    y1_pulled = op2.to_flat(pullback_section(iso, op1.to_section(y1)))
    assert np.max(np.abs(y1_pulled - y2)) < 1e-10
