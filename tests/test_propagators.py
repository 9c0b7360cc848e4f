"""Heat/wave propagators, Duhamel solves, fractional routes, transmutation."""

import tracemalloc

import numpy as np
import pytest

from fracbundle import modefun, propagators
from fracbundle.bundle import HermitianBundle, build_bundle, l2_inner, l2_norm
from fracbundle.errors import OperatorError, QuadratureError
from fracbundle.manifold import build_manifold
from fracbundle.operator import apply_function, assemble, kernel_projector
from fracbundle.propagators import (
    TimeGrid,
    TimeSection,
    duhamel_solve,
    duhamel_states,
    duhamel_weights,
    fractional_apply,
    fractional_inverse_quadrature,
    fractional_inverse_spectral,
    fractional_kernel_matrix,
    fractional_symbol,
    heat_apply,
    heat_kernel_matrix,
    hermitian_rows,
    mode_convolve,
    mode_convolve_rows,
    pl_spectra,
    spectral_block,
    transmutation_gaussian_check,
    transmutation_printed_residual,
    wave_energy,
    wave_kernel_matrix,
)


def cycle_op(n=8, length=None, rank=1, seed=None, **kw):
    m = build_manifold({"kind": "cycle", "count": n, "length": float(length or n)})
    return assemble(build_bundle(m, rank, seed=seed, **kw))


def torus_op(n=4, rank=2, seed=3):
    m = build_manifold({"kind": "torus_grid", "counts": [n, n], "lengths": [float(n), float(n)]})
    b = build_bundle(m, rank, connection="random", potential="random_hermitian", seed=seed)
    # shift the potential so the operator is nonnegative but keeps a trivial kernel
    op0 = assemble(b)
    shift = max(0.0, -op0.min_eigenvalue) + 0.25
    pot = b.potential + shift * np.eye(rank)[None, :, :]
    b2 = HermitianBundle(m, rank, build_bundle(m, rank, connection="random", seed=seed).transport, pot)
    return assemble(b2)


# -- mode functions ---------------------------------------------------------

def test_mode_functions_match_closed_forms():
    z = np.array([-9.0, -2.0, -0.3, -1e-6, 0.0, 1e-6, 0.04, 0.9, 7.0, 300.0])
    x = np.sqrt(np.abs(z))
    c0 = np.where(z >= 0, np.sinc(x / np.pi), np.sinh(x) / np.where(x == 0, 1, x))
    c0[np.abs(z) < 1e-12] = 1.0
    assert np.allclose(modefun.wave_c0(z), c0, rtol=1e-13, atol=1e-13)
    # antiderivative relations, by central differences in t at fixed lam
    for lam in (-1.3, 0.0, 0.7, 11.0):
        for t in (0.3, 1.7):
            dt = 1e-5
            d_g1 = (modefun.wave_g1(t + dt, lam) - modefun.wave_g1(t - dt, lam)) / (2 * dt)
            assert d_g1 == pytest.approx(modefun.wave_g(t, lam), rel=1e-8, abs=1e-9)
            d_g2 = (modefun.wave_g2(t + dt, lam) - modefun.wave_g2(t - dt, lam)) / (2 * dt)
            assert d_g2 == pytest.approx(modefun.wave_g1(t, lam), rel=1e-8, abs=1e-9)


def test_wave_kernel_branch_values():
    assert modefun.wave_g(1.0, 0.0) == pytest.approx(1.0)  # lam = 0 mode: coefficient t
    assert modefun.wave_g(np.pi, 1.0) == pytest.approx(0.0, abs=1e-14)  # sin(pi)
    assert modefun.wave_g(1.0, -1.0) == pytest.approx(np.sinh(1.0))  # 1.1752...


# -- heat -------------------------------------------------------------------

def test_heat_t0_identity_and_eigen_decay():
    rng = np.random.default_rng(0)
    op = torus_op()
    u = op.bundle.random_section(rng)
    assert np.max(np.abs(heat_apply(op, 0.0, u) - u)) < 1e-12
    k = 5
    lam = op.eigenvalues[k]
    sec = op.to_section(op.eigensections[:, k])
    hu = heat_apply(op, 1.0, sec)
    assert np.allclose(hu, np.exp(-lam) * sec, atol=1e-12)
    with pytest.raises(OperatorError):
        heat_apply(op, -0.1, u)


def test_heat_flow_satisfies_evolution_equation():
    # d/dt e^{-tP} u = -P e^{-tP} u, checked by central differences
    rng = np.random.default_rng(14)
    op = torus_op()
    u = op.bundle.random_section(rng)
    t, dt = 0.6, 1e-5
    lhs = (heat_apply(op, t + dt, u) - heat_apply(op, t - dt, u)) / (2 * dt)
    rhs = -op.to_section(op.matrix @ op.to_flat(heat_apply(op, t, u)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * scale


def test_heat_semigroup_law():
    rng = np.random.default_rng(1)
    op = torus_op()
    u = op.bundle.random_section(rng)
    lhs = heat_apply(op, 0.8, u)
    rhs = heat_apply(op, 0.5, heat_apply(op, 0.3, u))
    assert l2_norm(op.bundle, lhs - rhs) < 1e-10 * l2_norm(op.bundle, lhs)


def test_heat_positivity_surrogate():
    rng = np.random.default_rng(2)
    op = torus_op()
    b = op.bundle
    for t in (0.1, 0.7, 2.0):
        for _ in range(5):
            u = b.random_section(rng)
            val = l2_inner(b, heat_apply(op, t, u), u).real
            bound = l2_inner(b, u, u).real * np.exp(-op.min_eigenvalue * t)
            assert val <= bound * (1 + 1e-12)


def test_heat_kernel_monotone_decay_on_cycle():
    op = cycle_op(16, 16.0)
    t = 0.25
    K = heat_kernel_matrix(op, t, np.arange(op.dim))
    row = np.abs(K[0, :])
    # distance on the cycle increases 0,1,...,8 then decreases; kernel follows
    assert np.all(np.diff(row[:9]) < 0)
    assert np.allclose(row[1:], row[:0:-1], rtol=1e-10)  # symmetry around the seed
    idx = np.array([5, 0, 11, 3])  # a block in any order is that block of the full matrix
    assert np.max(np.abs(heat_kernel_matrix(op, t, idx) - K[np.ix_(idx, idx)])) <= 1e-15


def test_spectral_block_matches_explicit_synthesis():
    rng = np.random.default_rng(23)
    op = torus_op()
    idx = np.array([7, 0, 12, 3, 30])
    V = op.eigensections[idx]
    values = rng.standard_normal((4, op.dim))
    want = np.stack([(V * w) @ V.conj().T for w in values])
    scale = np.max(np.abs(want))
    stack = spectral_block(op, values, idx)
    # a stack is packed real and stored time-innermost
    assert stack.shape == (4, len(idx), len(idx)) and stack.dtype == np.float64
    assert np.moveaxis(stack, 0, -1).flags["C_CONTIGUOUS"]
    assert np.max(np.abs(hermitian_rows(stack, range(len(idx))) - want)) <= 1e-14 * scale
    for w, block in zip(values, want):
        got = spectral_block(op, w, idx)
        assert got.shape == (len(idx), len(idx))
        assert np.max(np.abs(got - block)) <= 1e-14 * scale
    with pytest.raises(OperatorError):
        spectral_block(op, values.astype(complex), idx)


def test_fractional_kernel_block_is_that_block_of_the_full_matrix():
    # the kernel of P^{-s}: a block in any order is that block of the full
    # symbol synthesis, and only orders in (0, 1) are kernels of the map
    op = torus_op()
    idx = np.array([5, 0, 11, 3])
    for s in (0.3, 0.7):
        K = spectral_block(op, fractional_symbol(op, -s), np.arange(op.dim))
        got = fractional_kernel_matrix(op, s, idx)
        assert np.max(np.abs(got - K[np.ix_(idx, idx)])) <= 1e-14 * np.max(np.abs(K))
    for s in (0.0, 1.0, -0.5):
        with pytest.raises(OperatorError, match="fractional order"):
            fractional_kernel_matrix(op, s, idx)


# -- wave kernel and Duhamel ------------------------------------------------

def test_wave_kernel_block_is_that_block_of_the_full_matrix():
    op = torus_op()
    idx = np.array([5, 0, 11, 3])
    for t in (0.0, 0.7, 2.3):
        K = wave_kernel_matrix(op, t, np.arange(op.dim))
        assert np.max(np.abs(wave_kernel_matrix(op, t, idx) - K[np.ix_(idx, idx)])) <= 1e-15
    # times (T, 1) give the stack of blocks
    times = np.array([0.2, 1.1])
    stack = hermitian_rows(wave_kernel_matrix(op, times[:, None], idx), range(len(idx)))
    for t, block in zip(times, stack):
        assert np.max(np.abs(block - wave_kernel_matrix(op, t, idx))) <= 1e-15



def test_wave_kernel_basic_properties():
    rng = np.random.default_rng(3)
    op = torus_op()
    u = op.bundle.random_section(rng)
    mu = np.repeat(op.bundle.manifold.volumes, op.bundle.rank)

    def wave(t):  # G(t, P) u through the kernel matrix and the volume weights
        return op.to_section(wave_kernel_matrix(op, t, np.arange(op.dim)) @ (mu * op.to_flat(u)))

    assert np.max(np.abs(wave(0.0))) == 0.0
    # odd in t
    assert np.allclose(wave(-0.7), -wave(0.7))
    # d/dt at 0 is the identity (finite difference)
    dt = 1e-6
    deriv = (wave(dt) - wave(-dt)) / (2 * dt)
    assert np.max(np.abs(deriv - u)) < 1e-8 * max(1.0, np.max(np.abs(u)))


def test_duhamel_zero_source():
    op = torus_op()
    grid = TimeGrid(2.0, 64)
    f = TimeSection(grid, np.zeros((len(grid), op.bundle.manifold.num_vertices, op.bundle.rank)))
    w = duhamel_solve(op, f)
    assert np.max(np.abs(w.values)) == 0.0


def test_duhamel_constant_source_on_kernel_mode():
    # trivial bundle: constant source c on the zero mode gives w = c t^2 / 2
    op = cycle_op(8)
    grid = TimeGrid(3.0, 96)
    c = 0.6 - 0.2j
    vals = np.full((len(grid), 8, 1), c, dtype=complex)
    w = duhamel_solve(op, TimeSection(grid, vals))
    ts = grid.times
    expect = c * ts**2 / 2
    got = w.values[:, 0, 0]
    assert np.allclose(got, expect, atol=1e-12 * max(1.0, abs(c) * ts[-1] ** 2))


def test_duhamel_matches_closed_form_single_mode():
    # source = hat profile on one eigensection; compare with exact convolution
    op = torus_op()
    grid = TimeGrid(2.0, 128)
    k = 7
    lam = op.eigenvalues[k]
    sec = op.to_section(op.eigensections[:, k])
    prof = np.clip(1 - np.abs(grid.times - 0.5) / 0.25, 0.0, None)  # PL hat: exactly representable
    f = TimeSection(grid, prof[:, None, None] * sec[None, :, :])
    w = duhamel_solve(op, f)
    # oracle: closed-form integral of G(t-s) against the PL hat, fine quadrature
    t_probe = grid.times[-1]
    ss = np.linspace(0, t_probe, 20001)
    hat = np.clip(1 - np.abs(ss - 0.5) / 0.25, 0.0, None)
    gk = modefun.wave_g(t_probe - ss, lam)
    oracle = np.trapezoid(hat * gk, ss)
    got = complex(l2_inner(op.bundle, sec, w.values[-1]))
    assert got == pytest.approx(oracle, rel=5e-8)


def test_duhamel_initial_conditions_zero():
    rng = np.random.default_rng(4)
    op = torus_op()
    grid = TimeGrid(1.0, 64)
    vals = np.zeros((len(grid), op.bundle.manifold.num_vertices, op.bundle.rank), dtype=complex)
    vals[1:] = rng.standard_normal(vals[1:].shape)  # source vanishes at t = 0
    w = duhamel_solve(op, TimeSection(grid, vals))
    assert np.max(np.abs(w.values[0])) == 0.0
    # first step is O(dt^2): velocity at 0 vanishes
    assert np.max(np.abs(w.values[1])) < 10 * grid.dt**2 * np.max(np.abs(vals))


@pytest.mark.parametrize("subscripts, weight_shape, source_shape", [
    ("tk,tk->tk", (5,), (5,)),      # per mode
    ("tij,tj->ti", (4, 4), (4,)),   # dense region source
    ("ti,t->ti", (4,), ()),         # one source column
])
def test_mode_convolve_matches_direct_sum(subscripts, weight_shape, source_shape):
    rng = np.random.default_rng(13)
    n1 = 9

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A, B = rand((n1,) + weight_shape), rand((n1,) + weight_shape)
    A[0] = B[0] = 0.0  # row 0 is the zero padding of duhamel_weights
    src = rand((n1,) + source_shape)
    # a source only at row 0 isolates the folded kernel's -B[j + 1] src[0]
    # correction: the response is A[j] src[0], not (A + B_up)[j] src[0]
    row0 = np.zeros_like(src)
    row0[0] = src[0]
    pair = subscripts.replace("t", "")
    for f in (src, row0):
        out = mode_convolve(pl_spectra(A, B), f, subscripts)
        direct = np.zeros_like(out)
        for j in range(1, n1):
            for m in range(1, j + 1):
                direct[j] += np.einsum(pair, A[m], f[j - m]) + np.einsum(pair, B[m], f[j - m + 1])
        assert np.all(out[0] == 0.0)
        assert np.max(np.abs(out - direct)) < 1e-12 * np.max(np.abs(direct))
        # the direct rows form is the same sum, including j = 0 and j = N
        rows = [0, 1, n1 // 2, n1 - 1, 3]
        at_rows = mode_convolve_rows(A, B, f, rows, subscripts)
        assert at_rows.shape == (len(rows),) + out.shape[1:]
        assert np.all(at_rows[0] == 0.0)
        assert np.max(np.abs(at_rows - out[rows])) < 1e-13 * np.max(np.abs(out))


def _random_sections(rng, grid, op, count):
    shape = (len(grid), op.bundle.manifold.num_vertices, op.bundle.rank)
    return [TimeSection(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(count)]


def test_duhamel_batch_matches_single_solves():
    rng = np.random.default_rng(17)
    op = torus_op()
    grid = TimeGrid(2.0, 64)
    sources = _random_sections(rng, grid, op, 3)
    batch = duhamel_solve(op, sources)
    assert isinstance(batch, list) and len(batch) == 3
    for f, w in zip(sources, batch):
        assert np.array_equal(w.values, duhamel_solve(op, f).values)
    # the matmul synthesis against an explicit sum over modes
    n1 = len(grid)
    V = op.eigensections
    wflat = np.repeat(op.bundle.manifold.volumes, op.bundle.rank)
    A, B = duhamel_weights(op.eigenvalues, grid.dt, grid.n_steps)
    for f, w in zip(sources, batch):
        coeffs = (f.values.reshape(n1, op.dim) * wflat) @ V.conj()
        wmodes = mode_convolve(pl_spectra(A, B), coeffs, "tk,tk->tk")
        explicit = sum(np.outer(wmodes[:, k], V[:, k]) for k in range(op.dim))
        got = w.values.reshape(n1, op.dim)
        assert np.max(np.abs(got - explicit)) < 1e-13 * np.max(np.abs(explicit))


def test_duhamel_states_match_solve_rows(monkeypatch):
    rng = np.random.default_rng(19)
    op = torus_op()
    grid = TimeGrid(2.0, 64)
    sources = _random_sections(rng, grid, op, 2)
    sources[1].values[:, 3:] = 0.0  # supported on three vertices
    sources[1].values[:5] = 0.0     # and silent at first
    rows = [0, 17, 32, 63, 64]
    solved = [w.values[rows] for w in duhamel_solve(op, sources)]

    def no_transform(*args, **kwargs):
        raise AssertionError("the direct states went through the FFT convolution")

    monkeypatch.setattr(propagators, "mode_convolve", no_transform)
    monkeypatch.setattr(propagators.np.fft, "fft", no_transform)
    states = duhamel_states(op, sources, rows)
    assert len(states) == 2
    for got, want in zip(states, solved):
        assert got.shape == want.shape
        assert np.all(got[0] == 0.0)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert np.array_equal(duhamel_states(op, sources[1], rows), states[1])
    assert duhamel_states(op, [], rows) == []


def test_duhamel_states_on_the_half_grid_match_the_full_grid():
    # the state at row N/2 reads source rows 0..N/2 only, so the sources cut
    # to [0, T] on a grid of the same dt give the same states bit for bit
    rng = np.random.default_rng(29)
    op = torus_op()
    full, half = TimeGrid(2 * 0.7, 70), TimeGrid(0.7, 35)
    assert half.dt == full.dt
    sources = _random_sections(rng, full, op, 2)
    want = duhamel_states(op, sources, [35])
    got = duhamel_states(op, [TimeSection(half, f.values[:36]) for f in sources], [35])
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_duhamel_states_stream_a_generator():
    rng = np.random.default_rng(31)
    op = torus_op()
    grid = TimeGrid(2.0, 64)
    sources = _random_sections(rng, grid, op, 3)
    want = duhamel_states(op, sources, [17, 64])
    got = duhamel_states(op, (f for f in sources), [17, 64])
    assert len(got) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_duhamel_states_check_each_source_as_it_is_drawn(monkeypatch):
    # a streamed batch holds no list to check up front: the first two
    # sources are solved before the third, off the first one's grid, is refused
    rng = np.random.default_rng(32)
    op = torus_op()
    sources = _random_sections(rng, TimeGrid(2.0, 64), op, 2)
    sources += _random_sections(rng, TimeGrid(2.0, 32), op, 1)
    solved = []
    convolve = propagators.mode_convolve_rows

    def counted(*args):
        solved.append(None)
        return convolve(*args)

    monkeypatch.setattr(propagators, "mode_convolve_rows", counted)
    with pytest.raises(OperatorError):
        duhamel_states(op, (f for f in sources), [17])
    assert len(solved) == 2


@pytest.mark.parametrize("rows", [[], [17], [-1]], ids=["none", "past_the_end", "negative"])
def test_duhamel_states_refuse_rows_off_the_grid(rows):
    # the 16-step grid has rows 0..16, and the error names that range
    op = cycle_op(8)
    grid = TimeGrid(2.0, 16)
    src = TimeSection(grid, np.ones((len(grid), 8, 1)))
    with pytest.raises(OperatorError, match=r"0\.\.16"):
        duhamel_states(op, src, rows)


def test_duhamel_states_hold_no_mode_series():
    # the interval sum runs over the source's three nonzero columns: beyond
    # the weights' own build, the reference holds about one (top+1, K) real
    # array, and no (top+1, K) complex coefficient series or shifted copy
    m = build_manifold({"kind": "torus_grid", "counts": [8, 8], "lengths": [8.0, 8.0]})
    op = assemble(build_bundle(m, 2, connection="random", potential="random_positive", seed=4))
    grid = TimeGrid(4.0, 400)
    vals = np.zeros((len(grid), m.num_vertices, 2), dtype=complex)
    for v, c, start in ((0, 0, 0.5), (3, 1, 1.0), (5, 0, 1.5)):
        vals[:, v, c] = np.exp(-((grid.times - start) / 0.3) ** 2) * (grid.times > 0)
    src = TimeSection(grid, vals)
    top = grid.n_steps

    def traced_peak(f):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            f()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    weights = traced_peak(lambda: duhamel_weights(op.eigenvalues, grid.dt, top))
    states = traced_peak(lambda: duhamel_states(op, src, [top]))
    assert states < weights + (top + 1) * op.dim * 8


def test_duhamel_weights_hold_at_most_four_weight_arrays():
    # A and B are formed in place, a block of rows at a time: beyond the two
    # weights returned, less than two more (T, K) float arrays are held (the
    # mode functions' temporaries over every row made it about seven)
    m = build_manifold({"kind": "torus_grid", "counts": [8, 8], "lengths": [8.0, 8.0]})
    op = assemble(build_bundle(m, 2, connection="random", potential="random_positive", seed=4))
    grid = TimeGrid(8.0, 1600)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        A, B = duhamel_weights(op.eigenvalues, grid.dt, grid.n_steps)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert A.shape == B.shape == (len(grid), op.dim)
    assert peak < 4 * A.nbytes
    # the blocks join without a seam: every row as the whole-grid formulas give it
    ts = grid.times[:, None]
    K1 = modefun.wave_g1(ts, op.eigenvalues[None, :])
    dK2 = np.diff(modefun.wave_g2(ts, op.eigenvalues[None, :]), axis=0) / grid.dt
    assert np.array_equal(A[1:], K1[1:] - dK2) and np.array_equal(B[1:], dK2 - K1[:-1])
    assert not np.any(A[0]) and not np.any(B[0])


@pytest.mark.parametrize("bad", ["grid", "bundle"])
def test_duhamel_batch_rejects_bad_source_before_any_transform(bad, monkeypatch):
    rng = np.random.default_rng(18)
    op = torus_op()
    grid = TimeGrid(2.0, 64)
    sources = _random_sections(rng, grid, op, 2)
    if bad == "grid":
        sources += _random_sections(rng, TimeGrid(2.0, 32), op, 1)
    else:
        sources.append(TimeSection(grid, np.ones((len(grid), op.bundle.manifold.num_vertices + 1,
                                                  op.bundle.rank))))

    def no_transform(*args, **kwargs):
        raise AssertionError("a source was transformed before the batch was checked")

    monkeypatch.setattr(propagators, "mode_convolve", no_transform)
    monkeypatch.setattr(propagators.np.fft, "fft", no_transform)
    with pytest.raises(OperatorError):
        duhamel_solve(op, sources)


def wave_pde_residual(op, f, w):
    """Relative residual of (D_t^2 + P) w - f with central second differences:
    second-order in dt, the reference for the Duhamel convergence check."""
    dt = f.grid.dt
    vals = w.values
    dtt = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / dt**2
    res = scale = 0.0
    for j in range(1, len(f.grid) - 1):
        rj = dtt[j - 1] + op.to_section(op.matrix @ op.to_flat(vals[j])) - f.values[j]
        res += l2_norm(op.bundle, rj) ** 2
        scale += l2_norm(op.bundle, f.values[j]) ** 2
    return 0.0 if scale == 0.0 else float(np.sqrt(res / scale))


def test_duhamel_residual_second_order():
    rng = np.random.default_rng(5)
    op = cycle_op(8)
    res = {}
    for n in (64, 128):
        grid = TimeGrid(2.0, n)
        # smooth random source so the PL interpolation error dominates
        t = grid.times
        prof = np.sin(2.3 * t) * np.exp(-((t - 1.0) ** 2) / 0.08)
        amp = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        f = TimeSection(grid, prof[:, None, None] * amp[None, :, :])
        w = duhamel_solve(op, f)
        res[n] = wave_pde_residual(op, f, w)
        assert res[n] < 10 * grid.dt**2 * max(1.0, op.max_eigenvalue)
    ratio = res[64] / res[128]
    assert 3.0 < ratio < 5.2  # second order in dt


def test_wave_energy_conserved():
    rng = np.random.default_rng(6)
    op = torus_op()
    u0 = op.bundle.random_section(rng)
    v0 = op.bundle.random_section(rng)
    e0 = wave_energy(op, u0, v0, 0.0)
    for t in np.linspace(0.0, 4.0, 17):
        assert wave_energy(op, u0, v0, t) == pytest.approx(e0, rel=1e-9)


def test_wave_cos_plus_kernel_solves_ivp():
    rng = np.random.default_rng(7)
    op = torus_op()
    u0 = op.bundle.random_section(rng)
    t, dt = 0.9, 1e-5
    us = [apply_function(op, lambda lam: modefun.wave_cos(lam * tt**2), u0)
          for tt in (t - dt, t, t + dt)]
    acc = (us[0] - 2 * us[1] + us[2]) / dt**2
    pu = op.to_section(op.matrix @ op.to_flat(us[1]))
    assert np.max(np.abs(acc + pu)) < 1e-4 * max(1.0, np.max(np.abs(pu)))


# -- fractional powers ------------------------------------------------------

def test_fractional_round_trip_spectral():
    rng = np.random.default_rng(8)
    op = torus_op()
    proj = kernel_projector(op)
    for s in (0.1, 0.5, 0.9):
        f = proj.project_complement(op.bundle.random_section(rng))
        u = fractional_inverse_spectral(op, s, f)
        back = fractional_apply(op, s, u)
        assert l2_norm(op.bundle, back - f) < 1e-10 * l2_norm(op.bundle, f)


def test_fractional_eigenvalue_scaling():
    # eigensection of lam = 4 scaled by 4^{-1/2} = 0.5
    m = build_manifold({"kind": "cycle", "count": 8, "length": 8.0})
    op = assemble(build_bundle(m, 1))
    k = int(np.argmin(np.abs(op.eigenvalues - 4.0)))
    sec = op.to_section(op.eigensections[:, k])
    u = fractional_inverse_spectral(op, 0.5, sec)
    assert np.allclose(u, 0.5 * sec, atol=1e-12)


def test_fractional_first_nonconstant_mode_cycle8():
    op = cycle_op(8)
    lam2 = 2.0 - np.sqrt(2.0)  # first nonconstant eigenvalue, from the closed form
    k = int(np.argmin(np.abs(op.eigenvalues - lam2)))
    sec = op.to_section(op.eigensections[:, k])
    for s in (0.3, 0.7):
        u = fractional_inverse_spectral(op, s, sec)
        assert np.allclose(u, lam2 ** (-s) * sec, atol=1e-12)


def test_fractional_rejects_kernel_component():
    op = cycle_op(8)
    u = np.ones((8, 1), dtype=complex)  # pure kernel
    with pytest.raises(OperatorError):
        fractional_inverse_spectral(op, 0.5, u)


def test_gamma_quadrature_single_modes():
    # scalar mode values first: lam = 1 gives exactly 1, lam = 4 gives 0.5
    from fracbundle.propagators import _gamma_mode_values

    vals = _gamma_mode_values(0.5, np.array([1.0, 4.0]), 1)
    assert vals[0] == pytest.approx(1.0, rel=1e-6)
    assert vals[1] == pytest.approx(0.5, rel=1e-6)
    # and through the operator route on an actual eigensection at lam = 4
    op = cycle_op(8)
    k = int(np.argmin(np.abs(op.eigenvalues - 4.0)))
    assert op.eigenvalues[k] == pytest.approx(4.0, abs=1e-12)
    sec = op.to_section(op.eigensections[:, k])
    got = fractional_inverse_quadrature(op, 0.5, sec)
    scale = complex(l2_inner(op.bundle, sec, got) / l2_inner(op.bundle, sec, sec))
    assert scale == pytest.approx(0.5, rel=1e-6)


def test_gamma_quadrature_past_its_tolerance_is_a_quadrature_error(monkeypatch):
    # the node-doubling estimate of a converged route still misses a tolerance
    # of 1e-300; the message carries the estimate
    monkeypatch.setattr(propagators, "GAMMA_TOL", 1e-300)
    op = cycle_op(8)
    sec = op.to_section(op.eigensections[:, 1])
    with pytest.raises(QuadratureError, match=r"did not converge: estimated error \d\.\d{3}e[-+]\d+ > 1e-300"):
        fractional_inverse_quadrature(op, 0.5, sec)


def test_gamma_route_matches_spectral_all_orders():
    rng = np.random.default_rng(9)
    op = torus_op()
    proj = kernel_projector(op)
    worst = 0.0
    for s in np.arange(0.1, 0.95, 0.1):
        f = proj.project_complement(op.bundle.random_section(rng))
        a = fractional_inverse_spectral(op, s, f)
        q = fractional_inverse_quadrature(op, s, f)
        worst = max(worst, l2_norm(op.bundle, a - q) / l2_norm(op.bundle, a))
    assert worst < 1e-6


def test_gamma_quadrature_deterministic():
    from fracbundle.propagators import _gamma_mode_values

    lam = cycle_op(8).eigenvalues[1:]
    for refine in (1, 2):
        assert np.array_equal(_gamma_mode_values(0.37, lam, refine),
                              _gamma_mode_values(0.37, lam, refine))


# -- transmutation ----------------------------------------------------------

def test_gaussian_transmutation_identity():
    op = torus_op()
    for t in (0.1, 1.0):
        _, _, err = transmutation_gaussian_check(op, t)
        assert float(np.max(err)) < 1e-8


def test_gaussian_transmutation_memory_is_bounded(monkeypatch):
    # t = 1e10 on an 8-cycle needs about 8e5 trapezoid nodes: the cosine
    # matrix is summed in node chunks of at most TRANSMUTATION_BLOCK entries
    op = cycle_op(8)
    largest = []
    cos = np.cos

    def recording_cos(x, *args, **kwargs):
        largest.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", recording_cos)
    Q, E, _ = transmutation_gaussian_check(op, 1e10)
    monkeypatch.setattr(np, "cos", cos)
    assert len(largest) > 1 and max(largest) <= propagators.TRANSMUTATION_BLOCK
    assert Q.shape == E.shape == (8,)
    # chunking only regroups the trapezoid sum
    torus = torus_op()
    whole, _, _ = transmutation_gaussian_check(torus, 1.0)
    monkeypatch.setattr(propagators, "TRANSMUTATION_BLOCK", 3 * torus.dim)
    chunked, _, _ = transmutation_gaussian_check(torus, 1.0)
    assert np.max(np.abs(chunked - whole)) < 1e-14


def test_printed_form_residual_logged_not_small():
    rng = np.random.default_rng(10)
    op = torus_op()
    u = op.bundle.random_section(rng)
    res, quad_err = transmutation_printed_residual(op, 0.5, u)
    assert quad_err < 1e-9  # the quadrature itself converged
    assert res > 0.1  # the printed exponential-kernel variant is not the heat flow
    zero = np.zeros_like(u)
    assert transmutation_printed_residual(op, 0.5, zero)[0] == 0.0
    with pytest.raises(OperatorError):
        transmutation_printed_residual(op, 1e-9, u)


# -- grids ------------------------------------------------------------------

def test_time_grid_uniform_and_index():
    grid = TimeGrid(2.0, 100)
    ts = grid.times
    assert ts[0] == 0.0 and ts[-1] == 2.0
    assert np.max(np.abs(np.diff(ts) - grid.dt)) < 1e-14
    assert len(grid) == 101 and ts[50] == 1.0


def test_next_fast_len_matches_scipy():
    # scipy's default (complex) rule is 11-smooth: 2401 = 7^4 stays 2401,
    # where a 5-smooth rule would give 2430
    from scipy.fft import next_fast_len

    ns = range(1, 10**5 + 1)
    assert [propagators.next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]
    assert propagators.next_fast_len(2 * 1201 - 1) == 2401
    for n in (2**31 + 1, 2**32 - 1, 2**40 + 1):
        assert propagators.next_fast_len(n) == next_fast_len(n)
