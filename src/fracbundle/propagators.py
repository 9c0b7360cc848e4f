"""Heat semigroup, wave kernel, Duhamel solves, fractional powers by two
routes, and transmutation checks.

All propagators run through the spectral decomposition, so time evolution
is exact per mode.  The Duhamel solver integrates piecewise-linear-in-time
sources in closed form on every grid interval; its only approximation is
the piecewise-linear reading of the source samples.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import modefun
from .bundle import l2_norm
from .errors import OperatorError, QuadratureError
from .operator import KERNEL_FRACTION_TOL, SpectralOperator, apply_function


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = t_max."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise OperatorError("time horizon must be positive")
        if self.n_steps < 2:
            raise OperatorError("need at least two time steps")

    @property
    def dt(self):
        return self.t_max / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    def __len__(self):
        return self.n_steps + 1


@dataclass
class TimeSection:
    """One section per grid time: values of shape (N+1, V, r)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 3 or vals.shape[0] != len(self.grid):
            raise OperatorError("time section values must be (N+1, V, r)")
        self.values = vals


# ---------------------------------------------------------------------------
# static propagators

def heat_apply(op: SpectralOperator, t, u):
    """e^{-tP} u via the functional calculus."""
    if t < 0:
        raise OperatorError("heat semigroup needs t >= 0")
    return apply_function(op, lambda lam: np.exp(-t * lam), u)


def spectral_block(op: SpectralOperator, values, idx):
    """Block [idx, idx] of sum_k values[..., k] V_k V_k^* over the eigensections V_k.

    values of shape (K,) give one complex (D, D) block and values of shape
    (T, K) a packed (T, D, D) stack (see pack_hermitian), for the
    D = len(idx) flat (vertex * rank + fiber) indices idx; np.arange(op.dim)
    gives the whole matrix.  Every kernel of the package is such a block:
    the heat and wave kernels, the Duhamel weights, P^{-s} and the kernel
    projector.  Blocks carry no volume weights:
    (phi(P) u)(x) = sum_y mu_y K(x, y) u(y).

    The values are real (every symbol above is); complex values raise
    OperatorError.  Real values make every block Hermitian and packing is
    real-linear, so a stack is one real product of the values against the
    packed (D, D, K) table of the V_k V_k^*.  It is stored time-innermost,
    the (T, D, D) view of a C-order (D, D, T) array: a row or column of
    every block reads as D contiguous runs of T.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise OperatorError("spectral block values must be real")
    V = op.eigensections[np.asarray(idx, dtype=np.int64)]
    if values.ndim == 1:
        return (V * values) @ V.conj().T
    D, K = V.shape
    table = np.empty((D, D, K))
    for i in range(D):
        row = V[i] * V.conj()  # (V_k V_k^*)[i, j] for every j and k
        table[i, i:] = row.real[i:]
        table[i, :i] = row.imag[:i]
    stack = table.reshape(D * D, K) @ values.reshape(-1, K).T
    return np.moveaxis(stack.reshape(D, D, -1), -1, 0)


def pack_hermitian(blocks):
    """Real packed form of Hermitian blocks (..., D, D): Re on and above the
    diagonal, Im below it.  Packing drops the anti-Hermitian part."""
    blocks = np.asarray(blocks)
    d = blocks.shape[-1]
    return np.where(np.triu(np.ones((d, d), dtype=bool)), blocks.real, blocks.imag)


def hermitian_rows(packed, rows):
    """Rows `rows` of the Hermitian blocks packed along the last two axes, as
    complex (..., len(rows), D) in C order; rows range(D) unpack the blocks
    whole.

    Row a of a block H reads row a and column a of its packed form P:
    H[a, j] = P[a, j] - i P[j, a] for j > a, P[a, a] for j = a and
    P[j, a] + i P[a, j] for j < a.  Complex input is a complex combination
    of packed blocks, read as its packed real part plus i times its packed
    imaginary part (only real combinations of packed blocks are packed).
    """
    if np.iscomplexobj(packed):
        return hermitian_rows(packed.real, rows) + 1j * hermitian_rows(packed.imag, rows)
    out = np.empty(packed.shape[:-2] + (len(rows), packed.shape[-1]), dtype=np.complex128)
    for n, a in enumerate(rows):
        re, im = out[..., n, :].real, out[..., n, :].imag
        re[..., a:], re[..., :a] = packed[..., a, a:], packed[..., :a, a]
        im[..., :a], im[..., a], im[..., a + 1:] = packed[..., a, :a], 0.0, -packed[..., a + 1:, a]
    return out


def heat_kernel_matrix(op: SpectralOperator, t, idx):
    """Block K(t)[idx, idx] of the spectral heat kernel sum_k e^{-t lam_k} V_k V_k^*."""
    return spectral_block(op, np.exp(-t * op.eigenvalues), idx)


def wave_kernel_matrix(op: SpectralOperator, t, idx):
    """Block [idx, idx] of the spectral wave kernel sum_k G(t, lam_k) V_k V_k^*.

    t is one time, or times of shape (T, 1) for a packed (T, D, D) stack.
    """
    return spectral_block(op, modefun.wave_g(t, op.eigenvalues), idx)


def wave_energy(op: SpectralOperator, u0, v0, t):
    """Energy ||u'(t)||^2 + <P u(t), u(t)> of the homogeneous wave evolution."""
    a = op.coefficients(u0)
    b = op.coefficients(v0)
    lam = op.eigenvalues
    z = lam * t**2
    u = modefun.wave_cos(z) * a + modefun.wave_g(t, lam) * b
    # d/dt cos(t sqrt(lam)) = -lam G(t, lam); d/dt G = cos
    du = -lam * modefun.wave_g(t, lam) * a + modefun.wave_cos(z) * b
    return float(np.sum(np.abs(du) ** 2) + np.sum(lam * np.abs(u) ** 2))


# ---------------------------------------------------------------------------
# Duhamel solve with exact per-interval integration of PL sources

# largest (rows x modes) block of mode-function values duhamel_weights
# evaluates at once
WEIGHT_BLOCK = 1 << 14


def duhamel_weights(eigenvalues, dt, n_steps):
    """Closed-form convolution weights for piecewise-linear sources.

    Returns (A, B), each of shape (n_steps + 1, K).  The contribution of
    source interval [t_i, t_{i+1}] with nodal coefficients (f_i, f_{i+1})
    to the mode solution at t_j (m = j - i >= 1) is f_i A[m] + f_{i+1} B[m].
    Row 0 is zero padding.

    With K1 = G1 and dK2 the difference quotient of K2 = G2 at the grid
    times, A[m] = K1[m] - dK2[m] and B[m] = dK2[m] - K1[m - 1].  Every step
    is elementwise, so the rows go in blocks of at most WEIGHT_BLOCK values
    (one row of overlap for the differences), each formed in place: besides
    A and B only one block's K1, dK2 and mode-function temporaries are held.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    ts = dt * np.arange(n_steps + 1)
    A = np.zeros((n_steps + 1, lam.size))
    B = np.zeros_like(A)
    step = max(1, WEIGHT_BLOCK // max(lam.size, 1))
    for s in range(0, n_steps, step):
        t = ts[s:s + step + 1, None]
        K1 = modefun.wave_g1(t, lam[None, :])
        dK2 = np.diff(modefun.wave_g2(t, lam[None, :]), axis=0)
        dK2 /= dt
        np.subtract(K1[1:], dK2, out=A[s + 1:s + step + 1])
        np.subtract(dK2, K1[:-1], out=B[s + 1:s + step + 1])
    return A, B


def folded_kernel(A, B, rows):
    """Rows 0..rows-1 (at most N+1) of the folded kernel A + B_up.

    With B_up[m] = B[m + 1] (B_up[N] = 0), the right-endpoint sum
    sum_m B[m] f[j-m+1] equals (B_up * f)[j] - B_up[j] f[0], so the interval
    sum of a weight pair (A, B) is one convolution with A + B_up plus that
    f[0] correction, which vanishes for sources with f[0] = 0.
    """
    folded = A[:rows].astype(np.result_type(A, B))
    folded[:B.shape[0] - 1] += B[1:rows + 1]
    return folded


@functools.cache
def _smooth_lengths(limit):
    """Every 11-smooth integer up to limit, ascending."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        multiples = []
        for q in lengths:
            while q <= limit:
                multiples.append(q)
                q *= p
        lengths = multiples
    return tuple(sorted(lengths))


def next_fast_len(n):
    """Smallest 11-smooth integer >= n (factors 2, 3, 5, 7, 11), for n >= 1:
    the FFT length scipy.fft.next_fast_len(n) picks for complex input.  Both
    torus workloads convolve at 2401 = 7^4, which a 5-smooth rule would
    round up to 2430.
    """
    # the power of two >= n is 11-smooth, so the table up to it holds the answer
    lengths = _smooth_lengths(1 << (n - 1).bit_length())
    return lengths[bisect.bisect_left(lengths, n)]


def pl_spectra(A, B):
    """Folded kernel spectrum of a weight pair (A, B) with N+1 rows.

    Returns (FFT(folded_kernel(A, B, N+1)), B[1:]): the spectrum at length
    next_fast_len(2(N+1) - 1), which holds the full linear convolution of
    two (N+1)-row series so the circular products never wrap into the first
    N+1 output rows, and the first N rows of B_up for the f[0] correction.
    """
    n = next_fast_len(2 * A.shape[0] - 1)
    return np.fft.fft(folded_kernel(A, B, A.shape[0]), n=n, axis=0), B[1:]


def mode_convolve(spectra, src, subscripts):
    """Exact Duhamel response to a piecewise-linear source, by FFT.

    spectra = pl_spectra(A, B) with A[0] = B[0] = 0 (the zero padding of
    duhamel_weights); src holds N+1 nodal source samples along axis 0.
    Returns the N+1 response samples
        out[j] = sum_m A[m] src[j - m] + B[m] src[j - m + 1],  out[0] = 0,
    where each product is the einsum `subscripts` of a kernel and a source
    sample: "tk,tk->tk" per mode, "ti,t->ti" for one source column.
    """
    folded, b_up = spectra
    n = folded.shape[0]
    acc = np.einsum(subscripts, folded, np.fft.fft(src, n=n, axis=0))
    out = np.fft.ifft(acc, axis=0)[:src.shape[0]]
    # the folded kernel also pairs B[j + 1] with src[0], a term the interval
    # sum does not have
    out[:-1] -= np.einsum(subscripts, b_up, src[:1])
    out[0] = 0.0  # no interval precedes t = 0 (zero initial data, exactly)
    return out


def mode_convolve_rows(A, B, src, rows, subscripts):
    """The interval sum of mode_convolve at the given rows only, summed directly.

    With A[0] = B[0] = 0 the sum at row j is
        out[j] = sum_{k<j} (A[k] + B[k+1]) src[j - k] + A[j] src[0],
    with the rows of folded_kernel(A, B, j), so out[0] = 0.  Only kernel rows
    0..max(rows) and source rows 0..max(rows) are read: one product of the
    shifted source rows against the folded kernel, with the einsum
    `subscripts` of mode_convolve (which must not use the letter r).
    Returns the len(rows) response samples along axis 0.  The rows must be
    given and lie in 0..N for the N + 1 rows of src (others raise
    OperatorError), and A and B must hold rows 0..max(rows) at least.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = src.shape[0] - 1
    if rows.ndim != 1 or not rows.size or rows.min() < 0 or rows.max() > n:
        raise OperatorError(f"response rows must be a nonempty list of grid rows in 0..{n}, "
                            f"not {np.array2string(rows, threshold=8)}")
    top = int(rows.max())
    folded = folded_kernel(A, B, top)
    shifted = np.zeros((len(rows), top) + src.shape[1:], dtype=src.dtype)
    for r, j in enumerate(rows):
        shifted[r, :j] = src[j:0:-1]
    kernel, source_out = subscripts.split(",")
    source, output = source_out.split("->")
    at_rows = output.replace("t", "r")
    out = np.einsum(f"{kernel},r{source}->{at_rows}", folded, shifted, optimize=True)
    out += np.einsum(f"{kernel.replace('t', 'r')},{source.replace('t', '')}->{at_rows}",
                     A[rows], src[0])
    return out


def _check_source(op: SpectralOperator, src: TimeSection, grid: TimeGrid):
    """Raise OperatorError unless src lies on grid and on the operator's bundle."""
    if src.grid != grid:
        raise OperatorError("batch sources must share one time grid")
    if src.values.shape[1:] != (op.bundle.manifold.num_vertices, op.bundle.rank):
        raise OperatorError("source does not live on the operator's bundle")


def duhamel_solve(op: SpectralOperator, f: TimeSection | Sequence[TimeSection]):
    """Solve (d^2/dt^2 + P) w = f with zero initial data.

    f is read as piecewise linear in time; each interval is integrated in
    closed form per mode, so w is the exact solution for that source.  f may
    also be a sequence of TimeSections on one grid: the weights and their
    spectrum are then built once, every source is checked before the first
    transform, and the solutions come back as a list in the same order.
    """
    single = isinstance(f, TimeSection)
    sources = [f] if single else list(f)
    if not sources:
        return []
    grid = sources[0].grid
    for src in sources:
        _check_source(op, src, grid)
    n1 = len(grid)
    V, r = op.bundle.manifold.num_vertices, op.bundle.rank
    wflat = op.weights_flat()
    analysis = op.eigensections.conj()
    synthesis = op.eigensections.T
    A, B = duhamel_weights(op.eigenvalues, grid.dt, grid.n_steps)
    spectra = pl_spectra(A, B)
    out = []
    for src in sources:
        coeffs = (src.values.reshape(n1, op.dim) * wflat[None, :]) @ analysis
        wmodes = mode_convolve(spectra, coeffs, "tk,tk->tk")
        out.append(TimeSection(grid, (wmodes @ synthesis).reshape(n1, V, r)))
    return out[0] if single else out


def duhamel_states(op: SpectralOperator, f: TimeSection | Iterable[TimeSection], rows):
    """duhamel_solve(op, f).values[rows], without solving on the rest of the grid.

    Each state is the direct interval sum mode_convolve_rows over source
    rows 0..max(rows), run on the source's nonzero columns: each column is
    convolved with every mode's folded kernel, and the mode analysis then
    sums the columns, so neither a mode-coefficient series nor a shifted
    copy of one is formed.  Only the requested rows are synthesized.  No
    FFT is involved, so this is an independent route to the same solution.
    f is one TimeSection or any iterable of them, drawn one at a time: each
    source is checked as it is drawn (the first one's grid, the operator's
    bundle), and only the first one's grid is kept, so a generator streams
    full-manifold sources.  Rows outside 0..N raise OperatorError.
    Returns an array (len(rows), V, r) per source, batched like duhamel_solve.
    """
    single = isinstance(f, TimeSection)
    rows = np.asarray(rows, dtype=np.int64)
    V, r = op.bundle.manifold.num_vertices, op.bundle.rank
    wflat = op.weights_flat()
    E = op.eigensections
    grid = None
    out = []
    for src in [f] if single else f:
        if grid is None:
            grid = src.grid
            # rows 0..top of the full weights; mode_convolve_rows refuses rows off the grid
            top = min(int(rows.max(initial=0)), grid.n_steps)
            A, B = duhamel_weights(op.eigenvalues, grid.dt, top)
        _check_source(op, src, grid)
        vals = src.values.reshape(len(grid), op.dim)
        cols = np.nonzero(np.any(vals != 0, axis=0))[0]
        wcols = mode_convolve_rows(A, B, vals[:, cols] * wflat[cols], rows, "tk,tc->tck")
        wmodes = np.einsum("rck,ck->rk", wcols, E[cols].conj())
        out.append((wmodes @ E.T).reshape(len(rows), V, r))
    return out[0] if single else out


# ---------------------------------------------------------------------------
# fractional powers

def fractional_symbol(op: SpectralOperator, p):
    """|lam_k|^p per mode and 0 on the kernel modes: the symbol of P^p on the
    kernel complement (p = -s for P^{-s}).  The operator must be nonnegative."""
    op.require_nonnegative()
    with np.errstate(all="ignore"):
        return np.where(op.kernel_mask(), 0.0, np.abs(op.eigenvalues) ** p)


def _require_order(s):
    """The fractional routes take orders s in (0, 1) only."""
    if not 0 < s < 1:
        raise OperatorError("fractional order must be in (0, 1)")


def fractional_kernel_matrix(op: SpectralOperator, s, idx):
    """Block [idx, idx] of the kernel of P^{-s}, sum_k |lam_k|^{-s} V_k V_k^* over
    the modes off the kernel, for 0 < s < 1."""
    _require_order(s)
    return spectral_block(op, fractional_symbol(op, -s), idx)


def fractional_apply(op: SpectralOperator, s, u):
    """P^s u for 0 < s < 1 (kernel modes contribute zero)."""
    _require_order(s)
    return op.synthesize(fractional_symbol(op, s) * op.coefficients(u))


def _require_no_kernel_component(op, u):
    frac = op.kernel_fraction(u)
    if frac > KERNEL_FRACTION_TOL:
        raise OperatorError(
            f"input has kernel fraction {frac:.3e} > {KERNEL_FRACTION_TOL:.0e}; "
            "project onto the kernel complement first"
        )


def fractional_inverse_spectral(op: SpectralOperator, s, u):
    """P^{-s} u on the kernel complement, via the eigenvalue symbol."""
    _require_order(s)
    vals = fractional_symbol(op, -s)
    _require_no_kernel_component(op, u)
    return op.synthesize(vals * op.coefficients(u))


# node budget of the Gamma-integral route to P^{-s}: composite Gauss-Legendre
# panels and nodes on the head (0, 1], nodes per tail panel, and the tolerance
# of the node-doubling error estimate
GAMMA_HEAD_PANELS = 4
GAMMA_HEAD_NODES = 48
GAMMA_TAIL_NODES = 32
GAMMA_TOL = 1e-9


def _gamma_mode_values(s, lam, refine):
    """Quadrature of lam^{-s} = (1/Gamma(s)) int t^{s-1} e^{-t lam} dt per mode.

    The head (0, 1] is mapped by t = u^{2/s}, flattening the t^{s-1}
    singularity, and integrated by composite Gauss-Legendre; the tail
    [1, t_cut] uses doubling panels, so every mode is resolved or negligible.
    refine = 2 doubles the head panels and the tail nodes.
    """
    glx, glw = np.polynomial.legendre.leggauss(GAMMA_HEAD_NODES)
    ts, ws = [], []
    edges = np.linspace(0.0, 1.0, GAMMA_HEAD_PANELS * refine + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (b - a) * glx + 0.5 * (a + b)
        wu = 0.5 * (b - a) * glw
        ts.append(u ** (2 / s))
        ws.append(wu * (2 / s) * u)
    t_cut = max(2.0, -math.log(1e-16) / max(float(np.min(lam)), 1e-12))
    glx2, glw2 = np.polynomial.legendre.leggauss(GAMMA_TAIL_NODES * refine)
    a = 1.0
    while a < t_cut:
        b = min(2.0 * a, t_cut)
        t = 0.5 * (b - a) * glx2 + 0.5 * (a + b)
        wt = 0.5 * (b - a) * glw2
        ts.append(t)
        ws.append(wt * t ** (s - 1.0))
        a = b
    t, w = np.concatenate(ts), np.concatenate(ws)
    return np.exp(-np.outer(lam, t)) @ w / math.gamma(s)


def fractional_inverse_quadrature(op: SpectralOperator, s, u):
    """P^{-s} u through the Gamma-function integral of the heat semigroup.

    Cross-route check against fractional_inverse_spectral; raises
    QuadratureError when the node-doubling error estimate misses GAMMA_TOL.
    """
    _require_order(s)
    op.require_nonnegative()
    _require_no_kernel_component(op, u)
    mask = op.kernel_mask()
    lam = op.eigenvalues[~mask]
    vals = _gamma_mode_values(s, lam, 1)
    vals_fine = _gamma_mode_values(s, lam, 2)
    err = float(np.max(np.abs(vals - vals_fine) / np.abs(vals_fine)))
    if err > GAMMA_TOL:
        raise QuadratureError(
            f"Gamma quadrature did not converge: estimated error {err:.3e} > {GAMMA_TOL:.0e}")
    full = np.zeros(op.dim)
    full[~mask] = vals
    return op.synthesize(full * op.coefficients(u))


# ---------------------------------------------------------------------------
# transmutation checks

# largest (modes x nodes) cosine block transmutation_gaussian_check builds
TRANSMUTATION_BLOCK = 1 << 20


def transmutation_gaussian_check(op: SpectralOperator, t):
    """Check e^{-t lam} = (4 pi t)^{-1/2} Int e^{-s^2/4t} cos(s sqrt(lam)) ds
    per eigenvalue, by an aliasing-controlled trapezoid rule.

    Returns (quadrature values, exact values, mixed errors), where the
    mixed error is |Q - E| / (1 + |E|) so that modes with e^{-t lam}
    below double-precision range are judged absolutely.
    """
    if t <= 0:
        raise OperatorError("transmutation check needs t > 0")
    op.require_nonnegative(what="Gaussian transmutation check")
    lam = op.eigenvalues
    lam_pos = np.clip(lam, 0.0, None)
    b = 2.0 * np.sqrt(t * lam_pos)
    delta = 2.0 * np.pi / (float(np.max(b)) + 13.0)
    X = 6.5
    xs = np.arange(-X, X + delta, delta)
    weights = np.exp(-(xs**2))
    # the node count grows as sqrt(t lam_max): sum the cosine matrix in
    # node chunks of at most TRANSMUTATION_BLOCK entries
    step = max(1, TRANSMUTATION_BLOCK // len(b))
    Q = functools.reduce(np.add, (np.cos(np.outer(b, xs[i:i + step])) @ weights[i:i + step]
                                  for i in range(0, len(xs), step)))
    Q = (delta / math.sqrt(math.pi)) * Q
    E = np.exp(-t * lam)
    err = np.abs(Q - E) / (1.0 + np.abs(E))
    return Q, E, err


def transmutation_printed_residual(op: SpectralOperator, t, u):
    """Residual of the half-line exponential-kernel transmutation form.

    Evaluates rhs = (4 sqrt(pi) t^{3/2})^{-1} Int_0^inf e^{-s/4t} G(s, P) u ds
    by composite 8-node Gauss-Legendre (one heat-content formula reported in the
    literature integrates by parts to a Gaussian kernel instead; this
    routine measures how far the exponential-kernel variant is from the
    heat semigroup, and is expected to be far from zero).  Returns
    (residual, internal quadrature consistency error).
    """
    if t <= 0:
        raise OperatorError("needs t > 0")
    if t < 1e-3 / max(op.max_eigenvalue, 1e-12):
        raise OperatorError("t too small relative to the spectral radius")
    nrm = l2_norm(op.bundle, u)
    if nrm == 0.0:
        return 0.0, 0.0
    sigma = 1.0 / (4.0 * t)
    lam = op.eigenvalues
    omega_max = math.sqrt(max(op.max_eigenvalue, 0.0))
    s_max = -math.log(1e-18) / sigma
    panel = min(2.0 * math.pi / max(omega_max, 1e-6), s_max / 4.0)
    glx, glw = np.polynomial.legendre.leggauss(8)
    edges = np.arange(0.0, s_max + panel, panel)
    vals = np.zeros(len(lam))
    for a, b in zip(edges[:-1], edges[1:]):
        s = 0.5 * (b - a) * glx + 0.5 * (a + b)
        w = 0.5 * (b - a) * glw
        gs = modefun.wave_g(s[:, None], lam[None, :])
        vals += (w[:, None] * np.exp(-sigma * s)[:, None] * gs).sum(axis=0)
    closed = 1.0 / (sigma**2 + lam)
    quad_err = float(np.max(np.abs(vals - closed) / np.maximum(np.abs(closed), 1e-300)))
    pref = 1.0 / (4.0 * math.sqrt(math.pi) * t**1.5)
    coeffs = op.coefficients(u)
    rhs = op.synthesize(pref * vals * coeffs)
    lhs = heat_apply(op, t, u)
    residual = l2_norm(op.bundle, lhs - rhs) / max(l2_norm(op.bundle, lhs), 1e-300)
    return float(residual), quad_err
