"""Source-to-solution map data and the time-averaged inner-product engine.

The objects assembled here are the ONLY inputs the reconstruction layer is
allowed to read: frozen response data restricted to an observation region,
plus the local structure (region, restricted metric data, fiber rank).
Nothing in them references the full operator, its eigensystem, or the
off-region bundle.

The wave data stores raw kernel samples K(t; x, y) together with the
closed-form convolution weights that reproduce the Duhamel solve exactly
for piecewise-linear-in-time sources, so applying the map to source data
is not a quadrature.  The time averaging in the inner-product identity is
exact too (J h and its adjoint J* f are known piecewise quadratics); only
the outer pairing against sampled responses runs through timequad's rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import timequad
from .errors import DataBoundaryError, OperatorError
from .manifold import Region, edge_index
from .operator import KERNEL_FRACTION_TOL, SpectralOperator
from .propagators import (
    TimeGrid,
    TimeSection,
    duhamel_weights,
    folded_kernel,
    fractional_kernel_matrix,
    mode_convolve,
    mode_convolve_rows,
    next_fast_len,
    pl_spectra,
    spectral_block,
    wave_kernel_matrix,
)
from .serialize import complex_from_list, complex_to_list, real_to_list


# ---------------------------------------------------------------------------
# local structure: (U, g|_U, E|_U)

@dataclass(frozen=True)
class LocalStructure:
    """Observation-region data available to inverse procedures.

    Holds the ordered region vertex list, restricted volumes, the edges
    internal to the region with their lengths and conductances, the fiber
    rank, and the induced local distance matrix.  Deliberately excludes
    transports and potential: those are recovery targets.
    """

    vertices: tuple
    volumes: np.ndarray
    rank: int
    edges: np.ndarray  # (E_U, 2) local indices
    edge_lengths: np.ndarray
    edge_weights: np.ndarray
    distances: np.ndarray  # induced shortest paths inside the region

    @property
    def size(self):
        return len(self.vertices)

    @property
    def dim(self):
        return self.size * self.rank

    def weights_flat(self):
        return np.repeat(self.volumes, self.rank)

    def neighbors(self, v):
        """Region neighbors of local vertex v, in edge-list order."""
        a, b = self.edges[:, 0], self.edges[:, 1]
        return [int(u) for u in np.where(a == v, b, a)[(a == v) | (b == v)]]

    def edge_index(self, pairs):
        """(ids, reversed) of local vertex pairs: manifold.edge_index on the
        region's edges."""
        return edge_index(self.edges, self.size, pairs)

    def local_ball(self, center_local, radius):
        """Open ball inside the region w.r.t. the induced local metric."""
        row = self.distances[center_local]
        return [int(j) for j in np.nonzero(row < radius)[0]]

    def full_balls(self, radius):
        """Mask of the vertices whose local ball of the radius is a largest one."""
        sizes = np.count_nonzero(self.distances < radius, axis=1)
        return sizes == np.max(sizes)

    def to_payload(self):
        return {
            "schema": "local_structure@1",
            "vertices": [int(v) for v in self.vertices],
            "volumes": real_to_list(self.volumes),
            "rank": self.rank,
            "edges": [[int(a), int(b)] for a, b in self.edges],
            "edge_lengths": real_to_list(self.edge_lengths),
            "edge_weights": real_to_list(self.edge_weights),
            "distances": real_to_list(self.distances),
        }

    @staticmethod
    def from_payload(p):
        n = len(p["vertices"])
        return LocalStructure(
            vertices=tuple(int(v) for v in p["vertices"]),
            volumes=np.asarray(p["volumes"], dtype=np.float64),
            rank=int(p["rank"]),
            edges=np.asarray(p["edges"], dtype=np.int64).reshape(-1, 2),
            edge_lengths=np.asarray(p["edge_lengths"], dtype=np.float64),
            edge_weights=np.asarray(p["edge_weights"], dtype=np.float64),
            distances=np.asarray(p["distances"], dtype=np.float64).reshape(n, n),
        )


def local_structure(region: Region, rank) -> LocalStructure:
    """Restrict the ambient structures to a region (metric side only)."""
    m = region.manifold
    verts = region.vertices
    inside, edges = region.inner_edges()
    lens = m.lengths[inside]
    n = len(verts)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[edges[:, 0], edges[:, 1]] = dist[edges[:, 1], edges[:, 0]] = lens
    for k in range(n):  # small regions: Floyd--Warshall on local edges only
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return LocalStructure(
        vertices=verts,
        volumes=m.volumes[list(verts)],
        rank=rank,
        edges=edges,
        edge_lengths=lens,
        edge_weights=m.weights[inside],
        distances=dist,
    )


def region_slices(region: Region, rank):
    """Flat (vertex * rank + fiber) indices of a region, in region vertex order."""
    return (np.asarray(region.vertices, dtype=np.int64)[:, None] * rank + np.arange(rank)).ravel()


# ---------------------------------------------------------------------------
# static (fractional) map data

@dataclass(frozen=True)
class FracMapData:
    """Dense block of the inverse fractional power restricted to the region.

    block[x, y] carries the spectral kernel (no volume weights); applying
    the map multiplies volume weights in, matching the continuous kernel
    convention.  kernel_block is the zero-mode kernel restricted the same
    way, used to reject inputs with a kernel component.
    """

    order: float
    local: LocalStructure
    block: np.ndarray
    kernel_block: np.ndarray

    def apply(self, f):
        """Map a region-supported section (|U|, r) to the solution on U."""
        f = np.asarray(f, dtype=np.complex128).reshape(self.local.dim)
        wf = self.local.weights_flat() * f
        total = float(np.real(np.vdot(f, wf)))
        if total > 0:
            ker = float(np.real(np.vdot(wf, self.kernel_block @ wf)))
            frac = np.sqrt(max(ker, 0.0) / total)
            if frac > KERNEL_FRACTION_TOL:
                raise OperatorError(
                    f"source has kernel fraction {frac:.3e} > {KERNEL_FRACTION_TOL:.0e}"
                )
        out = self.block @ wf
        return out.reshape(self.local.size, self.local.rank)

    def to_payload(self):
        return {
            "schema": "frac_map@1",
            "order": self.order,
            "local": self.local.to_payload(),
            "block": complex_to_list(self.block),
            "kernel_block": complex_to_list(self.kernel_block),
        }

    @staticmethod
    def from_payload(p):
        local = LocalStructure.from_payload(p["local"])
        d = local.dim
        return FracMapData(
            order=float(p["order"]),
            local=local,
            block=complex_from_list(p["block"], (d, d)),
            kernel_block=complex_from_list(p["kernel_block"], (d, d)),
        )


def frac_map_assemble(op: SpectralOperator, region: Region, s) -> FracMapData:
    """Freeze the local fractional source-to-solution data for order s."""
    idx = region_slices(region, op.bundle.rank)
    return FracMapData(
        order=float(s),
        local=local_structure(region, op.bundle.rank),
        block=fractional_kernel_matrix(op, s, idx),
        kernel_block=spectral_block(op, op.kernel_mask().astype(float), idx),
    )


# ---------------------------------------------------------------------------
# wave map data

def _distinct_rows(profiles):
    """(kept, which): the first row with each distinct profile, and for every
    row the position of its profile in profiles[kept]."""
    first = {}
    firsts = [first.setdefault(p.tobytes(), i) for i, p in enumerate(profiles)]
    return np.unique(firsts, return_inverse=True)


@dataclass(frozen=True)
class WaveMapData:
    """Time-sampled wave response data on the observation region.

    kernel[m] are the raw wave kernel blocks at grid time t_m.  conv_a and
    conv_b are the closed-form interval weights reproducing the Duhamel
    solve for piecewise-linear sources: the response at t_j to nodal
    source data F is sum_m conv_a[m] (mu F)[j-m] + conv_b[m] (mu F)[j-m+1].
    The grid covers [0, 2 T] for the experiment horizon T.
    """

    grid: TimeGrid
    horizon: float
    local: LocalStructure
    kernel: np.ndarray
    conv_a: np.ndarray
    conv_b: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = self.grid.n_steps
        if n % 2 != 0:
            raise OperatorError("wave map grid needs an even step count")
        if abs(self.grid.t_max - 2.0 * self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise OperatorError("wave map grid must cover [0, 2T]")

    @property
    def half_index(self):
        return self.grid.n_steps // 2

    def source_array(self, f):
        """Validate and restrict a source to nodal region data (N+1, |U| r).

        A TimeSection is full-manifold data (N+1, V, r) and must vanish off
        the region; an array is region data, (N+1, |U|, r) or (N+1, |U| r),
        in region vertex order.
        """
        n1, rank = len(self.grid), self.local.rank
        if isinstance(f, TimeSection):
            if f.grid.n_steps != self.grid.n_steps or abs(f.grid.t_max - self.grid.t_max) > 1e-12:
                raise OperatorError("source grid does not match the map grid")
            vals = f.values
            verts = list(self.local.vertices)
            if vals.shape[2] != rank or vals.shape[1] <= max(verts):
                raise OperatorError(f"source sections of shape {vals.shape[1:]} do not cover "
                                    f"the region vertices at fiber rank {rank}")
            off = np.ones(vals.shape[1], dtype=bool)
            off[verts] = False
            if np.any(vals[:, off, :] != 0):
                raise DataBoundaryError("source is not supported in the observation region")
            return vals[:, verts, :].reshape(n1, self.local.dim)
        arr = np.asarray(f, dtype=np.complex128)
        if arr.shape in ((n1, self.local.size, rank), (n1, self.local.dim)):
            return arr.reshape(n1, self.local.dim)
        raise OperatorError("unrecognized source shape")

    def respond(self, sources, components=None, rows=None):
        """Apply the map to a batch of nodal sources.

        sources: (m, N+1, D) with D = |U| r; or, with an integer array
        components (m,) given, (m, N+1) time profiles of delta sources at
        those flat components.  Returns (m, N+1, D) responses, exact for
        piecewise-linear sources.  With rows given, only those response
        samples are evaluated, by the direct interval sum, and the result is
        (m, len(rows), D); a time profile shared by several delta sources is
        then evaluated once, against every kernel column.
        """
        mu = self.local.weights_flat()
        if rows is not None:
            if components is None:
                batch = np.moveaxis(np.asarray(sources) * mu, 0, 1)
                out = mode_convolve_rows(self.conv_a, self.conv_b, batch, rows, "tij,tsj->tsi")
                return np.moveaxis(out, 1, 0)
            sources = np.asarray(sources)
            # the first source with each distinct profile stands for all of them
            kept, which = _distinct_rows(sources)
            out = mode_convolve_rows(self.conv_a, self.conv_b, sources[kept].T, rows,
                                     "tij,tp->tpij")
            # (m, len(rows), D): column c of the response to the profile of source i
            return out[:, which, :, components] * mu[components, None, None]
        out = np.empty((len(sources), len(self.grid), self.local.dim), dtype=np.complex128)
        if components is None:
            spectra = pl_spectra(self.conv_a, self.conv_b)
            for i, src in enumerate(sources):
                out[i] = mode_convolve(spectra, src * mu, "tij,tj->ti")
            return out
        # a delta source meets one kernel column: transforming only the
        # columns in use, each once, keeps the working set one (L, D) block
        for c in np.unique(components):
            spectra = pl_spectra(self.conv_a[:, :, c], self.conv_b[:, :, c])
            for i in np.nonzero(components == c)[0]:
                out[i] = mode_convolve(spectra, sources[i] * mu[c], "ti,t->ti")
        return out

    def to_payload(self):
        return {
            "schema": "wave_map@1",
            "horizon": self.horizon,
            "grid": {"t_max": self.grid.t_max, "n_steps": self.grid.n_steps},
            "local": self.local.to_payload(),
            "kernel": [complex_to_list(self.kernel[m]) for m in range(len(self.grid))],
            "conv_a": [complex_to_list(self.conv_a[m]) for m in range(len(self.grid))],
            "conv_b": [complex_to_list(self.conv_b[m]) for m in range(len(self.grid))],
        }

    @staticmethod
    def from_payload(p):
        local = LocalStructure.from_payload(p["local"])
        grid = TimeGrid(float(p["grid"]["t_max"]), int(p["grid"]["n_steps"]))
        d = local.dim
        def blocks(rows):
            return np.array([complex_from_list(row, (d, d)) for row in rows])
        return WaveMapData(
            grid=grid,
            horizon=float(p["horizon"]),
            local=local,
            kernel=blocks(p["kernel"]),
            conv_a=blocks(p["conv_a"]),
            conv_b=blocks(p["conv_b"]),
        )


def wave_map_assemble(op: SpectralOperator, region: Region, grid: TimeGrid) -> WaveMapData:
    """Freeze the wave source-to-solution data over a [0, 2T] grid."""
    if grid.n_steps % 2 != 0:
        raise OperatorError("use an even number of steps so T sits on the grid")
    idx = region_slices(region, op.bundle.rank)
    kernel = wave_kernel_matrix(op, grid.times[:, None], idx)
    A, B = duhamel_weights(op.eigenvalues, grid.dt, grid.n_steps)
    return WaveMapData(
        grid=grid,
        horizon=grid.t_max / 2.0,
        local=local_structure(region, op.bundle.rank),
        kernel=kernel,
        conv_a=spectral_block(op, A, idx),
        conv_b=spectral_block(op, B, idx),
    )


# ---------------------------------------------------------------------------
# the inner-product engine

def _prefix_quadratics(p, dt):
    """Half the trapezoid prefix P of piecewise-linear nodal p (time on axis 0)
    on each of the N intervals, read forwards, P(t_i + u dt) / 2, and
    backwards, P(t_{N-i} - u dt) / 2, as c0 + (c1 u + c2 u^2) dt: dt stays
    off c1 and c2 so that a difference of the two rounds once."""
    pre = np.zeros_like(p)
    np.cumsum(0.5 * dt * (p[1:] + p[:-1]), axis=0, out=pre[1:])
    half, value, slope = 0.5 * pre, 0.5 * p, 0.25 * (p[1:] - p[:-1])
    return (half[:-1], value[:-1], slope), (half[:0:-1], -value[:0:-1], slope[::-1])


def _jh_quadratic_coeffs(h, dt, n_half):
    """(c0, c1, c2) with (J h)(t_i + u dt) = c0[i] + c1[i] u + c2[i] u^2 on the
    first n_half intervals: (J h)(t) = (P(2T - t) - P(t)) / 2."""
    fwd, bwd = _prefix_quadratics(h, dt)
    return tuple(s * (b[:n_half] - a[:n_half]) for s, a, b in zip((1, dt, dt), fwd, bwd))


def _jstar_quadratic_coeffs(f, dt, n_half):
    """(c0, c1, c2) of (J* f)(s) = F(min(s, 2T - s)) / 2 on all N intervals,
    the adjoint of the time average: int_0^T <f, J R> = int_0^2T <J* f, R>."""
    fwd, bwd = _prefix_quadratics(f, dt)
    return tuple(s * np.concatenate([a[:n_half], b[n_half:]])
                 for s, a, b in zip((1, dt, dt), fwd, bwd))


def blago_bilinear(wmap: WaveMapData, F, H, components=None):
    """Matrix of wave-state pairings <w^f(T), w^h(T)> from map data alone.

    F: (mf, N+1, D) and H: (mh, N+1, D) nodal sources supported in the
    region; or, with components = (cf, ch), (mf, N+1) and (mh, N+1) time
    profiles of delta sources at the flat components cf and ch.  Uses the
    identity
        <w^f(T), w^h(T)> = int_0^T [ <f, J L h> - <L f, J h> ] dt
    with the map responses and the time averages exact for piecewise-linear
    sources and the outer time integral by the high-order sampled rule.  A dense
    source is the sum of its nonzero columns: each column pairs as a delta
    source and the pairings add up per source.
    """
    if components is not None:
        return _lag_pairing(wmap, np.asarray(F), np.asarray(H), *components)
    pf, cf, of = _delta_columns(F)
    ph, ch, oh = _delta_columns(H)
    out = np.zeros((len(F), len(H)), dtype=np.complex128)
    if len(pf) and len(ph):
        np.add.at(out, (of[:, None], oh[None, :]), _lag_pairing(wmap, pf, ph, cf, ch))
    return out


def _delta_columns(sources):
    """(profiles, components, owners) of the nonzero columns of dense sources
    (m, N+1, D): column k is the time profile of sources[owners[k]] at
    components[k]."""
    sources = np.asarray(sources)
    owners, comps = np.nonzero(np.any(sources != 0, axis=1))
    return sources[owners, :, comps], comps, owners


def _lag_tables(rows, profiles, n1):
    """Per row a, the table C[k, m] = sum_j a[j] profiles[k, j - m], m = 0..n1-1.

    Cross-correlations by FFT at a length that holds every lag without
    wrapping; real data stays real.
    """
    n = next_fast_len(2 * n1 - 1)
    if np.isrealobj(rows) and np.isrealobj(profiles):
        fwd, inv = np.fft.rfft, np.fft.irfft
    else:
        fwd, inv = np.fft.fft, np.fft.ifft
    spectra = np.conj(fwd(np.conj(profiles), n=n))
    for a in rows:
        yield inv(fwd(a, n=n) * spectra, n=n)[:, :n1]


def _rows_by_profile(which, comps, d):
    """Per distinct profile, the sorted components where it sits; and per
    source, its position in the concatenation of those lists."""
    keys, pos = np.unique(which * d + np.asarray(comps), return_inverse=True)
    return np.split(keys % d, np.flatnonzero(np.diff(keys // d)) + 1), pos


def _lag_pairing(wmap: WaveMapData, F, H, cf, ch):
    """blago_bilinear for delta sources, from the L distinct time profiles.

    The response of a delta source p at component c is column-wise
    mu_c (K[:, :, c] * p - B_up p[0]) with K = folded_kernel(conv_a, conv_b,
    N+1) and B_up[j] = conv_b[j + 1] (B_up[N] = 0).  Both terms of the
    identity are linear in time, so they move onto the profiles: with
    w_l = conj(the J* f test array of f_l) and e_l the J h test array of
    h_l, both by the quadratic_times_sampled_array rule, the lag tables
        X[l, l', m] = sum_j w_l[j] h_l'[j - m]
        Y[l, l', m] = sum_j e_l[j] conj(f_l'[j - m])
    give T1 = X @ K - h_l'[0] (w_l @ B_up) and
    T2 = Y @ conj(K) - conj(f_l'[0]) (e_l @ conj(B_up)), and the pairing
    of f_l at c with h_l' at c' is mu_c mu_c' (T1[l, l', c, c'] -
    T2[l', l, c', c]).  Each table meets only the kernel rows of the
    components where its profile sits, and only those rows are folded.
    """
    grid = wmap.grid
    dt = grid.dt
    n1, n_half, d = len(grid), wmap.half_index, wmap.local.dim
    kept_f, lf = _distinct_rows(F)
    kept_h, lh = _distinct_rows(H)
    pf, ph = F[kept_f], H[kept_h]
    rows_f, rf = _rows_by_profile(lf, cf, d)
    rows_h, rh = _rows_by_profile(lh, ch, d)
    w = np.conj(timequad.quadratic_times_sampled_array(
        *_jstar_quadratic_coeffs(pf.T, dt, n_half), n1, dt).T)
    e = timequad.quadratic_times_sampled_array(*_jh_quadratic_coeffs(ph.T, dt, n_half),
                                               n1, dt).T
    full = None

    def folded_rows(at):
        # (K, B_up) on the kernel rows at, as (N+1, len(at) d) and (N, len(at) d).
        # A profile at a few components folds only their rows; the full fold
        # is built once, for the first profile that sits at every component
        # (every probe family's profiles do).  On C-order map stacks
        # (spectral_block builds them so) the reshapes copy nothing; np.take
        # gathers in C order, where a fancy index on axis 1 would not.
        nonlocal full
        if len(at) == d:
            if full is None:
                full = folded_kernel(wmap.conv_a, wmap.conv_b, n1).reshape(n1, d * d)
            return full, wmap.conv_b[1:].reshape(n1 - 1, d * d)
        b = np.take(wmap.conv_b, at, axis=1)
        k = folded_kernel(np.take(wmap.conv_a, at, axis=1), b, n1)
        return k.reshape(n1, -1), b[1:].reshape(n1 - 1, -1)

    def paired(tables, tests, rows, starts):
        # sum_m table[:, m] K[m] - starts (test[:N] @ B_up) per test row, on
        # its kernel rows, concatenated along axis 1: (len(starts), sum |rows|, d)
        out = []
        for table, test, at in zip(tables, tests, rows):
            k, b_up = folded_rows(at)
            # a real lag table meets the real and imaginary parts in one real product
            if np.isrealobj(table):
                prod = (table @ k.view(np.float64)).view(np.complex128)
            else:
                prod = table @ k
            prod -= np.multiply.outer(starts, test[:-1] @ b_up)
            out.append(prod.reshape(len(starts), len(at), d))
        return np.concatenate(out, axis=1)

    T1 = paired(_lag_tables(w, ph, n1), w, rows_f, ph[:, 0])
    # Y @ conj(K) = conj(conj(Y) @ K)
    T2 = paired((np.conj(y) for y in _lag_tables(e, np.conj(pf), n1)), np.conj(e),
                rows_h, pf[:, 0]).conj()
    mu = wmap.local.weights_flat()
    lf, rf, cf = lf[:, None], rf[:, None], np.asarray(cf)[:, None]
    lh, rh, ch = lh[None, :], rh[None, :], np.asarray(ch)[None, :]
    return mu[cf] * mu[ch] * (T1[lh, rf, ch] - T2[lf, rh, cf])


def blago_inner(wmap: WaveMapData, f, h):
    """<w^f(T, .), w^h(T, .)> computed from the wave map data only."""
    F = wmap.source_array(f)[None, :, :]
    H = wmap.source_array(h)[None, :, :]
    return complex(blago_bilinear(wmap, F, H)[0, 0])


def gram_matrix(wmap: WaveMapData, sources):
    """Hermitian Gram of wave states at time T for a list of sources.

    The pairwise identity values are Hermitized (the identity is exactly
    conjugate-symmetric; averaging removes quadrature asymmetry).
    """
    batch = np.stack([wmap.source_array(s) for s in sources])
    G = blago_bilinear(wmap, batch, batch)
    return 0.5 * (G + G.conj().T)
