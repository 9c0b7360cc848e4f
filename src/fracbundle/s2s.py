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

P is self-adjoint, so every block of the three wave stacks is Hermitian,
K(t; x, y)^* = K(t; y, x), and is stored once, packed real
(propagators.pack_hermitian).  No reader unpacks a whole stack: the rows a
reader needs come out through hermitian_rows, and a combination of
blocks is formed packed, by one product, and unpacked afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import timequad
from .errors import DataBoundaryError, OperatorError
from .manifold import Region, edge_index, shortest_paths
from .operator import KERNEL_FRACTION_TOL, SpectralOperator
from .propagators import (
    TimeGrid,
    duhamel_weights,
    folded_kernel,
    fractional_kernel_matrix,
    hermitian_rows,
    mode_convolve,
    mode_convolve_rows,
    next_fast_len,
    pack_hermitian,
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
        """A local_structure@1 payload; a repeated vertex id, or arrays that
        disagree with its vertices or its edges, are a DataBoundaryError."""
        vertices = tuple(int(v) for v in p["vertices"])
        n = len(vertices)
        if len(set(vertices)) != n:
            raise DataBoundaryError("local structure vertices repeat an id")
        edges = np.asarray(p["edges"], dtype=np.int64).reshape(-1, 2)
        e = len(edges)
        arrays = {}
        for name, count in (("volumes", n), ("edge_lengths", e), ("edge_weights", e),
                            ("distances", n * n)):
            arrays[name] = np.asarray(p[name], dtype=np.float64)
            if arrays[name].shape != (count,):
                raise DataBoundaryError(f"local structure {name} has shape "
                                        f"{arrays[name].shape}, not ({count},)")
        if np.any((edges < 0) | (edges >= n)):
            raise DataBoundaryError(f"local structure edges must join vertices 0..{n - 1}")
        arrays["distances"] = arrays["distances"].reshape(n, n)
        return LocalStructure(vertices=vertices, rank=int(p["rank"]), edges=edges, **arrays)


def _payload_block(local, row, what):
    """One (dim, dim) complex block of a map payload; a list of another
    length, as from a rank that disagrees with the blocks, is a
    DataBoundaryError."""
    d = local.dim
    if len(row) != 2 * d * d:
        raise DataBoundaryError(f"{what} holds {len(row) // 2} entries, but the local "
                                f"structure's {local.size} vertices of rank {local.rank} "
                                f"need {d * d}")
    return complex_from_list(row, (d, d))


def local_structure(region: Region, rank) -> LocalStructure:
    """Restrict the ambient structures to a region (metric side only)."""
    m = region.manifold
    verts = region.vertices
    inside, edges = region.inner_edges()
    lens = m.lengths[inside]
    # rows from every region vertex; the smaller of the two directions of a
    # pair makes the metric exactly symmetric
    d = shortest_paths(len(verts), edges, lens, range(len(verts)))
    return LocalStructure(
        vertices=verts,
        volumes=m.volumes[list(verts)],
        rank=rank,
        edges=edges,
        edge_lengths=lens,
        edge_weights=m.weights[inside],
        distances=np.minimum(d, d.T),
    )


def flat_indices(vertices, rank):
    """Flat (vertex * rank + fiber) indices of the vertex ids, in their order:
    the C-order (V, rank) layout of every section."""
    return (np.asarray(vertices, dtype=np.int64)[:, None] * rank + np.arange(rank)).ravel()


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
        return FracMapData(
            order=float(p["order"]),
            local=local,
            block=_payload_block(local, p["block"], "frac map block"),
            kernel_block=_payload_block(local, p["kernel_block"], "frac map kernel_block"),
        )


def frac_map_assemble(op: SpectralOperator, region: Region, s) -> FracMapData:
    """Freeze the local fractional source-to-solution data for order s."""
    idx = flat_indices(region.vertices, op.bundle.rank)
    return FracMapData(
        order=float(s),
        local=local_structure(region, op.bundle.rank),
        block=fractional_kernel_matrix(op, s, idx),
        kernel_block=spectral_block(op, op.kernel_mask().astype(float), idx),
    )


# ---------------------------------------------------------------------------
# wave map data

# largest anti-Hermitian part of a serialized wave-map block, relative to
# the block's largest entry, that from_payload lets packing drop
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class DeltaSources:
    """m delta sources on the region: source i is the nodal time profile
    profiles[profile[i]] at the flat region component component[i].  Every
    source supported in the region is a sum of such columns."""

    profiles: np.ndarray   # (L, N+1) time profiles
    profile: np.ndarray    # (m,) integer
    component: np.ndarray  # (m,) integer

    def __post_init__(self):
        idx = (self.profile, self.component)
        if not (isinstance(self.profiles, np.ndarray) and self.profiles.ndim == 2
                and all(isinstance(i, np.ndarray) and i.dtype.kind in "iu" for i in idx)
                and self.profile.ndim == 1 and self.profile.shape == self.component.shape):
            raise OperatorError("delta sources need a 2-D profiles array and 1-D integer "
                                "profile and component arrays of one length, not "
                                + ", ".join(f"{type(a).__name__} {np.shape(a)}"
                                            for a in (self.profiles, *idx)))

    def __len__(self):
        return len(self.profile)


def _check_sources(wmap, sources):
    """Refuse a batch the map cannot read: anything but DeltaSources (a dense
    (m, N+1, D) array is the DeltaSources of its nonzero columns), profiles
    that are not N+1 samples long and indices off their range."""
    if not isinstance(sources, DeltaSources):
        raise OperatorError(f"sources must be DeltaSources, not {type(sources).__name__}: a "
                            f"dense source is the DeltaSources of its nonzero columns")
    if sources.profiles.shape[1] != len(wmap.grid):
        raise OperatorError(f"source time profiles must have the map's {len(wmap.grid)} "
                            f"samples, not shape {sources.profiles.shape}")
    for name, idx, n in (("profile", sources.profile, len(sources.profiles)),
                         ("component", sources.component, wmap.local.dim)):
        bad = idx[(idx < 0) | (idx >= n)]
        if len(bad):
            raise OperatorError(f"delta source {name} index {bad[0]} is outside 0..{n - 1}")


@dataclass(frozen=True)
class WaveMapData:
    """Time-sampled wave response data on the observation region.

    kernel[m] are the raw wave kernel blocks at grid time t_m.  conv_a and
    conv_b are the closed-form interval weights reproducing the Duhamel
    solve for piecewise-linear sources: the response at t_j to nodal
    source data F is sum_m conv_a[m] (mu F)[j-m] + conv_b[m] (mu F)[j-m+1].
    The grid covers [0, 2 T] for the experiment horizon T.

    Every block is Hermitian and each stack is real float64 (N+1, D, D),
    D = local.dim, in the packed form of pack_hermitian: Re on and above
    the diagonal, Im below it.  hermitian_rows(stack, rows) reads rows
    of the complex blocks; wave_map_assemble stores the stacks
    time-innermost, so such a read is D contiguous runs per row.
    """

    grid: TimeGrid
    horizon: float
    local: LocalStructure
    kernel: np.ndarray
    conv_a: np.ndarray
    conv_b: np.ndarray

    def __post_init__(self):
        n = self.grid.n_steps
        if n % 2 != 0:
            raise OperatorError("wave map grid needs an even step count")
        if abs(self.grid.t_max - 2.0 * self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise OperatorError("wave map grid must cover [0, 2T]")
        shape = (len(self.grid), self.local.dim, self.local.dim)
        for name in ("kernel", "conv_a", "conv_b"):
            stack = getattr(self, name)
            if not (isinstance(stack, np.ndarray) and stack.dtype == np.float64
                    and stack.shape == shape):
                raise OperatorError(f"wave map {name} must be a packed float64 stack of shape "
                                    f"{shape}, not {getattr(stack, 'dtype', type(stack))} "
                                    f"{np.shape(stack)}")

    @property
    def half_index(self):
        return self.grid.n_steps // 2

    def respond(self, sources, rows=None):
        """Apply the map to a DeltaSources batch of m delta sources.

        Returns (m, N+1, D) responses, D = |U| r, exact for piecewise-linear
        sources.  With rows given, only those response samples are
        evaluated, by the direct interval sum, and the result is
        (m, len(rows), D); each time profile is then evaluated once, against
        every kernel column.
        """
        d = self.local.dim
        _check_sources(self, sources)
        mu = self.local.weights_flat()
        comps = sources.component
        if rows is not None:
            combos = mode_convolve_rows(self.conv_a, self.conv_b, sources.profiles.T, rows,
                                        "tij,tp->tpij")
            # (m, len(rows), D): column c of the response to the profile of source i
            out = hermitian_rows(combos, range(d))
            return out[:, sources.profile, :, comps] * mu[comps, None, None]
        # a delta source meets one kernel column, the conjugate of a kernel
        # row: transforming only the columns in use, each once, keeps the
        # working set one (N+1, D) block
        out = np.empty((len(sources), len(self.grid), d), dtype=np.complex128)
        for c in np.unique(comps):
            spectra = pl_spectra(*(np.conj(hermitian_rows(s, [c])[:, 0])
                                   for s in (self.conv_a, self.conv_b)))
            for i in np.nonzero(comps == c)[0]:
                profile = sources.profiles[sources.profile[i]]
                out[i] = mode_convolve(spectra, profile * mu[c], "ti,t->ti")
        return out

    def to_payload(self):
        every = range(self.local.dim)

        def blocks(stack):
            # the complex blocks, unpacked one at a time
            return [complex_to_list(hermitian_rows(block, every)) for block in stack]

        return {
            "schema": "wave_map@1",
            "horizon": self.horizon,
            "grid": {"t_max": self.grid.t_max, "n_steps": self.grid.n_steps},
            "local": self.local.to_payload(),
            "kernel": blocks(self.kernel),
            "conv_a": blocks(self.conv_a),
            "conv_b": blocks(self.conv_b),
        }

    @staticmethod
    def from_payload(p):
        local = LocalStructure.from_payload(p["local"])
        grid = TimeGrid(float(p["grid"]["t_max"]), int(p["grid"]["n_steps"]))
        d = local.dim

        def packed(name):
            # packed one block at a time into a time-innermost stack; packing
            # would drop an anti-Hermitian part, so one past rounding is refused
            rows = p[name]
            stack = np.empty((d, d, len(rows)))
            for m, row in enumerate(rows):
                block = _payload_block(local, row, f"wave map {name} block at time row {m}")
                skew = np.max(np.abs(block - block.conj().T), initial=0.0) / 2
                if skew > HERMITIAN_TOL * np.max(np.abs(block), initial=0.0):
                    raise DataBoundaryError(f"wave map {name} block at time row {m} is not "
                                            f"Hermitian: anti-Hermitian part {skew:.3e}")
                stack[..., m] = pack_hermitian(block)
            return np.moveaxis(stack, -1, 0)

        return WaveMapData(
            grid=grid,
            horizon=float(p["horizon"]),
            local=local,
            kernel=packed("kernel"),
            conv_a=packed("conv_a"),
            conv_b=packed("conv_b"),
        )


def wave_map_assemble(op: SpectralOperator, region: Region, grid: TimeGrid) -> WaveMapData:
    """Freeze the wave source-to-solution data over a [0, 2T] grid."""
    if grid.n_steps % 2 != 0:
        raise OperatorError("use an even number of steps so T sits on the grid")
    idx = flat_indices(region.vertices, op.bundle.rank)
    kernel = wave_kernel_matrix(op, grid.times[:, None], idx)
    # each weight table goes as soon as its stack is built
    A, B = duhamel_weights(op.eigenvalues, grid.dt, grid.n_steps)
    conv_a = spectral_block(op, A, idx)
    del A
    conv_b = spectral_block(op, B, idx)
    del B
    return WaveMapData(
        grid=grid,
        horizon=grid.t_max / 2.0,
        local=local_structure(region, op.bundle.rank),
        kernel=kernel,
        conv_a=conv_a,
        conv_b=conv_b,
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


def owner_sums(pairings, owners_f, owners_h, shape):
    """The (mf, mh) pairing matrix of sources that are sums of delta columns,
    from the pairings of the columns: entry (i, j) sums the column pairings
    with owners (i, j)."""
    out = np.zeros(shape, dtype=np.complex128)
    np.add.at(out, (owners_f[:, None], owners_h[None, :]), pairings)
    return out


def _b_up_sums(wmap: WaveMapData, tests):
    """sum_{m<N} tests[:, m] B_up[m] with B_up[m] = conv_b[m + 1], packed
    (L, D, D): one product of the tests against the packed stack, whose
    time-innermost layout makes its (D D, N+1) form a view; complex tests give
    the complex combination that hermitian_rows reads."""
    d = wmap.local.dim
    stack = np.moveaxis(wmap.conv_b, 0, -1).reshape(d * d, -1)
    return (tests[:, :-1] @ stack[:, 1:].T).reshape(-1, d, d)


def _runs(keys):
    """(values, slices): each run of equal values in sorted keys and where it lies."""
    values, starts = np.unique(keys, return_index=True)
    return values, [slice(a, b) for a, b in zip(starts, np.append(starts[1:], len(keys)))]


def blago_bilinear(wmap: WaveMapData, F: DeltaSources, H: DeltaSources):
    """Matrix of wave-state pairings <w^f(T), w^h(T)> from map data alone.

    F and H are each a DeltaSources batch; a source that is a sum of delta
    columns pairs as the owner_sums of its columns' pairings.  Uses the
    identity
        <w^f(T), w^h(T)> = int_0^T [ <f, J L h> - <L f, J h> ] dt
    with the map responses and the time averages exact for piecewise-linear
    sources and the outer time integral by the high-order sampled rule, in one
    pass over the F profiles.

    The response of a delta source p at component c is column-wise
    mu_c (K[:, :, c] * p - B_up p[0]) with K = folded_kernel(conv_a, conv_b,
    N+1) and B_up[j] = conv_b[j + 1] (B_up[N] = 0).  Both terms of the
    identity are linear in time, so they move onto the profiles: with
    w_l = conj(the J* f test array of f_l) and e_l the J h test array of
    h_l, both by the quadratic_times_sampled_array rule, and with
    conj(K[m, c', c]) = K[m, c, c'], the pairing of f_l at c with h_l' at c'
    is mu_c mu_c' times
        sum_m Z_l[l', m] K[m, c, c']
          - sum_{m<N} (h_l'[0] w_l[m] - conj(f_l[0]) e_l'[m]) B_up[m, c, c'],
        Z_l[l', m] = sum_j w_l[j] h_l'[j - m] - e_l'[j] conj(f_l[j - m]).
    At a length n that holds every lag without wrapping, Z_l has the one
    spectrum
        Zhat_l = FFT(w_l) conj(FFT(conj h_l')) - conj(FFT(f_l)) FFT(e_l').
    When both sides are real, a profile at every component (every probe
    family's is) takes one inverse real FFT of Zhat_l against every H
    profile and one real product with the packed fold, and only that
    (L', D, D) product is unpacked; the H half spectra are held.  Every other
    profile (complex ones too) is contracted in
    frequency, (1/n) sum_w Zhat_l(w) Ktilde_cc'(w) with
    Ktilde = conj(FFT(conj K)), so no inverse FFT runs.  There the spectra
    of the F (profile, component) keys are held, and one H component c' at
    a time the spectra of its H keys and of the kernel entries (C_F, c'),
    one contiguous spectrum per F component, are formed: each entry pairs
    only the keys at its own row and column.  The B_up terms, for profiles
    that start nonzero, are one product per side.
    """
    _check_sources(wmap, F)
    _check_sources(wmap, H)
    out = np.zeros((len(F), len(H)), dtype=np.complex128)
    if not (len(F) and len(H)):
        return out
    grid = wmap.grid
    dt = grid.dt
    n1, n_half, d = len(grid), wmap.half_index, wmap.local.dim
    n = next_fast_len(2 * n1 - 1)
    pf, lf, cf = F.profiles, F.profile, F.component
    ph, lh, ch = H.profiles, H.profile, H.component
    w = np.conj(timequad.quadratic_times_sampled_array(
        *_jstar_quadratic_coeffs(pf.T, dt, n_half), n1, dt).T)
    e = timequad.quadratic_times_sampled_array(*_jh_quadratic_coeffs(ph.T, dt, n_half),
                                               n1, dt).T
    wb = _b_up_sums(wmap, w) if np.any(ph[:, 0]) else None
    eb = _b_up_sums(wmap, e) if np.any(pf[:, 0]) else None
    mu = wmap.local.weights_flat()
    # real profiles give real lags, paired in half spectra; complex ones
    # pair through the few-component contraction
    at_every = ((np.bincount(np.unique(lf * d + cf) // d, minlength=len(pf)) == d)
                & np.isrealobj(pf) & np.isrealobj(ph))

    every = np.flatnonzero(at_every)
    if len(every):
        spec_h = np.conj(np.fft.rfft(ph, n=n)), np.fft.rfft(e, n=n)
        fold = folded_kernel(wmap.conv_a, wmap.conv_b, n1).reshape(n1, d * d)
        scale = np.multiply.outer(mu, mu)
        for l in every:
            z = spec_h[0] * np.fft.rfft(w[l], n=n)
            z -= spec_h[1] * np.conj(np.fft.rfft(pf[l], n=n))
            prod = np.fft.irfft(z, n=n)[:, :n1] @ fold
            if wb is not None:
                prod = prod - np.multiply.outer(ph[:, 0], wb[l].ravel())
            if eb is not None:
                prod = prod + np.conj(pf[l, 0]) * eb.reshape(len(ph), -1)
            block = hermitian_rows(prod.reshape(-1, d, d), range(d))
            block *= scale
            i = np.flatnonzero(lf == l)
            out[i] = block[lh[None, :], cf[i, None], ch[None, :]]
        del spec_h, fold

    few = np.flatnonzero(~at_every[lf])
    if len(few):
        # the (profile, component) keys of each side, in component order
        keys_f, key_f = np.unique(cf[few] * len(pf) + lf[few], return_inverse=True)
        kc_f, kl_f = np.divmod(keys_f, len(pf))
        keys_h, key_h = np.unique(ch * len(ph) + lh, return_inverse=True)
        kc_h, kl_h = np.divmod(keys_h, len(ph))
        comps_f, runs_f = _runs(kc_f)
        spec_f = np.empty((len(keys_f), 2, n), dtype=np.complex128)
        np.fft.fft(w[kl_f], n=n, out=spec_f[:, 0])
        np.fft.fft(pf[kl_f], n=n, out=spec_f[:, 1])
        np.negative(np.conj(spec_f[:, 1]), out=spec_f[:, 1])
        vals = np.empty((len(keys_f), len(keys_h)), dtype=np.complex128)
        for c, at in zip(*_runs(kc_h)):
            # Ktilde[c', c] = conj(FFT(conj K[:, c', c])) = conj(FFT(K[:, c, c'])):
            # kernel row c at the F components, one contiguous spectrum each
            k = folded_kernel(hermitian_rows(wmap.conv_a, [c]), hermitian_rows(wmap.conv_b, [c]),
                              n1)[:, 0, comps_f]
            ktilde = np.fft.fft(k.T, n=n)
            np.conj(ktilde, out=ktilde)
            ktilde /= n
            spec_h = np.empty((at.stop - at.start, 2, n), dtype=np.complex128)
            np.fft.fft(np.conj(ph[kl_h[at]]), n=n, out=spec_h[:, 0])
            np.conj(spec_h[:, 0], out=spec_h[:, 0])
            np.fft.fft(e[kl_h[at]], n=n, out=spec_h[:, 1])
            spec_h = spec_h.reshape(len(spec_h), -1).T
            for kt, rows in zip(ktilde, runs_f):
                vals[rows, at] = (spec_f[rows] * kt).reshape(rows.stop - rows.start, -1) @ spec_h
        if wb is not None:
            vals -= hermitian_rows(wb, range(d))[kl_f[:, None], kc_f[:, None], kc_h] * ph[kl_h, 0]
        if eb is not None:
            vals += (np.conj(pf[kl_f, 0])[:, None]
                     * hermitian_rows(eb, range(d))[kl_h, kc_f[:, None], kc_h])
        vals *= np.multiply.outer(mu[kc_f], mu[kc_h])
        out[few] = vals[key_f[:, None], key_h[None, :]]
    return out
