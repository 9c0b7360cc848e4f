"""Hermitian vector bundles over discrete manifolds.

The connection is stored as one unitary transport matrix per oriented edge
(the reverse orientation is the adjoint), the potential as one Hermitian
matrix per vertex.  Sections are complex (V, r) arrays.  Gauge transforms
are vertexwise unitaries; a structure isomorphism composes a base
relabeling that preserves the weighted graph with a fiberwise gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BundleError, GeometryError
from .manifold import DiscreteManifold, edge_index, lattice

UNITARITY_TOL = 1e-12


def _non_unitary(mats):
    """Positions in an (n, r, r) stack of the matrices that are not unitary
    to UNITARITY_TOL; a NaN or infinite entry fails."""
    r = mats.shape[-1]
    dev = np.linalg.norm(mats @ np.conj(np.swapaxes(mats, 1, 2)) - np.eye(r), axis=(1, 2))
    return np.flatnonzero(~(dev <= UNITARITY_TOL * max(1.0, r)))


def random_unitaries(rng, count, r):
    """count Haar-ish unitaries from QR of complex Gaussians, phase-fixed.
    The draw is that of count single draws in turn, each a real then an
    imaginary (r, r) normal block."""
    g = rng.standard_normal((count, 2, r, r))
    q, rm = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    ph = np.diagonal(rm, axis1=1, axis2=2)
    ph = ph / np.abs(ph)
    return q * ph.conj()[:, None, :]


def random_hermitian(rng, r, scale):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return scale * 0.5 * (g + g.conj().T)


@dataclass(frozen=True)
class HermitianBundle:
    """Rank-r Hermitian bundle with unitary edge transports and Hermitian potential.

    transport[i] is the unitary carrying fiber data from edges[i][1] to
    edges[i][0]; the reverse transport is its adjoint.
    """

    manifold: DiscreteManifold
    rank: int
    transport: np.ndarray  # (E, r, r) complex
    potential: np.ndarray  # (V, r, r) complex Hermitian

    def __post_init__(self):
        tr = np.asarray(self.transport, dtype=np.complex128)
        pot = np.asarray(self.potential, dtype=np.complex128)
        object.__setattr__(self, "transport", tr)
        object.__setattr__(self, "potential", pot)
        if self.rank < 1:
            raise BundleError("rank must be >= 1")
        E = len(self.manifold.edges)
        V = self.manifold.num_vertices
        if tr.shape != (E, self.rank, self.rank):
            raise BundleError("one transport matrix per edge required")
        if pot.shape != (V, self.rank, self.rank):
            raise BundleError("one potential matrix per vertex required")
        bad = _non_unitary(tr)
        if bad.size:
            raise BundleError(f"transport on edge {bad[0]} is not unitary to {UNITARITY_TOL}")
        # a NaN or infinite entry makes dev NaN or inf, which the test refuses
        with np.errstate(invalid="ignore"):
            dev = np.max(np.abs(pot - np.conj(np.swapaxes(pot, 1, 2))))
        if not dev <= UNITARITY_TOL:
            raise BundleError(f"potential is not finite and Hermitian (max deviation {dev:.3e})")

    def edge_transports(self, pairs):
        """(n, r, r) unitaries carrying fiber data from pairs[k][1] to
        pairs[k][0]; each pair is an edge, in either orientation
        (manifold.edge_index), and a reversed edge gives the adjoint."""
        m = self.manifold
        ids, rev = edge_index(m.edges, m.num_vertices, pairs)
        tr = self.transport[ids]
        tr[rev] = np.conj(np.swapaxes(tr[rev], 1, 2))
        return tr

    def random_section(self, rng):
        shape = (self.manifold.num_vertices, self.rank)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass(frozen=True)
class GaugeTransform:
    """One unitary per vertex acting on fibers."""

    matrices: np.ndarray  # (V, r, r)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.complex128)
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise BundleError("gauge needs square matrices per vertex")
        bad = _non_unitary(mats)
        if bad.size:
            raise BundleError(f"gauge matrix at vertex {bad[0]} is not unitary")

    @property
    def rank(self):
        return self.matrices.shape[1]

    def inverse(self):
        return GaugeTransform(np.conj(np.swapaxes(self.matrices, 1, 2)))

    @staticmethod
    def identity(num_vertices, rank):
        mats = np.broadcast_to(np.eye(rank, dtype=np.complex128), (num_vertices, rank, rank))
        return GaugeTransform(np.array(mats))

    @staticmethod
    def random(rng, num_vertices, rank):
        return GaugeTransform(random_unitaries(rng, num_vertices, rank))


@dataclass(frozen=True)
class StructureIso:
    """Structure-preserving isomorphism between two builds.

    base[x] = the domain-manifold vertex corresponding to codomain vertex x
    (a bijection preserving edges, lengths, weights, volumes); fiber[x] is
    the unitary carrying the codomain fiber at x to the domain fiber at
    base[x].  Pulling back a section u of the domain bundle gives
    (pullback u)(x) = fiber[x]^* u(base[x]).
    """

    domain: HermitianBundle
    codomain_manifold: DiscreteManifold
    base: np.ndarray  # (V,) int, codomain vertex -> domain vertex
    fiber: np.ndarray  # (V, r, r) unitary

    def __post_init__(self):
        base = np.asarray(self.base, dtype=np.int64)
        fiber = np.asarray(self.fiber, dtype=np.complex128)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        m1, m2 = self.domain.manifold, self.codomain_manifold
        V = m2.num_vertices
        if m1.num_vertices != V:
            raise GeometryError("base map needs equal vertex counts")
        if sorted(base.tolist()) != list(range(V)):
            raise GeometryError("base map must be a bijection")
        if fiber.shape != (V, self.domain.rank, self.domain.rank):
            raise BundleError("fiber map shape mismatch")
        bad = _non_unitary(fiber)
        if bad.size:
            raise BundleError(f"fiber map at vertex {bad[0]} is not unitary")
        if abs(m1.volumes[base] - m2.volumes).max() > 1e-12 * max(1.0, m1.volumes.max()):
            raise GeometryError("base map must preserve vertex volumes")
        # every codomain edge must map onto a domain edge (edge_index raises)
        ids, _ = edge_index(m1.edges, V, base[m2.edges])
        for a1, a2 in ((m1.lengths[ids], m2.lengths), (m1.weights[ids], m2.weights)):
            if np.any(np.abs(a1 - a2) > 1e-12 * np.maximum(1.0, a1)):
                raise GeometryError("base map must preserve edge lengths and weights")
        if len(m1.edges) != len(m2.edges):
            raise GeometryError("edge counts differ")


def build_bundle(m: DiscreteManifold, rank, connection="trivial", potential="zero",
                 seed=None, potential_scale=1.0, potential_shift=0.0):
    """Construct a bundle on m.

    connection: "trivial" | "random";
    potential: "zero" | "random_hermitian" | "random_positive".
    random_positive draws G G^*/r scaled plus a shift, so the assembled
    operator stays nonnegative with a strictly positive potential.
    Random draws are deterministic in seed.  A bundle from given arrays is
    HermitianBundle(m, rank, transport, potential).
    """
    if rank < 1:
        raise BundleError("rank must be >= 1")
    E = len(m.edges)
    V = m.num_vertices
    rng = np.random.default_rng(seed)
    if connection == "trivial":
        tr = np.broadcast_to(np.eye(rank, dtype=np.complex128), (E, rank, rank)).copy()
    elif connection == "random":
        tr = random_unitaries(rng, E, rank)
    else:
        raise BundleError(f"unknown connection spec: {connection!r}")
    if potential == "zero":
        pot = np.zeros((V, rank, rank), dtype=np.complex128)
    elif potential == "random_hermitian":
        pot = np.array([random_hermitian(rng, rank, potential_scale) for _ in range(V)])
    elif potential == "random_positive":
        pot = np.empty((V, rank, rank), dtype=np.complex128)
        for v in range(V):
            g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            pot[v] = potential_scale * (g @ g.conj().T) / rank + potential_shift * np.eye(rank)
    else:
        raise BundleError(f"unknown potential spec: {potential!r}")
    return HermitianBundle(manifold=m, rank=rank, transport=tr, potential=pot)


def l2_inner(b: HermitianBundle, u, v):
    """Volume-weighted L2 pairing, conjugate-linear in the first argument."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.shape != (b.manifold.num_vertices, b.rank):
        raise BundleError("sections must share the bundle's (V, r) shape")
    return complex(np.sum(b.manifold.volumes[:, None] * np.conj(u) * v))


def l2_norm(b: HermitianBundle, u):
    return float(np.sqrt(max(l2_inner(b, u, u).real, 0.0)))


def apply_gauge(b: HermitianBundle, g: GaugeTransform) -> HermitianBundle:
    """Gauge the bundle: U'_xy = S(x)^* U_xy S(y), A'(x) = S(x)^* A(x) S(x)."""
    if g.rank != b.rank or g.matrices.shape[0] != b.manifold.num_vertices:
        raise BundleError("gauge shape does not match bundle")
    S = g.matrices
    S_adj = np.conj(np.swapaxes(S, 1, 2))
    e = b.manifold.edges
    tr = S_adj[e[:, 0]] @ b.transport @ S[e[:, 1]]
    pot = np.einsum("vij,vjk,vkl->vil", S_adj, b.potential, S)
    pot = 0.5 * (pot + np.conj(np.swapaxes(pot, 1, 2)))  # kill roundoff skew
    return HermitianBundle(manifold=b.manifold, rank=b.rank, transport=tr, potential=pot)


def pullback_bundle(iso: StructureIso) -> HermitianBundle:
    """Pull the domain bundle back along the isomorphism onto the codomain
    manifold: relabel the base through iso.base, then gauge by iso.fiber."""
    b1 = iso.domain
    m2 = iso.codomain_manifold
    relabelled = HermitianBundle(m2, b1.rank, b1.edge_transports(iso.base[m2.edges]),
                                 b1.potential[iso.base])
    return apply_gauge(relabelled, GaugeTransform(iso.fiber))


def translation_iso(bundle: HermitianBundle, shifts, gauge: GaugeTransform):
    """StructureIso on a canonical cycle or torus: the translation that takes
    codomain lattice coordinates c to domain coordinates c + shifts (one
    shift per axis, wrapping), then the gauge."""
    m = bundle.manifold
    if m.meta.get("kind") not in ("cycle", "torus_grid"):
        raise GeometryError("translation_iso needs a canonical cycle or torus manifold")
    counts = m.meta["counts"]
    shifts = [int(s) for s in shifts]
    if len(shifts) != len(counts):
        raise GeometryError(f"translation_iso needs one shift per axis ({len(counts)}), "
                            f"got {len(shifts)}")
    axes = tuple(range(len(counts)))
    base = np.roll(lattice(counts), [-s for s in shifts], axes).ravel()
    return StructureIso(domain=bundle, codomain_manifold=m, base=base, fiber=gauge.matrices)
