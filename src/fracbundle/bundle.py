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
from .manifold import DiscreteManifold

UNITARITY_TOL = 1e-12


def _is_unitary(mat, tol=UNITARITY_TOL):
    r = mat.shape[0]
    return np.linalg.norm(mat @ mat.conj().T - np.eye(r)) <= tol * max(1.0, r)


def random_unitary(rng, r):
    """Haar-ish unitary from QR of a complex Gaussian, phase-fixed."""
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rm = np.linalg.qr(g)
    ph = np.diag(rm).copy()
    ph = ph / np.abs(ph)
    return q * ph.conj()


def random_hermitian(rng, r, scale=1.0):
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
        for i in range(E):
            if not _is_unitary(tr[i]):
                raise BundleError(f"transport on edge {i} is not unitary to {UNITARITY_TOL}")
        dev = np.max(np.abs(pot - np.conj(np.swapaxes(pot, 1, 2))))
        if dev > UNITARITY_TOL:
            raise BundleError(f"potential is not Hermitian (max deviation {dev:.3e})")

    def transport_lookup(self):
        """Dict (x, y) -> unitary carrying data from y to x, both orientations."""
        out = {}
        for i, (a, b) in enumerate(self.manifold.edges):
            out[(int(a), int(b))] = self.transport[i]
            out[(int(b), int(a))] = self.transport[i].conj().T
        return out

    def zero_section(self):
        return np.zeros((self.manifold.num_vertices, self.rank), dtype=np.complex128)

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
        for i in range(mats.shape[0]):
            if not _is_unitary(mats[i]):
                raise BundleError(f"gauge matrix at vertex {i} is not unitary")

    @property
    def rank(self):
        return self.matrices.shape[1]

    def compose(self, other):
        """Pointwise product: applying self then other equals applying compose."""
        if self.matrices.shape != other.matrices.shape:
            raise BundleError("gauge shapes differ")
        return GaugeTransform(np.einsum("vij,vjk->vik", self.matrices, other.matrices))

    def inverse(self):
        return GaugeTransform(np.conj(np.swapaxes(self.matrices, 1, 2)))

    @staticmethod
    def identity(num_vertices, rank):
        mats = np.broadcast_to(np.eye(rank, dtype=np.complex128), (num_vertices, rank, rank))
        return GaugeTransform(np.array(mats))

    @staticmethod
    def random(rng, num_vertices, rank):
        return GaugeTransform(np.array([random_unitary(rng, rank) for _ in range(num_vertices)]))


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
        for i in range(V):
            if not _is_unitary(fiber[i]):
                raise BundleError(f"fiber map at vertex {i} is not unitary")
        if abs(m1.volumes[base] - m2.volumes).max() > 1e-12 * max(1.0, m1.volumes.max()):
            raise GeometryError("base map must preserve vertex volumes")
        lut1 = {}
        for i, (a, b) in enumerate(m1.edges):
            lut1[frozenset((int(a), int(b)))] = (m1.lengths[i], m1.weights[i])
        for i, (a, b) in enumerate(m2.edges):
            key = frozenset((int(base[a]), int(base[b])))
            if key not in lut1:
                raise GeometryError("base map must preserve edges")
            l1, w1 = lut1[key]
            if abs(l1 - m2.lengths[i]) > 1e-12 * max(1.0, l1) or abs(w1 - m2.weights[i]) > 1e-12 * max(1.0, w1):
                raise GeometryError("base map must preserve edge lengths and weights")
        if len(m1.edges) != len(m2.edges):
            raise GeometryError("edge counts differ")


def build_bundle(m: DiscreteManifold, rank, connection="trivial", potential="zero",
                 seed=None, potential_scale=1.0, potential_shift=0.0,
                 explicit_transport=None, explicit_potential=None):
    """Construct a bundle on m.

    connection: "trivial" | "random" | "explicit";
    potential: "zero" | "random_hermitian" | "random_positive" | "explicit".
    random_positive draws G G^*/r scaled plus a shift, so the assembled
    operator stays nonnegative with a strictly positive potential.
    Random draws are deterministic in seed.
    """
    if rank < 1:
        raise BundleError("rank must be >= 1")
    E = len(m.edges)
    V = m.num_vertices
    rng = np.random.default_rng(seed)
    if connection == "trivial":
        tr = np.broadcast_to(np.eye(rank, dtype=np.complex128), (E, rank, rank)).copy()
    elif connection == "random":
        tr = np.array([random_unitary(rng, rank) for _ in range(E)])
    elif connection == "explicit":
        if explicit_transport is None:
            raise BundleError("explicit connection needs explicit_transport")
        tr = np.asarray(explicit_transport, dtype=np.complex128)
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
    elif potential == "explicit":
        if explicit_potential is None:
            raise BundleError("explicit potential needs explicit_potential")
        pot = np.asarray(explicit_potential, dtype=np.complex128)
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
    e = b.manifold.edges
    Sx = S[e[:, 0]]
    Sy = S[e[:, 1]]
    tr = np.einsum("eij,ejk,ekl->eil", np.conj(np.swapaxes(Sx, 1, 2)), b.transport, Sy)
    pot = np.einsum("vij,vjk,vkl->vil", np.conj(np.swapaxes(S, 1, 2)), b.potential, S)
    pot = 0.5 * (pot + np.conj(np.swapaxes(pot, 1, 2)))  # kill roundoff skew
    return HermitianBundle(manifold=b.manifold, rank=b.rank, transport=tr, potential=pot)


def pullback_bundle(iso: StructureIso) -> HermitianBundle:
    """Pull the domain bundle back along the isomorphism onto the codomain manifold."""
    b1 = iso.domain
    m2 = iso.codomain_manifold
    lut = b1.transport_lookup()
    r = b1.rank
    tr = np.empty((len(m2.edges), r, r), dtype=np.complex128)
    for i, (x, y) in enumerate(m2.edges):
        u1 = lut[(int(iso.base[x]), int(iso.base[y]))]
        tr[i] = iso.fiber[x].conj().T @ u1 @ iso.fiber[y]
    pot = np.einsum(
        "vij,vjk,vkl->vil",
        np.conj(np.swapaxes(iso.fiber, 1, 2)),
        b1.potential[iso.base],
        iso.fiber,
    )
    pot = 0.5 * (pot + np.conj(np.swapaxes(pot, 1, 2)))
    return HermitianBundle(manifold=m2, rank=r, transport=tr, potential=pot)


def pullback_section(iso: StructureIso, u):
    """(pullback u)(x) = fiber(x)^* u(base(x)); unitary for the L2 pairings."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (iso.domain.manifold.num_vertices, iso.domain.rank):
        raise BundleError("section does not live on the iso domain bundle")
    gathered = u[iso.base]
    return np.einsum("vji,vj->vi", np.conj(iso.fiber), gathered)


def holonomy_trace(b: HermitianBundle, loop):
    """Trace of the ordered transport product along a closed edge path.

    loop is a vertex sequence; the closing edge back to loop[0] is implied
    if not already present.  Gauge-invariant up to roundoff.
    """
    verts = [int(v) for v in loop]
    if len(verts) < 2:
        raise BundleError("loop needs at least two vertices")
    if verts[0] != verts[-1]:
        verts = verts + [verts[0]]
    lut = b.transport_lookup()
    acc = np.eye(b.rank, dtype=np.complex128)
    for a, bv in zip(verts[:-1], verts[1:]):
        if (a, bv) not in lut:
            raise BundleError(f"vertices {a} and {bv} are not adjacent")
        acc = acc @ lut[(a, bv)]
    return complex(np.trace(acc))


def cycle_rotation_iso(bundle: HermitianBundle, shift, reflect=False, gauge=None):
    """StructureIso on a cycle builder: rotation (optionally reflection) plus gauge."""
    m = bundle.manifold
    if m.meta.get("kind") != "cycle":
        raise GeometryError("cycle_rotation_iso needs a cycle manifold")
    n = m.num_vertices
    idx = np.arange(n)
    base = (-idx + shift) % n if reflect else (idx + shift) % n
    fiber = (gauge.matrices if gauge is not None
             else GaugeTransform.identity(n, bundle.rank).matrices)
    return StructureIso(domain=bundle, codomain_manifold=m, base=base, fiber=fiber)


def torus_shift_iso(bundle: HermitianBundle, shifts, gauge=None):
    """StructureIso on a torus builder: coordinate translation plus gauge."""
    m = bundle.manifold
    if m.meta.get("kind") != "torus_grid":
        raise GeometryError("torus_shift_iso needs a torus manifold")
    counts = m.meta["counts"]
    dim = len(counts)
    strides = [1] * dim
    for a in range(dim - 2, -1, -1):
        strides[a] = strides[a + 1] * counts[a + 1]
    base = np.empty(m.num_vertices, dtype=np.int64)
    for v in range(m.num_vertices):
        coords = [(v // strides[a]) % counts[a] for a in range(dim)]
        shifted = [(coords[a] + int(shifts[a])) % counts[a] for a in range(dim)]
        base[v] = sum(shifted[a] * strides[a] for a in range(dim))
    fiber = (gauge.matrices if gauge is not None
             else GaugeTransform.identity(m.num_vertices, bundle.rank).matrices)
    return StructureIso(domain=bundle, codomain_manifold=m, base=base, fiber=fiber)
