"""Bundle structure: transports, gauge action, pullbacks, holonomy."""

import numpy as np
import pytest

from fracbundle.bundle import (
    GaugeTransform,
    HermitianBundle,
    StructureIso,
    apply_gauge,
    build_bundle,
    l2_inner,
    pullback_bundle,
    translation_iso,
)
from fracbundle.errors import BundleError, GeometryError, ReconstructionError
from fracbundle.manifold import DiscreteManifold, Region, build_manifold
from fracbundle.reference import chart_operator_from_bundle
from fracbundle.s2s import local_structure


def pullback_section(iso, u):
    """(pullback u)(x) = fiber(x)^* u(base(x)): the reference pullback of a
    section along a structure isomorphism."""
    return np.einsum("vji,vj->vi", np.conj(iso.fiber), np.asarray(u, dtype=np.complex128)[iso.base])


def cycle(n=8, length=None):
    return build_manifold({"kind": "cycle", "count": n, "length": float(length or n)})


def torus(n1=4, n2=4):
    return build_manifold({"kind": "torus_grid", "counts": [n1, n2], "lengths": [float(n1), float(n2)]})


def holonomy(b, loop):
    """Holonomy trace along a vertex loop, read off the whole-manifold chart
    the certification compares against."""
    every = tuple(range(b.manifold.num_vertices))
    return chart_operator_from_bundle(b, Region(b.manifold, every), every).holonomy(loop)


def test_trivial_bundle():
    b = build_bundle(cycle(), rank=1)
    assert np.allclose(b.transport, 1.0)
    assert np.allclose(b.potential, 0.0)


def test_explicit_phase_bundle_accepts_unit_modulus():
    m = cycle(4, 4.0)
    thetas = np.array([0.3, -1.2, 2.0, 0.7])
    tr = np.exp(1j * thetas).reshape(-1, 1, 1)
    pot = np.zeros((4, 1, 1))
    b = HermitianBundle(m, 1, tr, pot)
    assert b.rank == 1
    bad = 1.1 * tr
    with pytest.raises(BundleError):
        HermitianBundle(m, 1, bad, pot)


def test_non_hermitian_potential_rejected():
    m = cycle(4, 4.0)
    pot = np.zeros((4, 2, 2), dtype=complex)
    pot[0] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(BundleError):
        HermitianBundle(m, 2, build_bundle(m, 2).transport, pot)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_potential_rejected(bad):
    # a NaN deviation fails "dev > tol" as well as "dev <= tol"
    m = cycle(4, 4.0)
    for entry in ((0, 0, 0), (2, 0, 1)):
        pot = np.zeros((4, 2, 2), dtype=complex)
        pot[entry] = bad
        with pytest.raises(BundleError, match="finite and Hermitian"):
            HermitianBundle(m, 2, build_bundle(m, 2).transport, pot)


def test_parallel_transports_are_refused_at_construction():
    # two transports on one vertex pair (phases 0.3 and 1.7) once left a
    # pullback to keep only the last; the manifold now refuses the pair
    with pytest.raises(GeometryError, match=r"vertex pair \(0, 1\) is listed more than once"):
        DiscreteManifold(3, [[0, 1], [0, 1], [1, 2], [2, 0]], np.ones(4), np.ones(4),
                         np.ones(3), 1)


def test_random_bundle_deterministic_in_seed():
    m = torus()
    b1 = build_bundle(m, 2, connection="random", potential="random_hermitian", seed=7)
    b2 = build_bundle(m, 2, connection="random", potential="random_hermitian", seed=7)
    assert np.array_equal(b1.transport, b2.transport)
    assert np.array_equal(b1.potential, b2.potential)
    b3 = build_bundle(m, 2, connection="random", potential="random_hermitian", seed=8)
    assert not np.allclose(b1.transport, b3.transport)


# -- L2 pairing -------------------------------------------------------------

def test_l2_inner_indicator():
    m = cycle(6, 3.0)  # mu = 0.5
    b = build_bundle(m, 2)
    u = np.zeros((6, 2), dtype=complex)
    u[2, 0] = 1.0
    assert l2_inner(b, u, u) == pytest.approx(m.volumes[2])
    v = np.zeros((6, 2), dtype=complex)
    v[2, 1] = 1.0
    assert l2_inner(b, u, v) == pytest.approx(0.0)


def test_l2_inner_conjugate_symmetry():
    rng = np.random.default_rng(0)
    b = build_bundle(torus(), 2, connection="random", seed=1)
    u = b.random_section(rng)
    v = b.random_section(rng)
    assert l2_inner(b, u, v) == pytest.approx(np.conj(l2_inner(b, v, u)))
    assert l2_inner(b, u, u).real >= 0


# -- gauge action -----------------------------------------------------------

def test_identity_gauge_is_noop():
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=3)
    g = GaugeTransform.identity(b.manifold.num_vertices, 2)
    b2 = apply_gauge(b, g)
    assert np.allclose(b2.transport, b.transport)
    assert np.allclose(b2.potential, b.potential)


def test_constant_phase_gauge_acts_trivially_rank1():
    b = build_bundle(cycle(), 1, connection="random", potential="random_hermitian", seed=5)
    n = b.manifold.num_vertices
    g = GaugeTransform(np.full((n, 1, 1), np.exp(0.4j)))
    b2 = apply_gauge(b, g)
    assert np.allclose(b2.transport, b.transport, atol=1e-14)
    assert np.allclose(b2.potential, b.potential, atol=1e-14)


def test_gauge_round_trip():
    rng = np.random.default_rng(11)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=4)
    g = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    b2 = apply_gauge(apply_gauge(b, g), g.inverse())
    assert np.max(np.abs(b2.transport - b.transport)) < 1e-12
    assert np.max(np.abs(b2.potential - b.potential)) < 1e-12


def test_gauge_group_action_composition():
    rng = np.random.default_rng(12)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=6)
    n = b.manifold.num_vertices
    g1 = GaugeTransform.random(rng, n, 2)
    g2 = GaugeTransform.random(rng, n, 2)
    lhs = apply_gauge(apply_gauge(b, g1), g2)
    g12 = GaugeTransform(np.einsum("vij,vjk->vik", g1.matrices, g2.matrices))
    rhs = apply_gauge(b, g12)
    assert np.max(np.abs(lhs.transport - rhs.transport)) < 1e-12
    assert np.max(np.abs(lhs.potential - rhs.potential)) < 1e-12


def test_gauge_rank_mismatch():
    b = build_bundle(cycle(), 1)
    g = GaugeTransform.identity(b.manifold.num_vertices, 2)
    with pytest.raises(BundleError):
        apply_gauge(b, g)


# -- pullbacks --------------------------------------------------------------

def test_identity_iso_pullback_is_noop():
    rng = np.random.default_rng(2)
    b = build_bundle(cycle(), 2, connection="random", seed=9)
    iso = translation_iso(b, [0], GaugeTransform.identity(8, 2))
    u = b.random_section(rng)
    assert np.allclose(pullback_section(iso, u), u)


def test_pure_relabeling_permutes_sections():
    rng = np.random.default_rng(3)
    b = build_bundle(cycle(8), 1)
    iso = translation_iso(b, [3], GaugeTransform.identity(8, 1))
    u = b.random_section(rng)
    pu = pullback_section(iso, u)
    assert np.allclose(pu, u[(np.arange(8) + 3) % 8])


def test_pullback_preserves_inner_products():
    rng = np.random.default_rng(4)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=10)
    gauge = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    iso = translation_iso(b, (1, 2), gauge)
    b2 = pullback_bundle(iso)
    for _ in range(5):
        u = b.random_section(rng)
        v = b.random_section(rng)
        lhs = l2_inner(b2, pullback_section(iso, u), pullback_section(iso, v))
        rhs = l2_inner(b, u, v)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_translation_base_maps_match_coordinate_formulas():
    b = build_bundle(cycle(64), 1)
    identity = GaugeTransform.identity(64, 1)
    for s in (0, 1, 17, 63, 69, -3):
        assert np.array_equal(translation_iso(b, [s], identity).base, (np.arange(64) + s) % 64)
    m = build_manifold({"kind": "torus_grid", "counts": [5, 7, 3], "lengths": [5.0, 7.0, 3.0]})
    b = build_bundle(m, 1)
    iso = translation_iso(b, (2, -3, 4), GaugeTransform.identity(m.num_vertices, 1))
    i, j, k = np.meshgrid(np.arange(5), np.arange(7), np.arange(3), indexing="ij")
    want = ((i + 2) % 5) * 21 + ((j - 3) % 7) * 3 + (k + 4) % 3
    assert np.array_equal(iso.base, want.ravel())


def test_translation_iso_needs_one_shift_per_axis_and_a_lattice():
    # np.roll would broadcast a short shift list over every axis, and roll a
    # cycle's one axis once per extra shift
    b = build_bundle(torus(), 1)
    g = GaugeTransform.identity(16, 1)
    for shifts in ([1], (1, 2, 3), []):
        with pytest.raises(GeometryError, match="one shift per axis"):
            translation_iso(b, shifts, g)
    bc = build_bundle(cycle(8), 1)
    with pytest.raises(GeometryError, match="one shift per axis"):
        translation_iso(bc, (1, 2), GaugeTransform.identity(8, 1))
    plain = DiscreteManifold(3, [[0, 1], [1, 2], [2, 0]], np.ones(3), np.ones(3), np.ones(3), 1)
    with pytest.raises(GeometryError, match="canonical"):
        translation_iso(build_bundle(plain, 1), [1], GaugeTransform.identity(3, 1))


def test_pullback_along_zero_translation_is_the_gauge_action():
    rng = np.random.default_rng(31)
    b = build_bundle(torus(5, 3), 2, connection="random", potential="random_hermitian", seed=15)
    g = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    pulled = pullback_bundle(translation_iso(b, (0, 0), g))
    gauged = apply_gauge(b, g)
    assert np.array_equal(pulled.transport, gauged.transport)
    assert np.array_equal(pulled.potential, gauged.potential)


def test_pullback_transports_match_a_pair_lookup():
    # each codomain edge (x, y) carries the domain transport on the pair
    # (base[x], base[y]), or its adjoint when that pair is listed reversed
    rng = np.random.default_rng(32)
    b = build_bundle(torus(5, 4), 2, connection="random", potential="random_hermitian", seed=16)
    iso = translation_iso(b, (3, 1), GaugeTransform.random(rng, b.manifold.num_vertices, 2))
    lookup = {}
    for U, (a, c) in zip(b.transport, b.manifold.edges.tolist()):
        lookup[(a, c)], lookup[(c, a)] = U, U.conj().T
    relabelled = HermitianBundle(b.manifold, 2,
                                 np.array([lookup[tuple(p)] for p in iso.base[b.manifold.edges].tolist()]),
                                 b.potential[iso.base])
    want = apply_gauge(relabelled, GaugeTransform(iso.fiber))
    assert np.array_equal(pullback_bundle(iso).transport, want.transport)


def test_region_restrictions_match_pair_loops():
    # the vectorised restrictions equal a loop over every vertex pair
    rng = np.random.default_rng(33)
    b = build_bundle(torus(6, 5), 2, connection="random", potential="random_hermitian", seed=17)
    m = b.manifold
    lookup = {}
    for k, (a, c) in enumerate(m.edges.tolist()):
        lookup[(a, c)], lookup[(c, a)] = (k, b.transport[k]), (k, b.transport[k].conj().T)
    verts = tuple(rng.permutation(m.num_vertices)[:14].tolist())
    pairs = [(i, j) for i in range(14) for j in range(i + 1, 14) if (verts[i], verts[j]) in lookup]
    chart = chart_operator_from_bundle(b, Region(m, verts), range(14))
    assert chart.edges == pairs
    assert np.array_equal(chart.transports,
                          np.array([lookup[(verts[i], verts[j])][1] for i, j in pairs]))
    loc = local_structure(Region(m, verts), 2)
    inside = [k for k, (a, c) in enumerate(m.edges.tolist()) if a in verts and c in verts]
    assert np.array_equal(loc.edges, [[verts.index(a), verts.index(c)] for a, c in m.edges[inside]])
    assert np.array_equal(loc.edge_lengths, m.lengths[inside])
    assert np.array_equal(loc.edge_weights, m.weights[inside])


def test_structure_iso_refuses_a_base_map_off_the_edges():
    b = build_bundle(torus(), 1)
    base = np.arange(16)
    base[[1, 5]] = base[[5, 1]]  # swaps two vertices: edge (0, 1) goes to (0, 5)
    with pytest.raises(GeometryError, match="is not an edge"):
        StructureIso(b, b.manifold, base, np.ones((16, 1, 1)))


# -- holonomy ---------------------------------------------------------------

def test_holonomy_trivial_bundle_gives_rank():
    b = build_bundle(cycle(8), 3)
    loop = list(range(8))
    assert holonomy(b, loop) == pytest.approx(3.0)


def test_holonomy_rank1_phase_sum():
    m = cycle(5, 5.0)
    thetas = np.array([0.2, 0.4, -0.1, 0.9, 0.3])
    # edge i connects (i, i+1); transport carries data from i+1 to i
    tr = np.exp(1j * thetas).reshape(-1, 1, 1)
    b = HermitianBundle(m, 1, tr, np.zeros((5, 1, 1)))
    # traversing 0 -> 1 -> ... -> 0 uses the reverse transports U_{i,i+1}^* ... wait,
    # lut[(0,1)] = U_e0 so walking 0->1->2...->0 multiplies U_e0 U_e1 ... = e^{i sum}
    got = holonomy(b, [0, 1, 2, 3, 4])
    assert got == pytest.approx(np.exp(1j * thetas.sum()))
    # reversed loop gives the conjugate
    got_rev = holonomy(b, [0, 4, 3, 2, 1])
    assert got_rev == pytest.approx(np.exp(-1j * thetas.sum()))


def test_holonomy_gauge_invariant():
    rng = np.random.default_rng(21)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=13)
    g = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    b2 = apply_gauge(b, g)
    loop = [0, 1, 5, 4]  # a plaquette on the 4x4 torus (row-major)
    assert holonomy(b, loop) == pytest.approx(holonomy(b2, loop), abs=1e-10)


def test_holonomy_rejects_non_adjacent():
    b = build_bundle(torus(), 1)
    with pytest.raises(ReconstructionError):
        holonomy(b, [0, 5])  # diagonal, not an edge


def test_structure_iso_invariants():
    rng = np.random.default_rng(30)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=14)
    gauge = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    iso = translation_iso(b, (2, 1), gauge)
    b2 = pullback_bundle(iso)
    # potential spectra match through the base map
    for x in range(b.manifold.num_vertices):
        ev1 = np.sort(np.linalg.eigvalsh(b.potential[iso.base[x]]))
        ev2 = np.sort(np.linalg.eigvalsh(b2.potential[x]))
        assert np.allclose(ev1, ev2, atol=1e-10)
    # holonomy around the pulled-back plaquette matches the image plaquette
    loop2 = [0, 1, 5, 4]
    loop1 = [int(iso.base[v]) for v in loop2]
    assert holonomy(b2, loop2) == pytest.approx(holonomy(b, loop1), abs=1e-10)



def one_unitary(rng, r):
    """One phase-fixed QR unitary, drawn as a real then an imaginary block."""
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rm = np.linalg.qr(g)
    ph = np.diag(rm).copy()
    ph = ph / np.abs(ph)
    return q * ph.conj()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_batched_unitary_draws_are_the_per_item_draws(rank):
    m = torus(5, 4)
    rng = np.random.default_rng(17)
    want = np.array([one_unitary(rng, rank) for _ in range(len(m.edges))])
    # the potential draws follow the transports on the same stream
    want_pot = build_bundle(m, rank, potential="random_hermitian", seed=rng).potential
    b = build_bundle(m, rank, connection="random", potential="random_hermitian", seed=17)
    assert b.transport.tobytes() == want.tobytes()
    assert b.potential.tobytes() == want_pot.tobytes()
    rng = np.random.default_rng(18)
    want = np.array([one_unitary(rng, rank) for _ in range(m.num_vertices)])
    got = GaugeTransform.random(np.random.default_rng(18), m.num_vertices, rank).matrices
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [1.1, np.nan])
def test_unitarity_checks_name_the_first_failing_item(bad):
    m = torus()
    b = build_bundle(m, 2, connection="random", seed=19)
    tr = b.transport.copy()
    tr[[5, 9]] *= bad
    with pytest.raises(BundleError, match=r"transport on edge 5 is not unitary"):
        HermitianBundle(m, 2, tr, b.potential)
    mats = GaugeTransform.random(np.random.default_rng(20), m.num_vertices, 2).matrices
    mats[[3, 4]] *= bad
    with pytest.raises(BundleError, match=r"gauge matrix at vertex 3 is not unitary"):
        GaugeTransform(mats)
    with pytest.raises(BundleError, match=r"fiber map at vertex 3 is not unitary"):
        StructureIso(b, m, np.arange(m.num_vertices), mats)
