"""Operator assembly, Hermiticity, spectra, functional calculus, kernel."""

import numpy as np
import pytest

from fracbundle.bundle import (
    GaugeTransform,
    HermitianBundle,
    apply_gauge,
    build_bundle,
    l2_inner,
    pullback_bundle,
    translation_iso,
)
from fracbundle.errors import OperatorError
from fracbundle.manifold import DiscreteManifold, build_manifold
from fracbundle.operator import apply_function, assemble, kernel_projector
from fracbundle.s2s import flat_indices


def cycle(n=8, length=None):
    return build_manifold({"kind": "cycle", "count": n, "length": float(length or n)})


def torus(n1=4, n2=4):
    return build_manifold({"kind": "torus_grid", "counts": [n1, n2], "lengths": [float(n1), float(n2)]})


def test_cycle8_spectrum_closed_form():
    op = assemble(build_bundle(cycle(8), 1))
    expect = np.sort(2.0 - 2.0 * np.cos(2 * np.pi * np.arange(8) / 8))
    assert np.allclose(np.sort(op.eigenvalues), expect, atol=1e-12)
    distinct = sorted(set(np.round(op.eigenvalues, 9)))
    assert np.allclose(distinct, [0.0, 2 - np.sqrt(2), 2.0, 2 + np.sqrt(2), 4.0])


def test_cycle_spectrum_scales_with_mesh():
    # same circle, finer mesh: low modes approximate k^2 on a 2*pi circle
    op = assemble(build_bundle(cycle(64, 2 * np.pi), 1))
    lam = np.sort(op.eigenvalues)
    assert lam[0] == pytest.approx(0.0, abs=1e-10)
    assert lam[1] == pytest.approx(1.0, rel=2e-3)  # k = 1 doubly degenerate
    assert lam[2] == pytest.approx(1.0, rel=2e-3)
    assert lam[3] == pytest.approx(4.0, rel=5e-3)  # k = 2


def test_anisotropic_torus_spectrum_closed_form():
    # eigenvalues are sums of per-axis mesh-scaled cosine bands
    n1, n2, L1, L2 = 4, 6, 2.0, 9.0
    m = build_manifold({"kind": "torus_grid", "counts": [n1, n2], "lengths": [L1, L2]})
    op = assemble(build_bundle(m, 1))
    h1, h2 = L1 / n1, L2 / n2
    expect = []
    for k1 in range(n1):
        for k2 in range(n2):
            expect.append((2 - 2 * np.cos(2 * np.pi * k1 / n1)) / h1**2
                          + (2 - 2 * np.cos(2 * np.pi * k2 / n2)) / h2**2)
    assert np.allclose(np.sort(op.eigenvalues), np.sort(expect), atol=1e-10)


def test_hermitian_wrt_weighted_inner():
    rng = np.random.default_rng(1)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=2)
    op = assemble(b)
    for _ in range(5):
        u = b.random_section(rng)
        v = b.random_section(rng)
        pu = op.to_section(op.matrix @ op.to_flat(u))
        pv = op.to_section(op.matrix @ op.to_flat(v))
        lhs = l2_inner(b, pu, v)
        rhs = l2_inner(b, u, pv)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_eigensections_weighted_orthonormal():
    b = build_bundle(torus(), 2, connection="random", seed=3)
    op = assemble(b)
    mu = np.repeat(b.manifold.volumes, b.rank)
    gram = op.eigensections.conj().T @ (mu[:, None] * op.eigensections)
    assert np.max(np.abs(gram - np.eye(op.dim))) < 1e-10


def test_spectral_reconstruction_of_action():
    rng = np.random.default_rng(4)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=5)
    op = assemble(b)
    u = b.random_section(rng)
    direct = op.to_section(op.matrix @ op.to_flat(u))
    viaspec = apply_function(op, lambda lam: lam, u)
    num = np.linalg.norm(direct - viaspec)
    assert num <= 1e-9 * max(1.0, np.linalg.norm(direct))


def test_trivial_bundle_kernel_is_constants():
    b = build_bundle(torus(), 2)
    op = assemble(b)
    proj = kernel_projector(op)
    assert proj.kernel_dimension == 2
    assert op.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    const = np.ones((b.manifold.num_vertices, 1)) * np.array([[1.0, 1j]])
    resid = op.matrix @ op.to_flat(const)
    assert np.max(np.abs(resid)) < 1e-12


def test_identity_potential_shifts_spectrum():
    m = torus()
    b0 = build_bundle(m, 2, connection="random", seed=6)
    c = 0.7
    pot = np.broadcast_to(c * np.eye(2, dtype=complex), (m.num_vertices, 2, 2)).copy()
    b1 = HermitianBundle(m, 2, build_bundle(m, 2, connection="random", seed=6).transport, pot)
    op0, op1 = assemble(b0), assemble(b1)
    assert np.allclose(op1.eigenvalues, op0.eigenvalues + c, atol=1e-10)
    assert kernel_projector(op1).kernel_dimension == 0


def test_kernel_preserved_under_gauge():
    rng = np.random.default_rng(7)
    b = build_bundle(torus(), 2)
    g = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    opg = assemble(apply_gauge(b, g))
    assert kernel_projector(opg).kernel_dimension == 2


def test_spectrum_gauge_invariant_and_matrix_conjugated():
    rng = np.random.default_rng(8)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=9)
    op = assemble(b)
    g = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    opg = assemble(apply_gauge(b, g))
    assert np.max(np.abs(np.sort(op.eigenvalues) - np.sort(opg.eigenvalues))) < 1e-9
    # block-diagonal gauge conjugation, entrywise
    V, r = b.manifold.num_vertices, b.rank
    S = np.zeros((V * r, V * r), dtype=complex)
    blocks = flat_indices(range(V), r).reshape(V, r)
    S[blocks[:, :, None], blocks[:, None, :]] = g.matrices
    conj = S.conj().T @ op.matrix @ S
    assert np.max(np.abs(conj - opg.matrix)) < 1e-11


def test_spectrum_invariant_under_structure_iso():
    rng = np.random.default_rng(9)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=10)
    gauge = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    iso = translation_iso(b, (1, 3), gauge)
    b2 = pullback_bundle(iso)
    lam1 = assemble(b).eigenvalues
    lam2 = assemble(b2).eigenvalues
    assert np.max(np.abs(np.sort(lam1) - np.sort(lam2))) < 1e-9


def test_apply_function_identity_and_powers():
    rng = np.random.default_rng(11)
    b = build_bundle(torus(), 1, connection="random", seed=12)
    op = assemble(b)
    u = b.random_section(rng)
    one = apply_function(op, lambda lam: np.ones_like(lam), u)
    assert np.max(np.abs(one - u)) < 1e-10
    # eigensection of a known eigenvalue scales by its square
    k = np.argmin(np.abs(op.eigenvalues - 2.0)) if np.any(np.abs(op.eigenvalues - 2) < 0.5) else 3
    lam_k = op.eigenvalues[k]
    sec = op.to_section(op.eigensections[:, k])
    sq = apply_function(op, lambda lam: lam**2, sec)
    assert np.allclose(sq, lam_k**2 * sec, atol=1e-9)


def test_singular_symbol_rejected():
    b = build_bundle(torus(), 1)
    op = assemble(b)
    u = np.zeros((b.manifold.num_vertices, 1), dtype=complex)
    u[0, 0] = 1.0
    with pytest.raises(OperatorError):
        apply_function(op, lambda lam: 1.0 / lam, u)  # infinite on the kernel mode


def test_negative_spectrum_reported_not_shifted():
    m = torus()
    pot = np.broadcast_to(-3.0 * np.eye(1, dtype=complex), (m.num_vertices, 1, 1)).copy()
    b = HermitianBundle(m, 1, build_bundle(m, 1).transport, pot)
    op = assemble(b)
    assert op.min_eigenvalue == pytest.approx(-3.0, abs=1e-9)
    assert not op.is_nonnegative()
    with pytest.raises(OperatorError):
        op.require_nonnegative()


def test_projectors_idempotent_complementary():
    rng = np.random.default_rng(12)
    b = build_bundle(torus(), 2)
    op = assemble(b)
    proj = kernel_projector(op)
    u = b.random_section(rng)
    c1 = proj.project_complement(u)
    k1 = u - c1
    assert np.max(np.abs(proj.project_complement(c1) - c1)) < 1e-10
    assert np.max(np.abs(proj.project_complement(k1))) < 1e-10
    assert proj.kernel_fraction(c1) < 1e-10
    assert proj.kernel_fraction(k1) == pytest.approx(1.0, abs=1e-10)


def random_rank2_bundle(seed):
    """A random rank-2 bundle on a 5x4 torus graph with non-uniform volumes
    and weights."""
    rng = np.random.default_rng(seed)
    t = build_manifold({"kind": "torus_grid", "counts": [5, 4], "lengths": [5.0, 4.0]})
    m = DiscreteManifold(t.num_vertices, t.edges, t.lengths,
                         rng.uniform(0.5, 2.0, len(t.edges)),
                         rng.uniform(0.5, 2.0, t.num_vertices), t.dimension)
    return build_bundle(m, 2, connection="random", potential="random_hermitian", seed=seed)


def per_edge_matrix(b):
    """The operator matrix summed one edge at a time, then the potential."""
    m, r = b.manifold, b.rank
    mu = m.volumes
    mat = np.zeros((m.num_vertices * r,) * 2, dtype=np.complex128)
    eye = np.eye(r)
    for i, (x, y) in enumerate(m.edges):
        w = m.weights[i]
        cxy, cyx = w * np.sqrt(mu[y] / mu[x]), w * np.sqrt(mu[x] / mu[y])
        sx, sy = slice(x * r, (x + 1) * r), slice(y * r, (y + 1) * r)
        mat[sx, sx] += cxy * eye
        mat[sy, sy] += cyx * eye
        mat[sx, sy] -= cxy * b.transport[i]
        mat[sy, sx] -= cyx * b.transport[i].conj().T
    blocks = flat_indices(range(m.num_vertices), r).reshape(-1, r)
    mat[blocks[:, :, None], blocks[:, None, :]] += b.potential
    return mat


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assemble_is_the_per_edge_sum_bit_for_bit(seed):
    b = random_rank2_bundle(seed)
    got, want = assemble(b).matrix, per_edge_matrix(b)
    assert np.array_equal(got, want)
    # sign bits too: a zero entry stays +0.0 or -0.0 as the loop leaves it
    assert got.tobytes() == want.tobytes()


def test_coefficients_are_the_conjugated_eigenbasis_product_bit_for_bit():
    b = build_bundle(torus(), 2, connection="random", potential="random_positive", seed=9)
    op = assemble(b)
    u = b.random_section(np.random.default_rng(10))
    mu = np.repeat(b.manifold.volumes, b.rank)
    want = op.eigensections.conj().T @ (mu * op.to_flat(u))
    assert op.coefficients(u).tobytes() == want.tobytes()
