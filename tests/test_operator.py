"""Operator assembly, Hermiticity, spectra, functional calculus, kernel."""

import numpy as np
import pytest

from fracbundle.bundle import GaugeTransform, apply_gauge, build_bundle, l2_inner, pullback_bundle, torus_shift_iso
from fracbundle.errors import OperatorError
from fracbundle.manifold import build_manifold
from fracbundle.operator import apply_function, assemble, kernel_projector


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
    b1 = build_bundle(m, 2, connection="random", seed=6, potential="explicit", explicit_potential=pot)
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
    for v in range(V):
        S[v * r:(v + 1) * r, v * r:(v + 1) * r] = g.matrices[v]
    conj = S.conj().T @ op.matrix @ S
    assert np.max(np.abs(conj - opg.matrix)) < 1e-11


def test_spectrum_invariant_under_structure_iso():
    rng = np.random.default_rng(9)
    b = build_bundle(torus(), 2, connection="random", potential="random_hermitian", seed=10)
    gauge = GaugeTransform.random(rng, b.manifold.num_vertices, 2)
    iso = torus_shift_iso(b, (1, 3), gauge=gauge)
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
    u = b.zero_section()
    u[0, 0] = 1.0
    with pytest.raises(OperatorError):
        apply_function(op, lambda lam: 1.0 / lam, u)  # kernel included
    # with the kernel excluded the same symbol is fine
    apply_function(op, lambda lam: 1.0 / lam, u, exclude_kernel=True)


def test_negative_spectrum_reported_not_shifted():
    m = torus()
    pot = np.broadcast_to(-3.0 * np.eye(1, dtype=complex), (m.num_vertices, 1, 1)).copy()
    b = build_bundle(m, 1, potential="explicit", explicit_potential=pot)
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
    k1 = proj.project_kernel(u)
    c1 = proj.project_complement(u)
    assert np.max(np.abs(proj.project_kernel(k1) - k1)) < 1e-10
    assert np.max(np.abs(proj.project_complement(c1) - c1)) < 1e-10
    assert np.max(np.abs((k1 + c1) - u)) < 1e-10
    assert np.max(np.abs(proj.project_kernel(c1))) < 1e-10
