"""Assembly and functional calculus for the graph connection operator.

The operator acting on sections is

    (P u)(x) = mu_x^{-1} sum_{y ~ x} sqrt(mu_x mu_y) w_xy (u(x) - U_xy u(y))
               + A(x) u(x)

which is Hermitian for the volume-weighted pairing for any positive mu and
reduces to the plain finite-difference form sum_y w_xy (u(x) - U_xy u(y))
on the canonical builders (constant mu).  Everything downstream runs
through the full dense eigendecomposition, so heat, wave, and fractional
evaluations are exact in time and the only discretization error is spatial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import HermitianBundle
from .errors import OperatorError

# eigenvalues below KERNEL_THRESHOLD * max(1, lam_max) in magnitude are kernel modes
KERNEL_THRESHOLD = 1e-10
# an operator is nonnegative when lam_min >= -NONNEGATIVE_TOL * max(1, |lam_max|)
NONNEGATIVE_TOL = 1e-10
# fractional inverses refuse inputs whose kernel fraction exceeds this
KERNEL_FRACTION_TOL = 1e-8


@dataclass(frozen=True)
class SpectralOperator:
    """Dense Hermitian operator with its full eigendecomposition.

    matrix: (V r, V r) operator in section coordinates (vertex-major).
    eigenvalues: ascending; eigensections: columns, orthonormal for the
    mu-weighted pairing.
    """

    bundle: HermitianBundle
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigensections: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self):
        return float(self.eigenvalues[-1])

    def is_nonnegative(self):
        return self.min_eigenvalue >= -NONNEGATIVE_TOL * max(1.0, abs(self.max_eigenvalue))

    def require_nonnegative(self, what="fractional calculus"):
        if not self.is_nonnegative():
            raise OperatorError(
                f"{what} requires a nonnegative operator; "
                f"min eigenvalue {self.min_eigenvalue:.6e}"
            )

    def kernel_mask(self):
        """Boolean mask of eigenvalues classified as numerical zero modes.

        Classification is by magnitude so a genuinely negative spectrum
        (an error state surfaced by require_nonnegative) is not silently
        folded into the kernel.
        """
        cut = KERNEL_THRESHOLD * max(1.0, self.max_eigenvalue)
        return np.abs(self.eigenvalues) < cut

    def project_complement(self, u):
        """u with its kernel modes removed."""
        c = self.coefficients(u)
        c[self.kernel_mask()] = 0.0
        return self.synthesize(c)

    def kernel_fraction(self, u):
        """Relative mu-weighted mass of the kernel component of u."""
        c = self.coefficients(u)
        total = float(np.sum(np.abs(c) ** 2))
        if total == 0.0:
            return 0.0
        return float(np.sqrt(np.sum(np.abs(c[self.kernel_mask()]) ** 2) / total))

    # -- coordinate helpers -------------------------------------------------
    def weights_flat(self):
        """The volume weight of every flat (vertex * rank + fiber) index."""
        return np.repeat(self.bundle.manifold.volumes, self.bundle.rank)

    def to_flat(self, section):
        return np.asarray(section, dtype=np.complex128).reshape(self.dim)

    def to_section(self, flat):
        return np.asarray(flat, dtype=np.complex128).reshape(
            self.bundle.manifold.num_vertices, self.bundle.rank
        )

    def coefficients(self, section):
        """Eigenbasis coefficients of a section (mu-weighted projections)."""
        f = self.to_flat(section)
        # conj(conj(mu f) @ E) is E^* (mu f) bit for bit, without a conjugated
        # copy of the eigenbasis
        return np.conj(np.conj(self.weights_flat() * f) @ self.eigensections)

    def synthesize(self, coeffs):
        return self.to_section(self.eigensections @ np.asarray(coeffs, dtype=np.complex128))


def assemble(b: HermitianBundle) -> SpectralOperator:
    """Assemble the connection operator of a bundle and eigendecompose it.

    The minimum eigenvalue is recorded (never shifted); fractional-power
    operations refuse to run when it is genuinely negative.
    """
    m = b.manifold
    r = b.rank
    V = m.num_vertices
    n = V * r
    mu = m.volumes
    mat = np.zeros((n, n), dtype=np.complex128)
    x, y = m.edges[:, 0], m.edges[:, 1]
    cxy = m.weights * np.sqrt(mu[y] / mu[x])
    cyx = m.weights * np.sqrt(mu[x] / mu[y])
    # the diagonal weights add up in edge order, each edge at x then at y
    diag = np.zeros(V)
    np.add.at(diag, np.stack([x, y], axis=1).ravel(), np.stack([cxy, cyx], axis=1).ravel())
    np.fill_diagonal(mat, np.repeat(diag, r))
    # vertex blocks [v, :, w, :]; a vertex pair is at most one edge, so each
    # off-diagonal block is written once
    blocks = mat.reshape(V, r, V, r)
    blocks[np.arange(V), :, np.arange(V), :] += b.potential
    blocks[x, :, y, :] -= cxy[:, None, None] * b.transport
    blocks[y, :, x, :] -= cyx[:, None, None] * np.conj(np.swapaxes(b.transport, 1, 2))

    # similarity by diag(sqrt(mu)) makes the matrix Hermitian in the plain
    # inner product; eigensections are mapped back to mu-orthonormal ones
    sq = np.sqrt(np.repeat(mu, r))
    sym = mat * (sq[:, None] / sq[None, :])
    sym = 0.5 * (sym + sym.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    sections = evecs / sq[:, None]
    return SpectralOperator(
        bundle=b,
        matrix=mat,
        eigenvalues=evals,
        eigensections=sections,
    )


def apply_function(op: SpectralOperator, phi, u):
    """Apply the scalar function phi of the operator to a section.

    phi maps an eigenvalue array to coefficients and must be finite on every
    eigenvalue; the kernel-classified modes are evaluated at exactly zero.
    """
    lam = np.where(op.kernel_mask(), 0.0, op.eigenvalues)
    with np.errstate(all="ignore"):
        vals = np.asarray(phi(lam), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise OperatorError("spectral symbol is singular on an eigenvalue")
    return op.synthesize(vals * op.coefficients(u))
