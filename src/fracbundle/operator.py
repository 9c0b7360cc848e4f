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

from dataclasses import dataclass, field

import numpy as np

from .bundle import HermitianBundle
from .errors import OperatorError

DEFAULT_KERNEL_THRESHOLD = 1e-10


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
    kernel_threshold: float = DEFAULT_KERNEL_THRESHOLD
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self):
        return float(self.eigenvalues[-1])

    def is_nonnegative(self, tol=1e-10):
        return self.min_eigenvalue >= -tol * max(1.0, abs(self.max_eigenvalue))

    def require_nonnegative(self, tol=1e-10, what="fractional calculus"):
        if not self.is_nonnegative(tol):
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
        cut = self.kernel_threshold * max(1.0, self.max_eigenvalue)
        return np.abs(self.eigenvalues) < cut

    # -- coordinate helpers -------------------------------------------------
    def _weights_flat(self):
        mu = self.bundle.manifold.volumes
        return np.repeat(mu, self.bundle.rank)

    def to_flat(self, section):
        return np.asarray(section, dtype=np.complex128).reshape(self.dim)

    def to_section(self, flat):
        return np.asarray(flat, dtype=np.complex128).reshape(
            self.bundle.manifold.num_vertices, self.bundle.rank
        )

    def coefficients(self, section):
        """Eigenbasis coefficients of a section (mu-weighted projections)."""
        f = self.to_flat(section)
        return self.eigensections.conj().T @ (self._weights_flat() * f)

    def synthesize(self, coeffs):
        return self.to_section(self.eigensections @ np.asarray(coeffs, dtype=np.complex128))


def assemble(b: HermitianBundle, kernel_threshold=DEFAULT_KERNEL_THRESHOLD) -> SpectralOperator:
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
    eye = np.eye(r)
    for i, (x, y) in enumerate(m.edges):
        x, y = int(x), int(y)
        w = m.weights[i]
        cxy = w * np.sqrt(mu[y] / mu[x])
        cyx = w * np.sqrt(mu[x] / mu[y])
        sx, sy = slice(x * r, (x + 1) * r), slice(y * r, (y + 1) * r)
        mat[sx, sx] += cxy * eye
        mat[sy, sy] += cyx * eye
        mat[sx, sy] -= cxy * b.transport[i]
        mat[sy, sx] -= cyx * b.transport[i].conj().T
    for v in range(V):
        sv = slice(v * r, (v + 1) * r)
        mat[sv, sv] += b.potential[v]

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
        kernel_threshold=kernel_threshold,
        meta={"min_eigenvalue": float(evals[0])},
    )


def apply_function(op: SpectralOperator, phi, u, exclude_kernel=False):
    """Apply the scalar function phi of the operator to a section.

    phi maps an eigenvalue array to coefficients.  With exclude_kernel the
    kernel modes are dropped before phi is evaluated (for symbols singular
    at zero); otherwise phi must be finite on every eigenvalue, where the
    kernel-classified modes are evaluated at exactly zero.
    """
    mask = op.kernel_mask()
    lam = np.where(mask, 0.0, op.eigenvalues)
    keep = ~mask if exclude_kernel else np.ones(len(lam), dtype=bool)
    vals = np.zeros(len(lam), dtype=np.complex128)
    with np.errstate(all="ignore"):
        vals[keep] = phi(lam[keep])
    if not np.all(np.isfinite(vals)):
        raise OperatorError("spectral symbol is singular on an included eigenvalue")
    return op.synthesize(vals * op.coefficients(u))


@dataclass(frozen=True)
class KernelProjector:
    """Projector onto the kernel modes and its complement."""

    operator: SpectralOperator
    mask: np.ndarray

    @property
    def kernel_dimension(self):
        return int(np.sum(self.mask))

    def project_kernel(self, u):
        c = self.operator.coefficients(u)
        c[~self.mask] = 0.0
        return self.operator.synthesize(c)

    def project_complement(self, u):
        c = self.operator.coefficients(u)
        c[self.mask] = 0.0
        return self.operator.synthesize(c)

    def kernel_fraction(self, u):
        """Relative mu-weighted mass of the kernel component of u."""
        c = self.operator.coefficients(u)
        total = float(np.sum(np.abs(c) ** 2))
        if total == 0.0:
            return 0.0
        return float(np.sqrt(np.sum(np.abs(c[self.mask]) ** 2) / total))


def kernel_projector(op: SpectralOperator) -> KernelProjector:
    return KernelProjector(operator=op, mask=op.kernel_mask())
