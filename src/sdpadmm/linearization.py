"""Local linearization of the fixed-point map at a reference point.

At a reference Zstar = Q diag(lam) Q' (lam descending) the spectrum splits
into r positive (alpha), near-zero (beta) and s negative (gamma) eigenvalues.
The directional derivative of the PSD projection is H -> Q D Q' with
D = Omega o (Q'HQ) outside the beta block and D_bb = Pi((Q'HQ)_bb) on it;
Omega is 1 on the alpha rows and columns outside the gamma block and carries
Theta_ij = lam_j / (lam_j - lam_{i+r}) in (0, 1) on the gamma-alpha corner.
At a nonsingular reference (beta empty) it is linear, and the one-step map
linearizes as

    Z+ - Zstar = M(Z - Zstar) + Psi,   M(H) = P(Omega^c o H) + Pnull(Omega o H),

with a residual Psi that is second order in the off-diagonal block of the
error. M is firmly nonexpansive; its fixed subspace and the operator norms
||M|| and ||M - Pi_Fix|| govern the local contraction rate; both are computed
by Lanczos (ARPACK) on the self-adjoint composition op* o op.

All Hadamard products act in the rotated coordinates of the reference
eigenbasis; the range projector P acts in the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import dual_witness, primal_witness
from .errors import NumericalFailureError
from .linalg import RANK_TAU, SpectralDecomp, psd_project, smat, svec, svec_dim, symmetrize
from .problem import ConstraintKernel, apply_Bt, project_range

NORM_TOL = 1e-12


@dataclass
class OmegaStructure:
    """Hadamard multipliers of the projection derivative at a reference:
    Q, eigenvalues ``lam`` (descending), the counts r of positive (alpha) and
    s of negative (gamma) eigenvalues, the multiplier matrix ``omega`` and
    its gamma-alpha corner ``theta`` (s x r); the complements are
    ``1 - omega`` and ``1 - theta``. The n - r - s eigenvalues between them
    form the beta block, empty at a nonsingular reference."""

    Q: np.ndarray
    lam: np.ndarray
    r: int
    s: int
    omega: np.ndarray
    theta: np.ndarray

    @property
    def n(self):
        return self.lam.shape[0]

    @property
    def alpha(self):
        return np.arange(self.r)

    @property
    def beta(self):
        return np.arange(self.r, self.n - self.s)

    @property
    def gamma(self):
        return np.arange(self.n - self.s, self.n)

    @property
    def omega_comp(self):
        return 1.0 - self.omega

    @property
    def theta_comp(self):
        return 1.0 - self.theta

    # The gamma-alpha corner under its singular-reference names.
    theta_t = property(lambda self: self.theta)
    theta_t_comp = theta_comp

    def proj_zstar(self):
        pos = np.clip(self.lam, 0.0, None)
        return symmetrize((self.Q * pos) @ self.Q.T)

    def rotate_in(self, h):
        return self.Q.T @ h @ self.Q

    def rotate_out(self, h):
        return self.Q @ h @ self.Q.T

    def offblock(self, h):
        """Gamma-alpha (lower-left s x r) block of Q'HQ."""
        return self.rotate_in(h)[self.n - self.s :, : self.r]


def build_directional(dec: SpectralDecomp) -> OmegaStructure:
    """Assemble the multiplier structure from a sorted spectral decomposition,
    splitting the spectrum at RANK_TAU * max|lam| into positive (alpha),
    near-zero (beta) and negative (gamma) eigenvalues."""
    lam = dec.lam
    n = lam.shape[0]
    # Scale-relative, unlike linalg.split_counts: the projection is positively
    # homogeneous, so its directional derivative at c * Zstar (c > 0) equals
    # the one at Zstar and the split must not depend on the reference's scale.
    thr = RANK_TAU * (float(np.max(np.abs(lam))) if n else 0.0)
    r = int(np.sum(lam > thr))
    s = int(np.sum(lam < -thr))
    theta = lam[None, :r] / (lam[None, :r] - lam[n - s :, None])
    omega = np.zeros((n, n))
    omega[:r, : n - s] = omega[: n - s, :r] = 1.0
    omega[n - s :, :r] = theta
    omega[:r, n - s :] = theta.T
    return OmegaStructure(Q=dec.Q.copy(), lam=lam.copy(), r=r, s=s, omega=omega, theta=theta)


def build_omega(dec: SpectralDecomp) -> OmegaStructure:
    """:func:`build_directional` at a nonsingular reference: raises ValueError
    when the split has a beta block. Elimination and ``eb-verify`` reject
    singular references by this rule."""
    os_ = build_directional(dec)
    if os_.beta.size:
        min_abs = float(np.min(np.abs(os_.lam)))
        raise ValueError(f"reference matrix must be nonsingular (min |lam| = {min_abs:.3e})")
    return os_


def hadamard(os_: OmegaStructure, mask, h):
    """Q (mask o (Q'HQ)) Q'."""
    return os_.rotate_out(mask * os_.rotate_in(h))


def apply_M(os_: OmegaStructure, kernel: ConstraintKernel, h):
    """M(H) = P(Omega^c o H) + Pnull(Omega o H), written with one projection
    as G + P(H - 2G) for G = Omega o H."""
    g = hadamard(os_, os_.omega, h)
    return g + project_range(kernel, h - 2.0 * g)


def apply_M_adjoint(os_: OmegaStructure, kernel: ConstraintKernel, g):
    """Adjoint M*(G) = Omega^c o (PG) + Omega o (Pnull G)."""
    pg = project_range(kernel, g)
    return pg + hadamard(os_, os_.omega, g - 2.0 * pg)


def psi_residual(os_: OmegaStructure, kernel: ConstraintKernel, z, zstar):
    """Quadratic remainder of the linearization at the reference.

    Psi = (Id - 2P)(Pi(Z) - Pi(Zstar) - Omega o (Z - Zstar)); the reflection
    preserves the Frobenius norm, and Z+ - Zstar = M(Z - Zstar) + Psi holds
    exactly along the iteration.
    """
    z = symmetrize(z)
    zstar = symmetrize(zstar)
    e = psd_project(z) - os_.proj_zstar() - hadamard(os_, os_.omega, z - zstar)
    return e - 2.0 * project_range(kernel, e)


def _op_norm(apply_op, apply_op_adj, n):
    """Operator norm of a linear map on S^n: the square root of the largest
    eigenvalue of the self-adjoint composition op* o op, found by Lanczos
    (ARPACK ``eigsh``) in svec coordinates from a fixed seeded start vector,
    so repeated calls return identical values. For n = 1, below ARPACK's
    minimum size, the norm is |op(E11)|."""
    # Imported here: only diagnose estimates norms, and loading ARPACK would
    # add resident memory to every solve and eb-verify run.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    t = svec_dim(n)
    if t == 1:
        return float(np.linalg.norm(apply_op(np.ones((1, 1)))))
    gram = LinearOperator(
        (t, t), matvec=lambda v: svec(apply_op_adj(apply_op(smat(v)))), dtype=float
    )
    v0 = np.random.default_rng(0).standard_normal(t)
    try:
        lam = eigsh(gram, k=1, which="LA", v0=v0, tol=NORM_TOL, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(
            "Lanczos did not converge for the operator norm",
            svec_dim=t,
            converged=len(exc.eigenvalues),
        ) from exc
    return float(np.sqrt(max(lam[0], 0.0)))


def op_norm_M(os_: OmegaStructure, kernel: ConstraintKernel):
    """||M|| by Lanczos on M* o M. At most 1 (up to roundoff) by firm
    nonexpansiveness; strictly below 1 exactly when Fix(M) = {0}."""
    return _op_norm(
        lambda h: apply_M(os_, kernel, h),
        lambda g: apply_M_adjoint(os_, kernel, g),
        os_.n,
    )


@dataclass
class FixSubspace:
    """Orthonormal basis of the fixed subspace of M.

    Members have zero off-diagonal block in the reference basis, a leading
    block whose embedding annihilates A, and a trailing block whose embedding
    lies in range(A*).
    """

    basis: np.ndarray  # (dim, n, n)
    dim: int

    def project(self, h):
        if self.dim == 0:
            return np.zeros_like(h)
        coef = np.einsum("kij,ij->k", self.basis, h)
        return np.einsum("k,kij->ij", coef, self.basis)


def fix_basis(os_: OmegaStructure, kernel: ConstraintKernel) -> FixSubspace:
    """Construct Fix(M) explicitly from the rotated constraints.

    Two independent families: leading-block members Q1 U Q1' for U in the
    dual witness space (A annihilates them), and trailing-block members A*(y)
    for y in the primal witness space (they lie in range(A*) and vanish
    outside the trailing block). The first family is orthonormal through svec.
    The second is B*q for the orthonormal columns q of a QR of R y, since
    A*(y) = B*(R y). The families live in orthogonal coordinate blocks, so
    stacking keeps orthonormality.
    """
    n, r = os_.n, os_.r
    at = os_.rotate_in(kernel.problem.A)
    q1 = os_.Q[:, :r]
    members = [q1 @ smat(u) @ q1.T for u in dual_witness(at, r).T]
    y = primal_witness(at, r)
    if y.shape[1]:
        q, _ = np.linalg.qr(kernel.problem.R @ y)
        members.extend(apply_Bt(kernel, q.T))
    basis = np.stack(members, axis=0) if members else np.zeros((0, n, n))
    return FixSubspace(basis=basis, dim=basis.shape[0])


def op_norm_M_minus_fix(os_: OmegaStructure, kernel: ConstraintKernel, fix: FixSubspace):
    """||M - Pi_Fix|| by Lanczos, strictly below one; raises
    NumericalFailureError if the computed value does not clear 1 - 1e-8."""
    value = _op_norm(
        lambda h: apply_M(os_, kernel, h) - fix.project(h),
        lambda g: apply_M_adjoint(os_, kernel, g) - fix.project(g),
        os_.n,
    )
    if value >= 1.0 - 1e-8:
        raise NumericalFailureError(
            f"||M - Pi_Fix|| = {value!r} is not separated from 1", value=value
        )
    return value


def directional_derivative(os_: OmegaStructure, h):
    """One-sided derivative of the PSD projection at the reference, applied
    to H: the Omega multipliers, with a small PSD projection on the beta
    block. Positively homogeneous in H; linear when beta is empty."""
    ht = os_.rotate_in(h)
    out = os_.omega * ht
    b = slice(os_.r, os_.n - os_.s)
    if os_.beta.size:
        out[b, b] = psd_project(ht[b, b])
    return os_.rotate_out(out)


def apply_M_directional(os_: OmegaStructure, kernel: ConstraintKernel, h):
    """Nonlinear analogue of M at a singular reference:
    P(H - D(H)) + Pnull(D(H)) with D the directional derivative."""
    d = directional_derivative(os_, h)
    return d + project_range(kernel, h - 2.0 * d)
