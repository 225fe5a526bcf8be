"""Local linearization of the fixed-point map at a reference point.

At a nonsingular reference Zstar with r positive eigenvalues, the PSD
projection is differentiable with differential H -> Q (Omega o (Q'HQ)) Q',
where Omega carries an all-ones leading r x r block, a zero trailing block,
and off-diagonal weights Theta_ij = lam_j / (lam_j - lam_{i+r}) in (0, 1).
The one-step map then linearizes as

    Z+ - Zstar = M(Z - Zstar) + Psi,   M(H) = P(Omega^c o H) + Pnull(Omega o H),

with a residual Psi that is second order in the off-diagonal block of the
error. M is firmly nonexpansive; its fixed subspace and the operator norms
||M|| and ||M - Pi_Fix|| govern the local contraction rate; both are computed
by Lanczos (ARPACK) on the self-adjoint composition op* o op. A singular
reference is handled through the directional derivative of the projection,
which adds a small-eigenvalue index block and stays positively homogeneous.

All Hadamard products act in the rotated coordinates of the reference
eigenbasis; the range projector P acts in the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .diagnostics import dual_witness, primal_witness
from .errors import NumericalFailureError
from .linalg import RANK_TAU, SpectralDecomp, psd_project, smat, svec, svec_dim, symmetrize
from .problem import ConstraintKernel, apply_At, project_range

NORM_TOL = 1e-12
NONSINGULAR_GAP = 1e-12


@dataclass
class OmegaStructure:
    """Hadamard multipliers of the projection differential at a nonsingular
    reference: Q, eigenvalues (descending, no zeros), rank split r, the
    multiplier matrix ``omega`` and its off-diagonal block ``theta``; the
    complements are ``1 - omega`` and ``1 - theta``."""

    Q: np.ndarray
    lam: np.ndarray
    r: int
    omega: np.ndarray
    theta: np.ndarray

    @property
    def n(self):
        return self.lam.shape[0]

    @property
    def omega_comp(self):
        return 1.0 - self.omega

    @property
    def theta_comp(self):
        return 1.0 - self.theta

    def proj_zstar(self):
        pos = np.clip(self.lam, 0.0, None)
        return symmetrize((self.Q * pos) @ self.Q.T)

    def rotate_in(self, h):
        return self.Q.T @ h @ self.Q

    def rotate_out(self, h):
        return self.Q @ h @ self.Q.T

    def offblock(self, h):
        """Lower-left (n - r) x r block of Q'HQ."""
        return self.rotate_in(h)[self.r :, : self.r]


def build_omega(dec: SpectralDecomp) -> OmegaStructure:
    """Assemble the multiplier structure from a sorted spectral decomposition.

    Requires a nonsingular reference: every eigenvalue must clear
    ``NONSINGULAR_GAP * max|lam|`` in magnitude, otherwise a ValueError asks
    the caller to switch to the directional-derivative path
    (:func:`build_directional`).
    Elimination and ``eb-verify`` reject singular references by this rule.
    """
    lam = dec.lam
    n = lam.shape[0]
    lam_max = float(np.max(np.abs(lam))) if n else 0.0
    if lam_max == 0.0 or np.min(np.abs(lam)) <= NONSINGULAR_GAP * lam_max:
        raise ValueError(
            "reference matrix must be nonsingular "
            f"(min |lam| = {float(np.min(np.abs(lam))) if n else 0.0:.3e})"
        )
    r = int(np.sum(lam > 0.0))
    pos = lam[:r]
    neg = lam[r:]
    theta = pos[None, :] / (pos[None, :] - neg[:, None])
    omega = np.zeros((n, n))
    omega[:r, :r] = 1.0
    omega[r:, :r] = theta
    omega[:r, r:] = theta.T
    return OmegaStructure(Q=dec.Q.copy(), lam=lam.copy(), r=r, omega=omega, theta=theta)


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
    outside the trailing block). The first family is orthonormal through svec;
    the second is orthonormalized with the Gram matrix AA*. The families live
    in orthogonal coordinate blocks, so stacking keeps orthonormality.
    """
    n, r = os_.n, os_.r
    at = os_.rotate_in(kernel.problem.A)
    q1 = os_.Q[:, :r]
    members = [q1 @ smat(u) @ q1.T for u in dual_witness(at, r).T]
    y = primal_witness(at, r)
    if y.shape[1]:
        chol = np.linalg.cholesky(y.T @ kernel.gram @ y)
        coef = scipy.linalg.solve_triangular(chol, y.T, lower=True)
        members.extend(apply_At(kernel.problem, coef))
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


# ---------------------------------------------------------------------------
# Singular reference: directional derivative path.
# ---------------------------------------------------------------------------


@dataclass
class DirectionalStructure:
    """Index split (alpha, beta, gamma) of a possibly singular reference and
    the off-corner Hadamard weights between the definite blocks."""

    Q: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    theta_t: np.ndarray  # (|gamma|, |alpha|), entries in (0, 1)

    @property
    def n(self):
        return self.lam.shape[0]

    @property
    def theta_t_comp(self):
        return 1.0 - self.theta_t


def build_directional(dec: SpectralDecomp) -> DirectionalStructure:
    """Split the spectrum at threshold RANK_TAU * max|lam| into positive (alpha),
    near-zero (beta) and negative (gamma) index sets."""
    lam = dec.lam
    # Scale-relative, unlike linalg.split_counts: the projection is positively
    # homogeneous, so its directional derivative at c * Zstar (c > 0) equals
    # the one at Zstar and the split must not depend on the reference's scale.
    thr = RANK_TAU * (float(np.max(np.abs(lam))) if lam.size else 0.0)
    alpha = np.flatnonzero(lam > thr)
    gamma = np.flatnonzero(lam < -thr)
    beta = np.flatnonzero(np.abs(lam) <= thr)
    pos = lam[alpha]
    neg = lam[gamma]
    theta_t = (
        pos[None, :] / (pos[None, :] - neg[:, None])
        if alpha.size and gamma.size
        else np.zeros((gamma.size, alpha.size))
    )
    return DirectionalStructure(
        Q=dec.Q.copy(), lam=lam.copy(), alpha=alpha, beta=beta, gamma=gamma, theta_t=theta_t
    )


def directional_derivative(ds: DirectionalStructure, h):
    """One-sided derivative of the PSD projection at the reference, applied
    to H: block copy on alpha, Hadamard weights on the gamma-alpha corner, a
    small PSD projection on the beta block, zeros elsewhere. Positively
    homogeneous in H."""
    ht = ds.Q.T @ np.asarray(h, dtype=float) @ ds.Q
    a, b, g = ds.alpha, ds.beta, ds.gamma
    out = np.zeros_like(ht)
    out[np.ix_(a, a)] = ht[np.ix_(a, a)]
    out[np.ix_(b, a)] = ht[np.ix_(b, a)]
    out[np.ix_(a, b)] = ht[np.ix_(a, b)]
    out[np.ix_(g, a)] = ds.theta_t * ht[np.ix_(g, a)]
    out[np.ix_(a, g)] = out[np.ix_(g, a)].T
    if b.size:
        out[np.ix_(b, b)] = psd_project(ht[np.ix_(b, b)])
    return ds.Q @ out @ ds.Q.T


def apply_M_directional(ds: DirectionalStructure, kernel: ConstraintKernel, h):
    """Nonlinear analogue of M at a singular reference:
    P(H - D(H)) + Pnull(D(H)) with D the directional derivative."""
    d = directional_derivative(ds, h)
    return d + project_range(kernel, h - 2.0 * d)
