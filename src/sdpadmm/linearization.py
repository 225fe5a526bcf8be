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
||M|| and ||M - Pi_Fix|| govern the local contraction rate. ||M - Pi_Fix|| is
computed by Lanczos (ARPACK) on T*T for the tail operator T = M - Pi_Fix
(:func:`tail_operator`), and ||M|| is read off Fix(M) (:func:`norm_M`):
exactly 1 when Fix(M) is nonzero, ||M - Pi_Fix|| when it is {0}.

In ``apply_M`` and ``apply_M_adjoint``, the definitions, the Hadamard
products act in the rotated coordinates of the reference eigenbasis and the
range projector P in the original ones. The norms and Fix(M) work in the
svec coordinates of the eigenbasis alone (``diagnostics.EigenFrame``), where
Omega o is elementwise and P is two passes over the rotated basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import EigenFrame, eigen_frame
from .errors import NumericalFailureError
from .linalg import (
    RANK_TAU,
    SpectralDecomp,
    leading_block,
    positive_part,
    psd_project,
    svec_dim,
    symmetrize,
    triangle_maps,
)
from .problem import ConstraintKernel, project_range

NORM_TOL = 1e-12


@dataclass
class OmegaStructure:
    """Hadamard multipliers of the projection derivative at a reference:
    Q, eigenvalues ``lam`` (descending), the counts r of positive (alpha) and
    s of negative (gamma) eigenvalues and the multiplier matrix ``omega``,
    whose gamma-alpha corner ``theta`` (s x r) is a view; the complements are
    ``1 - omega`` and ``1 - theta``. The n - r - s eigenvalues between them
    form the beta block, empty at a nonsingular reference."""

    Q: np.ndarray
    lam: np.ndarray
    r: int
    s: int
    omega: np.ndarray

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
    def theta(self):
        return self.omega[self.n - self.s :, : self.r]

    @property
    def theta_comp(self):
        return 1.0 - self.theta

    # The gamma-alpha corner under its singular-reference names.
    theta_t = property(lambda self: self.theta)
    theta_t_comp = theta_comp

    @property
    def w(self):
        """``omega`` in ``triangle_maps`` order: Omega o is w o v on svec."""
        return self.omega.reshape(-1).take(triangle_maps(self.n)[0])

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
    omega = np.zeros((n, n))
    omega[:r, : n - s] = omega[: n - s, :r] = 1.0
    omega[n - s :, :r] = lam[None, :r] / (lam[None, :r] - lam[n - s :, None])
    omega[:r, n - s :] = omega[n - s :, :r].T
    return OmegaStructure(Q=dec.Q.copy(), lam=lam.copy(), r=r, s=s, omega=omega)


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
    e = psd_project(z) - positive_part(os_) - hadamard(os_, os_.omega, z - zstar)
    return e - 2.0 * project_range(kernel, e)


@dataclass
class FixSubspace:
    """Orthonormal basis of the fixed subspace of M, as the rows of ``rows``
    (dim, t(n)): svec(Q' F_k Q) of each member F_k in the reference
    eigenbasis, so Pi_Fix v = rows'(rows v) in those coordinates.

    Members have zero off-diagonal block in the reference basis, a leading
    block whose embedding annihilates A, and a trailing block whose embedding
    lies in range(A*).
    """

    rows: np.ndarray

    @property
    def dim(self):
        return self.rows.shape[0]


def fix_basis(
    os_: OmegaStructure, kernel: ConstraintKernel, frame: EigenFrame | None = None
) -> FixSubspace:
    """Construct Fix(M) explicitly from the frame of ``os_.Q`` (made here
    when not given).

    Two independent families, built as rows in the svec coordinates of the
    eigenbasis: leading-block members Q1 U Q1' for U in the dual witness
    space (A annihilates them), and trailing-block members B*(u) for u in
    the primal witness space (they lie in range(A*) and vanish outside the
    trailing block). The first family is orthonormal through svec; the
    second is too, as the witness u has orthonormal columns and the rows of
    ``bt`` are orthonormal, and its rows are u' bt. The families live in
    orthogonal coordinate blocks, so stacking keeps orthonormality.
    """
    if frame is None:
        frame = eigen_frame(kernel, os_.Q)
    n, r = os_.n, os_.r
    (u, _), (w, _) = frame.dual_witness(r), frame.primal_witness(r)
    lead = np.zeros((u.shape[1], svec_dim(n)))
    lead[:, leading_block(n, r)] = u.T
    return FixSubspace(rows=np.vstack([lead, w.T @ frame.bt]))


def tail_operator(w, frame: EigenFrame, fix: FixSubspace, name):
    """``(apply, gram)``: T = M~ - Pi_Fix and T*T in the svec coordinates of
    ``frame``, for Omega's multipliers ``w`` in ``triangle_maps`` order
    (``OmegaStructure.w``). With P~v = bt'(bt v) and the rows F of ``fix``,

        T v = M~v - F'(F v),          M~v = w o v + P~(v - 2 w o v),
        T*T v = M~*(M~v) - F'(F v),   M~*g = P~g + w o (g - 2 P~g),

    one projection, as M fixes Fix(M) = Fix(M*); no smat, svec or rotation.
    Construction sets ``frame.applications[name]`` to 0; each call adds 1."""
    bt, f = frame.bt, fix.rows
    frame.applications[name] = 0

    def m_tilde(v):
        frame.applications[name] += 1
        g = w * v
        return g + (bt @ (v - 2.0 * g)) @ bt

    def apply(v):
        return m_tilde(v) - (f @ v) @ f

    def gram(v):
        g = m_tilde(v)
        pg = (bt @ g) @ bt
        return pg + w * (g - 2.0 * pg) - (f @ v) @ f

    return apply, gram


def op_norm_M_minus_fix(
    os_: OmegaStructure, kernel: ConstraintKernel, fix: FixSubspace, frame: EigenFrame | None = None
):
    """||M - Pi_Fix|| in the svec coordinates of the frame of ``os_.Q`` (made
    here when not given): the square root of the top eigenvalue of
    (M~ - Pi_Fix)*(M~ - Pi_Fix) by Lanczos (ARPACK ``eigsh``) from a fixed
    seeded start vector, so repeated calls agree bit for bit; its
    :func:`tail_operator` counts the applications, also of a failed one. At
    t(n) = 1, below ARPACK's minimum size, that composition is its one entry.
    The value is not gated: it is 1 when ``fix`` misses a fixed direction of
    M. Raises NumericalFailureError when ARPACK does not converge."""
    # Imported here: only diagnose estimates norms, and loading ARPACK would
    # add resident memory to every solve and eb-verify run.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if frame is None:
        frame = eigen_frame(kernel, os_.Q)
    _, gram = tail_operator(os_.w, frame, fix, "op_norm_M_minus_fix")
    t = fix.rows.shape[1]
    if t == 1:
        lam = gram(np.ones(1))
    else:
        try:
            lam = eigsh(
                LinearOperator((t, t), matvec=gram, dtype=float), k=1, which="LA",
                v0=np.random.default_rng(0).standard_normal(t), tol=NORM_TOL,
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise NumericalFailureError(
                "Lanczos did not converge for the operator norm",
                svec_dim=t,
                converged=len(exc.eigenvalues),
            ) from exc
    return float(np.sqrt(max(lam[0], 0.0)))


def norm_M(fix_dim: int, norm_minus_fix):
    """||M|| read off Fix(M): M is nonexpansive, so ||M|| = 1 exactly when it
    fixes a nonzero vector (``fix_dim`` > 0); when Fix(M) = {0}, Pi_Fix = 0
    and ||M|| = ||M - Pi_Fix||, ``norm_minus_fix`` (None if not known)."""
    return 1.0 if fix_dim > 0 else norm_minus_fix


def op_norm_M(os_: OmegaStructure, kernel: ConstraintKernel, frame: EigenFrame | None = None):
    """||M|| by :func:`norm_M`, from Fix(M) in the frame of ``os_.Q`` (made
    here when not given) and, only when Fix(M) = {0}, the estimate of
    :func:`op_norm_M_minus_fix`."""
    if frame is None:
        frame = eigen_frame(kernel, os_.Q)
    fix = fix_basis(os_, kernel, frame)
    return norm_M(fix.dim, None if fix.dim else op_norm_M_minus_fix(os_, kernel, fix, frame))


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
