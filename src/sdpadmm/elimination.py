"""Iterative elimination of the off-diagonal block for PSD projection.

Given a nonsingular reference Z (r positive eigenvalues, gap to zero) and a
small perturbation H, the projection of Z + H onto the PSD cone can be
computed without refactorizing: in the eigenbasis of Z, repeatedly solve a
Sylvester equation for the off-block, rotate it away with the exponential of
the induced skew-symmetric matrix, and accumulate the rotations. The
off-block norm decays quadratically, the block spectra stay definite, and the
accumulated projection estimate converges to Pi(Z + H).

The same machinery doubles as a measurement harness for the first-order
expansion of Pi around Z: the residual against the Hadamard-multiplier
differential scales with ||H_O|| * ||H|| rather than ||H||^2, which the scan
report exposes as ratio families over a range of perturbation sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .linalg import (
    eig_sym,
    psd_project,
    skew_exp,
    sylvester_solve,
    symmetrize,
)
from .linearization import build_omega, hadamard

ELIMINATION_TOL = 1e-13
ELIMINATION_MAX_ITER = 60


def _eta(zx, zs):
    """d / (lam_min(Zx) - lam_max(Zs)) with d = sqrt(min block edge)."""
    r = zx.shape[0]
    s = zs.shape[0]
    d = np.sqrt(min(r, s))
    sep = float(np.linalg.eigvalsh(zx)[0] - np.linalg.eigvalsh(zs)[-1])
    return d / sep, sep


def decay_coefficient(eta, z0_norm):
    """Polynomial factor bounding the one-step quadratic decay of the
    off-block: (4/9) eta^4 z^3 + (4/3) eta^3 z^2 + (13/3) eta^2 z + 4 eta."""
    return (
        (4.0 / 9.0) * eta**4 * z0_norm**3
        + (4.0 / 3.0) * eta**3 * z0_norm**2
        + (13.0 / 3.0) * eta**2 * z0_norm
        + 4.0 * eta
    )


@dataclass
class EliminationState:
    """The rotated matrix T = Y' (Z + H) Y at elimination step ``ell``, with
    blocks Zx = T[:r, :r], Zs = T[r:, r:] and Zo = T[r:, :r].

    Invariants maintained along the run: T symmetric, Zx positive definite,
    Zs negative definite, Y orthogonal, and V = Y1 Zx Y1' (Y1 the first r
    columns of Y) is the current estimate of the projection.
    """

    ell: int
    t: np.ndarray
    r: int
    y: np.ndarray
    z0_norm: float  # spectral norm of Z + H, invariant under the rotations

    @property
    def zx(self):
        return self.t[: self.r, : self.r]

    @property
    def zs(self):
        return self.t[self.r :, self.r :]

    @property
    def zo(self):
        return self.t[self.r :, : self.r]

    @property
    def v(self):
        y1 = self.y[:, : self.r]
        return symmetrize(y1 @ self.zx @ y1.T)


def eliminate_step(state: EliminationState) -> EliminationState:
    """One elimination sweep: Sylvester solve, skew rotation R, then
    T+ = R' T R and Y+ = Y R.

    Requires the definiteness invariants and the entry gate
    ``||Zo||_2 <= 3 / (4 eta)``; refuses with ValueError otherwise (the
    perturbation is too large for the procedure). The off-block contracts
    quadratically with the coefficient of :func:`decay_coefficient`, which is
    asserted at runtime.
    """
    eta, sep = _eta(state.zx, state.zs)
    if sep <= 0.0:
        raise ValueError("definiteness invariant violated: blocks are no longer separated")
    zo_norm = float(np.linalg.norm(state.zo, 2)) if state.zo.size else 0.0
    if zo_norm > 3.0 / (4.0 * eta):
        raise ValueError(
            f"perturbation too large for elimination: ||Zo||_2 = {zo_norm:.3e} "
            f"exceeds 3/(4 eta) = {3.0 / (4.0 * eta):.3e}"
        )
    r = state.r
    w_o = sylvester_solve(state.zx, state.zs, state.zo)
    w = np.zeros_like(state.t)
    w[r:, :r] = w_o
    w[:r, r:] = -w_o.T
    rot = skew_exp(w)
    new = EliminationState(
        ell=state.ell + 1,
        t=symmetrize(rot.T @ state.t @ rot),
        r=r,
        y=state.y @ rot,
        z0_norm=state.z0_norm,
    )
    zo_new_norm = float(np.linalg.norm(new.zo, 2)) if new.zo.size else 0.0
    bound = decay_coefficient(eta, state.z0_norm) * zo_norm**2
    if zo_new_norm > bound * (1.0 + 1e-9) + 1e-300:
        raise NumericalFailureError(
            f"off-block decay bound violated: {zo_new_norm:.3e} > {bound:.3e}",
            zo_before=zo_norm,
            zo_after=zo_new_norm,
            bound=bound,
        )
    return new


def init_elimination(z, h) -> EliminationState:
    """Z + H rotated into the eigenbasis of the nonsingular reference Z.

    The rotation accumulator starts at the eigenvector matrix of Z, so the
    projection estimate lives in the original coordinates throughout.
    """
    z = symmetrize(z)
    h = symmetrize(h)
    dec = eig_sym(z)
    r = build_omega(dec).r  # ValueError on a singular reference
    if r == 0 or r == dec.n:
        raise ValueError("reference matrix must be indefinite (both eigenvalue signs)")
    state = EliminationState(
        ell=0,
        t=symmetrize(dec.Q.T @ (z + h) @ dec.Q),
        r=r,
        y=dec.Q.copy(),
        z0_norm=float(np.linalg.norm(z + h, 2)),
    )
    if np.linalg.eigvalsh(state.zx)[0] <= 0.0 or np.linalg.eigvalsh(state.zs)[-1] >= 0.0:
        raise ValueError("perturbation too large: diagonal blocks of Z + H lost definiteness")
    return state


def run_elimination(z, h, max_iter=ELIMINATION_MAX_ITER):
    """Compute Pi(Z + H) by iterative elimination.

    Returns ``(V, iterations, final_off_norm)`` where ``V`` agrees with the
    eigendecomposition-based projection to well below the stopping threshold
    ``ELIMINATION_TOL * max(1, ||Z + H||_F)`` on the off-block. Quadratic
    decay keeps the iteration count tiny; exceeding ``max_iter`` raises
    NumericalFailureError with the decay history.
    """
    state = init_elimination(z, h)
    scale = max(1.0, float(np.linalg.norm(state.t)))
    history = []
    for _ in range(max_iter + 1):
        off = float(np.linalg.norm(state.zo))
        history.append(off)
        if off <= ELIMINATION_TOL * scale:
            return state.v, state.ell, off
        if state.ell >= max_iter:
            break
        state = eliminate_step(state)
    raise NumericalFailureError(
        f"elimination did not converge in {max_iter} iterations", history=history
    )


# ---------------------------------------------------------------------------
# Error-bound measurement harness.
# ---------------------------------------------------------------------------


def _residual(os_, pz, z, h):
    """(lhs, ho_norm, h_norm) at Z with structure ``os_`` and Pi(Z) = ``pz``."""
    lhs = float(np.linalg.norm(psd_project(z + h) - pz - hadamard(os_, os_.omega, h), 2))
    ho = os_.offblock(h)
    ho_norm = float(np.linalg.norm(ho, 2)) if ho.size else 0.0
    return lhs, ho_norm, float(np.linalg.norm(h, 2))


def linearization_residual(z, h):
    """Residual of the first-order expansion of the PSD projection at Z.

    Returns ``(lhs, ho_norm, h_norm)`` in the spectral norm: the residual
    ||Pi(Z+H) - Pi(Z) - Q(Omega o H~)Q'||_2 measured through the
    eigendecomposition path, the off-block norm ||H~_O||_2 in Z's eigenbasis,
    and ||H||_2.
    """
    z = symmetrize(z)
    os_ = build_omega(eig_sym(z))
    return _residual(os_, os_.proj_zstar(), z, symmetrize(h))


@dataclass
class EbReport:
    """Residual scan of the projection linearization over perturbation scales.

    ``ratios`` divides the residual by ||H~_O||_2 * ||H||_2 (stays bounded as
    scales shrink); ``classic_ratios`` divides by ||H||_2^2 and may diverge
    when the off-block vanishes faster than the perturbation.
    """

    scales: np.ndarray
    lhs: np.ndarray
    ho_norms: np.ndarray
    ratios: np.ndarray
    classic_ratios: np.ndarray

    def to_dict(self):
        return {
            "t": list(map(float, self.scales)),
            "lhs": list(map(float, self.lhs)),
            "ho_norm": list(map(float, self.ho_norms)),
            "refined_ratio": list(map(float, self.ratios)),
            "classic_ratio": list(map(float, self.classic_ratios)),
        }

    def write_csv(self, path):
        lines = ["t,lhs,ho_norm,refined_ratio,classic_ratio"]
        for i in range(len(self.scales)):
            lines.append(
                f"{float(self.scales[i])!r},{float(self.lhs[i])!r},"
                f"{float(self.ho_norms[i])!r},{float(self.ratios[i])!r},"
                f"{float(self.classic_ratios[i])!r}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def eb_scan(z, h, scales) -> EbReport:
    """Measure the linearization residual of Pi at Z for perturbations t * H.

    Z is decomposed once for all scales; each Pi(Z + t H) is evaluated
    through the eigendecomposition path so the measurement stays independent
    of the elimination procedure. All reported norms are spectral norms.
    """
    scales = np.asarray(list(scales), dtype=float)
    if scales.size == 0 or np.any(scales <= 0.0):
        raise ValueError("scales must be positive")
    z = symmetrize(z)
    h = symmetrize(h)
    os_ = build_omega(eig_sym(z))
    pz = os_.proj_zstar()
    lhs = np.empty_like(scales)
    ho = np.empty_like(scales)
    hn = np.empty_like(scales)
    for i, t in enumerate(scales):
        lhs[i], ho[i], hn[i] = _residual(os_, pz, z, t * h)
    tiny = 1e-300
    return EbReport(
        scales=scales,
        lhs=lhs,
        ho_norms=ho,
        ratios=lhs / np.maximum(ho * hn, tiny),
        classic_ratios=lhs / np.maximum(hn**2, tiny),
    )
