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

import json
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
    """Blocks of Y' (Z + H) Y at elimination step ``ell``.

    Invariants maintained along the run: Zx positive definite, Zs negative
    definite, Y orthogonal, and V = Y [Zx 0; 0 0] Y' is the current estimate
    of the projection.
    """

    ell: int
    zx: np.ndarray
    zs: np.ndarray
    zo: np.ndarray
    y: np.ndarray
    v: np.ndarray
    z0_norm: float  # spectral norm of Z + H, invariant under the rotations

    @property
    def r(self):
        return self.zx.shape[0]

    @property
    def n(self):
        return self.zx.shape[0] + self.zs.shape[0]

    def block_matrix(self):
        n, r = self.n, self.r
        m = np.zeros((n, n))
        m[:r, :r] = self.zx
        m[r:, r:] = self.zs
        m[r:, :r] = self.zo
        m[:r, r:] = self.zo.T
        return m


def _assemble_v(y, zx, n):
    r = zx.shape[0]
    core = np.zeros((n, n))
    core[:r, :r] = zx
    return symmetrize(y @ core @ y.T)


def eliminate_step(state: EliminationState) -> EliminationState:
    """One elimination sweep: Sylvester solve, skew rotation, block update.

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
    n, r = state.n, state.r
    w_o = sylvester_solve(state.zx, state.zs, state.zo)
    w = np.zeros((n, n))
    w[r:, :r] = w_o
    w[:r, r:] = -w_o.T
    rot = skew_exp(w)
    new_block = rot.T @ state.block_matrix() @ rot
    zx_new = symmetrize(new_block[:r, :r])
    zs_new = symmetrize(new_block[r:, r:])
    zo_new = new_block[r:, :r].copy()
    zo_new_norm = float(np.linalg.norm(zo_new, 2)) if zo_new.size else 0.0
    bound = decay_coefficient(eta, state.z0_norm) * zo_norm**2
    if zo_new_norm > bound * (1.0 + 1e-9) + 1e-300:
        raise NumericalFailureError(
            f"off-block decay bound violated: {zo_new_norm:.3e} > {bound:.3e}",
            zo_before=zo_norm,
            zo_after=zo_new_norm,
            bound=bound,
        )
    y_new = state.y @ rot
    return EliminationState(
        ell=state.ell + 1,
        zx=zx_new,
        zs=zs_new,
        zo=zo_new,
        y=y_new,
        v=_assemble_v(y_new, zx_new, n),
        z0_norm=state.z0_norm,
    )


def init_elimination(z, h) -> EliminationState:
    """Blocks of Z + H in the eigenbasis of the nonsingular reference Z.

    The rotation accumulator starts at the eigenvector matrix of Z, so the
    projection estimate lives in the original coordinates throughout.
    """
    z = symmetrize(z)
    h = symmetrize(h)
    dec = eig_sym(z)
    r = build_omega(dec).r  # ValueError on a singular reference
    if r == 0 or r == dec.n:
        raise ValueError("reference matrix must be indefinite (both eigenvalue signs)")
    total = dec.Q.T @ (z + h) @ dec.Q
    zx = symmetrize(total[:r, :r])
    zs = symmetrize(total[r:, r:])
    zo = total[r:, :r].copy()
    lam_x = np.linalg.eigvalsh(zx)
    lam_s = np.linalg.eigvalsh(zs)
    if lam_x[0] <= 0.0 or lam_s[-1] >= 0.0:
        raise ValueError(
            "perturbation too large: diagonal blocks of Z + H lost definiteness"
        )
    return EliminationState(
        ell=0,
        zx=zx,
        zs=zs,
        zo=zo,
        y=dec.Q.copy(),
        v=_assemble_v(dec.Q, zx, dec.n),
        z0_norm=float(np.linalg.norm(z + h, 2)),
    )


def run_elimination(z, h, max_iter=ELIMINATION_MAX_ITER):
    """Compute Pi(Z + H) by iterative elimination.

    Returns ``(V, iterations, final_off_norm)`` where ``V`` agrees with the
    eigendecomposition-based projection to well below the stopping threshold
    ``ELIMINATION_TOL * max(1, ||Z + H||_F)`` on the off-block. Quadratic
    decay keeps the iteration count tiny; exceeding ``max_iter`` raises
    NumericalFailureError with the decay history.
    """
    state = init_elimination(z, h)
    scale = max(1.0, float(np.linalg.norm(state.block_matrix())))
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


def linearization_residual(z, h):
    """Residual of the first-order expansion of the PSD projection at Z.

    Returns ``(lhs, ho_norm, h_norm)`` in the spectral norm: the residual
    ||Pi(Z+H) - Pi(Z) - Q(Omega o H~)Q'||_2 measured through the
    eigendecomposition path, the off-block norm ||H~_O||_2 in Z's eigenbasis,
    and ||H||_2.
    """
    z = symmetrize(z)
    h = symmetrize(h)
    dec = eig_sym(z)
    os_ = build_omega(dec)
    lhs = float(
        np.linalg.norm(
            psd_project(z + h) - os_.proj_zstar() - hadamard(os_, os_.omega, h), 2
        )
    )
    ht = os_.rotate_in(h)
    ho_norm = float(np.linalg.norm(ht[os_.r :, : os_.r], 2)) if 0 < os_.r < os_.n else 0.0
    return lhs, ho_norm, float(np.linalg.norm(h, 2))


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

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def eb_scan(z, h, scales) -> EbReport:
    """Measure the linearization residual of Pi at Z for perturbations t * H.

    The projection is evaluated through the eigendecomposition path so the
    measurement stays independent of the elimination procedure. All reported
    norms are spectral norms.
    """
    scales = np.asarray(list(scales), dtype=float)
    if scales.size == 0 or np.any(scales <= 0.0):
        raise ValueError("scales must be positive")
    h = symmetrize(h)
    lhs = np.empty_like(scales)
    ho = np.empty_like(scales)
    hn = np.empty_like(scales)
    for i, t in enumerate(scales):
        lhs[i], ho[i], hn[i] = linearization_residual(z, t * h)
    tiny = 1e-300
    return EbReport(
        scales=scales,
        lhs=lhs,
        ho_norms=ho,
        ratios=lhs / np.maximum(ho * hn, tiny),
        classic_ratios=lhs / np.maximum(hn**2, tiny),
    )


def first_sylvester_deviation(z, h):
    """Deviation of the first elimination Sylvester solution from its
    unperturbed closed form.

    ``z`` must be diagonal with descending diagonal, r positive then negative
    entries. With blocks H_X, H_S, H_O of the perturbation, the solution W of
    ``W (Lam_X + H_X) - (Lam_S + H_S) W = H_O`` deviates from the Hadamard
    closed form Theta_0 o H_O (Theta_0 entries 1 / (lam_j - lam_{i+r})) by at
    most ``2 n d / (lam_r - lam_{r+1})^2 * ||H_O||_2 (||H_X||_2 + ||H_S||_2)``,
    which is asserted at runtime. Requires
    ``||H_X||_2 + ||H_S||_2 <= (lam_r - lam_{r+1}) / (2 n d)``.
    """
    z = np.asarray(z, dtype=float)
    h = symmetrize(h)
    n = z.shape[0]
    diag = np.diag(z)
    if np.linalg.norm(z - np.diag(diag)) > 1e-12 * max(1.0, np.linalg.norm(z)):
        raise ValueError("reference must be diagonal")
    if np.any(np.diff(diag) > 0.0):
        raise ValueError("diagonal must be sorted descending")
    if np.any(diag == 0.0):
        raise ValueError("reference must be nonsingular")
    r = int(np.sum(diag > 0.0))
    if r == 0 or r == n:
        raise ValueError("reference must be indefinite")
    lam_r, lam_r1 = diag[r - 1], diag[r]
    d = np.sqrt(min(r, n - r))
    hx = h[:r, :r]
    hs = h[r:, r:]
    ho = h[r:, :r]
    hx_n = float(np.linalg.norm(hx, 2))
    hs_n = float(np.linalg.norm(hs, 2))
    gate = (lam_r - lam_r1) / (2.0 * n * d)
    if hx_n + hs_n > gate:
        raise ValueError(
            f"diagonal perturbation too large: {hx_n + hs_n:.3e} > {gate:.3e}"
        )
    w0 = sylvester_solve(np.diag(diag[:r]) + hx, np.diag(diag[r:]) + hs, ho)
    theta0 = 1.0 / (diag[None, :r] - diag[r:, None])
    deviation = float(np.linalg.norm(w0 - theta0 * ho, 2))
    bound = (
        2.0 * n * d / (lam_r - lam_r1) ** 2 * float(np.linalg.norm(ho, 2)) * (hx_n + hs_n)
    )
    # roundoff floor: the closed form is exact when H_X = H_S = 0, but the
    # solve still carries machine noise proportional to the off-block.
    floor = 1e-12 * max(1.0, float(np.linalg.norm(ho, 2)))
    if deviation > bound * (1.0 + 1e-9) + floor:
        raise NumericalFailureError(
            f"first-solve deviation {deviation:.3e} exceeds bound {bound:.3e}",
            deviation=deviation,
            bound=bound,
        )
    return deviation
