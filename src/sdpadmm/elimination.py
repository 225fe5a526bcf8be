"""Iterative elimination of the off-diagonal block for PSD projection.

Given a nonsingular reference Z (r positive eigenvalues, gap to zero) and a
small perturbation H, the projection of Z + H onto the PSD cone can be
computed without refactorizing: in the eigenbasis of Z, repeatedly solve a
Sylvester equation for the off-block, rotate it away with the exponential of
the induced skew-symmetric matrix, and accumulate the rotations. The
off-block norm decays quadratically, the block spectra stay definite, and the
accumulated projection estimate converges to Pi(Z + H). Each sweep
decomposes its two diagonal blocks once, for both the separation ``eta`` and
the Sylvester solve, and hands the ||Zo||_2 of its decay check on to the next
sweep's entry gate.

The same machinery doubles as a measurement harness for the first-order
expansion of Pi around Z: the residual against the Hadamard-multiplier
differential scales with ||H_O|| * ||H|| rather than ||H||^2, which the scan
report exposes as ratio families over a range of perturbation sizes. An
:class:`EbReference` computes what every scale t shares once: one
``eig_sym`` of Z and one rotation of H. The first-order term Q(Omega o
Q'(tH)Q)Q' and the norms ||H~_O||_2 and ||tH||_2 are linear in t, so a scale
costs one projection of Z + tH and one symmetric eigenvalue solve for the
residual's norm (:meth:`EbReference.scan`). The elimination agreement check
(:meth:`EbReference.eliminate`) starts from the same decomposition of Z and
is compared with the scan's projection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError
from .linalg import (
    eig_sym,
    positive_part,
    skew_exp,
    sylvester_solve,
    sym_norm2,
    symmetrize,
)
from .linearization import OmegaStructure, build_omega

ELIMINATION_TOL = 1e-13
ELIMINATION_MAX_ITER = 60


def _eta(lam_x, lam_s):
    """(eta, sep) from the ascending spectra ``lam_x`` of Zx and ``lam_s`` of
    Zs, the block eigenvalues that the sweep's Sylvester solve reuses:
    sep = lam_min(Zx) - lam_max(Zs) and eta = d / sep with
    d = sqrt(min block edge)."""
    d = np.sqrt(min(lam_x.size, lam_s.size))
    sep = float(lam_x[0] - lam_s[-1])
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
    columns of Y) is the current estimate of the projection. The block
    eigendecompositions and ||Zo||_2 are taken at most once per state.
    """

    ell: int
    t: np.ndarray
    r: int
    y: np.ndarray
    z0_norm: float  # spectral norm of Z + H, invariant under the rotations
    zo_norm: float | None = None  # ||Zo||_2 when already known

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

    @functools.cached_property
    def block_eigh(self):
        """``np.linalg.eigh`` of Zx and of Zs."""
        return np.linalg.eigh(self.zx), np.linalg.eigh(self.zs)

    def zo_norm2(self):
        """||Zo||_2, taken once and kept in ``zo_norm``."""
        if self.zo_norm is None:
            self.zo_norm = float(np.linalg.norm(self.zo, 2))
        return self.zo_norm


def eliminate_step(state: EliminationState) -> EliminationState:
    """One elimination sweep: Sylvester solve, skew rotation R, then
    T+ = R' T R and Y+ = Y R.

    Requires the definiteness invariants and the entry gate
    ``||Zo||_2 <= 3 / (4 eta)``; refuses with ValueError otherwise (the
    perturbation is too large for the procedure). The off-block contracts
    quadratically with the coefficient of :func:`decay_coefficient`, which is
    asserted at runtime.
    """
    (lam_x, _), (lam_s, _) = eigs = state.block_eigh
    eta, sep = _eta(lam_x, lam_s)
    if sep <= 0.0:
        raise ValueError("definiteness invariant violated: blocks are no longer separated")
    zo_norm = state.zo_norm2()
    if zo_norm > 3.0 / (4.0 * eta):
        raise ValueError(
            f"perturbation too large for elimination: ||Zo||_2 = {zo_norm:.3e} "
            f"exceeds 3/(4 eta) = {3.0 / (4.0 * eta):.3e}"
        )
    r = state.r
    w_o = sylvester_solve(state.zo, eigs)
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
    zo_new_norm = new.zo_norm2()
    bound = decay_coefficient(eta, state.z0_norm) * zo_norm**2
    if zo_new_norm > bound * (1.0 + 1e-9) + 1e-300:
        raise NumericalFailureError(
            f"off-block decay bound violated: {zo_new_norm:.3e} > {bound:.3e}",
            zo_before=zo_norm,
            zo_after=zo_new_norm,
            bound=bound,
        )
    return new


def _start(os_: OmegaStructure, ht, z0_norm, zo_norm=None) -> EliminationState:
    """The state at Z + H from the structure ``os_`` of Z and the symmetric
    H~ = Q'HQ: T = diag(lam) + H~, which is Q'(Z + H)Q up to rounding, and
    Y = Q. ``z0_norm`` is ||Z + H||_2; ``zo_norm``, ||H~_O||_2 if known."""
    state = EliminationState(
        ell=0,
        t=np.diag(os_.lam) + ht,
        r=os_.r,
        y=os_.Q.copy(),
        z0_norm=z0_norm,
        zo_norm=zo_norm,
    )
    # Eigenvalues only: a caller that runs no sweep needs no eigenvectors.
    if np.linalg.eigvalsh(state.zx)[0] <= 0.0 or np.linalg.eigvalsh(state.zs)[-1] >= 0.0:
        raise ValueError("perturbation too large: diagonal blocks of Z + H lost definiteness")
    return state


def _reference(z):
    """The multiplier structure of the reference Z from its one ``eig_sym``;
    ValueError unless Z is nonsingular and indefinite."""
    os_ = build_omega(eig_sym(z))
    if os_.r == 0 or os_.r == os_.n:
        raise ValueError("reference matrix must be indefinite (both eigenvalue signs)")
    return os_


def init_elimination(z, h) -> EliminationState:
    """Z + H rotated into the eigenbasis of the nonsingular reference Z.

    The rotation accumulator starts at the eigenvector matrix of Z, so the
    projection estimate lives in the original coordinates throughout.
    """
    z = symmetrize(z)
    h = symmetrize(h)
    os_ = _reference(z)
    return _start(os_, symmetrize(os_.rotate_in(h)), sym_norm2(z + h))


def run_elimination(z, h, max_iter=ELIMINATION_MAX_ITER):
    """Compute Pi(Z + H) by iterative elimination.

    Returns ``(V, iterations, final_off_norm)`` where ``V`` agrees with the
    eigendecomposition-based projection to well below the stopping threshold
    ``ELIMINATION_TOL * max(1, ||Z + H||_F)`` on the off-block. Quadratic
    decay keeps the iteration count tiny; exceeding ``max_iter`` raises
    NumericalFailureError with the decay history.
    """
    return _eliminate(init_elimination(z, h), max_iter)


def _eliminate(state: EliminationState, max_iter):
    """:func:`run_elimination` from its initial state."""
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


@dataclass
class EbReference:
    """A reference Z and a direction H (both symmetric), with what every
    scale t of a scan shares, formed once:

    - ``os_``, the multiplier structure of Z from its one ``eig_sym``;
    - ``ht`` = Q'HQ, the one rotation of H;
    - ``pz`` = Pi(Z);
    - ``first`` = Q(Omega o ht)Q', the first-order term at t = 1;
    - ``ho_norm`` = ||ht_O||_2, the off-block in Z's eigenbasis, and
      ``h_norm`` = ||H||_2.

    The first-order term and both norms are linear in t, so scale t reads
    them times t. ``projections`` maps each scale t projected to
    ``(Pi(Z + tH), ||Z + tH||_2)``, from one ``eig_sym`` of Z + tH.
    """

    z: np.ndarray
    h: np.ndarray
    os_: OmegaStructure
    ht: np.ndarray
    pz: np.ndarray
    first: np.ndarray
    ho_norm: float
    h_norm: float
    projections: dict = field(default_factory=dict)

    def projection(self, t):
        """(Pi(Z + tH), ||Z + tH||_2), decomposed once per scale."""
        if t not in self.projections:
            dec = eig_sym(self.z + t * self.h)
            self.projections[t] = (positive_part(dec), float(np.max(np.abs(dec.lam))))
        return self.projections[t]

    def residual(self, t):
        """||Pi(Z + tH) - Pi(Z) - t Q(Omega o H~)Q'||_2 at scale t."""
        return sym_norm2(self.projection(t)[0] - self.pz - t * self.first)

    def elimination_state(self, t):
        """The elimination state at Z + tH, from the decomposition of Z and
        the rotation of H made once, with the scale's ||Z + tH||_2."""
        return _start(self.os_, t * self.ht, self.projection(t)[1], zo_norm=t * self.ho_norm)

    def eliminate(self, t):
        """:func:`run_elimination` of (Z, tH) from :meth:`elimination_state`."""
        return _eliminate(self.elimination_state(t), ELIMINATION_MAX_ITER)

    def scan(self, scales) -> EbReport:
        """Measure the linearization residual of Pi at Z for perturbations
        t * H, t in ``scales``. Each Pi(Z + tH) is evaluated through the
        eigendecomposition path, so the measurement stays independent of the
        elimination procedure; each scale's projection is kept in
        ``projections``. All reported norms are spectral norms."""
        scales = np.asarray(list(scales), dtype=float)
        if scales.size == 0 or np.any(scales <= 0.0):
            raise ValueError("scales must be a non-empty list of positive numbers")
        lhs = np.array([self.residual(t) for t in scales])
        ho, hn = scales * self.ho_norm, scales * self.h_norm
        return EbReport(scales=scales, lhs=lhs, ho_norms=ho,
                        ratios=lhs / np.maximum(ho * hn, 1e-300),
                        classic_ratios=lhs / np.maximum(hn**2, 1e-300))


def eb_reference(z, h) -> EbReference:
    """The :class:`EbReference` of Z and H; ValueError on a singular or
    definite Z."""
    z = symmetrize(z)
    h = symmetrize(h)
    os_ = _reference(z)
    ht = symmetrize(os_.rotate_in(h))
    return EbReference(
        z=z,
        h=h,
        os_=os_,
        ht=ht,
        pz=positive_part(os_),
        first=os_.rotate_out(os_.omega * ht),
        ho_norm=float(np.linalg.norm(ht[os_.n - os_.s :, : os_.r], 2)),
        h_norm=sym_norm2(h),
    )


def linearization_residual(z, h):
    """Residual of the first-order expansion of the PSD projection at Z.

    Returns ``(lhs, ho_norm, h_norm)`` in the spectral norm: the residual
    ||Pi(Z+H) - Pi(Z) - Q(Omega o H~)Q'||_2 measured through the
    eigendecomposition path, the off-block norm ||H~_O||_2 in Z's eigenbasis,
    and ||H||_2.
    """
    ref = eb_reference(z, h)
    return ref.residual(1.0), ref.ho_norm, ref.h_norm


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
        """The columns of :meth:`to_dict`, one row per scale."""
        cols = self.to_dict()
        lines = [",".join(cols), *(",".join(map(repr, row)) for row in zip(*cols.values()))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def eb_scan(z, h, scales) -> EbReport:
    """:meth:`EbReference.scan` of (Z, H): Z decomposed, H rotated once."""
    return eb_reference(z, h).scan(scales)
