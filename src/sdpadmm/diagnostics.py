"""Post-hoc and in-loop run analysis.

Strict-complementarity and nondegeneracy classification of a limit point,
projections measuring how far iterates sit outside the minimal faces of the
PSD cone, rank-identification detection on traces, log-linear rate fitting,
and the additive terms of the regularized backward-error bound for the
scaled KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SQRT2,
    SpectralDecomp,
    eig_sym,
    null_space,
    rotate_to_eigenbasis,
    split_counts,
    svec_stack,
    symmetrize,
)
from .problem import ConstraintKernel, SdpProblem, project_null, project_range

RATE_WINDOW_FRAC = 0.3
RATE_MIN_WINDOW = 10


@dataclass
class ComplementarityReport:
    """Numerical ranks of the limit pair and the strict-complementarity verdict.

    r and s are the counted positive / negative eigenvalues of Zstar at
    ``linalg.RANK_TAU``; sc_holds iff r + s = n, equivalently Zstar is numerically
    nonsingular.
    """

    n: int
    r: int
    s: int
    lam_min_abs_z: float
    eigengap: float
    sc_holds: bool


def sc_check(zstar) -> ComplementarityReport:
    """Classify strict complementarity from the spectrum of Zstar."""
    dec = eig_sym(zstar)
    lam = dec.lam
    n = lam.shape[0]
    r, s = split_counts(lam)
    pos_edge = float(lam[r - 1]) if r > 0 else np.inf
    neg_edge = float(-lam[n - s]) if s > 0 else np.inf
    return ComplementarityReport(
        n=n,
        r=r,
        s=s,
        lam_min_abs_z=float(np.min(np.abs(lam))),
        eigengap=float(min(pos_edge, neg_edge)),
        sc_holds=(r + s == n),
    )


@dataclass
class NondegeneracyReport:
    """Primal and dual nondegeneracy read off the rotated constraints.

    With Q the eigenbasis of the limit, r its positive and s its negative
    count, and A~_i = Q' A_i Q (Alizadeh, Haeberly and Overton, Math. Prog.
    77, 1997):

    - ``primal_witness_dim`` is the dimension of {y : A~(y) vanishes on the
      leading r rows}, i.e. of range(A*) inside the normal space of Xstar;
    - ``dual_witness_dim`` is the dimension of {U in S^(n-s) : <A~_i[:n-s,
      :n-s], U> = 0 for all i}, i.e. of null(A) inside the normal space of
      Sstar.

    Each side is nondegenerate iff its witness space is {0}.
    """

    primal_witness_dim: int
    dual_witness_dim: int
    primal_nd: bool
    dual_nd: bool


def primal_witness(at, r):
    """Basis (m, d) of the null space of y -> (A~(y)[:r, :r], sqrt2 A~(y)[:r, r:])
    for the rotated stack ``at`` = (A~_i); the map is the isometric image of
    A*(y) outside the trailing block."""
    m, n, _ = at.shape
    off = SQRT2 * at[:, :r, r:].reshape(m, r * (n - r)).T
    return null_space(np.vstack([svec_stack(at[:, :r, :r]), off]))


def dual_witness(at, k):
    """Basis (t(k), d), in svec coordinates, of the U in S^k with
    <A~_i[:k, :k], U> = 0 for every i."""
    return null_space(svec_stack(at[:, :k, :k]).T)


def nd_check(p: SdpProblem, dec: SpectralDecomp) -> NondegeneracyReport:
    """Primal and dual nondegeneracy at the split of ``dec``.

    ``dec`` is the eigendecomposition of the limit Zstar; its positive block
    carries the primal rank r and its negative block the dual rank s. The
    split and both witness spaces use ``linalg.RANK_TAU``, as ``fix_basis``
    does, so each witness dimension is that family's share of dim Fix(M).
    """
    if dec.n != p.n:
        raise ValueError(f"decomposition dimension {dec.n} != problem dimension {p.n}")
    r, s = split_counts(dec.lam)
    at = rotate_to_eigenbasis(dec, p.A)
    primal = primal_witness(at, r).shape[1]
    dual = dual_witness(at, p.n - s).shape[1]
    return NondegeneracyReport(
        primal_witness_dim=primal,
        dual_witness_dim=dual,
        primal_nd=(primal == 0),
        dual_nd=(dual == 0),
    )


# ---------------------------------------------------------------------------
# Minimal-face projections.
# ---------------------------------------------------------------------------


def tangent_s_part(dec: SpectralDecomp, mat):
    """Component of ``mat`` outside the minimal face of the primal limit.

    In the eigenbasis of Zstar, zeroes the leading r x r block (r = counted
    positive eigenvalues) and keeps the rest. When the split is singular the
    near-zero eigenvalues are lumped with the negative block.
    """
    r, _ = split_counts(dec.lam)
    t = rotate_to_eigenbasis(dec, np.asarray(mat, dtype=float)).copy()
    t[:r, :r] = 0.0
    return dec.Q @ t @ dec.Q.T


def tangent_x_part(dec: SpectralDecomp, mat):
    """Component of ``mat`` outside the minimal face of the (scaled) dual limit.

    Zeroes the trailing s x s block (s = counted negative eigenvalues); near-zero
    eigenvalues are lumped with the positive block.
    """
    _, s = split_counts(dec.lam)
    n = dec.n
    t = rotate_to_eigenbasis(dec, np.asarray(mat, dtype=float)).copy()
    t[n - s :, n - s :] = 0.0
    return dec.Q @ t @ dec.Q.T


def offblock_norm(dec: SpectralDecomp, h):
    """Frobenius norm of the lower-left off-diagonal block of H in the
    eigenbasis of the reference (rows below the positive block, columns in it)."""
    r, _ = split_counts(dec.lam)
    t = rotate_to_eigenbasis(dec, np.asarray(h, dtype=float))
    return float(np.linalg.norm(t[r:, :r]))


def face_projections(dec: SpectralDecomp, x, s_mat, sigma):
    """Norms of the minimal-face projections at the split of ``dec``.

    Returns ``(||outside primal face of X||_F, ||outside dual face of
    sigma*S||_F, ||H_O||_F)`` where H = X - sigma*S - Zstar and H_O is its
    off-diagonal block in the eigenbasis of Zstar.
    """
    x = np.asarray(x, dtype=float)
    sig_s = sigma * np.asarray(s_mat, dtype=float)
    face_x = float(np.linalg.norm(tangent_s_part(dec, x)))
    face_s = float(np.linalg.norm(tangent_x_part(dec, sig_s)))
    h = x - sig_s - dec.matrix()
    return face_x, face_s, offblock_norm(dec, h)


# ---------------------------------------------------------------------------
# Trace analysis.
# ---------------------------------------------------------------------------


def rank_trace(records, final: ComplementarityReport):
    """First iteration index from which both iterate ranks stay at the
    converged values (r, s) of ``final``; None if they never stabilize."""
    k_id = None
    for rec in reversed(list(records)):
        if rec.rank_x == final.r and rec.rank_s == final.s:
            k_id = rec.k
        else:
            break
    return k_id


@dataclass
class RateFit:
    """Least-squares geometric rate of a positive sequence tail."""

    window: tuple
    rho_hat: float
    r2: float
    sequence_name: str = ""


def rate_fit(values, window, ks=None, name="") -> RateFit:
    """Fit log(values) over the trailing ``window`` points.

    rho_hat = exp(slope) is the per-step ratio; when ``ks`` gives the
    iteration index of each value the slope is taken per iteration, which
    makes fits of strided traces comparable. An all-equal tail fits exactly
    with rho_hat = 1.
    """
    values = np.asarray(values, dtype=float)
    if window < RATE_MIN_WINDOW:
        raise ValueError(f"window must be at least {RATE_MIN_WINDOW}, got {window}")
    if values.shape[0] < window:
        raise ValueError(f"sequence has {values.shape[0]} points, window needs {window}")
    tail = values[-window:]
    if np.any(tail <= 0.0) or not np.all(np.isfinite(tail)):
        raise ValueError("rate fit needs a positive finite tail")
    if ks is None:
        x = np.arange(window, dtype=float)
        lo, hi = values.shape[0] - window, values.shape[0] - 1
    else:
        ks = np.asarray(ks, dtype=float)
        if ks.shape != values.shape:
            raise ValueError("ks must align with values")
        x = ks[-window:]
        lo, hi = int(ks[-window]), int(ks[-1])
    y = np.log(tail)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return RateFit(window=(lo, hi), rho_hat=float(np.exp(slope)), r2=r2, sequence_name=name)


def trailing_window(total, k_id_index=0):
    """Window length for a tail fit: ``RATE_WINDOW_FRAC`` of the points past
    rank identification, at least ``RATE_MIN_WINDOW``, capped by what is
    available."""
    usable = total - k_id_index
    return max(RATE_MIN_WINDOW, min(usable, int(round(RATE_WINDOW_FRAC * usable))))


# ---------------------------------------------------------------------------
# Regularized backward-error terms.
# ---------------------------------------------------------------------------


def backward_error_terms(
    p: SdpProblem, kernel: ConstraintKernel, dec: SpectralDecomp, x, s_mat, sigma
):
    """Additive terms bounding the distance of (X, sigma S) to optimality.

    Returns an ordered dict of the seven right-hand-side terms: range/null
    feasibility residuals, the scaled duality-gap term, the negative-eigenvalue
    defects of X and sigma*S, and the two minimal-face projections. All vanish
    at an optimal pair.
    """
    x = symmetrize(x)
    sig_s = sigma * symmetrize(s_mat)
    x_tilde = kernel.at_pinv_b
    gap = abs(
        float(np.sum(x * (sigma * p.C)))
        + float(np.sum(x_tilde * sig_s))
        - float(np.sum(x_tilde * (sigma * p.C)))
    )
    lam_min_x = float(np.linalg.eigvalsh(x)[0])
    lam_min_s = float(np.linalg.eigvalsh(sig_s)[0])
    face_x, face_s, _ = face_projections(dec, x, s_mat, sigma)
    return {
        "primal_range_residual": float(np.linalg.norm(project_range(kernel, x - x_tilde))),
        "dual_null_residual": float(np.linalg.norm(project_null(kernel, sig_s - sigma * p.C))),
        "gap": gap,
        "x_negative_part": max(0.0, -lam_min_x),
        "s_negative_part": max(0.0, -lam_min_s),
        "x_outside_face": face_x,
        "s_outside_face": face_s,
    }
