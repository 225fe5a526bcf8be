"""Post-hoc and in-loop run analysis.

Strict-complementarity and nondegeneracy classification of a limit point,
projections measuring how far iterates sit outside the minimal faces of the
PSD cone, rank-identification detection on traces, log-linear rate fitting,
and the additive terms of the regularized backward-error bound for the
scaled KKT system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SpectralDecomp,
    eig_sym,
    leading_block,
    null_space,
    split_counts,
    svec,
    svec_dim,
    svec_order,
    symmetrize,
)
from .problem import (
    ConstraintKernel, SdpProblem, apply_Bt, build_kernel, project_null, project_range,
)

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
    """Classify strict complementarity from the spectrum of Zstar, given as a
    matrix or as its ``eig_sym`` decomposition (then not computed again)."""
    lam = (zstar if isinstance(zstar, SpectralDecomp) else eig_sym(zstar)).lam
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
    """Primal and dual nondegeneracy read off the rotated basis of range(A*).

    With Q the eigenbasis of the limit, r its positive and s its negative
    count, and B~_i = Q' B_i Q for the orthonormal basis B_i of range(A*)
    (Alizadeh, Haeberly and Overton, Math. Prog. 77, 1997):

    - ``primal_witness_dim`` is the dimension of {u : B~*(u) vanishes on the
      leading r rows}, i.e. of range(A*) inside the normal space of Xstar;
    - ``dual_witness_dim`` is the dimension of {U in S^(n-s) : <B~_i[:n-s,
      :n-s], U> = 0 for all i}, i.e. of null(A) inside the normal space of
      Sstar.

    Each side is nondegenerate iff its witness space is {0}: a property of
    range(A*), not of the constraints that span it. ``primal_margin`` and
    ``dual_margin`` are the ``[below, above]`` singular values of each
    witness map around the ``RANK_TAU`` cut, relative to its largest
    (``linalg.null_space``): how far the verdict is from flipping.
    """

    primal_witness_dim: int
    dual_witness_dim: int
    primal_nd: bool
    dual_nd: bool
    primal_margin: list
    dual_margin: list


@dataclass
class EigenFrame:
    """range(A*) in the eigenbasis Q of a reference, formed once per
    reference, in the svec coordinates v = svec(Q'HQ) of S^n:

    - ``bt`` (m, t(n)), row i svec(Q'B_iQ) for the orthonormal basis B of
      the kernel, so its rows are orthonormal: B(H) = bt @ v, and the range
      projector P is v -> bt'(bt v). Its first t(n) - t(n - r) columns give
      the primal witness and its leading-block columns the dual one;
    - ``applications``: how many times each estimate run on the frame
      applied its ``linearization.tail_operator``, by estimate name;
    - ``witnesses``: the witness null spaces taken so far with their
      margins, by kind and split, so that ``nd_check`` and ``fix_basis``
      share them.
    """

    bt: np.ndarray
    applications: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def primal_witness(self, r):
        """:func:`primal_witness` of ``bt``, taken once per r."""
        if ("primal", r) not in self.witnesses:
            self.witnesses["primal", r] = primal_witness(self.bt, r)
        return self.witnesses["primal", r]

    def dual_witness(self, k):
        """:func:`dual_witness` of ``bt``, taken once per k."""
        if ("dual", k) not in self.witnesses:
            self.witnesses["dual", k] = dual_witness(self.bt, k)
        return self.witnesses["dual", k]


def eigen_frame(kernel: ConstraintKernel, q) -> EigenFrame:
    """The :class:`EigenFrame` of range(A*) in the basis Q: the (m, n, n)
    stack of the basis matrices B_i of ``kernel``, rotated once."""
    return EigenFrame(bt=svec(q.T @ apply_Bt(kernel, np.eye(kernel.problem.m)) @ q))


def primal_witness(table, r):
    """Basis (m, d) of the null space of u -> the first t(n) - t(n - r)
    entries of u' table, for an (m, t(n)) table of rotated matrices: the u
    whose combination of the rows vanishes outside the trailing block. For
    ``bt``, the coordinates of range(A*) in the normal space of Xstar. Paired
    with its margin, as ``linalg.null_space`` returns."""
    n = svec_order(table.shape[1])
    return null_space(table[:, : svec_dim(n) - svec_dim(n - r)].T)


def dual_witness(table, k):
    """Basis (t(k), d), in svec coordinates, of the U in S^k orthogonal to
    the leading k x k block of every row of the (m, t(n)) ``table``. Paired
    with its margin, as ``linalg.null_space`` returns."""
    return null_space(table[:, leading_block(svec_order(table.shape[1]), k)])


def nd_check(
    p: SdpProblem, dec: SpectralDecomp, frame: EigenFrame | None = None
) -> NondegeneracyReport:
    """Primal and dual nondegeneracy at the split of ``dec``.

    ``dec`` is the eigendecomposition of the limit Zstar; its positive block
    carries the primal rank r and its negative block the dual rank s. The
    split and both witness spaces use ``linalg.RANK_TAU``, as ``fix_basis``
    does, so each witness dimension is that family's share of dim Fix(M).
    The witnesses are those of ``frame``, the frame of ``dec.Q``, made here
    from ``build_kernel(p)`` when not given.
    """
    if dec.n != p.n:
        raise ValueError(f"decomposition dimension {dec.n} != problem dimension {p.n}")
    if frame is None:
        frame = eigen_frame(build_kernel(p), dec.Q)
    r, s = split_counts(dec.lam)
    witnesses = frame.primal_witness(r), frame.dual_witness(p.n - s)
    (primal, primal_margin), (dual, dual_margin) = ((w.shape[1], m) for w, m in witnesses)
    return NondegeneracyReport(
        primal_witness_dim=primal,
        dual_witness_dim=dual,
        primal_nd=(primal == 0),
        dual_nd=(dual == 0),
        primal_margin=primal_margin,
        dual_margin=dual_margin,
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
    t = dec.Q.T @ np.asarray(mat, dtype=float) @ dec.Q
    t[:r, :r] = 0.0
    return dec.Q @ t @ dec.Q.T


def offblock_norm(dec: SpectralDecomp, h):
    """Frobenius norm of the lower-left off-diagonal block of H in the
    eigenbasis of the reference (rows below the positive block, columns in it)."""
    r, _ = split_counts(dec.lam)
    t = dec.Q.T @ np.asarray(h, dtype=float) @ dec.Q
    return float(np.linalg.norm(t[r:, :r]))


def face_projections(dec: SpectralDecomp, x, s_mat, sigma):
    """Norms of the minimal-face projections at the split of ``dec``.

    Returns ``(||outside primal face of X||_F, ||outside dual face of
    sigma*S||_F, ||H_O||_F)`` where H = X - sigma*S - Zstar and H_O is its
    off-diagonal block in the eigenbasis of Zstar. Each matrix is rotated
    into that basis once: the Frobenius norm is rotation invariant, and
    Q' Zstar Q = diag(lam) has no off-block, so H_O = (Q'XQ - Q' sigma S Q)[r:, :r].
    The primal face zeroes the leading r x r block, the dual face the trailing
    s x s block; near-zero eigenvalues are lumped with the other side.
    """
    return face_norms(dec)(np.asarray(x, dtype=float), sigma * np.asarray(s_mat, dtype=float))


def face_norms(dec: SpectralDecomp):
    """:func:`face_projections` at ``dec`` as a function of (X, sigma*S),
    with the split of ``dec`` counted once: each call is two rotations and
    three norms sqrt(v.v), which is what ``np.linalg.norm`` computes."""
    r, s = split_counts(dec.lam)
    k = dec.n - s
    q = dec.Q

    def norms(x, sig_s):
        # Q'XQ as ``tangent_s_part`` and ``offblock_norm`` form it, so the
        # norms are the same bits.
        tx = q.T @ x @ q
        ts = q.T @ sig_s @ q
        ho = _fro(tx[r:, :r] - ts[r:, :r])
        tx[:r, :r] = 0.0
        ts[k:, k:] = 0.0
        return _fro(tx), _fro(ts), ho

    return norms


def _fro(a):
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


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


def rate_fit(values, window, ks, name="") -> RateFit:
    """Fit log(values) against the iteration indices ``ks`` of the values
    over the trailing ``window`` points.

    rho_hat = exp(slope) is the ratio per iteration, so fits of strided
    traces are comparable, and ``RateFit.window`` is the first and last
    iteration fitted. An all-equal tail fits exactly with rho_hat = 1.
    """
    values = np.asarray(values, dtype=float)
    if window < RATE_MIN_WINDOW:
        raise ValueError(f"window must be at least {RATE_MIN_WINDOW}, got {window}")
    if values.shape[0] < window:
        raise ValueError(f"sequence has {values.shape[0]} points, window needs {window}")
    tail = values[-window:]
    if np.any(tail <= 0.0) or not np.all(np.isfinite(tail)):
        raise ValueError("rate fit needs a positive finite tail")
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


def trailing_window(total, k_id_index):
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
