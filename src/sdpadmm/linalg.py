"""Dense symmetric linear algebra kernels.

Symmetric vectorization (svec/smat), deterministic spectral decomposition,
the PSD split of a matrix from the eigenvectors of its smaller sign group,
projection onto the PSD cone, the eigenvalue rank-split rule, numerical null
spaces, two-sided Sylvester solves for definite block pairs, and exponentials
of skew-symmetric matrices. Everything operates on plain float64 ndarrays;
symmetry is enforced by averaging at entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import NumericalFailureError

SQRT2 = float(np.sqrt(2.0))


def symmetrize(a):
    """Return the symmetric part (A + A.T) / 2 as a float64 array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def require_finite(a, what="matrix"):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def svec_dim(n):
    return n * (n + 1) // 2


def svec(a):
    """Isometric vectorization of a symmetric matrix.

    Off-diagonal entries are scaled by sqrt(2) so that
    ``svec(A) @ svec(B) == <A, B>`` for symmetric A, B. Entries are ordered
    row-major over the lower triangle: (0,0), (1,0), (1,1), (2,0), ...
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    rows, cols = np.tril_indices(n)
    v = a[rows, cols].copy()
    v[rows != cols] *= SQRT2
    return v


def smat(v):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    t = v.shape[0]
    n = int(round((np.sqrt(8.0 * t + 1.0) - 1.0) / 2.0))
    if svec_dim(n) != t:
        raise ValueError(f"vector length {t} is not a triangular number")
    rows, cols = np.tril_indices(n)
    w = v.copy()
    w[rows != cols] /= SQRT2
    a = np.zeros((n, n))
    a[rows, cols] = w
    a[cols, rows] = w
    return a


def svec_stack(mats):
    """svec applied along the first axis of an (m, n, n) stack; returns (t(n), m)."""
    mats = np.asarray(mats, dtype=float)
    m, n, _ = mats.shape
    rows, cols = np.tril_indices(n)
    out = mats[:, rows, cols].T.copy()
    out[rows != cols, :] *= SQRT2
    return out


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition A = Q diag(lam) Q.T with lam sorted descending.

    The decomposition is deterministic: eigenvector signs are fixed so the
    largest-magnitude component of each column is positive.
    """

    Q: np.ndarray
    lam: np.ndarray

    @property
    def n(self):
        return self.lam.shape[0]


@dataclass(frozen=True)
class SpectralSplit:
    """All eigenvalues of Z, sorted descending, with Pi(Z) and Pi(-Z)."""

    lam: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def _lapack(routine, *args, **kwargs):
    """Call a scipy LAPACK wrapper; raise NumericalFailureError on info != 0."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise NumericalFailureError(
            f"LAPACK {routine} failed with info = {info}", routine=routine, info=int(info)
        )
    return out


def _split(a):
    # Pi(Z) and Pi(-Z) from the k = min(r, n - r) eigenvectors of the smaller
    # sign group: tridiagonal reduction T = Q'ZQ, every eigenvalue of T by
    # dsterf, the k wanted eigenvectors of T by inverse iteration (dstein) on
    # those eigenvalues, back-transformed by the reflectors of the reduction.
    # The other part is then one subtraction.
    n = a.shape[0]
    c, d, e, tau = _lapack("dsytrd", a, lower=1)
    # dsterf rejects the empty off-diagonal of a 1 x 1 matrix.
    lam = d.copy() if n == 1 else _lapack("dsterf", d, e)[0]
    r = int(np.count_nonzero(lam > 0.0))
    positive = r <= n - r
    k = r if positive else n - r
    part = np.zeros((n, n))
    if k:
        # The top r or the bottom n - r of the ascending spectrum. dstein is
        # told T is one block (iblock all 1, isplit[0] = n).
        wanted = lam[n - r :] if positive else lam[: n - r]
        v = _lapack("dstein", d, e, wanted, np.ones(n, np.int32), np.full(n, n, np.int32))[0]
        # Q = diag(1, Q'), Q' from the reflectors stored below the
        # subdiagonal of c.
        v[1:] = _lapack("dormqr", "L", "N", c[1:, : n - 1], tau, v[1:], k)[0]
        v *= np.sqrt(np.abs(wanted))
        # v @ v.T runs as a symmetric rank-k update, so it is exactly symmetric.
        part = v @ v.T
    lam = lam[::-1].copy()
    if positive:
        return SpectralSplit(lam=lam, plus=part, minus=part - a)
    return SpectralSplit(lam=lam, plus=a + part, minus=part)


def eig_sym(a, split=False):
    """Deterministic spectral decomposition of a symmetric matrix.

    With ``split=True`` return a :class:`SpectralSplit` instead: every
    eigenvalue, but eigenvectors only for the smaller of the positive and the
    nonpositive groups. That group gives one of Pi(Z) and Pi(-Z), and
    Pi(Z) - Pi(-Z) = Z the other. The ADMM loop wants only the split;
    analysis code wants the full ``Q``.

    Raises
    ------
    NumericalFailureError
        If the underlying eigen-iteration does not converge; ``details``
        carries the dimension and norm of the input, or with ``split=True``
        the LAPACK routine and its ``info``.
    """
    a = symmetrize(a)
    require_finite(a)
    if split:
        return _split(a)
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"symmetric eigendecomposition failed: {exc}",
            n=a.shape[0],
            fro_norm=float(np.linalg.norm(a)),
        ) from exc
    lam = lam[::-1].copy()
    q = q[:, ::-1]
    # Fix signs: largest-magnitude entry of each eigenvector made positive.
    lead = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[lead, np.arange(q.shape[1])])
    signs[signs == 0.0] = 1.0
    return SpectralDecomp(Q=q * signs, lam=lam)


def psd_project(a):
    """Orthogonal projection onto the PSD cone: zero out negative eigenvalues."""
    dec = eig_sym(a)
    pos = np.clip(dec.lam, 0.0, None)
    return symmetrize((dec.Q * pos) @ dec.Q.T)


def psd_split(dec: SpectralDecomp):
    """Return (Pi(Z), Pi(-Z)) from one decomposition of Z.

    Each part is formed from its own eigenvector columns: the leading r
    with positive eigenvalues, and the rest. The column sets are orthogonal,
    so the inner product of the parts vanishes up to rounding.
    """
    r = int(np.count_nonzero(dec.lam > 0.0))
    q_plus, q_minus = dec.Q[:, :r], dec.Q[:, r:]
    plus = symmetrize((q_plus * dec.lam[:r]) @ q_plus.T)
    minus = symmetrize((q_minus * -dec.lam[r:]) @ q_minus.T)
    return plus, minus


# Relative threshold of every eigenvalue split and witness null space.
RANK_TAU = 1e-8
SYLVESTER_COND_LIMIT = 1e14


def split_counts(lam):
    """Numerical rank split (r, s) of a spectrum: the counts of eigenvalues
    above ``RANK_TAU * max(1, max|lam|)`` and below its negative."""
    thr = RANK_TAU * max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    return int(np.sum(lam > thr)), int(np.sum(lam < -thr))


def rotate_to_eigenbasis(dec: SpectralDecomp, a):
    """Q.T @ A @ Q; an (m, n, n) stack is rotated matrix by matrix."""
    return dec.Q.T @ a @ dec.Q


def null_space(mat):
    """Orthonormal columns spanning the numerical null space of ``mat``: the
    right singular vectors whose singular values do not exceed
    ``RANK_TAU * sigma_max``. A matrix with no rows has the whole domain as null
    space."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.eye(mat.shape[1])
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(sv > RANK_TAU * sv[0])) if sv[0] > 0.0 else 0
    return vt[rank:].T


def sylvester_solve(zx, zs, zo):
    """Solve ``W @ Zx + (-Zs) @ W = Zo`` for W.

    Parameters
    ----------
    zx : (r, r) symmetric positive definite array
    zs : (s, s) symmetric negative definite array
    zo : (s, r) array, right-hand side

    With Zx = Vx diag(lam_x) Vx' and Zs = Vs diag(lam_s) Vs', the equation
    decouples entrywise in the two eigenbases:
    W = Vs ((Vs' Zo Vx) / (lam_x[j] - lam_s[i])) Vx'. The definiteness gap
    lam_min(Zx) - lam_max(Zs) > 0 bounds every divisor away from zero, so the
    solution is unique.

    Raises
    ------
    ValueError
        If a definiteness precondition fails.
    NumericalFailureError
        If the Kronecker-sum operator W -> W Zx - Zs W is estimated
        worse-conditioned than ``SYLVESTER_COND_LIMIT``.
    """
    zx = symmetrize(zx)
    zs = symmetrize(zs)
    zo = np.asarray(zo, dtype=float)
    r = zx.shape[0]
    s = zs.shape[0]
    if zo.shape != (s, r):
        raise ValueError(f"off-block has shape {zo.shape}, expected {(s, r)}")
    lam_x, vx = np.linalg.eigh(zx)
    lam_s, vs = np.linalg.eigh(zs)
    if lam_x[0] <= 0.0:
        raise ValueError(f"first block not positive definite (lam_min = {lam_x[0]:.3e})")
    if lam_s[-1] >= 0.0:
        raise ValueError(f"second block not negative definite (lam_max = {lam_s[-1]:.3e})")
    sep = lam_x[0] - lam_s[-1]
    spread = lam_x[-1] - lam_s[0]
    if spread / sep > SYLVESTER_COND_LIMIT:
        raise NumericalFailureError(
            f"Kronecker-sum system too ill-conditioned (estimate {spread / sep:.3e})",
            cond_estimate=float(spread / sep),
        )
    wt = (vs.T @ zo @ vx) / (lam_x[None, :] - lam_s[:, None])
    return vs @ wt @ vx.T


def skew_exp(w):
    """Matrix exponential of a skew-symmetric matrix; the result is orthogonal.

    Raises ValueError if the input is not skew-symmetric to within
    1e-12 * max(1, ||W||_F).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    defect = np.linalg.norm(w + w.T)
    if defect > 1e-12 * max(1.0, np.linalg.norm(w)):
        raise ValueError(f"matrix is not skew-symmetric (||W + W.T||_F = {defect:.3e})")
    return scipy.linalg.expm(w)
