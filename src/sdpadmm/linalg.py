"""Dense symmetric linear algebra kernels.

The one packed upper-triangle order of symmetric matrices (``triangle_maps``)
and the isometric vectorization in that order (svec/smat), deterministic
spectral decomposition, the PSD split of a matrix from the eigenvectors of its
smaller sign group, projection onto the PSD cone, the spectral norm of a
symmetric matrix from its eigenvalues, the eigenvalue rank-split rule,
numerical null spaces, two-sided Sylvester solves for definite block pairs,
and exponentials of skew-symmetric matrices. Everything operates on
plain float64 ndarrays; symmetry is enforced by averaging at entry points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import NumericalFailureError


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


@functools.lru_cache(maxsize=64)
def triangle_maps(n):
    """Read-only maps of the package's one packed order, the upper triangle
    of an n x n matrix row-major (``np.triu_indices(n)``), built once per n:
    the flat positions ``upper`` of its t(n) entries, their inner-product
    ``weights`` (1 on the diagonal, 2 off it), and the entry ``mirror`` that
    each of the n^2 flat positions reads."""
    iu, ju = np.triu_indices(n)
    upper = iu * n + ju
    weights = np.where(iu == ju, 1.0, 2.0)
    mirror = np.empty(n * n, dtype=np.intp)
    mirror[upper] = mirror[ju * n + iu] = np.arange(upper.size)
    for arr in (upper, weights, mirror):
        arr.flags.writeable = False
    return upper, weights, mirror


def svec(a):
    """Isometric vectorization of a symmetric matrix, or of each matrix of a
    (..., n, n) stack: the entries in ``triangle_maps`` order, the constraint
    table's, with those off the diagonal scaled by sqrt(2), so that
    ``svec(A) @ svec(B) == <A, B>``. The trailing k x k block is the last t(k).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    upper, weights, _ = triangle_maps(n)
    return np.sqrt(weights) * a.reshape(a.shape[:-2] + (n * n,)).take(upper, axis=-1)


def svec_order(t):
    """The order n with t(n) = t; ValueError if t is not triangular."""
    n = int(round((np.sqrt(8.0 * t + 1.0) - 1.0) / 2.0))
    if svec_dim(n) != t:
        raise ValueError(f"vector length {t} is not a triangular number")
    return n


def leading_block(n, k):
    """Positions, in the packed order of order n, of the entries of the
    leading k x k block, listed in the packed order of order k: on a matrix
    that vanishes outside that block, ``svec`` read there is the svec of the
    block."""
    i, j = np.divmod(triangle_maps(k)[0], k)
    return triangle_maps(n)[2][i * n + j]


def smat(v):
    """Inverse of :func:`svec`, along the last axis."""
    v = np.asarray(v, dtype=float)
    n = svec_order(v.shape[-1])
    _, weights, mirror = triangle_maps(n)
    return (v / np.sqrt(weights)).take(mirror, axis=-1).reshape(v.shape[:-1] + (n, n))


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


@functools.lru_cache(maxsize=64)
def _dstein_blocks(n):
    """Read-only ``dstein`` block descriptors of an unsplit n x n tridiagonal
    matrix, built once per n: iblock all 1 and isplit[0] = n."""
    blocks = (np.ones(n, np.int32), np.full(n, n, np.int32))
    for arr in blocks:
        arr.flags.writeable = False
    return blocks


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
    if not np.isfinite(lam).all():
        raise NumericalFailureError("non-finite eigenvalues", n=n)
    r = int(np.count_nonzero(lam > 0.0))
    positive = r <= n - r
    k = r if positive else n - r
    if k:
        # The top r or the bottom n - r of the ascending spectrum. dstein is
        # told T is one block.
        wanted = lam[n - r :] if positive else lam[: n - r]
        v = _lapack("dstein", d, e, wanted, *_dstein_blocks(n))[0]
        # Q = diag(1, Q'), Q' from the reflectors stored below the
        # subdiagonal of c.
        v[1:] = _lapack("dormqr", "L", "N", c[1:, : n - 1], tau, v[1:], k)[0]
        v *= np.sqrt(np.abs(wanted))
        # v @ v.T runs as a symmetric rank-k update, so it is exactly symmetric.
        part = v @ v.T
    else:
        part = np.zeros((n, n))
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
    analysis code wants the full ``Q``. The split path takes an exactly
    symmetric matrix as it is: it neither symmetrizes nor checks the n^2
    entries, only the n eigenvalues.

    Raises
    ------
    ValueError
        Without ``split``, if the input has a non-finite entry.
    NumericalFailureError
        If the underlying eigen-iteration does not converge; ``details``
        carries the dimension and norm of the input, or with ``split=True``
        the LAPACK routine and its ``info``. With ``split=True``, also if an
        eigenvalue is not finite; ``details`` carries the dimension.
    """
    if split:
        return _split(np.asarray(a, dtype=float))
    a = symmetrize(a)
    require_finite(a)
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
    return positive_part(eig_sym(a))


def positive_part(dec):
    """Pi(A) = Q diag(max(lam, 0)) Q' from a decomposition ``dec`` of A (any
    object with ``Q`` and ``lam``)."""
    pos = np.clip(dec.lam, 0.0, None)
    return symmetrize((dec.Q * pos) @ dec.Q.T)


def sym_norm2(a):
    """Spectral norm of a symmetric matrix, max |lam|, from its eigenvalues
    alone; 0 for an empty matrix."""
    lam = np.linalg.eigvalsh(a)
    return float(max(lam[-1], -lam[0])) if lam.size else 0.0


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
    thr = RANK_TAU * max(1.0, float(max(lam.max(), -lam.min())) if lam.size else 1.0)
    return int(np.count_nonzero(lam > thr)), int(np.count_nonzero(lam < -thr))


def rotate_to_eigenbasis(dec: SpectralDecomp, a):
    """Q.T @ A @ Q; an (m, n, n) stack is rotated matrix by matrix."""
    return dec.Q.T @ a @ dec.Q


def null_space(mat):
    """Orthonormal columns spanning the numerical null space of ``mat``: the
    right singular vectors whose singular values do not exceed
    ``RANK_TAU * sigma_max``. A matrix with no rows has the whole domain as null
    space.

    Returns ``(basis, [below, above])``, the margin read off the same SVD
    relative to sigma_max: ``below`` is the largest singular value at or
    under the cut (0.0 when only the columns past the rows span the null
    space, None when it is {0}), ``above`` the smallest over it (None if
    none)."""
    mat = np.asarray(mat, dtype=float)
    if mat.size:
        _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    else:
        sv, vt = np.zeros(0), np.eye(mat.shape[1])
    rank = int(np.sum(sv > RANK_TAU * sv[0])) if sv.size and sv[0] > 0.0 else 0
    rel = sv / sv[0] if rank else np.zeros_like(sv)
    below = float(rel[rank]) if rank < sv.size else (0.0 if rank < vt.shape[0] else None)
    return vt[rank:].T, [below, float(rel[rank - 1]) if rank else None]


def sylvester_solve(zx, zs, zo, eigs=None):
    """Solve ``W @ Zx + (-Zs) @ W = Zo`` for W.

    Parameters
    ----------
    zx : (r, r) symmetric positive definite array
    zs : (s, s) symmetric negative definite array
    zo : (s, r) array, right-hand side
    eigs : ``(np.linalg.eigh(zx), np.linalg.eigh(zs))``, computed here when
        not given

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
    zo = np.asarray(zo, dtype=float)
    if eigs is None:
        eigs = (np.linalg.eigh(symmetrize(zx)), np.linalg.eigh(symmetrize(zs)))
    (lam_x, vx), (lam_s, vs) = eigs
    r = lam_x.shape[0]
    s = lam_s.shape[0]
    if zo.shape != (s, r):
        raise ValueError(f"off-block has shape {zo.shape}, expected {(s, r)}")
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
