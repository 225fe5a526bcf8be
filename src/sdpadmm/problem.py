"""Standard-form SDP problems.

A problem is min <C, X> s.t. <A_i, X> = b_i (i = 1..m), X PSD, together with
its dual max b'y s.t. A*(y) + S = C, S PSD. This module holds the problem
container, the constraint operator A and its adjoint, the range-space
projector built from one QR factorization of the constraints, sparse SDPA
file I/O, and instance generators that plant a known optimal certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SdpaFormatError, UnsupportedBlockError, require_integer, require_number
from .linalg import require_finite, svec_dim, symmetrize

_INDEPENDENCE_RTOL = 1e-10


def _triangle_maps(n):
    """Index maps of the packed upper triangle of an n x n matrix, in
    ``np.triu_indices(n)`` order: the flat positions of the t(n) entries,
    their inner-product weights (1 on the diagonal, 2 off it), and for each
    of the n^2 flat positions the triangle entry it mirrors."""
    iu, ju = np.triu_indices(n)
    upper = iu * n + ju
    weights = np.where(iu == ju, 1.0, 2.0)
    mirror = np.empty(n * n, dtype=np.intp)
    mirror[upper] = np.arange(upper.size)
    mirror[ju * n + iu] = np.arange(upper.size)
    return upper, weights, mirror


def _triangle_position(i, j, n):
    """Position of entry (i, j), i <= j, in the packed upper triangle."""
    return i * n - i * (i - 1) // 2 + j - i


class SdpProblem:
    """Coefficients of a standard-form SDP.

    Attributes
    ----------
    C : (n, n) symmetric cost matrix
    table : (m, t(n)) constraint table; row i holds the upper triangle of
        A_i in ``np.triu_indices(n)`` order
    b : (m,) right-hand side
    R : (m, m) upper-triangular factor (Fortran order) with A A* = R'R,
        from one Householder QR of the weighted table

    ``SdpProblem(C, A, b)`` takes an (m, n, n) stack and keeps only the
    table of its symmetric part; :meth:`from_table` takes the table itself.
    Either way all values must be finite and the A_i linearly independent,
    so that A A* is invertible. ``A`` mirrors the table back to the
    (m, n, n) stack on demand, for analysis code.
    """

    def __init__(self, C, A, b):
        a = np.asarray(A, dtype=float)
        if a.ndim == 2:
            a = a[None, :, :]
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"constraint stack has shape {a.shape}, expected (m, n, n)")
        iu, ju = np.triu_indices(a.shape[1])
        self._set(C, 0.5 * (a[:, iu, ju] + a[:, ju, iu]), b)

    @classmethod
    def from_table(cls, C, table, b):
        """Problem whose constraints are given as an (m, t(n)) table."""
        p = cls.__new__(cls)
        p._set(C, np.asarray(table, dtype=float), b)
        return p

    def _set(self, C, table, b):
        self.C = symmetrize(C)
        n = self.C.shape[0]
        if table.ndim != 2 or table.shape[1] != svec_dim(n):
            raise ValueError("constraint and cost dimensions disagree")
        self.table = np.ascontiguousarray(table)
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.shape != (self.m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.m},)")
        require_finite(self.C, "C")
        require_finite(self.table, "A")
        require_finite(self.b, "b")
        if self.m > svec_dim(n):
            raise ValueError(f"m = {self.m} exceeds dim S^n = {svec_dim(n)}")
        self._upper, self._weights, self._mirror = _triangle_maps(n)
        # R has the singular values of the weighted table, so it decides
        # independence; forming A A* would square its condition number.
        weighted = (self.table * np.sqrt(self._weights)).T
        self.R = np.asfortranarray(np.linalg.qr(weighted, mode="r"))
        if self.m > 0:
            sv = np.linalg.svd(self.R, compute_uv=False)
            rank = int(np.sum(sv > _INDEPENDENCE_RTOL * sv[0]))
            if rank < self.m:
                raise ValueError(
                    f"constraint matrices are linearly dependent (rank {rank} < m = {self.m})"
                )

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def m(self):
        return self.table.shape[0]

    @property
    def A(self):
        """(m, n, n) stack of the constraint matrices, built from the table."""
        return self.table.take(self._mirror, axis=1).reshape(self.m, self.n, self.n)


def _forward(p: SdpProblem, rows, x):
    # rows @ (weighted upper triangle of X): <row_i, X> for every row.
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n, p.n):
        raise ValueError(f"X has shape {x.shape}, expected ({p.n}, {p.n})")
    return rows @ (p._weights * x.take(p._upper))


def _adjoint(p: SdpProblem, rows, y):
    # sum_i y_i row_i as full matrices; a (k, m) stack of coefficients
    # reads ``rows`` once, in one gemm, and mirrors in one ``take``.
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != p.m:
        raise ValueError(f"y has shape {y.shape}, expected ({p.m},) or (k, {p.m})")
    return (y @ rows).take(p._mirror, axis=-1).reshape(y.shape[:-1] + (p.n, p.n))


def apply_A(p: SdpProblem, x):
    """A X = (<A_1, X>, ..., <A_m, X>) for symmetric X: one gemv on the
    table, against the weighted upper triangle of X."""
    return _forward(p, p.table, x)


def apply_At(p: SdpProblem, y):
    """Adjoint A* y = sum_i y_i A_i.

    A (k, m) stack of multipliers gives the (k, n, n) stack of adjoints in
    one gemm, reading the table once, and one mirroring ``take``.
    """
    return _adjoint(p, p.table, y)


@dataclass
class ConstraintKernel:
    """Precomputed machinery for the range projector P = A*(AA*)^-1 A.

    With AA* = R'R (``problem.R``), the rows of B = R^-T A are an
    orthonormal basis of range(A*) in the trace inner product, so
    P(H) = B*(B(H)). R^-T maps constraint values A(H) to the coordinates
    B(H) of P(H) in this basis (:func:`basis_coords`).

    Attributes
    ----------
    basis : (m, t(n)) table of B, stored like the constraint table
    b_hat : (m,) coordinates R^-T b, so that b'y = b_hat'(R y)
    at_pinv_b : (n, n) particular primal-feasible point A*(AA*)^-1 b
    """

    problem: SdpProblem
    basis: np.ndarray
    b_hat: np.ndarray
    at_pinv_b: np.ndarray


def build_kernel(p: SdpProblem) -> ConstraintKernel:
    """Form the basis B = R^-T A with one right-side ``dtrsm`` on the
    transposed table, which is Fortran-ordered as it stands."""
    basis = scipy.linalg.blas.dtrsm(1.0, p.R, p.table.T, side=1).T
    b_hat = _triangular_solve(p.R, p.b, trans=1)
    return ConstraintKernel(p, basis, b_hat, at_pinv_b=_adjoint(p, basis, b_hat))


def _triangular_solve(r, v, trans):
    # R^-1 v (trans=0) or R^-T v (trans=1) by LAPACK ``dtrtrs``.
    if r.shape[0] == 0:
        return np.zeros(np.shape(v))
    x, info = scipy.linalg.lapack.dtrtrs(r, v, trans=trans)
    if info != 0:
        raise ValueError(f"dtrtrs rejected the triangular solve (info {info})")
    return x


def basis_coords(k: ConstraintKernel, v):
    """R^-T v, for a vector or for the columns of an (m, k) array. For
    v = A(H) these are the coordinates B(H) of P(H); for any v, B* of them
    is A*(AA*)^-1 v."""
    return _triangular_solve(k.problem.R, v, trans=1)


def multipliers(k: ConstraintKernel, u):
    """y = R^-1 u: the multipliers with A*y = B*u."""
    return _triangular_solve(k.problem.R, u, trans=0)


def apply_Bt(k: ConstraintKernel, u):
    """B* u = sum_i u_i B_i; a (k, m) stack gives k matrices in one gemm."""
    return _adjoint(k.problem, k.basis, u)


def solve_normal(k: ConstraintKernel, v):
    """(AA*)^-1 v, for a vector or for the columns of an (m, k) array, by
    LAPACK ``dpotrs`` on R."""
    if k.problem.m == 0:
        return np.zeros(np.shape(v))
    x, info = scipy.linalg.lapack.dpotrs(k.problem.R, v)
    if info != 0:
        raise ValueError(f"dpotrs rejected argument {-info} of the normal solve")
    return x


def project_range(k: ConstraintKernel, h):
    """Orthogonal projection of symmetric H onto range(A*): two passes over
    the basis, B*(B(H)), and no solve."""
    return apply_Bt(k, _forward(k.problem, k.basis, h))


def project_null(k: ConstraintKernel, h):
    """Orthogonal projection of symmetric H onto null(A) = range(A*)^perp."""
    return np.asarray(h, dtype=float) - project_range(k, h)


# ---------------------------------------------------------------------------
# Sparse SDPA (.dat-s) I/O, single PSD block only.
# ---------------------------------------------------------------------------


# Punctuation that SDPA files use as decoration; read as whitespace.
_SDPA_PUNCT = str.maketrans("{}(),", "     ")


def _sdpa_column(tokens, dtype, what):
    """Parse one column of tokens; a bad token becomes SdpaFormatError."""
    try:
        return np.array(tokens, dtype=dtype)
    except ValueError as exc:
        raise SdpaFormatError(f"malformed {what}: {exc}") from exc
    except OverflowError:
        bad = next(tok for tok in tokens if not -(2**63) <= int(tok) < 2**63)
        raise SdpaFormatError(f"malformed {what}: {bad!r} does not fit in int64") from None


def load_sdpa(path) -> SdpProblem:
    """Read a problem in sparse SDPA format with exactly one PSD block.

    The file states the problem as max tr(F0 Y) s.t. tr(F_i Y) = c_i,
    Y PSD; this maps onto the standard minimization form via C = -F0,
    A_i = F_i, b = c. Entries give one triangle; the other is mirrored.

    Lines starting with ``*`` or ``"`` are comments and ``{}(),`` read as
    whitespace. After the three header lines the data are one token stream,
    so right-hand-side values and entries may span lines.

    Raises
    ------
    UnsupportedBlockError
        For multi-block files or diagonal (negative-size) blocks.
    SdpaFormatError
        For malformed content, naming one offending token or entry: a bad
        header, token or index, or duplicate (matno, i, j) entries; also for
        a block size whose (m+1, t(n)) coefficient table cannot be allocated.
    ValueError
        If the assembled constraint matrices are linearly dependent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = [ln for ln in fh if ln.lstrip()[:1] not in ("", "*", '"')]
    if len(data_lines) < 3:
        raise SdpaFormatError("file truncated before block descriptor")
    try:
        m = int(data_lines[0].translate(_SDPA_PUNCT).split()[0])
        nblocks = int(data_lines[1].translate(_SDPA_PUNCT).split()[0])
        block_sizes = [int(tok) for tok in data_lines[2].translate(_SDPA_PUNCT).split()]
    except (ValueError, IndexError) as exc:
        raise SdpaFormatError(f"malformed header: {exc}") from exc
    if m < 0:
        raise SdpaFormatError(f"malformed header: negative constraint count {m}")
    if len(block_sizes) != nblocks:
        raise SdpaFormatError(
            f"declared {nblocks} blocks but found {len(block_sizes)} block sizes"
        )
    if nblocks != 1:
        raise UnsupportedBlockError(
            f"only a single semidefinite block is supported, file declares {nblocks} "
            f"(first unsupported: block 2)"
        )
    if block_sizes[0] < 0:
        raise UnsupportedBlockError(
            f"block 1 has negative size {block_sizes[0]} (diagonal/LP block), unsupported"
        )
    n = block_sizes[0]

    tokens = " ".join(data_lines[3:]).translate(_SDPA_PUNCT).split()
    if len(tokens) < m:
        raise SdpaFormatError(f"expected {m} right-hand-side values, found {len(tokens)}")
    b = _sdpa_column(tokens[:m], float, "right-hand side")
    if (len(tokens) - m) % 5 != 0:
        raise SdpaFormatError("entry section is not a sequence of 5-tuples")
    matno, blkno, i, j = (_sdpa_column(tokens[m + c :: 5], np.int64, "index") for c in range(4))
    value = _sdpa_column(tokens[m + 4 :: 5], float, "entry value")

    if (bad := (matno < 0) | (matno > m)).any():
        raise SdpaFormatError(f"matrix index {matno[bad.argmax()]} outside 0..{m}")
    if (bad := blkno != 1).any():
        raise SdpaFormatError(
            f"entry refers to block {blkno[bad.argmax()]}, file declares 1 block"
        )
    if (bad := (i < 1) | (i > n) | (j < 1) | (j > n)).any():
        k = bad.argmax()
        raise SdpaFormatError(f"entry indices ({i[k]}, {j[k]}) outside 1..{n}")
    # Each entry lands in the (m+1, t(n)) table of F0 and the F_i; the
    # duplicate key is its flat position there, which allocating the table
    # first bounds, so it cannot wrap in int64.
    t = svec_dim(n)
    try:
        table = np.zeros((m + 1, t))
    except MemoryError as exc:
        raise SdpaFormatError(f"block size {n} needs {8 * (m + 1) * t} bytes") from exc
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    pos = _triangle_position(lo, hi, n)
    _, first = np.unique(matno * t + pos, return_index=True)
    if first.size < matno.size:
        k = np.setdiff1d(np.arange(matno.size), first)[0]
        raise SdpaFormatError(f"duplicate entry for matrix {matno[k]} at ({i[k]}, {j[k]})")
    table[matno, pos] = value
    _, _, mirror = _triangle_maps(n)
    return SdpProblem.from_table(C=-table[0].take(mirror).reshape(n, n), table=table[1:], b=b)


def write_sdpa(p: SdpProblem, path, comment=None):
    """Write a problem in sparse SDPA format (single PSD block).

    Writes the nonzero upper-triangle entries of F0 = -C and F_i = A_i, in
    matrix order and row-major within each triangle. Values are formatted
    with shortest round-trip precision (``repr``), so
    ``load_sdpa(write_sdpa(p))`` reproduces the coefficients bit for bit.
    """
    iu, ju = np.triu_indices(p.n)
    table = np.concatenate([-p.C[None, iu, ju], p.table])
    matno, pos = np.nonzero(table)
    rows = zip(matno.tolist(), (iu[pos] + 1).tolist(), (ju[pos] + 1).tolist(),
               table[matno, pos].tolist())
    lines = [f"* {comment}"] if comment else []
    lines += [str(p.m), "1", str(p.n), " ".join(map(repr, p.b.tolist()))]
    lines += [f"{k} 1 {i} {j} {v!r}" for k, i, j, v in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Instance generators.
# ---------------------------------------------------------------------------


@dataclass
class PlantedCertificate:
    """Known optimal triple planted by :func:`generate_planted`.

    Satisfies the KKT system A(Xstar) = b, A*(ystar) + Sstar = C,
    <Xstar, Sstar> = 0 by construction, with Xstar, Sstar PSD of ranks
    r and s = n - r.
    """

    Xstar: np.ndarray
    ystar: np.ndarray
    Sstar: np.ndarray
    Qstar: np.ndarray
    r: int
    s: int

    def zstar(self, sigma):
        """Fixed point Xstar - sigma * Sstar of the one-step iteration."""
        return self.Xstar - sigma * self.Sstar

    def kkt_residuals(self, p: SdpProblem):
        """(primal, dual, complementarity) residual norms against ``p``."""
        rp = float(np.linalg.norm(apply_A(p, self.Xstar) - p.b))
        rd = float(np.linalg.norm(apply_At(p, self.ystar) + self.Sstar - p.C))
        comp = abs(float(np.sum(self.Xstar * self.Sstar)))
        return rp, rd, comp


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix, deterministic for a given generator."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def generate_planted(
    n,
    m,
    r,
    seed,
    degeneracy="none",
    spectrum_floor=0.5,
    spectrum_ceil=2.0,
):
    """Random instance with a planted strictly complementary optimum.

    Draws a random orthogonal Qstar and positive spectra for the rank-r
    primal block and the rank-(n-r) dual block (uniform in
    [spectrum_floor, spectrum_ceil], bounded away from zero by default so the
    instance never sits near a strict-complementarity failure; lower the floor
    to probe that regime). Constraint matrices are random symmetric Gaussians,
    b is defined as A(Xstar) and C as A*(ystar) + Sstar, so the certificate
    satisfies the KKT system exactly by construction.

    With ``degeneracy="primal_nd_fail"`` the last constraint matrix is
    replaced by an element of the lower-right block space at Qstar (made
    trace-orthogonal to the dual spectrum block), planting a nonzero
    intersection between range(A*) and the normal space of Xstar: the primal
    nondegeneracy test fails while feasibility is untouched.

    The PRNG is numpy's default (PCG64) seeded with ``seed``; instances are
    reproducible across platforms.

    ``n``, ``m``, ``r`` and ``seed`` must be integers and the spectrum bounds
    finite numbers. Returns (SdpProblem, PlantedCertificate).
    """
    for name, val in (("n", n), ("m", m), ("r", r), ("seed", seed)):
        require_integer(name, val)
    require_number("spectrum_floor", spectrum_floor)
    require_number("spectrum_ceil", spectrum_ceil)
    if not 1 <= r < n:
        raise ValueError(f"rank r = {r} must satisfy 1 <= r < n = {n}")
    if not 1 <= m <= svec_dim(n) - 1:
        raise ValueError(f"m = {m} must satisfy 1 <= m <= {svec_dim(n) - 1}")
    if degeneracy not in ("none", "primal_nd_fail"):
        raise ValueError(f"unknown degeneracy mode {degeneracy!r}")
    if not 0 < spectrum_floor <= spectrum_ceil:
        raise ValueError("need 0 < spectrum_floor <= spectrum_ceil")
    rng = np.random.default_rng(seed)
    q = haar_orthogonal(n, rng)
    lam_x = rng.uniform(spectrum_floor, spectrum_ceil, size=r)
    lam_s = rng.uniform(spectrum_floor, spectrum_ceil, size=n - r)
    xstar = symmetrize((q[:, :r] * lam_x) @ q[:, :r].T)
    sstar = symmetrize((q[:, r:] * lam_s) @ q[:, r:].T)

    a = np.empty((m, n, n))
    for i in range(m):
        a[i] = symmetrize(rng.standard_normal((n, n)))
    if degeneracy == "primal_nd_fail":
        g = symmetrize(rng.standard_normal((n - r, n - r)))
        d = np.diag(lam_s)
        g -= (np.sum(g * d) / np.sum(d * d)) * d
        witness = np.zeros((n, n))
        witness[r:, r:] = g
        a[m - 1] = symmetrize(q @ witness @ q.T)

    prob = SdpProblem(C=np.zeros((n, n)), A=a, b=np.zeros(m))
    prob.b = apply_A(prob, xstar)
    ystar = rng.standard_normal(m)
    prob.C = apply_At(prob, ystar) + sstar

    cert = PlantedCertificate(Xstar=xstar, ystar=ystar, Sstar=sstar, Qstar=q, r=r, s=n - r)
    rp, rd, comp = cert.kkt_residuals(prob)
    scale = max(1.0, float(np.linalg.norm(xstar)), float(np.linalg.norm(prob.C)))
    if max(rp, rd, comp) > 1e-10 * scale:
        raise AssertionError(
            f"planted certificate violates KKT: rp={rp:.2e} rd={rd:.2e} comp={comp:.2e}"
        )
    return prob, cert


def generate_maxcut(adjacency) -> SdpProblem:
    """Max-cut relaxation min <C, X>, diag(X) = 1 with C = -(D - W) / 4.

    ``adjacency`` must be a symmetric 0/1 matrix with zero diagonal; minus the
    optimal value upper-bounds the maximum cut of the graph.
    """
    w = np.asarray(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"adjacency has shape {w.shape}, expected square")
    if not np.array_equal(w, w.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(w) != 0.0):
        raise ValueError("adjacency matrix must have zero diagonal")
    require_finite(w, "adjacency")
    n = w.shape[0]
    laplacian = np.diag(w.sum(axis=1)) - w
    diag = np.arange(n)
    table = np.zeros((n, svec_dim(n)))
    table[diag, _triangle_position(diag, diag, n)] = 1.0
    return SdpProblem.from_table(C=-laplacian / 4.0, table=table, b=np.ones(n))
