"""Standard-form SDP problems.

A problem is min <C, X> s.t. <A_i, X> = b_i (i = 1..m), X PSD, together with
its dual max b'y s.t. A*(y) + S = C, S PSD. This module holds the problem
container, the constraint operator A and its adjoint, the range-space
projector built from one QR factorization of the constraints, sparse SDPA
file I/O, and instance generators that plant a known optimal certificate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SdpaFormatError, UnsupportedBlockError, require_integer, require_number
from .linalg import require_finite, svec_dim, symmetrize, triangle_maps

_INDEPENDENCE_RTOL = 1e-10


class SdpProblem:
    """Coefficients of a standard-form SDP.

    Attributes
    ----------
    C : (n, n) symmetric cost matrix
    table : (m, t(n)) constraint table; row i is svec(A_i) without the
        sqrt(2) off the diagonal, in ``linalg.triangle_maps`` order
    b : (m,) right-hand side
    R : (m, m) upper-triangular factor (Fortran order) with A A* = R'R,
        from one Householder QR of the weighted rows of the table on its
        column support S (the positions some A_i touches, found once by
        exact zeros); the other rows are zero and do not change R'R
    cond_R : 2-norm condition number of R, None when m = 0; the basis
        coordinates and y carry a relative error of about eps * cond_R

    ``SdpProblem(C, A, b)`` takes an (m, n, n) stack and keeps only the
    table of its symmetric part; :meth:`from_table` takes the table itself.
    Either way all values must be finite and the A_i linearly independent,
    so that A A* is invertible. Finiteness of the table is checked on S: a
    non-finite entry is nonzero, so it lies in S. ``A`` mirrors the table
    back to the (m, n, n) stack on demand, for analysis code.
    """

    def __init__(self, C, A, b):
        a = np.asarray(A, dtype=float)
        if a.ndim == 2:
            a = a[None, :, :]
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"constraint stack has shape {a.shape}, expected (m, n, n)")
        iu, ju = np.divmod(triangle_maps(a.shape[1])[0], a.shape[1])
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
        if n == 0:
            raise ValueError("matrix dimension n = 0: a problem needs n >= 1")
        if table.ndim != 2 or table.shape[1] != svec_dim(n):
            raise ValueError("constraint and cost dimensions disagree")
        self.table = np.ascontiguousarray(table)
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.shape != (self.m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.m},)")
        # The column support S, by exact zeros, with no threshold.
        self._support = np.flatnonzero(self.table.any(axis=0))
        rows = self.table[:, self._support]
        require_finite(self.C, "C")
        require_finite(rows, "A")
        require_finite(self.b, "b")
        if self.m > svec_dim(n):
            raise ValueError(f"m = {self.m} exceeds dim S^n = {svec_dim(n)}")
        # R has the singular values of the weighted table, so it decides
        # independence; forming A A* would square its condition number. The
        # rows outside S are zero and change neither R'R nor R up to row
        # signs, so the QR reads the |S| support rows only. With |S| < m, R
        # has only |S| rows and the rank check fails. The rows are weighted
        # in place, so set-up holds one copy of them.
        rows *= np.sqrt(triangle_maps(n)[1][self._support])
        self.R = np.asfortranarray(np.linalg.qr(rows.T, mode="r"))
        self.cond_R = None
        if self.m > 0:
            sv = np.linalg.svd(self.R, compute_uv=False)
            rank = int(np.sum(sv > _INDEPENDENCE_RTOL * sv[0])) if sv.size else 0
            if rank < self.m:
                raise ValueError(
                    f"constraint matrices are linearly dependent (rank {rank} < m = {self.m})"
                )
            self.cond_R = float(sv[0] / sv[-1])

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def m(self):
        return self.table.shape[0]

    @property
    def A(self):
        """(m, n, n) stack of the constraint matrices, built from the table."""
        return self.table.take(triangle_maps(self.n)[2], axis=1).reshape(self.m, self.n, self.n)


def _forward(p: SdpProblem, rows, upper, weights, x):
    # rows @ (weighted entries of X at the flat positions ``upper``):
    # <row_i, X> for every row whose columns are those positions.
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n, p.n):
        raise ValueError(f"X has shape {x.shape}, expected ({p.n}, {p.n})")
    return rows @ (weights * x.take(upper))


def _adjoint(p: SdpProblem, rows, mirror, y):
    # sum_i y_i row_i as full matrices, with flat position j read from
    # column mirror[j] of ``rows``; a (k, m) stack of coefficients reads
    # ``rows`` once, in one gemm, and mirrors in one ``take``.
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != p.m:
        raise ValueError(f"y has shape {y.shape}, expected ({p.m},) or (k, {p.m})")
    return (y @ rows).take(mirror, axis=-1).reshape(y.shape[:-1] + (p.n, p.n))


def apply_A(p: SdpProblem, x):
    """A X = (<A_1, X>, ..., <A_m, X>) for symmetric X: one gemv on the
    table, against the weighted upper triangle of X."""
    return _forward(p, p.table, *triangle_maps(p.n)[:2], x)


def apply_At(p: SdpProblem, y):
    """Adjoint A* y = sum_i y_i A_i.

    A (k, m) stack of multipliers gives the (k, n, n) stack of adjoints in
    one gemm, reading the table once, and one mirroring ``take``.
    """
    return _adjoint(p, p.table, triangle_maps(p.n)[2], y)


@dataclass
class ConstraintKernel:
    """Precomputed machinery for the range projector P = A*(AA*)^-1 A.

    With AA* = R'R (``problem.R``), the rows of B = R^-T A are an
    orthonormal basis of range(A*) in the trace inner product, so
    P(H) = B*(B(H)). The coordinates B(H) of P(H) in this basis are
    R^-T A(H) (:func:`basis_coords`), and R' maps them back to the
    constraint values A(H) (:func:`constraint_values`).

    B is stored on the column support S of the constraint table only: the
    packed-triangle positions that some A_i touches. R is invertible, so
    the columns of B outside S are exactly zero. A dense table has full
    support; for max-cut S is the diagonal. One zero column follows S: the
    positions outside S read it in B*, and B gives it weight 0, so neither
    pass needs a zero buffer of its own per call.

    Attributes
    ----------
    basis : (m, |S| + 1) columns of B on S, in the order of the constraint
        table, then the zero column
    upper : (|S| + 1,) flat positions in an (n, n) matrix of the entries of
        S, then position 0 for the zero column
    weights : (|S| + 1,) inner-product weights of S (1 on the diagonal, 2 off
        it), then 0
    mirror : (n^2,) column of ``basis`` that each flat position mirrors, |S|
        (the zero column) for the positions S does not cover
    b_hat : (m,) coordinates R^-T b, so that b'y = b_hat'(R y)
    at_pinv_b : (n, n) particular primal-feasible point A*(AA*)^-1 b
    """

    problem: SdpProblem
    basis: np.ndarray
    upper: np.ndarray
    weights: np.ndarray
    mirror: np.ndarray
    b_hat: np.ndarray
    at_pinv_b: np.ndarray


def build_kernel(p: SdpProblem) -> ConstraintKernel:
    """Form the basis B = R^-T A on the column support S of the table.

    S is the support the problem found by exact zeros when it factored R;
    the table is not scanned again. The columns of S are copied out beside
    one zero column, and one right-side ``dtrsm`` on their transpose, which
    is Fortran-ordered as it stands, overwrites them with B; the zero column
    stays zero."""
    support = p._support
    upper, weights, mirror = triangle_maps(p.n)
    columns = np.zeros((p.m, support.size + 1))
    columns[:, :-1] = p.table[:, support]
    basis = scipy.linalg.blas.dtrsm(1.0, p.R, columns.T, side=1, overwrite_b=1).T
    column = np.full(svec_dim(p.n), support.size)
    column[support] = np.arange(support.size)
    mirror = column[mirror]
    b_hat = _triangular_solve(p.R, p.b, trans=1)
    return ConstraintKernel(
        p, basis, np.append(upper[support], 0), np.append(weights[support], 0.0),
        mirror, b_hat, at_pinv_b=_adjoint(p, basis, mirror, b_hat),
    )


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


def constraint_values(k: ConstraintKernel, u):
    """R'u by BLAS ``dtrmv``: the constraint values A(H) of any H with basis
    coordinates B(H) = u. In particular A(X) - b = R'(B(X) - b_hat)."""
    if k.problem.m == 0:
        return np.zeros(np.shape(u))
    return scipy.linalg.blas.dtrmv(k.problem.R, u, trans=1)


def multipliers(k: ConstraintKernel, u):
    """y = R^-1 u: the multipliers with A*y = B*u."""
    return _triangular_solve(k.problem.R, u, trans=0)


def apply_B(k: ConstraintKernel, x):
    """B(X) = R^-T A(X), the coordinates of P(X) in the basis: one gemv on
    the stored columns of B, against the weighted entries of X on S."""
    return _forward(k.problem, k.basis, k.upper, k.weights, x)


def apply_Bt(k: ConstraintKernel, u):
    """B* u = sum_i u_i B_i: one gemv on the stored columns of B, mirrored
    to (n, n) with zeros off S; a (k, m) stack gives k matrices in one
    gemm."""
    return _adjoint(k.problem, k.basis, k.mirror, u)


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
    return apply_Bt(k, apply_B(k, h))


def project_null(k: ConstraintKernel, h):
    """Orthogonal projection of symmetric H onto null(A) = range(A*)^perp."""
    return np.asarray(h, dtype=float) - project_range(k, h)


# ---------------------------------------------------------------------------
# Sparse SDPA (.dat-s) I/O, single PSD block only.
# ---------------------------------------------------------------------------


# Punctuation that SDPA files use as decoration; read as whitespace.
_SDPA_PUNCT = str.maketrans("{}(),", "     ")
# Characters read per chunk of an SDPA data section; each chunk runs on to the
# end of its line, so no token is cut. write_sdpa formats the entries of
# _CHUNK_CHARS // 16 table positions per write.
_CHUNK_CHARS = 1 << 16


def _is_data_line(line):
    return line.lstrip()[:1] not in ("", "*", '"')


def _sdpa_column(tokens, dtype, what, strict):
    """Parse one column of tokens; a bad token becomes SdpaFormatError. With
    ``strict``, a token holding ``_`` or a non-ASCII character is bad too,
    because ``int`` and ``float`` accept digit separators and non-ASCII
    digits."""
    if strict and (bad := next((tok for tok in tokens if "_" in tok or not tok.isascii()), None)):
        raise SdpaFormatError(f"malformed {what}: {bad!r} is not an ASCII number")
    try:
        return np.array(tokens, dtype=dtype)
    except ValueError as exc:
        raise SdpaFormatError(f"malformed {what}: {exc}") from exc
    except OverflowError:
        bad = next(tok for tok in tokens if not -(2**63) <= int(tok) < 2**63)
        raise SdpaFormatError(f"malformed {what}: {bad!r} does not fit in int64") from None


def _first_defect(parse, tokens, unit):
    """``parse(tokens)``; if it raises SdpaFormatError, parse each group of
    ``unit`` tokens in turn instead, so the error names the first defective
    one in file order rather than the first defect of some column."""
    try:
        return parse(tokens)
    except SdpaFormatError:
        for start in range(0, len(tokens), unit):
            parse(tokens[start : start + unit])
        raise


def _entry_keys(tokens, m, n, strict, seen):
    """Flat ``(m+1, t(n))`` table positions and values of the 5-tuples in
    ``tokens``, each field checked in the order an entry lists it. Positions
    are then marked in ``seen``; one marked already, or repeated within
    ``tokens``, is a duplicate."""
    matno = _sdpa_column(tokens[0::5], np.int64, "index", strict)
    if (bad := (matno < 0) | (matno > m)).any():
        raise SdpaFormatError(f"matrix index {matno[bad.argmax()]} outside 0..{m}")
    blkno = _sdpa_column(tokens[1::5], np.int64, "index", strict)
    if (bad := blkno != 1).any():
        raise SdpaFormatError(
            f"entry refers to block {blkno[bad.argmax()]}, file declares 1 block"
        )
    i = _sdpa_column(tokens[2::5], np.int64, "index", strict)
    j = _sdpa_column(tokens[3::5], np.int64, "index", strict)
    if (bad := (i < 1) | (i > n) | (j < 1) | (j > n)).any():
        k = bad.argmax()
        raise SdpaFormatError(f"entry indices ({i[k]}, {j[k]}) outside 1..{n}")
    value = _sdpa_column(tokens[4::5], float, "entry value", strict)
    key = matno * svec_dim(n) + triangle_maps(n)[2][(i - 1) * n + j - 1]
    ordered = np.sort(key)
    if seen[key].any() or (ordered[1:] == ordered[:-1]).any():
        earlier = set()
        for k, pos in enumerate(key.tolist()):
            if seen[pos] or pos in earlier:
                raise SdpaFormatError(f"duplicate entry for matrix {matno[k]} at ({i[k]}, {j[k]})")
            earlier.add(pos)
    seen[key] = True
    return key, value


def _read_sdpa(fh):
    """(C, table, b) of the SDPA text stream ``fh``; see :func:`load_sdpa`."""
    header = []
    while len(header) < 3:
        line = fh.readline()
        if not line:
            raise SdpaFormatError("file truncated before block descriptor")
        if _is_data_line(line):
            header.append(line.translate(_SDPA_PUNCT).split())
    try:
        m = int(header[0][0])
        nblocks = int(header[1][0])
        block_sizes = [int(tok) for tok in header[2]]
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
    # Each entry lands in the (m+1, t(n)) table of F0 and the F_i, at a flat
    # key that allocating the table first bounds, so it cannot wrap in int64.
    # ``seen`` marks the keys already set, for the duplicate check.
    t = svec_dim(n)
    try:
        table = np.zeros((m + 1) * t)
        seen = np.zeros(table.size, dtype=bool)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise SdpaFormatError(f"block size {n} needs {8 * (m + 1) * t} bytes") from exc

    b_parts, b_left, carry = [np.zeros(0)], m, []
    while text := fh.read(_CHUNK_CHARS):
        text += fh.readline()
        if "*" in text or '"' in text:
            text = "\n".join(ln for ln in text.split("\n") if _is_data_line(ln))
        # The tokens of an entry cut by the chunk end are tested again with
        # the next chunk.
        text = " ".join(carry) + " " + text
        strict = "_" in text or not text.isascii()
        tokens = text.translate(_SDPA_PUNCT).split()
        if b_left:
            rhs, tokens = tokens[:b_left], tokens[b_left:]
            b_parts.append(_first_defect(
                lambda toks: _sdpa_column(toks, float, "right-hand side", strict), rhs, 1))
            b_left -= len(rhs)
        whole = len(tokens) - len(tokens) % 5
        tokens, carry = tokens[:whole], tokens[whole:]
        key, value = _first_defect(
            lambda toks: _entry_keys(toks, m, n, strict, seen), tokens, 5)
        table[key] = value
    if b_left:
        raise SdpaFormatError(f"expected {m} right-hand-side values, found {m - b_left}")
    if carry:
        raise SdpaFormatError("entry section is not a sequence of 5-tuples")
    table = table.reshape(m + 1, t)
    return -table[0].take(triangle_maps(n)[2]).reshape(n, n), table[1:], np.concatenate(b_parts)


def load_sdpa(path) -> SdpProblem:
    """Read a problem in sparse SDPA format with exactly one PSD block.

    The file states the problem as max tr(F0 Y) s.t. tr(F_i Y) = c_i,
    Y PSD; this maps onto the standard minimization form via C = -F0,
    A_i = F_i, b = c. Entries give one triangle; the other is mirrored.

    Lines starting with ``*`` or ``"`` are comments and ``{}(),`` read as
    whitespace. After the three header lines the data are one token stream,
    so right-hand-side values and entries may span lines. The stream is read
    in chunks of about ``_CHUNK_CHARS`` characters, each reduced to table
    positions before the next is read, so memory does not grow with the
    file beyond the coefficient table.

    Raises
    ------
    UnsupportedBlockError
        For multi-block files or diagonal (negative-size) blocks.
    SdpaFormatError
        For malformed content, naming the first offending token or entry in
        file order: a bad header, token or index, or duplicate (matno, i, j)
        entries; also for a file that is not UTF-8 and for a block size
        whose (m+1, t(n)) coefficient table cannot be allocated.
    ValueError
        If the assembled constraint matrices are linearly dependent.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            C, table, b = _read_sdpa(fh)
    except UnicodeDecodeError as exc:
        raise SdpaFormatError(f"{os.fspath(path)} is not UTF-8 text: {exc.reason}") from None
    return SdpProblem.from_table(C=C, table=table, b=b)


def write_sdpa(p: SdpProblem, path, comment=None):
    """Write a problem in sparse SDPA format (single PSD block).

    Writes the nonzero upper-triangle entries of F0 = -C and F_i = A_i, in
    matrix order and row-major within each triangle. Values are formatted
    with shortest round-trip precision (``repr``), so
    ``load_sdpa(write_sdpa(p))`` reproduces the coefficients bit for bit.
    Each line of ``comment`` is written as its own ``*`` comment line.
    """
    iu, ju = np.divmod(triangle_maps(p.n)[0], p.n)
    table = np.concatenate([-p.C[None, iu, ju], p.table]).reshape(-1)
    step = _CHUNK_CHARS // 16
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write("".join(f"* {line}\n" for line in comment.splitlines()))
        fh.write(f"{p.m}\n1\n{p.n}\n{' '.join(map(repr, p.b.tolist()))}\n")
        for start in range(0, table.size, step):
            flat = np.flatnonzero(table[start : start + step]) + start
            matno, pos = np.divmod(flat, iu.size)
            rows = zip(matno.tolist(), (iu[pos] + 1).tolist(), (ju[pos] + 1).tolist(),
                       table[flat].tolist())
            fh.write("".join([f"{k} 1 {i} {j} {v!r}\n" for k, i, j, v in rows]))


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
    table[diag, triangle_maps(n)[2][diag * (n + 1)]] = 1.0
    return SdpProblem.from_table(C=-laplacian / 4.0, table=table, b=np.ones(n))
