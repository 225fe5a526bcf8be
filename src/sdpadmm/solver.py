"""ADMM for standard-form SDPs.

The canonical iteration is the one-step fixed-point map on Z = X - sigma*S:

    Z+ = P(Z - 2 Pi(Z)) + Pi(Z) + Adag(b) + sigma*(P(C) - C)

where Pi is the PSD projection and P the orthogonal projector onto range(A*).
The primal/dual pair is extracted as X = Pi(Z), sigma*S = Pi(-Z), and y is
recovered from the normal equations each iteration.

Each iteration of ``solve`` costs one partial eigendecomposition and two
passes over the orthonormal basis B = R^-T A of range(A*) (AA* = R'R),
stored only on the packed-triangle positions the constraints touch: the
forward pass u_X = B(X) and the backward pass B*(u_Z - 2 u_X) = P(Z - 2X).
The loop never reads the constraint columns and never solves with R; the
set-up reads them once, for A(C). The decomposition computes every
eigenvalue of Z but eigenvectors only for the smaller sign group; that
group gives one projection, and Pi(Z) - Pi(-Z) = Z the other. Constraint
values are carried as basis coordinates u = B(.) = R^-T A(.): u_Z follows
u_Z+ = u_Z - u_X + u_const, sigma*S = X - Z gives B(S) = (u_X - u_Z)/sigma,
and the primal residual is A(X) - b = R'(u_X - b_hat), one triangular
product. The dual residual needs no A*y: A*y + S - C = (Z+ - Z)/sigma.
``step_fixed_point`` and ``residuals`` keep the direct evaluation as the
reference path.

A run restarts exactly from any iterate k at which it kept ``(k, Z_k, u_Z)``:
Z_k decomposed again gives the same bits, and u_Z is the carried vector, not
B(Z_k) recomputed, which differs in its last bits. ``solve`` keeps such a
``Checkpoint`` at every power of two; iterate 0 is ``initial_z``, so every
run is a restart, from 0 unless told otherwise.
"""

from __future__ import annotations

import contextlib
import enum
import math
import operator
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagnostics import face_norms
from .errors import NumericalFailureError, require_integer, require_number
from .linalg import SpectralDecomp, SpectralSplit, eig_sym, psd_split, split_counts, symmetrize
from .problem import (
    ConstraintKernel,
    SdpProblem,
    apply_A,
    apply_At,
    apply_B,
    apply_Bt,
    basis_coords,
    build_kernel,
    constraint_values,
    multipliers,
    project_null,
    project_range,
)

TRACE_HEADER = "k,r_p,r_d,r_gap,r_max,rank_X,rank_S,lam_min_absZ,norm_Z_diff"
PHASES = ("eig", "constraint_op", "primal_residual", "record")


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITER_LIMIT = "iter_limit"
    TIME_LIMIT = "time_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverConfig:
    """Run parameters.

    sigma is the fixed penalty parameter (> 0, never adapted); tol_rmax the
    stopping threshold on the maximum KKT residual; init one of "zero" or
    "gaussian" (standard normal, symmetrized, drawn from ``seed``), so
    ``(init, seed, n)`` determines the start. Every field is a JSON scalar:
    a run is replayed from the fields ``summary.json`` records. The numerical
    ranks recorded in the trace use ``linalg.RANK_TAU``. A zero
    ``time_limit_secs`` stops at the first iterate.
    """

    sigma: float = 1.0
    max_iter: int = 100_000
    tol_rmax: float = 1e-10
    time_limit_secs: float | None = None
    trace_every: int = 1
    init: str = "gaussian"
    seed: int = 0

    def validate(self):
        for name in ("max_iter", "trace_every", "seed"):
            require_integer(name, getattr(self, name))
        limits = ["sigma", "tol_rmax"]
        if self.time_limit_secs is not None:
            limits.append("time_limit_secs")
        for name in limits:
            require_number(name, getattr(self, name))
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.tol_rmax <= 0.0:
            raise ValueError(f"tol_rmax must be positive, got {self.tol_rmax}")
        if self.time_limit_secs is not None and self.time_limit_secs < 0.0:
            raise ValueError(f"time_limit_secs must be >= 0, got {self.time_limit_secs}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.trace_every < 1:
            raise ValueError(f"trace_every must be >= 1, got {self.trace_every}")
        if self.init not in ("zero", "gaussian"):
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass
class IterationRecord:
    """One sampled iterate of the trace.

    The first nine fields are the fixed CSV columns. The optional fields are
    filled when the solve is given a reference point (distance and off-block
    norm to the reference, minimal-face projection norms) or asked to keep Z
    snapshots; they never appear in the CSV.
    """

    k: int
    r_p: float
    r_d: float
    r_gap: float
    r_max: float
    rank_x: int
    rank_s: int
    lam_min_abs_z: float
    norm_z_diff: float
    h_norm: float | None = None
    ho_norm: float | None = None
    face_x_norm: float | None = None
    face_s_norm: float | None = None
    z: np.ndarray | None = None


class Checkpoint(NamedTuple):
    """A restart point of ``solve``: iterate ``k``, its ``z`` and the basis
    coordinates ``u_z`` the loop carried to it."""

    k: int
    z: np.ndarray
    u_z: np.ndarray


@dataclass
class PhaseTimings:
    """Wall seconds and call counts of the phases of one solve: partial
    eigendecompositions (which include forming Pi(Z) and Pi(-Z)),
    constraint-operator passes (``apply_A`` on the columns once, for A(C), and
    ``apply_B`` and ``apply_Bt`` on the basis), the one product
    with R' per iterate that gives A(X) - b (``primal_residual``) and trace
    records. :meth:`of` makes the same record for the phases of a command."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    calls: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))

    def call(self, phase, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[phase] += time.perf_counter() - t0
        self.calls[phase] += 1
        return out

    @classmethod
    def of(cls, *phases):
        """Timings of the named phases instead of a solve's."""
        return cls(dict.fromkeys(phases, 0.0), dict.fromkeys(phases, 0))

    @contextlib.contextmanager
    def phase(self, name):
        """Time the enclosed block as one call of ``name``."""
        t0 = time.perf_counter()
        yield
        self.seconds[name] += time.perf_counter() - t0
        self.calls[name] += 1

    def to_json(self):
        return {ph: {"seconds": sec, "calls": self.calls[ph]} for ph, sec in self.seconds.items()}


@dataclass
class SolverState:
    """Iterate k with its extraction: X = Pi(Z), sigma*S = Pi(-Z), y from the
    normal equations; residuals = (r_p, r_d, r_gap, r_max).

    In a state returned by ``solve``, ``decomp`` is what the loop's
    ``eig_sym`` returned for Z: a :class:`SpectralSplit`, with no
    eigenvectors. ``failure`` holds the message and details of a numerical
    failure that ended the run, ``timings`` the phase timers of the run, and
    ``checkpoints`` the restart points it kept: one per power of two up to
    ``k``, each holding the loop's own arrays (the loop never mutates them).
    """

    k: int
    Z: np.ndarray
    X: np.ndarray
    y: np.ndarray
    S: np.ndarray
    residuals: tuple
    decomp: SpectralSplit | SpectralDecomp
    failure: dict | None = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    checkpoints: list = field(default_factory=list)


def residuals(p: SdpProblem, x, y, s_mat):
    """KKT residuals (r_p, r_d, r_gap, r_max).

    r_p = ||A X - b||_2 / (1 + ||b||_2),
    r_d = ||A* y + S - C||_F / (1 + ||C||_F),
    r_gap = |<C, X> - b'y| / (1 + |<C, X>| + |b'y|).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dual = float(np.linalg.norm(apply_At(p, y) + np.asarray(s_mat, dtype=float) - p.C))
    return _residuals(p, x, float(p.b @ y), apply_A(p, x) - p.b, dual, _scales(p))


def _scales(p):
    # The residual denominators 1 + ||b||_2 and 1 + ||C||_F.
    return 1.0 + float(np.linalg.norm(p.b)), 1.0 + float(np.linalg.norm(p.C))


def _residuals(p, x, by, primal, dual, scales):
    # The residual formulas on precomputed b'y, A(X) - b, ||A*y + S - C||_F
    # and the denominators from _scales.
    r_p = float(np.linalg.norm(primal)) / scales[0]
    r_d = dual / scales[1]
    obj = float(np.vdot(p.C, x))
    r_gap = abs(obj - by) / (1.0 + abs(obj) + abs(by))
    return (r_p, r_d, r_gap, max(r_p, r_d, r_gap))


def _step_const(kernel: ConstraintKernel, sigma):
    # Adag(b) + sigma*(P(C) - C), fixed for the whole run.
    return kernel.at_pinv_b - sigma * project_null(kernel, kernel.problem.C)


def step_fixed_point(p: SdpProblem, kernel: ConstraintKernel, cfg: SolverConfig, z):
    """One application of the fixed-point map to Z (one eigendecomposition)."""
    z = symmetrize(z)
    x_part, _ = psd_split(eig_sym(z))
    return project_range(kernel, z - 2.0 * x_part) + x_part + _step_const(kernel, cfg.sigma)


def initial_z(p: SdpProblem, cfg: SolverConfig):
    if cfg.init == "zero":
        return np.zeros((p.n, p.n))
    rng = np.random.default_rng(cfg.seed)
    return symmetrize(rng.standard_normal((p.n, p.n)))


# Overflow and invalid values in an iterate are reported by the loop, as a
# NUMERICAL_FAILURE with non-finite residuals, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve(
    p: SdpProblem,
    cfg: SolverConfig,
    kernel: ConstraintKernel | None = None,
    reference: np.ndarray | None = None,
    keep_z: bool = False,
    start: Checkpoint | None = None,
):
    """Run the fixed-point iteration until r_max <= tol or a limit triggers.

    Parameters
    ----------
    reference : optional symmetric matrix
        When given (typically the final Z of a previous identical run, or a
        planted fixed point), each sampled record also carries the distance
        ``h_norm = ||Z - reference||_F``, the off-block norm ``ho_norm`` in
        the reference eigenbasis, and the two minimal-face projection norms.
    keep_z : bool
        Store a copy of Z on each sampled record (memory scales with the
        number of records).
    start : optional Checkpoint
        Run from that iterate instead of from ``initial_z``: the records from
        ``start.k`` on and the final state are those of the run from 0, bit
        for bit. A Z or u_z of another shape, or a ``k`` outside
        ``0..max_iter``, is a ValueError. ``state.checkpoints`` holds the
        run's restart points, each power of two from ``start.k`` to the
        final ``k``.

    Returns
    -------
    (SolverState, list[IterationRecord], SolveStatus)
        State of the last extracted iterate, the sampled trace, and the first
        triggered stopping criterion. Deterministic for fixed config. A
        failed eigendecomposition of a later iterate, or non-finite
        residuals, ends the run with NUMERICAL_FAILURE and the message and
        details in ``state.failure``.
    """
    cfg.validate()
    if kernel is None:
        kernel = build_kernel(p)
    sigma = cfg.sigma
    const = _step_const(kernel, sigma)
    scales = _scales(p)
    faces = face_norms(eig_sym(reference)) if reference is not None else None
    timings = PhaseTimings()
    # Basis coordinates of const and Z0, which the loop carries, and of C,
    # which only y and b'y read; C's are R^-T A(C), from the run's one
    # pass over the constraint columns.
    u_const = timings.call("constraint_op", apply_B, kernel, const)
    if start is None:
        z = initial_z(p, cfg)
        start = Checkpoint(0, z, timings.call("constraint_op", apply_B, kernel, z))
    elif np.shape(start.z) != (p.n, p.n) or np.shape(start.u_z) != u_const.shape:
        raise ValueError(f"start holds Z of shape {np.shape(start.z)} and u_z of shape "
                         f"{np.shape(start.u_z)}, expected {(p.n, p.n)} and {u_const.shape}")
    elif not 0 <= start.k <= cfg.max_iter:
        raise ValueError(f"start k = {start.k} is outside 0..max_iter = {cfg.max_iter}")
    z, u_z = start.z, start.u_z
    u_c = basis_coords(kernel, timings.call("constraint_op", apply_A, p, p.C))
    # Not guarded: a failure here is one of the start point, before any
    # iterate exists to report.
    dec = timings.call("eig", eig_sym, z, split=True)
    checkpoints: list[Checkpoint] = []
    records: list[IterationRecord] = []
    status = SolveStatus.ITER_LIMIT
    failure = None
    t0 = time.monotonic()

    def make_record(k, res, z_cur, step, x_part, neg_part):
        rank_x, rank_s = split_counts(dec.lam)
        rec = IterationRecord(
            k=k,
            r_p=res[0],
            r_d=res[1],
            r_gap=res[2],
            r_max=res[3],
            rank_x=rank_x,
            rank_s=rank_s,
            lam_min_abs_z=float(np.min(np.abs(dec.lam))),
            norm_z_diff=step,
        )
        if faces is not None:
            rec.h_norm = float(np.linalg.norm(z_cur - reference))
            # Q'(X - sigma*S)Q has the off-block of Q'(Z - reference)Q,
            # because Q'(reference)Q is diagonal.
            rec.face_x_norm, rec.face_s_norm, rec.ho_norm = faces(x_part, neg_part)
        if keep_z:
            rec.z = z_cur.copy()
        return rec

    for k in range(start.k, cfg.max_iter + 1):
        if k > 0 and k & (k - 1) == 0:
            checkpoints.append(Checkpoint(k, z, u_z))
        x_part, neg_part = dec.plus, dec.minus
        u_x = timings.call("constraint_op", apply_B, kernel, x_part)
        u_zx = u_z - 2.0 * u_x
        z_next = timings.call("constraint_op", apply_Bt, kernel, u_zx) + x_part + const
        # y = R^-1 u_y solves the normal equations for b/sigma - A(X/sigma + S - C),
        # with B(S) = (u_X - u_Z)/sigma; then b'y = b_hat'u_y, and
        # A*y + S - C = (Z+ - Z)/sigma, so the step gives r_d.
        u_y = (kernel.b_hat + u_zx) / sigma + u_c
        primal = timings.call("primal_residual", constraint_values, kernel, u_x - kernel.b_hat)
        step = float(np.linalg.norm(z_next - z))
        res = _residuals(p, x_part, float(kernel.b_hat @ u_y), primal, step / sigma, scales)
        if not all(map(math.isfinite, res)):
            failure = {"message": f"non-finite KKT residuals at iterate {k}", "details": {}}
            status = SolveStatus.NUMERICAL_FAILURE
            break
        converged = res[3] <= cfg.tol_rmax
        out_of_iters = k >= cfg.max_iter
        timed_out = (
            cfg.time_limit_secs is not None
            and time.monotonic() - t0 > cfg.time_limit_secs
        )
        final = converged or out_of_iters or timed_out
        # A converged final iterate is always recorded; limit exits record
        # nothing beyond the stride-aligned iterates already taken.
        if converged or (not final and k % cfg.trace_every == 0):
            records.append(
                timings.call("record", make_record, k, res, z, step, x_part, neg_part)
            )
        if final:
            if converged:
                status = SolveStatus.CONVERGED
            elif out_of_iters:
                status = SolveStatus.ITER_LIMIT
            else:
                status = SolveStatus.TIME_LIMIT
            break
        try:
            dec_next = timings.call("eig", eig_sym, z_next, split=True)
        except (NumericalFailureError, ValueError) as exc:
            failure = {"message": str(exc), "details": getattr(exc, "details", {})}
            status = SolveStatus.NUMERICAL_FAILURE
            break
        z, dec = z_next, dec_next
        # u_Z+ = u_Z - u_X + u_const. Rounding does not accumulate here,
        # because Z+ itself was built from the carried u_Z.
        u_z = u_z - u_x + u_const

    state = SolverState(
        k=k, Z=z, X=x_part, y=multipliers(kernel, u_y), S=neg_part / sigma, residuals=res,
        decomp=dec, failure=failure, timings=timings, checkpoints=checkpoints,
    )
    return state, records, status


def z_difference_identity(
    p: SdpProblem, kernel: ConstraintKernel, cfg: SolverConfig, state: SolverState
):
    """Exact decomposition of the squared step length.

    Returns (lhs, rhs, relative gap) with lhs = ||Z+ - Z||_F^2 and
    rhs = ||P(X - Xtilde)||_F^2 + sigma^2 ||Pnull(S - C)||_F^2, where Xtilde
    is the particular feasible point Adag(b). The two sides agree to roundoff
    at every iterate; the gap is measured against max(1, lhs, rhs) so that it
    stays meaningful when the step length itself is at the noise floor.
    ``state.Z`` is decomposed here, independently of the stored X and S.
    """
    sigma = cfg.sigma
    z_next = step_fixed_point(p, kernel, cfg, state.Z)
    lhs = float(np.linalg.norm(z_next - state.Z) ** 2)
    term_p = float(np.linalg.norm(project_range(kernel, state.X - kernel.at_pinv_b)) ** 2)
    term_d = float(np.linalg.norm(project_null(kernel, state.S - p.C)) ** 2)
    rhs = term_p + sigma**2 * term_d
    gap = abs(lhs - rhs) / max(1.0, lhs, rhs)
    return lhs, rhs, gap


# ---------------------------------------------------------------------------
# Trace export.
# ---------------------------------------------------------------------------


# The IterationRecord fields of the TRACE_HEADER columns.
trace_fields = operator.attrgetter(
    "k", "r_p", "r_d", "r_gap", "r_max", "rank_x", "rank_s", "lam_min_abs_z", "norm_z_diff"
)


def write_trace_csv(records, path):
    """Fixed-header CSV, one record per row; shortest round-trip floats so
    identical runs produce byte-identical files."""
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            f"{r.k},{float(r.r_p)!r},{float(r.r_d)!r},{float(r.r_gap)!r},"
            f"{float(r.r_max)!r},{r.rank_x},{r.rank_s},"
            f"{float(r.lam_min_abs_z)!r},{float(r.norm_z_diff)!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path):
    """The records of a file that ``write_trace_csv`` wrote, with the
    ``trace_fields`` as written; a ValueError names the file and the line of
    a header or row that is not in that format."""
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines() or [""]
    name = os.path.basename(path)
    if header != TRACE_HEADER:
        raise ValueError(f"{name}: line 1 is not the header {TRACE_HEADER}")
    records = []
    for number, row in enumerate(rows, 2):
        try:
            k, r_p, r_d, r_gap, r_max, rank_x, rank_s, lam, step = row.split(",")
            records.append(IterationRecord(
                int(k), float(r_p), float(r_d), float(r_gap), float(r_max), int(rank_x),
                int(rank_s), float(lam), float(step),
            ))
        except ValueError:
            raise ValueError(f"{name}: line {number} {row!r} is not a trace row") from None
    return records
