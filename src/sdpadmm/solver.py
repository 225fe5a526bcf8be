"""ADMM for standard-form SDPs.

The canonical iteration is the one-step fixed-point map on Z = X - sigma*S:

    Z+ = P(Z - 2 Pi(Z)) + Pi(Z) + Adag(b) + sigma*(P(C) - C)

where Pi is the PSD projection and P the orthogonal projector onto range(A*).
The primal/dual pair is extracted as X = Pi(Z), sigma*S = Pi(-Z), and y is
recovered from the normal equations each iteration. The classical three-step
update is also provided; starting from a matched (X, S) pair it reproduces the
fixed-point map exactly.

Each iteration of ``solve`` costs one eigendecomposition, one forward pass
A(X) and one two-column adjoint pass that yields A*y and P(Z - 2X) together.
Both projections of Z come from the same factorization. A(Z) is carried
through A(Z+) = A(Z) - A(X) + A(const), and sigma*S = X - Z gives
A(S) = (A(X) - A(Z))/sigma, so the one A(X) feeds y, r_p and the step.
``step_fixed_point`` and ``residuals`` keep the direct evaluation as the
reference path.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import face_projections, offblock_norm
from .errors import NumericalFailureError
from .linalg import SpectralDecomp, eig_sym, psd_project, psd_split, split_counts, symmetrize
from .problem import (
    ConstraintKernel,
    SdpProblem,
    apply_A,
    apply_At,
    build_kernel,
    project_null,
    project_range,
    solve_normal,
)

TRACE_HEADER = "k,r_p,r_d,r_gap,r_max,rank_X,rank_S,lam_min_absZ,norm_Z_diff"
PHASES = ("eig", "constraint_op", "normal_solve", "record")


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITER_LIMIT = "iter_limit"
    TIME_LIMIT = "time_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverConfig:
    """Run parameters.

    sigma is the fixed penalty parameter (> 0, never adapted); tol_rmax the
    stopping threshold on the maximum KKT residual; init one of "zero",
    "gaussian" (standard normal, symmetrized, drawn from ``seed``) or
    "explicit" (uses ``z0``). The numerical ranks recorded in the trace use
    ``linalg.RANK_TAU``. A zero ``time_limit_secs`` stops at the first iterate.
    """

    sigma: float = 1.0
    max_iter: int = 100_000
    tol_rmax: float = 1e-10
    time_limit_secs: float | None = None
    trace_every: int = 1
    init: str = "gaussian"
    seed: int = 0
    z0: np.ndarray | None = None

    def validate(self):
        for name in ("max_iter", "trace_every", "seed"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        limits = ["sigma", "tol_rmax"]
        if self.time_limit_secs is not None:
            limits.append("time_limit_secs")
        for name in limits:
            val = getattr(self, name)
            if isinstance(val, bool) or not (
                isinstance(val, numbers.Real) and math.isfinite(val)
            ):
                raise ValueError(f"{name} must be a finite number, got {val!r}")
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
        if self.init not in ("zero", "gaussian", "explicit"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.init == "explicit" and self.z0 is None:
            raise ValueError("init='explicit' requires z0")


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


@dataclass
class PhaseTimings:
    """Wall seconds and call counts of the phases of one solve: eigen-
    decompositions, constraint-operator passes (``apply_A``/``apply_At``),
    normal-equation solves and trace records."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    calls: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))

    def call(self, phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds[phase] += time.perf_counter() - t0
        self.calls[phase] += 1
        return out

    def to_json(self):
        return {ph: {"seconds": self.seconds[ph], "calls": self.calls[ph]} for ph in PHASES}


@dataclass
class SolverState:
    """Iterate k with its extraction: X = Pi(Z), sigma*S = Pi(-Z), y from the
    normal equations; residuals = (r_p, r_d, r_gap, r_max).

    ``failure`` holds the message and details of a numerical failure that
    ended the run, ``timings`` the phase timers of the run.
    """

    k: int
    Z: np.ndarray
    X: np.ndarray
    y: np.ndarray
    S: np.ndarray
    residuals: tuple
    decomp: SpectralDecomp
    failure: dict | None = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)


def residuals(p: SdpProblem, x, y, s_mat):
    """KKT residuals (r_p, r_d, r_gap, r_max).

    r_p = ||A X - b||_2 / (1 + ||b||_2),
    r_d = ||A* y + S - C||_F / (1 + ||C||_F),
    r_gap = |<C, X> - b'y| / (1 + |<C, X>| + |b'y|).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _residuals(p, x, y, np.asarray(s_mat, dtype=float), apply_A(p, x), apply_At(p, y))


def _residuals(p, x, y, s_mat, a_x, at_y):
    # The residual formulas on precomputed A(X) and A*(y).
    r_p = float(np.linalg.norm(a_x - p.b)) / (1.0 + float(np.linalg.norm(p.b)))
    r_d = float(np.linalg.norm(at_y + s_mat - p.C)) / (1.0 + float(np.linalg.norm(p.C)))
    obj = float(np.sum(p.C * x))
    by = float(p.b @ y)
    r_gap = abs(obj - by) / (1.0 + abs(obj) + abs(by))
    return (r_p, r_d, r_gap, max(r_p, r_d, r_gap))


def _step_const(kernel: ConstraintKernel, sigma):
    # Adag(b) + sigma*(P(C) - C), fixed for the whole run.
    return kernel.at_pinv_b - sigma * project_null(kernel, kernel.problem.C)


def _step_from_split(kernel, z, x_part, const):
    return project_range(kernel, z - 2.0 * x_part) + x_part + const


def step_fixed_point(p: SdpProblem, kernel: ConstraintKernel, cfg: SolverConfig, z):
    """One application of the fixed-point map to Z (one eigendecomposition)."""
    z = symmetrize(z)
    x_part, _ = psd_split(eig_sym(z))
    return _step_from_split(kernel, z, x_part, _step_const(kernel, cfg.sigma))


def step_three(p: SdpProblem, kernel: ConstraintKernel, cfg: SolverConfig, x, s_mat):
    """Classical three-step update: returns (y+, S+, X+).

    Starting from X = Pi(Z), S = Pi(-Z)/sigma, the produced X+ - sigma*S+
    equals ``step_fixed_point`` applied to Z.
    """
    sigma = cfg.sigma
    x = symmetrize(x)
    s_mat = symmetrize(s_mat)
    y_new = solve_normal(
        kernel, p.b / sigma - apply_A(p, x / sigma + s_mat - p.C)
    )
    at_y = apply_At(p, y_new)
    s_new = psd_project(p.C - at_y - x / sigma)
    x_new = x + sigma * (s_new + at_y - p.C)
    return y_new, s_new, x_new


def initial_z(p: SdpProblem, cfg: SolverConfig):
    if cfg.init == "zero":
        return np.zeros((p.n, p.n))
    if cfg.init == "gaussian":
        rng = np.random.default_rng(cfg.seed)
        return symmetrize(rng.standard_normal((p.n, p.n)))
    z0 = np.asarray(cfg.z0, dtype=float)
    if z0.shape != (p.n, p.n):
        raise ValueError(f"z0 has shape {z0.shape}, problem needs ({p.n}, {p.n})")
    return symmetrize(z0)


def solve(
    p: SdpProblem,
    cfg: SolverConfig,
    kernel: ConstraintKernel | None = None,
    reference: np.ndarray | None = None,
    keep_z: bool = False,
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
    ref_dec = eig_sym(reference) if reference is not None else None
    timings = PhaseTimings()
    a_const = timings.call("constraint_op", apply_A, p, const)
    a_c = timings.call("constraint_op", apply_A, p, p.C)

    z = initial_z(p, cfg)
    a_z = timings.call("constraint_op", apply_A, p, z)
    # Not guarded: a failure here is one of the initial point, before any
    # iterate exists to report.
    dec = timings.call("eig", eig_sym, z)
    records: list[IterationRecord] = []
    status = SolveStatus.ITER_LIMIT
    t0 = time.monotonic()

    def make_record(k, res, z_cur, z_next, x_part, s_mat):
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
            norm_z_diff=float(np.linalg.norm(z_next - z_cur)),
        )
        if ref_dec is not None:
            rec.h_norm = float(np.linalg.norm(z_cur - reference))
            rec.ho_norm = offblock_norm(ref_dec, z_cur - reference)
            face_x, face_s, _ = face_projections(ref_dec, x_part, s_mat, sigma)
            rec.face_x_norm = face_x
            rec.face_s_norm = face_s
        if keep_z:
            rec.z = z_cur.copy()
        return rec

    for k in range(cfg.max_iter + 1):
        x_part, neg_part = psd_split(dec)
        s_mat = neg_part / sigma
        a_x = timings.call("constraint_op", apply_A, p, x_part)
        # Column 0 is b/sigma - A(X/sigma + S - C) with A(S) = (A(X) - A(Z))/sigma,
        # the right-hand side for y; column 1 is A(Z - 2X), for P(Z - 2X).
        a_zx = a_z - 2.0 * a_x
        rhs = np.stack([(p.b + a_zx) / sigma + a_c, a_zx], axis=1)
        w = timings.call("normal_solve", solve_normal, kernel, rhs)
        at_y, p_zx = timings.call("constraint_op", apply_At, p, w.T)
        y = w[:, 0]
        res = _residuals(p, x_part, y, s_mat, a_x, at_y)
        state = SolverState(
            k=k, Z=z, X=x_part, y=y, S=s_mat, residuals=res, decomp=dec, timings=timings
        )
        if not all(np.isfinite(res)):
            state.failure = {"message": f"non-finite KKT residuals at iterate {k}", "details": {}}
            status = SolveStatus.NUMERICAL_FAILURE
            break
        converged = res[3] <= cfg.tol_rmax
        out_of_iters = k >= cfg.max_iter
        timed_out = (
            cfg.time_limit_secs is not None
            and time.monotonic() - t0 > cfg.time_limit_secs
        )
        final = converged or out_of_iters or timed_out
        # Reuses the current eigendecomposition; no extra factorization.
        z_next = p_zx + x_part + const
        # A converged final iterate is always recorded; limit exits record
        # nothing beyond the stride-aligned iterates already taken.
        if converged or (not final and k % cfg.trace_every == 0):
            records.append(
                timings.call("record", make_record, k, res, z, z_next, x_part, s_mat)
            )
        if final:
            if converged:
                status = SolveStatus.CONVERGED
            elif out_of_iters:
                status = SolveStatus.ITER_LIMIT
            else:
                status = SolveStatus.TIME_LIMIT
            break
        z = z_next
        # A(Z+) = A(Z) - A(X) + A(const). Rounding does not accumulate here,
        # because Z+ itself was built from the carried A(Z).
        a_z = a_z - a_x + a_const
        try:
            dec = timings.call("eig", eig_sym, z)
        except (NumericalFailureError, ValueError) as exc:
            state.failure = {"message": str(exc), "details": getattr(exc, "details", {})}
            status = SolveStatus.NUMERICAL_FAILURE
            break

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
    """
    sigma = cfg.sigma
    x_part, _ = psd_split(state.decomp)
    z_next = _step_from_split(kernel, state.Z, x_part, _step_const(kernel, sigma))
    lhs = float(np.linalg.norm(z_next - state.Z) ** 2)
    term_p = float(np.linalg.norm(project_range(kernel, state.X - kernel.at_pinv_b)) ** 2)
    term_d = float(np.linalg.norm(project_null(kernel, state.S - p.C)) ** 2)
    rhs = term_p + sigma**2 * term_d
    gap = abs(lhs - rhs) / max(1.0, lhs, rhs)
    return lhs, rhs, gap


# ---------------------------------------------------------------------------
# Trace export.
# ---------------------------------------------------------------------------


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
