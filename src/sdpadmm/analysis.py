"""Why a finished run converged at the rate it did: ``analyse`` reads only
the arrays of the run, what ``solve`` returns or what ``diagnose`` reads back."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import diagnostics, linearization
from .errors import NumericalFailureError
from .linalg import eig_sym
from .problem import build_kernel
from .solver import SolveStatus, solve, trace_fields

# Timed phases: the limit's decomposition with the SC and ND tests on its
# frame, the replay, Fix(M) and ||M - Pi_Fix||, and the rate fits.
PHASES = ("frame", "replay", "norms", "fits")

# Fitted trace sequences: (name in the report, IterationRecord field).
_FIT_SEQUENCES = (("r_max", "r_max"), ("norm_z_diff", "norm_z_diff"), ("h_norm", "h_norm"),
                  ("ho_norm", "ho_norm"), ("face_X_norm", "face_x_norm"),
                  ("face_S_norm", "face_s_norm"))


class ReplayMismatchError(ValueError):
    """A replayed record differs from the trace row of its iterate."""


def analyse(prob, cfg, iterations, z_final, rows, checkpoints, status, timings):
    """The analysis of the run of ``cfg`` on ``prob`` that stopped with
    ``status`` after ``iterations`` at ``z_final``, with the trace ``rows``
    and the restart points ``checkpoints``, in increasing ``k``.

    The run is replayed once against its own limit ``z_final`` up to exactly
    ``iterations``, with no time limit, so a time-limited run is analysed on
    the trajectory it took. The fit window is fixed from ``rows`` before the
    replay: the last ``trailing_window`` rows before the final one, past
    ``k_id``. The replay starts from the latest restart point at or before
    the window's first row (at or before the last iterate when nothing is
    fitted; from the run's ``initial_z`` when there is none), and every
    record it replays must equal the row of its iterate in all
    ``trace_fields``. Each sequence of ``_FIT_SEQUENCES`` is fit on its
    positive values in the window of a converged run. One with fewer than
    ``RATE_MIN_WINDOW`` of them, or whose window stays at or below ten
    times the rounding floor ``n eps ||z_final||_F``, is named under
    ``skipped`` with the reason instead.

    The rank tests, ``Fix(M)`` and the one Lanczos estimate, of
    ||M - Pi_Fix||, read one rotation of the basis of range(A*) into the
    limit's eigenbasis; ||M|| is read off ``Fix(M)`` by
    ``linearization.norm_M``. A norm or ``Fix(M)`` that is not computed
    stays ``None``, with the reason under ``skipped``; one that fails
    numerically also sets ``failure``, and so does an estimate of
    ||M - Pi_Fix|| that is not below 1 - 1e-8 (the separation gate), which
    is still ||M|| when ``Fix(M)`` = {0}. ``operator_applications`` counts the
    estimate's operator applications, also those of an estimate that fails.

    A replay that stops before ``iterations`` is a ValueError, and one that
    differs from ``rows`` a ``ReplayMismatchError``; both name the
    iteration counts. ``timings``, a ``PhaseTimings.of(*PHASES)`` or one
    with more phases, receives the time of each of ``PHASES``."""
    with timings.phase("frame"):
        kernel = build_kernel(prob)
        dec = eig_sym(z_final)
        sc = diagnostics.sc_check(dec)
        frame = diagnostics.eigen_frame(kernel, dec.Q)
        nd = diagnostics.nd_check(prob, dec, frame)

    with timings.phase("replay"):
        k_id = diagnostics.rank_trace(rows, sc)
        fitted = status is SolveStatus.CONVERGED and bool(rows)
        if fitted:
            idx_id = next((i for i, r in enumerate(rows) if r.k == k_id), 0)
            window = diagnostics.trailing_window(len(rows) - 1, idx_id)
            first = rows[max(0, len(rows) - 1 - window)].k
        else:
            first = iterations
        point = next((c for c in reversed(checkpoints) if c.k <= first), None)
        start = 0 if point is None else point.k
        replay, records, _ = solve(
            prob, dataclasses.replace(cfg, max_iter=iterations, time_limit_secs=None),
            kernel=kernel, reference=z_final, start=point,
        )
        if replay.k != iterations:
            raise ValueError(f"the replay stopped at k = {replay.k}, but summary.json records "
                             f"{iterations} iterations")
        for got, want in itertools.zip_longest(records, [r for r in rows if r.k >= start]):
            if got is None or want is None or trace_fields(got) != trace_fields(want):
                raise ReplayMismatchError(f"the replay from k = {start} differs from trace.csv "
                                          f"at k = {(got or want).k}")

    op_norm_M = op_norm_M_minus_fix = fix_dim = failure = None
    if sc.sc_holds:
        os_ = linearization.build_omega(dec)
        fix = timings.call("norms", linearization.fix_basis, os_, kernel, frame)
        fix_dim = fix.dim
        try:
            estimate = timings.call("norms", linearization.op_norm_M_minus_fix, os_, kernel,
                                    fix, frame)
        except NumericalFailureError as exc:
            estimate, failure = None, {"message": str(exc), "details": exc.details}
        # An estimate at 1 means Pi_Fix missed a fixed direction of M: no rate
        # bound.
        if estimate is not None and estimate >= 1.0 - 1e-8:
            failure = {"message": f"||M - Pi_Fix|| = {estimate!r} is not separated from 1",
                       "details": {"value": estimate}}
        else:
            op_norm_M_minus_fix = estimate
        op_norm_M = linearization.norm_M(fix_dim, estimate)
    reason = "numerical failure" if sc.sc_holds else "strict complementarity fails"
    norms = {"op_norm_M": op_norm_M, "fix_dim": fix_dim, "op_norm_M_minus_fix": op_norm_M_minus_fix}
    skipped = {key: reason for key, val in norms.items() if val is None}

    fits = []
    if fitted:
        in_window = [r for r in records[:-1] if r.k >= first]
        ks = np.array([r.k for r in in_window], dtype=float)
        # Ten times the rounding floor n eps ||Z||_F of the limit: a window
        # that never rises above it holds roundoff, not a tail.
        floor = 10.0 * prob.n * np.finfo(float).eps * np.linalg.norm(z_final)
        for name, field in _FIT_SEQUENCES:
            vals = np.array([getattr(r, field) for r in in_window], dtype=float)
            keep = vals > 0.0
            count = np.count_nonzero(keep)
            if count < diagnostics.RATE_MIN_WINDOW:
                skipped[name] = (f"fewer than {diagnostics.RATE_MIN_WINDOW} "
                                 "positive values in the window")
            elif vals.max() <= floor:
                skipped[name] = "at the rounding floor"
            else:
                fit = timings.call("fits", diagnostics.rate_fit, vals[keep], count, ks=ks[keep],
                                   name=name)
                fits.append({"sequence": name, "rho_hat": fit.rho_hat, "r2": fit.r2,
                             "window": list(fit.window)})
    return {
        "sc": sc.__dict__,
        "nd": nd.__dict__,
        "k_id": k_id,
        "op_norm_M": op_norm_M,
        "op_norm_M_minus_fix": op_norm_M_minus_fix,
        "fix_dim": fix_dim,
        "skipped": skipped,
        "operator_applications": frame.applications,
        "failure": failure,
        "fits": fits,
    }
