"""Spans around the package's public functions, installed from outside.

The package imports its public functions by name into other modules
(``solver`` and ``problem.project_range`` both call ``apply_A``), so a span
must replace every binding of a function, not just the one in its defining
module. :func:`installed` does that for every ``sdpadmm`` module and restores
the originals on exit.

Spans are kept in memory as ``[name, parent, start, end]`` and reduced to
per-name call counts, inclusive time and self time (span time minus the time
covered by its child spans) after the command finishes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# Public functions wrapped, by module. Span names are "<module>.<function>".
TARGETS = {
    "problem": (
        "apply_A",
        "apply_At",
        "project_range",
        "solve_normal",
        "build_kernel",
        "load_sdpa",
        "write_sdpa",
        "generate_planted",
        "generate_maxcut",
    ),
    "linalg": ("eig_sym", "psd_split", "psd_project", "sylvester_solve", "skew_exp"),
    "solver": ("solve", "residuals", "write_trace_csv"),
    "diagnostics": ("sc_check", "nd_check", "face_projections", "offblock_norm", "rate_fit"),
    "linearization": ("apply_M", "apply_M_adjoint", "op_norm_M", "fix_basis", "op_norm_M_minus_fix"),
    "elimination": ("eb_scan", "run_elimination", "eliminate_step"),
}
# The span around the whole command; its self time is the CLI's own work.
ROOT = "cli"
SPAN_NAMES = {ROOT} | {f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns}
_INSTANCE_SPANS = ("problem.generate_planted", "problem.generate_maxcut", "problem.load_sdpa")

# Per-layer metrics: "<span>.calls", "<span>.s" (inclusive time) and
# "<span>.self_s" come straight from the spans; the rest are derived.
PER_LAYER = (
    ("problem.apply_A.calls", "count"),
    ("problem.apply_A.self_s", "s"),
    ("problem.apply_At.calls", "count"),
    ("problem.apply_At.self_s", "s"),
    ("problem.project_range.calls", "count"),
    ("problem.project_range.self_s", "s"),
    ("problem.solve_normal.calls", "count"),
    ("problem.solve_normal.self_s", "s"),
    ("problem.constraint_bytes_per_iter", "B/iter"),
    ("problem.instance.s", "s"),
    ("problem.build_kernel.s", "s"),
    ("problem.write_sdpa.s", "s"),
    ("problem.load_sdpa.s", "s"),
    ("linalg.eig_sym.calls", "count"),
    ("linalg.eig_sym.self_s", "s"),
    ("linalg.psd_split.self_s", "s"),
    ("linalg.sylvester_solve.calls", "count"),
    ("linalg.sylvester_solve.self_s", "s"),
    ("linalg.skew_exp.self_s", "s"),
    ("linalg.psd_project.self_s", "s"),
    ("solver.solve.self_s", "s"),
    ("solver.residuals.self_s", "s"),
    ("solver.write_trace_csv.s", "s"),
    ("solver.eig_per_extraction", "ratio"),
    ("diagnostics.face_projections.calls", "count"),
    ("diagnostics.face_projections.self_s", "s"),
    ("diagnostics.offblock_norm.self_s", "s"),
    ("diagnostics.nd_check.s", "s"),
    ("diagnostics.sc_check.s", "s"),
    ("diagnostics.rate_fit.s", "s"),
    ("linearization.op_norm_M.s", "s"),
    ("linearization.op_norm_M_minus_fix.s", "s"),
    ("linearization.apply_M.calls", "count"),
    ("linearization.apply_M_adjoint.calls", "count"),
    ("linearization.fix_basis.s", "s"),
    ("elimination.eb_scan.s", "s"),
    ("elimination.run_elimination.s", "s"),
    ("elimination.eliminate_step.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def _package_modules():
    importlib.import_module("sdpadmm.cli")
    return [mod for key, mod in sys.modules.items() if key == "sdpadmm" or key.startswith("sdpadmm.")]


@contextlib.contextmanager
def installed(tracer):
    """Replace every binding of each target function in every package module
    by a traced wrapper; yields the number of bindings per span name."""
    modules = _package_modules()
    patches = []
    bindings = {}
    try:
        for mod_name, names in TARGETS.items():
            home = importlib.import_module(f"sdpadmm.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                bindings[f"{mod_name}.{fn_name}"] = sum(1 for p in patches if p[2] is original)
        yield bindings
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def aggregate(spans):
    """Per-name {calls, s, self_s}, and per-name call counts of the spans
    that run inside ``solver.solve``."""
    n = len(spans)
    child = [0.0] * n
    in_solve = [False] * n
    for idx, (name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_solve[idx] = in_solve[parent] or spans[parent][0] == "solver.solve"
    stats = {}
    solve_calls = {}
    for idx, (name, _, start, end) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[idx]
        if in_solve[idx]:
            solve_calls[name] = solve_calls.get(name, 0) + 1
    return stats, solve_calls


def layer_metrics(spans, solve_iterations, constraint_bytes):
    """Per-layer metrics of one traced command, all of PER_LAYER except
    ``trace.overhead_s``, which needs untraced commands too.

    ``solve_iterations`` is the iteration count of the command's solver run
    (None when the command runs no solver); ``constraint_bytes`` the size of
    the dense constraint stack, from which the bytes read per iteration are
    computed, not measured.
    """
    stats, solve_calls = aggregate(spans)
    out = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in SPAN_NAMES:
            out[name] = stats.get(span, {}).get(field, 0)
    out["problem.instance.s"] = sum(stats.get(name, {}).get("s", 0.0) for name in _INSTANCE_SPANS)
    if solve_iterations is None:
        out["solver.eig_per_extraction"] = 0.0
        out["problem.constraint_bytes_per_iter"] = 0.0
    else:
        extractions = solve_iterations + 1
        passes = solve_calls.get("problem.apply_A", 0) + solve_calls.get("problem.apply_At", 0)
        out["solver.eig_per_extraction"] = solve_calls.get("linalg.eig_sym", 0) / extractions
        out["problem.constraint_bytes_per_iter"] = passes * constraint_bytes / extractions
    return out


def self_time_defect(spans):
    """|sum of self times - root span time| of one traced command; zero up to
    rounding when every span nests inside its parent."""
    stats, _ = aggregate(spans)
    total = sum(entry["self_s"] for entry in stats.values())
    return abs(total - stats[ROOT]["s"])
