"""Batch command-line front end.

Subcommands: ``solve`` (run the solver on an instance, emit a trace CSV and a
JSON summary), ``diagnose`` (post-hoc analysis of a finished run directory),
``eb-verify`` (projection linearization residual scan plus elimination
agreement check), and ``generate`` (write planted or max-cut instances as
.dat-s files). Runs are described by JSON manifests; command-line flags
override manifest fields, which override defaults. Identical manifest and
seed produce byte-identical trace CSVs; wall-clock metadata lives only in the
JSON summary.

``solve`` writes a run directory once (the instance file as read, or as
generated, and every ``SolverConfig`` field); ``diagnose`` only reads it. The
``diagnose`` report comes from ``diagnose_run(run_dir)``, which returns the
``diagnostics.json`` object (a malformed ``summary.json`` is a ValueError
naming the file or the field); the command only writes and prints it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
import time

import numpy as np
import scipy

from . import __version__, diagnostics, linearization
from .elimination import eb_reference
from .errors import (
    NumericalFailureError,
    require_integer,
    require_keys,
    require_number,
    require_object,
    require_path,
)
from .linalg import eig_sym, sym_norm2, symmetrize
from .problem import (
    build_kernel,
    generate_maxcut,
    generate_planted,
    haar_orthogonal,
    load_sdpa,
    write_sdpa,
)
from .solver import (
    PhaseTimings,
    SolveStatus,
    SolverConfig,
    solve,
    write_trace_csv,
)

_CFG_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _provenance():
    """What a command ran on: the package, Python, numpy and scipy versions,
    and the BLAS that numpy and scipy were built with. It holds no timestamp
    and no instance hash, so it repeats between commands."""
    return {
        "sdpadmm": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
    }


def _load_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return manifest


def _apply_overrides(manifest, args):
    overrides = {
        "sigma": args.sigma,
        "max_iter": args.max_iter,
        "tol_rmax": args.tol,
        "seed": args.seed,
        "init": args.init,
        "out": args.out,
    }
    for key, val in overrides.items():
        if val is not None:
            manifest[key] = val
    return manifest


def _config_from_manifest(manifest):
    kwargs = {k: manifest[k] for k in _CFG_KEYS if k in manifest}
    cfg = SolverConfig(**kwargs)
    cfg.validate()
    return cfg


def _instance_from_manifest(manifest):
    """Build (problem, name, certificate-or-None) from the manifest's single
    instance source."""
    has_path = "instance" in manifest
    has_gen = "generator" in manifest
    if has_path == has_gen:
        raise ValueError("manifest needs exactly one of 'instance' or 'generator'")
    if has_path:
        path = manifest["instance"]
        require_path("instance", path)
        return load_sdpa(path), os.path.basename(path), None
    gen = require_object("generator", manifest["generator"])
    kind = gen.get("kind")
    if kind == "planted":
        require_keys("generator", gen, "n", "m", "r")
        prob, cert = generate_planted(
            n=gen["n"],
            m=gen["m"],
            r=gen["r"],
            seed=gen.get("seed", 0),
            degeneracy=gen.get("degeneracy", "none"),
            spectrum_floor=gen.get("spectrum_floor", 0.5),
            spectrum_ceil=gen.get("spectrum_ceil", 2.0),
        )
        name = f"planted-n{gen['n']}-m{gen['m']}-r{gen['r']}-s{gen.get('seed', 0)}"
        return prob, name, cert
    if kind == "maxcut":
        require_keys("generator", gen, "edges")
        require_path("edges", gen["edges"])
        adjacency = _load_edge_list(gen["edges"])
        return generate_maxcut(adjacency), os.path.basename(gen["edges"]), None
    raise ValueError(f"unknown generator kind {kind!r}")


def _load_edge_list(path):
    """Edge-list file: optional '#' comments, first data line is the vertex
    count, then one '1-based i j' pair per line."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append((number, line))
    if not entries:
        raise ValueError(f"edge list {path} is empty")

    def integers(entry, count, what):
        # The first ``count`` tokens of a data line as integers; a ValueError
        # names the file and the 1-based line number and text.
        number, line = entry
        tokens = line.split()
        try:
            if len(tokens) < count:
                raise ValueError
            return [int(tok) for tok in tokens[:count]]
        except ValueError:
            raise ValueError(f"edge list {path}: line {number} {line!r} is not {what}") from None

    (n,) = integers(entries[0], 1, "a vertex count")
    if n < 1:
        raise ValueError(f"edge list {path}: vertex count {n} is below 1")
    try:
        adj = np.zeros((n, n))
    except MemoryError as exc:
        raise ValueError(f"edge list {path}: vertex count {n} needs {8 * n * n} bytes") from exc
    for entry in entries[1:]:
        i, j = integers(entry, 2, "an 'i j' pair")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(
                f"edge list {path}: line {entry[0]} has bad edge ({i}, {j}) for n = {n}"
            )
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1.0
    return adj


def _run_solve_manifest(manifest):
    """Execute one solve manifest; returns the summary dict (also written to
    the output directory together with the trace and the final iterate)."""
    out_dir = manifest.get("out")
    if out_dir is None:
        raise ValueError("manifest is missing an output directory ('out')")
    require_path("out", out_dir)
    cfg = _config_from_manifest(manifest)
    prob, name, _ = _instance_from_manifest(manifest)
    os.makedirs(out_dir, exist_ok=True)
    instance_file = os.path.join(out_dir, "instance.dat-s")
    source = manifest.get("instance")
    if source is None:
        write_sdpa(prob, instance_file, comment=name)
    elif not (os.path.exists(instance_file) and os.path.samefile(source, instance_file)):
        shutil.copyfile(source, instance_file)
    kernel = build_kernel(prob)

    t0 = time.monotonic()
    state, records, status = solve(prob, cfg, kernel=kernel)
    wall = time.monotonic() - t0

    np.save(os.path.join(out_dir, "z_final.npy"), state.Z)
    write_trace_csv(records, os.path.join(out_dir, "trace.csv"))
    summary = {
        "instance": name,
        "instance_file": "instance.dat-s",
        "n": prob.n,
        "m": prob.m,
        "cond_R": prob.cond_R,
        **{key: getattr(cfg, key) for key in _CFG_KEYS},
        "status": status.value,
        "iterations": state.k,
        "r_p": state.residuals[0],
        "r_d": state.residuals[1],
        "r_gap": state.residuals[2],
        "r_max": state.residuals[3],
        "objective": float(np.sum(prob.C * state.X)),
        "failure": state.failure,
        "wall_time_secs": wall,
        "timings": state.timings.to_json(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "provenance": _provenance(),
    }
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


def _cmd_solve(args):
    manifests = [_apply_overrides(_load_manifest(path), args) for path in args.manifest]
    if not manifests:
        raise ValueError("solve needs at least one --manifest")
    summaries = [_run_solve_manifest(man) for man in manifests]
    statuses = [s["status"] for s in summaries]
    n_conv = sum(1 for s in statuses if s == SolveStatus.CONVERGED.value)
    if len(summaries) == 1:
        s = summaries[0]
        line = (
            f"status: {s['status']} instance={s['instance']} k={s['iterations']} "
            f"r_max={s['r_max']:.3e}"
        )
    else:
        line = f"status: {n_conv}/{len(summaries)} runs converged"
    if any(s == SolveStatus.NUMERICAL_FAILURE.value for s in statuses):
        return 1, line
    if n_conv == len(summaries):
        return 0, line
    return 2, line


# Timed phases of diagnose: reading the run, the limit's decomposition with
# the SC and ND tests on its frame, the replay, Fix(M) and ||M - Pi_Fix||,
# and the rate fits.
DIAGNOSE_PHASES = ("load", "frame", "replay", "norms", "fits")

# Fitted trace sequences: (name in diagnostics.json, IterationRecord field).
_FIT_SEQUENCES = (("r_max", "r_max"), ("h_norm", "h_norm"), ("ho_norm", "ho_norm"),
                  ("face_X_norm", "face_x_norm"), ("face_S_norm", "face_s_norm"))


def diagnose_run(run_dir, timings=None):
    """Return the ``diagnostics.json`` object of the run directory ``run_dir``.

    The run is replayed against its own limit for exactly the recorded
    iterations, with no time limit, so a time-limited run is analysed on the
    trajectory it took. The rank tests, ``Fix(M)`` and the one Lanczos
    estimate, of ||M - Pi_Fix||, read one rotation of the constraints into
    the limit's eigenbasis; ||M|| is read off ``Fix(M)`` by
    ``linearization.norm_M``. A norm or ``Fix(M)`` that is not computed
    stays ``None``, with the reason under ``skipped``; one that fails
    numerically also sets ``failure``. ``operator_applications`` counts the
    estimate's operator applications. A malformed ``summary.json`` raises
    ``ValueError`` naming the file or the field. ``timings``, a
    ``PhaseTimings.of(*DIAGNOSE_PHASES)``, receives the time of each phase;
    it stays out of the report, which repeats between commands."""
    if timings is None:
        timings = PhaseTimings.of(*DIAGNOSE_PHASES)
    summary_path = os.path.join(run_dir, "summary.json")
    z_path = os.path.join(run_dir, "z_final.npy")
    if not (os.path.exists(summary_path) and os.path.exists(z_path)):
        raise ValueError(f"run directory {run_dir} is missing summary.json or z_final.npy")
    with timings.phase("load"):
        summary = _load_manifest(summary_path)
        require_keys("summary.json", summary, "instance_file", "status", "iterations")
        require_path("instance_file", summary["instance_file"])
        require_integer("iterations", summary["iterations"])
        prob = load_sdpa(os.path.join(run_dir, summary["instance_file"]))
        kernel = build_kernel(prob)
        z_final = np.load(z_path)

    with timings.phase("frame"):
        dec = eig_sym(z_final)
        sc = diagnostics.sc_check(dec)
        frame = diagnostics.eigen_frame(kernel, dec.Q)
        nd = diagnostics.nd_check(prob, dec, frame)
    report = {
        "run": run_dir,
        "status": summary["status"],
        "sc": sc.__dict__,
        "nd": nd.__dict__,
        "k_id": None,
        "op_norm_M": None,
        "op_norm_M_minus_fix": None,
        "fix_dim": None,
        "skipped": {},
        "operator_applications": {},
        "failure": None,
        "fits": [],
        "provenance": _provenance(),
    }

    cfg = _config_from_manifest(summary)
    cfg.max_iter = summary["iterations"]
    cfg.time_limit_secs = None
    with timings.phase("replay"):
        _, records, _ = solve(prob, cfg, kernel=kernel, reference=z_final)
    k_id = report["k_id"] = diagnostics.rank_trace(records, sc)

    if sc.sc_holds:
        os_ = linearization.build_omega(dec)
        fix = timings.call("norms", linearization.fix_basis, os_, kernel, frame)
        report["fix_dim"] = fix.dim
        try:
            estimate = report["op_norm_M_minus_fix"] = timings.call(
                "norms", linearization.op_norm_M_minus_fix, os_, kernel, fix, frame
            )
        except NumericalFailureError as exc:
            # Report what was computed; the norms left unset stay None. An
            # estimate refused by the gate is still ||M|| when Fix(M) = {0}.
            report["failure"] = {"message": str(exc), "details": exc.details}
            estimate = exc.details.get("value")
        report["op_norm_M"] = linearization.norm_M(fix.dim, estimate)
    report["operator_applications"] = frame.applications
    reason = "numerical failure" if sc.sc_holds else "strict complementarity fails"
    unset = [key for key in ("op_norm_M", "fix_dim", "op_norm_M_minus_fix") if report[key] is None]
    report["skipped"] = dict.fromkeys(unset, reason)

    if summary["status"] == SolveStatus.CONVERGED.value and records:
        idx_id = next((i for i, r in enumerate(records) if r.k == k_id), 0) if k_id is not None else 0
        window = diagnostics.trailing_window(len(records) - 1, idx_id)
        ks = np.array([r.k for r in records[:-1]], dtype=float)
        for name, field in _FIT_SEQUENCES:
            vals = np.array([getattr(r, field) for r in records[:-1]], dtype=float)
            keep = vals > 0.0
            if keep.sum() < window:
                continue
            try:
                fit = timings.call("fits", diagnostics.rate_fit, vals[keep], window,
                                   ks=ks[keep], name=name)
            except ValueError:
                continue  # a tail that cannot be fit gets no entry
            report["fits"].append({"sequence": name, "rho_hat": fit.rho_hat, "r2": fit.r2,
                                   "window": list(fit.window)})
    return report


def _cmd_diagnose(args):
    timings = PhaseTimings.of(*DIAGNOSE_PHASES)
    report = diagnose_run(args.run, timings)
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    _write_json(report, os.path.join(out_dir, "diagnostics.json"))
    _write_json(timings.to_json(), os.path.join(out_dir, "diagnose_timings.json"))

    sc, nd, failure = report["sc"], report["nd"], report["failure"]
    holds = {True: "holds", False: "fails"}
    if report["status"] != SolveStatus.CONVERGED.value:
        print("=== NOT CONVERGED: diagnostics reflect the last iterate ===")
    print(f"run             {report['run']}")
    print(f"status          {report['status']}")
    print(f"SC              {holds[sc['sc_holds']]}  "
          f"(r={sc['r']}, s={sc['s']}, min|lam|={sc['lam_min_abs_z']:.3e})")
    print(f"primal ND       {holds[nd['primal_nd']]}")
    print(f"dual ND         {holds[nd['dual_nd']]}")
    print(f"rank id at k    {report['k_id']}")
    if report["op_norm_M"] is not None:
        reason = f"dim Fix = {report['fix_dim']} > 0" if report["fix_dim"] else "= ||M - P_Fix||"
        print(f"||M||           {report['op_norm_M']:.6f}  ({reason})")
    if report["op_norm_M_minus_fix"] is not None:
        print(f"||M - P_Fix||   {report['op_norm_M_minus_fix']:.6f}  "
              f"(dim Fix = {report['fix_dim']}, "
              f"{report['operator_applications']['op_norm_M_minus_fix']} operator applications)")
    for key, reason in report["skipped"].items():
        print(f"skipped         {key}: {reason}")
    if failure is not None:
        print(f"norm failure    {failure['message']}")
    for f in report["fits"]:
        print(f"rate {f['sequence']:<12} rho_hat={f['rho_hat']:.6f} r2={f['r2']:.4f} "
              f"window={f['window'][0]}..{f['window'][1]}")
    line = (
        f"status: diagnosed {args.run} sc={holds[sc['sc_holds']]} "
        f"primal_nd={holds[nd['primal_nd']]} dual_nd={holds[nd['dual_nd']]}"
    )
    return (0 if failure is None else 1), line


def _eb_inputs(manifest):
    zsrc = require_object("z", manifest.get("z", {"random": {"n": 8, "seed": 0}}))
    hsrc = require_object("h", manifest.get("h", {"random": {"seed": 1}}))
    if "file" in zsrc:
        require_path("file", zsrc["file"])
        z = np.load(zsrc["file"])
        if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] < 2:
            raise ValueError(f"z.file must be a square matrix of order >= 2, got shape {z.shape}")
        z = symmetrize(z)
    else:
        require_keys("z", zsrc, "random")
        rnd = require_object("z.random", zsrc["random"])
        require_keys("z.random", rnd, "n")
        n, seed = rnd["n"], rnd.get("seed", 0)
        require_integer("n", n)
        require_integer("seed", seed)
        if n < 2:
            raise ValueError(f"n must be at least 2, so that Z has both eigenvalue signs, got {n}")
        rng = np.random.default_rng(seed)
        q = haar_orthogonal(n, rng)
        lam = rng.uniform(0.5, 2.0, size=n) * np.where(np.arange(n) < (n + 1) // 2, 1.0, -1.0)
        z = symmetrize((q * lam) @ q.T)
    if "file" in hsrc:
        require_path("file", hsrc["file"])
        h = np.load(hsrc["file"])
        if h.shape != z.shape:
            raise ValueError(f"h.file must have the shape {z.shape} of z, got {h.shape}")
        h = symmetrize(h)
    else:
        require_keys("h", hsrc, "random")
        seed = require_object("h.random", hsrc["random"]).get("seed", 1)
        require_integer("seed", seed)
        rng = np.random.default_rng(seed)
        h = symmetrize(rng.standard_normal(z.shape))
        h /= sym_norm2(h)
    return z, h


def _cmd_eb_verify(args):
    if len(args.manifest) > 1:
        raise ValueError("eb-verify takes at most one --manifest")
    manifest = _load_manifest(args.manifest[0]) if args.manifest else {}
    if args.out is not None:
        manifest["out"] = args.out
    scales = manifest.get("scales", [1e-1, 1e-2, 1e-3, 1e-4])
    if not isinstance(scales, list) or not scales:
        raise ValueError(f"scales must be a non-empty list of positive numbers, got {scales!r}")
    for t in scales:
        require_number("scales", t)
    out_dir = manifest.get("out", ".")
    require_path("out", out_dir)
    timings = PhaseTimings.of("inputs", "reference", "scan", "elimination")
    with timings.phase("inputs"):
        z, h = _eb_inputs(manifest)
    with timings.phase("reference"):
        ref = eb_reference(z, h)
    with timings.phase("scan"):
        report = ref.scan(scales)
    os.makedirs(out_dir, exist_ok=True)
    report.write_csv(os.path.join(out_dir, "eb_report.csv"))
    _write_json(report.to_dict(), os.path.join(out_dir, "eb_report.json"))
    t_min = float(min(scales))
    with timings.phase("elimination"):
        # Z's decomposition, the rotation of H and Pi(Z + t_min H) are the
        # scan's.
        v, iters, _ = ref.eliminate(t_min)
        deviation = float(np.linalg.norm(v - ref.projection(t_min)[0]))
    _write_json(timings.to_json(), os.path.join(out_dir, "eb_timings.json"))
    print(f"elimination agreement at t={t_min:g}: deviation={deviation:.3e} ({iters} sweeps)")
    line = (
        f"status: ok max_refined_ratio={float(np.max(report.ratios)):.3e} "
        f"elimination_deviation={deviation:.3e}"
    )
    return 0, line


def _cmd_generate(args):
    if args.kind == "planted":
        for field in ("n", "m", "r"):
            if getattr(args, field) is None:
                raise ValueError(f"generate planted needs --{field}")
        prob, cert = generate_planted(
            args.n, args.m, args.r, args.seed or 0, degeneracy=args.degeneracy
        )
        out = args.out or f"planted-n{args.n}-m{args.m}-r{args.r}-seed{args.seed or 0}.dat-s"
        write_sdpa(prob, out, comment=os.path.basename(out))
        rp, rd, comp = cert.kkt_residuals(prob)
        sidecar = {
            "Xstar": cert.Xstar.tolist(),
            "ystar": cert.ystar.tolist(),
            "Sstar": cert.Sstar.tolist(),
            "Qstar": cert.Qstar.tolist(),
            "r": cert.r,
            "s": cert.s,
            "seed": args.seed or 0,
            "degeneracy": args.degeneracy,
            "kkt_residuals": {"primal": rp, "dual": rd, "complementarity": comp},
        }
        _write_json(sidecar, out + ".cert.json")
        return 0, f"status: wrote {out} and {out}.cert.json"
    if args.kind == "maxcut":
        if not args.edges:
            raise ValueError("generate maxcut needs --edges FILE")
        prob = generate_maxcut(_load_edge_list(args.edges))
        out = args.out or (os.path.splitext(args.edges)[0] + ".dat-s")
        write_sdpa(prob, out, comment=os.path.basename(out))
        return 0, f"status: wrote {out}"
    raise ValueError(f"unknown generate kind {args.kind!r}")


def _build_parser():
    parser = argparse.ArgumentParser(prog="sdpadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--manifest", action="append", default=[], help="JSON manifest path")
        sp.add_argument("--out", default=None)

    sp_solve = sub.add_parser("solve", help="run the solver on manifest-described instances")
    add_io(sp_solve)
    sp_solve.add_argument("--sigma", type=float, default=None)
    sp_solve.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sp_solve.add_argument("--tol", type=float, default=None)
    sp_solve.add_argument("--seed", type=int, default=None)
    sp_solve.add_argument("--init", choices=("zero", "gaussian"), default=None)

    sp_diag = sub.add_parser("diagnose", help="analyze a finished run directory")
    sp_diag.add_argument("--run", required=True, help="run directory written by solve")
    sp_diag.add_argument("--out", default=None)

    sp_eb = sub.add_parser("eb-verify", help="projection linearization residual scan")
    add_io(sp_eb)

    sp_gen = sub.add_parser("generate", help="write instances as .dat-s files")
    sp_gen.add_argument("kind", choices=("planted", "maxcut"))
    sp_gen.add_argument("--n", type=int, default=None)
    sp_gen.add_argument("--m", type=int, default=None)
    sp_gen.add_argument("--r", type=int, default=None)
    sp_gen.add_argument("--seed", type=int, default=None)
    sp_gen.add_argument("--degeneracy", choices=("none", "primal_nd_fail"), default="none")
    sp_gen.add_argument("--edges", default=None)
    sp_gen.add_argument("--out", default=None)
    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
    "eb-verify": _cmd_eb_verify,
    "generate": _cmd_generate,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code, line = _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if line is not None:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
