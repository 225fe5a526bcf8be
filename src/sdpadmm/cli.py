"""Batch command-line front end.

Subcommands: ``solve`` (run the solver on an instance, emit a trace CSV and a
JSON summary), ``diagnose`` (post-hoc analysis of a finished run directory),
``eb-verify`` (projection linearization residual scan plus elimination
agreement check), and ``generate`` (write planted or max-cut instances as
.dat-s files). Runs are described by JSON manifests. Each flag of
``solve``, ``eb-verify`` and ``generate`` is the field of its name (``--tol``
sets ``tol_rmax``); a flag given overrides the manifest's field, and a field
given by neither takes the default of the code that reads it
(``SolverConfig``, ``generate_planted``). A field that no reader knows is an
error. Identical manifest and seed produce byte-identical trace CSVs;
wall-clock metadata lives only in the JSON summary. Every JSON file written
is standard JSON: a non-finite number is written as ``null``.

``generate`` spells a generator object from its flags and builds it through
``_instance_from_manifest``, as ``solve`` does with its manifest's. ``.npy``
inputs (``z_final.npy``, eb-verify's ``z.file`` and ``h.file``) must hold a
numpy array of real numbers.

``solve`` writes a run directory once (the instance file as read, or as
generated, every ``SolverConfig`` field, and ``run.npz``: the arrays the run
iterated on and its restart points). ``diagnose`` changes none of it,
parses ``instance.dat-s`` only in a directory without ``run.npz``, and
writes the object ``diagnose_run(run_dir)`` returns as ``diagnostics.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import inspect
import json
import math
import os
import platform
import shutil
import sys
import time
import zipfile

import numpy as np
import scipy

from . import __version__, analysis
from .elimination import eb_reference
from .errors import (
    NumericalFailureError,
    require_integer,
    require_keys,
    require_number,
    require_object,
    require_path,
)
from .linalg import RANK_TAU, svec_dim, sym_norm2, symmetrize
from .problem import (
    SdpProblem,
    build_kernel,
    generate_maxcut,
    generate_planted,
    haar_orthogonal,
    load_sdpa,
    write_sdpa,
)
from .solver import (
    Checkpoint,
    PhaseTimings,
    SolveStatus,
    SolverConfig,
    read_trace_csv,
    solve,
    write_trace_csv,
)

_CFG_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))
_PLANTED = inspect.signature(generate_planted)


def _finite(obj):
    """``obj`` with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite(obj), fh, indent=1, allow_nan=False)
        fh.write("\n")


@functools.cache
def _openblas_threads_reader():
    """``scipy_openblas_get_num_threads64_`` of the OpenBLAS bundled with
    numpy, or None where numpy bundles none. The library is the one numpy
    has loaded, so the handle reads this process's thread count."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    try:
        reader = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    reader.argtypes = []
    reader.restype = ctypes.c_int
    return reader


def _blas_threads():
    """The thread count of numpy's OpenBLAS in this process, or None."""
    reader = _openblas_threads_reader()
    return None if reader is None else int(reader())


def _provenance():
    """What a command ran on: the package, Python, numpy and scipy versions,
    the BLAS that numpy and scipy were built with, and the thread count of
    numpy's BLAS, which decides how it rounds. It holds no timestamp and no
    instance hash, so it repeats between commands."""
    return {
        "sdpadmm": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": _blas_threads(),
    }


def _load_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return manifest


# The leading bytes of a .npy file, of a zip archive and of an empty one.
_NP_MAGIC = (b"\x93NUMPY", b"PK\x03\x04", b"PK\x05\x06")


def _np_load(path, what):
    """The array of the ``.npy`` file at ``path``, or the arrays of the ``.npz``
    archive there as a dict read whole while the file is open, nothing
    pickled; a file that starts as neither, or that numpy cannot read, is a
    ValueError naming ``what``."""
    with open(path, "rb") as fh:  # also closes the file an .npz archive keeps open
        if not fh.read(6).startswith(_NP_MAGIC):
            raise ValueError(f"{what}: not a .npy file or .npz archive")
        fh.seek(0)
        try:
            val = np.load(fh, allow_pickle=False)
            return dict(val) if isinstance(val, np.lib.npyio.NpzFile) else val
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            # numpy refuses an object array by naming its allow_pickle switch,
            # which no input of the package is loaded with.
            text = "holds an object array" if "allow_pickle" in str(exc) else exc
            raise ValueError(f"{what}: {text}") from None


def _load_matrix(path, what):
    """The array in the ``.npy`` file ``path`` as floats; a ValueError names
    the field ``what`` unless the file holds a numpy array of real numbers
    (not an ``.npz`` archive, a pickle or a complex array)."""
    val = _np_load(path, what)
    if isinstance(val, dict) or val.dtype.kind not in "fiu":
        got = "an .npz archive" if isinstance(val, dict) else f"dtype {val.dtype}"
        raise ValueError(f"{what} must be a .npy array of real numbers, got {got}")
    return val.astype(float, copy=False)


def _flags(args):
    """The fields given as flags: every option of ``args`` but ``--manifest``.
    An option's ``dest`` is its field, and an option not given is absent."""
    return {key: val for key, val in vars(args).items() if key not in ("command", "manifest")}


def _config_from_manifest(manifest):
    kwargs = {k: manifest[k] for k in _CFG_KEYS if k in manifest}
    cfg = SolverConfig(**kwargs)
    cfg.validate()
    return cfg


def _instance_from_manifest(manifest):
    """Build (problem, name, certificate-or-None, generator-or-None) from the
    manifest's single instance source: an SDPA ``instance`` path, or a
    ``generator`` object, which comes back with its defaults filled in.

    This is the only place that turns a generator object into an instance;
    ``solve`` reads the object from its manifest and ``generate`` builds it
    from its flags. A planted object holds ``kind`` and the parameters of
    ``generate_planted``, whose signature gives the defaults; it is named
    ``planted-n{n}-m{m}-r{r}-s{seed}`` and comes with its certificate. A
    max-cut object holds ``kind`` and ``edges``; it is named after its edge
    file and has no certificate."""
    has_path = "instance" in manifest
    has_gen = "generator" in manifest
    if has_path == has_gen:
        raise ValueError("manifest needs exactly one of 'instance' or 'generator'")
    if has_path:
        path = manifest["instance"]
        require_path("instance", path)
        return load_sdpa(path), os.path.basename(path), None, None
    gen = require_object("generator", manifest["generator"])
    kind = gen.get("kind")
    if kind == "planted":
        require_keys("generator", gen, "n", "m", "r", allowed=("kind", *_PLANTED.parameters))
        bound = _PLANTED.bind(**{key: val for key, val in gen.items() if key != "kind"})
        bound.apply_defaults()
        gen = {"kind": kind, **bound.arguments}
        prob, cert = generate_planted(**bound.arguments)
        return prob, "planted-n{n}-m{m}-r{r}-s{seed}".format(**gen), cert, gen
    if kind == "maxcut":
        require_keys("generator", gen, "edges", allowed=("kind",))
        require_path("edges", gen["edges"])
        adjacency = _load_edge_list(gen["edges"])
        return generate_maxcut(adjacency), os.path.basename(gen["edges"]), None, gen
    raise ValueError(f"unknown generator kind {kind!r}")


def _load_edge_list(path):
    """Edge-list file: optional '#' comments, first data line is the vertex
    count alone, then one '1-based i j' pair per line and nothing else."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append((number, line))
    if not entries:
        raise ValueError(f"edge list {path} is empty")

    def integers(entry, count, what):
        # The ``count`` tokens of a data line as integers; a ValueError names
        # the file and the 1-based line number and text.
        number, line = entry
        tokens = line.split()
        try:
            if len(tokens) != count:
                raise ValueError
            return [int(tok) for tok in tokens]
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
    """Execute one solve manifest, whose fields and ``out`` ``_cmd_solve``
    has checked; returns the summary dict (also written to the output
    directory together with the trace and the final iterate)."""
    out_dir = manifest["out"]
    cfg = _config_from_manifest(manifest)
    prob, name, *_ = _instance_from_manifest(manifest)
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
    # What diagnose replays: the arrays the run iterated on, so that it need
    # not parse the text again (the table on its column support only), and
    # the run's restart points.
    support, cps = prob._support, state.checkpoints
    np.savez(os.path.join(out_dir, "run.npz"), C=prob.C, b=prob.b, support=support,
             columns=prob.table[:, support], k=np.array([c.k for c in cps], dtype=np.int64),
             z=np.array([c.z for c in cps]).reshape(len(cps), prob.n, prob.n),
             u_z=np.array([c.u_z for c in cps]).reshape(len(cps), prob.m))
    summary = {
        "instance": name,
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
    manifests = [{**_load_manifest(path), **_flags(args)} for path in args.manifest]
    if not manifests:
        raise ValueError("solve needs at least one --manifest")
    # Before any run starts: known fields only, and one output directory per run.
    outs = {}
    for i, man in enumerate(manifests):
        require_keys("manifest", man, "out", allowed=("instance", "generator", *_CFG_KEYS))
        require_path("out", man["out"])
        first = outs.setdefault(os.path.realpath(man["out"]), i)
        if first != i:
            raise ValueError(f"manifests {args.manifest[first]} and {args.manifest[i]} share "
                             f"the output directory {man['out']}")
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


# Timed phases of diagnose: reading the run, then those of the analysis.
DIAGNOSE_PHASES = ("load", *analysis.PHASES)


def diagnose_run(run_dir, timings=None):
    """The ``diagnostics.json`` object of the run directory ``run_dir``: its
    ``run`` and ``status``, the report of ``analysis.analyse`` on the run's
    arrays, and this process's ``provenance``. A ValueError names the file
    or the field of a malformed ``summary.json`` (one missing a
    ``SolverConfig`` field included), ``run.npz`` or ``trace.csv``, or of a
    ``z_final.npy`` that is not a real (n, n) array; a replay that differs
    from ``trace.csv`` also names the recorded and current BLAS thread
    counts when they differ. ``timings``, a
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
        require_keys("summary.json", summary, "status", "iterations")
        statuses = [s.value for s in SolveStatus]
        if summary["status"] not in statuses:
            raise ValueError(f"status must be one of {', '.join(map(repr, statuses))}, "
                             f"got {summary['status']!r}")
        iterations = summary["iterations"]
        require_integer("iterations", iterations)
        if iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {iterations}")
        prob, checkpoints = _load_run(run_dir, summary)
        z_final = _load_matrix(z_path, "z_final.npy")
        if z_final.shape != (prob.n, prob.n):
            raise ValueError(f"z_final.npy has shape {z_final.shape}, expected {(prob.n,) * 2}")
        # The replay must be the recorded run: no SolverConfig field may fall
        # back to its default.
        require_keys("summary.json", summary, *_CFG_KEYS)
        cfg = _config_from_manifest(summary)
        rows = read_trace_csv(os.path.join(run_dir, "trace.csv"))
    try:
        report = analysis.analyse(prob, cfg, iterations, z_final, rows, checkpoints,
                                  SolveStatus(summary["status"]), timings)
    except analysis.ReplayMismatchError as exc:
        provenance = summary.get("provenance")
        solved = provenance.get("blas_threads") if isinstance(provenance, dict) else None
        threads = _blas_threads()
        if None in (solved, threads) or solved == threads:
            raise
        raise ValueError(f"{exc}; summary.json records {solved} BLAS threads, this process "
                         f"runs {threads}") from None
    return {"run": run_dir, "status": summary["status"], **report, "provenance": _provenance()}


def _load_run(run_dir, summary):
    """The problem of the run in ``run_dir`` and its restart points, a list
    of ``Checkpoint`` in increasing ``k``, from ``run.npz``: exactly the
    real arrays ``C``, ``b``, ``support``, ``columns``, ``k``, ``z`` and
    ``u_z``, of shapes that fit ``summary``'s ``n`` and ``m``, with ``k``
    strictly increasing integers in ``1..iterations``; a ValueError names
    the file otherwise. A run directory without that file parses
    ``instance.dat-s`` and has no restart point. Either way
    ``SdpProblem.from_table`` checks the problem."""
    path = os.path.join(run_dir, "run.npz")
    if not os.path.exists(path):
        return load_sdpa(os.path.join(run_dir, "instance.dat-s")), []
    require_keys("summary.json", summary, "n", "m")
    n, m = summary["n"], summary["m"]
    require_integer("n", n)
    require_integer("m", m)
    arrays = _np_load(path, "run.npz")
    if not isinstance(arrays, dict):
        arrays = {}
    for key, a in arrays.items():
        if a.dtype.kind not in "fiu":
            raise ValueError(f"run.npz: array {key!r} must hold real numbers, got dtype {a.dtype}")
    # |support| and the checkpoint count are the lengths of support and k.
    s, c = np.shape(arrays.get("support")), np.shape(arrays.get("k"))
    shapes = {"C": (n, n), "b": (m,), "support": s, "columns": (m, *s), "k": c,
              "z": (*c, n, n), "u_z": (*c, m)}
    if len(s) != 1 or len(c) != 1 or {key: a.shape for key, a in arrays.items()} != shapes:
        raise ValueError(f"run.npz must hold arrays C, b, support, columns, k, z and u_z of "
                         f"shapes ({n}, {n}), ({m},), (s,), ({m}, s), (c,), (c, {n}, {n}) and "
                         f"(c, {m})")
    C, b, support, columns, ks, zs, us = (arrays[key] for key in shapes)
    t = svec_dim(n)
    for key, a, lo, hi in (("support", support, 0, t - 1), ("k", ks, 1, summary["iterations"])):
        if a.dtype.kind not in "iu" or not np.all(a[1:] > a[:-1]) or (
            a.size and (a[0] < lo or a[-1] > hi)
        ):
            raise ValueError(f"run.npz: {key} must hold strictly increasing integers "
                             f"in {lo}..{hi}")
    table = np.zeros((m, t))
    table[:, support] = columns
    return (SdpProblem.from_table(C, table, b),
            [Checkpoint(int(k), z, u) for k, z, u in zip(ks, zs, us)])


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
    for side in ("primal", "dual"):
        below, above = ("none" if v is None else f"{v:.3e}" for v in nd[f"{side}_margin"])
        print(f"{side + ' ND':<16}{holds[nd[f'{side}_nd']]}  "
              f"(relative singular values {below} <= {RANK_TAU:g} < {above})")
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


def _matrix_file(src, name, fits, rule):
    """The symmetrized matrix in the file of the source ``{"file": path}``
    called ``name``; a ValueError states ``rule`` unless ``fits(shape)``."""
    require_keys(name, src, allowed=("file",))
    require_path("file", src["file"])
    a = _load_matrix(src["file"], f"{name}.file")
    if not fits(a.shape):
        raise ValueError(f"{name}.file must {rule}{a.shape}")
    return symmetrize(a)


def _eb_inputs(manifest):
    zsrc = require_object("z", manifest.get("z", {"random": {"n": 8}}))
    hsrc = require_object("h", manifest.get("h", {"random": {}}))
    if "file" in zsrc:
        z = _matrix_file(zsrc, "z", lambda shape: len(shape) == 2 and shape[0] == shape[1] >= 2,
                         "be a square matrix of order >= 2, got shape ")
    else:
        require_keys("z", zsrc, "random", allowed=())
        rnd = require_object("z.random", zsrc["random"])
        require_keys("z.random", rnd, "n", allowed=("seed",))
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
        h = _matrix_file(hsrc, "h", lambda shape: shape == z.shape,
                         f"have the shape {z.shape} of z, got ")
    else:
        require_keys("h", hsrc, "random", allowed=())
        rnd = require_object("h.random", hsrc["random"])
        require_keys("h.random", rnd, allowed=("seed",))
        seed = rnd.get("seed", 1)
        require_integer("seed", seed)
        rng = np.random.default_rng(seed)
        h = symmetrize(rng.standard_normal(z.shape))
        h /= sym_norm2(h)
    return z, h


def _cmd_eb_verify(args):
    if len(args.manifest) > 1:
        raise ValueError("eb-verify takes at most one --manifest")
    manifest = {**(_load_manifest(args.manifest[0]) if args.manifest else {}), **_flags(args)}
    require_keys("manifest", manifest, allowed=("z", "h", "scales", "out"))
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
    # An off-block at rounding level would divide the residual by noise.
    floor = z.shape[0] * np.finfo(float).eps * ref.h_norm
    if ref.ho_norm <= floor:
        raise ValueError(f"H has no off-block in the eigenbasis of Z: ||H~_O||_2 = "
                         f"{ref.ho_norm:.3e} <= n * eps * ||H||_2 = {floor:.3e}")
    with timings.phase("scan"):
        report = ref.scan(scales)
    t_min = float(min(scales))
    with timings.phase("elimination"):
        # Z's decomposition, the rotation of H and Pi(Z + t_min H) are the
        # scan's.
        v, iters, _ = ref.eliminate(t_min)
        deviation = float(np.linalg.norm(v - ref.projection(t_min)[0]))
    # A refused check leaves no file behind.
    os.makedirs(out_dir, exist_ok=True)
    report.write_csv(os.path.join(out_dir, "eb_report.csv"))
    _write_json(report.to_dict(), os.path.join(out_dir, "eb_report.json"))
    _write_json(timings.to_json(), os.path.join(out_dir, "eb_timings.json"))
    print(f"elimination agreement at t={t_min:g}: deviation={deviation:.3e} ({iters} sweeps)")
    line = (
        f"status: ok max_refined_ratio={float(np.max(report.ratios)):.3e} "
        f"elimination_deviation={deviation:.3e}"
    )
    return 0, line


def _cmd_generate(args):
    gen = _flags(args)
    out = gen.pop("out", None)
    prob, name, cert, gen = _instance_from_manifest({"generator": gen})
    stem = os.path.splitext(gen["edges"])[0] if gen["kind"] == "maxcut" else name
    out = out or stem + ".dat-s"
    write_sdpa(prob, out, comment=os.path.basename(out))
    if cert is None:
        return 0, f"status: wrote {out}"
    rp, rd, comp = cert.kkt_residuals(prob)
    sidecar = {
        "Xstar": cert.Xstar.tolist(),
        "ystar": cert.ystar.tolist(),
        "Sstar": cert.Sstar.tolist(),
        "Qstar": cert.Qstar.tolist(),
        "r": cert.r,
        "s": cert.s,
        "seed": gen["seed"],
        "degeneracy": gen["degeneracy"],
        "kkt_residuals": {"primal": rp, "dual": rd, "complementarity": comp},
    }
    _write_json(sidecar, out + ".cert.json")
    return 0, f"status: wrote {out} and {out}.cert.json"


def _build_parser():
    parser = argparse.ArgumentParser(prog="sdpadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The options of solve, eb-verify and generate are fields (``_flags``):
    # each dest is a field's name, and an option not given stays unset.
    fields = {"argument_default": argparse.SUPPRESS}

    def add_io(sp):
        sp.add_argument("--manifest", action="append", default=[], help="JSON manifest path")
        sp.add_argument("--out")

    sp_solve = sub.add_parser("solve", help="run the solver on manifest-described instances",
                              **fields)
    add_io(sp_solve)
    sp_solve.add_argument("--sigma", type=float)
    sp_solve.add_argument("--max-iter", type=int)
    sp_solve.add_argument("--tol", dest="tol_rmax", type=float)
    sp_solve.add_argument("--seed", type=int)
    sp_solve.add_argument("--init")

    sp_diag = sub.add_parser("diagnose", help="analyze a finished run directory")
    sp_diag.add_argument("--run", required=True, help="run directory written by solve")
    sp_diag.add_argument("--out", default=None)

    sp_eb = sub.add_parser("eb-verify", help="projection linearization residual scan", **fields)
    add_io(sp_eb)

    sp_gen = sub.add_parser("generate", help="write instances as .dat-s files", **fields)
    sp_gen.add_argument("kind", help="planted or maxcut")
    sp_gen.add_argument("--n", type=int)
    sp_gen.add_argument("--m", type=int)
    sp_gen.add_argument("--r", type=int)
    sp_gen.add_argument("--seed", type=int)
    sp_gen.add_argument("--degeneracy")
    sp_gen.add_argument("--edges")
    sp_gen.add_argument("--out")
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
    except (ValueError, OSError, KeyError, json.JSONDecodeError, NumericalFailureError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if line is not None:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
