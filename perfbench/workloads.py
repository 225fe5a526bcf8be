"""The four workloads: inputs from the seed, one set-up, one CLI command and
the checks on its outputs.

Each workload writes its inputs under its work directory, builds the argv of
one ``sdpadmm`` command, and checks that command's outputs with numpy alone.
A check returns a :class:`Outcome`; a failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass

import numpy as np

import instances

# Base instances are drawn from this seed; --seed transforms them (see
# instances.py), so every seed does the same solver work.
BASE_SEED = 1


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    iterations: int          # iterations to tolerance, or elimination sweeps
    solve_s: float | None    # time inside solve; None: the whole command
    fingerprint: str         # hash of the outputs that must repeat exactly
    solve_iterations: int | None  # iterations of the solver run inside the command
    constraint_bytes: int    # size of the dense constraint stack


def _sha(*paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


class SolveWorkload:
    """``sdpadmm solve`` on one manifest; checks status, exit code and the
    KKT residuals recomputed from ``z_final.npy`` and ``instance.dat-s``."""

    runs_solve = True
    sigma = 1.0
    tol_rmax: float
    objective = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.manifest_path = os.path.join(workdir, "manifest.json")
        self._verified = None

    def manifest(self):
        # No time_limit_secs: summary.json does not record it, so a limited
        # run would not be replayable.
        return {
            "sigma": self.sigma,
            "tol_rmax": self.tol_rmax,
            "max_iter": 100_000,
            "trace_every": 1,
            "init": "zero",
            "seed": 0,
        }

    def argv(self, cmd_dir):
        return ["solve", "--manifest", self.manifest_path, "--out", cmd_dir]

    def check(self, cmd_dir, code, stdout):
        _require(code == 0, f"solve exited with {code}")
        summary = _read_json(os.path.join(cmd_dir, "summary.json"))
        _require(summary["status"] == "converged", f"status {summary['status']}")
        files = [os.path.join(cmd_dir, name) for name in ("trace.csv", "z_final.npy", "instance.dat-s")]
        fingerprint = _sha(*files)
        if fingerprint != self._verified:
            # Outputs must repeat exactly within a run (the run compares the
            # fingerprints), so the numeric check runs once per distinct output.
            inst = instances.read_sdpa(files[2])
            *_, r_max, obj = instances.kkt_residuals(inst, np.load(files[1]), self.sigma)
            _require(r_max <= self.tol_rmax * (1.0 + 1e-6),
                     f"recomputed r_max {r_max:.3e} > tol {self.tol_rmax:.1e}")
            if self.objective is not None:
                err = abs(obj - self.objective)
                _require(err <= 1e-3 * (1.0 + abs(self.objective)),
                         f"objective {obj!r} misses the planted optimum {self.objective!r}")
            self._verified = fingerprint
        return Outcome(
            iterations=summary["iterations"],
            solve_s=summary["wall_time_secs"],
            fingerprint=fingerprint,
            solve_iterations=summary["iterations"],
            constraint_bytes=8 * summary["m"] * summary["n"] ** 2,
        )


class PlantedSolve(SolveWorkload):
    name = "planted-m300"
    why = ("solve a dense planted SDP read from an SDPA file; the (m,n,n) "
           "constraint passes dominate each iteration and instance I/O is large")
    n, m, r = 40, 300, 6
    tol_rmax = 1e-5

    def params(self):
        return {"kind": "planted", "n": self.n, "m": self.m, "r": self.r,
                "base_seed": BASE_SEED, "transform": "orthogonal constraint mixing",
                **self.manifest()}

    def prepare(self):
        base = instances.planted(self.n, self.m, self.r, np.random.default_rng(BASE_SEED))
        inst = instances.mix_constraints(base, np.random.default_rng(self.seed))
        self.objective = inst.objective
        self.instance_path = os.path.join(self.workdir, "instance.dat-s")
        instances.write_sdpa(inst, self.instance_path)
        _write_json({**self.manifest(), "instance": self.instance_path}, self.manifest_path)

    def setup(self):
        import sdpadmm

        sdpadmm.build_kernel(sdpadmm.load_sdpa(self.instance_path))


class MaxcutSolve(SolveWorkload):
    name = "maxcut-n60"
    why = ("solve the max-cut relaxation of G(60, 0.3); m = n diagonal constraints "
           "stored as a dense n^3 stack, eig_sym a large share")
    n, p = 60, 0.3
    tol_rmax = 1e-5

    def params(self):
        return {"kind": "maxcut", "n": self.n, "p": self.p, "base_seed": BASE_SEED,
                "transform": "vertex relabelling", **self.manifest()}

    def prepare(self):
        base = instances.random_graph(self.n, self.p, np.random.default_rng(BASE_SEED))
        edges = os.path.join(self.workdir, "graph.txt")
        self.adjacency = instances.write_edge_list(base, edges, np.random.default_rng(self.seed))
        _write_json({**self.manifest(), "generator": {"kind": "maxcut", "edges": edges}},
                    self.manifest_path)

    def setup(self):
        import sdpadmm

        sdpadmm.build_kernel(sdpadmm.generate_maxcut(self.adjacency))


class Diagnose:
    """``sdpadmm diagnose`` on a fresh copy of a converged run of a planted
    instance whose primal nondegeneracy fails by construction."""

    runs_solve = False
    name = "diagnose-ndfail"
    why = ("diagnose a converged primal-ND-failing run: replay, rank tests, Fix(M) "
           "and the two power-iteration norms; the only analysis-path workload")
    n, m, r = 24, 100, 3
    tol_rmax = 1e-10

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ref_dir = os.path.join(workdir, "reference-run")

    def params(self):
        return {"kind": "planted", "degeneracy": "primal_nd_fail", "n": self.n, "m": self.m,
                "r": self.r, "base_seed": BASE_SEED, "transform": "orthogonal constraint mixing",
                "sigma": 1.0, "tol_rmax": self.tol_rmax, "max_iter": 100_000, "init": "zero"}

    def prepare(self):
        """Solve the instance once through the CLI; every command diagnoses a
        fresh copy of that run, because diagnose appends to its trace.csv."""
        from sdpadmm.cli import main

        base = instances.planted(self.n, self.m, self.r, np.random.default_rng(BASE_SEED),
                                 nd_fail=True)
        inst = instances.mix_constraints(base, np.random.default_rng(self.seed))
        path = os.path.join(self.workdir, "instance.dat-s")
        instances.write_sdpa(inst, path)
        manifest = os.path.join(self.workdir, "manifest.json")
        _write_json({"instance": path, "sigma": 1.0, "tol_rmax": self.tol_rmax,
                     "max_iter": 100_000, "trace_every": 1, "init": "zero", "seed": 0},
                    manifest)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--manifest", manifest, "--out", self.ref_dir])
        _require(code == 0, f"reference solve exited with {code}")
        self.summary = _read_json(os.path.join(self.ref_dir, "summary.json"))
        self.trace_hash = _sha(os.path.join(self.ref_dir, "trace.csv"))

    def setup(self):
        import sdpadmm

        sdpadmm.build_kernel(sdpadmm.load_sdpa(os.path.join(self.ref_dir, "instance.dat-s")))

    def argv(self, cmd_dir):
        shutil.copytree(self.ref_dir, cmd_dir)
        _require(_sha(os.path.join(cmd_dir, "trace.csv")) == self.trace_hash,
                 "copied run directory differs from the reference run")
        return ["diagnose", "--run", cmd_dir]

    def check(self, cmd_dir, code, stdout):
        _require(code == 0, f"diagnose exited with {code}")
        rep = _read_json(os.path.join(cmd_dir, "diagnostics.json"))
        _require(rep["sc"]["sc_holds"], "strict complementarity should hold")
        _require(not rep["nd"]["primal_nd"], "primal nondegeneracy should fail")
        _require(rep["nd"]["dual_nd"], "dual nondegeneracy should hold")
        _require(rep["fix_dim"] is not None and rep["fix_dim"] >= 1, "Fix(M) should be nontrivial")
        _require(rep["op_norm_M"] <= 1.0 + 1e-6, f"||M|| = {rep['op_norm_M']!r} > 1")
        _require(rep["op_norm_M_minus_fix"] < 1.0, "||M - P_Fix|| should be below 1")
        fits = {f["sequence"]: f["rho_hat"] for f in rep["fits"]}
        _require("h_norm" in fits, "no rate fit for h_norm")
        _require(fits["h_norm"] <= rep["op_norm_M_minus_fix"] + 1e-3,
                 f"rho_hat(h_norm) {fits['h_norm']!r} exceeds ||M - P_Fix|| + 1e-3")
        del rep["run"]
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode())
        digest.update(_sha(os.path.join(cmd_dir, "trace.csv")).encode())
        k = self.summary["iterations"]
        return Outcome(iterations=k, solve_s=None, fingerprint=digest.hexdigest(), solve_iterations=k,
                       constraint_bytes=8 * self.m * self.n**2)


class EbVerify:
    """``sdpadmm eb-verify`` on a random 128 x 128 reference split 64/64."""

    runs_solve = False
    name = "ebverify-edge64"
    why = ("eb-verify at block edge 64/64: the largest Kronecker-path Sylvester "
           "solves; the only workload that reaches elimination")
    n = 128
    scales = [0.1, 0.01, 0.001]
    _line = re.compile(r"deviation=(\S+) \((\d+) sweeps\)")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.z_seed, self.h_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        self.manifest_path = os.path.join(workdir, "manifest.json")

    def params(self):
        return {"kind": "eb-verify", "n": self.n, "z_seed": self.z_seed,
                "h_seed": self.h_seed, "scales": self.scales}

    def prepare(self):
        _write_json({"z": {"random": {"n": self.n, "seed": self.z_seed}},
                     "h": {"random": {"seed": self.h_seed}},
                     "scales": self.scales}, self.manifest_path)

    def setup(self):
        """Build Z and H as the manifest describes and set up elimination at
        the smallest scale: everything before the first sweep."""
        from sdpadmm import init_elimination
        from sdpadmm.problem import haar_orthogonal

        rng = np.random.default_rng(self.z_seed)
        q = haar_orthogonal(self.n, rng)
        lam = rng.uniform(0.5, 2.0, size=self.n) * np.where(np.arange(self.n) < (self.n + 1) // 2, 1.0, -1.0)
        z = (q * lam) @ q.T
        h = np.random.default_rng(self.h_seed).standard_normal((self.n, self.n))
        h = 0.5 * (h + h.T)
        h /= np.linalg.norm(h, 2)
        init_elimination(0.5 * (z + z.T), min(self.scales) * h)

    def argv(self, cmd_dir):
        return ["eb-verify", "--manifest", self.manifest_path, "--out", cmd_dir]

    def check(self, cmd_dir, code, stdout):
        _require(code == 0, f"eb-verify exited with {code}")
        found = self._line.search(stdout)
        _require(found is not None, "no elimination agreement line in the output")
        deviation, sweeps = float(found.group(1)), int(found.group(2))
        _require(deviation <= 1e-10, f"elimination deviation {deviation:.3e} > 1e-10")
        report = _read_json(os.path.join(cmd_dir, "eb_report.json"))
        _require(len(report["t"]) == len(self.scales), "eb_report.json misses scales")
        fingerprint = _sha(os.path.join(cmd_dir, "eb_report.csv"))
        return Outcome(iterations=sweeps, solve_s=None, fingerprint=fingerprint,
                       solve_iterations=None, constraint_bytes=0)


WORKLOADS = {w.name: w for w in (PlantedSolve, MaxcutSolve, Diagnose, EbVerify)}
