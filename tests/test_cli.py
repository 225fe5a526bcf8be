import builtins
import dataclasses
import json
import os
import pickle
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy

import sdpadmm

from sdpadmm import analysis, cli, diagnostics, linalg, linearization
from sdpadmm.cli import main
from sdpadmm.errors import NumericalFailureError
from sdpadmm.problem import generate_planted, load_sdpa, write_sdpa
from sdpadmm.solver import (
    TRACE_HEADER,
    PhaseTimings,
    SolverConfig,
    SolveStatus,
    read_trace_csv,
    solve,
)

from conftest import dense_table


def write_manifest(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture
def planted_manifest(tmp_path):
    out = tmp_path / "run"
    return write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 10, "m": 20, "r": 3, "seed": 1},
        sigma=1.0,
        max_iter=100_000,
        tol_rmax=1e-10,
        seed=1,
        init="gaussian",
        trace_every=1,
        out=str(out),
    ), out


# -- solve -------------------------------------------------------------------


def test_solve_converges_and_writes_artifacts(planted_manifest, capsys):
    manifest, out = planted_manifest
    code = main(["solve", "--manifest", manifest])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.count("status:") == 1
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "z_final.npy").exists()
    assert (out / "instance.dat-s").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["r_max"] <= 1e-10
    assert summary["failure"] is None
    cond_r = np.linalg.cond(load_sdpa(out / "instance.dat-s").R)
    assert summary["cond_R"] == pytest.approx(cond_r, rel=1e-8)
    extractions = summary["iterations"] + 1
    timings = summary["timings"]
    assert set(timings) == {"eig", "constraint_op", "primal_residual", "record"}
    assert timings["eig"]["calls"] == timings["primal_residual"]["calls"] == extractions
    assert timings["constraint_op"]["calls"] == 2 * extractions + 3
    assert all(t["seconds"] >= 0.0 for t in timings.values())
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == TRACE_HEADER
    assert "instance_file" not in summary
    assert not (out / "instance.npz").exists() and not (out / "checkpoints.npz").exists()
    # run.npz: the arrays the run iterated on, the table on its column
    # support, which rebuilds the parsed instance bit for bit, and a restart
    # point at each power of two up to the last iterate.
    parsed = load_sdpa(out / "instance.dat-s")
    with np.load(out / "run.npz", allow_pickle=False) as npz:
        assert sorted(npz.files) == ["C", "b", "columns", "k", "support", "u_z", "z"]
        count = summary["iterations"].bit_length()
        assert npz["k"].tolist() == [2**j for j in range(count)]
        assert npz["z"].shape == (count, 10, 10) and npz["u_z"].shape == (count, 20)
        parsed_table = dense_table(parsed)
        table = np.zeros_like(parsed_table)
        table[:, npz["support"]] = npz["columns"]
        for got, want in [(npz["C"], parsed.C), (table, parsed_table), (npz["b"], parsed.b)]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_summary_records_every_config_field(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest, "--max-iter", "7"]) == 2
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields <= set(summary)
    cfg = SolverConfig(
        sigma=1.0, max_iter=7, tol_rmax=1e-10, time_limit_secs=None,
        trace_every=1, init="gaussian", seed=1,
    )
    assert cli._config_from_manifest(summary) == cfg


def test_summary_and_diagnostics_record_provenance(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest, "--max-iter", "7"]) == 2
    assert main(["diagnose", "--run", str(out)]) == 0
    capsys.readouterr()
    want = {
        "sdpadmm": sdpadmm.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": cli._blas_threads(),
    }
    for name in ("summary.json", "diagnostics.json"):
        assert json.loads((out / name).read_text())["provenance"] == want


def test_blas_threads_reads_the_count_of_its_process():
    if cli._openblas_threads_reader() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    src = os.path.dirname(os.path.dirname(sdpadmm.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    code = "from sdpadmm import cli; print(cli._blas_threads())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "1\n"


def sdpa_source(path):
    """A planted instance in SDPA text that ``write_sdpa`` would not produce
    byte for byte: a comment line, brace header and padded entries."""
    prob, _ = generate_planted(6, 8, 2, seed=4)
    written = path.with_suffix(".written")
    write_sdpa(prob, written)
    lines = written.read_text().splitlines()
    text = "\n".join(
        ["* hand-formatted copy", lines[0], lines[1], "{" + lines[2] + "}", lines[3]]
        + ["  " + line for line in lines[4:]]
    ) + "\n"
    path.write_text(text)
    assert text != written.read_text()
    return path


def test_solve_keeps_instance_file_as_read(tmp_path, capsys):
    source = sdpa_source(tmp_path / "src.dat-s")
    out = tmp_path / "run"
    manifest = write_manifest(tmp_path / "m.json", instance=str(source), tol_rmax=1e-8, out=str(out))
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    assert (out / "instance.dat-s").read_bytes() == source.read_bytes()
    trace = (out / "trace.csv").read_bytes()
    # Solving again from the run directory's own copy leaves it as it is.
    manifest = write_manifest(
        tmp_path / "again.json", instance=str(out / "instance.dat-s"), tol_rmax=1e-8, out=str(out)
    )
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    assert (out / "instance.dat-s").read_bytes() == source.read_bytes()
    assert (out / "trace.csv").read_bytes() == trace


def test_solve_writes_generated_instance(planted_manifest, tmp_path, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest, "--max-iter", "2"]) == 2
    capsys.readouterr()
    expected = tmp_path / "expected.dat-s"
    prob, _ = generate_planted(10, 20, 3, seed=1)
    write_sdpa(prob, expected, comment="planted-n10-m20-r3-s1")
    assert (out / "instance.dat-s").read_bytes() == expected.read_bytes()


def test_solve_iteration_limit_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": 0},
        max_iter=1,
        out=str(out),
    )
    code = main(["solve", "--manifest", manifest])
    assert code == 2
    assert capsys.readouterr().err.count("status:") == 1


def test_solve_missing_instance_file(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json", instance=str(tmp_path / "nope.dat-s"), out=str(tmp_path / "o")
    )
    code = main(["solve", "--manifest", manifest])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_solve_rejects_ambiguous_instance_source(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json",
        instance="x.dat-s",
        generator={"kind": "planted", "n": 4, "m": 4, "r": 1, "seed": 0},
        out=str(tmp_path / "o"),
    )
    assert main(["solve", "--manifest", manifest]) == 1
    capsys.readouterr()


def test_solve_rejects_oversized_sdpa_block(tmp_path, capsys):
    # The dense constraint stack of a 10^7 block would take 728 TiB.
    inst = tmp_path / "huge.dat-s"
    inst.write_text("0\n1\n10000000\n\n")
    manifest = write_manifest(tmp_path / "m.json", instance=str(inst), out=str(tmp_path / "o"))
    assert main(["solve", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "block size 10000000" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("solve", {"generator": {"kind": "planted", "n": 10.5, "m": 8, "r": 2}}, "n"),
        ("solve", {"generator": {"kind": "planted", "n": "10", "m": 8, "r": 2}}, "n"),
        (
            "solve",
            {"generator": {"kind": "planted", "n": 6, "m": 8, "r": 2, "spectrum_floor": "nan"}},
            "spectrum_floor",
        ),
        ("eb-verify", {"scales": 0.1}, "scales"),
        ("eb-verify", {"z": {"random": {"n": 4.5}}}, "n"),
        ("eb-verify", {"z": {"random": {"n": "6"}}}, "n"),
        ("eb-verify", {"z": {"random": {"n": 4, "seed": "x"}}}, "seed"),
        ("eb-verify", {"h": {"random": {"seed": 1.5}}}, "seed"),
    ],
    ids=[
        "n-float", "n-string", "floor-string", "scales-scalar", "z-n-float", "z-n-string",
        "z-seed-string", "h-seed-float",
    ],
)
def test_mistyped_manifest_values_are_error_lines(tmp_path, capsys, command, fields, name):
    manifest = write_manifest(tmp_path / "m.json", out=str(tmp_path / "o"), **fields)
    assert main([command, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("solve", {"out": 7, "instance": "inst.dat-s"}, "out"),
        ("solve", {"out": "o", "instance": 0}, "instance"),
        ("solve", {"out": "o", "generator": {"kind": "maxcut", "edges": 10**6}}, "edges"),
        ("eb-verify", {"out": 7}, "out"),
        ("eb-verify", {"out": "o", "z": {"file": 0}}, "file"),
    ],
    ids=["solve-out-int", "instance-zero", "edges-int", "eb-out-int", "eb-z-file-zero"],
)
def test_path_fields_must_be_strings(tmp_path, capsys, monkeypatch, command, fields, name):
    # A number is never opened as a file descriptor: fd 0 would read stdin
    # (and closing it would close the test process's own stdin).
    monkeypatch.chdir(tmp_path)
    write_sdpa(generate_planted(6, 8, 2, seed=0)[0], tmp_path / "inst.dat-s")
    manifest = write_manifest(tmp_path / "m.json", **fields)
    assert main([command, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a non-empty path string")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.dat-s", "m.json"]


@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("solve", {"generator": 5}, "generator"),
        ("eb-verify", {"z": 5}, "z"),
        ("eb-verify", {"h": 3}, "h"),
        ("eb-verify", {"z": {"random": 5}}, "z.random"),
        ("eb-verify", {"h": {"random": []}}, "h.random"),
    ],
    ids=["generator-int", "z-int", "h-int", "z-random-int", "h-random-list"],
)
def test_nested_manifest_values_must_be_objects(tmp_path, capsys, command, fields, name):
    manifest = write_manifest(tmp_path / "m.json", out=str(tmp_path / "o"), **fields)
    assert main([command, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a JSON object")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("eb-verify", {"z": {}}, "z is missing 'random'"),
        ("eb-verify", {"z": {"random": {"seed": 2}}}, "z.random is missing 'n'"),
        ("eb-verify", {"h": {"seed": 2}}, "h is missing 'random'"),
        ("solve", {"generator": {"kind": "planted"}}, "generator is missing 'n'"),
        ("solve", {"generator": {"kind": "planted", "n": 6, "m": 8}}, "generator is missing 'r'"),
        ("solve", {"generator": {"kind": "maxcut"}}, "generator is missing 'edges'"),
    ],
    ids=["z-empty", "z-random-no-n", "h-no-random", "planted-no-n", "planted-no-r", "maxcut-no-edges"],
)
def test_missing_nested_manifest_keys_are_named(tmp_path, capsys, command, fields, message):
    manifest = write_manifest(tmp_path / "m.json", out=str(tmp_path / "o"), **fields)
    assert main([command, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


_PLANTED = {"kind": "planted", "n": 6, "m": 8, "r": 2, "seed": 0}


@pytest.mark.parametrize(
    "argv, fields, message",
    [
        (["solve"], {"generator": _PLANTED, "tol": 1e-3}, "manifest has unknown field 'tol'"),
        (["solve"], {"generator": {**_PLANTED, "degenracy": "primal_nd_fail"}},
         "generator has unknown field 'degenracy'"),
        (["solve"], {"generator": {"kind": "maxcut", "edges": "g.txt", "seed": 3}},
         "generator has unknown field 'seed'"),
        (["generate", "maxcut", "--edges", "g.txt", "--n", "5"], None,
         "generator has unknown field 'n'"),
        (["eb-verify"], {"scale": 0.1}, "manifest has unknown field 'scale'"),
        (["eb-verify"], {"z": {"random": {"n": 4, "N": 8}}}, "z.random has unknown field 'N'"),
        (["eb-verify"], {"h": {"random": {"seed": 1, "n": 4}}}, "h.random has unknown field 'n'"),
        (["eb-verify"], {"h": {"file": "h.npy", "random": {}}}, "h has unknown field 'random'"),
    ],
    ids=["solve-tol", "planted-degenracy", "maxcut-seed", "generate-maxcut-n", "eb-scale",
         "z-random-N", "h-random-n", "h-file-and-random"],
)
def test_unknown_fields_are_refused(tmp_path, capsys, monkeypatch, argv, fields, message):
    # A misspelled field never falls back to a default: one error line, and
    # no output.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("3\n1 2\n2 3\n")
    np.save(tmp_path / "h.npy", np.eye(8))
    if fields is None:
        argv = [*argv, "--out", "o"]
    else:
        argv = [*argv, "--manifest", write_manifest(tmp_path / "m.json", out="o", **fields)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--manifest", "m.json", "--init", "bogus"], "unknown init mode 'bogus'"),
        (["generate", "planted", "--n", "6", "--m", "8", "--r", "2", "--degeneracy", "bogus"],
         "unknown degeneracy mode 'bogus'"),
        (["generate", "bogus"], "unknown generator kind 'bogus'"),
    ],
    ids=["init", "degeneracy", "kind"],
)
def test_values_are_checked_by_the_code_that_reads_them(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    monkeypatch.chdir(tmp_path)
    write_manifest(tmp_path / "m.json", generator=_PLANTED)
    assert main([*argv, "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_eb_verify_rejects_too_small_z(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json", out=str(tmp_path / "o"), z={"random": {"n": 0}}
    )
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n must be at least 2")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "fields, flags, name",
    [
        ({}, ["--tol", "nan"], "tol_rmax"),
        ({}, ["--sigma", "nan"], "sigma"),
        ({"max_iter": 10.5}, [], "max_iter"),
        ({"sigma": "2"}, [], "sigma"),
    ],
)
def test_solve_rejects_invalid_run_parameters(tmp_path, capsys, fields, flags, name):
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 6, "m": 8, "r": 2, "seed": 0},
        out=str(tmp_path / "o"),
        **fields,
    )
    assert main(["solve", "--manifest", manifest, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_solve_deterministic_traces(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        manifest = write_manifest(
            tmp_path / f"{tag}.json",
            generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": 3},
            max_iter=500,
            seed=5,
            trace_every=3,
            out=str(out),
        )
        assert main(["solve", "--manifest", manifest]) in (0, 2)
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


@pytest.mark.parametrize(
    "error",
    [
        NumericalFailureError("symmetric eigendecomposition failed", n=8, fro_norm=3.5),
        ValueError("matrix contains non-finite entries"),
    ],
    ids=["no_convergence", "non_finite"],
)
def test_solve_eig_failure_keeps_last_state(tmp_path, capsys, monkeypatch, error):
    import sdpadmm.solver as solver_mod

    def run(tag, max_iter):
        out = tmp_path / tag
        manifest = write_manifest(
            tmp_path / f"{tag}.json",
            generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": 0},
            max_iter=max_iter,
            seed=2,
            out=str(out),
        )
        return main(["solve", "--manifest", manifest]), out

    code, ref = run("limit", 4)
    assert code == 2
    # The 5th factorization is the one of Z_4, after iterate 3.
    calls = {"n": 0}
    real = solver_mod.eig_sym

    def failing(a, **kwargs):
        calls["n"] += 1
        if calls["n"] == 5:
            raise error
        return real(a, **kwargs)

    monkeypatch.setattr(solver_mod, "eig_sym", failing)
    code, out = run("fail", 100)
    assert code == 1
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical_failure"
    assert summary["iterations"] == 3
    assert summary["failure"] == {
        "message": str(error),
        "details": getattr(error, "details", {}),
    }
    assert summary["timings"]["eig"]["calls"] == 4
    # Records k = 0..3, the same as a run stopped by its limit at k = 4.
    trace = (out / "trace.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in trace[1:]] == ["0", "1", "2", "3"]
    assert (out / "trace.csv").read_bytes() == (ref / "trace.csv").read_bytes()
    # The last extracted iterate, Z_3, is the one written.
    prob = load_sdpa(out / "instance.dat-s")
    state, _, _ = solve(prob, cli._config_from_manifest({"max_iter": 3, "seed": 2}))
    assert np.array_equal(np.load(out / "z_final.npy"), state.Z)


def test_solve_flag_overrides_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 6, "m": 8, "r": 2, "seed": 0},
        sigma=1.0,
        max_iter=100,
        out=str(out),
    )
    assert main(["solve", "--manifest", manifest, "--sigma", "2.5", "--max-iter", "3"]) == 2
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sigma"] == 2.5
    assert summary["iterations"] == 3


def test_solve_batch_jobs(tmp_path, capsys):
    manifests = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        manifests += [
            "--manifest",
            write_manifest(
                tmp_path / f"m{seed}.json",
                generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": seed},
                seed=seed,
                max_iter=50_000,
                out=str(out),
            ),
        ]
    code = main(["solve", *manifests])
    captured = capsys.readouterr()
    assert code == 0
    assert "2/2" in captured.err
    assert (tmp_path / "run1" / "summary.json").exists()
    assert (tmp_path / "run2" / "summary.json").exists()


@pytest.mark.parametrize("outs", [None, ("run", "x/../run")], ids=["flag", "fields"])
def test_solve_refuses_manifests_that_share_an_output_directory(tmp_path, capsys, monkeypatch,
                                                                  outs):
    monkeypatch.chdir(tmp_path)
    paths = [
        write_manifest(tmp_path / f"m{seed}.json", generator={**_PLANTED, "seed": seed},
                       max_iter=5, **({} if outs is None else {"out": outs[seed]}))
        for seed in (0, 1)
    ]
    flags = ["--out", "run"] if outs is None else []
    argv = ["solve", "--manifest", paths[0], "--manifest", paths[1], *flags]
    assert main(argv) == 1
    shared = "run" if outs is None else outs[1]
    assert capsys.readouterr().err == (
        f"error: manifests {paths[0]} and {paths[1]} share the output directory {shared}\n"
    )
    assert not (tmp_path / "run").exists()


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("error")
def test_numerical_failure_prints_only_its_status_line(tmp_path, capsys):
    out = tmp_path / "run"
    manifest = write_manifest(tmp_path / "m.json", generator=_PLANTED, out=str(out), sigma=1e300)
    assert main(["solve", "--manifest", manifest]) == 1
    assert capsys.readouterr().err == (
        "status: numerical_failure instance=planted-n6-m8-r2-s0 k=0 r_max=inf\n"
    )


@pytest.mark.parametrize(
    "fields, code, name, read",
    [
        ({"sigma": 1e300}, 1, "summary.json", lambda summary: summary["r_d"]),
        ({"max_iter": 0, "init": "zero"}, 2, "diagnostics.json", lambda rep: rep["sc"]["eigengap"]),
    ],
    ids=["numerical-failure", "zero-limit"],
)
def test_json_outputs_write_non_finite_numbers_as_null(tmp_path, capsys, fields, code, name, read):
    out = tmp_path / "run"
    manifest = write_manifest(tmp_path / "m.json", generator=_PLANTED, out=str(out), **fields)
    assert main(["solve", "--manifest", manifest]) == code
    assert main(["diagnose", "--run", str(out)]) == 0
    capsys.readouterr()
    for path in out.glob("*.json"):
        _strict_json(path)
    assert read(_strict_json(out / name)) is None


# -- diagnose ----------------------------------------------------------------


RUN_FILES = ("trace.csv", "summary.json", "z_final.npy", "instance.dat-s", "run.npz")


def test_diagnose_finished_run(planted_manifest, tmp_path, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    written = {name: (out / name).read_bytes() for name in RUN_FILES}
    code = main(["diagnose", "--run", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.count("status:") == 1
    report = json.loads((out / "diagnostics.json").read_text())
    assert cli.diagnose_run(str(out)) == report
    assert report["sc"]["sc_holds"] is True
    assert report["nd"]["primal_nd"] is True and report["nd"]["dual_nd"] is True
    assert report["k_id"] is not None
    assert report["op_norm_M"] is not None and report["op_norm_M"] < 1.0
    assert report["failure"] is None
    assert report["skipped"] == {}
    # ND holds, so Fix(M) = {0} and ||M|| is the one estimate, ||M - P_Fix||.
    assert report["fix_dim"] == 0
    assert report["op_norm_M"] == report["op_norm_M_minus_fix"]
    counts = report["operator_applications"]
    assert set(counts) == {"op_norm_M_minus_fix"} and counts["op_norm_M_minus_fix"] > 0
    assert any(f["sequence"] == "h_norm" for f in report["fits"])
    for fit in report["fits"]:
        if fit["sequence"] == "h_norm":
            assert fit["rho_hat"] <= report["op_norm_M"] + 0.02
    assert "SC              holds" in captured.out
    assert f"||M||           {report['op_norm_M']:.6f}  (= ||M - P_Fix||)" in captured.out
    assert f"(dim Fix = 0, {counts['op_norm_M_minus_fix']} operator applications)" in captured.out
    # diagnose writes only diagnostics.json and its phase timings; what solve
    # wrote stays as it was.
    assert main(["diagnose", "--run", str(out)]) == 0
    assert main(["diagnose", "--run", str(out), "--out", str(tmp_path / "elsewhere")]) == 0
    capsys.readouterr()
    assert {name: (out / name).read_bytes() for name in RUN_FILES} == written
    assert sorted(p.name for p in (tmp_path / "elsewhere").iterdir()) == [
        "diagnose_timings.json", "diagnostics.json"
    ]
    assert (tmp_path / "elsewhere" / "diagnostics.json").read_bytes() == (
        out / "diagnostics.json"
    ).read_bytes()
    timings = json.loads((out / "diagnose_timings.json").read_text())
    assert list(timings) == ["load", "frame", "replay", "norms", "fits"]
    calls = {phase: t["calls"] for phase, t in timings.items()}
    assert calls == {"load": 1, "frame": 1, "replay": 1, "norms": 2, "fits": len(report["fits"])}
    assert all(t["seconds"] >= 0.0 for t in timings.values())


def test_diagnose_unconverged_run_banner(tmp_path, capsys):
    out = tmp_path / "run"
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": 0},
        max_iter=5,
        out=str(out),
    )
    assert main(["solve", "--manifest", manifest]) == 2
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 0
    captured = capsys.readouterr()
    assert "NOT CONVERGED" in captured.out
    report = json.loads((out / "diagnostics.json").read_text())
    assert cli.diagnose_run(str(out)) == report
    assert report["fits"] == []


def test_diagnose_replays_recorded_iterations(tmp_path, capsys, monkeypatch):
    # A run that hit its time limit at k = 51 (on a slow or loaded host) is
    # replayed for exactly those 51 iterations, not up to max_iter.
    out = tmp_path / "run"
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 8, "m": 12, "r": 2, "seed": 0},
        max_iter=51,
        out=str(out),
    )
    assert main(["solve", "--manifest", manifest]) == 2
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert summary["iterations"] == 51 and summary["time_limit_secs"] is None
    summary.update(status="time_limit", max_iter=3000, time_limit_secs=60.0)
    summary_path.write_text(json.dumps(summary))
    replays = []

    def recording_solve(*args, **kwargs):
        replays.append(solve(*args, **kwargs))
        return replays[-1]

    monkeypatch.setattr(analysis, "solve", recording_solve)
    assert main(["diagnose", "--run", str(out)]) == 0
    capsys.readouterr()
    ((state, _, _),) = replays
    assert state.k == 51
    assert np.array_equal(state.Z, np.load(out / "z_final.npy"))


def _time_limited(out):
    # The run as if its time limit had stopped it, as in
    # test_diagnose_replays_recorded_iterations.
    summary = json.loads((out / "summary.json").read_text())
    summary.update(status="time_limit", max_iter=3000, time_limit_secs=60.0)
    (out / "summary.json").write_text(json.dumps(summary))


def _sc_failing_limit(out):
    # As in test_diagnose_says_why_it_skipped_the_norms.
    dec = linalg.eig_sym(np.load(out / "z_final.npy"))
    lam = dec.lam.copy()
    lam[np.argmin(np.abs(lam))] = 0.0
    np.save(out / "z_final.npy", linalg.symmetrize((dec.Q * lam) @ dec.Q.T))


def _write_graph(path):
    rng = np.random.default_rng(5)
    pairs = [(i, j) for i in range(1, 13) for j in range(i + 1, 13) if rng.random() < 0.4]
    path.write_text("12\n" + "".join(f"{i} {j}\n" for i, j in pairs))
    return str(path)


_ND_FAIL = {"kind": "planted", "n": 10, "m": 20, "r": 3, "seed": 1,
            "degeneracy": "primal_nd_fail"}


@pytest.mark.parametrize(
    "fields, edit",
    [
        ({"generator": {"kind": "planted", "n": 10, "m": 20, "r": 3, "seed": 1}}, None),
        ({"generator": _ND_FAIL}, None),
        ({"generator": "maxcut", "tol_rmax": 1e-8}, None),
        ({"generator": _ND_FAIL, "trace_every": 3}, None),
        ({"generator": _PLANTED, "max_iter": 51}, _time_limited),
        ({"generator": _ND_FAIL, "max_iter": 40}, None),
        ({"generator": _ND_FAIL}, _sc_failing_limit),
        ({"instance": "generated"}, None),
    ],
    ids=["nd", "primal-nd-fail", "maxcut", "trace-every-3", "time-limited", "unconverged",
         "sc-fails", "generated-file"],
)
def test_diagnose_from_a_checkpoint_matches_the_full_replay(tmp_path, capsys, monkeypatch,
                                                             fields, edit):
    # Parsing instance.dat-s and replaying from k = 0 is the oracle: the same
    # run directory without run.npz gives the same report.
    out = tmp_path / "run"
    if fields.get("generator") == "maxcut":
        fields = {**fields, "generator": {"kind": "maxcut",
                                          "edges": _write_graph(tmp_path / "g.txt")}}
    if "instance" in fields:
        path = tmp_path / "g.dat-s"
        assert main(["generate", "planted", "--n", "12", "--m", "30", "--r", "3", "--seed", "2",
                     "--out", str(path)]) == 0
        fields = {"instance": str(path)}
    manifest = write_manifest(tmp_path / "m.json", out=str(out), seed=1, **fields)
    assert main(["solve", "--manifest", manifest]) in (0, 2)
    capsys.readouterr()
    if edit is not None:
        edit(out)
    starts, parsed = [], []

    def recording_solve(*args, start=None, **kwargs):
        starts.append(start)
        return solve(*args, start=start, **kwargs)

    def recording_load_sdpa(path):
        parsed.append(path)
        return load_sdpa(path)

    monkeypatch.setattr(analysis, "solve", recording_solve)
    monkeypatch.setattr(cli, "load_sdpa", recording_load_sdpa)
    report = cli.diagnose_run(str(out))
    # One replay, of a tail from a power of two, and no text parsed.
    (point,) = starts
    assert point.k > 0 and point.k & (point.k - 1) == 0
    assert parsed == []
    shutil.copytree(out, tmp_path / "full")
    (tmp_path / "full" / "run.npz").unlink()
    starts.clear()
    oracle = cli.diagnose_run(str(tmp_path / "full"))
    assert starts == [None] and len(parsed) == 1
    assert {**oracle, "run": report["run"]} == report


@pytest.mark.parametrize(
    "fields",
    [
        {"generator": {"kind": "planted", "n": 10, "m": 20, "r": 3, "seed": 1}},
        {"generator": _ND_FAIL},
        {"generator": "maxcut", "tol_rmax": 1e-8},
        {"generator": _ND_FAIL, "trace_every": 3},
        {"instance": "generated"},
    ],
    ids=["nd", "primal-nd-fail", "maxcut", "trace-every-3", "generated-file"],
)
def test_diagnose_from_instance_npz_matches_the_parsed_instance(tmp_path, capsys, monkeypatch,
                                                                  fields):
    # The instance arrays of run.npz (C, b, support, columns) against the
    # oracle of parsing instance.dat-s, with the same restart points from
    # run.npz: the replay and the report are the same.
    out = tmp_path / "run"
    if fields.get("generator") == "maxcut":
        fields = {**fields, "generator": {"kind": "maxcut",
                                          "edges": _write_graph(tmp_path / "g.txt")}}
    if "instance" in fields:
        path = tmp_path / "g.dat-s"
        assert main(["generate", "planted", "--n", "12", "--m", "30", "--r", "3", "--seed", "2",
                     "--out", str(path)]) == 0
        fields = {"instance": str(path)}
    manifest = write_manifest(tmp_path / "m.json", out=str(out), seed=1, **fields)
    assert main(["solve", "--manifest", manifest]) in (0, 2)
    capsys.readouterr()
    parsed = []

    def recording_load_sdpa(path):
        parsed.append(path)
        return load_sdpa(path)

    monkeypatch.setattr(cli, "load_sdpa", recording_load_sdpa)
    report = cli.diagnose_run(str(out))
    assert parsed == []
    load_run = cli._load_run

    def parsed_instance(run_dir, summary):
        _, points = load_run(run_dir, summary)
        return load_sdpa(os.path.join(run_dir, "instance.dat-s")), points

    monkeypatch.setattr(cli, "_load_run", parsed_instance)
    assert cli.diagnose_run(str(out)) == report


def test_diagnose_fits_the_positive_rows_of_a_window_fixed_from_the_trace(planted_manifest,
                                                                          capsys, monkeypatch):
    # The window is the last trailing_window rows of trace.csv before the
    # final one; zeros inside it shrink a sequence's fit to its positive rows
    # (face_S_norm, zero on the last 40 iterates) or drop the sequence when
    # fewer than RATE_MIN_WINDOW are left (face_X_norm, zero on the last
    # 100). Either way the replay runs once.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    last = json.loads((out / "summary.json").read_text())["iterations"]
    starts = []

    def zeroing_solve(*args, start=None, **kwargs):
        starts.append(start)
        state, records, status = solve(*args, start=start, **kwargs)
        for rec in records:
            if rec.k >= last - 40:
                rec.face_s_norm = 0.0
            if rec.k >= last - 100:
                rec.face_x_norm = 0.0
        return state, records, status

    monkeypatch.setattr(analysis, "solve", zeroing_solve)
    report = cli.diagnose_run(str(out))
    rows = read_trace_csv(out / "trace.csv")
    idx_id = [r.k for r in rows].index(report["k_id"])
    window = diagnostics.trailing_window(len(rows) - 1, idx_id)
    first = rows[len(rows) - 1 - window].k
    assert last - 100 < first < last - 40 - diagnostics.RATE_MIN_WINDOW
    # One replay, from the latest power of two at or before the window.
    (point,) = starts
    assert point.k <= first < 2 * point.k
    fits = {f["sequence"]: f["window"] for f in report["fits"]}
    assert fits["h_norm"] == [first, last - 1]
    assert fits["face_S_norm"] == [first, last - 41]
    assert "face_X_norm" not in fits
    assert report["skipped"] == {"face_X_norm": "fewer than 10 positive values in the window"}
    (out / "run.npz").unlink()
    starts.clear()
    assert cli.diagnose_run(str(out)) == report
    assert starts == [None]


def test_diagnose_skips_fits_at_the_rounding_floor(tmp_path, capsys):
    # Max-cut of one edge: in the window the off-block and face sequences
    # stay below 1e-15 against ||Z*||_F = 2.06, roundoff with no rate, while
    # the residual and step lengths still fall geometrically.
    (tmp_path / "graph.txt").write_text("2\n1 2\n")
    out = tmp_path / "run"
    manifest = write_manifest(tmp_path / "m.json", out=str(out), tol_rmax=1e-8, init="zero",
                              generator={"kind": "maxcut", "edges": str(tmp_path / "graph.txt")})
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 0
    captured = capsys.readouterr()
    report = json.loads((out / "diagnostics.json").read_text())
    floored = ["ho_norm", "face_X_norm", "face_S_norm"]
    assert report["skipped"] == dict.fromkeys(floored, "at the rounding floor")
    assert [f["sequence"] for f in report["fits"]] == ["r_max", "norm_z_diff", "h_norm"]
    for name in floored:
        assert f"skipped         {name}: at the rounding floor" in captured.out


def _analysed(prob, cfg):
    # analyse on what solve returns, with no run directory; and the status.
    state, records, status = solve(prob, cfg)
    report = analysis.analyse(prob, cfg, state.k, state.Z, records, state.checkpoints, status,
                              PhaseTimings.of(*analysis.PHASES))
    return report, status


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "generator",
    [{"n": 20, "m": 40, "r": 3}, {"n": 16, "m": 30, "r": 4, "degeneracy": "primal_nd_fail"},
     {"n": 12, "m": 10, "r": 6}],
    ids=["nd", "primal-nd-fail", "dual-nd-fail"],
)
def test_norm_z_diff_fit_lies_between_the_h_norm_fit_and_the_norm(generator, seed):
    # The step length ||Z_{k+1} - Z_k|| needs no reference. Its rate is at
    # most ||M - P_Fix|| (+ 1e-3), and no lower than the h_norm fit, which
    # the distance to the run's own last iterate steepens.
    prob, _ = generate_planted(seed=seed, **generator)
    report, status = _analysed(prob, SolverConfig(seed=seed, tol_rmax=1e-10))
    assert status is SolveStatus.CONVERGED
    fits = {f["sequence"]: f["rho_hat"] for f in report["fits"]}
    assert fits["h_norm"] <= fits["norm_z_diff"] <= report["op_norm_M_minus_fix"] + 1e-3


@pytest.mark.parametrize(
    "degeneracy, fields",
    [("none", {}), ("primal_nd_fail", {}), ("primal_nd_fail", {"trace_every": 3}),
     ("primal_nd_fail", {"max_iter": 40})],
    ids=["nd", "primal-nd-fail", "trace-every-3", "unconverged"],
)
def test_analyse_in_memory_matches_diagnose_run(tmp_path, capsys, degeneracy, fields):
    # The arrays solve returns give the report diagnose_run reads back from
    # the run directory, key for key and in the same order.
    gen = {"n": 10, "m": 20, "r": 3, "seed": 1, "degeneracy": degeneracy}
    out = tmp_path / "run"
    manifest = write_manifest(tmp_path / "m.json", out=str(out), seed=1,
                              generator={"kind": "planted", **gen}, **fields)
    assert main(["solve", "--manifest", manifest]) in (0, 2)
    capsys.readouterr()
    want = cli.diagnose_run(str(out))
    del want["run"], want["status"], want["provenance"]
    report, _ = _analysed(generate_planted(**gen)[0], SolverConfig(seed=1, **fields))
    assert json.dumps(report) == json.dumps(want)


def test_analyse_opens_no_file(monkeypatch):
    prob, _ = generate_planted(10, 20, 3, seed=1)
    cfg = SolverConfig(seed=1, tol_rmax=1e-10)
    state, records, status = solve(prob, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("analyse read a file")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(np, "load", refuse)
    report = analysis.analyse(prob, cfg, state.k, state.Z, records, state.checkpoints, status,
                              PhaseTimings.of(*analysis.PHASES))
    assert report["sc"]["sc_holds"] and report["failure"] is None
    assert report["op_norm_M_minus_fix"] < 1.0
    assert [f["sequence"] for f in report["fits"]] == [name for name, _ in
                                                        analysis._FIT_SEQUENCES]


def test_analyse_replay_errors_name_no_file():
    # analyse takes the run's arrays, so its two replay errors speak of the
    # run and its recorded trace, not of the files diagnose reads them from.
    prob, _ = generate_planted(10, 20, 3, seed=1)
    cfg = SolverConfig(seed=1, tol_rmax=1e-10)
    state, records, status = solve(prob, cfg)
    edited = records[-3]
    rows = [*records[:-3], dataclasses.replace(edited, r_p=edited.r_p * (1.0 + 1e-12)),
            *records[-2:]]
    timings = PhaseTimings.of(*analysis.PHASES)
    with pytest.raises(analysis.ReplayMismatchError) as mismatch:
        analysis.analyse(prob, cfg, state.k, state.Z, rows, state.checkpoints, status, timings)
    with pytest.raises(ValueError) as early:
        analysis.analyse(prob, cfg, state.k + 5, state.Z, records, state.checkpoints, status,
                         timings)
    assert re.fullmatch(rf"the replay from k = \d+ differs from the recorded trace at "
                        rf"k = {edited.k}", str(mismatch.value))
    assert str(early.value) == (f"the replay stopped at k = {state.k}, but the run records "
                                f"{state.k + 5} iterations")
    for message in (str(mismatch.value), str(early.value)):
        assert not re.search(r"\.(csv|json|npz|npy|dat-s)\b", message), message


def _diagnose_error(out, capsys):
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert not (out / "diagnostics.json").exists()
    match = re.fullmatch(r"error: the replay from k = (\d+) differs from the recorded trace "
                         r"at k = (\d+)\n", err)
    assert match, err
    return int(match[1]), int(match[2])


def test_diagnose_refuses_a_perturbed_checkpoint(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    with np.load(out / "run.npz") as npz:
        arrays = dict(npz)
    arrays["z"][:, 0, 0] += 1e-9
    np.savez(out / "run.npz", **arrays)
    start, k = _diagnose_error(out, capsys)
    assert start == k and start in arrays["k"].tolist()


def _edit_trace_row(out):
    # Scales r_p of the third-last trace row by 1 + 1e-12; returns its k.
    lines = (out / "trace.csv").read_text().splitlines()
    fields = lines[-3].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-12))
    lines[-3] = ",".join(fields)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    return int(fields[0])


def test_diagnose_refuses_a_hand_edited_trace_row_after_the_start(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    edited = _edit_trace_row(out)
    start, k = _diagnose_error(out, capsys)
    assert 0 < start < k == edited


def test_diagnose_names_both_blas_thread_counts(planted_manifest, capsys, monkeypatch):
    # The reader is replaced, so no BLAS thread count is set or started.
    manifest, out = planted_manifest
    monkeypatch.setattr(cli, "_blas_threads", lambda: 3)
    assert main(["solve", "--manifest", manifest]) == 0
    assert json.loads((out / "summary.json").read_text())["provenance"]["blas_threads"] == 3
    edited = _edit_trace_row(out)
    monkeypatch.setattr(cli, "_blas_threads", lambda: 5)
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: the replay from k = \d+ differs from the recorded trace at "
                        rf"k = {edited}; summary.json records 3 BLAS threads, "
                        rf"this process runs 5\n", err), err
    assert not (out / "diagnostics.json").exists()


def test_diagnose_refuses_a_tampered_run_npz(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    with np.load(out / "run.npz") as npz:
        arrays = dict(npz)
    arrays["columns"][3, 5] *= 1.0 + 1e-12
    np.savez(out / "run.npz", **arrays)
    start, k = _diagnose_error(out, capsys)
    assert start == k and start > 0


_SHAPES = ("run.npz must hold arrays C, b, support, columns, k, z and u_z of shapes (10, 10), "
           "(20,), (s,), (20, s), (c,), (c, 10, 10) and (c, 20)")
_SUPPORT = "run.npz: support must hold strictly increasing integers in 0..54"
_K = "run.npz: k must hold strictly increasing integers in 1.."


def _resaved(edit):
    # Writes the archive's arrays back after ``edit`` changed them.
    def write(path, arrays):
        edit(arrays)
        np.savez(path, **arrays)
    return write


def _set(key, index, value):
    # Writes the archive back with arrays[key][index] = value.
    return _resaved(lambda a: a[key].__setitem__(index, value))


def _npy(path, arrays):
    with open(path, "wb") as fh:
        np.save(fh, arrays["C"])


@pytest.mark.parametrize(
    "write, message",
    [
        (_resaved(lambda a: a.pop("b")), _SHAPES),
        (_resaved(lambda a: a.update(table=np.zeros((20, 55)))), _SHAPES),
        (_resaved(lambda a: a.update(b=a["b"].astype(object))),
         "run.npz: holds an object array"),
        (lambda path, a: path.write_bytes(pickle.dumps(a)),
         "run.npz: not a .npy file or .npz archive"),
        (_resaved(lambda a: a.update(C=a["C"] + 0j)),
         "run.npz: array 'C' must hold real numbers, got dtype complex128"),
        (_resaved(lambda a: a.update(b=a["b"].astype(str))),
         "run.npz: array 'b' must hold real numbers, got dtype <U"),
        (_resaved(lambda a: a.update(C=a["C"][:9, :9])), _SHAPES),
        (_resaved(lambda a: a.update(columns=a["columns"][:, 1:])), _SHAPES),
        (_resaved(lambda a: a.update(support=a["support"][::-1].copy())), _SUPPORT),
        (_resaved(lambda a: a.update(support=a["support"] + 1)), _SUPPORT),
        (_resaved(lambda a: a.update(support=a["support"] - 1)), _SUPPORT),
        (_resaved(lambda a: a.update(support=a["support"].astype(float))), _SUPPORT),
        (_npy, _SHAPES),
        (lambda path, a: path.write_bytes(b""), "run.npz: not a .npy file or .npz archive"),
        (lambda path, a: path.write_bytes(path.read_bytes()[:100]),
         "run.npz: File is not a zip file"),
        (_resaved(lambda a: a.update(u_z=a["u_z"][1:])), _SHAPES),
        (_resaved(lambda a: a.update(k=a["k"] + 0.5)), _K),
        (_resaved(lambda a: a.update(k=1000 * a["k"])), _K),
        (_resaved(lambda a: a.update(k=-a["k"])), _K),
        (_resaved(lambda a: a.update(k=a["k"][::-1].copy())), _K),
        (_resaved(lambda a: a.update(k=np.append(a["k"][:-1], a["k"][-2]))), _K),
        (_set("z", (-1, 0, 0), np.nan), "run.npz: z contains non-finite entries"),
        (_set("u_z", (0, 1), np.inf), "run.npz: u_z contains non-finite entries"),
        (_set("columns", (3, 5), np.nan), "run.npz: A contains non-finite entries"),
        (_resaved(lambda a: a["columns"].__setitem__(1, a["columns"][0])),
         r"run.npz: constraint matrices are linearly dependent (rank 19 < m = 20)"),
    ],
    ids=["missing-key", "extra-key", "object-array", "pickle", "complex", "text", "n", "s",
         "support-order", "support-above", "support-below", "support-float", "npy", "empty",
         "truncated", "checkpoint-shape", "k-float", "k-above", "k-negative", "k-order",
         "k-repeated", "z-nan", "u_z-inf", "columns-nan", "columns-repeated"],
)
def test_diagnose_refuses_a_malformed_run_npz(planted_manifest, capsys, write, message):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    with np.load(out / "run.npz") as npz:
        arrays = dict(npz)
    write(out / "run.npz", arrays)
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert "allow_pickle" not in err and "unsafely" not in err
    assert sorted(p.name for p in out.iterdir()) == before


def test_diagnose_decomposes_z_final_twice(planted_manifest, capsys, monkeypatch):
    # diagnose_run decomposes z_final once for sc_check, nd_check and
    # build_omega, and the replay's solve(reference=z_final) once more.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    z_final = np.load(out / "z_final.npy")
    original, full = linalg.eig_sym, []

    def counting(a, split=False):
        if not split and np.array_equal(a, z_final):
            full.append(a)
        return original(a, split=split)

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "sdpadmm"]:
        if getattr(mod, "eig_sym", None) is original:
            monkeypatch.setattr(mod, "eig_sym", counting)
    report = cli.diagnose_run(str(out))
    assert report["sc"]["sc_holds"] is True
    assert len(full) == 2


def test_diagnose_norm_failure_writes_report(planted_manifest, capsys, monkeypatch):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()

    def stalled(*args, **kwargs):
        raise NumericalFailureError("Lanczos did not converge", svec_dim=55, converged=0)

    monkeypatch.setattr(linearization, "op_norm_M_minus_fix", stalled)
    assert main(["diagnose", "--run", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("status:") == 1
    report = json.loads((out / "diagnostics.json").read_text())
    assert cli.diagnose_run(str(out)) == report
    assert report["failure"] == {
        "message": "Lanczos did not converge",
        "details": {"svec_dim": 55, "converged": 0},
    }
    # Fix(M) = {0}, so ||M|| was that estimate, and is unknown too.
    assert report["op_norm_M_minus_fix"] is None and report["op_norm_M"] is None
    assert report["fix_dim"] == 0
    assert report["skipped"] == dict.fromkeys(["op_norm_M", "op_norm_M_minus_fix"],
                                              "numerical failure")
    assert report["operator_applications"] == {}
    assert report["sc"]["sc_holds"] is True
    assert report["nd"]["primal_nd"] is True and report["nd"]["dual_nd"] is True
    assert "norm failure" in captured.out
    assert "skipped         op_norm_M_minus_fix: numerical failure" in captured.out


def test_diagnose_counts_the_applications_of_a_failed_estimate(planted_manifest, capsys,
                                                                monkeypatch):
    import scipy.sparse.linalg

    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0

    def stalling(op, *args, v0, **kwargs):
        for _ in range(3):
            v0 = op.matvec(v0)
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalling)
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["failure"] == {"message": "Lanczos did not converge for the operator norm",
                                 "details": {"svec_dim": 55, "converged": 0}}
    assert report["operator_applications"] == {"op_norm_M_minus_fix": 3}


def test_diagnose_keeps_a_refused_estimate_as_the_norm_of_M(planted_manifest, capsys, monkeypatch):
    # The separation gate refuses the estimate at fix_dim 0; ||M|| is still
    # that value, since Pi_Fix = 0 there.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    capsys.readouterr()
    monkeypatch.setattr(linearization, "op_norm_M_minus_fix", lambda *args: 1.0 - 1e-12)
    assert main(["diagnose", "--run", str(out)]) == 1
    captured = capsys.readouterr()
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["fix_dim"] == 0
    assert report["op_norm_M"] == 1.0 - 1e-12
    assert report["op_norm_M_minus_fix"] is None
    assert report["failure"] == {"message": "||M - Pi_Fix|| = 0.999999999999 is not separated "
                                            "from 1", "details": {"value": 1.0 - 1e-12}}
    assert report["skipped"] == {"op_norm_M_minus_fix": "numerical failure"}
    assert "||M||           1.000000  (= ||M - P_Fix||)" in captured.out
    assert "||M - P_Fix||   " not in captured.out
    assert "skipped         op_norm_M_minus_fix: numerical failure" in captured.out
    assert ("norm failure    ||M - Pi_Fix|| = 0.999999999999 is not separated from 1"
            in captured.out)


@pytest.mark.parametrize("degeneracy", ["none", "primal_nd_fail"])
def test_diagnose_runs_one_lanczos_estimate(tmp_path, capsys, monkeypatch, degeneracy):
    import scipy.sparse.linalg

    out = tmp_path / "run"
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "planted", "n": 10, "m": 20, "r": 3, "seed": 1,
                   "degeneracy": degeneracy},
        sigma=1.0, max_iter=100_000, tol_rmax=1e-10, seed=1, init="gaussian", out=str(out),
    )
    assert main(["solve", "--manifest", manifest]) == 0
    calls = []
    original = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    assert main(["diagnose", "--run", str(out)]) == 0
    captured = capsys.readouterr()
    report = json.loads((out / "diagnostics.json").read_text())
    assert len(calls) == 1
    assert list(report["operator_applications"]) == ["op_norm_M_minus_fix"]
    assert report["nd"]["primal_nd"] is (degeneracy == "none")
    if degeneracy == "none":
        assert report["fix_dim"] == 0
        assert report["op_norm_M"] == report["op_norm_M_minus_fix"]
    else:
        assert report["fix_dim"] > 0
        assert report["op_norm_M"] == 1.0
        assert report["op_norm_M_minus_fix"] < 1.0
        assert f"(dim Fix = {report['fix_dim']} > 0)" in captured.out


def test_diagnose_says_why_it_skipped_the_norms(planted_manifest, capsys):
    # A limit with a zero eigenvalue fails strict complementarity: the norms
    # and Fix(M) are not computed, and the report says why.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    dec = linalg.eig_sym(np.load(out / "z_final.npy"))
    lam = dec.lam.copy()
    lam[np.argmin(np.abs(lam))] = 0.0
    np.save(out / "z_final.npy", linalg.symmetrize((dec.Q * lam) @ dec.Q.T))
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 0
    captured = capsys.readouterr()
    report = json.loads((out / "diagnostics.json").read_text())
    assert cli.diagnose_run(str(out)) == report
    assert report["sc"]["sc_holds"] is False
    quantities = ["op_norm_M", "fix_dim", "op_norm_M_minus_fix"]
    assert report["skipped"] == dict.fromkeys(quantities, "strict complementarity fails")
    assert all(report[key] is None for key in quantities)
    assert report["operator_applications"] == {} and report["failure"] is None
    for key in quantities:
        assert f"skipped         {key}: strict complementarity fails" in captured.out


def test_diagnose_missing_artifacts(tmp_path, capsys):
    assert main(["diagnose", "--run", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "summary, message",
    [
        ([], "summary.json must contain a JSON object"),
        ({"iterations": 3}, "summary.json is missing 'status'"),
        ({"status": "converged"}, "summary.json is missing 'iterations'"),
        ({"status": "converged", "iterations": "3"}, "iterations must be an integer, got '3'"),
        ({"status": "Converged", "iterations": 3}, "status must be one of 'converged', "
         "'iter_limit', 'time_limit', 'numerical_failure', got 'Converged'"),
        ({"status": "iter_limit", "iterations": -3}, "iterations must be nonnegative, got -3"),
        ({"status": "converged", "iterations": -3}, "iterations must be nonnegative, got -3"),
    ],
    ids=["list", "no-status", "no-iterations", "iterations-string", "status-unknown",
         "iterations-negative", "iterations-negative-converged"],
)
def test_diagnose_rejects_malformed_summary(tmp_path, capsys, summary, message):
    run = tmp_path / "run"
    run.mkdir()
    write_sdpa(generate_planted(6, 8, 2, seed=0)[0], run / "instance.dat-s")
    np.save(run / "z_final.npy", np.zeros((6, 6)))
    (run / "summary.json").write_text(json.dumps(summary))
    assert main(["diagnose", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1
    assert not (run / "diagnostics.json").exists()


@pytest.mark.parametrize("shape", [(4, 4), (9,)])
def test_diagnose_rejects_a_z_final_of_another_order(tmp_path, capsys, shape):
    # Checked on loading, before any decomposition reads the matrix.
    run = tmp_path / "run"
    run.mkdir()
    write_sdpa(generate_planted(3, 4, 1, seed=0)[0], run / "instance.dat-s")
    np.save(run / "z_final.npy", np.zeros(shape))
    summary = {"status": "converged", "iterations": 3}
    (run / "summary.json").write_text(json.dumps(summary))
    assert main(["diagnose", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: z_final.npy has shape {shape}, expected (3, 3)\n"
    assert not (run / "diagnostics.json").exists()


def test_diagnose_rejects_a_non_finite_z_final(planted_manifest, capsys):
    # Checked on loading, before any decomposition reads the matrix.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    z = np.load(out / "z_final.npy")
    z[2, 3] = np.nan
    np.save(out / "z_final.npy", z)
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    assert capsys.readouterr().err == "error: z_final.npy contains non-finite entries\n"
    assert not (out / "diagnostics.json").exists()


@pytest.mark.parametrize("field", cli._CFG_KEYS)
def test_diagnose_requires_every_config_field(planted_manifest, capsys, field):
    # A missing field would replay at its default: another run than the one
    # recorded.
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary[field]
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    assert capsys.readouterr().err == f"error: summary.json is missing {field!r}\n"
    assert not (out / "diagnostics.json").exists()


def test_diagnose_refuses_a_replay_that_stops_early(planted_manifest, capsys):
    manifest, out = planted_manifest
    assert main(["solve", "--manifest", manifest]) == 0
    summary = json.loads((out / "summary.json").read_text())
    summary["tol_rmax"] = 1e-4
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    match = re.fullmatch(
        r"error: the replay stopped at k = (\d+), but the run records (\d+) iterations\n", err
    )
    assert match and int(match[1]) < int(match[2]) == summary["iterations"]
    assert not (out / "diagnostics.json").exists()


def _save_npz(path, a):
    # An .npz archive under a .npy name.
    with open(path, "wb") as fh:
        np.savez(fh, a=a)


def _save_corrupt_npz(path, a):
    # The first 100 bytes of an .npz archive under a .npy name.
    _save_npz(path, a)
    path.write_bytes(path.read_bytes()[:100])


def _save_text(path, a):
    path.write_text(" ".join(map(str, a.ravel())))


_NOT_REAL = [
    (_save_npz, "{what} must be a .npy array of real numbers, got an .npz archive"),
    (_save_corrupt_npz, "{what}: File is not a zip file"),
    (lambda path, a: np.save(path, a + 1j),
     "{what} must be a .npy array of real numbers, got dtype complex128"),
    (lambda path, a: np.save(path, a.astype(object)), "{what}: holds an object array"),
    (_save_text, "{what}: not a .npy file or .npz archive"),
    (lambda path, a: path.write_bytes(b""), "{what}: not a .npy file or .npz archive"),
]


@pytest.mark.parametrize("save, message", _NOT_REAL,
                         ids=["npz", "corrupt-npz", "complex", "object", "text", "empty"])
def test_diagnose_reads_z_final_only_as_a_real_array(tmp_path, capsys, save, message):
    run = tmp_path / "run"
    run.mkdir()
    write_sdpa(generate_planted(3, 4, 1, seed=0)[0], run / "instance.dat-s")
    save(run / "z_final.npy", np.diag([1.0, -1.0, -2.0]))
    summary = {"status": "converged", "iterations": 3}
    (run / "summary.json").write_text(json.dumps(summary))
    assert main(["diagnose", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(what="z_final.npy"))
    assert err.count("\n") == 1
    assert "allow_pickle" not in err and "unsafely" not in err
    assert not (run / "diagnostics.json").exists()


@pytest.mark.parametrize("what", ["z.file", "h.file"])
@pytest.mark.parametrize("save, message", _NOT_REAL,
                         ids=["npz", "corrupt-npz", "complex", "object", "text", "empty"])
def test_eb_verify_reads_file_sources_only_as_real_arrays(tmp_path, capsys, what, save, message):
    z = np.diag([1.0, 2.0, -1.0])
    fields = {"z": {"file": str(tmp_path / "z.npy")}, "h": {"file": str(tmp_path / "h.npy")}}
    for name, a in (("z", z), ("h", np.eye(3))):
        (save if what == f"{name}.file" else np.save)(tmp_path / f"{name}.npy", a)
    manifest = write_manifest(tmp_path / "m.json", out=str(tmp_path / "eb"), **fields)
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(what=what))
    assert err.count("\n") == 1
    assert "allow_pickle" not in err and "unsafely" not in err
    assert not (tmp_path / "eb").exists()


# -- eb-verify ---------------------------------------------------------------


def test_eb_verify_random_inputs(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json",
        z={"random": {"n": 6, "seed": 0}},
        h={"random": {"seed": 1}},
        scales=[1e-1, 1e-2, 1e-3],
        out=str(tmp_path / "eb"),
    )
    code = main(["eb-verify", "--manifest", manifest])
    captured = capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "eb" / "eb_report.csv").read_text().splitlines()
    assert lines[0] == "t,lhs,ho_norm,refined_ratio,classic_ratio"
    assert len(lines) == 4
    assert "elimination agreement" in captured.out
    # Phase timings go to their own file, never into the hashed report.
    timings = json.loads((tmp_path / "eb" / "eb_timings.json").read_text())
    assert list(timings) == ["inputs", "reference", "scan", "elimination"]
    assert all(t["calls"] == 1 and t["seconds"] >= 0.0 for t in timings.values())
    report = json.loads((tmp_path / "eb" / "eb_report.json").read_text())
    assert set(report) == {"t", "lhs", "ho_norm", "refined_ratio", "classic_ratio"}


def test_eb_verify_decomposes_z_once_and_each_scale_once(tmp_path, capsys, monkeypatch):
    # One eig_sym of Z, one of each Z + tH; the elimination check reuses Z's
    # and the smallest scale's, in either order of the scales.
    original, calls = linalg.eig_sym, []

    def counting(a, split=False):
        calls.append(a.shape)
        return original(a, split=split)

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "sdpadmm"]:
        if getattr(mod, "eig_sym", None) is original:
            monkeypatch.setattr(mod, "eig_sym", counting)
    for scales in ([1e-1, 1e-2, 1e-3], [1e-3, 1e-2, 1e-1]):
        calls.clear()
        manifest = write_manifest(
            tmp_path / "m.json",
            z={"random": {"n": 8, "seed": 3}},
            scales=scales,
            out=str(tmp_path / "eb"),
        )
        assert main(["eb-verify", "--manifest", manifest]) == 0
        assert "elimination agreement" in capsys.readouterr().out
        assert calls == [(8, 8)] * 4


@pytest.mark.parametrize("scales", [[], [0.1, -0.1]], ids=["empty", "negative"])
def test_eb_verify_states_the_scale_rule(tmp_path, capsys, scales):
    manifest = write_manifest(tmp_path / "m.json", scales=scales, out=str(tmp_path / "eb"))
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scales must be a non-empty list of positive numbers")
    assert err.count("\n") == 1
    assert not (tmp_path / "eb").exists()


def test_eb_verify_refused_elimination_writes_nothing(tmp_path, capsys):
    # The scan succeeds at t = 10, but the elimination check refuses Z + 10 H;
    # no report of the scan is left behind.
    manifest = write_manifest(tmp_path / "m.json", z={"random": {"n": 3}}, scales=[10],
                              out=str(tmp_path / "eb"))
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: perturbation too large: diagonal blocks of Z + H lost "
                          "definiteness")
    assert err.count("\n") == 1
    assert not (tmp_path / "eb").exists()


def test_eb_verify_singular_reference(tmp_path, capsys):
    zpath = tmp_path / "z.npy"
    np.save(zpath, np.diag([1.0, 0.0, -1.0]))
    manifest = write_manifest(
        tmp_path / "m.json", z={"file": str(zpath)}, out=str(tmp_path / "eb")
    )
    code = main(["eb-verify", "--manifest", manifest])
    captured = capsys.readouterr()
    assert code == 1
    assert "singular" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("lam", [[1.0, 2.0, 3.0], [-1.0, -2.0]], ids=["positive", "negative"])
def test_eb_verify_refuses_a_definite_reference(tmp_path, capsys, lam):
    np.save(tmp_path / "z.npy", np.diag(lam))
    manifest = write_manifest(
        tmp_path / "m.json", z={"file": str(tmp_path / "z.npy")}, out=str(tmp_path / "eb")
    )
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err == "error: reference matrix must be indefinite (both eigenvalue signs)\n"
    assert not (tmp_path / "eb").exists()


def test_eb_verify_refuses_an_h_without_off_block(tmp_path, capsys):
    # H block-diagonal in Z's eigenbasis: the refined ratio would divide a
    # rounding-level residual by a zero off-block.
    np.save(tmp_path / "z.npy", np.diag([1.0, 2.0, -1.0, -3.0]))
    h = np.zeros((4, 4))
    h[:2, :2] = [[1.0, 0.5], [0.5, 2.0]]
    h[2:, 2:] = [[3.0, 1.0], [1.0, -1.0]]
    np.save(tmp_path / "h.npy", h)
    manifest = write_manifest(tmp_path / "m.json", z={"file": str(tmp_path / "z.npy")},
                              h={"file": str(tmp_path / "h.npy")}, out=str(tmp_path / "eb"))
    assert main(["eb-verify", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: H has no off-block in the eigenbasis of Z: \|\|H~_O\|\|_2 = "
                        r"0\.000e\+00 <= n \* eps \* \|\|H\|\|_2 = \S+\n", err), err
    assert not (tmp_path / "eb").exists()


_SQUARE = "z.file must be a square matrix of order >= 2, got shape"


@pytest.mark.parametrize(
    "z, h, message",
    [
        (np.zeros((0, 0)), None, f"{_SQUARE} (0, 0)"),
        (np.ones((1, 1)), None, f"{_SQUARE} (1, 1)"),
        (np.ones((2, 3)), None, f"{_SQUARE} (2, 3)"),
        (np.ones(4), None, f"{_SQUARE} (4,)"),
        (np.diag([1.0, 2.0, -1.0]), np.eye(2),
         "h.file must have the shape (3, 3) of z, got (2, 2)"),
        (np.diag([1.0, -1.0]), np.ones((2, 2, 1)),
         "h.file must have the shape (2, 2) of z, got (2, 2, 1)"),
    ],
    ids=["z-empty", "z-1x1", "z-rectangular", "z-vector", "h-smaller", "h-3d"],
)
def test_eb_verify_file_sources_name_the_bad_field(tmp_path, capsys, z, h, message):
    np.save(tmp_path / "z.npy", z)
    fields = {"z": {"file": str(tmp_path / "z.npy")}}
    if h is not None:
        np.save(tmp_path / "h.npy", h)
        fields["h"] = {"file": str(tmp_path / "h.npy")}
    manifest = write_manifest(tmp_path / "m.json", out=str(tmp_path / "eb"), **fields)
    assert main(["eb-verify", "--manifest", manifest]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "eb").exists()


# -- generate ----------------------------------------------------------------


def test_generate_planted_files(tmp_path, capsys):
    out = tmp_path / "inst.dat-s"
    code = main([
        "generate", "planted", "--n", "8", "--m", "14", "--r", "2",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    prob = load_sdpa(out)
    assert prob.n == 8 and prob.m == 14
    cert = json.loads((tmp_path / "inst.dat-s.cert.json").read_text())
    assert max(cert["kkt_residuals"].values()) <= 1e-10
    assert np.asarray(cert["Xstar"]).shape == (8, 8)


def test_generate_sidecar_records_the_default_seed_and_degeneracy(tmp_path, capsys):
    out = tmp_path / "inst.dat-s"
    argv = ["generate", "planted", "--n", "8", "--m", "14", "--r", "2", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    cert = json.loads((tmp_path / "inst.dat-s.cert.json").read_text())
    assert (cert["seed"], cert["degeneracy"]) == (0, "none")


@pytest.mark.parametrize(
    "gen",
    [
        {"kind": "planted", "n": 9, "m": 16, "r": 2, "seed": 5, "degeneracy": "none"},
        {"kind": "planted", "n": 9, "m": 16, "r": 2, "seed": 5, "degeneracy": "primal_nd_fail"},
        {"kind": "maxcut", "edges": "graph.txt"},
    ],
    ids=["planted-none", "planted-primal-nd-fail", "maxcut"],
)
def test_generate_and_a_solve_manifest_give_one_instance(tmp_path, capsys, monkeypatch, gen):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text("5\n1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n")
    flags = [f"--{key}={val}" for key, val in gen.items() if key != "kind"]
    assert main(["generate", gen["kind"], *flags, "--out", "gen.dat-s"]) == 0
    manifest = write_manifest(tmp_path / "m.json", generator=gen, max_iter=1, out="run")
    assert main(["solve", "--manifest", manifest]) == 2
    capsys.readouterr()
    generated, solved = load_sdpa("gen.dat-s"), load_sdpa("run/instance.dat-s")
    for got, want in [(generated.C, solved.C), (dense_table(generated), dense_table(solved)),
                      (generated.b, solved.b)]:
        assert got.tobytes() == want.tobytes()


def test_generate_default_names(tmp_path, capsys, monkeypatch):
    # Planted: the manifest's instance name, in the working directory.
    # Max-cut: the edge file's stem, beside it.
    monkeypatch.chdir(tmp_path)
    gen = {"kind": "planted", "n": 8, "m": 14, "r": 2, "seed": 3}
    name = cli._instance_from_manifest({"generator": gen})[1]
    assert name == "planted-n8-m14-r2-s3"
    assert main(["generate", "planted", "--n", "8", "--m", "14", "--r", "2", "--seed", "3"]) == 0
    assert capsys.readouterr().err == f"status: wrote {name}.dat-s and {name}.dat-s.cert.json\n"
    (tmp_path / "g").mkdir()
    (tmp_path / "g" / "graph.txt").write_text("3\n1 2\n2 3\n")
    assert main(["generate", "maxcut", "--edges", "g/graph.txt"]) == 0
    assert capsys.readouterr().err == "status: wrote g/graph.dat-s\n"
    assert sorted(p.name for p in tmp_path.rglob("*.dat-s*")) == [
        "graph.dat-s", f"{name}.dat-s", f"{name}.dat-s.cert.json"]


@pytest.mark.parametrize(
    "argv, field",
    [(["planted", "--n", "8", "--r", "2"], "m"), (["maxcut"], "edges")],
    ids=["planted-m", "maxcut-edges"],
)
def test_generate_names_the_missing_generator_field(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *argv]) == 1
    assert capsys.readouterr().err == f"error: generator is missing {field!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_invalid_rank(tmp_path, capsys):
    code = main([
        "generate", "planted", "--n", "5", "--m", "6", "--r", "5",
        "--out", str(tmp_path / "x.dat-s"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_generate_maxcut_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    edges.write_text("# 4-cycle\n4\n1 2\n2 3\n3 4\n4 1\n")
    out = tmp_path / "cut.dat-s"
    assert main(["generate", "maxcut", "--edges", str(edges), "--out", str(out)]) == 0
    capsys.readouterr()
    prob = load_sdpa(out)
    assert prob.n == 4 and prob.m == 4
    assert np.array_equal(prob.b, np.ones(4))
    assert np.sum(prob.C * np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])) == -4.0


@pytest.mark.parametrize("command", ["solve", "generate"])
def test_huge_vertex_count_is_refused(tmp_path, capsys, command):
    # 8 * (10^9)^2 bytes: the allocation is refused at once, nothing is touched.
    edges = tmp_path / "graph.txt"
    edges.write_text("1000000000\n1 2\n")
    out = tmp_path / "o"
    if command == "solve":
        manifest = write_manifest(
            tmp_path / "m.json", generator={"kind": "maxcut", "edges": str(edges)}, out=str(out)
        )
        argv = ["solve", "--manifest", manifest]
    else:
        argv = ["generate", "maxcut", "--edges", str(edges), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "vertex count 1000000000 needs 8000000000000000000 bytes" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "solve", "eb-verify"])
def test_allocation_failures_are_error_lines(tmp_path, capsys, command):
    # A matrix of order 10^9 needs 8 * 10^18 bytes: numpy refuses the
    # allocation at once, and the MemoryError is one error line.
    out = tmp_path / "o"
    if command == "generate":
        argv = ["generate", "planted", "--n", "1000000000", "--m", "5", "--r", "1",
                "--out", str(out)]
    elif command == "solve":
        generator = {"kind": "planted", "n": 1_000_000_000, "m": 5, "r": 1}
        argv = ["solve", "--manifest",
                write_manifest(tmp_path / "m.json", generator=generator, out=str(out))]
    else:
        argv = ["eb-verify", "--manifest", write_manifest(
            tmp_path / "m.json", z={"random": {"n": 1_000_000_000}}, out=str(out))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert "(1000000000, 1000000000)" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "source, command, message",
    [
        ("sdpa", "solve", "n = 0"),
        ("edges", "solve", "vertex count 0 is below 1"),
        ("edges", "generate", "vertex count 0 is below 1"),
        ("edges-negative", "generate", "vertex count -2 is below 1"),
        ("edges-empty", "generate", "is empty"),
    ],
    ids=["solve-sdpa-n0", "solve-edges-n0", "generate-edges-n0", "generate-edges-negative",
         "generate-edges-empty"],
)
def test_zero_size_problems_are_refused(tmp_path, capsys, source, command, message):
    # A problem of order 0 has no iterate: every exit is one error line, and
    # no output is written.
    out = tmp_path / "o"
    if source == "sdpa":
        path = tmp_path / "empty.dat-s"
        path.write_text("0\n1\n0\n")
        manifest = write_manifest(tmp_path / "m.json", instance=str(path), out=str(out))
    else:
        path = tmp_path / "graph.txt"
        text = {"edges-negative": "-2\n", "edges-empty": "# no graph\n"}.get(source, "0\n")
        path.write_text(text)
        manifest = write_manifest(
            tmp_path / "m.json", generator={"kind": "maxcut", "edges": str(path)}, out=str(out)
        )
    argv = (["solve", "--manifest", manifest] if command == "solve"
            else ["generate", "maxcut", "--edges", str(path), "--out", str(out)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    if source != "sdpa":
        assert str(path) in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "generate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("abc\n1 2\n", "line 1 'abc' is not a vertex count"),
        ("# a path\n3\n1 2\n1 x\n", "line 4 '1 x' is not an 'i j' pair"),
        ("3\n1 2\n2 7\n", "line 3 has bad edge (2, 7) for n = 3"),
        ("4 5\n1 2\n", "line 1 '4 5' is not a vertex count"),
        ("4\n1 2 0.5\n", "line 2 '1 2 0.5' is not an 'i j' pair"),
    ],
    ids=["count", "edge", "range", "count-tokens", "edge-tokens"],
)
def test_edge_list_errors_name_the_file_and_line(tmp_path, capsys, command, text, message):
    edges = tmp_path / "graph.txt"
    edges.write_text(text)
    out = tmp_path / "o"
    if command == "solve":
        manifest = write_manifest(
            tmp_path / "m.json", generator={"kind": "maxcut", "edges": str(edges)}, out=str(out)
        )
        argv = ["solve", "--manifest", manifest]
    else:
        argv = ["generate", "maxcut", "--edges", str(edges), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: edge list {edges}: {message}\n"
    assert not out.exists()


def test_solve_rejects_one_token_edge_line(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    edges.write_text("4\n1 2\n3\n")
    manifest = write_manifest(
        tmp_path / "m.json",
        generator={"kind": "maxcut", "edges": str(edges)},
        out=str(tmp_path / "run"),
    )
    assert main(["solve", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'3'" in err
    assert err.count("\n") == 1


# -- flags of the single-run subcommands -------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose", "--run", "runs/x", "--sigma", "2"],
        ["eb-verify", "--jobs", "2"],
        ["eb-verify", "--max-iter", "5"],
    ],
)
def test_single_run_subcommands_reject_solver_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--manifest", "m.json", "--jobs", "2"],
        ["diagnose", "--manifest", "m.json"],
        ["diagnose", "--run", "runs/x", "--manifest", "m.json"],
    ],
    ids=["solve-jobs", "diagnose-manifest", "diagnose-run-and-manifest"],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_solve_needs_a_manifest(capsys):
    assert main(["solve"]) == 1
    assert capsys.readouterr().err == "error: solve needs at least one --manifest\n"


@pytest.mark.parametrize("command", ["eb-verify"])
def test_single_run_subcommands_reject_second_manifest(tmp_path, capsys, command):
    manifest = write_manifest(
        tmp_path / "m.json", z={"random": {"n": 4, "seed": 0}}, out=str(tmp_path / "out")
    )
    assert main([command, "--manifest", manifest, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at most one --manifest" in err
    assert not (tmp_path / "out").exists()
