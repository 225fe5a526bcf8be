"""Smoke tests of the benchmark itself: span coverage, self-time accounting,
the seed transformations and BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import sdpadmm  # noqa: E402
from sdpadmm.cli import main  # noqa: E402


@pytest.fixture
def solve_manifest(tmp_path):
    inst = instances.planted(8, 12, 3, np.random.default_rng(0))
    path = tmp_path / "inst.dat-s"
    instances.write_sdpa(inst, path)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instance": str(path), "tol_rmax": 1e-8, "init": "zero",
                                    "max_iter": 10_000, "trace_every": 1}))
    return manifest, tmp_path / "out", inst


def _traced_solve(manifest, out):
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as bindings, tracer.span(tracing.ROOT):
        code = main(["solve", "--manifest", str(manifest), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    return tracer, bindings, summary


def test_every_binding_is_wrapped_and_restored(solve_manifest):
    manifest, out, _ = solve_manifest
    originals = {name: getattr(sdpadmm.linalg, name) for name in tracing.TARGETS["linalg"]}
    _, bindings, _ = _traced_solve(manifest, out)
    # apply_A is bound in problem, solver and the package namespace.
    assert bindings["problem.apply_A"] >= 3
    assert bindings["linalg.eig_sym"] >= 4
    assert all(count >= 1 for count in bindings.values())
    for mod in (sdpadmm, sdpadmm.solver, sdpadmm.linalg, sdpadmm.elimination, sdpadmm.cli):
        for name, fn in originals.items():
            if hasattr(mod, name):
                assert getattr(mod, name) is fn


def test_one_traced_eigendecomposition_per_extraction(solve_manifest):
    manifest, out, _ = solve_manifest
    tracer, _, summary = _traced_solve(manifest, out)
    layers = tracing.layer_metrics(tracer.spans, summary["iterations"], 8 * 12 * 64)
    assert set(layers) | {"trace.overhead_s"} == set(dict(tracing.PER_LAYER))
    assert layers["linalg.eig_sym.calls"] == summary["iterations"] + 1
    assert layers["solver.eig_per_extraction"] == 1.0
    # Five passes over the constraint stack per iteration.
    assert layers["problem.constraint_bytes_per_iter"] > 0.0


def test_self_times_add_up_to_the_command(solve_manifest):
    manifest, out, _ = solve_manifest
    tracer, _, _ = _traced_solve(manifest, out)
    stats, _ = tracing.aggregate(tracer.spans)
    assert stats[tracing.ROOT]["calls"] == 1
    assert all(entry["self_s"] >= -1e-9 for entry in stats.values())
    assert tracing.self_time_defect(tracer.spans) < 1e-9 * max(1, len(tracer.spans))


def test_constraint_mixing_keeps_the_trajectory(tmp_path):
    base = instances.planted(10, 20, 3, np.random.default_rng(0))
    mixed = instances.mix_constraints(base, np.random.default_rng(5))
    assert not np.allclose(base.A, mixed.A)
    cfg = sdpadmm.SolverConfig(tol_rmax=1e-8, init="zero", max_iter=10_000)
    runs = []
    for inst in (base, mixed):
        prob = sdpadmm.SdpProblem(C=inst.C, A=inst.A, b=inst.b)
        state, _, status = sdpadmm.solve(prob, cfg)
        assert status is sdpadmm.SolveStatus.CONVERGED
        runs.append(state)
    assert runs[0].k == runs[1].k
    np.testing.assert_allclose(runs[0].Z, runs[1].Z, atol=1e-9)


def test_relabelled_graph_keeps_the_iteration_count(tmp_path):
    base = instances.random_graph(12, 0.4, np.random.default_rng(0))
    relabelled = instances.write_edge_list(base, tmp_path / "g.txt", np.random.default_rng(3))
    cfg = sdpadmm.SolverConfig(tol_rmax=1e-8, init="zero", max_iter=10_000)
    counts = [sdpadmm.solve(sdpadmm.generate_maxcut(w), cfg)[0].k for w in (base, relabelled)]
    assert counts[0] == counts[1]


def test_independent_residuals_match_the_solver(solve_manifest):
    manifest, out, inst = solve_manifest
    assert main(["solve", "--manifest", str(manifest), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    written = instances.read_sdpa(out / "instance.dat-s")
    np.testing.assert_array_equal(written.A, inst.A)
    *_, r_max, obj = instances.kkt_residuals(written, np.load(out / "z_final.npy"), 1.0)
    assert r_max == pytest.approx(summary["r_max"], rel=1e-6)
    assert obj == pytest.approx(inst.objective, rel=1e-5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == run.END_TO_END[1][2]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert os.path.getsize(HERE.parent / "BENCHMARK.json") <= 64 * 1024
