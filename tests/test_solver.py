import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpadmm.diagnostics import offblock_norm
from sdpadmm.linalg import eig_sym, psd_project, psd_split, svec_dim, symmetrize
from sdpadmm.problem import (
    SdpProblem,
    apply_A,
    apply_At,
    build_kernel,
    generate_maxcut,
    generate_planted,
    solve_normal,
)
from sdpadmm.solver import (
    PHASES,
    TRACE_HEADER,
    SolveStatus,
    SolverConfig,
    SolverState,
    initial_z,
    read_trace_csv,
    residuals,
    solve,
    step_fixed_point,
    trace_fields,
    write_trace_csv,
    z_difference_identity,
)

from conftest import dense_table, random_sym
from test_problem import cycle_adjacency, dense_R


def make_state(p, kern, cfg, z):
    dec = eig_sym(z)
    x, neg = psd_split(dec)
    return SolverState(
        k=0, Z=z, X=x, y=np.zeros(p.m), S=neg / cfg.sigma,
        residuals=(0.0, 0.0, 0.0, 0.0), decomp=dec,
    )


# -- fixed-point step --------------------------------------------------------


def test_planted_point_is_fixed(small_planted, default_cfg):
    p, cert, kern = small_planted
    zstar = cert.zstar(default_cfg.sigma)
    zp = step_fixed_point(p, kern, default_cfg, zstar)
    assert np.linalg.norm(zp - zstar) <= 1e-9 * max(1.0, np.linalg.norm(zstar))


def test_step_nonexpansive(small_planted, default_cfg):
    p, _, kern = small_planted
    rng = np.random.default_rng(0)
    for _ in range(10):
        z1 = random_sym(p.n, rng, scale=rng.uniform(0.1, 5.0))
        z2 = random_sym(p.n, rng, scale=rng.uniform(0.1, 5.0))
        d_out = np.linalg.norm(
            step_fixed_point(p, kern, default_cfg, z1)
            - step_fixed_point(p, kern, default_cfg, z2)
        )
        assert d_out <= np.linalg.norm(z1 - z2) + 1e-10


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_step_nonexpansive_property(sigma, seed):
    prob, _ = generate_planted(5, 7, 2, seed=11)
    kern = build_kernel(prob)
    cfg = SolverConfig(sigma=sigma)
    rng = np.random.default_rng(seed)
    z1 = random_sym(5, rng, scale=rng.uniform(0.1, 10.0))
    z2 = random_sym(5, rng, scale=rng.uniform(0.1, 10.0))
    d_out = np.linalg.norm(
        step_fixed_point(prob, kern, cfg, z1) - step_fixed_point(prob, kern, cfg, z2)
    )
    assert d_out <= np.linalg.norm(z1 - z2) * (1.0 + 1e-12) + 1e-10


def test_step_from_zero(small_planted, default_cfg):
    from sdpadmm.problem import project_null

    p, _, kern = small_planted
    expected = kern.at_pinv_b - default_cfg.sigma * project_null(kern, p.C)
    assert np.allclose(
        step_fixed_point(p, kern, default_cfg, np.zeros((p.n, p.n))), expected, atol=1e-14
    )


# -- three-step form ---------------------------------------------------------


def step_three(p, kernel, cfg, x, s_mat):
    """Oracle: the classical three-step update, returning (y+, S+, X+).

    Starting from X = Pi(Z), S = Pi(-Z)/sigma, the produced X+ - sigma*S+
    equals ``step_fixed_point`` applied to Z.
    """
    sigma = cfg.sigma
    x = symmetrize(x)
    s_mat = symmetrize(s_mat)
    y_new = solve_normal(kernel, p.b / sigma - apply_A(p, x / sigma + s_mat - p.C))
    at_y = apply_At(p, y_new)
    s_new = psd_project(p.C - at_y - x / sigma)
    x_new = x + sigma * (s_new + at_y - p.C)
    return y_new, s_new, x_new


def test_three_step_matches_fixed_point(small_planted, default_cfg):
    p, _, kern = small_planted
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = random_sym(p.n, rng, scale=rng.uniform(0.2, 3.0))
        x, neg = psd_split(eig_sym(z))
        s = neg / default_cfg.sigma
        _, s_new, x_new = step_three(p, kern, default_cfg, x, s)
        z_direct = step_fixed_point(p, kern, default_cfg, z)
        err = np.linalg.norm((x_new - default_cfg.sigma * s_new) - z_direct)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(z_direct))


def test_three_step_stationary_at_optimum(small_planted, default_cfg):
    p, cert, kern = small_planted
    y_new, s_new, x_new = step_three(p, kern, default_cfg, cert.Xstar, cert.Sstar)
    assert np.linalg.norm(x_new - cert.Xstar) <= 1e-9 * max(1.0, np.linalg.norm(cert.Xstar))
    assert np.linalg.norm(s_new - cert.Sstar) <= 1e-9 * max(1.0, np.linalg.norm(cert.Sstar))
    assert np.linalg.norm(y_new - cert.ystar) <= 1e-9 * max(1.0, np.linalg.norm(cert.ystar))


def test_three_step_trivial_problem_stays_at_origin():
    p = SdpProblem(C=np.zeros((3, 3)), A=np.eye(3)[None, :, :], b=np.zeros(1))
    kern = build_kernel(p)
    cfg = SolverConfig(sigma=1.0)
    x, s = np.zeros((3, 3)), np.zeros((3, 3))
    for _ in range(3):
        _, s, x = step_three(p, kern, cfg, x, s)
    assert np.linalg.norm(x) == 0.0 and np.linalg.norm(s) == 0.0


# -- residuals ---------------------------------------------------------------


def test_residuals_at_planted_optimum(small_planted):
    p, cert, _ = small_planted
    res = residuals(p, cert.Xstar, cert.ystar, cert.Sstar)
    assert res[3] <= 1e-10


def test_residuals_maxcut_zero_point():
    from sdpadmm.problem import generate_maxcut

    p = generate_maxcut(cycle_adjacency(4))
    res = residuals(p, np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)))
    assert abs(res[0] - 2.0 / 3.0) <= 1e-15  # ||b|| = 2 over 1 + ||b||
    assert res[1] == np.linalg.norm(p.C) / (1.0 + np.linalg.norm(p.C))
    assert res[2] == 0.0


def test_residuals_match_straight_line_recomputation(small_planted):
    p, _, _ = small_planted
    rng = np.random.default_rng(2)
    x = random_sym(p.n, rng)
    y = rng.standard_normal(p.m)
    s = random_sym(p.n, rng)
    r_p, r_d, r_gap, r_max = residuals(p, x, y, s)
    # independent duplicate evaluation
    rp2 = np.sqrt(np.sum((apply_A(p, x) - p.b) ** 2)) / (1.0 + np.sqrt(np.sum(p.b**2)))
    rd2 = np.sqrt(np.sum((apply_At(p, y) + s - p.C) ** 2)) / (
        1.0 + np.sqrt(np.sum(p.C**2))
    )
    obj, by = np.sum(p.C * x), float(p.b @ y)
    rgap2 = abs(obj - by) / (1.0 + abs(obj) + abs(by))
    assert abs(r_p - rp2) <= 1e-14
    assert abs(r_d - rd2) <= 1e-14
    assert abs(r_gap - rgap2) <= 1e-14
    assert r_max == max(r_p, r_d, r_gap)


# -- solve loop --------------------------------------------------------------


def test_solve_converges_on_planted(small_planted, default_cfg):
    p, cert, kern = small_planted
    state, records, status = solve(p, default_cfg, kernel=kern)
    assert status is SolveStatus.CONVERGED
    assert state.residuals[3] <= 1e-10
    assert records[-1].k == state.k
    # extraction invariants
    zn = max(1.0, np.linalg.norm(state.Z))
    dec = eig_sym(state.Z)
    plus, neg = psd_split(dec)
    assert np.allclose(state.decomp.lam, dec.lam, rtol=0.0, atol=1e-12 * zn)
    assert np.linalg.norm(state.X - plus) <= 1e-12 * zn
    assert np.linalg.norm(default_cfg.sigma * state.S - neg) <= 1e-12 * zn
    xs = abs(np.sum(state.X * state.S))
    assert xs <= 1e-10 * max(1e-300, np.linalg.norm(state.X) * np.linalg.norm(state.S))


def test_solve_zero_iterations():
    p, _ = generate_planted(5, 6, 2, seed=0)
    cfg = SolverConfig(max_iter=0, init="gaussian", seed=1)
    state, records, status = solve(p, cfg)
    assert status is SolveStatus.ITER_LIMIT
    assert state.k == 0
    assert records == []


def test_solve_time_limit():
    p, _ = generate_planted(5, 6, 2, seed=0)
    cfg = SolverConfig(max_iter=10_000, time_limit_secs=0.0, seed=1)
    _, _, status = solve(p, cfg)
    assert status is SolveStatus.TIME_LIMIT


def test_solve_deterministic_trace(tmp_path, small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=1.0, max_iter=500, tol_rmax=1e-10, trace_every=7, seed=3)
    _, rec1, _ = solve(p, cfg, kernel=kern)
    _, rec2, _ = solve(p, cfg, kernel=kern)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(rec1, f1)
    write_trace_csv(rec2, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text().splitlines()[0] == TRACE_HEADER


def test_trace_norm_z_diff_matches_snapshots(small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=1.0, max_iter=40, tol_rmax=1e-16, trace_every=1, seed=4)
    _, records, _ = solve(p, cfg, kernel=kern, keep_z=True)
    for a, b in zip(records[:-1], records[1:]):
        assert b.k == a.k + 1
        assert abs(a.norm_z_diff - np.linalg.norm(b.z - a.z)) <= 1e-12


def test_per_iteration_complementarity(small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=1.0, max_iter=30, tol_rmax=1e-16, trace_every=1, seed=5)
    _, records, _ = solve(p, cfg, kernel=kern, keep_z=True)
    for rec in records:
        x, neg = psd_split(eig_sym(rec.z))
        denom = max(1e-300, np.linalg.norm(x) * np.linalg.norm(neg))
        assert abs(np.sum(x * neg)) <= 1e-10 * denom


def test_solve_gaussian_init_reproducible(small_planted):
    from sdpadmm.solver import initial_z

    p, _, _ = small_planted
    cfg = SolverConfig(init="gaussian", seed=11)
    z1, z2 = initial_z(p, cfg), initial_z(p, cfg)
    assert np.array_equal(z1, z2)
    assert np.array_equal(z1, z1.T)
    assert np.array_equal(initial_z(p, SolverConfig(init="zero")), np.zeros((p.n, p.n)))


def test_one_eigendecomposition_per_iteration(monkeypatch, small_planted):
    import sdpadmm.solver as solver_mod

    p, _, kern = small_planted
    calls = {"n": 0}
    real = solver_mod.eig_sym

    def counting(a, **kwargs):
        calls["n"] += 1
        return real(a, **kwargs)

    monkeypatch.setattr(solver_mod, "eig_sym", counting)
    cfg = SolverConfig(sigma=1.0, max_iter=25, tol_rmax=1e-16, trace_every=1, seed=8)
    state, _, status = solve(p, cfg, kernel=kern)
    assert status is SolveStatus.ITER_LIMIT
    # one factorization per iterate visited (initial point included)
    assert calls["n"] == state.k + 1
    assert state.timings.calls["eig"] == calls["n"]


@pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstein", "dormqr"])
def test_lapack_failure_mid_run_keeps_last_state(monkeypatch, small_planted, routine):
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=1.0, max_iter=100, tol_rmax=1e-16, seed=8)
    real = getattr(scipy.linalg.lapack, routine)
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        out = real(*args, **kwargs)
        return (*out[:-1], 1) if calls["n"] == 5 else out

    monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
    state, records, status = solve(p, cfg, kernel=kern)
    monkeypatch.undo()
    assert status is SolveStatus.NUMERICAL_FAILURE
    assert state.failure["details"] == {"routine": routine, "info": 1}
    assert routine in state.failure["message"]
    # The last state is the one a run stopped by its limit at that iterate has.
    assert state.k >= 1
    ref, _, _ = solve(p, SolverConfig(**{**vars(cfg), "max_iter": state.k}), kernel=kern)
    assert ref.k == state.k
    for name in ("Z", "X", "y", "S"):
        assert np.array_equal(getattr(state, name), getattr(ref, name))
    assert state.residuals == ref.residuals
    assert [r.k for r in records] == list(range(state.k + 1))


def test_one_constraint_pass_each_way_per_iteration(monkeypatch, small_planted):
    import sdpadmm.solver as solver_mod

    p, _, kern = small_planted
    names = ("apply_A", "apply_At", "apply_B", "apply_Bt", "basis_coords", "constraint_values")
    calls = dict.fromkeys(names + ("dtrtrs",), 0)

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(solver_mod, name, counting(name, getattr(solver_mod, name)))
    lapack = scipy.linalg.lapack
    monkeypatch.setattr(lapack, "dtrtrs", counting("dtrtrs", lapack.dtrtrs))

    def run(max_iter):
        calls.update(dict.fromkeys(calls, 0))
        cfg = SolverConfig(sigma=1.0, max_iter=max_iter, tol_rmax=1e-16, trace_every=3, seed=8)
        state, records, status = solve(p, cfg, kernel=kern)
        assert status is SolveStatus.ITER_LIMIT
        return state, records, dict(calls)

    _, _, short = run(10)
    state, records, long = run(25)
    # Each extracted iterate makes one forward and one backward pass over the
    # basis B and one product with R'; it reads no table and solves with no R.
    assert {name: long[name] - short[name] for name in calls} == {
        "apply_A": 0, "apply_At": 0, "apply_B": 15, "apply_Bt": 15,
        "basis_coords": 0, "constraint_values": 15, "dtrtrs": 0,
    }
    # Set-up: B(const), B(Z0), and R^-T A(C) from the run's one table pass
    # and one triangular solve. The exit forms y = R^-1 u_y, the other solve.
    extractions = state.k + 1
    assert long == {
        "apply_A": 1, "apply_At": 0, "apply_B": extractions + 2, "apply_Bt": extractions,
        "basis_coords": 1, "constraint_values": extractions, "dtrtrs": 2,
    }
    t = state.timings
    assert t.calls == {
        "eig": extractions,
        "constraint_op": long["apply_A"] + long["apply_B"] + long["apply_Bt"],
        "primal_residual": extractions,
        "record": len(records),
    }
    assert set(t.seconds) == set(PHASES) and all(v >= 0.0 for v in t.seconds.values())


def test_loop_never_reads_the_constraint_table(monkeypatch, small_planted, default_cfg):
    import sdpadmm.solver as solver_mod

    p, _, kern = small_planted
    want, _, want_status = solve(p, default_cfg, kernel=kern)
    real = solver_mod.apply_A

    def cost_only(prob, x):
        if x is not prob.C:
            raise AssertionError("solve read the constraint table for an iterate")
        return real(prob, x)

    monkeypatch.setattr(solver_mod, "apply_A", cost_only)
    state, _, status = solve(p, default_cfg, kernel=kern)
    assert status is want_status is SolveStatus.CONVERGED
    assert state.k == want.k
    assert np.array_equal(state.Z, want.Z) and np.array_equal(state.y, want.y)


def test_reference_ho_norm_is_the_offblock_of_z_minus_reference(small_planted):
    # The record takes ho_norm from face_projections: Q'(X - sigma*S)Q and
    # Q'(Z - reference)Q share their off-block, Q'(reference)Q being diagonal.
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=0.7, max_iter=50_000, tol_rmax=1e-10, seed=3)
    final, _, _ = solve(p, cfg, kernel=kern)
    _, records, _ = solve(p, cfg, kernel=kern, reference=final.Z, keep_z=True)
    ref_dec = eig_sym(final.Z)
    assert len(records) == final.k + 1
    for rec in records:
        want = offblock_norm(ref_dec, rec.z - final.Z)
        assert abs(rec.ho_norm - want) <= 1e-12 * max(1.0, np.linalg.norm(rec.z))


def test_solve_without_constraints():
    # min <C, X> over the PSD cone alone, C positive definite: X = 0, S = C.
    c = np.diag([1.0, 0.5, 2.0])
    p = SdpProblem(C=c, A=np.zeros((0, 3, 3)), b=np.zeros(0))
    state, records, status = solve(p, SolverConfig(max_iter=1000, tol_rmax=1e-12, seed=2))
    assert status is SolveStatus.CONVERGED
    assert state.y.shape == (0,) and records[-1].r_p == 0.0
    assert np.linalg.norm(state.X) <= 1e-12 and np.linalg.norm(state.S - c) <= 1e-12


def _reference_run(p, kern, cfg):
    """The unfused path: extract y from the normal equations directly,
    recompute the residuals and step with ``step_fixed_point``."""
    sigma = cfg.sigma
    z = initial_z(p, cfg)
    visited = []
    for _ in range(cfg.max_iter + 1):
        x, neg = psd_split(eig_sym(z))
        s = neg / sigma
        y = solve_normal(kern, p.b / sigma - apply_A(p, x / sigma + s - p.C))
        res = residuals(p, x, y, s)
        visited.append((z, res, y))
        if res[3] <= cfg.tol_rmax:
            return visited, SolveStatus.CONVERGED
        z = step_fixed_point(p, kern, cfg, z)
    return visited, SolveStatus.ITER_LIMIT


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    w = np.triu((rng.random((n, n)) < density).astype(float), 1)
    return w + w.T


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_planted(10, 20, 3, seed=1)[0],
        lambda: generate_planted(10, 20, 3, seed=1, degeneracy="primal_nd_fail")[0],
        lambda: generate_maxcut(_random_graph(20, 0.3, seed=5)),
        lambda: generate_planted(24, 100, 3, seed=1, degeneracy="primal_nd_fail")[0],
        lambda: generate_maxcut(_random_graph(32, 0.15, seed=2)),
    ],
    ids=["planted", "primal_nd_fail", "maxcut", "diagnose_shape", "maxcut_sparse"],
)
def test_fused_loop_matches_reference_path(make):
    _check_fused_loop(make(), sigma=1.0)


@pytest.mark.parametrize("sigma", [0.3, 4.0])
def test_fused_loop_matches_reference_path_at_sigma(sigma):
    _check_fused_loop(generate_planted(10, 20, 3, seed=1)[0], sigma)


def _check_fused_loop(p, sigma):
    kern = build_kernel(p)
    cfg = SolverConfig(sigma=sigma, max_iter=20_000, tol_rmax=1e-10, trace_every=1, seed=1)
    visited, ref_status = _reference_run(p, kern, cfg)
    state, records, status = solve(p, cfg, kernel=kern, keep_z=True)
    assert status is ref_status is SolveStatus.CONVERGED
    assert state.k == len(visited) - 1
    assert [r.k for r in records] == list(range(len(visited)))
    for rec, (z_ref, res_ref, _) in zip(records, visited):
        assert np.linalg.norm(rec.z - z_ref) <= 1e-10 * max(1.0, np.linalg.norm(z_ref))
        for got, want in zip((rec.r_p, rec.r_d, rec.r_gap, rec.r_max), res_ref):
            assert abs(got - want) <= max(1e-6 * abs(want), 1e-13)
    y_ref = visited[-1][2]
    assert np.linalg.norm(state.y - y_ref) <= 1e-8 * max(1.0, np.linalg.norm(y_ref))


def test_maxcut_solve_is_bit_identical_with_the_full_width_basis():
    # On max-cut R = +-I, so every basis product is an exact selection, and
    # storing B on the diagonal only changes no bit of the run. The wide
    # kernel is built on the same problem given on every packed position,
    # with the same R.
    p = generate_maxcut(_random_graph(30, 0.3, seed=4))
    kern = build_kernel(p)
    full = SdpProblem.from_support(p.C, np.arange(svec_dim(p.n)), dense_table(p), p.b)
    full.R = p.R
    wide = build_kernel(full)
    assert kern.basis.shape == (p.n, p.n + 1) and np.array_equal(kern.at_pinv_b, wide.at_pinv_b)
    assert wide.basis.shape == (p.n, svec_dim(p.n) + 1)
    cfg = SolverConfig(max_iter=300, tol_rmax=1e-16, seed=3)
    got, got_records, _ = solve(p, cfg, kernel=kern)
    want, want_records, _ = solve(full, cfg, kernel=wide)
    assert got.k == want.k == 300
    for name in ("Z", "X", "y", "S"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert [vars(r) for r in got_records] == [vars(r) for r in want_records]
    # R from the QR of the whole table is also +-I, with other row signs; a
    # kernel built on it negates exactly and gives the same run.
    dense = copy.copy(p)
    dense.R = dense_R(p)
    assert not np.array_equal(dense.R, p.R) and np.array_equal(abs(dense.R), abs(p.R))
    again, again_records, _ = solve(dense, cfg, kernel=build_kernel(dense))
    assert again.k == got.k
    for name in ("Z", "X", "y", "S"):
        assert np.array_equal(getattr(again, name), getattr(got, name))
    assert [vars(r) for r in again_records] == [vars(r) for r in got_records]


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=15, deadline=None)
def test_carried_constraint_image_matches_direct_pass(sigma, seed, max_iter):
    import sdpadmm.solver as solver_mod

    prob, _ = generate_planted(6, 9, 2, seed=seed % 1000)
    kern = build_kernel(prob)
    # Each basis pass reads u_Z - 2 u_X, built from the carried coordinates
    # u_Z = R^-T A(Z).
    passed = []
    real = solver_mod.apply_Bt

    def capture(kernel, u):
        passed.append(u.copy())
        return real(kernel, u)

    cfg = SolverConfig(sigma=sigma, max_iter=max_iter, tol_rmax=1e-300, seed=seed)
    solver_mod.apply_Bt = capture
    try:
        _, records, _ = solve(prob, cfg, kernel=kern, keep_z=True)
    finally:
        solver_mod.apply_Bt = real

    def coords(v):
        return scipy.linalg.solve_triangular(prob.R, v, trans="T")

    # The final, limit-hit iterate is extracted but not recorded.
    assert len(records) + 1 == len(passed) == max_iter + 1
    for rec, u_zx in zip(records, passed):
        x, _ = psd_split(eig_sym(rec.z))
        carried = u_zx + 2.0 * coords(apply_A(prob, x))
        direct = coords(apply_A(prob, rec.z))
        assert np.linalg.norm(carried - direct) <= 1e-13 * (1.0 + np.linalg.norm(direct))


@pytest.mark.parametrize("trace_every", [1, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_planted(10, 20, 3, seed=1)[0],
        lambda: generate_planted(10, 20, 3, seed=1, degeneracy="primal_nd_fail")[0],
        lambda: generate_maxcut(_random_graph(20, 0.3, seed=5)),
    ],
    ids=["planted", "primal_nd_fail", "maxcut"],
)
def test_solve_restarts_exactly_from_every_checkpoint(make, trace_every):
    p = make()
    kern = build_kernel(p)
    cfg = SolverConfig(max_iter=20_000, tol_rmax=1e-10, trace_every=trace_every, seed=1)
    limit = solve(p, cfg, kernel=kern)[0].Z
    full, records, status = solve(p, cfg, kernel=kern, reference=limit, keep_z=True)
    assert status is SolveStatus.CONVERGED
    assert [c.k for c in full.checkpoints] == [2**j for j in range(full.k.bit_length())]
    for point in full.checkpoints:
        state, tail, got_status = solve(p, cfg, kernel=kern, reference=limit, keep_z=True,
                                        start=point)
        want = [r for r in records if r.k >= point.k]
        assert [dataclasses.replace(r, z=None) for r in tail] == [
            dataclasses.replace(r, z=None) for r in want
        ]
        assert all(np.array_equal(got.z, rec.z) for got, rec in zip(tail, want))
        assert got_status is status and state.k == full.k and state.failure is None
        for name in ("Z", "X", "y", "S"):
            assert np.array_equal(getattr(state, name), getattr(full, name))
        assert state.residuals == full.residuals
        assert np.array_equal(state.decomp.lam, full.decomp.lam)
        kept = [c for c in full.checkpoints if c.k >= point.k]
        assert [c.k for c in state.checkpoints] == [c.k for c in kept]
        for mine, theirs in zip(state.checkpoints, kept):
            assert np.array_equal(mine.z, theirs.z) and np.array_equal(mine.u_z, theirs.u_z)


def test_solve_refuses_a_start_that_does_not_fit_the_run(small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(max_iter=8, tol_rmax=1e-16, seed=2)
    state, _, _ = solve(p, cfg, kernel=kern)
    point = state.checkpoints[-1]
    assert point.k == 8 and point.z is state.Z
    for bad in (point._replace(z=point.z[:-1, :-1]), point._replace(u_z=point.u_z[:-1])):
        with pytest.raises(ValueError, match="shape"):
            solve(p, cfg, kernel=kern, start=bad)
    with pytest.raises(ValueError, match="start k = 8 is outside 0..max_iter = 7"):
        solve(p, dataclasses.replace(cfg, max_iter=7), kernel=kern, start=point)


def test_trace_csv_reads_back_the_records_it_wrote(tmp_path, small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(max_iter=30, tol_rmax=1e-16, trace_every=4, seed=3)
    _, records, _ = solve(p, cfg, kernel=kern, reference=np.eye(p.n))
    write_trace_csv(records, tmp_path / "trace.csv")
    got = read_trace_csv(tmp_path / "trace.csv")
    assert list(map(trace_fields, got)) == list(map(trace_fields, records))
    assert all(r.h_norm is None and r.z is None for r in got)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    (tmp_path / "trace.csv").write_text("\n".join([*lines[:3], lines[3] + ",1"]) + "\n")
    with pytest.raises(ValueError, match=r"trace.csv: line 4 '.*,1' is not a trace row"):
        read_trace_csv(tmp_path / "trace.csv")
    (tmp_path / "trace.csv").write_text("\n".join([lines[0] + ",extra", *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="trace.csv: line 1 is not the header"):
        read_trace_csv(tmp_path / "trace.csv")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(tol_rmax=0.0).validate()
    with pytest.raises(ValueError, match="unknown init mode 'explicit'"):
        SolverConfig(init="explicit").validate()
    with pytest.raises(ValueError, match="unknown init mode"):
        SolverConfig(init="warmstart").validate()
    with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
        SolverConfig(max_iter=-1).validate()
    with pytest.raises(ValueError, match="trace_every must be >= 1, got 0"):
        SolverConfig(trace_every=0).validate()


# A NaN tolerance never converges and a NaN sigma fails later inside scipy; a
# mistyped manifest value would raise TypeError in the loop.
@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma", float("nan")),
        ("sigma", float("inf")),
        ("sigma", "2"),
        ("tol_rmax", float("nan")),
        ("time_limit_secs", float("nan")),
        ("time_limit_secs", -1.0),
        ("max_iter", 10.5),
        ("max_iter", True),
        ("trace_every", 2.0),
        ("seed", None),
        ("seed", "1"),
    ],
)
def test_solver_config_rejects_nonfinite_or_mistyped(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value}).validate()


def test_reference_extras_recorded(small_planted, default_cfg):
    p, _, kern = small_planted
    state, _, _ = solve(p, default_cfg, kernel=kern)
    _, records, _ = solve(p, default_cfg, kernel=kern, reference=state.Z, keep_z=True)
    assert all(r.h_norm is not None for r in records)
    assert records[-1].h_norm == 0.0  # final iterate is the reference itself
    for rec in records[:5]:
        assert rec.h_norm == np.linalg.norm(rec.z - state.Z)
    # h_norm decreases overall along a converged run
    assert records[-2].h_norm < records[0].h_norm


# -- step-length identity ----------------------------------------------------


def test_z_difference_identity_at_fixed_point(small_planted, default_cfg):
    p, cert, kern = small_planted
    st = make_state(p, kern, default_cfg, cert.zstar(default_cfg.sigma))
    lhs, rhs, _ = z_difference_identity(p, kern, default_cfg, st)
    assert lhs <= 1e-18 and rhs <= 1e-18


def test_z_difference_identity_random_iterates(small_planted, default_cfg):
    p, _, kern = small_planted
    rng = np.random.default_rng(6)
    for _ in range(10):
        st = make_state(p, kern, default_cfg, random_sym(p.n, rng, scale=2.0))
        _, _, gap = z_difference_identity(p, kern, default_cfg, st)
        assert gap <= 1e-9


def test_z_difference_identity_sigma_scaling(small_planted):
    p, _, kern = small_planted
    cfg = SolverConfig(sigma=10.0)
    rng = np.random.default_rng(7)
    st = make_state(p, kern, cfg, random_sym(p.n, rng))
    lhs, rhs, gap = z_difference_identity(p, kern, cfg, st)
    assert gap <= 1e-9 and lhs > 0.0


def test_fejer_decrease_toward_limit(small_planted, default_cfg):
    p, _, kern = small_planted
    state, _, status = solve(p, default_cfg, kernel=kern)
    assert status is SolveStatus.CONVERGED
    z_final = state.Z
    _, records, _ = solve(p, default_cfg, kernel=kern, reference=z_final)
    slack = 1e-8 * (1.0 + np.linalg.norm(z_final) ** 2)
    for a, b in zip(records[:-1], records[1:]):
        assert b.h_norm**2 <= a.h_norm**2 - a.norm_z_diff**2 + slack
