import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpadmm.linalg import eig_sym, psd_split
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
    residuals,
    solve,
    step_fixed_point,
    step_three,
    write_trace_csv,
    z_difference_identity,
)

from conftest import random_sym
from test_problem import cycle_adjacency


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
    plus, neg = psd_split(state.decomp)
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
    with pytest.raises(ValueError, match="z0 has shape"):
        initial_z(p, SolverConfig(init="explicit", z0=np.eye(p.n + 1)))


def test_one_eigendecomposition_per_iteration(monkeypatch, small_planted):
    import sdpadmm.solver as solver_mod

    p, _, kern = small_planted
    calls = {"n": 0}
    real = solver_mod.eig_sym

    def counting(a):
        calls["n"] += 1
        return real(a)

    monkeypatch.setattr(solver_mod, "eig_sym", counting)
    cfg = SolverConfig(sigma=1.0, max_iter=25, tol_rmax=1e-16, trace_every=1, seed=8)
    state, _, status = solve(p, cfg, kernel=kern)
    assert status is SolveStatus.ITER_LIMIT
    # one factorization per iterate visited (initial point included)
    assert calls["n"] == state.k + 1
    assert state.timings.calls["eig"] == calls["n"]


def test_one_constraint_pass_each_way_per_iteration(monkeypatch, small_planted):
    import sdpadmm.solver as solver_mod

    p, _, kern = small_planted
    calls = {"apply_A": 0, "apply_At": 0}

    def counting(name):
        real = getattr(solver_mod, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(solver_mod, name, counting(name))
    cfg = SolverConfig(sigma=1.0, max_iter=25, tol_rmax=1e-16, trace_every=3, seed=8)
    state, records, status = solve(p, cfg, kernel=kern)
    assert status is SolveStatus.ITER_LIMIT
    extractions = state.k + 1
    # Setup: A(const), A(C) and A(Z0). Then one A(X) and one two-column A*
    # per extracted iterate.
    assert calls["apply_A"] == extractions + 3
    assert calls["apply_At"] == extractions
    t = state.timings
    assert t.calls == {
        "eig": extractions,
        "constraint_op": calls["apply_A"] + calls["apply_At"],
        "normal_solve": extractions,
        "record": len(records),
    }
    assert set(t.seconds) == set(PHASES) and all(v >= 0.0 for v in t.seconds.values())


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
        visited.append((z, res))
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
    ],
    ids=["planted", "primal_nd_fail", "maxcut", "diagnose_shape"],
)
def test_fused_loop_matches_reference_path(make):
    p = make()
    kern = build_kernel(p)
    cfg = SolverConfig(sigma=1.0, max_iter=20_000, tol_rmax=1e-10, trace_every=1, seed=1)
    visited, ref_status = _reference_run(p, kern, cfg)
    state, records, status = solve(p, cfg, kernel=kern, keep_z=True)
    assert status is ref_status is SolveStatus.CONVERGED
    assert state.k == len(visited) - 1
    assert [r.k for r in records] == list(range(len(visited)))
    for rec, (z_ref, res_ref) in zip(records, visited):
        assert np.linalg.norm(rec.z - z_ref) <= 1e-10 * max(1.0, np.linalg.norm(z_ref))
        for got, want in zip((rec.r_p, rec.r_d, rec.r_gap, rec.r_max), res_ref):
            assert abs(got - want) <= max(1e-6 * abs(want), 1e-13)


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
    # Column 1 of each normal-equation right-hand side is A(Z) - 2 A(X),
    # built from the carried A(Z).
    second_columns = []
    real = solver_mod.solve_normal

    def capture(kernel, rhs):
        second_columns.append(rhs[:, 1].copy())
        return real(kernel, rhs)

    cfg = SolverConfig(sigma=sigma, max_iter=max_iter, tol_rmax=1e-300, seed=seed)
    solver_mod.solve_normal = capture
    try:
        _, records, _ = solve(prob, cfg, kernel=kern, keep_z=True)
    finally:
        solver_mod.solve_normal = real
    # The final, limit-hit iterate is extracted but not recorded.
    assert len(records) + 1 == len(second_columns) == max_iter + 1
    for rec, col in zip(records, second_columns):
        x, _ = psd_split(eig_sym(rec.z))
        carried = col + 2.0 * apply_A(prob, x)
        direct = apply_A(prob, rec.z)
        assert np.linalg.norm(carried - direct) <= 1e-13 * (1.0 + np.linalg.norm(direct))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(tol_rmax=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(init="explicit").validate()
    with pytest.raises(ValueError):
        SolverConfig(init="warmstart").validate()


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
