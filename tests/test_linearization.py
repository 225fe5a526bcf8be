import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpadmm import diagnostics, linearization
from sdpadmm.diagnostics import dual_witness, eigen_frame, nd_check, primal_witness
from sdpadmm.elimination import run_elimination
from sdpadmm.errors import NumericalFailureError
from sdpadmm.linalg import (
    RANK_TAU,
    SpectralDecomp,
    eig_sym,
    positive_part,
    psd_project,
    smat,
    split_counts,
    svec,
    svec_dim,
)
from sdpadmm.problem import (
    SdpProblem,
    apply_Bt,
    build_kernel,
    generate_maxcut,
    generate_planted,
    haar_orthogonal,
    project_null,
    project_range,
)
from sdpadmm.linearization import (
    FixSubspace,
    apply_M,
    apply_M_adjoint,
    apply_M_directional,
    build_directional,
    build_omega,
    directional_derivative,
    fix_basis,
    hadamard,
    norm_M,
    op_norm_M,
    op_norm_M_minus_fix,
    psi_residual,
    rotated_M,
)
from sdpadmm.solver import SolverConfig, solve, step_fixed_point

from conftest import random_indefinite, random_sym


def dense_operator(apply_fn, n):
    """Matrix of a linear operator on S^n in svec coordinates."""
    t = svec_dim(n)
    mat = np.zeros((t, t))
    for i in range(t):
        e = np.zeros(t)
        e[i] = 1.0
        mat[:, i] = svec(apply_fn(smat(e)))
    return mat


def full_span_problem(n):
    """All of S^n as constraint range: P becomes the identity."""
    t = svec_dim(n)
    mats = np.stack([smat(np.eye(t)[i]) for i in range(t)])
    return SdpProblem(C=np.zeros((n, n)), A=mats, b=np.zeros(t))


# -- omega structure ----------------------------------------------------------


def test_build_omega_2x2():
    os_ = build_omega(eig_sym(np.diag([2.0, -1.0])))
    assert os_.r == 1
    assert np.allclose(os_.theta, [[2.0 / 3.0]])
    assert np.allclose(os_.omega, [[1.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]])
    # One copy of the corner: theta is a view of omega.
    assert np.shares_memory(os_.theta, os_.omega)


def test_build_omega_3x3_double_positive():
    os_ = build_omega(eig_sym(np.diag([1.0, 1.0, -1.0])))
    assert os_.r == 2
    assert np.allclose(os_.theta, [[0.5, 0.5]])
    assert np.all((os_.theta > 0.0) & (os_.theta < 1.0))


def test_build_omega_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        build_omega(eig_sym(np.diag([1.0, 0.0, -1.0])))


def test_omega_is_projection_derivative():
    # finite differences of the projection against the Hadamard differential
    rng = np.random.default_rng(0)
    z = random_indefinite(6, 3, rng, gap=0.6)
    os_ = build_omega(eig_sym(z))
    h = random_sym(6, rng)
    ratios = []
    for t in (1e-2, 1e-3, 1e-4, 1e-5):
        resid = psd_project(z + t * h) - psd_project(z) - t * hadamard(os_, os_.omega, h)
        ratios.append(np.linalg.norm(resid, 2) / t)
    assert ratios[-1] <= 1e-3
    assert all(b <= 0.5 * a for a, b in zip(ratios[:-1], ratios[1:]))  # O(t) decay


# -- the linear operator -----------------------------------------------------


def test_apply_M_full_span_reduces_to_hadamard():
    p = full_span_problem(4)
    kern = build_kernel(p)
    rng = np.random.default_rng(1)
    z = random_indefinite(4, 2, rng)
    os_ = build_omega(eig_sym(z))
    h = random_sym(4, rng)
    expected = hadamard(os_, 1.0 - os_.omega, h)
    assert np.allclose(apply_M(os_, kern, h), expected, atol=1e-12)


def test_apply_M_linear(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(2)
    h1, h2 = random_sym(p.n, rng), random_sym(p.n, rng)
    a, b = rng.standard_normal(2)
    lhs = apply_M(os_, kern, a * h1 + b * h2)
    rhs = a * apply_M(os_, kern, h1) + b * apply_M(os_, kern, h2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


def test_apply_M_firmly_nonexpansive(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = random_sym(p.n, rng)
        mh = apply_M(os_, kern, h)
        assert np.sum(mh * h) >= np.sum(mh * mh) - 1e-10 * np.sum(h * h)


def test_adjoint_pairing(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(4)
    for _ in range(10):
        h, g = random_sym(p.n, rng), random_sym(p.n, rng)
        lhs = np.sum(apply_M(os_, kern, h) * g)
        rhs = np.sum(h * apply_M_adjoint(os_, kern, g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hadamard_inner_product_identity(small_planted):
    # <Omega o H, Omega^c o H> = 2 <Theta o H_O, Theta^c o H_O> >= 0
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(5)
    for _ in range(200):
        h = random_sym(p.n, rng)
        g = hadamard(os_, os_.omega, h)
        gc = hadamard(os_, 1.0 - os_.omega, h)
        ho = os_.offblock(h)
        lhs = np.sum(g * gc)
        rhs = 2.0 * np.sum((os_.theta * ho) * (os_.theta_comp * ho))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.sum(h * h))
        assert lhs >= -1e-12 * np.sum(h * h)
    # zero off-block forces the inner product to vanish
    hb = np.zeros((p.n, p.n))
    hb[: os_.r, : os_.r] = random_sym(os_.r, rng)
    hb[os_.r :, os_.r :] = random_sym(p.n - os_.r, rng)
    h0 = os_.rotate_out(hb)
    g = hadamard(os_, os_.omega, h0)
    gc = hadamard(os_, 1.0 - os_.omega, h0)
    assert abs(np.sum(g * gc)) <= 1e-12
    assert np.linalg.norm(os_.offblock(h0)) <= 1e-10


def test_energy_identity(small_planted):
    # ||H||^2 - ||M H||^2 decomposes into projected Hadamard parts plus the
    # off-block cross term.
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(6)
    for _ in range(100):
        h = random_sym(p.n, rng)
        mh = apply_M(os_, kern, h)
        g = hadamard(os_, os_.omega, h)
        gc = h - g
        ho = os_.offblock(h)
        lhs = np.sum(h * h) - np.sum(mh * mh)
        rhs = (
            np.sum(project_range(kern, g) ** 2)
            + np.sum(project_null(kern, gc) ** 2)
            + 4.0 * np.sum((os_.theta * ho) * (os_.theta_comp * ho))
        )
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.sum(h * h))


def test_firm_nonexpansiveness_chain(small_planted):
    # <M H, H> = ||M H||^2 + <Omega^c o H, Omega o H>
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_sym(p.n, rng)
        mh = apply_M(os_, kern, h)
        g = hadamard(os_, os_.omega, h)
        lhs = np.sum(mh * h)
        rhs = np.sum(mh * mh) + np.sum((h - g) * g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.sum(h * h))


# -- psi residual ------------------------------------------------------------


def test_psi_zero_at_reference(small_planted, default_cfg):
    p, cert, kern = small_planted
    zstar = cert.zstar(1.0)
    os_ = build_omega(eig_sym(zstar))
    psi = psi_residual(os_, kern, zstar, zstar)
    assert np.linalg.norm(psi) <= 1e-12 * max(1.0, np.linalg.norm(zstar))


def test_psi_norm_preserved_under_reflection(small_planted):
    p, cert, kern = small_planted
    zstar = cert.zstar(1.0)
    os_ = build_omega(eig_sym(zstar))
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = zstar + 0.3 * random_sym(p.n, rng)
        raw = psd_project(z) - positive_part(os_) - hadamard(os_, os_.omega, z - zstar)
        assert abs(
            np.linalg.norm(psi_residual(os_, kern, z, zstar)) - np.linalg.norm(raw)
        ) <= 1e-12 * max(1.0, np.linalg.norm(raw))


def test_linearization_identity_against_step(small_planted, default_cfg):
    # Z+ - Zstar = M(Z - Zstar) + Psi, exactly, for any Z.
    p, cert, kern = small_planted
    zstar = cert.zstar(1.0)
    os_ = build_omega(eig_sym(zstar))
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = zstar + rng.uniform(1e-3, 2.0) * random_sym(p.n, rng)
        lhs = step_fixed_point(p, kern, default_cfg, z) - zstar
        rhs = apply_M(os_, kern, z - zstar) + psi_residual(os_, kern, z, zstar)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(z - zstar))


def test_psi_vanishes_for_block_diagonal_perturbation(small_planted):
    # In the reference eigenbasis, perturbations without off-block leave no
    # quadratic remainder while they stay within the eigenvalue gap.
    p, cert, kern = small_planted
    rng = np.random.default_rng(10)
    lam = np.concatenate([rng.uniform(1.0, 2.0, 3), -rng.uniform(1.0, 2.0, p.n - 3)])
    zstar = np.diag(lam)
    os_ = build_omega(eig_sym(zstar))
    hb = np.zeros((p.n, p.n))
    hb[:3, :3] = random_sym(3, rng)
    hb[3:, 3:] = random_sym(p.n - 3, rng)
    h = os_.rotate_out(hb)
    h *= 0.9 / np.linalg.norm(h, 2)  # within min(lam_r, -lam_{r+1}) = 1
    psi = psi_residual(os_, kern, zstar + h, zstar)
    assert np.linalg.norm(psi) <= 1e-12 * np.linalg.norm(h)


# -- operator norms ----------------------------------------------------------


def test_op_norm_full_span_is_one():
    # P = Id: M reduces to the complementary Hadamard mask, whose operator
    # norm is its largest entry (the all-ones trailing block).
    p = full_span_problem(4)
    kern = build_kernel(p)
    z = np.diag([2.0, 1.0, -1.0, -2.0])
    os_ = build_omega(eig_sym(z))
    assert op_norm_M(os_, kern) == pytest.approx(1.0, abs=1e-8)


def dense_norm(apply_fn, n):
    """Oracle operator norm: the largest singular value of the dense matrix."""
    return np.linalg.svd(dense_operator(apply_fn, n), compute_uv=False)[0]


def degenerate_limit(n, m, r, instance_seed, **cfg):
    """Omega structure, kernel and Fix(M) at the 1e-10 limit of a planted
    instance whose primal nondegeneracy fails."""
    prob, _ = generate_planted(n, m, r, seed=instance_seed, degeneracy="primal_nd_fail")
    kern = build_kernel(prob)
    cfg = SolverConfig(sigma=1.0, max_iter=100_000, tol_rmax=1e-10, trace_every=10, **cfg)
    state, _, _ = solve(prob, cfg, kernel=kern)
    os_ = build_omega(eig_sym(state.Z))
    return os_, kern, fix_basis(os_, kern)


def fix_members(os_, fix):
    """Oracle: the members of Fix(M) as a (dim, n, n) stack, Q smat(row) Q'."""
    return os_.rotate_out(smat(fix.rows))


def fix_projector(os_, fix):
    """Oracle: Pi_Fix on S^n, by inner products with the member stack."""
    members = fix_members(os_, fix)

    def project(h):
        return np.einsum("k,kij->ij", np.einsum("kij,ij->k", members, h), members)

    return project


@pytest.fixture(scope="module")
def diagnose_shape():
    """The (24, 100, 3) primal-ND-failing instance of the diagnose benchmark
    workload, solved from zero; shared because the solve takes about 0.5 s."""
    return degenerate_limit(24, 100, 3, instance_seed=1, init="zero")


def test_op_norm_matches_dense_oracle(diagnose_shape):
    prob, cert = generate_planted(6, 10, 2, seed=4)
    kern = build_kernel(prob)
    planted = build_omega(eig_sym(cert.zstar(1.0)))
    got = op_norm_M(planted, kern)
    assert got < 1.0
    assert abs(got - dense_norm(lambda h: apply_M(planted, kern, h), 6)) <= 1e-10
    assert op_norm_M(planted, kern) == got  # fixed start vector: bit-identical
    # Fix(M) is nontrivial at the diagnose shape, so ||M|| = 1 exactly there.
    os_, kern, _ = diagnose_shape
    got = op_norm_M(os_, kern)
    assert got == 1.0
    assert abs(got - dense_norm(lambda h: apply_M(os_, kern, h), os_.n)) <= 1e-10


def test_op_norm_single_entry():
    # n = 1 is below ARPACK's minimum size; the norm is |M(E11)| directly.
    # Z* = [-2] gives Omega = 0, so M = P: the identity with the one
    # constraint, zero without it.
    os_ = build_omega(eig_sym(np.array([[-2.0]])))
    spanned = SdpProblem(C=np.zeros((1, 1)), A=np.ones((1, 1, 1)), b=np.ones(1))
    empty = SdpProblem(C=np.zeros((1, 1)), A=np.zeros((0, 1, 1)), b=np.zeros(0))
    assert op_norm_M(os_, build_kernel(spanned)) == pytest.approx(1.0, abs=1e-15)
    assert op_norm_M(os_, build_kernel(empty)) == 0.0


def test_op_norm_no_convergence_is_numerical_failure(small_planted, monkeypatch):
    import scipy.sparse.linalg

    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    p, cert, kern = small_planted
    with pytest.raises(NumericalFailureError, match="Lanczos") as info:
        op_norm_M(build_omega(eig_sym(cert.zstar(1.0))), kern)
    assert info.value.details == {"svec_dim": svec_dim(p.n), "converged": 0}
    json.dumps(info.value.details)


def test_op_norm_below_one_plus_eps(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    assert op_norm_M(os_, kern) <= 1.0 + 1e-9


# -- fixed subspace ----------------------------------------------------------


def test_fix_basis_trivial_for_nondegenerate(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    assert fix_basis(os_, kern).dim == 0


def test_fix_basis_degenerate_instance():
    os_, kern, fix = degenerate_limit(8, 14, 3, instance_seed=5, seed=0)
    assert fix.dim >= 1
    r = os_.r
    members = fix_members(os_, fix)
    for b in members:
        bt = os_.rotate_in(b)
        assert np.linalg.norm(bt[r:, :r]) <= 1e-9  # no off-block
        lead = np.zeros_like(b)
        lead_t = np.zeros_like(bt)
        lead_t[:r, :r] = bt[:r, :r]
        lead = os_.rotate_out(lead_t)
        trail = b - lead
        assert np.linalg.norm(project_range(kern, lead)) <= 1e-9
        assert np.linalg.norm(project_null(kern, trail)) <= 1e-9
        # membership: fixed by the operator
        assert np.linalg.norm(apply_M(os_, kern, b) - b) <= 1e-9
    gram = np.einsum("aij,bij->ab", members, members)
    assert np.linalg.norm(gram - np.eye(fix.dim)) <= 1e-10


def test_fix_basis_no_constraints():
    p = SdpProblem(C=np.zeros((5, 5)), A=np.zeros((0, 5, 5)), b=np.zeros(0))
    kern = build_kernel(p)
    z = np.diag([2.0, 1.5, 1.0, -1.0, -2.0])
    os_ = build_omega(eig_sym(z))
    fix = fix_basis(os_, kern)
    assert fix.dim == 3 * 4 // 2  # leading-block family only


def test_op_norm_minus_fix(small_planted):
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    fix = fix_basis(os_, kern)
    assert fix.dim == 0
    a = op_norm_M(os_, kern)
    b = op_norm_M_minus_fix(os_, kern, fix)
    # Pi_Fix = 0: the two norms are one estimate.
    assert a == b


def test_op_norm_minus_fix_degenerate_matches_dense(diagnose_shape):
    for os_, kern, fix in (degenerate_limit(7, 12, 2, instance_seed=6, seed=1), diagnose_shape):
        n = os_.n
        assert fix.dim >= 1
        project = fix_projector(os_, fix)
        for b in fix_members(os_, fix):
            resid = apply_M(os_, kern, b) - project(b)
            assert np.linalg.norm(resid) <= 1e-9
        got = op_norm_M_minus_fix(os_, kern, fix)
        expected = dense_norm(lambda h: apply_M(os_, kern, h) - project(h), n)
        assert got < 1.0 - 1e-8
        assert abs(got - expected) <= 1e-10
        assert op_norm_M_minus_fix(os_, kern, fix) == got  # bit-identical
        # projector sanity: idempotent and self-adjoint
        rng = np.random.default_rng(11)
        h, g = random_sym(n, rng), random_sym(n, rng)
        assert np.linalg.norm(project(project(h)) - project(h)) <= 1e-10
        assert abs(np.sum(project(h) * g) - np.sum(h * project(g))) <= 1e-10


def test_separation_gate_refuses_a_short_basis():
    # Without one of its members, Pi_Fix no longer removes a fixed direction
    # of M, so ||M - Pi_Fix|| = 1: the estimate is returned, and diagnose's
    # separation gate is what refuses it.
    os_, kern, fix = degenerate_limit(7, 12, 2, instance_seed=6, seed=1)
    assert fix.dim >= 1
    assert op_norm_M_minus_fix(os_, kern, FixSubspace(rows=fix.rows[1:])) >= 1.0 - 1e-8


def test_norm_M_reads_fix():
    assert norm_M(3, 0.25) == 1.0
    assert norm_M(3, None) == 1.0
    assert norm_M(0, 0.25) == 0.25
    assert norm_M(0, None) is None


def test_op_norm_M_alone_is_not_gated(small_planted, monkeypatch):
    # At Fix(M) = {0}, ||M|| is the estimate of ||M - Pi_Fix||, also one that
    # diagnose's separation gate would refuse.
    p, cert, kern = small_planted
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    assert op_norm_M(os_, kern) == op_norm_M_minus_fix(os_, kern, fix_basis(os_, kern))
    monkeypatch.setattr(linearization, "op_norm_M_minus_fix", lambda *args: 1.0 - 1e-12)
    assert op_norm_M(os_, kern) == 1.0 - 1e-12


# -- the eigenbasis frame ------------------------------------------------------


def _stack_fix_basis(os_, kern):
    """Oracle: Fix(M) as built before the frame, from the rotated (m, n, n)
    stack, with the leading family Q1 smat(u) Q1' and the trailing family
    B*q formed by apply_Bt."""
    at = svec(os_.rotate_in(kern.problem.A))
    q1 = os_.Q[:, : os_.r]
    members = [q1 @ smat(u) @ q1.T for u in dual_witness(at, os_.r)[0].T]
    q, _ = np.linalg.qr(kern.problem.R @ primal_witness(at, os_.r)[0])
    members.extend(apply_Bt(kern, q.T))
    return np.stack(members) if members else np.zeros((0, os_.n, os_.n))


def _frame_cases(diagnose_shape, small_planted):
    p, cert, kern = small_planted
    yield build_omega(eig_sym(cert.zstar(1.0))), kern
    yield diagnose_shape[:2]
    os_, kern, _ = degenerate_limit(7, 12, 2, instance_seed=6, seed=1)
    yield os_, kern


def test_rotated_M_matches_the_matrix_operators(diagnose_shape, small_planted):
    for os_, kern in _frame_cases(diagnose_shape, small_planted):
        frame = eigen_frame(kern, os_.Q)
        assert np.linalg.norm(frame.bt @ frame.bt.T - np.eye(kern.problem.m)) <= 1e-12
        op, adjoint = rotated_M(os_, frame)
        rng = np.random.default_rng(3)
        for _ in range(3):
            v = rng.standard_normal(svec_dim(os_.n))
            h = os_.rotate_out(smat(v))
            want = svec(os_.rotate_in(apply_M(os_, kern, h)))
            assert np.linalg.norm(op(v) - want) <= 1e-12 * np.linalg.norm(v)
            want = svec(os_.rotate_in(apply_M_adjoint(os_, kern, h)))
            assert np.linalg.norm(adjoint(v) - want) <= 1e-12 * np.linalg.norm(v)


def test_fix_rows_are_the_rotated_basis(diagnose_shape, small_planted):
    for os_, kern in _frame_cases(diagnose_shape, small_planted):
        frame = eigen_frame(kern, os_.Q)
        fix = fix_basis(os_, kern, frame)
        assert fix.rows.shape == (fix.dim, svec_dim(os_.n))
        assert np.linalg.norm(fix.rows @ fix.rows.T - np.eye(fix.dim)) <= 1e-12
        # The same subspace as the stack construction: equal projectors.
        old = svec(_stack_fix_basis(os_, kern))
        new = svec(fix_members(os_, fix))
        assert old.shape == new.shape
        assert np.linalg.norm(old.T @ old - new.T @ new) <= 1e-12


def test_one_frame_gives_the_per_function_witnesses(diagnose_shape, small_planted, monkeypatch):
    # nd_check and fix_basis read the frame's table and share its witness
    # null spaces; alone, each makes its own frame and takes both SVDs
    # itself. The witness dimensions and Fix(M) are the same.
    svds = []
    original = diagnostics.null_space

    def counting(mat):
        svds.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(diagnostics, "null_space", counting)
    for os_, kern in _frame_cases(diagnose_shape, small_planted):
        prob = kern.problem
        dec = SpectralDecomp(Q=os_.Q, lam=os_.lam)
        r, s = split_counts(dec.lam)
        assert r == os_.r == os_.n - s  # the splits agree, SC holds
        frame = eigen_frame(kern, dec.Q)
        del svds[:]
        report = nd_check(prob, dec, frame)
        shared = fix_basis(os_, kern, frame)
        assert len(svds) == 2
        del svds[:]
        assert report == nd_check(prob, dec)
        alone = fix_basis(os_, kern)
        assert len(svds) == 4
        assert shared.dim == alone.dim == _stack_fix_basis(os_, kern).shape[0]
        assert np.array_equal(shared.rows, alone.rows)


def _planted_limit(n, m, r, degeneracy="none"):
    prob, cert = generate_planted(n, m, r, seed=1, degeneracy=degeneracy)
    return build_omega(eig_sym(cert.zstar(1.0))), build_kernel(prob)


def _maxcut_limit():
    """Omega structure and kernel at the solved limit of max-cut on G(12, 0.4)."""
    upper = np.triu(np.random.default_rng(0).random((12, 12)) < 0.4, 1)
    prob = generate_maxcut((upper | upper.T).astype(float))
    cfg = SolverConfig(sigma=1.0, max_iter=200_000, tol_rmax=1e-10, seed=0, trace_every=100)
    state, _, _ = solve(prob, cfg)
    return build_omega(eig_sym(state.Z)), build_kernel(prob)


@pytest.mark.parametrize(
    "family, dims",
    [("planted-nd", (0, 0)), ("primal-nd-fail", (31, 0)), ("dual-nd-fail", (0, 5)),
     ("maxcut", (0, 0))],
)
def test_frame_matches_the_rotated_constraint_table(diagnose_shape, family, dims):
    # Oracle: the path the frame of B~ = svec(Q'B_iQ) replaced. The witnesses
    # of the rotated constraint table svec(Q'A_iQ), and the trailing family
    # of Fix(M) from a QR of R y (``_stack_fix_basis``). A = R'B with R
    # invertible, so both give the same spaces.
    os_, kern = {
        "planted-nd": lambda: _planted_limit(20, 40, 3),
        "primal-nd-fail": lambda: diagnose_shape[:2],
        "dual-nd-fail": lambda: _planted_limit(10, 10, 5),
        "maxcut": _maxcut_limit,
    }[family]()
    at = svec(os_.rotate_in(kern.problem.A))
    k = os_.n - os_.s
    report = nd_check(kern.problem, SpectralDecomp(Q=os_.Q, lam=os_.lam))
    assert (report.primal_witness_dim, report.dual_witness_dim) == dims
    assert dims == (primal_witness(at, os_.r)[0].shape[1], dual_witness(at, k)[0].shape[1])
    fix = fix_basis(os_, kern)
    old = svec(_stack_fix_basis(os_, kern))
    new = svec(fix_members(os_, fix))
    assert fix.dim == old.shape[0] == sum(dims)
    assert np.linalg.norm(old.T @ old - new.T @ new) <= 1e-10


def _mixing(m, rng, cond=1e3):
    """A random (m, m) matrix with condition number ``cond`` (1 at m = 1)."""
    spectrum = np.logspace(0.0, -np.log10(cond), m)
    return (haar_orthogonal(m, rng) * spectrum) @ haar_orthogonal(m, rng)


@given(
    st.integers(min_value=3, max_value=7),
    st.data(),
    st.sampled_from(["none", "primal_nd_fail"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_mixing_the_constraints_changes_no_witness(n, data, degeneracy, seed):
    # A -> MA, b -> Mb for an invertible M keeps range(A*), so the witnesses
    # and Fix(M) stay, and the kernel's orthonormal basis B changes by an
    # orthogonal U: the mixed frame's table is U bt.
    r = data.draw(st.integers(1, n - 2 if degeneracy == "primal_nd_fail" else n - 1))
    m = data.draw(st.integers(1, svec_dim(n) - 1))
    prob, cert = generate_planted(n, m, r, seed=seed, degeneracy=degeneracy)
    mix = _mixing(m, np.random.default_rng(seed))
    mixed = SdpProblem.from_table(prob.C, mix @ prob.table, mix @ prob.b)
    dec = eig_sym(cert.zstar(1.0))
    os_ = build_omega(dec)
    reports, rows, tables = [], [], []
    for p in (prob, mixed):
        kern = build_kernel(p)
        frame = eigen_frame(kern, dec.Q)
        reports.append(nd_check(p, dec, frame))
        rows.append(fix_basis(os_, kern, frame).rows)
        tables.append(frame.bt)
    # The margins are singular values of maps that differ by U: equal up to
    # roundoff.
    plain = [dataclasses.replace(rep, primal_margin=None, dual_margin=None) for rep in reports]
    assert plain[0] == plain[1]
    for side in ("primal_margin", "dual_margin"):
        assert getattr(reports[0], side) == pytest.approx(getattr(reports[1], side), abs=1e-10)
    assert np.linalg.norm(rows[0].T @ rows[0] - rows[1].T @ rows[1]) <= 1e-10
    u = tables[1] @ tables[0].T
    assert np.linalg.norm(u @ u.T - np.eye(m)) <= 1e-10
    assert np.linalg.norm(tables[1] - u @ tables[0]) <= 1e-10


def test_op_norm_minus_fix_one_projection_matches_two(diagnose_shape):
    # (M - Pi)*(M - Pi) = M*M - Pi because M fixes Fix(M) = Fix(M*): the
    # one-projection operator equals the two-projection one up to the fixed
    # point residual of the computed basis, (M* - I)Pi + Pi(M - I), and the
    # norm matches the dense norm of either.
    for os_, kern, fix in (degenerate_limit(7, 12, 2, instance_seed=6, seed=1), diagnose_shape):
        assert fix.dim >= 1
        frame = eigen_frame(kern, os_.Q)
        op, adjoint = rotated_M(os_, frame)
        f = fix.rows
        resid = np.linalg.norm([adjoint(row) - row for row in f])
        assert resid <= 1e-9

        def two(v):
            u = op(v) - (f @ v) @ f
            return adjoint(u) - (f @ u) @ f

        def one(v):
            return adjoint(op(v)) - (f @ v) @ f

        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.standard_normal(svec_dim(os_.n))
            assert np.linalg.norm(one(v) - two(v)) <= (2.0 * resid + 1e-12) * np.linalg.norm(v)
        eye = np.eye(svec_dim(os_.n))
        gram_two = np.stack([two(e) for e in eye], axis=1)
        want = np.sqrt(np.linalg.eigvalsh(0.5 * (gram_two + gram_two.T))[-1])
        got = op_norm_M_minus_fix(os_, kern, fix, frame)
        assert abs(got - want) <= 1e-10
        dense = dense_norm(lambda h: apply_M(os_, kern, h) - fix_projector(os_, fix)(h), os_.n)
        assert abs(got - dense) <= 1e-10


def test_norm_estimates_count_their_applications(diagnose_shape):
    os_, kern, fix = diagnose_shape
    frame = eigen_frame(kern, os_.Q)
    # Fix(M) is nontrivial: ||M|| is 1 without a Lanczos estimate.
    assert op_norm_M(os_, kern, frame) == 1.0 == op_norm_M(os_, kern)
    assert frame.applications == {}
    norm_mf = op_norm_M_minus_fix(os_, kern, fix, frame)
    counts = dict(frame.applications)
    assert set(counts) == {"op_norm_M_minus_fix"}
    assert all(isinstance(c, int) and c > 0 for c in counts.values())
    assert op_norm_M_minus_fix(os_, kern, fix, frame) == norm_mf
    assert frame.applications == counts


@given(
    st.integers(min_value=3, max_value=7),
    st.data(),
    st.sampled_from(["none", "primal_nd_fail"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_rotated_M_properties(n, data, degeneracy, seed):
    # A primal witness needs a trailing block of order at least 2.
    r = data.draw(st.integers(1, n - 2 if degeneracy == "primal_nd_fail" else n - 1))
    m = data.draw(st.integers(1, svec_dim(n) - 1))
    prob, cert = generate_planted(n, m, r, seed=seed, degeneracy=degeneracy)
    kern = build_kernel(prob)
    os_ = build_omega(eig_sym(cert.zstar(1.0)))
    op, adjoint = rotated_M(os_, eigen_frame(kern, os_.Q))
    rng = np.random.default_rng(seed)
    v, g = rng.standard_normal((2, svec_dim(n)))
    mv = op(v)
    norm_v, norm_g = np.linalg.norm(v), np.linalg.norm(g)
    assert np.linalg.norm(mv) <= (1.0 + 1e-12) * norm_v
    assert abs(mv @ g - v @ adjoint(g)) <= 1e-12 * norm_v * norm_g
    want = svec(os_.rotate_in(apply_M(os_, kern, os_.rotate_out(smat(v)))))
    assert np.linalg.norm(mv - want) <= 1e-12 * norm_v


# -- directional derivative path ----------------------------------------------


def test_directional_derivative_psd_beta_block():
    z = np.diag([1.0, 0.0, 0.0, -1.0])
    ds = build_directional(eig_sym(z))
    assert ds.beta.size == 2
    hb = np.zeros((4, 4))
    hb[1:3, 1:3] = np.array([[2.0, 0.5], [0.5, 1.0]])  # positive definite
    h = ds.Q @ hb @ ds.Q.T
    assert np.allclose(directional_derivative(ds, h), h, atol=1e-12)
    hb_neg = np.zeros((4, 4))
    hb_neg[1:3, 1:3] = -np.array([[2.0, 0.5], [0.5, 1.0]])
    h_neg = ds.Q @ hb_neg @ ds.Q.T
    assert np.linalg.norm(directional_derivative(ds, h_neg)) <= 1e-12


def test_directional_derivative_finite_difference():
    z = np.diag([1.0, 0.0, -1.0])
    ds = build_directional(eig_sym(z))
    rng = np.random.default_rng(12)
    h = random_sym(3, rng)
    ratios = []
    for t in (1e-2, 1e-3, 1e-4, 1e-5):
        resid = psd_project(z + t * h) - psd_project(z) - t * directional_derivative(ds, h)
        ratios.append(np.linalg.norm(resid, 2) / t)
    assert ratios[-1] <= 1e-3
    assert all(b <= 0.5 * a for a, b in zip(ratios[:-1], ratios[1:]))


def test_directional_derivative_positively_homogeneous():
    z = np.diag([2.0, 1.0, 0.0, -1.5])
    ds = build_directional(eig_sym(z))
    rng = np.random.default_rng(13)
    h = random_sym(4, rng)
    for t in (0.5, 2.0, 7.3):
        assert np.allclose(
            directional_derivative(ds, t * h), t * directional_derivative(ds, h), atol=1e-12
        )


def test_directional_reduces_to_omega_when_nonsingular(small_planted):
    p, cert, kern = small_planted
    dec = eig_sym(cert.zstar(1.0))
    ds = build_directional(dec)
    os_ = build_omega(dec)
    assert ds.beta.size == 0
    rng = np.random.default_rng(14)
    h = random_sym(p.n, rng)
    assert np.allclose(
        directional_derivative(ds, h), hadamard(os_, os_.omega, h), atol=1e-12
    )
    assert np.allclose(
        apply_M_directional(ds, kern, h), apply_M(os_, kern, h), atol=1e-12
    )


def test_directional_energy_identity():
    # Singular-reference analogue of the energy identity, with the off-corner
    # cross term over the gamma-alpha block.
    prob, cert = generate_planted(6, 8, 2, seed=7)
    kern = build_kernel(prob)
    z = np.diag([2.0, 1.0, 0.0, 0.0, -1.0, -2.0])
    ds = build_directional(eig_sym(z))
    assert ds.beta.size == 2
    rng = np.random.default_rng(15)
    for _ in range(100):
        h = random_sym(6, rng)
        d = directional_derivative(ds, h)
        mh = apply_M_directional(ds, kern, h)
        ht = ds.Q.T @ h @ ds.Q
        h_ga = ht[np.ix_(ds.gamma, ds.alpha)]
        lhs = np.sum(h * h) - np.sum(mh * mh)
        rhs = (
            np.sum(project_range(kern, d) ** 2)
            + np.sum(project_null(kern, h - d) ** 2)
            + 4.0 * np.sum((ds.theta_t * h_ga) * (ds.theta_t_comp * h_ga))
        )
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.sum(h * h))
        assert np.linalg.norm(mh) <= np.linalg.norm(h) + 1e-10
        # positive homogeneity: doubling H doubles the image
        assert np.allclose(apply_M_directional(ds, kern, 2.0 * h), 2.0 * mh, atol=1e-12)


def _index_split_oracle(dec):
    """Index-set split and gamma-alpha weights, one np.flatnonzero per set."""
    lam = dec.lam
    thr = RANK_TAU * (float(np.max(np.abs(lam))) if lam.size else 0.0)
    alpha = np.flatnonzero(lam > thr)
    gamma = np.flatnonzero(lam < -thr)
    beta = np.flatnonzero(np.abs(lam) <= thr)
    pos, neg = lam[alpha], lam[gamma]
    theta_t = (
        pos[None, :] / (pos[None, :] - neg[:, None])
        if alpha.size and gamma.size
        else np.zeros((gamma.size, alpha.size))
    )
    return alpha, beta, gamma, theta_t


def _directional_oracle(dec, h):
    """The directional derivative written block by block with np.ix_."""
    a, b, g, theta_t = _index_split_oracle(dec)
    ht = dec.Q.T @ np.asarray(h, dtype=float) @ dec.Q
    out = np.zeros_like(ht)
    out[np.ix_(a, a)] = ht[np.ix_(a, a)]
    out[np.ix_(b, a)] = ht[np.ix_(b, a)]
    out[np.ix_(a, b)] = ht[np.ix_(a, b)]
    out[np.ix_(g, a)] = theta_t * ht[np.ix_(g, a)]
    out[np.ix_(a, g)] = out[np.ix_(g, a)].T
    if b.size:
        out[np.ix_(b, b)] = psd_project(ht[np.ix_(b, b)])
    return dec.Q @ out @ dec.Q.T


@pytest.mark.parametrize(
    "lam",
    [
        [2.0, 1.0, 0.0, -1.0, -2.0],
        [1.5, 0.0, 0.0, -0.5, -1.0, -2.0],
        [2.0, 0.7, 0.0, 0.0, 0.0, -1.0],
        [0.0, -0.5, -1.0, -2.0],
        [0.0, 0.0, 0.0, -1.0],
        [2.0, 1.0, 0.5, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [2.0, 1.0, -0.5, -1.0, -3.0],
    ],
    ids=[
        "beta1-middle", "beta2-middle", "beta3-middle", "alpha-empty-beta1", "alpha-empty-beta3",
        "gamma-empty-beta1", "gamma-empty-beta2", "all-beta", "beta-empty",
    ],
)
def test_directional_matches_index_set_oracle(lam):
    n = len(lam)
    rng = np.random.default_rng(n)
    q = haar_orthogonal(n, rng)
    dec = eig_sym((q * np.asarray(lam)) @ q.T)
    os_ = build_directional(dec)
    alpha, beta, gamma, theta_t = _index_split_oracle(dec)
    assert np.array_equal(os_.alpha, alpha)
    assert np.array_equal(os_.beta, beta)
    assert np.array_equal(os_.gamma, gamma)
    assert beta.size == lam.count(0.0)
    assert np.array_equal(os_.theta_t, theta_t)
    kern = build_kernel(generate_planted(n, svec_dim(n) - 2, 1, seed=n)[0])
    for _ in range(20):
        h = random_sym(n, rng)
        tol = 1e-13 * max(1.0, np.linalg.norm(h))
        d = _directional_oracle(dec, h)
        assert np.linalg.norm(directional_derivative(os_, h) - d) <= tol
        m_oracle = d + project_range(kern, h - 2.0 * d)
        assert np.linalg.norm(apply_M_directional(os_, kern, h) - m_oracle) <= tol


def test_eigenvalue_below_rank_tau_is_singular():
    # min|lam| / max|lam| = 1e-10 sits below the split RANK_TAU * max|lam|,
    # so the derivative has a one-element beta block and every path that
    # needs a nonsingular reference refuses it.
    z = np.diag([1.0, 1e-10, -1.0])
    with pytest.raises(ValueError, match="nonsingular"):
        build_omega(eig_sym(z))
    with pytest.raises(ValueError, match="nonsingular"):
        run_elimination(z, np.zeros((3, 3)))
    assert build_directional(eig_sym(z)).beta.size == 1


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_directional_map_properties(n, zeros, seed):
    rng = np.random.default_rng(seed)
    zeros = min(zeros, n)
    nonzero = rng.uniform(0.1, 2.0, n - zeros) * rng.choice([-1.0, 1.0], n - zeros)
    lam = np.sort(np.concatenate([nonzero, np.zeros(zeros)]))[::-1]
    q = haar_orthogonal(n, rng)
    os_ = build_directional(eig_sym((q * lam) @ q.T))
    assert os_.beta.size == zeros
    m = int(rng.integers(1, svec_dim(n)))
    kern = build_kernel(generate_planted(n, m, 1, seed=seed)[0])
    h1, h2 = random_sym(n, rng), random_sym(n, rng)
    m1, m2 = apply_M_directional(os_, kern, h1), apply_M_directional(os_, kern, h2)
    # nonexpansive
    assert np.linalg.norm(m1 - m2) <= np.linalg.norm(h1 - h2) * (1.0 + 1e-12) + 1e-12
    # positively homogeneous
    c = float(rng.uniform(0.1, 10.0))
    assert np.linalg.norm(apply_M_directional(os_, kern, c * h1) - c * m1) <= (
        1e-12 * c * max(1.0, np.linalg.norm(h1))
    )
    if zeros == 0:
        assert np.linalg.norm(m1 - apply_M(os_, kern, h1)) <= 1e-12 * np.linalg.norm(h1)


def test_psi_ratio_bounded_along_converged_tail(small_planted):
    # Near the limit, ||Psi|| stays a stable multiple of ||H_O|| * ||H||:
    # the max over the measurable tail is within 10x of its median.
    from sdpadmm.solver import SolverConfig as Cfg
    from sdpadmm.solver import solve

    p, _, kern = small_planted
    cfg = Cfg(sigma=1.0, max_iter=50_000, tol_rmax=1e-10, trace_every=1, seed=0)
    state, _, _ = solve(p, cfg, kernel=kern)
    zf = state.Z
    _, records, _ = solve(p, cfg, kernel=kern, reference=zf, keep_z=True)
    os_ = build_omega(eig_sym(zf))
    gap = min(os_.lam[os_.r - 1], -os_.lam[os_.r])
    ratios = []
    for rec in records[:-1]:
        denom = rec.ho_norm * rec.h_norm
        # skip iterates where the true residual sits below the float floor
        if rec.h_norm <= 0.1 * gap and denom >= 1e-12:
            psi = psi_residual(os_, kern, rec.z, zf)
            ratios.append(np.linalg.norm(psi) / denom)
    ratios = np.array(ratios)
    assert len(ratios) >= 20
    assert ratios.max() <= 10.0 * np.median(ratios)
