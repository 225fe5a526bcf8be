import numpy as np
import pytest

from sdpadmm.diagnostics import (
    backward_error_terms,
    dual_witness,
    face_projections,
    nd_check,
    primal_witness,
    rank_trace,
    rate_fit,
    sc_check,
    tangent_s_part,
)
from sdpadmm.linalg import eig_sym, null_space, rotate_to_eigenbasis, split_counts, svec, svec_dim
from sdpadmm.linearization import build_omega, fix_basis
from sdpadmm.problem import SdpProblem, build_kernel, generate_planted
from sdpadmm.solver import IterationRecord, SolveStatus, SolverConfig, solve

from conftest import random_sym


def fake_record(k, rank_x, rank_s):
    return IterationRecord(
        k=k, r_p=0.0, r_d=0.0, r_gap=0.0, r_max=0.0,
        rank_x=rank_x, rank_s=rank_s, lam_min_abs_z=1.0, norm_z_diff=0.0,
    )


# -- strict complementarity --------------------------------------------------


def test_sc_check_nonsingular():
    rep = sc_check(np.diag([1.0, -1.0]))
    assert rep.r == 1 and rep.s == 1 and rep.sc_holds
    assert rep.lam_min_abs_z == 1.0
    assert rep.eigengap == 1.0


def test_sc_check_singular():
    rep = sc_check(np.diag([1.0, 0.0, -1.0]))
    assert rep.r == 1 and rep.s == 1 and rep.n == 3
    assert not rep.sc_holds


def test_sc_check_converged_planted():
    prob, cert = generate_planted(10, 20, 4, seed=0)
    cfg = SolverConfig(sigma=1.0, max_iter=100_000, tol_rmax=1e-10, seed=0, trace_every=10)
    state, _, status = solve(prob, cfg)
    assert status is SolveStatus.CONVERGED
    rep = sc_check(state.Z)
    assert rep.sc_holds and rep.r == 4 and rep.s == 6
    assert rep.eigengap >= 0.4  # planted spectra live in [0.5, 2]
    assert sc_check(eig_sym(state.Z)) == rep


# -- nondegeneracy -----------------------------------------------------------


def test_nd_check_generic_planted():
    for seed in (0, 1):
        prob, cert = generate_planted(10, 20, 3, seed=seed)
        rep = nd_check(prob, eig_sym(cert.zstar(1.0)))
        assert rep.primal_nd and rep.dual_nd
        assert rep.primal_witness_dim == 0 and rep.dual_witness_dim == 0


def test_nd_check_planted_primal_failure():
    for seed in (0, 1):
        prob, cert = generate_planted(10, 20, 3, seed=seed, degeneracy="primal_nd_fail")
        rep = nd_check(prob, eig_sym(cert.zstar(1.0)))
        assert not rep.primal_nd
        assert rep.dual_nd
        assert rep.primal_witness_dim >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nd_margin_of_the_criterion_2_family_at_tol_1e8(seed):
    # From the zero start, the zero singular value of the primal witness map
    # is measured at about r_max: under the 1e-8 cut, and well separated from
    # the next one. (From the default gaussian start, seed 1 reads 1.3e-8: over it.)
    prob, _ = generate_planted(16, 30, 4, seed=seed, degeneracy="primal_nd_fail")
    cfg = SolverConfig(tol_rmax=1e-8, init="zero", trace_every=100)
    state, _, status = solve(prob, cfg)
    assert status is SolveStatus.CONVERGED
    rep = nd_check(prob, eig_sym(state.Z))
    below, above = rep.primal_margin
    assert not rep.primal_nd
    assert below <= 1e-8 < above and above >= 0.1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: fixed RANK_TAU cut")
def test_nd_margin_of_the_criterion_2_family_from_the_default_start():
    # The same instance from the default gaussian start: its zero singular
    # value is measured at 1.3e-8, over the fixed cut, so primal ND "holds" on
    # an instance built to fail it. Passes once the cut follows the accuracy.
    prob, _ = generate_planted(16, 30, 4, seed=1, degeneracy="primal_nd_fail")
    state, _, status = solve(prob, SolverConfig(tol_rmax=1e-8, trace_every=100))
    assert status is SolveStatus.CONVERGED
    rep = nd_check(prob, eig_sym(state.Z))
    below, above = rep.primal_margin
    assert not rep.primal_nd
    assert below <= 1e-8 < above and above >= 0.1


@pytest.mark.parametrize("seed", [1, 2])
def test_nd_margins_of_a_planted_nondegenerate_limit(seed):
    prob, cert = generate_planted(20, 40, 3, seed=seed)
    rep = nd_check(prob, eig_sym(cert.zstar(1.0)))
    assert rep.primal_nd and rep.dual_nd
    assert rep.primal_margin[0] is None and rep.dual_margin[0] is None
    assert 0.0 < rep.primal_margin[1] <= 1.0 and 0.0 < rep.dual_margin[1] <= 1.0


@pytest.mark.parametrize(
    "mat, pair",
    [
        (np.diag([2.0, 1.0]), [None, 0.5]),
        (np.diag([2.0, 1e-9]), [5e-10, 1.0]),
        (np.array([[2.0, 0.0, 0.0]]), [0.0, 1.0]),
        (np.zeros((2, 2)), [0.0, None]),
        (np.zeros((0, 3)), [0.0, None]),
        (np.zeros((3, 0)), [None, None]),
    ],
    ids=["full-rank", "under-cut", "wide", "zero", "no-rows", "no-columns"],
)
def test_null_space_margin_reads_the_same_svd(mat, pair):
    assert null_space(mat)[1] == pair


def test_nd_check_rejects_a_decomposition_of_another_dimension(small_planted):
    prob, cert, _ = small_planted
    with pytest.raises(ValueError, match="decomposition dimension 7 != problem dimension 8"):
        nd_check(prob, eig_sym(cert.zstar(1.0)[:-1, :-1]))


def test_nd_check_no_constraints_full_rank_side():
    p = SdpProblem(C=np.zeros((3, 3)), A=np.zeros((0, 3, 3)), b=np.zeros(0))
    rep = nd_check(p, eig_sym(np.diag([2.0, 1.0, 0.5])))
    # r = n: the primal normal space is empty, so the test passes trivially
    assert rep.primal_witness_dim == 0
    assert rep.primal_nd


def _embedded_block_basis(q, idx):
    # svec columns of Q E Q' over the symmetric elementary basis of the
    # principal block ``idx`` (orthonormal columns).
    n, k = q.shape[0], len(idx)
    cols = []
    for a in range(k):
        for c in range(a, k):
            e = np.zeros((n, n))
            w = 1.0 if a == c else 1.0 / np.sqrt(2.0)
            e[idx[a], idx[c]] = e[idx[c], idx[a]] = w
            cols.append(q @ e @ q.T)
    if not cols:
        return np.zeros((svec_dim(n), 0))
    return svec(np.stack(cols)).T


def _rank(mat, tau):
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > tau * sv[0])) if sv[0] > 0.0 else 0


def _joint_rank_deficits(p, dec, tau=1e-8):
    # Reference rank test in all of S^n (t(n) svec coordinates): each side's
    # deficit rank(W1) + rank(W2) - rank([W1 W2]) is the dimension of the
    # intersection of range(A*) with the normal space of Xstar (primal), and
    # of null(A) with the normal space of Sstar (dual).
    n = p.n
    lam = dec.lam
    thr = tau * max(1.0, float(np.max(np.abs(lam))))
    r, s = int(np.sum(lam > thr)), int(np.sum(lam < -thr))
    w1 = svec(p.A).T if p.m > 0 else np.zeros((svec_dim(n), 0))
    w2 = _embedded_block_basis(dec.Q, list(range(r, n)))
    primal = _rank(w1, tau) + _rank(w2, tau) - _rank(np.hstack([w1, w2]), tau)
    u, sv, _ = np.linalg.svd(w1, full_matrices=True)
    null_a = u[:, int(np.sum(sv > tau * sv[0])) if sv.size else 0 :]
    w2d = _embedded_block_basis(dec.Q, list(range(n - s)))
    dual = _rank(null_a, tau) + _rank(w2d, tau) - _rank(np.hstack([null_a, w2d]), tau)
    return primal, dual


@pytest.mark.parametrize(
    "n, m, r, degeneracy, side",
    [
        (10, 20, 3, "none", None),
        (10, 20, 3, "primal_nd_fail", "primal"),
        (10, 10, 5, "none", "dual"),
        (24, 100, 3, "primal_nd_fail", "primal"),
    ],
)
def test_nd_witnesses_match_joint_rank_oracle(n, m, r, degeneracy, side):
    for seed in (0, 1, 2):
        prob, cert = generate_planted(n, m, r, seed=seed, degeneracy=degeneracy)
        dec = eig_sym(cert.zstar(1.0))
        rep = nd_check(prob, dec)
        primal, dual = _joint_rank_deficits(prob, dec)
        assert (rep.primal_witness_dim, rep.dual_witness_dim) == (primal, dual)
        assert rep.primal_nd == (side != "primal") and rep.dual_nd == (side != "dual")
        assert sc_check(cert.zstar(1.0)).sc_holds
        fix = fix_basis(build_omega(dec), build_kernel(prob))
        assert fix.dim == rep.primal_witness_dim + rep.dual_witness_dim


# Oracle: test-local copies of the witnesses that the svec-prefix ones
# replaced, with the svec of the old lower-triangle row-major order: the
# primal map stacks the svec of the leading block over the sqrt(2)-scaled
# off-block, and the dual map is the svec of the leading block.


def _svec_tril(stack):
    n = stack.shape[-1]
    rows, cols = np.tril_indices(n)
    out = stack[:, rows, cols].T.copy()
    out[rows != cols, :] *= np.sqrt(2.0)
    return out


def _offblock_primal_witness(at, r):
    m, n, _ = at.shape
    off = np.sqrt(2.0) * at[:, :r, r:].reshape(m, r * (n - r)).T
    return null_space(np.vstack([_svec_tril(at[:, :r, :r]), off]))[0]


def _tril_dual_witness(at, k):
    # Rows reordered from the lower-triangle order into the order of svec:
    # entry (i, j), i <= j, of the upper triangle is (j, i) of the lower one.
    iu, ju = np.triu_indices(k)
    return null_space(_svec_tril(at[:, :k, :k]).T)[0][ju * (ju + 1) // 2 + iu]


def _assert_same_span(new, old):
    assert new.shape == old.shape
    assert np.linalg.norm(new @ new.T - old @ old.T) <= 1e-12


@pytest.mark.parametrize(
    "n, m, r, degeneracy",
    [
        (24, 100, 3, "primal_nd_fail"),
        (10, 20, 3, "primal_nd_fail"),
        (20, 40, 3, "none"),
        (16, 60, 2, "none"),
        (10, 10, 5, "none"),
    ],
)
def test_witnesses_match_the_offblock_oracle(n, m, r, degeneracy):
    for seed in (0, 1, 2):
        prob, cert = generate_planted(n, m, r, seed=seed, degeneracy=degeneracy)
        dec = eig_sym(cert.zstar(1.0))
        at = rotate_to_eigenbasis(dec, prob.A)
        rk, s = split_counts(dec.lam)
        _assert_same_span(primal_witness(svec(at), rk)[0], _offblock_primal_witness(at, rk))
        _assert_same_span(dual_witness(svec(at), n - s)[0], _tril_dual_witness(at, n - s))


@pytest.mark.parametrize("r", [0, 2, 5])
def test_witnesses_without_constraints_match_the_offblock_oracle(r):
    at = np.zeros((0, 5, 5))
    assert primal_witness(svec(at), r)[0].shape == _offblock_primal_witness(at, r).shape == (0, 0)
    _assert_same_span(dual_witness(svec(at), r)[0], _tril_dual_witness(at, r))
    assert dual_witness(svec(at), r)[0].shape == (svec_dim(r), svec_dim(r))


def test_nd_check_and_fix_basis_share_one_threshold():
    # A 3e-8 leading-block perturbation of the last constraint puts the
    # primal witness's smallest relative singular value between 1e-9 and 1e-8:
    # a witness under one threshold, none under a tighter one. Both counts
    # must use the same threshold, or diagnose reports "primal ND fails"
    # next to dim Fix(M) = 0.
    prob, cert = generate_planted(10, 20, 3, seed=300, degeneracy="primal_nd_fail")
    q1 = cert.Qstar[:, : cert.r]
    a = prob.A.copy()
    a[-1] += 3e-8 * q1 @ random_sym(cert.r, np.random.default_rng(0)) @ q1.T
    prob = SdpProblem(C=prob.C, A=a, b=prob.b)
    dec = eig_sym(cert.zstar(1.0))
    rep = nd_check(prob, dec)
    fix = fix_basis(build_omega(dec), build_kernel(prob))
    assert rep.primal_witness_dim == 1
    assert fix.dim == rep.primal_witness_dim + rep.dual_witness_dim


# -- minimal-face projections ------------------------------------------------


def test_face_projection_example_fixture():
    # rank-1 positive block against a doubly degenerate negative block
    delta, eps = 0.1, 0.01
    zstar = np.diag([1.0, -delta, -delta])
    dec = eig_sym(zstar)
    x0 = np.array([[1.0, 0.0, 0.0], [0.0, eps / 2, eps / 2], [0.0, eps / 2, eps / 2]])
    sig_s0 = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, delta + eps / 2, -(delta + eps / 2)],
            [0.0, -(delta + eps / 2), delta + eps / 2],
        ]
    )
    outside = tangent_s_part(dec, x0)
    expected = np.array([[0.0, 0.0, 0.0], [0.0, eps / 2, eps / 2], [0.0, eps / 2, eps / 2]])
    assert np.array_equal(outside, expected)
    fx, fs, ho = face_projections(dec, x0, sig_s0, 1.0)
    assert ho == 0.0
    assert fx == np.linalg.norm(expected)


def test_face_projection_inside_face_vanishes():
    prob, cert = generate_planted(8, 12, 3, seed=2)
    dec = eig_sym(cert.zstar(1.0))
    assert np.linalg.norm(tangent_s_part(dec, cert.Xstar)) <= 1e-12
    face_x, face_s, ho = face_projections(dec, cert.Xstar, cert.Sstar, 1.0)
    assert max(face_x, face_s, ho) <= 1e-12


def rotate_back_face_projections(dec, x, s_mat, sigma):
    # Reference formula: rotate into the eigenbasis, zero the face block,
    # rotate back, and take H_O from X - sigma*S minus the rebuilt Zstar.
    r, s = split_counts(dec.lam)
    n = dec.n
    sig_s = sigma * s_mat
    tx = dec.Q.T @ x @ dec.Q
    tx[:r, :r] = 0.0
    ts = dec.Q.T @ sig_s @ dec.Q
    ts[n - s :, n - s :] = 0.0
    th = dec.Q.T @ (x - sig_s - (dec.Q * dec.lam) @ dec.Q.T) @ dec.Q
    return (
        np.linalg.norm(dec.Q @ tx @ dec.Q.T),
        np.linalg.norm(dec.Q @ ts @ dec.Q.T),
        np.linalg.norm(th[r:, :r]),
    )


@pytest.mark.parametrize("reference", ["random", "planted", "singular"])
def test_face_projections_match_rotate_back_formula(reference):
    rng = np.random.default_rng(17)
    n = 9
    if reference == "random":
        zstar = random_sym(n, rng)
    elif reference == "planted":
        _, cert = generate_planted(n, 15, 4, seed=5)
        zstar = cert.zstar(1.0)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        zstar = (q * np.array([2.0, 1.5, 1.0, 0.0, 0.0, -0.5, -1.0, -1.5, -2.0])) @ q.T
    dec = eig_sym(zstar)
    for sigma in (1.0, 0.3, 4.0):
        for _ in range(10):
            x, s_mat = random_sym(n, rng), random_sym(n, rng)
            got = face_projections(dec, x, s_mat, sigma)
            want = rotate_back_face_projections(dec, x, s_mat, sigma)
            assert all(w > 0.0 for w in want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * w


def test_face_projection_pythagoras():
    rng = np.random.default_rng(3)
    prob, cert = generate_planted(7, 10, 2, seed=3)
    dec = eig_sym(cert.zstar(1.0))
    for _ in range(20):
        x = random_sym(7, rng)
        t_part = tangent_s_part(dec, x)
        n_part = x - t_part
        assert abs(
            np.sum(t_part**2) + np.sum(n_part**2) - np.sum(x**2)
        ) <= 1e-12 * max(1.0, np.sum(x**2))
        assert abs(np.sum(t_part * n_part)) <= 1e-12 * max(1.0, np.sum(x**2))


def test_face_norms_tail_bounded_by_offblock():
    # Along a converged run, the minimal-face projection norms track the
    # off-block error with a stable constant.
    prob, cert = generate_planted(8, 12, 3, seed=0)
    kern = build_kernel(prob)
    cfg = SolverConfig(sigma=1.0, max_iter=50_000, tol_rmax=1e-10, trace_every=1, seed=0)
    state, _, status = solve(prob, cfg, kernel=kern)
    assert status is SolveStatus.CONVERGED
    _, records, _ = solve(prob, cfg, kernel=kern, reference=state.Z)
    ratios = [
        rec.face_x_norm / rec.ho_norm
        for rec in records[:-1]
        if rec.ho_norm is not None and rec.ho_norm > 1e-11
    ]
    tail = np.array(ratios[len(ratios) // 2 :])
    assert len(tail) >= 20
    assert tail.max() <= 10.0 * np.median(tail)


# -- rank trace --------------------------------------------------------------


def test_rank_trace_constant():
    from sdpadmm.diagnostics import ComplementarityReport

    final = ComplementarityReport(n=5, r=2, s=3, lam_min_abs_z=1.0, eigengap=1.0, sc_holds=True)
    records = [fake_record(k, 2, 3) for k in range(5)]
    assert rank_trace(records, final) == 0


def test_rank_trace_empty():
    from sdpadmm.diagnostics import ComplementarityReport

    final = ComplementarityReport(n=5, r=2, s=3, lam_min_abs_z=1.0, eigengap=1.0, sc_holds=True)
    assert rank_trace([], final) is None


def test_rank_trace_identification_point():
    from sdpadmm.diagnostics import ComplementarityReport

    final = ComplementarityReport(n=5, r=2, s=3, lam_min_abs_z=1.0, eigengap=1.0, sc_holds=True)
    records = [fake_record(0, 5, 0), fake_record(1, 3, 2), fake_record(2, 2, 3), fake_record(3, 2, 3)]
    assert rank_trace(records, final) == 2


def test_rank_trace_never_stabilizes():
    from sdpadmm.diagnostics import ComplementarityReport

    final = ComplementarityReport(n=5, r=2, s=3, lam_min_abs_z=1.0, eigengap=1.0, sc_holds=True)
    records = [fake_record(0, 2, 3), fake_record(1, 1, 3)]
    assert rank_trace(records, final) is None


# -- rate fitting ------------------------------------------------------------


def test_rate_fit_exact_geometric():
    values = 3.0 * 0.9 ** np.arange(60)
    fit = rate_fit(values, window=30, ks=np.arange(60))
    assert abs(fit.rho_hat - 0.9) <= 1e-9
    assert fit.window == (30, 59)  # the first and last iteration fitted
    assert fit.r2 >= 1.0 - 1e-12


def test_rate_fit_constant_sequence():
    fit = rate_fit(np.ones(20), window=10, ks=np.arange(20))
    assert fit.rho_hat == 1.0
    assert fit.r2 == 1.0


def test_rate_fit_noisy_geometric():
    rng = np.random.default_rng(4)
    values = 0.95 ** np.arange(200) * (1.0 + 0.01 * rng.standard_normal(200))
    fit = rate_fit(values, window=100, ks=np.arange(200))
    assert abs(fit.rho_hat - 0.95) <= 0.005


def test_rate_fit_strided_iterations():
    ks = np.arange(0, 300, 7)
    values = 2.0 * 0.97**ks
    fit = rate_fit(values, window=20, ks=ks)
    assert abs(fit.rho_hat - 0.97) <= 1e-9  # per-iteration rate despite stride


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        rate_fit(np.ones(15), window=5, ks=np.arange(15))
    with pytest.raises(ValueError):
        rate_fit(np.ones(5), window=10, ks=np.arange(5))
    with pytest.raises(ValueError):
        rate_fit(np.concatenate([np.ones(10), [-1.0], np.ones(10)]), window=15, ks=np.arange(21))
    with pytest.raises(ValueError, match="ks must align with values"):
        rate_fit(np.ones(15), window=10, ks=np.arange(14))


# -- backward-error terms ----------------------------------------------------


def test_backward_error_vanishes_at_optimum():
    prob, cert = generate_planted(9, 16, 3, seed=5)
    kern = build_kernel(prob)
    dec = eig_sym(cert.zstar(1.0))
    terms = backward_error_terms(prob, kern, dec, cert.Xstar, cert.Sstar, 1.0)
    assert len(terms) == 7
    assert all(v <= 1e-10 for v in terms.values())


def test_backward_error_scaled_primal():
    prob, cert = generate_planted(9, 16, 3, seed=6)
    kern = build_kernel(prob)
    dec = eig_sym(cert.zstar(1.0))
    terms = backward_error_terms(prob, kern, dec, 2.0 * cert.Xstar, cert.Sstar, 1.0)
    assert terms["primal_range_residual"] > 1e-6
    assert terms["gap"] > 1e-6
    for name in ("dual_null_residual", "x_negative_part", "s_negative_part",
                 "x_outside_face", "s_outside_face"):
        assert terms[name] <= 1e-10


def test_backward_error_planted_negative_eigenvalue():
    prob, cert = generate_planted(9, 16, 3, seed=7)
    kern = build_kernel(prob)
    dec = eig_sym(cert.zstar(1.0))
    sigma = 2.0
    u = cert.Qstar[:, 0]  # direction inside the null space of Sstar
    s_bad = cert.Sstar - 0.3 * np.outer(u, u)
    terms = backward_error_terms(prob, kern, eig_sym(cert.zstar(sigma)), cert.Xstar, s_bad, sigma)
    assert abs(terms["s_negative_part"] - 0.3 * sigma) <= 1e-12
    assert terms["x_negative_part"] <= 1e-12
