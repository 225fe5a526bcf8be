import numpy as np
import pytest

from sdpadmm import elimination
from sdpadmm.elimination import (
    ELIMINATION_TOL,
    EliminationState,
    decay_coefficient,
    eb_reference,
    eb_scan,
    eliminate_step,
    init_elimination,
    linearization_residual,
    run_elimination,
)
from sdpadmm.errors import NumericalFailureError
from sdpadmm.linalg import (
    eig_sym,
    positive_part,
    psd_project,
    skew_exp,
    sylvester_solve,
    symmetrize,
)
from sdpadmm.linearization import build_omega, hadamard
from sdpadmm.problem import haar_orthogonal

from conftest import random_indefinite, random_sym


def solve_blocks(zx, zs, zo):
    # sylvester_solve on the spectra of the two blocks, taken here.
    return sylvester_solve(zo, (np.linalg.eigh(zx), np.linalg.eigh(zs)))


def make_pair(n, r, rng, gap=0.5, h_scale=0.05):
    z = random_indefinite(n, r, rng, gap=gap)
    h = random_sym(n, rng)
    h *= h_scale / np.linalg.norm(h, 2)
    return z, h


# -- single sweep ------------------------------------------------------------


def test_step_noop_when_offblock_zero():
    state = init_elimination(np.diag([2.0, 1.0, -1.0, -3.0]), np.zeros((4, 4)))
    new = eliminate_step(state)
    assert new.ell == 1
    assert np.array_equal(new.zx, state.zx)
    assert np.array_equal(new.zs, state.zs)
    assert np.linalg.norm(new.zo) == 0.0
    assert np.array_equal(new.y, state.y)


def test_step_scalar_blocks_hand_conjugation():
    z = np.diag([2.0, -3.0])
    h = np.array([[0.0, 0.1], [0.1, 0.0]])
    state = init_elimination(z, h)
    new = eliminate_step(state)
    # Sylvester solution: w * 2 + 3 * w = 0.1
    theta = 0.1 / 5.0
    assert abs(theta - 0.02) <= 1e-15
    # hand conjugation by the rotation exp([[0, -theta], [theta, 0]])
    expected_off = 0.1 * np.cos(2 * theta) + 0.5 * (-3.0 - 2.0) * np.sin(2 * theta)
    assert abs(new.zo[0, 0] - expected_off) <= 1e-14
    assert abs(new.zo[0, 0]) <= 1e-3


def test_step_quadratic_decay_bound():
    rng = np.random.default_rng(0)
    z = random_indefinite(6, 3, rng, gap=0.5)
    dec = eig_sym(z)
    hb = 0.1 * random_sym(6, rng)  # keep the diagonal blocks definite
    hb[3:, :3] *= 1e-2 / np.linalg.norm(hb[3:, :3], 2)
    hb[:3, 3:] = hb[3:, :3].T
    h = dec.Q @ hb @ dec.Q.T
    state = init_elimination(z, h)
    eta = np.sqrt(3) / (
        np.linalg.eigvalsh(state.zx)[0] - np.linalg.eigvalsh(state.zs)[-1]
    )
    new = eliminate_step(state)
    kappa = decay_coefficient(eta, state.z0_norm)
    assert np.linalg.norm(new.zo, 2) <= kappa * np.linalg.norm(state.zo, 2) ** 2


def test_step_rejects_oversized_offblock():
    z = np.diag([0.5, -0.5])
    state = init_elimination(z, np.zeros((2, 2)))
    t = state.t.copy()
    t[1, 0] = t[0, 1] = 5.0
    state = EliminationState(ell=0, t=t, r=state.r, y=state.y, z0_norm=state.z0_norm)
    with pytest.raises(ValueError, match="too large"):
        eliminate_step(state)


# -- full run ----------------------------------------------------------------


def test_run_zero_perturbation_returns_projection_immediately():
    rng = np.random.default_rng(1)
    z = random_indefinite(5, 2, rng)
    v, iters, off = run_elimination(z, np.zeros((5, 5)))
    assert iters == 0
    assert off <= 1e-13  # rotation roundoff only
    assert np.linalg.norm(v - psd_project(z)) <= 1e-12 * max(1.0, np.linalg.norm(z))


def test_run_block_diagonal_perturbation_no_rotation():
    rng = np.random.default_rng(2)
    z = random_indefinite(6, 2, rng, gap=0.6)
    dec = eig_sym(z)
    hb = np.zeros((6, 6))
    hb[:2, :2] = 0.1 * random_sym(2, rng)
    hb[2:, 2:] = 0.1 * random_sym(4, rng)
    h = dec.Q @ hb @ dec.Q.T
    v, iters, _ = run_elimination(z, h)
    assert iters <= 1
    assert np.linalg.norm(v - psd_project(z + h)) <= 1e-9 * max(
        1.0, np.linalg.norm(z + h)
    )


def test_run_agrees_with_eigendecomposition_projection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(1, n))
        z, h = make_pair(n, r, rng, gap=0.5, h_scale=0.05)
        v, iters, _ = run_elimination(z, h)
        scale = max(1.0, np.linalg.norm(z + h))
        assert np.linalg.norm(v - psd_project(z + h)) <= 1e-9 * scale
        assert iters <= 6


def test_run_rejects_singular_reference():
    with pytest.raises(ValueError, match="nonsingular"):
        run_elimination(np.diag([1.0, 0.0, -1.0]), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="indefinite"):
        run_elimination(np.eye(3), np.zeros((3, 3)))


def test_run_without_sweeps_reports_its_history():
    rng = np.random.default_rng(4)
    z = random_indefinite(4, 2, rng, gap=0.5)
    h = random_sym(4, rng)
    h *= 0.01 / np.linalg.norm(h, 2)
    with pytest.raises(NumericalFailureError, match="did not converge in 0 iterations") as info:
        run_elimination(z, h, max_iter=0)
    (off,) = info.value.details["history"]
    assert off > 0.0


def test_run_rejects_oversized_perturbation():
    rng = np.random.default_rng(4)
    z = random_indefinite(4, 2, rng, gap=0.5)
    h = random_sym(4, rng)
    h *= 10.0 / np.linalg.norm(h, 2)
    with pytest.raises(ValueError):
        run_elimination(z, h)


def test_run_eigenvalue_conservation_and_eta_stability():
    rng = np.random.default_rng(5)
    z, h = make_pair(8, 3, rng, gap=0.5, h_scale=0.05)
    state = init_elimination(z, h)
    lam0 = np.sort(np.linalg.eigvalsh(state.t))
    eta0 = np.sqrt(3) / (
        np.linalg.eigvalsh(state.zx)[0] - np.linalg.eigvalsh(state.zs)[-1]
    )
    offs = [np.linalg.norm(state.zo, 2)]
    while np.linalg.norm(state.zo) > 1e-13:
        state = eliminate_step(state)
        offs.append(np.linalg.norm(state.zo, 2))
        lam = np.sort(np.linalg.eigvalsh(state.t))
        assert np.max(np.abs(lam - lam0)) <= 1e-10 * max(1.0, np.abs(lam0).max())
        eta = np.sqrt(3) / (
            np.linalg.eigvalsh(state.zx)[0] - np.linalg.eigvalsh(state.zs)[-1]
        )
        assert 2.0 / 3.0 * eta0 - 1e-12 <= eta <= 2.0 * eta0 + 1e-12
        assert np.linalg.norm(state.y.T @ state.y - np.eye(8)) <= 1e-10
        # conjugation consistency with the original matrix
        assert np.linalg.norm(
            state.y.T @ (z + h) @ state.y - state.t
        ) <= 1e-9 * max(1.0, np.linalg.norm(z + h))
    # monotone, at-least-geometric decay once below one
    assert all(b <= a for a, b in zip(offs[:-1], offs[1:]))


def test_run_mass_oracle_agreement():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(4, 13))
        r = int(rng.integers(1, n))
        z = random_indefinite(n, r, rng, gap=0.3)
        h = random_sym(n, rng)
        h *= 0.1 * 0.3 / np.linalg.norm(h, 2)
        v, iters, _ = run_elimination(z, h, max_iter=10)
        assert iters <= 10
        assert np.linalg.norm(v - psd_project(z + h)) <= 1e-9 * max(
            1.0, np.linalg.norm(z + h)
        )


# -- the path before the shared reference ------------------------------------


def old_run_elimination(z, h, max_iter=60):
    """Oracle: elimination as run before the shared reference, with Z + H
    rotated as a whole, every norm by SVD and the block spectra taken anew
    for eta and again in the Sylvester solve. Returns (V, sweeps)."""
    z, h = symmetrize(z), symmetrize(h)
    dec = eig_sym(z)
    r = build_omega(dec).r
    t = symmetrize(dec.Q.T @ (z + h) @ dec.Q)
    y = dec.Q.copy()
    z0_norm = np.linalg.norm(z + h, 2)
    scale = max(1.0, np.linalg.norm(t))
    for ell in range(max_iter + 1):
        zx, zs, zo = t[:r, :r], t[r:, r:], t[r:, :r]
        if np.linalg.norm(zo) <= ELIMINATION_TOL * scale:
            return symmetrize(y[:, :r] @ zx @ y[:, :r].T), ell
        eta = np.sqrt(min(r, t.shape[0] - r)) / (
            np.linalg.eigvalsh(zx)[0] - np.linalg.eigvalsh(zs)[-1]
        )
        zo_norm = np.linalg.norm(zo, 2)
        w = np.zeros_like(t)
        w[r:, :r] = solve_blocks(zx, zs, zo)
        w[:r, r:] = -w[r:, :r].T
        rot = skew_exp(w)
        t = symmetrize(rot.T @ t @ rot)
        y = y @ rot
        assert np.linalg.norm(t[r:, :r], 2) <= decay_coefficient(eta, z0_norm) * zo_norm**2 * (
            1.0 + 1e-9
        )
    raise AssertionError("the oracle did not converge")


def old_scan_point(z, h, t):
    """Oracle: one scale of the scan before the shared reference: Z
    decomposed, Q(Omega o Q'(tH)Q)Q' formed at the scale, every norm by
    SVD."""
    z, h = symmetrize(z), symmetrize(h)
    os_ = build_omega(eig_sym(z))
    th = t * h
    e = psd_project(z + th) - positive_part(os_) - hadamard(os_, os_.omega, th)
    return np.linalg.norm(e, 2), np.linalg.norm(os_.offblock(th), 2), np.linalg.norm(th, 2)


def test_eb_scan_matches_the_per_scale_evaluation():
    rng = np.random.default_rng(15)
    scales = [1e-1, 1e-2, 1e-3, 1e-4, 1e-6]
    for _ in range(20):
        n = int(rng.integers(2, 24))
        r = int(rng.integers(1, n))
        z = random_indefinite(n, r, rng, gap=0.3, top=float(rng.choice([1.0, 50.0])))
        h = random_sym(n, rng)
        report = eb_scan(z, h, scales)
        # Near the roundoff floor only an absolute bound on lhs holds.
        floor = 1e-13 * max(1.0, np.linalg.norm(z, 2))
        for i, t in enumerate(scales):
            lhs, ho_norm, h_norm = old_scan_point(z, h, t)
            assert abs(report.lhs[i] - lhs) <= floor
            assert abs(report.ho_norms[i] - ho_norm) <= 1e-13 * ho_norm
            assert abs(report.lhs[i] / report.classic_ratios[i] - h_norm**2) <= 1e-13 * h_norm**2


def test_eb_scan_reads_a_given_reference():
    rng = np.random.default_rng(16)
    z, h = make_pair(9, 4, rng, h_scale=1.0)
    ref = eb_reference(z, h)
    shared = ref.scan([1e-1, 1e-3])
    alone = eb_scan(z, h, [1e-1, 1e-3])
    for field in ("lhs", "ho_norms", "ratios", "classic_ratios"):
        assert np.array_equal(getattr(shared, field), getattr(alone, field))
    # Each scale's Pi(Z + tH) is kept, and equals the projection of Z + tH,
    # whatever the order of the scales.
    ref = eb_reference(z, h)
    ref.scan([1e-3, 1e-2, 1e-1])
    assert set(ref.projections) == {1e-3, 1e-2, 1e-1}
    proj, norm = ref.projection(1e-3)
    assert ref.projections[1e-3][0] is proj
    assert np.array_equal(proj, psd_project(z + 1e-3 * h))
    assert abs(norm - np.linalg.norm(z + 1e-3 * h, 2)) <= 1e-13 * norm


def test_reference_rejects_a_singular_z():
    with pytest.raises(ValueError, match="nonsingular"):
        eb_reference(np.diag([1.0, 0.0, -1.0]), np.eye(3))


@pytest.mark.parametrize("lam", [[1.0, 2.0, 3.0], [-1.0, -2.0]], ids=["positive", "negative"])
def test_reference_rejects_a_definite_z(lam):
    # Before any scale is scanned, not at the elimination check after it.
    with pytest.raises(ValueError, match="indefinite"):
        eb_reference(np.diag(lam), np.eye(len(lam)))


def test_run_keeps_the_sweep_count_of_the_old_path():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(3, 20))
        r = int(rng.integers(1, n))
        z = random_indefinite(n, r, rng, gap=0.3)
        h = random_sym(n, rng)
        h *= 0.05 / np.linalg.norm(h, 2)
        v_old, sweeps = old_run_elimination(z, h)
        v, iters, _ = run_elimination(z, h)
        ref = eb_reference(z, 2.0 * h)
        v_ref, iters_ref, _ = ref.eliminate(0.5)
        assert iters == iters_ref == sweeps
        scale = max(1.0, np.linalg.norm(z + h))
        assert np.linalg.norm(v - v_old) <= 1e-12 * scale
        assert np.linalg.norm(v_ref - v_old) <= 1e-12 * scale


def test_start_state_matches_init_elimination():
    rng = np.random.default_rng(18)
    z, h = make_pair(8, 3, rng)
    state = init_elimination(z, h)
    start = eb_reference(z, 10.0 * h).elimination_state(0.1)
    assert np.linalg.norm(start.t - state.t) <= 1e-13
    assert np.array_equal(start.y, state.y)
    assert abs(start.z0_norm - state.z0_norm) <= 1e-13 * state.z0_norm
    assert abs(start.zo_norm - np.linalg.norm(state.zo, 2)) <= 1e-13 * start.zo_norm


def test_monkeypatched_decay_bound_still_raises(monkeypatch):
    rng = np.random.default_rng(19)
    z, h = make_pair(6, 3, rng)
    monkeypatch.setattr(elimination, "decay_coefficient", lambda eta, z0_norm: 0.0)
    with pytest.raises(NumericalFailureError, match="decay bound"):
        run_elimination(z, h)
    with pytest.raises(NumericalFailureError, match="decay bound"):
        eb_reference(z, h).eliminate(1.0)


def test_start_state_keeps_the_entry_gate_and_definiteness():
    # The off-block norm handed to the first sweep still meets its gate.
    z, h = np.diag([0.5, -0.5]), np.array([[0.0, 5.0], [5.0, 0.0]])
    with pytest.raises(ValueError, match="too large for elimination"):
        eb_reference(z, h).eliminate(1.0)
    with pytest.raises(ValueError, match="lost definiteness"):
        eb_reference(z, np.diag([-1.0, 0.0])).elimination_state(1.0)
    with pytest.raises(ValueError, match="indefinite"):
        eb_reference(np.eye(3), np.eye(3)).elimination_state(0.1)


# -- residual scan -----------------------------------------------------------


def test_eb_scan_zero_offblock_residual_vanishes():
    rng = np.random.default_rng(7)
    q = haar_orthogonal(6, rng)
    lam = np.concatenate([rng.uniform(0.6, 2.0, 3), -rng.uniform(0.6, 2.0, 3)])
    z = symmetrize((q * lam) @ q.T)
    dec = eig_sym(z)
    hb = np.zeros((6, 6))
    hb[:3, :3] = random_sym(3, rng)
    hb[3:, 3:] = random_sym(3, rng)
    h = dec.Q @ hb @ dec.Q.T
    h /= np.linalg.norm(h, 2)
    report = eb_scan(z, h, [1e-1, 1e-2, 1e-3, 1e-4])
    assert np.all(report.lhs <= 1e-12 * np.linalg.norm(z, 2))
    assert np.all(report.ho_norms <= 1e-13)


def test_eb_scan_generic_refined_ratio_bounded():
    rng = np.random.default_rng(8)
    z = random_indefinite(7, 3, rng, gap=0.5)
    h = random_sym(7, rng)
    h /= np.linalg.norm(h, 2)
    report = eb_scan(z, h, [1e-1, 1e-2, 1e-3, 1e-4])
    assert np.max(report.ratios) <= 10.0 * np.min(report.ratios)
    # classic normalization degrades by orders of magnitude on the same data
    assert np.max(report.classic_ratios) / np.min(report.classic_ratios) < 10.0


def test_eb_scan_anisotropic_cubic_decay():
    # Perturbation family whose off-block shrinks like t^2: the residual then
    # decays like t^3 and only the off-block-aware normalization sees it.
    rng = np.random.default_rng(9)
    q = haar_orthogonal(8, rng)
    lam = np.concatenate([rng.uniform(0.5, 2.0, 4), -rng.uniform(0.5, 2.0, 4)])
    z = symmetrize((q * lam) @ q.T)
    hx, hs = random_sym(4, rng), random_sym(4, rng)
    ho = rng.standard_normal((4, 4))
    ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    lhss = []
    for t in ts:
        hb = np.zeros((8, 8))
        hb[:4, :4] = t * hx
        hb[4:, 4:] = t * hs
        hb[4:, :4] = t * t * ho
        hb[:4, 4:] = t * t * ho.T
        h = q @ hb @ q.T
        lhs, ho_norm, h_norm = linearization_residual(z, h)
        lhss.append(lhs)
        # classic quadratic normalization stays bounded...
        assert lhs / h_norm**2 <= 10.0
    # ...but the residual actually falls off cubically.
    slope = np.polyfit(np.log(ts), np.log(lhss), 1)[0]
    assert slope >= 2.7


def test_eb_scan_validates_scales():
    with pytest.raises(ValueError, match="non-empty list of positive numbers"):
        eb_scan(np.diag([1.0, -1.0]), np.zeros((2, 2)), [])
    with pytest.raises(ValueError):
        eb_scan(np.diag([1.0, -1.0]), np.zeros((2, 2)), [0.1, -0.1])


def test_eb_report_serialization(tmp_path):
    rng = np.random.default_rng(10)
    z = random_indefinite(5, 2, rng)
    h = random_sym(5, rng)
    report = eb_scan(z, h, [1e-1, 1e-2])
    csv = tmp_path / "eb.csv"
    report.write_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,lhs,ho_norm,refined_ratio,classic_ratio"
    assert len(lines) == 3
    d = report.to_dict()
    assert set(d) == {"t", "lhs", "ho_norm", "refined_ratio", "classic_ratio"}


# -- first Sylvester deviation -----------------------------------------------


def first_sylvester_deviation(z, h):
    """Oracle: deviation of the first elimination Sylvester solution from its
    unperturbed closed form.

    ``z`` must be diagonal with descending diagonal, r positive then negative
    entries. With blocks H_X, H_S, H_O of the perturbation, the solution W of
    ``W (Lam_X + H_X) - (Lam_S + H_S) W = H_O`` deviates from the Hadamard
    closed form Theta_0 o H_O (Theta_0 entries 1 / (lam_j - lam_{i+r})) by at
    most ``2 n d / (lam_r - lam_{r+1})^2 * ||H_O||_2 (||H_X||_2 + ||H_S||_2)``,
    which is asserted at runtime. Requires
    ``||H_X||_2 + ||H_S||_2 <= (lam_r - lam_{r+1}) / (2 n d)``.
    """
    z = np.asarray(z, dtype=float)
    h = symmetrize(h)
    n = z.shape[0]
    diag = np.diag(z)
    if np.linalg.norm(z - np.diag(diag)) > 1e-12 * max(1.0, np.linalg.norm(z)):
        raise ValueError("reference must be diagonal")
    if np.any(np.diff(diag) > 0.0):
        raise ValueError("diagonal must be sorted descending")
    if np.any(diag == 0.0):
        raise ValueError("reference must be nonsingular")
    r = int(np.sum(diag > 0.0))
    if r == 0 or r == n:
        raise ValueError("reference must be indefinite")
    lam_r, lam_r1 = diag[r - 1], diag[r]
    d = np.sqrt(min(r, n - r))
    hx = h[:r, :r]
    hs = h[r:, r:]
    ho = h[r:, :r]
    hx_n = float(np.linalg.norm(hx, 2))
    hs_n = float(np.linalg.norm(hs, 2))
    gate = (lam_r - lam_r1) / (2.0 * n * d)
    if hx_n + hs_n > gate:
        raise ValueError(
            f"diagonal perturbation too large: {hx_n + hs_n:.3e} > {gate:.3e}"
        )
    w0 = solve_blocks(np.diag(diag[:r]) + hx, np.diag(diag[r:]) + hs, ho)
    theta0 = 1.0 / (diag[None, :r] - diag[r:, None])
    deviation = float(np.linalg.norm(w0 - theta0 * ho, 2))
    bound = (
        2.0 * n * d / (lam_r - lam_r1) ** 2 * float(np.linalg.norm(ho, 2)) * (hx_n + hs_n)
    )
    # roundoff floor: the closed form is exact when H_X = H_S = 0, but the
    # solve still carries machine noise proportional to the off-block.
    floor = 1e-12 * max(1.0, float(np.linalg.norm(ho, 2)))
    if deviation > bound * (1.0 + 1e-9) + floor:
        raise NumericalFailureError(
            f"first-solve deviation {deviation:.3e} exceeds bound {bound:.3e}",
            deviation=deviation,
            bound=bound,
        )
    return deviation


def _sorted_indefinite_diag(n, r, rng, gap=0.5):
    pos = np.sort(rng.uniform(gap, 2.0, r))[::-1]
    neg = -np.sort(rng.uniform(gap, 2.0, n - r))
    return np.diag(np.concatenate([pos, neg]))


def test_first_sylvester_pure_offblock():
    rng = np.random.default_rng(11)
    z = _sorted_indefinite_diag(6, 3, rng)
    h = np.zeros((6, 6))
    ho = 1e-3 * rng.standard_normal((3, 3))
    h[3:, :3] = ho
    h[:3, 3:] = ho.T
    # no diagonal-block perturbation: the closed form is exact
    assert first_sylvester_deviation(z, h) <= 1e-12


def test_first_sylvester_zero_offblock():
    rng = np.random.default_rng(12)
    z = _sorted_indefinite_diag(6, 2, rng)
    h = np.zeros((6, 6))
    h[:2, :2] = 1e-3 * random_sym(2, rng)
    h[2:, 2:] = 1e-3 * random_sym(4, rng)
    assert first_sylvester_deviation(z, h) == 0.0


def test_first_sylvester_bound_respected():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = 6
        r = int(rng.integers(1, n))
        z = _sorted_indefinite_diag(n, r, rng, gap=0.8)
        lam = np.diag(z)
        gate = (lam[r - 1] - lam[r]) / (2.0 * n * np.sqrt(min(r, n - r)))
        h = random_sym(n, rng)
        h *= 0.5 * gate / np.linalg.norm(h, 2)
        dev = first_sylvester_deviation(z, h)  # runtime-asserted against bound
        assert np.isfinite(dev) and dev >= 0.0


def test_first_sylvester_rejects_oversized_diag_blocks():
    rng = np.random.default_rng(14)
    z = _sorted_indefinite_diag(5, 2, rng)
    h = random_sym(5, rng)
    with pytest.raises(ValueError, match="too large"):
        first_sylvester_deviation(z, 10.0 * h)


def test_first_sylvester_requires_sorted_diagonal():
    with pytest.raises(ValueError):
        first_sylvester_deviation(np.diag([1.0, 2.0, -1.0]), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        first_sylvester_deviation(np.array([[1.0, 0.2], [0.2, -1.0]]), np.zeros((2, 2)))
