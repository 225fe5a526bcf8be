import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdpadmm.errors import NumericalFailureError
from sdpadmm.linalg import (
    RANK_TAU,
    eig_sym,
    psd_project,
    psd_split,
    skew_exp,
    smat,
    split_counts,
    svec,
    svec_dim,
    sylvester_solve,
    sym_norm2,
    symmetrize,
    triangle_maps,
)
from sdpadmm.problem import haar_orthogonal

from conftest import random_indefinite, random_sym


def random_skew(n, rng):
    m = rng.standard_normal((n, n))
    return 0.5 * (m - m.T)


# -- svec / smat -------------------------------------------------------------


def test_svec_identity_2x2():
    assert np.array_equal(svec(np.eye(2)), np.array([1.0, 0.0, 1.0]))


def test_smat_inverts_svec():
    rng = np.random.default_rng(0)
    a = random_sym(4, rng)
    assert np.allclose(smat(svec(a)), a, atol=1e-15)


def test_svec_isometry_against_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_sym(5, rng)
        b = random_sym(5, rng)
        trace_ab = np.trace(a @ b)  # independent evaluation of <A, B>
        dot = svec(a) @ svec(b)
        assert abs(dot - trace_ab) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_svec_isometry_property(n, seed):
    rng = np.random.default_rng(seed)
    a = random_sym(n, rng)
    b = random_sym(n, rng)
    assert abs(svec(a) @ svec(b) - np.sum(a * b)) <= 1e-12 * max(
        1.0, np.linalg.norm(a) * np.linalg.norm(b)
    )
    assert svec(a).shape == (svec_dim(n),)


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_svec_index_maps_match_the_triu_formulas(n):
    rng = np.random.default_rng(n)
    rows, cols = np.triu_indices(n)
    off = rows != cols
    sqrt2 = np.sqrt(2.0)
    # Position of (i, j), i <= j, row-major in the upper triangle.
    assert np.array_equal(rows * n - rows * (rows - 1) // 2 + cols - rows, np.arange(rows.size))
    upper, weights, mirror = triangle_maps(n)
    assert np.array_equal(upper, rows * n + cols)
    assert np.array_equal(weights, np.where(off, 2.0, 1.0))
    assert np.array_equal(mirror[upper], mirror[cols * n + rows])
    assert np.array_equal(mirror[upper], np.arange(rows.size))
    # Built once per n, and read-only.
    assert triangle_maps(n)[0] is upper
    assert not any(arr.flags.writeable for arr in (upper, weights, mirror))
    stack = np.stack([random_sym(n, rng) for _ in range(3)])
    # A transposed view reads the same entries as the C-ordered matrix.
    for a in (stack[0], np.asfortranarray(stack[1]), stack[2].T):
        want = a[rows, cols].copy()
        want[off] *= sqrt2
        assert np.array_equal(svec(a), want)
        w = want.copy()
        w[off] /= sqrt2
        mat = np.zeros((n, n))
        mat[rows, cols] = w
        mat[cols, rows] = w
        assert np.array_equal(smat(want), mat)
    # Along the trailing axes of a stack: one row per matrix, and back.
    want = stack[:, rows, cols].copy()
    want[:, off] *= sqrt2
    assert np.array_equal(svec(stack), want)
    assert np.array_equal(smat(want), smat(want[None])[0])
    assert svec(np.zeros((0, n, n))).shape == (0, svec_dim(n))
    # The trailing k x k block is the last t(k) entries.
    k = n // 2
    tail = svec(stack[0])[svec_dim(n) - svec_dim(k) :]
    assert np.array_equal(tail, svec(stack[0][n - k :, n - k :]))


@pytest.mark.parametrize(
    "lam",
    [np.zeros(0), np.array([3.0, 1e-9, -1e-9, -4.0]), np.array([-0.5, -2.0]),
     np.array([1e-7, 0.0, -1e-7]), np.linspace(-1e9, 2e9, 9)],
)
def test_split_counts_matches_the_abs_formula(lam):
    thr = RANK_TAU * max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    assert split_counts(lam) == (int(np.sum(lam > thr)), int(np.sum(lam < -thr)))


def test_smat_rejects_bad_length():
    with pytest.raises(ValueError):
        smat(np.ones(4))


# -- eig_sym -----------------------------------------------------------------


def test_eig_sym_diagonal_sorted():
    dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(dec.lam, np.array([3.0, 2.0, 1.0]))


def test_eig_sym_2x2_exchange():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.lam, [1.0, -1.0])
    isq = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(dec.Q), isq)
    # sign convention: largest-magnitude entry of each column positive
    assert all(dec.Q[np.argmax(np.abs(dec.Q[:, j])), j] > 0 for j in range(2))


def test_eig_sym_reconstruction():
    rng = np.random.default_rng(2)
    a = random_sym(8, rng)
    dec = eig_sym(a)
    assert np.linalg.norm((dec.Q * dec.lam) @ dec.Q.T - a) <= 1e-10
    assert np.linalg.norm(dec.Q @ dec.Q.T - np.eye(8)) <= 1e-10 * 8


def test_eig_sym_deterministic():
    rng = np.random.default_rng(3)
    a = random_sym(6, rng)
    d1 = eig_sym(a)
    d2 = eig_sym(a.copy())
    assert np.array_equal(d1.Q, d2.Q)
    assert np.array_equal(d1.lam, d2.lam)


def test_eig_sym_rejects_nonfinite():
    a = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        eig_sym(a)


@pytest.mark.parametrize(
    "a",
    [np.full((3, 3), np.nan), np.diag([1.0, np.inf, -2.0]), np.array([[np.inf]])],
    ids=["nan", "inf_diagonal", "inf_1x1"],
)
def test_eig_sym_split_rejects_nonfinite_eigenvalues(a):
    # The split path checks the n eigenvalues, not the n^2 entries.
    with pytest.raises(NumericalFailureError):
        eig_sym(a, split=True)


# -- psd_project -------------------------------------------------------------


def test_psd_project_diagonal():
    assert np.allclose(psd_project(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]), atol=1e-14)


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5))
    a = g @ g.T
    assert np.linalg.norm(psd_project(a) - a) <= 1e-12 * np.linalg.norm(a)


def test_psd_project_exchange_matrix():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(psd_project(a), np.full((2, 2), 0.5), atol=1e-14)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_psd_project_moreau_identity(seed):
    rng = np.random.default_rng(seed)
    a = random_sym(6, rng, scale=rng.uniform(0.1, 10.0))
    recon = psd_project(a) - psd_project(-a)
    assert np.linalg.norm(a - recon) <= 1e-10 * max(1.0, np.linalg.norm(a))
    lam_min = np.linalg.eigvalsh(psd_project(a))[0]
    assert lam_min >= -1e-10 * max(1.0, np.linalg.norm(a, 2))


def test_psd_project_idempotent():
    rng = np.random.default_rng(5)
    a = random_sym(7, rng)
    p = psd_project(a)
    assert np.linalg.norm(psd_project(p) - p) <= 1e-10 * max(1.0, np.linalg.norm(p))


def test_psd_project_is_nearest_point():
    # Projection beats 1000 random PSD candidates in Frobenius distance.
    rng = np.random.default_rng(6)
    a = random_sym(3, rng)
    best = np.linalg.norm(a - psd_project(a))
    for _ in range(1000):
        g = rng.standard_normal((3, 3))
        cand = g @ g.T
        assert best <= np.linalg.norm(a - cand) + 1e-8


def test_psd_split_complementary():
    rng = np.random.default_rng(7)
    a = random_sym(6, rng)
    plus, minus = psd_split(eig_sym(a))
    assert np.linalg.norm(a - (plus - minus)) <= 1e-12 * max(1.0, np.linalg.norm(a))
    assert abs(np.sum(plus * minus)) <= 1e-12


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_psd_split_matches_full_spectrum_formula(n, seed, log_scale):
    # Oracle: both parts as full n x n products over zero-padded spectra.
    rng = np.random.default_rng(seed)
    q = haar_orthogonal(n, rng)
    k = int(rng.integers(0, n + 1))
    zeros = int(rng.integers(0, n - k + 1))
    lam = np.concatenate(
        [rng.uniform(0.1, 2.0, k), np.zeros(zeros), -rng.uniform(0.1, 2.0, n - k - zeros)]
    )
    z = symmetrize((q * (10.0**log_scale * lam)) @ q.T)
    dec = eig_sym(z)
    plus, minus = psd_split(dec)
    full_plus = symmetrize((dec.Q * np.clip(dec.lam, 0.0, None)) @ dec.Q.T)
    full_minus = symmetrize((dec.Q * np.clip(-dec.lam, 0.0, None)) @ dec.Q.T)
    scale = max(1.0, np.linalg.norm(z))
    assert np.linalg.norm(plus - full_plus) <= 1e-14 * scale
    assert np.linalg.norm(minus - full_minus) <= 1e-14 * scale
    assert abs(np.sum(plus * minus)) <= 1e-14 * scale**2


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    kind=st.sampled_from(["distinct", "cluster", "repeated", "zero"]),
    k_share=st.floats(min_value=0.0, max_value=1.0),
    flip=st.booleans(),
)
@example(n=1, seed=0, log_scale=0.0, kind="distinct", k_share=0.0, flip=False)
@example(n=1, seed=0, log_scale=0.0, kind="distinct", k_share=0.0, flip=True)
@example(n=24, seed=1, log_scale=0.0, kind="zero", k_share=0.0, flip=False)
@example(n=12, seed=5, log_scale=0.0, kind="distinct", k_share=0.0, flip=True)
@example(n=40, seed=2, log_scale=-3.0, kind="distinct", k_share=1.0, flip=False)
@example(n=31, seed=3, log_scale=3.0, kind="repeated", k_share=1.0, flip=True)
@example(n=30, seed=4, log_scale=0.0, kind="cluster", k_share=1.0, flip=False)
@settings(max_examples=100, deadline=None)
def test_partial_split_matches_full_decomposition(n, seed, log_scale, kind, k_share, flip):
    # Oracle: the full eig_sym and psd_split. k of the n eigenvalues are
    # positive (or, flipped, negative), k from 0 to n/2. "cluster" puts each
    # sign group within 1e-9 of +-1; "repeated" takes eigenvalues from
    # {1, 2} on a diagonal Z, so repeats are exact and T splits. With k = 0
    # the smaller group is empty and its part is the zero matrix: Pi(Z)
    # unflipped, Pi(-Z) flipped (the n = 1 and n = 12 examples).
    rng = np.random.default_rng(seed)
    k = int(round(k_share * (n // 2)))
    sign = np.where(np.arange(n) < k, 1.0, -1.0)
    if kind == "repeated":
        z = np.diag(rng.permutation(rng.choice([1.0, 2.0], n) * sign))
    else:
        lam = {
            "distinct": rng.uniform(0.1, 2.0, n) * sign,
            "cluster": sign + 1e-9 * rng.standard_normal(n),
            "zero": np.zeros(n),
        }[kind]
        q = haar_orthogonal(n, rng)
        z = symmetrize((q * lam) @ q.T)
    z = (-1.0 if flip else 1.0) * 10.0**log_scale * z
    part = eig_sym(z, split=True)
    dec = eig_sym(z)
    plus, minus = psd_split(dec)
    scale = max(1.0, np.linalg.norm(z))
    assert np.linalg.norm(part.lam - dec.lam) <= 1e-13 * scale
    assert np.linalg.norm(part.plus - plus) <= 1e-13 * scale
    assert np.linalg.norm(part.minus - minus) <= 1e-13 * scale
    assert abs(np.sum(part.plus * part.minus)) <= 1e-14 * scale**2


# -- sylvester_solve ---------------------------------------------------------


def _solve(zx, zs, zo):
    # sylvester_solve on the spectra of the two blocks, as the sweep passes them.
    return sylvester_solve(zo, (np.linalg.eigh(zx), np.linalg.eigh(zs)))


def test_sylvester_commuting_scalar_case():
    rng = np.random.default_rng(8)
    zo = rng.standard_normal((3, 3))
    w = _solve(2.0 * np.eye(3), -3.0 * np.eye(3), zo)
    assert np.allclose(w, zo / 5.0, atol=1e-14)


def test_sylvester_1x1():
    w = _solve(np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]]))
    assert abs(w[0, 0] - 0.2) <= 1e-15


def _kron_oracle(zx, zs, zo):
    # Straight vec-form solve: (I (x) -Zs + Zx (x) I) vec(W) = vec(Zo),
    # written independently of the library path.
    r, s = zx.shape[0], zs.shape[0]
    big = np.kron(zx, np.eye(s)) + np.kron(np.eye(r), -zs)
    return np.linalg.solve(big, zo.flatten(order="F")).reshape((s, r), order="F")


def _definite_pair(r, s, rng, shift=0.3):
    gx = rng.standard_normal((r, r))
    gs = rng.standard_normal((s, s))
    return gx @ gx.T + shift * np.eye(r), -(gs @ gs.T + shift * np.eye(s))


def test_sylvester_against_kron_oracle():
    rng = np.random.default_rng(9)
    for r, s in ((3, 2), (9, 12)):
        zx, zs = _definite_pair(r, s, rng)
        zo = rng.standard_normal((s, r))
        w = _solve(zx, zs, zo)
        assert np.allclose(w, _kron_oracle(zx, zs, zo), atol=1e-12)
        resid = np.linalg.norm(w @ zx - zs @ w - zo)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(zo))


def test_sylvester_against_scipy_schur():
    # Independent reference: Bartels-Stewart on -Zs W + W Zx = Zo.
    rng = np.random.default_rng(17)
    for r, s in ((64, 64), (70, 5)):
        zx, zs = _definite_pair(r, s, rng, shift=1.0)
        zo = rng.standard_normal((s, r))
        w = _solve(zx, zs, zo)
        ref = scipy.linalg.solve_sylvester(-zs, zx, zo)
        assert np.linalg.norm(w - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_sylvester_norm_bound():
    rng = np.random.default_rng(10)
    for _ in range(10):
        r, s = 4, 3
        gx = rng.standard_normal((r, r))
        zx = gx @ gx.T + 0.5 * np.eye(r)
        gs = rng.standard_normal((s, s))
        zs = -(gs @ gs.T + 0.5 * np.eye(s))
        zo = rng.standard_normal((s, r))
        w = _solve(zx, zs, zo)
        sep = np.linalg.eigvalsh(zx)[0] - np.linalg.eigvalsh(zs)[-1]
        eta = np.sqrt(min(r, s)) / sep
        assert np.linalg.norm(w, 2) <= eta * np.linalg.norm(zo, 2) * (1.0 + 1e-12)


def test_sylvester_large_block_path():
    # A long, thin off-block: block edges 70 and 5.
    rng = np.random.default_rng(11)
    r, s = 70, 5
    zx = np.diag(rng.uniform(0.5, 2.0, r))
    zs = -np.diag(rng.uniform(0.5, 2.0, s))
    zo = rng.standard_normal((s, r))
    w = _solve(zx, zs, zo)
    resid = np.linalg.norm(w @ zx - zs @ w - zo)
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(zo))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_sylvester_residual_property(r, s, seed):
    rng = np.random.default_rng(seed)
    gx = rng.standard_normal((r, r))
    zx = gx @ gx.T + 0.2 * np.eye(r)
    gs = rng.standard_normal((s, s))
    zs = -(gs @ gs.T + 0.2 * np.eye(s))
    zo = rng.standard_normal((s, r))
    w = _solve(zx, zs, zo)
    resid = np.linalg.norm(w @ zx - zs @ w - zo)
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(zo))


def test_sylvester_given_block_eigs_matches_and_keeps_its_gates():
    rng = np.random.default_rng(21)
    zx, zs = _definite_pair(4, 3, rng)
    zo = rng.standard_normal((3, 4))
    eigs = (np.linalg.eigh(zx), np.linalg.eigh(zs))
    with pytest.raises(ValueError, match="shape"):
        sylvester_solve(zo.T, eigs)
    near = (np.diag([1e-13, 1e2]), np.diag([-1e2, -1e-13]))
    with pytest.raises(NumericalFailureError):
        _solve(*near, np.zeros((2, 2)))
    bad = (np.diag([1.0, -0.1]), -np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        _solve(*bad, np.zeros((2, 2)))


def test_sylvester_rejects_indefinite_blocks():
    with pytest.raises(ValueError):
        _solve(np.diag([1.0, -0.1]), -np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        _solve(np.eye(2), np.diag([-1.0, 0.1]), np.zeros((2, 2)))


def test_sylvester_ill_conditioned_failure():
    # Definite blocks nearly touching at zero while the spread stays large.
    with pytest.raises(NumericalFailureError):
        _solve(np.diag([1e-13, 1e2]), np.diag([-1e2, -1e-13]), np.zeros((2, 2)))


# -- sym_norm2 ---------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-6.0, max_value=6.0),
    st.sampled_from(["mixed", "negative", "positive", "negative_dominated"]),
)
@example(n=1, seed=0, log_scale=0.0, kind="negative")
@example(n=5, seed=1, log_scale=0.0, kind="negative_dominated")
@settings(max_examples=60, deadline=None)
def test_sym_norm2_matches_the_svd_norm(n, seed, log_scale, kind):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
    if kind == "negative":
        lam = -np.abs(lam)
    elif kind == "positive":
        lam = np.abs(lam)
    elif kind == "negative_dominated":
        lam[0] = -5.0  # the largest magnitude is a negative eigenvalue
    q = haar_orthogonal(n, rng)
    a = symmetrize((q * (10.0**log_scale * lam)) @ q.T)
    want = np.linalg.norm(a, 2)
    assert abs(sym_norm2(a) - want) <= 1e-13 * want


def test_sym_norm2_of_an_empty_matrix_is_zero():
    assert sym_norm2(np.zeros((0, 0))) == 0.0


# -- skew_exp ----------------------------------------------------------------


def test_skew_exp_zero():
    assert np.array_equal(skew_exp(np.zeros((3, 3))), np.eye(3))


def test_skew_exp_planar_rotation():
    theta = 0.7
    w = np.array([[0.0, -theta], [theta, 0.0]])
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(skew_exp(w), expected, atol=1e-14)


def _exp_series(w, terms=30):
    out = np.eye(w.shape[0])
    term = np.eye(w.shape[0])
    for k in range(1, terms):
        term = term @ w / k
        out = out + term
    return out


def test_skew_exp_quadratic_remainder():
    rng = np.random.default_rng(12)
    w = random_skew(5, rng)
    w *= 0.5 / np.linalg.norm(w, 2)
    r = skew_exp(w)
    assert np.allclose(r, _exp_series(w), atol=1e-13)
    assert np.linalg.norm(r - np.eye(5) - w, 2) <= (2.0 / 3.0) * 0.25


def test_skew_exp_orthogonal_output():
    rng = np.random.default_rng(13)
    for _ in range(5):
        w = random_skew(6, rng)
        r = skew_exp(w)
        assert np.linalg.norm(r.T @ r - np.eye(6)) <= 1e-10 * 6


def test_skew_exp_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_exp(np.eye(3))
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        skew_exp(np.zeros((2, 3)))


def test_exp_remainder_bound_many_samples():
    # ||exp(W) - I - W||_2 <= (2/3)||W||_2^2 whenever ||W||_2 <= 3/4.
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = random_skew(4, rng)
        w *= rng.uniform(0.01, 0.75) / np.linalg.norm(w, 2)
        lhs = np.linalg.norm(skew_exp(w) - np.eye(4) - w, 2)
        assert lhs <= (2.0 / 3.0) * np.linalg.norm(w, 2) ** 2 + 1e-15


# -- misc --------------------------------------------------------------------


def test_block_spectral_norm_sandwich():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, n))
        x = random_sym(n, rng)
        a, b, c = x[:r, :r], x[r:, :r], x[r:, r:]
        norms = [np.linalg.norm(a, 2), np.linalg.norm(b, 2), np.linalg.norm(c, 2)]
        total = np.linalg.norm(x, 2)
        assert max(norms) <= total + 1e-12
        assert total <= sum(norms) + 1e-12


def test_symmetrize_validates_shape():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


def test_random_indefinite_helper_has_gap():
    rng = np.random.default_rng(16)
    z = random_indefinite(6, 2, rng, gap=0.4)
    lam = np.linalg.eigvalsh(z)
    assert np.sum(lam > 0) == 2
    assert np.min(np.abs(lam)) >= 0.4 - 1e-12
