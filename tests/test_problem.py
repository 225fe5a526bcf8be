import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpadmm import problem as problem_mod
from sdpadmm.errors import SdpaFormatError, UnsupportedBlockError
from sdpadmm.linalg import svec, svec_dim
from sdpadmm.problem import (
    SdpProblem,
    apply_A,
    apply_At,
    apply_B,
    apply_Bt,
    build_kernel,
    constraint_values,
    generate_maxcut,
    generate_planted,
    load_sdpa,
    project_null,
    project_range,
    solve_normal,
    write_sdpa,
)

from conftest import random_sym


def cycle_adjacency(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def brute_force_maxcut(adj):
    n = adj.shape[0]
    best = 0.0
    for bits in itertools.product([-1.0, 1.0], repeat=n):
        x = np.array(bits)
        best = max(best, 0.25 * float(x @ (np.diag(adj.sum(1)) - adj) @ x))
    return best


# -- problem container -------------------------------------------------------


def test_problem_validates_independence():
    a = np.stack([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(ValueError, match="linearly dependent"):
        SdpProblem(C=np.eye(2), A=a, b=np.zeros(2))


def test_problem_rejects_too_many_constraints():
    a = np.stack([random_sym(2, np.random.default_rng(i)) for i in range(4)])
    with pytest.raises(ValueError, match="exceeds"):
        SdpProblem(C=np.eye(2), A=a, b=np.zeros(4))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SdpProblem(C=np.eye(3), A=np.zeros((2, 3, 4)), b=np.zeros(2)),
         r"constraint stack has shape \(2, 3, 4\), expected \(m, n, n\)"),
        (lambda: SdpProblem(C=np.eye(3), A=np.zeros((3,)), b=np.zeros(1)),
         r"constraint stack has shape \(3,\), expected \(m, n, n\)"),
        (lambda: SdpProblem(C=np.eye(3), A=np.stack([np.eye(2)]), b=np.ones(1)),
         "constraint and cost dimensions disagree"),
        (lambda: SdpProblem.from_table(C=np.eye(3), table=np.eye(1, 5), b=np.ones(1)),
         "constraint and cost dimensions disagree"),
        (lambda: SdpProblem(C=np.eye(2), A=np.stack([np.eye(2)]), b=np.ones(2)),
         r"b has shape \(2,\), expected \(1,\)"),
    ],
    ids=["stack-not-square", "stack-1d", "stack-vs-cost", "table-vs-cost", "b-shape"],
)
def test_problem_rejects_mismatched_shapes(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_problem_takes_a_matrix_as_one_constraint():
    p = SdpProblem(C=np.eye(2), A=np.diag([1.0, 2.0]), b=3.0)
    assert p.m == 1 and np.array_equal(p.A, np.diag([1.0, 2.0])[None])
    assert np.array_equal(p.b, [3.0])


def test_problem_rejects_order_zero():
    # An n = 0 problem has no iterate; it is refused at construction, before
    # any kernel reads flat position 0 of an empty matrix.
    with pytest.raises(ValueError, match="n = 0"):
        SdpProblem(C=np.zeros((0, 0)), A=np.zeros((0, 0, 0)), b=np.zeros(0))
    with pytest.raises(ValueError, match="n = 0"):
        SdpProblem.from_table(C=np.zeros((0, 0)), table=np.zeros((0, 0)), b=np.zeros(0))


def test_problem_symmetrizes_inputs():
    a = np.array([[[1.0, 2.0], [0.0, 3.0]]])
    p = SdpProblem(C=np.array([[1.0, 1.0], [0.0, 1.0]]), A=a, b=np.ones(1))
    assert np.array_equal(p.A[0], p.A[0].T)
    assert np.array_equal(p.C, p.C.T)


# -- constraint operator -----------------------------------------------------


def test_apply_A_maxcut_identity():
    p = generate_maxcut(cycle_adjacency(4))
    assert np.array_equal(apply_A(p, np.eye(4)), np.ones(4))
    assert np.array_equal(apply_A(p, np.zeros((4, 4))), np.zeros(4))


def test_apply_A_matches_svec_product(small_planted):
    p, _, _ = small_planted
    rng = np.random.default_rng(0)
    x = random_sym(p.n, rng)
    stack = svec(p.A).T
    assert np.allclose(apply_A(p, x), stack.T @ svec(x), atol=1e-12)


def test_apply_At_unit_vectors(small_planted):
    p, _, _ = small_planted
    e1 = np.zeros(p.m)
    e1[0] = 1.0
    assert np.array_equal(apply_At(p, e1), p.A[0])
    assert np.array_equal(apply_At(p, np.zeros(p.m)), np.zeros((p.n, p.n)))


def test_adjoint_identity(small_planted):
    p, _, _ = small_planted
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.standard_normal(p.m)
        x = random_sym(p.n, rng)
        lhs = np.sum(apply_At(p, y) * x)
        rhs = y @ apply_A(p, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    # A (2, m) stack of multipliers: one adjoint per row, symmetric.
    for _ in range(5):
        ys = rng.standard_normal((2, p.m))
        x = random_sym(p.n, rng)
        out = apply_At(p, ys)
        assert out.shape == (2, p.n, p.n)
        for y, at_y in zip(ys, out):
            tol = 1e-13 * np.abs(y).sum()
            assert np.allclose(at_y, at_y.T, rtol=0.0, atol=tol)
            assert np.allclose(at_y, apply_At(p, y), rtol=0.0, atol=tol)
            lhs, rhs = np.sum(at_y * x), y @ apply_A(p, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_apply_A_dimension_mismatch(small_planted):
    p, _, _ = small_planted
    with pytest.raises(ValueError):
        apply_A(p, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        apply_At(p, np.zeros(p.m + 1))
    with pytest.raises(ValueError):
        apply_At(p, np.zeros((2, p.m + 1)))
    with pytest.raises(ValueError):
        apply_At(p, np.zeros((2, 2, p.m)))


# -- range projector ---------------------------------------------------------


def test_project_range_fixes_span(small_planted):
    p, _, kern = small_planted
    rng = np.random.default_rng(2)
    h = apply_At(p, rng.standard_normal(p.m))
    assert np.linalg.norm(project_range(kern, h) - h) <= 1e-10 * np.linalg.norm(h)


def test_project_range_kills_orthogonal_complement(small_planted):
    p, _, kern = small_planted
    rng = np.random.default_rng(3)
    h = project_null(kern, random_sym(p.n, rng))
    assert np.linalg.norm(project_range(kern, h)) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_projector_orthogonality_and_idempotence(small_planted):
    p, _, kern = small_planted
    rng = np.random.default_rng(4)
    h = random_sym(p.n, rng)
    ph = project_range(kern, h)
    assert abs(np.sum(ph * project_null(kern, h))) <= 1e-10 * np.sum(h * h)
    assert np.linalg.norm(project_range(kern, ph) - ph) <= 1e-10 * max(1.0, np.linalg.norm(ph))
    assert np.array_equal(ph + project_null(kern, h), ph + (h - ph))


def test_kernel_gram_factorization(small_planted):
    p, _, kern = small_planted
    stack = svec(p.A).T
    assert np.array_equal(p.R, np.triu(p.R)) and p.R.flags.f_contiguous
    assert np.allclose(p.R.T @ p.R, stack.T @ stack, rtol=1e-10, atol=0)
    # The rows of B = R^-T A are orthonormal in the trace inner product.
    basis = svec(apply_Bt(kern, np.eye(p.m))).T
    assert np.linalg.norm(basis.T @ basis - np.eye(p.m)) <= 1e-13 * p.m
    assert np.linalg.norm(apply_A(p, kern.at_pinv_b) - p.b) <= 1e-10 * max(
        1.0, np.linalg.norm(p.b)
    )


@pytest.mark.parametrize("kappa", [1e4, 1e6, 1e7, 1e8])
@pytest.mark.parametrize("n, m, seed", [(6, 9, 0), (8, 12, 1), (10, 30, 2)])
def test_near_dependent_constraints_keep_an_exact_projector(n, m, seed, kappa):
    # A_m = A_1 + G / kappa: the constraints stay independent, but AA* has
    # condition number of order kappa^2, which a Gram factorization squares
    # into the projector's error.
    rng = np.random.default_rng(seed)
    a = np.stack([random_sym(n, rng) for _ in range(m)])
    a[-1] = a[0] + random_sym(n, rng) / kappa
    p = SdpProblem(C=random_sym(n, rng), A=a, b=np.zeros(m))
    kern = build_kernel(p)
    for _ in range(5):
        ph = project_range(kern, random_sym(n, rng))
        assert np.linalg.norm(project_range(kern, ph) - ph) <= 1e-6 * np.linalg.norm(ph)
        at_y = apply_At(p, rng.standard_normal(m))
        assert np.linalg.norm(project_range(kern, at_y) - at_y) <= 1e-6 * np.linalg.norm(at_y)


def _near_dependent(n, m, seed, kappa):
    # A_m = A_1 + G / kappa, with random C and b.
    rng = np.random.default_rng(seed)
    a = np.stack([random_sym(n, rng) for _ in range(m)])
    a[-1] = a[0] + random_sym(n, rng) / kappa
    return SdpProblem(C=random_sym(n, rng), A=a, b=rng.standard_normal(m))


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_planted(10, 30, 3, seed=4)[0],
        lambda: generate_maxcut(cycle_adjacency(9)),
        lambda: _near_dependent(10, 30, 2, 1e8),
    ],
    ids=["planted", "maxcut", "near_dependent"],
)
def test_basis_pass_matches_table_pass_and_solve(make):
    p = make()
    kern = build_kernel(p)
    rng = np.random.default_rng(7)
    # Both sides carry a forward error of about eps * cond(R) against the
    # exact coordinates, about 1e-8 relative at kappa = 1e8.
    tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(p.R))
    for _ in range(5):
        x = random_sym(p.n, rng)
        want = scipy.linalg.solve_triangular(p.R, apply_A(p, x), trans="T")
        got = apply_B(kern, x)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
        # A(X) - b = R'(B(X) - b_hat), with no table pass.
        residual = apply_A(p, x) - p.b
        from_basis = constraint_values(kern, got - kern.b_hat)
        assert np.linalg.norm(from_basis - residual) <= 1e-12 * np.linalg.norm(residual)


@pytest.mark.parametrize(
    "a, message",
    [
        (np.zeros((2, 3, 3)), "rank 0 < m = 2"),
        (np.stack([np.diag([1.0, 0.0, 0.0])] * 3), "rank 1 < m = 3"),
    ],
    ids=["all_zero", "support_smaller_than_m"],
)
def test_support_qr_rejects_degenerate_tables(a, message):
    # The support QR gives R only |S| rows: none for an all-zero table, one
    # for three copies of E11. Both fail the rank check with the same message
    # as a full-table QR.
    with pytest.raises(ValueError, match=rf"linearly dependent \({message}\)"):
        SdpProblem(C=np.eye(3), A=a, b=np.zeros(len(a)))


def test_nonfinite_table_entries_are_rejected_on_the_support():
    # A non-finite entry is nonzero, so it lies in S and the check on S sees it.
    for bad in (np.nan, np.inf, -np.inf):
        table = np.zeros((2, svec_dim(3)))
        table[0, 0], table[1, 2] = 1.0, bad
        with pytest.raises(ValueError, match="A contains non-finite"):
            SdpProblem.from_table(C=np.eye(3), table=table, b=np.zeros(2))


def test_kernel_rejects_dependent_constraints():
    # Dependence is caught at problem construction, before any kernel exists.
    with pytest.raises(ValueError):
        SdpProblem(C=np.eye(2), A=np.stack([np.eye(2), np.eye(2)]), b=np.zeros(2))


def test_empty_constraint_set():
    p = SdpProblem(C=np.eye(3), A=np.zeros((0, 3, 3)), b=np.zeros(0))
    kern = build_kernel(p)
    h = random_sym(3, np.random.default_rng(5))
    assert np.array_equal(project_range(kern, h), np.zeros((3, 3)))
    assert np.array_equal(kern.at_pinv_b, np.zeros((3, 3)))
    assert apply_B(kern, h).shape == constraint_values(kern, np.zeros(0)).shape == (0,)


# -- basis on the column support against the full-width basis ---------------

# Oracle: test-local copy of the full-width basis that the support-restricted
# one replaced: B = R^-T A over every packed-triangle position, from one
# right-side dtrsm on the whole transposed table, with its own index maps.


class FullWidthBasis:
    def __init__(self, p):
        self.n = p.n
        self.basis = scipy.linalg.blas.dtrsm(1.0, p.R, p.table.T, side=1).T
        iu, ju = np.triu_indices(p.n)
        self.upper = iu * p.n + ju
        self.weights = np.where(iu == ju, 1.0, 2.0)
        self.mirror = np.empty(p.n * p.n, dtype=np.intp)
        self.mirror[self.upper] = self.mirror[ju * p.n + iu] = np.arange(iu.size)

    def apply_B(self, x):
        return self.basis @ (self.weights * x.take(self.upper))

    def apply_Bt(self, u):
        return (u @ self.basis).take(self.mirror, axis=-1).reshape(u.shape[:-1] + (self.n,) * 2)


def _theta_problem(n, edges):
    # Lovasz theta of a graph: min <-J, X> s.t. tr X = 1, X_ij = 0 on edges.
    a = np.zeros((1 + len(edges), n, n))
    a[0] = np.eye(n)
    for k, (i, j) in enumerate(edges, start=1):
        a[k, i, j] = a[k, j, i] = 1.0
    b = np.zeros(len(a))
    b[0] = 1.0
    return SdpProblem(C=-np.ones((n, n)), A=a, b=b)


def dense_R(p):
    # Oracle: the R that the support QR replaced, from one Householder QR of
    # the whole weighted (t(n), m) table, zero rows included.
    iu, ju = np.triu_indices(p.n)
    weights = np.where(iu == ju, 1.0, 2.0)
    return np.asfortranarray(np.linalg.qr((p.table * np.sqrt(weights)).T, mode="r"))


# Problems with full, diagonal, partial and empty column support, each with
# the size |S| of its support.
SUPPORT_PROBLEMS = {
    "planted": (lambda: generate_planted(10, 30, 3, seed=4)[0], svec_dim(10)),
    "maxcut": (lambda: generate_maxcut(cycle_adjacency(9)), 9),
    "theta": (lambda: _theta_problem(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]), 7 + 8),
    "near_dependent": (lambda: _near_dependent(10, 30, 2, 1e8), svec_dim(10)),
    "empty": (lambda: SdpProblem(C=np.eye(4), A=np.zeros((0, 4, 4)), b=np.zeros(0)), 0),
}


@pytest.mark.parametrize("case", list(SUPPORT_PROBLEMS))
def test_support_basis_matches_full_width_basis(case):
    make, support = SUPPORT_PROBLEMS[case]
    p = make()
    kern = build_kernel(p)
    oracle = FullWidthBasis(p)
    # B on S, then the zero column that the positions outside S read.
    assert kern.basis.shape == (p.m, support + 1) and not kern.basis[:, -1].any()
    rng = np.random.default_rng(17)
    tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(p.R)) if p.m else 0.0

    def close(got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    for _ in range(4):
        x = random_sym(p.n, rng)
        u, us = rng.standard_normal(p.m), rng.standard_normal((3, p.m))
        close(apply_B(kern, x), oracle.apply_B(x))
        close(apply_Bt(kern, u), oracle.apply_Bt(u))
        close(apply_Bt(kern, us), oracle.apply_Bt(us))
        close(project_range(kern, x), oracle.apply_Bt(oracle.apply_B(x)))
    close(kern.at_pinv_b, oracle.apply_Bt(kern.b_hat))


@pytest.mark.parametrize("case", list(SUPPORT_PROBLEMS))
def test_support_R_matches_dense_table_R(case):
    # R'R = AA* fixes R up to the signs of its rows. A full support gives
    # the dense QR its own input, and max-cut's R = +-I is exact, so those
    # two match bit for bit; a partial support matches to rounding.
    p = SUPPORT_PROBLEMS[case][0]()
    want = dense_R(p)
    assert p.R.shape == want.shape == (p.m, p.m)
    got = np.sign(np.diag(p.R) * np.diag(want))[:, None] * p.R
    if case in ("planted", "maxcut"):
        assert np.array_equal(got, want)
    else:
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(want)) if p.m else 0.0
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
    if p.m:
        assert p.cond_R == pytest.approx(np.linalg.cond(want), rel=1e-12)
    else:
        assert p.cond_R is None


def test_cond_R_is_the_condition_number_of_R():
    p = _near_dependent(10, 30, 2, 1e8)
    assert p.cond_R == pytest.approx(np.linalg.cond(p.R), rel=1e-8)
    assert p.cond_R > 1e6
    assert SdpProblem(C=np.eye(3), A=np.zeros((0, 3, 3)), b=np.zeros(0)).cond_R is None


# -- packed table against the dense stack ------------------------------------

# Oracle: test-local copy of the dense-stack operator that the packed table
# replaced: gemv/gemm on the flattened (m, n*n) stack, the Gram matrix from
# svec, and scipy's cho_factor/cho_solve.


class DenseStackOracle:
    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        self.stack = 0.5 * (a + a.transpose(0, 2, 1))
        m, n, _ = self.stack.shape
        self.m, self.n = m, n
        sv = svec(self.stack).T if m > 0 else np.zeros((svec_dim(n), 0))
        self.gram = sv.T @ sv
        self.cho = scipy.linalg.cho_factor(self.gram) if m > 0 else None

    def apply_A(self, x):
        return self.stack.reshape(self.m, self.n * self.n) @ x.reshape(self.n * self.n)

    def apply_At(self, y):
        flat = self.stack.reshape(self.m, self.n * self.n)
        return (y @ flat).reshape(y.shape[:-1] + (self.n, self.n))

    def solve_normal(self, v):
        return scipy.linalg.cho_solve(self.cho, v)

    def project_range(self, h):
        return self.apply_At(self.solve_normal(self.apply_A(h)))


def _oracle_stacks():
    """(C, input stack, b) triples: the SDPA oracle instances plus one
    problem built from a non-symmetric stack."""
    stacks = [(p.C, p.A, p.b) for p in _oracle_problems()]
    rng = np.random.default_rng(11)
    stacks.append((random_sym(5, rng), rng.standard_normal((7, 5, 5)), rng.standard_normal(7)))
    return stacks


def _close(new, old, rtol=1e-13):
    assert np.linalg.norm(new - old) <= rtol * np.linalg.norm(old)


@pytest.mark.parametrize("idx", range(7))
def test_packed_table_matches_dense_stack_oracle(idx):
    c, a, b = _oracle_stacks()[idx]
    p = SdpProblem(C=c, A=a, b=b)
    oracle = DenseStackOracle(a)
    assert np.array_equal(p.A, oracle.stack)
    assert all(np.ndim(v) < 3 for v in vars(p).values())
    assert p.table.flags.c_contiguous and p.table.shape == (p.m, svec_dim(p.n))
    kern = build_kernel(p)
    rng = np.random.default_rng(idx)
    if p.m == 0:
        assert (p.R.T @ p.R).shape == (0, 0)
        assert np.array_equal(apply_A(p, random_sym(p.n, rng)), np.zeros(0))
        assert np.array_equal(apply_At(p, np.zeros((2, 0))), np.zeros((2, p.n, p.n)))
        return
    _close(p.R.T @ p.R, oracle.gram)  # AA* = R'R
    for _ in range(3):
        x = random_sym(p.n, rng)
        y, ys = rng.standard_normal(p.m), rng.standard_normal((2, p.m))
        _close(apply_A(p, x), oracle.apply_A(x))
        _close(apply_At(p, y), oracle.apply_At(y))
        _close(apply_At(p, ys), oracle.apply_At(ys))
        _close(solve_normal(kern, y), oracle.solve_normal(y))
        _close(solve_normal(kern, ys.T), oracle.solve_normal(ys.T))
        _close(project_range(kern, x), oracle.project_range(x))
    _close(kern.at_pinv_b, oracle.apply_At(oracle.solve_normal(p.b)))


@st.composite
def _table_problems(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=svec_dim(n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p = SdpProblem(C=random_sym(n, rng), A=rng.standard_normal((m, n, n)), b=np.zeros(m))
    return p, rng


@given(_table_problems())
@settings(max_examples=60, deadline=None)
def test_table_operator_properties(case):
    p, rng = case
    kern = build_kernel(p)
    x, h = random_sym(p.n, rng), random_sym(p.n, rng)
    y = rng.standard_normal(p.m)
    at_y = apply_At(p, y)
    scale = np.linalg.norm(p.table) * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(apply_A(p, x) @ y - np.sum(x * at_y)) <= 1e-13 * max(1.0, scale)
    px, ph = project_range(kern, x), project_range(kern, h)
    assert np.linalg.norm(project_range(kern, px) - px) <= 1e-9 * np.linalg.norm(x)
    assert abs(np.sum(px * h) - np.sum(x * ph)) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(h)
    assert np.linalg.norm(project_range(kern, at_y) - at_y) <= 1e-9 * np.linalg.norm(at_y)


# -- SDPA I/O ----------------------------------------------------------------

MINIMAL_SDPA = """\
* tiny instance
1
1
2
1.0
0 1 1 1 -1.0
0 1 2 2 -2.0
1 1 1 1 1.0
1 1 2 2 1.0
"""


def test_load_sdpa_minimal(tmp_path):
    path = tmp_path / "tiny.dat-s"
    path.write_text(MINIMAL_SDPA)
    p = load_sdpa(path)
    assert p.n == 2 and p.m == 1
    assert np.array_equal(p.C, np.diag([1.0, 2.0]))  # C = -F0
    assert np.array_equal(p.A[0], np.eye(2))
    assert np.array_equal(p.b, np.array([1.0]))


def test_load_sdpa_multiblock_rejected(tmp_path):
    path = tmp_path / "two.dat-s"
    path.write_text("1\n2\n2 2\n1.0\n1 1 1 1 1.0\n")
    with pytest.raises(UnsupportedBlockError):
        load_sdpa(path)


def test_load_sdpa_lp_block_rejected(tmp_path):
    path = tmp_path / "lp.dat-s"
    path.write_text("1\n1\n-3\n1.0\n1 1 1 1 1.0\n")
    with pytest.raises(UnsupportedBlockError, match="block 1"):
        load_sdpa(path)


def test_load_sdpa_duplicate_entry_rejected(tmp_path):
    path = tmp_path / "dup.dat-s"
    path.write_text("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n")
    with pytest.raises(SdpaFormatError, match="duplicate"):
        load_sdpa(path)


def test_load_sdpa_rank_deficient_rejected(tmp_path):
    path = tmp_path / "dep.dat-s"
    path.write_text("2\n1\n2\n1.0 2.0\n1 1 1 1 1.0\n2 1 1 1 2.0\n")
    with pytest.raises(ValueError, match="linearly dependent"):
        load_sdpa(path)


# Every malformed input raises SdpaFormatError (pytest.raises lets any other
# exception type through, failing the test). The last three cases hold
# several defects; the reader names the first in file order.
MALFORMED_SDPA = [
    ("1\n1\n", "truncated"),
    ("x\n1\n2\n1.0\n", "malformed header"),
    ("1\n{}\n2\n1.0\n", "malformed header"),
    ("-1\n1\n2\n", "negative constraint count"),
    ("1\n2\n3\n1.0\n", "declared 2 blocks but found 1"),
    ("2\n1\n2\n1.0\n", "expected 2 right-hand-side values, found 1"),
    ("1\n1\n2\nabc\n1 1 1 1 1.0\n", "malformed right-hand side.*'abc'"),
    ("1\n1\n2\n1.0\n1 1 1 1\n", "5-tuples"),
    ("1\n1\n2\n1.0\n1.0 1 1 1 1.0\n", "malformed index.*'1.0'"),
    ("1\n1\n2\n1.0\n1 1 1 1 one\n", "malformed entry value.*'one'"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n2 1 1 1 1.0\n", "matrix index 2 outside 0..1"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 2 2 2 1.0\n", "block 2"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 3 1 1.0\n", r"\(3, 1\) outside 1..2"),
    ("1\n1\n2\n1.0\n1 1 99999999999999999999 1 1.0\n", "'99999999999999999999'"),
    ("0\n1\n10000000\n\n", "block size 10000000 needs 400000040000000 bytes"),
    ("1\n1\n2\n1.0\n1 1 1 1 1_5\n", "malformed entry value: '1_5' is not an ASCII number"),
    ("1\n1\n2\n1.0\n1 1 1_1 1 1.0\n", "malformed index: '1_1' is not an ASCII number"),
    ("1\n1\n2\n1.0\n1 1 \u0661 1 1.0\n", "malformed index: '\u0661' is not an ASCII number"),
    (b"1\n1\n2\n1.0\n1 1 1 1 1.0\n* caf\xe9\n", r"bad\.dat-s is not UTF-8 text"),
    ("1\n1\n2\n1_0\n1 1 1 1 1.0\n", "malformed right-hand side: '1_0' is not an ASCII number"),
    ("1\n1\n2\n1.0\n1 1 1_1\n1 1.0\n", "malformed index: '1_1' is not an ASCII number"),
    ("99999999999999999999\n1\n2\n", "block size 2 needs 2400000000000000000000 bytes"),
    ("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n", r"duplicate entry for matrix 1 at \(2, 1\)"),
    ("2\n1\n2\nabc 1_0\n", "malformed right-hand side: .*'abc'"),
    ("1\n1\n2\n1.0\n1 2 1 1 1.0\n5 1 1 1 1.0\n", "block 2"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n1 1 3 1 x\n", r"duplicate .* at \(1, 1\)"),
]


def _write_case(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text, match", MALFORMED_SDPA)
def test_load_sdpa_rejects_malformed(tmp_path, text, match):
    path = _write_case(tmp_path / "bad.dat-s", text)
    with pytest.raises(SdpaFormatError, match=match):
        load_sdpa(path)


def test_load_sdpa_non_ascii_outside_tokens(tmp_path):
    # Comments may hold anything UTF-8, and Unicode whitespace separates
    # tokens; only the tokens themselves must be ASCII without "_".
    plain = _write_case(tmp_path / "plain.dat-s", MINIMAL_SDPA)
    fancy = MINIMAL_SDPA.replace("tiny instance", "tiny_instance, café").replace(
        "1 1 2 2 1.0", "1\u00a01\u30002 2\u20031.0"
    )
    _assert_same_problem(load_sdpa(_write_case(tmp_path / "fancy.dat-s", fancy)),
                         load_sdpa(plain))


def test_sdpa_roundtrip_bit_exact(tmp_path):
    prob, _ = generate_planted(6, 9, 2, seed=7)
    path = tmp_path / "roundtrip.dat-s"
    write_sdpa(prob, path)
    back = load_sdpa(path)
    assert np.array_equal(back.C, prob.C)
    assert np.array_equal(back.A, prob.A)
    assert np.array_equal(back.b, prob.b)


def test_sdpa_multiline_comment_roundtrip(tmp_path):
    # Each line of the comment is its own "*" line; none becomes data.
    prob = generate_maxcut(cycle_adjacency(4))
    path = tmp_path / "cut.dat-s"
    write_sdpa(prob, path, comment="graph\nname.txt")
    assert path.read_text().splitlines()[:3] == ["* graph", "* name.txt", "4"]
    _assert_same_problem(load_sdpa(path), prob)


# Oracle: test-local copies of the per-token reader and the nested-loop
# writer that the array implementation replaced. The reader copy keeps only
# the parsing and assembly, since it is fed valid files only.


def _old_tokens(line):
    for ch in "{}(),":
        line = line.replace(ch, " ")
    return line.split()


def old_load_sdpa(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    data_lines = [ln for ln in lines if not ln.lstrip().startswith(("*", '"'))]
    m = int(_old_tokens(data_lines[0])[0])
    n = int(_old_tokens(data_lines[2])[0])
    tokens = []
    for ln in data_lines[3:]:
        tokens.extend(_old_tokens(ln))
    b = np.array([float(tok) for tok in tokens[:m]])
    entry_tokens = tokens[m:]
    mats = np.zeros((m + 1, n, n))
    for pos in range(0, len(entry_tokens), 5):
        tok = entry_tokens[pos : pos + 5]
        matno, i, j, value = int(tok[0]), int(tok[2]), int(tok[3]), float(tok[4])
        mats[matno, i - 1, j - 1] = value
        mats[matno, j - 1, i - 1] = value
    return SdpProblem(C=-mats[0], A=mats[1:], b=b)


def old_write_sdpa(p, path, comment=None):
    lines = []
    if comment:
        lines.append(f"* {comment}")
    lines += [str(p.m), "1", str(p.n), " ".join(repr(float(v)) for v in p.b)]
    mats = np.concatenate([-p.C[None, :, :], p.A], axis=0)
    for matno in range(p.m + 1):
        for i in range(p.n):
            for j in range(i, p.n):
                if mats[matno, i, j] != 0.0:
                    lines.append(f"{matno} 1 {i + 1} {j + 1} {float(mats[matno, i, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


SDPLIB_STYLE = """\
"quoted title line, as in SDPLIB
* star comment
   * indented star comment
2 =mdim
1 =nblocks
{3}
{1.0,
 -2.5}

0 1 1 1 -1.0
0 1 (2, 3) 0.5
1 1 1 1 1.0 1 1 2
  2 2.5e-1
"comment between entries
2,1,3,3,1.0
2 1 2 1 -7e-1
"""


def _oracle_problems():
    rng = np.random.default_rng(0)
    adj = np.triu(rng.random((12, 12)) < 0.4, 1).astype(float)
    special = SdpProblem(
        C=np.array([[5e-324, -0.0], [-0.0, 1e300]]),
        A=np.array([[[0.1, 1.0 / 3.0], [1.0 / 3.0, -2.5e-17]]]),
        b=np.array([np.pi]),
    )
    return [
        generate_planted(6, 9, 2, seed=7)[0],
        generate_planted(10, 20, 3, seed=1, degeneracy="primal_nd_fail")[0],
        generate_planted(24, 100, 3, seed=1, degeneracy="primal_nd_fail")[0],
        generate_maxcut(adj + adj.T),
        SdpProblem(C=random_sym(4, rng), A=np.zeros((0, 4, 4)), b=np.zeros(0)),
        special,
    ]


def _assert_same_problem(p, q):
    assert np.array_equal(p.C, q.C)
    assert np.array_equal(p.A, q.A)
    assert np.array_equal(p.b, q.b)


@pytest.mark.parametrize("comment", [None, "oracle instance"])
def test_sdpa_io_matches_loop_oracle(tmp_path, comment):
    for idx, prob in enumerate(_oracle_problems()):
        new, old = tmp_path / f"new{idx}.dat-s", tmp_path / f"old{idx}.dat-s"
        write_sdpa(prob, new, comment=comment)
        old_write_sdpa(prob, old, comment=comment)
        assert new.read_bytes() == old.read_bytes()
        back = load_sdpa(new)
        _assert_same_problem(back, old_load_sdpa(new))
        _assert_same_problem(back, prob)


@pytest.mark.parametrize("idx", [0, 3, 5], ids=["planted", "maxcut", "special"])
def test_svec_of_the_constraints_is_the_weighted_table(idx):
    # One packed order: svec(A_i) is row i of the table with its off-diagonal
    # entries scaled by sqrt(2), bit for bit.
    p = _oracle_problems()[idx]
    iu, ju = np.triu_indices(p.n)
    assert np.array_equal(svec(p.A), p.table * np.sqrt(np.where(iu == ju, 1.0, 2.0)))


def test_load_sdpa_sdplib_style_matches_loop_oracle(tmp_path):
    path = tmp_path / "sdplib.dat-s"
    path.write_text(SDPLIB_STYLE)
    p = load_sdpa(path)
    _assert_same_problem(p, old_load_sdpa(path))
    assert p.n == 3 and p.m == 2
    assert np.array_equal(p.b, [1.0, -2.5])
    assert np.array_equal(p.C, [[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
    assert np.array_equal(p.A[0], np.diag([1.0, 0.25, 0.0]))
    assert p.A[1, 2, 2] == 1.0 and p.A[1, 0, 1] == p.A[1, 1, 0] == -0.7


def _sdpa_error(path):
    with pytest.raises(SdpaFormatError) as info:
        load_sdpa(path)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("chunk", [1, 7, 64, problem_mod._CHUNK_CHARS])
def test_load_sdpa_chunk_boundaries(tmp_path, monkeypatch, chunk):
    # A 1-character chunk is one line, so entries that span lines, the
    # right-hand side and comments are cut at every line end. Each problem is
    # read once more from a CRLF copy of its commented file.
    paths = [_write_case(tmp_path / "sdplib.dat-s", SDPLIB_STYLE)]
    for idx, prob in enumerate(_oracle_problems()):
        for comment in (None, "oracle instance"):
            paths.append(tmp_path / f"oracle{idx}{'c' if comment else ''}.dat-s")
            write_sdpa(prob, paths[-1], comment=comment)
    bad = [_write_case(tmp_path / f"bad{k}.dat-s", text)
           for k, (text, _) in enumerate(MALFORMED_SDPA)]
    errors = [_sdpa_error(path) for path in bad]
    monkeypatch.setattr(problem_mod, "_CHUNK_CHARS", chunk)
    for k, path in enumerate(paths):
        expected = old_load_sdpa(path)
        _assert_same_problem(load_sdpa(path), expected)
        if k % 2 == 0:
            crlf = path.with_suffix(".crlf")
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            _assert_same_problem(load_sdpa(crlf), expected)
    assert [_sdpa_error(path) for path in bad] == errors


def test_sdpa_io_memory_is_bounded(tmp_path):
    # A dense planted (40, 300, 6) file is 7.8 MB of text for a 2 MB table;
    # a reader or writer that holds every line or token of it peaks far above
    # the bound.
    prob, _ = generate_planted(40, 300, 6, seed=1)
    path = tmp_path / "planted.dat-s"
    tracemalloc.start()
    try:
        write_sdpa(prob, path)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = load_sdpa(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_problem(back, prob)
    assert write_peak <= 24e6 and load_peak <= 24e6, (write_peak, load_peak)


# -- generators --------------------------------------------------------------


def test_generate_planted_certificate():
    prob, cert = generate_planted(10, 20, 3, seed=1)
    rp, rd, comp = cert.kkt_residuals(prob)
    assert max(rp, rd, comp) <= 1e-10
    lam_x = np.linalg.eigvalsh(cert.Xstar)
    lam_s = np.linalg.eigvalsh(cert.Sstar)
    assert lam_x[0] >= -1e-12 and lam_s[0] >= -1e-12
    assert np.sum(lam_x > 1e-8) == 3 and np.sum(lam_s > 1e-8) == 7
    assert np.linalg.norm(cert.Qstar.T @ cert.Qstar - np.eye(10)) <= 1e-12


def test_generate_planted_reproducible():
    p1, _ = generate_planted(6, 8, 2, seed=42)
    p2, _ = generate_planted(6, 8, 2, seed=42)
    assert np.array_equal(p1.C, p2.C) and np.array_equal(p1.A, p2.A)


def test_generate_planted_degenerate_witness():
    prob, cert = generate_planted(8, 14, 3, seed=2, degeneracy="primal_nd_fail")
    # Last constraint matrix lives in the trailing block at Qstar: it kills
    # Xstar and is trace-orthogonal to Sstar's spectrum block.
    w = cert.Qstar.T @ prob.A[-1] @ cert.Qstar
    assert np.linalg.norm(w[: cert.r, :]) <= 1e-12
    assert abs(np.sum(prob.A[-1] * cert.Xstar)) <= 1e-12
    rp, rd, comp = cert.kkt_residuals(prob)
    assert max(rp, rd, comp) <= 1e-10


def test_generate_planted_bad_rank():
    with pytest.raises(ValueError):
        generate_planted(5, 6, 5, seed=0)
    with pytest.raises(ValueError):
        generate_planted(5, 15, 2, seed=0)  # m = t(n) leaves no slack
    with pytest.raises(ValueError, match="need 0 < spectrum_floor <= spectrum_ceil"):
        generate_planted(5, 6, 2, seed=0, spectrum_floor=2.0, spectrum_ceil=1.0)


def test_generate_planted_spectrum_floor():
    _, cert = generate_planted(6, 8, 2, seed=3, spectrum_floor=1e-6, spectrum_ceil=1e-5)
    lam = np.linalg.eigvalsh(cert.zstar(1.0))
    assert np.min(np.abs(lam)) < 1e-4  # near strict-complementarity failure


def test_generate_maxcut_cycle():
    adj = cycle_adjacency(4)
    p = generate_maxcut(adj)
    lap = np.diag(adj.sum(1)) - adj
    assert np.array_equal(p.C, -lap / 4.0)
    assert np.array_equal(p.b, np.ones(4))
    assert brute_force_maxcut(adj) == 4.0
    # feasible rank-one cut certificate: relaxation value reaches -4
    x = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.sum(p.C * np.outer(x, x)) == -4.0


def test_generate_maxcut_single_edge():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = generate_maxcut(adj)
    assert brute_force_maxcut(adj) == 1.0
    x = np.array([1.0, -1.0])
    assert np.sum(p.C * np.outer(x, x)) == -1.0


def test_generate_maxcut_empty_graph():
    p = generate_maxcut(np.zeros((3, 3)))
    assert np.array_equal(p.C, np.zeros((3, 3)))
    assert np.sum(p.C * np.eye(3)) == 0.0  # any feasible point is optimal


def test_generate_maxcut_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_maxcut(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        generate_maxcut(np.eye(3))
    with pytest.raises(ValueError, match=r"adjacency has shape \(2, 3\), expected square"):
        generate_maxcut(np.zeros((2, 3)))
