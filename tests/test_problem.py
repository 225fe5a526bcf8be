import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpadmm.errors import SdpaFormatError, UnsupportedBlockError
from sdpadmm.linalg import svec, svec_dim, svec_stack
from sdpadmm.problem import (
    SdpProblem,
    apply_A,
    apply_At,
    apply_Bt,
    build_kernel,
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
    stack = svec_stack(p.A)
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
    stack = svec_stack(p.A)
    assert np.array_equal(p.R, np.triu(p.R)) and p.R.flags.f_contiguous
    assert np.allclose(p.R.T @ p.R, stack.T @ stack, rtol=1e-10, atol=0)
    # The rows of B = R^-T A are orthonormal in the trace inner product.
    basis = svec_stack(apply_Bt(kern, np.eye(p.m)))
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


# -- packed table against the dense stack ------------------------------------

# Oracle: test-local copy of the dense-stack operator that the packed table
# replaced: gemv/gemm on the flattened (m, n*n) stack, the Gram matrix from
# svec_stack, and scipy's cho_factor/cho_solve.


class DenseStackOracle:
    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        self.stack = 0.5 * (a + a.transpose(0, 2, 1))
        m, n, _ = self.stack.shape
        self.m, self.n = m, n
        sv = svec_stack(self.stack) if m > 0 else np.zeros((svec_dim(n), 0))
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
# exception type through, failing the test).
@pytest.mark.parametrize(
    "text, match",
    [
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
    ],
)
def test_load_sdpa_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match=match):
        load_sdpa(path)


def test_sdpa_roundtrip_bit_exact(tmp_path):
    prob, _ = generate_planted(6, 9, 2, seed=7)
    path = tmp_path / "roundtrip.dat-s"
    write_sdpa(prob, path)
    back = load_sdpa(path)
    assert np.array_equal(back.C, prob.C)
    assert np.array_equal(back.A, prob.A)
    assert np.array_equal(back.b, prob.b)


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
