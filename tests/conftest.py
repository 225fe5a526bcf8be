import signal

import numpy as np
import pytest

from sdpadmm import SolverConfig, build_kernel, generate_planted
from sdpadmm.linalg import svec_dim
from sdpadmm.problem import haar_orthogonal


# Wall-clock budget of one test, including the setup of the module-scoped
# fixtures it is the first to use; a solver that stops converging fails the
# test instead of running out its iteration limit.
TEST_BUDGET_SECS = 60


def _over_budget(signum, frame):
    pytest.fail(f"test exceeded its {TEST_BUDGET_SECS} s wall-clock budget", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.alarm(TEST_BUDGET_SECS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_sym(n, rng, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.T)


def dense_table(p):
    """Oracle: the (m, t(n)) constraint table of ``p``, its columns put back
    on the support in a zero table."""
    table = np.zeros((p.m, svec_dim(p.n)))
    table[:, p.support] = p.columns
    return table


def random_indefinite(n, r, rng, gap=0.5, top=2.0):
    """Symmetric matrix with r eigenvalues in [gap, top] and the rest in
    [-top, -gap]."""
    q = haar_orthogonal(n, rng)
    lam = np.concatenate([rng.uniform(gap, top, r), -rng.uniform(gap, top, n - r)])
    return 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)


@pytest.fixture(scope="session")
def small_planted():
    """n=8 nondegenerate instance with kernel, shared by read-only tests."""
    prob, cert = generate_planted(8, 12, 3, seed=0)
    return prob, cert, build_kernel(prob)


@pytest.fixture
def default_cfg():
    return SolverConfig(sigma=1.0, max_iter=50_000, tol_rmax=1e-10, trace_every=1, seed=0)
