"""Benchmark inputs and independent output checks, in numpy alone.

The benchmark builds its instances here rather than through the package's
generators, so a change to the program cannot change the workload, and the
planted optimum gives an oracle the program never sees.

Every workload draws a fixed base instance and lets ``--seed`` apply a
transformation that changes every input number but not the solver's work:

* an orthogonal mixing ``A_i -> sum_j R_ij A_j``, ``b -> R b`` of the
  constraints keeps ``range(A*)``, ``A^dag b`` and every KKT residual, so a
  zero-initialised ADMM run follows the same ``Z`` trajectory;
* a relabelling of the vertices of a graph permutes the max-cut relaxation.

Iteration counts on freshly drawn instances spread by 20-30% between seeds
(planted n=60, m=600: 313 to 583 iterations over seeds 1..10), which would
swamp any bound on run time; the transformations keep the inputs distinct per
seed while the amount of work stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Instance:
    """min <C, X> s.t. <A_i, X> = b_i, X PSD; ``objective`` is <C, X*> when
    a planted optimum is known."""

    C: np.ndarray
    A: np.ndarray
    b: np.ndarray
    objective: float | None = None


def haar_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def planted(n, m, r, rng, nd_fail=False):
    """Random instance with a planted strictly complementary optimum.

    X* and S* share a random eigenbasis with ranks r and n - r and spectra in
    [0.5, 2]; the A_i are symmetric Gaussians, b = A(X*), C = A*(y*) + S*.
    With ``nd_fail`` the last constraint is replaced by a matrix in the dual
    block (trace-orthogonal to S*), so primal nondegeneracy fails while the
    certificate stays optimal.
    """
    q = haar_orthogonal(n, rng)
    lam_x = rng.uniform(0.5, 2.0, size=r)
    lam_s = rng.uniform(0.5, 2.0, size=n - r)
    xstar = _sym((q[:, :r] * lam_x) @ q[:, :r].T)
    sstar = _sym((q[:, r:] * lam_s) @ q[:, r:].T)
    a = _sym(rng.standard_normal((m, n, n)))
    if nd_fail:
        g = _sym(rng.standard_normal((n - r, n - r)))
        d = np.diag(lam_s)
        g -= (np.sum(g * d) / np.sum(d * d)) * d
        a[m - 1] = _sym(q[:, r:] @ g @ q[:, r:].T)
    b = np.einsum("ijk,jk->i", a, xstar)
    c = _sym(np.einsum("i,ijk->jk", rng.standard_normal(m), a) + sstar)
    return Instance(C=c, A=a, b=b, objective=float(np.sum(c * xstar)))


def mix_constraints(inst, rng):
    """Same feasible set and same ADMM trajectory, different coefficients."""
    rot = haar_orthogonal(inst.b.shape[0], rng)
    return Instance(
        C=inst.C,
        A=np.einsum("ij,jkl->ikl", rot, inst.A),
        b=rot @ inst.b,
        objective=inst.objective,
    )


def random_graph(n, p, rng):
    """Adjacency of G(n, p)."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    return (upper | upper.T).astype(float)


def write_edge_list(adjacency, path, rng):
    """Edge list with vertices relabelled by a random permutation, edges in
    random order and orientation."""
    n = adjacency.shape[0]
    perm = rng.permutation(n)
    rows, cols = np.nonzero(np.triu(adjacency, 1))
    edges = np.stack([perm[rows], perm[cols]], axis=1) + 1
    edges = edges[rng.permutation(edges.shape[0])]
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip, ::-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        np.savetxt(fh, edges, fmt="%d")
    relabelled = np.zeros_like(adjacency)
    relabelled[np.ix_(perm, perm)] = adjacency
    return relabelled


def write_sdpa(inst, path):
    """Sparse SDPA, one PSD block, F0 = -C, F_i = A_i; 17 significant
    digits round-trip every double."""
    m, n, _ = inst.A.shape
    mats = np.concatenate([-inst.C[None], inst.A], axis=0)
    iu, ju = np.triu_indices(n)
    vals = mats[:, iu, ju]
    matno, pos = np.nonzero(vals)
    table = np.column_stack(
        [matno, np.ones_like(matno), iu[pos] + 1, ju[pos] + 1, vals[matno, pos]]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m}\n1\n{n}\n")
        fh.write(" ".join(repr(float(v)) for v in inst.b) + "\n")
        np.savetxt(fh, table, fmt=["%d", "%d", "%d", "%d", "%.17g"])


def read_sdpa(path):
    """Reader for single-block sparse SDPA files as the package writes them."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and ln.lstrip()[0] not in '*"']
    m = int(lines[0].split()[0])
    n = int(lines[2].split()[0])
    b = np.array(lines[3].replace(",", " ").split()[:m], dtype=float)
    ent = np.loadtxt(lines[4:], ndmin=2)
    mats = np.zeros((m + 1, n, n))
    k, i, j = ent[:, 0].astype(int), ent[:, 2].astype(int) - 1, ent[:, 3].astype(int) - 1
    mats[k, i, j] = ent[:, 4]
    mats[k, j, i] = ent[:, 4]
    return Instance(C=-mats[0], A=mats[1:], b=b)


def kkt_residuals(inst, z, sigma):
    """(r_p, r_d, r_gap, r_max, <C, X>) of the pair read off Z:
    X = Pi(Z), S = Pi(-Z) / sigma, y from the normal equations."""
    m, n, _ = inst.A.shape
    lam, q = np.linalg.eigh(_sym(z))
    x = (q * np.clip(lam, 0.0, None)) @ q.T
    s = (q * np.clip(-lam, 0.0, None)) @ q.T / sigma
    a2 = inst.A.reshape(m, n * n)
    y = np.linalg.solve(a2 @ a2.T, inst.b / sigma - a2 @ (x / sigma + s - inst.C).ravel())
    r_p = np.linalg.norm(a2 @ x.ravel() - inst.b) / (1.0 + np.linalg.norm(inst.b))
    r_d = np.linalg.norm((a2.T @ y).reshape(n, n) + s - inst.C) / (1.0 + np.linalg.norm(inst.C))
    obj = float(np.sum(inst.C * x))
    by = float(inst.b @ y)
    r_gap = abs(obj - by) / (1.0 + abs(obj) + abs(by))
    return float(r_p), float(r_d), float(r_gap), float(max(r_p, r_d, r_gap)), obj
