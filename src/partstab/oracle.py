"""Independent discretized verification of the constrained Jacobi eigenproblem.

Piecewise-linear Galerkin on a uniform grid: stiffness K for int f' phi',
consistent tridiagonal mass M for int f phi, Robin terms -sigma_i on the
endpoint diagonal of the quadratic form, curvature term -kappa^2 M.  The
zero-mean constraint int f = 0 is enforced exactly through a bordered
generalized eigenproblem solved by shift-invert Lanczos; the Lagrange
multiplier of the inhomogeneous right side is absorbed by the constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import ArcInterface


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled discretization of one arc (or periodic circle) problem."""

    grid: np.ndarray
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    curvature_term: float          # kappa^2, multiplies the mass matrix
    boundary_terms: tuple[float, float]
    periodic: bool

    @property
    def n(self) -> int:
        return self.grid.size

    def form_matrix(self) -> sp.csr_matrix:
        """Matrix A of the second-variation form J(f) = f^T A f."""
        a = self.stiffness - self.curvature_term * self.mass
        if not self.periodic:
            robin = np.zeros(self.n)
            robin[0], robin[-1] = self.boundary_terms
            a = a - sp.diags(robin, format="csr")
        return a.tocsr()


def discretize(arc: ArcInterface, n: int, periodic: bool = False) -> DiscreteOperator:
    """Assemble the P1 Galerkin matrices on a uniform n-node grid.

    For periodic problems the grid wraps: n distinct nodes over length L,
    element size L/n, and the boundary terms are ignored.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 grid nodes, got {n}")
    L = arc.length
    if periodic:
        h = L / n
        grid = np.arange(n) * h
        k_main = np.full(n, 2.0 / h)
        m_main = np.full(n, 2.0 * h / 3.0)
        offsets, k_off, m_off = [-1, 1, -(n - 1), n - 1], -1.0 / h, h / 6.0
        K = sp.diags([np.full(n - 1, k_off)] * 2 + [np.array([k_off])] * 2,
                     offsets, format="lil")
        M = sp.diags([np.full(n - 1, m_off)] * 2 + [np.array([m_off])] * 2,
                     offsets, format="lil")
        K.setdiag(k_main)
        M.setdiag(m_main)
        K, M = K.tocsr(), M.tocsr()
    else:
        h = L / (n - 1)
        grid = np.linspace(0.0, L, n)
        k_main = np.full(n, 2.0 / h)
        k_main[0] = k_main[-1] = 1.0 / h
        m_main = np.full(n, 2.0 * h / 3.0)
        m_main[0] = m_main[-1] = h / 3.0
        K = sp.diags([np.full(n - 1, -1.0 / h), k_main, np.full(n - 1, -1.0 / h)],
                     [-1, 0, 1], format="csr")
        M = sp.diags([np.full(n - 1, h / 6.0), m_main, np.full(n - 1, h / 6.0)],
                     [-1, 0, 1], format="csr")
    return DiscreteOperator(grid, K, M, arc.kappa ** 2,
                            (arc.sigma1, arc.sigma2), periodic)


def _spectral_lower_bound(op: DiscreteOperator) -> float:
    """Rigorous-ish lower bound for the constrained spectrum, used as the
    shift of the shift-invert solve.  Derived from the endpoint trace bound
    u(0)^2 + u(L)^2 <= eps^2 |u'|^2 + (1/eps^2 + 2/L)|u|^2 at
    eps^2 = 1/(2 sigma_max)."""
    kap_sq = op.curvature_term
    if op.periodic:
        return -kap_sq - 1.0
    s_max = max(op.boundary_terms)
    L = float(op.grid[-1] - op.grid[0])
    if s_max == 0.0:
        return -kap_sq - 1.0
    return -kap_sq - s_max * (2.0 * s_max + 2.0 / L) - 1.0


def constrained_eigenpairs(op: DiscreteOperator, k: int = 1,
                           tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of A f = mu M f subject to 1^T M f = 0.

    Solved as the bordered pencil [[A, w],[w^T, 0]] z = mu [[M, 0],[0, 0]] z
    with w = M 1 by ARPACK shift-invert at a shift below the spectrum.
    Returns eigenvalues ascending and M-normalized eigenvectors as columns.
    """
    n = op.n
    if not (1 <= k <= n - 2):
        raise ValueError(f"k must be in [1, {n - 2}], got {k}")
    a = op.form_matrix()
    m = op.mass
    w = m @ np.ones(n)
    w_sq = w @ w
    a_big = sp.bmat([[a, w[:, None]], [w[None, :], None]], format="csc")
    m_big = sp.bmat([[m, None], [None, sp.csr_matrix((1, 1))]], format="csc")
    sigma = _spectral_lower_bound(op)
    # fixed generic start vector: deterministic runs, and no accidental
    # orthogonality to symmetric/antisymmetric eigenvectors
    v0 = np.random.default_rng(0).standard_normal(n + 1)

    def solve(k_req):
        try:
            return spla.eigsh(a_big, k=k_req, M=m_big, sigma=sigma,
                              which="LM", tol=tol, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise RuntimeError(
                f"constrained eigensolve failed to converge: "
                f"{len(exc.eigenvalues)} of {k_req} eigenvalues converged "
                f"(n={n}, sigma={sigma:.3g})") from exc

    def purge(vals, vecs):
        # the singular mass border makes the pencil carry infinite
        # eigenvalues; ARPACK can leak spurious finite copies of them,
        # so keep only pairs that pass a residual check
        keep_vals, keep_vecs = [], []
        for mu, z in zip(vals, vecs.T):
            f = z[:-1]
            nrm = math.sqrt(abs(f @ (m @ f)))
            if nrm < 1e-12:
                continue
            f = f / nrm
            r = a @ f - mu * (m @ f)
            r -= w * ((w @ r) / w_sq)
            scale = max(1.0, float(np.linalg.norm(a @ f)))
            if np.linalg.norm(r) <= 1e-6 * scale and abs(w @ f) <= 1e-6:
                keep_vals.append(mu)
                keep_vecs.append(f)
        return keep_vals, keep_vecs

    keep_vals, keep_vecs = purge(*solve(min(k + 2, n - 1)))
    if len(keep_vals) < k:
        keep_vals, keep_vecs = purge(*solve(min(k + 8, n - 1)))
    if len(keep_vals) < k:
        raise RuntimeError(
            f"constrained eigensolve returned only {len(keep_vals)} "
            f"verified eigenpairs of {k} requested (n={n})")
    order = np.argsort(keep_vals)[:k]
    vals = np.array([keep_vals[j] for j in order])
    vecs = np.empty((n, k))
    for col, j in enumerate(order):
        f = keep_vecs[j]
        if f[np.argmax(np.abs(f))] < 0:
            f = -f
        vecs[:, col] = f
    return vals, vecs


def smallest_constrained_eigenpair(op: DiscreteOperator) -> tuple[float, np.ndarray]:
    vals, vecs = constrained_eigenpairs(op, k=1)
    return float(vals[0]), vecs[:, 0]


def J_evaluate(arc: ArcInterface, f: np.ndarray, periodic: bool = False) -> float:
    """Second-variation form J(f) = int(f'^2 - kappa^2 f^2) - sigma1 f(0)^2
    - sigma2 f(L)^2 through the assembled quadratic form."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise ValueError(f"f must be a 1-d sample vector with >= 3 points, got shape {f.shape}")
    op = discretize(arc, f.size, periodic=periodic)
    return float(f @ (op.form_matrix() @ f))


def _random_trig_samples(rng: np.random.Generator, grid: np.ndarray, L: float,
                         n_terms: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Random truncated trigonometric series and its derivative on the grid."""
    u = np.zeros_like(grid)
    du = np.zeros_like(grid)
    coeffs = rng.uniform(-1.0, 1.0, size=(n_terms, 2))
    for j in range(1, n_terms + 1):
        w = j * math.pi / L
        aj, bj = coeffs[j - 1]
        u += aj * np.cos(w * grid) + bj * np.sin(w * grid)
        du += -aj * w * np.sin(w * grid) + bj * w * np.cos(w * grid)
    return u, du


def rayleigh_bound_check(arc: ArcInterface, n_trials: int, seed: int = 0,
                         n: int = 2001, tol: float = 1e-6) -> dict:
    """Check J(f) >= mu1 for random admissible variations.

    Trials are random trigonometric samples projected to discrete zero mean
    and M-normalized, so the discrete Rayleigh bound applies exactly.
    Raises AssertionError on any violation beyond tol.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    op = discretize(arc, n)
    a = op.form_matrix()
    m = op.mass
    mu1, f1 = smallest_constrained_eigenpair(op)
    ones = np.ones(n)
    w = m @ ones
    denom = ones @ w
    rng = np.random.default_rng(seed)
    worst = math.inf
    for trial in range(n_trials):
        f, _ = _random_trig_samples(rng, op.grid, arc.length)
        f = f - ones * ((w @ f) / denom)
        nrm = math.sqrt(f @ (m @ f))
        if nrm < 1e-12:
            continue
        f /= nrm
        margin = float(f @ (a @ f)) - mu1
        worst = min(worst, margin)
        if margin < -tol:
            raise AssertionError(
                f"Rayleigh bound violated at trial {trial}: J(f) - mu1 = {margin:.3e}")
    # the minimizer itself attains the bound
    attained = float(f1 @ (a @ f1)) - mu1
    return {"mu1": mu1, "n_trials": n_trials, "worst_margin": worst,
            "minimizer_margin": attained, "violations": 0}


def trace_inequality_check(arc: ArcInterface, epsilon: float, n_trials: int,
                           seed: int = 0, n: int = 4001) -> dict:
    """Verify the 1-d endpoint trace bound
    u(0)^2 + u(L)^2 <= eps^2 |u|_{H1}^2 + (1/eps^2 + 2/L) |u|_{L2}^2
    on random trigonometric trial functions."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    L = arc.length
    grid = np.linspace(0.0, L, n)
    c_eps = 1.0 / epsilon ** 2 + 2.0 / L
    rng = np.random.default_rng(seed)
    worst = math.inf
    for trial in range(n_trials):
        u, du = _random_trig_samples(rng, grid, L)
        l2 = float(np.trapezoid(u * u, grid))
        h1 = l2 + float(np.trapezoid(du * du, grid))
        lhs = u[0] ** 2 + u[-1] ** 2
        rhs = epsilon ** 2 * h1 + c_eps * l2
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-8 * max(1.0, rhs):
            raise AssertionError(
                f"trace inequality violated at trial {trial}: "
                f"lhs={lhs:.6g} rhs={rhs:.6g}")
    return {"epsilon": epsilon, "c_eps": c_eps, "n_trials": n_trials,
            "worst_margin": worst, "violations": 0}


def spectrum_compare(arc: ArcInterface, n: int, k_eigs: int,
                     x_max: float | None = None) -> dict:
    """Pair the k_eigs smallest analytic eigenvalues against the oracle.

    Both lists are sorted ascending and paired in order; a count mismatch
    (fewer analytic roots found than requested) is flagged, pointing at a
    possibly undersized scan window.
    """
    from .spectrum import case_modes

    if k_eigs < 1:
        raise ValueError(f"k_eigs must be >= 1, got {k_eigs}")
    analytic = sorted(
        m.mu for tag in ("I", "II", "III") for m in case_modes(arc, tag, x_max=x_max))
    op = discretize(arc, n)
    oracle, _ = constrained_eigenpairs(op, k=k_eigs)
    rows = []
    for i in range(min(k_eigs, len(analytic))):
        mu_a, mu_o = analytic[i], float(oracle[i])
        abs_err = abs(mu_a - mu_o)
        rows.append({"analytic": mu_a, "oracle": mu_o, "abs_err": abs_err,
                     "rel_err": abs_err / max(1e-300, abs(mu_a))})
    return {"rows": rows, "count_mismatch": len(analytic) < k_eigs,
            "n_analytic_found": len(analytic), "k_eigs": k_eigs, "grid": n}
