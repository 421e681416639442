"""Independent discretized verification of the constrained Jacobi eigenproblem.

Piecewise-linear Galerkin on a uniform grid: stiffness K for int f' phi',
consistent tridiagonal mass M for int f phi, Robin terms -sigma_i on the
endpoint diagonal of the quadratic form, curvature term -kappa^2 M.  The
zero-mean constraint int f = 0 is enforced exactly by constrained
shift-invert Lanczos on the pencil (A, M), whose mass is positive definite:
every inverse solve goes through one factored bordered matrix
[[A - shift*M, w], [w^T, 0]], w = M 1, and lands in the constraint space.
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
    h = L / n if periodic else L / (n - 1)
    grid = np.arange(n) * h if periodic else np.linspace(0.0, L, n)
    k_main = np.full(n, 2.0 / h)
    m_main = np.full(n, 2.0 * h / 3.0)
    if not periodic:
        k_main[0] = k_main[-1] = 1.0 / h
        m_main[0] = m_main[-1] = h / 3.0
    # periodic grids add the wrap entries at offsets -(n-1) and n-1
    wrap = [-(n - 1), n - 1] if periodic else []

    def assemble(main, off):
        band = np.full(n - 1, off)
        return sp.diags([band, main, band] + [band[:1]] * len(wrap), [-1, 0, 1] + wrap,
                        shape=(n, n), format="csr")

    K, M = assemble(k_main, -1.0 / h), assemble(m_main, h / 6.0)
    return DiscreteOperator(grid, K, M, arc.kappa ** 2,
                            (arc.sigma1, arc.sigma2), periodic)


def _spectral_lower_bound(op: DiscreteOperator) -> float:
    """Rigorous-ish lower bound for the constrained spectrum, used as the
    shift of the shift-invert solve.  Derived from the endpoint trace bound
    u(0)^2 + u(L)^2 <= eps^2 |u'|^2 + (1/eps^2 + 2/L)|u|^2 at
    eps^2 = 1/(2 sigma_max)."""
    kap_sq = op.curvature_term
    s_max = 0.0 if op.periodic else max(op.boundary_terms)
    if s_max == 0.0:
        return -kap_sq - 1.0
    L = float(op.grid[-1] - op.grid[0])
    return -kap_sq - s_max * (2.0 * s_max + 2.0 / L) - 1.0


def constrained_eigenpairs(op: DiscreteOperator, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of A f = mu M f subject to 1^T M f = 0.

    Constrained shift-invert Lanczos on the pencil (A, M) at a shift below
    the spectrum.  The solve of the bordered matrix [[A - shift*M, w],
    [w^T, 0]], w = M 1, with a zero appended and the multiplier dropped,
    maps every right side into the constraint space w^T f = 0, so the one
    excluded direction has inverse-eigenvalue 0 and is never returned.
    Returns eigenvalues ascending and M-normalized eigenvectors as columns,
    each signed so that its largest-magnitude entry is positive.
    """
    n = op.n
    if not (1 <= k <= n - 2):
        raise ValueError(f"k must be in [1, {n - 2}], got {k}")
    a, m = op.form_matrix(), op.mass
    w = m @ np.ones(n)
    shift = _spectral_lower_bound(op)
    lu = spla.splu(sp.bmat([[a - shift * m, w[:, None]], [w[None, :], None]],
                           format="csc"))
    opinv = spla.LinearOperator((n, n), dtype=float,
                                matvec=lambda b: lu.solve(np.append(b, 0.0))[:n])
    # fixed generic start vector: deterministic runs, and no accidental
    # orthogonality to symmetric/antisymmetric eigenvectors
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(a, k=k, M=m, sigma=shift, which="LM", tol=0.0,
                                v0=v0, OPinv=opinv)
    except spla.ArpackError as exc:
        raise RuntimeError(f"constrained eigensolve failed (n={n}, k={k}, "
                           f"shift={shift:.3g}): {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, m @ vecs))
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
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
                         n_trials: int, n_terms: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """n_trials random truncated trigonometric series and their derivatives
    on the grid, one trial per row."""
    coeffs = rng.uniform(-1.0, 1.0, size=(n_trials, n_terms, 2))
    w = np.arange(1, n_terms + 1) * math.pi / L
    cos, sin = np.cos(np.outer(w, grid)), np.sin(np.outer(w, grid))
    a, b = coeffs[..., 0], coeffs[..., 1]
    return a @ cos + b @ sin, (b * w) @ cos - (a * w) @ sin


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
    samples, _ = _random_trig_samples(rng, op.grid, arc.length, n_trials)
    for trial, f in enumerate(samples):
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
    for trial, (u, du) in enumerate(zip(*_random_trig_samples(rng, grid, L, n_trials))):
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
