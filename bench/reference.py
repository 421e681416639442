"""Reference answers computed without partstab.

The constrained eigenproblem of an arc (curvature kappa, length L, boundary
curvatures sigma1, sigma2) is solved here by a Rayleigh-Ritz method in a
Legendre basis:

    f(s) = sum_{j>=1} c_j P_j(2s/L - 1)

Dropping P_0 makes int f = 0 exact, the mass matrix is diagonal
(L/(2j+1)), and the stiffness has the closed form
int P_i' P_j' dt = m(m+1), m = min(i, j), when i+j is even (0 otherwise).
The eigenfunctions are analytic, so the Ritz values converge geometrically;
each answer is computed at two degrees and the difference is its error
bound.  Everything else here is closed-form property checks.
"""

from __future__ import annotations

import math

import numpy as np

DEGREES = (40, 56)


def _ritz_values(kappa: float, L: float, s1: float, s2: float, n: int) -> np.ndarray:
    j = np.arange(1, n + 1)
    m = np.minimum.outer(j, j)
    stiff = np.where((j[:, None] + j[None, :]) % 2 == 0, m * (m + 1.0), 0.0) * (2.0 / L)
    mass = L / (2.0 * j + 1.0)
    left = np.where(j % 2 == 0, 1.0, -1.0)        # P_j(-1)
    a = stiff - s1 * np.outer(left, left) - s2 * np.ones((n, n))
    a[np.diag_indices(n)] -= kappa * kappa * mass
    scale = 1.0 / np.sqrt(mass)
    return np.linalg.eigvalsh(a * np.outer(scale, scale))


def eigenvalue_scale(kappa: float, L: float, s1: float, s2: float) -> float:
    """Natural size of the eigenvalues of one arc, for relative tolerances."""
    return (1.0 + kappa * kappa * L * L + s1 * L + s2 * L) / (L * L)


def reference_eigenvalues(kappa: float, L: float, s1: float, s2: float,
                          k: int = 1) -> tuple[np.ndarray, float]:
    """The k smallest constrained eigenvalues and their error bound."""
    lo, hi = (_ritz_values(kappa, L, s1, s2, n)[:k] for n in DEGREES)
    err = float(np.max(np.abs(lo - hi)))
    bound = 1e-9 * eigenvalue_scale(kappa, L, s1, s2) * (1.0 + k * k)
    if err > bound:
        raise RuntimeError(
            f"reference not converged for (kappa, L, sigma) = ({kappa}, {L}, {s1}, {s2}): "
            f"change {err:.3g} between degrees {DEGREES}")
    return hi, bound


def flat_wall_eigenvalues(kappa: float, L: float, k: int) -> np.ndarray:
    """sigma1 = sigma2 = 0: mu_n = (n pi / L)^2 - kappa^2 exactly."""
    n = np.arange(1, k + 1)
    return (n * math.pi / L) ** 2 - kappa * kappa


def expected_branch(kappa: float, L: float, s1: float, s2: float, mu1: float) -> str:
    """The decision branch partstab documents for an arc with true mu1."""
    a, b = s1 * L, s2 * L
    if a * b > 0.0:
        p, q = s1 * s2, s1 + s2
        root = math.sqrt(q * q - 3.0 * p)
        l_minus, l_plus = 2.0 * (q - root) / p, 2.0 * (q + root) / p
        if l_minus <= L <= l_plus:
            return "crit1-interval"
        if L > l_plus:
            return "crit2-threshold"
    elif abs(a + b - 3.0) < 1e-9:
        return "case3-exact"
    if mu1 < -kappa * kappa:
        return "case2-root"
    if mu1 < 0.0:
        return "case1-negative-root"
    return "spectrum-positive"


def classification(mu1: float) -> str:
    return "Unstable" if mu1 < 0.0 else ("Neutral" if mu1 == 0.0 else "Stable")


def witness_residuals(case: str, k: float, coeffs, kappa: float, L: float,
                      s1: float, s2: float) -> tuple[float, float, float]:
    """Robin residuals at both ends and the mean of a closed-form mode,
    relative to the size of the mode's terms."""
    lam, c, d = coeffs
    if case == "I":
        kl = k * L
        f0, df0 = -lam / (2 * k * k) + d, k * c
        fl = -lam / (2 * k * k) + c * math.sin(kl) + d * math.cos(kl)
        dfl = k * (c * math.cos(kl) - d * math.sin(kl))
        mean = -lam / (2 * k * k) * L + (c * (1 - math.cos(kl)) + d * math.sin(kl)) / k
        size = abs(lam) / (2 * k * k) + abs(c) + abs(d)
    elif case == "II":
        kl = k * L
        e, em = math.exp(kl), math.exp(-kl)
        f0, df0 = lam / (2 * k * k) + c + d, k * (c - d)
        fl = lam / (2 * k * k) + c * e + d * em
        dfl = k * (c * e - d * em)
        mean = lam / (2 * k * k) * L + (c * (e - 1) + d * (1 - em)) / k
        size = abs(lam) / (2 * k * k) + abs(c) * e + abs(d)
    elif case == "III":
        f0, df0 = d, c
        fl, dfl = -lam / 4 * L * L + c * L + d, -lam / 2 * L + c
        mean = -lam / 12 * L ** 3 + c * L * L / 2 + d * L
        size = abs(lam) * L * L + abs(c) * L + abs(d)
    else:
        raise ValueError(f"unknown case {case!r}")
    size = max(size, 1e-300)
    slope = max(1.0, k, s1, s2, 1.0 / L)
    return (abs(-df0 - s1 * f0) / (size * slope),
            abs(dfl - s2 * fl) / (size * slope),
            abs(mean) / (size * L))


def disconnected_delta2a(interfaces) -> float:
    """Second variation of f_i = 1/L_i on a disconnected configuration:
    -sum gamma_i / L_i^2 (kappa_i^2 L_i + sigma_i1 + sigma_i2)."""
    return -sum(g / L ** 2 * (k * k * L + s1 + s2) for g, k, L, s1, s2 in interfaces)


def oracle_error_bound(mu: float, kappa: float, L: float, s1: float, s2: float,
                       n: int) -> float:
    """Bound on the P1 Galerkin eigenvalue error at n nodes.

    Linear elements with consistent mass overestimate an eigenvalue lam of
    -f'' by about lam^2 h^2 / 12; the factor 1 covers the Robin and
    constraint terms with room to spare.
    """
    h = L / (n - 1)
    lam = abs(mu + kappa * kappa) + (s1 + s2) / L + s1 * s1 + s2 * s2 + 1.0 / (L * L)
    return lam * lam * h * h + 1e-9 * eigenvalue_scale(kappa, L, s1, s2)
