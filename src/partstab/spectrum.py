"""Analytic spectrum of the constrained Jacobi eigenproblem on a planar arc.

On an arc of length L the eigenproblem f'' + (mu + kappa^2) f = -lambda/2
with Robin conditions -f'(0) = sigma1 f(0), f'(L) = sigma2 f(L) and the
volume constraint int f = 0 splits into three branches by the sign of
mu + kappa^2:

    Case I    mu > -kappa^2   trigonometric  f = -lam/(2k^2) + C sin(ks) + D cos(ks)
    Case II   mu < -kappa^2   exponential    f =  lam/(2k^2) + C e^{ks} + D e^{-ks}
    Case III  mu = -kappa^2   polynomial     f = -(lam/4) s^2 + C s + D

Each branch yields a homogeneous 3x3 linear system in (lam, C, D); modes
exist where its determinant vanishes.  Boundary rows are multiplied through
by sigma_i so sigma_i = 0 degenerates continuously to the Neumann row, the
lam column is scaled by 2k^2 to stay finite as k -> 0, and in Case II the C
column is scaled by e^{-x} to stay bounded.  One row builder per branch
serves both the determinant scan and the null vector at each root.  These
scalings change determinant values, never zero sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from scipy.optimize import brentq

from .geometry import ArcInterface

STABLE = "Stable"
NEUTRAL = "Neutral"
UNSTABLE = "Unstable"

DEFAULT_TOL = 1e-8
DEFAULT_N_GRID = 4096


@dataclass(frozen=True)
class SpectralMode:
    """One eigenpair candidate of the arc eigenproblem.

    coeffs is the (lambda, C, D) triple of the case's closed form; it spans
    the null space of the 3x3 system and is sign/scale free.  For closed
    interfaces case_tag is 'Circle' or 'Sphere' and k holds the integer index.
    """

    case_tag: str
    k: float
    mu: float
    coeffs: tuple[float, float, float]


@dataclass(frozen=True)
class StabilityVerdict:
    classification: str
    mu1: Optional[float]
    evidence: str
    witness: Optional[SpectralMode] = None
    parts: tuple = ()


def default_x_max(arc: ArcInterface) -> float:
    """Default root-scan window, scaled so the known determinant roots
    (spacing ~ pi in x = kL, pushed right by large sigma*L) all fit."""
    return max(20.0, 4.0 * arc.kappa * arc.length,
               4.0 * (arc.sigma1 + arc.sigma2) * arc.length)


def neutral_tolerance(arc: ArcInterface, tol: float = DEFAULT_TOL) -> float:
    return tol * max(1.0, arc.kappa ** 2)


# ---------------------------------------------------------------------------
# determinants


def case2_det(x, a: float, b: float):
    """Case II solvability determinant in the dimensionless variables
    x = kL, a = sigma1*L, b = sigma2*L:

        D(x) = 4[1 + (1/a + 1/b) x^2 / 2] cosh x
               - 2[1 + 1/a + 1/b + x^2/(ab)] x sinh x - 4

    Evaluated by Taylor series for small x: the leading term is
    -(ab - 4a - 4b + 12)/(6ab) x^4 and the hyperbolic form cancels
    catastrophically there.  Accepts scalars or arrays.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    s = 1.0 / a + 1.0 / b
    pab = 1.0 / (a * b)
    c4 = -1.0 / 6.0 + 2.0 / 3.0 * s - 2.0 * pab
    c6 = -1.0 / 90.0 + s / 15.0 - pab / 3.0
    c8 = -1.0 / 3360.0 + s / 420.0 - pab / 60.0
    x2 = x * x
    series = x2 * x2 * (c4 + x2 * (c6 + x2 * c8))
    direct = (4.0 * (1.0 + 0.5 * s * x2) * np.cosh(x)
              - 2.0 * (1.0 + s + pab * x2) * x * np.sinh(x) - 4.0)
    out = np.where(np.abs(x) < 0.25, series, direct)
    return float(out) if out.ndim == 0 else out


def _det3(m) -> np.ndarray:
    """Vectorized determinant of a 3x3 matrix given as nested rows of arrays."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _case1_rows(x: np.ndarray, L: float, sigma1: float, sigma2: float) -> list:
    """Rows of the Case I system in (lam/(2k^2), C, D) at x = kL."""
    k = x / L
    sx, cx = np.sin(x), np.cos(x)
    return [[-sigma1, k, sigma1],
            [-sigma2, sigma2 * sx - k * cx, sigma2 * cx + k * sx],
            [-k * L, 1.0 - cx, sx]]


def _case2_rows(x: np.ndarray, L: float, sigma1: float, sigma2: float) -> list:
    """Rows of the Case II system in (lam/(2k^2), C', D) at x = kL.  Only the
    C column is scaled (C = C' e^{-x}): entries stay bounded and no row
    underflows to zero."""
    k = x / L
    ex = np.exp(-x)
    return [[sigma1, (sigma1 + k) * ex, sigma1 - k],
            [sigma2, sigma2 - k, (sigma2 + k) * ex],
            [k * L, 1.0 - ex, 1.0 - ex]]


def case1_det(x, kappa: float, L: float, sigma1: float, sigma2: float):
    """Case I solvability determinant at x = kL (so k = x/L; mu = k^2 - kappa^2).

    Determinant of the sigma-multiplied system in (lam, C, D) with the lam
    column scaled by 2k^2: finite for any sigma_i >= 0 and proportional to
    -k^3 L sin(x) when sigma1 = sigma2 = 0.  kappa does not enter the zero
    set; it is kept in the signature because it fixes mu for each root.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x must be positive (k = x/L > 0)")
    out = _det3(_case1_rows(x, L, sigma1, sigma2))
    return float(out) if out.ndim == 0 else out


def _case2_sys_det(x, L: float, sigma1: float, sigma2: float):
    """Case II system determinant, valid for any sigma_i >= 0 and proportional
    to case2_det where both sigmas are positive."""
    out = _det3(_case2_rows(np.asarray(x, dtype=float), L, sigma1, sigma2))
    return float(out) if out.ndim == 0 else out


def _mode(case_tag: str, x: float, arc: ArcInterface) -> SpectralMode:
    """The Case I or II mode at a determinant root x = kL: the unit null
    vector of the scaled rows, mapped back to raw (lambda, C, D).  A Case II
    vector is renormalized after C = C' e^{-x} and signed so that its
    largest-magnitude component is positive."""
    k, kap = x / arc.length, arc.kappa
    if case_tag == "I":
        rows, mu = _case1_rows, k * k - kap * kap
    else:
        rows, mu = _case2_rows, -kap * kap - k * k
    _, _, vt = np.linalg.svd(np.array(rows(np.asarray(x), arc.length, arc.sigma1, arc.sigma2)))
    v = vt[-1]
    if case_tag == "II":
        v = v * (1.0, math.exp(-x), 1.0)
        v /= np.linalg.norm(v)
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
    lam = 2.0 * k * k * v[0]
    return SpectralMode(case_tag, k, mu, (float(lam), float(v[1]), float(v[2])))


# ---------------------------------------------------------------------------
# root finding


def _root_stream(f: Callable[[float], float], x_lo: float, x_hi: float,
                 n_grid: int, tol: float, descending: bool = False) -> Iterator[float]:
    """Validated roots of f, refined lazily in ascending x (descending on request)."""
    if not (x_lo < x_hi):
        raise ValueError(f"need x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if n_grid < 2:
        raise ValueError(f"need n_grid >= 2, got {n_grid}")
    xs = np.linspace(x_lo, x_hi, n_grid)
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except Exception:
        vals = np.array([f(float(x)) for x in xs], dtype=float)
    lo, hi = vals[:-1], vals[1:]
    # an exact zero on a grid point, or a sign change; NaN makes neither
    brackets = np.nonzero((lo == 0.0) | (lo * hi < 0.0))[0]
    for i in brackets[::-1] if descending else brackets:
        if lo[i] == 0.0:
            yield float(xs[i])
            continue
        r = brentq(f, float(xs[i]), float(xs[i + 1]), xtol=tol, rtol=1e-15)
        if abs(f(r)) <= max(tol, 1e-10) * max(1.0, abs(lo[i]), abs(hi[i])):
            yield float(r)


def find_sign_change_roots(f: Callable[[float], float], x_lo: float, x_hi: float,
                           n_grid: int = DEFAULT_N_GRID,
                           tol: float = 1e-12) -> list[float]:
    """Roots of f located by a sign-change scan plus Brent refinement.

    Scans n_grid points of [x_lo, x_hi]; roots closer together than the grid
    spacing (or touching roots without sign change) may be missed.  Each
    returned root r satisfies |f(r)| <= tol * scale with scale taken from
    the bracketing values.  Every bracket is refined; classify refines only
    the lowest-mu root of each branch.
    """
    out: list[float] = []
    # drop duplicates from touching brackets
    for r in sorted(_root_stream(f, x_lo, x_hi, n_grid, tol)):
        if not out or r - out[-1] > tol + 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# mode enumeration


def _scan_window(arc: ArcInterface, case_tag: str, x_max: Optional[float], n_grid: int) -> tuple:
    """Determinant of the Case I or II branch and its scan window [x_lo, x_max]."""
    x_max = default_x_max(arc) if x_max is None else x_max
    if x_max <= 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    # small-x cutoff: the determinants vanish like x^4 at 0, so start the
    # scan above the floating-point noise floor
    x_lo = max(1e-3, x_max / n_grid)
    rows = _case1_rows if case_tag == "I" else _case2_rows
    det = lambda x: _det3(rows(np.asarray(x, dtype=float), arc.length, arc.sigma1, arc.sigma2))
    return det, x_lo, x_max


def case_modes(arc: ArcInterface, case_tag: str, x_max: Optional[float] = None,
               n_grid: int = DEFAULT_N_GRID, tol: float = DEFAULT_TOL) -> list[SpectralMode]:
    """All modes of one case branch found on the scan window (0, x_max]."""
    if case_tag not in ("I", "II", "III"):
        raise ValueError(f"case_tag must be 'I', 'II' or 'III', got {case_tag!r}")
    det, x_lo, x_max = _scan_window(arc, case_tag, x_max, n_grid)
    if case_tag == "III":
        L, kap, s1, s2 = arc.length, arc.kappa, arc.sigma1, arc.sigma2
        resid = s1 * s2 * L * L - 4.0 * (s1 + s2) * L + 12.0
        if abs(resid) > tol * (1.0 + s1 * s2 * L * L):
            return []
        d = 1.0
        c = -s1 * d
        lam = 6.0 * (L * c + 2.0 * d) / (L * L)
        return [SpectralMode("III", 0.0, -kap * kap, (lam, c, d))]

    return [_mode(case_tag, x, arc)
            for x in find_sign_change_roots(det, x_lo, x_max, n_grid=n_grid, tol=1e-13)]


def reconstruct_eigenfunction(mode: SpectralMode, arc: ArcInterface,
                              n_points: int, tol: float = 1e-6) -> np.ndarray:
    """Sample the closed-form eigenfunction on a uniform grid.

    The samples are projected to exact (trapezoid) zero mean and normalized
    to unit trapezoid L2 norm.  Raises if the closed form fails the Robin
    boundary conditions beyond tol, which would indicate a bogus mode.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    lam, c, d = mode.coeffs
    if lam == 0.0 and c == 0.0 and d == 0.0:
        raise ValueError("mode has a zero coefficient vector")
    L, k = arc.length, mode.k
    s = np.linspace(0.0, L, n_points)

    if mode.case_tag == "I":
        f = -lam / (2.0 * k * k) + c * np.sin(k * s) + d * np.cos(k * s)
        df0, dfL = k * c, k * (c * math.cos(k * L) - d * math.sin(k * L))
    elif mode.case_tag == "II":
        f = lam / (2.0 * k * k) + c * np.exp(k * s) + d * np.exp(-k * s)
        df0 = k * (c - d)
        dfL = k * (c * math.exp(k * L) - d * math.exp(-k * L))
    elif mode.case_tag == "III":
        f = -lam / 4.0 * s * s + c * s + d
        df0, dfL = c, -lam * L / 2.0 + c
    else:
        raise ValueError(f"cannot reconstruct case {mode.case_tag!r}")
    f0, fL = float(f[0]), float(f[-1])

    scale = max(abs(f).max(), 1e-300)
    bc0 = abs(-df0 - arc.sigma1 * f0) / scale
    bcL = abs(dfL - arc.sigma2 * fL) / scale
    if max(bc0, bcL) > tol * max(1.0, arc.sigma1, arc.sigma2, k):
        raise AssertionError(
            f"Robin residuals ({bc0:.3g}, {bcL:.3g}) exceed tolerance: "
            "coefficients do not solve the boundary system")

    f = f - np.trapezoid(f, s) / L
    norm = math.sqrt(np.trapezoid(f * f, s))
    if norm == 0.0:
        raise ValueError("eigenfunction vanishes identically")
    return f / norm


# ---------------------------------------------------------------------------
# closed-form criteria and classification


def crit1_interval(sigma1: float, sigma2: float) -> Optional[tuple[float, float]]:
    """Instability interval [L-, L+] of interface lengths; None when
    sigma1*sigma2 = 0 (the interval degenerates, L+ -> infinity)."""
    p = sigma1 * sigma2
    if p == 0.0:
        return None
    q = sigma1 + sigma2
    root = math.sqrt(q * q - 3.0 * p)  # = sqrt(sigma1^2 + sigma2^2 - sigma1*sigma2)
    return (2.0 * (q - root) / p, 2.0 * (q + root) / p)


def _coth_half_form(x, c: float):
    """(x/2) coth(x/2) - 1 - x^2/c, series-stabilized near 0."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = (1.0 / 12.0 - 1.0 / c) * x2 - x2 * x2 / 720.0 + x2 * x2 * x2 / 30240.0
    with np.errstate(over="ignore", invalid="ignore"):
        direct = 0.5 * x * (1.0 + 2.0 / np.expm1(x)) - 1.0 - x2 / c
    out = np.where(np.abs(x) < 0.5, series, direct)
    return float(out) if out.ndim == 0 else out


def crit2_root(c: float, x_max: float = 50.0, n_grid: int = DEFAULT_N_GRID) -> Optional[float]:
    """Positive root of (x/2)(e^x+1)/(e^x-1) - 1 - x^2/c; exists for c > 12.
    A documented criterion and cross-check only: classify takes no mu1 from it."""
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    roots = find_sign_change_roots(lambda x: _coth_half_form(x, c),
                                   1e-6, x_max, n_grid=n_grid, tol=1e-13)
    return roots[0] if roots else None


def _lowest_mode(arc: ArcInterface, case_tag: str, x_max: Optional[float],
                 n_grid: int) -> Optional[SpectralMode]:
    """The smallest-mu Case I or II mode: mu grows with x in Case I and falls
    in Case II, so only the first root scanned from that end is refined."""
    det, x_lo, x_max = _scan_window(arc, case_tag, x_max, n_grid)
    x = next(_root_stream(det, x_lo, x_max, n_grid, 1e-13, descending=case_tag == "II"), None)
    return None if x is None else _mode(case_tag, x, arc)


def classify(arc: ArcInterface, tol: float = DEFAULT_TOL,
             x_max: Optional[float] = None,
             n_grid: int = DEFAULT_N_GRID) -> StabilityVerdict:
    """Decide linear stability of a two-phase arc interface.

    Decision order: the closed-form length criteria (instability interval,
    then the large-interface criterion), then exact Case III detection,
    then the Case II scan, and finally the Case I spectrum whose smallest
    eigenvalue settles Stable/Neutral/Unstable.  The length criteria only
    choose the evidence: mu1 and the witness always come from the smallest
    Case II mode, or the Case III mode when there is none.  Each branch
    refines and builds a mode for its lowest root only (see _lowest_mode).
    """
    modes3 = case_modes(arc, "III", x_max, n_grid, tol)
    interval = crit1_interval(arc.sigma1, arc.sigma2)
    if interval is not None and arc.length >= interval[0]:
        witness = _lowest_mode(arc, "II", x_max, n_grid) or (modes3[0] if modes3 else None)
        evidence = "crit1-interval" if arc.length <= interval[1] else "crit2-threshold"
        return StabilityVerdict(UNSTABLE, witness.mu if witness else None, evidence, witness)

    if modes3:
        return StabilityVerdict(UNSTABLE, modes3[0].mu, "case3-exact", modes3[0])

    worst = _lowest_mode(arc, "II", x_max, n_grid)
    if worst is not None:
        return StabilityVerdict(UNSTABLE, worst.mu, "case2-root", worst)

    lowest = _lowest_mode(arc, "I", x_max, n_grid)
    if lowest is None:
        # no Case I root on the window: nothing below the scan resolution,
        # treat as stable with unknown mu1
        return StabilityVerdict(STABLE, None, "spectrum-positive", None)
    ntol = neutral_tolerance(arc, tol)
    if lowest.mu < -ntol:
        return StabilityVerdict(UNSTABLE, lowest.mu, "case1-negative-root", lowest)
    if abs(lowest.mu) <= ntol:
        return StabilityVerdict(NEUTRAL, lowest.mu, "case1-negative-root", lowest)
    return StabilityVerdict(STABLE, lowest.mu, "spectrum-positive", lowest)
