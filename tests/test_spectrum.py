import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from partstab import (NEUTRAL, STABLE, UNSTABLE, ArcInterface, case1_det,
                      case2_det, case_modes, classify,
                      crit1_interval, crit2_root, find_sign_change_roots,
                      reconstruct_eigenfunction)
from partstab.spectrum import _case2_sys_det, _coth_half_form, default_x_max

# frozen cross-checked reference values
CASE2_ROOT_S1_L4 = 3.8300160963090755   # x* of the exponential branch, sigma=1, L=4
CASE2_MU_S1_L4 = -1.916813956124163     # mu = -1 - (x*/4)^2

# one (kappa, L, sigma1, sigma2) per decision branch of classify
BRANCH_ARCS = [
    (1.0, 4.0, 1.0, 1.0),   # crit1-interval
    (1.0, 7.0, 1.0, 1.0),   # crit2-threshold
    (1.0, 1.5, 2.0, 0.0),   # case3-exact
    (0.5, 2.0, 3.0, 0.0),   # case2-root
    (1.0, 4.0, 0.0, 0.0),   # case1-negative-root
    (1.0, 2.0, 0.0, 0.0),   # spectrum-positive
]


# ---------------------------------------------------------------------------
# determinants


def test_case2_det_small_x_leading_term():
    for a, b in [(4.0, 4.0), (2.0, 7.0), (1.0, 1.0)]:
        lead = -(a * b - 4.0 * a - 4.0 * b + 12.0) / (6.0 * a * b)
        x = 1e-2
        assert case2_det(x, a, b) / x**4 == pytest.approx(lead, abs=1e-3)


def test_case2_det_matches_direct_form_at_moderate_x():
    # series and hyperbolic evaluations agree where both are accurate
    a, b = 3.0, 5.0
    s, pab = 1.0 / a + 1.0 / b, 1.0 / (a * b)
    for x in (0.249, 0.26, 0.5):
        direct = (4.0 * (1.0 + 0.5 * s * x * x) * math.cosh(x)
                  - 2.0 * (1.0 + s + pab * x * x) * x * math.sinh(x) - 4.0)
        assert case2_det(x, a, b) == pytest.approx(direct, rel=1e-6, abs=1e-12)


def test_case2_det_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        case2_det(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        case2_det(1.0, 1.0, -2.0)


def test_case2_det_vectorized():
    xs = np.array([0.1, 1.0, 3.0])
    vals = case2_det(xs, 4.0, 4.0)
    assert vals.shape == xs.shape
    assert vals[0] == pytest.approx(case2_det(0.1, 4.0, 4.0))


def test_case1_det_neumann_reduces_to_sine():
    # sigma1 = sigma2 = 0: determinant proportional to -k^3 L sin(x)
    L = 2.0
    for x in (0.5, 1.0, 2.5, 4.0):
        k = x / L
        expected = -k**3 * L * math.sin(x)
        assert case1_det(x, 1.0, L, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)


def test_case1_det_small_x_expansion():
    # -det/(sigma1*sigma2) = k^2 x^2 - (k/3)(1/s1+1/s2) x^3
    #                        + (1/12)(1 - 2k^2/(s1 s2)) x^4 + O(x^5)
    s1, s2, L = 1.0, 1.0, 1.0
    x = 1e-3
    k = x / L
    expansion = (k * k * x * x - k / 3.0 * (1.0 / s1 + 1.0 / s2) * x**3
                 + (1.0 - 2.0 * k * k / (s1 * s2)) / 12.0 * x**4)
    assert -case1_det(x, 1.0, L, s1, s2) / (s1 * s2) == pytest.approx(
        expansion, rel=1e-3)


def test_case1_det_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        case1_det(0.0, 1.0, 1.0, 1.0, 1.0)


def test_case2_sys_det_root_matches_reduced_determinant():
    # both formulations of the exponential-branch determinant share zeros
    L, s = 4.0, 1.0
    assert _case2_sys_det(CASE2_ROOT_S1_L4, L, s, s) == pytest.approx(0.0, abs=1e-12)
    assert case2_det(CASE2_ROOT_S1_L4, s * L, s * L) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# root finding


def test_find_roots_sine():
    roots = find_sign_change_roots(math.sin, 0.1, 10.0)
    assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-10)


def test_find_roots_none():
    assert find_sign_change_roots(lambda x: x * x + 1.0, 0.0, 5.0) == []


def test_find_roots_invalid_interval():
    with pytest.raises(ValueError):
        find_sign_change_roots(math.sin, 2.0, 1.0)
    with pytest.raises(ValueError):
        find_sign_change_roots(math.sin, 0.0, 1.0, n_grid=1)


def test_find_roots_vectorized_callable():
    roots = find_sign_change_roots(lambda x: case2_det(x, 4.0, 4.0), 0.5, 10.0)
    assert len(roots) == 1
    assert case2_det(roots[0], 4.0, 4.0) == pytest.approx(0.0, abs=1e-10)


def test_find_roots_exact_grid_zero_returned_once():
    # vals = [-1, 0, 1]: the zero at x = 1 is no sign change on either side
    assert find_sign_change_roots(lambda x: x - 1.0, 0.0, 2.0, n_grid=3) == [1.0]


def test_find_roots_nan_makes_no_bracket():
    # the root at 0.5 sits next to a NaN grid value and is skipped; the
    # root at 3.5 is still found
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 1.0, np.nan, (x - 0.5) * (x - 3.5))

    assert find_sign_change_roots(f, 0.0, 4.0, n_grid=5) == pytest.approx([3.5], abs=1e-12)


def test_find_roots_close_pair_is_one_root():
    # sign changes at 1 -/+ 4e-7, one in each bracket next to the grid point
    # x = 1: two refined roots less than tol apart come back as one
    roots = find_sign_change_roots(lambda x: np.abs(x - 1.0) - 4e-7, 0.0, 2.0,
                                   n_grid=3, tol=1e-6)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0 - 4e-7, abs=1e-6)


def _loop_roots(f, x_lo, x_hi, n_grid, tol):
    """The bracket scan as a plain loop over grid intervals (the reference)."""
    xs = np.linspace(x_lo, x_hi, n_grid)
    vals = np.asarray(f(xs), dtype=float)
    roots = []
    for i in range(n_grid - 1):
        lo, hi = vals[i], vals[i + 1]
        if lo == 0.0:
            roots.append(float(xs[i]))
        elif lo * hi < 0.0:
            r = brentq(f, float(xs[i]), float(xs[i + 1]), xtol=tol, rtol=1e-15)
            if abs(f(r)) <= max(tol, 1e-10) * max(1.0, abs(lo), abs(hi)):
                roots.append(float(r))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > tol + 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


@pytest.mark.parametrize("args", BRANCH_ARCS)
def test_find_roots_matches_loop_reference(args):
    kappa, L, s1, s2 = args
    x_max = default_x_max(ArcInterface(*args))
    for det in (lambda x: case1_det(x, kappa, L, s1, s2),
                lambda x: _case2_sys_det(x, L, s1, s2)):
        expected = _loop_roots(det, x_max / 4096, x_max, 4096, 1e-13)
        assert find_sign_change_roots(det, x_max / 4096, x_max, tol=1e-13) == expected


# ---------------------------------------------------------------------------
# mode enumeration


def test_flat_boundary_trig_modes():
    # sigma = 0: k_n = n pi / L, mu_n = k_n^2 - kappa^2
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    modes = case_modes(arc, "I")
    assert len(modes) >= 5
    for n, mode in enumerate(modes[:5], start=1):
        assert mode.k == pytest.approx(n * math.pi / 2.0, rel=1e-10)
        assert mode.mu == pytest.approx(n * n * math.pi**2 / 4.0 - 1.0, rel=1e-10)


def test_case2_mode_reference_value():
    arc = ArcInterface(1.0, 4.0, 1.0, 1.0)
    modes = case_modes(arc, "II")
    assert len(modes) == 1
    assert modes[0].k == pytest.approx(CASE2_ROOT_S1_L4 / 4.0, rel=1e-10)
    assert modes[0].mu == pytest.approx(CASE2_MU_S1_L4, rel=1e-10)


def test_case3_mode_fires_only_on_exact_lengths():
    on = case_modes(ArcInterface(1.0, 2.0, 1.0, 1.0), "III")
    assert len(on) == 1
    lam, c, d = on[0].coeffs
    assert on[0].mu == -1.0
    assert c == pytest.approx(-1.0 * d)  # C = -sigma1 D
    off = case_modes(ArcInterface(1.0, 3.0, 1.0, 1.0), "III")
    assert off == []


def test_case_modes_rejects_bad_tag():
    arc = ArcInterface(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        case_modes(arc, "IV")
    with pytest.raises(ValueError):
        case_modes(arc, "I", x_max=-1.0)


# ---------------------------------------------------------------------------
# eigenfunction reconstruction


def test_reconstruct_flat_fundamental_mode():
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    mode = case_modes(arc, "I")[0]
    s = np.linspace(0.0, 2.0, 501)
    f = reconstruct_eigenfunction(mode, arc, 501)
    ref = np.cos(math.pi * s / 2.0)
    ref /= math.sqrt(np.trapezoid(ref * ref, s))
    assert np.allclose(np.abs(f), np.abs(ref), atol=1e-8)


def test_reconstruct_is_normalized_and_mean_free():
    arc = ArcInterface(1.0, 4.0, 1.0, 1.0)
    for tag in ("I", "II"):
        for mode in case_modes(arc, tag):
            f = reconstruct_eigenfunction(mode, arc, 801)
            s = np.linspace(0.0, 4.0, 801)
            assert abs(np.trapezoid(f, s)) < 1e-12
            assert np.trapezoid(f * f, s) == pytest.approx(1.0, rel=1e-12)


def test_reconstruct_satisfies_equation():
    # f'' + (mu + kappa^2) f must be constant after the zero-mean shift
    arc = ArcInterface(1.0, 4.0, 1.0, 1.0)
    mode = case_modes(arc, "II")[0]
    n = 2001
    f = reconstruct_eigenfunction(mode, arc, n)
    h = arc.length / (n - 1)
    d2f = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / (h * h)
    resid = d2f + (mode.mu + arc.kappa**2) * f[1:-1]
    assert np.std(resid) < 1e-4 * max(1.0, np.abs(resid).max())


def test_reconstruct_rejects_degenerate_input():
    arc = ArcInterface(1.0, 2.0, 1.0, 1.0)
    mode = case_modes(arc, "III")[0]
    with pytest.raises(ValueError):
        reconstruct_eigenfunction(mode, arc, 1)
    from partstab import SpectralMode
    zero = SpectralMode("III", 0.0, -1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        reconstruct_eigenfunction(zero, arc, 100)


# ---------------------------------------------------------------------------
# closed-form criteria


def test_crit1_interval_values():
    assert crit1_interval(1.0, 1.0) == pytest.approx((2.0, 6.0), abs=1e-12)
    assert crit1_interval(0.0, 1.0) is None


# The Case III lengths solve sigma1*sigma2*L^2 - 4(sigma1+sigma2)L + 12 = 0;
# they are the ends of the crit1 interval and the lengths where the
# polynomial mode mu = -1 exists.


def test_case3_lengths_symmetric():
    # sigma1 = sigma2 = 1: L^2 - 8L + 12 = 0 -> L = 2, 6
    assert crit1_interval(1.0, 1.0) == pytest.approx((2.0, 6.0), abs=1e-12)
    for length in (2.0, 6.0):
        assert len(case_modes(ArcInterface(1.0, length, 1.0, 1.0), "III")) == 1


def test_case3_lengths_asymmetric():
    # sigma = (3, 1): 3L^2 - 16L + 12 = 0 -> L = 2(4 +- sqrt(7))/3
    lo, hi = crit1_interval(3.0, 1.0)
    assert lo == pytest.approx(2.0 * (4.0 - math.sqrt(7.0)) / 3.0, rel=1e-14)
    assert hi == pytest.approx(2.0 * (4.0 + math.sqrt(7.0)) / 3.0, rel=1e-14)
    for length in (lo, hi):
        assert len(case_modes(ArcInterface(1.0, length, 3.0, 1.0), "III")) == 1


def test_case3_lengths_degenerate():
    # one flat side: the length equation is linear, 4*sigma*L = 12
    flat = case_modes(ArcInterface(1.0, 1.5, 2.0, 0.0), "III")
    assert len(flat) == 1 and flat[0].mu == -1.0
    assert case_modes(ArcInterface(1.0, 1.4, 2.0, 0.0), "III") == []
    # both sides flat: no polynomial mode at any length
    assert case_modes(ArcInterface(1.0, 1.5, 0.0, 0.0), "III") == []


def test_crit2_root_existence_threshold():
    # root exists precisely for c > 12
    assert crit2_root(6.0) is None
    assert crit2_root(12.0) is None
    x14 = crit2_root(14.0)
    assert x14 is not None
    assert _coth_half_form(x14, 14.0) == pytest.approx(0.0, abs=1e-10)
    # and it is also a zero of the exponential-branch determinant at a=b=7
    assert case2_det(x14, 7.0, 7.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        crit2_root(0.0)


def test_crit2_root_grows_with_c():
    roots = [crit2_root(c) for c in (13.0, 16.0, 25.0, 100.0)]
    assert all(r is not None for r in roots)
    assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("L,expected,evidence", [
    (0.5, STABLE, "spectrum-positive"),
    (1.0, STABLE, "spectrum-positive"),
    (2.0, UNSTABLE, "crit1-interval"),
    (4.0, UNSTABLE, "crit1-interval"),
    (6.0, UNSTABLE, "crit1-interval"),
    (7.0, UNSTABLE, "crit2-threshold"),
])
def test_classify_unit_sigma_sweep(L, expected, evidence):
    verdict = classify(ArcInterface(1.0, L, 1.0, 1.0))
    assert verdict.classification == expected
    assert verdict.evidence == evidence


@pytest.mark.parametrize("args,mu1", [
    # frozen from a Legendre Rayleigh-Ritz reference; the oracle agrees
    ((1.0, 7.0, 1.0, 1.0), -1.99631186),
    ((1.0 / 12.0, 12.0, 0.5, 3.0), -8.50261667),
    ((1.0, 200.0, 1.0, 1.0), -2.0),
])
def test_classify_crit2_mu1_is_smallest_mode(args, mu1):
    # beyond L+ the threshold only names the evidence: mu1 is the largest
    # Case II root, not the root of the threshold equation
    arc = ArcInterface(*args)
    verdict = classify(arc)
    assert verdict.classification == UNSTABLE
    assert verdict.evidence == "crit2-threshold"
    assert verdict.mu1 == pytest.approx(mu1, rel=1e-8)
    assert verdict.witness.mu == verdict.mu1
    reconstruct_eigenfunction(verdict.witness, arc, 2001)  # Robin check


def test_classify_case2_root_past_exp_overflow():
    # the Case II window reaches x = 3200 and the root sits at x ~ 799, past
    # the e^x overflow; frozen after an oracle check at n=40001 (-0.99747)
    verdict = classify(ArcInterface(0.001, 800.0, 0.0, 1.0))
    assert verdict.classification == UNSTABLE
    assert verdict.mu1 == pytest.approx(-0.9974994, rel=1e-7)


@pytest.mark.parametrize("args", BRANCH_ARCS)
@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_classify_scaling_invariance(args, t):
    # (kappa, L, sigma) -> (kappa/t, t*L, sigma/t) keeps (a, b, kL), so
    # mu1 -> mu1/t^2 with the same decision path
    kappa, L, s1, s2 = args
    base = classify(ArcInterface(*args))
    scaled = classify(ArcInterface(kappa / t, t * L, s1 / t, s2 / t))
    assert scaled.evidence == base.evidence
    assert scaled.classification == base.classification
    assert scaled.mu1 * t * t == pytest.approx(base.mu1, rel=1e-12)


@pytest.mark.parametrize("args", BRANCH_ARCS)
def test_classify_lowest_root_matches_full_enumeration(args):
    # classify refines one root per branch; it must pick the mode that the
    # full enumeration ranks lowest, bit for bit
    arc = ArcInterface(*args)
    verdict = classify(arc)
    lowest = min(case_modes(arc, verdict.witness.case_tag), key=lambda m: m.mu)
    assert verdict.witness == lowest
    assert verdict.mu1 == lowest.mu


def test_classify_flat_boundary_stable():
    verdict = classify(ArcInterface(1.0, 2.0, 0.0, 0.0))
    assert verdict.classification == STABLE
    assert verdict.mu1 == pytest.approx(math.pi**2 / 4.0 - 1.0, rel=1e-10)


def test_classify_neutral_at_flat_threshold():
    # kappa L = pi on flat walls: mu1 = 0 exactly
    verdict = classify(ArcInterface(math.pi / 2.0, 2.0, 0.0, 0.0))
    assert verdict.classification == NEUTRAL
    assert abs(verdict.mu1) < 1e-8


def test_classify_unstable_mode_is_witnessed():
    verdict = classify(ArcInterface(1.0, 4.0, 1.0, 1.0))
    assert verdict.classification == UNSTABLE
    assert verdict.witness is not None
    assert verdict.witness.case_tag == "II"
    assert verdict.mu1 == pytest.approx(CASE2_MU_S1_L4, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.05, 3.0), L=st.floats(0.1, 10.0))
def test_flat_boundary_stable_below_pi(x, L):
    # kappa L < pi on flat walls is always stable
    verdict = classify(ArcInterface(x / L, L, 0.0, 0.0))
    assert verdict.classification == STABLE


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 10.0), b=st.floats(0.5, 10.0))
def test_case2_det_taylor_anchor_property(a, b):
    lead = -(a * b - 4.0 * a - 4.0 * b + 12.0) / (6.0 * a * b)
    x = 1e-2
    assert abs(case2_det(x, a, b) / x**4 - lead) <= 1e-3
