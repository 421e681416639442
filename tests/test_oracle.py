import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from partstab import (ArcInterface, J_evaluate, case_modes, classify,
                      constrained_eigenpairs, discretize,
                      rayleigh_bound_check, reconstruct_eigenfunction,
                      smallest_constrained_eigenpair, spectrum_compare,
                      trace_inequality_check)
from partstab.oracle import _random_trig_samples
from test_spectrum import BRANCH_ARCS

CASE2_MU_S1_L4 = -1.916813956124163


def dense_constrained_spectrum(op):
    """All constrained eigenvalues, from A and M projected onto the null
    space of w^T, w = M 1."""
    a, m = op.form_matrix().toarray(), op.mass.toarray()
    z = sla.null_space((m @ np.ones(op.n))[None, :])
    return sla.eigh(z.T @ a @ z, z.T @ m @ z, eigvals_only=True)


def test_discretize_matrix_structure():
    arc = ArcInterface(1.0, 3.0, 1.0, 2.0)
    for periodic in (False, True):
        op = discretize(arc, 101, periodic=periodic)
        K, M = op.stiffness, op.mass
        # stiffness annihilates constants, mass integrates them to L
        assert np.abs(K @ np.ones(op.n)).max() < 1e-12
        assert np.ones(op.n) @ (M @ np.ones(op.n)) == pytest.approx(3.0)
        # symmetry
        assert abs(K - K.T).max() < 1e-14
        assert abs(M - M.T).max() < 1e-14


def test_discretize_needs_three_nodes():
    with pytest.raises(ValueError):
        discretize(ArcInterface(0.0, 1.0, 0.0, 0.0), 2)


def test_form_matrix_includes_robin_terms():
    arc = ArcInterface(0.0, 1.0, 2.0, 3.0)
    op = discretize(arc, 51)
    a = op.form_matrix() - op.stiffness
    assert a[0, 0] == pytest.approx(-2.0)
    assert a[-1, -1] == pytest.approx(-3.0)


def test_neumann_laplacian_eigenvalue():
    # kappa = sigma = 0, L = 1: smallest zero-mean eigenvalue is pi^2
    op = discretize(ArcInterface(0.0, 1.0, 0.0, 0.0), 501)
    mu, f = smallest_constrained_eigenpair(op)
    assert mu == pytest.approx(math.pi**2, rel=1e-3)
    # eigenvector is M-normalized and mean free
    w = op.mass @ np.ones(op.n)
    assert f @ (op.mass @ f) == pytest.approx(1.0, rel=1e-10)
    assert abs(w @ f) < 1e-10


def test_flat_boundary_fundamental_eigenvalue():
    op = discretize(ArcInterface(1.0, 2.0, 0.0, 0.0), 2001)
    mu, _ = smallest_constrained_eigenpair(op)
    assert mu == pytest.approx(math.pi**2 / 4.0 - 1.0, rel=1e-4)


def test_unstable_arc_matches_analytic_mode():
    op = discretize(ArcInterface(1.0, 4.0, 1.0, 1.0), 2001)
    mu, _ = smallest_constrained_eigenpair(op)
    assert mu == pytest.approx(CASE2_MU_S1_L4, abs=1e-5)


def test_periodic_circle_spectrum():
    # unit circle: constrained eigenvalues {0, 0, 3, 3, 8, 8}
    arc = ArcInterface(1.0, 2.0 * math.pi, 0.0, 0.0)
    op = discretize(arc, 2001, periodic=True)
    vals, _ = constrained_eigenpairs(op, k=6)
    assert np.allclose(vals, [0.0, 0.0, 3.0, 3.0, 8.0, 8.0], atol=1e-3)


def test_eigenpair_residual_is_small():
    # A f - mu M f lies in the span of the constraint vector w = M 1
    op = discretize(ArcInterface(1.0, 4.0, 1.0, 1.0), 1001)
    vals, vecs = constrained_eigenpairs(op, k=3)
    a, m = op.form_matrix(), op.mass
    w = m @ np.ones(op.n)
    for mu, f in zip(vals, vecs.T):
        r = a @ f - mu * (m @ f)
        r -= w * ((w @ r) / (w @ w))
        assert np.linalg.norm(r) < 1e-8 * max(1.0, np.linalg.norm(a @ f))


def test_constrained_eigenpairs_k_bounds():
    op = discretize(ArcInterface(0.0, 1.0, 0.0, 0.0), 21)
    with pytest.raises(ValueError):
        constrained_eigenpairs(op, k=0)
    with pytest.raises(ValueError):
        constrained_eigenpairs(op, k=20)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [21, 201])
@pytest.mark.parametrize("args", BRANCH_ARCS + [(1.0, 2.0 * math.pi, 0.0, 0.0)])
def test_constrained_eigenpairs_match_dense_reference(args, n, periodic):
    # the k values returned are the k smallest: none missed, none spurious
    arc = ArcInterface(*args)
    op = discretize(arc, n, periodic=periodic)
    ref = dense_constrained_spectrum(op)
    tol = 1e-11 * max(1.0, (n / arc.length) ** 2)
    for k in [1, 2, 3, 4, 5] + ([n - 2] if n == 21 else []):
        vals, _ = constrained_eigenpairs(op, k=k)
        assert np.abs(vals - ref[:k]).max() <= tol


def test_constrained_eigenpairs_every_k():
    # every k that the bounds check accepts must solve, up to k = n - 2
    arc = ArcInterface(1.0, 4.0, 1.0, 1.0)
    for n in (21, 51):
        op = discretize(arc, n)
        ref = dense_constrained_spectrum(op)
        for k in range(1, n - 1):
            vals, _ = constrained_eigenpairs(op, k=k)
            assert np.abs(vals - ref[:k]).max() <= 1e-11 * (n / arc.length) ** 2


def test_stiff_robin_walls_give_galerkin_upper_bound():
    # sigma = 1e6: the shift is about -2e12 against an analytic mu1 of
    # -1e12 - 1, which P1 Galerkin can only overestimate
    op = discretize(ArcInterface(1.0, 1.0, 1e6, 1e6), 4001)
    mu, f = smallest_constrained_eigenpair(op)
    assert -1e12 - 1.0 < mu < 0.0
    assert np.all(np.isfinite(f))


def test_arpack_failure_becomes_runtime_error(monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", fail)
    with pytest.raises(RuntimeError, match="constrained eigensolve failed"):
        constrained_eigenpairs(discretize(ArcInterface(1.0, 4.0, 1.0, 1.0), 21))


def test_reversal_symmetry():
    # swapping the endpoint curvatures cannot change the spectrum
    op_a = discretize(ArcInterface(1.0, 3.0, 2.0, 0.5), 1501)
    op_b = discretize(ArcInterface(1.0, 3.0, 0.5, 2.0), 1501)
    mu_a, _ = smallest_constrained_eigenpair(op_a)
    mu_b, _ = smallest_constrained_eigenpair(op_b)
    assert mu_a == pytest.approx(mu_b, abs=1e-10)
    v_a = classify(ArcInterface(1.0, 3.0, 2.0, 0.5))
    v_b = classify(ArcInterface(1.0, 3.0, 0.5, 2.0))
    assert v_a.classification == v_b.classification
    assert v_a.mu1 == pytest.approx(v_b.mu1, rel=1e-9)


def test_J_evaluate_basics():
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    assert J_evaluate(arc, np.zeros(101)) == 0.0
    with pytest.raises(ValueError):
        J_evaluate(arc, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        J_evaluate(arc, np.zeros(2))


def test_J_evaluate_on_eigenfunction():
    arc = ArcInterface(1.0, 4.0, 1.0, 1.0)
    mode = case_modes(arc, "II")[0]
    f = reconstruct_eigenfunction(mode, arc, 4001)
    assert J_evaluate(arc, f) == pytest.approx(mode.mu, rel=1e-4)


def test_rayleigh_bound_holds():
    for arc in (ArcInterface(1.0, 2.0, 0.0, 0.0),    # stable
                ArcInterface(1.0, 4.0, 1.0, 1.0)):   # unstable
        report = rayleigh_bound_check(arc, n_trials=30, seed=1, n=1001)
        assert report["worst_margin"] >= -1e-6
        assert abs(report["minimizer_margin"]) < 1e-8
    with pytest.raises(ValueError):
        rayleigh_bound_check(arc, n_trials=0)


def test_trace_inequality_holds():
    arc = ArcInterface(0.0, 2.0, 0.0, 0.0)
    for eps in (0.3, 1.0, 3.0):
        report = trace_inequality_check(arc, eps, n_trials=50, seed=2, n=2001)
        assert report["worst_margin"] >= -1e-8
        assert report["c_eps"] == pytest.approx(1.0 / eps**2 + 1.0)
    with pytest.raises(ValueError):
        trace_inequality_check(arc, 0.0, 10)
    with pytest.raises(ValueError):
        trace_inequality_check(arc, 1.0, 0)


def test_random_trig_samples_match_per_trial_loop():
    # reference: one draw and one cos/sin sum per trial, in the RNG draw
    # order the sampler must keep
    L, grid = 3.0, np.linspace(0.0, 3.0, 301)
    u, du = _random_trig_samples(np.random.default_rng(4), grid, L, 7)
    rng = np.random.default_rng(4)
    for row_u, row_du in zip(u, du):
        ref_u, ref_du = np.zeros_like(grid), np.zeros_like(grid)
        for j, (aj, bj) in enumerate(rng.uniform(-1.0, 1.0, size=(10, 2)), start=1):
            w = j * math.pi / L
            ref_u += aj * np.cos(w * grid) + bj * np.sin(w * grid)
            ref_du += -aj * w * np.sin(w * grid) + bj * w * np.cos(w * grid)
        # ten terms of size at most 2 w_j: a few ulps of 2 * sum(w_j)
        atol = 64 * np.finfo(float).eps * 2 * sum(j * math.pi / L for j in range(1, 11))
        np.testing.assert_allclose(row_u, ref_u, rtol=0, atol=atol)
        np.testing.assert_allclose(row_du, ref_du, rtol=0, atol=atol)


def test_trace_inequality_constant_function():
    # u = 1: lhs = 2, rhs = eps^2 L + (1/eps^2 + 2/L) L, comfortably larger
    L, eps = 2.0, 1.0
    lhs = 2.0
    rhs = eps**2 * L + (1.0 / eps**2 + 2.0 / L) * L
    assert lhs < rhs


def test_spectrum_compare_flat_arc():
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    table = spectrum_compare(arc, 2001, 3)
    assert not table["count_mismatch"]
    assert len(table["rows"]) == 3
    for row in table["rows"]:
        assert row["rel_err"] <= 1e-4


def test_spectrum_compare_flags_narrow_window():
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    table = spectrum_compare(arc, 501, 5, x_max=4.0)  # only one trig root fits
    assert table["count_mismatch"]
    with pytest.raises(ValueError):
        spectrum_compare(arc, 501, 0)


def test_grid_convergence_is_second_order():
    arc = ArcInterface(1.0, 2.0, 0.0, 0.0)
    exact = math.pi**2 / 4.0 - 1.0
    errs = []
    for n in (251, 501, 1001):
        mu, _ = smallest_constrained_eigenpair(discretize(arc, n))
        errs.append(abs(mu - exact))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    for p in orders:
        assert abs(p - 2.0) < 0.2
