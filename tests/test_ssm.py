"""SSM kernels: ZOH discretization values, scan properties, ODE agreement."""

import math

import numpy as np
import pytest

from mambavla import ssm


def scalar_system(A=-1.0, B=0.5, delta=0.1):
    return (np.array([[A]]), np.array([B]), np.array([delta]))


# ---------------------------------------------------------------------------
# discretization


def test_zoh_frozen_scalar_example():
    A, B, delta = scalar_system(A=-1.0, B=0.5, delta=0.1)
    Abar, Bbar = ssm.discretize_zoh(A, B, delta)
    assert abs(Abar[0, 0] - 0.9048374180359595) < 1e-15
    assert abs(Bbar[0, 0] - 0.0475812909820202) < 1e-15


def test_zoh_matches_closed_form_random_scalars():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a = -10.0 ** rng.uniform(-3, 1)
        b = rng.uniform(-2, 2)
        dt = 10.0 ** rng.uniform(-3, 0)
        Abar, Bbar = ssm.discretize_zoh(*scalar_system(a, b, dt))
        # math.expm1 keeps the reference well-conditioned at small |dt*a|
        ref_a = math.exp(dt * a)
        ref_b = math.expm1(dt * a) / (dt * a) * dt * b
        worst = max(worst,
                    abs(Abar[0, 0] - ref_a) / abs(ref_a),
                    abs(Bbar[0, 0] - ref_b) / (abs(ref_b) + 1e-300))
    assert worst <= 1e-12


def test_zoh_matches_naive_formula_where_conditioned():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = -10.0 ** rng.uniform(-1, 1)      # |dt*a| >= 1e-2: naive form is fine
        b = rng.uniform(-2, 2)
        dt = 10.0 ** rng.uniform(-1, 0)
        _, Bbar = ssm.discretize_zoh(*scalar_system(a, b, dt))
        ref_b = (math.exp(dt * a) - 1.0) / (dt * a) * dt * b
        assert abs(Bbar[0, 0] - ref_b) <= 1e-12 * (abs(ref_b) + 1e-300)


def test_zoh_zero_A_series_branch():
    Abar, Bbar = ssm.discretize_zoh(np.array([[0.0]]), np.array([1.0]),
                                    np.array([0.1]))
    assert Abar[0, 0] == 1.0
    assert abs(Bbar[0, 0] - 0.1) < 1e-15


def test_zoh_branch_continuity_at_cutoff():
    # phi must be continuous across |delta*A| = 1e-6
    eps = 1e-12
    below = ssm._phi(np.array([ssm.ZOH_SERIES_CUTOFF * (1 - eps)]))
    above = ssm._phi(np.array([ssm.ZOH_SERIES_CUTOFF * (1 + eps)]))
    assert abs(below[0] - above[0]) <= 1e-9
    below = ssm._phi(np.array([-ssm.ZOH_SERIES_CUTOFF * (1 + eps)]))
    above = ssm._phi(np.array([-ssm.ZOH_SERIES_CUTOFF * (1 - eps)]))
    assert abs(below[0] - above[0]) <= 1e-9


def test_zoh_time_varying_shapes():
    rng = np.random.default_rng(3)
    L, D, N = 5, 4, 3
    A = -np.abs(rng.standard_normal((D, N))) - 0.1
    delta = np.abs(rng.standard_normal((L, D))) + 0.01
    B = rng.standard_normal((L, N))
    Abar, Bbar = ssm.discretize_zoh(A, B, delta)
    assert Abar.shape == (L, D, N) and Bbar.shape == (L, D, N)
    # each time slice equals the static discretization at that step
    for t in range(L):
        At, Bt = ssm.discretize_zoh(A, B[t], delta[t])
        np.testing.assert_allclose(Abar[t], At, rtol=1e-14)
        np.testing.assert_allclose(Bbar[t], Bt, rtol=1e-14)


def test_zoh_rejects_bad_shapes_and_nonfinite():
    A, B, delta = scalar_system()
    with pytest.raises(ValueError):
        ssm.discretize_zoh(A[0], B, delta)
    with pytest.raises(ValueError):
        ssm.discretize_zoh(A, np.array([1.0, 2.0]), delta)
    with pytest.raises(ValueError):
        ssm.discretize_zoh(np.array([[np.nan]]), B, delta)


# ---------------------------------------------------------------------------
# scans


def test_impulse_response_frozen():
    Abar = np.array([[0.5]])
    Bbar = np.array([[1.0]])
    C = np.array([1.0])
    y, _ = ssm.scan_sequential(Abar, Bbar, C, np.array([[1.0], [0.0], [0.0]]))
    np.testing.assert_allclose(y[:, 0], [1.0, 0.5, 0.25], rtol=1e-15)
    y, _ = ssm.scan_sequential(Abar, Bbar, C, np.ones((3, 1)))
    np.testing.assert_allclose(y[:, 0], [1.0, 1.5, 1.75], rtol=1e-15)


def _random_stable_system(rng, L, D, N, time_varying, dtype):
    Abar = rng.uniform(0.05, 0.999, size=(L, D, N) if time_varying else (D, N))
    Bbar = rng.uniform(-1.0, 1.0, size=(L, D, N) if time_varying else (D, N))
    C = rng.standard_normal((L, N) if time_varying else N)
    x = rng.standard_normal((L, D))
    return (a.astype(dtype) for a in (Abar, Bbar, C, x))


def test_scan_linearity():
    rng = np.random.default_rng(11)
    Abar, Bbar, C, _ = _random_stable_system(rng, 64, 4, 3, True, np.float64)
    x1 = rng.standard_normal((64, 4))
    x2 = rng.standard_normal((64, 4))
    al, be = 0.7, -1.3
    y1, _ = ssm.scan_sequential(Abar, Bbar, C, x1)
    y2, _ = ssm.scan_sequential(Abar, Bbar, C, x2)
    y12, _ = ssm.scan_sequential(Abar, Bbar, C, al * x1 + be * x2)
    scale = np.abs(y12).max() + 1e-30
    assert np.abs(y12 - (al * y1 + be * y2)).max() / scale <= 1e-6


def test_scan_state_carry_composes():
    # splitting a sequence and carrying h0 must equal one full scan
    rng = np.random.default_rng(5)
    Abar, Bbar, C, x = _random_stable_system(rng, 40, 3, 4, False, np.float64)
    y_full, h_full = ssm.scan_sequential(Abar, Bbar, C, x)
    y_a, h_a = ssm.scan_sequential(Abar, Bbar, C, x[:17])
    y_b, h_b = ssm.scan_sequential(Abar, Bbar, C, x[17:], h0=h_a)
    np.testing.assert_allclose(np.concatenate([y_a, y_b]), y_full, rtol=1e-12)
    np.testing.assert_allclose(h_b, h_full, rtol=1e-12)


def test_scan_stability_bound():
    rng = np.random.default_rng(13)
    for trial in range(20):
        D, N, L = 3, 4, 200
        Abar = rng.uniform(0.0, 1.0, size=(D, N))
        Bbar = rng.uniform(-2.0, 2.0, size=(D, N))
        x = rng.uniform(-1.0, 1.0, size=(L, D))
        _, _, states = ssm.scan_sequential(Abar, Bbar, np.ones(N), x,
                                           return_states=True)
        bound = N * np.abs(Bbar).max() / (1.0 - Abar.max() + 1e-9)
        assert np.abs(states).max() <= bound


def test_scan_rejects_empty_and_mismatched():
    Abar = np.array([[0.5]])
    with pytest.raises(ValueError):
        ssm.scan_sequential(Abar, Abar, np.array([1.0]), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        ssm.scan_sequential(np.zeros((3, 1, 1)), Abar, np.array([1.0]),
                            np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# continuous-time oracle


def test_ode_single_step_frozen():
    # A=-1, B=1, C=1, x=1, delta=0.1: y(delta) = 1 - e^{-0.1}
    y = ssm.continuous_ode_oracle(np.array([[-1.0]]), np.array([1.0]),
                                  np.array([1.0]), np.array([[1.0]]), 0.1)
    assert abs(y[0, 0] - (1.0 - math.exp(-0.1))) < 1e-12


def test_zoh_scan_matches_ode_oracle_50_systems():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        D = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        L = int(rng.integers(2, 9))
        A = -(10.0 ** rng.uniform(-2, 0.7, size=(D, N)))
        B = rng.uniform(-1.5, 1.5, size=N)
        C = rng.uniform(-1.5, 1.5, size=N)
        delta = float(10.0 ** rng.uniform(-2, -0.5))
        x = rng.standard_normal((L, D))
        Abar, Bbar = ssm.discretize_zoh(A, B, np.full(D, delta))
        y_disc, _ = ssm.scan_sequential(Abar, Bbar, C, x)
        y_ode = ssm.continuous_ode_oracle(A, B, C, x, delta, substeps=100)
        scale = np.abs(y_ode).max() + 1e-30
        worst = max(worst, np.abs(y_disc - y_ode).max() / scale)
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"


def test_ode_oracle_validates_args():
    A, B, _ = scalar_system()
    with pytest.raises(ValueError):
        ssm.continuous_ode_oracle(A, B, B, np.ones((2, 1)), 0.1, substeps=3)
    with pytest.raises(ValueError):
        ssm.continuous_ode_oracle(A, B, B, np.ones((2, 1)), -0.1)
