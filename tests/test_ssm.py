"""SSM math: ZOH discretization values, the properties of the model's
selective scan, and its agreement with the continuous-time ODE."""

import math

import numpy as np
import pytest

import mamba_reference as mr
import ssm_reference as ref
from mambavla import diffcore as dc


def scalar_system(A=-1.0, B=0.5, delta=0.1):
    return (np.array([[A]]), np.array([B]), np.array([delta]))


# ---------------------------------------------------------------------------
# discretization


def test_zoh_frozen_scalar_example():
    A, B, delta = scalar_system(A=-1.0, B=0.5, delta=0.1)
    Abar, Bbar = ref.discretize_zoh(A, B, delta)
    assert abs(Abar[0, 0] - 0.9048374180359595) < 1e-15
    assert abs(Bbar[0, 0] - 0.0475812909820202) < 1e-15


def test_zoh_matches_closed_form_random_scalars():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a = -10.0 ** rng.uniform(-3, 1)
        b = rng.uniform(-2, 2)
        dt = 10.0 ** rng.uniform(-3, 0)
        Abar, Bbar = ref.discretize_zoh(*scalar_system(a, b, dt))
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
        _, Bbar = ref.discretize_zoh(*scalar_system(a, b, dt))
        ref_b = (math.exp(dt * a) - 1.0) / (dt * a) * dt * b
        assert abs(Bbar[0, 0] - ref_b) <= 1e-12 * (abs(ref_b) + 1e-300)


def test_zoh_zero_A_series_branch():
    Abar, Bbar = ref.discretize_zoh(np.array([[0.0]]), np.array([1.0]),
                                    np.array([0.1]))
    assert Abar[0, 0] == 1.0
    assert abs(Bbar[0, 0] - 0.1) < 1e-15


def test_zoh_branch_continuity_at_cutoff():
    # phi must be continuous across |delta*A| = 1e-6
    eps = 1e-12
    below = ref._phi(np.array([ref.ZOH_SERIES_CUTOFF * (1 - eps)]))
    above = ref._phi(np.array([ref.ZOH_SERIES_CUTOFF * (1 + eps)]))
    assert abs(below[0] - above[0]) <= 1e-9
    below = ref._phi(np.array([-ref.ZOH_SERIES_CUTOFF * (1 + eps)]))
    above = ref._phi(np.array([-ref.ZOH_SERIES_CUTOFF * (1 - eps)]))
    assert abs(below[0] - above[0]) <= 1e-9


def test_zoh_time_varying_shapes():
    rng = np.random.default_rng(3)
    L, D, N = 5, 4, 3
    A = -np.abs(rng.standard_normal((D, N))) - 0.1
    delta = np.abs(rng.standard_normal((L, D))) + 0.01
    B = rng.standard_normal((L, N))
    Abar, Bbar = ref.discretize_zoh(A, B, delta)
    assert Abar.shape == (L, D, N) and Bbar.shape == (L, D, N)
    # each time slice equals the static discretization at that step
    for t in range(L):
        At, Bt = ref.discretize_zoh(A, B[t], delta[t])
        np.testing.assert_allclose(Abar[t], At, rtol=1e-14)
        np.testing.assert_allclose(Bbar[t], Bt, rtol=1e-14)


def test_zoh_rejects_bad_shapes_and_nonfinite():
    A, B, delta = scalar_system()
    with pytest.raises(ValueError):
        ref.discretize_zoh(A[0], B, delta)
    with pytest.raises(ValueError):
        ref.discretize_zoh(A, np.array([1.0, 2.0]), delta)
    with pytest.raises(ValueError):
        ref.discretize_zoh(np.array([[np.nan]]), B, delta)


# ---------------------------------------------------------------------------
# the model's scan, the kernel `mamba_inner` runs, through its test-side
# node mamba_reference.selective_scan


# silu(64) is exactly 64 in float32 and float64 (sigmoid(64) rounds to 1),
# and a power of two scales y exactly: a gate the tests divide back out
GATE = 64.0


def _selective_scan(A, B, C, x, delta, h0=None):
    """The scan node in float64 on the continuous-time system: A [D, N]
    negative, B, C [L, N], x, delta [L, D], no skip term (D = 0) and the
    gate divided back out.  The scan takes delta as softplus(dt + dt_bias):
    dt = log(expm1(delta)) with dt_bias = 0 gives it to within rounding.
    Returns (y, h_final) arrays."""
    L, D = x.shape
    y, h_final = mr.selective_scan(*(dc.tensor(a, dtype=np.float64)
                                     for a in (x, np.log(np.expm1(delta)), np.log(-A), B, C,
                                               np.zeros(D), np.full((L, D), GATE),
                                               np.zeros(D))), h0=h0)
    return y.data / GATE, h_final.data


def _random_system(rng, L, D, N):
    A = -(10.0 ** rng.uniform(-1, 0.5, size=(D, N)))
    delta = rng.uniform(0.05, 0.5, size=(L, D))
    B = rng.standard_normal((L, N))
    C = rng.standard_normal((L, N))
    return A, B, C, delta


def test_impulse_response_frozen():
    # A = -ln 2 and delta = 1 give Abar = 1/2; B = 2 ln 2 gives Bbar = 1
    A = np.array([[-math.log(2.0)]])
    B = np.full((3, 1), 2.0 * math.log(2.0))
    C = np.ones((3, 1))
    delta = np.ones((3, 1))
    y, _ = _selective_scan(A, B, C, np.array([[1.0], [0.0], [0.0]]), delta)
    np.testing.assert_allclose(y[:, 0], [1.0, 0.5, 0.25], rtol=1e-15)
    y, _ = _selective_scan(A, B, C, np.ones((3, 1)), delta)
    np.testing.assert_allclose(y[:, 0], [1.0, 1.5, 1.75], rtol=1e-15)


def test_scan_linearity():
    rng = np.random.default_rng(11)
    A, B, C, delta = _random_system(rng, 64, 4, 3)
    x1 = rng.standard_normal((64, 4))
    x2 = rng.standard_normal((64, 4))
    al, be = 0.7, -1.3
    y1, _ = _selective_scan(A, B, C, x1, delta)
    y2, _ = _selective_scan(A, B, C, x2, delta)
    y12, _ = _selective_scan(A, B, C, al * x1 + be * x2, delta)
    scale = np.abs(y12).max() + 1e-30
    assert np.abs(y12 - (al * y1 + be * y2)).max() / scale <= 1e-6


def test_scan_state_carry_composes():
    # splitting a sequence and carrying h0 must equal one full scan
    rng = np.random.default_rng(5)
    A, B, C, delta = _random_system(rng, 40, 3, 4)
    x = rng.standard_normal((40, 3))
    y_full, h_full = _selective_scan(A, B, C, x, delta)
    y_a, h_a = _selective_scan(A, B[:17], C[:17], x[:17], delta[:17])
    y_b, h_b = _selective_scan(A, B[17:], C[17:], x[17:], delta[17:], h0=h_a)
    np.testing.assert_allclose(np.concatenate([y_a, y_b]), y_full, rtol=1e-12)
    np.testing.assert_allclose(h_b, h_full, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_in_place_matches_per_step_loop(dtype):
    # the in-place scan kernel against the one-array-per-step recurrence, on
    # the readout and, through one-hot C_t readouts that make y_t = h_t[:, n]
    # exactly, on the whole state trajectory
    rng = np.random.default_rng(17)
    L, D, N = 33, 5, 4
    A_log = (rng.standard_normal((D, N)) * 0.5).astype(dtype)
    dt = rng.uniform(-3.0, 0.0, size=(L, D)).astype(dtype)
    B = rng.standard_normal((L, N)).astype(dtype)
    x = rng.standard_normal((L, D)).astype(dtype)
    gate, no_bias = np.full((L, D), GATE, dtype), np.zeros(D, dtype)
    # delta = softplus(dt), Abar = exp(delta A), Bbar = (Abar - 1) (1/A) B in
    # the primitive's order
    Abar = np.exp(ref.softplus(dt)[:, :, None] * -np.exp(A_log))
    Bbar = (Abar - 1.0) * -np.exp(-A_log) * B[:, None, :]
    readouts = [rng.standard_normal((L, N)).astype(dtype)]
    for n in range(N):
        onehot = np.zeros((L, N), dtype)
        onehot[:, n] = 1.0
        readouts.append(onehot)
    for h0 in (None, rng.standard_normal((D, N)).astype(dtype)):
        carry = np.zeros((D, N), dtype) if h0 is None else h0
        for C in readouts:
            y, h = mr.selective_scan(*(dc.tensor(a, dtype=dtype)
                                       for a in (x, dt, A_log, B, C, np.zeros(D),
                                                 gate, no_bias)),
                                     h0=h0)
            y_ref, h_ref = ref._scan_per_step(Abar, Bbar, C, x, carry)
            assert y.dtype == dtype and h.dtype == dtype
            assert np.array_equal(y.data, y_ref * GATE) and np.array_equal(h.data, h_ref)
            # a carried state must not keep the whole trajectory alive
            assert h.data.flags.owndata and not np.shares_memory(h.data, y.data)


def test_scan_stability_bound():
    rng = np.random.default_rng(13)
    for trial in range(20):
        D, N, L = 3, 4, 200
        # delta = 1, so Abar = exp(A) is uniform on (0, 1)
        A = np.log(rng.uniform(1e-6, 1.0, size=(D, N)))
        B = rng.uniform(-2.0, 2.0, size=(L, N))
        delta = np.ones((L, D))
        x = rng.uniform(-1.0, 1.0, size=(L, D))
        # read the whole trajectory out one state at a time: a one-hot C_t
        # makes y_t = h_t[:, n] exactly
        states = np.empty((L, D, N))
        for n in range(N):
            C = np.zeros((L, N))
            C[:, n] = 1.0
            states[:, :, n], h_final = _selective_scan(A, B, C, x, delta)
        assert np.array_equal(h_final, states[-1])
        Abar = np.exp(delta[:, :, None] * A)
        Bbar = (Abar - 1.0) / A * B[:, None, :]
        bound = N * np.abs(Bbar).max() / (1.0 - Abar.max() + 1e-9)
        assert np.abs(states).max() <= bound


# ---------------------------------------------------------------------------
# continuous-time oracle


def test_ode_single_step_frozen():
    # A=-1, B=1, C=1, x=1, delta=0.1: y(delta) = 1 - e^{-0.1}
    y = ref.continuous_ode_oracle(np.array([[-1.0]]), np.array([1.0]),
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
        y_disc, _ = _selective_scan(A, np.tile(B, (L, 1)), np.tile(C, (L, 1)), x,
                                    np.full((L, D), delta))
        y_ode = ref.continuous_ode_oracle(A, B, C, x, delta, substeps=100)
        scale = np.abs(y_ode).max() + 1e-30
        worst = max(worst, np.abs(y_disc - y_ode).max() / scale)
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"


def test_ode_oracle_validates_args():
    A, B, _ = scalar_system()
    with pytest.raises(ValueError):
        ref.continuous_ode_oracle(A, B, B, np.ones((2, 1)), 0.1, substeps=3)
    with pytest.raises(ValueError):
        ref.continuous_ode_oracle(A, B, B, np.ones((2, 1)), -0.1)
