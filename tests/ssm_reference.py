"""Plain-numpy reference kernels the SSM tests check against.

`discretize_zoh` is the textbook zero-order-hold discretization,
`continuous_ode_oracle` integrates the continuous-time system with RK4, and
`_scan_per_step` runs the discrete recurrence one step at a time; `softplus`
and `silu` are the scan's step-size and gate kernels.  None of them is on
the model path: `diffcore._scan_forward`, the scan `mamba_inner` runs,
discretizes and scans in place, and the tests hold it to these.

Shapes follow the per-channel diagonal convention:
  A     [D, N]        diagonal continuous-time state matrix per channel
  B, C  [N] or [L, N] input / output projections (shared across channels)
  delta [D] or [L, D] per-channel step sizes
  x     [L, D]        driving sequence
  h     [D, N]        state

A leading L axis on B/C/delta makes the system time-varying (the selective
case); static and time-varying parameters may be mixed freely.
"""

from __future__ import annotations

import numpy as np

# below this |delta * A| the exact (exp(z)-1)/z expression switches to its
# Taylor series, which is exact at z = 0
ZOH_SERIES_CUTOFF = 1e-6


def _phi(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z with a series branch for |z| < ZOH_SERIES_CUTOFF."""
    small = np.abs(z) < ZOH_SERIES_CUTOFF
    # avoid 0/0 in the exact branch; the masked lanes are overwritten
    safe = np.where(small, 1.0, z)
    exact = np.expm1(safe) / safe
    series = 1.0 + z / 2.0 + (z * z) / 6.0
    return np.where(small, series, exact)


def discretize_zoh(A: np.ndarray, B: np.ndarray,
                   delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of (A, B) under step sizes delta.

        Abar = exp(delta . A)
        Bbar = ((exp(delta . A) - 1) / (delta . A)) . delta . B

    Exact for piecewise-constant input held over each delta window.  Returns
    [D, N] arrays for static parameters or [L, D, N] when delta and/or B
    carry a leading time axis.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    delta = np.asarray(delta)
    if A.ndim != 2:
        raise ValueError(f"discretize_zoh: A must be [D, N], got shape {A.shape}")
    D, N = A.shape
    if delta.ndim not in (1, 2) or delta.shape[-1] != D:
        raise ValueError(f"discretize_zoh: delta must be [D] or [L, D] with D={D}, "
                         f"got {delta.shape}")
    if B.ndim not in (1, 2) or B.shape[-1] != N:
        raise ValueError(f"discretize_zoh: B must be [N] or [L, N] with N={N}, "
                         f"got {B.shape}")
    for name, arr in (("A", A), ("B", B), ("delta", delta)):
        if not np.isfinite(arr).all():
            raise ValueError(f"discretize_zoh: {name} contains non-finite values")

    time_varying = delta.ndim == 2 or B.ndim == 2
    if delta.ndim == 2 and B.ndim == 2 and delta.shape[0] != B.shape[0]:
        raise ValueError(f"discretize_zoh: time axes differ: delta {delta.shape}, "
                         f"B {B.shape}")

    if time_varying:
        L = delta.shape[0] if delta.ndim == 2 else B.shape[0]
        dt = delta if delta.ndim == 2 else np.broadcast_to(delta, (L, D))
        Bt = B if B.ndim == 2 else np.broadcast_to(B, (L, N))
        z = dt[:, :, None] * A[None, :, :]            # [L, D, N]
        Abar = np.exp(z)
        Bbar = _phi(z) * dt[:, :, None] * Bt[:, None, :]
    else:
        z = delta[:, None] * A                        # [D, N]
        Abar = np.exp(z)
        Bbar = _phi(z) * delta[:, None] * B[None, :]
    return Abar, Bbar


def softplus(x: np.ndarray) -> np.ndarray:
    """The scan's step size delta = softplus(dt + dt_bias) as a function of
    x = dt + dt_bias, in the operation order of `diffcore._scan_forward`."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def silu(z: np.ndarray) -> np.ndarray:
    """The scan's gate silu(z), in the operation order of `diffcore`."""
    return z * (1.0 / (1.0 + np.exp(-z)))


def _scan_per_step(Abar, Bbar, C, x, h0):
    """The recurrence one step at a time, a fresh array per step; Abar,
    Bbar [L, D, N], C [L, N].  Returns (y [L, D], h_final [D, N]).  Each
    step reads out as the [1, N] @ [N, D] product of C_t and the state's
    transpose, the shapes of the scan's readout on its [N, D] layout."""
    h, ys = h0, []
    for t in range(x.shape[0]):
        h = Abar[t] * h + Bbar[t] * x[t][:, None]
        ys.append((C[t][None, :] @ np.ascontiguousarray(h.T))[0])
    return np.stack(ys), h


def continuous_ode_oracle(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                          x: np.ndarray, delta: float,
                          substeps: int = 100) -> np.ndarray:
    """Integrate h' = A h + B x with fixed-step RK4, x held constant per window.

    Test-only ground truth: ZOH discretization is exact for this piecewise-
    constant input, so the discrete scan must match the integrated system.
    Always runs in float64.  `substeps` RK4 steps per delta window (>= 10).
    """
    if substeps < 10:
        raise ValueError(f"continuous_ode_oracle: substeps must be >= 10, got {substeps}")
    if delta <= 0:
        raise ValueError(f"continuous_ode_oracle: delta must be > 0, got {delta}")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    L, D = x.shape
    h = np.zeros((D, A.shape[1]))
    dt = delta / substeps
    y = np.empty((L, D))
    for t in range(L):
        u = B[None, :] * x[t][:, None]
        for _ in range(substeps):
            k1 = A * h + u
            k2 = A * (h + 0.5 * dt * k1) + u
            k3 = A * (h + 0.5 * dt * k2) + u
            k4 = A * (h + dt * k3) + u
            h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[t] = h @ C
    return y
