"""Central finite differences against `diffcore.backward`, for the tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from mambavla.diffcore import ShapeError, Tensor, backward


def grad_check(function: Callable[[Tensor], Tensor], point: Tensor,
               eps: float = 1e-5) -> float:
    """Max relative error between backward and central finite differences.

    Per coordinate: |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    Run in float64 for meaningful tolerances.
    """
    base = np.asarray(point.data, dtype=np.float64)
    x = Tensor(base.copy(), requires_grad=True)
    out = function(x)
    if out.data.size != 1:
        raise ShapeError("grad_check: function must return a scalar")
    backward(out)
    analytic = (x.grad if x.grad is not None else np.zeros_like(base)).reshape(-1)

    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            probe = flat.copy()
            probe[i] += sign * eps
            val = function(Tensor(probe.reshape(base.shape))).item()
            numeric[i] += sign * val
        numeric[i] /= 2.0 * eps

    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(rel.max()) if rel.size else 0.0


def step_grad_check(loss: Callable[[], Tensor], coords: list[tuple[Tensor, tuple]],
                    eps: float) -> tuple[np.ndarray, np.ndarray]:
    """`backward`'s gradient and central differences at chosen coordinates
    of parameters that `loss` reads: (analytic, numeric), one entry per
    (parameter, index) pair in `coords`.

    Each probe puts a perturbed copy in `.data`, so a value derived from
    the old array is derived anew, and puts the original back after.
    """
    backward(loss())
    analytic = np.array([p.grad[idx] for p, idx in coords])
    numeric = np.zeros(len(coords))
    for i, (p, idx) in enumerate(coords):
        original = p.data
        for sign in (+1.0, -1.0):
            probe = original.copy()
            probe[idx] += sign * eps
            p.data = probe
            numeric[i] += sign * loss().item()
        p.data = original
        numeric[i] /= 2.0 * eps
    return analytic, numeric
