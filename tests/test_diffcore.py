"""Autodiff core: primitive forward values, gradients vs finite differences,
tape semantics, and error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambavla import diffcore as dc
from mambavla import ssm

RNG = np.random.default_rng(0)


def t64(values, requires_grad=False):
    return dc.tensor(values, dtype=np.float64, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# frozen forward values


def test_softplus_at_zero_is_ln2():
    out = dc.softplus(t64([0.0]))
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_silu_derivative_at_zero_is_half():
    x = t64([0.0], requires_grad=True)
    dc.backward(dc.mean_pool(dc.silu(x)))
    assert abs(x.grad[0] - 0.5) < 1e-12


def test_matmul_known_product():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(dc.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_transpose_flags():
    a = RNG.standard_normal((3, 5))
    b = RNG.standard_normal((4, 5))
    out = dc.matmul(t64(a), t64(b), transpose_b=True)
    np.testing.assert_allclose(out.data, a @ b.T, rtol=1e-12)
    out2 = dc.matmul(t64(a.T), t64(b), transpose_a=True, transpose_b=True)
    np.testing.assert_allclose(out2.data, a @ b.T, rtol=1e-12)


def test_softmax_rows_sum_to_one():
    x = t64(RNG.standard_normal((6, 9)) * 4.0)
    rows = dc.softmax_rows(x).data.sum(axis=-1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_layer_norm_zero_mean_unit_var():
    y = dc.layer_norm(t64(RNG.standard_normal((5, 16)) * 3.0 + 1.0)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_conv1d_depthwise_is_causal():
    L, D, w = 10, 3, 4
    x = RNG.standard_normal((L, D))
    k = t64(RNG.standard_normal((w, D)))
    base = dc.conv1d_depthwise(t64(x), k).data
    bumped = x.copy()
    bumped[7] += 100.0
    after = dc.conv1d_depthwise(t64(bumped), k).data
    assert np.array_equal(base[:7], after[:7])        # bit-identical before t
    assert not np.allclose(base[7:], after[7:])


def test_conv1d_depthwise_matches_manual():
    x = t64([[1.0], [2.0], [3.0]])
    k = t64([[0.5], [1.0]])                           # y[t] = 0.5*x[t-1] + 1*x[t]
    np.testing.assert_allclose(dc.conv1d_depthwise(x, k).data,
                               [[1.0], [2.5], [4.0]])


def test_concat_slice_roundtrip():
    a = t64(RNG.standard_normal((3, 4)))
    b = t64(RNG.standard_normal((2, 4)))
    joined = dc.concat([a, b], axis=0)
    back = dc.tslice(joined, axis=0, start=3, stop=5)
    assert np.array_equal(back.data, b.data)


def test_slice_squeeze_drops_axis():
    x = t64(RNG.standard_normal((5, 7)))
    row = dc.tslice(x, axis=0, start=2, stop=3, squeeze=True)
    assert row.shape == (7,)
    np.testing.assert_array_equal(row.data, x.data[2])


def test_arccos_clamps_at_domain_edges():
    out = dc.arccos(t64([1.0, -1.0, 2.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.data[0] - math.acos(1.0 - 1e-7)) < 1e-15
    assert abs(out.data[1] - math.acos(-1.0 + 1e-7)) < 1e-15


def test_broadcast_axes_alignment():
    a = t64(RNG.standard_normal((4, 3)))
    v = t64(RNG.standard_normal(4))
    out = dc.mul(a, v, b_axes=(0,))                   # v broadcast along columns
    np.testing.assert_allclose(out.data, a.data * v.data[:, None])
    outer = dc.mul(t64(RNG.standard_normal(5)), v, a_axes=(0,), b_axes=(1,))
    assert outer.shape == (5, 4)


def test_trailing_alignment_backward_sums_leading_axes():
    # a (3, 4)-matrix plus a length-4 bias with default (trailing) alignment:
    # the bias gradient must sum over the promoted leading axis.
    mat = t64(RNG.standard_normal((3, 4)), requires_grad=True)
    bias = t64(RNG.standard_normal(4), requires_grad=True)
    grads = dc.backward(dc.mean_pool(dc.add(mat, bias)))
    np.testing.assert_allclose(grads[bias], np.full(4, 3 / 12))
    np.testing.assert_allclose(grads[mat], np.full((3, 4), 1 / 12))


# ---------------------------------------------------------------------------
# gradients: every primitive against central differences (<= 1e-4)

GRAD_TOL = 1e-4


def _check(fn, point):
    err = dc.grad_check(fn, t64(point))
    assert err <= GRAD_TOL, f"grad_check error {err:.3e}"


@pytest.mark.parametrize("trial", range(10))
def test_grad_every_primitive(trial):
    rng = np.random.default_rng(100 + trial)
    p23 = rng.standard_normal((2, 3))
    w32 = rng.standard_normal((3, 2))
    bias = rng.standard_normal(3)
    rows = rng.standard_normal(2)
    kern = rng.standard_normal((3, 3))
    sig = rng.standard_normal((6, 3))
    mix = rng.standard_normal((2, 3))

    _check(lambda x: dc.mean_pool(dc.matmul(x, t64(w32))), p23)
    _check(lambda x: dc.mean_pool(dc.matmul(t64(w32), x, transpose_a=True,
                                            transpose_b=True)), p23)
    _check(lambda x: dc.mean_pool(dc.add(x, t64(bias))), p23)
    _check(lambda x: dc.mean_pool(dc.mul(x, t64(rows), b_axes=(0,))), p23)
    _check(lambda x: dc.mean_pool(dc.silu(x)), p23)
    _check(lambda x: dc.mean_pool(dc.sigmoid(x)), p23)
    _check(lambda x: dc.mean_pool(dc.softplus(x)), p23)
    _check(lambda x: dc.mean_pool(dc.exp(x)), p23 * 0.5)
    _check(lambda x: dc.mean_pool(dc.log(x)), np.abs(p23) + 0.5)
    _check(lambda x: dc.mean_pool(dc.absolute(x)),
           np.where(np.abs(p23) < 0.05, 0.3, p23))    # keep clear of the kink
    _check(lambda x: dc.mean_pool(dc.arccos(x)), np.tanh(p23) * 0.9)
    _check(lambda x: dc.mean_pool(x), p23)
    _check(lambda x: dc.mean_pool(dc.mul(dc.mean_pool(x, axis=1), t64(rows))), p23)
    _check(lambda x: dc.mean_pool(dc.max_pool(x, axis=0)),
           p23 + np.arange(6).reshape(2, 3))          # distinct entries: unique argmax
    _check(lambda x: dc.mean_pool(dc.mul(dc.layer_norm(x), t64(mix))), p23)
    _check(lambda x: dc.mean_pool(dc.conv1d_depthwise(x, t64(kern))), sig)
    _check(lambda x: dc.mean_pool(dc.conv1d_depthwise(t64(sig), x)), kern)
    _check(lambda x: dc.mean_pool(dc.mul(dc.softmax_rows(x), t64(mix))), p23)
    _check(lambda x: dc.mean_pool(dc.concat([x, dc.silu(x)], axis=1)), p23)
    _check(lambda x: dc.mean_pool(dc.tslice(x, axis=1, start=1, stop=3)), p23)
    _check(lambda x: dc.mean_pool(dc.matmul(dc.mean_pool(x, axis=0, keepdims=True),
                                            t64(w32))), p23)
    _check(lambda x: dc.mean_pool(dc.matmul(dc.max_pool(x, axis=0, keepdims=True),
                                            t64(w32))),
           p23 + np.arange(6).reshape(2, 3))

    # selective-scan, with respect to each input in turn, from a carried state
    scan_args = _scan_inputs(rng)
    readout = rng.standard_normal(scan_args[0].shape)
    h0 = rng.standard_normal((3, 2))
    for i in range(5):
        def scan_loss(x, i=i):
            args = [t64(a) for a in scan_args]
            args[i] = x
            y, _ = dc.selective_scan(*args, h0=h0)
            return dc.mean_pool(dc.mul(y, t64(readout)))
        _check(scan_loss, scan_args[i])


def _scan_inputs(rng, L=4, E=3, N=2):
    """(u, delta, A_log, B, C) for selective-scan, with delta > 0."""
    return (rng.standard_normal((L, E)),
            np.abs(rng.standard_normal((L, E))) * 0.5 + 0.05,
            rng.standard_normal((E, N)) * 0.5,
            rng.standard_normal((L, N)),
            rng.standard_normal((L, N)))


def _scan_composition(u, delta, A_log, B, C, h0):
    """The selective scan as a per-step composition of primitives: ZOH
    discretization with A = -exp(A_log), then one slice/mul/add/matmul step
    per token."""
    minus = t64(-1.0)
    negA = dc.mul(dc.exp(A_log), minus)
    invA = dc.mul(dc.exp(dc.mul(A_log, minus)), minus)
    Abar = dc.exp(dc.mul(delta, negA, a_axes=(0, 1), b_axes=(1, 2)))
    coef = dc.mul(dc.add(Abar, minus), invA, b_axes=(1, 2))
    Bx = dc.mul(dc.mul(coef, B, b_axes=(0, 2)), u, b_axes=(0, 1))
    h = t64(h0)
    ys = []
    for t in range(u.shape[0]):
        h = dc.add(dc.mul(dc.tslice(Abar, 0, t, t + 1, squeeze=True), h),
                   dc.tslice(Bx, 0, t, t + 1, squeeze=True))
        ys.append(dc.matmul(dc.tslice(C, 0, t, t + 1), h, transpose_b=True))
    return dc.concat(ys, axis=0), h.data


def test_selective_scan_matches_per_step_composition():
    rng = np.random.default_rng(7)
    arrays = _scan_inputs(rng, L=9, E=5, N=3)
    h0 = rng.standard_normal((5, 3))
    readout = t64(rng.standard_normal((9, 5)))
    results = []
    for scan in (dc.selective_scan, _scan_composition):
        leaves = [t64(a, requires_grad=True) for a in arrays]
        y, h_final = scan(*leaves, h0)
        dc.backward(dc.mean_pool(dc.mul(y, readout)))
        results.append((y.data, h_final, [leaf.grad for leaf in leaves]))
    (y, h_final, grads), (y_ref, h_ref, grads_ref) = results
    np.testing.assert_allclose(y, y_ref, rtol=1e-10)
    np.testing.assert_allclose(h_final, h_ref, rtol=1e-10)
    for grad, grad_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-10)


def test_selective_scan_matches_reference_kernels():
    rng = np.random.default_rng(8)
    u, delta, A_log, B, C = _scan_inputs(rng, L=12, E=4, N=3)
    h0 = rng.standard_normal((4, 3))
    y, h_final = dc.selective_scan(t64(u), t64(delta), t64(A_log), t64(B), t64(C), h0=h0)
    Abar, Bbar = ssm.discretize_zoh(-np.exp(A_log), B, delta)
    y_ref, h_ref = ssm.scan_sequential(Abar, Bbar, C, u, h0)
    np.testing.assert_allclose(y.data, y_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(h_final, h_ref, rtol=1e-12, atol=1e-12)


def _capture_scan_kernel(monkeypatch):
    """Record the arrays `selective_scan` hands to `ssm.scan_sequential`
    and the trajectory it gets back."""
    seen = {}
    scan = ssm.scan_sequential

    def spy(Abar, Bbar, C, x, h0=None, return_states=False):
        out = scan(Abar, Bbar, C, x, h0, return_states)
        seen.update(Abar=Abar, Bbar=Bbar, states=out[2])
        return out

    monkeypatch.setattr(dc.ssm, "scan_sequential", spy)
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selective_scan_discretization_is_bit_identical(dtype, monkeypatch):
    # the in-place discretization must keep the operation order of
    # Abar = exp(delta A), Bbar = (Abar - 1) (1/A) B
    seen = _capture_scan_kernel(monkeypatch)
    u, delta, A_log, B, C = (a.astype(dtype) for a in
                             _scan_inputs(np.random.default_rng(11), L=16, E=6, N=4))
    dc.selective_scan(*(dc.tensor(a, dtype=dtype) for a in (u, delta, A_log, B, C)))
    A, inv_A = -np.exp(A_log), -np.exp(-A_log)
    Abar = np.exp(delta[:, :, None] * A)
    Bbar = (Abar - 1.0) * inv_A * B[:, None, :]
    assert seen["Abar"].dtype == dtype and seen["Bbar"].dtype == dtype
    assert np.array_equal(seen["Abar"], Abar)
    assert np.array_equal(seen["Bbar"], Bbar)


def test_selective_scan_final_state_owns_its_memory(monkeypatch):
    # generation carries h_final; a view would keep the whole trajectory alive
    seen = _capture_scan_kernel(monkeypatch)
    _, h_final = dc.selective_scan(*(t64(a) for a in _scan_inputs(np.random.default_rng(12))))
    np.testing.assert_array_equal(h_final, seen["states"][-1])
    assert not np.shares_memory(h_final, seen["states"])


# ---------------------------------------------------------------------------
# elementwise kernels at extreme inputs

STRESS_X = (-1000.0, -100.0, -30.0, -1e-8, 0.0, 30.0, 100.0, 1000.0)


def _sigmoid_ref(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# kind -> (primitive, value reference, slope reference), in float64 math
ELEMENTWISE_REFS = {
    "sigmoid": (dc.sigmoid, _sigmoid_ref, lambda x: _sigmoid_ref(x) * _sigmoid_ref(-x)),
    "silu": (dc.silu, lambda x: x * _sigmoid_ref(x),
             lambda x: _sigmoid_ref(x) * (1.0 + x * _sigmoid_ref(-x))),
    "softplus": (dc.softplus, lambda x: max(x, 0.0) + math.log1p(math.exp(-abs(x))),
                 _sigmoid_ref),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(ELEMENTWISE_REFS))
def test_elementwise_kernels_at_extreme_inputs(kind, dtype):
    fn, value_ref, slope_ref = ELEMENTWISE_REFS[kind]
    x = dc.tensor(STRESS_X, dtype=dtype, requires_grad=True)
    out = fn(x)
    dc.backward(dc.mean_pool(out))
    slope = x.grad * len(STRESS_X)                    # undo the mean; exact for 8
    finfo = np.finfo(dtype)
    for got, ref_fn in ((out.data, value_ref), (slope, slope_ref)):
        assert got.dtype == dtype and np.isfinite(got).all()
        for xi, gi in zip(x.data, got):
            ref = ref_fn(float(xi))
            # silu's slope sig (1 + x (1 - sig)) rounds 1 - sig to within
            # eps / 2, an error that x multiplies
            growth = max(1.0, abs(float(xi))) if kind == "silu" and got is slope else 1.0
            if abs(ref) >= finfo.tiny:
                assert abs(gi - ref) <= 8 * finfo.eps * growth * abs(ref), (kind, xi, gi, ref)
            else:                                     # below the normal range
                assert abs(gi - ref) <= finfo.tiny, (kind, xi, gi, ref)


def test_elementwise_kernels_exact_points():
    for dtype in (np.float32, np.float64):
        assert dc.softplus(dc.tensor([0.0], dtype=dtype)).data[0] == dtype(math.log(2.0))
        assert dc.sigmoid(dc.tensor([0.0], dtype=dtype)).data[0] == 0.5
        for fn in (dc.silu, dc.sigmoid):
            x = dc.tensor([0.0], dtype=dtype, requires_grad=True)
            dc.backward(dc.mean_pool(fn(x)))
            assert x.grad[0] == (0.5 if fn is dc.silu else 0.25)


# central differences next to sigmoid(30) = 1 - 9e-14 are below float64's
# resolution, so sigmoid's slope there is checked against the math reference
# above and its finite-difference check stops at 15
GRAD_POINTS = {"sigmoid": (-30.0, -1e-8, 0.0, 15.0),
               "silu": (-30.0, -1e-8, 0.0, 30.0),
               "softplus": (-30.0, -1e-8, 0.0, 30.0)}


@pytest.mark.parametrize("kind", sorted(GRAD_POINTS))
def test_elementwise_kernels_grad_check_up_to_30(kind):
    fn = ELEMENTWISE_REFS[kind][0]
    for point in GRAD_POINTS[kind]:                  # one at a time: a tiny slope
        _check(lambda x: dc.mean_pool(fn(x)), [point])  # is lost in a shared mean


def _sigmoid_composition(x):
    """The pose head's former on-tape sigmoid: exp(-softplus(-x)), 4 nodes."""
    minus = t64(-1.0)
    return dc.exp(dc.mul(dc.softplus(dc.mul(x, minus)), minus))


def test_sigmoid_matches_composition_it_replaces():
    values = np.random.default_rng(13).standard_normal((5, 7)) * 6.0
    readout = t64(np.random.default_rng(14).standard_normal((5, 7)))
    results = []
    for fn in (dc.sigmoid, _sigmoid_composition):
        x = t64(values, requires_grad=True)
        out = fn(x)
        dc.backward(dc.mean_pool(dc.mul(out, readout)))
        results.append((out.data, x.grad))
    (out, grad), (out_ref, grad_ref) = results
    np.testing.assert_allclose(out, out_ref, rtol=1e-14)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-13)


def test_pool_keepdims_shapes():
    x = t64(RNG.standard_normal((4, 3)))
    assert dc.mean_pool(x, axis=0, keepdims=True).shape == (1, 3)
    assert dc.max_pool(x, axis=1, keepdims=True).shape == (4, 1)
    np.testing.assert_array_equal(dc.mean_pool(x, axis=0, keepdims=True).data[0],
                                  dc.mean_pool(x, axis=0).data)


def test_grad_check_detects_corrupted_gradient():
    # a wrong-by-2x analytic gradient must land near |g - 2g| / (3|g|) = 1/3
    def bad_fn(x):
        out = dc.mean_pool(dc.mul(x, x))
        # wrap so backward doubles the gradient
        wrapped = dc.Tensor(out.data)
        wrapped.requires_grad = True
        wrapped._parents = (out,)
        wrapped._backward_fn = lambda g: dc._accumulate(out, 2.0 * g)
        return wrapped

    err = dc.grad_check(bad_fn, t64(RNG.standard_normal(4) + 2.0))
    assert 0.30 < err < 0.36


def test_two_branch_fanout_accumulates():
    x = t64([3.0], requires_grad=True)
    y = dc.add(dc.mul(x, x), dc.mul(x, t64([5.0])))   # x^2 + 5x -> dy/dx = 2x + 5
    dc.backward(dc.mean_pool(y))
    assert abs(x.grad[0] - 11.0) < 1e-12


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_returns_leaf_map_and_consumes_tape():
    x = t64(RNG.standard_normal((3, 3)), requires_grad=True)
    frozen = t64(RNG.standard_normal((3, 3)))          # on tape, not trainable
    root = dc.mean_pool(dc.mul(x, frozen))
    grads = dc.backward(root)
    assert x in grads and frozen not in grads
    np.testing.assert_allclose(grads[x], frozen.data / 9.0)
    with pytest.raises(dc.TapeError):
        dc.backward(root)


def test_backward_requires_scalar_root():
    x = t64(RNG.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(dc.ShapeError):
        dc.backward(dc.silu(x))


def test_leaf_off_tape_gets_no_grad():
    x = t64([1.0], requires_grad=True)
    bystander = t64([2.0], requires_grad=True)
    dc.backward(dc.mean_pool(dc.mul(x, x)))
    assert bystander.grad is None


def test_deep_chain_no_recursion_limit():
    x = t64([0.5], requires_grad=True)
    y = x
    for _ in range(5000):
        y = dc.add(y, t64([1e-6]))
    dc.backward(dc.mean_pool(y))
    assert abs(x.grad[0] - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# error paths


def test_shape_mismatch_raises():
    with pytest.raises(dc.ShapeError):
        dc.matmul(t64(RNG.standard_normal((2, 3))), t64(RNG.standard_normal((2, 3))))
    with pytest.raises(dc.ShapeError):
        dc.add(t64(RNG.standard_normal((2, 3))), t64(RNG.standard_normal((4,))))
    with pytest.raises(dc.ShapeError):
        dc.conv1d_depthwise(t64(RNG.standard_normal((5, 2))),
                            t64(RNG.standard_normal((3, 4))))


def test_nonfinite_input_rejected():
    bad = t64([np.nan, 1.0])
    with pytest.raises(dc.NonFiniteError):
        dc.silu(bad)
    with pytest.raises(dc.NonFiniteError):
        dc.add(t64([1.0]), t64([np.inf]))


def test_nonfinite_output_rejected():
    with pytest.raises(dc.NonFiniteError):
        dc.log(t64([0.0]))
    with pytest.raises(dc.NonFiniteError):
        dc.exp(t64([1000.0]))


def test_mixed_dtype_rejected():
    a = dc.tensor([1.0], dtype=np.float32)
    b = dc.tensor([1.0], dtype=np.float64)
    with pytest.raises(dc.ShapeError):
        dc.add(a, b)


def test_selective_scan_rejects_bad_shapes_and_dtypes():
    args = [t64(a) for a in _scan_inputs(np.random.default_rng(9), L=4, E=3, N=2)]
    h0 = np.zeros((3, 2))
    bad_shapes = {0: (4, 2),      # u: E differs
                  1: (5, 3),      # delta: L differs
                  2: (3, 3),      # A_log: N differs from B and C
                  4: (4, 3)}      # C: N differs
    for i, shape in bad_shapes.items():
        broken = list(args)
        broken[i] = t64(np.zeros(shape))
        with pytest.raises(dc.ShapeError):
            dc.selective_scan(*broken, h0=h0)
    with pytest.raises(dc.ShapeError):
        dc.selective_scan(*args, h0=np.zeros((2, 3)))
    with pytest.raises(dc.ShapeError):
        dc.selective_scan(*args[:4], dc.tensor(args[4].data, dtype=np.float32))
    with pytest.raises(dc.ShapeError):
        dc.selective_scan(*args, h0=h0.astype(np.float32))


def test_selective_scan_rejects_non_finite_inputs_and_carry():
    arrays = _scan_inputs(np.random.default_rng(10), L=4, E=3, N=2)
    for i in range(5):
        args = [t64(a) for a in arrays]
        args[i].data[0, 0] = np.nan
        with pytest.raises(dc.NonFiniteError, match="selective-scan"):
            dc.selective_scan(*args)
    h0 = np.zeros((3, 2))
    h0[1, 1] = np.nan
    with pytest.raises(dc.NonFiniteError, match="selective-scan"):
        dc.selective_scan(*[t64(a) for a in arrays], h0=h0)


def test_apply_primitive_dispatch():
    out = dc.apply_primitive("softplus", [t64([0.0])])
    assert abs(out.item() - math.log(2.0)) < 1e-12
    out = dc.apply_primitive("concat", [t64([1.0]), t64([2.0])], axis=0)
    assert out.shape == (2,)
    with pytest.raises(dc.ShapeError):
        dc.apply_primitive("fft", [t64([1.0])])


def test_repeated_apply_is_bit_identical():
    x = t64(RNG.standard_normal((8, 8)))
    w = t64(RNG.standard_normal((8, 8)))
    a = dc.matmul(dc.silu(x), w).data
    b = dc.matmul(dc.silu(x), w).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 1))
def test_concat_slice_seam_recovery(n1, n2, axis):
    rng = np.random.default_rng(n1 * 7 + n2 * 13 + axis)
    shape1 = (n1, 3) if axis == 0 else (3, n1)
    shape2 = (n2, 3) if axis == 0 else (3, n2)
    a, b = rng.standard_normal(shape1), rng.standard_normal(shape2)
    joined = dc.concat([t64(a), t64(b)], axis=axis)
    left = dc.tslice(joined, axis=axis, start=0, stop=n1)
    right = dc.tslice(joined, axis=axis, start=n1, stop=n1 + n2)
    assert np.array_equal(left.data, a) and np.array_equal(right.data, b)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_softplus_monotone(a, b):
    lo, hi = sorted((a, b))
    assert dc.softplus(t64([lo])).item() <= dc.softplus(t64([hi])).item() + 1e-12
