"""Autodiff core: primitive forward values, gradients vs finite differences,
tape semantics, and error paths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mamba_reference
import ssm_reference as ref
from gradcheck import grad_check
from mambavla import diffcore as dc

RNG = np.random.default_rng(0)


def t64(values, requires_grad=False):
    return dc.tensor(values, dtype=np.float64, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# frozen forward values


def _delta_scan(dt, dt_bias):
    """One scan step that reads the fused delta = softplus(dt + dt_bias) out
    as exp(-delta), one channel per column of dt [1, E]: A = -1, h0 = 1 and
    u = 0 give h_final = Abar = exp(-delta), and the gate z = 64 has
    silu(z) = 64 exactly, so y = 64 exp(-delta)."""
    E, dtype = dt.shape[1], dt.dtype
    const = lambda a: dc.tensor(a, dtype)
    return dc.selective_scan(const(np.zeros((1, E))), dt, const(np.zeros((E, 1))),
                             const([[1.0]]), const([[1.0]]), const(np.zeros(E)),
                             const(np.full((1, E), 64.0)), dt_bias,
                             h0=np.ones((E, 1), dtype))


def test_softplus_at_zero_is_ln2():
    # the scan's delta where dt + dt_bias = 0, through the array path of exp
    for dtype in (np.float32, np.float64):
        _, h_final = _delta_scan(dc.tensor([[0.75]], dtype), dc.tensor([-0.75], dtype))
        assert h_final.data[0, 0] == np.exp(np.array([-math.log(2.0)], dtype))[0]


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


def test_softmax_rows_sum_to_one():
    x = t64(RNG.standard_normal((6, 9)) * 4.0)
    rows = np.exp(dc.log_softmax_rows(x).data).sum(axis=-1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_layer_norm_zero_mean_unit_var():
    y = dc.layer_norm(t64(RNG.standard_normal((5, 16)) * 3.0 + 1.0),
                      t64(np.ones(16)), t64(np.zeros(16))).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_conv1d_depthwise_is_causal():
    L, D, w = 10, 3, 4
    x = RNG.standard_normal((L, D))
    k = t64(RNG.standard_normal((w, D)))
    b = t64(RNG.standard_normal(D))
    base = dc.conv1d_depthwise(t64(x), k, b)[0].data
    bumped = x.copy()
    bumped[7] += 100.0
    after = dc.conv1d_depthwise(t64(bumped), k, b)[0].data
    assert np.array_equal(base[:7], after[:7])        # bit-identical before t
    assert not np.allclose(base[7:], after[7:])


def test_conv1d_depthwise_matches_manual():
    x = t64([[1.0], [2.0], [3.0]])
    k = t64([[0.5], [1.0]])                           # 0.5*x[t-1] + 1*x[t] + 0.5
    pre = np.array([[1.5], [3.0], [4.5]])
    np.testing.assert_allclose(dc.conv1d_depthwise(x, k, t64([0.5]))[0].data,
                               pre / (1.0 + np.exp(-pre)), rtol=1e-15)


def test_conv1d_depthwise_ctx_is_the_rows_before_x():
    L, D, w = 6, 3, 4
    x = RNG.standard_normal((L, D))
    ctx = RNG.standard_normal((w - 1, D))
    k = t64(RNG.standard_normal((w, D)))
    b = t64(RNG.standard_normal(D))
    joined, joined_ctx = dc.conv1d_depthwise(t64(np.concatenate([ctx, x])), k, b)
    y, ctx_final = dc.conv1d_depthwise(t64(x), k, b, ctx)
    assert np.array_equal(y.data, joined.data[w - 1:])
    # the returned context is the last w-1 inputs, whatever came before
    assert np.array_equal(ctx_final.data, x[L - w + 1:])
    assert np.array_equal(ctx_final.data, joined_ctx.data)
    # zeros when None
    assert np.array_equal(dc.conv1d_depthwise(t64(x), k, b)[0].data,
                          dc.conv1d_depthwise(t64(x), k, b, np.zeros((w - 1, D)))[0].data)


def test_concat_slice_roundtrip():
    a = t64(RNG.standard_normal((3, 4)))
    b = t64(RNG.standard_normal((2, 4)))
    joined = dc.concat([a, b], axis=0)
    back = dc.tslice(joined, axis=0, start=3, stop=5)
    assert np.array_equal(back.data, b.data)


def test_arccos_clamps_at_domain_edges():
    out = dc.arccos(t64([1.0, -1.0, 2.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.data[0] - math.acos(1.0 - 1e-7)) < 1e-15
    assert abs(out.data[1] - math.acos(-1.0 + 1e-7)) < 1e-15


def test_broadcast_axes_alignment():
    # a [4, 1] column scales every column of a [4, 3] matrix, and its
    # gradient sums over the columns it was broadcast along
    a = t64(RNG.standard_normal((4, 3)), requires_grad=True)
    v = t64(RNG.standard_normal((4, 1)), requires_grad=True)
    out = dc.mul(a, v)
    for j in range(3):
        np.testing.assert_array_equal(out.data[:, j], a.data[:, j] * v.data[:, 0])
    grads = dc.backward(dc.mean_pool(out))
    np.testing.assert_allclose(grads[v], a.data.sum(axis=1, keepdims=True) / 12)
    np.testing.assert_allclose(grads[a], np.tile(v.data, (1, 3)) / 12)


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
    err = grad_check(fn, t64(point))
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
    _check(lambda x: dc.mean_pool(dc.matmul(t64(w32.T), x, transpose_b=True)), p23)
    _check(lambda x: dc.mean_pool(dc.add(x, t64(bias))), p23)
    _check(lambda x: dc.mean_pool(dc.mul(x, t64(rows[:, None]))), p23)
    _check(lambda x: dc.mean_pool(dc.silu(x)), p23)
    _check(lambda x: dc.mean_pool(dc.sigmoid(x)), p23)
    _check(lambda x: dc.mean_pool(dc.exp(x)), p23 * 0.5)
    _check(lambda x: dc.mean_pool(dc.log(x)), np.abs(p23) + 0.5)
    _check(lambda x: dc.mean_pool(dc.absolute(x)),
           np.where(np.abs(p23) < 0.05, 0.3, p23))    # keep clear of the kink
    _check(lambda x: dc.mean_pool(dc.arccos(x)), np.tanh(p23) * 0.9)
    _check(lambda x: dc.mean_pool(x), p23)
    _check(lambda x: dc.mean_pool(dc.mul(dc.mean_pool(x, axis=1), t64(rows))), p23)
    _check(lambda x: dc.mean_pool(dc.mul(dc.layer_norm(x, t64(np.ones(3)),
                                                      t64(np.zeros(3))), t64(mix))), p23)
    _check(lambda x: dc.mean_pool(dc.conv1d_depthwise(x, t64(kern), t64(bias))[0]), sig)
    _check(lambda x: dc.mean_pool(dc.conv1d_depthwise(t64(sig), x, t64(bias))[0]), kern)
    _check(lambda x: dc.mean_pool(dc.mul(dc.log_softmax_rows(x), t64(mix))), p23)
    _check(lambda x: dc.mean_pool(dc.concat([x, dc.silu(x)], axis=1)), p23)
    _check(lambda x: dc.mean_pool(dc.tslice(x, axis=1, start=1, stop=3)), p23)
    _check(lambda x: dc.mean_pool(dc.matmul(dc.mean_pool(x, axis=0, keepdims=True),
                                            t64(w32))), p23)

    # selective-scan, with respect to each input in turn, from a carried state
    scan_args = _scan_inputs(rng)
    readout = rng.standard_normal(scan_args[0].shape)
    h0 = rng.standard_normal((3, 2))
    for i in range(8):
        def scan_loss(x, i=i):
            args = [t64(a) for a in scan_args]
            args[i] = x
            y, _ = dc.selective_scan(*args, h0=h0)
            return dc.mean_pool(dc.mul(y, t64(readout)))
        _check(scan_loss, scan_args[i])

    # conv1d-depthwise with respect to x, kernel and bias, from a carried
    # context (a constant: it gets no gradient)
    ctx = rng.standard_normal((2, 3))
    conv_args = (sig, kern, bias)
    for i in range(3):
        def conv_loss(x, i=i):
            args = [t64(a) for a in conv_args]
            args[i] = x
            y, _ = dc.conv1d_depthwise(*args, ctx)
            return dc.mean_pool(dc.mul(y, t64(sig)))
        _check(conv_loss, conv_args[i])

    # layer-norm with respect to x, gain and bias
    gain, shift = rng.standard_normal(3), rng.standard_normal(3)
    _check(lambda x: dc.mean_pool(dc.mul(dc.layer_norm(x, t64(gain), t64(shift)),
                                         t64(mix))), p23)
    _check(lambda x: dc.mean_pool(dc.mul(dc.layer_norm(t64(p23), x, t64(shift)),
                                         t64(mix))), gain)
    _check(lambda x: dc.mean_pool(dc.mul(dc.layer_norm(t64(p23), t64(gain), x),
                                         t64(mix))), shift)
    # gather-rows, with a repeated row
    _check(lambda x: dc.mean_pool(dc.mul(dc.gather_rows(x, [2, 0, 2]), t64(kern))), sig[:3])


def _scan_inputs(rng, L=4, E=3, N=2):
    """(u, dt, A_log, B, C, D, z, dt_bias) for selective-scan."""
    return (rng.standard_normal((L, E)),
            rng.standard_normal((L, E)),
            rng.standard_normal((E, N)) * 0.5,
            rng.standard_normal((L, N)),
            rng.standard_normal((L, N)),
            rng.standard_normal(E),
            rng.standard_normal((L, E)),
            rng.standard_normal(E) * 0.5 - 1.0)


def _scan_composition(u, dt, A_log, B, C, D, z, dt_bias, h0):
    """The selective scan as the composition of primitives it replaces:
    delta = softplus(dt + dt_bias) as log(1 + exp(.)), ZOH discretization
    with A = -exp(A_log), one step per token, the skip term D u, and the
    gate silu(z).

    The state is kept transposed, h^T [N, E], so trailing broadcasting lines
    the [1, E] rows delta_t and u_t up with it; multiplying the identity by
    an operand with transpose_b transposes A_log and each B_t."""
    minus = t64(-1.0)
    delta = dc.log(dc.add(dc.exp(dc.add(dt, dt_bias)), t64(1.0)))
    eye = t64(np.eye(A_log.shape[1]))
    A_logT = dc.matmul(eye, A_log, transpose_b=True)                  # [N, E]
    negA = dc.mul(dc.exp(A_logT), minus)
    invA = dc.mul(dc.exp(dc.mul(A_logT, minus)), minus)
    hT = t64(np.asarray(h0).T)
    ys = []
    for t in range(u.shape[0]):
        Abar = dc.exp(dc.mul(dc.tslice(delta, 0, t, t + 1), negA))    # [N, E]
        coef = dc.mul(dc.add(Abar, minus), invA)
        B_t = dc.matmul(eye, dc.tslice(B, 0, t, t + 1), transpose_b=True)  # [N, 1]
        Bx = dc.mul(dc.mul(coef, B_t), dc.tslice(u, 0, t, t + 1))
        hT = dc.add(dc.mul(Abar, hT), Bx)
        ys.append(dc.matmul(dc.tslice(C, 0, t, t + 1), hT))          # [1, E]
    y = dc.add(dc.concat(ys, axis=0), dc.mul(u, D))
    return dc.mul(y, dc.silu(z)), hT.data.T


def _conv_composition(x, kernel, bias, ctx):
    """conv1d-depthwise as the composition of primitives it replaces: the
    causal window sum over [ctx || x], the bias, then SiLU."""
    L, w = x.shape[0], kernel.shape[0]
    xp = dc.concat([t64(ctx), x], axis=0)
    conv = dc.mul(dc.tslice(xp, 0, 0, L), dc.tslice(kernel, 0, 0, 1))
    for i in range(1, w):
        conv = dc.add(conv, dc.mul(dc.tslice(xp, 0, i, i + L), dc.tslice(kernel, 0, i, i + 1)))
    return dc.silu(dc.add(conv, bias)), xp.data[L:]


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
        results.append((y.data, getattr(h_final, "data", h_final),
                        [leaf.grad for leaf in leaves]))
    (y, h_final, grads), (y_ref, h_ref, grads_ref) = results
    np.testing.assert_allclose(y, y_ref, rtol=1e-10)
    np.testing.assert_allclose(h_final, h_ref, rtol=1e-10)
    for grad, grad_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-10)


def test_conv1d_depthwise_matches_composition():
    rng = np.random.default_rng(6)
    arrays = (rng.standard_normal((7, 5)), rng.standard_normal((4, 5)),
              rng.standard_normal(5))
    ctx = rng.standard_normal((3, 5))
    readout = t64(rng.standard_normal((7, 5)))
    results = []
    for conv in (dc.conv1d_depthwise, _conv_composition):
        leaves = [t64(a, requires_grad=True) for a in arrays]
        y, ctx_final = conv(*leaves, ctx)
        dc.backward(dc.mean_pool(dc.mul(y, readout)))
        results.append((y.data, getattr(ctx_final, "data", ctx_final),
                        [leaf.grad for leaf in leaves]))
    (y, ctx_final, grads), (y_ref, ctx_ref, grads_ref) = results
    np.testing.assert_allclose(y, y_ref, rtol=1e-10)
    assert np.array_equal(ctx_final, ctx_ref)
    for grad, grad_ref in zip(grads, grads_ref):
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-10)


def test_selective_scan_matches_reference_kernels():
    rng = np.random.default_rng(8)
    u, dt, A_log, B, C, _, z, dt_bias = _scan_inputs(rng, L=12, E=4, N=3)
    h0 = rng.standard_normal((4, 3))
    y, h_final = dc.selective_scan(t64(u), t64(dt), t64(A_log), t64(B), t64(C),
                                   t64(np.zeros(4)), t64(z), t64(dt_bias), h0=h0)
    Abar, Bbar = ref.discretize_zoh(-np.exp(A_log), B, ref.softplus(dt + dt_bias))
    y_ref, h_ref = ref._scan_per_step(Abar, Bbar, C, u, h0)
    np.testing.assert_allclose(y.data, y_ref * ref.silu(z), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(h_final.data, h_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selective_scan_discretization_is_bit_identical(dtype):
    # the in-place step size, discretization, scan and gate must keep the
    # operation order of delta = softplus(dt + dt_bias), Abar = exp(delta A),
    # Bbar = (Abar - 1) (1/A) B, the per-step recurrence
    # h_t = Abar_t h_{t-1} + Bbar_t u_t, y_t = h_t . C_t, and (y + D u) silu(z)
    rng = np.random.default_rng(11)
    u, dt, A_log, B, C, D, z, dt_bias = (a.astype(dtype) for a in
                                         _scan_inputs(rng, L=16, E=6, N=4))
    A, inv_A = -np.exp(A_log), -np.exp(-A_log)
    Abar = np.exp(ref.softplus(dt + dt_bias)[:, :, None] * A)
    Bbar = (Abar - 1.0) * inv_A * B[:, None, :]
    for h0 in (None, rng.standard_normal((6, 4)).astype(dtype)):
        y, h_final = dc.selective_scan(*(dc.tensor(a, dtype=dtype)
                                         for a in (u, dt, A_log, B, C, D, z, dt_bias)),
                                       h0=h0)
        carry = np.zeros((6, 4), dtype) if h0 is None else h0
        y_ref, h_ref = ref._scan_per_step(Abar, Bbar, C, u, carry)
        assert y.dtype == dtype and h_final.dtype == dtype
        assert np.array_equal(y.data, (y_ref + u * D) * ref.silu(z))
        assert np.array_equal(h_final.data, h_ref)


def test_selective_scan_final_state_owns_its_memory():
    # generation carries h_final; a view would keep the whole trajectory alive
    _, h_final = dc.selective_scan(*(t64(a) for a in _scan_inputs(np.random.default_rng(12))))
    assert h_final.data.flags.owndata


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selective_scan_without_gradient_equals_gradient_path(dtype):
    # with no gradient L = 40 runs as blocks of 16 + 16 + 8 steps, with one
    # as a single block: y and h_final must agree bit for bit
    rng = np.random.default_rng(13)
    arrays = [a.astype(dtype) for a in _scan_inputs(rng, L=40, E=5, N=3)]
    h0 = rng.standard_normal((5, 3)).astype(dtype)
    y, h_final = dc.selective_scan(*(dc.tensor(a, dtype) for a in arrays), h0=h0)
    leaves = [dc.tensor(a, dtype, requires_grad=True) for a in arrays]
    y_grad, h_grad = dc.selective_scan(*leaves, h0=h0)
    assert not y.requires_grad and y_grad.requires_grad
    assert np.array_equal(y.data, y_grad.data)
    assert np.array_equal(h_final.data, h_grad.data)


@pytest.mark.parametrize("grad", [False, True])
def test_split_float32_scan_equals_one_long_scan(grad):
    """Scanning rows [0, 1), [1, B), [B, B+1) and [B+1, L) with h0 carried
    gives the bits of one call over L = 2B + 5 rows, B = SCAN_BLOCK: without
    a gradient the long call carries its state across two block edges."""
    B = dc.SCAN_BLOCK
    L = 2 * B + 5
    rng = np.random.default_rng(15)
    arrays = [a.astype(np.float32) for a in _scan_inputs(rng, L=L, E=24, N=4)]
    h0 = rng.standard_normal((24, 4)).astype(np.float32)
    per_row = (True, True, False, True, True, False, True, False)     # [L, .] inputs

    def scan(lo, hi, carry):
        args = [a[lo:hi] if rows else a for a, rows in zip(arrays, per_row)]
        return dc.selective_scan(*(dc.tensor(a, requires_grad=grad) for a in args),
                                 h0=carry)

    y, h_final = scan(0, L, h0)
    carry, pieces = h0, []
    for lo, hi in zip((0, 1, B, B + 1), (1, B, B + 1, L)):
        y_part, carry = scan(lo, hi, carry)
        pieces.append(y_part.data)
    assert y.requires_grad == grad
    assert np.array_equal(y.data, np.concatenate(pieces))
    assert np.array_equal(h_final.data, carry.data)


@pytest.mark.parametrize("grad, bound", [(True, 4.25), (False, 1.0)])
def test_selective_scan_forward_peak_memory(grad, bound):
    """The gradient path keeps three trajectory arrays (Abar, coef and the
    states); the readout runs on the states as they lie, so there is no
    fourth [L, E, N] copy.  Without a gradient no trajectory is allocated.
    The peak above the inputs is in units of one float32 [L, N, E] array."""
    L, E, N = 256, 512, 8
    arrays = _scan_inputs(np.random.default_rng(16), L=L, E=E, N=N)
    leaves = [dc.tensor(a, requires_grad=grad) for a in arrays]
    tracemalloc.start()
    try:
        y, _ = dc.selective_scan(*leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad == grad
    assert peak < bound * L * N * E * 4, f"peak {peak / (L * N * E * 4):.2f} arrays"


def test_selective_scan_without_gradient_allocates_no_trajectory():
    L, E, N = 512, 64, 8
    args = [t64(a) for a in _scan_inputs(np.random.default_rng(14), L=L, E=E, N=N)]
    tracemalloc.start()
    try:
        dc.selective_scan(*args, h0=np.zeros((E, N)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < L * E * N * 8, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# mamba-inner: a block after its in_proj as one node


def _inner_inputs(rng, L=6, E=4, N=3, R=2, w=4, M=4):
    """(xz, conv_w, conv_b, x_proj, dt_proj, dt_bias, A_log, D, out_proj)
    for mamba-inner."""
    return (rng.standard_normal((L, 2 * E)),
            rng.standard_normal((w, E)) * 0.5,
            rng.standard_normal(E) * 0.5,
            rng.standard_normal((E, R + 2 * N)) * 0.5,
            rng.standard_normal((R, E)) * 0.5,
            rng.standard_normal(E) * 0.5 - 1.0,
            rng.standard_normal((E, N)) * 0.5,
            rng.standard_normal(E),
            rng.standard_normal((E, M)))


def _inner_carries(rng, E=4, N=3, w=4):
    """(h0 [E, N], ctx [w-1, E]) for mamba-inner."""
    return rng.standard_normal((E, N)), rng.standard_normal((w - 1, E))


# without and with the carries, over one sequence and over three (2, 3, 1 rows)
INNER_RUNS = [(False, None), (True, None), (False, [0, 2, 5]), (True, [0, 2, 5])]


@pytest.mark.parametrize("with_carry, starts", INNER_RUNS)
def test_mamba_inner_matches_its_11_node_composition(with_carry, starts):
    """The fused node runs the composition's kernels in its operation order:
    output, both carries and the gradient of every input are bit-identical."""
    rng = np.random.default_rng(40)
    arrays = _inner_inputs(rng)
    carries = _inner_carries(rng) if with_carry else (None, None)
    readout = t64(rng.standard_normal((6, 4)))
    results = []
    for inner in (dc.mamba_inner, mamba_reference.inner_composition):
        leaves = [t64(a, requires_grad=True) for a in arrays]
        out, h_final, ctx_final = inner(*leaves, *carries, starts)
        dc.backward(dc.mean_pool(dc.mul(out, readout)))
        results.append([out.data, h_final.data, ctx_final.data]
                       + [leaf.grad for leaf in leaves])
    for i, (got, want) in enumerate(zip(*results)):
        assert np.array_equal(got, want), i


@pytest.mark.parametrize("with_carry, starts", INNER_RUNS)
def test_grad_check_mamba_inner(with_carry, starts):
    rng = np.random.default_rng(41)
    arrays = _inner_inputs(rng)
    carries = _inner_carries(rng) if with_carry else (None, None)
    readout = rng.standard_normal((6, 4))
    for i in range(9):
        def inner_loss(x, i=i):
            args = [t64(a) for a in arrays]
            args[i] = x
            out, _, _ = dc.mamba_inner(*args, *carries, starts)
            return dc.mean_pool(dc.mul(out, t64(readout)))
        _check(inner_loss, arrays[i])


def test_mamba_inner_rejects_bad_inputs():
    def fresh_args():                      # t64 wraps an array without copying it
        return [t64(a) for a in _inner_inputs(np.random.default_rng(42))]

    args = fresh_args()
    bad_shapes = {0: (6, 7),      # xz: not [L, 2E]
                  1: (4, 3),      # conv_w: E differs
                  2: (3,),        # conv_b
                  3: (4, 7),      # x_proj: not R + 2N columns
                  4: (2, 3),      # dt_proj: E differs
                  5: (4, 1),      # dt_bias: not [E]
                  6: (4, 2),      # A_log: N differs from x_proj's
                  7: (5,),        # D
                  8: (3, 4)}      # out_proj: E differs
    for i, shape in bad_shapes.items():
        broken = list(args)
        broken[i] = t64(np.zeros(shape))
        with pytest.raises(dc.ShapeError, match="mamba-inner"):
            dc.mamba_inner(*broken)
        broken[i] = dc.tensor(args[i].data, dtype=np.float32)
        with pytest.raises(dc.ShapeError, match="mixed dtypes"):
            dc.mamba_inner(*broken)
    with pytest.raises(dc.ShapeError):     # empty sequence
        dc.mamba_inner(t64(np.zeros((0, 8))), *args[1:])
    for name, carries in (("h0", (np.zeros((3, 4)), None)),
                          ("h0", (np.zeros((4, 3), np.float32), None)),
                          ("ctx", (None, np.zeros((4, 4)))),
                          ("ctx", (None, np.zeros((3, 4), np.float32)))):
        with pytest.raises(dc.ShapeError, match=name):
            dc.mamba_inner(*args, *carries)
    for name, shape in (("h0", (4, 3)), ("ctx", (3, 4))):
        carry = np.zeros(shape)
        carry[1, 1] = np.nan
        with pytest.raises(dc.NonFiniteError, match=f"mamba-inner: {name}"):
            dc.mamba_inner(*args, **{name: carry})
    with pytest.raises(dc.ShapeError, match="starts"):
        dc.mamba_inner(*args, starts=[0, 6])
    for i in range(9):
        args = fresh_args()
        args[i].data.flat[0] = np.nan
        with pytest.raises(dc.NonFiniteError, match=f"mamba-inner: input {i}"):
            dc.mamba_inner(*args)


@pytest.mark.parametrize("window", [slice(0, 2), slice(2, 5), slice(5, 8)],
                         ids=["dt", "B", "C"])
def test_mamba_inner_overflow_through_x_proj_raises(window):
    """A float32 x_proj column window whose products with u overflow fails
    loudly, wherever the inf would go next: a positive conv kernel over a
    positive signal makes every u >= silu(1) > 0.7, so each entry of the
    window's u x_proj is at least 4 * 0.7 * 3e38."""
    args = [a.astype(np.float32) for a in _inner_inputs(np.random.default_rng(43))]
    args[0][:, :4] = 4.0                   # the signal half of xz
    args[1][:] = 0.25                      # conv_w
    args[2][:] = 0.0                       # conv_b
    args[3][:, window] = 3e38              # x_proj
    with pytest.raises(dc.NonFiniteError, match="mamba-inner"):
        dc.mamba_inner(*(dc.tensor(a, np.float32) for a in args))


# ---------------------------------------------------------------------------
# packed sequences: starts reset the scan state and the conv context


def _starts(lengths):
    return np.cumsum([0] + list(lengths[:-1]))


def _packed_and_alone(prim, arrays, lengths, seq_rows, readout, grad, carry=None):
    """prim over the packed rows with starts, and over each sequence alone
    (its rows of every [L, .] input, shared inputs whole, the first sequence
    from carry and the others from zeros), each sequence's loss the sum of
    its readout products.  Returns, for both, the outputs, the final carry
    and the gradients (None without grad)."""
    starts = _starts(lengths)
    leaves = [t64(a, requires_grad=grad) for a in arrays]
    y, last = prim(*leaves, carry, starts=starts)
    if grad:
        dc.backward(dc.mean_pool(dc.mul(y, t64(readout))))
    packed = (y.data, last.data, [leaf.grad for leaf in leaves])
    ys, losses, leaves = [], [], [t64(a, requires_grad=grad) for a in arrays]
    for k, (s, n) in enumerate(zip(starts, lengths)):
        part = [dc.tslice(leaf, 0, s, s + n) if i in seq_rows else leaf
                for i, leaf in enumerate(leaves)]
        y_s, last = prim(*part, carry if k == 0 else None)
        ys.append(y_s)
        losses.append(dc.mul(y_s, t64(readout[s:s + n])))
    if grad:
        dc.backward(dc.mean_pool(dc.concat(losses, axis=0)))
    alone = (np.concatenate([y_s.data for y_s in ys]), last.data,
             [leaf.grad for leaf in leaves])
    return packed, alone


def _assert_packed_equals_alone(packed, alone, grad):
    for a, b in zip(packed[:2], alone[:2]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
    for g, g_ref in zip(packed[2], alone[2]):
        assert (g is None) == (g_ref is None) == (not grad)
        if grad:
            np.testing.assert_allclose(g, g_ref, rtol=1e-10)


# 16 is the no-gradient scan's block: a start inside a block, on its edge,
# and sequences shorter than the conv's w - 1 = 3 rows of context
PACKINGS = [(5, 16, 20), (16, 3, 22), (1, 2, 1, 9)]


@pytest.mark.parametrize("lengths", PACKINGS)
@pytest.mark.parametrize("grad", [False, True])
def test_selective_scan_packed_equals_each_sequence_alone(lengths, grad):
    rng = np.random.default_rng(30)
    L = sum(lengths)
    arrays = _scan_inputs(rng, L=L, E=5, N=3)
    packed, alone = _packed_and_alone(dc.selective_scan, arrays, lengths,
                                      {0, 1, 3, 4, 6}, rng.standard_normal((L, 5)), grad)
    _assert_packed_equals_alone(packed, alone, grad)


@pytest.mark.parametrize("lengths", PACKINGS)
def test_conv1d_depthwise_packed_equals_each_sequence_alone(lengths):
    rng = np.random.default_rng(31)
    L = sum(lengths)
    arrays = (rng.standard_normal((L, 5)), rng.standard_normal((4, 5)),
              rng.standard_normal(5))
    packed, alone = _packed_and_alone(dc.conv1d_depthwise, arrays, lengths, {0},
                                      rng.standard_normal((L, 5)), True)
    np.testing.assert_allclose(packed[0], alone[0], rtol=1e-12, atol=1e-14)
    # the carry continues the last sequence, zero-padded when it is short
    assert np.array_equal(packed[1], alone[1])
    for g, g_ref in zip(packed[2], alone[2]):
        np.testing.assert_allclose(g, g_ref, rtol=1e-10)


def test_one_sequence_as_starts_is_bit_identical_to_none():
    rng = np.random.default_rng(32)
    scan_args = _scan_inputs(rng, L=20, E=4, N=3)
    conv_args = (rng.standard_normal((20, 4)), rng.standard_normal((4, 4)),
                 rng.standard_normal(4))
    for prim, arrays in ((dc.selective_scan, scan_args), (dc.conv1d_depthwise, conv_args)):
        for grad in (False, True):
            outs = [prim(*(t64(a, requires_grad=grad) for a in arrays), starts=starts)
                    for starts in (None, [0])]
            assert np.array_equal(outs[0][0].data, outs[1][0].data)
            assert np.array_equal(outs[0][1].data, outs[1][1].data)


def test_grad_check_through_interior_starts():
    rng = np.random.default_rng(33)
    starts = [0, 2, 3]
    scan_args = _scan_inputs(rng, L=6, E=3, N=2)
    readout = rng.standard_normal((6, 3))
    for i in range(8):
        def scan_loss(x, i=i):
            args = [t64(a) for a in scan_args]
            args[i] = x
            y, _ = dc.selective_scan(*args, starts=starts)
            return dc.mean_pool(dc.mul(y, t64(readout)))
        _check(scan_loss, scan_args[i])
    conv_args = (rng.standard_normal((6, 3)), rng.standard_normal((3, 3)),
                 rng.standard_normal(3))
    for i in range(3):
        def conv_loss(x, i=i):
            args = [t64(a) for a in conv_args]
            args[i] = x
            y, _ = dc.conv1d_depthwise(*args, starts=starts)
            return dc.mean_pool(dc.mul(y, t64(readout)))
        _check(conv_loss, conv_args[i])


def test_packed_sequences_do_not_leak():
    """Changing the first sequence's inputs changes no output row, and no
    gradient row, of the second."""
    rng = np.random.default_rng(34)
    starts, L = [0, 7], 12
    scan_args = list(_scan_inputs(rng, L=L, E=4, N=3))
    conv_args = [rng.standard_normal((L, 4)), rng.standard_normal((4, 4)),
                 rng.standard_normal(4)]
    readout = t64(rng.standard_normal((L, 4)))
    for prim, arrays, seq_rows in ((dc.selective_scan, scan_args, (0, 1, 3, 4, 6)),
                                   (dc.conv1d_depthwise, conv_args, (0,))):
        runs = []
        for perturb in (False, True):
            inputs = [a.copy() for a in arrays]
            if perturb:
                for i in seq_rows:
                    inputs[i][:7] += rng.standard_normal(inputs[i][:7].shape)
            leaves = [t64(a, requires_grad=i in seq_rows) for i, a in enumerate(inputs)]
            y, _ = prim(*leaves, starts=starts)
            dc.backward(dc.mean_pool(dc.mul(y, readout)))
            runs.append((y.data, [leaves[i].grad for i in seq_rows]))
        (y, grads), (y_pert, grads_pert) = runs
        assert not np.array_equal(y[:7], y_pert[:7])
        assert np.array_equal(y[7:], y_pert[7:])
        for g, g_pert in zip(grads, grads_pert):
            assert np.array_equal(g[7:], g_pert[7:])


def test_bad_starts_raise_shape_error():
    rng = np.random.default_rng(35)
    scan_args = [t64(a) for a in _scan_inputs(rng, L=6, E=3, N=2)]
    conv_args = (t64(rng.standard_normal((6, 3))), t64(rng.standard_normal((3, 3))),
                 t64(rng.standard_normal(3)))
    bad = ([2, 0, 4],                     # unsorted
           [0, 3, 3],                     # repeated
           [1, 3],                        # not from 0
           [0, 6],                        # past the last row
           [0, -1],
           [],
           [[0, 2]],
           [0.0, 2.0])                    # not integers
    for starts in bad:
        with pytest.raises(dc.ShapeError, match="starts"):
            dc.selective_scan(*scan_args, starts=starts)
        with pytest.raises(dc.ShapeError, match="starts"):
            dc.conv1d_depthwise(*conv_args, starts=starts)


def _inner_packed(*args, starts=None):
    """mamba-inner in `_packed_and_alone`'s calling convention: the carry
    (h0, ctx) or None after the inputs; returns the output and both final
    carries joined into one Tensor."""
    *arrays, carry = args
    out, h_final, ctx_final = dc.mamba_inner(*arrays, *(carry or (None, None)),
                                             starts=starts)
    return out, t64(np.concatenate([h_final.data.ravel(), ctx_final.data.ravel()]))


# the packed primitives' sequence-typed inputs, with (E, N) = (4, 3)
_PACKED_PRIMS = {
    "scan": (dc.selective_scan, {0, 1, 3, 4, 6},
             lambda rng, L: _scan_inputs(rng, L=L, E=4, N=3),
             lambda rng: rng.standard_normal((4, 3))),
    "conv": (dc.conv1d_depthwise, {0},
             lambda rng, L: (rng.standard_normal((L, 4)), rng.standard_normal((4, 4)),
                             rng.standard_normal(4)),
             lambda rng: rng.standard_normal((3, 4))),
    "inner": (_inner_packed, {0}, lambda rng, L: _inner_inputs(rng, L=L), _inner_carries),
}


@pytest.mark.parametrize("kind", sorted(_PACKED_PRIMS))
def test_packed_carry_belongs_to_the_first_sequence(kind):
    # h0 / ctx is the state before row 0: the first sequence runs from it
    # as if alone, every later one from zeros; the last is shorter than the
    # conv's w - 1 = 3 rows of context, so its carry holds a zero row
    prim, seq_rows, make_inputs, make_carry = _PACKED_PRIMS[kind]
    rng = np.random.default_rng(36)
    lengths = (5, 7, 2)
    arrays = make_inputs(rng, sum(lengths))
    packed, alone = _packed_and_alone(prim, arrays, lengths, seq_rows,
                                      rng.standard_normal((sum(lengths), 4)), True,
                                      carry=make_carry(rng))
    _assert_packed_equals_alone(packed, alone, True)


@settings(max_examples=18, deadline=None, derandomize=True)
@example(kind="conv", lengths=[4, 1], with_carry=False, grad=True, seed=0)
@example(kind="inner", lengths=[3, 1, 6], with_carry=True, grad=True, seed=1)
@given(kind=st.sampled_from(sorted(_PACKED_PRIMS)),
       lengths=st.lists(st.integers(1, 20), min_size=1, max_size=5),
       with_carry=st.booleans(), grad=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_random_packings_match_each_sequence_alone(kind, lengths, with_carry, grad, seed):
    prim, seq_rows, make_inputs, make_carry = _PACKED_PRIMS[kind]
    rng = np.random.default_rng(seed)
    L = sum(lengths)
    arrays = make_inputs(rng, L)
    readout = rng.standard_normal((L, 4))
    carry = make_carry(rng) if with_carry else None
    packed, alone = _packed_and_alone(prim, arrays, lengths, seq_rows, readout,
                                      grad, carry=carry)
    _assert_packed_equals_alone(packed, alone, grad)


def test_gather_rows_accumulates_repeated_ids():
    table = t64(RNG.standard_normal((4, 3)), requires_grad=True)
    out = dc.gather_rows(table, [1, 3, 1, 1])
    assert np.array_equal(out.data, table.data[[1, 3, 1, 1]])
    readout = RNG.standard_normal((4, 3))
    dc.backward(dc.mean_pool(dc.mul(out, t64(readout))))
    expected = np.zeros((4, 3))
    expected[1] = (readout[0] + readout[2] + readout[3]) / 12
    expected[3] = readout[1] / 12
    np.testing.assert_allclose(table.grad, expected, rtol=1e-12)


def test_gather_rows_rejects_bad_ids():
    table = t64(np.ones((4, 3)))
    for ids in ([-1], [4], [], [[0, 1]], [0.5], [True]):
        with pytest.raises(dc.ShapeError, match="gather-rows"):
            dc.gather_rows(table, ids)


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
        assert dc.sigmoid(dc.tensor([0.0], dtype=dtype)).data[0] == 0.5
        for fn in (dc.silu, dc.sigmoid):
            x = dc.tensor([0.0], dtype=dtype, requires_grad=True)
            dc.backward(dc.mean_pool(fn(x)))
            assert x.grad[0] == (0.5 if fn is dc.silu else 0.25)


# central differences next to sigmoid(30) = 1 - 9e-14 are below float64's
# resolution, so sigmoid's slope there is checked against the math reference
# above and its finite-difference check stops at 15
GRAD_POINTS = {"sigmoid": (-30.0, -1e-8, 0.0, 15.0),
               "silu": (-30.0, -1e-8, 0.0, 30.0)}


@pytest.mark.parametrize("kind", sorted(GRAD_POINTS))
def test_elementwise_kernels_grad_check_up_to_30(kind):
    fn = ELEMENTWISE_REFS[kind][0]
    for point in GRAD_POINTS[kind]:                  # one at a time: a tiny slope
        _check(lambda x: dc.mean_pool(fn(x)), [point])  # is lost in a shared mean


def _softplus_ref(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_delta_at_extreme_inputs(dtype):
    """The scan's fused softplus at dt = STRESS_X: nothing overflows forward
    or backward, and exp(-delta) and its slope match the math to a few ulp,
    times delta, which exp turns from an absolute into a relative error."""
    dt = dc.tensor([STRESS_X], dtype, requires_grad=True)
    y, h_final = _delta_scan(dt, dc.tensor(np.zeros(len(STRESS_X)), dtype))
    dc.backward(dc.mean_pool(y))
    slope = dt.grad[0] * len(STRESS_X) / 64.0         # undo the mean and the gate; exact
    finfo = np.finfo(dtype)
    value_ref = lambda x: math.exp(-_softplus_ref(x))
    slope_ref = lambda x: -math.exp(-_softplus_ref(x)) * _sigmoid_ref(x)
    for got, ref_fn in ((h_final.data[:, 0], value_ref), (slope, slope_ref)):
        assert got.dtype == dtype and np.isfinite(got).all()
        for xi, gi in zip(dt.data[0], got):
            ref = ref_fn(float(xi))
            if abs(ref) >= finfo.tiny:
                growth = max(1.0, _softplus_ref(float(xi)))
                assert abs(gi - ref) <= 8 * finfo.eps * growth * abs(ref), (xi, gi, ref)
            else:                                     # below the normal range
                assert abs(gi - ref) <= finfo.tiny, (xi, gi, ref)


def test_scan_delta_grad_check_up_to_30():
    # below dt = -8 the change exp(-delta) sees is under float64's resolution
    # next to 1, so the slope in that tail is checked against the math in
    # test_scan_delta_at_extreme_inputs; here dt and dt_bias one at a time
    for point in (-8.0, -1e-8, 0.0, 30.0):
        _check(lambda x: dc.mean_pool(_delta_scan(x, t64([0.0]))[0]), [[point]])
        _check(lambda x: dc.mean_pool(_delta_scan(t64([[0.0]]), x)[0]), [point])


def _sigmoid_composition(x):
    """The pose head's former on-tape sigmoid: exp(-softplus(-x)), with the
    softplus as log(1 + exp(.))."""
    minus = t64(-1.0)
    return dc.exp(dc.mul(dc.log(dc.add(dc.exp(dc.mul(x, minus)), t64(1.0))), minus))


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
    assert dc.mean_pool(x, axis=1, keepdims=True).shape == (4, 1)
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

    err = grad_check(bad_fn, t64(RNG.standard_normal(4) + 2.0))
    assert 0.30 < err < 0.36


def test_first_gradient_is_an_owned_copy():
    # add's backward hands one g to both operands: a stores it first, then
    # mul adds a second contribution into a.grad, which must not reach b.grad
    a = t64([1.0, 2.0, 3.0], requires_grad=True)
    b = t64([4.0, 5.0, 6.0], requires_grad=True)
    k = t64([7.0, 8.0, 9.0])
    dc.backward(dc.mean_pool(dc.add(dc.add(a, b), dc.mul(a, k))))
    np.testing.assert_array_equal(b.grad, np.full(3, 1.0 / 3.0))
    np.testing.assert_allclose(a.grad, (1.0 + k.data) / 3.0, rtol=1e-15)
    assert not np.shares_memory(a.grad, b.grad)


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


def test_backward_clears_the_gradient_of_an_earlier_sweep():
    """Two sweeps that share a leaf: the second returns, and leaves in
    .grad, its own gradient alone; the first's result is not changed."""
    x = t64([1.0, 2.0], requires_grad=True)
    first = dc.backward(dc.mean_pool(dc.mul(x, x)))              # 2x / 2
    second = dc.backward(dc.mean_pool(dc.mul(x, t64([3.0, 5.0]))))
    np.testing.assert_array_equal(first[x], [1.0, 2.0])
    np.testing.assert_array_equal(second[x], [1.5, 2.5])
    assert x.grad is second[x]


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
                            t64(RNG.standard_normal((3, 4))), t64(np.zeros(2)))


def test_conv1d_depthwise_rejects_bad_ctx():
    x = t64(RNG.standard_normal((5, 2)))
    k = t64(RNG.standard_normal((3, 2)))
    b = t64(np.zeros(2))
    with pytest.raises(dc.ShapeError, match="ctx"):
        dc.conv1d_depthwise(x, k, b, np.zeros((3, 2)))         # w rows, not w-1
    with pytest.raises(dc.ShapeError, match="ctx"):
        dc.conv1d_depthwise(x, k, b, np.zeros((2, 3)))
    with pytest.raises(dc.ShapeError, match="ctx"):
        dc.conv1d_depthwise(x, k, b, np.zeros((2, 2), dtype=np.float32))
    for bad in (np.nan, np.inf):
        ctx = np.zeros((2, 2))
        ctx[1, 0] = bad
        with pytest.raises(dc.NonFiniteError, match="ctx"):
            dc.conv1d_depthwise(x, k, b, ctx)


def test_conv1d_depthwise_rejects_bad_bias():
    x = t64(RNG.standard_normal((5, 2)))
    k = t64(RNG.standard_normal((3, 2)))
    for shape in ((3,), (1, 2)):
        with pytest.raises(dc.ShapeError, match="bias"):
            dc.conv1d_depthwise(x, k, t64(np.zeros(shape)))
    with pytest.raises(dc.ShapeError, match="mixed dtypes"):
        dc.conv1d_depthwise(x, k, dc.tensor(np.zeros(2), dtype=np.float32))
    for bad in (np.nan, np.inf):
        with pytest.raises(dc.NonFiniteError, match="conv1d-depthwise: input 2"):
            dc.conv1d_depthwise(x, k, t64([0.0, bad]))


def test_nonfinite_input_rejected():
    bad = t64([np.nan, 1.0])
    with pytest.raises(dc.NonFiniteError):
        dc.silu(bad)
    with pytest.raises(dc.NonFiniteError):
        dc.add(t64([1.0]), t64([np.inf]))
    # slice and gather-rows check a plain leaf whole, not just what they read
    table = t64([[0.0, 1.0], [2.0, 3.0], [4.0, np.nan]])
    with pytest.raises(dc.NonFiniteError, match="slice: input 0"):
        dc.tslice(table, 0, 0, 2)
    with pytest.raises(dc.NonFiniteError, match="gather-rows: input 0"):
        dc.gather_rows(table, [0, 1])


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
                  1: (5, 3),      # dt: L differs
                  2: (3, 3),      # A_log: N differs from B and C
                  4: (4, 3),      # C: N differs
                  5: (2,),        # D: E differs
                  6: (4, 2),      # z: E differs
                  7: (3, 1)}      # dt_bias: not [E]
    for i, shape in bad_shapes.items():
        broken = list(args)
        broken[i] = t64(np.zeros(shape))
        with pytest.raises(dc.ShapeError):
            dc.selective_scan(*broken, h0=h0)
    with pytest.raises(dc.ShapeError):     # empty sequence
        dc.selective_scan(*(t64(a.data[:0]) if a.shape[0] == 4 else a for a in args))
    with pytest.raises(dc.ShapeError):
        dc.selective_scan(*args, h0=np.zeros((2, 3)))
    for i in (4, 6, 7):                    # C, z, dt_bias
        broken = list(args)
        broken[i] = dc.tensor(args[i].data, dtype=np.float32)
        with pytest.raises(dc.ShapeError, match="mixed dtypes"):
            dc.selective_scan(*broken)
    with pytest.raises(dc.ShapeError):
        dc.selective_scan(*args, h0=h0.astype(np.float32))


def test_selective_scan_rejects_non_finite_inputs_and_carry():
    def fresh_args():                      # t64 wraps an array without copying it
        return [t64(a) for a in _scan_inputs(np.random.default_rng(10), L=4, E=3, N=2)]

    for i in range(8):
        args = fresh_args()
        args[i].data.flat[0] = np.nan
        with pytest.raises(dc.NonFiniteError, match=f"selective-scan: input {i}"):
            dc.selective_scan(*args)
    args = fresh_args()                    # finite dt and dt_bias whose sum is not
    args[1].data.flat[0] = args[7].data[0] = 1e308
    with pytest.raises(dc.NonFiniteError, match="dt \\+ dt_bias overflows"):
        dc.selective_scan(*args)
    h0 = np.zeros((3, 2))
    h0[1, 1] = np.nan
    with pytest.raises(dc.NonFiniteError, match="selective-scan: h0"):
        dc.selective_scan(*fresh_args(), h0=h0)


# ---------------------------------------------------------------------------
# check once: node outputs and parameters are marked, plain leaves are not


def test_marked_inputs_are_not_rescanned(scanned_sizes):
    x = t64(RNG.standard_normal((3, 4)))
    w = dc.param(RNG.standard_normal((4, 5)), np.float64)
    hidden = dc.silu(x)
    scanned_sizes.clear()
    dc.matmul(hidden, w)          # node output and parameter: only the output
    assert scanned_sizes == [15]
    scanned_sizes.clear()
    dc.matmul(x, w)               # a plain leaf is scanned at every use
    assert scanned_sizes == [12, 15]
    scanned_sizes.clear()
    dc.tslice(hidden, 0, 1, 2)    # so a sweep of slices over a node stays linear
    dc.gather_rows(w, [2, 2, 0])
    assert scanned_sizes == [4, 15]


def test_param_rejects_non_finite_values():
    with pytest.raises(dc.NonFiniteError, match="param"):
        dc.param([1.0, np.inf], np.float64)


def test_param_given_new_array_is_checked_at_next_use(scanned_sizes):
    w = dc.param(np.ones((2, 2)), np.float64)
    x = dc.tensor(np.ones((1, 2)), dtype=np.float64)
    w.data = np.array([[1.0, np.nan], [1.0, 1.0]])
    with pytest.raises(dc.NonFiniteError, match="matmul: input 1"):
        dc.matmul(x, w)
    w.data = np.full((2, 2), 2.0)
    scanned_sizes.clear()
    dc.matmul(x, w)               # checked once, then marked again
    dc.matmul(x, w)
    assert scanned_sizes == [2, 4, 2, 2, 2]


def test_plain_leaf_written_in_place_is_caught():
    x = t64([1.0, 2.0])
    dc.silu(x)
    x.data[0] = np.nan
    with pytest.raises(dc.NonFiniteError, match="silu: input 0"):
        dc.silu(x)


def test_nan_written_in_place_into_marked_param_fails_the_output_check():
    """The mark trusts the array, so an in-place NaN is not seen at the
    input: the first node it reaches rejects its own output instead."""
    w = dc.param(np.ones((2, 2)), np.float64)
    x = t64([[1.0, 2.0]])
    w.data[0, 0] = np.nan
    with pytest.raises(dc.NonFiniteError, match="matmul: produced non-finite values"):
        dc.matmul(x, w)


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
    # the scan's delta grows with dt, so its state decay exp(-delta) shrinks
    lo, hi = sorted((a, b))
    h_final = _delta_scan(t64([[lo, hi]]), t64([0.0, 0.0]))[1].data[:, 0]
    assert h_final[0] >= h_final[1] - 1e-12
