"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is closed: every model operation in this package composes
from the kinds registered in `PRIMITIVES`.  Each primitive validates input
shapes/dtypes, rejects non-finite inputs, and registers a backward closure
on the implicit tape (the parent links of the output tensor).  `grad_check`
verifies any composition against central finite differences.

A tape is confined to one logical thread of execution: primitives share no
mutable module state, so independent graphs may be built concurrently, but a
single graph must not be mutated from two threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from mambavla import ssm

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "tensor",
    "apply_primitive",
    "PRIMITIVES",
    "matmul",
    "add",
    "mul",
    "sigmoid",
    "silu",
    "softplus",
    "exp",
    "log",
    "absolute",
    "arccos",
    "mean_pool",
    "max_pool",
    "layer_norm",
    "conv1d_depthwise",
    "softmax_rows",
    "concat",
    "tslice",
    "selective_scan",
    "backward",
    "grad_check",
]

_ALLOWED_DTYPES = (np.float32, np.float64)

# arccos arguments are clamped into the open interval (-1, 1) by this margin,
# keeping the loss finite; the gradient is zero in the clamped region.
ARCCOS_CLAMP = 1e-7


class ShapeError(ValueError):
    """Inputs do not conform to a primitive's signature."""


class NonFiniteError(ArithmeticError):
    """A primitive saw or produced NaN / Inf."""


class TapeError(RuntimeError):
    """Backward was called on an already-consumed tape."""


class Tensor:
    """A dense float32/float64 array plus optional autodiff bookkeeping.

    `data` is always C-contiguous row-major.  `grad` is populated on
    requires_grad leaves after `backward`.  Internal nodes carry parent
    links and a backward closure until the tape is consumed.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        arr = np.ascontiguousarray(data)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def backward(self) -> dict["Tensor", np.ndarray]:
        return backward(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


def tensor(values, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """Build a leaf tensor from array-like values."""
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# graph plumbing


def _check_finite_inputs(kind: str, tensors: Iterable[Tensor]) -> None:
    for i, t in enumerate(tensors):
        if not np.isfinite(t.data).all():
            raise NonFiniteError(f"{kind}: input {i} contains non-finite values")


def _check_finite_output(kind: str, out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{kind}: produced non-finite values")
    return out


def _common_dtype(kind: str, tensors: Sequence[Tensor]):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"{kind}: mixed dtypes {dt} vs {t.data.dtype}")
    return dt


def _make_node(kind: str, out_data: np.ndarray, parents: Sequence[Tensor],
               backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(_check_finite_output(kind, out_data))
    if backward_fn is not None and any(p.requires_grad or p._backward_fn is not None
                                       for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # grads accumulate in the tensor's own dtype; lazily allocated
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g.astype(t.data.dtype, copy=False).reshape(t.data.shape)


# Broadcast helpers: `axes` maps each axis of a small operand onto axes of the
# full output rank.  None means numpy's usual trailing alignment.

def _expand(data: np.ndarray, axes: tuple[int, ...] | None, out_rank: int) -> np.ndarray:
    if axes is None:
        return data
    if len(axes) != data.ndim:
        raise ShapeError(f"axes {axes} do not match operand rank {data.ndim}")
    if sorted(axes) != list(axes) or len(set(axes)) != len(axes):
        raise ShapeError(f"axes {axes} must be strictly increasing")
    if axes and axes[-1] >= out_rank:
        raise ShapeError(f"axes {axes} exceed output rank {out_rank}")
    shape = [1] * out_rank
    for src, dst in enumerate(axes):
        shape[dst] = data.shape[src]
    return data.reshape(shape)


def _unbroadcast(grad: np.ndarray, operand: Tensor, axes: tuple[int, ...] | None,
                 out_rank: int) -> np.ndarray:
    if axes is None:
        # trailing alignment: missing leading axes behave like size-1
        expanded_shape = (1,) * (out_rank - operand.data.ndim) + operand.data.shape
    else:
        expanded_shape = _expand(operand.data, axes, out_rank).shape
    reduce_axes = tuple(i for i in range(out_rank)
                        if expanded_shape[i] == 1 and grad.shape[i] != 1)
    if reduce_axes:
        grad = grad.sum(axis=reduce_axes, keepdims=True)
    return grad.reshape(operand.data.shape)


def _binary_broadcast(kind: str, op, a: Tensor, b: Tensor,
                      a_axes: tuple[int, ...] | None,
                      b_axes: tuple[int, ...] | None) -> Tensor:
    _common_dtype(kind, (a, b))
    _check_finite_inputs(kind, (a, b))
    explicit = [ax for ax in (a_axes, b_axes) if ax is not None]
    out_rank = max([a.data.ndim, b.data.ndim] + [max(ax) + 1 for ax in explicit if ax])
    try:
        ae = _expand(a.data, a_axes, out_rank)
        be = _expand(b.data, b_axes, out_rank)
        out_data = op(ae, be)
    except ValueError as err:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast "
                         f"(a_axes={a_axes}, b_axes={b_axes})") from err
    final_rank = out_data.ndim

    if kind == "add":
        def backward_fn(g: np.ndarray) -> None:
            if a.requires_grad or a._backward_fn is not None:
                _accumulate(a, _unbroadcast(g, a, a_axes, final_rank))
            if b.requires_grad or b._backward_fn is not None:
                _accumulate(b, _unbroadcast(g, b, b_axes, final_rank))
    else:  # mul
        def backward_fn(g: np.ndarray) -> None:
            if a.requires_grad or a._backward_fn is not None:
                _accumulate(a, _unbroadcast(g * be, a, a_axes, final_rank))
            if b.requires_grad or b._backward_fn is not None:
                _accumulate(b, _unbroadcast(g * ae, b, b_axes, final_rank))

    return _make_node(kind, out_data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, transpose_a: bool = False,
           transpose_b: bool = False) -> Tensor:
    """GEMM on 2-D operands: op(a) @ op(b) with optional transposes."""
    _common_dtype("matmul", (a, b))
    _check_finite_inputs("matmul", (a, b))
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    am = a.data.T if transpose_a else a.data
    bm = b.data.T if transpose_b else b.data
    if am.shape[1] != bm.shape[0]:
        raise ShapeError(f"matmul: inner dims differ: {am.shape} @ {bm.shape}")
    out_data = am @ bm

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad or a._backward_fn is not None:
            gam = g @ bm.T                       # gradient w.r.t. op_a(a)
            _accumulate(a, gam.T if transpose_a else gam)
        if b.requires_grad or b._backward_fn is not None:
            gbm = am.T @ g                       # gradient w.r.t. op_b(b)
            _accumulate(b, gbm.T if transpose_b else gbm)

    return _make_node("matmul", out_data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor, a_axes: tuple[int, ...] | None = None,
        b_axes: tuple[int, ...] | None = None) -> Tensor:
    """Elementwise sum with broadcasting; `*_axes` map a smaller operand's
    axes onto output axes (default: numpy trailing alignment)."""
    return _binary_broadcast("add", np.add, a, b, a_axes, b_axes)


def mul(a: Tensor, b: Tensor, a_axes: tuple[int, ...] | None = None,
        b_axes: tuple[int, ...] | None = None) -> Tensor:
    """Elementwise product with broadcasting, same alignment rules as add."""
    return _binary_broadcast("mul", np.multiply, a, b, a_axes, b_axes)


# The logistic and softplus kernels use exp forms, not np.logaddexp: on a
# float32 [378, 512] array (numpy 2.4, one Xeon core) the logaddexp forms took
# 7.0 ms (sigmoid) and 5.6 ms (softplus) against 0.27 ms and 0.60 ms for the
# forms below, and they were the top self-time entry of an LM forward +
# backward.  The sigmoid works in place: silu calls it on every [L, E] block
# activation.

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf only where the sigmoid rounds to 0 anyway,
    # and 1 / (1 + inf) is exactly that 0
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)), saturating to exactly 0 and 1; sigmoid(0) = 0.5."""
    _check_finite_inputs("sigmoid", (x,))
    out_data = _sigmoid(x.data)

    def backward_fn(g: np.ndarray) -> None:
        # sigmoid'(x) = e / (1 + e)^2 with e = exp(-|x|): even in x, so both
        # tails keep full relative precision, where out * (1 - out) would
        # round 1 - out for large x
        e = np.exp(-np.abs(x.data))
        _accumulate(x, g * (e / ((1.0 + e) * (1.0 + e))))

    return _make_node("sigmoid", out_data, (x,), backward_fn)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); derivative at 0 is exactly 0.5."""
    _check_finite_inputs("silu", (x,))
    sig = _sigmoid(x.data)
    out_data = x.data * sig

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * (sig * (1.0 + x.data * (1.0 - sig))))

    return _make_node("silu", out_data, (x,), backward_fn)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)), which cannot overflow;
    softplus(0) = ln 2."""
    _check_finite_inputs("softplus", (x,))
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * _sigmoid(x.data))

    return _make_node("softplus", out_data, (x,), backward_fn)


def exp(x: Tensor) -> Tensor:
    _check_finite_inputs("exp", (x,))
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * out_data)

    return _make_node("exp", out_data, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    """Natural log; non-positive inputs surface as NonFiniteError."""
    _check_finite_inputs("log", (x,))
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(x.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    return _make_node("log", out_data, (x,), backward_fn)


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    _check_finite_inputs("abs", (x,))
    out_data = np.abs(x.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * np.sign(x.data))

    return _make_node("abs", out_data, (x,), backward_fn)


def arccos(x: Tensor) -> Tensor:
    """arccos with its argument clamped to [-1+1e-7, 1-1e-7].

    The clamp keeps the output and gradient finite at the endpoints; the
    gradient is zero where the clamp is active.
    """
    _check_finite_inputs("arccos", (x,))
    lo, hi = -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP
    clamped = np.clip(x.data, lo, hi)
    out_data = np.arccos(clamped)
    inside = (x.data > lo) & (x.data < hi)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, np.where(inside, -g / np.sqrt(1.0 - clamped * clamped), 0.0))

    return _make_node("arccos", out_data, (x,), backward_fn)


def mean_pool(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean over one axis, or over all elements when axis is None."""
    _check_finite_inputs("mean-pool", (x,))
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeError(f"mean-pool: axis {axis} out of range for shape {x.shape}")
    out_data = np.mean(x.data, axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else x.data.shape[axis]

    def backward_fn(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(x, np.full_like(x.data, g.sum() / count))
        else:
            gexp = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.repeat(gexp / count, x.data.shape[axis], axis=axis))

    return _make_node("mean-pool", out_data, (x,), backward_fn)


def max_pool(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; the gradient flows to the first maximal entry."""
    _check_finite_inputs("max-pool", (x,))
    if not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeError(f"max-pool: axis {axis} out of range for shape {x.shape}")
    out_data = np.max(x.data, axis=axis, keepdims=keepdims)
    idx = np.argmax(x.data, axis=axis)

    def backward_fn(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gexp = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), gexp, axis=axis)
        _accumulate(x, gx)

    return _make_node("max-pool", out_data, (x,), backward_fn)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    _check_finite_inputs("layer-norm", (x,))
    if x.data.ndim < 1:
        raise ShapeError("layer-norm: needs at least one axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv

    def backward_fn(g: np.ndarray) -> None:
        # d/dx of (x-mu)/sigma: project out the mean and the y-component
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        _accumulate(x, (g - gm - y * gy) * inv)

    return _make_node("layer-norm", y, (x,), backward_fn)


def conv1d_depthwise(x: Tensor, kernel: Tensor) -> Tensor:
    """Causal depthwise 1-D convolution.

    x: [L, D], kernel: [w, D].  Output y[t, d] = sum_i kernel[i, d] *
    x[t - w + 1 + i, d] with zero left-padding, so y[t] never sees x[>t].
    """
    _common_dtype("conv1d-depthwise", (x, kernel))
    _check_finite_inputs("conv1d-depthwise", (x, kernel))
    if x.data.ndim != 2 or kernel.data.ndim != 2:
        raise ShapeError(f"conv1d-depthwise: expects x [L,D], kernel [w,D]; "
                         f"got {x.shape}, {kernel.shape}")
    L, D = x.data.shape
    w, Dk = kernel.data.shape
    if D != Dk:
        raise ShapeError(f"conv1d-depthwise: channel mismatch {D} vs {Dk}")
    pad = np.zeros((w - 1, D), dtype=x.data.dtype)
    xp = np.concatenate([pad, x.data], axis=0)          # [L+w-1, D]
    out_data = np.zeros_like(x.data)
    for i in range(w):
        out_data += kernel.data[i] * xp[i:i + L]

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad or x._backward_fn is not None:
            gxp = np.zeros_like(xp)
            for i in range(w):
                gxp[i:i + L] += kernel.data[i] * g
            _accumulate(x, gxp[w - 1:])
        if kernel.requires_grad or kernel._backward_fn is not None:
            gk = np.stack([(xp[i:i + L] * g).sum(axis=0) for i in range(w)])
            _accumulate(kernel, gk)

    return _make_node("conv1d-depthwise", out_data, (x, kernel), backward_fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, max-shifted for stability."""
    _check_finite_inputs("softmax-rows", (x,))
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make_node("softmax-rows", y, (x,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis."""
    if len(tensors) == 0:
        raise ShapeError("concat: needs at least one tensor")
    _common_dtype("concat", tensors)
    _check_finite_inputs("concat", tensors)
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as err:
        raise ShapeError(f"concat: incompatible shapes "
                         f"{[t.shape for t in tensors]} on axis {axis}") from err
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._backward_fn is not None:
                sl = [np.s_[:]] * g.ndim
                sl[axis] = np.s_[start:stop]
                _accumulate(t, g[tuple(sl)])

    return _make_node("concat", out_data, tuple(tensors), backward_fn)


def tslice(x: Tensor, axis: int, start: int, stop: int, squeeze: bool = False) -> Tensor:
    """Contiguous window [start, stop) along one axis.

    With squeeze=True (requires stop == start + 1) the sliced axis is dropped,
    i.e. x[t] rather than x[t:t+1].

    Only the consumed window is checked for finiteness -- scanning the whole
    source on every step would turn a length-L sweep of slices quadratic.
    """
    ndim = x.data.ndim
    if not (-ndim <= axis < ndim):
        raise ShapeError(f"slice: axis {axis} out of range for shape {x.shape}")
    axis = axis % ndim
    n = x.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice: window [{start}, {stop}) invalid for axis "
                         f"of length {n}")
    if squeeze and stop - start != 1:
        raise ShapeError("slice: squeeze requires a single-element window")
    sl = [np.s_[:]] * ndim
    sl[axis] = start if squeeze else np.s_[start:stop]
    out_data = np.ascontiguousarray(x.data[tuple(sl)])
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"slice: non-finite value in window [{start}, {stop}) "
                             f"of axis {axis}")

    def backward_fn(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        gview = np.expand_dims(g, axis) if squeeze else g
        wsl = [np.s_[:]] * ndim
        wsl[axis] = np.s_[start:stop]
        x.grad[tuple(wsl)] += gview

    return _make_node("slice", out_data, (x,), backward_fn)


def selective_scan(u: Tensor, delta: Tensor, A_log: Tensor, B: Tensor, C: Tensor,
                   h0: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Selective SSM over one sequence: ZOH discretization, scan and readout.

    u, delta: [L, E]; A_log: [E, N]; B, C: [L, N]; h0: [E, N] carried state
    (zeros when None).  With A = -exp(A_log) and 1/A = -exp(-A_log):

        Abar_t = exp(delta_t A),  Bbar_t = (Abar_t - 1) (1/A) B_t   (exact ZOH)
        h_t = Abar_t h_{t-1} + Bbar_t u_t,  y_t = C_t . h_t

    Returns (y [L, E], h_final [E, N]); the final state is a plain array for
    the generation carry and gets no gradient.  The forward pass is
    `ssm.scan_sequential`, which keeps the states; backward runs the
    reverse-time adjoint dh_t = dy_t C_t + Abar_{t+1} dh_{t+1} once and
    everything else vectorised over [L, E, N].
    """
    kind = "selective-scan"
    inputs = (u, delta, A_log, B, C)
    dtype = _common_dtype(kind, inputs)
    if any(t.data.ndim != 2 for t in inputs):
        raise ShapeError(f"{kind}: expects 2-D inputs, got {[t.shape for t in inputs]}")
    L, E = u.shape
    N = A_log.shape[1]
    expected = ((L, E), (L, E), (E, N), (L, N), (L, N))
    if L == 0 or any(t.shape != s for t, s in zip(inputs, expected)):
        raise ShapeError(f"{kind}: expects u, delta [L, E], A_log [E, N], B, C [L, N] "
                         f"with L >= 1; got {[t.shape for t in inputs]}")
    _check_finite_inputs(kind, inputs)
    if h0 is not None:
        h0 = np.asarray(h0)
        if h0.shape != (E, N):
            raise ShapeError(f"{kind}: h0 must be [E, N] = {(E, N)}, got {h0.shape}")
        if h0.dtype != dtype:
            raise ShapeError(f"{kind}: mixed dtypes {dtype} vs h0 {h0.dtype}")
        if not np.isfinite(h0).all():
            raise NonFiniteError(f"{kind}: h0 contains non-finite values")

    with np.errstate(over="ignore", invalid="ignore"):
        A = -np.exp(A_log.data)              # never crosses zero, so 1/A is exact
        inv_A = -np.exp(-A_log.data)
        if not (np.isfinite(A).all() and np.isfinite(inv_A).all()):
            raise NonFiniteError(f"{kind}: exp(+-A_log) overflows")
        # each [L, E, N] array is built once, in place; the operation order
        # is that of Abar = exp(delta A), Bbar = (Abar - 1) (1/A) B
        Abar = np.multiply(delta.data[:, :, None], A)               # [L, E, N]
        np.exp(Abar, out=Abar)
        coef = Abar - 1.0                                           # (Abar - 1) / A
        coef *= inv_A
        Bbar = coef * B.data[:, None, :]
        y, h_final, states = ssm.scan_sequential(Abar, Bbar, C.data, u.data, h0,
                                                 return_states=True)
    _check_finite_output(kind, h_final)

    def backward_fn(g: np.ndarray) -> None:
        # reductions go through einsum: summing a short trailing axis with
        # .sum() is several times slower in numpy
        need_u, need_delta, need_A_log, need_B, need_C = (
            t.requires_grad or t._backward_fn is not None for t in inputs)
        if need_C:
            _accumulate(C, np.einsum("le,len->ln", g, states))
        if not (need_u or need_delta or need_A_log or need_B):
            return
        dh = np.einsum("le,ln->len", g, C.data)                    # dy_t C_t
        carry = np.empty((E, N), dtype)
        for t in range(L - 2, -1, -1):
            dh[t] += np.multiply(Abar[t + 1], dh[t + 1], out=carry)
        if need_u or need_B:
            # Bbar = coef B is not kept: dh coef serves both gradients
            dh_coef = dh * coef
            if need_u:
                _accumulate(u, np.einsum("len,ln->le", dh_coef, B.data))
            if need_B:
                _accumulate(B, np.einsum("len,le->ln", dh_coef, u.data))
        if need_delta or need_A_log:
            dz = dh * u.data[:, :, None]                            # d/dBbar, then
            dz *= B.data[:, None, :]                                # d/dcoef
            if need_A_log:
                # d(1/A)/dA_log = -1/A, and (Abar - 1) / A is coef
                dA_log = -np.einsum("len,len->en", dz, coef)
            # d/d(delta A) = (dh_t h_{t-1} + dcoef / A) Abar_t; dh is spent,
            # so it takes dh_t h_{t-1}, with h_{t-1} a shifted view of states
            dz *= inv_A
            dz[1:] += np.multiply(dh[1:], states[:-1], out=dh[1:])
            if h0 is not None:
                dz[0] += np.multiply(dh[0], h0, out=dh[0])
            dz *= Abar
            if need_delta:
                _accumulate(delta, np.einsum("len,en->le", dz, A))
            if need_A_log:
                dA_log += np.einsum("len,le->en", dz, delta.data) * A   # dA/dA_log = A
                _accumulate(A_log, dA_log)

    return _make_node(kind, y, inputs, backward_fn), h_final


PRIMITIVES: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "mul": mul,
    "sigmoid": sigmoid,
    "silu": silu,
    "softplus": softplus,
    "exp": exp,
    "log": log,
    "abs": absolute,
    "arccos": arccos,
    "mean-pool": mean_pool,
    "max-pool": max_pool,
    "layer-norm": layer_norm,
    "conv1d-depthwise": conv1d_depthwise,
    "softmax-rows": softmax_rows,
    "concat": concat,
    "slice": tslice,
    "selective-scan": selective_scan,
}


def apply_primitive(kind: str, inputs: Sequence[Tensor],
                    **params) -> Tensor | tuple[Tensor, np.ndarray]:
    """Dispatch a primitive by kind string.

    `concat` takes its operand list as a single argument; everything else is
    positional.  Every kind returns one Tensor except `selective-scan`, which
    returns (y Tensor, final state ndarray) and takes its carried state as the
    `h0` keyword.  Unknown kinds raise ShapeError.
    """
    fn = PRIMITIVES.get(kind)
    if fn is None:
        raise ShapeError(f"unknown primitive kind {kind!r}; "
                         f"known: {sorted(PRIMITIVES)}")
    if kind == "concat":
        return fn(list(inputs), **params)
    return fn(*inputs, **params)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar root.

    Gradients add into each requires_grad leaf's `.grad`, and the returned
    {leaf: gradient} holds those same arrays for every such leaf reached by
    the graph.  So they are this root's gradient only when the caller cleared
    the buffers first (`Tensor.zero_grad`); otherwise they also carry what
    earlier sweeps left there.  The tape is consumed: a second backward on
    the same root raises TapeError.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    if root._consumed:
        raise TapeError("backward: tape already consumed for this root")

    # iterative topological order (model graphs can be thousands of nodes deep)
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)

    grads: dict[Tensor, np.ndarray] = {}
    for node in topo:
        is_leaf = node._backward_fn is None
        if is_leaf and node.requires_grad and node.grad is not None:
            grads[node] = node.grad
        elif not is_leaf:
            node.grad = None            # free transient storage
        # consume the tape
        node._parents = ()
        node._backward_fn = None
    root._consumed = True
    return grads


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
