"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is closed: every model operation in this package composes
from the 18 kinds registered in `PRIMITIVES`.  Each primitive validates input
shapes/dtypes, rejects non-finite values, and registers a backward closure
on the implicit tape (the parent links of the output tensor) when an input
has `requires_grad`, the only gradient flag.  `backward` clears the `.grad`
of every tensor it reaches before its sweep, so a leaf's `.grad` is the
last sweep's gradient, never a sum over sweeps.

Each array is checked for finiteness once, by one rule for every primitive:
a primitive checks and marks its output, `param` checks and marks a
parameter, and primitives skip marked inputs.  Plain leaves (constants,
user tensors) are checked whole at every use.  A parameter given a new
`.data` array is checked again at its next use.  The hole: a non-finite
value written in place into a marked array is not seen at the input.  A
NaN still fails the output check of the first node it reaches, but an inf
can vanish (exp, sigmoid or the scan's softplus at -inf), so code that
writes into a parameter in place, like the optimizer, checks what it
writes.

Carried state follows the same rule.  The state a primitive returns for the
next call (the scan's final state, the conv's trailing context, and both
from `mamba_inner`) is a no-grad Tensor built from checked arrays and
marked, so the next decode step does not rescan it; a plain array passed as
a carry is checked at every use.

Values derived from a parameter are cached on it the same way: the scan's
A = -exp(A_log) and 1/A are kept on the A_log tensor while its `.data` is
the array they came from.  A new `.data` array derives them again; code that
writes into `.data` in place calls `Tensor.drop_derived` after the write.

A tape is confined to one logical thread of execution: primitives share no
mutable module state, so independent graphs may be built concurrently, but a
single graph must not be mutated from two threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "tensor",
    "param",
    "PRIMITIVES",
    "matmul",
    "add",
    "mul",
    "sigmoid",
    "silu",
    "exp",
    "log",
    "absolute",
    "arccos",
    "mean_pool",
    "layer_norm",
    "conv1d_depthwise",
    "log_softmax_rows",
    "concat",
    "tslice",
    "gather_rows",
    "selective_scan",
    "mamba_inner",
    "backward",
    "tape_nodes",
]

_ALLOWED_DTYPES = (np.float32, np.float64)

# time steps per block of a scan that needs no gradient: its buffers are
# [SCAN_BLOCK, N, E], whatever the sequence length
SCAN_BLOCK = 16

# arccos arguments are clamped into the open interval (-1, 1) by this margin,
# keeping the loss finite; the gradient is zero in the clamped region.
ARCCOS_CLAMP = 1e-7

# added to the variance in layer_norm, so a constant row normalizes to zero
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Inputs do not conform to a primitive's signature."""


class NonFiniteError(ArithmeticError):
    """A primitive saw or produced NaN / Inf."""


class TapeError(RuntimeError):
    """Backward was called on an already-consumed tape."""


class Tensor:
    """A dense float32/float64 array plus optional autodiff bookkeeping.

    `data` is always C-contiguous row-major.  `requires_grad` is the only
    gradient flag: callers set it on leaves, and a primitive sets it on
    exactly the outputs that get a backward closure, which keep their parent
    links and the closure until the tape is consumed.  `grad` holds, on a
    requires_grad leaf, the gradient of the last `backward` that reached it.

    `_checked` is the finiteness mark: on node outputs and parameters, the
    array last found finite, trusted while it is still `data` (an in-place
    write keeps it); None on plain leaves, which are checked at every use.
    `_derived` caches values computed from a marked `data` array:
    (source array, *values), valid while the source is still `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed",
                 "_checked", "_derived")

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
        self._checked: np.ndarray | None = None
        self._derived: tuple | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def drop_derived(self) -> None:
        """Forget the values derived from `data` (the scan's A and 1/A).
        Call it after writing into `data` in place; assigning a new array
        to `data` needs no call."""
        self._derived = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


def tensor(values, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """Build a leaf tensor from array-like values."""
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=requires_grad)


def param(values, dtype=np.float32) -> Tensor:
    """Build a trainable parameter: a requires_grad leaf, checked finite
    once here and marked, so primitives do not rescan it."""
    p = Tensor(np.asarray(values, dtype=dtype), requires_grad=True)
    if not np.isfinite(p.data).all():
        raise NonFiniteError("param: values contain non-finite entries")
    p._checked = p.data
    return p


# ---------------------------------------------------------------------------
# graph plumbing


def _check_finite_inputs(kind: str, tensors: Iterable[Tensor]) -> None:
    """Check every unmarked input; a parameter given a new array is marked
    again, a plain leaf stays unmarked."""
    for i, t in enumerate(tensors):
        if t._checked is t.data:
            continue
        if not np.isfinite(t.data).all():
            raise NonFiniteError(f"{kind}: input {i} contains non-finite values")
        if t._checked is not None:
            t._checked = t.data


def _check_finite_output(kind: str, out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{kind}: produced non-finite values")
    return out


def _check_carry(kind: str, name: str, carry, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A carried input, such as a scan state: it gets no gradient, so it must
    match its shape and dtype exactly and be finite.  A carry returned by a
    primitive is marked and not rescanned; a plain array is checked at every
    use."""
    if isinstance(carry, Tensor):
        arr, marked = carry.data, carry._checked is carry.data
    else:
        arr, marked = np.asarray(carry), False
    if arr.shape != shape:
        raise ShapeError(f"{kind}: {name} must have shape {shape}, got {arr.shape}")
    if arr.dtype != dtype:
        raise ShapeError(f"{kind}: mixed dtypes {dtype} vs {name} {arr.dtype}")
    if not marked and not np.isfinite(arr).all():
        raise NonFiniteError(f"{kind}: {name} contains non-finite values")
    return arr


def _check_starts(kind: str, starts, L: int) -> list[int]:
    """The first row of each sequence packed into L rows: a non-empty 1-D
    integer sequence, strictly increasing from 0 and below L, returned as a
    list.  None is one sequence, [0]."""
    if starts is None:
        return [0]
    arr = np.asarray(starts)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise ShapeError(f"{kind}: starts must be a non-empty 1-D integer sequence, "
                         f"got shape {arr.shape} of {arr.dtype}")
    starts = arr.tolist()
    if starts[0] != 0 or starts[-1] >= L or any(b <= a for a, b in zip(starts, starts[1:])):
        raise ShapeError(f"{kind}: starts must rise strictly from 0 and stay "
                         f"below {L}, got {starts}")
    return starts


def _carry(arr: np.ndarray) -> Tensor:
    """A state a primitive returns for the next call, built from checked
    arrays: a no-grad Tensor, marked so that call does not rescan it."""
    out = Tensor(arr)
    out._checked = out.data
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
    out._checked = out.data
    if backward_fn is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # grads accumulate in the tensor's own dtype.  The first gradient is
    # stored as a copy, never as g itself: add's backward hands the same g to
    # both operands, and a later += into one would change the other's
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C").reshape(t.data.shape)
    else:
        t.grad += g.astype(t.data.dtype, copy=False).reshape(t.data.shape)


def _unbroadcast(grad: np.ndarray, operand: Tensor) -> np.ndarray:
    # trailing alignment: missing leading axes behave like size-1
    out_rank = grad.ndim
    expanded_shape = (1,) * (out_rank - operand.data.ndim) + operand.data.shape
    reduce_axes = tuple(i for i in range(out_rank)
                        if expanded_shape[i] == 1 and grad.shape[i] != 1)
    if reduce_axes:
        grad = grad.sum(axis=reduce_axes, keepdims=True)
    return grad.reshape(operand.data.shape)


def _binary_broadcast(kind: str, op, a: Tensor, b: Tensor) -> Tensor:
    _common_dtype(kind, (a, b))
    _check_finite_inputs(kind, (a, b))
    try:
        out_data = op(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast") from err

    if kind == "add":
        def backward_fn(g: np.ndarray) -> None:
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b))
    else:  # mul
        def backward_fn(g: np.ndarray) -> None:
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g * b.data, a))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g * a.data, b))

    return _make_node(kind, out_data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """GEMM on 2-D operands: a @ b, or a @ b.T with transpose_b."""
    _common_dtype("matmul", (a, b))
    _check_finite_inputs("matmul", (a, b))
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    am = a.data
    bm = b.data.T if transpose_b else b.data
    if am.shape[1] != bm.shape[0]:
        raise ShapeError(f"matmul: inner dims differ: {am.shape} @ {bm.shape}")
    out_data = am @ bm

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ bm.T)
        if b.requires_grad:
            gbm = am.T @ g                       # gradient w.r.t. op_b(b)
            _accumulate(b, gbm.T if transpose_b else gbm)

    return _make_node("matmul", out_data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy's trailing-axis broadcasting."""
    return _binary_broadcast("add", np.add, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy's trailing-axis broadcasting."""
    return _binary_broadcast("mul", np.multiply, a, b)


# The logistic kernel and the scan's softplus use exp forms, not np.logaddexp:
# on a float32 [378, 512] array (numpy 2.4, one Xeon core) the logaddexp forms
# took 7.0 ms (sigmoid) and 5.6 ms (softplus) against 0.27 ms and 0.60 ms for
# the exp forms, and they were the top self-time entry of an LM forward +
# backward.  The sigmoid works in place: silu, the conv and the scan's gate
# call it on [L, E] block activations.

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    gain and shift by bias ([D] each, D the last axis of x):
    ((x - mu) / sigma) * gain + bias, with sigma = sqrt(var + LAYER_NORM_EPS)."""
    kind = "layer-norm"
    _common_dtype(kind, (x, gain, bias))
    _check_finite_inputs(kind, (x, gain, bias))
    if x.data.ndim < 1:
        raise ShapeError(f"{kind}: needs at least one axis")
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(f"{kind}: gain and bias must have shape {x.shape[-1:]}, "
                         f"got {gain.shape} and {bias.shape}")
    # the arithmetic of x.mean() and x.var() without their Python-level
    # wrappers, which cost more than the sums on a decode step's one row
    n = np.intp(x.data.shape[-1])
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    np.true_divide(mu, n, out=mu, casting="unsafe")
    y = x.data - mu
    var = np.add.reduce(y * y, axis=-1, keepdims=True)
    np.true_divide(var, n, out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y *= inv
    out_data = y * gain.data
    out_data += bias.data

    def backward_fn(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * y, gain))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias))
        if x.requires_grad:
            # d/dx of (x-mu)/sigma: project out the mean and the y-component
            gy = g * gain.data
            gm = gy.mean(axis=-1, keepdims=True)
            gyy = (gy * y).mean(axis=-1, keepdims=True)
            _accumulate(x, (gy - gm - y * gyy) * inv)

    return _make_node(kind, out_data, (x, gain, bias), backward_fn)


def _own_taps(taps: np.ndarray, i: int, w: int, later: Sequence[int]) -> np.ndarray:
    """Tap i's rows [L, D] of a width-w conv, row t read at xp[t + i]: zero
    those that reach back across a later start, which then sum exactly as
    over w-1 zero rows of padding (adding a zero leaves every sum's bits
    alone)."""
    for s in later:
        taps[s:s + w - 1 - i] = 0.0
    return taps


def _conv_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, ctx: np.ndarray,
                  later: Sequence[int]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The conv's numpy forward on checked arrays (see `conv1d_depthwise`):
    returns (y [L, D], ctx_final [w-1, D], saved), saved being what
    `_conv_backward` reads."""
    L, D = x.shape
    w = kernel.shape[0]
    xp = np.concatenate([ctx, x], axis=0)               # [L+w-1, D]
    pre = _own_taps(kernel[0] * xp[:L], 0, w, later)    # conv + bias, pre-SiLU
    for i in range(1, w):
        pre += _own_taps(kernel[i] * xp[i:i + L], i, w, later)
    pre += bias
    sig = _sigmoid(pre)
    # the copy owns its rows, so the carry does not pin the join
    ctx_final = xp[L:].copy()
    for s in later:                                     # rows before the last start
        ctx_final[:max(0, s + w - 1 - L)] = 0.0
    return pre * sig, ctx_final, (xp, kernel, later, pre, sig)


def _conv_backward(g: np.ndarray, saved: tuple, need_x: bool, need_kernel: bool,
                   need_bias: bool) -> tuple:
    """Gradients (x, kernel, bias) of the conv from dL/dy, None where not needed."""
    xp, kernel, later, pre, sig = saved
    L, w = g.shape[0], kernel.shape[0]
    g = g * (sig * (1.0 + pre * (1.0 - sig)))           # through the SiLU
    gx = gk = gb = None
    if need_bias:
        gb = g.sum(axis=0)
    if need_x:
        gxp = np.zeros_like(xp)
        for i in range(w):
            gxp[i:i + L] += _own_taps(kernel[i] * g, i, w, later)
        gx = gxp[w - 1:]
    if need_kernel:
        gk = np.stack([_own_taps(xp[i:i + L] * g, i, w, later).sum(axis=0)
                       for i in range(w)])
    return gx, gk, gb


def conv1d_depthwise(x: Tensor, kernel: Tensor, bias: Tensor,
                     ctx: Tensor | np.ndarray | None = None,
                     starts=None) -> tuple[Tensor, Tensor]:
    """Causal depthwise 1-D convolution plus a bias, through SiLU, over the
    sequences packed into x.

    x: [L, D], kernel: [w, D], bias: [D], ctx: [w-1, D] inputs that precede
    x (zeros when None); starts: the first row of each sequence, strictly
    increasing from 0 (see `selective_scan`; None is one sequence).  With
    xp = [ctx || x],

        y[t, d] = silu(sum_i kernel[i, d] xp[t + i, d] + bias[d])

    where a tap that reaches back across a later start reads zero: ctx is the
    first sequence's context, each later sequence starts from w-1 zero rows,
    and y[t] never sees a later row nor another sequence.  Returns (y [L, D],
    ctx_final [w-1, D]): the last w-1 rows of xp, zero before the last start,
    the context that continues the last sequence.  Like selective_scan's h0,
    ctx gets no gradient, and ctx_final is a marked no-grad carry.

    The arithmetic lives in `_conv_forward` and `_conv_backward`, which
    `mamba_inner` calls as well; this node is their standalone form, and
    the conv node of the composition `mamba_inner` is checked against.
    """
    kind = "conv1d-depthwise"
    inputs = (x, kernel, bias)
    dtype = _common_dtype(kind, inputs)
    _check_finite_inputs(kind, inputs)
    if x.data.ndim != 2 or kernel.data.ndim != 2:
        raise ShapeError(f"{kind}: expects x [L,D], kernel [w,D]; "
                         f"got {x.shape}, {kernel.shape}")
    L, D = x.data.shape
    w, Dk = kernel.data.shape
    if D != Dk:
        raise ShapeError(f"{kind}: channel mismatch {D} vs {Dk}")
    if bias.shape != (D,):
        raise ShapeError(f"{kind}: bias must have shape {(D,)}, got {bias.shape}")
    later = _check_starts(kind, starts, L)[1:]
    ctx = (np.zeros((w - 1, D), dtype) if ctx is None
           else _check_carry(kind, "ctx", ctx, (w - 1, D), dtype))
    out_data, ctx_final, saved = _conv_forward(x.data, kernel.data, bias.data, ctx, later)

    def backward_fn(g: np.ndarray) -> None:
        for t, grad in zip(inputs, _conv_backward(g, saved, *(t.requires_grad
                                                              for t in inputs))):
            if grad is not None:
                _accumulate(t, grad)

    return _make_node(kind, out_data, inputs, backward_fn), _carry(ctx_final)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Log-softmax along the last axis: y = x - max - log sum exp(x - max).

    Every entry stays finite: a logit far below its row's maximum gives a
    large negative y, where the log of a softmax would underflow to log(0).
    """
    _check_finite_inputs("log-softmax-rows", (x,))
    y = x.data - x.data.max(axis=-1, keepdims=True)
    y -= np.log(np.exp(y).sum(axis=-1, keepdims=True))

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _make_node("log-softmax-rows", y, (x,), backward_fn)


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
            if t.requires_grad:
                sl = [np.s_[:]] * g.ndim
                sl[axis] = np.s_[start:stop]
                _accumulate(t, g[tuple(sl)])

    return _make_node("concat", out_data, tuple(tensors), backward_fn)


def tslice(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous window [start, stop) along one axis."""
    _check_finite_inputs("slice", (x,))
    ndim = x.data.ndim
    if not (-ndim <= axis < ndim):
        raise ShapeError(f"slice: axis {axis} out of range for shape {x.shape}")
    axis = axis % ndim
    n = x.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice: window [{start}, {stop}) invalid for axis "
                         f"of length {n}")
    sl = [np.s_[:]] * ndim
    sl[axis] = np.s_[start:stop]
    out_data = np.ascontiguousarray(x.data[tuple(sl)])

    def backward_fn(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[tuple(sl)] += g

    return _make_node("slice", out_data, (x,), backward_fn)


def gather_rows(x: Tensor, ids) -> Tensor:
    """Rows x[ids] of a 2-D table, in the order of ids; a row may repeat.

    ids must be a non-empty 1-D integer sequence in [0, rows).  Backward
    adds each output row's gradient into its table row, so repeated ids
    accumulate.
    """
    kind = "gather-rows"
    _check_finite_inputs(kind, (x,))
    if x.data.ndim != 2:
        raise ShapeError(f"{kind}: expects a 2-D table, got {x.shape}")
    ids = np.asarray(ids)
    rows = x.data.shape[0]
    if ids.ndim != 1 or ids.size == 0 or ids.dtype.kind not in "iu":
        raise ShapeError(f"{kind}: ids must be a non-empty 1-D integer sequence, "
                         f"got shape {ids.shape} of {ids.dtype}")
    if ids.min() < 0 or ids.max() >= rows:
        raise ShapeError(f"{kind}: ids must lie in [0, {rows}), got "
                         f"[{ids.min()}, {ids.max()}]")
    out_data = x.data[ids]

    def backward_fn(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, ids, g)

    return _make_node(kind, out_data, (x,), backward_fn)


def _derived_A(kind: str, A_log: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """A^T = -exp(A_log^T) and 1/A^T = -exp(-A_log^T), both [N, E] and
    checked finite.

    A marked A_log (a parameter) keeps them in `_derived` while its `.data`
    is the array they came from, so a decode step does not redo two [E, N]
    exps and their checks per block; an in-place write into `.data` must be
    followed by `drop_derived`.  A plain leaf derives them at every use, as
    it is checked at every use.  Callers only read the returned arrays.
    """
    cached = A_log._derived
    if cached is not None and cached[0] is A_log.data:
        return cached[1], cached[2]
    with np.errstate(over="ignore"):
        # np.exp of the transposed view would return an F-ordered array and
        # bring the strided inner loops back: transpose into C order first
        A_logT = np.ascontiguousarray(A_log.data.T)
        A = -np.exp(A_logT)                  # never crosses zero, so 1/A is exact
        inv_A = -np.exp(-A_logT)
    if not (np.isfinite(A).all() and np.isfinite(inv_A).all()):
        raise NonFiniteError(f"{kind}: exp(+-A_log) overflows")
    if A_log._checked is not None:
        A_log._derived = (A_log.data, A, inv_A)
    return A, inv_A


def _scan_forward(kind: str, u: np.ndarray, dt: np.ndarray, A: np.ndarray,
                  inv_A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                  z: np.ndarray, dt_bias: np.ndarray, h0: np.ndarray | None,
                  resets: set[int], grad: bool) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """The scan's numpy forward on checked arrays (see `selective_scan`; A
    and inv_A [N, E] from `_derived_A`, resets the rows whose h_{t-1} is
    zero).  Returns (y [L, E], h_final [E, N] checked finite, saved), saved
    being what `_scan_backward` reads, or None without grad, which runs in
    blocks of SCAN_BLOCK steps and keeps no trajectory."""
    L, E = u.shape
    N = A.shape[0]
    dtype = u.dtype
    T = L if grad else min(L, SCAN_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        # delta = max(x, 0) + log1p(exp(-|x|)) with x = dt + dt_bias, in place
        x = dt + dt_bias
        if not np.isfinite(x).all():
            raise NonFiniteError(f"{kind}: dt + dt_bias overflows")
        delta = np.abs(x)
        np.negative(delta, out=delta)
        np.exp(delta, out=delta)
        np.log1p(delta, out=delta)
        delta += np.maximum(x, 0.0)

        Abar = np.empty((T, N, E), dtype)
        coef = np.empty_like(Abar)                                  # (Abar - 1) / A
        states = np.empty_like(Abar)                                # h_t^T
        decay = np.empty((N, E), dtype)
        y = np.empty((L, E), dtype)
        h = np.zeros((N, E), dtype) if h0 is None else h0.T
        for s in range(0, L, T):
            n = min(T, L - s)
            Ab, cf, st = Abar[:n], coef[:n], states[:n]
            # the operation order is that of Abar = exp(delta A),
            # Bbar = (Abar - 1) (1/A) B, and states[t] starts as the input
            # term Bbar_t u_t, into which the loop adds the decayed carry
            np.multiply(delta[s:s + n, None, :], A, out=Ab)
            np.exp(Ab, out=Ab)
            np.subtract(Ab, 1.0, out=cf)
            cf *= inv_A
            np.multiply(cf, B[s:s + n, :, None], out=st)
            st *= u[s:s + n, None, :]
            for t in range(n):
                if s + t not in resets:
                    st[t] += np.multiply(Ab[t], h, out=decay)
                h = st[t]
            # y_t = C_t h_t^T for every t at once, one stacked [1, N] @ [N, E]
            # product on the state layout: the same bits as one product per step
            np.matmul(C[s:s + n, None, :], st, out=y[s:s + n, None, :])
            if s + n < L:
                h = h.copy()                            # the next block overwrites states
        y += u * D
    h_final = _check_finite_output(kind, h.T.copy())
    sig = _sigmoid(z)
    if not grad:
        sig *= z                                                    # silu(z)
        y *= sig
        return y, h_final, None
    silu_z = z * sig
    saved = (u, x, delta, A, inv_A, B, C, D, z, h0, resets, Abar, coef, states, y, sig, silu_z)
    return y * silu_z, h_final, saved


def _scan_backward(g: np.ndarray, saved: tuple, need_u: bool, need_dt: bool,
                   need_A_log: bool, need_B: bool, need_C: bool, need_D: bool,
                   need_z: bool, need_dt_bias: bool) -> list:
    """Gradients (u, dt, A_log, B, C, D, z, dt_bias) of the scan from dL/dy,
    None where not needed: the reverse-time adjoint dh_t = dy_t C_t +
    Abar_{t+1} dh_{t+1} once, everything else vectorised over [L, N, E]."""
    (u, x, delta, A, inv_A, B, C, D, z, h0, resets, Abar, coef, states, y, sig,
     silu_z) = saved
    L = u.shape[0]
    grads = [None] * 8
    need_delta = need_dt or need_dt_bias
    # reductions go through einsum: summing a short axis with .sum() is
    # several times slower in numpy
    if need_z:
        grads[6] = g * y * (sig * (1.0 + z * (1.0 - sig)))
    g = g * silu_z                                                  # d/dy before the gate
    if need_C:
        grads[4] = np.einsum("le,lne->ln", g, states)
    if need_D:
        grads[5] = (g * u).sum(axis=0)
    if not (need_u or need_delta or need_A_log or need_B):
        return grads
    dh = C[:, :, None] * g[:, None, :]                              # dy_t C_t
    carry = np.empty(dh.shape[1:], dh.dtype)
    for t in range(L - 2, -1, -1):
        if t + 1 not in resets:
            dh[t] += np.multiply(Abar[t + 1], dh[t + 1], out=carry)
    dh_coef = None
    if need_u or need_B:
        # Bbar = coef B is not kept: dh coef serves both gradients
        dh_coef = dh * coef
        if need_u:
            grads[0] = np.einsum("lne,ln->le", dh_coef, B)
            grads[0] += g * D
        if need_B:
            grads[3] = np.einsum("lne,le->ln", dh_coef, u)
    if need_delta or need_A_log:
        # into the spent dh coef, not a fresh [L, N, E] array whose pages
        # would each be faulted in
        dz = np.multiply(dh, u[:, None, :], out=dh_coef)            # d/dBbar, then
        dz *= B[:, :, None]                                         # d/dcoef
        if need_A_log:
            # d(1/A)/dA_log = -1/A, and (Abar - 1) / A is coef
            dA_log = -np.einsum("lne,lne->ne", dz, coef)
        # d/d(delta A) = (dh_t h_{t-1} + dcoef / A) Abar_t; dh is spent,
        # so it takes dh_t h_{t-1}, with h_{t-1} a shifted view of states
        dz *= inv_A
        dh_h = np.multiply(dh[1:], states[:-1], out=dh[1:])
        dh_h[[t - 1 for t in resets]] = 0.0                         # h_{t-1} is not h_t's
        dz[1:] += dh_h
        if h0 is not None:
            dz[0] += np.multiply(dh[0], h0.T, out=dh[0])
        dz *= Abar
        if need_delta:
            gx = np.einsum("lne,ne->le", dz, A)
            gx *= _sigmoid(x)                                       # softplus' = sigmoid
            grads[1] = gx if need_dt else None
            grads[7] = gx.sum(axis=0) if need_dt_bias else None
        if need_A_log:
            dA_log += np.einsum("lne,le->ne", dz, delta) * A        # dA/dA_log = A
            grads[2] = dA_log.T
    return grads


def selective_scan(u: Tensor, dt: Tensor, A_log: Tensor, B: Tensor, C: Tensor,
                   D: Tensor, z: Tensor, dt_bias: Tensor,
                   h0: Tensor | np.ndarray | None = None,
                   starts=None) -> tuple[Tensor, Tensor]:
    """Selective SSM over the sequences packed into L rows: the step size's
    bias and softplus, ZOH discretization, scan, readout, the skip term D u
    and the gate silu(z).

    u, dt, z: [L, E]; A_log: [E, N]; B, C: [L, N]; D, dt_bias: [E]; h0:
    [E, N], the state before row 0 (zeros when None).  With A = -exp(A_log),
    1/A = -exp(-A_log) and delta = softplus(dt + dt_bias), computed as
    max(x, 0) + log1p(exp(-|x|)), which cannot overflow:

        Abar_t = exp(delta_t A),  Bbar_t = (Abar_t - 1) (1/A) B_t   (exact ZOH)
        h_t = Abar_t h_{t-1} + Bbar_t u_t
        y_t = (C_t . h_t + D u_t) silu(z_t)

    Returns (y [L, E], h_final [E, N]); the final state is a marked no-grad
    Tensor for the generation carry.  A and 1/A come from `_derived_A`.

    Packing: starts, the first row of each sequence (strictly increasing
    from 0, below L; None is one sequence), is the seq_idx of Mamba-2's
    kernels (Dao & Gu 2024, arXiv 2405.21060).  h0 belongs to the first
    sequence.  At each later start the carried state is zero: the forward
    skips the decay term Abar_t h_{t-1}, and the backward stops the adjoint
    carry and the dh_t h_{t-1} term there, so no sequence sees another
    (Krell et al. 2021, arXiv 2107.02027).  h_final continues the last
    sequence.

    Layout: the kernel works on the transposed state h^T [N, E], so every
    [., N, E] broadcast runs numpy's inner loop over the E contiguous
    channels rather than the N = 8 states.  The readout y_t = C_t h_t^T is
    one stacked [1, N] @ [N, E] product per block on that layout, which
    gives the same bits as a per-step product of those shapes; no [L, E, N]
    array exists.

    Blocking: with no input needing a gradient the scan steps through time
    in blocks of SCAN_BLOCK steps that reuse one set of buffers, so no
    [L, N, E] array is allocated and no backward is registered.  With a
    gradient the block is the whole sequence, and the trajectory is kept for
    the backward, which runs the reverse-time adjoint dh_t = dy_t C_t +
    Abar_{t+1} dh_{t+1} once and everything else vectorised over [L, N, E].

    The arithmetic lives in `_scan_forward` and `_scan_backward`, which
    `mamba_inner` calls as well; this node is their standalone form, and
    the scan node of the composition `mamba_inner` is checked against.
    """
    kind = "selective-scan"
    inputs = (u, dt, A_log, B, C, D, z, dt_bias)
    dtype = _common_dtype(kind, inputs)
    if u.data.ndim != 2 or A_log.data.ndim != 2:
        raise ShapeError(f"{kind}: expects 2-D u and A_log, got {u.shape} and {A_log.shape}")
    L, E = u.shape
    N = A_log.shape[1]
    expected = ((L, E), (L, E), (E, N), (L, N), (L, N), (E,), (L, E), (E,))
    if L == 0 or any(t.shape != s for t, s in zip(inputs, expected)):
        raise ShapeError(f"{kind}: expects u, dt, z [L, E], A_log [E, N], B, C [L, N], "
                         f"D, dt_bias [E] with L >= 1; got {[t.shape for t in inputs]}")
    _check_finite_inputs(kind, inputs)
    # the rows h_{t-1} does not reach (row 0's h_{t-1} is h0 or zeros)
    resets = set(_check_starts(kind, starts, L)[1:])
    if h0 is not None:
        h0 = _check_carry(kind, "h0", h0, (E, N), dtype)
    needs = [t.requires_grad for t in inputs]
    A, inv_A = _derived_A(kind, A_log)
    y, h_final, saved = _scan_forward(kind, u.data, dt.data, A, inv_A, B.data, C.data,
                                      D.data, z.data, dt_bias.data, h0, resets, any(needs))
    if saved is None:
        return _make_node(kind, y, inputs, None), _carry(h_final)

    def backward_fn(g: np.ndarray) -> None:
        for t, grad in zip(inputs, _scan_backward(g, saved, *needs)):
            if grad is not None:
                _accumulate(t, grad)

    return _make_node(kind, y, inputs, backward_fn), _carry(h_final)


def mamba_inner(xz: Tensor, conv_w: Tensor, conv_b: Tensor, x_proj: Tensor,
                dt_proj: Tensor, dt_bias: Tensor, A_log: Tensor, D: Tensor,
                out_proj: Tensor, h0: Tensor | np.ndarray | None = None,
                ctx: Tensor | np.ndarray | None = None,
                starts=None) -> tuple[Tensor, Tensor, Tensor]:
    """A Mamba block after its in_proj as one node, the shape of Mamba's
    mamba_inner_fn (Gu & Dao 2023, arXiv 2312.00752).

    xz [L, 2E] is the in_proj output: the signal in columns [0, E), the gate
    z in [E, 2E).  conv_w [w, E], conv_b, dt_bias, D [E], x_proj [E, R+2N],
    dt_proj [R, E], A_log [E, N], out_proj [E, M]; h0 [E, N], ctx [w-1, E]
    and starts are as in `selective_scan` and `conv1d_depthwise`.  It runs

        u = conv1d_depthwise(xz[:, :E], conv_w, conv_b, ctx)
        [dt_low | B | C] = u x_proj
        y = selective_scan(u, dt_low dt_proj, A_log, B, C, D, z, dt_bias, h0)

    through those primitives' kernels in their operation order, so a
    float32 result is bit-identical to the 11 nodes it replaces, and
    returns (y out_proj [L, M], h_final [E, N], ctx_final [w-1, E]).  It
    checks what those nodes check: u, u x_proj, dt + dt_bias, y, the output
    and both carries.  The backward writes the u and z gradients into column
    windows of one [L, 2E] array.
    """
    kind = "mamba-inner"
    inputs = (xz, conv_w, conv_b, x_proj, dt_proj, dt_bias, A_log, D, out_proj)
    dtype = _common_dtype(kind, inputs)
    shapes = [t.data.shape for t in inputs]
    if any(len(shapes[i]) != 2 for i in (0, 1, 3, 4, 6, 8)):
        raise ShapeError(f"{kind}: expects 2-D xz, conv_w, x_proj, dt_proj, A_log and "
                         f"out_proj; got {shapes}")
    (L, _), (w, _), (R, _), (E, N), (_, M) = (shapes[i] for i in (0, 1, 4, 6, 8))
    if L == 0 or w == 0 or shapes != [(L, 2 * E), (w, E), (E,), (E, R + 2 * N), (R, E),
                                      (E,), (E, N), (E,), (E, M)]:
        raise ShapeError(f"{kind}: expects xz [L, 2E], conv_w [w, E], conv_b [E], "
                         f"x_proj [E, R+2N], dt_proj [R, E], dt_bias [E], A_log [E, N], "
                         f"D [E], out_proj [E, M] with L, w >= 1; got {shapes}")
    _check_finite_inputs(kind, inputs)
    later = _check_starts(kind, starts, L)[1:]
    ctx = (np.zeros((w - 1, E), dtype) if ctx is None
           else _check_carry(kind, "ctx", ctx, (w - 1, E), dtype))
    if h0 is not None:
        h0 = _check_carry(kind, "h0", h0, (E, N), dtype)
    needs = [t.requires_grad for t in inputs]
    A, inv_A = _derived_A(kind, A_log)

    # an overflow is caught by the check after it, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        u, ctx_final, conv_saved = _conv_forward(xz.data[:, :E], conv_w.data, conv_b.data,
                                                 ctx, later)
        _check_finite_output(kind, u)
        sel = _check_finite_output(kind, u @ x_proj.data)            # [L, R+2N]
        dt_low, B, C = sel[:, :R].copy(), sel[:, R:R + N].copy(), sel[:, R + N:].copy()
        y, h_final, scan_saved = _scan_forward(kind, u, dt_low @ dt_proj.data, A, inv_A, B,
                                               C, D.data, xz.data[:, E:], dt_bias.data, h0,
                                               set(later), any(needs))
        _check_finite_output(kind, y)
        out_data = y @ out_proj.data

    def backward_fn(g: np.ndarray) -> None:
        need_xz, need_conv_w, need_conv_b, need_x_proj, need_dt_proj = needs[:5]
        need_u = need_xz or need_conv_w or need_conv_b
        need_sel = need_u or need_x_proj
        grads = [None] * 9
        if needs[8]:
            grads[8] = y.T @ g
        du, ddt, grads[6], dB, dC, grads[7], dz, grads[5] = _scan_backward(
            g @ out_proj.data.T, scan_saved, need_u, need_sel or need_dt_proj, needs[6],
            need_sel, need_sel, needs[7], need_xz, needs[5])
        if need_dt_proj:
            grads[4] = dt_low.T @ ddt
        if need_sel:
            dsel = np.concatenate([ddt @ dt_proj.data.T, dB, dC], axis=1)
            if need_x_proj:
                grads[3] = u.T @ dsel
            if need_u:
                du += dsel @ x_proj.data.T
                gu, grads[1], grads[2] = _conv_backward(du, conv_saved, need_xz,
                                                        need_conv_w, need_conv_b)
                if need_xz:
                    grads[0] = np.empty_like(xz.data)
                    grads[0][:, :E] = gu
                    grads[0][:, E:] = dz
        for t, grad in zip(inputs, grads):
            if grad is not None:
                _accumulate(t, grad)

    return (_make_node(kind, out_data, inputs, backward_fn), _carry(h_final),
            _carry(ctx_final))


PRIMITIVES: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "mul": mul,
    "sigmoid": sigmoid,
    "silu": silu,
    "exp": exp,
    "log": log,
    "abs": absolute,
    "arccos": arccos,
    "mean-pool": mean_pool,
    "layer-norm": layer_norm,
    "conv1d-depthwise": conv1d_depthwise,
    "log-softmax-rows": log_softmax_rows,
    "concat": concat,
    "slice": tslice,
    "gather-rows": gather_rows,
    "selective-scan": selective_scan,
    "mamba-inner": mamba_inner,
}


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar root.

    Every tensor the root reaches has its `.grad` cleared first, so each
    reached requires_grad leaf's `.grad`, and the returned {leaf: gradient}
    holding those same arrays, is this root's gradient alone.  The tape is
    consumed: a second backward on the same root raises TapeError.
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
            node.grad = None            # drop what an earlier sweep left
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


def tape_nodes(root: Tensor) -> int:
    """Nodes on the tape behind root: the backward closures a `backward`
    from it would run, found by walking the parent links, so call it before
    that backward consumes them."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward_fn is not None
            stack.extend(t._parents)
    return nodes

