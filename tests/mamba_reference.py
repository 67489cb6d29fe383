"""A Mamba block as the nodes `mamba-inner` replaces, and the scan and the
conv as nodes of their own.

`selective_scan` and `conv1d_depthwise` wrap the kernels `mamba_inner`
runs (`diffcore._scan_forward`, `diffcore._conv_forward` and their
backwards) as standalone nodes, with diffcore's own input, starts and carry
checks and no shape checks of their own.  The kernel tests call them; they
live here, off the model path, as Mamba keeps its `selective_scan_ref`.
`inner_composition` is everything after in_proj as 11 nodes: two slices
(signal, gate), the conv, the x_proj matmul, three slices (dt, B, C), the
dt_proj matmul, the scan and the out_proj matmul.  `block_composition` adds
the layer-norm, the in_proj matmul and the residual add.  The fused node
runs the same kernels in the same operation order, so the tests hold it to
these bit for bit in float32 and to 1e-10 in float64, forward and backward.

The kernels' backwards have the fused node's two modes: they always form
the gradients of their signal inputs (the scan's u, dt, B, C and z, the
conv's x) and form those of their parameters (the scan's A_log, D and
dt_bias, the conv's kernel and bias) only when one of those trains.  A
wrapper accumulates only into the inputs that have requires_grad.
"""

from __future__ import annotations

import numpy as np

from mambavla import diffcore as dc
from mambavla.mamba import BlockState


def _accumulate_all(inputs, grads):
    for t, grad in zip(inputs, grads):
        if t.requires_grad:
            dc._accumulate(t, grad)


def selective_scan(u, dt, A_log, B, C, D, z, dt_bias, h0=None, starts=None):
    """The scan of `mamba_inner` as a node: u, dt, z [L, E], A_log [E, N],
    B, C [L, N], D, dt_bias [E], h0 [E, N] (zeros when None) and starts as
    in `diffcore._scan_forward`; returns (y [L, E], h_final [E, N]), the
    state a marked no-grad carry."""
    kind = "selective-scan"
    inputs = (u, dt, A_log, B, C, D, z, dt_bias)
    dtype = dc._common_dtype(kind, inputs)
    dc._check_finite_inputs(kind, inputs)
    resets = set(dc._check_starts(kind, starts, u.shape[0])[1:])
    if h0 is not None:
        h0 = dc._check_carry(kind, "h0", h0, A_log.shape, dtype)
    A, inv_A = dc._derived_A(kind, A_log)
    y, h_final, saved = dc._scan_forward(kind, u.data, dt.data, A, inv_A, B.data, C.data,
                                         D.data, z.data, dt_bias.data, h0, resets,
                                         any(t.requires_grad for t in inputs))
    need_params = any(t.requires_grad for t in (A_log, D, dt_bias))
    backward_fn = None if saved is None else (
        lambda g: _accumulate_all(inputs, dc._scan_backward(g, saved, need_params)))
    return dc._make_node(kind, y, inputs, backward_fn), dc._carry(h_final)


def conv1d_depthwise(x, kernel, bias, ctx=None, starts=None):
    """The conv of `mamba_inner` as a node: x [L, D], kernel [w, D], bias
    [D], ctx [w-1, D] (zeros when None) and starts as in
    `diffcore._conv_forward`; returns (y [L, D], ctx_final [w-1, D]), the
    context a marked no-grad carry."""
    kind = "conv1d-depthwise"
    inputs = (x, kernel, bias)
    dtype = dc._common_dtype(kind, inputs)
    dc._check_finite_inputs(kind, inputs)
    later = dc._check_starts(kind, starts, x.shape[0])[1:]
    w, D = kernel.shape
    ctx = (np.zeros((w - 1, D), dtype) if ctx is None
           else dc._check_carry(kind, "ctx", ctx, (w - 1, D), dtype))
    y, ctx_final, saved = dc._conv_forward(x.data, kernel.data, bias.data, ctx, later)
    need_params = kernel.requires_grad or bias.requires_grad
    backward_fn = lambda g: _accumulate_all(inputs, dc._conv_backward(g, saved, need_params))
    return dc._make_node(kind, y, inputs, backward_fn), dc._carry(ctx_final)


def inner_composition(xz, conv_w, conv_b, x_proj, dt_proj, dt_bias, A_log, D, out_proj,
                      h0=None, ctx=None, starts=None):
    """`diffcore.mamba_inner` as 11 nodes; returns (out, h_final, ctx_final)."""
    E, N = A_log.shape
    R = dt_proj.shape[0]
    u, ctx_final = conv1d_depthwise(dc.tslice(xz, 1, 0, E), conv_w, conv_b, ctx, starts)
    sel = dc.matmul(u, x_proj)                              # [L, R+2N]
    dt = dc.matmul(dc.tslice(sel, 1, 0, R), dt_proj)        # [L, E]
    B = dc.tslice(sel, 1, R, R + N)
    C = dc.tslice(sel, 1, R + N, R + 2 * N)
    y, h_final = selective_scan(u, dt, A_log, B, C, D, dc.tslice(xz, 1, E, 2 * E),
                                dt_bias, h0, starts)
    return dc.matmul(y, out_proj), h_final, ctx_final


def block_composition(blk, x, state=None, starts=None):
    """`MambaBlock.forward` as 13 nodes; returns (x + block(x), carry)."""
    xz = dc.matmul(dc.layer_norm(x, blk.ln_g, blk.ln_b), blk.in_proj)
    out, h, ctx = inner_composition(xz, blk.conv_w, blk.conv_b, blk.x_proj, blk.dt_proj,
                                    blk.dt_bias, blk.A_log, blk.D_skip, blk.out_proj,
                                    None if state is None else state.h,
                                    None if state is None else state.conv_ctx, starts)
    return dc.add(x, out), BlockState(h=h, conv_ctx=ctx)
