"""A Mamba block as the 13 diffcore primitives `mamba-inner` replaces.

`inner_composition` is everything after in_proj as 11 nodes: two slices
(signal, gate), conv1d-depthwise, the x_proj matmul, three slices (dt, B,
C), the dt_proj matmul, selective-scan and the out_proj matmul.
`block_composition` adds the layer-norm, the in_proj matmul and the
residual add.  The fused node runs the same kernels in the same operation
order, so the tests hold it to these bit for bit in float32 and to 1e-10 in
float64, forward and backward.
"""

from __future__ import annotations

from mambavla import diffcore as dc
from mambavla.mamba import BlockState


def inner_composition(xz, conv_w, conv_b, x_proj, dt_proj, dt_bias, A_log, D, out_proj,
                      h0=None, ctx=None, starts=None):
    """`diffcore.mamba_inner` as 11 nodes; returns (out, h_final, ctx_final)."""
    E, N = A_log.shape
    R = dt_proj.shape[0]
    u, ctx_final = dc.conv1d_depthwise(dc.tslice(xz, 1, 0, E), conv_w, conv_b, ctx, starts)
    sel = dc.matmul(u, x_proj)                              # [L, R+2N]
    dt = dc.matmul(dc.tslice(sel, 1, 0, R), dt_proj)        # [L, E]
    B = dc.tslice(sel, 1, R, R + N)
    C = dc.tslice(sel, 1, R + N, R + 2 * N)
    y, h_final = dc.selective_scan(u, dt, A_log, B, C, D, dc.tslice(xz, 1, E, 2 * E),
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
