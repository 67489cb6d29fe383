"""Pose-prediction policy head.

Pooling over the LM's output tokens, a position branch that predicts the 2D
contact pixel (sigmoid-squashed), a direction branch that predicts a 6-value
continuous rotation representation orthonormalized into SO(3), the L1 pixel
loss and the geodesic rotation loss, and the pinhole pixel+depth -> 3D lift.

The head and both losses take a batch of B rows and return one: pooled
features [B, d_model] in, pixels [B, 2] and rotations [B, 9] out (each row a
3x3 rotation flattened row-major), and the losses average over the rows.

Head variants (parameter counts strictly ordered mlp1 < mlp2 < ssm-mlp):
  mlp2     two separate 2-layer perceptrons (default)
  mlp1     one shared trunk, position/direction read from output slices
  ssm-mlp  mlp2's branches behind a down-projection and one narrow Mamba block
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from mambavla import diffcore as dc
from mambavla.config import ModelConfig, SimConfig
from mambavla.diffcore import ShapeError, Tensor
from mambavla.mamba import MambaBlock

__all__ = [
    "EndEffectorPose",
    "PoseHead",
    "PoseOutputs",
    "pool_global_token",
    "gram_schmidt_6d",
    "predict_pose",
    "position_loss",
    "direction_loss",
    "lift_to_3d",
    "require_rotations",
    "rotation_about_axis",
]

# each head variant's own parameters, in `PoseHead.named_params` order
_BRANCHES = ("w_pos1", "b_pos1", "w_pos2", "b_pos2",
             "w_dir1", "b_dir1", "w_dir2", "b_dir2")
_PARAM_NAMES = {"mlp2": _BRANCHES, "mlp1": ("w1", "b1", "w2", "b2"),
                "ssm-mlp": ("w_down", "b_down") + _BRANCHES}
HEAD_VARIANTS = tuple(_PARAM_NAMES)

# first-layer init gains for the two head branches; the decodes that follow
# (centre-offset pixel, Gram-Schmidt rotation) keep training stable at these
# scales while small trunks would need far more optimizer steps
_GAIN_DIR = 8.0

_ROT_TOL = 1e-3          # orthonormality tolerance for loss inputs

# exact cyclic column shifts: (v P)[:, j] = v[:, j+1] and (v Q)[:, j] = v[:, j+2]
_SHIFT_P, _SHIFT_Q = (np.roll(np.eye(3), k, axis=0) for k in (1, 2))


# ---------------------------------------------------------------------------
# plain-numpy rotation helpers (`rotation_about_axis` is also the simulator's)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and an angle in radians."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def require_rotations(name: str, mats: np.ndarray) -> None:
    """Raise naming the first bad matrix i of a [B, 3, 3] batch as name[i]."""
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(np.swapaxes(mats, 1, 2) @ mats - np.eye(3)).max(axis=(1, 2))
    # a non-finite matrix has a NaN or infinite error, and NaN fails every test
    bad = np.flatnonzero(~(err <= _ROT_TOL))
    if bad.size:
        what = ("matrix has non-finite entries" if not np.isfinite(mats[bad[0]]).all()
                else f"input is not orthonormal within {_ROT_TOL}")
        raise ValueError(f"{name}[{bad[0]}]: {what}")


# ---------------------------------------------------------------------------
# pose container


@dataclass
class EndEffectorPose:
    a_dir: np.ndarray                      # 3x3 rotation
    contact_pixel: tuple[float, float]     # (u, v) in [0,1]^2
    a_pos: np.ndarray | None = None        # 3D metres, camera frame (after lift)

    def validate(self) -> None:
        R = np.asarray(self.a_dir)
        # every comparison with NaN is False, so the bounds below cannot catch it
        if not np.all(np.isfinite(R)):
            raise ValueError("pose: a_dir has non-finite entries")
        if R.shape != (3, 3) or np.max(np.abs(R.T @ R - np.eye(3))) > 1e-5:
            raise ValueError("pose: a_dir is not orthonormal within 1e-5")
        if abs(np.linalg.det(R) - 1.0) > 1e-5:
            raise ValueError("pose: a_dir determinant is not +1 within 1e-5")
        u, v = self.contact_pixel
        if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
            raise ValueError(f"pose: contact pixel {self.contact_pixel} "
                             "outside [0,1]^2")
        if self.a_pos is not None and not np.all(np.isfinite(self.a_pos)):
            raise ValueError("pose: a_pos has non-finite entries")


# ---------------------------------------------------------------------------
# pooling


def pool_global_token(hidden: Tensor) -> Tensor:
    """[L, d_model] -> [1, d_model] global token: the mean over positions.

    The row stays 2-D so the head branches can matmul it directly.
    """
    if hidden.data.ndim != 2 or hidden.shape[0] < 1:
        raise ShapeError(f"pool: expected non-empty [L, d_model], got {hidden.shape}")
    return dc.mean_pool(hidden, axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# rotation representation


def _row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two [B, k] tensors -> [B, 1]."""
    ones = dc.tensor(np.ones((a.shape[1], 1)), dtype=a.data.dtype)
    return dc.matmul(dc.mul(a, b), ones)


def gram_schmidt_6d(r6: Tensor) -> Tensor:
    """Orthonormalize each row of a [B, 6] continuous representation into a
    rotation, returned as [B, 9] (one rotation per row, row-major).

    The two 3-vectors become the first two rows; the third row is their cross
    product, so the determinant is +1 by construction.  Degenerate inputs
    (zero first vector, or parallel vectors) in any row raise rather than
    silently returning a non-rotation.
    """
    if r6.data.ndim != 2 or r6.shape[0] < 1 or r6.shape[1] != 6:
        raise ShapeError(f"gram_schmidt_6d: expected [B, 6], got {r6.shape}")
    dt = r6.data.dtype
    neg1 = dc.tensor(-1.0, dtype=dt)
    neg_half = dc.tensor(-0.5, dtype=dt)

    a1 = dc.tslice(r6, 1, 0, 3)
    a2 = dc.tslice(r6, 1, 3, 6)

    n1 = _row_dot(a1, a1)                               # [B,1] squared norms
    if n1.data.min() < 1e-10:
        raise ValueError("gram_schmidt_6d: first vector is degenerate (near zero)")
    b1 = dc.mul(a1, dc.exp(dc.mul(dc.log(n1), neg_half)))

    d = _row_dot(b1, a2)                                # [B,1] projections
    c = dc.add(a2, dc.mul(dc.mul(b1, d), neg1))
    n2 = _row_dot(c, c)
    if n2.data.min() < 1e-10:
        raise ValueError("gram_schmidt_6d: vectors are degenerate (near parallel)")
    b2 = dc.mul(c, dc.exp(dc.mul(dc.log(n2), neg_half)))

    P, Q = dc.tensor(_SHIFT_P, dtype=dt), dc.tensor(_SHIFT_Q, dtype=dt)
    b3 = dc.add(dc.mul(dc.matmul(b1, P), dc.matmul(b2, Q)),      # b1 x b2
                dc.mul(dc.mul(dc.matmul(b1, Q), dc.matmul(b2, P)), neg1))
    return dc.concat([b1, b2, b3], axis=1)


# ---------------------------------------------------------------------------
# the head


@dataclass
class PoseOutputs:
    pixel: Tensor                 # [B, 2] in (0,1), on tape
    rot: Tensor                   # [B, 9] rotations, row-major, on tape


class PoseHead:
    """Pooled LM tokens [B, d_model] -> (contact pixels, rotations)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        if cfg.head_variant not in HEAD_VARIANTS:
            raise ValueError(f"unknown head_variant {cfg.head_variant!r}; "
                             f"expected one of {HEAD_VARIANTS}")
        M, H = cfg.d_model, cfg.head_hidden
        self.cfg = cfg
        # the feature norm is parameter-free: a constant unit gain and zero
        # bias, leaves that are not parameters
        self.norm_gain = dc.tensor(np.ones(M), dtype)
        self.norm_bias = dc.tensor(np.zeros(M), dtype)
        # fixed identity offset: zero branch output decodes to the identity
        # rotation instead of a degenerate 6D representation
        self.r6_offset = dc.tensor(np.array([[1.0, 0, 0, 0, 1.0, 0]]), dtype)
        lin = lambda fi, fo, gain=1.0: (
            dc.param(rng.normal(0.0, gain * fi ** -0.5, size=(fi, fo)), dtype),
            dc.param(np.zeros(fo), dtype))
        # the position readout starts at zero, so the untrained head decodes
        # to the image centre (0.5, 0.5); its hidden layer is random like every
        # other layer (an all-zero hidden layer would be a stationary point:
        # no activations, no weight gradients, a pixel constant in the input)
        zlin = lambda fi, fo: (dc.param(np.zeros((fi, fo)), dtype),
                               dc.param(np.zeros(fo), dtype))

        if cfg.head_variant == "mlp1":
            self.w1, self.b1 = lin(M, H)
            self.w2, self.b2 = lin(H, 2 + 6)
            return
        if cfg.head_variant == "ssm-mlp":
            self.w_down, self.b_down = lin(M, H)
            blk_cfg = dataclasses.replace(cfg, d_model=H,
                                          dt_rank=max(1, H // 16))
            self.block = MambaBlock(blk_cfg, rng, dtype)
            M = H                      # the branches read the block's rows
        # the rotation decode is scale-invariant (Gram-Schmidt), so how far a
        # fixed-size optimizer step moves the rotation scales with the hidden
        # activation magnitude: give the direction trunk a large input gain
        self.w_pos2, self.b_pos2 = zlin(H, 2)
        self.w_dir1, self.b_dir1 = lin(M, H, gain=_GAIN_DIR)
        self.w_dir2, self.b_dir2 = lin(H, 6)
        # drawn last, so the other initial values do not depend on it
        self.w_pos1, self.b_pos1 = lin(M, H)

    def named_params(self):
        for n in _PARAM_NAMES[self.cfg.head_variant]:
            yield n, getattr(self, n)
        if self.cfg.head_variant == "ssm-mlp":
            for n, p in self.block.named_params():
                yield f"block.{n}", p

    def _branch(self, x: Tensor, w1, b1, w2, b2) -> Tensor:
        return dc.add(dc.matmul(dc.silu(dc.add(dc.matmul(x, w1), b1)), w2), b2)

    def forward(self, feats: Tensor) -> PoseOutputs:
        """Pooled features [B, d_model], one row per sample -> pose outputs
        (on tape)."""
        # standardize each pooled feature (parameter-free) so the branch
        # activations start at unit scale regardless of backbone statistics
        x = dc.layer_norm(feats, self.norm_gain, self.norm_bias)
        if self.cfg.head_variant == "ssm-mlp":
            x = dc.add(dc.matmul(x, self.w_down), self.b_down)
            # each row is its own length-1 sequence: the block's conv and
            # scan must not carry one sample into the next
            x, _ = self.block.forward(x, starts=np.arange(x.shape[0]))
        if self.cfg.head_variant == "mlp1":
            out = self._branch(x, self.w1, self.b1, self.w2, self.b2)
            pos_out = dc.tslice(out, 1, 0, 2)
            r6 = dc.tslice(out, 1, 2, 8)
        else:
            pos_out = self._branch(x, self.w_pos1, self.b_pos1,
                                   self.w_pos2, self.b_pos2)
            r6 = self._branch(x, self.w_dir1, self.b_dir1,
                              self.w_dir2, self.b_dir2)

        # pixel = sigmoid(branch logits): the squash keeps the prediction
        # inside the image and its vanishing tails damp the optimizer during
        # excursions, so the L1 fit settles instead of cycling; a zero readout
        # decodes to the image centre (0.5, 0.5)
        pixel = dc.sigmoid(pos_out)
        r6 = dc.add(r6, self.r6_offset)
        return PoseOutputs(pixel=pixel, rot=gram_schmidt_6d(r6))


def predict_pose(head: PoseHead, hidden: Tensor) -> EndEffectorPose:
    """Detached pose of one sample's LM hidden states [L, d_model], for
    evaluation (3D position filled in by lift_to_3d)."""
    out = head.forward(pool_global_token(hidden))
    u, v = (float(x) for x in out.pixel.data[0])
    return EndEffectorPose(a_dir=out.rot.data[0].reshape(3, 3).copy(),
                           contact_pixel=(u, v))


# ---------------------------------------------------------------------------
# losses


def position_loss(pred_pixels: Tensor, gt_pixels: np.ndarray) -> Tensor:
    """Mean over the batch of the coordinate-wise L1 distance, on tape.

    pred_pixels: [N, 2] on tape; gt_pixels: [N, 2] constants.
    """
    gt = np.asarray(gt_pixels, dtype=pred_pixels.data.dtype)
    if pred_pixels.data.ndim != 2 or pred_pixels.shape[1] != 2:
        raise ShapeError(f"position_loss: pred must be [N, 2], "
                         f"got {pred_pixels.shape}")
    if gt.shape != pred_pixels.data.shape:
        raise ShapeError(f"position_loss: batch shapes differ: "
                         f"{pred_pixels.shape} vs {gt.shape}")
    bad = np.flatnonzero(~np.isfinite(gt).all(axis=1))
    if bad.size:
        raise ValueError(f"position_loss: gt[{bad[0]}] has non-finite entries")
    dt = pred_pixels.data.dtype
    diff = dc.add(pred_pixels, dc.tensor(-gt, dtype=dt))
    # mean over all 2N entries times 2 = mean over N of the per-sample sum
    return dc.mul(dc.mean_pool(dc.absolute(diff)), dc.tensor(2.0, dtype=dt))


def direction_loss(pred_rots: Tensor, gt_rots: np.ndarray) -> Tensor:
    """Mean geodesic angle arccos((tr(R_gt^T R) - 1)/2) over the batch, on tape.

    pred_rots: [N, 9] on tape, one row-major rotation per row; gt_rots:
    [N, 3, 3] constants.  Inputs whose orthonormality error exceeds 1e-3 are
    rejected.
    """
    gt = np.asarray(gt_rots)
    if gt.ndim != 3 or gt.shape[1:] != (3, 3):
        raise ShapeError(f"direction_loss: gt must be [N, 3, 3], got {gt.shape}")
    if pred_rots.data.ndim != 2 or pred_rots.shape[1] != 9:
        raise ShapeError(f"direction_loss: pred must be [N, 9], "
                         f"got {pred_rots.shape}")
    if pred_rots.shape[0] != gt.shape[0]:
        raise ShapeError(f"direction_loss: batch sizes differ: "
                         f"{pred_rots.shape[0]} vs {gt.shape[0]}")
    if gt.shape[0] == 0:
        raise ShapeError("direction_loss: empty batch")
    require_rotations("direction_loss: pred", pred_rots.data.reshape(-1, 3, 3))
    require_rotations("direction_loss: gt", gt)
    dt = pred_rots.data.dtype
    # tr(G^T R) is the sum of the elementwise product
    tr = _row_dot(pred_rots, dc.tensor(gt.reshape(-1, 9), dtype=dt))   # [N,1]
    arg = dc.add(dc.mul(tr, dc.tensor(0.5, dtype=dt)),
                 dc.tensor(-0.5, dtype=dt))
    return dc.mean_pool(dc.arccos(arg))


# ---------------------------------------------------------------------------
# pixel + depth -> camera-frame 3D


def lift_to_3d(pixel: tuple[float, float], depth: np.ndarray,
               cam: SimConfig) -> np.ndarray:
    """(u, v) in [0,1]^2 plus a depth map -> (X, Y, Z) metres, camera frame.

    Depth is sampled at the containing integer pixel; the ray uses the
    continuous pixel coordinates.  Zero depth marks an invalid sample; a
    negative or non-finite one is refused too, naming the pixel.
    """
    u, v = pixel
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"lift_to_3d: pixel ({u}, {v}) outside [0,1]^2")
    h, w = depth.shape
    u_px, v_px = u * w, v * h
    col = min(int(u_px), w - 1)
    row = min(int(v_px), h - 1)
    d = float(depth[row, col])
    if not 0.0 < d < np.inf:                # NaN fails both comparisons
        what = "zero" if d <= 0.0 else "non-finite"
        raise ValueError(f"lift_to_3d: invalid ({what}) depth at pixel ({col}, {row})")
    return np.array([(u_px - cam.cx) * d / cam.fx,
                     (v_px - cam.cy) * d / cam.fy,
                     d])
