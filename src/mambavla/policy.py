"""Pose-prediction policy head.

Pooling over the LM's output tokens, a position branch that predicts the 2D
contact pixel (sigmoid-squashed), a direction branch that predicts a 6-value
continuous rotation representation orthonormalized into SO(3), the L1 pixel
loss and the geodesic rotation loss, and the pinhole pixel+depth -> 3D lift.

Head variants (parameter counts strictly ordered mlp1 < mlp2 < ssm-mlp):
  mlp2     two separate 2-layer perceptrons (default)
  mlp1     one shared trunk, position/direction read from output slices
  ssm-mlp  down-projection, one narrow Mamba block, per-branch perceptrons
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
    "rotation_about_axis",
    "random_rotation",
]

HEAD_VARIANTS = ("mlp2", "mlp1", "ssm-mlp")

# first-layer init gains for the two head branches; the decodes that follow
# (centre-offset pixel, Gram-Schmidt rotation) keep training stable at these
# scales while small trunks would need far more optimizer steps
_GAIN_DIR = 8.0

_ROT_TOL = 1e-3          # orthonormality tolerance for loss inputs


# ---------------------------------------------------------------------------
# plain-numpy rotation helpers (used by tests and the simulator)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and an angle in radians."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _require_rotation(name: str, mat: np.ndarray) -> None:
    mat = np.asarray(mat)
    if mat.shape != (3, 3):
        raise ShapeError(f"{name}: expected a 3x3 matrix, got {mat.shape}")
    if np.max(np.abs(mat.T @ mat - np.eye(3))) > _ROT_TOL:
        raise ValueError(f"{name}: input is not orthonormal within {_ROT_TOL}")


# ---------------------------------------------------------------------------
# pose container


@dataclass
class EndEffectorPose:
    a_dir: np.ndarray                      # 3x3 rotation
    contact_pixel: tuple[float, float]     # (u, v) in [0,1]^2
    a_pos: np.ndarray | None = None        # 3D metres, camera frame (after lift)
    gripper: bool | None = None            # 7-DoF mode only

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


# ---------------------------------------------------------------------------
# pooling


def pool_global_token(hidden: Tensor, mode: str = "mean") -> Tensor:
    """[L, d_model] -> [1, d_model] global token (mean by default, max optional).

    The row stays 2-D so the head branches can matmul it directly.
    """
    if hidden.data.ndim != 2 or hidden.shape[0] < 1:
        raise ShapeError(f"pool: expected non-empty [L, d_model], got {hidden.shape}")
    if mode == "mean":
        return dc.mean_pool(hidden, axis=0, keepdims=True)
    if mode == "max":
        return dc.max_pool(hidden, axis=0, keepdims=True)
    raise ValueError(f"pool: unknown mode {mode!r} (expected 'mean' or 'max')")


# ---------------------------------------------------------------------------
# rotation representation


def gram_schmidt_6d(r6: Tensor) -> Tensor:
    """Orthonormalize a [1, 6] continuous representation into a rotation.

    The two 3-vectors become the first two rows; the third row is their cross
    product, so the determinant is +1 by construction.  Degenerate inputs
    (zero first vector, or parallel vectors) raise rather than silently
    returning a non-rotation.
    """
    if r6.shape != (1, 6):
        raise ShapeError(f"gram_schmidt_6d: expected [1, 6], got {r6.shape}")
    dt = r6.data.dtype
    neg1 = dc.tensor(-1.0, dtype=dt)
    neg_half = dc.tensor(-0.5, dtype=dt)

    a1 = dc.tslice(r6, 1, 0, 3)
    a2 = dc.tslice(r6, 1, 3, 6)

    n1 = dc.matmul(a1, a1, transpose_b=True)            # [1,1] squared norm
    if n1.data[0, 0] < 1e-10:
        raise ValueError("gram_schmidt_6d: first vector is degenerate (near zero)")
    b1 = dc.mul(a1, dc.exp(dc.mul(dc.log(n1), neg_half)))

    d = dc.matmul(b1, a2, transpose_b=True)             # [1,1] projection
    c = dc.add(a2, dc.mul(dc.mul(b1, d), neg1))
    n2 = dc.matmul(c, c, transpose_b=True)
    if n2.data[0, 0] < 1e-10:
        raise ValueError("gram_schmidt_6d: vectors are degenerate (near parallel)")
    b2 = dc.mul(c, dc.exp(dc.mul(dc.log(n2), neg_half)))

    x1, y1, z1 = (dc.tslice(b1, 1, i, i + 1) for i in range(3))
    x2, y2, z2 = (dc.tslice(b2, 1, i, i + 1) for i in range(3))
    b3 = dc.concat([
        dc.add(dc.mul(y1, z2), dc.mul(dc.mul(z1, y2), neg1)),
        dc.add(dc.mul(z1, x2), dc.mul(dc.mul(x1, z2), neg1)),
        dc.add(dc.mul(x1, y2), dc.mul(dc.mul(y1, x2), neg1)),
    ], axis=1)
    return dc.concat([b1, b2, b3], axis=0)


# ---------------------------------------------------------------------------
# the head


@dataclass
class PoseOutputs:
    pixel: Tensor                 # [1, 2] in (0,1), on tape
    rot6: Tensor                  # [1, 6] raw representation, on tape
    rot: Tensor                   # [3, 3] rotation, on tape
    gripper_logit: Tensor | None  # [1, 1] in 7-DoF mode


class PoseHead:
    """Pooled LM token -> (contact pixel, rotation[, gripper])."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        if cfg.head_variant not in HEAD_VARIANTS:
            raise ValueError(f"unknown head variant {cfg.head_variant!r}; "
                             f"expected one of {HEAD_VARIANTS}")
        M, H = cfg.d_model, cfg.head_hidden
        self.cfg = cfg
        self.dtype = dtype
        self.n_pos_out = 3 if cfg.predict_gripper else 2
        def_p = lambda arr: dc.tensor(arr, dtype=dtype, requires_grad=True)
        lin = lambda fi, fo, gain=1.0: (
            def_p(rng.normal(0.0, gain * fi ** -0.5, size=(fi, fo))),
            def_p(np.zeros(fo)))
        # the position readout starts at zero, so the untrained head decodes
        # to the image centre (0.5, 0.5); its hidden layer is random like every
        # other layer (an all-zero hidden layer would be a stationary point:
        # no activations, no weight gradients, a pixel constant in the input)
        zlin = lambda fi, fo: (def_p(np.zeros((fi, fo))), def_p(np.zeros(fo)))

        # the rotation decode is scale-invariant (Gram-Schmidt), so how far a
        # fixed-size optimizer step moves the rotation scales with the hidden
        # activation magnitude: give the direction trunk a large input gain
        if cfg.head_variant == "mlp2":
            self.w_pos2, self.b_pos2 = zlin(H, 2)
            self.w_dir1, self.b_dir1 = lin(M, H, gain=_GAIN_DIR)
            self.w_dir2, self.b_dir2 = lin(H, 6)
            if cfg.predict_gripper:
                self.w_grip, self.b_grip = lin(M, 1)
            # drawn last, so the other initial values do not depend on it
            self.w_pos1, self.b_pos1 = lin(M, H)
        elif cfg.head_variant == "mlp1":
            self.w1, self.b1 = lin(M, H)
            self.w2, self.b2 = lin(H, self.n_pos_out + 6)
        else:  # ssm-mlp
            self.w_down, self.b_down = lin(M, H)
            blk_cfg = dataclasses.replace(cfg, d_model=H,
                                          dt_rank=max(1, H // 16))
            self.block = MambaBlock(blk_cfg, rng, dtype)
            self.w_pos2, self.b_pos2 = zlin(H, 2)
            self.w_dir1, self.b_dir1 = lin(H, H, gain=_GAIN_DIR)
            self.w_dir2, self.b_dir2 = lin(H, 6)
            if cfg.predict_gripper:
                self.w_grip, self.b_grip = lin(H, 1)
            self.w_pos1, self.b_pos1 = lin(H, H)

    def named_params(self):
        variant = self.cfg.head_variant
        if variant == "mlp2":
            names = ("w_pos1", "b_pos1", "w_pos2", "b_pos2",
                     "w_dir1", "b_dir1", "w_dir2", "b_dir2")
        elif variant == "mlp1":
            names = ("w1", "b1", "w2", "b2")
        else:
            names = ("w_down", "b_down", "w_pos1", "b_pos1", "w_pos2", "b_pos2",
                     "w_dir1", "b_dir1", "w_dir2", "b_dir2")
        for n in names:
            yield n, getattr(self, n)
        if variant != "mlp1" and self.cfg.predict_gripper:
            yield "w_grip", self.w_grip
            yield "b_grip", self.b_grip
        if variant == "ssm-mlp":
            for n, p in self.block.named_params():
                yield f"block.{n}", p

    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.named_params())

    def _branch(self, x: Tensor, w1, b1, w2, b2) -> Tensor:
        return dc.add(dc.matmul(dc.silu(dc.add(dc.matmul(x, w1), b1)), w2), b2)

    def forward(self, hidden: Tensor) -> PoseOutputs:
        """Full LM hidden states [L, d_model] -> pose outputs (on tape)."""
        # standardize the pooled feature (parameter-free) so the branch
        # activations start at unit scale regardless of backbone statistics
        pooled = dc.layer_norm(pool_global_token(hidden, self.cfg.pool))
        variant = self.cfg.head_variant
        grip = None
        if variant == "mlp2":
            pos_out = self._branch(pooled, self.w_pos1, self.b_pos1,
                                   self.w_pos2, self.b_pos2)
            rot6 = self._branch(pooled, self.w_dir1, self.b_dir1,
                                self.w_dir2, self.b_dir2)
            if self.cfg.predict_gripper:
                grip = dc.add(dc.matmul(pooled, self.w_grip), self.b_grip)
        elif variant == "mlp1":
            out = self._branch(pooled, self.w1, self.b1, self.w2, self.b2)
            pos_out = dc.tslice(out, 1, 0, 2)
            rot6 = dc.tslice(out, 1, self.n_pos_out, self.n_pos_out + 6)
            if self.cfg.predict_gripper:
                grip = dc.tslice(out, 1, 2, 3)
        else:
            x0 = dc.add(dc.matmul(pooled, self.w_down), self.b_down)
            feats, _ = self.block.forward(x0)            # length-1 sequence
            pos_out = self._branch(feats, self.w_pos1, self.b_pos1,
                                   self.w_pos2, self.b_pos2)
            rot6 = self._branch(feats, self.w_dir1, self.b_dir1,
                                self.w_dir2, self.b_dir2)
            if self.cfg.predict_gripper:
                grip = dc.add(dc.matmul(feats, self.w_grip), self.b_grip)

        # pixel = sigmoid(branch logits): the squash keeps the prediction
        # inside the image and its vanishing tails damp the optimizer during
        # excursions, so the L1 fit settles instead of cycling; a zero readout
        # decodes to the image centre (0.5, 0.5)
        pixel = dc.sigmoid(pos_out)
        # fixed identity offset: zero branch output decodes to the identity
        # rotation instead of a degenerate 6D representation
        rot6 = dc.add(rot6, dc.tensor(
            np.array([[1.0, 0, 0, 0, 1.0, 0]]), dtype=rot6.data.dtype))
        return PoseOutputs(pixel=pixel, rot6=rot6,
                           rot=gram_schmidt_6d(rot6), gripper_logit=grip)


def predict_pose(head: PoseHead, hidden: Tensor) -> EndEffectorPose:
    """Detached pose for evaluation (3D position filled in by lift_to_3d)."""
    out = head.forward(hidden)
    u, v = (float(x) for x in out.pixel.data[0])
    grip = None
    if out.gripper_logit is not None:
        grip = bool(out.gripper_logit.data[0, 0] > 0.0)
    return EndEffectorPose(a_dir=out.rot.data.copy(), contact_pixel=(u, v),
                           gripper=grip)


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
    dt = pred_pixels.data.dtype
    diff = dc.add(pred_pixels, dc.mul(dc.tensor(gt, dtype=dt),
                                      dc.tensor(-1.0, dtype=dt)))
    # mean over all 2N entries times 2 = mean over N of the per-sample sum
    return dc.mul(dc.mean_pool(dc.absolute(diff)), dc.tensor(2.0, dtype=dt))


def direction_loss(pred_rots: list[Tensor], gt_rots: np.ndarray) -> Tensor:
    """Mean geodesic angle arccos((tr(R_gt^T R) - 1)/2) over the batch, on tape.

    pred_rots: list of [3, 3] on-tape rotations; gt_rots: [N, 3, 3] constants.
    Inputs whose orthonormality error exceeds 1e-3 are rejected.
    """
    gt = np.asarray(gt_rots)
    if gt.ndim != 3 or gt.shape[1:] != (3, 3):
        raise ShapeError(f"direction_loss: gt must be [N, 3, 3], got {gt.shape}")
    if len(pred_rots) != gt.shape[0]:
        raise ShapeError(f"direction_loss: batch sizes differ: "
                         f"{len(pred_rots)} vs {gt.shape[0]}")
    if len(pred_rots) == 0:
        raise ShapeError("direction_loss: empty batch")
    dt = pred_rots[0].data.dtype
    ones_r = dc.tensor(np.ones((1, 3)), dtype=dt)
    ones_c = dc.tensor(np.ones((3, 1)), dtype=dt)
    angles = []
    for i, pred in enumerate(pred_rots):
        _require_rotation(f"direction_loss: pred[{i}]", pred.data)
        _require_rotation(f"direction_loss: gt[{i}]", gt[i])
        # tr(G^T R) is the sum of the elementwise product
        prod = dc.mul(pred, dc.tensor(gt[i], dtype=dt))
        tr = dc.matmul(ones_r, dc.matmul(prod, ones_c))          # [1,1]
        arg = dc.add(dc.mul(tr, dc.tensor(0.5, dtype=dt)),
                     dc.tensor(-0.5, dtype=dt))
        angles.append(dc.arccos(arg))
    return dc.mean_pool(dc.concat(angles, axis=0))


# ---------------------------------------------------------------------------
# pixel + depth -> camera-frame 3D


def lift_to_3d(pixel: tuple[float, float], depth: np.ndarray,
               cam: SimConfig) -> np.ndarray:
    """(u, v) in [0,1]^2 plus a depth map -> (X, Y, Z) metres, camera frame.

    Depth is sampled at the containing integer pixel; the ray uses the
    continuous pixel coordinates.  Zero depth marks an invalid sample.
    """
    u, v = pixel
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"lift_to_3d: pixel ({u}, {v}) outside [0,1]^2")
    h, w = depth.shape
    u_px, v_px = u * w, v * h
    col = min(int(u_px), w - 1)
    row = min(int(v_px), h - 1)
    d = float(depth[row, col])
    if d <= 0.0:
        raise ValueError(f"lift_to_3d: invalid (zero) depth at pixel "
                         f"({col}, {row})")
    return np.array([(u_px - cam.cx) * d / cam.fx,
                     (v_px - cam.cy) * d / cam.fy,
                     d])
