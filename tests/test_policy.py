"""Policy head: pooling, rotation representation, pose losses, 3D lift,
and parameter accounting across the three head variants."""

import math

import numpy as np
import pytest

from gradcheck import grad_check
from mambavla import diffcore as dc, policy
from mambavla.config import ModelConfig, SimConfig

RNG = np.random.default_rng(21)
CLAMP_FLOOR = math.acos(1.0 - 1e-7)     # ~4.472e-4 rad


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(vocab_size=16, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                expand=2, dt_rank=2, head_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def make_head(seed=0, dtype=np.float32, **kw) -> policy.PoseHead:
    return policy.PoseHead(tiny_cfg(**kw), np.random.default_rng(seed), dtype=dtype)


def t64(values):
    return dc.tensor(values, dtype=np.float64)


def rows(*rots):
    """[N, 9] batch of rotations, one row-major 3x3 per row."""
    return t64(np.stack([np.asarray(r).reshape(9) for r in rots]))


# ---------------------------------------------------------------------------
# pooling


def test_pool_singleton_returns_token():
    v = RNG.standard_normal((1, 6))
    np.testing.assert_array_equal(
        policy.pool_global_token(t64(v)).data[0], v[0])


def test_pool_constant_sequence_returns_constant():
    row = RNG.standard_normal(6)
    seq = np.tile(row, (7, 1))
    np.testing.assert_allclose(policy.pool_global_token(t64(seq)).data[0], row,
                               rtol=0, atol=1e-15)


def test_pool_mean_of_opposites_is_zero():
    v = RNG.standard_normal(5)
    out = policy.pool_global_token(t64(np.stack([v, -v])))
    np.testing.assert_allclose(out.data[0], np.zeros(5), rtol=0, atol=1e-16)


def test_pool_rejects_empty_sequence():
    with pytest.raises(dc.ShapeError):
        policy.pool_global_token(t64(np.zeros((0, 4))))


# ---------------------------------------------------------------------------
# rotation representation


def test_gram_schmidt_of_orthonormal_pair_is_identity():
    r6 = t64(np.array([[1.0, 0, 0, 0, 1.0, 0]]))
    R = policy.gram_schmidt_6d(r6).data.reshape(3, 3)
    np.testing.assert_allclose(R, np.eye(3), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_gram_schmidt_always_lands_on_so3(seed):
    r6 = t64(np.random.default_rng(seed).standard_normal((1, 6)))
    R = policy.gram_schmidt_6d(r6).data.reshape(3, 3)
    np.testing.assert_allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-10)
    assert abs(np.linalg.det(R) - 1.0) < 1e-10


def test_gram_schmidt_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        policy.gram_schmidt_6d(t64(np.zeros((1, 6))))
    with pytest.raises(ValueError):
        policy.gram_schmidt_6d(t64(np.array([[1.0, 0, 0, 2.0, 0, 0]])))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gram_schmidt_third_row_is_np_cross_bitwise(dtype):
    """The third row is computed through exact column shifts with the same
    products and difference as np.cross, so it matches np.cross bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        B = int(rng.integers(1, 9))
        r6 = rng.standard_normal((B, 6)) * rng.choice([1e-3, 1.0, 1e3])
        R = policy.gram_schmidt_6d(dc.tensor(r6, dtype=dtype)).data
        assert R.dtype == dtype
        cross = np.cross(R[:, 0:3], R[:, 3:6])
        assert R[:, 6:9].tobytes() == cross.tobytes()


# ---------------------------------------------------------------------------
# predict_pose


@pytest.mark.parametrize("variant", policy.HEAD_VARIANTS)
def test_predicted_pose_is_always_valid(variant):
    head = make_head(seed=3, head_variant=variant)
    hidden = dc.tensor(RNG.standard_normal((5, 16)), dtype=np.float32)
    pose = policy.predict_pose(head, hidden)
    pose.validate()
    u, v = pose.contact_pixel
    assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0


def test_zero_weights_predict_center_pixel_and_identity():
    head = make_head()
    for _, p in head.named_params():
        p.data[:] = 0.0
    pose = policy.predict_pose(
        head, dc.tensor(RNG.standard_normal((4, 16)), dtype=np.float32))
    assert pose.contact_pixel == (0.5, 0.5)
    np.testing.assert_allclose(pose.a_dir, np.eye(3), rtol=0, atol=1e-7)


@pytest.mark.parametrize("bad", [np.full((3, 3), np.nan),
                                 np.where(np.eye(3) == 1, np.nan, 0.0),
                                 np.diag([1.0, 1.0, np.inf])])
def test_validate_rejects_non_finite_rotation(bad):
    # every comparison with NaN is False, so a range check alone accepts it
    pose = policy.EndEffectorPose(a_dir=bad, contact_pixel=(0.5, 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        pose.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_position(bad):
    pose = policy.EndEffectorPose(a_dir=np.eye(3), contact_pixel=(0.5, 0.5),
                                  a_pos=np.array([bad, 0.0, 1.5]))
    with pytest.raises(ValueError, match="a_pos"):
        pose.validate()
    pose.a_pos = np.array([0.0, 0.0, 1.5])
    pose.validate()


# ---------------------------------------------------------------------------
# position loss


def test_position_loss_zero_when_equal():
    pts = RNG.random((4, 2))
    loss = policy.position_loss(t64(pts), pts)
    assert loss.item() == 0.0


def test_position_loss_frozen_value():
    loss = policy.position_loss(t64([[0.0, 0.0]]), np.array([[0.3, 0.4]]))
    assert abs(loss.item() - 0.7) < 1e-12


def test_position_loss_duplication_invariant():
    pred, gt = RNG.random((3, 2)), RNG.random((3, 2))
    single = policy.position_loss(t64(pred), gt).item()
    doubled = policy.position_loss(t64(np.tile(pred, (2, 1))),
                                   np.tile(gt, (2, 1))).item()
    assert abs(single - doubled) < 1e-12


def test_position_loss_metric_properties():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a, b, c = rng.random((3, 5, 2))
        ab = policy.position_loss(t64(a), b).item()
        ba = policy.position_loss(t64(b), a).item()
        ac = policy.position_loss(t64(a), c).item()
        cb = policy.position_loss(t64(c), b).item()
        assert ab >= 0.0
        assert abs(ab - ba) < 1e-12
        assert ab <= ac + cb + 1e-12
    assert policy.position_loss(t64(np.zeros((2, 2))), np.zeros((2, 2))).item() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_position_loss_rejects_non_finite_targets(bad):
    # unchecked, a NaN target fails deep inside diffcore as "NonFiniteError: mul"
    gt = RNG.random((4, 2))
    gt[2, 0] = bad
    with pytest.raises(ValueError, match=r"position_loss: gt\[2\] has non-finite"):
        policy.position_loss(t64(RNG.random((4, 2))), gt)


def test_position_loss_shape_mismatch_errors():
    with pytest.raises(dc.ShapeError):
        policy.position_loss(t64(np.zeros((3, 2))), np.zeros((4, 2)))
    with pytest.raises(dc.ShapeError):
        policy.position_loss(t64(np.zeros((3, 3))), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# direction loss


def _z_rot(angle):
    return policy.rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle)


def test_direction_loss_frozen_values():
    eye = np.eye(3)
    # identical rotations: clamp floor, not exactly zero
    same = policy.direction_loss(rows(eye), eye[None]).item()
    assert abs(same - CLAMP_FLOOR) < 1e-5
    # 90 degrees about z: trace 1 -> arccos(0) = pi/2
    quarter = policy.direction_loss(rows(_z_rot(math.pi / 2)), eye[None]).item()
    assert abs(quarter - math.pi / 2) < 1e-5
    # 180 degrees about z: trace -1 -> clamped arccos(-1)
    half = policy.direction_loss(rows(_z_rot(math.pi)), eye[None]).item()
    assert abs(half - (math.pi - CLAMP_FLOOR)) < 1e-5


def test_direction_loss_symmetry_and_left_invariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r1, r2, q = (random_rotation(rng) for _ in range(3))
        ab = policy.direction_loss(rows(r1), r2[None]).item()
        ba = policy.direction_loss(rows(r2), r1[None]).item()
        q_ab = policy.direction_loss(rows(q @ r1), (q @ r2)[None]).item()
        assert abs(ab - ba) <= 1e-6
        assert abs(ab - q_ab) <= 1e-6
        assert 0.0 <= ab <= math.pi


def test_direction_loss_batch_is_mean_of_angles():
    rng = np.random.default_rng(3)
    preds = [random_rotation(rng) for _ in range(4)]
    gts = np.stack([random_rotation(rng) for _ in range(4)])
    batch = policy.direction_loss(rows(*preds), gts).item()
    singles = [policy.direction_loss(rows(p), g[None]).item()
               for p, g in zip(preds, gts)]
    assert abs(batch - np.mean(singles)) < 1e-12


def test_direction_loss_rejects_non_rotations():
    eye = np.eye(3)
    with pytest.raises(ValueError):
        policy.direction_loss(rows(2.0 * eye), eye[None])
    with pytest.raises(ValueError):
        policy.direction_loss(rows(eye), (eye * 1.01)[None])
    with pytest.raises(dc.ShapeError):
        policy.direction_loss(rows(eye), np.stack([eye, eye]))


def test_direction_loss_rejects_non_finite_rotations():
    eye, nan = np.eye(3), np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match=r"pred\[0\].*non-finite"):
        policy.direction_loss(rows(nan), eye[None])
    with pytest.raises(ValueError, match=r"gt\[0\].*non-finite"):
        policy.direction_loss(rows(eye), nan[None])


@pytest.mark.parametrize("bad", ["nan", "inf", "scaled"])
def test_direction_loss_names_the_first_bad_row(bad):
    """One check covers the whole batch; the error names the first bad
    pred[k], and only when every pred row passes the first bad gt[k]."""
    rng = np.random.default_rng(4)
    rots = np.stack([random_rotation(rng) for _ in range(5)])
    broken = {"nan": np.full((3, 3), np.nan), "inf": np.diag([1.0, 1.0, np.inf]),
              "scaled": 1.01 * np.eye(3)}[bad]
    message = "non-finite" if bad != "scaled" else "not orthonormal"
    pred = rots.copy()
    pred[3] = broken
    pred[4] = np.full((3, 3), np.nan)
    gt = rots.copy()
    gt[1] = broken
    with pytest.raises(ValueError, match=rf"direction_loss: pred\[3\]: .*{message}"):
        policy.direction_loss(rows(*pred), gt)
    with pytest.raises(ValueError, match=rf"direction_loss: gt\[1\]: .*{message}"):
        policy.direction_loss(rows(*rots), gt)
    # a later non-orthonormal row does not hide an earlier non-finite one
    pred = rots.copy()
    pred[2], pred[4] = broken, 2.0 * np.eye(3)
    with pytest.raises(ValueError, match=rf"pred\[2\]: .*{message}"):
        policy.direction_loss(rows(*pred), rots)


def _first_bad_row_by_loop(pred, gt):
    """The per-row rule the batch check implements: the first pred row that
    is non-finite or not orthonormal within 1e-3, then the first gt row."""
    for name, mats in (("pred", pred), ("gt", gt)):
        for i, m in enumerate(mats):
            if not np.all(np.isfinite(m)):
                return f"direction_loss: {name}[{i}]: matrix has non-finite entries"
            if np.max(np.abs(m.T @ m - np.eye(3))) > 1e-3:
                return f"direction_loss: {name}[{i}]: input is not orthonormal within 0.001"
    return None


def test_direction_loss_batch_check_matches_a_per_row_loop():
    rng = np.random.default_rng(9)
    kinds = [None, np.full((3, 3), np.nan), np.diag([1.0, -np.inf, 1.0]),
             1.01 * np.eye(3), 0.9995 * np.eye(3), np.zeros((3, 3))]
    named_later_row = 0
    for _ in range(300):
        B = int(rng.integers(1, 7))
        pred, gt = (np.stack([random_rotation(rng) for _ in range(B)]) for _ in "pg")
        for mats in (pred, gt):
            for i in range(B):
                kind = kinds[rng.integers(len(kinds))] if rng.random() < 0.2 else None
                if kind is not None:
                    mats[i] = kind
        expected = _first_bad_row_by_loop(pred, gt)
        if expected is None:
            policy.direction_loss(rows(*pred), gt)
            continue
        with pytest.raises(ValueError) as info:
            policy.direction_loss(rows(*pred), gt)
        assert str(info.value) == expected
        named_later_row += "[0]" not in expected
    assert named_later_row >= 20


def test_direction_loss_gradient_through_6d():
    """Finite-difference check at relative angles inside [0.2, 2.9] rad."""
    rng = np.random.default_rng(11)
    checked = []
    for _ in range(30):
        r6_val = rng.standard_normal((1, 6))
        gt = random_rotation(rng)
        angle = policy.direction_loss(
            policy.gram_schmidt_6d(t64(r6_val)), gt[None]).item()
        if not (0.2 <= angle <= 2.9):
            continue
        err = grad_check(
            lambda r6: policy.direction_loss(policy.gram_schmidt_6d(r6), gt[None]),
            t64(r6_val))
        assert err <= 1e-3, f"direction grad rel err {err:.3e} at {angle:.2f} rad"
        checked.append((r6_val[0], gt))
        if len(checked) >= 5:
            break
    assert len(checked) >= 5, "not enough in-range samples drawn"

    # three of those points as one 3-row batch through one graph
    r6_rows, gts = (np.stack(x) for x in zip(*checked[:3]))
    err = grad_check(
        lambda r6: policy.direction_loss(policy.gram_schmidt_6d(r6), gts),
        t64(r6_rows))
    assert err <= 1e-3, f"batched direction grad rel err {err:.3e}"


# ---------------------------------------------------------------------------
# 3D lift


def test_lift_principal_point():
    cam = SimConfig()
    depth = np.full((32, 32), 2.0)
    pt = policy.lift_to_3d((0.5, 0.5), depth, cam)   # u_px = 16 = cx
    np.testing.assert_allclose(pt, [0.0, 0.0, 2.0], rtol=0, atol=1e-12)


def test_lift_one_focal_length_off_axis():
    # intrinsics chosen so u_px = cx + fx stays on the sensor
    cam = SimConfig(fx=8.0, fy=8.0, cx=8.0, cy=16.0)
    depth = np.full((32, 32), 1.0)
    u = (cam.cx + cam.fx) / 32.0                     # u_px = cx + fx = 16
    pt = policy.lift_to_3d((u, 0.5), depth, cam)
    np.testing.assert_allclose(pt, [1.0, 0.0, 1.0], rtol=0, atol=1e-12)


def test_lift_scales_with_depth():
    cam = SimConfig()
    a = policy.lift_to_3d((0.8, 0.3), np.full((32, 32), 1.5), cam)
    b = policy.lift_to_3d((0.8, 0.3), np.full((32, 32), 3.0), cam)
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_lift_zero_depth_errors_naming_pixel(bad):
    """A depth that is not positive and finite names its pixel: NaN and inf
    used to lift to [nan nan nan] and [nan nan inf]."""
    cam = SimConfig()
    depth = np.full((32, 32), 2.0)
    depth[9, 25] = bad
    with pytest.raises(ValueError, match=r"\(25, 9\)"):
        policy.lift_to_3d((25.5 / 32, 9.5 / 32), depth, cam)
    with pytest.raises(ValueError):
        policy.lift_to_3d((1.5, 0.5), depth, cam)


# ---------------------------------------------------------------------------
# parameter accounting


def param_count(head) -> int:
    return sum(p.data.size for _, p in head.named_params())


def _hand_count(cfg: ModelConfig) -> int:
    M, H = cfg.d_model, cfg.head_hidden
    if cfg.head_variant == "mlp2":
        return (M * H + H + H * 2 + 2) + (M * H + H + H * 6 + 6)
    if cfg.head_variant == "mlp1":
        return M * H + H + H * (2 + 6) + (2 + 6)
    # ssm-mlp: down-projection + one narrow block + two branch perceptrons
    E, N = 2 * H, cfg.d_state
    R = max(1, H // 16)
    w = cfg.d_conv
    block = (2 * H) + H * 2 * E + (w * E + E) + E * (R + 2 * N) \
        + (R * E + E) + E * N + E + E * H
    return (M * H + H) + block + (H * H + H + H * 2 + 2) + (H * H + H + H * 6 + 6)


@pytest.mark.parametrize("variant", policy.HEAD_VARIANTS)
def test_param_count_matches_hand_count(variant):
    cfg = tiny_cfg(head_variant=variant)
    head = policy.PoseHead(cfg, np.random.default_rng(0))
    assert param_count(head) == _hand_count(cfg)


def test_variant_ordering_on_default_config():
    counts = {}
    for variant in policy.HEAD_VARIANTS:
        cfg = ModelConfig(head_variant=variant)
        counts[variant] = param_count(policy.PoseHead(cfg, np.random.default_rng(0)))
    assert counts["mlp1"] < counts["mlp2"] < counts["ssm-mlp"], counts


@pytest.mark.parametrize("variant", policy.HEAD_VARIANTS)
def test_head_end_to_end_gradient(variant):
    cfg = tiny_cfg(head_variant=variant)
    head = policy.PoseHead(cfg, np.random.default_rng(4), dtype=np.float64)
    hidden_val = np.random.default_rng(5).standard_normal((6, cfg.d_model))
    gt_px = np.array([[0.3, 0.7]])
    gt_rot = random_rotation(np.random.default_rng(6))

    def loss(hidden):
        out = head.forward(policy.pool_global_token(hidden))
        pos = policy.position_loss(out.pixel, gt_px)
        rot = policy.direction_loss(out.rot, gt_rot[None])
        return dc.add(pos, rot)

    err = grad_check(loss, t64(hidden_val))
    assert err <= 1e-4, f"{variant}: end-to-end grad err {err:.3e}"


@pytest.mark.parametrize("variant", policy.HEAD_VARIANTS)
def test_head_batch_equals_mean_of_rows(variant):
    """One forward over a 5-row batch gives the mean of the five 1-row
    losses and gradients: no row leaks into another (for ssm-mlp, not
    through the block's conv or scan either)."""
    cfg = tiny_cfg(head_variant=variant)
    head = policy.PoseHead(cfg, np.random.default_rng(7), dtype=np.float64)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((5, cfg.d_model))
    gt_px = rng.random((5, 2))
    gt_rot = np.stack([random_rotation(rng) for _ in range(5)])
    params = [p for _, p in head.named_params()]

    def loss_and_grads(i, j):
        out = head.forward(t64(feats[i:j]))
        loss = dc.add(policy.position_loss(out.pixel, gt_px[i:j]),
                      policy.direction_loss(out.rot, gt_rot[i:j]))
        grads = dc.backward(loss)
        return loss.item(), [grads[p] for p in params]

    batch_loss, batch_grads = loss_and_grads(0, 5)
    singles = [loss_and_grads(i, i + 1) for i in range(5)]
    np.testing.assert_allclose(batch_loss, np.mean([l for l, _ in singles]),
                               rtol=1e-12)
    for k, (name, _) in enumerate(head.named_params()):
        np.testing.assert_allclose(
            batch_grads[k], np.mean([g[k] for _, g in singles], axis=0),
            rtol=1e-10, err_msg=name)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        policy.PoseHead(tiny_cfg(head_variant="transformer"),
                        np.random.default_rng(0))
