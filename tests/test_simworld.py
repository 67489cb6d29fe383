"""Simulator tests: rasterizer against an independent ray-triangle oracle and
against the rasterizer without back-face culling, the render memo,
interaction physics against hand-built poses, episode reproducibility, and
digests that pin evaluation and collection outputs."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simworld_reference
from mambavla.config import SimConfig
from mambavla.diffcore import NonFiniteError
from mambavla.policy import EndEffectorPose, lift_to_3d
from mambavla import simworld as sw


# ---------------------------------------------------------------------------
# oracles (test-only)


def raycast(scene, row, col, cam):
    """Moller-Trumbore over the scene triangles through a pixel centre.

    Returns (depth, normal, color, part_id) of the nearest hit, the ray
    parameterized so t equals camera-z, or None when nothing is hit.
    """
    d = np.array([((col + 0.5) - cam.cx) / cam.fx,
                  ((row + 0.5) - cam.cy) / cam.fy,
                  1.0])
    best = None
    tris = scene.triangles()
    for verts, n, color, part_id in zip(tris.verts, tris.normal, tris.color, tris.part_id):
        v0, v1, v2 = verts
        e1, e2 = v1 - v0, v2 - v0
        h = np.cross(d, e2)
        a = e1 @ h
        if abs(a) < 1e-12:
            continue
        f = 1.0 / a
        s = -v0
        u = f * (s @ h)
        if u < -1e-9 or u > 1 + 1e-9:
            continue
        q = np.cross(s, e1)
        v = f * (d @ q)
        if v < -1e-9 or u + v > 1 + 1e-9:
            continue
        t = f * (e2 @ q)
        if t > 1e-6 and (best is None or t < best[0]):
            best = (t, n, color, part_id)
    return best


def assert_pixel_matches_raycast(scene, buf, r, c):
    """The z-buffer's winner at (r, c) is the nearest ray hit, or nothing."""
    hit = raycast(scene, r, c, sw.CAMERA)
    if buf.part_id[r, c] == sw.PART_BACKGROUND:
        assert hit is None, f"raycast hit background pixel ({r}, {c})"
        assert buf.depth[r, c] == 0.0 and not buf.normal[r, c].any()
        return
    assert hit is not None, f"raycast missed rendered pixel ({r}, {c})"
    t, n, color, part_id = hit
    assert buf.part_id[r, c] == part_id
    assert np.array_equal(buf.normal[r, c], n)
    assert np.array_equal(buf.rgb[r, c], sw._shade(color, n))
    assert buf.depth[r, c] == pytest.approx(t, rel=1e-9)


def plain_scene(box):
    """Wrap a bare box as a single-part scene (for rasterizer examples)."""
    obj = sw.ArticulatedObject(
        archetype="drawer", joint_kind="prismatic",
        axis=np.array([0.0, 0.0, -1.0]), pivot=None,
        q_min=0.0, q_max=1.0, q=0.0,
        base_boxes=[], movable_box=box,
        base_color=np.array([0.5, 0.5, 0.5]),
        movable_color=np.array([0.8, 0.3, 0.3]))
    return sw.Scene(obj=obj)


def pose_with(z_axis, a_pos):
    """Right-handed orthonormal pose with the given approach z column."""
    z = z_axis / np.linalg.norm(z_axis)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(seed @ z) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    y = seed - (seed @ z) * z
    y /= np.linalg.norm(y)
    x = np.cross(y, z)
    pose = EndEffectorPose(a_dir=np.stack([x, y, z], axis=1),
                           contact_pixel=(0.5, 0.5))
    pose.a_pos = np.asarray(a_pos, dtype=np.float64)
    return pose


# ---------------------------------------------------------------------------
# spawning


def test_spawn_same_seed_identical():
    a = sw.spawn_object(7, "drawer")
    b = sw.spawn_object(7, "drawer")
    assert np.array_equal(a.obj.movable_box.center, b.obj.movable_box.center)
    assert np.array_equal(a.obj.base_color, b.obj.base_color)
    assert a.obj.q_max == b.obj.q_max
    ra, rb = sw.render(a), sw.render(b)
    assert np.array_equal(ra[0], rb[0]) and np.array_equal(ra[1], rb[1])


@pytest.mark.parametrize("kind", sw.ARCHETYPES)
def test_spawn_movable_covers_five_percent(kind):
    for seed in range(8):
        scene = sw.spawn_object(seed, kind)
        buf = sw.render_buffers(scene)
        frac = np.mean(buf.part_id == sw.PART_MOVABLE)
        assert frac >= 0.05, f"{kind} seed {seed}: {frac:.3f}"


@pytest.mark.parametrize("kind", sw.ARCHETYPES)
def test_spawn_starts_closed_with_unit_axis(kind):
    scene = sw.spawn_object(3, kind)
    assert scene.obj.q == scene.obj.q_min == 0.0
    assert abs(np.linalg.norm(scene.obj.axis) - 1.0) <= 1e-9


def test_drawer_axis_perpendicular_to_door_hinge():
    drawer = sw.spawn_object(0, "drawer").obj
    door = sw.spawn_object(0, "door").obj
    assert abs(drawer.axis @ door.axis) <= 1e-12


def test_spawn_unknown_kind_rejected():
    with pytest.raises(ValueError, match="archetype"):
        sw.spawn_object(0, "window")


# ---------------------------------------------------------------------------
# rasterizer


def test_empty_scene_renders_zero_depth():
    scene = plain_scene(sw.Box(center=np.array([0.0, 0.0, -5.0]),
                               half=np.array([0.5, 0.5, 0.5])))
    rgb, depth = sw.render(scene)
    assert np.all(depth == 0.0)
    assert np.allclose(rgb, rgb[0, 0])          # uniform background


def test_unit_cube_center_depth_is_near_face():
    scene = plain_scene(sw.Box(center=np.array([0.0, 0.0, 2.0]),
                               half=np.array([0.5, 0.5, 0.5])))
    buf = sw.render_buffers(scene)
    assert buf.depth[16, 16] == pytest.approx(1.5, abs=1e-9)
    assert buf.part_id[16, 16] == sw.PART_MOVABLE
    assert np.allclose(buf.normal[16, 16], [0.0, 0.0, -1.0])


def test_depth_zero_exactly_on_background():
    buf = sw.render_buffers(sw.spawn_object(11, "drawer"))
    assert np.array_equal(buf.depth == 0.0, buf.part_id == sw.PART_BACKGROUND)
    covered = buf.part_id != sw.PART_BACKGROUND
    assert np.all(buf.depth[covered] > 0.5)


def test_render_shows_base_and_distinct_movable():
    scene = sw.spawn_object(5, "door")
    buf = sw.render_buffers(scene)
    assert np.any(buf.part_id == sw.PART_BASE)
    assert np.any(buf.part_id == sw.PART_MOVABLE)
    assert np.max(np.abs(scene.obj.movable_color - scene.obj.base_color)) > 0.25
    norms = np.linalg.norm(buf.normal[buf.part_id != 0], axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.all(buf.normal[buf.part_id == 0] == 0.0)
    assert buf.rgb.min() >= 0.0 and buf.rgb.max() <= 1.0


def test_lift_matches_raycast_over_thousand_pixels():
    """lift_to_3d on rendered depth lands on the true surface within 1e-3 m.

    Interior pixels only: at silhouette edges the pixel-centre ray and the
    rasterized fragment may legitimately belong to different surfaces.
    """
    cam = sw.CAMERA
    rng = np.random.default_rng(0)
    checked = 0
    for i in range(20):
        scene = sw.spawn_object(100 + i, sw.ARCHETYPES[i % 3])
        buf = sw.render_buffers(scene)
        interior = buf.part_id.copy()
        same = np.ones_like(interior, dtype=bool)
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            same &= np.roll(interior, (dr, dc), axis=(0, 1)) == interior
        rows, cols = np.nonzero(same & (interior != 0))
        pick = rng.permutation(len(rows))[:60]
        for j in pick:
            r, c = int(rows[j]), int(cols[j])
            found = raycast(scene, r, c, cam)
            assert found is not None, f"raycast missed rendered pixel ({r}, {c})"
            t = found[0]
            pixel = ((c + 0.5) / cam.width, (r + 0.5) / cam.height)
            lifted = lift_to_3d(pixel, buf.depth, cam)
            hit = t * np.array([((c + 0.5) - cam.cx) / cam.fx,
                                ((r + 0.5) - cam.cy) / cam.fy, 1.0])
            assert np.linalg.norm(lifted - hit) <= 1e-3
            checked += 1
    assert checked >= 1000


@pytest.mark.parametrize("kind", sw.ARCHETYPES)
@pytest.mark.parametrize("opened", [False, True], ids=["q0", "qmax"])
def test_zbuffer_winner_matches_raycast(kind, opened):
    """Depth, part, normal and shade all come from the nearest ray hit, with
    the joint closed and fully open: up to 30 pixels each of background, base
    and movable part per scene.  Both sides sample at pixel centres, so this
    holds at silhouettes too, where the base often shows only as a rim."""
    rng = np.random.default_rng(1)
    checked = {sw.PART_BACKGROUND: 0, sw.PART_BASE: 0, sw.PART_MOVABLE: 0}
    for seed in range(3):
        scene = sw.spawn_object(200 + seed, kind)
        scene.obj.q = scene.obj.q_max if opened else 0.0
        buf = sw.render_buffers(scene)
        for part in checked:
            rows, cols = np.nonzero(buf.part_id == part)
            for j in rng.permutation(len(rows))[:30]:
                assert_pixel_matches_raycast(scene, buf, int(rows[j]), int(cols[j]))
                checked[part] += 1
    assert min(checked.values()) >= 30, checked


def test_box_straddling_left_frame_edge_matches_raycast():
    # front face spans columns -3.8 .. 9.4; the +x side face is visible too
    scene = plain_scene(sw.Box(center=np.array([-0.8, 0.0, 2.0]),
                               half=np.array([0.4, 0.3, 0.3])))
    buf = sw.render_buffers(scene)
    assert np.any(buf.part_id[:, 0] == sw.PART_MOVABLE)
    assert not np.any(buf.part_id[:, 12:])
    assert {tuple(n) for n in buf.normal[buf.part_id != 0]} == \
        {(0.0, 0.0, -1.0), (1.0, 0.0, 0.0)}
    for r, c in np.ndindex(buf.part_id.shape):
        assert_pixel_matches_raycast(scene, buf, r, c)


@pytest.mark.parametrize("center", [(3.0, 0.0, 2.0), (-3.0, 0.0, 2.0),
                                    (0.0, 3.0, 2.0), (0.0, -3.0, 2.0)],
                         ids=["right", "left", "below", "above"])
def test_box_projecting_outside_frame_renders_empty(center):
    scene = plain_scene(sw.Box(center=np.array(center),
                               half=np.array([0.4, 0.4, 0.4])))
    assert scene.triangles().verts[:, :, 2].min() > 1.0
    buf = sw.render_buffers(scene)
    assert np.all(buf.depth == 0.0) and np.all(buf.part_id == 0)
    assert np.all(buf.normal == 0.0)
    assert np.all(buf.rgb == sw._BG_COLOR)


# ---------------------------------------------------------------------------
# joint kinematics


def test_drawer_opens_toward_camera():
    scene = sw.spawn_object(2, "drawer")
    closed = scene.obj.movable_triangles().verts[:, :, 2].mean()
    scene.obj.q = 0.2
    opened = scene.obj.movable_triangles().verts[:, :, 2].mean()
    assert opened == pytest.approx(closed - 0.2, abs=1e-12)


def test_door_swings_toward_camera():
    scene = sw.spawn_object(2, "door")
    closed = scene.obj.movable_triangles().verts[:, :, 2].min()
    scene.obj.q = 0.5
    opened = scene.obj.movable_triangles().verts[:, :, 2].min()
    assert opened < closed - 0.05


def test_lid_front_edge_rises():
    scene = sw.spawn_object(2, "lid")
    closed = scene.obj.movable_triangles().verts[:, :, 1].min()
    scene.obj.q = 0.5
    opened = scene.obj.movable_triangles().verts[:, :, 1].min()
    assert opened < closed - 0.05            # y is down: smaller y = higher


# ---------------------------------------------------------------------------
# interaction


def drawer_front_center(scene):
    box = scene.obj.movable_box
    return box.center + np.array([0.0, 0.0, -box.half[2]])


def test_oracle_pull_opens_drawer_quarter_metre():
    scene = sw.spawn_object(3, "drawer")
    pose = pose_with([0.0, 0.0, 1.0], drawer_front_center(scene))
    success, dq = sw.interact(scene, pose)
    assert success and dq == pytest.approx(0.25, abs=1e-12)
    assert scene.obj.q == 0.0                # interact does not mutate


def test_interact_is_pure():
    scene = sw.spawn_object(3, "door")
    pose = sw.oracle_policy(sw.Observation(
        rgb=None, depth=None, prompt="", cam=sw.CAMERA, scene=scene))
    first = sw.interact(scene, pose)
    second = sw.interact(scene, pose)
    assert first == second


def test_base_contact_refused():
    scene = sw.spawn_object(3, "drawer")
    body = scene.obj.base_boxes[0]
    side = body.center + np.array([body.half[0], 0.0, 0.0])
    success, dq = sw.interact(scene, pose_with([-1.0, 0.0, 0.0], side))
    assert (success, dq) == (False, 0.0)


def test_attach_tolerance_boundary():
    scene = sw.spawn_object(3, "drawer")
    front = drawer_front_center(scene)
    near = front + np.array([0.0, 0.0, -0.005])
    far = front + np.array([0.0, 0.0, -0.02])
    assert sw.interact(scene, pose_with([0, 0, 1], near))[0]
    assert sw.interact(scene, pose_with([0, 0, 1], far)) == (False, 0.0)


def test_attach_cone_boundary():
    scene = sw.spawn_object(3, "drawer")
    front = drawer_front_center(scene)
    for deg, expect_attach in ((59.0, True), (61.0, False)):
        th = np.deg2rad(deg)
        z = np.array([np.sin(th), 0.0, np.cos(th)])
        success, dq = sw.interact(scene, pose_with(z, front))
        if expect_attach:
            assert dq == pytest.approx(0.25 * np.cos(th), abs=1e-12)
        else:
            assert (success, dq) == (False, 0.0)


def test_orthogonal_pull_fails():
    """Attached to the drawer-front top edge, pulling up: no joint motion."""
    scene = sw.spawn_object(3, "drawer")
    box = scene.obj.movable_box
    top = box.center + np.array([0.0, -box.half[1], 0.0])
    success, dq = sw.interact(scene, pose_with([0.0, 1.0, 0.0], top))
    assert (success, dq) == (False, 0.0)


def test_pull_clamped_to_joint_limit():
    scene = sw.spawn_object(3, "drawer")
    for q_max, expect in ((0.15, True), (0.05, False)):
        scene.obj.q_max = q_max
        success, dq = sw.interact(
            scene, pose_with([0, 0, 1], drawer_front_center(scene)))
        assert dq == pytest.approx(q_max, abs=1e-12)
        assert success is expect


def test_pull_on_hinge_line_moves_nothing():
    scene = sw.spawn_object(4, "door")
    obj = scene.obj
    # approach along the hinge-side face's inward normal so the suction
    # attaches, with the contact exactly on the hinge line
    inward_x = 1.0 if obj.pivot[0] < obj.movable_box.center[0] else -1.0
    success, dq = sw.interact(
        scene, pose_with([inward_x, 0.0, 0.0], obj.pivot))
    assert (success, dq) == (False, 0.0)


@pytest.mark.parametrize("field,bad", [("a_pos", np.nan), ("a_pos", np.inf),
                                       ("a_pos", -np.inf), ("a_dir", np.nan),
                                       ("a_dir", np.inf)])
def test_interact_rejects_non_finite_pose(field, bad):
    # a NaN fails every range test, so unchecked it read as an attach
    scene = sw.spawn_object(3, "drawer")
    pose = pose_with([0.0, 0.0, 1.0], drawer_front_center(scene))
    getattr(pose, field)[0, ...] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sw.interact(scene, pose)


def test_interact_requires_lifted_contact():
    scene = sw.spawn_object(3, "drawer")
    pose = EndEffectorPose(a_dir=np.eye(3), contact_pixel=(0.5, 0.5))
    with pytest.raises(ValueError, match="contact"):
        sw.interact(scene, pose)


def test_door_pull_angle_scales_with_lever_arm():
    """dq = pull . tangent / |r_perp| on the door's front surface."""
    scene = sw.spawn_object(6, "door")
    obj = scene.obj
    panel = obj.movable_box
    sign = 1.0 if obj.pivot[0] < panel.center[0] else -1.0
    tz = 2 * panel.half[2]               # contact sits a panel thickness
    results = []                         # in front of the hinge line
    for frac in (0.5, 0.9):
        p = obj.pivot + np.array([sign * frac * 2 * panel.half[0], 0.0, -tz])
        _, dq = sw.interact(scene, pose_with([0.0, 0.0, 1.0], p))
        a = frac * 2 * panel.half[0]
        expected = min(0.25 * a / (a * a + tz * tz), obj.q_max)
        assert dq == pytest.approx(expected, rel=1e-9)
        results.append(dq)
    assert results[1] < results[0]       # longer lever arm, smaller angle


# ---------------------------------------------------------------------------
# episodes


def test_collect_episode_byte_identical():
    a = sw.collect_episode(42)
    b = sw.collect_episode(42)
    assert a.rgb.tobytes() == b.rgb.tobytes()
    assert a.depth.tobytes() == b.depth.tobytes()
    assert a.gt_pose.a_dir.tobytes() == b.gt_pose.a_dir.tobytes()
    assert (a.success, a.dq, a.prompt, a.archetype) == \
        (b.success, b.dq, b.prompt, b.archetype)


@pytest.mark.parametrize("kind", sw.ARCHETYPES)
def test_collect_episode_gt_pose_is_valid_rotation(kind):
    cam = sw.CAMERA
    for seed in range(6):
        ep = sw.collect_episode(seed, kind)
        R = ep.gt_pose.a_dir
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-6
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-6)
        # z column opposes the rendered normal at the contact pixel
        buf = sw.render_buffers(sw.spawn_object(seed, kind))
        u, v = ep.gt_pose.contact_pixel
        n = buf.normal[int(v * cam.height), int(u * cam.width)]
        assert R[:, 2] @ n == pytest.approx(-1.0, abs=1e-6)
        assert buf.part_id[int(v * cam.height), int(u * cam.width)] == \
            sw.PART_MOVABLE


def test_collect_episode_success_matches_threshold():
    for seed in range(30):
        ep = sw.collect_episode(seed)
        assert ep.success == (abs(ep.dq) > 0.1)
        assert ep.prompt == sw.PROMPTS[ep.archetype]
        assert ep.rgb.shape == (32, 32, 3) and ep.depth.shape == (32, 32)


def test_collect_episode_contact_lifts_onto_part():
    ep = sw.collect_episode(9, "drawer")
    assert ep.gt_pose.a_pos is not None
    assert ep.gt_pose.a_pos[2] > 1.0         # in front of the camera


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_oracle_is_perfect():
    rate, log = sw.evaluate(sw.oracle_policy, episodes=30, seed=0)
    assert rate == 1.0
    assert [e["seed"] for e in log] == list(range(30))
    assert [e["archetype"] for e in log[:4]] == ["drawer", "door", "lid",
                                                 "drawer"]


def test_evaluate_random_normal_between_zero_and_one():
    policy = sw.random_normal_policy(np.random.default_rng(1))
    rate, log = sw.evaluate(policy, episodes=120, seed=0, kind="drawer")
    assert 0.0 < rate < 1.0
    assert all(e["archetype"] == "drawer" for e in log)


def test_evaluate_center_pixel_below_oracle():
    oracle_rate, _ = sw.evaluate(sw.oracle_policy, episodes=30, seed=0)
    center_rate, _ = sw.evaluate(sw.center_pixel_policy, episodes=30, seed=0)
    assert center_rate < oracle_rate


def test_evaluate_invalid_rotation_counted_not_raised():
    def bad_policy(obs):
        return EndEffectorPose(a_dir=2.0 * np.eye(3),
                               contact_pixel=(0.5, 0.5))
    rate, log = sw.evaluate(bad_policy, episodes=3, seed=0)
    assert rate == 0.0
    assert all("error" in e and not e["success"] for e in log)


def test_evaluate_non_finite_policy_error_counted_not_raised():
    def nan_policy(obs):
        raise NonFiniteError("matmul: non-finite output")
    rate, log = sw.evaluate(nan_policy, episodes=3, seed=0)
    assert rate == 0.0
    assert len(log) == 3
    assert all(e["error"] == "matmul: non-finite output" and not e["success"]
               for e in log)


def test_evaluate_non_finite_position_is_failure():
    def nan_pos_policy(obs):
        pose = sw.oracle_policy(obs)
        pose.a_pos[0] = np.nan
        return pose
    rate, log = sw.evaluate(nan_pos_policy, episodes=3, seed=0)
    assert rate == 0.0
    assert all("a_pos" in e["error"] and not e["success"] for e in log)


@pytest.mark.parametrize("returned", [None, (0.5, 0.5), np.eye(3)],
                         ids=["None", "tuple", "ndarray"])
def test_evaluate_non_pose_return_is_type_error(returned):
    # a programming error, not a scored episode
    with pytest.raises(TypeError, match=f"policy returned {type(returned).__name__}"):
        sw.evaluate(lambda obs: returned, episodes=2, seed=0)


def test_evaluate_zero_depth_contact_is_failure():
    def corner_policy(obs):
        return EndEffectorPose(a_dir=np.eye(3), contact_pixel=(0.015, 0.015))
    rate, log = sw.evaluate(corner_policy, episodes=3, seed=0)
    assert rate == 0.0
    assert all("error" in e for e in log)


def test_evaluate_rejects_zero_episodes():
    with pytest.raises(ValueError, match="episodes"):
        sw.evaluate(sw.oracle_policy, episodes=0, seed=0)


@pytest.mark.parametrize("episodes", [2.5, 3.0, "3"])
def test_evaluate_rejects_non_integer_episodes(episodes):
    # 2.5 used to fail inside range() as a TypeError
    with pytest.raises(ValueError, match="episodes must be an integer"):
        sw.evaluate(sw.oracle_policy, episodes, 0)


@pytest.mark.parametrize("episodes", [True, False], ids=repr)
def test_evaluate_rejects_bool_episodes(episodes):
    with pytest.raises(ValueError, match="episodes must be an integer"):
        sw.evaluate(sw.oracle_policy, episodes, 0)


@pytest.mark.parametrize("episodes", [np.int64(3), np.uint8(3)], ids=repr)
def test_evaluate_runs_numpy_integer_episodes_as_the_int(episodes):
    # np.int64(3) used to raise "episodes must be an integer", unlike a seed
    rate, log = sw.evaluate(sw.center_pixel_policy, episodes, 5)
    assert (rate, log) == sw.evaluate(sw.center_pixel_policy, 3, 5)
    assert type(rate) is float


def test_evaluate_observations_carry_the_shared_camera():
    cams = []

    def policy(obs):
        cams.append(obs.cam)
        return sw.center_pixel_policy(obs)

    sw.evaluate(policy, 6, 0)
    assert len(cams) == 6 and all(cam is sw.CAMERA for cam in cams)


# ---------------------------------------------------------------------------
# back-face culling against the all-faces rasterizer

BUFFERS = ("rgb", "depth", "part_id", "normal")


def buffers_equal(a, b):
    return all(getattr(a, k).dtype == getattr(b, k).dtype and
               getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in BUFFERS)


def test_culled_render_is_byte_identical_over_spawned_scenes():
    """1,002 spawned scenes, closed, fully open and at a random joint value."""
    rng = np.random.default_rng(0)
    for seed in range(1002):
        scene = sw.spawn_object(seed, sw.ARCHETYPES[seed % 3])
        obj = scene.obj
        for q in (obj.q_min, obj.q_max, float(rng.uniform(obj.q_min, obj.q_max))):
            obj.q = q
            assert buffers_equal(sw.render_buffers(scene),
                                 simworld_reference.render_buffers_all_faces(scene)), \
                f"seed {seed}, q = {q}"


def triangles_equal(got, want):
    """Same triangles in the same order, every array byte for byte."""
    got = list(zip(got.verts, got.normal, got.color, got.part_id))
    return len(got) == len(want) and all(
        np.asarray(g).dtype == np.asarray(w).dtype == np.float64
        and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for got_tri, want_tri in zip(got, want) for g, w in zip(got_tri[:3], want_tri[:3])
    ) and [int(t[3]) for t in got] == [t[3] for t in want]


def test_scene_triangles_are_byte_identical_to_the_face_loop():
    """The array geometry against the per-face, per-triangle construction,
    on the sweep of the test above."""
    rng = np.random.default_rng(0)
    for seed in range(1002):
        scene = sw.spawn_object(seed, sw.ARCHETYPES[seed % 3])
        obj = scene.obj
        for q in (obj.q_min, obj.q_max, float(rng.uniform(obj.q_min, obj.q_max))):
            obj.q = q
            assert triangles_equal(scene.triangles(),
                                   simworld_reference.scene_triangles(scene)), \
                f"seed {seed}, q = {q}"


_BOX = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.6, 4.0),
                 st.floats(0.01, 0.8), st.floats(0.01, 0.8), st.floats(0.01, 0.5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_BOX, min_size=1, max_size=3))
@example([(0.25, 1.0, 1.0, 0.5, 0.25, 0.5)])
def test_culled_render_matches_all_faces_on_random_boxes(boxes):
    """Up to three boxes, each wholly in front of the camera (z half-extent
    kept below the centre's z), many of them over the frame edge.

    The buffers agree byte for byte except at a pixel whose centre lies
    exactly on an edge that a back face shares with a front face, as in the
    explicit example: the two faces tie in 1/z there and the all-faces
    rasterizer hands the pixel to whichever comes first, which can be the
    back face.  The culled one shows the front face at the same depth.
    Spawned scenes draw their sizes from continuous ranges and never hit
    such a tie (the test above)."""
    built = [sw.Box(center=np.array([x, y, z]),
                    half=np.array([hx, hy, min(hz, z - 0.01)]))
             for x, y, z, hx, hy, hz in boxes]
    scene = plain_scene(built[0])
    scene.obj.base_boxes = built[1:]
    cam = sw.CAMERA
    got = sw.render_buffers(scene)
    want = simworld_reference.render_buffers_all_faces(scene)
    differ = ((got.part_id != want.part_id) | (got.depth != want.depth)
              | np.any(got.rgb != want.rgb, axis=-1)
              | np.any(got.normal != want.normal, axis=-1))
    for r, c in zip(*np.nonzero(differ)):
        ray = np.array([((c + 0.5) - cam.cx) / cam.fx, ((r + 0.5) - cam.cy) / cam.fy, 1.0])
        assert want.normal[r, c] @ ray >= 0.0, (r, c)    # a back face won a tie
        assert got.normal[r, c] @ ray < 0.0, (r, c)      # a front face shows
        assert got.depth[r, c] == pytest.approx(want.depth[r, c], rel=1e-9)


# ---------------------------------------------------------------------------
# render memo


@pytest.fixture
def triangle_calls(monkeypatch):
    """Counts calls to Scene.triangles: one per rasterization."""
    calls = []
    triangles = sw.Scene.triangles

    def counted(scene):
        calls.append(scene)
        return triangles(scene)

    monkeypatch.setattr(sw.Scene, "triangles", counted)
    return calls


def test_unchanged_scene_is_rasterized_once(triangle_calls):
    scene = sw.spawn_object(3, "door")
    draws = len(triangle_calls)
    first = sw.render_buffers(scene)          # spawn's accepted render
    second = sw.render_buffers(scene)
    assert len(triangle_calls) == draws and second is first
    scene.obj.q = scene.obj.q_max
    sw.render_buffers(scene)
    sw.render(scene)
    assert len(triangle_calls) == draws + 1


def assert_fresh_render(scene):
    """The memo's answer equals a render of the same state in a new Scene."""
    fresh = sw.Scene(obj=scene.obj)
    assert buffers_equal(sw.render_buffers(scene), sw.render_buffers(fresh))
    assert buffers_equal(sw.render_buffers(scene),
                         simworld_reference.render_buffers_all_faces(scene))


@pytest.mark.parametrize("kind", sw.ARCHETYPES)
def test_memo_follows_joint_object_and_camera(kind):
    scene = sw.spawn_object(20, kind)
    before = sw.render_buffers(scene)
    scene.obj.q = 0.5 * scene.obj.q_max
    assert_fresh_render(scene)
    assert not np.array_equal(sw.render_buffers(scene).part_id, before.part_id)
    scene.obj = sw.spawn_object(21, kind).obj
    assert_fresh_render(scene)
    # the camera, the rest of the render's state, cannot change under the memo
    with pytest.raises(dataclasses.FrozenInstanceError):
        sw.CAMERA.fx = 24.0
    assert_fresh_render(scene)


@pytest.mark.parametrize("name", BUFFERS)
def test_render_buffers_are_read_only(name):
    buf = sw.render_buffers(sw.spawn_object(5, "lid"))
    with pytest.raises(ValueError, match="read-only"):
        getattr(buf, name)[0, 0] = 0


@pytest.mark.parametrize("name", ["_LIGHT", "_BG_COLOR", "_PIXEL_U", "_PIXEL_V",
                                  "_BOX_SIGNS", "_BOX_NORMALS"])
def test_rasterizer_constants_are_read_only(name):
    """Every rasterization reads these, so a write would corrupt every
    later render."""
    with pytest.raises(ValueError, match="read-only"):
        getattr(sw, name)[0] = 0


# fresh per test, so the random policy's rng starts from its seed every time
POLICIES = {"center": lambda: sw.center_pixel_policy,
            "oracle": lambda: sw.oracle_policy,
            "random_normal": lambda: sw.random_normal_policy(np.random.default_rng(0))}


@pytest.mark.parametrize("policy", POLICIES)
def test_evaluate_rasterizes_once_per_spawn_draw(policy, triangle_calls, monkeypatch):
    draws = []
    builders = dict(sw._BUILDERS)
    monkeypatch.setattr(sw, "_BUILDERS", {
        kind: (lambda rng, build=build: draws.append(1) or build(rng))
        for kind, build in builders.items()})
    sw.evaluate(POLICIES[policy](), episodes=12, seed=0)
    assert len(draws) >= 12 and len(triangle_calls) == len(draws)
    draws.clear()
    triangle_calls.clear()
    sw.collect_episode(7)
    assert len(draws) >= 1 and len(triangle_calls) == len(draws)


# ---------------------------------------------------------------------------
# pinned outputs: SHA-256 of what the all-faces rasterizer produced


def log_digest(log):
    return hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("policy, rate, digest", [
    ("oracle", 1.0, "7617ef090d1b52a4d876a6b64ac0b5ad8ba15a6cae806036802b11e1a4616ad9"),
    ("center", 28 / 60, "502334969dafc754151cb8cd7cea0e3af95d8d7691c313fff0cfd7cef3670abe"),
    ("random_normal", 55 / 60,
     "38c827ccf4c8ba907c9e0deef9e350a024b2e8b3e071ae04de45de97a8a174b0"),
])
def test_evaluate_log_is_pinned(policy, rate, digest):
    got_rate, log = sw.evaluate(POLICIES[policy](), episodes=60, seed=10_000)
    assert got_rate == rate
    assert log_digest(log) == digest


def test_collect_episode_outputs_are_pinned():
    h = hashlib.sha256()
    for seed in range(6):
        ep = sw.collect_episode(seed, sw.ARCHETYPES[seed % 3])
        for a in (ep.rgb, ep.depth, ep.gt_pose.a_dir, ep.gt_pose.a_pos):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr((ep.gt_pose.contact_pixel, ep.success, ep.dq, ep.archetype)).encode())
    assert h.hexdigest() == "ef3ba0e16689e22ce2b2c0014a354e9f0c8a7005e294b8cad022b81327f1bf20"


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize("kw, field", [
    (dict(width=0), "width"),
    (dict(height=-1), "height"),
    (dict(width=32.0), "width"),
    (dict(fx=float("nan")), "fx"),
    (dict(fy=0.0), "fy"),
    (dict(fx=float("inf")), "fx"),
    (dict(cx=float("nan")), "cx"),
    (dict(cy=float("inf")), "cy"),
], ids=lambda v: str(v))
def test_sim_config_rejects_bad_values(kw, field):
    # width=0 failed in spawn_object as an IndexError, fx=nan as "could not
    # place a visible drawer"
    with pytest.raises(ValueError, match=f"SimConfig: {field}"):
        SimConfig(**kw)


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", [True, np.int64(32)], ids=repr)
def test_sim_config_sizes_are_python_ints(field, value):
    # width=True used to build a one-pixel camera; a numpy integer stays
    # refused, as in every config field
    with pytest.raises(ValueError, match=f"SimConfig: {field} must be an integer >= 1"):
        SimConfig(**{field: value})


def test_sim_config_accepts_its_boundaries():
    cam = SimConfig(width=1, height=1, cx=-3.0, cy=0.0)
    assert (cam.width, cam.height, cam.cx, cam.cy) == (1, 1, -3.0, 0.0)
