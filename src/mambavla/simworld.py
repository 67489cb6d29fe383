"""Procedural articulated-object environment.

Three archetypes — drawer (prismatic), door (vertical hinge), lid (horizontal
rear hinge) — built from axis-aligned boxes, rendered by a z-buffer triangle
rasterizer with a pinhole camera (x right, y down, z forward), and driven by a
quasi-static suction interaction: attach on the movable part, pull along the
approach axis, project the pull onto the joint's motion direction.

All randomness flows through per-call numpy Generators seeded explicitly, so
any episode is reproducible from its integer seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mambavla.config import SimConfig, check_seed, is_integer
from mambavla.policy import EndEffectorPose, lift_to_3d, rotation_about_axis

__all__ = [
    "CAMERA",
    "Triangles",
    "Box",
    "ArticulatedObject",
    "Scene",
    "RenderResult",
    "Observation",
    "ManipEpisode",
    "ARCHETYPES",
    "PROMPTS",
    "spawn_object",
    "render",
    "render_buffers",
    "interact",
    "collect_episode",
    "evaluate",
    "oracle_policy",
    "random_normal_policy",
    "center_pixel_policy",
]

ARCHETYPES = ("drawer", "door", "lid")
CAMERA = SimConfig()         # the one camera every scene is rendered through


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# every rasterization reads these module arrays, so none of them can be written
_LIGHT = _read_only(np.array([-0.4, -0.6, -0.7]) / np.linalg.norm([-0.4, -0.6, -0.7]))
_AMBIENT, _DIFFUSE = 0.35, 0.6
_BG_COLOR = _read_only(np.array([0.06, 0.06, 0.08]))
_MIN_PART_PIXELS = 0.05      # movable part must cover >= 5% of the frame
_MIN_BASE_PIXELS = 0.02      # base must cover >= 2% of the frame

PART_BACKGROUND, PART_BASE, PART_MOVABLE = 0, 1, 2

# suction interaction, and its success thresholds on the achieved joint displacement
_ATTACH_TOLERANCE = 1e-2                # max contact distance to the movable part, metres
_ATTACH_COS = np.cos(np.deg2rad(60.0))  # max 60 deg from approach z-axis to inward normal
_PULL_MAGNITUDE = 0.25                  # metres, applied along the retract direction
_PRISMATIC_THRESHOLD = 0.1              # metres
_REVOLUTE_THRESHOLD = 0.1               # radians


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# geometry


def _box_tables() -> tuple[np.ndarray, np.ndarray]:
    """Corner signs [12, 3, 3] and outward normals [12, 3] of a box's
    triangles, two per face, faces in the order -x, +x, -y, +y, -z, +z.

    Face (axis, sign) spans a = axis + 1 and b = axis + 2 (mod 3); its quad
    runs (-a, -b), (+a, -b), (+a, +b), (-a, +b) and splits into the
    triangles (0, 1, 2) and (0, 2, 3).
    """
    signs, normals = [], []
    for axis in range(3):
        a, b = (axis + 1) % 3, (axis + 2) % 3
        for sign in (-1.0, 1.0):
            quad = np.full((4, 3), sign)
            quad[:, a] = (-1.0, 1.0, 1.0, -1.0)
            quad[:, b] = (-1.0, -1.0, 1.0, 1.0)
            n = np.zeros(3)
            n[axis] = sign
            signs += [quad[[0, 1, 2]], quad[[0, 2, 3]]]
            normals += [n, n]
    return _read_only(np.stack(signs)), _read_only(np.stack(normals))


_BOX_SIGNS, _BOX_NORMALS = _box_tables()


@dataclass
class Triangles:
    """K triangles in camera frame as parallel arrays."""
    verts: np.ndarray                  # [K, 3, 3], one vertex per row
    normal: np.ndarray                 # [K, 3] outward face normals
    color: np.ndarray | None = None    # [K, 3] unshaded part colour
    part_id: np.ndarray | None = None  # [K] u8: PART_BASE or PART_MOVABLE


@dataclass
class Box:
    center: np.ndarray
    half: np.ndarray

    def triangles(self) -> Triangles:
        """The 12 triangles of the box: two per face, faces in the order -x,
        +x, -y, +y, -z, +z, corners `center + signs * half`."""
        return Triangles(self.center + _BOX_SIGNS * self.half, _BOX_NORMALS)

    def surface_distance(self, p: np.ndarray) -> float:
        """Distance from a point to the box surface (0 inside counts as 0)."""
        d = np.abs(p - self.center) - self.half
        return float(np.linalg.norm(np.maximum(d, 0.0)))

    def outward_normal_at(self, p: np.ndarray) -> np.ndarray:
        """Outward normal of the face nearest to a point at/near the surface."""
        rel = (p - self.center) / self.half
        axis = int(np.argmax(np.abs(rel)))
        n = np.zeros(3)
        n[axis] = np.sign(rel[axis]) or 1.0
        return n


@dataclass
class ArticulatedObject:
    archetype: str                   # drawer | door | lid
    joint_kind: str                  # prismatic | revolute
    axis: np.ndarray                 # unit joint axis
    pivot: np.ndarray | None         # point on the hinge line (revolute)
    q_min: float
    q_max: float
    q: float
    base_boxes: list[Box]
    movable_box: Box                 # canonical (q = 0) geometry
    base_color: np.ndarray
    movable_color: np.ndarray

    def __post_init__(self):
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("joint axis must be unit length")
        if not (self.q_min <= self.q <= self.q_max):
            raise ValueError(f"q={self.q} outside [{self.q_min}, {self.q_max}]")

    def joint_transform(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        """World pose of the movable part at joint value q: p' = R p + t."""
        if self.joint_kind == "prismatic":
            return np.eye(3), q * self.axis
        R = rotation_about_axis(self.axis, q)
        return R, self.pivot - R @ self.pivot

    def to_canonical(self, p: np.ndarray) -> np.ndarray:
        """Map a world point onto the movable part's q = 0 frame."""
        R, t = self.joint_transform(self.q)
        return R.T @ (p - t)

    def movable_triangles(self) -> Triangles:
        """The movable part's triangles at `q`: one `R @ verts.T` moves all
        36 corners."""
        R, t = self.joint_transform(self.q)
        tris = self.movable_box.triangles()
        corners = (R @ tris.verts.reshape(-1, 3).T).T + t
        return Triangles(corners.reshape(tris.verts.shape), (R @ tris.normal.T).T)


@dataclass
class Scene:
    """An object in front of `CAMERA`.

    `triangles` is the scene's one source of geometry, read once per
    rasterization, and its order is the rasterizer's tie order: where two
    triangles come within 1e-12 in 1/z at a pixel, the earlier one shows
    there.  `render_buffers` keeps the scene's last render and hands
    it back while the object (by identity) and its joint value `obj.q` are
    unchanged.  Everything else about the object's geometry is fixed once it
    is spawned: move the joint through `obj.q`, or put a new object in `obj`.
    """
    obj: ArticulatedObject
    # (obj, obj.q, RenderResult) of the last render
    _render: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def triangles(self) -> Triangles:
        """Every triangle in the scene with its colour and part: the base
        boxes' in order, then the movable part's at `obj.q`."""
        obj = self.obj
        parts = [box.triangles() for box in obj.base_boxes] + [obj.movable_triangles()]
        counts = [12 * len(obj.base_boxes), 12]
        return Triangles(
            verts=np.concatenate([p.verts for p in parts]),
            normal=np.concatenate([p.normal for p in parts]),
            color=np.repeat([obj.base_color, obj.movable_color], counts, axis=0),
            part_id=np.repeat(np.array([PART_BASE, PART_MOVABLE], np.uint8), counts))


# ---------------------------------------------------------------------------
# rasterizer

_PIXEL_U, _PIXEL_V = (_read_only(g) for g in np.meshgrid(    # [H, W] pixel centres
    np.arange(CAMERA.width) + 0.5, np.arange(CAMERA.height) + 0.5))


@dataclass
class RenderResult:
    rgb: np.ndarray       # [H, W, 3] in [0, 1]
    depth: np.ndarray     # [H, W] metres, 0 = no geometry
    part_id: np.ndarray   # [H, W] u8: 0 background, 1 base, 2 movable
    normal: np.ndarray    # [H, W, 3] outward face normal (0 on background)


def _shade(color: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Lambert shading of a colour [3] under a normal [3], or of K colours
    [K, 3] under K normals [K, 3], row by row."""
    # [..., 1, 3] @ [3] takes each row's n @ -_LIGHT through numpy's dot kernel,
    # the same arithmetic for one row as for many
    lam = np.maximum(0.0, normal[..., None, :] @ -_LIGHT)
    return np.clip(color * (_AMBIENT + _DIFFUSE * lam), 0.0, 1.0)


def render_buffers(scene: Scene) -> RenderResult:
    """Z-buffer rasterization of the scene's front faces into four buffers,
    in one array pass over `Scene.triangles`.

    A triangle whose outward normal points away from the camera (at the
    origin) is dropped: every object is a union of closed boxes seen from
    outside, so the nearest surface along any ray is a front face.  So is
    one with a vertex behind the near plane (z < 1e-3) and one that
    projects edge-on.  The K triangles left are tested against the whole
    grid of pixel centres at once, barycentrics and 1/z as [K, H, W]
    arrays: the barycentric test is the clip.  A K-step z-buffer then
    records each pixel's winning triangle, in `Scene.triangles` order: a
    pixel goes to a triangle only if its 1/z beats the buffer by more than
    1e-12, so the earliest triangle wins a tie within 1e-12.  Depth, part,
    colour and normal are gathered from the winners.

    The result is kept on the scene and returned again while the object and
    `obj.q` are unchanged (see `Scene`), so its arrays are read-only: copy
    one before writing into it.
    """
    obj, cam = scene.obj, CAMERA
    memo = scene._render
    if memo is not None and memo[0] is obj and memo[1] == obj.q:
        return memo[2]
    tris = scene.triangles()
    verts, normal = tris.verts, tris.normal
    # n @ verts[0] per triangle through the dot kernel, as `_shade` does;
    # >= 0 is a back face or an edge-on one: never nearest
    facing = (normal[:, None, :] @ verts[:, 0, :, None]).reshape(-1) < 0.0
    keep = np.flatnonzero(facing & (verts[:, :, 2].min(axis=1) >= 1e-3))
    z = verts[keep, :, 2]
    px = cam.fx * verts[keep, :, 0] / z + cam.cx
    py = cam.fy * verts[keep, :, 1] / z + cam.cy
    area2 = ((px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0])
             - (px[:, 2] - px[:, 0]) * (py[:, 1] - py[:, 0]))
    drawn = np.abs(area2) >= 1e-12                  # not edge-on on screen
    keep, z, px, py, area2 = keep[drawn], z[drawn], px[drawn], py[drawn], area2[drawn]

    # per triangle, each vertex column broadcast over the [H, W] grid
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = (c.T[:, :, None, None] for c in (px, py, z))
    u, v, a = _PIXEL_U, _PIXEL_V, area2[:, None, None]
    w0 = ((x1 - u) * (y2 - v) - (x2 - u) * (y1 - v)) / a
    w1 = ((x2 - u) * (y0 - v) - (x0 - u) * (y2 - v)) / a
    w2 = 1.0 - w0 - w1
    # 1/z is affine in screen space, so this is perspective-correct
    zi = w0 / z0 + w1 / z1 + w2 / z2
    zi[~((w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9))] = -np.inf   # outside

    zinv = np.zeros(_PIXEL_U.shape)       # z-buffer keyed on 1/z (0 = empty)
    winner = np.zeros(_PIXEL_U.shape, dtype=np.intp)   # 0 = background, k + 1 = k
    for k in range(len(keep)):
        win = zi[k] > zinv + 1e-12
        np.copyto(zinv, zi[k], where=win)
        np.copyto(winner, k + 1, where=win)

    depth = np.divide(1.0, zinv, out=np.zeros_like(zinv), where=winner > 0)
    part = np.concatenate([[PART_BACKGROUND], tris.part_id[keep]]).astype(np.uint8)[winner]
    rgb = np.concatenate([[_BG_COLOR], _shade(tris.color[keep], normal[keep])])[winner]
    normal = np.concatenate([np.zeros((1, 3)), normal[keep]])[winner]
    for buf in (rgb, depth, part, normal):
        buf.setflags(write=False)
    result = RenderResult(rgb=rgb, depth=depth, part_id=part, normal=normal)
    scene._render = (obj, obj.q, result)
    return result


def render(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Scene -> (RGB [H, W, 3] in [0,1], depth [H, W] metres, 0 = empty),
    the read-only buffers of `render_buffers`."""
    res = render_buffers(scene)
    return res.rgb, res.depth


# ---------------------------------------------------------------------------
# archetype construction


def _draw_colors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    base = rng.uniform(0.25, 0.85, size=3)
    while True:
        movable = rng.uniform(0.25, 0.85, size=3)
        if np.max(np.abs(movable - base)) > 0.25:    # visually distinct
            return base, movable


def _build_drawer(rng: np.random.Generator) -> ArticulatedObject:
    w = rng.uniform(0.5, 0.9)          # full widths
    h = rng.uniform(0.4, 0.8)
    d = rng.uniform(0.4, 0.7)
    # wide lateral range: off-axis placements expose the protruding front's
    # side strip, the contact region where a straight pull fails
    cx = rng.uniform(-0.55, 0.55)
    cy = rng.uniform(-0.1, 0.2)
    z0 = rng.uniform(1.3, 1.9)         # cabinet front plane
    base_color, movable_color = _draw_colors(rng)
    body = Box(center=np.array([cx, cy, z0 + d / 2]),
               half=np.array([w / 2, h / 2, d / 2]))
    # chunky protruding front: its top/bottom/side strips render at off-axis
    # placements, giving contact points where a straight pull cannot open the
    # joint (the Appendix-B random-contact baseline must not be degenerate)
    t = 0.22
    front = Box(center=np.array([cx, cy, z0 - t / 2]),
                half=np.array([w / 2 * 0.8, h / 2 * 0.8, t / 2]))
    return ArticulatedObject(
        archetype="drawer", joint_kind="prismatic",
        axis=np.array([0.0, 0.0, -1.0]), pivot=None,
        q_min=0.0, q_max=float(rng.uniform(0.3, 0.6)), q=0.0,
        base_boxes=[body], movable_box=front,
        base_color=base_color, movable_color=movable_color)


def _build_door(rng: np.random.Generator) -> ArticulatedObject:
    w = rng.uniform(0.5, 0.9)
    h = rng.uniform(0.6, 1.0)
    d = rng.uniform(0.3, 0.5)
    cx = rng.uniform(-0.15, 0.15)
    cy = rng.uniform(-0.1, 0.15)
    z0 = rng.uniform(1.3, 1.9)
    base_color, movable_color = _draw_colors(rng)
    frame = Box(center=np.array([cx, cy, z0 + d / 2]),
                half=np.array([w / 2, h / 2, d / 2]))
    t = 0.05
    panel = Box(center=np.array([cx, cy, z0 - t / 2]),
                half=np.array([w / 2 * 0.8, h / 2 * 0.8, t / 2]))
    # hinge on the left or right vertical edge; axis sign set so positive q
    # swings the free edge toward the camera
    if rng.random() < 0.5:
        pivot = np.array([cx - w / 2 * 0.8, cy, z0])
        axis = np.array([0.0, 1.0, 0.0])
    else:
        pivot = np.array([cx + w / 2 * 0.8, cy, z0])
        axis = np.array([0.0, -1.0, 0.0])
    return ArticulatedObject(
        archetype="door", joint_kind="revolute", axis=axis, pivot=pivot,
        q_min=0.0, q_max=float(rng.uniform(1.0, 1.5)), q=0.0,
        base_boxes=[frame], movable_box=panel,
        base_color=base_color, movable_color=movable_color)


def _build_lid(rng: np.random.Generator) -> ArticulatedObject:
    w = rng.uniform(0.6, 1.0)
    h = rng.uniform(0.3, 0.5)          # chest height
    d = rng.uniform(0.5, 0.8)
    cx = rng.uniform(-0.15, 0.15)
    z0 = rng.uniform(1.05, 1.35)       # chest front plane
    y_top = rng.uniform(0.42, 0.6)     # top face well below the camera axis
    base_color, movable_color = _draw_colors(rng)
    chest = Box(center=np.array([cx, y_top + h / 2, z0 + d / 2]),
                half=np.array([w / 2, h / 2, d / 2]))
    # thin slab: the visible top face must dominate the front edge strip so
    # that centroid-style contacts land where the pull can move the joint
    t = 0.03
    lid = Box(center=np.array([cx, y_top - t / 2, z0 + d / 2]),
              half=np.array([w / 2, t / 2, d / 2]))
    # hinge along the rear top edge; -x axis opens the front edge upward
    pivot = np.array([cx, y_top, z0 + d])
    return ArticulatedObject(
        archetype="lid", joint_kind="revolute",
        axis=np.array([-1.0, 0.0, 0.0]), pivot=pivot,
        q_min=0.0, q_max=float(rng.uniform(1.0, 1.5)), q=0.0,
        base_boxes=[chest], movable_box=lid,
        base_color=base_color, movable_color=movable_color)


_BUILDERS = {"drawer": _build_drawer, "door": _build_door, "lid": _build_lid}


def spawn_object(seed: int, kind: str | None = None) -> Scene:
    """Deterministic scene from an integer seed.

    Redraws geometry (same rng stream, still deterministic) until the scene
    is visible: the movable part covers at least `_MIN_PART_PIXELS` (5%) and
    the base at least `_MIN_BASE_PIXELS` (2%) of the rendered pixels.
    """
    seed = check_seed("spawn_object", seed)
    rng = np.random.default_rng(seed)
    if kind is None:
        kind = ARCHETYPES[int(rng.integers(len(ARCHETYPES)))]
    if kind not in _BUILDERS:
        raise ValueError(f"unknown archetype {kind!r}; expected one of {ARCHETYPES}")
    n_pixels = CAMERA.width * CAMERA.height
    for _ in range(50):
        scene = Scene(obj=_BUILDERS[kind](rng))
        buf = render_buffers(scene)
        if np.sum(buf.part_id == PART_MOVABLE) >= _MIN_PART_PIXELS * n_pixels \
                and np.sum(buf.part_id == PART_BASE) >= _MIN_BASE_PIXELS * n_pixels:
            return scene
    raise RuntimeError(f"spawn_object: could not place a visible {kind} "
                       f"after 50 draws (seed {seed})")


# ---------------------------------------------------------------------------
# interaction


def interact(scene: Scene, pose: EndEffectorPose) -> tuple[bool, float]:
    """Suction attach + pull. Pure: does not mutate the scene.

    Attaches iff the 3D contact point lies on the movable part within the
    attach tolerance AND the approach z-axis is within the suction cone of the
    inward surface normal.  The pull retracts along the approach axis
    (displacement = -_PULL_MAGNITUDE * z-axis) and is projected onto the
    joint's motion direction at the contact point, then clamped to limits.
    A non-finite contact point or rotation raises ValueError.
    """
    if pose.a_pos is None:
        raise ValueError("interact: pose has no 3D contact point "
                         "(lift the contact pixel first)")
    obj = scene.obj
    p = np.asarray(pose.a_pos, dtype=np.float64)
    R_pose = np.asarray(pose.a_dir, dtype=np.float64)
    # a NaN fails every comparison below, so it would read as a contact
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(R_pose))):
        raise ValueError("interact: pose has non-finite a_pos or a_dir")
    z_axis = R_pose[:, 2]

    p_canon = obj.to_canonical(p)
    if obj.movable_box.surface_distance(p_canon) > _ATTACH_TOLERANCE:
        return False, 0.0
    n_canon = obj.movable_box.outward_normal_at(p_canon)
    R, _ = obj.joint_transform(obj.q)
    n_out = R @ n_canon
    if float(z_axis @ -n_out) < _ATTACH_COS:
        return False, 0.0

    pull = -_PULL_MAGNITUDE * z_axis        # retract toward the gripper
    if obj.joint_kind == "prismatic":
        dq_raw = float(pull @ obj.axis)
    else:
        r = p - obj.pivot
        r_perp = r - (r @ obj.axis) * obj.axis
        dist = np.linalg.norm(r_perp)
        if dist < 1e-9:
            dq_raw = 0.0                       # pulling on the hinge line
        else:
            tangent = np.cross(obj.axis, r_perp / dist)
            dq_raw = float(pull @ tangent) / dist
    q_new = float(np.clip(obj.q + dq_raw, obj.q_min, obj.q_max))
    dq = q_new - obj.q
    threshold = (_PRISMATIC_THRESHOLD if obj.joint_kind == "prismatic"
                 else _REVOLUTE_THRESHOLD)
    return abs(dq) > threshold, dq


# ---------------------------------------------------------------------------
# episodes and evaluation


@dataclass
class Observation:
    rgb: np.ndarray
    depth: np.ndarray
    prompt: str
    cam: SimConfig        # always CAMERA
    scene: Scene          # ground truth; learned policies must not read it


@dataclass
class ManipEpisode:
    rgb: np.ndarray
    depth: np.ndarray
    prompt: str
    gt_pose: EndEffectorPose
    success: bool
    dq: float
    seed: int
    archetype: str


PROMPTS = {
    "drawer": "pull the drawer open",
    "door": "swing the door open",
    "lid": "lift the lid open",
}


def _contact_pose(buf: RenderResult, rng: np.random.Generator | None) -> EndEffectorPose:
    """Appendix-B contact: a movable pixel approached along z = -normal.

    With an rng: a random movable pixel and a random y axis orthogonal to z.
    With None: the movable pixel nearest the part centroid and a fixed
    completion of the frame.
    """
    rows, cols = np.nonzero(buf.part_id == PART_MOVABLE)
    if len(rows) == 0:
        raise ValueError("contact: movable part not visible")
    if rng is None:
        pick = np.argmin((rows - rows.mean()) ** 2 + (cols - cols.mean()) ** 2)
    else:
        pick = rng.integers(len(rows))
    row, col = int(rows[pick]), int(cols[pick])
    z = -_unit(buf.normal[row, col])
    if rng is None:
        seed_vec = np.array([0.0, 1.0, 0.0] if abs(z[0]) > 0.9 else [1.0, 0.0, 0.0])
    else:
        while True:
            seed_vec = rng.standard_normal(3)
            if np.linalg.norm(seed_vec) > 1e-6 and \
                    abs(_unit(seed_vec) @ z) < 0.99:
                break
    y = _unit(seed_vec - (seed_vec @ z) * z)
    x = np.cross(y, z)
    R = np.stack([x, y, z], axis=1)            # axes as columns
    h, w = buf.depth.shape
    pixel = ((col + 0.5) / w, (row + 0.5) / h)
    pose = EndEffectorPose(a_dir=R, contact_pixel=pixel)
    pose.a_pos = lift_to_3d(pixel, buf.depth, CAMERA)
    return pose


def collect_episode(seed: int, kind: str | None = None) -> ManipEpisode:
    """One Appendix-B data-collection episode, reproducible from its seed."""
    seed = check_seed("collect_episode", seed)
    scene = spawn_object(seed, kind)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    buf = render_buffers(scene)
    pose = _contact_pose(buf, rng)
    success, dq = interact(scene, pose)
    return ManipEpisode(rgb=buf.rgb, depth=buf.depth,
                        prompt=PROMPTS[scene.obj.archetype],
                        gt_pose=pose,
                        success=success, dq=dq, seed=seed,
                        archetype=scene.obj.archetype)


def evaluate(policy, episodes: int, seed: int,
             kind: str | None = None) -> tuple[float, list[dict]]:
    """Run a policy over fresh scenes; returns (success rate, per-episode log).

    Scenes cycle the archetypes (or stay on ``kind`` when given); per-episode
    seeds are seed+index, so results are independent of execution order.  A
    policy that raises a ValueError or an ArithmeticError (such as
    `diffcore.NonFiniteError`) on a sample, or emits an invalid pose, scores a
    failure for that episode, not an exception.  Only those two count as
    failed episodes: any other exception propagates, and a policy that
    returns something other than an EndEffectorPose is a programming error,
    raised as TypeError naming the returned type.
    """
    if not (is_integer(episodes) and episodes >= 1):
        raise ValueError(f"evaluate: episodes must be an integer >= 1, got {episodes!r}")
    episodes = int(episodes)
    seed = check_seed("evaluate", seed)
    log = []
    successes = 0
    for i in range(episodes):
        ep_seed = seed + i
        archetype = kind if kind is not None else ARCHETYPES[i % len(ARCHETYPES)]
        scene = spawn_object(ep_seed, archetype)
        buf = render_buffers(scene)
        obs = Observation(rgb=buf.rgb, depth=buf.depth,
                          prompt=PROMPTS[archetype], cam=CAMERA, scene=scene)
        entry = {"episode": i, "seed": ep_seed, "archetype": archetype,
                 "success": False, "dq": 0.0}
        try:
            pose = policy(obs)
            if not isinstance(pose, EndEffectorPose):
                raise TypeError(f"evaluate: policy returned {type(pose).__name__}, "
                                f"not an EndEffectorPose")
            pose.validate()
            if pose.a_pos is None:
                pose.a_pos = lift_to_3d(pose.contact_pixel, buf.depth, CAMERA)
            success, dq = interact(scene, pose)
            entry["success"], entry["dq"] = bool(success), float(dq)
        except (ValueError, ArithmeticError) as err:
            entry["error"] = str(err)
        successes += entry["success"]
        log.append(entry)
    return successes / episodes, log


# ---------------------------------------------------------------------------
# reference policies


def oracle_policy(obs: Observation) -> EndEffectorPose:
    """Reads ground truth: contact at the movable pixel nearest the part
    centroid, approach opposite the rendered normal."""
    return _contact_pose(render_buffers(obs.scene), None)


def random_normal_policy(rng: np.random.Generator):
    """Appendix-B sampler as a policy: random movable pixel, z = -normal."""
    def policy(obs: Observation) -> EndEffectorPose:
        return _contact_pose(render_buffers(obs.scene), rng)
    return policy


def center_pixel_policy(obs: Observation) -> EndEffectorPose:
    """Constant baseline: image centre, straight-ahead approach."""
    R = np.eye(3)                       # z column = (0, 0, 1): into the scene
    pose = EndEffectorPose(a_dir=R, contact_pixel=(0.5, 0.5))
    pose.a_pos = lift_to_3d(pose.contact_pixel, obs.depth, CAMERA)
    return pose
