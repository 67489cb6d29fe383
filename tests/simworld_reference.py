"""The simulator's rasterizer before back-face culling.

`render_buffers_all_faces` z-buffers every triangle of `Scene.triangles`,
front and back faces alike, with the same barycentric clip, the same 1/z
tie rule and the same shading as `simworld.render_buffers`.  Every object
is a union of closed boxes seen from outside, so a back face never wins a
pixel that a front face of the same box does not, and the tests hold the
culled rasterizer to this one byte for byte on all four buffers.  It reads
no memo: each call rasterizes the scene as it is now.

It reads its triangles from `Scene.triangles`, so it cannot vouch for the
geometry.  `scene_triangles` is the geometry as it was built before the
array version, one face and one triangle at a time, and the tests hold
`Scene.triangles` to it byte for byte.
"""

from __future__ import annotations

import numpy as np

from mambavla import simworld as sw


def render_buffers_all_faces(scene: sw.Scene) -> sw.RenderResult:
    cam = sw.CAMERA
    W, H = cam.width, cam.height
    rgb = np.tile(sw._BG_COLOR, (H, W, 1)).astype(np.float64)
    depth = np.zeros((H, W))
    zinv = np.zeros((H, W))               # z-buffer keyed on 1/z (0 = empty)
    part = np.zeros((H, W), dtype=np.uint8)
    normal = np.zeros((H, W, 3))
    gu, gv = np.meshgrid(np.arange(W) + 0.5, np.arange(H) + 0.5)  # pixel centres

    tris = scene.triangles()
    for verts, n, color, part_id in zip(tris.verts, tris.normal, tris.color, tris.part_id):
        z = verts[:, 2]
        if np.min(z) < 1e-3:
            continue                      # behind / at the camera: drop
        px = cam.fx * verts[:, 0] / z + cam.cx
        py = cam.fy * verts[:, 1] / z + cam.cy
        area2 = (px[1] - px[0]) * (py[2] - py[0]) - (px[2] - px[0]) * (py[1] - py[0])
        if abs(area2) < 1e-12:
            continue                      # edge-on
        w0 = ((px[1] - gu) * (py[2] - gv) - (px[2] - gu) * (py[1] - gv)) / area2
        w1 = ((px[2] - gu) * (py[0] - gv) - (px[0] - gu) * (py[2] - gv)) / area2
        w2 = 1.0 - w0 - w1
        zi = w0 / z[0] + w1 / z[1] + w2 / z[2]
        win = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9) & (zi > zinv + 1e-12)
        zinv[win] = zi[win]
        depth[win] = 1.0 / zi[win]
        part[win] = part_id
        rgb[win] = sw._shade(color, n)
        normal[win] = n
    return sw.RenderResult(rgb=rgb, depth=depth, part_id=part, normal=normal)


def box_triangles(box: sw.Box) -> list[tuple[np.ndarray, np.ndarray]]:
    """(3 vertices, outward normal) pairs: two per face, faces in the order
    -x, +x, -y, +y, -z, +z."""
    c, h = box.center, box.half
    tris = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            n = np.zeros(3)
            n[axis] = sign
            a, b = (axis + 1) % 3, (axis + 2) % 3
            base = c + h[axis] * n          # n already carries the sign
            ea = np.zeros(3); ea[a] = h[a]
            eb = np.zeros(3); eb[b] = h[b]
            verts = np.stack([base - ea - eb, base + ea - eb,
                              base + ea + eb, base - ea + eb])
            tris += [(verts[[0, 1, 2]], n), (verts[[0, 2, 3]], n)]
    return tris


def scene_triangles(scene: sw.Scene) -> list[tuple]:
    """(verts, normal, color, part_id) for every triangle in the scene: the
    base boxes', then the movable part's moved one triangle at a time."""
    obj = scene.obj
    tris = [(verts, n, obj.base_color, sw.PART_BASE)
            for box in obj.base_boxes for verts, n in box_triangles(box)]
    R, t = obj.joint_transform(obj.q)
    return tris + [((R @ verts.T).T + t, R @ n, obj.movable_color, sw.PART_MOVABLE)
                   for verts, n in box_triangles(obj.movable_box)]
