"""The simulator's rasterizer before back-face culling.

`render_buffers_all_faces` z-buffers every triangle of `Scene.triangles`,
front and back faces alike, with the same barycentric clip, the same 1/z
tie rule and the same shading as `simworld.render_buffers`.  Every object
is a union of closed boxes seen from outside, so a back face never wins a
pixel that a front face of the same box does not, and the tests hold the
culled rasterizer to this one byte for byte on all four buffers.  It reads
no memo: each call rasterizes the scene as it is now.
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

    for verts, n, color, part_id in scene.triangles():
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
