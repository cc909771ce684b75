"""Reference rasteriser: the whole-grid, one-point-at-a-time town texture.

This is the texture pipeline as it stood before the windowed
classification and one-write stripe stamping, kept verbatim as the
oracle those kernels must reproduce bit for bit: classify every texel
against every road and junction (:meth:`Town.classify_points` over the
full ``meshgrid``), colour-map class by class, then stamp each stripe
point by point at scalar ``Polyline.point_at`` stations.  The tier-1
property tests compare against it, and the slow-tier setup gate times
it against :class:`~repro.sim.render.TownTexture`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.geometry import Polyline
from repro.sim.render import SURFACE_COLORS
from repro.sim.town import Town


def reference_resampled_points(polyline: Polyline, spacing: float) -> list:
    """``Polyline.resampled(spacing)`` vertices, one scalar ``point_at`` each."""
    n = max(2, int(math.ceil(polyline.length / spacing)) + 1)
    return [polyline.point_at(float(s)) for s in np.linspace(0.0, polyline.length, n)]


def reference_raster(
    town: Town, resolution: float = 0.25, margin: float = 12.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(texture, classes)`` of ``TownTexture(town, resolution, margin)``."""
    xmin, ymin, xmax, ymax = town.bounds
    x0 = xmin - margin
    y0 = ymin - margin
    nx = int(math.ceil((xmax - xmin + 2 * margin) / resolution))
    ny = int(math.ceil((ymax - ymin + 2 * margin) / resolution))
    xs = x0 + (np.arange(nx) + 0.5) * resolution
    ys = y0 + (np.arange(ny) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    classes = town.classify_points(pts).reshape(ny, nx)
    tex = np.zeros((ny, nx, 3), dtype=np.uint8)
    for cls, color in SURFACE_COLORS.items():
        tex[classes == cls] = color
    for stripe in town.markings():
        half_w_tex = max(1, int(round(stripe.width / 2.0 / resolution)))
        for p in reference_resampled_points(stripe.polyline, resolution * 0.75):
            row = int((p.y - y0) / resolution)
            col = int((p.x - x0) / resolution)
            r0 = max(0, row - half_w_tex + 1)
            r1 = min(ny, row + half_w_tex)
            c0 = max(0, col - half_w_tex + 1)
            c1 = min(nx, col + half_w_tex)
            if r0 < r1 and c0 < c1:
                tex[r0:r1, c0:c1] = stripe.color
    for b in town.buildings:
        corners = b.box.corners()
        bxs = [c.x for c in corners]
        bys = [c.y for c in corners]
        c0 = max(0, int((min(bxs) - x0) / resolution))
        c1 = min(nx, int((max(bxs) - x0) / resolution) + 1)
        r0 = max(0, int((min(bys) - y0) / resolution))
        r1 = min(ny, int((max(bys) - y0) / resolution) + 1)
        if r0 < r1 and c0 < c1:
            tex[r0:r1, c0:c1] = tuple(int(ch * 0.55) for ch in b.color)
    return tex, classes
