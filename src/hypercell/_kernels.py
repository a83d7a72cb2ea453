"""NumPy kernels for the planar geometry hot loops.

Convex hull (the dual of the planar halfspace intersection), distance
from points to a convex polygon, and the cut filter that tests which new
halfspaces reach an existing cell.  Callers go through the module
attribute (`_kernels.convex_hull_2d(...)`) so the kernels can be wrapped
from outside, for example by a tracer.
"""
from __future__ import annotations

import numpy as np

# 16 evenly spaced directions, counterclockwise; the input's extreme points
# in them span the polygon that `_deep_inside` tests against
_PREFILTER_ANGLES = 2.0 * np.pi * np.arange(16) / 16
_PREFILTER_DIRS = np.column_stack([np.cos(_PREFILTER_ANGLES), np.sin(_PREFILTER_ANGLES)])
PREFILTER_MARGIN = 1e-12  # dropped points lie this far inside, relative to the input's scale


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of 2-d points, counterclockwise.

    Collinear interior points are dropped.  A fully collinear input
    yields its two lexicographic extremes; a single point yields itself.
    Points deep inside the polygon of the input's extreme points in 16
    fixed directions are no hull vertices, so they are dropped before
    the monotone chain runs on the rest, in the same lexicographic order.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if n == 1:
        return order[:1]
    order = order[~_deep_inside(pts)[order]]

    def build(seq):
        out = []
        for idx in seq:
            while len(out) >= 2:
                ox, oy = pts[out[-2]]
                ax, ay = pts[out[-1]]
                bx, by = pts[idx]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(idx)
        return out

    lower = build(order)
    upper = build(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:  # all points identical
        hull = [order[0]]
    return np.asarray(hull, dtype=np.int64)


def _deep_inside(pts: np.ndarray) -> np.ndarray:
    """Points strictly inside the polygon of the extreme points in `_PREFILTER_DIRS`.

    A point left of every edge of a closed polygon lies in the convex hull
    of its vertices, even where ties or rounding leave the polygon
    non-convex; left of every edge by more than PREFILTER_MARGIN *
    max|coordinate|, it lies in the interior, so it is no hull vertex.
    Repeated extreme points are skipped; with fewer than three edges left
    no point is inside.
    """
    ext = pts[np.argmax(pts @ _PREFILTER_DIRS.T, axis=0)]
    edge = np.roll(ext, -1, axis=0) - ext
    real = (edge != 0.0).any(axis=1)
    ext, edge = ext[real], edge[real]
    if len(ext) < 3:
        return np.zeros(len(pts), dtype=bool)
    rel = pts[:, None, :] - ext[None, :, :]
    cross = edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0]
    margin = PREFILTER_MARGIN * np.abs(pts).max() * np.hypot(edge[:, 0], edge[:, 1])
    return (cross > margin).all(axis=1)


def polygon_distance(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to a convex CCW polygon.

    Zero for points inside or on the boundary.  `poly` may be degenerate
    (2 vertices = segment, 1 vertex = point).
    """
    poly = np.ascontiguousarray(poly, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    k = poly.shape[0]
    if k == 0:
        raise ValueError("empty polygon")
    if k == 1:
        d = np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
        return d[0] if single else d

    a = poly
    b = np.roll(poly, -1, axis=0)
    if k == 2:
        a, b = a[:1], b[:1]  # one segment, not two copies
    e = b - a  # (m,2)
    # squared edge lengths; degenerate edges collapse to point distances
    ee = np.einsum("ij,ij->i", e, e)
    ee[ee == 0.0] = 1.0
    diff = pts[:, None, :] - a[None, :, :]  # (n,m,2)
    t = np.clip(np.einsum("nmj,mj->nm", diff, e) / ee, 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * e[None, :, :]
    seg_d = np.linalg.norm(pts[:, None, :] - proj, axis=2)
    d = seg_d.min(axis=1)
    if k >= 3:
        crosses = diff[..., 0] * e[None, :, 1] - diff[..., 1] * e[None, :, 0]
        inside = (crosses <= 0.0).all(axis=1)
        d = np.where(inside, 0.0, d)
    return d[0] if single else d


def cut_mask(normals: np.ndarray, offsets: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """For each halfplane <u,x> <= t, whether it cuts the polygon.

    A halfplane cuts iff some vertex violates it strictly.
    """
    normals = np.ascontiguousarray(normals, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    if len(vertices) == 0:
        return np.zeros(len(offsets), dtype=bool)
    best = (normals @ vertices.T).max(axis=1)
    return best > offsets
