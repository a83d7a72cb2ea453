"""NumPy kernels for the geometry hot loops.

Convex hull (the dual of the planar halfspace intersection; a monotone
chain run on Python floats), projection of points onto a convex polygon
(distance and nearest point, for every planar distance and projection),
the cut filter that tests which new halfspaces reach an existing cell,
the row-independent matrix product `dots`, and `keep_first`, the merge
of nearly equal rows in any dimension.  Callers go through the
module attribute (`_kernels.convex_hull_2d(...)`) so the kernels can be
wrapped from outside, for example by a tracer.
"""
from __future__ import annotations

import functools

import numpy as np


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of 2-d points, counterclockwise.

    Andrew's monotone chain over the lexicographic order.  Collinear
    interior points are dropped.  A fully collinear input yields its two
    lexicographic extremes (the first and last index if all points are
    equal); a single point yields itself.
    """
    return np.asarray(hull_chain(points)[0], dtype=np.int64)


def hull_chain(points: np.ndarray) -> tuple[list, list, list]:
    """`convex_hull_2d` as a list of indices, with the x and y coordinate lists it ran on.

    The chain runs on Python floats: they do the same IEEE operations as
    NumPy float64 scalars, at a fraction of the cost of indexing the
    array on every step.  A caller that goes on to work on the hull's
    points in Python takes the lists instead of converting them again.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    if len(xs) <= 1:
        return list(range(len(xs))), xs, ys
    seq = np.lexsort((pts[:, 1], pts[:, 0])).tolist()

    def build(seq):
        out = []
        for idx in seq:
            bx, by = xs[idx], ys[idx]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                ox, oy = xs[o], ys[o]
                if (xs[a] - ox) * (by - oy) - (ys[a] - oy) * (bx - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(idx)
        return out

    lower = build(seq)
    upper = build(seq[::-1])
    return lower[:-1] + upper[:-1], xs, ys


def polygon_project(poly: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row of `pts` to a convex CCW polygon, and the nearest point.

    Points inside or on the boundary get distance zero and are their own
    nearest point.  `poly` may be degenerate (2 vertices = segment,
    1 vertex = point).
    """
    poly = np.ascontiguousarray(poly, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    k = poly.shape[0]
    if k == 0:
        raise ValueError("empty polygon")
    if k == 1:
        d = np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
        return d, np.broadcast_to(poly[0], pts.shape).copy()

    if k == 2:
        a, b = poly[:1], poly[1:]  # one segment, not two copies
    else:
        # the next vertex of each edge; np.roll costs several times more
        a, b = poly, np.concatenate((poly[1:], poly[:1]))
    e = b - a  # (m,2)
    # squared edge lengths; degenerate edges collapse to point distances
    ee = np.einsum("ij,ij->i", e, e)
    ee[ee == 0.0] = 1.0
    diff = pts[:, None, :] - a[None, :, :]  # (n,m,2)
    t = np.clip(np.einsum("nmj,mj->nm", diff, e) / ee, 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * e[None, :, :]
    seg_d = np.linalg.norm(pts[:, None, :] - proj, axis=2)
    rows = np.arange(len(pts))
    j = seg_d.argmin(axis=1)
    d = seg_d[rows, j]  # the row minimum
    nearest = proj[rows, j]
    if k >= 3:
        crosses = diff[..., 0] * e[None, :, 1] - diff[..., 1] * e[None, :, 0]
        inside = (crosses <= 0.0).all(axis=1)
        d = np.where(inside, 0.0, d)
        nearest[inside] = pts[inside]
    return d, nearest


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


def dots(Y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Y @ A.T one coordinate at a time, so no entry depends on the row count.

    A BLAS product blocks its sums by the shape of the call, so a row's
    last bits can change with the rows that share it.
    """
    out = Y[:, :1] * A[:, 0]
    for j in range(1, Y.shape[1]):
        out += Y[:, j : j + 1] * A[:, j]
    return out


def keep_first(V: np.ndarray, thr, apart: int = 0) -> np.ndarray:
    """Mask of the rows that a greedy keep-first merge keeps.

    Row i goes when `np.linalg.norm(V[i] - V[j], axis=1) <= thr[j]` for a
    kept row j < i (`thr`: one threshold per row, or one for all); the
    first `apart` rows, known to lie apart, stay.  Such a pair projects
    within thr[j] onto the unit vector `_screen(d)`, so only rows within
    twice max(thr, d^2 eps max|V|) (the latter bounds the rounding) in one
    sort of the projections are compared, in row order.
    """
    n, d = V.shape
    thr = np.broadcast_to(thr, (n,))
    p = V @ _screen(d)
    order = np.argsort(p, kind="stable")
    s = p[order]
    reach = 2.0 * max(thr.max(), d * d * np.finfo(np.float64).eps * np.abs(V).max())
    lo, hi = np.searchsorted(s, s - reach), np.searchsorted(s, s + reach, side="right")
    keep = np.ones(n, dtype=bool)
    crowded = np.flatnonzero((hi - lo > 1) & (order >= apart))
    for pos in crowded[np.argsort(order[crowded])].tolist():
        i, w = order[pos], order[lo[pos] : hi[pos]]
        w = w[(w < i) & keep[w]]
        keep[i] = not (np.linalg.norm(V[i] - V[w], axis=1) <= thr[w]).any()
    return keep


@functools.cache
def _screen(d: int) -> np.ndarray:
    """A fixed generic unit vector in R^d: rows that share a coordinate, as on a box face, project apart."""
    a = np.random.default_rng(0).standard_normal(d)
    return a / np.linalg.norm(a)
