"""Independent reference computations backing the derived test values.

Everything here deliberately avoids the package's own quadrature and
search paths: scipy adaptive quadrature, dense grids, and closed forms
only, so a test comparing against these exercises two unrelated routes.
"""
import itertools
import math

import numpy as np
from scipy.integrate import quad


def isotropic_integral(f, pieces=()):
    """Adaptive quadrature of f(theta)/(2*pi) over the circle."""
    pts = sorted(set([0.0, 2 * math.pi] + [p % (2 * math.pi) for p in pieces]))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, a, b, limit=200)
        total += val
    return total / (2 * math.pi)


def ball_excess_oracle(radius, y_norm):
    """Excess of a point at distance y_norm from the center over a ball, isotropic law."""
    if y_norm <= radius:
        return 0.0
    arc = math.acos(radius / y_norm)
    val, _ = quad(lambda t: y_norm * math.cos(t) - radius, -arc, arc)
    return val / (2 * math.pi)


def square_mean_support_oracle():
    """Isotropic average of the support function of [-1,1]^2 (Cauchy formula)."""
    return isotropic_integral(
        lambda t: abs(math.cos(t)) + abs(math.sin(t)),
        pieces=[0, math.pi / 2, math.pi, 3 * math.pi / 2],
    )


def polygon_perimeter_numeric(path, n=200000):
    """Arc length of a planar boundary path by dense polyline refinement."""
    s = np.linspace(0.0, path.total, n, endpoint=False)
    pts = path.point_at(s)
    d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def dense_boundary_minimum(evaluator, path, n=1_000_000, chunk=65536):
    """Minimum of an excess evaluator over a dense boundary grid."""
    best = math.inf
    s = np.linspace(0.0, path.total, n, endpoint=False)
    for i in range(0, n, chunk):
        pts = path.point_at(s[i : i + chunk])
        best = min(best, float(evaluator.batch(pts).min()))
    return best


def cube_distance_oracle(x):
    """Distance from a point to [-1,1]^3 in closed form."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(np.maximum(np.abs(x) - 1.0, 0.0)))


def subset_vertices_loop(A, b, feas_tol, residual_tol, merge_tol=1e-9):
    """Vertices of {A x <= b}: one np.linalg.solve per d-subset, in order.

    The per-subset loop the batched brute-force oracle must reproduce:
    singular subsets are skipped, non-finite or inexact solutions dropped,
    infeasible ones filtered, and a vertex within merge_tol of an earlier
    kept one merged into it.  Returns (vertices, defining) as arrays.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = A.shape[1]
    verts, defin = [], []
    for combo in itertools.combinations(range(len(b)), d):
        M, r = A[list(combo)], b[list(combo)]
        try:
            x = np.linalg.solve(M, r)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.abs(M @ x - r).max() > residual_tol * (1.0 + np.abs(r).max()):
            continue
        if not np.all(A @ x <= b + feas_tol * (1.0 + np.abs(b))):
            continue
        if any(np.linalg.norm(x - v) <= merge_tol * (1.0 + np.linalg.norm(v)) for v in verts):
            continue
        verts.append(x)
        defin.append(combo)
    return np.array(verts).reshape(-1, d), np.array(defin, dtype=np.int64).reshape(-1, d)


def dedupe_vertices_loop(V, D, tol=1e-9):
    """Greedy keep-first merge: drop a vertex within tol * (1 + |w|) of a kept w.

    One norm per pair, in row order; the reference for the vectorized
    dedupe in the cell module.
    """
    if len(V) <= 1:
        return V, D
    keep = []
    for i in range(len(V)):
        if not any(np.linalg.norm(V[i] - V[j]) <= tol * (1.0 + np.linalg.norm(V[j])) for j in keep):
            keep.append(i)
    return V[keep], D[keep]
