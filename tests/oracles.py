"""Independent reference computations backing the derived test values.

Everything here deliberately avoids the package's own quadrature and
search paths: scipy adaptive quadrature, dense grids, and closed forms
only, so a test comparing against these exercises two unrelated routes.
"""
import itertools
import math

import numpy as np
from scipy.integrate import quad

from hypercell import _kernels, cell, geom, metrics, process
from hypercell import direction as dn
from hypercell.errors import WindowOverflow
from hypercell.rng import categorical_cdf, categorical_variates, poisson_variate


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


def point_at_every_piece(path, s):
    """`BoundaryPath2D.point_at` by a loop over every boundary piece.

    The reference for the kernel, which visits only the pieces that the
    arclengths fall on; the per-piece formulas are the same.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64)) % path.total
    idx = np.searchsorted(path.cum, s, side="right") - 1
    idx = np.clip(idx, 0, len(path.pieces) - 1)
    out = np.empty((len(s), 2))
    for i, (kind, ln, data) in enumerate(path.pieces):
        sel = idx == i
        if not sel.any():
            continue
        local = s[sel] - path.cum[i]
        if kind == "seg":
            a, b = data
            t = (local / ln)[:, None]
            out[sel] = a + t * (b - a)
        else:
            center, th0 = data
            ang = th0 + local / path.radius
            out[sel] = center + path.radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return out


def dense_boundary_minimum(evaluator, path, n=1_000_000, chunk=65536):
    """Minimum of an excess evaluator over a dense boundary grid."""
    best = math.inf
    s = np.linspace(0.0, path.total, n, endpoint=False)
    for i in range(0, n, chunk):
        pts = path.point_at(s[i : i + chunk])
        best = min(best, float(evaluator.batch(pts).min()))
    return best


def support_arc_bisect(body, y):
    """Angular interval where <y, u> exceeds h(body, u) (None if empty).

    Two scalar 64-step bisections of <y, u> - h(body, u), bracketed half
    a turn to either side of the outward normal at the projection of y,
    which lies inside the interval.
    """
    y = np.asarray(y, dtype=np.float64)
    dist, P = geom.project(body, y)
    dist_y, p = float(dist[0]), P[0]
    if dist_y <= 0.0:
        return None
    n = (y - p) / dist_y
    th0 = math.atan2(n[1], n[0])

    def f(th):
        u = np.array([math.cos(th), math.sin(th)])
        return float(y @ u) - body.support(u)

    if f(th0) <= 0.0:  # numerically on the body
        return None
    x0, x1 = th0 - math.pi, th0
    for _ in range(64):
        mid = 0.5 * (x0 + x1)
        if f(mid) > 0.0:
            x1 = mid
        else:
            x0 = mid
    a = 0.5 * (x0 + x1)
    x0, x1 = th0, th0 + math.pi
    for _ in range(64):
        mid = 0.5 * (x0 + x1)
        if f(mid) > 0.0:
            x0 = mid
        else:
            x1 = mid
    b = 0.5 * (x0 + x1)
    return a, b


def dense_circle_excess(body, density, y, n=1 << 22, chunk=1 << 18):
    """Planar support excess of y by the midpoint rule on n equal steps of the circle.

    `density` maps unit rows to the law's density (None for the uniform
    law).  No arc and no kink is located: every node is summed.
    """
    y = np.asarray(y, dtype=np.float64)
    total = 0.0
    for i in range(0, n, chunk):
        th = (np.arange(i, min(i + chunk, n)) + 0.5) * (2 * math.pi / n)
        U = np.column_stack([np.cos(th), np.sin(th)])
        vals = np.maximum(U @ y - body.support_batch(U), 0.0)
        if density is not None:
            vals = vals * density(U)
        total += float(vals.sum())
    return total / n


def compass_search_sequential(f, move, x0, step, min_step, refine_tol, max_evals):
    """Compass search polling x + step e_1, x - step e_1, x + step e_2, ... one call each.

    Each poll is mapped by `move` (a point to a point) before `f` (a
    point to a value) sees it; the search moves to the first improving
    poll, and halves the step when none improves.
    """
    best = f(tuple(x0))
    x = tuple(x0)
    evals = 1
    gap = math.inf
    while evals < max_evals and step > min_step:
        improved = False
        for j in range(len(x)):
            for sign in (1.0, -1.0):
                cand = list(x)
                cand[j] += sign * step
                cand = tuple(move(cand))
                v = f(cand)
                evals += 1
                if v < best:
                    gap = best - v
                    best = v
                    x = cand
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
            if gap < refine_tol:
                break
    return best, x, evals, gap


def mu_planar_sequential(evaluator, path, cfg):
    """The planar mu search with its restarts run one after another.

    The coarse scan is one batch over the arclength grid; the restart
    basins are picked from it as the package does, written out here.
    Each restart is `compass_search_sequential` on one-row `precise`
    calls, and the first best restart in start order wins.  Returns
    (value, argmin point, evaluations, gap).
    """
    total, m = path.total, cfg.coarse_samples
    s_grid = (np.arange(m) + 0.5) * (total / m)
    coarse = evaluator.batch(path.point_at(s_grid))
    starts = separated_minima_loop(coarse, s_grid, total, metrics.RESTARTS)
    runs = [
        compass_search_sequential(
            lambda x: evaluator.precise(path.point_at(x)[0]),
            lambda x: (x[0] % total,),
            s0,
            total / m,
            total * 1e-15,
            metrics.REFINE_TOL,
            metrics.MAX_REFINE // len(starts),
        )
        for s0 in starts
    ]
    value, s, _, gap = min(runs, key=lambda run: run[0])
    return value, path.point_at(s)[0], m + sum(run[2] for run in runs), gap


def separated_minima_loop(vals, s_grid, period, count):
    """The restart picking of the planar mu search, one argsort entry at a time.

    The reference for `metrics._separated_minima`: an entry is taken when
    it lies at least period / 16 round the circle from every one taken
    before, until `count` are taken.
    """
    starts = []
    min_gap = period / 16.0
    for idx in np.argsort(vals):
        s = s_grid[idx]
        if all(_circ_dist(s, s0[0], period) >= min_gap for s0 in starts):
            starts.append((float(s),))
        if len(starts) >= count:
            break
    return starts


def _circ_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def cube_distance_oracle(x):
    """Distance from a point to [-1,1]^d in closed form."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(np.maximum(np.abs(x) - 1.0, 0.0)))


def facets_qhull(V):
    """Facets of conv(V) in R^3 from qhull: {vertex ids: (normal, offset, area)}.

    qhull triangulates each facet; its simplices are grouped by their
    plane rounded to 9 digits, the normal and offset are the first
    simplex's unrounded plane, and the area sums the triangles.  The hull
    is taken of V scaled by a power of two to unit size, so the rounding
    is relative and the scaling exact.
    """
    from scipy.spatial import ConvexHull

    V = np.asarray(V, dtype=np.float64)
    scale = 2.0 ** np.round(np.log2(np.abs(V).max()))
    V = V / scale
    hull = ConvexHull(V)
    planes, ids, areas = {}, {}, {}
    for eq, tri in zip(hull.equations, hull.simplices):
        key = tuple(np.round(eq, 9))
        planes.setdefault(key, eq)
        ids.setdefault(key, set()).update(tri.tolist())
        areas[key] = areas.get(key, 0.0) + 0.5 * np.linalg.norm(np.cross(V[tri[1]] - V[tri[0]], V[tri[2]] - V[tri[0]]))
    return {tuple(sorted(ids[k])): (eq[:3], -eq[3] * scale, areas[k] * scale**2) for k, eq in planes.items()}


def facet_volumes_qhull(V):
    """Facets of conv(V) in any R^d from qhull: {vertex ids: (d-1)-volume}.

    The simplices of qhull's triangulation are grouped by their plane
    rounded to 9 digits, as in `facets_qhull`, and a facet's volume sums
    sqrt(det(E E^T)) / (d-1)! over its simplices, E the edge vectors from
    the simplex's first vertex.
    """
    from scipy.spatial import ConvexHull

    V = np.asarray(V, dtype=np.float64)
    scale = 2.0 ** np.round(np.log2(np.abs(V).max()))
    V = V / scale
    d = V.shape[1]
    hull = ConvexHull(V)
    ids, volumes = {}, {}
    for eq, simplex in zip(hull.equations, hull.simplices):
        key = tuple(np.round(eq, 9))
        ids.setdefault(key, set()).update(simplex.tolist())
        E = V[simplex[1:]] - V[simplex[0]]
        volume = math.sqrt(max(np.linalg.det(E @ E.T), 0.0)) / math.factorial(d - 1)
        volumes[key] = volumes.get(key, 0.0) + volume
    return {tuple(sorted(ids[k])): volumes[k] * scale ** (d - 1) for k in ids}


def dedupe_rows_loop(arr, tol=1e-12):
    """Keep-first row dedupe: each row is compared with every row kept before it."""
    out = []
    for row in arr:
        if not any(np.linalg.norm(row - r) <= tol for r in out):
            out.append(row)
    return np.array(out)


def _affine_min_norm(A):
    """Weights of the min-norm point of the affine hull of the rows of A."""
    s = A.shape[0]
    M = np.empty((s + 1, s + 1))
    M[:s, :s] = A @ A.T
    M[:s, s] = 1.0
    M[s, :s] = 1.0
    M[s, s] = 0.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol[:s]


def wolfe_project_loop(V, x, tol=1e-9):
    """Distance from x to conv(V) and the nearest point, by Wolfe's min-norm point method.

    Wolfe, "Finding the nearest point in a polytope", Math. Programming 11
    (1976): an active-set search for the min-norm point of the shifted
    hull V - x, one point at a time, with a stall guard for floating-point
    plateaus.  Any dimension and any rank of V; a distance within tol of
    zero (relative to the point set's scale) reads 0.
    """
    V = np.asarray(V, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    P = V - x
    norms2 = np.einsum("ij,ij->i", P, P)
    i0 = int(np.argmin(norms2))
    active = [i0]
    lam = np.array([1.0])
    y = P[i0].copy()
    scale2 = max(1.0, float(norms2.max()))
    prev_yy = np.inf
    for _ in range(16 * len(P) + 64):
        yy = float(y @ y)
        if yy <= 1e-20 * scale2 or prev_yy - yy <= 1e-15 * scale2 and prev_yy != np.inf:
            break
        prev_yy = yy
        dots = P @ y
        j = int(np.argmin(dots))
        if dots[j] >= yy - 1e-13 * scale2 or j in active:
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        while len(active) > 1:
            A = P[active]
            a = _affine_min_norm(A)
            if np.all(a > 1e-12):
                lam = a
                y = a @ A
                break
            # step toward the affine minimizer until a weight hits zero
            neg = a <= 1e-12
            denom = lam[neg] - a[neg]
            ratios = np.where(denom > 0, lam[neg] / np.where(denom > 0, denom, 1.0), np.inf)
            theta = min(1.0, float(ratios.min())) if ratios.size else 1.0
            lam = np.maximum((1.0 - theta) * lam + theta * a, 0.0)
            keep = lam > 1e-12
            if keep.all():
                keep[int(np.argmin(lam))] = False
            active = [idx for idx, k in zip(active, keep) if k]
            lam = lam[keep]
            total = lam.sum()
            lam = lam / total if total > 0 else np.full(len(active), 1.0 / len(active))
            y = lam @ P[active]
        else:
            y = P[active[0]].copy()
            lam = np.array([1.0])
    d = float(np.linalg.norm(y))
    return (0.0 if d <= tol * math.sqrt(scale2) else d), x + y


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


def solve_subsets_loop(A, b, idx, residual_tol):
    """Each system A[idx[k]] x = b[idx[k]] by a lone `np.linalg.solve`, NaN where it raises.

    Returns the solutions and a mask of those kept: finite, with residual
    within residual_tol * (1 + max|b|).
    """
    X = np.full(idx.shape, np.nan)
    ok = np.zeros(len(idx), dtype=bool)
    for k, rows in enumerate(idx):
        try:
            X[k] = np.linalg.solve(A[rows], b[rows])
        except np.linalg.LinAlgError:
            continue
        ok[k] = _solve_or_none(A[rows], b[rows], residual_tol) is not None
    return X, ok


def _solve_or_none(M, r, residual_tol):
    try:
        x = np.linalg.solve(M, r)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    if np.abs(M @ x - r).max() > residual_tol * (1.0 + np.abs(r).max()):
        return None
    return x


def incremental_vertices_loop(U, T, BT, feas_tol, residual_tol, merge_tol=1e-9):
    """Vertices of {U x <= T} inside the axis box of offsets BT, one solve per plane subset.

    The per-combination insertion loop the batched d >= 3 enumerator of
    the cell module must reproduce: seed with the box corners, insert
    halfspaces by increasing offset, and for each one that cuts a vertex,
    solve it together with every (d-1)-subset of the planes still
    defining vertices.  Unlike the cell
    module, it also inserts exact copies of an earlier halfspace.
    Returns (vertices, defining) as arrays.
    """
    U, T, BT = (np.asarray(z, dtype=np.float64) for z in (U, T, BT))
    d = len(BT) // 2
    n = len(T)
    A = np.vstack([U, np.eye(d), -np.eye(d)])
    b = np.concatenate([T, BT])
    corners = np.array(list(itertools.product(*[(-1.0, 1.0)] * d)))
    verts = []
    defin = []
    box_ids = np.arange(n, n + 2 * d)
    for c in corners:
        planes = [n + j if c[j] > 0 else n + d + j for j in range(d)]
        x = _solve_or_none(A[planes], b[planes], residual_tol)
        if x is not None:
            verts.append(x)
            defin.append(planes)
    V = np.array(verts)
    D = np.array(defin, dtype=np.int64)
    order = np.argsort(T)
    for i in order:
        u, t = A[i], b[i]
        viol = V @ u > t
        if not viol.any():
            continue
        keep = ~viol
        active = np.unique(D)
        new_v = []
        new_d = []
        for combo in itertools.combinations(active.tolist(), d - 1):
            planes = [int(i), *combo]
            x = _solve_or_none(A[planes], b[planes], residual_tol)
            if x is None:
                continue
            slack = b[np.concatenate([active, box_ids])] - A[np.concatenate([active, box_ids])] @ x
            if slack.min() >= -feas_tol * (1.0 + abs(t)) and u @ x <= t + feas_tol:
                new_v.append(x)
                new_d.append(planes)
        V = np.vstack([V[keep], np.array(new_v)]) if new_v else V[keep]
        D = (
            np.vstack([D[keep], np.array(new_d, dtype=np.int64)])
            if new_d
            else D[keep]
        )
        if len(V) == 0:
            break
    return dedupe_vertices_loop(V, D, merge_tol)


def shared_subsets(inc, k):
    """The k-subsets of the columns of `inc` that hold True together in some row.

    Rows are vertices and columns planes, so these are the plane subsets
    through a common vertex.  Each row of the result holds sorted column
    ids, and the rows come in `itertools.combinations` order: a subset
    grows by every larger column that shares a row with all its columns,
    and `np.nonzero` lists the extensions row-major.  The products run
    over every column, so their cost grows with the square of the number
    of planes.
    """
    m = inc.shape[1]
    on = inc.astype(np.float64)
    idx = np.arange(m)[:, None]
    share = on.T  # share[s, r]: row r holds every column of subset s
    for step in range(k - 1):
        if step:  # the subsets of the last step extend nothing, so they need no share
            share = share[rows] * on.T[cols]
        rows, cols = np.nonzero((share @ on > 0) & (np.arange(m) > idx[:, -1:]))
        idx = np.column_stack([idx[rows], cols])
    return idx


def _solve_stack(A, b, idx):
    """One stacked solve of A[idx[k]] x = b[idx[k]], one solve per row if a system is singular."""
    M, r = A[idx], b[idx]
    try:
        X = np.linalg.solve(M, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        X = np.full(r.shape, np.nan)
        for k in range(len(idx)):
            try:
                X[k] = np.linalg.solve(M[k], r[k])
            except np.linalg.LinAlgError:
                pass
    ok = np.all(np.isfinite(X), axis=1)
    residual = np.abs(np.matmul(M[ok], X[ok][..., None])[..., 0] - r[ok]).max(axis=1)
    ok[ok] = residual <= cell.SOLVE_RESIDUAL_TOL * (1.0 + np.abs(r[ok]).max(axis=1))
    return X, ok


def incremental_by_plane(U, T, BT, start=None):
    """The d >= 3 incremental enumerator that lists subsets by active plane.

    The reference for `cell._intersect_incremental`, with the same
    signature and the same rules: box corners or `start`, insertion by
    increasing offset, exact copies skipped, the (d-1)-subsets of planes
    through a cut vertex in `itertools.combinations` order, box pairs
    screened, one stacked solve per insertion, the same residual and
    feasibility checks, and one greedy all-pairs merge at the end.  The
    subsets come from `shared_subsets`' products over every plane of the
    cell, and exact copies from `np.unique`.
    """
    d = len(BT) // 2
    n = len(T)
    A = np.vstack([U, np.eye(d), -np.eye(d)])
    b = np.concatenate([T, BT])
    if start is None:
        corners = n + np.arange(d) + d * np.array(list(itertools.product((1, 0), repeat=d)))
        X, ok = _solve_stack(A, b, corners)
        V, D, n_old = X[ok], corners[ok], 0
    else:
        n_old = start.n_halfspaces
        V, D = start.vertices, start.defining + (n - n_old) * (start.defining >= n_old)
    copy = np.ones(n, dtype=bool)
    copy[np.unique(np.column_stack([U, T]), axis=0, return_index=True)[1]] = False
    present = np.concatenate([~copy[:n_old], np.zeros(n - n_old, dtype=bool), np.ones(2 * d, dtype=bool)])
    order = n_old + np.argsort(T[n_old:])
    for i in order[~copy[order]]:
        u, t = A[i], b[i]
        viol = V @ u > t
        if not viol.any():
            continue
        cur = np.flatnonzero(present)
        inc = b[cur] - V[viol] @ A[cur].T <= cell.FEAS_TOL * (1.0 + np.abs(b[cur]))
        inc[np.arange(len(inc))[:, None], np.searchsorted(cur, D[viol])] = True
        idx = cur[shared_subsets(inc, d - 1)]
        pair = np.zeros(len(idx), dtype=bool)
        for a, c in itertools.combinations(range(d - 1), 2):
            pair |= (idx[:, a] >= n) & (idx[:, c] - idx[:, a] == d)
        idx = idx[~pair]
        idx = np.column_stack([np.full(len(idx), i), idx])
        X, ok = _solve_stack(A, b, idx)
        slack = b[cur] - X[ok] @ A[cur].T
        ok[ok] = (slack.min(axis=1) >= -cell.FEAS_TOL * (1.0 + abs(t))) & (X[ok] @ u <= t + cell.FEAS_TOL)
        V = np.vstack([V[~viol], X[ok]])
        D = np.vstack([D[~viol], idx[ok]])
        present[i] = True
        if len(V) == 0:
            break
    return cell.Intersection(*dedupe_after_all_pairs(V, D, 0), n)


def dedupe_after_all_pairs(V, D, apart):
    """`cell._dedupe_after` through the (k - apart, k) tensor of all pair distances.

    The first `apart` rows are kept.  A later row with no earlier row
    within MERGE_TOL * (1 + |w|) is kept outright; the rest are resolved
    in order, against the rows kept before them.
    """
    if len(V) <= max(apart, 1):
        return V, D
    gap = np.linalg.norm(V[apart:, None, :] - V[None, :, :], axis=2)
    near = np.tril(gap <= cell.MERGE_TOL * (1.0 + np.linalg.norm(V, axis=1)), apart - 1)
    keep = np.ones(len(V), dtype=bool)
    keep[apart:] = ~near.any(axis=1)
    for i in np.flatnonzero(~keep[apart:]):
        keep[apart + i] = not (near[i] & keep).any()
    return V[keep], D[keep]


def intersect_dual_2d_arrays(U, T, BT):
    """The planar dual-hull intersection with every step on whole arrays.

    The reference for the Python-float vertex loop of
    `cell._intersect_dual_2d`: the hull edges, the tangency filter and
    the vertex formula run as NumPy expressions, and `cell._merge_adjacent`
    runs on every result.
    """
    A = np.vstack([U, np.eye(2), -np.eye(2)])
    b = np.concatenate([T, BT])
    D = A / b[:, None]
    hull = _kernels.convex_hull_2d(D)
    defin = np.column_stack([hull, np.concatenate([hull[1:], hull[:1]])])
    (x0, y0), (x1, y1) = D[defin[:, 0]].T, D[defin[:, 1]].T
    det = x0 * y1 - y0 * x1
    edge = np.abs(det) >= 1e-14
    x0, y0, x1, y1, det, defin = (z[edge] for z in (x0, y0, x1, y1, det, defin))
    V = np.column_stack([(y1 - y0) / det, (x0 - x1) / det])
    V, defin = cell._merge_adjacent(V, defin)
    return cell.Intersection(V, defin, len(T))


def compact_unique(U, T, inter, dim):
    """Active constraints of an intersection by `np.unique`: (normals, offsets, defining).

    The reference for `cell._CellBuilder._compact`; box plane ids follow
    the new constraint count.
    """
    act = np.unique(inter.defining)
    act = act[act < len(T)]
    remap = -np.ones(len(T) + 2 * dim, dtype=np.int64)
    remap[act] = np.arange(len(act))
    remap[len(T):] = np.arange(len(act), len(act) + 2 * dim)
    return U[act], T[act], remap[inter.defining]


def vertex_sets_match_loop(A, B, tol):
    """Greedy nearest-unused matching, one norm per row of A.

    The reference for the vertex-set comparison in the cell module.
    """
    if len(A) != len(B):
        return False
    if len(A) == 0:
        return True
    used = np.zeros(len(B), dtype=bool)
    for a in A:
        dist = np.linalg.norm(B - a, axis=1)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > tol * (1.0 + np.linalg.norm(a)):
            return False
        used[j] = True
    return True


def convex_hull_2d_loop(points):
    """Monotone chain on NumPy scalars, counterclockwise hull indices.

    The reference for the planar hull kernel, which runs the same chain
    on Python floats: collinear interior points are dropped, a fully
    collinear input yields its two lexicographic extremes and a single
    point yields itself.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if n == 1:
        return order[:1]

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


def polygon_project_loop(hull, x):
    """Distance from x to a convex CCW polygon and the nearest point, one edge at a time.

    A 2-vertex hull is a segment, a 1-vertex hull a point.  Scalar squared
    distances per edge; x is inside when it is on the inner side of every edge.
    """
    x = np.asarray(x, dtype=np.float64)
    m = len(hull)
    if m == 1:
        return float(np.linalg.norm(x - hull[0])), hull[0].copy()
    edges = [(hull[0], hull[1])] if m == 2 else [(hull[i], hull[(i + 1) % m]) for i in range(m)]
    best_d2, best_p = math.inf, None
    inside = m >= 3
    for a, b in edges:
        e = b - a
        ee = float(e @ e)
        t = 0.0 if ee == 0 else min(1.0, max(0.0, float((x - a) @ e) / ee))
        p = a + t * e
        d2 = float((x - p) @ (x - p))
        if d2 < best_d2:
            best_d2, best_p = d2, p
        if (x[0] - a[0]) * e[1] - (x[1] - a[1]) * e[0] > 0.0:
            inside = False
    if inside:
        return 0.0, x.copy()
    return math.sqrt(best_d2), best_p


def cap_starved_density_loop(dist, U):
    """`CapStarved.density` by a loop over every cap piece.

    Starts every row at the outside band's density and overwrites the
    rows whose polar angle falls in each piece [lo, hi), one piece at a
    time; the per-piece expression is the one the package tabulates.
    """
    U = np.atleast_2d(U)
    theta = np.arccos(np.clip(np.abs(U @ dist.axis), -1.0, 1.0))
    out = np.full(
        len(U),
        dist.outside_mass
        / (dist._band_sigma(dist.cap_angles[0], math.pi - dist.cap_angles[0]))
        * geom.sphere_area(dist.dim),
    )
    for (lo, hi), mass in zip(dist._piece_angles, dist._piece_masses):
        sel = (theta >= lo) & (theta < hi)
        out[sel] = mass / dist._band_sigma(lo, hi) * geom.sphere_area(dist.dim)
    return out


def cap_starved_polar_uniform(dist, rng, lo, hi):
    """`CapStarved._sample_polar` drawn with the array-parameter `rng.uniform(lo, hi)`.

    The reference for the package's lo + (hi - lo) * U draw: one uniform
    angle per row in d = 2; in d >= 3 rejection against the uniform angle
    under each row's envelope max(sin lo, sin hi)^(d-2), or 1 when the
    band holds pi / 2.
    """
    if dist.dim == 2:
        return rng.uniform(lo, hi)
    holds_equator = (lo <= math.pi / 2) & (math.pi / 2 <= hi)
    env = np.where(holds_equator, 1.0, np.maximum(np.sin(lo), np.sin(hi))) ** (dist.dim - 2)
    out = np.empty(len(lo))
    todo = np.arange(len(lo))
    while len(todo):
        t = rng.uniform(lo[todo], hi[todo])
        ok = rng.random(len(todo)) * env[todo] <= np.sin(t) ** (dist.dim - 2)
        out[todo[ok]] = t[ok]
        todo = todo[~ok]
    return out


def piecewise_quad_integral(dist, f, kinks=()):
    """Integral of the batch callable f against a continuous planar law, by adaptive quadrature.

    The reference for the planar panels of `direction.integrate`:
    `scipy.integrate.quad` runs between consecutive angles among `kinks`
    and, for a cap-starved law, the edges of its pieces, read off its axis
    and cap angles here.  A cap-starved density is constant between those
    edges, so each interval takes `cap_starved_density_loop` at its
    midpoint; any other law's `density` is evaluated at every node.
    """
    cuts = [float(k) for k in kinks]
    starved = isinstance(dist, dn.CapStarved)
    if starved:
        alpha = math.atan2(dist.axis[1], dist.axis[0])
        cuts += [alpha + s * a + k for a in dist.cap_angles for s in (1.0, -1.0) for k in (0.0, math.pi)]
    pts = sorted({0.0, 2 * math.pi} | {c % (2 * math.pi) for c in cuts})

    def unit(t):
        return np.array([[math.cos(t), math.sin(t)]])

    def integrand(t, dens):
        u = unit(t)
        return float(f(u)[0]) * (float(dist.density(u)[0]) if dens is None else dens)

    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        dens = float(cap_starved_density_loop(dist, unit(0.5 * (a + b)))[0]) if starved else None
        total += quad(integrand, a, b, args=(dens,), epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return total / (2 * math.pi)


def outer_parallel(body, rho):
    """Outer parallel body at distance rho (closed-form in the body family)."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if isinstance(body, geom.Ball):
        return geom.Ball(body.center, body.radius + rho)
    if isinstance(body, geom.Polytope):
        return geom.BallSum(body.vertices, rho)
    return geom.BallSum(body.vertices, body.radius + rho)


def _weighted_directions(dist, weight_fn, envelope, rng, n):
    """Draw n directions from weight_fn(u) * dist(du) / const by rejection."""
    if isinstance(dist, dn.Atomic):
        w = weight_fn(dist.atoms) * dist.weights
        total = w.sum()
        if total <= 0:
            raise ValueError("direction weights vanish on all atoms")
        return dist.atoms[categorical_variates(rng, categorical_cdf(w / total), n)]
    return dn._rejection_batch(
        rng,
        n,
        lambda r, m: dist.sample_batch(r, m),
        lambda U: weight_fn(U) / envelope,
    )


def sample_hitting(params, window, rng):
    """Poisson sample of the process restricted to hyperplanes hitting window.

    The intensity measure on hyperplanes hitting W has mass Phi(W)
    (`process.phi_functional`) and factorizes into the direction law
    weighted by h(W, .) and a uniform offset on (0, h(W, u)].  Returns
    (normals, offsets).
    """
    process._require_interior_origin(window)
    mass = process.phi_functional(params, window)
    n = poisson_variate(rng, mass)
    if n == 0:
        return np.empty((0, params.dim)), np.empty(0)
    U = _weighted_directions(params.dist, window.support_batch, window.circumradius, rng, n)
    h = window.support_batch(U)
    t = h * (1.0 - rng.random(n))  # uniform on (0, h]
    return U, t


def sample_annulus_two_bodies(params, inner, outer, gap, rng):
    """Annulus sample between two window bodies whose support gap is the constant `gap`.

    The reference for `process.sample_annulus`: the caller builds both
    windows (`outer_parallel`) and the offsets are drawn between their
    own support functions, in the same draw order.
    """
    n = poisson_variate(rng, 2.0 * params.gamma * gap)
    if n == 0:
        return np.empty((0, params.dim)), np.empty(0)
    U = params.dist.sample_batch(rng, n)
    h_in = inner.support_batch(U)
    h_out = outer.support_batch(U)
    return U, h_out - (h_out - h_in) * rng.random(n)


def cells_ring_by_ring(params_base, body, gamma_grid, policy, key):
    """Coupled cells along an intensity grid, each window ring built in its own window box.

    The reference for the window rings of `cell.cells_along_intensity`:
    ring r is sampled as there, and the cell of all rings so far is built
    from the box corners in the axis box of window r itself, then reduced
    to the constraints that define a vertex.  Bands and the counts beyond
    their reach are drawn as there; each band's cell is built from the
    box corners from the constraints before it and the whole band, in the
    box of the final window.  It shares only the intersection kernel
    with the cell module.  Returns one dict per grid level with rounds,
    sampled, window_radius, offsets and vertices.
    """
    grid = [float(g) for g in gamma_grid]
    d = body.dim
    box_normals = np.vstack([np.eye(d), -np.eye(d)])

    def build(U, T, rho):
        inter = cell.halfspace_intersection(U, T, body.support_batch(box_normals) + rho)
        act = np.unique(inter.defining)
        act = act[act < len(T)]
        return U[act], T[act], inter.vertices

    def reach(V):
        return body.distance_batch(V).max()

    params_1 = params_base.with_gamma(grid[0])
    rings_U, rings_T = [], []

    def ring(r):
        r_in = 0.0 if r == 0 else policy.radius(body, r - 1)
        rng = key.child("ring", r)
        U, T = process.sample_annulus(params_1, body, r_in, policy.radius(body, r), rng)
        rings_U.append(U)
        rings_T.append(T)
        return build(np.vstack(rings_U), np.concatenate(rings_T), policy.radius(body, r))

    for r in range(policy.max_rounds):
        U, T, V = ring(r)
        if len(V) and reach(V) < policy.radius(body, r) - cell.FEAS_TOL:
            break
    else:
        raise WindowOverflow(policy.max_rounds, policy.radius(body, policy.max_rounds - 1))
    rounds = r + 1
    rho = policy.radius(body, r)
    sampled = sum(len(z) for z in rings_T)
    cells = [dict(rounds=rounds, sampled=sampled, window_radius=rho, offsets=T, vertices=V)]
    rng = key.child("bands")
    beyond = []
    for g_prev, g in zip(grid, grid[1:]):
        band_reach = min(reach(V) + cell.FEAS_TOL, rho)
        Ub, Tb = process.sample_annulus(params_base.with_gamma(g - g_prev), body, 0.0, band_reach, rng)
        sampled += len(Tb)
        U, T, V = build(np.vstack([U, Ub]), np.concatenate([T, Tb]), rho)
        cells.append(dict(rounds=rounds, sampled=sampled, window_radius=rho, offsets=T, vertices=V))
        beyond.append(2.0 * (g - g_prev) * (rho - band_reach))
    unplaced = 0
    for z, mass in zip(cells[1:], beyond):
        unplaced += poisson_variate(rng, mass)
        z["sampled"] += unplaced
    return cells
