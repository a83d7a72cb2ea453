"""Separation diagnostics of a body/direction-law pair.

The central quantity is the minimal support excess at offset eps: the
minimum, over points y at distance eps from the body, of the integral of
h(conv(K u {y}), .) - h(K, .) against the directional distribution.  It
controls the exponential rate at which cells stop protruding past the
eps-parallel body, and its small-eps scaling exponent separates the
polytope / rolling-ball / generic regimes.

Planar excess integrals are evaluated with quadrature localized to the
support arc of the integrand (the directions in which y beats the body),
split at the body's kink directions and the law's density breaks; this
keeps relative accuracy flat as eps shrinks, which a global grid cannot
do once the arc is narrower than the grid spacing.  Every planar body is
conv(V) + rB, so the arc has a closed form (h(P + rB, u) = h(P, u) + r),
and one evaluator serves both the coarse scan and the refinement.  Every
law is read as its parts (`direction.exact_parts`): an atomic part is an
exact sum, a continuous part is that quadrature with the part's density
and density breaks.  In d >= 3 only atomic parts are evaluated; a
continuous part is refused with `UnsupportedBody` before anything is
computed (the one rule for every integral against a law).

In any dimension a row's excess is the same bits whatever else shares its
batch: every product and sum is taken one row at a time, never by a BLAS
call whose blocking depends on the row count.  That lets the one compass
search of `mu_estimate` run its restarts in lockstep and poll each one's
next AHEAD rounds, guessed ahead, in one evaluator call for all of them,
and still visit exactly the points each would visit alone.  It searches
a planar offset boundary in arclength, and in d >= 3 searches space,
retracting every poll onto the offset boundary (`geom.retract`) from
coarse points that are retracted radial points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hypercell import _kernels, geom
from hypercell import direction as dn
from hypercell.errors import ConfigError, DegenerateX, InvalidEpsilon
from hypercell.rng import is_count, stream

__all__ = [
    "MuConfig",
    "MuEstimate",
    "ScalingFit",
    "FitResult",
    "ExcessEvaluator",
    "excess",
    "mu_estimate",
    "mu_scaling",
    "require_approximation",
    "fit_loglog",
    "hausdorff_cell",
]


@dataclass(frozen=True)
class MuConfig:
    """Search settings for the minimal-excess estimate.

    `seed` drives only the coarse directions in d >= 3; the planar scan
    is an even arclength grid and draws nothing.
    """

    coarse_samples: int = 4096
    seed: int = 99173

    def __post_init__(self):
        for name, least in (("coarse_samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_count(value, least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class MuEstimate:
    """Minimal support excess over the eps-offset boundary (upper bound)."""

    value: float
    argmin_point: np.ndarray
    evaluations: int
    refinement_gap: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmin_point": self.argmin_point.tolist(),
            "evaluations": self.evaluations,
            "refinement_gap": self.refinement_gap,
        }


@dataclass
class ScalingFit:
    """Least-squares line through (log eps, log mu)."""

    slope: float
    intercept: float
    r_squared: float
    points: list
    estimates: list = field(default_factory=list)  # MuEstimate per eps; not serialized

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "points": [[float(a), float(b)] for a, b in self.points],
        }


_TWO_PI = 2.0 * math.pi
# quadrature panels evaluated per vectorized step: 512 panels of 32 nodes
# make each temporary 128 KB, which stays in cache.  Peak RSS of a process
# running `mu` benchmark passes was 45.2 / 42.3 / 41.0 / 40.0 / 39.5 MB at
# 4096 / 2048 / 1024 / 512 / 256 panels; a pass took about 0.13-0.14 s at
# 4096 and 2048 and 0.12 s from 512 down, so smaller blocks save under 1 MB
# more and only add loop steps.
_PANEL_BLOCK = 512
# compass search rounds polled per evaluator call, each search guessing it
# repeats its last outcome.  Calls / rows per `mu` benchmark pass at
# AHEAD = 1, 2, 4, 8, 16, 32: 681 / 348 / 184 / 100 / 60 / 40 calls and
# 29,018 / 29,062 / 29,222 / 29,422 / 30,110 / 31,518 rows; at 8 under 2%
# of the rows are wasted guesses.
AHEAD = 8
# `mu_estimate`: RESTARTS searches share MAX_REFINE evaluations (`_compass_search`)
REFINE_TOL = 1e-10
MAX_REFINE = 4000
RESTARTS = 5


class ExcessEvaluator:
    """Support-excess integrals for one body/distribution pair.

    The law is read as its (weight, part) pairs (`direction.exact_parts`),
    each with one branch.  An atomic part is an exact sum over its atoms.
    A planar continuous part goes through one quadrature: 32-point
    Gauss-Legendre panels over the closed-form support arc of each point,
    split at the body's kink directions and the part's density breaks,
    with the part's density as a factor (none for the uniform law).  A
    continuous part in d >= 3 raises `UnsupportedBody` here.  `batch`
    and `precise` are the same computation on many points or on one; the
    body's support at each part's atoms and each part's split angles are
    precomputed here so minimization loops stay cheap.

    Every part is row-independent, in any dimension: a row's value is
    bit-identical in any batch, alone, and through `precise`.  Supports
    and inner products are built coordinate by coordinate, weighted sums
    are per-row `einsum` reductions, and quadrature blocks end only
    between rows, so no row's panels are summed in two pieces.
    """

    def __init__(self, body, dist):
        self.body = body
        self.dist = dist
        self.dim = body.dim
        parts = dn.exact_parts(dist)
        kinks = geom.kink_angles(body) if self.dim == 2 else None
        # per part, fixed for the evaluator's life: h(K, atoms) of an atomic
        # part, the split angles of a continuous one (planar: exact_parts
        # refuses a continuous part in d >= 3)
        self._parts = [
            (weight, part, body.support_batch(part.atoms))
            if part.atoms is not None
            else (weight, part, np.concatenate([kinks, part.breaks]))
            for weight, part in parts
        ]

    # -- planar continuous part ---------------------------------------
    def _support_arcs(self, Y: np.ndarray):
        """Rows of Y whose arc {u : <y,u> > h(body,u)} is nonempty, and its end angles.

        With body = conv(V) + rB the arc is the intersection over v in V of
        the arcs about the direction c of y - v with half-width
        w = arccos(r / |y - v|), each shorter than pi.  Measured from the
        centre of one of them, every other one that meets it is the
        interval about its centre wrapped into (-pi, pi], so the
        intersection is [max(c - w), min(c + w)]; it is empty or reversed
        exactly when y lies in the body.
        """
        r = self.body.radius
        D = Y[:, None, :] - self.body.hull_vertices[None, :, :]
        rho = np.hypot(D[..., 0], D[..., 1])
        c = np.arctan2(D[..., 1], D[..., 0])
        ref = c[:, 0].copy()
        c -= ref[:, None]
        c -= _TWO_PI * np.round(c / _TWO_PI)
        w = np.arccos(np.divide(r, rho, out=np.ones_like(rho), where=rho > r))
        lo = (c - w).max(axis=1)
        hi = (c + w).min(axis=1)
        rows = np.flatnonzero(lo < hi)
        return rows, ref[rows] + lo[rows], ref[rows] + hi[rows]

    def _core_support(self, cos: np.ndarray, sin: np.ndarray):
        """h(body, u) at u = (cos, sin), one entry at a time, from body = conv(V) + rB."""
        V, r = self.body.hull_vertices, self.body.radius
        if len(V) == 1 and not V.any():  # bodies are recentred, so a point core is the origin
            return r
        h = None
        for vx, vy in V.tolist():
            t = cos * vx
            t += sin * vy
            h = t if h is None else np.maximum(h, t, out=h)
        h += r
        return h

    def _arc_quadrature(self, Y: np.ndarray, arcs, density, breaks: np.ndarray) -> np.ndarray:
        """Integral over each point's support arc of its excess, times density / (2 pi)."""
        rows, a, b = arcs
        # an arc is shorter than pi, so only the copy of a break nearest its
        # midpoint can fall inside it
        mid = 0.5 * (a + b)
        nearest = breaks + _TWO_PI * np.round((mid[:, None] - breaks) / _TWO_PI)
        edges = np.sort(np.column_stack([a, np.clip(nearest, a[:, None], b[:, None]), b]), axis=1)
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        owner = np.repeat(rows, edges.shape[1] - 1)
        keep = hi > lo
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        half = 0.5 * (hi - lo)
        centre = 0.5 * (hi + lo)
        total = np.zeros(len(Y))
        nodes, weights = dn._gauss_legendre()
        for part in _row_blocks(owner):
            ang = centre[part, None] + half[part, None] * nodes
            cos = np.cos(ang)
            sin = np.sin(ang, out=ang)
            Yp = Y[owner[part]]
            vals = cos * Yp[:, :1]
            vals += sin * Yp[:, 1:]
            vals -= self._core_support(cos, sin)
            np.maximum(vals, 0.0, out=vals)
            if density is not None:
                vals *= density(np.stack([cos, sin], axis=-1).reshape(-1, 2)).reshape(vals.shape)
            sums = np.einsum("pk,k->p", vals, weights)
            total += np.bincount(owner[part], weights=half[part] * sums, minlength=len(Y))
        return total / _TWO_PI

    def _eval(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros(len(Y))
        arcs = None
        for weight, part, fixed in self._parts:
            if part.atoms is not None:
                gaps = np.maximum(_kernels.dots(Y, part.atoms) - fixed, 0.0)
                out += weight * np.einsum("pk,k->p", gaps, part.weights)
            else:
                if arcs is None:
                    arcs = self._support_arcs(Y)
                out += weight * self._arc_quadrature(Y, arcs, part.density, fixed)
        return out

    def batch(self, Y: np.ndarray) -> np.ndarray:
        """Excess at each row of Y."""
        return self._eval(np.atleast_2d(np.asarray(Y, dtype=np.float64)))

    def precise(self, y) -> float:
        """Excess at a single point: `batch` on one row, as a float."""
        return float(self._eval(np.atleast_2d(np.asarray(y, dtype=np.float64)))[0])


def _row_blocks(owner: np.ndarray):
    """Slices of about _PANEL_BLOCK panels of a sorted owner array, cut only between rows."""
    i, n = 0, len(owner)
    while i < n:
        j = i + _PANEL_BLOCK
        if j < n:
            j = max(int(np.searchsorted(owner, owner[j])), int(np.searchsorted(owner, owner[i], "right")))
        yield slice(i, j)
        i = j


def excess(body, dist, y) -> float:
    """Integral of max(h(body,u), <y,u>) - h(body,u) against the distribution.

    Zero exactly when y lies in the body.
    """
    return ExcessEvaluator(body, dist).precise(y)


def mu_estimate(body, dist, eps: float, cfg: MuConfig | None = None) -> MuEstimate:
    """Minimal excess over the boundary of the eps-parallel body.

    A coarse scan of the offset boundary picks up to RESTARTS starts, and
    one compass search (`_compass_search`) refines them in lockstep, with
    an equal share of MAX_REFINE evaluations.  A planar boundary is
    scanned on an even arclength grid and searched in arclength, from
    well-separated scan minima.  In d >= 3 (atomic laws only) the coarse
    points are the retractions (`geom.retract`) of 2 (circumradius + eps) u
    for `cfg.coarse_samples` uniform directions u: from that far out every
    facet, edge and vertex piece of a polytope's offset boundary is hit.
    The best of them start searches in space whose every poll is retracted
    onto the offset boundary.  The first best search in start order wins.
    Every excess is exact, so the result is an upper bound on the true
    minimum (finite search).
    """
    if not 0 < eps < math.inf:  # fails on NaN
        raise InvalidEpsilon(f"eps must be positive and finite, got {eps}")
    cfg = cfg or MuConfig()
    evaluator = ExcessEvaluator(body, dist)
    m = cfg.coarse_samples
    if body.dim == 2:
        path = geom.boundary_path(body, eps)
        s_grid = (np.arange(m) + 0.5) * (path.total / m)
        coarse = evaluator.batch(path.point_at(s_grid))
        starts = _separated_minima(coarse, s_grid, path.total, RESTARTS)
        f, move, to_point = lambda S: evaluator.batch(path.point_at(S[:, 0])), lambda S: S % path.total, path.point_at
        step, min_step = path.total / m, path.total * 1e-15
    else:
        U = stream(cfg.seed, "mu-coarse").standard_normal((m, body.dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        Y = geom.retract(body, 2.0 * (body.circumradius + eps) * U, eps)
        coarse = evaluator.batch(Y)
        starts = Y[np.argsort(coarse)[:RESTARTS]]
        f, move, to_point = evaluator.batch, lambda X: geom.retract(body, X, eps), np.atleast_2d
        step, min_step = 0.5 * eps, eps * 1e-12
    searches = _compass_search(f, move, starts, step, min_step, REFINE_TOL, MAX_REFINE // len(starts))
    value, x, _, gap = min(searches, key=lambda run: run[0])
    return MuEstimate(value, to_point(x)[0], m + sum(run[2] for run in searches), gap)


def _separated_minima(vals: np.ndarray, s_grid: np.ndarray, period: float, count: int) -> list:
    """Up to `count` arclengths of the smallest values, each at least period / 16 round the circle from the others."""
    s_sorted = s_grid[np.argsort(vals)]
    free = np.ones(len(s_sorted), dtype=bool)
    min_gap = period / 16.0
    starts = []
    while len(starts) < count:
        k = int(free.argmax())
        if not free[k]:
            break
        s0 = s_sorted[k]
        starts.append((float(s0),))
        # the circular distance from the new start; it masks the start itself
        d = np.abs(s_sorted - s0) % period
        free &= np.minimum(d, period - d) >= min_gap
    return starts


def _compass_search(f, move, starts, step, min_step, refine_tol, max_evals):
    """Compass searches in R^p, one per start, in lockstep (Kolda, Lewis & Torczon 2003).

    A search at x with step h polls x + h e_1, x - h e_1, x + h e_2, ...,
    x - h e_p, each mapped by `move` (rows to rows), and moves to the
    first poll that improves on its value; if none does it halves h.  It
    counts only the polls up to the one it takes, and stops on its
    budget, when h falls to min_step, or when it halves h after a gain
    below refine_tol.

    All starts share one call of `f` (rows to values).  Then each call
    polls the next AHEAD rounds of every search still running, guessing
    that each round repeats the search's last outcome (the same poll
    taken, or a halving): round l + 1 is polled from the state round l
    reaches under that guess, one `move` call per round.  A guessed state
    is a moved poll or a halved step, like any state the search reaches,
    so `move` sees no kind of row it would not see anyway.  The rounds are
    then replayed in order with the rule above, and a search's replay
    ends at its first outcome that differs from the guess; it resumes
    from its actual state in the next call.  So when `f` and `move` treat
    each row alone, a search's visited points and evaluation count are
    those of polling one point at a time on its own; guessed rows past a
    miss cost only time.  The bookkeeping runs on Python floats, which
    costs less than NumPy on a handful of rows.  Returns (value, point as
    a tuple, evaluations, gap) per start, in start order.
    """
    X = np.array(starts, dtype=np.float64)
    best = f(X).tolist()
    x = X.tolist()
    p = X.shape[1]
    n = 2 * p  # polls per round; outcome n is a halving
    evals = [1] * len(x)
    gap = [math.inf] * len(x)
    steps = [float(step)] * len(x)
    last = [n] * len(x)

    def running(k):
        return evals[k] < max_evals and steps[k] > min_step

    def replay(k, vals, levels, row):
        """Apply search k's polled rounds from its first row in each level; True while it keeps running."""
        size = len(levels[0])
        for level, moved in enumerate(levels):
            base = size * level + row
            for m in range(n):
                if vals[base + m] < best[k]:
                    evals[k] += m + 1
                    gap[k], best[k], x[k] = best[k] - vals[base + m], vals[base + m], moved[row + m].tolist()
                    break
            else:
                m = n
                evals[k] += n
                steps[k] *= 0.5
                if gap[k] < refine_tol:
                    return False
            if not running(k):
                return False
            if m != last[k]:
                last[k] = m
                return True
        return True

    live = [k for k in range(len(x)) if running(k)]
    while live:
        state = [(x[k], steps[k]) for k in live]
        levels = []
        for _ in range(AHEAD):
            polls = []
            for xk, h in state:
                for j in range(p):
                    for v in (xk[j] + h, xk[j] - h):
                        polls += xk[:j]
                        polls.append(v)
                        polls += xk[j + 1 :]
            moved = move(np.array(polls).reshape(-1, p))
            levels.append(moved)
            state = [
                (moved[n * i + last[k]].tolist(), h) if last[k] < n else (xk, 0.5 * h)
                for i, (k, (xk, h)) in enumerate(zip(live, state))
            ]
        vals = f(np.concatenate(levels)).tolist()
        live = [k for i, k in enumerate(live) if replay(k, vals, levels, n * i)]
    return [(best[k], tuple(x[k]), evals[k], gap[k]) for k in range(len(x))]


def mu_scaling(body, dist, eps_grid, cfg: MuConfig | None = None) -> ScalingFit:
    """Empirical scaling exponent of the minimal excess over an eps grid."""
    eps_arr = np.asarray(list(eps_grid), dtype=np.float64)
    if not np.all(eps_arr > 0):  # fails on NaN
        raise InvalidEpsilon("eps grid must be positive")
    limit = min(1.0, body.diameter)
    if np.any(eps_arr > limit + 1e-12):
        raise InvalidEpsilon(f"eps grid must stay within (0, {limit:g}]")
    require_approximation(body, dist)
    cfg = cfg or MuConfig()
    estimates = [mu_estimate(body, dist, float(eps), cfg) for eps in eps_arr]
    points = [(math.log(eps), math.log(est.value)) for eps, est in zip(eps_arr, estimates)]
    fit = fit_loglog(points)
    return ScalingFit(fit.slope, fit.intercept, fit.r_squared, points, estimates)


def require_approximation(body, dist) -> None:
    """Refuse a law whose support misses part of the body's surface measure.

    Cells of such a law never approximate the body, and its minimal
    excess is zero on part of the offset boundary.
    """
    if not dn.supports_approximation(body, dist):
        raise ConfigError(
            "directional distribution cannot approximate this body "
            "(surface measure support is not covered)"
        )


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r_squared,
            "n_points": self.n_points,
        }


def fit_loglog(points) -> FitResult:
    """Ordinary least squares through the given points.

    Exact on collinear input.  Constant ordinates give slope 0 with
    r-squared reported as 0 (zero explained variance convention).
    Raises DegenerateX unless there are two distinct abscissae.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise DegenerateX("need at least two distinct abscissae")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    syy = float(((y - ym) ** 2).sum())
    if syy == 0.0:
        return FitResult(0.0, float(ym), 0.0, len(pts))
    resid = y - (intercept + slope * x)
    r2 = 1.0 - float((resid**2).sum()) / syy
    return FitResult(slope, intercept, r2, len(pts))


def hausdorff_cell(body, cell) -> float:
    """Hausdorff distance from the body to one of its cells.

    Containment is part of the cell construction contract, so only the
    vertex-to-body distances matter.  A cell build records the same value
    as `cell.stats.hausdorff`.
    """
    return geom.hausdorff_containing(body, cell.vertices, certificate=None)
