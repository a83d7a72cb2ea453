"""Even directional distributions on the unit sphere.

These play the role of the law of hyperplane normals.  Every variant is
an even probability measure with full-dimensional support: isotropic,
finitely supported (antipodal atom pairs), density-weighted, the
cap-starved construction that suppresses mass near one normal direction,
and finite mixtures.

Every law is read through one part model, the direction-side twin of the
body model conv(V) + rB: a law flattens into (weight, part) pairs in
component order, mixtures flattened.  A part is atomic (`atoms` and
`weights`) or continuous (`atoms` None, a `density` against the uniform
law, None for the uniform law itself, and `breaks`, the planar angles
where that density jumps).  Integrals, the support tests and the excess
evaluator in `metrics` branch only on that: atoms or continuous.

Integration is exact: sums for atoms in any dimension, and 32-point
Gauss-Legendre panels split at the integrand's kinks and the part's
density breaks for a continuous part in the plane.  `exact_parts` holds
the one rule for d >= 3: only atomic parts are integrated there, and a
continuous part raises `UnsupportedBody`.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from hypercell import rng as hrng
from hypercell.errors import InfeasibleBudget, RejectionStall, UnsupportedBody
from hypercell.geom import as_unit_vector, sphere_area, surface_measure

ANGULAR_TOL = 1e-9
MASS_TOL = 1e-9

__all__ = [
    "Isotropic",
    "Atomic",
    "DensityOnSphere",
    "CapStarved",
    "Mixture",
    "exact_parts",
    "integrate",
    "supports_approximation",
    "from_surface_measure",
    "cap_starved",
    "distribution_to_json",
    "distribution_from_json",
]


def _eval_batch(f, U: np.ndarray) -> np.ndarray:
    """Evaluate the batch callable f on the rows of U: one value per row."""
    vals = np.asarray(f(U), dtype=np.float64)
    if vals.shape != (U.shape[0],):
        raise ValueError(
            f"batch callable on {U.shape[0]} directions returned shape {vals.shape}, "
            f"expected ({U.shape[0]},)"
        )
    return vals


def _rejection_batch(rng, n, propose, accept_prob):
    """Generic batch rejection sampler with a stall guard."""
    out = []
    got = 0
    proposals = 0
    while got < n:
        m = max(1024, 2 * (n - got))
        cand = propose(rng, m)
        p = accept_prob(cand)
        keep = rng.random(len(cand)) <= p
        acc = cand[keep]
        out.append(acc[: n - got])
        got += min(len(acc), n - got)
        proposals += m
        if proposals >= 1e7 and got / proposals < 1e-6:
            raise RejectionStall(
                f"acceptance rate {got / proposals:.2e} after {proposals:.0f} proposals"
            )
    return np.vstack(out)


def _uniform_sphere(rng, n, dim):
    g = rng.standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# variants


class _Continuous:
    """A continuous part: no atoms, a density against the uniform law, its planar breaks.

    `density` is None for the uniform law itself; `breaks` are the angles
    where a planar density jumps.
    """

    atoms = None
    density = None
    breaks = np.empty(0)


class Isotropic(_Continuous):
    """Rotation invariant distribution (normalized spherical Lebesgue)."""

    def __init__(self, dim: int):
        if not dim >= 2:
            raise ValueError("dimension must be >= 2")
        self.dim = dim

    def sample_batch(self, rng, n: int) -> np.ndarray:
        return _uniform_sphere(rng, n, self.dim)


class Atomic:
    """Finitely supported even distribution: antipodal atom pairs."""

    def __init__(self, atoms, weights):
        U = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        w = np.asarray(weights, dtype=np.float64)
        if len(U) != len(w) or len(U) == 0:
            raise ValueError("atoms and weights must be equal-length and nonempty")
        norms = np.linalg.norm(U, axis=1)
        # each test is written to fail on NaN
        if not np.abs(norms - 1.0).max() <= 1e-12:
            raise ValueError("atoms must be unit vectors")
        if not w.min() > 0:
            raise ValueError("weights must be positive")
        if not abs(w.sum() - 1.0) <= MASS_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        self.atoms = U
        self.weights = w
        self._cdf = hrng.categorical_cdf(w)
        self.dim = U.shape[1]
        self._check_even()

    def _check_even(self):
        for u, w in zip(self.atoms, self.weights):
            d = np.linalg.norm(self.atoms + u, axis=1)
            j = int(np.argmin(d))
            if d[j] > ANGULAR_TOL or abs(self.weights[j] - w) > MASS_TOL:
                raise ValueError("atoms must come in antipodal pairs with equal weight")

    @classmethod
    def symmetrized(cls, axes, weights) -> "Atomic":
        """Build from one representative per antipodal pair."""
        U = np.atleast_2d(np.asarray(axes, dtype=np.float64))
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
        return cls(np.vstack([U, -U]), np.concatenate([w, w]) / 2.0)

    def sample_batch(self, rng, n: int) -> np.ndarray:
        return self.atoms[hrng.categorical_variates(rng, self._cdf, n)]


class DensityOnSphere(_Continuous):
    """Distribution with density g relative to the uniform distribution.

    g maps an (n, d) array of unit vectors to n values.  It is
    symmetrized where it is evaluated, so evenness holds regardless of
    the callable supplied.  `sup_bound` must dominate g; it is the
    rejection envelope.
    """

    def __init__(self, g: Callable, sup_bound: float, dim: int):
        if not 0 < sup_bound < math.inf:
            raise ValueError(f"sup_bound must be positive and finite, got {sup_bound!r}")
        self._raw = g
        self.sup_bound = float(sup_bound)
        self.dim = dim

    def density(self, U: np.ndarray) -> np.ndarray:
        """Even density with respect to the uniform probability measure."""
        return 0.5 * (_eval_batch(self._raw, U) + _eval_batch(self._raw, -U))

    def sample_batch(self, rng, n: int) -> np.ndarray:
        return _rejection_batch(
            rng,
            n,
            lambda r, m: _uniform_sphere(r, m, self.dim),
            lambda U: self.density(U) / self.sup_bound,
        )


def _sin_power_integral(n: int, lo: float, hi: float) -> float:
    """The integral of sin^n over [lo, hi] within [0, pi], in closed form.

    n = 0 gives hi - lo and n = 1 gives cos lo - cos hi; larger n take the
    reduction  int sin^n = -sin^(n-1) cos / n + (n-1)/n int sin^(n-2).
    Each difference of values at hi and lo is written as a product with
    sin((hi - lo) / 2), as in cos lo - cos hi = 2 sin((lo + hi) / 2)
    sin((hi - lo) / 2), so a narrow band keeps its relative precision.
    """
    if n == 0:
        return hi - lo
    mid, half = 0.5 * (lo + hi), math.sin(0.5 * (hi - lo))
    if n == 1:
        return 2.0 * math.sin(mid) * half
    a, c = math.sin(hi), math.sin(lo)
    # sin^(n-1) cos at hi less at lo, from cos hi - cos lo and sin hi - sin lo
    d_cos = -2.0 * math.sin(mid) * half
    d_pow = 2.0 * math.cos(mid) * half * sum(a**j * c ** (n - 2 - j) for j in range(n - 1))
    d_edge = a ** (n - 1) * d_cos + math.cos(lo) * d_pow
    return -d_edge / n + (n - 1) / n * _sin_power_integral(n - 2, lo, hi)


class CapStarved(_Continuous):
    """Piecewise-constant even density, starved on shrinking polar caps.

    The sphere is split into nested caps about ``axis`` (and their
    antipodes) with prescribed one-sided masses, plus a uniform
    remainder.  Stored shell boundaries and masses make the construction
    reproducible and exactly integrable.
    """

    def __init__(self, axis, cap_angles, cap_masses, outside_mass):
        self.axis = as_unit_vector(axis)
        self.dim = self.axis.shape[0]
        ang = np.asarray(cap_angles, dtype=np.float64)  # decreasing half-angles
        m = np.asarray(cap_masses, dtype=np.float64)  # one-sided cap masses, decreasing
        if len(ang) != len(m) or len(ang) == 0:
            raise ValueError("cap_angles and cap_masses must be nonempty and of equal length")
        if not (np.isfinite(ang).all() and np.isfinite(m).all() and math.isfinite(outside_mass)):
            raise ValueError("cap angles, cap masses and outside mass must be finite")
        if np.any(np.diff(ang) >= 0) or ang[0] >= math.pi / 2 or ang[-1] <= 0:
            raise ValueError("cap angles must decrease strictly within (0, pi/2)")
        if np.any(np.diff(m) >= 0) or m[-1] <= 0:
            raise ValueError("cap masses must decrease strictly and stay positive")
        total = 2.0 * m[0] + float(outside_mass)
        if abs(total - 1.0) > MASS_TOL or outside_mass <= 0:
            raise InfeasibleBudget(f"masses total {total!r} with outside {outside_mass!r}")
        self.cap_angles = ang
        self.cap_masses = m
        self.outside_mass = float(outside_mass)
        # pieces: one-sided bands ang[i] > theta >= ang[i+1], innermost cap, outside
        self._piece_angles = []
        self._piece_masses = []
        for i in range(len(ang) - 1):
            self._piece_angles.append((ang[i + 1], ang[i]))
            self._piece_masses.append(m[i] - m[i + 1])
        self._piece_angles.append((0.0, ang[-1]))
        self._piece_masses.append(m[-1])
        # sampling table: each cap piece at twice its one-sided mass, then the outside band
        self._draw_cdf = hrng.categorical_cdf(
            [2.0 * b for b in self._piece_masses] + [self.outside_mass]
        )
        self._draw_lo, self._draw_hi = np.array(self._piece_angles + [(ang[0], math.pi - ang[0])]).T
        self._basis = _orthonormal_complement(self.axis)
        # density lookup: theta in [edges[k-1], edges[k]) reads _density_table[k]
        # for edges [0, ang[-1], ..., ang[0]]; below 0 and from ang[0] on, the outside band
        outside = (
            self.outside_mass
            / (self._band_sigma(self.cap_angles[0], math.pi - self.cap_angles[0]))
            * sphere_area(self.dim)
        )
        pieces = [
            mass / self._band_sigma(lo, hi) * sphere_area(self.dim)
            for (lo, hi), mass in zip(self._piece_angles, self._piece_masses)
        ]
        self._density_edges = np.concatenate([[0.0], ang[::-1]])
        self._density_table = np.array([outside] + pieces[::-1] + [outside])
        # in the plane the density jumps at the cap edges about the axis and its antipode
        alpha = math.atan2(self.axis[1], self.axis[0])
        self.breaks = np.concatenate([alpha + s * ang + k for s in (1.0, -1.0) for k in (0.0, math.pi)])

    # -- geometry of polar pieces -------------------------------------
    def _band_sigma(self, lo: float, hi: float) -> float:
        """Spherical Lebesgue measure of one polar band {lo <= theta <= hi}."""
        if self.dim == 2:
            return 2.0 * (hi - lo)
        return sphere_area(self.dim - 1) * _sin_power_integral(self.dim - 2, lo, hi)

    def density(self, U: np.ndarray) -> np.ndarray:
        """Density with respect to the uniform probability measure."""
        U = np.atleast_2d(U)
        cosines = np.abs(U @ self.axis)
        theta = np.arccos(np.clip(cosines, -1.0, 1.0))
        return self._density_table[np.searchsorted(self._density_edges, theta, side="right")]

    def cap_mass(self, threshold: float) -> float:
        """Exact one-sided mass of {<u, axis> >= threshold}."""
        angle = math.acos(min(1.0, max(-1.0, threshold)))
        total = 0.0
        for (lo, hi), mass in zip(self._piece_angles, self._piece_masses):
            if angle >= hi:
                total += mass
            elif angle > lo:
                total += mass * self._band_sigma(lo, angle) / self._band_sigma(lo, hi)
        if angle > self.cap_angles[0]:
            # the outside band below polar angle `angle` lies inside the cap
            lo = self.cap_angles[0]
            hi = math.pi - self.cap_angles[0]
            frac = self._band_sigma(lo, min(angle, hi)) / self._band_sigma(lo, hi)
            total += self.outside_mass * frac
        return total

    def _sample_polar(self, rng, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """One polar angle per row in [lo_i, hi_i], with density proportional to sin^(d-2).

        A uniform angle is lo + (hi - lo) * U: the doubles and rounding of
        `rng.uniform(lo, hi)`, without its broadcast and finiteness pass.
        """
        if self.dim == 2:
            return lo + (hi - lo) * rng.random(len(lo))
        # rejection against the uniform angle, each row under its own envelope
        env = np.maximum(np.sin(lo), np.sin(hi))
        env[(lo <= math.pi / 2) & (math.pi / 2 <= hi)] = 1.0
        env **= self.dim - 2
        out = np.empty(len(lo))
        todo = np.arange(len(lo))
        while len(todo):
            t = lo[todo] + (hi[todo] - lo[todo]) * rng.random(len(todo))
            ok = rng.random(len(todo)) * env[todo] <= np.sin(t) ** (self.dim - 2)
            out[todo[ok]] = t[ok]
            todo = todo[~ok]
        return out

    def sample_batch(self, rng, n: int) -> np.ndarray:
        idx = hrng.categorical_variates(rng, self._draw_cdf, n)
        theta = self._sample_polar(rng, self._draw_lo[idx], self._draw_hi[idx])
        if self.dim == 2:
            sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            tang = sign[:, None] * self._basis[0]
        else:
            tang = _uniform_sphere(rng, n, self.dim - 1) @ self._basis
        u = np.cos(theta)[:, None] * self.axis + np.sin(theta)[:, None] * tang
        # a cap piece is one-sided: half its draws go to the antipodal cap
        flip = np.where((idx < len(self._piece_masses)) & (rng.random(n) < 0.5), -1.0, 1.0)
        return flip[:, None] * u


class Mixture:
    """Finite mixture of directional distributions."""

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        w = np.array([float(c[0]) for c in comps])
        if not (w.min() > 0 and abs(w.sum() - 1.0) <= MASS_TOL):  # fails on NaN
            raise ValueError("mixture weights must be positive and sum to 1")
        dims = {c[1].dim for c in comps}
        if len(dims) != 1:
            raise ValueError("mixture components must share a dimension")
        self.weights = w
        self._cdf = hrng.categorical_cdf(w)
        self.components = [c[1] for c in comps]
        self.dim = dims.pop()

    def sample_batch(self, rng, n: int) -> np.ndarray:
        idx = hrng.categorical_variates(rng, self._cdf, n)
        out = np.empty((n, self.dim))
        for i, comp in enumerate(self.components):
            sel = np.nonzero(idx == i)[0]
            if len(sel):
                out[sel] = comp.sample_batch(rng, len(sel))
        return out


DirectionalDistribution = Isotropic | Atomic | DensityOnSphere | CapStarved | Mixture


def _orthonormal_complement(axis: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis of the hyperplane orthogonal to axis."""
    d = len(axis)
    M = np.eye(d) - np.outer(axis, axis)
    q, r = np.linalg.qr(M)
    cols = np.argsort(-np.abs(np.diag(r)))[: d - 1]
    return q[:, sorted(cols)].T


# ---------------------------------------------------------------------------
# operations


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1].

    Built on first use, so a run that never integrates never imports
    `numpy.polynomial`.
    """
    return np.polynomial.legendre.leggauss(32)


_TWO_PI = 2.0 * math.pi
_BASE_EDGES = np.linspace(0.0, _TWO_PI, 9)  # the circle in 8 panels before any split


def _panel_integral(part, f, breaks) -> float:
    """Average of f times a continuous part's density over the circle, on panels split at the breaks."""
    cuts = np.concatenate([np.asarray(breaks, dtype=np.float64), part.breaks])
    edges = np.unique(np.concatenate([_BASE_EDGES, np.mod(cuts, _TWO_PI)]))
    half = 0.5 * np.diff(edges)
    centre = 0.5 * (edges[1:] + edges[:-1])
    nodes, weights = _gauss_legendre()
    ang = (centre[:, None] + half[:, None] * nodes).ravel()
    U = np.column_stack([np.cos(ang), np.sin(ang)])
    vals = _eval_batch(f, U)
    if part.density is not None:
        vals = vals * part.density(U)
    return float(half @ (vals.reshape(len(half), -1) @ weights)) / _TWO_PI


def _flatten(dist, weight: float = 1.0) -> list:
    """The law as (weight, part) pairs in component order, mixtures flattened.

    A component's weight is `weight * w`, outer weight first, so every sum
    over the parts adds the same products in the same order.
    """
    if not hasattr(dist, "components"):
        return [(weight, dist)]
    return [part for w, comp in zip(dist.weights, dist.components) for part in _flatten(comp, weight * w)]


def exact_parts(dist: DirectionalDistribution) -> list:
    """The law's (weight, part) pairs, each part atomic or continuous, in component order.

    This is the package's exactness rule: in d >= 3 only atomic parts have
    exact integrals, so a continuous part there raises `UnsupportedBody`.
    """
    parts = _flatten(dist)
    for _, part in parts:
        if dist.dim >= 3 and part.atoms is None:
            raise UnsupportedBody(
                f"no exact integral for the {type(part).__name__} law in d = {dist.dim}; "
                "d >= 3 supports atomic laws only"
            )
    return parts


def integrate(dist: DirectionalDistribution, f, breaks=()) -> float:
    """Integral of f against the distribution.

    f maps an (n, d) array of unit vectors to n values (ValueError on any
    other shape).  Atomic parts are exact sums; a continuous planar part
    uses 32-point Gauss-Legendre panels over a fixed partition of the
    circle, split at `breaks` (angles, taken mod 2 pi, where f may have a
    kink, such as `geom.kink_angles`) and at the part's density breaks.
    A continuous part in d >= 3 raises `UnsupportedBody` (`exact_parts`).
    """
    total = 0.0
    for weight, part in exact_parts(dist):
        if part.atoms is not None:
            total += weight * (_eval_batch(f, part.atoms) @ part.weights)
        else:
            total += weight * _panel_integral(part, f, breaks)
    return float(total)


def _support_atoms(dist) -> np.ndarray | None:
    """Every atom of a purely atomic law, in part order; None when a continuous part has full support."""
    atoms = [part.atoms for _, part in _flatten(dist)]
    return None if any(a is None for a in atoms) else np.vstack(atoms)


def nondegenerate(dist: DirectionalDistribution) -> bool:
    """Whether the support spans R^d (not concentrated on a great subsphere).

    This is the property that keeps cells of the induced hyperplane
    process bounded; it applies to the distribution as a whole, so an
    atomic component on a subsphere is fine inside a richer mixture.
    """
    atoms = _support_atoms(dist)
    return atoms is None or int(np.linalg.matrix_rank(atoms, tol=1e-9)) == dist.dim


def supports_approximation(body, dist: DirectionalDistribution) -> bool:
    """Whether supp S_(d-1)(body, .) is contained in supp(dist).

    True exactly when arbitrarily close Hausdorff approximation of the
    body by cells of the process is possible.
    """
    sm = surface_measure(body)
    atoms = _support_atoms(dist)
    if atoms is None:
        return True
    if sm.has_density:
        return False
    for normal, _ in sm.atoms:
        dev = np.linalg.norm(atoms - normal, axis=1).min()
        if dev > math.sqrt(2.0 * ANGULAR_TOL):  # chord length for angular tol
            return False
    return True


def from_surface_measure(body, mix: float = 0.0) -> DirectionalDistribution:
    """Normalized (symmetrized) surface area measure, blended with isotropic.

    The result dominates a positive multiple of the body's surface
    measure; with mix > 0 it also dominates a multiple of the uniform
    measure.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    sm = surface_measure(body)
    atom_mass = sum(w for _, w in sm.atoms)
    dens_mass = sm.sphere_density * sphere_area(sm.dim) if sm.has_density else 0.0
    total = atom_mass + dens_mass
    comps: list[tuple[float, DirectionalDistribution]] = []
    if atom_mass > 0:
        # symmetrize: surface measures of asymmetric polytopes are not even
        merged: list[tuple[np.ndarray, float]] = []
        for u, w in sm.atoms:
            for i, (v, _) in enumerate(merged):
                if np.linalg.norm(v - u) < 1e-12 or np.linalg.norm(v + u) < 1e-12:
                    merged[i] = (v, merged[i][1] + w)
                    break
            else:
                merged.append((u, w))
        axes = np.array([v for v, _ in merged])
        ws = np.array([w for _, w in merged])
        comps.append(((1.0 - mix) * atom_mass / total, Atomic.symmetrized(axes, ws)))
    iso_weight = (1.0 - mix) * dens_mass / total + mix
    if iso_weight > 0:
        comps.append((iso_weight, Isotropic(sm.dim)))
    if len(comps) == 1:
        return comps[0][1]
    return Mixture(comps)


def cap_starved(
    axis,
    eps_schedule: Callable[[int], float],
    n_max: int,
    budget: Callable[[int], float],
    radius: float = 1.0,
) -> CapStarved:
    """Even density starving the caps around one normal direction.

    Shell masses are chosen so the one-sided cap mass phi(S_n) satisfies
    2 n eps_n phi(S_n) < budget(n) for every n <= n_max, where S_n is the
    polar cap with cosine threshold radius/(radius + eps_n).  The
    remaining mass is uniform outside the largest cap, and the whole
    measure is even with full support.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    eps = np.array([float(eps_schedule(n)) for n in range(1, n_max + 1)])
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ValueError("eps schedule must be positive and strictly decreasing")
    budgets = np.array([float(budget(n)) for n in range(1, n_max + 1)])
    if np.any(budgets <= 0):
        raise InfeasibleBudget("budget must be positive for every n")
    with np.errstate(over="ignore"):
        limits = budgets / (2.0 * np.arange(1, n_max + 1) * eps)
    # conservative prefix minimum: satisfies every earlier budget too
    ceil = 0.4
    masses = 0.75 * np.minimum(np.minimum.accumulate(limits), ceil)
    # enforce strict decrease so every shell keeps positive density
    for i in range(1, n_max):
        masses[i] = min(masses[i], masses[i - 1] * (1.0 - 1e-9))
    if masses[-1] <= 0 or 2.0 * masses[0] >= 1.0:
        raise InfeasibleBudget("cap masses leave no room for a probability measure")
    angles = np.arccos(radius / (radius + eps))
    return CapStarved(axis, angles, masses, 1.0 - 2.0 * masses[0])


# ---------------------------------------------------------------------------
# serialization


def distribution_to_json(dist: DirectionalDistribution) -> dict:
    if isinstance(dist, Isotropic):
        return {"type": "isotropic", "dim": dist.dim}
    if isinstance(dist, Atomic):
        return {
            "type": "atomic",
            "atoms": dist.atoms.tolist(),
            "weights": dist.weights.tolist(),
        }
    if isinstance(dist, CapStarved):
        return {
            "type": "cap_starved",
            "axis": dist.axis.tolist(),
            "cap_angles": dist.cap_angles.tolist(),
            "cap_masses": dist.cap_masses.tolist(),
            "outside_mass": dist.outside_mass,
        }
    if isinstance(dist, Mixture):
        return {
            "type": "mixture",
            "components": [
                {"weight": float(w), "dist": distribution_to_json(c)}
                for w, c in zip(dist.weights, dist.components)
            ],
        }
    raise ValueError(f"distribution {type(dist).__name__} is not JSON-serializable")


def distribution_from_json(obj: dict) -> DirectionalDistribution:
    if not isinstance(obj, dict):  # also a mixture component's "dist"
        raise TypeError(f"a distribution must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "isotropic":
        return Isotropic(obj["dim"])
    if kind == "atomic":
        return Atomic(obj["atoms"], obj["weights"])
    if kind == "cap_starved":
        return CapStarved(obj["axis"], obj["cap_angles"], obj["cap_masses"], obj["outside_mass"])
    if kind == "mixture":
        return Mixture(
            [(c["weight"], distribution_from_json(c["dist"])) for c in obj["components"]]
        )
    raise ValueError(f"unknown distribution type {kind!r}")
