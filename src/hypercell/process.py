"""Sampling of stationary Poisson hyperplane processes.

Hyperplanes use the positive-offset parametrization: H(u, t) is the set
of points with <x, u> = t for a unit normal u and t > 0, which is unique
for hyperplanes avoiding the origin.  A sample is a pair of arrays
(normals, offsets): the rows of the (n, d) normals U with the n offsets
T, one hyperplane per row.  The intensity measure restricted
to hyperplanes hitting a body W has total mass Phi(W) (see
`phi_functional`) and factorizes into a direction law weighted by the
support function and a uniform offset, which is how `sample_hitting`
draws exact samples.  `sample_annulus` restricts to hyperplanes hitting
an outer window but missing an inner one.  Coupling across intensities
(the process at a higher intensity is the one at a lower intensity plus
an independent band of the increment) lives in
`cell.cells_along_intensity`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hypercell import direction as dn
from hypercell import geom
from hypercell.errors import NotNested, OriginOutside
from hypercell.rng import poisson_variate

__all__ = [
    "ProcessParams",
    "phi_functional",
    "sample_hitting",
    "sample_annulus",
]


@dataclass(frozen=True)
class ProcessParams:
    """Intensity and directional law of the process.

    gamma > 0 is enforced; the tail-bound comparisons additionally assume
    gamma >= 1, which is left to callers.  The directional distribution
    must not concentrate on a great subsphere, else cells are unbounded.
    """

    gamma: float
    dist: object
    dim: int
    integration: dn.IntegrationConfig = field(default_factory=dn.IntegrationConfig)

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"intensity must be positive, got {self.gamma}")
        if self.dist.dim != self.dim:
            raise ValueError("distribution dimension does not match process dimension")
        if not dn.nondegenerate(self.dist):
            raise ValueError("directional distribution is concentrated on a great subsphere")

    def with_gamma(self, gamma: float) -> "ProcessParams":
        return ProcessParams(gamma, self.dist, self.dim, self.integration)


def _require_interior_origin(body) -> None:
    if body.inradius_origin() <= 0:
        raise OriginOutside("body must contain the origin in its interior")


def phi_functional(params: ProcessParams, body, cfg: dn.IntegrationConfig | None = None) -> float:
    """Expected number of process hyperplanes hitting the body.

    Equals 2 * gamma * integral of the support function against the
    directional distribution.
    """
    _require_interior_origin(body)
    res = dn.integrate(params.dist, body.support_batch, cfg or params.integration)
    return 2.0 * params.gamma * res.value


# ---------------------------------------------------------------------------
# direction sampling weighted by support-function gaps


def _weighted_directions(dist, weight_fn, envelope: float, rng, n: int) -> np.ndarray:
    """Draw n directions from weight_fn(u) * dist(du) / const by rejection."""
    if isinstance(dist, dn.Atomic):
        w = weight_fn(dist.atoms) * dist.weights
        total = w.sum()
        if total <= 0:
            raise ValueError("direction weights vanish on all atoms")
        idx = rng.choice(len(w), size=n, p=w / total)
        return dist.atoms[idx]
    return dn._rejection_batch(
        rng,
        n,
        lambda r, m: dist.sample_batch(r, m),
        lambda U: weight_fn(U) / envelope,
    )


def sample_hitting(params: ProcessParams, window, rng):
    """Poisson sample of the process restricted to hyperplanes hitting window.

    Returns (normals, offsets): an (n, d) array of unit normals and an
    (n,) array of offsets in (0, h(window, u)].
    """
    _require_interior_origin(window)
    mass = phi_functional(params, window)
    n = poisson_variate(rng, mass)
    if n == 0:
        return np.empty((0, params.dim)), np.empty(0)
    U = _weighted_directions(
        params.dist, window.support_batch, window.circumradius, rng, n
    )
    h = window.support_batch(U)
    t = h * (1.0 - rng.random(n))  # uniform on (0, h]
    return U, t


def sample_annulus(params: ProcessParams, inner, outer, rng):
    """Poisson sample of hyperplanes hitting `outer` while missing `inner`.

    Returns (normals, offsets) with offsets in (h(inner, u), h(outer, u)].
    Raises NotNested unless the inner support function is dominated by
    the outer one.  When `outer` is an outer parallel body of `inner`
    the support gap is constant and sampling accepts every proposal.
    """
    _require_interior_origin(inner)
    gap = geom.parallel_gap(inner, outer)
    if gap is None:
        _check_nested(inner, outer)
        mass = phi_functional(params, outer) - phi_functional(params, inner)
    else:
        mass = 2.0 * params.gamma * gap
    n = poisson_variate(rng, max(mass, 0.0))
    if n == 0:
        return np.empty((0, params.dim)), np.empty(0)
    if gap is not None:
        # constant support gap: direction law is the bare distribution
        U = params.dist.sample_batch(rng, n)
    else:
        envelope = outer.circumradius - inner.inradius_origin()

        def weight(V):
            return outer.support_batch(V) - inner.support_batch(V)

        U = _weighted_directions(params.dist, weight, envelope, rng, n)
    h_in = inner.support_batch(U)
    h_out = outer.support_batch(U)
    t = h_out - (h_out - h_in) * rng.random(n)  # uniform on (h_in, h_out]
    return U, t


def _check_nested(inner, outer, probes: int = 512) -> None:
    U = _probe_directions(inner.dim, probes)
    if np.any(inner.support_batch(U) > outer.support_batch(U) + 1e-12):
        raise NotNested("inner window support exceeds outer window support")


def _probe_directions(dim: int, n: int) -> np.ndarray:
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    g = np.random.Generator(np.random.Philox(key=7)).standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)
