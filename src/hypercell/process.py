"""Sampling of stationary Poisson hyperplane processes.

Hyperplanes use the positive-offset parametrization: H(u, t) is the set
of points with <x, u> = t for a unit normal u and t > 0, which is unique
for hyperplanes avoiding the origin.  A sample is a pair of arrays
(normals, offsets): the rows of the (n, d) normals U with the n offsets
T, one hyperplane per row.  The intensity measure restricted
to hyperplanes hitting a body W has total mass Phi(W) (see
`phi_functional`).  `sample_annulus` restricts to hyperplanes hitting
K + r_out*B but missing K + r_in*B; the support gap of these two
parallel bodies is the constant r_out - r_in, so it needs only the body
K and the two distances, and its normals follow the bare directional
law.  Coupling across intensities (the process at a higher intensity is
the one at a lower intensity plus an independent band of the increment)
lives in `cell.cells_along_intensity`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hypercell import direction as dn
from hypercell import geom
from hypercell.errors import AnnulusOverflow, OriginOutside
from hypercell.rng import poisson_variate

__all__ = [
    "ProcessParams",
    "phi_functional",
    "sample_annulus",
]

# Largest Poisson mean `sample_annulus` draws; a bundled ring holds about 1e3 hyperplanes.
MAX_ANNULUS_MEAN = 2**24


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

    def __post_init__(self):
        _check_intensity(self.gamma)
        if self.dist.dim != self.dim:
            raise ValueError("distribution dimension does not match process dimension")
        if not dn.nondegenerate(self.dist):
            raise ValueError("directional distribution is concentrated on a great subsphere")

    def with_gamma(self, gamma: float) -> "ProcessParams":
        """The same law at intensity gamma; only the new intensity needs checking."""
        _check_intensity(gamma)
        out = object.__new__(ProcessParams)
        out.__dict__.update(self.__dict__, gamma=gamma)  # skips __post_init__ and its law checks
        return out


def _check_intensity(gamma) -> None:
    if not gamma > 0:  # a NaN intensity fails too
        raise ValueError(f"intensity must be positive, got {gamma}")


def _require_interior_origin(body) -> None:
    if body.inradius_origin() <= 0:
        raise OriginOutside("body must contain the origin in its interior")


def phi_functional(params: ProcessParams, body) -> float:
    """Expected number of process hyperplanes hitting the body.

    Equals 2 * gamma * integral of the support function against the
    directional distribution (`direction.integrate`, so a continuous law
    in d >= 3 raises `UnsupportedBody`).
    """
    _require_interior_origin(body)
    breaks = geom.kink_angles(body) if body.dim == 2 else ()
    return 2.0 * params.gamma * dn.integrate(params.dist, body.support_batch, breaks=breaks)


def sample_annulus(params: ProcessParams, body, r_in: float, r_out: float, rng):
    """Poisson sample of hyperplanes between body + r_in*B and body + r_out*B.

    Returns (normals, offsets) with offsets in (h(body, u) + r_in,
    h(body, u) + r_out].  The support gap is the constant r_out - r_in,
    so the mass is 2 * gamma * (r_out - r_in) and the normals follow the
    bare directional law.  Needs 0 <= r_in < r_out, both finite.  A mass
    above MAX_ANNULUS_MEAN raises `AnnulusOverflow` before anything is
    drawn.
    """
    if not (0.0 <= r_in < r_out < np.inf):
        raise ValueError(f"annulus radii must satisfy 0 <= r_in < r_out < inf, got {r_in}, {r_out}")
    _require_interior_origin(body)
    mean = 2.0 * params.gamma * (r_out - r_in)
    if mean > MAX_ANNULUS_MEAN:
        raise AnnulusOverflow(
            f"annulus ({r_in:g}, {r_out:g}] at intensity {params.gamma:g} has a Poisson mean of "
            f"{mean:g} hyperplanes, above the budget of {MAX_ANNULUS_MEAN}"
        )
    n = poisson_variate(rng, mean)
    if n == 0:
        return np.empty((0, params.dim)), np.empty(0)
    U = params.dist.sample_batch(rng, n)
    h = body.support_batch(U)
    h_in = h + r_in
    h_out = h + r_out
    t = h_out - (h_out - h_in) * rng.random(n)  # uniform on (h_in, h_out]
    return U, t
