"""Poisson hyperplane processes and K-cells of convex bodies.

Simulation library for stationary Poisson hyperplane processes with a
prescribed directional distribution: exact cell construction around a
convex body, separation diagnostics, and Monte Carlo harnesses for
Hausdorff-distance convergence rates, exponential tail decay, and the
cap-starved counterexample law.

A process sample is a pair of arrays (unit normals, offsets), as
returned by `sample_annulus`.  The planar geometry kernels are plain
NumPy (`hypercell._kernels`); `hypercell.kernel_backend()` names them
for run stamps.
"""
from hypercell.cell import (
    CellPolytope,
    WindowPolicy,
    cells_along_intensity,
    halfspace_intersection,
    halfspace_intersection_bruteforce,
    k_cell,
)
from hypercell.direction import (
    Atomic,
    CapStarved,
    DensityOnSphere,
    Isotropic,
    Mixture,
    cap_starved,
    from_surface_measure,
    integrate,
    supports_approximation,
)
from hypercell.experiment import (
    CounterexampleConfig,
    RateRunConfig,
    TailRunConfig,
    persist,
    run_counterexample,
    run_rate,
    run_tail,
)
from hypercell.geom import (
    Ball,
    BallSum,
    Polytope,
    boundary_path,
    distance,
    extension_support,
    hausdorff_containing,
    support,
    surface_measure,
)
from hypercell.metrics import (
    MuConfig,
    excess,
    fit_loglog,
    hausdorff_cell,
    mu_estimate,
    mu_scaling,
)
from hypercell.process import (
    ProcessParams,
    phi_functional,
    sample_annulus,
)
from hypercell.rng import KeyedStream, poisson_variate, stream

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the geometry kernel backend; always "pure" (NumPy)."""
    return "pure"
