"""Invariant battery behind the `validate` CLI subcommand.

Each check exercises one module's oracle identity or distributional
property at desk scale with a fixed seed; the suite is the quick
self-diagnosis counterpart of the full pytest run.  The statistics of
the distributional checks are closed forms on NumPy and `math`: the
Kolmogorov-Smirnov distance to the uniform law over the sorted sample,
the Poisson table by its pmf recurrence, and the chi-square tail as a
finite sum for an integer number of degrees of freedom.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hypercell import cell, direction as dn, experiment, geom, metrics, process
from hypercell.rng import KeyedStream, stream

SEED = 1_000_003


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _bodies():
    square = geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    ball = geom.Ball([0, 0], 1.0)
    stadium = geom.BallSum([[-1, 0], [1, 0]], 1.0)
    return square, ball, stadium


def _cube(d: int = 3):
    return geom.Polytope(list(itertools.product((-1, 1), repeat=d)))


def run_all(verbose: bool = True) -> list[CheckResult]:
    checks = [
        _c_support_sublinear,
        _c_retraction_distance,
        _c_surface_mass,
        _c_hausdorff_dense_boundary,
        _c_integrate_constants,
        _c_atomic_bruteforce,
        _c_evenness_sign,
        _c_support_inclusion_table,
        _c_annulus_contract,
        _c_gap_uniformity,
        _c_cap_fraction,
        _c_annulus_count,
        _c_determinism,
        _c_intersection_oracle,
        _c_intersection_oracle_3d,
        _c_coupled_grid_oracle_3d,
        _c_polytope_distance_3d,
        _c_mu_closed_form_3d,
        _c_cell_contains_body,
        _c_cell_nesting,
        _c_certificate_stability,
        _c_mu_oracle_gap,
        _c_mu_monotone,
        _c_excess_ray_monotone,
    ]
    results = []
    for fn in checks:
        res = fn()
        results.append(res)
        if verbose:
            print(f"{'PASS' if res.ok else 'FAIL'}  {res.name}: {res.detail}")
    if verbose:
        bad = sum(1 for r in results if not r.ok)
        print(f"{len(results) - bad}/{len(results)} checks passed")
    return results


def _c_support_sublinear() -> CheckResult:
    rng = stream(SEED, "sublinear")
    worst = -math.inf
    for body in _bodies():
        U = rng.standard_normal((400, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        a, b = U[:200], U[200:]
        s = a + b
        ns = np.linalg.norm(s, axis=1)
        keep = ns > 1e-9
        lhs = body.support_batch(s[keep] / ns[keep, None]) * ns[keep]
        rhs = body.support_batch(a[keep]) + body.support_batch(b[keep])
        worst = max(worst, float((lhs - rhs).max()))
    return CheckResult("support sublinearity", worst <= 1e-9, f"max violation {worst:.2e}")


def _c_retraction_distance() -> CheckResult:
    rng = stream(SEED, "retract")
    worst = 0.0
    for body in (*_bodies(), _cube()):
        for eps in (0.05, 0.7):
            U = rng.standard_normal((200, body.dim))
            X = rng.uniform(1.01, 3.0, (200, 1)) * body.circumradius * U / np.linalg.norm(U, axis=1, keepdims=True)
            worst = max(worst, float(np.abs(body.distance_batch(geom.retract(body, X, eps)) - eps).max()))
    return CheckResult("offset boundary retraction distance", worst <= 1e-9, f"max |d-eps| {worst:.2e}")


def _c_surface_mass() -> CheckResult:
    square, ball, stadium = _bodies()
    targets = [(square, 8.0), (ball, 2 * math.pi), (stadium, 4 + 2 * math.pi)]
    worst = max(abs(geom.surface_measure(b).total_mass - m) for b, m in targets)
    return CheckResult("surface measure mass", worst <= 1e-9, f"max |mass err| {worst:.2e}")


def _c_hausdorff_dense_boundary() -> CheckResult:
    square, _, _ = _bodies()
    eps = 0.25
    path = geom.boundary_path(square, eps)
    pts = path.point_at(np.linspace(0, path.total, 4000, endpoint=False))
    got = geom.hausdorff_containing(square, pts, certificate=None)
    return CheckResult("dense offset boundary Hausdorff", abs(got - eps) <= 1e-6, f"{got:.8f} vs {eps}")


def _c_integrate_constants() -> CheckResult:
    square, ball, stadium = _bodies()
    dists = [
        dn.Isotropic(2),
        dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5]),
        dn.from_surface_measure(stadium, 0.25),
        dn.cap_starved([1, 0], lambda n: n**-0.25, 16, experiment._default_budget),
    ]
    worst = 0.0
    for d in dists:
        worst = max(worst, abs(dn.integrate(d, lambda U: np.ones(len(U))) - 1.0))
    return CheckResult("integrate normalization", worst <= 1e-9, f"max |mass-1| {worst:.2e}")


def _c_atomic_bruteforce() -> CheckResult:
    square, _, _ = _bodies()
    at = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.7, 0.3])
    val = dn.integrate(at, square.support_batch)
    brute = float(sum(w * square.support(u) for u, w in zip(at.atoms, at.weights)))
    return CheckResult("atomic integrate equals brute sum", abs(val - brute) <= 1e-12, f"diff {abs(val-brute):.2e}")


def _c_evenness_sign() -> CheckResult:
    rng = stream(SEED, "even")
    w = np.array([0.3, 0.95])
    w /= np.linalg.norm(w)
    worst = 0.0
    for d in (
        dn.Isotropic(2),
        dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5]),
        dn.cap_starved([1, 0], lambda n: n**-0.5, 8, experiment._default_budget),
    ):
        U = d.sample_batch(rng, 40000)
        frac = float((U @ w > 0).mean())
        worst = max(worst, abs(frac - 0.5))
    # 99% two-sided binomial bound at n=40000
    return CheckResult("evenness sign test", worst <= 2.58 * 0.5 / math.sqrt(40000), f"max |frac-1/2| {worst:.4f}")


def _c_support_inclusion_table() -> CheckResult:
    square, ball, stadium = _bodies()
    at = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])
    iso = dn.Isotropic(2)
    expected = {
        ("square", "atomic"): True,
        ("square", "isotropic"): True,
        ("ball", "atomic"): False,
        ("ball", "isotropic"): True,
        ("stadium", "atomic"): False,
        ("stadium", "isotropic"): True,
    }
    got = {}
    for bn, b in (("square", square), ("ball", ball), ("stadium", stadium)):
        for dname, d in (("atomic", at), ("isotropic", iso)):
            got[(bn, dname)] = dn.supports_approximation(b, d)
    return CheckResult("support inclusion table", got == expected, f"{sum(got[k]==expected[k] for k in expected)}/6 agree")


def _c_annulus_contract() -> CheckResult:
    rng = stream(SEED, "annulus")
    params = process.ProcessParams(3.0, dn.Isotropic(2), 2)
    ok = True
    drawn = 0
    for body in _bodies():
        for r_in, r_out in ((0.0, 0.5), (0.5, 2.0)):
            for _ in range(50):
                U, T = process.sample_annulus(params, body, r_in, r_out, rng)
                h = body.support_batch(U)
                ok &= bool(
                    np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-12)
                    and np.all(T > h + r_in)
                    and np.all(T <= h + r_out)
                )
                drawn += len(T)
    return CheckResult(
        "sample_annulus contract", ok, f"{drawn} hyperplanes: unit normals, h + r_in < t <= h + r_out"
    )


def _ks_uniform(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample in [0, 1] to the uniform law."""
    x, n = np.sort(x), len(x)
    return float(max((np.arange(1, n + 1) / n - x).max(), (x - np.arange(n) / n).max()))


def _c_gap_uniformity() -> CheckResult:
    square, _, _ = _bodies()
    rng = stream(SEED, "gap")
    params = process.ProcessParams(200.0, dn.Isotropic(2), 2)
    r_in, r_out = 0.5, 1.5
    gaps = []
    while len(gaps) < 20000:
        U, T = process.sample_annulus(params, square, r_in, r_out, rng)
        gaps.extend(((T - square.support_batch(U) - r_in) / (r_out - r_in)).tolist())
    stat = _ks_uniform(np.array(gaps[:20000]))
    crit = 1.63 / math.sqrt(20000)
    return CheckResult("sample_annulus gap uniformity (KS)", stat < crit, f"KS {stat:.5f} < {crit:.5f}")


def _c_cap_fraction() -> CheckResult:
    # the normals of an annulus follow the bare law, so each cap holds its
    # exact mass: one threshold inside the starved caps, one in the outside band
    square, _, _ = _bodies()
    law = dn.cap_starved([1, 0], lambda n: n**-0.25, 64, experiment._default_budget)
    params = process.ProcessParams(50.0, law, 2)
    rng = stream(SEED, "capfrac")
    thresholds = [math.cos(0.9), math.cos(0.5 * (law.cap_angles[0] + math.pi / 2))]
    cosines = []
    while len(cosines) < 100000:
        U, _ = process.sample_annulus(params, square, 0.0, 1.0, rng)
        cosines.extend((U @ law.axis).tolist())
    cosines = np.array(cosines)
    worst, parts = 0.0, []
    for thresh in thresholds:
        p = law.cap_mass(thresh)
        emp = float((cosines >= thresh).mean())
        sig = math.sqrt(p * (1 - p) / len(cosines))
        worst = max(worst, abs(emp - p) / sig)
        parts.append(f"|{emp:.5f}-{p:.5f}|")
    return CheckResult(
        "sample_annulus cap fraction (cap-starved)", worst <= 3.0, f"{', '.join(parts)}: {worst:.2f} sigma <= 3"
    )


def _poisson_table(mean: float, tail: float) -> np.ndarray:
    """Poisson probabilities of 0, ..., top - 1 and of top or more.

    The pmf follows p_{k+1} = p_k mean / (k + 1) up to the first top
    whose upper tail 1 - (p_0 + ... + p_top) is at most `tail`.  Needs
    exp(-mean) > 0, that is a mean below about 700.
    """
    p = [math.exp(-mean)]
    while 1.0 - sum(p) > tail:
        p.append(p[-1] * mean / len(p))
    p[-1] = 1.0 - sum(p[:-1])
    return np.array(p)


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with `dof` degrees of freedom > x), a finite sum (Abramowitz & Stegun 26.4.4-5).

    Each term is taken in the log domain: a product recurrence from
    exp(-x/2) underflows to 0 at large dof.
    """
    if x == 0:
        return 1.0
    h, s = 0.5 * x, 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    return head + sum(math.exp((k + s) * math.log(h) - h - math.lgamma(k + s + 1)) for k in range(dof // 2))


def _c_annulus_count() -> CheckResult:
    ball = geom.Ball([0, 0], 1.0)
    params = process.ProcessParams(2.0, dn.Isotropic(2), 2)
    rng = stream(SEED, "count")
    r_in, r_out = 0.5, 1.5
    mean = 2.0 * params.gamma * (r_out - r_in)
    reps = 3000
    counts = np.array([len(process.sample_annulus(params, ball, r_in, r_out, rng)[1]) for _ in range(reps)])
    # one bin per count below top, one for top and above; about 10 expected beyond top
    expected = reps * _poisson_table(mean, 10 / reps)
    top = len(expected) - 1
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    pval = _chi2_sf(float(((observed - expected) ** 2 / expected).sum()), top)
    return CheckResult(
        "sample_annulus count vs Poisson (chi-square)", pval > 0.001, f"mean {mean:g}, p={pval:.4f}"
    )


def _c_determinism() -> CheckResult:
    ball = geom.Ball([0, 0], 1.0)
    params = process.ProcessParams(10.0, dn.Isotropic(2), 2)
    Ua, Ta = process.sample_annulus(params, ball, 0.0, 1.0, stream(SEED, "det"))
    Ub, Tb = process.sample_annulus(params, ball, 0.0, 1.0, stream(SEED, "det"))
    same = np.array_equal(Ua, Ub) and np.array_equal(Ta, Tb)
    return CheckResult("sample_annulus seeded determinism", same, f"{len(Ta)} hyperplanes identical")


def _oracle_mismatches(label: str, d: int, count: int, n_max: int, box: float) -> int:
    """Seeded random instances on which the fast path and the subset oracle differ.

    Planar normals are drawn by angle, higher-dimensional ones as
    normalised Gaussians; offsets are uniform on [0.3, 2).
    """
    rng = stream(SEED, label)
    BT = np.full(2 * d, box)
    bad = 0
    for _ in range(count):
        n = int(rng.integers(4, n_max))
        if d == 2:
            th = rng.uniform(0, 2 * math.pi, n)
            U = np.column_stack([np.cos(th), np.sin(th)])
        else:
            U = rng.standard_normal((n, d))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
        T = rng.uniform(0.3, 2.0, n)
        fast = cell.halfspace_intersection(U, T, BT)
        slow = cell.halfspace_intersection_bruteforce(U, T, BT)
        if not cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7):
            bad += 1
    return bad


def _c_intersection_oracle() -> CheckResult:
    bad = _oracle_mismatches("oracle", 2, 200, 40, 50.0)
    return CheckResult("planar fast path vs subset oracle", bad == 0, f"{bad}/200 mismatches")


def _c_intersection_oracle_3d() -> CheckResult:
    bad = _oracle_mismatches("oracle3d", 3, 100, 20, 20.0)
    return CheckResult("3-d fast path vs subset oracle", bad == 0, f"{bad}/100 mismatches")


def _c_coupled_grid_oracle_3d() -> CheckResult:
    # debug_oracle checks every intersection of the builds against the subset
    # oracle, the bands inserted into the cell before them included; a small
    # first window takes 6-7 rounds, so window rings are inserted into the
    # cell and a ring past the first box starts again in a larger one
    ball = geom.Ball([0, 0, 0], 1.0)
    params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
    grid = [8.0, 16.0, 32.0]
    runs = [(None, rep) for rep in range(3)] + [(cell.WindowPolicy(initial_radius=0.05), rep) for rep in range(2)]
    bad = 0
    for policy, rep in runs:
        key = KeyedStream(SEED, "grid3d", rep)
        try:
            cell.cells_along_intensity(params, ball, grid, policy, key, debug_oracle=True)
        except AssertionError:
            bad += 1
    return CheckResult(
        "3-d coupled grid vs subset oracle", bad == 0, f"{bad}/{len(runs)} replications deviate"
    )


def _c_polytope_distance_3d() -> CheckResult:
    # the facet-by-facet kernel against max(|max(|x| - 1, 0)| - r, 0) for
    # the cube [-1, 1]^3 (r = 0), the cube + 0.25 B and the 4-cube
    worst = 0.0
    for body, r in ((_cube(), 0.0), (geom.BallSum(_cube().vertices, 0.25), 0.25), (_cube(4), 0.0)):
        X = stream(SEED, f"distance{body.dim}d").uniform(-3, 3, size=(400, body.dim))
        outside = np.linalg.norm(np.maximum(np.abs(X) - 1.0, 0.0), axis=1)
        worst = max(worst, float(np.abs(body.distance_batch(X) - np.maximum(outside - r, 0.0)).max()))
    return CheckResult("3-d and 4-d polytope distance vs closed form", worst <= 1e-12, f"max |d err| {worst:.2e}")


def _c_mu_closed_form_3d() -> CheckResult:
    # the cube's minimum lies on its facet pieces, and the 4-cube's; the
    # regular tetrahedron's on its edge pieces, where one of two atoms
    # 109.47 deg apart stops seeing y
    eps = 2.0**-4
    cube = _cube()
    tet = geom.Polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    cases = [
        (cube, dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3), eps / 6),
        (tet, dn.from_surface_measure(tet), math.sqrt(2) / 12 * eps),
        (_cube(4), dn.Atomic.symmetrized(np.eye(4), [1 / 4] * 4), eps / 8),
    ]
    worst = max(abs(metrics.mu_estimate(body, law, eps).value / want - 1.0) for body, law, want in cases)
    return CheckResult("3-d and 4-d minimal excess vs closed form", worst <= 1e-6, f"max rel err {worst:.2e}")


def _c_cell_contains_body() -> CheckResult:
    ball = geom.Ball([0, 0], 1.0)
    params = process.ProcessParams(40.0, dn.Isotropic(2), 2)
    worst = math.inf
    for rep in range(50):
        z = cell.k_cell(params, ball, stream_key=KeyedStream(SEED, "contain", rep))
        worst = min(worst, float((z.offsets - ball.support_batch(z.normals)).min()))
    return CheckResult("body inside cell (t > h)", worst > 0, f"min slack {worst:.2e}")


def _c_cell_nesting() -> CheckResult:
    square, _, _ = _bodies()
    params = process.ProcessParams(1.0, dn.Isotropic(2), 2)
    cells = cell.cells_along_intensity(params, square, [4, 16, 64], stream_key=KeyedStream(SEED, "nest"))
    ok = True
    for za, zb in zip(cells, cells[1:]):
        if len(zb.vertices) and len(za.offsets):
            ok &= bool(np.all(zb.vertices @ za.normals.T <= za.offsets + 1e-9))
    return CheckResult("cell nesting along intensities", ok, "vertex inclusion holds")


def _c_certificate_stability() -> CheckResult:
    # an extra window ring must leave every cell of a coupled grid unchanged,
    # the bands included
    ball = geom.Ball([0, 0], 1.0)
    params = process.ProcessParams(1.0, dn.Isotropic(2), 2)
    grid = [25.0, 100.0, 400.0]
    bad = 0
    for rep in range(20):
        key = KeyedStream(SEED, "cert", rep)
        a = cell.cells_along_intensity(params, ball, grid, stream_key=key)
        b = cell.cells_along_intensity(params, ball, grid, stream_key=key, extra_rings=1)
        bad += sum(not cell._vertex_sets_match(za.vertices, zb.vertices, 1e-9) for za, zb in zip(a, b))
    return CheckResult("window certificate stability", bad == 0, f"{bad}/{20 * len(grid)} cells changed")


def _c_mu_oracle_gap() -> CheckResult:
    square = geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    at = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])
    cfg = metrics.MuConfig(coarse_samples=1024)
    est = metrics.mu_estimate(square, at, 0.1, cfg)
    ev = metrics.ExcessEvaluator(square, at)
    path = geom.boundary_path(square, 0.1)
    grid = path.point_at(np.linspace(0, path.total, 200000, endpoint=False))
    oracle = float(ev.batch(grid).min())
    ok = abs(est.value - oracle) <= 1e-4 * max(oracle, 1e-300)
    return CheckResult("planar dense-grid oracle gap", ok, f"|{est.value:.8f}-{oracle:.8f}|")


def _c_mu_monotone() -> CheckResult:
    ball = geom.Ball([0, 0], 1.0)
    iso = dn.Isotropic(2)
    cfg = metrics.MuConfig(coarse_samples=512)
    vals = [metrics.mu_estimate(ball, iso, e, cfg).value for e in (0.05, 0.1, 0.2, 0.4)]
    ok = all(a < b for a, b in zip(vals, vals[1:]))
    return CheckResult("minimal excess monotone in eps", ok, f"{[round(v,6) for v in vals]}")


def _c_excess_ray_monotone() -> CheckResult:
    square = geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    iso = dn.Isotropic(2)
    rng = stream(SEED, "ray")
    ev = metrics.ExcessEvaluator(square, iso)
    ok = True
    for _ in range(50):
        th = rng.uniform(0, 2 * math.pi)
        v = np.array([math.cos(th), math.sin(th)])
        scales = [1.2, 1.5, 2.0, 3.0]
        vals = [ev.precise(s * v) for s in scales]
        ok &= all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    return CheckResult("excess monotone along rays", ok, "nondecreasing outward")
