"""Acceptance suite: one test per criterion, fixed seeds, pinned tolerances.

Each test prints a PASS/FAIL line (visible with -s or in failure output)
in addition to its assertions, so the suite doubles as a report.
"""
import json
import math
import time

import numpy as np
import pytest

from hypercell import cell, direction as dn, experiment as ex, geom, metrics, process
from hypercell.cli import dispatch
from hypercell.rng import KeyedStream, stream

from oracles import ball_excess_oracle, dense_boundary_minimum, square_mean_support_oracle


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def square():
    return geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])


@pytest.fixture(scope="module")
def ball():
    return geom.Ball([0, 0], 1.0)


@pytest.fixture(scope="module")
def stadium():
    return geom.BallSum([[-1, 0], [1, 0]], 1.0)


@pytest.fixture(scope="module")
def iso():
    return dn.Isotropic(2)


@pytest.fixture(scope="module")
def facet_atoms():
    return dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])


RATE_GRID = [2**k for k in range(8, 16)]


def test_criterion_01_geometry_oracle():
    rng = stream(101, "accept-oracle")
    box = np.full(4, 50.0)
    t0 = time.time()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        th = rng.uniform(0, 2 * math.pi, n)
        U = np.column_stack([np.cos(th), np.sin(th)])
        T = rng.uniform(0.3, 2.0, n)
        fast = cell.halfspace_intersection(U, T, box)
        slow = cell.halfspace_intersection_bruteforce(U, T, box)
        if not cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(1, ok, f"{mismatches}/1000 mismatches, {elapsed:.1f}s (< 10 s)")


def test_criterion_02_phi_closed_forms(ball, square, iso):
    errs = []
    for gamma, r in [(1.0, 1.0), (3.5, 1.0), (2.0, 0.5)]:
        params = process.ProcessParams(gamma, iso, 2)
        got = process.phi_functional(params, geom.Ball([0, 0], r))
        errs.append(abs(got - 2 * gamma * r))
    ball_err = max(errs)
    oracle = square_mean_support_oracle()  # equals 4/pi
    got_sq = process.phi_functional(process.ProcessParams(1.0, iso, 2), square)
    sq_err = abs(got_sq - 2 * oracle)
    ok = ball_err <= 1e-9 and sq_err <= 1e-6
    assert report(2, ok, f"ball err {ball_err:.2e} (<=1e-9), square err {sq_err:.2e} (<=1e-6, 8/pi)")


def test_criterion_03_excess_value(ball, iso):
    oracle = ball_excess_oracle(1.0, 2.0)
    got = metrics.excess(ball, iso, [2.0, 0.0])
    err = abs(got - 0.21800)
    ok = err <= 1e-4 and abs(got - oracle) <= 1e-9
    assert report(3, ok, f"excess {got:.6f} vs 0.21800 (err {err:.2e} <= 1e-4)")


def test_criterion_04_mu_exactness(square, facet_atoms):
    est = metrics.mu_estimate(square, facet_atoms, 0.1)
    ev = metrics.ExcessEvaluator(square, facet_atoms)
    path = geom.boundary_path(square, 0.1)
    oracle = dense_boundary_minimum(ev, path, n=1_000_000)
    err = abs(est.value - 0.025)
    gap = abs(est.value - oracle)
    ok = err <= 1e-6 and gap <= 1e-4 * oracle
    assert report(4, ok, f"mu {est.value:.9f} vs 0.025 (err {err:.2e} <= 1e-6, oracle gap {gap:.2e})")


def test_criterion_05_mu_scaling_slopes(ball, square, iso, facet_atoms):
    grid = [2.0**-k for k in range(10, 3, -1)]
    t0 = time.time()
    s1 = metrics.mu_scaling(ball, iso, grid).slope
    s2 = metrics.mu_scaling(square, facet_atoms, grid).slope
    s3 = metrics.mu_scaling(square, iso, grid).slope
    elapsed = time.time() - t0
    ok = (
        abs(s1 - 1.5) <= 0.15
        and abs(s2 - 1.0) <= 0.1
        and abs(s3 - 2.0) <= 0.2
        and elapsed < 120.0
    )
    assert report(
        5,
        ok,
        f"slopes ball+iso {s1:.3f} (1.5+-0.15), square+atomic {s2:.3f} (1.0+-0.1), "
        f"square+iso {s3:.3f} (2.0+-0.2), {elapsed:.0f}s (< 120 s)",
    )


@pytest.fixture(scope="module")
def rate_results(square, ball, iso, facet_atoms):
    t0 = time.time()
    r_atomic = ex.run_rate(ex.RateRunConfig(square, facet_atoms, RATE_GRID, reps=100, seed=42))
    r_ball = ex.run_rate(ex.RateRunConfig(ball, iso, RATE_GRID, reps=100, seed=42))
    r_square_iso = ex.run_rate(ex.RateRunConfig(square, iso, RATE_GRID, reps=100, seed=42))
    return r_atomic, r_ball, r_square_iso, time.time() - t0


def test_criterion_06_rate_exponents(rate_results):
    r_atomic, r_ball, _, elapsed = rate_results
    s_atomic = r_atomic.fit.slope
    s_ball = r_ball.fit.slope
    # the < 3 min @ 8 threads clause is not checkable on this 2-core box;
    # the single-threaded bound is the binding one
    ok = 0.8 <= s_atomic <= 1.2 and 0.55 <= s_ball <= 0.79 and elapsed < 900.0
    assert report(
        6,
        ok,
        f"square+atomic slope {s_atomic:.3f} in [0.8,1.2], ball+iso slope {s_ball:.3f} "
        f"in [0.55,0.79], {elapsed:.0f}s (< 900 s single-threaded)",
    )


def test_criterion_07_generic_rate_ratio_bounded(rate_results):
    _, _, r_square_iso, _ = rate_results
    ratios = [
        e["median_delta"] / math.sqrt(math.log(e["n"]) / e["n"]) for e in r_square_iso.per_n
    ]
    half = len(ratios) // 2
    upper_max = max(ratios[half:])
    bound = 1.5 * ratios[half]
    ok = upper_max <= bound
    assert report(7, ok, f"max ratio upper half {upper_max:.4f} <= 1.5 x midpoint {bound:.4f}")


def test_criterion_08_tail_decay(ball, iso):
    t0 = time.time()
    cfg = ex.TailRunConfig(ball, iso, 0.3, list(range(2, 21, 2)), reps=10_000, seed=3)
    res = ex.run_tail(cfg)
    elapsed = time.time() - t0
    ps = [e["p_hat"] for e in res.per_n]
    monotone = all(a >= b for a, b in zip(ps, ps[1:]))
    slope_neg = res.fit.slope < 0
    r2 = res.fit.r_squared
    ok = monotone and slope_neg and r2 >= 0.9 and elapsed < 300.0
    report(
        8,
        ok,
        f"monotone={monotone}, slope {res.fit.slope:.5f} < 0: {slope_neg}, "
        f"r2 {r2:.3f} (>= 0.9), {elapsed:.0f}s (< 300 s)",
    )
    if not (r2 >= 0.9) and monotone and slope_neg:
        pytest.fail(
            "r^2 clause unattainable at the stated grid: at eps=0.3 the "
            "exceedance probability only falls to ~0.95 by gamma=20, so "
            "log-P is still convex (pre-asymptotic); measured r^2 "
            f"{r2:.3f} across seeds 0.78-0.84. The exponential regime "
            "appears for gamma in [20, 120], where the same fit gives "
            "r^2 ~ 0.98. Criterion kept as stated rather than regridded."
        )
    assert ok


def test_criterion_09_coupling_monotone(ball, iso):
    params = process.ProcessParams(1.0, iso, 2)
    grid = [2**k for k in range(4, 11)]
    violations = 0
    for rep in range(100):
        cells = cell.cells_along_intensity(params, ball, grid, stream_key=KeyedStream(909, rep))
        ds = [metrics.hausdorff_cell(ball, z) for z in cells]
        violations += sum(1 for a, b in zip(ds, ds[1:]) if b > a)
    ok = violations == 0
    assert report(9, ok, f"{violations} monotonicity violations in 100 coupled runs (need 0)")


def test_criterion_10_counterexample(ball):
    grid = [4, 16, 64, 256]
    res = ex.run_counterexample(
        ex.CounterexampleConfig(ball, 0.25, grid, reps=2000, seed=77)
    )
    failures = []
    for e in res.per_n:
        n = e["n"]
        q = 1 - n**-2
        sigma = math.sqrt(q * (1 - q) / e["count"]) if 0 < q < 1 else 0.0
        if e["exceed_freq"] < q - 3 * sigma:
            failures.append((n, e["exceed_freq"], q - 3 * sigma))
    control = ex.run_counterexample(
        ex.CounterexampleConfig(ball, 0.25, grid, reps=2000, seed=77, control=True)
    )
    control_freq = control.per_n[-1]["exceed_freq"]
    ok = not failures and control_freq < 0.5
    assert report(
        10,
        ok,
        f"starved law freq >= 1-n^-2-3sigma at all n (violations: {failures}), "
        f"isotropic control freq at n=256: {control_freq:.3f} (< 0.5)",
    )


def test_criterion_11_support_inclusion_table(square, ball, stadium, iso, facet_atoms):
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
        for dname, d in (("atomic", facet_atoms), ("isotropic", iso)):
            got[(bn, dname)] = dn.supports_approximation(b, d)
    ok = got == expected
    assert report(11, ok, f"{sum(got[k] == expected[k] for k in expected)}/6 entries match")


def test_criterion_12_reproducibility(tmp_path):
    configs = {
        "rate": {
            "body": {"type": "ball", "center": [0, 0], "radius": 1.0},
            "distribution": {"type": "isotropic", "dim": 2},
            "n_grid": [16, 64, 256],
            "reps": 25,
            "seed": 1234,
        },
        "tail": {
            "body": {"type": "ball", "center": [0, 0], "radius": 1.0},
            "distribution": {"type": "isotropic", "dim": 2},
            "eps": 0.5,
            "gamma_grid": [2, 8, 32],
            "reps": 100,
            "seed": 1234,
        },
        "counterexample": {
            "body": {"type": "ball", "center": [0, 0], "radius": 1.0},
            "beta": 0.25,
            "n_grid": [4, 16],
            "reps": 50,
            "seed": 1234,
        },
    }
    all_equal = True
    details = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            rc = dispatch([name, "--config", str(path), "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for suffix in ("csv", "json"):
            b1 = (outs[0] / f"{name}.{suffix}").read_bytes()
            b2 = (outs[1] / f"{name}.{suffix}").read_bytes()
            same = b1 == b2
            all_equal &= same
            details.append(f"{name}.{suffix}:{'=' if same else '!'}")
    assert report(12, all_equal, " ".join(details))
