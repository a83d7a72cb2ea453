"""Correctness checks, computed apart from the package.

Support functions and distances come from closed forms over the config
JSON (not from hypercell's body classes), cell vertices are recomputed
with `scipy.spatial.HalfspaceIntersection`, excess integrals with
`scipy.integrate.quad`, and slopes with `numpy.polyfit`.  They run after
the timed section: the cell checks on the cells of one round, the others
on the outputs of every round.

The per-operation checks return the operations they failed
(replications, or eps indices for `mu`) with one message each; a failed
operation counts in `failed`.  The other checks return messages for
failures that are not tied to one operation, which make a run incorrect.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, HalfspaceIntersection

SET_TOL = 1e-9  # vertex set distance against qhull
NEST_TOL = 1e-9


class RefBody:
    """Closed-form support and distance for the bodies the workloads use."""

    def __init__(self, spec: dict):
        self.kind = spec["type"]
        if self.kind == "ball":
            self.dim = len(spec["center"])
            self.radius = float(spec["radius"])
            self.core = np.zeros((1, self.dim))
        else:
            V = np.asarray(spec["vertices"], dtype=np.float64)
            self.core = V - V.mean(axis=0)  # the package recentres bodies on the origin
            self.dim = V.shape[1]
            self.radius = float(spec.get("radius", 0.0))
        if self.kind == "polytope":
            if self.dim != 2:
                raise ValueError("reference distance covers planar polytopes only")
            self.ring = self.core[ConvexHull(self.core).vertices]  # counter-clockwise

    def support(self, U: np.ndarray) -> np.ndarray:
        return (U @ self.core.T).max(axis=1) + self.radius

    def distance(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "ball":
            return np.maximum(np.linalg.norm(X, axis=1) - self.radius, 0.0)
        if self.kind == "polytope":
            P, Q = self.ring, np.roll(self.ring, -1, axis=0)
            edge = np.min([_segment_distance(X, a, b) for a, b in zip(P, Q)], axis=0)
            E = Q - P
            cross = E[:, 0] * (X[:, 1:2] - P[:, 1]) - E[:, 1] * (X[:, 0:1] - P[:, 0])
            return np.where((cross >= 0.0).all(axis=1), 0.0, edge)
        if len(self.core) != 2:
            raise ValueError("reference distance covers segment-core ball sums only")
        return np.maximum(_segment_distance(X, *self.core) - self.radius, 0.0)

    @property
    def half_diameter(self) -> float:
        spread = np.linalg.norm(self.core[:, None] - self.core[None, :], axis=2).max()
        return 0.5 * float(spread) + self.radius


def _segment_distance(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    e = b - a
    t = np.clip((X - a) @ e / (e @ e), 0.0, 1.0)
    return np.linalg.norm(X - a - t[:, None] * e, axis=1)


def _set_distance(A: np.ndarray, B: np.ndarray) -> float:
    if len(A) == 0 or len(B) == 0:
        return 0.0 if len(A) == len(B) else math.inf
    D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def cell_errors(ref: RefBody, z) -> list[str]:
    """Containment, window certificate and vertex set of one cell."""
    errs = []
    if len(z.vertices) == 0:
        return ["cell has no vertices"]
    h = ref.support(z.normals)
    if np.any(z.offsets <= h):
        errs.append("an active halfspace cuts the body")
    if np.any(ref.distance(z.vertices) >= z.window_radius):
        errs.append("a vertex lies outside the certified window")
    hs = HalfspaceIntersection(np.column_stack([z.normals, -z.offsets]), np.zeros(ref.dim))
    gap = _set_distance(z.vertices, hs.intersections)
    if gap > SET_TOL:
        errs.append(f"vertex set differs from qhull by {gap:.3g}")
    return errs


def check_records(records) -> tuple[set, list[str]]:
    """Coupled distances in the CSV must not increase with intensity."""
    failed, notes = set(), []
    by_rep: dict[int, list] = {}
    for r in records:
        by_rep.setdefault(r.rep, []).append(r.delta)
    for rep, deltas in by_rep.items():
        if any(b > a for a, b in zip(deltas, deltas[1:])):
            failed.add(rep)
            notes.append(f"rep {rep}: coupled distances increase with intensity")
    return failed, notes


def check_cells(ref: RefBody, captured, records) -> tuple[set, list[str]]:
    """Per-replication checks on every cell of a coupled-grid run.

    Cells along the grid must nest, and each CSV distance must equal the
    closed-form largest vertex distance.
    """
    failed, notes = set(), []
    by_rep: dict[int, list] = {}
    for r in records:
        by_rep.setdefault(r.rep, []).append(r.delta)
    for args, cells in captured:
        rep = args[4].key[1]
        errs = []
        for z in cells:
            errs += cell_errors(ref, z)
        for outer, inner in zip(cells, cells[1:]):
            slack = inner.vertices @ outer.normals.T - outer.offsets
            if slack.max() > NEST_TOL * (1.0 + np.abs(outer.offsets).max()):
                errs.append("a cell leaves the cell of the level before it")
        deltas = by_rep.get(rep, [])
        exact = [float(ref.distance(z.vertices).max()) for z in cells]
        if len(deltas) != len(exact) or any(
            abs(d - e) > 1e-12 * (1.0 + e) for d, e in zip(deltas, exact)
        ):
            errs.append("CSV distances differ from the closed-form vertex distances")
        if errs:
            failed.add(rep)
            notes.append(f"rep {rep}: {'; '.join(sorted(set(errs)))}")
    return failed, notes


def check_poisson(ref: RefBody, cfg, records) -> list[str]:
    """Sampled hyperplane counts against their Poisson masses, 5 sigma.

    A replication certified in round 1 sampled one annulus of gap rho0
    (the first window radius), so its count at gamma_max is Poisson with
    mass 2 gamma_max rho0.  Independently of the round count, hyperplanes
    born in (gamma_1, gamma_max] are a thinning that the certificate
    (decided at gamma_1) never sees, so their count is Poisson with mass
    2 (gamma_max - gamma_1) rho over the final window radius rho.
    """
    notes = []
    g1, gmax = float(cfg.n_grid[0]), float(cfg.n_grid[-1])
    first = {r.rep: r for r in records if r.n == g1 and not r.overflow}
    last = {r.rep: r for r in records if r.n == gmax and not r.overflow}
    rho0 = cfg.policy.initial_radius or ref.half_diameter
    growth = cfg.policy.growth_factor

    def compare(what, total, mass):
        if abs(total - mass) > 5.0 * math.sqrt(mass):
            notes.append(f"{what}: {total} hyperplanes against Poisson mass {mass:.1f}")

    round1 = [r for r in last.values() if r.rounds == 1]
    if round1:
        compare("round-1 replications at gamma_max", sum(r.hyperplanes for r in round1),
                len(round1) * 2.0 * gmax * rho0)
    if len(cfg.n_grid) > 1 and last:
        compare("births above gamma_1",
                sum(r.hyperplanes - first[k].hyperplanes for k, r in last.items()),
                sum(2.0 * (gmax - g1) * rho0 * growth ** (r.rounds - 1) for r in last.values()))
    return notes


def check_tail(cfg, result) -> list[str]:
    notes = []
    p = [e["p_hat"] for e in result.per_n]
    if any(b > a for a, b in zip(p, p[1:])):
        notes.append(f"p_hat increases along the grid: {p}")
    eps = cfg.eps
    a = math.acos(1.0 / (1.0 + eps))
    exact = ((1.0 + eps) * math.sin(a) - a) / math.pi
    ref = result.extras.get("mu_reference")
    if ref is None:
        notes.append("no mu_reference in the tail output")
    elif abs(ref["mu"] - exact) > 1e-9 * exact:
        notes.append(f"mu_reference {ref['mu']!r} != closed form {exact!r}")
    return notes


def check_counterexample(result) -> list[str]:
    notes = []
    for e in result.per_n:
        p0 = 1.0 - e["n"] ** -2.0
        floor = p0 - 3.0 * math.sqrt(p0 * (1.0 - p0) / e["count"])
        if not e["exceed_freq"] >= floor:
            notes.append(f"n={e['n']:g}: exceed_freq {e['exceed_freq']} < {floor:.4f}")
    return notes


def _excess_quad(ref: RefBody, spec: dict, y: np.ndarray) -> float:
    """Support excess of y under the config's planar law, by quad."""

    def gap(th):
        u = np.array([[math.cos(th), math.sin(th)]])
        return float(u[0] @ y - ref.support(u)[0])

    def continuous(weight):
        n = y - _nearest_core(ref, y)
        th0 = math.atan2(n[1], n[0])
        lo = brentq(gap, th0 - math.pi, th0, xtol=1e-15, rtol=1e-15)
        hi = brentq(gap, th0, th0 + math.pi, xtol=1e-15, rtol=1e-15)
        kinks = [k for k in _kink_angles(ref, th0) if lo < k < hi]
        val, _ = quad(lambda th: max(gap(th), 0.0), lo, hi, points=kinks or None,
                      epsabs=0.0, epsrel=1e-12, limit=200)
        return weight * val / (2.0 * math.pi)

    def part(dist, weight):
        kind = dist["type"]
        if kind == "isotropic":
            return continuous(weight)
        if kind == "atomic":
            A = np.asarray(dist["atoms"], dtype=np.float64)
            w = np.asarray(dist["weights"], dtype=np.float64)
            return weight * float(np.maximum(A @ y - ref.support(A), 0.0) @ w)
        if kind == "mixture":
            return sum(part(c["dist"], weight * c["weight"]) for c in dist["components"])
        raise ValueError(f"no reference excess for {kind!r}")

    return part(spec["distribution"], 1.0)


def _nearest_core(ref: RefBody, y: np.ndarray) -> np.ndarray:
    if len(ref.core) == 1:
        return ref.core[0]
    a, b = ref.core[:2]
    e = b - a
    return a + np.clip((y - a) @ e / (e @ e), 0.0, 1.0) * e


def _kink_angles(ref: RefBody, th0: float) -> list[float]:
    """Directions where the support function of the core is not smooth."""
    if len(ref.core) != 2:
        return []
    e = ref.core[1] - ref.core[0]
    base = math.atan2(e[0], -e[1])  # normal of the segment
    out = []
    for k in range(-2, 3):
        out += [base + k * math.pi]
    return [a for a in out if abs(a - th0) < 2 * math.pi]


def check_mu(label: str, spec: dict, sweep) -> tuple[set, list[str], list[str]]:
    """Exact eps/4 on the square; quad agreement and offset on stadiums; slopes."""
    ref = RefBody(spec["body"])
    failed, op_notes, notes = set(), [], []
    atomic_square = ref.kind == "polytope" and spec["distribution"]["type"] == "atomic"
    for i, (eps, est) in enumerate(zip(sweep.eps, sweep.estimates)):
        if est is None:
            failed.add(i)
            op_notes.append(f"{label} eps={eps:.4g}: {sweep.errors[i]}")
            continue
        y = np.asarray(est.argmin_point, dtype=np.float64)
        if atomic_square:
            ok = abs(est.value - eps / 4.0) <= 1e-9 * eps / 4.0
            why = f"mu {est.value!r} != eps/4"
        else:
            off = float(ref.distance(y[None, :])[0])
            q = _excess_quad(ref, spec, y)
            ok = abs(off - eps) <= 1e-9 * eps and abs(est.value - q) <= 1e-6 * q
            why = f"mu {est.value!r} vs quad {q!r}, argmin offset {off!r}"
        if not ok:
            failed.add(i)
            op_notes.append(f"{label} eps={eps:.4g}: {why}")
    good = [(math.log(e), math.log(s.value)) for e, s in zip(sweep.eps, sweep.estimates)
            if s is not None]
    slope = float(np.polyfit([x for x, _ in good], [v for _, v in good], 1)[0])
    if ref.kind == "ballsum":
        target, tol = (1.5, 0.15) if spec["distribution"]["type"] == "mixture" else (2.0, 0.2)
        if abs(slope - target) > tol:
            notes.append(f"{label}: slope {slope:.4f} outside {target}+-{tol}")
    return failed, op_notes, notes
