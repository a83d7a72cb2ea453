"""Seeded Monte Carlo harnesses and persistence.

Three experiment families: convergence-rate runs (cells along an
increasing intensity grid, median Hausdorff distances fitted against the
normalizing sequence log(n)/n), tail runs (exceedance probabilities of a
fixed offset across intensities), and the cap-starved counterexample
(frequencies of the distance staying above a prescribed schedule).

Replications are independent tasks keyed by (seed, rep); aggregation is
a deterministic fold in rep order, so results do not depend on thread
scheduling, and a rerun with the same seed reproduces output files
byte for byte.
"""
from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from hypercell import direction as dn
from hypercell import geom, metrics
from hypercell.cell import WindowPolicy, cells_along_intensity
from hypercell.errors import AllZeroTail, ConfigError, UnsupportedBody, WindowOverflow
from hypercell.metrics import FitResult, fit_loglog
from hypercell.process import ProcessParams
from hypercell.rng import KeyedStream, is_count

__all__ = [
    "RateRunConfig",
    "TailRunConfig",
    "CounterexampleConfig",
    "FitResult",
    "RunRecord",
    "ExperimentResult",
    "run_rate",
    "run_tail",
    "run_counterexample",
    "fit_loglog",
    "persist",
    "read_records",
]

CSV_HEADER = ["rep", "n", "delta", "hyperplanes", "rounds", "overflow"]


@dataclass(frozen=True)
class RunRecord:
    rep: int
    n: float
    delta: float  # nan when the replication overflowed
    hyperplanes: int
    rounds: int
    overflow: int

    def row(self) -> list:
        return [self.rep, self.n, self.delta, self.hyperplanes, self.rounds, self.overflow]


@dataclass(frozen=True)
class RateRunConfig:
    body: object
    distribution: object
    n_grid: tuple
    reps: int
    seed: int
    expected_exponent: float | None = None
    policy: WindowPolicy = field(default_factory=WindowPolicy)
    debug_oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _increasing_grid("n_grid", self.n_grid))
        _require_counts(self.reps, self.seed)
        if not self.n_grid[0] > 1:
            raise ConfigError("rate n_grid values must exceed 1 (the fit uses log(log n / n))")
        _require_serializable(self.distribution)

    def to_json(self) -> dict:
        out = {
            "experiment": "rate",
            "body": geom.body_to_json(self.body),
            "distribution": dn.distribution_to_json(self.distribution),
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "seed": self.seed,
            "policy": _policy_to_json(self.policy),
        }
        if self.expected_exponent is not None:
            out["expected_exponent"] = self.expected_exponent
        return out


@dataclass(frozen=True)
class TailRunConfig:
    body: object
    distribution: object
    eps: float
    gamma_grid: tuple
    reps: int
    seed: int
    policy: WindowPolicy = field(default_factory=WindowPolicy)
    debug_oracle: bool = False

    def __post_init__(self):
        grid = tuple(self.gamma_grid)
        object.__setattr__(self, "gamma_grid", grid)
        if not 0 < self.eps <= 1:
            raise ConfigError("tail eps must lie in (0, 1]")
        if not all(g >= 1 for g in grid):
            raise ConfigError("tail gamma grid assumes gamma >= 1")
        _increasing_grid("gamma_grid", grid)
        _require_counts(self.reps, self.seed)
        _require_serializable(self.distribution)
        # the run ends with mu_estimate: refuse a law it cannot integrate now
        try:
            dn.exact_parts(self.distribution)
        except UnsupportedBody as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> dict:
        return {
            "experiment": "tail",
            "body": geom.body_to_json(self.body),
            "distribution": dn.distribution_to_json(self.distribution),
            "eps": self.eps,
            "gamma_grid": list(self.gamma_grid),
            "reps": self.reps,
            "seed": self.seed,
            "policy": _policy_to_json(self.policy),
        }


@dataclass(frozen=True)
class CounterexampleConfig:
    body: object
    beta: float
    n_grid: tuple
    reps: int
    seed: int
    policy: WindowPolicy = field(default_factory=WindowPolicy)
    control: bool = False  # isotropic control instead of the starved law
    debug_oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _increasing_grid("n_grid", self.n_grid))
        _require_counts(self.reps, self.seed)
        if not self.n_grid[0] > 0:
            raise ConfigError("counterexample n_grid values must be positive")
        if not all(float(n).is_integer() for n in self.n_grid):
            raise ConfigError("counterexample n_grid values must be integers")
        if self.n_grid[-1] < 2:
            raise ConfigError("counterexample n_grid must reach n >= 2")
        if not self.body.radius > 0:
            raise ConfigError(
                "counterexample body must carry a rolling ball (Ball or BallSum)"
            )
        if not self.beta > 0:
            raise ConfigError("beta must be positive")

    def to_json(self) -> dict:
        return {
            "experiment": "counterexample",
            "body": geom.body_to_json(self.body),
            "beta": self.beta,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "seed": self.seed,
            "policy": _policy_to_json(self.policy),
            "control": self.control,
        }


def _increasing_grid(name: str, grid) -> tuple:
    grid = tuple(grid)
    if not grid or not all(b > a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} must be nonempty and strictly increasing")
    return grid


def _require_counts(reps, seed) -> None:
    """Refuse a replication count or seed that is not an integer, before it is truncated."""
    for name, value, least in (("reps", reps, 1), ("seed", seed, 0)):
        if not is_count(value, least):
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_serializable(dist) -> None:
    """Refuse a law the result document cannot echo, before any replication runs."""
    try:
        dn.distribution_to_json(dist)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _policy_to_json(policy: WindowPolicy) -> dict:
    return {
        "initial_radius": policy.initial_radius,
        "growth_factor": policy.growth_factor,
        "max_rounds": policy.max_rounds,
    }


def policy_from_json(obj: dict) -> WindowPolicy:
    """The policy's fields that `obj` holds; `WindowPolicy` supplies the others."""
    return WindowPolicy(**{k: obj[k] for k in ("initial_radius", "growth_factor", "max_rounds") if k in obj})


@dataclass
class ExperimentResult:
    """Records plus aggregates; the JSON document embeds the config echo."""

    config: dict
    records: list
    per_n: list
    fit: FitResult | None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {
            "config": self.config,
            "per_n": self.per_n,
            "fit": self.fit.to_json() if self.fit is not None else None,
        }
        doc.update(self.extras)
        return doc


# ---------------------------------------------------------------------------
# the single-replication worker (top level so process pools can pickle it)


def _coupled_rep(args) -> list[tuple[RunRecord, bool | None]]:
    """One replication: coupled cells along the intensity grid, one row per level.

    A row is the RunRecord and, when probe points y_n are given, whether
    a sampled hyperplane of the cell separates y_n from the body (None
    otherwise, and on window overflow).
    """
    cfg, grid, rep, dist, y_points = args
    params = ProcessParams(1.0, dist, cfg.body.dim)
    key = KeyedStream(cfg.seed, rep)
    try:
        cells = cells_along_intensity(
            params, cfg.body, grid, cfg.policy, key, debug_oracle=cfg.debug_oracle
        )
    except WindowOverflow:
        return [
            (RunRecord(rep, float(n), math.nan, 0, cfg.policy.max_rounds, 1), None)
            for n in grid
        ]
    out = []
    prev = math.inf
    for n, z, y in zip(grid, cells, y_points or [None] * len(cells)):
        delta = z.stats.hausdorff  # metrics.hausdorff_cell(cfg.body, z), recorded by the build
        if delta > prev + 1e-12:
            raise AssertionError("coupled deltas must be nonincreasing in the intensity")
        prev = delta
        separated = None
        if y is not None:
            separated = bool(len(z.offsets)) and bool((z.normals @ y - z.offsets).max() > 0.0)
        out.append((RunRecord(rep, float(n), delta, z.stats.sampled, z.stats.rounds, 0), separated))
    return out


def _run_reps(cfg, grid, dist, y_points, threads: int) -> list[tuple[RunRecord, bool | None]]:
    """Rows of every replication along the grid, sorted by (rep, n).

    With threads > 1 the replications run in a pool of at most one
    process per replication, imported only then: a serial run never
    loads `multiprocessing`.
    """
    tasks = [(cfg, grid, rep, dist, y_points) for rep in range(cfg.reps)]
    workers = min(threads, len(tasks))
    if workers <= 1:
        chunks = [_coupled_rep(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(
                pool.map(_coupled_rep, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
            )
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda row: (row[0].rep, row[0].n))
    return rows


def _levels(grid, rows):
    """Per grid level: n, the rows that did not overflow, and the overflow count."""
    for n in grid:
        level = [row for row in rows if row[0].n == float(n)]
        kept = [row for row in level if not row[0].overflow]
        yield n, kept, len(level) - len(kept)


# ---------------------------------------------------------------------------
# experiments


def run_rate(cfg: RateRunConfig, threads: int = 1) -> ExperimentResult:
    """Coupled-cell convergence run; fits log median delta vs log(log n / n).

    Replications that overflow the window are excluded from aggregates
    and reported per n in `overflow_count`.
    """
    metrics.require_approximation(cfg.body, cfg.distribution)
    rows = _run_reps(cfg, cfg.n_grid, cfg.distribution, None, threads)
    per_n = []
    xs, ys = [], []
    for n, kept, overflow in _levels(cfg.n_grid, rows):
        deltas = np.array([r.delta for r, _ in kept])
        entry = {"n": float(n), "overflow_count": overflow}
        if len(deltas):
            entry["median_delta"] = float(np.median(deltas))
            entry["q10"] = float(np.quantile(deltas, 0.1))
            entry["q90"] = float(np.quantile(deltas, 0.9))
            if entry["median_delta"] > 0:
                xs.append(math.log(math.log(n) / n))
                ys.append(math.log(entry["median_delta"]))
        per_n.append(entry)
    fit = fit_loglog(list(zip(xs, ys))) if len(set(xs)) >= 2 else None
    return ExperimentResult(cfg.to_json(), [r for r, _ in rows], per_n, fit)


def run_tail(cfg: TailRunConfig, threads: int = 1) -> ExperimentResult:
    """Exceedance probabilities P(delta > eps) along an intensity grid.

    Fits log P against gamma over the subgrid with nondegenerate
    estimates; the coupled construction makes P nonincreasing by
    construction.  Raises AllZeroTail when no exceedances occur at all.
    """
    metrics.require_approximation(cfg.body, cfg.distribution)
    rows = _run_reps(cfg, cfg.gamma_grid, cfg.distribution, None, threads)
    per_n = []
    xs, ys = [], []
    for g, kept, overflow in _levels(cfg.gamma_grid, rows):
        flags = np.array([r.delta > cfg.eps for r, _ in kept])
        p_hat = float(flags.mean()) if len(flags) else math.nan
        per_n.append(
            {"n": float(g), "p_hat": p_hat, "count": int(len(flags)), "overflow_count": overflow}
        )
        if 0.0 < p_hat < 1.0:
            xs.append(float(g))
            ys.append(math.log(p_hat))
    if all(e["p_hat"] == 0.0 for e in per_n if not math.isnan(e["p_hat"])):
        raise AllZeroTail("no exceedances anywhere on the gamma grid; shrink gamma or eps")
    fit = fit_loglog(list(zip(xs, ys))) if len(set(xs)) >= 2 else None
    extras = {}
    if fit is not None:
        mu = metrics.mu_estimate(cfg.body, cfg.distribution, cfg.eps)
        extras["mu_reference"] = {
            "mu": mu.value,
            "abs_slope_over_mu": abs(fit.slope) / mu.value if mu.value > 0 else math.nan,
        }
    return ExperimentResult(cfg.to_json(), [r for r, _ in rows], per_n, fit, extras)


def _counterexample_distribution(cfg: CounterexampleConfig):
    """The starved law (or isotropic control) plus the probe points y_n."""
    body = cfg.body
    r = body.radius
    # outer normal in a vertex's normal cone: boundary point on an arc (e_1 at a point core)
    hull = body.hull_vertices if body.dim == 2 else body.vertices
    v = hull[int(np.argmax(np.linalg.norm(hull, axis=1)))]
    nv = np.linalg.norm(v)
    axis = v / nv if nv > 0 else np.eye(body.dim)[0]
    x_touch = v + r * axis
    n_max = int(max(cfg.n_grid))
    if cfg.control:
        dist = dn.Isotropic(body.dim)
    else:
        dist = dn.cap_starved(
            axis,
            lambda n: float(n) ** (-cfg.beta),
            n_max,
            _default_budget,
            radius=r,
        )
    y_points = [x_touch + float(n) ** (-cfg.beta) * axis for n in cfg.n_grid]
    return dist, y_points


def _default_budget(n: int) -> float:
    if n <= 1:
        return math.inf
    return abs(math.log1p(-(float(n) ** -2)))


def run_counterexample(cfg: CounterexampleConfig, threads: int = 1) -> ExperimentResult:
    """Frequencies of delta_n >= n^(-beta) under the cap-starved law.

    Also reports how often the probe point beyond the touching boundary
    point was separated by a sampled hyperplane; the construction budget
    keeps that frequency below n^-2.
    """
    dist, y_points = _counterexample_distribution(cfg)
    rows = _run_reps(cfg, cfg.n_grid, dist, y_points, threads)
    per_n = []
    violations = Counter()
    for n, kept, overflow in _levels(cfg.n_grid, rows):
        eps_n = float(n) ** (-cfg.beta)
        exceeded = [r.delta >= eps_n for r, _ in kept]
        violations.update(r.rep for (r, _), e in zip(kept, exceeded) if not e)
        count = len(kept)
        per_n.append(
            {
                "n": float(n),
                "eps_n": eps_n,
                "count": count,
                "overflow_count": overflow,
                "exceed_freq": (sum(exceeded) / count) if count else math.nan,
                "separated_freq": (sum(s for _, s in kept) / count) if count else math.nan,
            }
        )
    extras = {
        "distribution": dn.distribution_to_json(dist),
        "violations_per_rep": {str(k): v for k, v in sorted(violations.items())},
    }
    return ExperimentResult(cfg.to_json(), [r for r, _ in rows], per_n, None, extras)


# ---------------------------------------------------------------------------
# persistence


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def persist(result, path, fmt: str = "csv") -> None:
    """Write records as CSV or the full result document as JSON.

    CSV rows are sorted by (rep, n) so output never depends on the
    execution schedule; reruns with the same seed are byte-identical.
    """
    if fmt == "csv":
        records = result.records if isinstance(result, ExperimentResult) else list(result)
        rows = sorted(records, key=lambda r: (r.rep, r.n))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for rec in rows:
                writer.writerow([_format_cell(v) for v in rec.row()])
    elif fmt == "json":
        if not isinstance(result, ExperimentResult):
            raise ConfigError("json persistence needs an ExperimentResult")
        with open(path, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=False)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}; use csv or json")


def read_records(path) -> list[RunRecord]:
    """Inverse of the CSV side of `persist`."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        for row in reader:
            out.append(
                RunRecord(
                    rep=int(row[0]),
                    n=float(row[1]),
                    delta=float(row[2]),
                    hyperplanes=int(row[3]),
                    rounds=int(row[4]),
                    overflow=int(row[5]),
                )
            )
    return out
