"""Benchmark workloads: input blocks built from a seed, one timed round each.

A round runs one block: the experiment calls a user of the CLI would
make, at a fixed reduced size.  That is `run_rate` / `run_tail` /
`run_counterexample` followed by `persist` of the CSV and JSON, or for
`mu` the `mu_estimate` sweep plus the log-log fit.  Block b of a run with
seed s uses the master seed `block_seed(s, b)` in place of the seed of
the bundled configs.  For `mu`, whose planar search draws no random
numbers, that seed rotates the body and the directional law together by
one angle.  A common rotation leaves the minimal excess and the search's
work unchanged, so the checks and the cost do not depend on the seed
while the inputs do.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# replications per experiment call (operations attempted per round)
RATE_REPS = 5
TAIL_REPS = 100
COUNTEREXAMPLE_REPS = 60
RATE3D_REPS = 3
RATE3D_GRID = [8, 16, 32]
MU_EPS_COUNT = 2

NAMES = ("rate", "tail", "mu", "counterexample", "rate3d")
MU_CONFIGS = ("mu_square_atomic", "mu_stadium_isotropic", "mu_stadium_adapted")

# Input blocks per run, each with its own master seed.  A run repeats
# every block as often as time allows, keeps each block's median round
# and sums those over the blocks.  The host shares its cores: the same
# round drifts by 10-30% over tens of seconds and spikes to 2x for a few
# seconds, so a block's fastest round is a rare fast moment and a poor
# estimate, while its median is steadier.  The number of replications
# per pass averages out the seed-to-seed variation of the work: one
# replication's time varies by 25-35% (40% on rate, whose two configs
# differ); mu's rotation leaves its work unchanged.  A round of
# mu's isotropic stadium takes several seconds; splitting it further
# would split its sweep and fit.
BLOCKS = {"rate": 8, "tail": 4, "mu": len(MU_CONFIGS), "counterexample": 4, "rate3d": 8}


@dataclass
class Call:
    """One experiment call of a round and the inputs the checks need."""

    label: str
    kind: str  # rate | tail | counterexample | mu
    cfg: object
    spec: dict  # body / distribution JSON, as the checks read it
    ops: int


@dataclass
class Outcome:
    """What one call of one round produced."""

    result: object = None  # ExperimentResult, or MuSweep for mu
    error: str | None = None
    captured: list = field(default_factory=list)  # (cells_along_intensity args, cells)


@dataclass
class MuSweep:
    eps: list
    estimates: list
    errors: list
    fit: object

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "estimates": [e.to_json() if e is not None else None for e in self.estimates],
            "errors": self.errors,
            "fit": self.fit.to_json() if self.fit is not None else None,
        }


def block_seed(seed: int, block: int) -> int:
    """Master seed of round `block` in a run with `seed`."""
    return int(np.random.SeedSequence([seed, block]).generate_state(1)[0])


def _config(name: str) -> dict:
    with open(CONFIGS / f"{name}.json") as fh:
        return json.load(fh)


def _rotated(cfg: dict, seed: int) -> dict:
    """Planar config with body vertices and law atoms turned by a seeded angle."""
    from hypercell.rng import stream

    th = 2.0 * math.pi * stream(seed, "perfbench-mu-rotation").random()
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    out = json.loads(json.dumps(cfg))

    def turn(points):
        return (np.asarray(points, dtype=np.float64) @ R.T).tolist()

    def turn_law(dist):
        if dist["type"] == "atomic":
            dist["atoms"] = turn(dist["atoms"])
        elif dist["type"] == "mixture":
            for c in dist["components"]:
                turn_law(c["dist"])
        elif dist["type"] != "isotropic":
            raise ValueError(f"cannot rotate a {dist['type']!r} law")

    if "vertices" in out["body"]:
        out["body"]["vertices"] = turn(out["body"]["vertices"])
    turn_law(out["distribution"])
    return out


def blocks(name: str, seed: int) -> list[list[Call]]:
    """Every input block of a run with `seed`: set-up as the run does it."""
    return [build(name, block_seed(seed, b), b) for b in range(BLOCKS[name])]


def build(name: str, seed: int, block: int) -> list[Call]:
    """Parse configs and build bodies, laws and run configs of one block.

    `seed` is the block's master seed.  The blocks of `mu` are its three
    configs, one each; the other workloads repeat their calls in every block.
    """
    from hypercell import direction as dn
    from hypercell import experiment as ex
    from hypercell import geom, metrics

    def rate_call(label, cfg, reps, grid=None):
        run_cfg = ex.RateRunConfig(
            geom.body_from_json(cfg["body"]),
            dn.distribution_from_json(cfg["distribution"]),
            grid or cfg["n_grid"],
            reps,
            seed,
            expected_exponent=cfg.get("expected_exponent"),
            policy=ex.policy_from_json(cfg.get("policy", {})),
        )
        return Call(label, "rate", run_cfg, cfg, reps)

    if name == "rate":
        return [rate_call(n, _config(n), RATE_REPS)
                for n in ("rate_ball_isotropic", "rate_square_atomic")]
    if name == "rate3d":
        cfg = {"body": {"type": "ball", "center": [0, 0, 0], "radius": 1.0},
               "distribution": {"type": "isotropic", "dim": 3}}
        return [rate_call("rate_ball3d_isotropic", cfg, RATE3D_REPS, RATE3D_GRID)]
    if name == "tail":
        cfg = _config("tail_ball_isotropic")
        run_cfg = ex.TailRunConfig(
            geom.body_from_json(cfg["body"]),
            dn.distribution_from_json(cfg["distribution"]),
            float(cfg["eps"]),
            cfg["gamma_grid"],
            TAIL_REPS,
            seed,
            policy=ex.policy_from_json(cfg.get("policy", {})),
        )
        return [Call("tail_ball_isotropic", "tail", run_cfg, cfg, TAIL_REPS)]
    if name == "counterexample":
        cfg = _config("counterexample_ball")
        run_cfg = ex.CounterexampleConfig(
            geom.body_from_json(cfg["body"]),
            float(cfg.get("beta", 0.25)),
            cfg["n_grid"],
            COUNTEREXAMPLE_REPS,
            seed,
            policy=ex.policy_from_json(cfg.get("policy", {})),
        )
        # the cap-starved law is part of set-up; the run builds it again itself
        ex._counterexample_distribution(run_cfg)
        return [Call("counterexample_ball", "counterexample", run_cfg, cfg, COUNTEREXAMPLE_REPS)]
    if name == "mu":
        calls = []
        for label in MU_CONFIGS[block:block + 1]:
            spec = _rotated(_config(label), seed)
            g = spec["eps_grid"]
            grid = [float(e) for e in np.geomspace(g["start"], g["stop"], MU_EPS_COUNT)]
            spec["eps_grid"] = grid
            mu_cfg = metrics.MuConfig(coarse_samples=int(spec.get("coarse_samples", 4096)),
                                      seed=int(spec.get("seed", 99173)))
            run_cfg = (geom.body_from_json(spec["body"]),
                       dn.distribution_from_json(spec["distribution"]), grid, mu_cfg)
            calls.append(Call(label, "mu", run_cfg, spec, len(grid)))
        return calls
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def mu_sweep(body, dist, grid, mu_cfg) -> MuSweep:
    """`mu_estimate` at every eps of the grid, then the log-log fit."""
    from hypercell import experiment as ex
    from hypercell import metrics
    from hypercell.errors import HypercellError

    estimates, errors = [], []
    for eps in grid:
        try:
            estimates.append(metrics.mu_estimate(body, dist, eps, mu_cfg))
            errors.append(None)
        except HypercellError as exc:
            estimates.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    points = [(math.log(e), math.log(est.value))
              for e, est in zip(grid, estimates) if est is not None and est.value > 0]
    fit = ex.fit_loglog(points) if len({x for x, _ in points}) >= 2 else None
    return MuSweep(list(grid), estimates, errors, fit)


def run_round(calls: list[Call], outdir: Path, capture: bool = False) -> list[Outcome]:
    """The timed section: every experiment call of the workload, outputs persisted.

    With `capture`, each `cells_along_intensity` result is kept for the
    checks; that adds one list append per replication.
    """
    from hypercell import experiment as ex
    from hypercell.errors import HypercellError

    runners = {"rate": "run_rate", "tail": "run_tail", "counterexample": "run_counterexample"}
    outcomes = []
    for call in calls:
        out = Outcome()
        original = ex.cells_along_intensity
        if capture:
            def keep(*args, **kwargs):
                cells = original(*args, **kwargs)
                out.captured.append((args, cells))
                return cells
            ex.cells_along_intensity = keep
        try:
            if call.kind == "mu":
                out.result = mu_sweep(*call.cfg)
            else:
                out.result = getattr(ex, runners[call.kind])(call.cfg, threads=1)
                ex.persist(out.result, outdir / f"{call.label}.csv", "csv")
                ex.persist(out.result, outdir / f"{call.label}.json", "json")
        except HypercellError as exc:
            out.error = f"{type(exc).__name__}: {exc}"
        finally:
            ex.cells_along_intensity = original
        outcomes.append(out)
    return outcomes


def digest(calls: list[Call], outcomes: list[Outcome], outdir: Path) -> str:
    """sha256 over every output file of the round (the mu sweep as JSON)."""
    h = hashlib.sha256()
    for call, out in zip(calls, outcomes):
        h.update(call.label.encode())
        if out.error is not None:
            h.update(out.error.encode())
        elif call.kind == "mu":
            h.update(json.dumps(out.result.to_json(), sort_keys=True).encode())
        else:
            for ext in ("csv", "json"):
                h.update((outdir / f"{call.label}.{ext}").read_bytes())
    return h.hexdigest()
