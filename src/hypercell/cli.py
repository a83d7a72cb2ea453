"""Command-line front end.

Subcommands: `rate`, `tail`, `counterexample` (Monte Carlo experiments
driven by a JSON config), `mu-curve` (minimal-excess scaling), and
`validate` (the invariant battery).  Every experiment writes a CSV
table, a JSON document embedding the resolved config, and optionally a
self-contained SVG.  Exit codes: 0 success, 2 configuration error,
3 experiment error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from hypercell import direction as dn
from hypercell import experiment as ex
from hypercell import geom, metrics, plotsvg
from hypercell.errors import ConfigError, HypercellError

REFERENCE_SLOPES_2D = [(0.5, "slope 1/2 (= 1/d)"), (2.0 / 3.0, "slope 2/3 (= 2/(d+1))"), (1.0, "slope 1")]


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:  # a directory, or a file that cannot be opened
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _object(cfg: dict, key: str, default: dict | None = None) -> dict:
    """The JSON object under `key`: required unless a default is given."""
    obj = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(obj, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, got {type(obj).__name__}")
    return obj


def _body(cfg: dict):
    try:
        return geom.body_from_json(_object(cfg, "body"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'body': {exc}") from exc


def _parse_common(cfg: dict, args):
    """Body, seed and window policy of an experiment config."""
    body = _body(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("seed must be given in the config or with --seed")
    try:
        policy = ex.policy_from_json(_object(cfg, "policy", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'policy': {exc}") from exc
    return body, seed, policy


def _threads(args) -> int:
    """--threads, else HYPERCELL_THREADS, else 1; a value below 1 or not an integer is refused."""
    env = os.environ.get("HYPERCELL_THREADS")
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    elif env:
        try:
            threads, source = int(env), "HYPERCELL_THREADS"
        except ValueError:
            raise ConfigError(f"HYPERCELL_THREADS must be an integer, got {env!r}") from None
    else:
        return 1
    if threads < 1:
        raise ConfigError(f"{source} must be at least 1, got {threads}")
    return threads


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_rate(args) -> int:
    cfg = _load_config(args.config)
    body, seed, policy = _parse_common(cfg, args)
    run_cfg = ex.RateRunConfig(
        body,
        dn.distribution_from_json(_object(cfg, "distribution")),
        _require(cfg, "n_grid"),
        cfg.get("reps", 100),
        seed,
        expected_exponent=cfg.get("expected_exponent"),
        policy=policy,
        debug_oracle=args.debug_oracle,
    )
    result = ex.run_rate(run_cfg, threads=_threads(args))
    ex.persist(result, _out_path(args, "rate.csv"), "csv")
    ex.persist(result, _out_path(args, "rate.json"), "json")
    if args.plot:
        pts = [
            (math.log(e["n"]) / e["n"], e["median_delta"])
            for e in result.per_n
            if "median_delta" in e
        ]
        plotsvg.loglog_svg(
            _out_path(args, "rate.svg"),
            [("median distance", pts)],
            "Hausdorff distance vs log(n)/n",
            "log(n)/n",
            "median Hausdorff distance",
            fit=(result.fit.slope, result.fit.intercept) if result.fit else None,
            reference_slopes=REFERENCE_SLOPES_2D,
        )
    if result.fit:
        print(f"rate: slope {result.fit.slope:.4f}  r2 {result.fit.r_squared:.4f}")
        if run_cfg.expected_exponent is not None:
            print(f"rate: expected exponent {run_cfg.expected_exponent:g}")
    return 0


def _cmd_tail(args) -> int:
    cfg = _load_config(args.config)
    body, seed, policy = _parse_common(cfg, args)
    run_cfg = ex.TailRunConfig(
        body,
        dn.distribution_from_json(_object(cfg, "distribution")),
        float(_require(cfg, "eps")),
        _require(cfg, "gamma_grid"),
        cfg.get("reps", 1000),
        seed,
        policy=policy,
        debug_oracle=args.debug_oracle,
    )
    result = ex.run_tail(run_cfg, threads=_threads(args))
    ex.persist(result, _out_path(args, "tail.csv"), "csv")
    ex.persist(result, _out_path(args, "tail.json"), "json")
    if args.plot:
        pts = [(e["n"], e["p_hat"]) for e in result.per_n if e["p_hat"] > 0]
        plotsvg.semilog_svg(
            _out_path(args, "tail.svg"),
            [("exceedance probability", pts)],
            "P(distance > eps) vs intensity",
            "intensity",
            "exceedance probability",
            fit=(result.fit.slope, result.fit.intercept) if result.fit else None,
        )
    if result.fit:
        print(f"tail: slope {result.fit.slope:.5f}  r2 {result.fit.r_squared:.4f}")
    return 0


def _cmd_counterexample(args) -> int:
    cfg = _load_config(args.config)
    body, seed, policy = _parse_common(cfg, args)
    run_cfg = ex.CounterexampleConfig(
        body,
        float(cfg.get("beta", 0.25)),
        _require(cfg, "n_grid"),
        cfg.get("reps", 2000),
        seed,
        policy=policy,
        control=bool(cfg.get("control", False)),
        debug_oracle=args.debug_oracle,
    )
    result = ex.run_counterexample(run_cfg, threads=_threads(args))
    ex.persist(result, _out_path(args, "counterexample.csv"), "csv")
    ex.persist(result, _out_path(args, "counterexample.json"), "json")
    for e in result.per_n:
        print(
            f"counterexample: n={e['n']:g} eps_n={e['eps_n']:.4f} "
            f"freq(delta>=eps_n)={e['exceed_freq']:.4f} separated={e['separated_freq']:.4f}"
        )
    return 0


def _cmd_mu_curve(args) -> int:
    cfg = _load_config(args.config)
    body = _body(cfg)
    dist = dn.distribution_from_json(_object(cfg, "distribution"))
    seed = args.seed if args.seed is not None else cfg.get("seed", 99173)
    grid_cfg = _require(cfg, "eps_grid")
    if isinstance(grid_cfg, dict):
        grid = np.geomspace(grid_cfg["start"], grid_cfg["stop"], grid_cfg["count"]).tolist()
    else:
        grid = [float(e) for e in grid_cfg]
    mu_cfg = metrics.MuConfig(coarse_samples=cfg.get("coarse_samples", 4096), seed=seed)
    fit = metrics.mu_scaling(body, dist, grid, mu_cfg)
    ests = fit.estimates
    csv_path = _out_path(args, "mu.csv")
    with open(csv_path, "w") as fh:
        fh.write("epsilon,mu,evaluations\n")
        for e, est in zip(grid, ests):
            fh.write(f"{e!r},{est.value!r},{est.evaluations}\n")
    with open(_out_path(args, "mu.json"), "w") as fh:
        json.dump(
            {
                "config": {
                    "body": geom.body_to_json(body),
                    "distribution": dn.distribution_to_json(dist),
                    "eps_grid": grid,
                    "seed": seed,
                },
                "estimates": [est.to_json() for est in ests],
                "fit": fit.to_json(),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    if args.plot:
        plotsvg.loglog_svg(
            _out_path(args, "mu.svg"),
            [("minimal excess", list(zip(grid, [est.value for est in ests])))],
            "Minimal support excess vs offset",
            "offset eps",
            "minimal excess",
            fit=(fit.slope, fit.intercept),
            reference_slopes=[(1.0, "slope 1"), (1.5, "slope 3/2"), (2.0, "slope 2")],
        )
    print(f"mu-curve: slope {fit.slope:.4f}  r2 {fit.r_squared:.4f}")
    return 0


def _cmd_validate(args) -> int:
    from hypercell import validate

    results = validate.run_all(verbose=True)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercell",
        description="Poisson hyperplane processes, K-cells, and approximation-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand registers only the flags it reads
    for name, fn, plots, builds_cells in (
        ("rate", _cmd_rate, True, True),
        ("tail", _cmd_tail, True, True),
        ("counterexample", _cmd_counterexample, False, True),
        ("mu-curve", _cmd_mu_curve, True, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if plots:
            p.add_argument("--plot", action="store_true", help="emit an SVG plot")
        if builds_cells:
            p.add_argument("--threads", type=int, default=None, help="worker processes (default HYPERCELL_THREADS or 1)")
            p.add_argument(
                "--debug-oracle",
                action="store_true",
                help="cross-check every intersection against the subset oracle",
            )
        p.set_defaults(fn=fn)
    sub.add_parser("validate").set_defaults(fn=_cmd_validate)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 2
    except HypercellError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
