#!/usr/bin/env python3
"""hypercell benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: rate, tail, mu, counterexample, rate3d (see workloads.py and
README.md).  A run builds a fixed set of input blocks from `--seed` and
repeats the workload's experiment call on each, single process, until
`--seconds` are used up.

--trace 0 reports the end-to-end metrics: `setup_s` (median over fresh
interpreters), `wall_s` (each block's median round, summed over the
blocks) and `peak_rss_mb`.  Both times are scaled to a reference host
speed with a calibration loop timed before every round and set-up probe
(calibrate.py); the measured seconds are printed too.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Both
check the outputs (checks.py) after the timed section, on one more pass
over every block, which must write the same bytes as the timed rounds.
The last line of standard output is one JSON object: correct,
attempted, failed, metrics.

`--workload all` runs every workload in both modes, each in its own
interpreter, prints a table and writes .perfbench_out/summary.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from calibrate import REF_S, calibration_loop, middle_mean  # noqa: E402

MIN_SETUP_PROBES = 5
MIN_CYCLES = 2


def setup_probe(name: str, seed: int) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def env_stamp() -> dict:
    """Versions and thread settings; reads scipy's version without importing it."""
    from importlib.metadata import version

    import hypercell

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernel_backend": hypercell.kernel_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "threads": 1,
    }


def evaluate(calls, outcomes) -> tuple[int, list[str], list[str]]:
    """Failed operations of one round, failed run-wide checks, and failed-operation notes."""
    import checks

    failed, bad, notes = 0, [], []
    for call, out in zip(calls, outcomes):
        if out.error is not None:
            failed += call.ops
            notes.append(f"{call.label}: {out.error}")
            continue
        if call.kind == "mu":
            f, op_msgs, msgs = checks.check_mu(call.label, call.spec, out.result)
            failed += len(f)
            notes += op_msgs
            bad += msgs
            continue
        ref = checks.RefBody(call.spec["body"])
        records = out.result.records
        overflowed = {r.rep for r in records if r.overflow}
        f, op_msgs = checks.check_records(records)
        if out.captured:
            f_cells, m_cells = checks.check_cells(ref, out.captured, records)
            f |= f_cells
            op_msgs += m_cells
        msgs = []
        if call.kind == "rate":
            msgs = checks.check_poisson(ref, call.cfg, records)
        elif call.kind == "tail":
            msgs = checks.check_tail(call.cfg, out.result)
        elif call.kind == "counterexample":
            msgs = checks.check_counterexample(out.result)
        failed += len(overflowed | f)
        where = f"{call.label} seed {call.cfg.seed}"
        notes += [f"{where}: {m}" for m in op_msgs]
        bad += [f"{where}: {m}" for m in msgs]
        if overflowed:
            notes.append(f"{where}: {len(overflowed)} replications overflowed the window")
    return failed, bad, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Cycle through the workload's input blocks for `seconds`, then check.

    Every cycle runs each block once (with --trace 1: untraced, then
    traced), so every run attempts whole cycles of the same operations.
    Untraced runs time the calibration loop before every round and start
    one set-up probe, calibrated too, after each cycle.  After peak RSS
    is read, every block runs once more with its cells kept for the cell
    checks.  Only output hashes are kept from the timed rounds, so the
    run's memory does not grow with its length.
    """
    print("env:", json.dumps(env_stamp()), flush=True)
    outdir = OUT / name
    outdir.mkdir(parents=True, exist_ok=True)
    blocks = workloads.blocks(name, seed)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain = [[] for _ in blocks]  # untraced round seconds per block
    digests = [[] for _ in blocks]  # output sha256 of every round per block
    traced, pairs, setup, calib = [], [], [], []

    def probe():
        calib.append(calibration_loop())
        setup.append(setup_probe(name, seed))

    def timed_round(b, calls):
        t0 = time.perf_counter()
        outcomes = workloads.run_round(calls, outdir)
        dt = time.perf_counter() - t0
        digests[b].append(workloads.digest(calls, outcomes, outdir))
        return dt

    start = time.perf_counter()
    cycles = 0
    while True:
        for b, calls in enumerate(blocks):
            if tracer is None:
                calib.append(calibration_loop())
            plain[b].append(timed_round(b, calls))
            if tracer is not None:
                tracer.install(extra_runs=[(workloads, "mu_sweep")])
                try:
                    traced.append(timed_round(b, calls))
                finally:
                    tracer.uninstall()
                pairs.append(traced[-1] / plain[b][-1])
        cycles += 1
        if tracer is None:
            probe()
        if cycles >= MIN_CYCLES and (time.perf_counter() - start) * (1 + 1 / cycles) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while tracer is None and len(setup) < MIN_SETUP_PROBES:
        probe()

    # Every round of a block must write the same bytes, so the checks run on
    # the checked pass and its failures count once per round of the block.
    failed, bad, notes = 0, [], []
    for b, calls in enumerate(blocks):
        outcomes = workloads.run_round(calls, outdir, capture=True)
        digests[b].append(workloads.digest(calls, outcomes, outdir))
        f, msgs, extra = evaluate(calls, outcomes)
        failed += f * len(digests[b])
        bad += msgs
        notes += extra
    if any(len(set(d)) != 1 for d in digests):
        bad.append("a rerun on the same inputs wrote different bytes")

    for b, times in enumerate(plain):
        print(f"block {b}: untraced rounds {[round(t, 4) for t in times]}")
        print(f"block {b}: output sha256 {' != '.join(sorted(set(digests[b])))}")
    if traced:
        print(f"traced rounds {[round(t, 4) for t in traced]}")
    for line in notes:
        print("FAILED OPERATION:", line)
    for line in bad:
        print("CHECK FAILED:", line)
    print(f"checks: {'passed' if not bad else f'{len(bad)} failed'}")

    if tracer is None:
        wall = sum(statistics.median(times) for times in plain)
        scale = REF_S / middle_mean(calib)
        print(f"calibration loop: mean {middle_mean(calib):.6g} s over {len(calib)} passes, "
              f"scale {scale:.4f}")
        print(f"measured: wall {wall:.6g} s, setup {statistics.median(setup):.6g} s")
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "wall_s": (wall * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(cycles)
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(pairs) - 1.0), "%")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    return {
        "correct": not bad,
        "attempted": sum(sum(c.ops for c in calls) * len(digests[b])
                         for b, calls in enumerate(blocks)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced and traced, each in a fresh interpreter."""
    summary, merged = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"workload {name} (trace {trace}) exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            summary[f"{name}/trace{trace}"] = res
            merged["correct"] = merged["correct"] and res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for key, m in res["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = m
            print(f"{name:15s} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"    {key:34s} {m['value']:>14.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "hypercell" / "__init__.py", workloads.CONFIGS):
        if not needed.exists():
            parser.error(f"{needed} is missing: run from a hypercell source checkout")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
