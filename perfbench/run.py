"""Benchmark of abc-eqf: campaign throughput, log replay and on-line latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_default --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 prints the end-to-end metrics;
--trace 1 wraps the program's functions and prints the per-layer metrics
instead, and writes the spans to .bench_out/trace_<workload>_<seed>.json.
See perfbench/README.md for the workloads, metrics and settings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3            # set-ups before the timed phase
SETUP_EVERY_ROUND = 2        # more after each timed round, so set-up samples span the run
MIN_ROUNDS = 2               # every run replays both flights at least once


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import abc_eqf from this checkout's src/, never from anywhere else."""
    if not (SRC / "abc_eqf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import abc_eqf
    if Path(abc_eqf.__file__).resolve().parent != (SRC / "abc_eqf").resolve():
        raise SystemExit(f"benchmark: imported abc_eqf from {abc_eqf.__file__}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0      # ru_maxrss is in KiB on Linux


def timed_setup(cls, workdir: Path, seed: int, workers: int, rec):
    from speed import timed
    wl, wall, ref = timed(partial(cls, workdir, seed, workers))
    rec.setup_s.append(wall)
    rec.setup_s_ref.append(ref)
    return wl


def timed_rounds(wl, rec, seconds: float, first: int = 0, min_rounds: int = MIN_ROUNDS,
                 workers=None, between=None) -> int:
    """Whole rounds until `seconds` have passed; `between` runs after each."""
    start = time.perf_counter()
    r = first
    while r - first < min_rounds or time.perf_counter() - start < seconds:
        wl.round(r, rec, workers)
        r += 1
        if between is not None:
            between()
    return r


def median(values) -> float:
    """Median of the samples; NaN when every pass that would give one failed."""
    return statistics.median(values) if values else float("nan")


def round_rates(rec, start: int = 0, sfx: str = "_ref") -> list[float]:
    busy = getattr(rec, "round_s" + sfx)[start:]
    return [n / s for n, s in zip(rec.round_steps[start:], busy)]


def end_to_end(rec, sfx: str = "_ref") -> dict:
    """Times at the reference speed (speed.py); with `sfx` "", as measured."""
    import numpy as np
    from workloads import FILTERS
    m = {"setup_s": (median(getattr(rec, "setup_s" + sfx)), "s")}
    m["gyro_steps_per_s"] = (median(round_rates(rec, sfx=sfx)), "1/s")
    for kind in FILTERS:
        pass_s = getattr(rec, "pass_s" + sfx)[kind]
        per_step = [s / n * 1e6 for s, n in zip(pass_s, rec.pass_steps[kind])]
        m[f"{kind}.us_per_step"] = (median(per_step), "us")
        ticks = getattr(rec, "tick_s" + sfx)[kind]
        for q in (50, 99):
            value = float(np.percentile(np.concatenate(ticks), q)) if ticks else float("nan")
            m[f"{kind}.tick_p{q}_us"] = (value * 1e6, "us")
    acc = rec.accuracy
    for kind, keys in (("eqf", ("att_T_deg", "att_A_deg", "cal_T_deg", "cal_A_deg")),
                       ("iekf", ("att_T_deg", "cal_T_deg"))):
        for key in keys:
            m[f"{kind}.{key}"] = (acc.get(kind, {}).get(key, float("nan")), "deg")
    m["eqf.bias_A_mrad_s"] = (acc.get("eqf", {}).get("bias_A", float("nan")) * 1e3, "mrad/s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return m


def per_layer(t, setup_t, overhead_pct: float) -> dict:
    calls, counts = t.calls, t.counts

    def per(x, n):
        return x / n if n else 0.0

    n_eqf = calls.get("eqf.eqf_init", 0)
    n_iekf = calls.get("iekf.iekf_init", 0)
    n_all = n_eqf + n_iekf
    n_drive = calls.get("runner.drive_filter", 0)
    n_cli = calls.get("cli.main", 0)
    sim_calls = calls.get("sim.simulate_run", 0) + setup_t.calls.get("sim.simulate_run", 0)
    sim_s = t.total_s("sim.simulate_run") + setup_t.total_s("sim.simulate_run")
    sim_meas = counts.get("sim.measurements", 0) + setup_t.counts.get("sim.measurements", 0)
    reads = [q for q in calls if q.startswith("csvio.read_")]
    writes = [q for q in calls if q.startswith("csvio.write_")]
    m = {
        "eqf.propagate_calls": (per(calls.get("eqf.eqf_propagate", 0), n_eqf), "count"),
        "eqf.propagate_us": (t.mean_us("eqf.eqf_propagate"), "us"),
        "eqf.propagate_mean_us": (t.mean_us("eqf.propagate_mean"), "us"),
        "eqf.phi_and_md_us": (t.mean_us("eqf.phi_and_md"), "us"),
        "eqf.cov_step_us": (t.mean_us("eqf.eqf_propagate", self_time=True), "us"),
        "eqf.update_calls": (per(calls.get("eqf.eqf_update", 0), n_eqf), "count"),
        "eqf.update_meas_per_call": (per(counts.get("eqf.eqf_update.meas", 0),
                                         calls.get("eqf.eqf_update", 0)), "count"),
        "eqf.update_skipped": (per(counts.get("eqf.eqf_update.skipped", 0), n_eqf), "count"),
        "eqf.update_us": (t.mean_us("eqf.eqf_update"), "us"),
        "eqf.reproject_calls": (per(calls.get("eqf._reproject", 0), n_eqf), "count"),
        "iekf.propagate_calls": (per(calls.get("iekf.iekf_propagate", 0), n_iekf), "count"),
        "iekf.propagate_us": (t.mean_us("iekf.iekf_propagate"), "us"),
        "iekf.update_calls": (per(calls.get("iekf.iekf_update", 0), n_iekf), "count"),
        "iekf.update_skipped": (per(counts.get("iekf.iekf_update.skipped", 0), n_iekf), "count"),
        "iekf.update_us": (t.mean_us("iekf.iekf_update"), "us"),
        "iekf.reproject_calls": (per(counts.get("iekf.reproject", 0), n_iekf), "count"),
        "lie.exp_so3_calls": (per(calls.get("lie.exp_so3", 0), n_all), "count"),
        "lie.exp_so3_us": (t.mean_us("lie.exp_so3"), "us"),
        "lie.exp_sdp_us": (t.mean_us("lie.exp_sdp"), "us"),
        "lie.project_to_so3_us": (t.mean_us("lie.project_to_so3"), "us"),
        "lie.log_so3_calls": (per(calls.get("lie.log_so3", 0), n_all), "count"),
        "lie.log_so3_us": (t.mean_us("lie.log_so3"), "us"),
        "symmetry.state_from_group_calls": (per(calls.get("symmetry.state_from_group", 0),
                                                n_eqf), "count"),
        "symmetry.state_from_group_us": (t.mean_us("symmetry.state_from_group"), "us"),
        "runner.drive_filter_s": (per(t.total_s("runner.drive_filter"), n_drive), "s"),
        "runner.drive_self_us_per_step": (per(t.self_ns.get("runner.drive_filter", 0) / 1e3,
                                              counts.get("runner.drive_steps", 0)), "us"),
        "runner.update_groups": (per(counts.get("runner.update_groups", 0), n_drive), "count"),
        "runner.montecarlo_s": (per(t.total_s("runner.montecarlo"),
                                    calls.get("runner.montecarlo", 0)), "s"),
        "runner.mc_workers": (float(counts.get("runner.workers", 0)), "count"),
        "metrics.interpolate_truth_s": (per(t.total_s("metrics.interpolate_truth"), n_drive), "s"),
        "metrics.error_series_s": (per(t.total_s("metrics.error_series"), n_drive), "s"),
        "metrics.report_s": (per(t.total_s("metrics.report_from_series"), n_drive), "s"),
        "sim.simulate_run_s": (per(sim_s, sim_calls), "s"),
        "sim.measurements": (per(sim_meas, sim_calls), "count"),
        "csvio.read_s": (per(t.total_s(*reads), n_cli), "s"),
        "csvio.write_s": (per(t.total_s(*writes), n_cli), "s"),
        "csvio.rows_read": (per(counts.get("csvio.rows", 0), n_cli), "count"),
        "csvio.bytes_written": (per(counts.get("csvio.bytes", 0), n_cli), "B"),
        "cli.run_s": (per(t.total_s("cli.main"), n_cli), "s"),
        "config.load_s": (per(t.total_s("config.load_config"),
                              calls.get("config.load_config", 0)), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:              # one BLAS thread per process
        os.environ[var] = "1"
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workers = max(1, min(2, os.cpu_count() or 1))   # campaign pool size, <= nproc
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = workloads.Record()
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                wl = timed_setup(cls, workdir, args.seed, workers, rec)
            # Contention from other tenants comes in stretches of seconds, so
            # set-ups spread over the whole run give a steadier median than
            # set-ups back to back.  They go to a spare directory: the timed
            # workload keeps its outputs in `workdir`.
            spare = workdir / "spare"

            def more_setups():
                for _ in range(SETUP_EVERY_ROUND):
                    timed_setup(cls, spare, args.seed, workers, rec)

            timed_rounds(wl, rec, args.seconds, between=more_setups)
            wl.check(rec)
            measured = end_to_end(rec, sfx="")
            print("benchmark metrics as measured: "
                  + json.dumps({n: v for n, (v, _) in measured.items()}), file=sys.stderr)
            metrics = end_to_end(rec)
        else:
            setup_t = tracing.Tracer()
            setup_t.install()
            try:
                wl = cls(workdir, args.seed, workers)
            finally:
                setup_t.uninstall()
            # untraced: both flights with the timed run's pool, then single-worker
            r = timed_rounds(wl, rec, 0.0)
            r = timed_rounds(wl, rec, 0.0, first=r, workers=1)
            untraced = round_rates(rec, len(rec.round_s) - MIN_ROUNDS)
            t = tracing.Tracer()
            t.install()
            try:
                n_before = len(rec.round_s)
                timed_rounds(wl, rec, args.seconds / 2, first=r, workers=1)
            finally:
                t.uninstall()
            traced = round_rates(rec, n_before)
            wl.check(rec)
            overhead = 100.0 * (median(untraced) / median(traced) - 1.0)
            metrics = per_layer(t, setup_t, float(overhead))
            t.dump(OUT / f"trace_{args.workload}_{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in rec.errors:
        print(f"benchmark: {err}", file=sys.stderr)
    samples = {name + sfx: getattr(rec, name + sfx) for name in (
        "round_s", "pass_s", "setup_s") for sfx in ("", "_ref")}
    print(f"benchmark samples: {json.dumps(samples)}", file=sys.stderr)
    result = {
        "correct": not rec.errors and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
