"""Command line front end.

Subcommands: simulate, run, montecarlo, compare, bench-phi.
Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import csvio
from .config import (
    ConfigError,
    RunConfig,
    config_text,
    default_config,
    load_config,
    validate_config,
)
from .eqf import InputRangeError
from .metrics import METRIC_KEYS, EmptyWindowError, MisalignedError, RmseReport, compare_report
from .runner import (NonFiniteEstimateError, drive_filter, montecarlo, resolve_workers,
                     selected_filters)
from .sim import MeasurementLog, simulate_run
from .study import bench_phi

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="abc-eqf",
                     description="Gyro-aided attitude estimation toolkit: equivariant "
                                 "filter, Imperfect-IEKF baseline, simulator and "
                                 "Monte-Carlo evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", type=Path, default=None,
                       help="config file (defaults to the built-in two-sensor scenario)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if needs_out:
            p.add_argument("--out", type=Path, required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="write sensor-log and truth CSV files")
    add_common(p_sim)

    p_run = sub.add_parser("run", help="run filter(s) over recorded logs")
    add_common(p_run)
    p_run.add_argument("--logs", type=Path, required=True,
                       help="directory holding gyro.csv, dir_<id>.csv and optional truth.csv")

    p_mc = sub.add_parser("montecarlo", help="Monte-Carlo campaign with aggregated RMSE report")
    add_common(p_mc)
    p_mc.add_argument("--runs", type=int, default=25, help="number of runs")
    for p in (p_run, p_mc):
        p.add_argument("--filter", choices=("eqf", "iekf", "both"), default=None)

    p_cmp = sub.add_parser("compare", help="side-by-side table from report CSV files")
    p_cmp.add_argument("reports", type=Path, nargs="+", help="rmse report CSV files")
    p_cmp.add_argument("--out", type=Path, default=None, help="output directory")

    p_bench = sub.add_parser("bench-phi", help="covariance discretization runtime study")
    p_bench.add_argument("--steps", type=int, default=4000)
    p_bench.add_argument("--dt", type=float, default=0.005)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", type=Path, default=None)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "filter", None):
        cfg.filter = args.filter
    return validate_config(cfg)


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate_run(cfg)
    csvio.write_gyro(out / "gyro.csv", sim.gyro_t, sim.gyro_omega)
    for sensor in cfg.sensors:
        csvio.write_directions(out / f"dir_{sensor.sensor_id}.csv",
                               sim.log.select(sensor.sensor_id))
    csvio.write_truth(out / "truth.csv", sim.truth)
    with csvio.open_new(out / "config_resolved.ini") as fh:
        fh.write(config_text(cfg))
    print(f"wrote {len(sim.gyro_t)} gyro samples and "
          f"{len(sim.log)} direction measurements to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load(args)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    logs: Path = args.logs
    gyro_t, gyro_omega = csvio.read_gyro(logs / "gyro.csv")
    parts = []
    for sensor in cfg.sensors:
        path = logs / f"dir_{sensor.sensor_id}.csv"
        if path.exists():
            parts.append(csvio.read_directions(path, sensor.sensor_id, sensor.kind == "gnss"))
    log = MeasurementLog.merge(parts)
    truth = None
    if (logs / "truth.csv").exists():
        truth = csvio.read_truth(logs / "truth.csv")

    with csvio.open_new(out / "config_resolved.ini") as fh:
        fh.write(config_text(cfg))
    for kind in selected_filters(cfg):
        result = drive_filter(kind, gyro_t, gyro_omega, log, cfg, truth)
        csvio.write_estimates(out / f"est_{kind}.csv", result.est)
        if result.err is not None:
            csvio.write_error_series(out / f"err_{kind}.csv", result.err)
            rep = result.report
            print(f"{kind}: transient att {rep.transient['att_deg']:.4f} deg, "
                  f"asymptotic att {rep.asymptotic['att_deg']:.4f} deg "
                  f"({result.wall_s:.2f} s)")
        else:
            print(f"{kind}: {result.est.t.size} estimates ({result.wall_s:.2f} s)")
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    cfg = _load(args)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    workers = resolve_workers(args.runs)     # before any file is written
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    with csvio.open_new(out / "config_resolved.ini") as fh:
        fh.write(config_text(cfg))
    result = montecarlo(cfg, args.runs, workers)

    filters = selected_filters(cfg)
    csvio.write_table(out / "per_run.csv",
                      ["run", "filter", "att_T", "bias_T", "cal_T",
                       "att_A", "bias_A", "cal_A", "nees_att", "wall_s"],
                      ([row["run"], kind]
                       + [row[kind]["report"].transient[k] for k in METRIC_KEYS]
                       + [row[kind]["report"].asymptotic[k] for k in METRIC_KEYS]
                       + [row[kind]["nees"], row[kind]["wall_s"]]
                       for row in result.per_run for kind in filters))

    rows = []
    for kind in filters:
        rep = result.aggregate[kind]
        for phase in ("transient", "asymptotic"):
            rows.append({"filter": kind, "phase": phase,
                         **{k: getattr(rep, phase)[k] for k in METRIC_KEYS},
                         "runtime_s": result.runtimes[kind]})
    csvio.write_report(out / "rmse_report.csv", rows)

    if len(filters) >= 2:
        text, _ = compare_report(result.aggregate, result.runtimes)
        with csvio.open_new(out / "comparison.txt") as fh:
            fh.write(text + "\n")
        print(text)
    else:
        rep = result.aggregate[filters[0]]
        print(f"{filters[0]}: transient att {rep.transient['att_deg']:.4f} deg, "
              f"asymptotic att {rep.asymptotic['att_deg']:.4f} deg")
    return EXIT_OK


def _cmd_compare(args) -> int:
    reports: dict[str, RmseReport] = {}
    runtimes: dict[str, float] = {}
    for path in args.reports:
        for row in csvio.read_report(path):
            rep = reports.setdefault(row["filter"], RmseReport())
            getattr(rep, row["phase"]).update(
                {k: row[k] for k in METRIC_KEYS})
            if row.get("runtime_s") is not None:
                runtimes[row["filter"]] = row["runtime_s"]
    if len(reports) < 2:
        raise ConfigError("comparison needs reports from at least two filters")
    text, rows = compare_report(reports, runtimes or None)
    print(text)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        with csvio.open_new(args.out / "comparison.txt") as fh:
            fh.write(text + "\n")
        csvio.write_table(args.out / "comparison.csv", list(rows[0]),
                          (row.values() for row in rows))
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    if not (args.dt > 0.0 and math.isfinite(args.dt)):
        raise ConfigError("--dt must be finite and > 0")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    result = bench_phi(steps=args.steps, dt=args.dt, seed=args.seed)
    labels = {
        "closed": "(i) closed form",
        "expm": "(ii) expm(A dt)",
        "euler": "(iii) I + A dt",
        "ode45": "(iv) RK45 joint ODE",
    }
    print(f"{'variant':<22}{'time [s]':>12}{'relative':>12}")
    for key, label in labels.items():
        print(f"{label:<22}{result.times[key]:>12.4f}{result.relative[key]:>11.1f}%")
    print(f"max |cov(i) - cov(ii)|  = {result.cov_gap_expm:.3e}")
    print(f"max |cov(i) - cov(iii)| = {result.cov_gap_euler:.3e}")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        csvio.write_table(args.out / "bench_phi.csv", ["variant", "time_s", "relative_pct"],
                          ([key, result.times[key], result.relative[key]] for key in labels))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "montecarlo": _cmd_montecarlo,
    "compare": _cmd_compare,
    "bench-phi": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (csvio.ParseError, InputRangeError, MisalignedError, EmptyWindowError,
            NonFiniteEstimateError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
