"""Drivers: single-run filtering and Monte-Carlo campaigns.

Every log is filtered by the one loop of :func:`batch.drive_batch`: a single
log (:func:`drive_filter`) as a batch of one run, a campaign slice as a
batch of many.  The loop propagates on every gyro sample and applies
direction measurements sequentially at their own timestamps
(:func:`tick_groups`); measurements that share a timestamp (within 1e-6 s)
are applied as one stacked update, and measurements later than the last gyro
sample are ignored.  The loop only filters and records estimates; the
evaluation against truth (interpolation, error series, attitude NEES) runs
after it, in :func:`finish_run`, so `FilterRun.wall_s`, the `wall_s` column
of per-run reports and the runtime row of comparison tables cover filtering
only.

Monte-Carlo runs use per-run seeds derived as base seed + run index.  The
runs are split into contiguous run-index slices, one per worker of a process
pool (worker count from the ABC_EQF_THREADS environment variable when set),
and each worker filters its slice as one batch per filter.  A run's
estimates do not depend on which runs share its batch, so results do not
depend on the pool size.  A batched run's `wall_s` is the batch's filtering
wall time divided by the number of runs in it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, validate_config, with_seed
from .eqf import (
    DirectionMeasurement,
    NoiseConfig,
    NonFiniteEstimateError,
    SensorModel,
    validate_layout,
)
from .metrics import (
    EstimateSeries,
    RmseReport,
    error_series,
    mc_aggregate,
    report_from_series,
    window_mean,
)
from .sim import GroundTruth, SimData, simulate_run

STACK_TIME_TOL = 1e-6


def build_sensors(cfg: RunConfig) -> list[SensorModel]:
    sensors = []
    for s in cfg.sensors:
        ref = s.reference if s.kind == "fixed" else None
        sensors.append(SensorModel(s.sensor_id, s.calibrated, s.sigma_y, ref))
    validate_layout(sensors)
    return sensors


def noise_config(cfg: RunConfig) -> NoiseConfig:
    return NoiseConfig(cfg.sigma_w, cfg.sigma_bw, cfg.sigma_kappa)


def initial_sigma(cfg: RunConfig) -> np.ndarray:
    att = np.deg2rad(cfg.sigma0_att_deg) ** 2
    cal = np.deg2rad(cfg.sigma0_cal_deg) ** 2
    return np.diag([att] * 3 + [cfg.sigma0_bias ** 2] * 3 + [cal] * 3 * cfg.n_cal)


@dataclass
class FilterRun:
    """Outcome of one filter over one run."""

    est: EstimateSeries
    err: object | None = None          # ErrorSeries when truth was available
    report: RmseReport | None = None
    wall_s: float = 0.0

    def nees_mean(self, window: tuple[float, float]) -> float:
        if self.est.nees_att is None:
            raise ValueError("run executed without truth; no NEES available")
        return window_mean(self.est.nees_att, self.est.t, window)


def tick_groups(gyro_t: np.ndarray, measurements: list[DirectionMeasurement]
                ) -> list[tuple[int, list[DirectionMeasurement]]]:
    """The updates of one log in replay order, as (gyro step, group) pairs.

    A measurement is due at the first gyro step k with t <= gyro_t[k] + 1e-12.
    A group starts at the next due measurement and takes every following
    measurement stamped within STACK_TIME_TOL of it; the groups due at one
    step are applied in order.  Measurements later than the last gyro sample
    are in no group.
    """
    groups = []
    mi = 0
    m_total = len(measurements)
    for k, tk in enumerate(gyro_t.tolist()):
        if mi == m_total:
            break
        while mi < m_total and measurements[mi].t <= tk + 1e-12:
            group = [measurements[mi]]
            mi += 1
            while mi < m_total and measurements[mi].t - group[0].t <= STACK_TIME_TOL:
                group.append(measurements[mi])
                mi += 1
            groups.append((k, group))
    return groups


def drive_filter(kind: str, gyro_t: np.ndarray, gyro_omega: np.ndarray,
                 measurements: list[DirectionMeasurement], cfg: RunConfig,
                 truth: GroundTruth | None = None) -> FilterRun:
    """Replay one gyro + measurement log through one filter, as a batch of
    one run whose messages name no run.

    The filter starts at the first gyro time.  Measurements later than the
    last gyro sample are ignored: no estimate is recorded after them.
    """
    from .batch import build_schedule, drive_batch    # batch imports this module

    schedule = build_schedule(cfg, [gyro_t], [gyro_omega], [measurements], first_run=None)
    return drive_batch(kind, schedule, cfg, None if truth is None else [truth])[0]


def finish_run(label: str, est: EstimateSeries, sig_att: np.ndarray, wall_s: float,
               truth: GroundTruth | None) -> FilterRun:
    """A run's FilterRun from the estimates and attitude covariance blocks
    that :func:`batch.drive_batch` recorded: the finite check, then, with
    truth, the error series, attitude NEES and RMSE report.

    Raises NonFiniteEstimateError, naming label, the first gyro step and its
    time, when an estimate or covariance diagonal is not finite.
    """
    finite = np.ones(est.t.size, dtype=bool)
    for arr in (est.sigma_diag, est.R, est.b, est.C):
        finite &= np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteEstimateError(
            f"{label}: first non-finite estimate or covariance at gyro step {k} "
            f"(t = {est.t[k]:.6g} s)")

    run = FilterRun(est, wall_s=wall_s)
    if truth is not None:
        run.err = error_series(truth, est)
        eps = run.err.att_vec
        est.nees_att = np.einsum("ki,ki->k", eps,
                                 np.linalg.solve(sig_att, eps[..., None])[..., 0])
        run.report = report_from_series(run.err)
    return run


def selected_filters(cfg: RunConfig) -> list[str]:
    return ["eqf", "iekf"] if cfg.filter == "both" else [cfg.filter]


def run_filters(sim: SimData, cfg: RunConfig) -> dict[str, FilterRun]:
    return {kind: drive_filter(kind, sim.gyro_t, sim.gyro_omega, sim.measurements,
                               cfg, sim.truth)
            for kind in selected_filters(cfg)}


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class McResult:
    per_run: list[dict]                      # one dict per run: filter -> summary
    aggregate: dict[str, RmseReport]
    nees: dict[str, float]                   # time/run-averaged asymptotic attitude NEES
    runtimes: dict[str, float]               # mean filtering wall time per run [s]


def _mc_task(args: tuple[RunConfig, int, int]) -> list[dict]:
    """Simulate runs start..stop - 1 of the campaign and filter them in one
    lockstep batch per filter."""
    from .batch import build_schedule, drive_batch    # batch imports this module

    cfg, start, stop = args
    sims = [simulate_run(with_seed(cfg, cfg.seed + r)) for r in range(start, stop)]
    schedule = build_schedule(cfg, [s.gyro_t for s in sims], [s.gyro_omega for s in sims],
                              [s.measurements for s in sims], first_run=start)
    split = 0.5 * cfg.duration
    out = [{"run": r} for r in range(start, stop)]
    for kind in selected_filters(cfg):
        results = drive_batch(kind, schedule, cfg, [s.truth for s in sims])
        for row, result in zip(out, results):
            row[kind] = {
                "report": result.report,
                "nees": result.nees_mean((split, np.inf)),
                "wall_s": result.wall_s,
            }
    return out


def resolve_workers(runs: int, workers: int | None = None) -> int:
    if workers is None:
        env = os.environ.get("ABC_EQF_THREADS", "")
        workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(workers, runs))


def montecarlo(cfg: RunConfig, runs: int, workers: int | None = None) -> McResult:
    """Parallel Monte-Carlo campaign; deterministic for a given base seed.

    Each worker simulates one contiguous slice of the run indices and filters
    it as one lockstep batch per filter.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    validate_config(cfg)
    nworkers = resolve_workers(runs, workers)
    tasks = [(cfg, int(part[0]), int(part[-1]) + 1)
             for part in np.array_split(np.arange(runs), nworkers)]
    if nworkers == 1:
        chunks = [_mc_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(_mc_task, tasks, chunksize=1))
    results = [row for chunk in chunks for row in chunk]

    aggregate: dict[str, RmseReport] = {}
    nees: dict[str, float] = {}
    runtimes: dict[str, float] = {}
    for kind in selected_filters(cfg):
        aggregate[kind] = mc_aggregate([r[kind]["report"] for r in results])
        nees[kind] = float(np.mean([r[kind]["nees"] for r in results]))
        runtimes[kind] = float(np.mean([r[kind]["wall_s"] for r in results]))
    return McResult(results, aggregate, nees, runtimes)
