"""Drivers: single-run filtering and Monte-Carlo campaigns.

The measurement loop propagates on every gyro sample and applies direction
measurements sequentially at their own timestamps; measurements that share a
timestamp (within 1e-6 s) are applied as one stacked update, and
measurements later than the last gyro sample are ignored.  The loop only
filters and records estimates; the evaluation against truth (interpolation,
error series, attitude NEES) runs after it, so `FilterRun.wall_s`, the
`wall_s` column of per-run reports and the runtime row of comparison tables
cover filtering only.

Monte-Carlo runs execute on a process pool (worker count from the
ABC_EQF_THREADS environment variable when set) with per-run seeds derived as
base seed + run index, so results do not depend on the pool size.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .config import RunConfig, validate_config, with_seed
from .eqf import (
    DirectionMeasurement,
    NoiseConfig,
    SensorModel,
    eqf_init,
    eqf_propagate,
    eqf_update,
    validate_layout,
)
from .iekf import iekf_init, iekf_propagate, iekf_update
from .metrics import (
    EstimateSeries,
    RmseReport,
    error_series,
    mc_aggregate,
    report_from_series,
    window_mean,
)
from .sim import GroundTruth, SimData, simulate_run
from .symmetry import identity_state, state_from_group

STACK_TIME_TOL = 1e-6


class NonFiniteEstimateError(ArithmeticError):
    """Raised when a filter's estimate or covariance diagonal is not finite."""


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


def _filter_callables(kind: str, cfg: RunConfig, sensors: list[SensorModel], t0: float):
    """Initial state at time t0 and the propagate, update and estimate
    callables of one filter, bound to the config.

    Built per call and through module globals, so that functions patched on
    this module (by a tracer, say) are the ones that run.
    """
    noise = noise_config(cfg)
    sigma0 = initial_sigma(cfg)
    if kind == "eqf":
        return (eqf_init(cfg.n_cal, sensors, noise, sigma0, t0),
                partial(eqf_propagate, noise=noise, md_mode=cfg.md_mode),
                partial(eqf_update, sensors=sensors, residual_mode=cfg.residual_mode),
                lambda state: state_from_group(state.xhat))
    if kind == "iekf":
        return (iekf_init(identity_state(cfg.n_cal), sigma0, t0),
                partial(iekf_propagate, noise=noise),
                partial(iekf_update, sensors=sensors),
                attrgetter("xi"))
    raise ValueError(f"unknown filter kind: {kind!r}")


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


def drive_filter(kind: str, gyro_t: np.ndarray, gyro_omega: np.ndarray,
                 measurements: list[DirectionMeasurement], cfg: RunConfig,
                 truth: GroundTruth | None = None) -> FilterRun:
    """Replay one gyro + measurement log through one filter.

    The filter starts at the first gyro time.  Measurements later than the
    last gyro sample are ignored: no estimate is recorded after them.
    """
    t0 = float(gyro_t[0]) if gyro_t.size else 0.0
    state, propagate, update, estimate = _filter_callables(kind, cfg, build_sensors(cfg), t0)

    k_total = gyro_t.size
    n = cfg.n_cal
    est_r = np.empty((k_total, 3, 3))
    est_b = np.empty((k_total, 3))
    est_c = np.empty((k_total, n, 3, 3))
    sig_diag = np.empty((k_total, 6 + 3 * n))
    sig_att = np.empty((k_total, 3, 3))

    mi = 0
    m_total = len(measurements)
    t_start = time.perf_counter()
    for k in range(k_total):
        if k > 0:
            state = propagate(state, gyro_omega[k], gyro_t[k] - gyro_t[k - 1])
        while mi < m_total and measurements[mi].t <= gyro_t[k] + 1e-12:
            group = [measurements[mi]]
            mi += 1
            while mi < m_total and measurements[mi].t - group[0].t <= STACK_TIME_TOL:
                group.append(measurements[mi])
                mi += 1
            state = update(state, group)
        xi = estimate(state)
        est_r[k] = xi.R
        est_b[k] = xi.b
        for j in range(n):
            est_c[k, j] = xi.C[j]
        sigma = state.sigma
        sig_diag[k] = sigma.diagonal()
        sig_att[k] = sigma[0:3, 0:3]
    wall = time.perf_counter() - t_start

    finite = np.ones(k_total, dtype=bool)
    for arr in (sig_diag, est_r, est_b, est_c):
        finite &= np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteEstimateError(
            f"{kind}: first non-finite estimate or covariance at gyro step {k} "
            f"(t = {gyro_t[k]:.6g} s)")

    est = EstimateSeries(gyro_t.copy(), est_r, est_b, est_c, sig_diag)
    run = FilterRun(est, wall_s=wall)
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


def _mc_task(args: tuple[RunConfig, int]) -> dict:
    cfg, run_idx = args
    run_cfg = with_seed(cfg, cfg.seed + run_idx)
    sim = simulate_run(run_cfg)
    split = 0.5 * cfg.duration
    out: dict = {"run": run_idx}
    for kind, result in run_filters(sim, run_cfg).items():
        out[kind] = {
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
    """Parallel Monte-Carlo campaign; deterministic for a given base seed."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    validate_config(cfg)
    tasks = [(cfg, r) for r in range(runs)]
    nworkers = resolve_workers(runs, workers)
    if nworkers == 1:
        results = [_mc_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_mc_task, tasks, chunksize=1))
    results.sort(key=lambda r: r["run"])

    aggregate: dict[str, RmseReport] = {}
    nees: dict[str, float] = {}
    runtimes: dict[str, float] = {}
    for kind in selected_filters(cfg):
        aggregate[kind] = mc_aggregate([r[kind]["report"] for r in results])
        nees[kind] = float(np.mean([r[kind]["nees"] for r in results]))
        runtimes[kind] = float(np.mean([r[kind]["wall_s"] for r in results]))
    return McResult(results, aggregate, nees, runtimes)
