"""Drivers: single-run filtering, Monte-Carlo campaigns and the covariance
discretization runtime study.

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
    MD_ANALYTIC,
    DirectionMeasurement,
    FilterState,
    NoiseConfig,
    SensorModel,
    compute_A0,
    compute_Md,
    compute_phi,
    eqf_init,
    eqf_propagate,
    eqf_update,
    phi_and_md,
    propagate_mean,
    sigma_u,
    validate_layout,
)
from .iekf import iekf_init, iekf_propagate, iekf_update
from .lie import wedge
from .metrics import (
    EstimateSeries,
    RmseReport,
    error_series,
    mc_aggregate,
    report_from_series,
    window_mean,
)
from .sim import GroundTruth, SimData, simulate_run
from .symmetry import GroupElement, identity_state, state_from_group

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


def _filter_callables(kind: str, cfg: RunConfig, sensors: list[SensorModel]):
    """Initial state and the propagate, update and estimate callables of one
    filter, bound to the config.

    Built per call and through module globals, so that functions patched on
    this module (by a tracer, say) are the ones that run.
    """
    noise = noise_config(cfg)
    sigma0 = initial_sigma(cfg)
    if kind == "eqf":
        return (eqf_init(cfg.n_cal, sensors, noise, sigma0),
                partial(eqf_propagate, noise=noise, md_mode=cfg.md_mode),
                partial(eqf_update, sensors=sensors, residual_mode=cfg.residual_mode),
                lambda state: state_from_group(state.xhat))
    if kind == "iekf":
        return (iekf_init(identity_state(cfg.n_cal), sigma0),
                partial(iekf_propagate, noise=noise),
                partial(iekf_update, sensors=sensors),
                attrgetter("xi"))
    raise ValueError(f"unknown filter kind: {kind!r}")


@dataclass
class FilterRun:
    """Outcome of one filter over one run."""

    name: str
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

    Measurements later than the last gyro sample are ignored: no estimate is
    recorded after them.
    """
    state, propagate, update, estimate = _filter_callables(kind, cfg, build_sensors(cfg))

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
        sig_diag[k] = np.diag(sigma)
        sig_att[k] = sigma[0:3, 0:3]
    wall = time.perf_counter() - t_start

    est = EstimateSeries(gyro_t.copy(), est_r, est_b, est_c, sig_diag)
    run = FilterRun(kind, est, wall_s=wall)
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
    sim = simulate_run(run_cfg, run=0)
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


# ---------------------------------------------------------------------------
# Covariance discretization runtime study


@dataclass
class BenchResult:
    times: dict[str, float]
    relative: dict[str, float]               # percent, closed form = 100
    cov_gap_expm: float                      # |final cov (i) - (ii)|_max
    cov_gap_euler: float                     # one-step |cov (i) - (iii)|_max at theta = 0.1
    phi_gap_euler: float                     # one-step |Phi - (I + A dt)|_max at theta = 0.1
    steps: int = 0
    dt: float = 0.0


def _bench_gyro(steps: int, dt: float, seed: int) -> np.ndarray:
    # realistic excitation (a few rad/s), comparable to the simulated flights
    rng = np.random.default_rng(seed)
    t = np.arange(steps) * dt
    base = np.stack([
        2.2 * np.sin(0.8 * t),
        1.6 * np.sin(0.5 * t + 1.0),
        1.1 * np.sin(0.3 * t + 2.0),
    ], axis=1)
    return base + rng.normal(0.0, 0.02, size=base.shape)


def _bench_sensors(n: int) -> list[SensorModel]:
    sensors = [SensorModel(f"cal{i}", True, 0.1, np.array([1.0, 0.0, 0.0]))
               for i in range(n)]
    sensors.append(SensorModel("dir", False, 0.1, np.array([0.0, 0.0, 1.0])))
    validate_layout(sensors)
    return sensors


def _bench_measurements(steps: int, every: int, sensors: list[SensorModel],
                        seed: int) -> dict[int, list[DirectionMeasurement]]:
    rng = np.random.default_rng(seed + 1)
    table: dict[int, list[DirectionMeasurement]] = {}
    for k in range(0, steps, every):
        group = []
        for s in sensors:
            y = s.reference + rng.normal(0.0, 0.1, 3)
            group.append(DirectionMeasurement(k * 0.0, s.sensor_id,
                                              y / np.linalg.norm(y)))
        table[k] = group
    return table


def _run_variant(variant: str, gyro: np.ndarray, dt: float, noise: NoiseConfig,
                 n: int, sigma0: np.ndarray, sensors: list[SensorModel],
                 meas: dict[int, list[DirectionMeasurement]]
                 ) -> tuple[float, np.ndarray]:
    """One full filter pass: identical mean propagation and update machinery,
    only the covariance propagation strategy differs."""
    from scipy.linalg import expm

    fs = eqf_init(n, sensors, noise, sigma0)
    mc = sigma_u(noise, n)
    mc_dt = mc * dt
    dim = 6 + 3 * n
    steps = gyro.shape[0]

    if variant == "ode45":
        from scipy.integrate import solve_ivp

        def rhs(_t, yv):
            a_mat = yv[0:9].reshape(3, 3)
            a_vec = yv[9:12]
            bs = [yv[12 + 9 * i: 21 + 9 * i].reshape(3, 3) for i in range(n)]
            sig = yv[12 + 9 * n:].reshape(dim, dim)
            omega0 = a_mat @ omega + a_vec
            da = a_mat @ wedge(a_mat.T @ omega0)
            dav = a_mat @ np.cross(omega, a_mat.T @ a_vec)
            dbs = [b @ wedge(b.T @ omega0) for b in bs]
            a0 = compute_A0(omega0, n)
            dsig = a0 @ sig + sig @ a0.T + mc
            return np.concatenate([da.reshape(9), dav]
                                  + [db.reshape(9) for db in dbs] + [dsig.reshape(-1)])

        t0 = time.perf_counter()
        for k in range(steps):
            omega = gyro[k]
            x = fs.xhat
            y0 = np.concatenate([x.A.reshape(9), x.a]
                                + [b.reshape(9) for b in x.B] + [fs.sigma.reshape(-1)])
            sol = solve_ivp(rhs, (0.0, dt), y0, method="RK45", rtol=1e-3, atol=1e-6)
            y1 = sol.y[:, -1]
            xhat = GroupElement(y1[0:9].reshape(3, 3).copy(), y1[9:12].copy(),
                                [y1[12 + 9 * i: 21 + 9 * i].reshape(3, 3).copy()
                                 for i in range(n)])
            sigma = y1[12 + 9 * n:].reshape(dim, dim)
            fs = FilterState(xhat, 0.5 * (sigma + sigma.T), fs.t + dt, fs.steps + 1)
            if k in meas:
                fs = eqf_update(fs, meas[k], sensors, slack=np.inf)
        return time.perf_counter() - t0, fs.sigma

    t0 = time.perf_counter()
    for k in range(steps):
        xhat, omega0 = propagate_mean(fs.xhat, gyro[k], dt)
        if variant == "closed":
            phi, md = phi_and_md(omega0, dt, noise, n)
            sigma = phi @ fs.sigma @ phi.T + md
        elif variant == "expm":
            phi = expm(compute_A0(omega0, n) * dt)
            md = compute_Md(omega0, dt, noise, n, MD_ANALYTIC)
            sigma = phi @ fs.sigma @ phi.T + md
        elif variant == "euler":
            # first-order truncated Euler step of the Riccati equation
            a0 = compute_A0(omega0, n)
            a_sig = a0 @ fs.sigma
            sigma = fs.sigma + dt * (a_sig + a_sig.T) + mc_dt
        else:
            raise ValueError(f"unknown variant {variant!r}")
        fs = FilterState(xhat, 0.5 * (sigma + sigma.T), fs.t + dt, fs.steps + 1)
        if k in meas:
            fs = eqf_update(fs, meas[k], sensors, slack=np.inf)
    return time.perf_counter() - t0, fs.sigma


def bench_phi(steps: int = 10000, dt: float = 0.005, n: int = 3, seed: int = 0,
              repeats: int = 7, update_every: int = 0) -> BenchResult:
    """Time four covariance propagation strategies in the same filter loop.

    (i) closed-form transition matrix with the analytic discrete noise,
    (ii) per-step matrix exponential, (iii) first-order Euler discretization,
    (iv) adaptive RK45 integration of the joint mean + covariance ODE.
    Mean propagation is identical across variants, and the loop can mix in
    identical measurement updates every update_every steps (0 = propagation
    only).  Repeats run round-robin and the minimum per variant is reported.
    """
    gyro = _bench_gyro(steps, dt, seed)
    noise = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)
    sigma0 = np.eye(6 + 3 * n) * 1e-2
    sensors = _bench_sensors(n)
    meas = _bench_measurements(steps, update_every, sensors, seed) if update_every else {}

    times = {"closed": np.inf, "expm": np.inf, "euler": np.inf}
    finals: dict[str, np.ndarray] = {}
    for _ in range(repeats):
        for variant in times:
            elapsed, sigma = _run_variant(variant, gyro, dt, noise, n, sigma0,
                                          sensors, meas)
            if elapsed < times[variant]:
                times[variant] = elapsed
            finals[variant] = sigma
    times["ode45"], finals["ode45"] = _run_variant("ode45", gyro, dt, noise, n,
                                                   sigma0, sensors, meas)

    relative = {k: 100.0 * v / times["closed"] for k, v in times.items()}

    # one-step probes at |omega| dt = 0.1: the first-order transition matrix
    # and covariance are measurably off while the closed form matches expm
    probe_omega = np.array([0.1 / dt, 0.0, 0.0])
    probe_sigma = np.eye(6 + 3 * n)
    phi_exact = compute_phi(probe_omega, dt, n)
    phi_euler = np.eye(6 + 3 * n) + compute_A0(probe_omega, n) * dt
    md_exact = compute_Md(probe_omega, dt, noise, n)
    cov_exact = phi_exact @ probe_sigma @ phi_exact.T + md_exact
    a_sig = compute_A0(probe_omega, n) @ probe_sigma
    cov_euler = probe_sigma + dt * (a_sig + a_sig.T) + sigma_u(noise, n) * dt
    return BenchResult(
        times=times,
        relative=relative,
        cov_gap_expm=float(np.max(np.abs(finals["closed"] - finals["expm"]))),
        cov_gap_euler=float(np.max(np.abs(cov_exact - cov_euler))),
        phi_gap_euler=float(np.max(np.abs(phi_exact - phi_euler))),
        steps=steps,
        dt=dt,
    )
