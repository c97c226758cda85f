"""Drivers: the one driver loop, single-log replay and Monte-Carlo campaigns.

Every log is filtered by the one loop of :func:`drive_batch`, which filters
runs that share one gyro clock in lockstep: a single log
(:func:`drive_filter`) as a batch of one run whose messages name no run, a
campaign slice as a batch of many.  Run r is row r of the stacked state of
eqf's kernels, and every step propagates all runs with one set of numpy
calls; a batch of one run has no run axis.  The steps are the filters' own
kernels (eqf._eqf_propagate, eqf._eqf_update, iekf._iekf_propagate,
iekf._iekf_update, eqf._reproject), which the library steps run on one run,
so a single log gives the library loop's bits.  No step mixes numbers of
two runs, so a run's estimates do not depend on the other runs of its batch.

The loop propagates on every gyro sample and applies direction measurements
sequentially at their own timestamps (:func:`tick_groups`); measurements
that share a timestamp (within 1e-6 s) are applied as one stacked update,
and measurements later than the last gyro sample are ignored.  The updates
due at a step are taken slot by slot (slot j holds the j-th measurement
group of each run at that step), and within a slot the runs whose group
measures the same sensors form one bucket, gathered, updated as a stack and
scattered back.  Dropout, jitter and missing GNSS rows only change which
runs sit in which bucket.

Every check of the library path is kept and names the run (a single log's
messages name none): the gyro steps (:func:`eqf._check_step`'s rules) and
the measurements (known sensor, reference, unit norm, time) are checked
once, when the schedule is built (:func:`build_schedule`); an S that fails
the condition rule skips the update of its run only, with the library's
warning; a non-finite S ends the loop, and a non-finite estimate raises
NonFiniteEstimateError; the REPROJECT_EVERY re-projection is one batched
SVD.

The loop only filters and records estimates; the evaluation against truth
(interpolation, error series, attitude NEES) runs after it, in
:func:`finish_run`, so `FilterRun.wall_s`, the `wall_s` column of per-run
reports and the runtime row of comparison tables cover filtering only.

Monte-Carlo runs use per-run seeds derived as base seed + run index.  The
runs are split into contiguous run-index slices, one per worker of a process
pool (worker count from the ABC_EQF_THREADS environment variable when set),
and each worker filters its slice as one batch per filter; since no run
depends on the others of its batch, results do not depend on the pool size.
A batched run's `wall_s` is the batch's filtering wall time divided by the
number of runs in it.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig, validate_config, with_seed
from .eqf import (
    MEASUREMENT_SLACK,
    REPROJECT_EVERY,
    BadDimensionError,
    Bucket,
    DirectionMeasurement,
    NoiseConfig,
    NonFiniteEstimateError,
    SensorModel,
    _check_modes,
    _check_sigma0,
    _check_step,
    _eqf_propagate,
    _eqf_update,
    _gather_index,
    _layout,
    _MAX_STEP_TURN_SQ,
    _measured_sensors,
    _output_table,
    _reproject,
    _sensor_keys,
    _State,
    validate_layout,
)
from .iekf import _iekf_propagate, _iekf_update, _propagation_constants
from .metrics import (
    EstimateSeries,
    RmseReport,
    error_series,
    mc_aggregate,
    report_from_series,
    window_mean,
)
from .sim import GroundTruth, MeasurementLog, SimData, as_log, simulate_run

STACK_TIME_TOL = 1e-6


def build_sensors(cfg: RunConfig) -> list[SensorModel]:
    sensors = []
    for s in cfg.sensors:
        ref = s.reference if s.kind == "fixed" else None
        sensors.append(SensorModel(s.sensor_id, s.calibrated, s.filter_sigma_y, ref))
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
    """The updates of one log in replay order, as (gyro step, group) pairs:
    :func:`build_schedule`'s grouping of the measurements, sorted by (t,
    sensor id), as lists of them.

    A measurement is due at the first gyro step k with t <= gyro_t[k] + 1e-12.
    A group starts at the next due measurement and takes every following
    measurement stamped within STACK_TIME_TOL of it; the groups due at one
    step are applied in order.  Measurements later than the last gyro sample
    are in no group.
    """
    meas = sorted(measurements, key=lambda m: (m.t, m.sensor_id))
    t = np.array([m.t for m in meas], dtype=float)
    first, stop, step = _groups(np.asarray(gyro_t, dtype=float), t,
                                np.zeros(t.size, dtype=np.intp))
    return [(k, meas[i:j]) for k, i, j in zip(step.tolist(), first.tolist(), stop.tolist())]


def _groups(gyro_t: np.ndarray, t: np.ndarray, run: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The update groups of the logs with measurement times t, sorted within
    each run, of the runs run (non-decreasing): the first index, the index
    after the last and the due step of each group due at a gyro step.

    A group starts at a measurement and holds every following one of its run
    within STACK_TIME_TOL of it: the tolerance chains from each group's first
    member, not from its neighbour.  Where two neighbours are further apart
    than STACK_TIME_TOL, a group ends, since the time from any earlier member
    rounds to no less; a stretch of near ties whose whole span is within the
    tolerance is one group.  Only the other stretches are walked in Python.
    """
    if not t.size:
        return (np.empty(0, dtype=np.intp),) * 3
    with np.errstate(invalid="ignore"):        # NaN and inf times end a stretch
        tie = (np.diff(t) <= STACK_TIME_TOL) & (run[1:] == run[:-1])
        first = np.flatnonzero(np.concatenate(([True], ~tie)))
        stop = np.append(first[1:], t.size)
        wide = np.flatnonzero(t[stop - 1] - t[first] > STACK_TIME_TOL)
    if wide.size:
        more = []
        for i, j in zip(first[wide].tolist(), stop[wide].tolist()):
            t0 = float(t[i])
            for k, tk in enumerate(t[i + 1:j].tolist(), start=i + 1):
                if not tk - t0 <= STACK_TIME_TOL:
                    more.append(k)
                    t0 = tk
        first = np.union1d(first, more).astype(np.intp)
        stop = np.append(first[1:], t.size)
    step = np.searchsorted(gyro_t + 1e-12, t[first])
    due = step < gyro_t.size
    return first[due], stop[due], step[due]


# ---------------------------------------------------------------------------
# Schedule


@dataclass
class Schedule:
    """The inputs of a batch, checked and arranged per gyro step."""

    gyro_t: np.ndarray          # (K,) shared by every run
    omega: np.ndarray           # (K, R, 3) gyro samples
    t: list[float]              # filter time at each step
    updates: list               # per step, its buckets in slot order
    first_run: int | None       # run number of row 0, for messages; None for one log
    names: np.ndarray           # (R,) "run r: " naming each run in messages, "" for one log


def build_schedule(cfg: RunConfig, gyro_ts: list[np.ndarray], omegas: list[np.ndarray],
                   logs: list[MeasurementLog | list[DirectionMeasurement]],
                   first_run: int | None = 0) -> Schedule:
    """Check and arrange the logs of R runs of one configuration, numbered
    first_run, first_run + 1, ..., or of one log when first_run is None.
    Each run's measurements are a MeasurementLog, or DirectionMeasurement
    objects that :func:`sim.as_log` sorts into one.

    Every run must have the same gyro times (ValueError otherwise).  A gyro
    step that :func:`eqf._check_step` rejects raises its error, and a
    measurement the library update would reject raises the library's error;
    both messages start with the run number, unless first_run is None.

    The measurements of all runs are grouped at once (:func:`_groups`), laid
    out bucket by bucket, and checked and converted as whole-log arrays, so
    that each bucket's y, refs and output table (:func:`eqf._output_table`)
    are contiguous slices (views) of them, read-only since both filters read
    one schedule.  The buckets have no run axis when there is one run.
    """
    gyro_t = np.asarray(gyro_ts[0], dtype=float)
    for r, other in enumerate(gyro_ts):
        if not np.array_equal(other, gyro_t):
            raise ValueError(f"run {first_run + r}: gyro times differ from run "
                             f"{first_run}'s; the runs of a batch share one gyro clock")
    runs, k_total = len(omegas), gyro_t.size
    names = np.array([""] * runs if first_run is None
                     else [f"run {first_run + r}: " for r in range(runs)])
    omegas = [np.asarray(w, dtype=float) for w in omegas]
    for name, w in zip(names, omegas):
        if w.shape != (k_total, 3):
            raise BadDimensionError(f"{name}gyro samples of shape {w.shape} do not match "
                                    f"{k_total} gyro times")
    omega = np.stack(omegas, axis=1)
    dts = np.diff(gyro_t)
    # the library filters' time: t0 plus the steps, added one at a time
    t = np.cumsum(np.concatenate((gyro_t[:1], dts)))
    _check_steps(omega[1:], dts, t, names)

    logs = [as_log(log) for log in logs]
    configured = build_sensors(cfg)
    # each measurement's sensor as a number: its index in configured, or one
    # past them for every other sensor id
    number = {s.sensor_id: i for i, s in enumerate(configured)}
    for log in logs:
        for sid in log.ids:
            number.setdefault(sid, len(number))
    sensor = np.concatenate([np.array([number[sid] for sid in log.ids], dtype=np.intp)[log.sensor]
                             for log in logs])
    meas_t = np.concatenate([log.t for log in logs])
    run = np.repeat(np.arange(runs), [len(log) for log in logs])
    first, stop, step = _groups(gyro_t, meas_t, run)
    size = stop - first
    # slot j of a step holds each run's j-th group due at it
    at = run[first] * k_total + step
    slot = np.arange(at.size) - np.searchsorted(at, at)
    # A bucket is one step, slot and sequence of sensors; its groups go run
    # by run, and the buckets of one step and slot by their first run.
    seq = _sequence_keys(sensor, first, size, len(number))
    order = np.lexsort((run[first], seq, slot, step))
    change = ((np.diff(step[order]) != 0) | (np.diff(slot[order]) != 0)
              | (np.diff(seq[order]) != 0))
    starts = np.flatnonzero(np.concatenate(([order.size > 0], change)))
    counts = np.diff(np.append(starts, order.size))
    by_first_run = np.lexsort((run[first[order[starts]]], slot[order[starts]],
                               step[order[starts]]))
    starts, counts = starts[by_first_run], counts[by_first_run]
    groups = order[_ranges(starts, counts)]
    meas = _ranges(first[groups], size[groups])      # the measurements, bucket by bucket
    m_run, m_sensor, m_step = run[meas], sensor[meas], np.repeat(step[groups], size[groups])
    n_cal = cfg.n_cal
    y, refs = _checked_arrays(configured, n_cal, list(number), m_sensor, meas_t[meas],
                              np.concatenate([log.y for log in logs])[meas],
                              np.concatenate([log.reference for log in logs])[meas],
                              t[m_step], names[m_run])
    table = _output_table(refs)
    for a in (y, refs, table):      # both filters read them: no kernel may write them
        a.flags.writeable = False
    keys = _sensor_keys(configured)

    updates: list = [()] * k_total
    shape = (-1,) if runs > 1 else ()
    b_group = order[starts]
    b_size = size[b_group]
    m0s = np.cumsum(b_size * counts) - b_size * counts
    for k, width, count, m0 in zip(step[b_group].tolist(), b_size.tolist(), counts.tolist(),
                                   m0s.tolist()):
        m1 = m0 + count * width
        rows = m_run[m0:m1:width]
        layout = _layout(tuple(keys[i] for i in m_sensor[m0:m0 + width].tolist()), n_cal)
        if not updates[k]:
            updates[k] = []
        sel = slice(None) if count == runs else rows
        updates[k].append(Bucket(rows, sel, names[sel], *layout,
                                 y[m0:m1].reshape(shape + (width, 3)),
                                 refs[m0:m1].reshape(shape + (width, 3)),
                                 table[m0:m1].reshape(shape + (7 * width,))))
    return Schedule(gyro_t, omega, t.tolist(), updates, first_run, names)


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[0], ..., start[0] + count[0] - 1, start[1], ...: the indices
    of the ranges one after the other."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(count.sum())


def _sequence_keys(values: np.ndarray, first: np.ndarray, size: np.ndarray, base: int
                   ) -> np.ndarray:
    """A number for each sequence values[first[g]:first[g] + size[g]] of
    numbers in [0, base): equal numbers for equal sequences, distinct ones
    otherwise.  Each position appends its value to the longer sequences'
    numbers, above every number so far."""
    key = values[first].astype(np.int64)
    top = base                       # every key is below top
    for j in range(1, int(size.max(initial=1))):
        if top > 2 ** 62 // (base + 1):
            key = np.unique(key, return_inverse=True)[1]
            top = int(key.max()) + 1
        longer = np.flatnonzero(size > j)
        key[longer] = top + key[longer] * base + values[first[longer] + j]
        top += top * base
    return key


def _check_steps(omega: np.ndarray, dts: np.ndarray, t: np.ndarray, names: np.ndarray) -> None:
    """_check_step's rule on every step of every run at once; the first
    failing step (earliest, then lowest run) raises the library's error."""
    x, y, z = omega[..., 0], omega[..., 1], omega[..., 2]
    dt = dts[:, None]
    with np.errstate(over="ignore", invalid="ignore"):    # inf and NaN fail the test
        ok = (dt > 0.0) & ((x * x + y * y + z * z) * dt * dt <= _MAX_STEP_TURN_SQ)
    if ok.all():
        return
    k, r = np.argwhere(~ok)[0]
    try:
        _check_step(omega[k, r], dts[k], float(t[k]))
    except ValueError as exc:
        raise type(exc)(f"{names[r]}{exc}") from None


def _checked_arrays(configured: list[SensorModel], n_cal: int, ids: list[str],
                    sensor: np.ndarray, t: np.ndarray, y: np.ndarray, reference: np.ndarray,
                    filter_t: np.ndarray, names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions y (M, 3) and reference directions (M, 3) of measurements
    stamped t by the sensors ids[sensor], the first len(configured) of them
    configured, carrying the references reference (NaN for none), applied at
    the filter times filter_t by the runs named names to states with n_cal
    calibration states.  The first measurement that
    :func:`eqf._measured_sensors` rejects raises its error, prefixed by its
    run's name; the vectorized tests below pass every other one to it only
    when in doubt."""
    n = len(configured)
    nan3 = (math.nan,) * 3
    table = np.array([nan3 if s.reference is None else s.reference for s in configured]
                     + [nan3], dtype=float)
    known = sensor < n
    fixed_ref = table[np.minimum(sensor, n)]      # NaN unless the sensor's is fixed
    fixed = ~np.isnan(fixed_ref[:, 0])
    refs = np.where(fixed[:, None], fixed_ref, reference)
    bad = t > filter_t + MEASUREMENT_SLACK
    bad |= ~known | np.isnan(refs).all(axis=1)
    bad |= ~(_near_unit(y) & (_near_unit(refs) | fixed | ~known))
    for i in np.flatnonzero(bad).tolist():
        ref = reference[i]
        m = DirectionMeasurement(float(t[i]), ids[sensor[i]], y[i],
                                 None if np.isnan(ref).all() else ref)
        try:
            _measured_sensors([m], configured, float(filter_t[i]), n_cal)
        except ValueError as exc:
            raise type(exc)(f"{names[i]}{exc}") from None
    return y, refs


def _near_unit(v: np.ndarray) -> np.ndarray:
    """Mask of the vectors v (..., 3) whose norm is within 0.5e-6 of 1.  These
    pass eqf._is_unit whatever the rounding; the others are decided by it,
    through _measured_sensors."""
    with np.errstate(over="ignore", invalid="ignore"):    # inf and NaN fail the test
        return np.abs(np.sqrt((v * v).sum(axis=-1)) - 1.0) <= 0.5e-6


# ---------------------------------------------------------------------------
# Driver


def drive_batch(kind: str, schedule: Schedule, cfg: RunConfig,
                truths: list[GroundTruth] | None = None) -> list[FilterRun]:
    """Filter every run of the schedule with one filter, in lockstep.

    Returns one FilterRun per run, evaluated against truths[r] when given.
    A run's wall_s is the loop's wall time divided by the number of runs.

    An update whose S is not finite ends the loop at its step: the first
    non-finite estimate or covariance up to that step raises
    NonFiniteEstimateError (:func:`finish_run`), or, when there is
    none, the update's own error.
    """
    if kind not in ("eqf", "iekf"):
        raise ValueError(f"unknown filter kind: {kind!r}")
    n = cfg.n_cal
    d = 6 + 3 * n
    k_total, runs = schedule.gyro_t.size, len(schedule.names)
    lead = () if runs == 1 else (runs,)      # a batch of one run has no run axis
    noise = noise_config(cfg)
    # Both filters start at the identity, where iekf_init's rotation of
    # sigma0 leaves it as it is.
    sigma0 = _check_sigma0(initial_sigma(cfg), n)
    if kind == "eqf":
        _check_modes(cfg.md_mode, cfg.residual_mode)
        update, propagate, p_args = _eqf_update, _eqf_propagate, (noise, _gather_index(d))
    else:
        s_u, eye = _propagation_constants(noise.sigma_w, noise.sigma_bw, noise.sigma_kappa, n)
        propagate, p_args = _iekf_propagate, (s_u, np.tile(eye, lead + (1, 1)))
        update = _iekf_update
    st = _State(np.tile(np.eye(3), lead + (1 + n, 1, 1)), np.zeros(lead + (3,)),
                np.tile(sigma0, lead + (1, 1)))

    rec_f = np.empty((runs, k_total, 1 + n, 3, 3))
    rec_v = np.empty((runs, k_total, 3))
    sig_diag = np.empty((runs, k_total, d))
    sig_att = np.empty((runs, k_total, 3, 3))
    omega, t, updates = schedule.omega.reshape(k_total, *lead, 3), schedule.t, schedule.updates
    dts = np.diff(schedule.gyro_t).tolist()
    stop = None
    t_start = time.perf_counter()
    # a non-finite S ends the loop, finish_run raises: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_total):
            if k > 0:
                propagate(st, omega[k], dts[k - 1], *p_args)
                if k % REPROJECT_EVERY == 0:
                    st.f = _reproject(st.f, schedule.names)
            try:
                for b in updates[k]:
                    update(st, b, t[k])
            except NonFiniteEstimateError as exc:
                stop = exc
            rec_f[:, k] = st.f
            rec_v[:, k] = st.v
            sig_diag[:, k] = st.sigma.reshape(runs, d * d)[:, ::d + 1]
            sig_att[:, k] = st.sigma[..., 0:3, 0:3]
            if stop is not None:        # the records end at this step
                k_total = k + 1
                rec_f, rec_v, sig_diag, sig_att = (a[:, :k_total]
                                                   for a in (rec_f, rec_v, sig_diag, sig_att))
                truths = None
                break
    rot = rec_f[:, :, 0]
    if kind == "eqf":
        # state_from_group: (A, -A^T a, A^T B_i)
        at = np.swapaxes(rot, -1, -2)
        est_b = -(at @ rec_v[..., None])[..., 0]
        est_c = at[:, :, None] @ rec_f[:, :, 1:]
    else:
        est_b, est_c = rec_v, rec_f[:, :, 1:]
    wall = time.perf_counter() - t_start

    out = []
    for r in range(runs):
        est = EstimateSeries(schedule.gyro_t[:k_total].copy(), rot[r].copy(), est_b[r].copy(),
                             est_c[r].copy(), sig_diag[r])
        label = kind if schedule.first_run is None else f"{kind} run {schedule.first_run + r}"
        out.append(finish_run(label, est, sig_att[r], wall / runs,
                              truths[r] if truths is not None else None))
    if stop is not None:
        raise stop
    return out


def drive_filter(kind: str, gyro_t: np.ndarray, gyro_omega: np.ndarray,
                 measurements: MeasurementLog | list[DirectionMeasurement], cfg: RunConfig,
                 truth: GroundTruth | None = None) -> FilterRun:
    """Replay one gyro + measurement log through one filter, as a batch of
    one run whose messages name no run.

    The filter starts at the first gyro time.  Measurements later than the
    last gyro sample are ignored: no estimate is recorded after them.
    """
    schedule = build_schedule(cfg, [gyro_t], [gyro_omega], [measurements], first_run=None)
    return drive_batch(kind, schedule, cfg, None if truth is None else [truth])[0]


def finish_run(label: str, est: EstimateSeries, sig_att: np.ndarray, wall_s: float,
               truth: GroundTruth | None) -> FilterRun:
    """A run's FilterRun from the estimates and attitude covariance blocks
    that :func:`drive_batch` recorded: the finite check, then, with
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
    return {kind: drive_filter(kind, sim.gyro_t, sim.gyro_omega, sim.log, cfg, sim.truth)
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
    cfg, start, stop = args
    sims = [simulate_run(with_seed(cfg, cfg.seed + r)) for r in range(start, stop)]
    schedule = build_schedule(cfg, [s.gyro_t for s in sims], [s.gyro_omega for s in sims],
                              [s.log for s in sims], first_run=start)
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
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ConfigError(f"ABC_EQF_THREADS must be an integer, got {env!r}") from None
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
