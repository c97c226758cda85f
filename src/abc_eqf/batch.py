"""Lockstep batched filtering of runs that share one gyro clock.

A Monte-Carlo worker filters its slice of a campaign in one loop over the
gyro steps.  Run r is row r of stacked arrays: (R, 1 + n, 3, 3) rotation
factors, (R, 3) vectors and (R, d, d) covariances, and every step propagates
all runs with one set of numpy calls.  The updates due at a step are taken
slot by slot (slot j holds the j-th measurement group of each run at that
step, see :func:`runner.tick_groups`), and within a slot the runs whose group
measures the same sensors form one bucket, gathered, updated as a stack and
scattered back.  Dropout, jitter and missing GNSS rows only change which
runs sit in which bucket.

The formulas are the scalar filters' own.  The per-run scalar entries of
Phi, Md and of every exponential come from the functions the scalar path
uses (:func:`eqf._phi_md_values`, :func:`lie._exp_entries`,
:func:`lie._sdp_entries`); the output matrix has :func:`eqf.compute_C0`'s
entries; the covariance and Kalman products are the same matrix products
over a stack.  No step mixes numbers of two runs, so a run's estimates do
not depend on the other runs of its batch, and they agree with
:func:`runner.drive_filter` to rounding.

Every check of the scalar path is kept and names the run: the gyro steps
(:func:`eqf._check_step`'s rules) and the measurements (known sensor,
reference, unit norm, time) are checked once, when the schedule is built; an
S that fails the condition rule skips the update of its run only; the
REPROJECT_EVERY re-projection is one batched SVD; a non-finite estimate
raises NonFiniteEstimateError after the loop.

For a single log the scalar loop of :func:`runner.drive_filter` is faster,
so it stays the path of `run` and of the on-line filters.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import RunConfig
from .eqf import (
    _CERTIFIED_TRACE_RATIO,
    MEASUREMENT_SLACK,
    REPROJECT_EVERY,
    RESIDUAL_LITERAL,
    RESIDUAL_SUBTRACT,
    S_CONDITION_LIMIT,
    BadDimensionError,
    DirectionMeasurement,
    InputRangeError,
    NoiseConfig,
    SensorModel,
    UnknownSensorError,
    _check_sigma0,
    _check_step,
    _condition_number,
    _gather_index,
    _is_unit,
    _MAX_STEP_TURN_SQ,
    _phi_md_values,
)
from .iekf import _propagation_constants
from .lie import DegenerateError, _exp_entries, _sdp_entries, exp_so3, project_to_so3
from .metrics import EstimateSeries
from .runner import (
    FilterRun,
    build_sensors,
    finish_run,
    initial_sigma,
    noise_config,
    tick_groups,
)
from .sim import GroundTruth

logger = logging.getLogger(__name__)


@dataclass
class Bucket:
    """One stacked update: the runs whose measurement group at one step and
    slot comes from the same sensors, in the same order."""

    rows: np.ndarray            # (Rb,) rows of the batch, ascending
    sel: np.ndarray | slice     # rows, or slice(None) when it holds every row
    runs: np.ndarray            # (Rb,) the run numbers of those rows
    sensors: list[SensorModel]
    factor: np.ndarray          # (m,) rotation factor of each sensor: 0, or 1 + cal index
    y: np.ndarray               # (Rb, m, 3) measured directions
    refs: np.ndarray            # (Rb, m, 3) reference directions
    h: np.ndarray               # (Rb, 3m, d) compute_C0 of each run
    var: np.ndarray             # (3m,) sigma_y^2 of each row


@dataclass
class Schedule:
    """The inputs of a batch, checked and arranged per gyro step."""

    gyro_t: np.ndarray          # (K,) shared by every run
    omega: np.ndarray           # (K, R, 3) gyro samples
    t: list[float]              # filter time at each step
    updates: list               # per step, its buckets in slot order
    first_run: int = 0          # run number of row 0, for messages

    @property
    def runs(self) -> int:
        return self.omega.shape[1]


def build_schedule(cfg: RunConfig, gyro_ts: list[np.ndarray], omegas: list[np.ndarray],
                   measurements: list[list[DirectionMeasurement]],
                   first_run: int = 0) -> Schedule:
    """Check and arrange the logs of R runs of one configuration, numbered
    first_run, first_run + 1, ...

    Every run must have the same gyro times (ValueError otherwise).  A gyro
    step that :func:`eqf._check_step` rejects raises its error, and a
    measurement the scalar update would reject raises the scalar error; both
    messages start with the run number.
    """
    gyro_t = np.asarray(gyro_ts[0], dtype=float)
    for r, other in enumerate(gyro_ts):
        if not np.array_equal(other, gyro_t):
            raise ValueError(f"run {first_run + r}: gyro times differ from run "
                             f"{first_run}'s; the runs of a batch share one gyro clock")
    omega = np.stack([np.asarray(w, dtype=float) for w in omegas], axis=1)
    if omega.shape != (gyro_t.size, len(omegas), 3):
        raise BadDimensionError(f"gyro samples of shape {omega.shape[::-1]} per run do not "
                                f"match {gyro_t.size} gyro times")
    dts = np.diff(gyro_t)
    # the scalar filters' time: t0 plus the steps, added one at a time
    t = np.cumsum(np.concatenate((gyro_t[:1], dts))).tolist()
    _check_steps(omega[1:], dts, t, first_run)

    by_id = {s.sensor_id: s for s in build_sensors(cfg)}
    slots: dict[tuple, list] = {}
    for r, meas in enumerate(measurements):
        last_k = slot = -1
        for k, group in tick_groups(gyro_t, meas):
            slot = slot + 1 if k == last_k else 0
            last_k = k
            key = (k, slot, tuple(m.sensor_id for m in group))
            slots.setdefault(key, []).append((first_run + r, group))
    updates: list = [()] * gyro_t.size
    for (k, _, ids), members in sorted(slots.items(), key=lambda item: item[0][:2]):
        if not updates[k]:
            updates[k] = []
        updates[k].append(_bucket(ids, members, by_id, t[k], cfg.n_cal, first_run,
                                  len(omegas)))
    return Schedule(gyro_t, omega, t, updates, first_run)


def _check_steps(omega: np.ndarray, dts: np.ndarray, t: list[float], first_run: int) -> None:
    """_check_step's rule on every step of every run at once; the first
    failing step (earliest, then lowest run) raises the scalar error."""
    x, y, z = omega[..., 0], omega[..., 1], omega[..., 2]
    dt = dts[:, None]
    with np.errstate(over="ignore", invalid="ignore"):    # inf and NaN fail the test
        ok = (dt > 0.0) & ((x * x + y * y + z * z) * dt * dt <= _MAX_STEP_TURN_SQ)
    if ok.all():
        return
    k, r = np.argwhere(~ok)[0]
    try:
        _check_step(omega[k, r], dts[k], t[k])
    except ValueError as exc:
        raise type(exc)(f"run {first_run + r}: {exc}") from None


def _bucket(ids: tuple[str, ...], members: list, by_id: dict[str, SensorModel],
            t: float, n: int, first_run: int, n_rows: int) -> Bucket:
    """The Bucket of the (run number, group) members, after
    _measured_sensors' checks on every measurement."""
    r0, g0 = members[0]
    for m in g0:
        if m.sensor_id not in by_id:
            raise UnknownSensorError(
                f"run {r0}: measurement at t={m.t} names sensor {m.sensor_id!r}, not one "
                f"of the configured sensors {list(by_id)} (filter time t={t})")
    sensors = [by_id[i] for i in ids]
    for r, group in members:
        for m, s in zip(group, sensors):
            if m.t > t + MEASUREMENT_SLACK:
                raise ValueError(f"run {r}: measurement at t={m.t} is ahead of the "
                                 f"filter time {t}")
            if s.reference is None and m.reference is None:
                raise BadDimensionError(f"run {r}: sensor {s.sensor_id}: measurement "
                                        f"carries no reference")
    y = np.array([[m.y for m in group] for _, group in members], dtype=float)
    refs = np.array([[m.reference if s.reference is None else s.reference
                      for m, s in zip(group, sensors)] for _, group in members], dtype=float)
    arriving = np.array([s.reference is None for s in sensors])
    near = _near_unit(y) & (_near_unit(refs) | ~arriving)
    for i, j in np.argwhere(~near):
        if not (_is_unit(y[i, j].tolist())
                and (not arriving[j] or _is_unit(refs[i, j].tolist()))):
            r, group = members[i]
            raise InputRangeError(
                f"run {r}: measurement at t={group[j].t} from sensor {group[j].sensor_id!r}: "
                f"direction or reference is not a unit vector (filter time t={t})")
    var = np.repeat([s.sigma_y ** 2 for s in sensors], 3)
    factor = np.array([1 + s.cal_index if s.calibrated else 0 for s in sensors])
    runs = np.array([r for r, _ in members])
    rows = runs - first_run
    sel = slice(None) if len(rows) == n_rows else rows
    return Bucket(rows, sel, runs, sensors, factor, y, refs, _output_matrix(sensors, refs, n),
                  var)


def _near_unit(v: np.ndarray) -> np.ndarray:
    """Mask of the vectors v (..., 3) whose norm is within 0.5e-6 of 1.  These
    pass eqf._is_unit whatever the rounding; the others are decided by it."""
    return np.abs(np.sqrt((v * v).sum(axis=-1)) - 1.0) <= 0.5e-6


@lru_cache(maxsize=64)
def _c0_index(blocks: tuple[tuple[int, ...], ...], dim: int) -> np.ndarray:
    """Index (3m, dim) of every entry of compute_C0 into the vector
    (0, refs, -refs) of m references; blocks holds the columns of each
    sensor's wedge(d) blocks."""
    m = len(blocks)
    idx = np.zeros((3 * m, dim), dtype=np.intp)
    for k, cols in enumerate(blocks):
        x, y, z = 1 + 3 * k + np.arange(3)
        nx, ny, nz = x + 3 * m, y + 3 * m, z + 3 * m
        for j in cols:
            idx[3 * k:3 * k + 3, j:j + 3] = [[0, nz, y], [z, 0, nx], [ny, x, 0]]
    idx.flags.writeable = False
    return idx


def _output_matrix(sensors: list[SensorModel], refs: np.ndarray, n: int) -> np.ndarray:
    """compute_C0(sensors, refs[i], n) for every row i of refs (Rb, m, 3)."""
    blocks = tuple((0, 6 + 3 * s.cal_index) if s.calibrated else (0,) for s in sensors)
    flat = refs.reshape(len(refs), -1)
    vals = np.concatenate((np.zeros((len(refs), 1)), flat, -flat), axis=1)
    return vals[:, _c0_index(blocks, 6 + 3 * n)]


# ---------------------------------------------------------------------------
# Stacked kernels


def _eqf_transition(omega0: np.ndarray, dt: float, noise: NoiseConfig, idx: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = exp(omega0 dt), Phi and Md of every run, (R, 3, 3), (R, d, d) and
    (R, d, d), gathered from _phi_md_values with phi_and_md's index."""
    vals = np.array([_phi_md_values(x, y, z, dt, noise) for x, y, z in omega0.tolist()])
    phi_md = vals[:, idx]
    return vals[:, 9:18].reshape(-1, 3, 3), phi_md[:, 0], phi_md[:, 1]


def _reproject(f: np.ndarray, first_run: int) -> np.ndarray:
    """project_to_so3 of every factor (R, 1 + n, 3, 3), naming the first
    run with a degenerate factor."""
    try:
        return project_to_so3(f)
    except DegenerateError as exc:
        r = np.argwhere(np.linalg.det(f) <= 1e-12)[0][0]
        raise DegenerateError(f"run {first_run + r}: {exc}") from None


def _kalman(sigma: np.ndarray, h: np.ndarray, var: np.ndarray, residual: np.ndarray,
            t: float, runs: np.ndarray):
    """_kalman_step over a stack: (keep, K r, sigma+), where keep is None when
    every run's S passes the condition rule, and otherwise the mask of the
    runs that pass, the only ones K r and sigma+ then hold.

    The trace certificate is tested for all runs at once; a run it does not
    accept goes through the eigenvalue rule alone, and is skipped, with a
    warning naming it, when that rule fails.
    """
    sht = sigma @ h.transpose(0, 2, 1)
    s = h @ sht
    m = s.shape[1]
    s.reshape(len(s), m * m)[:, ::m + 1] += var
    var_min = var.min()
    if var_min > 0.0:
        keep = (np.isfinite(s.sum(axis=(1, 2)))
                & (np.trace(s, axis1=1, axis2=2) <= _CERTIFIED_TRACE_RATIO * var_min))
    else:
        keep = np.zeros(len(s), dtype=bool)
    if keep.all():
        keep = None
    else:
        for i in np.flatnonzero(~keep):
            cond = _condition_number(s[i])
            keep[i] = cond <= S_CONDITION_LIMIT
            if not keep[i]:
                logger.warning("run %d: update at t=%.6f skipped: S condition number %.3e",
                               runs[i], t, cond)
        if not keep.any():
            return keep, None, None
        sigma, sht, s, h, residual = sigma[keep], sht[keep], s[keep], h[keep], residual[keep]
    gain = np.linalg.solve(s, sht.transpose(0, 2, 1)).transpose(0, 2, 1)
    sigma = sigma - gain @ h @ sigma
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    return keep, (gain @ residual[..., None])[..., 0], sigma


@dataclass
class _State:
    """Stacked filter state: rotation factors f (R, 1 + n, 3, 3), the vector
    v (R, 3) and sigma (R, d, d).  EqF: f = (Ahat, Bhat_i), v = ahat; IEKF:
    f = (Rhat, Chat_i), v = bhat."""

    f: np.ndarray
    v: np.ndarray
    sigma: np.ndarray


def _eqf_propagate(st: _State, omega: np.ndarray, dt: float, noise: NoiseConfig,
                   idx: np.ndarray) -> None:
    """eqf_propagate of every run, without the re-projection."""
    omega0 = (st.f[:, 0] @ omega[:, :, None])[:, :, 0] + st.v
    e, phi, md = _eqf_transition(omega0, dt, noise, idx)
    st.f = e[:, None] @ st.f
    st.v = (e @ st.v[:, :, None])[:, :, 0]
    sigma = phi @ st.sigma @ phi.transpose(0, 2, 1) + md
    st.sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))


def _eqf_update(st: _State, b: Bucket, t: float, subtract: bool) -> None:
    """eqf_update of the bucket's runs."""
    sel = b.sel
    f, v = st.f[sel], st.v[sel]
    residual = (f[:, b.factor] @ b.y[..., None])[..., 0]
    if subtract:
        residual -= b.refs
    keep, r, sigma = _kalman(st.sigma[sel], b.h, b.var, residual.reshape(len(f), -1),
                             t, b.runs)
    if keep is not None:
        if r is None:
            return
        sel, f, v = b.rows[keep], f[keep], v[keep]
    # Xhat+ = exp(Delta) Xhat, Delta = (r_att, -r_bias; r_cal_i + r_att); the
    # entries of exp(Delta) per run: the nav rotation, each calibration
    # rotation, then the nav vector
    n = f.shape[1] - 1
    cal = r[:, 6:].reshape(len(r), n, 3) + r[:, None, 0:3]
    rows = []
    for rot, vec, cals in zip(r[:, 0:3].tolist(), (-r[:, 3:6]).tolist(), cal.tolist()):
        nav = _sdp_entries(*rot, *vec)
        row = nav[:9]
        for c in cals:
            row += _exp_entries(*c)
        rows.append(row + nav[9:])
    vals = np.array(rows)
    g = vals[:, :-3].reshape(-1, n + 1, 3, 3)
    st.f[sel] = g @ f
    st.v[sel] = vals[:, -3:] + (g[:, 0] @ v[:, :, None])[:, :, 0]
    st.sigma[sel] = sigma


def _iekf_propagate(st: _State, omega: np.ndarray, dt: float, s_u: np.ndarray,
                    phi: np.ndarray) -> None:
    """iekf_propagate of every run, without the re-projection; phi is an
    (R, d, d) identity whose bias-to-attitude block this step overwrites."""
    rot = st.f[:, 0]
    phi[:, 0:3, 3:6] = -rot * dt
    sigma = phi @ st.sigma @ phi.transpose(0, 2, 1) + s_u * dt
    st.sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    st.f[:, 0] = rot @ exp_so3((omega - st.v) * dt)


def _iekf_update(st: _State, b: Bucket, t: float) -> None:
    """iekf_update of the bucket's runs."""
    sel = b.sel
    f = st.f[sel]
    rot = f[:, 0]
    prods = np.concatenate((f[:, :1], rot[:, None] @ f[:, 1:]), axis=1)   # R, R C_i
    residual = (prods[:, b.factor] @ b.y[..., None])[..., 0] - b.refs
    h = b.h.copy()
    for j in {6 + 3 * s.cal_index for s in b.sensors if s.calibrated}:
        h[:, :, j:j + 3] = h[:, :, j:j + 3] @ rot
    keep, r, sigma = _kalman(st.sigma[sel], h, b.var, residual.reshape(len(f), -1),
                             t, b.runs)
    if keep is not None:
        if r is None:
            return
        sel, f = b.rows[keep], f[keep]
    # R <- exp(r_att) R, b <- b + r_bias, C_i <- exp(r_cal_i) C_i
    rots = np.concatenate((r[:, 0:3], r[:, 6:]), axis=1).reshape(-1, 3)
    st.f[sel] = exp_so3(rots).reshape(f.shape) @ f
    st.v[sel] = st.v[sel] + r[:, 3:6]
    st.sigma[sel] = sigma


# ---------------------------------------------------------------------------
# Driver


def drive_batch(kind: str, schedule: Schedule, cfg: RunConfig,
                truths: list[GroundTruth] | None = None) -> list[FilterRun]:
    """Filter every run of the schedule with one filter, in lockstep.

    Returns one FilterRun per run, as :func:`runner.drive_filter` gives it:
    the same estimates to rounding, evaluated against truths[r] when given.
    A run's wall_s is the loop's wall time divided by the number of runs.
    """
    if kind not in ("eqf", "iekf"):
        raise ValueError(f"unknown filter kind: {kind!r}")
    n = cfg.n_cal
    k_total, runs = schedule.gyro_t.size, schedule.runs
    noise = noise_config(cfg)
    # Both filters start at the identity, where iekf_init's rotation of
    # sigma0 leaves it as it is.
    sigma0 = _check_sigma0(initial_sigma(cfg), n)
    if kind == "eqf":
        idx = _gather_index(6 + 3 * n, cfg.md_mode)
        if cfg.residual_mode not in (RESIDUAL_SUBTRACT, RESIDUAL_LITERAL):
            raise ValueError(f"unknown residual mode: {cfg.residual_mode!r}")
        subtract = cfg.residual_mode == RESIDUAL_SUBTRACT
    else:
        s_u, eye = _propagation_constants(noise.sigma_w, noise.sigma_bw, noise.sigma_kappa, n)
        phi = np.tile(eye, (runs, 1, 1))
    st = _State(np.tile(np.eye(3), (runs, 1 + n, 1, 1)), np.zeros((runs, 3)),
                np.tile(sigma0, (runs, 1, 1)))

    rec_f = np.empty((runs, k_total, 1 + n, 3, 3))
    rec_v = np.empty((runs, k_total, 3))
    sig_diag = np.empty((runs, k_total, 6 + 3 * n))
    sig_att = np.empty((runs, k_total, 3, 3))
    omega, t, updates = schedule.omega, schedule.t, schedule.updates
    dts = np.diff(schedule.gyro_t).tolist()
    t_start = time.perf_counter()
    for k in range(k_total):
        if k > 0:
            if kind == "eqf":
                _eqf_propagate(st, omega[k], dts[k - 1], noise, idx)
            else:
                _iekf_propagate(st, omega[k], dts[k - 1], s_u, phi)
            if k % REPROJECT_EVERY == 0:
                st.f = _reproject(st.f, schedule.first_run)
        for b in updates[k]:
            if kind == "eqf":
                _eqf_update(st, b, t[k], subtract)
            else:
                _iekf_update(st, b, t[k])
        rec_f[:, k] = st.f
        rec_v[:, k] = st.v
        sig_diag[:, k] = np.diagonal(st.sigma, axis1=1, axis2=2)
        sig_att[:, k] = st.sigma[:, 0:3, 0:3]
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
        est = EstimateSeries(schedule.gyro_t.copy(), rot[r].copy(), est_b[r].copy(),
                             est_c[r].copy(), sig_diag[r])
        out.append(finish_run(f"{kind} run {schedule.first_run + r}", est, sig_att[r],
                              wall / runs, truths[r] if truths is not None else None))
    return out
