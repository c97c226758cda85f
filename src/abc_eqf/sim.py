"""Ground-truth synthesis and sensor simulation.

Trajectories are Euler-angle Lissajous curves with per-run randomized
amplitudes and frequencies; the body angular velocity is computed analytically
from the Euler-rate kinematics.  Gyro synthesis adds a random-walk bias and
discretized white noise, direction sensors add isotropic noise before
re-normalization, and the dual-receiver baseline sensor reconstructs its
time-varying reference from two noisy positions.

Randomness comes from the counter-based Philox generator.  Streams are split
per seed and purpose: stream 0 trajectory draws, 1 initialization draws,
2 gyro noise, 10+2k / 11+2k measurement noise / scheduling of sensor k.
Run i of a Monte-Carlo campaign uses seed + i, so campaigns at base seeds s
and s + 1 share runs.  Given (config, seed) every artifact is bitwise
reproducible regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, SensorConfig
from .eqf import DirectionMeasurement
from .lie import exp_so3

STREAM_TRAJECTORY = 0
STREAM_INIT = 1
STREAM_GYRO = 2
STREAM_SENSOR_BASE = 10


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, stream) pair."""
    # The middle word, once a run index, stays 0 so each seed keeps its draws.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0, stream])))


@dataclass
class Trajectory:
    t: np.ndarray
    R: np.ndarray        # (K, 3, 3)
    omega: np.ndarray    # (K, 3) body angular velocity


@dataclass
class GroundTruth:
    """True state trajectory; calibration rotations are constant."""

    t: np.ndarray
    R: np.ndarray        # (K, 3, 3)
    bias: np.ndarray     # (K, 3)
    cal: list[np.ndarray]


def _euler_zyx_matrices(yaw: np.ndarray, pitch: np.ndarray, roll: np.ndarray) -> np.ndarray:
    ca, sa = np.cos(yaw), np.sin(yaw)
    cb, sb = np.cos(pitch), np.sin(pitch)
    cg, sg = np.cos(roll), np.sin(roll)
    r = np.empty((yaw.size, 3, 3))
    r[:, 0, 0] = ca * cb
    r[:, 0, 1] = ca * sb * sg - sa * cg
    r[:, 0, 2] = ca * sb * cg + sa * sg
    r[:, 1, 0] = sa * cb
    r[:, 1, 1] = sa * sb * sg + ca * cg
    r[:, 1, 2] = sa * sb * cg - ca * sg
    r[:, 2, 0] = -sb
    r[:, 2, 1] = cb * sg
    r[:, 2, 2] = cb * cg
    return r


def _euler_zyx_body_rates(pitch, roll, dyaw, dpitch, droll) -> np.ndarray:
    cb, sb = np.cos(pitch), np.sin(pitch)
    cg, sg = np.cos(roll), np.sin(roll)
    omega = np.empty((pitch.size, 3))
    omega[:, 0] = droll - dyaw * sb
    omega[:, 1] = dpitch * cg + dyaw * cb * sg
    omega[:, 2] = -dpitch * sg + dyaw * cb * cg
    return omega


def gen_trajectory(cfg: RunConfig) -> Trajectory:
    """Lissajous attitude curve at cfg.traj_rate with the analytic body rates."""
    rng = make_rng(cfg.seed, STREAM_TRAJECTORY)
    amp = rng.uniform(cfg.amp_min, cfg.amp_max, size=3)
    freq = rng.uniform(cfg.freq_min, cfg.freq_max, size=3)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    k = int(round(cfg.duration * cfg.traj_rate))
    t = np.arange(k) / cfg.traj_rate
    ang = amp[None, :] * np.sin(2.0 * np.pi * freq[None, :] * t[:, None] + phase[None, :])
    dang = (amp * 2.0 * np.pi * freq)[None, :] * np.cos(
        2.0 * np.pi * freq[None, :] * t[:, None] + phase[None, :])

    r = _euler_zyx_matrices(ang[:, 2], ang[:, 1], ang[:, 0])
    omega = _euler_zyx_body_rates(ang[:, 1], ang[:, 0], dang[:, 2], dang[:, 1], dang[:, 0])
    return Trajectory(t, r, omega)


def synth_gyro(truth_t: np.ndarray, omega_true: np.ndarray, sigma_w: float,
               sigma_bw: float, rate: float, truth_rate: float,
               rng: np.random.Generator, bias0: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gyro samples: decimated true rates plus random-walk bias and white noise.

    Continuous densities are discretized per sample: white noise std
    sigma_w / sqrt(dt), bias increments sigma_bw * sqrt(dt).
    Returns (timestamps, measured rates, true bias at those timestamps).
    """
    stride = int(round(truth_rate / rate))
    t = truth_t[::stride]
    omega = omega_true[::stride]
    dt = 1.0 / rate
    kg = t.size

    steps = rng.normal(0.0, sigma_bw * np.sqrt(dt), size=(kg, 3))
    steps[0] = 0.0
    bias = bias0[None, :] + np.cumsum(steps, axis=0)
    white = rng.normal(0.0, sigma_w / np.sqrt(dt), size=(kg, 3))
    return t, omega + bias + white, bias


def synth_direction(r: np.ndarray, cal: np.ndarray | None, d: np.ndarray,
                    sigma_y: float, rng: np.random.Generator) -> np.ndarray:
    """Body/sensor-frame observations of the fixed inertial direction d.

    r is (K, 3, 3); rows of the result are normalize(C^T R^T d + noise).
    """
    body = np.einsum("kji,j->ki", r, d)
    y = body @ cal if cal is not None else body
    y = y + rng.normal(0.0, sigma_y, size=y.shape)
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def synth_gnss_direction(r: np.ndarray, cal: np.ndarray | None, body_axis: np.ndarray,
                         baseline: float, pos_std: float, rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-varying reference from two noisy receiver positions.

    The receivers sit at +-(baseline/2) along body_axis; each position is
    perturbed with isotropic noise of std pos_std.  The body-frame
    measurement is the constant baseline direction (pre-multiplied by C^T
    when the sensor carries a calibration state).  Returns (y, reference,
    valid) where invalid rows mark degenerate baselines to be dropped.
    """
    k = r.shape[0]
    half = np.einsum("kij,j->ki", r, 0.5 * baseline * body_axis)
    p1 = half + rng.normal(0.0, pos_std, size=(k, 3))
    p2 = -half + rng.normal(0.0, pos_std, size=(k, 3))
    diff = p1 - p2
    norms = np.linalg.norm(diff, axis=1)
    valid = norms >= 1e-6
    refs = np.empty_like(diff)
    refs[valid] = diff[valid] / norms[valid, None]
    refs[~valid] = 0.0
    y_body = body_axis if cal is None else cal.T @ body_axis
    y = np.broadcast_to(y_body, (k, 3)).copy()
    return y, refs, valid


def schedule_and_drop(sensor: SensorConfig, t: np.ndarray, y: np.ndarray,
                      refs: np.ndarray | None, valid: np.ndarray | None,
                      truth_rate: float, rng: np.random.Generator
                      ) -> list[DirectionMeasurement]:
    """Decimate, drop and jitter one sensor's stream, sampled at truth_rate.

    Rows with valid False are never delivered.  Dropout is i.i.d. Bernoulli
    per retained slot, jitter uniform in [-jitter, +jitter]; the result is
    in slot order, not sorted by time."""
    pick = np.arange(0, t.size, int(round(truth_rate / sensor.rate)))
    if valid is not None:
        pick = pick[valid[pick]]
    if sensor.dropout > 0.0:
        pick = pick[rng.random(pick.size) >= sensor.dropout]
    times = t[pick]
    if sensor.jitter > 0.0:
        times = times + rng.uniform(-sensor.jitter, sensor.jitter, size=pick.size)
    return [DirectionMeasurement(float(tj), sensor.sensor_id, y[j],
                                 refs[j] if refs is not None else None)
            for j, tj in zip(pick, times)]


@dataclass
class SimData:
    """One simulated run: ground truth, gyro log and merged measurement log."""

    truth: GroundTruth
    gyro_t: np.ndarray
    gyro_omega: np.ndarray
    measurements: list[DirectionMeasurement]


def simulate_run(cfg: RunConfig) -> SimData:
    """Full sensor synthesis for one run of the configuration.

    The filters always start at the identity state, so the initialization
    error is realized in the truth: the initial true attitude is the drawn
    attitude error, the true calibrations are the drawn calibration errors,
    and the filter's zero-bias init is wrong by the drawn initial bias.
    Measurements are merged sorted by time, ties broken by sensor id; each
    sensor's randomness lives in its own streams, so adding a sensor never
    reshuffles the others.
    """
    traj = gen_trajectory(cfg)

    rng_init = make_rng(cfg.seed, STREAM_INIT)
    att_std = np.deg2rad(cfg.att_err_deg)
    cal_std = np.deg2rad(cfg.cal_err_deg)
    r_err = exp_so3(rng_init.normal(0.0, att_std, size=3))
    cal_true = [exp_so3(rng_init.normal(0.0, cal_std, size=3)) for _ in range(cfg.n_cal)]
    bias0 = rng_init.normal(0.0, cfg.bias_init_std, size=3)

    # Left-multiplying by a constant rotation keeps the body rates unchanged
    # while placing the initial true attitude at the drawn error.
    r_true = np.einsum("ij,kjl->kil", r_err @ traj.R[0].T, traj.R)

    gyro_t, gyro_omega, bias_g = synth_gyro(
        traj.t, traj.omega, cfg.sigma_w, cfg.sigma_bw, cfg.gyro_rate, cfg.traj_rate,
        make_rng(cfg.seed, STREAM_GYRO), bias0)

    stride = int(round(cfg.traj_rate / cfg.gyro_rate))
    bias_full = np.repeat(bias_g, stride, axis=0)[:traj.t.size]
    truth = GroundTruth(traj.t, r_true, bias_full, cal_true)

    measurements: list[DirectionMeasurement] = []
    for idx, sensor in enumerate(cfg.sensors):
        rng_meas = make_rng(cfg.seed, STREAM_SENSOR_BASE + 2 * idx)
        cal = cal_true[idx] if sensor.calibrated else None
        if sensor.kind == "fixed":
            y = synth_direction(r_true, cal, sensor.reference, sensor.sigma_y, rng_meas)
            refs = valid = None
        else:
            y, refs, valid = synth_gnss_direction(
                r_true, cal, sensor.body_axis, sensor.baseline, sensor.pos_std, rng_meas)
        measurements += schedule_and_drop(
            sensor, traj.t, y, refs, valid, cfg.traj_rate,
            make_rng(cfg.seed, STREAM_SENSOR_BASE + 2 * idx + 1))
    measurements.sort(key=lambda m: (m.t, m.sensor_id))
    return SimData(truth, gyro_t, gyro_omega, measurements)
