import numpy as np
import pytest
from numpy.testing import assert_allclose

from abc_eqf.config import RunConfig, SensorConfig, default_config
from abc_eqf.lie import is_rotation, vee
from abc_eqf.sim import (
    STREAM_SENSOR_BASE,
    gen_trajectory,
    make_rng,
    schedule_and_drop,
    simulate_run,
    synth_direction,
    synth_gnss_direction,
    synth_gyro,
)


def test_trajectory_zero_amplitude_is_static():
    cfg = RunConfig(seed=7, duration=1.0, traj_rate=100.0, amp_min=0.0, amp_max=0.0)
    traj = gen_trajectory(cfg)
    assert traj.t.size == 100
    assert np.max(np.abs(traj.omega)) == 0.0
    for k in range(0, 100, 10):
        assert_allclose(traj.R[k], traj.R[0])


def test_trajectory_rates_match_finite_differences():
    # 4th-order central stencil keeps the oracle's truncation error well
    # below the 1e-6 tolerance at 1 kHz sampling.
    cfg = RunConfig(seed=3, duration=2.0, traj_rate=1000.0)
    traj = gen_trajectory(cfg)
    dt = 1.0 / cfg.traj_rate
    for k in range(2, traj.t.size - 2, 97):
        dR = (-traj.R[k + 2] + 8.0 * traj.R[k + 1]
              - 8.0 * traj.R[k - 1] + traj.R[k - 2]) / (12.0 * dt)
        omega_fd = vee(_skew_part(traj.R[k].T @ dR))
        assert np.max(np.abs(omega_fd - traj.omega[k])) < 1e-6


def _skew_part(m):
    return 0.5 * (m - m.T)


def test_trajectory_rotations_valid():
    traj = gen_trajectory(RunConfig(seed=11, duration=2.0, traj_rate=200.0))
    for k in range(0, traj.t.size, 37):
        assert is_rotation(traj.R[k])


def test_trajectory_deterministic():
    a = gen_trajectory(RunConfig(seed=5, duration=1.0, traj_rate=200.0))
    b = gen_trajectory(RunConfig(seed=5, duration=1.0, traj_rate=200.0))
    assert np.array_equal(a.R, b.R)
    assert np.array_equal(a.omega, b.omega)
    c = gen_trajectory(RunConfig(seed=6, duration=1.0, traj_rate=200.0))
    assert not np.array_equal(a.R, c.R)


def test_synth_gyro_noiseless_passthrough():
    t = np.arange(1000) / 200.0
    omega = np.tile([0.1, -0.2, 0.3], (1000, 1))
    tg, meas, bias = synth_gyro(t, omega, 0.0, 0.0, 200.0, 200.0,
                                make_rng(0, 2), np.zeros(3))
    assert np.array_equal(tg, t)
    assert np.array_equal(meas, omega)
    assert np.max(np.abs(bias)) == 0.0


def test_synth_gyro_white_noise_variance():
    k = 100_000
    t = np.arange(k) / 200.0
    omega = np.zeros((k, 3))
    sigma_w = 8.73e-4
    _, meas, bias = synth_gyro(t, omega, sigma_w, 0.0, 200.0, 200.0,
                               make_rng(1, 2), np.zeros(3))
    target = sigma_w ** 2 * 200.0     # sigma_w^2 / dt
    assert abs(np.var(meas) / target - 1.0) < 0.05
    assert np.max(np.abs(bias)) == 0.0


def test_synth_gyro_bias_walk_increments():
    k = 100_000
    t = np.arange(k) / 200.0
    sigma_bw = 1.75e-5
    _, _, bias = synth_gyro(t, np.zeros((k, 3)), 0.0, sigma_bw, 200.0, 200.0,
                            make_rng(2, 2), np.zeros(3))
    steps = np.diff(bias, axis=0)
    target = sigma_bw ** 2 / 200.0
    assert abs(np.var(steps) / target - 1.0) < 0.05
    for axis in range(3):
        x = steps[:, axis]
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1) < 0.02


def test_synth_gyro_decimation():
    t = np.arange(1000) / 1000.0
    omega = np.random.default_rng(0).normal(size=(1000, 3))
    tg, meas, _ = synth_gyro(t, omega, 0.0, 0.0, 200.0, 1000.0,
                             make_rng(0, 2), np.zeros(3))
    assert tg.size == 200
    assert np.array_equal(meas, omega[::5])


def test_synth_direction_noiseless_identity():
    r = np.eye(3)[None, :, :]
    y = synth_direction(r, None, np.array([1.0, 0.0, 0.0]), 0.0, make_rng(0, 10))
    assert_allclose(y[0], np.array([1.0, 0.0, 0.0]))


def test_synth_direction_unit_norm():
    rng = make_rng(3, 10)
    r = np.stack([np.eye(3)] * 500)
    y = synth_direction(r, None, np.array([0.0, 0.0, 1.0]), 0.3, rng)
    assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def test_synth_direction_angular_error_statistics():
    k = 100_000
    r = np.broadcast_to(np.eye(3), (k, 3, 3))
    d = np.array([0.0, 0.0, 1.0])
    sigma = 0.01
    y = synth_direction(r, None, d, sigma, make_rng(4, 10))
    angles = np.arccos(np.clip(y @ d, -1.0, 1.0))
    # two tangential noise DOF of std sigma each -> RMS angle ~ sigma * sqrt(2)
    rms = np.sqrt(np.mean(angles ** 2))
    assert abs(rms / (sigma * np.sqrt(2.0)) - 1.0) < 0.10


def test_synth_gnss_noiseless_identity_attitude():
    r = np.eye(3)[None, :, :]
    y, refs, valid = synth_gnss_direction(r, None, np.array([0.0, 1.0, 0.0]),
                                          1.0, 0.0, make_rng(0, 12))
    assert valid[0]
    assert_allclose(y[0], np.array([0.0, 1.0, 0.0]))
    assert_allclose(refs[0], np.array([0.0, 1.0, 0.0]))


def test_synth_gnss_angular_noise_statistics():
    k = 100_000
    r = np.broadcast_to(np.eye(3), (k, 3, 3))
    y, refs, valid = synth_gnss_direction(r, None, np.array([0.0, 1.0, 0.0]),
                                          1.0, 0.1, make_rng(5, 12))
    assert np.all(valid)
    # 0.1 m per axis and receiver over a 1 m baseline: the per-axis angular
    # deflection is ~atan(0.1 sqrt(2) / 1) ~ 0.14 rad RMS
    target = np.arctan(0.1 * np.sqrt(2.0))
    for axis in (0, 2):   # tangential to the y-aligned baseline
        rms = np.sqrt(np.mean(np.arcsin(np.clip(refs[:, axis], -1.0, 1.0)) ** 2))
        assert abs(rms / target - 1.0) < 0.25


# The scheduling stream of the first sensor, as simulate_run draws it.
def _sched_rng(seed):
    return make_rng(seed, STREAM_SENSOR_BASE + 1)


def test_schedule_exact_decimation():
    k = 1000
    t = np.arange(k) / 100.0
    y = np.tile([1.0, 0.0, 0.0], (k, 1))
    merged = schedule_and_drop(SensorConfig("a", rate=20.0), t, y, None, None, 100.0,
                               _sched_rng(0))
    assert len(merged) == 200
    assert merged[0].t == 0.0
    assert abs(merged[1].t - 0.05) < 1e-12


def test_schedule_dropout_binomial():
    k = 10_000
    t = np.arange(k) / 100.0
    y = np.tile([1.0, 0.0, 0.0], (k, 1))
    merged = schedule_and_drop(SensorConfig("a", rate=100.0, dropout=0.1), t, y, None, None,
                               100.0, _sched_rng(1))
    frac = len(merged) / k
    assert abs(frac - 0.9) < 0.01


def test_schedule_tie_break_by_sensor_id():
    cfg = RunConfig(seed=0, duration=1.0, gyro_rate=10.0, traj_rate=10.0,
                    sensors=[SensorConfig("b", rate=10.0), SensorConfig("a", rate=10.0)])
    merged = simulate_run(cfg).measurements
    assert len(merged) == 20
    for i in range(0, len(merged), 2):
        assert merged[i].sensor_id == "a"
        assert merged[i + 1].sensor_id == "b"


def test_schedule_jitter_bounded_and_sorted():
    k = 1000
    t = np.arange(k) / 100.0
    y = np.tile([1.0, 0.0, 0.0], (k, 1))
    merged = schedule_and_drop(SensorConfig("a", rate=100.0, jitter=0.002), t, y, None, None,
                               100.0, _sched_rng(2))
    ts = np.array([m.t for m in merged])
    assert np.max(np.abs(ts - t)) <= 0.002 + 1e-12
    # two sensors jittered on the same slots: only the merge orders them
    cfg = RunConfig(seed=2, duration=10.0, gyro_rate=100.0, traj_rate=100.0,
                    sensors=[SensorConfig(sid, rate=100.0, jitter=0.002) for sid in "ab"])
    ts = np.array([m.t for m in simulate_run(cfg).measurements])
    assert ts.size == 2 * k
    assert np.all(np.diff(ts) >= 0.0)


def test_simulate_run_deterministic():
    cfg = default_config(seed=9)
    cfg.duration = 2.0
    a = simulate_run(cfg)
    b = simulate_run(cfg)
    assert np.array_equal(a.gyro_omega, b.gyro_omega)
    assert np.array_equal(a.truth.R, b.truth.R)
    assert len(a.measurements) == len(b.measurements)
    for ma, mb in zip(a.measurements, b.measurements):
        assert ma.t == mb.t and ma.sensor_id == mb.sensor_id
        assert np.array_equal(ma.y, mb.y)


def test_simulate_run_rotations_and_layout():
    cfg = default_config(seed=10)
    cfg.duration = 1.0
    sim = simulate_run(cfg)
    for k in range(0, sim.truth.t.size, 19):
        assert is_rotation(sim.truth.R[k])
    for c in sim.truth.cal:
        assert is_rotation(c)
    ids = {m.sensor_id for m in sim.measurements}
    assert ids == {"mag", "gnss"}
    for m in sim.measurements:
        if m.sensor_id == "gnss":
            assert m.reference is not None
        else:
            assert m.reference is None
