import numpy as np
import pytest

from abc_eqf.config import ConfigError, default_config
from abc_eqf.eqf import DirectionMeasurement, UnknownSensorError
from abc_eqf.lie import log_so3
from abc_eqf.metrics import interpolate_truth
from abc_eqf.runner import (
    drive_filter,
    initial_sigma,
    montecarlo,
    resolve_workers,
    run_filters,
)
from abc_eqf.sim import simulate_run
from abc_eqf.study import bench_phi

from conftest import library_loop


@pytest.fixture(scope="module")
def short_sim():
    cfg = default_config(seed=21)
    cfg.duration = 3.0
    return cfg, simulate_run(cfg)


def test_drive_both_filters(short_sim):
    cfg, sim = short_sim
    results = run_filters(sim, cfg)
    assert set(results) == {"eqf", "iekf"}
    for res in results.values():
        assert res.est.t.size == sim.gyro_t.size
        assert res.err is not None
        assert res.report is not None
        assert res.est.nees_att is not None
        # errors start large (wrong init) and shrink
        assert res.err.att_deg[0] > res.err.att_deg[-1]


def test_drive_without_truth(short_sim):
    cfg, sim = short_sim
    res = drive_filter("eqf", sim.gyro_t, sim.gyro_omega, sim.measurements, cfg,
                       truth=None)
    assert res.err is None
    assert res.est.nees_att is None
    with pytest.raises(ValueError):
        res.nees_mean((0.0, 1.0))


def test_drive_handles_trailing_and_stacked_measurements(short_sim):
    cfg, sim = short_sim
    extra = list(sim.measurements)
    t_end = float(sim.gyro_t[-1])
    # two stacked measurements at an off-grid time plus one beyond the log
    y = np.array([1.0, 0.0, 0.0])
    extra.append(DirectionMeasurement(t_end - 0.0033, "mag", y))
    extra.append(DirectionMeasurement(t_end - 0.0033, "mag", y))
    extra.append(DirectionMeasurement(t_end + 0.004, "mag", y))
    extra.sort(key=lambda m: (m.t, m.sensor_id))
    res = drive_filter("eqf", sim.gyro_t, sim.gyro_omega, extra, cfg, sim.truth)
    assert res.est.t.size == sim.gyro_t.size


def test_drive_unknown_sensor_error_names_no_run(short_sim):
    """drive_filter's data errors are the library loop's own messages."""
    cfg, sim = short_sim
    meas = list(sim.measurements)
    meas.insert(10, DirectionMeasurement(meas[10].t, "bogus", np.array([1.0, 0.0, 0.0])))
    with pytest.raises(UnknownSensorError) as want:
        library_loop("eqf", sim.gyro_t, sim.gyro_omega, meas, cfg)
    with pytest.raises(UnknownSensorError) as got:
        drive_filter("eqf", sim.gyro_t, sim.gyro_omega, meas, cfg)
    assert str(got.value) == str(want.value)


def test_drive_rejects_unknown_filter(short_sim):
    cfg, sim = short_sim
    with pytest.raises(ValueError, match="ekf"):
        drive_filter("ekf", sim.gyro_t, sim.gyro_omega, sim.measurements, cfg, sim.truth)


@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_drive_nees_matches_per_step_loop(short_sim, kind):
    """eps^T Sigma_att^-1 eps with eps = log(R_true Rhat^T), from the library
    per-step loop."""
    cfg, sim = short_sim
    res = drive_filter(kind, sim.gyro_t, sim.gyro_omega, sim.measurements, cfg, sim.truth)
    est, sigma = library_loop(kind, sim.gyro_t, sim.gyro_omega, sim.measurements, cfg)
    r_true, _ = interpolate_truth(sim.truth, sim.gyro_t)
    for k in range(sim.gyro_t.size):
        eps = log_so3(r_true[k] @ est.R[k].T)
        nees = eps @ np.linalg.solve(sigma[k, 0:3, 0:3], eps)
        assert abs(res.est.nees_att[k] - nees) <= 1e-12 * nees


def test_initial_sigma_layout():
    cfg = default_config(seed=0)
    sigma = initial_sigma(cfg)
    assert sigma.shape == (9, 9)
    assert sigma[0, 0] == pytest.approx(np.deg2rad(cfg.sigma0_att_deg) ** 2)
    assert sigma[3, 3] == pytest.approx(cfg.sigma0_bias ** 2)
    assert sigma[6, 6] == pytest.approx(np.deg2rad(cfg.sigma0_cal_deg) ** 2)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("ABC_EQF_THREADS", "3")
    assert resolve_workers(runs=10) == 3
    assert resolve_workers(runs=2) == 2
    monkeypatch.setenv("ABC_EQF_THREADS", "0")        # clamped to one worker
    assert resolve_workers(runs=10) == 1
    monkeypatch.setenv("ABC_EQF_THREADS", "-2")
    assert resolve_workers(runs=10) == 1
    monkeypatch.setenv("ABC_EQF_THREADS", "abc")
    with pytest.raises(ConfigError, match="^ABC_EQF_THREADS must be an integer, got 'abc'$"):
        resolve_workers(runs=10)
    assert resolve_workers(runs=10, workers=2) == 2     # an explicit count ignores it
    monkeypatch.delenv("ABC_EQF_THREADS")
    assert resolve_workers(runs=1) == 1


def test_montecarlo_rejects_zero_runs():
    with pytest.raises(ValueError):
        montecarlo(default_config(seed=0), runs=0)


def test_montecarlo_seeds_differ(short_sim):
    cfg, _ = short_sim
    res = montecarlo(cfg, runs=2, workers=1)
    r0 = res.per_run[0]["eqf"]["report"].transient["att_deg"]
    r1 = res.per_run[1]["eqf"]["report"].transient["att_deg"]
    assert r0 != r1


def test_bench_phi_smoke():
    res = bench_phi(steps=40, repeats=1)
    assert res.relative["closed"] == 100.0
    assert set(res.times) == {"closed", "expm", "euler", "ode45"}
    assert res.phi_gap_euler > 1e-6
    assert res.cov_gap_euler > 1e-6
