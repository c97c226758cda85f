import numpy as np
import pytest

from abc_eqf.config import default_config
from abc_eqf.eqf import DirectionMeasurement, eqf_init, eqf_propagate, eqf_update
from abc_eqf.iekf import iekf_init, iekf_propagate, iekf_update
from abc_eqf.lie import log_so3
from abc_eqf.metrics import interpolate_truth
from abc_eqf.runner import (
    build_sensors,
    drive_filter,
    initial_sigma,
    montecarlo,
    noise_config,
    resolve_workers,
    run_filters,
)
from abc_eqf.sim import simulate_run
from abc_eqf.study import bench_phi
from abc_eqf.symmetry import identity_state, state_from_group


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


def test_drive_rejects_unknown_filter(short_sim):
    cfg, sim = short_sim
    with pytest.raises(ValueError, match="ekf"):
        drive_filter("ekf", sim.gyro_t, sim.gyro_omega, sim.measurements, cfg, sim.truth)


@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_drive_nees_matches_per_step_loop(short_sim, kind):
    """eps^T Sigma_att^-1 eps with eps = log(R_true Rhat^T), by a hand-written
    loop over the library calls."""
    cfg, sim = short_sim
    res = drive_filter(kind, sim.gyro_t, sim.gyro_omega, sim.measurements, cfg, sim.truth)
    sensors = build_sensors(cfg)
    noise = noise_config(cfg)
    if kind == "eqf":
        state = eqf_init(cfg.n_cal, sensors, noise, initial_sigma(cfg))
    else:
        state = iekf_init(identity_state(cfg.n_cal), initial_sigma(cfg))
    r_true, _ = interpolate_truth(sim.truth, sim.gyro_t)
    # No jitter in this scenario: the measurements due at a gyro sample share
    # its timestamp, so they form one stacked update, as in drive_filter.
    mi = 0
    for k in range(sim.gyro_t.size):
        if k > 0:
            dt = sim.gyro_t[k] - sim.gyro_t[k - 1]
            state = (eqf_propagate(state, sim.gyro_omega[k], dt, noise, cfg.md_mode)
                     if kind == "eqf" else iekf_propagate(state, sim.gyro_omega[k], dt, noise))
        group = []
        while (mi < len(sim.measurements)
               and sim.measurements[mi].t <= sim.gyro_t[k] + 1e-12):
            group.append(sim.measurements[mi])
            mi += 1
        if group:
            state = (eqf_update(state, group, sensors, cfg.residual_mode)
                     if kind == "eqf" else iekf_update(state, group, sensors))
        r_hat = state_from_group(state.xhat).R if kind == "eqf" else state.xi.R
        eps = log_so3(r_true[k] @ r_hat.T)
        nees = eps @ np.linalg.solve(state.sigma[0:3, 0:3], eps)
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
