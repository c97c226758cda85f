"""The lockstep batched driver against a per-step loop of the reference
steps (reference_filters.reference_loop), its formulas against the one-run
case of the kernels, criterion 3's oracles and wedge-built output blocks,
batch-composition invariance, and its typed errors and skips against the
library's per-step loop (conftest.library_loop)."""

import logging
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from abc_eqf import eqf, runner
from abc_eqf.config import RunConfig, SensorConfig, validate_config, with_seed
from abc_eqf.eqf import (
    REPROJECT_EVERY,
    BadDimensionError,
    DirectionMeasurement,
    InputRangeError,
    NoiseConfig,
    NonFiniteInputError,
    SensorModel,
    _gather_index,
    _kalman,
    compute_A0,
    compute_C0,
    phi_and_md,
    sigma_u,
    validate_layout,
)
from abc_eqf.runner import (
    NonFiniteEstimateError,
    STACK_TIME_TOL,
    build_schedule,
    drive_batch,
    drive_filter,
    finish_run,
    montecarlo,
    tick_groups,
)
from abc_eqf.lie import DegenerateError, wedge
from abc_eqf.sim import simulate_run

from conftest import library_loop
from reference_filters import reference_loop

REFS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, -0.8])
RTOL = 1e-10


def _config(n: int, gnss: bool, ragged: bool = False, duration: float = 2.0,
            seed: int = 40) -> RunConfig:
    """n calibrated fixed sensors, then the GNSS baseline sensor when gnss is
    set, and an uncalibrated fixed sensor when there is no other.  ragged
    adds 10 % dropout and 2 ms jitter to every fixed sensor."""
    sensors = [SensorConfig(f"cal{i}", "fixed", True, 0.1, 100.0,
                            reference=np.array(REFS[i])) for i in range(n)]
    if gnss:
        sensors.append(SensorConfig("gnss", "gnss", False, 0.1, 20.0))
    if not sensors:
        sensors.append(SensorConfig("sun", "fixed", False, 0.1, 50.0,
                                    reference=np.array([0.0, 0.6, -0.8])))
    if ragged:
        for s in sensors:
            if s.kind == "fixed":
                s.dropout, s.jitter = 0.1, 0.002
    return validate_config(RunConfig(seed=seed, duration=duration, sensors=sensors))


def _sims(cfg: RunConfig, runs: int):
    return [simulate_run(with_seed(cfg, cfg.seed + r)) for r in range(runs)]


def _schedule(cfg, sims):
    return build_schedule(cfg, [s.gyro_t for s in sims], [s.gyro_omega for s in sims],
                          [s.measurements for s in sims])


def _assert_close(got, want, what):
    """Relative agreement; the rotation, bias and calibration arrays relative
    to their largest entry, since most of their entries pass through 0."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want)) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale, err_msg=what)


def _reference(kind, cfg, s, loop=reference_loop):
    """Run s through a per-step loop (the reference steps by default),
    evaluated as a driver's run."""
    est, sigma = loop(kind, s.gyro_t, s.gyro_omega, s.measurements, cfg)
    return finish_run(kind, est, sigma[:, 0:3, 0:3], 0.0, s.truth)


def _assert_runs_match(kind, cfg, sims, results, loop=reference_loop):
    for r, (s, got) in enumerate(zip(sims, results)):
        want = _reference(kind, cfg, s, loop)
        for name in ("R", "b", "C"):
            _assert_close(getattr(got.est, name), getattr(want.est, name), f"run {r} {name}")
        np.testing.assert_allclose(got.est.sigma_diag, want.est.sigma_diag, rtol=RTOL,
                                   err_msg=f"run {r} sigma_diag")
        np.testing.assert_allclose(got.est.nees_att, want.est.nees_att, rtol=RTOL,
                                   err_msg=f"run {r} NEES")
        for phase in ("transient", "asymptotic"):
            np.testing.assert_allclose(
                list(getattr(got.report, phase).values()),
                list(getattr(want.report, phase).values()), rtol=RTOL,
                err_msg=f"run {r} {phase} report")


# ---------------------------------------------------------------------------
# Batched against the reference per-step loop


@pytest.mark.parametrize("ragged", [False, True], ids=["identical", "dropout-jitter"])
@pytest.mark.parametrize("gnss", [False, True], ids=["no-gnss", "gnss"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batch_matches_drive_filter(n, gnss, ragged):
    cfg = _config(n, gnss, ragged)
    sims = _sims(cfg, 3)
    schedule = _schedule(cfg, sims)
    for kind in ("eqf", "iekf"):
        _assert_runs_match(kind, cfg, sims, drive_batch(kind, schedule, cfg,
                                                        [s.truth for s in sims]))


def test_batch_matches_drive_filter_across_reprojection():
    """1,200 gyro steps, so the re-projection at step 1,000 runs."""
    cfg = _config(1, True, ragged=True, duration=6.0)
    sims = _sims(cfg, 2)
    schedule = _schedule(cfg, sims)
    for kind in ("eqf", "iekf"):
        _assert_runs_match(kind, cfg, sims, drive_batch(kind, schedule, cfg,
                                                        [s.truth for s in sims]))


def test_batch_skips_the_same_updates_as_drive_filter(caplog):
    """A sensor with sigma_y = 1e-7 fails the condition rule until the
    attitude variance falls below about 0.01 rad^2, at a step that differs
    between runs, so single runs of a bucket are skipped.

    Its accepted updates cut attitude variances to about 1e-14 rad^2, a
    difference of nearly equal terms in which the reference steps' rounding
    and the kernels' part by up to 7e-10 relative.  So the runs are
    compared with the library loop, which runs the kernels on one run: the
    test is of the batch's skips, which leave a run where its own loop
    leaves it."""
    cfg = _config(1, True, ragged=True, duration=2.0)
    cfg.sensors.append(SensorConfig("sharp", "fixed", False, 1e-7, 50.0,
                                    reference=np.array([0.0, 0.0, 1.0])))
    cfg = validate_config(cfg)
    sims = _sims(cfg, 4)
    schedule = _schedule(cfg, sims)
    for kind in ("eqf", "iekf"):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            results = drive_batch(kind, schedule, cfg, [s.truth for s in sims])
        batched = sorted(rec.getMessage() for rec in caplog.records
                         if rec.name == "abc_eqf.eqf")
        scalar = []
        for r, s in enumerate(sims):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                library_loop(kind, s.gyro_t, s.gyro_omega, s.measurements, cfg)
            scalar += [f"run {r}: {rec.getMessage()}" for rec in caplog.records
                       if rec.name == "abc_eqf.eqf"]
        assert batched == sorted(scalar)
        _assert_runs_match(kind, cfg, sims, results, library_loop)
        skipped = {msg.split(":")[0] for msg in batched}
        assert batched and len(skipped) == len(sims), "every run skips some updates"
        # a skip that affects only some runs of a bucket
        times = [msg.split("t=")[1].split(" ")[0] for msg in batched]
        assert any(times.count(t) < len(sims) for t in times)


def test_montecarlo_matches_drive_filter():
    cfg = _config(1, True, ragged=True, duration=2.0)
    res = montecarlo(cfg, runs=3, workers=1)
    split = 0.5 * cfg.duration
    for row in res.per_run:
        run_cfg = with_seed(cfg, cfg.seed + row["run"])
        s = simulate_run(run_cfg)
        for kind in ("eqf", "iekf"):
            want = _reference(kind, run_cfg, s)
            got = row[kind]["report"]
            for phase in ("transient", "asymptotic"):
                np.testing.assert_allclose(list(getattr(got, phase).values()),
                                           list(getattr(want.report, phase).values()),
                                           rtol=RTOL)
            np.testing.assert_allclose(row[kind]["nees"],
                                       want.nees_mean((split, np.inf)), rtol=RTOL)


# ---------------------------------------------------------------------------
# The batched formulas against their one-run case and criterion 3's oracles

NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)


def _sweep_omega0(dt):
    """Criterion 3's angle sweep, one origin input per angle."""
    rng = np.random.default_rng(3)
    thetas = np.concatenate([np.linspace(0.0, 2.0, 41), [1e-6, 5e-5, 9.9e-5, 1.01e-4, 5e-4]])
    axes = rng.normal(size=(thetas.size, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return (thetas / dt)[:, None] * axes


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_phi_md_match_scalar_and_expm(n):
    dt = 0.005
    omega0 = _sweep_omega0(dt)
    e, phi, md = eqf._eqf_transition(omega0, dt, NOISE, _gather_index(6 + 3 * n))
    worst_expm = 0.0
    for r, w in enumerate(omega0):
        phi_s, md_s = phi_and_md(w, dt, NOISE, n)
        np.testing.assert_allclose(phi[r], phi_s, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(md[r], md_s, rtol=1e-13, atol=1e-13 * np.max(np.abs(md_s)))
        np.testing.assert_array_equal(e[r], phi[r][3:6, 3:6])
        worst_expm = max(worst_expm, np.max(np.abs(phi[r] - expm(compute_A0(w, n) * dt))))
    assert worst_expm < 1e-11     # criterion 3's bound


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_md_matches_quadrature(n):
    """Md against the 64-node Gauss-Legendre quadrature of Phi(s) M_c Phi(s)^T,
    with Phi(s) from the batched transition, over criterion 3's sweep."""
    rng = np.random.default_rng(3)
    idx = _gather_index(6 + 3 * n)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mc = sigma_u(NOISE, n)
    worst = 0.0
    for dt in (0.001, 0.005, 0.05):
        omega0 = rng.normal(size=(4, 3))
        omega0 *= (np.array([0.0, 0.5, 4.0, 40.0])
                   / np.maximum(np.linalg.norm(omega0, axis=1), 1e-300))[:, None]
        _, _, md = eqf._eqf_transition(omega0, dt, NOISE, idx)
        quad = np.zeros_like(md)
        for node, weight in zip(0.5 * dt * (nodes + 1.0), 0.5 * dt * weights):
            _, phi, _ = eqf._eqf_transition(omega0, node, NOISE, idx)
            quad += weight * phi @ mc @ phi.transpose(0, 2, 1)
        worst = max(worst, np.max(np.abs(md - quad) / np.max(np.abs(quad), axis=(1, 2),
                                                                keepdims=True)))
    assert worst < 1e-9           # criterion 3's bound


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_output_matrix_matches_compute_c0(n):
    """The one output-matrix builder, over many groups at once as the
    schedule calls it, for one group with the index of its cached layout as
    a library update calls it, and as compute_C0, against blocks built with
    wedge."""
    rng = np.random.default_rng(n)
    sensors = [SensorModel(f"c{i}", True, 0.1, np.array(REFS[i])) for i in range(n)]
    sensors += [SensorModel("u", False, 0.1)]
    validate_layout(sensors)
    keys = eqf._sensor_keys(sensors)
    layout = list(range(len(sensors)))
    for used in (layout, layout[::-1], layout[:1]):      # positions in sensors
        refs = rng.normal(size=(5, len(used), 3))
        refs /= np.linalg.norm(refs, axis=-1, keepdims=True)
        factor = np.array([1 + i if sensors[i].calibrated else 0 for i in used])
        h = eqf._output_matrix(eqf._output_index(np.tile(factor, len(refs)), n),
                               refs.reshape(-1, 3))
        h = h.reshape(len(refs), 3 * len(used), -1)
        group_index = eqf._layout(tuple(keys[i] for i in used), n)[4]
        for r in range(len(refs)):
            want = np.zeros((3 * len(used), 6 + 3 * n))
            for k, (i, ref) in enumerate(zip(used, refs[r])):
                want[3 * k:3 * k + 3, 0:3] = wedge(ref)
                if sensors[i].calibrated:
                    want[3 * k:3 * k + 3, 6 + 3 * i:9 + 3 * i] = wedge(ref)
            np.testing.assert_array_equal(h[r], want)
            np.testing.assert_array_equal(
                eqf._output_matrix(group_index, refs[r]).reshape(want.shape), want)
            if used is layout:
                np.testing.assert_array_equal(compute_C0(sensors, refs[r], n), want)


# ---------------------------------------------------------------------------
# Batch composition


@pytest.mark.parametrize("kind, n", [("eqf", 1), ("iekf", 1), ("eqf", 3), ("iekf", 3)],
                         ids=["eqf", "iekf", "eqf-15-state", "iekf-15-state"])
def test_run_is_bit_equal_alone_and_at_every_position(kind, n):
    """Alone, the run is filtered without the run axis (2-D products); in a
    batch, as one row of stacked arrays.  Both give the same bits."""
    cfg = _config(n, True, ragged=True, duration=1.5)
    sims = _sims(cfg, 8)
    target = 3

    def estimates(order):
        picked = [sims[i] for i in order]
        run = drive_batch(kind, _schedule(cfg, picked), cfg)[order.index(target)]
        return run.est.R, run.est.b, run.est.C, run.est.sigma_diag

    alone = estimates([target])
    others = [i for i in range(8) if i != target]
    for pos in range(8):
        got = estimates(others[:pos] + [target] + others[pos:])
        for a, b in zip(got, alone):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Typed errors and skips


def test_tick_groups_rule():
    """Due when t <= gyro_t[k] + 1e-12; stacked within STACK_TIME_TOL of the
    group's first measurement, even past the step; later ones ignored."""
    y = np.array([1.0, 0.0, 0.0])
    gyro_t = np.array([0.0, 0.01, 0.02])
    times = [0.0, 0.01 + 5e-13, 0.015, 0.02 - 1e-7, 0.02 + 0.5 * STACK_TIME_TOL, 0.02 + 1e-5,
             0.5]
    meas = [DirectionMeasurement(t, "mag", y) for t in times]
    got = [(k, [m.t for m in g]) for k, g in tick_groups(gyro_t, meas)]
    assert got == [(0, [0.0]), (1, [0.01 + 5e-13]), (2, [0.015]),
                   (2, [0.02 - 1e-7, 0.02 + 0.5 * STACK_TIME_TOL])]


@pytest.fixture(scope="module")
def four_runs():
    cfg = _config(1, True, duration=1.0)
    return cfg, _sims(cfg, 4)


@pytest.mark.parametrize("run, step, omega, error", [
    (2, 50, [0.0, math.nan, 0.0], NonFiniteInputError),
    (1, 80, [700.0, 0.0, 0.0], InputRangeError),        # 3.5 rad in 5 ms
])
def test_bad_gyro_sample_raises_the_scalar_error_naming_the_run(four_runs, run, step,
                                                                 omega, error):
    cfg, sims = four_runs
    omegas = [s.gyro_omega.copy() for s in sims]
    omegas[run][step] = omega
    s = sims[run]
    with pytest.raises(error) as scalar:
        library_loop("eqf", s.gyro_t, omegas[run], s.measurements, cfg)
    for first_run in (0, 10):      # the runs of a campaign slice are numbered from its first
        with pytest.raises(error) as batched:
            build_schedule(cfg, [s.gyro_t for s in sims], omegas,
                           [s.measurements for s in sims], first_run)
        assert str(batched.value) == f"run {first_run + run}: {scalar.value}"


def test_ill_conditioned_s_skips_only_its_run(four_runs, caplog):
    """Run 1's covariance is scaled so that cond(S) is 2e14; its update is
    skipped with one warning, the other runs get the scalar update."""
    cfg, sims = four_runs
    schedule = _schedule(cfg, sims)
    bucket = next(b for step in schedule.updates for b in step
                  if b.factor.tolist() == [1])      # the calibrated sensor alone
    sigma = np.tile(np.diag([0.01] * 3 + [1e-4] * 3 + [0.02] * 3), (4, 1, 1))
    sigma[1] = 1e12 * np.eye(9)       # S = 2e12 (d^ d^T) + 0.01 I: cond 2e14
    residual = np.full((4, 3), 1e-3)
    with caplog.at_level(logging.WARNING, logger="abc_eqf.eqf"):
        keep, corr, sigma_new = _kalman(sigma, bucket.h, residual, bucket.var, bucket.bound,
                                        0.25, bucket.names)
    assert keep.tolist() == [True, False, True, True]
    assert [rec.getMessage() for rec in caplog.records] == [
        "run 1: update at t=0.250000 skipped: S condition number 2.000e+14"]
    for i, r in enumerate([0, 2, 3]):
        _, want_corr, want_sigma = _kalman(sigma[r], bucket.h[r], residual[r], bucket.var,
                                           bucket.bound, 0.25)
        np.testing.assert_allclose(corr[i], want_corr, rtol=RTOL)
        np.testing.assert_allclose(sigma_new[i], want_sigma, rtol=RTOL, atol=1e-18)


def test_non_finite_covariance_names_run_and_step(four_runs, monkeypatch, caplog):
    """A NaN in run 2's Md at gyro step 10 ends the batch at the first update
    after it, without a skip warning, with NonFiniteEstimateError naming run
    2 and step 10."""
    cfg, sims = four_runs
    schedule = _schedule(cfg, sims)
    calls = []
    values = eqf._phi_md_values

    def poisoned(*args):
        calls.append(None)
        out = values(*args)
        if len(calls) == 9 * 4 + 3:          # step 10, run 2 (4 runs per step)
            out[18] = math.nan               # Md_11[0, 0], see eqf._gather_index
        return out

    monkeypatch.setattr(eqf, "_phi_md_values", poisoned)
    with caplog.at_level(logging.WARNING), pytest.raises(
            NonFiniteEstimateError,
            match=r"^eqf run 2: first non-finite estimate or covariance at "
                  r"gyro step 10 \(t = 0\.05 s\)"):
        drive_batch("eqf", schedule, cfg)
    assert not caplog.records
    next_update = next(k for k in range(10, len(schedule.updates)) if schedule.updates[k])
    assert len(calls) == 4 * next_update


@pytest.mark.parametrize("runs, bad_run, prefix", [(3, 1, "run 1: "), (1, 0, "")],
                         ids=["batch", "single-log"])
def test_degenerate_factor_at_reprojection_names_its_run(monkeypatch, runs, bad_run, prefix):
    """A calibration factor zeroed by the propagation before step
    REPROJECT_EVERY fails the re-projection at that step, naming the run
    that holds it in a batch and no run for a single log."""
    cfg = _config(2, False, duration=REPROJECT_EVERY * 0.005 + 0.1)
    sims = _sims(cfg, runs)
    schedule = build_schedule(cfg, [s.gyro_t for s in sims], [s.gyro_omega for s in sims],
                              [s.measurements for s in sims], None if runs == 1 else 0)
    calls = []
    propagate = runner._eqf_propagate

    def zeroing(st, *args):
        propagate(st, *args)
        calls.append(None)
        if len(calls) == REPROJECT_EVERY:
            f = st.f if runs == 1 else st.f[bad_run]
            f[2] = 0.0                       # the second calibration factor

    monkeypatch.setattr(runner, "_eqf_propagate", zeroing)
    with pytest.raises(DegenerateError, match=f"^{prefix}matrix determinant is not positive$"):
        drive_batch("eqf", schedule, cfg)
    assert len(calls) == REPROJECT_EVERY


def test_batch_rejects_runs_with_different_gyro_times(four_runs):
    cfg, sims = four_runs
    gyro_ts = [s.gyro_t for s in sims]
    gyro_ts[3] = gyro_ts[3] + 1e-9
    with pytest.raises(ValueError, match="run 3: gyro times differ"):
        build_schedule(cfg, gyro_ts, [s.gyro_omega for s in sims],
                       [s.measurements for s in sims])


def test_gyro_samples_of_wrong_shape_name_their_own_shape(four_runs):
    """Each run's gyro samples are checked before stacking: the message
    names that run's shape, and the run in a campaign."""
    cfg, sims = four_runs
    s = sims[0]
    k = s.gyro_t.size
    want = re.escape(f"gyro samples of shape ({k - 1}, 3) do not match {k} gyro times")
    with pytest.raises(BadDimensionError, match=f"^{want}$"):
        drive_filter("eqf", s.gyro_t, s.gyro_omega[:-1], s.measurements, cfg)
    omegas = [s.gyro_omega for s in sims]
    omegas[2] = omegas[2][:-1]
    with pytest.raises(BadDimensionError, match=f"^run 12: {want}$"):
        build_schedule(cfg, [s.gyro_t for s in sims], omegas,
                       [s.measurements for s in sims], first_run=10)


def test_non_unit_direction_names_run(four_runs):
    cfg, sims = four_runs
    meas = [list(s.measurements) for s in sims]
    m = meas[3][5]
    meas[3][5] = DirectionMeasurement(m.t, m.sensor_id, 1.001 * m.y, m.reference)
    with pytest.raises(InputRangeError, match=r"^run 3: measurement at t="):
        build_schedule(cfg, [s.gyro_t for s in sims], [s.gyro_omega for s in sims], meas)
