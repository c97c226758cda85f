import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from abc_eqf.eqf import (
    BadDimensionError,
    DirectionMeasurement,
    NoiseConfig,
    NonFiniteEstimateError,
    NonFiniteInputError,
    NonPositiveDtError,
    SensorModel,
    UnknownSensorError,
    validate_layout,
)
from abc_eqf import iekf
from abc_eqf.iekf import IekfState, iekf_init, iekf_propagate, iekf_update
from abc_eqf.lie import exp_so3, is_rotation
from abc_eqf.symmetry import identity_state, output_h

from conftest import random_state

NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)


def make_sensors(n, total, rng):
    sensors = []
    for i in range(total):
        ref = rng.normal(size=3)
        ref /= np.linalg.norm(ref)
        sensors.append(SensorModel(f"s{i}", i < n, 0.1, ref))
    validate_layout(sensors)
    return sensors


def random_psd(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim))
    return scale * (m @ m.T + 0.1 * np.eye(dim))


def test_init_identity_keeps_sigma(rng):
    sigma0 = random_psd(rng, 9, 0.1)
    s = iekf_init(identity_state(1), sigma0)
    assert_allclose(s.sigma, sigma0)
    assert s.sigma.shape == (9, 9)


def test_init_adaptation_preserves_eigenvalues(rng):
    xi0 = random_state(rng, 1)
    sigma0 = random_psd(rng, 9, 0.1)
    s = iekf_init(xi0, sigma0)
    assert_allclose(np.sort(np.linalg.eigvalsh(s.sigma)),
                    np.sort(np.linalg.eigvalsh(sigma0)), rtol=1e-9)


def test_init_rejects_bad_sigma(rng):
    with pytest.raises(BadDimensionError):
        iekf_init(identity_state(1), np.eye(8))
    with pytest.raises(BadDimensionError):
        iekf_init(identity_state(1), -np.eye(9))


def test_init_rejects_non_finite_sigma():
    sigma0 = np.eye(9)
    sigma0[7, 7] = np.nan
    with pytest.raises(NonFiniteInputError, match="sigma0"):
        iekf_init(identity_state(1), sigma0)


def test_propagate_exact_bias_cancellation(rng):
    xi = random_state(rng, 1)
    s = IekfState(xi, random_psd(rng, 9, 0.1), 0.0)
    out = iekf_propagate(s, xi.b.copy(), 0.01, NOISE)
    assert np.max(np.abs(out.xi.R - xi.R)) < 1e-14
    assert_allclose(out.xi.b, xi.b)


def test_propagate_rejects_bad_dt(rng):
    s = IekfState(random_state(rng, 1), np.eye(9), 0.0)
    with pytest.raises(NonPositiveDtError):
        iekf_propagate(s, np.zeros(3), -0.1, NOISE)


@pytest.mark.parametrize("dt, omega", [
    (np.nan, [0.1, 0.2, 0.3]), (np.inf, [0.1, 0.2, 0.3]), (-np.inf, [0.1, 0.2, 0.3]),
    (0.01, [0.1, np.nan, 0.3]), (0.01, [0.1, 0.2, -np.inf])])
def test_propagate_rejects_non_finite_input(rng, dt, omega):
    s = iekf_init(random_state(rng, 1), np.eye(9), t0=2.5)
    with pytest.raises(NonFiniteInputError, match="t=2.5"):
        iekf_propagate(s, np.array(omega), np.float64(dt), NOISE)


def test_update_rejects_unknown_sensor(rng):
    sensors = make_sensors(1, 2, rng)
    s = iekf_init(identity_state(1), np.eye(9), t0=4.0)
    meas = [DirectionMeasurement(4.0, "gps", np.array([1.0, 0.0, 0.0]))]
    with pytest.raises(UnknownSensorError,
                       match=r"'gps'.*\['s0', 's1'\].*filter time t=4\.0"):
        iekf_update(s, meas, sensors)


def test_transition_matrix_nilpotency(rng):
    # F^2 = 0, so I + F dt is the exact exponential.
    for _ in range(50):
        r = exp_so3(rng.normal(size=3))
        f = np.zeros((9, 9))
        f[0:3, 3:6] = -r
        assert np.max(np.abs(f @ f)) == 0.0
        dt = rng.uniform(1e-4, 0.1)
        assert np.max(np.abs((np.eye(9) + f * dt) - expm(f * dt))) < 1e-14


def test_propagate_constant_omega_closed_form(rng):
    xi0 = random_state(rng, 1)
    s = IekfState(xi0, np.eye(9), 0.0)
    omega = rng.normal(size=3)
    zero = NoiseConfig(0.0, 0.0, 0.0)
    for _ in range(1000):
        s = iekf_propagate(s, omega, 1e-3, zero)
    assert np.max(np.abs(s.xi.R - xi0.R @ exp_so3((omega - xi0.b) * 1.0))) < 1e-8
    assert_allclose(s.xi.b, xi0.b)
    assert_allclose(s.xi.C[0], xi0.C[0])


def test_update_perfect_measurement_fixed_point(rng):
    sensors = make_sensors(1, 2, rng)
    xi = random_state(rng, 1)
    s = IekfState(xi, random_psd(rng, 9, 0.05), 0.0)
    refs = np.array([m.reference for m in sensors])
    ys = output_h(xi, refs)
    meas = [DirectionMeasurement(0.0, m.sensor_id, ys[i]) for i, m in enumerate(sensors)]
    out = iekf_update(s, meas, sensors)
    assert np.max(np.abs(out.xi.R - xi.R)) < 1e-12
    assert np.max(np.abs(out.xi.b - xi.b)) < 1e-12
    assert np.max(np.abs(out.xi.C[0] - xi.C[0])) < 1e-12


def test_update_h_matrix_structure(rng):
    # calibrated sensor: [d^ 0 d^ Rhat]; uncalibrated: zero calibration block.
    sensors = make_sensors(1, 2, rng)
    xi = random_state(rng, 1)
    s = IekfState(xi, 0.1 * np.eye(9), 0.0)
    # probe the structure through the gain: zero covariance columns isolate blocks
    sigma = np.zeros((9, 9))
    sigma[6:9, 6:9] = np.eye(3)
    s = IekfState(xi, sigma, 0.0)
    refs = np.array([m.reference for m in sensors])
    ys = output_h(xi, refs)
    # uncalibrated measurement alone cannot move the calibration state
    meas = [DirectionMeasurement(0.0, sensors[1].sensor_id,
                                 _noisy_unit(rng, ys[1], 0.2))]
    out = iekf_update(s, meas, sensors)
    assert np.max(np.abs(out.xi.C[0] - xi.C[0])) < 1e-14


def _noisy_unit(rng, y, sigma):
    out = y + rng.normal(0.0, sigma, 3)
    return out / np.linalg.norm(out)


def test_update_trace_never_increases(rng):
    sensors = make_sensors(1, 2, rng)
    for _ in range(50):
        xi = random_state(rng, 1)
        s = IekfState(xi, random_psd(rng, 9, 0.1), 0.0)
        refs = np.array([m.reference for m in sensors])
        ys = output_h(xi, refs)
        meas = [DirectionMeasurement(0.0, m.sensor_id, _noisy_unit(rng, ys[i], 0.1))
                for i, m in enumerate(sensors)]
        out = iekf_update(s, meas, sensors)
        assert np.trace(out.sigma) <= np.trace(s.sigma) + 1e-12


def test_update_singular_s_skipped(rng, caplog):
    sensors = [SensorModel("u", False, 0.0, np.array([0.0, 0.0, 1.0]))]
    validate_layout(sensors)
    s = IekfState(identity_state(0), np.zeros((6, 6)), 0.0)
    with caplog.at_level("WARNING"):
        out = iekf_update(s, [DirectionMeasurement(0.0, "u", np.array([0.0, 0.0, 1.0]))],
                          sensors)
    assert "skipped" in caplog.text
    assert out is s


def _two_direction_update(sigma_y_second):
    """Zero prior covariance: S = D diag(1, sigma_y_second^2) D^T, so
    cond(S) = 1 / sigma_y_second^2 and S is non-singular."""
    sensors = [SensorModel("u", False, 1.0, np.array([0.0, 0.0, 1.0])),
               SensorModel("v", False, sigma_y_second, np.array([1.0, 0.0, 0.0]))]
    validate_layout(sensors)
    s = IekfState(identity_state(0), np.zeros((6, 6)), 0.0)
    meas = [DirectionMeasurement(0.0, "u", np.array([0.0, 0.0, 1.0])),
            DirectionMeasurement(0.0, "v", np.array([1.0, 0.0, 0.0]))]
    return s, iekf_update(s, meas, sensors)


def test_update_near_singular_s_skipped(caplog):
    with caplog.at_level("WARNING"):
        s, out = _two_direction_update(1e-7)         # cond(S) = 1e14
    assert "skipped" in caplog.text
    assert out is s


def test_update_applied_below_condition_limit(caplog):
    with caplog.at_level("WARNING"):
        s, out = _two_direction_update(1e-5)         # cond(S) = 1e10
    assert "skipped" not in caplog.text
    assert out is not s


def test_update_non_finite_s_raises(caplog):
    """A non-finite S ends the filter: no later update could recover it."""
    sensors = [SensorModel("u", False, 0.1, np.array([1.0, 0.0, 0.0]))]
    validate_layout(sensors)
    sigma = np.eye(6)
    sigma[0, 0] = np.nan
    s = IekfState(identity_state(0), sigma, 0.0)
    with caplog.at_level("WARNING"), pytest.raises(
            NonFiniteEstimateError, match=r"^update at t=0\.000000: S is not finite$"):
        iekf_update(s, [DirectionMeasurement(0.0, "u", np.array([0.0, 1.0, 0.0]))], sensors)
    assert "skipped" not in caplog.text


def test_back_to_back_updates_stay_on_so3(rng):
    """Updates do not re-project; composing with exponentials keeps every
    rotation a rotation to rounding over many updates without propagation."""
    sensors = make_sensors(2, 3, rng)
    sigma = 0.1 * np.eye(12)
    s = IekfState(identity_state(2), sigma, 0.0)
    for _ in range(5000):
        meas = [DirectionMeasurement(0.0, m.sensor_id, _noisy_unit(rng, m.reference, 0.3))
                for m in sensors]
        # keep the covariance fixed so that every update moves the state
        s = IekfState(iekf_update(s, meas, sensors).xi, sigma, 0.0)
    assert is_rotation(s.xi.R, tol=1e-9)
    for c in s.xi.C:
        assert is_rotation(c, tol=1e-9)


def test_covariance_symmetry_psd_long_run(rng):
    sensors = make_sensors(1, 2, rng)
    s = IekfState(identity_state(1), 0.1 * np.eye(9), 0.0)
    refs = np.array([m.reference for m in sensors])
    for k in range(5000):
        s = iekf_propagate(s, rng.normal(0.0, 1.5, 3), 0.005, NOISE)
        if k % 5 == 0:
            ys = output_h(s.xi, refs)
            meas = [DirectionMeasurement(s.t, m.sensor_id, _noisy_unit(rng, ys[i], 0.1))
                    for i, m in enumerate(sensors)]
            s = iekf_update(s, meas, sensors)
        if k % 500 == 0:
            assert np.max(np.abs(s.sigma - s.sigma.T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(s.sigma)) >= -1e-9 * np.trace(s.sigma)


def test_update_h_matches_residual_jacobian(rng, monkeypatch):
    """H is minus the Jacobian of the residual Rhat Chat_i y - d (or Rhat y - d)
    under the update's correction map R <- exp(d_att) Rhat, b <- bhat + d_bias,
    C_i <- exp(d_cal_i) Chat_i, taken at a perfect measurement; this covers
    the d^ Rhat calibration blocks."""
    captured = []

    def capture(sigma, h, *_):
        captured.append(h)
        return np.array(False), None, None      # the update is skipped

    monkeypatch.setattr(iekf, "_kalman", capture)
    for n in range(4):
        dim = 6 + 3 * n
        sensors = make_sensors(n, n + 2, rng)
        xi = random_state(rng, n)
        refs = np.array([m.reference for m in sensors])
        ys = output_h(xi, refs)
        meas = [DirectionMeasurement(0.0, m.sensor_id, ys[i]) for i, m in enumerate(sensors)]
        iekf_update(IekfState(xi, np.eye(dim), 0.0), meas, sensors)

        def residual(delta):
            r = exp_so3(delta[0:3]) @ xi.R
            c = [exp_so3(delta[6 + 3 * i: 9 + 3 * i]) @ ci for i, ci in enumerate(xi.C)]
            rots = c + [np.eye(3)] * 2
            return np.concatenate([r @ rots[i] @ ys[i] - refs[i] for i in range(n + 2)])

        step = 1e-6
        jac = np.empty((3 * (n + 2), dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            jac[:, j] = (residual(e) - residual(-e)) / (2.0 * step)
        assert np.max(np.abs(captured[-1] + jac)) < 1e-6


def _mag_gnss_update(sensors):
    s = iekf_init(identity_state(1), 0.1 * np.eye(9))
    meas = [DirectionMeasurement(0.0, "mag", np.array([0.6, 0.0, 0.8])),
            DirectionMeasurement(0.0, "gnss", np.array([0.0, 0.6, 0.8]),
                                 np.array([0.0, 0.0, 1.0]))]
    return iekf_update(s, meas, sensors)


def _mag_gnss_sensors():
    return [SensorModel("mag", True, 0.2, np.array([0.0, 0.0, 1.0])),
            SensorModel("gnss", False, 0.1)]


def test_update_validates_fresh_sensor_list():
    validated = _mag_gnss_sensors()
    validate_layout(validated)
    expected = _mag_gnss_update(validated)
    fresh = _mag_gnss_sensors()
    out = _mag_gnss_update(fresh)
    assert np.array_equal(out.xi.R, expected.xi.R)
    assert np.array_equal(out.xi.C[0], expected.xi.C[0])
    assert np.array_equal(out.sigma, expected.sigma)


def test_update_rejects_fresh_sensor_list_in_wrong_order():
    with pytest.raises(BadDimensionError):
        _mag_gnss_update(_mag_gnss_sensors()[::-1])
