from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from abc_eqf.config import default_config
from abc_eqf.eqf import (
    BadDimensionError,
    DirectionMeasurement,
    FilterState,
    InputRangeError,
    NoiseConfig,
    NonFiniteEstimateError,
    NonFiniteInputError,
    NonPositiveDtError,
    SensorModel,
    UnknownSensorError,
    _kalman,
    _trace_bound,
    compute_A0,
    compute_C0,
    compute_Md,
    compute_phi,
    eqf_init,
    eqf_propagate,
    eqf_update,
    sigma_u,
    validate_layout,
)
from abc_eqf.iekf import iekf_init, iekf_propagate, iekf_update
from abc_eqf.lie import exp_so3, is_rotation, wedge
from abc_eqf.runner import build_schedule, drive_batch
from abc_eqf.sim import simulate_run
from abc_eqf.symmetry import (
    AlgebraElement,
    action_phi,
    action_psi,
    action_rho,
    coords_theta,
    coords_theta_inv,
    group_exp,
    group_identity,
    identity_state,
    lift_lambda,
    output_h,
    state_from_group,
)

from conftest import max_state_gap, random_group_element, random_state, state_arrays

NS = [0, 1, 2, 3]
NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)


def make_sensors(n, total, rng=None, time_varying=()):
    sensors = []
    for i in range(total):
        ref = None
        if i not in time_varying:
            ref = np.zeros(3)
            ref[i % 3] = 1.0
            if rng is not None:
                ref = rng.normal(size=3)
                ref /= np.linalg.norm(ref)
        sensors.append(SensorModel(f"s{i}", i < n, 0.1, ref))
    validate_layout(sensors)
    return sensors


def random_psd(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim))
    return scale * (m @ m.T + 0.1 * np.eye(dim))


# ---------------------------------------------------------------------------
# init


def test_init_identity_and_sigma():
    sensors = make_sensors(1, 2)
    fs = eqf_init(1, sensors, NOISE, np.eye(9))
    assert_allclose(fs.xhat.A, np.eye(3))
    assert_allclose(fs.xhat.a, np.zeros(3))
    assert_allclose(fs.sigma, np.eye(9))
    assert fs.t == 0.0


def test_init_rejects_bad_sigma():
    sensors = make_sensors(1, 2)
    with pytest.raises(BadDimensionError):
        eqf_init(1, sensors, NOISE, np.eye(8))
    bad = np.eye(9)
    bad[0, 1] = 0.5
    with pytest.raises(BadDimensionError):
        eqf_init(1, sensors, NOISE, bad)
    with pytest.raises(BadDimensionError):
        eqf_init(1, sensors, NOISE, -np.eye(9))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_init_rejects_non_finite_sigma(bad):
    sigma0 = np.eye(9)
    sigma0[4, 4] = bad
    with pytest.raises(NonFiniteInputError, match="sigma0"):
        eqf_init(1, make_sensors(1, 2), NOISE, sigma0)


@pytest.mark.parametrize("densities", [(np.nan, 1.75e-5, 1e-4), (8.73e-4, np.inf, 1e-4),
                                       (8.73e-4, 1.75e-5, np.nan), (-1e-3, 1.75e-5, 1e-4)])
def test_noise_config_rejects_non_finite_or_negative(densities):
    with pytest.raises(ValueError, match="finite and non-negative"):
        NoiseConfig(*densities)


@pytest.mark.parametrize("densities", [(1e200, 1.75e-5, 1e-4), (8.73e-4, 1e155, 1e-4),
                                       (8.73e-4, 1.75e-5, 1e160)])
def test_noise_config_rejects_density_whose_square_overflows(densities):
    with pytest.raises(ValueError, match="finite square"):
        NoiseConfig(*densities)


def test_init_dimension_for_n2():
    sensors = make_sensors(2, 3)
    fs = eqf_init(2, sensors, NOISE, np.eye(12))
    assert fs.sigma.shape == (12, 12)


def test_layout_rejects_misordered():
    sensors = [SensorModel("a", False, 0.1, np.array([1.0, 0.0, 0.0])),
               SensorModel("b", True, 0.1, np.array([0.0, 1.0, 0.0]))]
    with pytest.raises(BadDimensionError):
        validate_layout(sensors)


def test_cal_index_comes_only_from_the_layout_check():
    """cal_index is no constructor argument, so a misordered layout cannot
    skip the check that an update makes on a never-validated sensor list."""
    ref = np.array([0.0, 1.0, 0.0])
    with pytest.raises(TypeError, match="cal_index"):
        SensorModel("c", True, 0.1, ref, cal_index=0)
    sensors = [SensorModel("u", False, 0.1, np.array([1.0, 0.0, 0.0])),
               SensorModel("c", True, 0.1, ref)]
    s = iekf_init(random_state(np.random.default_rng(0), 1), np.eye(9))
    with pytest.raises(BadDimensionError, match="calibrated sensors must precede"):
        iekf_update(s, [DirectionMeasurement(0.0, "c", ref)], sensors)


def _filter_state(kind, n, seed=0):
    """An EqF or IEKF state with n calibration states away from the
    identity, and its update step."""
    rng = np.random.default_rng(seed)
    sigma = 0.1 * np.eye(6 + 3 * n)
    if kind == "eqf":
        return FilterState(random_group_element(rng, n), sigma, 0.0), eqf_update
    return iekf_init(random_state(rng, n), sigma), iekf_update


def _two_calibrated():
    return [SensorModel("a", True, 0.1, np.array([0.0, 0.0, 1.0])),
            SensorModel("c", True, 0.3, np.array([1.0, 0.0, 0.0]))]


@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_update_reads_the_sensor_list_it_is_given(kind):
    """A sensor's calibration state is its position in the list of the
    call, whatever list it was validated in before; a calibrated sensor past
    the state's n and a non-unit fixed reference raise typed errors."""
    y = np.array([0.0, 0.6, 0.8])
    a, c = _two_calibrated()
    validate_layout([c, a])
    state, update = _filter_state(kind, 2)
    got = update(state, [DirectionMeasurement(0.0, "a", y)], [a, c])
    want = update(state, [DirectionMeasurement(0.0, "a", y)], _two_calibrated())
    for g, w in zip(state_arrays(got), state_arrays(want), strict=True):
        assert np.array_equal(g, w)

    validate_layout([a, c])
    state, update = _filter_state(kind, 1)
    with pytest.raises(BadDimensionError, match="calibrated sensors must precede"):
        update(state, [DirectionMeasurement(0.0, "c", y)], [a, c])

    far = SensorModel("u", False, 0.1, reference=np.array([2.0, 0.0, 0.0]))
    with pytest.raises(InputRangeError, match="not a unit vector"):
        update(state, [DirectionMeasurement(0.0, "u", y)], [a, far])


@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_duplicate_sensor_ids_are_rejected(kind):
    sensors = [SensorModel("a", True, 0.1, np.array([0.0, 0.0, 1.0])),
               SensorModel("a", True, 0.1, np.array([1.0, 0.0, 0.0]))]
    with pytest.raises(BadDimensionError, match="duplicate sensor id 'a'"):
        validate_layout(sensors)
    with pytest.raises(BadDimensionError, match="duplicate sensor id 'a'"):
        eqf_init(2, sensors, NOISE, np.eye(12))
    state, update = _filter_state(kind, 2)
    with pytest.raises(BadDimensionError, match="duplicate sensor id 'a'"):
        update(state, [DirectionMeasurement(0.0, "a", np.array([0.0, 0.0, 1.0]))], sensors)


def test_C0_checks_its_sensor_list():
    a, c = _two_calibrated()
    u = SensorModel("u", False, 0.1, np.array([0.0, 1.0, 0.0]))
    refs = np.eye(3)[:2]
    with pytest.raises(BadDimensionError, match="calibrated sensors must precede"):
        compute_C0([u, a], refs, 1)
    with pytest.raises(BadDimensionError, match="more than n=1"):
        compute_C0([a, c], refs, 1)
    with pytest.raises(BadDimensionError, match="duplicate sensor id"):
        compute_C0([a, a], refs, 2)


# ---------------------------------------------------------------------------
# linearized matrices vs finite-difference oracles


def _algebra_scale(lam, s):
    return AlgebraElement(lam.nav_rot * s, lam.nav_vec * s, [c * s for c in lam.cal])


def _algebra_sub(a, b):
    return AlgebraElement(a.nav_rot - b.nav_rot, a.nav_vec - b.nav_vec,
                          [x - y for x, y in zip(a.cal, b.cal)])


def _eps_dot(eps, omega0, n, h=1e-5):
    """Time derivative of the local-coordinate error via the lift flow."""
    e = coords_theta_inv(eps, n)
    dlam = _algebra_sub(lift_lambda(e, omega0), lift_lambda(identity_state(n), omega0))
    plus = coords_theta(action_phi(group_exp(_algebra_scale(dlam, h)), e))
    minus = coords_theta(action_phi(group_exp(_algebra_scale(dlam, -h)), e))
    return (plus - minus) / (2.0 * h)


def fd_A0(omega0, n, delta=1e-4):
    dim = 6 + 3 * n
    a = np.empty((dim, dim))
    for j in range(dim):
        ej = np.zeros(dim)
        ej[j] = delta
        a[:, j] = (_eps_dot(ej, omega0, n) - _eps_dot(-ej, omega0, n)) / (2.0 * delta)
    return a


@pytest.mark.parametrize("n", NS)
def test_A0_matches_finite_difference(rng, n):
    for _ in range(8):
        omega0 = rng.normal(0.0, 2.0, size=3)
        assert np.max(np.abs(compute_A0(omega0, n) - fd_A0(omega0, n))) < 1e-6


def test_A0_zero_input_structure():
    a = compute_A0(np.zeros(3), 1)
    expected = np.zeros((9, 9))
    expected[0:3, 3:6] = -np.eye(3)
    assert_allclose(a, expected)


def test_A0_paper_block_layout(rng):
    omega0 = rng.normal(size=3)
    a = compute_A0(omega0, 1)
    w = wedge(omega0)
    assert_allclose(a[0:3, 3:6], -np.eye(3))
    assert_allclose(a[3:6, 3:6], w)
    assert_allclose(a[6:9, 6:9], w)
    assert np.max(np.abs(a[0:3, 0:3])) == 0.0
    assert np.max(np.abs(a[3:6, 0:3])) == 0.0
    assert np.max(np.abs(a[6:9, 0:6])) == 0.0


def fd_C0(sensors, refs, n, delta=1e-4):
    dim = 6 + 3 * n
    rows = 3 * len(sensors)
    c = np.empty((rows, dim))
    for j in range(dim):
        ej = np.zeros(dim)
        ej[j] = delta
        hp = output_h(coords_theta_inv(ej, n), refs).reshape(rows)
        hm = output_h(coords_theta_inv(-ej, n), refs).reshape(rows)
        c[:, j] = (hp - hm) / (2.0 * delta)
    return c


@pytest.mark.parametrize("n", NS)
def test_C0_matches_finite_difference(rng, n):
    total = n + 2
    sensors = make_sensors(n, total, rng)
    refs = np.array([s.reference for s in sensors])
    c0 = compute_C0(sensors, refs, n)
    assert np.max(np.abs(c0 - fd_C0(sensors, refs, n))) < 1e-6


def test_C0_paper_layout_n1_N2(rng):
    sensors = make_sensors(1, 2, rng)
    refs = np.array([s.reference for s in sensors])
    c0 = compute_C0(sensors, refs, 1)
    d1, d2 = wedge(refs[0]), wedge(refs[1])
    assert_allclose(c0[0:3, 0:3], d1)
    assert_allclose(c0[0:3, 6:9], d1)
    assert np.max(np.abs(c0[0:3, 3:6])) == 0.0
    assert_allclose(c0[3:6, 0:3], d2)
    assert np.max(np.abs(c0[3:6, 3:9])) == 0.0


def test_C0_single_uncalibrated_row():
    sensors = [SensorModel("u", False, 0.1, np.array([0.0, 0.0, 1.0]))]
    validate_layout(sensors)
    c0 = compute_C0(sensors, np.array([[0.0, 0.0, 1.0]]), 0)
    assert_allclose(c0, np.hstack([wedge(np.array([0.0, 0.0, 1.0])), np.zeros((3, 3))]))


def test_C0_first_order_output_prediction(rng):
    n = 1
    sensors = make_sensors(n, 2, rng)
    refs = np.array([s.reference for s in sensors])
    c0 = compute_C0(sensors, refs, n)
    for _ in range(20):
        eps = rng.normal(size=9)
        eps *= 1e-4 / np.linalg.norm(eps)
        lhs = (output_h(coords_theta_inv(eps, n), refs) - refs).reshape(6)
        assert np.max(np.abs(lhs - c0 @ eps)) < 1e-6


# ---------------------------------------------------------------------------
# discretization


@pytest.mark.parametrize("n", [0, 1, 2])
def test_phi_zero_omega(n):
    dt = 0.37
    phi = compute_phi(np.zeros(3), dt, n)
    expected = np.eye(6 + 3 * n)
    expected[0:3, 3:6] = -dt * np.eye(3)
    assert_allclose(phi, expected)


def test_phi_matches_expm_sweep(rng):
    # ||omega|| dt from 0 to 2, both branch sides included.
    dt = 0.005
    for theta in [0.0, 1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.02, 0.3, 1.0, 2.0]:
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            omega0 = (theta / dt) * axis
            for n in (0, 1, 2):
                phi = compute_phi(omega0, dt, n)
                oracle = expm(compute_A0(omega0, n) * dt)
                assert np.max(np.abs(phi - oracle)) < 1e-11


def test_phi_branch_continuity(rng):
    # Each branch agrees with the exponential oracle right at the threshold,
    # so the branch disagreement at the switch is bounded by the sum.
    dt = 0.005
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    for theta in (0.9999999e-4, 1.0000001e-4):
        phi = compute_phi((theta / dt) * axis, dt, 1)
        oracle = expm(compute_A0((theta / dt) * axis, 1) * dt)
        assert np.max(np.abs(phi - oracle)) < 5e-11


def test_phi_block_structure(rng):
    phi = compute_phi(rng.normal(size=3), 0.01, 1)
    assert_allclose(phi[0:3, 0:3], np.eye(3))
    assert np.max(np.abs(phi[0:3, 6:9])) == 0.0
    assert np.max(np.abs(phi[3:6, 0:3])) == 0.0
    assert np.max(np.abs(phi[3:6, 6:9])) == 0.0
    assert np.max(np.abs(phi[6:9, 0:6])) == 0.0


def quad_Md(omega0, dt, noise, n, nodes=64):
    """Gauss-Legendre quadrature of the covariance integral using compute_phi."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * dt * (x + 1.0)
    ws = 0.5 * dt * w
    mc = sigma_u(noise, n)
    acc = np.zeros_like(mc)
    for si, wi in zip(s, ws):
        phi = compute_phi(omega0, si, n)
        acc += wi * phi @ mc @ phi.T
    return acc


def test_Md_zero_noise():
    md = compute_Md(np.ones(3), 0.01, NoiseConfig(0.0, 0.0, 0.0), 1)
    assert np.max(np.abs(md)) == 0.0


def test_Md_zero_omega_closed_form():
    dt = 0.02
    md = compute_Md(np.zeros(3), dt, NOISE, 1)
    sw2, st2, sk2 = NOISE.sigma_w ** 2, NOISE.sigma_bw ** 2, NOISE.sigma_kappa ** 2
    assert_allclose(md[0:3, 0:3], (sw2 * dt + st2 * dt ** 3 / 3.0) * np.eye(3))
    assert_allclose(md[0:3, 3:6], -st2 * dt ** 2 / 2.0 * np.eye(3))
    assert_allclose(md[3:6, 3:6], st2 * dt * np.eye(3))
    assert_allclose(md[6:9, 6:9], sk2 * dt * np.eye(3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_Md_matches_quadrature(rng, n):
    for dt in (0.001, 0.005, 0.05):
        for scale in (0.0, 0.5, 4.0, 40.0):
            omega0 = rng.normal(size=3)
            omega0 *= scale / max(np.linalg.norm(omega0), 1e-300)
            md = compute_Md(omega0, dt, NOISE, n)
            oracle = quad_Md(omega0, dt, NOISE, n)
            rel = np.max(np.abs(md - oracle)) / np.max(np.abs(oracle))
            assert rel < 1e-9


def test_Md_symmetry(rng):
    md = compute_Md(rng.normal(size=3) * 3.0, 0.01, NOISE, 2)
    assert np.max(np.abs(md - md.T)) < 1e-20
    assert np.min(np.linalg.eigvalsh(md)) >= 0.0


# ---------------------------------------------------------------------------
# isotropic output noise


def _random_update(rng):
    """Covariance, output matrix, per-row variances (sigma_y^2 repeated over
    each sensor's 3 rows) and residual of a random stacked update."""
    n = int(rng.integers(0, 4))
    m = int(rng.integers(1, 5))
    sigma = random_psd(rng, 6 + 3 * n, 0.1)
    h = rng.normal(size=(3 * m, 6 + 3 * n))
    var = np.repeat(rng.uniform(0.05, 0.5, m) ** 2, 3)
    return sigma, h, var, rng.normal(0.0, 0.1, 3 * m)


def test_kalman_step_invariant_to_rotated_isotropic_noise(rng):
    """Each sensor's noise sigma_y^2 I is unchanged by a rotation D of its
    3-block, so the output-noise adaptation D diag(var) D^T of the EqF gives
    the update of diag(var): _kalman, which adds var to the diagonal of
    S and skips the rotation, matches a textbook update with the rotated
    noise matrix.  Sigma+ = Sigma - K H Sigma rounds at the scale of the
    prior, so its gap is measured against Sigma."""
    for _ in range(100):
        sigma, h, var, residual = _random_update(rng)
        d = np.zeros((var.size, var.size))
        for k in range(0, var.size, 3):
            d[k:k + 3, k:k + 3] = exp_so3(rng.normal(0.0, 2.0, 3))
        gain = sigma @ h.T @ np.linalg.inv(h @ sigma @ h.T + d @ np.diag(var) @ d.T)
        sigma_ref = sigma - gain @ h @ sigma
        _, correction, sigma_new = _kalman(sigma, h, residual, var, _trace_bound(var), 0.0)
        assert np.max(np.abs(correction - gain @ residual)) <= 1e-12 * np.max(np.abs(correction))
        assert np.max(np.abs(sigma_new - sigma_ref)) <= 1e-12 * np.max(np.abs(sigma))


def test_kalman_step_correction_is_gain_times_residual(rng):
    """The correction is Sigma H^T S^-1 r for S = H Sigma H^T + diag(var)
    built explicitly, and the inputs are left unchanged."""
    for _ in range(100):
        sigma, h, var, residual = _random_update(rng)
        inputs = [a.copy() for a in (sigma, h, var, residual)]
        s_mat = h @ sigma @ h.T + np.diag(var)
        expected = sigma @ h.T @ np.linalg.solve(s_mat, residual)
        _, correction, _ = _kalman(sigma, h, residual, var, _trace_bound(var), 0.0)
        assert np.max(np.abs(correction - expected)) <= 1e-12 * np.max(np.abs(expected))
        for a, b in zip(inputs, (sigma, h, var, residual)):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# propagation


def test_propagate_rejects_bad_dt():
    fs = eqf_init(0, make_sensors(0, 1), NOISE, np.eye(6))
    with pytest.raises(NonPositiveDtError):
        eqf_propagate(fs, np.zeros(3), 0.0, NOISE)


@pytest.mark.parametrize("dt, omega", [
    (np.nan, [0.1, 0.2, 0.3]), (np.inf, [0.1, 0.2, 0.3]), (-np.inf, [0.1, 0.2, 0.3]),
    (0.01, [0.1, np.nan, 0.3]), (0.01, [0.1, 0.2, -np.inf]), (np.inf, [0.0, 0.0, 0.0])])
def test_propagate_rejects_non_finite_input(dt, omega):
    fs = eqf_init(1, make_sensors(1, 1), NOISE, np.eye(9), t0=2.5)
    with pytest.raises(NonFiniteInputError, match="t=2.5"):
        eqf_propagate(fs, np.array(omega), np.float64(dt), NOISE)


@pytest.mark.parametrize("omega", [[1e200, 0.0, 0.0], [0.0, -1e100, 0.0], [0.0, 0.0, 320.0]])
def test_propagate_rejects_step_turning_more_than_pi(omega):
    """A finite gyro sample that turns more than pi in one step, or whose
    square overflows, is an InputRangeError naming the sample, in both
    filters; 3.2 rad in 0.01 s is just past pi."""
    fs = eqf_init(1, make_sensors(1, 1), NOISE, np.eye(9), t0=2.5)
    with pytest.raises(InputRangeError, match="turns more than pi"):
        eqf_propagate(fs, np.array(omega), 0.01, NOISE)
    with pytest.raises(InputRangeError, match="turns more than pi"):
        iekf_propagate(iekf_init(identity_state(1), np.eye(9)), np.array(omega), 0.01, NOISE)


@pytest.mark.parametrize("y, ref", [([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                    ([0.6, 0.8, 0.01], [1.0, 0.0, 0.0]),
                                    ([1.0, 0.0, 0.0], [0.0, 1e200, 0.0])])
def test_update_rejects_non_unit_direction(y, ref):
    """A measured direction, or a reference that arrives with it, whose norm
    is not 1 within 1e-6 is an InputRangeError naming the sensor, in both
    filters."""
    sensors = [SensorModel("gnss", False, 0.1)]
    meas = [DirectionMeasurement(0.0, "gnss", np.array(y), np.array(ref))]
    with pytest.raises(InputRangeError, match="'gnss'"):
        eqf_update(eqf_init(0, sensors, NOISE, np.eye(6)), meas, sensors)
    with pytest.raises(InputRangeError, match="'gnss'"):
        iekf_update(iekf_init(identity_state(0), np.eye(6)), meas, sensors)


def test_propagate_zero_omega_identity_state():
    sigma0 = np.diag([0.1] * 3 + [0.0] * 3 + [0.2] * 3)
    fs = eqf_init(1, make_sensors(1, 2), NOISE, sigma0)
    out = eqf_propagate(fs, np.zeros(3), 0.01, NOISE)
    assert_allclose(out.xhat.A, np.eye(3))
    assert_allclose(out.xhat.a, np.zeros(3))
    assert_allclose(out.xhat.B[0], np.eye(3))
    # with a zero bias block the Phi coupling is inert: Sigma <- Sigma + Md
    assert_allclose(out.sigma, sigma0 + compute_Md(np.zeros(3), 0.01, NOISE, 1),
                    atol=1e-18)


def test_propagate_constant_omega_closed_form(rng):
    # state estimate must follow R(t) = R(0) exp((omega - b)^ t) exactly
    n = 1
    fs = FilterState(random_group_element(rng, n), np.eye(9), 0.0)
    xi0 = state_from_group(fs.xhat)
    omega = rng.normal(size=3)
    zero = NoiseConfig(0.0, 0.0, 0.0)
    dt = 1e-3
    for _ in range(1000):
        fs = eqf_propagate(fs, omega, dt, zero)
    xi = state_from_group(fs.xhat)
    expected_R = xi0.R @ exp_so3((omega - xi0.b) * 1.0)
    assert np.max(np.abs(xi.R - expected_R)) < 1e-8
    assert np.max(np.abs(xi.b - xi0.b)) < 1e-8
    assert np.max(np.abs(xi.C[0] - xi0.C[0])) < 1e-8


def test_propagate_trace_grows_from_diagonal(rng):
    fs = eqf_init(1, make_sensors(1, 2), NOISE, np.diag(rng.uniform(0.01, 1.0, 9)))
    trace = np.trace(fs.sigma)
    for _ in range(500):
        fs = eqf_propagate(fs, rng.normal(0.0, 2.0, 3), 0.005, NOISE)
        new_trace = np.trace(fs.sigma)
        assert new_trace > trace
        trace = new_trace


# ---------------------------------------------------------------------------
# update


def _perfect_measurements(fs, sensors, t=0.0):
    xi = state_from_group(fs.xhat)
    refs = np.array([s.reference for s in sensors])
    ys = output_h(xi, refs)
    return [DirectionMeasurement(t, s.sensor_id, ys[i]) for i, s in enumerate(sensors)]


def test_update_perfect_measurement_fixed_point(rng):
    n = 1
    sensors = make_sensors(n, 2, rng)
    fs = FilterState(random_group_element(rng, n), random_psd(rng, 9, 0.05), 0.0)
    meas = _perfect_measurements(fs, sensors)
    out = eqf_update(fs, meas, sensors)
    assert np.max(np.abs(out.xhat.A - fs.xhat.A)) < 1e-12
    assert np.max(np.abs(out.xhat.a - fs.xhat.a)) < 1e-12
    assert np.max(np.abs(out.xhat.B[0] - fs.xhat.B[0])) < 1e-12
    # Sigma still contracts by (I - K C0)
    assert np.trace(out.sigma) < np.trace(fs.sigma)


def test_update_gain_block_sparsity(rng):
    # single uncalibrated sensor with isotropic covariance: only attitude rows act
    sensors = [SensorModel("u", False, 0.1, np.array([0.0, 0.0, 1.0]))]
    validate_layout(sensors)
    fs = eqf_init(0, sensors, NOISE, 0.04 * np.eye(6))
    y = np.array([0.0, 0.0, 1.0])
    out = eqf_update(fs, [DirectionMeasurement(0.0, "u", y)], sensors)
    # perfect measurement: state unchanged; bias rows of the gain are zero, so
    # the bias variance cannot change
    assert_allclose(out.sigma[3:6, 3:6], fs.sigma[3:6, 3:6])
    assert np.trace(out.sigma[0:3, 0:3]) < np.trace(fs.sigma[0:3, 0:3])


def test_update_trace_never_increases(rng):
    n = 1
    sensors = make_sensors(n, 2, rng)
    for _ in range(50):
        fs = FilterState(random_group_element(rng, n), random_psd(rng, 9, 0.1), 0.0)
        meas = _perfect_measurements(fs, sensors)
        for m in meas:
            m.y = m.y + rng.normal(0.0, 0.1, 3)
            m.y /= np.linalg.norm(m.y)
        out = eqf_update(fs, meas, sensors)
        assert np.trace(out.sigma) <= np.trace(fs.sigma) + 1e-12


def test_update_singular_s_skipped(rng, caplog):
    sensors = [SensorModel("u", False, 0.0, np.array([0.0, 0.0, 1.0]))]
    validate_layout(sensors)
    fs = eqf_init(0, sensors, NOISE, np.zeros((6, 6)))
    with caplog.at_level("WARNING"):
        out = eqf_update(fs, [DirectionMeasurement(0.0, "u", np.array([0.0, 0.0, 1.0]))],
                         sensors)
    assert "skipped" in caplog.text
    assert out is fs


def _two_direction_update(sigma_y_second):
    """Zero prior covariance: S = D diag(1, sigma_y_second^2) D^T, so
    cond(S) = 1 / sigma_y_second^2 and S is non-singular."""
    sensors = [SensorModel("u", False, 1.0, np.array([0.0, 0.0, 1.0])),
               SensorModel("v", False, sigma_y_second, np.array([1.0, 0.0, 0.0]))]
    validate_layout(sensors)
    fs = eqf_init(0, sensors, NOISE, np.zeros((6, 6)))
    meas = [DirectionMeasurement(0.0, "u", np.array([0.0, 0.0, 1.0])),
            DirectionMeasurement(0.0, "v", np.array([1.0, 0.0, 0.0]))]
    return fs, eqf_update(fs, meas, sensors)


def test_update_near_singular_s_skipped(caplog):
    with caplog.at_level("WARNING"):
        fs, out = _two_direction_update(1e-7)        # cond(S) = 1e14
    assert "skipped" in caplog.text
    assert out is fs


def test_update_applied_below_condition_limit(caplog):
    with caplog.at_level("WARNING"):
        fs, out = _two_direction_update(1e-5)        # cond(S) = 1e10
    assert "skipped" not in caplog.text
    assert out is not fs


def test_update_non_finite_s_raises(caplog):
    """A non-finite S ends the filter: no later update could recover it."""
    sensors = make_sensors(0, 1)
    sigma = np.eye(6)
    sigma[0, 0] = np.nan
    fs = FilterState(group_identity(0), sigma, 0.0)
    with caplog.at_level("WARNING"), pytest.raises(
            NonFiniteEstimateError, match=r"^update at t=0\.000000: S is not finite$"):
        eqf_update(fs, [DirectionMeasurement(0.0, "s0", np.array([0.0, 1.0, 0.0]))], sensors)
    assert "skipped" not in caplog.text


def test_back_to_back_updates_stay_on_so3(rng):
    """Updates do not re-project; composing with exponentials keeps every
    factor a rotation to rounding over many updates without propagation."""
    n = 2
    sensors = make_sensors(n, 3, rng)
    sigma = 0.1 * np.eye(6 + 3 * n)
    fs = eqf_init(n, sensors, NOISE, sigma)
    for _ in range(5000):
        meas = [DirectionMeasurement(0.0, s.sensor_id, _noisy_unit(rng, s.reference, 0.3))
                for s in sensors]
        # keep the covariance fixed so that every update moves the state
        fs = FilterState(eqf_update(fs, meas, sensors).xhat, sigma, 0.0)
    assert is_rotation(fs.xhat.A, tol=1e-9)
    for b in fs.xhat.B:
        assert is_rotation(b, tol=1e-9)


def test_update_rejects_future_measurement(rng):
    sensors = make_sensors(0, 1, rng)
    fs = eqf_init(0, sensors, NOISE, np.eye(6))
    with pytest.raises(ValueError):
        eqf_update(fs, [DirectionMeasurement(1.0, "s0", np.array([1.0, 0.0, 0.0]))],
                   sensors)


def test_update_rejects_unknown_sensor(rng):
    sensors = make_sensors(1, 2, rng)
    fs = eqf_init(1, sensors, NOISE, np.eye(9), t0=4.0)
    meas = [DirectionMeasurement(4.0, "gps", np.array([1.0, 0.0, 0.0]))]
    with pytest.raises(UnknownSensorError,
                       match=r"'gps'.*\['s0', 's1'\].*filter time t=4\.0"):
        eqf_update(fs, meas, sensors)


@pytest.mark.parametrize("mode, value", [("md_mode", "first-order"),
                                         ("residual_mode", "literal")])
def test_removed_modes_are_rejected(rng, mode, value):
    """The filter has one model: the library steps and drive_batch reject
    the first-order Md and the literal residual with ValueError."""
    sensors = make_sensors(1, 2, rng)
    fs = eqf_init(1, sensors, NOISE, 0.1 * np.eye(9))
    match = rf"^{mode} must be '\w+', got '{value}'$"
    with pytest.raises(ValueError, match=match):
        if mode == "md_mode":
            eqf_propagate(fs, np.ones(3), 0.01, NOISE, value)
        else:
            eqf_update(fs, _perfect_measurements(fs, sensors), sensors, value)
    cfg = replace(default_config(seed=3), duration=0.1)
    sim = simulate_run(cfg)
    schedule = build_schedule(cfg, [sim.gyro_t], [sim.gyro_omega], [sim.log], first_run=None)
    with pytest.raises(ValueError, match=match):
        drive_batch("eqf", schedule, replace(cfg, **{mode: value}))


# ---------------------------------------------------------------------------
# covariance health and filter-level equivariance


def test_covariance_symmetry_psd_long_run(rng):
    n = 1
    sensors = make_sensors(n, 2, rng)
    fs = eqf_init(n, sensors, NOISE, 0.1 * np.eye(9))
    refs = np.array([s.reference for s in sensors])
    cycles = 20000
    for k in range(cycles):
        fs = eqf_propagate(fs, rng.normal(0.0, 1.5, 3), 0.005, NOISE)
        if k % 5 == 0:
            xi = state_from_group(fs.xhat)
            ys = output_h(xi, refs)
            meas = [DirectionMeasurement(fs.t, s.sensor_id,
                                         _noisy_unit(rng, ys[i], 0.1))
                    for i, s in enumerate(sensors)]
            fs = eqf_update(fs, meas, sensors)
        if k % 500 == 0 or k == cycles - 1:
            assert np.max(np.abs(fs.sigma - fs.sigma.T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(fs.sigma)) >= -1e-9 * np.trace(fs.sigma)


def _noisy_unit(rng, y, sigma):
    out = y + rng.normal(0.0, sigma, 3)
    return out / np.linalg.norm(out)


def test_filter_equivariant_consistency(rng):
    """Transforming all data by a fixed group element transforms the estimates.

    Inputs via psi_Z, outputs via rho_Z, same initial covariance: the
    transformed run's state estimates equal phi_Z of the original run's.
    """
    n = 1
    sensors = make_sensors(n, 2, rng)
    z = random_group_element(rng, n)
    sigma0 = 0.05 * np.eye(9)

    fs_a = eqf_init(n, sensors, NOISE, sigma0)
    # the transformed run starts at the transported initial estimate
    # Xhat_b(0) = Xhat_a(0) Z = Z, with the covariance carried over unchanged
    fs_b = FilterState(z, sigma0.copy(), 0.0)
    dt = 0.01
    truth = random_state(rng, n, scale=0.3)
    refs = np.array([s.reference for s in sensors])

    for k in range(200):
        omega_true = np.array([0.8 * np.sin(0.3 * k * dt + 0.4),
                               0.5 * np.cos(0.5 * k * dt),
                               0.3 * np.sin(0.9 * k * dt)])
        omega_meas = omega_true + truth.b
        truth = type(truth)(truth.R @ exp_so3(omega_true * dt), truth.b, truth.C)

        fs_a = eqf_propagate(fs_a, omega_meas, dt, NOISE)
        fs_b = eqf_propagate(fs_b, action_psi(z, omega_meas), dt, NOISE)
        if k % 4 == 3:
            ys = output_h(truth, refs)
            noisy = np.array([_noisy_unit(rng, ys[i], 0.05) for i in range(len(sensors))])
            meas_a = [DirectionMeasurement(fs_a.t, s.sensor_id, noisy[i])
                      for i, s in enumerate(sensors)]
            ys_b = action_rho(z, noisy)
            meas_b = [DirectionMeasurement(fs_b.t, s.sensor_id, ys_b[i])
                      for i, s in enumerate(sensors)]
            fs_a = eqf_update(fs_a, meas_a, sensors)
            fs_b = eqf_update(fs_b, meas_b, sensors)

    expected = action_phi(z, state_from_group(fs_a.xhat))
    got = state_from_group(fs_b.xhat)
    assert max_state_gap(got, expected) < 1e-8
    assert np.max(np.abs(fs_a.sigma - fs_b.sigma)) < 1e-8
