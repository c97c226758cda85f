"""The measurement update path both filters share, against straightforward
references: the certified skip test of the one Kalman step (eqf._kalman),
which every update of the library and of the batch driver calls, against
the eigenvalue-only rule, on plain 2-D inputs and on stacks, and eqf_update
/ iekf_update against the textbook updates of reference_filters, written
with wedge, np.diag and np.concatenate.  Every library step, which runs the
kernels on a stack of its input state's rotations (the stack the step that
made the state returned, or a new one), leaves that state as it was."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abc_eqf import eqf as eqf_module
from abc_eqf.eqf import (
    REPROJECT_EVERY,
    S_CONDITION_LIMIT,
    DirectionMeasurement,
    FilterState,
    NoiseConfig,
    NonFiniteEstimateError,
    SensorModel,
    _kalman,
    _trace_bound,
    compute_C0,
    eqf_propagate,
    eqf_update,
    validate_layout,
)
from abc_eqf.iekf import IekfState, iekf_propagate, iekf_update
from abc_eqf.lie import exp_so3, wedge
from abc_eqf.symmetry import AlgebraElement, SystemState, group_exp, group_mul

from conftest import random_group_element, random_state, state_arrays
from reference_filters import kalman_step_eigvalsh, reference_eqf_update, reference_iekf_update


SIGMA_Y = [0.0, 1e-7, 1e-5, 1e-3, 0.1, 1.0]
SCALES = [0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e4, 1e200]


@st.composite
def kalman_inputs(draw):
    """sigma, h, var and residual of one update: plain 2-D arrays, or stacks
    of 1-4 rows, each with its own sigma, h and residual, sharing var."""
    n = draw(st.integers(0, 3))
    k = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 4))      # 0: plain 2-D inputs
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 6 + 3 * n
    use_c0 = draw(st.booleans())
    var = np.repeat([draw(st.sampled_from(SIGMA_Y)) ** 2 for _ in range(k)], 3)
    poison = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
    poisoned_row = draw(st.integers(0, max(rows, 1) - 1))
    sigmas, hs = [], []
    for row in range(max(rows, 1)):
        low_rank = draw(st.integers(1, dim))
        factor = rng.normal(size=(dim, low_rank))
        sigma = draw(st.sampled_from(SCALES)) * (factor @ factor.T)
        if draw(st.booleans()):
            # rounding-level asymmetry and indefiniteness, as the filters' Sigma has
            noise = rng.normal(size=(dim, dim))
            sigma = sigma + 1e-16 * np.max(np.abs(sigma)) * noise
        if poison is not None and row == poisoned_row:
            i, j = rng.integers(0, dim, 2)
            sigma[i, j] = poison
        if use_c0:
            refs = rng.normal(size=(k, 3))
            refs /= np.linalg.norm(refs, axis=1, keepdims=True)
            sensors = [SensorModel(f"s{i}", i < min(n, k), 1.0) for i in range(k)]
            validate_layout(sensors)
            hs.append(compute_C0(sensors, refs, n))
        else:
            hs.append(rng.normal(size=(3 * k, dim)))
        sigmas.append(sigma)
    residual = rng.normal(size=(len(sigmas), 3 * k))
    if rows == 0:
        return sigmas[0], hs[0], var, residual[0]
    return np.stack(sigmas), np.stack(hs), var, residual


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kalman_inputs())
def test_certified_kalman_step_matches_eigvalsh_rule(inputs):
    """Every row's outcome (raise, skip, or K r and sigma+) equals the
    eigenvalue-only reference bit for bit, for 2-D inputs and stacks; a
    stack with a non-finite row raises."""
    sigma, h, var, residual = inputs
    dim = sigma.shape[-1]
    names = [f"run {i}: " for i in range(max(sigma.size // dim ** 2, 1))]
    expected = []
    with np.errstate(all="ignore"):
        for row in zip(sigma.reshape(-1, dim, dim), h.reshape(-1, *h.shape[-2:]),
                       residual.reshape(-1, residual.shape[-1])):
            try:
                expected.append(kalman_step_eigvalsh(row[0], row[1], var, row[2]))
            except NonFiniteEstimateError:
                expected.append(NonFiniteEstimateError)
        if NonFiniteEstimateError in expected:
            first = expected.index(NonFiniteEstimateError)
            with pytest.raises(NonFiniteEstimateError, match=rf"^run {first}: update at "
                                                               r"t=0\.000000: S is not finite$"):
                _kalman(sigma, h, residual, var, _trace_bound(var), 0.0, names)
            return
        keep, corr, sigma_new = _kalman(sigma, h, residual, var, _trace_bound(var), 0.0,
                                        names)
    passed = [e is not None for e in expected]
    if all(passed):
        assert keep is None
    else:
        assert keep.shape == sigma.shape[:-2]
        assert keep.ravel().tolist() == passed
    if not any(passed):
        assert corr is None and sigma_new is None
        return
    kept = [e for e in expected if e is not None]
    assert corr.shape == ((len(kept), dim) if sigma.ndim == 3 else (dim,))
    for got_r, got_sigma, (want_r, want_sigma) in zip(corr.reshape(-1, dim),
                                                       sigma_new.reshape(-1, dim, dim), kept):
        assert np.array_equal(got_r, want_r)
        assert np.array_equal(got_sigma, want_sigma)


@pytest.mark.parametrize("sigma_y_second, skipped", [(1e-5, False), (1e-7, True)])
def test_certified_kalman_step_at_the_condition_limit(sigma_y_second, skipped):
    """The two-direction cases of the skip tests, cond(S) = 1e10 and 1e14
    with a zero prior: 1e10 is above the certificate's bound, so the
    eigenvalue rule decides both."""
    sensors = [SensorModel("u", False, 1.0), SensorModel("v", False, sigma_y_second)]
    validate_layout(sensors)
    h = compute_C0(sensors, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 0)
    var = np.repeat([1.0, sigma_y_second ** 2], 3)
    keep, _, _ = _kalman(np.zeros((6, 6)), h, np.ones(6), var, _trace_bound(var), 0.0)
    expected = kalman_step_eigvalsh(np.zeros((6, 6)), h, var, np.ones(6))
    assert (keep is not None) == (expected is None) == skipped


def test_typical_update_needs_no_eigendecomposition(monkeypatch, rng):
    """A filter-sized S with sigma_y 0.1 is accepted by the certificate."""
    monkeypatch.setattr(eqf_module.np.linalg, "eigvalsh",
                        lambda *_: pytest.fail("eigvalsh called"))
    sigma = 0.1 * np.eye(15)
    h = rng.normal(size=(6, 15))
    var = np.full(6, 0.01)
    keep, _, _ = _kalman(sigma, h, rng.normal(size=6), var, _trace_bound(var), 0.0)
    assert keep is None


# ---------------------------------------------------------------------------
# eqf_update and iekf_update against textbook updates


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _layout(rng, n):
    """n calibrated fixed-reference sensors, one uncalibrated fixed-reference
    sensor (the single direction when n = 0) and a GNSS-style sensor whose
    reference arrives with each measurement."""
    sensors = [SensorModel(f"mag{i}", True, 0.1 + 0.05 * i, _unit(rng)) for i in range(n)]
    sensors.append(SensorModel("fixed", False, 0.15, _unit(rng)))
    sensors.append(SensorModel("gnss", False, 0.2))
    validate_layout(sensors)
    return sensors


def _groups(rng, sensors, n):
    def meas(sensor_id):
        ref = _unit(rng) if sensor_id == "gnss" else None
        return DirectionMeasurement(0.0, sensor_id, _unit(rng), ref)
    first = "mag0" if n else "fixed"
    return {"one direction": [meas(first)], "gnss": [meas("gnss")],
            "stacked pair": [meas(first), meas("gnss")]}


def _psd(rng, dim):
    m = rng.normal(size=(dim, dim))
    return 0.05 * (m @ m.T + 0.1 * np.eye(dim))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_eqf_update_equals_reference(rng, n):
    sensors = _layout(rng, n)
    for group in _groups(rng, sensors, n).values():
        fs = FilterState(random_group_element(rng, n), _psd(rng, 6 + 3 * n), 0.0)
        got = eqf_update(fs, group, sensors)
        ref = reference_eqf_update(fs, group, sensors)
        assert got is not fs
        assert np.array_equal(got.sigma, ref.sigma)
        assert np.array_equal(got.xhat.A, ref.xhat.A)
        assert np.array_equal(got.xhat.a, ref.xhat.a)
        assert len(got.xhat.B) == n
        for b_got, b_ref in zip(got.xhat.B, ref.xhat.B):
            assert np.array_equal(b_got, b_ref)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_iekf_update_equals_reference(rng, n):
    sensors = _layout(rng, n)
    for group in _groups(rng, sensors, n).values():
        s = IekfState(random_state(rng, n), _psd(rng, 6 + 3 * n), 0.0)
        got = iekf_update(s, group, sensors)
        ref = reference_iekf_update(s, group, sensors)
        assert got is not s
        assert np.array_equal(got.sigma, ref.sigma)
        assert np.array_equal(got.xi.R, ref.xi.R)
        assert np.array_equal(got.xi.b, ref.xi.b)
        assert len(got.xi.C) == n
        for c_got, c_ref in zip(got.xi.C, ref.xi.C):
            assert np.array_equal(c_got, c_ref)


# ---------------------------------------------------------------------------
# Every library step leaves its input state untouched


def _steps_setup(rng, kind, n=2):
    """Sensors, a start state, the library steps, a gyro sample and noise."""
    sensors = [SensorModel(f"mag{i}", True, 0.1, _unit(rng)) for i in range(n)]
    sensors += [SensorModel("gnss", False, 0.2), SensorModel("sharp", False, 1e-7, _unit(rng))]
    validate_layout(sensors)
    if kind == "eqf":
        state = FilterState(random_group_element(rng, n), _psd(rng, 6 + 3 * n), 0.0)
        steps = eqf_propagate, eqf_update
    else:
        state = IekfState(random_state(rng, n), _psd(rng, 6 + 3 * n), 0.0)
        steps = iekf_propagate, iekf_update
    return sensors, state, steps, np.array([0.3, -0.2, 0.5]), NoiseConfig(8.73e-4, 1.75e-5, 1e-4)


@pytest.mark.parametrize("made_by", ["caller", "library"])
@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_library_steps_leave_their_input_state_untouched(rng, kind, made_by):
    """A propagation, one that re-projects, an applied update and a skipped
    one (the sensor "sharp", with sigma_y 1e-7 against a unit covariance,
    puts cond(S) near 1e14) each leave every array of their input state as
    it was: a state the caller built, and one a library step returned, whose
    rotations are views of the stack the step passes on."""
    n = 2
    sensors, state, (propagate, update), omega, noise = _steps_setup(rng, kind, n)
    if made_by == "library":
        state = propagate(state, omega, 0.005, noise)
    meas = [DirectionMeasurement(0.0, "mag0", _unit(rng)),
            DirectionMeasurement(0.0, "gnss", _unit(rng), _unit(rng))]
    sharp = [DirectionMeasurement(0.0, "sharp", _unit(rng))]
    reprojecting, unit_sigma = copy.copy(state), copy.copy(state)
    reprojecting.steps = REPROJECT_EVERY - 1
    unit_sigma.sigma = np.eye(6 + 3 * n)
    steps = [("propagate", state, lambda: propagate(state, omega, 0.005, noise)),
             ("re-projection", reprojecting,
              lambda: propagate(reprojecting, omega, 0.005, noise)),
             ("update", state, lambda: update(state, meas, sensors)),
             ("skipped update", unit_sigma, lambda: update(unit_sigma, sharp, sensors))]
    for name, before, step in steps:
        arrays = state_arrays(before)
        out = step()
        assert (out is before) == (name == "skipped update"), name
        for got, want in zip(state_arrays(before), arrays, strict=True):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("kind", ["eqf", "iekf"])
def test_library_steps_see_changes_to_the_rotations_of_their_state(rng, kind):
    """A step on a state a library step returned matches the step on a deep
    copy of it bit for bit: also after the caller writes a rotation in
    place, replaces one, or deep-copies the state."""
    sensors, state, (propagate, update), omega, noise = _steps_setup(rng, kind)
    if kind == "eqf":
        parts = lambda s: (s.xhat.A, s.xhat.a, s.xhat.B)     # noqa: E731
    else:
        parts = lambda s: (s.xi.R, s.xi.b, s.xi.C)           # noqa: E731
    meas = [DirectionMeasurement(0.0, "mag1", _unit(rng))]

    def check(s):
        rebuilt = copy.deepcopy(s)
        for step in (lambda x: propagate(x, omega, 0.005, noise),
                     lambda x: update(x, meas, sensors)):
            for a, b in zip(state_arrays(step(s)), state_arrays(step(rebuilt)), strict=True):
                assert np.array_equal(a, b)

    state = propagate(state, omega, 0.005, noise)
    check(state)
    parts(state)[2][1][...] = exp_so3(np.array([0.1, 0.2, 0.3]))
    check(state)
    parts(state)[2][0] = exp_so3(np.array([-0.3, 0.1, 0.0]))
    check(state)
    state = copy.deepcopy(propagate(state, omega, 0.005, noise))
    parts(state)[0][...] = exp_so3(np.array([0.0, 0.4, 0.1]))
    check(state)
