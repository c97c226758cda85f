"""The measurement update path both filters share, against straightforward
references: the certified skip test of _kalman_step against the
eigenvalue-only rule, and eqf_update / iekf_update against textbook updates
written with wedge, np.diag and np.concatenate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abc_eqf import eqf as eqf_module
from abc_eqf.eqf import (
    S_CONDITION_LIMIT,
    DirectionMeasurement,
    FilterState,
    NonFiniteEstimateError,
    SensorModel,
    _kalman_step,
    compute_C0,
    eqf_update,
    validate_layout,
)
from abc_eqf.iekf import IekfState, iekf_update
from abc_eqf.lie import exp_so3, wedge
from abc_eqf.symmetry import AlgebraElement, SystemState, group_exp, group_mul

from conftest import random_group_element, random_state


def kalman_step_eigvalsh(sigma, h, var, residual):
    """_kalman_step with the eigenvalue rule alone, as it was written before
    the trace certificate: NonFiniteEstimateError for a non-finite S, a skip
    unless S is positive definite with cond(S) <= S_CONDITION_LIMIT."""
    sht = sigma @ h.T
    s_mat = h @ sht + np.diag(var)
    if not np.isfinite(s_mat).all():
        raise NonFiniteEstimateError("S is not finite")
    eig = np.linalg.eigvalsh(s_mat)
    cond = eig[-1] / eig[0] if eig[0] > 0.0 else math.inf
    if not cond <= S_CONDITION_LIMIT:
        return None
    gain = np.linalg.solve(s_mat, sht.T).T
    sigma = sigma - gain @ h @ sigma
    return gain @ residual, 0.5 * (sigma + sigma.T)


SIGMA_Y = [0.0, 1e-7, 1e-5, 1e-3, 0.1, 1.0]
SCALES = [0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e4, 1e200]


@st.composite
def kalman_inputs(draw):
    n = draw(st.integers(0, 3))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 6 + 3 * n
    low_rank = draw(st.integers(1, dim))
    factor = rng.normal(size=(dim, low_rank))
    sigma = draw(st.sampled_from(SCALES)) * (factor @ factor.T)
    if draw(st.booleans()):
        # rounding-level asymmetry and indefiniteness, as the filters' Sigma has
        noise = rng.normal(size=(dim, dim))
        sigma = sigma + 1e-16 * np.max(np.abs(sigma)) * noise
    poison = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if poison is not None:
        i, j = rng.integers(0, dim, 2)
        sigma[i, j] = poison
    if draw(st.booleans()):
        refs = rng.normal(size=(k, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        sensors = [SensorModel(f"s{i}", i < min(n, k), 1.0) for i in range(k)]
        validate_layout(sensors)
        h = compute_C0(sensors, refs, n)
    else:
        h = rng.normal(size=(3 * k, dim))
    var = np.repeat([draw(st.sampled_from(SIGMA_Y)) ** 2 for _ in range(k)], 3)
    return sigma, h, var, rng.normal(size=3 * k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kalman_inputs())
def test_certified_kalman_step_matches_eigvalsh_rule(inputs):
    sigma, h, var, residual = inputs

    def outcome(step, *args):
        try:
            return step(*args)
        except NonFiniteEstimateError:
            return NonFiniteEstimateError

    with np.errstate(all="ignore"):
        expected = outcome(kalman_step_eigvalsh, sigma, h, var, residual)
        got = outcome(_kalman_step, sigma, h, var, residual, 0.0)
    assert (got is None) == (expected is None)
    assert (got is NonFiniteEstimateError) == (expected is NonFiniteEstimateError)
    if got is not None and got is not NonFiniteEstimateError:
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


@pytest.mark.parametrize("sigma_y_second, skipped", [(1e-5, False), (1e-7, True)])
def test_certified_kalman_step_at_the_condition_limit(sigma_y_second, skipped):
    """The two-direction cases of the skip tests, cond(S) = 1e10 and 1e14
    with a zero prior: 1e10 is above the certificate's bound, so the
    eigenvalue rule decides both."""
    sensors = [SensorModel("u", False, 1.0), SensorModel("v", False, sigma_y_second)]
    validate_layout(sensors)
    h = compute_C0(sensors, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 0)
    var = np.repeat([1.0, sigma_y_second ** 2], 3)
    got = _kalman_step(np.zeros((6, 6)), h, var, np.ones(6), 0.0)
    expected = kalman_step_eigvalsh(np.zeros((6, 6)), h, var, np.ones(6))
    assert (got is None) == (expected is None) == skipped


def test_typical_update_needs_no_eigendecomposition(monkeypatch, rng):
    """A filter-sized S with sigma_y 0.1 is accepted by the certificate."""
    monkeypatch.setattr(eqf_module.np.linalg, "eigvalsh",
                        lambda *_: pytest.fail("eigvalsh called"))
    sigma = 0.1 * np.eye(15)
    h = rng.normal(size=(6, 15))
    assert _kalman_step(sigma, h, np.full(6, 0.01), rng.normal(size=6), 0.0) is not None


# ---------------------------------------------------------------------------
# eqf_update and iekf_update against textbook updates


def reference_rows(meas, sensors, n):
    """Per measurement: sensor, reference, and its 3 x (6+3n) output block
    [d^ 0 .. d^ ..] built with wedge."""
    by_id = {s.sensor_id: s for s in sensors}
    out = []
    for m in meas:
        s = by_id[m.sensor_id]
        ref = s.reference if s.reference is not None else m.reference
        block = np.zeros((3, 6 + 3 * n))
        block[:, 0:3] = wedge(ref)
        if s.calibrated:
            block[:, 6 + 3 * s.cal_index: 9 + 3 * s.cal_index] = wedge(ref)
        out.append((s, ref, block))
    return out


def reference_eqf_update(fs, meas, sensors):
    x = fs.xhat
    rows = reference_rows(meas, sensors, x.n)
    h = np.vstack([block for _, _, block in rows])
    residual = np.concatenate([(x.B[s.cal_index] if s.calibrated else x.A) @ m.y - ref
                               for m, (s, ref, _) in zip(meas, rows)])
    var = np.concatenate([[s.sigma_y ** 2] * 3 for s, _, _ in rows])
    step = kalman_step_eigvalsh(fs.sigma, h, var, residual)
    if step is None:
        return fs
    r, sigma = step
    delta = AlgebraElement(r[0:3], -r[3:6], [r[j:j + 3] + r[0:3] for j in range(6, r.size, 3)])
    return FilterState(group_mul(group_exp(delta), x), sigma, fs.t, fs.steps)


def reference_iekf_update(s, meas, sensors):
    xi = s.xi
    rows = reference_rows(meas, sensors, xi.n)
    h = np.vstack([block for _, _, block in rows])
    for j in range(6, h.shape[1], 3):
        h[:, j:j + 3] = h[:, j:j + 3] @ xi.R
    residual = np.concatenate([(xi.R @ xi.C[u.cal_index] if u.calibrated else xi.R) @ m.y - ref
                               for m, (u, ref, _) in zip(meas, rows)])
    var = np.concatenate([[u.sigma_y ** 2] * 3 for u, _, _ in rows])
    step = kalman_step_eigvalsh(s.sigma, h, var, residual)
    if step is None:
        return s
    d, sigma = step
    r_new = exp_so3(d[0:3]) @ xi.R
    c_new = [exp_so3(d[6 + 3 * i: 9 + 3 * i]) @ c for i, c in enumerate(xi.C)]
    return IekfState(SystemState(r_new, xi.b + d[3:6], c_new), sigma, s.t, s.steps)


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
