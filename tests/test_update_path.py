"""The measurement update path both filters share, against straightforward
references: the certified skip test of the one Kalman step (eqf._kalman),
which every update of the library and of the batch driver calls, against
the eigenvalue-only rule, on plain 2-D inputs and on stacks, and eqf_update
/ iekf_update against textbook updates written with wedge, np.diag and
np.concatenate."""

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
    _kalman,
    _trace_bound,
    compute_C0,
    eqf_update,
    validate_layout,
)
from abc_eqf.iekf import IekfState, iekf_update
from abc_eqf.lie import exp_so3, wedge
from abc_eqf.symmetry import AlgebraElement, SystemState, group_exp, group_mul

from conftest import random_group_element, random_state


def kalman_step_eigvalsh(sigma, h, var, residual):
    """The Kalman step of one 2-D row with the eigenvalue rule alone, as it
    was written before the trace certificate: NonFiniteEstimateError for a
    non-finite S, None (a skip) unless S is positive definite with
    cond(S) <= S_CONDITION_LIMIT, else (K r, sigma+)."""
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
