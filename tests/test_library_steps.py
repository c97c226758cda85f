"""The library steps' own checks, for both filters: a non-finite estimate
is rejected, a measurement stamped ahead of the filter time raises its own
type, a misshaped direction or reference raises BadDimensionError, and each
update reads the sensor list it is given afresh, so that a list changed in
place between two updates is seen by the second."""

import math

import numpy as np
import pytest

from abc_eqf.eqf import (
    MEASUREMENT_SLACK,
    BadDimensionError,
    DirectionMeasurement,
    FilterState,
    InputRangeError,
    MeasurementAheadError,
    NoiseConfig,
    NonFiniteEstimateError,
    SensorModel,
    eqf_propagate,
    eqf_update,
)
from abc_eqf.iekf import IekfState, iekf_propagate, iekf_update
from abc_eqf.runner import _checked_arrays

from conftest import random_group_element, random_state, state_arrays

NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)
OMEGA = np.array([0.1, -0.2, 0.05])
Y = np.array([0.0, 0.6, 0.8])
KINDS = ["eqf", "iekf"]


def _sensors():
    """Two calibrated fixed-reference sensors and an uncalibrated one whose
    reference arrives with each measurement."""
    return [SensorModel("a", True, 0.1, np.array([0.0, 0.0, 1.0])),
            SensorModel("c", True, 0.3, np.array([1.0, 0.0, 0.0])),
            SensorModel("g", False, 0.2)]


def _state(kind, seed=0, bad=None):
    """A state with two calibration states away from the identity, with the
    value bad written into one entry of the second calibration rotation
    ("rotation") or of the vector ("vector"), as (bad, where)."""
    rng = np.random.default_rng(seed)
    sigma = 0.1 * np.eye(12)
    if kind == "eqf":
        x = random_group_element(rng, 2)
        rots, vec = x.B, x.a
    else:
        x = random_state(rng, 2)
        rots, vec = x.C, x.b
    if bad is not None:
        value, where = bad
        if where == "rotation":
            rots[1] = rots[1].copy()
            rots[1][2, 0] = value
        else:
            vec[1] = value
    if kind == "eqf":
        return FilterState(x, sigma, 0.0)
    return IekfState(x, sigma, 0.0)


def _steps(kind):
    if kind == "eqf":
        return eqf_propagate, eqf_update
    return iekf_propagate, iekf_update


def _measure(sensor_id, t=0.0):
    return [DirectionMeasurement(t, sensor_id, Y)]


# ---------------------------------------------------------------------------
# Non-finite estimates


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", ["rotation", "vector"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_estimate_is_rejected_by_every_step(kind, where, value):
    """A non-finite entry in a calibration rotation that no measurement
    reads, or in the vector (ahat or bhat), with a finite Sigma: S stays
    finite, so only the steps' own check can see it.  An infinite vector
    would otherwise reach math.sin through the step's exponential."""
    propagate, update = _steps(kind)
    state = _state(kind, bad=(value, where))
    with pytest.raises(NonFiniteEstimateError,
                       match=r"^propagation at filter time t=0\.0: non-finite estimate$"):
        propagate(state, OMEGA, 0.005, NOISE)
    with pytest.raises(NonFiniteEstimateError,
                       match=r"^update at filter time t=0\.0: non-finite estimate$"):
        update(state, _measure("a"), _sensors())


# ---------------------------------------------------------------------------
# A measurement ahead of the filter time


@pytest.mark.parametrize("kind", KINDS)
def test_measurement_ahead_of_the_filter_raises_its_own_type(kind):
    _, update = _steps(kind)
    state = _state(kind)
    update(state, _measure("a", MEASUREMENT_SLACK), _sensors())      # at the slack: applied
    t = 2.0 * MEASUREMENT_SLACK
    with pytest.raises(MeasurementAheadError,
                       match=rf"^measurement at t={t} is ahead of the filter time 0\.0$"):
        update(state, _measure("a", t), _sensors())
    assert issubclass(MeasurementAheadError, ValueError)


def test_schedule_check_names_the_run_of_a_measurement_ahead():
    """The driver's whole-log check passes a measurement ahead of its step's
    time to the library's check and re-raises its error with the run's
    name."""
    sensors = _sensors()
    with pytest.raises(MeasurementAheadError,
                       match=r"^run 4: measurement at t=0\.5 is ahead of the filter time 0\.25$"):
        _checked_arrays(sensors, 2, ["a", "c", "g"], np.array([0]), np.array([0.5]),
                        Y[None, :], np.full((1, 3), np.nan), np.array([0.25]),
                        np.array(["run 4: "]))


# ---------------------------------------------------------------------------
# Misshaped directions


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(1, 3), (4,), (2,)])
@pytest.mark.parametrize("field", ["y", "reference"])
def test_misshaped_direction_raises_bad_dimension(kind, shape, field):
    """A measured direction, or the reference a GNSS measurement carries,
    of unit norm but not of shape (3,) raises BadDimensionError naming the
    sensor and the time, not an error from math or numpy."""
    _, update = _steps(kind)
    bad = np.zeros(shape)
    bad.flat[:2] = 0.6, 0.8
    meas = (DirectionMeasurement(0.01, "g", bad, Y) if field == "y"
            else DirectionMeasurement(0.01, "g", Y, bad))
    with pytest.raises(BadDimensionError,
                       match=r"^measurement at t=0\.01 from sensor 'g': .* must have shape "
                             r"\(3,\), got .*\(filter time t=0\.0\)$"):
        update(_state(kind), [meas], _sensors())


# ---------------------------------------------------------------------------
# No memo: each update reads the list it is given


def _apply(kind, state, meas, sensors):
    return _steps(kind)[1](state, meas, sensors)


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(state_arrays(a), state_arrays(b),
                                                     strict=True))


@pytest.mark.parametrize("kind", KINDS)
def test_reordered_list_is_read_afresh(kind):
    """Sensor i holds calibration state i of the list of the call: after a
    reversal of the two calibrated sensors, 'a' updates calibration 1."""
    state = _state(kind)
    sensors = _sensors()
    first = _apply(kind, state, _measure("a"), sensors)
    sensors[0], sensors[1] = sensors[1], sensors[0]
    second = _apply(kind, state, _measure("a"), sensors)
    fresh = _sensors()
    want = _apply(kind, state, _measure("a"), [fresh[1], fresh[0], fresh[2]])
    assert _same(second, want)
    assert not _same(second, first)


@pytest.mark.parametrize("kind", KINDS)
def test_duplicate_id_added_to_the_list_is_seen(kind):
    """The duplicate sits among the sensors the update does not measure."""
    state = _state(kind)
    sensors = _sensors()
    _apply(kind, state, _measure("a"), sensors)
    sensors.append(SensorModel("c", False, 0.1, np.array([0.0, 1.0, 0.0])))
    with pytest.raises(BadDimensionError, match="duplicate sensor id 'c'"):
        _apply(kind, state, _measure("a"), sensors)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("in_place", [True, False], ids=["array-written", "reassigned"])
def test_non_unit_reference_is_seen(kind, in_place):
    state = _state(kind)
    sensors = _sensors()
    _apply(kind, state, _measure("c"), sensors)
    if in_place:
        sensors[1].reference[0] = 2.0
    else:
        sensors[1].reference = np.array([2.0, 0.0, 0.0])
    with pytest.raises(InputRangeError, match="not a unit vector"):
        _apply(kind, state, _measure("c"), sensors)


@pytest.mark.parametrize("kind", KINDS)
def test_changed_sigma_y_is_used(kind):
    state = _state(kind)
    sensors = _sensors()
    first = _apply(kind, state, _measure("c"), sensors)
    sensors[1].sigma_y = 0.05
    second = _apply(kind, state, _measure("c"), sensors)
    fresh = _sensors()
    fresh[1].sigma_y = 0.05
    assert _same(second, _apply(kind, state, _measure("c"), fresh))
    assert not _same(second, first)
