import numpy as np
import pytest

from abc_eqf.eqf import FilterState, eqf_init, eqf_propagate, eqf_update
from abc_eqf.iekf import iekf_init, iekf_propagate, iekf_update
from abc_eqf.lie import exp_so3
from abc_eqf.metrics import EstimateSeries
from abc_eqf.runner import STACK_TIME_TOL, build_sensors, initial_sigma, noise_config
from abc_eqf.symmetry import (
    AlgebraElement,
    GroupElement,
    SystemState,
    identity_state,
    state_from_group,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_rotation(rng, scale=1.0):
    return exp_so3(rng.normal(0.0, scale, size=3))


def random_group_element(rng, n, scale=0.8):
    return GroupElement(
        random_rotation(rng, scale),
        rng.normal(0.0, scale, size=3),
        [random_rotation(rng, scale) for _ in range(n)],
    )


def random_state(rng, n, scale=0.8):
    return SystemState(
        random_rotation(rng, scale),
        rng.normal(0.0, scale, size=3),
        [random_rotation(rng, scale) for _ in range(n)],
    )


def random_algebra(rng, n, scale=1.0):
    return AlgebraElement(
        rng.normal(0.0, scale, size=3),
        rng.normal(0.0, scale, size=3),
        [rng.normal(0.0, scale, size=3) for _ in range(n)],
    )


def states_close(a, b, tol):
    gaps = [np.max(np.abs(a.R - b.R)), np.max(np.abs(a.b - b.b))]
    gaps += [np.max(np.abs(ca - cb)) for ca, cb in zip(a.C, b.C)]
    return max(gaps) <= tol


def max_state_gap(a, b):
    gaps = [np.max(np.abs(a.R - b.R)), np.max(np.abs(a.b - b.b))]
    gaps += [np.max(np.abs(ca - cb)) for ca, cb in zip(a.C, b.C)]
    return max(gaps)


def state_arrays(state):
    """Copies of every array of a FilterState or IekfState."""
    if isinstance(state, FilterState):
        arrays = (state.xhat.A, state.xhat.a, *state.xhat.B)
    else:
        arrays = (state.xi.R, state.xi.b, *state.xi.C)
    return [a.copy() for a in (*arrays, state.sigma)]


def loop_groups(gyro_t, measurements):
    """The updates of library_loop, as (gyro step, group) pairs, from a
    walk over the measurements in their given order.

    A measurement is due at the first gyro step k with t <= gyro_t[k] + 1e-12;
    a group takes the next due measurement and every following one stamped
    within STACK_TIME_TOL of it, and the groups due at a step are applied in
    order.
    """
    groups = []
    mi = 0
    for k in range(gyro_t.size):
        while mi < len(measurements) and measurements[mi].t <= gyro_t[k] + 1e-12:
            group = [measurements[mi]]
            mi += 1
            while (mi < len(measurements)
                   and measurements[mi].t - group[0].t <= STACK_TIME_TOL):
                group.append(measurements[mi])
                mi += 1
            groups.append((k, group))
    return groups


def library_loop(kind, gyro_t, gyro_omega, measurements, cfg):
    """The reference replay of one log: the library calls (eqf_* or iekf_*)
    one gyro step at a time, as the README's on-line loop makes them.

    The filter starts at gyro_t[0] and applies the groups of loop_groups.
    Returns the estimates as an EstimateSeries and Sigma (K, d, d) at every
    step.
    """
    sensors = build_sensors(cfg)
    noise = noise_config(cfg)
    t0 = float(gyro_t[0])
    if kind == "eqf":
        state = eqf_init(cfg.n_cal, sensors, noise, initial_sigma(cfg), t0)
    else:
        state = iekf_init(identity_state(cfg.n_cal), initial_sigma(cfg), t0)
    estimates, sigmas = [], []
    groups = loop_groups(gyro_t, measurements)
    gi = 0
    for k in range(gyro_t.size):
        if k > 0:
            dt = gyro_t[k] - gyro_t[k - 1]
            state = (eqf_propagate(state, gyro_omega[k], dt, noise)
                     if kind == "eqf" else iekf_propagate(state, gyro_omega[k], dt, noise))
        while gi < len(groups) and groups[gi][0] == k:
            group = groups[gi][1]
            gi += 1
            state = (eqf_update(state, group, sensors)
                     if kind == "eqf" else iekf_update(state, group, sensors))
        estimates.append(state_from_group(state.xhat) if kind == "eqf" else state.xi)
        sigmas.append(state.sigma)
    sigma = np.array(sigmas)
    est = EstimateSeries(gyro_t.copy(), np.array([x.R for x in estimates]),
                         np.array([x.b for x in estimates]),
                         np.array([x.C for x in estimates]).reshape(gyro_t.size, cfg.n_cal, 3, 3),
                         np.diagonal(sigma, axis1=1, axis2=2).copy())
    return est, sigma
