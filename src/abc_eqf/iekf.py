"""Imperfect-IEKF baseline: right-invariant attitude/calibration error,
Euclidean bias error, sharing the sensor layout and noise model of the
equivariant filter for head-to-head comparison.

The error state is ordered (att, bias, cal_1, .., cal_n) like the EqF
covariance.  The state transition matrix I + F dt is exact because F is
nilpotent (F^2 = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eqf import (
    REPROJECT_EVERY,
    DirectionMeasurement,
    NoiseConfig,
    NonPositiveDtError,
    SensorModel,
    _check_sigma0,
    _kalman_step,
    _measured_sensors,
    sigma_u,
)
from .lie import exp_so3, project_to_so3, wedge
from .symmetry import SystemState


@dataclass
class IekfState:
    """State estimate, covariance of the mixed invariant/Euclidean error, time."""

    xi: SystemState
    sigma: np.ndarray
    t: float
    steps: int = 0


def iekf_init(xi0: SystemState, sigma0: np.ndarray, adapt: bool = True,
              t0: float = 0.0) -> IekfState:
    """Initialize the filter; optionally conjugate sigma0 by the block
    rotation built from the initialization estimate."""
    sigma0 = _check_sigma0(sigma0, xi0.n)
    if adapt:
        pi0 = _init_adaptation(xi0)
        sigma0 = pi0 @ sigma0 @ pi0.T
    xi = SystemState(xi0.R.copy(), xi0.b.copy(), [c.copy() for c in xi0.C])
    return IekfState(xi, 0.5 * (sigma0 + sigma0.T), t0)


def _init_adaptation(xi0: SystemState) -> np.ndarray:
    dim = 6 + 3 * xi0.n
    pi0 = np.zeros((dim, dim))
    pi0[0:3, 0:3] = xi0.R
    pi0[3:6, 3:6] = xi0.R
    for i, c in enumerate(xi0.C):
        j = 6 + 3 * i
        pi0[j:j + 3, j:j + 3] = c
    return pi0


def iekf_propagate(s: IekfState, omega: np.ndarray, dt: float,
                   noise: NoiseConfig) -> IekfState:
    """One gyro step: attitude integration and first-order covariance update."""
    if dt <= 0.0:
        raise NonPositiveDtError("dt must be positive")
    xi = s.xi
    n = xi.n
    dim = 6 + 3 * n

    phi = np.eye(dim)
    phi[0:3, 3:6] = -xi.R * dt

    b0 = np.zeros((dim, dim))
    b0[0:3, 0:3] = xi.R
    b0[3:6, 3:6] = np.eye(3)
    for i, c in enumerate(xi.C):
        j = 6 + 3 * i
        b0[j:j + 3, j:j + 3] = c
    mc = b0 @ sigma_u(noise, n) @ b0.T

    sigma = phi @ s.sigma @ phi.T + mc * dt
    sigma = 0.5 * (sigma + sigma.T)

    r_new = xi.R @ exp_so3((omega - xi.b) * dt)
    steps = s.steps + 1
    cal = [c.copy() for c in xi.C]
    if steps % REPROJECT_EVERY == 0:
        r_new, cal = project_to_so3(r_new), [project_to_so3(c) for c in cal]
    return IekfState(SystemState(r_new, xi.b.copy(), cal), sigma, s.t + dt, steps)


def iekf_update(s: IekfState, meas: list[DirectionMeasurement],
                sensors: list[SensorModel], joseph: bool = False,
                slack: float = 0.05) -> IekfState:
    """Update from one or more simultaneous direction measurements.

    Output matrix rows: [d^ 0 d^ Rhat] for a calibrated sensor (the extra
    Rhat in the calibration column comes from the right-invariant error
    convention), [d^ 0 0] for an uncalibrated one.  The residual of sensor i
    is Rhat Chat_i y - d (calibrated) or Rhat y - d.  The update is skipped
    by the same rule on S as the equivariant update.
    """
    if not meas:
        return s
    for m in meas:
        if m.t > s.t + slack:
            raise ValueError(f"measurement at t={m.t} is ahead of the filter time {s.t}")
    xi = s.xi
    n = xi.n
    dim = 6 + 3 * n
    used, refs = _measured_sensors(meas, sensors)

    h = np.zeros((3 * len(meas), dim))
    d_adapt = np.zeros((3 * len(meas), 3 * len(meas)))
    r_raw = np.empty(3 * len(meas))
    for k, (m, sensor) in enumerate(zip(meas, used)):
        dw = wedge(refs[k])
        rows = slice(3 * k, 3 * k + 3)
        h[rows, 0:3] = dw
        if sensor.calibrated:
            j = 6 + 3 * sensor.cal_index
            h[rows, j:j + 3] = dw @ xi.R
            rot = xi.R @ xi.C[sensor.cal_index]
        else:
            rot = xi.R
        d_adapt[rows, rows] = rot
        r_raw[rows] = rot @ m.y - refs[k]

    sig_y = np.repeat([sns.sigma_y ** 2 for sns in used], 3)
    noise_cov = d_adapt @ np.diag(sig_y) @ d_adapt.T
    step = _kalman_step(s.sigma, h, noise_cov, s.t, joseph)
    if step is None:
        return s
    gain, sigma = step
    delta = gain @ r_raw

    r_new = exp_so3(delta[0:3]) @ xi.R
    b_new = xi.b + delta[3:6]
    c_new = [exp_so3(delta[6 + 3 * i: 9 + 3 * i]) @ c for i, c in enumerate(xi.C)]
    return IekfState(SystemState(r_new, b_new, c_new), sigma, s.t, s.steps)
