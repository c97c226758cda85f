"""Imperfect-IEKF baseline: right-invariant attitude/calibration error,
Euclidean bias error, sharing the sensor layout and noise model of the
equivariant filter for head-to-head comparison.

The error state is ordered (att, bias, cal_1, .., cal_n) like the EqF
covariance.  The mean step is the exact flow :func:`system_flow`; the state
transition matrix I + F dt is exact because F is nilpotent (F^2 = 0).

Every noise source is isotropic, so the rotations that map it into the
invariant error return it unchanged and are not applied; only the initial
covariance, which need not be isotropic, is rotated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eqf import (
    REPROJECT_EVERY,
    DirectionMeasurement,
    NoiseConfig,
    SensorModel,
    _check_sigma0,
    _check_step,
    _kalman,
    _measured_sensors,
    _trace_bound,
    compute_C0,
    sigma_u,
)
from .lie import exp_so3, project_to_so3
from .symmetry import SystemState, system_flow


@dataclass
class IekfState:
    """State estimate, covariance of the mixed invariant/Euclidean error, time."""

    xi: SystemState
    sigma: np.ndarray
    t: float
    steps: int = 0


def iekf_init(xi0: SystemState, sigma0: np.ndarray, t0: float = 0.0) -> IekfState:
    """Initialize the filter; sigma0 is conjugated by the block rotation
    blkdiag(R, R, C_1, .., C_n) of the initialization estimate."""
    sigma0 = _check_sigma0(sigma0, xi0.n)
    pi0 = np.zeros_like(sigma0)
    for j, rot in enumerate([xi0.R, xi0.R] + xi0.C):
        pi0[3 * j: 3 * j + 3, 3 * j: 3 * j + 3] = rot
    sigma0 = pi0 @ sigma0 @ pi0.T
    xi = SystemState(xi0.R.copy(), xi0.b.copy(), [c.copy() for c in xi0.C])
    return IekfState(xi, 0.5 * (sigma0 + sigma0.T), t0)


@lru_cache(maxsize=16)
def _propagation_constants(sigma_w: float, sigma_bw: float, sigma_kappa: float,
                           n: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma_u and the identity of the (6+3n)-dimensional error state, both
    read-only: they depend only on the noise densities and n, not on the step."""
    s_u = sigma_u(NoiseConfig(sigma_w, sigma_bw, sigma_kappa), n)
    eye = np.eye(6 + 3 * n)
    s_u.flags.writeable = eye.flags.writeable = False
    return s_u, eye


def iekf_propagate(s: IekfState, omega: np.ndarray, dt: float,
                   noise: NoiseConfig) -> IekfState:
    """One gyro step: exact mean flow and first-order covariance update."""
    dt = _check_step(omega, dt, s.t)
    s_u, eye = _propagation_constants(noise.sigma_w, noise.sigma_bw, noise.sigma_kappa,
                                      s.xi.n)
    phi = eye.copy()
    phi[0:3, 3:6] = -s.xi.R * dt
    sigma = phi @ s.sigma @ phi.T + s_u * dt
    sigma = 0.5 * (sigma + sigma.T)

    xi = system_flow(s.xi, omega, dt)
    steps = s.steps + 1
    if steps % REPROJECT_EVERY == 0:
        xi = SystemState(project_to_so3(xi.R), xi.b, [project_to_so3(c) for c in xi.C])
    return IekfState(xi, sigma, s.t + dt, steps)


def iekf_update(s: IekfState, meas: list[DirectionMeasurement],
                sensors: list[SensorModel]) -> IekfState:
    """Update from one or more simultaneous direction measurements.

    The output matrix is :func:`compute_C0` with every calibration column
    block right-multiplied by Rhat: rows [d^ 0 d^ Rhat] for a calibrated
    sensor (the extra Rhat comes from the right-invariant error convention),
    [d^ 0 0] for an uncalibrated one.  Only the blocks of the measured
    calibrated sensors are multiplied; the others are zero.  The residual of
    sensor i is Rhat Chat_i y - d (calibrated) or Rhat y - d.  The correction
    r from :func:`eqf._kalman`, the Kalman step every update path shares,
    called here on 2-D arrays, maps to R <- exp(r_att) Rhat,
    b <- bhat + r_bias, C_i <- exp(r_cal_i) Chat_i; when _kalman skips the
    update by its rule on S, the input state is returned.
    """
    if not meas:
        return s
    xi = s.xi
    used, refs, var = _measured_sensors(meas, sensors, s.t)
    h = compute_C0(used, refs, xi.n)
    for j in {6 + 3 * u.cal_index for u in used if u.calibrated}:
        h[:, j:j + 3] = h[:, j:j + 3].dot(xi.R)
    rots = [xi.R.dot(xi.C[u.cal_index]) if u.calibrated else xi.R for u in used]
    if len(meas) == 1:
        residual = rots[0].dot(meas[0].y)
        residual -= refs[0]
    else:
        residual = np.concatenate([rot.dot(m.y) for rot, m in zip(rots, meas)])
        residual -= [c for ref in refs for c in ref]
    keep, delta, sigma = _kalman(s.sigma, h, residual, var, _trace_bound(var), s.t)
    if keep is not None:
        return s
    r_new = exp_so3(delta[0:3]).dot(xi.R)
    b_new = xi.b + delta[3:6]
    c_new = [e.dot(c) for e, c in zip(exp_so3(delta[6:].reshape(-1, 3)), xi.C)]
    return IekfState(SystemState(r_new, b_new, c_new), sigma, s.t, s.steps)
