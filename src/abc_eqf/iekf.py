"""Imperfect-IEKF baseline: right-invariant attitude/calibration error,
Euclidean bias error, sharing the sensor layout and noise model of the
equivariant filter for head-to-head comparison.

The error state is ordered (att, bias, cal_1, .., cal_n) like the EqF
covariance.  The mean step is the exact flow :func:`system_flow`; the state
transition matrix I + F dt is exact because F is nilpotent (F^2 = 0).  Each
step is a kernel on eqf's stacked state, as the EqF's are.

Every noise source is isotropic, so the rotations that map it into the
invariant error return it unchanged and are not applied; only the initial
covariance, which need not be isotropic, is rotated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eqf import (
    Bucket,
    DirectionMeasurement,
    NoiseConfig,
    SensorModel,
    _check_sigma0,
    _check_step,
    _group_bucket,
    _kalman,
    _matvec,
    _State,
    _stepped,
    sigma_u,
)
from .lie import _exp_entries, exp_so3
from .symmetry import SystemState


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


def _iekf_propagate(st: _State, omega: np.ndarray, dt: float, s_u: np.ndarray,
                    phi: np.ndarray) -> None:
    """The IEKF gyro step of every run, less the re-projection; phi is a
    ([R,] d, d) identity whose bias-to-attitude block it overwrites.  The
    step writes the attitude of the stack in place."""
    dot = np.ndarray.dot if st.sigma.ndim == 2 else np.matmul
    rot = st.f[..., 0, :, :]
    phi[..., 0:3, 3:6] = -rot * dt
    sigma = dot(dot(phi, st.sigma), phi.mT) + s_u * dt
    st.sigma = 0.5 * (sigma + sigma.mT)
    st.f[..., 0, :, :] = dot(rot, exp_so3((omega - st.v) * dt))


def _iekf_update(st: _State, b: Bucket, t: float) -> None:
    """The IEKF update of the bucket's runs.

    The output matrix is the bucket's h with every measured calibration
    column block right-multiplied by Rhat (the right-invariant error
    convention), and the residual Rhat Chat_i y - d (calibrated sensor) or
    Rhat y - d.  _kalman's correction r maps to R <- exp(r_att) Rhat,
    b <- bhat + r_bias, C_i <- exp(r_cal_i) Chat_i; runs whose update it
    skips keep their state.
    """
    sel = b.sel
    f, v, sigma = st.f[sel], st.v[sel], st.sigma[sel]
    rot = f[..., 0, :, :]
    prods = rot[..., None, :, :] @ f      # R C_i; the first, R R, is replaced by R
    prods[..., 0, :, :] = rot
    residual = _matvec(prods[..., b.factor, :, :], b.y) - b.refs
    h = b.h.copy()
    dot = np.ndarray.dot if h.ndim == 2 else np.matmul
    for j in b.cal_cols:
        h[..., j:j + 3] = dot(h[..., j:j + 3], rot)
    keep, r, sigma = _kalman(sigma, h, residual.reshape(h.shape[:-1]), b.var, b.bound, t,
                             b.names)
    if keep is not None:
        if r is None:
            return
        sel, f, v = b.rows[keep], f[keep], v[keep]
    d = r.shape[-1]
    rows = []                             # per run, exp(r_att) and each exp(r_cal_i)
    for row in r.reshape(-1, d).tolist():
        entries = _exp_entries(*row[0:3])
        for j in range(6, d, 3):
            entries += _exp_entries(*row[j:j + 3])
        rows.append(entries)
    st.put(sel, np.array(rows).reshape(f.shape) @ f, v + r[..., 3:6], sigma)


def iekf_propagate(s: IekfState, omega: np.ndarray, dt: float,
                   noise: NoiseConfig) -> IekfState:
    """One gyro step: exact mean flow and first-order covariance update, then
    the re-projection on every REPROJECT_EVERY-th step."""
    dt = _check_step(omega, dt, s.t)
    xi = s.xi
    s_u, eye = _propagation_constants(noise.sigma_w, noise.sigma_bw, noise.sigma_kappa, xi.n)
    st = _State(np.array([xi.R, *xi.C]), xi.b, s.sigma)
    _iekf_propagate(st, omega, dt, s_u, eye.copy())
    return _stepped(s, st, SystemState, dt)


def iekf_update(s: IekfState, meas: list[DirectionMeasurement],
                sensors: list[SensorModel]) -> IekfState:
    """Update from one or more simultaneous direction measurements; a skipped
    update (a bad S, see :func:`eqf._kalman`) returns the input state."""
    if not meas:
        return s
    xi = s.xi
    st = _State(np.array([xi.R, *xi.C]), xi.b, s.sigma)
    _iekf_update(st, _group_bucket(meas, sensors, s.t, xi.n), s.t)
    return _stepped(s, st, SystemState)
