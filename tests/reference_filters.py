"""Reference filter steps written from their definitions, independent of the
filters' kernels, and a per-step loop of them.

- The Kalman step of one update with the eigenvalue rule alone
  (:func:`kalman_step_eigvalsh`).
- Textbook updates with output blocks built from wedge
  (:func:`reference_eqf_update`, :func:`reference_iekf_update`): the EqF
  correction through symmetry's group_exp and group_mul, the IEKF's through
  exp_so3 of each part.
- The EqF propagation (:func:`reference_eqf_propagate`): the mean by right
  multiplication with the group exponential of the lifted velocity, Phi
  from scipy's expm of A0 dt, and Md as the Gauss-Legendre quadrature of
  Phi(s) M_c Phi(s)^T over the step.
- The IEKF propagation (:func:`reference_iekf_propagate`): the mean from
  symmetry's system_flow and Phi = I + F dt written out.

Both propagations re-project every factor with project_to_so3 on every
REPROJECT_EVERY-th step, as the filters do.
"""

import math

import numpy as np
from scipy.linalg import expm

from abc_eqf.eqf import (
    REPROJECT_EVERY,
    S_CONDITION_LIMIT,
    FilterState,
    NonFiniteEstimateError,
    compute_A0,
    eqf_init,
    sigma_u,
)
from abc_eqf.iekf import IekfState, iekf_init
from abc_eqf.lie import exp_so3, project_to_so3, wedge
from abc_eqf.metrics import EstimateSeries
from abc_eqf.runner import build_sensors, initial_sigma, noise_config
from abc_eqf.symmetry import (
    AlgebraElement,
    GroupElement,
    SystemState,
    group_exp,
    group_mul,
    identity_state,
    lifted_dynamics,
    state_from_group,
    system_flow,
)

from conftest import loop_groups

# Gauss-Legendre nodes and weights on [0, 1] of the Md quadrature.
# Criterion 3 uses 64 nodes to cover turns of up to 2 rad per step; at the
# test logs' turns of a few hundredths of a radian per step, 4 nodes
# integrate Phi(s) M_c Phi(s)^T to rounding.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(4)
MD_NODES, MD_WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS


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


def reference_eqf_propagate(fs, omega, dt, noise):
    x = fs.xhat
    n = x.n
    u = lifted_dynamics(x, omega)
    xhat = group_mul(x, group_exp(AlgebraElement(u.nav_rot * dt, u.nav_vec * dt,
                                                 [c * dt for c in u.cal])))
    a0 = compute_A0(x.A @ omega + x.a, n)
    phis = expm(a0 * (dt * np.append(MD_NODES, 1.0))[:, None, None])     # the nodes, then dt
    md = np.einsum("k,kij->ij", dt * MD_WEIGHTS, phis[:-1] @ sigma_u(noise, n) @ phis[:-1].mT)
    sigma = phis[-1] @ fs.sigma @ phis[-1].T + md
    steps = fs.steps + 1
    if steps % REPROJECT_EVERY == 0:
        xhat = GroupElement(project_to_so3(xhat.A), xhat.a, [project_to_so3(b) for b in xhat.B])
    return FilterState(xhat, 0.5 * (sigma + sigma.T), fs.t + dt, steps)


def reference_iekf_propagate(s, omega, dt, noise):
    xi = s.xi
    phi = np.eye(6 + 3 * xi.n)
    phi[0:3, 3:6] = -xi.R * dt
    sigma = phi @ s.sigma @ phi.T + sigma_u(noise, xi.n) * dt
    xi = system_flow(xi, omega, dt)
    steps = s.steps + 1
    if steps % REPROJECT_EVERY == 0:
        xi = SystemState(project_to_so3(xi.R), xi.b, [project_to_so3(c) for c in xi.C])
    return IekfState(xi, 0.5 * (sigma + sigma.T), s.t + dt, steps)


def reference_loop(kind, gyro_t, gyro_omega, measurements, cfg):
    """One log through the reference steps, one gyro step at a time, for the
    default md and residual modes.

    The filter starts at gyro_t[0] and applies the groups of
    conftest.loop_groups.  Returns the estimates as an EstimateSeries and
    Sigma (K, d, d) at every step.
    """
    assert (cfg.md_mode, cfg.residual_mode) == ("analytic", "subtract")
    sensors = build_sensors(cfg)
    noise = noise_config(cfg)
    t0 = float(gyro_t[0])
    if kind == "eqf":
        state = eqf_init(cfg.n_cal, sensors, noise, initial_sigma(cfg), t0)
        propagate, update = reference_eqf_propagate, reference_eqf_update
    else:
        state = iekf_init(identity_state(cfg.n_cal), initial_sigma(cfg), t0)
        propagate, update = reference_iekf_propagate, reference_iekf_update
    estimates, sigmas = [], []
    groups = loop_groups(gyro_t, measurements)
    gi = 0
    for k in range(gyro_t.size):
        if k > 0:
            state = propagate(state, gyro_omega[k], gyro_t[k] - gyro_t[k - 1], noise)
        while gi < len(groups) and groups[gi][0] == k:
            state = update(state, groups[gi][1], sensors)
            gi += 1
        estimates.append(state_from_group(state.xhat) if kind == "eqf" else state.xi)
        sigmas.append(state.sigma)
    sigma = np.array(sigmas)
    est = EstimateSeries(gyro_t.copy(), np.array([x.R for x in estimates]),
                         np.array([x.b for x in estimates]),
                         np.array([x.C for x in estimates]).reshape(gyro_t.size, cfg.n_cal, 3, 3),
                         np.diagonal(sigma, axis1=1, axis2=2).copy())
    return est, sigma
