"""Covariance discretization runtime study (`abc-eqf bench-phi`).

Four covariance propagation strategies run behind the same mean
propagation: (i) the closed-form transition matrix with the analytic
discrete noise, (ii) a per-step matrix exponential, (iii) a first-order
Euler step and (iv) adaptive RK45 integration of the joint mean +
covariance ODE.  scipy is imported inside the functions, so importing the
command line does not load it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eqf import (
    FilterState,
    NoiseConfig,
    compute_A0,
    compute_Md,
    compute_phi,
    phi_and_md,
    propagate_mean,
    sigma_u,
)
from .lie import wedge
from .symmetry import GroupElement, group_identity, lifted_dynamics

CHUNK_STEPS = 250       # gyro steps per strategy between switches in bench_phi


@dataclass
class BenchResult:
    times: dict[str, float]
    relative: dict[str, float]               # percent, closed form = 100
    cov_gap_expm: float                      # |final cov (i) - (ii)|_max
    cov_gap_euler: float                     # one-step |cov (i) - (iii)|_max at theta = 0.1
    phi_gap_euler: float                     # one-step |Phi - (I + A dt)|_max at theta = 0.1


def _bench_gyro(steps: int, dt: float, seed: int) -> np.ndarray:
    # realistic excitation (a few rad/s), comparable to the simulated flights
    rng = np.random.default_rng(seed)
    t = np.arange(steps) * dt
    base = np.stack([
        2.2 * np.sin(0.8 * t),
        1.6 * np.sin(0.5 * t + 1.0),
        1.1 * np.sin(0.3 * t + 2.0),
    ], axis=1)
    return base + rng.normal(0.0, 0.02, size=base.shape)


def _covariance_steps(dt: float, noise: NoiseConfig, n: int) -> dict:
    """Per-step strategies (i)-(iii), each a map (omega0, sigma) -> sigma."""
    from scipy.linalg import expm

    mc_dt = sigma_u(noise, n) * dt

    def closed(omega0, sigma):
        phi, md = phi_and_md(omega0, dt, noise, n)
        return phi @ sigma @ phi.T + md

    def matrix_exp(omega0, sigma):
        phi = expm(compute_A0(omega0, n) * dt)
        return phi @ sigma @ phi.T + compute_Md(omega0, dt, noise, n)

    def euler(omega0, sigma):
        # first-order truncated Euler step of the Riccati equation
        a_sig = compute_A0(omega0, n) @ sigma
        return sigma + dt * (a_sig + a_sig.T) + mc_dt

    return {"closed": closed, "expm": matrix_exp, "euler": euler}


def _timed_pass(cov_step, gyro: np.ndarray, dt: float, fs: FilterState
                ) -> tuple[float, FilterState]:
    """Wall time and final state of one strategy over the gyro samples."""
    t0 = time.perf_counter()
    for omega in gyro:
        xhat, omega0 = propagate_mean(fs.xhat, omega, dt)
        sigma = cov_step(omega0, fs.sigma)
        fs = FilterState(xhat, 0.5 * (sigma + sigma.T), fs.t + dt, fs.steps + 1)
    return time.perf_counter() - t0, fs


def _ode45_pass(gyro: np.ndarray, dt: float, noise: NoiseConfig, fs: FilterState
                ) -> tuple[float, np.ndarray]:
    """Strategy (iv): per gyro step, RK45 over the lifted mean dynamics
    X' = X lifted_dynamics(X, omega) and the Riccati equation together."""
    from scipy.integrate import solve_ivp

    n = fs.xhat.n
    dim = 6 + 3 * n
    mc = sigma_u(noise, n)

    def unpack(yv):
        x = GroupElement(yv[0:9].reshape(3, 3), yv[9:12],
                         [yv[12 + 9 * i: 21 + 9 * i].reshape(3, 3) for i in range(n)])
        return x, yv[12 + 9 * n:].reshape(dim, dim)

    def rhs(_t, yv):
        x, sig = unpack(yv)
        u = lifted_dynamics(x, omega)
        # left translation by X; A u_rot = A omega + a is the origin input
        a0 = compute_A0(x.A @ u.nav_rot, n)
        dsig = a0 @ sig + sig @ a0.T + mc
        return np.concatenate([(x.A @ wedge(u.nav_rot)).reshape(9), x.A @ u.nav_vec]
                              + [(b @ wedge(c)).reshape(9) for b, c in zip(x.B, u.cal)]
                              + [dsig.reshape(-1)])

    t0 = time.perf_counter()
    for omega in gyro:
        x = fs.xhat
        y0 = np.concatenate([x.A.reshape(9), x.a]
                            + [b.reshape(9) for b in x.B] + [fs.sigma.reshape(-1)])
        sol = solve_ivp(rhs, (0.0, dt), y0, method="RK45", rtol=1e-3, atol=1e-6)
        xhat, sigma = unpack(sol.y[:, -1].copy())
        fs = FilterState(xhat, 0.5 * (sigma + sigma.T), fs.t + dt, fs.steps + 1)
    return time.perf_counter() - t0, fs.sigma


def bench_phi(steps: int = 10000, dt: float = 0.005, n: int = 3, seed: int = 0,
              repeats: int = 7) -> BenchResult:
    """Time the four covariance propagation strategies over one gyro record.

    Mean propagation is identical across strategies (i)-(iii).  Each repeat
    passes over the record in chunks of CHUNK_STEPS steps, each chunk through
    every strategy in turn, from that strategy's own state; a strategy's
    time is the sum of its chunks, and the minimum over the repeats is
    reported.  So all three are timed within a few milliseconds of each
    other, at the same host speed.  RK45 runs once.
    """
    gyro = _bench_gyro(steps, dt, seed)
    noise = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)
    dim = 6 + 3 * n
    fs0 = FilterState(group_identity(n), np.eye(dim) * 1e-2, 0.0)
    cov_steps = _covariance_steps(dt, noise, n)

    times = {variant: np.inf for variant in cov_steps}
    for _ in range(repeats):
        states = dict.fromkeys(cov_steps, fs0)
        elapsed = dict.fromkeys(cov_steps, 0.0)
        for start in range(0, steps, CHUNK_STEPS):
            for variant, cov_step in cov_steps.items():
                chunk_s, states[variant] = _timed_pass(cov_step, gyro[start:start + CHUNK_STEPS],
                                                       dt, states[variant])
                elapsed[variant] += chunk_s
        for variant in cov_steps:
            times[variant] = min(times[variant], elapsed[variant])
    finals = {variant: fs.sigma for variant, fs in states.items()}
    times["ode45"] = _ode45_pass(gyro, dt, noise, fs0)[0]

    relative = {k: 100.0 * v / times["closed"] for k, v in times.items()}

    # one-step probes at |omega| dt = 0.1: the first-order transition matrix
    # and covariance are measurably off while the closed form matches expm
    probe, eye = np.array([0.1 / dt, 0.0, 0.0]), np.eye(dim)
    cov_gap = cov_steps["closed"](probe, eye) - cov_steps["euler"](probe, eye)
    phi_gap = compute_phi(probe, dt, n) - (eye + compute_A0(probe, n) * dt)
    return BenchResult(times, relative,
                       cov_gap_expm=float(np.max(np.abs(finals["closed"] - finals["expm"]))),
                       cov_gap_euler=float(np.max(np.abs(cov_gap))),
                       phi_gap_euler=float(np.max(np.abs(phi_gap))))
