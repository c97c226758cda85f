"""The EqF mean step and its transition matrix against their definitions.

`propagate_mean` moves every factor by left multiplication with
E = exp(v), v = omega0 dt.  Its definition right-multiplies Xhat by the
group exponential of dt times the lifted velocity at Xhat.  `phi_and_md`
builds Phi's rotation blocks from the same E and its bias-to-attitude block
from the left Jacobian of v.
"""

import math

import numpy as np
import pytest

from abc_eqf.eqf import NoiseConfig, phi_and_md, propagate_mean
from abc_eqf.lie import exp_so3, left_jacobian
from abc_eqf.symmetry import AlgebraElement, group_exp, group_mul, lifted_dynamics

from conftest import random_group_element

NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)
# |omega0| dt on both sides of each branch threshold of exp, J_l and Md
THETAS = [0.0, 1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9), 1e-3 * (1 - 1e-9),
          1e-3 * (1 + 1e-9), 0.1 * (1 - 1e-9), 0.1 * (1 + 1e-9), 1.0, math.pi - 1e-3]


def _right_multiplied(x, omega, dt):
    """Definition of the mean step: Xhat exp(dt lifted_dynamics(Xhat, omega))."""
    u = lifted_dynamics(x, omega)
    return group_mul(x, group_exp(AlgebraElement(u.nav_rot * dt, u.nav_vec * dt,
                                                 [c * dt for c in u.cal])))


def _step_input(x, theta, dt, rng):
    """A gyro sample whose origin input omega0 = A omega + a turns theta in dt."""
    axis = rng.normal(size=3)
    omega0 = (theta / dt) * axis / np.linalg.norm(axis)
    return x.A.T @ (omega0 - x.a)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", THETAS)
def test_propagate_mean_matches_right_multiplication(rng, n, theta):
    for dt in (0.005, 0.7):
        for _ in range(5):
            x = random_group_element(rng, n)
            omega = _step_input(x, theta, dt, rng)
            got, omega0 = propagate_mean(x, omega, dt)
            want = _right_multiplied(x, omega, dt)
            assert np.linalg.norm(omega0) * dt == pytest.approx(theta, rel=1e-12, abs=1e-15)
            gaps = [np.max(np.abs(got.A - want.A)), np.max(np.abs(got.a - want.a))]
            gaps += [np.max(np.abs(b - c)) for b, c in zip(got.B, want.B, strict=True)]
            assert max(gaps) < 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", THETAS)
def test_phi_blocks_are_the_mean_step_matrices(rng, n, theta):
    dt = 0.005
    x = random_group_element(rng, n)
    got, omega0 = propagate_mean(x, _step_input(x, theta, dt, rng), dt)
    v = omega0 * dt
    e = exp_so3(v)
    # the mean step applies exactly this E to every factor ...
    assert np.array_equal(got.A, e.dot(x.A))
    assert np.array_equal(got.a, e.dot(x.a))
    assert all(np.array_equal(b, e.dot(c)) for b, c in zip(got.B, x.B))
    # ... and Phi's rotation blocks are the same matrix, bit for bit
    phi, _ = phi_and_md(omega0, dt, NOISE, n)
    for j in range(3, 6 + 3 * n, 3):
        assert np.array_equal(phi[j:j + 3, j:j + 3], e)
    assert np.max(np.abs(phi[0:3, 3:6] + dt * left_jacobian(v))) < 1e-15
