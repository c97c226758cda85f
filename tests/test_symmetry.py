import numpy as np
import pytest
from numpy.testing import assert_allclose

from abc_eqf.lie import exp_so3, is_rotation, wedge
from abc_eqf.symmetry import (
    DimensionMismatchError,
    OutOfChartError,
    action_phi,
    action_psi,
    action_rho,
    adjoint,
    coords_theta,
    coords_theta_inv,
    group_exp,
    group_identity,
    group_inv,
    group_mul,
    identity_state,
    lift_lambda,
    lifted_dynamics,
    output_h,
    state_from_group,
    system_flow,
    transitivity_element,
)

from conftest import (
    max_state_gap,
    random_algebra,
    random_group_element,
    random_state,
)

NS = [0, 1, 2, 3]


def hom4(x):
    m = np.eye(4)
    m[0:3, 0:3] = x.A
    m[0:3, 3] = x.a
    return m


def random_refs(rng, count):
    refs = rng.normal(size=(count, 3))
    return refs / np.linalg.norm(refs, axis=1, keepdims=True)


@pytest.mark.parametrize("n", NS)
def test_group_identity_and_inverse(rng, n):
    x = random_group_element(rng, n)
    e = group_identity(n)
    for result in (group_mul(x, e), group_mul(e, x)):
        assert np.max(np.abs(result.A - x.A)) < 1e-12
        assert np.max(np.abs(result.a - x.a)) < 1e-12
    for prod in (group_mul(x, group_inv(x)), group_mul(group_inv(x), x)):
        assert np.max(np.abs(prod.A - np.eye(3))) < 1e-12
        assert np.max(np.abs(prod.a)) < 1e-12
        for b in prod.B:
            assert np.max(np.abs(b - np.eye(3))) < 1e-12


def test_group_inv_zero_vector_part(rng):
    x = random_group_element(rng, 1)
    x.a = np.zeros(3)
    inv = group_inv(x)
    assert_allclose(inv.A, x.A.T)
    assert_allclose(inv.a, np.zeros(3))
    assert_allclose(inv.B[0], x.B[0].T)


@pytest.mark.parametrize("n", NS)
def test_group_mul_matches_homogeneous_product(rng, n):
    for _ in range(250):
        x = random_group_element(rng, n)
        y = random_group_element(rng, n)
        prod = group_mul(x, y)
        assert np.max(np.abs(hom4(prod) - hom4(x) @ hom4(y))) < 1e-12


def test_group_mul_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        group_mul(random_group_element(rng, 1), random_group_element(rng, 2))


@pytest.mark.parametrize("n", NS)
def test_phi_identity_action(rng, n):
    xi = random_state(rng, n)
    assert max_state_gap(action_phi(group_identity(n), xi), xi) < 1e-15


@pytest.mark.parametrize("n", NS)
def test_phi_composition(rng, n):
    # Right action law: phi(X, phi(Y, xi)) = phi(Y X, xi).
    for _ in range(250):
        x = random_group_element(rng, n)
        y = random_group_element(rng, n)
        xi = random_state(rng, n)
        lhs = action_phi(x, action_phi(y, xi))
        rhs = action_phi(group_mul(y, x), xi)
        assert max_state_gap(lhs, rhs) < 1e-11


@pytest.mark.parametrize("n", NS)
def test_phi_transitivity_construction(rng, n):
    for _ in range(250):
        xi1 = random_state(rng, n)
        xi2 = random_state(rng, n)
        z = transitivity_element(xi1, xi2)
        assert max_state_gap(action_phi(z, xi1), xi2) < 1e-10


@pytest.mark.parametrize("n", NS)
def test_psi_axioms(rng, n):
    omega = rng.normal(size=3)
    assert_allclose(action_psi(group_identity(n), omega), omega)
    for _ in range(250):
        x = random_group_element(rng, n)
        y = random_group_element(rng, n)
        u = rng.normal(size=3)
        lhs = action_psi(x, action_psi(y, u))
        rhs = action_psi(group_mul(y, x), u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_psi_pure_translation(rng):
    a = rng.normal(size=3)
    x = group_identity(0)
    x.a = a
    omega = rng.normal(size=3)
    assert_allclose(action_psi(x, omega), omega - a)


@pytest.mark.parametrize("n", NS)
def test_rho_identity_and_composition(rng, n):
    count = n + 2
    y = random_refs(rng, count)
    assert_allclose(action_rho(group_identity(n), y), y)
    for _ in range(250):
        x = random_group_element(rng, n)
        z = random_group_element(rng, n)
        lhs = action_rho(x, action_rho(z, y))
        rhs = action_rho(group_mul(z, x), y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rho_uncalibrated_layout(rng):
    # n = 0: every component is mapped by A^T.
    x = random_group_element(rng, 0)
    y = random_refs(rng, 2)
    out = action_rho(x, y)
    assert_allclose(out, y @ x.A, atol=1e-14)


@pytest.mark.parametrize("n", NS)
def test_output_equivariance(rng, n):
    # rho(X, h(xi)) = h(phi(X, xi))
    count = n + 2
    for _ in range(250):
        x = random_group_element(rng, n)
        xi = random_state(rng, n)
        refs = random_refs(rng, count)
        lhs = action_rho(x, output_h(xi, refs))
        rhs = output_h(action_phi(x, xi), refs)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_output_h_identity_and_quarter_turn(rng):
    refs = random_refs(rng, 3)
    assert_allclose(output_h(identity_state(1), refs), refs)

    xi = identity_state(1)
    xi.R = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
    out = output_h(xi, np.array([[1.0, 0.0, 0.0]]))
    assert_allclose(out[0], np.array([0.0, -1.0, 0.0]), atol=1e-15)


def test_output_h_unit_norm(rng):
    for n in NS:
        xi = random_state(rng, n)
        out = output_h(xi, random_refs(rng, n + 2))
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", NS)
def test_lift_trivial_cases(rng, n):
    omega = rng.normal(size=3)
    xi = identity_state(n)
    lam = lift_lambda(xi, omega)
    assert_allclose(lam.nav_rot, omega)
    assert_allclose(lam.nav_vec, np.zeros(3))
    for c in lam.cal:
        assert_allclose(c, omega)

    xi = random_state(rng, n)
    xi.b = omega.copy()
    lam = lift_lambda(xi, omega)
    assert np.max(np.abs(lam.nav_rot)) < 1e-15
    assert np.max(np.abs(lam.nav_vec)) < 1e-15
    for c in lam.cal:
        assert np.max(np.abs(c)) < 1e-15


@pytest.mark.parametrize("n", NS)
def test_lift_ad_equivariance(rng, n):
    # Ad_X[Lambda(phi_X(xi), psi_X(u))] = Lambda(xi, u)
    for _ in range(250):
        x = random_group_element(rng, n)
        xi = random_state(rng, n)
        omega = rng.normal(size=3)
        lam = lift_lambda(action_phi(x, xi), action_psi(x, omega))
        back = adjoint(x, lam)
        ref = lift_lambda(xi, omega)
        gap = max(np.max(np.abs(back.nav_rot - ref.nav_rot)),
                  np.max(np.abs(back.nav_vec - ref.nav_vec)),
                  max((np.max(np.abs(a - b)) for a, b in zip(back.cal, ref.cal)),
                      default=0.0))
        assert gap < 1e-10


def _scale_algebra(lam, h):
    scaled = type(lam)(lam.nav_rot * h, lam.nav_vec * h, [c * h for c in lam.cal])
    return scaled


@pytest.mark.parametrize("n", NS)
def test_lift_projection_condition(rng, n):
    # d phi_xi(I)[Lambda(xi, u)] equals the system vector field at xi:
    # only the attitude moves, at R (omega - b)^.
    h = 1e-5
    for _ in range(50):
        xi = random_state(rng, n)
        omega = rng.normal(size=3)
        lam = lift_lambda(xi, omega)
        plus = action_phi(group_exp(_scale_algebra(lam, h)), xi)
        minus = action_phi(group_exp(_scale_algebra(lam, -h)), xi)
        dR = (plus.R - minus.R) / (2.0 * h)
        db = (plus.b - minus.b) / (2.0 * h)
        assert np.max(np.abs(dR - xi.R @ wedge(omega - xi.b))) < 1e-6
        assert np.max(np.abs(db)) < 1e-6
        for cp, cm in zip(plus.C, minus.C):
            assert np.max(np.abs((cp - cm) / (2.0 * h))) < 1e-6


@pytest.mark.parametrize("n", NS)
def test_system_equivariance_pushforward(rng, n):
    # (d phi_X [f_0 + f_u]) (xi) = f_0(xi) + f_{psi_X(u)}(xi), finite differences
    # along the exact constant-input flow.
    h = 1e-5
    for _ in range(50):
        x = random_group_element(rng, n)
        xi = random_state(rng, n)
        omega = rng.normal(size=3)
        xi_back = action_phi(group_inv(x), xi)
        plus = action_phi(x, system_flow(xi_back, omega, h))
        minus = action_phi(x, system_flow(xi_back, omega, -h))
        pushed = (plus.R - minus.R) / (2.0 * h)
        direct = xi.R @ wedge(action_psi(x, omega) - xi.b)
        assert np.max(np.abs(pushed - direct)) < 1e-6


@pytest.mark.parametrize("n", NS)
def test_lifted_dynamics_at_identity(rng, n):
    omega = rng.normal(size=3)
    lam = lifted_dynamics(group_identity(n), omega)
    ref = lift_lambda(identity_state(n), omega)
    assert_allclose(lam.nav_rot, ref.nav_rot)
    assert_allclose(lam.nav_vec, ref.nav_vec)


def test_lifted_dynamics_zero_input():
    lam = lifted_dynamics(group_identity(2), np.zeros(3))
    assert np.max(np.abs(lam.nav_rot)) == 0.0
    assert np.max(np.abs(lam.nav_vec)) == 0.0
    for c in lam.cal:
        assert np.max(np.abs(c)) == 0.0


@pytest.mark.parametrize("n", NS)
def test_coords_round_trip(rng, n):
    assert np.max(np.abs(coords_theta(identity_state(n)))) == 0.0

    xi = identity_state(n)
    xi.b = rng.normal(size=3)
    eps = coords_theta(xi)
    assert np.max(np.abs(eps[0:3])) == 0.0
    assert_allclose(eps[3:6], xi.b)

    for _ in range(200):
        e = random_state(rng, n, scale=0.6)
        back = coords_theta_inv(coords_theta(e), n)
        assert max_state_gap(back, e) < 1e-10


def test_coords_out_of_chart():
    xi = identity_state(0)
    xi.R = exp_so3(np.array([np.pi - 1e-4, 0.0, 0.0]))
    with pytest.raises(OutOfChartError):
        coords_theta(xi)


@pytest.mark.parametrize("n", NS)
def test_state_from_group(rng, n):
    e = group_identity(n)
    assert max_state_gap(state_from_group(e), identity_state(n)) == 0.0

    x = random_group_element(rng, n)
    xi = state_from_group(x)
    assert_allclose(xi.R, x.A)
    assert_allclose(xi.b, -(x.A.T @ x.a))
    for c, b in zip(xi.C, x.B):
        assert_allclose(c, x.A.T @ b)
    # bit-equal to the action on the identity state, for many random elements
    for _ in range(200):
        x = random_group_element(rng, n, scale=rng.uniform(0.1, 3.0))
        xi = state_from_group(x)
        ref = action_phi(x, identity_state(n))
        assert np.array_equal(xi.R, ref.R) and np.array_equal(xi.b, ref.b)
        assert len(xi.C) == n and all(np.array_equal(c, r) for c, r in zip(xi.C, ref.C))


@pytest.mark.parametrize("n", NS)
def test_group_exp_rotations_valid(rng, n):
    x = group_exp(random_algebra(rng, n))
    assert is_rotation(x.A)
    for b in x.B:
        assert is_rotation(b)
