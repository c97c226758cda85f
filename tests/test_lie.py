import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from abc_eqf.lie import (
    DegenerateError,
    NotSkewError,
    exp_sdp,
    exp_so3,
    is_rotation,
    left_jacobian,
    log_so3,
    project_to_so3,
    vee,
    wedge,
)


def series_expm(m, terms=20):
    """Truncated power-series matrix exponential (independent oracle)."""
    out = np.eye(m.shape[0])
    acc = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        acc = acc @ m / k
        out = out + acc
    return out


# Both sides of the exponential (1e-6) and left-Jacobian (1e-3) branch
# thresholds, generic angles, and angles up to pi.
ORACLE_ANGLES = (0.0, 1e-9, 0.999e-6, 1.001e-6, 0.999e-3, 1.001e-3, 0.3, 2.0,
                 np.pi - 1e-3, np.pi - 1e-7, np.pi)


def oracle_vectors(rng, count=300):
    """Random axes at each ORACLE_ANGLES angle, then at random angles up to pi
    (beyond pi, scipy's expm itself drifts to a few 1e-14)."""
    angles = [a for a in ORACLE_ANGLES for _ in range(20)] + list(rng.uniform(0.0, np.pi, count))
    axes = rng.normal(size=(len(angles), 3))
    return [a * axis / np.linalg.norm(axis) for a, axis in zip(angles, axes)]


def hom_matrix(w, v):
    """The 4x4 homogeneous matrix [[wedge(w), v], [0, 0]]."""
    m = np.zeros((4, 4))
    m[0:3, 0:3] = wedge(w)
    m[0:3, 3] = v
    return m


def test_wedge_zero():
    assert_allclose(wedge(np.zeros(3)), np.zeros((3, 3)))


def test_wedge_basis():
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert_allclose(wedge(np.array([1.0, 0.0, 0.0])), expected)


def test_wedge_cross_product_oracle(rng):
    for _ in range(200):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        assert_allclose(wedge(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee_round_trip():
    v = np.array([1.0, 2.0, 3.0])
    assert_allclose(vee(wedge(v)), v)
    assert_allclose(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_rejects_non_skew():
    with pytest.raises(NotSkewError):
        vee(np.eye(3))


def test_exp_identity_and_half_turn():
    assert_allclose(exp_so3(np.zeros(3)), np.eye(3))
    assert_allclose(exp_so3(np.array([np.pi, 0.0, 0.0])),
                    np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_exp_series_oracle(rng):
    for _ in range(300):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi) / np.linalg.norm(v)
        assert_allclose(exp_so3(v), series_expm(wedge(v)), atol=1e-12)


def test_exp_matches_expm(rng):
    for v in oracle_vectors(rng):
        assert_allclose(exp_so3(v), expm(wedge(v)), rtol=0.0, atol=1e-14)


def test_exp_small_angle_branch(rng):
    for scale in (1e-9, 1e-7, 0.999e-6, 1.001e-6, 2e-6):
        v = rng.normal(size=3)
        v *= scale / np.linalg.norm(v)
        assert_allclose(exp_so3(v), series_expm(wedge(v)), atol=1e-15)


def test_exp_rotation_closure(rng):
    for _ in range(2000):
        r = exp_so3(rng.normal(0.0, 2.0, size=3))
        assert is_rotation(r)


def test_log_identity_and_half_turn():
    assert_allclose(log_so3(np.eye(3)), np.zeros(3))
    v = log_so3(np.diag([1.0, -1.0, -1.0]))
    assert_allclose(v, np.array([np.pi, 0.0, 0.0]), atol=1e-9)


def test_log_half_turn_tie_break_sign():
    # Diagonal half turns admit +-axis; the first nonzero component is positive.
    for axis in np.eye(3):
        v = log_so3(exp_so3(np.pi * axis))
        assert np.dot(v, axis) > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-8, np.pi - 1e-3),
       st.integers(0, 2 ** 32 - 1))
def test_log_exp_round_trip(angle, seed):
    axis = np.random.default_rng(seed).normal(size=3)
    axis /= np.linalg.norm(axis)
    v = angle * axis
    assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-9


def test_log_near_pi_branch(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 10 ** rng.uniform(-9, -4.2)
        v = angle * axis
        assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-8


def test_log_of_stack_equals_per_matrix_calls(rng):
    mats = [np.eye(3),
            exp_so3(np.array([3e-9, -1e-9, 2e-9])),                 # Taylor range
            exp_so3(rng.normal(size=3)),                            # generic
            exp_so3((np.pi - 1e-6) * np.array([0.0, 0.6, -0.8])),   # near pi
            np.diag([-1.0, 1.0, -1.0]),                             # exact half turn
            exp_so3(np.pi * np.array([0.0, -0.6, 0.8]))]
    mats += [exp_so3(rng.normal(0.0, 2.0, size=3)) for _ in range(20)]
    stack = np.stack(mats)
    per_matrix = np.stack([log_so3(r) for r in mats])
    assert_allclose(log_so3(stack), per_matrix, rtol=0.0, atol=1e-15)
    assert_allclose(log_so3(stack.reshape(2, 13, 3, 3)), per_matrix.reshape(2, 13, 3),
                    rtol=0.0, atol=1e-15)
    assert log_so3(np.empty((4, 0, 3, 3))).shape == (4, 0, 3)


def test_log_norm_bounded(rng):
    for _ in range(300):
        r = exp_so3(rng.normal(0.0, 3.0, size=3))
        assert np.linalg.norm(log_so3(r)) <= np.pi + 1e-12


def test_adjoint_identity(rng):
    # exp(R v) = R exp(v) R^T
    for _ in range(200):
        r = exp_so3(rng.normal(size=3))
        v = rng.normal(size=3)
        assert_allclose(exp_so3(r @ v), r @ exp_so3(v) @ r.T, atol=1e-11)


def test_exp_sdp_trivial_cases(rng):
    v = rng.normal(size=3)
    rot, vec = exp_sdp(np.zeros(3), v)
    assert_allclose(rot, np.eye(3))
    assert_allclose(vec, v)

    w = rng.normal(size=3)
    rot, vec = exp_sdp(w, np.zeros(3))
    assert_allclose(rot, exp_so3(w))
    assert_allclose(vec, np.zeros(3))


def test_exp_sdp_series_oracle(rng):
    for _ in range(300):
        w = rng.normal(size=3)
        v = rng.normal(size=3)
        expected = series_expm(hom_matrix(w, v))
        rot, vec = exp_sdp(w, v)
        assert_allclose(rot, expected[0:3, 0:3], atol=1e-12)
        assert_allclose(vec, expected[0:3, 3], atol=1e-12)


def test_exp_sdp_matches_expm(rng):
    for w in oracle_vectors(rng):
        v = rng.normal(size=3)
        expected = expm(hom_matrix(w, v))
        rot, vec = exp_sdp(w, v)
        assert_allclose(rot, expected[0:3, 0:3], rtol=0.0, atol=1e-14)
        assert_allclose(vec, expected[0:3, 3], rtol=0.0, atol=1e-14)


def test_exp_sdp_homogeneous_product(rng):
    # exp of the 4x4 block matrix lands where the homogeneous product says.
    w = rng.normal(size=3)
    v = rng.normal(size=3)
    rot, vec = exp_sdp(w, v)
    hom = np.eye(4)
    hom[0:3, 0:3] = rot
    hom[0:3, 3] = vec
    assert_allclose(hom, series_expm(hom_matrix(w, v)), atol=1e-12)


def test_left_jacobian_series_oracle_across_branch(rng):
    # J_l = sum_k wedge(v)^k / (k+1)!; both branches must agree with it.
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    for angle in (1e-5, 0.999e-3, 1.001e-3, 0.3, 2.0):
        k = wedge(v * angle)
        acc = np.eye(3)
        oracle = np.eye(3)
        for i in range(1, 21):
            acc = acc @ k / (i + 1)
            oracle = oracle + acc
        assert np.max(np.abs(left_jacobian(v * angle) - oracle)) < 1e-13


def test_project_fixed_point(rng):
    r = exp_so3(rng.normal(size=3))
    assert np.max(np.abs(project_to_so3(r) - r)) < 1e-14


def test_project_restores_invariants(rng):
    r = exp_so3(rng.normal(size=3)) + rng.normal(0.0, 1e-6, size=(3, 3))
    assert is_rotation(project_to_so3(r))


def test_project_minimality_sampled(rng):
    m = exp_so3(rng.normal(size=3)) + rng.normal(0.0, 1e-2, size=(3, 3))
    best = project_to_so3(m)
    best_gap = np.linalg.norm(best - m)
    for _ in range(100):
        q = exp_so3(rng.normal(0.0, 2.0, size=3))
        assert best_gap <= np.linalg.norm(q - m) + 1e-12


def test_project_rejects_degenerate():
    with pytest.raises(DegenerateError):
        project_to_so3(np.zeros((3, 3)))
