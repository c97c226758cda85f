"""Fast checks of the benchmark's accuracy oracle against hand computations."""

import numpy as np
import pytest

from oracle import rmse_report, rotation_distance_deg, window_rmse


def _rot_z(deg: float) -> np.ndarray:
    a = np.radians(deg)
    return np.array([[np.cos(a), -np.sin(a), 0.0],
                     [np.sin(a), np.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


def _rot_x(deg: float) -> np.ndarray:
    a = np.radians(deg)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, np.cos(a), -np.sin(a)],
                     [0.0, np.sin(a), np.cos(a)]])


@pytest.mark.parametrize("deg", [0.0, 1e-6, 0.5, 30.0, 90.0, 179.0])
def test_known_angles(deg):
    got = rotation_distance_deg(_rot_z(deg), np.eye(3))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(deg, abs=1e-9)


def test_distance_is_bi_invariant_and_symmetric():
    a, b, g = _rot_z(40.0), _rot_x(25.0), _rot_x(-70.0) @ _rot_z(10.0)
    d = rotation_distance_deg(a, b)[0]
    assert rotation_distance_deg(b, a)[0] == pytest.approx(d, abs=1e-9)
    assert rotation_distance_deg(g @ a, g @ b)[0] == pytest.approx(d, abs=1e-9)
    assert rotation_distance_deg(a @ g, b @ g)[0] == pytest.approx(d, abs=1e-9)
    # rotations about one axis compose by adding angles
    assert rotation_distance_deg(_rot_z(50.0), _rot_z(20.0))[0] == pytest.approx(30.0)


def test_window_split_by_hand():
    # t = 0..5, split at 2.5: transient samples t = 0, 1, 2; asymptotic t = 3, 4, 5
    t = np.arange(6.0)
    v = np.array([3.0, 4.0, 0.0, 1.0, 1.0, 2.0])
    tr, asym = window_rmse(v, t)
    assert tr == pytest.approx(np.sqrt((9.0 + 16.0 + 0.0) / 3.0))
    assert asym == pytest.approx(np.sqrt((1.0 + 1.0 + 4.0) / 3.0))


def test_window_split_sample_on_split_goes_to_asymptotic():
    t = np.arange(5.0)                       # split at 2.0
    v = np.array([1.0, 1.0, 7.0, 0.0, 0.0])
    tr, asym = window_rmse(v, t)
    assert tr == pytest.approx(1.0)
    assert asym == pytest.approx(7.0 / np.sqrt(3.0))


def test_rmse_report_by_hand():
    t = np.arange(4.0)                       # split at 1.5
    att = [10.0, 10.0, 2.0, 2.0]
    r_true = np.stack([_rot_z(a) for a in att])
    r_est = np.stack([np.eye(3)] * 4)
    b_true = np.zeros((4, 3))
    b_est = np.array([[0.3, 0.4, 0.0]] * 2 + [[0.0, 0.0, 0.1]] * 2)
    cal_true = [_rot_x(5.0), np.eye(3)]
    c_est = np.stack([np.stack([np.eye(3), _rot_z(c)]) for c in (4.0, 4.0, 1.0, 1.0)])
    rep = rmse_report(t, r_true, b_true, cal_true, r_est, b_est, c_est)
    assert rep["att_T_deg"] == pytest.approx(10.0)
    assert rep["att_A_deg"] == pytest.approx(2.0)
    assert rep["bias_T"] == pytest.approx(0.5)
    assert rep["bias_A"] == pytest.approx(0.1)
    assert rep["cal_T_deg"] == pytest.approx((5.0 + 4.0) / 2.0)
    assert rep["cal_A_deg"] == pytest.approx((5.0 + 1.0) / 2.0)
