"""Accuracy oracle built on scipy's Rotation, apart from the program's own
`lie` and `metrics` modules.

Errors follow Table I of the paper: attitude and calibration errors are the
rotation distance between truth and estimate in degrees, the bias error is
the Euclidean norm of the bias difference.  The transient window is the first
half of the run, [t0, split), the asymptotic window the second, [split, end],
with split = (t0 + t_end) / 2.  Calibration RMSE is averaged over sensors.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation


def rotation_distance_deg(r_true: np.ndarray, r_est: np.ndarray) -> np.ndarray:
    """Angle of r_true r_est^T in degrees, for stacks of (..., 3, 3) matrices."""
    r_true = np.asarray(r_true, dtype=float).reshape(-1, 3, 3)
    r_est = np.asarray(r_est, dtype=float).reshape(-1, 3, 3)
    rel = Rotation.from_matrix(r_true) * Rotation.from_matrix(r_est).inv()
    return np.degrees(rel.magnitude())


def window_rmse(values: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """(transient, asymptotic) root mean square of values over the two halves."""
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    split = 0.5 * (t[0] + t[-1])
    early = t < split
    if not early.any() or early.all():
        raise ValueError("both windows need samples")
    return (float(np.sqrt(np.mean(values[early] ** 2))),
            float(np.sqrt(np.mean(values[~early] ** 2))))


def rmse_report(t: np.ndarray, r_true: np.ndarray, b_true: np.ndarray,
                cal_true: list[np.ndarray], r_est: np.ndarray, b_est: np.ndarray,
                c_est: np.ndarray) -> dict[str, float]:
    """Transient (T) and asymptotic (A) RMSE of one run.

    Keys: att_T_deg, att_A_deg, bias_T, bias_A (rad/s), cal_T_deg, cal_A_deg.
    c_est has shape (K, n, 3, 3); cal_true holds the n true calibrations.
    """
    att = rotation_distance_deg(r_true, r_est)
    bias = np.linalg.norm(np.asarray(b_true) - np.asarray(b_est), axis=1)
    out = {}
    out["att_T_deg"], out["att_A_deg"] = window_rmse(att, t)
    out["bias_T"], out["bias_A"] = window_rmse(bias, t)
    cal_t, cal_a = [], []
    for j, c_true in enumerate(cal_true):
        k = c_est.shape[0]
        err = rotation_distance_deg(np.broadcast_to(c_true, (k, 3, 3)), c_est[:, j])
        tr, asym = window_rmse(err, t)
        cal_t.append(tr)
        cal_a.append(asym)
    out["cal_T_deg"] = float(np.mean(cal_t)) if cal_t else float("nan")
    out["cal_A_deg"] = float(np.mean(cal_a)) if cal_a else float("nan")
    return out
