"""Numerically robust primitives for SO(3), so(3) and the semi-direct factor SO(3) x so(3).

All rotations are plain (3, 3) float64 arrays, tangent vectors are (3,)
arrays holding vee coordinates.  Elements of the semi-direct factor are
(rotation, vee-vector) pairs; their 4x4 homogeneous representation is
``[[A, a], [0, 1]]``.

Branch thresholds:
    exp:  angle < 1e-6   -> 4th order Taylor of the sin/cos coefficients
    log:  angle < 1e-8   -> first-order skew extraction
          angle > pi - 1e-4 -> diagonal-dominant axis extraction
    left Jacobian: angle < 1e-3 -> series (trig form loses digits earlier
          because the coefficients get multiplied by large skew powers)
"""

from __future__ import annotations

import numpy as np

ORTHONORMALITY_TOL = 1e-9

_EXP_TAYLOR_ANGLE = 1e-6
_LOG_TAYLOR_ANGLE = 1e-8
_LOG_PI_ANGLE = np.pi - 1e-4
_JL_SERIES_ANGLE = 1e-3


class NotSkewError(ValueError):
    """Raised when vee() receives a matrix that is not skew-symmetric."""


class DegenerateError(ValueError):
    """Raised when project_to_so3() receives a (near-)singular matrix."""


def wedge(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of v, satisfying wedge(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> np.ndarray:
    """Inverse of wedge. Rejects inputs whose symmetric part exceeds tol."""
    if np.max(np.abs(m + m.T)) > tol:
        raise NotSkewError(f"matrix is not skew-symmetric within {tol}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp_so3(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula for the SO(3) exponential of the vee vector v."""
    angle = float(np.linalg.norm(v))
    k = wedge(v)
    if angle < _EXP_TAYLOR_ANGLE:
        a2 = angle * angle
        c1 = 1.0 - a2 / 6.0 + a2 * a2 / 120.0           # sin(t)/t
        c2 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0          # (1-cos(t))/t^2
    else:
        c1 = np.sin(angle) / angle
        c2 = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + c1 * k + c2 * (k @ k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Vee of the principal logarithm of a rotation matrix, norm <= pi.

    r may be one (3, 3) rotation or a stack (..., 3, 3); the result has
    shape (..., 3).  At angle pi the logarithm is two-valued; the sign is
    fixed so that the first nonzero axis component is positive.
    """
    r = np.asarray(r, dtype=float)
    skew = 0.5 * np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                           r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    s = np.linalg.norm(skew, axis=-1)                    # sin(angle)
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)    # cos(angle)
    angle = np.arctan2(s, c)
    # Below the Taylor angle the skew part is the logarithm; away from pi it
    # is scaled by angle / sin(angle).  s >= sin(1e-8) on the scaled entries.
    scale = np.where(angle < _LOG_TAYLOR_ANGLE, 1.0,
                     angle / np.maximum(s, np.finfo(float).tiny))
    out = skew * scale[..., None]
    for i in map(tuple, np.argwhere(angle >= _LOG_PI_ANGLE)):
        out[i] = _log_near_pi(r[i], skew[i], s[i], c[i], angle[i])
    return out


def _log_near_pi(r: np.ndarray, skew: np.ndarray, s: float, c: float,
                 angle: float) -> np.ndarray:
    # Near pi: sin(angle) cancels, extract the axis from the symmetric part.
    # R = I + sin(t) K + (1-cos(t)) K^2 with K = wedge(axis), so
    # axis axis^T = I + (sym(R) - I)/(1 - cos(t)).
    one_minus_cos = 1.0 - c
    outer = np.eye(3) + (0.5 * (r + r.T) - np.eye(3)) / one_minus_cos
    i = int(np.argmax(np.diag(outer)))
    axis = outer[i] / np.sqrt(max(outer[i, i], np.finfo(float).tiny))
    axis = axis / np.linalg.norm(axis)
    if s > 1e-12:
        # Angle strictly below pi: the skew part still carries the sign.
        if np.dot(axis, skew) < 0.0:
            axis = -axis
    else:
        # Genuine half turn: deterministic tie-break.
        for component in axis:
            if abs(component) > 1e-9:
                if component < 0.0:
                    axis = -axis
                break
    return angle * axis


def left_jacobian(v: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): integral of exp(s * wedge(v)) over s in [0, 1]."""
    angle = float(np.linalg.norm(v))
    k = wedge(v)
    if angle < _JL_SERIES_ANGLE:
        a2 = angle * angle
        c1 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0           # (1-cos(t))/t^2
        c2 = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0   # (t-sin(t))/t^3
    else:
        c1 = (1.0 - np.cos(angle)) / (angle * angle)
        c2 = (angle - np.sin(angle)) / (angle ** 3)
    return np.eye(3) + c1 * k + c2 * (k @ k)


def exp_sdp(omega: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential of [[wedge(omega), v], [0, 0]] restricted to its (rotation,
    translation-column) blocks: (exp_so3(omega), J_l(omega) @ v).

    Shares the skew powers and trig evaluations between the two blocks; the
    results match the separate exp_so3 / left_jacobian evaluations to rounding.
    """
    angle = float(np.linalg.norm(omega))
    k = wedge(omega)
    k2 = k @ k
    a2 = angle * angle
    if angle < _EXP_TAYLOR_ANGLE:
        c1 = 1.0 - a2 / 6.0 + a2 * a2 / 120.0
        c2 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0
    else:
        c1 = np.sin(angle) / angle
        c2 = (1.0 - np.cos(angle)) / a2
    rot = np.eye(3) + c1 * k + c2 * k2
    if angle < _JL_SERIES_ANGLE:
        j1 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0
        j2 = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0
    else:
        j1 = (1.0 - np.cos(angle)) / a2
        j2 = (angle - np.sin(angle)) / (angle ** 3)
    vec = v + j1 * (k @ v) + j2 * (k2 @ v)
    return rot, vec


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation to m in Frobenius norm (orthogonal polar factor)."""
    if np.linalg.det(m) <= 1e-12:
        raise DegenerateError("matrix determinant is not positive")
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def is_rotation(m: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> bool:
    """True when m is orthonormal (Frobenius) and det m = +1 within tol."""
    if m.shape != (3, 3):
        return False
    if np.linalg.norm(m.T @ m - np.eye(3)) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol
