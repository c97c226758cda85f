"""Numerically robust primitives for SO(3), so(3) and the semi-direct factor SO(3) x so(3).

All rotations are plain (3, 3) float64 arrays, tangent vectors are (3,)
arrays holding vee coordinates.  Elements of the semi-direct factor are
(rotation, vee-vector) pairs; their 4x4 homogeneous representation is
``[[A, a], [0, 1]]``.

The exponentials and the left Jacobian are written in scalar form: the
vectors are unpacked to Python floats, and the entries of
c0 I + c1 wedge(v) + c2 wedge(v)^2 and of J_l(omega) v are built from the
scalar Rodrigues coefficients, without forming the skew matrix or its
square.  They run on every gyro step of both filters, and keep the branch
thresholds and Taylor series below.  The EqF's gyro step evaluates one
exponential, exp(omega0 dt), and builds its transition matrix from the same
coefficient functions, so the two agree bit for bit.

Branch thresholds:
    exp:  angle < 1e-6   -> 4th order Taylor of the sin/cos coefficients
    log:  angle < 1e-8   -> first-order skew extraction
          angle > pi - 1e-4 -> diagonal-dominant axis extraction
    left Jacobian: angle < 1e-3 -> series (trig form loses digits earlier
          because the coefficients get multiplied by large skew powers)
"""

from __future__ import annotations

import math

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


def _exp_coefficients(angle: float) -> tuple[float, float]:
    """sin(t)/t and (1-cos(t))/t^2 at t = angle, the rotation's Rodrigues
    coefficients, from their 4th order Taylor series below 1e-6.

    The rotation multiplies (1-cos(t))/t^2 by wedge(v)^2, of size t^2, so the
    cancellation in 1 - cos(t) costs it 1e-16 absolute; it keeps the cosine
    form, as the simulator draws its initial attitude and calibrations
    through exp_so3.
    """
    a2 = angle * angle
    if angle < _EXP_TAYLOR_ANGLE:
        return 1.0 - a2 / 6.0 + a2 * a2 / 120.0, 0.5 - a2 / 24.0 + a2 * a2 / 720.0
    return math.sin(angle) / angle, (1.0 - math.cos(angle)) / a2


def _jl_coefficients(angle: float) -> tuple[float, float]:
    """(1-cos(t))/t^2 and (t-sin(t))/t^3 at t = angle, the left Jacobian's
    coefficients, from their 4th order Taylor series below 1e-3.

    J_l multiplies the first by wedge(v), of size t, where the cancellation
    in 1 - cos(t) would cost 1e-16/t (1e-13 just above the threshold), so it
    is evaluated as 2 sin(t/2)^2 / t^2.
    """
    a2 = angle * angle
    if angle < _JL_SERIES_ANGLE:
        return (0.5 - a2 / 24.0 + a2 * a2 / 720.0,
                1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0)
    h = math.sin(0.5 * angle) / angle
    return 2.0 * h * h, (angle - math.sin(angle)) / (angle ** 3)


def _rodrigues(x: float, y: float, z: float, c1: float, c2: float,
               c0: float = 1.0) -> list[float]:
    """Row-major entries of c0 I + c1 K + c2 K^2 for K = wedge((x, y, z)),
    with K^2 = v v^T - |v|^2 I."""
    xy, xz, yz = c2 * (x * y), c2 * (x * z), c2 * (y * z)
    cx, cy, cz = c1 * x, c1 * y, c1 * z
    xx, yy, zz = x * x, y * y, z * z
    return [c0 - c2 * (yy + zz), xy - cz, xz + cy,
            xy + cz, c0 - c2 * (xx + zz), yz - cx,
            xz - cy, yz + cx, c0 - c2 * (xx + yy)]


def exp_so3(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula for the SO(3) exponential of the vee vector v.

    v may be one (3,) vector or a stack (k, 3); the result has shape (3, 3)
    or (k, 3, 3).  A stack is built with one array conversion.
    """
    if v.ndim == 1:      # every gyro step of both filters: no extra call
        x, y, z = v.tolist()
        c1, c2 = _exp_coefficients(math.sqrt(x * x + y * y + z * z))
        return np.array(_rodrigues(x, y, z, c1, c2)).reshape(3, 3)
    entries = []
    for x, y, z in v.tolist():
        entries += _exp_entries(x, y, z)
    return np.array(entries).reshape(-1, 3, 3)


def _exp_entries(x: float, y: float, z: float) -> list[float]:
    """Row-major entries of exp_so3((x, y, z)), for a caller that assembles
    many exponentials into one array."""
    c1, c2 = _exp_coefficients(math.sqrt(x * x + y * y + z * z))
    return _rodrigues(x, y, z, c1, c2)


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
    x, y, z = v.tolist()
    j1, j2 = _jl_coefficients(math.sqrt(x * x + y * y + z * z))
    return np.array(_rodrigues(x, y, z, j1, j2)).reshape(3, 3)


def exp_sdp(omega: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential of [[wedge(omega), v], [0, 0]] restricted to its (rotation,
    translation-column) blocks: (exp_so3(omega), J_l(omega) @ v).

    The rotation equals exp_so3(omega); the vector matches
    left_jacobian(omega) @ v to rounding.
    """
    entries = _sdp_entries(*omega.tolist(), *v.tolist())
    return np.array(entries[:9]).reshape(3, 3), np.array(entries[9:])


def _sdp_entries(x: float, y: float, z: float, vx: float, vy: float, vz: float
                 ) -> list[float]:
    """The 9 row-major entries of exp_so3((x, y, z)), then the 3 of
    J_l((x, y, z)) (vx, vy, vz): :func:`exp_sdp` on floats."""
    angle = math.sqrt(x * x + y * y + z * z)
    c1, c2 = _exp_coefficients(angle)
    j1, j2 = _jl_coefficients(angle)
    # J_l v = v + j1 (omega x v) + j2 omega x (omega x v)
    kx, ky, kz = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
    qx, qy, qz = y * kz - z * ky, z * kx - x * kz, x * ky - y * kx
    return _rodrigues(x, y, z, c1, c2) + [vx + j1 * kx + j2 * qx, vy + j1 * ky + j2 * qy,
                                          vz + j1 * kz + j2 * qz]


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation to m in Frobenius norm (orthogonal polar factor).

    m may be one (3, 3) matrix or a stack (..., 3, 3), projected with one
    batched SVD.  The sign fix multiplies the last column of U by
    det(U V^T), which is U diag(1, 1, det(U V^T)) entry for entry.
    """
    if np.any(np.linalg.det(m) <= 1e-12):
        raise DegenerateError("matrix determinant is not positive")
    u, _, vt = np.linalg.svd(m)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def is_rotation(m: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> bool:
    """True when m is orthonormal (Frobenius) and det m = +1 within tol."""
    if m.shape != (3, 3):
        return False
    if np.linalg.norm(m.T @ m - np.eye(3)) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol
