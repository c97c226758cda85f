"""Equivariant filter: lifted mean propagation, closed-form covariance
discretization and the equivariant update.

The filter state is a symmetry-group element Xhat (initialized at the group
identity) plus the error covariance Sigma in exponential coordinates around
the identity-state origin, ordered (att, bias, cal_1, .., cal_n).

The state estimate itself is recovered as phi_Xhat(identity state), see
:func:`abc_eqf.symmetry.state_from_group`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lie import exp_sdp, exp_so3, project_to_so3, wedge
from .symmetry import GroupElement, group_identity

logger = logging.getLogger(__name__)

RESIDUAL_SUBTRACT = "subtract"
RESIDUAL_LITERAL = "literal"
MD_ANALYTIC = "analytic"
MD_FIRST_ORDER = "first-order"

# Every rotation inside the filter state is re-projected to SO(3) every
# REPROJECT_EVERY propagation steps.  In between, each step and update
# composes a factor with an exponential, which is a rotation to rounding, so
# the drift stays at rounding level.  The IEKF shares this schedule.
REPROJECT_EVERY = 1000

S_CONDITION_LIMIT = 1e12

_PHI_SERIES_ANGLE = 1e-4
_MD_SERIES_ANGLE = 0.1


class BadDimensionError(ValueError):
    """Raised on covariance / layout dimension mismatches."""


class NonPositiveDtError(ValueError):
    """Raised when a propagation step is requested with dt <= 0."""


@dataclass
class NoiseConfig:
    """Continuous-time noise densities driving the filter gains.

    sigma_w     gyro white noise density [rad/sqrt(s)]
    sigma_bw    bias random walk density [rad/(s sqrt(s))]
    sigma_kappa calibration pseudo-noise density [rad/sqrt(s)], a tuning
                parameter (not a physical noise source)
    """

    sigma_w: float
    sigma_bw: float
    sigma_kappa: float = 1e-4

    def __post_init__(self) -> None:
        if min(self.sigma_w, self.sigma_bw, self.sigma_kappa) < 0.0:
            raise ValueError("noise densities must be non-negative")


@dataclass
class SensorModel:
    """One direction sensor.

    reference is the fixed known direction (unit vector) for magnetometer-like
    sensors, or None when the reference arrives with each measurement
    (GNSS-baseline style).  cal_index is assigned by validate_layout().
    """

    sensor_id: str
    calibrated: bool
    sigma_y: float
    reference: np.ndarray | None = None
    cal_index: int | None = None


@dataclass
class DirectionMeasurement:
    """A unit direction observation; reference present for time-varying-reference sensors."""

    t: float
    sensor_id: str
    y: np.ndarray
    reference: np.ndarray | None = None


@dataclass
class FilterState:
    """Group estimate, covariance in local coordinates, and filter time."""

    xhat: GroupElement
    sigma: np.ndarray
    t: float
    steps: int = 0


def validate_layout(sensors: list[SensorModel]) -> int:
    """Check the calibrated-first ordering, assign cal indices, return n."""
    n = sum(1 for s in sensors if s.calibrated)
    for i, s in enumerate(sensors):
        if s.calibrated != (i < n):
            raise BadDimensionError("calibrated sensors must precede uncalibrated ones")
        s.cal_index = i if s.calibrated else None
        if s.reference is not None:
            norm = np.linalg.norm(s.reference)
            if abs(norm - 1.0) > 1e-6:
                raise BadDimensionError(f"sensor {s.sensor_id}: reference must be unit norm")
    return n


def eqf_init(n: int, sensors: list[SensorModel], noise: NoiseConfig,
             sigma0: np.ndarray, t0: float = 0.0) -> FilterState:
    """Filter at the group identity with the given initial covariance."""
    if validate_layout(sensors) != n:
        raise BadDimensionError("sensor layout does not provide n calibration states")
    return FilterState(group_identity(n), _check_sigma0(sigma0, n).copy(), t0)


def _check_sigma0(sigma0: np.ndarray, n: int) -> np.ndarray:
    """sigma0 as a float array, checked to be a symmetric PSD (6+3n)x(6+3n)
    matrix; shared by the EqF and IEKF initializations."""
    dim = 6 + 3 * n
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.shape != (dim, dim):
        raise BadDimensionError(f"sigma0 must be {dim}x{dim}")
    if np.max(np.abs(sigma0 - sigma0.T)) > 1e-9:
        raise BadDimensionError("sigma0 must be symmetric")
    if np.min(np.linalg.eigvalsh(sigma0)) < -1e-9 * max(np.trace(sigma0), 1.0):
        raise BadDimensionError("sigma0 must be positive semi-definite")
    return sigma0


def compute_A0(omega0: np.ndarray, n: int) -> np.ndarray:
    """Linearized error-state matrix at the origin for origin input omega0."""
    dim = 6 + 3 * n
    a = np.zeros((dim, dim))
    w = wedge(omega0)
    a[0:3, 3:6] = -np.eye(3)
    a[3:6, 3:6] = w
    for i in range(n):
        j = 6 + 3 * i
        a[j:j + 3, j:j + 3] = w
    return a


def compute_C0(sensors: list[SensorModel], refs: np.ndarray, n: int) -> np.ndarray:
    """Linearized output matrix, one 3-row block per sensor in the given order.

    refs holds the current reference direction of each listed sensor.  For a
    calibrated sensor the reference skew appears in the attitude block and in
    its own calibration block; for an uncalibrated sensor only in the attitude
    block.
    """
    refs = np.asarray(refs, dtype=float)
    dim = 6 + 3 * n
    c = np.zeros((3 * len(sensors), dim))
    for k, sensor in enumerate(sensors):
        d = wedge(refs[k])
        c[3 * k: 3 * k + 3, 0:3] = d
        if sensor.calibrated:
            j = 6 + 3 * sensor.cal_index
            c[3 * k: 3 * k + 3, j:j + 3] = d
    return c


def compute_phi(omega0: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Closed-form state transition matrix exp(A0 dt), from :func:`phi_and_md`.

    Exact trigonometric coefficients; below ||omega0|| dt = 1e-4 the
    polynomial small-angle limit is used instead.
    """
    return phi_and_md(omega0, dt, NoiseConfig(0.0, 0.0, 0.0), n)[0]


def compute_Md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int,
               mode: str = MD_ANALYTIC) -> np.ndarray:
    """Discrete process noise: the integral of Phi(s) M_c Phi(s)^T over the
    step, from :func:`phi_and_md`.

    The analytic mode evaluates the integral in closed form (the rotation
    blocks of Phi are orthogonal, so the bias and calibration blocks are
    exactly sigma^2 dt I).  The first-order mode returns M_c dt.

    With the isotropic per-block input covariance used here, conjugating M_c
    by the rotation block-diagonal (see :func:`eqf_B0`) is an exact identity,
    so the densities enter the closed form directly.
    """
    return phi_and_md(omega0, dt, noise, n, mode)[1]


_IDX_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _block_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached flat-index templates for the nonzero 3x3 blocks of Phi and Md."""
    cached = _IDX_CACHE.get(dim)
    if cached is None:
        def block(r0, c0):
            return [(r0 + r) * dim + c0 + c for r in range(3) for c in range(3)]

        phi_idx = block(0, 3)
        for j in range(3, dim, 3):
            phi_idx += block(j, j)
        md_idx = block(0, 0) + block(0, 3) + block(3, 0)
        cached = (np.array(phi_idx), np.array(md_idx))
        _IDX_CACHE[dim] = cached
    return cached


def phi_and_md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int,
               md_mode: str = MD_ANALYTIC) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix exp(A0 dt) and discrete process noise of one step.

    The only implementation of both formulas: the two share the skew powers
    and trig evaluations, and the blocks are written in place, as this is the
    hot path of the propagation loop.
    """
    if dt <= 0.0:
        raise NonPositiveDtError("dt must be positive")
    dim = 6 + 3 * n
    x, y, z = omega0
    # W^2 = omega omega^T - |omega|^2 I, all entries in scalar form
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    q00, q11, q22 = -(yy + zz), -(xx + zz), -(xx + yy)
    norm = math.sqrt(xx + yy + zz)
    theta = norm * dt

    if theta < _PHI_SERIES_ANGLE:
        # Small-angle polynomial limit; the Md series branch below always
        # triggers too (its threshold is larger), so sin_t/cos_t stay unused.
        psi1 = dt * dt / 2.0
        psi2 = dt ** 3 / 6.0
        psi3 = dt
        sin_t = cos_t = 0.0
    else:
        sin_t = math.sin(theta)
        cos_t = math.cos(theta)
        psi1 = (1.0 - cos_t) / (norm * norm)
        psi2 = (theta - sin_t) / (norm ** 3)
        psi3 = sin_t / norm

    # Phi_12 = -(dt I + psi1 W + psi2 W^2), Phi_22 = I + psi3 W + psi1 W^2
    # (the latter repeated for the bias and every calibration block)
    p1 = psi1 * xy
    p2 = psi2 * xy
    block22 = [1.0 + psi1 * q00, -psi3 * z + p1, psi3 * y + psi1 * xz,
               psi3 * z + p1, 1.0 + psi1 * q11, -psi3 * x + psi1 * yz,
               -psi3 * y + psi1 * xz, psi3 * x + psi1 * yz, 1.0 + psi1 * q22]
    phi = np.zeros(dim * dim)
    phi[0:3 * dim + 3:dim + 1] = 1.0
    phi_idx, md_idx = _block_indices(dim)
    phi[phi_idx] = [-(dt + psi2 * q00), -(-psi1 * z + p2), -(psi1 * y + psi2 * xz),
                    -(psi1 * z + p2), -(dt + psi2 * q11), -(-psi1 * x + psi2 * yz),
                    -(-psi1 * y + psi2 * xz), -(psi1 * x + psi2 * yz),
                    -(dt + psi2 * q22)] + block22 * (n + 1)
    phi = phi.reshape(dim, dim)

    sw2 = noise.sigma_w ** 2
    st2 = noise.sigma_bw ** 2
    sk2 = noise.sigma_kappa ** 2
    md = np.zeros(dim * dim)
    md[3 * (dim + 1):6 * dim + 6:dim + 1] = st2 * dt
    md[6 * (dim + 1)::dim + 1] = sk2 * dt
    if md_mode == MD_FIRST_ORDER:
        md[0:3 * dim + 3:dim + 1] = sw2 * dt
        return phi, md.reshape(dim, dim)
    if md_mode != MD_ANALYTIC:
        raise ValueError(f"unknown md mode: {md_mode!r}")

    if theta < _MD_SERIES_ANGLE:
        t2 = theta * theta
        c11 = dt ** 5 * (1.0 / 60.0 - t2 / 2520.0 + t2 * t2 / 181440.0)
        c12a = dt ** 3 * (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0)
        c12b = dt ** 4 * (1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0)
    else:
        c11 = (theta ** 3 / 3.0 + 2.0 * sin_t - 2.0 * theta) / norm ** 5
        c12a = (theta - sin_t) / norm ** 3
        c12b = (theta * theta / 2.0 + cos_t - 1.0) / norm ** 4
    # Md_11 = (sw2 dt + st2 dt^3/3) I + st2 c11 W^2,
    # Md_12 = -st2 dt^2/2 I + st2 c12a W - st2 c12b W^2 (transpose mirrored)
    alpha = sw2 * dt + st2 * dt ** 3 / 3.0
    b11 = st2 * c11
    gamma = st2 * dt * dt / 2.0
    ca = st2 * c12a
    cb = st2 * c12b
    m11 = [alpha + b11 * q00, b11 * xy, b11 * xz,
           b11 * xy, alpha + b11 * q11, b11 * yz,
           b11 * xz, b11 * yz, alpha + b11 * q22]
    m12 = [-gamma - cb * q00, -ca * z - cb * xy, ca * y - cb * xz,
           ca * z - cb * xy, -gamma - cb * q11, -ca * x - cb * yz,
           -ca * y - cb * xz, ca * x - cb * yz, -gamma - cb * q22]
    m21 = [m12[0], m12[3], m12[6], m12[1], m12[4], m12[7], m12[2], m12[5], m12[8]]
    md[md_idx] = m11 + m12 + m21
    return phi, md.reshape(dim, dim)


def eqf_B0(xhat: GroupElement) -> np.ndarray:
    """Input-noise adaptation matrix blkdiag(Ahat, Ahat, Bhat_1, .., Bhat_n)."""
    dim = 6 + 3 * xhat.n
    b = np.zeros((dim, dim))
    b[0:3, 0:3] = xhat.A
    b[3:6, 3:6] = xhat.A
    for i, rot in enumerate(xhat.B):
        j = 6 + 3 * i
        b[j:j + 3, j:j + 3] = rot
    return b


def eqf_D0(xhat: GroupElement, sensors: list[SensorModel]) -> np.ndarray:
    """Output-noise adaptation matrix, one rotation block per listed sensor."""
    dim = 3 * len(sensors)
    d = np.zeros((dim, dim))
    for k, sensor in enumerate(sensors):
        rot = xhat.B[sensor.cal_index] if sensor.calibrated else xhat.A
        d[3 * k: 3 * k + 3, 3 * k: 3 * k + 3] = rot
    return d


def sigma_u(noise: NoiseConfig, n: int) -> np.ndarray:
    """Continuous input covariance diag(sigma_w^2, sigma_bw^2, sigma_kappa^2 ...)."""
    return np.diag([noise.sigma_w ** 2] * 3 + [noise.sigma_bw ** 2] * 3
                   + [noise.sigma_kappa ** 2] * 3 * n)


def _reproject(x: GroupElement) -> GroupElement:
    return GroupElement(project_to_so3(x.A), x.a.copy(),
                        [project_to_so3(b) for b in x.B])


def propagate_mean(x: GroupElement, omega: np.ndarray, dt: float
                   ) -> tuple[GroupElement, np.ndarray]:
    """Lie-group integration of the lifted mean over one gyro interval.

    Returns the propagated group element and the origin input
    omega0 = Ahat omega + ahat that parameterizes the covariance step.
    """
    omega0 = x.A @ omega + x.a
    # Nav part right-multiplied by exp of the lifted velocity; A^T omega0 is
    # the rotation rate seen at the origin, omega x (A^T a) its vector part.
    rot_e, vec_e = exp_sdp((x.A.T @ omega0) * dt, np.cross(omega, x.A.T @ x.a) * dt)
    xhat = GroupElement(
        x.A @ rot_e,
        x.a + x.A @ vec_e,
        [b @ exp_so3((b.T @ omega0) * dt) for b in x.B],
    )
    return xhat, omega0


def eqf_propagate(fs: FilterState, omega: np.ndarray, dt: float,
                  noise: NoiseConfig, md_mode: str = MD_ANALYTIC) -> FilterState:
    """One gyro step: Lie-group mean integration plus discrete Riccati update."""
    if dt <= 0.0:
        raise NonPositiveDtError("dt must be positive")
    n = fs.xhat.n
    xhat, omega0 = propagate_mean(fs.xhat, omega, dt)

    phi, md = phi_and_md(omega0, dt, noise, n, md_mode)
    sigma = phi @ fs.sigma @ phi.T + md
    sigma = 0.5 * (sigma + sigma.T)

    steps = fs.steps + 1
    if steps % REPROJECT_EVERY == 0:
        xhat = _reproject(xhat)
    return FilterState(xhat, sigma, fs.t + dt, steps)


def _measured_sensors(meas: list[DirectionMeasurement],
                      sensors: list[SensorModel]) -> tuple[list[SensorModel], np.ndarray]:
    by_id = {s.sensor_id: s for s in sensors}
    used = []
    refs = np.empty((len(meas), 3))
    for k, m in enumerate(meas):
        sensor = by_id[m.sensor_id]
        used.append(sensor)
        ref = m.reference if sensor.reference is None else sensor.reference
        if ref is None:
            raise BadDimensionError(f"sensor {m.sensor_id}: measurement carries no reference")
        refs[k] = ref
    return used, refs


def _kalman_step(sigma: np.ndarray, h: np.ndarray, noise_cov: np.ndarray, t: float,
                 joseph: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """Gain and symmetrized updated covariance for output matrix h.

    Returns None, with a warning, when the innovation covariance S is
    non-finite, not positive definite or has cond(S) > S_CONDITION_LIMIT.  S
    is symmetric, so cond(S) is the ratio of its extreme eigenvalues; the
    finite check comes first, as eigvalsh does not report NaN.
    """
    sht = sigma @ h.T
    s_mat = h @ sht + noise_cov
    cond = math.nan
    if np.isfinite(s_mat).all():
        eig = np.linalg.eigvalsh(s_mat)
        cond = eig[-1] / eig[0] if eig[0] > 0.0 else math.inf
    if not cond <= S_CONDITION_LIMIT:
        logger.warning("update at t=%.6f skipped: S condition number %.3e", t, cond)
        return None
    gain = np.linalg.solve(s_mat, sht.T).T
    if joseph:
        ikh = np.eye(sigma.shape[0]) - gain @ h
        sigma = ikh @ sigma @ ikh.T + gain @ noise_cov @ gain.T
    else:
        sigma = sigma - gain @ h @ sigma
    return gain, 0.5 * (sigma + sigma.T)


def eqf_update(fs: FilterState, meas: list[DirectionMeasurement],
               sensors: list[SensorModel], residual_mode: str = RESIDUAL_SUBTRACT,
               joseph: bool = False, slack: float = 0.05) -> FilterState:
    """Equivariant update from one or more simultaneous direction measurements.

    The equivariant residual of measurement y is Bhat_i y (calibrated sensor)
    or Ahat y; in the default residual mode the reference direction is
    subtracted so a perfect measurement leaves the state unchanged.  The
    scaled innovation r enters the group multiplicatively with the index
    arithmetic of the exponential chart at the identity origin: the nav part
    is exp of (r_att, -r_bias), calibration i is exp of (r_cal_i + r_att).

    An innovation covariance S that is non-finite, not positive definite or
    ill-conditioned (condition number beyond 1e12) skips the update with a
    warning instead of corrupting the state; the input state is returned.
    """
    if not meas:
        return fs
    for m in meas:
        if m.t > fs.t + slack:
            raise ValueError(f"measurement at t={m.t} is ahead of the filter time {fs.t}")
    x = fs.xhat
    n = x.n
    used, refs = _measured_sensors(meas, sensors)

    c0 = compute_C0(used, refs, n)
    d0 = eqf_D0(x, used)
    sig_y = np.repeat([s.sigma_y ** 2 for s in used], 3)
    noise_cov = d0 @ np.diag(sig_y) @ d0.T

    step = _kalman_step(fs.sigma, c0, noise_cov, fs.t, joseph)
    if step is None:
        return fs
    gain, sigma = step

    r_raw = np.empty(3 * len(meas))
    for k, (m, sensor) in enumerate(zip(meas, used)):
        rot = x.B[sensor.cal_index] if sensor.calibrated else x.A
        res = rot @ m.y
        if residual_mode == RESIDUAL_SUBTRACT:
            res = res - refs[k]
        elif residual_mode != RESIDUAL_LITERAL:
            raise ValueError(f"unknown residual mode: {residual_mode!r}")
        r_raw[3 * k: 3 * k + 3] = res
    r = gain @ r_raw

    rot_e, vec_e = exp_sdp(r[0:3], -r[3:6])
    a_new = rot_e @ x.A
    avec_new = rot_e @ x.a + vec_e
    b_new = [exp_so3(r[6 + 3 * i: 9 + 3 * i] + r[0:3]) @ b for i, b in enumerate(x.B)]
    return FilterState(GroupElement(a_new, avec_new, b_new), sigma, fs.t, fs.steps)
