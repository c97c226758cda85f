"""Equivariant filter: lifted mean propagation, closed-form covariance
discretization and the equivariant update.

The filter state is a symmetry-group element Xhat (initialized at the group
identity) plus the error covariance Sigma in exponential coordinates around
the identity-state origin, ordered (att, bias, cal_1, .., cal_n).

One gyro step evaluates one exponential, E = exp(v) with v = omega0 dt and
omega0 = Ahat omega + ahat the origin input.  The mean step moves every
factor by left multiplication with E, and E is also the rotation block of
the transition matrix Phi, whose bias-to-attitude block is -dt J_l(v).

The state estimate itself is recovered as phi_Xhat(identity state), see
:func:`abc_eqf.symmetry.state_from_group`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lie import (
    _exp_coefficients,
    _jl_coefficients,
    _rodrigues,
    exp_so3,
    project_to_so3,
    wedge,
)
from .symmetry import AlgebraElement, GroupElement, group_exp, group_identity, group_mul

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

# A measurement may be stamped at most this far [s] after the filter time.
MEASUREMENT_SLACK = 0.05

S_CONDITION_LIMIT = 1e12

_MAX_STEP_TURN_SQ = math.pi ** 2     # a gyro step may turn at most pi
_MD_SERIES_ANGLE = 0.1


class BadDimensionError(ValueError):
    """Raised on covariance / layout dimension mismatches."""


class NonPositiveDtError(ValueError):
    """Raised when a propagation step is requested with dt <= 0."""


class NonFiniteInputError(ValueError):
    """Raised when a propagation step gets a non-finite dt or gyro sample, or
    an initialization a non-finite sigma0."""


class UnknownSensorError(ValueError):
    """Raised when a measurement names a sensor the filter was not given."""


class InputRangeError(ValueError):
    """Raised on a gyro step turning more than pi or a non-unit direction."""


class NonFiniteEstimateError(ArithmeticError):
    """Raised when a filter's estimate or covariance is not finite."""


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
        # NaN fails every comparison, so test for the valid range, not against
        # it; the filter squares every density, so the square must be finite
        if not all(0.0 <= v and v * v < math.inf
                   for v in map(float, (self.sigma_w, self.sigma_bw, self.sigma_kappa))):
            raise ValueError("noise densities must be finite and non-negative, "
                             "with a finite square")


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
        if s.reference is not None and not _is_unit(np.asarray(s.reference, dtype=float).tolist()):
            raise BadDimensionError(f"sensor {s.sensor_id}: reference must be unit norm")
    return n


def _is_unit(v: list[float]) -> bool:
    """|v| = 1 within 1e-6 for the components v; False for a non-finite v."""
    return abs(math.hypot(*v) - 1.0) <= 1e-6


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
    if not np.all(np.isfinite(sigma0)):
        raise NonFiniteInputError("sigma0 must be finite")
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
    for j in range(3, dim, 3):      # the bias block and every calibration block
        a[j:j + 3, j:j + 3] = w
    return a


def compute_C0(sensors: list[SensorModel], refs, n: int) -> np.ndarray:
    """Linearized output matrix, one 3-row block per sensor in the given order.

    refs holds the current reference direction (x, y, z) of each listed
    sensor, as rows of an array or as float triples.  For a calibrated sensor
    the reference skew wedge(d) appears in the attitude block and in its own
    calibration block; for an uncalibrated sensor only in the attitude block.
    The entries are placed in one flat list and converted once.
    """
    dim = 6 + 3 * n
    c = [0.0] * (3 * len(sensors) * dim)
    for k, (sensor, (x, y, z)) in enumerate(zip(sensors, refs, strict=True)):
        for j in (0, 6 + 3 * sensor.cal_index) if sensor.calibrated else (0,):
            i = 3 * k * dim + j     # the block's top-left entry
            c[i + 1], c[i + 2] = -z, y
            c[i + dim], c[i + dim + 2] = z, -x
            c[i + 2 * dim], c[i + 2 * dim + 1] = -y, x
    return np.array(c, dtype=float).reshape(3 * len(sensors), dim)


def compute_phi(omega0: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Closed-form state transition matrix exp(A0 dt), from :func:`phi_and_md`."""
    return phi_and_md(omega0, dt, NoiseConfig(0.0, 0.0, 0.0), n)[0]


def compute_Md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int,
               mode: str = MD_ANALYTIC) -> np.ndarray:
    """Discrete process noise: the integral of Phi(s) M_c Phi(s)^T over the
    step, from :func:`phi_and_md`.

    The analytic mode evaluates the integral in closed form (the rotation
    blocks of Phi are orthogonal, so the bias and calibration blocks are
    exactly sigma^2 dt I).  The first-order mode returns M_c dt.

    M_c is sigma^2 I on every 3-block, so the EqF's input-noise adaptation,
    a conjugation by blkdiag(Ahat, Ahat, Bhat_1, .., Bhat_n), returns it
    unchanged and is not applied.
    """
    return phi_and_md(omega0, dt, noise, n, mode)[1]


# Layout of the value vector that phi_and_md gathers Phi and Md from: four
# row-major 3x3 blocks, then the scalar entries.
_PHI12, _PHI22, _M11, _M12 = 0, 9, 18, 27
_ZERO, _ONE, _BIAS, _CAL, _ATT = 36, 37, 38, 39, 40

_GATHER_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _gather_index(dim: int, md_mode: str) -> np.ndarray:
    """Cached (2, dim, dim) index of every entry of Phi and Md into the value
    vector of :func:`phi_and_md`."""
    idx = _GATHER_CACHE.get((dim, md_mode))
    if idx is None:
        if md_mode not in (MD_ANALYTIC, MD_FIRST_ORDER):
            raise ValueError(f"unknown md mode: {md_mode!r}")
        block = np.arange(9).reshape(3, 3)
        diag = np.arange(dim)
        idx = np.full((2, dim, dim), _ZERO)
        phi, md = idx
        phi[diag[:3], diag[:3]] = _ONE
        phi[0:3, 3:6] = _PHI12 + block
        for j in range(3, dim, 3):
            phi[j:j + 3, j:j + 3] = _PHI22 + block
        md[diag[3:6], diag[3:6]] = _BIAS
        md[diag[6:], diag[6:]] = _CAL
        if md_mode == MD_FIRST_ORDER:
            md[diag[:3], diag[:3]] = _ATT
        else:
            md[0:3, 0:3] = _M11 + block
            md[0:3, 3:6] = _M12 + block
            md[3:6, 0:3] = _M12 + block.T
        _GATHER_CACHE[(dim, md_mode)] = idx
    return idx


def phi_and_md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int,
               md_mode: str = MD_ANALYTIC) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix exp(A0 dt) and discrete process noise of one step.

    The only implementation of both formulas.  With v = omega0 dt, every
    rotation block of Phi is E = exp(v) and the bias-to-attitude block is
    -dt J_l(v), both from lie's Rodrigues coefficients of |v|: the same
    scalars in the same order as the exponential of :func:`propagate_mean`,
    so Phi's rotation blocks are bit-equal to the E that moves the mean.  Md
    has its own coefficients.  This is the hot path of the propagation loop,
    so the nonzero entries are computed as scalars by :func:`_phi_md_values`
    and both matrices are gathered from them with one cached index.
    """
    if dt <= 0.0:
        raise NonPositiveDtError("dt must be positive")
    idx = _gather_index(6 + 3 * n, md_mode)
    phi, md = np.array(_phi_md_values(*omega0.tolist(), dt, noise))[idx]
    return phi, md


def _phi_md_values(x: float, y: float, z: float, dt: float, noise: NoiseConfig
                   ) -> list[float]:
    """The value vector of :func:`phi_and_md` for origin input (x, y, z):
    the blocks -dt J_l(v) and E = exp(v) of Phi and Md_11, Md_12 of Md,
    row-major, then the scalar entries (see _gather_index)."""
    vx, vy, vz = x * dt, y * dt, z * dt
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    phi22 = _rodrigues(vx, vy, vz, *_exp_coefficients(angle))
    j1, j2 = _jl_coefficients(angle)
    phi12 = _rodrigues(vx, vy, vz, -dt * j1, -dt * j2, -dt)

    # W^2 = omega omega^T - |omega|^2 I, all entries in scalar form
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    q00, q11, q22 = -(yy + zz), -(xx + zz), -(xx + yy)
    norm = math.sqrt(xx + yy + zz)
    theta = norm * dt
    if theta < _MD_SERIES_ANGLE:
        t2 = theta * theta
        c11 = dt ** 5 * (1.0 / 60.0 - t2 / 2520.0 + t2 * t2 / 181440.0)
        c12a = dt ** 3 * (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0)
        c12b = dt ** 4 * (1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0)
    else:
        sin_t = math.sin(theta)
        c11 = (theta ** 3 / 3.0 + 2.0 * sin_t - 2.0 * theta) / norm ** 5
        c12a = (theta - sin_t) / norm ** 3
        c12b = (theta * theta / 2.0 + math.cos(theta) - 1.0) / norm ** 4

    sw2 = noise.sigma_w ** 2
    st2 = noise.sigma_bw ** 2
    sk2 = noise.sigma_kappa ** 2
    # Md_11 = (sw2 dt + st2 dt^3/3) I + st2 c11 W^2,
    # Md_12 = -st2 dt^2/2 I + st2 c12a W - st2 c12b W^2, Md_21 = Md_12^T
    # (in first-order mode Md_11 is sw2 dt I and Md_12 zero, see _gather_index)
    alpha = sw2 * dt + st2 * dt ** 3 / 3.0
    b11 = st2 * c11
    gamma = st2 * dt * dt / 2.0
    ca = st2 * c12a
    cb = st2 * c12b
    return phi12 + phi22 + [
        alpha + b11 * q00, b11 * xy, b11 * xz,
        b11 * xy, alpha + b11 * q11, b11 * yz,
        b11 * xz, b11 * yz, alpha + b11 * q22,
        -gamma - cb * q00, -ca * z - cb * xy, ca * y - cb * xz,
        ca * z - cb * xy, -gamma - cb * q11, -ca * x - cb * yz,
        -ca * y - cb * xz, ca * x - cb * yz, -gamma - cb * q22,
        0.0, 1.0, st2 * dt, sk2 * dt, sw2 * dt]


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

    The lifted velocity at Xhat right-multiplies each rotation factor R by
    exp(R^T v), v = omega0 dt, and R exp(R^T v) = exp(v) R: one exponential
    E = exp(v) moves every factor, Ahat+ = E Ahat and Bhat_i+ = E Bhat_i.
    The vector factor gains Ahat J_l(Ahat^T v) (omega x Ahat^T ahat) dt
    = J_l(v) (v x ahat), as Ahat (omega x Ahat^T ahat) = omega0 x ahat, and
    ahat + J_l(v) (v x ahat) = E ahat.  So the step left-multiplies Xhat by
    ((E, 0), E, .., E).
    """
    omega0 = x.A.dot(omega) + x.a
    e = exp_so3(omega0 * dt)
    return GroupElement(e.dot(x.A), e.dot(x.a), [e.dot(b) for b in x.B]), omega0


def _check_step(omega: np.ndarray, dt: float, t: float) -> float:
    """dt as a float, after rejecting a non-finite dt or gyro sample
    (NonFiniteInputError), dt <= 0 (NonPositiveDtError) and a step turning
    more than pi, overflow included (InputRangeError); t is the filter time
    the step starts from.  A valid step passes one scalar test, which NaN
    and inf fail too.  Shared by both filters' propagations.
    """
    dt = float(dt)
    x, y, z = omega.tolist()
    if not (dt > 0.0 and (x * x + y * y + z * z) * dt * dt <= _MAX_STEP_TURN_SQ):
        if not (math.isfinite(dt) and math.isfinite(x) and math.isfinite(y)
                and math.isfinite(z)):
            raise NonFiniteInputError(f"propagation from filter time t={t}: non-finite "
                                      f"input, dt={dt}, omega=({x}, {y}, {z})")
        if dt <= 0.0:
            raise NonPositiveDtError(f"propagation from filter time t={t}: dt={dt} must be positive")
        raise InputRangeError(f"gyro sample at t={t + dt}: omega=({x}, {y}, {z}) "
                              f"turns more than pi in dt={dt}")
    return dt


def eqf_propagate(fs: FilterState, omega: np.ndarray, dt: float,
                  noise: NoiseConfig, md_mode: str = MD_ANALYTIC) -> FilterState:
    """One gyro step: Lie-group mean integration plus discrete Riccati update."""
    dt = _check_step(omega, dt, fs.t)
    x = fs.xhat
    omega0 = x.A.dot(omega) + x.a
    phi, md = phi_and_md(omega0, dt, noise, x.n, md_mode)
    # Phi's bias block is E = exp(omega0 dt), the factor that moves the mean
    # (see propagate_mean)
    e = phi[3:6, 3:6]
    xhat = GroupElement(e.dot(x.A), e.dot(x.a), [e.dot(b) for b in x.B])
    sigma = phi.dot(fs.sigma).dot(phi.T) + md
    sigma = 0.5 * (sigma + sigma.T)

    steps = fs.steps + 1
    if steps % REPROJECT_EVERY == 0:
        xhat = _reproject(xhat)
    return FilterState(xhat, sigma, fs.t + dt, steps)


def _measured_sensors(meas: list[DirectionMeasurement], sensors: list[SensorModel],
                      t: float) -> tuple[list[SensorModel], list[list[float]], list[float]]:
    """Sensor, reference direction (a float triple) and output noise
    variances of each measurement, the variance sigma_y^2 once per row.

    Each direction noise is isotropic, so the output-noise adaptation of
    either filter, a rotation of each 3-block, returns sigma_y^2 I unchanged
    and is not applied.  A measurement stamped more than MEASUREMENT_SLACK
    after t raises ValueError, one from a sensor missing from sensors
    UnknownSensorError, a non-unit direction or arriving reference
    InputRangeError; a sensor list that never went through
    :func:`validate_layout` is validated here.
    """
    by_id = {s.sensor_id: s for s in sensors}
    used, refs, var = [], [], []
    for m in meas:
        if m.t > t + MEASUREMENT_SLACK:
            raise ValueError(f"measurement at t={m.t} is ahead of the filter time {t}")
        sensor = by_id.get(m.sensor_id)
        if sensor is None:
            raise UnknownSensorError(
                f"measurement at t={m.t} names sensor {m.sensor_id!r}, not one of the "
                f"configured sensors {list(by_id)} (filter time t={t})")
        if sensor.calibrated and sensor.cal_index is None:
            validate_layout(sensors)
        fixed = sensor.reference is not None
        ref = sensor.reference if fixed else m.reference
        if ref is None:
            raise BadDimensionError(f"sensor {m.sensor_id}: measurement carries no reference")
        ref = ref.tolist()
        if not (_is_unit(m.y.tolist()) and (fixed or _is_unit(ref))):
            raise InputRangeError(
                f"measurement at t={m.t} from sensor {m.sensor_id!r}: direction or "
                f"reference is not a unit vector (filter time t={t})")
        used.append(sensor)
        refs.append(ref)
        v = sensor.sigma_y ** 2
        var += (v, v, v)
    return used, refs, var


# Bound on tr S / min var under which _kalman accepts S without eigvalsh.
_CERTIFIED_TRACE_RATIO = 1e-2 * S_CONDITION_LIMIT


def _trace_bound(var) -> float:
    """The certificate's bound on tr S in :func:`_kalman` for the output noise
    variances var; NaN, which fails the certificate, unless all are positive."""
    var_min = min(var)
    return _CERTIFIED_TRACE_RATIO * var_min if var_min > 0.0 else math.nan


def _condition_number(s_mat: np.ndarray) -> float:
    """cond(S) of a symmetric S from eigvalsh: NaN for a non-finite S (eigvalsh
    does not report NaN, so that is tested first), inf when S is not
    positive definite."""
    if not np.isfinite(s_mat).all():
        return math.nan
    eig = np.linalg.eigvalsh(s_mat)
    return eig[-1] / eig[0] if eig[0] > 0.0 else math.inf


def _kalman(sigma: np.ndarray, h: np.ndarray, residual: np.ndarray, var, bound: float,
            t: float, names=("",)):
    """The Kalman step of every update, library and batch: correction K r and
    symmetrized updated covariance for covariances sigma (..., d, d), output
    matrices h (..., k, d), residuals (..., k) and the output noise variances
    var (k,) of every row, with bound = _trace_bound(var).

    Returns (keep, K r, sigma+).  keep is None when every row's S passes the
    condition rule.  Otherwise it is the mask of the rows that pass, the
    only ones K r and sigma+ then hold (both None when no row passes).

    S = H Sigma H^T + diag(var), var added to its diagonal in place.  A row
    is skipped, with a warning naming it by names (indexed by row, in the
    order of the leading dimensions), when its S is not positive definite or
    has cond(S) > S_CONDITION_LIMIT (:func:`_condition_number`); a
    non-finite S raises NonFiniteEstimateError, since no later update can
    recover it.

    A scalar certificate accepts S before that rule: the sum of its entries
    is finite (so is every entry), every variance is positive, and
    tr S <= 1e-2 S_CONDITION_LIMIT min var.  For a positive semi-definite
    H Sigma H^T, lambda_min(S) >= min var (Weyl) and lambda_max(S) <= tr S,
    so cond(S) <= 1e-2 S_CONDITION_LIMIT and the rule would accept S too.
    If the computed H Sigma H^T has an eigenvalue -delta < 0, the bound
    becomes (tr S + (m - 1) delta) / (min var - delta), still below the
    limit for every delta <= 0.9 min var; rounding leaves a symmetric PSD
    Sigma within about 1e-16 tr S <= 1e-6 min var of that, so the
    certificate cannot change a skip decision.  It is first tested for the
    whole stack, then, when that fails, row by row; every S it does not
    accept goes through the eigenvalue rule unchanged.

    On 2-D inputs the products use np.dot, the same BLAS call as np.matmul
    at about half its dispatch cost on matrices this small; S's entries are
    summed as Python floats, and K r is one matrix-vector dot.
    """
    single = sigma.ndim == 2
    dot = np.dot if single else np.matmul
    sht = dot(sigma, h.mT)
    s = dot(h, sht)
    m = s.shape[-1]
    flat = s.reshape(-1, m * m)
    diag = flat[:, ::m + 1]
    diag += var
    keep = None
    # sums and traces as floats: one conversion costs less than numpy's reductions
    total = sum(flat.tolist()[0]) if single else np.add.reduce(flat, axis=None)
    if not (math.isfinite(total) and max(map(sum, diag.tolist())) <= bound):
        keep = (np.isfinite(np.add.reduce(flat, axis=1))
                & (np.add.reduce(diag, axis=1) <= bound))
        for i in np.flatnonzero(~keep).tolist():
            cond = _condition_number(flat[i].reshape(m, m))
            if math.isnan(cond):
                raise NonFiniteEstimateError(f"{names[i]}update at t={t:.6f}: S is not finite")
            keep[i] = cond <= S_CONDITION_LIMIT
            if not keep[i]:
                logger.warning("%supdate at t=%.6f skipped: S condition number %.3e",
                               names[i], t, cond)
        keep = None if keep.all() else keep.reshape(s.shape[:-2])
        if keep is not None:
            if not keep.any():
                return keep, None, None
            sigma, sht, s, h, residual = sigma[keep], sht[keep], s[keep], h[keep], residual[keep]
    gain = np.linalg.solve(s, sht.mT).mT
    sigma = sigma - dot(dot(gain, h), sigma)
    correction = gain.dot(residual) if single else dot(gain, residual[..., None])[..., 0]
    return keep, correction, 0.5 * (sigma + sigma.mT)


def eqf_update(fs: FilterState, meas: list[DirectionMeasurement],
               sensors: list[SensorModel], residual_mode: str = RESIDUAL_SUBTRACT
               ) -> FilterState:
    """Equivariant update from one or more simultaneous direction measurements.

    The equivariant residual of measurement y is Bhat_i y (calibrated sensor)
    or Ahat y; in the default residual mode the reference direction is
    subtracted so a perfect measurement leaves the state unchanged.  The
    correction r from :func:`_kalman`, the Kalman step of every update path,
    here on 2-D arrays, enters as Xhat+ = exp(Delta) Xhat through
    :func:`group_exp` and :func:`group_mul`, with Delta from the exponential
    chart at the identity origin: nav part (r_att, -r_bias), calibration i
    r_cal_i + r_att.  When _kalman skips the update (a bad S), the input
    state is returned.
    """
    if not meas:
        return fs
    x = fs.xhat
    used, refs, var = _measured_sensors(meas, sensors, fs.t)
    rots = [x.B[s.cal_index] if s.calibrated else x.A for s in used]
    if len(meas) == 1:
        residual = rots[0].dot(meas[0].y)
        flat_refs = refs[0]
    else:
        residual = np.concatenate([rot.dot(m.y) for rot, m in zip(rots, meas)])
        flat_refs = [c for ref in refs for c in ref]
    if residual_mode == RESIDUAL_SUBTRACT:
        residual -= flat_refs
    elif residual_mode != RESIDUAL_LITERAL:
        raise ValueError(f"unknown residual mode: {residual_mode!r}")
    keep, r, sigma = _kalman(fs.sigma, compute_C0(used, refs, x.n), residual, var,
                             _trace_bound(var), fs.t)
    if keep is not None:
        return fs
    delta = AlgebraElement(r[0:3], -r[3:6], r[6:].reshape(-1, 3) + r[0:3])
    return FilterState(group_mul(group_exp(delta), x), sigma, fs.t, fs.steps)
