"""Equivariant filter: lifted mean propagation, closed-form covariance
discretization and the equivariant update, and the kernels that carry out
both filters' steps.

The filter state is a symmetry-group element Xhat (initialized at the group
identity) plus the error covariance Sigma in exponential coordinates around
the identity-state origin, ordered (att, bias, cal_1, .., cal_n).

One gyro step evaluates one exponential, E = exp(v) with v = omega0 dt and
omega0 = Ahat omega + ahat the origin input.  The mean step moves every
factor by left multiplication with E, and E is also the rotation block of
the transition matrix Phi, whose bias-to-attitude block is -dt J_l(v).

Each step of both filters is one kernel on a stacked state (:class:`_State`),
which :func:`abc_eqf.runner.drive_batch` runs on a batch of runs and the
library steps (eqf_propagate, eqf_update, iekf's) on one run.

The state estimate itself is recovered as phi_Xhat(identity state), see
:func:`abc_eqf.symmetry.state_from_group`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie import (
    DegenerateError,
    _exp_coefficients,
    _exp_entries,
    _jl_coefficients,
    _rodrigues,
    _sdp_entries,
    exp_so3,
    project_to_so3,
    wedge,
)
from .symmetry import GroupElement, group_identity

logger = logging.getLogger(__name__)

RESIDUAL_SUBTRACT = "subtract"
MD_ANALYTIC = "analytic"

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


class MeasurementAheadError(ValueError):
    """Raised when a measurement is stamped more than MEASUREMENT_SLACK after
    the filter time."""


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
    (GNSS-baseline style).  A calibrated sensor's calibration state is its
    position in the sensor list that each call is given.
    """

    sensor_id: str
    calibrated: bool
    sigma_y: float
    reference: np.ndarray | None = None


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
    """Check distinct ids, calibrated sensors first (sensor i holds calibration
    state i) and unit fixed references (BadDimensionError); return n."""
    n = sum(1 for s in sensors if s.calibrated)
    _positions(sensors)
    for i, s in enumerate(sensors):
        if s.calibrated != (i < n):
            raise BadDimensionError("calibrated sensors must precede uncalibrated ones")
        if s.reference is not None and not _is_unit(np.asarray(s.reference, dtype=float).tolist()):
            raise BadDimensionError(f"sensor {s.sensor_id}: reference must be unit norm")
    return n


def _positions(sensors: list[SensorModel]) -> dict[str, int]:
    """Each sensor id's position in the list; BadDimensionError on a duplicate id."""
    position = {}
    for i, s in enumerate(sensors):
        if position.setdefault(s.sensor_id, i) != i:
            raise BadDimensionError(f"duplicate sensor id {s.sensor_id!r}")
    return position


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
    """Linearized output matrix, one 3-row block per sensor in the order of a
    list that passes :func:`validate_layout` with at most n calibrated sensors.

    refs holds the current reference direction (x, y, z) of each listed
    sensor, as rows of an array or as float triples.  For a calibrated sensor
    the reference skew wedge(d) appears in the attitude block and in its own
    calibration block; for an uncalibrated sensor only in the attitude block.
    This is the matrix the update kernels gather from a bucket's table.
    """
    if validate_layout(sensors) > n:
        raise BadDimensionError(f"more than n={n} calibrated sensors")
    table = _output_table(np.asarray(refs, dtype=float).reshape(len(sensors), 3))
    return table.ravel()[_layout(_sensor_keys(sensors), n)[4]]


def compute_phi(omega0: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Closed-form state transition matrix exp(A0 dt), from :func:`phi_and_md`."""
    return phi_and_md(omega0, dt, NoiseConfig(0.0, 0.0, 0.0), n)[0]


def compute_Md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int) -> np.ndarray:
    """Discrete process noise: the integral of Phi(s) M_c Phi(s)^T over the
    step in closed form, from :func:`phi_and_md`.  The rotation blocks of
    Phi are orthogonal, so the bias and calibration blocks are exactly
    sigma^2 dt I.

    M_c is sigma^2 I on every 3-block, so the EqF's input-noise adaptation,
    a conjugation by blkdiag(Ahat, Ahat, Bhat_1, .., Bhat_n), returns it
    unchanged and is not applied.
    """
    return phi_and_md(omega0, dt, noise, n)[1]


# Layout of the value vector that phi_and_md gathers Phi and Md from: four
# row-major 3x3 blocks, then the scalar entries.
_PHI12, _PHI22, _M11, _M12 = 0, 9, 18, 27
_ZERO, _ONE, _BIAS, _CAL = 36, 37, 38, 39

@lru_cache(maxsize=64)
def _gather_index(dim: int) -> np.ndarray:
    """Cached read-only (2, dim, dim) index of every entry of Phi and Md into
    the value vector of :func:`phi_and_md`."""
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
    md[0:3, 0:3] = _M11 + block
    md[0:3, 3:6] = _M12 + block
    md[3:6, 0:3] = _M12 + block.T
    idx.flags.writeable = False
    return idx


def phi_and_md(omega0: np.ndarray, dt: float, noise: NoiseConfig, n: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix exp(A0 dt) and discrete process noise of one step,
    the one-run case of :func:`_eqf_transition`.

    With v = omega0 dt, every rotation block of Phi is E = exp(v) and the
    bias-to-attitude block is -dt J_l(v), both from lie's Rodrigues
    coefficients of |v|: the same scalars in the same order as the
    exponential of :func:`propagate_mean`, so Phi's rotation blocks are
    bit-equal to the E that moves the mean.  Md has its own coefficients.
    """
    if dt <= 0.0:
        raise NonPositiveDtError("dt must be positive")
    _, phi, md = _eqf_transition(omega0, dt, noise, _gather_index(6 + 3 * n))
    return phi, md


def _phi_md_values(x: float, y: float, z: float, dt: float, noise: NoiseConfig
                   ) -> list[float]:
    """The value vector of :func:`phi_and_md` for origin input (x, y, z):
    the blocks -dt J_l(v) and E = exp(v) of Phi and Md_11, Md_12 of Md,
    row-major, then the scalar entries 0, 1 and the bias and calibration
    variances st2 dt and sk2 dt (see _gather_index)."""
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
        0.0, 1.0, st2 * dt, sk2 * dt]


def sigma_u(noise: NoiseConfig, n: int) -> np.ndarray:
    """Continuous input covariance diag(sigma_w^2, sigma_bw^2, sigma_kappa^2 ...)."""
    return np.diag([noise.sigma_w ** 2] * 3 + [noise.sigma_bw ** 2] * 3
                   + [noise.sigma_kappa ** 2] * 3 * n)


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


def _check_modes(md_mode: str = MD_ANALYTIC, residual_mode: str = RESIDUAL_SUBTRACT) -> None:
    """ValueError unless md_mode and residual_mode name the filter's one
    model: the closed-form Md and the output residual rho_Xhat^-1(y) - d."""
    if md_mode != MD_ANALYTIC:
        raise ValueError(f"md_mode must be {MD_ANALYTIC!r}, got {md_mode!r}")
    if residual_mode != RESIDUAL_SUBTRACT:
        raise ValueError(f"residual_mode must be {RESIDUAL_SUBTRACT!r}, got {residual_mode!r}")


def _measured_sensors(meas: list[DirectionMeasurement], sensors: list[SensorModel],
                      t: float, n: int) -> tuple[list[tuple[int, float]], list[list[float]]]:
    """Sensor key (as :func:`_sensor_keys` gives it) and reference direction
    (a float triple) of each measurement, on a state with n calibration
    states.

    Sensor i of the list holds calibration state i.  A duplicate id, or a
    measured sensor whose calibrated flag differs from i < n, raises
    BadDimensionError; a measurement stamped more than MEASUREMENT_SLACK
    after t MeasurementAheadError, one from a sensor missing from sensors
    UnknownSensorError, a direction or reference not of shape (3,)
    BadDimensionError, a non-unit one InputRangeError.
    The list is read afresh on every call: its ids once, and of its sensors
    only the measured ones.
    """
    ids = [s.sensor_id for s in sensors]
    if len(set(ids)) < len(ids):
        _positions(sensors)             # raises, naming the duplicate
    used, refs = [], []
    for m in meas:
        if m.t > t + MEASUREMENT_SLACK:
            raise MeasurementAheadError(
                f"measurement at t={m.t} is ahead of the filter time {t}")
        try:
            i = ids.index(m.sensor_id)
        except ValueError:
            raise UnknownSensorError(
                f"measurement at t={m.t} names sensor {m.sensor_id!r}, not one of the "
                f"configured sensors {ids} (filter time t={t})") from None
        sensor = sensors[i]
        if sensor.calibrated != (i < n):
            raise BadDimensionError(f"sensor {m.sensor_id!r} at position {i}, n={n}: "
                                    "calibrated sensors must precede uncalibrated ones")
        ref = sensor.reference if sensor.reference is not None else m.reference
        if ref is None:
            raise BadDimensionError(f"sensor {m.sensor_id}: measurement carries no reference")
        if m.y.shape != (3,) or ref.shape != (3,):
            raise BadDimensionError(
                f"measurement at t={m.t} from sensor {m.sensor_id!r}: direction and reference "
                f"must have shape (3,), got {m.y.shape} and {ref.shape} (filter time t={t})")
        ref = ref.tolist()
        if not (_is_unit(m.y.tolist()) and _is_unit(ref)):
            raise InputRangeError(
                f"measurement at t={m.t} from sensor {m.sensor_id!r}: direction or "
                f"reference is not a unit vector (filter time t={t})")
        used.append((1 + i if sensor.calibrated else 0, sensor.sigma_y))
        refs.append(ref)
    return used, refs


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

    On 2-D inputs the products use ndarray.dot, the same BLAS call as
    np.matmul at about half its dispatch cost on matrices this small; S is
    read once as Python floats for its sum and trace, and K r is one
    matrix-vector dot.
    """
    single = sigma.ndim == 2
    # sums and traces as floats: one conversion costs less than numpy's
    # reductions, and one run's S is converted once
    if single:
        sht = sigma.dot(h.T)
        s = h.dot(sht)
        m = len(s)
        diag = s.reshape(m * m)[::m + 1]
        diag += var
        entries = s.ravel().tolist()
        total, trace = sum(entries), sum(entries[::m + 1])
    else:
        sht = np.matmul(sigma, h.mT)
        s = np.matmul(h, sht)
        m = s.shape[-1]
        diag = s.reshape(-1, m * m)[:, ::m + 1]
        diag += var
        total, trace = np.add.reduce(s, axis=None), max(map(sum, diag.tolist()))
    keep = None
    if not (math.isfinite(total) and trace <= bound):
        flat = s.reshape(-1, m * m)
        keep = (np.isfinite(np.add.reduce(flat, axis=1))
                & (np.add.reduce(flat[:, ::m + 1], axis=1) <= bound))
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
    if single:
        gain = np.linalg.solve(s, sht.T).T
        sigma = sigma - gain.dot(h).dot(sigma)
        return keep, gain.dot(residual), 0.5 * (sigma + sigma.T)
    gain = np.linalg.solve(s, sht.mT).mT
    sigma = sigma - np.matmul(np.matmul(gain, h), sigma)
    return keep, np.matmul(gain, residual[..., None])[..., 0], 0.5 * (sigma + sigma.mT)


# ---------------------------------------------------------------------------
# Kernels: each step once, for the 2-D arrays of one run or a stack of runs


@dataclass(slots=True)
class Bucket:
    """One stacked update: the runs whose group at one step and slot comes
    from the same sensors in the same order, or a library update's group."""

    rows: np.ndarray | None     # (Rb,) rows of the batch, ascending; None for a library update
    sel: np.ndarray | slice     # rows, or slice(None) when it holds every row
    names: np.ndarray | tuple   # (Rb,) the names of the runs in rows, for messages
    factor: np.ndarray          # (m,) rotation factor of each sensor: 0, or 1 + cal index
    cal_cols: list[tuple[int, int]]     # (sensor k, first column) of each calibration block
    var: np.ndarray             # (3m,) sigma_y^2 of each row
    bound: float                # trace certificate's bound on tr S, NaN if a var is not > 0
    index: np.ndarray           # (3m, d) table.take(index, axis=-1) is compute_C0 of each run
    y: np.ndarray               # ([Rb,] m, 3) measured directions
    refs: np.ndarray            # ([Rb,] m, 3) reference directions
    table: np.ndarray           # ([Rb,] 7m) (0, x, y, z, -x, -y, -z) of each reference


def _sensor_keys(sensors: list[SensorModel]) -> tuple[tuple[int, float], ...]:
    """Each sensor's rotation factor (0, or 1 + its position in the list for
    a calibrated sensor) and its sigma_y."""
    return tuple([(1 + i if s.calibrated else 0, s.sigma_y) for i, s in enumerate(sensors)])


@lru_cache(maxsize=256)
def _layout(keys: tuple[tuple[int, float], ...], n: int) -> tuple:
    """The Bucket fields factor, cal_cols, var, bound and index of a group of
    sensors with the _sensor_keys keys; cached, with read-only arrays.  The
    direction noise is isotropic, so either filter's output-noise rotation
    returns sigma_y^2 I unchanged and is not applied.  index puts wedge of
    reference k (table entries 7k..7k+6) in the attitude columns and in a
    calibrated sensor's own; its other entries point at the table's first 0."""
    factor = np.array([f for f, _ in keys], dtype=np.intp)
    cal_cols = [(k, 3 + 3 * f) for k, f in enumerate(factor.tolist()) if f]
    var = [sigma_y ** 2 for _, sigma_y in keys for _ in range(3)]
    index = np.zeros((len(keys), 3, 6 + 3 * n), dtype=np.intp)
    for k, j in [(k, 0) for k in range(len(keys))] + cal_cols:
        index[k, :, j:j + 3] = _WEDGE_INDEX + 7 * k
    out = (factor, cal_cols, np.array(var), _trace_bound(var), index.reshape(-1, 6 + 3 * n))
    for a in out[0], out[2], out[4]:
        a.flags.writeable = False
    return out


_WEDGE_INDEX = np.array([[0, 6, 2], [3, 0, 4], [5, 1, 0]])   # into (0, x, y, z, -x, -y, -z)


def _output_table(refs: np.ndarray) -> np.ndarray:
    """The table (0, x, y, z, -x, -y, -z) of each reference (x, y, z) of
    refs (..., 3), shaped (..., 7): what a Bucket's index gathers from."""
    return np.concatenate((np.zeros(refs.shape[:-1] + (1,)), refs, -refs), axis=-1)


def _group_bucket(meas: list[DirectionMeasurement], sensors: list[SensorModel], t: float,
                  n: int) -> Bucket:
    """The Bucket of a library update of the group meas at filter time t,
    checked by :func:`_measured_sensors`, as one 2-D run."""
    used, refs = _measured_sensors(meas, sensors, t, n)
    table = np.array([v for x, y, z in refs for v in (0.0, x, y, z, -x, -y, -z)])
    return Bucket(None, slice(None), ("",), *_layout(tuple(used), n),
                  np.array([m.y for m in meas]), np.array(refs), table)


@dataclass(slots=True)
class _State:
    """Stacked filter state: rotation factors f ([R,] 1 + n, 3, 3), vector v
    ([R,] 3) and sigma ([R,] d, d), with no run axis R for one run.  EqF:
    f = (Ahat, Bhat_i), v = ahat; IEKF: f = (Rhat, Chat_i), v = bhat."""

    f: np.ndarray
    v: np.ndarray
    sigma: np.ndarray

    def gather(self, b: Bucket) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f, v and sigma of the bucket's runs: the arrays themselves for one
        run, the rows b.sel of a batch."""
        if self.sigma.ndim == 2:
            return self.f, self.v, self.sigma
        return self.f[b.sel], self.v[b.sel], self.sigma[b.sel]

    def put(self, sel, f: np.ndarray, v: np.ndarray, sigma: np.ndarray) -> None:
        """Store the updated rows sel; a slice (every row) rebinds the arrays."""
        if isinstance(sel, slice):
            self.f, self.v, self.sigma = f, v, sigma
        else:
            self.f[sel], self.v[sel], self.sigma[sel] = f, v, sigma


def _reproject(f: np.ndarray, names=("",)) -> np.ndarray:
    """project_to_so3 of every factor f ([R,] 1 + n, 3, 3), naming the first
    run (by names) with a degenerate factor."""
    try:
        return project_to_so3(f)
    except DegenerateError as exc:
        bad = (np.linalg.det(f) <= 1e-12).reshape(len(names), -1).any(axis=1)
        raise DegenerateError(f"{names[np.argmax(bad)]}{exc}") from None


def _eqf_transition(omega0: np.ndarray, dt: float, noise: NoiseConfig, idx: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi's bias block E = exp(omega0 dt) ([R,] 3, 3), Phi and Md ([R,] d, d)
    for origin inputs omega0 ([R,] 3): the nonzero entries as scalars from
    :func:`_phi_md_values`, gathered with _gather_index's idx."""
    if omega0.ndim == 1:
        values = _phi_md_values(*omega0.tolist(), dt, noise)
        phi_md = np.fromiter(values, float, len(values))[idx]
        phi = phi_md[0]
        return phi[3:6, 3:6], phi, phi_md[1]
    phi_md = np.array([_phi_md_values(x, y, z, dt, noise)
                       for x, y, z in omega0.tolist()]).take(idx, axis=-1)
    phi = phi_md[:, 0]
    return phi[:, 3:6, 3:6], phi, phi_md[:, 1]


def _eqf_propagate(st: _State, omega: np.ndarray, dt: float, noise: NoiseConfig,
                   idx: np.ndarray) -> None:
    """The EqF gyro step of every run, less the re-projection: every factor
    and ahat move by E (see :func:`propagate_mean`), Sigma by Phi and Md.
    One run takes 2-D products (ndarray.dot), a batch stacked ones."""
    if st.sigma.ndim == 2:
        dot = matvec = np.ndarray.dot
        e, phi, md = _eqf_transition(st.f[0].dot(omega) + st.v, dt, noise, idx)
        st.f = e @ st.f
    else:
        dot, matvec = np.matmul, np.matvec
        e, phi, md = _eqf_transition(np.matvec(st.f[:, 0], omega) + st.v, dt, noise, idx)
        st.f = e[:, None] @ st.f
    st.v = matvec(e, st.v)
    sigma = dot(dot(phi, st.sigma), phi.mT) + md
    st.sigma = 0.5 * (sigma + sigma.mT)


def _eqf_delta(r: list[float]) -> list[float]:
    """The entries of exp(Delta) for one run's correction r: the nav
    rotation, each calibration rotation (row-major), then the nav vector."""
    x, y, z, bx, by, bz, *cal = r
    nav = _sdp_entries(x, y, z, -bx, -by, -bz)
    entries = nav[:9]
    for j in range(0, len(cal), 3):
        entries += _exp_entries(cal[j] + x, cal[j + 1] + y, cal[j + 2] + z)
    return entries + nav[9:]


def _eqf_update(st: _State, b: Bucket, t: float) -> None:
    """The EqF update of the bucket's runs: the residual of y is Bhat_i y
    (calibrated sensor) or Ahat y, less the reference, and _kalman's
    correction r enters as Xhat+ = exp(Delta) Xhat, with Delta = (r_att,
    -r_bias; r_cal_i + r_att) from the exponential chart at the origin.
    Runs whose update _kalman skips keep their state."""
    f, v, sigma = st.gather(b)
    h = b.table.take(b.index, axis=-1)
    residual = np.matvec(f.take(b.factor, axis=-3), b.y) - b.refs
    keep, r, sigma = _kalman(sigma, h, residual.reshape(h.shape[:-1]), b.var, b.bound, t,
                             b.names)
    if r is None:
        return
    if r.ndim == 1:                     # one run
        vals = _eqf_delta(r.tolist())
        vals = np.fromiter(vals, float, len(vals))
        g = vals[:-3].reshape(f.shape)
        st.f, st.v, st.sigma = g @ f, vals[-3:] + g[0].dot(v), sigma
        return
    sel = b.sel
    if keep is not None:
        sel, f, v = b.rows[keep], f[keep], v[keep]
    vals = np.array([_eqf_delta(row) for row in r.tolist()])
    g = vals[:, :-3].reshape(f.shape)
    st.put(sel, g @ f, vals[:, -3:] + np.matvec(g[:, 0], v), sigma)


# ---------------------------------------------------------------------------
# Library steps: the kernels on one run.  A step checks and stacks its input
# state's rotations into a new array, so it writes no array of that state,
# and returns a new state whose rotations are views of the kernel's stack.


def _library_state(rots: list[np.ndarray], v: np.ndarray, sigma: np.ndarray, step: str,
                   t: float) -> _State:
    """The kernels' state of a library step's input: its rotations rots
    stacked into a new array, its vector v and sigma.

    Raises NonFiniteEstimateError, naming the step and the filter time t,
    when an entry of the rotations or of v is not finite, which the sum of
    the rotations' squared entries (3 per rotation) and of v's entries
    shows; so no kernel meets one.  Entries so large that this sum
    overflows (above about 1e154 in a rotation or 1e307 in v) raise too.
    A non-finite Sigma raises at the next update, whose S it makes
    non-finite (see :func:`_kalman`)."""
    f = np.array(rots)
    if not math.isfinite(np.vdot(f, f) + sum(v.tolist())):
        raise NonFiniteEstimateError(f"{step} at filter time t={t}: non-finite estimate")
    return _State(f, v, sigma)


def _stepped(state, st: _State, part: type, dt: float | None = None):
    """state's successor after a kernel ran on st: a propagation by dt adds
    dt and one step, re-projecting every REPROJECT_EVERY-th step; a skipped
    update returns state.  part (GroupElement or SystemState) holds the
    rotations as views of st.f."""
    if dt is None:
        if st.sigma is state.sigma:       # skipped: the kernel stored nothing
            return state
        t, steps = state.t, state.steps
    else:
        t, steps = state.t + dt, state.steps + 1
        if steps % REPROJECT_EVERY == 0:
            st.f = _reproject(st.f)
    f = st.f
    return type(state)(part(f[0], st.v, [f[i] for i in range(1, len(f))]), st.sigma, t, steps)


def eqf_propagate(fs: FilterState, omega: np.ndarray, dt: float,
                  noise: NoiseConfig, md_mode: str = MD_ANALYTIC) -> FilterState:
    """One gyro step: Lie-group mean integration plus discrete Riccati update,
    then the re-projection on every REPROJECT_EVERY-th step.  md_mode
    accepts only MD_ANALYTIC."""
    _check_modes(md_mode=md_mode)
    dt = _check_step(omega, dt, fs.t)
    x = fs.xhat
    st = _library_state([x.A, *x.B], x.a, fs.sigma, "propagation", fs.t)
    _eqf_propagate(st, omega, dt, noise, _gather_index(6 + 3 * x.n))
    return _stepped(fs, st, GroupElement, dt)


def eqf_update(fs: FilterState, meas: list[DirectionMeasurement],
               sensors: list[SensorModel], residual_mode: str = RESIDUAL_SUBTRACT
               ) -> FilterState:
    """Equivariant update from one or more simultaneous direction
    measurements; a perfect measurement leaves the state unchanged.  A
    skipped update (a bad S, see :func:`_kalman`) returns the input state.
    residual_mode accepts only RESIDUAL_SUBTRACT."""
    _check_modes(residual_mode=residual_mode)
    if not meas:
        return fs
    x = fs.xhat
    st = _library_state([x.A, *x.B], x.a, fs.sigma, "update", fs.t)
    _eqf_update(st, _group_bucket(meas, sensors, fs.t, x.n), fs.t)
    return _stepped(fs, st, GroupElement)
