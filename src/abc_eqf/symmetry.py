"""Symmetry group (SO(3) x so(3)) x SO(3)^n, its actions, lift and local coordinates.

A group element X = ((A, a), B_1..B_n) couples attitude and gyro bias in the
semi-direct factor and carries one SO(3) factor per online-calibrated sensor.
The so(3) part ``a`` is stored in vee coordinates, so Ad_A[a] is just ``A @ a``
and the semi-direct factor multiplies exactly like its 4x4 homogeneous
representation [[A, a], [0, 1]].

Sensor layout convention used throughout the package: in every length-N list
of sensors / references / measurements, the n calibrated sensors come first
(calibration state i belongs to sensor i), uncalibrated sensors follow.

All operations are pure functions on immutable-by-convention values and are
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie import exp_sdp, exp_so3, log_so3


class DimensionMismatchError(ValueError):
    """Raised when operands carry a different number of calibration states."""


class OutOfChartError(ValueError):
    """Raised when a state lies outside the injectivity radius of the chart."""


_CHART_MAX_ANGLE = np.pi - 1e-3


@dataclass
class GroupElement:
    """X = ((A, a), B_1..B_n) with ``a`` in vee coordinates."""

    A: np.ndarray
    a: np.ndarray
    B: list[np.ndarray] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.B)


@dataclass
class SystemState:
    """xi = (R, b, C_1..C_n): attitude (frame G<-I), gyro bias, calibrations (I<-S_i)."""

    R: np.ndarray
    b: np.ndarray
    C: list[np.ndarray] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.C)


@dataclass
class AlgebraElement:
    """Lie algebra element (nav_rot, nav_vec, cal_1..cal_n), all in vee coordinates."""

    nav_rot: np.ndarray
    nav_vec: np.ndarray
    cal: list[np.ndarray] = field(default_factory=list)


def group_identity(n: int) -> GroupElement:
    return GroupElement(np.eye(3), np.zeros(3), [np.eye(3) for _ in range(n)])


def identity_state(n: int) -> SystemState:
    return SystemState(np.eye(3), np.zeros(3), [np.eye(3) for _ in range(n)])


def _check_same_n(nx: int, ny: int) -> None:
    if nx != ny:
        raise DimensionMismatchError(f"calibration counts differ: {nx} vs {ny}")


def group_mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Product x * y (left factor x), the 4x4 homogeneous product on the nav part.

    The EqF update applies its correction as group_mul(group_exp(Delta), Xhat).
    """
    _check_same_n(x.n, y.n)
    return GroupElement(
        x.A @ y.A,
        x.a + x.A @ y.a,
        [bx @ by for bx, by in zip(x.B, y.B)],
    )


def group_inv(x: GroupElement) -> GroupElement:
    """Inverse (A^T, -A^T a) on the nav part, componentwise transpose on the rest."""
    return GroupElement(x.A.T, -(x.A.T @ x.a), [b.T for b in x.B])


def group_exp(u: AlgebraElement) -> GroupElement:
    """Group exponential, componentwise over the nav and calibration factors;
    the EqF update's correction map."""
    rot, vec = exp_sdp(u.nav_rot, u.nav_vec)
    return GroupElement(rot, vec, [exp_so3(c) for c in u.cal])


def adjoint(x: GroupElement, u: AlgebraElement) -> AlgebraElement:
    """Ad_X[u] = X u X^{-1}, componentwise; nav part from the 4x4 representation."""
    _check_same_n(x.n, len(u.cal))
    rot = x.A @ u.nav_rot
    vec = x.A @ u.nav_vec + np.cross(x.a, rot)
    return AlgebraElement(rot, vec, [b @ c for b, c in zip(x.B, u.cal)])


def action_phi(x: GroupElement, xi: SystemState) -> SystemState:
    """Right action on the state space: (R A, A^T (b - a), A^T C_i B_i)."""
    _check_same_n(x.n, xi.n)
    return SystemState(
        xi.R @ x.A,
        x.A.T @ (xi.b - x.a),
        [x.A.T @ c @ b for c, b in zip(xi.C, x.B)],
    )


def action_psi(x: GroupElement, omega: np.ndarray) -> np.ndarray:
    """Right action on the input space: omega -> A^T (omega - a).

    The structurally zero bias/calibration input components stay zero and are
    not stored.
    """
    return x.A.T @ (omega - x.a)


def action_rho(x: GroupElement, y: np.ndarray) -> np.ndarray:
    """Right action on the output space, y of shape (N, 3).

    Component i is mapped by B_i^T for the calibrated sensors (the first n
    rows) and by A^T for the rest.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != 3 or y.shape[0] < x.n:
        raise DimensionMismatchError(f"output shape {y.shape} invalid for n={x.n}")
    out = np.empty_like(y)
    for i in range(y.shape[0]):
        rot = x.B[i] if i < x.n else x.A
        out[i] = rot.T @ y[i]
    return out


def output_h(xi: SystemState, refs: np.ndarray) -> np.ndarray:
    """Configuration output for reference directions refs of shape (N, 3).

    Row i is C_i^T R^T d_i for the calibrated sensors, R^T d_i otherwise.
    """
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2 or refs.shape[1] != 3 or refs.shape[0] < xi.n:
        raise DimensionMismatchError(f"reference shape {refs.shape} invalid for n={xi.n}")
    out = np.empty_like(refs)
    for i in range(refs.shape[0]):
        body = xi.R.T @ refs[i]
        out[i] = xi.C[i].T @ body if i < xi.n else body
    return out


def lift_lambda(xi: SystemState, omega: np.ndarray) -> AlgebraElement:
    """Equivariant lift of (state, gyro input) into the symmetry-group algebra."""
    w = omega - xi.b
    return AlgebraElement(w, -np.cross(omega, xi.b), [c.T @ w for c in xi.C])


def lifted_dynamics(x: GroupElement, omega: np.ndarray) -> AlgebraElement:
    """Algebra velocity of the lifted system at X: Lambda(phi_X(identity state), omega).

    The caller composes the result with left translation by X.
    """
    return lift_lambda(action_phi(x, identity_state(x.n)), omega)


def coords_theta(e: SystemState) -> np.ndarray:
    """Exponential-coordinate chart: (log(e_R), e_b, log(e_Ci)) as a (6+3n,) vector."""
    eps = np.empty(6 + 3 * e.n)
    eps[0:3] = _log_in_chart(e.R)
    eps[3:6] = e.b
    for i, c in enumerate(e.C):
        eps[6 + 3 * i: 9 + 3 * i] = _log_in_chart(c)
    return eps


def coords_theta_inv(eps: np.ndarray, n: int) -> SystemState:
    """Inverse chart; eps must have dimension 6 + 3n."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (6 + 3 * n,):
        raise DimensionMismatchError(f"coordinate dimension {eps.shape} != {(6 + 3 * n,)}")
    return SystemState(
        exp_so3(eps[0:3]),
        eps[3:6].copy(),
        [exp_so3(eps[6 + 3 * i: 9 + 3 * i]) for i in range(n)],
    )


def _log_in_chart(r: np.ndarray) -> np.ndarray:
    v = log_so3(r)
    if np.linalg.norm(v) >= _CHART_MAX_ANGLE:
        raise OutOfChartError("rotation angle too close to pi for the exponential chart")
    return v


def state_from_group(x: GroupElement) -> SystemState:
    """State estimate carried by a group element: phi_X(identity state).

    Written out as (A, -A^T a, A^T B_i), which is bit-identical to
    action_phi(x, identity_state(n)) without building the identity state.
    """
    at = x.A.T
    return SystemState(x.A, -(at @ x.a), [at @ b for b in x.B])


def system_flow(xi: SystemState, omega: np.ndarray, t: float) -> SystemState:
    """Exact flow of the noise-free system under constant input for time t;
    the IEKF's mean propagation step."""
    return SystemState(xi.R @ exp_so3((omega - xi.b) * t), xi.b.copy(),
                       [c.copy() for c in xi.C])


def transitivity_element(xi1: SystemState, xi2: SystemState) -> GroupElement:
    """Group element Z with phi(Z, xi1) = xi2 (the transitivity construction)."""
    _check_same_n(xi1.n, xi2.n)
    rel = xi1.R.T @ xi2.R
    return GroupElement(
        rel,
        xi1.b - rel @ xi2.b,
        [c1.T @ rel @ c2 for c1, c2 in zip(xi1.C, xi2.C)],
    )
