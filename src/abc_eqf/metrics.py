"""Error metrics, transient/asymptotic RMSE aggregation and comparison tables.

Attitude and calibration errors use the rotation-log norm (a bi-invariant
distance, reported in degrees), bias error is the Euclidean norm in rad/s.
Truth is geodesically interpolated on SO(3) at the estimate timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie import exp_so3, log_so3
from .sim import GroundTruth


class MisalignedError(ValueError):
    """Estimate timestamps fall outside the truth coverage."""


class EmptyWindowError(ValueError):
    """An RMSE window contains no samples."""


@dataclass
class EstimateSeries:
    """Per-gyro-sample state estimates of one filter run."""

    t: np.ndarray
    R: np.ndarray                  # (K, 3, 3)
    b: np.ndarray                  # (K, 3)
    C: np.ndarray                  # (K, n, 3, 3)
    sigma_diag: np.ndarray         # (K, 6 + 3n)
    nees_att: np.ndarray | None = None   # (K,), present when truth was available


@dataclass
class ErrorSeries:
    t: np.ndarray
    att_deg: np.ndarray
    bias: np.ndarray
    cal_deg: np.ndarray            # (K, n)
    att_vec: np.ndarray | None = None    # (K, 3), log(R_true Rhat^T)


@dataclass
class RmseReport:
    """Transient / asymptotic RMSE per state group; cal averaged over states."""

    transient: dict[str, float] = field(default_factory=dict)
    asymptotic: dict[str, float] = field(default_factory=dict)


METRIC_KEYS = ("att_deg", "bias", "cal_deg")


def interpolate_truth(truth: GroundTruth, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic attitude / linear bias interpolation of the truth at times t.

    t may overshoot the truth span by half its first sample interval (1e-9 s
    for a single sample)."""
    tt = truth.t
    tol = 0.5 * (tt[1] - tt[0]) if tt.size > 1 else 1e-9
    if np.min(t) < tt[0] - tol or np.max(t) > tt[-1] + tol:
        raise MisalignedError("estimate timestamps outside truth coverage")

    idx = np.searchsorted(tt, t, side="right") - 1
    idx = np.clip(idx, 0, tt.size - 2 if tt.size > 1 else 0)
    r_out = truth.R[idx]
    b_out = truth.bias[idx]
    if tt.size == 1:
        return r_out, b_out
    for k in np.flatnonzero(np.abs(t - tt[idx]) >= 1e-12):
        i = idx[k]
        s = np.clip((t[k] - tt[i]) / (tt[i + 1] - tt[i]), 0.0, 1.0)
        r_out[k] = truth.R[i] @ exp_so3(s * log_so3(truth.R[i].T @ truth.R[i + 1]))
        b_out[k] = (1.0 - s) * truth.bias[i] + s * truth.bias[i + 1]
    return r_out, b_out


def error_series(truth: GroundTruth, est: EstimateSeries) -> ErrorSeries:
    """Attitude / bias / calibration error norms at the estimate timestamps."""
    r_true, b_true = interpolate_truth(truth, est.t)
    att_vec = log_so3(r_true @ np.swapaxes(est.R, -1, -2))
    cal_true = np.asarray(truth.cal, dtype=float).reshape(-1, 3, 3)
    cal_vec = log_so3(cal_true @ np.swapaxes(est.C, -1, -2))
    return ErrorSeries(est.t.copy(), np.degrees(np.linalg.norm(att_vec, axis=-1)),
                       np.linalg.norm(b_true - est.b, axis=1),
                       np.degrees(np.linalg.norm(cal_vec, axis=-1)), att_vec)


def window_mean(values: np.ndarray, t: np.ndarray, window: tuple[float, float]) -> float:
    """Mean of values over t in [window[0], window[1])."""
    mask = (t >= window[0]) & (t < window[1])
    if not np.any(mask):
        raise EmptyWindowError(f"no samples in window {window}")
    return float(np.mean(values[mask]))


def rmse(values: np.ndarray, t: np.ndarray, window: tuple[float, float]) -> float:
    """Root mean square of values over t in [window[0], window[1])."""
    return float(np.sqrt(window_mean(np.square(values), t, window)))


def report_from_series(err: ErrorSeries) -> RmseReport:
    """Transient RMSE over the first half of the run, asymptotic over the second."""
    t0, t_end = float(err.t[0]), float(err.t[-1])
    split_t = 0.5 * (t0 + t_end)
    report = RmseReport()
    for key, window in (("transient", (t0, split_t)), ("asymptotic", (split_t, np.inf))):
        vals = {
            "att_deg": rmse(err.att_deg, err.t, window),
            "bias": rmse(err.bias, err.t, window),
            "cal_deg": float(np.mean([rmse(err.cal_deg[:, j], err.t, window)
                                      for j in range(err.cal_deg.shape[1])]))
            if err.cal_deg.shape[1] else float("nan"),
        }
        getattr(report, key).update(vals)
    return report


def mc_aggregate(reports: list[RmseReport]) -> RmseReport:
    """Average the per-run RMSE values (not pooled samples)."""
    if not reports:
        raise EmptyWindowError("no runs to aggregate")
    out = RmseReport()
    for phase in ("transient", "asymptotic"):
        for key in METRIC_KEYS:
            vals = [getattr(r, phase)[key] for r in reports]
            getattr(out, phase)[key] = float(np.mean(vals))
    return out


_PHASE_LABEL = {"transient": "T", "asymptotic": "A"}
_COLUMN_LABEL = {"att_deg": "attitude [deg]", "bias": "bias [rad/s]",
                 "cal_deg": "calibration [deg]"}


def compare_report(reports: dict[str, RmseReport],
                   runtimes: dict[str, float] | None = None
                   ) -> tuple[str, list[dict]]:
    """Side-by-side transient/asymptotic table with the per-column minimum
    marked (*); ties at display precision are both marked.  Returns the
    rendered text and CSV-ready row dicts.
    """
    if len(reports) < 2:
        raise ValueError("comparison needs at least two filters")
    names = list(reports)
    rows: list[dict] = []
    lines = [f"{'rmse':<12}" + "".join(f"{_COLUMN_LABEL[k]:>20}" for k in METRIC_KEYS)]
    for phase in ("transient", "asymptotic"):
        rounded = {key: {nm: round(getattr(reports[nm], phase)[key], 4) for nm in names}
                   for key in METRIC_KEYS}
        best = {key: min(vals.values()) for key, vals in rounded.items()}
        for nm in names:
            cells = []
            for key in METRIC_KEYS:
                val = rounded[key][nm]
                mark = "*" if val == best[key] else " "
                cells.append(f"{val:>19.4f}{mark}")
            lines.append(f"{nm} ({_PHASE_LABEL[phase]})".ljust(12) + "".join(cells))
            row = {"filter": nm, "phase": phase}
            row.update({key: getattr(reports[nm], phase)[key] for key in METRIC_KEYS})
            rows.append(row)
        lines.append("")
    if runtimes:
        base = runtimes[names[0]]
        rel = {nm: 100.0 * runtimes[nm] / base for nm in names if nm in runtimes}
        lines.append("runtime [% of " + names[0] + "]  "
                     + "  ".join(f"{nm}: {rel[nm]:.1f}%" for nm in rel))
        for row in rows:
            row["runtime_pct"] = rel.get(row["filter"])
    return "\n".join(lines), rows
