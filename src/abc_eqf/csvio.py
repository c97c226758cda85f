"""CSV schemas for sensor logs, truth, estimates and reports.

All files carry a mandatory header row, UTF-8, '.' decimal separator and
floats printed with 17 significant digits so replay is bit-exact.
Timestamps must be sorted; readers reject unsorted input, and repeated gyro
timestamps too (each gyro interval is a propagation step).  Readers also
reject non-finite values, and direction rows whose measured or reference
direction is all zeros.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .eqf import DirectionMeasurement
from .metrics import ErrorSeries, EstimateSeries
from .sim import GroundTruth


class ParseError(ValueError):
    """CSV parsing failure with file/row context."""

    def __init__(self, path, row: int | None, message: str):
        where = f"{path}" if row is None else f"{path}:{row}"
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path: Path, required: list[str]) -> tuple[list[str], list[list[float]]]:
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, None, str(exc)) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "missing header row") from None
        for col in required:
            if col not in header:
                raise ParseError(path, 1, f"missing column {col!r}")
        rows = []
        for i, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise ParseError(path, i, f"expected {len(header)} fields, got {len(raw)}")
            try:
                values = [float(v) for v in raw]
            except ValueError as exc:
                raise ParseError(path, i, str(exc)) from exc
            for col, v in zip(header, values):
                if not math.isfinite(v):
                    raise ParseError(path, i, f"non-finite value {v!r} in column {col!r}")
            rows.append(values)
    return header, rows


def _check_sorted(path: Path, t: np.ndarray, strict: bool = False) -> None:
    bad = np.diff(t) <= 0.0 if strict else np.diff(t) < 0.0
    if np.any(bad):
        row = int(np.argmax(bad)) + 3  # +2 header/1-base, +1 second row
        order = "strictly increasing" if strict else "non-decreasing"
        raise ParseError(path, row, f"timestamps are not sorted ({order} required)")


GYRO_HEADER = ["t", "wx", "wy", "wz"]


def write_gyro(path: Path, t: np.ndarray, omega: np.ndarray) -> None:
    _write_rows(path, GYRO_HEADER,
                ([_fmt(ti)] + [_fmt(v) for v in wi] for ti, wi in zip(t, omega)))


def read_gyro(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = _read_table(path, GYRO_HEADER)
    data = np.asarray(rows, dtype=float).reshape(-1, 4)
    _check_sorted(path, data[:, 0], strict=True)
    return data[:, 0], data[:, 1:4]


def direction_header(time_varying: bool) -> list[str]:
    base = ["t", "yx", "yy", "yz"]
    return base + ["dx", "dy", "dz"] if time_varying else base


def write_directions(path: Path, meas: list[DirectionMeasurement]) -> None:
    time_varying = any(m.reference is not None for m in meas)
    rows = []
    for m in meas:
        row = [_fmt(m.t)] + [_fmt(v) for v in m.y]
        if time_varying:
            if m.reference is None:
                raise ParseError(path, None, "mixed fixed/time-varying reference rows")
            row += [_fmt(v) for v in m.reference]
        rows.append(row)
    _write_rows(path, direction_header(time_varying), rows)


def read_directions(path: Path, sensor_id: str) -> list[DirectionMeasurement]:
    header, rows = _read_table(path, ["t", "yx", "yy", "yz"])
    time_varying = "dx" in header
    if time_varying:
        for col in ("dx", "dy", "dz"):
            if col not in header:
                raise ParseError(path, 1, f"missing column {col!r}")
    data = np.asarray(rows, dtype=float)
    if data.size:
        _check_sorted(path, data[:, 0])
        zero = ~np.any(data[:, 1:4], axis=1)
        if time_varying:
            zero |= ~np.any(data[:, 4:7], axis=1)
        if np.any(zero):
            raise ParseError(path, int(np.argmax(zero)) + 2, "all-zero direction")
    out = []
    for row in data:
        ref = row[4:7].copy() if time_varying else None
        out.append(DirectionMeasurement(float(row[0]), sensor_id, row[1:4].copy(), ref))
    return out


def truth_header(n: int) -> list[str]:
    cols = ["t"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["bx", "by", "bz"]
    for s in range(1, n + 1):
        cols += [f"c{s}{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    return cols


def write_truth(path: Path, truth: GroundTruth) -> None:
    n = len(truth.cal)
    cal_flat = [c.reshape(9) for c in truth.cal]
    rows = []
    for k in range(truth.t.size):
        row = [_fmt(truth.t[k])] + [_fmt(v) for v in truth.R[k].reshape(9)]
        row += [_fmt(v) for v in truth.bias[k]]
        for c in cal_flat:
            row += [_fmt(v) for v in c]
        rows.append(row)
    _write_rows(path, truth_header(n), rows)


def read_truth(path: Path) -> GroundTruth:
    header, rows = _read_table(path, truth_header(0))
    n = (len(header) - 13) // 9
    if len(header) != 13 + 9 * n:
        raise ParseError(path, 1, "unexpected truth column count")
    data = np.asarray(rows, dtype=float)
    if not data.size:
        raise ParseError(path, 2, "empty truth file")
    _check_sorted(path, data[:, 0])
    t = data[:, 0]
    r = data[:, 1:10].reshape(-1, 3, 3)
    bias = data[:, 10:13]
    cal = [data[0, 13 + 9 * i: 22 + 9 * i].reshape(3, 3) for i in range(n)]
    # The schema does not carry the true body rates; they are not needed for
    # error evaluation.
    return GroundTruth(t, r, bias, np.zeros_like(bias), cal)


def estimate_header(n: int, dim: int) -> list[str]:
    cols = ["t"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["bx", "by", "bz"]
    for s in range(1, n + 1):
        cols += [f"c{s}{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    cols += [f"sd{i}" for i in range(1, dim + 1)]
    return cols


def write_estimates(path: Path, est: EstimateSeries) -> None:
    n = est.C.shape[1]
    dim = est.sigma_diag.shape[1]
    rows = []
    for k in range(est.t.size):
        row = [_fmt(est.t[k])] + [_fmt(v) for v in est.R[k].reshape(9)]
        row += [_fmt(v) for v in est.b[k]]
        for j in range(n):
            row += [_fmt(v) for v in est.C[k, j].reshape(9)]
        row += [_fmt(v) for v in est.sigma_diag[k]]
        rows.append(row)
    _write_rows(path, estimate_header(n, dim), rows)


def error_header(n: int) -> list[str]:
    return ["t", "att_deg", "bias_rads"] + [f"cal{j}_deg" for j in range(1, n + 1)]


def write_error_series(path: Path, err: ErrorSeries) -> None:
    n = err.cal_deg.shape[1]
    rows = []
    for k in range(err.t.size):
        row = [_fmt(err.t[k]), _fmt(err.att_deg[k]), _fmt(err.bias[k])]
        row += [_fmt(err.cal_deg[k, j]) for j in range(n)]
        rows.append(row)
    _write_rows(path, error_header(n), rows)


REPORT_HEADER = ["filter", "phase", "att_deg", "bias", "cal_deg", "runtime_s"]


def write_report(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in rows:
            writer.writerow([row["filter"], row["phase"]]
                            + [_fmt(row[k]) for k in ("att_deg", "bias", "cal_deg")]
                            + [_fmt(row["runtime_s"]) if row.get("runtime_s") is not None
                               else ""])


def read_report(path: Path) -> list[dict]:
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, None, str(exc)) from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(path, 1, "missing header row")
        for col in REPORT_HEADER[:5]:
            if col not in reader.fieldnames:
                raise ParseError(path, 1, f"missing column {col!r}")
        rows = []
        for i, raw in enumerate(reader, start=2):
            try:
                row = {"filter": raw["filter"], "phase": raw["phase"]}
                for key in ("att_deg", "bias", "cal_deg"):
                    row[key] = float(raw[key])
                rt = raw.get("runtime_s", "")
                row["runtime_s"] = float(rt) if rt else None
            except (TypeError, ValueError) as exc:
                raise ParseError(path, i, str(exc)) from exc
            rows.append(row)
    return rows
