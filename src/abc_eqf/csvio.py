"""CSV schemas for sensor logs, truth, estimates and reports.

All files carry a mandatory header row, UTF-8, '.' decimal separator and
floats printed with 17 significant digits so replay is bit-exact.
Timestamps must be sorted; readers reject unsorted input, and repeated gyro
timestamps too (each gyro interval is a propagation step).  Readers also
reject non-finite values, direction rows whose measured or reference
direction is all zeros, and truth rows whose attitude or calibration is not
a rotation or whose bias b overflows b.b.
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


def write_table(path: Path, header: list[str], rows) -> None:
    """The CSV writer for rows of mixed cells: floats (numpy's too) get 17
    significant digits, None an empty cell, anything else its str()."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, float) else "" if v is None else v
                          for v in row] for row in rows)


def _write_columns(path: Path, header: list[str], *arrays) -> None:
    """One row per leading index of the arrays, each flattened into its columns.

    Every cell is a float, so each row is formatted by one "%.17g,...\r\n"
    format call; the bytes are those csv.writer writes from _fmt's cells, as
    a number needs no quoting."""
    table = np.column_stack([np.reshape(a, (len(a), math.prod(np.shape(a)[1:])))
                             for a in arrays])
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row_format % tuple(row) for row in table.tolist())


def _read_table(path: Path, required: list[str]
                ) -> tuple[list[str], list[list[float]], list[int]]:
    """Header, parsed rows and the file row of each; blank lines are skipped."""
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
        rows, file_rows = [], []
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
            file_rows.append(i)
    return header, rows, file_rows


def _check_sorted(path: Path, t: np.ndarray, file_rows: list[int],
                  strict: bool = False) -> None:
    bad = np.diff(t) <= 0.0 if strict else np.diff(t) < 0.0
    if np.any(bad):
        row = file_rows[int(np.argmax(bad)) + 1]   # the second row of the pair
        order = "strictly increasing" if strict else "non-decreasing"
        raise ParseError(path, row, f"timestamps are not sorted ({order} required)")


GYRO_HEADER = ["t", "wx", "wy", "wz"]


def write_gyro(path: Path, t: np.ndarray, omega: np.ndarray) -> None:
    _write_columns(path, GYRO_HEADER, t, omega)


def read_gyro(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows, file_rows = _read_table(path, GYRO_HEADER)
    if not rows:
        raise ParseError(path, 2, "empty gyro file")
    data = np.asarray(rows, dtype=float).reshape(-1, 4)
    _check_sorted(path, data[:, 0], file_rows, strict=True)
    return data[:, 0], data[:, 1:4]


def direction_header(time_varying: bool) -> list[str]:
    base = ["t", "yx", "yy", "yz"]
    return base + ["dx", "dy", "dz"] if time_varying else base


def write_directions(path: Path, meas: list[DirectionMeasurement]) -> None:
    time_varying = any(m.reference is not None for m in meas)
    if time_varying and any(m.reference is None for m in meas):
        raise ParseError(path, None, "mixed fixed/time-varying reference rows")
    columns = [[m.t for m in meas], [m.y for m in meas]]
    if time_varying:
        columns.append([m.reference for m in meas])
    _write_columns(path, direction_header(time_varying), *columns)


def read_directions(path: Path, sensor_id: str) -> list[DirectionMeasurement]:
    header, rows, file_rows = _read_table(path, ["t", "yx", "yy", "yz"])
    time_varying = "dx" in header
    if time_varying:
        for col in ("dx", "dy", "dz"):
            if col not in header:
                raise ParseError(path, 1, f"missing column {col!r}")
    data = np.asarray(rows, dtype=float)
    if data.size:
        _check_sorted(path, data[:, 0], file_rows)
        zero = ~np.any(data[:, 1:4], axis=1)
        if time_varying:
            zero |= ~np.any(data[:, 4:7], axis=1)
        if np.any(zero):
            raise ParseError(path, file_rows[int(np.argmax(zero))], "all-zero direction")
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
    cal = np.reshape(np.asarray(truth.cal, dtype=float), (1, -1))
    _write_columns(path, truth_header(len(truth.cal)), truth.t, truth.R, truth.bias,
                   np.repeat(cal, truth.t.size, axis=0))


def _not_rotation(m: np.ndarray) -> np.ndarray:
    """For each 3x3 matrix of a (..., 3, 3) stack: True unless it is
    orthonormal within 1e-6 (largest entry of |M M^T - I|) with det > 0.

    A matrix with an entry beyond 1 + 1e-6 fails before its products are
    formed, so they cannot overflow."""
    big = np.any(np.abs(m) > 1.0 + 1e-6, axis=(-2, -1))
    m = np.where(big[..., None, None], 0.0, m)
    gram_err = np.max(np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(3)), axis=(-2, -1))
    return big | ~(gram_err <= 1e-6) | ~(np.linalg.det(m) > 0.0)


def read_truth(path: Path) -> GroundTruth:
    header, rows, file_rows = _read_table(path, truth_header(0))
    n = (len(header) - 13) // 9
    if len(header) != 13 + 9 * n:
        raise ParseError(path, 1, "unexpected truth column count")
    data = np.asarray(rows, dtype=float)
    if not data.size:
        raise ParseError(path, 2, "empty truth file")
    _check_sorted(path, data[:, 0], file_rows)
    t = data[:, 0]
    r = data[:, 1:10].reshape(-1, 3, 3)
    bias = data[:, 10:13]
    with np.errstate(over="ignore"):
        bias_sq = np.einsum("ki,ki->k", bias, bias)
    for bad, what in ((_not_rotation(r), "attitude r11..r33 is not a rotation"),
                      (_not_rotation(data[:, 13:].reshape(len(data), n, 3, 3)).any(axis=1),
                       "a calibration block is not a rotation"),
                      (~np.isfinite(bias_sq), "bias overflows: b.b is not finite")):
        if bad.any():
            raise ParseError(path, file_rows[int(np.argmax(bad))], what)
    cal = [data[0, 13 + 9 * i: 22 + 9 * i].reshape(3, 3) for i in range(n)]
    return GroundTruth(t, r, bias, cal)


def estimate_header(n: int, dim: int) -> list[str]:
    return truth_header(n) + [f"sd{i}" for i in range(1, dim + 1)]


def write_estimates(path: Path, est: EstimateSeries) -> None:
    _write_columns(path, estimate_header(est.C.shape[1], est.sigma_diag.shape[1]),
                   est.t, est.R, est.b, est.C, est.sigma_diag)


def error_header(n: int) -> list[str]:
    return ["t", "att_deg", "bias_rads"] + [f"cal{j}_deg" for j in range(1, n + 1)]


def write_error_series(path: Path, err: ErrorSeries) -> None:
    _write_columns(path, error_header(err.cal_deg.shape[1]),
                   err.t, err.att_deg, err.bias, err.cal_deg)


REPORT_HEADER = ["filter", "phase", "att_deg", "bias", "cal_deg", "runtime_s"]


def write_report(path: Path, rows: list[dict]) -> None:
    write_table(path, REPORT_HEADER, ([row.get(k) for k in REPORT_HEADER] for row in rows))


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
