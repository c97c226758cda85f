import csv

import numpy as np
import pytest

from abc_eqf import csvio
from abc_eqf.eqf import DirectionMeasurement
from abc_eqf.lie import exp_so3
from abc_eqf.metrics import EstimateSeries
from abc_eqf.sim import GroundTruth


def test_gyro_round_trip(tmp_path, rng):
    t = np.arange(50) / 200.0
    omega = rng.normal(size=(50, 3))
    path = tmp_path / "gyro.csv"
    csvio.write_gyro(path, t, omega)
    t2, omega2 = csvio.read_gyro(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(omega, omega2)
    header = path.read_text().splitlines()[0]
    assert header == "t,wx,wy,wz"


def test_gyro_missing_column(tmp_path):
    path = tmp_path / "gyro.csv"
    path.write_text("t,wx,wy\n0.0,1.0,2.0\n")
    with pytest.raises(csvio.ParseError, match="wz"):
        csvio.read_gyro(path)


def test_gyro_bad_value_has_row_number(tmp_path):
    path = tmp_path / "gyro.csv"
    path.write_text("t,wx,wy,wz\n0.0,1.0,2.0,3.0\n0.005,oops,2.0,3.0\n")
    with pytest.raises(csvio.ParseError, match="gyro.csv:3"):
        csvio.read_gyro(path)


def test_gyro_unsorted_rejected(tmp_path):
    path = tmp_path / "gyro.csv"
    path.write_text("t,wx,wy,wz\n0.1,0,0,0\n0.05,0,0,0\n")
    with pytest.raises(csvio.ParseError, match="sorted"):
        csvio.read_gyro(path)


@pytest.mark.parametrize("name, text, row", [
    # a repeated gyro time at file row 6, below a blank line at row 4
    ("gyro.csv", "t,wx,wy,wz\n0.0,0,0,0\n0.005,0,0,0\n\n0.01,0,0,0\n0.01,0,0,0\n", 6),
    # an all-zero direction at file row 4, below a blank line at row 3
    ("dir_mag.csv", "t,yx,yy,yz\n0.0,1,0,0\n\n0.01,0,0,0\n", 4),
], ids=["gyro", "directions"])
def test_row_number_counts_blank_lines(tmp_path, name, text, row):
    path = tmp_path / name
    path.write_text(text)
    read = csvio.read_gyro if name == "gyro.csv" else lambda p: csvio.read_directions(p, "mag")
    with pytest.raises(csvio.ParseError, match=f"{name}:{row}:"):
        read(path)


def test_directions_repeated_time_accepted(tmp_path):
    path = tmp_path / "dir_mag.csv"
    path.write_text("t,yx,yy,yz\n0.01,1,0,0\n0.01,0,1,0\n")
    assert [m.t for m in csvio.read_directions(path, "mag")] == [0.01, 0.01]


def test_directions_round_trip_fixed_reference(tmp_path, rng):
    meas = [DirectionMeasurement(k * 0.01, "mag", rng.normal(size=3))
            for k in range(20)]
    path = tmp_path / "dir_mag.csv"
    csvio.write_directions(path, meas)
    assert path.read_text().splitlines()[0] == "t,yx,yy,yz"
    back = csvio.read_directions(path, "mag")
    assert len(back) == 20
    for a, b in zip(meas, back):
        assert a.t == b.t
        assert np.array_equal(a.y, b.y)
        assert b.reference is None


def test_directions_round_trip_time_varying(tmp_path, rng):
    meas = [DirectionMeasurement(k * 0.05, "gnss", rng.normal(size=3),
                                 rng.normal(size=3))
            for k in range(10)]
    path = tmp_path / "dir_gnss.csv"
    csvio.write_directions(path, meas)
    assert path.read_text().splitlines()[0] == "t,yx,yy,yz,dx,dy,dz"
    back = csvio.read_directions(path, "gnss")
    for a, b in zip(meas, back):
        assert np.array_equal(a.reference, b.reference)


def test_truth_round_trip(tmp_path, rng):
    k = 12
    t = np.arange(k) / 100.0
    r = np.stack([exp_so3(rng.normal(size=3)) for _ in range(k)])
    bias = rng.normal(size=(k, 3))
    cal = [exp_so3(rng.normal(size=3)) for _ in range(2)]
    truth = GroundTruth(t, r, bias, cal)
    path = tmp_path / "truth.csv"
    csvio.write_truth(path, truth)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["t", "r11", "r12", "r13"]
    assert "c111" in header and "c233" in header
    back = csvio.read_truth(path)
    assert np.array_equal(back.t, t)
    assert np.array_equal(back.R, r)
    assert np.array_equal(back.bias, bias)
    for a, b in zip(cal, back.cal):
        assert np.array_equal(a, b)


def test_estimates_schema(tmp_path, rng):
    k, n = 5, 1
    est = EstimateSeries(np.arange(k) * 0.005,
                         np.stack([np.eye(3)] * k),
                         rng.normal(size=(k, 3)),
                         np.stack([np.stack([np.eye(3)] * n)] * k),
                         rng.uniform(0.1, 1.0, size=(k, 9)))
    path = tmp_path / "est_eqf.csv"
    csvio.write_estimates(path, est)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and "sd9" in header and "c133" in header
    assert len(path.read_text().splitlines()) == k + 1


def test_report_round_trip(tmp_path):
    rows = [
        {"filter": "eqf", "phase": "transient", "att_deg": 3.5, "bias": 0.028,
         "cal_deg": 5.8, "runtime_s": 4.2},
        {"filter": "eqf", "phase": "asymptotic", "att_deg": 1.4, "bias": 0.0035,
         "cal_deg": 0.7, "runtime_s": None},
    ]
    path = tmp_path / "rmse.csv"
    csvio.write_report(path, rows)
    back = csvio.read_report(path)
    assert back[0]["filter"] == "eqf"
    assert back[0]["att_deg"] == 3.5
    assert back[0]["runtime_s"] == 4.2
    assert back[1]["runtime_s"] is None


def test_float_precision_survives_round_trip(tmp_path):
    t = np.array([0.0, 1.0 / 3.0])
    omega = np.array([[np.pi, np.e, 1e-17], [1.0 + 2 ** -52, -1e300, 5e-324]])
    path = tmp_path / "gyro.csv"
    csvio.write_gyro(path, t, omega)
    _, back = csvio.read_gyro(path)
    assert np.array_equal(back, omega)


def test_write_columns_bytes_match_csv_writer(tmp_path):
    """One format call per row writes the bytes of csv.writer over the
    per-cell _fmt strings, signed zero, subnormals and extremes included."""
    values = np.array([[-0.0, 5e-324, 1e300, 1.0],
                       [-1.0, -5e-324, -1e300, -0.1],
                       [0.0, 1.0 / 3.0, -2.5e-17, 123456789.123]])
    header = ["a", "b", "c", "d"]
    path = tmp_path / "fast.csv"
    csvio._write_columns(path, header, values)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([csvio._fmt(v) for v in row] for row in values.tolist())
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().split(b"\r\n")[1] == \
        b"-0,4.9406564584124654e-324,1.0000000000000001e+300,1"


@pytest.mark.parametrize("col, value, message", [
    ("r11", "1e200", "attitude"),
    ("r22", "0.5", "attitude"),
    ("c112", "1e200", "calibration"),
    ("c133", "-1", "calibration"),
    ("by", "1e200", "bias"),
])
def test_truth_rejects_non_rotation_and_overflowing_bias(tmp_path, rng, col, value, message):
    k = 6
    truth = GroundTruth(np.arange(k) / 100.0,
                        np.stack([exp_so3(rng.normal(size=3)) for _ in range(k)]),
                        rng.normal(size=(k, 3)),
                        [exp_so3(rng.normal(size=3))])
    path = tmp_path / "truth.csv"
    csvio.write_truth(path, truth)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[lines[0].split(",").index(col)] = value
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(csvio.ParseError, match=rf"truth.csv:5: .*{message}"):
        csvio.read_truth(path)
