"""The array measurement log: its grouping against the library loop's walk
(conftest.loop_groups), schedules from the simulator's arrays, from
DirectionMeasurement objects and from the CSV files, and the CSV reader's
one-call parse against its row parser."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abc_eqf import csvio
from abc_eqf.cli import main
from abc_eqf.config import RunConfig, SensorConfig, load_config, validate_config
from abc_eqf.eqf import DirectionMeasurement
from abc_eqf.runner import STACK_TIME_TOL, build_schedule, tick_groups
from abc_eqf.sim import MeasurementLog, as_log, simulate_run

from conftest import loop_groups

DT = 0.005
SENSORS = "abc"
REFS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, -0.8])

# gaps between neighbours of a chain: ties, near ties on either side of the
# tolerance, and a gap of 1e-13 that the 1e-12 due slack swallows
GAPS = [0.0, 1e-13, 0.2 * STACK_TIME_TOL, 0.5 * STACK_TIME_TOL, 0.99 * STACK_TIME_TOL,
        STACK_TIME_TOL, 1.01 * STACK_TIME_TOL]


@st.composite
def run_times(draw, k: int) -> list[float]:
    """Chains of stamps, each within 1e-6 s of the last, starting anywhere
    from before the first gyro sample to past the last one, or next to a
    gyro sample."""
    times = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            t = draw(st.floats(-0.01, k * DT + 0.01, allow_nan=False))
        else:
            t = draw(st.integers(0, k)) * DT + draw(st.sampled_from([-1e-12, 0.0, 5e-13, 2e-12]))
        times.append(t)
        for gap in draw(st.lists(st.sampled_from(GAPS), max_size=5)):
            t += gap
            times.append(t)
    return times


@st.composite
def batches(draw):
    k = draw(st.integers(1, 12))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        times = draw(run_times(k))
        ids = draw(st.lists(st.sampled_from(SENSORS), min_size=len(times),
                            max_size=len(times)))
        # a distinct unit direction per measurement names it in the schedule
        meas = [DirectionMeasurement(t, sid, np.array([math.cos(0.1 * i), math.sin(0.1 * i), 0.0]))
                for i, (t, sid) in enumerate(zip(times, ids))]
        runs.append(sorted(meas, key=lambda m: (m.t, m.sensor_id)))
    return np.arange(k) * DT, runs


def _config() -> RunConfig:
    return validate_config(RunConfig(sensors=[
        SensorConfig(sid, "fixed", sid == "a", 0.1, 100.0, reference=np.array(ref))
        for sid, ref in zip(SENSORS, REFS)]))


def _schedule_groups(schedule, runs: int) -> list[list]:
    """Each run's (step, directions of the group) pairs, step by step and
    slot by slot, from the schedule's buckets."""
    out = [[] for _ in range(runs)]
    for k, buckets in enumerate(schedule.updates):
        for b in buckets:
            for i, r in enumerate(b.rows.tolist()):
                out[r].append((k, (b.y if runs == 1 else b.y[i]).tolist()))
    return out


@settings(max_examples=200, deadline=None)
@given(batches())
def test_array_grouping_matches_the_loop(batch):
    """tick_groups and the schedule's buckets hold the groups of the loop's
    walk: chains longer than the tolerance split where the walk splits them,
    several groups share a step, and measurements past the last gyro sample
    start none."""
    gyro_t, runs = batch
    for meas in runs:
        want = loop_groups(gyro_t, meas)
        got = tick_groups(gyro_t, meas)
        assert [(k, [id(m) for m in g]) for k, g in got] == \
            [(k, [id(m) for m in g]) for k, g in want]
    omega = np.zeros((gyro_t.size, 3))
    schedule = build_schedule(_config(), [gyro_t] * len(runs), [omega] * len(runs), runs,
                              None if len(runs) == 1 else 0)
    for meas, got in zip(runs, _schedule_groups(schedule, len(runs))):
        assert got == [(k, [m.y.tolist() for m in g]) for k, g in loop_groups(gyro_t, meas)]


def test_grouping_chains_from_the_first_member():
    """Stamps 0.6e-6 s apart chain past 1e-6 s: the third starts a group."""
    gyro_t = np.array([0.0, DT])
    meas = [DirectionMeasurement(t, "a", np.array([1.0, 0.0, 0.0]))
            for t in (0.001, 0.001 + 6e-7, 0.001 + 1.2e-6, 0.001 + 1.8e-6)]
    assert [(k, [m.t for m in g]) for k, g in tick_groups(gyro_t, meas)] == [
        (1, [0.001, 0.001 + 6e-7]), (1, [0.001 + 1.2e-6, 0.001 + 1.8e-6])]


CAL3 = """
[run]
seed = 7
duration = 1.0

[sensor.mag1]
kind = fixed
calibrated = true
sigma_y = 0.1
rate = 100.0
jitter = 0.002
reference = 1 0 0

[sensor.sun]
kind = fixed
calibrated = true
sigma_y = 0.1
rate = 100.0
dropout = 0.1
reference = 0 0.6 -0.8

[sensor.gnss]
kind = gnss
sigma_y = 0.1
rate = 20.0
"""


def _buckets(schedule):
    return [(k, b) for k, buckets in enumerate(schedule.updates) for b in buckets]


def test_schedules_from_arrays_objects_and_csv_are_identical(tmp_path):
    ini = tmp_path / "cal3.ini"
    ini.write_text(CAL3)
    cfg = load_config(ini)
    data = simulate_run(cfg)
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "logs")]) == 0
    gyro_t, omega = csvio.read_gyro(tmp_path / "logs" / "gyro.csv")
    read = MeasurementLog.merge([
        csvio.read_directions(tmp_path / "logs" / f"dir_{s.sensor_id}.csv", s.sensor_id,
                              s.kind == "gnss") for s in cfg.sensors])
    schedules = [build_schedule(cfg, [data.gyro_t], [data.gyro_omega], [log], None)
                 for log in (data.log, data.measurements)]
    schedules.append(build_schedule(cfg, [gyro_t], [omega], [read], None))
    want = _buckets(schedules[0])
    assert len(want) > 100
    for schedule in schedules[1:]:
        got = _buckets(schedule)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.cal_cols == b.cal_cols and a.bound == b.bound
            for field in ("rows", "names", "factor", "var", "y", "refs", "table", "index"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_log_and_objects_round_trip(tmp_path):
    ini = tmp_path / "cal3.ini"
    ini.write_text(CAL3)
    data = simulate_run(load_config(ini))
    log = data.log
    assert np.all(np.diff(log.t) >= 0.0)
    assert list(log.ids) == sorted(log.ids)
    back = as_log(data.measurements)
    for field in ("t", "sensor", "y", "reference"):
        np.testing.assert_array_equal(getattr(back, field), getattr(log, field))
    assert back.ids == log.ids
    m = log[3]
    assert (m.t, m.sensor_id) == (data.measurements[3].t, data.measurements[3].sensor_id)
    assert len(log.select("gnss")) == sum(m.sensor_id == "gnss" for m in data.measurements)


# ---------------------------------------------------------------------------
# The one-call parse and its fallback


def _row_parser(monkeypatch):
    """Make _read_table use its row parser alone."""
    monkeypatch.setattr(csvio, "_parse_fast", lambda path, required: None)


@pytest.mark.parametrize("text, row, message", [
    ("t,wx,wy,wz\n0,0,0,0\n0.005,nan,0,0\n", 3, "non-finite value nan in column 'wx'"),
    ("t,wx,wy,wz\n0,0,0,0\n0.005,0,-inf,0\n", 3, "non-finite value -inf in column 'wy'"),
    ("t,wx,wy,wz\n0,0,0,0\n#0.005,0,0,0\n", 3, "could not convert string to float: '#0.005'"),
    ("t,wx,wy,wz\r\n0,0,0,0\r\n0.005,0,0\r\n", 3, "expected 4 fields, got 3"),
    ("t,wx,wy,wz\n0,0,0,0,\n0.005,0,0,0,\n", 2, "expected 4 fields, got 5"),
    ("t,wx,wy,wz\n0,0,0,0\n\n0.005,x,0,0\n", 4, "could not convert string to float: 'x'"),
    ('t,wx,wy,wz\n0,0,0,0\n0.005,"1,5",0,0\n', 3, "could not convert string to float: '1,5'"),
    ("t,wx,wy,wz\n0,0,0,0\n0.01,0,0,0\n0.005,0,0,0\n", 4,
     "timestamps are not sorted (strictly increasing required)"),
    ("t,wx,wy,wz\n0,0,0,0\n0.005,0,0,0\n0.005,0,0,0\n", 4,
     "timestamps are not sorted (strictly increasing required)"),
    ("t,wx,wy,wz\n", 2, "empty gyro file"),
], ids=["nan", "inf", "hash", "short-row", "trailing-comma", "blank-line", "quoted",
        "unsorted", "repeated", "header-only"])
def test_gyro_errors_keep_their_text_and_row(tmp_path, monkeypatch, text, row, message):
    path = tmp_path / "gyro.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(csvio.ParseError) as fast:
            csvio.read_gyro(path)
    assert str(fast.value) == f"{path}:{row}: {message}"
    _row_parser(monkeypatch)
    with pytest.raises(csvio.ParseError) as slow:
        csvio.read_gyro(path)
    assert str(slow.value) == str(fast.value)


@pytest.mark.parametrize("text, row, message", [
    ("t,yx,yy,yz\n0,1,0,0\n0.01,inf,0,0\n", 3, "non-finite value inf in column 'yx'"),
    ("t,yx,yy,yz\n0,1,0,0\n\n\n0.01,0,0,0\n", 5, "all-zero direction"),
    ("t,yx,yy,yz\n0.01,1,0,0\n0.005,1,0,0\n", 3,
     "timestamps are not sorted (non-decreasing required)"),
    ("t,yx,yy,yz\n0,1,0\n", 2, "expected 4 fields, got 3"),
], ids=["inf", "zero-after-blank-lines", "unsorted", "short-row"])
def test_direction_errors_keep_their_text_and_row(tmp_path, monkeypatch, text, row, message):
    path = tmp_path / "dir_mag.csv"
    path.write_text(text)
    with pytest.raises(csvio.ParseError) as fast:
        csvio.read_directions(path, "mag")
    assert str(fast.value) == f"{path}:{row}: {message}"
    _row_parser(monkeypatch)
    with pytest.raises(csvio.ParseError) as slow:
        csvio.read_directions(path, "mag")
    assert str(slow.value) == str(fast.value)


@pytest.mark.parametrize("text, want", [
    ("t,wx,wy,wz\n0,1_0,0,0\n", [[0.0, 10.0, 0.0, 0.0]]),
    ('t,wx,wy,wz\n0,"0.5",0,0\n', [[0.0, 0.5, 0.0, 0.0]]),
    ("t,wx,wy,wz\r\n0, 0.5 ,0,0\r\n\r\n0.005,0,0,1e-3\r\n", [[0.0, 0.5, 0.0, 0.0],
                                                             [0.005, 0.0, 0.0, 1e-3]]),
], ids=["underscore", "quoted", "blank-line"])
def test_row_parser_values_are_kept(tmp_path, text, want):
    """Cells that float() reads and loadtxt does not (or rows it cannot
    number) still parse, as float() reads them."""
    path = tmp_path / "gyro.csv"
    path.write_text(text)
    t, omega = csvio.read_gyro(path)
    np.testing.assert_array_equal(np.column_stack((t, omega)), want)


def test_header_only_directions_read_empty_without_warning(tmp_path):
    path = tmp_path / "dir_gnss.csv"
    path.write_text("t,yx,yy,yz,dx,dy,dz\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = csvio.read_directions(path, "gnss", references=True)
    assert len(log) == 0 and log.y.shape == (0, 3)


def test_one_call_parse_matches_the_row_parser_bit_for_bit(tmp_path, monkeypatch):
    ini = tmp_path / "cal3.ini"
    ini.write_text(CAL3)
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "logs")]) == 0
    paths = sorted((tmp_path / "logs").glob("*.csv"))
    fast = {p.name: csvio._read_table(p, ["t"]) for p in paths}
    assert all(isinstance(rows, range) for _, _, rows in fast.values())     # no fallback
    _row_parser(monkeypatch)
    for p in paths:
        header, data, rows = csvio._read_table(p, ["t"])
        assert header == fast[p.name][0]
        assert list(rows) == list(fast[p.name][2])
        np.testing.assert_array_equal(data, fast[p.name][1])
        assert data.tobytes() == fast[p.name][1].tobytes()
