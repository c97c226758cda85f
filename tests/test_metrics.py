import numpy as np
import pytest
from numpy.testing import assert_allclose

from abc_eqf.lie import exp_so3
from abc_eqf.metrics import (
    EmptyWindowError,
    ErrorSeries,
    EstimateSeries,
    MisalignedError,
    RmseReport,
    compare_report,
    error_series,
    interpolate_truth,
    mc_aggregate,
    report_from_series,
    rmse,
)
from abc_eqf.sim import GroundTruth


def constant_truth(k=10, rate=10.0, n=1):
    t = np.arange(k) / rate
    r = np.broadcast_to(np.eye(3), (k, 3, 3)).copy()
    bias = np.zeros((k, 3))
    cal = [np.eye(3) for _ in range(n)]
    return GroundTruth(t, r, bias, cal)


def estimate_like(truth, n=1):
    k = truth.t.size
    return EstimateSeries(truth.t.copy(),
                          truth.R.copy(),
                          truth.bias.copy(),
                          np.broadcast_to(np.eye(3), (k, n, 3, 3)).copy(),
                          np.zeros((k, 6 + 3 * n)))


def test_error_series_zero_for_perfect_estimate():
    truth = constant_truth()
    err = error_series(truth, estimate_like(truth))
    assert np.max(err.att_deg) == 0.0
    assert np.max(err.bias) == 0.0
    assert np.max(err.cal_deg) == 0.0


def test_error_series_known_rotation_offset():
    truth = constant_truth()
    est = estimate_like(truth)
    offset = exp_so3(np.array([0.1, 0.0, 0.0]))
    est.R = np.einsum("kij,jl->kil", truth.R, offset)
    err = error_series(truth, est)
    assert_allclose(err.att_deg, np.degrees(0.1), rtol=1e-12)


def test_interpolate_truth_geodesic_midpoint():
    v = np.array([0.0, 0.0, 0.6])
    truth = GroundTruth(np.array([0.0, 1.0]),
                        np.stack([np.eye(3), exp_so3(v)]),
                        np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), [])
    r, b = interpolate_truth(truth, np.array([0.5]))
    assert_allclose(r[0], exp_so3(0.5 * v), atol=1e-12)
    assert_allclose(b[0], [0.5, 0.5, 0.5])


def test_interpolate_truth_rejects_misaligned():
    truth = constant_truth()
    with pytest.raises(MisalignedError):
        interpolate_truth(truth, np.array([5.0]))


def test_rmse_examples():
    t = np.array([0.0, 1.0])
    assert rmse(np.array([2.5, 2.5]), t, (0.0, 2.0)) == 2.5
    assert abs(rmse(np.array([3.0, 4.0]), t, (0.0, 2.0)) - np.sqrt(12.5)) < 1e-12
    with pytest.raises(EmptyWindowError):
        rmse(np.array([1.0]), np.array([0.0]), (2.0, 3.0))


def test_rmse_scaling_property(rng):
    vals = rng.uniform(0.0, 2.0, 100)
    t = np.arange(100.0)
    base = rmse(vals, t, (0.0, 100.0))
    for alpha in (0.0, 0.5, 3.0):
        assert abs(rmse(alpha * vals, t, (0.0, 100.0)) - alpha * base) < 1e-12


def test_report_split_and_aggregate():
    t = np.arange(10) * 1.0
    err = ErrorSeries(t,
                      np.array([4.0] * 5 + [1.0] * 5),
                      np.array([0.2] * 5 + [0.1] * 5),
                      np.array([[8.0]] * 5 + [[2.0]] * 5))
    rep = report_from_series(err)      # splits at the midpoint, t = 4.5
    assert rep.transient["att_deg"] == 4.0
    assert rep.asymptotic["att_deg"] == 1.0
    assert rep.transient["cal_deg"] == 8.0
    agg = mc_aggregate([rep, rep, rep])
    for phase in ("transient", "asymptotic"):
        for key in ("att_deg", "bias", "cal_deg"):
            assert abs(getattr(agg, phase)[key] - getattr(rep, phase)[key]) < 1e-12


def _report(att_t, att_a, bias_t=0.03, bias_a=0.004, cal_t=6.0, cal_a=0.7):
    rep = RmseReport()
    rep.transient = {"att_deg": att_t, "bias": bias_t, "cal_deg": cal_t}
    rep.asymptotic = {"att_deg": att_a, "bias": bias_a, "cal_deg": cal_a}
    return rep


def test_compare_report_marks_minimum():
    text, rows = compare_report(
        {"eqf": _report(3.5331, 1.3870, bias_t=0.0280, cal_t=5.7892),
         "iekf": _report(4.9497, 1.3995, bias_t=0.0323, cal_t=8.0480)})
    lines = text.splitlines()
    eqf_t = next(line for line in lines if line.startswith("eqf (T)"))
    iekf_t = next(line for line in lines if line.startswith("iekf (T)"))
    assert "3.5331*" in eqf_t and "0.0280*" in eqf_t and "5.7892*" in eqf_t
    assert "*" not in iekf_t
    assert len(rows) == 4


def test_compare_report_marks_ties():
    text, _ = compare_report({"eqf": _report(3.0, 1.0, bias_a=0.0035),
                              "iekf": _report(4.0, 1.1, bias_a=0.0035)})
    tie_lines = [line for line in text.splitlines() if "(A)" in line]
    assert all("0.0035*" in line for line in tie_lines)


def test_compare_report_requires_two_filters():
    with pytest.raises(ValueError):
        compare_report({"eqf": _report(1.0, 1.0)})


def test_compare_report_runtime_row():
    text, rows = compare_report({"eqf": _report(3.0, 1.0), "iekf": _report(4.0, 1.1)},
                                runtimes={"eqf": 2.0, "iekf": 1.5})
    assert "100.0%" in text and "75.0%" in text
    assert rows[0]["runtime_pct"] == 100.0
