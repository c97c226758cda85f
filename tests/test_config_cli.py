import configparser
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abc_eqf.cli import main
from abc_eqf.config import (
    ConfigError,
    default_config,
    echo_config,
    load_config,
    validate_config,
)

CONFIG_TEXT = """
[run]
seed = 11
duration = 1.0
filter = both

[trajectory]
rate = 200.0

[noise]
sigma_w = 8.73e-4
sigma_bw = 1.75e-5

[sensor.mag]
kind = fixed
calibrated = true
sigma_y = 0.2
rate = 100.0
reference = 1 0 -1

[sensor.gnss]
kind = gnss
calibrated = false
sigma_y = 0.1
rate = 20.0
body_axis = 0 1 0
baseline = 1.0
pos_std = 0.1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    return path


def test_load_config(config_file):
    cfg = load_config(config_file)
    assert cfg.seed == 11
    assert len(cfg.sensors) == 2 and cfg.n_cal == 1
    assert abs(np.linalg.norm(cfg.sensors[0].reference) - 1.0) < 1e-12


def test_config_echo_round_trip(tmp_path, config_file):
    cfg = load_config(config_file)
    echoed = tmp_path / "resolved.ini"
    echo_config(cfg, echoed)
    cfg2 = load_config(echoed)
    assert cfg2.seed == cfg.seed
    assert cfg2.duration == cfg.duration
    assert np.array_equal(cfg2.sensors[0].reference, cfg.sensors[0].reference)
    assert cfg2.sensors[1].baseline == cfg.sensors[1].baseline


# echo_config(default_config()): key order and float format are part of the
# provenance record that every run writes
DEFAULT_ECHO = """\
[run]
seed = 0
duration = 70.0
filter = both
residual_mode = subtract
md_mode = analytic
gyro_rate = 200.0

[trajectory]
rate = 200.0
amp_min = 0.2
amp_max = 0.8
freq_min = 0.1
freq_max = 0.5

[noise]
sigma_w = 0.000873
sigma_bw = 1.75e-05
sigma_kappa = 0.0001

[init]
att_err_deg = 10.0
cal_err_deg = 20.0
bias_init_std = 0.02
sigma0_att_deg = 20.0
sigma0_bias = 0.05
sigma0_cal_deg = 30.0

[sensor.mag]
kind = fixed
calibrated = true
sigma_y = 0.2
rate = 100.0
dropout = 0.0
jitter = 0.0
reference = 0.70710678118654746 0 -0.70710678118654746

[sensor.gnss]
kind = gnss
calibrated = false
sigma_y = 0.1
rate = 20.0
dropout = 0.0
jitter = 0.0
body_axis = 0 1 0
baseline = 1.0
pos_std = 0.1

"""


def test_config_echo_default_golden_text(tmp_path):
    path = tmp_path / "resolved.ini"
    echo_config(default_config(), path)
    assert path.read_text() == DEFAULT_ECHO


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed = 1\nbogus = 2\n\n[sensor.a]\nrate = 100\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_config_rejects_misordered_sensors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("""
[sensor.a]
calibrated = false
rate = 100

[sensor.b]
calibrated = true
rate = 100
""")
    with pytest.raises(ConfigError, match="calibrated"):
        load_config(path)


def test_config_rejects_bad_rate(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sensor.a]\ncalibrated = false\nrate = 130\n")
    with pytest.raises(ConfigError, match="rate"):
        load_config(path)


@pytest.mark.parametrize("section, old, new", [
    ("noise", "sigma_w = 8.73e-4", "sigma_w = nan"),
    ("run", "duration = 1.0", "duration = inf"),
    ("sensor.mag", "reference = 1 0 -1", "reference = 1 nan -1"),
    ("sensor.gnss", "baseline = 1.0", "baseline = -inf"),
])
def test_config_rejects_non_finite_value(tmp_path, capsys, section, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG_TEXT.replace(old, new))
    key = new.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be finite"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Finite values whose square overflows a float: the filters square each of
# these into a variance.
OVERFLOWING = [("noise", "sigma_w", "1e200"), ("noise", "sigma_bw", "-1e200"),
               ("noise", "sigma_kappa", "1e160"), ("init", "sigma0_att_deg", "1e200"),
               ("init", "sigma0_bias", "1e160"), ("init", "sigma0_cal_deg", "1e200"),
               ("sensor.mag", "sigma_y", "1e200"), ("sensor.gnss", "sigma_y", "1e160")]


def _config_with(section, key, value):
    """CONFIG_TEXT with [section] key set to value."""
    parser = configparser.ConfigParser()
    parser.read_string(CONFIG_TEXT)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@pytest.mark.parametrize("section, key, value", OVERFLOWING)
def test_config_rejects_value_whose_square_overflows(tmp_path, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(_config_with(section, key, value))
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = .* square overflows"):
        load_config(path)


@pytest.mark.parametrize("attr", ["sigma_w", "sigma_kappa", "sigma0_att_deg", "sigma0_bias"])
def test_validate_config_rejects_value_whose_square_overflows(attr):
    cfg = default_config(seed=3)
    setattr(cfg, attr, 1e155)
    with pytest.raises(ConfigError, match=f"{attr} = 1e\\+155 is too large"):
        validate_config(cfg)
    cfg = default_config(seed=3)
    cfg.sensors[1].sigma_y = -1e155
    with pytest.raises(ConfigError, match=r"\[sensor.gnss\] sigma_y"):
        validate_config(cfg)


@pytest.mark.parametrize("section, key, value", OVERFLOWING)
def test_cli_run_rejects_value_whose_square_overflows(tmp_path, config_file, capsys,
                                                      section, key, value):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ini"
    bad.write_text(_config_with(section, key, value))
    assert main(["run", "--config", str(bad), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: [{section}] {key} = {float(value)!r} "
                                "is too large: its square overflows"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[noise]\nsigma_w = 1e-3\nsigma_w = 2e-3\n", "option 'sigma_w' in section 'noise' already exists"),
    ("seed = 3\n", "File contains no section headers."),
    ("[run]\nseed = 3\ngarbage\n", "Source contains parsing errors"),
    ("[run]\nseed = 5%\n", "'%' must be followed by '%' or '('"),
], ids=["duplicate_key", "no_section", "no_equals", "bad_interpolation"])
def test_cli_config_syntax_error_is_one_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {bad}: ") and message in err[0]


# Σ overflows within a second at a noise density whose square is finite.
@pytest.mark.parametrize("kind", ["eqf", "iekf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_non_finite_covariance_is_data_error(tmp_path, config_file, capsys, kind):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ini"
    bad.write_text(_config_with("noise", "sigma_w", "1e154"))
    assert main(["run", "--config", str(bad), "--filter", kind, "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(rf"data error: {kind}: first non-finite estimate or covariance "
                        r"at gyro step \d+ \(t = [0-9.e+-]+ s\)", err[0])
    assert not (tmp_path / "out" / f"est_{kind}.csv").exists()


def test_default_config_is_valid():
    cfg = default_config(seed=3)
    assert cfg.n_cal == 1
    validate_config(cfg)


def _hash_dir(path):
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def test_cli_simulate_row_count_and_determinism(tmp_path, config_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    gyro_lines = (out1 / "gyro.csv").read_text().splitlines()
    assert len(gyro_lines) == 200 + 1   # 1 s at 200 Hz plus header
    assert _hash_dir(out1) == _hash_dir(out2)
    assert (out1 / "dir_mag.csv").exists()
    assert (out1 / "dir_gnss.csv").exists()
    assert (out1 / "truth.csv").exists()
    assert (out1 / "config_resolved.ini").exists()


def test_cli_run_produces_estimates_and_errors(tmp_path, config_file):
    logs = tmp_path / "logs"
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(out)]) == 0
    for kind in ("eqf", "iekf"):
        assert (out / f"est_{kind}.csv").exists()
        assert (out / f"err_{kind}.csv").exists()
    est_lines = (out / "est_eqf.csv").read_text().splitlines()
    assert len(est_lines) == 200 + 1


def test_cli_run_single_filter(tmp_path, config_file):
    logs = tmp_path / "logs"
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_file), "--out", str(logs)])
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(out), "--filter", "eqf"]) == 0
    assert (out / "est_eqf.csv").exists()
    assert not (out / "est_iekf.csv").exists()


def test_cli_exit_codes(tmp_path, config_file):
    # config error -> 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nfilter = nope\n\n[sensor.a]\nrate = 100\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    # data error -> 2
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "gyro.csv").write_text("t,wx,wy\n")
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "y")]) == 2
    # usage error -> 1; the child imports abc_eqf from this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "abc_eqf.cli", "--nope"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "usage: abc-eqf" in proc.stderr


def test_cli_run_duplicate_gyro_time_is_data_error(tmp_path, config_file, capsys):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    lines = (logs / "gyro.csv").read_text().splitlines()
    lines.insert(101, lines[100])            # repeat data row 100 (file row 101)
    (logs / "gyro.csv").write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 2
    assert "gyro.csv:102" in capsys.readouterr().err


@pytest.mark.parametrize("name, cols, value", [
    ("gyro.csv", slice(1, 2), "nan"),            # wx
    ("gyro.csv", slice(3, 4), "inf"),            # wz
    ("dir_mag.csv", slice(1, 4), "0"),           # measured direction
    ("dir_gnss.csv", slice(4, 7), "0.0"),        # time-varying reference
])
def test_cli_run_bad_value_is_data_error(tmp_path, config_file, capsys, name, cols, value):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    lines = (logs / name).read_text().splitlines()
    fields = lines[10].split(",")                # data row 10 (file row 11)
    fields[cols] = [value] * (cols.stop - cols.start)
    lines[10] = ",".join(fields)
    (logs / name).write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{name}:11" in capsys.readouterr().err


def test_cli_run_empty_gyro_log_is_data_error(tmp_path, config_file, capsys):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    gyro = logs / "gyro.csv"
    gyro.write_text(gyro.read_text().splitlines()[0] + "\n")     # header row only
    for with_truth in (True, False):
        if not with_truth:
            (logs / "truth.csv").unlink()
        assert main(["run", "--config", str(config_file), "--logs", str(logs),
                     "--out", str(tmp_path / "out")]) == 2
        assert "gyro.csv:2: empty gyro file" in capsys.readouterr().err


def test_cli_run_ignores_measurements_after_last_gyro(tmp_path, config_file):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "a")]) == 0
    t_end = float((logs / "gyro.csv").read_text().splitlines()[-1].split(",")[0])
    with open(logs / "dir_mag.csv", "a", encoding="utf-8") as fh:
        fh.write(f"{t_end + 1.0!r},1.0,0.0,0.0\n")
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "b")]) == 0
    for kind in ("eqf", "iekf"):
        a = (tmp_path / "a" / f"est_{kind}.csv").read_bytes()
        assert (tmp_path / "b" / f"est_{kind}.csv").read_bytes() == a


def test_cli_run_log_clock_not_starting_at_zero(tmp_path, config_file):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "a")]) == 0
    for path in logs.glob("*.csv"):              # every timestamp + 1000 s
        lines = path.read_text().splitlines()
        for i in range(1, len(lines)):
            t, rest = lines[i].split(",", 1)
            lines[i] = f"{float(t) + 1000.0!r},{rest}"
        path.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "b")]) == 0
    for kind in ("eqf", "iekf"):
        a = np.loadtxt(tmp_path / "a" / f"est_{kind}.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(tmp_path / "b" / f"est_{kind}.csv", delimiter=",", skiprows=1)
        assert np.allclose(b[:, 0] - a[:, 0], 1000.0, rtol=0.0, atol=1e-9)
        assert np.max(np.abs(b[:, 1:] - a[:, 1:])) < 1e-9


def test_cli_montecarlo_and_compare(tmp_path, config_file):
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config_file), "--runs", "2",
                 "--out", str(out)]) == 0
    assert (out / "per_run.csv").exists()
    assert (out / "rmse_report.csv").exists()
    assert (out / "comparison.txt").exists()
    cmp_out = tmp_path / "cmp"
    assert main(["compare", str(out / "rmse_report.csv"), "--out", str(cmp_out)]) == 0
    assert (cmp_out / "comparison.csv").exists()


def test_cli_montecarlo_single_run_matches_single(tmp_path, config_file):
    out = tmp_path / "mc1"
    assert main(["montecarlo", "--config", str(config_file), "--runs", "1",
                 "--out", str(out), "--filter", "eqf"]) == 0
    per_run = (out / "per_run.csv").read_text().splitlines()
    report = (out / "rmse_report.csv").read_text().splitlines()
    assert len(per_run) == 2
    # aggregate of one run equals that run
    att_run = float(per_run[1].split(",")[2])
    att_agg = float(report[1].split(",")[2])
    assert abs(att_run - att_agg) < 1e-15


def test_mc_deterministic_across_worker_counts(config_file):
    from abc_eqf.runner import montecarlo

    cfg = load_config(config_file)
    a = montecarlo(cfg, runs=3, workers=1)
    b = montecarlo(cfg, runs=3, workers=3)
    for kind in ("eqf", "iekf"):
        for phase in ("transient", "asymptotic"):
            for key in ("att_deg", "bias", "cal_deg"):
                va = getattr(a.aggregate[kind], phase)[key]
                vb = getattr(b.aggregate[kind], phase)[key]
                assert va == vb


def test_cli_bench_phi_smoke(tmp_path, capsys):
    assert main(["bench-phi", "--steps", "60", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "(i) closed form" in text
    assert (tmp_path / "bench_phi.csv").exists()
