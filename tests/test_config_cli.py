import configparser
import hashlib
import io
import logging
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
    config_text,
    default_config,
    load_config,
    validate_config,
)
from abc_eqf.csvio import read_directions, read_gyro
from abc_eqf.eqf import InputRangeError
from abc_eqf.runner import build_sensors

from conftest import library_loop

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
    echoed.write_text(config_text(cfg))
    cfg2 = load_config(echoed)
    assert cfg2.seed == cfg.seed
    assert cfg2.duration == cfg.duration
    assert np.array_equal(cfg2.sensors[0].reference, cfg.sensors[0].reference)
    assert cfg2.sensors[1].baseline == cfg.sensors[1].baseline


# config_text(default_config()): key order and float format are part of the
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
rate = 20.0
dropout = 0.0
jitter = 0.0
body_axis = 0 1 0
baseline = 1.0
pos_std = 0.1

"""


def test_config_echo_default_golden_text():
    assert config_text(default_config()) == DEFAULT_ECHO


def test_gnss_sigma_y_is_derived_from_pos_std_and_baseline(tmp_path):
    """A gnss sensor's sigma_y key parses and is validated, but the filters
    take sqrt(2) pos_std / baseline, and the echo leaves the key out."""
    path = tmp_path / "run.ini"
    path.write_text(_config_with("sensor.gnss", "sigma_y", "5.0")
                    .replace("pos_std = 0.1", "pos_std = 0.05")
                    .replace("baseline = 1.0", "baseline = 2.0"))
    cfg = load_config(path)
    assert [s.sigma_y for s in build_sensors(cfg)] == [0.2, np.sqrt(2.0) * 0.05 / 2.0]
    echo = configparser.ConfigParser()
    echo.read_string(config_text(cfg))
    assert "sigma_y" in echo["sensor.mag"] and "sigma_y" not in echo["sensor.gnss"]


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


@pytest.mark.parametrize("section, key, value",
                         OVERFLOWING + [("sensor.gnss", "pos_std", "1e160")])
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


# The filter has one output residual and one discrete process noise; the
# [run] keys of the removed modes remain, and accept only the defaults.
@pytest.mark.parametrize("key, value, choices", [("residual_mode", "literal", "('subtract',)"),
                                                 ("md_mode", "first-order", "('analytic',)")])
def test_cli_run_rejects_removed_mode(tmp_path, config_file, capsys, key, value, choices):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ini"
    bad.write_text(_config_with("run", key, value))
    assert main(["run", "--config", str(bad), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: [run] {key} must be one of {choices}"]
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


# CONFIG_TEXT with a second calibrated fixed sensor
TWO_CAL_TEXT = CONFIG_TEXT.replace("[sensor.gnss]", """[sensor.mag2]
kind = fixed
calibrated = true
sigma_y = 0.2
rate = 100.0
reference = 0 0 1

[sensor.gnss]""")


@pytest.mark.parametrize("n_truth, n_est", [(1, 2), (2, 1)])
def test_cli_run_truth_with_other_calibration_count_is_data_error(tmp_path, capsys,
                                                                  n_truth, n_est):
    """A truth.csv whose calibrations the config's calibrated sensors do not
    match one to one is a data error, not an error series against the
    wrong calibration."""
    text = {1: CONFIG_TEXT, 2: TWO_CAL_TEXT}
    sim_cfg, run_cfg = tmp_path / "sim.ini", tmp_path / "run.ini"
    sim_cfg.write_text(text[n_truth])
    run_cfg.write_text(text[n_est])
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(logs)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(run_cfg), "--logs", str(logs),
                 "--out", str(tmp_path / "out"), "--filter", "eqf"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: numbers of calibration states differ: truth {n_truth}, "
        f"estimates {n_est}"]
    assert not (tmp_path / "out" / "err_eqf.csv").exists()


def test_cli_run_single_filter(tmp_path, config_file):
    logs = tmp_path / "logs"
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_file), "--out", str(logs)])
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(out), "--filter", "eqf"]) == 0
    assert (out / "est_eqf.csv").exists()
    assert not (out / "est_iekf.csv").exists()


def _run_into(config_file, logs, out):
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(out), "--filter", "eqf"]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_cli_rerun_into_one_out_matches_fresh_run(tmp_path, config_file):
    logs = tmp_path / "logs"
    main(["simulate", "--config", str(config_file), "--out", str(logs)])
    fresh = _run_into(config_file, logs, tmp_path / "fresh")
    assert sorted(fresh) == ["config_resolved.ini", "err_eqf.csv", "est_eqf.csv"]
    _run_into(config_file, logs, tmp_path / "out")
    assert _run_into(config_file, logs, tmp_path / "out") == fresh


@pytest.mark.parametrize("link", ["hard", "symbolic"])
def test_cli_run_replaces_a_link_at_an_output_path(tmp_path, config_file, link):
    """Each output is written as a new file: a link at its path is replaced,
    and the file it named keeps its bytes (nothing is truncated in place)."""
    logs = tmp_path / "logs"
    main(["simulate", "--config", str(config_file), "--out", str(logs)])
    fresh = _run_into(config_file, logs, tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    garbage = {}
    for name, data in fresh.items():
        garbage[name] = b"stale row\r\n" * (len(data) // 10 + 100)
        keep = tmp_path / f"keep_{name}"
        keep.write_bytes(garbage[name])
        if link == "hard":
            os.link(keep, out / name)
        else:
            (out / name).symlink_to(keep)
    assert _run_into(config_file, logs, out) == fresh
    for name in fresh:
        assert not (out / name).is_symlink()
        assert (tmp_path / f"keep_{name}").read_bytes() == garbage[name]


def test_cli_run_directory_at_an_output_path_is_io_error(tmp_path, config_file):
    logs = tmp_path / "logs"
    main(["simulate", "--config", str(config_file), "--out", str(logs)])
    (tmp_path / "out" / "est_eqf.csv").mkdir(parents=True)
    code, err = _cli_child("run", "--config", str(config_file), "--logs", str(logs),
                           "--out", str(tmp_path / "out"), "--filter", "eqf")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("io error: ")
    assert "est_eqf.csv" in err[0]


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
    # usage error -> 1
    code, err = _cli_child("--nope")
    assert code == 1
    assert any("usage: abc-eqf" in line for line in err)


def _cli_child(*argv, env=None):
    """abc-eqf in a child process that imports abc_eqf from this checkout's
    src, with the variables env added to its environment: its exit code and
    the lines it writes to stderr, as a user sees them (log records and
    campaign workers included)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "abc_eqf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stderr.splitlines()


def _read_logs(logs, cfg):
    """The gyro log and the sorted measurements of logs, as `run` reads them."""
    gyro_t, gyro_omega = read_gyro(logs / "gyro.csv")
    meas = [m for s in cfg.sensors
            for m in read_directions(logs / f"dir_{s.sensor_id}.csv", s.sensor_id)]
    meas.sort(key=lambda m: (m.t, m.sensor_id))
    return gyro_t, gyro_omega, meas


# The update's S grows past the condition limit and then overflows within a
# second: every update is skipped until the first S that is not finite,
# which ends the run (or the campaign) there.
@pytest.mark.parametrize("argv", [["run", "--filter", "eqf", "--logs", "logs"],
                                  ["run", "--filter", "iekf", "--logs", "logs"],
                                  ["montecarlo", "--runs", "4"]],
                         ids=["run-eqf", "run-iekf", "montecarlo-4"])
def test_cli_stops_at_first_non_finite_s(tmp_path, config_file, argv):
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text(_config_with("noise", "sigma_kappa", "1e154"))
    argv = [str(logs) if arg == "logs" else arg for arg in argv]
    code, err = _cli_child(*argv, "--config", str(bad), "--out", str(tmp_path / "out"))
    assert code == 2
    assert re.fullmatch(r"data error: (eqf|iekf)( run \d)?: first non-finite estimate or "
                        r"covariance at gyro step \d+ \(t = [0-9.e+-]+ s\)", err[-1])
    skipped = [line for line in err if "skipped" in line]
    assert skipped, "the ill-conditioned updates before the overflow are skipped"
    assert not [line for line in skipped if "condition number nan" in line]
    assert not [line for line in err if "RuntimeWarning" in line]


# A negative seed is a config error for every command, `run` included,
# which reads the seed but does not use it.
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", "cfg", "--seed", "-1", "--out", "out"],
     "[run] seed must be non-negative"),
    (["montecarlo", "--config", "cfg", "--seed", "-1", "--runs", "2", "--out", "out"],
     "[run] seed must be non-negative"),
    (["run", "--config", "neg", "--logs", "logs", "--out", "out"],
     "[run] seed must be non-negative"),
    (["bench-phi", "--seed", "-1", "--steps", "10"], "--seed must be >= 0"),
], ids=["simulate", "montecarlo", "run-config", "bench-phi"])
def test_cli_negative_seed_is_config_error(tmp_path, config_file, argv, message):
    paths = {"cfg": config_file, "neg": tmp_path / "neg.ini", "logs": tmp_path / "logs",
             "out": tmp_path / "out"}
    assert main(["simulate", "--config", str(config_file), "--out", str(paths["logs"])]) == 0
    paths["neg"].write_text(_config_with("run", "seed", "-1"))
    code, err = _cli_child(*(str(paths.get(arg, arg)) for arg in argv))
    assert (code, err) == (1, [f"config error: {message}"])


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_cli_non_integer_thread_count_is_config_error(tmp_path, config_file, value):
    code, err = _cli_child("montecarlo", "--config", str(config_file), "--runs", "2",
                           "--out", str(tmp_path / "out"), env={"ABC_EQF_THREADS": value})
    assert (code, err) == (1, [f"config error: ABC_EQF_THREADS must be an integer, "
                               f"got {value!r}"])
    assert not (tmp_path / "out" / "config_resolved.ini").exists()


def test_cli_run_gnss_log_without_references(tmp_path, config_file, capsys):
    """A gnss sensor's log must carry the reference columns dx, dy, dz: a
    log without them is a data error naming the file and its header row."""
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    path = logs / "dir_gnss.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(",".join(line.split(",")[:4]) for line in lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {path}:1: missing column 'dx'"]


@pytest.mark.parametrize("name, col, value", [
    ("dir_mag.csv", 1, "2.0"),       # a direction of norm 2
    ("gyro.csv", 1, "1000.0"),       # 5 rad in one 5 ms step
], ids=["non-unit-direction", "turn-over-pi"])
def test_cli_run_data_error_text_names_no_run(tmp_path, config_file, capsys, name, col,
                                              value):
    """The data error of `run` is the library loop's own message."""
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(config_file), "--out", str(logs)]) == 0
    lines = (logs / name).read_text().splitlines()
    fields = lines[10].split(",")
    fields[col] = value
    lines[10] = ",".join(fields)
    (logs / name).write_text("\n".join(lines) + "\n")
    cfg = load_config(config_file)
    with pytest.raises(InputRangeError) as want:
        library_loop("eqf", *_read_logs(logs, cfg), cfg)
    capsys.readouterr()
    assert main(["run", "--config", str(config_file), "--logs", str(logs),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {want.value}"]


def test_cli_run_skip_warnings_are_the_library_loops(tmp_path, config_file, caplog):
    """A sensor with sigma_y = 1e-7 fails the condition rule while the
    attitude variance is large: `run` writes one stderr line per skipped
    update, the library loop's warning under the abc_eqf.eqf logger."""
    ini = tmp_path / "sharp.ini"
    ini.write_text(CONFIG_TEXT + "\n[sensor.sharp]\nkind = fixed\ncalibrated = false\n"
                   "sigma_y = 1e-7\nrate = 50.0\nreference = 0 0 1\n")
    logs = tmp_path / "logs"
    assert main(["simulate", "--config", str(ini), "--out", str(logs)]) == 0
    cfg = load_config(ini)
    want = []
    for kind in ("eqf", "iekf"):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            library_loop(kind, *_read_logs(logs, cfg), cfg)
        want += [f"WARNING {rec.name}: {rec.getMessage()}" for rec in caplog.records]
    assert want and all("skipped" in line for line in want)
    code, err = _cli_child("run", "--config", str(ini), "--logs", str(logs),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert [line for line in err if line.startswith("WARNING")] == want


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


@pytest.mark.parametrize("argv", [["--steps", "0"], ["--steps", "-3"], ["--dt", "0"],
                                  ["--dt", "-0.01"], ["--dt", "nan"], ["--dt", "inf"]],
                         ids=["steps-0", "steps-neg", "dt-0", "dt-neg", "dt-nan", "dt-inf"])
def test_cli_bench_phi_rejects_out_of_range_arguments(capsys, argv):
    assert main(["bench-phi", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config error: {argv[0]} must be ")


def test_cli_bench_phi_smoke(tmp_path, capsys):
    assert main(["bench-phi", "--steps", "60", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "(i) closed form" in text
    assert (tmp_path / "bench_phi.csv").exists()
