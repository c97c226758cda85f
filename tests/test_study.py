import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import abc_eqf
from abc_eqf.eqf import FilterState, NoiseConfig, eqf_propagate
from abc_eqf.study import _bench_gyro, _covariance_steps, _ode45_pass, _timed_pass
from abc_eqf.symmetry import group_identity

N, DT, STEPS = 3, 0.005, 400
NOISE = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)


def _start() -> FilterState:
    return FilterState(group_identity(N), np.eye(6 + 3 * N) * 1e-2, 0.0)


def test_closed_form_variant_is_the_filter_propagation():
    gyro = _bench_gyro(STEPS, DT, 0)
    sigma = _timed_pass(_covariance_steps(DT, NOISE, N)["closed"], gyro, DT, _start())[1].sigma
    fs = _start()
    for omega in gyro:
        fs = eqf_propagate(fs, omega, DT, NOISE)
    assert np.array_equal(sigma, fs.sigma)


def test_rk45_variant_matches_closed_form():
    gyro = _bench_gyro(STEPS, DT, 0)
    closed = _timed_pass(_covariance_steps(DT, NOISE, N)["closed"], gyro, DT, _start())[1].sigma
    _, rk45 = _ode45_pass(gyro, DT, NOISE, _start())
    assert np.max(np.abs(rk45 - closed)) <= 1e-9 * np.max(np.abs(closed))


def test_cli_import_leaves_scipy_unloaded():
    """study.py imports scipy inside its functions, so the CLI starts without it."""
    env = dict(os.environ, PYTHONPATH=str(Path(abc_eqf.__file__).parents[1]))
    code = ("import sys, abc_eqf.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
