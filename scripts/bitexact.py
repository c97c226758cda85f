"""Bit-identity check of the simulator and the filters: sim.simulate_run and
runner.drive_filter on a base revision and on this checkout, compared array
by array with np.array_equal.

    python3 scripts/bitexact.py --base HEAD

Two scenarios, each through both filters:

- `default`: `config.default_config(seed=3)`, the 70 s two-sensor run;
- `cal3`: the `replay_cal3` config `CAL3_INI` of `perfbench/workloads.py`
  with seed 7, a 5 s four-sensor run with 15 states.

For each, the simulator's own arrays are compared: truth t, R, bias and cal,
the gyro log's t and omega, and each sensor's measurement times, directions
y and (for a gnss sensor) references.  So are, per filter, the estimated
attitude R, bias b, calibrations C and the diagonal of Sigma at every gyro
step.  The base side is exported with
`git archive` into a temporary directory; the change side is the working
tree this script lives in.  Each side simulates and filters in its own
Python process, importing `abc_eqf` from its own `src/`.  `CAL3_INI` is read
from this checkout's `perfbench/workloads.py` without importing it.  Prints
one line per array and exits 1 if any array differs.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FILTERS = ("eqf", "iekf")
ARRAYS = ("R", "b", "C", "sigma_diag")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision of the base side")
    # internal: one side's run, in its own process
    p.add_argument("--dump", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.base is None and args.dump is None:
        p.error("--base is required")
    return args


def export(rev: str, dest: Path) -> None:
    archive = dest / "src.tar"
    subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def cal3_ini() -> str:
    """The CAL3_INI string literal of perfbench/workloads.py."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "CAL3_INI"):
            return ast.literal_eval(node.value)
    raise SystemExit("perfbench/workloads.py defines no CAL3_INI")


def dump(src: Path, out: Path) -> None:
    """Run both scenarios with the abc_eqf of src and save the simulated logs
    and the estimates."""
    sys.path.insert(0, str(src))
    from abc_eqf import config, runner, sim

    if Path(config.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"abc_eqf imported from {config.__file__}, not from {src}")
    with tempfile.TemporaryDirectory(prefix="bitexact_") as tmp:
        ini = Path(tmp) / "cal3.ini"
        ini.write_text(cal3_ini().format(seed=7), encoding="utf-8")
        scenarios = {"default": config.default_config(seed=3),
                     "cal3": config.load_config(ini)}
    arrays = {}
    for name, cfg in scenarios.items():
        data = sim.simulate_run(cfg)
        truth = data.truth
        arrays.update({f"{name}/truth/t": truth.t, f"{name}/truth/R": truth.R,
                       f"{name}/truth/bias": truth.bias,
                       f"{name}/truth/cal": np.asarray(truth.cal, dtype=float),
                       f"{name}/gyro/t": data.gyro_t, f"{name}/gyro/omega": data.gyro_omega})
        for s in cfg.sensors:
            meas = [m for m in data.measurements if m.sensor_id == s.sensor_id]
            arrays[f"{name}/{s.sensor_id}/t"] = np.array([m.t for m in meas])
            arrays[f"{name}/{s.sensor_id}/y"] = np.array([m.y for m in meas])
            if s.kind == "gnss":
                arrays[f"{name}/{s.sensor_id}/reference"] = np.array([m.reference for m in meas])
        for kind in FILTERS:
            est = runner.drive_filter(kind, data.gyro_t, data.gyro_omega,
                                      data.measurements, cfg).est
            for field in ARRAYS:
                arrays[f"{name}/{kind}/{field}"] = getattr(est, field)
    np.savez(out, **arrays)


def run_side(checkout: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--dump", str(checkout / "src"), str(out)], env=env, check=True)
    with np.load(out) as npz:
        return {k: npz[k] for k in npz.files}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.dump:
        dump(Path(args.dump[0]), Path(args.dump[1]))
        return 0
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bitexact_") as tmp:
        base_dir = Path(tmp) / "base"
        base_dir.mkdir()
        export(base_rev, base_dir)
        base = run_side(base_dir, Path(tmp) / "base.npz")
        head = run_side(ROOT, Path(tmp) / "head.npz")
    print(f"base {base_rev} vs working tree")
    all_equal = True
    for key in sorted(set(base) | set(head)):
        if key not in base or key not in head:
            all_equal = False
            print(f"{key:30s} missing on the {'base' if key not in base else 'change'} side")
            continue
        equal = base[key].shape == head[key].shape and np.array_equal(base[key], head[key])
        all_equal &= equal
        gap = "" if equal or base[key].shape != head[key].shape else \
            f" (max |diff| {np.max(np.abs(base[key] - head[key])):.3e})"
        print(f"{key:30s} {'equal' if equal else 'DIFFERENT'}{gap}")
    print("all arrays equal" if all_equal else "some arrays differ")
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
