"""Bit-identity check of the simulator, the filters, campaigns and the CLI's
files: sim.simulate_run, runner.drive_filter, the library's per-step calls,
runner.montecarlo and `abc-eqf simulate`/`run` on a base revision and on
this checkout, compared array by array with np.array_equal.

    python3 scripts/bitexact.py --base HEAD

Two single-run scenarios, each through both filters:

- `default`: `config.default_config(seed=3)`, the 70 s two-sensor run;
- `cal3`: the `replay_cal3` config `CAL3_INI` of `perfbench/workloads.py`
  with seed 7, a 5 s four-sensor run with 15 states.

For each, the simulator's own arrays are compared: truth t, R, bias and cal,
the gyro log's t and omega, and each sensor's measurement times, directions
y and (for a gnss sensor) references.  So are, per filter, the estimated
attitude R, bias b, calibrations C and the diagonal of Sigma at every gyro
step.  The `library` scenario replays the `cal3` log through the README's
per-step loop instead of `drive_filter`: `eqf_init`/`iekf_init`, then at
each gyro step `*_propagate` and `*_update` of each group that
`runner.tick_groups` puts at that step, and compares the same four arrays
per filter.  The `library-1khz` scenario does the same with n = 1 on the
1 kHz two-sensor log of the `online_1khz` workload
(`default_config(seed=11)`, 10 s, gyro and trajectory at 1 kHz, the
calibrated magnetometer at 50 Hz and the GNSS baseline at 10 Hz).  The
`campaign` scenario is `runner.montecarlo` over 3 runs of
the default config with one worker: per run and filter, the transient and
asymptotic report values and the attitude NEES.  `campaign-2w` is the same
campaign on two workers, whose slices hold runs 0-1 and run 2, so a batch
of one run that names its run is compared too.  `campaign-cal3` is
`runner.montecarlo` over 3 runs of the `cal3` config on one worker: its
jitter and dropout give ragged buckets that hold only some of the runs,
with 15 states, which the default config's campaigns do not reach.  The
`cli` scenario runs `abc-eqf simulate` on the `cal3` config, then
`abc-eqf run --filter both` twice into one --out, and keeps every file
each command wrote as bytes:
besides comparing them with the base side's, the change's second run is
compared with its own first run.  The base side is exported with
`git archive` into a temporary directory; the change side is the working
tree this script lives in.  Each side simulates and filters in its own
Python process, importing `abc_eqf` from its own `src/`.  `CAL3_INI` is read
from this checkout's `perfbench/workloads.py` without importing it.  Prints
one line per array and exits 1 if any array differs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
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


def library_loop(kind: str, data, cfg) -> dict:
    """The README's on-line loop over one simulated log: the arrays of
    ARRAYS at every gyro step."""
    from abc_eqf import eqf, iekf, runner, symmetry

    sensors = runner.build_sensors(cfg)
    noise = runner.noise_config(cfg)
    sigma0 = runner.initial_sigma(cfg)
    gyro_t, omega = data.gyro_t, data.gyro_omega
    if kind == "eqf":
        state = eqf.eqf_init(cfg.n_cal, sensors, noise, sigma0, float(gyro_t[0]))
    else:
        state = iekf.iekf_init(symmetry.identity_state(cfg.n_cal), sigma0, float(gyro_t[0]))
    groups: dict[int, list] = {}
    for k, group in runner.tick_groups(gyro_t, data.measurements):
        groups.setdefault(k, []).append(group)
    rows = {field: [] for field in ARRAYS}
    for k in range(gyro_t.size):
        if kind == "eqf":
            if k:
                state = eqf.eqf_propagate(state, omega[k], gyro_t[k] - gyro_t[k - 1], noise)
            for group in groups.get(k, ()):
                state = eqf.eqf_update(state, group, sensors)
            est = symmetry.state_from_group(state.xhat)
        else:
            if k:
                state = iekf.iekf_propagate(state, omega[k], gyro_t[k] - gyro_t[k - 1], noise)
            for group in groups.get(k, ()):
                state = iekf.iekf_update(state, group, sensors)
            est = state.xi
        for field, value in zip(ARRAYS, (est.R, est.b, est.C, np.diag(state.sigma))):
            rows[field].append(np.asarray(value, dtype=float))
    return {field: np.array(values) for field, values in rows.items()}


def cli_files(ini: Path, tmp: Path) -> dict:
    """The `cli` scenario: the bytes of every file written by `abc-eqf
    simulate` (under cli/simulate/) and by each of two `abc-eqf run` into one
    --out (cli/run1/, cli/run2/)."""
    from abc_eqf import cli

    logs, out = tmp / "logs", tmp / "out"
    argvs = {"simulate": ["simulate", "--config", str(ini), "--out", str(logs)]}
    for i in (1, 2):
        argvs[f"run{i}"] = ["run", "--config", str(ini), "--logs", str(logs),
                            "--out", str(out), "--filter", "both"]
    files = {}
    for step, argv in argvs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"abc-eqf {' '.join(argv)} exited {code}")
        for path in sorted((logs if step == "simulate" else out).iterdir()):
            files[f"cli/{step}/{path.name}"] = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return files


def dump(src: Path, out: Path) -> None:
    """Run every scenario with the abc_eqf of src and save the simulated logs
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
        arrays = cli_files(ini, Path(tmp))
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
            if name == "cal3":
                for field, value in library_loop(kind, data, cfg).items():
                    arrays[f"library/{kind}/{field}"] = value
    online = config.default_config(seed=11)
    online.duration = 10.0
    online.gyro_rate = online.traj_rate = 1000.0
    online.sensors[0].rate, online.sensors[1].rate = 50.0, 10.0
    online = config.validate_config(online)
    data = sim.simulate_run(online)
    for kind in FILTERS:
        for field, value in library_loop(kind, data, online).items():
            arrays[f"library-1khz/{kind}/{field}"] = value
    campaigns = (("campaign", config.default_config(seed=3), 1),
                 ("campaign-2w", config.default_config(seed=3), 2),
                 ("campaign-cal3", scenarios["cal3"], 1))
    for scenario, cfg, workers in campaigns:
        campaign = runner.montecarlo(cfg, runs=3, workers=workers)
        for row in campaign.per_run:
            for kind in FILTERS:
                rep = row[kind]["report"]
                key = f"{scenario}/run{row['run']}/{kind}"
                arrays[f"{key}/report"] = np.array([*rep.transient.values(),
                                                    *rep.asymptotic.values()])
                arrays[f"{key}/nees"] = np.array(row[kind]["nees"])
    np.savez(out, **arrays)


def run_side(checkout: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--dump", str(checkout / "src"), str(out)], env=env, check=True)
    with np.load(out) as npz:
        return {k: npz[k] for k in npz.files}


def report(label: str, base, head) -> bool:
    """Print whether two arrays are equal (and, for floats, by how much they
    differ) and return it."""
    equal = base is not None and np.array_equal(base, head)
    gap = "" if equal or base is None or base.shape != head.shape or base.dtype.kind != "f" \
        else f" (max |diff| {np.max(np.abs(base - head)):.3e})"
    print(f"{label:30s} {'equal' if equal else 'DIFFERENT'}{gap}")
    return equal


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
        all_equal &= report(key, base[key], head[key])
    for key in sorted(k for k in head if k.startswith("cli/run2/")):
        first = key.replace("/run2/", "/run1/")
        all_equal &= report(f"{key} vs change {first}", head.get(first), head[key])
    print("all arrays equal" if all_equal else "some arrays differ")
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
