"""The benchmark's three workloads: inputs, timed rounds and output checks.

Every workload replays two flights: `ref`, whose seed is fixed, and `seed`,
made from the --seed argument.  Rounds alternate between them; round r uses
flight r % 2, and every round runs the same operations: one pass of each
filter and, on `mc_default` and `replay_cal3`, one on-line probe pass of each
filter, which gives those workloads their tick latencies and nothing else (the
probe is left out of the round's steps and time).  Timings come from both
flights; accuracy metrics come from the `ref` flight alone, so they
measure the program and not the draw (the RMSE of a single short log moves by
25-50 % between seeds).  Checks that hold for any input run on both flights;
those that depend on the draw (convergence, the EqF/IEKF ratio) run on `ref`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from abc_eqf import cli, config, eqf, iekf, runner, sim, symmetry

import oracle
import speed

FILTERS = ("eqf", "iekf")
MC_RUNS = 8                   # runs per campaign call: four per worker (the CLI default is 25)
REF_SEED = {"mc_default": 2022, "replay_cal3": 7, "online_1khz": 11}
SIGMA_SNAPSHOT_EVERY = 500    # ticks between covariance snapshots in on-line passes
PROBE_TICKS = 3000            # ticks of the on-line probe on mc_default
SEGMENT_S = 0.1               # on-line wall time between two speed measurements


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Scenarios


def mc_config(seed: int) -> config.RunConfig:
    """The built-in two-sensor scenario, shortened to 10 s flights."""
    cfg = config.default_config(seed=seed)
    cfg.duration = 10.0
    return config.validate_config(cfg)


CAL3_INI = """\
[run]
seed = {seed}
duration = 5.0
filter = both

[trajectory]
rate = 200.0

[sensor.mag1]
kind = fixed
calibrated = true
sigma_y = 0.1
rate = 100.0
jitter = 0.002
reference = 1 0 0

[sensor.mag2]
kind = fixed
calibrated = true
sigma_y = 0.1
rate = 100.0
jitter = 0.002
reference = 0 1 0

[sensor.sun]
kind = fixed
calibrated = true
sigma_y = 0.1
rate = 100.0
dropout = 0.1
reference = 0 0.6 -0.8

[sensor.gnss]
kind = gnss
calibrated = false
sigma_y = 0.1
rate = 20.0
body_axis = 0 1 0
baseline = 1.0
pos_std = 0.1
"""


def online_config(seed: int) -> config.RunConfig:
    """1 kHz gyro; a 50 Hz calibrated and a 10 Hz uncalibrated sensor, so
    about 6 % of the ticks carry an update."""
    cfg = config.default_config(seed=seed)
    cfg.duration = 10.0
    cfg.gyro_rate = 1000.0
    cfg.traj_rate = 1000.0
    cfg.sensors[0].rate = 50.0
    cfg.sensors[1].rate = 10.0
    return config.validate_config(cfg)


# ---------------------------------------------------------------------------
# Flights and on-line passes


@dataclass
class Flight:
    label: str
    cfg: config.RunConfig
    sim: sim.SimData
    ticks: list = field(default_factory=list)   # measurement groups due at each tick
    logdir: Path | None = None
    ini: Path | None = None

    @property
    def steps(self) -> int:
        return int(self.sim.gyro_t.size)


def tick_groups(gyro_t: np.ndarray, measurements: list) -> list:
    """Measurement groups due at each gyro tick, by the 1 us stacking rule.

    Measurements after the last tick are left out: an on-line loop ends
    with its last gyro sample.
    """
    out = [[] for _ in range(gyro_t.size)]
    mi, total = 0, len(measurements)
    for k, tk in enumerate(gyro_t):
        while mi < total and measurements[mi].t <= tk + 1e-12:
            group = [measurements[mi]]
            mi += 1
            while (mi < total
                   and measurements[mi].t - group[0].t <= runner.STACK_TIME_TOL):
                group.append(measurements[mi])
                mi += 1
            out[k].append(group)
    return out


def make_flight(label: str, cfg: config.RunConfig, data: sim.SimData) -> Flight:
    return Flight(label, cfg, data, tick_groups(data.gyro_t, data.measurements))


@dataclass
class OnlinePass:
    kind: str
    wall_s: float             # the loop's wall time, speed measurements left out
    ref_s: float              # the same at the reference speed (speed.py)
    latency_s: np.ndarray     # per tick, as measured
    tick_k: np.ndarray        # per tick, the speed factor of its segment
    estimates: list
    sigmas: list


def online_pass(kind: str, flight: Flight, limit: int | None = None) -> OnlinePass:
    """The library loop: propagate, apply the due groups, read the estimate,
    over the first `limit` gyro samples of the flight (all by default).

    About every SEGMENT_S seconds the loop pauses, untimed, to measure the
    machine's speed (speed.py).  Module attributes are looked up per pass, so
    the traced run sees the calls.
    """
    cfg = flight.cfg
    sensors = runner.build_sensors(cfg)
    noise = runner.noise_config(cfg)
    sigma0 = runner.initial_sigma(cfg)
    if kind == "eqf":
        state = eqf.eqf_init(cfg.n_cal, sensors, noise, sigma0)
        propagate = partial(eqf.eqf_propagate, noise=noise, md_mode=cfg.md_mode)
        update = partial(eqf.eqf_update, sensors=sensors, residual_mode=cfg.residual_mode)
        state_from_group = symmetry.state_from_group
        estimate = lambda s: state_from_group(s.xhat)  # noqa: E731
    else:
        state = iekf.iekf_init(symmetry.identity_state(cfg.n_cal), sigma0)
        propagate = partial(iekf.iekf_propagate, noise=noise)
        update = partial(iekf.iekf_update, sensors=sensors)
        estimate = attrgetter("xi")
    gyro_t, omega, ticks = flight.sim.gyro_t, flight.sim.gyro_omega, flight.ticks
    k_total = gyro_t.size if limit is None else min(limit, gyro_t.size)
    latency = np.empty(k_total)
    tick_k = np.empty(k_total)
    estimates = [None] * k_total
    sigmas = []
    wall = ref = 0.0
    seg_first = 0
    before = speed.kernel_s()
    clock = time.perf_counter
    seg_start = clock()
    for k in range(k_total):
        t0 = clock()
        if k:
            state = propagate(state, omega[k], gyro_t[k] - gyro_t[k - 1])
        for group in ticks[k]:
            state = update(state, group)
        xi = estimate(state)
        t1 = clock()
        latency[k] = t1 - t0
        estimates[k] = xi
        if k % SIGMA_SNAPSHOT_EVERY == 0 or k == k_total - 1:
            sigmas.append(state.sigma.copy())
        if t1 - seg_start >= SEGMENT_S or k == k_total - 1:
            seg = clock() - seg_start
            after = speed.kernel_s()
            f = speed.factor(before, after)
            tick_k[seg_first:k + 1] = f
            wall += seg
            ref += seg * f
            before, seg_first = after, k + 1
            seg_start = clock()
    return OnlinePass(kind, wall, ref, latency, tick_k, estimates, sigmas)


def check_online(p: OnlinePass, flight: Flight, ref: runner.FilterRun) -> None:
    """Σ stays symmetric and PSD; the last state equals drive_filter's
    estimate at the same gyro sample."""
    for s in p.sigmas:
        require(np.all(np.isfinite(s)), f"{p.kind}: non-finite covariance")
        require(np.max(np.abs(s - s.T)) <= 1e-12 * max(1.0, np.max(np.abs(s))),
                f"{p.kind}: covariance not symmetric")
        eig = np.linalg.eigvalsh(s)
        require(eig[0] >= -1e-12 * eig[-1], f"{p.kind}: covariance spectrum {eig[0]:.3e}")
    k = len(p.estimates) - 1
    last = p.estimates[k]
    est = ref.est
    gap = max(np.max(np.abs(last.R - est.R[k])), np.max(np.abs(last.b - est.b[k])),
              max((np.max(np.abs(c - est.C[k, j])) for j, c in enumerate(last.C)),
                  default=0.0),
              np.max(np.abs(np.diag(p.sigmas[-1]) - est.sigma_diag[k])))
    require(gap <= 1e-12, f"{p.kind}: on-line state differs from drive_filter by {gap:.3e}")


def online_report(p: OnlinePass, flight: Flight) -> dict:
    truth = flight.sim.truth
    require(np.array_equal(truth.t, flight.sim.gyro_t), "truth and gyro times differ")
    r = np.stack([e.R for e in p.estimates])
    b = np.stack([e.b for e in p.estimates])
    c = np.stack([np.stack(e.C) for e in p.estimates])
    return oracle.rmse_report(truth.t, truth.R, truth.bias, truth.cal, r, b, c)


def drive_report(run: runner.FilterRun, flight: Flight) -> dict:
    truth = flight.sim.truth
    require(np.array_equal(truth.t, run.est.t), "truth and estimate times differ")
    return oracle.rmse_report(truth.t, truth.R, truth.bias, truth.cal,
                              run.est.R, run.est.b, run.est.C)


def require_converged(rep: dict, what: str) -> None:
    """Asymptotic attitude and calibration RMSE below transient.

    Checked on the `ref` flight only: a short flight whose initial error draw
    is small shows no convergence (asymptotic RMSE within 1 % of transient on
    one 10 s, 1 kHz flight), which says nothing about the program.
    """
    for key in ("att", "cal"):
        tr, asym = rep[f"{key}_T_deg"], rep[f"{key}_A_deg"]
        require(np.isfinite(tr) and np.isfinite(asym) and 0.0 < asym < tr,
                f"{what}: {key} RMSE does not converge ({tr:.4f} -> {asym:.4f} deg)")


# ---------------------------------------------------------------------------
# Bookkeeping shared by the workloads


@dataclass
class Record:
    """Timing samples and failure counts of one benchmark run.

    Every list of times `x` has a twin `x_ref` with the same times at the
    reference speed (speed.py).
    """

    pass_s: dict = field(default_factory=lambda: {f: [] for f in FILTERS})
    pass_s_ref: dict = field(default_factory=lambda: {f: [] for f in FILTERS})
    pass_steps: dict = field(default_factory=lambda: {f: [] for f in FILTERS})
    tick_s: dict = field(default_factory=lambda: {f: [] for f in FILTERS})  # arrays per pass
    tick_s_ref: dict = field(default_factory=lambda: {f: [] for f in FILTERS})
    round_s: list = field(default_factory=list)
    round_s_ref: list = field(default_factory=list)
    round_steps: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    setup_s_ref: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ops: Counter = field(default_factory=Counter)          # (flight, filter) -> passes
    failed_ops: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def add_ticks(self, p: OnlinePass) -> None:
        self.tick_s[p.kind].append(p.latency_s)
        self.tick_s_ref[p.kind].append(p.latency_s * p.tick_k)

    def add_pass(self, kind: str, wall_s: float, ref_s: float, steps: int) -> None:
        self.pass_s[kind].append(wall_s)
        self.pass_s_ref[kind].append(ref_s)
        self.pass_steps[kind].append(steps)

    def add_round(self, steps: int, wall_s: float, ref_s: float) -> None:
        self.round_s.append(wall_s)
        self.round_s_ref.append(ref_s)
        self.round_steps.append(steps)


@contextlib.contextmanager
def operation(rec: Record, ops: int, key: tuple, what: str):
    """Attempt `ops` filter passes of `key` = (flight, filter); a raise or a
    failed check inside fails them."""
    rec.attempted += ops
    rec.ops[key] += ops
    try:
        yield
    except Exception as exc:   # boundary: a failing pass must not stop the run
        rec.failed += ops
        rec.failed_ops[key] += ops
        rec.errors.append(f"{what}: {exc!r}")
        traceback.print_exc()


@contextlib.contextmanager
def checking(rec: Record, keys: list, what: str):
    """A failed output check fails every pass of `keys` not failed already."""
    try:
        yield
    except Exception as exc:   # boundary: report the check, run the others
        for key in keys:
            rec.failed += rec.ops[key] - rec.failed_ops[key]
            rec.failed_ops[key] = rec.ops[key]
        rec.errors.append(f"{what}: {exc!r}")
        traceback.print_exc()


def probe_round(flight: Flight, rec: Record, probes: dict, limit: int | None = None) -> None:
    """On-line probe of `limit` ticks per filter, for the tick latencies only."""
    for kind in FILTERS:
        key = (flight.label, kind)
        with operation(rec, 1, key, f"on-line probe {key}"):
            p = online_pass(kind, flight, limit)
            rec.add_ticks(p)
            probes.setdefault(key, p)


# ---------------------------------------------------------------------------
# mc_default: runner.montecarlo with truth, once per filter


class McDefault:
    name = "mc_default"

    def __init__(self, workdir: Path, seed: int, workers: int):
        self.workers = workers
        self.flights = []
        for label, base in (("ref", REF_SEED[self.name]), ("seed", seed)):
            cfg = mc_config(base)     # run 0 of the campaign simulates this seed
            self.flights.append(make_flight(label, cfg, sim.simulate_run(cfg)))
        # The 200 Hz stream has an update on every other tick, so its median
        # tick falls between the two modes; the probe replays the 1 kHz
        # stream of online_1khz instead.
        self.probe_flights = []
        for label, s in (("ref-1khz", REF_SEED["online_1khz"]), ("seed-1khz", seed)):
            cfg = online_config(s)
            self.probe_flights.append(make_flight(label, cfg, sim.simulate_run(cfg)))
        self.results = {}      # (flight label, filter) -> first McResult
        self.probes = {}       # (flight label, filter) -> first OnlinePass

    def round(self, r: int, rec: Record, workers: int | None = None) -> None:
        flight = self.flights[r % 2]
        steps = 0
        busy = busy_ref = 0.0
        for kind in FILTERS:
            key = (flight.label, kind)
            with operation(rec, MC_RUNS, key, f"montecarlo {key}"):
                cfg = replace(flight.cfg, filter=kind)
                res, wall, ref = speed.timed(
                    partial(runner.montecarlo, cfg, MC_RUNS, workers or self.workers),
                    each_cpu=True)
                rec.add_pass(kind, wall, ref, MC_RUNS * flight.steps)
                steps += MC_RUNS * flight.steps
                busy += wall
                busy_ref += ref
                first = self.results.setdefault(key, res)
                if first is not res and report_rows(first) != report_rows(res):
                    raise CheckFailed("campaign reports differ between rounds")
        probe_round(self.probe_flights[r % 2], rec, self.probes, PROBE_TICKS)
        rec.add_round(steps, busy, busy_ref)

    def check(self, rec: Record) -> None:
        for flight in self.probe_flights:
            for kind in FILTERS:
                key = (flight.label, kind)
                if key not in self.probes:
                    continue
                with checking(rec, [key], f"check on-line probe {key}"):
                    n = len(self.probes[key].estimates)
                    gyro_t = flight.sim.gyro_t[:n]
                    meas = [m for m in flight.sim.measurements if m.t <= gyro_t[-1] + 1e-12]
                    ref = runner.drive_filter(kind, gyro_t, flight.sim.gyro_omega[:n], meas,
                                              replace(flight.cfg, filter=kind))
                    check_online(self.probes[key], flight, ref)
        ratio = {}
        for flight in self.flights:
            for kind in FILTERS:
                res = self.results.get((flight.label, kind))
                if res is None:
                    continue
                key = (flight.label, kind)
                with checking(rec, [key], f"check montecarlo {key}"):
                    agg = res.aggregate[kind]
                    vals = [getattr(agg, ph)[k] for ph in ("transient", "asymptotic")
                            for k in ("att_deg", "bias", "cal_deg")]
                    require(all(np.isfinite(v) and v > 0.0 for v in vals),
                            f"{kind}: campaign RMSE not finite and positive: {vals}")
                    if flight.label == "ref":
                        require(agg.asymptotic["att_deg"] < agg.transient["att_deg"],
                                f"{kind}: asymptotic attitude RMSE not below transient")
                        ratio[kind] = agg.asymptotic["att_deg"]
                    # run 0 again, through drive_filter, judged by the oracle
                    run0 = runner.drive_filter(kind, flight.sim.gyro_t, flight.sim.gyro_omega,
                                               flight.sim.measurements,
                                               replace(flight.cfg, filter=kind),
                                               flight.sim.truth)
                    rep = drive_report(run0, flight)
                    got = res.per_run[0][kind]["report"]
                    for ph, tag in (("transient", "T"), ("asymptotic", "A")):
                        for key, okey in (("att_deg", "att"), ("cal_deg", "cal")):
                            a, b = getattr(got, ph)[key], rep[f"{okey}_{tag}_deg"]
                            require(abs(a - b) <= 1e-6 * max(abs(b), 1e-9),
                                    f"{kind}: per_run[0] {key} {ph} {a} != oracle {b}")
                        a, b = getattr(got, ph)["bias"], rep[f"bias_{tag}"]
                        require(abs(a - b) <= 1e-9 * max(abs(b), 1e-9),
                                f"{kind}: per_run[0] bias {ph} {a} != oracle {b}")
        if len(ratio) == 2:
            with checking(rec, [("ref", k) for k in FILTERS], "check eqf/iekf ratio"):
                q = ratio["eqf"] / ratio["iekf"]
                require(q <= 1.5, f"EqF/IEKF asymptotic attitude ratio {q:.3f}")
        for kind in FILTERS:
            res = self.results.get(("ref", kind))
            if res is not None:
                agg = res.aggregate[kind]
                rec.accuracy[kind] = {
                    "att_T_deg": agg.transient["att_deg"], "att_A_deg": agg.asymptotic["att_deg"],
                    "cal_T_deg": agg.transient["cal_deg"], "cal_A_deg": agg.asymptotic["cal_deg"],
                    "bias_A": agg.asymptotic["bias"],
                }


def report_rows(res: runner.McResult) -> list:
    rows = []
    for row in res.per_run:
        for kind in FILTERS:
            if kind in row:
                rep = row[kind]["report"]
                rows.append((row["run"], kind, sorted(rep.transient.items()),
                             sorted(rep.asymptotic.items()), row[kind]["nees"]))
    return rows


# ---------------------------------------------------------------------------
# replay_cal3: `abc-eqf simulate` once, `abc-eqf run` per filter and round


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ReplayCal3:
    name = "replay_cal3"

    def __init__(self, workdir: Path, seed: int, workers: int):
        self.workdir = workdir
        self.flights = []
        for label, s in (("ref", REF_SEED[self.name]), ("seed", seed)):
            fdir = workdir / label
            if fdir.exists():
                shutil.rmtree(fdir)
            fdir.mkdir(parents=True)
            ini = fdir / "cal3.ini"
            ini.write_text(CAL3_INI.format(seed=s), encoding="utf-8")
            logdir = fdir / "logs"
            code, _ = _quiet_cli(["simulate", "--config", str(ini), "--out", str(logdir)])
            require(code == 0, f"abc-eqf simulate exited {code}")
            (logdir / "truth.csv").replace(fdir / "truth_held_back.csv")
            cfg = config.load_config(ini)
            flight = make_flight(label, cfg, sim.simulate_run(cfg))
            flight.logdir, flight.ini = logdir, ini
            self.flights.append(flight)
        self.outputs = {}      # (flight label, filter) -> (sha256, kept copy)
        self.probes = {}

    def round(self, r: int, rec: Record, workers: int | None = None) -> None:
        flight = self.flights[r % 2]
        steps = 0
        busy = busy_ref = 0.0
        for kind in FILTERS:
            key = (flight.label, kind)
            out = self.workdir / flight.label / f"out_{kind}"
            with operation(rec, 1, key, f"abc-eqf run {key}"):
                argv = ["run", "--config", str(flight.ini), "--logs", str(flight.logdir),
                        "--out", str(out), "--filter", kind]
                (code, text), wall, ref = speed.timed(partial(_quiet_cli, argv))
                require(code == 0, f"abc-eqf run exited {code}")
                require(f"{flight.steps} estimates" in text, f"unexpected output {text!r}")
                rec.add_pass(kind, wall, ref, flight.steps)
                steps += flight.steps
                busy += wall
                busy_ref += ref
                path = out / f"est_{kind}.csv"
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if key not in self.outputs:
                    kept = self.workdir / flight.label / f"est_{kind}_first.csv"
                    shutil.copyfile(path, kept)
                    self.outputs[key] = (digest, kept)
                require(self.outputs[key][0] == digest, "replay output differs between rounds")
        probe_round(flight, rec, self.probes)
        rec.add_round(steps, busy, busy_ref)

    def check(self, rec: Record) -> None:
        for flight in self.flights:
            for kind in FILTERS:
                key = (flight.label, kind)
                if key not in self.outputs:
                    continue
                with checking(rec, [key], f"check replay {key}"):
                    _, kept = self.outputs[key]
                    est = read_estimate_csv(kept, flight.cfg.n_cal)
                    require(est["t"].size == flight.steps,
                            f"{est['t'].size} estimate rows for {flight.steps} gyro samples")
                    require(all(np.all(np.isfinite(v)) for v in est.values()),
                            "non-finite estimate")
                    require(all_rotations(est["R"]), "estimated attitude is not a rotation")
                    require(all_rotations(est["C"].reshape(-1, 3, 3)),
                            "estimated calibration is not a rotation")
                    require(np.all(est["sd"] > 0.0), "non-positive covariance diagonal")
                    ref = runner.drive_filter(kind, flight.sim.gyro_t, flight.sim.gyro_omega,
                                              flight.sim.measurements,
                                              replace(flight.cfg, filter=kind))
                    for col, arr in (("t", ref.est.t), ("R", ref.est.R), ("b", ref.est.b),
                                     ("C", ref.est.C), ("sd", ref.est.sigma_diag)):
                        require(np.array_equal(est[col], arr),
                                f"replayed {col} differs from drive_filter in memory")
                    truth = flight.sim.truth
                    require(np.array_equal(truth.t, est["t"]), "truth and estimate times differ")
                    rep = oracle.rmse_report(truth.t, truth.R, truth.bias, truth.cal,
                                             est["R"], est["b"], est["C"])
                    if flight.label == "ref":
                        require_converged(rep, f"replay {key}")
                        rec.accuracy[kind] = rep
                    if key in self.probes:
                        check_online(self.probes[key], flight, ref)


def read_estimate_csv(path: Path, n: int) -> dict:
    """Parse an estimate CSV with the csv module alone (not the program's csvio)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader if row])
    col = {name: i for i, name in enumerate(header)}
    idx = lambda names: [col[c] for c in names]  # noqa: E731
    mat = [f"{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    dim = 6 + 3 * n
    return {
        "t": data[:, col["t"]],
        "R": data[:, idx([f"r{m}" for m in mat])].reshape(-1, 3, 3),
        "b": data[:, idx(["bx", "by", "bz"])],
        "C": np.stack([data[:, idx([f"c{s}{m}" for m in mat])].reshape(-1, 3, 3)
                       for s in range(1, n + 1)], axis=1),
        "sd": data[:, idx([f"sd{i}" for i in range(1, dim + 1)])],
    }


def all_rotations(r: np.ndarray, tol: float = 1e-9) -> bool:
    gram = np.einsum("kji,kjl->kil", r, r)
    return bool(np.max(np.abs(gram - np.eye(3))) <= tol
                and np.min(np.linalg.det(r)) > 1.0 - tol)


# ---------------------------------------------------------------------------
# online_1khz: the library loop at 1 kHz


class Online1kHz:
    name = "online_1khz"

    def __init__(self, workdir: Path, seed: int, workers: int):
        self.flights = []
        for label, s in (("ref", REF_SEED[self.name]), ("seed", seed)):
            cfg = online_config(s)
            self.flights.append(make_flight(label, cfg, sim.simulate_run(cfg)))
        self.passes = {}

    def round(self, r: int, rec: Record, workers: int | None = None) -> None:
        flight = self.flights[r % 2]
        steps = 0
        busy = busy_ref = 0.0
        for kind in FILTERS:
            key = (flight.label, kind)
            with operation(rec, 1, key, f"on-line {key}"):
                p = online_pass(kind, flight)
                rec.add_ticks(p)
                rec.add_pass(kind, p.wall_s, p.ref_s, flight.steps)
                steps += flight.steps
                busy += p.wall_s
                busy_ref += p.ref_s
                first = self.passes.setdefault(key, p)
                require(np.array_equal(first.estimates[-1].R, p.estimates[-1].R),
                        "on-line result differs between rounds")
        rec.add_round(steps, busy, busy_ref)

    def check(self, rec: Record) -> None:
        for flight in self.flights:
            for kind in FILTERS:
                key = (flight.label, kind)
                if key not in self.passes:
                    continue
                p = self.passes[key]
                with checking(rec, [key], f"check on-line {key}"):
                    ref = runner.drive_filter(kind, flight.sim.gyro_t, flight.sim.gyro_omega,
                                              flight.sim.measurements,
                                              replace(flight.cfg, filter=kind))
                    check_online(p, flight, ref)
                    rep = online_report(p, flight)
                    if flight.label == "ref":
                        require_converged(rep, f"on-line {key}")
                        rec.accuracy[kind] = rep


WORKLOADS = {w.name: w for w in (McDefault, ReplayCal3, Online1kHz)}
