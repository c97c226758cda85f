"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte-Carlo campaign is shared between the
RMSE-ordering and NEES criteria.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from abc_eqf.config import RunConfig, SensorConfig, default_config, validate_config
from abc_eqf.eqf import (
    NoiseConfig,
    compute_A0,
    compute_C0,
    compute_Md,
    compute_phi,
    sigma_u,
    validate_layout,
    SensorModel,
)
from abc_eqf.lie import exp_so3, wedge
from abc_eqf.runner import montecarlo, run_filters
from abc_eqf.sim import simulate_run
from abc_eqf.study import bench_phi
from abc_eqf.symmetry import (
    action_phi,
    action_psi,
    action_rho,
    adjoint,
    coords_theta,
    coords_theta_inv,
    group_exp,
    group_inv,
    group_mul,
    identity_state,
    lift_lambda,
    output_h,
    transitivity_element,
)

from conftest import (
    max_state_gap,
    random_group_element,
    random_state,
)

TABLE_I = {
    "eqf": {"transient": {"att_deg": 3.5331, "bias": 0.0280, "cal_deg": 5.7892},
            "asymptotic": {"att_deg": 1.3870, "bias": 0.0035, "cal_deg": 0.6989}},
    "iekf": {"transient": {"att_deg": 4.9497, "bias": 0.0323, "cal_deg": 8.0480},
             "asymptotic": {"att_deg": 1.3995, "bias": 0.0035, "cal_deg": 0.7798}},
}

MC_RUNS = 25
MC_SEED = 2025


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mc_config(seed: int = MC_SEED, dropout: float = 0.0, jitter: float = 0.0) -> RunConfig:
    cfg = default_config(seed=seed)
    cfg.duration = 70.0
    for s in cfg.sensors:
        if s.sensor_id == "mag":
            s.dropout = dropout
            s.jitter = jitter
    return validate_config(cfg)


@pytest.fixture(scope="module")
def mc_result():
    return montecarlo(_mc_config(), MC_RUNS)


# ---------------------------------------------------------------------------


def test_criterion_1_symmetry_property_suite():
    """Group axioms, action laws, transitivity, output equivariance, lift."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    samples = 1000
    worst_alg = worst_fd = 0.0
    h = 1e-5

    for n in (0, 1, 2, 3):
        refs = rng.normal(size=(n + 2, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        for k in range(samples):
            x = random_group_element(rng, n)
            y = random_group_element(rng, n)
            xi = random_state(rng, n)
            omega = rng.normal(size=3)

            # group axioms: identity, inverse, associativity
            if k % 4 == 0:
                z = random_group_element(rng, n)
                assoc_l = group_mul(group_mul(x, y), z)
                assoc_r = group_mul(x, group_mul(y, z))
                worst_alg = max(worst_alg,
                                np.max(np.abs(assoc_l.A - assoc_r.A)),
                                np.max(np.abs(assoc_l.a - assoc_r.a)))
                inv = group_mul(x, group_inv(x))
                worst_alg = max(worst_alg, np.max(np.abs(inv.A - np.eye(3))),
                                np.max(np.abs(inv.a)))

            # right action laws
            lhs = action_phi(x, action_phi(y, xi))
            rhs = action_phi(group_mul(y, x), xi)
            worst_alg = max(worst_alg, max_state_gap(lhs, rhs))
            worst_alg = max(worst_alg, np.max(np.abs(
                action_psi(x, action_psi(y, omega)) - action_psi(group_mul(y, x), omega))))
            out = output_h(xi, refs)
            worst_alg = max(worst_alg, np.max(np.abs(
                action_rho(x, action_rho(y, out)) - action_rho(group_mul(y, x), out))))

            # transitivity construction
            xi2 = random_state(rng, n)
            z = transitivity_element(xi, xi2)
            worst_alg = max(worst_alg, max_state_gap(action_phi(z, xi), xi2))

            # output equivariance
            worst_alg = max(worst_alg, np.max(np.abs(
                action_rho(x, output_h(xi, refs)) - output_h(action_phi(x, xi), refs))))

            # lift Ad-equivariance
            lam = lift_lambda(action_phi(x, xi), action_psi(x, omega))
            back = adjoint(x, lam)
            ref = lift_lambda(xi, omega)
            worst_alg = max(worst_alg, np.max(np.abs(back.nav_rot - ref.nav_rot)),
                            np.max(np.abs(back.nav_vec - ref.nav_vec)))
            for a, b in zip(back.cal, ref.cal):
                worst_alg = max(worst_alg, np.max(np.abs(a - b)))

            # lift projection condition via central differences
            if k % 10 == 0:
                lam = lift_lambda(xi, omega)
                scale = lambda l, s: type(l)(l.nav_rot * s, l.nav_vec * s,
                                             [c * s for c in l.cal])
                plus = action_phi(group_exp(scale(lam, h)), xi)
                minus = action_phi(group_exp(scale(lam, -h)), xi)
                d_rot = (plus.R - minus.R) / (2.0 * h)
                worst_fd = max(worst_fd,
                               np.max(np.abs(d_rot - xi.R @ wedge(omega - xi.b))),
                               np.max(np.abs((plus.b - minus.b) / (2.0 * h))))

    elapsed = time.perf_counter() - t0
    ok = worst_alg < 1e-10 and worst_fd < 1e-6 and elapsed < 10.0
    _report(1, ok, f"algebraic gap {worst_alg:.2e} (<1e-10), finite-difference gap "
                   f"{worst_fd:.2e} (<1e-6), runtime {elapsed:.1f} s (<10 s)")


def _eps_dot(eps, omega0, n, h=1e-5):
    e = coords_theta_inv(eps, n)
    lam = lift_lambda(e, omega0)
    lam0 = lift_lambda(identity_state(n), omega0)
    dlam = type(lam)(lam.nav_rot - lam0.nav_rot, lam.nav_vec - lam0.nav_vec,
                     [a - b for a, b in zip(lam.cal, lam0.cal)])
    scale = lambda l, s: type(l)(l.nav_rot * s, l.nav_vec * s, [c * s for c in l.cal])
    plus = coords_theta(action_phi(group_exp(scale(dlam, h)), e))
    minus = coords_theta(action_phi(group_exp(scale(dlam, -h)), e))
    return (plus - minus) / (2.0 * h)


def test_criterion_2_linearization_oracles():
    """A0 and C0 match central finite differences at the origin."""
    rng = np.random.default_rng(2)
    worst = 0.0
    delta = 1e-4
    for case in range(200):
        n = int(rng.integers(0, 4))
        dim = 6 + 3 * n
        omega0 = rng.normal(0.0, 2.0, size=3)
        a0 = compute_A0(omega0, n)
        fd = np.empty((dim, dim))
        for j in range(dim):
            ej = np.zeros(dim)
            ej[j] = delta
            fd[:, j] = (_eps_dot(ej, omega0, n) - _eps_dot(-ej, omega0, n)) / (2 * delta)
        worst = max(worst, np.max(np.abs(a0 - fd)))

        total = n + 2
        sensors = [SensorModel(f"s{i}", i < n, 0.1) for i in range(total)]
        refs = rng.normal(size=(total, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        for i, s in enumerate(sensors):
            s.reference = refs[i]
        validate_layout(sensors)
        c0 = compute_C0(sensors, refs, n)
        fd_c = np.empty((3 * total, dim))
        for j in range(dim):
            ej = np.zeros(dim)
            ej[j] = delta
            hp = output_h(coords_theta_inv(ej, n), refs).reshape(-1)
            hm = output_h(coords_theta_inv(-ej, n), refs).reshape(-1)
            fd_c[:, j] = (hp - hm) / (2 * delta)
        worst = max(worst, np.max(np.abs(c0 - fd_c)))
    _report(2, worst < 1e-6, f"worst linearization gap {worst:.2e} (<1e-6) "
                             f"over 200 random configurations")


def test_criterion_3_discretization_oracles():
    """Closed-form Phi vs expm, analytic Md vs quadrature, IEKF nilpotency."""
    rng = np.random.default_rng(3)
    noise = NoiseConfig(8.73e-4, 1.75e-5, 1e-4)

    worst_phi = 0.0
    dt = 0.005
    thetas = np.concatenate([np.linspace(0.0, 2.0, 41),
                             [1e-6, 5e-5, 9.9e-5, 1.01e-4, 5e-4]])
    for theta in thetas:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        omega0 = (theta / dt) * axis
        for n in (0, 1, 2):
            gap = np.max(np.abs(compute_phi(omega0, dt, n)
                                - expm(compute_A0(omega0, n) * dt)))
            worst_phi = max(worst_phi, gap)

    worst_md = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for dt_md in (0.001, 0.005, 0.05):
        for scale in (0.0, 0.5, 4.0, 40.0):
            omega0 = rng.normal(size=3)
            omega0 *= scale / max(np.linalg.norm(omega0), 1e-300)
            for n in (0, 1, 2):
                md = compute_Md(omega0, dt_md, noise, n)
                s = 0.5 * dt_md * (nodes + 1.0)
                ws = 0.5 * dt_md * weights
                mc = sigma_u(noise, n)
                quad = np.zeros_like(mc)
                for si, wi in zip(s, ws):
                    phi = compute_phi(omega0, si, n)
                    quad += wi * phi @ mc @ phi.T
                worst_md = max(worst_md, np.max(np.abs(md - quad)) / np.max(np.abs(quad)))

    worst_nil = 0.0
    for _ in range(50):
        r = exp_so3(rng.normal(size=3))
        f = np.zeros((9, 9))
        f[0:3, 3:6] = -r
        dt_n = rng.uniform(1e-4, 0.1)
        worst_nil = max(worst_nil, np.max(np.abs((np.eye(9) + f * dt_n)
                                                 - expm(f * dt_n))))

    ok = worst_phi < 1e-11 and worst_md < 1e-9 and worst_nil < 1e-14
    _report(3, ok, f"Phi vs expm {worst_phi:.2e} (<1e-11), Md vs quadrature rel "
                   f"{worst_md:.2e} (<1e-9), IEKF nilpotency {worst_nil:.2e} (<1e-14)")


def test_criterion_4_noiseless_observability_convergence():
    """Two non-parallel directions, noiseless data, 20 deg/state init error."""
    t0 = time.perf_counter()
    cfg = RunConfig(
        seed=7, duration=30.0, filter="both",
        gyro_rate=1000.0, traj_rate=1000.0,
        sigma_w=0.0, sigma_bw=0.0, sigma_kappa=1e-4,
        att_err_deg=20.0 / np.sqrt(3.0), cal_err_deg=20.0 / np.sqrt(3.0),
        bias_init_std=0.1 / np.sqrt(3.0),
        amp_min=0.48, amp_max=0.72, freq_min=0.28, freq_max=0.42,
        sensors=[
            SensorConfig("s1", "fixed", True, 0.003, 500.0,
                         reference=np.array([1.0, 0.0, 0.0])),
            SensorConfig("s2", "fixed", False, 0.003, 500.0,
                         reference=np.array([0.0, 0.0, 1.0])),
        ])
    validate_config(cfg)
    sim = simulate_run(cfg)                  # noiseless data
    cfg.sigma_w, cfg.sigma_bw = 2e-3, 1e-4   # filter gains stay alive
    results = run_filters(sim, cfg)
    elapsed = time.perf_counter() - t0

    details = []
    ok = elapsed < 30.0
    for kind, res in results.items():
        att = float(np.radians(res.err.att_deg[-1]))
        bias = float(res.err.bias[-1])
        cal = float(np.radians(np.max(res.err.cal_deg[-1])))
        ok = ok and att < 1e-3 and bias < 1e-3 and cal < 1e-3
        details.append(f"{kind}: att {att:.1e}, bias {bias:.1e}, cal {cal:.1e} rad")
    _report(4, ok, f"{'; '.join(details)} (<1e-3 each after 30 s; "
                   f"runtime {elapsed:.0f} s <30 s)")


def test_criterion_5_monte_carlo_ordering(mc_result):
    """EqF transient <= IEKF transient (attitude, calibration); asymptotic
    attitude within factor 1.5; magnitudes vs Table I reported unsgated."""
    eqf = mc_result.aggregate["eqf"]
    iekf = mc_result.aggregate["iekf"]
    att_ok = eqf.transient["att_deg"] <= iekf.transient["att_deg"]
    cal_ok = eqf.transient["cal_deg"] <= iekf.transient["cal_deg"]
    ratio = max(eqf.asymptotic["att_deg"], iekf.asymptotic["att_deg"]) / \
        min(eqf.asymptotic["att_deg"], iekf.asymptotic["att_deg"])
    asym_ok = ratio <= 1.5

    print("\n  magnitudes vs Table I (reported, not gated):")
    for kind in ("eqf", "iekf"):
        rep = mc_result.aggregate[kind]
        for phase in ("transient", "asymptotic"):
            got = getattr(rep, phase)
            ref = TABLE_I[kind][phase]
            print(f"    {kind:4s} {phase[0].upper()}: att {got['att_deg']:7.4f} "
                  f"(paper {ref['att_deg']:7.4f}) bias {got['bias']:.4f} "
                  f"(paper {ref['bias']:.4f}) cal {got['cal_deg']:7.4f} "
                  f"(paper {ref['cal_deg']:7.4f})")

    ok = att_ok and cal_ok and asym_ok
    _report(5, ok, f"EqF(T) att {eqf.transient['att_deg']:.4f} <= IEKF(T) att "
                   f"{iekf.transient['att_deg']:.4f}: {att_ok}; EqF(T) cal "
                   f"{eqf.transient['cal_deg']:.4f} <= IEKF(T) cal "
                   f"{iekf.transient['cal_deg']:.4f}: {cal_ok}; asymptotic att "
                   f"ratio {ratio:.3f} (<=1.5)")


def test_criterion_6_runtime_study():
    """Per-step expm slower than closed form; adaptive integration > 5x;
    first-order Euler comparable but measurably less accurate."""
    res = bench_phi()
    rel = res.relative
    expm_ok = rel["expm"] > 100.0
    ode_ok = rel["ode45"] > 500.0
    euler_ok = 90.0 <= rel["euler"] <= 130.0
    acc_ok = res.cov_gap_expm < 1e-10 and res.cov_gap_euler > 1e-6 \
        and res.phi_gap_euler > 1e-6
    ok = expm_ok and ode_ok and euler_ok and acc_ok
    _report(6, ok, f"relative runtimes (i)=100, (ii)={rel['expm']:.0f} (>100), "
                   f"(iii)={rel['euler']:.0f} (in [90, 130]), "
                   f"(iv)={rel['ode45']:.0f} (>500); cov gap (i)-(ii) "
                   f"{res.cov_gap_expm:.1e} (<1e-10), first-order covariance gap "
                   f"{res.cov_gap_euler:.1e} (>1e-6)")


def test_criterion_7_filter_consistency(mc_result):
    """Time-averaged asymptotic attitude NEES within [0.3, 3] x dimension."""
    nees = mc_result.nees["eqf"]
    ok = 0.3 * 3.0 <= nees <= 3.0 * 3.0
    _report(7, ok, f"EqF attitude NEES {nees:.2f} within [0.9, 9.0]")


def test_criterion_8_robustness_replay():
    """10 % magnetometer dropout and +-2 ms jitter keep the ordering."""
    result = montecarlo(_mc_config(dropout=0.1, jitter=0.002), MC_RUNS)
    eqf = result.aggregate["eqf"]
    iekf = result.aggregate["iekf"]
    att_ok = eqf.transient["att_deg"] <= iekf.transient["att_deg"]
    cal_ok = eqf.transient["cal_deg"] <= iekf.transient["cal_deg"]
    ok = att_ok and cal_ok
    _report(8, ok, f"with dropout/jitter: EqF(T) att {eqf.transient['att_deg']:.4f} "
                   f"<= IEKF(T) att {iekf.transient['att_deg']:.4f}: {att_ok}; "
                   f"EqF(T) cal {eqf.transient['cal_deg']:.4f} <= IEKF(T) cal "
                   f"{iekf.transient['cal_deg']:.4f}: {cal_ok}")
