"""Acceptance suite: one test per criterion, each printing a pass line.

The criteria that `cubli verify` checks run from its list, `verify.CHECKS`,
one test per check.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines and metrics.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubli import cli, control, plant, rotor, sim, verify
from cubli.control import Gains, Mode
from cubli.errors import ValidationError
from cubli.plant import CubliParams, FrictionParams, GravityModel, state

PARAMS = CubliParams()
FRICTION = FrictionParams()
DP_CON = plant.derive(PARAMS, FRICTION)
CONFIG = cli.build_config({})
SCENARIO = cli.build_scenario(CONFIG)


def report(number, name, metric, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({metric}) [{elapsed:.2f} s]")


def reference_scenario(**overrides):
    """The reference experiment, varied by Config fields."""
    return cli.build_scenario(dataclasses.replace(CONFIG, **overrides))


def test_01_parameter_derivation():
    started = time.perf_counter()
    # independent hand arithmetic from the rig constants
    d = 0.15 * math.sqrt(2.0) / 2.0
    m_c = 0.70 + 0.15
    i_co_bar = (3.75e-3 + 0.70 * d * d) + (1.25e-4 + 0.15 * d * d) - 1.25e-4
    omega_1 = 1.06e-5 / 1.25e-4
    gamma = i_co_bar / 1.25e-4
    delta = m_c * 9.81 * d / 1.25e-4
    pairs = [
        (DP_CON.d, d),
        (DP_CON.m_c, m_c),
        (DP_CON.I_cO_bar, i_co_bar),
        (DP_CON.omega_1, omega_1),
        (DP_CON.gamma, gamma),
        (DP_CON.delta, delta),
    ]
    worst = max(abs(got - want) / abs(want) for got, want in pairs)
    assert worst < 1e-4
    # rounded sanity anchors
    assert d == pytest.approx(0.106066, rel=1e-4)
    assert i_co_bar == pytest.approx(1.33125e-2, rel=1e-4)
    assert omega_1 == pytest.approx(0.0848, rel=1e-4)
    assert gamma == pytest.approx(106.5, rel=1e-4)
    assert delta == pytest.approx(7.08e3, rel=1e-3)
    report(1, "parameter-derivation", f"max rel err {worst:.2e} (tol 1e-4)", started)


@pytest.mark.parametrize("check", verify.CHECKS, ids=[check.__name__ for check in verify.CHECKS])
def test_verify_check(check):
    # the checks `cubli verify` runs, on the default config
    started = time.perf_counter()
    ok, metric = check(SCENARIO)
    assert ok, metric
    report("V", check.__name__, metric, started)


@pytest.mark.parametrize("tol", ["1e-12", "1e-9", "1e-8", "1e-6"])
def test_gate_passes_strictly_below_its_printed_tolerance(tol):
    assert verify.gate(math.nextafter(float(tol), 0.0), tol=tol)[0]
    assert not verify.gate(float(tol), tol=tol)[0]
    ok, metric = verify.gate(math.nan, tol=tol)
    assert not ok and metric == f"coefficient error = nan relative (tol {tol})"


# the checks whose claims hold for any rig, not only the default one; the oracle
# and energy checks run 10^4 and 10^5 steps and stay on the default config
RIG_CHECKS = (
    verify.linearization_fd, verify.open_loop_poles, verify.gain_synthesis,
    verify.closed_loop_poles, verify.fbl_cancellation,
)


def rig_check_failures(sc):
    """{check name: metric text} of each check in RIG_CHECKS that fails on sc."""
    results = {check.__name__: check(sc) for check in RIG_CHECKS}
    return {name: metric for name, (ok, metric) in results.items() if not ok}


@st.composite
def rig_scenarios(draw):
    """The reference experiment with each physics.* and friction.* value drawn
    log-uniformly within 10x of its default, under one gravity model for the
    plant and the controller; only scenarios that build are kept."""
    rnd = draw(st.randoms(use_true_random=True))  # uniform: st.floats favours the box's ends and centre

    def near(cls):
        return cls(**{f.name: f.default * 10.0 ** rnd.uniform(-1.0, 1.0) for f in dataclasses.fields(cls)})

    model = draw(st.sampled_from(list(GravityModel)))
    try:
        return reference_scenario(
            params=near(CubliParams), friction=near(FrictionParams), plant_gravity=model, controller_gravity=model
        )
    except ValidationError:
        assume(False)


@settings(deadline=None, max_examples=60)
@given(sc=rig_scenarios())
def test_rig_checks_hold_over_the_physics_box(sc):
    assert rig_check_failures(sc) == {}


@pytest.mark.parametrize("g", [0.3, 0.1])
def test_rig_checks_hold_at_low_gravity(g):
    # the poles spread far apart, where a float Faddeev-LeVerrier recurrence
    # read gain_synthesis errors of 1.3e-9 (g = 0.3) and 7.4e-8 (g = 0.1)
    assert rig_check_failures(reference_scenario(params=CubliParams(g=g))) == {}


def test_08_reference_experiment_reproduction():
    started = time.perf_counter()
    # clean run: settling behaviour
    ref = CONFIG.reference_angle_deg
    ts = sim.run(reference_scenario(disturbances=()))
    att_settle = sim.settling_time(ts.t, ts.theta_c_deg - ref, 0.5)
    assert att_settle < 1.0
    peak_wheel = float(np.max(np.abs(ts.omega_w)))
    wheel_settle = sim.settling_time(ts.t, ts.omega_w, 0.02 * peak_wheel)
    ratio = wheel_settle / att_settle
    assert 7.0 <= ratio <= 13.0
    assert float(np.max(np.abs(ts.tau_applied))) < CONFIG.tau_max  # never saturates

    # the reference run: each pulse rejected within 2 s of its end
    ts = sim.run(reference_scenario())
    pulses = CONFIG.disturbances
    recoveries = []
    for pulse, w_end in zip(pulses, [p.start for p in pulses[1:]] + [CONFIG.t_end]):
        w_start = pulse.start + pulse.duration
        mask = (ts.t >= w_start) & (ts.t <= w_end)
        seg_t, seg_y = ts.t[mask], ts.theta_c_deg[mask] - ref
        assert np.max(np.abs(seg_y)) > 0.2  # the pulse visibly perturbs
        resettle = sim.settling_time(seg_t, seg_y, 0.5) - w_start
        assert resettle < 2.0
        recoveries.append(resettle)
    report(
        8,
        "reference-experiment",
        f"attitude settle {att_settle:.3f} s (< 1 s), wheel/attitude ratio {ratio:.1f} "
        f"(in [7, 13]), recoveries {recoveries[0]:.2f}/{recoveries[1]:.2f} s (< 2 s)",
        started,
    )


def test_09_sensor_bias_equilibrium_shift():
    started = time.perf_counter()
    # at rest at the reference, without the pulses, and a 5 deg sensor bias
    biased = dict(initial_angle_deg=45.0, sensor_bias_deg=5.0, disturbances=())
    # full regulator: wheel feedback finds the true balance pose, so the
    # sensor-frame attitude converges to reference + bias = 50 deg
    ts = sim.run(reference_scenario(**biased, t_end=25.0))
    sensor_final = ts.theta_c_deg[-1] + 5.0
    assert sensor_final == pytest.approx(50.0, abs=0.5)
    assert ts.theta_c_deg[-1] == pytest.approx(45.0, abs=0.5)
    assert abs(ts.omega_w[-1]) < 0.1

    # attitude-only regulator: the wheel must keep accelerating to hold the
    # misaligned pose, so its speed never converges.  (Past ~6 s the friction
    # at the runaway wheel speed exceeds the actuator limit and the cube
    # falls, which is the failure the wheel feedback exists to prevent.)
    ts_att = sim.run(reference_scenario(**biased, t_end=5.5, mode=Mode.ATTITUDE_ONLY))
    speeds = np.abs(ts_att.omega_w)
    checkpoints = [speeds[np.searchsorted(ts_att.t, t_c)] for t_c in (2.0, 4.0, 5.5 - 1e-9)]
    assert checkpoints[0] < checkpoints[1] < checkpoints[2]  # monotone growth
    assert checkpoints[2] > 100.0
    report(
        9,
        "sensor-bias-shift",
        f"sensor-frame attitude {sensor_final:.2f} deg (50 +/- 0.5), terminal wheel speed "
        f"{abs(ts.omega_w[-1]):.2e} rad/s; attitude-only wheel grows to {checkpoints[2]:.0f} rad/s",
        started,
    )


def test_10_friction_identification():
    started = time.perf_counter()
    omegas = np.linspace(50.0, 600.0, 20)
    exact = sim.exact_steady_points(FRICTION, omegas)
    fit = sim.fit_friction(exact)
    rel = [
        abs(fit.params.tau_c - FRICTION.tau_c) / FRICTION.tau_c,
        abs(fit.params.b_w - FRICTION.b_w) / FRICTION.b_w,
        abs(fit.params.c_d - FRICTION.c_d) / FRICTION.c_d,
    ]
    assert max(rel) < 1e-9

    rng = np.random.default_rng(13)
    errors = {"tau_c": [], "b_w": [], "c_d": []}
    for _ in range(100):
        noisy = [
            sim.SteadyStatePoint(tau=p.tau * (1.0 + 0.01 * rng.standard_normal()), omega_ss=p.omega_ss)
            for p in exact
        ]
        fitted = sim.fit_friction(noisy).params
        errors["tau_c"].append(abs(fitted.tau_c - FRICTION.tau_c) / FRICTION.tau_c)
        errors["b_w"].append(abs(fitted.b_w - FRICTION.b_w) / FRICTION.b_w)
        errors["c_d"].append(abs(fitted.c_d - FRICTION.c_d) / FRICTION.c_d)
    medians = {k: float(np.median(v)) for k, v in errors.items()}
    assert max(medians.values()) < 0.05
    report(
        10,
        "friction-identification",
        f"noiseless max rel err {max(rel):.2e} (tol 1e-9); noisy medians "
        f"tau_c {medians['tau_c']:.1%}, b_w {medians['b_w']:.1%}, c_d {medians['c_d']:.1%} (tol 5%)",
        started,
    )


def test_11_small_angle_equivalence():
    started = time.perf_counter()
    spec = SCENARIO.design
    gains = Gains(spec.omega_n**2, 2.0 * spec.zeta * spec.omega_n)  # the attitude-only law
    q_r = SCENARIO.q_r
    rng = np.random.default_rng(17)
    worst = 0.0
    peak = 0.0
    devs = []
    for _ in range(2000):
        theta_e = math.radians(rng.uniform(-2.0, 2.0))
        omega_c = rng.uniform(-0.1, 0.1)
        x = state(rotor.from_angle(math.radians(CONFIG.reference_angle_deg) - theta_e), omega_c=omega_c)
        u_nl = control.regulator_attitude(x, q_r, gains)
        u_sa = control.regulator_small_angle(x, q_r, gains)
        worst = max(worst, abs(u_nl - u_sa))
        peak = max(peak, abs(u_nl))
        devs.append((abs(u_nl - u_sa), abs(u_nl)))
    # relative to the command scale over the operating box (the two laws cross
    # zero together, so a pointwise ratio is ill-defined at sign changes)
    assert worst < 1e-3 * peak
    # pointwise wherever the command is not vanishing
    for dev, mag in devs:
        if mag > 0.1 * peak:
            assert dev < 1e-3 * mag
    report(
        11,
        "small-angle-equivalence",
        f"max law deviation {worst:.2e} vs peak command {peak:.2f} "
        f"({worst / peak:.2e} relative, tol 1e-3)",
        started,
    )
