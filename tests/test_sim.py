import dataclasses
import errno
import itertools
import math
import os
import select
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubli import cli, control, plant, rotor, sim
from cubli.control import Mode
from cubli.errors import CubliError, DivergenceError, IdentificationError, SingularityError, ValidationError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel, state


@pytest.fixture(scope="module")
def dp():
    return plant.derive(CubliParams(), FrictionParams())


def default_scenario(**overrides):
    """The reference experiment cut to 8 s without its pulses, varied by Config fields."""
    return dataclasses.replace(cli.Config(), **{"t_end": 8.0, "disturbances": (), **overrides}).scenario


def test_rk4_step_fixed_point(dp):
    x = state(rotor.UPRIGHT)
    stepped = sim.rk4_step(x, 0.0, 1e-3, dp, FrictionParams())
    assert_allclose(stepped, x, atol=1e-15)


def test_stacked_step_allocates_only_its_three_work_arrays(dp):
    # sim.rk4's rate, stage and accumulator are 15 rows; the rate writes into its
    # output rows, and (N,) temporaries per rate term read 20 rows
    rng = np.random.default_rng(3)
    theta = rng.uniform(-math.pi, math.pi, 10_000)
    x = np.vstack([np.cos(theta), np.sin(theta), rng.uniform(-300.0, 300.0, (3, theta.size))])
    sim.rk4_step(x, 0.1, 1e-3, dp, FrictionParams())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = sim.rk4_step(x, 0.1, 1e-3, dp, FrictionParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak - base <= 1.01 * 15 * x[0].nbytes


def test_small_oscillation_period_near_hanging_pose(dp):
    # 2 degrees off the stable bottom pose; frictionless, unforced.  The wheel
    # decouples, so the swing frequency is the pendulum natural frequency.
    x = tuple(state(rotor.from_angle(math.radians(-135.0 + 2.0))).tolist())
    dt = 1e-4
    step = sim.float_stepper(dp, plant.FRICTION_FREE, GravityModel.CONSISTENT, Fidelity.EXACT, dt)
    crossings = []
    prev = rotor.to_angle(x[:2]) - math.radians(-135.0)
    for k in range(int(4.0 / dt)):
        x = step(x, 0.0, 0.0)
        dev = rotor.to_angle(x[:2]) - math.radians(-135.0)
        if prev < 0.0 <= dev:
            # linear interpolation of the upward zero crossing
            crossings.append((k + prev / (prev - dev)) * dt)
        prev = dev
    assert len(crossings) >= 3
    measured = np.mean(np.diff(crossings))
    expected = 2.0 * math.pi / plant.pendulum_frequency(dp, GravityModel.CONSISTENT)
    assert abs(measured - expected) / expected < 1e-3


def test_rk4_fourth_order_convergence(dp):
    fp = FrictionParams()

    def integrate(dt):
        x = tuple(state(rotor.from_angle(math.radians(30.0)), omega_w=20.0).tolist())
        step = sim.float_stepper(dp, fp, GravityModel.CONSISTENT, Fidelity.EXACT, dt)
        for _ in range(int(round(0.5 / dt))):
            x = step(x, 0.0, 0.0)
        return np.array(x)

    ref = integrate(0.5e-3 / 64.0)
    err_coarse = np.max(np.abs(integrate(2e-3) - ref))
    err_fine = np.max(np.abs(integrate(1e-3) - ref))
    assert 10.0 < err_coarse / err_fine < 22.0  # ~16x for a 4th-order method


def test_rk4_step_column_alone_matches_stacked_bitwise():
    # The ensemble benchmark's seed-104 states: column 5824 once drifted by an
    # ulp when integrated alone, because the renormalization squared a numpy
    # scalar through the scalar power instead of a plain product.
    n = 10_000
    rng = np.random.default_rng(104)
    theta = rng.uniform(-np.pi, np.pi, n)
    omega_c = rng.uniform(-5.0, 5.0, n)
    omega_w = rng.uniform(-200.0, 200.0, n)
    x0 = np.stack([np.cos(theta), np.sin(theta), np.zeros(n), omega_c, omega_w])
    columns = [5824, *rng.choice(n, 7, replace=False)]
    dp_free = plant.derive(CubliParams(), plant.FRICTION_FREE)

    def integrate(x):
        for _ in range(300):
            x = sim.rk4_step(x, 0.0, 1e-3, dp_free, plant.FRICTION_FREE)
        return x

    stacked = integrate(x0[:, columns])
    for i, j in enumerate(columns):
        assert np.array_equal(integrate(x0[:, j].copy()), stacked[:, i]), f"column {j}"


def test_run_at_equilibrium_is_quiescent():
    # at rest on the exact fixed point q0 = q1.  The config's 45 deg is 1 ulp off it, and
    # the Coulomb friction's jump at omega_w = 0 turns that into |u| = 0.11 within 1 s
    sc = default_scenario(t_end=1.0)
    ts = sim.run(dataclasses.replace(sc, initial=state(rotor.UPRIGHT), q_r=rotor.UPRIGHT))
    assert_allclose(ts.u, np.zeros_like(ts.u), atol=1e-12)
    assert_allclose(ts.theta_c_deg, np.full_like(ts.theta_c_deg, 45.0), atol=1e-10)
    assert_allclose(ts.omega_w, np.zeros_like(ts.omega_w), atol=1e-12)


def test_run_time_grid_and_unit_norm():
    ts = sim.run(default_scenario(t_end=2.0))
    assert len(ts.t) == 2001
    assert_allclose(np.diff(ts.t), 1e-3, rtol=1e-9)
    assert np.all(np.diff(ts.t) > 0)
    assert np.max(np.abs(np.hypot(ts.q0, ts.q1) - 1.0)) <= 1e-9


def test_run_stabilizes_from_offset():
    sc = default_scenario()
    ts = sim.run(sc)
    assert abs(ts.theta_c_deg[-1] - 45.0) < 0.05
    assert abs(ts.omega_w[-1]) < 5.0
    attitude_s, _, _ = sim.settling(ts, sc.q_r, 0.0, math.inf)
    assert attitude_s < 1.0


def test_run_modes_differ():
    full = sim.run(default_scenario())
    att = sim.run(default_scenario(mode=Mode.ATTITUDE_ONLY))
    small = sim.run(default_scenario(mode=Mode.SMALL_ANGLE))
    # all three stabilize the attitude from 5 deg away
    for ts in (full, att, small):
        assert abs(ts.theta_c_deg[-1] - 45.0) < 0.5
    # only the wheel-feedback modes unwind the wheel angle
    assert abs(full.theta_w[-1]) < abs(att.theta_w[-1])


def test_run_raises_singularity_with_timestamp():
    # reference exactly 90 degrees from the initial attitude
    scenario = default_scenario(reference_angle_deg=130.0, t_end=1.0)
    with pytest.raises(SingularityError, match="t = 0.0000 s"):
        sim.run(scenario)


def test_run_raises_divergence_on_unstable_step():
    with pytest.raises(DivergenceError, match="t ="):
        sim.run(default_scenario(dt=0.9, t_end=900.0))


def test_run_errors_carry_time_step_and_state():
    singular = default_scenario(reference_angle_deg=130.0, t_end=1.0)
    with pytest.raises(SingularityError) as info:
        sim.run(singular)
    err = info.value
    assert (err.t, err.step) == (0.0, 0)
    assert np.array_equal(err.state, singular.initial)

    with pytest.raises(DivergenceError) as info:
        sim.run(default_scenario(dt=0.9, t_end=900.0))
    err = info.value
    assert err.step >= 1
    assert err.t == pytest.approx(err.step * 0.9)
    assert str(err).endswith(f"at t = {err.t:.4f} s")
    assert err.state.shape == (5,) and not np.isfinite(err.state).all()


def test_run_failure_reports_the_grid_time():
    # at dt = 0.3 s the step's grid time k * dt and the sum t[k - 1] + dt differ in the last bit
    with pytest.raises(DivergenceError) as info:
        sim.run(default_scenario(dt=0.3, t_end=300.0))
    err = info.value
    assert err.t == (np.arange(err.step + 1) * 0.3)[-1]


def test_rk4_step_divergence_carries_the_state_alone():
    x = state(rotor.from_angle(0.3), omega_w=math.inf)
    with pytest.raises(DivergenceError) as info, np.errstate(invalid="ignore"):
        sim.rk4_step(x, 0.0, 1e-3, plant.derive(CubliParams(), FrictionParams()), FrictionParams())
    err = info.value
    assert (err.t, err.step) == (None, None)
    assert err.state.shape == (5,) and not np.isfinite(err.state).all()


def test_on_grid_pulses_weigh_exactly_one_on_the_steps_they_cover():
    # the reference experiment's pulses, against the per-step scan that
    # sim.run used before: t_k = k dt is inside [start, start + duration)
    pulses = (*cli.Config().disturbances, sim.Disturbance(16.05, 0.2, -0.03))
    dt, n = 1e-3, 20_000
    t = np.arange(n) * dt
    scanned = [sum(d.torque for d in pulses if d.start <= t_k < d.start + d.duration) for t_k in t]
    tau = sim.disturbance_torque(pulses, dt, n)
    assert tau.tobytes() == np.array(scanned, dtype=float).tobytes()


def test_sub_step_pulse_delivers_its_impulse():
    dt = 1e-2
    inside = sim.Disturbance(start=0.1005, duration=0.0005, torque=5.0)  # between grid points
    split = sim.Disturbance(start=0.0998, duration=0.0005, torque=5.0)  # across t = 0.1 s
    for pulse, steps in ((inside, [10]), (split, [9, 10])):
        tau = sim.disturbance_torque((pulse,), dt, 20)
        assert np.nonzero(tau)[0].tolist() == steps
        assert tau.sum() * dt == pytest.approx(pulse.torque * pulse.duration, rel=1e-12)


def test_sub_step_pulse_acts_like_the_same_impulse_over_the_step():
    # the pulse used to be dropped: the run was bit-identical to a quiet one
    dt = 1e-2
    quiet = sim.run(default_scenario(dt=dt, t_end=0.5))
    pulsed = sim.run(default_scenario(dt=dt, t_end=0.5, disturbances=(sim.Disturbance(0.1005, 0.0005, 5.0),)))
    spread = sim.run(default_scenario(dt=dt, t_end=0.5, disturbances=(sim.Disturbance(0.1, dt, 0.25),)))
    assert not np.array_equal(quiet.omega_c, pulsed.omega_c)
    assert_allclose(pulsed.omega_c, spread.omega_c, rtol=0, atol=1e-12)


def test_disturbance_pulse_is_rejected():
    scenario = default_scenario(disturbances=(sim.Disturbance(start=4.0, duration=0.1, torque=0.05),))
    ts = sim.run(scenario)
    i_end = np.searchsorted(ts.t, 4.1)
    deviation = np.abs(ts.theta_c_deg[i_end:] - 45.0)
    assert deviation.max() > 0.2  # the pulse is visible
    resettle, _, _ = sim.settling(ts, scenario.q_r, 4.1, math.inf)
    assert resettle - 4.1 < 2.0


def test_scenario_validation():
    with pytest.raises(ValidationError):
        default_scenario(dt=0.0)
    with pytest.raises(ValidationError):
        default_scenario(t_end=1e-4, dt=1e-3)
    with pytest.raises(ValidationError):
        sim.Disturbance(start=1.0, duration=0.0, torque=0.1)


def test_scenario_derives_its_plant_and_gains_and_replace_derives_them_again():
    sc = cli.Config().scenario
    assert sc.dp == plant.derive(sc.params, sc.friction)
    assert sc.gains == control.gains_for_mode(sc.mode, sc.design, sc.dp)
    assert "dp=" not in repr(sc) and "gains=" not in repr(sc)
    draggier = dataclasses.replace(sc, friction=FrictionParams(b_w=2.0 * sc.friction.b_w))
    assert draggier.dp == plant.derive(sc.params, draggier.friction) and draggier.dp.omega_1 != sc.dp.omega_1
    attitude_only = dataclasses.replace(sc, mode=Mode.ATTITUDE_ONLY)
    assert attitude_only.gains == control.gains_for_mode(Mode.ATTITUDE_ONLY, sc.design, sc.dp) != sc.gains
    with pytest.raises(ValueError):  # derived, never given
        dataclasses.replace(sc, dp=sc.dp)


def logged(error_deg, omega_w):
    """A TimeSeries at t = 0, 1, 2, ... s whose attitude is error_deg off 45 deg;
    the columns settling does not read are zero."""
    t = np.arange(len(omega_w), dtype=float)
    q = rotor.from_angle(np.radians(45.0 + np.asarray(error_deg)))
    columns = {name: np.zeros_like(t) for name in sim.TimeSeries.COLUMNS}
    return sim.TimeSeries(**{**columns, "t": t, "q0": q[0], "q1": q[1], "omega_w": np.asarray(omega_w, float)})


def test_settling():
    error = np.array([3.0, 1.5, 0.4, 0.3, 0.1, 0.2])  # deg
    omega_w = [100.0, -50.0, 3.0, 1.0, -1.5, 0.5]  # 2% of the peak is 2 rad/s
    upright = rotor.from_angle(math.radians(45.0))
    assert sim.settling(logged(error, omega_w), upright, 0.0, math.inf) == (2.0, 3.0, 100.0)
    # within 0.5 deg from the start, and never (it ends 0.6 deg off)
    assert sim.settling(logged(0.1 * error, omega_w), upright, 0.0, math.inf)[0] == 0.0
    assert sim.settling(logged(3.0 * error, omega_w), upright, 0.0, math.inf)[0] == math.inf
    # the window is start <= t < end, and its own peak sets the wheel's band
    assert sim.settling(logged(error, omega_w), upright, 1.0, 4.0) == (2.0, 3.0, 50.0)
    assert sim.settling(logged(error, omega_w), upright, 6.0, math.inf) is None
    assert sim.settling(logged(error, omega_w), upright, 0.0, 0.0) is None


@pytest.mark.parametrize("reference", [45.0, 405.0, -315.0])
def test_settling_is_measured_on_the_circle(reference):
    # one pose: the controller's error, and so the settling, is 45 deg's
    sc = default_scenario(reference_angle_deg=reference, initial_angle_deg=reference - 5.0, t_end=2.0)
    attitude_s, _, _ = sim.settling(sim.run(sc), sc.q_r, 0.0, math.inf)
    assert f"{attitude_s:.3f}" == "0.651"


def test_steady_state_sweep_fixed_point():
    fp = FrictionParams()
    tau = float(plant.friction_torque(100.0, fp))
    [omega] = sim.steady_state_sweep([tau])
    assert omega == pytest.approx(100.0, rel=1e-3)


def test_steady_state_sweep_rejects_subcoulomb_torque():
    with pytest.raises(IdentificationError):
        sim.steady_state_sweep([2.0e-3])  # below tau_c = 2.46e-3


def test_steady_state_sweep_monotone():
    fp = FrictionParams()
    speeds = sim.steady_state_sweep(plant.friction_torque(np.linspace(50, 600, 20), fp))
    assert speeds.dtype == np.float64 and np.all(np.diff(speeds) > 0.0)


def reference_sweep_level(level, I_wG, fp):
    """One steady_state_sweep level written plainly: one accel call per RK4
    stage, the friction law branch by branch.  Returns (converged, omega_w
    at the end, the stage points at which omega_w <= 0 after the start)."""
    dt, budget, accel_tol = 1e-2, 200.0, 1e-6
    inv_iwg = 1.0 / I_wG
    tc, bw, cd = fp.tau_c, fp.b_w, fp.c_d
    not_positive = []

    def accel(w, tau):
        if w > 0.0:
            tf = tc + bw * w + cd * w * w
        else:
            not_positive.append(w)
            if w < 0.0:
                tf = -(tc - bw * w + cd * w * w)
            else:
                tf = 0.0
        return (tau - tf) * inv_iwg

    w = 0.0
    for _ in range(int(round(budget / dt))):
        k1 = accel(w, level)
        if abs(k1) < accel_tol:
            return True, w, not_positive[1:]
        k2 = accel(w + 0.5 * dt * k1, level)
        k3 = accel(w + 0.5 * dt * k2, level)
        k4 = accel(w + dt * k3, level)
        w += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return False, w, not_positive[1:]


def log_uniform(default):
    """Values within 10x of default either way, log-uniform."""
    return st.floats(-1.0, 1.0).map(lambda e: default * 10.0**e)


@settings(deadline=None, max_examples=100)
@given(
    log_uniform(2.46e-3), log_uniform(1.06e-5), log_uniform(1.70e-8), log_uniform(1.25e-4),
    st.floats(0.0, 3.0), st.booleans(),
)
def test_steady_state_sweep_is_the_reference_loop_bit_for_bit(tau_c, b_w, c_d, I_wG, log_speed, negative):
    fp, params = FrictionParams(tau_c, b_w, c_d), CubliParams(I_wG=I_wG)
    w = 10.0**log_speed  # the level whose steady speed is 1-1000 rad/s, so |tau| > tau_c
    level = (-1.0 if negative else 1.0) * (tau_c + b_w * w + c_d * w * w)
    converged, expected, _ = reference_sweep_level(level, I_wG, fp)
    assume(converged)
    [omega, mirrored] = sim.steady_state_sweep([level, -level], params, fp)
    assert omega.hex() == expected.hex()
    assert mirrored.hex() == (-expected).hex()


@pytest.mark.parametrize("fp", [FrictionParams(), FrictionParams(tau_c=1e-4, b_w=0.03)], ids=["rig", "steep_viscous"])
def test_steady_state_sweep_on_the_cli_levels_is_the_reference_loop_and_mirrors(fp):
    levels = plant.friction_torque(np.linspace(60.0, 600.0, 20), fp)
    omegas = sim.steady_state_sweep(np.concatenate([levels, -levels]), fp=fp)
    below_zero = []
    for omega, mirrored, level in zip(omegas, omegas[len(levels):], levels.tolist()):
        converged, expected, not_positive = reference_sweep_level(level, CubliParams().I_wG, fp)
        assert converged and omega.hex() == expected.hex()
        assert mirrored.hex() == (-expected).hex()
        assert reference_sweep_level(-level, CubliParams().I_wG, fp)[1].hex() == mirrored.hex()
        below_zero += not_positive
    # the steep viscous term overshoots: its first steps swing omega_w below zero
    assert (min(below_zero, default=0.0) < 0.0) == (fp.b_w == 0.03)


def test_steady_state_sweep_at_rest_is_positive_zero_on_both_signs():
    # without Coulomb friction a tiny level is already steady at rest, and the reference keeps +0.0
    fp = FrictionParams(tau_c=0.0)
    for level in (1e-12, -1e-12):
        converged, expected, _ = reference_sweep_level(level, CubliParams().I_wG, fp)
        assert converged and expected.hex() == (0.0).hex()
        [omega] = sim.steady_state_sweep([level], fp=fp)
        assert omega.hex() == (0.0).hex()


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_steady_state_sweep_rejects_a_non_finite_level(level):
    with pytest.raises(IdentificationError, match=r"input torque -?(nan|inf) N m is not finite"):
        sim.steady_state_sweep([5e-3, level])


@pytest.mark.parametrize("level, speed", [(36.0, "-inf"), (-36.0, "inf")])
def test_steady_state_sweep_names_the_step_where_the_wheel_diverges(level, speed):
    # the steep drag overshoots past zero to the opposite speed, without bound
    with pytest.raises(IdentificationError) as err:
        sim.steady_state_sweep([level], fp=FrictionParams(c_d=1e-2))
    assert str(err.value) == f"wheel speed diverged to {speed} rad/s at step 2 (t = 0.02 s) at tau = {level:.3e} N m"


def test_fit_friction_exact_recovery():
    fp = FrictionParams()
    omegas = np.linspace(50, 600, 20)
    fitted, residual_rms = sim.fit_friction(plant.friction_torque(omegas, fp), omegas)
    assert fitted.tau_c == pytest.approx(fp.tau_c, rel=1e-9)
    assert fitted.b_w == pytest.approx(fp.b_w, rel=1e-9)
    assert fitted.c_d == pytest.approx(fp.c_d, rel=1e-9)
    assert residual_rms < 1e-12


def exact_fit(omegas):
    """fit_friction on noise-free samples straight from the rig's friction curve."""
    omegas = np.array(omegas)
    return sim.fit_friction(plant.friction_torque(omegas, FrictionParams()), omegas)


def test_fit_friction_rank_deficiency():
    with pytest.raises(IdentificationError):
        exact_fit([100.0, 200.0])
    with pytest.raises(IdentificationError):
        # three samples but only two distinct speeds
        exact_fit([100.0, 100.0, 200.0])
    with pytest.raises(IdentificationError, match="regressor matrix is rank deficient"):
        # three distinct speeds whose columns [1, w, w^2] are numerically dependent
        exact_fit([1e8, 1e8 + 1, 1e8 + 2])


@pytest.mark.parametrize(
    "taus, omegas",
    [
        (np.ones(4), np.arange(1.0, 4.0)),  # one torque too many
        (np.ones(3), np.arange(1.0, 5.0)),  # one speed too many
        (np.ones((2, 3)), np.arange(1.0, 7.0).reshape(2, 3)),  # one length, but 2-D
        (np.ones(6), np.arange(1.0, 7.0).reshape(2, 3)),  # as many values, but not one shape
        (1.0, 2.0),  # 0-D
    ],
    ids=["longer-taus", "longer-omegas", "2-d", "1-d-and-2-d", "0-d"],
)
def test_fit_friction_rejects_samples_that_do_not_pair(taus, omegas):
    with pytest.raises(IdentificationError, match=r"need 1-D taus and omegas of one length, got \("):
        sim.fit_friction(taus, omegas)


def test_fit_friction_under_noise_smoke():
    fp = FrictionParams()
    omegas = np.linspace(50, 600, 20)
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(20):
        taus = plant.friction_torque(omegas, fp) * (1 + 0.01 * rng.standard_normal(omegas.size))
        fitted, _ = sim.fit_friction(taus, omegas)
        errors.append(abs(fitted.b_w - fp.b_w) / fp.b_w)
    assert np.median(errors) < 0.05


def test_sensor_bias_shifts_wheel_equilibrium_not_attitude():
    # wheel feedback hunts the true balance pose; the sensor frame reads the bias
    scenario = default_scenario(initial_angle_deg=45.0, sensor_bias_deg=5.0, t_end=25.0)
    ts = sim.run(scenario)
    assert ts.theta_c_deg[-1] == pytest.approx(45.0, abs=0.2)
    assert abs(ts.omega_w[-1]) < 0.1
    assert abs(ts.theta_w[-1]) > 100.0  # the wheel angle absorbs the offset


def test_steady_state_sweep_tells_a_stalled_step_from_a_slow_wheel():
    # Stiff drag, at the fifth level of `fit-friction --synthetic`: by step 1,000 the
    # RK4 stages at omega_w = 134.996 rad/s cancel to below half an ulp of omega_w,
    # so the 10 ms step stops moving it far from the wheel's steady speed of
    # 173.7 rad/s, and the error says so.
    fp = FrictionParams(c_d=1e-4)
    level = plant.friction_torque(np.linspace(60.0, 600.0, 20)[4:5], fp)
    with pytest.raises(IdentificationError) as err:
        sim.steady_state_sweep(level, fp=fp)
    assert str(err.value) == (
        "wheel did not reach steady state within 200 s at tau = 3.021e+00 N m: omega_w = 134.9963194730358 rad/s"
        " is a fixed point of the 10 ms RK4 step, not of the wheel (|omega_w_dot| = 9.557e+03 rad/s^2)"
    )
    # a heavy wheel still spinning up when the budget ends is only out of time
    with pytest.raises(IdentificationError) as err:
        sim.steady_state_sweep([1e-2], params=CubliParams(I_wG=10.0))
    assert str(err.value) == "wheel did not reach steady state within 200 s at tau = 1.000e-02 N m"


# The split sweep: the levels dealt round-robin (sim.side_by_side), one chunk
# per usable core, each chunk in a forked child once there are two.
CLI_LEVELS = plant.friction_torque(np.linspace(60.0, 600.0, 20), FrictionParams())
CHUNKS = pytest.mark.parametrize("chunks", [1, 2, 4], ids=["1-chunk", "2-chunks", "4-chunks"])


def set_cores(monkeypatch, cores):
    """side_by_side's usable cores, and so its chunk count for enough units."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def count_forks(monkeypatch):
    """The list that each os.fork call of this process appends to."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
    return calls


@pytest.fixture
def interrupt_after():
    """interrupt_after(seconds) raises KeyboardInterrupt in this process once
    that much time has passed; the timer is stopped when the test ends."""

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@CHUNKS
def test_split_sweep_is_the_inline_sweep_bit_for_bit(chunks, monkeypatch):
    set_cores(monkeypatch, chunks)
    levels = np.concatenate([CLI_LEVELS, -CLI_LEVELS])
    forked = sim.steady_state_sweep(levels)
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")  # every level runs in this process, in level order
    assert forked.tobytes() == sim.steady_state_sweep(levels).tobytes()


@CHUNKS
def test_split_sweep_raises_the_lowest_failing_levels_error(chunks, monkeypatch):
    # stiff drag: the first four CLI levels converge and the fifth stalls.  The
    # stall at index 7 is in the second chunk of two and the fourth of four;
    # the NaN at index 17, which fails at once, is in the second of either
    set_cores(monkeypatch, chunks)
    fp = FrictionParams(c_d=1e-4)
    levels = np.resize(plant.friction_torque(np.linspace(60.0, 600.0, 20)[:4], fp), 20)
    levels[7] = plant.friction_torque(np.linspace(60.0, 600.0, 20)[4], fp)
    levels[17] = math.nan
    with pytest.raises(IdentificationError) as forked:
        sim.steady_state_sweep(levels, fp=fp)
    assert_no_child_left()
    assert str(forked.value).startswith("wheel did not reach steady state within 200 s at tau = 3.021e+00 N m: ")
    monkeypatch.delattr(os, "fork")
    with pytest.raises(IdentificationError) as serial:
        sim.steady_state_sweep(levels, fp=fp)
    assert str(forked.value) == str(serial.value)


@CHUNKS
def test_split_sweep_raises_a_failure_in_the_last_chunk_with_its_text(chunks, monkeypatch):
    set_cores(monkeypatch, chunks)
    levels = CLI_LEVELS.copy()
    levels[-1] = -math.nan
    with pytest.raises(IdentificationError, match=r"^input torque nan N m is not finite$"):
        sim.steady_state_sweep(levels)
    assert_no_child_left()


@pytest.mark.parametrize(
    "cores, n_levels, forks",
    [(1, 20, 0), (2, 20, 2), (4, 20, 4), (4, 3, 3), (4, 1, 0), (4, 0, 0)],
)
def test_split_sweep_forks_one_process_per_chunk(cores, n_levels, forks, monkeypatch):
    set_cores(monkeypatch, cores)
    calls = count_forks(monkeypatch)
    speeds = sim.steady_state_sweep(CLI_LEVELS[:n_levels])
    assert len(calls) == forks and speeds.shape == (n_levels,)
    assert_no_child_left()


@pytest.mark.parametrize(
    "chunks, where",
    [(1, "own-chunk"), (2, "child"), (4, "child"), (2, "join"), (4, "join")],
)
def test_no_process_outlives_an_interrupted_sweep(chunks, where, monkeypatch, interrupt_after):
    # every level stops at its first stage, at rest, off the fast path: with one
    # chunk this process is interrupted there; with more, every child sleeps
    # there while the child holding the first level fails it at once (a NaN),
    # or while this process is interrupted 0.2 s into waiting for a child
    set_cores(monkeypatch, chunks)
    parent, friction = os.getpid(), plant._friction

    def stage(*args):
        if os.getpid() != parent:
            time.sleep(30)
        elif where == "own-chunk":
            raise KeyboardInterrupt
        return friction(*args)

    monkeypatch.setattr(plant, "_friction", stage)
    levels = CLI_LEVELS.copy()
    if where == "child":
        levels[0] = math.nan
    start = time.monotonic()
    if where == "join":
        interrupt_after(0.2)
    with pytest.raises(IdentificationError if where == "child" else KeyboardInterrupt):
        sim.steady_state_sweep(levels)
    assert_no_child_left()
    assert time.monotonic() - start < 10.0  # the children were killed, not waited for


def test_a_failed_fork_runs_the_sweep_inline(monkeypatch):
    set_cores(monkeypatch, 4)
    failing = CLI_LEVELS.copy()
    failing[-1] = math.nan
    forked = sim.steady_state_sweep(CLI_LEVELS)
    pipes, pipe = [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", no_fork)
    assert sim.steady_state_sweep(CLI_LEVELS).tobytes() == forked.tobytes()
    with pytest.raises(IdentificationError, match=r"^input torque nan N m is not finite$"):
        sim.steady_state_sweep(failing)
    assert len(pipes) == 8  # a pipe per chunk of each sweep
    for fd in sum(pipes, ()):  # both ends closed
        with pytest.raises(OSError):
            os.fstat(fd)


# sim.side_by_side's guarantees, on stand-in units that cost nothing.


def whose(unit):
    """A stand-in unit's result: the unit and the process that ran it."""
    return unit, os.getpid()


@pytest.mark.parametrize("cores, n_units", [(1, 5), (2, 5), (3, 7), (4, 2)])
def test_side_by_side_yields_each_result_in_unit_order_from_round_robin_chunks(cores, n_units, monkeypatch):
    set_cores(monkeypatch, cores)
    results = list(sim.side_by_side(whose, range(n_units)))
    assert_no_child_left()
    assert [unit for unit, _ in results] == list(range(n_units))
    chunks = min(cores, n_units)
    pids = [pid for _, pid in results]
    assert all(pids[i] == pids[i % chunks] for i in range(n_units))  # unit i in chunk i mod chunks
    assert len(set(pids)) == chunks
    if chunks > 1:
        assert os.getpid() not in pids  # this process only joins
    else:
        assert pids == [os.getpid()] * n_units


def test_side_by_side_raises_the_lower_failure_held_by_a_later_chunk(monkeypatch):
    # unit 1 (the second chunk) fails after unit 2 (the first chunk) has failed
    set_cores(monkeypatch, 2)

    def unit(u):
        if u == 1:
            time.sleep(0.1)
        if u in (1, 2):
            raise ValueError(f"unit {u}")
        return u

    results = sim.side_by_side(unit, range(6))
    assert next(results) == 0
    with pytest.raises(ValueError, match="^unit 1$"):
        next(results)
    assert_no_child_left()
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match="^unit 1$"):  # as a serial loop raises it
        list(sim.side_by_side(unit, range(6)))


def test_a_child_that_dies_is_blamed_on_the_first_unit_it_did_not_report(monkeypatch):
    set_cores(monkeypatch, 2)

    def unit(u):
        if u == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return u

    results = sim.side_by_side(unit, range(6))
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(CubliError, match=r"^forked process ended without a result \(exit status -9\)$"):
        next(results)
    assert_no_child_left()


@pytest.mark.parametrize("how", ["raise", "close", "interrupt"])
def test_no_child_or_grandchild_outlives_side_by_side(how, monkeypatch, interrupt_after):
    # unit 1's child forks two grandchildren that sleep; unit 0's child waits
    # until both are running, then fails, or reports while this process is
    # closed or interrupted 0.2 s into waiting for unit 1
    set_cores(monkeypatch, 2)
    ready, held = os.pipe()  # inherited by every process of the run
    start = time.monotonic()

    def sleeper(u):
        os.write(held, b"!")
        time.sleep(60)

    def unit(u):
        if u == 1:
            list(sim.side_by_side(sleeper, range(2)))
        assert os.read(ready, 1) + os.read(ready, 1) == b"!!"
        if how == "raise":
            raise ValueError("unit 0")
        return u

    results = sim.side_by_side(unit, range(2))
    try:
        if how == "raise":
            with pytest.raises(ValueError, match="^unit 0$"):
                next(results)
        else:
            assert next(results) == 0
            if how == "close":
                results.close()
            else:
                interrupt_after(0.2)
                with pytest.raises(KeyboardInterrupt):
                    next(results)
        os.close(held)
        assert select.select([ready], [], [], 10)[0], "a process of the run still holds the pipe"
        assert os.read(ready, 1) == b""
    finally:
        results.close()
        os.close(ready)
    assert_no_child_left()
    assert time.monotonic() - start < 10.0  # the sleepers were killed, not waited for


@pytest.mark.parametrize("fails", ["every-fork", "second-fork"])
def test_a_failed_fork_closes_both_pipe_ends_and_runs_its_chunk_here(fails, monkeypatch):
    set_cores(monkeypatch, 4)
    pipes, pipe, fork = [], os.pipe, os.fork
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    # the second chunk's fork is the one called once its pipe, the second, is made
    monkeypatch.setattr(os, "fork", lambda: no_fork() if fails == "every-fork" or len(pipes) == 2 else fork())
    results = list(sim.side_by_side(whose, range(8)))
    assert_no_child_left()
    assert [unit for unit, _ in results] == list(range(8))
    here = [unit for unit, pid in results if pid == os.getpid()]
    assert here == (list(range(8)) if fails == "every-fork" else [1, 5])
    assert len(pipes) == 4
    for fd in pipes[1] if fails == "second-fork" else sum(pipes, ()):  # both ends closed
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("cores, n_units, forks", [(1, 5, 0), (2, 5, 2), (4, 3, 3), (4, 1, 0), (4, 0, 0)])
def test_one_chunk_forks_nothing_and_runs_each_unit_at_its_turn(cores, n_units, forks, monkeypatch):
    set_cores(monkeypatch, cores)
    calls = count_forks(monkeypatch)
    ran = []
    results = sim.side_by_side(lambda u: ran.append(u) or u, range(n_units))
    assert list(itertools.islice(results, 1)) == list(range(n_units))[:1]
    assert ran == ([] if forks else list(range(n_units))[:1])  # inline, as in a serial loop, unit 1 has not run yet
    assert list(results) == list(range(1, n_units))
    assert len(calls) == forks
    assert ran == ([] if forks else list(range(n_units)))
    assert_no_child_left()
