"""Property tests of the one-path contract.

Every rate, rotor and integrator function takes one trajectory as a (k,)
vector or N trajectories stacked as (k, N).  plant.dynamics_rate rates either
by ufuncs that write into the rows of out, a (5,) state as its (5, 1) view,
and sim.rk4_step steps either through sim.rk4's in-place step.  Column j of a
stacked call must equal, bit for bit, the call on column j alone, and each
RK4 form must equal the textbook formula on whole arrays (out_of_place_rk4).
A loop over one trajectory on Python floats binds the same rates
(plant.float_rates) and step (sim.float_stepper) once, in the same
operations, and sim.run, which loops so, must log the bits of the same loop
on arrays (array_loop).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cubli import cli, control, plant, rotor, sim
from cubli.control import Mode
from cubli.errors import DivergenceError, SimulationError, SingularityError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel, state

# no deadline: the host's speed varies too much for per-example timing
one_path = settings(deadline=None, max_examples=150)

DP = plant.derive(CubliParams(), FrictionParams())
REFERENCE = cli.Config().scenario

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
friction = st.sampled_from([FrictionParams(), plant.FRICTION_FREE, FrictionParams(1e-2, 1e-4, 1e-7)])
models = st.sampled_from(list(GravityModel))
fidelities = st.sampled_from(list(Fidelity))


@st.composite
def stacked(draw, rows):
    """Stacked (rows, N) arrays of arbitrary finite values."""
    n = draw(st.integers(1, 8))
    return draw(hnp.arrays(np.float64, (rows, n), elements=finite))


@st.composite
def plant_states(draw):
    """Stacked (5, N) states on the unit circle with bounded rates."""
    n = draw(st.integers(1, 8))
    theta = draw(hnp.arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)))
    rest = draw(hnp.arrays(np.float64, (3, n), elements=st.floats(-300.0, 300.0)))
    return np.vstack([np.cos(theta), np.sin(theta), rest])


def per_column_tau(draw, n):
    """Either one torque for every column or one torque per column."""
    if draw(st.booleans()):
        return draw(st.floats(-1.0, 1.0))
    return draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))


def column(value, j):
    return value[j] if np.ndim(value) else value


def assert_bitwise(alone, stacked_column):
    alone = np.asarray(alone)
    assert alone.shape == stacked_column.shape
    assert alone.tobytes() == np.ascontiguousarray(stacked_column).tobytes()


@one_path
@given(stacked(5), st.data(), friction, models, fidelities)
def test_dynamics_rate_columns_are_bitwise_alone(x, data, fp, model, fidelity):
    tau = per_column_tau(data.draw, x.shape[1])
    tau_ext = data.draw(st.floats(-1.0, 1.0))
    out = plant.dynamics_rate(x, tau, DP, fp, model, fidelity, tau_ext)
    assert out.shape == x.shape
    for j in range(x.shape[1]):
        alone = plant.dynamics_rate(x[:, j], column(tau, j), DP, fp, model, fidelity, tau_ext)
        assert_bitwise(alone, out[:, j])


@one_path
@given(stacked(4), st.data(), friction, models, fidelities)
def test_angle_dynamics_rate_columns_are_bitwise_alone(x, data, fp, model, fidelity):
    tau = per_column_tau(data.draw, x.shape[1])
    out = plant.angle_dynamics_rate(x, tau, DP, fp, model, fidelity)
    assert out.shape == x.shape
    for j in range(x.shape[1]):
        alone = plant.angle_dynamics_rate(x[:, j], column(tau, j), DP, fp, model, fidelity)
        assert_bitwise(alone, out[:, j])


@one_path
@given(stacked(4))
def test_product_and_orientation_error_columns_are_bitwise_alone(qr):
    q, r = qr[:2], qr[2:]
    product = rotor.product(q, r)
    error = rotor.orientation_error(q, r)
    error_fixed_reference = rotor.orientation_error(q, rotor.UPRIGHT)
    for j in range(q.shape[1]):
        assert_bitwise(rotor.product(q[:, j], r[:, j]), product[:, j])
        assert_bitwise(rotor.orientation_error(q[:, j], r[:, j]), error[:, j])
        assert_bitwise(rotor.orientation_error(q[:, j], rotor.UPRIGHT), error_fixed_reference[:, j])


@one_path
@given(plant_states(), st.data(), friction, models, fidelities, st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_rk4_step_columns_are_bitwise_alone(x, data, fp, model, fidelity, dt):
    # 20 steps, so that the renormalization meets the rare values on which a
    # scalar square and an array square round differently
    tau = per_column_tau(data.draw, x.shape[1])

    def integrate(x, tau):
        for _ in range(20):
            x = sim.rk4_step(x, tau, dt, DP, fp, model, fidelity)
        return x

    out = integrate(x, tau)
    for j in range(x.shape[1]):
        assert_bitwise(integrate(x[:, j].copy(), column(tau, j)), out[:, j])


@one_path
@given(plant_states(), st.floats(-1.0, 1.0), st.booleans())
def test_rk4_step_never_mutates_its_input(x, tau, single):
    if single:
        x = x[:, 0].copy()
    before = x.copy()
    out = sim.rk4_step(x, tau, 1e-3, DP, FrictionParams())
    assert out is not x
    assert x.tobytes() == before.tobytes()


def out_of_place_rk4(rate, x, dt):
    """The RK4 formula on whole arrays, each stage a new one: the reference for
    sim.rk4's in-place array step."""
    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + dt / 6.0 * (k1 + (k2 + k2) + (k3 + k3) + k4)


@one_path
@given(plant_states(), st.data(), friction, models, fidelities, st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_in_place_step_equals_an_out_of_place_rk4(x, data, fp, model, fidelity, dt):
    tau = per_column_tau(data.draw, x.shape[1])
    args = (tau, DP, fp, model, fidelity, data.draw(st.floats(-1.0, 1.0)))
    expected = out_of_place_rk4(lambda y: plant.dynamics_rate(y, *args), x, dt)
    expected[:2] = expected[:2] / np.sqrt(expected[0] * expected[0] + expected[1] * expected[1])
    out = sim.rk4_step(x, tau, dt, *args[1:])
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, x)

    xa = np.vstack([np.arctan2(x[1], x[0]), x[2:]])
    angle = sim.rk4(lambda y, buf: plant.angle_dynamics_rate(y, *args, out=buf), xa, dt)
    assert angle.tobytes() == out_of_place_rk4(lambda y: plant.angle_dynamics_rate(y, *args), xa, dt).tobytes()
    assert not np.shares_memory(angle, xa)

    for rate, y in ((plant.dynamics_rate, x), (plant.angle_dynamics_rate, xa)):
        buf = np.full_like(y, np.nan)
        assert rate(y, *args, out=buf) is buf
        assert buf.tobytes() == rate(y, *args).tobytes()


@one_path
@given(plant_states(), st.data(), friction, models, fidelities, st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_one_trajectory_step_equals_an_out_of_place_rk4(x, data, fp, model, fidelity, dt):
    # the step of a (5,) state, and the bound stepper on the tuple, against the
    # textbook formula on whole (5,) arrays
    x = x[:, 0].copy()
    tau_ext = data.draw(st.floats(-1.0, 1.0).filter(lambda v: v != 0.0))
    args = (data.draw(st.floats(-1.0, 1.0)), DP, fp, model, fidelity, tau_ext)
    expected = out_of_place_rk4(lambda y: plant.dynamics_rate(y, *args), x, dt)
    expected[:2] = expected[:2] / np.sqrt(expected[0] * expected[0] + expected[1] * expected[1])
    out = sim.rk4_step(x, args[0], dt, *args[1:])
    assert type(out) is np.ndarray and out.tobytes() == expected.tobytes()
    out = sim.float_stepper(DP, fp, model, fidelity, dt)(tuple(x.tolist()), args[0], tau_ext)
    assert type(out) is tuple and all(type(c) is float for c in out)
    assert np.array(out).tobytes() == expected.tobytes()


# Explicit cases where the float path of one trajectory (the bound rates and
# step) could part from the array path: the sign of a zero wheel rate (np.sign(-0.0) is +0.0),
# friction-free negative rates (the friction torque is -1 * 0.0 = -0.0), and
# NaN, which must stay NaN.
EDGE_FRICTION = pytest.mark.parametrize("fp", [FrictionParams(), plant.FRICTION_FREE], ids=["friction", "friction-free"])


@EDGE_FRICTION
@pytest.mark.parametrize("omega_w", [0.0, -0.0, -3.0, 3.0], ids=["+0", "-0", "negative", "positive"])
def test_float_path_matches_array_path_at_edge_wheel_rates(omega_w, fp):
    x = np.array([0.6, 0.8, 0.1, 0.2, omega_w])
    stacked = np.stack([np.array([0.8, -0.6, 1.0, -2.0, 40.0]), x, x], axis=1)
    assert_bitwise(np.array([plant.friction_torque(omega_w, fp)]), plant.friction_torque(stacked[4, 1:2], fp))
    xa = np.array([0.3, 0.1, 0.2, omega_w])
    for model in GravityModel:
        for fidelity in Fidelity:
            args = (DP, fp, model, fidelity)
            rate = plant.dynamics_rate(x, 0.5, *args)
            assert_bitwise(rate, plant.dynamics_rate(stacked, 0.5, *args)[:, 1])
            rates = plant.float_rates(*args)(*x[[0, 1, 3, 4]].tolist(), 0.5, 0.0)
            assert_bitwise(np.array(rates), rate[[0, 1, 3, 4]])
            assert_bitwise(plant.angle_dynamics_rate(xa, 0.5, *args), plant.angle_dynamics_rate(xa[:, None], 0.5, *args)[:, 0])
            alone = sim.rk4_step(x, 0.5, 1e-3, *args)
            assert_bitwise(np.array(sim.float_stepper(*args, 1e-3)(tuple(x.tolist()), 0.5, 0.0)), alone)
            assert_bitwise(alone, sim.rk4_step(x[:, None].copy(), 0.5, 1e-3, *args)[:, 0])
            assert_bitwise(alone, sim.rk4_step(stacked, 0.5, 1e-3, *args)[:, 1])


@EDGE_FRICTION
def test_float_path_keeps_a_nan_wheel_rate_and_diverges(fp):
    # a NaN wheel rate of either sign stays NaN, and every step raises
    args = (DP, fp, GravityModel.CONSISTENT, Fidelity.EXACT)
    for nan in (math.nan, -math.nan):
        assert math.isnan(plant.friction_torque(nan, fp))
        x = np.array([0.6, 0.8, 0.1, 0.2, nan])
        assert np.isnan(plant.dynamics_rate(x, 0.5, *args)[3:]).all()
        assert all(map(math.isnan, plant.float_rates(*args)(0.6, 0.8, 0.2, nan, 0.5, 0.0)[2:]))
        one, bound = tuple(x.tolist()), sim.float_stepper(*args, 1e-3)
        steps = [(state, lambda s: sim.rk4_step(s, 0.5, 1e-3, *args)) for state in (x, x[:, None].copy())]
        for state, step in steps + [(one, lambda s: bound(s, 0.5, 0.0))]:
            with pytest.raises(DivergenceError) as info:
                step(state)
            assert info.value.state.shape == np.shape(state) and not np.isfinite(info.value.state).all()


@EDGE_FRICTION
@pytest.mark.parametrize("model", list(GravityModel))
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("nan", [math.nan, -math.nan], ids=["+nan", "-nan"])
def test_a_column_alone_is_its_stack_at_a_nan_wheel_rate(nan, fp, model, fidelity):
    # a (5,) state runs the stacked body on its (5, 1) view, so even the sign
    # bits of the NaNs that a -NaN wheel rate spreads are the same
    args = (DP, fp, model, fidelity)
    x = np.array([0.6, 0.8, 0.1, 0.2, nan])
    assert_bitwise(plant.dynamics_rate(x, 0.5, *args), plant.dynamics_rate(x[:, None], 0.5, *args)[:, 0])
    xa = np.array([0.3, 1.0, 2.0, nan])  # the angle form runs a (4,) state on its (4, 1) view too
    assert_bitwise(plant.angle_dynamics_rate(xa, 0.5, *args), plant.angle_dynamics_rate(xa[:, None], 0.5, *args)[:, 0])
    states = []
    for one in (x, x[:, None].copy()):
        with pytest.raises(DivergenceError) as info:
            sim.rk4_step(one, 0.5, 1e-3, *args)
        states.append(info.value.state)
    assert_bitwise(states[0], states[1][:, 0])


@EDGE_FRICTION
@pytest.mark.parametrize("omega_w", [-math.inf, math.inf], ids=["-inf", "+inf"])
def test_float_paths_match_at_an_infinite_wheel_rate(omega_w, fp):
    # friction-free, 0 * inf makes the friction magnitude NaN; the bound rates and
    # controller multiply it by its sign, as np.sign's path does, so the NaN bits
    # match where a negation would flip them
    x = np.array([0.6, 0.8, 0.1, 0.2, omega_w])
    with np.errstate(invalid="ignore"):
        for model in GravityModel:
            sample = control.controller((1.0, 0.0), rotor.UPRIGHT, lambda *_: 0.0, None, DP, fp, model, 0.5)
            assert_bitwise(np.array(sample(tuple(x.tolist()))[1]), np.asarray(control.feedback_linearize(0.0, x[:2], x[4], DP, fp, model)))
            for fidelity in Fidelity:
                args = (DP, fp, model, fidelity)
                rates = plant.float_rates(*args)(0.6, 0.8, 0.2, omega_w, 0.5, 0.0)
                assert_bitwise(np.array(rates), plant.dynamics_rate(x, 0.5, *args)[[0, 1, 3, 4]])


REGULATORS = (control.regulator_attitude, control.regulator_full, control.regulator_small_angle)


@one_path
@given(hnp.arrays(np.float64, 11, elements=finite))
def test_rotor_functions_on_a_tuple_equal_them_on_an_array(v):
    q, r = v[:2], v[2:4]
    qt, rt = tuple(q.tolist()), tuple(r.tolist())
    for tuple_out, array_out in (
        (rotor.product(qt, rt), rotor.product(q, r)),
        (rotor.conjugate(qt), rotor.conjugate(q)),
        (rotor.orientation_error(qt, rt), rotor.orientation_error(q, r)),
    ):
        assert type(tuple_out) is tuple and all(type(c) is float for c in tuple_out)
        assert_bitwise(np.array(tuple_out), array_out)
    assert_bitwise(rotor.to_angle(qt), rotor.to_angle(q))
    # the regulators, and the control sample under each, on a state tuple and
    # a (5,) state array, against q_r = r, with the sensor bias b = v[5:7]
    x, b, gains = v[:5], v[5:7], control.Gains(*v[7:].tolist())
    xt, bt = tuple(x.tolist()), tuple(b.tolist())
    loop = (DP, FrictionParams(), GravityModel.CONSISTENT, 0.5)

    def sample(x, b, r, law):
        return control.controller(b, r, law, gains, *loop)(x)

    calls = [(rotor.error_tangent, (q,), (qt,))]
    calls += [(f, (x, r, gains), (xt, rt, gains)) for f in REGULATORS]
    calls += [(sample, (x, b, r, f), (xt, bt, rt, f)) for f in REGULATORS]
    for f, array_args, tuple_args in calls:
        try:
            expected = f(*array_args)
        except SingularityError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                f(*tuple_args)
        else:
            got = f(*tuple_args)
            if f is not rotor.error_tangent:  # a law's u, and a sample's (u, tau_cmd, tau_applied), on Python floats
                assert all(type(c) is float for c in (got if f is sample else (got,)))
            assert_bitwise(got, np.asarray(expected))


# sim.run carries one trajectory as a tuple of Python floats.  Its oracle is
# the same loop on numpy arrays, built from the public array functions: the
# two must log the same bits and fail with the same error.
def array_loop(sc):
    """sim.run's loop on numpy arrays: the logged (x, u, tau_cmd, tau_applied)
    rows as a (8, steps + 1) array."""
    dp = plant.derive(sc.params, sc.friction)
    gains = control.gains_for_mode(sc.mode, sc.design, dp)
    q_bias = rotor.from_angle(sc.sensor_bias)
    n_steps = round(sc.t_end / sc.dt)
    tau_ext = sim.disturbance_torque(sc.disturbances, sc.dt, n_steps)
    t = np.arange(n_steps + 1) * sc.dt
    x = sc.initial
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            q_meas = rotor.product(x[:2], q_bias)
            measured = state(q_meas, *x[2:])
            try:
                if sc.mode is Mode.ATTITUDE_ONLY:
                    u = control.regulator_attitude(measured, sc.q_r, gains)
                elif sc.mode is Mode.SMALL_ANGLE:
                    u = control.regulator_small_angle(measured, sc.q_r, gains)
                else:
                    u = control.regulator_full(measured, sc.q_r, gains)
            except SingularityError as err:
                raise SingularityError(f"{err} at t = {t[k]:.4f} s", t=float(t[k]), step=k, state=x) from None
            cmd = control.feedback_linearize(u, q_meas, measured[4], dp, sc.friction, sc.controller_gravity)
            applied = min(max(cmd, -sc.tau_max), sc.tau_max)
            rows.append((*x, u, cmd, applied))
            if k < n_steps:
                try:
                    x = sim.rk4_step(x, applied, sc.dt, dp, sc.friction, sc.plant_gravity, sc.fidelity, tau_ext[k])
                except DivergenceError as err:
                    t_fail = float(t[k + 1])
                    raise DivergenceError(f"{err} at t = {t_fail:.4f} s", t=t_fail, step=k + 1, state=err.state) from None
    return np.array(rows).T


LOGGED = ("q0", "q1", "theta_w", "omega_c", "omega_w", "u", "tau_cmd", "tau_applied")


def assert_run_matches_array_loop(sc):
    try:
        expected = array_loop(sc)
    except SimulationError as err:
        with pytest.raises(type(err)) as info:
            sim.run(sc)
        got = info.value
        assert (str(got), got.t, got.step) == (str(err), err.t, err.step)
        assert type(got.state) is np.ndarray and got.state.tobytes() == err.state.tobytes()
        return
    ts = sim.run(sc)
    for name, row in zip(LOGGED, expected):
        assert getattr(ts, name).tobytes() == row.tobytes(), name


@st.composite
def scenarios(draw):
    """Short closed-loop runs from the reference experiment over every mode,
    gravity model (plant and controller apart), fidelity and friction, with
    sensor bias, a small actuator limit and a pulse that may fall off the grid."""
    dt = draw(st.sampled_from([1e-3, 1e-2]))
    t_end = draw(st.integers(1, 300)) * dt
    pulse = st.builds(sim.Disturbance, st.floats(0.0, t_end), st.floats(1e-4, 0.2), st.floats(-1.0, 1.0))
    return dataclasses.replace(
        REFERENCE,
        friction=draw(friction),
        mode=draw(st.sampled_from(list(Mode))),
        tau_max=draw(st.floats(0.01, 0.5)),
        controller_gravity=draw(models),
        initial=state(rotor.from_angle(draw(st.floats(-math.pi, math.pi)))),
        plant_gravity=draw(models),
        fidelity=draw(fidelities),
        dt=dt,
        t_end=t_end,
        sensor_bias=draw(st.floats(-0.3, 0.3)),
        disturbances=tuple(draw(st.lists(pulse, max_size=1))),
    )


@one_path
@given(scenarios())
def test_run_on_floats_equals_the_array_loop_bit_for_bit(sc):
    assert_run_matches_array_loop(sc)


def test_run_calls_the_regulator_it_looks_up_on_control_once_per_row(monkeypatch):
    # the traced benchmark times the regulator through this lookup
    calls, regulator = [], control.regulator_full

    def counting(x, q_r, gains):
        calls.append(x)
        return regulator(x, q_r, gains)

    monkeypatch.setattr(control, "regulator_full", counting)
    ts = sim.run(dataclasses.replace(REFERENCE, t_end=0.05))
    assert len(calls) == len(ts.t) == 51


def test_run_fails_like_the_array_loop():
    # a singularity four steps in, and a divergence at dt = 0.9 s
    singular = dataclasses.replace(
        REFERENCE, initial=state(rotor.from_angle(math.radians(45.0 - 89.9)), omega_c=-0.2), t_end=1.0
    )
    with pytest.raises(SingularityError) as info:
        array_loop(singular)
    assert info.value.step == 4
    assert_run_matches_array_loop(singular)
    diverging = dataclasses.replace(REFERENCE, dt=0.9, t_end=900.0)
    with pytest.raises(DivergenceError):
        array_loop(diverging)
    assert_run_matches_array_loop(diverging)
