"""Property tests of the one-path contract.

Every rate, rotor and integrator function takes one trajectory as a (k,)
vector or N trajectories stacked as (k, N), with each formula written once.
sim.rk4_step steps a (k,) state on Python floats and a stacked one as its
array, chosen by the state's shape.  Column j of a stacked call must then
equal, bit for bit, the call on column j alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cubli import plant, rotor, sim
from cubli.errors import DivergenceError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel

# no deadline: the host's speed varies too much for per-example timing
one_path = settings(deadline=None, max_examples=150)

DP = {model: plant.derive(CubliParams(), FrictionParams(), model) for model in GravityModel}

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
    out = plant.dynamics_rate(x, tau, DP[model], fp, model, fidelity, tau_ext)
    assert out.shape == x.shape
    for j in range(x.shape[1]):
        alone = plant.dynamics_rate(x[:, j], column(tau, j), DP[model], fp, model, fidelity, tau_ext)
        assert_bitwise(alone, out[:, j])


@one_path
@given(stacked(4), st.data(), friction, models, fidelities)
def test_angle_dynamics_rate_columns_are_bitwise_alone(x, data, fp, model, fidelity):
    tau = per_column_tau(data.draw, x.shape[1])
    out = plant.angle_dynamics_rate(x, tau, DP[model], fp, model, fidelity)
    assert out.shape == x.shape
    for j in range(x.shape[1]):
        alone = plant.angle_dynamics_rate(x[:, j], column(tau, j), DP[model], fp, model, fidelity)
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
            x = sim.rk4_step(x, tau, dt, DP[model], fp, model, fidelity)
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
    out = sim.rk4_step(x, tau, 1e-3, DP[GravityModel.CONSISTENT], FrictionParams())
    assert out is not x
    assert x.tobytes() == before.tobytes()


# Explicit cases where the float path of one trajectory could part from the
# array path: the sign of a zero wheel rate (np.sign(-0.0) is +0.0),
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
            args = (DP[model], fp, model, fidelity)
            assert_bitwise(plant.dynamics_rate(x, 0.5, *args), plant.dynamics_rate(stacked, 0.5, *args)[:, 1])
            assert_bitwise(plant.angle_dynamics_rate(xa, 0.5, *args), plant.angle_dynamics_rate(xa[:, None], 0.5, *args)[:, 0])
            alone = sim.rk4_step(x, 0.5, 1e-3, *args)
            assert_bitwise(alone, sim.rk4_step(x[:, None].copy(), 0.5, 1e-3, *args)[:, 0])
            assert_bitwise(alone, sim.rk4_step(stacked, 0.5, 1e-3, *args)[:, 1])


@EDGE_FRICTION
def test_float_path_keeps_a_nan_wheel_rate_and_diverges(fp):
    assert math.isnan(plant.friction_torque(math.nan, fp))
    x = np.array([0.6, 0.8, 0.1, 0.2, math.nan])
    args = (DP[GravityModel.CONSISTENT], fp, GravityModel.CONSISTENT, Fidelity.EXACT)
    rate = plant.dynamics_rate(x, 0.5, *args)
    assert np.isnan(rate[3:]).all()
    assert_bitwise(rate, plant.dynamics_rate(x[:, None], 0.5, *args)[:, 0])
    for state in (x, x[:, None].copy()):
        with pytest.raises(DivergenceError) as info:
            sim.rk4_step(state, 0.5, 1e-3, *args)
        assert info.value.state.shape == state.shape and not np.isfinite(info.value.state).all()
