import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from cubli import analysis, cli, control, plant, rotor, sim
from cubli.control import DesignSpec
from cubli.errors import ValidationError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel, state

# Hand-derived reference values, computed directly from the rig constants
# (l = 0.15, m_s = 0.70, m_w = 0.15, I_sG = 3.75e-3, I_wG = 1.25e-4, g = 9.81).
D = 0.15 * math.sqrt(2.0) / 2.0                      # 0.10606601717798213
M_C = 0.85
I_SO = 3.75e-3 + 0.70 * D * D                        # 0.011625
I_WO = 1.25e-4 + 0.15 * D * D                        # 0.0018125
I_CO_BAR = I_SO + I_WO - 1.25e-4                     # 0.0133125
MGD = 0.85 * 9.81 * D                                # 0.884431484238604
GAMMA = I_CO_BAR / 1.25e-4                           # 106.5
DELTA = MGD / 1.25e-4                                # 7075.451873908832
OMEGA_0_LITERAL = math.sqrt(MGD * math.sqrt(2.0) / 2.0 / I_CO_BAR)   # 6.854011
OMEGA_0_CONSISTENT = math.sqrt(MGD / I_CO_BAR)                       # 8.150838
OMEGA_1 = 1.06e-5 / 1.25e-4                          # 0.0848

REFERENCE = cli.Config().scenario

SQ2 = math.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def dp():
    return plant.derive(CubliParams(), FrictionParams())


def test_derive_matches_hand_arithmetic(dp):
    assert dp.d == pytest.approx(D, rel=1e-12)
    assert dp.m_c == pytest.approx(M_C, rel=1e-12)
    assert dp.I_sO == pytest.approx(I_SO, rel=1e-12)
    assert dp.I_wO == pytest.approx(I_WO, rel=1e-12)
    assert dp.I_cO_bar == pytest.approx(I_CO_BAR, rel=1e-12)
    assert dp.mgd == pytest.approx(MGD, rel=1e-12)
    assert dp.gamma == pytest.approx(GAMMA, rel=1e-12)
    assert dp.delta == pytest.approx(DELTA, rel=1e-12)
    assert dp.omega_1 == pytest.approx(OMEGA_1, rel=1e-12)


def test_pendulum_frequency_per_gravity_model(dp):
    consistent = plant.pendulum_frequency(dp, GravityModel.CONSISTENT)
    literal = plant.pendulum_frequency(dp, GravityModel.PAPER_LITERAL)
    assert consistent == pytest.approx(OMEGA_0_CONSISTENT, rel=1e-12)
    assert literal == pytest.approx(OMEGA_0_LITERAL, rel=1e-12)
    assert f"{consistent:.6f} {literal:.6f}" == "8.150838 6.854011"
    assert not hasattr(dp, "omega_0")  # a stale reader fails instead of reading one model's value


@pytest.mark.parametrize("model", list(GravityModel))
def test_derive_ignores_a_third_argument(dp, model):
    # the benchmark's frozen calls still pass a gravity model, which no derived value depends on
    assert plant.derive(CubliParams(), FrictionParams(), model) == dp


def test_params_validation():
    with pytest.raises(ValidationError, match="m_s"):
        CubliParams(m_s=-0.1)
    with pytest.raises(ValidationError, match="l"):
        CubliParams(l=0.0)
    with pytest.raises(ValidationError, match="c_d"):
        FrictionParams(c_d=-1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FrictionParams(tau_c=math.nan),
        lambda: FrictionParams(b_w=math.inf),
        lambda: CubliParams(g=math.inf),
        lambda: DesignSpec(zeta=0.7, omega_n=10.0, alpha=math.nan),
        lambda: DesignSpec(zeta=0.7, omega_n=math.inf),
        lambda: sim.Disturbance(start=math.nan, duration=0.1, torque=0.05),
        lambda: sim.Disturbance(start=1.0, duration=0.1, torque=math.inf),
        lambda: dataclasses.replace(REFERENCE, t_end=math.inf),
        lambda: dataclasses.replace(REFERENCE, dt=math.nan),
        lambda: dataclasses.replace(REFERENCE, sensor_bias=math.nan),
        lambda: dataclasses.replace(REFERENCE, initial=state(rotor.from_angle(math.nan))),
    ],
    ids=[
        "friction-tau_c-nan", "friction-b_w-inf", "params-g-inf", "design-alpha-nan",
        "design-omega_n-inf", "disturbance-start-nan", "disturbance-torque-inf",
        "scenario-t_end-inf", "scenario-dt-nan", "scenario-sensor_bias-nan",
        "scenario-initial-nan",
    ],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_scenario_rejects_off_grid_end_time():
    # 0.0105 s is not a whole number of 0.01 s steps; it must not round to 0.01 s
    with pytest.raises(ValidationError, match="t_end"):
        dataclasses.replace(REFERENCE, t_end=0.0105, dt=0.01)
    assert len(sim.run(dataclasses.replace(REFERENCE, t_end=0.03, dt=0.01)).t) == 4


@pytest.mark.parametrize(
    "q", [(2.0, 0.0), (0.0, 0.0), (0.6, 0.8 + 2e-9), (1e200, 0.0)], ids=["norm-2", "zero", "off-by-2e-9", "huge"]
)
def test_scenario_rejects_a_non_unit_initial_orientation(q):
    # the first step would silently renormalize it; the bound is the one
    # Scenario applies to q_r (rotor.is_unit)
    with pytest.raises(ValidationError, match="^initial .* unit complex q"):
        dataclasses.replace(REFERENCE, initial=state(q))
    with pytest.raises(ValidationError, match="^q_r "):
        dataclasses.replace(REFERENCE, q_r=q)
    dataclasses.replace(REFERENCE, initial=state((0.6, 0.8 + 5e-10)))
    dataclasses.replace(REFERENCE, q_r=(0.6, 0.8 + 5e-10))


@pytest.mark.parametrize(
    "initial",
    [state(rotor.UPRIGHT)[:4], state(rotor.UPRIGHT)[:, None], rotor.UPRIGHT, state((math.nan, 1.0)),
     state((1.0, 0.0), math.nan), state((0.6, 0.6))],
    ids=["shape-4", "shape-5x1", "shape-2", "nan-q", "nan-theta_w", "non-unit-q"],
)
def test_scenario_rejects_a_malformed_initial_state(initial):
    with pytest.raises(ValidationError, match="^initial must be a finite \\(5,\\) state"):
        dataclasses.replace(REFERENCE, initial=initial)


def test_derive_rejects_small_inertia_ratio():
    # a wheel as heavy as the whole structure breaks the reduced dynamics
    with pytest.raises(ValidationError, match="gamma"):
        plant.derive(CubliParams(I_wG=5e-3))


def test_friction_torque_values():
    fp = FrictionParams()
    assert plant.friction_torque(0.0, fp) == 0.0
    expected_300 = 2.46e-3 + 1.06e-5 * 300.0 + 1.70e-8 * 300.0**2  # 7.17e-3
    assert plant.friction_torque(300.0, fp) == pytest.approx(expected_300, rel=1e-12)
    assert expected_300 == pytest.approx(7.17e-3, rel=1e-3)
    rng = np.random.default_rng(0)
    for w in rng.uniform(-800, 800, 100):
        assert plant.friction_torque(-w, fp) == -plant.friction_torque(w, fp)


def test_gravity_torque(dp):
    # at u = 0 and rest without friction, feedback_linearize's torque is -tau_g(q)
    def gravity(q, model):
        return -control.feedback_linearize(0.0, q, 0.0, dp, plant.FRICTION_FREE, model)

    q_u = rotor.UPRIGHT
    assert gravity(q_u, GravityModel.CONSISTENT) == pytest.approx(0.0, abs=1e-15)
    assert gravity(q_u, GravityModel.PAPER_LITERAL) == pytest.approx(MGD * SQ2, rel=1e-12)
    assert gravity((1.0, 0.0), GravityModel.CONSISTENT) == pytest.approx(MGD * SQ2, rel=1e-12)
    assert MGD * SQ2 == pytest.approx(0.6254, rel=1e-3)


def test_equilibrium_is_fixed_point(dp):
    x = state(rotor.UPRIGHT)
    rate = plant.dynamics_rate(x, 0.0, dp, FrictionParams(), GravityModel.CONSISTENT)
    assert_allclose(rate, np.zeros(5), atol=1e-15)


def test_exact_and_approx_wheel_rates_differ_by_body_rate(dp):
    rng = np.random.default_rng(1)
    fp = FrictionParams()
    for _ in range(50):
        x = np.concatenate([rotor.from_angle(rng.uniform(-np.pi, np.pi)), rng.uniform(-5, 5, 3)])
        tau = rng.uniform(-0.4, 0.4)
        exact = plant.dynamics_rate(x, tau, dp, fp, fidelity=Fidelity.EXACT)
        approx = plant.dynamics_rate(x, tau, dp, fp, fidelity=Fidelity.PAPER_APPROX)
        assert exact[4] - approx[4] == pytest.approx(-exact[3], rel=1e-12)
        assert_allclose(exact[:4], approx[:4])


# (theta_c, (theta_w, omega_c, omega_w)) for N = 1 to 8 stacked states
stacks = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)),
        hnp.arrays(np.float64, (3, n), elements=st.floats(-300.0, 300.0)),
    )
)


def stacked_states(n, seed=3):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, n)
    return np.vstack([np.cos(theta), np.sin(theta), rng.uniform(-300.0, 300.0, (3, n))])


@pytest.mark.parametrize("fp", [FrictionParams(), plant.FRICTION_FREE], ids=["friction", "friction-free"])
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("model", list(GravityModel))
def test_stacked_rate_into_out_allocates_less_than_one_row(model, fidelity, fp):
    # the rows of out hold every intermediate; an (N,) temporary per term read 5 rows at peak
    n = 10_000
    x, out = stacked_states(n), np.empty((5, n))
    dp = plant.derive(CubliParams(), fp)
    args = (0.1, dp, fp, model, fidelity, 0.01)
    plant.dynamics_rate(x, *args, out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert plant.dynamics_rate(x, *args, out) is out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * n
    assert out.tobytes() == plant.dynamics_rate(x, *args).tobytes()


def test_stacked_rate_rejects_an_out_that_overlaps_x(dp):
    # out's rows are scratch, so an out over x would read its own partial results
    buf = np.vstack([stacked_states(4), stacked_states(4, seed=4)[:1]])
    x, expected = buf[:5], plant.dynamics_rate(buf[:5], 0.1, dp, FrictionParams())
    for out in (x, buf[1:], buf[::-1][:5]):
        with pytest.raises(ValueError, match="out overlaps x"):
            plant.dynamics_rate(x, 0.1, dp, FrictionParams(), out=out)
    # the same buffer, apart from x: allowed, and the same bits
    wide = np.hstack([x, np.full_like(x, np.nan)])
    assert plant.dynamics_rate(wide[:, :4], 0.1, dp, FrictionParams(), out=wide[:, 4:]).tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=200)
@given(stack=stacks, tau=st.floats(-0.5, 0.5))
def test_rate_preserves_unit_tangency(dp, stack, tau):
    # rows 0-1 are the kinematics q_dot = G(q)^T omega_c: tangent to the unit
    # circle (q . q_dot = 0), and G(q) = (-q1, q0) maps them back to omega_c;
    # on a (5, N) stack and on each (5,) column, which is rated on Python floats
    theta, rest = stack
    x = np.vstack([np.cos(theta), np.sin(theta), rest])
    fp = FrictionParams()
    columns = [plant.dynamics_rate(x[:, j], tau, dp, fp) for j in range(x.shape[1])]
    ulp = np.spacing(np.abs(x[3]))  # a subnormal omega_c included
    for rate in (plant.dynamics_rate(x, tau, dp, fp), np.array(columns).T):
        assert np.all(np.abs(x[0] * rate[0] + x[1] * rate[1]) <= 4.0 * ulp)
        assert np.all(np.abs(-x[1] * rate[0] + x[0] * rate[1] - x[3]) <= 8.0 * ulp)


@pytest.mark.parametrize("model", list(GravityModel))
@pytest.mark.parametrize("fidelity", list(Fidelity))
def test_complex_form_matches_angle_oracle(dp, model, fidelity):
    rng = np.random.default_rng(3)
    fp = FrictionParams()
    for _ in range(250):
        theta = rng.uniform(-np.pi, np.pi)
        theta_w, omega_c, omega_w = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-300, 300)
        tau = rng.uniform(-0.5, 0.5)
        q = rotor.from_angle(theta)
        xc = np.array([q[0], q[1], theta_w, omega_c, omega_w])
        xa = np.array([theta, theta_w, omega_c, omega_w])
        rc = plant.dynamics_rate(xc, tau, dp, fp, model, fidelity)
        ra = plant.angle_dynamics_rate(xa, tau, dp, fp, model, fidelity)
        # map the angle-form rate through the codec: q_dot = G(q)^T theta_dot
        assert_allclose(rc[0], -q[1] * ra[0], atol=1e-10)
        assert_allclose(rc[1], q[0] * ra[0], atol=1e-10)
        assert_allclose(rc[2:], ra[1:], atol=1e-10)


def test_angle_oracle_rest_at_upright_and_wheel_steady_state(dp):
    fp = FrictionParams()
    rate = plant.angle_dynamics_rate(
        np.array([np.pi / 4, 0.0, 0.0, 0.0]), 0.0, dp, fp, GravityModel.CONSISTENT
    )
    assert_allclose(rate, np.zeros(4), atol=1e-12)  # cos(pi/2) rounds to ~6e-17
    # torque balancing the friction torque leaves the wheel speed constant
    omega_w = 180.0
    tau = plant.friction_torque(omega_w, fp)
    rate = plant.angle_dynamics_rate(
        np.array([np.pi / 4, 0.0, 0.0, omega_w]),
        tau,
        dp,
        fp,
        GravityModel.CONSISTENT,
        Fidelity.PAPER_APPROX,
    )
    assert rate[3] == pytest.approx(0.0, abs=1e-15)


def test_energies(dp):
    rest_up = state(rotor.UPRIGHT)
    kinetic, potential, total = plant.energies(rest_up, dp)
    assert kinetic == 0.0
    assert potential == pytest.approx(MGD, rel=1e-12)
    assert MGD == pytest.approx(0.8844, rel=1e-3)
    assert total == pytest.approx(MGD, rel=1e-12)
    # wheel locked to the body: the full inertia about the pivot appears
    locked = state(rotor.UPRIGHT, omega_c=1.0)
    assert plant.energies(locked, dp)[0] == pytest.approx(0.5 * (I_CO_BAR + 1.25e-4), rel=1e-12)


@pytest.mark.parametrize("model", list(GravityModel))
def test_power_balance_along_forced_trajectory(model):
    # dE/dt must equal (tau - tau_f) * omega_w on the exact dynamics, under either gravity model
    fp = FrictionParams()
    dp = plant.derive(CubliParams(), fp)
    tau = 8e-3
    dt = 1e-4
    x = state(rotor.from_angle(0.3), omega_c=0.5, omega_w=40.0)
    for step in range(2000):
        x_prev = x
        x = sim.rk4_step(x, tau, dt, dp, fp, model, Fidelity.EXACT)
        if step % 400 == 0:
            x_next = sim.rk4_step(x, tau, dt, dp, fp, model, Fidelity.EXACT)
            de_dt = (plant.energies(x_next, dp, model)[2] - plant.energies(x_prev, dp, model)[2]) / (2 * dt)
            expected = (tau - plant.friction_torque(x[4], fp)) * x[4]
            assert de_dt == pytest.approx(expected, rel=1e-5, abs=1e-9)


def test_linearize_input_matrix(dp):
    _, b = plant.linearize(dp, FrictionParams())
    assert_allclose(b[:, 0], [0.0, 0.0, 0.0, -1.0 / I_CO_BAR, 8000.0], rtol=1e-12)
    assert b[3, 0] == pytest.approx(-75.12, rel=1e-3)


@pytest.mark.parametrize("model", list(GravityModel))
def test_linearize_matches_finite_differences(model):
    fp = FrictionParams()
    dp = plant.derive(CubliParams(), fp)
    a, _ = plant.linearize(dp, fp, model)
    smooth = FrictionParams(0.0, fp.b_w, 0.0)  # Coulomb/drag off at omega_w = 0
    x0 = state(rotor.UPRIGHT)
    a_fd = analysis.fd_jacobian(
        lambda x: plant.dynamics_rate(x, 0.0, dp, smooth, model, Fidelity.PAPER_APPROX), x0
    )
    assert np.max(np.abs(a - a_fd)) < 1e-6


@pytest.mark.parametrize("model", list(GravityModel))
def test_open_loop_characteristic_polynomial(model):
    fp = FrictionParams()
    dp = plant.derive(CubliParams(), fp)
    a, _ = plant.linearize(dp, fp, model)
    # s^2 (s + omega_1)(s^2 - omega_0^2), expanded
    expected = np.convolve(
        np.convolve([1.0, 0.0, 0.0], [1.0, dp.omega_1]), [1.0, 0.0, -plant.pendulum_frequency(dp, model) ** 2]
    )
    assert_allclose(analysis.char_poly(a), expected, atol=1e-10)


def test_open_loop_eigenstructure(dp):
    a, _ = plant.linearize(dp, FrictionParams())
    eigs = np.linalg.eigvals(a)
    assert np.sum(eigs.real > 1e-8) == 1  # single unstable direction at +omega_0
    assert np.sum(np.abs(eigs) < 1e-6) == 2  # double eigenvalue at zero
    assert np.max(eigs.real) == pytest.approx(OMEGA_0_CONSISTENT, rel=1e-8)
