import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubli import analysis, cli, control, plant, rotor, verify
from cubli.control import DesignSpec, Gains, Mode
from cubli.errors import SingularityError, ValidationError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel, state

SQ2 = math.sqrt(2.0) / 2.0

DP = plant.derive(CubliParams(), FrictionParams())
REFERENCE = cli.Config().scenario

# no deadline: the host's speed varies too much for per-example timing
prop = settings(deadline=None, max_examples=300)


@pytest.fixture(scope="module")
def dp():
    return DP


@pytest.fixture(scope="module")
def paper_spec():
    # the reference experiment's tuning, with omega_0 of the paper-literal gravity model
    return cli.design_spec(dataclasses.replace(cli.Config(), controller_gravity=GravityModel.PAPER_LITERAL))


def test_design_spec_validation():
    with pytest.raises(ValidationError):
        DesignSpec(zeta=0.0, omega_n=1.0)
    with pytest.raises(ValidationError):
        DesignSpec(zeta=0.5, omega_n=-1.0)
    with pytest.raises(ValidationError):
        DesignSpec(zeta=0.5, omega_n=1.0, alpha=-0.1)


@pytest.mark.parametrize(
    "bad",
    [
        {"q_r": [2.0, 0.0]},
        {"q_r": [0.5, 0.5]},
        {"q_r": [np.nan, 0.0]},
        {"q_r": [np.inf, 0.0]},
        {"q_r": [1.0, 0.0, 0.0]},
        {"q_r": [[1.0], [0.0]]},
        {"tau_max": 0.0},
        {"tau_max": -1.0},
        {"tau_max": np.nan},
    ],
)
def test_controller_config_rejects_bad_reference_or_guard(bad):
    # the controller's settings in sim.Scenario
    (key,) = bad
    with pytest.raises(ValidationError, match=key):
        dataclasses.replace(REFERENCE, **bad)


def test_scenario_rejects_a_design_whose_gains_overflow():
    # checked when the scenario is built, not first inside sim.run
    with pytest.raises(ValidationError, match="the gains overflow"):
        dataclasses.replace(REFERENCE, design=DesignSpec(zeta=1.0, omega_n=1e100))


def test_attitude_closed_loop_polynomial():
    # the 2x2 error dynamics [[0, -1], [k_p, -k_d]] must have s^2 + k_d s + k_p,
    # with the attitude-only gains (omega_n^2, 2 zeta omega_n) at zeta = 0.6, omega_n = 4
    k_p, k_d = 16.0, 4.8
    m = np.array([[0.0, -1.0], [k_p, -k_d]])
    assert_allclose(analysis.char_poly(m), [1.0, k_d, k_p], atol=1e-12)


def test_full_gains_reduce_to_attitude_law_at_zero_alpha(dp):
    # alpha = 0 leaves k_p = omega_n^2 and k_d = 2 zeta omega_n, bit for bit
    assert control.full_gains(DesignSpec(zeta=1.0, omega_n=1.0, alpha=0.0), dp) == Gains(1.0, 2.0)
    assert control.full_gains(DesignSpec(zeta=0.8, omega_n=5.0, alpha=0.0), dp) == Gains(5.0**2, 2.0 * 0.8 * 5.0)
    gains = control.full_gains(DesignSpec(zeta=SQ2, omega_n=10.281, alpha=0.0), dp)
    assert gains.k_p == pytest.approx(105.7, rel=1e-3)
    assert gains.k_d == pytest.approx(14.54, rel=1e-3)


def test_full_gains_continuous_at_zero_alpha(dp):
    spec = DesignSpec(zeta=0.7, omega_n=8.0, alpha=1e-8)
    gains = control.full_gains(spec, dp)
    assert gains.k_p == pytest.approx(8.0**2, rel=1e-6)
    assert gains.k_d == pytest.approx(2.0 * 0.7 * 8.0, rel=1e-6)


def test_full_gains_reference_values(paper_spec, dp):
    gains = control.full_gains(paper_spec, dp)
    assert gains.k_p == pytest.approx(128.2, rel=1e-3)
    assert gains.k_d == pytest.approx(18.42, rel=1e-3)
    assert gains.k_pw == pytest.approx(7.90e-3, rel=2e-3)
    assert gains.k_dw == pytest.approx(2.28e-2, rel=2e-3)


@prop
@given(
    zeta=st.floats(0.05, 1.0),
    omega_n=st.floats(0.5, 20.0),
    alpha=st.floats(0.0, 2.0),
)
def test_full_gains_match_design_polynomial(zeta, omega_n, alpha):
    spec = DesignSpec(zeta=zeta, omega_n=omega_n, alpha=alpha)
    coeffs = analysis.char_poly(analysis.closed_loop_matrix(control.full_gains(spec, DP), DP))
    assert verify.gate(analysis.coefficient_error(coeffs, analysis.design_poly(spec)))[0]


@prop
@given(
    zeta=st.floats(0.05, 1.0),
    omega_n_factor=st.floats(0.1, 7.0),
    alpha=st.floats(0.0, 1.1),
    model=st.sampled_from(list(GravityModel)),
)
# near-coalescent: the attitude pair 0.0057 from the double wheel pole, 0.004 apart
@example(zeta=0.999999, omega_n_factor=0.490748, alpha=0.999, model=GravityModel.CONSISTENT)
@example(zeta=0.999999, omega_n_factor=0.490748, alpha=0.999, model=GravityModel.PAPER_LITERAL)
def test_closed_loop_eigenvalues_are_designed_poles(zeta, omega_n_factor, alpha, model):
    # the eigensolver path of closed_loop_poles and cubli gains, over omega_n
    # from 0.1 to 7 omega_0, where the poles may nearly coalesce
    spec = DesignSpec(zeta=zeta, omega_n=omega_n_factor * plant.pendulum_frequency(DP, model), alpha=alpha)
    eigs = np.linalg.eigvals(analysis.closed_loop_matrix(control.full_gains(spec, DP), DP))
    assert verify.gate(analysis.coefficient_error(np.poly(eigs), analysis.design_poly(spec)))[0]


def test_design_poly_roots_are_designed_poles(paper_spec):
    error = analysis.coefficient_error(np.poly(analysis.designed_poles(paper_spec)), analysis.design_poly(paper_spec))
    assert verify.gate(error)[0]


def test_regulator_attitude(paper_spec):
    gains = control.Gains(paper_spec.omega_n**2, 2.0 * paper_spec.zeta * paper_spec.omega_n)
    q_r = rotor.UPRIGHT
    assert control.regulator_attitude(state(q_r), q_r, gains) == 0.0
    # one degree of error at rest commands k_p * tan(1 deg)
    u = control.regulator_attitude(state(rotor.from_angle(math.radians(44.0))), q_r, gains)
    assert u == pytest.approx(gains.k_p * math.tan(math.radians(1.0)), rel=1e-12)
    assert u == pytest.approx(1.845, rel=1e-3)


def test_regulator_singularity_propagates(dp):
    gains = Gains(k_p=100.0, k_d=10.0)
    x = state(rotor.from_angle(0.0))
    q_r = rotor.from_angle(math.radians(90.0))
    for regulator in (control.regulator_attitude, control.regulator_full):
        with pytest.raises(SingularityError):
            regulator(x, q_r, gains)


def test_regulator_full(dp):
    gains = Gains(k_p=100.0, k_d=10.0, k_pw=0.01, k_dw=0.02)
    q_r = rotor.UPRIGHT
    assert control.regulator_full(state(q_r), q_r, gains) == 0.0
    # with zero wheel gains the full law is the attitude law
    s = state(rotor.from_angle(0.6), theta_w=3.0, omega_c=0.4, omega_w=50.0)
    reduced = Gains(k_p=gains.k_p, k_d=gains.k_d)
    assert control.regulator_full(s, q_r, reduced) == pytest.approx(
        control.regulator_attitude(s, q_r, reduced), rel=1e-15
    )
    # wheel angle alone produces the unwind drive -k_pw * theta_w
    wound = state(q_r, theta_w=25.0)
    assert control.regulator_full(wound, q_r, gains) == pytest.approx(-gains.k_pw * 25.0)


def test_regulator_odd_symmetry(dp):
    gains = Gains(k_p=120.0, k_d=15.0, k_pw=0.02, k_dw=0.03)
    rng = np.random.default_rng(0)
    theta_r = math.radians(45.0)
    q_r = rotor.from_angle(theta_r)
    for _ in range(100):
        theta_e = rng.uniform(-1.0, 1.0)
        omega_c, theta_w, omega_w = rng.uniform(-3, 3), rng.uniform(-20, 20), rng.uniform(-200, 200)
        pos = state(rotor.from_angle(theta_r - theta_e), theta_w, omega_c, omega_w)
        neg = state(rotor.from_angle(theta_r + theta_e), -theta_w, -omega_c, -omega_w)
        u_pos = control.regulator_full(pos, q_r, gains)
        u_neg = control.regulator_full(neg, q_r, gains)
        assert u_neg == pytest.approx(-u_pos, rel=1e-10, abs=1e-12)


def test_small_angle_law_matches_nonlinear_law_near_reference(dp):
    gains = Gains(k_p=105.7, k_d=14.54)
    q_r = rotor.UPRIGHT
    rng = np.random.default_rng(1)
    worst = 0.0
    peak = 0.0
    for _ in range(500):
        theta_e = math.radians(rng.uniform(-2.0, 2.0))
        omega_c = rng.uniform(-0.1, 0.1)
        s = state(rotor.from_angle(math.pi / 4 - theta_e), omega_c=omega_c)
        u_nl = control.regulator_attitude(s, q_r, gains)
        u_sa = control.regulator_small_angle(s, q_r, gains)
        worst = max(worst, abs(u_nl - u_sa))
        peak = max(peak, abs(u_nl))
    assert worst < 1e-3 * peak


def test_feedback_linearize_at_equilibrium(dp):
    fp = FrictionParams()
    tau = control.feedback_linearize(0.0, rotor.UPRIGHT, 0.0, dp, fp)
    assert tau == pytest.approx(0.0, abs=1e-15)
    # spinning wheel: only the friction passthrough remains
    tau = control.feedback_linearize(0.0, rotor.UPRIGHT, 300.0, dp, fp)
    assert tau == pytest.approx(plant.friction_torque(300.0, fp), rel=1e-12)
    assert tau == pytest.approx(7.17e-3, rel=1e-3)


@pytest.mark.parametrize("model", list(GravityModel))
@prop
@given(
    theta=st.floats(-np.pi, np.pi),
    theta_w=st.floats(-20.0, 20.0),
    omega_c=st.floats(-5.0, 5.0),
    omega_w=st.floats(-300.0, 300.0),
    u=st.floats(-10.0, 10.0),
)
def test_feedback_linearization_cancels_exactly(model, theta, theta_w, omega_c, omega_w, u):
    fp = FrictionParams()
    q = rotor.from_angle(theta)
    x = state(q, theta_w, omega_c, omega_w)
    tau = control.feedback_linearize(u, q, omega_w, DP, fp, model)
    rate = plant.dynamics_rate(x, tau, DP, fp, model, Fidelity.PAPER_APPROX)
    assert abs(rate[3] - u) < 1e-12


def step_torques(u, tau_max=0.5):
    """control.controller's (tau_cmd, tau_applied) under a stub regulator commanding
    u, on a friction-free plant at rest at UPRIGHT, where the consistent
    gravity torque is exactly 0, so that tau_cmd = -I_cO_bar * u."""

    def stub(x, q_r, gains):
        return u

    x = tuple(state(rotor.UPRIGHT).tolist())
    args = (DP, plant.FRICTION_FREE, GravityModel.CONSISTENT, tau_max)
    return control.controller((1.0, 0.0), rotor.UPRIGHT, stub, None, *args)(x)[1:]


def test_step_saturates_the_applied_torque():
    def applied(tau):  # the applied torque of a command tau
        return step_torques(-tau / DP.I_cO_bar)[1]

    u = -0.1 / DP.I_cO_bar
    assert step_torques(u) == (-DP.I_cO_bar * u,) * 2  # in range: passed through
    assert applied(0.9) == 0.5
    assert applied(-0.9) == -0.5
    rng = np.random.default_rng(3)
    for tau in rng.uniform(-2, 2, 50):
        assert applied(-tau) == -applied(tau)
    # a non-finite command passes through, for the integrator to report
    assert all(map(math.isnan, step_torques(math.nan)))


def test_closed_loop_is_hurwitz_for_valid_specs(dp):
    rng = np.random.default_rng(4)
    for _ in range(100):
        spec = DesignSpec(
            zeta=rng.uniform(0.3, 1.0), omega_n=rng.uniform(2, 20), alpha=rng.uniform(0.01, 0.5)
        )
        m = analysis.closed_loop_matrix(control.full_gains(spec, dp), dp)
        assert np.max(np.linalg.eigvals(m).real) < 0.0


def test_error_dynamics_vanish_along_ideal_closed_loop(dp):
    # integrate the feedback-linearized ideal system q_dot = G(q)^T w, w_dot = u
    # and check the regulated error component satisfies its target ODE
    gains = Gains(10.0**2, 2.0 * SQ2 * 10.0)
    q_r = rotor.UPRIGHT
    state = np.array([1.0, 0.0, 0.0])  # q0, q1, omega_c: 45 deg away, at rest
    dt = 1e-3

    def ideal_rate(s):
        u = control.regulator_attitude(plant.state(s[:2], omega_c=s[2]), q_r, gains)
        return np.array([-s[1] * s[2], s[0] * s[2], u]), u

    for step in range(4000):
        rate, u = ideal_rate(state)
        q_e = rotor.orientation_error(state[:2], q_r)
        q_e1_dot = -state[2] * q_e[0]
        q_e1_ddot = -u * q_e[0] - state[2] ** 2 * q_e[1]
        residual = q_e1_ddot + gains.k_d * q_e1_dot + gains.k_p * q_e[1]
        assert abs(residual) < 1e-8
        k1, _ = ideal_rate(state)
        k2, _ = ideal_rate(state + 0.5 * dt * k1)
        k3, _ = ideal_rate(state + 0.5 * dt * k2)
        k4, _ = ideal_rate(state + dt * k3)
        state = state + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        state[:2] /= np.hypot(*state[:2])
    # the ideal loop also converges
    assert rotor.to_angle(state[:2]) == pytest.approx(math.pi / 4, abs=1e-6)


def test_gains_for_mode(dp, paper_spec):
    att = control.gains_for_mode(Mode.ATTITUDE_ONLY, paper_spec, dp)
    assert (att.k_pw, att.k_dw) == (0.0, 0.0)
    # the alpha = 0 design is the paper's attitude-only law, bit for bit
    assert att == Gains(paper_spec.omega_n**2, 2.0 * paper_spec.zeta * paper_spec.omega_n)
    full = control.gains_for_mode(Mode.ATTITUDE_AND_WHEEL, paper_spec, dp)
    assert full.k_pw > 0.0
    assert control.gains_for_mode(Mode.SMALL_ANGLE, paper_spec, dp) == full
