import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubli import analysis, cli, control, plant, rotor, verify
from cubli.control import DesignSpec
from cubli.errors import DivergenceError, ValidationError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel


def passes(error):
    """The one gate of every pole claim, as cubli verify applies it."""
    return verify.gate(error)[0]


@pytest.fixture(scope="module")
def dp():
    return plant.derive(CubliParams(), FrictionParams())


def test_char_poly_identity():
    assert_allclose(analysis.char_poly(np.eye(2)), [1.0, -2.0, 1.0], atol=1e-15)


def test_char_poly_companion_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        coeffs = np.concatenate([[1.0], rng.uniform(-3, 3, 4)])
        companion = np.diag(np.ones(3), -1)
        companion[0] = -coeffs[1:]
        assert_allclose(analysis.char_poly(companion), coeffs, atol=1e-9)


def test_char_poly_input_validation():
    with pytest.raises(ValidationError):
        analysis.char_poly(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        analysis.char_poly(np.zeros((9, 9)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            analysis.char_poly(np.diag([1.0, bad]))
    with pytest.raises(ValidationError, match="overflows"):
        analysis.char_poly(np.diag([1e300, 1e300]))


def test_char_poly_rounds_each_coefficient_once():
    # poles 80 octaves apart: the recurrence in floats cancels the constant
    # coefficient -3 to about -1.8e11.  Each coefficient is the nearest float to
    # the true one, in which the 2^-40 terms fall below half an ulp.
    a = np.diag([2.0**40, 3.0, 2.0**-40])
    assert analysis.char_poly(a).tolist() == [1.0, -(2.0**40 + 3.0), 3.0 * 2.0**40 + 1.0, -3.0]


def test_controllability_trivial_cases():
    assert analysis.controllability_rank(np.zeros((3, 3)), np.array([[1.0], [0.0], [0.0]])) == 1
    # double integrator
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    assert analysis.controllability_rank(a, b) == 2


@pytest.mark.parametrize("a", [np.diag([1e300, 1.0, 1.0]), np.diag([np.inf, 1.0, 1.0]), np.diag([np.nan, 1.0, 1.0])])
def test_controllability_rank_rejects_a_matrix_that_is_not_finite(a):
    # A^2 B overflows (1e600) without a RuntimeWarning, which this suite turns into an error
    with pytest.raises(ValidationError, match="controllability matrix entries must be finite"):
        analysis.controllability_rank(a, np.ones((3, 1)))


@pytest.mark.parametrize("model", list(GravityModel))
def test_open_loop_controllability_rank_is_four(model):
    fp = FrictionParams()
    dp = plant.derive(CubliParams(), fp)
    a, b = plant.linearize(dp, fp, model)
    assert analysis.controllability_rank(a, b) == 4


def test_controllability_rank_invariant_under_state_rescaling(dp):
    fp = FrictionParams()
    a, b = plant.linearize(dp, fp)
    rng = np.random.default_rng(2)
    for _ in range(20):
        scale = np.diag(rng.uniform(0.1, 10.0, 5))
        inv = np.linalg.inv(scale)
        assert analysis.controllability_rank(scale @ a @ inv, scale @ b) == 4


def test_fd_jacobian_on_linear_map():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    x0 = rng.normal(size=4)
    assert np.max(np.abs(analysis.fd_jacobian(lambda x: a @ x, x0) - a)) < 1e-9


def test_fd_jacobian_rejects_non_finite():
    def bad(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(x)  # nan when probed below zero

    with pytest.raises(DivergenceError):
        analysis.fd_jacobian(bad, np.array([0.0]))


def test_closed_loop_matrix_zero_gains_structure(dp):
    m = analysis.closed_loop_matrix(control.Gains(0.0, 0.0, 0.0, 0.0), dp)
    expected = np.zeros((4, 4))
    expected[0, 2] = -1.0
    expected[1, 3] = 1.0
    expected[3, 0] = -dp.delta
    assert_allclose(m, expected)


def test_closed_loop_char_poly_identity(dp):
    # coefficient pattern in terms of the gains and the plant ratios
    g = control.Gains(k_p=2.0, k_d=5.0, k_pw=3.0, k_dw=7.0)
    coeffs = analysis.char_poly(analysis.closed_loop_matrix(g, dp))
    expected = [
        1.0,
        g.k_d - dp.gamma * g.k_dw,
        g.k_p - dp.gamma * g.k_pw,
        dp.delta * g.k_dw,
        dp.delta * g.k_pw,
    ]
    assert_allclose(coeffs, expected, rtol=1e-12)


def test_gain_synthesis_identity_random_specs(dp):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        spec = DesignSpec(
            zeta=rng.uniform(0.3, 1.0), omega_n=rng.uniform(2, 20), alpha=rng.uniform(0.0, 0.5)
        )
        coeffs = analysis.char_poly(analysis.closed_loop_matrix(control.full_gains(spec, dp), dp))
        worst = max(worst, analysis.coefficient_error(coeffs, analysis.design_poly(spec)))
    assert passes(worst)


def test_closed_loop_eigenvalues_reference_case(dp):
    spec = cli.design_spec(dataclasses.replace(cli.Config(), controller_gravity=GravityModel.PAPER_LITERAL))
    eigs = np.linalg.eigvals(analysis.closed_loop_matrix(control.full_gains(spec, dp), dp))
    assert passes(analysis.coefficient_error(np.poly(eigs), analysis.design_poly(spec)))
    expected = analysis.designed_poles(spec)
    # the textbook numbers: -7.27 +/- 7.27j and a double pole at -0.727
    assert sorted(expected.real)[0] == pytest.approx(-7.27, rel=1e-2)
    assert max(expected.real) == pytest.approx(-0.727, rel=1e-2)


def test_closed_loop_matrix_matches_end_to_end_finite_differences(dp):
    # drive control.controller (no sensor bias, no actuator limit) + reduced plant
    # through the (sigma_e, theta_w, omega_c, omega_w) coordinates and differentiate
    fp = FrictionParams()
    reference = cli.Config().scenario
    gains = control.full_gains(reference.design, dp)
    q_r = reference.q_r
    theta_r = rotor.to_angle(q_r)
    sample = control.controller((1.0, 0.0), q_r, control.regulator_full, gains, dp, fp, GravityModel.CONSISTENT, math.inf)

    def closed_loop_rate(z):
        sigma_e, theta_w, omega_c, omega_w = z
        theta = theta_r - math.atan(sigma_e)
        x = plant.state(rotor.from_angle(theta), theta_w, omega_c, omega_w)
        tau = sample(x)[2]
        rate = plant.dynamics_rate(x, tau, dp, fp, GravityModel.CONSISTENT, Fidelity.PAPER_APPROX)
        sigma_dot = -(1.0 + sigma_e**2) * omega_c
        return np.array([sigma_dot, rate[2], rate[3], rate[4]])

    jac = analysis.fd_jacobian(closed_loop_rate, np.zeros(4))
    assert np.max(np.abs(jac - analysis.closed_loop_matrix(gains, dp))) < 1e-5


def test_coefficient_error():
    expected = np.poly([-1.0, -1.0, -2.0 + 1j, -2.0 - 1j])
    # a double root split by 1e-8 moves the coefficients by 1e-16
    split = np.poly([-1.0 + 1e-8, -1.0 - 1e-8, -2.0 + 1j, -2.0 - 1j])
    assert analysis.coefficient_error(split, expected) < 1e-15
    shifted = np.poly(np.array([-1.0, -1.0, -2.0 + 1j, -2.0 - 1j]) + 0.01)
    assert analysis.coefficient_error(shifted, expected) > 1e-3
    # the modulus of a complex difference: an imaginary residue counts
    scale = np.max(np.abs(expected))
    assert analysis.coefficient_error(expected + [0, 0, 3e-6j, 0, 0], expected) == pytest.approx(3e-6 / scale)
    with pytest.raises(ValidationError):
        analysis.coefficient_error(expected[:4], expected)


@pytest.mark.parametrize(
    ("computed", "expected"),
    [
        # the damped frequency 1% off
        ([-1, -1, -2 + 1.01j, -2 - 1.01j], [-1, -1, -2 + 1j, -2 - 1j]),
        # the double root split wide
        ([-0.5, -1.5, -3 + 1j, -3 - 1j], [-1, -1, -3 + 1j, -3 - 1j]),
        # two roots moved oppositely
        ([-1 + 1e-5, -1, -2 - 1e-5 + 1j, -2 - 1j], [-1, -1, -2 + 1j, -2 - 1j]),
    ],
)
def test_coefficient_error_sees_errors_that_keep_the_sum(computed, expected):
    assert not passes(analysis.coefficient_error(np.poly(computed), np.poly(expected)))


def close_double_poles_spec(dp):
    # zeta = 1 makes the attitude pair a double pole at -omega_n and alpha near
    # 1 puts the wheel's double pole 0.004 away: rounding splits the four
    # eigenvalues by ~1.8e-4, yet their polynomial stays within ~3e-15 of the design
    return DesignSpec(zeta=1.0, omega_n=0.490748 * plant.pendulum_frequency(dp, GravityModel.CONSISTENT), alpha=0.999)


def reference_spec(dp):
    return cli.design_spec(cli.Config())


def placed(spec, dp, gains=None):
    """Coefficients of the closed loop's eigenvalue polynomial: the
    eigensolver path that cubli verify's closed_loop_poles gates."""
    gains = gains or control.full_gains(spec, dp)
    return np.poly(np.linalg.eigvals(analysis.closed_loop_matrix(gains, dp)))


@pytest.mark.parametrize("make_spec", [reference_spec, close_double_poles_spec])
def test_coefficient_error_passes_placed_fails_moved_poles(make_spec, dp):
    spec = make_spec(dp)
    coeffs = placed(spec, dp)
    assert passes(analysis.coefficient_error(coeffs, analysis.design_poly(spec)))
    poles = analysis.designed_poles(spec)
    for k in range(len(poles)):
        for step in (1e-5, -1e-5, 1e-5j, -1e-5j):
            moved = poles.copy()
            moved[k] += step
            assert not passes(analysis.coefficient_error(coeffs, np.poly(moved))), (k, step)


@pytest.mark.parametrize("make_spec", [reference_spec, close_double_poles_spec])
def test_coefficient_error_fails_wrong_frequency_or_gain(make_spec, dp):
    spec = make_spec(dp)
    gains = control.full_gains(spec, dp)
    poles = analysis.designed_poles(spec)
    coeffs = placed(spec, dp, gains)
    for step in (0.01j, -0.01j):
        moved = poles.copy()
        moved[0] += step
        moved[1] -= step
        assert not passes(analysis.coefficient_error(coeffs, np.poly(moved))), step
    for k_p in (gains.k_p + 1e-3, gains.k_p - 1e-3):
        wrong = placed(spec, dp, dataclasses.replace(gains, k_p=k_p))
        assert not passes(analysis.coefficient_error(wrong, analysis.design_poly(spec))), k_p


def test_coefficient_error_fails_two_distinct_poles_moved_oppositely(dp):
    spec = reference_spec(dp)
    coeffs = placed(spec, dp)
    poles = analysis.designed_poles(spec)
    for i, j in itertools.combinations(range(len(poles)), 2):
        if poles[i] == poles[j]:
            continue
        for step in (1e-5, -1e-5, 1e-5j, -1e-5j, 1e-3, 1e-3j):
            moved = poles.copy()
            moved[i] += step
            moved[j] -= step
            assert not passes(analysis.coefficient_error(coeffs, np.poly(moved))), (i, j, step)


def test_coefficient_error_fails_a_wrong_open_loop_frequency(dp):
    a, _ = plant.linearize(dp, FrictionParams(), GravityModel.CONSISTENT)
    coeffs = analysis.char_poly(a)
    omega_0 = plant.pendulum_frequency(dp, GravityModel.CONSISTENT)
    for w0 in (omega_0, omega_0 * (1.0 + 1e-6), omega_0 * (1.0 - 1e-6), omega_0 * 1.01):
        target = np.poly([0.0, 0.0, -dp.omega_1, w0, -w0])
        assert passes(analysis.coefficient_error(coeffs, target)) == (w0 == omega_0), w0


def test_design_poly_expansion():
    spec = DesignSpec(zeta=0.5, omega_n=2.0, alpha=0.25)
    z, wn, a = spec.zeta, spec.omega_n, spec.alpha
    expected = [
        1.0,
        2 * z * wn * (1 + a),
        wn**2 * (1 + a * z**2 * (4 + a)),
        2 * a * z * wn**3 * (1 + a * z**2),
        a**2 * z**2 * wn**4,
    ]
    assert_allclose(analysis.design_poly(spec), expected, rtol=1e-14)
