import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubli import rotor
from cubli.errors import SingularityError

SQ2 = np.sqrt(2.0) / 2.0

# no deadline: the host's speed varies too much for per-example timing
group_law = settings(deadline=None, max_examples=500)
angles = st.floats(-np.pi, np.pi)
units = angles.map(rotor.from_angle)


def random_units(n, seed):
    rng = np.random.default_rng(seed)
    return rotor.from_angle(rng.uniform(-np.pi, np.pi, n)).T


def test_product_identity_element():
    r = np.array([0.3, -0.8])
    assert_allclose(rotor.product((1.0, 0.0), r), r)
    assert_allclose(rotor.product(r, (1.0, 0.0)), r)


@group_law
@given(q=units)
def test_product_with_conjugate_is_identity_for_unit(q):
    assert_allclose(rotor.product(q, rotor.conjugate(q)), (1.0, 0.0), rtol=0, atol=1e-15)


def test_two_45_deg_rotations_compose_to_90():
    q45 = np.array([SQ2, SQ2])
    assert_allclose(rotor.product(q45, q45), np.array([0.0, 1.0]), atol=1e-15)


def test_product_matches_matrix_vector_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q, r = rng.normal(size=2), rng.normal(size=2)
        rotation = np.array([[q[0], -q[1]], [q[1], q[0]]])  # q o r = R(q) r
        assert_allclose(rotor.product(q, r), rotation @ r, atol=1e-14)


def test_product_commutative_and_associative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q, r, s = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
        assert_allclose(rotor.product(q, r), rotor.product(r, q), atol=1e-12)
        assert_allclose(
            rotor.product(rotor.product(q, r), s),
            rotor.product(q, rotor.product(r, s)),
            atol=1e-12,
        )


@group_law
@given(q=units, r=units, s=units)
def test_unit_product_is_associative(q, r, s):
    lhs = rotor.product(rotor.product(q, r), s)
    assert_allclose(lhs, rotor.product(q, rotor.product(r, s)), rtol=0, atol=1e-15)


def test_norm_is_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q, r = rng.normal(size=2), rng.normal(size=2)
        assert_allclose(np.hypot(*rotor.product(q, r)), np.hypot(*q) * np.hypot(*r), rtol=1e-12)


def test_product_with_conjugate_gives_squared_norm():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.normal(size=2)
        got = rotor.product(q, rotor.conjugate(q))
        assert got[0] == pytest.approx(np.hypot(*q) ** 2, rel=1e-15)
        assert got[1] == 0.0  # exact: q0*q1 - q1*q0


def test_conjugate_and_norm_values():
    assert_allclose(rotor.conjugate(np.array([0.6, 0.8])), [0.6, -0.8])
    assert np.hypot(*rotor.conjugate(np.array([0.6, 0.8]))) == pytest.approx(1.0)


def test_angle_codec():
    assert_allclose(rotor.from_angle(np.pi / 4), [SQ2, SQ2])
    assert_allclose(rotor.from_angle(0.0), [1.0, 0.0])
    thetas = np.linspace(-np.pi + 1e-9, np.pi, 1000)
    assert_allclose(rotor.to_angle(rotor.from_angle(thetas)), thetas, atol=1e-12)


@group_law
@given(a=angles, b=angles)
def test_angle_addition_up_to_wrapping(a, b):
    lhs = rotor.product(rotor.from_angle(a), rotor.from_angle(b))
    assert_allclose(lhs, rotor.from_angle(a + b), rtol=0, atol=1e-15)


def test_orientation_error():
    q45 = rotor.from_angle(np.pi / 4)
    assert_allclose(rotor.orientation_error(q45, q45), (1.0, 0.0), atol=1e-16)
    assert_allclose(rotor.orientation_error((1.0, 0.0), q45), q45)


@group_law
@given(q=units, q_r=units)
def test_orientation_error_composes_back_to_reference(q, q_r):
    q_e = rotor.orientation_error(q, q_r)
    assert_allclose(rotor.product(q, q_e), q_r, rtol=0, atol=1e-15)


def test_orientation_error_angle_is_wrapped_difference():
    units = random_units(200, 10)
    refs = random_units(200, 11)
    for q, q_r in zip(units, refs):
        got = rotor.to_angle(rotor.orientation_error(q, q_r))
        want = rotor.to_angle(q_r) - rotor.to_angle(q)
        want = np.arctan2(np.sin(want), np.cos(want))
        assert got == pytest.approx(want, abs=1e-12)


def test_error_tangent():
    assert rotor.error_tangent((1.0, 0.0)) == 0.0
    assert rotor.error_tangent(np.array([SQ2, SQ2])) == pytest.approx(1.0)
    with pytest.raises(SingularityError):
        rotor.error_tangent(np.array([5e-4, 1.0]))
    # the guard band is |q_e0| <= DEFAULT_GUARD = 1e-3
    assert rotor.error_tangent(np.array([2e-3, 1.0])) == pytest.approx(500.0)
