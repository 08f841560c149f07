"""Planar rotation algebra on unit complex numbers.

An orientation is stored as a length-2 vector q = (q0, q1) = (cos th, sin th),
i.e. a point on the unit circle instead of a wrapped angle.  All operations
broadcast over trailing axes, so stacked inputs of shape (2, N) work
elementwise.  product, conjugate and orientation_error return the
representation they are given: a tuple of two Python floats gives a tuple.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, SingularityError

# Guard band on the real part of the orientation error: references closer
# than ~0.06 deg to a +/-90 deg rotation are rejected as singular.
DEFAULT_GUARD = 1e-3

IDENTITY = np.array([1.0, 0.0])
UPRIGHT = np.array([np.sqrt(2.0) / 2.0, np.sqrt(2.0) / 2.0])  # 45 deg balance pose


def product(q, r):
    """Complex product q o r, i.e. composition of planar rotations."""
    q0, q1 = q
    r0, r1 = r
    out = (q0 * r0 - q1 * r1, q0 * r1 + q1 * r0)
    return out if isinstance(q, tuple) else np.array(out)


def conjugate(q):
    """Inverse rotation: flips the sign of the imaginary part."""
    q0, q1 = q
    out = (+q0, -q1)
    return out if isinstance(q, tuple) else np.array(out)


def norm(q):
    q0, q1 = q
    return np.sqrt(q0 * q0 + q1 * q1)


def is_unit(q) -> bool:
    """Whether q is finite and within 1e-9 of the unit circle (math.hypot does
    not overflow): the rule for every orientation given from outside."""
    return abs(math.hypot(q[0], q[1]) - 1.0) <= 1e-9


def normalize(q) -> np.ndarray:
    """Rescale q onto the unit circle.

    Raises DegenerateInputError when the norm is below 1e-12, so it never
    silently fabricates a direction from numerical noise.  (sim.rk4_step
    renormalizes its states inline instead.)
    """
    n = norm(q)
    if np.any(n <= 1e-12):
        raise DegenerateInputError("cannot normalize a near-zero complex number")
    return np.array([q[0] / n, q[1] / n])


def rotation_matrix(q) -> np.ndarray:
    """2x2 matrix R(q) such that q o r = R(q) @ r."""
    q0, q1 = q
    return np.array([[q0, -q1], [q1, q0]])


def tangent_row(q) -> np.ndarray:
    """Row G(q) = (-q1, q0) mapping rates on the circle to angular velocity."""
    q0, q1 = q
    return np.array([-q1, q0])


def from_angle(theta) -> np.ndarray:
    """Encode an angle in radians as a unit complex number."""
    return np.array([np.cos(theta), np.sin(theta)])


def to_angle(q):
    """Decode a unit complex number to its angle in (-pi, pi]."""
    q0, q1 = q
    return np.arctan2(q1, q0)


def kinematics_rate(q, omega) -> np.ndarray:
    """Rate of the orientation under angular velocity omega: G(q)^T * omega.

    The result is tangent to the unit circle, q . qdot = 0, so the unit
    constraint is preserved by the continuous flow.
    """
    q0, q1 = q
    return np.array([-q1 * omega, q0 * omega])


def angular_rate(q, q_dot):
    """Recover omega from an on-circle rate: G(q) @ q_dot."""
    q0, q1 = q
    return -q1 * q_dot[0] + q0 * q_dot[1]


def orientation_error(q, q_r):
    """Rotation taking the current orientation q onto the reference q_r.

    Returns conj(q) o q_r; equals (1, 0) when the orientation matches the
    reference, and q o error = q_r.
    """
    return product(conjugate(q), q_r)


def error_tangent(q_e, guard: float = DEFAULT_GUARD) -> float:
    """Scalar error sigma_e = q_e1 / q_e0 = tan(theta_e).

    Raises SingularityError when |q_e0| <= guard, signalling that the
    reference is a rotation of roughly 90 degrees or more away.
    """
    q_e0, q_e1 = q_e
    if abs(q_e0) <= guard:
        raise SingularityError(
            f"orientation error is within the guard band of a 90 deg rotation "
            f"(|q_e0| = {abs(q_e0):.2e} <= {guard:.0e})"
        )
    return q_e1 / q_e0
