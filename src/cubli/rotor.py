"""Planar rotation algebra on unit complex numbers.

An orientation is stored as a length-2 vector q = (q0, q1) = (cos th, sin th),
i.e. a point on the unit circle instead of a wrapped angle.  The controller
needs only the product, the conjugate, the orientation error conj(q) o q_r
and its tangent q_e1 / q_e0; from_angle and to_angle are the angle codec.
All operations broadcast over trailing axes, so stacked inputs of shape
(2, N) work elementwise.  product, conjugate and orientation_error return the
representation they are given: a tuple of two Python floats gives a tuple.
The kinematics q_dot = G(q)^T omega_c are rows 0-1 of plant.dynamics_rate,
and sim.rk4_step renormalizes q inline.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularityError

# Guard band on the real part of the orientation error: references closer
# than ~0.06 deg to a +/-90 deg rotation are rejected as singular.
DEFAULT_GUARD = 1e-3

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


def is_unit(q) -> bool:
    """Whether q is finite and within 1e-9 of the unit circle (math.hypot does
    not overflow): the rule for every orientation given from outside."""
    return abs(math.hypot(q[0], q[1]) - 1.0) <= 1e-9


def from_angle(theta) -> np.ndarray:
    """Encode an angle in radians as a unit complex number."""
    return np.array([np.cos(theta), np.sin(theta)])


def to_angle(q):
    """Decode a unit complex number to its angle in (-pi, pi]."""
    q0, q1 = q
    return np.arctan2(q1, q0)


def orientation_error(q, q_r):
    """Rotation taking the current orientation q onto the reference q_r.

    Returns conj(q) o q_r; equals (1, 0) when the orientation matches the
    reference, and q o error = q_r.
    """
    return product(conjugate(q), q_r)


def error_tangent(q_e) -> float:
    """Scalar error sigma_e = q_e1 / q_e0 = tan(theta_e).

    Raises SingularityError when |q_e0| <= DEFAULT_GUARD, signalling that the
    reference is a rotation of roughly 90 degrees or more away.
    """
    q_e0, q_e1 = q_e
    if abs(q_e0) <= DEFAULT_GUARD:
        raise SingularityError(
            f"orientation error is within the guard band of a 90 deg rotation "
            f"(|q_e0| = {abs(q_e0):.2e} <= {DEFAULT_GUARD:.0e})"
        )
    return q_e1 / q_e0
