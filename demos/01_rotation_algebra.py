"""Tour of the unit-complex-number rotation algebra.

A planar orientation is a point (cos th, sin th) on the unit circle.  Rotations
compose by complex multiplication, the conjugate inverts, and the tangent row
G(q) = (-q1, q0) converts angular velocity into a rate on the circle (rows 0-1
of the plant's rate) -- no trigonometric functions anywhere in the control path.
"""

import math

import numpy as np

from cubli import plant, rotor

q45 = rotor.from_angle(math.radians(45.0))
q30 = rotor.from_angle(math.radians(30.0))

print("45 deg as a unit complex number:", q45)
print("two 45 deg rotations composed:  ", rotor.product(q45, q45), "(= 90 deg)")
print("conjugate undoes the rotation:  ", rotor.product(q45, rotor.conjugate(q45)))

print("\norientation error from 30 deg to 45 deg:")
q_e = rotor.orientation_error(q30, q45)
print("  q_e =", q_e, "->", math.degrees(rotor.to_angle(q_e)), "deg")
print("  error tangent sigma_e =", rotor.error_tangent(q_e), "= tan(15 deg) =", math.tan(math.radians(15)))

print("\nkinematics: spinning at 2 rad/s from 30 deg (rows 0-1 of plant.dynamics_rate)")
dp = plant.derive(plant.CubliParams())
q_dot = plant.dynamics_rate(plant.state(q30, omega_c=2.0), 0.0, dp, plant.FrictionParams())[:2]
print("  q_dot = G(q)^T omega_c =", q_dot)
print("  tangency q . q_dot =", float(q30 @ q_dot), "(always zero: the flow stays on the circle)")
print("  angular rate recovered G(q) . q_dot =", float(-q30[1] * q_dot[0] + q30[0] * q_dot[1]), "rad/s")

print("\nthe regulated quantity is singular at +/-90 deg errors:")
try:
    rotor.error_tangent(rotor.from_angle(math.radians(90.0)))
except Exception as err:
    print("  ", type(err).__name__, "-", err)

rng = np.random.default_rng(0)
angles = rng.uniform(-np.pi, np.pi, 5)
print("\nround trip through the codec on random angles:")
print("  max |decode(encode(th)) - th| =", np.max(np.abs(rotor.to_angle(rotor.from_angle(angles)) - angles)))
