"""Why the wheel feedback matters: balancing with a misaligned attitude sensor.

With a 5 deg sensor bias, the attitude-only regulator trusts the sensor and
tries to hold a pose that is not the true balance point, so the wheel must
accelerate forever to supply the missing gravity torque.  The full regulator
also feeds back the wheel states; it lets the sensed attitude deviate and
quietly slides to the true equilibrium, parking the wheel.  The sensed
attitude then reads 50 deg even though the reference was 45 deg.
"""

import dataclasses

import numpy as np

from cubli import cli, sim
from cubli.control import Mode

# the reference experiment, started at rest at the 45 deg reference, without its pokes
biased = dataclasses.replace(cli.Config(), initial_angle_deg=45.0, sensor_bias_deg=5.0, disturbances=())


def biased_run(mode, t_end):
    return sim.run(dataclasses.replace(biased, mode=mode, t_end=t_end).scenario)


print("full regulator (attitude + wheel feedback), 25 s:")
ts = biased_run(Mode.ATTITUDE_AND_WHEEL, 25.0)
print(f"  true attitude:   {ts.theta_c_deg[-1]:8.3f} deg (the real balance pose)")
print(f"  sensed attitude: {ts.theta_c_deg[-1] + 5.0:8.3f} deg (reference was 45)")
print(f"  wheel speed:     {ts.omega_w[-1]:8.1e} rad/s (parked)")
print(f"  wheel angle:     {ts.theta_w[-1]:8.0f} rad (absorbed the offset)")

print("\nattitude-only regulator, 5.5 s (it cannot last much longer):")
ts = biased_run(Mode.ATTITUDE_ONLY, 5.5)
for t_mark in (1.0, 3.0, 5.5 - 1e-9):
    k = int(np.searchsorted(ts.t, t_mark))
    print(f"  t = {ts.t[k]:4.1f} s: wheel speed {ts.omega_w[k]:9.1f} rad/s and growing")
print(f"  peak torque already {np.max(np.abs(ts.tau_applied)):.2f} N m of the 0.5 N m budget;")
print("  soon after, friction at the runaway wheel speed saturates the motor and the cube falls.")
