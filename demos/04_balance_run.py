"""Closed-loop balancing run: 5 deg initial offset, two disturbance pokes.

Reproduces the reference experiment protocol in simulation: the attitude
settles in well under a second, the wheel velocity takes roughly ten times
longer (the wheel poles are placed a factor alpha = 0.1 slower), and both
torque pokes are rejected in under two seconds.  Writes the full log to
balance_run.csv next to this script.
"""

import math
import pathlib

import numpy as np

from cubli import cli, plant, rotor, sim
from cubli.control import ControllerConfig, DesignSpec, Mode

dp = plant.derive(plant.CubliParams(), plant.FrictionParams())
scenario = sim.Scenario(
    design=DesignSpec(zeta=math.sqrt(2) / 2, omega_n=1.5 * dp.omega_0, alpha=0.1),
    controller=ControllerConfig(mode=Mode.ATTITUDE_AND_WHEEL, tau_max=0.5),
    initial=plant.state(rotor.from_angle(math.radians(40.0))),
    dt=1e-3,
    t_end=20.0,
    disturbances=(
        sim.Disturbance(start=9.0, duration=0.1, torque=0.05),
        sim.Disturbance(start=16.0, duration=0.1, torque=0.05),
    ),
)
ts = sim.run(scenario)

out = pathlib.Path(__file__).with_name("balance_run.csv")
cli.write_csv(ts, str(out))
print("wrote", out)

# settling is measured on the window before the first poke
quiet = ts.t < 9.0
att_settle = sim.settling_time(ts.t[quiet], ts.theta_c_deg[quiet] - 45.0, 0.5)
peak_wheel = float(np.max(np.abs(ts.omega_w)))
wheel_settle = sim.settling_time(ts.t[quiet], ts.omega_w[quiet], 0.02 * peak_wheel)
print(f"\nattitude settling (0.5 deg band): {att_settle:.3f} s")
print(f"wheel settling (2% of {peak_wheel:.0f} rad/s peak): {wheel_settle:.3f} s")
print(f"wheel-to-attitude settling ratio: {wheel_settle / att_settle:.1f} (alpha = 0.1 -> ~10)")
print(f"peak applied torque: {np.max(np.abs(ts.tau_applied)):.3f} N m (limit 0.5)")

for start in (9.0, 16.0):
    window = (ts.t >= start + 0.1) & (ts.t <= start + 4.0)
    dev = ts.theta_c_deg[window] - 45.0
    resettle = sim.settling_time(ts.t[window], dev, 0.5)
    print(f"poke at {start:.0f} s: peak deviation {np.max(np.abs(dev)):.2f} deg, "
          f"re-settled {resettle - start - 0.1:.2f} s after pulse end")

print(f"\nfinal attitude: {ts.theta_c_deg[-1]:.3f} deg, final wheel speed: {ts.omega_w[-1]:.3f} rad/s")
