"""Closed-loop balancing run: 5 deg initial offset, two disturbance pokes.

Reproduces the reference experiment protocol in simulation: the attitude
settles in well under a second, the wheel velocity takes roughly ten times
longer (the wheel poles are placed a factor alpha = 0.1 slower), and both
torque pokes are rejected in under two seconds.  The experiment is the
reference config, cli.Config(), so the log written to balance_run.csv next to
this script is the CSV of `cubli simulate`.
"""

import pathlib

import numpy as np

from cubli import cli, sim

cfg = cli.Config()
ts = sim.run(cfg.scenario)

out = pathlib.Path(__file__).with_name("balance_run.csv")
cli.write_csv(ts, str(out))
print("wrote", out)

# settling is measured on the window before the first poke
q_r = cfg.scenario.q_r
att_settle, wheel_settle, peak_wheel = sim.settling(ts, q_r, 0.0, cfg.disturbances[0].start)
print(f"\nattitude settling (0.5 deg band): {att_settle:.3f} s")
print(f"wheel settling (2% of {peak_wheel:.0f} rad/s peak): {wheel_settle:.3f} s")
print(f"wheel-to-attitude settling ratio: {wheel_settle / att_settle:.1f} (alpha = {cfg.alpha} -> ~10)")
print(f"peak applied torque: {np.max(np.abs(ts.tau_applied)):.3f} N m (limit {cfg.tau_max})")

for poke in cfg.disturbances:
    end = poke.start + poke.duration
    window = (ts.t >= end) & (ts.t < poke.start + 4.0)
    dev = ts.theta_c_deg[window] - cfg.reference_angle_deg
    resettle, _, _ = sim.settling(ts, q_r, end, poke.start + 4.0)
    print(f"poke at {poke.start:.0f} s: peak deviation {np.max(np.abs(dev)):.2f} deg, "
          f"re-settled {resettle - end:.2f} s after pulse end")

print(f"\nfinal attitude: {ts.theta_c_deg[-1]:.3f} deg, final wheel speed: {ts.omega_w[-1]:.3f} rad/s")
