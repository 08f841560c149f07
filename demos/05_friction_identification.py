"""Friction identification: steady-state sweep plus least-squares curve fit.

At steady state the input torque equals the friction torque, so driving the
wheel at a grid of torque levels and recording the settled speeds samples the
friction curve directly.  A linear least-squares fit over [1, |w|, w^2] then
separates the Coulomb, viscous, and aerodynamic-drag coefficients.
"""

import numpy as np

from cubli import plant, sim
from cubli.plant import FrictionParams

true_fp = FrictionParams()
print(f"true coefficients: tau_c = {true_fp.tau_c:.3e}, b_w = {true_fp.b_w:.3e}, c_d = {true_fp.c_d:.3e}")

# pick torque levels that settle between 60 and 600 rad/s
levels = plant.friction_torque(np.linspace(60.0, 600.0, 12), true_fp)
print(f"\nsweeping {len(levels)} torque levels "
      f"({min(levels):.2e} .. {max(levels):.2e} N m), wheel-only dynamics...")
speeds = sim.steady_state_sweep(levels, fp=true_fp)
for tau, omega in zip(levels[::4], speeds[::4]):
    print(f"  tau = {tau:.3e} N m -> omega_ss = {omega:8.2f} rad/s")

fitted, residual_rms = sim.fit_friction(levels, speeds)
print("\nfit from the simulated sweep:")
print(f"  tau_c = {fitted.tau_c:.4e}  (true {true_fp.tau_c:.4e})")
print(f"  b_w   = {fitted.b_w:.4e}  (true {true_fp.b_w:.4e})")
print(f"  c_d   = {fitted.c_d:.4e}  (true {true_fp.c_d:.4e})")
print(f"  residual rms = {residual_rms:.2e} N m")

# robustness: multiplicative torque noise on each sample
rng = np.random.default_rng(1)
omegas = np.linspace(50, 600, 20)
noisy_taus = plant.friction_torque(omegas, true_fp) * (1 + 0.01 * rng.standard_normal(omegas.size))
noisy_fit, _ = sim.fit_friction(noisy_taus, omegas)
print("\nfit under 1% torque noise (one draw):")
print(f"  tau_c off by {abs(noisy_fit.tau_c - true_fp.tau_c) / true_fp.tau_c:.1%}, "
      f"b_w by {abs(noisy_fit.b_w - true_fp.b_w) / true_fp.b_w:.1%}, "
      f"c_d by {abs(noisy_fit.c_d - true_fp.c_d) / true_fp.c_d:.1%}")

print("\ntorque levels at or below the Coulomb torque are rejected:")
try:
    sim.steady_state_sweep([0.5 * true_fp.tau_c], fp=true_fp)
except Exception as err:
    print("  ", type(err).__name__, "-", err)
