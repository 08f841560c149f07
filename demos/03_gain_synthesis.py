"""Gain synthesis: from three tuning knobs to four verified closed-loop poles.

The attitude loop is tuned by damping ratio zeta and natural frequency
omega_n; the wheel loop is placed a factor alpha slower.  The synthesis is an
exact polynomial identity, verified here by recomputing the closed-loop
characteristic polynomial from the matrix, and again from its eigenvalues.
"""

import math

import numpy as np

from cubli import analysis, control, plant
from cubli.control import DesignSpec

dp = plant.derive(plant.CubliParams(), plant.FrictionParams())
spec = DesignSpec(zeta=math.sqrt(2) / 2, omega_n=1.5 * dp.omega_0, alpha=0.1)
print(f"targets: zeta = {spec.zeta:.4f}, omega_n = {spec.omega_n:.4f} rad/s, alpha = {spec.alpha}")

gains = control.full_gains(spec, dp)
print(f"\ngains: k_p = {gains.k_p:.3f}, k_d = {gains.k_d:.3f}, "
      f"k_pw = {gains.k_pw:.3e}, k_dw = {gains.k_dw:.3e}")

m = analysis.closed_loop_matrix(gains, dp)
print("\nclosed-loop matrix (sigma_e, theta_w, omega_c, omega_w):")
print(np.array_str(m, precision=3, suppress_small=True))

coeffs = analysis.char_poly(m)
target = analysis.design_poly(spec)
print("\ncharacteristic polynomial:", np.round(coeffs, 6))
print("design polynomial:        ", np.round(target, 6))
print("coefficient error:        ", f"{analysis.coefficient_error(coeffs, target):.2e} relative")

eigs = np.linalg.eigvals(m)
poles = analysis.designed_poles(spec)
print("\ndesigned poles:          ", np.round(np.sort_complex(poles), 4))
print("closed-loop eigenvalues: ", np.round(np.sort_complex(eigs), 4))
print("poly(eigvals) error:     ", f"{analysis.coefficient_error(np.poly(eigs), target):.2e} relative")

print("\nwith alpha = 0 the wheel terms vanish and the attitude gains reduce:")
reduced = control.full_gains(DesignSpec(spec.zeta, spec.omega_n, 0.0), dp)
k_p, k_d = control.attitude_gains(spec.zeta, spec.omega_n)
print(f"  full_gains(alpha=0): k_p = {reduced.k_p:.3f}, k_d = {reduced.k_d:.3f}, "
      f"k_pw = {reduced.k_pw}, k_dw = {reduced.k_dw}")
print(f"  attitude_gains:      k_p = {k_p:.3f}, k_d = {k_d:.3f}")
