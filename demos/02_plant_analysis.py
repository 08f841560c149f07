"""Plant model walkthrough: derived parameters, linearization, and its checks.

The open loop has one unstable pole at +omega_0 (the inverted pendulum), a
wheel pole at -omega_1, and a double pole at zero -- one integrator from the
wheel angle and one inherited from the redundant circle coordinate.  The
controllability matrix has rank 4 out of 5 states for the same reason: the
radial direction of the unit circle is not a physical degree of freedom.
"""

import numpy as np

from cubli import analysis, plant
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel

params = CubliParams()
friction = FrictionParams()

for model in GravityModel:
    dp = plant.derive(params, friction, model)
    print(f"--- gravity model: {model.value} ---")
    print(f"  d = {dp.d:.6f} m, m_c = {dp.m_c} kg, I_cO_bar = {dp.I_cO_bar:.6e} kg m^2")
    print(f"  omega_0 = {dp.omega_0:.4f} rad/s, omega_1 = {dp.omega_1:.4f} rad/s")
    print(f"  gamma = {dp.gamma:.1f}, delta = {dp.delta:.1f} 1/s^2")

    a, b = plant.linearize(dp, friction, model)
    coeffs = analysis.char_poly(a)
    expected = np.convolve(np.convolve([1, 0, 0], [1, dp.omega_1]), [1, 0, -dp.omega_0**2])
    print("  char poly coefficients:", np.round(coeffs, 6))
    print("  vs s^2 (s + w1)(s^2 - w0^2):", np.round(expected, 6))
    print("  open-loop poles:", np.round(np.sort(np.roots(coeffs).real), 4))
    print("  controllability rank:", analysis.controllability_rank(a, b), "of", a.shape[0])

    # cross-check the analytic A against a finite-difference Jacobian
    smooth = FrictionParams(0.0, friction.b_w, 0.0)
    x0 = plant.State.from_angle(np.pi / 4).as_array()
    a_fd = analysis.fd_jacobian(
        lambda x: plant.dynamics_rate(x, 0.0, dp, smooth, model, Fidelity.PAPER_APPROX), x0
    )
    print("  max |A - A_fd| =", f"{np.max(np.abs(a - a_fd)):.2e}")
    print()

dp = plant.derive(params, friction)
x = plant.State.from_angle(0.2, omega_c=1.0, omega_w=100.0).as_array()
kinetic, potential, total = plant.energies(x, dp)
print(f"energies at a sample state: T = {kinetic:.4f} J, V = {potential:.4f} J, E = {total:.4f} J")
