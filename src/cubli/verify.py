"""The paper's verification checks, as one ordered list.

`cubli verify` runs the list and prints a line per check; the acceptance
suite runs each check as a test of its own.  A check takes the config and the
derived parameters under each gravity model, and returns (ok, metric text).
Its inputs, seeds, sample sizes and tolerances are stated here and nowhere
else.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import analysis, control, plant, rotor, sim
from .control import DesignSpec
from .plant import Fidelity, FrictionParams, GravityModel


def derive_all(cfg) -> dict:
    """The config's derived parameters under each gravity model."""
    return {model: plant.derive(cfg.params, cfg.friction, model) for model in GravityModel}


def design_spec(cfg) -> DesignSpec:
    """Resolve the design targets: omega_n is a multiple of the pendulum
    natural frequency under the controller's gravity model."""
    dp = plant.derive(cfg.params, cfg.friction, cfg.controller_gravity)
    return DesignSpec(zeta=cfg.zeta, omega_n=cfg.omega_n_factor * dp.omega_0, alpha=cfg.alpha)


def coefficient_gate(error, label="coefficient error", note=""):
    """The one gate of every pole claim: a characteristic polynomial's
    analysis.coefficient_error against its target stays below 1e-9."""
    return error < 1e-9, f"{label} = {error:.3e} relative (tol 1e-9{note})"


def linearization_fd(cfg, dp_by_model):
    fp_smooth = FrictionParams(0.0, cfg.friction.b_w, 0.0)  # differentiable at rest
    worst = 0.0
    for model, dp in dp_by_model.items():
        a, b = plant.linearize(dp, cfg.friction, model)
        x0 = plant.State(rotor.UPRIGHT.copy()).as_array()

        def rate(x):
            return plant.dynamics_rate(x, 0.0, dp, fp_smooth, model, Fidelity.PAPER_APPROX)

        a_fd = analysis.fd_jacobian(rate, x0)
        b_fd = analysis.fd_jacobian(
            lambda tau: plant.dynamics_rate(x0, tau[0], dp, fp_smooth, model, Fidelity.PAPER_APPROX),
            np.zeros(1),
        )
        worst = max(worst, float(np.max(np.abs(a - a_fd))), float(np.max(np.abs(b - b_fd))))
    return worst < 1e-6, f"max |analytic - fd| = {worst:.3e} (tol 1e-6)"


def open_loop_poles(cfg, dp_by_model):
    worst = 0.0
    for model, dp in dp_by_model.items():
        a, _ = plant.linearize(dp, cfg.friction, model)
        target = np.convolve([1.0, dp.omega_1, 0.0, 0.0], [1.0, 0.0, -dp.omega_0**2])
        worst = max(worst, analysis.coefficient_error(analysis.char_poly(a), target))
    return coefficient_gate(worst, "coefficient error vs s^2 (s+w1)(s^2-w0^2)")


def controllability_rank(cfg, dp_by_model):
    ranks = []
    for model, dp in dp_by_model.items():
        a, b = plant.linearize(dp, cfg.friction, model)
        ranks.append(analysis.controllability_rank(a, b, tol=1e-9))
    ok = all(r == 4 for r in ranks)
    return ok, f"rank = {ranks[0]}/5"


def gain_synthesis(cfg, dp_by_model):
    dp = dp_by_model[cfg.controller_gravity]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        spec = DesignSpec(
            zeta=rng.uniform(0.3, 1.0),
            omega_n=rng.uniform(2.0, 20.0),
            alpha=rng.uniform(0.0, 0.5),
        )
        coeffs = analysis.char_poly(analysis.closed_loop_matrix(control.full_gains(spec, dp), dp))
        worst = max(worst, analysis.coefficient_error(coeffs, analysis.design_poly(spec)))
    return coefficient_gate(worst, note=", 100 specs")


def pole_placement(cfg, dp):
    """The config mode's design (control.spec_for_mode), its gains, the designed
    poles, the closed-loop eigenvalues, and the coefficient error of the
    eigenvalues' polynomial against the design polynomial.

    The eigensolver path stays apart from gain_synthesis's Faddeev-LeVerrier
    one, so the two checks do not share a fault.
    """
    spec = control.spec_for_mode(cfg.mode, design_spec(cfg))
    gains = control.full_gains(spec, dp)
    eigs = np.linalg.eigvals(analysis.closed_loop_matrix(gains, dp))
    error = analysis.coefficient_error(np.poly(eigs), analysis.design_poly(spec))
    return spec, gains, analysis.designed_poles(spec), eigs, error


def pole_gate(error):
    return coefficient_gate(error, "coefficient error of poly(eigvals)")


def closed_loop_poles(cfg, dp_by_model):
    return pole_gate(pole_placement(cfg, dp_by_model[cfg.controller_gravity])[-1])


def fbl_cancellation(cfg, dp_by_model):
    rng = np.random.default_rng(11)
    worst = 0.0
    for model, dp in dp_by_model.items():
        for _ in range(500):
            q = rotor.from_angle(rng.uniform(-np.pi, np.pi))
            x = np.array([q[0], q[1], rng.uniform(-20, 20), rng.uniform(-5, 5), rng.uniform(-300, 300)])
            u = rng.uniform(-10.0, 10.0)
            tau = control.feedback_linearize(u, q, x[4], dp, cfg.friction, model)
            rate = plant.dynamics_rate(x, tau, dp, cfg.friction, model, Fidelity.PAPER_APPROX)
            worst = max(worst, abs(float(rate[3]) - u))
    return worst < 1e-12, f"max |omega_c_dot - u| = {worst:.3e} (tol 1e-12, 1000 states)"


def oracle_equivalence(cfg, dp_by_model, tamper: bool = False):
    dp = dp_by_model[cfg.plant_gravity]
    dp_oracle = dataclasses.replace(dp, mgd=dp.mgd * 1.01) if tamper else dp
    rng = np.random.default_rng(5)
    n = 20
    theta = rng.uniform(-np.pi, np.pi, n)
    xc = np.stack([np.cos(theta), np.sin(theta), rng.uniform(-5, 5, n), rng.uniform(-3, 3, n), rng.uniform(-100, 100, n)])
    xa = np.stack([theta, xc[2], xc[3], xc[4]])
    dt, steps = 1e-4, 10000

    def oracle_rate(x):
        return plant.angle_dynamics_rate(x, 0.0, dp_oracle, cfg.friction, cfg.plant_gravity)

    worst = 0.0
    for k in range(steps):
        xc = sim.rk4_step(xc, 0.0, dt, dp, cfg.friction, cfg.plant_gravity, Fidelity.EXACT)
        xa = sim.rk4(oracle_rate, xa, dt)
        if (k + 1) % 1000 == 0:
            worst = max(worst, float(np.max(np.abs(xc - np.vstack([rotor.from_angle(xa[0]), xa[1:]])))))
    suffix = " [tampered oracle gravity]" if tamper else ""
    return worst < 1e-8, f"max trajectory deviation = {worst:.3e} (tol 1e-8, 20 runs, 1 s){suffix}"


def energy_drift(cfg, dp_by_model):
    dp = dp_by_model[cfg.plant_gravity]
    x = plant.State.from_angle(0.0, omega_c=2.0, omega_w=50.0).as_array()
    e0 = plant.energies(x, dp)[2]
    drift = 0.0
    norm_drift = 0.0
    for k in range(100000):
        x = sim.rk4_step(x, 0.0, 1e-4, dp, plant.FRICTION_FREE, cfg.plant_gravity, Fidelity.EXACT)
        norm_drift = max(norm_drift, abs(math.hypot(x[0], x[1]) - 1.0))
        if (k + 1) % 2000 == 0:
            drift = max(drift, abs(plant.energies(x, dp)[2] - e0))
    rel = drift / abs(e0)
    ok = rel < 1e-6 and norm_drift <= 1e-9
    return ok, f"relative drift = {rel:.3e} (tol 1e-6), unit-norm drift = {norm_drift:.3e} (tol 1e-9)"


CHECKS = (
    ("linearization_fd", linearization_fd),
    ("open_loop_poles", open_loop_poles),
    ("controllability_rank", controllability_rank),
    ("gain_synthesis", gain_synthesis),
    ("closed_loop_poles", closed_loop_poles),
    ("fbl_cancellation", fbl_cancellation),
    ("oracle_equivalence", oracle_equivalence),
    ("energy_drift", energy_drift),
)


def run(cfg, negative_control: bool = False):
    """Run every check in order, yielding (name, ok, metric text).

    The negative control tampers the oracle's gravity constant, so
    oracle_equivalence must then fail.
    """
    dp_by_model = derive_all(cfg)
    for name, check in CHECKS:
        if check is oracle_equivalence:
            yield (name, *check(cfg, dp_by_model, tamper=negative_control))
        else:
            yield (name, *check(cfg, dp_by_model))
