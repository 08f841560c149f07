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
        roots = analysis.poly_roots(analysis.char_poly(a))
        expected = np.array([0.0, 0.0, -dp.omega_1, dp.omega_0, -dp.omega_0], dtype=complex)
        worst = max(worst, analysis.spectrum_mismatch(roots, expected, cluster_tol=1e-7))
    return worst < 1e-8, f"root mismatch vs s^2 (s+w1)(s^2-w0^2) = {worst:.3e} (tol 1e-8)"


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
        target = analysis.design_poly(spec)
        worst = max(worst, float(np.max(np.abs(coeffs - target)) / np.max(np.abs(target))))
    return worst < 1e-9, f"coefficient error = {worst:.3e} relative (tol 1e-9, 100 specs)"


def closed_loop_poles(cfg, dp_by_model):
    from .cli import design_spec  # cli imports this module

    dp = dp_by_model[cfg.controller_gravity]
    spec = design_spec(cfg)
    gains = control.full_gains(spec, dp)
    eigs = np.linalg.eigvals(analysis.closed_loop_matrix(gains, dp))
    mismatch = analysis.spectrum_mismatch(eigs, analysis.designed_poles(spec))
    return mismatch < 1e-6, f"eigenvalue mismatch = {mismatch:.3e} (tol 1e-6)"


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
            worst = max(worst, _form_deviation(xc, xa))
    suffix = " [tampered oracle gravity]" if tamper else ""
    return worst < 1e-8, f"max trajectory deviation = {worst:.3e} (tol 1e-8, 20 runs, 1 s){suffix}"


def _form_deviation(xc, xa) -> float:
    return max(
        float(np.max(np.abs(xc[0] - np.cos(xa[0])))),
        float(np.max(np.abs(xc[1] - np.sin(xa[0])))),
        float(np.max(np.abs(xc[2] - xa[1]))),
        float(np.max(np.abs(xc[3] - xa[2]))),
        float(np.max(np.abs(xc[4] - xa[3]))),
    )


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
