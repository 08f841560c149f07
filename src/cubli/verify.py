"""The paper's verification checks, as one ordered list.

`cubli verify` runs the list and prints a line per check; the acceptance
suite runs each check as a test of its own.  A check is check(sc) -> (ok,
metric text) on a sim.Scenario alone: it reads sc.dp, which no gravity model
enters, and sc.gains, and loops over the gravity models it covers.  Each
gated value goes through gate, which prints the tolerance it compares.  Its
inputs, seeds, sample sizes and tolerances are stated here and nowhere else.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import analysis, control, plant, rotor, sim
from .control import DesignSpec
from .errors import CubliError
from .plant import Fidelity, FrictionParams, GravityModel


def gate(value, label="coefficient error", note="", tol="1e-9", relative=True):
    """(value < tol, "label = value[ relative] (tol X[note])"), tol compared as
    printed.  The defaults gate every pole claim's relative coefficient_error."""
    return value < float(tol), f"{label} = {value:.3e}{' relative' if relative else ''} (tol {tol}{note})"


def linearization_fd(sc):
    fp_smooth = FrictionParams(0.0, sc.friction.b_w, 0.0)  # differentiable at rest
    worst = 0.0
    for model in GravityModel:
        a, b = plant.linearize(sc.dp, sc.friction, model)
        x0 = plant.state(rotor.UPRIGHT)
        a_fd = analysis.fd_jacobian(
            lambda x: plant.dynamics_rate(x, 0.0, sc.dp, fp_smooth, model, Fidelity.PAPER_APPROX), x0
        )
        b_fd = analysis.fd_jacobian(
            lambda tau: plant.dynamics_rate(x0, tau[0], sc.dp, fp_smooth, model, Fidelity.PAPER_APPROX),
            np.zeros(1),
        )
        worst = max(worst, float(np.max(np.abs(a - a_fd))), float(np.max(np.abs(b - b_fd))))
    return gate(worst, "max |analytic - fd|", tol="1e-6", relative=False)


def open_loop_poles(sc):
    worst = 0.0
    for model in GravityModel:
        a, _ = plant.linearize(sc.dp, sc.friction, model)
        target = np.convolve([1.0, sc.dp.omega_1, 0.0, 0.0], [1.0, 0.0, -plant.pendulum_frequency(sc.dp, model) ** 2])
        worst = max(worst, analysis.coefficient_error(analysis.char_poly(a), target))
    return gate(worst, "coefficient error vs s^2 (s+w1)(s^2-w0^2)")


def controllability_rank(sc):
    ranks = [analysis.controllability_rank(*plant.linearize(sc.dp, sc.friction, model)) for model in GravityModel]
    return all(r == 4 for r in ranks), f"rank = {ranks[0]}/5"


def gain_synthesis(sc):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        spec = DesignSpec(
            zeta=rng.uniform(0.3, 1.0),
            omega_n=rng.uniform(2.0, 20.0),
            alpha=rng.uniform(0.0, 0.5),
        )
        coeffs = analysis.char_poly(analysis.closed_loop_matrix(control.full_gains(spec, sc.dp), sc.dp))
        worst = max(worst, analysis.coefficient_error(coeffs, analysis.design_poly(spec)))
    return gate(worst, note=", 100 specs")


def pole_placement(sc: sim.Scenario):
    """The scenario mode's design (control.spec_for_mode), the designed poles,
    the eigenvalues of the closed loop under sc.gains, and the coefficient
    error of the eigenvalues' polynomial against the design polynomial.

    The eigensolver path stays apart from gain_synthesis's Faddeev-LeVerrier
    one, so the two checks do not share a fault.
    """
    spec = control.spec_for_mode(sc.mode, sc.design)
    eigs = np.linalg.eigvals(analysis.closed_loop_matrix(sc.gains, sc.dp))
    error = analysis.coefficient_error(np.poly(eigs), analysis.design_poly(spec))
    return spec, analysis.designed_poles(spec), eigs, error


def closed_loop_poles(sc):
    return gate(pole_placement(sc)[-1], "coefficient error of poly(eigvals)")


def fbl_cancellation(sc):
    rng = np.random.default_rng(11)
    worst = 0.0
    for model in GravityModel:
        for _ in range(500):
            q = rotor.from_angle(rng.uniform(-np.pi, np.pi))
            x = np.array([q[0], q[1], rng.uniform(-20, 20), rng.uniform(-5, 5), rng.uniform(-300, 300)])
            u = rng.uniform(-10.0, 10.0)
            tau = control.feedback_linearize(u, q, x[4], sc.dp, sc.friction, model)
            rate = plant.dynamics_rate(x, tau, sc.dp, sc.friction, model, Fidelity.PAPER_APPROX)
            worst = max(worst, abs(float(rate[3]) - u))
    return gate(worst, "max |omega_c_dot - u|", ", 1000 states", tol="1e-12", relative=False)


def oracle_equivalence(sc, tamper: bool = False):
    dp = sc.dp
    dp_oracle = dataclasses.replace(dp, mgd=dp.mgd * 1.01) if tamper else dp
    rng = np.random.default_rng(5)
    n = 20
    theta = rng.uniform(-np.pi, np.pi, n)
    xc = np.stack([np.cos(theta), np.sin(theta), rng.uniform(-5, 5, n), rng.uniform(-3, 3, n), rng.uniform(-100, 100, n)])
    xa = np.stack([theta, xc[2], xc[3], xc[4]])
    dt, steps = 1e-4, 10000

    def oracle_rate(x, out):
        return plant.angle_dynamics_rate(x, 0.0, dp_oracle, sc.friction, sc.plant_gravity, out=out)

    worst = 0.0
    for k in range(steps):
        xc = sim.rk4_step(xc, 0.0, dt, dp, sc.friction, sc.plant_gravity)
        xa = sim.rk4(oracle_rate, xa, dt)
        if (k + 1) % 1000 == 0:
            worst = max(worst, float(np.max(np.abs(xc - np.vstack([rotor.from_angle(xa[0]), xa[1:]])))))
    ok, metric = gate(worst, "max trajectory deviation", ", 20 runs, 1 s", tol="1e-8", relative=False)
    return ok, metric + (" [tampered oracle gravity]" if tamper else "")


def energy_drift(sc):
    dp = sc.dp
    x = plant.state(rotor.from_angle(0.0), omega_c=2.0, omega_w=50.0)
    e0 = plant.energies(x, dp, sc.plant_gravity)[2]
    x = tuple(x.tolist())  # stepped as Python floats (sim.rk4_step)
    drift = 0.0
    norm_drift = 0.0
    for k in range(100000):
        x = sim.rk4_step(x, 0.0, 1e-4, dp, plant.FRICTION_FREE, sc.plant_gravity)
        norm_drift = max(norm_drift, abs(math.hypot(x[0], x[1]) - 1.0))
        if (k + 1) % 2000 == 0:
            drift = max(drift, abs(plant.energies(np.array(x), dp, sc.plant_gravity)[2] - e0))
    energy_ok, energy = gate(drift / abs(e0), "relative drift", tol="1e-6", relative=False)
    norm_ok, norm = gate(norm_drift, "unit-norm drift", tol="1e-9", relative=False)
    return energy_ok and norm_ok, f"{energy}, {norm}"


CHECKS = (
    linearization_fd, open_loop_poles, controllability_rank, gain_synthesis,
    closed_loop_poles, fbl_cancellation, oracle_equivalence, energy_drift,
)


def run(sc: sim.Scenario, negative_control: bool = False):
    """Run every check in order, yielding (name, ok, metric text); a check's
    name prefixes a CubliError it raises.  The negative control tampers the
    oracle's gravity constant, so oracle_equivalence must then fail.
    """
    for check in CHECKS:
        tamper = {"tamper": negative_control} if check is oracle_equivalence else {}
        try:
            ok, metric = check(sc, **tamper)
        except CubliError as err:
            err.args = (f"{check.__name__}: {err}",)
            raise
        yield check.__name__, ok, metric
