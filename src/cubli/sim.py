"""Fixed-step closed-loop simulation, disturbance scenarios, and the
friction-identification experiment.

The controller runs at every integration step (control rate = 1/dt) with the
torque held constant over the step.  Scenarios own their state exclusively, so
independent runs can execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import control, plant, rotor
from .control import ControllerConfig, DesignSpec, Mode
from .errors import DivergenceError, IdentificationError, SingularityError, ValidationError
from .plant import CubliParams, Fidelity, FrictionParams, GravityModel, State


@dataclass(frozen=True)
class Disturbance:
    """Rectangular external torque pulse on the body."""

    start: float
    duration: float
    torque: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.torque)):
            raise ValidationError("disturbance start and torque must be finite")
        if not 0.0 < self.duration < math.inf:
            raise ValidationError("disturbance duration must be positive and finite")

    def active(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration


@dataclass
class Scenario:
    """Everything one closed-loop experiment needs.

    The plant and the controller each get their own gravity model
    (controller.gravity_model) so model-mismatch studies need no code
    changes; the controller uses the plant's friction values.
    """

    params: CubliParams = field(default_factory=CubliParams)
    friction: FrictionParams = field(default_factory=FrictionParams)
    design: DesignSpec = field(default_factory=lambda: DesignSpec(zeta=math.sqrt(2) / 2, omega_n=12.0, alpha=0.1))
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    initial: State = field(default_factory=lambda: State(rotor.UPRIGHT.copy()))
    plant_gravity: GravityModel = GravityModel.CONSISTENT
    fidelity: Fidelity = Fidelity.EXACT
    dt: float = 1e-3
    t_end: float = 20.0
    sensor_bias: float = 0.0          # attitude measurement offset [rad]
    disturbances: tuple[Disturbance, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if not self.dt <= self.t_end < math.inf:
            raise ValidationError("t_end must be finite and at least one step long")
        # the run ends exactly at t_end: a partial last step is not rounded away
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValidationError(f"t_end = {self.t_end!r} s is not a whole number of dt = {self.dt!r} s steps")
        if not math.isfinite(self.sensor_bias):
            raise ValidationError("sensor_bias must be finite")
        if not np.isfinite(self.initial.as_array()).all():
            raise ValidationError("initial state must be finite")


@dataclass
class TimeSeries:
    """Per-step log of a scenario run (fixed stride dt, strictly increasing t);
    COLUMNS names its fields in order."""

    t: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    theta_c_deg: np.ndarray
    theta_w: np.ndarray
    omega_c: np.ndarray
    omega_w: np.ndarray
    u: np.ndarray
    tau_cmd: np.ndarray
    tau_applied: np.ndarray
    tau_f: np.ndarray
    energy: np.ndarray


TimeSeries.COLUMNS = tuple(f.name for f in fields(TimeSeries))


def rk4(f, x, dt: float):
    """One classical Runge-Kutta step of x' = f(x); broadcasts like f does."""
    k1 = f(x)
    k2 = f(x + (0.5 * dt) * k1)
    k3 = f(x + (0.5 * dt) * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(
    x,
    tau,
    dt: float,
    dp: plant.DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
) -> np.ndarray:
    """One RK4 step of the plant with tau held constant (zero-order hold).

    The orientation is renormalized onto the unit circle afterwards; the
    renormalization changes neither the decoded angle nor the energy.
    """
    out = rk4(lambda s: plant.dynamics_rate(s, tau, dp, fp, model, fidelity, tau_ext), x, dt)
    out[:2] /= np.sqrt(out[0] * out[0] + out[1] * out[1])
    if not np.isfinite(out).all():
        raise DivergenceError("integration produced a non-finite state")
    return out


def run(scenario: Scenario) -> TimeSeries:
    """Execute a closed-loop scenario and log every step.

    Per step: rotate the true attitude by the sensor bias to get the
    measurement, evaluate the selected regulator and the feedback
    linearization on measured quantities, saturate, then integrate the true
    plant under the applied torque plus any active disturbance.
    """
    sc = scenario
    cc = sc.controller
    dp = plant.derive(sc.params, sc.friction, sc.plant_gravity)
    gains = control.gains_for_mode(cc.mode, sc.design, dp)
    q_bias = rotor.from_angle(sc.sensor_bias)
    n_steps = int(round(sc.t_end / sc.dt))

    t = np.arange(n_steps + 1) * sc.dt
    states = np.empty((5, n_steps + 1))
    u, tau_cmd, tau_applied = np.empty((3, n_steps + 1))
    x = sc.initial.as_array()

    # a diverging trajectory is reported via DivergenceError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t_k = t[k]
            q_meas = rotor.product(x[:2], q_bias)
            measured = State(q=q_meas, theta_w=x[2], omega_c=x[3], omega_w=x[4])
            try:
                if cc.mode is Mode.ATTITUDE_ONLY:
                    u_k = control.regulator_attitude(q_meas, measured.omega_c, cc.q_r, gains)
                elif cc.mode is Mode.SMALL_ANGLE:
                    u_k = control.regulator_small_angle(measured, cc.q_r, gains)
                else:
                    u_k = control.regulator_full(measured, cc.q_r, gains)
            except SingularityError as err:
                raise SingularityError(f"{err} at t = {t_k:.4f} s") from None
            cmd_k = control.feedback_linearize(u_k, q_meas, measured.omega_w, dp, sc.friction, cc.gravity_model)
            applied_k = control.saturate(cmd_k, cc.tau_max)
            tau_ext = sum(d.torque for d in sc.disturbances if d.active(t_k))
            states[:, k] = x
            u[k], tau_cmd[k], tau_applied[k] = u_k, cmd_k, applied_k

            if k < n_steps:
                try:
                    x = rk4_step(x, applied_k, sc.dt, dp, sc.friction, sc.plant_gravity, sc.fidelity, tau_ext)
                except DivergenceError as err:
                    raise DivergenceError(f"{err} at t = {t_k + sc.dt:.4f} s") from None

    # math.atan2, not np.arctan2: the vectorized one differs in the last bit on some hosts
    angles = (math.degrees(math.atan2(q1, q0)) for q0, q1 in zip(states[0], states[1]))
    theta_c_deg = np.fromiter(angles, float, len(t))
    tau_f = plant.friction_torque(states[4], sc.friction)
    energy = plant.energies(states, dp)[2]
    return TimeSeries(t, *states[:2], theta_c_deg, *states[2:], u, tau_cmd, tau_applied, tau_f, energy)


def settling_time(t, y, band: float) -> float:
    """Earliest logged time after which |y| stays within the band; inf if never."""
    outside = np.abs(np.asarray(y)) > band
    if not outside.any():
        return float(t[0])
    last = int(np.nonzero(outside)[0][-1])
    if last + 1 >= len(t):
        return float("inf")
    return float(t[last + 1])


@dataclass(frozen=True)
class SteadyStatePoint:
    """One identification sample: constant input torque and the wheel speed
    at which it balances the friction torque."""

    tau: float
    omega_ss: float


def steady_state_sweep(
    tau_levels,
    params: CubliParams = CubliParams(),
    fp: FrictionParams = FrictionParams(),
    dt: float = 1e-2,
    budget: float = 200.0,
    accel_tol: float = 1e-6,
) -> list[SteadyStatePoint]:
    """Spin the wheel alone at each torque level until it stops accelerating.

    The structure is held fixed, mirroring a bench identification: only
    omega_w_dot = (tau - tau_f(omega_w)) / I_wG is integrated, and a level is
    accepted once |omega_w_dot| < accel_tol.  Levels at or below the Coulomb
    torque never spin up and are rejected.
    """
    inv_iwg = 1.0 / params.I_wG
    tc, bw, cd = fp.tau_c, fp.b_w, fp.c_d

    def accel(w: float, tau: float) -> float:
        if w > 0.0:
            tf = tc + bw * w + cd * w * w
        elif w < 0.0:
            tf = -(tc - bw * w + cd * w * w)
        else:
            tf = 0.0
        return (tau - tf) * inv_iwg

    points = []
    max_steps = int(round(budget / dt))
    for tau in tau_levels:
        tau = float(tau)
        if abs(tau) <= tc:
            raise IdentificationError(
                f"input torque {tau:.3e} N m cannot overcome Coulomb friction {tc:.3e} N m"
            )
        w = 0.0
        converged = False
        for _ in range(max_steps):
            k1 = accel(w, tau)
            if abs(k1) < accel_tol:
                converged = True
                break
            k2 = accel(w + 0.5 * dt * k1, tau)
            k3 = accel(w + 0.5 * dt * k2, tau)
            k4 = accel(w + dt * k3, tau)
            w += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not converged:
            raise IdentificationError(
                f"wheel did not reach steady state within {budget:.0f} s at tau = {tau:.3e} N m"
            )
        points.append(SteadyStatePoint(tau=tau, omega_ss=w))
    return points


def exact_steady_points(fp: FrictionParams, omegas) -> list[SteadyStatePoint]:
    """Noise-free identification samples straight from the friction curve."""
    return [SteadyStatePoint(tau=float(plant.friction_torque(w, fp)), omega_ss=float(w)) for w in omegas]


@dataclass(frozen=True)
class FrictionFit:
    params: FrictionParams
    residual_rms: float


def fit_friction(points) -> FrictionFit:
    """Least-squares friction coefficients from steady-state samples.

    Solves |tau| = tau_c + b_w |omega| + c_d omega^2 over regressors
    [1, |omega|, omega^2]; coefficients are clipped at zero (each term is a
    dissipation and cannot be negative).  Needs at least three samples at
    distinct nonzero speeds, otherwise the regressor matrix is rank deficient.
    """
    speeds = np.array([abs(p.omega_ss) for p in points])
    torques = np.array([abs(p.tau) for p in points])
    if len(set(np.round(speeds, 12))) < 3 or np.any(speeds == 0.0):
        raise IdentificationError("need at least 3 samples at distinct nonzero wheel speeds")
    regressors = np.column_stack([np.ones_like(speeds), speeds, speeds**2])
    if np.linalg.matrix_rank(regressors) < 3:
        raise IdentificationError("regressor matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(regressors, torques, rcond=None)
    coef = np.clip(coef, 0.0, None)
    residual = torques - regressors @ coef
    fitted = FrictionParams(tau_c=float(coef[0]), b_w=float(coef[1]), c_d=float(coef[2]))
    return FrictionFit(params=fitted, residual_rms=float(np.sqrt(np.mean(residual**2))))
