"""Fixed-step closed-loop simulation of one experiment, a Scenario, and the
friction-identification experiment.

The controller runs at every integration step (control rate = 1/dt) with the
torque held constant over the step.  Scenarios own their state exclusively, so
independent runs can execute in parallel.

rk4_step picks the representation from the state's type and shape: one
trajectory (a tuple of five Python floats, or a (5,) array) is stepped on
five Python floats, with the RK4 stages written out per component, which
skips numpy's per-call cost at N = 1; a stacked (5, N) state is stepped as
its array by rk4, in place.  Both round alike, so they agree bit for bit.  A
scenario's initial state is the (5,) vector of plant.state; run carries its
trajectory as the tuple, so the per-step controller runs on Python floats too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import control, plant, rotor
from .control import DesignSpec, Mode
from .errors import DivergenceError, IdentificationError, SimulationError, ValidationError
from .plant import CubliParams, Fidelity, FrictionParams, GravityModel


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


@dataclass
class Scenario:
    """Everything one closed-loop experiment needs; no field has a default.
    The reference experiment is cli.build_scenario(cli.Config()).  A scenario
    that constructs is one that runs (its plant derives, its mode's gains are
    finite); dataclasses.replace varies it and runs these checks again.

    The plant and the controller each get their own gravity model
    (controller_gravity) so model-mismatch studies need no code changes; the
    controller uses the plant's friction values.
    """

    params: CubliParams
    friction: FrictionParams
    plant_gravity: GravityModel
    controller_gravity: GravityModel
    fidelity: Fidelity
    design: DesignSpec
    mode: Mode
    tau_max: float                    # actuator limit [N m]
    q_r: np.ndarray                   # reference orientation, a unit complex number
    initial: np.ndarray
    dt: float
    t_end: float
    sensor_bias: float                # attitude measurement offset [rad]
    disturbances: tuple[Disturbance, ...]

    def __post_init__(self):
        if not self.tau_max > 0.0:
            raise ValidationError("tau_max must be positive")
        q_r = np.array(self.q_r, dtype=float)
        if q_r.shape != (2,) or not rotor.is_unit(q_r):
            raise ValidationError(f"q_r must be a finite unit complex number of shape (2,), got {self.q_r!r}")
        self.q_r = q_r
        if not 0.0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if not self.dt <= self.t_end < math.inf:
            raise ValidationError("t_end must be finite and at least one step long")
        steps = _steps(self.t_end, self.dt)
        # past 2**53 steps every float is whole, and no such grid fits in memory
        if not steps <= 2.0**53:
            raise ValidationError(f"t_end = {self.t_end!r} s is more than 2**53 steps of dt = {self.dt!r} s")
        # the run ends exactly at t_end: a partial last step is not rounded away
        if not steps.is_integer():
            raise ValidationError(f"t_end = {self.t_end!r} s is not a whole number of dt = {self.dt!r} s steps")
        if not math.isfinite(self.sensor_bias):
            raise ValidationError("sensor_bias must be finite")
        # a copy the scenario owns; the first step would silently renormalize a non-unit q
        initial = np.array(self.initial, dtype=float)
        if initial.shape != (5,) or not (np.isfinite(initial).all() and rotor.is_unit(initial[:2])):
            raise ValidationError(f"initial must be a finite (5,) state with a unit complex q, got {self.initial!r}")
        self.initial = initial
        control.gains_for_mode(self.mode, self.design, plant.derive(self.params, self.friction, self.plant_gravity))


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
    """One classical Runge-Kutta step of x' = f(x) on an array x, computed in
    three arrays allocated per call with in-place ufuncs: f(y, out) writes y'
    into out.  The result is new, and x is never written.
    """
    half = 0.5 * dt
    k, s, acc = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    f(x, acc)  # acc = k1
    f(np.add(x, np.multiply(acc, half, out=s), out=s), k)  # k2
    for h in (half, dt):
        np.add(x, np.multiply(k, h, out=s), out=s)  # stage 3 from k2, then stage 4 from k3
        k += k
        acc += k
        f(s, k)  # k3, then k4
    acc += k
    acc *= dt / 6.0
    acc += x
    return acc


def rk4_step(
    x,
    tau,
    dt: float,
    dp: plant.DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
):
    """One RK4 step of the plant with tau held constant (zero-order hold).

    One trajectory, a tuple of five Python floats or a (5,) array, is stepped
    on Python floats and returned in the representation it came in; a stacked
    (5, N) state is stepped as its array.  Python floats and float64 arrays
    round alike, so a column stepped alone equals its stacked twin bit for
    bit.  The orientation is renormalized onto the unit circle afterwards; the
    renormalization changes neither the decoded angle nor the energy.
    """
    if isinstance(x, tuple) or x.ndim == 1:
        # rk4's stages and sums on the five components: k1 = (a0, a1, omega_w, a3, a4), k2 = (b0, ...)
        consts, tau, tau_ext = plant._constants(dp, fp, model, fidelity), float(tau), float(tau_ext)
        rates, half, h = plant._rates, 0.5 * dt, dt / 6.0
        q0, q1, theta_w, omega_c, omega_w = x if isinstance(x, tuple) else x.tolist()
        a0, a1, a3, a4 = rates(q0, q1, omega_c, omega_w, tau, tau_ext, consts)
        w2 = omega_w + half * a4
        b0, b1, b3, b4 = rates(q0 + half * a0, q1 + half * a1, omega_c + half * a3, w2, tau, tau_ext, consts)
        w3 = omega_w + half * b4
        c0, c1, c3, c4 = rates(q0 + half * b0, q1 + half * b1, omega_c + half * b3, w3, tau, tau_ext, consts)
        w4 = omega_w + dt * c4
        d0, d1, d3, d4 = rates(q0 + dt * c0, q1 + dt * c1, omega_c + dt * c3, w4, tau, tau_ext, consts)
        # b + b is 2.0 * b bit for bit, as rk4's k += k
        q0 += h * (a0 + (b0 + b0) + (c0 + c0) + d0)
        q1 += h * (a1 + (b1 + b1) + (c1 + c1) + d1)
        theta_w += h * (omega_w + (w2 + w2) + (w3 + w3) + w4)
        omega_c += h * (a3 + (b3 + b3) + (c3 + c3) + d3)
        omega_w += h * (a4 + (b4 + b4) + (c4 + c4) + d4)
        n = math.sqrt(q0 * q0 + q1 * q1)
        if n > 0.0:  # q = 0 (or NaN) has no direction; the array path divides it into NaN
            q0, q1 = q0 / n, q1 / n
        out = (q0, q1, theta_w, omega_c, omega_w)
        if not (n > 0.0 and all(map(math.isfinite, out))):
            raise DivergenceError("integration produced a non-finite state", state=np.array(out))
        return out if isinstance(x, tuple) else np.array(out)
    out = rk4(lambda s, k: plant.dynamics_rate(s, tau, dp, fp, model, fidelity, tau_ext, out=k), x, dt)
    out[:2] /= np.sqrt(out[0] * out[0] + out[1] * out[1])
    if not np.isfinite(out).all():
        raise DivergenceError("integration produced a non-finite state", state=out)
    return out


def run(scenario: Scenario) -> TimeSeries:
    """Execute a closed-loop scenario and log every step.

    The mode's regulator is picked once, before the loop.  Each step after
    the first integrates the true plant over the previous one, under the
    torque applied there plus that step's disturbance torque.  Every step
    then rotates the true attitude by the sensor bias to get the measured
    state, evaluates the regulator and the feedback linearization on it,
    saturates, and logs (*x, u, tau_cmd, tau_applied) as one row.  The
    trajectory is a tuple of five Python floats, so the controller and
    rk4_step run on floats.  A SingularityError or DivergenceError carries
    the grid time t[k], the step k and the state at which the run failed.
    """
    sc = scenario
    dp = plant.derive(sc.params, sc.friction, sc.plant_gravity)
    gains = control.gains_for_mode(sc.mode, sc.design, dp)
    # looked up on the module when the run starts, so a wrapper installed there is the one called
    regulator = getattr(control, control.REGULATORS[sc.mode])
    q_bias, q_r = tuple(rotor.from_angle(sc.sensor_bias).tolist()), tuple(sc.q_r.tolist())
    n_steps = int(_steps(sc.t_end, sc.dt))
    tau_ext = disturbance_torque(sc.disturbances, sc.dt, n_steps).tolist()

    t = np.arange(n_steps + 1) * sc.dt
    log = np.empty((n_steps + 1, 8))
    x = tuple(sc.initial.tolist())

    for k in range(n_steps + 1):
        try:
            if k:
                x = rk4_step(x, applied, sc.dt, dp, sc.friction, sc.plant_gravity, sc.fidelity, tau_ext[k - 1])
            q_meas = rotor.product(x[:2], q_bias)
            u = regulator(q_meas + x[2:], q_r, gains)
        except SimulationError as err:
            state = np.array(x) if err.state is None else err.state
            raise type(err)(f"{err} at t = {t[k]:.4f} s", t=float(t[k]), step=k, state=state) from None
        cmd = control.feedback_linearize(u, q_meas, x[4], dp, sc.friction, sc.controller_gravity)
        applied = control.saturate(cmd, sc.tau_max)
        log[k] = (*x, u, cmd, applied)

    log = np.ascontiguousarray(log.T)  # rows q0, q1, theta_w, omega_c, omega_w, u, tau_cmd, tau_applied
    # math.atan2, not np.arctan2: the vectorized one differs in the last bit on some hosts
    angles = (math.degrees(math.atan2(q1, q0)) for q0, q1 in zip(log[0], log[1]))
    theta_c_deg = np.fromiter(angles, float, len(t))
    tau_f = plant.friction_torque(log[4], sc.friction)
    energy = plant.energies(log[:5], dp, sc.plant_gravity)[2]
    return TimeSeries(t, *log[:2], theta_c_deg, *log[2:], tau_f, energy)


def _steps(t: float, dt: float) -> float:
    """t as a number of dt steps, snapped to the nearest whole step when
    within 1e-9 of it (relative), so that t = 9.1 s at dt = 1 ms is 9100.
    A ratio that overflows to +/-inf is passed through: it lies past every grid."""
    steps = t / dt
    if not math.isfinite(steps):
        return steps
    whole = round(steps)
    return float(whole) if abs(whole - steps) <= 1e-9 * abs(steps) else steps


def disturbance_torque(disturbances, dt: float, n_steps: int) -> np.ndarray:
    """The external body torque held over each of n_steps steps of dt.

    A pulse adds torque * overlap / dt to each step it overlaps, so it
    delivers its impulse torque * duration (to rounding) however it falls on
    the grid: a pulse shorter than dt is not dropped, and one split across
    two steps delivers the same total.  Pulse edges are snapped like t_end
    (_steps), so a step that an on-grid pulse covers weighs exactly 1.
    """
    k = np.arange(n_steps, dtype=float)
    tau = np.zeros(n_steps)
    for d in disturbances:
        start, end = _steps(d.start, dt), _steps(d.start + d.duration, dt)
        tau += d.torque * np.clip(np.minimum(k + 1.0, end) - np.maximum(k, start), 0.0, None)
    return tau


def settling_time(t, y, band: float) -> float:
    """Earliest logged time after which |y| stays within the band; inf if
    never, or if nothing was logged."""
    outside = np.nonzero(np.abs(np.asarray(y)) > band)[0]
    after = outside[-1] + 1 if outside.size else 0
    return float(t[after]) if after < len(t) else math.inf


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
) -> list[SteadyStatePoint]:
    """Spin the wheel alone at each torque level until it stops accelerating.

    The structure is held fixed, mirroring a bench identification: only
    omega_w_dot = (tau - tau_f(omega_w)) / I_wG is integrated, in steps of
    dt = 10 ms for at most 200 s per level, and a level is accepted once
    |omega_w_dot| < 1e-6 rad/s^2.  Levels at or below the Coulomb torque never
    spin up and are rejected.
    """
    dt, budget, accel_tol = 1e-2, 200.0, 1e-6
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
