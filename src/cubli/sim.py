"""Fixed-step closed-loop simulation of one experiment, a Scenario, and the
friction-identification experiment.

The controller runs at every integration step (control rate = 1/dt) with the
torque held constant over the step.  Scenarios own their state exclusively, so
independent runs can execute in parallel.

A trajectory's representation is picked by the caller that loops.  rk4_step
steps an array, a stacked (5, N) state or a (5,) one, through rk4's in-place
step.  A loop over one trajectory carries it as five Python floats instead,
through the step float_stepper binds once, which skips numpy's per-call cost
at N = 1; both round alike, so they agree bit for bit.  A scenario's initial
state is the (5,) vector of plant.state; run carries its trajectory as the
tuple and binds the step and the controller (control.controller) once, on
the plant and gains its Scenario derived (dp, gains), with every branch
picked before the first step.

run logs into an anonymous shared mapping, which a process forked in its
progress hook reads as the rows are logged: the CSV writer of
csvlog.run_writing.

forked is the one place that forks, kills and reaps: it runs one iterable in a
forked child and hands its items back as the child reports them.  side_by_side
is the one rule for side-by-side work on it: it deals independent units
round-robin into one chunk per usable core and runs each chunk in a forked
child, with the results and the error of a serial loop.  steady_state_sweep
runs its levels through it, verify.run its checks and oracle_equivalence its
two halves.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
from dataclasses import dataclass, field, fields

import numpy as np

from . import control, plant, rotor
from .control import DesignSpec, Mode
from .errors import CubliError, DivergenceError, IdentificationError, SimulationError, ValidationError
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
    A cli.Config builds one, once; cli.Config().scenario is the reference
    experiment.  A scenario that constructs is one that runs: its plant derives,
    once, into dp, and its mode's gains into gains, finite (control.gains_for_mode),
    for every consumer to read; dataclasses.replace varies it and derives them again.

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
    dp: plant.DerivedParams = field(init=False, repr=False, compare=False)
    gains: control.Gains = field(init=False, repr=False, compare=False)

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
        self.dp = plant.derive(self.params, self.friction)
        self.gains = control.gains_for_mode(self.mode, self.design, self.dp)


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
    """One RK4 step of the plant with tau held constant (zero-order hold), on
    a stacked (5, N) state or a (5,) one, whose result is new.

    A column stepped alone equals its stacked twin bit for bit.  The
    orientation is renormalized onto the unit circle afterwards; the
    renormalization changes neither the decoded angle nor the energy.
    """
    tau, tau_ext = np.asarray(tau, float), np.asarray(tau_ext, float)  # a 0-d operand is the faster one
    out = rk4(lambda s, k: plant.dynamics_rate(s, tau, dp, fp, model, fidelity, tau_ext, k), x, dt)
    out[:2] /= np.sqrt(out[0] * out[0] + out[1] * out[1])
    if not np.isfinite(out).all():
        raise DivergenceError("integration produced a non-finite state", state=out)
    return out


def float_stepper(dp: plant.DerivedParams, fp: FrictionParams, model: GravityModel, fidelity: Fidelity, dt: float):
    """rk4_step of one trajectory bound once to the plant and dt: step(x, tau,
    tau_ext) maps five Python floats to a tuple of them, summing as rk4 does (a
    weight 2.0 * k is k + k bit for bit, 1.0 * k is k), one stage per pass."""
    rates, sixth = plant.float_rates(dp, fp, model, fidelity), dt / 6.0
    stages = ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0))  # each stage's step from the last k, and its weight

    def step(x, tau, tau_ext):
        q0, q1, theta_w, omega_c, omega_w = x
        k0, k1, k3, k4 = rates(q0, q1, omega_c, omega_w, tau, tau_ext)
        s0, s1, s2, s3, s4 = k0, k1, omega_w, k3, k4  # rk4's acc, k1 so far
        for h, weight in stages:
            k2 = omega_w + h * k4
            k0, k1, k3, k4 = rates(q0 + h * k0, q1 + h * k1, omega_c + h * k3, k2, tau, tau_ext)
            s0, s1, s2 = s0 + weight * k0, s1 + weight * k1, s2 + weight * k2
            s3, s4 = s3 + weight * k3, s4 + weight * k4
        q0, q1 = q0 + sixth * s0, q1 + sixth * s1
        n = math.sqrt(q0 * q0 + q1 * q1)
        if n > 0.0:  # q = 0 (or NaN) has no direction
            q0, q1 = q0 / n, q1 / n
        out = (q0, q1, theta_w + sixth * s2, omega_c + sixth * s3, omega_w + sixth * s4)
        if not (n > 0.0 and all(map(math.isfinite, out))):
            state = np.array(out)
            if not n > 0.0:  # divided into NaN, in rk4_step's bits
                with np.errstate(divide="ignore", invalid="ignore"):
                    state[:2] /= n
            raise DivergenceError("integration produced a non-finite state", state=state)
        return out

    return step


def run(scenario: Scenario, progress=None, every=None) -> TimeSeries:
    """Execute a closed-loop scenario and log every step.

    The mode's regulator is picked, and the step and the control sample are
    bound, once, before the loop.  Each step after the first integrates the
    true plant over the previous one, under the torque applied there plus that
    step's disturbance torque.  Every step then takes the control sample on
    the scenario's dp and gains (measure through the sensor bias, regulate,
    linearize, saturate) and logs one row (*x, u, tau_cmd, tau_applied); x is
    a tuple of five Python floats, so both run on floats.  A SingularityError or DivergenceError carries
    the grid time t[k], the step k and the state at which the run failed.

    The log is an anonymous shared mapping, the (8, steps + 1) array of q0,
    q1, theta_w, omega_c, omega_w, u, tau_cmd and tau_applied, whose rows the
    TimeSeries views (time_series).  progress, if given with a row count
    every, is called as progress(log, rows) before the first step, with
    rows = 0, and after every `every` rows and the last, with the rows logged
    so far: a process it forks reads the rows as they are logged.
    """
    sc = scenario
    # looked up on the module when the run starts, so a wrapper installed there is the one called
    regulator = getattr(control, control.REGULATORS[sc.mode])
    q_bias, q_r = tuple(rotor.from_angle(sc.sensor_bias).tolist()), tuple(sc.q_r.tolist())
    sample = control.controller(q_bias, q_r, regulator, sc.gains, sc.dp, sc.friction, sc.controller_gravity, sc.tau_max)
    step = float_stepper(sc.dp, sc.friction, sc.plant_gravity, sc.fidelity, sc.dt)
    rows = int(_steps(sc.t_end, sc.dt)) + 1
    try:
        tau_ext = disturbance_torque(sc.disturbances, sc.dt, rows - 1).tolist()
        import mmap  # imported here, since importing it costs every command

        log = np.frombuffer(mmap.mmap(-1, 8 * 8 * rows), float).reshape(8, rows)
    except (MemoryError, OSError):  # a grid within the 2**53 rule can still be more than memory holds (mmap: ENOMEM)
        steps = f"t_end = {sc.t_end!r} s is {rows - 1} steps of dt = {sc.dt!r} s"
        raise ValidationError(f"{steps}, too many to allocate") from None
    x = tuple(sc.initial.tolist())
    columns = log.T  # its row k is step k's column of log
    if progress:
        progress(log, 0)

    block = every if progress else rows
    for lo in range(0, rows, block):
        for k in range(lo, min(lo + block, rows)):
            try:
                if k:
                    x = step(x, applied, tau_ext[k - 1])
                u, cmd, applied = sample(x)
            except SimulationError as err:
                state = np.array(x) if err.state is None else err.state
                raise type(err)(f"{err} at t = {k * sc.dt:.4f} s", t=k * sc.dt, step=k, state=state) from None
            columns[k] = (*x, u, cmd, applied)
        if progress:
            progress(log, k + 1)
    return time_series(sc, log)


def time_series(sc: Scenario, log: np.ndarray, first: int = 0) -> TimeSeries:
    """The TimeSeries of rows first, first + 1, ... of a run of sc, whose
    logged columns are those of log, the (8, rows) array run logs them into,
    or a block of its columns; the series views log's rows, and its t and
    derived columns are computed elementwise, so a block's bits are the
    whole run's."""
    t = np.arange(first, first + log.shape[1]) * sc.dt
    # math.atan2, not np.arctan2: the vectorized one differs in the last bit on some hosts
    angles = (math.degrees(math.atan2(q1, q0)) for q0, q1 in zip(log[0], log[1]))
    theta_c_deg = np.fromiter(angles, float, len(t))
    tau_f = plant.friction_torque(log[4], sc.friction)
    energy = plant.energies(log[:5], sc.dp, sc.plant_gravity)[2]
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


def settling(ts: TimeSeries, q_r, start: float, end: float) -> tuple[float, float, float] | None:
    """(attitude_s, wheel_s, peak_wheel) over the logged window start <= t < end,
    or None if it logs nothing.  Each time is the earliest logged one after which
    the quantity stays settled, inf if never: the attitude within 0.5 deg of q_r,
    measured on the controller's error (rotor.orientation_error), so 405 deg
    settles as 45 deg does; the wheel within 2% of the window's peak |omega_w|."""
    window = (ts.t >= start) & (ts.t < end)
    if not window.any():
        return None
    t, wheel = ts.t[window], np.abs(ts.omega_w[window])
    error = np.degrees(rotor.to_angle(rotor.orientation_error((ts.q0[window], ts.q1[window]), q_r)))
    peak = float(np.max(wheel))

    def settled_from(outside):
        after = np.flatnonzero(outside)[-1] + 1 if outside.any() else 0
        return float(t[after]) if after < len(t) else math.inf

    return settled_from(np.abs(error) > 0.5), settled_from(wheel > 0.02 * peak), peak


_in_child = False  # True in a forked child, whose own children stay in its process group
_reports = set()  # the report pipe ends this process holds, which a child it forks closes


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask, else the cpu count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def forked(items):
    """Run items() in a forked child and yield an iterator over its items,
    each once the child has reported it; or fork nothing and yield None where
    os.fork is missing or fails (no process to be had).

    The child leads a process group unless it is a child's child, and closes
    every report pipe end it inherited, so its report pipe closes when it
    ends, whatever its own children still run.  It pickles one (ok, item or
    exception) per item and stops at its first exception, which the iterator
    raises here; a child that ends before reporting an item raises a
    CubliError there.  When the block ends, raises or is interrupted, the
    child's group is killed and the child reaped.  This is the one function
    that forks, kills and reaps.
    """
    global _in_child
    read, write = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork, or no process to be had (EAGAIN, ENOMEM)
        os.close(read)
        os.close(write)
        yield None
        return
    if pid == 0:  # the child, which returns to no caller
        code = 1
        try:
            for fd in (read, *_reports):
                os.close(fd)
            _reports.clear()
            _reports.add(write)
            if not _in_child:
                os.setpgid(0, 0)
            _in_child = True
            with open(write, "wb") as out:
                try:
                    for item in items():
                        out.write(pickle.dumps((True, item)))
                        out.flush()
                except BaseException as exc:
                    out.write(pickle.dumps((False, exc)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    _reports.add(read)
    src, status = open(read, "rb"), None

    def reported():
        nonlocal status
        while True:
            try:
                ok, value = pickle.load(src)
            except (EOFError, pickle.UnpicklingError):  # the child ended before reporting this item
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise CubliError(f"forked process ended without a result (exit status {status})") from None
            if not ok:
                raise value
            yield value

    try:
        yield reported()
    finally:
        from signal import SIGKILL  # imported here, since importing signal costs every command about 1 ms

        try:  # a group outlives its reaped leader while a process is left in it
            os.killpg(pid, SIGKILL)
        except ProcessLookupError:  # no group: a child's child, or a child that has not made its group yet
            if status is None:
                os.kill(pid, SIGKILL)
        _reports.discard(read)
        src.close()
        if status is None:
            os.waitpid(pid, 0)


def side_by_side(fn, units):
    """Yield fn(unit) for each unit, in unit order, with the exception a serial
    loop would raise at the first unit that fails.

    The units are dealt round-robin into one chunk per usable core, and never
    more chunks than units.  With two chunks or more, each runs in a forked
    child (forked), which stops at its first exception; this process only
    joins, and yields each result once its chunk has reported it.  A child
    that ends early raises a CubliError at the turn of the first unit it did
    not report.  Every child still running when the generator ends, raises or
    is closed is killed and reaped.  One chunk, or a chunk whose fork is
    missing or fails, runs here, each unit at its turn.
    """
    units = list(units)
    n = min(len(units), usable_cores())
    with contextlib.ExitStack() as stack:
        chunks = [units[c::n] for c in range(n)]
        reports = [stack.enter_context(forked(functools.partial(map, fn, chunk))) if n > 1 else None for chunk in chunks]
        results = [report or map(fn, chunk) for report, chunk in zip(reports, chunks)]
        for i in range(len(units)):
            yield next(results[i % n])


def steady_state_sweep(
    tau_levels,
    params: CubliParams = CubliParams(),
    fp: FrictionParams = FrictionParams(),
) -> np.ndarray:
    """Spin the wheel alone at each torque level until it stops accelerating,
    and return the steady wheel speeds, one per level.

    The structure is held fixed, mirroring a bench identification: only
    omega_w_dot = (tau - tau_f(omega_w)) / I_wG is integrated by RK4, in
    steps of dt = 10 ms for at most 200 s per level, and a level is accepted
    once |omega_w_dot| < 1e-6 rad/s^2.  A non-finite level, and one at or
    below the Coulomb torque (it never spins up), is rejected; so is a level
    whose wheel speed turns non-finite, at the step where it does, and one
    whose step stalls, at that step: a step that leaves omega_w unchanged
    while |omega_w_dot| is above the tolerance is a fixed point of the RK4
    map, not of the wheel (stiff friction, where the stages cancel to below
    half an ulp of omega_w), and the map would stay there to the budget.

    Each stage at omega_w > 0 is plant.friction_torque's expression written
    out, in the same IEEE operations; any other stage point (the start at
    rest, a swing below zero, a negative level) goes through plant._friction.

    The levels run side by side (side_by_side), with the speeds and the
    error (the lowest failing level's) of one serial loop.
    """
    dt, budget, accel_tol = 1e-2, 200.0, 1e-6
    half, sixth, inv_iwg = 0.5 * dt, dt / 6.0, 1.0 / params.I_wG
    tc, bw, cd = fp.tau_c, fp.b_w, fp.c_d
    max_steps = int(round(budget / dt))

    def accel(w: float, tau: float) -> float:  # a stage off the fast path (omega_w <= 0 or NaN)
        return (tau - plant._friction(w, plant._sign, tc, bw, cd)) * inv_iwg

    def sweep(tau) -> float:
        tau = float(tau)
        if not math.isfinite(tau):
            raise IdentificationError(f"input torque {tau} N m is not finite")
        if abs(tau) <= tc:
            raise IdentificationError(f"input torque {tau:.3e} N m cannot overcome Coulomb friction {tc:.3e} N m")
        w = 0.0
        for step in range(1, max_steps + 1):
            k1 = (tau - (tc + bw * w + cd * w * w)) * inv_iwg if w > 0.0 else accel(w, tau)
            if abs(k1) < accel_tol:
                return w
            s = w + half * k1
            k2 = (tau - (tc + bw * s + cd * s * s)) * inv_iwg if s > 0.0 else accel(s, tau)
            s = w + half * k2
            k3 = (tau - (tc + bw * s + cd * s * s)) * inv_iwg if s > 0.0 else accel(s, tau)
            s = w + dt * k3
            k4 = (tau - (tc + bw * s + cd * s * s)) * inv_iwg if s > 0.0 else accel(s, tau)
            w_next = w + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if w_next == w:  # stalled: the RK4 map is deterministic, so it stays here to the budget
                raise IdentificationError(
                    f"wheel did not reach steady state within {budget:.0f} s at tau = {tau:.3e} N m: omega_w = {w!r}"
                    f" rad/s is a fixed point of the {dt * 1e3:.0f} ms RK4 step, not of the wheel"
                    f" (|omega_w_dot| = {abs(k1):.3e} rad/s^2)"
                )
            w = w_next
            if not math.isfinite(w):
                raise IdentificationError(
                    f"wheel speed diverged to {w} rad/s at step {step} (t = {step * dt:.2f} s) at tau = {tau:.3e} N m"
                )
        raise IdentificationError(f"wheel did not reach steady state within {budget:.0f} s at tau = {tau:.3e} N m")

    return np.array(list(side_by_side(sweep, tau_levels)), dtype=float)


def fit_friction(taus, omegas) -> tuple[FrictionParams, float]:
    """Least-squares friction coefficients from steady-state samples: the input
    torques taus and the wheel speeds omegas they balance, 1-D and of one length.
    Returns the fitted FrictionParams and the residual rms [N m].

    Solves |tau| = tau_c + b_w |omega| + c_d omega^2 over regressors
    [1, |omega|, omega^2]; coefficients are clipped at zero (each term is a
    dissipation and cannot be negative).  Needs at least three samples at
    distinct nonzero speeds, otherwise the regressor matrix is rank deficient.
    """
    torques, speeds = np.abs(np.asarray(taus, dtype=float)), np.abs(np.asarray(omegas, dtype=float))
    if torques.ndim != 1 or torques.shape != speeds.shape:
        raise IdentificationError(f"need 1-D taus and omegas of one length, got {torques.shape} and {speeds.shape}")
    if len(set(np.round(speeds, 12))) < 3 or np.any(speeds == 0.0):
        raise IdentificationError("need at least 3 samples at distinct nonzero wheel speeds")
    regressors = np.column_stack([np.ones_like(speeds), speeds, speeds**2])
    if np.linalg.matrix_rank(regressors) < 3:
        raise IdentificationError("regressor matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(regressors, torques, rcond=None)
    coef = np.clip(coef, 0.0, None)
    residual = torques - regressors @ coef
    fitted = FrictionParams(tau_c=float(coef[0]), b_w=float(coef[1]), c_d=float(coef[2]))
    return fitted, float(np.sqrt(np.mean(residual**2)))
