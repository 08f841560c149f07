"""Rigid-body model of an edge-balancing cube driven by a reaction wheel.

Two bodies: a structure pivoting about its resting edge and a wheel spinning
about the structure's centre.  The state vector used throughout is

    x = (q0, q1, theta_w, omega_c, omega_w)

with (q0, q1) the structure orientation on the unit circle, theta_w/omega_w
the wheel angle/velocity relative to the structure, and omega_c the body
angular velocity.  It is the only form of the state: state() builds it from
an orientation, and every function reads its components.  The motor torque
tau acts on the wheel; its reaction shows up with a minus sign in the body
equation.

Each rate expression is written once and serves one trajectory and many: a
stacked state of shape (5, N) (or (4, N) for the angle form) integrates N
trajectories at once, and sim.rk4_step carries a (5,) state as five Python
floats through the same expression (_rates, on the constants that _constants
reads once per step).  Python floats and float64 arrays round alike, so the
two representations agree bit for bit; the one exception is a -NaN wheel
rate, whose NaN rates may differ in sign bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import rotor
from .errors import ValidationError


class GravityModel(Enum):
    """Which gravity-torque row the dynamics use.

    PAPER_LITERAL keeps the torque proportional to q0 = cos(theta_c), which
    places the zero-torque pose at 90 deg.  CONSISTENT uses the gradient of
    the potential energy, cos(theta_c + 45 deg), so the upright 45 deg pose is
    an actual fixed point.  Both are kept for fidelity experiments.
    """

    PAPER_LITERAL = "paper-literal"
    CONSISTENT = "consistent"


class Fidelity(Enum):
    """EXACT keeps the wheel-body acceleration coupling; PAPER_APPROX drops it."""

    EXACT = "exact"
    PAPER_APPROX = "paper-approx"


@dataclass(frozen=True)
class CubliParams:
    """Physical constants of the rig (defaults: the reference desk prototype)."""

    l: float = 0.15          # structure side length [m]
    m_s: float = 0.70        # structure mass [kg]
    m_w: float = 0.15        # wheel mass [kg]
    I_sG: float = 3.75e-3    # structure inertia about its own centre [kg m^2]
    I_wG: float = 1.25e-4    # wheel inertia about its own centre [kg m^2]
    g: float = 9.81          # gravity [m/s^2]

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValidationError(f"{f.name} must be strictly positive and finite")


@dataclass(frozen=True)
class FrictionParams:
    """Motor/aero friction curve coefficients (defaults: identified bench values)."""

    tau_c: float = 2.46e-3   # Coulomb torque [N m]
    b_w: float = 1.06e-5     # viscous coefficient [N m s/rad]
    c_d: float = 1.70e-8     # aerodynamic drag coefficient [N m s^2/rad^2]

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValidationError(f"{f.name} must be nonnegative and finite")


FRICTION_FREE = FrictionParams(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from CubliParams; see derive()."""

    d: float          # pivot-to-centre distance [m]
    m_c: float        # total mass [kg]
    I_sO: float       # structure inertia about the pivot [kg m^2]
    I_wO: float       # wheel inertia about the pivot [kg m^2]
    I_cO: float       # total inertia about the pivot [kg m^2]
    I_cO_bar: float   # I_cO minus the wheel's own inertia [kg m^2]
    I_wG: float       # wheel inertia about its own centre (copied) [kg m^2]
    mgd: float        # gravity torque scale m_c * g * d [N m]
    omega_0: float    # pendulum natural frequency, per derive's gravity model [rad/s]
    omega_1: float    # wheel natural frequency b_w / I_wG [rad/s]
    gamma: float      # inertia ratio I_cO_bar / I_wG
    delta: float      # gravity-to-wheel scale mgd / I_wG [1/s^2]


def derive(
    params: CubliParams,
    friction: FrictionParams = FrictionParams(),
    model: GravityModel = GravityModel.CONSISTENT,
) -> DerivedParams:
    """Compute the derived inertias, frequencies, and ratios.

    Every derived value must be finite and, but for omega_1 (0 when b_w = 0),
    positive, and the inertia ratio gamma must exceed 10: the reduced wheel
    equation of Fidelity.PAPER_APPROX is only meaningful when the wheel's own
    inertia is a small part of the total.
    """
    d = params.l * math.sqrt(2.0) / 2.0
    m_c = params.m_s + params.m_w
    I_sO = params.I_sG + params.m_s * d * d
    I_wO = params.I_wG + params.m_w * d * d
    I_cO = I_sO + I_wO
    I_cO_bar = I_cO - params.I_wG
    gamma = I_cO_bar / params.I_wG
    if gamma <= 10.0:  # before omega_0 divides by I_cO_bar, which can round to 0
        raise ValidationError(
            f"inertia ratio gamma = {gamma:.3g} is too small (need > 10) for the "
            f"reduced wheel dynamics to be valid"
        )
    mgd = m_c * params.g * d
    if model is GravityModel.PAPER_LITERAL:
        omega_0 = math.sqrt(mgd * (math.sqrt(2.0) / 2.0) / I_cO_bar)
    else:
        omega_0 = math.sqrt(mgd / I_cO_bar)
    dp = DerivedParams(
        d=d,
        m_c=m_c,
        I_sO=I_sO,
        I_wO=I_wO,
        I_cO=I_cO,
        I_cO_bar=I_cO_bar,
        I_wG=params.I_wG,
        mgd=mgd,
        omega_0=omega_0,
        omega_1=friction.b_w / params.I_wG,
        gamma=gamma,
        delta=mgd / params.I_wG,
    )
    for f in fields(dp):  # positive finite parameters can still overflow, or underflow to 0
        value = getattr(dp, f.name)
        if not math.isfinite(value):
            raise ValidationError(f"derived {f.name} overflows")
        if value == 0.0 and f.name != "omega_1":
            raise ValidationError(f"derived {f.name} underflows to 0")
    return dp


def state(q, theta_w=0.0, omega_c=0.0, omega_w=0.0) -> np.ndarray:
    """The state vector x = (q0, q1, theta_w, omega_c, omega_w) of orientation q."""
    return np.array([q[0], q[1], theta_w, omega_c, omega_w])


def friction_torque(omega_w, fp: FrictionParams):
    """Coulomb + viscous + quadratic drag torque opposing the wheel velocity.

    sign(0) = 0 by convention so that rest is a fixed point.  One float
    (np.float64 included) takes the float sign below, anything else np.sign;
    the two agree bit for bit, so the expression is written once (_friction).
    """
    return _friction(omega_w, _sign if isinstance(omega_w, float) else np.sign, fp.tau_c, fp.b_w, fp.c_d)


def _friction(w, sign, tau_c, b_w, c_d):
    """friction_torque on fp's coefficients given one by one, as _rates has them."""
    a = abs(w)
    return sign(w) * (tau_c + b_w * a + c_d * a * a)


def _sign(w: float) -> float:
    """np.sign of one float: +0.0 for either zero, and NaN stays NaN."""
    if w > 0.0:
        return 1.0
    if w < 0.0:
        return -1.0
    return 0.0 if w == 0.0 else w


_HALF_SQRT2 = math.sqrt(2.0) / 2.0  # cos 45 deg


def _gravity(q0, q1, mgd: float, literal: bool):
    """Gravity torque about the pivot for orientation (q0, q1), under the
    PAPER_LITERAL model if literal, else the CONSISTENT one.  Private, like
    _friction, so that the benchmark's traced run does not wrap a function
    that runs four times per integration step."""
    if literal:
        return mgd * q0
    return mgd * _HALF_SQRT2 * (q0 - q1)


def dynamics_rate(
    x,
    tau,
    dp: DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
    out=None,
) -> np.ndarray:
    """Time derivative of the state vector under motor torque tau.

    tau_ext is an additional external torque applied directly to the body
    (disturbance channel).  EXACT fidelity integrates the wheel's relative
    acceleration; PAPER_APPROX drops the -omega_c_dot coupling term, which is
    the structure the controller design assumes.  Given out, an array of x's
    shape, the rate is written into it and out is returned.
    """
    one = x.ndim == 1
    q0, q1, _theta_w, omega_c, omega_w = x.tolist() if one else x
    consts = _constants(dp, fp, model, fidelity, _sign if one else np.sign)
    dq0, dq1, omega_c_dot, omega_w_dot = _rates(q0, q1, omega_c, omega_w, tau, tau_ext, consts)
    return _rows((dq0, dq1, omega_w, omega_c_dot, omega_w_dot), out)


def _rows(rows, out):
    """The rate rows as a new array, or written into out, which is returned."""
    if out is None:
        return np.array(rows)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _constants(dp: DerivedParams, fp: FrictionParams, model: GravityModel, fidelity: Fidelity, sign=_sign):
    """The plant's constants as _rates reads them, with the gravity and
    fidelity branches picked; sign is _sign for Python floats, else np.sign."""
    literal, exact = model is GravityModel.PAPER_LITERAL, fidelity is Fidelity.EXACT
    return dp.I_cO_bar, dp.I_wG, dp.mgd, literal, exact, sign, fp.tau_c, fp.b_w, fp.c_d


def _rates(q0, q1, omega_c, omega_w, tau, tau_ext, consts):
    """(q0', q1', omega_c', omega_w') under the plant's constants consts (see
    _constants); theta_w' is omega_w.  The arguments are Python floats for
    one trajectory, which sim.rk4_step steps on four such calls, or the (N,)
    rows of a stacked state, which dynamics_rate returns."""
    I_cO_bar, I_wG, mgd, literal, exact, sign, tau_c, b_w, c_d = consts
    tau_f = _friction(omega_w, sign, tau_c, b_w, c_d)
    omega_c_dot = (tau_f - _gravity(q0, q1, mgd, literal) - tau + tau_ext) / I_cO_bar
    omega_w_dot = (tau - tau_f) / I_wG
    if exact:
        omega_w_dot = omega_w_dot - omega_c_dot
    return -q1 * omega_c, q0 * omega_c, omega_c_dot, omega_w_dot


def angle_dynamics_rate(
    x,
    tau,
    dp: DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
    out=None,
) -> np.ndarray:
    """Angle-coordinate twin of dynamics_rate on x = (theta_c, theta_w, omega_c, omega_w).

    Kept as an independent cross-check of the unit-circle formulation: the two
    must agree through the angle codec.  out is as in dynamics_rate.
    """
    theta_c, _theta_w, omega_c, omega_w = x
    if model is GravityModel.PAPER_LITERAL:
        grav = dp.mgd * np.cos(theta_c)
    else:
        grav = dp.mgd * np.cos(theta_c + np.pi / 4.0)
    tau_f = friction_torque(omega_w, fp)
    omega_c_dot = (tau_f - grav - tau + tau_ext) / dp.I_cO_bar
    omega_w_dot = (tau - tau_f) / dp.I_wG
    if fidelity is Fidelity.EXACT:
        omega_w_dot = omega_w_dot - omega_c_dot
    return _rows((omega_c, omega_w, omega_c_dot, omega_w_dot), out)


def energies(x, dp: DerivedParams, model: GravityModel = GravityModel.CONSISTENT):
    """Kinetic, potential, and total energy of the state (vectorises over (5, N)).

    The wheel term uses the absolute wheel rate omega_c + omega_w.  The
    potential is the one whose negative gradient is the model's gravity
    torque (_gravity): mgd sin(theta_c + 45 deg), which vanishes when the
    centre of mass is level with the pivot, or mgd q1 = mgd sin(theta_c)
    under PAPER_LITERAL.
    """
    q0, q1, _theta_w, omega_c, omega_w = x
    kinetic = 0.5 * dp.I_cO_bar * omega_c**2 + 0.5 * dp.I_wG * (omega_c + omega_w) ** 2
    if model is GravityModel.PAPER_LITERAL:
        potential = dp.mgd * q1
    else:
        potential = dp.mgd * np.sin(rotor.to_angle((q0, q1)) + np.pi / 4.0)
    return kinetic, potential, kinetic + potential


def linearize(dp: DerivedParams, fp: FrictionParams, model: GravityModel = GravityModel.CONSISTENT):
    """Linearized dynamics (A, B) about the upright rest pose.

    State order (q0, q1, theta_w, omega_c, omega_w).  Only the viscous friction
    term survives linearization: Coulomb is non-differentiable and drag is
    second order at omega_w = 0.
    """
    q_u = rotor.UPRIGHT
    if model is GravityModel.PAPER_LITERAL:
        grav_row = np.array([1.0, 0.0])
    else:
        grav_row = np.array([np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0])
    a = np.zeros((5, 5))
    a[0, 3] = -q_u[1]
    a[1, 3] = q_u[0]
    a[2, 4] = 1.0
    a[3, 0:2] = -(dp.mgd / dp.I_cO_bar) * grav_row
    a[3, 4] = fp.b_w / dp.I_cO_bar
    a[4, 4] = -fp.b_w / dp.I_wG
    b = np.array([[0.0], [0.0], [0.0], [-1.0 / dp.I_cO_bar], [1.0 / dp.I_wG]])
    return a, b
