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

Each rate serves one trajectory and many: a stacked state of shape (5, N) (or
(4, N) for the angle form) integrates N trajectories at once, and a (5,)
vector is one column of it.  dynamics_rate computes an array's rows by
ufuncs that write into the rows of out, with no (N,) temporary.  A loop over
one trajectory on Python floats binds the same rates once instead
(float_rates), with every constant read and the gravity and fidelity
branches picked.  Python floats and float64 arrays round alike, and
tests/test_one_path.py holds the two bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

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

    @cached_property
    def _operands(self):
        """(tau_c, b_w, c_d) as dynamics_rate's stacked body takes them (_frozen_0d)."""
        return _frozen_0d(self.tau_c, self.b_w, self.c_d)


FRICTION_FREE = FrictionParams(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from CubliParams and FrictionParams, under no gravity model; see derive()."""

    d: float          # pivot-to-centre distance [m]
    m_c: float        # total mass [kg]
    I_sO: float       # structure inertia about the pivot [kg m^2]
    I_wO: float       # wheel inertia about the pivot [kg m^2]
    I_cO: float       # total inertia about the pivot [kg m^2]
    I_cO_bar: float   # I_cO minus the wheel's own inertia [kg m^2]
    I_wG: float       # wheel inertia about its own centre (copied) [kg m^2]
    mgd: float        # gravity torque scale m_c * g * d [N m]
    omega_1: float    # wheel natural frequency b_w / I_wG [rad/s]
    gamma: float      # inertia ratio I_cO_bar / I_wG
    delta: float      # gravity-to-wheel scale mgd / I_wG [1/s^2]

    @cached_property
    def _operands(self):
        """(I_cO_bar, I_wG, mgd, mgd cos 45 deg) as dynamics_rate's stacked body
        takes them (_frozen_0d)."""
        return _frozen_0d(self.I_cO_bar, self.I_wG, self.mgd, self.mgd * _HALF_SQRT2)


def derive(params: CubliParams, friction: FrictionParams = FrictionParams(), _model=None) -> DerivedParams:
    """Compute the derived inertias, frequencies, and ratios.

    Every derived value must be finite and, but for omega_1 (0 when b_w = 0),
    positive, and the inertia ratio gamma must exceed 10: the reduced wheel
    equation of Fidelity.PAPER_APPROX is only meaningful when the wheel's own
    inertia is a small part of the total.  A third argument (the gravity
    model that perfbench/ still passes) is accepted and ignored.
    """
    d = params.l * math.sqrt(2.0) / 2.0
    m_c = params.m_s + params.m_w
    I_sO = params.I_sG + params.m_s * d * d
    I_wO = params.I_wG + params.m_w * d * d
    I_cO = I_sO + I_wO
    I_cO_bar = I_cO - params.I_wG
    gamma = I_cO_bar / params.I_wG
    if gamma <= 10.0:  # I_cO_bar can round to 0, and pendulum_frequency divides by it
        raise ValidationError(
            f"inertia ratio gamma = {gamma:.3g} is too small (need > 10) for the "
            f"reduced wheel dynamics to be valid"
        )
    mgd = m_c * params.g * d
    dp = DerivedParams(
        d=d,
        m_c=m_c,
        I_sO=I_sO,
        I_wO=I_wO,
        I_cO=I_cO,
        I_cO_bar=I_cO_bar,
        I_wG=params.I_wG,
        mgd=mgd,
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


def pendulum_frequency(dp: DerivedParams, model: GravityModel) -> float:
    """The pendulum natural frequency omega_0 [rad/s] under the gravity model:
    finite, as omega_0^2 <= delta / gamma with gamma > 10, but it can underflow."""
    scale = _HALF_SQRT2 if model is GravityModel.PAPER_LITERAL else 1.0  # mgd * 1.0 is mgd
    omega_0 = math.sqrt(dp.mgd * scale / dp.I_cO_bar)
    if omega_0 == 0.0:
        raise ValidationError("derived omega_0 underflows to 0")
    return omega_0


def state(q, theta_w=0.0, omega_c=0.0, omega_w=0.0) -> np.ndarray:
    """The state vector x = (q0, q1, theta_w, omega_c, omega_w) of orientation q."""
    return np.array([q[0], q[1], theta_w, omega_c, omega_w])


def friction_torque(omega_w, fp: FrictionParams):
    """Coulomb + viscous + quadratic drag torque opposing the wheel velocity.

    sign(0) = 0 by convention so that rest is a fixed point.
    """
    return _friction(omega_w, np.sign, fp.tau_c, fp.b_w, fp.c_d)


def _friction(w, sign, tau_c, b_w, c_d):
    """friction_torque on fp's coefficients given one by one, as
    sim.steady_state_sweep has them."""
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
    shape, the rate is written into it and out is returned.  The rows of out
    are scratch, so out must not overlap x, tau or tau_ext; an out that
    overlaps x raises ValueError.
    """
    if out is None:
        out = np.empty(x.shape)
    elif np.shares_memory(out, x):
        raise ValueError("out overlaps x, and dynamics_rate uses its rows as scratch")
    column = x.ndim == 1  # one trajectory runs as the (5, 1) column it views
    q0, q1, _theta_w, omega_c, omega_w = x[:, None] if column else x
    r0, r1, r2, r3, r4 = out[:, None] if column else out
    tau_c, b_w, c_d = fp._operands
    I_cO_bar, I_wG, mgd, mgd_half_sqrt2 = dp._operands
    # float_rates' operations in its order, each written into a row of out, which goes in
    # positionally (numpy parses that faster than out=)
    np.abs(omega_w, r0)
    np.multiply(b_w, r0, r1)
    np.add(tau_c, r1, r1)
    np.multiply(c_d, r0, r2)
    np.multiply(r2, r0, r2)
    np.add(r1, r2, r1)
    np.sign(omega_w, r0)
    np.multiply(r0, r1, r1)  # tau_f
    if model is GravityModel.PAPER_LITERAL:
        np.multiply(mgd, q0, r2)
    else:
        np.subtract(q0, q1, r2)
        np.multiply(mgd_half_sqrt2, r2, r2)  # the gravity torque
    np.subtract(r1, r2, r3)
    np.subtract(r3, tau, r3)
    np.add(r3, tau_ext, r3)
    np.divide(r3, I_cO_bar, r3)  # omega_c_dot
    np.subtract(tau, r1, r4)
    np.divide(r4, I_wG, r4)
    if fidelity is Fidelity.EXACT:
        np.subtract(r4, r3, r4)  # omega_w_dot
    np.negative(q1, r0)
    np.multiply(r0, omega_c, r0)
    np.multiply(q0, omega_c, r1)
    r2[...] = omega_w
    return out


def _frozen_0d(*values):
    """values as read-only 0-d arrays.  A ufunc takes a 0-d array operand
    without the conversion it makes of a Python float on every call, which
    matters at small N; the values and their rounding are the same."""
    frozen = np.array(values)
    frozen.flags.writeable = False
    return tuple(frozen[i, ...] for i in range(len(values)))


def float_rates(dp: DerivedParams, fp: FrictionParams, model: GravityModel, fidelity: Fidelity):
    """The plant bound once: rates(q0, q1, omega_c, omega_w, tau, tau_ext) ->
    (q0', q1', omega_c', omega_w') on Python floats, theta_w' being omega_w, with
    friction_torque's sign written out (-1.0 * tf keeps np.sign's NaN bits)."""
    I_cO_bar, I_wG, tau_c, b_w, c_d = dp.I_cO_bar, dp.I_wG, fp.tau_c, fp.b_w, fp.c_d
    literal, exact = model is GravityModel.PAPER_LITERAL, fidelity is Fidelity.EXACT
    mgd = dp.mgd if literal else dp.mgd * _HALF_SQRT2  # the gravity torque's first product

    def rates(q0, q1, omega_c, omega_w, tau, tau_ext):
        a = abs(omega_w)
        tf = tau_c + b_w * a + c_d * a * a
        tau_f = tf if omega_w > 0.0 else -1.0 * tf if omega_w < 0.0 else _sign(omega_w) * tf
        omega_c_dot = (tau_f - (mgd * q0 if literal else mgd * (q0 - q1)) - tau + tau_ext) / I_cO_bar
        omega_w_dot = (tau - tau_f) / I_wG
        return -q1 * omega_c, q0 * omega_c, omega_c_dot, omega_w_dot - omega_c_dot if exact else omega_w_dot

    return rates


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
    must agree through the angle codec.  out is as in dynamics_rate, and a
    (4,) state runs as its (4, 1) view, as there.
    """
    column = x.ndim == 1
    theta_c, _theta_w, omega_c, omega_w = x[:, None] if column else x
    if model is GravityModel.PAPER_LITERAL:
        grav = dp.mgd * np.cos(theta_c)
    else:
        grav = dp.mgd * np.cos(theta_c + np.pi / 4.0)
    tau_f = friction_torque(omega_w, fp)
    omega_c_dot = (tau_f - grav - tau + tau_ext) / dp.I_cO_bar
    omega_w_dot = (tau - tau_f) / dp.I_wG
    if fidelity is Fidelity.EXACT:
        omega_w_dot = omega_w_dot - omega_c_dot
    if out is None:
        rate = np.array((omega_c, omega_w, omega_c_dot, omega_w_dot))
        return rate[:, 0] if column else rate
    r = out[:, None] if column else out
    r[0], r[1], r[2], r[3] = omega_c, omega_w, omega_c_dot, omega_w_dot
    return out


def energies(x, dp: DerivedParams, model: GravityModel = GravityModel.CONSISTENT):
    """Kinetic, potential, and total energy of the state (vectorises over (5, N)).

    The wheel term uses the absolute wheel rate omega_c + omega_w.  The
    potential is the one whose negative gradient is the model's gravity
    torque (dynamics_rate): mgd (q0 + q1) sqrt(2)/2 = mgd sin(theta_c + 45 deg),
    which vanishes when the centre of mass is level with the pivot, or
    mgd q1 = mgd sin(theta_c) under PAPER_LITERAL.
    """
    q0, q1, _theta_w, omega_c, omega_w = x
    kinetic = 0.5 * dp.I_cO_bar * omega_c**2 + 0.5 * dp.I_wG * (omega_c + omega_w) ** 2
    potential = dp.mgd * q1 if model is GravityModel.PAPER_LITERAL else dp.mgd * _HALF_SQRT2 * (q0 + q1)
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
