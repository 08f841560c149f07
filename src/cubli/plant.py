"""Rigid-body model of an edge-balancing cube driven by a reaction wheel.

Two bodies: a structure pivoting about its resting edge and a wheel spinning
about the structure's centre.  The state vector used throughout is

    x = (q0, q1, theta_w, omega_c, omega_w)

with (q0, q1) the structure orientation on the unit circle, theta_w/omega_w
the wheel angle/velocity relative to the structure, and omega_c the body
angular velocity.  The motor torque tau acts on the wheel; its reaction shows
up with a minus sign in the body equation.

All rate functions broadcast: a stacked state of shape (5, N) (or (4, N) for
the angle form) integrates N trajectories at once.
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
    omega_0: float    # pendulum natural frequency, per gravity_model [rad/s]
    omega_1: float    # wheel natural frequency b_w / I_wG [rad/s]
    gamma: float      # inertia ratio I_cO_bar / I_wG
    delta: float      # gravity-to-wheel scale mgd / I_wG [1/s^2]
    gravity_model: GravityModel


def derive(
    params: CubliParams,
    friction: FrictionParams = FrictionParams(),
    model: GravityModel = GravityModel.CONSISTENT,
) -> DerivedParams:
    """Compute the derived inertias, frequencies, and ratios.

    The body/wheel inertia ratio gamma must exceed 10: the reduced wheel
    equation offered by Fidelity.PAPER_APPROX is only meaningful when the
    wheel's own inertia is a small perturbation of the total.
    """
    d = params.l * np.sqrt(2.0) / 2.0
    m_c = params.m_s + params.m_w
    I_sO = params.I_sG + params.m_s * d * d
    I_wO = params.I_wG + params.m_w * d * d
    I_cO = I_sO + I_wO
    I_cO_bar = I_cO - params.I_wG
    gamma = I_cO_bar / params.I_wG
    if gamma <= 10.0:
        raise ValidationError(
            f"inertia ratio gamma = {gamma:.3g} is too small (need > 10) for the "
            f"reduced wheel dynamics to be valid"
        )
    mgd = m_c * params.g * d
    if model is GravityModel.PAPER_LITERAL:
        omega_0 = np.sqrt(mgd * (np.sqrt(2.0) / 2.0) / I_cO_bar)
    else:
        omega_0 = np.sqrt(mgd / I_cO_bar)
    return DerivedParams(
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
        gravity_model=model,
    )


@dataclass
class State:
    """Full plant state: orientation plus wheel angle and the two velocities."""

    q: np.ndarray
    theta_w: float = 0.0
    omega_c: float = 0.0
    omega_w: float = 0.0

    @classmethod
    def from_angle(cls, theta_c, theta_w=0.0, omega_c=0.0, omega_w=0.0) -> "State":
        return cls(rotor.from_angle(theta_c), theta_w, omega_c, omega_w)

    def as_array(self) -> np.ndarray:
        return np.array([self.q[0], self.q[1], self.theta_w, self.omega_c, self.omega_w])


def friction_torque(omega_w, fp: FrictionParams):
    """Coulomb + viscous + quadratic drag torque opposing the wheel velocity.

    sign(0) = 0 by convention so that rest is a fixed point.
    """
    a = np.abs(omega_w)
    return np.sign(omega_w) * (fp.tau_c + fp.b_w * a + fp.c_d * a * a)


_HALF_SQRT2 = np.sqrt(2.0) / 2.0  # cos 45 deg


def _gravity(q0, q1, dp: DerivedParams, model: GravityModel):
    """Gravity torque about the pivot for orientation (q0, q1), per the chosen model.

    Private, so that the benchmark's traced run does not wrap it: the rate
    functions call it four times per integration step.
    """
    if model is GravityModel.PAPER_LITERAL:
        return dp.mgd * q0
    return dp.mgd * _HALF_SQRT2 * (q0 - q1)


def dynamics_rate(
    x,
    tau,
    dp: DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
) -> np.ndarray:
    """Time derivative of the state vector under motor torque tau.

    tau_ext is an additional external torque applied directly to the body
    (disturbance channel).  EXACT fidelity integrates the wheel's relative
    acceleration; PAPER_APPROX drops the -omega_c_dot coupling term, which is
    the structure the controller design assumes.
    """
    q0, q1, _theta_w, omega_c, omega_w = x
    tau_f = friction_torque(omega_w, fp)
    omega_c_dot = (tau_f - _gravity(q0, q1, dp, model) - tau + tau_ext) / dp.I_cO_bar
    omega_w_dot = (tau - tau_f) / dp.I_wG
    if fidelity is Fidelity.EXACT:
        omega_w_dot = omega_w_dot - omega_c_dot
    return np.array([-q1 * omega_c, q0 * omega_c, omega_w, omega_c_dot, omega_w_dot])


def angle_dynamics_rate(
    x,
    tau,
    dp: DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
    fidelity: Fidelity = Fidelity.EXACT,
    tau_ext=0.0,
) -> np.ndarray:
    """Angle-coordinate twin of dynamics_rate on x = (theta_c, theta_w, omega_c, omega_w).

    Kept as an independent cross-check of the unit-circle formulation: the two
    must agree through the angle codec.
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
    return np.array([omega_c, omega_w, omega_c_dot, omega_w_dot])


def energies(x, dp: DerivedParams):
    """Kinetic, potential, and total energy of the state (vectorises over (5, N)).

    The wheel term uses the absolute wheel rate omega_c + omega_w; the
    potential is measured so that it vanishes when the centre of mass is level
    with the pivot.
    """
    q0, q1, _theta_w, omega_c, omega_w = x
    kinetic = 0.5 * dp.I_cO_bar * omega_c**2 + 0.5 * dp.I_wG * (omega_c + omega_w) ** 2
    potential = dp.mgd * np.sin(np.arctan2(q1, q0) + np.pi / 4.0)
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
