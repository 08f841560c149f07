"""Nonlinear state regulators, feedback linearization, and gain synthesis.

The regulators output a commanded body angular acceleration u [rad/s^2]; the
feedback-linearization stage converts u into a motor torque that cancels
gravity and wheel friction, so the attitude channel behaves as a double
integrator.  Gains are synthesized by matching the closed-loop characteristic
polynomial against a target factorization with damping ratio zeta, natural
frequency omega_n, and wheel-pole scaling alpha.

The three laws share one signature, (x, q_r, gains), and each is one
expression in the components of the state vector x = (q0, q1, theta_w,
omega_c, omega_w).  Given x and q_r as tuples of Python floats, as sim.run
passes them, a law computes on floats; given arrays, on numpy values.  The
closed loop's one control sample (measure, regulate, linearize, clamp) is the
closure that controller binds once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import rotor
from .errors import ValidationError
from .plant import _HALF_SQRT2, DerivedParams, FrictionParams, GravityModel, _sign, friction_torque


class Mode(Enum):
    ATTITUDE_ONLY = "attitude-only"
    ATTITUDE_AND_WHEEL = "attitude-and-wheel"
    SMALL_ANGLE = "small-angle"


@dataclass(frozen=True)
class DesignSpec:
    """Closed-loop targets: two complex poles (zeta, omega_n) and a repeated
    real wheel pole at -alpha*zeta*omega_n."""

    zeta: float
    omega_n: float
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.zeta <= 1.0:
            raise ValidationError("zeta must be in (0, 1]")
        if not 0.0 < self.omega_n < math.inf:
            raise ValidationError("omega_n must be positive and finite")
        if not 0.0 <= self.alpha < math.inf:
            raise ValidationError("alpha must be nonnegative and finite")


@dataclass(frozen=True)
class Gains:
    k_p: float           # attitude proportional [1/s^2]
    k_d: float           # attitude derivative [1/s]
    k_pw: float = 0.0    # wheel-angle feedback [1/(s^2 rad)]
    k_dw: float = 0.0    # wheel-velocity feedback [1/s]


def full_gains(spec: DesignSpec, dp: DerivedParams) -> Gains:
    """Gains for the attitude-and-wheel regulator from the design targets.

    Matching the fourth-order closed-loop characteristic polynomial
    coefficient by coefficient against
    (s^2 + 2 zeta wn s + wn^2)(s + alpha zeta wn)^2 gives the wheel gains
    directly and folds gamma-scaled copies of them into the attitude gains.
    With alpha = 0 the wheel gains vanish and (k_p, k_d) = (wn^2, 2 zeta wn)
    exactly: the attitude-only law.
    """
    z, wn, a = spec.zeta, spec.omega_n, spec.alpha
    try:  # a float power raises OverflowError; a float product goes to inf
        k_pw = a**2 * z**2 * wn**4 / dp.delta
        k_dw = 2.0 * a * z * wn**3 * (1.0 + a * z**2) / dp.delta
        k_p = wn**2 * (1.0 + a * z**2 * (4.0 + a)) + dp.gamma * k_pw
        k_d = 2.0 * z * wn * (1.0 + a) + dp.gamma * k_dw
        if not all(map(math.isfinite, (k_p, k_d, k_pw, k_dw))):
            raise OverflowError
    except OverflowError:
        raise ValidationError(f"omega_n = {wn:.3g} rad/s with alpha = {a:.3g}: the gains overflow") from None
    return Gains(k_p=k_p, k_d=k_d, k_pw=k_pw, k_dw=k_dw)


def spec_for_mode(mode: Mode, spec: DesignSpec) -> DesignSpec:
    """The design a mode's gains place: attitude-only feeds back no wheel
    state, so its design is the spec at alpha = 0."""
    return replace(spec, alpha=0.0) if mode is Mode.ATTITUDE_ONLY else spec


def gains_for_mode(mode: Mode, spec: DesignSpec, dp: DerivedParams) -> Gains:
    return full_gains(spec_for_mode(mode, spec), dp)


def regulator_attitude(x, q_r, gains: Gains):
    """Attitude regulator u = (k_p - omega_c^2) sigma_e - k_d omega_c."""
    omega_c = x[3]
    sigma_e = rotor.error_tangent(rotor.orientation_error(x[:2], q_r))
    return (gains.k_p - omega_c * omega_c) * sigma_e - gains.k_d * omega_c


def regulator_full(x, q_r, gains: Gains):
    """Attitude regulator plus wheel angle/velocity feedback, so the wheel is
    actively unwound instead of left marginally stable."""
    return regulator_attitude(x, q_r, gains) - gains.k_pw * x[2] - gains.k_dw * x[4]


def regulator_small_angle(x, q_r, gains: Gains):
    """Small-rotation simplification: k_p acts on the error's imaginary part.

    No tangent division, hence no singularity guard; valid near the reference
    where omega_c^2 is negligible and q_e0 is close to one.
    """
    q_e = rotor.orientation_error(x[:2], q_r)
    return gains.k_p * q_e[1] - gains.k_d * x[3] - gains.k_pw * x[2] - gains.k_dw * x[4]


# each mode's law by name, for sim.run to look up on this module (see there)
REGULATORS = {
    Mode.ATTITUDE_ONLY: "regulator_attitude",
    Mode.ATTITUDE_AND_WHEEL: "regulator_full",
    Mode.SMALL_ANGLE: "regulator_small_angle",
}


def feedback_linearize(u, q, omega_w, dp: DerivedParams, fp: FrictionParams,
                       model: GravityModel = GravityModel.CONSISTENT):
    """Motor torque realizing the commanded body acceleration u.

    tau = -tau_g(q) + tau_f(omega_w) - I_cO_bar * u cancels gravity and
    friction in the body equation (where the motor enters negatively), leaving
    omega_c_dot = u exactly under the reduced wheel dynamics.
    """
    gravity = dp.mgd * q[0] if model is GravityModel.PAPER_LITERAL else dp.mgd * _HALF_SQRT2 * (q[0] - q[1])
    return -gravity + friction_torque(omega_w, fp) - dp.I_cO_bar * u


def controller(q_bias, q_r, regulator, gains: Gains, dp: DerivedParams, fp: FrictionParams,
               model: GravityModel, tau_max: float):
    """The control sample bound once: sample(x) -> (u, tau_cmd, tau_applied) of one
    trajectory x, a tuple of Python floats (sim.run) or a (5,) array, in the same
    bits: a REGULATORS law acts on x measured through the sensor bias q_bias,
    feedback_linearize under model gives tau_cmd, clamped to [-tau_max, tau_max];
    a NaN passes through.  rotor.product and feedback_linearize are written out."""
    b0, b1 = q_bias
    I_cO_bar, tau_c, b_w, c_d = dp.I_cO_bar, fp.tau_c, fp.b_w, fp.c_d
    literal = model is GravityModel.PAPER_LITERAL
    mgd = dp.mgd if literal else dp.mgd * _HALF_SQRT2

    def sample(x):
        q0, q1, theta_w, omega_c, omega_w = x
        m0, m1 = q0 * b0 - q1 * b1, q0 * b1 + q1 * b0
        u = regulator((m0, m1, theta_w, omega_c, omega_w), q_r, gains)
        a = abs(omega_w)
        tf = tau_c + b_w * a + c_d * a * a
        tau_f = tf if omega_w > 0.0 else -1.0 * tf if omega_w < 0.0 else _sign(omega_w) * tf
        tau_cmd = -(mgd * m0 if literal else mgd * (m0 - m1)) + tau_f - I_cO_bar * u
        return u, tau_cmd, min(max(tau_cmd, -tau_max), tau_max)

    return sample
