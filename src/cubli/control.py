"""Nonlinear state regulators, feedback linearization, and gain synthesis.

The regulators output a commanded body angular acceleration u [rad/s^2]; the
feedback-linearization stage converts u into a motor torque that cancels
gravity and wheel friction, so the attitude channel behaves as a double
integrator.  Gains are synthesized by matching the closed-loop characteristic
polynomial against a target factorization with damping ratio zeta, natural
frequency omega_n, and wheel-pole scaling alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import rotor
from .errors import ValidationError
from .plant import DerivedParams, FrictionParams, GravityModel, State, _gravity, friction_torque


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


@dataclass(frozen=True)
class ControllerConfig:
    """The regulator, its reference and actuator limit, and the gravity model
    the controller believes in (it may deliberately mismatch the plant's, to
    study robustness).  The controller uses the plant's friction values.
    """

    mode: Mode = Mode.ATTITUDE_AND_WHEEL
    tau_max: float = 0.5
    gravity_model: GravityModel = GravityModel.CONSISTENT
    q_r: np.ndarray = None

    def __post_init__(self):
        if not self.tau_max > 0.0:
            raise ValidationError("tau_max must be positive")
        q_r = rotor.UPRIGHT.copy() if self.q_r is None else np.asarray(self.q_r, dtype=float)
        if q_r.shape != (2,) or not np.isfinite(q_r).all() or abs(rotor.norm(q_r) - 1.0) > 1e-9:
            raise ValidationError(f"q_r must be a finite unit complex number of shape (2,), got {self.q_r!r}")
        object.__setattr__(self, "q_r", q_r)


def attitude_gains(zeta: float, omega_n: float):
    """Attitude-only gains placing the error poles at zeta, omega_n."""
    return omega_n**2, 2.0 * zeta * omega_n


def full_gains(spec: DesignSpec, dp: DerivedParams) -> Gains:
    """Gains for the attitude-and-wheel regulator from the design targets.

    Matching the fourth-order closed-loop characteristic polynomial
    coefficient by coefficient against
    (s^2 + 2 zeta wn s + wn^2)(s + alpha zeta wn)^2 gives the wheel gains
    directly and folds gamma-scaled copies of them into the attitude gains.
    With alpha = 0 this reduces exactly to attitude_gains.
    """
    z, wn, a = spec.zeta, spec.omega_n, spec.alpha
    k_pw = a**2 * z**2 * wn**4 / dp.delta
    k_dw = 2.0 * a * z * wn**3 * (1.0 + a * z**2) / dp.delta
    k_p = wn**2 * (1.0 + a * z**2 * (4.0 + a)) + dp.gamma * k_pw
    k_d = 2.0 * z * wn * (1.0 + a) + dp.gamma * k_dw
    return Gains(k_p=k_p, k_d=k_d, k_pw=k_pw, k_dw=k_dw)


def spec_for_mode(mode: Mode, spec: DesignSpec) -> DesignSpec:
    """The design a mode's gains place: attitude-only feeds back no wheel
    state, so its design is the spec at alpha = 0."""
    return replace(spec, alpha=0.0) if mode is Mode.ATTITUDE_ONLY else spec


def gains_for_mode(mode: Mode, spec: DesignSpec, dp: DerivedParams) -> Gains:
    return full_gains(spec_for_mode(mode, spec), dp)


def regulator_attitude(q, omega_c, q_r, gains: Gains):
    """Attitude regulator u = (k_p - omega_c^2) sigma_e - k_d omega_c."""
    sigma_e = rotor.error_tangent(rotor.orientation_error(q, q_r))
    return (gains.k_p - omega_c * omega_c) * sigma_e - gains.k_d * omega_c


def regulator_full(state: State, q_r, gains: Gains):
    """Attitude regulator plus wheel angle/velocity feedback, so the wheel is
    actively unwound instead of left marginally stable."""
    u = regulator_attitude(state.q, state.omega_c, q_r, gains)
    return u - gains.k_pw * state.theta_w - gains.k_dw * state.omega_w


def regulator_small_angle(state: State, q_r, gains: Gains):
    """Small-rotation simplification: k_p acts on the error's imaginary part.

    No tangent division, hence no singularity guard; valid near the reference
    where omega_c^2 is negligible and q_e0 is close to one.
    """
    q_e = rotor.orientation_error(state.q, q_r)
    return (
        gains.k_p * q_e[1]
        - gains.k_d * state.omega_c
        - gains.k_pw * state.theta_w
        - gains.k_dw * state.omega_w
    )


def feedback_linearize(
    u,
    q,
    omega_w,
    dp: DerivedParams,
    fp: FrictionParams,
    model: GravityModel = GravityModel.CONSISTENT,
):
    """Motor torque realizing the commanded body acceleration u.

    tau = -tau_g(q) + tau_f(omega_w) - I_cO_bar * u cancels gravity and
    friction in the body equation (where the motor enters negatively), leaving
    omega_c_dot = u exactly under the reduced wheel dynamics.
    """
    return -_gravity(q[0], q[1], dp, model) + friction_torque(omega_w, fp) - dp.I_cO_bar * u


def saturate(tau, tau_max: float):
    """Clamp the commanded torque to the actuator range [-tau_max, tau_max];
    ControllerConfig has already checked that tau_max is positive."""
    return min(max(tau, -tau_max), tau_max)
