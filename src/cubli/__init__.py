"""Simulation, control, and analysis toolkit for a reaction-wheel inverted
pendulum balancing on an edge, built on a unit-complex-number attitude."""

from . import analysis, cli, control, plant, rotor, sim, verify
from .control import ControllerConfig, DesignSpec, Gains, Mode
from .errors import (
    CubliError,
    DegenerateInputError,
    DivergenceError,
    IdentificationError,
    SimulationError,
    SingularityError,
    ValidationError,
)
from .plant import (
    CubliParams,
    DerivedParams,
    Fidelity,
    FrictionParams,
    GravityModel,
    derive,
)
from .sim import Disturbance, Scenario, TimeSeries

__all__ = [
    "analysis",
    "cli",
    "control",
    "plant",
    "rotor",
    "sim",
    "verify",
    "ControllerConfig",
    "DesignSpec",
    "Gains",
    "Mode",
    "CubliError",
    "DegenerateInputError",
    "DivergenceError",
    "IdentificationError",
    "SimulationError",
    "SingularityError",
    "ValidationError",
    "CubliParams",
    "DerivedParams",
    "Fidelity",
    "FrictionParams",
    "GravityModel",
    "derive",
    "Disturbance",
    "Scenario",
    "TimeSeries",
]
