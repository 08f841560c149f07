"""Exception types shared across the toolkit."""


class CubliError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CubliError, ValueError):
    """A parameter, configuration value, or matrix shape is invalid."""


class SimulationError(CubliError):
    """A trajectory failed.  t [s], step (the index into the time grid) and
    state (the state array at t) say where; each is None where the raiser
    does not know it: sim.rk4_step knows only the state, sim.run all three."""

    def __init__(self, message: str, t=None, step=None, state=None):
        super().__init__(message)
        self.t, self.step, self.state = t, step, state


class SingularityError(SimulationError):
    """The orientation error is inside the guard band around a 90 degree rotation."""


class DivergenceError(SimulationError):
    """A numerical trajectory produced non-finite values."""


class IdentificationError(CubliError):
    """A friction identification experiment cannot produce a usable estimate."""
