"""Simulation, control, and analysis toolkit for a reaction-wheel inverted
pendulum balancing on an edge, built on a unit-complex-number attitude."""

from . import analysis, cli, control, plant, rotor, sim, verify
