"""Span tracer for the traced benchmark run.

Wraps every public function of the package's working modules with a timing
wrapper, at every place the package looks the function up, and records one
span (name, start, end, parent) per call.  Spans are kept in flat arrays in
memory and written out once, when the run ends.  Nothing here is imported by
the untraced runs, so they pay nothing for it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The package's modules that do work; `errors` only defines exception types.
LAYERS = ("cli", "sim", "plant", "control", "rotor", "analysis")

# Functions the per-layer metrics name.  If a refactor renames or removes one,
# the traced run stops with an error instead of reporting a silent zero.
REQUIRED = (
    "cli.main",
    "cli.load_config",
    "cli.write_csv",
    "sim.run",
    "sim.rk4_step",
    "sim.steady_state_sweep",
    "sim.fit_friction",
    "plant.dynamics_rate",
    "plant.angle_dynamics_rate",
    "plant.friction_torque",
    "plant.energies",
    "control.regulator_attitude",
    "control.regulator_full",
    "control.regulator_small_angle",
    "control.feedback_linearize",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = parent[idx]

        return traced

    def install(self, package: str = "cubli") -> list[str]:
        """Wrap each public function of each layer wherever the package binds it.

        Returns the wrapped names, as `layer.function`.
        """
        modules = [m for key, m in sorted(sys.modules.items()) if key == package or key.startswith(package + ".")]
        wrapped = []
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                wrapped.append(f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._bindings.append((holder, key, fn))
        missing = sorted(set(REQUIRED) - set(wrapped))
        if missing:
            self.uninstall()
            raise RuntimeError(f"public functions the benchmark traces are gone: {', '.join(missing)}")
        return wrapped

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._bindings):
            setattr(holder, key, fn)
        self._bindings.clear()

    def mark(self) -> int:
        """Index of the next span, to split the spans into phases."""
        return len(self.name_id)

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def table(self, lo: int = 0, hi: int | None = None) -> "SpanTable":
        """The spans recorded in [lo, hi); a parent outside that range becomes none."""
        name_id, parent, start, end = (a[lo:hi] for a in self.arrays())
        parent = parent - lo
        parent[(parent < 0) | (parent >= len(parent))] = -1
        return SpanTable(self.names, name_id, parent, start, end)

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


class SpanTable:
    """Aggregates over recorded spans: counts, inclusive time, self time."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.duration[has_parent], minlength=len(parent))
        self.self_time = self.duration - child_time

    def _mask(self, key: str):
        """Spans of one function, or of a group when key ends in '.' or '_'."""
        if key.endswith((".", "_")):
            ids = [i for i, name in enumerate(self.names) if name.startswith(key)]
        else:
            ids = [i for i, name in enumerate(self.names) if name == key]
        return np.isin(self.name_id, ids)

    def calls(self, key: str) -> int:
        return int(np.count_nonzero(self._mask(key)))

    def self_s(self, key: str) -> float:
        return float(self.self_time[self._mask(key)].sum())

    def inclusive_s(self, key: str) -> float:
        """Time inside the matching spans, counting nested matches once."""
        mask = self._mask(key)
        has_parent = self.parent >= 0
        parent_matches = np.zeros_like(mask)
        parent_matches[has_parent] = mask[self.parent[has_parent]]
        return float(self.duration[mask & ~parent_matches].sum())


def layer_metrics(table: SpanTable, setup: SpanTable, csv_bytes: int) -> dict:
    """The per-layer figures read from one traced unit's spans."""
    write_s = table.inclusive_s("cli.write_csv")
    rk4_calls = table.calls("sim.rk4_step")
    friction_calls = table.calls("plant.friction_torque")
    return {
        "cli.load_config.s": setup.inclusive_s("cli.load_config"),
        "cli.write_csv.s": write_s,
        "cli.write_csv.mb_per_s": csv_bytes / write_s / 1e6 if write_s > 0 else 0.0,
        "sim.run.self_s": table.self_s("sim.run"),
        "sim.rk4_step.calls": rk4_calls,
        "sim.rk4_step.self_s": table.self_s("sim.rk4_step"),
        "plant.dynamics_rate.calls": table.calls("plant.dynamics_rate"),
        "plant.dynamics_rate.self_s": table.self_s("plant.dynamics_rate"),
        "plant.friction_torque.calls_per_step": friction_calls / rk4_calls if rk4_calls else 0.0,
        "plant.angle_dynamics_rate.s": table.inclusive_s("plant.angle_dynamics_rate"),
        "plant.energies.s": table.inclusive_s("plant.energies"),
        "control.regulator.s": table.inclusive_s("control.regulator_"),
        "control.feedback_linearize.s": table.inclusive_s("control.feedback_linearize"),
        "rotor.calls": table.calls("rotor."),
        "rotor.s": table.inclusive_s("rotor."),
        "analysis.s": table.inclusive_s("analysis."),
        "sim.steady_state_sweep.s": table.inclusive_s("sim.steady_state_sweep"),
        "sim.fit_friction.s": table.inclusive_s("sim.fit_friction"),
    }
