"""Command-line front end: config-driven experiments and the verification suite.

Commands: params, simulate, gains, verify, fit-friction.  Configuration is a
flat key = value text file with dotted key paths; every key can also be
overridden on the command line with --set key=value.  Angles in the config are
degrees; everything internal is radians.  simulate formats its CSV on a second
core while the run steps, and replaces output.path only once the file is whole.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import plant, rotor, sim, verify
from .control import DesignSpec, Mode
from .errors import CubliError, SimulationError, ValidationError
from .plant import CubliParams, Fidelity, FrictionParams, GravityModel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIMULATION = 3
EXIT_VERIFICATION = 4


# ---------------------------------------------------------------------------
# configuration


def _parse_float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"must be finite, got {raw!r}")
    return value


def _enum(enum_cls):
    def parse(raw):
        try:
            return enum_cls(raw.strip())
        except ValueError:
            options = ", ".join(e.value for e in enum_cls)
            raise ValidationError(f"unknown value {raw!r} (choose from: {options})") from None

    return parse


def _disturbances(raw):
    pulses = []
    for item in () if raw.strip() in ("", "none") else raw.split(","):
        parts = item.strip().split(":")
        if len(parts) != 3:
            raise ValidationError(f"expected start:duration:torque, got {item.strip()!r}")
        pulses.append(sim.Disturbance(*map(_parse_float, parts)))
    return tuple(pulses)


def _path(raw):
    if not raw.strip():
        raise ValidationError("must not be empty")
    return raw.strip()


def _key(key, parser, default):
    """A Config field set by one config key, read from its text by parser(raw)."""
    return dataclasses.field(default=default, metadata={"key": key, "parser": parser})


def _section(section, cls):
    """A Config field holding a parameter dataclass: one `section.<field>` number key per field."""
    return dataclasses.field(default_factory=cls, metadata={"key": section, "parser": _parse_float})


@dataclasses.dataclass(frozen=True)
class Config:
    """One experiment, and the one declaration of each config key: every field
    names its key, parser and default.  Config() is the reference experiment.
    The parsers only read text; constructing a Config checks the whole
    experiment, since it builds the scenario every command reads, once."""

    params: CubliParams = _section("physics", CubliParams)
    friction: FrictionParams = _section("friction", FrictionParams)
    plant_gravity: GravityModel = _key("model.plant_gravity", _enum(GravityModel), GravityModel.CONSISTENT)
    controller_gravity: GravityModel = _key("model.controller_gravity", _enum(GravityModel), GravityModel.CONSISTENT)
    fidelity: Fidelity = _key("model.fidelity", _enum(Fidelity), Fidelity.EXACT)
    zeta: float = _key("control.zeta", _parse_float, 0.7071067811865476)
    omega_n_factor: float = _key("control.omega_n_factor", _parse_float, 1.5)
    alpha: float = _key("control.alpha", _parse_float, 0.1)
    mode: Mode = _key("control.mode", _enum(Mode), Mode.ATTITUDE_AND_WHEEL)
    tau_max: float = _key("control.tau_max", _parse_float, 0.5)
    initial_angle_deg: float = _key("scenario.initial_angle_deg", _parse_float, 40.0)
    reference_angle_deg: float = _key("scenario.reference_angle_deg", _parse_float, 45.0)
    dt: float = _key("scenario.dt", _parse_float, 1e-3)
    t_end: float = _key("scenario.t_end", _parse_float, 20.0)
    sensor_bias_deg: float = _key("scenario.sensor_bias_deg", _parse_float, 0.0)
    disturbances: tuple = _key(
        "scenario.disturbances", _disturbances, (sim.Disturbance(9.0, 0.1, 0.05), sim.Disturbance(16.0, 0.1, 0.05))
    )
    output_path: str = _key("output.path", _path, "cubli_run.csv")
    scenario: sim.Scenario = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = sim.Scenario(
            params=self.params,
            friction=self.friction,
            plant_gravity=self.plant_gravity,
            controller_gravity=self.controller_gravity,
            fidelity=self.fidelity,
            design=design_spec(self),
            mode=self.mode,
            tau_max=self.tau_max,
            q_r=rotor.from_angle(math.radians(self.reference_angle_deg)),
            initial=plant.state(rotor.from_angle(math.radians(self.initial_angle_deg))),
            dt=self.dt,
            t_end=self.t_end,
            sensor_bias=math.radians(self.sensor_bias_deg),
            disturbances=self.disturbances,
        )
        object.__setattr__(self, "scenario", scenario)


def _schema() -> dict:
    """key -> (parser, Config field, parameter field name or None), in field order."""
    schema = {}
    for f in (f for f in dataclasses.fields(Config) if f.init):  # no key sets the scenario: it is built
        key, parser = f.metadata["key"], f.metadata["parser"]
        if f.default_factory is dataclasses.MISSING:
            schema[key] = (parser, f, None)
        else:
            for p in dataclasses.fields(f.default_factory):
                schema[f"{key}.{p.name}"] = (parser, f, p.name)
    return schema


CONFIG_SCHEMA = _schema()


def _read_lines(path: str) -> list:
    """(lineno, stripped line) of each non-blank, non-comment line of a UTF-8
    text file; a byte-order mark is not part of line 1."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = enumerate(map(str.strip, handle.read().split("\n")), start=1)
    except UnicodeDecodeError as err:
        lineno = err.object.count(b"\n", 0, err.start) + 1
        raise ValidationError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def read_config_file(path: str) -> dict:
    """Parse a key = value config file, which sets each key once, into a raw string mapping."""
    raw = {}
    for lineno, line in _read_lines(path):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in raw:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key}")
        raw[key] = value
    return raw


def _parse(raw: dict) -> dict:
    """The Config field values raw sets, a section's from its default_factory.  An error names
    the key whose text, or whose parameter dataclass's rule on that one field, rejects it."""
    values = {}
    for key, (parser, f, param) in CONFIG_SCHEMA.items():
        if key in raw:
            try:
                value = parser(raw[key])
                if param is not None:
                    value = dataclasses.replace(values.get(f.name) or f.default_factory(), **{param: value})
            except ValidationError as err:
                raise ValidationError(f"{key}: {err}") from None
            values[f.name] = value
    return values


def _build_error(values: dict) -> str | None:
    """Why the Config of these field values cannot be constructed, or None."""
    try:
        Config(**values)
    except ValidationError as err:
        return str(err)
    return None


def build_config(raw: dict) -> Config:
    """Parse raw key/value strings into the Config they make; unset keys keep
    Config()'s values.  A Config that cannot be constructed is blamed on each
    set key whose removal would remove or change its error, or on every set
    key when no one removal would; output.* keys are not part of the
    experiment and are never blamed."""
    for key in raw:
        if key not in CONFIG_SCHEMA:
            raise ValidationError(f"unknown config key: {key}")
    values = _parse(raw)  # a key its own rule rejects is named alone, outside the blame below
    try:
        return Config(**values)
    except ValidationError as err:
        error = str(err)
    keys = [key for key in raw if not key.startswith("output.")]
    blamed = [key for key in keys if _build_error(_parse({k: v for k, v in raw.items() if k != key})) != error]
    raise ValidationError(f"{', '.join(blamed or keys)}: {error}")


def load_config(args) -> Config:
    raw = read_config_file(args.config_file) if args.config_file else {}
    for item in args.set or ():
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return build_config(raw)


def design_spec(cfg: Config) -> DesignSpec:
    """Resolve the design targets: omega_n is a multiple of the pendulum
    natural frequency under the controller's gravity model."""
    omega_0 = plant.pendulum_frequency(plant.derive(cfg.params, cfg.friction), cfg.controller_gravity)
    return DesignSpec(zeta=cfg.zeta, omega_n=cfg.omega_n_factor * omega_0, alpha=cfg.alpha)


# ---------------------------------------------------------------------------
# output helpers


def write_csv(ts: sim.TimeSeries, path: str) -> None:
    """Write a run log with full double precision (shortest round-trip repr),
    to a new file that replaces path once it is whole (csvlog.replacing)."""
    from . import csvlog  # imported here, since only simulate and this write a CSV

    with csvlog.replacing(path) as tmp:
        csvlog.write(tmp, csvlog.blocks(ts))


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


# ---------------------------------------------------------------------------
# commands


def cmd_params(sc: sim.Scenario, json_out: bool = False) -> int:
    dp = sc.dp
    entries = [
        ("d", f"{dp.d:.6f} m"),
        ("m_c", f"{dp.m_c:.6g} kg"),
        ("I_sO", f"{dp.I_sO:.6e} kg m^2"),
        ("I_wO", f"{dp.I_wO:.6e} kg m^2"),
        ("I_cO", f"{dp.I_cO:.6e} kg m^2"),
        ("I_cO_bar", f"{dp.I_cO_bar:.6e} kg m^2"),
        ("m_c*g*d", f"{dp.mgd:.6f} N m"),
        ("omega_0 (consistent)", f"{plant.pendulum_frequency(dp, GravityModel.CONSISTENT):.6f} rad/s"),
        ("omega_0 (paper-literal)", f"{plant.pendulum_frequency(dp, GravityModel.PAPER_LITERAL):.6f} rad/s"),
        ("omega_1", f"{dp.omega_1:.6g} rad/s"),
        ("gamma", f"{dp.gamma:.6g}"),
        ("delta", f"{dp.delta:.6f} 1/s^2"),
    ]
    if json_out:
        print(json.dumps({k: v for k, v in entries}, indent=2))
    else:
        _print_kv(entries)
    return EXIT_OK


def cmd_gains(sc: sim.Scenario) -> int:
    spec, poles, eigs, error = verify.pole_placement(sc)
    _print_kv(
        [
            ("mode", sc.mode.value),
            ("zeta", f"{spec.zeta:.6f}"),
            ("omega_n", f"{spec.omega_n:.6f} rad/s"),
            ("alpha", f"{spec.alpha:.6g}"),
            ("k_p", f"{sc.gains.k_p:.6f}"),
            ("k_d", f"{sc.gains.k_d:.6f}"),
            ("k_pw", f"{sc.gains.k_pw:.6e}"),
            ("k_dw", f"{sc.gains.k_dw:.6e}"),
            ("designed poles", "  ".join(f"{p:.4f}" for p in poles)),
            ("closed-loop eigenvalues", "  ".join(f"{e:.4f}" for e in np.sort_complex(eigs))),
            ("coefficient error", f"{error:.3e}"),
        ]
    )
    ok, metric = verify.closed_loop_poles(sc)
    if not ok:
        print(f"closed_loop_poles: {metric} FAIL")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(cfg: Config) -> int:
    from . import csvlog  # imported here, since only simulate and write_csv write a CSV

    sc = cfg.scenario
    with csvlog.replacing(cfg.output_path) as tmp:
        ts = csvlog.run_writing(sc, tmp)

    # settling is measured before the first disturbance that acts, which would restart it
    first = min((d.start for d in sc.disturbances if d.start + d.duration > 0.0), default=math.inf)
    settling = sim.settling(ts, sc.q_r, 0.0, first)
    att = wheel = converged = "n/a"
    if settling:
        att_settle, wheel_settle, peak_wheel = settling
        att = f"{att_settle:.3f} s (within 0.5 deg of {math.degrees(rotor.to_angle(sc.q_r)):g} deg)"
        wheel = f"{wheel_settle:.3f} s (within 2% of peak {peak_wheel:.1f} rad/s)"
        converged = "converged" if wheel_settle < math.inf else "NOT converged (did not settle)"
    pairs = [
        ("csv", cfg.output_path),
        ("steps", str(len(ts.t))),
        ("settling window", "whole run" if first > ts.t[-1] else f"t < {first:g} s (before the first disturbance)"),
        ("attitude settling", att),
        ("wheel settling", wheel),
        ("peak |tau|", f"{np.max(np.abs(ts.tau_applied)):.4f} N m"),
        ("final attitude (true)", f"{ts.theta_c_deg[-1]:.4f} deg"),
    ]
    if sc.sensor_bias != 0.0:  # the measured attitude, decoded on the circle like the true one
        q0, q1 = rotor.product((ts.q0[-1], ts.q1[-1]), rotor.from_angle(sc.sensor_bias))
        pairs.append(("final attitude (sensor)", f"{math.degrees(math.atan2(q1, q0)):.4f} deg"))
    pairs += [("final |omega_w|", f"{abs(float(ts.omega_w[-1])):.4f} rad/s"), ("wheel velocity", converged)]
    _print_kv(pairs)
    return EXIT_OK


def cmd_verify(sc: sim.Scenario, negative_control: bool = False) -> int:
    all_ok = True
    for name, ok, metric in verify.run(sc, negative_control):
        all_ok = all_ok and ok
        print(f"{name}: {metric} {'PASS' if ok else 'FAIL'}")
    print("verification:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def read_steady_state_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse tau,omega_ss rows into (taus, omegas); tolerant of comments and of a
    header: the first non-comment line, when it does not parse as numbers (3e-3 and inf do)."""
    rows = []
    for i, (lineno, line) in enumerate(_read_lines(path)):
        try:
            values = [float(part) for part in line.split(",")]
        except ValueError:
            if i == 0:
                continue  # header
            raise ValidationError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if len(values) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'tau,omega_ss', got {line!r}")
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"{path}:{lineno}: non-finite row {line!r}")
        rows.append(values)
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)


def cmd_fit_friction(cfg: Config, input_path: str | None, synthetic: bool) -> int:
    if synthetic:
        taus = plant.friction_torque(np.linspace(60.0, 600.0, 20), cfg.friction)
        omegas = sim.steady_state_sweep(taus, cfg.params, cfg.friction)
        source = f"synthetic sweep ({len(omegas)} levels)"
    else:
        taus, omegas = read_steady_state_csv(input_path)
        source = f"{input_path} ({len(omegas)} rows)"
    fitted, residual_rms = sim.fit_friction(taus, omegas)
    _print_kv(
        [
            ("source", source),
            ("tau_c", f"{fitted.tau_c:.6e} N m"),
            ("b_w", f"{fitted.b_w:.6e} N m s/rad"),
            ("c_d", f"{fitted.c_d:.6e} N m s^2/rad^2"),
            ("residual rms", f"{residual_rms:.3e} N m"),
            ("model at 300 rad/s", f"{plant.friction_torque(300.0, fitted):.4e} N m"),
        ]
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_common(parser):
    parser.add_argument("config_file", nargs="?", help="path to a key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cubli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print derived physical parameters")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of aligned text")
    p.set_defaults(run=lambda cfg, args: cmd_params(cfg.scenario, json_out=args.json))

    p = sub.add_parser("simulate", help="run a closed-loop scenario and write a CSV log")
    _add_common(p)
    p.add_argument("--out", help="output CSV path (same as --set output.path=...)")
    p.add_argument("--mode", help="controller mode override (same as --set control.mode=...)")
    p.add_argument("--sensor-bias-deg", help="sensor bias override [deg] (same as --set scenario.sensor_bias_deg=...)")
    p.set_defaults(run=lambda cfg, args: cmd_simulate(cfg))

    p = sub.add_parser("gains", help="print synthesized gains and verified poles")
    _add_common(p)
    p.set_defaults(run=lambda cfg, args: cmd_gains(cfg.scenario))

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="tamper the oracle gravity constant; the suite must then FAIL",
    )
    p.set_defaults(run=lambda cfg, args: cmd_verify(cfg.scenario, negative_control=args.negative_control))

    p = sub.add_parser("fit-friction", help="identify friction parameters from steady-state data")
    _add_common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV of tau,omega_ss rows")
    source.add_argument("--synthetic", action="store_true", help="generate the sweep by simulation first")
    p.set_defaults(run=lambda cfg, args: cmd_fit_friction(cfg, input_path=args.input, synthetic=args.synthetic))

    args = parser.parse_args(argv)
    if args.command == "simulate":  # the flags are --set keys, applied after every other --set
        flags = {"control.mode": args.mode, "scenario.sensor_bias_deg": args.sensor_bias_deg, "output.path": args.out}
        args.set = [*(args.set or ()), *(f"{key}={value}" for key, value in flags.items() if value is not None)]
    try:
        return args.run(load_config(args), args)
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    except (CubliError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
