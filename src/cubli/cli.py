"""Command-line front end: config-driven experiments and the verification suite.

Commands: params, simulate, gains, verify, fit-friction.  Configuration is a
flat key = value text file with dotted key paths; every key can also be
overridden on the command line with --set key=value.  Angles in the config are
degrees; everything internal is radians.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import plant, rotor, sim, verify
from .control import ControllerConfig, Mode
from .errors import CubliError, DivergenceError, SingularityError, ValidationError
from .plant import CubliParams, Fidelity, FrictionParams, GravityModel
from .verify import design_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIMULATION = 3
EXIT_VERIFICATION = 4

CSV_HEADER = ",".join(sim.TimeSeries.COLUMNS)


# ---------------------------------------------------------------------------
# configuration


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key}: must be finite, got {raw!r}")
    return value


def _positive(key, raw):
    value = _parse_float(key, raw)
    if not value > 0.0:
        raise ValidationError(f"{key}: must be strictly positive, got {value!r}")
    return value


def _nonnegative(key, raw):
    value = _parse_float(key, raw)
    if value < 0.0:
        raise ValidationError(f"{key}: must be nonnegative, got {value!r}")
    return value


def _zeta(key, raw):
    value = _parse_float(key, raw)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{key}: must be in (0, 1], got {value!r}")
    return value


def _enum(enum_cls):
    def parse(key, raw):
        try:
            return enum_cls(raw.strip())
        except ValueError:
            options = ", ".join(e.value for e in enum_cls)
            raise ValidationError(f"{key}: unknown value {raw!r} (choose from: {options})") from None

    return parse


def _disturbances(key, raw):
    raw = raw.strip()
    if raw in ("", "none"):
        return ()
    pulses = []
    for item in raw.split(","):
        parts = item.strip().split(":")
        if len(parts) != 3:
            raise ValidationError(f"{key}: expected start:duration:torque, got {item.strip()!r}")
        start, duration, torque = (_parse_float(key, p) for p in parts)
        if duration <= 0.0:
            raise ValidationError(f"{key}: pulse duration must be positive, got {duration!r}")
        pulses.append(sim.Disturbance(start=start, duration=duration, torque=torque))
    return tuple(pulses)


def _string(key, raw):
    return raw.strip()


def _key(key, parser, default):
    """A Config field set by one config key, parsed from its text by parser(key, raw)."""
    return dataclasses.field(default=default, metadata={"key": key, "parser": parser})


def _section(section, cls, parser):
    """A Config field holding a parameter dataclass: one `section.<field>` key per field."""
    return dataclasses.field(default_factory=cls, metadata={"key": section, "parser": parser})


@dataclasses.dataclass
class Config:
    """One experiment, and the one declaration of each config key: every field
    names its key, parser and default.  Config() is the reference experiment."""

    params: CubliParams = _section("physics", CubliParams, _positive)
    friction: FrictionParams = _section("friction", FrictionParams, _nonnegative)
    plant_gravity: GravityModel = _key("model.plant_gravity", _enum(GravityModel), GravityModel.CONSISTENT)
    controller_gravity: GravityModel = _key("model.controller_gravity", _enum(GravityModel), GravityModel.CONSISTENT)
    fidelity: Fidelity = _key("model.fidelity", _enum(Fidelity), Fidelity.EXACT)
    zeta: float = _key("control.zeta", _zeta, 0.7071067811865476)
    omega_n_factor: float = _key("control.omega_n_factor", _positive, 1.5)
    alpha: float = _key("control.alpha", _nonnegative, 0.1)
    mode: Mode = _key("control.mode", _enum(Mode), Mode.ATTITUDE_AND_WHEEL)
    tau_max: float = _key("control.tau_max", _positive, 0.5)
    initial_angle_deg: float = _key("scenario.initial_angle_deg", _parse_float, 40.0)
    reference_angle_deg: float = _key("scenario.reference_angle_deg", _parse_float, 45.0)
    dt: float = _key("scenario.dt", _positive, 1e-3)
    t_end: float = _key("scenario.t_end", _positive, 20.0)
    sensor_bias_deg: float = _key("scenario.sensor_bias_deg", _parse_float, 0.0)
    disturbances: tuple = _key(
        "scenario.disturbances", _disturbances, (sim.Disturbance(9.0, 0.1, 0.05), sim.Disturbance(16.0, 0.1, 0.05))
    )
    output_path: str = _key("output.path", _string, "cubli_run.csv")


def _schema() -> dict:
    """key -> (parser, Config field, parameter field or None), in field order."""
    schema = {}
    for f in dataclasses.fields(Config):
        key, parser = f.metadata["key"], f.metadata["parser"]
        if f.default_factory is dataclasses.MISSING:
            schema[key] = (parser, f.name, None)
        else:
            for p in dataclasses.fields(f.default_factory):
                schema[f"{key}.{p.name}"] = (parser, f.name, p.name)
    return schema


CONFIG_SCHEMA = _schema()


def read_config_file(path: str) -> dict:
    """Parse a key = value config file into a raw string mapping."""
    raw = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def build_config(raw: dict) -> Config:
    """Validate raw key/value strings against the schema; unset keys keep Config()'s values."""
    for key in raw:
        if key not in CONFIG_SCHEMA:
            raise ValidationError(f"unknown config key: {key}")
    cfg = Config()
    for key, (parser, name, param) in CONFIG_SCHEMA.items():
        if key in raw:
            value = parser(key, raw[key])
            if param is not None:
                value = dataclasses.replace(getattr(cfg, name), **{param: value})
            setattr(cfg, name, value)
    return cfg


def load_config(args) -> Config:
    raw = {}
    path = args.config_file or args.config
    if path:
        raw.update(read_config_file(path))
    for item in args.set or ():
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return build_config(raw)


def build_scenario(cfg: Config) -> sim.Scenario:
    return sim.Scenario(
        params=cfg.params,
        friction=cfg.friction,
        design=design_spec(cfg),
        controller=ControllerConfig(
            mode=cfg.mode,
            tau_max=cfg.tau_max,
            gravity_model=cfg.controller_gravity,
            q_r=rotor.from_angle(math.radians(cfg.reference_angle_deg)),
        ),
        initial=plant.State.from_angle(math.radians(cfg.initial_angle_deg)),
        plant_gravity=cfg.plant_gravity,
        fidelity=cfg.fidelity,
        dt=cfg.dt,
        t_end=cfg.t_end,
        sensor_bias=math.radians(cfg.sensor_bias_deg),
        disturbances=cfg.disturbances,
    )


# ---------------------------------------------------------------------------
# output helpers


CSV_BLOCK_ROWS = 1024  # rows turned into Python floats at a time, so memory stays flat


def write_csv(ts: sim.TimeSeries, path: str) -> None:
    """Write a run log with full double precision (shortest round-trip repr)."""
    columns = [getattr(ts, name) for name in sim.TimeSeries.COLUMNS]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for lo in range(0, len(ts.t), CSV_BLOCK_ROWS):
            rows = np.column_stack([c[lo : lo + CSV_BLOCK_ROWS] for c in columns]).tolist()
            handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


# ---------------------------------------------------------------------------
# commands


def cmd_params(cfg: Config, json_out: bool = False) -> int:
    dp_con = plant.derive(cfg.params, cfg.friction, GravityModel.CONSISTENT)
    dp_lit = plant.derive(cfg.params, cfg.friction, GravityModel.PAPER_LITERAL)
    entries = [
        ("d", f"{dp_con.d:.6f} m"),
        ("m_c", f"{dp_con.m_c:.6g} kg"),
        ("I_sO", f"{dp_con.I_sO:.6e} kg m^2"),
        ("I_wO", f"{dp_con.I_wO:.6e} kg m^2"),
        ("I_cO", f"{dp_con.I_cO:.6e} kg m^2"),
        ("I_cO_bar", f"{dp_con.I_cO_bar:.6e} kg m^2"),
        ("m_c*g*d", f"{dp_con.mgd:.6f} N m"),
        ("omega_0 (consistent)", f"{dp_con.omega_0:.6f} rad/s"),
        ("omega_0 (paper-literal)", f"{dp_lit.omega_0:.6f} rad/s"),
        ("omega_1", f"{dp_con.omega_1:.6g} rad/s"),
        ("gamma", f"{dp_con.gamma:.6g}"),
        ("delta", f"{dp_con.delta:.6f} 1/s^2"),
    ]
    if json_out:
        print(json.dumps({k: v for k, v in entries}, indent=2))
    else:
        _print_kv(entries)
    return EXIT_OK


def cmd_gains(cfg: Config) -> int:
    dp = plant.derive(cfg.params, cfg.friction, cfg.controller_gravity)
    spec, gains, poles, eigs, error = verify.pole_placement(cfg, dp)
    _print_kv(
        [
            ("mode", cfg.mode.value),
            ("zeta", f"{spec.zeta:.6f}"),
            ("omega_n", f"{spec.omega_n:.6f} rad/s"),
            ("alpha", f"{spec.alpha:.6g}"),
            ("k_p", f"{gains.k_p:.6f}"),
            ("k_d", f"{gains.k_d:.6f}"),
            ("k_pw", f"{gains.k_pw:.6e}"),
            ("k_dw", f"{gains.k_dw:.6e}"),
            ("designed poles", "  ".join(f"{p:.4f}" for p in poles)),
            ("closed-loop eigenvalues", "  ".join(f"{e:.4f}" for e in np.sort_complex(eigs))),
            ("coefficient error", f"{error:.3e}"),
        ]
    )
    ok, metric = verify.pole_gate(error)
    if not ok:
        print(f"closed_loop_poles: {metric} FAIL")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(cfg: Config, out_path: str | None = None) -> int:
    scenario = build_scenario(cfg)
    ts = sim.run(scenario)
    path = out_path or cfg.output_path
    write_csv(ts, path)

    ref = cfg.reference_angle_deg
    att_settle = sim.settling_time(ts.t, ts.theta_c_deg - ref, 0.5)
    peak_wheel = float(np.max(np.abs(ts.omega_w)))
    wheel_settle = sim.settling_time(ts.t, ts.omega_w, 0.02 * peak_wheel) if peak_wheel > 0 else 0.0
    final_wheel = abs(float(ts.omega_w[-1]))
    wheel_ok = final_wheel <= 0.1
    pairs = [
        ("csv", path),
        ("steps", str(len(ts.t))),
        ("attitude settling", f"{att_settle:.3f} s (within 0.5 deg of {ref:g} deg)"),
        ("wheel settling", f"{wheel_settle:.3f} s (within 2% of peak {peak_wheel:.1f} rad/s)"),
        ("peak |tau|", f"{np.max(np.abs(ts.tau_applied)):.4f} N m"),
        ("final attitude (true)", f"{ts.theta_c_deg[-1]:.4f} deg"),
    ]
    if cfg.sensor_bias_deg != 0.0:
        pairs.append(("final attitude (sensor)", f"{ts.theta_c_deg[-1] + cfg.sensor_bias_deg:.4f} deg"))
    pairs.append(("final |omega_w|", f"{final_wheel:.4f} rad/s"))
    pairs.append(("wheel velocity", "converged" if wheel_ok else "NOT converged (non-decaying)"))
    _print_kv(pairs)
    return EXIT_OK


def cmd_verify(cfg: Config, negative_control: bool = False) -> int:
    all_ok = True
    for name, ok, metric in verify.run(cfg, negative_control):
        all_ok = all_ok and ok
        print(f"{name}: {metric} {'PASS' if ok else 'FAIL'}")
    print("verification:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def read_steady_state_csv(path: str) -> list:
    """Parse (tau, omega_ss) rows; tolerant of a header line and comments."""
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if lineno == 1 and any(c.isalpha() for c in stripped):
                continue  # header
            parts = stripped.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'tau,omega_ss', got {stripped!r}")
            try:
                tau, omega = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric row {stripped!r}") from None
            if not (math.isfinite(tau) and math.isfinite(omega)):
                raise ValidationError(f"{path}:{lineno}: non-finite row {stripped!r}")
            points.append(sim.SteadyStatePoint(tau=tau, omega_ss=omega))
    return points


def cmd_fit_friction(cfg: Config, input_path: str | None, synthetic: bool) -> int:
    if synthetic:
        omegas = np.linspace(60.0, 600.0, 20)
        levels = [float(plant.friction_torque(w, cfg.friction)) for w in omegas]
        points = sim.steady_state_sweep(levels, cfg.params, cfg.friction)
        source = f"synthetic sweep ({len(points)} levels)"
    elif input_path:
        points = read_steady_state_csv(input_path)
        source = f"{input_path} ({len(points)} rows)"
    else:
        raise ValidationError("fit-friction needs an input CSV or --synthetic")
    fit = sim.fit_friction(points)
    fitted = fit.params
    _print_kv(
        [
            ("source", source),
            ("tau_c", f"{fitted.tau_c:.6e} N m"),
            ("b_w", f"{fitted.b_w:.6e} N m s/rad"),
            ("c_d", f"{fitted.c_d:.6e} N m s^2/rad^2"),
            ("residual rms", f"{fit.residual_rms:.3e} N m"),
            ("model at 300 rad/s", f"{plant.friction_torque(300.0, fitted):.4e} N m"),
        ]
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_common(parser):
    parser.add_argument("config_file", nargs="?", help="path to a key = value config file")
    parser.add_argument("--config", help="alternative way to pass the config file path")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cubli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print derived physical parameters")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of aligned text")

    p = sub.add_parser("simulate", help="run a closed-loop scenario and write a CSV log")
    _add_common(p)
    p.add_argument("--out", help="output CSV path (overrides output.path)")
    p.add_argument("--mode", choices=[m.value for m in Mode], help="controller mode override")
    p.add_argument("--sensor-bias-deg", type=float, help="attitude sensor bias override [deg]")

    p = sub.add_parser("gains", help="print synthesized gains and verified poles")
    _add_common(p)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="tamper the oracle gravity constant; the suite must then FAIL",
    )

    p = sub.add_parser("fit-friction", help="identify friction parameters from steady-state data")
    _add_common(p)
    p.add_argument("--input", help="CSV of tau,omega_ss rows")
    p.add_argument("--synthetic", action="store_true", help="generate the sweep by simulation first")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "params":
            return cmd_params(cfg, json_out=args.json)
        if args.command == "simulate":
            if args.mode:
                cfg = dataclasses.replace(cfg, mode=Mode(args.mode))
            if args.sensor_bias_deg is not None:
                cfg = dataclasses.replace(cfg, sensor_bias_deg=args.sensor_bias_deg)
            return cmd_simulate(cfg, out_path=args.out)
        if args.command == "gains":
            return cmd_gains(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, negative_control=args.negative_control)
        if args.command == "fit-friction":
            return cmd_fit_friction(cfg, input_path=args.input, synthetic=args.synthetic)
        raise ValidationError(f"unknown command {args.command!r}")
    except (SingularityError, DivergenceError) as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    except (CubliError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
