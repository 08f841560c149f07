"""One benchmark process: set a workload up, run one unit of it, check it.

perfbench/run.py starts this file as a fresh process for every unit, so that
each unit pays the interpreter start, the imports and the set-up like a user's
command does:

    python3 perfbench/workloads.py --workload reference --seed 1 --out .perfbench [--probe] [--trace]

`--probe` stops once the workload is ready (a set-up sample); `--trace`
wraps the package's public functions and adds the per-layer figures.  The
last line of standard output is one JSON object.  The checks compare the
program's outputs with the benchmark's own formulas and with properties the
method must have, never with a stored copy of an earlier output.

Nothing from numpy or cubli is imported at module level: the first import of
both happens inside the timed `import cubli`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

# The default rig (CubliParams defaults), derived by hand and independently of
# cubli.plant.derive: pivot-to-centre distance, inertia about the pivot minus
# the wheel's own, and the gravity torque scale m_c g d.
L, M_S, M_W, I_SG, I_WG, G = 0.15, 0.70, 0.15, 3.75e-3, 1.25e-4, 9.81
D = L / math.sqrt(2.0)
I_CO_BAR = (I_SG + M_S * D * D) + (I_WG + M_W * D * D) - I_WG
MGD = (M_S + M_W) * G * D

# The paper's reference balancing experiment, as the default config states it.
REFERENCE_DT = 1e-3
REFERENCE_T_END = 20.0
REFERENCE_ANGLE_DEG = 45.0
TAU_MAX = 0.5
PULSES = ((9.0, 0.1), (16.0, 0.1))  # (start, duration) [s]; 0.05 N m each

# friction that generates the identification sweep (the default rig's)
FRICTION = {"tau_c": 2.46e-3, "b_w": 1.06e-5, "c_d": 1.70e-8}
FIT_REL_TOL = 1e-4  # the fit is printed with 7 significant digits

ENSEMBLE_DT = 1e-3
ENSEMBLE_COLUMNS = 3  # columns re-integrated one at a time
ENSEMBLE_ENERGY_TOL = 1e-7  # |E_end - E_0| / mgd per trajectory
UNIT_NORM_TOL = 1e-9
# A column integrated alone may differ from the stacked result in the last
# bits: the renormalization squares a numpy scalar (scalar power) for a (5,)
# state and an array (a plain product) for a (5, N) one, which differ by
# 1 ulp on some values.  Over 1,000 steps 301 sampled columns stayed within
# 1.3e-14 of max(1, |x|).
COLUMN_REL_TOL = 1e-12

# N, steps of the ensemble; repeats of the identification
SIZES = {
    "full": {"ensemble": (10_000, 1000), "identify": 8},
    "tiny": {"ensemble": (100, 20), "identify": 1},
}

VERIFY_CHECKS = (
    "linearization_fd",
    "open_loop_poles",
    "controllability_rank",
    "gain_synthesis",
    "closed_loop_poles",
    "fbl_cancellation",
    "oracle_equivalence",
    "energy_drift",
)


def energy(q0, q1, omega_c, omega_w):
    """Total energy; the centre of mass sits D (q0 + q1) / sqrt(2) above the pivot."""
    kinetic = 0.5 * I_CO_BAR * omega_c**2 + 0.5 * I_WG * (omega_c + omega_w) ** 2
    return kinetic + MGD * (q0 + q1) / math.sqrt(2.0)


def settle(t, y, band):
    """Earliest time after which |y| stays within band (inf if it ends outside).

    The benchmark's own, so that no check rests on sim.settling_time.
    """
    import numpy as np

    outside = np.nonzero(np.abs(y) > band)[0]
    if outside.size == 0:
        return float(t[0])
    after = outside[-1] + 1
    return float(t[after]) if after < len(t) else math.inf


def config_args(*sets):
    """The arguments `cli.load_config` receives for a command with no config file."""
    return argparse.Namespace(config_file=None, config=None, set=list(sets) or None)


def run_cli(argv):
    from cubli import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# reference: `cubli simulate` on the default config


def setup_reference(seed, size, out_dir):
    from cubli import cli, control, plant

    cfg = cli.load_config(config_args())
    dp = plant.derive(cfg.params, cfg.friction, cfg.controller_gravity)
    control.gains_for_mode(cfg.mode, cli.design_spec(cfg), dp)
    csv = out_dir / f"reference-{os.getpid()}.csv"
    return {"argv": ["simulate", "--out", str(csv)], "csv": csv}


def run_reference(inputs):
    code, _ = run_cli(inputs["argv"])
    return {"code": code}


def check_reference(inputs, outputs):
    import numpy as np
    from cubli.sim import TimeSeries

    csv = inputs["csv"]
    try:
        if outputs["code"] != 0:
            return [f"simulate exited {outputs['code']}"]
        problems = []
        with open(csv, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
        if header != ",".join(TimeSeries.COLUMNS):
            problems.append(f"header {header!r} is not TimeSeries.COLUMNS")
            return problems
        data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        n = int(round(REFERENCE_T_END / REFERENCE_DT)) + 1
        if data.shape != (n, len(TimeSeries.COLUMNS)):
            return problems + [f"CSV has shape {data.shape}, expected ({n}, {len(TimeSeries.COLUMNS)})"]
        c = dict(zip(TimeSeries.COLUMNS, data.T))
        t = c["t"]

        def require(ok, message):
            if not ok:
                problems.append(message)

        require(np.max(np.abs(t - np.arange(n) * REFERENCE_DT)) <= 1e-9, "t_k is not k dt")
        require(np.max(np.abs(np.hypot(c["q0"], c["q1"]) - 1.0)) <= 1e-12, "|q| drifts from 1 by more than 1e-12")
        theta = np.degrees(np.arctan2(c["q1"], c["q0"]))
        require(np.max(np.abs(c["theta_c_deg"] - theta)) <= 1e-9, "theta_c_deg is not atan2(q1, q0)")
        require(np.array_equal(c["tau_applied"], np.clip(c["tau_cmd"], -TAU_MAX, TAU_MAX)), "tau_applied is not clip(tau_cmd)")
        e = energy(c["q0"], c["q1"], c["omega_c"], c["omega_w"])
        require(np.max(np.abs(c["energy"] - e)) <= 1e-12, "energy disagrees with the hand-derived formula")

        err = c["theta_c_deg"] - REFERENCE_ANGLE_DEG
        calm = t < PULSES[0][0]
        att = settle(t[calm], err[calm], 0.5)
        require(att < 1.0, f"attitude settles in {att:.3f} s (need < 1 s)")
        wheel_peak = float(np.max(np.abs(c["omega_w"][calm])))
        wheel = settle(t[calm], c["omega_w"][calm], 0.02 * wheel_peak)
        require(7.0 <= wheel / att <= 13.0, f"wheel/attitude settling ratio {wheel / att:.2f} not in [7, 13]")
        ends = [start + duration for start, duration in PULSES]
        for end, next_start in zip(ends, [p[0] for p in PULSES[1:]] + [math.inf]):
            window = (t >= end) & (t < next_start)
            require(np.max(np.abs(err[window])) > 0.2, f"the pulse ending at {end:g} s does not perturb the attitude")
            recovery = settle(t[window], err[window], 0.5) - end
            require(recovery < 2.0, f"pulse ending at {end:g} s recovered in {recovery:.3f} s (need < 2 s)")
        # The wheel feedback unwinds the wheel.  |omega_w| <= 0.1 rad/s is not
        # reached on this config: the slowest designed pole, a double pole at
        # -alpha zeta omega_n = -0.86 rad/s, leaves 0.26 rad/s at 9 s and
        # 5.4 rad/s at 20 s, 4 s after the last pulse.  So the check is on the
        # decay: below 1% of the first peak by the first pulse, and below 20%
        # of the last pulse's peak at the end.
        wheel_left = abs(c["omega_w"][calm][-1]) / wheel_peak
        require(wheel_left <= 0.01, f"|omega_w| before the first pulse is {wheel_left:.2%} of its peak (need <= 1%)")
        last = t >= ends[-1]
        wheel_end = abs(c["omega_w"][-1]) / np.max(np.abs(c["omega_w"][last]))
        require(wheel_end <= 0.2, f"final |omega_w| is {wheel_end:.1%} of the last pulse's peak (need <= 20%)")
        with open(csv, "rb") as handle:
            outputs["csv_sha256"] = hashlib.sha256(handle.read()).hexdigest()
        return problems
    finally:
        csv.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# ensemble: N seeded trajectories stacked through sim.rk4_step


def setup_ensemble(seed, size, out_dir):
    import numpy as np
    from cubli import cli, plant

    cfg = cli.load_config(config_args())
    dp = plant.derive(cfg.params, plant.FRICTION_FREE, cfg.plant_gravity)
    n, steps = SIZES[size]["ensemble"]
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, n)
    omega_c = rng.uniform(-5.0, 5.0, n)
    omega_w = rng.uniform(-200.0, 200.0, n)
    x0 = np.stack([np.cos(theta), np.sin(theta), np.zeros(n), omega_c, omega_w])
    columns = rng.choice(n, ENSEMBLE_COLUMNS, replace=False)
    return {"x0": x0, "steps": steps, "dp": dp, "gravity": cfg.plant_gravity, "columns": columns}


def integrate(x, inputs):
    from cubli import plant, sim

    dp, gravity = inputs["dp"], inputs["gravity"]
    for _ in range(inputs["steps"]):
        x = sim.rk4_step(x, 0.0, ENSEMBLE_DT, dp, plant.FRICTION_FREE, gravity, plant.Fidelity.EXACT)
    return x


def run_ensemble(inputs):
    return {"x": integrate(inputs["x0"], inputs)}


def check_ensemble(inputs, outputs):
    import numpy as np

    x0, x = inputs["x0"], outputs["x"]
    problems = []
    if x.shape != x0.shape or not np.all(np.isfinite(x)):
        return [f"final state has shape {x.shape} or is not finite"]
    drift = np.max(np.abs(energy(x[0], x[1], x[3], x[4]) - energy(x0[0], x0[1], x0[3], x0[4]))) / MGD
    if not drift <= ENSEMBLE_ENERGY_TOL:
        problems.append(f"energy drift {drift:.3e} mgd exceeds {ENSEMBLE_ENERGY_TOL:.0e}")
    norm = np.max(np.abs(np.hypot(x[0], x[1]) - 1.0))
    if not norm <= UNIT_NORM_TOL:
        problems.append(f"unit-norm drift {norm:.3e} exceeds {UNIT_NORM_TOL:.0e}")
    for j in inputs["columns"]:
        alone = integrate(x0[:, j].copy(), inputs)
        if not np.all(np.abs(alone - x[:, j]) <= COLUMN_REL_TOL * np.maximum(1.0, np.abs(alone))):
            problems.append(f"column {j} integrated alone differs from the stacked result")
    return problems


# ---------------------------------------------------------------------------
# verify: `cubli verify` on the default config


def setup_verify(seed, size, out_dir):
    from cubli import cli, control, plant

    cfg = cli.load_config(config_args())
    dp_by_model = {model: plant.derive(cfg.params, cfg.friction, model) for model in plant.GravityModel}
    control.gains_for_mode(cfg.mode, cli.design_spec(cfg), dp_by_model[cfg.controller_gravity])
    return {"argv": ["verify"]}


def run_verify(inputs):
    code, text = run_cli(inputs["argv"])
    return {"code": code, "stdout": text}


VALUE_TOL = re.compile(r"= (\S+?)(?: relative)? \(tol ([^,)]+)")


def check_verify(inputs, outputs):
    """Every named check PASSes with each printed value below its printed tolerance."""
    if outputs["code"] != 0:
        return [f"verify exited {outputs['code']}"]
    lines = outputs["stdout"].strip().splitlines()
    problems = []
    if not lines or lines[-1] != "verification: PASS":
        problems.append("output does not end with 'verification: PASS'")
    seen = []
    for line in lines[:-1]:
        name, _, rest = line.partition(": ")
        seen.append(name)
        if not rest.endswith(" PASS"):
            problems.append(f"{name} does not PASS")
        if name == "controllability_rank":
            if not re.fullmatch(r"rank = 4/5 PASS", rest):
                problems.append(f"controllability rank is not 4/5: {rest}")
            continue
        pairs = VALUE_TOL.findall(rest)
        if not pairs:
            problems.append(f"{name} prints no value and tolerance")
        for value, tol in pairs:
            if not float(value) < float(tol):
                problems.append(f"{name}: value {value} is not below its tolerance {tol}")
    if tuple(seen) != VERIFY_CHECKS:
        problems.append(f"checks are {seen}, expected {list(VERIFY_CHECKS)}")
    return problems


# ---------------------------------------------------------------------------
# identify: `cubli fit-friction --synthetic`, repeated in one process


def setup_identify(seed, size, out_dir):
    from cubli import cli, plant

    sets = [f"friction.{key}={value!r}" for key, value in FRICTION.items()]
    cfg = cli.load_config(config_args(*sets))
    plant.derive(cfg.params, cfg.friction, cfg.plant_gravity)
    argv = ["fit-friction", "--synthetic"]
    for item in sets:
        argv += ["--set", item]
    return {"argv": argv, "repeats": SIZES[size]["identify"]}


def run_identify(inputs):
    return {"runs": [run_cli(inputs["argv"]) for _ in range(inputs["repeats"])]}


def check_identify(inputs, outputs):
    problems = []
    for code, text in outputs["runs"]:
        if code != 0:
            problems.append(f"fit-friction exited {code}")
            continue
        fitted = dict(re.findall(r"^(tau_c|b_w|c_d)\s+(\S+)", text, re.MULTILINE))
        for key, true in FRICTION.items():
            if key not in fitted:
                problems.append(f"fit prints no {key}")
            elif not abs(float(fitted[key]) - true) <= FIT_REL_TOL * true:
                problems.append(f"fitted {key} = {fitted[key]} is not within {FIT_REL_TOL:.0e} of {true!r}")
    return problems


WORKLOADS = {
    "reference": (setup_reference, run_reference, check_reference),
    "ensemble": (setup_ensemble, run_ensemble, check_ensemble),
    "verify": (setup_verify, run_verify, check_verify),
    "identify": (setup_identify, run_identify, check_identify),
}


# ---------------------------------------------------------------------------
# the traced unit's extra figures


def us_per_traj_step(seed):
    """Cost of one trajectory-step of sim.rk4_step on stacked (5, N) states."""
    import numpy as np
    from cubli import cli, plant, sim

    cfg = cli.load_config(config_args())
    dp = plant.derive(cfg.params, cfg.friction, cfg.plant_gravity)
    rng = np.random.default_rng(seed)
    figures = {}
    for n, steps in ((1, 2000), (100, 1000), (10_000, 50)):
        theta = rng.uniform(-math.pi, math.pi, n)
        x = np.stack([np.cos(theta), np.sin(theta), np.zeros(n), rng.uniform(-5, 5, n), rng.uniform(-200, 200, n)])
        start = time.perf_counter()
        for _ in range(steps):
            x = sim.rk4_step(x, 0.0, ENSEMBLE_DT, dp, cfg.friction, cfg.plant_gravity, plant.Fidelity.EXACT)
        figures[f"sim.rk4_step.us_per_traj_step.n{n}"] = (time.perf_counter() - start) / (steps * n) * 1e6
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True, help="directory for outputs (the CSV, the spans)")
    parser.add_argument("--probe", action="store_true", help="stop once the workload is ready")
    parser.add_argument("--trace", action="store_true", help="record spans and report per-layer figures")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    started = time.perf_counter()
    import cubli  # noqa: F401  (the timed import, numpy included)

    import_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.size, out_dir)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.probe:
        print(json.dumps(result))
        return 0

    mark = tracer.mark() if tracer else 0
    outputs = run(inputs)
    done = time.perf_counter()
    result["wall_s"] = done - ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        csv = inputs.get("csv")
        csv_bytes = csv.stat().st_size if csv is not None and csv.exists() else 0
        layers = {"import.s": import_s}
        layers.update(spans.layer_metrics(tracer.table(mark), tracer.table(0, mark), csv_bytes))
        layers.update(us_per_traj_step(args.seed))
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        result["layers"] = layers
    result["problems"] = check(inputs, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
