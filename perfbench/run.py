"""cubli benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Each unit of work runs in a fresh single-threaded process (perfbench/
workloads.py), as a user's command would.  With --trace 0 the run spends
--seconds on set-up probes and untraced units, and reports the medians of the
end-to-end metrics.  With --trace 1 it alternates untraced and traced units
and reports the per-layer metrics of the traced ones.  The last line of
standard output is one JSON object; every output file goes to .perfbench/.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("reference", "ensemble", "verify", "identify")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.s": "s",
    "cli.load_config.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.mb_per_s": "MB/s",
    "sim.run.self_s": "s",
    "sim.rk4_step.calls": "count",
    "sim.rk4_step.self_s": "s",
    "sim.rk4_step.us_per_traj_step.n1": "us",
    "sim.rk4_step.us_per_traj_step.n100": "us",
    "sim.rk4_step.us_per_traj_step.n10000": "us",
    "plant.dynamics_rate.calls": "count",
    "plant.dynamics_rate.self_s": "s",
    "plant.friction_torque.calls_per_step": "count",
    "plant.angle_dynamics_rate.s": "s",
    "plant.energies.s": "s",
    "control.regulator.s": "s",
    "control.feedback_linearize.s": "s",
    "rotor.calls": "count",
    "rotor.s": "s",
    "analysis.s": "s",
    "sim.steady_state_sweep.s": "s",
    "sim.fit_friction.s": "s",
    "trace.overhead_s": "s",
    "cubli.src_lines": "lines",
}

PROBES = 4  # set-up-only processes per untraced run, after one warm-up
MIN_UNITS = 2  # units per untraced run (pairs per traced run: 1), even past --seconds
CHILD_TIMEOUT_S = 150

# One process, one thread: numpy's BLAS and OpenMP pools stay at one thread, so
# a run uses one of the machine's cores and run.py waits on the other.  Every
# process compiles cubli from source, so set-up does not depend on bytecode
# left in a checkout, and no run writes into src/.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class Runner:
    def __init__(self, workload: str, seed: int, size: str):
        self.base = [
            sys.executable, str(ROOT / "perfbench" / "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--size", size, "--out", str(OUT),
        ]
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, *flags: str) -> dict | None:
        """Start one fresh process; None if it failed.  Adds its set-up time."""
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                self.base + list(flags), cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"unit {flags} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"unit {flags} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        result["elapsed_s"] = time.perf_counter() - spawned
        return result

    def unit(self, *flags: str) -> dict | None:
        """One counted operation: a unit of work whose outputs are checked."""
        self.attempted += 1
        result = self.spawn(*flags)
        if result is None:
            self.failed += 1
        else:
            self.problems += result["problems"]
        return result


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src" / "cubli").glob("*.py"))


def untraced_run(runner: Runner, deadline: float):
    runner.spawn("--probe")  # warm-up: brings the interpreter, numpy and cubli into the page cache
    probes = [runner.spawn("--probe") for _ in range(PROBES)]
    units = []
    while True:
        result = runner.unit()
        if result is not None:
            units.append(result)
        last = result["elapsed_s"] if result else 0.0
        if runner.attempted >= MIN_UNITS and time.perf_counter() + last > deadline:
            break
    if not units:
        return None
    setups = [r["setup_s"] for r in probes + units if r is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in units),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in units),
    }, {"setup_s": setups, "wall_s": [r["wall_s"] for r in units]}


def traced_run(runner: Runner, deadline: float):
    runner.spawn("--probe")
    plain, traced = [], []
    while True:
        started = time.perf_counter()
        pair = runner.unit(), runner.unit("--trace")
        if None not in pair:
            plain.append(pair[0])
            traced.append(pair[1])
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    if not traced:
        return None
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    metrics["cubli.src_lines"] = source_lines()
    return metrics, {"plain_wall_s": [r["wall_s"] for r in plain], "traced_wall_s": [r["wall_s"] for r in traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubli" / "__init__.py").is_file():
        print(f"no cubli sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.size)
    deadline = time.perf_counter() + args.seconds
    measured = (traced_run if args.trace else untraced_run)(runner, deadline)
    if measured is None:
        print(f"every one of {runner.attempted} units failed", file=sys.stderr)
        return 1
    metrics, samples = measured
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "samples": samples, **result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
