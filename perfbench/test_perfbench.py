"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload runs through its own set-up, run and checks (the ensemble and
the identification at their tiny sizes), the checks are shown to catch a
wrong output, the verify negative control fails on the oracle alone, the
reference CSV is the same byte for byte across two runs, and run.py
prints exactly the metrics BENCHMARK.json names.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def unit(name, out_dir, size="tiny", seed=1):
    setup, run, check = workloads.WORKLOADS[name]
    inputs = setup(seed, size, out_dir)
    outputs = run(inputs)
    return inputs, outputs, check


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_passes_its_checks_and_its_csv_is_deterministic(tmp_path):
    digests = []
    for _ in range(2):
        inputs, outputs, check = unit("reference", tmp_path)
        assert check(inputs, outputs) == []
        digests.append(outputs["csv_sha256"])
    assert digests[0] == digests[1]


def test_reference_checks_catch_a_wrong_energy(tmp_path):
    inputs, outputs, check = unit("reference", tmp_path)
    lines = inputs["csv"].read_text().splitlines()
    row = lines[100].split(",")
    row[-1] = repr(float(row[-1]) + 1e-9)
    lines[100] = ",".join(row)
    inputs["csv"].write_text("\n".join(lines) + "\n")
    assert check(inputs, outputs) == ["energy disagrees with the hand-derived formula"]


def test_ensemble_passes_its_checks_and_they_catch_a_stray_column(tmp_path):
    inputs, outputs, check = unit("ensemble", tmp_path)
    assert check(inputs, outputs) == []
    column = inputs["columns"][0]
    outputs["x"][2, column] *= 1.0 + 1e-9  # the wheel angle: energy and norm stay right
    assert check(inputs, outputs) == [f"column {column} integrated alone differs from the stacked result"]


def test_identify_passes_its_checks(tmp_path):
    inputs, outputs, check = unit("identify", tmp_path)
    assert len(outputs["runs"]) == 1
    assert check(inputs, outputs) == []


def test_verify_passes_its_checks(tmp_path):
    inputs, outputs, check = unit("verify", tmp_path)
    assert check(inputs, outputs) == []


def test_negative_control_fails_on_the_oracle_alone():
    code, text = workloads.run_cli(["verify", "--negative-control"])
    assert code == 4
    failing = [line.split(":")[0] for line in text.splitlines() if line.endswith(" FAIL")]
    assert failing == ["oracle_equivalence", "verification"]
    problems = workloads.check_verify({}, {"code": 0, "stdout": text})
    assert any(re.match(r"oracle_equivalence: value \S+ is not below its tolerance 1e-8", p) for p in problems)


def test_run_prints_every_end_to_end_metric():
    result = bench("--workload", "identify", "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_counts_repeat():
    runs = [
        bench("--workload", "ensemble", "--seed", "5", "--seconds", "1", "--trace", "1", "--size", "tiny")
        for _ in range(2)
    ]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    counts = [name for name, unit in expected.items() if unit in ("count", "lines")]
    first, second = ({name: r["metrics"][name]["value"] for name in counts} for r in runs)
    assert first == second
    assert first["sim.rk4_step.calls"] == 20 and first["plant.dynamics_rate.calls"] == 80


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
