"""Every demo script runs to completion, and demo 04 logs the CLI's run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubli import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo):
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_balance_run_csv_is_the_cli_csv(tmp_path):
    # demo 04 runs cli.Config(), the experiment `cubli simulate` runs on no config
    result = run_demo(ROOT / "demos" / "04_balance_run.py")
    assert result.returncode == 0, result.stderr
    assert cli.main(["simulate", "--out", str(tmp_path / "cli.csv")]) == cli.EXIT_OK
    assert (ROOT / "demos" / "balance_run.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
