import json
import math
from pathlib import Path

import numpy as np
import pytest

from cubli import cli, sim, verify
from cubli.errors import ValidationError
from cubli.plant import CubliParams, FrictionParams


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


def test_params_defaults(capsys):
    assert run_cli("params") == 0
    out = capsys.readouterr().out
    assert "1.331250e-02" in out          # I_cO_bar
    assert "0.0848" in out                # omega_1
    assert "8.150838" in out              # omega_0 consistent
    assert "6.854011" in out              # omega_0 paper-literal
    assert "106.5" in out                 # gamma


def test_params_json(capsys):
    assert run_cli("params", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma"] == "106.5"
    assert data["d"].startswith("0.106066")


def test_params_validation_error_names_key(capsys):
    assert run_cli("params", "--set", "physics.l=-1") == cli.EXIT_VALIDATION
    assert "physics.l" in capsys.readouterr().err


def test_unknown_key_rejected(capsys):
    assert run_cli("params", "--set", "physics.mass=1") == cli.EXIT_VALIDATION
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, "# test rig\nphysics.l = 0.30\n")
    assert run_cli("params", path) == 0
    out = capsys.readouterr().out
    assert "0.212132" in out  # d doubles with l


def test_config_file_syntax_error(tmp_path, capsys):
    path = write_config(tmp_path, "physics.l 0.30\n")
    assert run_cli("params", path) == cli.EXIT_VALIDATION
    assert "expected key = value" in capsys.readouterr().err


def passes_coefficient_gate(out):
    """The printed coefficient error of cubli gains passes the pole gate."""
    return verify.coefficient_gate(float(out.split("coefficient error")[1].split()[0]))[0]


def test_gains_default(capsys):
    assert run_cli("gains") == 0
    out = capsys.readouterr().out
    assert "k_pw" in out and "designed poles" in out
    assert passes_coefficient_gate(out)


def test_gains_alpha_zero(capsys):
    assert run_cli("gains", "--set", "control.alpha=0") == 0
    out = capsys.readouterr().out
    assert float(out.split("k_pw")[1].split()[0]) == 0.0
    assert float(out.split("k_dw")[1].split()[0]) == 0.0


def test_gains_attitude_only_places_the_alpha_zero_design(capsys):
    # attitude-only feeds back no wheel state: its gains are the design at alpha = 0
    assert run_cli("gains", "--set", "control.mode=attitude-only") == 0
    out = capsys.readouterr().out
    assert float(out.split("alpha")[1].split()[0]) == 0.0
    assert float(out.split("k_pw")[1].split()[0]) == 0.0
    assert passes_coefficient_gate(out)


def test_gains_close_double_poles_pass(capsys):
    code = run_cli(
        "gains",
        "--set", "control.zeta=1",
        "--set", "control.omega_n_factor=0.490748",
        "--set", "control.alpha=0.999",
    )
    assert code == 0
    assert passes_coefficient_gate(capsys.readouterr().out)


def test_gains_near_coalescent_poles_pass(capsys):
    # the attitude pair 0.0057 from the double wheel pole: eigvals cannot
    # resolve them to 1e-6, but their polynomial matches the design
    code = run_cli(
        "gains",
        "--set", "control.zeta=0.999999",
        "--set", "control.omega_n_factor=0.490748",
        "--set", "control.alpha=0.999",
    )
    assert code == 0
    assert passes_coefficient_gate(capsys.readouterr().out)


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code = run_cli(
        "simulate",
        "--set", "scenario.t_end=2.0",
        "--set", "scenario.disturbances=none",
        "--out", str(out_csv),
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "attitude settling" in summary
    lines = out_csv.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2002  # header + 2001 records
    first = lines[1].split(",")
    assert len(first) == 12
    assert float(first[0]) == 0.0


def test_write_csv_matches_per_value_repr(tmp_path, monkeypatch):
    # Edge values: signed zero, tiny, subnormal, huge, non-finite, and a value
    # whose shortest repr needs all 17 digits; blocks of 5 rows end mid-table.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 5)
    special = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1e300, math.nan, math.inf, -math.inf,
               0.1 + 0.2, -1.0 / 3.0, 12345.678901234567]
    n = len(special)
    columns = {
        name: np.roll(np.array(special), shift) for shift, name in enumerate(sim.TimeSeries.COLUMNS)
    }
    ts = sim.TimeSeries(**columns)
    path = tmp_path / "special.csv"
    cli.write_csv(ts, str(path))
    expected = [",".join(sim.TimeSeries.COLUMNS)]
    for k in range(n):
        expected.append(",".join(repr(float(columns[name][k])) for name in sim.TimeSeries.COLUMNS))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_simulate_csv_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert run_cli(
            "simulate", "--set", "scenario.t_end=1.0", "--out", str(path)
        ) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_divergence_exit_code(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--set", "scenario.dt=0.9",
        "--set", "scenario.t_end=900",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == cli.EXIT_SIMULATION
    assert "t =" in capsys.readouterr().err


def test_simulate_zero_t_end_rejected(capsys):
    assert run_cli("simulate", "--set", "scenario.t_end=0") == cli.EXIT_VALIDATION
    assert "scenario.t_end" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_params_non_finite_rejected(value, capsys):
    assert run_cli("params", "--set", f"friction.tau_c={value}") == cli.EXIT_VALIDATION
    assert "friction.tau_c" in capsys.readouterr().err


def test_simulate_nan_initial_angle_names_key(tmp_path, capsys):
    code = run_cli(
        "simulate", "--set", "scenario.initial_angle_deg=nan", "--out", str(tmp_path / "x.csv")
    )
    assert code == cli.EXIT_VALIDATION
    assert "scenario.initial_angle_deg" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_nan_disturbance_rejected(tmp_path, capsys):
    code = run_cli(
        "simulate", "--set", "scenario.disturbances=nan:0.1:0.05", "--out", str(tmp_path / "x.csv")
    )
    assert code == cli.EXIT_VALIDATION
    assert "scenario.disturbances" in capsys.readouterr().err


def test_simulate_off_grid_end_time_rejected(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--set", "scenario.dt=0.01",
        "--set", "scenario.t_end=0.0105",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == cli.EXIT_VALIDATION
    assert "t_end" in capsys.readouterr().err


def test_simulate_attitude_only_bias_flags_wheel(tmp_path, capsys):
    code = run_cli(
        "simulate",
        "--mode", "attitude-only",
        "--sensor-bias-deg", "5",
        "--set", "scenario.t_end=6.0",
        "--set", "scenario.initial_angle_deg=45",
        "--set", "scenario.disturbances=none",
        "--out", str(tmp_path / "bias.csv"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "NOT converged" in out
    assert "final attitude (sensor)" in out


def test_verify_passes_and_negative_control_fails(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "controllability_rank: rank = 4/5 PASS" in out
    assert "energy_drift" in out and "FAIL" not in out

    assert run_cli("verify", "--negative-control") == cli.EXIT_VERIFICATION
    out = capsys.readouterr().out
    assert "oracle_equivalence" in out and "FAIL" in out


def test_fit_friction_synthetic(capsys):
    assert run_cli("fit-friction", "--synthetic") == 0
    out = capsys.readouterr().out
    tau_c = float(out.split("tau_c")[1].split()[0])
    b_w = float(out.split("b_w")[1].split()[0])
    c_d = float(out.split("c_d")[1].split()[0])
    assert tau_c == pytest.approx(2.46e-3, rel=1e-3)
    assert b_w == pytest.approx(1.06e-5, rel=1e-2)
    assert c_d == pytest.approx(1.70e-8, rel=1e-2)
    at_300 = float(out.split("model at 300 rad/s")[1].split()[0])
    assert at_300 == pytest.approx(7.17e-3, rel=1e-3)


def test_fit_friction_from_csv(tmp_path, capsys):
    rows = ["tau,omega_ss"]
    for w in (50.0, 150.0, 300.0, 450.0, 600.0):
        tau = 2.46e-3 + 1.06e-5 * w + 1.70e-8 * w * w
        rows.append(f"{tau!r},{w!r}")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("fit-friction", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert float(out.split("tau_c")[1].split()[0]) == pytest.approx(2.46e-3, rel=1e-6)


def test_fit_friction_malformed_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("tau,omega_ss\n1e-3,100\nnot-a-number\n")
    assert run_cli("fit-friction", "--input", str(path)) == cli.EXIT_VALIDATION
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["nan,100", "3e-3,inf"])
def test_fit_friction_non_finite_row_reports_line(row, tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text(f"tau,omega_ss\n{row}\n5e-3,200\n7e-3,300\n9e-3,400\n")
    assert run_cli("fit-friction", "--input", str(path)) == cli.EXIT_VALIDATION
    assert ":2:" in capsys.readouterr().err


def test_fit_friction_rank_deficiency_exit(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("3e-3,100\n5e-3,300\n")
    assert run_cli("fit-friction", "--input", str(path)) == cli.EXIT_VALIDATION
    assert "distinct" in capsys.readouterr().err


def test_fit_friction_requires_source(capsys):
    assert run_cli("fit-friction") == cli.EXIT_VALIDATION


def test_build_config_defaults_match_reference_experiment():
    cfg = cli.build_config({})
    assert cfg.params == CubliParams()
    assert cfg.friction == FrictionParams()
    assert cfg.zeta == pytest.approx(0.7071067811865476)
    assert cfg.omega_n_factor == 1.5
    assert cfg.alpha == 0.1
    assert cfg.reference_angle_deg == 45.0
    assert cfg.initial_angle_deg == 40.0
    assert len(cfg.disturbances) == 2
    assert cfg.disturbances[0].start == 9.0
    assert cfg.disturbances[1].start == 16.0


def test_sample_config_and_defaults_are_the_config_declaration():
    sample = Path(__file__).resolve().parent.parent / "demos" / "experiment.cfg"
    assert cli.build_config(cli.read_config_file(str(sample))) == cli.Config()
    assert cli.build_config({}) == cli.Config()


def test_disturbance_parse_errors():
    with pytest.raises(ValidationError):
        cli.build_config({"scenario.disturbances": "1.0:0.1"})
    with pytest.raises(ValidationError):
        cli.build_config({"scenario.disturbances": "1.0:-0.1:0.05"})
