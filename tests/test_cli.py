import dataclasses
import errno
import itertools
import json
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubli import cli, csvlog, plant, sim, verify
from cubli.control import Mode
from cubli.errors import ValidationError
from cubli.plant import CubliParams, Fidelity, FrictionParams, GravityModel


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


def test_config_file_duplicate_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "physics.l = 0.3\n# the last value used to win\nphysics.l = 0.2\n")
    assert run_cli("params", path) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:3: duplicate key physics.l\n"


def test_set_overrides_the_file_and_the_last_set_wins(tmp_path, capsys):
    path = write_config(tmp_path, "physics.l = 0.1\n")
    assert run_cli("params", path, "--set", "physics.l=0.2", "--set", "physics.l=0.3") == 0
    assert "0.212132" in capsys.readouterr().out  # d of l = 0.3


@pytest.mark.parametrize(
    "command, flag",
    [(["params"], []), (["fit-friction"], ["--input"])],
    ids=["config-file", "fit-friction-input"],
)
def test_non_utf8_file_names_its_path(command, flag, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# fine\n\xff = 1\n")
    assert run_cli(*command, *flag, str(path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text (invalid start byte)\n"


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes("\ufeffphysics.l = 0.3\n".encode("utf-8"))
    assert run_cli("params", str(path)) == 0
    assert "0.212132" in capsys.readouterr().out  # d of l = 0.3


def test_config_option_is_gone(capsys):
    # the config file is the positional argument only
    with pytest.raises(SystemExit) as exc:
        run_cli("params", "--config", "a.cfg")
    assert exc.value.code == cli.EXIT_VALIDATION


def passes_pole_gate(out):
    """The printed coefficient error of cubli gains passes the pole gate."""
    return verify.gate(float(out.split("coefficient error")[1].split()[0]))[0]


def test_gains_default(capsys):
    assert run_cli("gains") == 0
    out = capsys.readouterr().out
    assert "k_pw" in out and "designed poles" in out
    assert passes_pole_gate(out)


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
    assert passes_pole_gate(out)


def test_gains_close_double_poles_pass(capsys):
    code = run_cli(
        "gains",
        "--set", "control.zeta=1",
        "--set", "control.omega_n_factor=0.490748",
        "--set", "control.alpha=0.999",
    )
    assert code == 0
    assert passes_pole_gate(capsys.readouterr().out)


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
    assert passes_pole_gate(capsys.readouterr().out)


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
    assert lines[0] == csvlog.HEADER
    assert len(lines) == 2002  # header + 2001 records
    first = lines[1].split(",")
    assert len(first) == 12
    assert float(first[0]) == 0.0


def test_write_csv_matches_per_value_repr(tmp_path, monkeypatch):
    # Edge values: signed zero, tiny, subnormal, huge, non-finite, and a value
    # whose shortest repr needs all 17 digits; blocks of 5 rows end mid-table.
    monkeypatch.setattr(csvlog, "CSV_BLOCK_ROWS", 5)
    special = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1e300, math.nan, math.inf, -math.inf,
               0.1 + 0.2, -1.0 / 3.0, 12345.678901234567]
    n = len(special)
    columns = {
        name: np.roll(np.array(special), shift) for shift, name in enumerate(sim.TimeSeries.COLUMNS)
    }
    # tau_applied has tau_cmd's bits (the writer reuses its string) but on two
    # rows and on the zeros, where 0.0 meets -0.0; the NaN row keeps its NaN
    cmd = columns["tau_cmd"]
    applied = cmd.copy()
    applied[[0, 5]] = (0.25, -7.5)
    applied[cmd == 0.0] = -cmd[cmd == 0.0]
    assert np.isnan(cmd).sum() == 1 and (cmd == 0.0).sum() == 2
    columns["tau_applied"] = applied
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


# simulate writes its CSV in a writer forked before the first step, which
# formats each block as the run logs it, or after the run where no second core
# or no fork is to be had; either way into a file that replaces --out once whole


def set_cores(monkeypatch, cores):
    """sim.usable_cores's reading, through the affinity mask it reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "failed-fork", "one-core"])
def writer(request, monkeypatch):
    """How simulate writes its CSV: in a forked writer, or after the run when the
    fork fails or one core is usable.  Yields the list each fork appends to."""
    forks, fork = [], os.fork
    set_cores(monkeypatch, 1 if request.param == "one-core" else 2)
    monkeypatch.setattr(os, "fork", no_fork if request.param == "failed-fork" else lambda: forks.append(1) or fork())
    yield forks
    assert_no_child_left()


DIVERGES = ("--set", "scenario.dt=0.9", "--set", "scenario.t_end=900")


@pytest.mark.parametrize("rows", [3, 5, 6, 10, 11])
@settings(deadline=None, max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mode=st.sampled_from(Mode),
    plant_gravity=st.sampled_from(GravityModel),
    controller_gravity=st.sampled_from(GravityModel),
    fidelity=st.sampled_from(Fidelity),
    bias=st.floats(-5.0, 5.0),
)
def test_the_csv_written_while_the_run_steps_is_the_csv_of_the_run(
    rows, mode, plant_gravity, controller_gravity, fidelity, bias, tmp_path, monkeypatch
):
    # blocks of 5 rows: the last one short, whole, and one row long
    monkeypatch.setattr(csvlog, "CSV_BLOCK_ROWS", 5)
    set_cores(monkeypatch, 2)
    cfg = cli.Config(
        mode=mode, plant_gravity=plant_gravity, controller_gravity=controller_gravity, fidelity=fidelity,
        sensor_bias_deg=bias, dt=0.01, t_end=(rows - 1) * 0.01, output_path=str(tmp_path / "forked.csv"),
    )
    forks, fork = [], os.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert cli.cmd_simulate(cfg) == cli.EXIT_OK
    assert len(forks) == 1
    cli.write_csv(sim.run(cfg.scenario), str(tmp_path / "serial.csv"))
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len((tmp_path / "forked.csv").read_text().splitlines()) == rows + 1
    assert_no_child_left()


def test_every_writer_writes_the_same_bytes_and_summary(writer, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(csvlog, "CSV_BLOCK_ROWS", 64)
    args = ("--set", "scenario.t_end=1", "--sensor-bias-deg", "2", "--out")
    assert run_cli("simulate", *args, str(tmp_path / "run.csv")) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert len(writer) == (os.fork is not no_fork and sim.usable_cores() > 1)
    cfg = cli.Config(t_end=1.0, sensor_bias_deg=2.0)
    cli.write_csv(sim.run(cfg.scenario), str(tmp_path / "serial.csv"))
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    monkeypatch.undo()  # a forked writer, as the default
    assert run_cli("simulate", *args, str(tmp_path / "again.csv")) == cli.EXIT_OK
    assert capsys.readouterr().out == out.replace("run.csv", "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.csv", "run.csv", "serial.csv"]


def test_a_log_that_cannot_be_mapped_is_too_many_steps_to_allocate(tmp_path, monkeypatch, capsys):
    # an anonymous mapping that fails raises OSError(ENOMEM), where np.empty raised MemoryError
    import mmap

    def no_memory(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", no_memory)
    assert run_cli("simulate", "--set", "scenario.t_end=2", "--out", str(tmp_path / "x.csv")) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: t_end = 2.0 s is 2000 steps of dt = 0.001 s, too many to allocate\n"
    assert list(tmp_path.iterdir()) == []


def full_disk(monkeypatch):
    """Make the CSV's second block of rows fail part-way, as a full disk does."""
    real_open = open

    class FullDisk:
        def __init__(self, handle):
            self.handle, self.blocks = handle, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text)

        def writelines(self, lines):
            self.blocks += 1
            if self.blocks == 2:
                self.handle.writelines(itertools.islice(lines, 2))
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            self.handle.writelines(lines)

    def opener(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return FullDisk(handle) if mode == "w" else handle

    monkeypatch.setattr(csvlog, "CSV_BLOCK_ROWS", 5)
    monkeypatch.setattr(csvlog, "open", opener, raising=False)


def test_a_failed_write_leaves_the_old_csv_alone(writer, tmp_path, monkeypatch, capsys):
    path = tmp_path / "run.csv"
    path.write_bytes(b"the old CSV\n")
    full_disk(monkeypatch)
    assert run_cli("simulate", "--set", "scenario.t_end=0.02", "--out", str(path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert path.read_bytes() == b"the old CSV\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    with pytest.raises(OSError, match="No space left on device"):  # demo 04's write
        cli.write_csv(sim.run(cli.Config(t_end=0.02).scenario), str(path))
    assert path.read_bytes() == b"the old CSV\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


@pytest.mark.parametrize(
    "out, error",
    [
        ("missing/run.csv", "[Errno 2] No such file or directory: '{}'"),
        ("adir", "[Errno 21] Is a directory: '{}'"),
        ("adir/", "[Errno 21] Is a directory: '{}'"),
    ],
    ids=["missing-directory", "directory", "directory-slash"],
)
def test_an_out_that_cannot_be_written_exits_2_unless_the_run_fails(out, error, writer, tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    path = os.path.join(tmp_path, out)
    assert run_cli("simulate", "--set", "scenario.t_end=0.01", "--out", path) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: " + error.format(path) + "\n")
    # the run's error wins
    assert run_cli("simulate", *DIVERGES, "--out", path) == cli.EXIT_SIMULATION
    assert capsys.readouterr() == ("", "simulation error: integration produced a non-finite state at t = 3.6000 s\n")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"] and not list((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("out", ["adir", "adir/", "missing/"])
def test_a_directory_out_is_opened_as_it_is_and_fails_at_once(out, tmp_path):
    # no temporary file is written in full only to be refused
    (tmp_path / "adir").mkdir()
    path = os.path.join(tmp_path, out)
    with pytest.raises(IsADirectoryError, match=re.escape(f"Is a directory: '{path}'")):
        with csvlog.replacing(path) as tmp:
            assert tmp == path
            open(tmp, "w")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"] and not list((tmp_path / "adir").iterdir())


@pytest.mark.parametrize(
    "sets", [DIVERGES, ("--set", "scenario.reference_angle_deg=130")], ids=["diverging", "singular"]
)
def test_a_run_that_fails_leaves_no_file_and_no_process(sets, writer, tmp_path, capsys):
    assert run_cli("simulate", *sets, "--out", str(tmp_path / "run.csv")) == cli.EXIT_SIMULATION
    assert capsys.readouterr().err.startswith("simulation error: ")
    assert list(tmp_path.iterdir()) == []


def test_an_interrupted_simulate_leaves_the_old_csv_and_no_process(writer, tmp_path, monkeypatch):
    # Ctrl-C at step 500 of 1000, with the writer running
    path = tmp_path / "run.csv"
    path.write_bytes(b"the old CSV\n")
    stepper, steps = sim.float_stepper, []

    def interrupted(*args):
        step = stepper(*args)

        def interrupt(*x):
            steps.append(1)
            if len(steps) == 500:
                raise KeyboardInterrupt
            return step(*x)

        return interrupt

    monkeypatch.setattr(sim, "float_stepper", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("simulate", "--set", "scenario.t_end=1", "--out", str(path))
    assert path.read_bytes() == b"the old CSV\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_the_csv_replaces_a_file_keeping_its_mode_and_writes_through_a_symlink(tmp_path):
    ts = sim.run(cli.Config(t_end=0.01).scenario)
    umask = os.umask(0)
    os.umask(umask)
    cli.write_csv(ts, str(tmp_path / "new.csv"))
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~umask
    (tmp_path / "old.csv").write_text("old")
    (tmp_path / "old.csv").chmod(0o640)
    (tmp_path / "link.csv").symlink_to("old.csv")
    assert run_cli("simulate", "--set", "scenario.t_end=0.01", "--out", str(tmp_path / "link.csv")) == cli.EXIT_OK
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()
    assert stat.S_IMODE((tmp_path / "old.csv").stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv", "old.csv"]


# a float power raises OverflowError (omega_n = 1e100 omega_0), and a float
# product goes to inf without one (alpha^2 omega_n^4 at alpha = 1e153)
GAIN_OVERFLOWS = [
    ("control.omega_n_factor=1e100", "omega_n = 8.15e+100 rad/s with alpha = 0.1"),
    ("control.alpha=1e153", "omega_n = 12.2 rad/s with alpha = 1e+153"),
]


@pytest.mark.parametrize("command", ["gains", "simulate", "verify"])
@pytest.mark.parametrize("item, design", GAIN_OVERFLOWS, ids=[item for item, _ in GAIN_OVERFLOWS])
def test_overflowing_gains_rejected(command, item, design, tmp_path, capsys):
    args = ["--set", item]
    if command == "simulate":
        args += ["--set", "scenario.t_end=0.01", "--out", str(tmp_path / "x.csv")]
    assert run_cli(command, *args) == cli.EXIT_VALIDATION
    key = item.partition("=")[0]
    assert capsys.readouterr().err == f"error: {key}: {design}: the gains overflow\n"
    assert not (tmp_path / "x.csv").exists()


def test_simulate_zero_t_end_rejected(capsys):
    assert run_cli("simulate", "--set", "scenario.t_end=0") == cli.EXIT_VALIDATION
    assert "scenario.t_end" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_params_non_finite_rejected(value, capsys):
    assert run_cli("params", "--set", f"friction.tau_c={value}") == cli.EXIT_VALIDATION
    assert "friction.tau_c" in capsys.readouterr().err


# Each single-key range rule, and each rule across keys: every command loads
# the config the same way, so each exits 2 before any work with one message,
# naming each set key whose removal would remove or change the error.
ONE_PATH_CASES = [
    (["physics.l=-1"], "physics.l"),
    (["physics.m_s=0"], "physics.m_s"),
    (["physics.m_w=-1"], "physics.m_w"),
    (["physics.I_sG=0"], "physics.I_sG"),
    (["physics.I_wG=-1"], "physics.I_wG"),
    (["physics.g=0"], "physics.g"),
    (["friction.tau_c=-1"], "friction.tau_c"),
    (["friction.b_w=-1e-9"], "friction.b_w"),
    (["friction.c_d=-1"], "friction.c_d"),
    (["control.zeta=0"], "control.zeta"),
    (["control.zeta=1.01"], "control.zeta"),
    (["control.alpha=-0.1"], "control.alpha"),
    (["control.omega_n_factor=0"], "control.omega_n_factor"),
    (["control.tau_max=0"], "control.tau_max"),
    (["scenario.dt=-1e-3"], "scenario.dt"),
    (["scenario.t_end=0"], "scenario.t_end"),
    (["scenario.disturbances=1:0:0.05"], "scenario.disturbances"),
    (["scenario.dt=0.01", "scenario.t_end=0.0105"], "scenario.dt, scenario.t_end"),
    (["control.omega_n_factor=1e100"], "control.omega_n_factor"),
    (["scenario.t_end=0.0005"], "scenario.t_end"),
    (["physics.I_wG=0.01"], "physics.I_wG"),
    (["scenario.dt=1e-300"], "scenario.dt"),
    (["scenario.dt=0.3", "scenario.t_end=0.95"], "scenario.dt, scenario.t_end"),
    (["control.zeta=2", "physics.l=0.2"], "control.zeta"),
    # l = 1e200 overflows the inertias, which derive reports before the design sees omega_n
    (["control.omega_n_factor=0", "physics.l=1e200"], "physics.l"),
    (["physics.g=1e308", "physics.l=10"], "physics.g, physics.l"),
    (["physics.I_wG=1e-320"], "physics.I_wG"),
    # I_cO_bar = I_cO - I_wG rounds to 0, so gamma = 0 is rejected before omega_0 divides by it
    (["physics.I_wG=1e15"], "physics.I_wG"),
    (["physics.l=1e-200", "physics.I_sG=1e-320"], "physics.l, physics.I_sG"),
    # g = 5e-324 rounds m_c g d to 0, which derive reports before the design sees omega_n
    (["control.omega_n_factor=0", "physics.g=5e-324"], "physics.g"),
    # either key alone overflows omega_1 = b_w / I_wG
    (["friction.b_w=1e308", "physics.I_wG=1e-320"], "friction.b_w, physics.I_wG"),
]


@pytest.mark.parametrize("sets, keys", ONE_PATH_CASES, ids=[" ".join(sets) for sets, _ in ONE_PATH_CASES])
def test_every_command_rejects_a_config_alike_naming_its_keys(sets, keys, tmp_path, capsys):
    csv = tmp_path / "x.csv"
    commands = [["params"], ["gains"], ["verify"], ["simulate", "--out", str(csv)], ["fit-friction", "--synthetic"]]
    errors = []
    for command in commands:
        assert run_cli(*command, *(arg for item in sets for arg in ("--set", item))) == cli.EXIT_VALIDATION
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"error: {keys}: ")
    assert errors[0].count(f"{keys}: ") == 1
    assert errors == errors[:1] * len(commands)
    assert not csv.exists()


def test_output_path_is_never_blamed_for_the_experiment(capsys):
    # no one removal changes this error, so every set key is blamed, but output.path builds nothing
    sets = ("output.path=a.csv", "friction.b_w=1e308", "physics.I_wG=1e-320")
    assert run_cli("params", *(arg for item in sets for arg in ("--set", item))) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: friction.b_w, physics.I_wG: derived omega_1 overflows\n"


# Finite parameters whose derived values overflow, or underflow to 0: the error names
# the value and the keys it depends on, not a design rule that the value then breaks.
OVERFLOW_CASES = [
    (["physics.l=1e200"], "physics.l: derived I_sO overflows"),
    (["physics.I_sG=1e308"], "physics.I_sG: derived gamma overflows"),
    (["physics.g=1e308"], "physics.g: derived delta overflows"),
    # mgd = m_c g d does not depend on I_sG
    (["physics.I_sG=1e308", "physics.m_s=1e308"], "physics.m_s: derived mgd overflows"),
    (["physics.I_wG=1e-320"], "physics.I_wG: derived omega_1 overflows"),
    (["physics.g=5e-324"], "physics.g: derived mgd underflows to 0"),
    # mgd / I_cO_bar underflows, while delta = mgd / I_wG does not
    (["physics.g=5e-322", "physics.I_sG=100"], "physics.g, physics.I_sG: derived omega_0 underflows to 0"),
]


@pytest.mark.parametrize("sets, error", OVERFLOW_CASES, ids=[" ".join(sets) for sets, _ in OVERFLOW_CASES])
def test_params_names_the_derived_value_that_overflows(sets, error, capsys):
    assert run_cli("params", *(arg for item in sets for arg in ("--set", item))) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {error}\n"


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


def test_simulate_grid_beyond_2_53_steps_rejected(capsys):
    # past 2**53 steps every float is a whole number of steps; nothing is allocated
    assert run_cli("simulate", "--set", "scenario.t_end=1e300") == cli.EXIT_VALIDATION
    assert "t_end" in capsys.readouterr().err


def test_simulate_grid_too_large_to_allocate_exits_2_in_one_line(tmp_path, capsys):
    # 2e13 steps pass the 2**53 rule, but one float per step is 160 TB, past the
    # 128 TiB address space, so the first allocation fails at once on any host
    grid = ("--set", "scenario.t_end=2e10")
    assert run_cli("simulate", *grid, "--out", str(tmp_path / "x.csv")) == cli.EXIT_VALIDATION
    error = "error: t_end = 20000000000.0 s is 20000000000000 steps of dt = 0.001 s, too many to allocate\n"
    assert capsys.readouterr().err == error
    assert not (tmp_path / "x.csv").exists()
    for command in ("params", "gains"):  # they never allocate the grid
        assert run_cli(command, *grid) == cli.EXIT_OK


@pytest.mark.parametrize("start", ["30", "1e308", "-1e308"])
def test_simulate_pulse_outside_the_run_has_no_effect(start, tmp_path, capsys):
    # start / dt overflows to +/-inf at 1e308 s; such a pulse overlaps no step
    paths = [tmp_path / "quiet.csv", tmp_path / "pulse.csv"]
    for pulses, path in zip(("none", f"{start}:1:1"), paths):
        args = ("--set", "scenario.t_end=1", "--set", f"scenario.disturbances={pulses}", "--out", str(path))
        assert run_cli("simulate", *args) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


@pytest.mark.parametrize(
    "flag, key",
    [(("--sensor-bias-deg", "nan"), "scenario.sensor_bias_deg"), (("--mode", "upside-down"), "control.mode")],
    ids=["sensor-bias-nan", "unknown-mode"],
)
def test_simulate_flags_are_checked_as_their_config_keys(flag, key, tmp_path, capsys):
    assert run_cli("simulate", *flag, "--out", str(tmp_path / "x.csv")) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--out", ""), ("simulate", "--set", "output.path="), ("params", "--set", "output.path= ")],
    ids=["out-flag", "set-simulate", "set-params"],
)
def test_an_empty_output_path_is_rejected_at_load(argv, tmp_path, monkeypatch, capsys):
    # params writes no CSV, so its exit 2 shows the key is checked when the config loads
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: output.path: must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def test_out_flag_is_applied_after_every_set(tmp_path, capsys):
    path = tmp_path / "flag.csv"
    args = ("--set", f"output.path={tmp_path / 'set.csv'}", "--out", str(path), "--set", "scenario.t_end=0.01")
    assert run_cli("simulate", *args) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["csv", str(path)]
    assert [p.name for p in tmp_path.iterdir()] == ["flag.csv"]


def test_sensor_attitude_is_decoded_on_the_circle(tmp_path, capsys):
    args = ("--sensor-bias-deg", "170", "--set", "scenario.t_end=1", "--out", str(tmp_path / "x.csv"))
    assert run_cli("simulate", *args) == 0
    summary = capsys.readouterr().out.splitlines()
    assert "final attitude (true)    40.7531 deg" in summary
    assert "final attitude (sensor)  -149.2469 deg" in summary


def summary_of(*sets, tmp_path, capsys):
    args = [arg for item in sets for arg in ("--set", item)]
    assert run_cli("simulate", *args, "--out", str(tmp_path / "x.csv")) == 0
    # _print_kv pads each key with at least two spaces
    return dict(re.split(" {2,}", line, maxsplit=1) for line in capsys.readouterr().out.splitlines())


def test_simulate_summary_measures_settling_before_the_first_disturbance(tmp_path, capsys):
    # the default run: the pulses at 9 and 16 s do not count against settling
    summary = summary_of(tmp_path=tmp_path, capsys=capsys)
    assert summary["settling window"] == "t < 9 s (before the first disturbance)"
    assert summary["attitude settling"].startswith("0.651 s")
    assert summary["wheel velocity"] == "converged"
    # a run the first pulse does not reach is measured whole
    summary = summary_of("scenario.t_end=8", tmp_path=tmp_path, capsys=capsys)
    assert summary["settling window"] == "whole run"
    assert summary["attitude settling"].startswith("0.651 s")


@pytest.mark.parametrize("reference", ["45", "405", "-315"])
def test_simulate_summary_measures_attitude_settling_on_the_circle(reference, tmp_path, capsys):
    # 405 and -315 deg are the 45 deg pose: the controller's error, and so its settling, is the same
    summary = summary_of(f"scenario.reference_angle_deg={reference}", "scenario.t_end=2", tmp_path=tmp_path, capsys=capsys)
    assert summary["attitude settling"] == "0.651 s (within 0.5 deg of 45 deg)"


@pytest.mark.parametrize("start", ["0", "-1"])
def test_simulate_summary_with_a_pulse_at_the_start_reads_not_applicable(start, tmp_path, capsys):
    # each pulse acts from t = 0, so no calm stretch precedes it
    summary = summary_of(f"scenario.disturbances={start}:1.5:0.05", "scenario.t_end=1", tmp_path=tmp_path, capsys=capsys)
    for key in ("attitude settling", "wheel settling", "wheel velocity"):
        assert summary[key] == "n/a"


def test_simulate_summary_ignores_a_pulse_that_ends_by_the_start(tmp_path, capsys):
    # such a pulse never acts (the CSV is the quiet run's), so it opens no settling window
    quiet = summary_of("scenario.disturbances=none", tmp_path=tmp_path, capsys=capsys)
    for pulses in ("-5:1:0.05", "-1:1:0.05"):
        summary = summary_of(f"scenario.disturbances={pulses}", tmp_path=tmp_path, capsys=capsys)
        assert summary == quiet


# a printed value and the tolerance it is gated by, as perfbench/workloads.py reads them
VALUE_TOL = re.compile(r"= (\S+?)(?: relative)? \(tol ([^,)]+)")


def assert_each_line_is_its_gates(out):
    """Each check's line PASSes exactly when every printed value is below its printed tolerance."""
    for line in out.splitlines()[:-1]:
        name, _, rest = line.partition(": ")
        pairs = VALUE_TOL.findall(rest)
        assert pairs or name == "controllability_rank", line
        assert rest.endswith(" PASS") == all(float(value) < float(tol) for value, tol in pairs), line


def test_verify_passes_and_negative_control_fails(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "controllability_rank: rank = 4/5 PASS" in out
    assert "energy_drift" in out and "FAIL" not in out
    assert_each_line_is_its_gates(out)

    assert run_cli("verify", "--negative-control") == cli.EXIT_VERIFICATION
    out = capsys.readouterr().out
    assert "oracle_equivalence" in out and "FAIL" in out
    assert_each_line_is_its_gates(out)


# a check that raises exits with its error's code, and the error names the check
CHECK_ERRORS = [
    # omega_1 = b_w / I_wG near 1e304 builds, but A^2 B overflows
    pytest.param(
        ["friction.b_w=1e300"], cli.EXIT_VALIDATION,
        "error: controllability_rank: controllability matrix entries must be finite\n",
        id="controllability_rank",
    ),
    pytest.param(
        ["friction.b_w=1e300", "physics.g=1e5"], cli.EXIT_VALIDATION,
        "error: open_loop_poles: characteristic polynomial coefficient overflows\n",
        id="open_loop_poles",
    ),
    # the stacked oracle overflows on its way to the non-finite state it reports, and prints no
    # numpy warning on the way (the suite turns a warning into an error)
    pytest.param(
        ["friction.tau_c=1e300"], cli.EXIT_SIMULATION,
        "simulation error: oracle_equivalence: integration produced a non-finite state\n",
        id="oracle_equivalence",
    ),
    # fbl_cancellation's float friction overflows too, on the np.float64 wheel speed it reads from the state
    pytest.param(
        ["friction.c_d=1e304"], cli.EXIT_SIMULATION,
        "simulation error: oracle_equivalence: integration produced a non-finite state\n",
        id="oracle_equivalence_after_fbl_overflow",
    ),
]


@pytest.mark.parametrize("sets, code, error", CHECK_ERRORS)
def test_verify_error_names_the_check_that_raised_it(sets, code, error, capsys):
    assert run_cli("verify", *(arg for item in sets for arg in ("--set", item))) == code
    captured = capsys.readouterr()
    assert captured.err == error
    assert all(line.endswith(("PASS", "FAIL")) for line in captured.out.splitlines())


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


def test_fit_friction_synthetic_reports_a_diverging_level_at_once(capsys):
    assert run_cli("fit-friction", "--synthetic", "--set", "friction.c_d=1e-2") == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: wheel speed diverged to -inf rad/s at step 2 (t = 0.02 s) at tau = 3.600e+01 N m\n"


def test_fit_friction_synthetic_names_a_stalled_level(capsys):
    assert run_cli("fit-friction", "--synthetic", "--set", "friction.c_d=1e-4") == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        "error: wheel did not reach steady state within 200 s at tau = 3.021e+00 N m: omega_w = 134.9963194730358"
        " rad/s is a fixed point of the 10 ms RK4 step, not of the wheel (|omega_w_dot| = 9.557e+03 rad/s^2)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["fit-friction", "--synthetic"], ["fit-friction", "--synthetic", "--set", "friction.c_d=1e-4"]],
    ids=["verify", "fit-friction", "fit-friction-stalled"],
)
def test_a_failed_fork_prints_what_a_forked_run_prints(argv, monkeypatch, capsys):
    # a fork that fails (EAGAIN: no process to be had) runs the work in this process
    forked = run_cli(*argv), capsys.readouterr()

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert (run_cli(*argv), capsys.readouterr()) == forked


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


def test_fit_friction_reads_a_headerless_first_row(tmp_path, capsys):
    # line 1 is a header only when it does not parse as numbers: 3e-3 and inf
    # contain letters, yet are numbers
    rows = "3e-3,100\n5e-3,200\n7e-3,300\n9e-3,400\n"
    path = tmp_path / "sweep.csv"
    outs = []
    for text in (rows, "tau,omega_ss\n" + rows):
        path.write_text(text)
        assert run_cli("fit-friction", "--input", str(path)) == 0
        outs.append(capsys.readouterr().out)
    assert "(4 rows)" in outs[0] and outs[0] == outs[1]
    path.write_text("inf,100\n" + rows)
    assert run_cli("fit-friction", "--input", str(path)) == cli.EXIT_VALIDATION
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "prefix",
    ["\ufeff", "\ufefftau,omega_ss\n", "# bench run\ntau,omega_ss\n", "\n# bench run\n\ntau,omega_ss\n"],
    ids=["bom", "bom-header", "comment-header", "blank-comment-header"],
)
def test_fit_friction_reads_every_row_after_a_bom_comments_and_a_header(prefix, tmp_path, capsys):
    # the header is the first non-blank, non-comment line, and a byte-order mark is not part of line 1
    rows = "3e-3,100\n5e-3,200\n7e-3,300\n9e-3,400\n"
    path = tmp_path / "sweep.csv"
    outs = []
    for text in (rows, prefix + rows):
        path.write_bytes(text.encode("utf-8"))
        assert run_cli("fit-friction", "--input", str(path)) == 0
        outs.append(capsys.readouterr().out)
    assert "(4 rows)" in outs[1] and outs[0] == outs[1]


def test_fit_friction_rank_deficiency_exit(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("3e-3,100\n5e-3,300\n")
    assert run_cli("fit-friction", "--input", str(path)) == cli.EXIT_VALIDATION
    assert "distinct" in capsys.readouterr().err


def test_fit_friction_requires_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("fit-friction")
    assert exc.value.code == cli.EXIT_VALIDATION
    # exactly one: with both, the --synthetic sweep would leave the CSV unread
    with pytest.raises(SystemExit) as exc:
        run_cli("fit-friction", "--input", "sweep.csv", "--synthetic")
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "not allowed with argument --input" in capsys.readouterr().err


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


COMMANDS = [["params"], ["gains"], ["verify"], ["simulate", "--set", "scenario.t_end=0.01"], ["fit-friction", "--synthetic"]]


def counted(fn, calls):
    """fn, appending each call's result to calls."""

    def wrapper(*args):
        calls.append(fn(*args))
        return calls[-1]

    return wrapper


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_every_command_builds_its_experiment_once(command, tmp_path, monkeypatch, capsys):
    built, derived = [], []
    monkeypatch.setattr(sim.Scenario, "__post_init__", counted(sim.Scenario.__post_init__, built))
    monkeypatch.setattr(plant, "derive", counted(plant.derive, derived))
    monkeypatch.chdir(tmp_path)  # simulate writes its CSV to the default output.path
    assert run_cli(*command) == cli.EXIT_OK
    # one derive for the design's omega_0, one for the scenario's plant
    assert (len(built), len(derived)) == (1, 2)


def test_config_is_frozen_and_checked_when_constructed():
    cfg = cli.Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.01
    with pytest.raises(ValidationError, match="not a whole number of dt"):
        dataclasses.replace(cfg, dt=0.01, t_end=0.0105)


def test_disturbance_parse_errors():
    with pytest.raises(ValidationError):
        cli.build_config({"scenario.disturbances": "1.0:0.1"})
    with pytest.raises(ValidationError):
        cli.build_config({"scenario.disturbances": "1.0:-0.1:0.05"})
