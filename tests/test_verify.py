"""verify.run's processes: the checks run side by side in forked processes
(sim.side_by_side), the lines are those of the checks run one after another
in this process, and no process outlives a run that passes, raises or is
closed early; the fork mechanics are tested on stand-in checks.  And a NaN
that a check meets reaches its gate, which fails it."""

import dataclasses
import errno
import os
import select
import signal
import time

import numpy as np
import pytest

from cubli import analysis, cli, plant, sim, verify
from cubli.errors import CubliError, SimulationError
from cubli.plant import GravityModel

CONFIG = cli.build_config({})
PAPER_LITERAL = dataclasses.replace(
    CONFIG, plant_gravity=GravityModel.PAPER_LITERAL, controller_gravity=GravityModel.PAPER_LITERAL
)


@pytest.fixture
def time_limit():
    """Fail a test that waits on the run for more than 20 s, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("the run did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cores(monkeypatch, cores):
    """sim.side_by_side's usable cores, so a run of two stand-in checks forks both."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def passes(sc):
    """A stand-in check that passes at once."""
    return True, "value = 1.000e+00 (tol 2)"


def diverges(sc):
    """A stand-in check that raises a SimulationError at once, as oracle_equivalence does at tau_c = 1e300."""
    raise SimulationError("integration produced a non-finite state")


def sleeps(sc):
    """A stand-in check still running when the run ends."""
    time.sleep(60)


def no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "cfg, negative_control",
    [(CONFIG, False), (CONFIG, True), (PAPER_LITERAL, False)],
    ids=["default", "negative-control", "paper-literal"],
)
def test_forked_run_gives_the_lines_of_the_checks_run_inline(cfg, negative_control, monkeypatch):
    forked = list(verify.run(cfg.scenario, negative_control))
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")  # sim.side_by_side's path where os.fork is missing: every check runs here
    assert forked == list(verify.run(cfg.scenario, negative_control))
    assert [name for name, _, _ in forked] == [check.__name__ for check in verify.CHECKS]
    assert all(ok for _, ok, _ in forked) != negative_control


def test_a_failed_fork_runs_the_checks_inline(monkeypatch):
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(verify, "CHECKS", (verify.open_loop_poles, passes))
    forked = list(verify.run(CONFIG.scenario))
    assert_no_child_left()
    pipes, pipe = [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", no_fork)  # side_by_side closes the chunk's pipe and runs it here
    assert list(verify.run(CONFIG.scenario)) == forked
    monkeypatch.setattr(verify, "CHECKS", (passes, diverges))
    with pytest.raises(SimulationError, match="^diverges: integration produced a non-finite state$"):
        list(verify.run(CONFIG.scenario))
    assert len(pipes) == 4
    for fd in sum(pipes, ()):  # both ends closed
        with pytest.raises(OSError):
            os.fstat(fd)


def test_no_process_outlives_a_run_that_raises_or_is_closed(monkeypatch, time_limit):
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(verify, "CHECKS", (diverges, sleeps))
    with pytest.raises(SimulationError, match="^diverges: integration produced a non-finite state$"):
        list(verify.run(CONFIG.scenario))
    assert_no_child_left()

    monkeypatch.setattr(verify, "CHECKS", (passes, sleeps, sleeps))
    lines = verify.run(CONFIG.scenario)
    assert next(lines)[0] == "passes"
    lines.close()  # both sleepers are still running
    assert_no_child_left()


def test_closing_a_run_ends_the_processes_its_checks_forked(monkeypatch, time_limit):
    set_cores(monkeypatch, 2)
    read, write = os.pipe()  # inherited by every process of the run

    def sleeper(unit):
        os.write(write, b"!")
        time.sleep(60)

    def forks_sleepers(sc):
        list(sim.side_by_side(sleeper, range(2)))  # never returns

    monkeypatch.setattr(verify, "CHECKS", (verify.open_loop_poles, forks_sleepers))
    lines = verify.run(CONFIG.scenario)
    next(lines)
    assert os.read(read, 1) + os.read(read, 1) == b"!!"  # both children of the check's process are running
    lines.close()
    os.close(write)
    assert select.select([read], [], [], 10)[0], "a process of the run still holds the pipe"
    assert os.read(read, 1) == b""
    os.close(read)
    assert_no_child_left()


def test_a_check_whose_process_dies_raises_an_error_naming_it(monkeypatch, time_limit):
    def killed(sc):
        os.kill(os.getpid(), signal.SIGKILL)

    set_cores(monkeypatch, 2)  # on one core the check would run, and die, in this process
    monkeypatch.setattr(verify, "CHECKS", (verify.open_loop_poles, killed))
    lines = verify.run(CONFIG.scenario)
    assert next(lines)[:2] == ("open_loop_poles", True)
    with pytest.raises(CubliError, match=r"^killed: forked process ended without a result \(exit status -9\)$"):
        next(lines)
    assert_no_child_left()


def test_controllability_rank_prints_the_lowest_rank(monkeypatch):
    ranks = iter([4, 3])
    monkeypatch.setattr(analysis, "controllability_rank", lambda a, b: next(ranks))
    assert verify.controllability_rank(CONFIG.scenario) == (False, "rank = 3/5")


def test_a_nan_jacobian_fails_linearization_fd(monkeypatch):
    # max(0.0, nan) is 0.0, so a fold by max() would pass it at 0.000e+00
    monkeypatch.setattr(analysis, "fd_jacobian", lambda f, x0: np.full((5, len(x0)), np.nan))
    assert verify.linearization_fd(CONFIG.scenario) == (False, "max |analytic - fd| = nan (tol 1e-6)")


def test_a_nan_oracle_fails_oracle_equivalence(monkeypatch):
    def nan_rate(x, *args, out):
        out.fill(np.nan)
        return out

    monkeypatch.setattr(plant, "angle_dynamics_rate", nan_rate)  # before the oracle's process forks
    metric = "max trajectory deviation = nan (tol 1e-8, 20 runs, 1 s)"
    assert verify.oracle_equivalence(CONFIG.scenario) == (False, metric)
