"""verify.run's processes: each check runs in a forked process of its own, the
lines are those of the checks run one after another in this process, and no
process outlives a run that passes, raises or is closed early.  And a NaN
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


@pytest.mark.parametrize(
    "cfg, negative_control",
    [(CONFIG, False), (CONFIG, True), (PAPER_LITERAL, False)],
    ids=["default", "negative-control", "paper-literal"],
)
def test_forked_run_gives_the_lines_of_the_checks_run_inline(cfg, negative_control, monkeypatch):
    forked = list(verify.run(cfg.scenario, negative_control))
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")  # sim._forked's path where os.fork is missing: join calls fn itself
    assert forked == list(verify.run(cfg.scenario, negative_control))
    assert [name for name, _, _ in forked] == [check.__name__ for check in verify.CHECKS]
    assert all(ok for _, ok, _ in forked) != negative_control


def test_a_failed_fork_runs_the_checks_inline(monkeypatch):
    forked = list(verify.run(CONFIG.scenario))
    diverging = dataclasses.replace(CONFIG, friction=dataclasses.replace(CONFIG.friction, tau_c=1e300))

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)  # sim._forked closes its pipe and calls fn at join
    assert list(verify.run(CONFIG.scenario)) == forked
    with pytest.raises(SimulationError, match="^oracle_equivalence: integration produced a non-finite state$"):
        list(verify.run(diverging.scenario))


def test_no_process_outlives_a_run_that_raises_or_is_closed():
    diverging = dataclasses.replace(CONFIG, friction=dataclasses.replace(CONFIG.friction, tau_c=1e300))
    with pytest.raises(SimulationError, match="^oracle_equivalence: integration produced a non-finite state$"):
        list(verify.run(diverging.scenario))
    assert_no_child_left()

    lines = verify.run(CONFIG.scenario)
    assert next(lines)[0] == "linearization_fd"
    lines.close()  # the oracle and energy checks are still running
    assert_no_child_left()


def test_closing_a_run_ends_the_processes_its_checks_forked(monkeypatch, time_limit):
    read, write = os.pipe()  # inherited by every process of the run

    def sleeper():
        os.write(write, b"!")
        time.sleep(60)

    def forks_a_sleeper(sc):
        sim._forked(sleeper)  # never joined
        time.sleep(60)

    monkeypatch.setattr(verify, "CHECKS", (verify.open_loop_poles, forks_a_sleeper))
    lines = verify.run(CONFIG.scenario)
    next(lines)
    assert os.read(read, 1) == b"!"  # the check's own child is running
    lines.close()
    os.close(write)
    assert select.select([read], [], [], 10)[0], "a process of the run still holds the pipe"
    assert os.read(read, 1) == b""
    os.close(read)
    assert_no_child_left()


def test_a_check_whose_process_dies_raises_an_error_naming_it(monkeypatch, time_limit):
    def killed(sc):
        os.kill(os.getpid(), signal.SIGKILL)

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
