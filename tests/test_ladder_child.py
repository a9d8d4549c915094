"""The convergence ladder's coarse rungs in a forked child beside the seed's pass.

A seed of LADDER_FORK_STEPS steps or more, on Linux with two CPUs or more and one thread,
forks a child that draws the seed's noise again and computes the coarse rungs while the
parent simulates, runs the fine pass and the oracle. Forked or inline, every output is the
same: the reports, verify's stdout, run's manifest, and the exit code and message of a
rung that raises. No child outlives its seed, whatever way the seed ends, and none outlives
a CLI that is killed.
"""

import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import rangebound as rb
from rangebound import cli, engine, experiment, verification
from rangebound.config import parse_config

FORKS = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
pytestmark = pytest.mark.skipif(not FORKS, reason="the ladder forks on Linux with two CPUs or more")

SRC = str(Path(rb.__file__).resolve().parents[1])
PSI = "t_max = 5\nn_steps = {}\na = sin:1,2,3\nsigma = sin:2,1,1\npsi = sin:1,0.5,2\nseeds = {}\n"
CONFIGS = {
    "psi": PSI.format(4096, 1),
    "state_sigma": "t_max=5\nn_steps=2048\na=const:1\nsigma=state:30\npsi=sin:1,0.5,2\nseeds=2\n",
    "driftless": "t_max=5\nn_steps=4096\na=const:0\nsigma=state:1.5\nu=sin:1,1,3\nseeds=1\n",
    "seeds": PSI.format(2048, "1,2,3"),
}
# a convergence rung's variance integral leaves double range, the seed's own does not
RUNG_VARIANCE = "t_max=8\nn_steps=8\na=const:0\nsigma=state:1e154\npsi=const:1\nseeds=1\n"
# both identities leave double range: no ladder can report
NO_RESIDUAL = "t_max=5\nn_steps=512\na=const:0\nsigma=const:1\nu=const:1e308\nseeds=1\n"
# the path leaves double range and is refused
REFUSED = "t_max=1\nn_steps=8\nx0=1e308\na=const:1e308\nsigma=const:1\nu=const:1\nseeds=1\n"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forks_counted(mp):
    """Forks from now on, the floor patched to 0 so any seed with a ladder forks."""
    forks, fork = [], os.fork
    mp.setattr(experiment, "LADDER_FORK_STEPS", 0)
    mp.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def forked_and_inline(command):
    """``command()`` with the floor at 0, then out of reach: its values forked and inline."""
    with pytest.MonkeyPatch.context() as mp:
        forks = forks_counted(mp)
        forked = command()
        assert forks, "no child was forked"
    assert_no_child_left()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "LADDER_FORK_STEPS", 2**62)
        mp.setattr(os, "fork", lambda: pytest.fail("forked above the floor"))
        inline = command()
    return forked, inline


def cli_outcome(*argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    with redirect_stdout(StringIO()) as out, redirect_stderr(StringIO()) as err:
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_forked_rungs_give_the_inline_outputs(name, tmp_path):
    config = parse_config(CONFIGS[name])
    (tmp_path / "c.cfg").write_text(CONFIGS[name])

    def rows():
        wanted = experiment.VERIFY_WANTED
        return [experiment._evaluate_seed(config, seed, wanted, 4) for seed in config.seeds]

    forked, inline = forked_and_inline(rows)
    reports = [row for seed_rows in forked for row in seed_rows if row[0] == "convergence"]
    assert reports and all(isinstance(row[2], verification.ConvergenceReport) for row in reports)
    assert forked == inline  # the reports' residuals and orders equal as floats

    verify = lambda: cli_outcome("verify", tmp_path / "c.cfg")
    forked, inline = forked_and_inline(verify)
    assert forked == inline and forked[0] == 0 and forked[2] == ""

    every_output = parse_config(CONFIGS[name] + "outputs = path,t1,t2,identities,convergence,remarks\n")

    def manifest():
        text = rb.run_experiment(every_output, tmp_path / "run", convergence_levels=3).to_text()
        return [line for line in text.splitlines() if not line.startswith("created_utc")]

    forked, inline = forked_and_inline(manifest)
    assert forked == inline and any(".convergence." in line for line in forked)


def test_a_rungs_refusal_is_the_inline_refusal(tmp_path):
    (tmp_path / "c.cfg").write_text(RUNG_VARIANCE)
    refusal = "configuration error: seed 1: the variance integral leaves double range\n"
    for command in ("verify", "run"):
        argv = (command, tmp_path / "c.cfg", "--out", tmp_path / "o")
        forked, inline = forked_and_inline(lambda: cli_outcome(*argv))
        assert forked == inline == (1, "", refusal)
    assert_no_child_left()


@pytest.mark.parametrize("text", [NO_RESIDUAL, REFUSED], ids=["no_residual", "refused"])
def test_no_child_outlives_its_seed(text, tmp_path):
    """A seed without a ladder to report, or refused, kills and reaps its child."""
    (tmp_path / "c.cfg").write_text(text)
    forked, inline = forked_and_inline(lambda: cli_outcome("verify", tmp_path / "c.cfg"))
    assert forked == inline
    assert_no_child_left()


def test_a_parent_exception_kills_and_reaps_the_child(monkeypatch):
    def raising(*args):
        raise RuntimeError("oracle")

    forks = forks_counted(monkeypatch)
    monkeypatch.setattr(experiment, "compare_oracle_pair", raising)
    with pytest.raises(RuntimeError, match="oracle"):
        rb.verify_suite(parse_config(CONFIGS["psi"]))
    assert forks
    assert_no_child_left()


def test_a_fork_that_fails_leaves_the_rungs_inline(tmp_path, monkeypatch):
    """With no memory or process left for a child the rungs run inline, and the pipe is closed."""
    (tmp_path / "c.cfg").write_text(CONFIGS["psi"])
    inline = cli_outcome("verify", tmp_path / "c.cfg")

    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(experiment, "LADDER_FORK_STEPS", 0)
    monkeypatch.setattr(os, "fork", failing)
    fds = len(os.listdir("/proc/self/fd"))
    assert cli_outcome("verify", tmp_path / "c.cfg") == inline
    assert len(os.listdir("/proc/self/fd")) == fds


def test_the_child_writes_nothing_to_stdout_or_stderr(capfd, monkeypatch):
    forks = forks_counted(monkeypatch)
    assert not rb.verify_suite(parse_config(CONFIGS["psi"])).failed
    with pytest.raises(rb.ConfigurationError):
        rb.verify_suite(parse_config(RUNG_VARIANCE))
    assert len(forks) == 2
    assert capfd.readouterr() == ("", "")


def test_the_chunks_are_the_whole_draws_bits():
    grid = rb.build_grid(5.0, 10**6)
    whole = rb.sample_wiener(grid, 7)
    for steps in (1 << 16, 999, 10**6):
        chunks = list(engine.wiener_chunks(grid, 7, steps))
        assert np.concatenate(chunks).tobytes() == whole.tobytes()


def test_the_forked_child_and_its_parent_peak_near_the_import(tmp_path):
    """On 2^22 psi steps, above the floor, the parent and the child each peak within 24 MB of
    what importing rangebound took, below the 32 MB of one whole series of the path.

    Both simulate their paths as their passes read them, a few chunks at a time: the parent the
    fine path, the child each coarse rung from the noise drawn anew. Neither holds a series
    whole, so neither peak grows with the steps, and child < parent no longer says anything:
    both are the interpreter, the import and a few MB (measured on 2 CPUs: the parent 11 MB
    above the import, its oracle's scratch included, and the child 5 MB). The parent's peak is
    RUSAGE_SELF and the child's RUSAGE_CHILDREN.
    """
    (tmp_path / "c.cfg").write_text(PSI.format(2**22, 1))
    script = (
        "import resource, sys, rangebound as rb; "
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "assert not rb.verify_suite(rb.parse_config(open(sys.argv[1]).read())).failed; "
        "print(base, *(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, "
        "resource.RUSAGE_CHILDREN)))"
    )
    argv = [sys.executable, "-c", script, tmp_path / "c.cfg"]
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    base, parent, child = map(int, done.stdout.split())  # KB
    assert 0 < child and parent <= base + 24 * 1024 and child <= base + 24 * 1024


def children_file(pid):
    """The /proc file that lists the children of ``pid``'s main thread."""
    return Path(f"/proc/{pid}/task/{pid}/children")


def alive(pid):
    """Whether ``pid`` runs: neither gone nor a zombie waiting for its reaper."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not children_file(os.getpid()).exists(), reason="/proc lists no children")
def test_a_killed_cli_leaves_no_child(tmp_path):
    """SIGKILL on verify mid-ladder (perfbench's deadline kills the CLI so) leaves no child
    running 1 s later: the child dies with its parent. Its rungs, 2^23 steps of state noise
    taken one by one, would take it ~2.5 s on their own."""
    text = "t_max=5\nn_steps=8388608\na=const:1\nsigma=state:1.5\nu=const:1\nseeds=1\n"
    (tmp_path / "c.cfg").write_text(text)
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-m", "rangebound.cli", "verify", str(tmp_path / "c.cfg")]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline, children = time.monotonic() + 30, []
        while not children and proc.poll() is None and time.monotonic() < deadline:
            children = [int(pid) for pid in children_file(proc.pid).read_text().split()]
            time.sleep(0.005)
        assert children, "verify forked no child"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    time.sleep(1)
    assert not [pid for pid in children if alive(pid)]
