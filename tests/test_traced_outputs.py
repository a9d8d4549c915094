"""perfbench/tracer.py changes no output of the commands it traces.

The tracer wraps some of the library's functions and, after each call, reads the call's
arguments again: its counter for simulate_path takes ``len()`` of the increments and hashes
them whole. A path's noise is drawn as the path is read, so a second reader must get the same
bits as the first, or the traced command writes other values than the untraced one. Each
command here runs untraced, then under the unchanged tracer, into the same directory, and
must print the same bytes and write the same files, the manifest compared without its
created_utc line.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PSI = "t_max = 5\nn_steps = {}\na = sin:1,2,3\nsigma = sin:2,1,1\npsi = sin:1,0.5,2\nseeds = {}\n"
CONFIGS = {
    "psi": (PSI.format(2**15, "1,2"), ("run", "figures", "verify")),
    "driftless_state": (
        "t_max = 5\nn_steps = 32768\na = const:0\nsigma = state:1.5\nu = sin:1,1,3\nseeds = 1\n",
        ("run", "figures", "verify"),
    ),
    # above experiment.LADDER_FORK_STEPS: on two CPUs or more the rungs run in a forked child
    "forked_ladder": (PSI.format(2**18, "1"), ("verify",)),
}


def outputs(argv, out):
    """(exit code, stdout, {file: bytes}) of one command writing under ``out``, emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning,error::UserWarning"
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300)
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            lines = data.splitlines(keepends=True)
            data = b"".join(line for line in lines if not line.startswith(b"created_utc"))
        files[path.relative_to(out).as_posix()] = data
    return done.returncode, done.stdout, files


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_commands_write_the_untraced_outputs(name, tmp_path):
    text, commands = CONFIGS[name]
    config, out = tmp_path / "c.cfg", tmp_path / "out"
    config.write_text(text)
    for command in commands:
        args = [command, str(config), "--out", str(out)]
        plain = outputs([sys.executable, "-m", "rangebound.cli", *args], out)
        spans = tmp_path / f"spans_{command}.json"
        traced = outputs([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *args], out)
        assert plain[0] == 0 and plain[1], command
        assert spans.is_file(), command
        assert traced == plain, command
