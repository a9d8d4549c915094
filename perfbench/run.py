"""Benchmark of the rangebound CLI on three workloads.

    python3 perfbench/run.py --workload paper_fig --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout. The CLI is run from that checkout's
``src/``, one command at a time, each in its own child process, from this one
driver process.

``--trace 0`` repeats the workload's command sequence for ``--seconds`` and
reports the end-to-end metrics listed in BENCHMARK.json (medians over the
repetitions). ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics; the traced child is ``tracer.py``, which records
spans around the library's layer calls without editing the library.
``--workload all`` runs every workload in both modes and prints everything.

Every command is checked: exit code 0, no ``FAIL`` line, at least one ``PASS``
line from ``verify``, and outputs (stdout, every file written, the manifest
without its ``created_utc`` line) byte-identical across repetitions. At the
seed recorded in golden.json the paper_fig outputs must also match the sha256
hashes recorded there. A command that fails any check counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, ORACLE_PAIR_SPANS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
GOLDEN = BENCH_DIR / "golden.json"
TRACER = BENCH_DIR / "tracer.py"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
# every child is killed at this many seconds after the benchmark starts, so a
# hung or badly regressed command still leaves time to report
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_SNIPPET = (
    "import sys, rangebound; "
    "rangebound.parse_config(open(sys.argv[1]).read()); "
    "print(rangebound.__file__)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    # config body without seeds; None runs the shipped paper_fig.cfg unmodified
    config: str | None


# No workload uses file: coefficients, because verify rejects them while the
# convergence ladder and the oracle coarsen the grid. Add one once it accepts them.
WORKLOADS = {
    w.name: w
    for w in (
        # The reference configuration. _write_csv is ~95% of `run` and the
        # O(N^2) direct oracle at n=4000 ~86% of `verify`; the recurrences and
        # the engine are <=2% here.
        Workload("paper_fig", ("run", "figures", "verify"), None),
        # The weighted, variance-discounted pipeline at the top of the size
        # range users run (10^7 steps); it writes no CSV. Recurrences are ~42%
        # and the vectorised engine ~29%; peak RSS is ~1.9 GB, so memory
        # changes show here.
        Workload(
            "long_psi",
            ("verify",),
            "t_max = 5\nn_steps = 10000000\na = sin:1,2,3\nsigma = sin:2,1,1\n"
            "psi = sin:1,0.5,2\n",
        ),
        # State-dependent noise forces the engine's per-step Python loop
        # (~83%), and zero drift turns on the rotation check. It reaches the
        # layer long_psi uses through the other branch: a loop speed-up must
        # show here and leave long_psi unchanged.
        Workload(
            "driftless_state",
            ("verify",),
            "t_max = 5\nn_steps = 1000000\na = const:0\nsigma = state:1.5\n"
            "u = sin:1,1,3\n",
        ),
    )
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class CommandResult:
    command: str
    wall_s: float
    maxrss_kb: int
    failures: list[str] = field(default_factory=list)
    # output name -> sha256: stdout and every file the command wrote
    digests: dict[str, str] = field(default_factory=dict)
    spans: list[dict] | None = None


class Session:
    """One workload at one seed: its config, output area and child processes."""

    def __init__(self, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.deadline = started + DEADLINE_S
        self.dir = WORK_DIR / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "out"
        (self.dir / "stderr.txt").unlink(missing_ok=True)
        self.env = child_env()
        if workload.config is None:
            self.config = ROOT / "paper_fig.cfg"
            if not self.config.is_file():
                raise SetupError(f"{self.config.name} not found in {ROOT}")
        else:
            self.config = self.dir / "workload.cfg"
            self.config.write_text(
                workload.config
                + f"seeds = {seed}\noutput_dir = {self.out.relative_to(ROOT)}\n"
            )
        golden = json.loads(GOLDEN.read_text()).get(workload.name)
        self.golden = golden if golden and golden["seed"] == seed else None
        self.first: dict[str, dict[str, str]] = {}
        self.missing: set[str] = set()

    def spawn(self, argv: list[str], stdout_name: str) -> tuple[float, int, int, bool]:
        """Run one child to completion; return (wall s, exit code, maxrss KB, timed out)."""
        remaining = self.deadline - time.monotonic()
        with open(self.dir / stdout_name, "wb") as out, open(self.dir / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss, killed.is_set()

    def setup_times(self) -> list[float]:
        """Fresh-interpreter import of rangebound plus parse of the workload config."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.config)]
        times = []
        for i in range(SETUP_REPEATS + 1):
            wall, code, _, _ = self.spawn(argv, "setup.txt")
            if code != 0:
                raise SetupError(
                    f"cannot import rangebound from {ROOT / 'src'} (exit {code}); "
                    f"see {self.dir / 'stderr.txt'}"
                )
            if i == 0:
                found = Path((self.dir / "setup.txt").read_text().strip()).resolve()
                if ROOT / "src" not in found.parents:
                    raise SetupError(f"rangebound imported from {found}, not from {ROOT / 'src'}")
                continue  # the first call only fills the file cache
            times.append(wall)
        return times

    def repetition(self, traced: bool) -> list[CommandResult]:
        """The workload's commands once, in order, into a fresh output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        before: set[str] = set()
        results = []
        for command in self.workload.commands:
            result = self.command(command, traced)
            written = output_digests(self.out)
            result.digests.update({k: v for k, v in written.items() if k not in before})
            before = set(written)
            self.check_outputs(result)
            results.append(result)
        return results

    def command(self, command: str, traced: bool) -> CommandResult:
        cli_args = [
            command,
            str(self.config.relative_to(ROOT)),
            "--seed-override",
            str(self.seed),
            "--out",
            str(self.out.relative_to(ROOT)),
        ]
        spans_path = self.dir / f"spans_{command}.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "rangebound.cli", *cli_args]
        wall, code, maxrss, timed_out = self.spawn(argv, "stdout.txt")
        result = CommandResult(command, wall, maxrss)
        stdout = (self.dir / "stdout.txt").read_bytes()
        result.digests["stdout"] = hashlib.sha256(stdout).hexdigest()
        lines = stdout.decode(errors="replace").splitlines()
        if timed_out:
            result.failures.append("killed at the benchmark deadline")
        elif code != 0:
            result.failures.append(f"exit code {code}")
        result.failures.extend(line for line in lines if line.startswith("FAIL"))
        if command == "verify" and not any(line.startswith("PASS") for line in lines):
            result.failures.append("verify printed no PASS line")
        if traced and spans_path.is_file():
            recorded = json.loads(spans_path.read_text())
            result.spans = recorded["spans"]
            self.missing.update(recorded["missing"])
        return result

    def check_outputs(self, result: CommandResult) -> None:
        """Byte-identical to the first repetition, and to golden.json where it applies."""
        reference = self.first.setdefault(result.command, result.digests)
        bad = differing(reference, result.digests)
        if self.golden is not None and result.command in self.golden["files"]:
            files = {k: v for k, v in result.digests.items() if k != "stdout"}
            bad |= differing(self.golden["files"][result.command], files)
        result.failures.extend(f"output mismatch: {name}" for name in sorted(bad))


def differing(want: dict[str, str], got: dict[str, str]) -> set[str]:
    return {name for name in want.keys() | got.keys() if want.get(name) != got.get(name)}


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under out; the manifest without its created_utc line."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(
                line
                for line in data.splitlines(keepends=True)
                if not line.startswith(b"created_utc")
            )
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def machine_record() -> dict:
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level >= llc[0]:
            llc = (level, size)
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc": f"L{llc[0]} {llc[1]}" if llc else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: env[var] for var in THREAD_VARS},
    }


def wall_samples(setup: list[float], reps: list[list[CommandResult]]) -> dict[str, list[float]]:
    """Wall-time samples per end-to-end timing: setup, each command, the whole sequence."""
    samples = {"setup_s": setup, "total_s": [sum(r.wall_s for r in rep) for rep in reps]}
    for rep in reps:
        for r in rep:
            samples.setdefault(f"{r.command}_s", []).append(r.wall_s)
    return samples


def span_totals(results: list[CommandResult]) -> tuple[dict, dict, dict]:
    """Per span name: summed duration, summed self time, summed counts."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(float)
    for result in results:
        spans = result.spans or []
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(spans):
            name = span["name"]
            duration = span["end"] - span["start"]
            self_time[name] += duration - covered[i]
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent is None:  # nested calls of one layer count once
                total[name] += duration
            for key, value in span.get("counts", {}).items():
                counts[f"{name}.{key}"] += value
    return total, self_time, counts


def per_layer(traced: list[CommandResult]) -> dict[str, float]:
    total, self_time, counts = span_totals(traced)
    # the waste counters come from verify, the command every workload runs
    _, _, verify_counts = span_totals([r for r in traced if r.command == "verify"])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics = {f"{layer}.s": total[layer] for layer in (*LAYERS, *ORACLE_PAIR_SPANS)}
    metrics["experiment.write_csv.files"] = counts["experiment.write_csv.files"]
    metrics["experiment.write_csv.bytes"] = counts["experiment.write_csv.bytes"]
    metrics["experiment.write_csv.mb_per_s"] = rate(
        counts["experiment.write_csv.bytes"] / 1e6, total["experiment.write_csv"]
    )
    metrics["transforms.direct.terms"] = counts["transforms.direct.terms"]
    metrics["transforms.direct.terms_per_s"] = rate(
        counts["transforms.direct.terms"], total["transforms.direct"]
    )
    for layer in ("transforms.recurrence", "engine.simulate_path"):
        steps = counts[f"{layer}.steps"]
        metrics[f"{layer}.steps"] = steps
        metrics[f"{layer}.steps_per_s"] = rate(steps, total[layer])
        verify_steps = verify_counts[f"{layer}.steps"]
        metrics[f"{layer}.unique_frac"] = (
            verify_counts[f"{layer}.unique_steps"] / verify_steps if verify_steps else 0.0
        )
    metrics["verification.estimate_order.self_s"] = self_time["verification.estimate_order"]
    metrics["experiment.self_s"] = sum(
        self_time[f"experiment.{name}"]
        for name in ("run_experiment", "emit_figures", "verify_suite")
    )
    return metrics


def median_dict(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, started: float):
    """Measure one workload; return (metrics, attempted, failed, report lines)."""
    session = Session(workload, seed, started)
    lines = [f"workload {workload.name} seed={seed} trace={int(trace)}"]
    setup = session.setup_times()
    plain: list[list[CommandResult]] = []
    traced: list[list[CommandResult]] = []
    begin = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        plain.append(session.repetition(traced=False))
        if trace:
            traced.append(session.repetition(traced=True))
        rep_s = time.perf_counter() - rep_start
        # start another repetition only if it is expected to end within --seconds
        elapsed = time.perf_counter() - begin
        if elapsed + rep_s > seconds or time.monotonic() + rep_s > session.deadline:
            break
    shutil.rmtree(session.out, ignore_errors=True)

    results = [r for rep in plain + traced for r in rep]
    failures = [f"{r.command}: {reason}" for r in results for reason in r.failures]
    failed = sum(1 for r in results if r.failures)
    lines.append(f"  repetitions {len(plain)}, commands {len(results)}, failed {failed}, "
                 f"error_rate {failed / len(results):.4g}")
    metrics = {}
    samples = wall_samples(setup, plain)
    for name, values in samples.items():
        metrics[name] = statistics.median(values)
        lines.append(f"  {name} median {metrics[name]:.4f} s "
                     f"(min {min(values):.4f}, max {max(values):.4f}, n={len(values)})")
    metrics["peak_rss_mb"] = max(r.maxrss_kb for rep in plain for r in rep) / 1024
    if trace:
        metrics.update(median_dict([per_layer(rep) for rep in traced]))
        plain_s = metrics["total_s"]
        traced_s = statistics.median(sum(r.wall_s for r in rep) for rep in traced)
        metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    if session.missing:
        lines.append(f"  trace sites not found: {', '.join(sorted(session.missing))}")
    lines.extend(f"  FAILED {f}" for f in failures)
    (session.dir / "result.json").write_text(
        json.dumps({"seed": seed, "trace": trace, "metrics": metrics, "samples": samples,
                    "failures": failures}, indent=1)
    )
    return metrics, len(results), failed, lines


def select(metrics: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "rangebound").is_dir():
            raise SetupError(f"no src/rangebound under {ROOT}")
        machine = machine_record()
        print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
        WORK_DIR.mkdir(exist_ok=True)
        (WORK_DIR / "machine.json").write_text(json.dumps(machine, indent=1))

        if args.workload == "all":
            runs = [(WORKLOADS[name], mode) for name in WORKLOADS for mode in (False, True)]
        else:
            runs = [(WORKLOADS[args.workload], bool(args.trace))]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload, trace in runs:
            metrics, attempted, failed, lines = measure(
                workload, args.seed, args.seconds, trace, time.monotonic()
            )
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            selected = select(metrics, declared)
            for name, entry in selected.items():
                lines.append(f"  metric {name} = {entry['value']:.6g} {entry['unit']}")
            print("\n".join(lines), flush=True)
            result["attempted"] += attempted
            result["failed"] += failed
            if args.workload == "all":
                selected = {f"{workload.name}.{k}": v for k, v in selected.items()}
            result["metrics"].update(selected)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
