"""Experiment driver: per-seed simulation, CSV emission, manifest, verify suite.

Every run is a pure function of its config: the same config text produces the
same CSV bytes and the same manifest (minus the created_utc line).
"""

from __future__ import annotations

import mmap
import os
import pickle
import re
import sys
import threading
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import astuple, dataclass, field, replace
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, verification
from .config import ExperimentConfig, config_echo_lines
from .engine import Increments, PathRecord, TimeGrid, build_grid, simulate_path
from .errors import ConfigurationError
from .transforms import reduce_pass
from .verification import (
    EnvelopeCheck,
    HeadKeeper,
    IdentityCheck,
    RotationCheck,
    compare_oracle_pair,
)

# cells per _cells call: a CsvWriter formats CSV_CHUNK_CELLS // (its distinct columns) rows at
# a time as _CELL-byte cells, 512 rows of run's 11 distinct columns over its writers
CSV_CHUNK_CELLS = 5632
# a cell: separator, sign, a "0.000" prefix slot (6), 17 digit/point pairs and
# an "e+ddd" exponent slot (6); the bytes a value does not use are NUL
_CELL = 48
# |v| where _scaled is exact to 1e-14 (no Dekker split overflows, every lo is a normal
# double), the exponents of its tables, and how near 1/2 (a tie) a scaled fraction may be
_EXACT_RANGE, _EXPONENTS, _TIE_MARGIN = (1e-280, 1e290), range(-284, 300), 1e-3


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fallback(values: np.ndarray) -> list[str]:
    """``values`` as _fmt spells them, in one ``%``: the values _cells cannot settle."""
    return ("%.17g\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _masks(e: int, z: int) -> list[int]:
    """A cell's byte mask over its prefix slot and pairs: exponent ``e``, ``z`` digits kept."""
    point = e if -4 <= e <= 16 else 0  # the digit the point follows: %.17g's fixed range
    kept = max(z, point + 1)
    prefix = [255] * (1 - e) + [0] * (5 + e) if point < 0 else [0] * 6
    return prefix + [255 * on for i in range(17) for on in (i < kept, i == point < kept - 1)]


@cache
def _tables():
    """Built at the first CSV write. Per e of _EXPONENTS: 10**(16 - e) as ``hi + lo``, each
    correctly rounded from integers, and its ``e+dd`` text; per 4-digit group: digit/point
    pairs and trailing zeros; _masks for e in -5..17 (-5 and 17 stand for all beyond)."""
    hi, lo = [], []
    for k in range(16 - _EXPONENTS.start, 16 - _EXPONENTS.stop, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        n, d = (num / den).as_integer_ratio()
        hi.append(num / den)
        lo.append((num * d - n * den) / (den * d))
    groups = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    pairs = np.dstack([groups, np.full_like(groups, ord("."))]).reshape(-1, 8)
    zeros = (groups[:, ::-1] == ord("0")).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    lead = np.array([b"0.000\0%d." % i for i in range(10)]).view(np.uint64)  # prefix text, lead digit
    exps = np.array([b"" if -4 <= e <= 16 else b"e%+03d" % e for e in _EXPONENTS], "S8").view(np.uint64)
    masks = np.array([_masks(e, z) for e in range(-5, 18) for z in range(18)], np.uint8).view(np.uint16)
    return np.array(hi), np.array(lo), pairs.view(np.uint64).ravel(), zeros, lead, exps, masks


def _scaled(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * (hi + lo)`` as ``p + t``: p the rounded product with hi, t its exact error by
    Dekker's TwoProduct (Numer. Math. 18, 1971) plus ``a * lo``."""
    ca, ch = a * np.float64(134217729.0), hi * np.float64(134217729.0)  # Dekker's split: 2**27 + 1
    ah, hh = ca - (ca - a), ch - (ch - hi)
    al, hl, p = a - ah, hi - hh, a * hi
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _shift(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per ``p + t``: -1 below 1e16, 1 from 1e17, else 0; exact wherever the sign could flip."""
    return ((p - np.float64(1e17)) + t >= 0).astype(np.int64) - ((p - np.float64(1e16)) + t < 0)


def _rounded(flat: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Per value: its 17 significant digits as an integer, the index of its exponent e in
    _EXPONENTS (from log10, moved once where |v| * 10**(16 - e) leaves [1e16, 1e17)), and
    whether _fallback must spell it."""
    a = np.abs(flat)
    fast = (a >= _EXACT_RANGE[0]) & (a < _EXACT_RANGE[1])
    a[~fast] = 1.0
    i = np.floor(np.log10(a)).astype(np.int64) - _EXPONENTS.start
    p, t = _scaled(a, hi[i], lo[i])
    shift = _shift(p, t)
    moved = np.flatnonzero(shift)
    i[moved] += shift[moved]
    p[moved], t[moved] = _scaled(a[moved], hi[i[moved]], lo[i[moved]])
    slow = ~fast | (np.abs(t - np.floor(t) - np.float64(0.5)) < _TIE_MARGIN) | (_shift(p, t) != 0)
    digits = p.astype(np.int64) + np.floor(t + np.float64(0.5)).astype(np.int64)
    carry = digits == 10**17
    digits[slow | carry] = 10**16
    return digits, i + carry, slow


def _cells(values: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """Each value of the 2-D float64 ``values`` as a _CELL-byte cell: a newline in the rows
    ``leads`` marks and a comma elsewhere, then the value as _fmt spells it: its _rounded
    digits under the masks of its exponent and trailing zeros, or the _fallback text."""
    hi, lo, pairs, zeros, lead, exps, masks = _tables()
    flat = values.ravel()
    digits, i, slow = _rounded(flat, hi, lo)
    groups = [digits // np.int64(10**k) % np.int64(10**4) for k in (12, 8, 4, 0)]
    source = np.empty((len(flat), 5), np.uint64)
    source[:, 0] = lead[digits // np.int64(10**16)]
    trailing = np.zeros(len(flat), np.int64)
    for j, group in enumerate(groups):
        source[:, j + 1] = pairs[group]
        trailing += zeros[groups[3 - j]] * (trailing == 4 * j)
    cells = np.empty((*values.shape, _CELL), np.uint8)
    cells[..., 0] = np.where(leads, np.uint8(10), np.uint8(44))[:, None]
    flat_cells = cells.reshape(-1, _CELL)
    flat_cells[:, 1] = np.signbit(flat) * np.uint8(ord("-"))
    words = flat_cells.view(np.uint16)
    # mode="clip" lets take write into the strided slice without a buffer
    form = np.clip(i + (_EXPONENTS.start + 5), 0, 22)  # the masks' e, clipped to -5..17
    np.take(masks, 18 * form + 17 - trailing, axis=0, out=words[:, 1:21], mode="clip")
    words[:, 1:21] &= source.view(np.uint16)
    words[:, 21:24] = exps[i].view(np.uint16).reshape(-1, 4)[:, :3]
    slow = np.flatnonzero(slow)
    text = np.array(_fallback(flat[slow]), f"S{_CELL - 1}")
    flat_cells[slow, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
    return cells


@dataclass
class ExperimentManifest:
    """Ordered key = value records binding a config to its outputs."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.entries.append((key, str(value)))

    def get(self, key: str) -> str | None:
        return next((v for k, v in self.entries if k == key), None)

    @property
    def files(self) -> list[str]:
        return [v for k, v in self.entries if k.endswith(".file")]

    @property
    def warnings(self) -> list[str]:
        return [v for k, v in self.entries if k == "warning"]

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries)


class CsvWriter(AbstractContextManager):
    """A consumer of reduce_pass that writes each ``(name, header, columns)`` of ``files`` under
    ``directory``, named plus ``.partial`` and listed in ``written`` (of _staged) before it opens.

    A column is a function of the block: ``column(k0, k1, z)`` gives its values at the nodes
    k0 .. k1-1. A feed writes those rows of every file in lockstep, CSV_CHUNK_CELLS cells at a
    time: per chunk the distinct columns (by identity and by whether they lead a row) go through
    one _cells call, which spells every float exactly as ``_fmt`` does. Each cell carries its
    separator: a row's first cell starts with the newline that ends the previous row, so a
    file's chunk is its cells in row order, NULs removed, wherever the blocks end.
    """

    def __init__(self, directory: Path, files, written: list[Path]):
        directory.mkdir(parents=True, exist_ok=True)
        self.targets = [directory / f"{name}.partial" for name, _, _ in files]
        written.extend(self.targets)
        self.columns = [columns for _, _, columns in files]
        distinct = {}  # (column, leads the row) -> its row in a chunk's cells
        self.places = [
            [distinct.setdefault((col, j == 0), len(distinct)) for j, col in enumerate(cols)]
            for cols in self.columns
        ]
        self.distinct = [column for column, _ in distinct]
        self.leads = np.array([lead for _, lead in distinct], dtype=bool)
        self.rows = max(1, CSV_CHUNK_CELLS // len(distinct))
        with ExitStack() as stack:
            self.handles = [stack.enter_context(open(target, "wb")) for target in self.targets]
            for handle, (_, header, _) in zip(self.handles, files):
                handle.write(header.encode())
            self.opened = stack.pop_all()

    def feed(self, k0: int, k1: int, z) -> None:
        parts = [column(k0, k1, z) for column in self.distinct]
        lengths = {len(part) for part in parts}
        if lengths != {k1 - k0}:
            raise ValueError(f"columns of {k1 - k0} nodes differ in length: {sorted(lengths)}")
        for start in range(0, k1 - k0, self.rows):
            chunk = np.array([part[start : start + self.rows] for part in parts], dtype=np.float64)
            cells = _cells(chunk, self.leads)
            for handle, place in zip(self.handles, self.places):
                handle.write(cells[place].transpose(1, 0, 2).tobytes().translate(None, b"\0"))

    def __exit__(self, kind, *_) -> None:
        with self.opened:
            for handle in self.handles if kind is None else ():
                handle.write(b"\n")


@contextmanager
def _staged(directories):
    """Yield the list the CsvWriters inside fill with the files they write, named plus ``.partial``.

    Once the block completes, each file takes its name. If it raises, every file listed is
    removed, then each of ``directories`` that did not exist before, in the order given.
    """
    written, made = [], [directory for directory in directories if not directory.exists()]
    try:
        yield written
    except BaseException:
        for target in written:
            target.unlink(missing_ok=True)
        for directory in made:
            if directory.exists():
                directory.rmdir()
        raise
    for target in written:
        target.replace(target.with_suffix(""))


def build_path(
    config: ExperimentConfig,
    grid: TimeGrid,
    dw,
    factor: int = 1,
    seed: int | None = None,
) -> PathRecord:
    """The config's path on ``grid``, driven by the increments ``dw``, an array or Increments.

    ``grid`` is ``factor`` times coarser than the config grid; sampled
    coefficients are decimated to its left nodes. When psi is set, u is the
    variance-discounted psi; a variance integral out of double range leaves
    it undefined, and the config is refused, unless the path leaves double range too: that
    refusal wins, and the pass makes it (see _refuse_out_of_range).
    """
    u_spec = config.psi_spec if config.uses_discounted_u else config.u_spec
    specs = (spec.coarsened(factor) for spec in (config.a_spec, config.sigma_spec, u_spec))
    # a step past double range leaves x inf or nan from there on, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        path = simulate_path(*specs, grid, dw, config.x0, seed)
    if not config.uses_discounted_u:
        return path
    total = path.total_variance()
    if np.isfinite(total):
        return replace(path, discounted_by=total)
    if np.isfinite(path.x_at(grid.n_steps, grid.n_steps + 1)[0]):
        raise ConfigurationError(f"seed {seed}: the variance integral leaves double range")
    return path


def prepare_path(config: ExperimentConfig, seed: int) -> PathRecord:
    """One seed's path on the config grid, its noise drawn as the path is read.

    A grid so large that one whole series of it (``path.x``, ``grid.nodes``) could not be
    mapped is refused with a MemoryError, the CLI's exit 1. The probe maps that series' bytes
    and unmaps them untouched: it takes no memory, and no pass takes more than a few chunks.
    """
    grid = build_grid(config.t_max, config.n_steps)
    size = 8 * (grid.n_steps + 1)
    try:
        mmap.mmap(-1, size).close()
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"Unable to allocate {size} bytes for a series of {grid.n_steps} steps") from exc
    return build_path(config, grid, Increments.drawn(grid, seed), seed=seed)


def _refuse_out_of_range(path: PathRecord) -> None:
    """Refuse ``path`` if it left double range. The path is formed as its pass reads it, so
    this is known at node N, once the pass is done: the refusal then wins over every outcome
    of the pass, and the files it wrote are taken back."""
    n = path.grid.n_steps
    if not np.isfinite(path.x_at(n, n + 1)[0]):
        raise ConfigurationError(f"seed {path.seed}: the path leaves double range")


SERIES = {"bounded": "t1", "weighted": "t2"}  # each transform and its series

# (check, reason) -> (run's warning, verify's note) in place of a skipped check, None where the
# command says nothing; {label} is bounded or weighted, and {t} its series, t1 or t2
_IDENTITY_NOTE = "identity[{label}] seed={seed}: values leave double range, skipped"
SKIP_WORDING = {
    ("transform", "range"): ("{label} transform skipped: its values leave double range", None),
    ("identity", "transform"): (None, _IDENTITY_NOTE),
    ("identity", "range"): ("identity_{t} skipped: its values leave double range", _IDENTITY_NOTE),
    ("oracle", "ceiling"): (
        "direct oracle skipped ({steps} steps exceeds ceiling {ceiling}); "
        "identities checked recursive-only",
        None,
    ),
    ("oracle", "range"): (
        "{label} direct oracle skipped: its scale leaves double range",
        "oracle[{label}] seed={seed}: scale leaves double range, skipped",
    ),
    ("remarks", "drift"): ("remarks skipped: drift is not identically zero", None),
    ("rotation_unit", "range"): (
        "unit rotation skipped: its bound leaves double range",
        "bound[rotation] seed={seed}: bound leaves double range, skipped",
    ),
    ("rotation_scaled", "range"): ("scaled rotation skipped: its scale leaves double range", None),
    ("bound", "range"): (
        "bound_{t} skipped: its envelope leaves double range",
        "bound[{t}] seed={seed}: envelope leaves double range, skipped",
    ),
    ("convergence", "levels"): (
        "convergence skipped: n_steps {steps} does not support {levels} refinement levels",
        "convergence seed={seed}: skipped, n_steps {steps} does not support {levels} levels",
    ),
    ("convergence", "residual"): (
        "convergence skipped: no identity residual in double range",
        "convergence seed={seed}: skipped, no identity residual in double range",
    ),
    ("convergence", "order"): (
        "convergence.{label} skipped: its residuals give no finite order",
        "convergence[{label}] seed={seed}: skipped, its residuals give no finite order",
    ),
}


def _columns(path) -> tuple:
    """CsvWriter columns of ``path``: t, x, and X and Y, the real and imaginary parts of the block."""
    t, x = (lambda k0, k1, z: path.grid.nodes_at(k0, k1)), (lambda k0, k1, z: path.x_at(k0, k1))
    return t, x, (lambda k0, k1, z: z.real), (lambda k0, k1, z: z.imag)


def _sides(check) -> list:
    """The two series of ``check.block`` as columns of a CsvWriter fed after the check."""
    return [lambda k0, k1, z: check.block[0], lambda k0, k1, z: check.block[1]]


def _u_columns(check) -> list:
    """The real and imaginary parts of U, a RotationCheck's first ``block`` series, as columns."""
    return [lambda k0, k1, z: check.block[0].real, lambda k0, k1, z: check.block[0].imag]


def _reduce_path(config, path, wanted, out, written, keepers) -> tuple[list[tuple], dict]:
    """_evaluate_seed's rows of the checks that read the whole path, and each identity's residual.

    One recurrence pass feeds the bound and identity checks, ``keepers`` (t1 or t2 -> a
    HeadKeeper) and, given ``out``, a CsvWriter of each transform's files after them; its path
    lane feeds the rotation checks and a CsvWriter of x.csv and their files after them. A file
    whose series leaves double range is written, then taken back. What holds the path goes once
    this returns.
    """
    grid = path.grid
    t, x, re, im = _columns(path)
    integrands = {"t1": path.u_at, "t2": path.psi_at}  # psi: the segments u's discount formed
    asked = [check for check in ("rotation_unit", "rotation_scaled") if check in wanted]
    rotations = {c: RotationCheck(path, c == "rotation_scaled") for c in asked if path.driftless}
    files = {"x": [("x.csv", "t,x", [t, x])] if "path" in wanted else []}
    files["x"] += [(f"{check}.csv", "t,re,im", [t, *_u_columns(r)]) for check, r in rotations.items()]
    envelopes, identities = {}, {}
    for label in SERIES.values():
        weighted = label == "t2"
        named = files[label] = [(f"{label}.csv", "t,X,Y", [t, re, im])] if label in wanted else []
        # the integrand envelope bounds t2 once u is discounted
        if f"bound_{label}" in wanted and (config.uses_discounted_u or not weighted):
            envelopes[label] = bound = EnvelopeCheck(integrands[label], grid)
            named.append((f"bound_{label}.csv", "t,modulus,envelope", [t, *_sides(bound)]))
        if {"identities", "convergence"} & wanted:
            identities[label] = check = IdentityCheck(path, weighted)
            lhs, rhs = _sides(check)
            if "identities" in wanted:  # the weighted rhs is X
                named.append((f"identity_{label}.csv", "t,lhs,rhs", [t, lhs, re if weighted else rhs]))

    rows, residuals, skipped = [], {}, set()  # skipped: the names of the files taken back
    with ExitStack() as stack:
        opened = lambda named: stack.enter_context(CsvWriter(out, named, written))
        writers = {key: opened(named) for key, named in files.items() if named and out is not None}
        parts = (envelopes, identities, keepers, writers)
        consumers = [[c[n] for c in parts if n in c] for n in ("t1", "t2", "x")]
        consumers[2][:0] = rotations.values()  # before the writer that reads their blocks
        alive = reduce_pass(path, consumers)
        _refuse_out_of_range(path)
        for (which, label), group, ok in zip(SERIES.items(), consumers, alive):
            if group and not ok:
                rows.append(("transform", which, "range"))
            bound, check = (part.get(label) if ok else None for part in (envelopes, identities))
            # past double range the envelope bounds nothing and its tolerance is inf
            report = bound.report() if bound else None
            if bound:
                rows.append(("bound", which, report or "range"))
            residual = residuals[which] = check.residual() if check else None
            if "identities" in wanted:
                skip = "range" if check else "transform"
                rows.append(("identity", which, skip if residual is None else (residual,)))
            gone = {"": not ok, "bound_": report is None, "identity_": residual is None}
            skipped.update(f"{prefix}{label}.csv" for prefix, dropped in gone.items() if dropped)
        if asked and not rotations:
            rows.append(("remarks", None, "drift"))
        for check, rotation in rotations.items():
            report = rotation.report()
            rows.append((check, None, report or "range"))
            if not report:
                skipped.add(f"{check}.csv")

    taken = [file for writer in writers.values() for file in writer.targets if file.stem in skipped]
    for target in taken:
        target.unlink()
        written.remove(target)
    # a seed directory they leave empty goes: the run wrote nothing there
    if taken and not any(out.iterdir()):
        out.rmdir()
    return rows, residuals


# fine steps from which a seed's coarse rungs run in a forked child, beside its pass on another
# CPU; below it the fork gains little (paper_fig's 10^5 steps)
LADDER_FORK_STEPS = 2**18


@contextmanager
def _ladder_rungs(config, seed, levels, fork):
    """Yield a function giving verification.coarse_rungs of the seed, its noise drawn anew. Given
    ``fork``, on Linux with two CPUs or more, one thread and LADDER_FORK_STEPS steps or more, a
    child forked here computes them beside the seed's pass, and the function reads them, raises
    the exception it sent, or computes them if it died first. It dies with this process, and is
    killed and reaped on exit."""
    grid, rung = build_grid(config.t_max, config.n_steps), partial(build_path, config, seed=seed)
    compute = partial(verification.coarse_rungs, Increments.drawn(grid, seed), grid, rung, levels)
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    pid = None  # the child's, once one is forked
    if fork and cpus > 1 and threading.active_count() == 1 and config.n_steps >= LADDER_FORK_STEPS:
        parent, (read, write) = os.getpid(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no memory or process left for a child: the rungs run inline
            os.close(read)
            os.close(write)
    if pid is None:
        yield compute
        return
    import signal
    if pid == 0:
        try:  # the child: it never returns, flushes or runs atexit
            import ctypes
            os.close(read)
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
            if os.getppid() == parent:  # else the parent died before that took
                try:
                    sent = compute()
                except Exception as exc:
                    sent = exc
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(sent))
        finally:
            os._exit(0)
    os.close(write)

    def received(pipe):
        sent = pipe.read()  # nothing if the child died before it wrote
        sent = pickle.loads(sent) if sent else compute()
        if isinstance(sent, Exception):
            raise sent
        return sent

    try:
        with open(read, "rb") as pipe:
            yield partial(received, pipe)
    finally:
        os.kill(pid, signal.SIGKILL)  # until reaped the pid is the child's; a zombie ignores it
        os.waitpid(pid, 0)


def _evaluate_seed(config, seed, wanted, levels, out=None, written=None) -> list[tuple]:
    """Simulate one seed and evaluate the series and checks ``wanted`` names.

    ``wanted`` holds output names (path, t1, t2, identities, convergence) and
    check names (bound_t1, bound_t2, rotation_unit, rotation_scaled, oracle,
    oracle_head). ``oracle`` checks the path, skipped above
    verification.ORACLE_CEILING steps; ``oracle_head`` checks its first
    ORACLE_CEILING steps. Returns a row ``(check, label, outcome)`` per outcome:
    the check's values, or the reason it was skipped, a key of SKIP_WORDING. If
    ``out`` is given, series are written under it, each as its name plus
    ``.partial``, and each file to ``written``, a list of _staged.
    """
    if levels < 3:
        raise ConfigurationError(f"convergence needs at least 3 refinement levels, got {levels}")
    # 2**(levels-1) divides n_steps iff levels is at most the place of its lowest set bit: no
    # power is formed, however large
    n_steps = config.n_steps
    ladder = "convergence" in wanted and (n_steps & -n_steps).bit_length() >= levels
    with _ladder_rungs(config, seed, levels, fork=ladder) as rungs:
        path = prepare_path(config, seed)
        ceiling = verification.ORACLE_CEILING
        oracle = "oracle_head" in wanted or "oracle" in wanted and n_steps <= ceiling
        # the pass keeps each transform's first nodes for the oracle, which compares them with
        # the direct pass on the path's head: every sum is non-anticipating, so they are the
        # head's own recurrence bit for bit
        steps = min(n_steps, ceiling)
        keepers = {label: HeadKeeper(steps) for label in SERIES.values()} if oracle else {}
        rows, residuals = _reduce_path(config, path, wanted, out, written, keepers)
        if "oracle" in wanted and not oracle:
            rows.append(("oracle", None, "ceiling"))

        # the oracle's head, at most ORACLE_CEILING steps, draws its own noise, and so do the
        # rungs: a longer path goes before the direct pass and the rungs
        head = path.head(ceiling) if oracle else None
        del path
        if oracle:
            verdicts = compare_oracle_pair(head, [keeper.head() for keeper in keepers.values()])
            rows += [("oracle", which, row or "range") for which, row in verdicts.items()]

        # the finest rung is this path, whose residuals are known; with none, no ladder can
        # report, so no coarser rung is built
        if "convergence" in wanted and not ladder:
            rows.append(("convergence", None, "levels"))
        elif ladder and all(residual is None for residual in residuals.values()):
            rows.append(("convergence", None, "residual"))
        elif ladder:
            reports = verification.ladder_reports(n_steps, [*rungs(), residuals])
            rows += [("convergence", which, report) for which, report in reports.items()]
            # an identity with a residual here and no report has no finite order
            ordered = [which for which, residual in residuals.items() if residual is not None]
            rows += [("convergence", which, "order") for which in ordered if which not in reports]
    return rows


def _checked(rows, order, command, say, config, levels, seed):
    """The checked rows as (check, label, t, values) by their check's place in ``order``; each
    skip's SKIP_WORDING for ``command`` (0 run, 1 verify) goes to ``say``, if it has one."""
    ceiling = verification.ORACLE_CEILING
    words = dict(seed=seed, steps=config.n_steps, levels=levels, ceiling=ceiling)
    for check, label, outcome in sorted(rows, key=lambda row: order.index(row[0])):
        t = SERIES.get(label)
        if not isinstance(outcome, str):
            yield check, label, t, outcome
        elif text := SKIP_WORDING[check, outcome][command]:
            say(text.format(label=label, t=t, **words))


# run's order of the checks, and its manifest key prefix for each check's values with the names
# of those it writes, None for one it leaves out: an oracle's tolerance, a ladder's orders
RUN_ORDER = "transform identity oracle remarks rotation_unit rotation_scaled bound".split()
RUN_ORDER.append("convergence")
MANIFEST_KEYS = {
    "identity": ("identity_{t}", ("residual",)),
    "oracle": ("oracle.{label}", ("deviation", None)),
    "rotation_unit": ("rotation_unit", ("rhs_abs", "bound", "residual", None)),
    "rotation_scaled": ("rotation_scaled", (None, None, "residual", None)),
    "bound": ("bound_{t}", ("max_violation", "violation_index", "tolerance", "passed")),
    "convergence": ("convergence.{label}", ("grids", "residuals", None, "median_order")),
}


def _text(value) -> str:
    """A manifest value: true or false, an integer, a comma-joined tuple, or a float as _fmt."""
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return str(value).lower() if isinstance(value, int) else _fmt(value)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    convergence_levels: int = 4,
) -> ExperimentManifest:
    """Simulate every seed, write the requested CSV series, and write manifest.txt.

    A run that raises, refused say, takes back every file it wrote, then every directory it made;
    the files of an earlier run into the directory stay as they were. A run that completes
    removes the files the earlier manifest lists and it did not write.
    """
    root = Path(out_dir if out_dir is not None else config.output_dir)
    manifest = ExperimentManifest()
    manifest.add("tool", f"rangebound {__version__}")
    manifest.add("created_utc", datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    for line in config_echo_lines(config):
        key, _, value = line.partition(" = ")
        manifest.add(key, value)

    outputs = config.outputs
    wanted = set(outputs - {"bounds", "remarks"})
    if "bounds" in outputs:
        wanted.add("bound_t2" if config.uses_discounted_u else "bound_t1")
    if "remarks" in outputs:
        wanted |= {"rotation_unit", "rotation_scaled"}
    if "identities" in outputs:
        wanted.add("oracle")

    warnings: list[str] = []
    seed_dirs = [root / f"seed{seed}" for seed in config.seeds]
    with _staged([*seed_dirs, root, *root.parents]) as written:  # named once every seed is done
        for seed in config.seeds:
            first, out = len(written), root / f"seed{seed}"
            rows = _evaluate_seed(config, seed, wanted, convergence_levels, out, written)
            for name in sorted(target.stem for target in written[first:]):
                manifest.add(f"seed.{seed}.file", f"seed{seed}/{name}")
            warn = lambda text: warnings.append(f"seed {seed}: {text}")
            checked = _checked(rows, RUN_ORDER, 0, warn, config, convergence_levels, seed)
            for check, label, t, outcome in checked:
                prefix, names = MANIFEST_KEYS[check]
                values = outcome if isinstance(outcome, tuple) else astuple(outcome)
                for name, value in zip(names, values):
                    if name:
                        key = f"seed.{seed}.{prefix.format(label=label, t=t)}.{name}"
                        manifest.add(key, _text(value))

    for warning in warnings:
        manifest.add("warning", warning)

    # the files an earlier run's manifest lists that this run did not write go, and so does
    # each seed directory they leave empty
    earlier = root / "manifest.txt"
    for line in earlier.read_text().splitlines() if earlier.exists() else ():
        listed = re.fullmatch(r"seed\.\d+\.file = (seed\d+/\w+\.csv)", line)
        if listed and listed[1] not in manifest.files:
            stale = root / listed[1]
            stale.unlink(missing_ok=True)
            if stale.parent.is_dir() and not any(stale.parent.iterdir()):
                stale.parent.rmdir()

    # root is made by the first CSV written or here, so a refusal before any write leaves none
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "manifest.txt", "w", newline="\n") as handle:
        handle.write(manifest.to_text())
    return manifest


FIGURE_NAMES = (
    "fig1_x.csv",
    "fig2_X.csv",
    "fig3_Y.csv",
    "fig4_XY.csv",
    "fig5_modZ.csv",
    "fig6_intXdx.csv",
)


def emit_figures(config: ExperimentConfig, out_dir: str | Path | None = None) -> list[Path]:
    """Emit the six reference series for the first configured seed.

    fig1 x(t); fig2/fig3 the transform components; fig4 the (X, Y) locus;
    fig5 the modulus; fig6 the running integral of X against dx. The files take their names
    once all six are written: a write that fails leaves an earlier run's figures as they were.
    """
    root = Path(out_dir if out_dir is not None else config.output_dir)
    path = prepare_path(config, config.seeds[0])
    # the identity's lhs is fig6; its rhs may leave double range while fig6 does not
    identity = IdentityCheck(path, weighted=False)
    t, x, X, Y = _columns(path)
    modulus = lambda k0, k1, z: np.hypot(z.real, z.imag)
    cols = ([x], [X], [Y], [X, Y], [modulus], _sides(identity)[:1])
    files = [(name, "t,value" if len(c) < 2 else "t,X,Y", [t, *c]) for name, c in zip(FIGURE_NAMES, cols)]
    # the refusals are decided once the files are written, so a refused run takes them back
    with _staged([root, *root.parents]) as written, CsvWriter(root, files, written) as writer:
        alive = reduce_pass(path, ([identity, writer], []))
        _refuse_out_of_range(path)
        if not alive[0]:
            raise ConfigurationError(f"seed {path.seed}: the bounded transform leaves double range")
        if not np.isfinite(identity.block[0][-1]):
            raise ConfigurationError(f"seed {path.seed}: the integral of X against dx leaves double range")
    return [root / name for name in FIGURE_NAMES]


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationSummary:
    checks: list[VerificationCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when a check failed or none ran: skipping every check is no pass."""
        return not self.checks or any(not c.passed for c in self.checks)

    def lines(self) -> list[str]:
        checks = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]
        if not self.checks:
            checks = ["FAIL checks: none ran, every check was skipped"]
        return checks + [f"NOTE {n}" for n in self.notes]


VERIFY_WANTED = frozenset(
    {"bound_t1", "bound_t2", "identities", "oracle_head", "rotation_unit", "convergence"}
)
VERIFY_ORDER = "bound rotation_unit oracle identity convergence transform remarks".split()


def verify_suite(config: ExperimentConfig, convergence_levels: int = 4) -> VerificationSummary:
    """Run envelope, identity, equivalence, and convergence checks for a config.

    Envelope and equivalence checks gate pass/fail; identity residuals and
    estimated orders are reported as notes since their size is grid-dependent.
    """
    summary = VerificationSummary()
    note = summary.notes.append

    def gate(name: str, value: float, tolerance: float, what: str) -> None:
        detail = f"{what}={value:.3e} tolerance={tolerance:.3e}"
        summary.checks.append(VerificationCheck(name, value <= tolerance, detail))

    oracle_steps = min(config.n_steps, verification.ORACLE_CEILING)
    for seed in config.seeds:
        rows = _evaluate_seed(config, seed, VERIFY_WANTED, convergence_levels)
        checked = _checked(rows, VERIFY_ORDER, 1, note, config, convergence_levels, seed)
        for check, label, t, v in checked:
            if check == "bound":
                gate(f"bound[{t}] seed={seed}", v.max_violation, v.tolerance_used, "max_violation")
            elif check == "rotation_unit":  # |rhs|, the bound, |lhs - rhs| and the tolerance
                gate(f"bound[rotation] seed={seed}", v[0] - v[1], v[3], "|rhs|-bound")
            elif check == "oracle":
                gate(f"oracle[{label}] seed={seed} n={oracle_steps}", *v, "deviation")
            elif check == "identity":
                note(f"identity[{label}] seed={seed}: residual={v[0]:.6e}")
            else:
                order = f"median_order={v.median_order:.3f}"
                residuals = ",".join(f"{r:.3e}" for r in v.residual_norms)
                note(f"convergence[{label}] seed={seed}: {order} residuals={residuals}")
    return summary
