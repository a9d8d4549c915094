"""Experiment driver: per-seed simulation, CSV emission, manifest, verify suite.

Every run is a pure function of its config: the same config text produces the
same CSV bytes and the same manifest (minus the created_utc line).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, verification
from .config import ExperimentConfig, config_echo_lines
from .engine import (
    PathRecord,
    TimeGrid,
    build_grid,
    coarsen_increments,
    sample_wiener,
    simulate_path,
)
from .errors import ConfigurationError
from .transforms import (
    TransformSeries,
    half_variance_sum,
    in_range,
    reduce_pass,
    scaled_rotation_identity,
    unit_rotation_identity,
    variance_discounted_u,
)
from .verification import (
    BOUND_TOLERANCE_UNIT,
    BoundReport,
    ConvergenceReport,
    EnvelopeCheck,
    IdentityCheck,
    compare_oracle_pair,
    convergence_ladder,
)

# rows per chunk of write_csv_batch; the text it holds is this many rows of
# each distinct column in the batch
CSV_CHUNK_ROWS = 2048


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


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


def write_csv_batch(directory: Path, files) -> list[Path]:
    """Write each ``(name, header, columns)`` of ``files`` under ``directory``.

    Every column of the batch has one length. The files are walked in lockstep,
    CSV_CHUNK_ROWS rows at a time, and per chunk each distinct column (by
    identity and by whether it leads a row) is formatted once, with a single
    ``%`` that spells every float exactly as ``_fmt`` does. Each cell carries
    its separator: a row's first cell starts with the newline that ends the
    previous row, so a file's chunk is the plain join of its cells in row order.
    """
    lengths = {len(col) for _, _, columns in files for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of one batch differ in length: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    directory.mkdir(parents=True, exist_ok=True)
    targets = [directory / name for name, _, _ in files]
    with ExitStack() as stack:
        handles = [stack.enter_context(open(target, "w", newline="\n")) for target in targets]
        for handle, (_, header, _) in zip(handles, files):
            handle.write(header)
        for start in range(0, length, CSV_CHUNK_ROWS):
            rows = min(CSV_CHUNK_ROWS, length - start)
            cells = {}  # (id(column), leads the row) -> the chunk's cells
            for handle, (_, _, columns) in zip(handles, files):
                width = len(columns)
                text = [""] * (rows * width)
                for j, col in enumerate(columns):
                    key = (id(col), j == 0)
                    if key not in cells:
                        template = "\0".join(["\n%.17g" if j == 0 else ",%.17g"] * rows)
                        values = tuple(col[start : start + rows].tolist())
                        cells[key] = (template % values).split("\0")
                    text[j::width] = cells[key]
                handle.write("".join(text))
        for handle in handles:
            handle.write("\n")
    return targets


def build_path(
    config: ExperimentConfig,
    grid: TimeGrid,
    dw: np.ndarray,
    factor: int = 1,
    seed: int | None = None,
) -> PathRecord:
    """The config's path on ``grid``, driven by the increments ``dw``.

    ``grid`` is ``factor`` times coarser than the config grid; sampled
    coefficients are decimated to its left nodes. When psi is set, u is the
    variance-discounted psi; a variance integral out of double range leaves
    it undefined, and the config is refused.
    """
    u_spec = config.psi_spec if config.uses_discounted_u else config.u_spec
    specs = (spec.coarsened(factor) for spec in (config.a_spec, config.sigma_spec, u_spec))
    # a step past double range leaves x inf or nan from there on: prepare_path refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        path = simulate_path(*specs, grid, dw, config.x0, seed)
    if not config.uses_discounted_u:
        return path
    u = variance_discounted_u(path.u, path.sigma, grid)
    # on a path out of double range the discount is moot: prepare_path refuses the path
    if u is None and in_range(lambda: path.x) is not None:
        raise ConfigurationError(f"seed {seed}: the variance integral leaves double range")
    return path if u is None else path.with_u(u)


def prepare_path(config: ExperimentConfig, seed: int) -> PathRecord:
    """Simulate one seed's path on the config grid; one that leaves double range is refused."""
    grid = build_grid(config.t_max, config.n_steps)
    path = build_path(config, grid, sample_wiener(grid, seed), seed=seed)
    if not np.isfinite(path.x[-1]):
        raise ConfigurationError(f"seed {seed}: the path leaves double range")
    return path


@dataclass
class SeedRecord:
    """One seed's checks as scalars (None out of double range) and its emitted series."""

    files: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # transforms out of double range
    # by label t1, t2; None when the envelope leaves double range
    bounds: dict[str, BoundReport | None] = field(default_factory=dict)
    residuals: dict[str, float | None] = field(default_factory=dict)
    driftless: bool = False
    # |rhs|, bound, |lhs - rhs|; None with drift or once the bound leaves double range
    rotation_unit: tuple[float, float, float] | None = None
    rotation_scaled: float | None = None  # |lhs - rhs|
    oracle_steps: int | None = None  # None when no oracle path fits
    oracle: dict[str, tuple[float, float] | None] = field(default_factory=dict)
    # None when n_steps does not support the levels; empty without a residual
    convergence: dict[str, ConvergenceReport] | None = None
    unordered: list[str] = field(default_factory=list)  # a residual but no finite order

    @property
    def has_residual(self) -> bool:
        """Whether either identity has a residual on the seed's own path."""
        return any(r is not None for r in self.residuals.values())


def _oracle_scale_path(config: ExperimentConfig, path: PathRecord) -> PathRecord | None:
    """A cheaper path on the same noise for a config grid above the oracle ceiling.

    The coarse grid is the finest one of at most ``ceiling`` steps
    (verification.ORACLE_CEILING) that evenly divides the config grid; None
    when it would have fewer than ``ceiling // 2`` steps (and never fewer
    than 2), too few to check much.
    """
    n, ceiling = path.grid.n_steps, verification.ORACLE_CEILING
    for factor in range(-(-n // ceiling), n // max(ceiling // 2, 2) + 1):
        if n % factor == 0:
            break
    else:
        return None
    grid = build_grid(config.t_max, n // factor)
    return build_path(config, grid, coarsen_increments(path.dw, factor), factor, path.seed)


def _evaluate_seed(config, seed, wanted, levels, out=None) -> SeedRecord:
    """Simulate one seed and evaluate the series and checks ``wanted`` names.

    ``wanted`` holds output names (path, t1, t2, identities, convergence) and
    check names (bound_t1, bound_t2, rotation_unit, rotation_scaled,
    coarse_oracle). The identities bring the direct oracle on the path up to
    the oracle ceiling; above it, coarse_oracle brings it on _oracle_scale_path.
    If ``out`` is given, series are written under that directory.
    """
    if levels < 3:
        raise ConfigurationError(f"convergence needs at least 3 refinement levels, got {levels}")
    path = prepare_path(config, seed)
    grid = path.grid
    record = SeedRecord()
    pending = []
    keep = out is not None

    def send(name, header, *columns):
        if keep:
            pending.append((name, header, [grid.nodes, *columns]))
            record.files.append(name)

    def flush():
        if pending:
            write_csv_batch(out, pending)
            pending.clear()

    # one recurrence pass feeds every bound and identity check, and run
    # gathers what it writes
    integrands = {
        "t1": lambda k0, k1: path.u[k0:k1],
        "t2": lambda k0, k1: config.psi_spec.sample_series(grid, path.x[k0:k1], k0, k1),
    }
    n_nodes = grid.n_steps + 1
    gathered, envelopes, identities, consumers = {}, {}, {}, []
    for label in ("t1", "t2"):
        weighted = label == "t2"
        if keep and (label in wanted or weighted and "identities" in wanted):
            gathered[label] = TransformSeries(np.empty(n_nodes), np.empty(n_nodes), weighted)
        # the integrand envelope bounds t2 once u is discounted
        if f"bound_{label}" in wanted and (config.uses_discounted_u or not weighted):
            envelopes[label] = EnvelopeCheck(integrands[label], grid, keep)
        if {"identities", "convergence"} & wanted:
            identities[label] = IdentityCheck(path, weighted, keep and "identities" in wanted)
        consumers.append([c[label] for c in (gathered, envelopes, identities) if label in c])
    alive = dict(zip(("t1", "t2"), reduce_pass(path, consumers)))

    if "path" in wanted:
        send("x.csv", "t,x", path.x)
    for (label, which), group in zip((("t1", "bounded"), ("t2", "weighted")), consumers):
        if group and not alive[label]:
            record.skipped.append(which)
        parts = (gathered, envelopes, identities) if alive[label] else ({}, {}, {})
        ts, bound, check = (part.get(label) for part in parts)
        if ts and label in wanted:
            send(f"{label}.csv", "t,X,Y", ts.X, ts.Y)
        if bound:
            # past double range the envelope bounds nothing and its tolerance is inf
            record.bounds[label] = bound.report()
            if record.bounds[label] is not None:
                send(f"bound_{label}.csv", "t,modulus,envelope", *bound.kept)
        if identities:
            record.residuals[which] = check.residual() if check else None
            if check and check.kept and record.residuals[which] is not None:
                rhs = ts.X if check.weighted else check.kept[1]
                send(f"identity_{label}.csv", "t,lhs,rhs", check.kept[0], rhs)
    flush()
    # the checks and what they gathered go before the rotation, the oracle and the ladder
    del gathered, envelopes, identities, consumers, group, parts, ts, bound, check

    def rotation(identity, name, bound) -> tuple[float, float, float] | None:
        """|rhs|, ``bound()`` and |lhs - rhs| at the horizon, U written; None out of double range."""

        def horizon():  # the running sides go before U is written
            U, lhs, rhs = identity(path)
            return U, lhs[-1], rhs[-1], np.abs(lhs[-1] - rhs[-1]), bound()

        sides = in_range(horizon)
        if sides is None:
            return None
        U, lhs, rhs, _, scale = sides
        send(name, "t,re,im", U.real, U.imag)
        flush()
        return abs(complex(rhs)), float(scale), abs(complex(lhs) - complex(rhs))

    record.driftless = not np.any(path.a != 0.0)
    if record.driftless and "rotation_unit" in wanted:
        # the bound also bounds |rhs|; past double range it bounds nothing
        record.rotation_unit = rotation(
            unit_rotation_identity,
            "rotation_unit.csv",
            lambda: 2.0 + 0.5 * np.sum(path.sigma * path.sigma) * path.grid.dt,
        )
    if record.driftless and "rotation_scaled" in wanted:
        # e^{I_N/2} times 1 + the total of sigma |dw| bounds U and both sides
        # while sigma >= 0; with sigma < 0 it shrinks, so the sides are judged too
        scaled = rotation(
            scaled_rotation_identity,
            "rotation_scaled.csv",
            lambda: (1.0 + np.sum(path.sigma * np.abs(path.dw)))
            * np.exp(half_variance_sum(path)[-1]),
        )
        record.rotation_scaled = None if scaled is None else scaled[2]

    checked = None
    if "identities" in wanted and grid.n_steps <= verification.ORACLE_CEILING:
        checked = path
    elif "coarse_oracle" in wanted:
        checked = _oracle_scale_path(config, path)
    # a coarser oracle path and the ladder need the noise only: the path goes
    # before the oracle's direct pass and the ladder's rungs
    dw = path.dw
    del path
    if checked is not None:
        record.oracle = compare_oracle_pair(checked)
        record.oracle_steps = checked.grid.n_steps
    del checked

    if "convergence" in wanted and grid.n_steps % 2 ** (levels - 1) == 0:
        record.convergence = {}
        # the finest rung is this path, whose residuals are known; with none,
        # no ladder can report, so no coarser rung is built
        if record.has_residual:
            rung = partial(build_path, config, seed=seed)
            record.convergence = convergence_ladder(
                dw, config.t_max, rung, levels, finest=record.residuals
            )
            record.unordered = [
                i for i, r in record.residuals.items() if r is not None and i not in record.convergence
            ]
    return record


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    convergence_levels: int = 4,
) -> ExperimentManifest:
    """Simulate every seed, write the requested CSV series, and write manifest.txt."""
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

    warnings: list[str] = []
    for seed in config.seeds:
        record = _evaluate_seed(config, seed, wanted, convergence_levels, root / f"seed{seed}")
        for name in sorted(record.files):
            manifest.add(f"seed.{seed}.file", f"seed{seed}/{name}")

        def add(key: str, text: str) -> None:
            manifest.add(f"seed.{seed}.{key}", text)

        def warn(text: str) -> None:
            warnings.append(f"seed {seed}: {text}")

        for which in record.skipped:
            warn(f"{which} transform skipped: its values leave double range")
        if "identities" in outputs:
            for label, identity in (("t1", "bounded"), ("t2", "weighted")):
                if record.residuals[identity] is not None:
                    add(f"identity_{label}.residual", _fmt(record.residuals[identity]))
                elif identity not in record.skipped:
                    warn(f"identity_{label} skipped: its values leave double range")
            if record.oracle_steps is None:
                warn(
                    f"direct oracle skipped ({config.n_steps} steps exceeds ceiling "
                    f"{verification.ORACLE_CEILING}); identities checked recursive-only"
                )
            for which, row in record.oracle.items():
                if row is None:
                    warn(f"{which} direct oracle skipped: its scale leaves double range")
                else:
                    add(f"oracle.{which}.deviation", _fmt(row[0]))

        if "remarks" in outputs and not record.driftless:
            warn("remarks skipped: drift is not identically zero")
        elif "remarks" in outputs:
            if record.rotation_unit is None:
                warn("unit rotation skipped: its bound leaves double range")
            else:
                for key, value in zip(("rhs_abs", "bound", "residual"), record.rotation_unit):
                    add(f"rotation_unit.{key}", _fmt(value))
            if record.rotation_scaled is None:
                warn("scaled rotation skipped: its scale leaves double range")
            else:
                add("rotation_scaled.residual", _fmt(record.rotation_scaled))

        for label, report in record.bounds.items():
            if report is None:
                warn(f"bound_{label} skipped: its envelope leaves double range")
                continue
            add(f"bound_{label}.max_violation", _fmt(report.max_violation))
            add(f"bound_{label}.violation_index", str(report.violation_index))
            add(f"bound_{label}.tolerance", _fmt(report.tolerance_used))
            add(f"bound_{label}.passed", str(report.passed).lower())

        if "convergence" in outputs and record.convergence is None:
            warn(
                f"convergence skipped: n_steps {config.n_steps} does not support "
                f"{convergence_levels} refinement levels"
            )
        elif "convergence" in outputs and not record.has_residual:
            warn("convergence skipped: no identity residual in double range")
        for identity in record.unordered:
            warn(f"convergence.{identity} skipped: its residuals give no finite order")
        for identity, report in (record.convergence or {}).items():
            add(f"convergence.{identity}.grids", ",".join(str(g) for g in report.grid_sizes))
            add(f"convergence.{identity}.residuals", ",".join(map(_fmt, report.residual_norms)))
            add(f"convergence.{identity}.median_order", _fmt(report.median_order))

    for warning in warnings:
        manifest.add("warning", warning)

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
    fig5 the modulus; fig6 the running integral of X against dx.
    """
    root = Path(out_dir if out_dir is not None else config.output_dir)
    path = prepare_path(config, config.seeds[0])
    n_nodes = path.grid.n_steps + 1
    ts = TransformSeries(np.empty(n_nodes), np.empty(n_nodes), weighted=False)
    # the identity's lhs is fig6; its rhs may leave double range while fig6 does not
    identity = IdentityCheck(path, weighted=False, keep=True)
    if not reduce_pass(path, ([ts, identity], []))[0]:
        raise ConfigurationError(f"seed {path.seed}: the bounded transform leaves double range")
    running = in_range(lambda: identity.kept[0])
    if running is None:
        raise ConfigurationError(f"seed {path.seed}: the integral of X against dx leaves double range")
    t = path.grid.nodes
    files = [
        (FIGURE_NAMES[0], "t,value", [t, path.x]),
        (FIGURE_NAMES[1], "t,value", [t, ts.X]),
        (FIGURE_NAMES[2], "t,value", [t, ts.Y]),
        (FIGURE_NAMES[3], "t,X,Y", [t, ts.X, ts.Y]),
        (FIGURE_NAMES[4], "t,value", [t, ts.modulus()]),
        (FIGURE_NAMES[5], "t,value", [t, running]),
    ]
    return write_csv_batch(root, files)


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
    {"bound_t1", "bound_t2", "identities", "coarse_oracle", "rotation_unit", "convergence"}
)


def verify_suite(config: ExperimentConfig, convergence_levels: int = 4) -> VerificationSummary:
    """Run envelope, identity, equivalence, and convergence checks for a config.

    Envelope and equivalence checks gate pass/fail; identity residuals and
    estimated orders are reported as notes since their size is grid-dependent.
    """
    summary = VerificationSummary()
    note = summary.notes.append

    def check(name: str, value: float, tolerance: float, what: str) -> None:
        detail = f"{what}={value:.3e} tolerance={tolerance:.3e}"
        summary.checks.append(VerificationCheck(name, value <= tolerance, detail))

    for seed in config.seeds:
        record = _evaluate_seed(config, seed, VERIFY_WANTED, convergence_levels)
        for label, r in record.bounds.items():
            name = f"bound[{label}] seed={seed}"
            if r is None:
                note(f"{name}: envelope leaves double range, skipped")
            else:
                check(name, r.max_violation, r.tolerance_used, "max_violation")
        if record.rotation_unit is not None:
            rhs_abs, bound, _ = record.rotation_unit
            tolerance = BOUND_TOLERANCE_UNIT * (1.0 + bound)
            check(f"bound[rotation] seed={seed}", rhs_abs - bound, tolerance, "|rhs|-bound")
        elif record.driftless:
            note(f"bound[rotation] seed={seed}: bound leaves double range, skipped")
        if record.oracle_steps is None:
            note(f"oracle seed={seed}: no divisor fits under ceiling, skipped")
        for which, row in record.oracle.items():
            if row is None:
                note(f"oracle[{which}] seed={seed}: scale leaves double range, skipped")
            else:
                check(f"oracle[{which}] seed={seed} n={record.oracle_steps}", *row, "deviation")

        for identity, residual in record.residuals.items():
            if residual is None:
                note(f"identity[{identity}] seed={seed}: values leave double range, skipped")
            else:
                note(f"identity[{identity}] seed={seed}: residual={residual:.6e}")
        if record.convergence is None:
            note(
                f"convergence seed={seed}: skipped, n_steps {config.n_steps} does not "
                f"support {convergence_levels} levels"
            )
        elif not record.has_residual:
            note(f"convergence seed={seed}: skipped, no identity residual in double range")
        for identity, report in (record.convergence or {}).items():
            residuals = ",".join(f"{r:.3e}" for r in report.residual_norms)
            note(
                f"convergence[{identity}] seed={seed}: "
                f"median_order={report.median_order:.3f} residuals={residuals}"
            )
        for identity in record.unordered:
            note(f"convergence[{identity}] seed={seed}: skipped, its residuals give no finite order")
    return summary
