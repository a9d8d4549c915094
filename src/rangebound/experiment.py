"""Experiment driver: per-seed simulation, CSV emission, manifest, verify suite.

Every run is a pure function of its config: the same config text produces the
same CSV bytes and the same manifest (minus the created_utc line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_echo_lines
from .engine import (
    PathRecord,
    TimeGrid,
    build_grid,
    coarsen_increments,
    sample_wiener,
    simulate_path,
)
from .quadrature import _as_values, ito_cumsum, riemann_cumsum
from .transforms import (
    bounded_identity_sides,
    bounded_transform_recursive,
    scaled_rotation_identity,
    transform_pair_recursive,
    unit_rotation_identity,
    variance_discounted_u,
    weighted_identity_sides,
    weighted_scale,
)
from .verification import (
    DEFAULT_ORACLE_CEILING,
    BoundReport,
    ConvergenceReport,
    check_envelope,
    compare_oracle_pair,
    convergence_ladder,
    residual_norm,
)

BOUND_TOLERANCE_UNIT = 1e-9
# rows formatted per write in _write_csv; bounds the text held in memory
CSV_CHUNK_ROWS = 8192


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

    @classmethod
    def from_text(cls, text: str) -> "ExperimentManifest":
        manifest = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition(" = ")
            manifest.add(key, value)
        return manifest


def _write_csv(directory: Path, name: str, header: str, columns: list[np.ndarray]) -> Path:
    """Write ``header`` and one row of ``_fmt`` cells per index of ``columns``.

    Rows are formatted CSV_CHUNK_ROWS at a time with a single ``%`` over the
    chunk's values, which spells every float exactly as ``_fmt`` does.
    """
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    length = len(columns[0])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(target, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for start in range(0, length, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, length)
            block = np.column_stack([col[start:stop] for col in columns])
            handle.write((row * (stop - start)) % tuple(block.ravel().tolist()))
    return target


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
    variance-discounted psi.
    """
    u_spec = config.psi_spec if config.uses_discounted_u else config.u_spec
    specs = (spec.coarsened(factor) for spec in (config.a_spec, config.sigma_spec, u_spec))
    path = simulate_path(*specs, grid, dw, config.x0, seed)
    if config.uses_discounted_u:
        path = path.with_u(variance_discounted_u(path.u, path.sigma, grid))
    return path


def prepare_path(config: ExperimentConfig, seed: int) -> PathRecord:
    """Simulate one seed's path on the config grid."""
    grid = build_grid(config.t_max, config.n_steps)
    return build_path(config, grid, sample_wiener(grid, seed), seed=seed)


def integrand_envelope(config: ExperimentConfig, path: PathRecord):
    """The node-wise envelope the transform modulus must stay under.

    With a plain u this is the left-sum of |u|; with psi it is the left-sum of
    |psi|, which dominates the weighted transform of the discounted u.
    """
    if config.uses_discounted_u:
        psi = config.psi_spec.sample_series(path.grid, x_left=path.x[:-1])
        return riemann_cumsum(np.abs(psi), path.grid)
    return riemann_cumsum(np.abs(path.u), path.grid)


def bound_tolerance(envelope) -> float:
    return BOUND_TOLERANCE_UNIT * (1.0 + float(envelope.values[-1]))


@dataclass
class SeedRecord:
    """One seed's checks as scalars (None out of double range) and its emitted series."""

    files: list[str] = field(default_factory=list)
    weighted_skipped: bool = False  # the weighted transform left double range
    bounds: dict[str, BoundReport] = field(default_factory=dict)  # by label t1, t2
    residuals: dict[str, float | None] = field(default_factory=dict)
    # |rhs|, bound, |lhs - rhs|; None with drift
    rotation_unit: tuple[float, float, float] | None = None
    rotation_scaled: float | None = None  # |lhs - rhs|
    oracle_steps: int | None = None  # None when no oracle path fits
    oracle: dict[str, tuple[float, float] | None] = field(default_factory=dict)
    convergence: dict[str, ConvergenceReport] | None = None


def _oracle_scale_path(config: ExperimentConfig, path: PathRecord, ceiling: int) -> PathRecord | None:
    """A cheaper path on the same noise for a config grid above the ceiling.

    The coarse grid is the finest one of at most ``ceiling`` steps that evenly
    divides the config grid; None when it would have fewer than
    ``ceiling // 2`` steps (and never fewer than 2), too few to check much.
    """
    n = path.grid.n_steps
    for factor in range(-(-n // ceiling), n // max(ceiling // 2, 2) + 1):
        if n % factor == 0:
            break
    else:
        return None
    grid = build_grid(config.t_max, n // factor)
    return build_path(config, grid, coarsen_increments(path.dw, factor), factor, path.seed)


def _evaluate_seed(config, seed, wanted, levels, ceiling, coarse_path, emit=None) -> SeedRecord:
    """Simulate one seed and evaluate the series and checks ``wanted`` names.

    ``wanted`` holds output names (path, t1, t2, identities, convergence) and
    check names (bound_t1, bound_t2, rotation_unit, rotation_scaled). The
    identities bring the direct oracle on the path or, above the ceiling, on
    ``coarse_path(config, path, ceiling)``; series go to ``emit``, if given.
    """
    path = prepare_path(config, seed)
    record = SeedRecord()

    def send(name, header, *columns):
        if emit is not None:
            emit(name, header, [path.grid.nodes, *columns])
            record.files.append(name)

    labels = [label for label in ("t1", "t2") if f"bound_{label}" in wanted]
    if not config.uses_discounted_u and "t2" in labels:
        labels.remove("t2")  # the integrand envelope bounds t2 once u is discounted
    sides = bool({"identities", "convergence"} & wanted)
    weighted = sides or "t2" in wanted or "t2" in labels
    ts1, ts2 = transform_pair_recursive(
        path, bounded=sides or "t1" in wanted or "t1" in labels, weighted=weighted
    )
    record.weighted_skipped = weighted and ts2 is None
    if record.weighted_skipped and "t2" in labels:
        labels.remove("t2")
    if "path" in wanted:
        send("x.csv", "t,x", path.x)
    if "t1" in wanted:
        send("t1.csv", "t,X,Y", ts1.X, ts1.Y)
    if "t2" in wanted and ts2 is not None:
        send("t2.csv", "t,X,Y", ts2.X, ts2.Y)

    for label in labels:
        if label == "t1":
            ts, envelope = ts1, riemann_cumsum(np.abs(path.u), path.grid)
        else:
            ts, envelope = ts2, integrand_envelope(config, path)
        record.bounds[label] = check_envelope(ts, envelope, bound_tolerance(envelope))
        if emit is not None:
            send(f"bound_{label}.csv", "t,modulus,envelope", ts.modulus(), envelope.values)
        del ts, envelope

    if sides:
        for label, identity, ts, sides_of in (
            ("t1", "bounded", ts1, bounded_identity_sides),
            ("t2", "weighted", ts2, weighted_identity_sides),
        ):
            if ts is None:
                record.residuals[identity] = None
                continue
            lhs, rhs = sides_of(path, ts)
            record.residuals[identity] = residual_norm(lhs, rhs)
            if "identities" in wanted:
                send(f"identity_{label}.csv", "t,lhs,rhs", _as_values(lhs), _as_values(rhs))
            del ts, lhs, rhs

    # dropping the transforms before the rotation, the oracle and the ladder
    # keeps them out of the peak; the oracle on this very path reuses them
    checked = None
    if "identities" in wanted and path.grid.n_steps <= ceiling:
        checked = path
    elif "identities" in wanted and coarse_path is not None:
        checked = coarse_path(config, path, ceiling)
    fast = (ts1, ts2) if checked is path else None
    del ts1, ts2

    driftless = not np.any(path.a != 0.0)
    if driftless and "rotation_unit" in wanted:
        rot = unit_rotation_identity(path)
        send("rotation_unit.csv", "t,re,im", rot.U.real, rot.U.imag)
        record.rotation_unit = (abs(rot.rhs), rot.bound, abs(rot.lhs - rot.rhs))
        del rot
    if driftless and "rotation_scaled" in wanted:
        # this scale bounds the series, both sides of its identity and their gap
        if weighted_scale(path, 1.0 + float(np.sum(path.sigma * np.abs(path.dw)))) is not None:
            rot = scaled_rotation_identity(path)
            send("rotation_scaled.csv", "t,re,im", rot.U.real, rot.U.imag)
            record.rotation_scaled = abs(rot.lhs - rot.rhs)
            del rot

    if checked is not None:
        record.oracle = compare_oracle_pair(checked, ceiling, fast)
        record.oracle_steps = checked.grid.n_steps
    del checked, fast

    if "convergence" in wanted and levels >= 3 and path.grid.n_steps % 2 ** (levels - 1) == 0:
        # the finest rung is this path, whose residuals are known
        rung = partial(build_path, config)
        record.convergence = convergence_ladder(
            path.dw, config.t_max, rung, levels, finest=record.residuals
        )
    return record


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    convergence_levels: int = 4,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> ExperimentManifest:
    """Simulate every seed, write the requested CSV series, and write manifest.txt."""
    root = Path(out_dir if out_dir is not None else config.output_dir)
    root.mkdir(parents=True, exist_ok=True)

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
        csv = partial(_write_csv, root / f"seed{seed}")
        record = _evaluate_seed(config, seed, wanted, convergence_levels, oracle_ceiling, None, csv)
        for name in sorted(record.files):
            manifest.add(f"seed.{seed}.file", f"seed{seed}/{name}")

        def add(key: str, text: str) -> None:
            manifest.add(f"seed.{seed}.{key}", text)

        def warn(text: str) -> None:
            warnings.append(f"seed {seed}: {text}")

        if record.weighted_skipped:
            warn("weighted transform skipped: its values leave double range")
        if "identities" in outputs:
            for label, identity in (("t1", "bounded"), ("t2", "weighted")):
                if record.residuals[identity] is not None:
                    add(f"identity_{label}.residual", _fmt(record.residuals[identity]))
            if record.oracle_steps is None:
                warn(
                    f"direct oracle skipped ({config.n_steps} steps exceeds ceiling "
                    f"{oracle_ceiling}); identities checked recursive-only"
                )
            for which, row in record.oracle.items():
                if row is None:
                    warn(f"{which} direct oracle skipped: its scale leaves double range")
                else:
                    add(f"oracle.{which}.deviation", _fmt(row[0]))

        if "remarks" in outputs:
            if record.rotation_unit is None:
                warn("remarks skipped: drift is not identically zero")
            else:
                for key, value in zip(("rhs_abs", "bound", "residual"), record.rotation_unit):
                    add(f"rotation_unit.{key}", _fmt(value))
                if record.rotation_scaled is None:
                    warn("scaled rotation skipped: its scale leaves double range")
                else:
                    add("rotation_scaled.residual", _fmt(record.rotation_scaled))

        for label, report in record.bounds.items():
            add(f"bound_{label}.max_violation", _fmt(report.max_violation))
            add(f"bound_{label}.violation_index", str(report.violation_index))
            add(f"bound_{label}.tolerance", _fmt(report.tolerance_used))
            add(f"bound_{label}.passed", str(report.passed).lower())

        if "convergence" in outputs and record.convergence is None:
            warn(
                f"convergence skipped: n_steps {config.n_steps} does not support "
                f"{convergence_levels} refinement levels"
            )
        for identity, report in (record.convergence or {}).items():
            add(f"convergence.{identity}.grids", ",".join(str(g) for g in report.grid_sizes))
            add(f"convergence.{identity}.residuals", ",".join(map(_fmt, report.residual_norms)))
            add(f"convergence.{identity}.median_order", _fmt(report.median_order))

    for warning in warnings:
        manifest.add("warning", warning)

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
    root.mkdir(parents=True, exist_ok=True)
    path = prepare_path(config, config.seeds[0])
    ts = bounded_transform_recursive(path)
    t = path.grid.nodes
    running = ito_cumsum(ts.X[:-1], path)
    files = [
        _write_csv(root, FIGURE_NAMES[0], "t,value", [t, path.x]),
        _write_csv(root, FIGURE_NAMES[1], "t,value", [t, ts.X]),
        _write_csv(root, FIGURE_NAMES[2], "t,value", [t, ts.Y]),
        _write_csv(root, FIGURE_NAMES[3], "t,X,Y", [t, ts.X, ts.Y]),
        _write_csv(root, FIGURE_NAMES[4], "t,value", [t, ts.modulus()]),
        _write_csv(root, FIGURE_NAMES[5], "t,value", [t, running.values]),
    ]
    return files


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
        return any(not c.passed for c in self.checks)

    def lines(self) -> list[str]:
        checks = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]
        return checks + [f"NOTE {n}" for n in self.notes]


VERIFY_WANTED = frozenset({"bound_t1", "bound_t2", "identities", "rotation_unit", "convergence"})


def verify_suite(
    config: ExperimentConfig,
    convergence_levels: int = 4,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> VerificationSummary:
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
        record = _evaluate_seed(
            config, seed, VERIFY_WANTED, convergence_levels, oracle_ceiling, _oracle_scale_path
        )
        for label, r in record.bounds.items():
            check(f"bound[{label}] seed={seed}", r.max_violation, r.tolerance_used, "max_violation")
        if record.rotation_unit is not None:
            rhs_abs, bound, _ = record.rotation_unit
            tolerance = BOUND_TOLERANCE_UNIT * (1.0 + bound)
            check(f"bound[rotation] seed={seed}", rhs_abs - bound, tolerance, "|rhs|-bound")
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
        for identity, report in (record.convergence or {}).items():
            residuals = ",".join(f"{r:.3e}" for r in report.residual_norms)
            note(
                f"convergence[{identity}] seed={seed}: "
                f"median_order={report.median_order:.3f} residuals={residuals}"
            )
    return summary
