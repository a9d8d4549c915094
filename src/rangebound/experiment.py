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
from .quadrature import ito_cumsum, riemann_cumsum
from .transforms import (
    bounded_identity_sides,
    bounded_transform_recursive,
    scaled_rotation_identity,
    transform_pair_recursive,
    unit_rotation_identity,
    variance_discounted_u,
    weighted_identity_sides,
    weighted_transform_recursive,  # noqa: F401  (perfbench/tracer.py patches this name here)
)
from .verification import (
    DEFAULT_ORACLE_CEILING,
    check_envelope,
    compare_oracle,  # noqa: F401  (perfbench/tracer.py patches this name here)
    compare_oracle_pair,
    convergence_ladder,
    estimate_order,  # noqa: F401  (perfbench/tracer.py patches this name here)
    identity_residual,
    residual_norm,
)

BOUND_TOLERANCE_UNIT = 1e-9
ORACLE_TOLERANCE_UNIT = 1e-10
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
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def values(self, key: str) -> list[str]:
        return [v for k, v in self.entries if k == key]

    @property
    def files(self) -> list[str]:
        return [v for k, v in self.entries if k.endswith(".file")]

    @property
    def warnings(self) -> list[str]:
        return self.values("warning")

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


def _oracle_tolerance(path: PathRecord, which: str) -> float:
    scale = float(np.sum(np.abs(path.u)) * path.grid.dt)
    if which == "weighted":
        total_variance = float(np.sum(path.sigma * path.sigma) * path.grid.dt)
        with np.errstate(over="ignore"):
            scale *= float(np.exp(0.5 * total_variance))
    return ORACLE_TOLERANCE_UNIT * (1.0 + scale)


def _seed_ladder(config, path, levels, residuals, ts1=None, ts2=None):
    """The seed's convergence reports; None when n_steps does not support ``levels``.

    The finest rung is ``path`` itself. Its identity residuals come from
    ``residuals``, or else from the transforms ``ts1`` and ``ts2``.
    """
    if levels < 3 or path.grid.n_steps % 2 ** (levels - 1) != 0:
        return None
    for identity, ts in (("bounded", ts1), ("weighted", ts2)):
        if identity not in residuals:
            residuals[identity] = identity_residual(path, identity, ts)
    rung = partial(build_path, config)
    return convergence_ladder(path.dw, config.t_max, rung, levels, finest=residuals)


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

    warnings: list[str] = []
    for seed in config.seeds:
        seed_dir = root / f"seed{seed}"
        path = prepare_path(config, seed)
        t = path.grid.nodes
        written: list[str] = []
        summaries: list[tuple[str, str]] = []

        def emit(name: str, header: str, columns: list[np.ndarray]) -> None:
            written.append(_write_csv(seed_dir, name, header, columns).name)

        ts1, ts2 = transform_pair_recursive(
            path,
            bounded=bool({"t1", "identities", "bounds", "convergence"} & config.outputs),
            weighted=bool({"t2", "identities", "convergence"} & config.outputs)
            or ("bounds" in config.outputs and config.uses_discounted_u),
        )

        if "path" in config.outputs:
            emit("x.csv", "t,x", [t, path.x])
        if "t1" in config.outputs:
            emit("t1.csv", "t,X,Y", [t, ts1.X, ts1.Y])
        if "t2" in config.outputs:
            emit("t2.csv", "t,X,Y", [t, ts2.X, ts2.Y])

        # identity -> residual on this seed's path, the finest convergence rung
        residuals: dict[str, float] = {}
        if "identities" in config.outputs:
            lhs1, rhs1 = bounded_identity_sides(path, ts1)
            emit("identity_t1.csv", "t,lhs,rhs", [t, lhs1.values, rhs1.values])
            residuals["bounded"] = residual_norm(lhs1, rhs1)
            summaries.append(("identity_t1.residual", _fmt(residuals["bounded"])))
            lhs2, rhs2 = weighted_identity_sides(path, ts2)
            emit("identity_t2.csv", "t,lhs,rhs", [t, lhs2.values, rhs2])
            residuals["weighted"] = residual_norm(lhs2, rhs2)
            summaries.append(("identity_t2.residual", _fmt(residuals["weighted"])))
            if path.grid.n_steps <= oracle_ceiling:
                deviations = compare_oracle_pair(path, oracle_ceiling, (ts1, ts2))
                for which, deviation in deviations.items():
                    if deviation is None:
                        warnings.append(
                            f"seed {seed}: {which} direct oracle skipped: its scale leaves double range"
                        )
                    else:
                        summaries.append((f"oracle.{which}.deviation", _fmt(deviation)))
            else:
                warnings.append(
                    f"seed {seed}: direct oracle skipped ({path.grid.n_steps} steps exceeds "
                    f"ceiling {oracle_ceiling}); identities checked recursive-only"
                )

        if "remarks" in config.outputs:
            if np.any(path.a != 0.0):
                warnings.append(f"seed {seed}: remarks skipped: drift is not identically zero")
            else:
                rot1 = unit_rotation_identity(path)
                rot2 = scaled_rotation_identity(path)
                emit("rotation_unit.csv", "t,re,im", [t, rot1.U.real, rot1.U.imag])
                emit("rotation_scaled.csv", "t,re,im", [t, rot2.U.real, rot2.U.imag])
                summaries.append(("rotation_unit.rhs_abs", _fmt(abs(rot1.rhs))))
                summaries.append(("rotation_unit.bound", _fmt(rot1.bound)))
                summaries.append(("rotation_unit.residual", _fmt(abs(rot1.lhs - rot1.rhs))))
                summaries.append(("rotation_scaled.residual", _fmt(abs(rot2.lhs - rot2.rhs))))

        if "bounds" in config.outputs:
            envelope = integrand_envelope(config, path)
            target = ts2 if config.uses_discounted_u else ts1
            label = "bound_t2" if config.uses_discounted_u else "bound_t1"
            report = check_envelope(target, envelope, bound_tolerance(envelope))
            emit(f"{label}.csv", "t,modulus,envelope", [t, target.modulus(), envelope.values])
            summaries.append((f"{label}.max_violation", _fmt(report.max_violation)))
            summaries.append((f"{label}.violation_index", str(report.violation_index)))
            summaries.append((f"{label}.tolerance", _fmt(report.tolerance_used)))
            summaries.append((f"{label}.passed", str(report.passed).lower()))

        if "convergence" in config.outputs:
            reports = _seed_ladder(config, path, convergence_levels, residuals, ts1, ts2)
            if reports is None:
                warnings.append(
                    f"seed {seed}: convergence skipped: n_steps {path.grid.n_steps} does not "
                    f"support {convergence_levels} refinement levels"
                )
            else:
                for identity, report in reports.items():
                    key = f"convergence.{identity}"
                    summaries.append((f"{key}.grids", ",".join(str(g) for g in report.grid_sizes)))
                    summaries.append(
                        (f"{key}.residuals", ",".join(_fmt(r) for r in report.residual_norms))
                    )
                    summaries.append((f"{key}.median_order", _fmt(report.median_order)))

        for name in sorted(written):
            manifest.add(f"seed.{seed}.file", f"seed{seed}/{name}")
        for key, value in summaries:
            manifest.add(f"seed.{seed}.{key}", value)

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
        out = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]
        out.extend(f"NOTE {n}" for n in self.notes)
        return out


def _oracle_scale_path(config: ExperimentConfig, path: PathRecord, ceiling: int) -> PathRecord | None:
    """A cheaper path on the same noise when the config grid is above the ceiling.

    The coarse grid is the finest one of at most ``ceiling`` steps that evenly
    divides the config grid; None when it would have fewer than
    ``ceiling // 2`` steps (and never fewer than 2), too few to check much.
    """
    n = path.grid.n_steps
    if n <= ceiling:
        return path
    for factor in range(-(-n // ceiling), n // max(ceiling // 2, 2) + 1):
        if n % factor == 0:
            break
    else:
        return None
    grid = build_grid(config.t_max, n // factor)
    return build_path(config, grid, coarsen_increments(path.dw, factor), factor, path.seed)


def _bound_check(name: str, ts, envelope) -> VerificationCheck:
    report = check_envelope(ts, envelope, bound_tolerance(envelope))
    detail = f"max_violation={report.max_violation:.3e} tolerance={report.tolerance_used:.3e}"
    return VerificationCheck(name, report.passed, detail)


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
    for seed in config.seeds:
        path = prepare_path(config, seed)

        ts1, ts2 = transform_pair_recursive(path)
        u_envelope = riemann_cumsum(np.abs(path.u), path.grid)
        summary.checks.append(_bound_check(f"bound[t1] seed={seed}", ts1, u_envelope))
        if config.uses_discounted_u:
            envelope = integrand_envelope(config, path)
            summary.checks.append(_bound_check(f"bound[t2] seed={seed}", ts2, envelope))
        residuals = {
            "bounded": identity_residual(path, "bounded", ts1),
            "weighted": identity_residual(path, "weighted", ts2),
        }
        # the transforms are dropped before the rotation check and the oracle,
        # unless the oracle runs on this very path
        oracle_path = _oracle_scale_path(config, path, oracle_ceiling)
        fast = (ts1, ts2) if oracle_path is path else None
        del ts1, ts2

        if np.all(path.a == 0.0):
            rot = unit_rotation_identity(path)
            margin = abs(rot.rhs) - rot.bound
            rot_tol = BOUND_TOLERANCE_UNIT * (1.0 + rot.bound)
            summary.checks.append(
                VerificationCheck(
                    f"bound[rotation] seed={seed}",
                    margin <= rot_tol,
                    f"|rhs|-bound={margin:.3e} tolerance={rot_tol:.3e}",
                )
            )

        if oracle_path is None:
            summary.notes.append(f"oracle seed={seed}: no divisor fits under ceiling, skipped")
        else:
            deviations = compare_oracle_pair(oracle_path, oracle_ceiling, fast)
            for which, deviation in deviations.items():
                otol = _oracle_tolerance(oracle_path, which)
                if deviation is None or not np.isfinite(otol):
                    summary.notes.append(
                        f"oracle[{which}] seed={seed}: scale leaves double range, skipped"
                    )
                    continue
                summary.checks.append(
                    VerificationCheck(
                        f"oracle[{which}] seed={seed} n={oracle_path.grid.n_steps}",
                        deviation <= otol,
                        f"deviation={deviation:.3e} tolerance={otol:.3e}",
                    )
                )

        for identity, residual in residuals.items():
            summary.notes.append(f"identity[{identity}] seed={seed}: residual={residual:.6e}")

        reports = _seed_ladder(config, path, convergence_levels, residuals)
        if reports is not None:
            for identity, report in reports.items():
                summary.notes.append(
                    f"convergence[{identity}] seed={seed}: median_order="
                    f"{report.median_order:.3f} residuals="
                    + ",".join(f"{r:.3e}" for r in report.residual_norms)
                )
        else:
            summary.notes.append(
                f"convergence seed={seed}: skipped, n_steps {path.grid.n_steps} does not "
                f"support {convergence_levels} levels"
            )
    return summary
