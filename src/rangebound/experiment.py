"""Experiment driver: per-seed simulation, CSV emission, manifest, verify suite.

Every run is a pure function of its config: the same config text produces the
same CSV bytes and the same manifest (minus the created_utc line).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import astuple, dataclass, field
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


def _evaluate_seed(config, seed, wanted, levels, out=None, written=None) -> list[tuple]:
    """Simulate one seed and evaluate the series and checks ``wanted`` names.

    ``wanted`` holds output names (path, t1, t2, identities, convergence) and
    check names (bound_t1, bound_t2, rotation_unit, rotation_scaled, oracle,
    oracle_head). ``oracle`` checks the path, skipped above
    verification.ORACLE_CEILING steps; ``oracle_head`` checks its first
    ORACLE_CEILING steps. Returns a row ``(check, label, outcome)`` per outcome:
    the check's values, or the reason it was skipped, a key of SKIP_WORDING. If
    ``out`` is given, series are written under it, and each file to ``written``.
    """
    if levels < 3:
        raise ConfigurationError(f"convergence needs at least 3 refinement levels, got {levels}")
    path = prepare_path(config, seed)
    grid = path.grid
    rows, pending = [], []
    keep = out is not None

    def send(name, header, *columns):
        if keep:
            pending.append((name, header, [grid.nodes, *columns]))

    def flush():
        if pending:
            written.extend(write_csv_batch(out, pending))
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
    residuals = {}  # on the seed's own path: the ladder's finest rung
    for (which, label), group in zip(SERIES.items(), consumers):
        if group and not alive[label]:
            rows.append(("transform", which, "range"))
        parts = (gathered, envelopes, identities) if alive[label] else ({}, {}, {})
        ts, bound, check = (part.get(label) for part in parts)
        if ts and label in wanted:
            send(f"{label}.csv", "t,X,Y", ts.X, ts.Y)
        if bound:
            # past double range the envelope bounds nothing and its tolerance is inf
            report = bound.report()
            rows.append(("bound", which, report or "range"))
            if report:
                send(f"bound_{label}.csv", "t,modulus,envelope", *bound.kept)
        if identities:
            residual = residuals[which] = check.residual() if check else None
            if check and check.kept and residual is not None:
                rhs = ts.X if check.weighted else check.kept[1]
                send(f"identity_{label}.csv", "t,lhs,rhs", check.kept[0], rhs)
            if "identities" in wanted:
                skip = "range" if check else "transform"
                rows.append(("identity", which, skip if residual is None else (residual,)))
    flush()
    # the checks and what they gathered go before the rotation, the oracle and the ladder
    del gathered, envelopes, identities, consumers, group, parts, ts, bound, check

    def rotation(check, identity, bound) -> None:
        """Row ``check``: |rhs|, ``bound()`` and |lhs - rhs| at the horizon, U written."""

        def horizon():  # the running sides go before U is written
            U, lhs, rhs = identity(path)
            return U, lhs[-1], rhs[-1], np.abs(lhs[-1] - rhs[-1]), bound()

        sides = in_range(horizon)
        if sides is not None:
            U, lhs, rhs, _, scale = sides
            send(f"{check}.csv", "t,re,im", U.real, U.imag)
            flush()
            sides = abs(complex(rhs)), float(scale), abs(complex(lhs) - complex(rhs))
        rows.append((check, None, "range" if sides is None else sides))

    driftless = not np.any(path.a != 0.0)
    if not driftless and {"rotation_unit", "rotation_scaled"} & wanted:
        rows.append(("remarks", None, "drift"))
    if driftless and "rotation_unit" in wanted:
        # the bound also bounds |rhs|; past double range it bounds nothing
        rotation(
            "rotation_unit",
            unit_rotation_identity,
            lambda: 2.0 + 0.5 * np.sum(path.sigma * path.sigma) * path.grid.dt,
        )
    if driftless and "rotation_scaled" in wanted:
        # e^{I_N/2} times 1 + the total of sigma |dw| bounds U and both sides
        # while sigma >= 0; with sigma < 0 it shrinks, so the sides are judged too
        rotation(
            "rotation_scaled",
            scaled_rotation_identity,
            lambda: (1.0 + np.sum(path.sigma * np.abs(path.dw)))
            * np.exp(half_variance_sum(path)[-1]),
        )

    # the oracle's head is a copy of at most ORACLE_CEILING steps and the ladder
    # needs the noise only: a longer path goes before the direct pass and the rungs
    ceiling, head = verification.ORACLE_CEILING, None
    if "oracle_head" in wanted or "oracle" in wanted and grid.n_steps <= ceiling:
        head = path.head(ceiling)
    elif "oracle" in wanted:
        rows.append(("oracle", None, "ceiling"))
    dw = path.dw
    del path
    oracle = compare_oracle_pair(head).items() if head is not None else ()
    rows += [("oracle", which, row or "range") for which, row in oracle]

    if "convergence" in wanted:
        # the finest rung is this path, whose residuals are known; with none,
        # no ladder can report, so no coarser rung is built
        if grid.n_steps % 2 ** (levels - 1):
            rows.append(("convergence", None, "levels"))
        elif all(residual is None for residual in residuals.values()):
            rows.append(("convergence", None, "residual"))
        else:
            rung = partial(build_path, config, seed=seed)
            reports = convergence_ladder(dw, config.t_max, rung, levels, finest=residuals)
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
    "rotation_unit": ("rotation_unit", ("rhs_abs", "bound", "residual")),
    "rotation_scaled": ("rotation_scaled", (None, None, "residual")),
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

    A run that raises, refused say, takes back every file it wrote, then every directory it made.
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
    written: list[Path] = []
    made = [root / f"seed{seed}" for seed in config.seeds] + [root, *root.parents]
    made = [directory for directory in made if not directory.exists()]
    try:
        for seed in config.seeds:
            first, out = len(written), root / f"seed{seed}"
            rows = _evaluate_seed(config, seed, wanted, convergence_levels, out, written)
            for name in sorted(target.name for target in written[first:]):
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
    except BaseException:
        for target in written:
            target.unlink()
        for directory in made:
            if directory.exists():
                directory.rmdir()
        raise

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
            elif check == "rotation_unit":  # |rhs|, the bound and |lhs - rhs|
                tolerance = BOUND_TOLERANCE_UNIT * (1.0 + v[1])
                gate(f"bound[rotation] seed={seed}", v[0] - v[1], tolerance, "|rhs|-bound")
            elif check == "oracle":
                gate(f"oracle[{label}] seed={seed} n={oracle_steps}", *v, "deviation")
            elif check == "identity":
                note(f"identity[{label}] seed={seed}: residual={v[0]:.6e}")
            else:
                order = f"median_order={v.median_order:.3f}"
                residuals = ",".join(f"{r:.3e}" for r in v.residual_norms)
                note(f"convergence[{label}] seed={seed}: {order} residuals={residuals}")
    return summary
