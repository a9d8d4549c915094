"""Machine-checkable reports: envelope margins, identity residuals,
reference-vs-fast equivalence, and convergence orders under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PathRecord, build_grid, coarsen_increments
from .errors import OracleCostError
from .quadrature import _as_values
from .transforms import (
    TransformSeries,
    bounded_identity_sides,
    transform_pair_direct,
    transform_pair_recursive,
    weighted_identity_sides,
    weighted_scale,
)

DEFAULT_ORACLE_CEILING = 4000
ORACLE_TOLERANCE_UNIT = 1e-10

@dataclass(frozen=True)
class BoundReport:
    """Worst node-wise excess of the transform modulus over its envelope."""

    max_violation: float
    violation_index: int
    tolerance_used: float
    passed: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Residual norms across a refinement ladder and the implied orders."""

    grid_sizes: tuple[int, ...]
    residual_norms: tuple[float, ...]
    estimated_orders: tuple[float, ...]
    median_order: float


def check_envelope(ts: TransformSeries, envelope, tolerance: float) -> BoundReport:
    """Compare sqrt(X^2 + Y^2) against the envelope node by node."""
    env = _as_values(envelope)
    if hasattr(envelope, "grid") and not ts.grid.same_mesh(envelope.grid):
        raise ValueError("transform and envelope live on different grids")
    if len(env) != len(ts.X):
        raise ValueError(f"envelope must have {len(ts.X)} entries, got {len(env)}")
    margin = ts.modulus() - env
    idx = int(np.argmax(margin))
    worst = float(margin[idx])
    return BoundReport(
        max_violation=worst,
        violation_index=idx,
        tolerance_used=float(tolerance),
        passed=worst <= tolerance,
    )


def residual_norm(lhs, rhs) -> float:
    """Max-norm distance between two grid-aligned series."""
    a = _as_values(lhs)
    b = _as_values(rhs)
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    return float(np.max(np.abs(a - b)))


def orders_from_residuals(residual_norms) -> list[float]:
    """log2 decay rate per refinement pair, coarse to fine."""
    norms = list(residual_norms)
    orders = []
    for coarse, fine in zip(norms, norms[1:]):
        with np.errstate(divide="ignore", invalid="ignore"):
            orders.append(float(np.log2(np.float64(coarse) / np.float64(fine))))
    return orders


def _rung_residuals(path: PathRecord) -> dict[str, float | None]:
    """Both identity residuals from one recurrence pass; each None out of double range."""
    ts1, ts2 = transform_pair_recursive(path)
    return {
        "bounded": None if ts1 is None else residual_norm(*bounded_identity_sides(path, ts1)),
        "weighted": None if ts2 is None else residual_norm(*weighted_identity_sides(path, ts2)),
    }


def convergence_ladder(
    fine_increments,
    t_max: float,
    build_rung,
    refinement_levels: int = 4,
    finest: dict[str, float | None] | None = None,
) -> dict[str, ConvergenceReport]:
    """Track how each identity's residual shrinks on a ladder of coarsened grids.

    The finest increment count must be divisible by 2**(refinement_levels-1).
    Every coarser rung reuses the fine noise through pairwise coarsening, so
    residual decay reflects discretization error only. Each rung's path is
    ``build_rung(grid, increments, factor)`` and is built once for both
    identities, its two transforms coming from one recurrence pass. When
    ``finest`` maps both identities to their residuals on the path of the fine
    increments, the finest rung is taken from it instead. An identity whose
    residual is None on some rung, its values out of double range, gets no report.
    """
    fine = np.asarray(fine_increments, dtype=np.float64)
    if refinement_levels < 3:
        raise ValueError(f"refinement_levels must be >= 3, got {refinement_levels}")
    span = 2 ** (refinement_levels - 1)
    if len(fine) % span != 0:
        raise ValueError(f"finest increment count {len(fine)} is not divisible by {span}")
    sizes = tuple(len(fine) >> level for level in reversed(range(refinement_levels)))
    rungs = []  # identity -> residual, coarse to fine
    for n in sizes:
        factor = len(fine) // n
        if factor == 1 and finest is not None:
            rungs.append(finest)
            continue
        path = build_rung(build_grid(t_max, n), coarsen_increments(fine, factor), factor)
        rungs.append(_rung_residuals(path))
    reports = {}
    for identity in ("bounded", "weighted"):
        norms = tuple(rung[identity] for rung in rungs)
        if None in norms:
            continue
        orders = tuple(orders_from_residuals(norms))
        reports[identity] = ConvergenceReport(sizes, norms, orders, float(np.median(orders)))
    return reports


def compare_oracle_pair(
    path: PathRecord,
    ceiling: int = DEFAULT_ORACLE_CEILING,
    fast: tuple[TransformSeries | None, TransformSeries | None] | None = None,
) -> dict[str, tuple[float, float] | None]:
    """Each transform's max |direct - recursive| over both components and all
    nodes, with its tolerance, from one direct and one recursive pass.

    Refuses paths longer than the ceiling: the direct reference is O(N^2).
    The tolerance is ORACLE_TOLERANCE_UNIT * (1 + scale), the scale being the
    total of |u| dt, times e^{I_N/2} for the weighted transform; a row is None,
    and its direct reference skipped, once its scale leaves double range (or
    its recurrence did). ``fast`` is the path's (bounded, weighted) recurrence
    pair when the caller already holds it.
    """
    n = path.grid.n_steps
    if n > ceiling:
        raise OracleCostError(
            f"direct reference refused: {n} steps exceeds the ceiling of {ceiling}"
        )
    with np.errstate(over="ignore"):
        integral = float(np.sum(np.abs(path.u)) * path.grid.dt)
    scales = (integral if np.isfinite(integral) else None, weighted_scale(path, integral))
    in_range = [scale is not None for scale in scales]
    direct = transform_pair_direct(path, *in_range) if any(in_range) else (None, None)
    fast = fast if fast is not None else transform_pair_recursive(path, *in_range)
    rows = {}
    for which, scale, ref, ts in zip(("bounded", "weighted"), scales, direct, fast):
        rows[which] = None
        if ref is not None and ts is not None:
            deviation = max(
                float(np.max(np.abs(ref.X - ts.X))), float(np.max(np.abs(ref.Y - ts.Y)))
            )
            rows[which] = (deviation, ORACLE_TOLERANCE_UNIT * (1 + scale))
    return rows
