"""Machine-checkable reports: envelope margins, identity residuals,
reference-vs-fast equivalence, and convergence orders under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PathRecord, build_grid, coarsen_increments
from .errors import OracleCostError
from .transforms import (
    TransformSeries,
    bounded_identity_sides,
    half_variance_sum,
    in_range,
    transform_pair_direct,
    transform_pair_recursive,
    weighted_identity_sides,
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
    if len(envelope) != len(ts.X):
        raise ValueError(f"envelope must have {len(ts.X)} entries, got {len(envelope)}")
    margin = ts.modulus() - envelope
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
    if len(lhs) != len(rhs):
        raise ValueError(f"series lengths differ: {len(lhs)} vs {len(rhs)}")
    return float(np.max(np.abs(np.subtract(lhs, rhs))))


def identity_sides(path: PathRecord, ts: TransformSeries):
    """Both sides of the identity of ``ts`` (bounded or weighted) and their residual_norm."""
    sides_of = weighted_identity_sides if ts.weighted else bounded_identity_sides
    lhs, rhs = sides_of(path, ts)
    return lhs, rhs, residual_norm(lhs, rhs)


def orders_from_residuals(residual_norms) -> tuple[float, ...] | None:
    """log2 decay rate per refinement pair, coarse to fine; None once one leaves double range.

    A norm that is None, its values out of double range, or zero has no finite order either.
    """
    norms = [np.float64(norm) for norm in residual_norms]
    return in_range(lambda: tuple(float(np.log2(c / f)) for c, f in zip(norms, norms[1:])))


def _rung_residuals(path: PathRecord) -> dict[str, float | None]:
    """Both identity residuals from one recurrence pass; each None out of double range."""
    residuals = {}
    for identity, ts in zip(("bounded", "weighted"), transform_pair_recursive(path)):
        sides = None if ts is None else in_range(identity_sides, path, ts)
        residuals[identity] = None if sides is None else sides[2]
    return residuals


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
    increments, the finest rung is taken from it instead. An identity gets no
    report when orders_from_residuals finds no order: a residual None on some
    rung, its values out of double range, or zero, or two rungs' ratio out of
    double range.
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
        orders = orders_from_residuals(norms)
        if orders is not None:
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
    its recurrence did), and both are once a phase difference x_k - x_j, at
    most max x - min x, does. ``fast`` is the path's (bounded, weighted)
    recurrence pair when the caller already holds it.
    """
    n = path.grid.n_steps
    if n > ceiling:
        raise OracleCostError(
            f"direct reference refused: {n} steps exceeds the ceiling of {ceiling}"
        )
    scales = [None, None]
    if in_range(np.ptp, path.x) is not None:
        scales[0] = integral = in_range(lambda: float(np.sum(np.abs(path.u)) * path.grid.dt))
    if scales[0] is not None:
        scales[1] = in_range(lambda: integral * float(np.exp(half_variance_sum(path)[-1])))
    asked = [scale is not None for scale in scales]
    direct = transform_pair_direct(path, *asked) if any(asked) else (None, None)
    fast = fast if fast is not None else transform_pair_recursive(path, *asked)
    rows = {}
    for which, scale, ref, ts in zip(("bounded", "weighted"), scales, direct, fast):
        rows[which] = None
        if ref is not None and ts is not None:
            deviation = max(
                float(np.max(np.abs(ref.X - ts.X))), float(np.max(np.abs(ref.Y - ts.Y)))
            )
            rows[which] = (deviation, ORACLE_TOLERANCE_UNIT * (1 + scale))
    return rows
