"""Machine-checkable reports: envelope margins, identity residuals,
reference-vs-fast equivalence, and convergence orders under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    CoefficientSpec,
    PathRecord,
    build_grid,
    coarsen_increments,
    simulate_path,
)
from .errors import OracleCostError
from .quadrature import _as_values
from .transforms import (
    TransformSeries,
    bounded_identity_sides,
    bounded_transform_direct,
    bounded_transform_recursive,
    scaled_rotation_running_sides,
    transform_pair_direct,
    transform_pair_recursive,
    unit_rotation_running_sides,
    weighted_identity_sides,
    weighted_transform_direct,
    weighted_transform_recursive,
)

DEFAULT_ORACLE_CEILING = 4000

IDENTITY_NAMES = ("bounded", "weighted", "unit_rotation", "scaled_rotation")

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


def identity_residual(path: PathRecord, identity: str, ts: TransformSeries | None = None) -> float:
    """Max-norm residual of the selected identity on one path.

    Every identity is checked over the whole grid, rotations included: the
    claims hold for every horizon, so the residual is the max-norm of the
    running lhs/rhs series, not an endpoint difference. A caller that already
    holds the path's bounded or weighted transform passes it as ``ts``.
    """
    if identity == "bounded":
        ts = ts if ts is not None else bounded_transform_recursive(path)
        return residual_norm(*bounded_identity_sides(path, ts))
    if identity == "weighted":
        ts = ts if ts is not None else weighted_transform_recursive(path)
        return residual_norm(*weighted_identity_sides(path, ts))
    if identity == "unit_rotation":
        return residual_norm(*unit_rotation_running_sides(path))
    if identity == "scaled_rotation":
        return residual_norm(*scaled_rotation_running_sides(path))
    raise ValueError(f"unknown identity {identity!r}, expected one of {IDENTITY_NAMES}")


def orders_from_residuals(residual_norms) -> list[float]:
    """log2 decay rate per refinement pair, coarse to fine."""
    norms = list(residual_norms)
    orders = []
    for coarse, fine in zip(norms, norms[1:]):
        with np.errstate(divide="ignore", invalid="ignore"):
            orders.append(float(np.log2(np.float64(coarse) / np.float64(fine))))
    return orders


def _rung_residuals(path: PathRecord, identities: tuple[str, ...]) -> dict[str, float]:
    pair = transform_pair_recursive(
        path, bounded="bounded" in identities, weighted="weighted" in identities
    )
    held = dict(zip(("bounded", "weighted"), pair))
    return {identity: identity_residual(path, identity, held.get(identity)) for identity in identities}


def convergence_ladder(
    fine_increments,
    t_max: float,
    build_rung,
    refinement_levels: int = 4,
    identities: tuple[str, ...] = ("bounded", "weighted"),
    finest: dict[str, float] | None = None,
) -> dict[str, ConvergenceReport]:
    """Track how each identity's residual shrinks on a ladder of coarsened grids.

    The finest increment count must be divisible by 2**(refinement_levels-1).
    Every coarser rung reuses the fine noise through pairwise coarsening, so
    residual decay reflects discretization error only. Each rung's path is
    ``build_rung(grid, increments, factor)`` and is built once for all
    identities, its two transforms coming from one recurrence pass. When
    ``finest`` maps every identity to its residual on the path of the fine
    increments, the finest rung is taken from it instead.
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
        rungs.append(_rung_residuals(path, identities))
    reports = {}
    for identity in identities:
        norms = tuple(rung[identity] for rung in rungs)
        orders = tuple(orders_from_residuals(norms))
        reports[identity] = ConvergenceReport(sizes, norms, orders, float(np.median(orders)))
    return reports


def estimate_order(
    fine_increments,
    *,
    t_max: float,
    a_spec: CoefficientSpec,
    sigma_spec: CoefficientSpec,
    u_spec: CoefficientSpec,
    x0: float = 0.0,
    refinement_levels: int = 4,
    identity: str = "bounded",
) -> ConvergenceReport:
    """One identity's convergence ladder; file samples are decimated on every rung."""

    def rung(grid, increments, factor):
        specs = (spec.coarsened(factor) for spec in (a_spec, sigma_spec, u_spec))
        return simulate_path(*specs, grid, increments, x0)

    return convergence_ladder(fine_increments, t_max, rung, refinement_levels, (identity,))[identity]


def _refuse_above(path: PathRecord, ceiling: int) -> None:
    n = path.grid.n_steps
    if n > ceiling:
        raise OracleCostError(
            f"direct reference refused: {n} steps exceeds the ceiling of {ceiling}"
        )


def _deviation(direct: TransformSeries, fast: TransformSeries) -> float:
    return max(
        float(np.max(np.abs(direct.X - fast.X))),
        float(np.max(np.abs(direct.Y - fast.Y))),
    )


def compare_oracle(
    path: PathRecord, which: str = "bounded", ceiling: int = DEFAULT_ORACLE_CEILING
) -> float:
    """Max |direct - recursive| over both components and all nodes.

    Refuses paths longer than the ceiling: the direct reference is O(N^2).
    """
    if which not in ("bounded", "weighted"):
        raise ValueError(f"unknown transform {which!r}, expected 'bounded' or 'weighted'")
    _refuse_above(path, ceiling)
    if which == "bounded":
        return _deviation(bounded_transform_direct(path), bounded_transform_recursive(path))
    return _deviation(weighted_transform_direct(path), weighted_transform_recursive(path))


def compare_oracle_pair(
    path: PathRecord,
    ceiling: int = DEFAULT_ORACLE_CEILING,
    fast: tuple[TransformSeries, TransformSeries] | None = None,
) -> dict[str, float | None]:
    """compare_oracle for both transforms, from one direct and one recursive pass.

    ``fast`` is the path's (bounded, weighted) recurrence pair when the caller
    already holds it. The weighted deviation is None when its direct reference
    is skipped because its scale leaves double range.
    """
    _refuse_above(path, ceiling)
    direct = transform_pair_direct(path)
    fast = fast if fast is not None else transform_pair_recursive(path)
    return {
        which: None if ref is None else _deviation(ref, ts)
        for which, ref, ts in zip(("bounded", "weighted"), direct, fast)
    }
