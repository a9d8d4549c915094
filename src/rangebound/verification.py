"""Machine-checkable reports: envelope margins, identity residuals,
reference-vs-fast equivalence, and convergence orders under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PathRecord, TimeGrid, build_grid, coarsen_increments
from .errors import OracleCostError
from .transforms import (
    half_variance_sum,
    in_range,
    prefix_sum,
    reduce_pass,
    transform_pair_direct,
    transform_pair_recursive,
)

BOUND_TOLERANCE_UNIT = 1e-9
ORACLE_CEILING = 4000
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


class _BlockCheck:
    """A reduction of one transform fed the blocks of reduce_pass in node order.

    ``feed(k0, k1, z)`` takes X + iY at the nodes k0 .. k1-1, k0 being where the
    blocks fed so far end; a verdict is read once they reach node N. ``keep``
    gathers series whole, read-only once the last block is in.
    """

    def __init__(self, grid: TimeGrid, keep: int):
        self.grid, self.end = grid, 0
        self.kept = tuple(np.empty(grid.n_steps + 1) for _ in range(keep))

    def feed(self, k0: int, k1: int, z: np.ndarray) -> None:
        n_nodes = self.grid.n_steps + 1
        if k0 != self.end or not k0 < k1 <= n_nodes or len(z) != k1 - k0:
            raise ValueError(
                f"block of {len(z)} nodes at {k0} .. {k1 - 1} does not continue node "
                f"{self.end} of {n_nodes}"
            )
        self.end = k1
        for whole, part in zip(self.kept, self._reduce(k0, k1, z)):
            whole[k0:k1] = part
            whole.setflags(write=k1 < n_nodes)

    def _complete(self) -> None:
        if self.end != self.grid.n_steps + 1:
            raise ValueError(f"blocks fed end at node {self.end}, not {self.grid.n_steps + 1}")


class EnvelopeCheck(_BlockCheck):
    """sqrt(X^2 + Y^2) against the left-sum of |integrand| dt.

    ``integrand(k0, k1)`` samples the integrand at the steps k0 .. k1-1. The
    envelope continues from block to block, bit for bit the whole series'; the
    worst margin, modulus minus envelope, and its index are those np.argmax
    picks on the whole series. ``keep`` gathers the modulus and envelope.
    """

    def __init__(self, integrand, grid: TimeGrid, keep: bool = False):
        super().__init__(grid, 2 if keep else 0)
        self.integrand = integrand
        self.total = self.worst = None  # total: the envelope at the last node fed
        self.index = 0

    def _reduce(self, k0: int, k1: int, z: np.ndarray):
        steps = np.abs(self.integrand(k0, min(k1, self.grid.n_steps)))
        envelope = prefix_sum(steps * self.grid.dt, self.total)
        self.total, envelope = envelope[-1], envelope[: k1 - k0]
        modulus = np.hypot(z.real, z.imag)
        margin = modulus - envelope
        i = int(np.argmax(margin))
        # an earlier block keeps a tie, and a nan wins once, as in np.argmax
        if self.worst is None or (self.worst == self.worst and not margin[i] <= self.worst):
            self.worst, self.index = float(margin[i]), k0 + i
        return modulus, envelope

    def report(self) -> BoundReport | None:
        """The worst margin and its tolerance; None once the envelope leaves double range."""
        self._complete()
        if not np.isfinite(self.total):
            return None
        tolerance = BOUND_TOLERANCE_UNIT * (1.0 + float(self.total))
        return BoundReport(self.worst, self.index, tolerance, self.worst <= tolerance)


class IdentityCheck(_BlockCheck):
    """Both sides of one transform's stochastic-integral identity.

    Bounded: lhs_k = sum_{j<k} X_j dx_j, rhs_k = Y_k + 0.5 sum_{j<k} sigma_j^2 Y_j dt.
    Weighted: lhs_k = -sum_{j<k} Y_j dx_j, rhs_k = X_k.
    They agree up to the scheme's discretization error. Both sums continue
    from block to block, bit for bit the whole series'. ``keep`` gathers lhs,
    and the bounded rhs (the weighted one is X).
    """

    def __init__(self, path: PathRecord, weighted: bool, keep: bool = False):
        super().__init__(path.grid, 2 - weighted if keep else 0)
        self.path, self.weighted = path, weighted
        self.sums = [None, None]  # lhs and the sigma^2 Y sum at the last node fed
        self.norm = 0.0

    def _reduce(self, k0: int, k1: int, z: np.ndarray):
        path, m = self.path, k1 - k0
        j1 = min(k1, path.grid.n_steps)
        X, Y = z.real, z.imag
        dx = np.diff(path.x[k0 : j1 + 1])
        lhs = prefix_sum((Y if self.weighted else X)[: j1 - k0] * dx, self.sums[0])
        self.sums[0] = lhs[-1]
        if self.weighted:
            sides = -lhs[:m], X
        else:
            sigma = path.sigma[k0:j1]
            correction = prefix_sum(sigma * sigma * Y[: j1 - k0] * path.grid.dt, self.sums[1])
            self.sums[1] = correction[-1]
            sides = lhs[:m], Y + 0.5 * correction[:m]
        self.norm = np.maximum(self.norm, float(np.max(np.abs(sides[0] - sides[1]))))
        return sides

    def residual(self) -> float | None:
        """max |lhs - rhs|; None once it leaves double range, as it does once either side does."""
        self._complete()
        return float(self.norm) if np.isfinite(self.norm) else None


def orders_from_residuals(residual_norms) -> tuple[float, ...] | None:
    """log2 decay rate per refinement pair, coarse to fine; None once one leaves double range.

    A norm that is None, its values out of double range, or zero has no finite order either.
    """
    norms = [np.float64(norm) for norm in residual_norms]
    return in_range(lambda: tuple(float(np.log2(c / f)) for c, f in zip(norms, norms[1:])))


def _rung_residuals(path: PathRecord) -> dict[str, float | None]:
    """Both identity residuals from one recurrence pass; each None out of double range."""
    checks = (IdentityCheck(path, weighted=False), IdentityCheck(path, weighted=True))
    alive = reduce_pass(path, [[check] for check in checks])
    return {
        identity: check.residual() if ok else None
        for identity, check, ok in zip(("bounded", "weighted"), checks, alive)
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


def compare_oracle_pair(path: PathRecord) -> dict[str, tuple[float, float] | None]:
    """Each transform's max |direct - recursive| over both components and all
    nodes, with its tolerance, from one direct and one recursive pass.

    Refuses paths longer than ORACLE_CEILING: the direct reference is O(N^2).
    The tolerance is ORACLE_TOLERANCE_UNIT * (1 + scale), the scale being the
    total of |u| dt, times e^{I_N/2} for the weighted transform; a row is None,
    and its direct reference skipped, once its scale leaves double range (or
    its recurrence did), and both are once a phase difference x_k - x_j, at
    most max x - min x, does.
    """
    n = path.grid.n_steps
    if n > ORACLE_CEILING:
        raise OracleCostError(
            f"direct reference refused: {n} steps exceeds the ceiling of {ORACLE_CEILING}"
        )
    scales = [None, None]
    if in_range(np.ptp, path.x) is not None:
        scales[0] = integral = in_range(lambda: float(np.sum(np.abs(path.u)) * path.grid.dt))
    if scales[0] is not None:
        scales[1] = in_range(lambda: integral * float(np.exp(half_variance_sum(path)[-1])))
    asked = [scale is not None for scale in scales]
    direct = transform_pair_direct(path, *asked) if any(asked) else (None, None)
    fast = transform_pair_recursive(path, *asked)
    rows = {}
    for which, scale, ref, ts in zip(("bounded", "weighted"), scales, direct, fast):
        rows[which] = None
        if ref is not None and ts is not None:
            deviation = max(
                float(np.max(np.abs(ref.X - ts.X))), float(np.max(np.abs(ref.Y - ts.Y)))
            )
            rows[which] = (deviation, ORACLE_TOLERANCE_UNIT * (1 + scale))
    return rows
