"""Machine-checkable reports: envelope margins, identity residuals,
reference-vs-fast equivalence, and convergence orders under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Increments, PathRecord, TimeGrid, build_grid
from .errors import OracleCostError
from .transforms import (
    in_range,
    prefix_sum,
    reduce_pass,
    transform_pair_direct,
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
    """A reduction of one series fed in blocks in node order.

    ``feed(k0, k1, z)`` takes X + iY from reduce_pass, or x, on the path's lane, for a rotation,
    at the nodes k0 .. k1-1, k0 being where the blocks fed so far end; a verdict is read once
    they reach node N. ``block`` holds the series the last block reduced, at its nodes, for a
    consumer fed after the check, such as run's CSV writer.
    """

    def __init__(self, grid: TimeGrid):
        self.grid, self.end, self.block = grid, 0, ()

    def feed(self, k0: int, k1: int, z: np.ndarray) -> None:
        n_nodes = self.grid.n_steps + 1
        if k0 != self.end or not k0 < k1 <= n_nodes or len(z) != k1 - k0:
            raise ValueError(
                f"block of {len(z)} nodes at {k0} .. {k1 - 1} does not continue node "
                f"{self.end} of {n_nodes}"
            )
        self.end = k1
        self.block = self._reduce(k0, k1, z)

    def _complete(self) -> None:
        if self.end != self.grid.n_steps + 1:
            raise ValueError(f"blocks fed end at node {self.end}, not {self.grid.n_steps + 1}")


class EnvelopeCheck(_BlockCheck):
    """sqrt(X^2 + Y^2) against the left-sum of |integrand| dt.

    ``integrand(k0, k1)`` samples the integrand at the steps k0 .. k1-1. The
    envelope continues from block to block, bit for bit the whole series'; the
    worst margin, modulus minus envelope, and its index are those np.argmax
    picks on the whole series. Its ``block`` is the modulus and the envelope.
    """

    def __init__(self, integrand, grid: TimeGrid):
        super().__init__(grid)
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
    from block to block, bit for bit the whole series'. Its ``block`` is lhs and
    rhs.
    """

    def __init__(self, path: PathRecord, weighted: bool):
        super().__init__(path.grid)
        self.path, self.weighted = path, weighted
        self.sums = [None, None]  # lhs and the sigma^2 Y sum at the last node fed
        self.norm = 0.0

    def _reduce(self, k0: int, k1: int, z: np.ndarray):
        path, m = self.path, k1 - k0
        j1 = min(k1, path.grid.n_steps)
        X, Y = z.real, z.imag
        dx = np.diff(path.x_at(k0, j1 + 1))
        lhs = prefix_sum((Y if self.weighted else X)[: j1 - k0] * dx, self.sums[0])
        self.sums[0] = lhs[-1]
        if self.weighted:
            sides = -lhs[:m], X
        else:
            sigma = path.sigma_at(k0, j1)
            correction = prefix_sum(sigma * sigma * Y[: j1 - k0] * path.grid.dt, self.sums[1])
            self.sums[1] = correction[-1]
            sides = lhs[:m], Y + 0.5 * correction[:m]
        self.norm = np.maximum(self.norm, float(np.max(np.abs(sides[0] - sides[1]))))
        return sides

    def residual(self) -> float | None:
        """max |lhs - rhs|; None once it leaves double range, as it does once either side does."""
        self._complete()
        return float(self.norm) if np.isfinite(self.norm) else None


class RotationCheck(_BlockCheck):
    """Both sides of a driftless path's unit or scaled rotation identity, and its bound.

    Unit: U_k = e^{i(x_k - x_0)}, lhs_k = i sum_{j<k} sigma_j U_j dw_j and rhs_k =
    U_k - 1 + 0.5 sum_{j<k} sigma_j^2 U_j dt. Scaled: U_k = i F_k, F_k = e^{i(x_k - x_0)
    + I_k/2}, lhs_k = sum_{j<k} sigma_j U_j dw_j and rhs_k = F_k - 1. The sides agree up
    to the scheme's error. reduce_pass feeds it x on the path's lane; the dw sum and the
    unit dt sum are continued bit for bit, and I is the path's own. Its ``block`` is U, lhs
    and rhs. The bound's terms, sigma |dw| or sigma^2 at every step, go into one array for
    its one whole-array sum.
    """

    def __init__(self, path: PathRecord, scaled: bool):
        if not path.driftless:
            raise ValueError("rotation identities require an identically zero drift")
        super().__init__(path.grid)
        self.path, self.scaled = path, scaled
        self.sums = [None, None]  # the dw sum and the dt sum (I/2, if scaled) at the last node fed
        self.terms = np.empty(path.grid.n_steps)

    def _reduce(self, k0: int, k1: int, x: np.ndarray):
        path, m = self.path, k1 - k0
        j1 = min(k1, path.grid.n_steps)
        sigma, dw = path.sigma_at(k0, j1), path.dw_at(k0, j1)
        np.multiply(sigma, np.abs(dw) if self.scaled else sigma, out=self.terms[k0:j1])
        if self.scaled:
            half = path.half_variance_at(k0, k1)
            self.sums[1] = half[-1]  # I/2 at the last node fed
            F = np.exp(1j * (x - path.x0) + half)
            rhs = F - 1.0
            U = np.multiply(F, 1j, out=F)
        else:
            U = np.exp(1j * (x - path.x0))
            correction = prefix_sum(sigma * sigma * U[: j1 - k0] * path.grid.dt, self.sums[1])
            self.sums[1] = correction[-1]
            rhs = U - 1.0 + 0.5 * correction[:m]
        lhs = prefix_sum(sigma * U[: j1 - k0] * dw, self.sums[0])
        self.sums[0] = lhs[-1]
        lhs = lhs[:m] if self.scaled else 1j * lhs[:m]
        return U, lhs, rhs

    @np.errstate(over="ignore", invalid="ignore")
    def report(self) -> tuple[float, float, float, float] | None:
        """|rhs_N|, the bound, |lhs_N - rhs_N| and the bound's tolerance; None once one leaves
        double range. The unit bound, 2 + 0.5 sum sigma^2 dt, bounds |rhs|; the scaled one,
        e^{I_N/2} (1 + sum sigma |dw|), bounds U and both sides while sigma >= 0 only, so the
        sides are judged too."""
        self._complete()
        lhs, rhs = self.block[1][-1], self.block[2][-1]  # at node N
        if self.scaled:
            bound = (1.0 + np.sum(self.terms)) * np.exp(self.sums[1])
        else:
            bound = 2.0 + 0.5 * np.sum(self.terms) * self.grid.dt
        tolerance = BOUND_TOLERANCE_UNIT * (1.0 + bound)
        values = in_range(lambda: (abs(rhs), bound, abs(lhs - rhs), tolerance))
        return None if values is None else tuple(map(float, values))


class HeadKeeper:
    """A consumer of reduce_pass that keeps X + iY at the nodes 0 .. ``steps``, the recurrence's
    side of compare_oracle_pair: ``steps + 1`` complex values, 64 KB at ORACLE_CEILING."""

    def __init__(self, steps: int):
        self.kept, self.end = np.empty(steps + 1, dtype=np.complex128), 0

    def feed(self, k0: int, k1: int, z: np.ndarray) -> None:
        self.kept[k0:k1] = z[: max(len(self.kept) - k0, 0)]
        self.end = k1

    def head(self) -> np.ndarray | None:
        """The kept nodes; None unless the blocks fed reach node ``steps``, as they do not once
        the transform leaves double range at or before it."""
        return self.kept if self.end >= len(self.kept) else None


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
    Every coarser rung reuses the fine noise, an array or engine.Increments, through pairwise
    coarsening, so residual decay reflects discretization error only. Each rung's path is
    ``build_rung(grid, increments, factor)``, the increments an engine.Increments, and is
    built once for both identities, its two transforms coming from one recurrence pass. When
    ``finest`` maps both identities to their residuals on the path of the fine
    increments, the finest rung is taken from it instead. An identity gets no
    report when orders_from_residuals finds no order: a residual None on some
    rung, its values out of double range, or zero, or two rungs' ratio out of
    double range.
    """
    fine = Increments.of(fine_increments)
    if refinement_levels < 3:
        raise ValueError(f"refinement_levels must be >= 3, got {refinement_levels}")
    # 2**(levels-1) divides the count iff levels is at most the place of its lowest set bit
    if (len(fine) & -len(fine)).bit_length() < refinement_levels:
        span = f"2**{refinement_levels - 1}"
        raise ValueError(f"finest increment count {len(fine)} is not divisible by {span}")
    grid = build_grid(t_max, len(fine))
    rungs = coarse_rungs(fine, grid, build_rung, refinement_levels)
    finest = _rung_residuals(build_rung(grid, fine, 1)) if finest is None else finest
    return ladder_reports(len(fine), [*rungs, finest])


def coarse_rungs(increments: Increments, grid: TimeGrid, build_rung, refinement_levels: int) -> list[dict]:
    """Both identity residuals on every rung of convergence_ladder but the finest, ``grid``,
    coarse to fine, ``increments`` being the fine ones. Each rung's pass draws them anew and
    coarsens them chunk by chunk as it reads them, so no rung holds a whole series."""
    factors = [1 << level for level in range(refinement_levels - 1, 0, -1)]
    grids = [build_grid(grid.t_max, grid.n_steps // factor) for factor in factors]
    return [_rung_residuals(build_rung(g, increments.coarsened(f), f)) for g, f in zip(grids, factors)]


def ladder_reports(n_steps: int, rungs: list[dict]) -> dict[str, ConvergenceReport]:
    """Each identity's ConvergenceReport from ``rungs``, its residuals (identity -> residual)
    coarse to fine, the last on ``n_steps`` steps and each one before on half the next's."""
    sizes = tuple(n_steps >> level for level in reversed(range(len(rungs))))
    reports = {}
    for identity in ("bounded", "weighted"):
        norms = tuple(rung[identity] for rung in rungs)
        orders = orders_from_residuals(norms)
        if orders is not None:
            reports[identity] = ConvergenceReport(sizes, norms, orders, float(np.median(orders)))
    return reports


def compare_oracle_pair(path: PathRecord, heads) -> dict[str, tuple[float, float] | None]:
    """Each transform's max |direct - recursive| over both components and all
    nodes, with its tolerance, from one direct pass.

    ``heads`` is the (bounded, weighted) pair of the recurrence's X + iY at the
    nodes 0 .. N of ``path``, such as HeadKeeper.head() gives; one is None once
    its recurrence left double range there.
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
    if any(head is not None and len(head) != n + 1 for head in heads):
        raise ValueError(f"a recurrence head must hold the {n + 1} nodes of the path")
    scales = [None, None]
    if in_range(np.ptp, path.x) is not None:
        scales[0] = integral = in_range(lambda: float(np.sum(np.abs(path.u)) * path.grid.dt))
    if scales[0] is not None:
        scales[1] = in_range(lambda: integral * float(np.exp(path.half_variance_at(n, n + 1)[0])))
    asked = [scale is not None and head is not None for scale, head in zip(scales, heads)]
    direct = transform_pair_direct(path, *asked) if any(asked) else (None, None)
    rows = {}
    for which, scale, ref, head in zip(("bounded", "weighted"), scales, direct, heads):
        rows[which] = None
        if ref is not None:
            gap = ref - head
            deviation = max(float(np.max(np.abs(gap.real))), float(np.max(np.abs(gap.imag))))
            rows[which] = (deviation, ORACLE_TOLERANCE_UNIT * (1 + scale))
    return rows
