"""Phasor-convolution transforms of a simulated path.

Two variants are built from the same kernel e^{i(x_k - x_j)}:

* the bounded transform, whose (X, Y) pair satisfies the exact node-wise
  envelope sqrt(X^2 + Y^2) <= sum_{j<k} |u_j| dt regardless of the drift;
* the weighted transform, which carries an extra exp(0.5 * (I_k - I_j))
  factor, I being the running left-sum of sigma^2.

Each variant ships in two implementations with identical contracts: a direct
O(N^2) convolution (the reference) and an O(N) recurrence that exploits the
separability e^{i(x_k - x_j)} = e^{i x_k} * e^{-i x_j}. The weighted
recurrence rebases its accumulator periodically so the split exponentials
never leave double range even when the sigma^2 integral is large. Both
variants share their kernel, so one pass over a path evaluates it once for
both: transform_pair_recursive and transform_pair_direct; the single-variant
functions are views of those passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PathRecord, TimeGrid
from .quadrature import CumulativeSeries, ito_cumsum, riemann_cumsum

TWO_PI = 2.0 * np.pi

# Rebase once the oldest retained term is about 1e-150 of the current scale.
RESCALE_THRESHOLD = 345.0

_DIRECT_ROW_BLOCK = 256
# rows of a direct block evaluated at once; bounds the direct pass's scratch
_DIRECT_SUB_ROWS = 64

# The O(N) recurrences run block by block so their scratch stays cache
# resident; per-element cost is then flat from 1e4 to 1e7 nodes.
_RECURRENCE_BLOCK = 32768


@dataclass(frozen=True, eq=False)
class TransformSeries:
    """Grid-aligned (X, Y) component series; weighted marks the exp-weighted variant."""

    grid: TimeGrid
    X: np.ndarray
    Y: np.ndarray
    weighted: bool

    def modulus(self) -> np.ndarray:
        return np.hypot(self.X, self.Y)


@dataclass(frozen=True, eq=False)
class RotationIdentity:
    """Driftless rotation check: integrand series U, both sides of the
    stochastic-integral identity, and the a-priori range bound when one exists."""

    U: np.ndarray
    lhs: complex
    rhs: complex
    bound: float | None = None


def _half_variance_sum(path: PathRecord) -> np.ndarray:
    return 0.5 * riemann_cumsum(path.sigma * path.sigma, path.grid).values


def _series(grid: TimeGrid, X: np.ndarray, Y: np.ndarray, weighted: bool) -> TransformSeries:
    for arr in (X, Y):
        arr.setflags(write=False)
    return TransformSeries(grid=grid, X=X, Y=Y, weighted=weighted)


def _reduce_phase(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x mod 2pi into ``out``, bit-identical to np.mod(x, TWO_PI).

    fmod is exact; a negative remainder is lifted by 2pi and a zero one made
    +0.0, the same fix-up numpy's own float remainder applies for a positive
    divisor. It beats np.mod while |x| stays below about 1000; fmod's time
    grows with the exponent gap between x and 2pi.
    """
    np.fmod(x, TWO_PI, out=out)
    np.add(out, TWO_PI, out=out, where=out < 0)
    out += 0.0
    return out


def bounded_transform_direct(path: PathRecord) -> TransformSeries:
    """O(N^2) reference: X_k = sum_{j<k} cos(x_k - x_j) u_j dt, Y_k likewise with sin."""
    return _direct(path, bounded=True, weighted=False)[0]


def weighted_transform_direct(path: PathRecord) -> TransformSeries:
    """O(N^2) reference for the exp-weighted variant.

    Y slot: sum_{j<k} cos(x_k - x_j) e^{(I_k - I_j)/2} u_j dt;
    X slot: the same sum with -sin. Weights are evaluated from exponent
    differences entry by entry, independently of the separated recurrence.
    """
    return _direct(path, bounded=False, weighted=True)[1]


def weighted_scale(path: PathRecord, factor: float = 1.0) -> float | None:
    """factor * e^{I_N/2}, I_N being the total of sigma^2 dt; None once it leaves double range.

    Terms weighted by at most e^{I_N/2} and summing to ``factor`` unweighted
    stay finite in every partial sum while this scale does.
    """
    with np.errstate(over="ignore"):
        scale = factor * float(np.exp(_half_variance_sum(path)[-1]))
    return scale if np.isfinite(scale) else None


def transform_pair_direct(
    path: PathRecord, bounded: bool = True, weighted: bool = True
) -> tuple[TransformSeries | None, TransformSeries | None]:
    """Both direct references from one evaluation of cos/sin(x_k - x_j).

    Returns (bounded, weighted); a variant not asked for is None. The weighted
    sums turn to inf or nan once its weighted_scale over the total of |u| dt
    leaves double range; compare_oracle_pair does not ask for them then.
    """
    return _direct(path, bounded, weighted)


def _direct(
    path: PathRecord, bounded: bool, weighted: bool
) -> tuple[TransformSeries | None, TransformSeries | None]:
    """The requested direct sums, sharing each row's cos/sin(x_k - x_j).

    A block of _DIRECT_ROW_BLOCK rows sums over the columns j < r1 - 1 of its
    last row. A row's pairwise sum depends on that extent, so it is kept while
    the block is worked through _DIRECT_SUB_ROWS rows at a time.
    """
    n = path.grid.n_steps
    x = path.x
    udt = path.u * path.grid.dt
    half_i = _half_variance_sum(path) if weighted else None
    # (weighted, cos sums, sin sums); the weighted variant goes last because
    # it scales the shared terms in place
    parts = [
        (flag, np.zeros(n + 1), np.zeros(n + 1))
        for flag in (False, True)
        if (weighted if flag else bounded)
    ]
    cols = np.arange(n)
    for r0 in range(1, n + 1, _DIRECT_ROW_BLOCK):
        r1 = min(r0 + _DIRECT_ROW_BLOCK, n + 1)
        j_hi = r1 - 1
        for s0 in range(r0, r1, _DIRECT_SUB_ROWS):
            s1 = min(s0 + _DIRECT_SUB_ROWS, r1)
            sin_d = x[s0:s1, None] - x[None, :j_hi]
            cos_d = np.cos(sin_d)
            np.sin(sin_d, out=sin_d)
            terms = udt[None, :j_hi] * (cols[None, :j_hi] < np.arange(s0, s1)[:, None])
            for flag, cos_part, sin_part in parts:
                if flag:
                    w = half_i[s0:s1, None] - half_i[None, :j_hi]
                    terms *= np.exp(w, out=w)
                cos_part[s0:s1] = (cos_d * terms).sum(axis=1)
                sin_part[s0:s1] = (sin_d * terms).sum(axis=1)
    series = {}
    for flag, cos_part, sin_part in parts:
        X, Y = (-sin_part, cos_part) if flag else (cos_part, sin_part)
        series[flag] = _series(path.grid, X, Y, flag)
    return series.get(False), series.get(True)


def bounded_transform_recursive(path: PathRecord) -> TransformSeries:
    """O(N) evaluation of the same sums as bounded_transform_direct."""
    return transform_pair_recursive(path, weighted=False)[0]


def weighted_transform_recursive(
    path: PathRecord, rescale_threshold: float = RESCALE_THRESHOLD
) -> TransformSeries | None:
    """O(N) evaluation of the same sums as weighted_transform_direct.

    The accumulator is rebased whenever the sigma^2 half-sum has grown by
    rescale_threshold since the last rebase, so neither the decayed terms nor
    the reconstruction factor can overflow no matter how large the variance
    integral gets. None when the series' own values leave double range.
    """
    return transform_pair_recursive(path, bounded=False, rescale_threshold=rescale_threshold)[1]


class _Chain:
    """One transform's state in the shared recurrence loop.

    The chain runs in blocks: the bounded one every _RECURRENCE_BLOCK nodes,
    the weighted one also whenever its scale must be rebased. A block starts
    its running sum from the carried sum ``acc`` times the scale change; a
    segment inside a block continues the block's cumulative sum from
    ``partial``, so splitting a block does not change a single bit.
    """

    def __init__(self, n_nodes: int, terms: np.ndarray, weighted: bool):
        self.weighted = weighted
        self.X = np.empty(n_nodes)
        self.Y = np.empty(n_nodes)
        # the segment's terms sit at [1:]; slot 0 seeds a continued cumsum
        self.terms = terms
        self.end = 0  # first node of the next block
        self.scale = 0.0
        self.acc = complex(0.0, -0.0)  # C - iS of the empty sums C = S = 0
        self.rebased = 0j
        self.partial = None  # None at the first segment of a block


def transform_pair_recursive(
    path: PathRecord,
    bounded: bool = True,
    weighted: bool = True,
    rescale_threshold: float = RESCALE_THRESHOLD,
) -> tuple[TransformSeries | None, TransformSeries | None]:
    """Both O(N) recurrences from one evaluation of e^{i x_k} per node.

    Returns (bounded, weighted); a variant not asked for is None, and so is
    a weighted series whose values leave double range. Each series is the one
    bounded_transform_recursive or weighted_transform_recursive returns, bit
    for bit.

    Nodes are visited in segments that end wherever either transform starts a
    block. Each segment forms the phasors once and feeds the terms
    e^{-i x_j} w_j u_j dt into both running sums, w_j being 1 for the bounded
    transform and e^{-(h_j - scale)} for the weighted one, whose scale is
    rebased between its blocks so no intermediate can overflow.
    """
    n_nodes = path.grid.n_steps + 1
    x = path.x
    u = path.u
    dt = path.grid.dt
    half_i = _half_variance_sum(path) if weighted else None

    size = min(_RECURRENCE_BLOCK, n_nodes)
    phase = np.empty(size)
    rot = np.empty(size, dtype=np.complex128)
    base = np.empty(size + 1, dtype=np.complex128)
    run = np.empty(size + 1, dtype=np.complex128)
    z = np.empty(size, dtype=np.complex128)
    decay = np.empty(size) if weighted else None
    chains = [_Chain(n_nodes, base, weighted=False)] if bounded else []
    if weighted:
        chains.append(_Chain(n_nodes, np.empty(size + 1, dtype=np.complex128), weighted=True))

    k0 = 0
    while chains and k0 < n_nodes:
        for chain in chains:
            if chain.end != k0:
                continue
            if chain.weighted:
                scale = half_i[k0]
                k1 = int(np.searchsorted(half_i, scale + rescale_threshold, side="right"))
                chain.end = max(min(k1, k0 + _RECURRENCE_BLOCK), k0 + 1)
                factor = np.exp(scale - chain.scale)
            else:
                scale, factor = 0.0, 1.0
                chain.end = min(k0 + _RECURRENCE_BLOCK, n_nodes)
            # stored sums carry a factor e^{scale}; raising the scale multiplies
            # them up, and the reconstruction factor e^{h_k - scale} stays within
            # [1, e^threshold] so it can never overflow on its own
            chain.rebased = complex(chain.acc) * factor
            chain.scale = scale
            chain.partial = None
        k1 = min(chain.end for chain in chains)
        m = k1 - k0
        j_hi = min(k1, n_nodes - 1)
        mj = j_hi - k0

        ph = _reduce_phase(x[k0:k1], phase[:m])
        rot_blk = rot[:m]
        np.cos(ph, out=rot_blk.real)
        np.sin(ph, out=rot_blk.imag)
        np.conjugate(rot_blk[:mj], out=base[1 : mj + 1])
        base[1 : mj + 1] *= u[k0:j_hi]
        base[1 : mj + 1] *= dt

        for chain in chains:
            terms = chain.terms
            if chain.weighted:
                w = np.subtract(half_i[k0:j_hi], chain.scale, out=decay[:mj])
                np.negative(w, out=w)
                np.exp(w, out=w)
                np.multiply(base[1 : mj + 1], w, out=terms[1 : mj + 1])
            if chain.partial is None:
                run[0] = chain.rebased
                np.cumsum(terms[1 : mj + 1], out=run[1 : mj + 1])
                first = 1
            else:
                terms[0] = chain.partial
                np.cumsum(terms[: mj + 1], out=run[: mj + 1])
                first = 0
            chain.partial = run[mj]
            run[first : mj + 1] += chain.rebased
            chain.acc = run[mj]

            z_blk = z[:m]
            if chain.weighted:
                lift = np.subtract(half_i[k0:k1], chain.scale, out=phase[:m])
                # past double range the values turn inf or nan; the chain then stops
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(rot_blk, run[:m], out=z_blk)
                    np.exp(lift, out=lift)
                    z_blk *= lift
                    z_blk *= 1j
                if not np.isfinite(z_blk).all():
                    chain.X = None
                    continue
            else:
                np.multiply(rot_blk, run[:m], out=z_blk)
            chain.X[k0:k1] = z_blk.real
            chain.Y[k0:k1] = z_blk.imag
        chains = [c for c in chains if c.X is not None]
        k0 = k1

    series = {c.weighted: _series(path.grid, c.X, c.Y, c.weighted) for c in chains}
    return series.get(False), series.get(True)


def bounded_identity_sides(
    path: PathRecord, ts: TransformSeries
) -> tuple[CumulativeSeries, CumulativeSeries]:
    """Both sides of the bounded transform's stochastic-integral identity.

    lhs_k integrates X against dx; rhs_k = Y_k + 0.5 * left-sum of sigma^2 * Y.
    The two agree up to the discretization error of the underlying scheme.
    """
    if ts.weighted:
        raise ValueError("identity applies to the unweighted transform")
    lhs = ito_cumsum(ts.X[:-1], path)
    correction = riemann_cumsum(path.sigma * path.sigma * ts.Y[:-1], path.grid)
    rhs_values = ts.Y + 0.5 * correction.values
    rhs_values.setflags(write=False)
    return lhs, CumulativeSeries(grid=path.grid, values=rhs_values)


def weighted_identity_sides(
    path: PathRecord, ts: TransformSeries
) -> tuple[CumulativeSeries, np.ndarray]:
    """Both sides of the weighted transform's identity: -int Y dx against the X series."""
    if not ts.weighted:
        raise ValueError("identity applies to the weighted transform")
    raw = ito_cumsum(ts.Y[:-1], path)
    lhs_values = -raw.values
    lhs_values.setflags(write=False)
    return CumulativeSeries(grid=path.grid, values=lhs_values), ts.X


def variance_discounted_u(psi, sigma, grid: TimeGrid) -> np.ndarray:
    """Discount psi by the variance remaining to the horizon.

    u_k = exp(-0.5 * (I_N - I_k)) * psi_k with I the sigma^2 left-sum. Feeding
    this u into the weighted transform keeps its modulus under the running
    left-sum of |psi| at every node.
    """
    psi = np.asarray(psi, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    n = grid.n_steps
    if len(psi) != n or len(sigma) != n:
        raise ValueError(f"psi and sigma must have {n} entries, got {len(psi)} and {len(sigma)}")
    variance_sum = riemann_cumsum(sigma * sigma, grid).values
    return np.exp(-0.5 * (variance_sum[-1] - variance_sum[:-1])) * psi


def _require_driftless(path: PathRecord):
    if np.any(path.a != 0.0):
        raise ValueError("rotation identities require an identically zero drift")


def _complex_prefix(terms: np.ndarray) -> np.ndarray:
    out = np.empty(len(terms) + 1, dtype=np.complex128)
    out[0] = 0.0
    np.cumsum(terms, out=out[1:])
    return out


def _unit_rotation(path: PathRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _require_driftless(path)
    U = np.exp(1j * (path.x - path.x[0]))
    lhs = 1j * _complex_prefix(path.sigma * U[:-1] * path.dw)
    rhs = U - 1.0 + 0.5 * _complex_prefix(path.sigma * path.sigma * U[:-1] * path.grid.dt)
    return U, lhs, rhs


def _scaled_rotation(path: PathRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _require_driftless(path)
    F = np.exp(1j * (path.x - path.x[0]) + _half_variance_sum(path))
    lhs = _complex_prefix(path.sigma * (1j * F[:-1]) * path.dw)
    return F, lhs, F - 1.0


def unit_rotation_running_sides(path: PathRecord) -> tuple[np.ndarray, np.ndarray]:
    """Running lhs/rhs series of the unit rotation identity over every horizon.

    lhs_k = i * sum_{j<k} sigma_j U_j dw_j with U_j = e^{i(x_j - x_0)};
    rhs_k = U_k - 1 + 0.5 * sum_{j<k} sigma_j^2 U_j dt.
    """
    return _unit_rotation(path)[1:]


def scaled_rotation_running_sides(path: PathRecord) -> tuple[np.ndarray, np.ndarray]:
    """Running lhs/rhs series of the scaled rotation identity over every horizon.

    lhs_k = sum_{j<k} sigma_j (i F_j) dw_j with F_j = e^{i(x_j - x_0) + I_j/2};
    rhs_k = F_k - 1.
    """
    return _scaled_rotation(path)[1:]


def unit_rotation_identity(path: PathRecord) -> RotationIdentity:
    """Unit-modulus rotation check on a driftless path.

    U_k = e^{i(x_k - x_0)}, and |rhs| never exceeds
    bound = 2 + 0.5 * sum sigma_k^2 dt.
    """
    U, lhs, rhs = _unit_rotation(path)
    U.setflags(write=False)
    bound = 2.0 + 0.5 * np.sum(path.sigma * path.sigma) * path.grid.dt
    return RotationIdentity(U=U, lhs=complex(lhs[-1]), rhs=complex(rhs[-1]), bound=float(bound))


def scaled_rotation_identity(path: PathRecord) -> RotationIdentity:
    """Exponentially scaled rotation check on a driftless path.

    U_k = i F_k with F_k = e^{i(x_k - x_0)} e^{I_k / 2}, so |U_k| grows like
    the half-variance exponential.
    """
    F, lhs, rhs = _scaled_rotation(path)
    U = 1j * F
    del F
    U.setflags(write=False)
    return RotationIdentity(U=U, lhs=complex(lhs[-1]), rhs=complex(rhs[-1]), bound=None)
