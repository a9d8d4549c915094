"""Phasor-convolution transforms of a simulated path.

Two variants are built from the same kernel e^{i(x_k - x_j)}:

* the bounded transform, whose (X, Y) pair satisfies the exact node-wise
  envelope sqrt(X^2 + Y^2) <= sum_{j<k} |u_j| dt regardless of the drift;
* the weighted transform, which carries an extra exp(0.5 * (I_k - I_j))
  factor, I being the running left-sum of sigma^2.

Both variants share their kernel, so one pass over a path evaluates it once
for both, in two implementations with identical contracts: the direct O(N^2)
convolution transform_pair_direct (the reference) and the O(N) recurrence
transform_pair_recursive, which exploits the separability
e^{i(x_k - x_j)} = e^{i x_k} * e^{-i x_j}. The weighted recurrence rebases
its accumulator periodically so the split exponentials never leave double
range even when the sigma^2 integral is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PathRecord, TimeGrid
from .quadrature import ito_cumsum, prefix_sum, riemann_cumsum

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
    """Node-aligned (X, Y) component series; weighted marks the exp-weighted variant."""

    X: np.ndarray
    Y: np.ndarray
    weighted: bool

    def modulus(self) -> np.ndarray:
        return np.hypot(self.X, self.Y)


def _half_variance_sum(path: PathRecord) -> np.ndarray:
    # inf once sigma^2 leaves double range: weighted_scale is then None and the
    # weighted recurrence returns None
    with np.errstate(over="ignore"):
        return 0.5 * riemann_cumsum(path.sigma * path.sigma, path.grid)


def _series(X: np.ndarray, Y: np.ndarray, weighted: bool) -> TransformSeries:
    for arr in (X, Y):
        arr.setflags(write=False)
    return TransformSeries(X=X, Y=Y, weighted=weighted)


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
    """O(N^2) references of both transforms from one evaluation of cos/sin(x_k - x_j).

    Bounded: X_k = sum_{j<k} cos(x_k - x_j) u_j dt, Y_k likewise with sin.
    Weighted: Y_k = sum_{j<k} cos(x_k - x_j) e^{(I_k - I_j)/2} u_j dt, X_k the
    same sum with -sin; its weights are evaluated from exponent differences
    entry by entry, independently of the separated recurrence.

    Returns (bounded, weighted); a variant not asked for is None. The sums turn
    to inf or nan once their scale leaves double range: the total of |u| dt,
    times e^{I_N/2} for the weighted ones (weighted_scale); compare_oracle_pair
    does not ask for them then.

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
        series[flag] = _series(X, Y, flag)
    return series.get(False), series.get(True)


def bounded_transform_recursive(path: PathRecord) -> TransformSeries | None:
    """The bounded series of transform_pair_recursive alone."""
    return transform_pair_recursive(path, weighted=False)[0]


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

    Returns (bounded, weighted); a variant not asked for is None, and so is a
    series whose values leave double range. Each series is the one the pass
    returns for that variant alone, bit for bit.

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
    # past double range the values turn inf or nan; a chain then stops
    with np.errstate(over="ignore", invalid="ignore"):
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

                z_blk = np.multiply(rot_blk, run[:m], out=z[:m])
                if chain.weighted:
                    lift = np.subtract(half_i[k0:k1], chain.scale, out=phase[:m])
                    z_blk *= np.exp(lift, out=lift)
                    z_blk *= 1j
                if not np.isfinite(z_blk).all():
                    chain.X = None
                    continue
                chain.X[k0:k1] = z_blk.real
                chain.Y[k0:k1] = z_blk.imag
            chains = [c for c in chains if c.X is not None]
            k0 = k1

    series = {c.weighted: _series(c.X, c.Y, c.weighted) for c in chains}
    return series.get(False), series.get(True)


def bounded_identity_sides(path: PathRecord, ts: TransformSeries) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the bounded transform's stochastic-integral identity.

    lhs_k integrates X against dx; rhs_k = Y_k + 0.5 * left-sum of sigma^2 * Y.
    The two agree up to the discretization error of the underlying scheme.
    """
    if ts.weighted:
        raise ValueError("identity applies to the unweighted transform")
    lhs = ito_cumsum(ts.X[:-1], path)
    correction = riemann_cumsum(path.sigma * path.sigma * ts.Y[:-1], path.grid)
    rhs = ts.Y + 0.5 * correction
    rhs.setflags(write=False)
    return lhs, rhs


def weighted_identity_sides(path: PathRecord, ts: TransformSeries) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the weighted transform's identity: -int Y dx against the X series."""
    if not ts.weighted:
        raise ValueError("identity applies to the weighted transform")
    lhs = -ito_cumsum(ts.Y[:-1], path)
    lhs.setflags(write=False)
    return lhs, ts.X


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
    variance_sum = riemann_cumsum(sigma * sigma, grid)
    return np.exp(-0.5 * (variance_sum[-1] - variance_sum[:-1])) * psi


def _require_driftless(path: PathRecord):
    if np.any(path.a != 0.0):
        raise ValueError("rotation identities require an identically zero drift")


def unit_rotation_identity(path: PathRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running series (U, lhs, rhs) of the unit rotation identity on a driftless path.

    U_k = e^{i(x_k - x_0)}; lhs_k = i * sum_{j<k} sigma_j U_j dw_j and
    rhs_k = U_k - 1 + 0.5 * sum_{j<k} sigma_j^2 U_j dt agree up to the
    scheme's error, and |rhs_k| never exceeds 2 + 0.5 * sum_j sigma_j^2 dt.
    """
    _require_driftless(path)
    U = np.exp(1j * (path.x - path.x[0]))
    lhs = 1j * prefix_sum(path.sigma * U[:-1] * path.dw)
    rhs = U - 1.0 + 0.5 * prefix_sum(path.sigma * path.sigma * U[:-1] * path.grid.dt)
    U.setflags(write=False)
    return U, lhs, rhs


def scaled_rotation_identity(path: PathRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running series (U, lhs, rhs) of the scaled rotation identity on a driftless path.

    U_k = i F_k with F_k = e^{i(x_k - x_0)} e^{I_k / 2}, so |U_k| grows like
    the half-variance exponential; lhs_k = sum_{j<k} sigma_j U_j dw_j and
    rhs_k = F_k - 1.
    """
    _require_driftless(path)
    F = np.exp(1j * (path.x - path.x[0]) + _half_variance_sum(path))
    rhs = F - 1.0
    U = np.multiply(F, 1j, out=F)
    lhs = prefix_sum(path.sigma * U[:-1] * path.dw)
    U.setflags(write=False)
    return U, lhs, rhs
