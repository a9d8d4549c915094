"""Phasor-convolution transforms of a simulated path.

Two variants are built from the same kernel e^{i(x_k - x_j)}:

* the bounded transform, whose (X, Y) pair satisfies the exact node-wise
  envelope sqrt(X^2 + Y^2) <= sum_{j<k} |u_j| dt regardless of the drift;
* the weighted transform, which carries an extra exp(0.5 * (I_k - I_j))
  factor, I being the running left-sum of sigma^2.

Both variants share their kernel, so one pass over a path evaluates it once
for both, in two implementations of the same values: the direct O(N^2)
convolution transform_pair_direct (the reference) and the O(N) recurrence
reduce_pass, which exploits the separability
e^{i(x_k - x_j)} = e^{i x_k} * e^{-i x_j} and feeds its series block by block
to checks that reduce them without holding them whole. The weighted
recurrence rebases its accumulator periodically so the split exponentials
never leave double range even when the sigma^2 integral is large.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from . import engine
from .engine import PathRecord, TimeGrid, discount, left_variance

TWO_PI = 2.0 * np.pi

# Rebase once the oldest retained term is about 1e-150 of the current scale.
RESCALE_THRESHOLD = 345.0

# rows of a direct block, each summed over the columns before the block's last row (so this
# sets the oracle's bits), and the rows of it one worker evaluates at once (only the scratch)
_DIRECT_ROW_BLOCK = 256
_DIRECT_SUB_ROWS = 16

# nodes between the restarts of the bounded chain's running sum, and at most between the
# weighted chain's, which also restarts at each rebase. A restart begins the cumulative sum
# afresh from the carried sum, which rounds differently from one continued sum, so retuning
# this changes the transforms' bits, every transform CSV and perfbench/golden.json; the
# scratch is bounded by _SEGMENT_NODES, and the weighted chain's I/2 window by the two
_RESTART_NODES = 32768
# nodes per segment at most: a block is walked in segments of this size, which
# leaves every value as it is and bounds the scratch of the pass and its checks
_SEGMENT_NODES = 8192


def _block_end(path: PathRecord, k0: int) -> tuple[float, int]:
    """The scale I_k0 / 2 of a weighted block starting at k0, and the node where it ends.

    That is the first node where I/2 passes the scale by RESCALE_THRESHOLD, at most
    _RESTART_NODES on and at most node N. I is nondecreasing (nan sorts last), so
    searchsorted finds it in the first chunk from a mark of I (cut at the cap) that holds
    it; each chunk is read whole, as the pass's segments read it.
    """
    every, scale = engine.STATE_CHUNK_STEPS, None
    cap = min(k0 + _RESTART_NODES, path.grid.n_steps + 1)
    for c0 in range(k0 - k0 % every, cap, every):
        start = max(k0, c0)
        half = path.half_variance_at(c0, min(c0 + every, cap))[start - c0 :]
        scale = half[0] if scale is None else scale
        k1 = start + int(half.searchsorted(scale + RESCALE_THRESHOLD, side="right"))
        if k1 < start + len(half):
            break
    return scale, max(min(k1, cap), k0 + 1)


def prefix_sum(terms: np.ndarray, carry=None) -> np.ndarray:
    """Running left-point sum of ``terms`` in their dtype: values[0] = 0, len = len(terms) + 1.

    Each term is an integrand at the left node of its step times the step's
    increment of x or t, so stochastic integrals are non-anticipating and the
    triangle-inequality envelopes summed against dt hold exactly at every
    node, not just in the continuum limit.
    Continued from ``carry``, the last value of the sum so far, values[0] is
    the carry and each value adds one term to the one before, so blocks summed
    this way give the one-array sum bit for bit (None, not 0.0, starts it: a
    -0.0 first term stays -0.0).
    Left writable, so numpy can reuse a temporary one in place: ``1j * prefix_sum(t)``.
    """
    values = np.empty(len(terms) + 1, dtype=terms.dtype)
    if carry is None:
        values[0] = 0.0
        np.cumsum(terms, out=values[1:])
    else:
        values[0] = carry
        values[1:] = terms
        np.cumsum(values, out=values)
    return values


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


def in_range(compute, *args):
    """``compute(*args)``, or None once its value leaves double range.

    The value is a scalar, a series or a tuple of them. A series is judged by
    its last entry, which suits the running sums judged here: one that leaves
    double range at some node stays out of it. Overflow on the way raises no
    warning, since this function is where it is decided.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = compute(*args)
    parts = value if isinstance(value, tuple) else (value,)
    ends = [part[-1] if np.ndim(part) else part for part in parts]
    return value if np.isfinite(ends).all() else None


def _direct_workers() -> int:
    """Threads of the direct pass: the CPUs this process may run on, at most 64 // _DIRECT_SUB_ROWS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, 64 // _DIRECT_SUB_ROWS))


def transform_pair_direct(
    path: PathRecord, bounded: bool = True, weighted: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """O(N^2) references of both transforms from one evaluation of cos/sin(x_k - x_j).

    Bounded: X_k = sum_{j<k} cos(x_k - x_j) u_j dt, Y_k likewise with sin.
    Weighted: Y_k = sum_{j<k} cos(x_k - x_j) e^{(I_k - I_j)/2} u_j dt, X_k the
    same sum with -sin; its weights are evaluated from exponent differences
    entry by entry, independently of the separated recurrence.

    Returns (bounded, weighted), each X + iY at the nodes 0 .. N as a read-only
    array; a variant not asked for is None. The sums turn
    to inf or nan once their scale or a phase difference leaves double range;
    compare_oracle_pair does not ask for them then.

    A block of _DIRECT_ROW_BLOCK rows sums over the columns j < r1 - 1 of its
    last row. A row's pairwise sum depends on that extent, so it is kept while
    the block is worked through _DIRECT_SUB_ROWS rows at a time, which the caller and
    _direct_workers() - 1 threads take in turn in the caller's numpy error state: no
    value depends on the worker count, and the first error of any is raised after all join.
    """
    n = path.grid.n_steps
    x = path.x
    udt = path.u * path.grid.dt
    half_i = path.half_variance_at(0, n + 1) if weighted else None
    # X + iY of each variant asked for, summed in place; the weighted variant goes last
    # because it scales the shared terms in place, and holds its sine sum as X until the end
    series = {flag: np.zeros(n + 1, dtype=complex) for flag in (False, True) if (bounded, weighted)[flag]}
    blocks = []
    for r0 in range(1, n + 1, _DIRECT_ROW_BLOCK):
        r1 = min(r0 + _DIRECT_ROW_BLOCK, n + 1)
        blocks += [(s0, min(s0 + _DIRECT_SUB_ROWS, r1), r1 - 1) for s0 in range(r0, r1, _DIRECT_SUB_ROWS)]
    cols = np.arange(n)
    errors = []

    def work(share, scratch):
        try:
            for s0, s1, j_hi in share:
                sin_d, cos_d, terms, prod = (a[: (s1 - s0) * j_hi].reshape(-1, j_hi) for a in scratch)
                np.subtract(x[s0:s1, None], x[None, :j_hi], out=sin_d)
                np.cos(sin_d, out=cos_d)
                np.sin(sin_d, out=sin_d)
                np.less(cols[None, :j_hi], np.arange(s0, s1)[:, None], out=terms)
                terms *= udt[:j_hi]
                for flag, z in series.items():
                    if flag:
                        terms *= np.exp(np.subtract.outer(half_i[s0:s1], half_i[:j_hi], out=prod), out=prod)
                    cos_sums, sin_sums = (z.imag, z.real) if flag else (z.real, z.imag)
                    np.multiply(cos_d, terms, out=prod).sum(axis=1, out=cos_sums[s0:s1])
                    np.multiply(sin_d, terms, out=prod).sum(axis=1, out=sin_sums[s0:s1])
        except BaseException as exc:
            errors.append(exc)

    # this thread allocates the scratch: a thread's own frees would stay in its malloc arena
    workers = min(_direct_workers(), len(blocks))
    rows = min(_DIRECT_SUB_ROWS, _DIRECT_ROW_BLOCK, n)
    shares = [(blocks[i::workers], np.empty((4, rows * n))) for i in range(workers)]
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, *s)) for s in shares[1:]]
    for thread in threads:
        thread.start()
    work(*shares[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for flag, z in series.items():
        if flag:
            np.negative(z.real, out=z.real)
        z.setflags(write=False)
    return series.get(False), series.get(True)


class _Chain:
    """One transform's state in the shared recurrence loop.

    The chain runs in blocks: the bounded one every _RESTART_NODES nodes,
    the weighted one also whenever its scale must be rebased. A block starts
    its running sum from the carried sum, ``partial + rebased``, times the scale
    change; a segment inside a block continues the block's cumulative sum from
    ``partial``, so splitting a block does not change a single bit.
    """

    def __init__(self, size: int, terms: np.ndarray, weighted: bool):
        self.weighted = weighted
        self.z = np.empty(size, dtype=np.complex128)  # the segment's X + iY
        # the segment's terms sit at [1:]; slot 0 seeds a continued cumsum
        self.terms = terms
        self.end = 0  # first node of the next block
        self.scale = 0.0
        self.partial = complex(-0.0, -0.0)  # -0.0 + v is v: a block's cumsum starts from nothing
        self.rebased = complex(0.0, -0.0)  # partial + rebased: C - iS of the empty sums C = S = 0


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reduce_pass(path: PathRecord, consumers) -> list[bool]:
    """Both O(N) recurrences from one evaluation of e^{i x_k} per node, fed segment by segment.

    ``consumers`` is a (bounded, weighted) pair of lists; a transform's block
    of each segment of nodes k0 .. k1-1, its X + iY there, goes to its
    consumers as ``consumer.feed(k0, k1, z)``. A block is scratch that the
    next segment overwrites, and a transform with no consumers is not
    computed. Returns whether each transform was computed and stayed in double
    range; the consumers of one that leaves it are fed its nodes before its
    first value out of double range, and no further. Overflow on the way raises
    no warning, as in in_range. An optional third list is the path's own lane:
    each segment's x[k0:k1] goes to it after the transforms' consumers, through
    node N whatever the transforms do.

    Segments end wherever either transform starts a block, at each mark of the path's I
    (so that a segment reads I from one chunk the path formed), and at most
    _SEGMENT_NODES nodes after they start. Each segment with a transform alive
    forms the phasors once and feeds the terms e^{-i x_j} w_j u_j dt into both
    running sums, w_j being 1 for the bounded transform and e^{-(h_j - scale)}
    for the weighted one, whose scale is rebased between its blocks so no
    intermediate can overflow.
    """
    n_nodes = path.grid.n_steps + 1
    x = path.x
    dt = path.grid.dt
    lane = consumers[2] if len(consumers) > 2 else ()
    alive = [bool(group) for group in consumers[:2]]
    bounded, weighted = alive

    size = min(_SEGMENT_NODES, _RESTART_NODES, n_nodes)
    phase = np.empty(size)
    rot = np.empty(size, dtype=np.complex128)
    base = np.empty(size + 1, dtype=np.complex128)
    run = np.empty(size + 1, dtype=np.complex128)
    decay = np.empty(size) if weighted else None
    chains = [_Chain(size, base, weighted=False)] if bounded else []
    if weighted:
        chains.append(_Chain(size, np.empty(size + 1, dtype=np.complex128), weighted=True))

    k0 = 0
    while k0 < n_nodes:
        for chain in chains:
            if chain.end != k0:
                continue
            if chain.weighted:
                scale, chain.end = _block_end(path, k0)
                factor = np.exp(scale - chain.scale)
            else:
                scale, factor = 0.0, 1.0
                chain.end = min(k0 + _RESTART_NODES, n_nodes)
            # stored sums carry a factor e^{scale}; raising the scale multiplies
            # them up, and the reconstruction factor e^{h_k - scale} stays within
            # [1, e^threshold] so it can never overflow on its own
            chain.rebased = complex(chain.partial + chain.rebased) * factor
            chain.scale = scale
            chain.partial = complex(-0.0, -0.0)
        mark = k0 - k0 % engine.STATE_CHUNK_STEPS + engine.STATE_CHUNK_STEPS
        k1 = min(k0 + size, n_nodes, mark, *(chain.end for chain in chains))
        m = k1 - k0
        j_hi = min(k1, n_nodes - 1)
        mj = j_hi - k0

        if chains:
            ph = _reduce_phase(x[k0:k1], phase[:m])
            rot_blk = rot[:m]
            np.cos(ph, out=rot_blk.real)
            np.sin(ph, out=rot_blk.imag)
            np.conjugate(rot_blk[:mj], out=base[1 : mj + 1])
            base[1 : mj + 1] *= path.u_at(k0, j_hi)
            base[1 : mj + 1] *= dt

        for chain in chains:
            terms = chain.terms
            if chain.weighted:
                half = path.half_variance_at(k0, k1)
                w = np.subtract(half[:mj], chain.scale, out=decay[:mj])
                np.negative(w, out=w)
                np.exp(w, out=w)
                np.multiply(base[1 : mj + 1], w, out=terms[1 : mj + 1])
            terms[0] = chain.partial
            np.cumsum(terms[: mj + 1], out=run[: mj + 1])
            chain.partial = run[mj]
            run[: mj + 1] += chain.rebased

            z_blk = np.multiply(rot_blk, run[:m], out=chain.z[:m])
            if chain.weighted:
                lift = np.subtract(half, chain.scale, out=phase[:m])
                z_blk *= np.exp(lift, out=lift)
                z_blk *= 1j
            finite = np.isfinite(z_blk)
            alive[chain.weighted] = ok = bool(finite.all())
            end = k1 if ok else k0 + int(np.argmin(finite))  # the first node out of double range
            for consumer in consumers[chain.weighted] if end > k0 else ():
                consumer.feed(k0, end, z_blk[: end - k0])
        for consumer in lane:
            consumer.feed(k0, k1, x[k0:k1])
        chains = [c for c in chains if alive[c.weighted]]
        k0 = k1
    return alive


def variance_discounted_u(psi, sigma, grid: TimeGrid) -> np.ndarray | None:
    """Discount psi by the variance remaining to the horizon.

    u_k = exp(-0.5 * (I_N - I_k)) * psi_k with I the sigma^2 left-sum. Feeding
    this u into the weighted transform keeps its modulus under the running
    left-sum of |psi| at every node. None once I_N leaves double range: the
    discount is then undefined. A path made ``discounted`` forms its u so, segment
    by segment, bit for bit this array's.
    """
    psi = np.asarray(psi, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    n = grid.n_steps
    if len(psi) != n or len(sigma) != n:
        raise ValueError(f"psi and sigma must have {n} entries, got {len(psi)} and {len(sigma)}")
    variance = left_variance(sigma, grid.dt)
    return discount(psi, variance[:-1], variance[-1]) if np.isfinite(variance[-1]) else None
