"""Euler-Maruyama simulation of dx = a dt + sigma dw on uniform grids.

All randomness goes through a counter-based generator (Philox) keyed by an
integer seed, so a (grid, seed) pair pins the Wiener increments bit-exactly
across runs. Coefficients are sampled at the left node of every step, which
keeps every discrete sum built on top of these paths non-anticipating.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, partial, partialmethod

import numpy as np

from .errors import ConfigurationError

COEFFICIENT_KINDS = ("const", "sin", "state", "samples")
# steps per chunk a path is simulated in; bounds the scratch of its vectorised steps and the
# Python-float lists of its state-dependent loop
STATE_CHUNK_STEPS = 8192


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform mesh on [0, t_max] with n_steps intervals of width dt.

    Its nodes are formed on demand: t_k = k * dt for k < n_steps, and the last
    node is set to t_max exactly rather than accumulated.
    """

    t_max: float
    n_steps: int
    dt: float

    def nodes_at(self, k0: int, k1: int) -> np.ndarray:
        """The nodes t_k0 .. t_{k1-1}, bit for bit those of ``nodes``."""
        nodes = self.dt * np.arange(k0, k1, dtype=np.float64)
        if k0 <= self.n_steps < k1:
            nodes[self.n_steps - k0] = self.t_max
        return nodes

    @cached_property
    def nodes(self) -> np.ndarray:
        """All n_steps + 1 nodes, formed whole at the first read and kept, read-only."""
        nodes = self.nodes_at(0, self.n_steps + 1)
        nodes.setflags(write=False)
        return nodes


def build_grid(t_max: float, n_steps: int) -> TimeGrid:
    """Build the uniform grid with dt = t_max / n_steps.

    Raises ValueError if t_max is not positive or n_steps is not a positive
    integer.
    """
    t_max = float(t_max)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    n_steps = int(n_steps)
    return TimeGrid(t_max=t_max, n_steps=n_steps, dt=t_max / n_steps)


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """One of the bounded coefficient presets for a, sigma, or u.

    kind:
      const    params (c,)            -> c
      sin      params (c0, c1, omega) -> c0 + c1 * sin(omega * t)
      state    params (c,)            -> c / (1 + x**2)
      samples  explicit per-step values, one per left node
    """

    kind: str
    params: tuple[float, ...] = ()
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ConfigurationError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "samples":
            if self.samples is None:
                raise ConfigurationError("samples coefficient requires a value series")
            if not np.all(np.isfinite(self.samples)):
                raise ConfigurationError("samples coefficient contains non-finite values")
        elif not all(np.isfinite(p) for p in self.params):
            raise ConfigurationError(f"coefficient parameters must be finite, got {self.params}")

    @classmethod
    def constant(cls, c: float) -> "CoefficientSpec":
        return cls("const", (float(c),))

    @classmethod
    def sinusoid(cls, c0: float, c1: float, omega: float) -> "CoefficientSpec":
        return cls("sin", (float(c0), float(c1), float(omega)))

    @classmethod
    def state_bounded(cls, c: float) -> "CoefficientSpec":
        return cls("state", (float(c),))

    @classmethod
    def from_samples(cls, values) -> "CoefficientSpec":
        arr = np.asarray(values, dtype=np.float64).copy()
        arr.setflags(write=False)
        return cls("samples", samples=arr)

    @property
    def time_only(self) -> bool:
        """True when the value at a node does not depend on the state x."""
        return self.kind != "state"

    def coarsened(self, factor: int) -> "CoefficientSpec":
        """This coefficient on a grid `factor` times coarser over the same horizon.

        Samples are decimated to the coarse left nodes (every `factor`-th
        entry); the other kinds are functions of t and x and stay as they are.
        """
        if self.kind != "samples" or factor == 1:
            return self
        return CoefficientSpec.from_samples(self.samples[::factor])

    def sample_series(
        self, grid: TimeGrid, x_left: np.ndarray | None = None, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Values at the left nodes t_start .. t_{stop-1}, by default t_0 .. t_{N-1};
        state kind needs x at those nodes."""
        stop = grid.n_steps if stop is None else stop
        if self.kind == "const":
            return np.full(stop - start, self.params[0])
        if self.kind == "sin":
            c0, c1, omega = self.params
            values = grid.nodes_at(start, stop)  # c0 + c1 sin(omega t), in this one buffer
            values *= omega
            np.sin(values, out=values)
            values *= c1
            values += c0
            return values
        if self.kind == "state":
            if x_left is None:
                raise ValueError("state-dependent coefficient needs the path values")
            return self.params[0] / (1.0 + x_left * x_left)
        if len(self.samples) != grid.n_steps:
            raise ConfigurationError(
                f"samples coefficient has {len(self.samples)} entries, grid needs {grid.n_steps}"
            )
        return self.samples[start:stop]


@np.errstate(over="ignore", invalid="ignore")
def left_variance(sigma: np.ndarray, dt: float, carry: float = 0.0) -> np.ndarray:
    """I, the left-sum of sigma^2 dt, at the nodes of ``sigma``'s steps and the node after, from
    ``carry`` at the first in one sequential sum: sums continued so are the one sum over the
    whole path bit for bit (0.0 + t is t: sigma^2 dt is never -0.0)."""
    values = np.empty(len(sigma) + 1)
    values[0] = carry
    np.multiply(sigma, sigma, out=values[1:])
    values[1:] *= dt
    return np.cumsum(values, out=values)


def discount(psi: np.ndarray, variance: np.ndarray, total: float) -> np.ndarray:
    """e^{-(I_N - I_k)/2} psi_k, given I_k at psi's steps as ``variance`` and I_N as ``total``."""
    u = np.subtract(total, variance)
    u *= -0.5
    np.exp(u, out=u)
    u *= psi
    return u


def sample_wiener(grid: TimeGrid, seed: int) -> np.ndarray:
    """N independent Gaussian increments with mean 0 and variance dt.

    The same (grid, seed) pair always yields the same bits.
    """
    return next(wiener_chunks(grid, seed, grid.n_steps))


def wiener_chunks(grid: TimeGrid, seed: int, steps: int):
    """sample_wiener's increments, ``steps`` at a time: each draw continues the seed's Philox
    stream where the last ended, so the chunks are its bits."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    for k0 in range(0, grid.n_steps, steps):
        dw = rng.standard_normal(min(steps, grid.n_steps - k0))
        dw *= np.sqrt(grid.dt)
        yield dw


class Increments:
    """The N Wiener increments of a path, read in order: ``chunks(steps)`` yields them ``steps``
    at a time. Each call draws them anew, and so does ``np.asarray()``, which reads them whole: a
    Philox stream drawn in chunks is the one draw bit for bit, so every reader of the same
    increments gets the same bits, however and however often it reads them.
    """

    def __init__(self, n: int, chunks):
        self.n, self.chunks = n, chunks

    def __len__(self) -> int:
        return self.n

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(next(self.chunks(self.n)), dtype=dtype)

    @classmethod
    def of(cls, values) -> "Increments":
        """The increments ``values``, an array read in slices of it, or Increments as they are."""
        if isinstance(values, Increments):
            return values
        dw = np.asarray(values, dtype=np.float64)
        return cls(len(dw), lambda steps: (dw[k0 : k0 + steps] for k0 in range(0, len(dw), steps)))

    @classmethod
    def drawn(cls, grid: TimeGrid, seed: int) -> "Increments":
        """sample_wiener's increments of (grid, seed), drawn chunk by chunk (wiener_chunks)."""
        return cls(grid.n_steps, partial(wiener_chunks, grid, seed))

    def coarsened(self, factor: int) -> "Increments":
        """These merged ``factor`` at a time, chunk by chunk, bit for bit coarsen_increments on
        the whole: no group straddles two chunks of ``steps * factor``."""
        merged = lambda steps: (coarsen_increments(dw, factor) for dw in self.chunks(steps * factor))
        return Increments(self.n // factor, merged)

    def head(self, n: int) -> "Increments":
        """The first ``n`` of these."""
        first = lambda steps: (dw[: n - k0] for k0, dw in zip(range(0, n, steps), self.chunks(steps)))
        return Increments(n, first)


class _Chunk(dict):
    """One chunk of a path's series by name: x and I at its nodes k0 .. k0 + steps, dw, sigma
    and the series formed on demand at its steps (I/2 at its nodes). ``drift`` says whether a
    is nonzero at one of its steps."""

    __slots__ = ("k0", "drift")


@np.errstate(over="ignore", invalid="ignore")
def _step(a_spec, sigma_spec, grid: TimeGrid, k0: int, dw: np.ndarray, xk: float, carry: float) -> _Chunk:
    """The chunk of the steps k0 .. k0 + len(dw) - 1 from x_k0 = ``xk`` and I_k0 = ``carry``.

    a and sigma are sampled once. With time-only coefficients the steps sigma dw + a dt go into
    x and cumsum, sequential for float64, adds them up from xk. A state coefficient c / (1 + x*x)
    makes each step x + (a*dt + sigma*dw), evaluated on Python floats in that association: every
    operation is one correctly rounded IEEE operation. Either way x satisfies the step recurrence
    bit for bit with the a and sigma that sample_series gives on it. A step past double range
    leaves x inf or nan from there on, without a warning.
    """
    dt, specs = grid.dt, (a_spec, sigma_spec)
    k1 = k0 + len(dw)
    x = np.empty(len(dw) + 1)
    x[0] = xk
    a, sigma = (c.sample_series(grid, None, k0, k1) if c.time_only else None for c in specs)
    if a is not None and sigma is not None:
        steps = np.multiply(sigma, dw, out=x[1:])
        steps += a * dt  # sigma dw + a dt is a dt + sigma dw bit for bit
        np.cumsum(x, out=x)
    else:
        out, dwc, xk = [], dw.tolist(), float(x[0])
        if a is None and sigma is None:
            ca, cs = a_spec.params[0], sigma_spec.params[0]
            for dwk in dwc:
                q = 1.0 + xk * xk
                xk = xk + (ca / q * dt + cs / q * dwk)
                out.append(xk)
        elif a is None:
            ca = a_spec.params[0]
            for sk, dwk in zip(sigma.tolist(), dwc):
                xk = xk + (ca / (1.0 + xk * xk) * dt + sk * dwk)
                out.append(xk)
        else:
            cs = sigma_spec.params[0]
            for adt, dwk in zip((a * dt).tolist(), dwc):
                xk = xk + (adt + cs / (1.0 + xk * xk) * dwk)
                out.append(xk)
        x[1:] = out
        a, sigma = (c.sample_series(grid, x[:-1], k0, k1) for c in specs)
    chunk = _Chunk(x=x, dw=dw, sigma=sigma, variance=left_variance(sigma, dt, carry))
    chunk.k0, chunk.drift = k0, bool(np.any(a != 0.0))  # on a itself: a * dt may round to 0
    for values in chunk.values():
        values.setflags(write=False)
    return chunk


_NODE_SERIES = frozenset({"x", "variance", "half_variance"})  # at nodes; the rest at steps


def _simulation(a_spec, sigma_spec, grid: TimeGrid, increments: Increments, x0: float, steps: int):
    """The chunks of ``steps`` steps of the path of ``increments`` from x0, in order. It holds
    no PathRecord, so a path's cursor makes no reference cycle and goes with its path."""
    xk, carry = x0, 0.0
    for k0, dw in zip(range(0, grid.n_steps, steps), increments.chunks(steps)):
        chunk = _step(a_spec, sigma_spec, grid, k0, dw, xk, carry)
        xk, carry = chunk["x"][-1], chunk["variance"][-1]
        yield chunk


class _Cursor:
    """A path's simulation read forward: the chunks it formed last, as many as the weighted
    transform's search for its block end reads ahead of a segment (_RESTART_NODES, 4 chunks,
    past the one the segment is in), and the chunks still to come."""

    def __init__(self):
        self.kept, self.chunks = deque(maxlen=5), iter(())


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One path of dx = a dt + sigma dw from x_0 = x0, formed as it is read; it holds no series.

    ``x_at(k0, k1)`` gives x at the nodes k0 .. k1-1 and ``dw_at(k0, k1)`` the increments of the
    steps k0 .. k1-1, x[k+1] == x[k] + (a[k]*dt + sigma[k]*dw[k]) bit for bit, a the drift at
    the left nodes; ``sigma_at`` and ``u_at`` give sigma and u at the left nodes k0 .. k1-1,
    ``variance_at`` I, the left-sum of sigma^2 dt, at the nodes k0 .. k1-1 and
    ``half_variance_at`` I/2, each read-only. They are simulated STATE_CHUNK_STEPS steps at a
    time from ``increments`` (see _step) by a forward cursor, which keeps the last few chunks:
    the readers of a segment of a pass, and the weighted transform's search for its block end
    ahead of it, share one simulation. A read behind the kept chunks simulates the path again
    from a fresh draw, and a read across chunks (``x``, ``dw``, ``sigma`` and ``u`` read the
    whole series) from a fresh draw of its own, so no reader changes what another reads.
    ``discounted_by``, once set, is the I_N that makes u ``u_spec``, psi, discounted by
    e^{-(I_N - I_k)/2}; ``psi_at`` gives psi, the segments u discounts. ``driftless`` says
    whether every a[k] is zero; left None, it is decided on the drift's values.
    """

    grid: TimeGrid
    a_spec: CoefficientSpec
    sigma_spec: CoefficientSpec
    u_spec: CoefficientSpec
    increments: Increments
    x0: float = 0.0
    seed: int | None = None
    driftless: bool | None = None
    discounted_by: float | None = None
    cursor: _Cursor = field(default_factory=_Cursor, init=False, repr=False)

    def __post_init__(self):
        if self.driftless is None:
            object.__setattr__(self, "driftless", self._drift_free())

    def _chunks(self):
        """The path chunk by chunk, simulated from a fresh draw of its increments."""
        return _simulation(self.a_spec, self.sigma_spec, self.grid, self.increments, self.x0, STATE_CHUNK_STEPS)

    def _time_series(self, spec: CoefficientSpec):
        n, steps = self.grid.n_steps, STATE_CHUNK_STEPS
        return (spec.sample_series(self.grid, None, k0, min(k0 + steps, n)) for k0 in range(0, n, steps))

    @np.errstate(over="ignore", invalid="ignore")
    def _drift_free(self) -> bool:
        """Whether a is zero at every left node: from a alone when it is time-only, else from
        a at x0 and, if that is zero, from a simulation of the path."""
        if self.a_spec.time_only:
            return not any(np.any(a != 0.0) for a in self._time_series(self.a_spec))
        if self.a_spec.sample_series(self.grid, np.array([self.x0]), 0, 1)[0] != 0.0:
            return False
        return not any(chunk.drift for chunk in self._chunks())

    @np.errstate(over="ignore", invalid="ignore")
    def total_variance(self) -> float:
        """I_N: summed from sigma alone when it is time-only, else from a simulation of the path."""
        if not self.sigma_spec.time_only:
            return float(deque(self._chunks(), maxlen=1)[0]["variance"][-1])
        total = 0.0
        for sigma in self._time_series(self.sigma_spec):
            total = left_variance(sigma, self.grid.dt, total)[-1]
        return float(total)

    def _series(self, chunk: _Chunk, name: str) -> np.ndarray:
        """The series ``name`` of ``chunk``, formed at its first read and kept with the chunk."""
        values = chunk.get(name)
        if values is None:
            values = chunk[name] = self._form(chunk, name)
            values.setflags(write=False)
        return values

    # sampled as a step samples them: a state coefficient past |x| = 1e154 is c / inf
    @np.errstate(over="ignore", invalid="ignore")
    def _form(self, chunk: _Chunk, name: str) -> np.ndarray:
        if name == "half_variance":
            return np.multiply(chunk["variance"], 0.5)
        if name == "psi":
            k0 = chunk.k0
            return self.u_spec.sample_series(self.grid, chunk["x"][:-1], k0, k0 + len(chunk["dw"]))
        psi = self._series(chunk, "psi")  # u
        return psi if self.discounted_by is None else discount(psi, chunk["variance"][:-1], self.discounted_by)

    def _chunk(self, c0: int) -> _Chunk:
        """The chunk from node c0, kept or simulated on by the cursor; one behind those kept
        starts the simulation again."""
        cursor = self.cursor
        for chunk in reversed(cursor.kept):
            if chunk.k0 == c0:
                return chunk
        if not cursor.kept or c0 < cursor.kept[0].k0:
            cursor.kept.clear()
            cursor.chunks = self._chunks()
        for chunk in cursor.chunks:
            cursor.kept.append(chunk)
            if chunk.k0 == c0:
                return chunk
        raise IndexError(f"no chunk of the path starts at node {c0}")

    def _at(self, name: str, k0: int, k1: int) -> np.ndarray:
        n, size = self.grid.n_steps, STATE_CHUNK_STEPS
        c0 = min(k0, n - 1) // size * size  # the chunk holding node k0, node N in the last
        if k1 <= min(c0 + size, n) + (name in _NODE_SERIES):
            return self._series(self._chunk(c0), name)[k0 - c0 : k1 - c0]
        parts = []  # a read across chunks
        for chunk in self._chunks():
            c0, steps = chunk.k0, len(chunk["dw"])
            # the last node of a chunk but the last is the first of the next
            values = self._series(chunk, name)[: None if c0 + steps == self.grid.n_steps else steps]
            parts.append(values[max(k0 - c0, 0) : max(k1 - c0, 0)])
            if k1 <= c0 + len(values):
                break
        values = np.concatenate(parts)
        values.setflags(write=False)
        return values

    x_at = partialmethod(_at, "x")
    dw_at = partialmethod(_at, "dw")
    sigma_at = partialmethod(_at, "sigma")
    u_at = partialmethod(_at, "u")
    psi_at = partialmethod(_at, "psi")
    variance_at = partialmethod(_at, "variance")
    half_variance_at = partialmethod(_at, "half_variance")
    x = property(lambda self: self.x_at(0, self.grid.n_steps + 1))
    dw = property(lambda self: self.dw_at(0, self.grid.n_steps))
    sigma = property(lambda self: self.sigma_at(0, self.grid.n_steps))
    u = property(lambda self: self.u_at(0, self.grid.n_steps))

    def head(self, steps: int) -> "PathRecord":
        """The path's first ``steps`` steps, or the path itself when it has no more.

        Every sum built on the path is non-anticipating, so on the head it takes
        the path's own values at nodes 0 .. steps. The grid keeps dt, the increments are the
        path's first, drawn anew, samples are cut to the head, u is discounted by the path's
        I_N, and a drifting path's head is not driftless, even with no drift of its own.
        """
        if self.grid.n_steps <= steps:
            return self
        specs = (self.a_spec, self.sigma_spec, self.u_spec)
        a, sigma, u = (c.from_samples(c.samples[:steps]) if c.kind == "samples" else c for c in specs)
        grid = TimeGrid(self.grid.dt * steps, steps, self.grid.dt)
        increments = self.increments.head(steps)
        return replace(self, grid=grid, a_spec=a, sigma_spec=sigma, u_spec=u, increments=increments)


def simulate_path(
    a_spec: CoefficientSpec,
    sigma_spec: CoefficientSpec,
    u_spec: CoefficientSpec,
    grid: TimeGrid,
    increments,
    x0: float = 0.0,
    seed: int | None = None,
) -> PathRecord:
    """The path x[k+1] = x[k] + a(t_k, x_k)*dt + sigma(t_k, x_k)*dw[k] from x[0] = x0.

    ``increments`` are the N Wiener increments dw, an array or Increments. Nothing is simulated
    here but what decides ``driftless`` (see PathRecord._drift_free): the path takes its steps
    STATE_CHUNK_STEPS at a time as it is read, a and sigma sampled per chunk (see _step).
    """
    increments = Increments.of(increments)
    if len(increments) != grid.n_steps:
        raise ValueError(f"increments must have {grid.n_steps} entries, got {len(increments)}")
    return PathRecord(grid, a_spec, sigma_spec, u_spec, increments, float(x0), seed)


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Merge each run of `factor` consecutive increments into one.

    The coarse increments are summed left to right inside each group, so the
    coarse Wiener path revisits the fine path's values at shared nodes up to
    the reassociation roundoff of the grouped additions.
    """
    dw = np.asarray(increments, dtype=np.float64)
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    factor = int(factor)
    if len(dw) % factor != 0:
        raise ValueError(f"factor {factor} does not divide increment count {len(dw)}")
    groups = dw.reshape(-1, factor)
    out = groups[:, 0].copy()
    for j in range(1, factor):
        out += groups[:, j]
    return out
