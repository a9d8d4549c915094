"""Euler-Maruyama simulation of dx = a dt + sigma dw on uniform grids.

All randomness goes through a counter-based generator (Philox) keyed by an
integer seed, so a (grid, seed) pair pins the Wiener increments bit-exactly
across runs. Coefficients are sampled at the left node of every step, which
keeps every discrete sum built on top of these paths non-anticipating.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, partialmethod

import numpy as np

from .errors import ConfigurationError

COEFFICIENT_KINDS = ("const", "sin", "state", "samples")
# steps per chunk of simulate_path, the nodes between the marks of I it records; bounds the
# scratch of its vectorised steps and the Python-float lists of its state-dependent loop
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


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One simulated path plus everything needed to reproduce or transform it.

    x has N+1 entries and dw N, and x[k+1] == x[k] + (a[k]*dt + sigma[k]*dw[k]) bit for
    bit, a the drift at the left nodes. ``marks`` holds I, the left-sum of sigma^2 dt, at the
    nodes 0, S, 2S, .. before N (S = STATE_CHUNK_STEPS) and, last, at node N. The rest is
    formed from the specs, x and the marks: ``sigma_at(k0, k1)`` and ``u_at(k0, k1)`` give
    sigma and u at the left nodes k0 .. k1-1, ``variance_at(k0, k1)`` I at the nodes k0 ..
    k1-1 and ``half_variance_at`` I/2, read-only; ``sigma`` and ``u`` give all N of them.
    ``discounted`` makes u ``u_spec``, psi, discounted by e^{-(I_N - I_k)/2}, I_N being the
    last mark; ``psi_at`` gives ``u_spec``'s own values, the segments u discounts. The drift
    is not kept: ``driftless`` says whether every a[k] is zero.
    """

    grid: TimeGrid
    x: np.ndarray
    dw: np.ndarray
    driftless: bool
    sigma_spec: CoefficientSpec
    u_spec: CoefficientSpec
    marks: np.ndarray
    seed: int | None = None
    discounted: bool = False
    # series -> its six segments formed last, (k0, values) each, more than the weighted
    # transform's search for its block end reads ahead: every reader of a segment shares one
    formed: dict = field(default_factory=dict, init=False, repr=False)

    # sampled as under simulate_path's caller: a state coefficient past |x| = 1e154 is c / inf
    @np.errstate(over="ignore", invalid="ignore")
    def _form(self, name: str, k0: int, k1: int) -> np.ndarray:
        if name == "variance":  # continued from the mark at or before k0
            start, mark = k0 - k0 % STATE_CHUNK_STEPS, self.marks[k0 // STATE_CHUNK_STEPS]
            sigma = self.sigma_at(start, min(k1, self.grid.n_steps))
            return left_variance(sigma, self.grid.dt, mark)[k0 - start : k1 - start]
        if name == "half_variance":
            return np.multiply(self.variance_at(k0, k1), 0.5)
        if name == "u" and self.discounted:
            return discount(self.psi_at(k0, k1), self.variance_at(k0, k1), self.marks[-1])
        spec = self.u_spec if name == "psi" else getattr(self, f"{name}_spec")
        return spec.sample_series(self.grid, self.x[k0:k1], k0, k1)

    def _kept(self, name: str, k0: int, k1: int) -> np.ndarray:
        kept = self.formed.setdefault(name, deque(maxlen=6))
        for start, values in kept:
            if start <= k0 and k1 <= start + len(values):
                return values[k0 - start : k1 - start]
        values = self._form(name, k0, k1)
        values.setflags(write=False)
        if k1 - k0 <= 2 * STATE_CHUNK_STEPS:  # a whole series is not kept
            kept.append((k0, values))
        return values

    sigma_at = partialmethod(_kept, "sigma")
    u_at = partialmethod(_kept, "u")
    psi_at = partialmethod(_kept, "psi")
    variance_at = partialmethod(_kept, "variance")
    half_variance_at = partialmethod(_kept, "half_variance")
    sigma = property(lambda self: self.sigma_at(0, self.grid.n_steps))
    u = property(lambda self: self.u_at(0, self.grid.n_steps))

    def with_u(self, u: np.ndarray) -> "PathRecord":
        u = np.asarray(u, dtype=np.float64)
        if len(u) != self.grid.n_steps:
            raise ValueError(f"u must have {self.grid.n_steps} entries, got {len(u)}")
        return replace(self, u_spec=CoefficientSpec.from_samples(u), discounted=False)

    def head(self, steps: int) -> "PathRecord":
        """The path's first ``steps`` steps, or the path itself when it has no more.

        Every sum built on the path is non-anticipating, so on the head it takes
        the path's own values at nodes 0 .. steps. The grid keeps dt, x and dw are
        copies, samples are cut to the head, the marks are the path's (its I_N discounts u),
        and a drifting path's head is not driftless, even with no drift of its own.
        """
        if self.grid.n_steps <= steps:
            return self
        x, dw = self.x[: steps + 1].copy(), self.dw[:steps].copy()
        specs = (self.sigma_spec, self.u_spec)
        specs = [c.from_samples(c.samples[:steps]) if c.kind == "samples" else c for c in specs]
        grid = TimeGrid(self.grid.dt * steps, steps, self.grid.dt)
        return replace(self, grid=grid, x=x, dw=dw, sigma_spec=specs[0], u_spec=specs[1])


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


def simulate_path(
    a_spec: CoefficientSpec,
    sigma_spec: CoefficientSpec,
    u_spec: CoefficientSpec,
    grid: TimeGrid,
    increments: np.ndarray,
    x0: float = 0.0,
    seed: int | None = None,
) -> PathRecord:
    """Advance x[k+1] = x[k] + a(t_k, x_k)*dt + sigma(t_k, x_k)*dw[k] from x[0] = x0.

    The steps are taken STATE_CHUNK_STEPS at a time, a and sigma sampled per chunk, and I
    is carried from chunk to chunk, its value at each chunk's first node and at node N
    recorded as the path's marks. With time-only coefficients a chunk's steps sigma dw +
    a dt go into x and cumsum, sequential for float64, adds them up from the chunk's first
    node. A state coefficient c / (1 + x*x) makes each step x + (a*dt + sigma*dw), evaluated
    on Python floats in that association: every operation is one correctly rounded IEEE
    operation. Either way x satisfies the step recurrence bit for bit with the a and sigma
    that sample_series gives on it.
    """
    dw = np.asarray(increments, dtype=np.float64)
    n = grid.n_steps
    if len(dw) != n:
        raise ValueError(f"increments must have {n} entries, got {len(dw)}")
    dt = grid.dt
    x = np.empty(n + 1)
    x[0] = x0
    drift, carry, marks, specs = False, 0.0, [], (a_spec, sigma_spec)
    for k0 in range(0, n, STATE_CHUNK_STEPS):
        k1 = min(k0 + STATE_CHUNK_STEPS, n)
        a, sigma = (c.sample_series(grid, None, k0, k1) if c.time_only else None for c in specs)
        if a is not None and sigma is not None:
            steps = np.multiply(sigma, dw[k0:k1], out=x[k0 + 1 : k1 + 1])
            steps += a * dt  # sigma dw + a dt is a dt + sigma dw bit for bit
            np.cumsum(x[k0 : k1 + 1], out=x[k0 : k1 + 1])
        else:
            out, dwc, xk = [], dw[k0:k1].tolist(), float(x[k0])
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
            x[k0 + 1 : k1 + 1] = out
            a, sigma = (c.sample_series(grid, x[k0:k1], k0, k1) for c in specs)
        drift = drift or bool(np.any(a != 0.0))  # on a itself: a * dt may round to 0
        marks.append(carry)
        carry = left_variance(sigma, dt, carry)[-1]
    x.setflags(write=False)
    return PathRecord(grid, x, dw, not drift, sigma_spec, u_spec, np.array([*marks, carry]), seed)


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
