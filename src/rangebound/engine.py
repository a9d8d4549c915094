"""Euler-Maruyama simulation of dx = a dt + sigma dw on uniform grids.

All randomness goes through a counter-based generator (Philox) keyed by an
integer seed, so a (grid, seed) pair pins the Wiener increments bit-exactly
across runs. Coefficients are sampled at the left node of every step, which
keeps every discrete sum built on top of these paths non-anticipating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

COEFFICIENT_KINDS = ("const", "sin", "state", "samples")
# steps per chunk of the state-dependent loop in simulate_path; bounds the
# Python-float lists held beside the float64 arrays
STATE_CHUNK_STEPS = 8192


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform mesh on [0, t_max] with n_steps intervals of width dt.

    nodes[k] = k * dt for k < n_steps; the last node is set to t_max exactly
    rather than accumulated.
    """

    t_max: float
    n_steps: int
    dt: float
    nodes: np.ndarray


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
    dt = t_max / n_steps
    nodes = dt * np.arange(n_steps + 1, dtype=np.float64)
    nodes[-1] = t_max
    nodes.setflags(write=False)
    return TimeGrid(t_max=t_max, n_steps=n_steps, dt=dt, nodes=nodes)


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
        t = grid.nodes[start : grid.n_steps if stop is None else stop]
        if self.kind == "const":
            return np.full(len(t), self.params[0])
        if self.kind == "sin":
            c0, c1, omega = self.params
            values = np.multiply(omega, t)  # c0 + c1 sin(omega t), in this one buffer
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


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One simulated path plus everything needed to reproduce or transform it.

    x has N+1 entries; dw, sigma, u have N entries sampled at left nodes, and
    x[k+1] == x[k] + (a[k]*dt + sigma[k]*dw[k]) bit for bit, a the drift at those
    nodes. The drift is not kept: ``driftless`` says whether every a[k] is zero.
    """

    grid: TimeGrid
    x: np.ndarray
    dw: np.ndarray
    driftless: bool
    sigma: np.ndarray
    u: np.ndarray
    seed: int | None = None

    def with_u(self, u: np.ndarray) -> "PathRecord":
        u = np.asarray(u, dtype=np.float64)
        if len(u) != self.grid.n_steps:
            raise ValueError(f"u must have {self.grid.n_steps} entries, got {len(u)}")
        return PathRecord(self.grid, self.x, self.dw, self.driftless, self.sigma, u, self.seed)

    def head(self, steps: int) -> "PathRecord":
        """The path's first ``steps`` steps, or the path itself when it has no more.

        Every sum built on the path is non-anticipating, so on the head it takes
        the path's own values at nodes 0 .. steps. The grid keeps dt, the arrays are
        copies, and a drifting path's head is not driftless, even with no drift of its own.
        """
        if self.grid.n_steps <= steps:
            return self
        nodes, x = (arr[: steps + 1].copy() for arr in (self.grid.nodes, self.x))
        dw, sigma, u = (arr[:steps].copy() for arr in (self.dw, self.sigma, self.u))
        grid = TimeGrid(float(nodes[-1]), steps, self.grid.dt, nodes)
        return PathRecord(grid, x, dw, self.driftless, sigma, u, self.seed)


def sample_wiener(grid: TimeGrid, seed: int) -> np.ndarray:
    """N independent Gaussian increments with mean 0 and variance dt.

    The same (grid, seed) pair always yields the same bits.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.standard_normal(grid.n_steps) * np.sqrt(grid.dt)


def simulate_path(
    a_spec: CoefficientSpec,
    sigma_spec: CoefficientSpec,
    u_spec: CoefficientSpec,
    grid: TimeGrid,
    increments: np.ndarray,
    x0: float = 0.0,
    seed: int | None = None,
) -> PathRecord:
    """Advance x[k+1] = x[k] + a(t_k, x_k)*dt + sigma(t_k, x_k)*dw[k] from x[0] = x0."""
    dw = np.asarray(increments, dtype=np.float64)
    n = grid.n_steps
    if len(dw) != n:
        raise ValueError(f"increments must have {n} entries, got {len(dw)}")
    dt = grid.dt
    x0 = float(x0)

    if a_spec.time_only and sigma_spec.time_only:
        a = np.ascontiguousarray(a_spec.sample_series(grid), dtype=np.float64)
        sigma = np.ascontiguousarray(sigma_spec.sample_series(grid), dtype=np.float64)
        driftless = not np.any(a != 0.0)  # on a itself: a * dt may round to 0
        # sigma dw + a dt is a dt + sigma dw bit for bit, with a scaled in its own array unless
        # it views samples; cumsum is sequential for float64, so x satisfies the step recurrence
        x = np.empty(n + 1)
        x[0] = x0
        steps = np.multiply(sigma, dw, out=x[1:])
        steps += np.multiply(a, dt, out=a if a.flags.owndata else None)
        np.cumsum(x, out=x)
    else:
        x = _state_dependent_x(a_spec, sigma_spec, grid, dw, x0)
        a = a_spec.sample_series(grid, x_left=x[:-1])
        sigma = sigma_spec.sample_series(grid, x_left=x[:-1])
        driftless = not np.any(a != 0.0)
    del a  # decided on its values: the drift goes before u is sampled, and no stage holds it

    u = np.ascontiguousarray(u_spec.sample_series(grid, x_left=x[:-1]), dtype=np.float64)
    for arr in (x, sigma, u):
        arr.setflags(write=False)
    return PathRecord(grid=grid, x=x, dw=dw, driftless=driftless, sigma=sigma, u=u, seed=seed)


def _state_dependent_x(
    a_spec: CoefficientSpec,
    sigma_spec: CoefficientSpec,
    grid: TimeGrid,
    dw: np.ndarray,
    x0: float,
) -> np.ndarray:
    """x for a path whose a or sigma depends on the state, one step at a time.

    Each step is x + (a*dt + sigma*dw) with a state coefficient c / (1 + x*x),
    evaluated on Python floats in that association. Every operation is one
    correctly rounded IEEE operation, so x satisfies the step recurrence bit
    for bit with the a and sigma that sample_series gives on it. Inputs are
    converted to Python floats STATE_CHUNK_STEPS at a time.
    """
    n = grid.n_steps
    dt = grid.dt
    a_dt = a_spec.sample_series(grid) * dt if a_spec.time_only else None
    sigma_t = sigma_spec.sample_series(grid) if sigma_spec.time_only else None
    x = np.empty(n + 1)
    x[0] = xk = x0
    for k0 in range(0, n, STATE_CHUNK_STEPS):
        k1 = min(k0 + STATE_CHUNK_STEPS, n)
        dwc = dw[k0:k1].tolist()
        out = []
        if a_dt is None and sigma_t is None:
            ca = a_spec.params[0]
            cs = sigma_spec.params[0]
            for dwk in dwc:
                q = 1.0 + xk * xk
                xk = xk + (ca / q * dt + cs / q * dwk)
                out.append(xk)
        elif a_dt is None:
            ca = a_spec.params[0]
            for sk, dwk in zip(sigma_t[k0:k1].tolist(), dwc):
                xk = xk + (ca / (1.0 + xk * xk) * dt + sk * dwk)
                out.append(xk)
        else:
            cs = sigma_spec.params[0]
            for adt, dwk in zip(a_dt[k0:k1].tolist(), dwc):
                xk = xk + (adt + cs / (1.0 + xk * xk) * dwk)
                out.append(xk)
        x[k0 + 1 : k1 + 1] = out
    return x


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
    if factor == 1:
        return dw.copy()
    groups = dw.reshape(-1, factor)
    out = groups[:, 0].copy()
    for j in range(1, factor):
        out += groups[:, j]
    return out
