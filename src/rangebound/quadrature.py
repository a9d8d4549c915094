"""Discrete integral conventions: left-point sums against dx and dt.

Both sums share the left-point convention, so stochastic integrals are
non-anticipating and the triangle-inequality envelopes computed against dt
hold exactly at every node, not just in the continuum limit.
"""

from __future__ import annotations

import numpy as np

from .engine import PathRecord, TimeGrid


def _left_sum(integrand, grid: TimeGrid, x: np.ndarray | None = None) -> np.ndarray:
    """Read-only left-point sum of integrand against the increments of x, or against dt."""
    f = np.asarray(integrand, dtype=np.float64)
    if f.ndim != 1 or len(f) != grid.n_steps:
        raise ValueError(f"integrand must have {grid.n_steps} entries, got shape {f.shape}")
    # the increments stay a temporary, so numpy reuses them for the product
    values = prefix_sum(f * (grid.dt if x is None else np.diff(x)))
    values.setflags(write=False)
    return values


def prefix_sum(terms: np.ndarray, carry=None) -> np.ndarray:
    """Running sum of ``terms`` in their dtype: values[0] = 0, len = len(terms) + 1.

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


def ito_cumsum(integrand, path: PathRecord) -> np.ndarray:
    """Read-only cumulative left-point sum of integrand against the path increments.

    values[k+1] = values[k] + integrand[k] * (x[k+1] - x[k]), values[0] = 0
    """
    return _left_sum(integrand, path.grid, path.x)


def riemann_cumsum(integrand, grid: TimeGrid) -> np.ndarray:
    """Read-only cumulative left-point sum of integrand against dt.

    values[k+1] = values[k] + integrand[k] * dt, values[0] = 0
    """
    return _left_sum(integrand, grid)
