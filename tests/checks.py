"""Whole-series views of the block checks, and the whole-array reductions they replace.

The library's checks reduce the blocks of one recurrence pass and never hold a
series whole. The helpers here feed them a whole series as one block, or
compute the same reductions with whole-array numpy, the reference a blockwise
reduction must match bit for bit.
"""

import numpy as np

import rangebound as rb

BOUND_TOLERANCE_UNIT = 1e-9


def seeded_path(a_spec, sigma_spec, u_spec, grid, seed, x0=0.0):
    """The path of ``seed``'s Wiener increments on ``grid``."""
    return rb.simulate_path(a_spec, sigma_spec, u_spec, grid, rb.sample_wiener(grid, seed), x0, seed)


def bounded_recursive(path):
    """The bounded series of transform_pair_recursive alone."""
    return rb.transform_pair_recursive(path, weighted=False)[0]


def _left_sum(terms):
    values = np.empty(len(terms) + 1)
    values[0] = 0.0
    np.cumsum(terms, out=values[1:])
    return values


def ito_cumsum(integrand, path):
    """values[k+1] = values[k] + integrand[k] * (x[k+1] - x[k]), values[0] = 0, summed whole."""
    return _left_sum(integrand * np.diff(path.x))


def riemann_cumsum(integrand, grid):
    """values[k+1] = values[k] + integrand[k] * dt, values[0] = 0, summed whole."""
    return _left_sum(integrand * grid.dt)


def identity_sides(path, ts):
    """(lhs, rhs, residual) of ``ts``'s identity: IdentityCheck fed ``ts`` as one block."""
    check = rb.IdentityCheck(path, ts.weighted, keep=True)
    check.feed(0, len(ts.X), ts.X + 1j * ts.Y)
    return check.kept[0], ts.X if ts.weighted else check.kept[1], check.residual()


def whole_identity_sides(path, ts):
    """Both sides of ``ts``'s identity with whole-array cumulative sums."""
    if ts.weighted:
        return -ito_cumsum(ts.Y[:-1], path), ts.X
    correction = riemann_cumsum(path.sigma * path.sigma * ts.Y[:-1], path.grid)
    return ito_cumsum(ts.X[:-1], path), ts.Y + 0.5 * correction


def whole_residual(path, ts):
    """max |lhs - rhs| over the whole series, None once it or a side's last value leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = whole_identity_sides(path, ts)
        residual = float(np.max(np.abs(lhs - rhs)))
    return residual if np.isfinite([lhs[-1], rhs[-1], residual]).all() else None


def whole_bound(ts, integrand, grid):
    """The BoundReport of ``ts`` against the left-sum of |integrand| dt, by np.argmax on the
    whole margin; None once the envelope's total leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = riemann_cumsum(np.abs(integrand), grid)
        margin = ts.modulus() - envelope
    if not np.isfinite(envelope[-1]):
        return None
    index = int(np.argmax(margin))
    worst = float(margin[index])
    tolerance = BOUND_TOLERANCE_UNIT * (1.0 + float(envelope[-1]))
    return rb.BoundReport(worst, index, tolerance, worst <= tolerance)
