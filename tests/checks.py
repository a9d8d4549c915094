"""Whole-series views of the block checks, and the whole-array reductions they replace.

The library's checks reduce the blocks of one recurrence pass and never hold a
series whole, and the library gathers no transform whole either. The helpers
here gather a pass's blocks into whole series, feed the checks a whole series
as one block, or compute the same reductions with whole-array numpy, the
reference a blockwise reduction must match bit for bit.
"""

import numpy as np

import rangebound as rb
from rangebound import verification

BOUND_TOLERANCE_UNIT = 1e-9


def seeded_path(a_spec, sigma_spec, u_spec, grid, seed, x0=0.0):
    """The path of ``seed``'s Wiener increments on ``grid``."""
    return rb.simulate_path(a_spec, sigma_spec, u_spec, grid, rb.sample_wiener(grid, seed), x0, seed)


class Gather:
    """A consumer of reduce_pass that copies each block it is fed, X + iY at nodes k0 .. k1-1."""

    def __init__(self):
        self.blocks = []

    def feed(self, k0, k1, z):
        assert k0 == sum(len(block) for block in self.blocks) and len(z) == k1 - k0
        self.blocks.append(np.copy(z))


def recurrence_pair(path, bounded=True, weighted=True):
    """(bounded, weighted), each transform's X + iY at every node gathered from the blocks of one
    reduce_pass; a variant not asked for is None, and so is one whose values leave double range."""
    gathers = [Gather() if flag else None for flag in (bounded, weighted)]
    alive = rb.reduce_pass(path, [[g] if g else [] for g in gathers])
    return tuple(np.concatenate(g.blocks) if ok else None for g, ok in zip(gathers, alive))


def bounded_recursive(path):
    """The bounded series of recurrence_pair alone."""
    return recurrence_pair(path, weighted=False)[0]


def oracle_rows(path):
    """compare_oracle_pair on ``path`` against its own recurrence pair, as verify runs it on a head."""
    return rb.compare_oracle_pair(path, recurrence_pair(path))


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


def block_series(check, run):
    """``run()``'s value and each series of ``check.block`` joined over the blocks ``check``
    is fed while it runs: a check keeps only its last block, so its series are gathered here."""
    blocks, feed = [], check.feed
    check.feed = lambda *block: blocks.append(feed(*block) or [np.copy(s) for s in check.block])
    try:
        value = run()
    finally:
        del check.feed
    return value, tuple(np.concatenate(series) for series in zip(*blocks))


def identity_sides(path, z, weighted):
    """(lhs, rhs, residual) of the identity of ``z``, X + iY: IdentityCheck fed ``z`` as one block."""
    check = rb.IdentityCheck(path, weighted)
    _, (lhs, rhs) = block_series(check, lambda: check.feed(0, len(z), z))
    return lhs, z.real if weighted else rhs, check.residual()


def residual_norm(lhs, rhs):
    """max |lhs - rhs| of two node-aligned series."""
    return float(np.max(np.abs(np.subtract(lhs, rhs))))


def whole_identity_sides(path, z, weighted):
    """Both sides of the identity of ``z``, X + iY, with whole-array cumulative sums."""
    if weighted:
        return -ito_cumsum(z.imag[:-1], path), z.real
    correction = riemann_cumsum(path.sigma * path.sigma * z.imag[:-1], path.grid)
    return ito_cumsum(z.real[:-1], path), z.imag + 0.5 * correction


def whole_residual(path, z, weighted):
    """max |lhs - rhs| over the whole series, None once it or a side's last value leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = whole_identity_sides(path, z, weighted)
        residual = float(np.max(np.abs(lhs - rhs)))
    return residual if np.isfinite([lhs[-1], rhs[-1], residual]).all() else None


def modulus(z):
    """sqrt(X^2 + Y^2) of ``z``, X + iY, as the envelope check forms it."""
    return np.hypot(z.real, z.imag)


def whole_bound(z, integrand, grid):
    """The BoundReport of ``z``, X + iY, against the left-sum of |integrand| dt, by np.argmax on
    the whole margin; None once the envelope's total leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = riemann_cumsum(np.abs(integrand), grid)
        margin = modulus(z) - envelope
    if not np.isfinite(envelope[-1]):
        return None
    index = int(np.argmax(margin))
    worst = float(margin[index])
    tolerance = BOUND_TOLERANCE_UNIT * (1.0 + float(envelope[-1]))
    return rb.BoundReport(worst, index, tolerance, worst <= tolerance)


def rotation_sides(path, scaled):
    """(U, lhs, rhs) of RotationCheck(path, scaled): the blocks it reduces on the path's lane of
    reduce_pass, joined."""
    check = verification.RotationCheck(path, scaled)
    return block_series(check, lambda: rb.reduce_pass(path, ([], [], [check])))[1]


def whole_rotation(path, scaled):
    """(U, lhs, rhs) of a rotation identity from whole-array sums, the reference for RotationCheck."""
    if not path.driftless:
        raise ValueError("rotation identities require an identically zero drift")
    prefix_sum = rb.transforms.prefix_sum
    with np.errstate(over="ignore", invalid="ignore"):  # past double range: inf and nan
        if scaled:
            F = np.exp(1j * (path.x - path.x[0]) + whole_half_variance(path))
            rhs = F - 1.0
            U = np.multiply(F, 1j, out=F)
            return U, prefix_sum(path.sigma * U[:-1] * path.dw), rhs
        U = np.exp(1j * (path.x - path.x[0]))
        lhs = 1j * prefix_sum(path.sigma * U[:-1] * path.dw)
        rhs = U - 1.0 + 0.5 * prefix_sum(path.sigma * path.sigma * U[:-1] * path.grid.dt)
    return U, lhs, rhs


def whole_rotation_report(path, scaled):
    """RotationCheck.report() from whole_rotation: (|rhs_N|, bound, |lhs_N - rhs_N|, tolerance),
    or None once U_N, a side, their gap or the bound leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        U, lhs, rhs = whole_rotation(path, scaled)
        if scaled:
            half = whole_half_variance(path)[-1]
            bound = (1.0 + np.sum(path.sigma * np.abs(path.dw))) * np.exp(half)
        else:
            bound = 2.0 + 0.5 * np.sum(path.sigma * path.sigma) * path.grid.dt
        gap = np.abs(lhs[-1] - rhs[-1])
    if not np.isfinite([U[-1], lhs[-1], rhs[-1], gap, bound]).all():
        return None
    lhs, rhs = complex(lhs[-1]), complex(rhs[-1])
    return abs(rhs), float(bound), abs(lhs - rhs), BOUND_TOLERANCE_UNIT * (1.0 + float(bound))


def whole_half_variance(path):
    """I_k / 2, I the left-sum of sigma^2 dt, in one cumsum over the whole path."""
    half = _left_sum(path.sigma * path.sigma * path.grid.dt)
    half *= 0.5
    return half


def whole_nodes(grid):
    """The grid's nodes k dt, node N set to t_max, as one array."""
    nodes = grid.dt * np.arange(grid.n_steps + 1, dtype=np.float64)
    nodes[-1] = grid.t_max
    return nodes


def whole_coefficient(spec, grid, x_left):
    """``spec`` at every left node of ``grid``, x_left being x there, from whole arrays."""
    t = whole_nodes(grid)[:-1]
    if spec.kind == "const":
        return np.full(len(t), spec.params[0])
    if spec.kind == "sin":
        c0, c1, omega = spec.params
        return c0 + c1 * np.sin(omega * t)
    if spec.kind == "state":
        with np.errstate(over="ignore"):
            return spec.params[0] / (1.0 + x_left * x_left)
    return spec.samples


def whole_weighted(path):
    """The weighted transform's X + iY at every node as reduce_pass forms it, from whole arrays:
    each block ends where searchsorted puts its start's I/2 plus RESCALE_THRESHOLD in
    whole_half_variance, at most _RESTART_NODES on, and sums its terms in one cumsum. Past double
    range the values are inf or nan; reduce_pass feeds the nodes before the first of them."""
    transforms = rb.transforms
    half = whole_half_variance(path)
    n_nodes, dt = len(half), path.grid.dt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phase = transforms._reduce_phase(path.x, np.empty(n_nodes))
        rot = np.empty(n_nodes, dtype=complex)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        base = np.conjugate(rot[:-1])
        base *= path.u
        base *= dt
        z = np.empty(n_nodes, dtype=complex)
        partial, rebased, prior = complex(-0.0, -0.0), complex(0.0, -0.0), 0.0
        b0 = 0
        while b0 < n_nodes:
            scale = half[b0]
            k1 = int(np.searchsorted(half, scale + transforms.RESCALE_THRESHOLD, side="right"))
            b1 = max(min(k1, b0 + transforms._RESTART_NODES), b0 + 1)
            rebased, prior = complex(partial + rebased) * np.exp(scale - prior), scale
            j1 = min(b1, n_nodes - 1)
            terms = np.empty(j1 - b0 + 1, dtype=complex)
            terms[0] = complex(-0.0, -0.0)
            terms[1:] = base[b0:j1] * np.exp(-(half[b0:j1] - scale))
            run = np.cumsum(terms)
            partial = run[-1]
            run += rebased
            block = rot[b0:b1] * run[: b1 - b0]
            block *= np.exp(half[b0:b1] - scale)
            block *= 1j
            z[b0:b1] = block
            b0 = b1
    return z


def whole_discount(psi, sigma, grid):
    """exp(-0.5 * (I_N - I_k)) * psi_k from I formed whole, as one array; None once I_N leaves
    double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        variance = _left_sum(sigma * sigma * grid.dt)
    if not np.isfinite(variance[-1]):
        return None
    u = np.subtract(variance[-1], variance[:-1])
    u *= -0.5
    np.exp(u, out=u)
    u *= psi
    return u
