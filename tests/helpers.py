"""Shared test utilities: system builders and the grid+Newton zero oracle."""

import os

import numpy as np

import ktsolve
from ktsolve import Basis, BivariateSystem, kernels, newton
from ktsolve.basis import eval_bi, eval_bi_grid


def package_root():
    """Directory holding the ktsolve package this process imported, so a
    child interpreter finds it from a source checkout or an install."""
    return os.path.dirname(os.path.dirname(ktsolve.__file__))


def unit_power_system(grid):
    """Power system whose unit-square map equals the given power grid.

    The input grid is read as a polynomial in unit-square coordinates
    (x, y); substituting t = 2x - 1 per axis yields the canonical-domain
    coefficients that denote the same map.
    """
    c = np.asarray(grid, dtype=np.float64)
    if c.ndim == 2:
        c = c[..., np.newaxis]
    m1, n1, d = c.shape
    cols = kernels.power_affine_cols(
        np.ascontiguousarray(c.reshape(m1, n1 * d)), 0.5, 0.5
    )
    c = np.ascontiguousarray(np.swapaxes(cols.reshape(m1, n1, d), 0, 1))
    cols = kernels.power_affine_cols(
        np.ascontiguousarray(c.reshape(n1, m1 * d)), 0.5, 0.5
    )
    return BivariateSystem(Basis.POWER, np.swapaxes(cols.reshape(n1, m1, d), 0, 1))


def unit_coords(basis, x):
    """Map unit-square coordinates to the basis' canonical coordinates."""
    lo, hi = Basis(basis).domain
    return lo + (hi - lo) * np.asarray(x, dtype=np.float64)


def eval_map(f, x, y):
    """The solver-frame map F at unit-square (x, y)."""
    t = unit_coords(f.basis, [x, y])
    return eval_bi(f, t[0], t[1])


def eval_map_grid(f, xs, ys):
    """F over a unit-square tensor grid, shape (len(xs), len(ys), d)."""
    return eval_bi_grid(f, unit_coords(f.basis, xs), unit_coords(f.basis, ys))


def random_system(rng, basis, m, n, components=2):
    return BivariateSystem(basis, rng.standard_normal((m + 1, n + 1, components)))


def protocol_system(seed):
    """One random Chebyshev system following the study protocol."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    return BivariateSystem(Basis.CHEBYSHEV, rng.standard_normal((k + 1, k + 1, 2)))


def reference_zeros(f, grid_n=201, dedup=1e-6, slack=1e-9):
    """Independent zero oracle: dense grid scan plus Newton polish.

    Seeds Newton from every cell whose corners show a sign change in
    both components and from every grid-local minimum of ||F||_inf,
    keeps converged points inside the (slack-inflated) unit square, and
    deduplicates. Returns zeros sorted lexicographically.
    """
    xs = np.linspace(0.0, 1.0, grid_n)
    vals = eval_map_grid(f, xs, xs)

    def straddles(comp):
        c = vals[..., comp]
        corners = np.stack([c[:-1, :-1], c[1:, :-1], c[:-1, 1:], c[1:, 1:]])
        return (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)

    seeds = []
    cell = np.argwhere(straddles(0) & straddles(1))
    h = xs[1] - xs[0]
    for i, j in cell:
        seeds.append((xs[i] + h / 2.0, xs[j] + h / 2.0))

    norm = np.max(np.abs(vals), axis=2)
    padded = np.pad(norm, 1, constant_values=np.inf)
    neighborhood = np.stack(
        [
            padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)
        ]
    )
    local_min = norm <= neighborhood.min(axis=0)
    for i, j in np.argwhere(local_min):
        seeds.append((xs[i], xs[j]))

    found = []
    for seed in seeds:
        res = newton(f, seed)
        if res is None:
            continue
        x = res[0]
        if not (-slack <= x[0] <= 1.0 + slack and -slack <= x[1] <= 1.0 + slack):
            continue
        if all(np.max(np.abs(x - np.asarray(z))) > dedup for z in found):
            found.append((float(x[0]), float(x[1])))
    return sorted(found)


def sorted_zero_locations(report):
    locs = [np.asarray(z.location, dtype=float) for z in report.zeros]
    return sorted(locs, key=lambda p: (p[0], p[1]))
