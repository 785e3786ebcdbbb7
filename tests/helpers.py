"""Shared test utilities: system builders and the grid+Newton zero oracle."""

import math
import os
from collections import deque

import numpy as np
from numpy.polynomial import chebyshev, polynomial

import ktsolve
from ktsolve import Basis, BivariateSystem, kernels, solver
from ktsolve.basis import eval_bi, eval_bi_grid, halving_matrices
from ktsolve.reparam import Patch, reparametrize, subdivide_grid

ORACLE_NEWTON_STEPS = 50


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


def _unit_vander(basis, x, n):
    """Basis functions 0..n of the unit-square map at points x, shape (len(x), n + 1).

    Power and Chebyshev come from numpy.polynomial at t = 2x - 1; Bernstein
    is the explicit sum C(n, k) x^k (1 - x)^(n - k).
    """
    x = np.asarray(x, dtype=np.float64)
    if basis is Basis.BERNSTEIN:
        k = np.arange(n + 1)
        binom = np.array([math.comb(n, i) for i in k], dtype=np.float64)
        return binom * x[:, None] ** k * (1.0 - x[:, None]) ** (n - k)
    vander = polynomial.polyvander if basis is Basis.POWER else chebyshev.chebvander
    return vander(2.0 * x - 1.0, n)


def _unit_partial(basis, c, axis):
    """Coefficient grid of the unit-square map's partial along axis."""
    if basis is Basis.BERNSTEIN:
        n = c.shape[axis] - 1
        return n * np.diff(c, axis=axis) if n else np.zeros_like(c)
    der = polynomial.polyder if basis is Basis.POWER else chebyshev.chebder
    return der(c, axis=axis, scl=2.0)


def _oracle_map(f):
    """F and F' of f's unit-square map at points p of shape (P, 2), as
    values (P, 2) and Jacobians (P, 2, 2), without ktsolve's evaluators."""
    c = np.asarray(f.coeffs, dtype=np.float64)
    grids = (c, _unit_partial(f.basis, c, 0), _unit_partial(f.basis, c, 1))

    def at(p):
        val, du, dv = (
            np.einsum(
                "pi,ijd,pj->pd",
                _unit_vander(f.basis, p[:, 0], g.shape[0] - 1),
                g,
                _unit_vander(f.basis, p[:, 1], g.shape[1] - 1),
            )
            for g in grids
        )
        return val, np.stack([du, dv], axis=2)

    return at


def reference_zeros(f, grid_n=201, dedup=1e-6, slack=1e-9):
    """Independent zero oracle: dense grid scan plus Newton polish.

    Seeds Newton from every cell whose corners show a sign change in
    both components and from every grid-local minimum of ||F||_inf,
    keeps converged points inside the (slack-inflated) unit square, and
    deduplicates. Returns zeros sorted lexicographically. F, F' and the
    Newton loop are the oracle's own (NumPy), so it shares no evaluation
    or iteration code with the solver; Newton stops once
    max|F| <= 1e-12 max|c_ij|.
    """
    xs = np.linspace(0.0, 1.0, grid_n)
    c = np.asarray(f.coeffs, dtype=np.float64)
    vals = np.einsum(
        "ui,ijd,vj->uvd",
        _unit_vander(f.basis, xs, c.shape[0] - 1),
        c,
        _unit_vander(f.basis, xs, c.shape[1] - 1),
    )

    def straddles(comp):
        z = vals[..., comp]
        corners = np.stack([z[:-1, :-1], z[1:, :-1], z[:-1, 1:], z[1:, 1:]])
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

    at = _oracle_map(f)
    tol = 1e-12 * float(np.max(np.abs(c)))
    p = np.array(seeds, dtype=np.float64).reshape(-1, 2)
    converged = []
    with np.errstate(all="ignore"):
        for _ in range(ORACLE_NEWTON_STEPS + 1):
            val, jac = at(p)
            done = np.max(np.abs(val), axis=1) <= tol
            converged.extend(p[done])
            p, val, jac = p[~done], val[~done], jac[~done]
            if not len(p):
                break
            # Newton step J^-1 F by Cramer's rule; a singular J gives a non-finite step
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            step = np.stack(
                [
                    jac[:, 1, 1] * val[:, 0] - jac[:, 0, 1] * val[:, 1],
                    jac[:, 0, 0] * val[:, 1] - jac[:, 1, 0] * val[:, 0],
                ],
                axis=1,
            ) / det[:, None]
            p = p - step
            p = p[np.all(np.isfinite(p), axis=1)]

    found = []
    for x in converged:
        if not (-slack <= x[0] <= 1.0 + slack and -slack <= x[1] <= 1.0 + slack):
            continue
        if all(np.max(np.abs(x - np.asarray(z))) > dedup for z in found):
            found.append((float(x[0]), float(x[1])))
    return sorted(found)


def kantorovich_patches(f):
    """Every patch kts_solve(f) hands to kantorovich_test, in the order it
    does, recorded by wrapping the solver's binding for that one solve."""
    patches = []
    test = solver.kantorovich_test

    def recording(g, x, **kwargs):
        patches.append(x)
        return test(g, x, **kwargs)

    solver.kantorovich_test = recording
    try:
        solver.kts_solve(f)
    finally:
        solver.kantorovich_test = test
    return patches


def certified_balls(f):
    """kts_solve(f)'s report, and the arguments (patch, outcome, zero) of
    every rho_star call it makes, in order, recorded by wrapping the
    solver's binding for that one solve."""
    calls = []
    radius = solver.rho_star

    def recording(x, outcome, zero):
        calls.append((x, outcome, zero))
        return radius(x, outcome, zero)

    solver.rho_star = recording
    try:
        report = solver.kts_solve(f)
    finally:
        solver.rho_star = radius
    return report, calls


def sorted_zero_locations(report):
    locs = [np.asarray(z.location, dtype=float) for z in report.zeros]
    return sorted(locs, key=lambda p: (p[0], p[1]))


def reference_kts_solve(f, config=None):
    """kts_solve as a queue of single patches: the search it replaced,
    which took one patch at a time from a FIFO queue and decided it
    alone. Every decision goes through the solver's own tests, called
    per patch in FIFO order, and logs the solver's lines, so
    kts_solve(f, config) must give the same report and the same log."""
    cfg = config or solver.SolverConfig()
    f = solver._unit_scaled(f)
    fr = solver._Frame(f)
    halve_u = halving_matrices(f.basis, f.degree_u)
    halve_v = halving_matrices(f.basis, f.degree_v)
    root = Patch((0.5, 0.5), 0.5)
    queue = deque([(root, reparametrize(f, fr.canon_patch(root)).coeffs)])
    balls, zeros, unresolved = [], [], []
    examined = excluded = certified = subsumed = 0
    smallest_width = math.inf

    def covered(patch):
        (u0, v0), hw = patch.center, patch.half_width
        return any(max(abs(u0 - bu), abs(v0 - bv)) + hw <= r for bu, bv, r in balls)

    while queue:
        patch, grid = queue.popleft()
        examined += 1
        smallest_width = min(smallest_width, 2.0 * patch.half_width)
        if covered(patch):
            subsumed += 1
            solver.log.debug("patch %s subsumed by certified ball", patch)
            continue
        if solver._excluded_by_one_component(f.basis, grid) or solver.exclusion_test(
            f, patch, _grid=grid
        ):
            excluded += 1
            solver.log.debug("patch %s excluded", patch)
            continue
        outcome = solver.kantorovich_test(f, patch, _frame=fr)
        if outcome.passed:
            certified += 1
            result = solver.newton(f, patch.center, cfg, _frame=fr)
            if result is not None:
                location, iterations = result
                lu, lv = float(location[0]), float(location[1])
                if not any(
                    max(abs(lu - bu), abs(lv - bv)) <= max(r, 1e-9) for bu, bv, r in balls
                ):
                    radius, omega = solver.rho_star(patch, outcome, (lu, lv))
                    balls.append((lu, lv, radius))
                    zeros.append(solver.ZeroRecord(location, radius, omega, iterations))
                    solver.log.info(
                        "zero at (%.12g, %.12g), uniqueness radius %.3g",
                        location[0],
                        location[1],
                        radius,
                    )
        if patch.half_width / 2.0 >= cfg.min_half_width:
            queue.extend(zip(patch.subdivide(), subdivide_grid(grid, halve_u, halve_v)))
        elif covered(patch):
            subsumed += 1
        else:
            unresolved.append(patch)

    if unresolved:
        solver.log.warning(
            "%d patches hit the width floor without certification", len(unresolved)
        )
    lo, hi = -solver._REPORT_SLACK, 1.0 + solver._REPORT_SLACK
    return solver.SolveReport(
        zeros=[z for z in zeros if lo <= z.location[0] <= hi and lo <= z.location[1] <= hi],
        patches_examined=examined,
        smallest_width=smallest_width,
        exclusion_passes=excluded,
        kantorovich_passes=certified,
        skipped_subsumed=subsumed,
        unresolved=unresolved,
    )
