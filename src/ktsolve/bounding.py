"""Range-bounding enclosures for coefficient grids.

Bernstein grids bound their polynomial's range by the convex hull of the
control coefficients; power and Chebyshev grids bound it by a zonotope
centered at the constant coefficient, since every non-constant basis
function maps the canonical square into [-1, 1]. The subdivision solver
only ever asks one question of these sets: does it contain the origin?
contains_origin answers it from the points and generators alone,
without building a hull or a vertex list. The solver asks it only
about patches that a cheaper test on one component of the raw grid
(solver._excluded_by_one_component) leaves open: for Bernstein a sign
test, for the zonotope the axis rows of zonotope_origin_inside, which
that test reproduces exactly, so the two paths never disagree.

Also hosts the basis-dependent conditioning constants (xi, theta) and
the patch-enlargement factor gamma used by the convergence test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import Basis

_BOX_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@dataclass
class ControlHull:
    """Convex hull of the Bernstein control coefficients.

    points holds all (m+1)(n+1) control points, unreduced and in grid
    order; contains_origin and support read the hull off them directly.
    """

    points: np.ndarray = field(repr=False)
    basis: Basis = Basis.BERNSTEIN


@dataclass
class Zonotope:
    """Center plus symmetric generator segments sum_k [-1,1] * g_k."""

    center: np.ndarray = field(repr=False)
    generators: np.ndarray = field(repr=False)
    basis: Basis = Basis.POWER


def bounding_polytope(f):
    """Enclosure of f's range over the canonical square of its basis. A
    zonotope keeps NaN and inf generators, so they keep the origin inside."""
    if f.components != 2:
        raise ValueError("bounding_polytope expects a 2-component system")
    pts = f.coeffs.reshape(-1, 2)
    if f.basis is Basis.BERNSTEIN:
        return ControlHull(pts.copy(), f.basis)
    center = pts[0].copy()
    gens = pts[1:]
    return Zonotope(center, gens[(gens != 0.0).any(axis=1)], f.basis)


def contains_origin(p, tol=0.0):
    """Whether the origin lies within inf-norm distance tol >= 0 of the
    enclosure; the boundary counts as inside.

    The slack is a Minkowski sum with the box [-tol, tol]^2: each control
    point gains the box's four corner offsets, a zonotope gains the
    generators (tol, 0) and (0, tol). The origin is outside conv(P) iff
    for some p_k every cross(p_k, p_j) has one sign and every p_j on the
    line through 0 and p_k lies on p_k's own ray (p_k . p_j > 0): that p_k
    bounds a cone holding P but not 0. Both signs are tried, one per
    extreme ray, so mirroring the points leaves the answer exactly as is.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if isinstance(p, Zonotope):
        gens = np.concatenate((p.generators, tol * np.eye(2))) if tol else p.generators
        return kernels.zonotope_origin_inside(p.center[0], p.center[1], gens)
    pts = (p.points[:, None] + tol * _BOX_CORNERS).reshape(-1, 2) if tol else p.points
    x, y = pts[:, 0], pts[:, 1]
    cross = x[:, None] * y - y[:, None] * x  # cross[k, j] = cross(p_k, p_j)
    one_side = (cross >= 0.0).all(axis=1) | (cross <= 0.0).all(axis=1)
    if not one_side.any():
        return True
    on_own_ray = ((cross != 0.0) | (pts @ pts.T > 0.0)).all(axis=1)
    return not (one_side & on_own_ray).any()


def support(p, direction):
    """Support function h(delta) = max over the polytope of <delta, x>."""
    d = np.asarray(direction, dtype=np.float64)
    if d.shape != (2,) or not np.any(d):
        raise ValueError("direction must be a nonzero 2-vector")
    if isinstance(p, Zonotope):
        val = float(d @ p.center)
        if p.generators.shape[0]:
            val += float(np.sum(np.abs(p.generators @ d)))
        return val
    return float(np.max(p.points @ d))


def bounding_interval(f):
    """Interval enclosing a scalar univariate polynomial's range on the
    canonical interval of its basis."""
    if f.components != 1:
        raise ValueError("bounding_interval expects a scalar polynomial")
    c = f.coeffs[:, 0]
    if f.basis is Basis.BERNSTEIN:
        return float(c.min()), float(c.max())
    spread = float(np.sum(np.abs(c[1:])))
    return float(c[0]) - spread, float(c[0]) + spread


def bounding_interval_bi(basis, grid):
    """Same enclosure for scalar bivariate tensor grids.

    The grid's last two axes are the tensor grid; any leading axes batch
    grids, and lo, hi come back as arrays of the batch shape (two floats
    for a single 2-D grid). |grid| is summed in order over the flattened
    grid, so zero padding leaves max(|lo|, |hi|) bit-identical in every
    basis.
    """
    basis = Basis(basis)
    flat = grid.reshape(grid.shape[:-2] + (-1,))
    if basis is Basis.BERNSTEIN:
        lo, hi = flat.min(axis=-1), flat.max(axis=-1)
    else:
        mags = np.abs(flat)
        spread = np.add.accumulate(mags, axis=-1)[..., -1] - mags[..., 0]
        lo, hi = flat[..., 0] - spread, flat[..., 0] + spread
    if grid.ndim == 2:
        return float(lo), float(hi)
    return lo, hi


def xi_bernstein(n):
    """Growth constant of degree-n Bernstein coefficient bounds
    (inf-norm of the inverse uniform collocation matrix)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    total = 0.0
    for i in range(n + 1):
        prod = 1.0
        for j in range(n + 1):
            if j != i:
                prod *= max(n - j, j) / abs(i - j)
        total += prod
    return total


def theta(basis, m, n):
    """Basis-dependent conditioning constant for a degree-(m, n) grid."""
    basis = Basis(basis)
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if basis is Basis.BERNSTEIN:
        return xi_bernstein(m) * xi_bernstein(n)
    if basis is Basis.CHEBYSHEV:
        return 2.0 * (m + 1) * (n + 1)
    return (m + 1) * (n + 1) * (3.0 ** (m + 1) - 1.0) * (3.0 ** (n + 1) - 1.0) / 2.0


def gamma(th):
    """Patch-enlargement factor 1 / (4*sqrt(theta*(4*theta+1)) - 8*theta).

    Decreases monotonically from about 1.059 at theta = 1 toward 1.
    Evaluated as (4*sqrt(theta*(4*theta+1)) + 8*theta) / (16*theta), the
    same value without the cancellation that the difference suffers for
    large theta.
    """
    if th < 1.0:
        raise ValueError("theta must be >= 1")
    return (4.0 * math.sqrt(th * (4.0 * th + 1.0)) + 8.0 * th) / (16.0 * th)
