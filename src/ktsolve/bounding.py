"""Range-bounding enclosures for coefficient grids.

Bernstein grids bound their polynomial's range by the convex hull of the
control coefficients; power and Chebyshev grids bound it by a zonotope
centered at the constant coefficient, since every non-constant basis
function maps the canonical square into [-1, 1]. The subdivision solver
only ever asks one question of these sets: does it contain the origin?

Also hosts the basis-dependent conditioning constants (xi, theta) and
the patch-enlargement factor gamma used by the convergence test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import Basis

_DEDUP_TOL = 1e-12


@dataclass
class ControlHull:
    """Convex hull of Bernstein control coefficients, vertices CCW."""

    vertices: np.ndarray = field(repr=False)
    basis: Basis = Basis.BERNSTEIN


@dataclass
class Zonotope:
    """Center plus symmetric generator segments sum_k [-1,1] * g_k."""

    center: np.ndarray = field(repr=False)
    generators: np.ndarray = field(repr=False)
    basis: Basis = Basis.POWER


def _convex_hull(points):
    """Andrew monotone chain; returns CCW vertices, collinear points dropped."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    kept = [pts[0]]
    for p in pts[1:]:
        q = kept[-1]
        if max(abs(p[0] - q[0]), abs(p[1] - q[1])) > _DEDUP_TOL:
            kept.append(p)
    pts = np.array(kept)
    if pts.shape[0] <= 2:
        return pts

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                ax, ay = chain[-2]
                bx, by = chain[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append((p[0], p[1]))
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points coincide after dedup
        hull = lower
    return np.array(hull)


def bounding_polytope(f):
    """Enclosure of f's range over the canonical square of its basis."""
    if f.components != 2:
        raise ValueError("bounding_polytope expects a 2-component system")
    pts = f.coeffs.reshape(-1, 2)
    if f.basis is Basis.BERNSTEIN:
        return ControlHull(_convex_hull(pts), f.basis)
    center = pts[0].copy()
    gens = pts[1:]
    keep = np.abs(gens).max(axis=1) > 0.0
    return Zonotope(center, gens[keep], f.basis)


def _segment_distance(a, b, tol):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*a)) <= tol
    s = min(1.0, max(0.0, float(-(a @ ab)) / denom))
    closest = a + s * ab
    return float(np.hypot(*closest)) <= tol


def contains_origin(p, tol=0.0):
    """Whether the origin lies in the polytope (boundary counts as inside)."""
    if isinstance(p, Zonotope):
        return kernels.zonotope_origin_inside(p.center[0], p.center[1], p.generators, tol)
    v = p.vertices
    if v.shape[0] == 1:
        return float(np.hypot(*v[0])) <= tol
    if v.shape[0] == 2:
        return _segment_distance(v[0], v[1], tol)
    for i in range(v.shape[0]):
        ax, ay = v[i]
        bx, by = v[(i + 1) % v.shape[0]]
        if (bx - ax) * (-ay) - (by - ay) * (-ax) < -tol:
            return False
    return True


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
    return float(np.max(p.vertices @ d))


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
    """Same enclosure for a scalar bivariate tensor grid."""
    basis = Basis(basis)
    if basis is Basis.BERNSTEIN:
        return float(grid.min()), float(grid.max())
    spread = float(np.sum(np.abs(grid))) - abs(float(grid[0, 0]))
    return float(grid[0, 0]) - spread, float(grid[0, 0]) + spread


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
