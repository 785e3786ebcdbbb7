"""Restriction of coefficient grids to square subpatches.

reparametrize(f, X) produces a same-basis grid for the composition
f(phi(.)) where phi maps the basis' canonical square affinely onto the
patch X, axis by axis. X is given in the same canonical coordinates the
grid itself lives in: [-1,1]^2 for power/Chebyshev, [0,1]^2 for
Bernstein. Coefficient-based range enclosures of the restricted grid
then bound f's range over X, which is what drives the subdivision
solver's exclusion and convergence tests.

The solver restricts only once, to the whole square. Each of its patches
carries its restricted grid, and subdivide_grid derives the four
children's grids from it with the fixed per-axis halving_matrices.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kernels
from .basis import Basis, BivariateSystem, _check_degree

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class Patch:
    """Axis-aligned square: center (u0, v0), half-width r > 0."""

    center: tuple
    half_width: float

    def __post_init__(self):
        u0, v0 = self.center
        object.__setattr__(self, "center", (float(u0), float(v0)))
        object.__setattr__(self, "half_width", float(self.half_width))
        if not self.half_width > 0.0:
            raise ValueError("patch half-width must be positive")

    def bounds(self):
        (u0, v0), r = self.center, self.half_width
        return u0 - r, u0 + r, v0 - r, v0 + r

    def subdivide(self):
        """Four half-width children, fixed (-,-), (-,+), (+,-), (+,+) order."""
        (u0, v0), h = self.center, self.half_width / 2.0
        return tuple(
            Patch((u0 + du * h, v0 + dv * h), h)
            for du, dv in ((-1, -1), (-1, 1), (1, -1), (1, 1))
        )


def _axis_restrict(basis, cols, center, r):
    """Restrict columns (degree+1, K) to [center-r, center+r]."""
    if basis is Basis.POWER:
        return kernels.power_affine_cols(cols, r, center)
    if basis is Basis.CHEBYSHEV:
        lam = kernels.cheb_affine_rows(cols.shape[0] - 1, r, center)
        return kernels.mat_t_apply_cols(lam, cols)
    n = cols.shape[0] - 1
    binom = kernels.pascal(n + 1)[:, n]
    mat = kernels.bernstein_patch_matrix(
        n, center + r, center - r, 1.0 - center - r, 1.0 - center + r
    )
    return kernels.mat_apply_cols(mat, cols * binom[:, None]) / binom[:, None]


def reparametrize(f, x, allow_outside=False):
    """Same-basis coefficients of f restricted to the square patch x.

    The patch must sit inside the basis' canonical square (tiny slack)
    unless allow_outside is set; enclosures computed from the result
    remain valid on x either way, since the substitution is exact.
    """
    lo, hi = f.basis.domain
    ulo, uhi, vlo, vhi = x.bounds()
    if not allow_outside:
        if (
            ulo < lo - _DOMAIN_SLACK
            or vlo < lo - _DOMAIN_SLACK
            or uhi > hi + _DOMAIN_SLACK
            or vhi > hi + _DOMAIN_SLACK
        ):
            raise ValueError(
                f"patch {x} leaves the canonical square [{lo}, {hi}]^2; "
                "pass allow_outside=True to restrict anyway"
            )
    m1, n1, d = f.coeffs.shape
    (u0, v0), r = x.center, x.half_width
    cols = _axis_restrict(f.basis, f.coeffs.reshape(m1, n1 * d), u0, r)
    grid = np.swapaxes(cols.reshape(m1, n1, d), 0, 1)
    cols = _axis_restrict(f.basis, grid.reshape(n1, m1 * d), v0, r)
    return BivariateSystem(f.basis, np.swapaxes(cols.reshape(n1, m1, d), 0, 1))


def halving_matrices(basis, n):
    """Matrices taking degree-n coefficient columns on the canonical
    interval to their lower and upper half, stacked as (2, n+1, n+1).

    Each is the restriction of the identity, so H @ cols restricts cols.
    Built once per (basis, n) per process: every caller gets the same
    read-only array, so copy it before writing to it.
    """
    return _halving_matrices(Basis(basis), _check_degree(n))


@cache
def _halving_matrices(basis, n):
    lo, hi = basis.domain
    q = (hi - lo) / 4.0
    eye = np.eye(n + 1)
    halves = np.stack(
        (_axis_restrict(basis, eye, lo + q, q), _axis_restrict(basis, eye, hi - q, q))
    )
    halves.setflags(write=False)
    return halves


def subdivide_grid(grid, halve_u, halve_v):
    """Restrictions of a grid (m+1, n+1, d) to the four half-width squares
    of its square, stacked in Patch.subdivide order (-,-), (-,+), (+,-),
    (+,+), given each axis' halving_matrices.
    """
    m1, n1, d = grid.shape
    halves = (halve_u @ grid.reshape(m1, n1 * d)).reshape(2, 1, m1, n1, d)
    # batched over (u side, v side, row i): halve_v[b] @ halves[a, i]
    return (halve_v[None, :, None] @ halves).reshape(4, m1, n1, d)
