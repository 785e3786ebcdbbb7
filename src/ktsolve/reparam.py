"""Restriction of coefficient grids to square subpatches.

reparametrize(f, X) produces a same-basis grid for the composition
f(phi(.)) where phi maps the basis' canonical square affinely onto the
patch X, axis by axis. X is given in the same canonical coordinates the
grid itself lives in: [-1,1]^2 for power/Chebyshev, [0,1]^2 for
Bernstein. Coefficient-based range enclosures of the restricted grid
then bound f's range over X, which is what drives the subdivision
solver's exclusion and convergence tests.

The solver restricts once, to the whole square, which returns every
coefficient unchanged in every basis (a -0.0 comes back as 0.0). Each
patch carries its grid; subdivide_grid derives the children's grids
from it with basis.halving_matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import Basis, BivariateSystem, _unchecked

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class Patch:
    """Axis-aligned square: finite center (u0, v0), finite half-width r > 0."""

    center: tuple
    half_width: float

    def __post_init__(self):
        u0, v0 = self.center
        u0, v0, r = float(u0), float(v0), float(self.half_width)
        object.__setattr__(self, "center", (u0, v0))
        object.__setattr__(self, "half_width", r)
        if not (0.0 < r < math.inf and math.isfinite(u0) and math.isfinite(v0)):
            raise ValueError(f"patch needs a finite center and half-width > 0, got {self}")

    def bounds(self):
        (u0, v0), r = self.center, self.half_width
        return u0 - r, u0 + r, v0 - r, v0 + r

    def subdivide(self):
        """Four half-width children, fixed (-,-), (-,+), (+,-), (+,+) order,
        checked here at once rather than by __post_init__ one by one."""
        (u0, v0), h = self.center, self.half_width / 2.0
        us, vs = (u0 - h, u0 + h), (v0 - h, v0 + h)
        if not (h > 0.0 and all(map(math.isfinite, us + vs))):
            raise ValueError(f"the children of {self} need a finite center and half-width > 0")
        return tuple(_unchecked(Patch, center=(u, v), half_width=h) for u in us for v in vs)


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
    # C(n, i) / C(n, k) folded in: on the whole interval mat is the identity
    return kernels.mat_apply_cols(mat * binom / binom[:, None], cols)


def reparametrize(f, x, allow_outside=False):
    """Same-basis coefficients of f restricted to the square patch x.

    The patch must sit inside the basis' canonical square (tiny slack)
    unless allow_outside is set; enclosures computed from the result
    remain valid on x either way, since the substitution is exact.
    """
    lo, hi = f.basis.domain
    ulo, uhi, vlo, vhi = x.bounds()
    inside = lo - _DOMAIN_SLACK <= min(ulo, vlo) and max(uhi, vhi) <= hi + _DOMAIN_SLACK
    if not (inside or allow_outside):
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


def subdivide_grid(grid, halve_u, halve_v):
    """Restrictions of a grid (m+1, n+1, d) to the four half-width squares
    of its square, stacked in Patch.subdivide order (-,-), (-,+), (+,-),
    (+,+), given each axis' basis.halving_matrices.
    """
    m1, n1, d = grid.shape
    halves = (halve_u @ grid.reshape(m1, n1 * d)).reshape(2, 1, m1, n1, d)
    # batched over (u side, v side, row i): halve_v[b] @ halves[a, i]
    return (halve_v[None, :, None] @ halves).reshape(4, m1, n1, d)
