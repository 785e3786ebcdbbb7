"""Restriction of coefficient grids to square subpatches.

reparametrize(f, X) produces a same-basis grid for the composition
f(phi(.)) where phi maps the basis' canonical square affinely onto the
patch X, axis by axis. X is given in the same canonical coordinates the
grid itself lives in: [-1,1]^2 for power/Chebyshev, [0,1]^2 for
Bernstein. Coefficient-based range enclosures of the restricted grid
then bound f's range over X, which is what drives the subdivision
solver's exclusion and convergence tests.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import Basis, BivariateSystem

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


@dataclass
class ChebAffineMatrix:
    """Rows: Chebyshev coefficients of T_i(a*t + b), lower triangular."""

    a: float
    b: float
    rows: np.ndarray = field(repr=False)


def cheb_affine(a, b, n):
    """Expansion matrix of the affine argument substitution t -> a*t + b."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return ChebAffineMatrix(float(a), float(b), kernels.cheb_affine_rows(n, a, b))


def _axis_restrict(basis, cols, center, r):
    """Restrict columns (degree+1, K) to [center-r, center+r]."""
    if basis is Basis.POWER:
        return kernels.power_affine_cols(cols, r, center)
    if basis is Basis.CHEBYSHEV:
        lam = kernels.cheb_affine_rows(cols.shape[0] - 1, r, center)
        return kernels.mat_t_apply_cols(lam, cols)
    n = cols.shape[0] - 1
    binom = np.ones(n + 1)
    for i in range(1, n + 1):
        binom[i] = binom[i - 1] * (n - i + 1) / i
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
