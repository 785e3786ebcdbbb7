"""Polynomial bases, coefficient containers, and conversions.

Three bases are supported, each tied to its canonical interval:

* power      monomials t^k on [-1, 1]
* bernstein  Bernstein polynomials B_{k,n} on [0, 1]
* chebyshev  Chebyshev polynomials T_k on [-1, 1]

A coefficient set always denotes the function it expands *on the
canonical interval of its basis*. Conversions between bases therefore
compose the affine map between canonical intervals, so the converted
polynomial traces the same function over the corresponding points:
converting Chebyshev to Bernstein yields g_B with g_B(x) = g_C(2x - 1).

Every conversion goes through power form on [-1, 1]: each other basis
has one leg to it and one leg from it, and a matrix between two
non-power bases is the product of the two legs. The Chebyshev legs are
numpy's cheb2poly and poly2cheb, column by column, with no domain map
since the intervals agree. The Bernstein legs are closed forms on the
shared binomial table kernels.pascal, composed with the Taylor shift
(kernels.power_affine_cols) between [-1, 1] and [0, 1].

Univariate coefficients are stored as (n+1, d) arrays and bivariate
tensor grids as (m+1, n+1, d), with d = 1 for scalar polynomials and
d = 2 for maps into the plane. Any d >= 1 is held and evaluated, one
column per component; the solver stacks a map with its two partials as
one d = 6 grid so that a single evaluation yields F and F'.

Power and Chebyshev grids are evaluated and differentiated by
numpy.polynomial (polyval, chebval, polyder, chebder) along the grid's
leading axes; Bernstein grids by de Casteljau (kernels.decasteljau_cols)
and scaled forward differences.
"""

import enum
import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import numpy.polynomial.polynomial as npoly

from . import kernels

MAX_CONVERT_DEGREE = 20


class DegreeLimitError(ValueError):
    """Raised when a conversion exceeds the supported degree."""


class Basis(enum.Enum):
    POWER = "power"
    BERNSTEIN = "bernstein"
    CHEBYSHEV = "chebyshev"

    @property
    def domain(self):
        """Canonical interval (lo, hi) the basis expands functions on."""
        return (0.0, 1.0) if self is Basis.BERNSTEIN else (-1.0, 1.0)


def _as_coeffs(values, ndim_grid):
    c = np.asarray(values, dtype=np.float64)
    if c.ndim == ndim_grid:
        c = c[..., np.newaxis]
    if c.ndim != ndim_grid + 1 or c.shape[-1] < 1:
        raise ValueError(
            f"coefficients must be ({'n+1' if ndim_grid == 1 else 'm+1, n+1'}[, d>=1]), "
            f"got shape {c.shape}"
        )
    if min(c.shape[:-1]) < 1:
        raise ValueError("empty coefficient grid")
    return np.ascontiguousarray(c)


@dataclass
class UnivariatePolynomial:
    """Coefficients c_0..c_n in one basis; d components per coefficient."""

    basis: Basis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.basis = Basis(self.basis)
        self.coeffs = _as_coeffs(self.coeffs, 1)

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    @property
    def components(self):
        return self.coeffs.shape[1]


@dataclass
class BivariateSystem:
    """Tensor-product coefficient grid c_ij in one basis.

    Denotes (u, v) -> sum_ij c_ij * phi_i(u) * phi_j(v) on the canonical
    square of the basis; c_ij has d >= 1 components (d = 2 for a system,
    which is what the solver, bounding_polytope and the CLI accept).
    """

    basis: Basis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.basis = Basis(self.basis)
        self.coeffs = _as_coeffs(self.coeffs, 2)

    @property
    def degree_u(self):
        return self.coeffs.shape[0] - 1

    @property
    def degree_v(self):
        return self.coeffs.shape[1] - 1

    @property
    def components(self):
        return self.coeffs.shape[2]

    def max_coeff_norm(self):
        """max_ij |c_ij| over all components (residual scale for Newton)."""
        return float(np.max(np.abs(self.coeffs)))


_EVAL_COLS = {
    Basis.POWER: npoly.polyval,
    Basis.BERNSTEIN: kernels.decasteljau_cols,
    Basis.CHEBYSHEV: ncheb.chebval,
}


def eval_uni(f, t):
    """Value of a univariate polynomial at t; float for d = 1, else (d,)."""
    out = _EVAL_COLS[f.basis](t, f.coeffs)
    return float(out[0]) if f.components == 1 else out


def eval_bi(f, u, v):
    """Value of a bivariate grid at (u, v); float for d = 1, else (d,)."""
    eval_cols = _EVAL_COLS[f.basis]
    out = eval_cols(v, eval_cols(u, f.coeffs))
    return float(out[0]) if f.components == 1 else out


def _derivative(basis, c, axis):
    """Differentiate c along axis; that axis shrinks by one, to one row at
    degree 0 (the zero polynomial)."""
    n = c.shape[axis] - 1
    if n == 0:
        return np.zeros_like(c)
    if basis is Basis.POWER:
        return npoly.polyder(c, axis=axis)
    if basis is Basis.CHEBYSHEV:
        return ncheb.chebder(c, axis=axis)
    return n * np.diff(c, axis=axis)


def derivative_uni(f):
    return UnivariatePolynomial(f.basis, _derivative(f.basis, f.coeffs, 0))


def derivative_bi(f, axis):
    """Partial derivative along axis 'u' (0) or 'v' (1), same basis."""
    if axis not in ("u", 0, "v", 1):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    return BivariateSystem(f.basis, _derivative(f.basis, f.coeffs, 0 if axis in ("u", 0) else 1))


def monomial_to_chebyshev(k):
    """Chebyshev coefficients d_0..d_k of the monomial t^k on [-1, 1].

    All entries are nonnegative dyadic rationals summing to 1.
    """
    k = _check_degree(k)
    return ncheb.poly2cheb(np.eye(k + 1)[k])


def _unit_columns(convert, n):
    """Matrix whose column k is convert(e_k), k = 0..n, for a numpy
    conversion that keeps degree."""
    mat = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        mat[: k + 1, k] = convert(np.eye(k + 1)[k])
    return mat


def _to_power(basis, n):
    """Matrix taking degree-n Chebyshev or Bernstein coefficients to power
    coefficients on [-1, 1]."""
    if basis is Basis.CHEBYSHEV:
        return _unit_columns(ncheb.cheb2poly, n)
    # x^k coefficient of B_{i,n}(x) on [0, 1]: C(n, k) C(k, i) (-1)^(k - i);
    # then x = (t + 1) / 2
    binom = kernels.pascal(n + 1).T
    sign = (-1.0) ** np.add.outer(np.arange(n + 1), np.arange(n + 1))
    unit = binom[n][:, None] * binom * sign
    return kernels.power_affine_cols(np.eye(n + 1), 0.5, 0.5) @ unit


def _from_power(basis, n):
    """Matrix taking degree-n power coefficients on [-1, 1] to Chebyshev or
    Bernstein coefficients."""
    if basis is Basis.CHEBYSHEV:
        return _unit_columns(ncheb.poly2cheb, n)
    # t = 2x - 1 onto [0, 1], then x^k = sum_i C(i, k) / C(n, k) B_{i,n}(x)
    binom = kernels.pascal(n + 1).T
    # C order: a transposed operand can change the order BLAS sums in
    unit = np.ascontiguousarray(binom / binom[n])
    return unit @ kernels.power_affine_cols(np.eye(n + 1), 2.0, -1.0)


def _check_degree(n):
    """n as an int; ValueError unless it is an integer >= 0 (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"degree must be an integer >= 0, got {n!r}")
    return int(n)


def conversion_matrix(source, target, n):
    """Change-of-basis matrix M for degree n, target_coeffs = M @
    source_coeffs, composing the affine map between the two canonical
    intervals where they differ.

    Built once per (source, target, n) per process: every caller gets the
    same read-only array, so copy it before writing to it.
    """
    source, target = Basis(source), Basis(target)
    n = _check_degree(n)
    if n > MAX_CONVERT_DEGREE:
        raise DegreeLimitError(
            f"conversion supports degree <= {MAX_CONVERT_DEGREE}, got {n}"
        )
    return _conversion_matrix(source, target, n)


@cache
def _conversion_matrix(source, target, n):
    if source is target:
        mat = np.eye(n + 1)
    elif source is Basis.POWER:
        mat = _from_power(target, n)
    elif target is Basis.POWER:
        mat = _to_power(source, n)
    else:
        to_power = _conversion_matrix(source, Basis.POWER, n)
        mat = _conversion_matrix(Basis.POWER, target, n) @ to_power
    mat.setflags(write=False)
    return mat


def convert_uni(f, target):
    """Re-express a univariate polynomial in another basis (same function
    traced over corresponding canonical-domain points)."""
    target = Basis(target)
    if target is f.basis:
        return UnivariatePolynomial(f.basis, f.coeffs.copy())
    mat = conversion_matrix(f.basis, target, f.degree)
    return UnivariatePolynomial(target, mat @ f.coeffs)


def convert(f, target):
    """Re-express a bivariate grid in another basis, axis u then axis v."""
    target = Basis(target)
    if target is f.basis:
        return BivariateSystem(f.basis, f.coeffs.copy())
    m1, n1, d = f.coeffs.shape
    mu = conversion_matrix(f.basis, target, m1 - 1)
    mv = conversion_matrix(f.basis, target, n1 - 1)
    c = np.tensordot(mu, f.coeffs, axes=(1, 0))
    c = np.swapaxes(np.tensordot(mv, np.swapaxes(c, 0, 1), axes=(1, 0)), 0, 1)
    return BivariateSystem(target, c)


def bernstein_product(f, g):
    """Product of two scalar Bernstein polynomials, degree n + n'.

    c_i = sum_k C(n, k) C(n', i - k) a_k b_(i-k) / C(n + n', i): one
    convolution of the binomially scaled coefficient vectors.
    """
    if f.basis is not Basis.BERNSTEIN or g.basis is not Basis.BERNSTEIN:
        raise ValueError("bernstein_product requires Bernstein-basis inputs")
    if f.components != 1 or g.components != 1:
        raise ValueError("bernstein_product is defined for scalar polynomials")
    n, n2 = f.degree, g.degree
    binom = kernels.pascal(n + n2 + 1)
    a = f.coeffs[:, 0] * binom[: n + 1, n]
    b = g.coeffs[:, 0] * binom[: n2 + 1, n2]
    return UnivariatePolynomial(Basis.BERNSTEIN, np.convolve(a, b) / binom[:, n + n2])


def chebyshev_nodes(n):
    """The n Chebyshev points cos((2k-1)pi/(2n)), k = 1..n (descending)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"node count must be an integer >= 1, got {n!r}")
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))


def basis_matrix(basis, degree, ts):
    """Design matrix: column k holds basis function k evaluated at ts."""
    basis, degree = Basis(basis), _check_degree(degree)
    ts = np.asarray(ts, dtype=np.float64)
    if basis is Basis.POWER:
        return np.vander(ts, degree + 1, increasing=True)
    if basis is Basis.CHEBYSHEV:
        return np.polynomial.chebyshev.chebvander(ts, degree)
    binom = kernels.pascal(degree + 1)[:, degree]
    cols = np.empty((ts.shape[0], degree + 1))
    for k in range(degree + 1):
        cols[:, k] = binom[k] * ts**k * (1.0 - ts) ** (degree - k)
    return cols


def eval_bi_grid(f, us, vs):
    """Vectorized evaluation over a tensor grid; (len(us), len(vs), d)."""
    bu = basis_matrix(f.basis, f.degree_u, us)
    bv = basis_matrix(f.basis, f.degree_v, vs)
    return np.einsum("ui,ijd,vj->uvd", bu, f.coeffs, bv)
