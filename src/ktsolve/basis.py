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

Every basis matrix goes through power form on [-1, 1], where each other
basis has an integer leg to it and one from it. A conversion matrix is
from_power(target) . to_power(source), and a halving matrix (to one half
of the canonical interval) is from_power(b) . H . to_power(b), H the
power-form map t -> (t -+ 1) / 2. Each is multiplied out in Python
integers and divided once, so it is its exact value rounded once.

Univariate coefficients are stored as (n+1, d) arrays and bivariate
tensor grids as (m+1, n+1, d), with d = 1 for scalar polynomials and
d = 2 for maps into the plane. Any d >= 1 is held and evaluated, one
column per component; the solver stacks a map with its first and second
partials as one d = 12 grid so that a single evaluation yields F, F' and
F'', at one point or at an array of points.

Power and Chebyshev grids are evaluated and differentiated by
numpy.polynomial (polyval, chebval, polyder, chebder) along the grid's
leading axes; Bernstein grids by de Casteljau (kernels.decasteljau_cols)
and scaled forward differences.
"""

import enum
import math
import numbers
import operator
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


def _unchecked(cls, **fields):
    """Dataclass cls holding fields as given, skipping __post_init__: for
    values the package built that already pass its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
    """Value of a bivariate grid at (u, v); float for d = 1, else (d,).

    u and v may also be 1-D arrays of P points, giving (P, d) values.
    polyval, chebval and de Casteljau work elementwise on the points, so
    each row has the bits of a call at that point alone.
    """
    eval_cols = _EVAL_COLS[f.basis]
    out = eval_cols(v, eval_cols(u, f.coeffs), tensor=False)
    if np.ndim(u):
        return out.T
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
    """Chebyshev coefficients d_0..d_k of the monomial t^k on [-1, 1]: a copy
    of column k of conversion_matrix(POWER, CHEBYSHEV, k), so k <= 20.

    All entries are nonnegative dyadic rationals summing to 1.
    """
    return conversion_matrix(Basis.POWER, Basis.CHEBYSHEV, k)[:, -1].copy()


def _to_power(basis, n):
    """Integer matrix A and denominator d: A / d takes degree-n Chebyshev or
    Bernstein coefficients to power coefficients on [-1, 1]; None for power."""
    if basis is Basis.POWER:
        return None
    if basis is Basis.CHEBYSHEV:  # column k holds T_k: T_(k+1) = 2t T_k - T_(k-1)
        cols = [[1] + [0] * n, [0, 1] + [0] * (n - 1)]
        for _ in range(n - 1):
            cols.append([2 * a - b for a, b in zip([0] + cols[-1], cols[-2])])
        return list(zip(*cols[: n + 1])), 1
    # column k: 2^n B_(k,n)((1 + t) / 2) = C(n, k) (1 + t)^k (1 - t)^(n - k)
    cols = [[math.comb(n, k)] + [0] * n for k in range(n + 1)]
    for k, col in enumerate(cols):
        for sign in [1] * k + [-1] * (n - k):
            col[:] = [a + sign * b for a, b in zip(col, [0] + col)]
    return list(zip(*cols)), 2**n


def _from_power(basis, n):
    """Integer matrix A and denominator d: A / d takes degree-n power
    coefficients on [-1, 1] to Chebyshev or Bernstein; None for power."""
    if basis is Basis.POWER:
        return None
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    fact = [math.factorial(j) for j in range(n + 1)]
    for k in range(n + 1):
        for j in range(k + 1):
            if basis is Basis.CHEBYSHEV:  # t^k = 2^-k sum_j C(k, j) T_|k - 2j|
                mat[abs(k - 2 * j)][k] += math.comb(k, j) * 2 ** (n - k)
            else:  # t = 2x - 1 and n! x^j = sum_i C(i, j) j! (n - j)! B_(i,n)(x)
                term = (-1) ** (k - j) * 2**j * math.comb(k, j) * fact[j] * fact[n - j]
                for i in range(j, n + 1):
                    mat[i][k] += math.comb(i, j) * term
    return mat, (2**n if basis is Basis.CHEBYSHEV else fact[n])


def _power_halving(n, shift):
    """Integer matrix A and denominator 2^n: A / 2^n takes degree-n power
    coefficients to those of p((t + shift) / 2), shift = -1 or 1. The sign
    of C(p, k) shift^(p - k) comes from parity, so every entry is an int."""
    return [
        [math.comb(p, k) * 2 ** (n - p) * (shift if (p - k) % 2 else 1) for p in range(n + 1)]
        for k in range(n + 1)
    ], 2**n


def _rounded_product(n, *legs):
    """Read-only float64 product of integer legs (A, d), each A / d, None
    legs skipped. int / int rounds correctly, so dividing each integer
    entry once by the product of the d rounds the exact value once."""
    num, den = None, 1
    for mat, d in filter(None, legs):
        cols = list(zip(*mat))
        num = mat if num is None else [[sum(map(operator.mul, r, c)) for c in cols] for r in num]
        den *= d
    out = np.eye(n + 1) if num is None else np.array([[a / den for a in row] for row in num])
    out.setflags(write=False)
    return out


def _check_int(value, what="degree", least=0):
    """value as an int; ValueError unless an integer >= least (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _matrix_degree(n):
    """n as an int, checked before any cache lookup: ValueError unless an
    integer >= 0, DegreeLimitError above MAX_CONVERT_DEGREE."""
    n = _check_int(n)
    if n > MAX_CONVERT_DEGREE:
        raise DegreeLimitError(f"basis matrices support degree <= {MAX_CONVERT_DEGREE}, got {n}")
    return n


def conversion_matrix(source, target, n):
    """Change-of-basis matrix M for degree n, target_coeffs = M @
    source_coeffs, composing the affine map between the two canonical
    intervals where they differ.

    Built once per (source, target, n) per process: every caller gets the
    same read-only array, so copy it before writing to it.
    """
    return _conversion_matrix(Basis(source), Basis(target), _matrix_degree(n))


@cache
def _conversion_matrix(source, target, n):
    legs = () if source is target else (_from_power(target, n), _to_power(source, n))
    return _rounded_product(n, *legs)


def halving_matrices(basis, n):
    """Matrices taking degree-n coefficient columns on the canonical
    interval to their lower and upper half, stacked as (2, n+1, n+1), so
    H @ cols restricts cols to that half.

    Built once per (basis, n) per process: every caller gets the same
    read-only array, so copy it before writing to it.
    """
    return _halving_matrices(Basis(basis), _matrix_degree(n))


@cache
def _halving_matrices(basis, n):
    back, to = _from_power(basis, n), _to_power(basis, n)
    halves = np.stack([_rounded_product(n, back, _power_halving(n, s), to) for s in (-1, 1)])
    halves.setflags(write=False)
    return halves


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
    k = np.arange(1, _check_int(n, "node count", 1) + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))


def basis_matrix(basis, degree, ts):
    """Design matrix: column k holds basis function k evaluated at ts."""
    basis, degree = Basis(basis), _check_int(degree)
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
