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
Power and Chebyshev share [-1, 1], so that pair converts with no domain
map at all.

Univariate coefficients are stored as (n+1, d) arrays and bivariate
tensor grids as (m+1, n+1, d), with d = 1 for scalar polynomials and
d = 2 for maps into the plane. Any d >= 1 is held and evaluated, one
column per component; the solver stacks a map with its two partials as
one d = 6 grid so that a single evaluation yields F and F'.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class ConversionMatrix:
    """Dense change-of-basis matrix: target_coeffs = matrix @ source_coeffs."""

    source: Basis
    target: Basis
    matrix: np.ndarray = field(repr=False)


_EVAL_COLS = {
    Basis.POWER: kernels.horner_cols,
    Basis.BERNSTEIN: kernels.decasteljau_cols,
    Basis.CHEBYSHEV: kernels.clenshaw_cols,
}


def _eval_cols(basis, cols, t):
    return _EVAL_COLS[basis](cols, t)


def eval_uni(f, t):
    """Value of a univariate polynomial at t; float for d = 1, else (d,)."""
    out = _eval_cols(f.basis, f.coeffs, t)
    return float(out[0]) if f.components == 1 else out


def eval_bi(f, u, v):
    """Value of a bivariate grid at (u, v); float for d = 1, else (d,)."""
    m1, n1, d = f.coeffs.shape
    inner = _eval_cols(f.basis, f.coeffs.reshape(m1, n1 * d), u).reshape(n1, d)
    out = _eval_cols(f.basis, inner, v)
    return float(out[0]) if d == 1 else out


def _derivative_cols(basis, c):
    """Differentiate each column; (n+1, K) -> (max(n,1), K)."""
    n1, k = c.shape
    n = n1 - 1
    if n == 0:
        return np.zeros((1, k))
    if basis is Basis.POWER:
        return c[1:] * np.arange(1, n1)[:, None]
    if basis is Basis.BERNSTEIN:
        return n * (c[1:] - c[:-1])
    out = np.zeros((n, k))
    prev2 = np.zeros(k)  # c'_{q+2}
    prev1 = np.zeros(k)  # c'_{q+1}
    for q in range(n - 1, -1, -1):
        cur = prev2 + 2.0 * (q + 1) * c[q + 1]
        out[q] = cur
        prev2 = prev1
        prev1 = cur
    out[0] /= 2.0
    return out


def derivative_uni(f):
    return UnivariatePolynomial(f.basis, _derivative_cols(f.basis, f.coeffs))


def derivative_bi(f, axis):
    """Partial derivative along axis 'u' (0) or 'v' (1), same basis."""
    m1, n1, d = f.coeffs.shape
    if axis in ("u", 0):
        cols = _derivative_cols(f.basis, f.coeffs.reshape(m1, n1 * d))
        return BivariateSystem(f.basis, cols.reshape(-1, n1, d))
    if axis in ("v", 1):
        swapped = np.ascontiguousarray(np.swapaxes(f.coeffs, 0, 1))
        cols = _derivative_cols(f.basis, swapped.reshape(n1, m1 * d))
        return BivariateSystem(f.basis, np.swapaxes(cols.reshape(-1, m1, d), 0, 1))
    raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")


def monomial_to_chebyshev(k):
    """Chebyshev coefficients d_0..d_k of the monomial t^k on [-1, 1].

    Iterates t^(j+1) = t * t^j using t*T_i = (T_{i+1} + T_{|i-1|}) / 2.
    All entries are nonnegative dyadic rationals summing to 1.
    """
    if k < 0:
        raise ValueError("monomial degree must be >= 0")
    d = np.array([1.0])
    for _ in range(k):
        nxt = np.zeros(d.shape[0] + 1)
        nxt[1] += d[0]
        for i in range(1, d.shape[0]):
            nxt[i + 1] += 0.5 * d[i]
            nxt[i - 1] += 0.5 * d[i]
        d = nxt
    return d


def _power_to_cheb_matrix(n):
    u = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        u[k, : k + 1] = monomial_to_chebyshev(k)
    return u


def _cheb_to_power_matrix(n):
    d = np.zeros((n + 1, n + 1))
    d[0, 0] = 1.0
    if n >= 1:
        d[1, 1] = 1.0
    for j in range(1, n):
        d[1:, j + 1] = 2.0 * d[:-1, j]
        d[:, j + 1] -= d[:, j - 1]
    return d


def _unit_power_to_bernstein_matrix(n):
    m = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for k in range(i + 1):
            m[i, k] = math.comb(i, k) / math.comb(n, k)
    return m


def _bernstein_to_unit_power_matrix(n):
    m = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for i in range(k + 1):
            m[k, i] = (-1.0) ** (k - i) * math.comb(n, i) * math.comb(n - i, k - i)
    return m


def conversion_matrix(source, target, n):
    """Change-of-basis matrix for degree n, composing the affine map
    between the two canonical intervals where they differ."""
    source, target = Basis(source), Basis(target)
    if n > MAX_CONVERT_DEGREE:
        raise DegreeLimitError(
            f"conversion supports degree <= {MAX_CONVERT_DEGREE}, got {n}"
        )
    if source is target:
        mat = np.eye(n + 1)
    elif (source, target) == (Basis.POWER, Basis.CHEBYSHEV):
        mat = _power_to_cheb_matrix(n).T
    elif (source, target) == (Basis.CHEBYSHEV, Basis.POWER):
        mat = _cheb_to_power_matrix(n)
    elif (source, target) == (Basis.POWER, Basis.BERNSTEIN):
        # remap [-1,1] power onto [0,1] (t = 2x - 1), then lift to Bernstein
        shift = kernels.power_affine_cols(np.eye(n + 1), 2.0, -1.0)
        mat = _unit_power_to_bernstein_matrix(n) @ shift
    elif (source, target) == (Basis.BERNSTEIN, Basis.POWER):
        unshift = kernels.power_affine_cols(np.eye(n + 1), 0.5, 0.5)
        mat = unshift @ _bernstein_to_unit_power_matrix(n)
    else:
        # Bernstein <-> Chebyshev route through power
        a = conversion_matrix(source, Basis.POWER, n).matrix
        b = conversion_matrix(Basis.POWER, target, n).matrix
        mat = b @ a
    return ConversionMatrix(source, target, mat)


def convert_uni(f, target):
    """Re-express a univariate polynomial in another basis (same function
    traced over corresponding canonical-domain points)."""
    target = Basis(target)
    if target is f.basis:
        return UnivariatePolynomial(f.basis, f.coeffs.copy())
    mat = conversion_matrix(f.basis, target, f.degree).matrix
    return UnivariatePolynomial(target, mat @ f.coeffs)


def convert(f, target):
    """Re-express a bivariate grid in another basis, axis u then axis v."""
    target = Basis(target)
    if target is f.basis:
        return BivariateSystem(f.basis, f.coeffs.copy())
    m1, n1, d = f.coeffs.shape
    mu = conversion_matrix(f.basis, target, m1 - 1).matrix
    mv = conversion_matrix(f.basis, target, n1 - 1).matrix
    c = np.tensordot(mu, f.coeffs, axes=(1, 0))
    c = np.swapaxes(np.tensordot(mv, np.swapaxes(c, 0, 1), axes=(1, 0)), 0, 1)
    return BivariateSystem(target, c)


def bernstein_product(f, g):
    """Product of two scalar Bernstein polynomials, degree n + n'."""
    if f.basis is not Basis.BERNSTEIN or g.basis is not Basis.BERNSTEIN:
        raise ValueError("bernstein_product requires Bernstein-basis inputs")
    if f.components != 1 or g.components != 1:
        raise ValueError("bernstein_product is defined for scalar polynomials")
    n, np_ = f.degree, g.degree
    total = n + np_
    a = f.coeffs[:, 0]
    b = g.coeffs[:, 0]
    out = np.zeros(total + 1)
    for i in range(total + 1):
        acc = 0.0
        for k in range(max(0, i - np_), min(n, i) + 1):
            acc += (
                math.comb(n, k)
                * math.comb(np_, i - k)
                / math.comb(total, i)
                * a[k]
                * b[i - k]
            )
        out[i] = acc
    return UnivariatePolynomial(Basis.BERNSTEIN, out)


def chebyshev_nodes(n):
    """The n Chebyshev points cos((2k-1)pi/(2n)), k = 1..n (descending)."""
    if n < 1:
        raise ValueError("need at least one node")
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))


def basis_matrix(basis, degree, ts):
    """Design matrix: column k holds basis function k evaluated at ts."""
    basis = Basis(basis)
    ts = np.asarray(ts, dtype=np.float64)
    if basis is Basis.POWER:
        return np.vander(ts, degree + 1, increasing=True)
    if basis is Basis.CHEBYSHEV:
        cols = np.empty((ts.shape[0], degree + 1))
        cols[:, 0] = 1.0
        if degree >= 1:
            cols[:, 1] = ts
        for k in range(1, degree):
            cols[:, k + 1] = 2.0 * ts * cols[:, k] - cols[:, k - 1]
        return cols
    cols = np.empty((ts.shape[0], degree + 1))
    for k in range(degree + 1):
        cols[:, k] = (
            math.comb(degree, k) * ts**k * (1.0 - ts) ** (degree - k)
        )
    return cols


def eval_bi_grid(f, us, vs):
    """Vectorized evaluation over a tensor grid; (len(us), len(vs), d)."""
    bu = basis_matrix(f.basis, f.degree_u, us)
    bv = basis_matrix(f.basis, f.degree_v, vs)
    return np.einsum("ui,ijd,vj->uvd", bu, f.coeffs, bv)
