"""Numeric cores shared by evaluation, reparametrization, and the solver.

What numpy.polynomial lacks: de Casteljau evaluation, the Taylor shift,
the restriction matrices, and the zonotope membership test. Each kernel
works on all columns at once and loops in Python over the degree only;
the membership test takes every edge normal's reach from one outer
product. pascal is the package's one float binomial table. de Casteljau
takes points the way polyval and chebval do, one or an array at a time,
so basis.eval_bi evaluates a batch of points in every basis alike.

The five restriction kernels (power_affine_cols, cheb_affine_rows,
mat_apply_cols, mat_t_apply_cols, bernstein_patch_matrix) serve
reparam.reparametrize; the solver reaches them only through its root
restriction, which is the identity, since basis.py builds the halving
matrices from exact integer legs. perfbench/spans.py wraps them and
zonotope_origin_inside by name; mat_apply_cols and mat_t_apply_cols are
single products that exist only so that perfbench can time them.

Coefficient layout convention: univariate data is (n+1, K) with columns
processed independently, which lets bivariate tensor grids pass through
as reshaped column blocks.
"""

import math
from functools import cache

import numpy as np


def decasteljau_cols(t, c, tensor=True):
    """Evaluate Bernstein-basis columns at t (stable outside [0,1] too).

    Takes numpy.polynomial's (x, c, tensor) convention: c's first axis is
    the degree, any further axes enumerate independent polynomials, and an
    array t either adds its own axes after them (tensor) or pairs with c's
    trailing axes (not tensor). Every step is elementwise, so each point of
    an array t gets the bits that t alone would get.
    """
    if isinstance(t, np.ndarray) and tensor:
        c = c.reshape(c.shape + (1,) * t.ndim)
    n1 = c.shape[0]
    work = np.empty(np.broadcast(c, t).shape)
    work[...] = c
    s = 1.0 - t
    for r in range(1, n1):
        work[: n1 - r] = s * work[: n1 - r] + t * work[1 : n1 - r + 1]
    return work[0].copy()


@cache
def pascal(n1):
    """Read-only table P[k, p] = C(p, k) for k, p < n1 (column p is row p of
    Pascal's triangle), built once per size. Read by the Taylor shift,
    Bernstein restriction, basis_matrix and bernstein_product."""
    table = np.array([[math.comb(p, k) for p in range(n1)] for k in range(n1)], dtype=np.float64)
    table.setflags(write=False)
    return table


@cache
def _gaps(n1):
    """gap[k, p] = max(p - k, 0), for k, p < n1."""
    idx = np.arange(n1)
    return np.maximum(idx - idx[:, None], 0).astype(np.float64)


def taylor_shift(n1, t0):
    """Matrix S with S[k, p] = C(p, k) t0^(p - k): column p holds the power
    coefficients of (t0 + tau)^p in tau, for p < n1."""
    return pascal(n1) * t0 ** _gaps(n1)


def power_affine_cols(c, a, b):
    """Coefficients of p(a*t + b) for each power-basis column of c.

    The Taylor shift to b, then row k scaled by a^k. For the root's
    (1, 0) both are exactly the identity, so the result equals c.
    """
    n1 = c.shape[0]
    return (a ** np.arange(n1))[:, None] * (taylor_shift(n1, b) @ c)


def cheb_affine_rows(n, a, b):
    """Rows lam[i] = Chebyshev coefficients of T_i(a*t + b), i = 0..n.

    Built from the three-term recurrence T_{i+1}(u) = 2u T_i(u) - T_{i-1}(u)
    with u = a*t + b, re-expanding t*T_k via T_{k+1} and T_{k-1}.
    """
    lam = np.zeros((n + 1, n + 1))
    lam[0, 0] = 1.0
    if n >= 1:
        lam[1, 0] = b
        lam[1, 1] = a
    for i in range(1, n):
        # 2*(a*t + b) * T_i(a*t+b) contributions
        nxt = lam[i + 1]
        nxt[1] += 2.0 * a * lam[i, 0]
        nxt[2 : i + 2] += a * lam[i, 1 : i + 1]
        nxt[:i] += a * lam[i, 1 : i + 1]
        nxt[: i + 1] += 2.0 * b * lam[i, : i + 1]
        # minus T_{i-1}(a*t+b)
        nxt[:i] -= lam[i - 1, :i]
    return lam


def mat_apply_cols(m, c):
    """out = m @ c."""
    return m @ c


def mat_t_apply_cols(m, c):
    """out = m.T @ c, i.e. out[q] = sum_i m[i, q] * c[i]."""
    return m.T @ c


def bernstein_patch_matrix(n, p, q, e, f):
    """Matrix M with M[k, i] = coefficient of u^k (1-u)^(n-k) in
    (p*u + q*(1-u))^i * (e*u + f*(1-u))^(n-i).

    Used for Bernstein reparametrization: the patch endpoints map to
    p = hi, q = lo on the first factor and e = 1-hi, f = 1-lo on the
    second. Homogeneous Pascal-style build, exact in float64 arithmetic.
    """
    # pw[i, s]: coeff of u^s (1-u)^(i-s) in (p*u + q*(1-u))^i
    pw = np.zeros((n + 1, n + 1))
    ef = np.zeros((n + 1, n + 1))
    pw[0, 0] = 1.0
    ef[0, 0] = 1.0
    for i in range(1, n + 1):
        pw[i, : i + 1] = q * pw[i - 1, : i + 1]
        pw[i, 1 : i + 1] += p * pw[i - 1, :i]
        ef[i, : i + 1] = f * ef[i - 1, : i + 1]
        ef[i, 1 : i + 1] += e * ef[i - 1, :i]
    # column i is the product of row i of pw and row n - i of ef
    ef_cols = ef[::-1].T  # ef_cols[t, i] = ef[n - i, t]
    out = np.zeros((n + 1, n + 1))
    for s in range(n + 1):
        out[s:] += pw[:, s] * ef_cols[: n + 1 - s]
    return out


def zonotope_origin_inside(cx, cy, gens):
    """Exact 2-D zonotope membership test for the origin.

    A point is inside iff for every edge-normal direction (perpendicular
    to some generator) and for both axis directions, the center offset
    along the direction does not exceed the total generator reach. Axis
    directions cover the degenerate point/segment cases; a zero generator's
    row can never exclude. Reaches are summed over the generators in
    order. A NaN or infinite generator entry makes each row it reaches
    undecidable, so no such row excludes.
    """
    gx, gy = gens[:, 0], gens[:, 1]
    cross = np.multiply.outer(gy, gx)
    # reach[i] sums |cross(g_k, g_i)| over k: the reach along g_i's normal
    reach = np.abs(cross - cross.T).sum(axis=0)
    if (np.abs(gx * cy - gy * cx) > reach).any():
        return False
    # the axis rows; 0 * (the other coordinate) carries a NaN or inf across
    reach_x, reach_y = np.abs(gens + 0.0 * gens[:, ::-1]).sum(axis=0).tolist()
    return not (abs(cx + 0.0 * cy) > reach_x or abs(cy + 0.0 * cx) > reach_y)
