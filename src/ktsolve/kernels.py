"""Numeric cores shared by evaluation, reparametrization, and the solver.

Each kernel is NumPy array code that works on all columns at once and
loops in Python over the degree only. The six restriction kernels
(power_affine_cols, cheb_affine_rows, mat_apply_cols, mat_t_apply_cols,
bernstein_patch_matrix, zonotope_origin_inside) keep their own names
even where the body is a single product: perfbench/spans.py wraps these
functions by name to time the kernel layer under the solver.

Coefficient layout convention: univariate data is (n+1, K) with columns
processed independently, which lets bivariate tensor grids pass through
as reshaped column blocks.
"""

import numpy as np


def horner_cols(c, t):
    """Evaluate power-basis columns at scalar t."""
    acc = c[-1].copy()
    for i in range(c.shape[0] - 2, -1, -1):
        acc = acc * t + c[i]
    return acc


def decasteljau_cols(c, t):
    """Evaluate Bernstein-basis columns at scalar t (stable outside [0,1] too)."""
    n1 = c.shape[0]
    work = c.copy()
    s = 1.0 - t
    for r in range(1, n1):
        work[: n1 - r] = s * work[: n1 - r] + t * work[1 : n1 - r + 1]
    return work[0].copy()


def clenshaw_cols(c, t):
    """Evaluate Chebyshev-basis columns at scalar t."""
    two_t = 2.0 * t
    b1 = np.zeros(c.shape[1])
    b2 = np.zeros(c.shape[1])
    for i in range(c.shape[0] - 1, 0, -1):
        b1, b2 = two_t * b1 - b2 + c[i], b1
    return t * b1 - b2 + c[0]


def power_affine_cols(c, a, b):
    """Coefficients of p(a*t + b) for each power-basis column of c.

    Synthetic-division composition: exact for the affine argument, O(n^2)
    per column.
    """
    n1 = c.shape[0]
    out = np.zeros(c.shape)
    out[0] = c[-1]
    for deg, i in enumerate(range(n1 - 2, -1, -1)):
        out[1 : deg + 2] = a * out[: deg + 1] + b * out[1 : deg + 2]
        out[0] = b * out[0] + c[i]
    return out


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
    directions cover the degenerate point/segment cases.
    """
    normal = (gens[:, 0] != 0.0) | (gens[:, 1] != 0.0)
    dx = np.concatenate((-gens[normal, 1], [1.0, 0.0]))
    dy = np.concatenate((gens[normal, 0], [0.0, 1.0]))
    # reach[d] sums |<direction d, generator i>| over generators in order
    reach = np.abs(dx * gens[:, :1] + dy * gens[:, 1:]).sum(axis=0)
    return not np.any(np.abs(dx * cx + dy * cy) > reach)
