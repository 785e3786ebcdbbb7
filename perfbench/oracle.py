"""Independent zero oracle for the protocol workload.

Works on the generated Chebyshev grid with NumPy only, so it shares no
code with ktsolve: a dense grid scan seeds a vectorised Newton
iteration, and converged points inside the unit square are kept.
"""

import numpy as np
from numpy.polynomial import chebyshev as C

GRID = 201
NEWTON_STEPS = 40
DEDUP = 1e-6
SLACK = 1e-9


def _cheb_rows(t, n):
    """T_0..T_n at the points t, shape (len(t), n + 1)."""
    rows = np.empty((t.shape[0], n + 1))
    rows[:, 0] = 1.0
    if n >= 1:
        rows[:, 1] = t
    for k in range(1, n):
        rows[:, k + 1] = 2.0 * t * rows[:, k] - rows[:, k - 1]
    return rows


def _map_and_jacobian(c):
    """(m+1, n+1, 6) grid: F, dF/dx, dF/dy on the unit square, components last."""
    m1, n1, _ = c.shape
    out = np.zeros((m1, n1, 6))
    out[..., 0:2] = c
    # d/dx = 2 d/du on the unit square
    out[: m1 - 1, :, 2:4] = 2.0 * C.chebder(c, axis=0)
    out[:, : n1 - 1, 4:6] = 2.0 * C.chebder(c, axis=1)
    return out


def _seeds(c):
    """Centres of cells where both components change sign, plus grid-local
    minima of max(|F1|, |F2|)."""
    xs = np.linspace(0.0, 1.0, GRID)
    rows_u = _cheb_rows(2.0 * xs - 1.0, c.shape[0] - 1)
    rows_v = _cheb_rows(2.0 * xs - 1.0, c.shape[1] - 1)
    vals = np.einsum("ui,ijd,vj->uvd", rows_u, c, rows_v, optimize=True)

    def straddles(comp):
        z = vals[..., comp]
        corners = np.stack([z[:-1, :-1], z[1:, :-1], z[:-1, 1:], z[1:, 1:]])
        return (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)

    h = xs[1] - xs[0]
    cells = np.argwhere(straddles(0) & straddles(1))
    norm = np.max(np.abs(vals), axis=2)
    padded = np.pad(norm, 1, constant_values=np.inf)
    around = np.min(
        [
            padded[1 + di : GRID + 1 + di, 1 + dj : GRID + 1 + dj]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)
        ],
        axis=0,
    )
    return np.concatenate([xs[cells] + h / 2.0, xs[np.argwhere(norm <= around)]])


def reference_zeros(c):
    """Sorted zeros of the unit-square map of Chebyshev grid c, as a (k, 2) array."""
    c = np.asarray(c, dtype=np.float64)
    grid = _map_and_jacobian(c)
    m, n = c.shape[0] - 1, c.shape[1] - 1

    def evaluate(p):
        ru = _cheb_rows(2.0 * p[:, 0] - 1.0, m)
        rv = _cheb_rows(2.0 * p[:, 1] - 1.0, n)
        inner = (ru @ grid.reshape(m + 1, -1)).reshape(len(p), n + 1, 6)
        return np.einsum("pj,pjd->pd", rv, inner)

    p = _seeds(c)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            e = evaluate(p)
            f, ju, jv = e[:, 0:2], e[:, 2:4], e[:, 4:6]
            # J = [[ju0, jv0], [ju1, jv1]]; step = J^-1 f by Cramer's rule
            det = ju[:, 0] * jv[:, 1] - jv[:, 0] * ju[:, 1]
            step = np.stack(
                [
                    (jv[:, 1] * f[:, 0] - jv[:, 0] * f[:, 1]) / det,
                    (ju[:, 0] * f[:, 1] - ju[:, 1] * f[:, 0]) / det,
                ],
                axis=1,
            )
            p = p - step
            # an iterate far outside the square is not tracking an in-square zero
            keep = np.all((p > -1.0) & (p < 2.0), axis=1)
            p, step = p[keep], step[keep]
            if not np.any(np.abs(step) > 1e-15):
                break
        residual = np.max(np.abs(evaluate(p)[:, 0:2]), axis=1)
    scale = 1.0 + float(np.max(np.abs(c)))
    ok = (residual <= 1e-10 * scale) & np.all((p >= -SLACK) & (p <= 1.0 + SLACK), axis=1)
    found = []
    for z in p[ok]:
        if all(np.max(np.abs(z - q)) > DEDUP for q in found):
            found.append(z)
    found.sort(key=lambda z: (z[0], z[1]))
    return np.array(found, dtype=np.float64).reshape(-1, 2)
