"""Subdivision solver certifying all zeros of a bivariate system.

A coefficient grid in any supported basis denotes the map

    F(x) = g(l + (h - l) * x)   for x in the unit square [0, 1]^2,

where g is the grid's polynomial on its basis' canonical square
[l, h]^2. All solver-level coordinates (patches, Newton iterates,
reported zeros, certified radii) live in the unit-square frame, so the
same function expressed in different bases yields the same zero set;
the translation to canonical coordinates happens only where coefficient
grids are restricted to patches.

The search keeps a FIFO queue of square patches. Each patch is either
discarded because a coefficient enclosure proves F cannot vanish on it,
or certified because an affine-invariant Kantorovich test proves Newton
iteration from its center converges to a unique nearby zero, or split
into four half-size patches. Certified zeros carry a radius rho_star
within which they are the only zero, which both deduplicates rediscovery
and lets later patches be skipped wholesale.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .basis import Basis, conversion_matrix, convert, derivative_bi, eval_bi, eval_bi_grid
from .bounding import bounding_interval_bi, bounding_polytope, contains_origin, gamma, theta
from .reparam import Patch, reparametrize

log = logging.getLogger("ktsolve.solver")

_SINGULAR_REL = 1e-14
_REPORT_SLACK = 1e-9
_RHO_REL_WIDTH = 1e-6
RHO_CAP = 4.0


@dataclass
class SolverConfig:
    newton_tol: float = 1e-12
    newton_max_iters: int = 50
    min_half_width: float = 2.0**-40
    rho_search_iters: int = 60
    grid_density: int = 33


@dataclass
class KantorovichOutcome:
    passed: bool
    eta: float
    omega: float
    rho_minus: float
    ball_in_dprime: bool


@dataclass
class ZeroRecord:
    location: np.ndarray
    rho_star: float
    omega_star: float
    newton_iterations: int


@dataclass
class SolveReport:
    zeros: list
    patches_examined: int
    smallest_width: float
    exclusion_passes: int
    kantorovich_passes: int
    skipped_subsumed: int
    unresolved: list = field(default_factory=list)
    cond_estimate: float = None


class _Frame:
    """Cached per-system data: unit-square map, derivatives, constants."""

    def __init__(self, f):
        if not np.all(np.isfinite(f.coeffs)):
            raise ValueError("system coefficients must be finite")
        self.f = f
        lo, hi = f.basis.domain
        self.lo = lo
        self.s = hi - lo
        self.theta = theta(f.basis, f.degree_u, f.degree_v)
        self.gamma = gamma(self.theta)
        self.residual_scale = 1.0 + f.max_coeff_norm()

    def canon(self, x):
        """Unit-square point -> canonical coordinates."""
        return self.lo + self.s * np.asarray(x, dtype=np.float64)

    def canon_patch(self, x):
        u0, v0 = x.center
        return Patch(
            (self.lo + self.s * u0, self.lo + self.s * v0), self.s * x.half_width
        )

    @cached_property
    def fu(self):
        return derivative_bi(self.f, 0)

    @cached_property
    def fv(self):
        return derivative_bi(self.f, 1)

    @cached_property
    def second_partials(self):
        """(g_uu, g_uv, g_vv) in canonical coordinates."""
        return (
            derivative_bi(self.fu, 0),
            derivative_bi(self.fu, 1),
            derivative_bi(self.fv, 1),
        )

    @cached_property
    def taylor_base(self):
        """The second partials in power form, ready for Taylor shifts.

        Each partial is expressed in the reference variable
        t = -1 + 2(x - lo)/s on [-1, 1]^2 and zero-padded into one grid of
        shape (M, N, 3, 2), so that one shift matrix per axis serves all
        three. Each also carries the exponents i + j of the radius
        scaling, the per-degree matrices that take power form on [-1, 1]
        back to the system's basis, and its weight in the row sums
        (g_uv counts twice).
        """
        basis = self.f.basis
        powers = [convert(g2, Basis.POWER).coeffs for g2 in self.second_partials]
        grid = np.zeros(
            (max(p.shape[0] for p in powers), max(p.shape[1] for p in powers), 3, 2)
        )
        parts = []
        for k, (p, mult) in enumerate(zip(powers, (1.0, 2.0, 1.0))):
            m1, n1, _ = p.shape
            grid[:m1, :n1, k] = p
            parts.append(
                (
                    np.add.outer(np.arange(m1), np.arange(n1)),
                    conversion_matrix(Basis.POWER, basis, m1 - 1).matrix,
                    conversion_matrix(Basis.POWER, basis, n1 - 1).matrix.T,
                    mult,
                )
            )
        return grid, parts

    def lipschitz_at(self, jac_inv, center):
        """Lipschitz bound of y -> jac_inv @ g'(y) over square balls about
        a canonical point, as a function of the ball's half-width r.

        The partials are mixed with jac_inv and Taylor-shifted to the
        centre once, here. Each radius then scales coefficient (i, j) by
        (2r/s)^(i+j), takes each partial back to the system's basis with
        two small products, and bounds it with bounding_interval_bi, the
        same enclosure a restriction to the ball would get.
        """
        grid, parts = self.taylor_base
        t0 = -1.0 + 2.0 * (np.asarray(center, dtype=np.float64) - self.lo) / self.s
        # column p of each shift matrix holds the power coefficients of (t0 + tau)^p
        shift_u = kernels.power_affine_cols(np.eye(grid.shape[0]), 1.0, t0[0])
        shift_v = kernels.power_affine_cols(np.eye(grid.shape[1]), 1.0, t0[1])
        mixed = np.moveaxis(grid @ np.asarray(jac_inv).T, (2, 3), (0, 1))
        shifted = shift_u @ mixed @ shift_v.T  # (partial, row of jac_inv, i, j)
        pieces = []
        for k, (expo, back_u, back_vt, mult) in enumerate(parts):
            m1, n1 = expo.shape
            g = np.ascontiguousarray(shifted[k, :, :m1, :n1])
            pieces.append((g, expo, back_u, back_vt, mult))

        def bound(r):
            h = 2.0 * r / self.s
            row_sums = [0.0, 0.0]
            for g, expo, back_u, back_vt, mult in pieces:
                c = back_u @ (g * h**expo) @ back_vt
                for i in (0, 1):
                    lo, hi = bounding_interval_bi(self.f.basis, c[i])
                    row_sums[i] += mult * max(abs(lo), abs(hi))
            return max(row_sums)

        return bound

    def value(self, x):
        t = self.canon(x)
        return eval_bi(self.f, t[0], t[1])

    def jacobian(self, x):
        """F'(x) in the unit-square frame (chain-rule factor s applied)."""
        t = self.canon(x)
        ju = eval_bi(self.fu, t[0], t[1])
        jv = eval_bi(self.fv, t[0], t[1])
        return self.s * np.array([[ju[0], jv[0]], [ju[1], jv[1]]])

    def raw_jacobian_at_canon(self, t):
        ju = eval_bi(self.fu, t[0], t[1])
        jv = eval_bi(self.fv, t[0], t[1])
        return np.array([[ju[0], jv[0]], [ju[1], jv[1]]])


def _inv2(j):
    """Inverse of a 2x2 matrix, or None when numerically singular."""
    a, b = j[0]
    c, d = j[1]
    det = a * d - b * c
    scale = max(1.0, max(abs(a) + abs(b), abs(c) + abs(d))) ** 2
    if abs(det) < _SINGULAR_REL * scale:
        return None
    return np.array([[d, -b], [-c, a]]) / det


def exclusion_test(f, x, *, _frame=None):
    """True when a coefficient enclosure proves F has no zero on patch x."""
    fr = _frame or _Frame(f)
    restricted = reparametrize(f, fr.canon_patch(x))
    return not contains_origin(bounding_polytope(restricted))


def lipschitz_bound(f, jac_inv_at, ball, *, _frame=None):
    """Bound on the Lipschitz constant of y -> jac_inv_at @ g'(y) over a
    square ball, from coefficient enclosures of the second partials.

    Everything here is in the system's own canonical coordinates: the
    ball, the Jacobian inverse, and the returned constant.
    """
    fr = _frame or _Frame(f)
    return fr.lipschitz_at(jac_inv_at, ball.center)(ball.half_width)


def _omega_unit(fr, jac_inv_raw, center_unit, radius_unit):
    """Lipschitz bound in the unit-square frame over an inf-norm ball."""
    t = fr.canon(center_unit)
    ball = Patch((t[0], t[1]), fr.s * radius_unit)
    return fr.s * lipschitz_bound(fr.f, jac_inv_raw, ball, _frame=fr)


def kantorovich_test(f, x, config=None, *, _frame=None):
    """Affine-invariant convergence test for Newton from the patch center.

    Passes when eta * omega <= 1/4 and the certified ball around the
    center stays inside the gamma-enlarged unit square, where eta bounds
    the first Newton step and omega the Jacobian's relative Lipschitz
    constant over the enlarged patch.
    """
    fr = _frame or _Frame(f)
    x0 = np.asarray(x.center, dtype=np.float64)
    jac = fr.jacobian(x0)
    inv = _inv2(jac)
    if inv is None:
        return KantorovichOutcome(False, math.inf, math.inf, math.inf, False)
    eta = float(np.max(np.abs(inv @ fr.value(x0))))
    jac_inv_raw = fr.s * inv  # inverse of the canonical-frame Jacobian
    omega = _omega_unit(fr, jac_inv_raw, x0, 2.0 * fr.gamma * x.half_width)
    h = eta * omega
    if omega == 0.0:
        rho_minus = eta
    elif h <= 0.5:
        rho_minus = (1.0 - math.sqrt(1.0 - 2.0 * h)) / omega
    else:
        rho_minus = math.inf
    inside = bool(
        x0.min() - rho_minus >= -fr.gamma and x0.max() + rho_minus <= 1.0 + fr.gamma
    )
    return KantorovichOutcome(h <= 0.25 and inside, eta, omega, rho_minus, inside)


def newton(f, x0, config=None, *, _frame=None):
    """Newton iteration on F from x0 (unit-square frame).

    Returns (location, iterations) on convergence, None on divergence
    (iteration cap, non-finite iterate, or singular Jacobian). The
    residual is checked before the first step, so starting at a zero
    costs zero iterations.
    """
    cfg = config or SolverConfig()
    fr = _frame or _Frame(f)
    tol = cfg.newton_tol * fr.residual_scale
    x = np.asarray(x0, dtype=np.float64).copy()
    for it in range(cfg.newton_max_iters + 1):
        val = fr.value(x)
        if float(np.max(np.abs(val))) <= tol:
            return x, it
        if it == cfg.newton_max_iters:
            return None
        inv = _inv2(fr.jacobian(x))
        if inv is None:
            return None
        x = x - inv @ val
        if not np.all(np.isfinite(x)):
            return None
    return None


def rho_star(f, zero, config=None, *, _frame=None):
    """Radius of certified uniqueness around a zero, with its omega.

    Solves rho * omega_hat(rho) = 2 by bisection on [0, RHO_CAP], until
    the bracket's width is at most 1e-6 of its lower end or
    rho_search_iters steps have run, and returns that lower end: the
    largest radius the test accepted, so rho * omega <= 2 holds as
    computed. When even the cap's ball has omega small enough (or zero,
    for affine systems) the cap itself is returned.
    """
    cfg = config or SolverConfig()
    fr = _frame or _Frame(f)
    x = np.asarray(zero, dtype=np.float64)
    inv = _inv2(fr.jacobian(x))
    if inv is None:
        raise ValueError("Jacobian is singular at the zero")
    bound = fr.lipschitz_at(fr.s * inv, fr.canon(x))

    def omega_hat(rho):
        return fr.s * bound(fr.s * rho)

    w_cap = omega_hat(RHO_CAP)
    if w_cap == 0.0 or RHO_CAP * w_cap <= 2.0:
        return RHO_CAP, w_cap
    lo, hi, w_lo = 0.0, RHO_CAP, None
    for _ in range(cfg.rho_search_iters):
        if hi - lo <= _RHO_REL_WIDTH * lo:
            break
        mid = 0.5 * (lo + hi)
        w = omega_hat(mid)
        if w == 0.0 or mid * w < 2.0:
            lo, w_lo = mid, w
        else:
            hi = mid
    if w_lo is None:  # no positive radius passed within the step cap
        w_lo = omega_hat(0.0)
    return lo, w_lo


def kts_solve(f, config=None):
    """Find all zeros of F in the unit square by certified subdivision."""
    cfg = config or SolverConfig()
    fr = _Frame(f)
    queue = deque([Patch((0.5, 0.5), 0.5)])
    balls = []  # (center array, radius) in discovery order
    zeros = []
    unresolved = []
    patches_examined = 0
    smallest_width = math.inf
    exclusion_passes = 0
    kantorovich_passes = 0
    skipped_subsumed = 0
    trace = log.isEnabledFor(logging.DEBUG)

    while queue:
        patch = queue.popleft()
        patches_examined += 1
        smallest_width = min(smallest_width, 2.0 * patch.half_width)
        center = np.asarray(patch.center)

        covered = False
        for ball_center, ball_radius in balls:
            if (
                float(np.max(np.abs(center - ball_center))) + patch.half_width
                <= ball_radius
            ):
                covered = True
                break
        if covered:
            skipped_subsumed += 1
            if trace:
                log.debug("patch %s subsumed by certified ball", patch)
            continue

        if exclusion_test(f, patch, _frame=fr):
            exclusion_passes += 1
            if trace:
                log.debug("patch %s excluded", patch)
            continue

        outcome = kantorovich_test(f, patch, cfg, _frame=fr)
        if outcome.passed:
            kantorovich_passes += 1
            result = newton(f, patch.center, cfg, _frame=fr)
            if result is not None:
                location, iterations = result
                known = any(
                    float(np.max(np.abs(location - c))) <= max(r, 1e-9)
                    for c, r in balls
                )
                if not known:
                    radius, omega = rho_star(f, location, cfg, _frame=fr)
                    balls.append((location, radius))
                    zeros.append(ZeroRecord(location, radius, omega, iterations))
                    log.info(
                        "zero at (%.12g, %.12g), uniqueness radius %.3g",
                        location[0],
                        location[1],
                        radius,
                    )

        if patch.half_width / 2.0 < cfg.min_half_width:
            unresolved.append(patch)
        else:
            queue.extend(patch.subdivide())

    if unresolved:
        log.warning(
            "%d patches hit the width floor without certification", len(unresolved)
        )
    reported = [
        z
        for z in zeros
        if -_REPORT_SLACK <= z.location[0] <= 1.0 + _REPORT_SLACK
        and -_REPORT_SLACK <= z.location[1] <= 1.0 + _REPORT_SLACK
    ]
    return SolveReport(
        zeros=reported,
        patches_examined=patches_examined,
        smallest_width=smallest_width,
        exclusion_passes=exclusion_passes,
        kantorovich_passes=kantorovich_passes,
        skipped_subsumed=skipped_subsumed,
        unresolved=unresolved,
    )


def condition_estimate(f, zeros, config=None, *, _frame=None):
    """Conditioning estimate over the reported zeros (real zeros only).

    For each zero, takes the largest of its certified omega_star, the
    Lipschitz bound over the whole gamma-enlarged unit square, and the
    sampled max of ||F'(x*)^-1 F'(y)|| over a unit-square grid (the
    zero's own point contributes exactly 1). None when no zeros exist.
    """
    if not zeros:
        return None
    cfg = config or SolverConfig()
    fr = _frame or _Frame(f)
    pts = np.linspace(0.0, 1.0, cfg.grid_density)
    ts = fr.lo + fr.s * pts
    gu = eval_bi_grid(fr.fu, ts, ts)
    gv = eval_bi_grid(fr.fv, ts, ts)

    worst = 0.0
    for record in zeros:
        x = record.location
        t = fr.canon(x)
        inv_raw = _inv2(fr.raw_jacobian_at_canon(t))
        if inv_raw is None:
            return math.inf
        # rows of inv_raw @ g'(y) over the whole grid (scale factors cancel)
        r00 = inv_raw[0, 0] * gu[..., 0] + inv_raw[0, 1] * gu[..., 1]
        r01 = inv_raw[0, 0] * gv[..., 0] + inv_raw[0, 1] * gv[..., 1]
        r10 = inv_raw[1, 0] * gu[..., 0] + inv_raw[1, 1] * gu[..., 1]
        r11 = inv_raw[1, 0] * gv[..., 0] + inv_raw[1, 1] * gv[..., 1]
        grid_max = float(
            np.max(np.maximum(np.abs(r00) + np.abs(r01), np.abs(r10) + np.abs(r11)))
        )
        grid_max = max(1.0, grid_max)  # the zero itself contributes identity
        omega_box = _omega_unit(
            fr, inv_raw, np.array([0.5, 0.5]), 0.5 + fr.gamma
        )
        worst = max(worst, record.omega_star, omega_box, grid_max)
    return worst
