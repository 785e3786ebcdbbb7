"""Subdivision solver certifying all zeros of a bivariate system.

A coefficient grid in any supported basis denotes the map

    F(x) = g(l + (h - l) * x)   for x in the unit square [0, 1]^2,

where g is the grid's polynomial on its basis' canonical square
[l, h]^2. All solver-level coordinates (patches, Newton iterates,
reported zeros, certified radii) live in the unit-square frame, so the
same function expressed in different bases yields the same zero set.
So do the derived quantities: Jacobians, their inverses and Lipschitz
constants are those of the unit-square map F. The translation to
canonical coordinates lives in _Frame alone.

The search keeps a FIFO queue of square patches. Each patch is either
discarded because a coefficient enclosure proves F cannot vanish on it,
or certified because an affine-invariant Kantorovich test proves Newton
iteration from its center converges to a unique nearby zero, or split
into four half-size patches. Each queued patch carries the system's grid
restricted to it. The one restriction, to the whole square, returns the
input grid (it is kept so that a traced solve reaches the restriction
layer); a split derives the four children's grids from their parent's
with the exact per-axis basis.halving_matrices. Certified zeros carry a
radius rho_star within which they are the only zero, which both
deduplicates rediscovery and lets later patches be skipped wholesale.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import (
    MAX_CONVERT_DEGREE,
    Basis,
    BivariateSystem,
    DegreeLimitError,
    _unchecked,
    conversion_matrix,
    convert,
    derivative_bi,
    eval_bi,
    eval_bi_grid,
    halving_matrices,
)
from .bounding import bounding_interval_bi, bounding_polytope, contains_origin, gamma, theta
from .kernels import taylor_shift
from .reparam import Patch, reparametrize, subdivide_grid

log = logging.getLogger("ktsolve.solver")

_SINGULAR_REL = 1e-14
_CAP_REL = 1e-6
_REPORT_SLACK = 1e-9
_RHO_REL_WIDTH = 1e-6
RHO_CAP = 4.0
NEWTON_MAX_ITERS = 50
RHO_SEARCH_ITERS = 60
GRID_DENSITY = 33


@dataclass(frozen=True)
class SolverConfig:
    """The solver's two settings, checked when the config is built.

    newton_tol: Newton has converged once max|F| <= newton_tol * max|c_ij|;
    finite and > 0. min_half_width: a patch whose children would be
    narrower is reported unresolved instead of split; in (0, 1/2].
    """

    newton_tol: float = 1e-12
    min_half_width: float = 2.0**-40

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be finite and > 0, got {self.newton_tol!r}")
        if not 0.0 < self.min_half_width <= 0.5:
            raise ValueError(f"min_half_width must be in (0, 1/2], got {self.min_half_width!r}")


@dataclass
class KantorovichOutcome:
    """The verdict of kantorovich_test and the numbers it rests on.

    passed: eta * omega <= 1/4 and ball_in_dprime.
    eta: max-norm of the first Newton step J^-1 F(x0) from the centre x0.
    omega: Lipschitz bound of y -> J^-1 F'(y) over the gamma-enlarged
        patch. For a failure decided at the centre it is omega_0, the same
        row sum at x0 alone: a lower bound on the enclosure bound that
        already gives eta * omega > 1/4.
    rho_minus: the Kantorovich radius (1 - sqrt(1 - 2 eta omega)) / omega;
        eta when omega = 0, inf when eta * omega > 1/2.
    ball_in_dprime: the ball of radius rho_minus about x0 lies in the
        gamma-enlarged unit square.

    rho_minus and ball_in_dprime follow from the omega reported. A
    singular Jacobian gives eta = omega = rho_minus = inf and fails.
    """

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


class _Frame:
    """Cached per-system data: unit-square map, derivatives, constants.

    The only place where the unit-square frame meets the basis' canonical
    square [lo, lo + s]^2: canon and canon_patch map points and patches
    across, and fu, fv and second_partials are partials of the unit-square
    map F(x) = g(lo + s x), each canonical derivative times s. s is 1 or 2
    and differentiation is linear, so that scaling is exact, and every
    Jacobian, inverse and Lipschitz constant built from them is in the
    unit frame with no further factor. Built once per system and read at
    every patch: the grid [f, f_u, f_v, f_uu, f_uv, f_vv] that one eval_bi
    call evaluates per point, remembered for the last point so that
    value_and_jacobian and curvature_at at one centre share it, and the
    power-form second partials behind lipschitz_at's enclosures.
    """

    def __init__(self, f):
        if f.components != 2:
            raise ValueError(f"the solver needs a 2-component system, got {f.components}")
        if not np.all(np.isfinite(f.coeffs)):
            raise ValueError("system coefficients must be finite")
        if max(f.degree_u, f.degree_v) > MAX_CONVERT_DEGREE:
            raise DegreeLimitError(
                f"the solver supports degree <= {MAX_CONVERT_DEGREE}, "
                f"got ({f.degree_u}, {f.degree_v})"
            )
        self.f = f
        lo, hi = f.basis.domain
        self.lo = lo
        self.s = hi - lo
        self.theta = theta(f.basis, f.degree_u, f.degree_v)
        self.gamma = gamma(self.theta)
        self.residual_scale = f.max_coeff_norm()
        self._last = (None, None)  # (point as a float pair, its 12 values)

    def canon(self, x):
        """Unit-square point -> canonical coordinates."""
        return self.lo + self.s * np.asarray(x, dtype=np.float64)

    def canon_patch(self, x):
        return Patch(tuple(self.canon(x.center)), self.s * x.half_width)

    def _partial(self, g, axis):
        """Partial of g's unit-square map along axis, as a grid in g's basis."""
        d = derivative_bi(g, axis)
        return BivariateSystem(d.basis, self.s * d.coeffs)

    @cached_property
    def fu(self):
        return self._partial(self.f, 0)

    @cached_property
    def fv(self):
        return self._partial(self.f, 1)

    @cached_property
    def second_partials(self):
        """(F_uu, F_uv, F_vv) of the unit-square map."""
        return self._partial(self.fu, 0), self._partial(self.fu, 1), self._partial(self.fv, 1)

    @cached_property
    def taylor_base(self):
        """The second partials in power form, stacked for one-pass bounds.

        Each partial is expressed in the reference variable t = 2x - 1 on
        [-1, 1]^2, x the unit-square point, and zero-padded into one stack
        of shape (3 partials, 1, 2 components, M, N), so that one shift
        matrix per axis serves all three and a Jacobian inverse mixes the
        components by broadcasting over the singleton axis. Alongside it:
        expo (3, 1, M, N), the exponents i + j of the radius scaling, and
        back_u (3, 1, M, M) and back_vt (3, 1, N, N), each partial's own
        per-degree matrices from power form on [-1, 1] back to the
        system's basis, zero-padded in their top-left block. No partial is
        degree-elevated, so each keeps the enclosure its own restriction
        would get.
        """
        basis = self.f.basis
        powers = [convert(g2, Basis.POWER).coeffs for g2 in self.second_partials]
        m_max = max(p.shape[0] for p in powers)
        n_max = max(p.shape[1] for p in powers)
        partials = np.zeros((3, 1, 2, m_max, n_max))
        expo = np.zeros((3, 1, m_max, n_max))
        back_u = np.zeros((3, 1, m_max, m_max))
        back_vt = np.zeros((3, 1, n_max, n_max))
        for k, p in enumerate(powers):
            m1, n1, _ = p.shape
            partials[k, 0, :, :m1, :n1] = p.transpose(2, 0, 1)
            expo[k, 0, :m1, :n1] = np.add.outer(np.arange(m1), np.arange(n1))
            back_u[k, 0, :m1, :m1] = conversion_matrix(Basis.POWER, basis, m1 - 1)
            back_vt[k, 0, :n1, :n1] = conversion_matrix(Basis.POWER, basis, n1 - 1).T
        return partials, expo, back_u, back_vt

    def lipschitz_at(self, jac_inv, center):
        """Lipschitz bound of y -> jac_inv @ F'(y) over square balls about
        a unit-square point, as a function of the ball's half-width r.

        The partials are mixed with jac_inv and Taylor-shifted to the
        centre once, here, into a (3 partials, 2 rows, M, N) stack. Each
        radius then scales coefficient (i, j) by (2r)^(i+j), takes the
        whole stack back to the system's basis with two batched products,
        and bounds all six grids with one bounding_interval_bi call, the
        same enclosure a restriction to the ball would get. Row i's bound
        is |F_uu| + 2|F_uv| + |F_vv| of its enclosure magnitudes.
        """
        partials, expo, back_u, back_vt = self.taylor_base
        t0 = 2.0 * np.asarray(center, dtype=np.float64) - 1.0
        # (3, 1, 2, M, N) * (2 rows, 2 components, 1, 1), summed over components
        mixed = (np.asarray(jac_inv)[:, :, None, None] * partials).sum(axis=2)
        shift_u = taylor_shift(expo.shape[2], t0[0])
        shift_v = taylor_shift(expo.shape[3], t0[1])
        shifted = shift_u @ mixed @ shift_v.T  # (partial, row of jac_inv, i, j)
        basis = self.f.basis

        def bound(r):
            c = back_u @ (shifted * (2.0 * r) ** expo) @ back_vt
            lo, hi = bounding_interval_bi(basis, c)
            mag = np.maximum(np.abs(lo), np.abs(hi))
            return float(np.max(mag[0] + 2.0 * mag[1] + mag[2]))

        return bound

    def curvature_at(self, jac_inv, center):
        """omega_0: |a_uu| + 2|a_uv| + |a_vv| of a = jac_inv F'' at a
        unit-square point, maximised over the rows of jac_inv.

        The same row sum lipschitz_at encloses over a ball, taken at its
        centre, so no ball's bound is below it (in exact arithmetic). F''
        is the last six values of the evaluation value_and_jacobian made
        at the same point, in the system's own basis; jac_inv mixes their
        components.
        """
        values = self._evaluate(center)[6:].reshape(3, 2)  # (partial, component)
        rows = (np.asarray(jac_inv) @ values.T).tolist()  # (row of jac_inv, partial)
        return max(abs(uu) + 2.0 * abs(uv) + abs(vv) for uu, uv, vv in rows)

    @cached_property
    def value_jacobian_system(self):
        """[f, f_u, f_v, f_uu, f_uv, f_vv] as one 12-component grid at f's degrees.

        Each partial loses a degree along each axis it differentiates.
        Power and Chebyshev pad it back with zero leading coefficients,
        which leaves numpy's polyval and chebval bit-identical (chebval
        can at most flip the sign of a zero result); a zero Bernstein
        coefficient would change the polynomial, so Bernstein
        degree-elevates instead. Evaluation works column by column, so
        the first six values do not depend on the last six.
        """
        m1, n1, _ = self.f.coeffs.shape
        grid = np.zeros((m1, n1, 12))
        for k, g in enumerate((self.f, self.fu, self.fv, *self.second_partials)):
            c = g.coeffs
            if self.f.basis is Basis.BERNSTEIN:
                c = _elevate(_elevate(c, m1).swapaxes(0, 1), n1).swapaxes(0, 1)
            grid[: c.shape[0], : c.shape[1], 2 * k : 2 * k + 2] = c
        return BivariateSystem(self.f.basis, grid)

    def _evaluate(self, x):
        """value_jacobian_system's 12 values at a unit-square point, read-only;
        the last point's are kept, so asking again there evaluates nothing."""
        key = (float(x[0]), float(x[1]))
        if self._last[0] != key:
            out = eval_bi(self.value_jacobian_system, *self.canon(x))
            out.setflags(write=False)
            self._last = key, out
        return self._last[1]

    def value_and_jacobian(self, x):
        """F(x) and F'(x) at a unit-square point, from one eval_bi call."""
        out = self._evaluate(x)
        return out[:2], out[2:6].reshape(2, 2).T


def _elevate(c, k1):
    """Raise a Bernstein grid's degree along axis 0 to k1 rows.

    Each step takes k rows to k + 1, row i becomes (i/k) c[i-1] + (1 - i/k)
    c[i], the same polynomial one degree up; k1 rows pass through.
    """
    while c.shape[0] < k1:
        k = c.shape[0]
        w = (np.arange(k + 1) / k)[:, None, None]
        out = np.zeros((k + 1,) + c.shape[1:])
        out[1:] = w[1:] * c
        out[:-1] += (1.0 - w[:-1]) * c
        c = out
    return c


def _inv2(j):
    """Inverse of a 2x2 matrix, or None when numerically singular.

    Singular means |det| <= 1e-14 times the product of the row sums,
    a threshold that scales with the matrix, or a non-finite det.
    """
    (a, b), (c, d) = j.tolist()
    det = a * d - b * c
    if not abs(det) > _SINGULAR_REL * (abs(a) + abs(b)) * (abs(c) + abs(d)):
        return None
    return np.array([[d, -b], [-c, a]]) / det


def _excluded_by_one_component(basis, grid):
    """Whether one component of a restricted grid alone keeps F away from 0.

    Bernstein: all control values of a component > 0, or all < 0; sign
    comparisons involve no rounding, so this proves exclusion exactly.
    Power and Chebyshev: |c_00| > sum of |c_ij| over the other
    coefficients of a component. That is the axis row of the zonotope
    test in kernels.zonotope_origin_inside, with the same comparison and
    the same in-order sum (all-zero generators add exactly 0), so it
    decides exactly as the kernel does. False leaves the patch to the
    full enclosure test.
    """
    pts = grid.reshape(-1, 2)
    if basis is Basis.BERNSTEIN:
        lo_x, lo_y = pts.min(axis=0).tolist()
        hi_x, hi_y = pts.max(axis=0).tolist()
        return lo_x > 0.0 or lo_y > 0.0 or hi_x < 0.0 or hi_y < 0.0
    # sum over axis 0 of a C-ordered (G, 2) array adds row by row, as the kernel does
    reach_x, reach_y = np.abs(pts[1:]).sum(axis=0).tolist()
    c_x, c_y = pts[0].tolist()
    return abs(c_x) > reach_x or abs(c_y) > reach_y


def exclusion_test(f, x, *, _grid=None):
    """True when a coefficient enclosure proves F has no zero on patch x.

    _grid, when given, is f's grid already restricted to x. Most excluded
    patches are decided by one component's signs or axis sums on the raw
    grid; only the rest build the enclosure and test it for the origin.
    Both tests give the same answer wherever the first one decides.
    """
    if _grid is None:
        _grid = reparametrize(f, _Frame(f).canon_patch(x)).coeffs
    if _excluded_by_one_component(f.basis, _grid):
        return True
    enclosure = bounding_polytope(_unchecked(BivariateSystem, basis=f.basis, coeffs=_grid))
    return not contains_origin(enclosure)


def lipschitz_bound(f, jac_inv, ball, *, _frame=None, _cap=math.inf):
    """Bound on the Lipschitz constant of y -> jac_inv @ F'(y) over a
    square ball, from coefficient enclosures of the second partials.

    Everything here is in the unit-square frame: the ball, the Jacobian
    inverse (of F'), and the returned constant.

    _cap, when finite, lets a caller that only asks whether the bound
    exceeds it skip the enclosure: the same row sum at the ball's centre,
    omega_0, is computed first, and when omega_0 > _cap it is returned,
    a value above _cap that is at most the bound. Otherwise the result
    is the enclosure bound, as with no cap.
    """
    fr = _frame or _Frame(f)
    if _cap < math.inf:
        omega0 = fr.curvature_at(jac_inv, ball.center)
        if omega0 > _cap:
            return omega0
    return fr.lipschitz_at(jac_inv, ball.center)(ball.half_width)


def kantorovich_test(f, x, *, _frame=None):
    """Affine-invariant convergence test for Newton from the patch center.

    Passes when eta * omega <= 1/4 and the certified ball around the
    center stays inside the gamma-enlarged unit square, where eta bounds
    the first Newton step and omega the Jacobian's relative Lipschitz
    constant over the enlarged patch. lipschitz_bound is capped at
    (1 + _CAP_REL) / (4 eta): when the curvature at the centre alone,
    omega_0 from the one evaluation that gave eta, already exceeds that,
    the test fails with omega = omega_0 and no enclosure is built. That
    exit only ever fails a test, so it certifies nothing; the relative
    margin keeps it off patches that the enclosure bound would pass up to
    rounding.
    """
    fr = _frame or _Frame(f)
    u0, v0 = x.center
    val, jac = fr.value_and_jacobian(x.center)
    inv = _inv2(jac)
    if inv is None:
        return KantorovichOutcome(False, math.inf, math.inf, math.inf, False)
    eta = float(np.max(np.abs(inv @ val)))
    cap = (1.0 + _CAP_REL) / (4.0 * eta) if eta > 0.0 else math.inf
    ball = Patch(x.center, 2.0 * fr.gamma * x.half_width)
    omega = lipschitz_bound(f, inv, ball, _frame=fr, _cap=cap)
    h = eta * omega
    if omega == 0.0:
        rho_minus = eta
    elif h <= 0.5:
        rho_minus = (1.0 - math.sqrt(1.0 - 2.0 * h)) / omega
    else:
        rho_minus = math.inf
    inside = (
        min(u0, v0) - rho_minus >= -fr.gamma and max(u0, v0) + rho_minus <= 1.0 + fr.gamma
    )
    return KantorovichOutcome(h <= 0.25 and inside, eta, omega, rho_minus, inside)


def newton(f, x0, config=None, *, _frame=None):
    """Newton iteration on F from x0 (unit-square frame).

    Returns (location, iterations) on convergence, None on divergence
    (iteration cap, non-finite iterate, or singular Jacobian). It has
    converged once max|F| <= newton_tol * max|c_ij|, a test that scales
    with the system. The residual is checked before the first step, so
    starting at a zero costs zero iterations.
    """
    cfg = config or SolverConfig()
    fr = _frame or _Frame(f)
    tol = cfg.newton_tol * fr.residual_scale
    x = np.asarray(x0, dtype=np.float64).copy()
    for it in range(NEWTON_MAX_ITERS + 1):
        val, jac = fr.value_and_jacobian(x)
        if float(np.max(np.abs(val))) <= tol:
            return x, it
        if it == NEWTON_MAX_ITERS:
            return None
        inv = _inv2(jac)
        if inv is None:
            return None
        x = x - inv @ val
        if not np.all(np.isfinite(x)):
            return None
    return None


def rho_star(f, zero, *, _frame=None):
    """Radius of certified uniqueness around a zero, with its omega.

    Solves rho * omega_hat(rho) = 2 by bisection on [0, RHO_CAP], until
    the bracket's width is at most 1e-6 of its lower end or
    RHO_SEARCH_ITERS steps have run, and returns that lower end: the
    largest radius the test accepted, so rho * omega <= 2 holds as
    computed. When even the cap's ball has omega small enough (or zero,
    for affine systems) the cap itself is returned. The Taylor shift to
    the zero is built once and serves every radius of the search.
    """
    fr = _frame or _Frame(f)
    x = np.asarray(zero, dtype=np.float64)
    inv = _inv2(fr.value_and_jacobian(x)[1])
    if inv is None:
        raise ValueError("Jacobian is singular at the zero")
    omega_hat = fr.lipschitz_at(inv, x)
    w_cap = omega_hat(RHO_CAP)
    if w_cap == 0.0 or RHO_CAP * w_cap <= 2.0:
        return RHO_CAP, w_cap
    lo, hi, w_lo = 0.0, RHO_CAP, None
    for _ in range(RHO_SEARCH_ITERS):
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


def _covered(balls, patch):
    """Whether one certified ball (center u, center v, radius) holds the
    whole patch, so the patch can hold no zero but that ball's."""
    (u0, v0), hw = patch.center, patch.half_width
    return any(max(abs(u0 - bu), abs(v0 - bv)) + hw <= r for bu, bv, r in balls)


def kts_solve(f, config=None):
    """Find all zeros of F in the unit square by certified subdivision."""
    cfg = config or SolverConfig()
    fr = _Frame(f)
    halve_u = halving_matrices(f.basis, f.degree_u)
    halve_v = halving_matrices(f.basis, f.degree_v)
    root = Patch((0.5, 0.5), 0.5)
    queue = deque([(root, reparametrize(f, fr.canon_patch(root)).coeffs)])
    balls = []  # (center u, center v, radius) as floats, in discovery order
    zeros = []
    unresolved = []
    patches_examined = 0
    smallest_width = math.inf
    exclusion_passes = 0
    kantorovich_passes = 0
    skipped_subsumed = 0
    trace = log.isEnabledFor(logging.DEBUG)

    while queue:
        patch, grid = queue.popleft()
        patches_examined += 1
        smallest_width = min(smallest_width, 2.0 * patch.half_width)

        if balls and _covered(balls, patch):
            skipped_subsumed += 1
            if trace:
                log.debug("patch %s subsumed by certified ball", patch)
            continue

        if exclusion_test(f, patch, _grid=grid):
            exclusion_passes += 1
            if trace:
                log.debug("patch %s excluded", patch)
            continue

        outcome = kantorovich_test(f, patch, _frame=fr)
        if outcome.passed:
            kantorovich_passes += 1
            result = newton(f, patch.center, cfg, _frame=fr)
            if result is not None:
                location, iterations = result
                lu, lv = float(location[0]), float(location[1])
                known = any(
                    max(abs(lu - bu), abs(lv - bv)) <= max(r, 1e-9)
                    for bu, bv, r in balls
                )
                if not known:
                    radius, omega = rho_star(f, location, _frame=fr)
                    balls.append((lu, lv, radius))
                    zeros.append(ZeroRecord(location, radius, omega, iterations))
                    log.info(
                        "zero at (%.12g, %.12g), uniqueness radius %.3g",
                        location[0],
                        location[1],
                        radius,
                    )

        if patch.half_width / 2.0 >= cfg.min_half_width:
            queue.extend(zip(patch.subdivide(), subdivide_grid(grid, halve_u, halve_v)))
        elif balls and _covered(balls, patch):  # by a ball certified at this patch
            skipped_subsumed += 1
        else:
            unresolved.append(patch)

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


def condition_estimate(f, zeros):
    """Conditioning estimate over the reported zeros (real zeros only).

    For each zero, takes the largest of its certified omega_star, the
    Lipschitz bound over the whole gamma-enlarged unit square, and the
    sampled max of ||F'(x*)^-1 F'(y)|| over a unit-square grid (the
    zero's own point contributes exactly 1). None when no zeros exist.
    """
    if not zeros:
        return None
    fr = _Frame(f)
    ts = fr.canon(np.linspace(0.0, 1.0, GRID_DENSITY))
    # F'(y) at every grid point, (u, v, 2, 2), from columns 2-5 of the frame's grid
    grid = eval_bi_grid(fr.value_jacobian_system, ts, ts)
    jac = grid[..., 2:6].reshape(GRID_DENSITY, GRID_DENSITY, 2, 2).swapaxes(-1, -2)
    square = Patch((0.5, 0.5), 0.5 + fr.gamma)

    worst = 0.0
    for record in zeros:
        inv = _inv2(fr.value_and_jacobian(record.location)[1])
        if inv is None:
            return math.inf
        grid_max = float(np.max(np.abs(inv @ jac).sum(axis=-1)))
        grid_max = max(1.0, grid_max)  # the zero itself contributes identity
        omega_box = lipschitz_bound(f, inv, square, _frame=fr)
        worst = max(worst, record.omega_star, omega_box, grid_max)
    return worst
