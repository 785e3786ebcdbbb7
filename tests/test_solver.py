"""Exclusion, Kantorovich, Newton, certification, and the full solve loop."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from helpers import (
    certified_balls,
    eval_map,
    eval_map_grid,
    kantorovich_patches,
    protocol_system,
    random_system,
    reference_zeros,
    sorted_zero_locations,
    unit_power_system,
)
from test_tracing import near_coincident_system

from ktsolve import (
    Basis,
    BivariateSystem,
    Patch,
    SolverConfig,
    condition_estimate,
    convert,
    exclusion_test,
    kantorovich_test,
    kts_solve,
    lipschitz_bound,
    newton,
    rho_star,
)
from ktsolve.basis import (
    MAX_CONVERT_DEGREE,
    DegreeLimitError,
    _conversion_matrix,
    _halving_matrices,
    derivative_bi,
    eval_bi,
)
from ktsolve.bounding import (
    bounding_interval_bi,
    bounding_polytope,
    contains_origin,
    gamma,
    theta,
)
from ktsolve.reparam import reparametrize
from ktsolve.solver import _excluded_by_one_component, _Frame

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)
FULL = Patch((0.5, 0.5), 0.5)


# Recorded solver behaviour on the protocol systems of seeds 600-604; a
# change that moves any value changes which patches the solver examines or
# which zeros it reports. Counters per (seed, basis): patches_examined,
# exclusion_passes, kantorovich_passes, skipped_subsumed, len(unresolved).
PROTOCOL_COUNTERS = {
    (600, Basis.POWER): (93, 65, 3, 5, 0),
    (600, Basis.BERNSTEIN): (69, 47, 3, 5, 0),
    (600, Basis.CHEBYSHEV): (93, 65, 3, 5, 0),
    (601, Basis.POWER): (53, 34, 2, 6, 0),
    (601, Basis.BERNSTEIN): (41, 25, 2, 6, 0),
    (601, Basis.CHEBYSHEV): (53, 34, 2, 6, 0),
    (602, Basis.POWER): (101, 70, 5, 6, 0),
    (602, Basis.BERNSTEIN): (65, 45, 3, 4, 0),
    (602, Basis.CHEBYSHEV): (101, 70, 5, 6, 0),
    (603, Basis.POWER): (105, 67, 3, 12, 0),
    (603, Basis.BERNSTEIN): (69, 40, 3, 12, 0),
    (603, Basis.CHEBYSHEV): (101, 64, 3, 12, 0),
    (604, Basis.POWER): (105, 73, 2, 6, 0),
    (604, Basis.BERNSTEIN): (73, 49, 2, 6, 0),
    (604, Basis.CHEBYSHEV): (105, 73, 2, 6, 0),
}
# Certificates per (seed, basis) to 12 significant digits:
# (condition_estimate, [(rho_star, omega_star) per zero, zeros sorted by location]).
PROTOCOL_CERTIFICATES = {
    (600, Basis.POWER): (
        473.172115091,
        [
            (0.0224716165488, 10.5741305147),
            (0.0192934377371, 13.1357249424),
            (0.0197956835844, 12.3022762863),
        ],
    ),
    (600, Basis.BERNSTEIN): (
        471.353217986,
        [
            (0.0225251341169, 10.5192347714),
            (0.0193469553052, 13.0900792625),
            (0.0198492011525, 12.2845144359),
        ],
    ),
    (600, Basis.CHEBYSHEV): (
        461.882446129,
        [
            (0.0225791072872, 10.5521727783),
            (0.0194009284755, 13.1184858285),
            (0.0199031743228, 12.2977834189),
        ],
    ),
    (601, Basis.POWER): (
        494.212150712,
        [
            (0.0418569601613, 12.1432650438),
            (0.0502653068701, 14.3615657911),
        ],
    ),
    (601, Basis.BERNSTEIN): (
        484.736951613,
        [
            (0.0419639952975, 12.1528372325),
            (0.0503723420062, 14.3692473487),
        ],
    ),
    (601, Basis.CHEBYSHEV): (
        492.960732034,
        [
            (0.0420719416381, 12.1624953729),
            (0.0504802883469, 14.3769961935),
        ],
    ),
    (602, Basis.POWER): (
        691.054179381,
        [
            (0.015372392665, 12.5555185464),
            (0.00861798112992, 17.4468746511),
            (0.0225020990481, 25.3256765699),
        ],
    ),
    (602, Basis.BERNSTEIN): (
        675.325005619,
        [
            (0.0159324089826, 14.7877386942),
            (0.00864473991395, 17.4497101422),
            (0.0225556166162, 25.2415145303),
        ],
    ),
    (602, Basis.CHEBYSHEV): (
        674.078817184,
        [
            (0.0154798834033, 12.4960726527),
            (0.00867172649911, 17.4525699506),
            (0.022609589787, 25.2982014472),
        ],
    ),
    (603, Basis.POWER): (
        1105.1031577,
        [
            (0.0492797873281, 17.1833350123),
            (0.0282582423588, 14.7200642524),
            (0.0131528399449, 29.1343415073),
        ],
    ),
    (603, Basis.BERNSTEIN): (
        1088.67221769,
        [
            (0.0493868224642, 17.0564243827),
            (0.0283117599269, 14.4643492692),
            (0.0131795987289, 29.1150399264),
        ],
    ),
    (603, Basis.CHEBYSHEV): (
        1098.71399861,
        [
            (0.0494947688054, 17.1336078628),
            (0.0283657330972, 14.5906776055),
            (0.0132065853141, 29.1331133732),
        ],
    ),
    (604, Basis.POWER): (
        3278.58724006,
        [
            (0.00225258265443, 89.5382422423),
            (0.0622235892742, 11.2426646605),
        ],
    ),
    (604, Basis.BERNSTEIN): (
        3224.05878903,
        [
            (0.00225927235044, 89.536363032),
            (0.0623306244104, 11.184997065),
        ],
    ),
    (604, Basis.CHEBYSHEV): (
        3228.09303714,
        [
            (0.00226601899673, 89.5448099995),
            (0.062438570751, 11.1768209034),
        ],
    ),
}
# Zero locations rounded to 1e-10; every basis finds the same set.
PROTOCOL_ZEROS = {
    600: [
        (0.2300817687, 0.3056540255),
        (0.3474177957, 0.6718021139),
        (0.7541700415, 0.9151734842),
    ],
    601: [(0.4268943239, 0.2823360398), (0.8431481449, 0.0434859772)],
    602: [
        (0.5940032494, 0.8784805815),
        (0.8758581257, 0.0616948399),
        (0.961873543, 0.793342439),
    ],
    603: [
        (0.2055285032, 0.1061513805),
        (0.4501326003, 0.7946952496),
        (0.8022150189, 0.6959532572),
    ],
    604: [(0.2497006226, 0.1931637281), (0.9688377732, 0.5309723052)],
}


def affine_center_root():
    """F(x, y) = (x - 0.5, y - 0.5) on the unit square."""
    grid = np.zeros((2, 2, 2))
    grid[0, 0] = (-0.5, -0.5)
    grid[1, 0] = (1.0, 0.0)
    grid[0, 1] = (0.0, 1.0)
    return unit_power_system(grid)


def quad_pair():
    """F(x, y) = (x^2 - 0.25, y - 0.5): roots at x = +-0.5."""
    grid = np.zeros((3, 2, 2))
    grid[0, 0] = (-0.25, -0.5)
    grid[2, 0] = (1.0, 0.0)
    grid[0, 1] = (0.0, 1.0)
    return unit_power_system(grid)


def restricted_lipschitz_bound(f, jac_inv_at, ball):
    """Reference bound in canonical coordinates: restrict each second
    partial to the ball, mix the rows with jac_inv_at, and bound the
    restricted grids."""
    gu = derivative_bi(f, 0)
    gv = derivative_bi(f, 1)
    partials = (derivative_bi(gu, 0), derivative_bi(gu, 1), derivative_bi(gv, 1))
    row_sums = [0.0, 0.0]
    for g2, mult in zip(partials, (1.0, 2.0, 1.0)):
        c = reparametrize(g2, ball, allow_outside=True).coeffs
        for i in (0, 1):
            mixed = jac_inv_at[i, 0] * c[:, :, 0] + jac_inv_at[i, 1] * c[:, :, 1]
            lo, hi = bounding_interval_bi(f.basis, mixed)
            row_sums[i] += mult * max(abs(lo), abs(hi))
    return max(row_sums)


def unit_ball(basis, ball):
    """A canonical-coordinate ball mapped to the unit-square frame."""
    lo, hi = basis.domain
    s = hi - lo
    u0, v0 = ball.center
    return Patch(((u0 - lo) / s, (v0 - lo) / s), ball.half_width / s)


def random_patch_in_square(rng):
    r = rng.uniform(0.02, 0.3)
    return Patch((rng.uniform(r, 1 - r), rng.uniform(r, 1 - r)), r)


def report_counters(report):
    return (
        report.patches_examined,
        report.exclusion_passes,
        report.kantorovich_passes,
        report.skipped_subsumed,
        len(report.unresolved),
    )


def solve_signature(r):
    """Everything a solve reports, as exact values."""
    zeros = [
        (z.location.tobytes(), repr(z.rho_star), repr(z.omega_star), z.newton_iterations)
        for z in r.zeros
    ]
    return report_counters(r), repr(r.smallest_width), r.unresolved, zeros


def enclosure_excludes(basis, grid):
    """The full test: build the enclosure and ask it for the origin."""
    return not contains_origin(bounding_polytope(BivariateSystem(basis, grid)))


def degenerate_grids():
    """Grids on the edges of the one-component test: points and centres
    on an axis, the origin as a coefficient, all-zero generators, |c_00|
    exactly equal to the sum of the other |c_ij|, and the all-zero grid;
    each also mirrored and with its components swapped."""
    base = [
        np.zeros((1, 1, 2)),
        np.zeros((2, 3, 2)),
        np.array([[[0.0, 1.0]]]),
        np.array([[[0.0, 0.0], [1.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]]]),
        np.array([[[0.0, 1.0], [0.0, -1.0]], [[1.0, 0.5], [2.0, -0.5]]]),
        np.array([[[0.0, 1.0], [1.0, 2.0]], [[2.0, 0.5], [3.0, 1.5]]]),
        np.array([[[3.0, 0.5], [2.0, 0.25]], [[1.0, 0.25], [0.0, 0.0]]]),
        np.array([[[3.0, 0.5], [2.0, 0.25]], [[1.0, 0.125], [0.0, 0.0]]]),
        np.array([[[1.0, -2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        np.array([[[0.0, 5.0], [0.0, 1.0]], [[0.0, 2.0], [0.0, 2.0]]]),
    ]
    for g in base:
        for h in (g, -g, g[..., ::-1], -g[..., ::-1]):
            yield np.ascontiguousarray(h)


class TestExclusion:
    def test_constant_far_from_origin(self):
        """A constant nonzero map is excluded on any patch in every basis."""
        for basis in BASES:
            c = np.zeros((1, 1, 2))
            c[0, 0] = (3.0, -1.0)
            f = BivariateSystem(basis, c)
            assert exclusion_test(f, FULL)
            assert exclusion_test(f, Patch((0.25, 0.75), 0.125))

    def test_interior_root_not_excluded(self):
        assert not exclusion_test(affine_center_root(), FULL)

    def test_shifted_affine_excluded(self):
        """F = (x+2, y+2) stays away from zero, and the enclosure sees it."""
        grid = np.zeros((2, 2, 2))
        grid[0, 0] = (2.0, 2.0)
        grid[1, 0] = (1.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        assert exclusion_test(unit_power_system(grid), FULL)

    def test_one_component_test_agrees_with_enclosure(self):
        """The one-component test (one component's signs or axis sums)
        excludes only grids that the enclosure excludes, and exclusion_test
        gives the enclosure's answer on every grid."""
        rng = np.random.default_rng(86)
        for basis in BASES:
            f = BivariateSystem(basis, np.zeros((1, 1, 2)))  # only its basis is read
            early = late = 0
            for k in range(2000):
                m, n = rng.integers(0, 5, 2)
                g = rng.standard_normal((m + 1, n + 1, 2)) + rng.uniform(-4.0, 4.0, 2)
                if k % 2:  # small integers: exact ties and zero coefficients
                    g = np.round(g)
                want = enclosure_excludes(basis, g)
                assert exclusion_test(f, FULL, _grid=g) == want, (basis, g.tolist())
                if _excluded_by_one_component(basis, g):
                    assert want, (basis, g.tolist())
                    early += 1
                elif want:
                    late += 1
            assert early > 100 and late > 50, (basis, early, late)
            for g in degenerate_grids():
                want = enclosure_excludes(basis, g)
                assert exclusion_test(f, FULL, _grid=g) == want, (basis, g.tolist())
                assert want or not _excluded_by_one_component(basis, g), (basis, g.tolist())

    def test_screen_of_a_stack_matches_each_grid(self):
        """_excluded_by_one_component on a stack of grids gives each grid's
        own answer, in every basis at degrees 0-6, with exact ties and
        signed zeros."""
        rng = np.random.default_rng(87)
        for basis in BASES:
            for m in range(7):
                for n in range(7):
                    g = rng.standard_normal((40, m + 1, n + 1, 2)) + rng.uniform(-3.0, 3.0, 2)
                    g[::2] = np.round(g[::2])
                    draw = rng.random(g.shape)
                    g[draw < 0.2] = 0.0
                    g[draw > 0.9] = -0.0
                    got = _excluded_by_one_component(basis, g)
                    want = [bool(_excluded_by_one_component(basis, one)) for one in g]
                    assert got.tolist() == want, (basis, m, n)
                    nested = _excluded_by_one_component(basis, g.reshape(4, 10, m + 1, n + 1, 2))
                    assert nested.reshape(-1).tolist() == want, (basis, m, n)
            stack = np.array([d for d in degenerate_grids() if d.shape == (2, 2, 2)])
            want = [bool(_excluded_by_one_component(basis, one)) for one in stack]
            assert _excluded_by_one_component(basis, stack).tolist() == want, basis

    def test_soundness_against_grid(self):
        """An excluded patch never contains a small value of F."""
        rng = np.random.default_rng(70)
        g = np.linspace(0.0, 1.0, 41)
        excluded = 0
        for _ in range(100):
            basis = BASES[rng.integers(0, 3)]
            f = random_system(rng, basis, rng.integers(1, 4), rng.integers(1, 4))
            patch = random_patch_in_square(rng)
            if not exclusion_test(f, patch):
                continue
            excluded += 1
            lu, hu, lv, hv = patch.bounds()
            vals = eval_map_grid(f, lu + (hu - lu) * g, lv + (hv - lv) * g)
            assert np.min(np.max(np.abs(vals), axis=2)) > 0.0
        assert excluded > 10


class TestLipschitz:
    def test_affine_is_zero(self):
        rng = np.random.default_rng(71)
        for basis in BASES:
            if basis is Basis.BERNSTEIN:
                # integer control net of an affine map: exact corner identity
                c = rng.integers(-3, 4, (2, 2, 2)).astype(float)
                c[1, 1] = c[0, 1] + c[1, 0] - c[0, 0]
            else:
                c = rng.standard_normal((2, 2, 2))
                c[1, 1] = 0.0
            f = BivariateSystem(basis, c)
            ball = Patch((0.3, 0.3), 0.2) if basis is Basis.BERNSTEIN else Patch((0.0, 0.0), 0.5)
            assert lipschitz_bound(f, np.eye(2), ball) == 0.0

    def test_separable_quadratic_pin(self):
        """g = (u^2, v) with unit jac_inv: its unit-square map
        F(x, y) = ((2x - 1)^2, 2y - 1) has F_xx = 8 = 2^2 * 2, a constant bound."""
        c = np.zeros((3, 2, 2))
        c[2, 0] = (1.0, 0.0)
        c[0, 1] = (0.0, 1.0)
        g = BivariateSystem(Basis.POWER, c)
        got = lipschitz_bound(g, np.eye(2), unit_ball(Basis.POWER, Patch((0.5, 0.5), 0.1)))
        assert got == 8.0

    def test_matches_restricted_reference(self):
        """The Taylor-grid bound equals the bound of the restricted partials,
        for centres inside and outside the canonical square, including
        degrees where the three partials' grids differ most in shape. The
        bound is in the unit frame, so the canonical ball is mapped there
        and the canonical reference scaled by s^2, s the side of the
        canonical square."""
        rng = np.random.default_rng(83)
        degrees = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
        degrees += [(1, 1), (1, 4), (4, 1), (5, 2), (6, 6)]
        for basis in BASES:
            lo, hi = basis.domain
            s = hi - lo
            for m, n in degrees:
                f = random_system(rng, basis, m, n)
                jac_inv = rng.standard_normal((2, 2))
                for r in (1e-3, 0.02, 0.3, 1.0, 4.0):
                    center = tuple(rng.uniform(lo - 1.0, hi + 1.0, 2))
                    ball = Patch(center, r)
                    got = lipschitz_bound(f, jac_inv, unit_ball(basis, ball))
                    want = s**2 * restricted_lipschitz_bound(f, jac_inv, ball)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (basis, m, n)

    def test_one_enclosure_call_per_bound(self, monkeypatch):
        """All three partials and both Jacobian-inverse rows are bounded
        by a single batched bounding_interval_bi call."""
        import ktsolve.solver

        calls = []

        def counting(basis, grid):
            calls.append(np.shape(grid))
            return bounding_interval_bi(basis, grid)

        monkeypatch.setattr(ktsolve.solver, "bounding_interval_bi", counting)
        rng = np.random.default_rng(84)
        for basis in BASES:
            for m, n in ((1, 1), (3, 2), (4, 4)):
                calls.clear()
                lipschitz_bound(random_system(rng, basis, m, n), np.eye(2), Patch((0.1, 0.2), 0.3))
                assert len(calls) == 1, (basis, m, n)
                assert calls[0][:2] == (3, 2)

    def test_centre_curvature_is_below_the_bound(self):
        """omega_0, the row sum at the ball's centre, is at most the
        enclosure bound over the ball and is that bound's limit as the
        ball shrinks, for random jac_inv and balls at degrees (1, 1) to
        (4, 4); affine maps give 0 for both."""
        rng = np.random.default_rng(85)
        for basis in BASES:
            for m in range(1, 5):
                for n in range(1, 5):
                    f = random_system(rng, basis, m, n)
                    fr = _Frame(f)
                    for _ in range(4):
                        jac_inv = rng.standard_normal((2, 2))
                        ball = Patch(tuple(rng.uniform(-0.5, 1.5, 2)), rng.uniform(1e-3, 1.0))
                        omega0 = fr.curvature_at(jac_inv, ball.center)
                        bound = lipschitz_bound(f, jac_inv, ball, _frame=fr)
                        assert 0.0 < omega0 <= bound * (1.0 + 1e-12), (basis, m, n)
                        dot = Patch(ball.center, 1e-12)  # omega_0 is the r -> 0 limit
                        limit = lipschitz_bound(f, jac_inv, dot, _frame=fr)
                        assert omega0 == pytest.approx(limit, rel=1e-8), (basis, m, n)
            if basis is Basis.BERNSTEIN:  # exact corner identity, as in test_affine_is_zero
                c = rng.integers(-3, 4, (2, 2, 2)).astype(float)
                c[1, 1] = c[0, 1] + c[1, 0] - c[0, 0]
            else:
                c = rng.standard_normal((2, 2, 2))
                c[1, 1] = 0.0
            f = BivariateSystem(basis, c)
            jac_inv = rng.standard_normal((2, 2))
            ball = Patch((0.3, 0.6), 0.2)
            assert _Frame(f).curvature_at(jac_inv, ball.center) == 0.0, basis
            assert lipschitz_bound(f, jac_inv, ball) == 0.0, basis

    def test_cap_contract(self, monkeypatch):
        """With omega_0 <= _cap the result is the uncapped bound, byte for
        byte, from one enclosure; with omega_0 > _cap it is omega_0, above
        the cap, and bounding_interval_bi is not called."""
        import ktsolve.solver

        calls = []

        def counting(basis, grid):
            calls.append(np.shape(grid))
            return bounding_interval_bi(basis, grid)

        monkeypatch.setattr(ktsolve.solver, "bounding_interval_bi", counting)
        rng = np.random.default_rng(86)
        for basis in BASES:
            for m, n in ((1, 1), (2, 3), (4, 4)):
                f = random_system(rng, basis, m, n)
                fr = _Frame(f)
                jac_inv = rng.standard_normal((2, 2))
                ball = Patch(tuple(rng.uniform(0.0, 1.0, 2)), rng.uniform(0.01, 0.3))
                uncapped = lipschitz_bound(f, jac_inv, ball, _frame=fr)
                omega0 = fr.curvature_at(jac_inv, ball.center)
                assert omega0 > 0.0
                for cap in (omega0, 2.0 * uncapped, math.inf):
                    calls.clear()
                    got = lipschitz_bound(f, jac_inv, ball, _frame=fr, _cap=cap)
                    assert np.float64(got).tobytes() == np.float64(uncapped).tobytes()
                    assert len(calls) == 1, (basis, m, n, cap)
                for cap in (0.5 * omega0, 0.0):
                    calls.clear()
                    got = lipschitz_bound(f, jac_inv, ball, _frame=fr, _cap=cap)
                    assert got > cap and got == omega0, (basis, m, n, cap)
                    assert not calls, (basis, m, n, cap)

    def test_dominates_sampled_quotients(self):
        """Bound is above every sampled difference quotient of jac_inv F',
        F' the Jacobian of the unit-square map."""
        rng = np.random.default_rng(72)
        for basis in BASES:
            lo, hi = basis.domain
            s = hi - lo
            for _ in range(10):
                f = random_system(rng, basis, 3, 3)
                gu = derivative_bi(f, 0)
                gv = derivative_bi(f, 1)
                r = rng.uniform(0.05, 0.2) / 2
                cu = rng.uniform(r, 1.0 - r)
                cv = rng.uniform(r, 1.0 - r)
                jac_inv = rng.standard_normal((2, 2))
                bound = lipschitz_bound(f, jac_inv, Patch((cu, cv), r))

                def jac(pt):
                    t = lo + s * pt
                    ju = eval_bi(gu, t[0], t[1])
                    jv = eval_bi(gv, t[0], t[1])
                    return s * np.array([[ju[0], jv[0]], [ju[1], jv[1]]])

                worst = 0.0
                for _ in range(500):
                    y = np.array([cu, cv]) + rng.uniform(-r, r, 2)
                    z = np.array([cu, cv]) + rng.uniform(-r, r, 2)
                    gap = float(np.max(np.abs(y - z)))
                    if gap < 1e-12:
                        continue
                    diff = jac_inv @ (jac(y) - jac(z))
                    worst = max(worst, float(np.max(np.sum(np.abs(diff), axis=1))) / gap)
                assert bound >= worst * (1 - 1e-9)


class TestKantorovich:
    def test_affine_root_at_center(self):
        """Root at the patch center: eta = omega = 0, immediate pass."""
        out = kantorovich_test(affine_center_root(), FULL)
        assert out.passed
        assert out.eta == 0.0
        assert out.omega == 0.0
        assert out.ball_in_dprime

    def test_constant_map_is_singular(self):
        c = np.zeros((1, 1, 2))
        c[0, 0] = (1.0, 1.0)
        out = kantorovich_test(BivariateSystem(Basis.POWER, c), FULL)
        assert not out.passed
        assert math.isinf(out.eta)
        assert not out.ball_in_dprime

    def test_certifies_near_simple_root(self):
        """Near (0.5, 0.5) the quadratic pair passes and Newton lands on it."""
        f = quad_pair()
        out = kantorovich_test(f, Patch((0.6, 0.6), 0.1))
        assert out.passed
        assert out.eta * out.omega <= 0.25
        loc, _ = newton(f, (0.6, 0.6))
        assert np.max(np.abs(loc - [0.5, 0.5])) < 1e-10

    def test_kantorovich_ball_must_lie_where_omega_holds(self):
        """The theorem's premise: the ball of radius rho_minus about the
        centre lies in the ball of radius R = 2 gamma hw where omega holds.
        An affine map has omega = 0 and rho_minus = eta, so a small patch
        a distance 0.1 from the root meets every other clause and fails on
        this one alone."""
        x = Patch((0.4, 0.5), 2**-6)
        out = kantorovich_test(affine_center_root(), x)
        assert out.radius == 2.0 * gamma(theta(Basis.POWER, 1, 1)) * 2**-6
        assert out.omega == 0.0 and out.eta * out.omega <= 0.25 and out.ball_in_dprime
        assert out.rho_minus == out.eta > out.radius
        assert not out.passed

    def test_soundness(self):
        """A pass means Newton converges within rho_minus of the center."""
        rng = np.random.default_rng(73)
        passes = cases = 0
        while cases < 100:
            basis = BASES[rng.integers(0, 3)]
            f = random_system(rng, basis, rng.integers(1, 4), rng.integers(1, 4))
            # try patches near a polished zero as well as blind ones
            candidates = [random_patch_in_square(rng)]
            hit = newton(f, rng.uniform(0.1, 0.9, 2))
            if hit is not None and np.all((hit[0] > 0.1) & (hit[0] < 0.9)):
                r = rng.uniform(0.005, 0.06)
                candidates.append(Patch(tuple(hit[0] + rng.uniform(-r, r, 2) / 4), r))
            for patch in candidates:
                cases += 1
                out = kantorovich_test(f, patch)
                if not out.passed:
                    continue
                passes += 1
                assert out.eta * out.omega <= 0.25
                assert out.ball_in_dprime
                result = newton(f, patch.center)
                assert result is not None
                loc, _ = result
                dist = float(np.max(np.abs(loc - np.asarray(patch.center))))
                assert dist <= out.rho_minus + 1e-9
        assert passes > 10

    def test_centre_exit_never_flips_a_verdict(self, monkeypatch):
        """Every patch a solve hands to kantorovich_test gets the verdict it
        gets with an uncapped lipschitz_bound, on protocol systems 600-619
        and the near-coincident system in every basis. A test not decided
        at the centre returns the same outcome; one decided there reports
        omega_0, at most the full bound."""
        import ktsolve.solver

        def uncapped(f, jac_inv, ball, *, _frame=None, _cap=math.inf):
            return lipschitz_bound(f, jac_inv, ball, _frame=_frame)

        systems = [protocol_system(seed) for seed in range(600, 620)]
        cases = []
        for g in systems + [near_coincident_system()]:
            for basis in BASES:
                f = convert(g, basis)
                fr = _Frame(f)
                for patch in kantorovich_patches(f):
                    cases.append((f, fr, patch, kantorovich_test(f, patch, _frame=fr)))
        monkeypatch.setattr(ktsolve.solver, "lipschitz_bound", uncapped)
        exits = passes = 0
        for f, fr, patch, capped in cases:
            full = kantorovich_test(f, patch, _frame=fr)
            assert capped.passed == full.passed, (f.basis, patch)
            assert capped.eta == full.eta
            if capped.omega == full.omega:
                assert capped == full
            else:
                exits += 1
                assert not full.passed
                assert capped.omega <= full.omega * (1.0 + 1e-12)
                assert capped.eta * capped.omega > 0.25
            passes += full.passed
        assert exits > len(cases) // 2 and passes > 0


class TestNewton:
    def test_zero_iterations_at_root(self):
        """Residual is checked before stepping, so a root returns at once."""
        loc, iters = newton(affine_center_root(), (0.5, 0.5))
        assert iters == 0
        assert np.allclose(loc, [0.5, 0.5], atol=1e-15)

    def test_quadratic_convergence(self):
        loc, iters = newton(quad_pair(), (0.6, 0.6))
        assert np.max(np.abs(loc - [0.5, 0.5])) < 1e-12
        assert iters <= 8

    def test_rootless_component_diverges(self):
        """F = (x^2 + 1, y) has no real zero; the iteration signals it."""
        grid = np.zeros((3, 2, 2))
        grid[0, 0] = (1.0, 0.0)
        grid[2, 0] = (1.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        assert newton(unit_power_system(grid), (0.3, 0.7)) is None

    def test_residual_meets_tolerance(self):
        rng = np.random.default_rng(74)
        cfg = SolverConfig()
        hits = 0
        for _ in range(30):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
            result = newton(f, rng.uniform(0.2, 0.8, 2), cfg)
            if result is None:
                continue
            hits += 1
            loc, _ = result
            resid = float(np.max(np.abs(eval_map(f, loc[0], loc[1]))))
            assert resid <= cfg.newton_tol * (1.0 + f.max_coeff_norm())
        assert hits > 5


class TestValueAndJacobian:
    def test_matches_separate_evaluations(self):
        """One evaluation of [f, f_u, f_v] gives F and F' as the separate
        grids do: bit for bit in power and Chebyshev form, where padding
        adds zero leading coefficients, and to rounding in Bernstein form,
        where the partials are degree-elevated. Points leave the unit
        square, as Newton iterates do."""
        rng = np.random.default_rng(87)
        corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-0.25, 1.25]])
        for basis in BASES:
            for m in range(7):
                for n in range(7):
                    f = random_system(rng, basis, m, n)
                    fr = _Frame(f)
                    scale = max(np.max(np.abs(fr.fu.coeffs)), np.max(np.abs(fr.fv.coeffs)))
                    for x in np.concatenate((corners, rng.uniform(-0.25, 1.25, (8, 2)))):
                        val, jac = fr.value_and_jacobian(x)
                        t = fr.canon(x)
                        want_val = eval_bi(f, *t)
                        ju, jv = eval_bi(fr.fu, *t), eval_bi(fr.fv, *t)
                        want_jac = np.array([[ju[0], jv[0]], [ju[1], jv[1]]])
                        assert np.array_equal(val, want_val), (basis, m, n, x)
                        if basis is Basis.BERNSTEIN:
                            err = np.max(np.abs(jac - want_jac))
                            assert err <= 1e-14 * scale, (m, n, x, err)
                        else:
                            assert np.array_equal(jac, want_jac), (basis, m, n, x)

    def test_first_six_values_match_a_six_column_grid(self):
        """F and F' from the 12-column grid are, bit for bit, what the
        6-column grid [f, f_u, f_v] gives (Bernstein partials raised one
        degree, the others zero-padded), at points in and outside the
        square in each basis; and they come back read-only."""

        def elevate_once(c, k1):
            if c.shape[0] == k1:
                return c
            w = (np.arange(k1) / (k1 - 1))[:, None, None]
            out = np.zeros((k1,) + c.shape[1:])
            out[1:] = w[1:] * c
            out[:-1] += (1.0 - w[:-1]) * c
            return out

        rng = np.random.default_rng(89)
        for basis in BASES:
            for m in range(6):
                for n in range(6):
                    fr = _Frame(random_system(rng, basis, m, n))
                    fu, fv = fr.fu.coeffs, fr.fv.coeffs
                    if basis is Basis.BERNSTEIN:
                        fu = elevate_once(fu, m + 1)
                        fv = elevate_once(fv.swapaxes(0, 1), n + 1).swapaxes(0, 1)
                    six = np.zeros((m + 1, n + 1, 6))
                    six[..., :2] = fr.f.coeffs
                    six[: fu.shape[0], :, 2:4] = fu
                    six[:, : fv.shape[1], 4:] = fv
                    for x in rng.uniform(-0.25, 1.25, (6, 2)):
                        want = eval_bi(BivariateSystem(basis, six), *fr.canon(x))
                        val, jac = fr.value_and_jacobian(x)
                        assert val.tobytes() == want[:2].tobytes(), (basis, m, n, x)
                        assert jac.tobytes() == want[2:].reshape(2, 2).T.tobytes()
                        assert not (val.flags.writeable or jac.flags.writeable)

    def test_second_partials_match_their_own_grids(self):
        """The last six values are F'' as the separate second-partial grids
        give it: bit for bit in power and Chebyshev form, to rounding in
        Bernstein form, where the partials are raised up to two degrees."""
        rng = np.random.default_rng(90)
        for basis in BASES:
            for m in range(6):
                for n in range(6):
                    fr = _Frame(random_system(rng, basis, m, n))
                    scale = max(np.max(np.abs(g.coeffs)) for g in fr.second_partials)
                    for x in rng.uniform(-0.25, 1.25, (6, 2)):
                        got = fr._evaluate(x)[6:]
                        t = fr.canon(x)
                        want = np.concatenate([eval_bi(g, *t) for g in fr.second_partials])
                        if basis is Basis.BERNSTEIN:
                            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (m, n, x)
                        else:
                            assert got.tobytes() == want.tobytes(), (basis, m, n, x)

    def test_curvature_elsewhere_matches_a_fresh_frame(self):
        """A frame remembers only its last point: after evaluating at x,
        curvature_at at y != x gives what a fresh frame gives at y, and
        asking at x again gives x's value once more."""
        rng = np.random.default_rng(91)
        for basis in BASES:
            f = random_system(rng, basis, 3, 4)
            for _ in range(20):
                x, y = rng.uniform(0.0, 1.0, (2, 2))
                inv = rng.standard_normal((2, 2))
                fr = _Frame(f)
                fr.value_and_jacobian(x)
                at_x = fr.curvature_at(inv, tuple(x))
                assert fr.curvature_at(inv, tuple(y)) == _Frame(f).curvature_at(inv, tuple(y))
                assert fr.curvature_at(inv, x) == at_x == _Frame(f).curvature_at(inv, x)

    def test_solver_needs_two_components(self):
        """Grids may hold any number of components; the solver takes two."""
        rng = np.random.default_rng(88)
        for basis in BASES:
            for d in (1, 3):
                f = BivariateSystem(basis, rng.standard_normal((3, 3, d)))
                with pytest.raises(ValueError, match="2-component"):
                    kts_solve(f)


def closed_form_radius(x, outcome, zero):
    """min(rho_plus, R) - |zero - x0| with rho_plus = (1 + sqrt(1 - 2h)) / omega,
    and whether rho_plus <= R, where the uniqueness ball is open."""
    eta, omega = outcome.eta, outcome.omega
    rho_plus = (1.0 + math.sqrt(1.0 - 2.0 * eta * omega)) / omega if omega else math.inf
    d = float(np.max(np.abs(np.asarray(zero) - np.asarray(x.center))))
    return min(rho_plus, outcome.radius) - d, rho_plus <= outcome.radius


def assert_radius_matches(rho, omega, x, outcome, zero):
    """rho is the closed form, >= 0: a few ulps below it where the ball is
    open or where rounding left its product with omega above 2, and equal
    to it otherwise."""
    want, open_ball = closed_form_radius(x, outcome, zero)
    assert omega == outcome.omega
    assert 0.0 <= rho and rho * omega <= 2.0
    if open_ball or want * omega > 2.0:
        assert want - 4.0 * math.ulp(want) <= rho < want
    else:
        assert rho == want


class TestRhoStar:
    """rho_star reads the radius off the Kantorovich test that certified
    the zero: r = min(rho_plus, R) - |zero - x0|."""

    def test_affine_caps(self):
        """omega = 0 makes rho_plus infinite, so R caps the radius. With
        the root at the unit square's centre, d = 0 and r = R = gamma; off
        the centre, r = R - d."""
        f = affine_center_root()
        out = kantorovich_test(f, FULL)
        rho, omega = rho_star(FULL, out, (0.5, 0.5))
        assert (rho, omega) == (1.0004880430639678, 0.0)
        assert rho == out.radius == gamma(theta(Basis.POWER, 1, 1))
        x = Patch((0.4375, 0.5625), 0.125)
        out = kantorovich_test(f, x)
        rho, omega = rho_star(x, out, (0.5, 0.5))
        assert (rho, omega) == (out.radius - 0.0625, 0.0)

    def test_zero_on_the_edge_of_a_ball_is_reported(self):
        """F = ((x - 1/4)(x - 3/4), y - 1/4): at (1/4, 1/4) eta = 0 and omega
        = 4, so rho_plus = 1/2 is exactly the distance to the other zero.
        The uniqueness ball is open there, so each zero's radius stays
        below 1/2 and neither is taken for the other."""
        grid = np.zeros((3, 2, 2))
        grid[0, 0] = (0.1875, -0.25)
        grid[1, 0] = (-1.0, 0.0)
        grid[2, 0] = (1.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        report = kts_solve(unit_power_system(grid))
        got = [(tuple(z.location), z.rho_star, z.omega_star) for z in report.zeros]
        below = math.nextafter(0.5, 0.0)
        assert got == [((0.25, 0.25), below, 4.0), ((0.75, 0.25), below, 4.0)]

    def test_closed_form(self):
        """Near the quadratic pair's zero (0.5, 0.5) the radius is the
        closed form over the test's numbers, rho * omega <= 2, and the
        ball leaves out the other zero (-0.5, 0.5)."""
        f = quad_pair()
        for x in (Patch((0.6, 0.6), 0.1), Patch((0.52, 0.47), 0.05), FULL):
            out = kantorovich_test(f, x)
            assert out.passed, x
            zero, _ = newton(f, x.center)
            rho, omega = rho_star(x, out, zero)
            assert_radius_matches(rho, omega, x, out, zero)
            assert rho > float(np.max(np.abs(zero - [0.5, 0.5])))
            assert rho < float(np.max(np.abs(zero - [-0.5, 0.5])))

    def test_failing_test_certifies_no_radius(self):
        f = quad_pair()
        x = Patch((0.25, 0.25), 0.25)
        out = kantorovich_test(f, x)
        assert not out.passed
        with pytest.raises(ValueError, match="passing Kantorovich test"):
            rho_star(x, out, (0.5, 0.5))

    def test_scale_invariance(self):
        """Scaling F by 10 leaves the certified radius unchanged."""
        f = quad_pair()
        scaled = BivariateSystem(f.basis, 10.0 * f.coeffs)
        x = Patch((0.6, 0.6), 0.1)
        r1, w1 = rho_star(x, kantorovich_test(f, x), newton(f, x.center)[0])
        r2, w2 = rho_star(x, kantorovich_test(scaled, x), newton(scaled, x.center)[0])
        assert abs(r1 - r2) < 1e-9
        assert abs(w1 - w2) < 1e-9


class TestKtsSolve:
    def test_constant_excludes_root_patch(self):
        c = np.zeros((1, 1, 2))
        c[0, 0] = (1.0, 1.0)
        report = kts_solve(BivariateSystem(Basis.POWER, c))
        assert report.zeros == []
        assert report.patches_examined == 1
        assert report.exclusion_passes == 1
        assert report.smallest_width == 1.0

    def test_affine_interior_root(self):
        """One certified zero, found at the first patch, covering children."""
        report = kts_solve(affine_center_root())
        assert len(report.zeros) == 1
        z = report.zeros[0]
        assert np.max(np.abs(z.location - [0.5, 0.5])) < 1e-10
        assert z.rho_star == gamma(theta(Basis.POWER, 1, 1)) == 1.0004880430639678
        assert z.omega_star == 0.0
        assert z.newton_iterations == 0
        assert report.patches_examined == 5
        assert report.skipped_subsumed == 4
        assert not report.unresolved

    def test_root_outside_square(self):
        """F = (x-2, y-2): every patch is excluded, nothing unresolved."""
        grid = np.zeros((2, 2, 2))
        grid[0, 0] = (-2.0, -2.0)
        grid[1, 0] = (1.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        report = kts_solve(unit_power_system(grid))
        assert report.zeros == []
        assert not report.unresolved
        assert report.exclusion_passes > 0

    def test_two_roots_on_axis(self):
        """The quadratic pair has zeros at x = 0.5 only inside the square."""
        report = kts_solve(quad_pair())
        locs = sorted_zero_locations(report)
        assert len(locs) == 1
        assert np.max(np.abs(locs[0] - [0.5, 0.5])) < 1e-10

    def test_matches_grid_oracle(self):
        """Zero sets agree with a dense scan plus Newton polish."""
        rng = np.random.default_rng(75)
        for _ in range(10):
            f = random_system(rng, Basis.CHEBYSHEV, 2, 2)
            report = kts_solve(f)
            assert not report.unresolved
            got = sorted_zero_locations(report)
            want = reference_zeros(f)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) < 1e-8

    def test_no_duplicates(self):
        rng = np.random.default_rng(76)
        for _ in range(10):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
            locs = sorted_zero_locations(kts_solve(f))
            for i in range(len(locs)):
                for j in range(i + 1, len(locs)):
                    assert np.max(np.abs(locs[i] - locs[j])) >= 1e-6

    def test_determinism(self):
        """Identical inputs yield bit-identical reports."""
        rng = np.random.default_rng(77)
        f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
        a, b = kts_solve(f), kts_solve(f)
        assert a.patches_examined == b.patches_examined
        assert a.smallest_width == b.smallest_width
        assert len(a.zeros) == len(b.zeros)
        for za, zb in zip(a.zeros, b.zeros):
            assert za.location.tobytes() == zb.location.tobytes()
            assert repr(za.rho_star) == repr(zb.rho_star)
            assert repr(za.omega_star) == repr(zb.omega_star)

    def test_basis_agreement(self):
        """Chebyshev, power, and Bernstein runs find the same zero set."""
        rng = np.random.default_rng(78)
        for _ in range(5):
            f = random_system(rng, Basis.CHEBYSHEV, rng.integers(2, 5), rng.integers(2, 5))
            reports = [kts_solve(f)] + [
                kts_solve(convert(f, b)) for b in (Basis.POWER, Basis.BERNSTEIN)
            ]
            sets = [sorted_zero_locations(r) for r in reports]
            assert len(sets[0]) == len(sets[1]) == len(sets[2])
            for locs in sets[1:]:
                for a, b in zip(sets[0], locs):
                    assert np.max(np.abs(a - b)) < 1e-7

    def test_no_zero_escapes(self):
        """Every oracle zero is matched by a reported one."""
        rng = np.random.default_rng(79)
        for _ in range(10):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 2)
            got = sorted_zero_locations(kts_solve(f))
            for w in reference_zeros(f):
                assert any(np.max(np.abs(w - g)) < 1e-8 for g in got)

    def test_queue_conservation(self):
        """Dequeued patches split into the four classified outcomes."""
        rng = np.random.default_rng(80)
        for _ in range(5):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
            r = kts_solve(f)
            classified = r.exclusion_passes + r.skipped_subsumed + len(r.unresolved)
            subdivided = r.patches_examined - classified
            assert r.patches_examined == 1 + 4 * subdivided

    def test_zero_record_certificates(self):
        """rho*, omega* are the closed form over the certifying test's
        numbers, with rho* >= 0 and rho* omega* <= 2; tiny residuals."""
        rng = np.random.default_rng(81)
        cfg = SolverConfig()
        for _ in range(5):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
            report, calls = certified_balls(f)
            for z in report.zeros:
                resid = np.max(np.abs(eval_map(f, z.location[0], z.location[1])))
                assert resid <= cfg.newton_tol * (1.0 + f.max_coeff_norm())
                (x, outcome, zero), = (c for c in calls if c[2] == tuple(z.location))
                assert_radius_matches(z.rho_star, z.omega_star, x, outcome, zero)

    def test_certificates_satisfy_their_inequality(self):
        """Every reported zero keeps rho * omega <= 2 as computed."""
        for seed in range(600, 610):
            f = protocol_system(seed)
            for basis in BASES:
                for z in kts_solve(convert(f, basis)).zeros:
                    assert z.rho_star * z.omega_star <= 2.0, (seed, basis, z)

    def test_balls_hold_one_reference_zero(self):
        """Protocol systems 600-619 in every basis: each reported ball
        B(L, rho*) holds exactly one reference_zeros zero, and rho* is the
        closed form over the outcome of the test that certified it, whose
        omega holds on R = 2 gamma hw about the patch's centre and whose
        Kantorovich ball lies there."""
        for seed in range(600, 620):
            g = protocol_system(seed)
            want = np.array(reference_zeros(g)).reshape(-1, 2)
            for basis in BASES:
                f = convert(g, basis)
                two_gamma = 2.0 * gamma(theta(basis, f.degree_u, f.degree_v))
                report, calls = certified_balls(f)
                for z in report.zeros:
                    (x, outcome, zero), = (c for c in calls if c[2] == tuple(z.location))
                    assert outcome.radius == two_gamma * x.half_width
                    assert outcome.rho_minus <= outcome.radius
                    assert_radius_matches(z.rho_star, z.omega_star, x, outcome, zero)
                    inside = np.max(np.abs(want - z.location), axis=1) <= z.rho_star
                    assert np.count_nonzero(inside) == 1, (seed, basis, z)

    def test_protocol_fingerprints(self):
        """Counters, zero sets and certificates of the protocol systems stay
        as recorded."""

        def sig12(v):
            return float(f"{v:.12g}")

        for (seed, basis), counters in PROTOCOL_COUNTERS.items():
            f = convert(protocol_system(seed), basis)
            r = kts_solve(f)
            got = (
                r.patches_examined,
                r.exclusion_passes,
                r.kantorovich_passes,
                r.skipped_subsumed,
                len(r.unresolved),
            )
            assert got == counters, (seed, basis)
            zeros = sorted(
                (round(float(z.location[0]), 10), round(float(z.location[1]), 10))
                for z in r.zeros
            )
            assert zeros == PROTOCOL_ZEROS[seed], (seed, basis)
            by_location = sorted(r.zeros, key=lambda z: (z.location[0], z.location[1]))
            certs = [(sig12(z.rho_star), sig12(z.omega_star)) for z in by_location]
            cond = sig12(condition_estimate(f, r.zeros))
            assert (cond, certs) == PROTOCOL_CERTIFICATES[seed, basis], (seed, basis)

    def test_restricts_once_per_solve(self, monkeypatch):
        """Patches carry their grids down, so only the root is restricted.
        That one call is the identity in every basis (the whole canonical
        square); it is kept so that a traced solve still reaches the
        restriction layer."""
        import ktsolve.solver

        calls = []

        def counting(f, x, allow_outside=False):
            calls.append(x)
            return reparametrize(f, x, allow_outside)

        monkeypatch.setattr(ktsolve.solver, "reparametrize", counting)
        for basis in BASES:
            calls.clear()
            r = kts_solve(convert(protocol_system(600), basis))
            assert r.patches_examined > 1
            assert len(calls) == 1, basis

    def test_near_coincident_builds_no_lipschitz_enclosure(self, monkeypatch):
        """On the zero-free near-coincident system every Kantorovich test
        with a non-singular Jacobian still calls lipschitz_bound once, and
        the centre's curvature decides each of them, so no enclosure is
        built."""
        import ktsolve.solver

        calls = Counter()

        def counting(name):
            fn = getattr(ktsolve.solver, name)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name] += 1
                # a singular Jacobian (eta = inf) fails before any bound
                if name == "kantorovich_test" and math.isfinite(result.eta):
                    calls["non-singular"] += 1
                return result

            return counted

        for name in ("kantorovich_test", "lipschitz_bound", "bounding_interval_bi"):
            monkeypatch.setattr(ktsolve.solver, name, counting(name))
        for basis in BASES:
            calls.clear()
            r = kts_solve(convert(near_coincident_system(), basis))
            assert not r.zeros and not r.unresolved, basis
            assert calls["kantorovich_test"] > 0, basis
            assert calls["lipschitz_bound"] == calls["non-singular"], basis
            assert calls["bounding_interval_bi"] == 0, basis

    def test_near_coincident_evaluates_once_per_depth(self, monkeypatch):
        """On the near-coincident system each depth that reaches a
        Kantorovich test evaluates the frame's grid once, at an array of
        centres, and each centre's values have the bits of an evaluation
        at that centre alone. That one evaluation also gives each centre's
        curvature, and no basis conversion runs inside the solve."""
        import ktsolve.solver

        calls = Counter()
        depths = set()
        evaluations = []

        def counting(name):
            fn = getattr(ktsolve.solver, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "kantorovich_test":
                    depths.add(args[1].half_width)
                elif name == "eval_bi":
                    evaluations.append((args, result))
                return result

            return counted

        for name in ("kantorovich_test", "eval_bi", "convert", "conversion_matrix"):
            monkeypatch.setattr(ktsolve.solver, name, counting(name))
        for basis in BASES:
            f = convert(near_coincident_system(), basis)
            calls.clear()
            depths.clear()
            evaluations.clear()
            kts_solve(f)
            assert calls["kantorovich_test"] > 2 * len(depths) > 2, (basis, calls)
            assert calls["eval_bi"] == len(depths), (basis, calls)
            assert calls["convert"] == calls["conversion_matrix"] == 0, (basis, calls)
            for (system, u, v), out in evaluations:
                assert out.shape == (len(u), 12)
                for k in range(len(u)):
                    assert out[k].tobytes() == eval_bi(system, u[k], v[k]).tobytes(), basis

    def test_warm_matrix_caches_change_no_solve(self):
        """A solve that builds its conversion and halving matrices and one
        that finds them cached agree bit for bit."""
        for basis in BASES:
            f = convert(protocol_system(603), basis)
            _conversion_matrix.cache_clear()
            _halving_matrices.cache_clear()
            cold = kts_solve(f)
            assert _halving_matrices.cache_info().misses > 0, basis
            warm = kts_solve(f)
            assert len(cold.zeros) == 3, basis
            assert solve_signature(warm) == solve_signature(cold), basis

    def test_tiny_system_keeps_its_zero(self):
        """Scaling F by 1e-12 changes no decision: the singular-Jacobian
        test and Newton's residual test both scale with the system."""
        c = np.random.default_rng(5).standard_normal((3, 3, 2))
        cfg = SolverConfig(min_half_width=2**-12)
        for basis in BASES:
            base = kts_solve(convert(BivariateSystem(Basis.CHEBYSHEV, c), basis), cfg)
            tiny = kts_solve(convert(BivariateSystem(Basis.CHEBYSHEV, 1e-12 * c), basis), cfg)
            assert len(base.zeros) == 1 and not base.unresolved, basis
            assert report_counters(tiny) == report_counters(base), basis
            got, want = sorted_zero_locations(tiny), sorted_zero_locations(base)
            assert len(got) == len(want), basis
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12, basis

    @pytest.mark.parametrize("k", [40, -40, 400, -400, 1000, -1000])
    def test_power_of_two_scale_changes_nothing(self, k):
        """F times 2**k gives the unscaled solve bit for bit, also where
        products of two coefficients would overflow (k = 1000) or underflow
        (k = -1000) without the solver's own scaling."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(600, 605):
                for basis in BASES:
                    f = convert(protocol_system(seed), basis)
                    scaled = kts_solve(BivariateSystem(basis, np.ldexp(f.coeffs, k)))
                    assert solve_signature(scaled) == solve_signature(kts_solve(f)), (seed, basis)

    @pytest.mark.parametrize("s", [1.7e308, 1e-300])
    def test_extreme_magnitude_solves_as_unit_scale(self, s):
        """A grid of entries +-s near either float limit is solved as the
        same grid scaled by a power of two to unit size, with no warning.
        Both give the +-1 grid's counters and its zeros to a few ulps (s is
        no power of two, so the unit-size grids differ in rounding)."""
        signs = np.where(np.random.default_rng(0).random((4, 4, 2)) < 0.5, -1.0, 1.0)
        cfg = SolverConfig(min_half_width=2**-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            unit = kts_solve(BivariateSystem(Basis.CHEBYSHEV, signs), cfg)
            got = kts_solve(BivariateSystem(Basis.CHEBYSHEV, s * signs), cfg)
            unit_size = np.ldexp(s * signs, -math.frexp(s)[1])
            want = kts_solve(BivariateSystem(Basis.CHEBYSHEV, unit_size), cfg)
        assert report_counters(unit) == (81, 53, 3, 8, 0) and len(unit.zeros) == 3
        assert solve_signature(got) == solve_signature(want)
        assert report_counters(got) == report_counters(unit)
        for g, u in zip(sorted_zero_locations(got), sorted_zero_locations(unit)):
            assert np.max(np.abs(g - u)) <= 1e-15
        certs = [sorted((z.rho_star, z.omega_star) for z in r.zeros) for r in (got, unit)]
        assert np.allclose(*certs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "settings",
        [
            {"newton_tol": math.nan},
            {"newton_tol": 0.0},
            {"newton_tol": -1.0},
            {"newton_tol": math.inf},
            {"min_half_width": math.nan},
            {"min_half_width": 0.0},
            {"min_half_width": -2.0**-10},
            {"min_half_width": 0.75},
            {"min_half_width": math.inf},
        ],
    )
    def test_config_rejects_bad_settings(self, settings):
        """A setting that would stall or skip the search fails on construction."""
        with pytest.raises(ValueError, match=next(iter(settings))):
            SolverConfig(**settings)

    def test_config_accepts_edge_settings(self):
        cfg = SolverConfig(newton_tol=5e-324, min_half_width=0.5)
        assert (cfg.newton_tol, cfg.min_half_width) == (5e-324, 0.5)
        report = kts_solve(affine_center_root(), SolverConfig(min_half_width=2.0**-1074))
        assert len(report.zeros) == 1

    def test_rejects_non_finite_coefficients(self):
        """A NaN coefficient fails fast instead of subdividing to the floor."""
        coeffs = affine_center_root().coeffs.copy()
        coeffs[1, 0, 0] = np.nan
        f = BivariateSystem(Basis.POWER, coeffs)
        with pytest.raises(ValueError, match="finite"):
            kts_solve(f, SolverConfig(min_half_width=2**-6))

    def test_depth_floor_reports_unresolved(self):
        """A map vanishing on a curve cannot be resolved; the floor catches it."""
        grid = np.zeros((2, 2, 2))
        grid[0, 0] = (-0.5, -0.5)
        grid[1, 0] = (1.0, 1.0)  # both components equal x - 0.5
        report = kts_solve(unit_power_system(grid), SolverConfig(min_half_width=2**-6))
        assert report.unresolved
        assert report.smallest_width <= 2**-5

    def test_floor_patch_inside_certified_ball_is_subsumed(self):
        """A patch at the width floor is not unresolved when the ball
        certified at it covers it: here the root patch itself, whose
        zero is certified with rho* = R = gamma > 1/2."""
        for basis in BASES:
            f = convert(affine_center_root(), basis)
            report = kts_solve(f, SolverConfig(min_half_width=0.5))
            assert [z.rho_star for z in report.zeros] == [gamma(theta(basis, 1, 1))], basis
            assert not report.unresolved, basis
            assert (report.patches_examined, report.skipped_subsumed) == (1, 1), basis

    def test_degree_above_limit_fails_before_any_patch(self):
        """Above MAX_CONVERT_DEGREE the solve stops up front, even when the
        root patch would be excluded and no conversion would ever run."""
        for basis in BASES:
            for m in (MAX_CONVERT_DEGREE + 1, MAX_CONVERT_DEGREE + 2):
                grid = np.zeros((m + 1, 2, 2))
                grid[0, 0] = (3.0, -3.0)  # power and Chebyshev exclude the root
                grid[m, 1] = (1.0, 1.0)
                with pytest.raises(DegreeLimitError):
                    kts_solve(BivariateSystem(basis, grid))
                with pytest.raises(DegreeLimitError):
                    kts_solve(BivariateSystem(basis, grid.swapaxes(0, 1)))

    def test_degree_at_limit_solves(self):
        """u + 1e-3 T_20(u) = 0, v = 0 has one zero near the centre."""
        grid = np.zeros((MAX_CONVERT_DEGREE + 1, 2, 2))
        grid[1, 0] = (1.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        grid[MAX_CONVERT_DEGREE, 0] = (1e-3, 0.0)
        report = kts_solve(BivariateSystem(Basis.CHEBYSHEV, grid))
        assert len(report.zeros) == 1 and not report.unresolved
        assert np.allclose(report.zeros[0].location, 0.5, atol=1e-3)


class TestConditionEstimate:
    def test_identity_jacobian(self):
        report = kts_solve(affine_center_root())
        cond = condition_estimate(affine_center_root(), report.zeros)
        assert cond == 1.0

    def test_constant_jacobian_rescaled(self):
        """Axis scaling cancels in F'(x*)^-1 F'(y) for constant Jacobians."""
        grid = np.zeros((2, 2, 2))
        grid[0, 0] = (-1.0, -0.5)
        grid[1, 0] = (2.0, 0.0)
        grid[0, 1] = (0.0, 1.0)
        f = unit_power_system(grid)
        report = kts_solve(f)
        assert condition_estimate(f, report.zeros) == 1.0

    def test_no_zeros_is_none(self):
        c = np.zeros((1, 1, 2))
        c[0, 0] = (1.0, 1.0)
        f = BivariateSystem(Basis.POWER, c)
        assert condition_estimate(f, kts_solve(f).zeros) is None

    @pytest.mark.parametrize("s", [1.7e308, 1e-300])
    def test_extreme_magnitude_estimates_as_unit_scale(self, s):
        """condition_estimate scales F by a power of two first, as kts_solve
        does: a grid of entries +-s near either float limit gives the
        estimate of the same grid scaled to unit size bit for bit, and the
        +-1 grid's up to rounding, with no warning."""
        signs = np.where(np.random.default_rng(0).random((4, 4, 2)) < 0.5, -1.0, 1.0)
        cfg = SolverConfig(min_half_width=2**-8)

        def estimate(c):
            f = BivariateSystem(Basis.CHEBYSHEV, c)
            return condition_estimate(f, kts_solve(f, cfg).zeros)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            unit = estimate(signs)
            got = estimate(s * signs)
            want = estimate(np.ldexp(s * signs, -math.frexp(s)[1]))
        assert got == want
        assert 3e4 < unit < 4e4 and abs(got - unit) <= 1e-12 * unit

    def test_dominates_omega_star(self):
        rng = np.random.default_rng(82)
        for _ in range(5):
            f = random_system(rng, Basis.CHEBYSHEV, 2, 2)
            report = kts_solve(f)
            if not report.zeros:
                continue
            cond = condition_estimate(f, report.zeros)
            assert cond >= 1.0
            for z in report.zeros:
                assert cond >= z.omega_star - 1e-12
