"""Exclusion, Kantorovich, Newton, certification, and the full solve loop."""

import math

import numpy as np
import pytest
from helpers import (
    eval_map,
    eval_map_grid,
    protocol_system,
    random_system,
    reference_zeros,
    sorted_zero_locations,
    unit_power_system,
)

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
from ktsolve.basis import derivative_bi, eval_bi
from ktsolve.bounding import bounding_interval_bi
from ktsolve.reparam import reparametrize

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)
FULL = Patch((0.5, 0.5), 0.5)


# Recorded solver behaviour on the protocol systems of seeds 600-604; a
# change that moves any value changes which patches the solver examines or
# which zeros it reports. Counters per (seed, basis): patches_examined,
# exclusion_passes, kantorovich_passes, skipped_subsumed, len(unresolved).
PROTOCOL_COUNTERS = {
    (600, Basis.POWER): (93, 56, 3, 14, 0),
    (600, Basis.BERNSTEIN): (69, 38, 3, 14, 0),
    (600, Basis.CHEBYSHEV): (93, 56, 3, 14, 0),
    (601, Basis.POWER): (53, 28, 2, 12, 0),
    (601, Basis.BERNSTEIN): (41, 19, 2, 12, 0),
    (601, Basis.CHEBYSHEV): (53, 28, 2, 12, 0),
    (602, Basis.POWER): (93, 51, 3, 19, 0),
    (602, Basis.BERNSTEIN): (65, 32, 3, 17, 0),
    (602, Basis.CHEBYSHEV): (93, 51, 3, 19, 0),
    (603, Basis.POWER): (105, 64, 3, 15, 0),
    (603, Basis.BERNSTEIN): (69, 37, 3, 15, 0),
    (603, Basis.CHEBYSHEV): (101, 61, 3, 15, 0),
    (604, Basis.POWER): (105, 66, 2, 13, 0),
    (604, Basis.BERNSTEIN): (73, 46, 2, 9, 0),
    (604, Basis.CHEBYSHEV): (105, 66, 2, 13, 0),
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
    """Reference bound: restrict each second partial to the ball, mix the
    rows with jac_inv_at, and bound the restricted grids."""
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


def random_patch_in_square(rng):
    r = rng.uniform(0.02, 0.3)
    return Patch((rng.uniform(r, 1 - r), rng.uniform(r, 1 - r)), r)


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
        """g = (u^2, v) with unit jac_inv has constant bound 2."""
        c = np.zeros((3, 2, 2))
        c[2, 0] = (1.0, 0.0)
        c[0, 1] = (0.0, 1.0)
        g = BivariateSystem(Basis.POWER, c)
        got = lipschitz_bound(g, np.eye(2), Patch((0.5, 0.5), 0.1))
        assert got == 2.0

    def test_matches_restricted_reference(self):
        """The Taylor-grid bound equals the bound of the restricted partials,
        for centres inside and outside the canonical square."""
        rng = np.random.default_rng(83)
        for basis in BASES:
            lo, hi = basis.domain
            for m in (2, 3, 4):
                for n in (2, 3, 4):
                    f = random_system(rng, basis, m, n)
                    jac_inv = rng.standard_normal((2, 2))
                    for r in (1e-3, 0.02, 0.3, 1.0, 4.0):
                        center = tuple(rng.uniform(lo - 1.0, hi + 1.0, 2))
                        ball = Patch(center, r)
                        got = lipschitz_bound(f, jac_inv, ball)
                        want = restricted_lipschitz_bound(f, jac_inv, ball)
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dominates_sampled_quotients(self):
        """Bound is above every sampled difference quotient of jac_inv g'."""
        rng = np.random.default_rng(72)
        for basis in BASES:
            lo, hi = basis.domain
            for _ in range(10):
                f = random_system(rng, basis, 3, 3)
                gu = derivative_bi(f, 0)
                gv = derivative_bi(f, 1)
                r = rng.uniform(0.05, 0.2) * (hi - lo) / 2
                cu = rng.uniform(lo + r, hi - r)
                cv = rng.uniform(lo + r, hi - r)
                jac_inv = rng.standard_normal((2, 2))
                bound = lipschitz_bound(f, jac_inv, Patch((cu, cv), r))

                def jac(pt):
                    ju = eval_bi(gu, pt[0], pt[1])
                    jv = eval_bi(gv, pt[0], pt[1])
                    return np.array([[ju[0], jv[0]], [ju[1], jv[1]]])

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


class TestRhoStar:
    def test_affine_caps(self):
        rho, omega = rho_star(affine_center_root(), np.array([0.5, 0.5]))
        assert rho == 4.0
        assert omega == 0.0

    def test_fixed_point_residual(self):
        """At the fixed point, rho times its Lipschitz bound is 2."""
        rho, omega = rho_star(quad_pair(), np.array([0.5, 0.5]))
        assert 1.999 <= rho * omega <= 2.001

    def test_scale_invariance(self):
        """Scaling F by 10 leaves the certified radius unchanged."""
        f = quad_pair()
        scaled = BivariateSystem(f.basis, 10.0 * f.coeffs)
        r1, w1 = rho_star(f, np.array([0.5, 0.5]))
        r2, w2 = rho_star(scaled, np.array([0.5, 0.5]))
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
        assert z.rho_star == 4.0
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
        """rho*, omega* near the fixed point unless capped; tiny residuals."""
        rng = np.random.default_rng(81)
        cfg = SolverConfig()
        for _ in range(5):
            f = random_system(rng, Basis.CHEBYSHEV, 3, 3)
            for z in kts_solve(f, cfg).zeros:
                resid = np.max(np.abs(eval_map(f, z.location[0], z.location[1])))
                assert resid <= cfg.newton_tol * (1.0 + f.max_coeff_norm())
                product = z.rho_star * z.omega_star
                assert z.rho_star == 4.0 or 1.999 <= product <= 2.001

    def test_certificates_satisfy_their_inequality(self):
        """Every reported zero keeps rho * omega <= 2 as computed."""
        for seed in range(600, 610):
            f = protocol_system(seed)
            for basis in BASES:
                for z in kts_solve(convert(f, basis)).zeros:
                    assert z.rho_star * z.omega_star <= 2.0, (seed, basis, z)

    def test_protocol_fingerprints(self):
        """Counters and zero sets of the protocol systems stay as recorded."""
        for (seed, basis), counters in PROTOCOL_COUNTERS.items():
            r = kts_solve(convert(protocol_system(seed), basis))
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
