"""Bounding polytopes, intervals, and the constants they depend on."""

import math
from collections import Counter

import numpy as np
import pytest

from ktsolve import (
    Basis,
    BivariateSystem,
    ControlHull,
    UnivariatePolynomial,
    Zonotope,
    bounding_interval,
    bounding_polytope,
    contains_origin,
    convert,
    gamma,
    support,
    theta,
    xi_bernstein,
)
from ktsolve.basis import basis_matrix, chebyshev_nodes, eval_bi_grid
from ktsolve.bounding import bounding_interval_bi

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)


def shifted(p, y):
    """The same polytope translated by -y, for membership tests."""
    if isinstance(p, ControlHull):
        return ControlHull(p.points - y, p.basis)
    return Zonotope(p.center - y, p.generators, p.basis)


def random_system(rng, basis, m, n):
    return BivariateSystem(basis, rng.standard_normal((m + 1, n + 1, 2)))


def polygon_signed_distance(points):
    """Signed distance from the origin to conv(points): positive inside."""
    from scipy.spatial import ConvexHull

    spread = points - points.mean(axis=0)
    if np.linalg.matrix_rank(spread, tol=1e-9) < 2:
        # collinear cloud: distance to the extreme segment, never interior
        d = spread[np.argmax(np.linalg.norm(spread, axis=1))]
        if np.linalg.norm(d) < 1e-12:
            return -float(np.linalg.norm(points[0]))
        proj = points @ d
        a, b = points[np.argmin(proj)], points[np.argmax(proj)]
        e = b - a
        t = np.clip(-(a @ e) / (e @ e), 0.0, 1.0)
        return -float(np.linalg.norm(a + t * e))
    hull = ConvexHull(points)
    verts = points[hull.vertices]
    edge_dist = np.inf
    inside = True
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        e = b - a
        t = np.clip(-(a @ e) / (e @ e), 0.0, 1.0)
        edge_dist = min(edge_dist, float(np.linalg.norm(a + t * e)))
        if e[0] * -a[1] - e[1] * -a[0] < 0:
            inside = False
    return edge_dist if inside else -edge_dist


class TestContainsOrigin:
    def test_hull_square(self):
        """Origin inside the unit square hull, outside once shifted away."""
        sq = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        assert contains_origin(ControlHull(sq, Basis.BERNSTEIN))
        assert not contains_origin(ControlHull(sq + 3.0, Basis.BERNSTEIN))

    def test_hull_boundary_needs_slack(self):
        """A point just outside the hull is admitted only with tolerance."""
        sq = np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 1.0]])
        eps = 1e-12
        assert contains_origin(ControlHull(sq + [eps, 0.0], Basis.BERNSTEIN), tol=1e-10)
        assert not contains_origin(ControlHull(sq + [1e-3, 0.0], Basis.BERNSTEIN))

    def test_degenerate_hull_segment(self):
        """Two-point hulls reduce to a segment membership test."""
        seg = np.array([[-1.0, -1.0], [1.0, 1.0]])
        assert contains_origin(ControlHull(seg, Basis.BERNSTEIN), tol=1e-12)
        assert not contains_origin(ControlHull(seg + [0.0, 0.5], Basis.BERNSTEIN))

    def test_zonotope_box(self):
        """Axis-aligned zonotope is the box center +- generator extents."""
        gens = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert contains_origin(Zonotope(np.array([0.5, 0.5]), gens, Basis.POWER))
        assert not contains_origin(Zonotope(np.array([2.5, 0.0]), gens, Basis.POWER))

    def test_zonotope_no_generators(self):
        """Generator-free zonotope is a single point."""
        empty = np.zeros((0, 2))
        assert contains_origin(Zonotope(np.zeros(2), empty, Basis.POWER), tol=0.0)
        assert not contains_origin(Zonotope(np.array([1e-6, 0.0]), empty, Basis.POWER))

    @pytest.mark.parametrize("tol", [-10.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_tol(self, tol):
        """A negative or non-finite slack is an error for both kinds, not a
        box of another size: at tol = -10 this zonotope, which holds no
        origin at tol = 0, used to read as if tol were +10."""
        gens = np.array([[1.0, 0.0], [0.0, 1.0]])
        zono = Zonotope(np.array([2.5, 0.0]), gens, Basis.POWER)
        hull = ControlHull(np.array([[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]]), Basis.BERNSTEIN)
        for p in (zono, hull):
            assert not contains_origin(p, tol=0.0)
            with pytest.raises(ValueError, match="tol must be finite"):
                contains_origin(p, tol=tol)

    def test_matches_brute_force_zonotope(self):
        """Support criterion agrees with exact sign-enumeration geometry."""
        rng = np.random.default_rng(30)
        decisive = 0
        for _ in range(200):
            k = rng.integers(1, 5)
            gens = rng.standard_normal((k, 2))
            center = rng.standard_normal(2) * 1.5
            z = Zonotope(center, gens, Basis.POWER)
            signs = np.array(
                np.meshgrid(*([[-1.0, 1.0]] * k), indexing="ij")
            ).reshape(k, -1)
            verts = center + signs.T @ gens
            dist = polygon_signed_distance(verts)
            if abs(dist) < 1e-6:
                continue
            decisive += 1
            assert contains_origin(z) == (dist > 0)
        assert decisive > 150

    def test_matches_brute_force_hull(self):
        """Cross-product criterion agrees with scipy's hull geometry on
        clouds with duplicates, collinear runs and points on rays through
        the origin."""
        rng = np.random.default_rng(42)
        decisive = 0
        for trial in range(600):
            k = int(rng.integers(1, 26))
            kind = trial % 4
            if kind == 0:  # general position
                pts = rng.standard_normal((k, 2)) + rng.standard_normal(2) * 1.5
            elif kind == 1:  # duplicates of a few distinct points
                base = rng.standard_normal((int(rng.integers(1, 5)), 2)) + rng.standard_normal(2)
                pts = base[rng.integers(0, len(base), k)]
            elif kind == 2:  # collinear run on a line that may miss the origin
                d = rng.standard_normal(2)
                pts = rng.standard_normal(2) * rng.uniform(0, 1) + rng.uniform(-2, 2, (k, 1)) * d
            else:  # on rays through the origin, some paired with their opposite
                rays = rng.standard_normal((int(rng.integers(1, 3)), 2))
                rays = np.concatenate((rays, -rays[rng.random(len(rays)) < 0.5]))
                pts = rng.uniform(0.1, 2.0, (k, 1)) * rays[rng.integers(0, len(rays), k)]
            inside = contains_origin(ControlHull(pts, Basis.BERNSTEIN))
            assert contains_origin(ControlHull(pts * [1.0, -1.0], Basis.BERNSTEIN)) == inside
            dist = polygon_signed_distance(pts)
            if abs(dist) < 1e-6:
                continue
            decisive += 1
            assert inside == (dist > 0), pts
        assert decisive > 500

    @pytest.mark.parametrize(
        "pts, inside",
        [
            ([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]], True),  # origin is a control point
            ([[-0.75, 0.25], [0.75, -0.25]], True),  # origin is the dyadic midpoint
            ([[1.0, 2.0], [0.5, 1.0], [3.0, 6.0], [1.0, 2.0]], False),  # one ray
            ([[1.0, 2.0], [-0.5, -1.0], [3.0, 6.0]], True),  # two opposite rays
            ([[0.25, -0.5]], False),  # single non-zero point
        ],
    )
    def test_hull_degenerate_cases_exact(self, pts, inside):
        """Degenerate clouds decided exactly, without slack."""
        assert contains_origin(ControlHull(np.array(pts), Basis.BERNSTEIN), tol=0.0) is inside

    def test_hull_matches_every_row_form(self):
        """Returning as soon as no control point is one-sided decides as
        forming every row does, on 100,000 clouds: 50,000 draws and their
        mirror images (x, y) -> (x, -y). Mirroring negates every cross
        product and keeps every dot product, so the every-row form gives
        a cloud and its mirror the same answer."""
        rng = np.random.default_rng(2025)
        flip = np.array([1.0, -1.0])
        outcomes = Counter()
        for pts in hull_clouds(rng, 50_000):
            got = contains_origin(ControlHull(pts, Basis.BERNSTEIN))
            assert got == hull_every_row(pts), pts
            assert contains_origin(ControlHull(pts * flip, Basis.BERNSTEIN)) == got, pts
            outcomes[got] += 1
        assert min(outcomes.values()) > 10_000, outcomes

    def test_tol_is_inf_norm_slack(self):
        """tol admits the origin within inf-norm distance tol: a corner at
        offset (1.5e-10, 1.5e-10) lies 2.1e-10 away in the 2-norm."""
        off = 1.5e-10
        sq = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]) + off
        hull = ControlHull(sq, Basis.BERNSTEIN)
        zono = Zonotope(np.array([1.0, 1.0]) + off, np.eye(2), Basis.POWER)
        for p in (hull, zono):
            assert not contains_origin(p)
            assert not contains_origin(p, tol=1e-10)
            assert contains_origin(p, tol=2e-10)


def hull_every_row(pts):
    """The hull test with on_own_ray formed for every control point, even
    when no point is one-sided."""
    x, y = pts[:, 0], pts[:, 1]
    cross = x[:, None] * y - y[:, None] * x
    one_side = (cross >= 0.0).all(axis=1) | (cross <= 0.0).all(axis=1)
    on_own_ray = ((cross != 0.0) | (pts @ pts.T > 0.0)).all(axis=1)
    return not np.any(one_side & on_own_ray)


def hull_clouds(rng, count):
    """Control-point clouds of 1-25 points, a quarter of each kind: N(0, 1)
    about a random offset, a half-integer grid (exact ties and collinear
    runs), the grid with zero and -0.0 rows mixed in, and points on a few
    rays through the origin. Drawn 1,000 at a time."""
    for _ in range(0, count, 1000):
        sizes = rng.integers(1, 26, 1000)
        normal = rng.standard_normal((1000, 25, 2)) + rng.standard_normal((1000, 1, 2))
        grid = rng.integers(-4, 5, (1000, 25, 2)) / 2.0
        grid[2::4][rng.random((250, 25)) < 0.3] = 0.0
        grid[2::4] *= rng.choice([-1.0, 1.0], (250, 25, 2))  # signed zeros, mixed
        rays = rng.integers(-2, 3, (1000, 3, 2)) / 2.0
        on_rays = rays[np.arange(1000)[:, None], rng.integers(0, 3, (1000, 25))]
        on_rays *= rng.integers(1, 5, (1000, 25, 1)) / 2.0
        for k in range(1000):
            yield (normal, grid, grid, on_rays)[k % 4][k, : sizes[k]]


class TestBoundingPolytope:
    def test_bernstein_yields_hull(self):
        rng = np.random.default_rng(31)
        f = random_system(rng, Basis.BERNSTEIN, 3, 3)
        p = bounding_polytope(f)
        assert isinstance(p, ControlHull)

    def test_power_and_chebyshev_yield_zonotopes(self):
        rng = np.random.default_rng(32)
        for basis in (Basis.POWER, Basis.CHEBYSHEV):
            p = bounding_polytope(random_system(rng, basis, 3, 3))
            assert isinstance(p, Zonotope)

    def test_zonotope_center_is_constant_coefficient(self):
        f = BivariateSystem(
            Basis.POWER,
            np.array([[[2.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]),
        )
        p = bounding_polytope(f)
        assert np.allclose(p.center, [2.0, 2.0])
        reach = np.sum(np.abs(p.generators), axis=0)
        assert np.allclose(reach, [1.0, 1.0])

    def test_containment(self):
        """f(u, v) always lands inside the polytope of f."""
        rng = np.random.default_rng(33)
        for basis in BASES:
            lo, hi = basis.domain
            for _ in range(50):
                m, n = rng.integers(0, 5, size=2)
                f = random_system(rng, basis, m, n)
                p = bounding_polytope(f)
                us = rng.uniform(lo, hi, 40)
                vs = rng.uniform(lo, hi, 40)
                vals = eval_bi_grid(f, us, vs)
                for i in range(40):
                    assert contains_origin(shifted(p, vals[i, i]), tol=1e-10)

    def test_affine_invariance(self):
        """Polytope of A f + b is the affine image of the polytope of f."""
        rng = np.random.default_rng(34)
        for basis in BASES:
            for _ in range(10):
                f = random_system(rng, basis, 3, 3)
                while True:
                    a = rng.standard_normal((2, 2))
                    if abs(np.linalg.det(a)) > 0.3:
                        break
                b = rng.standard_normal(2)
                coeffs = f.coeffs @ a.T
                if basis is Basis.BERNSTEIN:
                    coeffs += b
                else:
                    coeffs[0, 0] += b
                g = BivariateSystem(basis, coeffs)
                pf, pg = bounding_polytope(f), bounding_polytope(g)
                for _ in range(64):
                    d = rng.standard_normal(2)
                    d /= np.linalg.norm(d)
                    want = support(pf, a.T @ d) + b @ d
                    got = support(pg, d)
                    assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_theta_bound(self):
        """Polytope never reaches past theta times the true range magnitude."""
        rng = np.random.default_rng(35)
        gl = np.linspace(0.0, 1.0, 101)
        for basis in BASES:
            lo, hi = basis.domain
            ts = lo + (hi - lo) * gl
            for _ in range(10):
                m, n = rng.integers(1, 5, size=2)
                f = random_system(rng, basis, m, n)
                p = bounding_polytope(f)
                grid_max = np.max(np.abs(eval_bi_grid(f, ts, ts)))
                reach = max(
                    support(p, np.array([1.0, 0.0])),
                    support(p, np.array([-1.0, 0.0])),
                    support(p, np.array([0.0, 1.0])),
                    support(p, np.array([0.0, -1.0])),
                )
                assert reach <= theta(basis, m, n) * grid_max * (1 + 1e-6)

    def test_support_rejects_zero_direction(self):
        rng = np.random.default_rng(36)
        p = bounding_polytope(random_system(rng, Basis.POWER, 2, 2))
        with pytest.raises(ValueError):
            support(p, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("basis", BASES)
    def test_non_finite_coefficient_keeps_origin_inside(self, basis, bad):
        """A NaN or infinite coefficient is a generator, not an all-zero row
        to drop, so no enclosure built from it excludes the origin. The
        zonotope's other generators are zero, so without the bad one its
        centre (1, 1) alone would be a point away from the origin."""
        with np.errstate(invalid="ignore"):  # inf * 0
            for entry in ((bad, 0.0), (0.0, bad)):
                grid = np.array([[[1.0, 1.0], [0.0, 0.0]], [entry, [0.0, 0.0]]])
                p = bounding_polytope(BivariateSystem(basis, grid))
                if isinstance(p, Zonotope):
                    assert len(p.generators) == 1, entry
                assert contains_origin(p), entry

    def test_rejects_single_component(self):
        f = BivariateSystem(Basis.POWER, np.ones((2, 2, 1)))
        with pytest.raises(ValueError):
            bounding_polytope(f)


class TestSubsetTheorem:
    def test_chebyshev_zonotope_inside_power_zonotope(self):
        """On a shared domain, the Chebyshev form's zonotope is the smaller."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            m, n = rng.integers(0, 5, size=2)
            f = random_system(rng, Basis.POWER, m, n)
            pp = bounding_polytope(f)
            pc = bounding_polytope(convert(f, Basis.CHEBYSHEV))
            for _ in range(64):
                d = rng.standard_normal(2)
                d /= np.linalg.norm(d)
                assert support(pc, d) <= support(pp, d) + 1e-9


class TestBoundingInterval:
    def test_contains_sampled_values(self):
        """Interval encloses the polynomial's values on its square."""
        rng = np.random.default_rng(38)
        for basis in BASES:
            lo, hi = basis.domain
            for _ in range(100):
                c = rng.standard_normal(rng.integers(1, 8))
                p = UnivariatePolynomial(basis, c)
                a, b = bounding_interval(p)
                ts = rng.uniform(lo, hi, 50)
                vals = basis_matrix(basis, len(c) - 1, ts) @ c
                assert np.all(vals >= a - 1e-12)
                assert np.all(vals <= b + 1e-12)

    def test_bernstein_is_coefficient_range(self):
        p = UnivariatePolynomial(Basis.BERNSTEIN, [0.25, -1.0, 3.0])
        assert bounding_interval(p) == (-1.0, 3.0)

    def test_power_is_center_plus_tail(self):
        p = UnivariatePolynomial(Basis.POWER, [1.0, -2.0, 0.5])
        assert bounding_interval(p) == (-1.5, 3.5)

    def test_rejects_vector_valued(self):
        p = UnivariatePolynomial(Basis.POWER, np.ones((3, 2)))
        with pytest.raises(ValueError):
            bounding_interval(p)


def magnitude(basis, grid):
    lo, hi = bounding_interval_bi(basis, grid)
    return np.maximum(np.abs(lo), np.abs(hi))


class TestBoundingIntervalBi:
    def test_stack_matches_per_grid_calls(self):
        """A (3, 2, M, N) stack bounds each grid exactly as a lone call does."""
        rng = np.random.default_rng(41)
        for basis in BASES:
            for _ in range(20):
                m1, n1 = rng.integers(1, 8, 2)
                stack = rng.standard_normal((3, 2, m1, n1))
                lo, hi = bounding_interval_bi(basis, stack)
                assert lo.shape == hi.shape == (3, 2)
                for k in range(3):
                    for i in range(2):
                        assert (lo[k, i], hi[k, i]) == bounding_interval_bi(basis, stack[k, i])

    def test_single_grid_returns_floats(self):
        grid = np.random.default_rng(42).standard_normal((3, 4))
        for basis in BASES:
            lo, hi = bounding_interval_bi(basis, grid)
            assert type(lo) is float and type(hi) is float
            assert lo <= hi

    def test_zero_padding_keeps_magnitude(self):
        """max(|lo|, |hi|) of a grid is bit-identical once the grid is
        zero-padded, whichever basis and however many entries it has."""
        rng = np.random.default_rng(43)
        for basis in BASES:
            for _ in range(200):
                m1, n1 = rng.integers(1, 22, 2)
                grid = rng.standard_normal((m1, n1)) * 10.0 ** rng.uniform(-3, 3, (m1, n1))
                if rng.random() < 0.3:
                    grid = np.abs(grid) + 0.5  # an enclosure clear of zero
                padded = np.zeros((m1 + rng.integers(0, 6), n1 + rng.integers(0, 6)))
                padded[:m1, :n1] = grid
                assert magnitude(basis, padded) == magnitude(basis, grid)


class TestCoefficientBounds:
    def test_chebyshev_sqrt2(self):
        """Chebyshev coefficients stay within sqrt(2) of the sampled max."""
        rng = np.random.default_rng(39)
        ts = np.linspace(-1.0, 1.0, 1001)
        for _ in range(100):
            c = rng.standard_normal(rng.integers(1, 8))
            vals = basis_matrix(Basis.CHEBYSHEV, len(c) - 1, ts) @ c
            assert np.max(np.abs(c)) <= math.sqrt(2) * np.max(np.abs(vals)) * (1 + 1e-6)

    def test_bernstein_xi(self):
        rng = np.random.default_rng(40)
        ts = np.linspace(0.0, 1.0, 1001)
        for _ in range(100):
            c = rng.standard_normal(rng.integers(1, 8))
            n = len(c) - 1
            vals = basis_matrix(Basis.BERNSTEIN, n, ts) @ c
            bound = xi_bernstein(n) * np.max(np.abs(vals)) * (1 + 1e-6)
            assert np.max(np.abs(c)) <= bound

    def test_power_geometric(self):
        rng = np.random.default_rng(41)
        ts = np.linspace(-1.0, 1.0, 1001)
        for _ in range(100):
            c = rng.standard_normal(rng.integers(1, 8))
            n = len(c) - 1
            vals = basis_matrix(Basis.POWER, n, ts) @ c
            bound = (3.0 ** (n + 1) - 1.0) / math.sqrt(2) * np.max(np.abs(vals))
            assert np.max(np.abs(c)) <= bound * (1 + 1e-6)


class TestMatrixOracles:
    def test_bernstein_collocation_inverse_norm(self):
        """Collocation at j/n inverts with infinity norm at most xi_B(n)."""
        for n in range(1, 9):
            ts = np.arange(n + 1) / n
            a = basis_matrix(Basis.BERNSTEIN, n, ts)
            inv_norm = np.max(np.sum(np.abs(np.linalg.inv(a)), axis=1))
            assert inv_norm <= xi_bernstein(n) * (1 + 1e-9)

    def test_chebyshev_collocation_orthogonality(self):
        """A^T A at the nodes of T_{n+1} is the stated diagonal matrix."""
        for n in range(1, 11):
            nodes = chebyshev_nodes(n + 1)
            a = basis_matrix(Basis.CHEBYSHEV, n, nodes)
            gram = a.T @ a
            expected = np.diag([n + 1.0] + [(n + 1) / 2.0] * n)
            assert np.max(np.abs(gram - expected)) < 1e-9


class TestConstants:
    def test_xi_bernstein_pins(self):
        assert [xi_bernstein(n) for n in range(4)] == [1.0, 2.0, 6.0, 22.0]

    def test_theta_formulas(self):
        assert theta(Basis.BERNSTEIN, 2, 3) == xi_bernstein(2) * xi_bernstein(3)
        assert theta(Basis.CHEBYSHEV, 2, 3) == 2 * 3 * 4
        assert theta(Basis.POWER, 1, 1) == 2 * 2 * 8 * 8 / 2

    def test_gamma_pins(self):
        assert abs(gamma(1.0) - 1.05902) < 1e-4
        assert abs(gamma(18.0) - 1.00352) < 1e-4
        assert abs(gamma(1e6) - 1.0) < 1e-3

    def test_gamma_decreasing_above_one(self):
        ths = np.linspace(1.0, 50.0, 25)
        vals = [gamma(t) for t in ths]
        assert all(v > 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gamma_at_high_degree(self):
        """No cancellation for large theta (power degree 13 has theta ~ 2e15)."""
        for basis in Basis:
            vals = [gamma(theta(basis, m, m)) for m in range(1, 16)]
            assert all(1.0 <= v <= 1.06 for v in vals), (basis, vals)
            assert all(a >= b for a, b in zip(vals, vals[1:])), (basis, vals)

    def test_gamma_rejects_below_one(self):
        with pytest.raises(ValueError):
            gamma(0.5)
