"""Bounding polytopes, intervals, and the constants they depend on."""

import math

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

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)


def shifted(p, y):
    """The same polytope translated by -y, for membership tests."""
    if isinstance(p, ControlHull):
        return ControlHull(p.vertices - y, p.basis)
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
