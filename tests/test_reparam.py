"""Patch geometry and restriction of systems onto subpatches."""

import numpy as np
import pytest

from ktsolve import Basis, BivariateSystem, Patch, eval_bi, reparametrize
from ktsolve.basis import halving_matrices
from ktsolve.kernels import cheb_affine_rows
from ktsolve.reparam import subdivide_grid

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)


def patch_map(basis, x):
    """The affine map from the canonical square onto the patch, per axis."""
    (u0, v0), r = x.center, x.half_width
    if basis is Basis.BERNSTEIN:
        return lambda s, t: (2 * r * s + u0 - r, 2 * r * t + v0 - r)
    return lambda s, t: (r * s + u0, r * t + v0)


def random_patch(rng, basis):
    """A patch drawn inside the basis' canonical square."""
    lo, hi = basis.domain
    r = rng.uniform(0.05, 0.4) * (hi - lo) / 2
    u0 = rng.uniform(lo + r, hi - r)
    v0 = rng.uniform(lo + r, hi - r)
    return Patch((u0, v0), r)


class TestPatch:
    def test_bounds(self):
        x = Patch((0.5, 0.25), 0.25)
        assert x.bounds() == (0.25, 0.75, 0.0, 0.5)

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(ValueError):
            Patch((0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            Patch((0.5, 0.5), -0.1)

    def test_subdivide_order_and_geometry(self):
        """Children in (-,-), (-,+), (+,-), (+,+) order tile the parent."""
        x = Patch((0.5, 0.5), 0.5)
        kids = x.subdivide()
        assert [k.center for k in kids] == [
            (0.25, 0.25),
            (0.25, 0.75),
            (0.75, 0.25),
            (0.75, 0.75),
        ]
        assert all(k.half_width == 0.25 for k in kids)

    @pytest.mark.parametrize(
        "center, half_width",
        [
            ((np.nan, 0.5), 0.1),
            ((0.5, np.inf), 0.1),
            ((-np.inf, 0.5), 0.1),
            ((0.0, 0.0), np.inf),
            ((0.0, 0.0), np.nan),
        ],
    )
    def test_rejects_non_finite(self, center, half_width):
        """A NaN passes every comparison-based domain check and an infinite
        width restricts to NaN and inf entries, so neither is a patch."""
        with pytest.raises(ValueError, match="finite"):
            Patch(center, half_width)

    def test_children_equal_validated_patches(self):
        """subdivide skips __post_init__, yet each child equals, in value,
        field types and hash, the Patch that the same numbers build; a
        half-width that halves to 0 or a child centre that overflows still
        raises."""
        rng = np.random.default_rng(21)
        parents = [Patch((0.5, 0.5), 0.5), Patch((-3.0, 1e300), 1e300)]
        parents += [
            Patch(tuple(rng.uniform(-2, 2, 2)), 2.0 ** -int(rng.integers(1, 60))) for _ in range(200)
        ]
        for x in parents:
            (u0, v0), h = x.center, x.half_width / 2.0
            want = [Patch((u0 + du * h, v0 + dv * h), h) for du in (-1, 1) for dv in (-1, 1)]
            kids = x.subdivide()
            assert list(kids) == want and all(type(k) is Patch for k in kids), x
            assert [tuple(map(type, k.center)) + (type(k.half_width),) for k in kids] == [
                (float, float, float)
            ] * 4
            assert list(map(hash, kids)) == list(map(hash, want)), x
            with pytest.raises(AttributeError):
                kids[0].half_width = 1.0
        for x in (Patch((0.5, 0.5), 5e-324), Patch((1.7e308, 0.0), 1e308)):
            with pytest.raises(ValueError, match="finite"):
                x.subdivide()

    def test_hashable_and_frozen(self):
        x = Patch((0.5, 0.5), 0.5)
        assert hash(x) == hash(Patch((0.5, 0.5), 0.5))
        with pytest.raises(AttributeError):
            x.half_width = 1.0


class TestChebAffine:
    def test_identity(self):
        """a=1, b=0 yields the identity substitution."""
        rows = cheb_affine_rows(3, 1.0, 0.0)
        assert np.allclose(rows, np.eye(4), atol=1e-15)

    def test_row_one_is_b_a(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 2)
            rows = cheb_affine_rows(2, a, b)
            assert np.allclose(rows[1], [b, a, 0.0], atol=1e-15)

    def test_halving_pins(self):
        """Frozen rows for the substitution t -> t/2."""
        rows = cheb_affine_rows(3, 0.5, 0.0)
        assert np.allclose(rows[2], [-0.75, 0.0, 0.25, 0.0], atol=1e-15)
        assert np.allclose(rows[3], [0.0, -1.125, 0.0, 0.125], atol=1e-15)

    def test_rows_match_sampled_substitution(self):
        """Row k reproduces T_i(a t + b) pointwise."""
        import numpy.polynomial.chebyshev as npcheb

        rng = np.random.default_rng(51)
        ts = np.linspace(-1, 1, 33)
        for _ in range(20):
            a, b = rng.uniform(-0.5, 0.5, 2)
            n = int(rng.integers(1, 9))
            rows = cheb_affine_rows(n, a, b)
            for i in range(n + 1):
                unit = np.zeros(i + 1)
                unit[i] = 1.0
                want = npcheb.chebval(a * ts + b, unit)
                got = npcheb.chebval(ts, rows[i])
                assert np.max(np.abs(got - want)) < 1e-12

    def test_contraction_row_sums(self):
        """For |a|+|b| <= 1 each row sums to T_i(a+b), so |sum| <= 1."""
        rng = np.random.default_rng(52)
        for _ in range(50):
            a = rng.uniform(-1, 1)
            b = rng.uniform(-(1 - abs(a)), 1 - abs(a))
            rows = cheb_affine_rows(8, a, b)
            sums = np.abs(np.sum(rows, axis=1))
            assert np.all(sums <= 1.0 + 1e-12)


class TestReparametrize:
    def test_identity_patch_is_noop(self):
        """The full-square patch leaves coefficients unchanged."""
        rng = np.random.default_rng(53)
        for basis in BASES:
            f = BivariateSystem(basis, rng.standard_normal((4, 4, 2)))
            if basis is Basis.BERNSTEIN:
                x = Patch((0.5, 0.5), 0.5)
            else:
                x = Patch((0.0, 0.0), 1.0)
            g = reparametrize(f, x)
            assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12

    def test_whole_square_returns_input_bit_for_bit(self):
        """Restricting onto the whole canonical square is the identity in
        every basis, with no rounding, at 1-20 rows and 1-21 columns."""
        rng = np.random.default_rng(63)
        for basis in BASES:
            lo, hi = basis.domain
            whole = Patch(((lo + hi) / 2, (lo + hi) / 2), (hi - lo) / 2)
            for m1 in range(1, 21):
                for n1 in range(1, 22):
                    f = BivariateSystem(basis, rng.standard_normal((m1, n1, 2)))
                    g = reparametrize(f, whole)
                    assert g.coeffs.tobytes() == f.coeffs.tobytes(), (basis, m1, n1)

    def test_power_linear_leg(self):
        """f(u,v)=u restricted to center 0.5, r=0.25 becomes 0.5 + 0.25*u."""
        f = BivariateSystem(Basis.POWER, np.array([[[0.0]], [[1.0]]]))
        g = reparametrize(f, Patch((0.5, 0.5), 0.25))
        assert np.allclose(g.coeffs[:, 0, 0], [0.5, 0.25], atol=1e-15)

    def test_pointwise_exactness(self):
        """Restricted grid equals f composed with the patch map on a 10x10 grid."""
        rng = np.random.default_rng(54)
        for basis in BASES:
            lo, hi = basis.domain
            grid = np.linspace(lo, hi, 10)
            for _ in range(30):
                f = BivariateSystem(basis, rng.standard_normal((4, 4, 2)))
                x = random_patch(rng, basis)
                g = reparametrize(f, x)
                phi = patch_map(basis, x)
                tol = 1e-9 * max(1.0, f.max_coeff_norm())
                for s in grid:
                    for t in grid:
                        u, v = phi(s, t)
                        diff = np.abs(eval_bi(g, s, t) - eval_bi(f, u, v))
                        assert np.max(diff) < tol

    def test_composition(self):
        """Two nested restrictions equal one restriction onto the composed patch."""
        rng = np.random.default_rng(55)
        for basis in BASES:
            for _ in range(20):
                f = BivariateSystem(basis, rng.standard_normal((4, 4, 2)))
                x = random_patch(rng, basis)
                y = random_patch(rng, basis)
                (cu, cv), r = x.center, x.half_width
                (du, dv), s = y.center, y.half_width
                if basis is Basis.BERNSTEIN:
                    composed = Patch(
                        (2 * r * du + cu - r, 2 * r * dv + cv - r), 2 * r * s
                    )
                else:
                    composed = Patch((r * du + cu, r * dv + cv), r * s)
                twice = reparametrize(reparametrize(f, x), y)
                once = reparametrize(f, composed)
                scale = max(1.0, f.max_coeff_norm())
                assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-8 * scale

    def test_basis_closure(self):
        """Output keeps the basis and the degree pair."""
        rng = np.random.default_rng(56)
        for basis in BASES:
            f = BivariateSystem(basis, rng.standard_normal((3, 5, 2)))
            g = reparametrize(f, random_patch(rng, basis))
            assert g.basis is basis
            assert g.coeffs.shape == f.coeffs.shape

    def test_rejects_escaping_patch(self):
        """Patches leaving the canonical square need the explicit opt-in."""
        rng = np.random.default_rng(57)
        for basis in BASES:
            f = BivariateSystem(basis, rng.standard_normal((3, 3, 2)))
            lo, hi = basis.domain
            big = Patch(((lo + hi) / 2, (lo + hi) / 2), (hi - lo))
            with pytest.raises(ValueError):
                reparametrize(f, big)
            g = reparametrize(f, big, allow_outside=True)
            assert g.basis is basis

    def test_outside_patch_still_exact(self):
        """The substitution stays a polynomial identity beyond the square."""
        rng = np.random.default_rng(58)
        for basis in BASES:
            f = BivariateSystem(basis, rng.standard_normal((4, 4, 2)))
            x = Patch((0.1, 0.2), 1.5)
            g = reparametrize(f, x, allow_outside=True)
            phi = patch_map(basis, x)
            lo, hi = basis.domain
            tol = 1e-9 * max(1.0, f.max_coeff_norm())
            for s in np.linspace(lo, hi, 7):
                for t in np.linspace(lo, hi, 7):
                    u, v = phi(s, t)
                    assert np.max(np.abs(eval_bi(g, s, t) - eval_bi(f, u, v))) < tol

    def test_univariate_component_grid(self):
        """Single-component grids restrict the same way."""
        rng = np.random.default_rng(59)
        f = BivariateSystem(Basis.CHEBYSHEV, rng.standard_normal((3, 3, 1)))
        x = Patch((0.2, -0.3), 0.4)
        g = reparametrize(f, x)
        for s in np.linspace(-1, 1, 5):
            for t in np.linspace(-1, 1, 5):
                want = eval_bi(f, 0.4 * s + 0.2, 0.4 * t - 0.3)
                assert abs(eval_bi(g, s, t) - want) < 1e-10


def canon_patch(basis, x):
    """A unit-square patch in the basis' canonical coordinates."""
    lo, hi = basis.domain
    (u0, v0), r = x.center, x.half_width
    return Patch((lo + (hi - lo) * u0, lo + (hi - lo) * v0), (hi - lo) * r)


class TestHalving:
    def test_children_match_direct_restriction(self):
        """Each derived child grid equals restricting f to that child."""
        rng = np.random.default_rng(60)
        for basis in BASES:
            for m in range(1, 9):
                for n in (m, 9 - m):
                    f = BivariateSystem(basis, rng.standard_normal((m + 1, n + 1, 2)))
                    halve_u = halving_matrices(basis, m)
                    halve_v = halving_matrices(basis, n)
                    x = Patch((0.5, 0.5), 0.5)
                    grid = reparametrize(f, canon_patch(basis, x)).coeffs
                    kids = subdivide_grid(grid, halve_u, halve_v)
                    assert kids.shape == (4,) + f.coeffs.shape
                    scale = f.max_coeff_norm()
                    for kid, child in zip(kids, x.subdivide()):
                        want = reparametrize(f, canon_patch(basis, child)).coeffs
                        assert np.max(np.abs(kid - want)) <= 1e-14 * scale

    def test_stack_matches_each_grid(self):
        """A stack of grids, with one or two leading axes, gives every
        grid's children with the bits that grid alone gets, signed zeros
        included, in every basis at degrees 0-6."""
        rng = np.random.default_rng(63)
        for basis in BASES:
            for m in range(7):
                for n in range(7):
                    halve_u = halving_matrices(basis, m)
                    halve_v = halving_matrices(basis, n)
                    grids = rng.standard_normal((2, 3, m + 1, n + 1, 2))
                    draw = rng.random(grids.shape)
                    grids[draw < 0.2] = 0.0
                    grids[draw > 0.9] = -0.0
                    want = np.array(
                        [[subdivide_grid(g, halve_u, halve_v) for g in row] for row in grids]
                    )
                    got = subdivide_grid(grids, halve_u, halve_v)
                    assert got.shape == (2, 3, 4, m + 1, n + 1, 2)
                    assert got.tobytes() == want.tobytes(), (basis, m, n)
                    flat = subdivide_grid(grids.reshape(6, m + 1, n + 1, 2), halve_u, halve_v)
                    assert flat.tobytes() == want.tobytes(), (basis, m, n)

    def test_chained_halvings_stay_close_to_direct(self):
        """40 random halvings in a row drift by at most 1e-13 of max |c|."""
        rng = np.random.default_rng(62)
        for basis in BASES:
            for m in range(1, 9):
                n = int(rng.integers(1, 9))
                f = BivariateSystem(basis, rng.standard_normal((m + 1, n + 1, 2)))
                halve_u = halving_matrices(basis, m)
                halve_v = halving_matrices(basis, n)
                x = Patch((0.5, 0.5), 0.5)
                grid = reparametrize(f, canon_patch(basis, x)).coeffs
                for _ in range(40):
                    k = int(rng.integers(4))
                    grid = subdivide_grid(grid, halve_u, halve_v)[k]
                    x = x.subdivide()[k]
                want = reparametrize(f, canon_patch(basis, x)).coeffs
                assert np.max(np.abs(grid - want)) <= 1e-13 * f.max_coeff_norm()
