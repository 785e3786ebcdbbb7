"""Numeric kernels: reference values from NumPy and direct expansion."""

import math

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly

from ktsolve import kernels


class TestKernelValues:
    def test_decasteljau_matches_bernstein_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(0, 8))
            c = rng.standard_normal((n + 1, 2))
            t = float(rng.uniform(-0.2, 1.2))
            weights = np.array(
                [math.comb(n, i) * t**i * (1 - t) ** (n - i) for i in range(n + 1)]
            )
            got = kernels.decasteljau_cols(t, np.ascontiguousarray(c))
            assert np.allclose(got, weights @ c, rtol=1e-10, atol=1e-10)

    def test_power_affine_is_exact_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.standard_normal((int(rng.integers(1, 8)), 1))
            a, b = rng.uniform(-1.5, 1.5, size=2)
            out = kernels.power_affine_cols(np.ascontiguousarray(c), a, b)
            for t in rng.uniform(-1, 1, size=5):
                want = nppoly.polyval(a * t + b, c[:, 0])
                got = nppoly.polyval(t, out[:, 0])
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_power_affine_identity(self):
        c = np.array([[1.0], [-2.0], [3.0]])
        out = kernels.power_affine_cols(c, 1.0, 0.0)
        assert np.array_equal(out, c)

    def test_cheb_affine_rows_by_substitution(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a, b = rng.uniform(-0.5, 0.5, size=2)
            lam = kernels.cheb_affine_rows(n, a, b)
            ts = rng.uniform(-1, 1, size=7)
            for i in range(n + 1):
                direct = npcheb.chebval(a * ts + b, [0.0] * i + [1.0])
                via_rows = npcheb.chebval(ts, lam[i])
                assert np.allclose(via_rows, direct, rtol=1e-11, atol=1e-11)

    def test_mat_apply_matches_matmul(self):
        """Both products against explicit sums over the inner index."""
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 3))
        want = np.array(
            [[sum(m[i, p] * c[p, j] for p in range(6)) for j in range(3)] for i in range(4)]
        )
        assert np.allclose(kernels.mat_apply_cols(m, c), want, rtol=1e-13, atol=1e-13)
        mt = rng.standard_normal((6, 4))
        want_t = np.array(
            [[sum(mt[i, q] * c[i, j] for i in range(6)) for j in range(3)] for q in range(4)]
        )
        assert np.allclose(kernels.mat_t_apply_cols(mt, c), want_t, rtol=1e-13, atol=1e-13)

    def test_bernstein_patch_identity(self):
        """The full-square patch (lo=0, hi=1) reproduces every control row."""
        for n in range(0, 6):
            m = kernels.bernstein_patch_matrix(n, 1.0, 0.0, 0.0, 1.0)
            assert np.allclose(m, np.eye(n + 1), atol=1e-14)

    def test_bernstein_patch_matches_composition(self):
        """Columns expand (p u + q(1-u))^i (e u + f(1-u))^(n-i) over u^k (1-u)^(n-k)."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p, q, e, f = rng.uniform(-1, 1, size=4)
            m = kernels.bernstein_patch_matrix(n, p, q, e, f)
            for u in rng.uniform(0, 1, size=5):
                monos = np.array([u**k * (1 - u) ** (n - k) for k in range(n + 1)])
                for i in range(n + 1):
                    direct = (p * u + q * (1 - u)) ** i * (e * u + f * (1 - u)) ** (
                        n - i
                    )
                    assert abs(monos @ m[:, i] - direct) <= 1e-12

    def test_zonotope_membership_cases(self):
        unit = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert kernels.zonotope_origin_inside(0.5, -0.5, unit)
        assert not kernels.zonotope_origin_inside(1.5, 0.0, unit)
        assert kernels.zonotope_origin_inside(1.0, 1.0, unit)  # corner
        segment = np.array([[1.0, 1.0]])
        assert kernels.zonotope_origin_inside(0.5, 0.5, segment)
        assert not kernels.zonotope_origin_inside(0.5, 0.4, segment)
        empty = np.zeros((0, 2))
        assert kernels.zonotope_origin_inside(0.0, 0.0, empty)
        assert not kernels.zonotope_origin_inside(1e-9, 0.0, empty)
