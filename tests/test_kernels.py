"""Numeric kernels: reference values from NumPy and direct expansion."""

import math
from collections import Counter

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly
import pytest

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


def zonotope_direct(cx, cy, gens):
    """The membership test written directly, one row per direction: the
    normals of the nonzero generators, then the two axes, each reach one
    in-order sum of |<direction, generator>|."""
    normal = (gens[:, 0] != 0.0) | (gens[:, 1] != 0.0)
    dx = np.concatenate((-gens[normal, 1], [1.0, 0.0]))
    dy = np.concatenate((gens[normal, 0], [0.0, 1.0]))
    reach = np.abs(dx * gens[:, :1] + dy * gens[:, 1:]).sum(axis=0)
    return not np.any(np.abs(dx * cx + dy * cy) > reach)


def zonotope_inputs(rng, count):
    """(cx, cy, gens) triples, a quarter of each kind: N(0, 1) entries,
    entries on a half-integer grid (ties between a centre offset and a
    reach are common there), half-integer entries with zero and -0.0
    rows mixed in, and empty generator sets. Drawn 1,000 at a time."""
    for _ in range(0, count, 1000):
        sizes = rng.integers(1, 25, 1000)
        normal = rng.standard_normal((1000, 25, 2))
        grid = rng.integers(-6, 7, (1000, 25, 2)) / 2.0
        grid[2::4][rng.random((250, 25)) < 0.3] = 0.0
        grid[2::4] *= rng.choice([-1.0, 1.0], (250, 25, 2))  # signed zeros, mixed
        for k in range(1000):
            pool = normal[k] if k % 4 == 0 else grid[k]
            g = 0 if k % 4 == 3 else sizes[k]
            yield float(pool[0, 0]), float(pool[0, 1]), pool[1 : g + 1]


def test_zonotope_matches_direct_rows():
    """The outer-product form decides as the direct rows do, on 100,000
    inputs, and its answer does not move when the generators and the
    centre are mirrored (x, y) -> (x, -y), which negates every term
    exactly."""
    rng = np.random.default_rng(2024)
    outcomes = Counter()
    for cx, cy, gens in zonotope_inputs(rng, 100_000):
        got = kernels.zonotope_origin_inside(cx, cy, gens)
        assert got == zonotope_direct(cx, cy, gens), (cx, cy, gens)
        outcomes[got] += 1
    assert min(outcomes.values()) > 20_000, outcomes
    for cx, cy, gens in zonotope_inputs(rng, 2_000):
        got = kernels.zonotope_origin_inside(cx, cy, gens)
        assert kernels.zonotope_origin_inside(cx, -cy, gens * [1.0, -1.0]) == got


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zonotope_non_finite_generator_never_excludes(bad):
    """A NaN or infinite generator entry leaves the origin inside, as the
    direct rows do, even where the other coordinate alone would exclude;
    so does a NaN centre, and an infinite one decides as the direct rows."""
    gens = np.array([[bad, 0.0], [0.0, 0.0]])
    unit = np.array([[0.5, 0.5]])
    with np.errstate(invalid="ignore"):  # inf * 0
        assert kernels.zonotope_origin_inside(1.0, 1.0, gens)
        assert kernels.zonotope_origin_inside(1.0, 1.0, gens[:, ::-1].copy())
        assert kernels.zonotope_origin_inside(math.nan, 1.0, unit)
        for cx, cy in ((bad, 1.0), (1.0, bad), (bad, 0.0)):
            got = kernels.zonotope_origin_inside(cx, cy, unit)
            assert got == zonotope_direct(cx, cy, unit), (cx, cy)
