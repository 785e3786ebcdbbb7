"""Basis types, evaluation, derivatives, conversion, and node tests."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly
import pytest

from ktsolve import (
    Basis,
    BivariateSystem,
    DegreeLimitError,
    UnivariatePolynomial,
    bernstein_product,
    chebyshev_nodes,
    convert,
    convert_uni,
    derivative_bi,
    derivative_uni,
    eval_bi,
    eval_uni,
    monomial_to_chebyshev,
)
from ktsolve.basis import (
    MAX_CONVERT_DEGREE,
    _conversion_matrix,
    _halving_matrices,
    basis_matrix,
    conversion_matrix,
    eval_bi_grid,
    halving_matrices,
)

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)
PAIRS = tuple(itertools.product(BASES, BASES))


def fraction_matmul(a, b):
    """Product of two matrices held as nested lists of Fractions, summed in
    integers over each factor's common denominator."""
    scaled = []
    for mat in (a, b):
        den = math.lcm(*(x.denominator for row in mat for x in row))
        scaled.append(([[x.numerator * (den // x.denominator) for x in row] for row in mat], den))
    (ai, da), (bi, db) = scaled
    return [[Fraction(sum(map(operator.mul, row, col)), da * db) for col in zip(*bi)] for row in ai]


def rounded(mat):
    """An exact matrix as float64, each entry rounded once."""
    return np.array([[float(x) for x in row] for row in mat], dtype=np.float64)


def exact_shift(n, a, b):
    """Column p holds the power coefficients of (a t + b)^p, p <= n."""
    return [
        [math.comb(p, k) * a**k * b ** (p - k) if k <= p else Fraction(0) for p in range(n + 1)]
        for k in range(n + 1)
    ]


@functools.cache
def exact_chebyshev_to_power(n):
    """Column k holds T_k's monomial coefficients, from the recurrence
    T_(k+1) = 2t T_k - T_(k-1) in exact integers."""
    cols = [[1] + [0] * n, [0, 1] + [0] * (n - 1)]
    for _ in range(n - 1):
        cols.append([2 * a - b for a, b in zip([0] + cols[-1][:-1], cols[-2])])
    return [[Fraction(c) for c in row] for row in zip(*cols[: n + 1])]


@functools.cache
def exact_power_to_chebyshev(n):
    """Column k holds t^k's Chebyshev coefficients, from t T_0 = T_1 and
    t T_i = (T_(i+1) + T_(i-1)) / 2 in exact fractions."""
    half = Fraction(1, 2)
    cols = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        nxt = [Fraction(0)] * (n + 1)
        for i, c in enumerate(cols[-1][:n]):  # t^k, k < n, has no T_n term
            if i == 0:
                nxt[1] += c
            else:
                nxt[i + 1] += half * c
                nxt[i - 1] += half * c
        cols.append(nxt)
    return [list(row) for row in zip(*cols)]


@functools.cache
def exact_bernstein_to_power(n):
    """B_(k,n)(x) = sum_j C(n, j) C(j, k) (-1)^(j - k) x^j in power form on
    [0, 1], then x = (1 + t) / 2, in exact fractions."""
    on_unit = [
        [Fraction(math.comb(n, j) * math.comb(j, k) * (-1) ** (j + k)) for k in range(n + 1)]
        for j in range(n + 1)
    ]
    half = Fraction(1, 2)
    return fraction_matmul(exact_shift(n, half, half), on_unit)


@functools.cache
def exact_power_to_bernstein(n):
    """t = 2x - 1, then x^j = sum_i C(i, j) / C(n, j) B_(i,n)(x), in exact
    fractions."""
    on_unit = [[Fraction(math.comb(i, j), math.comb(n, j)) for j in range(n + 1)] for i in range(n + 1)]
    return fraction_matmul(on_unit, exact_shift(n, Fraction(2), Fraction(-1)))


EXACT_TO_POWER = {Basis.CHEBYSHEV: exact_chebyshev_to_power, Basis.BERNSTEIN: exact_bernstein_to_power}
EXACT_FROM_POWER = {Basis.CHEBYSHEV: exact_power_to_chebyshev, Basis.BERNSTEIN: exact_power_to_bernstein}


def exact_through_power(basis, n, power_mat):
    """The exact matrix that acts on degree-n coefficients in basis as
    power_mat acts on power coefficients on [-1, 1]."""
    if basis is Basis.POWER:
        return power_mat
    return fraction_matmul(EXACT_FROM_POWER[basis](n), fraction_matmul(power_mat, EXACT_TO_POWER[basis](n)))


def exact_conversion(source, target, n):
    """The exact change-of-basis matrix, through power form on [-1, 1]."""
    mat = exact_shift(n, Fraction(1), Fraction(0))  # the identity
    if source is not Basis.POWER:
        mat = EXACT_TO_POWER[source](n)
    if target is not Basis.POWER:
        mat = fraction_matmul(EXACT_FROM_POWER[target](n), mat)
    return mat


def bernstein_direct(c, t):
    """Textbook Bernstein sum, the oracle for de Casteljau."""
    n = len(c) - 1
    return sum(
        c[k] * math.comb(n, k) * t**k * (1 - t) ** (n - k) for k in range(n + 1)
    )


class TestEvaluation:
    def test_power_matches_numpy(self):
        """Horner evaluation agrees with numpy's polyval."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = rng.standard_normal(rng.integers(1, 9))
            t = rng.uniform(-1, 1)
            p = UnivariatePolynomial(Basis.POWER, c)
            assert abs(eval_uni(p, t) - nppoly.polyval(t, c)) < 1e-12

    def test_chebyshev_matches_numpy(self):
        """Clenshaw evaluation agrees with numpy's chebval."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.standard_normal(rng.integers(1, 9))
            t = rng.uniform(-1, 1)
            p = UnivariatePolynomial(Basis.CHEBYSHEV, c)
            assert abs(eval_uni(p, t) - npcheb.chebval(t, c)) < 1e-12

    def test_bernstein_matches_direct_sum(self):
        """De Casteljau agrees with the explicit Bernstein sum."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            c = rng.standard_normal(rng.integers(1, 9))
            t = rng.uniform(0, 1)
            p = UnivariatePolynomial(Basis.BERNSTEIN, c)
            assert abs(eval_uni(p, t) - bernstein_direct(c, t)) < 1e-12

    def test_bivariate_matches_double_sum(self):
        """Tensor evaluation equals the explicit double sum in every basis."""
        rng = np.random.default_rng(13)
        for basis in BASES:
            c = rng.standard_normal((4, 3, 2))
            f = BivariateSystem(basis, c)
            u, v = rng.uniform(*basis.domain, size=2)
            bu = basis_matrix(basis, 3, np.array([u]))[0]
            bv = basis_matrix(basis, 2, np.array([v]))[0]
            expected = np.einsum("i,ijd,j->d", bu, c, bv)
            assert np.max(np.abs(eval_bi(f, u, v) - expected)) < 1e-12

    @pytest.mark.parametrize("degree", [-1, 2.0, True, "3"])
    def test_basis_matrix_rejects_bad_degree(self, degree):
        for basis in BASES:
            with pytest.raises(ValueError):
                basis_matrix(basis, degree, np.array([0.5]))

    def test_any_component_count(self):
        """A grid holds any d >= 1 components, each evaluated on its own."""
        rng = np.random.default_rng(16)
        for basis in BASES:
            c = rng.standard_normal((4, 3, 5))
            u, v = rng.uniform(*basis.domain, size=2)
            got = eval_bi(BivariateSystem(basis, c), u, v)
            want = [eval_bi(BivariateSystem(basis, c[..., k]), u, v) for k in range(5)]
            assert got.shape == (5,) and np.array_equal(got, want)
        with pytest.raises(ValueError):
            BivariateSystem(Basis.POWER, np.zeros((2, 2, 0)))

    def test_grid_evaluation_matches_pointwise(self):
        """Vectorized grid evaluation equals per-point evaluation."""
        rng = np.random.default_rng(14)
        for basis in BASES:
            f = BivariateSystem(basis, rng.standard_normal((3, 4, 2)))
            us = np.linspace(*basis.domain, 5)
            vs = np.linspace(*basis.domain, 4)
            grid = eval_bi_grid(f, us, vs)
            for i, u in enumerate(us):
                for j, v in enumerate(vs):
                    assert np.max(np.abs(grid[i, j] - eval_bi(f, u, v))) < 1e-12

    def test_partition_of_unity(self):
        """Bernstein basis functions sum to 1 everywhere on [0, 1]."""
        rng = np.random.default_rng(15)
        ts = rng.uniform(0, 1, 200)
        for n in range(9):
            ones = UnivariatePolynomial(Basis.BERNSTEIN, np.ones(n + 1))
            for t in ts:
                assert abs(eval_uni(ones, t) - 1.0) < 1e-12

    def test_chebyshev_bounded(self):
        """|T_k| <= 1 on [-1, 1] for k <= 12."""
        rng = np.random.default_rng(16)
        ts = rng.uniform(-1, 1, 200)
        for k in range(13):
            c = np.zeros(k + 1)
            c[k] = 1.0
            p = UnivariatePolynomial(Basis.CHEBYSHEV, c)
            for t in ts:
                assert abs(eval_uni(p, t)) <= 1.0 + 1e-12


class TestDerivatives:
    def test_chebyshev_derivative_pins(self):
        """T_2' = 4 T_1 and T_3' = 3 T_0 + 6 T_2."""
        d2 = derivative_uni(UnivariatePolynomial(Basis.CHEBYSHEV, [0, 0, 1]))
        assert np.allclose(d2.coeffs[:, 0], [0, 4], atol=1e-15)
        d3 = derivative_uni(UnivariatePolynomial(Basis.CHEBYSHEV, [0, 0, 0, 1]))
        assert np.allclose(d3.coeffs[:, 0], [3, 0, 6], atol=1e-15)

    def test_matches_central_differences(self):
        """Partial derivatives agree with central differences to 1e-5 relative."""
        rng = np.random.default_rng(17)
        h = 1e-6
        for basis in BASES:
            for _ in range(5):
                m, n = rng.integers(1, 7, size=2)
                f = BivariateSystem(basis, rng.standard_normal((m + 1, n + 1, 2)))
                fu = derivative_bi(f, "u")
                fv = derivative_bi(f, "v")
                lo, hi = basis.domain
                for _ in range(10):
                    u, v = rng.uniform(lo + h, hi - h, size=2)
                    du = (eval_bi(f, u + h, v) - eval_bi(f, u - h, v)) / (2 * h)
                    dv = (eval_bi(f, u, v + h) - eval_bi(f, u, v - h)) / (2 * h)
                    scale_u = max(1.0, np.max(np.abs(du)))
                    scale_v = max(1.0, np.max(np.abs(dv)))
                    assert np.max(np.abs(eval_bi(fu, u, v) - du)) < 1e-5 * scale_u
                    assert np.max(np.abs(eval_bi(fv, u, v) - dv)) < 1e-5 * scale_v

    def test_constant_derivative_is_zero(self):
        """Differentiating a constant yields the zero grid of degree 0."""
        for basis in BASES:
            f = BivariateSystem(basis, np.full((1, 1, 2), 3.5))
            for axis in ("u", "v"):
                d = derivative_bi(f, axis)
                assert d.coeffs.shape == (1, 1, 2)
                assert np.all(d.coeffs == 0.0)

    def test_degree_drops_by_one(self):
        rng = np.random.default_rng(18)
        f = BivariateSystem(Basis.POWER, rng.standard_normal((5, 4, 2)))
        assert derivative_bi(f, "u").coeffs.shape == (4, 4, 2)
        assert derivative_bi(f, "v").coeffs.shape == (5, 3, 2)


class TestMonomialToChebyshev:
    def test_small_degree_pins(self):
        """Frozen expansions of t^2, t^3, t^4."""
        assert np.allclose(monomial_to_chebyshev(2), [0.5, 0, 0.5], atol=1e-15)
        assert np.allclose(monomial_to_chebyshev(3), [0, 0.75, 0, 0.25], atol=1e-15)
        assert np.allclose(
            monomial_to_chebyshev(4), [0.375, 0, 0.5, 0, 0.125], atol=1e-15
        )

    def test_rows_nonnegative_and_sum_one(self):
        """Expansion coefficients are nonnegative and sum to 1, k <= 20."""
        for k in range(21):
            row = monomial_to_chebyshev(k)
            assert row.shape == (k + 1,)
            assert np.min(row) >= -1e-15
            assert abs(np.sum(row) - 1.0) < 1e-12

    def test_power_to_chebyshev_matches_exact_recurrence(self):
        """Exact: every entry is a dyadic rational, so float64 holds it."""
        for n in range(MAX_CONVERT_DEGREE + 1):
            want = rounded(exact_power_to_chebyshev(n))
            got = conversion_matrix(Basis.POWER, Basis.CHEBYSHEV, n)
            assert np.array_equal(got, want), n
            assert np.array_equal(monomial_to_chebyshev(n), want[:, n]), n

    def test_chebyshev_to_power_matches_exact_recurrence(self):
        """Column k of the Chebyshev -> power matrix is T_k's monomial
        expansion, exactly."""
        for n in range(MAX_CONVERT_DEGREE + 1):
            want = rounded(exact_chebyshev_to_power(n))
            assert np.array_equal(conversion_matrix(Basis.CHEBYSHEV, Basis.POWER, n), want), n

    def test_degree_limit_and_fresh_copy(self):
        """Above degree 20 it raises like every conversion, and the caller
        owns the row it gets."""
        with pytest.raises(DegreeLimitError):
            monomial_to_chebyshev(MAX_CONVERT_DEGREE + 1)
        row = monomial_to_chebyshev(3)
        row[0] = 5.0
        assert monomial_to_chebyshev(3)[0] == 0.0

    @pytest.mark.parametrize("k", [True, False, 2.0, -1, "3", None])
    def test_rejects_bad_degree(self, k):
        with pytest.raises(ValueError):
            monomial_to_chebyshev(k)


class TestConvert:
    def test_all_pairs_preserve_values(self):
        """All 6 ordered conversions trace the same function across the
        affine correspondence of their canonical squares."""
        rng = np.random.default_rng(19)
        for source in BASES:
            for target in BASES:
                if source is target:
                    continue
                f = BivariateSystem(source, rng.standard_normal((4, 4, 2)))
                g = convert(f, target)
                scale = 1e-9 * max(1.0, f.max_coeff_norm())
                s_lo, s_hi = source.domain
                t_lo, t_hi = target.domain
                for _ in range(100):
                    u, v = rng.uniform(s_lo, s_hi, size=2)
                    um = (u - s_lo) / (s_hi - s_lo) * (t_hi - t_lo) + t_lo
                    vm = (v - s_lo) / (s_hi - s_lo) * (t_hi - t_lo) + t_lo
                    diff = np.abs(eval_bi(f, u, v) - eval_bi(g, um, vm))
                    assert np.max(diff) < scale

    def test_power_chebyshev_is_same_polynomial(self):
        """Power and Chebyshev share [-1,1]: conversion keeps values pointwise."""
        rng = np.random.default_rng(20)
        f = BivariateSystem(Basis.POWER, rng.standard_normal((5, 3, 2)))
        g = convert(f, Basis.CHEBYSHEV)
        for _ in range(50):
            u, v = rng.uniform(-1, 1, size=2)
            assert np.max(np.abs(eval_bi(f, u, v) - eval_bi(g, u, v))) < 1e-11

    def test_round_trips(self):
        """Converting out and back reproduces the original coefficients."""
        rng = np.random.default_rng(21)
        for source in BASES:
            for target in BASES:
                if source is target:
                    continue
                f = BivariateSystem(source, rng.standard_normal((4, 4, 2)))
                back = convert(convert(f, target), source)
                assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-9

    def test_univariate_round_trip(self):
        rng = np.random.default_rng(22)
        p = UnivariatePolynomial(Basis.CHEBYSHEV, rng.standard_normal(7))
        back = convert_uni(convert_uni(p, Basis.BERNSTEIN), Basis.CHEBYSHEV)
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-10

    def test_degree_limit(self):
        rng = np.random.default_rng(23)
        f = BivariateSystem(Basis.POWER, rng.standard_normal((22, 2, 2)))
        with pytest.raises(DegreeLimitError):
            convert(f, Basis.BERNSTEIN)

    def test_basis_closure(self):
        """Conversion preserves shape and stamps the target basis."""
        rng = np.random.default_rng(24)
        f = BivariateSystem(Basis.BERNSTEIN, rng.standard_normal((3, 5, 2)))
        g = convert(f, Basis.POWER)
        assert g.basis is Basis.POWER
        assert g.coeffs.shape == f.coeffs.shape


class TestCorrectRounding:
    def test_every_conversion_is_its_exact_value_rounded_once(self):
        """All 9 pairs at every supported degree equal the exact rational
        matrix, built here in fractions, rounded once."""
        for source, target in PAIRS:
            for n in range(MAX_CONVERT_DEGREE + 1):
                want = rounded(exact_conversion(source, target, n))
                assert np.array_equal(conversion_matrix(source, target, n), want), (source, target, n)

    def test_every_halving_is_its_exact_value_rounded_once(self):
        """Each half of halving_matrices equals from_power @ H @ to_power
        exactly, rounded once, where H takes power coefficients on [-1, 1]
        to those of p(t/2 -+ 1/2)."""
        half = Fraction(1, 2)
        for basis in BASES:
            for n in range(MAX_CONVERT_DEGREE + 1):
                halves = halving_matrices(basis, n)
                for side, shift in enumerate((-half, half)):
                    want = rounded(exact_through_power(basis, n, exact_shift(n, half, shift)))
                    assert np.array_equal(halves[side], want), (basis, n, side)


class TestConversionCache:
    def test_cached_matrices_equal_cold_builds(self):
        """For all 9 pairs and every supported degree, a repeat call returns
        the cached array, and it equals a fresh build bit for bit."""
        _conversion_matrix.cache_clear()
        keys = [(s, t, n) for s, t in PAIRS for n in range(MAX_CONVERT_DEGREE + 1)]
        first = {key: conversion_matrix(*key) for key in keys}
        info = _conversion_matrix.cache_info()
        assert info.misses == info.currsize == len(keys)
        for key in keys:
            assert conversion_matrix(*key) is first[key], key
            cold = _conversion_matrix.__wrapped__(*key)
            assert cold.tobytes() == first[key].tobytes(), key

    def test_result_is_read_only(self):
        for source, target in PAIRS:
            mat = conversion_matrix(source, target, 3)
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_basis_names_share_one_entry(self):
        assert conversion_matrix("chebyshev", "bernstein", 6) is conversion_matrix(
            Basis.CHEBYSHEV, Basis.BERNSTEIN, 6
        )

    @pytest.mark.parametrize("n", [-1, -5, True, False, 2.0, 2.5, "3", None])
    def test_bad_degree_raises_before_lookup(self, n):
        """Every pair rejects a negative or non-integer degree with
        ValueError, and the cache is not consulted."""
        before = _conversion_matrix.cache_info()
        for source, target in PAIRS:
            with pytest.raises(ValueError, match="degree must be an integer"):
                conversion_matrix(source, target, n)
        assert _conversion_matrix.cache_info() == before

    def test_degree_limit_is_not_cached_away(self):
        before = _conversion_matrix.cache_info()
        for source, target in PAIRS:
            for _ in range(2):
                with pytest.raises(DegreeLimitError):
                    conversion_matrix(source, target, MAX_CONVERT_DEGREE + 1)
        assert _conversion_matrix.cache_info() == before


class TestHalvingCache:
    def test_cached_matrices_equal_cold_builds(self):
        """In each basis and at degrees 0-20, a repeat call returns the
        cached array, and it equals a fresh build bit for bit."""
        _halving_matrices.cache_clear()
        keys = [(basis, n) for basis in BASES for n in range(MAX_CONVERT_DEGREE + 1)]
        first = {key: halving_matrices(*key) for key in keys}
        info = _halving_matrices.cache_info()
        assert info.misses == info.currsize == len(keys)
        for key in keys:
            assert halving_matrices(*key) is first[key], key
            assert _halving_matrices.__wrapped__(*key).tobytes() == first[key].tobytes(), key

    def test_result_is_read_only(self):
        for basis in BASES:
            halves = halving_matrices(basis, 3)
            with pytest.raises(ValueError):
                halves[0, 0, 0] = 1.0

    def test_basis_name_shares_one_entry(self):
        for basis in BASES:
            assert halving_matrices(basis.value, 4) is halving_matrices(basis, 4)

    @pytest.mark.parametrize("n", [-1, True, 2.0, 2.5, "3"])
    def test_bad_degree_raises_before_lookup(self, n):
        before = _halving_matrices.cache_info()
        for basis in BASES:
            with pytest.raises(ValueError, match="degree must be an integer"):
                halving_matrices(basis, n)
        assert _halving_matrices.cache_info() == before

    def test_degree_limit_is_not_cached_away(self):
        before = _halving_matrices.cache_info()
        for basis in BASES:
            for _ in range(2):
                with pytest.raises(DegreeLimitError):
                    halving_matrices(basis, MAX_CONVERT_DEGREE + 1)
        assert _halving_matrices.cache_info() == before


class TestBernsteinProduct:
    def test_matches_sampled_product(self):
        """Product coefficients reproduce pointwise products of the factors."""
        rng = np.random.default_rng(25)
        ts = np.linspace(0, 1, 20)
        for _ in range(50):
            a = UnivariatePolynomial(Basis.BERNSTEIN, rng.standard_normal(rng.integers(1, 6)))
            b = UnivariatePolynomial(Basis.BERNSTEIN, rng.standard_normal(rng.integers(1, 6)))
            prod = bernstein_product(a, b)
            assert prod.degree == a.degree + b.degree
            for t in ts:
                expected = eval_uni(a, t) * eval_uni(b, t)
                assert abs(eval_uni(prod, t) - expected) < 1e-11

    def test_matches_definition(self):
        """Against the double sum over C(n, k) C(n', i - k) / C(n + n', i)."""
        rng = np.random.default_rng(27)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(1, 8))
            b = rng.standard_normal(rng.integers(1, 8))
            n, n2 = len(a) - 1, len(b) - 1
            want = [
                sum(
                    math.comb(n, k) * math.comb(n2, i - k) / math.comb(n + n2, i) * a[k] * b[i - k]
                    for k in range(max(0, i - n2), min(n, i) + 1)
                )
                for i in range(n + n2 + 1)
            ]
            prod = bernstein_product(
                UnivariatePolynomial(Basis.BERNSTEIN, a), UnivariatePolynomial(Basis.BERNSTEIN, b)
            )
            scale = np.max(np.abs(a)) * np.max(np.abs(b))
            assert np.max(np.abs(prod.coeffs[:, 0] - want)) <= 4e-15 * scale

    def test_coefficient_bound(self):
        """Product coefficients never exceed the product of coefficient maxima."""
        rng = np.random.default_rng(26)
        for _ in range(500):
            a = UnivariatePolynomial(Basis.BERNSTEIN, rng.standard_normal(rng.integers(1, 7)))
            b = UnivariatePolynomial(Basis.BERNSTEIN, rng.standard_normal(rng.integers(1, 7)))
            prod = bernstein_product(a, b)
            bound = np.max(np.abs(a.coeffs)) * np.max(np.abs(b.coeffs))
            assert np.max(np.abs(prod.coeffs)) <= bound + 1e-12

    def test_rejects_non_bernstein(self):
        p = UnivariatePolynomial(Basis.POWER, [1.0, 2.0])
        b = UnivariatePolynomial(Basis.BERNSTEIN, [1.0, 2.0])
        with pytest.raises(ValueError):
            bernstein_product(p, b)


class TestChebyshevNodes:
    def test_count_and_order(self):
        """n nodes, strictly descending, inside (-1, 1)."""
        for n in range(1, 13):
            nodes = chebyshev_nodes(n)
            assert nodes.shape == (n,)
            assert np.all(np.diff(nodes) < 0)
            assert np.all(np.abs(nodes) < 1.0)

    @pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "3", None])
    def test_rejects_bad_count(self, n):
        """The count must be an integer >= 1; nothing is rounded."""
        with pytest.raises(ValueError):
            chebyshev_nodes(n)

    def test_nodes_are_roots(self):
        """T_n vanishes at all its returned nodes."""
        for n in range(1, 13):
            c = np.zeros(n + 1)
            c[n] = 1.0
            p = UnivariatePolynomial(Basis.CHEBYSHEV, c)
            for t in chebyshev_nodes(n):
                assert abs(eval_uni(p, t)) < 1e-12

    def test_discrete_orthogonality(self):
        """Sum over nodes of T_i T_j is 0, n, or n/2 by index pattern."""
        for n in range(1, 11):
            nodes = chebyshev_nodes(n)
            a = basis_matrix(Basis.CHEBYSHEV, n - 1, nodes)
            gram = a.T @ a
            for i in range(n):
                for j in range(n):
                    if i != j:
                        expected = 0.0
                    elif i == 0:
                        expected = float(n)
                    else:
                        expected = n / 2.0
                    assert abs(gram[i, j] - expected) < 1e-10
