"""Random experiment families and the two comparison studies."""

import numpy as np
import pytest

from ktsolve import Basis, eval_uni
from ktsolve.basis import _conversion_matrix
from ktsolve.families import (
    FAMILY_TAGS,
    IntervalFamilyCounts,
    bench_systems,
    generate_family,
    interval_comparison,
)


class TestGenerateFamily:
    def test_shapes_and_basis(self):
        """Every family yields degree-6 scalar Chebyshev expansions."""
        for tag in FAMILY_TAGS:
            polys = generate_family(tag, 5, 0)
            assert len(polys) == 5
            for p in polys:
                assert p.basis is Basis.CHEBYSHEV
                assert p.coeffs.shape == (7, 1)

    def test_deterministic(self):
        for tag in FAMILY_TAGS:
            a = generate_family(tag, 4, 123)
            b = generate_family(tag, 4, 123)
            for pa, pb in zip(a, b):
                assert pa.coeffs.tobytes() == pb.coeffs.tobytes()

    def test_seed_changes_draws(self):
        a = generate_family("rand", 3, 0)
        b = generate_family("rand", 3, 1)
        assert not np.allclose(a[0].coeffs, b[0].coeffs)

    def test_families_use_distinct_streams(self):
        """sin and sinw share a recipe but not their random draws."""
        a = generate_family("sin", 3, 0)
        b = generate_family("sinw", 3, 0)
        assert not np.allclose(a[0].coeffs, b[0].coeffs)

    def test_sin_interpolates_bounded_values(self):
        """sin-family fits pass through sine samples, so |p| <= 1 there."""
        nodes = np.linspace(-1.0, 1.0, 7)
        for p in generate_family("sin", 20, 7):
            for t in nodes:
                assert abs(eval_uni(p, t)) <= 1.0 + 1e-9

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            generate_family("cosine", 1, 0)


class TestIntervalComparison:
    def test_accounting(self):
        """Tighter/tie tallies partition the sample count per family."""
        results = interval_comparison(50, 0)
        assert [c.family for c in results] == list(FAMILY_TAGS)
        for c in results:
            assert c.bernstein_tighter + c.chebyshev_tighter + c.ties == 50
            assert 0 <= c.bernstein_exact <= 50
            assert 0 <= c.chebyshev_exact <= 50

    def test_deterministic(self):
        assert interval_comparison(30, 5) == interval_comparison(30, 5)

    def test_documented_directions(self):
        """Chebyshev wins the rand family; Bernstein wins the sin family."""
        results = {c.family: c for c in interval_comparison(200, 0)}
        assert results["rand"].chebyshev_tighter >= 180
        assert results["sin"].bernstein_tighter >= 140

    def test_seed_600_counts_and_one_build_per_matrix(self):
        """The counts stay as recorded, and one call builds each conversion
        matrix at most once, however many polynomials it converts."""
        _conversion_matrix.cache_clear()
        assert interval_comparison(40, 600) == [
            IntervalFamilyCounts("rand", 0, 40, 0, 0, 0),
            IntervalFamilyCounts("sin", 37, 3, 0, 39, 0),
            IntervalFamilyCounts("sin-L", 39, 1, 0, 37, 1),
            IntervalFamilyCounts("sinw", 11, 29, 0, 12, 0),
            IntervalFamilyCounts("sinw-L", 9, 31, 0, 10, 3),
        ]
        info = _conversion_matrix.cache_info()
        assert info.misses == info.currsize <= 3
        assert info.hits >= 199


class TestBenchSystems:
    def test_structure(self):
        rows = bench_systems(2, 2, 3, 11)
        assert len(rows) == 2
        assert [r.seed for r in rows] == [11, 12]
        for r in rows:
            assert r.m == r.n
            assert 2 <= r.m <= 3
            assert set(r.reports) == {"power", "bernstein", "chebyshev"}

    def test_bases_agree_on_zero_count(self):
        for r in bench_systems(2, 2, 3, 3):
            counts = {len(rep.zeros) for rep in r.reports.values()}
            assert len(counts) == 1

    def test_cond_reflects_chebyshev_run(self):
        rows = bench_systems(2, 2, 3, 11)
        for r in rows:
            if r.reports["chebyshev"].zeros:
                assert r.cond_estimate >= 1.0
            else:
                assert r.cond_estimate is None

    def test_deterministic(self):
        a = bench_systems(2, 2, 3, 19)
        b = bench_systems(2, 2, 3, 19)
        for ra, rb in zip(a, b):
            assert ra.cond_estimate == rb.cond_estimate
            for basis in ra.reports:
                za = ra.reports[basis].zeros
                zb = rb.reports[basis].zeros
                assert len(za) == len(zb)
                for x, y in zip(za, zb):
                    assert x.location.tobytes() == y.location.tobytes()


BAD_COUNTS = [-3, -1, True, False, 2.0, 2.5, "3", None]


class TestCountCheck:
    """Each entry point takes an integer count >= 0 (not a bool), and zero
    draws nothing."""

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_generate_family(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            generate_family("rand", count, 0)

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_interval_comparison(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            interval_comparison(count, 0)

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_bench_systems(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            bench_systems(count, 2, 3, 0)

    def test_zero_count_is_empty(self):
        assert generate_family("rand", np.int64(0), 0) == []
        assert all(vars(c)[k] == 0 for c in interval_comparison(0, 0) for k in vars(c) if k != "family")
        assert bench_systems(0, 2, 3, 0) == []
