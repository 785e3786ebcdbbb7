"""Experiment harness: random test families and basis-comparison studies.

Two studies are reproducible from here. The solver benchmark draws
random bivariate Chebyshev systems, converts each to the other two
bases, and runs the subdivision solver three times to compare patch
counts and smallest widths. The interval study draws five families of
scalar degree-6 Chebyshev expansions and compares how tightly the
Bernstein and Chebyshev coefficient enclosures bound each function's
true range.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    Basis,
    BivariateSystem,
    UnivariatePolynomial,
    _check_int,
    _matrix_degree,
    basis_matrix,
    convert,
    convert_uni,
)
from .bounding import bounding_interval
from .solver import condition_estimate, kts_solve

FAMILY_TAGS = ("rand", "sin", "sin-L", "sinw", "sinw-L")
_FAMILY_DEGREE = 6
_EXACT_TOL = 1e-9
_SCAN_POINTS = 2001


def generate_family(family, count, seed):
    """Draw `count` degree-6 Chebyshev polynomials from a named family.

    rand fits standard-normal values; the sin families fit sin(a*x + b)
    with normal a, b (the w variants widen the frequency to 6a). Plain
    tags interpolate at 7 evenly spaced points; -L tags least-squares
    fit at 13.
    """
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILY_TAGS}")
    count = _check_int(count, "count")
    deg = _FAMILY_DEGREE
    rng = np.random.default_rng([int(seed), FAMILY_TAGS.index(family)])
    interp_x = np.linspace(-1.0, 1.0, deg + 1)
    ls_x = np.linspace(-1.0, 1.0, 2 * deg + 1)
    interp_a = basis_matrix(Basis.CHEBYSHEV, deg, interp_x)
    ls_a = basis_matrix(Basis.CHEBYSHEV, deg, ls_x)

    out = []
    for _ in range(count):
        if family == "rand":
            coeffs = np.linalg.solve(interp_a, rng.standard_normal(deg + 1))
        else:
            a, b = rng.standard_normal(2)
            freq = 6.0 * a if family.startswith("sinw") else a
            if family.endswith("-L"):
                ys = np.sin(freq * ls_x + b)
                coeffs = np.linalg.lstsq(ls_a, ys, rcond=None)[0]
            else:
                ys = np.sin(freq * interp_x + b)
                coeffs = np.linalg.solve(interp_a, ys)
        out.append(UnivariatePolynomial(Basis.CHEBYSHEV, coeffs))
    return out


@dataclass
class IntervalFamilyCounts:
    family: str
    bernstein_tighter: int = 0
    chebyshev_tighter: int = 0
    ties: int = 0
    bernstein_exact: int = 0
    chebyshev_exact: int = 0


def interval_comparison(count, seed):
    """Per family: which basis bounds the range tighter, and how often an
    enclosure endpoint matches the true range endpoint to 1e-9."""
    scan_x = np.linspace(-1.0, 1.0, _SCAN_POINTS)
    scan_a = basis_matrix(Basis.CHEBYSHEV, _FAMILY_DEGREE, scan_x)
    results = []
    for tag in FAMILY_TAGS:
        counts = IntervalFamilyCounts(tag)
        for poly in generate_family(tag, count, seed):
            cheb_lo, cheb_hi = bounding_interval(poly)
            bern_lo, bern_hi = bounding_interval(convert_uni(poly, Basis.BERNSTEIN))
            values = scan_a @ poly.coeffs[:, 0]
            true_lo, true_hi = float(values.min()), float(values.max())
            cheb_len = cheb_hi - cheb_lo
            bern_len = bern_hi - bern_lo
            if bern_len < cheb_len:
                counts.bernstein_tighter += 1
            elif cheb_len < bern_len:
                counts.chebyshev_tighter += 1
            else:
                counts.ties += 1
            if abs(bern_lo - true_lo) <= _EXACT_TOL or abs(bern_hi - true_hi) <= _EXACT_TOL:
                counts.bernstein_exact += 1
            if abs(cheb_lo - true_lo) <= _EXACT_TOL or abs(cheb_hi - true_hi) <= _EXACT_TOL:
                counts.chebyshev_exact += 1
        results.append(counts)
    return results


BENCH_BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)


@dataclass
class BenchResult:
    """One system's three-basis solver comparison."""

    seed: int
    m: int
    n: int
    cond_estimate: float
    reports: dict = field(repr=False)


def bench_systems(count, min_degree, max_degree, seed):
    """Random Chebyshev systems solved in all three bases.

    System i uses seed + i: degree drawn uniformly from
    [min_degree, max_degree] (square grids), coefficients standard
    normal. The condition estimate comes from the Chebyshev run. Raises
    ValueError for a bad count or degree range before any solve.
    """
    count = _check_int(count, "count")
    min_degree = _check_int(min_degree, "min_degree")
    _matrix_degree(_check_int(max_degree, "max_degree", min_degree))
    results = []
    for i in range(count):
        system_seed = int(seed) + i
        rng = np.random.default_rng(system_seed)
        k = int(rng.integers(min_degree, max_degree + 1))
        f_cheb = BivariateSystem(Basis.CHEBYSHEV, rng.standard_normal((k + 1, k + 1, 2)))
        reports = {target.value: kts_solve(convert(f_cheb, target)) for target in BENCH_BASES}
        cond = condition_estimate(f_cheb, reports[Basis.CHEBYSHEV.value].zeros)
        result = BenchResult(seed=system_seed, m=k, n=k, cond_estimate=cond, reports=reports)
        results.append(result)
    return results
