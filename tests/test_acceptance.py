"""End-to-end acceptance suite.

Each test covers one numbered criterion at full sample counts and prints a
single PASS/FAIL verdict line (run with -s to see them as they happen).
Expensive artifacts are computed once in module fixtures; the determinism
criterion recomputes them from scratch and compares bytes.

Known red line: criterion 9 asks that Bernstein give the tighter enclosure
on at least 90% of sinw-L draws. The code builds each sinw-L draw as a
degree-6 Chebyshev least-squares fit of sin(6a*x + b) at 13 points, with
a, b ~ N(0, 1). In the seed-0 study of 1000 draws Bernstein is tighter in
99% of draws with |6a| < 1, 94% for 1-2, 65% for 2-3 and 0% for every
|6a| >= 3, which is about 61% of the draws; the overall rate is 33.5%.
Under this definition no seed and no sample count can reach 90%. The
construction itself is checked by the unit suites, so the threshold and
the family stay as they are and the clause is left red until the paper's
definition of the sinw families is in the repository.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from helpers import (
    eval_map_grid,
    protocol_system,
    random_system,
    reference_zeros,
    sorted_zero_locations,
)

from ktsolve import (
    Basis,
    BivariateSystem,
    Patch,
    bounding_polytope,
    convert,
    exclusion_test,
    kantorovich_test,
    kernels,
    kts_solve,
    monomial_to_chebyshev,
    newton,
    reparametrize,
    support,
    xi_bernstein,
)
from ktsolve.basis import basis_matrix, chebyshev_nodes, eval_bi
from ktsolve.families import bench_systems, interval_comparison

BASES = (Basis.POWER, Basis.BERNSTEIN, Basis.CHEBYSHEV)


def verdict(num, ok, elapsed=None, limit=None, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f"  [{elapsed:.2f}s, limit {limit:g}s]"
    if detail:
        line += f"  {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    """Compile every JIT kernel before any criterion is timed."""
    kernels.warmup()
    c = np.zeros((2, 2, 2))
    c[0, 0] = (-0.5, -0.5)
    c[1, 0] = (1.0, 0.0)
    c[0, 1] = (0.0, 1.0)
    for basis in BASES:
        kts_solve(convert(BivariateSystem(Basis.POWER, c), basis))


def match_zero_sets(a, b, tol):
    """Bijective match of two lexicographically sorted location lists."""
    if len(a) != len(b):
        return False
    return all(np.max(np.abs(x - y)) <= tol for x, y in zip(a, b))


# ---------------------------------------------------------------- fixtures

def run_completeness(count=50, seed=600):
    """Solve the protocol systems in all bases against the grid oracle.

    Returns (mismatches, unresolved_total, digest) where the digest
    serializes every zero location and counter for determinism checks.
    """
    mismatches = 0
    unresolved_total = 0
    digest = hashlib.sha256()
    for i in range(count):
        f = protocol_system(seed + i)
        oracle = reference_zeros(f)
        for basis in BASES:
            report = kts_solve(convert(f, basis))
            unresolved_total += len(report.unresolved)
            if not match_zero_sets(sorted_zero_locations(report), oracle, 1e-8):
                mismatches += 1
            for z in report.zeros:
                digest.update(np.asarray(z.location, dtype=float).tobytes())
            digest.update(
                f"{report.patches_examined},{report.exclusion_passes}".encode()
            )
    return mismatches, unresolved_total, digest.hexdigest()


def run_bench():
    """The five-system three-basis comparison, serialized like the CSV."""
    rows = bench_systems(5, 2, 4, 0)
    buf = io.StringIO()
    for r in rows:
        cond = "" if r.cond_estimate is None else repr(r.cond_estimate)
        buf.write(f"{r.seed},{r.m},{r.n},{cond}")
        for basis in BASES:
            rep = r.reports[basis.value]
            buf.write(f",{rep.patches_examined},{repr(rep.smallest_width)}")
            for z in rep.zeros:
                buf.write(f",{z.location[0]!r},{z.location[1]!r}")
        buf.write("\n")
    return rows, buf.getvalue().encode()


def run_intervals():
    """The 1000-sample interval-tightness study, serialized per family."""
    counts = interval_comparison(1000, 0)
    text = "".join(
        f"{c.family},{c.bernstein_tighter},{c.chebyshev_tighter},{c.ties},"
        f"{c.bernstein_exact},{c.chebyshev_exact}\n"
        for c in counts
    )
    return counts, text.encode()


@pytest.fixture(scope="module")
def completeness_run():
    t0 = time.perf_counter()
    mismatches, unresolved, digest = run_completeness()
    return mismatches, unresolved, digest, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_run():
    t0 = time.perf_counter()
    rows, blob = run_bench()
    return rows, blob, time.perf_counter() - t0


@pytest.fixture(scope="module")
def intervals_run():
    t0 = time.perf_counter()
    counts, blob = run_intervals()
    return counts, blob, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

class TestAcceptance:
    def test_criterion_1_coefficient_bounds(self):
        """Coefficient magnitudes against dense grid maxima, 500 per basis."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        violations = 0
        for basis in BASES:
            lo, hi = basis.domain
            ts = np.linspace(lo, hi, 1001)
            for _ in range(500):
                n = int(rng.integers(0, 7))
                c = rng.standard_normal(n + 1)
                grid_max = np.max(np.abs(basis_matrix(basis, n, ts) @ c))
                if basis is Basis.CHEBYSHEV:
                    xi = math.sqrt(2.0)
                elif basis is Basis.BERNSTEIN:
                    xi = xi_bernstein(n)
                else:
                    xi = (3.0 ** (n + 1) - 1.0) / math.sqrt(2.0)
                if np.max(np.abs(c)) > xi * grid_max * (1 + 1e-6):
                    violations += 1
        elapsed = time.perf_counter() - t0
        verdict(
            1, violations == 0 and elapsed < 10.0, elapsed, 10,
            f"{violations} violations over 1500 draws",
        )

    def test_criterion_2_matrix_oracles(self):
        """Collocation inverse norms and the Chebyshev gram diagonal."""
        t0 = time.perf_counter()
        ok = True
        for n in range(1, 9):
            a = basis_matrix(Basis.BERNSTEIN, n, np.arange(n + 1) / n)
            inv_norm = np.max(np.sum(np.abs(np.linalg.inv(a)), axis=1))
            ok &= inv_norm <= xi_bernstein(n) * (1 + 1e-9)
        for n in range(1, 11):
            a = basis_matrix(Basis.CHEBYSHEV, n, chebyshev_nodes(n + 1))
            expected = np.diag([n + 1.0] + [(n + 1) / 2.0] * n)
            ok &= np.max(np.abs(a.T @ a - expected)) < 1e-9
        elapsed = time.perf_counter() - t0
        verdict(2, ok and elapsed < 1.0, elapsed, 1)

    def test_criterion_3_zonotope_subset(self):
        """Chebyshev zonotope support never exceeds the power one."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(300)
        violations = 0
        for _ in range(1000):
            m, n = rng.integers(0, 5, size=2)
            f = random_system(rng, Basis.POWER, m, n)
            pp = bounding_polytope(f)
            pc = bounding_polytope(convert(f, Basis.CHEBYSHEV))
            dirs = rng.standard_normal((64, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for d in dirs:
                if support(pc, d) > support(pp, d) + 1e-9:
                    violations += 1
        elapsed = time.perf_counter() - t0
        verdict(
            3, violations == 0 and elapsed < 30.0, elapsed, 30,
            f"{violations} violations over 64000 directions",
        )

    def test_criterion_4_conversion_rows(self):
        """Monomial-to-Chebyshev rows are convex combinations."""
        t0 = time.perf_counter()
        ok = True
        for k in range(21):
            row = monomial_to_chebyshev(k)
            ok &= np.all(row >= -1e-15)
            ok &= abs(np.sum(row) - 1.0) <= 1e-12
        verdict(4, ok, time.perf_counter() - t0, 10)

    def test_criterion_5_reparametrization_exactness(self):
        """Patch restriction agrees pointwise with direct composition."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(500)
        violations = 0
        for basis in BASES:
            lo, hi = basis.domain
            grid = np.linspace(lo, hi, 10)
            for _ in range(100):
                m, n = rng.integers(1, 5, size=2)
                f = random_system(rng, basis, m, n)
                r = rng.uniform(0.05, 0.4) * (hi - lo) / 2
                u0, v0 = rng.uniform(lo + r, hi - r, size=2)
                x = Patch((u0, v0), r)
                g = reparametrize(f, x)
                if basis is Basis.BERNSTEIN:
                    us = 2 * r * grid + u0 - r
                    vs = 2 * r * grid + v0 - r
                else:
                    us = r * grid + u0
                    vs = r * grid + v0
                tol = 1e-9 * max(1.0, f.max_coeff_norm())
                for s, u in zip(grid, us):
                    for t, v in zip(grid, vs):
                        if np.max(np.abs(eval_bi(g, s, t) - eval_bi(f, u, v))) > tol:
                            violations += 1
        elapsed = time.perf_counter() - t0
        verdict(
            5, violations == 0 and elapsed < 10.0, elapsed, 10,
            f"{violations} violations over 300 pairs",
        )

    def test_criterion_6_solver_completeness(self, completeness_run):
        """Zero sets match the independent grid+Newton oracle in all bases."""
        mismatches, unresolved, _, elapsed = completeness_run
        verdict(
            6, mismatches == 0 and unresolved == 0 and elapsed < 300.0,
            elapsed, 300,
            f"{mismatches} zero-set mismatches, {unresolved} unresolved patches",
        )

    def test_criterion_7_soundness_suites(self):
        """Exclusion and Kantorovich certificates never lie, 500 cases each."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(700)
        g41 = np.linspace(0.0, 1.0, 41)
        exclusion_violations = 0
        excluded = 0
        for _ in range(500):
            basis = BASES[rng.integers(0, 3)]
            f = random_system(rng, basis, rng.integers(1, 4), rng.integers(1, 4))
            r = rng.uniform(0.02, 0.3)
            patch = Patch((rng.uniform(r, 1 - r), rng.uniform(r, 1 - r)), r)
            if not exclusion_test(f, patch):
                continue
            excluded += 1
            lu, hu, lv, hv = patch.bounds()
            vals = eval_map_grid(f, lu + (hu - lu) * g41, lv + (hv - lv) * g41)
            if np.min(np.max(np.abs(vals), axis=2)) <= 0.0:
                exclusion_violations += 1

        kantorovich_violations = 0
        passes = cases = 0
        while cases < 500:
            basis = BASES[rng.integers(0, 3)]
            f = random_system(rng, basis, rng.integers(1, 4), rng.integers(1, 4))
            candidates = []
            r = rng.uniform(0.02, 0.3)
            candidates.append(Patch((rng.uniform(r, 1 - r), rng.uniform(r, 1 - r)), r))
            hit = newton(f, rng.uniform(0.1, 0.9, 2))
            if hit is not None and np.all((hit[0] > 0.1) & (hit[0] < 0.9)):
                r = rng.uniform(0.005, 0.06)
                candidates.append(
                    Patch(tuple(hit[0] + rng.uniform(-r, r, 2) / 4), r)
                )
            for patch in candidates:
                cases += 1
                out = kantorovich_test(f, patch)
                if not out.passed:
                    continue
                passes += 1
                result = newton(f, patch.center)
                if result is None:
                    kantorovich_violations += 1
                    continue
                loc, _ = result
                dist = float(np.max(np.abs(loc - np.asarray(patch.center))))
                if dist > out.rho_minus + 1e-9:
                    kantorovich_violations += 1
        elapsed = time.perf_counter() - t0
        ok = (
            exclusion_violations == 0
            and kantorovich_violations == 0
            and excluded > 20
            and passes > 20
            and elapsed < 120.0
        )
        verdict(
            7, ok, elapsed, 120,
            f"exclusion {exclusion_violations} violations ({excluded} excluded), "
            f"kantorovich {kantorovich_violations} violations ({passes} passes)",
        )

    def test_criterion_8_bench_regime(self, bench_run):
        """Patch counts, width floors, and cross-basis agreement on bench."""
        rows, _, elapsed = bench_run
        problems = []
        for r in rows:
            zero_sets = []
            for basis in BASES:
                rep = r.reports[basis.value]
                if not 1 <= rep.patches_examined <= 1000:
                    problems.append(f"seed {r.seed}: {rep.patches_examined} patches")
                if (
                    r.cond_estimate is not None
                    and r.cond_estimate <= 1e6
                    and rep.smallest_width < 2.0 ** -10
                ):
                    problems.append(f"seed {r.seed}: width {rep.smallest_width}")
                zero_sets.append(sorted_zero_locations(rep))
            if not all(
                match_zero_sets(zero_sets[0], zs, 1e-7) for zs in zero_sets[1:]
            ):
                problems.append(f"seed {r.seed}: bases disagree on zeros")
        ok = not problems and elapsed < 120.0
        verdict(8, ok, elapsed, 120, "; ".join(problems))

    def test_criterion_9_interval_directions(self, intervals_run):
        """Directional rates in the interval study (one clause expected red)."""
        counts, _, elapsed = intervals_run
        by = {c.family: c for c in counts}
        clauses = [
            ("rand", by["rand"].chebyshev_tighter, "chebyshev", 0.90),
            ("sin", by["sin"].bernstein_tighter, "bernstein", 0.70),
            ("sinw-L", by["sinw-L"].bernstein_tighter, "bernstein", 0.90),
        ]
        details = []
        ok = elapsed < 60.0
        for family, won, side, need in clauses:
            rate = won / 1000.0
            hit = rate >= need
            ok &= hit
            details.append(
                f"{family}: {side} tighter {rate:.1%} "
                f"({'meets' if hit else 'below'} {need:.0%})"
            )
        verdict(9, ok, elapsed, 60, "; ".join(details))

    def test_criterion_10_determinism(
        self, completeness_run, bench_run, intervals_run
    ):
        """Fresh recomputation reproduces every artifact byte for byte."""
        t0 = time.perf_counter()
        _, _, digest_a, _ = completeness_run
        _, _, digest_b = run_completeness()
        _, bench_a, _ = bench_run
        _, bench_b = run_bench()
        _, intervals_a, _ = intervals_run
        _, intervals_b = run_intervals()
        ok = digest_a == digest_b and bench_a == bench_b and intervals_a == intervals_b
        parts = [
            f"solve digest {'stable' if digest_a == digest_b else 'DRIFTED'}",
            f"bench bytes {'stable' if bench_a == bench_b else 'DRIFTED'}",
            f"interval bytes {'stable' if intervals_a == intervals_b else 'DRIFTED'}",
        ]
        verdict(10, ok, time.perf_counter() - t0, 600, "; ".join(parts))
