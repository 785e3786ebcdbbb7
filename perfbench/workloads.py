"""Workload generators and output checks for the ktsolve benchmark.

Each workload turns a seed into an endless, deterministic stream of ops.
An op is one call into ktsolve on inputs generated here; its check
decides, outside the timed call, whether the answer is right. Inputs are
stratified so that every run has the same mix of easy and hard inputs
whatever the seed: the seed picks which systems fill the mix, not the mix
itself, which keeps run-to-run spread down to the code's own.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracle import reference_zeros

BASES = ("power", "bernstein", "chebyshev")
ZERO_TOL = 1e-8

# Real-zero count of a protocol system at the quantiles (k + 0.5) / 8,
# k = 0..7, of the zero-count distribution for its degree, measured with
# the oracle on systems 0-2999 (about 1000 per degree). Each schedule
# cycle solves one system per (degree, count) slot.
ZERO_QUOTA = {
    2: (0, 1, 1, 1, 2, 2, 3, 4),
    3: (1, 2, 3, 3, 4, 5, 5, 7),
    4: (3, 5, 6, 7, 8, 8, 10, 11),
}
# Bit-reversed quantile order, so that any prefix of a cycle spreads over
# the whole distribution, with the three degrees interleaved.
SLOT_ORDER = [(d, q) for q in (0, 4, 2, 6, 1, 5, 3, 7) for d in (4, 2, 3)]

NEAR_DELTA = (1e-5, 1e-4)
NEAR_RADIUS = (0.2, 0.3)
NEAR_CENTRE = (0.35, 0.65)
INTERVAL_COUNT = 40


@dataclass
class Op:
    key: str
    run: Callable
    check: Callable  # result -> None when correct, else the reason


def solve_summary(report):
    """Behaviour counters of one SolveReport."""
    return {
        "patches_examined": report.patches_examined,
        "exclusion_passes": report.exclusion_passes,
        "kantorovich_passes": report.kantorovich_passes,
        "skipped_subsumed": report.skipped_subsumed,
        "zeros": len(report.zeros),
        "unresolved": len(report.unresolved),
    }


def zero_locations(report):
    locs = sorted((float(z.location[0]), float(z.location[1])) for z in report.zeros)
    return np.array(locs, dtype=np.float64).reshape(-1, 2)


def cert_violations(report):
    """Reported zeros whose radius breaks its own bound rho * omega <= 2."""
    return sum(1 for z in report.zeros if z.rho_star * z.omega_star > 2.0)


def _same_zeros(a, b):
    return a.shape == b.shape and (a.size == 0 or float(np.max(np.abs(a - b))) <= ZERO_TOL)


def _solve_op(kts, key, basis, source, check):
    def run():
        return kts.kts_solve(kts.convert(source, kts.Basis(basis)))

    return Op(key, run, check)


# -- protocol ---------------------------------------------------------------


def protocol_system(seed, i):
    """System i of the study protocol: degree uniform in 2-4, N(0, 1)
    Chebyshev coefficients, drawn from default_rng(seed + i)."""
    rng = np.random.default_rng(seed + i)
    k = int(rng.integers(2, 5))
    return rng.standard_normal((k + 1, k + 1, 2))


def protocol_ops(kts, seed):
    """Slots of the zero-count schedule filled in draw order: system i goes
    to the next free slot of its (degree, zero count) cell."""
    waiting = {}  # (degree, zeros) -> [(i, coeffs, oracle zeros)]
    drawn = 0
    while True:
        for degree, q in SLOT_ORDER:
            cell = (degree, ZERO_QUOTA[degree][q])
            while not waiting.get(cell):
                c = protocol_system(seed, drawn)
                zeros = reference_zeros(c)
                waiting.setdefault((c.shape[0] - 1, len(zeros)), []).append((drawn, c, zeros))
                drawn += 1
            i, c, expected = waiting[cell].pop(0)
            source = kts.BivariateSystem(kts.Basis.CHEBYSHEV, c)
            solved = []  # zero sets of this system's earlier bases

            def check(report, expected=expected, solved=solved):
                if report.unresolved:
                    return f"{len(report.unresolved)} unresolved patches"
                got = zero_locations(report)
                if not _same_zeros(got, expected):
                    return f"zeros {got.tolist()} differ from oracle {expected.tolist()}"
                if solved and not _same_zeros(got, solved[0]):
                    return "bases disagree"
                solved.append(got)
                return None

            for basis in BASES:
                yield _solve_op(kts, f"protocol/{seed + i}/{basis}", basis, source, check)


# -- near-coincident -------------------------------------------------------


def _radical_inverse(j, base):
    x, den = 0.0, 1.0
    while j:
        j, digit = divmod(j, base)
        den *= base
        x += digit / den
    return x


def _unit_to_canonical_power(grid):
    """Unit-square power grid -> power grid on [-1, 1]^2 (x = (t + 1) / 2)."""
    n1 = grid.shape[0]
    # column i holds the t-coefficients of ((t + 1) / 2)^i
    shift = np.array(
        [[math.comb(i, k) / 2.0**i if k <= i else 0.0 for i in range(n1)] for k in range(n1)]
    )
    return np.einsum("ki,lj,ijd->kld", shift, shift, grid)


def near_coincident_system(seed, j, hdeg):
    """F1 = G, F2 = G * H + delta on the unit square, G a circle inside the
    square and 1/2 <= H <= 3/2 there, so F has no zero. delta and the
    circle follow point j of a randomly shifted Halton sequence, which
    spreads every run evenly over them; H has degree hdeg in each variable
    and random coefficients."""
    shift = np.random.default_rng(seed).random(4)
    rng = np.random.default_rng([seed, j, hdeg])
    u = [(_radical_inverse(j + 1, b) + s) % 1.0 for b, s in zip((2, 3, 5, 7), shift)]
    lo, hi = np.log(NEAR_DELTA)
    delta = math.exp(lo + (hi - lo) * u[0])
    r = NEAR_RADIUS[0] + (NEAR_RADIUS[1] - NEAR_RADIUS[0]) * u[1]
    a, b = (NEAR_CENTRE[0] + (NEAR_CENTRE[1] - NEAR_CENTRE[0]) * t for t in u[2:])
    g = np.zeros((3, 3))
    g[0, 0], g[1, 0], g[2, 0], g[0, 1], g[0, 2] = a * a + b * b - r * r, -2 * a, 1.0, -2 * b, 1.0
    h = rng.uniform(-1.0, 1.0, (hdeg + 1, hdeg + 1))
    h[0, 0] = 0.0
    h *= 0.5 / np.abs(h).sum()
    h[0, 0] = 1.0
    n = 2 + hdeg
    f = np.zeros((n + 1, n + 1, 2))
    f[:3, :3, 0] = g
    for (p, q), gpq in np.ndenumerate(g):
        f[p : p + hdeg + 1, q : q + hdeg + 1, 1] += gpq * h
    f[0, 0, 1] += delta
    return _unit_to_canonical_power(f)


def near_coincident_ops(kts, seed):
    def check(report):
        if report.zeros or report.unresolved:
            return f"{len(report.zeros)} zeros, {len(report.unresolved)} unresolved on a zero-free system"
        return None

    j = 0
    while True:
        # both degrees of H at every point, so degree and delta stay uncorrelated
        for hdeg in (1, 2):
            source = kts.BivariateSystem(kts.Basis.POWER, near_coincident_system(seed, j, hdeg))
            for basis in BASES:
                yield _solve_op(kts, f"near-coincident/{seed}.{j}.{hdeg}/{basis}", basis, source, check)
        j += 1


# -- intervals --------------------------------------------------------------


def interval_ops(kts, seed):
    tags = ("rand", "sin", "sin-L", "sinw", "sinw-L")

    def check(results):
        if [r.family for r in results] != list(tags):
            return f"families {[r.family for r in results]}"
        for r in results:
            if r.bernstein_tighter + r.chebyshev_tighter + r.ties != INTERVAL_COUNT:
                return f"{r.family}: outcomes do not sum to {INTERVAL_COUNT}"
            counts = (r.bernstein_tighter, r.chebyshev_tighter, r.ties, r.bernstein_exact, r.chebyshev_exact)
            if not all(0 <= x <= INTERVAL_COUNT for x in counts):
                return f"{r.family}: count out of range {counts}"
        return None

    k = 0
    while True:
        op_seed = seed + k
        yield Op(
            f"intervals/{op_seed}",
            lambda op_seed=op_seed: kts.interval_comparison(INTERVAL_COUNT, op_seed),
            check,
        )
        k += 1


WORKLOADS = {
    "protocol": protocol_ops,
    "near-coincident": near_coincident_ops,
    "intervals": interval_ops,
}
