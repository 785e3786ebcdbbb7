"""kts_solve searches one depth at a time. It must decide, count and log
exactly as helpers.reference_kts_solve, which takes one patch at a time
from a FIFO queue."""

import logging

import numpy as np
import pytest
from helpers import protocol_system, reference_kts_solve, unit_power_system
from test_solver import affine_center_root, solve_signature
from test_tracing import near_coincident_system

from ktsolve import Basis, SolverConfig, convert, kts_solve, solver

FLOOR = SolverConfig(min_half_width=2**-6)


def curve_of_zeros():
    """Both components are x - 1/2, so F vanishes on a line and every
    patch along it reaches the width floor."""
    grid = np.zeros((2, 2, 2))
    grid[0, 0] = (-0.5, -0.5)
    grid[1, 0] = (1.0, 1.0)
    return unit_power_system(grid)


CASES = {
    **{
        f"protocol-{seed}-{basis.value}": (convert(protocol_system(seed), basis), None)
        for seed in range(600, 620)
        for basis in Basis
    },
    **{
        f"near-coincident-{basis.value}": (convert(near_coincident_system(), basis), None)
        for basis in Basis
    },
    **{f"floor-{basis.value}": (convert(curve_of_zeros(), basis), FLOOR) for basis in Basis},
    "floor-inside-ball": (affine_center_root(), SolverConfig(min_half_width=0.5)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_matches_per_patch_search(name):
    """Counters, unresolved patches in order, smallest width, the bytes of
    every zero location, rho*, omega* and Newton's iterations."""
    f, config = CASES[name]
    assert solve_signature(kts_solve(f, config)) == solve_signature(reference_kts_solve(f, config))


def own_depth_ball_uses(f, monkeypatch):
    """How reference_kts_solve(f) uses balls certified at the depth it is
    working on, when no ball from an earlier depth would do: the patches
    it skips as subsumed by such a ball, and the Newton results it takes
    as known because of one. With the balls frozen at each depth's start,
    each subsumed patch would be tested instead, and each known result
    would be reported again. Read off the order of its kantorovich_test,
    newton and rho_star calls and its subsumption log lines."""
    events = []
    kantorovich_test, newton, rho_star = solver.kantorovich_test, solver.newton, solver.rho_star

    def kantorovich(g, x, **kwargs):
        events.append(("kantorovich", x.half_width))
        return kantorovich_test(g, x, **kwargs)

    def converge(g, x0, config=None, **kwargs):
        result = newton(g, x0, config, **kwargs)
        if result is not None:
            events.append(("newton", (float(result[0][0]), float(result[0][1]))))
        return result

    def radius(x, outcome, zero):
        result = rho_star(x, outcome, zero)
        events.append(("ball", (float(zero[0]), float(zero[1]), result[0])))
        return result

    class Subsumed(logging.Handler):
        def emit(self, record):
            if record.msg.endswith("subsumed by certified ball"):
                events.append(("subsumed", record.args[0]))

    monkeypatch.setattr(solver, "kantorovich_test", kantorovich)
    monkeypatch.setattr(solver, "newton", converge)
    monkeypatch.setattr(solver, "rho_star", radius)
    handler = Subsumed()
    solver.log.addHandler(handler)
    level = solver.log.level
    solver.log.setLevel(logging.DEBUG)
    try:
        reference_kts_solve(f)
    finally:
        solver.log.removeHandler(handler)
        solver.log.setLevel(level)

    def covers(ball, patch):
        (bu, bv, r), (u0, v0) = ball, patch.center
        return max(abs(u0 - bu), abs(v0 - bv)) + patch.half_width <= r

    def knows(ball, location):
        (bu, bv, r), (lu, lv) = ball, location
        return max(abs(lu - bu), abs(lv - bv)) <= max(r, 1e-9)

    def own_depth(test, item, hw):
        return any(test(b, item) for b, w in balls if w == hw) and not any(
            test(b, item) for b, w in balls if w > hw
        )

    balls, subsumed, known, width = [], [], [], None  # balls as (ball, half-width certified at)
    for kind, item in events:
        if kind == "kantorovich":
            width = item
        elif kind == "ball":
            balls.append((item, width))
        elif kind == "newton":
            if own_depth(knows, item, width):
                known.append(item)
        elif own_depth(covers, item, item.half_width):
            subsumed.append(item)
    return subsumed, known


def test_ball_known_to_later_patches_of_its_own_depth(monkeypatch):
    """A zero certified partway through a depth is known to the later
    patches of that depth whose Newton lands on it, so it is reported
    once, exactly as the per-patch search does. The ball never subsumes
    another patch of its depth: its radius is at most R - d, R = 2 gamma
    hw with gamma < 1.06, d the zero's distance from its patch's centre,
    and covering a patch whose centre is 2 hw or more from that centre
    needs a radius of at least 3 hw - d."""
    for seed, basis in ((602, Basis.POWER), (602, Basis.CHEBYSHEV)):
        f = convert(protocol_system(seed), basis)
        subsumed, known = own_depth_ball_uses(f, monkeypatch)
        assert known and not subsumed, (seed, basis)
        got, want = kts_solve(f), reference_kts_solve(f)
        assert solve_signature(got) == solve_signature(want), (seed, basis)


def log_lines(caplog, solve, f, config):
    caplog.clear()
    solve(f, config)
    return [(r.levelname, r.getMessage()) for r in caplog.records if r.name == solver.log.name]


@pytest.mark.parametrize("name", ["protocol-602-chebyshev", "near-coincident-power", "floor-bernstein"])
def test_trace_lines_match_per_patch_search(caplog, name):
    """KTS_LOG=trace: the same per-patch lines in the same FIFO order,
    and the same zero and width-floor lines."""
    f, config = CASES[name]
    with caplog.at_level(logging.DEBUG, logger=solver.log.name):
        got = log_lines(caplog, kts_solve, f, config)
        want = log_lines(caplog, reference_kts_solve, f, config)
    assert got == want
    assert sum(level == "DEBUG" for level, _ in got) > 10


@pytest.mark.parametrize("name", ["protocol-602-chebyshev", "near-coincident-power"])
def test_info_lines_are_the_zeros(caplog, name):
    """KTS_LOG=info: one line per certified zero and no per-patch line, so
    the zero-free near-coincident system logs nothing."""
    f, config = CASES[name]
    with caplog.at_level(logging.INFO, logger=solver.log.name):
        got = log_lines(caplog, kts_solve, f, config)
        want = log_lines(caplog, reference_kts_solve, f, config)
    assert got == want
    assert got == [("INFO", m) for _, m in got if m.startswith("zero at")]
    assert len(got) == (3 if name.startswith("protocol") else 0)


def test_no_per_patch_log_work_when_trace_is_off(caplog, monkeypatch):
    """Below DEBUG, kts_solve makes no debug call, so it builds no Patch
    and formats no line for the log."""

    def refuse(*args, **kwargs):
        raise AssertionError("log.debug called with trace off")

    monkeypatch.setattr(solver.log, "debug", refuse)
    with caplog.at_level(logging.INFO, logger=solver.log.name):
        for name in ("protocol-602-chebyshev", "near-coincident-power", "floor-bernstein"):
            f, config = CASES[name]
            report = kts_solve(f, config)
            assert report.exclusion_passes and report.patches_examined > 5, name
