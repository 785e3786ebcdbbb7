"""Command-line interface: solve one system, or run the two studies.

System files are JSON:

    {"basis": "chebyshev", "m": 2, "n": 2,
     "coeffs": [[[c00x, c00y], ...], ...]}

with coeffs an (m+1) x (n+1) grid of [x, y] pairs. Reports are written
as JSON, study outputs as CSV; float fields use shortest round-trip
formatting so identical runs produce identical bytes.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .basis import MAX_CONVERT_DEGREE, Basis, BivariateSystem, DegreeLimitError, convert
from .families import BENCH_BASES, bench_systems, interval_comparison
from .solver import SolverConfig, condition_estimate, kts_solve

log = logging.getLogger("ktsolve.cli")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNRESOLVED = 2
# 2**-1074 is the smallest positive double, so deeper limits would be 0
MAX_DEPTH = 1074


class SystemFileError(ValueError):
    """Input file missing, unparseable, or structurally invalid."""


def parse_system(path):
    """Load a BivariateSystem from a JSON system file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SystemFileError(f"cannot read system file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SystemFileError(f"{path}: top level must be an object")
    for key in ("basis", "m", "n", "coeffs"):
        if key not in data:
            raise SystemFileError(f"{path}: missing required key {key!r}")
    try:
        basis = Basis(data["basis"])
    except ValueError:
        raise SystemFileError(
            f"{path}: unknown basis {data['basis']!r} "
            f"(expected one of {[b.value for b in Basis]})"
        ) from None
    try:
        coeffs = np.asarray(data["coeffs"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"{path}: coeffs is not a numeric grid: {exc}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise SystemFileError(f"{path}: coeffs holds a non-finite value")
    for key in ("m", "n"):
        deg = data[key]
        if isinstance(deg, bool) or not isinstance(deg, int) or deg < 0:
            raise SystemFileError(
                f"{path}: degree {key} must be a non-negative integer, got {deg!r}"
            )
    expected = (data["m"] + 1, data["n"] + 1, 2)
    if coeffs.shape != expected:
        raise SystemFileError(
            f"{path}: coeffs shape {coeffs.shape} does not match "
            f"declared degrees (expected {expected})"
        )
    return BivariateSystem(basis, coeffs)


def write_system(f, path):
    """Write a system file that parse_system reads back bit-identically."""
    if f.components != 2:
        raise ValueError("system files hold 2-component systems")
    data = {
        "basis": f.basis.value,
        "m": f.degree_u,
        "n": f.degree_v,
        "coeffs": f.coeffs.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def report_to_dict(report, cond_estimate):
    out = {
        "zeros": [
            {
                "x": float(z.location[0]),
                "y": float(z.location[1]),
                "rho_star": z.rho_star,
                "omega_star": z.omega_star,
                "newton_iterations": z.newton_iterations,
            }
            for z in report.zeros
        ],
        "patches_examined": report.patches_examined,
        "smallest_width": report.smallest_width,
        "exclusion_passes": report.exclusion_passes,
        "kantorovich_passes": report.kantorovich_passes,
        "skipped_subsumed": report.skipped_subsumed,
        "unresolved": [
            {"x": p.center[0], "y": p.center[1], "half_width": p.half_width}
            for p in report.unresolved
        ],
        "cond_estimate": cond_estimate,
    }
    return out


def _cmd_solve(args):
    try:
        system = parse_system(args.input)
    except SystemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    settings = {}
    if args.tol is not None:
        settings["newton_tol"] = args.tol
    if args.max_depth is not None:
        if not 1 <= args.max_depth <= MAX_DEPTH:
            print(
                f"error: --max-depth must be in [1, {MAX_DEPTH}], got {args.max_depth}",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        settings["min_half_width"] = 2.0 ** -args.max_depth
    try:
        cfg = SolverConfig(**settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if args.basis:
            system = convert(system, Basis(args.basis))
        report = kts_solve(system, cfg)
    except DegreeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cond = condition_estimate(system, report.zeros) if args.cond else None

    print(f"basis: {system.basis.value}, degrees ({system.degree_u}, {system.degree_v})")
    print(
        f"patches examined: {report.patches_examined}, "
        f"smallest width: {report.smallest_width:.6g}"
    )
    print(
        f"excluded: {report.exclusion_passes}, certified: {report.kantorovich_passes}, "
        f"skipped: {report.skipped_subsumed}"
    )
    print(f"zeros found: {len(report.zeros)}")
    for z in report.zeros:
        print(
            f"  ({z.location[0]:.15g}, {z.location[1]:.15g})  "
            f"rho*={z.rho_star:.6g} omega*={z.omega_star:.6g} "
            f"newton_iters={z.newton_iterations}"
        )
    if cond is not None:
        print(f"condition estimate (real zeros only): {cond:.6g}")
    if report.unresolved:
        print(f"unresolved patches: {len(report.unresolved)}", file=sys.stderr)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report_to_dict(report, cond), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return EXIT_UNRESOLVED if report.unresolved else EXIT_OK


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _negative_option(args, *names):
    """Print an error line for the first named option below zero, if any."""
    bad = next((name for name in names if getattr(args, name) < 0), None)
    if bad:
        print(f"error: --{bad} must be >= 0, got {getattr(args, bad)}", file=sys.stderr)
    return bad is not None


def _cmd_bench(args):
    if _negative_option(args, "count", "seed"):
        return EXIT_INPUT_ERROR
    if not 0 <= args.min_degree <= args.max_degree <= MAX_CONVERT_DEGREE:
        print(
            f"error: degrees must satisfy 0 <= --min-degree <= --max-degree <= "
            f"{MAX_CONVERT_DEGREE}, got {args.min_degree} and {args.max_degree}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    results = bench_systems(
        args.count, args.min_degree, args.max_degree, args.seed
    )
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [
                    "seed",
                    "m",
                    "n",
                    "cond_estimate",
                    "power_patches",
                    "power_width",
                    "bernstein_patches",
                    "bernstein_width",
                    "chebyshev_patches",
                    "chebyshev_width",
                ]
            )
            for res in results:
                row = [res.seed, res.m, res.n, _fmt(res.cond_estimate)]
                for b in BENCH_BASES:
                    rep = res.reports[b.value]
                    row.extend([rep.patches_examined, _fmt(rep.smallest_width)])
                writer.writerow(row)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wrote {len(results)} systems to {args.out}")
    return EXIT_OK


def _cmd_intervals(args):
    if _negative_option(args, "count", "seed"):
        return EXIT_INPUT_ERROR
    counts = interval_comparison(args.count, args.seed)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(
            os.path.join(args.out, "tighter.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["family", "bernstein_tighter", "chebyshev_tighter", "ties"])
            for c in counts:
                writer.writerow([c.family, c.bernstein_tighter, c.chebyshev_tighter, c.ties])
        with open(
            os.path.join(args.out, "exact.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["family", "bernstein_exact", "chebyshev_exact"])
            for c in counts:
                writer.writerow([c.family, c.bernstein_exact, c.chebyshev_exact])
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wrote tighter.csv and exact.csv to {args.out}")
    return EXIT_OK


def _configure_logging():
    level = os.environ.get("KTS_LOG", "off").strip().lower()
    if level in ("", "off"):
        return
    mapped = {"info": logging.INFO, "trace": logging.DEBUG}.get(level)
    if mapped is None:
        print(f"warning: unknown KTS_LOG level {level!r}", file=sys.stderr)
        return
    logging.basicConfig(
        stream=sys.stderr, level=mapped, format="%(levelname)s %(name)s: %(message)s"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kts",
        description="Certified subdivision solver for bivariate polynomial systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find all zeros of one system file")
    p_solve.add_argument("--input", required=True, help="JSON system file")
    p_solve.add_argument(
        "--basis",
        choices=[b.value for b in Basis],
        help="convert the system to this basis before solving",
    )
    p_solve.add_argument("--tol", type=float, help="Newton residual tolerance")
    p_solve.add_argument(
        "--max-depth",
        type=int,
        help="subdivision depth limit K (smallest half-width 2^-K)",
    )
    p_solve.add_argument("--cond", action="store_true", help="add a condition estimate")
    p_solve.add_argument("--report", help="write a JSON report here")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="three-basis solver comparison study")
    p_bench.add_argument("--count", type=int, default=5, help="number of systems")
    p_bench.add_argument("--min-degree", type=int, default=2)
    p_bench.add_argument("--max-degree", type=int, default=4)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="output CSV path")
    p_bench.set_defaults(func=_cmd_bench)

    p_int = sub.add_parser("intervals", help="interval tightness study")
    p_int.add_argument("--count", type=int, default=1000, help="polynomials per family")
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument("--out", required=True, help="output directory")
    p_int.set_defaults(func=_cmd_intervals)
    return parser


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
