"""ktsolve benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload protocol --seed 600 --seconds 40 --trace 0

Run from the repository root; ktsolve is imported from ./src. Each op
is issued only after the previous one returns, and every answer is
checked outside the timed call. With --trace 0 the run measures for
--seconds and reports the end-to-end metrics. With --trace 1 it runs
the workload's fixed trace set (the first `trace_ops` ops), each op once
untraced and once with span tracing, and reports the per-layer metrics;
a fixed set keeps the counters exactly repeatable and the per-layer
totals comparable between commits. The last stdout line is the result
as one JSON object; a full record goes to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads only add noise on the small matrices ktsolve uses; pin
# them unless the caller chose a value. Must precede the NumPy import.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())

SETUP_REPEATS = 7
MIN_OPS = 100  # p90 needs at least ten samples beyond it

STAGES = ("exclusion_test", "kantorovich_test", "newton", "rho_star")
COUNTERS = (
    "patches_examined",
    "exclusion_passes",
    "kantorovich_passes",
    "skipped_subsumed",
    "zeros",
    "unresolved",
)
BASES = ("power", "bernstein", "chebyshev")
KERNELS = (
    "power_affine_cols",
    "cheb_affine_rows",
    "mat_apply_cols",
    "mat_t_apply_cols",
    "bernstein_patch_matrix",
    "zonotope_origin_inside",
)
BOUNDING = ("bounding_polytope", "contains_origin", "bounding_interval_bi", "bounding_interval")
BASIS = ("convert", "convert_uni", "conversion_matrix", "eval_bi")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but left out of the result object:
# both are 0 on correct runs of some workload, which a bound relative to
# the parent's median cannot judge. `failed` carries the failure count.
END_TO_END_REPORTED = (("failed_frac", "ratio"), ("cert_violations", "count"))

PER_LAYER = (
    *((f"solver.{f}.{k}", u) for f in STAGES for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count"))),
    ("solver.lipschitz_bound.s", "s"),
    ("solver.lipschitz_bound.calls", "count"),
    *((f"solver.kts_solve.{b}.s", "s") for b in BASES),
    ("solver.exclusion_test.excluded_ratio", "ratio"),
    ("solver.kantorovich_test.pass_ratio", "ratio"),
    *((f"solver.{c}", "count") for c in COUNTERS),
    ("solver.cert_violations", "count"),
    ("reparam.reparametrize.s", "s"),
    ("reparam.reparametrize.self_s", "s"),
    ("reparam.reparametrize.calls", "count"),
    *((f"kernels.{f}.{k}", u) for f in KERNELS for k, u in (("s", "s"), ("calls", "count"))),
    ("kernels.restrict_flops_computed", "count"),
    *((f"bounding.{f}.{k}", u) for f in BOUNDING for k, u in (("s", "s"), ("calls", "count"))),
    *((f"basis.{f}.{k}", u) for f in BASIS for k, u in (("s", "s"), ("calls", "count"))),
    ("families.interval_comparison.s", "s"),
    ("families.generate_family.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics, much steadier than a single one."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t, [1.0])), cdf)
    return float(np.diff(edges) @ x)


def measure_setup():
    """Median over fresh interpreters of: import ktsolve, then one tiny
    solve in each basis. Interpreter start-up is not counted."""
    probe = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "t0 = time.perf_counter()\n"
        "import ktsolve\n"
        "from warmup import warm_up\n"
        "warm_up(ktsolve)\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment():
    try:
        from ktsolve import _jit

        backend = _jit.backend_name()
    except ImportError:
        backend = "none"
    commit = "unknown"
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit,
    }


def _execute(op):
    """Run one op; returns (seconds, result, reason or None)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - t0, None, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    return seconds, result, op.check(result)


def _report_failure(op, reason, failed):
    if failed <= 5:
        print(f"FAILED {op.key}: {reason}", file=sys.stderr)


def timed_run(ops, seconds, min_ops=MIN_OPS):
    """Closed loop with one client for `seconds` (and at least min_ops ops)."""
    from workloads import cert_violations

    latencies, failed, violations = [], 0, 0
    start = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - start < seconds:
        op = next(ops)
        dt, result, reason = _execute(op)
        latencies.append(dt)
        if reason is not None:
            failed += 1
            _report_failure(op, reason, failed)
        elif hasattr(result, "zeros"):
            violations += cert_violations(result)
    n = len(latencies)
    metrics = {
        "ops_per_s": n / sum(latencies),
        "op_ms_p50": 1e3 * hd_quantile(latencies, 0.5),
        "op_ms_p90": 1e3 * hd_quantile(latencies, 0.9),
        "failed_frac": failed / n,
        "cert_violations": violations,
    }
    return n, failed, metrics


def traced_run(ops, trace_ops, spans_path=None):
    """The first trace_ops ops, each untraced then traced; the spans are
    saved to spans_path when given."""
    from spans import Tracer
    from workloads import cert_violations, solve_summary, zero_locations

    tracer = Tracer()
    counters = dict.fromkeys(COUNTERS, 0)
    counters["cert_violations"] = 0
    digest_items = []
    untraced = traced = 0.0
    failed = 0
    for k in range(trace_ops):
        op = next(ops)
        dt_plain, _, reason_plain = _execute(op)
        tracer.op = k
        tracer.install()
        try:
            dt, result, reason = _execute(op)
        finally:
            tracer.uninstall()
        untraced += dt_plain
        traced += dt
        if reason is not None or reason_plain is not None:
            failed += 1
            _report_failure(op, reason or reason_plain, failed)
        if hasattr(result, "zeros"):
            summary = solve_summary(result)
            for name, value in summary.items():
                counters[name] += value
            counters["cert_violations"] += cert_violations(result)
            zeros = np.round(zero_locations(result), 10) + 0.0  # + 0.0 folds -0.0 into 0.0
            digest_items.append([op.key, summary, zeros.tolist()])
        elif result is not None:
            digest_items.append([op.key, [vars(r) for r in result]])
    if spans_path is not None:
        tracer.save(spans_path)

    totals = tracer.totals()
    metrics = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        calls, incl, own = totals.get(base, (0, 0.0, 0.0))
        if kind == "s":
            metrics[name] = incl
        elif kind == "self_s":
            metrics[name] = own
        elif kind == "calls":
            metrics[name] = calls
    for name in COUNTERS + ("cert_violations",):
        metrics[f"solver.{name}"] = counters[name]
    excl_calls = totals.get("solver.exclusion_test", (0,))[0]
    kant_calls = totals.get("solver.kantorovich_test", (0,))[0]
    metrics["solver.exclusion_test.excluded_ratio"] = (
        tracer.counts["solver.exclusion_test.excluded"] / excl_calls if excl_calls else 0.0
    )
    metrics["solver.kantorovich_test.pass_ratio"] = (
        tracer.counts["solver.kantorovich_test.passed"] / kant_calls if kant_calls else 0.0
    )
    metrics["kernels.restrict_flops_computed"] = tracer.counts["kernels.restrict_flops_computed"]
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    digest = hashlib.sha256(json.dumps(digest_items, sort_keys=True).encode()).hexdigest()[:16]
    return trace_ops, failed, metrics, digest


def import_ktsolve():
    """Import ktsolve from ./src and warm it up."""
    sys.path.insert(0, str(ROOT / "src"))
    import ktsolve
    from warmup import warm_up

    warm_up(ktsolve)
    return ktsolve


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = SPEC[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    if not (ROOT / "src" / "ktsolve" / "__init__.py").is_file():
        print(f"no ktsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    kts = import_ktsolve()
    from workloads import WORKLOADS

    env = environment()
    ops = WORKLOADS[args.workload](kts, seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"

    if args.trace:
        spans = out_dir / f"{args.workload}.spans.npz"  # latest run only: spans are large
        attempted, failed, metrics, digest = traced_run(ops, spec["trace_ops"], spans)
        reported = emitted = PER_LAYER
    else:
        attempted, failed, metrics = timed_run(ops, args.seconds)
        digest = None
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emitted = END_TO_END
        reported = END_TO_END + END_TO_END_REPORTED

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {seed} ops {attempted} failed {failed}")
    for name, unit in reported:
        print(f"{name:<42} {metrics[name]:>14.6g} {unit}")
    if digest:
        print(f"digest {digest}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in emitted},
    }
    record = dict(result, workload=args.workload, seed=seed, seconds=args.seconds,
                  trace=args.trace, digest=digest, env=env, all_metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
