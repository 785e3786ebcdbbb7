"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that each traced wrapper records calls on the workload meant to exercise
it (so a rename cannot silently zero a metric), and that each workload's
output check turns a deliberately corrupted answer into a failed op.
Exits non-zero when any expectation breaks.
"""

import contextlib
import io
import json
import sys

import numpy as np

import run
from workloads import WORKLOADS, Op

TINY_OPS = 3

# per-layer metric prefixes each workload must exercise (calls or seconds > 0)
EXERCISED = {
    "protocol": (
        "solver.",
        "reparam.",
        "kernels.",
        "bounding.bounding_polytope.",
        "bounding.contains_origin.",
        "bounding.bounding_interval_bi.",
        "basis.convert.",
        "basis.conversion_matrix.",
        "basis.eval_bi.",
    ),
    "near-coincident": (
        "solver.exclusion_test.",
        "solver.kantorovich_test.",
        "solver.lipschitz_bound.",
        "kernels.zonotope_origin_inside.",
        "bounding.contains_origin.",
    ),
    "intervals": (
        "bounding.bounding_interval.",
        "basis.convert_uni.",
        "basis.conversion_matrix.",
        "families.",
    ),
}
# metrics that must stay 0 on a workload, by construction
IDLE = {
    "protocol": ("families.", "basis.convert_uni.", "bounding.bounding_interval."),
    "near-coincident": ("solver.rho_star.", "solver.newton.", "solver.zeros", "families."),
    "intervals": ("solver.", "reparam.", "kernels.restrict_flops_computed"),
}
# outcome metrics that legitimately read 0 where the workload is exercised
MAY_BE_ZERO = {
    "solver.unresolved",
    "solver.kantorovich_test.pass_ratio",
    "solver.cert_violations",
    "solver.kantorovich_passes",
    "solver.zeros",
    "solver.skipped_subsumed",
}


def drop_zero(report):
    report.zeros.pop()
    return report


def inject_zero(kts):
    def corrupt(report):
        report.zeros.append(kts.ZeroRecord(np.array([0.5, 0.5]), 0.1, 1.0, 0))
        return report

    return corrupt


def miscount(results):
    results[0].ties += 1
    return results


def corrupted(ops, corrupt):
    for op in ops:
        yield Op(op.key, lambda op=op: corrupt(op.run()), op.check)


def main():
    kts = run.import_ktsolve()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if declared["end_to_end"] != dict(run.END_TO_END):
        problems.append(f"end-to-end metrics {dict(run.END_TO_END)} != BENCHMARK.json {declared['end_to_end']}")
    if declared["per_layer"] != dict(run.PER_LAYER):
        problems.append("per-layer metrics or units differ from BENCHMARK.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    corruptions = {"protocol": drop_zero, "near-coincident": inject_zero(kts), "intervals": miscount}

    for name, make_ops in WORKLOADS.items():
        seed = run.SPEC[name]["default_seed"]
        _, failed, metrics = run.timed_run(make_ops(kts, seed), 0.0, min_ops=TINY_OPS)
        wanted = [m for m, _ in run.END_TO_END if m not in ("setup_s", "peak_rss_mb")]
        wanted += [m for m, _ in run.END_TO_END_REPORTED]
        missing = [m for m in wanted if m not in metrics]
        if failed or missing:
            problems.append(f"{name}: timed run failed {failed} ops, missing {missing}")

        _, failed, metrics, _ = run.traced_run(make_ops(kts, seed), TINY_OPS)
        missing = [m for m in declared["per_layer"] if m not in metrics]
        if failed or missing:
            problems.append(f"{name}: traced run failed {failed} ops, missing {missing}")
        for metric, value in metrics.items():
            if metric.startswith(EXERCISED[name]) and metric not in MAY_BE_ZERO and not value > 0:
                problems.append(f"{name}: {metric} recorded nothing")
            if metric.startswith(IDLE[name]) and value != 0:
                problems.append(f"{name}: {metric} = {value}, expected 0")

        ops = corrupted(make_ops(kts, seed), corruptions[name])
        with contextlib.redirect_stderr(io.StringIO()):  # the expected failure reports
            _, failed, metrics = run.timed_run(ops, 0.0, min_ops=TINY_OPS)
        if not metrics["failed_frac"] > 0:
            problems.append(f"{name}: corrupted answers passed the output check")
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far", flush=True)

    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
