#!/usr/bin/env python3
"""Diff two benchmark JSON reports entry by entry.

Accepts two report schemas, detected per file:

  * google-benchmark JSON (bench_kernels --json): entries are paired by
    run_name and compared on the median real_time (and items_per_second
    when both carry it).
  * ajac-bench-report JSON (the table benches: bench_fig2, bench_faults,
    bench_policies, bench_mesh --json): every numeric cell becomes an
    entry named `table[row-key].column` (row key = first column), and the
    cell value is compared directly — for these the value columns are raw
    table numbers (iterations, counts, ms), not nanoseconds.

So a CI run can show the performance trend against the committed baseline:

    tools/compare_bench.py BENCH_baseline.json fresh.json

Medians, not means: with --benchmark_repetitions the report carries one
entry per repetition plus aggregates; a single descheduled repetition on a
shared runner drags the mean far below steady state while the median
shrugs it off (same convention as the overhead and batch gates). Deltas within
--noise-tolerance-pct are labeled '~' (noise); larger ones '+' (faster) or
'-' (slower).

By default the comparison is informational and always exits 0 — trends
need a human eye because baselines go stale (different machine, different
load). With --gate-regression-pct N it exits 1 when any paired benchmark's
median real_time regressed by more than N percent.

Exit status: 0 ok, 1 gated regression, 2 bad input / nothing to compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load_table_report(report: dict) -> dict[str, dict[str, float]]:
    """ajac-bench-report tables flattened to `table[row-key].column`.

    Each numeric cell maps to a single 'real_time' sample so the delta
    machinery below applies unchanged; the docstring's caveat about raw
    table numbers applies. Rows are keyed by their first column, which
    every table bench uses as the sweep variable (size, agents, ...).
    """
    out: dict[str, dict[str, float]] = {}
    for tname, table in report.get("tables", {}).items():
        columns = table.get("columns", [])
        for row in table.get("rows", []):
            if not row:
                continue
            key = str(row[0])
            for idx, cell in enumerate(row[1:], start=1):
                if not isinstance(cell, (int, float)):
                    continue
                name = f"{tname}[{key}].{columns[idx]}"
                out[name] = {"real_time": float(cell)}
    return out


def load_medians(path: str) -> dict[str, dict[str, float]]:
    """run_name -> {metric: median} for real_time and items_per_second."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    if report.get("kind") == "ajac-bench-report":
        return load_table_report(report)
    samples: dict[str, dict[str, list[float]]] = {}
    aggregates: dict[str, dict[str, float]] = {}
    for bench in report.get("benchmarks", []):
        run_name = bench.get("run_name", bench.get("name"))
        if run_name is None:
            continue
        for metric in ("real_time", "items_per_second"):
            value = bench.get(metric)
            if value is None:
                continue
            if bench.get("aggregate_name") == "median":
                aggregates.setdefault(run_name, {})[metric] = float(value)
            elif bench.get("run_type", "iteration") == "iteration":
                samples.setdefault(run_name, {}).setdefault(
                    metric, []
                ).append(float(value))
    out: dict[str, dict[str, float]] = {}
    for run_name, metrics in samples.items():
        out[run_name] = {
            m: statistics.median(vs) for m, vs in metrics.items()
        }
    for run_name, metrics in aggregates.items():
        out.setdefault(run_name, {}).update(metrics)  # aggregate wins
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="reference report (older)")
    parser.add_argument("candidate", help="report to compare against it")
    parser.add_argument("--noise-tolerance-pct", type=float, default=3.0,
                        help="|delta| at or below this is labeled noise "
                             "(default 3)")
    parser.add_argument("--gate-regression-pct", type=float, default=None,
                        help="exit 1 if any real_time median regresses by "
                             "more than this percent (default: report only)")
    args = parser.parse_args()

    base = load_medians(args.baseline)
    cand = load_medians(args.candidate)
    common = sorted(set(base) & set(cand))
    if not common:
        print("error: no benchmarks in common", file=sys.stderr)
        return 2

    print(f"baseline:  {args.baseline}")
    print(f"candidate: {args.candidate}")
    # "value" is median real_time ns for google-benchmark entries and the
    # raw table cell for ajac-bench-report entries.
    print(f"{'benchmark':<48} {'base value':>12} {'cand value':>12} "
          f"{'delta':>8}  {'thpt':>8}")
    worst = 0.0
    worst_name = ""
    for name in common:
        b = base[name].get("real_time")
        c = cand[name].get("real_time")
        if b is None or c is None or b <= 0:
            continue
        delta_pct = 100.0 * (c - b) / b
        # real_time up = slower. Label by the noise tolerance.
        if abs(delta_pct) <= args.noise_tolerance_pct:
            label = "~"
        else:
            label = "-" if delta_pct > 0 else "+"
        thpt = ""
        bt = base[name].get("items_per_second")
        ct = cand[name].get("items_per_second")
        if bt and ct:
            thpt = f"{100.0 * (ct - bt) / bt:+7.1f}%"
        print(f"{name:<48} {b:>12.6g} {c:>12.6g} "
              f"{delta_pct:>+7.1f}{label} {thpt:>8}")
        if delta_pct > worst:
            worst = delta_pct
            worst_name = name
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"only in baseline:  {', '.join(only_base)}")
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand)}")

    if args.gate_regression_pct is not None and worst > args.gate_regression_pct:
        print(f"FAIL: {worst_name} regressed {worst:.1f}% "
              f"(> {args.gate_regression_pct:.1f}% allowed)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
