#!/usr/bin/env python3
"""Gate the large-n kernel ordering from a bench_scale report.

Reads the "scale" table of an ajac-bench-report JSON (from
`bench_scale --json ...`), picks the largest fd2 problem it benched (CI
runs --edge 2048, local runs default to 4096), and gates the ordering the
bandwidth work promises, on mrows_per_s:

    best of sellcs/sellcs-fp32 >= blocked x --min-new-speedup

bench_scale already reports medians over --reps, so the rows are used
directly; --noise-tolerance-pct (default 3) relaxes the floor by the
residual run-to-run jitter two medians still carry.

Exit status: 0 ok, 1 too slow or kernels missing, 2 bad input.

Usage: tools/check_kernel_speedup.py scale.json [--min-new-speedup 1.0]
"""

import argparse
import json
import sys

SCALE_NEW_KERNELS = ("sellcs", "sellcs-fp32")


def gate(label: str, actual: float, base: float, min_speedup: float,
         noise_pct: float) -> bool:
    """Print one comparison line; True when actual/base clears the floor."""
    speedup = actual / base
    floor = min_speedup * (1.0 - noise_pct / 100.0)
    ok = speedup >= floor
    print(f"check_kernel_speedup: {'OK' if ok else 'FAIL'} — {label}: "
          f"{speedup:.3f}x (floor {min_speedup}x - {noise_pct}% noise "
          f"= {floor:.3f}x)")
    return ok


def check_scale(report: dict, args) -> int:
    """Gate the bench_scale table (see the module docstring)."""
    table = report.get("tables", {}).get("scale")
    if table is None:
        print("check_kernel_speedup: no 'scale' table in report "
              "(is this a bench_scale --json file?)", file=sys.stderr)
        return 1
    columns = table.get("columns", [])
    try:
        key_col = columns.index("problem/kernel")
        n_col = columns.index("n")
        rate_col = columns.index("mrows_per_s")
    except ValueError as e:
        print(f"check_kernel_speedup: scale table column missing: {e}",
              file=sys.stderr)
        return 2

    # kernel -> mrows_per_s for the largest fd2 problem in the table.
    by_problem: dict = {}
    for row in table.get("rows", []):
        key = str(row[key_col])
        if "/" not in key or not key.startswith("fd2-"):
            continue
        problem, kernel = key.rsplit("/", 1)
        by_problem.setdefault(problem, {"n": row[n_col], "rates": {}})
        by_problem[problem]["rates"][kernel] = float(row[rate_col])
    if not by_problem:
        print("check_kernel_speedup: no fd2 rows in the scale table",
              file=sys.stderr)
        return 1
    problem = max(by_problem, key=lambda p: by_problem[p]["n"])
    rates = by_problem[problem]["rates"]

    missing = [k for k in ("blocked", *SCALE_NEW_KERNELS) if k not in rates]
    if missing:
        print(f"check_kernel_speedup: kernels {missing} missing from "
              f"{problem} (run bench_scale with all kernels)",
              file=sys.stderr)
        return 1

    best_new = max(SCALE_NEW_KERNELS, key=lambda k: rates[k])
    print(f"check_kernel_speedup: {problem} "
          f"(n={by_problem[problem]['n']:,}): " +
          ", ".join(f"{k} {rates[k]:.1f} Mrows/s"
                    for k in ("blocked", *SCALE_NEW_KERNELS)))
    ok = gate(f"{best_new} vs blocked", rates[best_new], rates["blocked"],
              args.min_new_speedup, args.noise_tolerance_pct)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="bench_scale --json output file")
    parser.add_argument("--min-new-speedup", type=float, default=1.0,
                        help="minimum best-of-sellcs/blocked throughput "
                             "ratio")
    parser.add_argument("--noise-tolerance-pct", type=float, default=3.0,
                        help="run-to-run jitter allowance subtracted from "
                             "the floor, in percent")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_kernel_speedup: cannot read {args.report}: {e}",
              file=sys.stderr)
        return 2

    return check_scale(report, args)


if __name__ == "__main__":
    sys.exit(main())
