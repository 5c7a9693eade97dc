#!/usr/bin/env python3
"""Gate the batched path's amortization from a bench_kernels JSON report.

Reads a google-benchmark JSON file (produced by `bench_kernels --json ...`)
and compares aggregate row-update throughput (rows x k per iteration, so
items_per_second is directly comparable across batch widths) of the k=8
batched solve against the k=1 run of the same code path on the 256x256 FD
Laplacian:

    BM_SolveSharedBatch/256/1/real_time   (batch path, single column)
    BM_SolveSharedBatch/256/8/real_time   (batch path, eight columns)

Because both runs execute the same batch machinery, the ratio isolates what
batching is for: each CSR gather (column index + matrix value) is reused k
times, and the unit-stride inner loops over the batch dimension vectorize.
The k=8 run must reach at least --min-ratio times the k=1 throughput
(default 2.0), minus --noise-tolerance-pct (default 3) of jitter allowance.
Throughput is the median over --benchmark_repetitions (see
compare_bench.py for why median, not mean). Exit status: 0 ok,
1 too slow or benchmarks missing, 2 bad input.

Usage: tools/check_batch_throughput.py report.json [--min-ratio 2.0]
"""

import argparse
import json
import statistics
import sys

SINGLE = "BM_SolveSharedBatch/256/1/real_time"
BATCHED = "BM_SolveSharedBatch/256/8/real_time"


def items_per_second(report: dict, name: str) -> float:
    # With --benchmark_repetitions the report carries one entry per
    # repetition plus aggregates. Prefer the median aggregate; otherwise
    # compute the median of the repetition entries ourselves (also covers
    # the single-run case).
    rates = []
    for bench in report.get("benchmarks", []):
        run_name = bench.get("run_name", bench.get("name"))
        if run_name != name:
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        if bench.get("aggregate_name") == "median":
            return float(rate)
        if bench.get("run_type", "iteration") == "iteration":
            rates.append(float(rate))
    if not rates:
        raise KeyError(name)
    return statistics.median(rates)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="bench_kernels --json output file")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="minimum k=8 / k=1 row-update throughput ratio")
    parser.add_argument("--noise-tolerance-pct", type=float, default=3.0,
                        help="run-to-run jitter allowance subtracted from "
                             "the floor, in percent")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_batch_throughput: cannot read {args.report}: {e}",
              file=sys.stderr)
        return 2

    try:
        single = items_per_second(report, SINGLE)
        batched = items_per_second(report, BATCHED)
    except KeyError as e:
        print(f"check_batch_throughput: benchmark {e} missing from report "
              f"(run bench_kernels without a filter excluding SolveShared)",
              file=sys.stderr)
        return 1

    if single <= 0:
        print("check_batch_throughput: k=1 items_per_second is zero",
              file=sys.stderr)
        return 2

    ratio = batched / single
    floor = args.min_ratio * (1.0 - args.noise_tolerance_pct / 100.0)
    verdict = "OK" if ratio >= floor else "FAIL"
    print(f"check_batch_throughput: {verdict} — "
          f"k=1 {single:,.0f} row-updates/s, k=8 {batched:,.0f} "
          f"row-updates/s, ratio {ratio:.3f}x (floor {args.min_ratio}x "
          f"- {args.noise_tolerance_pct}% noise = {floor:.3f}x)")
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
