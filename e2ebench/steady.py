#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and compare spreads to bounds.

    python3 e2ebench/steady.py --runs 10 --save set1.json
    python3 e2ebench/steady.py --runs 10 --save set2.json --compare set1.json
    python3 e2ebench/steady.py --load set2.json --compare set1.json

Each run uses its own seed (--seed0, --seed0 + 1, ...); runs rotate through
the workloads so slow drift of the host spreads over all of them. For every
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. A spread passes below the
bound, and is steady below a third of it; setup_s's spread is reported but
not judged. With --compare it also checks that each median of this set is
not worse than the other set's by more than the bound, and that both sets
fail the same share of operations. Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def collect(bench, workloads, runs, seed0):
    data = {w: {"results": []} for w in workloads}
    for i in range(runs):
        for w in workloads:
            r = run_once(w, seed0 + i, bench["run_seconds"])
            data[w]["results"].append(r)
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in r["metrics"].items())
            print(f"run {i + 1}/{runs} {w} seed {seed0 + i}: "
                  f"{r['failed']}/{r['attempted']} failed, {vals}",
                  flush=True)
    return data


def values(data, workload, metric):
    return [r["metrics"][metric]["value"] for r in data[workload]["results"]]


def failed_share(data, workload):
    res = data[workload]["results"]
    return (sum(r["failed"] for r in res), sum(r["attempted"] for r in res))


def report(bench, data, other):
    ok = True
    for w, d in data.items():
        failed, attempted = failed_share(data, w)
        print(f"\n{w}: {len(d['results'])} runs, {failed}/{attempted} "
              f"operations failed")
        if other is not None and w in other:
            of, oa = failed_share(other, w)
            same = failed * oa == of * attempted
            ok &= same
            print(f"  failed share vs other set: {failed}/{attempted} vs "
                  f"{of}/{oa} {'same' if same else 'DIFFERENT'}")
        print(f"  {'metric':<15}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'ratio':>7}  verdict")
        for m in bench["end_to_end"]:
            v = values(data, w, m["name"])
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            if m["name"] == "setup_s":
                verdict = "not judged"
            elif ratio <= 1 / 3:
                verdict = "steady"
            elif ratio <= 1:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            line = (f"  {m['name']:<15}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{spread:>9.3f}{m['bound']:>7.2f}{ratio:>7.2f}  {verdict}")
            if other is not None and w in other:
                base = statistics.median(values(other, w, m["name"]))
                change = (med - base) / base
                worse = change if m["better"] == "lower" else -change
                drift_ok = worse <= m["bound"]
                ok &= drift_ok
                line += (f"; median vs other {change:+.3f} "
                         f"{'ok' if drift_ok else 'WORSE THAN BOUND'}")
            print(line)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--save", help="write this set's raw results here")
    ap.add_argument("--load", help="report a saved set instead of running")
    ap.add_argument("--compare", help="saved set to compare medians with")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.load:
        with open(args.load) as f:
            data = json.load(f)
    else:
        names = [w["name"] for w in bench["workloads"]]
        if args.workloads:
            names = args.workloads.split(",")
        data = collect(bench, names, args.runs, args.seed0)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(data, f)
    other = None
    if args.compare:
        with open(args.compare) as f:
            other = json.load(f)
    return 0 if report(bench, data, other) else 1


if __name__ == "__main__":
    sys.exit(main())
