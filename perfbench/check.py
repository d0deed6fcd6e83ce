#!/usr/bin/env python3
"""Steadiness self-check and one-command report for the benchmark.

    python3 perfbench/check.py [--runs N] [--seconds S] [--first-seed K]
                               [--workloads w1,w2] [--traced]

For every workload it makes N untraced runs, each with another seed, and
prints per end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json; a spread
above a third of its bound is flagged. It also prints the error rate over
all runs. With --traced it adds one traced run per workload, prints its
per-layer metrics, and reports the tracing overhead: the traced run's
end-to-end numbers minus the untraced median.

The serve latencies are not in BENCHMARK.json (the batch workloads cannot
report them) and so not in the JSON result; they are read from the run's
metric lines, which print every measured number with four decimals.

Run from the root of a checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"check.py: {' '.join(cmd)} failed with exit code {out.returncode}")
    return json.loads(lines[-1]), lines[:-1]


# "  <name>  <value> <unit> (n=<samples>)", as the benchmark prints each metric.
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+\(n=\d+\)$")


def measured(result, lines):
    """Every metric of a run: the JSON result's, plus those only printed."""
    values = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            try:
                values[m[1]] = float(m[2])
            except ValueError:
                pass
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    return values


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values, attempted, failed, all_correct = {}, 0, 0, True
        for i in range(args.runs):
            seed = args.first_seed + i
            result, lines = run_once(workload, seed, args.seconds, 0)
            if i == 0:
                # The first run's own report: every metric with its unit and
                # sample count, the error rate and the thread pinning.
                print("\n".join(lines))
            run = measured(result, lines)
            print(f"# {workload} seed={seed} " + " ".join(
                f"{k}={v:.6g}" for k, v in run.items()), file=sys.stderr, flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            all_correct &= result["correct"]
            for name, value in run.items():
                values.setdefault(name, []).append(value)
        print(f"{workload} steadiness: {args.runs} runs x {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}; correct={all_correct}, "
              f"error_rate={failed / max(attempted, 1):.4g} ({failed}/{attempted})")
        print(f"  {'metric':<18} {'unit':<6} {'n':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            meta = e2e.get(name, {})
            bound = meta.get("bound")
            flag = "" if bound is None or sp <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<18} {meta.get('unit', ''):<6} {len(vals):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {bound if bound is not None else '':>6}{flag}")
        if args.traced:
            result, lines = run_once(workload, args.first_seed, args.seconds, 1)
            print(f"  traced run (seed {args.first_seed}), correct={result['correct']}:")
            for line in lines:
                if line.startswith("  "):
                    print(f"  {line}")
            traced_run = measured(result, lines)
            for traced, plain in [("trace.throughput_per_s", "throughput_per_s"),
                                  ("trace.latency_p50_ms", "latency_p50_ms")]:
                if traced in traced_run and plain in values:
                    t = traced_run[traced]
                    u = statistics.median(values[plain])
                    print(f"  tracing overhead on {plain}: traced {t:.6g} - untraced {u:.6g} "
                          f"= {t - u:+.6g} ({(t - u) / u:+.1%})")
        print(flush=True)


if __name__ == "__main__":
    main()
