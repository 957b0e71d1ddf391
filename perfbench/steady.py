#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or those named) several times with distinct seeds,
alternating the workload order between rounds, then prints for each
end-to-end metric its median, quartiles and spread -- the distance between
the first and third quartile as a share of the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them -- next to the metric's
bound. ``bench.gen_late_p99_ms`` (how late the open-loop generator ran) is
printed too; a late generator is reported, never a reason to drop a run.

With ``--traced`` one extra traced run per workload follows; its per-layer
metrics are printed with the tracing overhead: the traced run's own
end-to-end medians against the untraced medians.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--workloads a,b]
                                [--traced] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    """One benchmark run: (result dict, detail dict); exits on failure."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    if not result["correct"]:
        sys.exit(f"incorrect run: {workload} seed {seed}")
    return result, detail


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--traced", action="store_true", help="add one traced run each")
    ap.add_argument("--out", default="", help="write every run's results here (JSON)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    runs = {n: [] for n in names}
    t_start = time.time()
    for r in range(args.runs):
        order = names if r % 2 == 0 else list(reversed(names))
        for n in order:
            seed = args.seed + r
            result, detail = run_once(command, n, seed, seconds, False)
            runs[n].append({"seed": seed, "result": result, "detail": detail})
            gl = detail.get("run", {}).get("gen_late_p99_ms")
            print(f"[{time.time() - t_start:7.1f}s] {n} seed {seed}: "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"gen_late_p99 {gl} ms", flush=True)

    traced = {}
    if args.traced:
        for n in names:
            traced[n] = run_once(command, n, args.seed + args.runs, seconds, True)

    worst = 0.0
    for n in names:
        print(f"\n== {n}: {len(runs[n])} runs")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'ok':>4}")
        for m in metrics:
            values = [x["result"]["metrics"][m["name"]]["value"] for x in runs[n]]
            med, q1, q3, sp = spread(values)
            ok = sp <= m["bound"] / 3 or m["name"] == "setup_s"
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            print(f"{m['name']:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f} "
                  f"{m['bound']:>6.2f} {'yes' if ok else 'NO':>4}")
        late = [x["detail"].get("run", {}).get("gen_late_p99_ms") for x in runs[n]]
        late = [v for v in late if v is not None]
        if late:
            med, q1, q3, sp = spread(late)
            print(f"{'gen_late_p99_ms':<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f}")
        if n in traced:
            result, detail = traced[n]
            lm = result["metrics"]
            print(f"-- traced run (seed {args.seed + args.runs}): per-layer metrics")
            for k, v in lm.items():
                print(f"   {k:<40} {v['value']:>14.6g} {v['unit']}")
            for e2e in ("ack_p50_ms", "verdict_p50_ms", "ingest_rps"):
                untraced = statistics.median(
                    x["result"]["metrics"][e2e]["value"] for x in runs[n])
                t = lm.get(f"bench.trace.{e2e}", {}).get("value")
                if t:
                    print(f"   tracing overhead on {e2e}: traced {t:.6g} vs untraced "
                          f"median {untraced:.6g} ({(t - untraced) / untraced:+.1%})")
            print(f"   splits: {json.dumps(detail.get('run', {}).get('split', {}))}")

    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "traced": traced}, f)


if __name__ == "__main__":
    main()
