#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the held-out-seed check.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads triage_cold,serve_fresh]
                                [--held-out 9001] [--traced]

For every workload it runs `perfbench/run.py --trace 0` once per seed and
reports, per end-to-end metric, the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, against the bound BENCHMARK.json fixes. With --held-out it also
runs that seed once and says whether each metric lands within its bound of
the default seed's (seed 1) result, naming any that does not. With --traced
it runs one traced run per workload and checks that it reports exactly the
per-layer metrics BENCHMARK.json lists. Exits 1 when a spread exceeds its
bound or a traced run misses a metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def worse_by(metric, value, reference):
    """Share by which `value` is worse than `reference` (negative: better)."""
    if reference == 0:
        return 0.0
    change = (value - reference) / abs(reference)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    ok = True
    report = {}
    for workload in workloads:
        values = {name: [] for name in metrics}
        results = {}
        for seed in seeds:
            results[seed] = run(workload, seed, seconds)
            for name in metrics:
                values[name].append(results[seed]["metrics"][name]["value"])
        report[workload] = {}
        print(f"{workload}: {len(seeds)} seeds")
        for name, m in metrics.items():
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            exempt = name == "setup_s"
            within = exempt or spread <= m["bound"]
            ok = ok and within
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": v}
            print(f"  {name:20s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {spread:7.4f} bound {m['bound']:5.3f}"
                  f"{'' if within else '  OVER BOUND'}"
                  f"{' (exempt)' if exempt else ''}")
        if args.held_out is not None:
            default = results.get(1) or run(workload, 1, seconds)
            held = run(workload, args.held_out, seconds)
            missed = []
            for name, m in metrics.items():
                w = worse_by(m, held["metrics"][name]["value"],
                             default["metrics"][name]["value"])
                if abs(w) > m["bound"]:
                    missed.append(f"{name} ({w:+.3f})")
            report[workload]["held_out"] = {"seed": args.held_out,
                                            "outside_bound": missed}
            print(f"  held-out seed {args.held_out} vs seed 1: "
                  + ("every metric within its bound" if not missed
                     else "outside bound: " + ", ".join(missed)))
        if args.traced:
            names = {m["name"] for m in bench["per_layer"]}
            got = set(run(workload, seeds[0], seconds, trace=1)["metrics"])
            missing, extra = names - got, got - names
            ok = ok and not missing and not extra
            print(f"  traced run: {len(got)} per-layer metrics"
                  + (f", missing {sorted(missing)}" if missing else "")
                  + (f", unlisted {sorted(extra)}" if extra else ""))
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
