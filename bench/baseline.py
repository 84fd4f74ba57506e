"""Record a baseline: run the benchmark on every workload with many seeds.

    python3 bench/baseline.py

Runs bench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json, and writes bench/baseline.json.  Per
workload it makes two sets of ten untraced runs of the same code, seeds
1-10 and 11-20, interleaved (seed i of one set next to seed i of the other,
alternating which goes first) so that slow and fast spells of a shared
machine fall on both sets alike, then three traced runs.  For every metric
it records the median, the quartiles and the spread (interquartile distance
over the median, from statistics.quantiles(values, n=4)) of each set, and
the gap between the two sets' medians as a share of the first; the
benchmark asks both to stay within the metric's bound.
"""

import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, SPEC

SEEDS = 10  # per set
TRACED_SEEDS = 3
OUT = BENCH / "baseline.json"


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed: {done.stderr.strip()}")
    *_, detail, result = done.stdout.strip().splitlines()
    detail, result = json.loads(detail)["detail"], json.loads(result)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong answers {detail['errors']}")
    run = {"seed": seed, "seconds": round(time.monotonic() - t, 1), "passes": detail["passes"],
           "attempted": result["attempted"], "failed": result["failed"]}
    return detail, {m: v["value"] for m, v in result["metrics"].items()}, run


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def summarise(results):
    """{metric: summary} over a list of {metric: value}."""
    return {m: summary([r[m] for r in results]) for m in results[0]}


def main():
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        sets = {"first": ([], []), "second": ([], [])}  # set -> (metric values, runs)
        for i in range(1, SEEDS + 1):
            order = ("first", "second") if i % 2 else ("second", "first")
            for label in order:
                seed = i if label == "first" else SEEDS + i
                detail, values, run = one_run(name, seed, seconds, 0)
                sets[label][0].append(values)
                sets[label][1].append(run)
                print(f"{name} {label} seed={seed}: "
                      + " ".join(f"{m}={v:.6g}" for m, v in values.items()), flush=True)
        entry = {"op_tail_pct": detail["op_tail_pct"], "ops_per_pass": detail["ops_per_pass"],
                 "rss_growth_mb": detail["rss_growth_mb"]}
        doc["meta"] = {k: v for k, v in detail["meta"].items() if k != "seed"}
        for label, (values, runs) in sets.items():
            entry[label] = summarise(values)
            entry[f"{label}_runs"] = runs
        entry["gap"] = {m: entry["second"][m]["median"] / entry["first"][m]["median"] - 1
                        for m in entry["first"]}
        traced, traced_runs = [], []
        for seed in range(1, TRACED_SEEDS + 1):
            _, values, run = one_run(name, seed, seconds, 1)
            traced.append(values)
            traced_runs.append(run)
        entry["per_layer"] = summarise(traced)
        entry["per_layer_runs"] = traced_runs
        doc["workloads"][name] = entry
        for metric, bound in ((m, b["bound"]) for m, b in bounds.items()):
            a, b = entry["first"][metric], entry["second"][metric]
            print(f"  {name} {metric}: medians {a['median']:.6g} {b['median']:.6g} "
                  f"(gap {entry['gap'][metric]:+.3f}), spreads {a['spread']:.3f} "
                  f"{b['spread']:.3f}, bound {bound}", flush=True)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
