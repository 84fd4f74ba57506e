"""cyclo benchmark harness (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (bench/worker.py),
one after another, as many as end within S seconds and at least three.
Every pass repeats the same inputs, made from the seed, so a pass is one
time-to-solution sample.  The first pass checks every answer; every other
pass must give the same answers, compared by digest.

Other work on a shared machine only ever adds time: in bursts, and in
spells of seconds to minutes in which everything runs up to 2x slower, or
alternates between full and about half speed.  So each pass also
times a fixed stdlib kernel (worker.reference_kernel) in slots between its
operations, and after each round of passes one more fresh interpreter only
sets up, so that set-up samples are spread over the run like the
operations.  An operation's latency is its mean over the passes with the
slowest OP_TRIM of them left out, the pass time is the sum of those,
set-up time is the median of all set-ups, and each timing is divided by
the run's slowdown: the mean of all the kernel's timings, the slowest
KERNEL_TRIM of them left out, over REFERENCE_NS.  Means on both sides of
the division weigh slow and fast moments by how long they last; leaving
out the slowest timings keeps a rare stall from moving them.  Counts and
memory are medians over passes.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics (self times as measured, not divided by the slowdown), the traced
pass's spans going to .bench_trace/<workload>.json.  The last line of
standard output is the result object; the line before it holds the run's
details (machine, pass counts, tail percentile, failures, the slowdown and
the end-to-end timings as measured, before dividing by it).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
MIN_PASSES = 3  # per kind of pass
RUN_LIMIT_S = 165  # no pass starts when it could end after this
# A fixed scale: about the time of worker.time_reference in a quiet spell
# on a 2-vCPU Intel Xeon VM with Python 3.11.  Timings are divided by the
# run's slowdown against it, so that they read as if the machine ran at
# that speed.
REFERENCE_NS = 94_300
OP_TRIM = 0.2  # share of each operation's slowest passes left out of its mean
KERNEL_TRIM = 0.02  # share of the slowest kernel timings left out of their mean


class HarnessError(Exception):
    pass


def worker(workload, seed, *flags, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd + list(flags), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass ran past {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise HarnessError(f"{workload} pass exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Untraced (and, with trace, alternating traced) passes for `seconds`,
    each round followed by a set-up-only pass; returns ({traced: passes},
    set-ups).  The first pass checks every answer; the others are held to
    its digests."""
    kinds = [False, True] if trace else [False]
    passes = {kind: [] for kind in kinds}
    setups = []
    start = time.monotonic()
    longest = 0.0  # slowest round of passes so far
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(p) >= MIN_PASSES for p in passes.values())
        if enough and elapsed + longest > seconds:
            return passes, setups
        if elapsed + longest > RUN_LIMIT_S:
            raise HarnessError(f"{workload} passes too slow for {MIN_PASSES} in {RUN_LIMIT_S} s")
        t = time.monotonic()
        for kind in kinds:
            flags = ("--trace",) if kind else ("--check",) if not passes[kind] else ()
            passes[kind].append(worker(workload, seed, *flags, timeout=RUN_LIMIT_S - elapsed))
        setups.append(worker(workload, seed, "--setup-only", timeout=60))
        longest = max(longest, time.monotonic() - t)


def failures(passes):
    """(failed op count per pass, first reasons).  An op fails where the
    checked pass failed it, and in any other pass where its answer's digest
    differs from the checked pass's."""
    checked = next(p for p in passes if p["checked"])
    ref = checked["digests"]
    counts, errors = [], list(checked["errors"])
    for p in passes:
        differ = {i for i, d in enumerate(p["digests"]) if i >= len(ref) or d != ref[i]}
        differ |= set(range(len(p["digests"]), len(ref)))
        counts.append(len(differ | set(checked["bad"])))
        errors += [f"op {i}: answer differs from the checked pass" for i in sorted(differ)[:5]]
    return counts, errors[:5]


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def trimmed_mean(values, share):
    """The mean of `values` with the slowest `share` of them left out."""
    kept = sorted(values)
    return statistics.fmean(kept[: len(kept) - int(len(kept) * share)])


def op_latencies_ms(passes):
    """Each operation's mean latency over the passes, its slowest OP_TRIM
    left out, ascending.  Every pass runs the same operations, so this
    averages each operation over the run's moments without mixing
    different operations."""
    cols = zip(*(p["lat_ns"] for p in passes))
    return sorted(trimmed_mean(col, OP_TRIM) / 1e6 for col in cols)


def slowdown(passes):
    """How much slower than REFERENCE_NS the reference kernel ran: the mean
    of all its timings, the slowest KERNEL_TRIM left out.  The kernel slots
    sit between the operations, so they see the same slow and fast moments."""
    return trimmed_mean([t for p in passes for t in p["ref_ns"]], KERNEL_TRIM) / REFERENCE_NS


def tail(sorted_ms):
    """(percentile, value) at the highest percentile with at least 10 samples beyond it."""
    n = len(sorted_ms)
    if n < 11:
        return 100.0, sorted_ms[-1]
    return 100.0 * (n - 10) / n, sorted_ms[n - 11]


def metadata(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def main():
    ap = argparse.ArgumentParser(description="cyclo benchmark harness")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not SPEC.is_file() or not (SRC / "cyclo" / "__init__.py").is_file():
        raise HarnessError(f"run from a cyclo checkout: need {SPEC.name} and src/cyclo")
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise HarnessError(f"unknown workload {args.workload!r}")

    passes, setup_only = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = passes[False]
    every = [p for kind in passes.values() for p in kind]
    setups = every + setup_only
    attempted = sum(p["ops"] for p in every)
    failed_per_pass, errors = failures(every)
    failed = sum(failed_per_pass)

    slow = slowdown(plain)
    measured_ms = op_latencies_ms(plain)
    latencies = [ms / slow for ms in measured_ms]
    tail_pct, tail_ms = tail(latencies)
    setup_s = statistics.median(p["setup_s"] for p in setups)
    values = {
        "wall_s": sum(latencies) / 1e3,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s / slow,
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "ok_share": 1 - failed / attempted,
    }
    if args.trace:
        traced = passes[True]
        for key in traced[0]["layers"]:
            values[key] = statistics.median_low(p["layers"][key] for p in traced)
        traced_wall_s = sum(op_latencies_ms(traced)) / 1e3 / slowdown(traced)
        values["trace.overhead_s"] = traced_wall_s - values["wall_s"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise HarnessError(f"harness does not measure {missing}")

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "meta": metadata(args.seed),
        "passes": {("traced" if kind else "untraced"): len(p) for kind, p in passes.items()},
        "ops_per_pass": len(latencies),
        "op_tail_pct": tail_pct,
        "failed_share": failed / attempted,
        "rss_growth_mb": median_of(plain, "rss_growth_mb"),
        "wall_s_per_pass": [p["wall_s"] for p in plain],
        "slowdown": slow,
        "measured": {"wall_s": sum(measured_ms) / 1e3, "op_p50_ms": statistics.median(measured_ms),
                     "op_tail_ms": tail(measured_ms)[1], "setup_s": setup_s},
        "errors": errors,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    try:
        main()
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
