"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--check] [--trace] [--setup-only]

Imports cyclo from the checkout's ``src``, builds the workload's inputs from
the seed and warms its caches (the set-up time), runs the operations one
after another in this single thread (a closed loop), and prints one JSON
object as the last line of standard output.  The object holds a digest of
every answer; with --check the answers are also checked, and the checked
digests vouch for every other pass of the same inputs.  A traced pass also
writes its spans to .bench_trace/<workload>.json.
"""

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_trace"
KERNEL_SAMPLES = 64  # reference-kernel timings per pass, spread over its operations


def reference_kernel():
    """About 0.1 ms of fixed stdlib work made of what cyclo's operations are
    made of (big-integer, dict and Fraction arithmetic), and of nothing in
    cyclo, so no change to cyclo changes its time: only the machine does."""
    table, a = {}, 3**200
    for i in range(80):
        a = (a * 7919 + i) % (1 << 600)
        table[i & 63] = table.get(i & 63, 0) + (a >> 300)
    x = Fraction(1)
    for k in range(1, 12):
        x = x * Fraction(k, k + 3) + Fraction(1, k)
    return x, sorted(table.values())


def time_reference():
    """The kernel's time, once its code and data are back in the caches the
    operation before it used: a measure of the machine, not of cyclo."""
    reference_kernel()
    t = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t


class OpError:
    """Stands in the results list for an operation that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {self.exc!r}"


def import_cyclo():
    """Import cyclo from this checkout's sources and from nowhere else."""
    if not (SRC / "cyclo" / "__init__.py").is_file():
        raise SystemExit(f"no cyclo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclo

    if Path(cyclo.__file__).resolve().parent != SRC / "cyclo":
        raise SystemExit(f"imported cyclo from {cyclo.__file__}, not from {SRC}")
    return cyclo


def evaluate(job, results):
    """{op index: reason} for every op that raised or whose answer fails a check."""
    bad = {i: repr(r) for i, r in enumerate(results) if isinstance(r, OpError)}
    for covered, predicate, reason in job.checks:
        if any(i in bad for i in covered):
            for i in covered:
                bad.setdefault(i, f"{reason}: depends on a failed operation")
            continue
        try:
            ok = predicate(results) is True
        except Exception as exc:  # a malformed answer fails its check
            ok, reason = False, f"{reason}: check raised {exc!r}"
        if not ok:
            for i in covered:
                bad.setdefault(i, reason)
    return bad


def digest(result):
    import hashlib  # here, after the peak RSS is read: its import alone adds about 3.5 MB

    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def run_pass(name, seed, trace=False, sizes=None, setup_only=False, t0=None, check=True):
    """Set up, run and (with `check`) check one pass of workload `name`;
    return its report.  `t0` is the perf_counter reading when set-up
    began, if that was before this call.  The reference kernel is timed
    before every `ref_every`-th operation: the same KERNEL_SAMPLES slots in
    every pass of the job."""
    t0 = time.perf_counter() if t0 is None else t0
    import spans
    import workloads

    job = workloads.WORKLOADS[name](seed, **(sizes or {}))
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}
    setup_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
        op_span = tracer.name_id("op")
    results, lat_ns, ref_ns = [], [], []
    ref_every = max(1, len(job.ops) // KERNEL_SAMPLES)
    wall_start = time.perf_counter_ns()
    for i, fn in enumerate(job.ops):
        if i % ref_every == 0:
            kernel_start = time.perf_counter_ns()
            ref_ns.append(time_reference())
            wall_start += time.perf_counter_ns() - kernel_start  # not part of the pass
        t = time.perf_counter_ns()
        span = tracer.begin(op_span) if tracer else None
        try:
            result = fn(results)
        except Exception as exc:  # counted as a failed operation
            result = OpError(exc)
        if tracer:
            tracer.finish(span)
        lat_ns.append(time.perf_counter_ns() - t)
        results.append(result)
    wall_s = (time.perf_counter_ns() - wall_start) / 1e9
    if tracer:
        tracer.uninstall()

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before checking

    bad = evaluate(job, results) if check else {}
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "lat_ns": lat_ns,
        "ref_ns": ref_ns,
        "ops": len(lat_ns),
        "digests": [digest(r) for r in results],
        "checked": check,
        "bad": sorted(bad),
        "failed": len(bad),
        "errors": [f"op {i}: {why}" for i, why in sorted(bad.items())[:5]],
        "peak_rss_mb": peak_rss_kb / 1024,
        # high-water growth over the end of set-up: the pass's own memory,
        # which ru_maxrss hides under the interpreter's and the imports'
        "rss_growth_mb": (peak_rss_kb - setup_rss_kb) / 1024,
    }
    if tracer:
        report["layers"] = spans.layer_metrics(tracer)
        report["spans"] = len(tracer.start)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{name}.json", {"workload": name, "seed": seed, "wall_s": wall_s})
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true", help="check every answer")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    t0 = time.perf_counter()
    import_cyclo()
    report = run_pass(args.workload, args.seed, args.trace, setup_only=args.setup_only, t0=t0,
                      check=args.check)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
