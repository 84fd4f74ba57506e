"""Smoke test of the benchmark harness itself, at tiny sizes, in one process.

    python3 bench/smoke.py

Runs every workload once untraced and once traced, and fails unless
- every answer checks out (no failed operation),
- the traced pass reports every per-layer metric BENCHMARK.json declares,
  and every span it writes ends after it starts, lies within its parent
  and has a self time of at least 0; a span left unfinished and a span
  given a wrong parent must both break these checks,
- a deliberately wrong expected answer (37 dropped from the irregular
  primes) makes operations fail, so the checks can fail at all,
- an unchecked pass whose answer differs from the checked pass's counts
  that operation as failed,
- the irregular-pairs table agrees with Voronoi's congruence for p < 200.
"""

import json
import sys

import expected
import run
import worker
from spans import self_times

SEED = 1
COMPUTED_BY_RUNNER = {"trace.overhead_s"}  # traced minus untraced wall time, in run.py


def fail(message):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def span_faults(doc):
    """What is wrong with the spans of one traced pass; empty if nothing."""
    start, end, parent = doc["start_ns"], doc["end_ns"], doc["parent"]
    faults = []
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            faults.append(f"span {i} ends before it starts")
        elif not -1 <= p < i:
            faults.append(f"span {i} has parent {p}, not an earlier span")
        elif p >= 0 and not start[p] <= start[i] <= end[i] <= end[p]:
            faults.append(f"span {i} lies outside its parent {p}")
    own = self_times(start, end, parent)
    faults += [f"span {i} has self time {t} ns < 0" for i, t in enumerate(own) if t < 0]
    return faults


def injected_faults(doc):
    """Copies of `doc` each with one fault a broken tracer could make."""
    roots = [i for i, p in enumerate(doc["parent"]) if p < 0]
    child = next(i for i, p in enumerate(doc["parent"]) if p >= 0)
    unfinished = dict(doc, end_ns=list(doc["end_ns"]))
    unfinished["end_ns"][child] = 0
    misparented = dict(doc, parent=list(doc["parent"]))
    misparented["parent"][roots[1]] = roots[0]
    return {"unfinished span": unfinished, "wrong parent": misparented}


def main():
    worker.import_cyclo()
    import workloads

    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - COMPUTED_BY_RUNNER
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        fail("BENCHMARK.json and workloads.py name different workloads")

    for name, sizes in workloads.TINY.items():
        plain = worker.run_pass(name, SEED, sizes=sizes)
        traced = worker.run_pass(name, SEED, trace=True, sizes=sizes)
        for label, report in (("untraced", plain), ("traced", traced)):
            if report["failed"] or not report["ops"]:
                fail(f"{name} {label}: {report['failed']} of {report['ops']} failed {report['errors']}")
        missing = declared - set(traced["layers"])
        if missing:
            fail(f"{name}: per-layer metrics not reported: {sorted(missing)}")
        doc = json.loads((worker.SPANS_DIR / f"{name}.json").read_text())
        faults = span_faults(doc)
        if faults:
            fail(f"{name}: {len(faults)} bad spans, first {faults[0]}")
        for fault, broken in injected_faults(doc).items():
            if not span_faults(broken):
                fail(f"{name}: an injected {fault} went unnoticed")
        if run.failures([plain, traced])[0] != [0, 0]:
            fail(f"{name}: the traced pass's answers differ from the untraced pass's")
        wrong = dict(traced, digests=["0" * 16] + traced["digests"][1:])
        if run.failures([plain, wrong])[0] != [0, 1]:
            fail(f"{name}: a wrong answer in an unchecked pass went unnoticed")
        print(f"smoke: ok {name}: {plain['ops']} ops, traced {traced['spans']} spans, "
              f"each within its parent with self time >= 0; injected faults and a wrong "
              f"unchecked answer caught")

    corrupted = {p: ks for p, ks in expected.IRREGULAR_PAIRS.items() if p != 37}
    sizes = dict(workloads.TINY["regularity_scan"], irregular=corrupted)
    report = worker.run_pass("regularity_scan", SEED, sizes=sizes)
    if not report["failed"]:
        fail("a corrupted irregular-prime list went unnoticed")
    print(f"smoke: ok corrupted list: failed_share {report['failed'] / report['ops']:.4f} > 0")

    for p in expected.primes_between(5, 199):
        if expected.voronoi_indices(p) != expected.IRREGULAR_PAIRS.get(p, ()):
            fail(f"irregular-pairs table disagrees with Voronoi's congruence at p={p}")
    print("smoke: ok irregular-pairs table matches Voronoi's congruence for p < 200")


if __name__ == "__main__":
    main()
