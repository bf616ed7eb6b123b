#!/usr/bin/env python3
"""Determinism self-test of the end-to-end benchmark.

    python3 e2e_bench/selftest.py [--seconds 1.5] [--workload NAME ...]

Run from the root of a sopr checkout. For each workload it makes short
runs through run.py and checks that:
  * two runs with one seed give identical rules.considered_per_txn,
    rules.fired_per_txn and exec counters (traced runs), and identical
    wal_bytes_per_txn on single-writer workloads (untraced runs);
  * a second seed changes the operation sequence (its plan digest) and
    still passes every correctness check;
  * span self times cover at least 90% of each traced pass's wall time.
Exits 0 when every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["org_cascade", "wire_oltp", "snapshot_mix"]
SINGLE_WRITER = {"org_cascade", "snapshot_mix"}
EXACT_TRACED = [
    "rules.considered_per_txn", "rules.fired_per_txn", "rules.condition_true_ratio",
    "exec.batches_per_op", "exec.columnar_chunks_per_op", "exec.kernel_calls_per_op",
    "exec.pointer_fallback_ratio", "exec.hash_join_builds_per_op",
    "exec.hash_join_fallbacks", "exec.scalar_fallbacks_per_op",
]
COVERAGE = ["trace.coverage_engine", "trace.coverage_scheduler", "trace.coverage_wire"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: exit {out.returncode}")
    result = json.loads(lines[-1])
    provenance = next(json.loads(l[len("provenance "):]) for l in lines
                      if l.startswith("provenance "))
    if not result["correct"]:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: incorrect")
    return result, provenance


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.5)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in args.workload or WORKLOADS:
        a, pa = run(w, 1, args.seconds, 0)
        b, pb = run(w, 1, args.seconds, 0)
        expect(pa["plan_digest"] == pb["plan_digest"], f"{w}: one seed, one plan")
        if w in SINGLE_WRITER:
            expect(value(a, "wal_bytes_per_txn") == value(b, "wal_bytes_per_txn"),
                   f"{w}: wal_bytes_per_txn repeats "
                   f"({value(a, 'wal_bytes_per_txn')} vs {value(b, 'wal_bytes_per_txn')})")
        expect(value(a, "ok_ratio") == 1.0, f"{w}: ok_ratio is 1.0")
        ta, _ = run(w, 1, args.seconds, 1)
        tb, _ = run(w, 1, args.seconds, 1)
        for m in EXACT_TRACED:
            expect(value(ta, m) == value(tb, m),
                   f"{w}: {m} repeats ({value(ta, m)} vs {value(tb, m)})")
        for m in COVERAGE:
            expect(value(ta, m) >= 0.9, f"{w}: {m} = {value(ta, m):.4f} >= 0.9")
        c, pc = run(w, 2, args.seconds, 0)
        expect(pc["plan_digest"] != pa["plan_digest"],
               f"{w}: seed 2 changes the operation sequence")
        expect(c["correct"] and value(c, "ok_ratio") == 1.0,
               f"{w}: seed 2 passes every check")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
