"""Steadiness of the jetcalc benchmark, and the bounds it supports.

    python3 perfbench/steadiness.py [--write]
    python3 perfbench/steadiness.py --trace-check

Without `--trace-check` it runs two sets, A and B, of RUNS runs of every
workload through `run.py`, interleaved run by run: for each i the
workloads take turns (their order rotating with i), and each runs once for
set A at seed SEED_BASE + i and once for set B at seed SEED_BASE + RUNS + i,
A first on even i and B first on odd i.  A slow phase of the host thus
falls on both sets alike.  For each workload and end-to-end metric it
prints the median, the quartiles and the spread (q3 - q1) / median of each
set, the shift of B's median against A's, the failed share and the median
process CPU seconds per round next to `wall_s`.  CPU seconds that hold
while wall seconds grow point at waiting (preemption by other processes);
CPU seconds that grow with them point at slower execution, of the program
or of the host.

Every metric's bound is derived alike: three times the worst spread or 1.5
times the worst absolute shift seen on any workload, whichever is larger,
rounded up to hundredths, at least MIN_BOUND and capped at MAX_BOUND
(the figures' own need is printed next to it).  `setup_s` then takes the
largest bound of all metrics, so that work moved into set-up is held to no
tighter a bound than where it came from.  A workload on which a set's
spread or the shift exceeds a metric's bound is reported UNRESOLVED for
that metric: the two sets did not agree within the bound.  With `--write`
the bounds go into BENCHMARK.json.

With `--trace-check` it instead makes two traced runs of every workload at
seed SEED_BASE and compares their per-layer counts and the sha256 digests
of the reports they wrote; it exits with 1 if they differ, a run is not
correct or an operation failed.

Records go to .perfbench_out/steadiness.json and trace-check.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"

RUNS = 10
SEED_BASE = 100
MIN_BOUND = 0.05
MAX_BOUND = 0.25


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    info = json.loads(lines[-2].removeprefix("info "))
    return {"workload": workload, "seed": seed, "info": info,
            "result": json.loads(lines[-1])}


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf}


def summarize(sets, metrics):
    table = {}
    for workload in sorted({r["workload"] for s in sets for r in s}):
        row = {}
        for name in metrics + ["cpu_s"]:
            per_set = []
            for runs in sets:
                mine = [r for r in runs if r["workload"] == workload]
                if name == "cpu_s":
                    vals = [statistics.median(r["info"]["cpus"])
                            for r in mine]
                else:
                    vals = [r["result"]["metrics"][name]["value"]
                            for r in mine]
                per_set.append(spread(vals))
            first, second = per_set[0]["median"], per_set[-1]["median"]
            row[name] = {"sets": per_set,
                         "shift": (second - first) / first if first else 0.0}
        row["failed_share"] = [
            sorted({r["result"]["failed"] / r["result"]["attempted"]
                    for r in runs if r["workload"] == workload})
            for runs in sets]
        table[workload] = row
    return table


def needed_bound(cell):
    """The bound one workload's figures of one metric call for."""
    return max(3.0 * max(s["spread"] for s in cell["sets"]),
               1.5 * abs(cell["shift"]))


def bounds_from(table, metrics):
    """{metric: (bound, need)}: the bound to write and the largest bound
    any workload's figures call for (above MAX_BOUND when capped)."""
    out = {}
    for name in metrics:
        need = max(needed_bound(row[name]) for row in table.values())
        bound = max(math.ceil(round(need * 100.0, 6)) / 100.0, MIN_BOUND)
        out[name] = (min(bound, MAX_BOUND), need)
    if "setup_s" in out:
        out["setup_s"] = (max(b for b, _need in out.values()),
                          out["setup_s"][1])
    return out


def agrees(cell, bound):
    """Both sets' spreads and the shift between them lie within `bound`."""
    return (max(s["spread"] for s in cell["sets"]) <= bound
            and abs(cell["shift"]) <= bound)


def steadiness_sets(workloads, metrics, seconds):
    sets = [[], []]
    for i in range(RUNS):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = SEED_BASE + k * RUNS + i
                r = run_once(workload, seed, seconds, 0)
                sets[k].append(r)
                vals = {n: round(v["value"], 4)
                        for n, v in r["result"]["metrics"].items()}
                print(f"set {'AB'[k]} {workload:16s} seed {seed}: {vals} "
                      f"correct={r['result']['correct']} "
                      f"failed={r['result']['failed']}/"
                      f"{r['result']['attempted']}", flush=True)

    table = summarize(sets, metrics)
    bounds = bounds_from(table, metrics)
    unresolved = {name: sorted(w for w, row in table.items()
                               if not agrees(row[name], bounds[name][0]))
                  for name in metrics}
    for workload, row in table.items():
        for name in metrics + ["cpu_s"]:
            cells = "  ".join(
                f"median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                f"spread {s['spread']:.3f}" for s in row[name]["sets"])
            verdict = ""
            if name in unresolved:
                verdict = ("  UNRESOLVED" if workload in unresolved[name]
                           else "  agree")
            print(f"{workload:16s} {name:12s} {cells}  "
                  f"shift {row[name]['shift']:+.3f}{verdict}")
        print(f"{workload:16s} failed share per set {row['failed_share']}")
    for name, (bound, need) in bounds.items():
        capped = " (capped)" if need > MAX_BOUND else ""
        print(f"bound {name} {bound:.2f}: the figures call for "
              f"{need:.3f}{capped}")
    print(f"unresolved {unresolved}")
    return {"sets": sets, "table": table,
            "bounds": {n: b for n, (b, _need) in bounds.items()},
            "needed": {n: need for n, (_b, need) in bounds.items()},
            "unresolved": unresolved}


def trace_check(workloads, seconds):
    out, problems = {}, []
    for workload in workloads:
        runs = [run_once(workload, SEED_BASE, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
                   if v["unit"] != "s"} for r in runs]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        digests = [r["info"]["digests"] for r in runs]
        out[workload] = {
            "counts_identical": not differing, "differing": differing,
            "digests_identical": digests[0] == digests[1],
            "digests": digests,
            "overhead_s": [r["result"]["metrics"]["trace.overhead_s"]["value"]
                           for r in runs],
            "correct": [r["result"]["correct"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs]}
        if differing:
            problems.append(f"{workload}: counts differ: {differing}")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: report digests differ")
        if not all(out[workload]["correct"]) or any(out[workload]["failed"]):
            problems.append(f"{workload}: a traced run failed its checks")
        print(f"trace {workload}: counts identical={not differing} "
              f"digests identical={digests[0] == digests[1]} "
              f"({len(digests[0])} reports) "
              f"overhead_s={out[workload]['overhead_s']}", flush=True)
    for line in problems:
        print(f"problem: {line}")
    return out, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark steadiness")
    ap.add_argument("--write", action="store_true",
                    help="write the derived bounds into BENCHMARK.json")
    ap.add_argument("--trace-check", action="store_true",
                    help="only compare two traced runs of every workload")
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace_check:
        record, problems = trace_check(workloads, seconds)
        (OUT_DIR / "trace-check.json").write_text(json.dumps(record, indent=1))
        return 1 if problems else 0
    record = steadiness_sets(workloads, metrics, seconds)
    (OUT_DIR / "steadiness.json").write_text(json.dumps(record, indent=1))
    if args.write:
        for m in spec["end_to_end"]:
            m["bound"] = record["bounds"][m["name"]]
        BENCHMARK.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
