"""jetcalc benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a jetcalc checkout; jetcalc is imported from its `src`
tree, nothing is installed.  Workloads: check-matrix, growth-frontier,
jet-samples (see README.md).

With `--trace 0` the launcher times SETUP_PROBES set-up-only processes plus
the measured one (`setup_s` is the median of those set-up times, from
process start to the first measured operation), then runs the workload in a
fresh worker process for T seconds and reports the end-to-end metrics:
`wall_s` (median wall time of one round), `setup_s` and `peak_rss_mb`
(ru_maxrss of the worker).  With `--trace 1` it runs one worker whose
traced rounds give the per-layer metrics (see worker.py).

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics.  The line before it, starting
with `info `, carries per-round wall and CPU seconds, the set-up samples,
the environment, any check problems and the sha256 of each report
check-matrix wrote.  Files go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("check-matrix", "growth-frontier", "jet-samples")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="jetcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_worker(args, deadline, probe=False):
    """Run worker.py to completion; return its result and its spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    if probe:
        cmd.append("--probe")
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), spawned_at


def end_to_end(args, deadline):
    setups = []
    for _ in range(SETUP_PROBES):
        res, spawned_at = run_worker(args, deadline, probe=True)
        setups.append(res["ready_at"] - spawned_at)
    res, spawned_at = run_worker(args, deadline)
    setups.append(res["ready_at"] - spawned_at)
    metrics = {
        "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    info = {"walls": res["walls"], "cpus": res["cpus"], "setups": setups}
    return res, metrics, info


def per_layer(args, deadline):
    res, _spawned_at = run_worker(args, deadline)
    metrics = res["per_layer"]
    info = {"walls": res["walls"], "cpus": res["cpus"],
            "traced_walls": res["traced_walls"],
            "overheads": res["overheads"], "computed": res["computed"]}
    return res, metrics, info


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "jetcalc" / "__init__.py").is_file():
        print(f"no jetcalc sources at {ROOT / 'src' / 'jetcalc'}; run from "
              f"the root of a jetcalc checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            res, metrics, info = per_layer(args, deadline)
        else:
            res, metrics, info = end_to_end(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for line in res["problems"] + res["errors"]:
        print(f"problem: {line}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed,
                refused=res["refused"], problems=res["problems"],
                errors=len(res["errors"]), env=res["env"],
                digests=res["digests"])
    print("info " + json.dumps(info))
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
