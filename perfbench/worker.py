"""Run one benchmark workload in this process.

    python3 perfbench/worker.py --workload W --seed S --seconds T
                                --trace 0|1 --out-dir DIR [--probe]

Imports jetcalc from the `src` tree next to this directory, builds the
workload's fixed inputs, then runs whole rounds until T seconds have passed
since the first round began.  With `--probe` it stops after set-up (the
launcher times several probes for `setup_s`).  With `--trace 1` one
untimed warm-up round fills the package's caches, then every measured
round is a paired round: each step runs once untraced and once traced,
back to back, the order alternating from step to step.  The per-layer
metrics come from the traced halves; the trace overhead of a paired round
is its traced wall time minus its untraced wall time, so host speed drift
between the two halves is limited to a few seconds.  The last line of
standard output is one JSON object for the launcher, `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_jetcalc():
    """Put this checkout's `src` first on the path and make sure the jetcalc
    that gets imported is the one in it, not an installed copy."""
    pkg = SRC / "jetcalc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"jetcalc sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import jetcalc
    if Path(jetcalc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported jetcalc from {jetcalc.__file__}, "
                         f"expected {pkg}")


def environment():
    import numpy as np
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                              "default")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    from workloads import meminfo
    info = meminfo()
    for key in ("MemTotal", "SwapTotal"):
        env[f"{key}_mb"] = info[key] / 1024.0 if key in info else None
    return env


@contextlib.contextmanager
def paused(tracer):
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def new_tally():
    return {"wall": 0.0, "cpu": 0.0, "attempted": 0, "failed": 0,
            "problems": [], "errors": [], "refused": 0}


def run_step(step, out, tracer=None):
    """Run one step, timed, then check it with the clock stopped; add the
    outcome to the tally `out`."""
    from workloads import mem_available_mb
    if step.need_mb:
        avail = mem_available_mb()
        if avail is not None and avail < step.need_mb:
            out["attempted"] += step.ops
            out["failed"] += step.ops
            out["refused"] += 1
            return
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = step.run()
    except Exception:  # a step that raises counts as failed operations
        out["wall"] += time.perf_counter() - t0
        out["cpu"] += time.process_time() - c0
        out["attempted"] += step.ops
        out["failed"] += step.ops
        out["errors"].append(f"{step.name}: {traceback.format_exc()}")
        return
    out["wall"] += time.perf_counter() - t0
    out["cpu"] += time.process_time() - c0
    with paused(tracer):
        try:
            attempted, failed, problems = step.check(result)
        except Exception:  # a malformed output fails the check
            attempted, failed = step.ops, 0
            problems = [f"{step.name}: check raised "
                        f"{traceback.format_exc()}"]
    out["attempted"] += attempted
    out["failed"] += failed
    out["problems"] += problems


def run_round(workload, tracer=None):
    """One round: every step of the workload once."""
    out = new_tally()
    for step in workload.steps():
        run_step(step, out, tracer)
    return out


def paired_round(workload, tracer):
    """Every step once untraced and once traced, back to back; untraced
    first on even steps, traced first on odd ones.  Returns the two
    tallies (untraced, traced)."""
    import layertrace
    plain, traced = new_tally(), new_tally()
    for i, step in enumerate(workload.steps()):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not use_trace:
                run_step(step, plain)
                continue
            layertrace.install(tracer)
            try:
                run_step(step, traced, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    os.environ["JETCALC_THREADS"] = "1"     # the trace assumes one thread
    import_jetcalc()
    import layertrace
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.setup()
    ready_at = time.time()
    if args.probe:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    plain, traced, warmup, per_layer = [], [], [], []
    if args.trace:
        tracer = layertrace.Tracer()
        warmup.append(run_round(workload))
    start = time.perf_counter()
    while True:
        if args.trace:
            run_id = f"{args.workload}/seed{args.seed}/round{len(traced)}"
            layertrace.reset_round(tracer, run_id)
            untraced, rnd = paired_round(workload, tracer)
            plain.append(untraced)
            traced.append(rnd)
            per_layer.append(layertrace.round_metrics(tracer, run_id))
        else:
            plain.append(run_round(workload))
        if time.perf_counter() - start >= args.seconds:
            break

    rounds = warmup + plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    result = {
        "workload": args.workload, "seed": args.seed, "ready_at": ready_at,
        "walls": [r["wall"] for r in plain],
        "cpus": [r["cpu"] for r in plain],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "refused": sum(r["refused"] for r in rounds),
        "problems": sorted(set(problems)),
        "errors": sorted({e for r in rounds for e in r["errors"]}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": environment(),
        "digests": getattr(workload, "digests", {}),
    }
    if args.trace:
        counts = [{m: r[m] for m, unit in layertrace.LAYER_METRICS
                   if unit in layertrace.COUNT_UNITS} for r in per_layer]
        if any(c != counts[0] for c in counts):
            result["problems"].append("per-layer counts differ between "
                                      "traced rounds of one run")
        overheads = [t["wall"] - p["wall"] for p, t in zip(plain, traced)]
        overhead = statistics.median(overheads)
        result["overheads"] = overheads
        result["traced_walls"] = [r["wall"] for r in traced]
        result["computed"] = list(layertrace.COMPUTED)
        summary = layertrace.summarize(per_layer, overhead)
        result["per_layer"] = {name: {"value": summary[name], "unit": unit}
                               for name, unit in layertrace.LAYER_METRICS}
        tracer.write_jsonl(os.path.join(
            args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
