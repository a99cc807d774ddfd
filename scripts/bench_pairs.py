"""Paired benchmark runs of two checkouts, summarized into one JSON record.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_7.json \
        [--seed 700]

PARENT and CHANGE are checkouts of jetcalc (each with its own `perfbench/`
and `src/`).  For every workload of CHANGE's `BENCHMARK.json` it runs
`perfbench/run.py --trace 0` for the file's `run_seconds` on both checkouts
in ten pairs, pair i at seed `--seed` + i, the parent first on even i and
the change first on odd i, so a slow phase of the host falls on both sides
alike.  A claimed gain must also hold on seeds that were not used while
the change was developed, so each recorded run picks its own `--seed`.

Per workload and end-to-end metric it records each side's median and
quartiles, the change's wins (ties count for neither), the relative shift
of the medians, whether that shift lies within the metric's bound, whether
the metric is unresolved and whether the change's gain is claimable.  A
metric is unresolved when the parent's interquartile spread over its median
exceeds the bound, so the bound cannot tell a shift from noise, unless
every change run beats every parent run.  A gain is claimable when the
change wins at least nine tenths of the pairs, the medians differ, in the
better direction, by more than the parent's interquartile spread, and the
change fails no larger share of the workload's operations than the parent.
Every run's figures with its raw `setups` and `walls` samples (from
perfbench's `info ` line), the failed operations, the seeds, `nproc` and
the numpy and BLAS versions are recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

PAIRS = 10


def parse_run(stdout):
    """The final JSON line of a `perfbench/run.py` output, with the set-up
    and round samples, `setups` and `walls`, of its `info ` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(line for line in lines
                           if line.startswith("info "))[len("info "):])
    result.update(setups=info["setups"], walls=info["walls"])
    return result


def run_once(checkout, workload, seed, seconds):
    """One `perfbench/run.py` run, as `parse_run` reads it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric, parent, change):
    """The paired comparison of one lower- or higher-is-better metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    gain = sign * (ps["median"] - cs["median"])
    shift = (cs["median"] - ps["median"]) / ps["median"]
    spread = ps["q3"] - ps["q1"]
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": ps, "change": cs,
            "wins": wins, "ties": ties, "pairs": len(parent),
            "shift": shift, "within_bound": sign * shift <= metric["bound"],
            "unresolved": (spread / ps["median"] > metric["bound"]
                           and not beats_all),
            "claimable": wins >= 0.9 * len(parent) and gain > spread}


def summarize(end_to_end, runs):
    """One workload's paired `runs` compared per end-to-end metric, with no
    gain claimable when the change fails a larger share of operations than
    the parent; the failed and attempted operations of each side and
    whether every run's outputs were correct."""
    sides = ("parent", "change")
    failed = {side: [sum(r[side]["failed"] for r in runs),
                     sum(r[side]["attempted"] for r in runs)]
              for side in sides}
    (p_failed, p_tried), (c_failed, c_tried) = failed["parent"], \
        failed["change"]
    fails_more = c_failed * p_tried > p_failed * c_tried
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        got = compare(metric, *([r[side]["metrics"][name]["value"]
                                 for r in runs] for side in sides))
        got["claimable"] = got["claimable"] and not fails_more
        summary[name] = got
    summary["failed"] = failed
    summary["correct"] = all(r[side]["correct"] for r in runs
                             for side in sides)
    summary["runs"] = runs
    return summary


def git_state(checkout):
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=700)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    seeds = [args.seed + i for i in range(PAIRS)]
    record = {
        "parent": git_state(args.parent), "change": git_state(args.change),
        "seconds": seconds, "seeds": seeds, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {k: v for k, v in np.show_config(mode="dicts")
                 ["Build Dependencies"]["blas"].items()
                 if k in ("name", "version", "openblas configuration")},
        "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: " + json.dumps(
                    {k: v["value"] for k, v in
                     pair[side]["metrics"].items()}), file=sys.stderr)
            runs.append(pair)
        record["workloads"][workload] = summarize(bench["end_to_end"], runs)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
