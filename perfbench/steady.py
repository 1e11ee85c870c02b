#!/usr/bin/env python3
"""Run each workload on several seeds and summarize every metric.

    python3 perfbench/steady.py --runs 10 [--workloads dse serve]
                                [--seconds 10] [--record FILE]

For each workload and each gated end-to-end metric this prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json. --record writes a
perf-trajectory point (see perfbench/trajectory/) with the same summary
for every metric the workloads print, gated or not.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """The result object and every printed `name value unit` line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect output" % (workload, seed))
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                printed[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    for name, m in result["metrics"].items():
        printed[name] = (m["value"], m["unit"])
    return result, printed


def summarize(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(vals)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names)
    ap.add_argument("--record", help="write a trajectory point here")
    args = ap.parse_args()

    summary = {}
    worst = 0.0
    for workload in args.workloads:
        gated, shown, units = {}, {}, {}
        for seed in range(1, args.runs + 1):
            result, printed = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                gated.setdefault(name, []).append(m["value"])
            for name, (value, unit) in printed.items():
                shown.setdefault(name, []).append(value)
                units[name] = unit
        summary[workload] = {
            name: dict(summarize(vals), unit=units[name],
                       gated=name in gated)
            for name, vals in shown.items()}
        for name, vals in gated.items():
            s = summarize(vals)
            med, q1, q3, spread = s["median"], s["q1"], s["q3"], s["spread"]
            worst = max(worst, spread / bounds[name])
            flag = ("  <-- above a third of the bound"
                    if spread > bounds[name] / 3 else "")
            print("%-16s %-12s median %14.6f  q1 %14.6f  q3 %14.6f  "
                  "spread %6.3f  bound %.2f%s"
                  % (workload, name, med, q1, q3, spread, bounds[name], flag))
        sys.stdout.flush()
    print("worst spread / bound: %.3f" % worst)

    if args.record:
        meminfo = open("/proc/meminfo").readline().split()
        point = {
            "recorded": time.strftime("%Y-%m-%d"),
            "box": "%d cpus (nproc), %.1f GB RAM, %s, Release build of "
                   "perfbench/CMakeLists.txt"
                   % (os.cpu_count(), int(meminfo[1]) / 1048576,
                      platform.machine()),
            "runs_per_workload": args.runs,
            "seeds": [1, args.runs],
            "run_seconds": args.seconds,
            "workloads": summary,
        }
        with open(args.record, "w") as f:
            json.dump(point, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
