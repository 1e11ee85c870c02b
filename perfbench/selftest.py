#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute plus a build).

    python3 perfbench/selftest.py

For every workload in spec.json (the gated ones and spmspm-sharded),
untraced and traced, it checks that the last line
is the result object, that every gated metric (BENCHMARK.json) and every
workload metric (spec.json) is printed with its unit, that error_rate
is 0 and that the traced run wrote its spans. It then proves the gate
bites: a run against a deliberately perturbed reference must report
failures, and run.py in a directory holding only BENCHMARK.json and
perfbench/ must fail without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = ".perfbench_out/selftest"
SIZE = 0.1
SEED = 1

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, reference=None, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.3", "--trace", str(trace), "--size", str(SIZE),
           "--out", OUT]
    if reference:
        cmd += ["--reference", reference]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600, cwd=cwd)
    return done.returncode, done.stdout.strip().splitlines()


def printed(lines):
    """name -> (value, unit) from the report's `name value unit` lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or line.startswith(("#", "{")):
            continue
        try:
            found[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            pass
    return found


def check_run(workload, trace, gated, extra):
    code, lines = run(workload, trace)
    tag = "%s --trace %d" % (workload, trace)
    expect(code == 0 and lines, tag + ": exits 0")
    if not lines:
        return
    try:
        result = json.loads(lines[-1])
    except ValueError:
        expect(False, tag + ": last line is JSON")
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           tag + ": result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, tag + ": correct, nothing failed")
    expect({k: v["unit"] for k, v in result["metrics"].items()} == gated,
           tag + ": result holds every gated metric with its unit")
    shown = printed(lines)
    for name, unit in list(gated.items()) + list(extra.items()):
        expect(name in shown and shown[name][1] == unit,
               "%s: prints %s [%s]" % (tag, name, unit))
    expect(shown.get("error_rate", (1, ""))[0] == 0, tag + ": error_rate 0")
    if trace:
        spans = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, SEED))
        ok = os.path.exists(spans) and os.path.getsize(spans) > 0
        if ok:
            with open(spans) as f:
                first = json.loads(f.readline())
            ok = {"name", "start_us", "end_us", "parent", "id"} <= set(first)
        expect(ok, tag + ": wrote its spans")


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    gated = [w["name"] for w in bench["workloads"]]
    expect(set(gated) <= set(spec["workloads"]),
           "spec.json describes every gated workload")
    # spec.json also lists spmspm-sharded, which is not gated but must
    # still run and print everything.
    for name, info in spec["workloads"].items():
        check_run(name, 0, e2e, info["metrics"])
        check_run(name, 1, layers, info["layer_metrics"])

    # The gate bites: perturb the stored reference of the spmspm group.
    with open(os.path.join(HERE, "reference.json")) as f:
        refs = json.load(f)
    key = "spmspm/size=%g" % SIZE
    expect(key in refs, "reference.json holds " + key)
    refs[key]["digest"] = "0" * 16
    perturbed = os.path.join(OUT, "perturbed-reference.json")
    with open(perturbed, "w") as f:
        json.dump(refs, f)
    code, lines = run("spmspm-serial", 0, reference=perturbed)
    result = json.loads(lines[-1]) if lines else {}
    expect(result.get("failed", 0) > 0 and result.get("correct") is False
           and printed(lines).get("error_rate", (0, ""))[0] > 0,
           "a perturbed reference drives error_rate above 0")

    # Without the library sources next to it, run.py fails cleanly.
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dse", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=bare, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "run.py without the library fails and prints no result")
    shutil.rmtree(bare)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
