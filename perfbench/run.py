#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of spmspm-serial, spmspm-sharded, outofcore, dse, serve, or
`all` to run the five one after another, each in its own process (peak
memory is per workload). BENCHMARK.json gates all but spmspm-sharded,
which is kept for runs by hand (perfbench/README.md, Noise). perfbench/CMakeLists.txt builds the library
through the repository's CMakeLists.txt together with the benchmark
program (perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; scratch files go to .perfbench_out.
Both are relative to the working directory, the repository root.

The program prints every metric by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["spmspm-serial", "spmspm-sharded", "outofcore", "dse", "serve"]
# One workload must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    """Configure once, then (re)build; returns the program's path."""
    def quiet(cmd):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(3)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        quiet(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator)
    quiet(["cmake", "--build", build_dir, "--target", "teaal-perfbench",
           "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "teaal-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", type=float,
                    help="multiplies every input size (default 1; the "
                         "self-test runs tiny)")
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"),
                    help="stored simulated-statistics reference")
    ap.add_argument("--out", default=".perfbench_out",
                    help="scratch directory")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.stderr.write("perfbench: library sources (src/) not found "
                         "next to perfbench/\n")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Compiler and benchmark temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(args.out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    program = build(build_dir, env)

    code = 0
    for workload in (WORKLOADS if args.workload == "all"
                     else [args.workload]):
        cmd = [program, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", args.out, "--reference", args.reference]
        if args.size is not None:
            cmd += ["--size", repr(args.size)]
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: %s exceeded %d s\n"
                             % (workload, RUN_TIMEOUT_S))
            return 4
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
