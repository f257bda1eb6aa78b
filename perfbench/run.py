#!/usr/bin/env python3
"""Build and run the request-path benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench/bench.exe from
source into the build directory (CARGO_TARGET_DIR if set, else
.bench_build), then runs it. With --trace 0 set-up is measured in
several fresh processes and setup_s is their median: the set-up-only
runs and the measuring run each set up once, from a cold process.

Output: the benchmark's report, then one JSON line (the last line of
stdout). Exit code 0 on success, 1 on a build failure, a wrong output
or a crashed run, 2 on bad usage or a pinned variable set in the
environment. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# Variables that change what is measured; the benchmark refuses to run
# with any of them set (bench.exe checks the same list).
PINNED = ["OCAMLRUNPARAM", "TACO_CC", "TACO_NATIVE_KEEP", "TACO_LOG", "TACO_EVENTS"]

WORKLOADS = ["cold_compile", "serve_mix", "kernel_run"]

SETUPS = 5

RUN_TIMEOUT_S = 150


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1", 2)
    pinned = [v for v in PINNED if v in os.environ]
    if pinned:
        fail("refusing to run with %s set; unset it to measure the pinned environment"
             % ", ".join(pinned), 2)

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(root, build_dir, "perfbench")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # Native builds and the compiler write their temporaries under the
    # checkout; dune's shared cache (outside it) stays off.
    env = dict(os.environ, TMPDIR=tmp_dir, DUNE_CACHE="disabled")

    # dune from PATH, else from the current opam switch.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
                "--display", "quiet", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(root, build_dir, "default", "perfbench", "bench.exe")
    args = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", out_dir]

    def run(extra):
        try:
            p = subprocess.run(args + extra, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run timed out after %d s" % RUN_TIMEOUT_S)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            sys.stdout.write(p.stdout)
            fail("bench.exe exited with %d" % p.returncode, p.returncode or 1)
        return lines[:-1], json.loads(lines[-1])

    setups = []
    if a.trace == 0:
        for _ in range(SETUPS - 1):
            _, s = run(["--setup-only"])
            setups.append(s["setup_s"])
    report, result = run([])
    for line in report:
        print(line)
    if a.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print("setup_s: median of %d set-ups in fresh processes: %s"
              % (len(setups), " ".join("%.4f" % s for s in setups)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
