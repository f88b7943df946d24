#!/usr/bin/env python3
"""Build and run the lightweb benchmark (perfbench/lwbench.ml).

    python3 perfbench/run.py --workload page-view --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark is compiled from
that checkout's sources with dune into the build directory named by
CARGO_TARGET_DIR (default .bench_build), the dune cache disabled so the
build reads and writes nothing outside the checkout. The last line of
standard output is the result JSON; everything the build prints goes to
standard error. Exit status is non-zero, with no result line, when the
sources are missing, the build fails, or the run fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("page-view", "bulk-get", "search-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build(build_dir):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "lwbench.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a lightweb source checkout (missing %s)" % needed)
    dune = find_dune()
    if dune is None:
        fail("dune not found on PATH")
    # the compiler lives beside dune (an opam switch's bin directory)
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir,
           "--cache=disabled", "./perfbench/lwbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "default", "perfbench", "lwbench.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny geometry and op count (the benchmark's self-test)")
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out", 4)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("run failed (exit %d)" % r.returncode, r.returncode or 5)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
