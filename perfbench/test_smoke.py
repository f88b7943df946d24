#!/usr/bin/env python3
"""Self-test of the benchmark at tiny geometry.

    python3 perfbench/test_smoke.py

Runs every workload in --smoke mode, untraced and traced, and asserts:
every op checked correct; every metric BENCHMARK.json names is reported
with its unit; two runs with the same seed give identical count metrics;
and page-view and bulk-get move the same bytes and messages per op
whatever the seed (the page-independent traffic shape the paper's
privacy argument rests on). Only search-churn publishes while it reads,
so only it reports nonzero publish metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# metrics that count work and so must repeat exactly under one seed
COUNTS = {
    0: ["up_bytes_per_op", "down_bytes_per_op"],
    1: ["browser.data_fetches_per_op", "browser.code_fetches_per_op",
        "tcp.msgs_per_op", "server.answers_per_op", "pir.scan_bytes_per_op",
        "client.retries_per_op", "client.resyncs_per_op",
        "store.cow_bytes_per_publish", "kw.load_factor", "kw.stash_size"],
}
# the traffic shape that must not depend on the seed (or the page)
SHAPE = {0: ["up_bytes_per_op", "down_bytes_per_op"], 1: ["tcp.msgs_per_op"]}
SHAPE_WORKLOADS = ("page-view", "bulk-get")
PUBLISH_METRICS = ("publish_p50_ms", "store.cow_bytes_per_publish")
PUBLISH_WORKLOADS = ("search-churn",)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            a, b, other = run(w, 7, trace), run(w, 7, trace), run(w, 8, trace)
            for r in (a, b, other):
                check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                      "%s trace=%d: ops not all correct: %s" % (w, trace, r))
                for m in expected[trace]:
                    got = r["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"],
                          "%s trace=%d: metric %s missing or wrong unit" % (w, trace, m["name"]))
                check(len(r["metrics"]) == len(expected[trace]),
                      "%s trace=%d: unexpected extra metrics" % (w, trace))
            for name in COUNTS[trace]:
                check(a["metrics"][name] == b["metrics"][name],
                      "%s trace=%d: %s differs under one seed: %s vs %s"
                      % (w, trace, name, a["metrics"][name], b["metrics"][name]))
            if trace == 1:
                for name in PUBLISH_METRICS:
                    v = a["metrics"][name]["value"]
                    check((v > 0) == (w in PUBLISH_WORKLOADS),
                          "%s: %s is %s" % (w, name, v))
            if w in SHAPE_WORKLOADS:
                for name in SHAPE[trace]:
                    check(a["metrics"][name] == other["metrics"][name],
                          "%s trace=%d: %s depends on the seed: %s vs %s"
                          % (w, trace, name, a["metrics"][name], other["metrics"][name]))
            print("ok  %-12s trace=%d" % (w, trace))
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
