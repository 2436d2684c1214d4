#!/usr/bin/env python3
"""End-to-end refinement-check benchmark.

Builds the libraries, qcm-check, qcm-opt and the harness from the current
source tree, runs one workload for a fixed time, and prints every metric by
name with its unit and sample count. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload cli --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced replay and reports its per-layer metrics. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("cli", "paper_matrix", "sweep_matrix", "oracle_grid")
# Every run must end within this many seconds; the first run in a checkout
# also builds, which may take longer.
RUN_LIMIT_S = 180


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_jobs():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configures on first use, then builds; a no-op build verifies that
    nothing measured is stale against the tree."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "--target", "e2e_harness",
                      "-j", str(build_jobs())])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def source_commit():
    """The git commit of the tree, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "tools", "tests", "e2ebench",
                                    "CMakeLists.txt"],
                                   capture_output=True, text=True, timeout=10)
            return commit.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                            else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "tests", "examples", "e2ebench",
                "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker threads for --jobs runs and oracle_grid "
                             "(default: min(nproc, 4))")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are missing next to e2ebench/", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    built = time.monotonic()

    out_path = os.path.join(BUILD, "result-%s.json" % args.workload)
    spans_path = os.path.join(BUILD, "spans-%s.tsv" % args.workload)
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [os.path.join(BUILD, "e2e_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--bin", os.path.join(BUILD, "qcm", "tools"),
           "--expected", os.path.join(HERE, "expected_cli.txt"),
           "--out", out_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    # The run limit applies once the build is done.
    limit = max(30.0, RUN_LIMIT_S - 10 - (time.monotonic() - built))
    try:
        code = subprocess.call(cmd, timeout=limit)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish within %.0f s" % limit)
    if not os.path.exists(out_path):
        fail("the harness exited with code %d and no result" % code)
    with open(out_path) as f:
        result = json.load(f)

    stamp = result["stamp"]
    stamp["commit"] = source_commit()
    print("e2ebench %s: seed=%d jobs=%d nproc=%d compiler=%s build=%s "
          "testing_hooks=%s profiler=%s threaded_dispatch=%s commit=%s" % (
              args.workload, stamp["seed"], stamp["jobs"], stamp["nproc"],
              stamp["compiler"].replace(" ", "_"), stamp["build_type"],
              stamp["testing_hooks"], stamp["profiler_compiled_in"],
              stamp["threaded_dispatch"], stamp["commit"]))
    print("inputs: %d in the corpus, digest %s" % (result["corpus_size"],
                                                  result["inputs_digest"]))
    sections = ["end_to_end"] + (["per_layer"] if args.trace else [])
    for section in sections:
        print("%s:" % section)
        for name, m in result[section].items():
            extra = (" at p%.2f" % m["percentile"]) if "percentile" in m else ""
            print("  %-34s %14.6g %-6s%s (%d samples)" % (
                name, m["value"], m["unit"], extra, m["samples"]))
    if args.trace:
        print("spans: %d written to %s" % (result["spans_written"],
                                           os.path.relpath(spans_path, ROOT)))
    for error in result["errors"]:
        print("error: " + error)

    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from the harness result" %
                 (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = result["wrong"] == 0 and code in (0, 1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if code == 0 and correct else 1)


if __name__ == "__main__":
    main()
