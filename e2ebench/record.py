#!/usr/bin/env python3
"""Records one point of the benchmark's trajectory.

    python3 e2ebench/record.py [--seeds 1,2,...] [--workloads cli,...]

Runs every workload, gated by BENCHMARK.json or not, once per seed
untraced, then once traced (first seed), then oracle_grid with one worker
for the pool-versus-serial comparison.
Writes e2ebench/trajectory/<commit>.json and prints, per workload, each
end-to-end metric's median and spread (quartile distance over median) next
to its BENCHMARK.json bound, for the workloads BENCHMARK.json gates. When
the commit already has a point, the workloads run now are added to it or
replace their earlier figures. This takes about (seeds + 2) x run_seconds per
workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def run(workload, seed, seconds, trace, jobs=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("record: %s seed %d failed:\n%s%s" % (
            workload, seed, out.stdout, out.stderr))
    commit = [l for l in out.stdout.splitlines() if "commit=" in l][0]
    with open(os.path.join(BUILD, "result-%s.json" % workload)) as f:
        result = json.load(f)
    result["stamp"]["commit"] = commit.rsplit("commit=", 1)[1]
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",")
    gated = {w["name"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run(workload, s, seconds, 0) for s in seeds]
        point["stamp"] = runs[0]["stamp"]
        e2e = {}
        for name, first in runs[0]["end_to_end"].items():
            e2e[name] = summary([r["end_to_end"][name]["value"] for r in runs])
            e2e[name]["unit"] = first["unit"]
            e2e[name]["samples"] = [r["end_to_end"][name]["samples"]
                                    for r in runs]
            if "percentile" in first:
                e2e[name]["percentile"] = [
                    r["end_to_end"][name]["percentile"] for r in runs]
        traced = run(workload, seeds[0], seconds, 1)
        point["workloads"][workload] = {
            "run_seconds": seconds,
            "end_to_end": e2e,
            "per_layer": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in traced["per_layer"].items()},
            "deterministic_counts": traced["deterministic_counts"],
        }
        print("%s:" % workload)
        for name, s in e2e.items():
            bound = bounds.get(name) if workload in gated else None
            print("  %-16s median %12.6g %-5s spread %.3f%s" % (
                name, s["median"], s["unit"], s["spread"],
                "  bound %.2f" % bound if bound is not None else ""))
        sys.stdout.flush()

    if "oracle_grid" in point["workloads"]:
        serial = [run("oracle_grid", s, seconds, 0, jobs=1)
                  for s in seeds[:3]]
        point["oracle_grid_serial"] = {
            name: summary([r["end_to_end"][name]["value"] for r in serial])
            for name in ("check_p50_ms", "checks_per_s")}
        point["oracle_grid_serial"]["run_seconds"] = seconds

    commit = point["stamp"]["commit"].replace("-dirty", "")[:12]
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    path = os.path.join(HERE, "trajectory", "%s.json" % commit)
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        earlier["workloads"].update(point.pop("workloads"))
        earlier.update(point)
        point = earlier
    with open(path, "w") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
