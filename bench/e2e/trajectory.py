#!/usr/bin/env python3
"""Run the end-to-end benchmark repeatedly and summarise every metric.

    python3 bench/e2e/trajectory.py --sets 2 --runs 5 --out bench/e2e/trajectory.json
    python3 bench/e2e/trajectory.py --sets 1 --runs 10 --vary-seed

Run from the repository root. Each set runs every workload of
BENCHMARK.json `--runs` times with seed 1, or with seeds 1..runs under
--vary-seed. For each metric it reports the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median. A metric whose runs all read the same is reported by
its value alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["sh", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    if len(set(values)) == 1:
        return {"value": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(args.sets):
        summary = {}
        for workload in workloads:
            runs = [run_once(workload, seed if args.vary_seed else 1, seconds, args.trace)
                    for seed in range(1, args.runs + 1)]
            assert all(r["correct"] for r in runs), f"{workload}: a run was incorrect"
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                metrics[name] = dict(unit=runs[0]["metrics"][name]["unit"], **summarise(values))
                spread = metrics[name].get("spread")
                print(f"set {s + 1} {workload:14s} {name:22s} "
                      + (f"spread {spread:.4f} " if spread is not None else "exact        ")
                      + f"median {metrics[name].get('median', metrics[name].get('value'))}",
                      flush=True)
            summary[workload] = {"runs": len(runs),
                                 "failed": sum(r["failed"] for r in runs),
                                 "metrics": metrics}
        sets.append(summary)
    result = {"machine": {"cpu": cpu_model(), "cpus": os.cpu_count()},
              "seconds": seconds, "trace": args.trace,
              "seeds": "1.." + str(args.runs) if args.vary_seed else "1",
              "sets": sets}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
