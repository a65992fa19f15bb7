#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload session --seeds 1-10 [--seconds 30] [--out f.json]

Spread is the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure the bounds in BENCHMARK.json are set against. Runs are
sequential, one process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        low, high = spec.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"], "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:24s} median {median:.6g}  spread {spread:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
                       "correct": all(r["correct"] for r in runs),
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs),
                       "metrics": summary}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
