"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --runs 10 --seconds 15 [--workload flow_mixed] [--out FILE]

Runs ``run.py`` once per seed (seeds ``first .. first + runs - 1``) and
workload, one run at a time, and reports per metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread: the
distance between the quartiles as a share of the median.  With ``--traced``
it adds one traced run per workload, whose per-layer figures go into the
output too.  ``bench/baseline.json`` was written by this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(_run(workload, seed, args.seconds, 0))
        with open(
            os.path.join(HERE, "out", f"result-{workload}-seed{args.first_seed}-trace0.json"),
            encoding="utf-8",
        ) as fh:
            env = json.load(fh)["env"]
        entry = {
            "env": env,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {entry['failed']} failed of {entry['attempted']}")
        for name, unit in END_TO_END:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = unit
            entry["metrics"][name] = s
            print(
                f"  {name:<16} median {s['median']:>11.5g} {unit:<4} "
                f"q1 {s['q1']:>11.5g}  q3 {s['q3']:>11.5g}  spread {s['spread']:.4f}"
            )
        if args.traced:
            traced = _run(workload, args.first_seed, args.seconds, 1)
            entry["per_layer_seed"] = args.first_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            overhead = (
                entry["metrics"]["tasks_per_s"]["median"]
                / traced["metrics"]["trace.tasks_per_s"]["value"]
            )
            entry["tracing_overhead"] = overhead
            print(f"  tracing overhead (median untraced / traced tasks_per_s) {overhead:.3f}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
