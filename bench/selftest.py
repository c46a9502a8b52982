"""Self-tests of the benchmark itself.

    python3 bench/selftest.py [--workload NAME]

Checks, per workload:
- the per-layer counts of two traced runs with one seed are identical;
- a deliberately wrong expected value is counted as a failure;
- another seed changes the inputs but not the number of tasks in the corpus;
and once, that the metric names and units agree with BENCHMARK.json.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, WORKLOADS, run_workload  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SECONDS = 1

# Per-layer metrics that are counts, which must repeat exactly for one seed.
COUNT_SUFFIXES = (".calls", ".samples", ".intervals", ".chi_per_interval", ".work_n3", ".bytes")


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[selftest] {'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
    return ok


def check_names() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    workloads = tuple(w["name"] for w in spec["workloads"])
    ok = e2e == list(END_TO_END) and layers == list(PER_LAYER) and workloads == WORKLOADS
    return _report("metric and workload names match BENCHMARK.json", ok)


def check_counts_repeat(workload: str) -> bool:
    a = run_workload(workload, 7, SECONDS, True)["metrics"]
    b = run_workload(workload, 7, SECONDS, True)["metrics"]
    counts = [k for k in a if k.endswith(COUNT_SUFFIXES)]
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    nonzero = sum(a[k]["value"] != 0 for k in counts)
    return _report(
        f"{workload}: per-layer counts repeat for one seed",
        not differ and nonzero > 0,
        f"{len(counts)} counts, {nonzero} nonzero" + (f", differ: {differ}" if differ else ""),
    )


def check_wrong_expected_fails(workload: str) -> bool:
    d = run_workload(workload, 7, SECONDS, False, wrong=True)
    return _report(
        f"{workload}: a wrong expected value is counted as a failure",
        d["failed"] >= 1 and not d["correct"],
        f"{d['failed']} of {d['attempted']} failed",
    )


def check_seed_changes_inputs(workload: str) -> bool:
    a = run_workload(workload, 7, SECONDS, False)
    b = run_workload(workload, 8, SECONDS, False)
    ok = (
        a["inputs_sha256"] != b["inputs_sha256"]
        and a["corpus_tasks"] == b["corpus_tasks"]
        and a["correct"]
        and b["correct"]
    )
    return _report(
        f"{workload}: another seed changes the inputs, not the task count",
        ok,
        f"{a['corpus_tasks']} tasks each",
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    results = [check_names()]
    for workload in args.workload or WORKLOADS:
        results.append(check_counts_repeat(workload))
        results.append(check_wrong_expected_fails(workload))
        results.append(check_seed_changes_inputs(workload))
    print(f"[selftest] {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
