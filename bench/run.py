"""vnflow benchmark: closed loop, one caller, every task verified.

    python3 bench/run.py --workload flow_mixed --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
runs the same tasks with span tracing and prints the per-layer metrics.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload both ways
and prints every metric by name with its unit, plus the tracing overhead.

A plain run starts ``SETUP_REPEATS`` worker processes one after another.
Each imports vnflow, generates the inputs and warms up; ``setup_s`` is the
median of their times from process start to the first timed task.  The last
one then runs the timed phase.  Every worker runs with ``BLAS_THREADS`` BLAS
threads, so the figures do not measure thread contention.  Results, with the
environment they were measured in, are also written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("flow_mixed", "flow_many_blocks", "triple_dirac", "cli_docs")
SETUP_REPEATS = 3
BLAS_THREADS = 1
# A run must end within 180 s; leave room for the last worker to be stopped.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("cpu_ms_per_task", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of the sources."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "vnflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "vnflow_sources_sha256": h.hexdigest()}


def _run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            stdout=subprocess.PIPE,
            env=_worker_env(),
            cwd=ROOT,
            timeout=remaining,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {' '.join(args)}") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1]), spawned


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, wrong: bool = False
) -> dict:
    """One benchmark run; returns the full result, metrics and environment.

    ``wrong`` corrupts one expected value; ``selftest.py`` uses it to show
    that a failed verification is counted.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    common = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", OUT,
    ]
    if wrong:
        common.append("--inject-wrong-expected")
    workers = []
    setups = []
    if trace:
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")
        result, spawned = _run_worker(common + ["--role", "traced", "--spans", spans], deadline)
        workers.append(result)
        setups.append(result["ready"] - spawned)
    else:
        for r in range(SETUP_REPEATS):
            role = "timed" if r == SETUP_REPEATS - 1 else "setup"
            result, spawned = _run_worker(common + ["--role", role], deadline)
            workers.append(result)
            setups.append(result["ready"] - spawned)
    final = workers[-1]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if trace:
        metrics = final["per_layer"]
        import tracing

        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "task_p50_ms": final["task_p50_ms"],
            "task_tail_ms": final["task_tail_ms"],
            "tasks_per_s": final["tasks_per_s"],
            "cpu_ms_per_task": final["cpu_ms_per_task"],
            "peak_rss_mb": final["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    env = dict(final["env"])
    env.update(_source_identity())
    env["blas_threads_fixed"] = BLAS_THREADS
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "timed_tasks": final["tasks"],
        "timed_wall_s": final["wall_s"],
        "corpus_tasks": final["corpus_tasks"],
        "inputs_sha256": final["inputs_sha256"],
        "setup_s_each": setups,
        "env": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if trace:
        detail["spans"] = final["spans"]
        detail["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        detail["tail_percentile"] = final["tail_percentile"]
        detail["tail_samples"] = final["tasks"]
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def _print_human(d: dict) -> None:
    print(f"workload {d['workload']}  seed {d['seed']}  trace {int(d['trace'])}")
    for key, m in d["metrics"].items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {d['fail_ratio']:>14.6g} ratio ({d['failed']}/{d['attempted']})")
    if not d["trace"]:
        print(
            f"  task_tail_ms is the p{d['tail_percentile']:.2f} of "
            f"{d['tail_samples']} timed tasks"
        )
    print(f"  env {json.dumps(d['env'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "vnflow", "__init__.py")):
        print(f"no vnflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        if args.workload != "all":
            d = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_human(d)
            print(json.dumps({
                "correct": d["correct"],
                "attempted": d["attempted"],
                "failed": d["failed"],
                "metrics": d["metrics"],
            }))
            return 0
        summary = {}
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, False)
            traced = run_workload(workload, args.seed, args.seconds, True)
            _print_human(plain)
            _print_human(traced)
            overhead = (
                plain["metrics"]["tasks_per_s"]["value"]
                / traced["metrics"]["trace.tasks_per_s"]["value"]
            )
            print(f"  tracing overhead: untraced/traced tasks_per_s = {overhead:.3f}")
            summary[workload] = {
                "correct": plain["correct"] and traced["correct"],
                "fail_ratio": plain["fail_ratio"],
                "tracing_overhead": overhead,
                "metrics": plain["metrics"],
            }
        with open(os.path.join(OUT, f"all-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
