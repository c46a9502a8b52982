"""One benchmark process: set up, warm up, then run the timed or traced phase.

Started by ``run.py``, never by hand.  It imports ``vnflow`` from the
checkout's ``src`` directory only, generates the workload's inputs from the
seed, verifies every task it runs, and prints one JSON line on stdout.  The
``ready`` field is the ``time.monotonic()`` reading just before the first
timed task, which ``run.py`` turns into the set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_vnflow():
    sys.path.insert(0, SRC)
    try:
        import vnflow
    except ImportError as exc:
        raise SystemExit(f"cannot import vnflow from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.realpath(vnflow.__file__))) != os.path.realpath(SRC):
        raise SystemExit(f"vnflow was imported from {vnflow.__file__}, not from {SRC}")
    return vnflow


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    from workloads import WHY

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
        "why": WHY[workload],
    }


def _attempt(task, log: list[str]) -> tuple[object, bool]:
    """Run a task; a raised exception is a failure, recorded with its traceback."""
    try:
        return task.run(), True
    except Exception:  # a failing task is counted, the run goes on
        if len(log) < 3:
            log.append(traceback.format_exc())
        return None, False


def _verified(task, result, ran: bool, log: list[str]) -> bool:
    if not ran:
        return False
    try:
        ok = bool(task.check(result))
    except Exception:  # a check that cannot read the result is a failure
        ok = False
    if not ok and len(log) < 3:
        log.append(f"verification failed: {task.kind} (size {task.size})")
    return ok


def _tail(times_ms: list[float]) -> tuple[float, float]:
    """Value at the highest percentile that has at least 10 tasks beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--inject-wrong-expected", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    _import_vnflow()
    import workloads

    log: list[str] = []
    attempted = failed = 0
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        corpus = workloads.make_corpus(
            args.workload, args.seed, workdir, args.inject_wrong_expected
        )
        tasks = corpus.tasks
        if args.workload == "cli_docs":
            # the reference renditions are made by running every document once
            for task in tasks:
                attempted += 1
                try:
                    ok = workloads.make_reference(task)
                except Exception:  # counted like any failing task
                    ok = False
                    log.append(traceback.format_exc())
                failed += not ok
        for i in corpus.warmup:
            result, ran = _attempt(tasks[i], log)
            attempted += 1
            failed += not _verified(tasks[i], result, ran, log)
        ready = time.monotonic()

        out = {
            "ready": ready,
            "corpus_tasks": len(tasks),
            "inputs_sha256": corpus.fingerprint,
        }
        if args.role == "timed":
            out.update(_timed(tasks, args.seconds, log))
        elif args.role == "traced":
            out.update(_traced(tasks, args.seconds, args.workload, args.spans, log))
        attempted += out.pop("attempted", 0)
        failed += out.pop("failed", 0)
        out["attempted"] = attempted
        out["failed"] = failed
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = environment(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for entry in log:
        print(entry, file=sys.stderr)
    print(json.dumps(out))
    return 0


def _timed(tasks, seconds: float, log: list[str]) -> dict:
    """Closed loop over the corpus until ``seconds`` have passed."""
    times_ms: list[float] = []
    attempted = failed = 0
    n = len(tasks)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while time.perf_counter() < deadline:
        task = tasks[i % n]
        i += 1
        a = time.perf_counter()
        result, ran = _attempt(task, log)
        times_ms.append((time.perf_counter() - a) * 1e3)
        attempted += 1
        failed += not _verified(task, result, ran, log)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    tail, percentile = _tail(times_ms)
    return {
        "attempted": attempted,
        "failed": failed,
        "tasks": attempted,
        "wall_s": wall,
        "task_p50_ms": statistics.median(times_ms),
        "task_tail_ms": tail,
        "tail_percentile": percentile,
        "tasks_per_s": attempted / wall,
        "cpu_ms_per_task": cpu * 1e3 / attempted,
    }


def _traced(tasks, seconds: float, workload: str, spans: str | None, log: list[str]) -> dict:
    """Whole passes over the corpus with tracing on, until ``seconds`` have
    passed; whole passes make every per-task count repeat exactly."""
    import tracing

    rec = tracing.Recorder()
    restore = tracing.install(rec)
    attempted = failed = 0
    t0 = time.perf_counter()
    try:
        while True:
            for task in tasks:
                with rec.task_span(attempted):
                    result, ran = _attempt(task, log)
                attempted += 1
                failed += not _verified(task, result, ran, log)
                if ran and workload == "cli_docs":
                    rec.counters["cli.report.bytes"] += len(result[1])
            if time.perf_counter() - t0 >= seconds:
                break
    finally:
        restore()
    wall = time.perf_counter() - t0
    if spans:
        rec.write(spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "tasks": attempted,
        "wall_s": wall,
        "spans": len(rec.start),
        "per_layer": tracing.per_layer(rec, wall),
    }


if __name__ == "__main__":
    sys.exit(main())
