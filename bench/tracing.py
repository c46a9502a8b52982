"""Span tracing of vnflow from outside the package, and the per-layer metrics.

``install`` rebinds the public functions of every ``vnflow`` module, in every
module namespace that refers to them, to wrappers that record a span, and
wraps the ``numpy.linalg`` / ``scipy.linalg`` entry points the package calls.
Spans are kept in memory as columns (name, start, end, parent span, task id)
and are recorded only while a task is open, so the benchmark's own set-up and
verification never show up.  ``per_layer`` derives every metric from the
spans, plus the counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
import scipy.linalg

LAYERS = ("model", "projections", "corner", "flow", "triples", "pairing", "generators", "cli")

def _metric_names() -> list[tuple[str, str]]:
    calls, ms = "calls/task", "ms/task"
    out: list[tuple[str, str]] = []

    def add(layer: str, functions, fields) -> None:
        for fn in functions:
            for f in fields:
                out.append((f"{layer}.{fn}.{f}", calls if f == "calls" else ms))

    add("flow", ("certify_path", "find_partition"), ("calls", "ms", "self_ms"))
    out.append(("flow.spectral_flow_result.self_ms", ms))
    out.append(("flow.partition.intervals", "intervals/task"))
    out.append(("flow.certify.samples", "samples/task"))
    out.append(("flow.partition.chi_per_interval", "chi/interval"))
    add("projections", ("chi", "proj_intersection", "null_projection", "nearest_projection"), ("calls", "ms"))
    add("model", ("quotient_norm", "k0_of_difference", "block_ranks"), ("calls", "ms"))
    out.append(("model.BlockOperator.init.calls", calls))
    add("corner", ("is_corner_fredholm", "corner_index", "boundary_map"), ("calls", "ms", "self_ms"))
    add(
        "triples",
        (
            "make_triple",
            "bounded_transform",
            "sf_unitary",
            "sf_unbounded",
            "check_kasparov_module",
            "resolvent_integral_check",
        ),
        ("calls", "ms", "self_ms"),
    )
    add(
        "pairing",
        ("make_pairing_data", "unitary_log", "intermediate_operator", "pairing_via_boundary"),
        ("calls", "ms", "self_ms"),
    )
    add("kernel", ("eigh", "eigvalsh", "svd", "norm2", "norm_fro", "solve", "schur"), ("calls", "ms"))
    out.append(("kernel.work_n3", "computed-n3/task"))
    add("cli", ("run_task", "decode", "canonical_json", "write_tracks"), ("calls", "ms"))
    out.append(("cli.report.bytes", "bytes/task"))
    out.append(("trace.tasks_per_s", "1/s"))
    return out


PER_LAYER = _metric_names()


class Recorder:
    """In-memory span store; one open task at a time, spans nest strictly."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.task = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.task_id = -1
        self.tasks = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def task_span(self, task_id: int):
        """Open the root span of one task; spans are recorded only inside."""
        self.task_id = task_id
        root = self.open(self.name_id("task"))
        try:
            yield
        finally:
            self.close(root)
            self.task_id = -1
            self.tasks += 1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,task,name,start_ns,end_ns\n")
            t0 = self.start[0] if len(self.start) else 0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.task[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0},{self.end[i] - t0}\n"
                )


def _work_n3(args) -> int:
    """batch * m * n * min(m, n) of the leading matrix argument: the computed
    operation count behind kernel.work_n3.  Only the O(n^3) kernels add to it;
    the Frobenius norm is O(n^2) and does not."""
    shape = np.shape(args[0]) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _wrap(rec: Recorder, fn, name: str, after=None, cubic: bool = False):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.task_id < 0:
            return fn(*args, **kwargs)
        if cubic:
            rec.counters["kernel.work_n3"] += _work_n3(args)
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(rec.counters, result)
        return result

    return traced


def _count_samples(counters: Counter, certificate) -> None:
    counters["flow.certify.samples"] += len(certificate.samples)


def _count_intervals(counters: Counter, partition) -> None:
    counters["flow.partition.intervals"] += len(partition) - 1


_AFTER = {"flow.certify_path": _count_samples, "flow.find_partition": _count_intervals}

# Per-layer metrics that are counts taken at a boundary rather than spans.
_COUNTED = (
    "flow.certify.samples",
    "flow.partition.intervals",
    "model.BlockOperator.init.calls",
    "kernel.work_n3",
    "cli.report.bytes",
)


def _span_name(layer: str, name: str) -> str:
    if layer == "cli":
        if name.startswith("decode_"):
            return "cli.decode"
        if name.startswith("encode_"):
            return "cli.encode"
        if name == "_write_tracks":
            return "cli.write_tracks"
    return f"{layer}.{name}"


def _public_functions(mod) -> list[tuple[str, object]]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")] + ["_write_tracks"]
    out = []
    for n in names:
        obj = getattr(mod, n, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((n, obj))
    return out


def install(rec: Recorder):
    """Wrap vnflow's public functions and the LAPACK entry points.

    Returns a function that restores every original binding.
    """
    import vnflow

    modules = [importlib.import_module(f"vnflow.{layer}") for layer in LAYERS]
    wrappers: dict[int, tuple[object, object]] = {}
    for mod, layer in zip(modules, LAYERS):
        for name, fn in _public_functions(mod):
            label = _span_name(layer, name)
            wrappers[id(fn)] = (fn, _wrap(rec, fn, label, after=_AFTER.get(label)))

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in [vnflow, *modules]:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patch(mod, attr, hit[1])

    for owner, attr in (
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "svd"),
        (np.linalg, "solve"),
        (scipy.linalg, "schur"),
    ):
        fn = getattr(owner, attr)
        patch(owner, attr, _wrap(rec, fn, f"kernel.{attr}", cubic=True))

    norm = np.linalg.norm
    norm2 = _wrap(rec, norm, "kernel.norm2", cubic=True)
    norm_fro = _wrap(rec, norm, "kernel.norm_fro")
    norm_other = _wrap(rec, norm, "kernel.norm_other")

    @functools.wraps(norm)
    def traced_norm(x, ord=None, *args, **kwargs):
        fn = norm2 if ord == 2 else norm_fro if ord in (None, "fro") else norm_other
        return fn(x, ord, *args, **kwargs)

    patch(np.linalg, "norm", traced_norm)

    block_operator = vnflow.BlockOperator
    init = block_operator.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        if rec.task_id >= 0:
            rec.counters["model.BlockOperator.init.calls"] += 1
        init(self, *args, **kwargs)

    patch(block_operator, "__init__", counted_init)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def per_layer(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-task averages of calls, inclusive and self time, and counts.

    ``ms`` is inclusive busy time: a span nested in a span of the same name
    (the ``decode_*`` functions call each other) adds no time of its own.
    ``self_ms`` is a span's duration minus the durations of its children.
    """
    n = len(rec.start)
    n_names = len(rec.names)
    calls = [0] * n_names
    incl = [0] * n_names
    self_ns = [0] * n_names
    child = [0] * n
    name, parent, start, end = rec.name, rec.parent, rec.start, rec.end
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]

    fp = rec.name_id("flow.find_partition")
    chi = rec.name_id("projections.chi")
    depth = [0] * len(rec.names)
    chi_in_partition = 0
    stack: list[int] = []
    for i in range(n):
        p = parent[i]
        while stack and stack[-1] != p:
            depth[name[stack.pop()]] -= 1
        nid = name[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        self_ns[nid] += dur - child[i]
        if depth[nid] == 0:
            incl[nid] += dur
        if nid == chi and depth[fp] > 0:
            chi_in_partition += 1
        stack.append(i)
        depth[nid] += 1

    tasks = max(rec.tasks, 1)
    intervals = rec.counters["flow.partition.intervals"]
    out = {key: rec.counters[key] / tasks for key in _COUNTED}
    out["flow.partition.chi_per_interval"] = chi_in_partition / intervals if intervals else 0.0
    out["trace.tasks_per_s"] = rec.tasks / wall_s
    by_name = {nm: i for i, nm in enumerate(rec.names)}
    for metric, _unit in PER_LAYER:
        if metric in out:
            continue
        span, field = metric.rsplit(".", 1)
        nid = by_name.get(span)
        if nid is None:
            out[metric] = 0.0
        elif field == "calls":
            out[metric] = calls[nid] / tasks
        elif field == "ms":
            out[metric] = incl[nid] / 1e6 / tasks
        else:
            out[metric] = self_ns[nid] / 1e6 / tasks
    return {metric: out[metric] for metric, _unit in PER_LAYER}
