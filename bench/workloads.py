"""Seeded inputs, tasks and independent verification for each workload.

A workload is a corpus of tasks made from ``--seed``.  Inputs are plain numpy
arrays generated here; a task turns them into ``vnflow`` objects and calls the
public API, so every task starts from fresh objects, as a caller's would, and
no per-object cache is shared between tasks.  Each task has a check that does
not use ``vnflow``: expected classes come from numpy directly (endpoint rank
counts from ``eigvalsh``, kernel-rank differences from ``svd``) or, for CLI
documents, from byte equality with the rendition made at set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import vnflow
from vnflow import cli

WHY = {
    "flow_mixed": (
        "hundreds of small mixed ideal/non-ideal paths: certify, partition and "
        "evaluate dominate, per-block overhead and large kernels hardly show"
    ),
    "flow_many_blocks": (
        "64-512 blocks per model: the per-block Python loop dominates, so "
        "stacked LAPACK calls show here and small-model slowdowns show beside it"
    ),
    "triple_dirac": (
        "one dense ideal block of dim 17-129, no partition, no per-block "
        "overhead: bound by SVD/eigh, window spread separates median from tail"
    ),
    "cli_docs": (
        "JSON task documents through vnflow.cli.main: decode, CLI-side "
        "recomputation, canonical serialization and the CSV tracks write"
    ),
}

WORKLOADS = tuple(WHY)

# Eigenvalues down to -_ZERO count as nonnegative.  Endpoint eigenvalues of
# ideal blocks are generated at least 0.05 away from zero, so the count does
# not depend on this threshold.
_ZERO = 1e-12
# Singular values at or below this count towards a kernel.
_KERNEL = 1e-10


@dataclass
class Task:
    """One unit of work: ``run`` calls the library, ``check`` verifies it.

    CLI tasks also carry the class the benchmark expects and the reference
    rendition (report and tracks bytes) made at set-up.
    """

    kind: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    expected: tuple[int, ...] = ()
    reference: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Corpus:
    tasks: list[Task]
    warmup: list[int]
    fingerprint: str


class _Hasher:
    """SHA-256 over every generated input array, to show what a seed made."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            self._h.update(np.ascontiguousarray(a).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- numpy-only helpers ---------------------------------------------------------


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rotation(n: int, rng: np.random.Generator, speed: float):
    """t -> exp(-i t speed H) for a random Hermitian direction H of norm 1."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = _herm(g)
    h /= max(np.linalg.norm(h, 2), 1e-12)
    w, v = np.linalg.eigh(h)
    return lambda t: (v * np.exp(-1j * speed * t * w)) @ v.conj().T


def _clear_of_zero(values: np.ndarray) -> None:
    small = np.abs(values) < 0.05
    values[small] += 0.1 * np.sign(values[small] + 0.5)


def _nonneg_count(mat: np.ndarray) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(_herm(mat)) >= -_ZERO))


def _kernel_dim(mat: np.ndarray) -> int:
    return int(np.count_nonzero(np.linalg.svd(mat, compute_uv=False) <= _KERNEL))


@dataclass(frozen=True)
class PathArrays:
    """A piecewise linear path as arrays, with its model and expected class."""

    dims: tuple[int, ...]
    weights: tuple[float, ...]
    ideal: tuple[bool, ...]
    times: tuple[float, ...]
    frames: tuple[tuple[np.ndarray, ...], ...]
    expected: tuple[int, ...]


def _path_arrays(
    rng: np.random.Generator,
    dims: list[int],
    weights: list[float],
    ideal: list[bool],
    n_keyframes: int,
    max_speed: float,
    wobble: bool,
    hasher: _Hasher,
) -> PathArrays:
    """Ideal blocks carry eigenvalue curves that may cross zero; non-ideal
    blocks keep their spectrum pinned away from zero while the eigenbasis
    rotates, so the path is quotient invertible by construction."""
    builders = []
    for dim, is_ideal in zip(dims, ideal):
        rot = _rotation(dim, rng, float(rng.uniform(0.0, max_speed)))
        if is_ideal:
            c0 = rng.uniform(-1.2, 1.2, size=dim)
            c1 = rng.uniform(-1.5, 1.5, size=dim)
            c2 = rng.uniform(-0.8, 0.8, size=dim) if wobble else np.zeros(dim)
            _clear_of_zero(c0)
            end = c0 + c1
            _clear_of_zero(end)
            c1 = end - c0

            def curve(t, c0=c0, c1=c1, c2=c2):
                return c0 + c1 * t + c2 * np.sin(np.pi * t)

        else:
            levels = rng.uniform(0.4, 1.5, size=dim) * rng.choice([-1.0, 1.0], size=dim)

            def curve(t, levels=levels):
                return levels

        builders.append((rot, curve))

    times = tuple(float(t) for t in np.linspace(0.0, 1.0, n_keyframes))
    frames = []
    for t in times:
        blocks = []
        for rot, curve in builders:
            v = rot(t)
            blocks.append(_herm((v * curve(t)) @ v.conj().T))
        hasher.add(*blocks)
        frames.append(tuple(blocks))
    expected = tuple(
        _nonneg_count(frames[0][i]) - _nonneg_count(frames[-1][i])
        for i, is_ideal in enumerate(ideal)
        if is_ideal
    )
    return PathArrays(
        tuple(dims), tuple(weights), tuple(ideal), times, tuple(frames), expected
    )


def _algebra(dims, weights, ideal) -> vnflow.VnAlgebra:
    return vnflow.VnAlgebra(
        vnflow.Block(dim=d, weight=w, in_ideal=i) for d, w, i in zip(dims, weights, ideal)
    )


def _flow_task(arr: PathArrays, expected: tuple[int, ...]) -> Task:
    def run():
        alg = _algebra(arr.dims, arr.weights, arr.ideal)
        path = vnflow.OperatorPath(
            [(t, vnflow.BlockOperator(blocks)) for t, blocks in zip(arr.times, arr.frames)]
        )
        return vnflow.spectral_flow_result(path, alg)

    def check(result) -> bool:
        return result.k0.ranks == expected

    return Task("spectral_flow_result", len(arr.dims), run, check)


def _mixed_path(rng: np.random.Generator, hasher: _Hasher) -> PathArrays:
    dims, weights, ideal = [], [], []
    for _ in range(int(rng.integers(1, 3))):
        dims.append(int(rng.integers(2, 7)))
        weights.append(float(rng.choice([1.0, 0.5, 1.0 / 3.0])))
        ideal.append(True)
    if rng.uniform() < 0.6:
        dims.append(int(rng.integers(2, 5)))
        weights.append(1.0)
        ideal.append(False)
    return _path_arrays(rng, dims, weights, ideal, 7, 2.0, True, hasher)


# -- workloads ------------------------------------------------------------------


def _interleaved(tasks: list[Task]) -> list[Task]:
    """Reorder tasks listed from cheap to dear so that every stretch of the
    cycle samples the whole range evenly.

    A timed run stops part-way through a pass; stepping through the list by
    the coprime nearest to n times the golden ratio keeps that partial pass
    from favouring cheap or dear tasks, which would move the median.
    """
    n = len(tasks)
    step = round(n * (math.sqrt(5.0) - 1.0) / 2.0)
    while math.gcd(step, n) != 1:
        step += 1
    return [tasks[(i * step) % n] for i in range(n)]

FLOW_MIXED_PATHS = 600

# Block counts of one pass.  The shares put the median inside the 128-block
# models and the tail (about p75 at some 40 tasks a run) inside the 256-block
# ones, away from the edges between sizes, so neither jumps between sizes
# from one run to the next.
MANY_BLOCKS_LADDER = (64, 256, 128, 64, 512, 64, 128, 256)

DIRAC_WINDOWS = tuple(range(8, 65, 4))
DIRAC_WINDINGS_PER_WINDOW = 4
DIRAC_KINDS = (
    "make_triple",
    "sf_unitary",
    "sf_unbounded",
    "pairing_via_boundary",
    "check_kasparov_module",
)

CLI_DOCS_PER_KIND = 6


def _flow_mixed(rng: np.random.Generator, hasher: _Hasher, wrong: bool) -> Corpus:
    tasks = []
    for i in range(FLOW_MIXED_PATHS):
        arr = _mixed_path(rng, hasher)
        expected = arr.expected
        if wrong and i == 0:
            expected = (expected[0] + 1,) + expected[1:]
        tasks.append(_flow_task(arr, expected))
    # warm up on the two cheapest inputs: the paths with the fewest blocks
    warmup = sorted(range(len(tasks)), key=lambda i: (tasks[i].size, i))[:2]
    return Corpus(tasks, warmup, hasher.hexdigest())


def _flow_many_blocks(rng: np.random.Generator, hasher: _Hasher, wrong: bool) -> Corpus:
    tasks = []
    for i, n_blocks in enumerate(MANY_BLOCKS_LADDER):
        dims = [int(d) for d in rng.integers(2, 9, size=n_blocks)]
        ideal = [bool(x) for x in rng.uniform(size=n_blocks) >= 0.25]
        weights = [float(w) for w in rng.choice([1.0, 0.5, 2.0], size=n_blocks)]
        arr = _path_arrays(rng, dims, weights, ideal, 3, 0.4, False, hasher)
        expected = arr.expected
        if wrong and i == 0:
            expected = (expected[0] + 1,) + expected[1:]
        tasks.append(_flow_task(arr, expected))
    warmup = [MANY_BLOCKS_LADDER.index(min(MANY_BLOCKS_LADDER))]
    return Corpus(tasks, warmup, hasher.hexdigest())


def _dirac_arrays(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """D = diag(-m..m) and the k-step cyclic shift on the window -m..m."""
    dim = 2 * m + 1
    d = np.diag(np.arange(-m, m + 1, dtype=float)).astype(complex)
    shift = np.zeros((dim, dim), dtype=complex)
    shift[(np.arange(dim) + k) % dim, np.arange(dim)] = 1.0
    return d, shift


def _dirac_reference(d: np.ndarray, u: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Kernel-rank difference of p u p + (1 - p), p the projection onto D >= 0."""
    p = np.diag((np.real(np.diagonal(d)) >= 0).astype(complex))
    lift = p @ u @ p + (np.eye(d.shape[0]) - p)
    return (_kernel_dim(lift) - _kernel_dim(lift.conj().T),), p


def _dirac_task(
    kind: str,
    d_arr: np.ndarray,
    u_arr: np.ndarray,
    expected: tuple[int, ...],
    p_ref: np.ndarray,
    wrong: bool,
) -> Task:
    dim = d_arr.shape[0]
    module_passes = True
    if wrong:
        expected = (expected[0] + 1,)
        p_ref = np.eye(dim) - p_ref
        module_passes = False

    def triple():
        alg = _algebra([dim], [1.0], [True])
        u = vnflow.BlockOperator([u_arr])
        gens = {"1": alg.identity(), "u": u, "u*": u.H}
        return vnflow.make_triple(alg, gens, vnflow.BlockOperator([d_arr])), u

    def sf_unitary():
        t, u = triple()
        return vnflow.sf_unitary(t, u)

    def sf_unbounded():
        t, u = triple()
        path = vnflow.OperatorPath.linear(t.alg.zero(), u.H @ t.D @ u - t.D)
        return vnflow.sf_unbounded(t, path)

    def pairing():
        t, u = triple()
        return vnflow.pairing_via_boundary(vnflow.make_pairing_data(t.alg, t.p, u))

    def class_matches(k0) -> bool:
        return k0.ranks == expected

    def projection_matches(t) -> bool:
        return bool(np.max(np.abs(t.p.blocks[0] - p_ref)) <= 1e-10)

    def module_matches(report) -> bool:
        return report.passed == module_passes and report.worst() == 0.0

    run, check = {
        "make_triple": (lambda: triple()[0], projection_matches),
        "sf_unitary": (sf_unitary, class_matches),
        "sf_unbounded": (sf_unbounded, class_matches),
        "pairing_via_boundary": (pairing, class_matches),
        "check_kasparov_module": (
            lambda: vnflow.check_kasparov_module(triple()[0]),
            module_matches,
        ),
    }[kind]
    return Task(kind, dim, run, check)


def _triple_dirac(rng: np.random.Generator, hasher: _Hasher, wrong: bool) -> Corpus:
    windings = {
        m: [
            int(k) * int(rng.choice([-1, 1]))
            for k in rng.choice(np.arange(1, 6), size=DIRAC_WINDINGS_PER_WINDOW, replace=False)
        ]
        for m in DIRAC_WINDOWS
    }
    tasks = []
    for m in DIRAC_WINDOWS:
        for k in windings[m]:
            # the five kinds share one set of arrays, so memory held by the
            # benchmark does not grow with the number of kinds
            d_arr, u_arr = _dirac_arrays(m, k)
            hasher.add(d_arr, u_arr)
            expected, p_ref = _dirac_reference(d_arr, u_arr)
            for kind in DIRAC_KINDS:
                is_wrong = wrong and not tasks
                tasks.append(_dirac_task(kind, d_arr, u_arr, expected, p_ref, is_wrong))
    tasks = _interleaved(tasks)
    warmup = [i for i, t in enumerate(tasks) if t.size == 2 * DIRAC_WINDOWS[0] + 1][:5]
    return Corpus(tasks, warmup, hasher.hexdigest())


# -- CLI documents ----------------------------------------------------------------


def _enc_matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _enc_algebra(dims, weights, ideal) -> dict:
    return {
        "blocks": [
            {"dim": int(d), "weight": float(w), "ideal": bool(i)}
            for d, w, i in zip(dims, weights, ideal)
        ]
    }


def _dirac_doc(task: str, m: int, k: int, hasher: _Hasher) -> tuple[dict, tuple]:
    d, u = _dirac_arrays(m, k)
    hasher.add(d, u)
    expected, p = _dirac_reference(d, u)
    dim = d.shape[0]
    ops = {
        "1": [_enc_matrix(np.eye(dim))],
        "u": [_enc_matrix(u)],
        "u*": [_enc_matrix(u.conj().T)],
        "D": [_enc_matrix(d)],
    }
    doc = {
        "task": task,
        "algebra": _enc_algebra([dim], [1.0], [True]),
        "triple": {"generators": ["1", "u", "u*"], "D": "D", "unitary": "u"},
    }
    if task == "sf_unbounded":
        ops["zero"] = [_enc_matrix(np.zeros((dim, dim)))]
        ops["A"] = [_enc_matrix(u.conj().T @ d @ u - d)]
        doc["path"] = {"keyframes": [{"t": 0.0, "op": "zero"}, {"t": 1.0, "op": "A"}]}
    if task == "pairing":
        ops["p"] = [_enc_matrix(p)]
        doc["pairing"] = {"p": "p", "u": "u"}
    doc["operators"] = ops
    return doc, (expected if task != "checks" else ())


def _projection(n: int, rank: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    v = _haar(n, rng)[:, :rank]
    return v @ v.conj().T, v


def _index_doc(rng: np.random.Generator, hasher: _Hasher) -> tuple[dict, tuple]:
    """S in the corner qNp whose index per ideal block is rank p - rank q."""
    n_blocks = int(rng.integers(2, 4))
    dims = [int(rng.integers(2, 7)) for _ in range(n_blocks)]
    ideal = [i == 0 or bool(rng.uniform() < 0.6) for i in range(n_blocks)]
    ps, qs, ss, expected = [], [], [], []
    for dim, is_ideal in zip(dims, ideal):
        if is_ideal:
            rp, rq = (int(x) for x in rng.integers(0, dim + 1, size=2))
            r = int(rng.integers(0, min(rp, rq) + 1))
        else:
            rp = rq = r = int(rng.integers(1, dim + 1))
        p, vp = _projection(dim, rp, rng)
        q, vq = _projection(dim, rq, rng)
        core = np.zeros((rq, rp), dtype=complex)
        if r:
            core[:r, :r] = _haar(r, rng) * rng.uniform(0.5, 1.5, size=r)
        ss.append(vq @ core @ vp.conj().T)
        ps.append(p)
        qs.append(q)
        if is_ideal:
            expected.append(rp - rq)
    hasher.add(*ps, *qs, *ss)
    doc = {
        "task": "index",
        "algebra": _enc_algebra(dims, [1.0] * n_blocks, ideal),
        "operators": {
            "S": [_enc_matrix(b) for b in ss],
            "p": [_enc_matrix(b) for b in ps],
            "q": [_enc_matrix(b) for b in qs],
        },
        "index": {"S": "S", "p": "p", "q": "q"},
    }
    return doc, tuple(expected)


def _boundary_doc(rng: np.random.Generator, hasher: _Hasher) -> tuple[dict, tuple]:
    """Unitary on non-ideal blocks, rank-deficient on ideal ones: class 0."""
    n_blocks = int(rng.integers(2, 4))
    dims = [int(rng.integers(2, 7)) for _ in range(n_blocks)]
    ideal = [i == 0 or bool(rng.uniform() < 0.5) for i in range(n_blocks)]
    blocks = []
    for dim, is_ideal in zip(dims, ideal):
        u = _haar(dim, rng)
        if is_ideal:
            u[:, : int(rng.integers(1, dim + 1))] = 0.0
        blocks.append(u)
    hasher.add(*blocks)
    expected = tuple(
        _kernel_dim(b) - _kernel_dim(b.conj().T) for b, i in zip(blocks, ideal) if i
    )
    doc = {
        "task": "boundary",
        "algebra": _enc_algebra(dims, [1.0] * n_blocks, ideal),
        "operators": {"S": [_enc_matrix(b) for b in blocks]},
        "boundary": {"S": "S"},
    }
    return doc, expected


def _flow_doc(rng: np.random.Generator, hasher: _Hasher) -> tuple[dict, tuple]:
    arr = _mixed_path(rng, hasher)
    ops, frames = {}, []
    for i, (t, blocks) in enumerate(zip(arr.times, arr.frames)):
        ops[f"kf{i}"] = [_enc_matrix(b) for b in blocks]
        frames.append({"t": t, "op": f"kf{i}"})
    doc = {
        "task": "spectral_flow",
        "algebra": _enc_algebra(arr.dims, arr.weights, arr.ideal),
        "operators": ops,
        "path": {"keyframes": frames},
    }
    return doc, arr.expected


CLI_KINDS = (
    "spectral_flow",
    "sf_unitary",
    "sf_unbounded",
    "index",
    "boundary",
    "pairing",
    "checks",
)


def _cli_doc(kind: str, n: int, rng: np.random.Generator, hasher: _Hasher) -> tuple[dict, tuple]:
    if kind == "spectral_flow":
        return _flow_doc(rng, hasher)
    if kind == "index":
        return _index_doc(rng, hasher)
    if kind == "boundary":
        return _boundary_doc(rng, hasher)
    # Windows are fixed per document slot, so every seed has the same sizes;
    # the resolvent-integral checks grow fast with the window, keep them small.
    m = (3, 4, 5)[n % 3] if kind == "checks" else 4 + 2 * n
    k = int(rng.integers(1, m)) * int(rng.choice([-1, 1]))
    return _dirac_doc(kind, m, k, hasher)


def _cli_task(
    kind: str, doc_file: str, out_file: str, tracks_file: str | None, expected: tuple
) -> Task:
    argv = ["run", doc_file, "--out", out_file]
    if tracks_file is not None:
        argv += ["--tracks", tracks_file]
    reference: dict[str, bytes] = {}

    def run():
        code = cli.main(argv)
        with open(out_file, "rb") as fh:
            report = fh.read()
        tracks = b""
        if tracks_file is not None:
            with open(tracks_file, "rb") as fh:
                tracks = fh.read()
        return code, report, tracks

    def check(result) -> bool:
        code, report, tracks = result
        return (
            code == 0
            and report == reference["report"]
            and tracks == reference["tracks"]
        )

    return Task(kind, 0, run, check, expected, reference)


def _cli_docs(
    rng: np.random.Generator, hasher: _Hasher, wrong: bool, workdir: str
) -> Corpus:
    tasks = []
    for n in range(CLI_DOCS_PER_KIND):
        for kind in CLI_KINDS:
            doc, expected = _cli_doc(kind, n, rng, hasher)
            if wrong and not tasks:
                expected = (expected[0] + 1,) + expected[1:]
            stem = os.path.join(workdir, f"{kind}-{n}")
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            tracks = stem + ".tracks.csv" if kind == "spectral_flow" else None
            tasks.append(
                _cli_task(kind, stem + ".json", stem + ".report.json", tracks, expected)
            )
    return Corpus(_interleaved(tasks), [], hasher.hexdigest())


def make_reference(task: Task) -> bool:
    """Run a CLI task once to make its reference rendition.

    The rendition is accepted only when the exit code is 0 and the reported
    class equals the class the benchmark computed itself.
    """
    code, report, tracks = task.run()
    task.reference["report"] = report
    task.reference["tracks"] = tracks
    if code != 0:
        return False
    return tuple(json.loads(report)["k0_class"]) == task.expected


def make_corpus(
    workload: str, seed: int, workdir: str, wrong_expected: bool = False
) -> Corpus:
    """Generate a workload's inputs from ``seed``.

    ``wrong_expected`` corrupts the expected value of the first task, which
    the self-test uses to show that verification failures are counted.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    hasher = _Hasher()
    if workload == "flow_mixed":
        return _flow_mixed(rng, hasher, wrong_expected)
    if workload == "flow_many_blocks":
        return _flow_many_blocks(rng, hasher, wrong_expected)
    if workload == "triple_dirac":
        return _triple_dirac(rng, hasher, wrong_expected)
    if workload == "cli_docs":
        return _cli_docs(rng, hasher, wrong_expected, workdir)
    raise ValueError(f"unknown workload {workload!r}")
