"""Shared seeded generators for the test suite."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from vnflow import (
    DEFAULT_TOL,
    Block,
    BlockOperator,
    K0Class,
    ModelError,
    OperatorPath,
    Tolerances,
    VnAlgebra,
    boundary_map,
    corner_index_result,
    flow,
    spectral_flow_result,
)
from vnflow.flow import _flow_over_partition
from vnflow.model import _chi_keep, _eigvalsh, _groups


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projection(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(n, rng)[:, :rank]
    return v @ v.conj().T


def random_selfadjoint(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_matrix(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def proj_intersection(
    p: BlockOperator, q: BlockOperator, tol: Tolerances = DEFAULT_TOL
) -> BlockOperator:
    """Reference projection onto the intersection of the ranges of two
    projections: the eigenvalue-2 eigenspace of p + q, kept above
    ``2 - intersection``."""
    p.require_projection("first intersection argument", tol)
    q.require_projection("second intersection argument", tol)
    cut = 2.0 - tol.intersection
    return (p + q).spectral_projection(lambda w: w > cut)


def affine_sf_unitary(triple, u: BlockOperator, tol: Tolerances = DEFAULT_TOL):
    """Reference flow from D to u* D u: the boundary class of the lift built
    from the affine shift (F + 1)/2, a projection only modulo the ideal."""
    one = triple.alg.identity()
    half = 0.5 * (triple.F + one)
    return boundary_map(half @ u @ half + (one - half), triple.alg, tol, eps_gap=10 * tol.gap)


def corner_sf_unitary(triple, u: BlockOperator, tol: Tolerances = DEFAULT_TOL):
    """Reference flow from D to u* D u: the corner index of p u p in the
    p-corner, with ker(p u p) meet ran p and its adjoint as the kernel pair."""
    p = triple.p
    return corner_index_result(p @ u @ p, p, p, triple.alg, tol)[0]


def single_block_alg(dim: int, weight: float = 1.0, ideal: bool = True) -> VnAlgebra:
    return VnAlgebra([Block(dim=dim, weight=weight, in_ideal=ideal)])


def op(*mats) -> BlockOperator:
    return BlockOperator([np.asarray(m, dtype=complex) for m in mats])


def rotation_path(n: int, rng: np.random.Generator, speed: float):
    """t -> unitary exp(-i t speed H) for a random Hermitian direction H."""
    h = random_selfadjoint(n, rng)
    h *= 1.0 / max(np.linalg.norm(h, 2), 1e-12)
    w, v = np.linalg.eigh(h)

    def rot(t: float) -> np.ndarray:
        return (v * np.exp(-1j * speed * t * w)) @ v.conj().T

    return rot


def concatenated(first, second, atol: float = 1e-12):
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1].

    The end of ``first`` must coincide with the start of ``second``.
    """
    if not first.keyframes[-1][1].allclose(second.keyframes[0][1], atol=atol):
        raise ModelError("concatenation point does not match")
    frames = [(0.5 * t, op) for t, op in first.keyframes]
    frames += [(0.5 + 0.5 * t, op) for t, op in second.keyframes[1:]]
    return OperatorPath(frames)


def random_certified_path(seed: int, n_keyframes: int = 7):
    """Seeded mixed-model path that certifies: crossings happen only on ideal blocks.

    Ideal blocks carry smooth eigenvalue curves that may cross zero; non-ideal
    blocks keep their spectrum pinned away from zero while the eigenbasis
    rotates moderately.  Returns (algebra, path).
    """
    from vnflow import OperatorPath, weighted_model

    rng = np.random.default_rng(seed)
    n_ideal = int(rng.integers(1, 3))
    dims, weights, mask = [], [], []
    for _ in range(n_ideal):
        dims.append(int(rng.integers(2, 7)))
        weights.append(float(rng.choice([1.0, 0.5, 1.0 / 3.0])))
        mask.append(True)
    if rng.uniform() < 0.6:
        dims.append(int(rng.integers(2, 5)))
        weights.append(1.0)
        mask.append(False)
    alg = weighted_model(dims, weights, mask)

    builders = []
    for dim, ideal in zip(dims, mask):
        rot = rotation_path(dim, rng, speed=float(rng.uniform(0.0, 2.0)))
        if ideal:
            c0 = rng.uniform(-1.2, 1.2, size=dim)
            c1 = rng.uniform(-1.5, 1.5, size=dim)
            c2 = rng.uniform(-0.8, 0.8, size=dim)
            # keep endpoints clear of zero
            for coeffs in (c0, c0 + c1):
                small = np.abs(coeffs) < 0.05
                coeffs[small] += 0.1 * np.sign(coeffs[small] + 0.5)

            def curve(t, c0=c0, c1=c1, c2=c2):
                return c0 + c1 * t + c2 * np.sin(np.pi * t)

        else:
            levels = rng.uniform(0.4, 1.5, size=dim) * rng.choice(
                [-1.0, 1.0], size=dim
            )

            def curve(t, levels=levels):
                return levels

        def block(t, rot=rot, curve=curve):
            v = rot(t)
            mat = (v * curve(t)) @ v.conj().T
            return 0.5 * (mat + mat.conj().T)

        builders.append(block)

    def frame(t: float) -> BlockOperator:
        return BlockOperator([b(t) for b in builders])

    grid = np.linspace(0.0, 1.0, n_keyframes)
    return alg, OperatorPath.from_function(frame, grid)


def flow_over(path, alg, partition) -> K0Class:
    """The flow's defining sum over a given partition: its steps' classes added up."""
    steps = _flow_over_partition(path, alg, partition, DEFAULT_TOL)
    return sum(steps, K0Class.zero(alg.n_ideal))


class BrokenPromise(AssertionError):
    """A step of a partition off the ideal breaks the promise ``step_cosines``
    checks: ``kind`` is "rank" or "sine", at the step ending at ``t``."""

    def __init__(self, kind: str, t: float, block: int, value) -> None:
        super().__init__(f"{kind} of a step at t = {t:g} on block {block}: {value}")
        self.kind, self.t, self.block, self.value = kind, t, block, value


def step_cosines(path, alg, partition, tol: Tolerances = DEFAULT_TOL) -> list[float]:
    """Reference check of the promise a partition keeps off the ideal, from
    principal angles (Björck and Golub, Math. Comp. 27, 1973).

    Per step and non-ideal block, with ``M_P`` and ``M_Q`` chi's kept
    eigenbases at its ends, ``rho`` singular values of ``M_Q* M_P`` lie above
    ``sqrt(1 - (1 - intersection)^2)`` (the cut on the sines, the eigenvalues
    of P - Q).  The promise is ``rho = r_P = r_Q`` (else a "rank" break: the
    step's relative kernels are not 0 off the ideal) and a smallest kept
    cosine of at least ``sqrt(1 - (1/2 - margin)^2)`` (else a "sine" break:
    ``||P - Q|| > 1/2 - margin``).  Returns each step's smallest cosine, 1 for
    none, or raises ``BrokenPromise`` at the first step and block that breaks
    it."""
    cut = math.sqrt(1.0 - (1.0 - tol.intersection) ** 2)
    promise = math.sqrt(1.0 - (0.5 - tol.margin) ** 2)

    def bases(t):
        a = path.at(t)
        eps = tol.kernel_eps(a.norm())
        out = []
        for i in alg.nonideal_indices:
            w, v = np.linalg.eigh(0.5 * (a.blocks[i] + a.blocks[i].conj().T))
            out.append(v[:, w >= -eps])
        return out

    least, prev = [], bases(partition[0])
    for t in partition[1:]:
        cur, step = bases(t), 1.0
        for i, mp, mq in zip(alg.nonideal_indices, prev, cur):
            s = np.linalg.svd(mq.conj().T @ mp, compute_uv=False)
            kept = s[s > cut]
            if not len(kept) == mp.shape[1] == mq.shape[1]:
                raise BrokenPromise("rank", t, i, (len(kept), mp.shape[1], mq.shape[1]))
            step = min(step, float(kept.min(initial=1.0)))
            if step < promise:
                raise BrokenPromise("sine", t, i, math.sqrt(1.0 - step * step))
        least.append(step)
        prev = cur
    return least


def endpoint_rank_oracle(path, alg) -> tuple[int, ...]:
    """Independent flow oracle: per ideal block, endpoint difference of the
    number of nonnegative eigenvalues, counted directly from the spectra."""
    counts = []
    for idx in alg.ideal_indices:
        deltas = []
        for t in (0.0, 1.0):
            b = path.at(t).blocks[idx]
            w = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
            deltas.append(int(np.count_nonzero(w >= -1e-12)))
        counts.append(deltas[0] - deltas[1])
    return tuple(counts)


class SampledSpectra(dict):
    """Reference for ``flow._Spectra``: the quotient spectrum filled one time
    at a time, when it is first read, with one ``eigvalsh`` per stack."""

    def __init__(self, path) -> None:
        super().__init__()
        self.path = path

    def __missing__(self, t: float):
        op = self.path.at(t)
        sides = np.empty((3, len(op.dims)))
        gap = np.inf
        for idx, st in zip(_groups(op.dims), op._stacks):
            w = _eigvalsh(st)
            neg = w < 0.0
            sides[0, idx] = np.minimum.reduce(np.where(neg, np.inf, w), axis=1)
            sides[1, idx] = np.minimum.reduce(np.where(neg, -w, np.inf), axis=1)
            sides[2, idx] = np.add.reduce(neg, axis=1)
            gap = np.minimum(gap, np.minimum.reduce(np.abs(w), axis=None))
        self[t] = (float(gap), sides)
        return self[t]


def chi_counts_at(op, alg, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Reference for ``model._chi_counts`` at one point: chi's counts on the
    ideal blocks, with chi's cut applied per stack of ideal blocks."""
    op.require_selfadjoint("chi argument", tol)
    keep, counts = _chi_keep(op, tol), np.empty(alg.n_ideal, dtype=int)
    for pos, st in op._stacks_of(alg.ideal_indices):
        counts[pos] = np.count_nonzero(keep(_eigvalsh(st)), axis=-1)
    return counts


def sampled_flow_result(path, alg, tol: Tolerances = DEFAULT_TOL):
    """``spectral_flow_result`` with the spectra filled one time at a time and
    chi's counts taken one point at a time (the references above)."""

    def counts(ops, alg, tol):
        return np.array([chi_counts_at(op, alg, tol) for op in ops]).reshape(len(ops), -1)

    with mock.patch.object(flow, "_Spectra", SampledSpectra), \
            mock.patch.object(flow, "_chi_counts", counts):
        return spectral_flow_result(path, alg, tol)


def segment_move(path, alg, a: float, b: float) -> np.ndarray:
    """Reference for a certified segment's movement: the spectral norms of the
    non-ideal blocks of ``A_b - A_a``, one call per stack."""
    diff = path.at(b) - path.at(a)
    return diff._block_norms(alg.nonideal_indices)
