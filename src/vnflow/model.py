"""Finite block models of a von Neumann algebra with a marked ideal.

A model is a finite direct sum of full complex matrix blocks.  Each block
carries a positive trace weight and a flag saying whether it belongs to the
distinguished norm closed ideal.  The quotient onto the Calkin side simply
forgets the ideal blocks, which keeps norms, traces, spectral projections and
K-classes exactly computable.

Everything in this module is immutable after construction and safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelError, NotInIdealError, NumericsError, PreconditionError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Block",
    "VnAlgebra",
    "BlockOperator",
    "K0Class",
    "CheckedClass",
    "OperatorPath",
    "quotient_norm",
    "tau",
    "tau_star",
    "k0_of_difference",
    "block_ranks",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    ``proj`` and ``kernel`` are relative factors: the effective projection
    tolerance for an operand of norm ``n`` is ``proj * (1 + n)`` and the
    effective kernel threshold is ``kernel * max(1, n)``.  ``gap`` (Fredholm
    gap) is absolute.  ``intersection`` lies in (0, 1): ``relative_kernels``
    keeps the eigenvalues of p - q beyond ``+-(1 - intersection)``.  ``margin``
    and ``max_depth`` drive the partition search.
    """

    proj: float = 1e-8
    kernel: float = 1e-10
    gap: float = 1e-8
    intersection: float = 1e-8
    margin: float = 0.05
    max_depth: int = 20

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            kind = numbers.Integral if name == "max_depth" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ModelError(
                    f"tolerance {name} must be {kind.__name__.lower()}, got {value!r}"
                )
        for name in ("proj", "kernel", "gap", "intersection"):
            value = getattr(self, name)
            try:
                valid = math.isfinite(value) and value > 0.0
            except OverflowError:  # an int beyond the float range
                valid = False
            if not valid:
                raise ModelError(f"tolerance {name} must be finite and > 0, got {value}")
        if not self.intersection < 1.0:
            raise ModelError(f"tolerance intersection must lie in (0, 1), got {self.intersection}")
        if not 0.0 <= self.margin < 0.5:
            raise ModelError(f"tolerance margin must lie in [0, 1/2), got {self.margin}")
        if not self.max_depth >= 1:
            raise ModelError(f"tolerance max_depth must be >= 1, got {self.max_depth}")

    def proj_eps(self, norm: float) -> float:
        return self.proj * (1.0 + norm)

    def kernel_eps(self, norm: float) -> float:
        return self.kernel * max(1.0, norm)


DEFAULT_TOL = Tolerances()


# -- the Hermitian spectral kernel ---------------------------------------------
#
# Every eigendecomposition, SVD and spectral norm in the package goes through
# the functions below.  Each takes a matrix or a stack of equal-sized matrices
# (a (k, n, n) array) and makes one LAPACK call for the whole stack; stacked
# results are bitwise equal to the per-matrix ones.  The LAPACK entry points
# are looked up on ``np.linalg`` at call time, and a LAPACK failure surfaces
# as NumericsError.


def _herm(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().mT)


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of the Hermitian part."""
    try:
        return np.linalg.eigh(_herm(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Hermitian eigendecomposition failed: {exc}") from exc


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part."""
    try:
        return np.linalg.eigvalsh(_herm(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Hermitian eigenvalue computation failed: {exc}") from exc


def _unitary_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors ``(lam, z)`` of a unitary, or of
    each unitary of a stack, from one Hermitian eigendecomposition.

    With ``cos phi`` at the middle of the widest gap of ``{-1, cos theta_k, 1}``
    (the eigenvalues of (u + u*)/2), ``c = e^(i phi)`` has distance at least
    1/(n + 1) from the spectrum of u, so the Cayley transform
    ``i (c - u)^(-1) (c + u)`` is Hermitian with norm at most 2 (n + 1) and has
    u's eigenvectors.  ``lam`` is read off ``diag(z* u z)``."""
    cos = np.clip(_eigvalsh(mat), -1.0, 1.0)
    ends = np.ones(cos.shape[:-1] + (1,))
    edges = np.concatenate([-ends, cos, ends], axis=-1)
    j = np.diff(edges, axis=-1).argmax(axis=-1)[..., None]
    mid = 0.5 * (np.take_along_axis(edges, j, -1) + np.take_along_axis(edges, j + 1, -1))
    c = np.exp(1j * np.arccos(mid))[..., None] * np.eye(mat.shape[-1])
    try:
        cayley = 1j * np.linalg.solve(c - mat, c + mat)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Cayley transform failed: {exc}") from exc
    z = _eigh(cayley)[1]
    return (z.conj() * (mat @ z)).sum(axis=-2), z


def _svd(mat: np.ndarray, compute_uv: bool = True):
    """The SVD ``(u, s, vh)``, or only ``s`` when ``compute_uv`` is false."""
    try:
        return np.linalg.svd(mat, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"singular value decomposition failed: {exc}") from exc


def _spectral_norm(mat: np.ndarray):
    """The spectral norm of a matrix (a float), or of each matrix of a stack
    (an array of the stack's leading shape).  An all-zero matrix or stack gets
    exact zeros without an SVD; this covers the empty matrix, and a NaN is
    nonzero."""
    if not mat.any():
        return 0.0 if mat.ndim == 2 else np.zeros(mat.shape[:-2])
    try:
        norms = np.linalg.norm(mat, 2, axis=(-2, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"spectral norm failed: {exc}") from exc
    return float(norms) if mat.ndim == 2 else norms


def _frobenius(stack: np.ndarray):
    """The Frobenius norm of each matrix of a stack; for a stack of one, the
    flat norm, a float, which takes half the time of the stacked call."""
    return np.linalg.norm(stack) if len(stack) == 1 else np.linalg.norm(stack, axis=(-2, -1))


def _largest(values: Iterable) -> float:
    """The largest of some numbers and arrays of numbers, 0 for none.  A NaN
    anywhere makes it NaN (Python's ``max`` keeps a NaN only when it comes
    first)."""
    worst = 0.0
    for v in values:
        if isinstance(v, np.ndarray):
            v = v.max()
        if v != v:
            return float(v)
        worst = max(worst, v)
    return float(worst)


def _max_norm(mats: Iterable[np.ndarray]) -> float:
    """The largest spectral norm over matrices and stacks of matrices."""
    return _largest(_spectral_norm(m) for m in mats)


def _mask_groups(mask: np.ndarray) -> list[tuple]:
    """``(rows, keep)`` per distinct row ``keep`` of a boolean (k, n) ``mask``,
    ``rows`` the rows equal to it, a slice of all rows when they all are."""
    groups: dict[tuple, list[int]] = {}
    for j, row in enumerate(mask.tolist()):
        groups.setdefault(tuple(row), []).append(j)
    if len(groups) == 1:
        return [(slice(None), mask[0])]
    return [(rows, np.array(keep)) for keep, rows in groups.items()]


def _projector(mask: np.ndarray, product: Callable) -> np.ndarray:
    """The (k, n, n) stack whose rows of each ``_mask_groups`` group of a (k, n)
    ``mask`` are ``product(rows, keep)``, a product of the kept basis vectors.
    Rows are grouped rather than the dropped vectors zeroed, which would change
    the last bit."""
    groups = _mask_groups(mask)
    if len(groups) == 1:
        return product(*groups[0])
    out = np.empty(mask.shape + mask.shape[-1:], dtype=complex)
    for rows, keep in groups:
        out[rows] = product(rows, keep)
    return out


def _gram(c: np.ndarray) -> np.ndarray:
    """``c @ c*``: the projection onto orthonormal columns ``c``."""
    return c @ c.conj().mT


def _chi_keep(op: "BlockOperator", tol: Tolerances) -> Callable[[np.ndarray], np.ndarray]:
    """chi's mask of ``op``'s eigenvalues: down to ``-kernel_eps`` they count
    as nonnegative, so exact zeros (integer models) land on that side."""
    return lambda w: w >= -_norm_eps(tol.kernel_eps, tol.kernel, (op,), -w)


def _chi_counts(ops: Sequence["BlockOperator"], alg: "VnAlgebra", tol: Tolerances) -> np.ndarray:
    """chi's counts of kept eigenvalues on the ideal blocks of each operator of
    ``ops``: a (points, n_ideal) array, columns in the order of
    ``alg.ideal_indices``.  Each operator passes chi's selfadjointness check;
    then one ``eigvalsh`` per stack of ideal blocks runs over every operator,
    and chi's cut is applied once per operator, to all its eigenvalues: the
    threshold ``_norm_eps`` returns decides each value as it would per stack."""
    for op in ops:
        op.require_selfadjoint("chi argument", tol)
    counts = np.empty((len(ops), alg.n_ideal), dtype=int)
    spectra = [(pos, _eigvalsh(st)) for pos, st in _stacked(ops, alg.ideal_indices)]
    if not spectra:
        return counts
    _fill_norm_bounds(ops)
    flat = np.concatenate([w.reshape(len(ops), -1) for _, w in spectra], axis=1)
    kept = np.array([_chi_keep(op, tol)(row) for op, row in zip(ops, flat)])
    start = 0
    for pos, w in spectra:
        stop = start + w[0].size
        counts[:, pos] = np.count_nonzero(kept[:, start:stop].reshape(w.shape), axis=-1)
        start = stop
    return counts


# The package's one residual check: every "residual <= tolerance" condition
# goes through it, so the comparison, the message and the error fields have
# one form.
_WHERE = {"block": "on block", "t": "at t ="}


def check_residual(
    what: str, value: float, bound: float, error=PreconditionError, **where
) -> float:
    """Raise ``error`` unless ``value <= bound`` (a NaN value fails), else return ``value``.

    The message reads ``<what>: <value> > <bound>``, then ``on block <i>`` or
    ``at t = <t>`` for a ``block`` or ``t`` in ``where``; the error's ``fields``
    hold ``what``, ``value``, ``bound`` and ``where``.
    """
    if not value <= bound:
        place = "".join(f" {_WHERE[key]} {v:g}" for key, v in where.items())
        message = f"{what}: {value:.3e} > {bound:.3e}{place}"
        raise error(message, what=what, value=value, bound=bound, **where)
    return value


def check_support(
    what: str,
    op: "BlockOperator",
    blocks: Iterable[int],
    bound: float | Callable[[np.ndarray], float],
    error=NotInIdealError,
) -> float:
    """Check that ``op`` vanishes on ``blocks``, reading only those: each block
    norm is a residual, checked in the order of ``blocks`` (the first that
    fails raises).  ``bound`` is a number or a function of the array of block
    norms giving it.  Returns the largest norm (0 for no blocks)."""
    blocks = tuple(blocks)
    norms = op._block_norms(blocks)
    if callable(bound):
        bound = bound(norms)
    for k in np.flatnonzero(~(norms <= bound))[:1]:
        check_residual(what, float(norms[k]), bound, error, block=blocks[k])
    return float(norms.max(initial=0.0))


def _norm_eps(
    eps: Callable[[float], float],
    floor: float,
    ops: Iterable["BlockOperator"],
    values=None,
    report: bool = False,
) -> float:
    """The norm-relative threshold ``eps(N)``, N the largest norm of ``ops``,
    computing N only where a comparison ``value <= threshold`` needs it.

    Every ``eps(n)`` is at least ``floor``, and ``eps`` does not decrease, so
    ``eps(N)`` is at most the ceiling ``eps(2 U)`` for U the largest
    ``_norm_bound()``: twice it covers rounding in both norms, and a Frobenius
    norm that underflows belongs to a norm so far below 1 that no threshold
    depends on it.  When the ceiling is at most the floor, ``eps(N)`` is the
    floor.  Otherwise a value of ``values`` at most the floor passes, and one
    above the ceiling fails, against ``floor`` as against ``eps(N)``; so when
    no value lies between the two, ``floor`` takes the same decisions and is
    returned in its place.  With ``report``, a failing value is reported with
    the threshold, so only values at most the floor settle without N.
    Without ``values``, or with a bound that is not finite, the result is
    ``eps(N)``.
    """
    ops = tuple(ops)
    bound = _largest(op._norm_bound() for op in ops)
    if math.isfinite(bound):
        ceiling = eps(2.0 * bound)
        if ceiling <= floor:
            return floor
        if values is not None:
            v = np.asarray(values)
            if not np.any((v > floor) & (v <= (math.inf if report else ceiling))):
                return floor
    return eps(max(op.norm() for op in ops))


@dataclass(frozen=True)
class Block:
    """One summand of the model: dimension, trace weight, ideal membership."""

    dim: int
    weight: float = 1.0
    in_ideal: bool = True

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ModelError(f"block dimension must be >= 1, got {self.dim}")
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ModelError(f"trace weight must be finite and > 0, got {self.weight}")


@dataclass(frozen=True)
class VnAlgebra:
    """A finite direct sum of matrix blocks with an ideal mask and weights."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks: Iterable[Block]) -> None:
        blocks = tuple(blocks)
        if not blocks:
            raise ModelError("an algebra needs at least one block")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(b.weight for b in self.blocks)

    @cached_property
    def ideal_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if b.in_ideal)

    @cached_property
    def nonideal_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if not b.in_ideal)

    @property
    def n_ideal(self) -> int:
        return len(self.ideal_indices)

    @property
    def all_ideal(self) -> bool:
        return not self.nonideal_indices

    def identity(self) -> "BlockOperator":
        return BlockOperator([np.eye(d, dtype=complex) for d in self.dims])

    def zero(self) -> "BlockOperator":
        return BlockOperator([np.zeros((d, d), dtype=complex) for d in self.dims])

    def require_conformal(self, op: "BlockOperator") -> None:
        if op.dims != self.dims:
            raise ModelError(
                f"operator blocks {op.dims} do not match algebra blocks {self.dims}"
            )


@lru_cache(maxsize=256)
def _groups(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The indices of the blocks of each dimension, dimensions in order of
    first appearance: the layout of an operator's stacks."""
    by_dim: dict[int, list[int]] = {}
    for i, n in enumerate(dims):
        by_dim.setdefault(n, []).append(i)
    return tuple(map(tuple, by_dim.values()))


@lru_cache(maxsize=256)
def _selection(dims: tuple[int, ...], blocks: tuple[int, ...]) -> tuple:
    """Per stack holding any of ``blocks``, in the order ``blocks`` reaches them:
    its number, the positions in ``blocks`` of its blocks, and their rows in
    the stack (None for all rows in order)."""
    groups = _groups(dims)
    place = {i: (s, r) for s, idx in enumerate(groups) for r, i in enumerate(idx)}
    picked: dict[int, list[tuple[int, int]]] = {}
    for pos, i in enumerate(blocks):
        s, r = place[range(len(dims))[i]]
        picked.setdefault(s, []).append((pos, r))
    out = []
    for s, chosen in picked.items():
        positions, rows = _frozen(*(np.array(x) for x in zip(*chosen)))
        every = rows.tolist() == list(range(len(groups[s])))
        out.append((s, positions, None if every else rows))
    return tuple(out)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _stacked(ops: Sequence["BlockOperator"], blocks: tuple[int, ...]) -> list:
    """Per stack holding any of ``blocks``: the positions in ``blocks`` of its
    blocks, and a (points, k, n, n) array of those blocks of each operator of
    ``ops`` (all of one layout), so that one kernel call takes every point."""
    out = []
    for s, pos, rows in _selection(ops[0].dims, blocks):
        st = np.array([op._stacks[s] for op in ops])
        out.append((pos, st if rows is None else st[:, rows]))
    return out


def _fill_norm_bounds(ops: Sequence["BlockOperator"]) -> None:
    """Cache ``_norm_bound()`` for each operator of ``ops`` (all of one layout)
    that has neither its norm nor its bound yet, from one Frobenius norm call
    per stack over all of them.  An overflow gives the bound inf, no warning:
    ``_norm_eps`` then takes the exact norm."""
    todo = [op for op in ops if "norm" not in op._cache and "fro" not in op._cache]
    if not todo:
        return
    bound = np.zeros(len(todo))
    with np.errstate(over="ignore"):
        for _, st in _stacked(todo, tuple(range(len(todo[0].dims)))):
            bound = np.maximum(bound, np.linalg.norm(st, axis=(-2, -1)).max(axis=1))
    for op, value in zip(todo, bound.tolist()):
        op._cache["fro"] = value


class BlockOperator:
    """An element of the model: one complex square matrix per block.

    The blocks are stored grouped by dimension, one read-only (k, n, n) stack
    per dimension (the layout ``_groups(dims)``), so that the kernel makes one
    LAPACK call per stack.  ``blocks`` gives read-only views in block order.
    Instances are immutable: only ``__init__`` and ``_like`` set their slots,
    and the stacks are copies of the input blocks.  The block views, the norm
    and the selfadjoint / projection / unitary defects (spectral norms) are
    cached on first use.
    The ``is_*`` and ``require_*`` checks first screen the defect matrices with
    one Frobenius norm over all of them and pass without an SVD when it proves
    the defect small enough; otherwise they compare, and report, the spectral
    defect.
    ``apply`` and ``spectral_projection`` act on the Hermitian part of each
    block.
    """

    __slots__ = ("dims", "_stacks", "_cache", "_seed", "_ranks")

    def __init__(self, blocks: Sequence[np.ndarray]) -> None:
        mats = []
        for raw in blocks:
            arr = np.asarray(raw, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ModelError(f"blocks must be square matrices, got shape {arr.shape}")
            mats.append(arr)
        if not mats:
            raise ModelError("an operator needs at least one block")
        self.dims: tuple[int, ...] = tuple(m.shape[0] for m in mats)
        self._stacks = _frozen(*[np.array([mats[i] for i in idx]) for idx in _groups(self.dims)])
        self._cache: dict = {}
        self._seed = self._ranks = None

    @staticmethod
    def _like(dims: tuple[int, ...], stacks: list, seed=None, ranks=None) -> "BlockOperator":
        """The operator of blocks ``dims`` that takes over ``stacks``: new
        C-contiguous complex arrays, one per stack of the layout ``_groups(dims)``.
        Stacks built as ``v diag(w) v*`` keep ``seed``, ``(w, v)`` per stack, and
        a projection built from masks keeps their counts per stack as ``ranks``."""
        op = object.__new__(BlockOperator)
        op.dims, op._stacks, op._cache = dims, _frozen(*stacks), {}
        op._seed, op._ranks = seed, ranks
        return op

    def _eig(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        """The seed, a list of ``(w, v)`` per stack, else an iterator that takes
        them one stack at a time and stores nothing."""
        return self._seed if self._seed is not None else map(_eigh, self._stacks)

    def _stacks_of(self, blocks: tuple[int, ...]) -> list:
        """(positions in ``blocks``, stack of those blocks) per block dimension."""
        return [
            (pos, self._stacks[s] if rows is None else self._stacks[s][rows])
            for s, pos, rows in _selection(self.dims, blocks)
        ]

    def _in_block_order(self, per_stack: Iterable[Iterable]) -> list:
        """Items given per stack, one per block of the stack, in block order."""
        out: list = [None] * len(self.dims)
        for idx, items in zip(_groups(self.dims), per_stack):
            for i, item in zip(idx, items):
                out[i] = item
        return out

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """One read-only (dim, dim) view per block, in block order."""
        if "blocks" not in self._cache:
            self._cache["blocks"] = tuple(self._in_block_order(self._stacks))
        return self._cache["blocks"]

    # -- functional calculus ---------------------------------------------------

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "BlockOperator":
        """Functional calculus: ``fn`` applied to the spectrum of the Hermitian
        part.  ``fn`` acts elementwise on an array of eigenvalues.  A real
        ``fn`` gives a selfadjoint result, seeded with ``(fn(w), v)``."""
        seed = [(fn(w), v) for w, v in self._eig()]
        stacks = [(v * fw[:, None, :]) @ v.conj().mT for fw, v in seed]
        real = all(np.isrealobj(fw) for fw, _ in seed)
        return self._like(self.dims, stacks, seed if real else None)

    def spectral_projection(self, keep: Callable[[np.ndarray], np.ndarray]) -> "BlockOperator":
        """Projection onto the eigenvectors of the Hermitian part whose
        eigenvalues pass the elementwise boolean mask ``keep``, with the mask
        counts as its ranks."""
        return self.spectral_projections(keep)[0]

    def spectral_projections(
        self, *keeps: Callable[[np.ndarray], np.ndarray]
    ) -> list["BlockOperator"]:
        """One ``spectral_projection`` per mask of ``keeps``, all from one
        eigendecomposition of each stack, taken one stack at a time."""
        stacks, ranks = [[] for _ in keeps], [[] for _ in keeps]
        for w, v in self._eig():
            for keep, out, counts in zip(keeps, stacks, ranks):
                mask = keep(w)
                out.append(_projector(mask, lambda rows, kept: _gram(v[rows][..., kept])))
                counts.append(np.count_nonzero(mask, axis=-1))
        return [self._like(self.dims, st, ranks=r) for st, r in zip(stacks, ranks)]

    # -- basic queries ---------------------------------------------------------

    @property
    def H(self) -> "BlockOperator":
        """The adjoint (blockwise conjugate transpose)."""
        return self._like(self.dims, [np.ascontiguousarray(st.conj().mT) for st in self._stacks])

    def norm(self) -> float:
        """Operator norm: the maximum spectral norm over all blocks."""
        if "norm" not in self._cache:
            self._cache["norm"] = _max_norm(self._stacks)
        return self._cache["norm"]

    def _norm_bound(self) -> float:
        """An upper bound on ``norm()``: the norm once it is computed, else the
        largest Frobenius norm of a block (cached)."""
        cache = self._cache
        if "norm" in cache:
            return cache["norm"]
        if "fro" not in cache:
            cache["fro"] = _largest(map(_frobenius, self._stacks))
        return cache["fro"]

    def _block_norms(self, blocks: tuple[int, ...]) -> np.ndarray:
        """The spectral norms of ``blocks``, in that order."""
        norms = np.empty(len(blocks))
        for pos, st in self._stacks_of(blocks):
            norms[pos] = _spectral_norm(st)
        return norms

    def allclose(self, other: "BlockOperator", atol: float = 1e-10) -> bool:
        if self.dims != other.dims:
            return False
        return all(
            np.allclose(a, b, atol=atol, rtol=0.0)
            for a, b in zip(self._stacks, other._stacks)
        )

    # -- cached flags ----------------------------------------------------------

    def _defect_matrices(self, kind: str) -> list[np.ndarray]:
        """The stacks whose largest spectral norm is the ``kind`` defect:
        ``b - b*`` ("sa"); ``b b - b``, then ``b - b*`` ("proj"); ``b* b - 1``
        and ``b b* - 1`` ("uni")."""
        if kind == "uni":
            return [
                m - np.eye(st.shape[-1])
                for st in self._stacks
                for m in (st.conj().mT @ st, st @ st.conj().mT)
            ]
        adjoint = [st - st.conj().mT for st in self._stacks]
        return [st @ st - st for st in self._stacks] + adjoint if kind == "proj" else adjoint

    def _defect(self, kind: str) -> float:
        if kind not in self._cache:
            self._cache[kind] = _max_norm(self._defect_matrices(kind))
        return self._cache[kind]

    def selfadjoint_defect(self) -> float:
        return self._defect("sa")

    def projection_defect(self) -> float:
        return self._defect("proj")

    def unitary_defect(self) -> float:
        return self._defect("uni")

    def _check(
        self, kind: str, tol: Tolerances, eps: float | None = None
    ) -> tuple[float, float] | None:
        """``None`` when a Frobenius screen proves the ``kind`` check passes, else
        the spectral defect and its bound (``eps`` if given, else
        ``tol.proj_eps(norm)``, the norm taken only for a defect above
        ``tol.proj``).  The screen is one Frobenius norm over all the defect
        matrices, ``sqrt(sum ||m||_F^2)``, at least every block's spectral
        defect; it passes at most half the smallest bound, ``tol.proj`` or
        ``eps``, the half covering rounding in both norms.  That norm is
        cached, so a later check with another bound reuses it.  Bounds below
        1e-140 are not screened: the summed squares could underflow."""
        floor = tol.proj if eps is None else eps
        cache = self._cache
        if kind not in cache:
            mats = None
            if floor >= 1e-140:
                if ("fro", kind) not in cache:
                    mats = self._defect_matrices(kind)
                    cache["fro", kind] = math.sqrt(sum(np.vdot(m, m).real for m in mats))
                if cache["fro", kind] <= 0.5 * floor:
                    return None
            cache[kind] = _max_norm(self._defect_matrices(kind) if mats is None else mats)
        if eps is None:
            eps = _norm_eps(tol.proj_eps, tol.proj, (self,), cache[kind], report=True)
        return cache[kind], eps

    def _passes(self, kind: str, tol: Tolerances) -> bool:
        check = self._check(kind, tol)
        return check is None or check[0] <= check[1]

    def _require(self, kind: str, what: str, tol: Tolerances, eps: float | None = None) -> None:
        check = self._check(kind, tol, eps)
        if check is not None:
            check_residual(what, *check)

    def is_selfadjoint(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return self._passes("sa", tol)

    def is_projection(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return self._passes("proj", tol)

    def is_unitary(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return self._passes("uni", tol)

    # -- preconditions: raise PreconditionError where ``is_*`` is false --------

    def require_selfadjoint(self, what: str, tol: Tolerances = DEFAULT_TOL) -> None:
        self._require("sa", f"{what} must be selfadjoint", tol)

    def require_projection(self, what: str, tol: Tolerances = DEFAULT_TOL) -> None:
        self._require("proj", f"{what} must be a projection", tol)

    def require_unitary(
        self, what: str, tol: Tolerances = DEFAULT_TOL, eps: float | None = None
    ) -> None:
        """``eps``, when given, is an absolute bound in place of ``tol``."""
        self._require("uni", f"{what} must be unitary", tol, eps)

    # -- algebra ---------------------------------------------------------------

    def _binary(self, other: "BlockOperator", fn) -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if self.dims != other.dims:
            raise ModelError(f"block shape mismatch: {self.dims} vs {other.dims}")
        return self._like(self.dims, [fn(a, b) for a, b in zip(self._stacks, other._stacks)])

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __matmul__(self, other):
        return self._binary(other, operator.matmul)

    def __neg__(self):
        return self._like(self.dims, [-st for st in self._stacks])

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self._like(self.dims, [scalar * st for st in self._stacks])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"BlockOperator(dims={self.dims})"


@dataclass(frozen=True)
class K0Class:
    """An element of the K-group of the ideal: one integer rank per ideal block."""

    ranks: tuple[int, ...]

    def __init__(self, ranks: Iterable[int]) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))

    @classmethod
    def zero(cls, n_ideal: int) -> "K0Class":
        return cls((0,) * n_ideal)

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)

    def _check(self, other: "K0Class") -> None:
        if len(self.ranks) != len(other.ranks):
            raise ModelError(
                f"K-class length mismatch: {len(self.ranks)} vs {len(other.ranks)}"
            )

    def __add__(self, other: "K0Class") -> "K0Class":
        self._check(other)
        return K0Class(a + b for a, b in zip(self.ranks, other.ranks))

    def __sub__(self, other: "K0Class") -> "K0Class":
        self._check(other)
        return K0Class(a - b for a, b in zip(self.ranks, other.ranks))

    def __neg__(self) -> "K0Class":
        return K0Class(-r for r in self.ranks)

    def __mul__(self, n: int) -> "K0Class":
        return K0Class(n * r for r in self.ranks)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CheckedClass:
    """A K-class with the residuals of the quotient conditions it was derived
    under, each the value that was compared with its tolerance.  ``kernel``
    and ``cokernel`` are the two projections whose formal difference it is;
    they take no part in repr or equality."""

    k0: K0Class
    residuals: Mapping[str, float]
    kernel: BlockOperator = field(repr=False, compare=False)
    cokernel: BlockOperator = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "residuals", MappingProxyType(dict(self.residuals)))

    @classmethod
    def of(
        cls, kernel: BlockOperator, cokernel: BlockOperator, alg: VnAlgebra, tol: Tolerances,
        **residuals: float,
    ) -> "CheckedClass":
        """[kernel] - [cokernel] by ``k0_of_difference``, with the residuals."""
        return cls(k0_of_difference(kernel, cokernel, alg, tol), residuals, kernel, cokernel)


class OperatorPath:
    """A piecewise linear path of selfadjoint-capable operators over [0, 1].

    Keyframes are (time, operator) pairs with strictly increasing times, the
    first at 0 and the last at 1.  Evaluation at a keyframe time returns the
    stored operator itself; between keyframes the blocks are interpolated
    linearly.
    """

    __slots__ = ("keyframes", "_times")

    def __init__(self, keyframes: Sequence[tuple[float, BlockOperator]]) -> None:
        frames = [(float(t), op) for t, op in keyframes]
        if len(frames) < 2:
            raise ModelError("a path needs at least the two endpoint keyframes")
        times = [t for t, _ in frames]
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ModelError("keyframe times must start at 0 and end at 1")
        if not all(a < b for a, b in zip(times, times[1:])):  # a NaN time fails
            raise ModelError("keyframe times must be strictly increasing")
        dims = frames[0][1].dims
        for _, op in frames:
            if op.dims != dims:
                raise ModelError("all keyframes must share the same block structure")
        self.keyframes = tuple(frames)
        self._times = tuple(times)

    @classmethod
    def from_function(
        cls, fn: Callable[[float], BlockOperator], times: Sequence[float]
    ) -> "OperatorPath":
        return cls([(t, fn(t)) for t in times])

    @classmethod
    def linear(cls, start: BlockOperator, end: BlockOperator) -> "OperatorPath":
        return cls([(0.0, start), (1.0, end)])

    @property
    def times(self) -> tuple[float, ...]:
        return self._times

    @property
    def dims(self) -> tuple[int, ...]:
        return self.keyframes[0][1].dims

    def at(self, t: float) -> BlockOperator:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ModelError(f"path parameter {t} outside [0, 1]")
        idx = bisect_right(self._times, t) - 1
        if idx >= 0 and self._times[idx] == t:
            return self.keyframes[idx][1]
        t0, op0 = self.keyframes[idx]
        t1, op1 = self.keyframes[idx + 1]
        s = (t - t0) / (t1 - t0)
        stacks = [(1.0 - s) * a + s * b for a, b in zip(op0._stacks, op1._stacks)]
        return op0._like(self.dims, stacks)

    def reversed(self) -> "OperatorPath":
        frames = [(1.0 - t, op) for t, op in reversed(self.keyframes)]
        return OperatorPath(frames)

    def refined(self, extra_times: Iterable[float]) -> "OperatorPath":
        """The same path with additional keyframes at the given times."""
        ts = sorted(set(self._times) | {float(t) for t in extra_times})
        return OperatorPath([(t, self.at(t)) for t in ts])


# -- model operations ---------------------------------------------------------


def _quotient(op: BlockOperator, alg: VnAlgebra) -> BlockOperator:
    """The image of ``op`` in the quotient: its non-ideal blocks as an operator
    of their own (of no blocks when all are ideal).  The quotient map acts
    block by block, so sums, products and norms of images are bitwise those
    of the model's operators in the quotient, formed without the ideal blocks."""
    alg.require_conformal(op)
    dims = tuple(op.dims[i] for i in alg.nonideal_indices)
    return op._like(dims, [st for _, st in op._stacks_of(alg.nonideal_indices)])


def quotient_norm(op: BlockOperator, alg: VnAlgebra) -> float:
    """Norm of the image in the quotient: max spectral norm over non-ideal blocks.

    ``op`` is an operator of the model; an image made by ``_quotient`` has it
    as its ``norm()``.  Returns 0 when every block is ideal (a zero quotient).
    """
    return _quotient(op, alg).norm()


def block_ranks(p: BlockOperator) -> tuple[int, ...]:
    """Per-block rank of a projection, counted against the 1/2 threshold.

    A projection built from a mask carries the mask counts; otherwise
    eigenvalues of the Hermitian part are compared with 1/2, the stable way
    to count after arithmetic has smeared an idempotent.
    """
    counts = p._ranks or [np.add.reduce(_eigvalsh(st) >= 0.5, axis=-1) for st in p._stacks]
    return tuple(p._in_block_order(c.tolist() for c in counts))


def tau(p: BlockOperator, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL) -> float:
    """The weighted trace of a projection: sum of weight * rank over all blocks."""
    alg.require_conformal(p)
    p.require_projection("tau argument", tol)
    ranks = block_ranks(p)
    return float(sum(w * r for w, r in zip(alg.weights, ranks)))


def tau_star(c: K0Class, alg: VnAlgebra) -> float:
    """The trace homomorphism on K-classes: weighted sum over ideal blocks."""
    idx = alg.ideal_indices
    if len(c.ranks) != len(idx):
        raise ModelError(
            f"K-class has {len(c.ranks)} entries but the algebra has {len(idx)} ideal blocks"
        )
    return float(sum(alg.blocks[i].weight * r for i, r in zip(idx, c.ranks)))


def k0_of_difference(
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> K0Class:
    """The formal difference of two projections as a K-class of the ideal.

    The difference must be supported in the ideal blocks: on every non-ideal
    block p and q have to agree within the projection tolerance, otherwise the
    class does not live in the ideal's K-group.
    """
    alg.require_conformal(p)
    alg.require_conformal(q)
    p.require_projection("first argument", tol)
    q.require_projection("second argument", tol)
    if not alg.all_ideal:
        check_support(
            "p - q must vanish off the ideal",
            p - q,
            alg.nonideal_indices,
            lambda norms: _norm_eps(tol.proj_eps, tol.proj, (p, q), norms, report=True),
        )
    rp = block_ranks(p)
    rq = block_ranks(q)
    return K0Class(rp[i] - rq[i] for i in alg.ideal_indices)
