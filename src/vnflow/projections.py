"""Projection calculus on block operators.

Spectral projections, polar phases, kernel projections, relative kernels
and nearest-projection repair.  Every projection returned here is "snapped":
it is rebuilt from an orthonormal eigen- or singular basis, and carries the
per-block counts of the vectors it kept as its ranks.

The index routes are ``kernel_pair`` (the boundary map and the pairing),
``relative_kernels`` (``sf_unbounded_result``) and the compressed corner of
``corner.py`` (the corner index), which takes the kernels from the SVD of
``q``'s range basis times S times ``p``'s.  The spectral flow forms no
projection: it reads its steps off chi's counts on the ideal blocks
(``model._chi_counts``), with chi's mask.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericsError, SpectralGapError
from .model import DEFAULT_TOL, BlockOperator, Tolerances
from .model import _chi_keep, _gram, _norm_eps, _projector, _svd

__all__ = [
    "chi",
    "polar_phase",
    "null_projection",
    "kernel_pair",
    "range_projection",
    "relative_kernels",
    "nearest_projection",
]


def chi(op: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Nonnegative spectral projection of a selfadjoint operator.

    Eigenvalues down to ``-kernel_eps`` count as nonnegative, so exact zeros
    (integer models) land in the positive side deterministically.
    """
    op.require_selfadjoint("chi argument", tol)
    return op.spectral_projection(_chi_keep(op, tol))


# The projections onto the kept right and left singular vectors, and the phase.
_PRODUCTS: dict[str, Callable] = {
    "right": lambda u, vh, rows, keep: _gram(vh[rows][..., keep, :].conj().mT),
    "left": lambda u, vh, rows, keep: _gram(u[rows][..., keep]),
    "phase": lambda u, vh, rows, keep: u[rows][..., keep] @ vh[rows][..., keep, :],
}


def _require_finite(op: BlockOperator) -> None:
    """A kernel cut relative to a norm that is not finite is meaningless."""
    if not math.isfinite(op._norm_bound()) and not math.isfinite(op.norm()):
        raise NumericsError(f"singular value decomposition of an operator of norm {op.norm()}")


def _from_svd(op: BlockOperator, tol: Tolerances, kinds, above=True) -> list[BlockOperator]:
    """One operator per ``_PRODUCTS`` kind, built by ``_projector`` from the one
    SVD ``u s vh`` of each stack for the rows that keep the same singular values,
    those above the kernel threshold (``above``) or the rest; projections carry
    the numbers kept as ranks.  A norm that is not finite raises NumericsError."""
    _require_finite(op)
    out, counts = [[] for _ in kinds], []
    for st in op._stacks:
        u, s, vh = _svd(st)
        eps = _norm_eps(tol.kernel_eps, tol.kernel, (op,), s)
        mask = s > eps if above else s <= eps
        counts.append(np.count_nonzero(mask, axis=-1))
        for stacks, kind in zip(out, kinds):
            stacks.append(_projector(mask, lambda rows, keep: _PRODUCTS[kind](u, vh, rows, keep)))
    return [
        op._like(op.dims, st, ranks=None if k == "phase" else counts) for st, k in zip(out, kinds)
    ]


def polar_phase(op: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """The partial isometry from the polar decomposition.

    Built from the SVD keeping singular values above the kernel threshold.
    The zero operator yields the zero phase.
    """
    return _from_svd(op, tol, ["phase"])[0]


def null_projection(op: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Orthogonal projection onto the kernel (right singular vectors below threshold)."""
    return _from_svd(op, tol, ["right"], above=False)[0]


def kernel_pair(
    op: BlockOperator, tol: Tolerances = DEFAULT_TOL
) -> tuple[BlockOperator, BlockOperator]:
    """The kernel projections of S and of S*, from one SVD S = U s V*: as
    S* = V s U*, the kernel of S* is spanned by the left singular vectors below
    the cut of the right ones, and the two have equal rank on every block."""
    return tuple(_from_svd(op, tol, ["right", "left"], above=False))


def range_projection(op: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Orthogonal projection onto the closure of the image."""
    return _from_svd(op, tol, ["left"])[0]


def relative_kernels(
    p: BlockOperator, q: BlockOperator, tol: Tolerances = DEFAULT_TOL
) -> tuple[BlockOperator, BlockOperator]:
    """The projections onto ``p ∧ (1 - q)`` and ``(1 - p) ∧ q``, from one
    Hermitian eigendecomposition of ``p - q``.

    For projections, ``||p - q|| <= 1``, and a unit vector with
    ``(p - q) x = x`` has ``<p x, x> = 1`` and ``<q x, x> = 0``, so ``p x = x``
    and ``q x = 0``; the two spaces are the eigenvalue +1 and -1 eigenspaces
    of ``p - q`` (Avron, Seiler and Simon, J. Funct. Anal. 120, 1994), kept
    above ``1 - intersection`` and below ``-(1 - intersection)``.  They equal
    the eigenvalue-2 eigenspaces of ``p + (1 - q)`` and ``(1 - p) + q``.
    """
    p.require_projection("first intersection argument", tol)
    q.require_projection("second intersection argument", tol)
    cut = 1.0 - tol.intersection
    return tuple((p - q).spectral_projections(lambda w: w > cut, lambda w: w < -cut))


def nearest_projection(e: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Snap an almost-idempotent selfadjoint operator to the nearest projection.

    Requires a spectral gap around 1/2, guaranteed when the idempotency defect
    is below 1/4.  The result is the spectral projection above 1/2 and lies
    within distance 1/2 of the input.
    """
    e.require_selfadjoint("nearest_projection argument", tol)
    gap_eps = 1e-12
    eig = list(e._eig())
    near = e._in_block_order(np.any(np.abs(w - 0.5) < gap_eps, axis=1) for w, _ in eig)
    defect = e._in_block_order(np.max(np.abs(w * w - w), axis=1) for w, _ in eig)
    for i in range(len(e.dims)):
        if near[i]:
            raise SpectralGapError(
                f"no spectral gap: block {i} has an eigenvalue within "
                f"{gap_eps:g} of 1/2"
            )
        if defect[i] >= 0.25:
            raise SpectralGapError(
                f"no spectral gap: block {i} has idempotency defect "
                f"{defect[i]:.6g} >= 1/4"
            )
    return e._like(e.dims, e._stacks, eig).spectral_projection(lambda w: w > 0.5)
