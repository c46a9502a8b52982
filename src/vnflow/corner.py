"""Skew-corner Fredholm theory and the K-theory boundary map.

An operator living in a corner q N p is Fredholm when its image in the
quotient is invertible as a corner element.  On the block model that becomes
a concrete check: on every non-ideal block the restriction mapping the range
of p into the range of q must be a square matrix with a singular value gap.
The index is the formal difference of the kernel intersections, a class over
the ideal blocks, read off the same SVDs of the compressed corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .model import (
    DEFAULT_TOL,
    BlockOperator,
    CheckedClass,
    K0Class,
    Tolerances,
    VnAlgebra,
    _gram,
    _mask_groups,
    _norm_eps,
    _projector,
    _quotient,
    _svd,
    check_residual,
    check_support,
)
from .projections import _require_finite, kernel_pair

__all__ = [
    "CornerBlockReport",
    "FredholmReport",
    "is_corner_fredholm",
    "corner_index_result",
    "corner_index",
    "boundary_map_result",
    "boundary_map",
]


@dataclass(frozen=True)
class CornerBlockReport:
    """Per-block witness of the quotient-side invertibility check."""

    block: int
    domain_rank: int
    codomain_rank: int
    smallest_singular_value: float

    @property
    def invertible(self) -> bool:
        return self.domain_rank == self.codomain_rank


@dataclass(frozen=True)
class FredholmReport:
    """Outcome of a corner Fredholm check with its quantitative gap."""

    fredholm: bool
    min_gap: float
    blocks: tuple[CornerBlockReport, ...]

    def __bool__(self) -> bool:
        return self.fredholm


def _corner(s: BlockOperator, p: BlockOperator, q: BlockOperator, alg: VnAlgebra, tol: Tolerances):
    """The Fredholm report of S in q N p and the projections onto ker S ∧ p
    and ker S* ∧ q, from one SVD ``u sv z*`` of the corner ``B_q* S B_p``
    per stack and group of blocks with the same range masks (``B_p``, ``B_q``
    the eigenvectors of p, q above 1/2).  A gap is the ``min(r_p, r_q)``-th
    singular value, infinite when both ranks are 0 and 0 when one is.  As
    ``S B_p = B_q (B_q* S B_p)`` on ran p, the kernels are spanned by
    ``B_p z`` and ``B_q u`` past the ``rho`` singular values above the kernel
    cut, built as in ``_from_svd``; that cut needs a finite norm of S, which
    the caller checks before it reads them."""
    alg.require_conformal(s)
    defect = s - q @ s @ p
    # a Frobenius screen as in BlockOperator._check passes without the spectral norm
    if not (tol.proj >= 1e-140 and defect._norm_bound() <= 0.5 * tol.proj):
        value = defect.norm()
        bound = _norm_eps(tol.proj_eps, tol.proj, (s,), value, report=True)
        check_residual("corner operator S must equal qSp", value, bound)
    eig_p = list(p._eig())
    per_stack, kernels = [], [([], []), ([], [])]
    for st, (wp, vp), (wq, vq) in zip(s._stacks, eig_p, eig_p if q is p else q._eig()):
        (k, n), masks = wp.shape, np.concatenate([wp > 0.5, wq > 0.5], axis=-1)
        gaps, rho = np.empty(k), np.empty((k, 1), int)
        right, left = np.zeros_like(st), np.zeros_like(st)
        for rows, keep in _mask_groups(masks):
            bp, bq = vp[rows][..., keep[:n]], vq[rows][..., keep[n:]]
            u, sv, zh = _svd(bq.conj().mT @ st[rows] @ bp)
            gaps[rows] = sv[:, -1] if sv.shape[-1] else (math.inf if bp.size == bq.size else 0.0)
            eps = _norm_eps(tol.kernel_eps, tol.kernel, (s,), sv)
            rho[rows] = np.count_nonzero(sv > eps, axis=-1)[:, None]
            right[rows, :, : bp.shape[-1]] = bp @ zh.conj().mT
            left[rows, :, : bq.shape[-1]] = bq @ u
        rp, rq = np.count_nonzero(masks[:, :n], axis=-1), np.count_nonzero(masks[:, n:], axis=-1)
        per_stack.append(zip(rp.tolist(), rq.tolist(), gaps.tolist()))
        for (stacks, ranks), vecs, r in zip(kernels, (right, left), (rp, rq)):
            null = (np.arange(n) >= rho) & (np.arange(n) < r[:, None])
            stacks.append(_projector(null, lambda rows, keep: _gram(vecs[rows][..., keep])))
            ranks.append(np.count_nonzero(null, axis=-1))
    blocks = s._in_block_order(per_stack)
    reports = tuple(CornerBlockReport(i, *blocks[i]) for i in alg.nonideal_indices)
    fredholm = all(r.invertible and r.smallest_singular_value > tol.gap for r in reports)
    min_gap = min((r.smallest_singular_value for r in reports), default=math.inf)
    kernels = [s._like(s.dims, st, ranks=r) for st, r in kernels]
    return FredholmReport(fredholm, min_gap, reports), kernels


def is_corner_fredholm(
    s: BlockOperator,
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> FredholmReport:
    """Decide quotient invertibility of a corner operator, with a gap report.

    True when, on every non-ideal block, the corner restriction has equal
    domain and codomain ranks and its smallest singular value exceeds the gap
    tolerance.  Vacuously true (infinite gap) when everything is ideal.
    """
    return _corner(s, p, q, alg, tol)[0]


def corner_index_result(
    s: BlockOperator,
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[CheckedClass, FredholmReport]:
    """The index of a corner Fredholm operator as a K-class of the ideal.

    The class is [kernel(S) meet range(p)] - [kernel(S*) meet range(q)], read
    off the SVDs that give the Fredholm gaps; both intersections are verified
    to be supported in the ideal blocks and are the result's ``kernel`` and
    ``cokernel``.  The Fredholm report that licensed the class comes with it.
    """
    report, (ker_dom, ker_cod) = _corner(s, p, q, alg, tol)
    if not report.fredholm:
        raise PreconditionError(
            f"operator is not corner Fredholm (min gap {report.min_gap:.3e})"
        )
    _require_finite(s)
    p.require_projection("corner domain p", tol)
    q.require_projection("corner codomain q", tol)
    for what, ker in (("kernel", ker_dom), ("cokernel", ker_cod)):
        check_support(
            f"{what} intersection off the ideal", ker, alg.nonideal_indices,
            lambda norms: _norm_eps(tol.proj_eps, tol.proj, (ker,), norms, report=True),
        )
    return CheckedClass.of(ker_dom, ker_cod, alg, tol), report


def corner_index(
    s: BlockOperator,
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> K0Class:
    """The class of ``corner_index_result``."""
    return corner_index_result(s, p, q, alg, tol)[0].k0


def boundary_map_result(
    s: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
    eps_gap: float | None = None,
) -> CheckedClass:
    """Connecting map applied to the class of a quotient unitary.

    For a lift whose quotient image is unitary, the image of the connecting
    map is [N(S)] - [N(S*)], and N(S) and N(S*) are the result's ``kernel``
    and ``cokernel``.  The quotient unitarity is a precondition, checked
    against ``eps_gap`` (defaults to the gap tolerance); its two residuals
    are returned as ``quotient_unitarity_left`` and ``quotient_unitarity_right``.
    """
    bound = tol.gap if eps_gap is None else eps_gap
    left, right = _quotient_unitarity(s, alg, bound, "the lift")  # checks s conformal first
    return CheckedClass.of(
        *kernel_pair(s, tol), alg, tol,
        quotient_unitarity_left=left, quotient_unitarity_right=right,
    )


def _quotient_unitarity(s: BlockOperator, alg: VnAlgebra, bound: float, name: str):
    """The checked quotient norms of S*S - 1 (left) and SS* - 1 (right), on the quotient."""
    s, one = _quotient(s, alg), _quotient(alg.identity(), alg)
    what = f"quotient image of {name} must be unitary"
    return (
        check_residual(f"{what} (left)", (s.H @ s - one).norm(), bound),
        check_residual(f"{what} (right)", (s @ s.H - one).norm(), bound),
    )


def boundary_map(
    s: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
    eps_gap: float | None = None,
) -> K0Class:
    """The class of ``boundary_map_result``."""
    return boundary_map_result(s, alg, tol, eps_gap).k0
