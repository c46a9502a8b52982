"""Skew-corner Fredholm theory and the K-theory boundary map.

An operator living in a corner q N p is Fredholm when its image in the
quotient is invertible as a corner element.  On the block model that becomes
a concrete check: on every non-ideal block the restriction mapping the range
of p into the range of q must be a square matrix with a singular value gap.
The index is the formal difference of the kernel intersections, a class over
the ideal blocks.
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
    _norm_eps,
    _quotient,
    _svd,
    check_residual,
    check_support,
    quotient_norm,
)
from .projections import kernel_pair, proj_intersection, range_basis

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


def _corner_gap(
    s_block: np.ndarray, p_basis: np.ndarray, q_basis: np.ndarray
) -> float:
    """Smallest singular value of the restriction range(p) -> range(q)."""
    if p_basis.shape[1] == 0 and q_basis.shape[1] == 0:
        return math.inf
    corner = q_basis.conj().T @ s_block @ p_basis
    if corner.size == 0:
        return 0.0
    return float(_svd(corner, compute_uv=False)[-1])


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
    alg.require_conformal(s)
    defect = s - q @ s @ p
    # a Frobenius screen as in BlockOperator._check passes without the spectral norm
    if not (tol.proj >= 1e-140 and defect._norm_bound() <= 0.5 * tol.proj):
        value = defect.norm()
        bound = _norm_eps(tol.proj_eps, tol.proj, (s,), value, report=True)
        check_residual("corner operator S must equal qSp", value, bound)
    p_bases, q_bases = (range_basis(_quotient(x, alg)) for x in (p, q))
    reports = tuple(
        CornerBlockReport(i, pb.shape[1], qb.shape[1], _corner_gap(s.blocks[i], pb, qb))
        for i, pb, qb in zip(alg.nonideal_indices, p_bases, q_bases)
    )
    fredholm = all(r.invertible and r.smallest_singular_value > tol.gap for r in reports)
    min_gap = min((r.smallest_singular_value for r in reports), default=math.inf)
    return FredholmReport(fredholm, min_gap, reports)


def corner_index_result(
    s: BlockOperator,
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[CheckedClass, FredholmReport]:
    """The index of a corner Fredholm operator as a K-class of the ideal.

    The class is [kernel(S) meet range(p)] - [kernel(S*) meet range(q)]; both
    intersections are verified to be supported in the ideal blocks and are
    the result's ``kernel`` and ``cokernel``.  The Fredholm report that
    licensed the class is returned with it.
    """
    report = is_corner_fredholm(s, p, q, alg, tol)
    if not report.fredholm:
        raise PreconditionError(
            f"operator is not corner Fredholm (min gap {report.min_gap:.3e})"
        )
    ker_dom, ker_cod = (proj_intersection(k, x, tol) for k, x in zip(kernel_pair(s, tol), (p, q)))
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
    alg.require_conformal(s)
    bound = tol.gap if eps_gap is None else eps_gap
    left, right = _quotient_unitarity(s, alg, bound, "the lift")
    return CheckedClass.of(
        *kernel_pair(s, tol), alg, tol,
        quotient_unitarity_left=left, quotient_unitarity_right=right,
    )


def _quotient_unitarity(s: BlockOperator, alg: VnAlgebra, bound: float, name: str):
    """The checked quotient norms of S*S - 1 (left) and SS* - 1 (right), on the quotient."""
    s, one = _quotient(s, alg), _quotient(alg.identity(), alg)
    what = f"quotient image of {name} must be unitary"
    return (
        check_residual(f"{what} (left)", quotient_norm(s.H @ s - one, alg), bound),
        check_residual(f"{what} (right)", quotient_norm(s @ s.H - one, alg), bound),
    )


def boundary_map(
    s: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
    eps_gap: float | None = None,
) -> K0Class:
    """The class of ``boundary_map_result``."""
    return boundary_map_result(s, alg, tol, eps_gap).k0
