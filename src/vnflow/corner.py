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

from .errors import NotInIdealError, PreconditionError
from .model import (
    DEFAULT_TOL,
    BlockOperator,
    CheckedClass,
    K0Class,
    Tolerances,
    VnAlgebra,
    _max_norm,
    _spectral_norm,
    k0_of_difference,
    quotient_norm,
)
from .projections import null_projection, proj_intersection, range_basis

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
    return float(np.linalg.svd(corner, compute_uv=False)[-1])


def _require_in_corner(
    s: BlockOperator, p: BlockOperator, q: BlockOperator, tol: Tolerances
) -> None:
    compressed = q @ s @ p
    defect = _max_norm(a - b for a, b in zip(s.blocks, compressed.blocks))
    eps = tol.proj_eps(s.norm())
    if defect > eps:
        raise PreconditionError(
            f"operator does not live in the corner: ||S - qSp|| = {defect:.3e} > {eps:.3e}"
        )


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
    _require_in_corner(s, p, q, tol)
    p_bases = range_basis(p)
    q_bases = range_basis(q)
    reports = []
    fredholm = True
    min_gap = math.inf
    for i in alg.nonideal_indices:
        gap = _corner_gap(s.blocks[i], p_bases[i], q_bases[i])
        rep = CornerBlockReport(
            block=i,
            domain_rank=p_bases[i].shape[1],
            codomain_rank=q_bases[i].shape[1],
            smallest_singular_value=gap,
        )
        reports.append(rep)
        if not rep.invertible or gap <= tol.gap:
            fredholm = False
        min_gap = min(min_gap, gap)
    return FredholmReport(fredholm=fredholm, min_gap=min_gap, blocks=tuple(reports))


def _require_ideal_support(
    op: BlockOperator, alg: VnAlgebra, tol: Tolerances, what: str
) -> None:
    eps = tol.proj_eps(op.norm())
    for i in alg.nonideal_indices:
        n = _spectral_norm(op.blocks[i])
        if n > eps:
            raise NotInIdealError(
                f"class not in the ideal K-group: {what} has norm {n:.3e} "
                f"on non-ideal block {i}"
            )


def corner_index_result(
    s: BlockOperator,
    p: BlockOperator,
    q: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[CheckedClass, FredholmReport]:
    """The index of a corner Fredholm operator as a K-class of the ideal.

    The class is [kernel(S) meet range(p)] - [kernel(S*) meet range(q)]; both
    intersections are verified to be supported in the ideal blocks.  The
    Fredholm report that licensed the class is returned with it.
    """
    report = is_corner_fredholm(s, p, q, alg, tol)
    if not report.fredholm:
        raise PreconditionError(
            f"operator is not corner Fredholm (min gap {report.min_gap:.3e})"
        )
    ker_dom = proj_intersection(null_projection(s, tol), p, tol)
    ker_cod = proj_intersection(null_projection(s.H, tol), q, tol)
    _require_ideal_support(ker_dom, alg, tol, "kernel intersection")
    _require_ideal_support(ker_cod, alg, tol, "cokernel intersection")
    return CheckedClass(k0_of_difference(ker_dom, ker_cod, alg, tol), {}), report


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
    map is [kernel projection of S] - [kernel projection of S*].  The
    quotient unitarity is a precondition, checked against ``eps_gap``
    (defaults to the gap tolerance); its two residuals are returned as
    ``quotient_unitarity_left`` and ``quotient_unitarity_right``.
    """
    alg.require_conformal(s)
    eps = tol.gap if eps_gap is None else eps_gap
    one = alg.identity()
    left = quotient_norm(s.H @ s - one, alg)
    right = quotient_norm(s @ s.H - one, alg)
    if max(left, right) > eps:
        raise PreconditionError(
            f"quotient image is not unitary: residuals ({left:.3e}, {right:.3e}) "
            f"exceed {eps:.3e}"
        )
    return CheckedClass(
        _connecting_class(s, alg, tol),
        {"quotient_unitarity_left": left, "quotient_unitarity_right": right},
    )


def _connecting_class(s: BlockOperator, alg: VnAlgebra, tol: Tolerances) -> K0Class:
    """[N(S)] - [N(S*)] for a lift whose quotient unitarity has been checked."""
    return k0_of_difference(null_projection(s, tol), null_projection(s.H, tol), alg, tol)


def boundary_map(
    s: BlockOperator,
    alg: VnAlgebra,
    tol: Tolerances = DEFAULT_TOL,
    eps_gap: float | None = None,
) -> K0Class:
    """The class of ``boundary_map_result``."""
    return boundary_map_result(s, alg, tol, eps_gap).k0
