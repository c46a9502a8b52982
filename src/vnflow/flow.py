"""K-class valued spectral flow of paths of selfadjoint quotient-invertible operators.

The pipeline has three stages: certify that the whole path stays quotient
invertible (adaptive gap monitoring with a Weyl-type certificate on the
piecewise linear segments), find a partition on which consecutive quotient
spectral projections stay within distance 1/2, and evaluate the defining sum
of kernel-intersection classes.  The closed-form expression over the whole
partition is evaluated as well and must agree with the sum before anything is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConsistencyError, PartitionError, PathError
from .model import (
    DEFAULT_TOL,
    BlockOperator,
    K0Class,
    OperatorPath,
    Tolerances,
    VnAlgebra,
    _eigvalsh,
    k0_of_difference,
    quotient_norm,
    tau_star,
)
from .projections import chi, null_projection, proj_intersection

__all__ = [
    "PathCertificate",
    "FlowStep",
    "FlowResult",
    "certify_path",
    "find_partition",
    "spectral_flow",
    "spectral_flow_result",
    "numeric_spectral_flow",
]

_CERTIFY_MAX_DEPTH = 48
_PARTITION_GRID_DEPTH = 3


@dataclass(frozen=True)
class PathCertificate:
    """Witness that a path stays quotient invertible.

    ``min_gap`` is the smallest quotient spectral gap seen at any sample and
    ``lipschitz`` the largest quotient difference quotient over the keyframe
    segments.  A vacuous certificate means the quotient is zero.
    """

    vacuous: bool
    min_gap: float
    lipschitz: float
    samples: tuple[float, ...]


@dataclass(frozen=True)
class FlowStep:
    """One partition step with its gap witness and K-class contribution."""

    t_start: float
    t_end: float
    gap_end: float
    contribution: K0Class


@dataclass(frozen=True)
class FlowResult:
    """Spectral flow of a certified path together with its partition trace."""

    k0: K0Class
    partition: tuple[float, ...]
    steps: tuple[FlowStep, ...]
    closed_form: K0Class
    certificate: PathCertificate


def _quotient_gap(op: BlockOperator, alg: VnAlgebra) -> float:
    """Distance of the quotient spectrum to zero (inf when the quotient is zero)."""
    gap = math.inf
    for i in alg.nonideal_indices:
        w = _eigvalsh(op.blocks[i])
        if w.size:
            gap = min(gap, float(np.min(np.abs(w))))
    return gap


def certify_path(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> PathCertificate:
    """Certify that every point of the path is quotient invertible.

    The keyframes must be selfadjoint.  Each linear segment is certified by
    bisection: a segment passes once the endpoint gaps dominate half the
    quotient movement across it, which bounds every interior eigenvalue away
    from zero.  A sample whose quotient gap falls to the gap tolerance is a
    hard failure.
    """
    alg.require_conformal(path.keyframes[0][1])
    for t, op in path.keyframes:
        op.require_selfadjoint(f"keyframe at t = {t:g}", tol)
    if alg.all_ideal:
        return PathCertificate(
            vacuous=True, min_gap=math.inf, lipschitz=0.0, samples=path.times
        )

    samples: dict[float, float] = {}

    def gap_at(t: float) -> float:
        if t not in samples:
            g = _quotient_gap(path.at(t), alg)
            if g <= tol.gap:
                raise PathError(
                    f"path leaves the selfadjoint Fredholm operators at t = {t:.12g} "
                    f"(quotient spectral gap {g:.3e} <= {tol.gap:.3e})"
                )
            samples[t] = g
        return samples[t]

    def certify_segment(a: float, b: float, depth: int) -> None:
        ga, gb = gap_at(a), gap_at(b)
        delta = quotient_norm(path.at(b) - path.at(a), alg)
        if (ga + gb - delta) / 2.0 > tol.gap:
            return
        if depth >= _CERTIFY_MAX_DEPTH:
            raise PathError(
                f"cannot certify quotient invertibility on [{a:.12g}, {b:.12g}]"
            )
        mid = 0.5 * (a + b)
        gap_at(mid)
        certify_segment(a, mid, depth + 1)
        certify_segment(mid, b, depth + 1)

    lipschitz = 0.0
    times = path.times
    for t0, t1 in zip(times, times[1:]):
        delta = quotient_norm(path.at(t1) - path.at(t0), alg)
        lipschitz = max(lipschitz, delta / (t1 - t0))
        certify_segment(t0, t1, 0)

    return PathCertificate(
        vacuous=False,
        min_gap=min(samples.values()),
        lipschitz=lipschitz,
        samples=tuple(sorted(samples)),
    )


def find_partition(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> list[float]:
    """Partition of [0, 1] keeping quotient spectral projections within 1/2.

    Assumes the path has been certified.  A subinterval is accepted when all
    pairwise quotient projection distances over its dyadic interior grid stay
    below 1/2 minus the safety margin; otherwise it is bisected, up to the
    configured depth.
    """
    if alg.all_ideal:
        return [0.0, 1.0]

    chi_cache: dict[float, BlockOperator] = {}

    def chi_at(t: float) -> BlockOperator:
        if t not in chi_cache:
            chi_cache[t] = chi(path.at(t), tol)
        return chi_cache[t]

    bound = 0.5 - tol.margin
    n_grid = 2 ** _PARTITION_GRID_DEPTH

    def accepted(a: float, b: float) -> bool:
        pts = [a + (b - a) * k / n_grid for k in range(n_grid + 1)]
        projs = [chi_at(t) for t in pts]
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if quotient_norm(projs[i] - projs[j], alg) >= bound:
                    return False
        return True

    cuts: list[float] = [0.0, 1.0]

    def split(a: float, b: float, depth: int) -> None:
        if accepted(a, b):
            return
        if depth >= tol.max_depth:
            raise PartitionError(
                f"cannot certify partition on [{a:.12g}, {b:.12g}] "
                f"within depth {tol.max_depth}"
            )
        mid = 0.5 * (a + b)
        cuts.append(mid)
        split(a, mid, depth + 1)
        split(mid, b, depth + 1)

    split(0.0, 1.0, 0)
    return sorted(cuts)


def _flow_over_partition(
    path: OperatorPath,
    alg: VnAlgebra,
    partition: list[float],
    tol: Tolerances,
) -> tuple[K0Class, list[FlowStep], K0Class]:
    """Evaluate the defining sum and the closed form over a given partition."""
    one = alg.identity()
    projections = [chi(path.at(t), tol) for t in partition]
    total = K0Class.zero(alg.n_ideal)
    steps: list[FlowStep] = []
    for i in range(1, len(projections)):
        prev, cur = projections[i - 1], projections[i]
        leaving = proj_intersection(one - cur, prev, tol)
        entering = proj_intersection(one - prev, cur, tol)
        contribution = k0_of_difference(leaving, entering, alg, tol)
        steps.append(
            FlowStep(
                t_start=partition[i - 1],
                t_end=partition[i],
                gap_end=_quotient_gap(path.at(partition[i]), alg),
                contribution=contribution,
            )
        )
        total = total + contribution

    product = reduce(lambda acc, p: p @ acc, projections[1:], projections[0])
    ker = proj_intersection(null_projection(product, tol), projections[0], tol)
    coker = proj_intersection(null_projection(product.H, tol), projections[-1], tol)
    closed = k0_of_difference(ker, coker, alg, tol)
    return total, steps, closed


def spectral_flow_result(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> FlowResult:
    """Certify, partition and evaluate the spectral flow, with full trace.

    The partition sum and the closed-form corner index over the whole
    partition are both computed; disagreement is an internal error.
    """
    certificate = certify_path(path, alg, tol)
    partition = find_partition(path, alg, tol)
    total, steps, closed = _flow_over_partition(path, alg, partition, tol)
    if total != closed:
        raise ConsistencyError(
            f"partition sum {total.ranks} disagrees with the closed form {closed.ranks}"
        )
    return FlowResult(
        k0=total,
        partition=tuple(partition),
        steps=tuple(steps),
        closed_form=closed,
        certificate=certificate,
    )


def spectral_flow(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> K0Class:
    """Spectral flow of a certified path as a K-class of the ideal."""
    return spectral_flow_result(path, alg, tol).k0


def numeric_spectral_flow(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> float:
    """The weighted-trace value of the spectral flow."""
    return tau_star(spectral_flow(path, alg, tol), alg)
