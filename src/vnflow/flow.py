"""K-class valued spectral flow of paths of selfadjoint quotient-invertible operators.

The pipeline has three stages: certify that the whole path stays quotient
invertible (adaptive gap monitoring with a Weyl-type certificate on the
piecewise linear segments), partition it from that certificate so that the
quotient spectral projections provably stay within distance 1/2 on every
interval, and evaluate the defining sum of the relative indices
[P ∧ (1 - Q)] - [(1 - P) ∧ Q] of the projections at each step's ends.  On an
ideal block a step's index is the difference of chi's counts at its ends.
Off the ideal the certificate settles it: Weyl's inequality keeps chi's rank
fixed along the path, and the partition keeps ||P - Q|| < 1 on every step, so
neither range meets the other's complement (Kato, Perturbation Theory for
Linear Operators, I §4.6) and the index is 0 there.  No projection is formed.

Each stage takes one kernel call per block size over all its points, not one
per point: certify one ``eigvalsh`` per non-ideal stack over all keyframes
(and one per bisection midpoint), one spectral norm per non-ideal stack over
all keyframe segments (and one per half of a bisected segment) and one
Frobenius norm per stack over all keyframes; evaluate one ``eigvalsh`` per
ideal stack over all partition points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import PartitionError, PathError
from .model import DEFAULT_TOL, K0Class, OperatorPath, Tolerances, VnAlgebra, tau_star
from .model import _chi_counts, _eigvalsh, _fill_norm_bounds, _norm_eps, _quotient
from .model import _spectral_norm, _stacked

__all__ = [
    "PathCertificate", "FlowStep", "FlowResult", "certify_path", "find_partition",
    "spectral_flow", "spectral_flow_result", "numeric_spectral_flow",
]

_CERTIFY_MAX_DEPTH = 48


class _Spectra(dict):
    """Memo t -> (gap, sides) of the spectrum along a path of quotient images:
    the smallest eigenvalue modulus, and per block (columns) the smallest
    nonnegative eigenvalue, the smallest modulus of a negative one (inf for an
    empty side) and the number of negative eigenvalues (rows).

    Every keyframe time is filled at once, from one ``eigvalsh`` per stack over
    all keyframes; a time read later (a midpoint that certify or the partition
    bisects at) is filled alone by the same body, one ``eigvalsh`` per stack.

    Splitting at 0 is chi's split wherever the path is certified: there every
    quotient eigenvalue is farther from 0 than chi's zero threshold."""

    def __init__(self, path: OperatorPath) -> None:
        super().__init__()
        self.path = path
        self._fill(path.times, [op for _, op in path.keyframes])

    def __missing__(self, t: float) -> tuple[float, np.ndarray]:
        self._fill((t,), (self.path.at(t),))
        return self[t]

    def _fill(self, times: Sequence[float], ops: Sequence) -> None:
        dims = self.path.dims
        sides = np.empty((len(times), 3, len(dims)))
        gap = np.full(len(times), np.inf)
        for pos, st in _stacked(ops, tuple(range(len(dims)))):
            w = _eigvalsh(st)
            neg = w < 0.0
            sides[:, 0, pos] = np.minimum.reduce(np.where(neg, np.inf, w), axis=-1)
            sides[:, 1, pos] = np.minimum.reduce(np.where(neg, -w, np.inf), axis=-1)
            sides[:, 2, pos] = np.add.reduce(neg, axis=-1)
            gap = np.minimum(gap, np.minimum.reduce(np.abs(w), axis=(1, 2)))
        self.update(zip(times, zip(gap.tolist(), sides)))


@dataclass(frozen=True)
class PathCertificate:
    """Witness that a path stays quotient invertible.

    ``min_gap`` is the smallest quotient spectral gap seen at any sample and
    ``lipschitz`` the largest quotient difference quotient over the keyframe
    segments.  A vacuous certificate means the quotient is zero.  ``segments``
    are the accepted segments ``(a, b, move)`` in order, ``move`` the norm of
    the change per non-ideal block; ``spectra`` memoizes the quotient spectrum
    at the samples and at the times ``find_partition`` bisects at.
    """

    vacuous: bool
    min_gap: float
    lipschitz: float
    samples: tuple[float, ...]
    segments: tuple = field(default=(), repr=False, compare=False)
    spectra: Mapping = field(default_factory=dict, repr=False, compare=False)


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
    certificate: PathCertificate


def certify_path(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> PathCertificate:
    """Certify that every point of the path is quotient invertible.

    The keyframes must be selfadjoint.  Each linear segment is certified by
    bisection: a segment passes once the endpoint gaps dominate half the
    quotient movement across it, which bounds every interior eigenvalue away
    from zero.  A sample whose quotient gap falls to the floor is a hard
    failure.  The floor is the gap tolerance or, if larger, chi's zero
    threshold at the largest keyframe norm, so that chi splits every
    certified quotient spectrum at 0.  The keyframe checks and the floor read
    the keyframes; the gaps and movements read the path of their quotient
    images, whose points are bitwise the images of the path's points.
    """
    alg.require_conformal(path.keyframes[0][1])
    for t, op in path.keyframes:
        op.require_selfadjoint(f"keyframe at t = {t:g}", tol)
    if alg.all_ideal:
        return PathCertificate(vacuous=True, min_gap=math.inf, lipschitz=0.0, samples=path.times)

    keyframes = [op for _, op in path.keyframes]
    images = OperatorPath([(t, _quotient(op, alg)) for t, op in path.keyframes])
    spectra = _Spectra(images)
    segments: list[tuple[float, float, np.ndarray]] = []
    _fill_norm_bounds(keyframes)
    floor = _norm_eps(lambda n: max(tol.gap, tol.kernel_eps(n)), tol.gap, keyframes)
    blocks = tuple(range(len(images.dims)))
    moves = np.empty((len(keyframes) - 1, len(blocks)))
    for pos, st in _stacked([op for _, op in images.keyframes], blocks):
        moves[:, pos] = _spectral_norm(np.diff(st, axis=0))

    def gap_at(t: float) -> float:
        g = spectra[t][0]
        if g <= floor:
            raise PathError(
                f"path leaves the selfadjoint Fredholm operators at t = {t:.12g} "
                f"(quotient spectral gap {g:.3e} <= {floor:.3e})",
                t=t, gap=g, bound=floor,
            )
        return g

    def movement(a: float, b: float) -> np.ndarray:
        return (images.at(b) - images.at(a))._block_norms(blocks)

    def certify_segment(a: float, b: float, move: np.ndarray, depth: int) -> None:
        if (gap_at(a) + gap_at(b) - move.max()) / 2.0 > floor:
            segments.append((a, b, move))
            return
        if depth >= _CERTIFY_MAX_DEPTH:
            raise PathError(f"cannot certify quotient invertibility on [{a:.12g}, {b:.12g}]")
        mid = 0.5 * (a + b)
        gap_at(mid)
        certify_segment(a, mid, movement(a, mid), depth + 1)
        certify_segment(mid, b, movement(mid, b), depth + 1)

    lipschitz = 0.0
    times = path.times
    for t0, t1, move in zip(times, times[1:], moves):
        lipschitz = max(lipschitz, float(move.max()) / (t1 - t0))
        certify_segment(t0, t1, move, 0)

    min_gap = min(gap for gap, _ in spectra.values())
    return PathCertificate(
        False, min_gap, lipschitz, tuple(sorted(spectra)), tuple(segments), spectra
    )


def find_partition(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL,
    certificate: PathCertificate | None = None,
) -> list[float]:
    """Partition of [0, 1] on whose intervals the quotient spectral
    projections stay within 1/2 minus the safety margin of each other.

    Built from the path's certificate (certified here when none is given).
    Consecutive segments merge while, on every non-ideal block, their summed
    movement M stays below ``(1/2 - margin) (f+ + f-)``, f+ and f- being the
    smallest Weyl floors ``(g_a + g_b - move) / 2`` of the two one-sided gaps
    over the run.  The Davis-Kahan sin theta theorem then gives ``||chi(A) -
    chi(B)|| <= M / (f+ + f-)`` for any two points of the run.  A segment that
    fails alone is bisected, down to length ``2**-max_depth``.
    """
    if certificate is None:
        certificate = certify_path(path, alg, tol)
    if certificate.vacuous:
        return [0.0, 1.0]
    bound = 0.5 - tol.margin
    spectra = certificate.spectra
    cuts, moved, low = [0.0], 0.0, np.inf
    pending = list(reversed(certificate.segments))
    while pending:
        a, b, move = pending.pop()
        sa, sb = spectra[a][1], spectra[b][1]
        # the floors bound the same eigenvalues only when both ends split alike
        floors = np.where(sa[2] == sb[2], (sa[:2] + sb[:2] - move) / 2.0, -np.inf)
        if np.all(move < bound * floors.sum(axis=0)):
            moved, low = moved + move, np.minimum(low, floors)
            if not np.all(moved < bound * low.sum(axis=0)):
                cuts.append(a)
                moved, low = move, floors
        elif b - a > math.ldexp(1.0, -tol.max_depth):
            mid = 0.5 * (a + b)
            pending += [(mid, b, move / 2.0), (a, mid, move / 2.0)]
        else:
            raise PartitionError(
                f"cannot certify partition on [{a:.12g}, {b:.12g}] within depth {tol.max_depth}"
            )
    return cuts + [1.0]


def _flow_over_partition(
    path: OperatorPath, alg: VnAlgebra, partition: list[float], tol: Tolerances
) -> list[K0Class]:
    """The terms of the defining sum: per step, ``r_P - r_Q`` from chi's counts
    on the ideal blocks at its ends, whatever the angles between the ranges,
    the counts of all points taken together.  Off the ideal the terms are 0
    on a partition ``find_partition`` made."""
    counts = _chi_counts([path.at(t) for t in partition], alg, tol)
    return [K0Class(step) for step in counts[:-1] - counts[1:]]


def spectral_flow_result(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> FlowResult:
    """Certify, partition and evaluate the spectral flow, with full trace: the
    class is the sum of the steps' classes."""
    certificate = certify_path(path, alg, tol)
    partition = find_partition(path, alg, tol, certificate)
    contributions = _flow_over_partition(path, alg, partition, tol)
    spectra = certificate.spectra
    steps = tuple(
        FlowStep(a, b, spectra[b][0] if spectra else math.inf, c)
        for a, b, c in zip(partition, partition[1:], contributions)
    )
    total = sum((step.contribution for step in steps), K0Class.zero(alg.n_ideal))
    return FlowResult(total, tuple(partition), steps, certificate)


def spectral_flow(path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL) -> K0Class:
    """Spectral flow of a certified path as a K-class of the ideal."""
    return spectral_flow_result(path, alg, tol).k0


def numeric_spectral_flow(
    path: OperatorPath, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL
) -> float:
    """The weighted-trace value of the spectral flow."""
    return tau_star(spectral_flow(path, alg, tol), alg)
