"""Reproducible model generators and the eigenvalue-crossing oracle.

The generators build seeded test models: a truncated circle Dirac triple with
a winding unitary, and random paths with a prescribed schedule of transversal
zero crossings.  The oracle counts signed crossings by tracking eigenvalue
curves directly, independently of the partition machinery, and is the
calibration reference for the numerical flow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ModelError, PreconditionError
from .model import (
    DEFAULT_TOL,
    Block,
    BlockOperator,
    OperatorPath,
    Tolerances,
    VnAlgebra,
)
from .triples import VnTriple, make_triple

__all__ = [
    "CROSSING_SIGN",
    "dirac_circle",
    "random_crossing_path",
    "crossing_oracle",
    "weighted_model",
]

# Sign convention of the oracle, frozen once against the two-dimensional
# reference path diag(1, t - 1/2): one upward transversal crossing there must
# reproduce the flow value -1 of the defining formula.
CROSSING_SIGN = -1


def weighted_model(
    dims: Sequence[int],
    weights: Sequence[float],
    ideal_mask: Sequence[bool] | None = None,
) -> VnAlgebra:
    """Assemble a block model from parallel lists of dims, weights and flags."""
    if ideal_mask is None:
        ideal_mask = [True] * len(dims)
    if not (len(dims) == len(weights) == len(ideal_mask)):
        raise ModelError(
            f"inconsistent lengths: {len(dims)} dims, {len(weights)} weights, "
            f"{len(ideal_mask)} ideal flags"
        )
    return VnAlgebra(
        Block(dim=d, weight=w, in_ideal=bool(m))
        for d, w, m in zip(dims, weights, ideal_mask)
    )


def dirac_circle(
    m: int, k: int, tol: Tolerances = DEFAULT_TOL
) -> tuple[VnTriple, BlockOperator]:
    """Truncated circle Dirac model with a winding unitary.

    One ideal block of dimension 2m + 1 with basis indexed -m..m, the
    position-frequency operator D = diag(j), and the k-step cyclic shift as
    the unitary.  Returns the triple (generators 1, u, u*) and the unitary.
    """
    if m < 2:
        raise PreconditionError(f"window radius must be >= 2, got {m}")
    if abs(k) > m - 1:
        raise PreconditionError(
            f"winding {k} too large for window radius {m} (need |k| <= m - 1)"
        )
    dim = 2 * m + 1
    alg = weighted_model([dim], [1.0])
    d = BlockOperator([np.diag(np.arange(-m, m + 1, dtype=float).astype(complex))])
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + k) % dim, j] = 1.0
    u = BlockOperator([shift])
    triple = make_triple(
        alg, {"1": alg.identity(), "u": u, "u*": u.H}, d, tol
    )
    return triple, u


def random_crossing_path(
    n: int,
    crossings: Sequence[int],
    seed: int,
    n_keyframes: int = 65,
) -> OperatorPath:
    """A seeded path on one ideal block with a prescribed crossing schedule.

    Each entry of ``crossings`` is +1 (an eigenvalue moving upward through
    zero) or -1 (downward).  Crossing times are separated, interior, and the
    remaining eigenvalue levels stay away from zero.  The eigenbasis rotates
    smoothly along the path, so the crossings are not axis-aligned.
    """
    signs = [int(c) for c in crossings]
    if any(s not in (-1, 1) for s in signs):
        raise PreconditionError("crossings must be +1 or -1")
    if n < len(signs) + 1:
        raise PreconditionError(
            f"infeasible crossing schedule: dimension {n} supports at most "
            f"{n - 1} crossings"
        )
    rng = np.random.default_rng(seed)

    count = len(signs)
    base = np.array([(i + 1.0) / (count + 1.0) for i in range(count)])
    jitter = (rng.uniform(-0.25, 0.25, size=count)) / (count + 1.0)
    times = np.clip(base + jitter, 0.08, 0.92)
    slopes = rng.uniform(1.5, 3.0, size=count)

    n_levels = n - count
    levels = rng.uniform(0.5, 2.0, size=n_levels) * rng.choice(
        [-1.0, 1.0], size=n_levels
    )

    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    generator = 0.5 * (g - g.conj().T)
    generator *= rng.uniform(0.5, 1.5) / max(np.linalg.norm(generator, 2), 1e-12)
    hw, hv = np.linalg.eigh(1j * generator)

    def rotation(t: float) -> np.ndarray:
        return (hv * np.exp(-1j * t * hw)) @ hv.conj().T

    def frame(t: float) -> BlockOperator:
        diag = np.concatenate(
            [
                np.array([s * a * (t - tc) for s, a, tc in zip(signs, slopes, times)]),
                levels,
            ]
        )
        v = rotation(t)
        mat = (v * diag) @ v.conj().T
        return BlockOperator([0.5 * (mat + mat.conj().T)])

    grid = np.linspace(0.0, 1.0, n_keyframes)
    return OperatorPath.from_function(frame, grid)


def crossing_oracle(
    path: OperatorPath,
    samples: int = 2000,
    alg: VnAlgebra | None = None,
    collision_eps: float = 1e-9,
) -> int:
    """Count signed transversal zero crossings along a path of eigenvalues.

    Sorted eigenvalue curves are sampled densely and sign changes accumulated
    per curve, with zero counted on the nonnegative side.  The net count is
    returned under the frozen sign convention.  Endpoints must be invertible,
    and two eigenvalues of one block meeting inside the ambiguity window
    around zero abort the count.
    """
    if samples < 1000:
        raise PreconditionError(f"need at least 1000 samples, got {samples}")
    if alg is not None and not alg.all_ideal:
        raise PreconditionError("the crossing oracle applies to all-ideal models")

    grid = np.linspace(0.0, 1.0, samples)
    spectra = []
    for t in grid:
        op = path.at(t)
        spectra.append(
            [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in op.blocks]
        )

    for label, idx in (("start", 0), ("end", -1)):
        smallest = min(float(np.min(np.abs(w))) for w in spectra[idx])
        if smallest < collision_eps:
            raise PreconditionError(
                f"zero eigenvalue at the path {label}point (|lambda| = {smallest:.3e})"
            )

    for t, spec in zip(grid, spectra):
        for w in spec:
            near = np.abs(w) < collision_eps
            if np.count_nonzero(near) >= 2:
                raise PreconditionError(
                    f"ambiguous eigenvalue matching at t = {t:.6g}: "
                    "increase samples"
                )

    net = 0
    for prev, cur in zip(spectra, spectra[1:]):
        for w_prev, w_cur in zip(prev, cur):
            prev_nonneg = w_prev >= 0.0
            cur_nonneg = w_cur >= 0.0
            net += int(np.count_nonzero(~prev_nonneg & cur_nonneg))
            net -= int(np.count_nonzero(prev_nonneg & ~cur_nonneg))
    return CROSSING_SIGN * net
