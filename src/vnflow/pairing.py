"""Odd index pairings realized through the boundary map.

The pairing of a unitary with the class of a projection-mod-ideal is computed
as the boundary class of the intermediate operator built from the
selfadjoint logarithm of u.  All mod-ideal identities along the way are
exposed as quantitative residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelError, NumericsError, PreconditionError
from .model import (
    DEFAULT_TOL,
    BlockOperator,
    CheckedClass,
    K0Class,
    Tolerances,
    VnAlgebra,
    _quotient,
    _unitary_eig,
    check_residual,
)
from .corner import _quotient_unitarity
from .projections import kernel_pair

__all__ = [
    "PairingData",
    "make_pairing_data",
    "unitary_log",
    "cos_identity_check",
    "intermediate_operator",
    "pairing_result",
    "pairing_via_boundary",
]

_LOG_TOL = 1e-10


def unitary_log(u: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Selfadjoint logarithm: q with u = exp(2 pi i q) and spectrum in [0, 1).

    The branch cut sits at argument zero, so the eigenvalue 1 maps to the
    q-eigenvalue 0, as do arguments just below zero that ``np.mod`` rounds up
    to 2 pi (q-eigenvalues >= 1 - 1e-12).  Built from u's eigenbasis, one
    Hermitian eigendecomposition of a Cayley transform per stack; q keeps that
    basis as its seed.
    """
    u.require_unitary("unitary_log argument", eps=_LOG_TOL)

    seed = []
    for st in u._stacks:
        lam, z = _unitary_eig(st)
        vals = np.mod(np.angle(lam), 2.0 * np.pi) / (2.0 * np.pi)
        vals[vals >= 1.0 - 1e-12] = 0.0
        seed.append((vals, z))
    q = u._like(u.dims, [(z * vals[:, None, :]) @ z.conj().mT for vals, z in seed], seed)
    _check_exp(q, u, "logarithm reconstruction error", NumericsError)
    return q


def _check_exp(q: BlockOperator, u: BlockOperator, what: str, error=PreconditionError) -> None:
    """Check the reconstruction error ||exp(2 pi i q) - u|| against ``_LOG_TOL``.
    As in ``BlockOperator._check``, a largest Frobenius norm (>= spectral) of at
    most half the bound passes without the spectral norm."""
    defect = q.apply(lambda w: np.exp(2j * np.pi * w)) - u
    if not defect._norm_bound() <= 0.5 * _LOG_TOL:
        check_residual(what, defect.norm(), _LOG_TOL, error)


def cos_identity_check(q: BlockOperator, alg: VnAlgebra, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of the quotient identity cos(pi q) = -(2q - 1).

    Valid whenever q is selfadjoint and idempotent modulo the ideal; the
    residual is bounded by a small multiple of the idempotency defect, so for
    a defect within the gap tolerance it stays below ten times that.
    """
    q.require_selfadjoint("cos identity argument", tol)
    qq = _quotient(q, alg)
    check_residual("q must be idempotent modulo the ideal", (qq @ qq - qq).norm(), tol.gap)
    cos_pq = _quotient(q.apply(lambda w: np.cos(np.pi * w)), alg)
    return (cos_pq + 2.0 * qq - _quotient(alg.identity(), alg)).norm()


@dataclass(frozen=True)
class PairingData:
    """Inputs of an odd pairing: p (projection mod ideal), unitary u, log q.

    ``psi`` is the block map carrying the unitary side into the algebra of
    the projection; the identity embedding when not supplied.  ``commutator``
    is the checked quotient norm of [p, psi(u)].
    """

    alg: VnAlgebra
    p: BlockOperator
    u: BlockOperator
    q: BlockOperator
    psi: Callable[[BlockOperator], BlockOperator]
    commutator: float


def make_pairing_data(
    alg: VnAlgebra,
    p: BlockOperator,
    u: BlockOperator,
    q: BlockOperator | None = None,
    psi: Callable[[BlockOperator], BlockOperator] | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> PairingData:
    """Validate pairing inputs.

    q defaults to the selfadjoint logarithm of u.  A user-supplied psi must be
    unital, adjoint-preserving and multiplicative (to 1e-10) on u and u*.
    """
    alg.require_conformal(p)
    alg.require_conformal(u)
    u.require_unitary("pairing unitary", tol)
    pq = _quotient(p, alg)
    idempotency = (pq @ pq - pq).norm()
    check_residual("p must be a projection modulo the ideal", idempotency, tol.gap)
    p.require_selfadjoint("p", tol)

    if q is None:
        q = unitary_log(u, tol)
    else:
        alg.require_conformal(q)
        q.require_selfadjoint("q", tol)
        check_residual("q must have norm at most 1", q.norm(), 1.0 + _LOG_TOL)
        _check_exp(q, u, "u must equal exp(2 pi i q)")

    if psi is None:
        psi_map: Callable[[BlockOperator], BlockOperator] = lambda op: op
    else:
        psi_map = psi
        one = alg.identity()
        if not psi_map(one).allclose(one, atol=_LOG_TOL):
            raise ModelError("psi must be unital")
        probes = (u, u.H)
        for x in probes:
            if not psi_map(x.H).allclose(psi_map(x).H, atol=_LOG_TOL):
                raise ModelError("psi must preserve adjoints on the test elements")
            for y in probes:
                if not psi_map(x @ y).allclose(
                    psi_map(x) @ psi_map(y), atol=_LOG_TOL
                ):
                    raise ModelError(
                        "psi must be multiplicative on the test elements"
                    )

    psi_u = _quotient(psi_map(u), alg)
    commutator = (pq @ psi_u - psi_u @ pq).norm()
    check_residual("[p, psi(u)] must be ideal-supported", commutator, tol.gap)
    return PairingData(alg=alg, p=p, u=u, q=q, psi=psi_map, commutator=commutator)


def intermediate_operator(
    data: PairingData, tol: Tolerances = DEFAULT_TOL
) -> BlockOperator:
    """The single corner entry representing the product cycle.

    W = -i psi(cos(pi q)) + psi(sin(pi q)) (2p - 1).  Its quotient image must
    be unitary; the residuals are checked against ten times the gap tolerance.
    """
    return _checked_intermediate(data, tol)[0]


def _checked_intermediate(
    data: PairingData, tol: Tolerances
) -> tuple[BlockOperator, float, float]:
    """The intermediate operator with its two checked unitarity residuals."""
    alg = data.alg
    one = alg.identity()
    cos_pq = data.q.apply(lambda w: np.cos(np.pi * w))
    sin_pq = data.q.apply(lambda w: np.sin(np.pi * w))
    w_op = (-1j) * data.psi(cos_pq) + data.psi(sin_pq) @ (2.0 * data.p - one)
    left, right = _quotient_unitarity(w_op, alg, 10.0 * tol.gap, "the intermediate operator")
    return w_op, left, right


def pairing_result(
    data: PairingData, tol: Tolerances = DEFAULT_TOL
) -> CheckedClass:
    """The odd pairing as the boundary class of the intermediate operator W.

    The residuals are the quotient unitarity of W, checked at ten times the
    gap tolerance, and [p, psi(u)]; ``kernel`` and ``cokernel`` are N(W) and
    N(W*).  W's quotient image reads p only modulo the ideal, so every p
    that ``make_pairing_data`` accepts, a projection modulo the ideal, gets
    a class, whatever p is on the ideal blocks.  The lift p psi(u) p + (1 - p)
    would need no further check: its quotient unitarity defect is a small
    multiple of the quotient norm of [p, psi(u)] plus p's idempotency
    defect, and ``make_pairing_data`` checks both at the gap tolerance.
    """
    w_op, left, right = _checked_intermediate(data, tol)
    return CheckedClass.of(
        *kernel_pair(w_op, tol), data.alg, tol,
        intermediate_unitarity_left=left,
        intermediate_unitarity_right=right,
        commutator_quotient=data.commutator,
    )


def pairing_via_boundary(
    data: PairingData, tol: Tolerances = DEFAULT_TOL
) -> K0Class:
    """The class of ``pairing_result``."""
    return pairing_result(data, tol).k0
