"""Spectral triples on the block model.

A triple bundles a named generating family (containing the unit), a
selfadjoint operator D, and the ambient algebra with its ideal mask.  The
bounded transform D(1 + D^2)^(-1/2) and the two associated projections are
derived at construction time, together with machine-checkable versions of the
module hypotheses: bounded commutators (measured on first read) and
ideal-supported resolvents (enforced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ModelError, NumericsError, PreconditionError
from .model import (
    DEFAULT_TOL,
    BlockOperator,
    CheckedClass,
    K0Class,
    OperatorPath,
    Tolerances,
    VnAlgebra,
    _frobenius,
    _frozen,
    _largest,
    _max_norm,
    _norm_eps,
    _quotient,
    block_ranks,
    check_residual,
    check_support,
)
from .flow import certify_path
from .projections import chi, relative_kernels
from .corner import boundary_map_result

__all__ = [
    "VnTriple",
    "make_triple",
    "bounded_transform",
    "KasparovReport",
    "check_kasparov_module",
    "IntegralCheck",
    "resolvent_integral_check",
    "sf_unitary_result",
    "sf_unitary",
    "sf_unbounded_result",
    "sf_unbounded",
    "pushforward_sf",
]

_INTEGRAL_TARGET = 1e-8  # resolvent-integral quadrature budget at direct norms up to 10
_LEVEL_VALUES = 2**20  # integrand values one level of that quadrature may evaluate


def bounded_transform(d: BlockOperator, tol: Tolerances = DEFAULT_TOL) -> BlockOperator:
    """Map a selfadjoint operator into the open unit ball, preserving sign data.

    Eigendecompose blockwise and apply x -> x / sqrt(1 + x^2).
    """
    d.require_selfadjoint("bounded transform argument", tol)
    return d.apply(lambda w: w / np.sqrt(1.0 + w * w))


@dataclass(frozen=True)
class VnTriple:
    """A spectral triple over a block model.

    ``D`` carries the eigenbasis ``make_triple`` took once; ``F`` is its bounded
    transform and ``p`` the nonnegative spectral projection of F.
    ``resolvent_residuals`` records the non-ideal support of a (i - D)^(-1),
    verified negligible; ``commutator_norms``, ||[D, a]|| per generator, is
    computed on first read.  ``_quadratures`` memoizes the scalar integrals of
    ``resolvent_integral_check``, which depend only on D's squares and the
    quadrature's ``(theta_max, eps_rate)``; it lives with the triple, so a
    fresh triple computes its own.
    """

    alg: VnAlgebra
    generators: Mapping[str, BlockOperator]
    D: BlockOperator
    F: BlockOperator
    p: BlockOperator
    resolvent_residuals: Mapping[str, float]

    @cached_property
    def commutator_norms(self) -> Mapping[str, float]:
        d = self.D
        return MappingProxyType({n: (d @ a - a @ d).norm() for n, a in self.generators.items()})

    @cached_property
    def _quadratures(self) -> dict:
        return {}

    def generator(self, name: str) -> BlockOperator:
        try:
            return self.generators[name]
        except KeyError:
            raise ModelError(f"no generator named {name!r}") from None


def _resolvent(d: BlockOperator) -> BlockOperator:
    """(i - D)^(-1), one solve per stack."""
    stacks = []
    for st in d._stacks:
        eye = np.eye(st.shape[-1])
        stacks.append(np.linalg.solve(1j * eye - st, eye))
    return d._like(d.dims, stacks)


def make_triple(
    alg: VnAlgebra,
    generators: Mapping[str, BlockOperator],
    d: BlockOperator,
    tol: Tolerances = DEFAULT_TOL,
) -> VnTriple:
    """Validate and assemble a spectral triple.

    The generating family must contain the unit.  Each generator has to have
    ideal-supported resolvent product a (i - D)^(-1); a violation means D does
    not separate the non-ideal blocks strongly enough to model an ideal
    resolvent.
    """
    alg.require_conformal(d)
    d.require_selfadjoint("D", tol)
    one = alg.identity()
    if not any(
        op.allclose(one, atol=tol.proj_eps(1.0)) for op in generators.values()
    ):
        raise PreconditionError("the generating family must contain the unit")

    residuals, resolvent = {}, _resolvent(_quotient(d, alg))  # measured on the quotient
    for name, a in generators.items():
        res = (_quotient(a, alg) @ resolvent).norm()
        eps = _norm_eps(tol.proj_eps, tol.proj, (a,), res, report=True)
        residuals[name] = check_residual(f"a (i - D)^(-1) off the ideal, a = {name!r}", res, eps)

    d = d._like(d.dims, d._stacks, list(d._eig()))  # read by the transform and the integrals
    f = bounded_transform(d, tol)
    return VnTriple(
        alg=alg,
        generators=MappingProxyType(dict(generators)),
        D=d,
        F=f,
        p=chi(f, tol),
        resolvent_residuals=MappingProxyType(residuals),
    )


@dataclass(frozen=True)
class KasparovReport:
    """Quotient-side residuals of the three module conditions, per generator."""

    commutator: Mapping[str, float]
    square_defect: Mapping[str, float]
    adjoint_defect: Mapping[str, float]
    passed: bool

    def worst(self) -> float:
        residuals = (self.commutator, self.square_defect, self.adjoint_defect)
        return max((v for r in residuals for v in r.values()), default=0.0)


def check_kasparov_module(
    triple: VnTriple, tol: Tolerances = DEFAULT_TOL
) -> KasparovReport:
    """Check that [F, a], a(1 - F^2) and a(F - F*) vanish in the quotient."""
    alg = triple.alg
    one, f = (_quotient(x, alg) for x in (alg.identity(), triple.F))
    square_defect, adjoint_defect = one - f @ f, f - f.H
    comm, square, adj = {}, {}, {}
    for name, a in triple.generators.items():
        a = _quotient(a, alg)
        comm[name] = (f @ a - a @ f).norm()
        square[name] = (a @ square_defect).norm()
        adj[name] = (a @ adjoint_defect).norm()
    passed = all(
        v <= tol.gap for vals in (comm, square, adj) for v in vals.values()
    )
    return KasparovReport(
        commutator=MappingProxyType(comm),
        square_defect=MappingProxyType(square),
        adjoint_defect=MappingProxyType(adj),
        passed=passed,
    )


@dataclass(frozen=True)
class IntegralCheck:
    """Result of the resolvent-integral evaluation against the direct formula."""

    residual: float
    direct_norm: float
    truncation_bound: float
    lambda_max: float
    evaluations: int


def _adaptive_simpson(f, end: float, eps_rate: float) -> tuple[np.ndarray, int]:
    """Adaptive Simpson over [0, end] of ``f``, mapping m nodes to an (m, K) array.

    Level-synchronous, one call of ``f`` per level, with the recursive accept
    rule per interval: max |left + right - whole| <= 15 eps_rate (hi - lo), or
    depth 44.  Returns the K integrals and the number of nodes.
    """

    def simpson(x, fx):  # nodes (m, 3), values (m, 3, K)
        return ((x[:, 2] - x[:, 0]) / 6.0)[:, None] * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])

    x = np.array([[0.0, 0.25 * end, 0.5 * end, 0.75 * end, end]])  # lo, ., mid, ., hi
    fx = f(x[0])[None]
    whole, total, nodes = simpson(x[:, ::2], fx[:, ::2]), 0.0, 5
    for depth in range(44, -1, -1):
        left, right = simpson(x[:, :3], fx[:, :3]), simpson(x[:, 2:], fx[:, 2:])
        err = left + right - whole
        done = (np.abs(err).max(axis=1) <= 15.0 * eps_rate * (x[:, 4] - x[:, 0])) | (depth == 0)
        total = total + (left + right + err / 15.0)[done].sum(axis=0)
        if done.all():
            return total, nodes
        keep = ~done  # the halves of the open intervals, their known nodes at 0, 2, 4
        whole = np.concatenate([left[keep], right[keep]])
        check_residual("quadrature level values", 2 * whole.size, _LEVEL_VALUES, NumericsError)
        x3, f3 = (np.concatenate([z[keep, :3], z[keep, 2:]]) for z in (x, fx))
        x, fx = np.empty((len(x3), 5)), np.empty((len(x3), 5, whole.shape[1]))
        x[:, ::2], x[:, 1::2] = x3, 0.5 * (x3[:, :2] + x3[:, 1:])
        fx[:, ::2], fx[:, 1::2] = f3, f(x[:, 1::2].ravel()).reshape(len(x3), 2, -1)
        nodes += 2 * len(x3)


def resolvent_integral_check(
    triple: VnTriple,
    a: BlockOperator | str,
    b: BlockOperator | str,
    tol: Tolerances = DEFAULT_TOL,
) -> IntegralCheck:
    """Evaluate D [(1 + D^2)^(-1/2), a] b through its resolvent integral.

    lambda = tan(theta)^2 bounds the integrand; the tail beyond the truncation
    point is certified with ||R|| <= 1/(1 + lambda), ||D R|| <= 1/(2 sqrt(1 + lambda)).
    With D = V diag(w) V*, a' = V* a V and r_k = 1/(1 + w_k^2 + lambda), the
    integrand is V [w_i (r_i - r_j) a'_ij] V* b, so adaptive Simpson (not the
    closed form, which would make the check circular) integrates the scalars
    (2/pi)(1 + lambda) r_k once per distinct w_k^2.  Their error e moves the
    result by at most 2 max|e| ||b|| ||C||_F <= 2 max|w| ||a||_F ||b|| max|e|,
    C_ij = w_i a'_ij where w_i^2 != w_j^2, else 0 (equal squares share an
    integral), and the budget is divided by that factor.  The budget, which
    also fixes the truncation angle, is a thousandth of the pass bound
    max(1e-5, 1e-6 ||direct||), so the direct formula is formed first.
    ``evaluations`` counts nodes.  The integrals are kept on the triple, keyed
    by the exact ``(theta_max, eps_rate)``, and a later check with the same key
    reuses them, so the checks of one triple run each distinct quadrature once.
    Returns the norm of the difference from the direct formula; a generator
    ``a`` given by name uses the recorded ||[D, a]||.
    """
    name = a if isinstance(a, str) else None
    a, b = (triple.generator(x) if isinstance(x, str) else x for x in (a, b))
    d, alg = triple.D, triple.alg
    alg.require_conformal(a)
    alg.require_conformal(b)

    eig = list(d._eig())
    direct = []
    for (w, v), ab, bb, db in zip(eig, a._stacks, b._stacks, d._stacks):
        inv_sqrt = (v / np.sqrt(1.0 + w * w)[..., None, :]) @ v.conj().mT
        direct.append(db @ (inv_sqrt @ ab - ab @ inv_sqrt) @ bb)
    direct_norm = _max_norm(direct)
    bound = max(1000.0 * _INTEGRAL_TARGET, 1e-6 * direct_norm)
    budget = bound / 1000.0  # _INTEGRAL_TARGET for a direct norm up to 10

    commutator_norm = (d @ a - a @ d).norm() if name is None else triple.commutator_norms[name]
    scale = commutator_norm * b.norm()
    # The integrand decays like (5/4) scale / (lambda^(1/2) (1 + lambda)); the
    # tail from Lambda on is below (5 scale / (2 pi)) * 2 arctan(Lambda^(-1/2)),
    # which fixes the truncation angle for a given budget.
    if scale == 0.0:
        theta_max = 0.25 * math.pi
        truncation = 0.0
    else:
        tail_angle = min(0.5 * budget * math.pi / (5.0 * scale), 0.25 * math.pi)
        theta_max = 0.5 * math.pi - tail_angle
        truncation = (5.0 * scale / math.pi) * tail_angle
    lambda_max = math.tan(theta_max) ** 2

    squares = np.unique(np.concatenate([(w * w).ravel() for w, _ in eig]))
    idx = [np.searchsorted(squares, w * w) for w, _ in eig]  # w_k^2 = squares[idx[k]]
    primes = [v.conj().mT @ ab @ v for (_, v), ab in zip(eig, a._stacks)]  # a' = V* a V

    def integrand(theta: np.ndarray) -> np.ndarray:  # lambda^(-1/2) dlambda = 2 sec^2 dtheta
        lam = (np.tan(theta) ** 2)[:, None]
        return (2.0 / math.pi) * (1.0 + lam) / (1.0 + squares + lam)

    transfer = 2.0 * b._norm_bound() * _largest(  # 2 ||b|| ||C||_F, C as above
        _frobenius(np.where(r[..., None] == r[..., None, :], 0.0, w[..., None] * ap))
        for (w, _), r, ap in zip(eig, idx, primes)
    )
    eps_rate = 0.5 * budget / (theta_max * transfer) if transfer else math.inf
    key = (theta_max, eps_rate)
    if key not in triple._quadratures:
        g, evaluations = _adaptive_simpson(integrand, theta_max, eps_rate)
        triple._quadratures[key] = _frozen(g)[0], evaluations  # shared by later checks
    g, evaluations = triple._quadratures[key]

    total = [
        v @ (w[..., None] * (g[r][..., None] - g[r][..., None, :]) * ap) @ v.conj().mT @ bb
        for (w, v), r, ap, bb in zip(eig, idx, primes, b._stacks)
    ]
    residual = _max_norm(t - dst for t, dst in zip(total, direct))
    check_residual("resolvent integral residual", residual, bound, NumericsError)
    return IntegralCheck(residual, direct_norm, truncation, lambda_max, evaluations)


def _as_unitary(triple: VnTriple, u: BlockOperator | str, tol: Tolerances):
    if isinstance(u, str):
        u = triple.generator(u)
    triple.alg.require_conformal(u)
    u.require_unitary("argument", tol)
    return u


def sf_unitary_result(
    triple: VnTriple, u: BlockOperator | str, tol: Tolerances = DEFAULT_TOL
) -> CheckedClass:
    """Spectral flow from D to u* D u, evaluated by the boundary formula.

    Requires [u, p] to be supported in the ideal blocks; its quotient norm is
    returned as ``commutator_quotient``.  The class is the boundary class of
    the lift p u p + (1 - p), whose quotient unitarity is checked at ten
    times the gap tolerance, and the result carries its kernel and cokernel.

    The lift's checks imply those of the corner index of p u p in the
    p-corner and of the lift built from (F + 1)/2.  N(p u p + (1 - p)) is
    ker(p u p) meet ran p, and likewise for the adjoint, so the corner index
    has the same kernel pair.  On a non-ideal block the quotient unitarity
    puts every singular value of the lift, and so of the corner, within
    sqrt(1 +- 10 gap) of 1: the corner is Fredholm there with no kernel.
    Off the ideal ||(F + 1)/2 - p|| <= (1 - |f|)/2 <= ||(i - D)^(-1)||^2 / 2,
    which ``make_triple`` bounds through the unit's resolvent residual.
    """
    u = _as_unitary(triple, u, tol)
    alg = triple.alg
    p = triple.p
    uq, pq = _quotient(u, alg), _quotient(p, alg)
    commutator = (uq @ pq - pq @ uq).norm()
    check_residual("[u, p] must be ideal-supported", commutator, tol.gap)
    lifted = boundary_map_result(p @ u @ p + (alg.identity() - p), alg, tol, eps_gap=10 * tol.gap)
    return replace(lifted, residuals={"commutator_quotient": commutator})


def sf_unitary(
    triple: VnTriple, u: BlockOperator | str, tol: Tolerances = DEFAULT_TOL
) -> K0Class:
    """The class of ``sf_unitary_result``."""
    return sf_unitary_result(triple, u, tol).k0


def sf_unbounded_result(
    triple: VnTriple, a_path: OperatorPath, tol: Tolerances = DEFAULT_TOL
) -> CheckedClass:
    """Spectral flow along t -> D + A_t, reduced to the endpoints.

    The bounded transforms of the perturbed operators must share one quotient
    image.  That hypothesis is checked at the keyframes of A_t only, one
    transform each (the full transform at the ends, the quotient image in
    between), and its largest drift is returned as ``quotient_drift``; it
    certifies nothing between the keyframes.  The proof is ``certify_path`` on
    the path of D + A at those keyframes: by Weyl's inequality it keeps every
    point invertible in the quotient, or raises ``PathError``.  The class
    depends on the endpoints only and is the usual difference of kernel
    intersections of the endpoint spectral projections, carried as
    ``kernel`` ((1 - p1) meet p0) and ``cokernel`` ((1 - p0) meet p1), both
    from one eigendecomposition of p0 - p1 (``relative_kernels``).
    """
    alg = triple.alg
    for t, op in a_path.keyframes:
        alg.require_conformal(op)
        op.require_selfadjoint(f"perturbation keyframe at t = {t:g}", tol)

    path = OperatorPath([(t, triple.D + op) for t, op in a_path.keyframes])
    (_, d0), *inner, (_, d1) = path.keyframes
    f0, f1 = bounded_transform(d0, tol), bounded_transform(d1, tol)
    images = [bounded_transform(_quotient(d, alg), tol) for _, d in inner]
    images = [_quotient(f0, alg), *images, _quotient(f1, alg)]
    what = "quotient image of the bounded transform must not drift"
    worst = 0.0
    for t, image in zip(path.times, images):
        drift = (image - images[0]).norm()
        worst = max(worst, check_residual(what, drift, tol.gap, ModelError, t=t))
    certify_path(path, alg, tol)

    leaving, entering = relative_kernels(chi(f0, tol), chi(f1, tol), tol)
    return CheckedClass.of(leaving, entering, alg, tol, quotient_drift=worst)


def sf_unbounded(
    triple: VnTriple, a_path: OperatorPath, tol: Tolerances = DEFAULT_TOL
) -> K0Class:
    """The class of ``sf_unbounded_result``."""
    return sf_unbounded_result(triple, a_path, tol).k0


def pushforward_sf(
    triple: VnTriple,
    u: BlockOperator | str,
    sub_ideal_mask: tuple[bool, ...] | list[bool],
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[K0Class, K0Class]:
    """Spectral flow refined to a designated subalgebra of the ideal.

    ``sub_ideal_mask`` selects ideal blocks forming the subalgebra.  It must
    carry the compact data of the triple: the support of (1 + D^2)^(-1) and
    of every [F, a], and the kernels entering the flow.  Returns the class
    over the selected blocks and its zero-padded image over all ideal blocks.
    The kernels carry their ranks, and a block of rank r >= 1 has norm 1, so
    their support checks at ``proj_eps(1)`` (below 1/2 for ``proj`` < 1/4)
    leave rank 0 off the mask: the padded class is the flow.
    """
    u = _as_unitary(triple, u, tol)
    alg = triple.alg
    mask = tuple(bool(x) for x in sub_ideal_mask)
    if len(mask) != len(alg.blocks):
        raise ModelError(f"sub-ideal mask has {len(mask)} entries for {len(alg.blocks)} blocks")
    for i, selected in enumerate(mask):
        if selected and not alg.blocks[i].in_ideal:
            raise ModelError(f"sub-ideal mask selects non-ideal block {i}")

    f = triple.F
    outside = [i for i in range(len(alg.blocks)) if not mask[i]]
    compact = {"(1 + D^2)^(-1)": alg.identity() - f @ f}
    compact.update((f"[F, {name}]", f @ a - a @ f) for name, a in triple.generators.items())
    for name, op in compact.items():
        check_support(f"{name} off the sub-ideal", op, outside, tol.gap, PreconditionError)

    checked = sf_unitary_result(triple, u, tol)
    eps = tol.proj_eps(1.0)
    for name, op in (("kernel", checked.kernel), ("cokernel", checked.cokernel)):
        check_support(f"flow {name} off the sub-ideal", op, outside, eps, PreconditionError)

    rk, rc = block_ranks(checked.kernel), block_ranks(checked.cokernel)
    # the mask was checked to select ideal blocks only
    return K0Class(rk[i] - rc[i] for i in alg.ideal_indices if mask[i]), checked.k0
