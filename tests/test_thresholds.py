"""Norm-relative thresholds settled from a floor and a Frobenius ceiling.

``model._norm_eps`` takes the spectral norm of an operator only when a value
lies between the floor of its threshold and the ceiling at twice the
operator's Frobenius norm.  These tests put values in that band, and keyframe
norms on either side of ``gap / kernel``, and compare every decision with the
one taken at the exact ``op.norm()`` threshold.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vnflow import (
    DEFAULT_TOL,
    Block,
    BlockOperator,
    NotInIdealError,
    OperatorPath,
    PathError,
    PreconditionError,
    VnAlgebra,
    certify_path,
    chi,
    is_corner_fredholm,
    k0_of_difference,
    make_triple,
    null_projection,
    polar_phase,
    range_projection,
    resolvent_integral_check,
    spectral_flow_result,
)
from vnflow import flow, projections
from vnflow.cli import main

from conftest import random_matrix, random_projection

TOL = DEFAULT_TOL


def _herm(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + b.conj().T)


def _gram(cols: np.ndarray) -> np.ndarray:
    return cols @ cols.conj().T


def _exact_norm_eps(eps, floor, ops, values=None, report=False):
    """The threshold at the exact norm, the one every deferred threshold must match."""
    return eps(max(op.norm() for op in ops))


# Multiples of the exact threshold: below, at and above it, inside the band up
# to the ceiling and beyond it; "next" steps one float up or down.
_FACTORS = st.sampled_from(
    [0.0, 0.3, 0.5, 0.999, 1.0, "next-", "next+", 1.001, 1.5, 1.999, 2.5, 4.0]
)


def _at(factor, eps: float) -> float:
    if factor == "next-":
        return float(np.nextafter(eps, 0.0))
    if factor == "next+":
        return float(np.nextafter(eps, np.inf))
    return factor * eps


@st.composite
def banded_blocks(draw):
    """Hermitian blocks: a rank-one block that sets the norm, whose Frobenius
    norm equals its spectral norm up to rounding, either way; maybe a random
    block below it; then 1 x 1 and diagonal 2 x 2 blocks holding eigenvalues
    and singular values in the band around the kernel threshold."""
    scale = draw(
        st.one_of(
            st.floats(0.0, 4.0).map(lambda x: 10.0**x),
            st.sampled_from([49.99, 50.0, 50.01, 99.99, 100.0, 100.01]),
        )
    )
    n = draw(st.integers(2, 4))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    v = draw(arrays(np.float64, n, elements=entries)) + 1j * draw(
        arrays(np.float64, n, elements=entries)
    )
    if not np.linalg.norm(v) > 0.1:
        v = np.ones(n, complex)
    v = v / np.linalg.norm(v)
    big = [_herm(scale * np.outer(v, v.conj()))]
    if draw(st.booleans()):
        g = draw(arrays(np.float64, (n, n), elements=entries))
        big.append(_herm(0.25 * scale * g))
    eps = TOL.kernel_eps(max(float(np.linalg.norm(b, 2)) for b in big))
    small = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([-1.0, 1.0]))
        small.append(np.array([[sign * _at(draw(_FACTORS), eps)]], complex))
    pair = [draw(st.sampled_from([-1.0, 1.0])) * _at(draw(_FACTORS), eps) for _ in range(2)]
    small.append(np.diag(pair).astype(complex))
    order = draw(st.permutations(range(len(big) + len(small))))
    blocks = big + small
    return [blocks[i] for i in order]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(banded_blocks())
def test_deferred_thresholds_decide_as_the_exact_norm(blocks):
    """chi and the three SVD projections equal, bit for bit, the same routes
    run at the threshold ``kernel_eps`` of the exact spectral norm, and keep
    as many vectors per block as a per-block count at that threshold."""
    eps = TOL.kernel_eps(max(float(np.linalg.norm(b, 2)) for b in blocks))
    kept = {"chi": [], "null": [], "range": [], "phase": []}
    for b in blocks:
        s = np.linalg.svd(b, compute_uv=False)
        kept["chi"].append(int(np.count_nonzero(np.linalg.eigvalsh(_herm(b)) >= -eps)))
        kept["null"].append(int(np.count_nonzero(s <= eps)))
        kept["range"].append(int(np.count_nonzero(s > eps)))
        kept["phase"].append(kept["range"][-1])
    routes = {"chi": chi, "null": null_projection, "range": range_projection, "phase": polar_phase}
    for name, route in routes.items():
        got = route(BlockOperator(blocks))
        with mock.patch.object(projections, "_norm_eps", _exact_norm_eps):
            exact = route(BlockOperator(blocks))
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, exact.blocks)), name
        if name == "phase":
            got = got.H @ got  # the projection onto the kept right singular vectors
        ranks = [round(float(np.trace(x).real)) for x in got.blocks]
        assert ranks == kept[name], name


def _certify(frames, alg):
    """The certificate, or the error's type, message and fields."""
    path = OperatorPath([(t, BlockOperator(blocks)) for t, blocks in frames])
    try:
        cert = certify_path(path, alg)
    except PathError as exc:
        return type(exc), str(exc), dict(exc.fields)
    segments = [(a, b, m.tolist()) for a, b, m in cert.segments]
    return cert.min_gap, cert.lipschitz, cert.samples, segments


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.floats(0.0, 3.0).map(lambda x: 10.0**x),
        st.sampled_from([49.99, 50.0, 50.01, 99.99, 100.0, 100.01, 200.0]),
    ),
    st.floats(0.5, 1.0),
    _FACTORS,
    _FACTORS,
    st.integers(0, 2**32 - 1),
)
def test_certify_floor_is_the_exact_threshold(scale, shrink, f0, f1, seed):
    """Keyframe norms on either side of gap / kernel (100): quotient gaps in the
    band around the floor certify, or fail with the floor as bound, as at the
    exact floor max(gap, kernel_eps(max keyframe norm))."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ideal = [_herm(s * np.outer(v, v.conj()) / np.vdot(v, v).real) for s in (scale, shrink * scale)]
    norm = max(float(np.linalg.norm(b, 2)) for b in ideal)
    floor = max(TOL.gap, TOL.kernel_eps(norm))
    gaps = [max(_at(f, floor), 0.5 * TOL.gap) for f in (f0, f1)]
    frames = [(t, [b, np.array([[g]], complex)]) for t, b, g in zip((0.0, 1.0), ideal, gaps)]
    alg = VnAlgebra([Block(dim=3), Block(dim=1, in_ideal=False)])

    got = _certify(frames, alg)
    with mock.patch.object(flow, "_norm_eps", _exact_norm_eps):
        assert got == _certify(frames, alg)
    if min(gaps) <= floor:
        assert got[0] is PathError and got[2]["bound"] == floor


def test_a_small_mixed_path_takes_no_operator_norm(monkeypatch):
    """Below norm 50 every threshold of a mixed flow is settled by its floor or
    its Frobenius ceiling: ``BlockOperator.norm`` is never called."""
    rng = np.random.default_rng(21)
    alg = VnAlgebra([Block(dim=3), Block(dim=2, in_ideal=False), Block(dim=2)])
    start = [np.diag([2.0, -1.0, -3.0]), np.diag([4.0, -5.0]), np.diag([1.0, -1.0])]
    end = [np.diag([-2.0, 1.5, 3.0]), np.diag([6.0, -2.0]), np.diag([-1.0, -1.0])]
    u = [np.linalg.qr(random_matrix(n, rng))[0] for n in alg.dims]
    frames = [
        BlockOperator([q @ b @ q.conj().T for q, b in zip(u, blocks)]) for blocks in (start, end)
    ]
    assert max(op.norm() for op in frames) < 50.0
    path = OperatorPath.linear(*(BlockOperator(op.blocks) for op in frames))

    calls = []
    norm = BlockOperator.norm
    monkeypatch.setattr(BlockOperator, "norm", lambda self: calls.append(self) or norm(self))
    result = spectral_flow_result(path, alg)
    assert result.k0.ranks == (-1, 1)
    assert calls == []


def test_a_failing_support_check_reports_the_exact_bound():
    rng = np.random.default_rng(22)
    alg = VnAlgebra([Block(dim=2), Block(dim=3, in_ideal=False)])
    p = BlockOperator([random_projection(2, 1, rng), random_projection(3, 1, rng)])
    q = BlockOperator([random_projection(2, 1, rng), random_projection(3, 2, rng)])
    bound = TOL.proj_eps(max(BlockOperator(p.blocks).norm(), BlockOperator(q.blocks).norm()))
    with pytest.raises(NotInIdealError) as err:
        k0_of_difference(p, q, alg)
    assert err.value.fields["bound"] == bound
    assert f"> {bound:.3e} on block 1" in str(err.value)


def test_a_failing_corner_check_reports_the_exact_bound():
    rng = np.random.default_rng(23)
    alg = VnAlgebra([Block(dim=3), Block(dim=3, in_ideal=False)])
    s = BlockOperator([random_matrix(3, rng, 3.0) for _ in alg.dims])
    p = BlockOperator([random_projection(3, 1, rng) for _ in alg.dims])
    bound = TOL.proj_eps(BlockOperator(s.blocks).norm())
    with pytest.raises(PreconditionError) as err:
        is_corner_fredholm(s, p, p, alg)
    assert err.value.fields["bound"] == bound
    assert f"> {bound:.3e}" in str(err.value)


def _checks_document(tmp_path):
    """A ``checks`` document of the Dirac model with generators 1, u and u*,
    its file, and its operators decoded."""
    model = tmp_path / "dirac.json"
    assert main(["generate", "dirac", "--m", "3", "--k", "2", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["task"] = "checks"
    doc_file = tmp_path / "checks.json"
    doc_file.write_text(json.dumps(doc), encoding="utf-8")

    def decode(blocks):
        return BlockOperator([np.array([[complex(*z) for z in row] for row in b]) for b in blocks])

    return doc, doc_file, {name: decode(blocks) for name, blocks in doc["operators"].items()}


def test_a_checks_document_eigendecomposes_d_once_for_its_integrals(tmp_path, monkeypatch):
    """Three generators make nine resolvent integrals; D is eigendecomposed
    once, by make_triple, for all of them and for its bounded transform, and
    each residual is the one computed from the operators on a fresh triple."""
    doc, doc_file, ops = _checks_document(tmp_path)
    d = ops[doc["triple"]["D"]].blocks[0]
    d_herm = _herm(d)
    eigh, calls = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        if a.shape[-2:] == d.shape and np.array_equal(a.reshape(d.shape), d_herm):
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    out = tmp_path / "report.json"
    assert main(["run", str(doc_file), "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.setattr(np.linalg, "eigh", eigh)

    names = doc["triple"]["generators"]
    alg = VnAlgebra([Block(dim=len(d), in_ideal=True)])
    residuals = json.loads(out.read_text())["diagnostics"]["residuals"]["resolvent_integral"]
    assert len(residuals) == 9
    for a in names:
        for b in names:
            triple = make_triple(alg, {n: ops[n] for n in names}, ops[doc["triple"]["D"]])
            check = resolvent_integral_check(triple, ops[a], ops[b])
            assert residuals[f"{a},{b}"] == check.residual


def test_a_checks_document_takes_each_commutator_norm_once(tmp_path, monkeypatch):
    """The triple's commutator norms are computed on first read, once for all
    nine integrals: one spectral norm each for [D, u] and [D, u*], none for
    the zero commutator of the unit."""
    doc, doc_file, ops = _checks_document(tmp_path)
    d = ops[doc["triple"]["D"]]
    commutators = [(d @ ops[n] - ops[n] @ d).blocks[0] for n in doc["triple"]["generators"]]
    norm, calls = np.linalg.norm, []

    def counting(x, *args, **kwargs):
        if (args[0] if args else kwargs.get("ord")) == 2 and np.shape(x)[-2:] == d.dims * 2:
            if any(np.array_equal(np.reshape(x, d.dims * 2), c) for c in commutators):
                calls.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    assert main(["run", str(doc_file), "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 2
