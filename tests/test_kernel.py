"""The Hermitian spectral kernel: properties, failure mapping and its layering."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vnflow import (
    DEFAULT_TOL,
    Block,
    BlockOperator,
    NumericsError,
    OperatorPath,
    PreconditionError,
    Tolerances,
    VnAlgebra,
    block_ranks,
    bounded_transform,
    chi,
    k0_of_difference,
    make_triple,
    null_projection,
    polar_phase,
    quotient_norm,
    range_projection,
    resolvent_integral_check,
)
from vnflow import cli, dirac_circle, triples
from vnflow.triples import IntegralCheck
from vnflow.model import _spectral_norm

from conftest import (
    haar_unitary,
    proj_intersection,
    random_matrix,
    random_projection,
    random_selfadjoint,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "vnflow"

_entries = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_operators(draw, dims=None):
    """A BlockOperator with exactly Hermitian blocks of dimension 1..4."""
    if dims is None:
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    blocks = []
    for n in dims:
        re = draw(arrays(np.float64, (n, n), elements=_entries))
        im = draw(arrays(np.float64, (n, n), elements=_entries))
        g = re + 1j * im
        blocks.append(0.5 * (g + g.conj().T))
    return BlockOperator(blocks)


_settings = settings(max_examples=60, deadline=None, derandomize=True)


@_settings
@given(hermitian_operators())
def test_chi_is_projection_with_nonnegative_eigenvalue_count(op):
    p = chi(op)
    assert p.is_projection()
    eps_zero = DEFAULT_TOL.kernel_eps(op.norm())
    expected = tuple(
        int(np.count_nonzero(np.linalg.eigh(b)[0] >= -eps_zero)) for b in op.blocks
    )
    assert block_ranks(p) == expected


@_settings
@given(st.data())
def test_bounded_transform_is_a_contraction_and_1_lipschitz(data):
    dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    a = data.draw(hermitian_operators(dims))
    b = data.draw(hermitian_operators(dims))
    fa, fb = bounded_transform(a), bounded_transform(b)
    assert fa.norm() < 1.0
    assert (fa - fb).norm() <= (a - b).norm() + 1e-12


@_settings
@given(hermitian_operators())
def test_intersection_of_a_projection_with_itself(op):
    p = chi(op)
    assert proj_intersection(p, p).allclose(p, atol=1e-10)


def test_lapack_failure_is_a_numerics_error():
    bad = BlockOperator([np.array([[1.0, np.nan], [np.nan, 0.0]])])
    with pytest.raises(NumericsError):
        chi(bad)


# -- stacked storage: one LAPACK call per block dimension ------------------------


def _herm(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + b.conj().T)


def _max_spectral(mats) -> float:
    return max((float(np.linalg.norm(m, 2)) for m in mats), default=0.0)


def _projection_onto(cols: np.ndarray) -> np.ndarray:
    return cols @ cols.conj().T


@st.composite
def block_lists(draw):
    """Complex blocks whose dimensions mix repeats, distinct sizes, 1 x 1
    blocks and dimensions that occur once (stacks of one); some are zero."""
    dims = draw(st.lists(st.sampled_from([1, 2, 2, 3, 3, 4]), min_size=1, max_size=7))
    blocks = []
    for n in dims:
        re = draw(arrays(np.float64, (n, n), elements=_entries))
        im = draw(arrays(np.float64, (n, n), elements=_entries))
        blocks.append(np.zeros((n, n), complex) if draw(st.booleans()) and n > 1 else re + 1j * im)
    return blocks


@settings(max_examples=80, deadline=None, derandomize=True)
@given(block_lists(), st.data())
def test_stacked_kernel_equals_the_per_block_computation(blocks, data):
    """Every stacked routine gives, bit for bit, what one 2-D call per block gives."""
    a = BlockOperator(blocks)
    others = [b.T + 1.5 for b in blocks]
    b = BlockOperator(others)
    ideal = data.draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    alg = VnAlgebra(Block(dim=len(m), in_ideal=i) for m, i in zip(blocks, ideal))
    t = data.draw(st.floats(0.01, 0.99))
    eye = [np.eye(len(m)) for m in blocks]

    assert all(not v.flags.writeable for v in a.blocks)
    assert a.dims == tuple(len(m) for m in blocks)
    assert a.norm() == _max_spectral(blocks)
    assert a.selfadjoint_defect() == _max_spectral(m - m.conj().T for m in blocks)
    assert a.projection_defect() == _max_spectral(
        [m @ m - m for m in blocks] + [m - m.conj().T for m in blocks]
    )
    assert a.unitary_defect() == _max_spectral(
        x - e
        for m, e in zip(blocks, eye)
        for x in (m.conj().T @ m, m @ m.conj().T)
    )
    assert quotient_norm(a, alg) == _max_spectral(
        m for m, i in zip(blocks, ideal) if not i
    )
    assert block_ranks(a) == tuple(
        int(np.count_nonzero(np.linalg.eigvalsh(_herm(m)) >= 0.5)) for m in blocks
    )

    expected = {
        "H": [m.conj().T for m in blocks],
        "+": [x + y for x, y in zip(blocks, others)],
        "-": [x - y for x, y in zip(blocks, others)],
        "@": [x @ y for x, y in zip(blocks, others)],
        "at": [(1.0 - t) * x + t * y for x, y in zip(blocks, others)],
        "apply": [],
        "cos": [],
        "projection": [],
        "null": [],
        "range": [],
        "phase": [],
    }
    for m in blocks:
        w, v = np.linalg.eigh(_herm(m))
        expected["apply"].append((v * np.exp(2j * np.pi * w)) @ v.conj().T)
        expected["cos"].append((v * np.cos(np.pi * w)) @ v.conj().T)
        expected["projection"].append(_projection_onto(v[:, w >= 0.0]))
        _, s, vh = np.linalg.svd(m)
        expected["null"].append(
            _projection_onto(vh[s <= DEFAULT_TOL.kernel_eps(a.norm()), :].conj().T)
        )
        u, s, vh = np.linalg.svd(m)
        kept = s > DEFAULT_TOL.kernel_eps(a.norm())
        expected["range"].append(_projection_onto(u[:, kept]))
        expected["phase"].append(u[:, kept] @ vh[kept, :])
    got = {
        "H": a.H,
        "+": a + b,
        "-": a - b,
        "@": a @ b,
        "at": OperatorPath.linear(a, b).at(t),
        "apply": a.apply(lambda w: np.exp(2j * np.pi * w)),
        "cos": a.apply(lambda w: np.cos(np.pi * w)),
        "projection": a.spectral_projection(lambda w: w >= 0.0),
        "null": null_projection(a),
        "range": range_projection(a),
        "phase": polar_phase(a),
    }
    for name, op in got.items():
        assert all(np.array_equal(x, y) for x, y in zip(op.blocks, expected[name])), name


def test_block_ranks_makes_one_lapack_call_per_block_dimension(monkeypatch):
    rng = np.random.default_rng(7)
    dims = [2, 3, 5] * 21 + [3]
    p = BlockOperator([random_projection(n, int(rng.integers(0, n + 1)), rng) for n in dims])
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    ranks = block_ranks(p)
    assert len(dims) == 64 and len(calls) <= 3
    assert ranks == tuple(
        int(np.count_nonzero(eigvalsh(b) >= 0.5)) for b in p.blocks
    )


# -- the resolvent integral: scalar quadratures against the matrix quadrature -----


def _simpson(a: float, b: float, fa, fm, fb) -> list[np.ndarray]:
    h = (b - a) / 6.0
    return [h * (x + 4.0 * y + z) for x, y, z in zip(fa, fm, fb)]


def _matrix_simpson(f, a, b, fa, fm, fb, whole, eps_rate, depth, counter):
    """Recursive adaptive Simpson on lists of matrices, with a spectral-norm
    error test."""
    mid = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + mid)), f(0.5 * (mid + b))
    counter[0] += 2
    left, right = _simpson(a, mid, fa, flm, fm), _simpson(mid, b, fm, frm, fb)
    err = [x + y - w for x, y, w in zip(left, right, whole)]
    if depth <= 0 or _max_spectral(err) <= 15.0 * eps_rate * (b - a):
        return [x + y + e / 15.0 for x, y, e in zip(left, right, err)]
    sub_left = _matrix_simpson(f, a, mid, fa, flm, fm, left, eps_rate, depth - 1, counter)
    sub_right = _matrix_simpson(f, mid, b, fm, frm, fb, right, eps_rate, depth - 1, counter)
    return [x + y for x, y in zip(sub_left, sub_right)]


def _matrix_quadrature(triple, a: BlockOperator, b: BlockOperator) -> IntegralCheck:
    """``resolvent_integral_check`` by adaptive Simpson on the full matrix
    integrand D [R, a] b, one block at a time, with the check's truncation and
    direct formula: an independent reference for the scalar route."""
    d = triple.D
    eig = [np.linalg.eigh(_herm(m)) for m in d.blocks]
    parts = list(zip(eig, a.blocks, b.blocks, d.blocks))
    direct = []
    for (w, v), ab, bb, db in parts:
        inv_sqrt = (v / np.sqrt(1.0 + w * w)) @ v.conj().T
        direct.append(db @ (inv_sqrt @ ab - ab @ inv_sqrt) @ bb)
    # a thousandth of the pass bound, as in the check
    target = max(1000.0 * triples._INTEGRAL_TARGET, 1e-6 * _max_spectral(direct)) / 1000.0
    scale = (d @ a - a @ d).norm() * b.norm()
    if scale == 0.0:
        theta_max, truncation = 0.25 * math.pi, 0.0
    else:
        tail_angle = min(0.5 * target * math.pi / (5.0 * scale), 0.25 * math.pi)
        theta_max = 0.5 * math.pi - tail_angle
        truncation = (5.0 * scale / math.pi) * tail_angle

    def integrand(theta):
        lam = math.tan(theta) ** 2
        out = []
        for (w, v), ab, bb, db in parts:
            denom = 1.0 + w * w + lam
            r = (v / denom) @ v.conj().T
            dr = (v * (w / denom)) @ v.conj().T
            out.append((2.0 / math.pi) * (1.0 + lam) * (dr @ ab @ bb - db @ ab @ r @ bb))
        return out

    counter = [3]
    fa, fm, fb = integrand(0.0), integrand(0.5 * theta_max), integrand(theta_max)
    whole = _simpson(0.0, theta_max, fa, fm, fb)
    total = _matrix_simpson(
        integrand, 0.0, theta_max, fa, fm, fb, whole, 0.5 * target / theta_max, 44, counter
    )
    residual = _max_spectral(t - x for t, x in zip(total, direct))
    return IntegralCheck(
        residual, _max_spectral(direct), truncation, math.tan(theta_max) ** 2, counter[0]
    )


@pytest.mark.parametrize("seed", range(4))
def test_stacked_resolvent_integral_equals_the_per_block_computation(seed):
    rng = np.random.default_rng(seed)
    dims = [2, 3, 2, 1, 3, 2][: 3 + seed]
    alg = VnAlgebra(Block(dim=n) for n in dims)
    gens = {
        "1": alg.identity(),
        "a": BlockOperator([random_matrix(n, rng) for n in dims]),
        "b": BlockOperator([random_selfadjoint(n, rng) for n in dims]),
    }
    triple = make_triple(alg, gens, BlockOperator([random_selfadjoint(n, rng, 2.0) for n in dims]))
    check = resolvent_integral_check(triple, "a", "b")
    reference = _matrix_quadrature(triple, gens["a"], gens["b"])
    assert (check.direct_norm, check.truncation_bound, check.lambda_max) == (
        reference.direct_norm,
        reference.truncation_bound,
        reference.lambda_max,
    )
    for residual in (check.residual, reference.residual):
        assert residual <= 1e-10 * max(1.0, check.direct_norm)


@st.composite
def integral_cases(draw):
    """A triple on one to three blocks with generators ``1`` and ``a``, and a
    right factor b.  An ideal block's D is random, or a Dirac-type integer
    spectrum with repeated eigenvalues and repeated squares; a non-ideal
    block's D has eigenvalues of size 1e8 and ``a`` commutes with it there.
    ``a`` may commute with D on every block, and b may be zero."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ideal = [bool(x) for x in rng.random(len(dims)) < 0.7]
    commuting, zero_b = rng.random() < 0.2, rng.random() < 0.15
    # 30 makes the error transfer large.  With a non-ideal block, the matrix
    # quadrature slows down as the scale moves the truncation towards pi/2.
    size = rng.choice([0.5, 3.0, 30.0]) if all(ideal) else 0.5
    d, a, b = [], [], []
    for n, in_ideal in zip(dims, ideal):
        q = haar_unitary(n, rng)
        if not in_ideal:
            w = 1e8 * (rng.permutation(n) + 1.0) * rng.choice([-1.0, 1.0], n)
        elif rng.random() < 0.4:
            q, w = np.eye(n), rng.integers(-5, 6, n).astype(float)
        else:
            w = rng.uniform(-8.0, 8.0, n)
        d.append((q * w) @ q.conj().T)
        if commuting or not in_ideal:
            a.append((q * (size * rng.standard_normal(n))) @ q.conj().T)
        else:
            a.append(random_matrix(n, rng, size))
        b.append(np.zeros((n, n)) if zero_b else random_matrix(n, rng, size))
    alg = VnAlgebra(Block(dim=n, in_ideal=i) for n, i in zip(dims, ideal))
    a = BlockOperator(a)
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, BlockOperator(d))
    return triple, a, BlockOperator(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(integral_cases())
def test_resolvent_integral_agrees_with_the_matrix_quadrature(case):
    """Both quadratures keep within half the target on the same interval, and
    the truncated tail is within the other half."""
    triple, a, b = case
    check = resolvent_integral_check(triple, "a", b)
    reference = _matrix_quadrature(triple, a, b)
    target = triples._INTEGRAL_TARGET
    assert (check.truncation_bound, check.lambda_max) == (
        reference.truncation_bound,
        reference.lambda_max,
    )
    assert check.direct_norm == pytest.approx(reference.direct_norm, rel=1e-12, abs=1e-15)
    assert abs(check.residual - reference.residual) <= target
    assert check.residual <= target


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_integral_keeps_its_target_at_a_large_error_transfer(seed):
    """With ||a||, ||b|| and ||D|| in the tens, an error of the scalar integrals
    moves the composed value about 10^4 times as much; the divided budget keeps
    the residual (truncated tail plus quadrature) within the target."""
    rng = np.random.default_rng(seed)
    alg = VnAlgebra([Block(dim=5)])
    d = BlockOperator([random_selfadjoint(5, rng, 4.0)])
    a = BlockOperator([random_matrix(5, rng, 30.0)])
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
    check = resolvent_integral_check(triple, "a", BlockOperator([random_matrix(5, rng, 30.0)]))
    assert check.residual <= triples._INTEGRAL_TARGET


def test_resolvent_quadrature_makes_one_integrand_call_per_level(monkeypatch):
    """Each level of the quadrature is one integrand call, and the spectral
    norms a check takes do not depend on how many nodes it evaluates."""
    calls, norms = [], []
    simpson, norm = triples._adaptive_simpson, np.linalg.norm

    def counting_simpson(f, end, eps_rate):
        def counted(theta):
            calls.append(len(theta))
            return f(theta)

        return simpson(counted, end, eps_rate)

    def counting_norm(x, *args, **kwargs):
        if (args[0] if args else kwargs.get("ord")) == 2:
            norms.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(triples, "_adaptive_simpson", counting_simpson)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    rng = np.random.default_rng(12)
    dims = [3, 2, 3]
    alg = VnAlgebra(Block(dim=n) for n in dims)
    a = BlockOperator([random_matrix(n, rng) for n in dims])
    d = BlockOperator([random_selfadjoint(n, rng, 2.0) for n in dims])
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
    triple.commutator_norms  # computed on first read: before the counting starts
    seen = []
    for size in (1e-3, 1.0, 30.0):
        b = BlockOperator([random_matrix(n, rng, size) for n in dims])
        calls.clear()
        norms.clear()
        check = resolvent_integral_check(triple, "a", b)
        assert len(calls) <= 45 and sum(calls) == check.evaluations
        seen.append((check.evaluations, len(norms)))
    assert len({evaluations for evaluations, _ in seen}) == 3
    assert len({count for _, count in seen}) == 1 and seen[0][1] > 0


@pytest.mark.parametrize("m, k", [(3, 1), (4, -2), (5, 3)])
def test_checks_of_one_triple_share_their_quadratures(monkeypatch, m, k):
    """The nine pairs of generators 1, u, u* need two distinct quadratures: the
    pairs with a = 1, whose commutator with D vanishes, and the six others.  One triple runs each once
    and keeps it; every check equals, bit for bit, that of a fresh triple."""
    names = ("1", "u", "u*")

    def bits(check: IntegralCheck) -> tuple:
        return tuple(x.hex() if isinstance(x, float) else x for x in astuple(check))

    fresh = {
        (a, b): bits(resolvent_integral_check(dirac_circle(m, k)[0], a, b))
        for a in names
        for b in names
    }
    runs = []
    simpson = triples._adaptive_simpson

    def counting_simpson(f, end, eps_rate):
        runs.append((end, eps_rate))
        return simpson(f, end, eps_rate)

    monkeypatch.setattr(triples, "_adaptive_simpson", counting_simpson)
    triple = dirac_circle(m, k)[0]
    assert triple._quadratures == {}
    shared = {(a, b): bits(resolvent_integral_check(triple, a, b)) for a in names for b in names}
    assert shared == fresh
    assert len(runs) == len(set(runs)) == 2 and set(triple._quadratures) == set(runs)
    assert dirac_circle(m, k)[0]._quadratures == {}


def test_adaptive_simpson_stops_at_depth_44():
    """A spike at 0 keeps one interval open on every level, so the quadrature
    runs its 45 levels with one integrand call each."""
    calls = []

    def spike(theta):
        calls.append(len(theta))
        return (theta == 0.0).astype(float)[:, None]

    total, nodes = triples._adaptive_simpson(spike, 1.0, 0.0)
    assert len(calls) == 45 and nodes == sum(calls) == 5 + 4 * 44
    assert 0.0 < total[0] < 1e-12


def test_a_budget_below_rounding_raises_instead_of_refining_without_end():
    """A tight cluster of large eigenvalues of one sign: the direct formula is
    about 1e-6 ||a|| ||b||, so the budget stays at 1e-8, while the error
    transfer is about 2e6 ||a|| ||b|| and puts the divided budget below
    rounding."""
    rng = np.random.default_rng(4)
    alg = VnAlgebra([Block(dim=4)])
    a = BlockOperator([random_matrix(4, rng, 1e3)])
    d = BlockOperator([np.diag([1e6, 1e6 + 1, 1e6 + 2, 1e6 + 3])])
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
    with pytest.raises(NumericsError, match="quadrature level values"):
        resolvent_integral_check(triple, "a", BlockOperator([random_matrix(4, rng, 1e3)]))


def _large_norm_triple(case: str):
    if case == "dense":  # ||D|| about 3e4, ||a||, ||b|| about 5e2
        rng = np.random.default_rng(0)
        alg = VnAlgebra([Block(dim=6)])
        d = BlockOperator([random_selfadjoint(6, rng, 1e4)])
        a = BlockOperator([random_matrix(6, rng) * 100])
        b = BlockOperator([random_matrix(6, rng) * 100])
    else:  # eigenvalues 1e6 to 4e6 of both signs, ||a||, ||b|| about 4e3
        rng = np.random.default_rng(4)
        alg = VnAlgebra([Block(dim=4)])
        a = BlockOperator([random_matrix(4, rng, 1e3)])
        d = BlockOperator([np.diag([1e6, -2e6, 3e6, -4e6])])
        b = BlockOperator([random_matrix(4, rng, 1e3)])
    return make_triple(alg, {"1": alg.identity(), "a": a}, d), b


@pytest.mark.parametrize("case", ["dense", "diagonal"])
def test_large_norm_triples_are_checked_within_their_bound(case):
    """The quadrature budget is a thousandth of the pass bound
    max(1e-5, 1e-6 ||direct||), not the absolute 1e-8, so these pass where the
    absolute budget fell below rounding; the truncated tail is half the
    budget."""
    triple, b = _large_norm_triple(case)
    check = resolvent_integral_check(triple, "a", b)
    bound = max(1e-5, 1e-6 * check.direct_norm)
    assert bound > 1e-5 and check.residual <= bound
    assert check.truncation_bound == pytest.approx(bound / 2000.0, rel=1e-12)


def _tracks(kind: str):
    """A track and its block dimensions: a linear path, a 7-keyframe path with
    a keyframe at t = 0.5 on the sample grid, or the bounded transform of
    D + A_t that the CLI lists for an ``sf_unbounded`` document."""
    rng = np.random.default_rng(9)
    dims = [2, 3, 2, 1, 3, 2]

    def frame():
        return BlockOperator([random_selfadjoint(n, rng) for n in dims])

    if kind == "linear":
        return OperatorPath.linear(frame(), frame()).at, dims
    if kind == "keyframes":
        times = np.linspace(0.0, 1.0, 7)
        assert 0.5 in times.tolist() and 0.5 in np.linspace(0.0, 1.0, cli._TRACK_SAMPLES)
        return OperatorPath([(float(t), frame()) for t in times]).at, dims
    alg = VnAlgebra(Block(dim=n) for n in dims)
    ops = {"1": alg.identity(), "D": frame(), "A0": frame(), "A1": frame()}
    doc = {
        "task": "sf_unbounded",
        "algebra": cli.encode_algebra(alg),
        "operators": {name: cli.encode_operator(op) for name, op in ops.items()},
        "triple": {"generators": ["1"], "D": "D"},
        "path": {"keyframes": [{"t": 0.0, "op": "A0"}, {"t": 1.0, "op": "A1"}]},
    }
    _, track = cli.run_task(doc, cli._build_parser().parse_args(["run", "doc.json"]))
    return track, dims


def test_tracks_make_one_eigvalsh_call_per_block_dimension(tmp_path, monkeypatch):
    """Every sample fits one chunk here, so the tracks take one eigvalsh per
    block dimension, and the file is byte for byte the per-block listing."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for kind in ("linear", "keyframes", "sf_unbounded"):
        track, dims = _tracks(kind)
        lines = ["t,block,index,eigenvalue"]
        for t in np.linspace(0.0, 1.0, cli._TRACK_SAMPLES):
            for bi, block in enumerate(track(t).blocks):
                for ei, val in enumerate(eigvalsh(_herm(block))):
                    lines.append(f"{float(t):.17g},{bi},{ei},{float(val):.17g}")
        calls.clear()
        out = tmp_path / f"{kind}.csv"
        cli._write_tracks(track, str(out))
        assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n", kind
        assert len(calls) == len(set(dims)) == 3, kind


def test_tracks_hold_one_chunk_of_samples_at_a_time(tmp_path, monkeypatch):
    """One 256-dim block: all 201 samples would take about 200 MB, but the
    traced peak stays within the chunk budget and a few samples' size.  The
    eigenvalues are stubbed (zeros of the right shape), so the test measures
    the working set and not LAPACK time."""
    rng = np.random.default_rng(10)
    path = OperatorPath.linear(
        BlockOperator([random_selfadjoint(256, rng)]),
        BlockOperator([random_selfadjoint(256, rng)]),
    )
    sample = path.at(0.5)._stacks[0].nbytes
    assert sample * cli._TRACK_SAMPLES > 200e6
    calls = []

    def zeros(x, *args, **kwargs):
        calls.append(np.shape(x)[0])
        return np.zeros(np.shape(x)[:-1])

    monkeypatch.setattr(np.linalg, "eigvalsh", zeros)
    tracemalloc.start()
    try:
        cli._write_tracks(path.at, str(tmp_path / "tracks.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cli._TRACK_CHUNK_BYTES + 4 * sample
    assert sum(calls) == cli._TRACK_SAMPLES and len(calls) > 1


# -- the Frobenius screen and the zero shortcut ----------------------------------

# Each check by its key: the exact defect, the ``is_*`` and ``require_*`` method.
_CHECKS = {
    "sa": ("selfadjoint_defect", "is_selfadjoint", "require_selfadjoint"),
    "proj": ("projection_defect", "is_projection", "require_projection"),
    "uni": ("unitary_defect", "is_unitary", "require_unitary"),
}


@st.composite
def near_miss_checks(draw):
    """A check, tolerances, blocks whose defect for that check is scaled to lie
    between a quarter of ``tol.proj`` and four times ``tol.proj_eps(norm)``,
    and a factor between 1/4 and 4 for an absolute ``eps``.  The perturbation
    is rank one (Frobenius equals spectral) or full."""
    kind = draw(st.sampled_from(sorted(_CHECKS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if kind == "sa":
        scale = draw(st.floats(0.1, 100.0))
        blocks = [random_selfadjoint(n, rng, scale) for n in dims]
    elif kind == "proj":
        blocks = [random_projection(n, int(rng.integers(0, n + 1)), rng) for n in dims]
    else:
        blocks = [haar_unitary(n, rng) for n in dims]
    tol = Tolerances(proj=10.0 ** draw(st.floats(-10.0, -5.0)))
    norm = max(np.linalg.norm(b, 2) for b in blocks)
    low, high = tol.proj / 4, 4 * tol.proj_eps(norm)
    i = draw(st.integers(0, len(dims) - 1))
    n = dims[i]
    e = random_matrix(n, rng)
    if draw(st.booleans()):
        e = np.outer(e[:, 0], e[0].conj())
    e *= low * (high / low) ** draw(st.floats(0.0, 1.0)) / np.linalg.norm(e, 2)
    blocks[i] = blocks[i] + e
    return kind, tol, blocks, 2.0 ** draw(st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_miss_checks())
def test_screened_checks_decide_as_the_spectral_comparison(case):
    kind, tol, blocks, factor = case
    defect, is_name, require = _CHECKS[kind]
    reference = BlockOperator(blocks)
    value, bound = getattr(reference, defect)(), tol.proj_eps(reference.norm())
    assert getattr(BlockOperator(blocks), is_name)(tol) == (value <= bound)
    if value <= bound:
        getattr(BlockOperator(blocks), require)("x", tol)
    else:
        with pytest.raises(PreconditionError) as err:
            getattr(BlockOperator(blocks), require)("x", tol)
        assert err.value.fields["value"] == value and err.value.fields["bound"] == bound
    if kind == "uni":
        eps = value * factor
        if value <= eps:
            BlockOperator(blocks).require_unitary("x", tol, eps)
        else:
            with pytest.raises(PreconditionError):
                BlockOperator(blocks).require_unitary("x", tol, eps)


def _block_defects(kind: str, b: np.ndarray) -> list[np.ndarray]:
    """The defect matrices of one block, as the checks define them."""
    one = np.eye(len(b))
    if kind == "sa":
        return [b - b.conj().T]
    if kind == "proj":
        return [b @ b - b, b - b.conj().T]
    return [b.conj().T @ b - one, b @ b.conj().T - one]


def _one_frobenius(kind: str, blocks) -> float:
    """sqrt of the summed squared Frobenius norms of every block's defects."""
    return math.sqrt(sum(np.linalg.norm(m) ** 2 for b in blocks for m in _block_defects(kind, b)))


@st.composite
def screen_edges(draw):
    """A check, tolerances and two to four blocks, every one perturbed (rank
    one or full rank), scaled so that either the one Frobenius norm over all
    the defect matrices lies at 0.99 or 1.01 times the screen's threshold,
    half of ``tol.proj``, or the spectral defect at 0.99 or 1.01 times the
    check's bound ``tol.proj_eps(norm)``."""
    kind = draw(st.sampled_from(sorted(_CHECKS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    if kind == "sa":
        base = [random_selfadjoint(n, rng, 3.0) for n in dims]
    elif kind == "proj":
        base = [random_projection(n, int(rng.integers(0, n + 1)), rng) for n in dims]
    else:
        base = [haar_unitary(n, rng) for n in dims]
    tol = Tolerances(proj=10.0 ** draw(st.floats(-10.0, -6.0)))
    rank_one, on_screen = draw(st.booleans()), draw(st.booleans())
    factor = draw(st.sampled_from([0.99, 1.01]))
    moves = []
    for n in dims:
        e = random_matrix(n, rng)
        if rank_one:
            e = np.outer(e[:, 0], e[0].conj())
        moves.append(rng.uniform(0.2, 1.0) * e / np.linalg.norm(e, 2))

    def measure(c: float):
        blocks = [b + c * e for b, e in zip(base, moves)]
        if on_screen:
            return blocks, _one_frobenius(kind, blocks), 0.5 * tol.proj
        op = BlockOperator(blocks)
        return blocks, getattr(op, _CHECKS[kind][0])(), tol.proj_eps(op.norm())

    c = tol.proj
    for _ in range(3):  # the defects are linear in c up to O(c^2)
        _, value, threshold = measure(c)
        c *= factor * threshold / value
    return kind, tol, measure(c)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(screen_edges())
def test_the_screen_passes_only_checks_the_spectral_comparison_passes(case):
    """The screen passes exactly when the one Frobenius norm over all the
    defect matrices of all blocks is at most half of ``tol.proj``, and then the
    spectral defect is within its bound; every other check is decided, and
    reported, by the spectral defect."""
    kind, tol, blocks = case
    defect, is_name, require = _CHECKS[kind]
    reference = BlockOperator(blocks)
    value, bound = getattr(reference, defect)(), tol.proj_eps(reference.norm())
    checked = BlockOperator(blocks)
    assert getattr(checked, is_name)(tol) == (value <= bound)
    screened = kind not in checked._cache  # the spectral defect was not taken
    assert screened == (_one_frobenius(kind, blocks) <= 0.5 * tol.proj)
    if screened:
        assert value <= bound
    if value > bound:
        with pytest.raises(PreconditionError) as err:
            getattr(BlockOperator(blocks), require)("x", tol)
        assert err.value.fields["value"] == value and err.value.fields["bound"] == bound


@pytest.mark.parametrize("kind", sorted(_CHECKS))
def test_nan_blocks_fail_every_check(kind):
    blocks = [np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])]
    _, is_name, require = _CHECKS[kind]
    with pytest.raises(NumericsError):
        getattr(BlockOperator(blocks), is_name)()
    with pytest.raises(NumericsError):
        getattr(BlockOperator(blocks), require)("x")


@pytest.mark.parametrize("companion", [np.eye(2), np.eye(3)], ids=["same-dim", "other-dim"])
@pytest.mark.parametrize("first", [True, False], ids=["infinite-first", "infinite-last"])
@pytest.mark.parametrize("kind", sorted(_CHECKS))
def test_infinite_entries_fail_every_check_in_either_block_order(kind, first, companion):
    """The spectral norm of a matrix with an infinite entry is NaN, and a NaN
    norm anywhere makes the largest one NaN, whatever the block order."""
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    blocks = [bad, companion] if first else [companion, bad]
    _, is_name, require = _CHECKS[kind]
    assert np.isnan(BlockOperator(blocks).norm())
    with np.errstate(invalid="ignore"):
        try:
            assert getattr(BlockOperator(blocks), is_name)() is False
        except NumericsError:
            pass
        with pytest.raises((PreconditionError, NumericsError)):
            getattr(BlockOperator(blocks), require)("x")


def test_a_passing_screen_is_computed_once(monkeypatch):
    """The screen sums the squared entries of each defect matrix (one
    ``np.vdot`` per matrix: ``b b - b`` and ``b - b*`` of each of the two
    stacks) into one Frobenius norm, takes no ``np.linalg.norm``, and is kept
    for later checks of the same kind."""
    rng = np.random.default_rng(8)
    p = BlockOperator([random_projection(3, 1, rng), random_projection(2, 1, rng)])
    squares, norms = [], []
    vdot, norm = np.vdot, np.linalg.norm

    def counting_vdot(a, b):
        squares.append(np.shape(a))
        return vdot(a, b)

    def counting_norm(x, *args, **kwargs):
        norms.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np, "vdot", counting_vdot)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    p.require_projection("p")
    assert sorted(squares) == [(1, 2, 2), (1, 2, 2), (1, 3, 3), (1, 3, 3)]
    p.require_projection("p", Tolerances(proj=1e-9))
    assert p.is_projection(Tolerances(proj=1e-7))
    assert len(squares) == 4 and norms == []


@pytest.mark.parametrize("excess", [1 + 1e-6, 1.5, 1.99])
def test_rank_one_defects_above_their_bound_fail(excess):
    """A rank-one defect has equal Frobenius and spectral norms, so a screen
    looser than its bound would pass it."""
    w = np.array([1.0, 2.0j, -1.0]) / np.sqrt(6.0)
    rank_one = np.outer(w, w.conj())
    tol = Tolerances(proj=1e-8)
    # b - b* = excess * proj * rank_one, and ||b|| is tiny, so the bound is about proj
    skew = BlockOperator([0.5j * excess * tol.proj * rank_one])
    assert skew.selfadjoint_defect() > tol.proj_eps(skew.norm())
    assert not BlockOperator(skew.blocks).is_selfadjoint(tol)
    # b* b - 1 = (2 d + d^2) * rank_one for b = 1 + d * rank_one
    near = BlockOperator([np.eye(3) + 1e-8 * rank_one])
    eps = near.unitary_defect() / excess
    with pytest.raises(PreconditionError):
        BlockOperator(near.blocks).require_unitary("u", tol, eps)


def test_tiny_bounds_are_not_screened():
    # the squares of 1e-170 underflow, so its Frobenius norm computes as 0
    tol = Tolerances(proj=1e-300)
    a = BlockOperator([np.array([[0.0, 1e-170], [0.0, 0.0]])])
    assert np.linalg.norm(a.blocks[0]) == 0.0
    assert not a.is_selfadjoint(tol)
    with pytest.raises(PreconditionError):
        a.require_selfadjoint("a", tol)


def _count_norm2(monkeypatch) -> list:
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


def test_spectral_norm_of_zero_and_empty_matrices_is_exact(monkeypatch):
    calls = _count_norm2(monkeypatch)
    assert _spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert _spectral_norm(np.zeros((0, 0), dtype=complex)) == 0.0
    assert calls == []


def test_k0_of_difference_without_a_non_ideal_block_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(10)
    alg = VnAlgebra([Block(dim=3), Block(dim=2)])
    p = BlockOperator([random_projection(n, 1, rng) for n in alg.dims])
    q = BlockOperator([random_projection(n, 2, rng) for n in alg.dims])
    calls = _count_norm2(monkeypatch)
    assert k0_of_difference(p, q, alg).ranks == (-1, -1)
    assert calls == []


def test_passing_checks_take_no_svd(monkeypatch):
    rng = np.random.default_rng(5)
    h = BlockOperator([random_selfadjoint(4, rng), random_selfadjoint(2, rng)])
    p = chi(h)
    calls = _count_norm2(monkeypatch)
    h.require_selfadjoint("h")
    p.require_projection("chi(h)")
    assert h.is_selfadjoint() and p.is_projection()
    assert calls == []


def test_failing_checks_report_the_spectral_defect():
    rng = np.random.default_rng(6)
    blocks = [random_projection(3, 1, rng) + 1e-6 * random_matrix(3, rng)]
    p = BlockOperator(blocks)
    with pytest.raises(PreconditionError) as err:
        p.require_projection("p")
    reference = BlockOperator(blocks)
    value, bound = reference.projection_defect(), DEFAULT_TOL.proj_eps(reference.norm())
    assert str(err.value) == f"p must be a projection: {value:.3e} > {bound:.3e}"


# -- layering guard -------------------------------------------------------------


def _is_two(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def _is_linalg(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "linalg") or (
        isinstance(node, ast.Name) and node.id == "linalg"
    )


def _violations(tree: ast.AST, defect_compares: bool) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("eigh", "eigvalsh", "svd"):
                found.append(f"line {node.lineno}: {attr}")
            ord_arg = node.args[1] if len(node.args) > 1 else None
            ord_kw = [k.value for k in node.keywords if k.arg == "ord"]
            if attr == "norm" and (_is_two(ord_arg) or any(map(_is_two, ord_kw))):
                found.append(f"line {node.lineno}: norm(..., 2)")
            elif attr == "norm" and _is_linalg(node.func.value):
                found.append(f"line {node.lineno}: linalg.norm")
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name in ("norm", "*") for alias in node.names):
                found.append(f"line {node.lineno}: import of linalg.norm")
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 0.5
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.right, ast.Attribute)
            and node.right.right.attr == "T"
        ):
            found.append(f"line {node.lineno}: Hermitian part")
        if defect_compares and isinstance(node, ast.Compare):
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr.endswith("_defect")
                ):
                    found.append(f"line {node.lineno}: {call.func.attr}() compared")
    return found


# generators.py keeps its own numpy calls: the crossing oracle is the
# independent reference the calibration tests compare the flow against.
_KERNEL_OWNERS = ("model.py", "generators.py")


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name not in _KERNEL_OWNERS],
    ids=lambda p: p.name,
)
def test_spectral_kernel_stays_in_model(path):
    """Eigendecompositions, SVDs, matrix norms (spectral and Frobenius), the
    Hermitian part and defect thresholds live in model.py."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _violations(tree, defect_compares=True) == []


def test_guard_sees_the_patterns():
    source = (
        "w = np.linalg.eigvalsh(0.5 * (b + b.conj().T))\n"
        "n = float(np.linalg.norm(x, 2))\n"
        "m = np.linalg.norm(x, ord=2)\n"
        "if op.selfadjoint_defect() > eps: pass\n"
        "f = np.linalg.norm(x)\n"
        "g = scipy.linalg.norm(x, 'fro') + linalg.norm(x)\n"
        "from numpy.linalg import norm\n"
        "n = op.norm() + np.abs(x).max()\n"
        "s = np.linalg.svd(m, compute_uv=False)\n"
    )
    assert len(_violations(ast.parse(source), defect_compares=True)) == 10
    generators = ast.parse((SRC / "generators.py").read_text(encoding="utf-8"))
    assert _violations(generators, defect_compares=False)


def test_class_results_are_built_by_checked_class_of():
    """No module builds a CheckedClass directly: each comes from
    ``CheckedClass.of``, which differences the pair it carries."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        direct = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "CheckedClass"
        ]
        assert direct == [], path.name


# -- an operator is not assigned to once built ----------------------------------

_CONSTRUCTORS = ("__init__", "_like")


def _operator_assignments(tree: ast.AST) -> list[str]:
    """Assignments and deletions of a ``BlockOperator`` slot, by statement or by
    ``setattr`` / ``__setattr__``, outside the functions that build an operator."""
    slots, found = set(BlockOperator.__slots__), []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func not in _CONSTRUCTORS:
            name = None
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if called in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
                    name = node.args[1].value
            if name in slots:
                found.append(f"line {node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_operator_is_assigned_to_after_construction(path):
    """Only ``__init__`` and ``_like`` set an operator's slots; an operator has
    no ``__dict__``, so no other attribute can be set at all."""
    assert _operator_assignments(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_assignment_guard_sees_the_patterns():
    # the quotient image patched after _like, a tuple target, setattr, an
    # augmented assignment and a deletion, then the constructors and the caches it
    # must accept
    source = (
        "def _quotient(op, alg):\n"
        "    image = op._like([st for _, st in op._stacks_of(alg.nonideal_indices)])\n"
        "    image.dims = tuple(op.dims[i] for i in alg.nonideal_indices)\n"
        "    image._groups = _groups(image.dims)\n"
        "def _reseed(op, seed, ranks):\n"
        "    op._seed, op._ranks = seed, ranks\n"
        "    object.__setattr__(op, '_cache', {})\n"
        "    op._stacks += (seed,)\n"
        "    del op.dims\n"
        "def _like(dims, stacks):\n"
        "    op = object.__new__(BlockOperator)\n"
        "    op.dims, op._stacks, op._cache = dims, stacks, {}\n"
        "def norm(self):\n"
        "    self._cache['norm'] = _max_norm(self._stacks)\n"
    )
    assert len(_operator_assignments(ast.parse(source))) == 6
    # the slot the patch set is gone, and an operator refuses any other attribute
    with pytest.raises(AttributeError):
        BlockOperator([np.eye(1)])._groups = ()


def test_the_package_imports_without_scipy():
    """vnflow needs NumPy alone: importing it, or its CLI, loads no SciPy."""
    code = (
        "import sys, vnflow, vnflow.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# -- every eigendecomposition of an operator goes through _eig ------------------


def _eigh_uses(tree: ast.AST) -> list[str]:
    """Names, attributes and imports of ``_eigh``: calls, and the function
    passed on (``map(_eigh, ...)``), which would bypass an operator's seed."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "_eigh") or (
            isinstance(node, ast.Attribute) and node.attr == "_eigh"
        ):
            found.append(f"line {node.lineno}: _eigh")
        if isinstance(node, ast.ImportFrom) and any(a.name == "_eigh" for a in node.names):
            found.append(f"line {node.lineno}: import of _eigh")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "model.py"], ids=lambda p: p.name
)
def test_operators_are_eigendecomposed_through_eig(path):
    """``_eigh`` is called in model.py only: everywhere else an operator's
    eigendecomposition is ``op._eig()``, which returns the seed it was built
    from before it computes one."""
    assert _eigh_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_eig_guard_sees_the_patterns():
    # the three sites outside model.py before operators kept their basis, a
    # qualified call, then the reader it must accept
    source = (
        "from .model import _eigenprojector, _eigh, _gram\n"
        "eig = [_eigh(st) for st in e._stacks]\n"
        "bases = [vi[:, wi > 0.5] for wi, vi in zip(*_eigh(st))]\n"
        "eig = [model._eigh(st) for st in self.D._stacks]\n"
        "eig = op._eig()\n"
        "stacks = [_eigenprojector(v, keep(w)) for w, v in map(_eigh, stacks)]\n"
    )
    assert len(_eigh_uses(ast.parse(source))) == 5
    model = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert _eigh_uses(model)


# -- the flow forms no projection and re-decides no quotient ------------------------

_PROJECTION_ROUTES = ("chi", "kernel_pair", "proj_intersection", "relative_kernels")
# what the evaluate stage decided the quotient with before the certificate alone did
_QUOTIENT_DECIDERS = ("_svd", "_eigh", "check_blocks", "NotInIdealError", "ConsistencyError")


def _projection_imports(tree: ast.AST) -> list[str]:
    """Imports of the routes that form dense projections, of the
    ``projections`` module that holds them, and of the kernels and errors
    that decided the quotient off the ideal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _PROJECTION_ROUTES + _QUOTIENT_DECIDERS + ("projections",):
                    found.append(f"line {node.lineno}: {alias.name}")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if "projections" in a.name]
            found += [f"line {node.lineno}: {name}" for name in names]
    return found


def test_the_flow_forms_no_projection():
    """Steps are read off chi's counts on the ideal blocks: flow.py reaches
    none of the projection routes, and no eigenbasis, SVD or error that would
    re-decide what the certificate proved off the ideal."""
    assert _projection_imports(ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))) == []


def test_projection_guard_sees_the_patterns():
    # the flow's imports before its steps came from principal angles, a module
    # import, the kernels and errors of its former non-ideal checks, then the
    # imports it must accept
    source = (
        "from .projections import chi, kernel_pair, proj_intersection, relative_kernels\n"
        "from . import projections\n"
        "import vnflow.projections\n"
        "from .model import _chi_counts, _eigh, _eigvalsh, _svd, check_blocks\n"
        "from .errors import ConsistencyError, NotInIdealError, PartitionError, PathError\n"
    )
    assert len(_projection_imports(ast.parse(source))) == 11


# -- no per-block kernel loops where the blocks are stacked -----------------------

_KERNEL_CALLS = ("_eigh", "_eigvalsh", "_spectral_norm", "_svd")
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _reads_blocks(node: ast.AST, aliases: set[str]) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "blocks")
        or (isinstance(n, ast.Name) and n.id in aliases)
        for n in ast.walk(node)
    )


def _per_block_kernel_calls(tree: ast.AST) -> list[str]:
    """Kernel calls inside a loop or comprehension over ``.blocks``: the loop's
    iterable, or the call's arguments, read ``.blocks`` or a name bound to it."""
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _reads_blocks(node.value, set())
        for t in node.targets
        for target in ast.walk(t)
        if isinstance(target, ast.Name)
    }
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOPS):
            continue
        if isinstance(loop, ast.For):
            heads = [loop.iter]
        elif isinstance(loop, ast.While):
            heads = [loop.test]
        else:
            heads = [gen.iter for gen in loop.generators]
        over_blocks = any(_reads_blocks(h, aliases) for h in heads)
        for call in ast.walk(loop):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _KERNEL_CALLS and (
                over_blocks or any(_reads_blocks(arg, aliases) for arg in call.args)
            ):
                found.add(f"line {call.lineno}: {name}")
    return sorted(found)


# generators.py is left out for the reason given at _KERNEL_OWNERS.
@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "generators.py"],
    ids=lambda p: p.name,
)
def test_no_per_block_kernel_loops(path):
    """Blocks are stored in one stack per dimension, and the kernel takes a
    whole stack: a loop that calls it block by block is a stacked call missed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _per_block_kernel_calls(tree) == []


def test_per_block_guard_sees_the_loops_it_replaced():
    # the six per-block kernel loops of model.py, flow.py and projections.py
    # before the blocks were stacked, the three of triples.py and cli.py that
    # outlived that change, a per-block SVD, the corner loop of
    # is_corner_fredholm before the compressed corner was grouped by masks,
    # then two stacked loops it must accept
    source = (
        "def block_ranks(p):\n"
        "    for b in p.blocks:\n"
        "        w = _eigvalsh(b)\n"
        "def check_support(what, op, blocks, bound):\n"
        "    for i in blocks:\n"
        "        norm = _spectral_norm(op.blocks[i])\n"
        "def __missing__(self, t):\n"
        "    op = self.path.at(t)\n"
        "    w = np.concatenate([_eigvalsh(op.blocks[i]) for i in self.alg.nonideal_indices])\n"
        "def movement(a, b):\n"
        "    pa, pb = path.at(a).blocks, path.at(b).blocks\n"
        "    return np.array([_spectral_norm(pb[i] - pa[i]) for i in alg.nonideal_indices])\n"
        "def nearest_projection(e, tol):\n"
        "    for i, b in enumerate(e.blocks):\n"
        "        w, v = _eigh(b)\n"
        "def range_basis(p):\n"
        "    for b in p.blocks:\n"
        "        w, v = _eigh(b)\n"
        "def _resolvent_residual(a, d, alg):\n"
        "    for i in alg.nonideal_indices:\n"
        "        residual = max(residual, _spectral_norm(a.blocks[i] @ res))\n"
        "def resolvent_integral_check(triple, a, b):\n"
        "    eig = [_eigh(m) for m in d.blocks]\n"
        "def _write_tracks(track, out_file):\n"
        "    for t in np.linspace(0.0, 1.0, _TRACK_SAMPLES):\n"
        "        for bi, block in enumerate(track(t).blocks):\n"
        "            w = _eigvalsh(block)\n"
        "def polar_phase(op, tol):\n"
        "    svds = [_svd(b) for b in op.blocks]\n"
        "def is_corner_fredholm(s, p, q, alg, tol):\n"
        "    for i, pb, qb in zip(alg.nonideal_indices, p_bases, q_bases):\n"
        "        gap = _svd(qb.conj().T @ s.blocks[i] @ pb, compute_uv=False)[-1]\n"
        "def stacked(p, e):\n"
        "    for idx, st in p._stacks_of():\n"
        "        w = _eigvalsh(st)\n"
        "    return [_eigh(st) for st in e._stacks]\n"
    )
    assert len(_per_block_kernel_calls(ast.parse(source))) == 11


# -- one residual check ----------------------------------------------------------

_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _threshold_raises(tree: ast.AST) -> list[str]:
    """``raise`` statements under an ``if`` whose test is an ordering comparison."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(
            isinstance(c, ast.Compare) and any(isinstance(o, _ORDERING) for o in c.ops)
            for c in ast.walk(node.test)
        ):
            found += [
                f"line {r.lineno}: raise"
                for stmt in node.body + node.orelse
                for r in ast.walk(stmt)
                if isinstance(r, ast.Raise)
            ]
    return found


@pytest.mark.parametrize("name", ["corner.py", "pairing.py", "triples.py"])
def test_residual_checks_go_through_model(name):
    """Residual-versus-tolerance checks use ``model.check_residual``, which
    holds the one comparison and message format."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert _threshold_raises(tree) == []


def test_residual_guard_sees_the_pattern():
    source = (
        "if defect > eps:\n    raise PreconditionError('x')\n"
        "if not max(a, b) <= bound:\n    raise error(what)\n"
        "if ok:\n    pass\nelif n >= 2:\n    raise ModelError('y')\n"
        "if len(x) != n:\n    raise ModelError('a mismatch is not a residual')\n"
    )
    assert len(_threshold_raises(ast.parse(source))) == 3
    model = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert _threshold_raises(model)


# -- the CLI serializes, it does not recompute ------------------------------------

_LIBRARY_CHECKS = ("quotient_norm", "is_corner_fredholm", "intermediate_operator")


def _check_calls(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _LIBRARY_CHECKS:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_cli_does_not_recompute_library_checks():
    """Report residuals come from the library's result objects."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _check_calls(tree) == []


def test_cli_guard_sees_the_calls():
    source = (
        "r = quotient_norm(a - b, alg)\n"
        "f = corner.is_corner_fredholm(s, p, q, alg, tol)\n"
        "w = intermediate_operator(data, tol)\n"
    )
    assert len(_check_calls(ast.parse(source))) == 3


# -- the partition is proved from the certificate, not sampled --------------------

_PROJECTION_CALLS = ("chi", "spectral_projection")


def _reachable(tree: ast.Module, root: str) -> list[ast.AST]:
    """The module-level function or class ``root`` and every module-level
    function or class it names, transitively."""
    defs = {
        n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    seen: set[str] = set()
    todo = [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return [defs[name] for name in sorted(seen)]


def _projection_calls(tree: ast.Module, root: str) -> list[str]:
    found = []
    for node in _reachable(tree, root):
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _PROJECTION_CALLS:
                    found.append(f"{node.name}, line {call.lineno}: {name}")
    return found


def test_partition_computes_no_spectral_projection():
    """find_partition and its helpers work from gaps and movements only."""
    tree = ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))
    names = [n.name for n in _reachable(tree, "find_partition")]
    assert "find_partition" in names and "_Spectra" in names
    assert _projection_calls(tree, "find_partition") == []


def test_partition_guard_sees_the_calls():
    source = (
        "def find_partition(path):\n"
        "    return _helper(path, _Memo())\n"
        "def _helper(path, memo):\n"
        "    return chi(path.at(0.0))\n"
        "class _Memo(dict):\n"
        "    def __missing__(self, t):\n"
        "        return self.op.spectral_projection(keep)\n"
        "def _flow(path):\n"
        "    return chi(path.at(1.0))\n"
    )
    assert len(_projection_calls(ast.parse(source), "find_partition")) == 2
