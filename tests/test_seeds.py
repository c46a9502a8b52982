"""Decompositions taken once: seeds, seeded ranks, the kernel pair, quotient images.

An operator built from a basis keeps it (``apply`` with a real function,
``unitary_log``, the triple's D) and a projection built from a mask keeps the
mask counts as its ranks.  These tests check that every seed reconstructs its
operator, that seeded ranks are the eigenvalue counts they replace, that one
SVD gives both kernels, and how many decompositions each route takes.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vnflow import (
    Block,
    BlockOperator,
    OperatorPath,
    VnAlgebra,
    block_ranks,
    bounded_transform,
    chi,
    corner_index_result,
    dirac_circle,
    kernel_pair,
    make_pairing_data,
    nearest_projection,
    null_projection,
    pairing_via_boundary,
    quotient_norm,
    range_projection,
    sf_unbounded,
    sf_unitary,
    spectral_flow_result,
    unitary_log,
    weighted_model,
)
from vnflow.model import DEFAULT_TOL, _quotient, _selection
from vnflow.pairing import _LOG_TOL

from conftest import (
    haar_unitary,
    proj_intersection,
    random_certified_path,
    random_matrix,
    random_projection,
)

_EPS = np.finfo(float).eps
# few levels, so that eigenvalues and singular values repeat within a block
_LEVELS = (-2.0, -0.75, 0.0, 0.0, 0.25, 1.0, 1.0, 3.0)


@st.composite
def models(draw):
    """An algebra of ideal and non-ideal blocks of dimension 1..5, with a
    Hermitian operator on it whose eigenvalues repeat, and a random seed."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    ideal = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        v = haar_unitary(n, rng)
        w = np.array([draw(st.sampled_from(_LEVELS)) for _ in range(n)])
        blocks.append((v * w) @ v.conj().T)
    alg = VnAlgebra(Block(n, in_ideal=i) for n, i in zip(dims, ideal))
    return alg, BlockOperator(blocks), rng


def _reconstructs(op: BlockOperator) -> None:
    """The seed has orthonormal bases and gives back the operator's blocks
    within 8 n eps max(1, ||op||)."""
    assert op._seed is not None
    bound = 8 * max(op.dims) * _EPS * max(1.0, op.norm())
    per_block = op._in_block_order(zip(w, v) for w, v in op._seed)
    for block, (w, v) in zip(op.blocks, per_block):
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= bound
        assert np.abs(v @ np.diag(w) @ v.conj().T - block).max() <= bound


def _ranks_are_eigenvalue_counts(p: BlockOperator) -> None:
    assert p._ranks is not None
    counts = tuple(int(np.count_nonzero(np.linalg.eigvalsh(b) >= 0.5)) for b in p.blocks)
    assert block_ranks(p) == counts


@settings(max_examples=60, deadline=None)
@given(models())
def test_seeds_reconstruct_and_seeded_ranks_are_counts(model):
    alg, a, rng = model
    for fn in (np.tanh, lambda w: w * w - 1.0, lambda w: np.cos(np.pi * w)):
        _reconstructs(a.apply(fn))
    transform = bounded_transform(a)
    _reconstructs(transform)
    u = a.apply(lambda w: np.exp(0.5j * np.pi * w))  # a complex function: no seed
    assert u._seed is None
    _reconstructs(unitary_log(u))

    s = BlockOperator([random_matrix(n, rng) for n in a.dims]) @ a
    p, q = chi(a), chi(-a)
    projections = [
        p, q, chi(transform), a.spectral_projection(lambda w: np.abs(w) < 0.5),
        null_projection(s), range_projection(s), *kernel_pair(s), proj_intersection(p, q),
        nearest_projection(0.9 * p + 0.05 * alg.identity()),
    ]
    for proj in projections:
        _ranks_are_eigenvalue_counts(proj)
    # sums, products, adjoints and quotient images carry no seed
    for derived in (p + q, p @ q, transform.H, _quotient(transform, alg)):
        assert derived._seed is None and derived._ranks is None


@settings(max_examples=60, deadline=None)
@given(models())
def test_the_kernel_pair_is_the_two_kernels(model):
    """Singular values are exact levels: 0 or at least 1/4, far from the cut."""
    alg, a, rng = model
    blocks = []
    for n in a.dims:
        levels = np.abs(np.array(_LEVELS[: n]))[rng.permutation(n)]
        blocks.append((haar_unitary(n, rng) * levels) @ haar_unitary(n, rng).conj().T)
    s = BlockOperator(blocks)
    ker, coker = kernel_pair(s)
    assert ker.allclose(null_projection(s), atol=0.0)  # the same SVD
    assert coker.allclose(null_projection(s.H), atol=1e-10)
    assert block_ranks(ker) == block_ranks(coker) == block_ranks(null_projection(s.H))


@settings(max_examples=60, deadline=None)
@given(models())
def test_products_of_quotient_images_are_the_images_of_products(model):
    alg, a, rng = model
    b = BlockOperator([random_matrix(n, rng) for n in a.dims])
    qa, qb = _quotient(a, alg), _quotient(b, alg)
    assert qa.dims == tuple(a.dims[i] for i in alg.nonideal_indices)
    assert (qa @ qb - qb @ qa).norm() == quotient_norm(a @ b - b @ a, alg)
    assert (qb.H @ qb).norm() == quotient_norm(b.H @ b, alg)


@st.composite
def mixed_models(draw):
    """An algebra in which one block dimension has both ideal and non-ideal
    blocks, in drawn order, with a random operator on it."""
    shared = draw(st.integers(1, 4))
    others = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=4))
    blocks = draw(st.permutations([(shared, True), (shared, False), *others]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alg = VnAlgebra(Block(n, in_ideal=i) for n, i in blocks)
    return alg, BlockOperator([random_matrix(n, rng) for n in alg.dims])


@settings(max_examples=60, deadline=None)
@given(mixed_models())
def test_a_quotient_image_is_the_operator_of_the_non_ideal_blocks(model):
    alg, a = model
    image = _quotient(a, alg)
    built = BlockOperator([a.blocks[i] for i in alg.nonideal_indices])
    assert image.dims == built.dims
    for mine, ref in ((image._stacks, built._stacks), (image.blocks, built.blocks)):
        assert all(np.array_equal(x, y) for x, y in zip(mine, ref, strict=True))
    assert quotient_norm(a, alg) == built.norm()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
def test_unitary_log_of_cyclic_shifts_keeps_its_spectrum_below_one(k):
    """An argument just below zero used to round up to 2 pi, a q-eigenvalue 1."""
    for n in range(8, 65):
        u = np.zeros((n, n), dtype=complex)
        u[(np.arange(n) + k) % n, np.arange(n)] = 1.0
        q = unitary_log(BlockOperator([u]))
        assert np.linalg.eigvalsh(q.blocks[0]).max() <= 1.0 - 1e-12, n


# fixed angle levels of the hard spectra: degenerate, and within 1e-13 of the
# branch cut on either side; "three-valued" draws three levels per block and
# "generic" draws every angle
_LEVELS_OF = {
    "plus-minus-one": (0.0, np.pi),
    "identity": (0.0,),
    "at the cut": (0.0, 1e-13, -1e-13, 4e-14, -4e-14, np.pi / 2),
}


@st.composite
def hard_unitaries(draw):
    """Ideal and non-ideal blocks of mixed dimensions (so stacks of several
    blocks), each a unitary ``v diag(e^(i theta)) v*`` of one kind of
    spectrum (the identity exactly), with a projection that commutes with it
    on the non-ideal blocks and is random on the ideal ones."""
    dims = draw(st.lists(st.sampled_from((1, 2, 3, 5, 8)), min_size=1, max_size=5))
    ideal = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, ps = [], []
    for n, in_ideal in zip(dims, ideal):
        kind = draw(st.sampled_from(("three-valued", "generic", *_LEVELS_OF)))
        v = haar_unitary(n, rng)
        if kind == "generic":
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
        else:
            levels = _LEVELS_OF.get(kind) or tuple(rng.uniform(0.0, 2.0 * np.pi, 3))
            theta = np.array([draw(st.sampled_from(levels)) for _ in range(n)])
        u = (v * np.exp(1j * theta)) @ v.conj().T
        us.append(np.eye(n, dtype=complex) if kind == "identity" else u)
        kept = v[:, : draw(st.integers(0, n))]
        ps.append(random_projection(n, kept.shape[1], rng) if in_ideal else kept @ kept.conj().T)
    alg = VnAlgebra(Block(n, in_ideal=i) for n, i in zip(dims, ideal))
    return alg, BlockOperator(us), BlockOperator(ps)


def _svd_class(lift: BlockOperator, alg: VnAlgebra) -> tuple[int, ...]:
    """dim N(L) - dim N(L*) on each ideal block, from numpy's singular values
    at the kernel cut.  A finite block has an index of 0, so this is the class
    every pairing on the model must report."""
    cut = DEFAULT_TOL.kernel_eps(lift.norm())
    ranks = []
    for i in alg.ideal_indices:
        block = lift.blocks[i]
        ker, coker = (
            np.count_nonzero(np.linalg.svd(m, compute_uv=False) <= cut)
            for m in (block, block.conj().T)
        )
        ranks.append(ker - coker)
    return tuple(ranks)


@settings(max_examples=80, deadline=None)
@given(hard_unitaries())
def test_unitary_log_of_hard_spectra(case):
    alg, u, p = case
    q = unitary_log(u)
    for w, _ in q._seed:
        assert np.all(w >= 0.0) and np.all(w < 1.0)
    for n, block in zip(q.dims, q.blocks):
        w = np.linalg.eigvalsh(block)
        assert w.min() >= -8 * n * _EPS and w.max() <= 1.0 - 1e-12
    _reconstructs(q)
    assert (q.apply(lambda w: np.exp(2j * np.pi * w)) - u).norm() <= _LOG_TOL

    data = make_pairing_data(alg, p, u)
    one = alg.identity()
    assert pairing_via_boundary(data).ranks == _svd_class(p @ u @ p + (one - p), alg)


# -- how many decompositions each route takes ------------------------------------


def _counting(monkeypatch) -> dict[str, list]:
    """Record the calls of each decomposition: numpy's eigh, eigvalsh and svd,
    SciPy's Schur form, and spectral norms (``np.linalg.norm`` with ord 2)."""
    calls: dict[str, list] = {name: [] for name in ("eigh", "eigvalsh", "svd", "schur", "norm2")}
    kernels = [(np.linalg, name) for name in ("eigh", "eigvalsh", "svd")]
    for module, name in kernels + [(scipy.linalg, "schur")]:

        def counted(a, *args, _name=name, _kernel=getattr(module, name), **kwargs):
            calls[_name].append(np.shape(a))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def norm(a, *args, _kernel=np.linalg.norm, **kwargs):
        if (args[0] if args else kwargs.get("ord")) == 2:
            calls["norm2"].append(np.shape(a))
        return _kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def _budget(calls: dict[str, list]) -> dict[str, int]:
    budget = {name: len(c) for name, c in calls.items()}
    for c in calls.values():
        c.clear()
    return budget


def test_route_budgets_on_a_single_block_dirac_triple(monkeypatch):
    calls = _counting(monkeypatch)
    triple, u = dirac_circle(6, 2)  # the cyclic shift on a window has class 0
    # D once, read by its bounded transform; chi(F) reads F's seed; the
    # commutator norms wait for their first read
    assert _budget(calls) == {"eigh": 1, "eigvalsh": 0, "svd": 0, "schur": 0, "norm2": 0}

    # one kernel pair for the lift p u p + (1 - p); p carries its ranks
    assert sf_unitary(triple, u).ranks == (0,)
    assert _budget(calls) == {"eigh": 0, "eigvalsh": 0, "svd": 1, "schur": 0, "norm2": 0}

    # two bounded transforms of D + A_t, and one eigendecomposition of
    # p0 - p1 for both intersections
    path = OperatorPath.linear(triple.alg.zero(), u.H @ triple.D @ u - triple.D)
    assert sf_unbounded(triple, path).ranks == (0,)
    assert _budget(calls) == {"eigh": 3, "eigvalsh": 0, "svd": 0, "schur": 0, "norm2": 0}

    # q is built from one eigvalsh of (u + u*)/2 and one eigh of a Cayley
    # transform, and keeps that basis, so exp, cos and sin of q take no more;
    # one kernel pair for the intermediate operator
    data = make_pairing_data(triple.alg, triple.p, u)
    assert pairing_via_boundary(data).ranks == (0,)
    assert _budget(calls) == {"eigh": 1, "eigvalsh": 1, "svd": 1, "schur": 0, "norm2": 0}

    # library projections carry their ranks
    assert block_ranks(triple.p) == (7,)
    assert block_ranks(null_projection(triple.D)) == (1,)
    assert _budget(calls) == {"eigh": 0, "eigvalsh": 0, "svd": 1, "schur": 0, "norm2": 0}

    # the commutator norms of u and u* on first read; that of the unit is 0
    # without a norm, and a second read takes none
    assert triple.commutator_norms["1"] == 0.0
    assert _budget(calls)["norm2"] == 2
    assert triple.commutator_norms["u"] > 0.0
    assert _budget(calls)["norm2"] == 0
    assert isinstance(triple.commutator_norms, MappingProxyType)


def _bisecting_path():
    """A mixed path whose one segment is split once, at t = 1/2."""
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    return alg, OperatorPath.linear(
        BlockOperator([np.diag([1.0, -1.0]), np.diag([3.0, -0.1])]),
        BlockOperator([np.diag([-1.0, -1.0]), np.diag([0.1, -3.0])]),
    )


@pytest.mark.parametrize(
    "case",
    [(seed, n) for n in (2, 7) for seed in range(6)] + ["bisecting"],
    ids=lambda case: case if isinstance(case, str) else f"seed{case[0]}-keyframes{case[1]}",
)
def test_a_flow_takes_one_stacked_call_per_stack_and_one_per_bisection(monkeypatch, case):
    """The flow takes no eigendecomposition and no SVD.  It takes one
    ``eigvalsh`` per stack of ideal blocks over all partition points (chi's
    counts), one per stack of non-ideal blocks over all keyframes (the certify
    stage's spectra), and one more per such stack at each midpoint that
    certify or the partition bisects at; and one spectral norm per stack of
    non-ideal blocks over all keyframe segments, and one more per such stack
    for each half of a segment that certify bisects.  With 7 keyframes one
    call per sample would take 7 ``eigvalsh`` and 6 norms per stack."""
    alg, path = _bisecting_path() if case == "bisecting" else random_certified_path(*case)
    dims = path.keyframes[0][1].dims
    ideal = len(_selection(dims, alg.ideal_indices))
    nonideal = len(_selection(dims, alg.nonideal_indices))
    calls = _counting(monkeypatch)
    result = spectral_flow_result(path, alg)
    # midpoints read by certify's or find_partition's bisection; each certify
    # bisection adds one segment and moves two halves
    midpoints = len(result.certificate.spectra) - len(path.times)
    movements = 2 * (len(result.certificate.segments) - (len(path.times) - 1))
    assert _budget(calls) == {
        "eigh": 0,
        "eigvalsh": ideal + nonideal * (1 + midpoints),
        "svd": 0,
        "schur": 0,
        "norm2": nonideal * (1 + movements),
    }
    if case == "bisecting":
        assert (midpoints, movements, ideal, nonideal) == (3, 2, 1, 1)


def test_a_corner_index_takes_one_svd_per_mask_group(monkeypatch):
    """Per stack, one eigendecomposition each of p and q, and one SVD of the
    compressed corners of each group of blocks with the same pair of range
    masks; no eigendecomposition of p + ker or q + coker."""
    rng = np.random.default_rng(7)
    # (r_p, r_q) per block: the 3x3 stack holds three mask groups, the 2x2 two
    dims, ideal = [3, 3, 3, 2, 3, 2], [True, True, False, False, True, True]
    ranks = [(2, 1), (1, 2), (1, 1), (1, 1), (2, 1), (0, 2)]
    p = BlockOperator([random_projection(n, rp, rng) for n, (rp, _) in zip(dims, ranks)])
    q = BlockOperator([random_projection(n, rq, rng) for n, (_, rq) in zip(dims, ranks)])
    s = q @ BlockOperator([random_matrix(n, rng) for n in dims]) @ p
    alg = weighted_model(dims, [1.0] * len(dims), ideal)
    calls = _counting(monkeypatch)
    result, report = corner_index_result(s, p, q, alg)
    assert report.fredholm and result.k0.ranks == (1, -1, 1, -2)
    assert _budget(calls) == {"eigh": 4, "eigvalsh": 0, "svd": 5, "schur": 0, "norm2": 0}
