"""Skew-corner Fredholm detection, the index, and the boundary map."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnflow import (
    BlockOperator,
    NotInIdealError,
    NumericsError,
    PreconditionError,
    block_ranks,
    boundary_map,
    boundary_map_result,
    corner_index,
    corner_index_result,
    is_corner_fredholm,
    k0_of_difference,
    null_projection,
    polar_phase,
    quotient_norm,
    weighted_model,
)

from conftest import (
    haar_unitary,
    op,
    proj_intersection,
    random_matrix,
    random_projection,
    single_block_alg,
)


def _svd_kernel_rank(mat: np.ndarray, eps: float = 1e-10) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s <= eps))


def _same(a: BlockOperator, b: BlockOperator) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks, strict=True))


# -- Fredholm detection -------------------------------------------------------


def test_identity_is_fredholm():
    alg = single_block_alg(3, ideal=False)
    one = alg.identity()
    report = is_corner_fredholm(one, one, one, alg)
    assert report.fredholm
    assert report.min_gap == pytest.approx(1.0)


def test_all_ideal_is_vacuously_fredholm():
    alg = single_block_alg(3)
    one = alg.identity()
    z = alg.zero()
    assert is_corner_fredholm(z, one, one, alg).fredholm


def test_zero_on_nonideal_corner_is_not_fredholm():
    alg = single_block_alg(2, ideal=False)
    p = op(np.diag([1.0, 0.0]))
    report = is_corner_fredholm(alg.zero(), p, p, alg)
    assert not report.fredholm
    assert report.min_gap == pytest.approx(0.0)


def test_corner_membership_is_required():
    alg = single_block_alg(2, ideal=False)
    p = op(np.diag([1.0, 0.0]))
    q = op(np.diag([0.0, 1.0]))
    with pytest.raises(PreconditionError):
        is_corner_fredholm(alg.identity(), p, q, alg)


# -- the index ------------------------------------------------------------------


def test_index_of_unitary_is_zero():
    rng = np.random.default_rng(0)
    alg = single_block_alg(4)
    one = alg.identity()
    u = op(haar_unitary(4, rng))
    assert corner_index(u, one, one, alg).is_zero


def test_index_of_diagonal_with_symmetric_kernel():
    alg = single_block_alg(2)
    one = alg.identity()
    s = op(np.diag([1.0, 0.0]))
    assert corner_index(s, one, one, alg).is_zero


def test_truncated_shift_has_zero_full_corner_index():
    m = 5
    shift = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        shift[j + 1, j] = 1.0
    alg = single_block_alg(m)
    one = alg.identity()
    # oracle: kernel and cokernel ranks straight from singular values
    assert _svd_kernel_rank(shift) == 1
    assert _svd_kernel_rank(shift.conj().T) == 1
    assert corner_index(op(shift), one, one, alg).is_zero


def test_compressed_corner_with_rank_drop_has_nonzero_index():
    # p projects on 3 basis vectors, q on the 2 shifted ones, S the shift corner
    m = 4
    shift = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        shift[j + 1, j] = 1.0
    p = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    s = q @ shift @ p
    alg = single_block_alg(m)
    # oracle: brute-force kernel of the corner restriction
    ker = _svd_kernel_rank(s) - 1  # one kernel dim comes from (1 - p)
    coker = _svd_kernel_rank(s.conj().T) - 2  # two come from (1 - q)
    assert (ker, coker) == (1, 0)
    index = corner_index(op(s), op(p), op(q), alg)
    assert index.ranks == (1,)


def _random_fredholm_pair(rng: np.random.Generator):
    """Algebra plus composable corner-Fredholm operators S in qNp, T in rNq."""
    n_blocks = int(rng.integers(1, 4))
    dims, ideal = [], []
    for _ in range(n_blocks):
        dims.append(int(rng.integers(2, 7)))
        ideal.append(bool(rng.uniform() < 0.7))
    if not any(ideal):
        ideal[0] = True
    alg = weighted_model(dims, [1.0] * n_blocks, ideal)

    def projections():
        ps, qs, rs = [], [], []
        for d, is_ideal in zip(dims, ideal):
            if is_ideal:
                rp, rq, rr = (int(rng.integers(0, d + 1)) for _ in range(3))
            else:
                rp = rq = rr = int(rng.integers(1, d + 1))
            ps.append(random_projection(d, rp, rng))
            qs.append(random_projection(d, rq, rng))
            rs.append(random_projection(d, rr, rng))
        return BlockOperator(ps), BlockOperator(qs), BlockOperator(rs)

    for _ in range(50):
        p, q, r = projections()
        s = q @ BlockOperator([random_matrix(d, rng) for d in dims]) @ p
        t = r @ BlockOperator([random_matrix(d, rng) for d in dims]) @ q
        ok_s = is_corner_fredholm(s, p, q, alg)
        ok_t = is_corner_fredholm(t, q, r, alg)
        ok_ts = is_corner_fredholm(t @ s, p, r, alg)
        if (
            ok_s.fredholm
            and ok_t.fredholm
            and ok_ts.fredholm
            and min(ok_s.min_gap, ok_t.min_gap, ok_ts.min_gap) > 1e-6
        ):
            return alg, p, q, r, s, t
    raise AssertionError("could not build a composable Fredholm pair")


def test_index_additivity_random():
    rng = np.random.default_rng(100)
    for _ in range(100):
        alg, p, q, r, s, t = _random_fredholm_pair(rng)
        total = corner_index(t @ s, p, r, alg)
        assert corner_index(t, q, r, alg) + corner_index(s, p, q, alg) == total


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_index_additivity_property(seed):
    # ind(T S) = ind(S) + ind(T) for corner operators p -> q -> r
    alg, p, q, r, s, t = _random_fredholm_pair(np.random.default_rng(seed))
    total = corner_index(t @ s, p, r, alg)
    assert total == corner_index(s, p, q, alg) + corner_index(t, q, r, alg)


def test_index_matches_phase_index():
    rng = np.random.default_rng(101)
    for _ in range(25):
        alg, p, q, _, s, _ = _random_fredholm_pair(rng)
        assert corner_index(s, p, q, alg) == corner_index(polar_phase(s), p, q, alg)


def test_index_homotopy_invariance_small_perturbation():
    rng = np.random.default_rng(102)
    for _ in range(25):
        alg, p, q, _, s, _ = _random_fredholm_pair(rng)
        gap = is_corner_fredholm(s, p, q, alg).min_gap
        bump = q @ BlockOperator(
            [random_matrix(d, rng) for d in alg.dims]
        ) @ p
        scale = min(0.25 * gap / max(bump.norm(), 1e-12), 1.0)
        bump = scale * bump
        base = corner_index(s, p, q, alg)
        for step in np.linspace(0.0, 1.0, 5):
            moved = s + step * bump
            assert is_corner_fredholm(moved, p, q, alg).fredholm
            assert corner_index(moved, p, q, alg) == base


def test_close_projection_corners_are_fredholm():
    # quotient distance below one makes the compression qp corner Fredholm
    rng = np.random.default_rng(103)
    alg = weighted_model([3, 4], [1.0, 1.0], [True, False])
    for _ in range(20):
        p_ni = random_projection(4, 2, rng)
        h = np.diag(rng.uniform(-0.2, 0.2, size=4)).astype(complex)
        w, v = np.linalg.eigh(h)
        rot = (v * np.exp(1j * w)) @ v.conj().T
        q_ni = rot.conj().T @ p_ni @ rot
        p = BlockOperator([random_projection(3, 2, rng), p_ni])
        q = BlockOperator([random_projection(3, 1, rng), q_ni])
        assert quotient_norm(p - q, alg) < 1.0
        assert is_corner_fredholm(q @ p, p, q, alg).fredholm


def test_zero_index_for_nearby_projections():
    rng = np.random.default_rng(104)
    alg = single_block_alg(5)
    for _ in range(20):
        p_mat = random_projection(5, 3, rng)
        h = 0.2 * np.eye(5) * rng.uniform(0.1, 1.0)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        skew = 0.1 * (g - g.conj().T)
        w, v = np.linalg.eigh(1j * skew)
        rot = (v * np.exp(-1j * w)) @ v.conj().T
        q_mat = rot.conj().T @ p_mat @ rot
        p, q = op(p_mat), op(q_mat)
        assert (p - q).norm() < 1.0
        assert corner_index(p @ q, q, p, alg).is_zero


# -- boundary map -----------------------------------------------------------------


def test_boundary_of_unitary_is_zero():
    rng = np.random.default_rng(105)
    alg = weighted_model([3, 3], [1.0, 1.0], [True, False])
    u = BlockOperator([haar_unitary(3, rng), haar_unitary(3, rng)])
    assert boundary_map(u, alg).is_zero


def test_boundary_requires_quotient_unitary():
    alg = single_block_alg(2, ideal=False)
    with pytest.raises(PreconditionError):
        boundary_map(op(np.diag([1.0, 0.5])), alg)


def test_boundary_unitarity_error_carries_fields():
    alg = single_block_alg(2, ideal=False)
    with pytest.raises(PreconditionError) as err:
        boundary_map(op(np.diag([1.0, 0.5])), alg)
    fields = err.value.fields
    assert fields["what"] == "quotient image of the lift must be unitary (left)"
    assert fields["value"] == pytest.approx(0.75)
    assert fields["bound"] == 1e-8
    assert str(err.value).endswith(": 7.500e-01 > 1.000e-08")


def test_boundary_of_diagonal_lift():
    alg = single_block_alg(2)
    s = op(np.diag([0.0, 1.0]))
    # oracle: kernel ranks of S and S* agree for a square block
    assert _svd_kernel_rank(s.blocks[0]) == _svd_kernel_rank(s.blocks[0].conj().T) == 1
    assert boundary_map(s, alg).is_zero


def test_boundary_class_per_block_balances():
    # per block, kernel and cokernel of a square matrix always have equal rank,
    # so the boundary class of any quotient unitary lift vanishes identically
    rng = np.random.default_rng(106)
    alg = weighted_model([4, 3], [1.0, 0.5])
    for _ in range(20):
        mats = []
        for d in alg.dims:
            rank = int(rng.integers(1, d + 1))
            a = random_matrix(d, rng)[:, :rank]
            b = random_matrix(d, rng)[:rank, :]
            mats.append(a @ b)
        s = BlockOperator(mats)
        assert boundary_map(s, alg).is_zero


# -- result objects ------------------------------------------------------------------


def test_boundary_map_result_carries_the_checked_residuals():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    s = BlockOperator([np.diag([1.0, 0.0]), np.diag([1.0, 1.0 + 1e-10])])
    result = boundary_map_result(s, alg)
    assert result.k0 == boundary_map(s, alg)
    assert list(result.residuals) == ["quotient_unitarity_left", "quotient_unitarity_right"]
    for value in result.residuals.values():
        assert value == pytest.approx(2e-10, rel=1e-3)
    with pytest.raises(TypeError):
        result.residuals["quotient_unitarity_left"] = 0.0


def test_corner_index_result_returns_its_fredholm_report():
    alg = weighted_model([4, 2], [1.0, 1.0], [True, False])
    shift = np.zeros((4, 4))
    for j in range(3):
        shift[j + 1, j] = 1.0
    p = BlockOperator([np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(2)])
    q = BlockOperator([np.diag([0.0, 1.0, 1.0, 0.0]), np.eye(2)])
    s = q @ BlockOperator([shift, np.diag([2.0, 0.5])]) @ p
    result, report = corner_index_result(s, p, q, alg)
    assert result.k0 == corner_index(s, p, q, alg)
    assert result.k0.ranks == (1,)
    assert dict(result.residuals) == {}
    assert report == is_corner_fredholm(s, p, q, alg)
    assert report.min_gap == pytest.approx(0.5)


def test_corner_index_result_carries_the_kernel_intersections():
    alg = weighted_model([4, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(2)])
    q = BlockOperator([np.diag([0.0, 1.0, 1.0, 0.0]), np.eye(2)])
    s = q @ BlockOperator([np.diag([1.0, 1.0, 1.0], -1), np.diag([2.0, 0.5])]) @ p
    result, _ = corner_index_result(s, p, q, alg)
    assert _same(result.kernel, proj_intersection(null_projection(s), p))
    assert _same(result.cokernel, proj_intersection(null_projection(s.H), q))
    assert (block_ranks(result.kernel), block_ranks(result.cokernel)) == ((1, 0), (0, 0))
    assert result.k0.ranks == (1,)


def test_boundary_map_result_carries_the_kernels_it_differences():
    # the truncated shift has kernel e3 and cokernel e1 on the ideal block
    alg = weighted_model([3, 2], [1.0, 1.0], [True, False])
    shift = np.diag([1.0, 1.0], -1)
    s = BlockOperator([shift, np.eye(2)])
    result = boundary_map_result(s, alg)
    assert _same(result.kernel, null_projection(s))
    assert _same(result.cokernel, null_projection(s.H))
    assert result.kernel.allclose(BlockOperator([np.diag([0.0, 0.0, 1.0]), np.zeros((2, 2))]))
    assert result.cokernel.allclose(BlockOperator([np.diag([1.0, 0.0, 0.0]), np.zeros((2, 2))]))
    assert result.k0 == k0_of_difference(result.kernel, result.cokernel, alg)
    assert result.k0 == boundary_map(s, alg)
    # the projections take no part in repr or equality
    assert replace(result, kernel=alg.identity()) == result
    assert "kernel" not in repr(result)


def test_empty_nonideal_corner_is_fredholm_with_infinite_gap():
    # p and q vanish on the non-ideal block: the corner there is 0 x 0
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([np.eye(2), np.zeros((2, 2))])
    q = BlockOperator([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    s = BlockOperator([np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))])
    report = is_corner_fredholm(s, p, q, alg)
    assert report.fredholm
    assert report.min_gap == np.inf
    assert [(r.block, r.domain_rank, r.codomain_rank) for r in report.blocks] == [(1, 0, 0)]
    assert corner_index(s, p, q, alg).ranks == (1,)


def test_rank_mismatched_empty_corner_is_not_fredholm():
    # p has rank 1 and q rank 0 on the non-ideal block: the corner is 0 x 1
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([np.eye(2), np.diag([1.0, 0.0])])
    q = BlockOperator([np.eye(2), np.zeros((2, 2))])
    s = BlockOperator([np.eye(2), np.zeros((2, 2))])
    report = is_corner_fredholm(s, p, q, alg)
    assert not report.fredholm
    assert report.min_gap == 0.0
    block = report.blocks[0]
    assert (block.domain_rank, block.codomain_rank, block.invertible) == (1, 0, False)
    with pytest.raises(PreconditionError, match="operator is not corner Fredholm"):
        corner_index(s, p, q, alg)


# -- the compressed corner -------------------------------------------------------


@st.composite
def corner_models(draw):
    """S in the corner qNp with corner rank r per block, as the benchmark's
    index documents build it: on an ideal block any ranks r_p, r_q and
    r <= min(r_p, r_q), on a non-ideal one r_p = r_q = r >= 1.  Blocks of
    dimension 2 or 3 share stacks, so a stack holds several mask groups."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5))
    ideal = [True] + draw(st.lists(st.booleans(), min_size=len(dims) - 1, max_size=len(dims) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ps, qs, ss, ranks = [], [], [], []
    for dim, is_ideal in zip(dims, ideal):
        if is_ideal:
            rp, rq = draw(st.integers(0, dim)), draw(st.integers(0, dim))
            r = draw(st.integers(0, min(rp, rq)))
        else:
            rp = rq = r = draw(st.integers(1, dim))
        vp, vq = haar_unitary(dim, rng)[:, :rp], haar_unitary(dim, rng)[:, :rq]
        core = np.zeros((rq, rp), dtype=complex)
        core[:r, :r] = haar_unitary(r, rng) * rng.uniform(0.5, 1.5, size=r)
        ps.append(vp @ vp.conj().T)
        qs.append(vq @ vq.conj().T)
        ss.append(vq @ core @ vp.conj().T)
        ranks.append((rp, rq, r))
    alg = weighted_model(dims, [1.0] * len(dims), ideal)
    return alg, BlockOperator(ss), BlockOperator(ps), BlockOperator(qs), ranks


@settings(max_examples=80, deadline=None)
@given(corner_models())
def test_the_compressed_corner_gives_the_kernel_intersections(model):
    alg, s, p, q, ranks = model
    result, report = corner_index_result(s, p, q, alg)
    assert result.k0.ranks == tuple(ranks[i][0] - ranks[i][1] for i in alg.ideal_indices)
    assert block_ranks(result.kernel) == tuple(rp - r for rp, _, r in ranks)
    assert block_ranks(result.cokernel) == tuple(rq - r for _, rq, r in ranks)
    assert result.kernel.allclose(proj_intersection(null_projection(s), p), atol=1e-8)
    assert result.cokernel.allclose(proj_intersection(null_projection(s.H), q), atol=1e-8)
    assert [(r.domain_rank, r.codomain_rank) for r in report.blocks] == [
        ranks[i][:2] for i in alg.nonideal_indices
    ]


_SVD_FAILED = (NumericsError, "spectral norm failed: SVD did not converge")


@pytest.mark.parametrize(
    "block, ideal, fredholm, index",
    [
        ([[1.0, np.inf], [0.0, 1.0]], True, _SVD_FAILED, _SVD_FAILED),
        ([[1.0, np.inf], [0.0, 1.0]], False, _SVD_FAILED, _SVD_FAILED),
        (
            [[1e308, 1e308], [1e308, 1e308]], True, (True, 1.0),
            (NumericsError, "singular value decomposition of an operator of norm inf"),
        ),
        (
            [[1e308, 1e308], [1e308, 1e308]], False, (False, 0.0),
            (PreconditionError, "operator is not corner Fredholm (min gap 0.000e+00)"),
        ),
        ([[1.0, np.nan], [0.0, 1.0]], True, _SVD_FAILED, _SVD_FAILED),
        ([[1.0, np.nan], [0.0, 1.0]], False, _SVD_FAILED, _SVD_FAILED),
    ],
    ids=[f"{kind}-{side}" for kind in ("infinite-entry", "overflowing-norm", "nan-entry")
         for side in ("ideal", "non-ideal")],
)
def test_a_non_finite_corner_operator_fails_as_it_did(block, ideal, fredholm, index):
    """The non-finite guard acts where the kernel cut is taken: an overflowing
    ideal block passes the Fredholm check and then raises NumericsError, an
    overflowing non-ideal one has gap 0 and is not Fredholm."""
    alg = weighted_model([2, 2], [1.0, 1.0], [ideal, not ideal])
    s, one = BlockOperator([block, np.eye(2)]), alg.identity()
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(fredholm[0], bool):
            report = is_corner_fredholm(s, one, one, alg)
            assert (report.fredholm, report.min_gap) == fredholm
        else:
            with pytest.raises(fredholm[0]) as err:
                is_corner_fredholm(s, one, one, alg)
            assert type(err.value) is fredholm[0] and str(err.value) == fredholm[1]
        with pytest.raises(index[0]) as err:
            corner_index_result(s, one, one, alg)
        assert type(err.value) is index[0] and str(err.value) == index[1]


def test_a_kernel_cut_above_the_fredholm_gap_is_off_the_ideal():
    """One set of singular values, two cuts: the non-ideal gap 5e-8 passes
    the Fredholm test (gap 1e-8), but lies below the kernel cut
    1e-10 * ||S|| = 1e-7, so the kernel has a vector off the ideal."""
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    s = BlockOperator([np.diag([1e3, 0.0]), np.diag([1e3, 5e-8])])
    one = alg.identity()
    report = is_corner_fredholm(s, one, one, alg)
    assert report.fredholm and report.min_gap == pytest.approx(5e-8, rel=1e-12)
    with pytest.raises(NotInIdealError) as err:
        corner_index_result(s, one, one, alg)
    assert str(err.value) == "kernel intersection off the ideal: 1.000e+00 > 2.000e-08 on block 1"
    assert err.value.fields == {
        "what": "kernel intersection off the ideal",
        "value": pytest.approx(1.0),
        "bound": pytest.approx(2e-8),
        "block": 1,
    }


def test_the_corner_index_requires_projections():
    alg = single_block_alg(2)
    half = op(np.diag([0.9, 0.0]))
    one = alg.identity()
    with pytest.raises(PreconditionError, match="must be a projection"):
        corner_index_result(alg.zero(), half, one, alg)
    with pytest.raises(PreconditionError, match="must be a projection"):
        corner_index_result(alg.zero(), one, half, alg)
