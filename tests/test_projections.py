"""Projection calculus: spectral projections, phases, kernels, intersections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnflow import (
    BlockOperator,
    NumericsError,
    PreconditionError,
    SpectralGapError,
    block_ranks,
    chi,
    nearest_projection,
    null_projection,
    polar_phase,
    range_projection,
    relative_kernels,
    weighted_model,
)

from conftest import (
    haar_unitary,
    op,
    proj_intersection,
    random_matrix,
    random_projection,
    random_selfadjoint,
)


def _is_projection_matrix(mat: np.ndarray, atol: float = 1e-12) -> bool:
    return np.allclose(mat @ mat, mat, atol=atol) and np.allclose(
        mat, mat.conj().T, atol=atol
    )


# -- chi -----------------------------------------------------------------------


def test_chi_identity():
    t = op(np.eye(3))
    assert chi(t).allclose(t, atol=1e-12)


def test_chi_sign_split():
    t = op(np.diag([1.0, -1.0]))
    assert chi(t).allclose(op(np.diag([1.0, 0.0])), atol=1e-12)


def test_chi_includes_zero_eigenvalue():
    t = op(np.diag([0.0, -0.5, 2.0]))
    assert chi(t).allclose(op(np.diag([1.0, 0.0, 1.0])), atol=1e-12)


def test_chi_rejects_non_selfadjoint():
    with pytest.raises(PreconditionError):
        chi(op(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_chi_is_snapped_and_conjugation_covariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_selfadjoint(5, rng)
        p = chi(op(h))
        assert _is_projection_matrix(p.blocks[0])
        u = haar_unitary(5, rng)
        conj = chi(op(u.conj().T @ h @ u))
        assert conj.allclose(op(u.conj().T) @ p @ op(u), atol=1e-10)


def test_chi_commutes_with_quotient_restriction():
    # the non-ideal blocks of chi(T) agree with chi computed on the quotient alone
    rng = np.random.default_rng(3)
    alg = weighted_model([3, 4], [1.0, 1.0], [True, False])
    t = BlockOperator([random_selfadjoint(3, rng), random_selfadjoint(4, rng)])
    full = chi(t)
    quotient_only = chi(op(t.blocks[1]))
    assert np.array_equal(full.blocks[1], quotient_only.blocks[0])


# -- polar phase and kernels -----------------------------------------------------


def test_polar_phase_of_unitary_is_itself():
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    assert polar_phase(op(u)).allclose(op(u), atol=1e-12)


def test_polar_phase_of_zero_is_zero():
    z = op(np.zeros((3, 3)))
    assert polar_phase(z).allclose(z, atol=0.0)


def test_polar_phase_diagonal():
    s = op(np.diag([2.0, 0.0]))
    assert polar_phase(s).allclose(op(np.diag([1.0, 0.0])), atol=1e-12)


def test_null_projection_cases():
    assert null_projection(op(np.diag([1.0, 2.0]))).allclose(
        op(np.zeros((2, 2))), atol=1e-12
    )
    z = op(np.zeros((3, 3)))
    assert null_projection(z).allclose(op(np.eye(3)), atol=1e-12)
    s = op(np.diag([1.0, 0.0, 0.0]))
    assert null_projection(s).allclose(op(np.diag([0.0, 1.0, 1.0])), atol=1e-12)


@pytest.mark.parametrize("projection", [null_projection, range_projection, polar_phase])
@pytest.mark.parametrize(
    "block",
    [[[1.0, np.inf], [0.0, 1.0]], [[1e308, 1e308], [1e308, 1e308]], [[1.0, np.nan], [0.0, 1.0]]],
    ids=["infinite-entry", "overflowing-norm", "nan-entry"],
)
def test_svd_projections_reject_a_non_finite_operator(projection, block):
    """A non-finite norm makes the kernel threshold meaningless: an infinite
    entry gave NaN singular values, which fell on neither side of it, and an
    overflowing norm put every singular value below it."""
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericsError):
            projection(BlockOperator([block, np.eye(2)]))


def test_polar_identities_random():
    rng = np.random.default_rng(7)
    for k in range(30):
        n = int(rng.integers(2, 7))
        mat = random_matrix(n, rng)
        if k % 3 == 0:
            # force a kernel
            p = random_projection(n, n - 1, rng)
            mat = mat @ p
        s = op(mat)
        u = polar_phase(s)
        absval = op(
            np.asarray(
                _matrix_sqrt(s.blocks[0].conj().T @ s.blocks[0]), dtype=complex
            )
        )
        assert (u @ absval - s).norm() < 1e-8
        one = op(np.eye(n))
        assert (one - u.H @ u).allclose(null_projection(s), atol=1e-8)
        assert (one - u @ u.H).allclose(null_projection(s.H), atol=1e-8)
        assert range_projection(s).allclose(u @ u.H, atol=1e-8)


def _matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


# -- intersections ----------------------------------------------------------------


def test_intersection_of_equal_projections():
    rng = np.random.default_rng(8)
    p = op(random_projection(5, 2, rng))
    assert proj_intersection(p, p).allclose(p, atol=1e-10)


def test_intersection_of_orthogonal_projections():
    p = op(np.diag([1.0, 0.0]))
    q = op(np.diag([0.0, 1.0]))
    assert proj_intersection(p, q).allclose(op(np.zeros((2, 2))), atol=1e-12)


def test_intersection_of_tilted_line_with_axis():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    p = op(v @ v.conj().T)
    q = op(np.diag([1.0, 0.0]))
    # oracle: the top eigenvalue of p + q stays below 2, so the ranges meet trivially
    top = float(np.max(np.linalg.eigvalsh(p.blocks[0] + q.blocks[0])))
    assert top < 2.0 - 1e-3
    assert proj_intersection(p, q).allclose(op(np.zeros((2, 2))), atol=1e-12)


def test_intersection_of_commuting_projections_is_product():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = haar_unitary(6, rng)
        d1 = np.diag(rng.integers(0, 2, size=6).astype(float))
        d2 = np.diag(rng.integers(0, 2, size=6).astype(float))
        p = op(u @ d1 @ u.conj().T)
        q = op(u @ d2 @ u.conj().T)
        assert proj_intersection(p, q).allclose(p @ q, atol=1e-9)


def test_intersection_is_dominated_by_both():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = op(random_projection(6, int(rng.integers(1, 6)), rng))
        q = op(random_projection(6, int(rng.integers(1, 6)), rng))
        r = proj_intersection(p, q)
        for big in (p, q):
            gap = np.min(np.linalg.eigvalsh((big - r).blocks[0]))
            assert gap > -1e-10


def test_close_projections_have_trivial_skew_intersection():
    # ||p - q|| < 1 forces ker(p) and im(q) to meet trivially
    rng = np.random.default_rng(12)
    one = op(np.eye(4))
    for _ in range(20):
        p = op(random_projection(4, 2, rng))
        h = random_selfadjoint(4, rng, scale=0.15)
        u = op(_expm_skew(h))
        q = u.H @ p @ u
        assert (p - q).norm() < 1.0
        assert proj_intersection(one - p, q).allclose(
            op(np.zeros((4, 4))), atol=1e-10
        )


def _expm_skew(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def test_intersection_rejects_non_projection():
    with pytest.raises(PreconditionError):
        proj_intersection(op(np.diag([0.5, 0.0])), op(np.eye(2)))


# -- relative kernels -------------------------------------------------------------

# Per basis vector of a block: in the range of p only, of q only, of both, of
# neither, or the first of a tilted pair (p holds e_j, q cos(a) e_j + sin(a) e_j+1).
_ROLES = ("p", "q", "both", "neither", "tilted")


@st.composite
def projection_pairs(draw):
    """Projections p and q on one to five blocks of dims 1-4 (repeated dims
    share a stack), built from one Haar basis per block, with the expected
    ranks of p ∧ (1 - q) and (1 - p) ∧ q per block; ``relation`` makes q
    equal to p, or 1 - p, instead."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=5))
    relation = draw(st.sampled_from(["drawn", "drawn", "equal", "complement"]))
    p_blocks, q_blocks, ranks = [], [], []
    for n in dims:
        u = haar_unitary(n, rng)
        p_mat, q_mat, only = np.zeros((n, n), complex), np.zeros((n, n), complex), [0, 0]
        j = 0
        while j < n:
            role = draw(st.sampled_from(_ROLES))
            e = u[:, j : j + 1]
            if role == "tilted" and j + 1 < n:
                angle = draw(st.floats(0.3, 1.2))
                f = np.cos(angle) * e + np.sin(angle) * u[:, j + 1 : j + 2]
                p_mat, q_mat, j = p_mat + e @ e.conj().T, q_mat + f @ f.conj().T, j + 2
                continue
            if role in ("p", "both"):
                p_mat = p_mat + e @ e.conj().T
            if role in ("q", "both"):
                q_mat = q_mat + e @ e.conj().T
            only[0] += role == "p"
            only[1] += role == "q"
            j += 1
        p_blocks.append(p_mat)
        q_blocks.append(q_mat)
        ranks.append(only)
    p = BlockOperator(p_blocks)
    if relation == "equal":
        return p, p, [(0, 0)] * len(dims)
    if relation == "complement":
        q = BlockOperator([np.eye(n) - m for n, m in zip(dims, p_blocks)])
        return p, q, [(r, n - r) for n, r in zip(dims, block_ranks(p))]
    return p, BlockOperator(q_blocks), [tuple(r) for r in ranks]


@settings(max_examples=80, deadline=None)
@given(projection_pairs())
def test_relative_kernels_are_the_two_intersections(case):
    p, q, ranks = case
    one = BlockOperator([np.eye(n) for n in p.dims])
    kernel, cokernel = relative_kernels(p, q)
    assert list(zip(block_ranks(kernel), block_ranks(cokernel))) == ranks
    expected = proj_intersection(p, one - q), proj_intersection(one - p, q)
    for got, want in zip((kernel, cokernel), expected):
        assert block_ranks(got) == block_ranks(want)
        assert got.allclose(want, atol=1e-10)


@pytest.mark.parametrize("first", [True, False])
def test_relative_kernels_reject_a_non_projection_as_the_intersections_do(first):
    good, bad = op(np.diag([1.0, 0.0])), op(np.diag([0.5, 0.0]))
    one = op(np.eye(2))
    p, q = (bad, good) if first else (good, bad)
    with pytest.raises(PreconditionError) as want:
        proj_intersection(p, one - q) if first else proj_intersection(one - p, q)
    with pytest.raises(PreconditionError) as got:
        relative_kernels(p, q)
    assert str(got.value) == str(want.value)
    assert got.value.fields == want.value.fields


# -- nearest projection ------------------------------------------------------------


def test_nearest_projection_fixes_projections():
    rng = np.random.default_rng(13)
    p = op(random_projection(5, 3, rng))
    assert nearest_projection(p).allclose(p, atol=1e-10)


def test_nearest_projection_threshold():
    e = op(np.diag([0.9, 0.1]))
    assert nearest_projection(e).allclose(op(np.diag([1.0, 0.0])), atol=1e-12)


def test_nearest_projection_gap_errors():
    with pytest.raises(SpectralGapError):
        nearest_projection(op(np.diag([0.5, 0.5])))
    with pytest.raises(SpectralGapError):
        nearest_projection(op(np.diag([0.9, -0.4])))


def test_nearest_projection_contract_random():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        p = random_projection(n, int(rng.integers(1, n)), rng)
        noise = random_selfadjoint(n, rng)
        noise *= 0.06 / max(np.linalg.norm(noise, 2), 1e-12)
        e = op(p + noise)
        defect = (e @ e - e).norm()
        assert defect < 0.25
        snapped = nearest_projection(e)
        assert _is_projection_matrix(snapped.blocks[0])
        assert (snapped - e).norm() < 0.5
