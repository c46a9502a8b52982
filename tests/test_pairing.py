"""Odd pairings: unitary logarithm, mod-ideal identities, boundary agreement."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from vnflow import (
    BlockOperator,
    ModelError,
    PreconditionError,
    SpectralGapError,
    Tolerances,
    boundary_map,
    cos_identity_check,
    dirac_circle,
    intermediate_operator,
    make_pairing_data,
    nearest_projection,
    null_projection,
    pairing_result,
    pairing_via_boundary,
    quotient_norm,
    sf_unitary,
    unitary_log,
    weighted_model,
)
from vnflow.model import check_residual

from conftest import haar_unitary, op, random_projection, random_selfadjoint, single_block_alg


# -- unitary logarithm ------------------------------------------------------------


def test_log_of_identity_is_zero():
    q = unitary_log(op(np.eye(3)))
    assert q.allclose(op(np.zeros((3, 3))), atol=1e-12)


def test_log_of_minus_one():
    q = unitary_log(op(np.diag([-1.0])))
    assert q.blocks[0][0, 0] == pytest.approx(0.5)


def test_log_of_i():
    q = unitary_log(op(np.diag([1j])))
    assert q.blocks[0][0, 0] == pytest.approx(0.25)


def test_log_reconstructs_unitary_and_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = op(haar_unitary(6, rng))
        q = unitary_log(u)
        w = np.linalg.eigvalsh(q.blocks[0])
        assert np.all(w >= -1e-12) and np.all(w < 1.0)
        recon = BlockOperator([_exp_q(b) for b in q.blocks])
        assert recon.allclose(u, atol=1e-10)


def _exp_q(b: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (b + b.conj().T))
    return (v * np.exp(2j * np.pi * w)) @ v.conj().T


def test_log_rejects_non_unitary():
    with pytest.raises(PreconditionError):
        unitary_log(op(np.diag([2.0])))


def test_sin_cos_pythagorean_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = op(haar_unitary(5, rng))
        q = unitary_log(u)
        w, v = np.linalg.eigh(q.blocks[0])
        sin_pq = (v * np.sin(np.pi * w)) @ v.conj().T
        cos_pq = (v * np.cos(np.pi * w)) @ v.conj().T
        assert np.min(np.linalg.eigvalsh(sin_pq)) >= -1e-12
        total = sin_pq @ sin_pq + cos_pq @ cos_pq
        assert np.allclose(total, np.eye(5), atol=1e-12)


# -- cos identity -----------------------------------------------------------------


def test_cos_identity_for_exact_projection():
    rng = np.random.default_rng(2)
    alg = single_block_alg(4, ideal=False)
    q = op(random_projection(4, 2, rng))
    assert cos_identity_check(q, alg) < 1e-12


def test_cos_identity_kills_ideal_noise():
    rng = np.random.default_rng(3)
    alg = weighted_model([3, 3], [1.0, 1.0], [True, False])
    q = BlockOperator(
        [
            random_projection(3, 1, rng) + 0.1 * random_selfadjoint(3, rng),
            random_projection(3, 2, rng),
        ]
    )
    assert cos_identity_check(q, alg) < 1e-12


def test_cos_identity_quantitative_sweep():
    # perturbing the quotient part by delta moves the residual by about 4 delta
    rng = np.random.default_rng(4)
    alg = single_block_alg(3, ideal=False)
    p = random_projection(3, 1, rng)
    for delta in (1e-6, 1e-4):
        noise = random_selfadjoint(3, rng)
        noise *= delta / max(np.linalg.norm(noise, 2), 1e-15)
        q = op(p + noise)
        residual = cos_identity_check(q, alg, Tolerances(gap=10.0 * delta))
        assert residual <= 10.0 * delta
        assert residual > 0.0


def test_cos_identity_precondition():
    alg = single_block_alg(2, ideal=False)
    with pytest.raises(PreconditionError):
        cos_identity_check(op(np.diag([0.3, 0.0])), alg)


# -- pairing data and the intermediate operator ---------------------------------------


def test_pairing_data_validates_inputs():
    rng = np.random.default_rng(5)
    alg = single_block_alg(4)
    p = op(random_projection(4, 2, rng))
    u = op(haar_unitary(4, rng))
    data = make_pairing_data(alg, p, u)
    assert data.q.norm() <= 1.0 + 1e-12
    with pytest.raises(PreconditionError):
        make_pairing_data(alg, p, op(np.diag([2.0, 1.0, 1.0, 1.0])))
    wrong_q = op(np.zeros((4, 4)))
    with pytest.raises(PreconditionError):
        make_pairing_data(alg, p, u, q=wrong_q)


def test_pairing_data_accepts_matching_supplied_log():
    rng = np.random.default_rng(6)
    alg = single_block_alg(3)
    p = op(random_projection(3, 1, rng))
    u = op(haar_unitary(3, rng))
    q = unitary_log(u)
    data = make_pairing_data(alg, p, u, q=q)
    assert data.q is q


def test_psi_must_be_multiplicative():
    rng = np.random.default_rng(7)
    alg = single_block_alg(3)
    p = op(random_projection(3, 1, rng))
    u = op(haar_unitary(3, rng))
    with pytest.raises(ModelError):
        make_pairing_data(alg, p, u, psi=lambda x: x + alg.identity())


def test_psi_conjugation_is_accepted():
    rng = np.random.default_rng(8)
    alg = single_block_alg(3)
    p = op(random_projection(3, 2, rng))
    u = op(haar_unitary(3, rng))
    w = op(haar_unitary(3, rng))
    data = make_pairing_data(alg, p, u, psi=lambda x: w @ x @ w.H)
    assert pairing_via_boundary(data).is_zero


def test_intermediate_operator_trivial_cases():
    rng = np.random.default_rng(9)
    alg = single_block_alg(4, ideal=False)
    one = alg.identity()
    p = op(random_projection(4, 2, rng))
    data = make_pairing_data(alg, p, one)
    w_op = intermediate_operator(data)
    # u = 1 means q = 0: the operator collapses to -i psi(1)
    assert w_op.allclose(-1j * one, atol=1e-12)
    assert quotient_norm(w_op.H @ w_op - one, alg) < 1e-10


def test_intermediate_operator_full_projection():
    rng = np.random.default_rng(10)
    alg = single_block_alg(3, ideal=False)
    one = alg.identity()
    u = op(haar_unitary(3, rng))
    data = make_pairing_data(alg, one, u)
    w_op = intermediate_operator(data)
    assert quotient_norm(w_op.H @ w_op - one, alg) < 1e-10
    assert boundary_map(w_op, alg, eps_gap=1e-7).is_zero


# -- the boundary pairing ----------------------------------------------------------------


def test_pairing_of_identity_is_zero():
    rng = np.random.default_rng(11)
    alg = single_block_alg(4)
    p = op(random_projection(4, 2, rng))
    data = make_pairing_data(alg, p, alg.identity())
    assert pairing_via_boundary(data).is_zero


def test_pairing_commuting_case_is_zero():
    # [p, u] = 0 with p u p + (1 - p) unitary: no kernel at all
    alg = single_block_alg(4)
    p = op(np.diag([1.0, 1.0, 0.0, 0.0]))
    u = op(np.diag([1j, -1j, 1.0, 1.0]))
    data = make_pairing_data(alg, p, u)
    assert (p @ u - u @ p).norm() == 0.0
    assert pairing_via_boundary(data).is_zero


def test_pairing_matches_sf_unitary_on_winding_models():
    for m, k in ((4, 1), (6, -2), (8, 3)):
        triple, u = dirac_circle(m, k)
        data = make_pairing_data(triple.alg, triple.p, u)
        assert pairing_via_boundary(data) == sf_unitary(triple, u)


@pytest.mark.parametrize("smear", ["half", "above", "below"])
def test_a_projection_modulo_the_ideal_pairs_as_its_honest_projection(smear):
    # W reads p modulo the ideal, so an ideal block too far from a projection
    # to snap to one (an eigenvalue at 1/2, or idempotency defect 0.39 >= 1/4)
    # pairs as the honest projection it smears
    rng = np.random.default_rng(41)
    alg = weighted_model([3, 2], [1.0, 1.0], [True, False])
    z = haar_unitary(3, rng)
    honest = z[:, :1] @ z[:, :1].conj().T
    block = {
        "half": honest + 0.5 * z[:, 1:2] @ z[:, 1:2].conj().T,
        "above": honest + 0.3 * np.eye(3),
        "below": honest - 0.3 * np.eye(3),
    }[smear]
    u = BlockOperator([haar_unitary(3, rng), np.diag([1.0, -1.0])])
    p_ni = np.diag([1.0, 0.0])
    smeared, reference = (
        pairing_result(make_pairing_data(alg, BlockOperator([b, p_ni]), u)) for b in (block, honest)
    )
    with pytest.raises(SpectralGapError):
        nearest_projection(BlockOperator([block, p_ni]))
    assert smeared.k0 == reference.k0
    assert dict(smeared.residuals) == dict(reference.residuals)


def test_pairing_stable_under_ideal_perturbation_of_p():
    rng = np.random.default_rng(12)
    triple, u = dirac_circle(5, 1)
    alg = triple.alg
    base = make_pairing_data(alg, triple.p, u)
    reference = pairing_via_boundary(base)
    for _ in range(5):
        noise = random_selfadjoint(11, rng)
        noise *= 0.05 / max(np.linalg.norm(noise, 2), 1e-15)
        p_noisy = triple.p + op(noise)
        data = make_pairing_data(alg, p_noisy, u)
        assert pairing_via_boundary(data) == reference


def test_pairing_boundary_is_lift_independent():
    # replacing the canonical lift by another one with the same quotient image
    # leaves the boundary class unchanged
    rng = np.random.default_rng(13)
    alg = weighted_model([4, 3], [1.0, 1.0], [True, False])
    one = alg.identity()
    u = BlockOperator([haar_unitary(4, rng), np.eye(3, dtype=complex)])
    p = BlockOperator([random_projection(4, 2, rng), np.eye(3, dtype=complex)])
    lift = p @ u @ p + (one - p)
    reference = boundary_map(lift, alg, eps_gap=1e-7)
    for _ in range(5):
        bump = BlockOperator(
            [0.3 * random_selfadjoint(4, rng), np.zeros((3, 3))]
        )
        assert boundary_map(lift + bump, alg, eps_gap=1e-7) == reference


# -- result objects ------------------------------------------------------------------


def test_pairing_result_carries_the_checked_residuals():
    rng = np.random.default_rng(31)
    alg = weighted_model([3, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([random_projection(3, 2, rng), np.diag([1.0, 0.0])])
    u = BlockOperator([haar_unitary(3, rng), np.eye(2)])
    data = make_pairing_data(alg, p, u)
    result = pairing_result(data)
    assert result.k0 == pairing_via_boundary(data)
    assert list(result.residuals) == [
        "intermediate_unitarity_left",
        "intermediate_unitarity_right",
        "commutator_quotient",
    ]
    assert result.residuals["commutator_quotient"] == data.commutator
    assert data.commutator == quotient_norm(p @ u - u @ p, alg)
    w_op = intermediate_operator(data)
    one = alg.identity()
    left = quotient_norm(w_op.H @ w_op - one, alg)
    assert result.residuals["intermediate_unitarity_left"] == left


def test_pairing_result_carries_the_kernels_of_the_intermediate_operator():
    rng = np.random.default_rng(31)
    alg = weighted_model([3, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([random_projection(3, 2, rng), np.diag([1.0, 0.0])])
    u = BlockOperator([haar_unitary(3, rng), np.eye(2)])
    data = make_pairing_data(alg, p, u)
    result = pairing_result(data)
    w_op = intermediate_operator(data)
    pairs = ((result.kernel, null_projection(w_op)), (result.cokernel, null_projection(w_op.H)))
    for mine, ref in pairs:
        assert all(np.array_equal(a, b) for a, b in zip(mine.blocks, ref.blocks, strict=True))


def test_pairing_result_checks_each_unitarity_residual_once(monkeypatch):
    # the two residuals of the intermediate operator W, not recomputed by a
    # second boundary-map check; no lift p u p + (1 - p) is formed
    import vnflow.corner
    import vnflow.pairing

    rng = np.random.default_rng(32)
    alg = weighted_model([3, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([random_projection(3, 2, rng), np.diag([1.0, 0.0])])
    u = BlockOperator([haar_unitary(3, rng), np.eye(2)])
    data = make_pairing_data(alg, p, u)
    calls = []

    def counted(what, value, *args, **kwargs):
        calls.append(what)
        return check_residual(what, value, *args, **kwargs)

    for module in (vnflow.corner, vnflow.pairing):
        monkeypatch.setattr(module, "check_residual", counted)
    result = pairing_result(data)
    unitarity = "quotient image of the intermediate operator must be unitary"
    assert calls == [f"{unitarity} (left)", f"{unitarity} (right)"]
    assert result.k0.is_zero
    # a direct caller still gets the check: a q that does not commute with p
    # leaves W far from quotient unitary
    q = BlockOperator([data.q.blocks[0], np.array([[0.3, 0.2], [0.2, 0.1]])])
    with pytest.raises(PreconditionError):
        intermediate_operator(replace(data, q=q))
