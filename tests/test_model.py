"""Model layer: algebras, operators, traces, K-classes, paths."""

from __future__ import annotations

import numpy as np
import pytest

from vnflow import (
    Block,
    NumericsError,
    BlockOperator,
    K0Class,
    ModelError,
    NotInIdealError,
    OperatorPath,
    PreconditionError,
    Tolerances,
    VnAlgebra,
    k0_of_difference,
    quotient_norm,
    tau,
    tau_star,
    weighted_model,
)
from vnflow.model import check_residual, check_support

from conftest import haar_unitary, op, random_matrix, random_projection, single_block_alg


# -- construction and validation ----------------------------------------------


def test_algebra_rejects_bad_blocks():
    with pytest.raises(ModelError):
        Block(dim=0)
    with pytest.raises(ModelError):
        Block(dim=2, weight=0.0)
    with pytest.raises(ModelError):
        VnAlgebra([])


def test_block_rejects_nonfinite_weight():
    for weight in (float("inf"), float("nan")):
        with pytest.raises(ModelError, match="finite"):
            Block(dim=1, weight=weight)


def test_operator_rejects_non_square():
    with pytest.raises(ModelError):
        BlockOperator([np.zeros((2, 3))])


def test_operator_blocks_are_immutable():
    t = op(np.eye(2))
    with pytest.raises(ValueError):
        t.blocks[0][0, 0] = 5.0


def test_block_shape_mismatch_raises():
    alg = weighted_model([2, 3], [1.0, 1.0])
    with pytest.raises(ModelError):
        alg.require_conformal(op(np.eye(2)))
    with pytest.raises(ModelError):
        op(np.eye(2)) + op(np.eye(3))


def test_path_validation():
    a, b = op(np.eye(2)), op(2 * np.eye(2))
    with pytest.raises(ModelError):
        OperatorPath([(0.0, a)])
    with pytest.raises(ModelError):
        OperatorPath([(0.1, a), (1.0, b)])
    with pytest.raises(ModelError):
        OperatorPath([(0.0, a), (0.5, b), (0.5, a), (1.0, b)])


def test_a_nan_keyframe_time_is_rejected():
    # NaN fails every comparison, so no "b <= a" catches it; "a < b" does
    a = op(np.eye(2))
    for times in ((0.0, np.nan, 1.0), (0.0, 0.5, np.nan, 1.0)):
        with pytest.raises(ModelError, match="strictly increasing"):
            OperatorPath([(t, a) for t in times])


def test_path_keyframe_evaluation_is_exact():
    a, b = op(np.diag([1.0, -1.0])), op(np.diag([1.0, 1.0]))
    path = OperatorPath.linear(a, b)
    assert path.at(0.0) is a
    assert path.at(1.0) is b
    mid = path.at(0.5)
    assert np.allclose(mid.blocks[0], np.diag([1.0, 0.0]))


def test_path_reversal_and_refinement():
    a, b = op(np.diag([1.0, -1.0])), op(np.diag([1.0, 1.0]))
    path = OperatorPath.linear(a, b)
    rev = path.reversed()
    assert rev.at(0.0) is b and rev.at(1.0) is a
    fine = path.refined([0.25, 0.75])
    assert fine.times == (0.0, 0.25, 0.75, 1.0)
    for t in (0.1, 0.25, 0.6):
        assert fine.at(t).allclose(path.at(t), atol=1e-14)


# -- quotient norm -------------------------------------------------------------


def test_quotient_norm_all_ideal_is_zero():
    alg = single_block_alg(3)
    assert quotient_norm(op(random_matrix(3, np.random.default_rng(0))), alg) == 0.0


def test_quotient_norm_identity():
    alg = single_block_alg(2, ideal=False)
    assert quotient_norm(alg.identity(), alg) == pytest.approx(1.0)


def test_quotient_norm_diagonal():
    # independent oracle: the spectral norm of diag(3, -2) is max |eigenvalue|
    mat = np.diag([3.0, -2.0])
    oracle = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    assert oracle == 3.0
    alg = single_block_alg(2, ideal=False)
    assert quotient_norm(op(mat), alg) == pytest.approx(3.0)


def test_quotient_norm_cstar_identity_and_submultiplicativity():
    rng = np.random.default_rng(11)
    alg = weighted_model([3, 4], [1.0, 1.0], [True, False])
    for _ in range(50):
        t = BlockOperator([random_matrix(3, rng), random_matrix(4, rng)])
        s = BlockOperator([random_matrix(3, rng), random_matrix(4, rng)])
        qt = quotient_norm(t, alg)
        assert quotient_norm(t.H @ t, alg) == pytest.approx(qt * qt, rel=1e-10)
        assert quotient_norm(s @ t, alg) <= quotient_norm(s, alg) * qt + 1e-10


# -- trace ---------------------------------------------------------------------


def test_tau_zero_projection():
    alg = weighted_model([2], [1.0])
    assert tau(alg.zero(), alg) == 0.0


def test_tau_identity_weighted():
    alg = weighted_model([2, 3], [1.0, 0.5])
    assert tau(alg.identity(), alg) == pytest.approx(3.5)


def test_tau_rank_one_in_weighted_block():
    alg = weighted_model([2], [0.25])
    p = op(np.diag([1.0, 0.0]))
    assert tau(p, alg) == pytest.approx(0.25)


def test_tau_rejects_non_projection():
    alg = weighted_model([2], [1.0])
    with pytest.raises(PreconditionError):
        tau(op(np.diag([0.5, 0.0])), alg)


def test_tau_unitary_invariance():
    rng = np.random.default_rng(5)
    alg = weighted_model([4, 3], [1.0, 1.0 / 3.0])
    for _ in range(25):
        p = BlockOperator(
            [random_projection(4, 2, rng), random_projection(3, 1, rng)]
        )
        u = BlockOperator([haar_unitary(4, rng), haar_unitary(3, rng)])
        assert tau(u.H @ p @ u, alg) == tau(p, alg)


# -- K-classes -----------------------------------------------------------------


def test_tau_star_examples():
    alg2 = weighted_model([2, 2], [1.0, 1.0])
    assert tau_star(K0Class.zero(2), alg2) == 0.0
    assert tau_star(K0Class([1, -1]), alg2) == 0.0
    alg_w = weighted_model([2, 2], [0.5, 0.25])
    assert tau_star(K0Class([2, -1]), alg_w) == pytest.approx(0.75)


def test_tau_star_index_mismatch():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    with pytest.raises(ModelError):
        tau_star(K0Class([1, 2]), alg)


def test_k0_arithmetic():
    a = K0Class([2, -1])
    b = K0Class([1, 1])
    assert (a + b).ranks == (3, 0)
    assert (a - b).ranks == (1, -2)
    assert (-a).ranks == (-2, 1)
    assert (3 * b).ranks == (3, 3)
    assert K0Class.zero(2).is_zero
    with pytest.raises(ModelError):
        a + K0Class([1])


def test_k0_of_difference_examples():
    alg = weighted_model([2], [1.0])
    p = op(np.diag([1.0, 1.0]))
    assert k0_of_difference(p, p, alg).is_zero
    q = op(np.zeros((2, 2)))
    assert k0_of_difference(p, q, alg).ranks == (2,)

    two = weighted_model([2, 2], [1.0, 1.0])
    p1 = BlockOperator([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    q1 = BlockOperator([np.zeros((2, 2)), np.diag([1.0, 0.0])])
    assert k0_of_difference(p1, q1, two).ranks == (1, -1)


def test_k0_of_difference_rejects_nonideal_support():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    p = BlockOperator([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    q = BlockOperator([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    with pytest.raises(NotInIdealError):
        k0_of_difference(p, q, alg)
    # matching non-ideal support is allowed: the difference lives in the ideal
    assert k0_of_difference(p, p, alg).is_zero


def test_tau_star_of_difference_matches_trace_difference():
    rng = np.random.default_rng(21)
    alg = weighted_model([3, 4], [0.5, 2.0])
    for _ in range(25):
        p = BlockOperator(
            [
                random_projection(3, int(rng.integers(0, 4)), rng),
                random_projection(4, int(rng.integers(0, 5)), rng),
            ]
        )
        q = BlockOperator(
            [
                random_projection(3, int(rng.integers(0, 4)), rng),
                random_projection(4, int(rng.integers(0, 5)), rng),
            ]
        )
        diff = k0_of_difference(p, q, alg)
        assert tau_star(diff, alg) == pytest.approx(tau(p, alg) - tau(q, alg))


@pytest.mark.parametrize(
    "field, value",
    [
        ("proj", 0.0),
        ("kernel", -1e-10),
        ("gap", float("inf")),
        ("intersection", float("nan")),
        ("intersection", 1.0),
        ("margin", -0.01),
        ("margin", 0.5),
        ("max_depth", 0),
    ],
)
def test_tolerances_reject_out_of_range_fields(field, value):
    with pytest.raises(ModelError, match=field):
        Tolerances(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_depth", 2.5),
        ("max_depth", 20.0),
        ("max_depth", True),
        ("proj", "1e-8"),
        ("gap", True),
        ("margin", False),
    ],
)
def test_tolerances_reject_mistyped_fields(field, value):
    with pytest.raises(ModelError, match=f"tolerance {field} must be"):
        Tolerances(**{field: value})


@pytest.mark.parametrize("field", ["proj", "kernel", "gap", "intersection"])
def test_tolerances_reject_ints_beyond_the_float_range(field):
    with pytest.raises(ModelError, match=f"tolerance {field} must be finite"):
        Tolerances(**{field: 10**400})


def test_tolerances_accept_numpy_scalars():
    tol = Tolerances(proj=np.float64(1e-8), kernel=1, max_depth=np.int64(3))
    assert tol.proj_eps(1.0) == 2e-8 and tol.max_depth == 3


# -- the residual check ------------------------------------------------------------


def test_check_residual_returns_the_value_that_passed():
    assert check_residual("defect", 0.25, 0.25) == 0.25
    assert check_residual("defect", 0.0, 1e-8) == 0.0


def test_check_residual_raises_with_fields():
    with pytest.raises(PreconditionError) as err:
        check_residual("defect of x", 2.0, 1.0)
    assert str(err.value) == "defect of x: 2.000e+00 > 1.000e+00"
    assert dict(err.value.fields) == {"what": "defect of x", "value": 2.0, "bound": 1.0}
    with pytest.raises(TypeError):
        err.value.fields["value"] = 0.0
    with pytest.raises(NumericsError) as err:
        check_residual("drift", 3.0, 1.0, NumericsError, t=0.25)
    assert str(err.value) == "drift: 3.000e+00 > 1.000e+00 at t = 0.25"
    assert err.value.fields["t"] == 0.25


def test_check_residual_fails_on_nan():
    with pytest.raises(PreconditionError):
        check_residual("defect", float("nan"), 1.0)


def test_check_support_reads_only_the_listed_blocks():
    a = BlockOperator([np.eye(2), np.zeros((3, 3)), 2.0 * np.eye(1)])
    assert check_support("a", a, [1], 1e-12) == 0.0
    assert check_support("a", a, [], 1e-12) == 0.0
    assert check_support("a", a, [0, 1], 1.0) == pytest.approx(1.0)
    with pytest.raises(NotInIdealError) as err:
        check_support("a off the ideal", a, [1, 2], 1.0)
    assert str(err.value) == "a off the ideal: 2.000e+00 > 1.000e+00 on block 2"
    assert err.value.fields["block"] == 2
