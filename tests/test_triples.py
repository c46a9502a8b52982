"""Spectral triples: bounded transform, module checks, flows, pushforward."""

from __future__ import annotations

import json

import numpy as np
import pytest

from vnflow import (
    DEFAULT_TOL,
    BlockOperator,
    ModelError,
    OperatorPath,
    PathError,
    PreconditionError,
    Tolerances,
    block_ranks,
    boundary_map_result,
    bounded_transform,
    check_kasparov_module,
    dirac_circle,
    k0_of_difference,
    make_triple,
    pushforward_sf,
    quotient_norm,
    resolvent_integral_check,
    sf_unbounded,
    sf_unbounded_result,
    sf_unitary,
    sf_unitary_result,
    spectral_flow,
    weighted_model,
)
from vnflow.cli import encode_algebra, encode_operator, main

from conftest import (
    affine_sf_unitary,
    corner_sf_unitary,
    haar_unitary,
    op,
    random_matrix,
    random_selfadjoint,
    single_block_alg,
)


# -- bounded transform -------------------------------------------------------------


def test_bounded_transform_of_zero():
    z = op(np.zeros((3, 3)))
    assert bounded_transform(z).allclose(z, atol=0.0)


def test_bounded_transform_scalar():
    f = bounded_transform(op(np.diag([1.0])))
    assert f.blocks[0][0, 0] == pytest.approx(1.0 / np.sqrt(2.0))


def test_bounded_transform_stays_inside_unit_ball():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = op(random_selfadjoint(6, rng, scale=rng.uniform(0.1, 50.0)))
        w = np.linalg.eigvalsh(bounded_transform(d).blocks[0])
        assert np.all(np.abs(w) < 1.0)


def test_bounded_transform_rejects_non_selfadjoint():
    with pytest.raises(PreconditionError):
        bounded_transform(op(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_bounded_transform_lipschitz():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 20))
        d = op(random_selfadjoint(n, rng, scale=rng.uniform(0.2, 5.0)))
        a = op(random_selfadjoint(n, rng, scale=rng.uniform(0.01, 3.0)))
        diff = (bounded_transform(d + a) - bounded_transform(d)).norm()
        assert diff <= a.norm() + 1e-12


# -- triple construction -------------------------------------------------------------


def _mixed_triple(d_nonideal: float = 1e9):
    """Two ideal blocks and a non-ideal block carrying a huge spectral gap."""
    alg = weighted_model([5, 4, 3], [1.0, 0.5, 1.0], [True, True, False])
    d = BlockOperator(
        [
            np.diag(np.arange(-2, 3, dtype=float).astype(complex)),
            np.diag(1e5 * np.array([1.0, 2.0, -3.0, 4.0], dtype=complex)),
            np.diag(d_nonideal * np.array([1.0, -2.0, 3.0], dtype=complex)),
        ]
    )
    shift = np.zeros((5, 5), dtype=complex)
    for j in range(5):
        shift[(j + 1) % 5, j] = 1.0
    u = BlockOperator([shift, np.eye(4, dtype=complex), np.eye(3, dtype=complex)])
    triple = make_triple(alg, {"1": alg.identity(), "u": u, "u*": u.H}, d)
    return triple, u


def test_make_triple_requires_unit():
    alg = single_block_alg(3)
    d = op(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(PreconditionError):
        make_triple(alg, {"a": op(np.diag([1.0, 2.0, 3.0]))}, d)


def test_make_triple_rejects_weak_nonideal_resolvent():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([5.0, -3.0])])
    with pytest.raises(PreconditionError):
        make_triple(alg, {"1": alg.identity()}, d)


def test_triple_derived_data():
    triple, _ = _mixed_triple()
    one = triple.alg.identity()
    assert triple.p.is_projection()
    assert quotient_norm(triple.F @ triple.F - one, triple.alg) < 1e-8
    assert triple.commutator_norms["1"] == pytest.approx(0.0)


# -- Kasparov module conditions -------------------------------------------------------


def test_kasparov_check_all_ideal_passes():
    triple, _ = dirac_circle(4, 1)
    report = check_kasparov_module(triple)
    assert report.passed
    assert report.worst() == 0.0


def test_kasparov_check_is_quantitative_on_quotient():
    # with a loosened resolvent tolerance the quotient square defect of the
    # unit generator is exactly ||(1 + D^2)^(-1)|| on the non-ideal block, and
    # the pass verdict flips with the size of the spectral gap there
    from vnflow import Tolerances

    loose = Tolerances(proj=1e-3)
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])

    strong = 3e4
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([strong, -2.0 * strong])])
    triple = make_triple(alg, {"1": alg.identity()}, d, loose)
    report = check_kasparov_module(triple, loose)
    assert report.square_defect["1"] == pytest.approx(1.0 / (1.0 + strong**2), rel=1e-6)
    assert report.passed

    weak = 3e3
    d2 = BlockOperator([np.diag([1.0, -1.0]), np.diag([weak, -2.0 * weak])])
    triple2 = make_triple(alg, {"1": alg.identity()}, d2, loose)
    report2 = check_kasparov_module(triple2, loose)
    assert report2.square_defect["1"] == pytest.approx(1.0 / (1.0 + weak**2), rel=1e-6)
    assert not report2.passed


def test_kasparov_commuting_generator_has_zero_commutator():
    triple, _ = dirac_circle(4, 1)
    f_of_d = triple.D @ triple.D
    alg = triple.alg
    new = make_triple(
        alg, {"1": alg.identity(), "D2": f_of_d}, triple.D
    )
    report = check_kasparov_module(new)
    assert report.commutator["D2"] == 0.0


# -- resolvent integral ----------------------------------------------------------------


def _random_triple(rng, n):
    alg = single_block_alg(n)
    d = op(random_selfadjoint(n, rng, scale=rng.uniform(0.5, 3.0)))
    a = op(random_matrix(n, rng))
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
    return triple, a


def test_resolvent_integral_commuting_is_zero():
    rng = np.random.default_rng(5)
    alg = single_block_alg(6)
    d = op(random_selfadjoint(6, rng))
    a = d @ d  # commutes with d
    triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
    check = resolvent_integral_check(triple, a, op(random_matrix(6, rng)))
    assert check.residual < 1e-10


def test_resolvent_integral_zero_right_factor():
    rng = np.random.default_rng(6)
    triple, a = _random_triple(rng, 5)
    check = resolvent_integral_check(triple, a, triple.alg.zero())
    assert check.residual == 0.0


def test_resolvent_integral_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        triple, a = _random_triple(rng, n)
        b = op(random_matrix(n, rng))
        check = resolvent_integral_check(triple, a, b)
        assert check.residual <= 1e-6 * max(1.0, check.direct_norm)


# -- unitary flow -----------------------------------------------------------------------


def test_sf_unitary_of_identity_is_zero():
    triple, _ = dirac_circle(3, 1)
    assert sf_unitary(triple, triple.alg.identity()).is_zero


def test_sf_unitary_of_function_of_d():
    # a unitary built from D commutes with p: no flow, and [u, p] = 0 exactly
    triple, _ = dirac_circle(3, 1)
    w, v = np.linalg.eigh(triple.D.blocks[0])
    u = op((v * np.exp(1j * w)) @ v.conj().T)
    assert (u @ triple.p - triple.p @ u).norm() < 1e-12
    assert sf_unitary(triple, u).is_zero


def test_sf_unitary_rejects_nonideal_commutator():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([1e9, -1e9])])
    rng = np.random.default_rng(8)
    u_ni = haar_unitary(2, rng)
    u = BlockOperator([np.eye(2, dtype=complex), u_ni])
    triple = make_triple(alg, {"1": alg.identity(), "u": u, "u*": u.H}, d)
    if quotient_norm(u @ triple.p - triple.p @ u, alg) > 1e-8:
        with pytest.raises(PreconditionError):
            sf_unitary(triple, u)


def test_sf_unitary_commutator_error_carries_fields():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([1e9, -1e9])])
    triple = make_triple(alg, {"1": alg.identity()}, d)
    swap = BlockOperator([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(PreconditionError) as err:
        sf_unitary(triple, swap)
    fields = err.value.fields
    assert fields["what"] == "[u, p] must be ideal-supported"
    assert fields["value"] == pytest.approx(1.0)
    assert fields["bound"] == 1e-8


def test_sf_unitary_dirac_anchor_m2_k1():
    # brute force oracle at the smallest window: kernel ranks from raw SVD
    triple, u = dirac_circle(2, 1)
    one = triple.alg.identity()
    lift = triple.p @ u @ triple.p + (one - triple.p)
    s = np.linalg.svd(lift.blocks[0], compute_uv=False)
    ker = int(np.count_nonzero(s <= 1e-10))
    s_adj = np.linalg.svd(lift.blocks[0].conj().T, compute_uv=False)
    coker = int(np.count_nonzero(s_adj <= 1e-10))
    assert (ker, coker) == (1, 1)
    assert sf_unitary(triple, u).ranks == (ker - coker,)


def test_sf_unitary_winding_family_additivity():
    triple, u1 = dirac_circle(8, 1)
    _, u2 = dirac_circle(8, 2)
    _, u3 = dirac_circle(8, 3)
    assert (u1 @ u2).allclose(u3, atol=1e-12)
    assert (
        sf_unitary(triple, u3)
        == sf_unitary(triple, u1) + sf_unitary(triple, u2)
    )


def test_sf_unitary_mixed_model():
    triple, u = _mixed_triple()
    assert sf_unitary(triple, u).ranks == (0, 0)


@pytest.mark.parametrize(
    "model", [(m, k) for m in (4, 8) for k in range(-3, 4)] + ["mixed"], ids=str
)
def test_sf_unitary_matches_the_affine_and_corner_references(model):
    # the lift p u p + (1 - p) has kernel ker(p u p) meet ran p, so the corner
    # index of p u p carries the same kernel pair; the shifts lose |k| vectors
    triple, u = _mixed_triple() if model == "mixed" else dirac_circle(*model)
    result = sf_unitary_result(triple, u)
    corner = corner_sf_unitary(triple, u)
    assert affine_sf_unitary(triple, u) == corner.k0 == result.k0
    eps = DEFAULT_TOL.proj_eps(1.0)
    for mine, ref in ((result.kernel, corner.kernel), (result.cokernel, corner.cokernel)):
        assert (mine - ref).norm() <= eps
        assert block_ranks(mine) == block_ranks(ref)


# -- unbounded flow -----------------------------------------------------------------------


def test_sf_unbounded_zero_perturbation():
    triple, _ = dirac_circle(3, 1)
    zero = triple.alg.zero()
    assert sf_unbounded(triple, OperatorPath.linear(zero, zero)).is_zero


def test_sf_unbounded_conjugation_path_matches_sf_unitary():
    for m, k in ((4, 1), (6, 2)):
        triple, u = dirac_circle(m, k)
        target = u.H @ triple.D @ u - triple.D
        path = OperatorPath.linear(triple.alg.zero(), target)
        assert sf_unbounded(triple, path) == sf_unitary(triple, u)


@pytest.mark.parametrize("m, c, expected", [(2, 1.5, (2,)), (8, 3.5, (4,)), (64, 10.5, (11,))])
def test_a_shifted_dirac_path_has_a_nonzero_class(m, c, expected):
    # along A_t = -t c 1 the eigenvalues of D in [0, c) leave the nonnegative
    # spectral projection, and none enters it
    triple, _ = dirac_circle(m, 1)
    alg = triple.alg
    shift = -c * alg.identity()
    result = sf_unbounded_result(triple, OperatorPath.linear(alg.zero(), shift))
    assert result.k0.ranks == expected
    w = np.linalg.eigvalsh(triple.D.blocks[0])
    assert expected == (int(np.count_nonzero((w >= 0.0) & (w < c))),)
    assert (block_ranks(result.kernel), block_ranks(result.cokernel)) == (expected, (0,))
    fpath = OperatorPath.from_function(
        lambda t: bounded_transform(triple.D + t * shift), np.linspace(0.0, 1.0, 9)
    )
    assert spectral_flow(fpath, alg) == result.k0


def test_sf_unbounded_depends_on_endpoints_only():
    triple, u = dirac_circle(4, 1)
    target = u.H @ triple.D @ u - triple.D
    rng = np.random.default_rng(9)
    direct = OperatorPath.linear(triple.alg.zero(), target)
    wiggle = op(random_selfadjoint(9, rng, scale=0.7))
    detour = OperatorPath(
        [
            (0.0, triple.alg.zero()),
            (0.4, wiggle),
            (1.0, target),
        ]
    )
    assert sf_unbounded(triple, direct) == sf_unbounded(triple, detour)


def test_sf_unbounded_tolerates_ideal_supported_perturbations():
    # ideal-supported perturbations leave the quotient image of the bounded
    # transform fixed, so the flow machinery accepts them on mixed models
    triple, _ = _mixed_triple()
    rng = np.random.default_rng(77)
    bump = BlockOperator(
        [
            random_selfadjoint(5, rng, scale=1.5),
            random_selfadjoint(4, rng, scale=0.5),
            np.zeros((3, 3)),
        ]
    )
    flow = sf_unbounded(triple, OperatorPath.linear(triple.alg.zero(), bump))
    assert len(flow.ranks) == 2


def test_sf_unbounded_quotient_drift_detection():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([1e9, -1e9])])
    triple = make_triple(alg, {"1": alg.identity()}, d)
    # a perturbation flipping the sign of a non-ideal eigenvalue moves the
    # quotient image of the bounded transform by order one
    bad = BlockOperator([np.zeros((2, 2)), np.diag([-2e9, 0.0])])
    with pytest.raises(ModelError):
        sf_unbounded(triple, OperatorPath.linear(alg.zero(), bad))


def test_sf_unbounded_drift_error_carries_fields():
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.diag([1.0, -1.0]), np.diag([1e9, -1e9])])
    triple = make_triple(alg, {"1": alg.identity()}, d)
    # the non-ideal eigenvalue 1e9 - 2e9 t ends at -1e9: at the keyframe t = 1
    # its bounded transform has moved from 1 to -1
    bad = BlockOperator([np.zeros((2, 2)), np.diag([-2e9, 0.0])])
    with pytest.raises(ModelError) as err:
        sf_unbounded(triple, OperatorPath.linear(alg.zero(), bad))
    fields = err.value.fields
    assert fields["what"] == "quotient image of the bounded transform must not drift"
    assert (fields["t"], fields["bound"]) == (1.0, 1e-8)
    assert fields["value"] == pytest.approx(2.0)
    assert str(err.value).endswith(": 2.000e+00 > 1.000e-08 at t = 1")


def test_sf_unbounded_transforms_each_time_once(monkeypatch):
    import vnflow.triples

    triple, _ = _mixed_triple()
    zero = triple.alg.zero()
    path = OperatorPath.linear(zero, zero)
    expected = sf_unbounded(triple, path)
    calls = []

    def counted(d, tol):
        calls.append(d)
        return bounded_transform(d, tol)

    monkeypatch.setattr(vnflow.triples, "bounded_transform", counted)
    assert sf_unbounded(triple, path) == expected
    # one full transform at each of the keyframes 0 and 1
    assert [c.dims for c in calls] == [triple.D.dims] * 2


def test_sf_unbounded_transforms_the_quotient_between_the_ends(monkeypatch):
    import vnflow.triples

    triple, _ = _mixed_triple()
    zero = triple.alg.zero()
    path = OperatorPath([(0.0, zero), (0.25, zero), (0.5, zero), (1.0, zero)])
    calls = []

    def counted(d, tol):
        calls.append(d.dims)
        return bounded_transform(d, tol)

    monkeypatch.setattr(vnflow.triples, "bounded_transform", counted)
    result = sf_unbounded_result(triple, path)
    assert result.k0.is_zero and result.residuals["quotient_drift"] == 0.0
    # the ends' full transforms reach chi; the inner keyframes' quotient images
    # reach only the drift check
    assert calls == [(5, 4, 3), (5, 4, 3), (3,), (3,)]


def _singular_quotient_case():
    """D = 1 + diag(1e9, -1e9) off the ideal, and a path A_t whose keyframes
    0, diag(-2e9, 2e9) at t = 1/2 and 0 swap the non-ideal eigenvalues and
    back: D + A_t is 0 in the quotient at t = 1/4 and t = 3/4.  The bounded
    transform drifts by 2 at t = 1/2, so a gap tolerance of 2.5 lets the
    keyframe drift check pass."""
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    d = BlockOperator([np.eye(2), np.diag([1e9, -1e9])])
    triple = make_triple(alg, {"1": alg.identity()}, d)
    swap = BlockOperator([np.zeros((2, 2)), np.diag([-2e9, 2e9])])
    path = OperatorPath([(0.0, alg.zero()), (0.5, swap), (1.0, alg.zero())])
    return triple, path, Tolerances(gap=2.5)


def test_sf_unbounded_through_a_singular_quotient_is_refused():
    triple, path, loose = _singular_quotient_case()
    with pytest.raises(PathError) as err:
        sf_unbounded_result(triple, path, loose)
    assert err.value.fields["t"] == 0.25
    assert err.value.fields["gap"] == 0.0 and err.value.fields["bound"] == 2.5


def test_sf_unbounded_through_a_singular_quotient_exits_3(tmp_path, capsys):
    triple, path, loose = _singular_quotient_case()
    ops = {"D": triple.D, "one": triple.alg.identity()}
    ops.update((f"A{k}", a) for k, (_, a) in enumerate(path.keyframes))
    doc = {
        "task": "sf_unbounded",
        "algebra": encode_algebra(triple.alg),
        "operators": {name: encode_operator(a) for name, a in ops.items()},
        "triple": {"D": "D", "generators": ["one"]},
        "path": {"keyframes": [{"t": t, "op": f"A{k}"} for k, (t, _) in enumerate(path.keyframes)]},
        "tolerances": {"gap": loose.gap},
    }
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(task), "--out", str(tmp_path / "report.json")]) == 3
    assert "leaves the selfadjoint Fredholm operators at t = 0.25" in capsys.readouterr().err


def test_an_intersection_tolerance_of_1_or_more_is_refused(tmp_path, capsys):
    # the cut of relative_kernels is 1 - intersection: at or below 0 both
    # relative kernels would be the whole space and the class silently 0
    triple, _ = dirac_circle(8, 1)
    path = OperatorPath.linear(triple.alg.zero(), -3.5 * triple.alg.identity())
    assert sf_unbounded(triple, path).ranks == (4,)
    edge = Tolerances(intersection=1.0 - 1e-16)
    assert edge.intersection < 1.0
    assert sf_unbounded(triple, path, edge).ranks == (4,)
    for value in (1.0, 2.5, 100):
        with pytest.raises(ModelError, match=r"tolerance intersection must lie in \(0, 1\)"):
            Tolerances(intersection=value)
    doc = {
        "task": "sf_unbounded",
        "algebra": encode_algebra(triple.alg),
        "operators": {
            "D": encode_operator(triple.D),
            "one": encode_operator(triple.alg.identity()),
            "A0": encode_operator(triple.alg.zero()),
            "A1": encode_operator(-3.5 * triple.alg.identity()),
        },
        "triple": {"D": "D", "generators": ["one"]},
        "path": {"keyframes": [{"t": 0.0, "op": "A0"}, {"t": 1.0, "op": "A1"}]},
    }
    task, out = tmp_path / "task.json", tmp_path / "report.json"
    for value, code in ((1.0 - 1e-16, 0), (1.0, 2), (2.5, 2)):
        task.write_text(json.dumps({**doc, "tolerances": {"intersection": value}}), "utf-8")
        assert main(["run", str(task), "--out", str(out)]) == code
        if code == 0:
            assert json.loads(out.read_text("utf-8"))["k0_class"] == [4]
    assert "tolerance intersection must lie in (0, 1)" in capsys.readouterr().err


# -- pushforward -----------------------------------------------------------------------


def test_pushforward_full_mask_is_identity():
    triple, u = _mixed_triple()
    mask = [b.in_ideal for b in triple.alg.blocks]
    sub, padded = pushforward_sf(triple, u, mask)
    assert sub == padded == sf_unitary(triple, u)


def test_pushforward_small_mask_zero_pads():
    triple, u = _mixed_triple()
    sub, padded = pushforward_sf(triple, u, [True, False, False])
    assert len(sub.ranks) == 1
    assert padded.ranks == (sub.ranks[0], 0)
    assert padded == sf_unitary(triple, u)


def test_pushforward_identity_unitary():
    triple, _ = _mixed_triple()
    sub, padded = pushforward_sf(triple, triple.alg.identity(), [True, False, False])
    assert sub.is_zero and padded.is_zero


def test_pushforward_reuses_the_flow_kernels(monkeypatch):
    import vnflow.corner
    import vnflow.triples
    from vnflow import kernel_pair

    triple, u = _mixed_triple()
    calls = []

    def counted(op, tol):
        calls.append(op)
        return kernel_pair(op, tol)

    for module in (vnflow.corner, vnflow.triples):
        monkeypatch.setattr(module, "kernel_pair", counted, raising=False)
    sf_unitary(triple, u)
    # one kernel pair (one SVD) of the lift p u p + (1 - p)
    assert len(calls) == 1
    calls.clear()
    sub, padded = pushforward_sf(triple, u, [True, False, False])
    assert len(calls) == 1
    assert padded == sf_unitary(triple, u)


def test_pushforward_rejects_mask_missing_support():
    triple, u = _mixed_triple()
    # block 0 carries (1 + D^2)^(-1) of order 1, so excluding it must fail
    with pytest.raises(PreconditionError):
        pushforward_sf(triple, u, [False, True, False])


def test_pushforward_rejects_nonideal_selection():
    triple, u = _mixed_triple()
    with pytest.raises(ModelError):
        pushforward_sf(triple, u, [True, True, True])


# -- consistency across the four routes ----------------------------------------------


def test_dirac_consistency_square():
    from vnflow import make_pairing_data, pairing_via_boundary

    for m in (4, 8):
        for k in range(-3, 4):
            triple, u = dirac_circle(m, k)
            flow_u = sf_unitary(triple, u)
            target = u.H @ triple.D @ u - triple.D
            flow_unb = sf_unbounded(
                triple, OperatorPath.linear(triple.alg.zero(), target)
            )
            fpath = OperatorPath.from_function(
                lambda t: bounded_transform(triple.D + t * target),
                np.linspace(0.0, 1.0, 9),
            )
            flow_path = spectral_flow(fpath, triple.alg)
            flow_pairing = pairing_via_boundary(
                make_pairing_data(triple.alg, triple.p, u)
            )
            assert flow_u == flow_unb == flow_path == flow_pairing


# -- result objects ------------------------------------------------------------------


def test_sf_unitary_result_carries_the_commutator():
    triple, u = dirac_circle(3, 1)
    result = sf_unitary_result(triple, u)
    assert result.k0 == sf_unitary(triple, u)
    assert dict(result.residuals) == {"commutator_quotient": 0.0}


def test_sf_unitary_result_carries_the_kernels_of_its_lift():
    triple, u = dirac_circle(4, 2)
    result = sf_unitary_result(triple, u)
    p, one = triple.p, triple.alg.identity()
    lifted = boundary_map_result(p @ u @ p + (one - p), triple.alg, eps_gap=1e-7)
    for mine, lift in ((result.kernel, lifted.kernel), (result.cokernel, lifted.cokernel)):
        assert all(np.array_equal(a, b) for a, b in zip(mine.blocks, lift.blocks, strict=True))
    # on the finite window the shift by 2 loses two vectors at either end
    assert (block_ranks(result.kernel), block_ranks(result.cokernel)) == ((2,), (2,))
    assert result.k0.is_zero


def test_sf_unbounded_result_carries_the_endpoint_intersections():
    triple, u = dirac_circle(4, 1)
    path = OperatorPath.linear(triple.alg.zero(), u.H @ triple.D @ u - triple.D)
    result = sf_unbounded_result(triple, path)
    assert result.kernel.is_projection() and result.cokernel.is_projection()
    assert k0_of_difference(result.kernel, result.cokernel, triple.alg) == result.k0
    assert (block_ranks(result.kernel), block_ranks(result.cokernel)) == ((1,), (1,))


def test_sf_unbounded_result_reports_the_drift_at_keyframes():
    # On the non-ideal block D = diag(1e8, -1e8) transforms to diag(1, -1);
    # the keyframe at t = 0.3 moves it to diag(1, -1) / sqrt(2).
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    big = np.diag([1e8, -1e8])
    one = alg.identity()
    triple = make_triple(alg, {"1": one}, BlockOperator([np.eye(1), big]))
    zero = alg.zero()
    bump = BlockOperator([np.zeros((1, 1)), np.diag([1.0, -1.0]) - big])
    path = OperatorPath([(0.0, zero), (0.3, bump), (1.0, zero)])
    with pytest.raises(ModelError):
        sf_unbounded(triple, path)
    loose = Tolerances(gap=0.5)
    result = sf_unbounded_result(triple, path, loose)
    assert result.k0 == sf_unbounded(triple, path, loose)
    assert result.residuals["quotient_drift"] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0))
    all_ideal = make_triple(single_block_alg(2), {"1": op(np.eye(2))}, op(np.eye(2)))
    flat = OperatorPath.linear(op(np.zeros((2, 2))), op(np.diag([0.5, -0.5])))
    assert sf_unbounded_result(all_ideal, flat).residuals["quotient_drift"] == 0.0
