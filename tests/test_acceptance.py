"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import time

import numpy as np

from vnflow import (
    BlockOperator,
    OperatorPath,
    bounded_transform,
    corner_index,
    crossing_oracle,
    dirac_circle,
    make_pairing_data,
    intermediate_operator,
    nearest_projection,
    cos_identity_check,
    pairing_via_boundary,
    pushforward_sf,
    quotient_norm,
    random_crossing_path,
    resolvent_integral_check,
    sf_unbounded,
    sf_unitary,
    spectral_flow,
    spectral_flow_result,
    make_triple,
    tau_star,
    weighted_model,
)

from conftest import (
    endpoint_rank_oracle,
    flow_over,
    op,
    random_certified_path,
    random_matrix,
    random_projection,
    random_selfadjoint,
    single_block_alg,
)
from test_corner import _random_fredholm_pair


def _report(number: int, name: str):
    def decorate(check):
        try:
            check()
        except BaseException:
            print(f"[acceptance] criterion {number:02d} FAIL  {name}")
            raise
        print(f"[acceptance] criterion {number:02d} PASS  {name}")

    return decorate


def test_criterion_01_calibration_instance():
    @_report(1, "calibration instance: flow (-1), trace -1.0, under 1 s")
    def check():
        started = time.perf_counter()
        alg = weighted_model([2], [1.0])
        path = OperatorPath.linear(
            op(np.diag([1.0, -1.0])), op(np.diag([1.0, 1.0]))
        )
        result = spectral_flow_result(path, alg)
        assert result.k0.ranks == (-1,)
        assert tau_star(result.k0, alg) == -1.0
        assert time.perf_counter() - started < 1.0


def test_criterion_02_consistency_triangle():
    @_report(2, "consistency triangle on 14 winding models, under 30 s")
    def check():
        started = time.perf_counter()

        # hand anchor: brute-force kernel ranks of the compressed winding
        # unitary at the smallest window fix the common class
        triple2, u2 = dirac_circle(2, 1)
        one2 = triple2.alg.identity()
        lift = triple2.p @ u2 @ triple2.p + (one2 - triple2.p)
        sing = np.linalg.svd(lift.blocks[0], compute_uv=False)
        ker = int(np.count_nonzero(sing <= 1e-10))
        coker = int(
            np.count_nonzero(
                np.linalg.svd(lift.blocks[0].conj().T, compute_uv=False) <= 1e-10
            )
        )
        anchor = (ker - coker,)
        assert sf_unitary(triple2, u2).ranks == anchor

        checked = 0
        for m in (16, 32):
            for k in range(-3, 4):
                triple, u = dirac_circle(m, k)
                flow_u = sf_unitary(triple, u)
                target = u.H @ triple.D @ u - triple.D
                flow_unbounded = sf_unbounded(
                    triple, OperatorPath.linear(triple.alg.zero(), target)
                )
                f_path = OperatorPath.from_function(
                    lambda t: bounded_transform(triple.D + t * target),
                    np.linspace(0.0, 1.0, 9),
                )
                flow_path = spectral_flow(f_path, triple.alg)
                data = make_pairing_data(triple.alg, triple.p, u)
                flow_pairing = pairing_via_boundary(data)
                assert flow_u == flow_unbounded == flow_path == flow_pairing
                checked += 1
        assert checked == 14
        assert time.perf_counter() - started < 30.0


def test_criterion_03_winding_linearity():
    @_report(3, "winding linearity: flow(k) = k * flow(1), exact")
    def check():
        m = 32
        triple, u1 = dirac_circle(m, 1)
        base = sf_unitary(triple, u1)
        for k in range(-3, 4):
            tk, uk = dirac_circle(m, k)
            assert sf_unitary(tk, uk) == k * base


def test_criterion_04_partition_and_homotopy_invariance():
    @_report(4, "partition refinement and homotopy invariance, 100/100")
    def check():
        passed = 0
        for seed in range(100):
            alg, path = random_certified_path(seed)
            result = spectral_flow_result(path, alg)

            parts = list(result.partition)
            mids = [0.5 * (a + b) for a, b in zip(parts, parts[1:])]
            refined = sorted(set(parts) | set(mids))
            flow_refined = flow_over(path, alg, refined)
            assert flow_refined == result.k0
            assert flow_refined.ranks == endpoint_rank_oracle(path, alg)

            rng = np.random.default_rng(10_000 + seed)
            frames = list(path.keyframes)
            new_frames = [frames[0]]
            for t, kf in frames[1:-1]:
                blocks = []
                for i, b in enumerate(kf.blocks):
                    if alg.blocks[i].in_ideal:
                        bump = random_selfadjoint(b.shape[0], rng, scale=0.3)
                        blocks.append(b + np.sin(np.pi * t) * bump)
                    else:
                        blocks.append(b)
                new_frames.append((t, BlockOperator(blocks)))
            new_frames.append(frames[-1])
            homotoped = OperatorPath(new_frames)
            assert spectral_flow(homotoped, alg) == result.k0
            passed += 1
        assert passed == 100


def test_criterion_05_index_additivity():
    @_report(5, "corner index additivity on 100 composable pairs, exact")
    def check():
        rng = np.random.default_rng(424242)
        for _ in range(100):
            alg, p, q, r, s, t = _random_fredholm_pair(rng)
            assert corner_index(t, q, r, alg) + corner_index(s, p, q, alg) == corner_index(
                t @ s, p, r, alg
            )


def test_criterion_06_oracle_equivalence():
    @_report(6, "trace flow equals weight times crossing count, 100/100")
    def check():
        rng = np.random.default_rng(31337)
        for seed in range(100):
            n = int(rng.integers(2, 17))
            n_cross = int(rng.integers(0, min(6, n)))
            signs = [int(s) for s in rng.choice([-1, 1], size=n_cross)]
            weight = float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25]))
            path = random_crossing_path(n, signs, seed=seed)
            alg = weighted_model([n], [weight])
            count = crossing_oracle(path, 2000, alg=alg)
            assert isinstance(count, int)
            value = tau_star(spectral_flow(path, alg), alg)
            assert value == weight * count


def test_criterion_07_lipschitz_bound():
    @_report(7, "bounded transform is 1-Lipschitz on 200 pairs (dims <= 64)")
    def check():
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            d = op(random_selfadjoint(n, rng, scale=rng.uniform(0.2, 5.0)))
            a = op(random_selfadjoint(n, rng, scale=rng.uniform(0.01, 3.0)))
            diff = (bounded_transform(d + a) - bounded_transform(d)).norm()
            assert diff <= a.norm() + 1e-12


def test_criterion_08_resolvent_integral():
    @_report(8, "resolvent integral residual <= 1e-6 relative, 20 triples, under 60 s")
    def check():
        started = time.perf_counter()
        rng = np.random.default_rng(555)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            alg = single_block_alg(n)
            d = op(random_selfadjoint(n, rng, scale=rng.uniform(0.3, 4.0)))
            a = op(random_matrix(n, rng))
            b = op(random_matrix(n, rng))
            triple = make_triple(alg, {"1": alg.identity(), "a": a}, d)
            result = resolvent_integral_check(triple, a, b)
            assert result.residual <= 1e-6 * max(1.0, result.direct_norm)
        assert time.perf_counter() - started < 60.0


def test_criterion_09_mod_ideal_identities():
    @_report(9, "cos identity and quotient unitarity residuals <= 1e-7")
    def check():
        rng = np.random.default_rng(777)
        # cos identity: exact projections perturbed by ideal noise
        alg = weighted_model([4, 3], [1.0, 1.0], [True, False])
        for _ in range(20):
            q = BlockOperator(
                [
                    random_projection(4, int(rng.integers(0, 5)), rng)
                    + 0.1 * random_selfadjoint(4, rng),
                    random_projection(3, int(rng.integers(0, 4)), rng),
                ]
            )
            assert cos_identity_check(q, alg) <= 1e-7

        # quotient unitarity of the intermediate operator on pairing data sets
        datasets = []
        for m, k in ((2, 1), (8, 1), (8, -3), (16, 2), (32, 3)):
            triple, u = dirac_circle(m, k)
            datasets.append(make_pairing_data(triple.alg, triple.p, u))
        triple, u = dirac_circle(6, 1)
        noise = random_selfadjoint(13, rng)
        noisy_p = triple.p + op(0.05 * noise / np.linalg.norm(noise, 2))
        datasets.append(make_pairing_data(triple.alg, noisy_p, u))
        for data in datasets:
            w_op = intermediate_operator(data)
            one = data.alg.identity()
            assert quotient_norm(w_op.H @ w_op - one, data.alg) <= 1e-7
            assert quotient_norm(w_op @ w_op.H - one, data.alg) <= 1e-7


def test_criterion_10_pushforward_compatibility():
    @_report(10, "pushforward classes embed to the full flow, 20/20")
    def check():
        rng = np.random.default_rng(888)
        for case in range(20):
            active_dim = int(rng.integers(3, 7))
            spectator_dim = int(rng.integers(2, 5))
            with_nonideal = bool(rng.uniform() < 0.5)
            dims = [active_dim, spectator_dim]
            weights = [1.0, float(rng.choice([1.0, 0.5]))]
            mask = [True, True]
            if with_nonideal:
                dims.append(2)
                weights.append(1.0)
                mask.append(False)
            alg = weighted_model(dims, weights, mask)

            blocks_d = [
                np.diag(
                    np.linspace(
                        -(active_dim // 2), active_dim - 1 - active_dim // 2, active_dim
                    ).astype(complex)
                ),
                np.diag(1e5 * (1.0 + np.arange(spectator_dim)).astype(complex)),
            ]
            if with_nonideal:
                blocks_d.append(np.diag(np.array([1e9, -1e9], dtype=complex)))
            d = BlockOperator(blocks_d)

            shift = np.zeros((active_dim, active_dim), dtype=complex)
            step = int(rng.integers(1, active_dim))
            for j in range(active_dim):
                shift[(j + step) % active_dim, j] = 1.0
            blocks_u = [shift, np.eye(spectator_dim, dtype=complex)]
            if with_nonideal:
                blocks_u.append(np.eye(2, dtype=complex))
            u = BlockOperator(blocks_u)

            triple = make_triple(alg, {"1": alg.identity(), "u": u, "u*": u.H}, d)
            sub_mask = [True, False] + ([False] if with_nonideal else [])
            sub, padded = pushforward_sf(triple, u, sub_mask)
            assert padded == sf_unitary(triple, u)
            assert padded.ranks[0] == sub.ranks[0]
            assert all(r == 0 for r in padded.ranks[1:])


def test_criterion_11_nearest_projection_contract():
    @_report(11, "nearest projection: idempotent output within distance 1/2, 100/100")
    def check():
        rng = np.random.default_rng(999)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            p = random_projection(n, int(rng.integers(1, n)), rng)
            noise = random_selfadjoint(n, rng)
            noise *= rng.uniform(0.01, 0.07) / max(np.linalg.norm(noise, 2), 1e-15)
            e = op(p + noise)
            assert (e @ e - e).norm() < 0.25
            snapped = nearest_projection(e)
            mat = snapped.blocks[0]
            assert np.allclose(mat @ mat, mat, atol=1e-12)
            assert np.allclose(mat, mat.conj().T, atol=1e-12)
            assert (snapped - e).norm() < 0.5
