"""Spectral flow: certification, partitions, the defining sum, trace values."""

from __future__ import annotations

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vnflow import (
    DEFAULT_TOL,
    BlockOperator,
    K0Class,
    OperatorPath,
    PathError,
    block_ranks,
    certify_path,
    chi,
    crossing_oracle,
    find_partition,
    flow,
    numeric_spectral_flow,
    relative_kernels,
    spectral_flow,
    spectral_flow_result,
    tau_star,
    weighted_model,
)
from vnflow.cli import encode_algebra, encode_operator, main
from vnflow.flow import _flow_over_partition

from conftest import (
    BrokenPromise,
    concatenated,
    endpoint_rank_oracle,
    flow_over,
    haar_unitary,
    op,
    random_certified_path,
    random_selfadjoint,
    rotation_path,
    sampled_flow_result,
    segment_move,
    single_block_alg,
    step_cosines,
)


def _calibration_path() -> OperatorPath:
    return OperatorPath.linear(op(np.diag([1.0, -1.0])), op(np.diag([1.0, 1.0])))


# -- certification ---------------------------------------------------------------


def test_certify_constant_identity():
    alg = single_block_alg(2, ideal=False)
    path = OperatorPath.linear(alg.identity(), alg.identity())
    cert = certify_path(path, alg)
    assert not cert.vacuous
    assert cert.min_gap == pytest.approx(1.0)
    assert cert.lipschitz == 0.0


def test_certify_all_ideal_is_vacuous():
    alg = single_block_alg(2)
    cert = certify_path(_calibration_path(), alg)
    assert cert.vacuous


def test_certify_detects_quotient_zero_crossing():
    alg = single_block_alg(2, ideal=False)
    path = OperatorPath.linear(op(np.diag([1.0, -0.5])), op(np.diag([1.0, 0.5])))
    with pytest.raises(PathError) as err:
        certify_path(path, alg)
    assert "t = 0.5" in str(err.value)


def test_certify_gap_error_carries_fields():
    alg = single_block_alg(2, ideal=False)
    path = OperatorPath.linear(op(np.diag([1.0, -0.5])), op(np.diag([1.0, 0.5])))
    with pytest.raises(PathError) as err:
        certify_path(path, alg)
    assert err.value.fields == {"t": 0.5, "gap": 0.0, "bound": DEFAULT_TOL.gap}


def _ideal_and_large_block(block0, block1, ideal0, ideal1) -> OperatorPath:
    """A path on an ideal 1 x 1 block and a non-ideal diagonal 2 x 2 block."""
    return OperatorPath.linear(
        BlockOperator([np.array([[ideal0]]), np.diag(block0)]),
        BlockOperator([np.array([[ideal1]]), np.diag(block1)]),
    )


def test_certify_floor_is_chi_zero_threshold_at_large_norm():
    # at norm 1e3 chi counts eigenvalues down to -kernel * 1e3 = -1e-7 as zero,
    # so a quotient gap of 5e-8 would split differently from chi
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    path = _ideal_and_large_block([1e3, -5e-8], [1e3, -1.0], 1.0, 1.0)
    with pytest.raises(PathError) as err:
        certify_path(path, alg)
    assert err.value.fields["t"] == 0.0
    assert err.value.fields["bound"] == pytest.approx(1e-7)
    assert "5.000e-08 <= 1.000e-07" in str(err.value)
    # a gap well above the floor at the same norm still certifies and flows
    path = _ideal_and_large_block([1e3, -0.5], [1e3, -1.0], 1.0, -1.0)
    assert spectral_flow(path, alg).ranks == (1,)


def test_certify_rejects_non_selfadjoint_keyframes():
    alg = single_block_alg(2, ideal=False)
    bad = op(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(Exception):
        certify_path(OperatorPath.linear(bad, bad), alg)


def test_certify_bisects_a_segment_whose_endpoint_gaps_are_too_small():
    # the endpoint gaps (0.1 each) cannot cover the quotient movement 2.9, so
    # the segment is split once at t = 1/2, where the gap is 1.55
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    path = OperatorPath.linear(
        BlockOperator([np.diag([1.0, -1.0]), np.diag([3.0, -0.1])]),
        BlockOperator([np.diag([-1.0, -1.0]), np.diag([0.1, -3.0])]),
    )
    cert = certify_path(path, alg)
    assert cert.samples == (0.0, 0.5, 1.0)
    assert cert.min_gap == pytest.approx(0.1)
    assert [(a, b) for a, b, _ in cert.segments] == [(0.0, 0.5), (0.5, 1.0)]
    result = spectral_flow_result(path, alg)
    assert result.k0.ranks == endpoint_rank_oracle(path, alg) == (1,)


def test_certify_survives_rotating_invertible_quotient():
    rng = np.random.default_rng(1)
    alg = single_block_alg(3, ideal=False)
    rot = rotation_path(3, rng, speed=2.0)

    def frame(t):
        v = rot(t)
        mat = (v * np.array([1.0, -1.0, 0.7])) @ v.conj().T
        return BlockOperator([0.5 * (mat + mat.conj().T)])

    path = OperatorPath.from_function(frame, np.linspace(0, 1, 9))
    cert = certify_path(path, alg)
    assert cert.min_gap > 0.5


# -- partition search --------------------------------------------------------------


def test_partition_constant_path():
    alg = single_block_alg(2, ideal=False)
    path = OperatorPath.linear(alg.identity(), alg.identity())
    assert find_partition(path, alg) == [0.0, 1.0]


def test_partition_all_ideal():
    alg = single_block_alg(2)
    assert find_partition(_calibration_path(), alg) == [0.0, 1.0]


def test_partition_depth_exhaustion():
    # quotient spectral projection flips by a quarter turn inside a window far
    # narrower than the deepest dyadic leaf, so no partition can certify
    from vnflow import PartitionError

    alg = single_block_alg(2, ideal=False)
    eps = 0.01
    delta = 2.0**-24

    def rotated(theta: float) -> BlockOperator:
        c, s = np.cos(theta), np.sin(theta)
        r = np.array([[c, -s], [s, c]], dtype=complex)
        return op(r @ np.diag([eps, -eps]) @ r.conj().T)

    path = OperatorPath(
        [
            (0.0, rotated(0.0)),
            (0.5 - delta, rotated(0.0)),
            (0.5, rotated(np.pi / 4.0)),
            (0.5 + delta, rotated(np.pi / 2.0)),
            (1.0, rotated(np.pi / 2.0)),
        ]
    )
    certify_path(path, alg)
    with pytest.raises(PartitionError):
        find_partition(path, alg)


def _rotating_projection_path() -> OperatorPath:
    """A non-ideal 2 x 2 block whose eigenbasis turns, so its chi turns with it."""
    rot = rotation_path(2, np.random.default_rng(2), speed=2.6)

    def frame(t):
        v = rot(t)
        mat = (v * np.array([1.0, -1.0])) @ v.conj().T
        return BlockOperator([0.5 * (mat + mat.conj().T)])

    return OperatorPath.from_function(frame, np.linspace(0, 1, 9))


def test_partition_refines_under_quotient_rotation():
    alg = single_block_alg(2, ideal=False)
    path = _rotating_projection_path()
    parts = find_partition(path, alg)
    assert len(parts) > 2
    # refining the partition does not change the class
    flow = flow_over(path, alg, parts)
    mids = [0.5 * (a + b) for a, b in zip(parts, parts[1:])]
    refined = sorted(set(parts) | set(mids))
    assert flow_over(path, alg, refined) == flow


def _chi_spread(path, alg, a, b, n):
    """Largest quotient distance between chi at any two of n equally spaced
    points of [a, b]."""
    projections = [chi(path.at(t)) for t in np.linspace(a, b, n)]
    spread = 0.0
    for i in alg.nonideal_indices:
        stack = np.array([p.blocks[i] for p in projections])
        diffs = stack[:, None] - stack[None, :]
        spread = max(spread, float(np.max(np.linalg.norm(diffs, 2, axis=(-2, -1)))))
    return spread


def _rotated(k: int) -> np.ndarray:
    c, s = np.cos(k * np.pi / 8.0), np.sin(k * np.pi / 8.0)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag([1.0, -1.0]) @ r.T


def test_partition_is_proved_between_grid_points():
    # the quotient projection turns by pi/2 and back within [0, 0.12], between
    # the points of a 9-point dyadic grid on [0, 1], so sampling that grid sees
    # a constant path; the certified partition has to cut inside the turn
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    ks = (0, 1, 2, 3, 4, 3, 2, 1, 0)
    frames = [(0.015 * j, op(np.eye(1), _rotated(k))) for j, k in enumerate(ks)]
    path = OperatorPath(frames + [(1.0, op(np.eye(1), _rotated(0)))])
    parts = find_partition(path, alg)
    bound = 0.5 - DEFAULT_TOL.margin
    for a, b in zip(parts, parts[1:]):
        assert _chi_spread(path, alg, a, b, 41) < bound
    assert spectral_flow(path, alg).is_zero


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_flow_properties_random(seed):
    alg, path = random_certified_path(seed)
    result = spectral_flow_result(path, alg)
    assert result.k0.ranks == endpoint_rank_oracle(path, alg)
    assert spectral_flow(path.reversed(), alg) == -result.k0
    bound = 0.5 - DEFAULT_TOL.margin
    parts = result.partition
    for a, b in zip(parts, parts[1:]):
        assert _chi_spread(path, alg, a, b, 33) < bound


# -- the defining sum ---------------------------------------------------------------


def test_flow_of_constant_path_is_zero():
    alg = single_block_alg(3)
    c = op(np.diag([1.0, -1.0, 0.3]))
    assert spectral_flow(OperatorPath.linear(c, c), alg).is_zero


def test_calibration_instance():
    alg, path = single_block_alg(2), _calibration_path()
    result = spectral_flow_result(path, alg)
    assert result.k0.ranks == (-1,)
    assert result.k0.ranks == endpoint_rank_oracle(path, alg)
    assert tau_star(result.k0, alg) == -1.0


def test_calibration_reversed():
    alg = single_block_alg(2)
    assert spectral_flow(_calibration_path().reversed(), alg).ranks == (1,)


def test_numeric_flow_weighted():
    path = _calibration_path()
    assert numeric_spectral_flow(path, single_block_alg(2, weight=1.0)) == -1.0
    assert numeric_spectral_flow(path, single_block_alg(2, weight=0.5)) == -0.5


def test_flow_matches_endpoint_oracle_random():
    for seed in range(25):
        alg, path = random_certified_path(seed)
        flow = spectral_flow(path, alg)
        assert flow.ranks == endpoint_rank_oracle(path, alg)


def test_flow_partition_refinement_invariance_random():
    for seed in range(15):
        alg, path = random_certified_path(seed + 1000)
        result = spectral_flow_result(path, alg)
        parts = list(result.partition)
        mids = [0.5 * (a + b) for a, b in zip(parts, parts[1:])]
        refined = sorted(set(parts) | set(mids))
        flow2 = flow_over(path, alg, refined)
        assert flow2 == result.k0
        assert flow2.ranks == endpoint_rank_oracle(path, alg)


def test_flow_homotopy_invariance_random():
    # second path: same endpoints, same non-ideal keyframes, different middles
    for seed in range(15):
        alg, path = random_certified_path(seed + 2000)
        rng = np.random.default_rng(seed + 5000)
        frames = list(path.keyframes)
        new_frames = [frames[0]]
        for t, kf in frames[1:-1]:
            bump_blocks = []
            for i, b in enumerate(kf.blocks):
                if alg.blocks[i].in_ideal:
                    bump = random_selfadjoint(b.shape[0], rng, scale=0.35)
                    bump_blocks.append(b + np.sin(np.pi * t) * bump)
                else:
                    bump_blocks.append(b)
            new_frames.append((t, BlockOperator(bump_blocks)))
        new_frames.append(frames[-1])
        other = OperatorPath(new_frames)
        certify_path(other, alg)
        assert spectral_flow(other, alg) == spectral_flow(path, alg)


def test_flow_ideal_perturbation_invariance_random():
    # perturb only on ideal blocks, keeping endpoint spectral projections close
    for seed in range(15):
        alg, path = random_certified_path(seed + 3000)
        rng = np.random.default_rng(seed + 7000)

        def min_endpoint_gap(p):
            gaps = []
            for t in (0.0, 1.0):
                for i in alg.ideal_indices:
                    w = np.linalg.eigvalsh(p.at(t).blocks[i])
                    gaps.append(float(np.min(np.abs(w))))
            return min(gaps)

        margin = min_endpoint_gap(path)
        if margin < 1e-3:
            continue
        scale = 0.4 * margin
        bumps = {}
        for i in alg.ideal_indices:
            b = random_selfadjoint(alg.dims[i], rng)
            bumps[i] = scale * b / max(np.linalg.norm(b, 2), 1e-12)

        def perturbed(t):
            base = path.at(t)
            blocks = [
                b + bumps[i] if i in bumps else b
                for i, b in enumerate(base.blocks)
            ]
            return BlockOperator(blocks)

        other = OperatorPath.from_function(perturbed, path.times)
        assert spectral_flow(other, alg) == spectral_flow(path, alg)


def _split(path: OperatorPath, k: int) -> tuple[OperatorPath, OperatorPath]:
    """The path cut at its keyframe ``k``, each part rescaled to [0, 1]."""
    cut = path.times[k]
    first = [(t / cut, frame) for t, frame in path.keyframes[: k + 1]]
    second = [((t - cut) / (1.0 - cut), frame) for t, frame in path.keyframes[k:]]
    return OperatorPath(first), OperatorPath(second)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_flow_additivity_at_an_interior_keyframe(seed, k):
    alg, path = random_certified_path(seed)
    first, second = _split(path, k)
    halves = spectral_flow(first, alg) + spectral_flow(second, alg)
    assert spectral_flow(path, alg) == halves
    assert spectral_flow(concatenated(first, second), alg) == halves


def test_flow_concatenation_additivity():
    alg = single_block_alg(2)
    first = _calibration_path()
    second = OperatorPath.linear(op(np.diag([1.0, 1.0])), op(np.diag([1.0, 3.0])))
    joined = concatenated(first, second)
    assert (
        spectral_flow(joined, alg)
        == spectral_flow(first, alg) + spectral_flow(second, alg)
    )
    back = concatenated(first, first.reversed())
    assert spectral_flow(back, alg).is_zero


def test_flow_matches_crossing_oracle_all_ideal():
    rng = np.random.default_rng(8)
    alg = single_block_alg(4)
    rot = rotation_path(4, rng, speed=1.0)

    def frame(t):
        curve = np.array([1.2, 0.6 - 1.4 * t, -0.8, -1.3 + 2.0 * t])
        v = rot(t)
        mat = (v * curve) @ v.conj().T
        return BlockOperator([0.5 * (mat + mat.conj().T)])

    path = OperatorPath.from_function(frame, np.linspace(0, 1, 17))
    oracle = crossing_oracle(path, 1500, alg=alg)
    assert numeric_spectral_flow(path, alg) == float(oracle)


# -- the relative index of a step from principal angles ------------------------------

# the principal cosine below which a step's two ranges count as meeting at a
# right angle: the cut 1 - intersection on the sines, the eigenvalues of P - Q
_CUT = math.sqrt(1.0 - (1.0 - DEFAULT_TOL.intersection) ** 2)


@st.composite
def projection_pairs(draw):
    """A block of projections P and Q in a Haar-random basis with prescribed
    principal angles, and the dimensions of P ∧ (1 - Q) and (1 - P) ∧ Q: shared
    vectors, vectors of P or Q alone, and pairs at a generic angle or with
    cosine at 0.99 or 1.01 times the cut."""
    common, p_only, q_only, free = (draw(st.integers(0, 2)) for _ in range(4))
    pairs = draw(st.lists(st.sampled_from([None, 0.99, 1.01]), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = common + p_only + q_only + free + 2 * len(pairs)
    assume(n > 0)
    eye = np.eye(n)
    p_cols = list(range(common + p_only))
    q_cols = [eye[:, i] for i in range(common)]
    q_cols += [eye[:, i] for i in range(common + p_only, common + p_only + q_only)]
    for k, factor in enumerate(pairs):
        a = common + p_only + q_only + 2 * k
        cos = rng.uniform(0.01, 0.99) if factor is None else factor * _CUT
        p_cols.append(a)
        q_cols.append(cos * eye[:, a] + math.sqrt(1.0 - cos * cos) * eye[:, a + 1])
    u = haar_unitary(n, rng)
    vp, vq = u @ eye[:, p_cols], u @ np.array(q_cols).reshape(-1, n).T
    below = pairs.count(0.99)
    return vp @ vp.conj().T, vq @ vq.conj().T, (p_only + below, q_only + below)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(projection_pairs(), min_size=1, max_size=3))
def test_overlap_step_dimensions_equal_relative_kernels(blocks):
    """A step from P to Q against the ranks of P ∧ (1 - Q) and (1 - P) ∧ Q that
    ``relative_kernels`` takes from the eigenvalues +-1 of P - Q, which are the
    dimensions the angles were placed for.  With every block in the ideal, and
    with each block in turn off it: on an ideal block the step's class is
    kernel minus cokernel; off the ideal the reference finds a rank break
    exactly when either rank is nonzero there, and otherwise passes or finds
    the partition's promise broken."""
    p, q = (BlockOperator([b[k] for b in blocks]) for k in (0, 1))
    ker, coker = (block_ranks(r) for r in relative_kernels(p, q))
    assert list(zip(ker, coker)) == [dims for _, _, dims in blocks]
    for off in [None, *range(len(blocks))]:
        ideal = [i != off for i in range(len(blocks))]
        alg = weighted_model([len(b) for b in p.blocks], [1.0] * len(blocks), ideal)
        path = OperatorPath.linear(2.0 * p - alg.identity(), 2.0 * q - alg.identity())
        classes = tuple(k - c for k, c, flag in zip(ker, coker, ideal) if flag)
        assert _flow_over_partition(path, alg, [0.0, 1.0], DEFAULT_TOL)[0].ranks == classes
        support = off is not None and bool(ker[off] or coker[off])
        try:
            step_cosines(path, alg, [0.0, 1.0])
        except BrokenPromise as err:
            assert err.block == off and (err.kind == "rank") == support
            continue
        assert not support


def _turn(angle: float, keyframes: int = 9) -> OperatorPath:
    """A fixed ideal 1 x 1 block beside a non-ideal 2 x 2 block whose
    eigenbasis turns by ``angle``: chi there goes from e_1 to the turned e_1."""

    def frame(t: float) -> BlockOperator:
        c, s = math.cos(angle * t), math.sin(angle * t)
        r = np.array([[c, -s], [s, c]])
        return op(np.eye(1), r @ np.diag([1.0, -1.0]) @ r.T)

    return OperatorPath.from_function(frame, np.linspace(0.0, 1.0, keyframes))


_TURN_ALG = weighted_model([1, 2], [1.0, 1.0], [True, False])


def test_certified_steps_keep_the_partition_promise():
    alg = single_block_alg(2, ideal=False)
    path = _rotating_projection_path()
    result = spectral_flow_result(path, alg)
    assert len(result.steps) > 1
    cosines = step_cosines(path, alg, result.partition)  # raises on a broken promise
    assert len(cosines) == len(result.steps) and min(cosines) < 0.99
    assert not hasattr(result.steps[0], "min_cosine")
    # a path with no non-ideal block has no angle to witness
    assert step_cosines(_calibration_path(), single_block_alg(2), [0.0, 1.0]) == [1.0]


def test_a_coarsened_partition_breaks_the_promise_and_is_caught():
    # the rotating projection turns by more than the partition allows between
    # 0 and 1: its principal cosine there is about 0.83 < 0.893
    alg = single_block_alg(2, ideal=False)
    path = _rotating_projection_path()
    with pytest.raises(BrokenPromise) as err:
        step_cosines(path, alg, [0.0, 1.0])
    assert (err.value.kind, err.value.block, err.value.t) == ("sine", 0, 1.0)
    assert err.value.value > 0.5 - DEFAULT_TOL.margin
    # the flow reads the ideal blocks only and leaves the promise to the partition
    assert _flow_over_partition(path, alg, [0.0, 1.0], DEFAULT_TOL) == [K0Class(())]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(random_certified_path),
        st.just((single_block_alg(2, ideal=False), _rotating_projection_path())),
        st.floats(-2.0 * math.pi, 2.0 * math.pi).map(lambda angle: (_TURN_ALG, _turn(angle))),
    )
)
def test_every_partition_find_partition_makes_keeps_the_promise(case):
    """The principal-angle reference holds on every step of every partition
    ``find_partition`` makes: its Davis-Kahan budget, not a runtime check,
    keeps the steps' non-ideal ranges from meeting at a right angle."""
    alg, path = case
    partition = find_partition(path, alg)
    assert len(step_cosines(path, alg, partition)) == len(partition) - 1


def _run(tmp_path, path) -> int:
    doc = {
        "task": "spectral_flow",
        "algebra": encode_algebra(_TURN_ALG),
        "operators": {f"A{k}": encode_operator(a) for k, (_, a) in enumerate(path.keyframes)},
        "path": {"keyframes": [{"t": t, "op": f"A{k}"} for k, (t, _) in enumerate(path.keyframes)]},
    }
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc), encoding="utf-8")
    return main(["run", str(task), "--out", str(tmp_path / "report.json")])


def _run_with_partition(tmp_path, path, partition) -> int:
    with mock.patch.object(flow, "find_partition", lambda *args: partition):
        return _run(tmp_path, path)


def test_a_promise_broken_by_a_forced_partition_is_caught_by_the_reference(tmp_path):
    path = _turn(math.pi / 3.0)
    step_cosines(path, _TURN_ALG, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(BrokenPromise) as err:
        step_cosines(path, _TURN_ALG, [0.0, 1.0])
    assert (err.value.kind, err.value.block) == ("sine", 1)
    assert err.value.value == pytest.approx(math.sin(math.pi / 3.0))
    # the certificate alone decides the quotient: the flow does not re-check the
    # partition, so a forced one is a test's concern and the run still exits 0
    assert _run_with_partition(tmp_path, path, [0.0, 0.25, 0.5, 0.75, 1.0]) == 0
    assert _run_with_partition(tmp_path, path, [0.0, 1.0]) == 0


def test_a_step_rank_mismatch_off_the_ideal_is_not_in_the_ideal(tmp_path):
    # a quarter turn takes chi from e_1 to e_2, which meet at a right angle:
    # both kernel intersections of the step are one-dimensional off the ideal
    path = _turn(math.pi / 2.0)
    with pytest.raises(BrokenPromise) as err:
        step_cosines(path, _TURN_ALG, [0.0, 1.0])
    assert (err.value.kind, err.value.block, err.value.value) == ("rank", 1, (0, 1, 1))
    assert _run_with_partition(tmp_path, path, [0.0, 1.0]) == 0
    # the partition the certificate gives keeps the promise
    result = spectral_flow_result(path, _TURN_ALG)
    step_cosines(path, _TURN_ALG, result.partition)
    assert result.k0.ranks == (0,) and len(result.steps) > 1


def test_a_long_path_off_the_ideal_is_certified_step_by_step(tmp_path):
    # twenty full turns of the non-ideal block: every step keeps the promise,
    # though the product of all its cosines falls far below any kernel cut
    path = _turn(40.0 * math.pi, 20 * 64 + 1)
    result = spectral_flow_result(path, _TURN_ALG)
    assert result.k0.ranks == (0,)
    assert len(result.steps) > 290
    assert min(step_cosines(path, _TURN_ALG, result.partition)) < 0.99
    assert _run(tmp_path, path) == 0


# -- one stacked call per block size per path -------------------------------------


@st.composite
def many_block_paths(draw):
    """A model of 3-10 blocks of dimension 2 or 3, so that sizes repeat, with
    mixed ideal flags, and a path of 2-7 keyframes on it: random selfadjoint
    ideal blocks, and non-ideal blocks whose spectrum stays at modulus 0.4-1.5
    while their eigenbasis turns, fast enough to bisect at times."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=3, max_size=10))
    ideal = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    n_keyframes = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alg = weighted_model(dims, [1.0] * len(dims), ideal)
    builders = []
    for n, in_ideal in zip(dims, ideal):
        if in_ideal:
            ends = [random_selfadjoint(n, rng) for _ in range(n_keyframes)]
            builders.append(lambda k, t, ends=ends: ends[k])
        else:
            levels = rng.uniform(0.4, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            rot = rotation_path(n, rng, speed=float(rng.uniform(0.0, 6.0)))
            builders.append(lambda k, t, rot=rot, w=levels: (rot(t) * w) @ rot(t).conj().T)
    times = np.linspace(0.0, 1.0, n_keyframes)
    frames = []
    for k, t in enumerate(times):
        mats = [b(k, t) for b in builders]
        frames.append((t, BlockOperator([0.5 * (m + m.conj().T) for m in mats])))
    return alg, OperatorPath(frames)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _outcome(run):
    try:
        return run()
    except PathError as exc:
        return exc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(0, 2**32 - 1).map(random_certified_path),
        st.just((single_block_alg(2, ideal=False), _rotating_projection_path())),
        many_block_paths(),
    )
)
def test_the_stacked_flow_equals_the_flow_sampled_one_time_at_a_time(case):
    """Filling every keyframe's spectrum, every keyframe segment's movement and
    every partition point's counts with one call per stack gives bitwise the
    gaps, sides, movements, partition and classes of one call per time."""
    alg, path = case
    result = _outcome(lambda: spectral_flow_result(path, alg))
    reference = _outcome(lambda: sampled_flow_result(path, alg))
    if isinstance(reference, PathError):
        assert isinstance(result, PathError) and result.fields == reference.fields
        return
    assert result.partition == reference.partition
    assert [s.contribution for s in result.steps] == [s.contribution for s in reference.steps]
    assert _hex([s.gap_end for s in result.steps]) == _hex([s.gap_end for s in reference.steps])
    cert, ref = result.certificate, reference.certificate
    assert (cert.vacuous, cert.samples) == (ref.vacuous, ref.samples)
    assert _hex([cert.min_gap, cert.lipschitz]) == _hex([ref.min_gap, ref.lipschitz])
    assert sorted(cert.spectra) == sorted(ref.spectra)
    for t, (gap, sides) in ref.spectra.items():
        assert _hex([cert.spectra[t][0]]) == _hex([gap])
        assert _hex(cert.spectra[t][1]) == _hex(sides)
    assert [(a, b) for a, b, _ in cert.segments] == [(a, b) for a, b, _ in ref.segments]
    for a, b, move in cert.segments:
        assert _hex(move) == _hex(segment_move(path, alg, a, b))


def test_a_bisection_fails_before_a_later_singular_keyframe():
    """The spectra of every keyframe are computed up front, but the gaps are
    still checked segment by segment, midpoints depth first: the first
    segment's midpoint t = 1/4 is singular, and so is the keyframe t = 1, and
    the error is raised at t = 1/4, as when each time is filled alone."""
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    path = OperatorPath([
        (0.0, op(np.eye(1), np.diag([1.0, -0.2]))),
        (0.5, op(np.eye(1), np.diag([1.0, 0.2]))),
        (1.0, op(np.eye(1), np.diag([1.0, 0.0]))),
    ])
    with pytest.raises(PathError) as err:
        spectral_flow_result(path, alg)
    with pytest.raises(PathError) as ref:
        sampled_flow_result(path, alg)
    assert err.value.fields == ref.value.fields == {
        "t": 0.25, "gap": 0.0, "bound": DEFAULT_TOL.gap,
    }


def test_an_overflowing_frobenius_bound_warns_nothing():
    """A keyframe entry of 1e300 makes the stacked Frobenius bound overflow to
    inf: the floor then takes the exact norm, silently, and the class holds."""
    alg = weighted_model([1, 2], [1.0, 1.0], [False, True])
    big = op(np.array([[1e300]]), np.diag([1.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_flow(OperatorPath.linear(big, big), alg).ranks == (0,)
