"""Command line front end: schemas, reports, determinism, exit codes."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vnflow.cli import (
    GENERATE_MAX_DIM,
    _build_parser,
    canonical_json,
    encode_algebra,
    encode_operator,
    main,
)
from vnflow import BlockOperator, weighted_model


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _calibration_doc():
    alg = weighted_model([2], [1.0])
    b0 = BlockOperator([np.diag([1.0, -1.0])])
    b1 = BlockOperator([np.diag([1.0, 1.0])])
    return {
        "task": "spectral_flow",
        "algebra": encode_algebra(alg),
        "operators": {"B0": encode_operator(b0), "B1": encode_operator(b1)},
        "path": {"keyframes": [{"t": 0.0, "op": "B0"}, {"t": 1.0, "op": "B1"}]},
        "seed": 7,
    }


def test_canonical_json_floats():
    text = canonical_json({"a": 1.0, "b": 1.0 / 3.0, "c": [True, None, "x"]})
    assert text == '{"a":1,"b":0.33333333333333331,"c":[true,null,"x"]}'


def test_spectral_flow_task(tmp_path, capsys):
    doc = _write(tmp_path, "task.json", _calibration_doc())
    out = tmp_path / "report.json"
    assert main(["run", doc, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["task"] == "spectral_flow"
    assert report["k0_class"] == [-1]
    assert report["tau"] == -1.0
    assert report["partition"] == [0.0, 1.0]
    assert report["version"] == "0.1.0"
    assert report["seed"] == 7


def test_reports_are_byte_identical(tmp_path):
    doc = _write(tmp_path, "task.json", _calibration_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", doc, "--out", str(out1)]) == 0
    assert main(["run", doc, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_repeated_main_calls_share_one_parser_and_repeat_their_output(tmp_path, capsys):
    """The parser is built once per process; every call, including the error
    calls, exits and prints the same the second time round."""
    doc = _write(tmp_path, "task.json", _calibration_doc())
    bad = _write(tmp_path, "bad.json", {"task": "no_such_task"})
    report = tmp_path / "report.json"
    calls = [
        ["run", doc, "--out", str(report)],
        ["run", bad],
        ["run"],  # the parser's own error: no task file
        ["generate", "dirac", "--m", "2", "--k", "1"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err, report.read_bytes()

    first = [outcome(argv) for argv in calls]
    assert [code for code, *_ in first] == [0, 2, ("exit", 2), 0]
    assert [outcome(argv) for argv in calls] == first
    assert _build_parser() is _build_parser()


def test_tracks_csv(tmp_path):
    doc = _write(tmp_path, "task.json", _calibration_doc())
    out = tmp_path / "report.json"
    tracks = tmp_path / "tracks.csv"
    assert main(["run", doc, "--out", str(out), "--tracks", str(tracks)]) == 0
    lines = tracks.read_text().strip().splitlines()
    assert lines[0] == "t,block,index,eigenvalue"
    assert len(lines) == 1 + 201 * 2
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert float(first[3]) == -1.0


def test_malformed_matrix_exits_2(tmp_path, capsys):
    doc = _calibration_doc()
    doc["operators"]["B0"] = [[[[1.0, 0.0], [0.0, 0.0]]]]  # 1 x 2 block
    path = _write(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert "square" in capsys.readouterr().err


def test_unknown_task_exits_2(tmp_path):
    doc = _calibration_doc()
    doc["task"] = "frobnicate"
    assert main(["run", _write(tmp_path, "bad.json", doc)]) == 2


def test_unreadable_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["run", str(broken)]) == 2


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"task": "caf\xe9"}')
    assert main(["run", str(latin)]) == 2
    assert "cannot read task document" in capsys.readouterr().err


def test_a_document_nested_beyond_the_recursion_limit_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["run", str(deep)]) == 2
    assert "cannot read task document" in capsys.readouterr().err


def test_a_nan_keyframe_time_exits_2(tmp_path, capsys):
    doc = _calibration_doc()
    doc["path"]["keyframes"].insert(1, {"t": float("nan"), "op": "B0"})
    path = _write(tmp_path, "nan.json", doc)
    assert "NaN" in open(path, encoding="utf-8").read()
    assert main(["run", path]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_generate_refuses_a_block_above_the_cap(tmp_path, capsys):
    # only values just above the cap run: an uncapped size would allocate
    assert 2 * 64 + 1 <= GENERATE_MAX_DIM  # the corpora's largest Dirac window
    m = GENERATE_MAX_DIM // 2 + 1  # 2m + 1 = GENERATE_MAX_DIM + 2
    assert main(["generate", "dirac", "--m", str(m)]) == 2
    assert main(["generate", "crossing", "--n", str(GENERATE_MAX_DIM + 1)]) == 2
    doc = {"task": "generate", "model": "crossing", "n": GENERATE_MAX_DIM + 1}
    assert main(["run", _write(tmp_path, "generate.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"exceeds {GENERATE_MAX_DIM}") == 3


def test_noninvertible_quotient_path_exits_3(tmp_path, capsys):
    alg = weighted_model([2], [1.0], [False])
    b0 = BlockOperator([np.diag([1.0, -0.5])])
    b1 = BlockOperator([np.diag([1.0, 0.5])])
    doc = {
        "task": "spectral_flow",
        "algebra": encode_algebra(alg),
        "operators": {"B0": encode_operator(b0), "B1": encode_operator(b1)},
        "path": {"keyframes": [{"t": 0.0, "op": "B0"}, {"t": 1.0, "op": "B1"}]},
    }
    assert main(["run", _write(tmp_path, "nf.json", doc)]) == 3
    assert "t = 0.5" in capsys.readouterr().err


def test_generate_dirac_roundtrip(tmp_path, capsys):
    model_file = tmp_path / "dirac.json"
    assert main(["generate", "dirac", "--m", "3", "--k", "1", "--out", str(model_file)]) == 0
    doc = json.loads(model_file.read_text())
    assert doc["task"] == "sf_unitary"
    assert doc["triple"]["unitary"] == "u"
    out = tmp_path / "report.json"
    assert main(["run", str(model_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k0_class"] == [0]
    assert "commutator_quotient" in report["diagnostics"]["residuals"]


def test_generate_crossing_roundtrip(tmp_path):
    model_file = tmp_path / "crossing.json"
    assert (
        main(
            [
                "generate",
                "crossing",
                "--n",
                "4",
                "--crossings",
                "+,-,+",
                "--seed",
                "3",
                "--out",
                str(model_file),
            ]
        )
        == 0
    )
    out = tmp_path / "report.json"
    assert main(["run", str(model_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # net one upward crossing under the frozen sign convention
    assert report["k0_class"] == [-1]
    assert report["tau"] == -1.0


def test_generate_to_stdout(capsys):
    assert main(["generate", "dirac", "--m", "2", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"]["blocks"][0]["dim"] == 5


def test_index_task(tmp_path):
    alg = weighted_model([4], [1.0])
    shift = np.zeros((4, 4), dtype=complex)
    for j in range(3):
        shift[j + 1, j] = 1.0
    p = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    s = q @ shift @ p
    doc = {
        "task": "index",
        "algebra": encode_algebra(alg),
        "operators": {
            "S": encode_operator(BlockOperator([s])),
            "p": encode_operator(BlockOperator([p])),
            "q": encode_operator(BlockOperator([q])),
        },
        "index": {"S": "S", "p": "p", "q": "q"},
    }
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "idx.json", doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k0_class"] == [1]


def test_index_task_that_is_not_corner_fredholm_exits_3(tmp_path, capsys):
    # p has rank 1 and q rank 0 on the non-ideal block
    alg = weighted_model([2, 2], [1.0, 1.0], [True, False])
    doc = {
        "task": "index",
        "algebra": encode_algebra(alg),
        "operators": {
            "S": encode_operator(BlockOperator([np.eye(2), np.zeros((2, 2))])),
            "p": encode_operator(BlockOperator([np.eye(2), np.diag([1.0, 0.0])])),
            "q": encode_operator(BlockOperator([np.eye(2), np.zeros((2, 2))])),
        },
        "index": {"S": "S", "p": "p", "q": "q"},
    }
    assert main(["run", _write(tmp_path, "idx.json", doc)]) == 3
    assert "operator is not corner Fredholm" in capsys.readouterr().err


def test_boundary_and_pairing_tasks(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    qmat, r = np.linalg.qr(z)
    u = BlockOperator([qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))])
    alg = weighted_model([3], [1.0])
    p = BlockOperator([np.diag([1.0, 1.0, 0.0])])
    doc = {
        "task": "boundary",
        "algebra": encode_algebra(alg),
        "operators": {"S": encode_operator(u)},
        "boundary": {"S": "S"},
    }
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "b.json", doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k0_class"] == [0]

    doc2 = {
        "task": "pairing",
        "algebra": encode_algebra(alg),
        "operators": {"p": encode_operator(p), "u": encode_operator(u)},
        "pairing": {"p": "p", "u": "u"},
    }
    out2 = tmp_path / "report2.json"
    assert main(["run", _write(tmp_path, "p.json", doc2), "--out", str(out2)]) == 0
    report = json.loads(out2.read_text())
    assert report["k0_class"] == [0]
    assert report["diagnostics"]["residuals"]["cos_identity"] == 0


def test_checks_task(tmp_path):
    model_file = tmp_path / "dirac.json"
    assert main(["generate", "dirac", "--m", "2", "--k", "1", "--out", str(model_file)]) == 0
    doc = json.loads(model_file.read_text())
    doc["task"] = "checks"
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "checks.json", doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["diagnostics"]["kasparov_passed"] is True
    residuals = report["diagnostics"]["residuals"]["resolvent_integral"]
    assert all(v <= 1e-6 for v in residuals.values())


def test_tolerance_flags_reach_the_solver(tmp_path):
    # an absurdly large gap tolerance turns the calibration path non-Fredholm
    doc = _write(tmp_path, "task.json", _calibration_doc())
    assert main(["run", doc, "--tol-gap", "0.5"]) == 0  # all-ideal: vacuous
    alg = weighted_model([2], [1.0], [False])
    b0 = BlockOperator([np.diag([3.0, -2.0])])
    b1 = BlockOperator([np.diag([3.0, -1.0])])
    doc2 = {
        "task": "spectral_flow",
        "algebra": encode_algebra(alg),
        "operators": {"B0": encode_operator(b0), "B1": encode_operator(b1)},
        "path": {"keyframes": [{"t": 0.0, "op": "B0"}, {"t": 1.0, "op": "B1"}]},
    }
    path2 = _write(tmp_path, "t2.json", doc2)
    assert main(["run", path2]) == 0
    assert main(["run", path2, "--tol-gap", "1.5"]) == 3
    # an eigenvalue -1e-6 counts as nonnegative under a kernel tolerance of 1e-5
    doc3 = _calibration_doc()
    doc3["operators"]["B0"] = encode_operator(BlockOperator([np.diag([1.0, -1e-6])]))
    path3, out = _write(tmp_path, "t3.json", doc3), tmp_path / "report.json"
    assert main(["run", path3, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k0_class"] == [-1]
    assert main(["run", path3, "--out", str(out), "--tol-kernel", "1e-5"]) == 0
    assert json.loads(out.read_text())["k0_class"] == [0]
    assert main(["run", path3, "--tol-kernel", "-1"]) == 2
    # the mixed path's partition needs two bisection levels
    path4 = _write(tmp_path, "t4.json", _mixed_doc())
    assert main(["run", path4, "--max-depth", "2"]) == 0
    assert main(["run", path4, "--max-depth", "1"]) == 3
    assert main(["run", path4, "--max-depth", "0"]) == 2


def test_overflowing_and_nonfinite_entries_exit_2(tmp_path, capsys):
    # 1e308 used to overflow in the Hermitian part and report the class [0]
    # for a path whose class is [-1]; NaN used to escape as LinAlgError.
    for bad in (1e308, float("nan")):
        doc = _calibration_doc()
        doc["operators"]["B1"][0][1][1] = [bad, 0.0]
        assert main(["run", _write(tmp_path, "bad.json", doc)]) == 2
        assert "exceeds" in capsys.readouterr().err


def test_overflowing_and_nonfinite_weights_exit_2(tmp_path, capsys):
    # a weight near the float limit used to pass decoding and overflow tau,
    # failing only while the report was serialized
    doc = _calibration_doc()
    doc["algebra"]["blocks"][0]["weight"] = 1.7e308
    assert main(["run", _write(tmp_path, "huge.json", doc)]) == 2
    assert "block 0 weight must be <= 1e+150" in capsys.readouterr().err
    # json.dumps writes the JSON extension token Infinity, which json.load reads
    doc["algebra"]["blocks"][0]["weight"] = float("inf")
    path = _write(tmp_path, "inf.json", doc)
    assert '"weight": Infinity' in open(path, encoding="utf-8").read()
    assert main(["run", path]) == 2
    assert "block 0 weight" in capsys.readouterr().err


def test_mistyped_numbers_exit_2(tmp_path):
    # each document gets its own file: they are all written before any runs
    def doc_with(edit):
        doc = _calibration_doc()
        edit(doc)
        return write_doc(doc)

    def write_doc(doc):
        return _write(tmp_path, f"bad-{len(list(tmp_path.iterdir()))}.json", doc)

    bad_docs = [
        doc_with(lambda d: d["algebra"]["blocks"][0].update(dim="abc")),
        doc_with(lambda d: d["path"]["keyframes"][1].update(t="one")),
        doc_with(lambda d: d.update(seed="x")),
        doc_with(lambda d: d["operators"]["B0"][0][0].__setitem__(0, ["one", 0.0])),
        doc_with(lambda d: d.update(tolerances={"kernel": "small"})),
        write_doc({"task": "generate", "model": "dirac", "m": "x"}),
        write_doc({"task": "generate", "model": "crossing", "seed": [1]}),
        # booleans and integers are decoded strictly, not cast
        doc_with(lambda d: d["algebra"]["blocks"][0].update(ideal="false")),
        doc_with(lambda d: d["algebra"]["blocks"][0].update(ideal=0)),
        doc_with(lambda d: d["algebra"]["blocks"][0].update(dim=2.7)),
        doc_with(lambda d: d["algebra"]["blocks"][0].update(dim=True)),
        doc_with(lambda d: d["algebra"]["blocks"][0].update(weight=True)),
        doc_with(lambda d: d["path"]["keyframes"][1].update(t="1.0")),
        doc_with(lambda d: d.update(seed=7.5)),
        doc_with(lambda d: d.update(seed=True)),
        doc_with(lambda d: d.update(tolerances={"max_depth": 2.5})),
        doc_with(lambda d: d.update(tolerances={"max_depth": True})),
        write_doc({"task": "generate", "model": "dirac", "m": 2.5}),
        write_doc({"task": "generate", "model": "dirac", "k": True}),
        write_doc({"task": "generate", "model": "crossing", "n": "2"}),
        write_doc({"task": "generate", "model": "crossing", "crossings": [1.5]}),
        # containers of the wrong type, and entries that float() would cast
        doc_with(lambda d: d.update(algebra={"blocks": 5})),
        doc_with(lambda d: d.update(path={"keyframes": 5})),
        doc_with(lambda d: d["operators"]["B0"][0][0].__setitem__(0, [True, False])),
        doc_with(lambda d: d["operators"]["B0"][0][0].__setitem__(0, ["1.0", 0.0])),
    ]
    for path in bad_docs:
        assert main(["run", path]) == 2


def test_integral_floats_decode_as_integers(tmp_path):
    doc = _calibration_doc()
    doc["algebra"]["blocks"][0]["dim"] = 2.0
    doc["seed"] = 7.0
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "ok.json", doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k0_class"] == [-1]
    assert report["seed"] == 7


def test_tracks_need_a_task_with_a_path(tmp_path, capsys):
    doc = _calibration_doc()
    doc["task"] = "boundary"
    doc["boundary"] = {"S": "B1"}
    path = _write(tmp_path, "b.json", doc)
    assert main(["run", path]) == 0
    assert main(["run", path, "--tracks", str(tmp_path / "tracks.csv")]) == 2
    assert "--tracks needs a task with a path" in capsys.readouterr().err


def test_sf_unbounded_reports_the_drift_it_checked(tmp_path):
    # The non-ideal block has D = diag(1e8, -1e8), whose bounded transform is
    # diag(1, -1) to rounding.  The keyframe at t = 0.3 brings that block to
    # diag(1, -1), whose transform is diag(1, -1) / sqrt(2): the largest drift
    # is 1 - 1/sqrt(2), at a time off the equally spaced samples.
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    big = np.diag([1e8, -1e8])
    ops = {
        "1": BlockOperator([np.eye(1), np.eye(2)]),
        "D": BlockOperator([np.eye(1), big]),
        "zero": BlockOperator([np.zeros((1, 1)), np.zeros((2, 2))]),
        "A": BlockOperator([np.zeros((1, 1)), np.diag([1.0, -1.0]) - big]),
    }
    doc = {
        "task": "sf_unbounded",
        "algebra": encode_algebra(alg),
        "operators": {name: encode_operator(op) for name, op in ops.items()},
        "triple": {"generators": ["1"], "D": "D"},
        "path": {
            "keyframes": [
                {"t": 0.0, "op": "zero"},
                {"t": 0.3, "op": "A"},
                {"t": 1.0, "op": "zero"},
            ]
        },
        "tolerances": {"gap": 0.5},
    }
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "sfb.json", doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k0_class"] == [0]
    drift = report["diagnostics"]["residuals"]["quotient_drift"]
    assert abs(drift - (1.0 - 1.0 / np.sqrt(2.0))) <= 1e-12


def test_out_of_range_tolerances_exit_2(tmp_path):
    for tolerances in ({"gap": -1}, {"margin": 0.6}, {"max_depth": 0}, {"intersection": 1}):
        doc = _calibration_doc()
        doc["tolerances"] = tolerances
        assert main(["run", _write(tmp_path, "bad.json", doc)]) == 2
    assert main(["run", _write(tmp_path, "ok.json", _calibration_doc()), "--tol-gap", "-1"]) == 2


# -- schema fuzzing -------------------------------------------------------------------

_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([1e308, -1e308, 10**400])
    | st.text(max_size=4)
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _field_paths(obj, prefix=()):
    """The key/index path of every field of a JSON document, at any depth."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _mixed_doc():
    alg = weighted_model([1, 2], [1.0, 1.0], [True, False])
    b0 = BlockOperator([np.diag([1.0]), np.diag([1.0, -1.0])])
    b1 = BlockOperator([np.diag([-1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    doc = _calibration_doc()
    doc.update(
        algebra=encode_algebra(alg),
        operators={"B0": encode_operator(b0), "B1": encode_operator(b1)},
        tolerances={"gap": 1e-8, "margin": 0.05, "max_depth": 20},
    )
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([_calibration_doc, _mixed_doc]), st.data(), _json_values)
def test_schema_fuzz_exits_with_a_documented_code(make_doc, data, value):
    doc = make_doc()
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        task = os.path.join(tmp, "task.json")
        with open(task, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["run", task, "--out", os.path.join(tmp, "report.json")]) in (0, 2, 3, 4)


def test_huge_max_depth_is_accepted(tmp_path):
    # max_depth has no upper bound; the shortest cut 2**-max_depth must not
    # overflow when max_depth exceeds the float range
    doc = _mixed_doc()
    doc["tolerances"]["max_depth"] = 10**400
    out = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, "deep.json", doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k0_class"] == [1]
