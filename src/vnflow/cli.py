"""Command line front end: load block models, run tasks, emit reports.

Input is a single JSON document naming an algebra, operators, and a task.
Reports are serialized canonically (floats with 17 significant digits), so a
rerun on identical input is byte-identical.  Exit codes: 0 success, 2 schema
violation, 3 mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Mapping
from typing import Any

import numpy as np

from . import __version__
from .errors import ModelError, NumericsError, PreconditionError, SchemaError
from .model import (
    Block,
    BlockOperator,
    K0Class,
    OperatorPath,
    Tolerances,
    VnAlgebra,
    _eigvalsh,
    tau_star,
)
from .corner import boundary_map_result, corner_index_result
from .flow import spectral_flow_result
from .generators import dirac_circle, random_crossing_path
from .pairing import cos_identity_check, make_pairing_data, pairing_result
from .triples import (
    bounded_transform,
    check_kasparov_module,
    make_triple,
    resolvent_integral_check,
    sf_unbounded_result,
    sf_unitary_result,
)

TASKS = (
    "spectral_flow",
    "sf_unitary",
    "sf_unbounded",
    "index",
    "boundary",
    "pairing",
    "checks",
    "generate",
)

_TRACK_SAMPLES = 201
_TRACK_CHUNK_BYTES = 1 << 23  # working memory of one chunk of track samples

# Largest accepted modulus of a matrix entry, and largest block weight.  A
# product of two n x n matrices within this bound has entries of modulus at
# most n MAX_ENTRY^2 = n * 1e300, far from the float64 limit 1.8e308 at any
# dimension a document can hold, so b @ b and b.conj().T @ b cannot overflow;
# nor can a trace sum of weight * rank.
MAX_ENTRY = 1e150

# Largest block ``generate`` builds, checked first: the m = 64 Dirac window.
GENERATE_MAX_DIM = 129

# The JSON number types; bool, a subclass of int, is left out.
_NUMBER = (int, float)


# -- canonical JSON -----------------------------------------------------------


def _canonical(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise SchemaError("non-finite float in report")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canonical(value, out)
        out.append("}")
    else:
        raise SchemaError(f"unserializable value of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


# -- schema: encode -----------------------------------------------------------


def encode_matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def encode_operator(op: BlockOperator) -> list:
    return [encode_matrix(b) for b in op.blocks]


def encode_algebra(alg: VnAlgebra) -> dict:
    return {
        "blocks": [
            {"dim": b.dim, "weight": b.weight, "ideal": b.in_ideal}
            for b in alg.blocks
        ]
    }


# -- schema: decode -----------------------------------------------------------


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _real(value: Any, what: str) -> float:
    """A JSON number (not a boolean) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(f"{what} must be a number, got {value!r}")


def _integer(value: Any, what: str) -> int:
    """A JSON number with an integral value (not a boolean) as an int."""
    _expect(
        (isinstance(value, int) and not isinstance(value, bool))
        or (isinstance(value, float) and value.is_integer()),
        f"{what} must be an integer, got {value!r}",
    )
    return int(value)


def decode_algebra(data: Any) -> VnAlgebra:
    _expect(
        isinstance(data, dict) and isinstance(data.get("blocks"), list),
        "algebra needs a blocks list",
    )
    blocks = []
    for i, raw in enumerate(data["blocks"]):
        _expect(isinstance(raw, dict) and "dim" in raw, f"block {i} needs a dim")
        ideal = raw.get("ideal", True)
        _expect(isinstance(ideal, bool), f"block {i} ideal must be true or false, got {ideal!r}")
        dim = _integer(raw["dim"], f"block {i} dim")
        weight = _real(raw.get("weight", 1.0), f"block {i} weight")
        _expect(weight <= MAX_ENTRY, f"block {i} weight must be <= {MAX_ENTRY:g}, got {weight!r}")
        try:
            blocks.append(Block(dim=dim, weight=weight, in_ideal=ideal))
        except ModelError as exc:
            raise SchemaError(f"block {i}: {exc}") from exc
    try:
        return VnAlgebra(blocks)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


def decode_matrix(data: Any, name: str) -> np.ndarray:
    _expect(isinstance(data, list) and data, f"operator {name}: block must be a matrix")
    rows = []
    width = None
    for row in data:
        _expect(isinstance(row, list), f"operator {name}: matrix rows must be lists")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"operator {name}: ragged matrix")
        entries = []
        for entry in row:
            # a plain type test, not _real: documents carry thousands of entries
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and type(entry[0]) in _NUMBER
                and type(entry[1]) in _NUMBER
            ):
                raise SchemaError(
                    f"operator {name}: entries must be [re, im] pairs of numbers, "
                    f"got {entry!r}"
                )
            try:
                entries.append(complex(entry[0], entry[1]))
            except OverflowError as exc:
                raise SchemaError(
                    f"operator {name}: entry {entry!r} exceeds {MAX_ENTRY:g} in modulus"
                ) from exc
        rows.append(entries)
    mat = np.array(rows, dtype=complex)
    _expect(mat.shape[0] == mat.shape[1], f"operator {name}: matrix is not square")
    # A NaN entry makes the maximum NaN, which fails the comparison too.
    _expect(
        np.abs(mat).max() <= MAX_ENTRY,
        f"operator {name}: an entry is not finite or exceeds {MAX_ENTRY:g} in modulus",
    )
    return mat


def decode_operator(data: Any, alg: VnAlgebra, name: str) -> BlockOperator:
    _expect(isinstance(data, list), f"operator {name} must be a list of blocks")
    _expect(
        len(data) == len(alg.blocks),
        f"operator {name} has {len(data)} blocks, algebra has {len(alg.blocks)}",
    )
    mats = [decode_matrix(blockdata, name) for blockdata in data]
    for mat, dim in zip(mats, alg.dims):
        _expect(
            mat.shape == (dim, dim),
            f"operator {name}: block shape {mat.shape} does not match dim {dim}",
        )
    return BlockOperator(mats)


def decode_operators(doc: dict, alg: VnAlgebra) -> dict[str, BlockOperator]:
    raw = doc.get("operators", {})
    _expect(isinstance(raw, dict), "operators must be a name -> blocks mapping")
    return {name: decode_operator(data, alg, name) for name, data in raw.items()}


def _named(ops: dict[str, BlockOperator], name: Any, role: str) -> BlockOperator:
    _expect(isinstance(name, str), f"{role} must be an operator name")
    if name not in ops:
        raise SchemaError(f"{role} references unknown operator {name!r}")
    return ops[name]


def decode_path(doc: dict, ops: dict[str, BlockOperator]) -> OperatorPath:
    raw = doc.get("path")
    _expect(
        isinstance(raw, dict) and isinstance(raw.get("keyframes"), list),
        "task needs a path with a keyframes list",
    )
    frames = []
    for i, kf in enumerate(raw["keyframes"]):
        _expect(
            isinstance(kf, dict) and "t" in kf and "op" in kf,
            f"keyframe {i} needs t and op",
        )
        t = _real(kf["t"], f"keyframe {i} t")
        frames.append((t, _named(ops, kf["op"], f"keyframe {i}")))
    try:
        return OperatorPath(frames)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


def decode_tolerances(doc: dict, args: argparse.Namespace) -> Tolerances:
    raw = doc.get("tolerances", {})
    _expect(isinstance(raw, dict), "tolerances must be a mapping")
    defaults = Tolerances()
    fields = {
        name: (_integer if isinstance(default, int) else _real)(
            raw.get(name, default), f"tolerance {name}"
        )
        for name, default in vars(defaults).items()
    }
    if args.tol_kernel is not None:
        fields["kernel"] = args.tol_kernel
    if args.tol_gap is not None:
        fields["gap"] = args.tol_gap
    if args.max_depth is not None:
        fields["max_depth"] = args.max_depth
    try:
        return Tolerances(**fields)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


def _decode_triple(doc: dict, alg: VnAlgebra, ops: dict, tol: Tolerances):
    raw = doc.get("triple")
    _expect(isinstance(raw, dict), "task needs a triple section")
    _expect("generators" in raw and "D" in raw, "triple needs generators and D")
    gen_names = raw["generators"]
    _expect(
        isinstance(gen_names, list) and all(isinstance(g, str) for g in gen_names),
        "triple generators must be a list of operator names",
    )
    generators = {g: _named(ops, g, f"generator {g!r}") for g in gen_names}
    d = _named(ops, raw["D"], "triple D")
    return make_triple(alg, generators, d, tol), raw


# -- task runners -------------------------------------------------------------


def _gap_or_none(g: float):
    return None if math.isinf(g) else g


def _report(
    task: str, k0: K0Class | None, alg: VnAlgebra, partition=(), min_gap=math.inf, **diagnostics
) -> dict:
    """The report layout of every task.  ``diagnostics`` follow the minimal
    quotient gap in keyword order; ``k0`` is None for a task without a class."""
    return {
        "task": task,
        "k0_class": [] if k0 is None else list(k0.ranks),
        "tau": 0.0 if k0 is None else tau_star(k0, alg),
        "partition": list(partition),
        "diagnostics": {"min_quotient_gap": _gap_or_none(min_gap), **diagnostics},
    }


def _run_spectral_flow(doc, alg, ops, tol):
    path = decode_path(doc, ops)
    result = spectral_flow_result(path, alg, tol)
    trace = [
        {
            "t": step.t_end,
            "gap": _gap_or_none(step.gap_end),
            "step_class": list(step.contribution.ranks),
        }
        for step in result.steps
    ]
    report = _report(
        "spectral_flow",
        result.k0,
        alg,
        result.partition,
        min_gap=result.certificate.min_gap,
        quotient_lipschitz=result.certificate.lipschitz,
        partition_trace=trace,
        residuals={},
    )
    return report, path.at


def _run_sf_unitary(doc, alg, ops, tol):
    triple, raw = _decode_triple(doc, alg, ops, tol)
    _expect("unitary" in raw, "sf_unitary needs triple.unitary")
    result = sf_unitary_result(triple, _named(ops, raw["unitary"], "triple unitary"), tol)
    kasparov_worst = check_kasparov_module(triple, tol).worst()
    residuals = {**result.residuals, "kasparov_worst": kasparov_worst}
    return _report("sf_unitary", result.k0, alg, residuals=residuals), None


def _run_sf_unbounded(doc, alg, ops, tol):
    triple, _ = _decode_triple(doc, alg, ops, tol)
    a_path = decode_path(doc, ops)
    result = sf_unbounded_result(triple, a_path, tol)
    report = _report("sf_unbounded", result.k0, alg, residuals=result.residuals)
    return report, lambda t: bounded_transform(triple.D + a_path.at(t), tol)


def _run_index(doc, alg, ops, tol):
    raw = doc.get("index")
    _expect(isinstance(raw, dict), "index task needs an index section")
    for key in ("S", "p", "q"):
        _expect(key in raw, f"index section needs {key}")
    s, p, q = (_named(ops, raw[key], f"index {key}") for key in ("S", "p", "q"))
    result, fred = corner_index_result(s, p, q, alg, tol)
    corner_blocks = [
        {
            "block": r.block,
            "domain_rank": r.domain_rank,
            "codomain_rank": r.codomain_rank,
            "gap": _gap_or_none(r.smallest_singular_value),
        }
        for r in fred.blocks
    ]
    report = _report(
        "index",
        result.k0,
        alg,
        min_gap=fred.min_gap,
        residuals=result.residuals,
        corner_blocks=corner_blocks,
    )
    return report, None


def _run_boundary(doc, alg, ops, tol):
    raw = doc.get("boundary")
    _expect(isinstance(raw, dict) and "S" in raw, "boundary task needs boundary.S")
    result = boundary_map_result(_named(ops, raw["S"], "boundary S"), alg, tol)
    return _report("boundary", result.k0, alg, residuals=result.residuals), None


def _run_pairing(doc, alg, ops, tol):
    raw = doc.get("pairing")
    _expect(isinstance(raw, dict), "pairing task needs a pairing section")
    for key in ("p", "u"):
        _expect(key in raw, f"pairing section needs {key}")
    p = _named(ops, raw["p"], "pairing p")
    u = _named(ops, raw["u"], "pairing u")
    q = _named(ops, raw["q"], "pairing q") if "q" in raw else None
    data = make_pairing_data(alg, p, u, q=q, tol=tol)
    result = pairing_result(data, tol)
    residuals = {"cos_identity": cos_identity_check(data.q, alg, tol), **result.residuals}
    return _report("pairing", result.k0, alg, residuals=residuals), None


def _run_checks(doc, alg, ops, tol):
    triple, _ = _decode_triple(doc, alg, ops, tol)
    kas = check_kasparov_module(triple, tol)
    names = list(triple.generators)
    residuals = {
        "kasparov_commutator": kas.commutator,
        "kasparov_square": kas.square_defect,
        "kasparov_adjoint": kas.adjoint_defect,
        "resolvent_integral": {
            f"{a},{b}": resolvent_integral_check(triple, a, b, tol).residual
            for a in names
            for b in names
        },
    }
    return _report("checks", None, alg, kasparov_passed=kas.passed, residuals=residuals), None


def _run_generate(doc) -> dict:
    model = doc.get("model")
    if model == "dirac":
        m = _integer(doc.get("m", 8), "m")
        k = _integer(doc.get("k", 1), "k")
        _expect(2 * m + 1 <= GENERATE_MAX_DIM, f"dirac dimension 2m + 1 exceeds {GENERATE_MAX_DIM}")
        triple, u = dirac_circle(m, k)
        out = {
            "task": "sf_unitary",
            "algebra": encode_algebra(triple.alg),
            "operators": {
                "1": encode_operator(triple.alg.identity()),
                "u": encode_operator(u),
                "u*": encode_operator(u.H),
                "D": encode_operator(triple.D),
            },
            "triple": {"generators": ["1", "u", "u*"], "D": "D", "unitary": "u"},
            "seed": _integer(doc.get("seed", 0), "seed"),
        }
        return out
    if model == "crossing":
        n = _integer(doc.get("n", 2), "n")
        _expect(n <= GENERATE_MAX_DIM, f"crossing dimension n exceeds {GENERATE_MAX_DIM}")
        crossings = doc.get("crossings", [])
        _expect(isinstance(crossings, list), "crossings must be a list")
        crossings = [_integer(c, "crossing") for c in crossings]
        seed = _integer(doc.get("seed", 0), "seed")
        path = random_crossing_path(n, crossings, seed)
        operators = {}
        keyframes = []
        for i, (t, op) in enumerate(path.keyframes):
            name = f"kf{i:03d}"
            operators[name] = encode_operator(op)
            keyframes.append({"t": t, "op": name})
        return {
            "task": "spectral_flow",
            "algebra": encode_algebra(
                VnAlgebra([Block(dim=n, weight=1.0, in_ideal=True)])
            ),
            "operators": operators,
            "path": {"keyframes": keyframes},
            "seed": seed,
        }
    raise SchemaError(f"unknown generate model {model!r} (expected dirac or crossing)")


def _write_tracks(track, out_file: str) -> None:
    """Write the eigenvalues of ``track(t)``, block by block, at each sample t.

    The samples are taken in chunks: each block-size stack of a chunk's
    operators is copied into one array and takes one ``_eigvalsh``.  A chunk
    holds as many samples as fit ``_TRACK_CHUNK_BYTES`` together with the two
    temporaries of the Hermitian part, and at least one.  The file is written
    only once every value is known.
    """
    samples = np.linspace(0.0, 1.0, _TRACK_SAMPLES)
    op = track(samples[0])
    size = max(1, _TRACK_CHUNK_BYTES // (3 * sum(st.nbytes for st in op._stacks)))
    # a sample's lines, one per eigenvalue in block order; "@" stands for its t
    template = "".join(f"@,{bi},{ei},%.17g\n" for bi, n in enumerate(op.dims) for ei in range(n))
    text = ["t,block,index,eigenvalue\n"]
    for lo in range(0, _TRACK_SAMPLES, size):
        chunk = samples[lo : lo + size]
        stacks = [np.empty((len(chunk), *st.shape), dtype=complex) for st in op._stacks]
        for j, t in enumerate(chunk):
            op = op if lo == j == 0 else track(t)  # the first was taken to size the chunks
            for buf, st in zip(stacks, op._stacks):
                buf[j] = st
        per_block = op._in_block_order(_eigvalsh(buf).swapaxes(0, 1) for buf in stacks)
        rows = np.concatenate(per_block, axis=1).tolist()  # (sample, eigenvalue)
        text.extend(
            template.replace("@", format(t, ".17g")) % tuple(row)
            for t, row in zip(chunk.tolist(), rows)
        )
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.writelines(text)


# A runner returns the report and, for a task with a path, t -> the operator
# whose eigenvalues the tracks CSV lists (None otherwise).
_RUNNERS = {
    "spectral_flow": _run_spectral_flow,
    "sf_unitary": _run_sf_unitary,
    "sf_unbounded": _run_sf_unbounded,
    "index": _run_index,
    "boundary": _run_boundary,
    "pairing": _run_pairing,
    "checks": _run_checks,
}


def run_task(doc: dict, args: argparse.Namespace) -> tuple[dict, Any]:
    _expect(isinstance(doc, dict), "task document must be a JSON object")
    task = doc.get("task")
    _expect(task in TASKS, f"unknown task {task!r} (expected one of {', '.join(TASKS)})")
    if task == "generate":
        return _run_generate(doc), None
    alg = decode_algebra(doc.get("algebra"))
    ops = decode_operators(doc, alg)
    tol = decode_tolerances(doc, args)
    report, track = _RUNNERS[task](doc, alg, ops, tol)
    seed = doc.get("seed", args.seed)
    report["seed"] = _integer(seed, "seed") if seed is not None else None
    report["version"] = __version__
    return report, track


# -- entry point --------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vnflow",
        description="K-class valued spectral flow and index computations on block models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a task document")
    run_p.add_argument("taskfile", help="path to the JSON task document")
    run_p.add_argument("--out", default=None, help="write the report to this path")
    run_p.add_argument("--tracks", default=None, help="write eigenvalue tracks CSV here")
    run_p.add_argument("--tol-kernel", type=float, default=None)
    run_p.add_argument("--tol-gap", type=float, default=None)
    run_p.add_argument("--max-depth", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)

    gen_p = sub.add_parser("generate", help="emit a ready-to-run model document")
    gen_p.add_argument("model", choices=["dirac", "crossing"])
    gen_p.add_argument("--m", type=int, default=8, help="window radius (dirac)")
    gen_p.add_argument("--k", type=int, default=1, help="winding (dirac)")
    gen_p.add_argument("--n", type=int, default=2, help="dimension (crossing)")
    gen_p.add_argument(
        "--crossings",
        default="",
        help="comma separated +/- signs, e.g. +,+,- (crossing)",
    )
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", default=None)
    return parser


def _parse_crossings(text: str) -> list[int]:
    if not text:
        return []
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ("+", "+1", "1", "up"):
            out.append(1)
        elif token in ("-", "-1", "down"):
            out.append(-1)
        else:
            raise SchemaError(f"bad crossing token {token!r}")
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            doc = {
                "task": "generate",
                "model": args.model,
                "m": args.m,
                "k": args.k,
                "n": args.n,
                "crossings": _parse_crossings(args.crossings),
                "seed": args.seed,
            }
            report, _ = run_task(doc, args)
            _emit(canonical_json(report), args.out)
            return 0

        try:
            with open(args.taskfile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read task document: {exc}") from exc

        report, track = run_task(doc, args)
        if args.tracks is not None:
            _expect(track is not None, "--tracks needs a task with a path")
            _write_tracks(track, args.tracks)
        _emit(canonical_json(report), args.out)
        return 0
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ModelError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
