"""Command-line interface.

Subcommands:

    validate  check a lattice family document against the exact conditions
    embed     map classes into the model and report cap coordinates
    bound     counting bound for a rank, or the full pipeline on a family
    search    certified configuration search (kissing lower bounds)
    probe     randomized agreement check between the two condition systems

Input documents are JSON: {"gram": [[...]], "curves": [[...]], "labels":
[...]} with integer entries only, so the exact-arithmetic path sees exact
data.  Every command emits a run report (JSON) that is byte-identical
across reruns with the same inputs and seed.

Exit codes: 0 success, 1 invalid family, 2 malformed input, 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .conditions import (
    CurveFamily,
    ModelFamily,
    equivalence_probe,
    validate_family,
)
from .errors import (
    InputError,
    InvalidFamilyError,
    NegCurveError,
    NumericalError,
)
from .klein import Region, cap_of, figure_streams, project
from .lorentz import QuadraticLattice, embed_class
from .packing import hemisphere_filter, split_system, to_ball_system, total_bound
from .search import SearchParams, greedy_max

SCHEMA = "negcurve/run-report/v1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _int_matrix(raw, what: str) -> list[list[int]]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{what} must be a nonempty array")
    out = []
    for row in raw:
        if not isinstance(row, list):
            raise InputError(f"{what} rows must be arrays")
        vals = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"{what} entries must be integers, got {x!r}")
            vals.append(x)
        out.append(vals)
    return out


def load_document(path: str | Path) -> CurveFamily:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, bad syntax and an integer past Python's
        # digit limit raise ValueError; deep nesting raises RecursionError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("document root must be an object")
    gram = _int_matrix(raw.get("gram"), "gram")
    curves = _int_matrix(raw.get("curves"), "curves")
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError("labels must be an array of strings")
        labels = tuple(labels)
    try:
        lattice = QuadraticLattice(gram)
    except ValueError as exc:  # SignatureError included
        raise InputError(f"gram matrix rejected: {exc}") from exc
    try:
        return CurveFamily(lattice, curves, labels)
    except ValueError as exc:
        raise InputError(f"curves rejected: {exc}") from exc


def _document_inputs(fam: CurveFamily) -> dict:
    """The ``inputs`` a report digests for a family document."""
    return {
        "gram": [list(r) for r in fam.lattice.gram],
        "curves": [list(c) for c in fam.classes],
    }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(command: str, inputs, outputs, seed: int | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "inputs_digest": _digest(inputs),
        "outputs": outputs,
    }


def _emit(report: dict, json_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at the null
        # device, so the exit-time flush of what is still buffered does
        # not fail again, and finish the command
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if json_path:
        try:
            Path(json_path).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {json_path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    fam = load_document(args.file)
    report = validate_family(fam)
    _emit(_report("validate", _document_inputs(fam), report.to_json_dict()), args.json)
    return EXIT_OK if report.overall else EXIT_INVALID


def _embed_records(fam: CurveFamily):
    records = []
    caps = []
    for idx, cls in enumerate(fam.classes):
        vec = embed_class(fam.lattice, cls)
        point = project(vec)
        label = fam.labels[idx] if fam.labels else str(idx)
        rec = {
            "label": label,
            "class": list(cls),
            "region": point.region.value,
            "coords": [float(x) for x in point.coords],
            "norm": fam.lattice.norm(cls),
            "in_cylinder": point.region is Region.CYLINDER,
        }
        if point.region is Region.CYLINDER:
            cap = cap_of(point)
            rec["z"] = [float(x) for x in cap.z]
            rec["theta"] = float(cap.theta)
            caps.append(cap)
        records.append(rec)
    return records, caps


def cmd_embed(args) -> int:
    fam = load_document(args.file)
    validation = validate_family(fam)
    if not validation.overall and not args.force:
        _emit(
            _report(
                "embed",
                _document_inputs(fam),
                {"error": "family fails validation; rerun with --force",
                 "validation": validation.to_json_dict()},
            ),
            args.json,
        )
        return EXIT_INVALID
    records, caps = _embed_records(fam)
    outputs = {"classes": records, "validated": validation.overall}
    if args.figure_data:
        if fam.lattice.rank != 3:
            raise InputError("figure data is only emitted for rank-3 documents (n = 2)")
        out_dir = Path(args.figure_data)
        written = []
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, rows in sorted(figure_streams(caps).items()):
                path = out_dir / f"{name}.txt"
                path.write_text("".join(" ".join(map(_fmt, row)) + "\n" for row in rows))
                written.append(str(path))
        except OSError as exc:
            raise InputError(f"cannot write {out_dir}: {exc}") from exc
        outputs["figure_files"] = written
    _emit(_report("embed", _document_inputs(fam), outputs), args.json)
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.file is None and args.n is None:
        raise InputError("bound needs --n or --file")
    outputs = {}
    inputs: dict = {}
    if args.n is not None:
        outputs["bound"] = total_bound(args.n).to_json_dict()
        inputs["n"] = args.n
    if args.file is not None:
        family = load_document(args.file)
        n = family.lattice.rank - 1
        if args.n is not None and args.n != n:
            raise InputError(
                f"--n {args.n} disagrees with the document, whose rank gives n = {n}"
            )
        inputs.update(_document_inputs(family))
        outputs.setdefault("bound", total_bound(n).to_json_dict())
        _, caps = _embed_records(family)
        if len(caps) != len(family):
            raise InputError("some classes do not project onto the cylinder")
        fam = hemisphere_filter(ModelFamily(caps))
        pipeline: dict = {"hemisphere_kept": len(fam)}
        system = to_ball_system(fam)
        pipeline["balls"] = len(system)
        if len(system) >= 2:
            pipeline.update(split_system(system).to_json_dict())
        outputs["pipeline"] = pipeline
    _emit(_report("bound", inputs, outputs), args.json)
    return EXIT_OK


def _given(args, *names) -> dict:
    """The parsed values of the flags among ``names`` that were given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_search(args) -> int:
    params = SearchParams(**_given(args, "n", "seed", "restarts", "candidate_grid"))
    result = greedy_max(params)
    outputs = result.to_json_dict()
    outputs["params"] = asdict(params)
    _emit(
        _report("search", outputs["params"], outputs, seed=params.seed),
        args.json,
    )
    return EXIT_OK if result.best.certificate.valid else EXIT_NUMERIC


def cmd_probe(args) -> int:
    report = equivalence_probe(**_given(args, "n", "samples", "seed"))
    inputs = {"n": report.n, "samples": report.samples, "seed": report.seed}
    _emit(_report("probe", inputs, report.to_json_dict(), seed=report.seed), args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negcurve",
        description="Minkowski-lattice curve families, the extended Klein "
        "model, packing bounds, and kissing-configuration search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a family document")
    p.add_argument("file")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("embed", help="map classes into the model")
    p.add_argument("file")
    p.add_argument("--force", action="store_true",
                   help="embed even if validation fails")
    p.add_argument("--figure-data", metavar="DIR",
                   help="write n=2 figure point streams into DIR")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("bound", help="counting bound / family pipeline")
    p.add_argument("--n", type=int, help="dimension n (rank - 1)")
    p.add_argument("--file", help="family document to run the pipeline on")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_bound)

    # a flag left out (default=SUPPRESS) is not passed on, so the library's
    # default applies; the library also decides every range
    p = sub.add_parser("search", help="certified configuration search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    p.add_argument("--grid", type=float, dest="candidate_grid", metavar="GRID",
                   default=argparse.SUPPRESS,
                   help="angular grid resolution in radians")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("probe", help="condition-system agreement probe")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InvalidFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy names the allocation it could not make
        detail = f" ({exc})" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC
    except NegCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
