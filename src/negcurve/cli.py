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
from pathlib import Path

from . import __version__
from .errors import (
    InputError,
    InvalidFamilyError,
    NegCurveError,
    NumericalError,
)

# each command imports the modules it runs: a cold `bound --n` loads
# counting and no numpy, the array layers (conditions, klein, lorentz)
# load only where a family document is read or the probe runs, and only
# search loads mpmath

SCHEMA = "negcurve/run-report/v1"


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _int_matrix(raw, what: str) -> list[list[int]]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{what} must be a nonempty array")
    for row in raw:
        if not isinstance(row, list):
            raise InputError(f"{what} rows must be arrays")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"{what} entries must be integers, got {x!r}")
    return raw


def load_document(path: str | Path):
    """The :class:`~negcurve.conditions.CurveFamily` a JSON document
    describes; :class:`InputError` for a document that is not one."""
    from .conditions import CurveFamily
    from .lorentz import QuadraticLattice

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


def _document_inputs(fam) -> dict:
    """The ``inputs`` a report digests for a family document."""
    return {
        "gram": [list(r) for r in fam.lattice.gram],
        "curves": [list(c) for c in fam.classes],
    }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(command: str, inputs, outputs, seed: int | None) -> dict:
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
# subcommands: each returns (inputs, outputs, seed, exit code), and
# ``main`` emits the report
# ---------------------------------------------------------------------------

def cmd_validate(args):
    from .conditions import validate_family

    fam = load_document(args.file)
    report = validate_family(fam)
    code = 0 if report.overall else InvalidFamilyError.exit_code
    return _document_inputs(fam), report.to_json_dict(), None, code


def _refusal(validation, hint: str = "") -> dict:
    """The outputs of a command that refuses an invalid family."""
    return {"error": "family fails validation" + hint,
            "validation": validation.to_json_dict()}


def _embed_records(fam):
    from .klein import Region, _project, cap_of
    from .lorentz import embed_class

    records = []
    caps = []
    for idx, cls in enumerate(fam.classes):
        norm = fam.lattice.norm(cls)
        # the exact norm, not the float one, decides the region
        point = _project(embed_class(fam.lattice, cls), (norm > 0) - (norm < 0))
        label = fam.labels[idx] if fam.labels else str(idx)
        rec = {
            "label": label,
            "class": list(cls),
            "region": point.region.value,
            "coords": [float(x) for x in point.coords],
            "norm": norm,
            "in_cylinder": point.region is Region.CYLINDER,
        }
        if point.region is Region.CYLINDER:
            cap = cap_of(point)
            rec["z"] = [float(x) for x in cap.z]
            rec["theta"] = float(cap.theta)
            caps.append(cap)
        records.append(rec)
    return records, caps


def cmd_embed(args):
    from .conditions import validate_family

    fam = load_document(args.file)
    validation = validate_family(fam)
    if not validation.overall and not args.force:
        refusal = _refusal(validation, "; rerun with --force")
        return _document_inputs(fam), refusal, None, InvalidFamilyError.exit_code
    records, caps = _embed_records(fam)
    outputs = {"classes": records, "validated": validation.overall}
    if args.figure_data:
        from .klein import figure_streams

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
    return _document_inputs(fam), outputs, None, 0


def cmd_bound(args):
    from .counting import total_bound

    if args.file is None and args.n is None:
        raise InputError("bound needs --n or --file")
    outputs = {}
    inputs: dict = {}
    if args.n is not None:
        outputs["bound"] = total_bound(args.n).to_json_dict()
        inputs["n"] = args.n
    if args.file is not None:
        from .conditions import ModelFamily, cap_arrays, pair_margins, validate_family
        from .packing import hemisphere_filter, split_system

        family = load_document(args.file)
        n = family.lattice.rank - 1
        if args.n is not None and args.n != n:
            raise InputError(
                f"--n {args.n} disagrees with the document, whose rank gives n = {n}"
            )
        inputs.update(_document_inputs(family))
        if "bound" not in outputs:
            outputs["bound"] = total_bound(n).to_json_dict()
        validation = validate_family(family)
        if not validation.overall:
            return inputs, _refusal(validation), None, InvalidFamilyError.exit_code
        # a valid family has negative classes only, so every class has a
        # cap; the exact verdict above is the only validity gate
        _, caps = _embed_records(family)
        kept = hemisphere_filter(ModelFamily(caps))
        pipeline = {"hemisphere_kept": len(kept), "balls": len(kept)}
        if len(kept) >= 2:
            delta = pair_margins(*cap_arrays(kept.caps))[0]
            pipeline.update(split_system(delta).to_json_dict())
        outputs["pipeline"] = pipeline
    return inputs, outputs, None, 0


def _given(args, *names) -> dict:
    """The parsed values of the flags among ``names`` that were given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_search(args):
    from dataclasses import asdict

    from .search import SearchParams, greedy_max

    params = SearchParams(**_given(args, "n", "seed", "restarts", "candidate_grid"))
    result = greedy_max(params)
    outputs = result.to_json_dict()
    outputs["params"] = asdict(params)
    code = 0 if result.best.certificate.valid else NumericalError.exit_code
    return outputs["params"], outputs, params.seed, code


def cmd_probe(args):
    from .conditions import equivalence_probe

    report = equivalence_probe(**_given(args, "n", "samples", "seed"))
    inputs = {"n": report.n, "samples": report.samples, "seed": report.seed}
    return inputs, report.to_json_dict(), report.seed, 0


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("embed", help="map classes into the model")
    p.add_argument("file")
    p.add_argument("--force", action="store_true",
                   help="embed even if validation fails")
    p.add_argument("--figure-data", metavar="DIR",
                   help="write n=2 figure point streams into DIR")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("bound", help="counting bound / family pipeline")
    p.add_argument("--n", type=int, help="dimension n (rank - 1)")
    p.add_argument("--file", help="family document to run the pipeline on")
    p.set_defaults(func=cmd_bound)

    # a flag left out (default=SUPPRESS) is not passed on, so the library's
    # default applies; the library also decides every range
    p = sub.add_parser("search", help="certified configuration search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                   help="echoed only, as the benchmark pins it: no restart changes the result")
    p.add_argument("--grid", type=float, dest="candidate_grid", metavar="GRID",
                   default=argparse.SUPPRESS,
                   help="angular grid resolution in radians")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("probe", help="condition-system agreement probe")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_probe)

    # added last, so --json follows each command's own flags in its help
    for p in sub.choices.values():
        p.add_argument("--json", help="also write the report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, outputs, seed, code = args.func(args)
        _emit(_report(args.command, inputs, outputs, seed), args.json)
        return code
    except NegCurveError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # numpy names the allocation it could not make
        detail = f" ({exc})" if str(exc) else ""
        print(f"{NumericalError.label}: out of memory{detail}", file=sys.stderr)
        return NumericalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
