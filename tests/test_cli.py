import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import del_pezzo_lines, modules_loaded_by
from negcurve import (
    DegenerateCapPairError,
    InputError,
    InvalidFamilyError,
    NumericalError,
    SearchParams,
    SignatureError,
    cli,
    conditions,
    equivalence_probe,
    total_bound,
)
from negcurve.cli import build_parser, main

BL3_DOC = {
    "gram": [
        [1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ],
    "curves": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "labels": ["E1", "E2", "E3"],
}


def write_doc(tmp_path, doc, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "negcurve", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_validate_passes(tmp_path, capsys):
    path = write_doc(tmp_path, BL3_DOC)
    code = main(["validate", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["outputs"]["overall"] is True
    assert out["schema"] == "negcurve/run-report/v1"


def test_validate_duplicate_fails_naming_pair(tmp_path, capsys):
    doc = dict(BL3_DOC, curves=[[0, 1, 0, 0], [0, 1, 0, 0]], labels=None)
    doc.pop("labels")
    path = write_doc(tmp_path, doc)
    code = main(["validate", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    failures = out["outputs"]["failures"]
    assert {"indices": [0, 1], "condition": "II", "margin": -1.0} in failures


def test_validate_bad_signature(tmp_path, capsys):
    doc = {"gram": [[1, 0], [0, 1]], "curves": [[1, 0]]}
    path = write_doc(tmp_path, doc)
    code = main(["validate", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "positive" in err  # names the inertia found


def test_validate_non_integer_rejected(tmp_path, capsys):
    doc = {"gram": [[1.5, 0], [0, -1]], "curves": [[0, 1]]}
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 2


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_embed_reports_caps(tmp_path, capsys):
    path = write_doc(tmp_path, BL3_DOC)
    code = main(["embed", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    recs = out["outputs"]["classes"]
    assert len(recs) == 3
    for rec in recs:
        assert rec["region"] == "cylinder"
        assert rec["theta"] == pytest.approx(1.5707963267948966)
        assert rec["norm"] == -1


def test_embed_line_class_angle(tmp_path, capsys):
    doc = dict(BL3_DOC, curves=[[1, -1, -1, 0]], labels=["L-E1-E2"])
    path = write_doc(tmp_path, doc)
    assert main(["embed", path]) == 0
    out = json.loads(capsys.readouterr().out)
    rec = out["outputs"]["classes"][0]
    # x0 normalizes to 1/sqrt(2), so the cap radius is pi/4
    assert rec["theta"] == pytest.approx(0.7853981633974484, abs=1e-12)
    assert rec["norm"] == -1


def test_embed_flags_ample_class(tmp_path, capsys):
    doc = {
        "gram": [[1, 0], [0, -1]],
        "curves": [[1, 0], [0, 1]],
    }
    path = write_doc(tmp_path, doc)
    code = main(["embed", path, "--force"])
    out = json.loads(capsys.readouterr().out)
    recs = out["outputs"]["classes"]
    assert code == 0
    assert recs[0]["region"] == "disc+"
    assert recs[0]["in_cylinder"] is False
    assert recs[1]["in_cylinder"] is True


def test_embed_requires_force_on_invalid(tmp_path, capsys):
    doc = dict(BL3_DOC, curves=[[0, 1, 0, 0], [0, 1, 0, 0]])
    doc.pop("labels")
    path = write_doc(tmp_path, doc)
    assert main(["embed", path]) == 1
    capsys.readouterr()
    assert main(["embed", path, "--force"]) == 0


def test_embed_figure_data(tmp_path, capsys):
    doc = {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 0, 1]],
    }
    path = write_doc(tmp_path, doc)
    out_dir = tmp_path / "figthere"
    code = main(["embed", path, "--figure-data", str(out_dir)])
    captured = json.loads(capsys.readouterr().out)
    assert code == 0
    files = captured["outputs"]["figure_files"]
    assert any("caps" in f for f in files)
    first = (out_dir / "caps.txt").read_text().splitlines()[0].split()
    assert len(first) == 3
    float(first[0])  # parses as a number


def test_bound_value(tmp_path, capsys):
    code = main(["bound", "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["outputs"]["bound"]["total"] == 30
    assert out["outputs"]["bound"]["near_bound"] == 8
    assert out["outputs"]["bound"]["far_bound"] == 7


def test_bound_pipeline_on_family(tmp_path, capsys):
    path = write_doc(tmp_path, BL3_DOC)
    code = main(["bound", "--file", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    pipeline = out["outputs"]["pipeline"]
    assert pipeline["hemisphere_kept"] == 3
    assert pipeline["balls"] == 3
    assert pipeline["far"] == []
    assert len(pipeline["near"]) == 3


def test_bound_n_and_file_builds_the_bound_once(tmp_path, capsys, monkeypatch):
    # --n fills the bound, and the document's rank agrees with it
    from negcurve import counting

    calls = []

    def counted(n):
        calls.append(n)
        return total_bound(n)

    # cmd_bound reads total_bound from counting when it runs
    monkeypatch.setattr(counting, "total_bound", counted)
    path = write_doc(tmp_path, BL3_DOC)
    code = main(["bound", "--n", "3", "--file", path])
    out = capsys.readouterr().out
    assert code == 0 and calls == [3]
    # sha256 of the report as recorded when the bound was built twice
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f638316d1fc2eda9a594812d70e97be18add96fec4323de604ce279bcf3e5328"
    )


# sha256 of the in-process `bound --n k` stdout, recorded while the
# counting bound still lived in packing, before it moved to counting
BOUND_N_SHA256 = {
    1: "3e9f09d699fefdeb952e2eadb30f8aa9ab70f240dd964aa9a4c8b3b35189b885",
    2: "dd9ec14e7eeb18f1857b1d9f162995256863bd5e5922ac41ed4b40af5d751e8e",
    3: "f0bd68e91a1a3dd0eedb09c871d8bd4736a5b01ac2e22d7d2566506fcc92d3d1",
    4: "291c17b4b375a093fe10d49d155c74c53c1e4b7f25fcbbbdd5f0e8df5ce43841",
    7: "c7f85586afd2c698decec73d2124994b6078a2ec3d1c2ffb1becb59e2e8b3476",
    64: "a44ae0ba0df1fa7fd1ffb31aa6ea30a5431fb45b952c5711efe92ab248fe46d5",
    565: "e7e886663d122d77463397903a95c7900c36a174778d7d391322954770c960fc",
}


@pytest.mark.parametrize("k", sorted(BOUND_N_SHA256))
def test_bound_n_report_bytes_are_pinned(k, capsys):
    assert main(["bound", "--n", str(k)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_N_SHA256[k]


def test_bound_requires_argument():
    assert main(["bound"]) == 2


def test_search_reports_certified_config(capsys):
    code = main(["search", "--n", "2", "--seed", "5", "--restarts", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["outputs"]["size"] >= 4
    assert out["outputs"]["certificate"]["valid"] is True
    assert out["seed"] == 5


def test_probe_small(capsys):
    code = main(["probe", "--n", "2", "--samples", "500", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["outputs"]["samples"] == 500
    assert out["outputs"]["disagreements"]["II/ii"] == 0


def test_probe_flags_left_out_take_the_library_defaults():
    args = build_parser().parse_args(["probe"])
    assert not {"n", "samples", "seed"} & set(vars(args))
    defaults = {
        name: p.default
        for name, p in inspect.signature(equivalence_probe).parameters.items()
    }
    assert defaults == {"n": 3, "samples": 100_000, "seed": 0}


# Out-of-range arguments, each with the library call that rejects the
# same value: the command line only parses, so its one error line is the
# library's message.
OUT_OF_RANGE = {
    "search-n": ("search --n 1", lambda: SearchParams(n=1)),
    "search-restarts": ("search --n 3 --restarts 0", lambda: SearchParams(n=3, restarts=0)),
    "search-grid": ("search --n 3 --grid 0", lambda: SearchParams(n=3, candidate_grid=0.0)),
    "search-grid-nan": ("search --n 3 --grid nan", lambda: SearchParams(n=3, candidate_grid=math.nan)),
    # 2*pi/grid overflows a double
    "search-grid-overflow": (
        "search --n 2 --grid 1e-320", lambda: SearchParams(n=2, candidate_grid=1e-320)
    ),
    # 196,566 grid directions, above MAX_GRID_DIRECTIONS
    "search-grid-too-fine": (
        "search --n 3 --grid 0.01", lambda: SearchParams(n=3, candidate_grid=0.01)
    ),
    "search-seed": ("search --n 2 --seed -1", lambda: SearchParams(n=2, seed=-1)),
    "probe-n": ("probe --n 1", lambda: equivalence_probe(n=1)),
    "probe-samples": ("probe --samples 0", lambda: equivalence_probe(samples=0)),
    "probe-seed": ("probe --samples 10 --seed -1", lambda: equivalence_probe(samples=10, seed=-1)),
    "bound-n-zero": ("bound --n 0", lambda: total_bound(0)),
    # checked before the envelope, which would overflow here
    "bound-n-401-digits": (f"bound --n -{10**400}", lambda: total_bound(-(10**400))),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_library_rejects_out_of_range_values_with_input_error(case):
    _, library_call = OUT_OF_RANGE[case]
    with pytest.raises(ValueError) as raised:
        library_call()
    assert type(raised.value) is InputError


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_arguments_are_malformed_input(case):
    argv, library_call = OUT_OF_RANGE[case]
    with pytest.raises(InputError) as raised:
        library_call()
    proc = run_cli(argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {raised.value}\n"


def test_reports_byte_identical_across_processes(tmp_path):
    a = run_cli(["search", "--n", "2", "--seed", "11", "--restarts", "2"])
    b = run_cli(["search", "--n", "2", "--seed", "11", "--restarts", "2"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout

    p = run_cli(["probe", "--n", "2", "--samples", "1000", "--seed", "9"])
    q = run_cli(["probe", "--n", "2", "--samples", "1000", "--seed", "9"])
    assert p.stdout == q.stdout


def test_cold_commands_import_only_what_they_run(tmp_path):
    # a bare import loads no submodule and no dependency
    assert modules_loaded_by("import negcurve") == set()
    path = write_doc(tmp_path, BL3_DOC)
    loaded = modules_loaded_by(
        "from negcurve.cli import main\n"
        f"main(['validate', {path!r}])\n"
        f"main(['embed', {path!r}])\n"
    )
    assert {"negcurve.cli", "negcurve.conditions", "numpy", "dataclasses"} <= loaded
    assert loaded.isdisjoint({
        "mpmath", "negcurve.counting", "negcurve.packing", "negcurve.search",
        "concurrent.futures",
    })
    # the probe adds only the thread pool that draws its samples
    probe = modules_loaded_by(
        "from negcurve.cli import main\nmain(['probe', '--n', '2', '--samples', '500'])"
    )
    assert probe - loaded == {"concurrent.futures"}
    # search reads its size limit from counting, and certify loads mpmath
    search = modules_loaded_by(
        "from negcurve.cli import main\nmain(['search', '--n', '2', '--restarts', '1'])"
    )
    assert search - loaded == {"negcurve.counting", "negcurve.search", "mpmath"}
    # the counting bound is integer arithmetic at every rank: bound --n
    # loads no numpy, none of the array layers and no dataclasses
    for n in ("3", "4"):
        bound = modules_loaded_by(f"from negcurve.cli import main\nmain(['bound', '--n', {n!r}])")
        assert bound == {"negcurve.cli", "negcurve.counting", "negcurve.errors"}, n
    # the pipeline of bound --file adds packing, which imports counting
    bound = modules_loaded_by(f"from negcurve.cli import main\nmain(['bound', '--file', {path!r}])")
    assert bound - loaded == {"negcurve.counting", "negcurve.packing"}


def standard_family(n):
    """The n classes E_i of the standard lattice I_{1,n}, a valid family."""
    gram = [[(i == j) * (1 if i == 0 else -1) for j in range(n + 1)] for i in range(n + 1)]
    return {"gram": gram, "curves": gram[1:]}


@pytest.mark.parametrize(
    "command, doc, code",
    [
        ("validate", standard_family(40), 0),
        ("embed", standard_family(40), 0),
        ("validate", {"gram": BL3_DOC["gram"], "curves": [[0, 1, 0, 0]] * 2}, 1),
    ],
)
def test_closed_stdout_keeps_exit_code(tmp_path, capsys, command, doc, code):
    path = write_doc(tmp_path, doc)
    report = tmp_path / "report.json"
    # a pipe whose reader is gone: the first write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "negcurve", command, path, "--json", str(report)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""  # no traceback, no "Exception ignored" at exit
    assert main([command, path]) == code
    assert report.read_text() == capsys.readouterr().out


def test_json_file_output_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["bound", "--n", "3", "--json", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out.rstrip("\n") + "\n"


# Documents the exit-code contract used to break on: a duplicate class,
# a pair of pairing -2 and a class of norm +1 (valid JSON, invalid
# family), Gram entries above int64 (embedded) and beyond the double
# range (exact checks pass, the floating-point path cannot take it), a
# Gram matrix of the right signature whose floating-point
# standardization misses tolerance and a valid pair whose cap angle
# rounds to 0; and a valid family, which breaks it only through an
# output path that cannot be written.
HARD_DOCS = {
    "valid-rank-3": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 0, 1]],
    },
    "duplicate-class": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 1, 0]],
    },
    "negative-pairing": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[1, -3, -3], [1, -3, 2]],
    },
    "positive-class": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[1, 0, 0], [0, 1, 0]],
    },
    "gram-above-int64": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -10**20]],
        "curves": [[0, 1, 0], [0, 0, 1]],
    },
    "gram-beyond-double": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -10**400]],
        "curves": [[0, 1, 0]],
    },
    "standardize-residual": {
        "gram": [[10**8, 10**8 + 1], [10**8 + 1, 10**8]],
        "curves": [[1, -1]],
    },
    # as doubles both rows are 2^62 * (1, 1), a singular matrix
    "gram-rounds-singular": {
        "gram": [[2**62, 2**62 + 1], [2**62 + 1, 2**62]],
        "curves": [[1, -1]],
    },
    "class-beyond-double": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 0, 10**400]],
    },
    # a double, but its square is not
    "class-near-double-limit": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 0, 10**155]],
    },
    # norms -1, but x0 = 10^8 / sqrt(10^16 + 1) rounds to 1
    "cap-angle-rounds-to-zero": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[10**8, 10**8, 1], [10**8, 10**8, -1]],
    },
    # signature (1, 0), but a rank-1 lattice has no negative class (and
    # n = 0 no counting bound), so the lattice itself is refused
    "rank-1": {"gram": [[1]], "curves": [[1]]},
}


@pytest.mark.parametrize(
    "doc, command, code, stderr",
    [
        # the report on stdout names the failed pair; stderr stays empty
        ("duplicate-class", "validate", 1, ""),
        ("duplicate-class", "embed", 1, ""),
        ("duplicate-class", "bound --file", 1, ""),
        ("negative-pairing", "bound --file", 1, ""),
        ("positive-class", "bound --file", 1, ""),
        ("gram-above-int64", "validate", 0, ""),
        ("gram-above-int64", "embed", 0, ""),
        ("gram-above-int64", "bound --file", 0, ""),
        ("gram-beyond-double", "validate", 0, ""),
        ("gram-beyond-double", "embed", 3, "numerical failure: Gram entries exceed the double range"),
        ("gram-beyond-double", "bound --file", 3, "numerical failure: Gram entries exceed the double range"),
        ("standardize-residual", "validate", 0, ""),
        ("standardize-residual", "embed", 3, "numerical failure: standardization residual"),
        ("standardize-residual", "bound --file", 3, "numerical failure: standardization residual"),
        ("gram-rounds-singular", "validate", 0, ""),
        ("gram-rounds-singular", "embed", 3, "numerical failure: standardization residual nan"),
        ("gram-rounds-singular", "bound --file", 3, "numerical failure: standardization residual nan"),
        ("class-beyond-double", "validate", 3, "numerical failure: class pairings exceed"),
        ("class-beyond-double", "embed", 3, "numerical failure: class pairings exceed"),
        ("class-beyond-double", "bound --file", 3, "numerical failure: class pairings exceed"),
        ("class-near-double-limit", "validate", 3, "numerical failure: class pairings exceed"),
        ("class-near-double-limit", "embed", 3, "numerical failure: class pairings exceed"),
        ("class-near-double-limit", "bound --file", 3, "numerical failure: class pairings exceed"),
        ("cap-angle-rounds-to-zero", "validate", 0, ""),
        ("cap-angle-rounds-to-zero", "embed", 3, "numerical failure: a space-like vector rounds"),
        ("cap-angle-rounds-to-zero", "bound --file", 3, "numerical failure: a space-like vector rounds"),
        ("rank-1", "validate", 2, "error: gram matrix rejected: rank must be >= 2"),
        ("rank-1", "embed", 2, "error: gram matrix rejected: rank must be >= 2"),
        ("rank-1", "embed --force", 2, "error: gram matrix rejected: rank must be >= 2"),
        ("rank-1", "embed --force --figure-data {tmp}/figures", 2, "error: gram matrix rejected: rank must be >= 2"),
        ("rank-1", "bound --file", 2, "error: gram matrix rejected: rank must be >= 2"),
        ("valid-rank-3", "validate", 0, ""),
        # --n must agree with the document's rank - 1
        ("valid-rank-3", "bound --n 2 --file", 0, ""),
        ("valid-rank-3", "bound --n 5 --file", 2, "error: --n 5 disagrees with the document"),
        # {tmp} is the test's directory, which holds only family.json
        ("valid-rank-3", "validate --json {tmp}/missing/report.json", 2, "error: cannot write"),
        ("valid-rank-3", "embed --figure-data {tmp}/family.json", 2, "error: cannot write"),
    ],
)
def test_hard_documents_exit_codes(tmp_path, doc, command, code, stderr):
    path = write_doc(tmp_path, HARD_DOCS[doc])
    proc = run_cli([*command.format(tmp=tmp_path).split(), path])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    if stderr:
        assert len(lines) == 1 and lines[0].startswith(stderr)
    else:
        assert lines == []


def test_embed_above_int64_reports_the_exact_norms(tmp_path, capsys):
    path = write_doc(tmp_path, HARD_DOCS["gram-above-int64"])
    assert main(["embed", path]) == 0
    classes = json.loads(capsys.readouterr().out)["outputs"]["classes"]
    assert [rec["norm"] for rec in classes] == [-1, -10**20]
    assert [rec["region"] for rec in classes] == ["cylinder", "cylinder"]


@pytest.mark.parametrize("doc", ["duplicate-class", "negative-pairing", "positive-class"])
def test_bound_file_refuses_an_invalid_family_as_embed_does(tmp_path, capsys, doc):
    path = write_doc(tmp_path, HARD_DOCS[doc])
    assert main(["validate", path]) == 1
    validation = json.loads(capsys.readouterr().out)["outputs"]
    assert main(["bound", "--file", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = json.loads(captured.out)["outputs"]
    assert outputs == {"error": "family fails validation", "validation": validation}


@pytest.mark.parametrize("command", ["embed", "bound --file"])
def test_exact_norm_decides_the_region(tmp_path, capsys, command):
    # norms -1, so both classes are space-like, but the float norm -1
    # lies within the null guard band 1e-9 |v|^2 = 20
    doc = dict(HARD_DOCS["valid-rank-3"], curves=[[10**5, 10**5, 1], [10**5, 10**5, -1]])
    path = write_doc(tmp_path, doc)
    assert main([*command.split(), path]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    if command == "embed":
        for rec in outputs["classes"]:
            assert rec["norm"] == -1 and rec["region"] == "cylinder"
            assert rec["theta"] == pytest.approx(1.0e-5, rel=1e-3)
    else:
        assert outputs["pipeline"]["balls"] == 2


def thin_cap_tie(N):
    """I_{1,2} classes (N, N, 1) and (N, N, -1): norms -1 and pairing 1, a
    (III) tie, so the family is valid for every N; its caps thin as N grows."""
    return {"gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "curves": [[N, N, 1], [N, N, -1]]}


def test_bound_file_runs_the_pipeline_on_a_thin_cap_tie(tmp_path, capsys):
    # the exact verdict is the only gate; in doubles, delta and
    # theta_i + theta_j of this tie differ by rounding alone
    path = write_doc(tmp_path, thin_cap_tie(3 * 10**7))
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["bound", "--file", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    pipeline = json.loads(captured.out)["outputs"]["pipeline"]
    assert (pipeline["near"], pipeline["far"], pipeline["balls"]) == ([0, 1], [], 2)


@pytest.mark.parametrize(
    "N", [10**5, 10**6, 10**7, 3 * 10**7, 5 * 10**7, 6 * 10**7, 7 * 10**7, 10**8]
)
def test_bound_file_never_refuses_a_valid_family(tmp_path, capsys, N):
    # a valid family runs through, or the doubles give out (exit 3, one
    # line); it is never refused as invalid
    path = write_doc(tmp_path, thin_cap_tie(N))
    assert main(["validate", path]) == 0
    capsys.readouterr()
    code = main(["bound", "--file", path])
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (InputError("bad"), 2, "error: bad"),
        (InvalidFamilyError("bad"), 1, "error: bad"),
        (NumericalError("bad"), 3, "numerical failure: bad"),
        (SignatureError((2, 1, 0)), 2, "error: expected signature"),
        (DegenerateCapPairError("bad"), 2, "error: bad"),
        (MemoryError("bad"), 3, "numerical failure: out of memory (bad)"),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, BaseException) else None,
)
def test_exit_code_table(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bound", fail)
    assert main(["bound", "--n", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--n", "565"], 0),
        # u * v^(n+1) overflows a double from here on
        (["bound", "--n", "566"], 3),
        (["bound", "--n", "10000000"], 3),
        (["search", "--n", "566"], 3),
    ],
)
def test_bound_envelope_overflow_is_numerical_failure(argv, code):
    proc = run_cli(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
    else:
        assert lines == [] and json.loads(proc.stdout)["outputs"]["bound"]["n"] == 565


def no_memory_for_huge_arrays(empty):
    """``np.empty`` that fails as numpy's would for an array of 10^12 or
    more elements, without asking the machine for the memory."""
    def fake(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape)) >= 10**12:
            raise MemoryError(f"Unable to allocate {math.prod(shape) * 8} bytes")
        return empty(shape, *args, **kwargs)

    return fake


def background_sampler_without_memory(rng, count, n):
    """The probe's sampler failing on its background thread, where it would
    allocate its first chunk."""
    if threading.current_thread() is threading.main_thread():
        raise AssertionError("the sampler runs on the probe's background thread")
    raise MemoryError("Unable to allocate 524288 bytes")
    yield


def test_out_of_memory_is_numerical_failure(monkeypatch, capsys):
    # the held sample set: ~32 TB at 10^12 samples and n = 3
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", no_memory_for_huge_arrays(np.empty))
        held = main(["probe", "--samples", "1000000000000"]), capsys.readouterr()
    monkeypatch.setattr(conditions, "_sample_spacelike", background_sampler_without_memory)
    background = main(["probe", "--samples", "1000"]), capsys.readouterr()
    for code, captured in (held, background):
        assert code == 3 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: out of memory")


@pytest.mark.parametrize(
    "argv",
    [
        # numpy refuses these sizes outright rather than running out of memory
        f"probe --samples {10**18}",
        f"probe --samples {10**20}",
        f"probe --n {10**20} --samples 1",
    ],
)
def test_probe_beyond_array_size_limit_is_out_of_memory(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: out of memory")


def test_probe_stdout_golden(capsys):
    # sha256 of the report as recorded before the probe moved to
    # coordinate columns and row blocks
    code = main(["probe", "--n", "3", "--samples", "20000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4a63950988e0920600c027f36be877212481f8427e5ab4d7e5be27475d2a0334"
    )


#: sha256 of ``search`` stdout, recorded before the search results and
#: the echoed parameters were built in one place each
SEARCH_GOLDENS = {
    "--n 3 --seed 1001 --restarts 2":
        "4356152a4e4a7aaf5231bc31942063474c6727620adad7fa12ce1223be04d228",
    "--n 2 --seed 5 --restarts 2":
        "edd1fca7925745a8d2820e10b1ff73d4aa02b1f23c54f3a4ca449df76d68ad3d",
    "--n 4 --seed 7 --restarts 1":
        "e6d67d53edb89a13bbc24e7d801a53a1b86c4b575bd3660ca0e252820003fd84",
    "--n 3 --seed 20 --restarts 1 --grid 0.3":
        "9269f100afdbb4ce0890c2680918ebbd76c67e6181e7145c8387b4ab5b82894e",
}


@pytest.mark.parametrize("argv", sorted(SEARCH_GOLDENS))
def test_search_stdout_golden(capsys, argv):
    code = main(["search", *argv.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_GOLDENS[argv]


# Documents that are not well-formed input, as raw file text or bytes,
# and a part of the one error line each must give, with exit 2, under
# every command that reads a document ({path} is the document's path).
MALFORMED_DOCS = {
    "truncated-json": ('{"gram": [[1, 0], [0, -1]], "curves": [[0, 1]', "{path} is not valid JSON"),
    "not-utf8": (b"\xff\xfe", "{path} is not valid JSON: 'utf-8' codec can't decode"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, "{path} is not valid JSON: maximum recursion depth"),
    # past Python's 4300-digit limit on int() of a string
    "5000-digit-entry": (
        '{"gram": [[1, 0], [0, -1]], "curves": [[0, ' + "1" * 5000 + "]]}",
        "{path} is not valid JSON: Exceeds the limit (4300 digits)",
    ),
    "list-root": ("[[1, 0], [0, -1]]", "document root must be an object"),
    "missing-curves": ('{"gram": [[1, 0], [0, -1]]}', "curves must be a nonempty array"),
    "empty-gram": ('{"gram": [], "curves": [[0, 1]]}', "gram must be a nonempty array"),
    "empty-curves": ('{"gram": [[1, 0], [0, -1]], "curves": []}', "curves must be a nonempty array"),
    "string-entry": ('{"gram": [[1, "0"], [0, -1]], "curves": [[0, 1]]}', "gram entries must be integers"),
    "float-entry": ('{"gram": [[1, 0], [0, -1]], "curves": [[0, 1.0]]}', "curves entries must be integers"),
    "bool-entry": ('{"gram": [[1, 0], [0, -1]], "curves": [[0, true]]}', "curves entries must be integers"),
    "nan-entry": ('{"gram": [[1, 0], [0, NaN]], "curves": [[0, 1]]}', "gram entries must be integers"),
    "ragged-gram": (
        '{"gram": [[1, 0, 0], [0, -1], [0, 0, -1]], "curves": [[0, 1, 0]]}',
        "gram matrix rejected: matrix is not square",
    ),
    "asymmetric-gram": (
        '{"gram": [[1, 2], [0, -1]], "curves": [[0, 1]]}',
        "gram matrix rejected: matrix is not symmetric",
    ),
    "wrong-length-class": (
        '{"gram": [[1, 0], [0, -1]], "curves": [[0, 1, 0]]}',
        "curves rejected: class length must equal the lattice rank",
    ),
    "zero-class": (
        '{"gram": [[1, 0], [0, -1]], "curves": [[0, 0]]}',
        "curves rejected: family classes must be nonzero",
    ),
}


@pytest.mark.parametrize("command", ["validate", "embed", "bound --file"])
@pytest.mark.parametrize("doc", sorted(MALFORMED_DOCS))
def test_malformed_documents_exit_2(tmp_path, capsys, doc, command):
    text, reason = MALFORMED_DOCS[doc]
    path = tmp_path / "family.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code = main([*command.split(), str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert reason.format(path=path) in lines[0]


# ---------------------------------------------------------------------------
# README's command examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The `negcurve ...` lines of the first fenced block under "## Command
    line", without their comments, and the JSON document below them."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    document = section.split("```json", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("negcurve ")], document


def readme_invocations():
    """Each example once without its bracketed options, and once with each
    of them."""
    out = []
    for line in readme_examples()[0]:
        options = re.findall(r"\[([^\]]+)\]", line)
        plain = re.sub(r"\[[^\]]+\]", "", line).split()[1:]
        out.append(plain)
        out.extend(plain + option.split() for option in options)
    return out


def test_readme_lists_the_command_examples():
    assert len(readme_invocations()) == 8
    assert json.loads(readme_examples()[1])["gram"] == [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


@pytest.mark.parametrize("argv", readme_invocations(), ids=" ".join)
def test_readme_command_examples_run(tmp_path, capsys, argv):
    (tmp_path / "family.json").write_text(readme_examples()[1])
    places = {"family.json": str(tmp_path / "family.json"), "DIR": str(tmp_path / "figures")}
    code = main([places.get(word, word) for word in argv])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "negcurve/run-report/v1"


# ---------------------------------------------------------------------------
# the lattice basis: exact reports do not depend on it, the bound pipeline
# does (ROADMAP item 2)
# ---------------------------------------------------------------------------

def unimodular(seed, dim, steps=8):
    """A random integer matrix U of determinant +/-1, from ``steps``
    elementary row additions, and its exact inverse."""
    rng = np.random.default_rng(seed)
    u = np.eye(dim, dtype=np.int64)
    inv = np.eye(dim, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(dim, size=2, replace=False)
        sign = int(rng.choice([-1, 1]))
        u[i] += sign * u[j]
        inv[:, j] -= sign * inv[:, i]
    return u, inv


def in_basis(tmp_path, classes, seed):
    """The document of ``classes`` (canonical coordinates of I_{1,n}) in
    the basis U of ``unimodular(seed)``, or in the canonical basis when
    ``seed`` is None: Gram U^T J U and classes U^-1 c."""
    dim = len(classes[0])
    j = np.diag([1] + [-1] * (dim - 1)).astype(np.int64)
    u, inv = (np.eye(dim, dtype=np.int64),) * 2 if seed is None else unimodular(seed, dim)
    assert (u @ inv == np.eye(dim)).all()
    doc = {
        "gram": (u.T @ j @ u).tolist(),
        "curves": [(inv @ np.asarray(c, dtype=np.int64)).tolist() for c in classes],
    }
    return write_doc(tmp_path, doc, f"basis-{seed}.json")


def outputs_of(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)["outputs"]


BASES = [None, 0, 1, 2]

#: families in canonical coordinates, with their `validate` exit codes
BASIS_FAMILIES = {
    "del-pezzo-4": (del_pezzo_lines(4), 0),
    "del-pezzo-5": (del_pezzo_lines(5), 0),
    "del-pezzo-6": (del_pezzo_lines(6), 0),
    # 56 lines, and the 28 pairs that meet twice fail
    "del-pezzo-7": (del_pezzo_lines(7), 1),
    # a repeated line and the time-like class H
    "repeat-and-time-like": (del_pezzo_lines(4) + [del_pezzo_lines(4)[0], [1, 0, 0, 0, 0]], 1),
}


@pytest.mark.parametrize("family", sorted(BASIS_FAMILIES))
def test_exact_reports_do_not_depend_on_the_basis(tmp_path, capsys, family):
    # inputs_digest hashes the basis, so the outputs are compared, not stdout
    classes, exit_code = BASIS_FAMILIES[family]
    validated, embedded = [], []
    for seed in BASES:
        path = in_basis(tmp_path, classes, seed)
        code, outputs = outputs_of(capsys, ["validate", path])
        assert code == exit_code
        validated.append(outputs)
        code, outputs = outputs_of(capsys, ["embed", "--force", path])
        assert code == 0
        embedded.append([(c["norm"], c["in_cylinder"]) for c in outputs["classes"]])
    assert all(v == validated[0] for v in validated)
    assert all(e == embedded[0] for e in embedded)


@pytest.mark.xfail(
    strict=True,
    reason="the pipeline's time axis is an eigenvector of the Gram matrix (ROADMAP item 2)",
)
@pytest.mark.parametrize("seed", BASES[1:])
@pytest.mark.parametrize("r", [4, 5, 6])
def test_bound_pipeline_does_not_depend_on_the_basis(tmp_path, capsys, r, seed):
    classes = del_pezzo_lines(r)
    code, canonical = outputs_of(capsys, ["bound", "--file", in_basis(tmp_path, classes, None)])
    assert code == 0
    code, scrambled = outputs_of(capsys, ["bound", "--file", in_basis(tmp_path, classes, seed)])
    assert code == 0
    assert scrambled["pipeline"] == canonical["pipeline"]
