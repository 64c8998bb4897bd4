import hashlib
import json
import os
import subprocess
import sys

import pytest

from negcurve import conditions
from negcurve.cli import main

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


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "1"],
        ["search", "--n", "3", "--restarts", "0"],
        ["search", "--n", "3", "--grid", "0"],
        # 2*pi/grid overflows a double
        ["search", "--n", "2", "--grid", "1e-320"],
        # 196,566 grid directions, above MAX_GRID_DIRECTIONS
        ["search", "--n", "3", "--grid", "0.01"],
        ["search", "--n", "2", "--seed", "-1"],
        ["probe", "--n", "1"],
        ["probe", "--samples", "0"],
        ["probe", "--samples", "10", "--seed", "-1"],
    ],
    ids=["search-n", "search-restarts", "search-grid", "search-grid-overflow",
         "search-grid-too-fine", "search-seed", "probe-n", "probe-samples",
         "probe-seed"],
)
def test_out_of_range_arguments_are_malformed_input(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len([ln for ln in proc.stderr.splitlines() if "error:" in ln]) == 1


def test_reports_byte_identical_across_processes(tmp_path):
    a = run_cli(["search", "--n", "2", "--seed", "11", "--restarts", "2"])
    b = run_cli(["search", "--n", "2", "--seed", "11", "--restarts", "2"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout

    p = run_cli(["probe", "--n", "2", "--samples", "1000", "--seed", "9"])
    q = run_cli(["probe", "--n", "2", "--samples", "1000", "--seed", "9"])
    assert p.stdout == q.stdout


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


# Documents the exit-code contract used to break on: a duplicate class
# (valid JSON, invalid family), a Gram entry above int64 (exact checks
# pass, the floating-point path cannot take it) and a Gram matrix of the
# right signature whose floating-point standardization misses tolerance;
# and a valid family, which breaks it only through an output path that
# cannot be written.
HARD_DOCS = {
    "valid-rank-3": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 0, 1]],
    },
    "duplicate-class": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [[0, 1, 0], [0, 1, 0]],
    },
    "gram-above-int64": {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -10**20]],
        "curves": [[0, 1, 0], [0, 0, 1]],
    },
    "standardize-residual": {
        "gram": [[10**8, 10**8 + 1], [10**8 + 1, 10**8]],
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
}


@pytest.mark.parametrize(
    "doc, command, code, stderr",
    [
        # the report on stdout names the failed pair; stderr stays empty
        ("duplicate-class", "validate", 1, ""),
        ("duplicate-class", "embed", 1, ""),
        ("duplicate-class", "bound --file", 1, "error: pair (0, 1) violates the center condition"),
        ("gram-above-int64", "validate", 0, ""),
        ("gram-above-int64", "embed", 3, "numerical failure: Gram entries exceed"),
        ("gram-above-int64", "bound --file", 3, "numerical failure: Gram entries exceed"),
        ("standardize-residual", "validate", 0, ""),
        ("standardize-residual", "embed", 3, "numerical failure: standardization residual"),
        ("standardize-residual", "bound --file", 3, "numerical failure: standardization residual"),
        ("class-beyond-double", "validate", 3, "numerical failure: class pairings exceed"),
        ("class-beyond-double", "embed", 3, "numerical failure: class pairings exceed"),
        ("class-beyond-double", "bound --file", 3, "numerical failure: class entries exceed"),
        ("class-near-double-limit", "validate", 3, "numerical failure: class pairings exceed"),
        ("class-near-double-limit", "embed", 3, "numerical failure: class pairings exceed"),
        ("class-near-double-limit", "bound --file", 3, "numerical failure: vector entries exceed"),
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


def test_out_of_memory_is_numerical_failure(monkeypatch, capsys):
    # the sampler's allocation fails as numpy's would, without asking the
    # machine for the ~32 TB that 10^12 samples at n = 3 take
    def no_memory(rng, count, n):
        raise MemoryError(f"Unable to allocate {count * (n + 1) * 8} bytes")

    monkeypatch.setattr(conditions, "_sample_spacelike", no_memory)
    code = main(["probe", "--samples", "1000000000000"])
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


# Documents that are not well-formed input, as raw file text, and the
# start of the one error line each must give, with exit 2, under every
# command that reads a document.
MALFORMED_DOCS = {
    "truncated-json": ('{"gram": [[1, 0], [0, -1]], "curves": [[0, 1]', "is not valid JSON"),
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
    path.write_text(text)
    code = main([*command.split(), str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert reason in lines[0]
