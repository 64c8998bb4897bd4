"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

They spawn the benchmark and cold CLI processes, so they take about a
minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    return result


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = last_line(bench("--workload", workload, "--seed", "0",
                             "--seconds", "0", "--trace", "0"))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "search", "--seed", "0", "--seconds", "0", "--trace", "1")
    result = last_line(proc)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["provenance"]["nproc"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pairs", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# checks: a corrupted output counts as a failed operation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def program():
    run.import_program()
    import ops
    from spans import Tracer

    return ops, Tracer


def corrupt(op, mutate):
    def run_corrupted():
        return mutate(op.run())

    return type(op)(op.kind, run_corrupted, op.check, op.caches, op.reference)


def test_corrupted_pair_outputs_fail(program, tmp_path):
    ops, Tracer = program
    wl = ops.pairs(0, tmp_path, Tracer(), run.child_env(), run.load_refs(),
                   lattice_size=40, model_size=30)
    lattice, embed, model, packing, probe = wl.ops

    def drop_failure(rep):
        rep.failures.pop()
        return rep

    def drop_kept(out):
        kept, reduced, bad = out
        return type(kept)(kept.caps[1:]), reduced, bad

    def bump_probe(rep):
        rep.disagreements["III/iii"] += 1
        return rep

    tampered = [
        corrupt(lattice, drop_failure),
        corrupt(model, drop_failure),
        corrupt(packing, drop_kept),
        corrupt(embed, lambda out: (out[0][:-1], out[1], out[2])),
        corrupt(probe, bump_probe),
    ]
    wl.ops += tampered
    records, _ = run.measure(wl, 0, Tracer(), "test", alternate=False)
    verdicts = [r["ok"] for r in records]
    assert verdicts == [True] * 5 + [False] * 5


def test_corrupted_search_and_cli_outputs_fail(program, tmp_path):
    ops, Tracer = program
    wl = ops.search(0, tmp_path, Tracer(), run.child_env(), run.load_refs())
    greedy = wl.ops[0]
    n, res, cert = greedy.run()
    assert greedy.check((n, res, cert))
    bad_cert = type(cert)(False, cert.digits, cert.min_margin, cert.worst, cert.violations)
    assert not greedy.check((n, res, bad_cert))

    docs = inputs.cli_documents(0)
    ref = run.load_refs()["cli"]["0"]
    argv = ["bound", "--n", str(docs["bound_n"])]
    check = ops._check_cli("bound_n", argv, ref["bound_n"], docs)
    n = docs["bound_n"]
    bound = {"n": n, "near_bound": 2 ** (n + 1), "far_bound": oracle.far_bound(n),
             "total": oracle.total_bound(n)}
    good = json.dumps({"outputs": {"bound": bound}}).encode()
    assert check((0, good))
    bound["far_bound"] += 10
    assert not check((0, json.dumps({"outputs": {"bound": bound}}).encode()))
    validate = ops._check_cli("validate", [], ref["validate"], docs)
    assert not validate((0, b"{}"))
    assert not validate((1, b""))


def test_failed_run_of_an_op_is_counted(program):
    ops, Tracer = program

    def boom():
        raise RuntimeError("boom")

    wl = ops.Workload([ops.Op("boom", boom, lambda out: True, "", ops.interpreter_work)],
                      list, dict)
    records, _ = run.measure(wl, 0, Tracer(), "test", alternate=False)
    assert [r["ok"] for r in records] == [False]
    assert "boom" in records[0]["error"]


# ---------------------------------------------------------------------------
# known defects of the program, left out of the workloads
# ---------------------------------------------------------------------------
# The workloads run only operations the program gets right, so that their
# timings are comparable.  These two it gets wrong; each test passes once
# the program is fixed, and the operation can then join its workload.

@pytest.mark.xfail(reason="bound --n takes the far term's ceiling of a double, "
                          "which is wrong for n >= 45", strict=False)
@pytest.mark.parametrize("n", [45, 50, 60])
def test_known_defect_bound_for_large_n(program, n):
    import contextlib
    import io

    from negcurve import cli

    ops, _ = program
    ops.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bound", "--n", str(n)]) == 0
    assert oracle.bound_fields_ok(json.loads(out.getvalue())["outputs"]["bound"], n)


@pytest.mark.xfail(reason="exact_max returns a clique whose certificate fails "
                          "on right-angle float ties of the pi/10 grid", strict=False)
def test_known_defect_exact_max_on_grid_ties(program):
    from negcurve import SearchParams, exact_max
    from negcurve.search import candidate_caps

    cands = candidate_caps(
        SearchParams(n=3, candidate_grid=math.pi / 10, random_candidates=64),
        inputs.rng_for(0, 4),
    )[:256]
    assert exact_max(SearchParams(n=3), cands).best.certificate.valid


# ---------------------------------------------------------------------------
# inputs and references
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    assert inputs.cli_documents(3) == inputs.cli_documents(3)
    assert inputs.lattice_family(3, 50) == inputs.lattice_family(3, 50)
    a, b = inputs.model_caps(3, 50), inputs.model_caps(3, 50)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert inputs.cli_documents(3) != inputs.cli_documents(4)


def test_model_family_has_large_caps_and_large_pairs():
    zs, ths = inputs.model_caps(0)
    assert (ths > math.pi / 2).sum() > 50
    big_pairs = (ths[:, None] + ths[None, :] > math.pi).sum()
    assert big_pairs > 1000


def test_lattice_family_reaches_every_region():
    gram, classes, ws = inputs.lattice_family(0)
    norms = [w[0] ** 2 - sum(x * x for x in w[1:]) for w in ws]
    assert any(n < 0 for n in norms) and any(n > 0 for n in norms)
    assert len(set(map(tuple, classes))) == len(classes)
    # the scrambled basis carries the same pairings
    g = np.array(gram)
    c = np.array(classes)
    assert [int(x) for x in np.diag(c @ g @ c.T)] == norms


def test_far_bound_reference():
    assert oracle.far_bound(3) == 16
    assert oracle.far_bound(2) == 7
    assert oracle.far_bound(50) == 42477174512562278


def test_references_cover_every_variant():
    refs = run.load_refs()
    for part in ("cli", "pairs", "search"):
        assert set(refs[part]) == {str(v) for v in range(inputs.VARIANTS)}
