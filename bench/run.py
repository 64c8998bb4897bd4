"""Benchmark of the negcurve toolkit, run from the root of a checkout.

    python3 bench/run.py --workload {cli-cold,pairs,search} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's operations one at a time in a closed loop
for S seconds (at least one full pass), checks every output, and prints
a report line and then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones (see BENCHMARK.json), and passes alternate between traced
and untraced so that the tracing overhead is measured in the same run.

End-to-end metrics, for every workload:

- ``setup_s``: the time from spawn until the program is imported and the
  workload's inputs are built, in SETUP_REPS fresh processes spread over
  the run; each is taken relative to a cold reference process timed after
  it (``ops.cold_imports``), and the median is scaled back to seconds by
  REFERENCE_SETUP_S.
- ``pass_rel``: one pass over the workload's operation mix, the sum over
  operation kinds of the median time of one operation, where each time is
  taken relative to a reference operation of the same kind timed next to
  it (``ops.Op.reference``).
- ``peak_rss_mb``: peak resident set of this process or its largest child.

The report line holds the same pass in seconds, the median of each
operation kind, the workload's own figures (pairs per second, search
times and certified sizes, CLI call median and tail), the set-up times,
the cache policy of each operation and the versions and commit measured.

The program is imported from ``src/`` of the checkout; ``NEGCURVE_THREADS``
is removed from its environment.  Scratch files go to ``.bench_work/``
in the checkout and are removed at exit.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-cold", "pairs", "search")

#: reference timings on each side of an operation that set its scale
REFERENCE_WINDOW = 5

#: fresh set-up processes per run; set-up time is their median
SETUP_REPS = 5

#: the set-up reference (``ops.cold_imports``) on a 2-vCPU VM with Python
#: 3.11.7, numpy 2.4.6 and mpmath 1.3.0: the unit in which ``setup_s`` is
#: reported, so that a machine's changes of speed cancel out of it
REFERENCE_SETUP_S = 0.25

#: cold `python -c pass` processes per traced run
INTERPRETER_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "pass_rel": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.command_s.validate": "s",
    "cli.command_s.validate_invalid": "s",
    "cli.command_s.embed": "s",
    "cli.command_s.bound_n": "s",
    "cli.command_s.bound_file": "s",
    "cli.command_s.search": "s",
    "cli.command_s.probe": "s",
    "lorentz.lattice_s": "s",
    "lorentz.standardize_s": "s",
    "lorentz.embed_s": "s",
    "lorentz.classes": "count",
    "klein.project_s": "s",
    "klein.cap_of_s": "s",
    "klein.cylinder_ratio": "ratio",
    "conditions.validate_lattice_s": "s",
    "conditions.validate_model_s": "s",
    "conditions.pairs_checked": "count",
    "conditions.failures_found": "count",
    "conditions.probe_s": "s",
    "conditions.probe_disagreements": "count",
    "packing.hemisphere_filter_s": "s",
    "packing.reduce_ii_star_s": "s",
    "packing.check_valid_s": "s",
    "packing.kept_ratio": "ratio",
    "packing.total_bound_cold_s": "s",
    "search.candidate_caps_s": "s",
    "search.candidates": "count",
    "search.compatible_s": "s",
    "search.edge_density": "ratio",
    "search.greedy_max_s": "s",
    "search.exact_max_s": "s",
    "search.certify_s": "s",
    "search.certified_pairs": "count",
    "search.min_margin": "margin",
    "trace.overhead": "ratio",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEGCURVE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    os.environ.pop("NEGCURVE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import negcurve

    if not Path(negcurve.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"negcurve was imported from {negcurve.__file__}, not {SRC}")
    return negcurve


def load_refs() -> dict:
    return json.loads((BENCH / "refs.json").read_text())


def new_workdir() -> Path:
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def build(name, seed, workdir, tracer, refs):
    import ops

    return ops.BUILDERS[name](seed, workdir, tracer, child_env(), refs)


# ---------------------------------------------------------------------------
# set-up: fresh processes, timed from spawn to "imported and warmed"
# ---------------------------------------------------------------------------

def timed_setup(args) -> dict:
    import ops

    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), args.workload, str(args.seed)],
        env=child_env(), capture_output=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: " + proc.stderr.decode()[-2000:])
    stamps = json.loads(proc.stdout.decode().splitlines()[-1])
    t_ref = time.monotonic()
    ops.cold_imports()
    return {
        "setup_s": stamps["t_ready"] - t_spawn,
        "import_s": stamps["t_imported"] - stamps["t_import"],
        "reference_s": time.monotonic() - t_ref,
    }


def setup_seconds(setups) -> float:
    """Median set-up time over that of the reference timed after it, in
    seconds of a machine on which the reference takes REFERENCE_SETUP_S."""
    return REFERENCE_SETUP_S * statistics.median(
        s["setup_s"] / s["reference_s"] for s in setups)


def interpreter_floor() -> float:
    import ops

    times = []
    for _ in range(INTERPRETER_REPS):
        t0 = time.perf_counter()
        ops.cold_interpreter()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def safe_check(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a malformed output is a failed operation
        return False


def measure(wl, seconds, tracer, group, alternate, setup=None) -> tuple[list, list]:
    """Run passes over the workload's operations until ``seconds`` have
    elapsed; with ``alternate``, odd passes are traced and even ones are
    not.  Each operation is followed by one timed run of its reference
    operation.  ``setup`` is called SETUP_REPS times, spread evenly over
    the run between operations, so that its median does not hang on one
    moment of a shared machine; the time it takes does not count towards
    ``seconds``.  Returns the operation records and the set-up results."""
    records, setups = [], []
    start = time.perf_counter()
    paused = 0.0
    reps = SETUP_REPS if setup else 0

    def clock() -> float:
        return time.perf_counter() - start - paused

    min_passes = 3 if alternate else 1
    cycle = 0
    while cycle < min_passes or clock() < seconds:
        traced = alternate and cycle % 2 == 1
        tracer.on, tracer.group = traced, f"{group}#{cycle}"
        for op in wl.ops:
            if cycle >= min_passes and clock() >= seconds:
                break
            if len(setups) < reps and clock() >= len(setups) * seconds / reps:
                t = time.perf_counter()
                setups.append(setup())
                paused += time.perf_counter() - t
            error = None
            t0 = time.perf_counter()
            try:
                with tracer.span("op." + op.kind):
                    out = op.run()
            except Exception as exc:  # counted as a failed operation
                out, error = None, repr(exc)
            elapsed = time.perf_counter() - t0
            ok = error is None and safe_check(op, out)
            t1 = time.perf_counter()
            op.reference()
            ref = time.perf_counter() - t1
            records.append({"kind": op.kind, "s": elapsed, "ok": ok, "error": error,
                            "ref": op.reference.__name__, "ref_s": ref,
                            "cycle": cycle, "traced": traced})
        cycle += 1
    tracer.on = False
    setups += [setup() for _ in range(reps - len(setups))]
    return records, setups


def kind_medians(records, key: str = "s") -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r[key])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def pass_time(records, key: str = "s") -> float:
    """Sum over operation kinds of the median time of one operation."""
    return sum(kind_medians(records, key).values())


def add_relative(records) -> None:
    """Set each record's ``rel``: its time over the median of the nearest
    timings of its reference operation, REFERENCE_WINDOW on either side,
    which damps the reference's own noise."""
    by_ref: dict[str, list[dict]] = {}
    for r in records:
        by_ref.setdefault(r["ref"], []).append(r)
    for group in by_ref.values():
        refs = [r["ref_s"] for r in group]
        for i, r in enumerate(group):
            near = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
            r["rel"] = r["s"] / statistics.median(near)


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it; none
    when that percentile would not be above the median."""
    n = len(times)
    if n < 20:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "negcurve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    versions = {}
    for mod in ("numpy", "scipy", "mpmath"):
        try:
            versions[mod] = importlib.metadata.version(mod)
        except importlib.metadata.PackageNotFoundError:
            versions[mod] = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **versions}


def module_shares(tracer, group: str, pass_s: float) -> dict[str, float]:
    """Share of one traced pass spent in each module's calls (self time)."""
    shares: dict[str, float] = {}
    for name, vals in tracer.self_times().get(group, {}).items():
        module = name.split(".")[0]
        if module != "op":
            shares[module] = shares.get(module, 0.0) + statistics.median(vals) / pass_s
    return shares


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def traced_layers(args, wl, tracer, records, setups, workdir, refs):
    """Layer passes of every workload, then the per-layer metrics, the
    module shares of one traced pass and the layer-pass verdicts."""
    from spans import layer_metrics

    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    verdicts = []
    for name in order:
        tracer.on, tracer.group = True, name + "-pass"
        side = wl if name == args.workload else build(name, args.seed, workdir,
                                                      tracer, refs)
        verdicts += side.layer_pass()
    tracer.on = False
    loop = args.workload + "-loop"
    layer = layer_metrics(tracer, [loop] + [w + "-pass" for w in order])
    layer["search.compatible_s"] = (
        layer.pop("search.compatible_all_s") / layer["search.compatible_calls"]
    )
    layer["cli.interpreter_s"] = interpreter_floor()
    layer["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    # the first pass pays one-time costs, so it is left out here
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"] and r["cycle"]]
    layer["trace.overhead"] = pass_time(traced, "rel") / pass_time(untraced, "rel") - 1.0
    return layer, module_shares(tracer, loop, pass_time(traced)), verdicts


def run(args) -> int:
    from spans import Tracer

    refs = load_refs()
    if args.workload != "cli-cold" or args.trace:
        import_program()
    tracer = Tracer()
    workdir = new_workdir()
    try:
        wl = build(args.workload, args.seed, workdir, tracer, refs)
        records, setups = measure(wl, args.seconds, tracer, args.workload + "-loop",
                                  alternate=bool(args.trace),
                                  setup=lambda: timed_setup(args))
        add_relative(records)
        # before the layer passes, which run other workloads' operations
        rss = peak_rss_mb()
        if args.trace:
            layer, shares, verdicts = traced_layers(args, wl, tracer, records,
                                                    setups, workdir, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    timing = [r for r in records if not r["traced"]]
    failed = sum(not r["ok"] for r in records)
    medians = kind_medians(timing)
    relative = kind_medians(timing, "rel")
    e2e = {
        "setup_s": setup_seconds(setups),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
        "pass_s": pass_time(timing),
        "pass_rel": pass_time(timing, "rel"),
        "reference_s": kind_medians(
            [dict(r, kind=r["ref"]) for r in records], "ref_s"),
        "peak_rss_mb": rss,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "clients": 1, "loop": "closed",
        "end_to_end": e2e,
        "ops": {op.kind: {"count": sum(r["kind"] == op.kind for r in timing),
                          "median_s": medians.get(op.kind),
                          "median_rel": relative.get(op.kind), "caches": op.caches}
                for op in wl.ops},
        "setup": setups,
        "error_rate": failed / len(records),
        "failures": [{"kind": r["kind"], "error": r["error"]}
                     for r in records if not r["ok"]][:20],
        **wl.report(medians),
    }
    if args.workload == "cli-cold":
        report["cli_call_p50_s"] = statistics.median(r["s"] for r in timing)
        report["cli_call_tail_s"] = tail([r["s"] for r in timing])
    if args.trace:
        report["layers"] = layer
        report["module_share_of_pass"] = shares
        report["layer_pass_checks"] = {"attempted": len(verdicts),
                                       "failed": verdicts.count(False)}
    print(json.dumps({"report": report}, sort_keys=True))

    if args.trace:
        missing = sorted(set(PER_LAYER) - set(layer))
        if missing:
            raise RuntimeError(f"traced run did not record {missing}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negcurve" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'negcurve'}; run from a checkout root",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
