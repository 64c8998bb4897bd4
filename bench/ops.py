"""The three workloads: their operations, output checks and layer passes.

An operation is one call a user of the toolkit makes.  ``run`` is timed;
``check`` compares the output with a reference and is not timed.  Each
workload also has a *layer pass*: one traced pass of calls into single
modules, run only with ``--trace 1``.

Cache policy.  The package memoizes ``standardize``, ``far_bound`` and
``fit_constants`` with ``functools.lru_cache``.  An operation clears them
where a user pays the cost once per process: every cold CLI call (its own
process), every in-process ``cli.main`` call in the layer pass, each
``embed`` pass in ``pairs`` (``standardize``) and
``packing.total_bound_cold``.  The ``search`` operations keep
``far_bound``/``fit_constants`` warm from set-up, as a user running many
searches in one process would.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
import oracle

#: pairs sampled by one probe operation
PROBE_SAMPLES = 10**6

#: grid step of the n = 3 exact-search candidates (21 azimuths), at which
#: `exact_max` returns a certified clique on every input variant.  With a
#: multiple of four azimuths (pi/8, pi/10) the grid holds off-axis feet a
#: right angle apart whose pi/2 caps pass the float predicate within its
#: guard band but miss the certificate floor by ~1e-16, and `exact_max`
#: returns an uncertified clique: a known defect of the program, which
#: selftest.py keeps visible.
EXACT_N3_GRID = 0.3


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: what the operation does with the package's lru_caches
    caches: str
    #: fixed work of the same kind, using no part of the program, timed
    #: after the operation (see below)
    reference: Callable[[], Any]


@dataclass
class Workload:
    ops: list[Op]
    #: one traced pass of calls into single modules; returns one
    #: pass/fail verdict per checked output
    layer_pass: Callable[[], list[bool]]
    #: workload-level figures from the median time of each operation kind
    report: Callable[[dict[str, float]], dict]


# ---------------------------------------------------------------------------
# reference operations
# ---------------------------------------------------------------------------
# A shared machine can change speed by tens of percent within minutes
# (other tenants, clock changes), and not by the same factor for
# interpreter-bound and memory-bound code.  An operation's time over that
# of a reference operation of the same kind, timed next to it, cancels
# most of that, so runs made minutes apart stay comparable.

def cold_interpreter() -> None:
    """A cold `python -c pass`, the reference for cold CLI calls."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


def cold_imports() -> None:
    """A cold process importing the program's numeric dependencies but not
    the program: the reference for set-up, which is mostly imports."""
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], check=True)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def interpreter_work() -> float:
    """Fixed interpreter-bound work that, like the program's pair loops,
    makes many small frozen dataclass objects: the reference for
    operations that spend their time in Python."""
    items = [_Pair(math.cos(i * 1e-3), math.sin(i * 1e-3)) for i in range(6000)]
    out = []
    for x in items[:60]:
        for y in items[::60]:
            d = math.acos(max(-1.0, min(1.0, x.a * y.a + x.b * y.b)))
            out.append(_Pair(d, x.a - y.b))
    return sum(p.a for p in out)


@functools.cache
def _reference_array() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(500_000, 4))


def array_work() -> float:
    """Fixed memory-bound numpy work over arrays larger than the caches,
    the reference for the vectorized probe."""
    v = _reference_array()
    norms = np.sqrt(np.sum(v * v, axis=1))
    cos = np.clip(v[:, 0] / norms, -1.0, 1.0)
    return float(np.sum(np.arccos(cos) * (v[:, 1] * v[:, 2] - v[:, 3] ** 2)))


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def clear_caches() -> None:
    from negcurve import lorentz, packing

    lorentz.standardize.cache_clear()
    packing.far_bound.cache_clear()
    packing.fit_constants.cache_clear()


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------
# Why: a user's whole wait for one `negcurve <subcommand>` is the
# interpreter, `import negcurve` (scipy is most of it) and then under 0.1 s
# of compute.  This workload loads process start-up and import and
# bypasses the pair kernel, the clique search and the certification.

def _check_cli(kind: str, argv: list[str], ref: dict, docs: dict):
    def check(out) -> bool:
        code, stdout = out
        if code != ref["exit"]:
            return False
        if kind == "bound_n":
            n = int(argv[-1])
            return oracle.bound_fields_ok(json.loads(stdout)["outputs"]["bound"], n)
        if kind == "bound_file":
            outputs = json.loads(stdout)["outputs"]
            n = len(docs["valid"]["gram"]) - 1
            return (
                digest(outputs["pipeline"]) == ref["pipeline_sha256"]
                and oracle.bound_fields_ok(outputs["bound"], n)
            )
        return hashlib.sha256(stdout).hexdigest() == ref["sha256"]

    return check


def cli_cold(seed: int, workdir: Path, tracer, env: dict, refs: dict) -> Workload:
    docs = inputs.cli_documents(seed)
    calls = inputs.cli_argv(docs, workdir)
    vref = refs["cli"][str(inputs.variant(seed))]

    def cold(kind, argv):
        def run():
            with tracer.span("cli.call." + kind):
                proc = subprocess.run(
                    [sys.executable, "-m", "negcurve", *argv],
                    env=env, capture_output=True, timeout=120,
                )
            return proc.returncode, proc.stdout

        return run

    checks = {kind: _check_cli(kind, argv, vref[kind], docs) for kind, argv, _ in calls}
    ops = [Op(kind, cold(kind, argv), checks[kind], "cold: own process",
              cold_interpreter)
           for kind, argv, _ in calls]

    def layer_pass():
        from negcurve import cli, total_bound

        verdicts = []
        for kind, argv, _ in calls:
            clear_caches()
            out = io.StringIO()
            with tracer.span("cli.command_s." + kind), contextlib.redirect_stdout(out):
                code = cli.main(argv)
            verdicts.append(checks[kind]((code, out.getvalue().encode())))
        _lorentz_klein(tracer, docs["valid"]["gram"], docs["valid"]["curves"])
        clear_caches()
        with tracer.span("packing.total_bound_cold"):
            total_bound(docs["bound_n"])
        return verdicts

    return Workload(ops, layer_pass, lambda med: {})


def _lorentz_klein(tracer, gram, classes):
    """Lattice construction, standardize, embed, project and cap_of over a
    family, one span per stage; returns the projected points."""
    from negcurve import QuadraticLattice, Region, cap_of, embed_class, project
    from negcurve.lorentz import standardize

    with tracer.span("lorentz.lattice"):
        lat = QuadraticLattice(gram)
    standardize.cache_clear()
    with tracer.span("lorentz.standardize"):
        standardize(lat)
    with tracer.span("lorentz.embed"):
        vecs = [embed_class(lat, c) for c in classes]
    with tracer.span("klein.project"):
        points = [project(v) for v in vecs]
    with tracer.span("klein.cap_of"):
        caps = [cap_of(p) for p in points if p.region is Region.CYLINDER]
    tracer.count("lorentz.classes", len(classes))
    tracer.count("klein.cylinder_ratio", len(caps) / len(classes))
    return vecs, points, caps


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------
# Why: bulk pair checking in one process, the `conditions` layer used two
# ways.  Exact lattice validation and the probe are vectorized already;
# model validation and the packing reductions are Python double loops.
# A new pair kernel that speeds the loops and slows the vectorized paths
# shows here.  Start-up and import are outside the timed operations.

def pairs(seed: int, workdir: Path, tracer, env: dict, refs: dict,
          lattice_size: int = 400, model_size: int = 300) -> Workload:
    from negcurve import (
        Ball, BallSystem, CapRep, CurveFamily, ModelFamily, QuadraticLattice,
        Region, equivalence_probe, hemisphere_filter, inner, reduce_ii_star,
        validate_family,
    )

    gram, classes, ws = inputs.lattice_family(seed, lattice_size)
    cfam = CurveFamily(QuadraticLattice(gram), classes)
    lat_checked, lat_failures = oracle.lattice_counts(gram, classes)
    norms = [int(w[0] * w[0] - sum(x * x for x in w[1:])) for w in ws]

    zs, ths = inputs.model_caps(seed, model_size)
    mfam = ModelFamily([CapRep(z=tuple(map(float, z)), theta=float(t))
                        for z, t in zip(zs, ths)])
    mod_checked, mod_failures = oracle.model_counts(zs, ths)
    kz, kth = oracle.hemisphere(zs, ths)
    system = BallSystem(
        balls=tuple(Ball(center=tuple(map(float, z)), radius=float(t))
                    for z, t in zip(kz, kth)),
        dist=oracle.angular_distances(kz),
        n=zs.shape[1],
    )
    pack_ref = oracle.packing_counts(kz, kth)
    probe_seed = 5000 + inputs.variant(seed)
    probe_ref = refs["pairs"][str(inputs.variant(seed))]["probe_sha256"]

    # pairs checked and failures found by the last lattice validation
    last_lattice = [0, 0]

    def counts_match(report, checked, failures):
        got = {c: 0 for c in failures}
        for f in report.failures:
            got[f.condition] += 1
        return dict(report.checked) == checked and got == failures

    def lattice():
        with tracer.span("conditions.validate_lattice"):
            return validate_family(cfam)

    def check_lattice(rep):
        last_lattice[:] = [sum(rep.checked.values()), len(rep.failures)]
        return counts_match(rep, lat_checked, lat_failures)

    def embed():
        return _lorentz_klein(tracer, gram, classes)

    def check_embed(out):
        vecs, points, caps = out
        regions_ok = all(
            (p.region is Region.CYLINDER) == (nm < 0)
            and (p.region is Region.BOUNDARY) == (nm == 0)
            for p, nm in zip(points, norms, strict=True)
        )
        norms_ok = all(
            abs(inner(v, v) - nm) <= 1e-9 * max(1.0, float(v @ v))
            for v, nm in zip(vecs, norms, strict=True)
        )
        return regions_ok and norms_ok and len(caps) == sum(nm < 0 for nm in norms)

    def model():
        with tracer.span("conditions.validate_model"):
            rep = validate_family(mfam)
        return rep

    def packing():
        with tracer.span("packing.hemisphere_filter"):
            kept = hemisphere_filter(mfam)
        with tracer.span("packing.reduce_ii_star"):
            reduced = reduce_ii_star(kept)
        with tracer.span("packing.check_valid"):
            bad = system.check_valid()
        tracer.count("packing.kept_ratio", len(kept) / len(mfam))
        return kept, reduced, bad

    def check_packing(out):
        kept, reduced, bad = out
        kinds = {"center-inside": 0, "disjoint-closures": 0}
        for _, _, which in bad:
            kinds[which] += 1
        return (
            [c.theta for c in kept.caps] == [float(t) for t in kth]
            and sum(not ok for _, ok, _ in reduced) == pack_ref["ii_star"]
            and kinds == {k: pack_ref[k] for k in kinds}
        )

    def probe():
        with tracer.span("conditions.probe"):
            rep = equivalence_probe(3, PROBE_SAMPLES, seed=probe_seed)
        tracer.count("conditions.probe_disagreements", rep.total_disagreements)
        return rep

    def check_model(rep):
        tracer.count("conditions.pairs_checked",
                     sum(rep.checked.values()) + last_lattice[0])
        tracer.count("conditions.failures_found",
                     len(rep.failures) + last_lattice[1])
        return counts_match(rep, mod_checked, mod_failures)

    ops = [
        # exact validation spends its time on object-dtype (Python int) arrays
        Op("lattice", lattice, check_lattice, "none used", interpreter_work),
        Op("embed", embed, check_embed, "standardize cleared", interpreter_work),
        Op("model", model, check_model, "none used", interpreter_work),
        Op("packing", packing, check_packing, "none used", interpreter_work),
        Op("probe", probe, lambda rep: digest(rep.to_json_dict()) == probe_ref,
           "none used", array_work),
    ]

    def layer_pass():
        return [op.check(op.run()) for op in ops]

    k_lat, k_mod, k_kept = len(classes), len(ths), len(kth)

    def report(med):
        return {
            "lattice_pairs_per_s": k_lat * (k_lat - 1) / 2 / med["lattice"],
            "model_pairs_per_s": k_mod * (k_mod - 1) / 2 / med["model"],
            # reduce_ii_star visits ordered pairs, check_valid unordered ones
            "packing_pairs_per_s": 1.5 * k_kept * (k_kept - 1) / med["packing"],
            "probe_pairs_per_s": PROBE_SAMPLES / med["probe"],
            "sizes": {"lattice_classes": k_lat, "rank": len(gram),
                      "model_caps": k_mod, "kept_caps": k_kept,
                      "probe_pairs": PROBE_SAMPLES},
        }

    return Workload(ops, layer_pass, report)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------
# Why: certified searches, where the pair predicate `compatible`, the
# bitset clique search and the 60-digit `certify` dominate.  cli-cold
# bypasses all three; import and start-up are outside the timed operations.

def search(seed: int, workdir: Path, tracer, env: dict, refs: dict) -> Workload:
    from negcurve import (
        SearchParams, certify, compatible, exact_max, greedy_max, total_bound,
    )
    from negcurve.search import candidate_caps

    s = inputs.search_seeds(seed)
    sizes_ref = refs["search"][str(inputs.variant(seed))]
    cand_rng = inputs.rng_for(seed, 4)
    cand3 = candidate_caps(
        SearchParams(n=3, candidate_grid=EXACT_N3_GRID, random_candidates=64),
        cand_rng,
    )[:256]
    cand8 = candidate_caps(SearchParams(n=8, random_candidates=240), cand_rng)[:256]
    for n in (3, 6, 8):
        total_bound(n)  # fills the far_bound / fit_constants caches

    def certified(kind, n, call):
        def run():
            with tracer.span("search." + kind):
                res = call()
            with tracer.span("search.certify"):
                cert = certify(res.best.caps)
            return n, res, cert

        return run

    observed: dict[str, int] = {}

    def check(kind):
        def check_result(out):
            n, res, cert = out
            observed[kind] = res.size if cert.valid else 0
            caps = res.best.caps.caps
            zs = np.array([c.z for c in caps])
            ths = np.array([c.theta for c in caps])
            return (
                res.size == len(caps) == sizes_ref[kind]
                and cert.valid and res.best.certificate.valid
                and 2 * n <= res.size <= oracle.total_bound(n)
                and oracle.caps_pairwise_valid(zs, ths)
            )

        return check_result

    plan = [
        ("greedy_n3", "greedy_max", 3,
         lambda: greedy_max(SearchParams(n=3, seed=s["greedy_seed"]))),
        ("greedy_n6", "greedy_max", 6,
         lambda: greedy_max(SearchParams(n=6, seed=s["greedy_seed"]))),
        ("exact_n3", "exact_max", 3, lambda: exact_max(SearchParams(n=3), cand3)),
        ("exact_n8", "exact_max", 8, lambda: exact_max(SearchParams(n=8), cand8)),
    ]
    ops = [Op(kind, certified(layer, n, call), check(kind),
              "far_bound, fit_constants warm from set-up", interpreter_work)
           for kind, layer, n, call in plan]

    def layer_pass():
        outs = [op.run() for op in ops]
        verdicts = [op.check(out) for op, out in zip(ops, outs)]
        sizes = [len(res.best.caps) for _, res, _ in outs]
        tracer.count("search.certified_pairs", sum(k * (k - 1) // 2 for k in sizes))
        tracer.count("search.min_margin", min(c.min_margin for _, _, c in outs))
        params = SearchParams(n=3, seed=s["greedy_seed"])
        with tracer.span("search.candidate_caps"):
            cands = candidate_caps(params, np.random.default_rng(s["greedy_seed"]))
        tracer.count("search.candidates", len(cands))
        # time per call of the public predicate, and the graph it builds
        pairs_ = [(a, b) for i, a in enumerate(cand3) for b in cand3[i + 1:]]
        with tracer.span("search.compatible_all"):
            edges = sum(compatible(a, b) for a, b in pairs_)
        tracer.count("search.edge_density", edges / len(pairs_))
        tracer.count("search.compatible_calls", len(pairs_))
        return verdicts

    def report(med):
        return {
            "greedy_s": (med["greedy_n3"] + med["greedy_n6"]) / 2,
            "exact_s": (med["exact_n3"] + med["exact_n8"]) / 2,
            "certified_size": sum(observed.values()),
            "sizes": {"exact_n3_candidates": len(cand3),
                      "exact_n8_candidates": len(cand8)},
        }

    return Workload(ops, layer_pass, report)


BUILDERS = {"cli-cold": cli_cold, "pairs": pairs, "search": search}
