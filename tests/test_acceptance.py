"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they print.  Criterion 1 is expected to fail; see its assertion message
and the README for the analysis (the cap-overlap condition is strictly
weaker than the positive-combination condition once theta_i + theta_j
exceeds pi, so the two systems genuinely disagree on a positive-measure
set of space-like pairs).
"""

import json
import math
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from conftest import iii_witness, max_norm_on_ray
from negcurve.conditions import (
    CurveFamily,
    equivalence_probe,
    validate_family,
)
from negcurve.klein import CapRep, cap_of, point_of
from negcurve.lorentz import QuadraticLattice, signature
from negcurve.packing import (
    cone_separation_infimum,
    far_cone_angle,
    near_bound,
    total_bound,
)
from negcurve.search import SearchParams, compatible, exact_max, greedy_max

RNG = np.random.default_rng(20240831)


def announce(num: int, passed: bool, detail: str) -> bool:
    state = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {state} - {detail}")
    return passed


# ---------------------------------------------------------------------------
# criterion 1: equivalence suite
# ---------------------------------------------------------------------------

def test_criterion_1_equivalence_suite():
    t0 = time.perf_counter()
    reports = {n: equivalence_probe(n, 100_000, seed=100 + n) for n in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0

    disagreements = {
        n: dict(r.disagreements) for n, r in reports.items()
    }
    total = sum(sum(d.values()) for d in disagreements.values())
    ok = total == 0 and elapsed < 30.0
    announce(
        1,
        ok,
        f"non-boundary disagreements {disagreements} in {elapsed:.1f}s "
        f"(limit 30s)",
    )
    assert elapsed < 30.0
    for n, report in reports.items():
        assert report.disagreements["I/i"] == 0, f"I/i disagreement at n={n}"
        assert report.disagreements["II/ii"] == 0, f"II/ii disagreement at n={n}"
    assert total == 0, (
        "the (III)/(iii) verdicts disagree on random space-like pairs: "
        f"{disagreements}. Every disagreement is one-directional "
        "(positive-combination false, cap-overlap true) and lies in the "
        "large-cap regime theta1 + theta2 > pi, where cap overlap no longer "
        "forces every positive combination to stay non-positive (example: "
        "theta1 = theta2 = 3*pi/4, delta = 2*pi/3 has overlapping caps yet "
        "(c1 + c2)^2 = 1 > 0). The claimed equivalence is only valid for "
        "theta1 + theta2 <= pi; see test_criterion_1_companion_exact_regime."
    )


def test_criterion_1_companion_exact_regime():
    # the equivalences that do hold, verified at the same sample sizes:
    # I<->i and II<->ii everywhere, III->iii everywhere, III<->iii on
    # theta1 + theta2 <= pi (checked within the probe's bookkeeping)
    for n in (2, 3, 4, 5):
        report = equivalence_probe(n, 100_000, seed=300 + n)
        assert report.disagreements["I/i"] == 0
        assert report.disagreements["II/ii"] == 0
        assert report.III_without_iii == 0
        assert report.disagreements["III/iii"] == report.big_cap_disagreements
    announce(
        1,
        True,
        "(companion) I<->i, II<->ii exact; III->iii one-directional; "
        "III<->iii exact on theta1+theta2 <= pi",
    )


def delta_tail(x, n):
    """P(delta > x) for the angle delta between two independent uniform
    directions on S^(n-1), density proportional to sin^(n-2), by the
    reduction formula int_0^x sin^m = -sin^(m-1) x cos x / m
    + (m-1)/m int_0^x sin^(m-2)."""
    m = n - 2
    part, whole = (x, math.pi) if m % 2 == 0 else (1 - np.cos(x), 2.0)
    for k in range(m % 2 + 2, m + 1, 2):
        part = -np.sin(x) ** (k - 1) * np.cos(x) / k + part * (k - 1) / k
        whole = whole * (k - 1) / k
    return 1 - part / whole


def iii_without_III_rate(n, nodes=64):
    """The probability that a probe pair satisfies (iii) but not (III).

    Under the probe's sampler theta = arccos t, with t sqrt(n) Student's t
    on n degrees of freedom conditioned on |t| < 1, so theta has density
    proportional to sin(theta) (1 + cos^2 theta)^(-(n+1)/2) on (0, pi);
    delta is independent of both radii.  The event is theta_1 + theta_2
    > pi and delta > 2 pi - theta_1 - theta_2.  The integrand is smooth
    in (theta_1, theta_2), so a double-precision Gauss-Legendre rule
    over the triangle converges well before ``nodes`` = 64."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = (u + 1) / 2, w / 2

    def density(theta):
        return np.sin(theta) * (1 + np.cos(theta) ** 2) ** (-(n + 1) / 2)

    norm = math.pi * np.sum(w * density(math.pi * u))
    t1 = math.pi * u[:, None]
    t2 = math.pi - t1 * u  # theta_2 in (pi - theta_1, pi)
    inner = t1 * w * density(t2) * delta_tail(2 * math.pi - t1 - t2, n)
    return float(math.pi * np.sum(w[:, None] * density(t1) * inner) / norm**2)


def test_iii_without_III_rate_oracle():
    # at n = 2 the rate is (sqrt 2 - 1)/4; the other counts per 10^5 pairs
    # are nested mpmath quadratures at 20 digits
    assert iii_without_III_rate(2) == pytest.approx((math.sqrt(2) - 1) / 4, rel=1e-12)
    expected = {3: 6333.00, 4: 4313.71, 5: 3058.36, 8: 1162.91}
    for n, count in expected.items():
        assert 1e5 * iii_without_III_rate(n) == pytest.approx(count, abs=0.01)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_probe_iii_without_III_matches_the_exact_rate(n):
    # each pair is drawn independently, so the count is binomial
    samples, p = 100_000, iii_without_III_rate(n)
    sigma = math.sqrt(samples * p * (1 - p))
    for seed in (1, 2, 3):
        count = equivalence_probe(n, samples, seed=seed).iii_without_III
        assert abs(count - samples * p) < 5 * sigma, (n, seed, count, samples * p)


# ---------------------------------------------------------------------------
# criterion 2: cap round trips and the construction identity
# ---------------------------------------------------------------------------

def test_criterion_2_round_trips():
    from negcurve.klein import orth_disc, project

    worst_rt = 0.0
    worst_id = 0.0
    for _ in range(10_000):
        n = int(RNG.integers(2, 5))
        x0 = float(RNG.uniform(-0.9999, 0.9999))
        z = RNG.normal(size=n)
        z /= np.linalg.norm(z)
        c = project(np.concatenate([[x0], z]) * RNG.uniform(0.5, 2.0))

        rep = cap_of(c)
        back = np.array(point_of(rep).coords)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - np.array(c.coords)))))

        rep2 = cap_of(point_of(rep))
        worst_rt = max(
            worst_rt,
            abs(rep2.theta - rep.theta),
            float(np.max(np.abs(np.array(rep2.z) - np.array(rep.z)))),
        )

        disc = orth_disc(c)
        y = np.array(disc.center)
        zb = np.array(disc.foot)
        expected = 1.0 - math.cos(rep.theta)
        worst_id = max(
            worst_id,
            abs(float(np.linalg.norm(y - zb)) - expected),
            abs(float(np.linalg.norm(np.array(c.coords) - zb)) - expected),
        )
    ok = worst_rt < 1e-12 and worst_id < 1e-12
    announce(2, ok, f"round-trip error {worst_rt:.2e}, identity error {worst_id:.2e}")
    assert worst_rt < 1e-12
    assert worst_id < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: ray maximizer against dense grids
# ---------------------------------------------------------------------------

def test_criterion_3_maximizer():
    worst = 0.0
    grid = np.linspace(0.0, 1.5, 150_001)  # step 1e-5 covers a* in (0, 1]
    for _ in range(1000):
        theta_j = float(RNG.uniform(0.01, math.pi - 0.01))
        delta = float(RNG.uniform(math.pi / 2 + 1e-6, math.pi))
        closed = max_norm_on_ray(theta_j, delta)
        vals = (
            -(grid**2)
            - 2.0 * grid * math.cos(delta)
            + math.cos(theta_j) ** 2
            - 1.0
        )
        worst = max(worst, abs(float(vals.max()) - closed.value))
    ok = worst < 1e-9
    announce(3, ok, f"max |grid - closed form| = {worst:.2e} over 1000 draws")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# criterion 4: closed form vs integer grid
# ---------------------------------------------------------------------------

def test_criterion_4_condition_three_vs_brute_force():
    lattices = []
    rng = np.random.default_rng(4444)
    while len(lattices) < 40:
        dim = int(rng.integers(2, 6))
        a = rng.integers(-4, 5, size=(dim, dim))
        g = (a + a.T).tolist()
        if signature(g) == (1, dim - 1, 0):
            lattices.append(QuadraticLattice(g))

    grid = np.arange(1, 51, dtype=np.int64)
    aa = grid[:, None]
    bb = grid[None, :]

    mismatches = 0
    unwitnessed = 0
    done = 0
    while done < 10_000:
        lat = lattices[int(rng.integers(len(lattices)))]
        c1 = rng.integers(-5, 6, size=lat.rank)
        c2 = rng.integers(-5, 6, size=lat.rank)
        if not (np.any(c1) and np.any(c2)):
            continue
        n1, n2 = lat.norm(c1), lat.norm(c2)
        if n1 >= 0 or n2 >= 0:
            continue
        done += 1
        h = lat.pairing(c1, c2)
        q = aa * aa * n1 + 2 * aa * bb * h + bb * bb * n2
        grid_positive = bool(np.any(q > 0))
        report = validate_family(CurveFamily(lat, [c1, c2]))
        holds = all(f.condition != "III" for f in report.failures)
        if holds and grid_positive:
            mismatches += 1
        if not holds:
            # the closed-form witness (h, -n1)/gcd, in plain integers
            (a, b), square = iii_witness(n1, n2, h)
            if not (a > 0 and b > 0 and square > 0):
                unwitnessed += 1
    ok = mismatches == 0 and unwitnessed == 0
    announce(
        4,
        ok,
        f"10000 pairs, {mismatches} closed-form/grid mismatches, "
        f"{unwitnessed} unwitnessed failures",
    )
    assert mismatches == 0
    assert unwitnessed == 0


# ---------------------------------------------------------------------------
# criterion 5: the explicit constants
# ---------------------------------------------------------------------------

def test_criterion_5_constants():
    t0 = time.perf_counter()
    for n in range(1, 33):
        assert near_bound(n) == 2 ** (n + 1)

    with mpmath.workdps(50):
        reference = float(2 * mpmath.atan(mpmath.sqrt(15) / 7))
    angle_err = abs(far_cone_angle() - reference)

    min_angle, aperture, argmin = cone_separation_infimum()
    threshold = far_cone_angle()
    optimizer_ok = aperture >= threshold - 1e-6

    # independent scan of the same constraint system
    ks = np.linspace(2.0, 80.0, 1200)
    kk, rr = np.meshgrid(ks, ks, indexing="ij")
    f1 = (kk * kk + 2 * rr - 1) / (2 * kk * rr)
    f2 = (rr * rr + 2 * kk - 1) / (2 * kk * rr)
    scan_angle = math.acos(min(1.0, float(np.max(np.minimum(f1, f2)))))
    elapsed = time.perf_counter() - t0

    ok = (
        angle_err < 1e-12
        and optimizer_ok
        and 2 * scan_angle >= threshold - 1e-6
        and elapsed < 60.0
    )
    announce(
        5,
        ok,
        f"cone angle err {angle_err:.1e}, optimizer aperture {aperture:.9f} "
        f"vs {threshold:.9f}, {elapsed:.1f}s (limit 60s)",
    )
    assert angle_err < 1e-12
    assert optimizer_ok
    assert 2 * scan_angle >= threshold - 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 6: worked families
# ---------------------------------------------------------------------------

def blowup_family(k: int) -> CurveFamily:
    rank = k + 1
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    classes = []
    for i in range(1, rank):
        cls = [0] * rank
        cls[i] = 1
        classes.append(cls)
    return CurveFamily(QuadraticLattice(gram), classes)


def test_criterion_6_worked_families():
    families = [blowup_family(k) for k in range(1, 101)]
    t0 = time.perf_counter()
    results = [validate_family(fam).overall for fam in families]
    elapsed = time.perf_counter() - t0
    all_valid = all(results)

    dup = validate_family(
        CurveFamily(
            QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            [(0, 1, 0), (0, 1, 0)],
        )
    )
    dup_named = (not dup.overall) and any(
        f.indices == (0, 1) and f.condition == "II" for f in dup.failures
    )

    # pairing 2 with norms -1, -1 violates the positive-combination bound
    third = validate_family(
        CurveFamily(
            QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            [(0, 1, 0), (2, -2, 1)],
        )
    )
    third_named = (not third.overall) and any(
        f.indices == (0, 1) and f.condition == "III" for f in third.failures
    )

    ok = all_valid and elapsed < 1.0 and dup_named and third_named
    announce(
        6,
        ok,
        f"blow-ups k=1..100 validated in {elapsed * 1000:.0f}ms, "
        f"duplicate flagged={dup_named}, overlap flagged={third_named}",
    )
    assert all_valid
    assert elapsed < 1.0
    assert dup_named
    assert third_named


# ---------------------------------------------------------------------------
# criterion 7: search lower bounds and exact-search agreement
# ---------------------------------------------------------------------------

def brute_force_max_clique(caps) -> int:
    k = len(caps)
    compat = [[compatible(caps[i], caps[j]) for j in range(k)] for i in range(k)]
    best = 0

    def extend(clique, cands):
        nonlocal best
        best = max(best, len(clique))
        for pos, v in enumerate(cands):
            if all(compat[v][u] for u in clique):
                extend(clique + [v], cands[pos + 1 :])

    extend([], list(range(k)))
    return best


def test_criterion_7_search_lower_bounds():
    r2 = greedy_max(SearchParams(n=2, seed=20240601, restarts=4))
    r3 = greedy_max(SearchParams(n=3, seed=20240601, restarts=4))
    bounds_ok = (
        r2.size >= 4
        and r3.size >= 6
        and r2.best.certificate.valid
        and r3.best.certificate.valid
    )

    rng = np.random.default_rng(777)
    agree = 0
    params = SearchParams(n=3)
    for _ in range(100):
        count = int(rng.integers(4, 21))
        caps = []
        for _ in range(count):
            z = rng.normal(size=3)
            z /= np.linalg.norm(z)
            theta = (
                math.pi / 2 if rng.random() < 0.5 else float(rng.uniform(0.2, math.pi / 2))
            )
            caps.append(CapRep(z=tuple(z), theta=theta))
        if exact_max(params, caps).size == brute_force_max_clique(caps):
            agree += 1
    ok = bounds_ok and agree == 100
    announce(
        7,
        ok,
        f"n=2 size {r2.size} (>=4), n=3 size {r3.size} (>=6), "
        f"exact==brute on {agree}/100 candidate sets",
    )
    assert bounds_ok
    assert agree == 100


# ---------------------------------------------------------------------------
# criterion 8: bound coherence
# ---------------------------------------------------------------------------

def test_criterion_8_bound_coherence():
    coherent = True
    sizes = {}
    for n in range(2, 7):
        result = greedy_max(SearchParams(n=n, seed=8, restarts=2))
        sizes[n] = result.size
        if total_bound(n).total < result.size:
            coherent = False

    rep = total_bound(2)
    envelope_ok = all(
        rep.u * rep.v ** (n + 1) >= total_bound(n).total for n in range(1, 65)
    )
    ok = coherent and envelope_ok
    announce(
        8,
        ok,
        f"search sizes {sizes} below totals, envelope u={rep.u:.3f} "
        f"v={rep.v:.3f} holds to horizon 64",
    )
    assert coherent
    assert envelope_ok


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports
# ---------------------------------------------------------------------------

def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "negcurve", *args], capture_output=True, text=True
    )


def test_criterion_9_reproducibility(tmp_path):
    doc = tmp_path / "fam.json"
    doc.write_text(
        json.dumps(
            {
                "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                "curves": [[0, 1, 0], [0, 0, 1]],
            }
        )
    )
    checks = []
    for args in (
        ["search", "--n", "3", "--seed", "17", "--restarts", "3"],
        ["probe", "--n", "2", "--samples", "2000", "--seed", "17"],
        ["validate", str(doc)],
        ["bound", "--n", "2"],
    ):
        a, b = run_cli(args), run_cli(args)
        checks.append(a.stdout == b.stdout and a.returncode == b.returncode)
    ok = all(checks)
    announce(9, ok, f"byte-identical stdout for {len(checks)} command pairs")
    assert ok
