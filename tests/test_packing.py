import hashlib
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import ball_system_from_points, del_pezzo_lines
from negcurve import counting
from negcurve.cli import main
from negcurve.conditions import ModelFamily, cap_arrays, pair_margins, validate_family
from negcurve.counting import (
    FAR_COS,
    far_bound,
    far_cap_measure,
    far_cone_angle,
    fit_constants,
    near_bound,
    near_bound_volume,
    total_bound,
)
from negcurve.klein import CapRep, cap_of, project
from negcurve.packing import (
    Ball,
    BallSystem,
    cone_separation_infimum,
    hemisphere_filter,
    reduce_ii_star,
    split_system,
)

RNG = np.random.default_rng(31337)

HALF = math.pi / 2


def square_family():
    return ModelFamily(
        [
            CapRep(z=(1.0, 0.0), theta=HALF),
            CapRep(z=(0.0, 1.0), theta=HALF),
            CapRep(z=(-1.0, 0.0), theta=HALF),
            CapRep(z=(0.0, -1.0), theta=HALF),
        ]
    )


def circle_cap(angle, theta):
    return CapRep(z=(math.cos(angle), math.sin(angle)), theta=theta)


# ---------------------------------------------------------------------------
# hemisphere filter and the reduced center condition
# ---------------------------------------------------------------------------

def test_hemisphere_keeps_small_caps():
    fam = ModelFamily([circle_cap(0.0, math.pi / 3), circle_cap(1.0, math.pi / 4)])
    out = hemisphere_filter(fam)
    assert out.caps == fam.caps


def test_hemisphere_reflects_majority():
    fam = ModelFamily(
        [
            circle_cap(0.0, math.pi / 3),
            circle_cap(1.0, 2 * math.pi / 3),
            circle_cap(2.0, 3 * math.pi / 4),
        ]
    )
    out = hemisphere_filter(fam)
    assert len(out) == 2
    thetas = sorted(c.theta for c in out.caps)
    assert thetas == pytest.approx([math.pi / 4, math.pi / 3], abs=1e-12)
    # feet are unchanged by the reflection
    assert {c.z for c in out.caps} == {fam.caps[1].z, fam.caps[2].z}
    assert len(out) >= math.ceil(len(fam) / 2)


def test_hemisphere_boundary_ties_stay():
    fam = ModelFamily([circle_cap(0.0, HALF), circle_cap(2.0, HALF)])
    out = hemisphere_filter(fam)
    assert out.caps == fam.caps


def test_reduce_ii_star_boundary_and_interior():
    fam = ModelFamily([circle_cap(0.0, HALF), circle_cap(HALF, HALF)])
    verdicts = reduce_ii_star(fam)
    assert all(ok for _, ok, _ in verdicts)  # boundary accepted within tol

    fam = ModelFamily([circle_cap(0.0, math.pi / 4), circle_cap(math.pi / 3, math.pi / 4)])
    verdicts = reduce_ii_star(fam)
    assert all(ok for _, ok, _ in verdicts)

    fam = ModelFamily([circle_cap(0.0, math.pi / 3), circle_cap(0.2, math.pi / 3)])
    verdicts = dict(((i, j), ok) for (i, j), ok, _ in reduce_ii_star(fam))
    assert not verdicts[(0, 1)]


def test_reduce_ii_star_requires_hemisphere():
    fam = ModelFamily([circle_cap(0.0, 2.0)])
    with pytest.raises(ValueError):
        reduce_ii_star(fam)


def test_full_condition_implies_reduced():
    # hemisphere-filtered family passing (ii) passes (ii*)
    count = 0
    while count < 10_000:
        t1, t2 = RNG.uniform(0.05, HALF, size=2)
        gap = RNG.uniform(0.05, math.pi)
        a = circle_cap(0.0, float(t1))
        b = circle_cap(float(gap), float(t2))
        fam = ModelFamily([a, b])
        if any(f.condition == "ii" for f in validate_family(fam).failures):
            continue
        count += 1
        assert all(ok for _, ok, _ in reduce_ii_star(fam))


def small_caps(rng, n, k):
    z = rng.normal(size=(k, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    theta = rng.uniform(0.05, HALF, size=k)
    return [CapRep(z=tuple(map(float, a)), theta=float(t)) for a, t in zip(z, theta)]


def test_reduce_ii_star_matches_scalar_oracle():
    caps = small_caps(np.random.default_rng(12), 3, 40)
    out = reduce_ii_star(ModelFamily(caps))
    expected = []
    for i, a in enumerate(caps):
        for j, b in enumerate(caps):
            if i != j:
                dot = sum(x * y for x, y in zip(a.z, b.z))
                margin = math.acos(min(1.0, max(-1.0, dot))) - a.theta
                expected.append(((i, j), margin >= -1e-9, margin))
    assert [(idx, ok) for idx, ok, _ in out] == [(idx, ok) for idx, ok, _ in expected]
    assert not all(ok for _, ok, _ in out)
    for (_, _, got), (_, _, want) in zip(out, expected):
        assert type(got) is float and got == pytest.approx(want, abs=1e-12)


def test_check_valid_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    caps = small_caps(rng, 3, 40)
    z = np.array([c.z for c in caps])
    dist = np.arccos(np.clip(z @ z.T, -1.0, 1.0))
    # a few exact ties at both bounds of the guard-banded tests
    dist[0, 1] = dist[1, 0] = max(caps[0].theta, caps[1].theta)
    dist[2, 3] = dist[3, 2] = caps[2].theta + caps[3].theta
    system = BallSystem(
        balls=tuple(Ball(center=c.z, radius=c.theta) for c in caps), dist=dist, n=3
    )
    expected = []
    for i in range(40):
        for j in range(i + 1, 40):
            ri, rj = caps[i].theta, caps[j].theta
            if dist[i, j] < max(ri, rj) - 1e-9:
                expected.append((i, j, "center-inside"))
            if dist[i, j] > ri + rj + 1e-9:
                expected.append((i, j, "disjoint-closures"))
    got = system.check_valid()
    assert got == expected
    assert {w for _, _, w in got} == {"center-inside", "disjoint-closures"}
    assert all(type(i) is int and type(j) is int for i, j, _ in got)


# ---------------------------------------------------------------------------
# ball systems and the near/far split
# ---------------------------------------------------------------------------

def min_distance(sys):
    return float(np.min(sys.dist[np.triu_indices(len(sys), 1)]))


def rescaled(sys, f):
    """``sys`` with every distance and radius multiplied by ``f``."""
    return BallSystem(balls=tuple(Ball(center=b.center, radius=f * b.radius)
                                  for b in sys.balls),
                      dist=sys.dist * f, n=sys.n)


def test_normalize_scale():
    sys = ball_system_from_points([[0.0, 0.0], [4.0, 0.0]], [1.0, 1.5])
    assert split_system(sys.dist).scale == 0.25

    already = ball_system_from_points([[0.0], [1.0]], [0.5, 0.5])
    assert split_system(already.dist).scale == 1.0


def test_normalize_scale_errors():
    single = ball_system_from_points([[0.0]], [1.0])
    with pytest.raises(ValueError):
        split_system(single.dist)
    dup = ball_system_from_points([[0.0], [0.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        split_system(dup.dist)


def test_normalize_preserves_validity():
    for _ in range(10):
        k = int(RNG.integers(2, 7))
        pts = RNG.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        sys = ball_system_from_points(pts, np.full(k, 2.0))
        if min_distance(sys) <= 0:
            continue
        out = rescaled(sys, split_system(sys.dist).scale)
        assert out.check_valid() == sys.check_valid()  # scale-invariant verdicts
        assert min_distance(out) == pytest.approx(1.0, abs=1e-12)


def test_partition_examples():
    z0 = [0.0, 0.0]
    p1 = [1.0, 0.0]
    p2 = [1.5 * math.cos(1.4), 1.5 * math.sin(1.4)]
    p3 = [3.0, 0.0]
    sys = ball_system_from_points([z0, p1, p2, p3], [0.9] * 4)
    split = split_system(sys.dist)
    assert split.pivot == (0, 1)
    assert split.near == (0, 1, 2)
    assert split.far == (3,)


def test_partition_all_near():
    sys = ball_system_from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]], [1.0] * 3)
    split = split_system(sys.dist)
    assert split.far == ()
    assert set(split.near) == {0, 1, 2}


def test_partition_boundary_goes_far():
    sys = ball_system_from_points([[0.0], [1.0], [2.0]], [0.4] * 3)
    assert split_system(sys.dist).far == (2,)


def scalar_partition_and_cone(sys):
    """The per-pair reference: rescale to minimum distance 1; the first
    pair at the minimum distance is the pivot, and the far pair subtending
    the smallest angle at the pivot center is the witness."""
    k = len(sys)
    f = 1.0 / min(sys.dist[i, j] for i in range(k) for j in range(i + 1, k))
    dist = [[f * sys.dist[i, j] for j in range(k)] for i in range(k)]
    dmin = min(dist[i][j] for i in range(k) for j in range(i + 1, k))
    pivot = next(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if abs(dist[i][j] - dmin) <= 1e-12
    )
    d0 = dist[pivot[0]]
    far = [i for i in range(k) if d0[i] >= 2.0]
    best = None
    for a, i in enumerate(far):
        for j in far[a + 1 :]:
            dij = dist[i][j]
            cos_ang = (d0[i] * d0[i] + d0[j] * d0[j] - dij * dij) / (2.0 * d0[i] * d0[j])
            ang = math.acos(min(1.0, max(-1.0, cos_ang)))
            if best is None or ang < best[0]:
                best = (ang, (i, j))
    return f, pivot, tuple(far), best


def test_partition_and_cone_separation_match_scalar_oracle():
    rng = np.random.default_rng(2718)
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(3, 12))
        pts = rng.uniform(-3.0, 3.0, size=(k, n))
        sys = ball_system_from_points(pts, np.full(k, 0.5))
        scale, pivot, far, best = scalar_partition_and_cone(sys)
        split = split_system(sys.dist)
        assert split.scale == scale
        assert split.pivot == pivot and split.far == far
        if best is None:
            assert split.cone_separation is None
            continue
        compared += 1
        report = split.cone_separation
        # np.arccos may differ from math.acos in the last ulp; the random
        # points have no tied angles
        assert report.min_angle == pytest.approx(best[0], rel=1e-14)
        assert report.witness == best[1]
    assert compared > 50


def test_partition_exhaustive_disjoint_idempotent():
    for _ in range(50):
        k = int(RNG.integers(2, 9))
        pts = RNG.uniform(-3, 3, size=(k, 2))
        sys = ball_system_from_points(pts, np.full(k, 0.5))
        if min_distance(sys) < 1e-6:
            continue
        split = split_system(sys.dist)
        assert sorted(split.near + split.far) == list(range(k))
        assert set(split.near) & set(split.far) == set()
        again = split_system(rescaled(sys, split.scale).dist)
        assert again.scale == pytest.approx(1.0, abs=1e-12)
        assert (again.pivot, again.near, again.far) == (split.pivot, split.near, split.far)


def test_split_reads_only_the_upper_triangle():
    # the kernel's delta matrix carries arccos(z . z), not 0, on its
    # diagonal; neither the diagonal nor the lower triangle reaches the split
    rng = np.random.default_rng(99)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        pts = rng.uniform(-3, 3, size=(k, 2))
        dist = ball_system_from_points(pts, np.full(k, 0.5)).dist
        noisy = dist + np.tril(rng.uniform(0.0, 5.0, size=(k, k)))
        assert split_system(noisy) == split_system(dist)
    # a plain nested list is a matrix too
    assert split_system([[0.0, 4.0], [4.0, 0.0]]).scale == 0.25


# ---------------------------------------------------------------------------
# counting constants
# ---------------------------------------------------------------------------

def test_near_bound_values():
    assert near_bound(1) == 4
    assert near_bound(2) == 8
    assert near_bound(10) == 2048
    with pytest.raises(ValueError):
        near_bound(0)


def test_near_bound_volume_diagnostic():
    assert near_bound_volume(1) == 5
    assert near_bound_volume(2) == 25
    # the fixed 2^(n+1) is not certified by the volume argument for n >= 2
    assert near_bound(2) < near_bound_volume(2)


def test_far_cone_angle_value():
    phi = far_cone_angle()
    assert math.tan(phi / 2) == pytest.approx(math.sqrt(15) / 7, abs=1e-15)
    # high-precision reference: 1.01072102056831461394262974797...
    assert phi == pytest.approx(1.0107210205683146, abs=1e-12)
    assert phi < math.pi / 2
    # half aperture equals arccos(7/8)
    assert phi / 2 == pytest.approx(math.acos(7.0 / 8.0), abs=1e-14)


def cap_fraction(n, alpha):
    """Normalized surface measure of a spherical cap of angular radius
    ``alpha`` on S^(n-1), by the regularized incomplete beta function:
    I_{sin^2 alpha}((n-1)/2, 1/2) / 2 for alpha <= pi/2 (Li 2011).  The
    oracle for the package's cap measures."""
    if n == 1:
        # S^0 is two points; a cap of radius < pi is a single point
        return 0.5 if alpha < math.pi else 1.0
    with mpmath.workdps(30):
        sin2 = mpmath.sin(mpmath.mpf(alpha)) ** 2
        half = mpmath.betainc(
            mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, sin2, regularized=True
        ) / 2
        # sin^2 is symmetric about pi/2; a cap past it is the complement
        return float(half if alpha <= math.pi / 2 else 1 - half)


def test_cap_fraction_closed_forms():
    alpha = far_cone_angle() / 2
    assert cap_fraction(2, alpha) == pytest.approx(alpha / math.pi, abs=1e-15)
    assert cap_fraction(3, alpha) == pytest.approx((1 - math.cos(alpha)) / 2, rel=1e-10)
    # S^3 cap measure has the closed form (a - sin a cos a)/pi
    assert cap_fraction(4, alpha) == pytest.approx(
        (alpha - math.sin(alpha) * math.cos(alpha)) / math.pi, rel=1e-10
    )
    assert cap_fraction(1, 1.0) == 0.5
    # n = 2 takes the incomplete beta too: I_x(1/2, 1/2) / 2 = arcsin(sqrt(x)) / pi
    for alpha in np.random.default_rng(12).uniform(1e-9, math.pi, 400).tolist():
        assert cap_fraction(2, alpha) == pytest.approx(alpha / math.pi, abs=1e-15)


def test_far_bound_small_dimensions():
    alpha = far_cone_angle() / 2
    assert far_bound(1) == 2
    assert far_bound(2) == math.ceil(math.pi / alpha) == 7
    # cos(alpha) = 7/8 exactly, so the S^2 fraction is exactly 1/16
    assert far_bound(3) == 16


def test_far_bound_monte_carlo_cross_check():
    # estimate the S^3 cap fraction by sampling
    rng = np.random.default_rng(7)
    alpha = far_cone_angle() / 2
    pts = rng.normal(size=(4_000_000, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    frac = float(np.mean(pts[:, 0] >= math.cos(alpha)))
    assert cap_fraction(4, alpha) == pytest.approx(frac, rel=0.01)
    assert far_bound(4) == math.ceil(1.0 / cap_fraction(4, alpha))


def reference_far_bound(n):
    """ceil(1 / sigma_n) at 60 significant digits, from the reduction
    formula int_0^a sin^m = -sin^(m-1) a cos a / m + (m-1)/m int_0^a sin^(m-2)
    over the Wallis integrals; m = n - 2.  The forward recursion cancels
    about n/3 digits, so it runs at 60 + n digits."""
    if n == 1:
        return 2
    m = n - 2
    with mpmath.workdps(60 + n):
        c = mpmath.mpf(7) / 8
        s = mpmath.sqrt(1 - c * c)
        part, whole = (mpmath.acos(c), mpmath.pi) if m % 2 == 0 else (1 - c, mpmath.mpf(2))
        for k in range(m % 2 + 2, m + 1, 2):
            part = -s ** (k - 1) * c / k + part * (k - 1) / k
            whole = whole * (k - 1) / k
        recip = whole / part
        nearest = mpmath.nint(recip)
        if abs(recip - nearest) < mpmath.mpf(10) ** -40:
            return int(nearest)
        return int(mpmath.ceil(recip))


def far_codes():
    """{n: unit directions on S^(n-1)}: 12 equally spaced ones on S^1
    (2*pi/12 = 0.5236 apart) and the 20 dodecahedron vertices on S^2
    (0.7297 apart), both pairwise more than arccos(7/8) = 0.5054 apart."""
    circle = [(math.cos(math.pi * k / 6), math.sin(math.pi * k / 6)) for k in range(12)]
    phi = (1 + math.sqrt(5)) / 2
    dodecahedron = [tuple(v) for v in itertools.product((-1, 1), repeat=3)]
    for a, b in itertools.product((-1 / phi, 1 / phi), (-phi, phi)):
        dodecahedron += [(0, a, b), (a, b, 0), (b, 0, a)]
    return {
        2: np.array(circle),
        3: np.array(dodecahedron) / math.sqrt(3),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_far_codes_are_pairwise_far_apart(n):
    code = far_codes()[n]
    assert code.shape == ({2: 12, 3: 20}[n], n)
    assert np.allclose(np.linalg.norm(code, axis=1), 1)
    cos = code @ code.T
    np.fill_diagonal(cos, -1)
    assert cos.max() < float(FAR_COS)


@pytest.mark.xfail(
    strict=True,
    reason="far_bound counts caps of radius arccos(7/8), that is directions "
    "2*arccos(7/8) apart, not arccos(7/8) apart (ROADMAP item 1)",
)
@pytest.mark.parametrize("n", [2, 3])
def test_far_bound_holds_far_codes(n):
    assert far_bound(n) >= len(far_codes()[n])


def test_far_bound_matches_60_digit_reference():
    # every rank bound --n reaches before its envelope overflows
    assert far_bound(50) == 42477174512562278
    mismatches = [n for n in range(1, 566) if far_bound(n) != reference_far_bound(n)]
    assert mismatches == []


@pytest.mark.parametrize(
    "n, length, leading, sha256",
    [
        (999, 317, "17995903022507162384",
         "4fe5a772a1a7f131885629aa20ff188a9ee3b90d6b490cec6811e0eb17427e05"),
        (1000, 317, "37190775433922988316",
         "e8bba1b023ded1301a48e66d0700967456f78c8e7270062654133e1a3e382882"),
        (1999, 632, "28193093512076912116",
         "271d4dbaf782b4d550b87210fdaa24fa531861450540a93b8141462ed4d9e276"),
        (2000, 632, "58249967049745853456",
         "9c5680caca338e0f7ba52d13054c32680de0e71de6afa096faafe32f64c05a46"),
        (3999, 1262, "48912618270153958754",
         "2d76d581e0b696a84459ee4c5707ff15f6fe153410e76015e95a59714224f6f2"),
        (4000, 1263, "10104610105522276235",
         "b5b3165f4166903a3c42b0e9f5fc0bcc6619a576acb02d4107bd1885ed6309f6"),
    ],
)
def test_far_bound_pinned_at_large_ranks(n, length, leading, sha256):
    # the decimal digits of the values the earlier far_bound gave (mpmath's
    # incomplete beta at even n, the binomial sum of the antiderivative at
    # odd n): their count, the first 20 and the SHA-256 of all
    value = str(far_bound(n))
    assert (len(value), value[:20]) == (length, leading)
    assert hashlib.sha256(value.encode()).hexdigest() == sha256


@pytest.mark.parametrize("n", [2, 4, 50, 564])
def test_far_reciprocal_floor_reports_undecided(n):
    # 2n bits leave the enclosure of 1/sigma_n too wide to floor; the
    # starting precision of far_bound decides it, and so does twice that
    assert counting._far_reciprocal_floor(n, 2 * n) is None
    bits = 64 + 9 * n // 4
    for b in (bits, 2 * bits):
        assert counting._far_reciprocal_floor(n, b) == far_bound(n) - 1


def test_far_bound_doubles_an_undecided_precision(monkeypatch):
    floor, calls = counting._far_reciprocal_floor, []

    def undecided_once(n, bits):
        calls.append(bits)
        return None if len(calls) == 1 else floor(n, bits)

    monkeypatch.setattr(counting, "_far_reciprocal_floor", undecided_once)
    # the cache would skip the call
    assert far_bound.__wrapped__(40) == reference_far_bound(40)
    assert calls == [154, 308]


@pytest.mark.parametrize("bits", [4, 8, 100, 154, 1128, 4000])
def test_atan_series_stays_within_its_error_bound(bits):
    # each series of the even-n enclosure lies within bits/3 + 3 of its
    # value, so pi (two series) and 2S within bits + 6
    one = 1 << bits
    with mpmath.workprec(bits + 64):
        root = mpmath.sqrt(15)
        series = [
            (16 * one // 5, 25, 16 * one * mpmath.atan(mpmath.mpf(1) / 5)),
            (4 * one // 239, 239**2, 4 * one * mpmath.atan(mpmath.mpf(1) / 239)),
            (2 * one, 15, 2 * one * root * mpmath.atan(1 / root)),
        ]
        for power, q, value in series:
            assert abs(counting._atan_series(power, q) - value) < bits / 3 + 3, q


def test_far_cap_measure_is_exact():
    measure = far_cap_measure(3)
    assert isinstance(measure, Fraction)
    assert measure == Fraction(1, 16)
    # S^4: (2 - 3c + c^3) / 4 at c = 7/8
    assert far_cap_measure(5) == Fraction(23, 2048)
    alpha = far_cone_angle() / 2
    for n in (3, 5, 9, 21):
        assert float(far_cap_measure(n)) == pytest.approx(cap_fraction(n, alpha), rel=1e-12)
    with pytest.raises(ValueError):
        far_cap_measure(4)
    # the recurrence equals the antiderivatives summed as fractions
    for n in (*range(3, 130, 2), 511, 1999):
        k = (n - 3) // 2

        def antiderivative(u):
            return sum(Fraction((-1) ** j * math.comb(k, j), 2 * j + 1) * u ** (2 * j + 1)
                       for j in range(k + 1))

        top = antiderivative(Fraction(1))
        assert far_cap_measure(n) == (top - antiderivative(Fraction(7, 8))) / (2 * top), n


def test_cap_fraction_complement_past_right_angle():
    for n in (2, 3, 4, 7, 10):
        for alpha in (0.3, 1.2, math.pi / 2):
            total = cap_fraction(n, alpha) + cap_fraction(n, math.pi - alpha)
            assert total == pytest.approx(1.0, abs=1e-14)
        assert cap_fraction(n, math.pi) == pytest.approx(1.0, abs=1e-14)
    assert cap_fraction(3, 2.0) == pytest.approx((1 - math.cos(2.0)) / 2, rel=1e-12)


def test_import_does_not_load_scipy():
    # the star import loads every submodule of the lazy package
    code = "import sys; from negcurve import *; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_far_bound_monotone():
    # every rank bound --n reports
    vals = [far_bound(n) for n in range(1, 566)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_total_bound_values():
    rep = total_bound(2)
    assert rep.total == 2 * (8 + 7) == 30
    assert rep.rho == 3
    assert rep.hemisphere_factor == 2
    rep1 = total_bound(1)
    assert rep1.total == 2 * (4 + 2) == 12


def test_envelope_constants():
    u, v = fit_constants()
    assert v >= 2.0
    for n in range(1, 65):
        assert u * v ** (n + 1) >= total_bound(n).total
    rep = total_bound(5)
    assert rep.envelope >= rep.total


def test_envelope_constants_hold_exactly():
    # the doubles themselves, read as exact rationals, bound every total
    # at every rank bound --n reports (566 exits 3)
    u, v = fit_constants()
    for n in range(1, 566):
        assert Fraction(u) * Fraction(v) ** (n + 1) >= total_bound(n).total, n


# ---------------------------------------------------------------------------
# cone separation
# ---------------------------------------------------------------------------

def far_pair_system(angle, radius=2.5):
    """Pivot pair at distance 1 plus two far centers subtending ``angle``."""
    pts = [
        [0.0, 0.0],
        [-1.0, 0.0],
        [radius, 0.0],
        [radius * math.cos(angle), radius * math.sin(angle)],
    ]
    return ball_system_from_points(pts, [0.5, 0.5, 1.8, 1.8])


def test_verify_cone_separation_passes_wide_pair():
    split = split_system(far_pair_system(1.2).dist)
    assert split.far == (2, 3)
    report = split.cone_separation
    assert report.passed
    assert report.min_angle == pytest.approx(1.2, abs=1e-9)
    assert report.min_aperture == pytest.approx(2.4, abs=1e-9)


def test_verify_cone_separation_fails_narrow_pair():
    report = split_system(far_pair_system(0.5).dist).cone_separation
    assert not report.passed
    assert report.witness == (2, 3)
    assert report.min_aperture < report.threshold - report.tol


def test_verify_cone_separation_needs_far_balls():
    # no far ball, then one: there is no far pair to check
    none_far = ball_system_from_points([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    one_far = ball_system_from_points([[0.0], [1.0], [2.0]], [0.4] * 3)
    for sys, far in ((none_far, ()), (one_far, (2,))):
        split = split_system(sys.dist)
        assert split.far == far
        assert split.cone_separation is None
        assert "cone_separation" not in split.to_json_dict()


def test_cone_separation_infimum_matches_analytic():
    angle, aperture, argmin = cone_separation_infimum()
    assert angle == math.acos(7.0 / 8.0)
    assert aperture == far_cone_angle()
    assert argmin == (2.0, 2.0)


def test_cone_separation_infimum_independent_scan():
    # a high-precision scan of the constraint envelope over [2, 40]^2
    # finds the closed form's supremum 7/8 at its one maximizer k = r = 2
    grid = [mpmath.mpf(2) + mpmath.mpf(i) / 2 for i in range(77)]
    best, argmax = max(
        (min((k * k + 2 * r - 1) / (2 * k * r), (r * r + 2 * k - 1) / (2 * k * r)), (k, r))
        for k in grid
        for r in grid
    )
    assert best == mpmath.mpf(7) / 8
    assert argmax == (2, 2)
    assert math.cos(cone_separation_infimum()[0]) == pytest.approx(7.0 / 8.0, abs=1e-15)


def random_valid_family(rng, n, pool=24):
    """Small random family passing the pair conditions: greedy selection
    from random caps with theta <= pi/2, against the failed pairs of one
    validation of the whole pool."""
    caps = []
    for _ in range(pool):
        z = rng.normal(size=n)
        z /= np.linalg.norm(z)
        theta = float(rng.uniform(0.3, HALF))
        caps.append(CapRep(z=tuple(z), theta=theta))
    bad = {f.indices for f in validate_family(ModelFamily(caps)).failures}
    chosen = []
    for j in range(len(caps)):
        if all((i, j) not in bad for i in chosen):
            chosen.append(j)
    return ModelFamily([caps[j] for j in chosen])


def test_del_pezzo_line_counts():
    assert [len(del_pezzo_lines(r)) for r in range(2, 8)] == [3, 6, 10, 16, 27, 56]


def test_far_counts_and_cone_separation_on_valid_systems():
    rng = np.random.default_rng(808)
    checked_far = 0

    def check(fam, n):
        split = split_system(pair_margins(*cap_arrays(fam.caps))[0])
        assert len(split.far) <= far_bound(n)
        if len(split.far) < 2:
            return 0
        report = split.cone_separation
        assert report.min_aperture >= report.threshold - 1e-6
        return 1

    for n in (2, 3, 4, 5):
        for _ in range(150):
            fam = random_valid_family(rng, n)
            if len(fam) < 2:
                continue
            checked_far += check(fam, n)
    # these random families stay within distance 2 of the pivot; the del
    # Pezzo lines at n = 4, 5, 6 reach two or more far balls
    for n in (4, 5, 6):
        lines = del_pezzo_lines(n)
        checked_far += check(ModelFamily([cap_of(project(c)) for c in lines]), n)
    assert checked_far > 0


#: sha256 of the `bound --file` stdout on the del Pezzo lines in the
#: identity basis, as recorded before the pipeline moved onto the shared
#: pair kernel; re-recorded when u became 48/49 rounded up, with u and
#: envelope the only fields that moved
BOUND_FILE_GOLDENS = {
    4: "ba9345fc79a78cfef5452ae8d977add2896fc092cb8ef8d84ca3b59257695ded",
    5: "8d1b52a533fbc80fdacada925bc56ce4c9bbaa2433f18964adde90cdac6d36d1",
    6: "5fd20f166e7151f423b46826ff3f533fcf1714d4710c82152700252c5a524d7e",
}


@pytest.mark.parametrize("n", sorted(BOUND_FILE_GOLDENS))
def test_bound_file_golden_on_del_pezzo_lines(tmp_path, capsys, n):
    doc = {"gram": np.diag([1] + [-1] * n).tolist(), "curves": del_pezzo_lines(n)}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_FILE_GOLDENS[n]


def identity_gram(n):
    return np.diag([1] + [-1] * n).tolist()


#: sha256 of the `bound --file` stdout on the pipeline branches the del
#: Pezzo goldens above leave out, recorded before the pipeline became one
#: call and re-recorded with the del Pezzo goldens: (document, sha256)
BOUND_FILE_BRANCH_GOLDENS = {
    # one ball: the pipeline is only hemisphere_kept and balls
    "one-curve": (
        {"gram": identity_gram(2), "curves": [[0, 1, 0]]},
        "c6492bd205b56f6ca17aa6939189e1d6fcdcac7148817e77e94a003298de0c41",
    ),
    # E1, E2, E3: no far ball
    "no-far": (
        {
            "gram": identity_gram(3),
            "curves": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "labels": ["E1", "E2", "E3"],
        },
        "6c9f0f9fd41049f3eae67a13a83b165707d4da9b790d6ab36211e31ccb8d891c",
    ),
    # E1, E2, E3, H-E3-E4, H-E2-E3, H-E1-E3: exactly one far ball
    "one-far": (
        {
            "gram": identity_gram(4),
            "curves": [
                [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                [1, 0, 0, -1, -1], [1, 0, -1, -1, 0], [1, -1, 0, -1, 0],
            ],
        },
        "2061df8fbbd4c8e8128b578138db1902f497c4a0dc4e67675ae359c6b80f1073",
    ),
    # the del Pezzo lines at n = 3: two far balls
    "del-pezzo-3": (
        {"gram": identity_gram(3), "curves": del_pezzo_lines(3)},
        "7ed052d9b07b9d3303d1d13c8cd646860815dbcb14132dd275a396d1c0539141",
    ),
}


@pytest.mark.parametrize("name", sorted(BOUND_FILE_BRANCH_GOLDENS))
def test_bound_file_golden_on_each_pipeline_branch(tmp_path, capsys, name):
    doc, sha = BOUND_FILE_BRANCH_GOLDENS[name]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def valid_far_pair_system(alpha, t):
    """A fully valid four-ball system whose two far centers subtend
    ``alpha`` at the pivot: pivot ball radius just under 1, a min-distance
    partner on the bisector, and two far balls at distance 2."""
    half = alpha / 2.0
    pts = [
        [0.0, 0.0],
        [0.0, 1.0],
        [2.0 * math.sin(-half), 2.0 * math.cos(-half)],
        [2.0 * math.sin(half), 2.0 * math.cos(half)],
    ]
    return ball_system_from_points(pts, [0.999, 0.9, t, t])


def test_valid_system_with_far_pair_passes_cone_check():
    sys = valid_far_pair_system(1.1, 1.2)
    assert sys.check_valid() == []
    split = split_system(sys.dist)
    assert split.scale == pytest.approx(1.0, abs=1e-12)
    assert split.far == (2, 3)
    report = split.cone_separation
    assert report.passed
    assert report.min_angle == pytest.approx(1.1, abs=1e-9)


def test_valid_far_pair_below_full_cone_constant():
    # a valid system can subtend less than the full cone aperture between
    # far centers; only half the aperture is guaranteed.  This pins the
    # check's semantics: the excluded-cone aperture (twice the subtended
    # angle) is compared against the constant.
    sys = valid_far_pair_system(0.6, 1.05)
    assert sys.check_valid() == []
    split = split_system(sys.dist)
    assert split.far == (2, 3)
    report = split.cone_separation
    assert report.min_angle < report.threshold  # below the full constant
    assert report.min_angle > report.threshold / 2 - 1e-9
    assert report.min_aperture == pytest.approx(1.2, abs=1e-9)
    assert report.passed


# ---------------------------------------------------------------------------
# near-region stochastic packing
# ---------------------------------------------------------------------------

def random_sequential_packing(rng, n, restarts):
    """Greedy random packings of spacing-1 points in the open radius-2 ball,
    always containing the origin; returns the best count.

    Each restart offers 40 uniform candidates in turn and keeps a candidate
    inside the ball at distance >= 1 from every point kept so far.  The
    restarts run side by side; the one draw of shape (restarts, 40, n) is
    the stream of per-candidate draws in order.
    """
    cands = rng.uniform(-2.0, 2.0, size=(restarts, 40, n))
    pts = np.zeros((restarts, 41, n))  # slot 0 holds the origin
    count = np.ones(restarts, dtype=int)
    for t in range(40):
        cand = cands[:, t]
        inside = np.linalg.norm(cand, axis=1) < 2.0
        used = count.max()
        apart = np.linalg.norm(pts[:, :used] - cand[:, None, :], axis=2) >= 1.0
        empty = np.arange(used) >= count[:, None]
        keep = inside & np.all(apart | empty, axis=1)
        pts[keep, count[keep]] = cand[keep]
        count += keep
    return int(count.max())


def test_near_packing_respects_volume_bound():
    rng = np.random.default_rng(99)
    for n in (1, 2):
        found = random_sequential_packing(rng, n, 20_000)
        assert found <= near_bound_volume(n)
        if n == 1:
            # provable: at most 3 points fit once the origin is included
            assert found <= 3 < near_bound(1)


def test_near_fixed_count_exceeded_in_dimension_two():
    # explicit 10-point configuration: origin plus a 9-ring at radius 1.5
    ring = [
        1.5 * np.array([math.cos(2 * math.pi * k / 9), math.sin(2 * math.pi * k / 9)])
        for k in range(9)
    ]
    pts = [np.zeros(2)] + ring
    dists = [
        np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]
    ]
    assert min(dists) >= 1.0
    assert all(np.linalg.norm(p) < 2.0 for p in pts)
    assert len(pts) > near_bound(2)
    assert len(pts) <= near_bound_volume(2)
