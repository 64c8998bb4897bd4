import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import del_pezzo_lines
from negcurve.cli import main
from negcurve.conditions import ModelFamily, cap_arrays, pair_margins, validate_family
from negcurve.errors import InvalidFamilyError
from negcurve.klein import CapRep, cap_of, project
from negcurve.packing import (
    Ball,
    BallSystem,
    ball_system_from_points,
    cap_fraction,
    cone_separation_infimum,
    far_bound,
    far_cone_angle,
    fit_constants,
    hemisphere_filter,
    near_bound,
    near_bound_volume,
    normalize_scale,
    far_cap_measure,
    partition,
    reduce_ii_star,
    to_ball_system,
    total_bound,
    verify_cone_separation,
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
# ball systems
# ---------------------------------------------------------------------------

def test_to_ball_system_transcribes_angles():
    sys = to_ball_system(ModelFamily([circle_cap(0.0, HALF), circle_cap(HALF, HALF)]))
    assert sys.dist[0, 1] == pytest.approx(HALF, abs=1e-12)
    assert sys.radii.tolist() == pytest.approx([HALF, HALF])
    assert sys.check_valid() == []


def test_to_ball_system_single_cap():
    sys = to_ball_system(ModelFamily([circle_cap(0.3, 1.0)]))
    assert len(sys) == 1


def test_to_ball_system_rejects_disjoint_pair():
    fam = ModelFamily([circle_cap(0.0, math.pi / 6), circle_cap(HALF, math.pi / 6)])
    with pytest.raises(InvalidFamilyError, match=r"\(0, 1\).*touching"):
        to_ball_system(fam)


def test_to_ball_system_rejects_center_violation():
    fam = ModelFamily([circle_cap(0.0, math.pi / 3), circle_cap(0.2, math.pi / 3)])
    with pytest.raises(InvalidFamilyError, match=r"\(0, 1\).*center"):
        to_ball_system(fam)


def test_to_ball_system_agrees_with_pair_kernel():
    # distances are the kernel's deltas, and the family is rejected exactly
    # when check_valid() finds a violation, naming the first one
    rng = np.random.default_rng(4242)
    words = {"center-inside": "center", "disjoint-closures": "touching"}
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(2, 5))
        if trial % 2:
            caps = list(random_valid_family(rng, n, pool=12).caps)
        else:
            caps = small_caps(rng, n, int(rng.integers(2, 6)))
        fam = ModelFamily(caps)
        delta = pair_margins(*cap_arrays(caps))[0]
        np.fill_diagonal(delta, 0.0)
        expected = BallSystem(
            balls=tuple(Ball(center=c.z, radius=c.theta) for c in caps),
            dist=delta,
            n=n,
        ).check_valid()
        if expected:
            i, j, which = expected[0]
            outcomes.add(which)
            with pytest.raises(
                InvalidFamilyError,
                match=rf"^pair \({i}, {j}\) violates the {words[which]} condition",
            ):
                to_ball_system(fam)
        else:
            outcomes.add("valid")
            assert np.array_equal(to_ball_system(fam).dist, delta)
    assert outcomes == {"valid", "center-inside", "disjoint-closures"}


def test_normalize_scale():
    sys = ball_system_from_points([[0.0, 0.0], [4.0, 0.0]], [1.0, 1.5])
    out = normalize_scale(sys)
    assert out.scale == pytest.approx(0.25)
    assert out.min_distance() == pytest.approx(1.0, abs=1e-12)
    assert out.radii.tolist() == pytest.approx([0.25, 0.375])

    already = ball_system_from_points([[0.0], [1.0]], [0.5, 0.5])
    out = normalize_scale(already)
    assert out.min_distance() == pytest.approx(1.0, abs=1e-12)
    assert out.radii.tolist() == pytest.approx([0.5, 0.5])


def test_normalize_scale_errors():
    single = ball_system_from_points([[0.0]], [1.0])
    with pytest.raises(ValueError):
        normalize_scale(single)
    dup = ball_system_from_points([[0.0], [0.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        normalize_scale(dup)


def test_normalize_preserves_validity():
    for _ in range(10):
        k = int(RNG.integers(2, 7))
        caps = []
        base = RNG.uniform(0, 2 * math.pi)
        for i in range(k):
            caps.append(circle_cap(base + i * HALF / (k - 1) + HALF, HALF))
        # build a random valid system instead: points on a circle, radii pi/2
        pts = RNG.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        sys = ball_system_from_points(pts, np.full(k, 2.0))
        if sys.min_distance() <= 0:
            continue
        bad_before = sys.check_valid()
        out = normalize_scale(sys)
        assert out.check_valid() == bad_before  # scale-invariant verdicts
        assert out.min_distance() == pytest.approx(1.0, abs=1e-12)


def test_partition_examples():
    z0 = [0.0, 0.0]
    p1 = [1.0, 0.0]
    p2 = [1.5 * math.cos(1.4), 1.5 * math.sin(1.4)]
    p3 = [3.0, 0.0]
    sys = ball_system_from_points([z0, p1, p2, p3], [0.9] * 4)
    part = partition(sys)
    assert part.pivot == (0, 1)
    assert part.near == (0, 1, 2)
    assert part.far == (3,)


def test_partition_all_near():
    sys = ball_system_from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]], [1.0] * 3)
    part = partition(sys)
    assert part.far == ()
    assert set(part.near) == {0, 1, 2}


def test_partition_boundary_goes_far():
    sys = ball_system_from_points([[0.0], [1.0], [2.0]], [0.4] * 3)
    part = partition(sys)
    assert part.far == (2,)


def test_partition_requires_normalized():
    sys = ball_system_from_points([[0.0], [2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        partition(sys)


def scalar_partition_and_cone(sys):
    """The per-pair reference: the first pair at the minimum distance is
    the pivot, and the far pair subtending the smallest angle at the pivot
    center is the witness."""
    k = len(sys)
    dmin = sys.min_distance()
    pivot = next(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if abs(sys.dist[i, j] - dmin) <= 1e-12
    )
    d0 = sys.dist[pivot[0]]
    far = [i for i in range(k) if d0[i] >= 2.0]
    best = None
    for a, i in enumerate(far):
        for j in far[a + 1 :]:
            dij = sys.dist[i, j]
            cos_ang = (d0[i] * d0[i] + d0[j] * d0[j] - dij * dij) / (2.0 * d0[i] * d0[j])
            ang = math.acos(min(1.0, max(-1.0, cos_ang)))
            if best is None or ang < best[0]:
                best = (ang, (i, j))
    return pivot, tuple(far), best


def test_partition_and_cone_separation_match_scalar_oracle():
    rng = np.random.default_rng(2718)
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(3, 12))
        pts = rng.uniform(-3.0, 3.0, size=(k, n))
        sys = normalize_scale(ball_system_from_points(pts, np.full(k, 0.5)))
        pivot, far, best = scalar_partition_and_cone(sys)
        part = partition(sys)
        assert part.pivot == pivot and part.far == far
        if best is None:
            continue
        compared += 1
        report = verify_cone_separation(sys, part)
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
        if sys.min_distance() < 1e-6:
            continue
        sys = normalize_scale(sys)
        part = partition(sys)
        assert sorted(part.near + part.far) == list(range(k))
        assert set(part.near) & set(part.far) == set()
        again = partition(normalize_scale(sys))
        assert again == part


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


def test_cap_fraction_closed_forms():
    alpha = far_cone_angle() / 2
    assert cap_fraction(2, alpha) == pytest.approx(alpha / math.pi, abs=1e-15)
    assert cap_fraction(3, alpha) == pytest.approx((1 - math.cos(alpha)) / 2, rel=1e-10)
    # S^3 cap measure has the closed form (a - sin a cos a)/pi
    assert cap_fraction(4, alpha) == pytest.approx(
        (alpha - math.sin(alpha) * math.cos(alpha)) / math.pi, rel=1e-10
    )
    assert cap_fraction(1, 1.0) == 0.5


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


def test_far_bound_matches_60_digit_reference():
    assert far_bound(50) == 42477174512562278
    mismatches = [n for n in range(1, 129) if far_bound(n) != reference_far_bound(n)]
    assert mismatches == []


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


def test_cap_fraction_complement_past_right_angle():
    for n in (3, 4, 7, 10):
        for alpha in (0.3, 1.2, math.pi / 2):
            total = cap_fraction(n, alpha) + cap_fraction(n, math.pi - alpha)
            assert total == pytest.approx(1.0, abs=1e-14)
        assert cap_fraction(n, math.pi) == pytest.approx(1.0, abs=1e-14)
    assert cap_fraction(3, 2.0) == pytest.approx((1 - math.cos(2.0)) / 2, rel=1e-12)


def test_import_does_not_load_scipy():
    code = "import sys, negcurve; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_far_bound_monotone():
    vals = [far_bound(n) for n in range(1, 30)]
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
    sys = far_pair_system(1.2)
    part = partition(sys)
    assert part.far == (2, 3)
    report = verify_cone_separation(sys, part)
    assert report.passed
    assert report.min_angle == pytest.approx(1.2, abs=1e-9)
    assert report.min_aperture == pytest.approx(2.4, abs=1e-9)


def test_verify_cone_separation_fails_narrow_pair():
    sys = far_pair_system(0.5)
    part = partition(sys)
    report = verify_cone_separation(sys, part)
    assert not report.passed
    assert report.witness == (2, 3)
    assert report.min_aperture < report.threshold - report.tol


def test_verify_cone_separation_needs_far_balls():
    sys = ball_system_from_points([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    part = partition(sys)
    with pytest.raises(ValueError):
        verify_cone_separation(sys, part)


def test_cone_separation_infimum_matches_analytic():
    angle, aperture, argmin = cone_separation_infimum()
    assert angle == pytest.approx(math.acos(7.0 / 8.0), abs=1e-9)
    assert aperture == pytest.approx(far_cone_angle(), abs=1e-9)
    assert argmin[0] == pytest.approx(2.0, abs=1e-6)
    assert argmin[1] == pytest.approx(2.0, abs=1e-6)


def test_cone_separation_infimum_independent_scan():
    # independent high-precision scan of the constraint envelope
    best = mpmath.mpf(0)
    for k in [mpmath.mpf(2) + mpmath.mpf(i) / 50 for i in range(0, 400)]:
        for r in (k,):  # the diagonal dominates; verified by the 2-d scan above
            f1 = (k * k + 2 * r - 1) / (2 * k * r)
            f2 = (r * r + 2 * k - 1) / (2 * k * r)
            best = max(best, min(f1, f2))
    assert float(best) == pytest.approx(7.0 / 8.0, abs=1e-12)


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
        sys = normalize_scale(to_ball_system(fam))
        part = partition(sys)
        assert len(part.far) <= far_bound(n)
        if len(part.far) < 2:
            return 0
        report = verify_cone_separation(sys, part)
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
#: pair kernel
BOUND_FILE_GOLDENS = {
    4: "40f73e5759eb482a8069664132bba1e8f02db87964b24bf5d3ff3925bdf4c786",
    5: "12d034f7a40f42366ff17a04c7ea713ebcb4094fa434cd4b3d38fd34420dc0ed",
    6: "6453ac8743f53e7fe7b3eb53493ca16f4d18c4734cdb1365b349d046991a18bb",
}


@pytest.mark.parametrize("n", sorted(BOUND_FILE_GOLDENS))
def test_bound_file_golden_on_del_pezzo_lines(tmp_path, capsys, n):
    doc = {"gram": np.diag([1] + [-1] * n).tolist(), "curves": del_pezzo_lines(n)}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_FILE_GOLDENS[n]


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
    assert sys.min_distance() == pytest.approx(1.0, abs=1e-12)
    part = partition(sys)
    assert part.far == (2, 3)
    report = verify_cone_separation(sys, part)
    assert report.passed
    assert report.min_angle == pytest.approx(1.1, abs=1e-9)


def test_valid_far_pair_below_full_cone_constant():
    # a valid system can subtend less than the full cone aperture between
    # far centers; only half the aperture is guaranteed.  This pins the
    # check's semantics: the excluded-cone aperture (twice the subtended
    # angle) is compared against the constant.
    sys = valid_far_pair_system(0.6, 1.05)
    assert sys.check_valid() == []
    part = partition(sys)
    assert part.far == (2, 3)
    report = verify_cone_separation(sys, part)
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
