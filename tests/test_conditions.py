import gc
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ball_system_from_points,
    finished_within,
    iii_witness,
    max_norm_on_ray,
)
from negcurve import conditions
from negcurve.conditions import (
    CurveFamily,
    ModelFamily,
    cap_arrays,
    equivalence_probe,
    pair_margins,
    validate_family,
)
from negcurve.errors import DegenerateCapPairError
from negcurve.klein import CapRep, Region, cap_of, point_of, project
from negcurve.lorentz import QuadraticLattice, embed_class, signature
from negcurve.packing import hemisphere_filter, reduce_ii_star
from negcurve.search import SearchParams, _adjacency, candidate_caps, compatible

RNG = np.random.default_rng(2024)

DIAG3 = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
BL3 = QuadraticLattice([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


def grid_has_positive(n1, n2, h, limit=50):
    """Independent oracle: any positive (aC1 + bC2)^2 on the integer grid."""
    a = np.arange(1, limit + 1, dtype=np.int64)
    q = (
        a[:, None] * a[:, None] * n1
        + 2 * a[:, None] * a[None, :] * h
        + a[None, :] * a[None, :] * n2
    )
    return bool(np.any(q > 0))


def failed(report):
    """The failures of a report as {(indices, condition): margin}."""
    return {(f.indices, f.condition): f.margin for f in report.failures}


def lattice_report(lat, *classes):
    return validate_family(CurveFamily(lat, classes))


def model_report(*caps):
    return validate_family(ModelFamily(caps))


# ---------------------------------------------------------------------------
# exact lattice-level conditions on one class or one pair
# ---------------------------------------------------------------------------

def test_check_I_examples():
    lat = QuadraticLattice([[1, 0], [0, -1]])
    report = lattice_report(lat, (0, 1))
    assert report.overall and report.min_margins["I"] == 1
    assert failed(lattice_report(lat, (1, 0))) == {((0,), "I"): -1.0}
    report = lattice_report(DIAG3, (1, -1, -1))
    # the margin is the negated norm -1
    assert report.overall and report.min_margins["I"] == 1
    with pytest.raises(ValueError):
        lattice_report(lat, (0, 0))


def test_check_II_examples():
    report = lattice_report(DIAG3, (0, 1, 0), (0, 0, 1))
    assert report.overall and report.min_margins["II"] == 0
    dup = lattice_report(DIAG3, (0, 1, 0), (0, 1, 0))
    assert failed(dup)[(0, 1), "II"] == -1
    report = lattice_report(DIAG3, (1, -1, 0), (1, 0, -1))
    assert ((0, 1), "II") not in failed(report) and report.min_margins["II"] == 1


def test_check_III_examples():
    # orthogonal (-1)-classes: the supremum is -1
    report = lattice_report(DIAG3, (0, 1, 0), (0, 0, 1))
    assert report.overall and report.min_margins["III"] == 1

    # norms -1, -1 with pairing 2: fails, (C1 + C2)^2 = 2 > 0
    c1, c2 = (0, 1, 0), (2, -2, 1)
    assert DIAG3.norm(c1) == -1 and DIAG3.norm(c2) == -1
    assert DIAG3.pairing(c1, c2) == 2
    # the supremum is (n1 n2 - h^2)/n1 = (1 - 4)/(-1) = 3
    assert failed(lattice_report(DIAG3, c1, c2)) == {((0, 1), "III"): -3.0}
    assert grid_has_positive(-1, -1, 2)
    # the closed-form witness (h, -n1) = (2, 1) has square (-n1)(h^2 - n1 n2) = 3
    assert iii_witness(-1, -1, 2) == ((2, 1), 3)

    # boundary case: norms -2, -2, pairing 2 -> supremum exactly 0
    c1, c2 = (0, 1, 1), (0, -1, -1)
    assert DIAG3.norm(c1) == -2 and DIAG3.pairing(c1, c2) == 2
    report = lattice_report(DIAG3, c1, c2)
    assert ((0, 1), "III") not in failed(report) and report.min_margins["III"] == 0
    assert not grid_has_positive(-2, -2, 2)


def test_check_III_negative_pairing_branch():
    # large negative pairing: every positive combination stays negative even
    # though the Gram determinant is negative
    c1, c2 = (0, 1, 0), (3, 3, 1)
    n1, n2, h = DIAG3.norm(c1), DIAG3.norm(c2), DIAG3.pairing(c1, c2)
    assert (n1, n2, h) == (-1, -1, -3)
    assert h * h > n1 * n2
    assert ((0, 1), "III") not in failed(lattice_report(DIAG3, c1, c2))
    assert not grid_has_positive(n1, n2, h)


def test_check_III_requires_negative_classes():
    # (III) is decided only on pairs of negative classes
    assert lattice_report(DIAG3, (1, 0, 0), (0, 1, 0)).checked["III"] == 0


def test_witness_real_maximizer():
    # (III) fails, and the integer point on the real maximizer ray
    # t* = -h/n1 witnesses it, where a grid of a, b <= 50 finds none
    cases = [
        # only a ratio a/b near sqrt(2) is positive
        (-(10**8), -2 * 10**8, 141421357, ((141421357, 10**8), 21572144900000000)),
        (-2 * 10**8, -(10**8), 141421357, ((141421357, 2 * 10**8), 43144289800000000)),
        # (1001, 1) is itself an integer witness of square 2001
        (-1, -(10**6), 1001, ((1001, 1), 2001)),
    ]
    for n1, n2, h, witness in cases:
        lat = QuadraticLattice([[n1, h], [h, n2]])
        assert failed(lattice_report(lat, (1, 0), (0, 1)))[(0, 1), "III"] < 0
        assert not grid_has_positive(n1, n2, h)
        (a, b), square = iii_witness(n1, n2, h)
        assert ((a, b), square) == witness
        assert math.gcd(a, b) == 1 and lat.norm((a, b)) == square > 0


def test_check_III_against_grid_oracle():
    lattices = []
    while len(lattices) < 12:
        dim = int(RNG.integers(2, 6))
        a = RNG.integers(-4, 5, size=(dim, dim))
        g = (a + a.T).tolist()
        if signature(g) == (1, dim - 1, 0):
            lattices.append(QuadraticLattice(g))
    done = 0
    while done < 2000:
        lat = lattices[int(RNG.integers(len(lattices)))]
        c1 = RNG.integers(-5, 6, size=lat.rank)
        c2 = RNG.integers(-5, 6, size=lat.rank)
        if not (np.any(c1) and np.any(c2)):
            continue
        n1, n2 = lat.norm(c1), lat.norm(c2)
        if n1 >= 0 or n2 >= 0:
            continue
        done += 1
        h = lat.pairing(c1, c2)
        holds = ((0, 1), "III") not in failed(lattice_report(lat, c1, c2))
        positive = grid_has_positive(n1, n2, h)
        (a, b), square = iii_witness(n1, n2, h)
        if holds:
            assert not positive, (n1, n2, h)
            assert h <= 0 or square <= 0, (n1, n2, h)
        else:
            assert a > 0 and b > 0 and math.gcd(a, b) == 1 and square > 0, (n1, n2, h)


# ---------------------------------------------------------------------------
# model-level conditions on one cap or one pair
# ---------------------------------------------------------------------------

def test_check_i():
    # (i) of a point is its region: the class projects onto the cylinder
    assert project((0, 1, 0)).region is Region.CYLINDER
    assert project((2, 0, 0)).region is not Region.CYLINDER
    # a (-1)-class embeds onto the cylinder
    lat = QuadraticLattice([[1, 0], [0, -1]])
    assert lattice_report(lat, (0, 1)).overall
    assert project(embed_class(lat, (0, 1))).region is Region.CYLINDER
    report = model_report(CapRep(z=(1.0, 0.0), theta=0.4))
    assert report.overall and report.min_margins["i"] > 0


def test_check_ii_examples():
    half = math.pi / 2
    e1 = CapRep(z=(1.0, 0.0), theta=half)
    e2 = CapRep(z=(0.0, 1.0), theta=half)
    report = model_report(e1, e2)
    assert report.overall and abs(report.min_margins["ii"]) < 1e-15

    close = CapRep(z=(math.cos(math.pi / 4), math.sin(math.pi / 4)), theta=half)
    assert ((0, 1), "ii") in failed(model_report(e1, close))

    third = math.pi / 3
    a = CapRep(z=(1.0, 0.0), theta=third)
    b = CapRep(z=(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)), theta=third)
    report = model_report(a, b)
    assert ((0, 1), "ii") not in failed(report)
    assert report.min_margins["ii"] == pytest.approx(0.5 + 0.25, abs=1e-12)


def test_check_iii_examples():
    half = math.pi / 2
    report = model_report(
        CapRep(z=(1.0, 0.0), theta=half), CapRep(z=(-1.0, 0.0), theta=half)
    )
    # boundary
    assert ((0, 1), "iii") not in failed(report) and abs(report.min_margins["iii"]) < 1e-12

    quarter = math.pi / 4
    report = model_report(
        CapRep(z=(1.0, 0.0), theta=quarter), CapRep(z=(0.0, 1.0), theta=quarter)
    )
    # equality
    assert ((0, 1), "iii") not in failed(report) and abs(report.min_margins["iii"]) < 1e-12

    sixth = math.pi / 6
    report = model_report(
        CapRep(z=(1.0, 0.0), theta=sixth), CapRep(z=(0.0, 1.0), theta=sixth)
    )
    assert ((0, 1), "iii") in failed(report)
    # sampled-cap oracle agrees: no common point on a fine circle sweep
    angles = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
    in_a = np.minimum(angles, 2 * math.pi - angles) <= sixth
    rel = np.abs(angles - math.pi / 2)
    in_b = np.minimum(rel, 2 * math.pi - rel) <= sixth
    assert not np.any(in_a & in_b)


def test_cap_intersection_oracle_random():
    for _ in range(300):
        t1, t2 = RNG.uniform(0.05, math.pi - 0.05, size=2)
        gap = RNG.uniform(0.05, math.pi)
        a = CapRep(z=(1.0, 0.0), theta=float(t1))
        b = CapRep(z=(math.cos(gap), math.sin(gap)), theta=float(t2))
        angles = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        da = np.minimum(angles, 2 * math.pi - angles)
        db = np.abs(angles - gap)
        db = np.minimum(db, 2 * math.pi - db)
        sampled = bool(np.any((da <= t1) & (db <= t2)))
        verdict = ((0, 1), "iii") not in failed(model_report(a, b))
        margin = abs(t1 + t2 - gap)
        if margin > 2 * math.pi / 4096:
            assert verdict == sampled


def test_degenerate_pair_rejected():
    a = CapRep(z=(1.0, 0.0), theta=0.3)
    b = CapRep(z=(1.0, 0.0), theta=0.7)
    with pytest.raises(DegenerateCapPairError):
        model_report(a, b)
    with pytest.raises(DegenerateCapPairError):
        model_report(b, a)


def test_coincident_random_feet_are_degenerate():
    # a random unit foot dotted with itself often rounds one ulp below 1,
    # whose arccos is 1.5e-8, so only an exact comparison catches it
    feet = RNG.normal(size=(2000, 3))
    feet /= np.linalg.norm(feet, axis=1, keepdims=True)
    pairs = [
        (CapRep(z=tuple(map(float, z)), theta=0.3), CapRep(z=tuple(map(float, z)), theta=0.7))
        for z in feet
    ]
    for a, b in pairs:
        with pytest.raises(DegenerateCapPairError):
            validate_family(ModelFamily([a, b]))
        assert not compatible(a, b)
    caps = [cap for pair in pairs[:100] for cap in pair]
    adj = _adjacency(*cap_arrays(caps))
    assert not any(adj[2 * i, 2 * i + 1] for i in range(100))


# ---------------------------------------------------------------------------
# the pair kernel against a scalar oracle
# ---------------------------------------------------------------------------

def scalar_pair(a, b, tol=1e-9):
    """Independent oracle: delta and the (ii)/(iii) verdicts and margins of
    one pair, in plain floats; None for coincident feet."""
    dot = sum(x * y for x, y in zip(a.z, b.z))
    delta = math.acos(min(1.0, max(-1.0, dot)))
    if delta <= 1e-12:
        return None
    m_ii = math.cos(a.theta) * math.cos(b.theta) - math.cos(delta)
    m_iii = a.theta + b.theta - delta
    return delta, (m_ii >= -tol, m_ii), (m_iii >= -tol, m_iii)


def scalar_records(caps, tol=1e-9):
    """The (indices, condition, holds, margin) records of a model
    validation, in report order: elements first, then pairs row-major with
    ii before iii."""
    out = [
        ((i,), "i", True, (1 - math.cos(c.theta) ** 2) / (1 + math.cos(c.theta) ** 2))
        for i, c in enumerate(caps)
    ]
    for i in range(len(caps)):
        for j in range(i + 1, len(caps)):
            _, ii, iii = scalar_pair(caps[i], caps[j], tol)
            out.append(((i, j), "ii", *ii))
            out.append(((i, j), "iii", *iii))
    return out


def mixed_caps(rng, n, k, low=0.05, high=math.pi - 0.05):
    """Random caps with theta across (low, high), by default across (0, pi):
    many pairs have theta > pi/2 and theta_i + theta_j > pi."""
    z = rng.normal(size=(k, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    theta = rng.uniform(low, high, size=k)
    return [CapRep(z=tuple(map(float, a)), theta=float(t)) for a, t in zip(z, theta)]


def assert_kernel_matches_oracle(caps):
    arrays = pair_margins(*cap_arrays(caps))
    for a in arrays:
        assert np.array_equal(a, a.T)
    # the diagonal carries no meaning
    delta, m_ii, m_iii = (a.tolist() for a in arrays)
    for i in range(len(caps)):
        for j in range(i + 1, len(caps)):
            ref = scalar_pair(caps[i], caps[j])
            if ref is None:
                assert delta[i][j] <= 1e-12
                continue
            assert (m_ii[i][j] >= -1e-9) == ref[1][0]
            assert (m_iii[i][j] >= -1e-9) == ref[2][0]
            # arccos magnifies the last bit of a dot product near +-1 to
            # ~1.5e-8 (feet a grid step apart or antipodal); elsewhere
            # the two agree to a few ulps
            near_end = abs(abs(math.cos(ref[0])) - 1.0) < 1e-6
            err = 3e-8 if near_end else 1e-13
            assert abs(delta[i][j] - ref[0]) <= err
            assert abs(m_ii[i][j] - ref[1][1]) <= err
            assert abs(m_iii[i][j] - ref[2][1]) <= err


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", [math.pi / 12, math.pi / 10, math.pi / 8, 0.3])
def test_pair_kernel_matches_oracle_on_candidate_sets(n, grid):
    # the theta = pi/2 grids are full of exact ties at the guard band
    caps = candidate_caps(SearchParams(n=n, candidate_grid=grid), np.random.default_rng(3))
    assert_kernel_matches_oracle(caps)
    report = validate_family(ModelFamily(caps))
    expected = [r[:2] for r in scalar_records(caps) if not r[2]]
    assert [(f.indices, f.condition) for f in report.failures] == expected


def test_pair_kernel_matches_oracle_on_large_caps():
    caps = mixed_caps(np.random.default_rng(8), 3, 60)
    thetas = [c.theta for c in caps]
    assert max(thetas) > math.pi / 2
    assert any(a + b > math.pi for a in thetas for b in thetas)
    assert_kernel_matches_oracle(caps)


def test_validate_model_record_order_matches_oracle():
    caps = mixed_caps(np.random.default_rng(9), 4, 25)
    report = validate_family(ModelFamily(caps))
    expected = scalar_records(caps)
    failed = [r for r in expected if not r[2]]
    assert failed
    assert [(f.indices, f.condition) for f in report.failures] == [r[:2] for r in failed]
    assert report.checked == {"i": 25, "ii": 300, "iii": 300}
    assert all(type(f.margin) is float for f in report.failures)
    for f, r in zip(report.failures, failed):
        assert f.margin == pytest.approx(r[3], abs=1e-13)
    for cond in ("i", "ii", "iii"):
        assert report.min_margins[cond] == pytest.approx(
            min(r[3] for r in expected if r[1] == cond), abs=1e-13
        )


def report_digest(reports) -> str:
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of validate_family(ModelFamily(caps)).to_json_dict() as recorded
# when the (i) margins were computed cap by cap in scalar floats
MODEL_REPORT_GOLDEN = [
    # (seed, n, k, theta range, sha256)
    (101, 2, 12, (0.05, math.pi - 0.05),
     "3e21234efe12842accd90fc45977e1678081d7ed451dc87d0131fa235c4abc8b"),
    (102, 3, 40, (0.05, math.pi - 0.05),
     "58e07b7b982b00dc35fa871c45d299aea1439580190aabbb1188dc077b7ad9d3"),
    (103, 5, 25, (math.pi / 2, math.pi - 0.01),
     "413fb15c3f1de9707120720a315e53af2f0705e6e61d67f0a2458487d21e7614"),
]


@pytest.mark.parametrize(
    "seed, n, k, span, sha", MODEL_REPORT_GOLDEN, ids=[f"seed{g[0]}" for g in MODEL_REPORT_GOLDEN]
)
def test_validate_model_report_golden(seed, n, k, span, sha):
    caps = mixed_caps(np.random.default_rng(seed), n, k, *span)
    report = validate_family(ModelFamily(caps))
    assert report.failures and max(c.theta for c in caps) > math.pi / 2
    assert report_digest(report.to_json_dict()) == sha


def test_validate_model_report_golden_valid_and_single_caps():
    big = [CapRep(z=(1.0, 0.0, 0.0), theta=2.0), CapRep(z=(-1.0, 0.0, 0.0), theta=2.5),
           CapRep(z=(0.0, 1.0, 0.0), theta=1.7)]
    report = validate_family(ModelFamily(big))
    assert report.overall
    assert report_digest(report.to_json_dict()) == (
        "02f34d763a65a301ec68be1dc167e06304ad0b6ad929f76fe024621bcc1bfec6"
    )
    # one-cap reports pin the (i) margin of every cap bit for bit
    singles = mixed_caps(np.random.default_rng(104), 3, 3000, 1e-6, math.pi - 1e-6)
    assert report_digest([model_report(c).to_json_dict() for c in singles]) == (
        "ae6dc03ee0843706b2d244d7a3b5457f453e4d3b8149adf546cfb03c889f84d7"
    )


def test_validate_model_degenerate_pair_raises():
    caps = [
        CapRep(z=(0.0, 1.0), theta=1.0),
        CapRep(z=(1.0, 0.0), theta=0.3),
        CapRep(z=(1.0, 0.0), theta=0.7),
    ]
    with pytest.raises(DegenerateCapPairError):
        validate_family(ModelFamily(caps))


def test_validate_model_single_cap():
    report = validate_family(ModelFamily([CapRep(z=(1.0, 0.0), theta=0.4)]))
    assert report.overall
    assert report.checked == {"i": 1, "ii": 0, "iii": 0}
    assert set(report.min_margins) == {"i"}


# ---------------------------------------------------------------------------
# ray maximization
# ---------------------------------------------------------------------------

def ray_norm(a, theta_j, delta):
    """|a c_i + c_j|_H^2 in canonical position, evaluated directly."""
    ci = np.array([0.0, 1.0, 0.0])
    cj = np.array([math.cos(theta_j), math.cos(delta), math.sin(delta)])
    v = a * ci + cj
    return v[0] ** 2 - v[1] ** 2 - v[2] ** 2


def test_max_norm_on_ray_examples():
    r = max_norm_on_ray(math.pi / 2, math.pi / 2)
    assert r.a_star == pytest.approx(0.0, abs=1e-16)
    assert r.value == pytest.approx(-1.0, abs=1e-15)

    r = max_norm_on_ray(math.pi / 3, 3 * math.pi / 4)
    assert r.a_star == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert r.value == pytest.approx(-0.25, abs=1e-12)
    grid = np.linspace(0.0, 100.0, 2_000_001)
    vals = -(grid**2) - 2 * grid * math.cos(3 * math.pi / 4) + math.cos(math.pi / 3) ** 2 - 1
    assert abs(float(vals.max()) - r.value) < 1e-9

    r = max_norm_on_ray(math.pi / 4, math.pi / 2)
    assert r.sup_positive == pytest.approx(math.cos(math.pi / 4) ** 2 - 1, abs=1e-12)
    assert r.sup_positive < 0
    grid = np.linspace(1e-9, 100.0, 1_000_000)
    vals = np.array([ray_norm(a, math.pi / 4, math.pi / 2) for a in grid[:5]])
    assert np.all(vals < 0)


def test_max_norm_on_ray_matches_dense_grid():
    for _ in range(200):
        theta_j = float(RNG.uniform(0.05, math.pi - 0.05))
        delta = float(RNG.uniform(math.pi / 2 + 0.01, math.pi))
        r = max_norm_on_ray(theta_j, delta)
        grid = np.linspace(0.0, 1.5, 300_001)
        vals = -(grid**2) - 2 * grid * math.cos(delta) + math.cos(theta_j) ** 2 - 1
        assert abs(float(vals.max()) - r.value) < 1e-9
        # spot-check the vectorized expression against the direct evaluation
        assert ray_norm(0.3, theta_j, delta) == pytest.approx(
            -(0.3**2) - 0.6 * math.cos(delta) + math.cos(theta_j) ** 2 - 1, abs=1e-12
        )


def test_max_norm_on_ray_range_checks():
    with pytest.raises(ValueError):
        max_norm_on_ray(0.0, 1.0)
    with pytest.raises(ValueError):
        max_norm_on_ray(1.0, 0.0)


# ---------------------------------------------------------------------------
# family validation
# ---------------------------------------------------------------------------

def test_validate_exceptional_family():
    fam = CurveFamily(BL3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    report = validate_family(fam)
    assert report.overall
    assert report.failures == []
    assert report.checked == {"I": 3, "II": 3, "III": 3}


def test_validate_line_minus_two_points():
    fam = CurveFamily(BL3, [(1, -1, -1, 0), (0, 1, 0, 0)])
    report = validate_family(fam)
    assert report.overall
    # pairing is 1 and both norms are -1: boundary of the Gram condition
    assert report.min_margins["III"] == 0.0


def test_validate_duplicate_class_fails():
    fam = CurveFamily(BL3, [(0, 1, 0, 0), (0, 1, 0, 0)])
    report = validate_family(fam)
    assert not report.overall
    assert any(
        f.indices == (0, 1) and f.condition == "II" and f.margin == -1.0
        for f in report.failures
    )


def test_validate_order_independent():
    classes = [(0, 1, 0, 0), (1, -1, -1, 0), (0, 0, 0, 1)]
    base = validate_family(CurveFamily(BL3, classes)).overall
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        shuffled = CurveFamily(BL3, [classes[i] for i in perm])
        assert validate_family(shuffled).overall == base


def test_validate_model_family():
    half = math.pi / 2
    square = ModelFamily(
        [
            CapRep(z=(1.0, 0.0), theta=half),
            CapRep(z=(0.0, 1.0), theta=half),
            CapRep(z=(-1.0, 0.0), theta=half),
            CapRep(z=(0.0, -1.0), theta=half),
        ]
    )
    report = validate_family(square)
    assert report.overall
    assert report.checked == {"i": 4, "ii": 6, "iii": 6}

    bad = ModelFamily(
        [
            CapRep(z=(1.0, 0.0), theta=half),
            CapRep(z=(math.cos(0.3), math.sin(0.3)), theta=half),
        ]
    )
    report = validate_family(bad)
    assert not report.overall
    assert report.failures[0].condition == "ii"


def test_validate_lattice_and_model_agree():
    # embed an exceptional family and validate on both levels
    fam = CurveFamily(BL3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    caps = [cap_of(project(embed_class(BL3, cls))) for cls in fam.classes]
    model = ModelFamily(caps)
    assert validate_family(fam).overall == validate_family(model).overall


def test_validate_empty_family_rejected():
    with pytest.raises(ValueError):
        validate_family(ModelFamily([]))


def test_validate_mixed_dimensions_rejected():
    caps = [CapRep(z=(1.0, 0.0), theta=0.5), CapRep(z=(0.0, 1.0, 0.0), theta=0.5)]
    with pytest.raises(ValueError, match=r"caps of mixed dimension \[2, 3\]"):
        validate_family(ModelFamily(caps))
    with pytest.raises(ValueError, match=r"caps of mixed dimension \[2, 3\]"):
        cap_arrays(caps[::-1])
    z, theta = cap_arrays([])
    assert z.shape == (0, 0) and theta.shape == (0,)


def test_validate_lattice_pair_counts():
    report = validate_family(CurveFamily(BL3, [(0, 1, 0, 0), (0, 0, 1, 0)]))
    assert report.overall
    assert report.checked == {"I": 2, "II": 1, "III": 1}


def lattice_oracle(lat, classes):
    """Independent oracle for a lattice validation, from the Python-int
    norms and pairings: the (indices, condition, margin) failures sorted by
    (indices, condition), the checked counts and the minimum margins.  (III)
    holds iff h <= 0 or h^2 <= n1 n2; its margin is the negated supremum,
    the quotient taken in floats as the report takes it."""
    records = [((i,), "I", lat.norm(c) < 0, float(-lat.norm(c)))
               for i, c in enumerate(classes)]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            c1, c2 = classes[i], classes[j]
            n1, n2, h = lat.norm(c1), lat.norm(c2), lat.pairing(c1, c2)
            records.append(((i, j), "II", h >= 0, float(h)))
            if n1 < 0 and n2 < 0:
                sup = float(max(n1, n2)) if h <= 0 else float(n1 * n2 - h * h) / float(n1)
                records.append(((i, j), "III", h <= 0 or h * h <= n1 * n2, -sup))
    records.sort(key=lambda r: r[:2])
    checked = {c: sum(r[1] == c for r in records) for c in ("I", "II", "III")}
    min_margins = {c: min(r[3] for r in records if r[1] == c) for c in checked if checked[c]}
    return [(r[0], r[1], r[3]) for r in records if not r[2]], checked, min_margins


def assert_lattice_report_matches_oracle(lat, classes):
    report = validate_family(CurveFamily(lat, classes))
    failures, checked, min_margins = lattice_oracle(lat, classes)
    assert [(f.indices, f.condition, f.margin) for f in report.failures] == failures
    assert report.checked == checked
    assert report.min_margins == min_margins
    assert report.overall == (not failures)
    return report


def test_validate_lattice_record_order_matches_oracle():
    rng = np.random.default_rng(81)
    interleaved = 0
    for _ in range(150):
        rank = int(rng.integers(2, 6))
        # a unimodular change of basis of diag(1, -1, ..., -1)
        u = np.eye(rank, dtype=np.int64) + np.triu(rng.integers(-2, 3, (rank, rank)), 1)
        lat = QuadraticLattice((u.T @ np.diag([1] + [-1] * (rank - 1)) @ u).tolist())
        classes = [c for c in rng.integers(-3, 4, (int(rng.integers(1, 9)), rank)).tolist()
                   if any(c)] or [[1] * rank]
        report = assert_lattice_report_matches_oracle(lat, classes)
        # an (I) record right after a pair record
        interleaved += any(
            len(a.indices) == 2 and b.condition == "I"
            for a, b in zip(report.failures, report.failures[1:])
        )
    assert interleaved > 10


def _switch_family(m):
    """Classes with entries up to m on DIAG3, where B = 3 m^2: (m, 0, 0)
    fails (I), pairs with opposite spatial signs fail (II), and pairs with
    a large positive pairing, such as the two with first entry m - 1,
    fail (III)."""
    return [(m, 0, 0), (0, m, m), (0, m, 1 - m), (1, m, m - 1),
            (m - 1, m, 1), (m - 1, 1, m), (3, m, m)]


@pytest.mark.parametrize(
    "classes, dtype, disc_low, disc_high",
    [
        # B^2 just below 2^61: the last families on the int64 side
        (_switch_family(22498), np.int64, -(2**58), 2**59),
        # B^2 just above 2^61
        (_switch_family(22499), object, -(2**58), 2**59),
        # discriminants n_i n_j - h_ij^2 within 0.01% of -2^62 and 2^62
        ([(46341, 0, 0), (0, 32768, 32768), (0, 32768, -32767), (2, 32768, 32767),
          (46340, 32768, 1), (32767, 32768, 1), (32767, 1, 32768), (0, 32767, -32768)],
         object, -0.9999 * 2**62, 0.9999 * 2**62),
        # a true (III) pair, (0, m, m) and (0, m, -m - 1), whose
        # discriminant lies in (2^63, 2^64), where int64 arithmetic wraps
        # it to a negative number
        ([(40000, 0, 0), (0, 40000, 40000), (0, 40000, -40001), (39999, 40000, 1),
          (39999, 1, 40000)], object, -(2**62), 2**63),
    ],
    ids=["int64-edge", "object-edge", "disc-2^62", "disc-past-int64"],
)
def test_validate_lattice_exact_at_the_int64_switch(classes, dtype, disc_low, disc_high):
    assert conditions._pair_matrix(DIAG3, classes).dtype == dtype
    discs = [
        DIAG3.norm(a) * DIAG3.norm(b) - DIAG3.pairing(a, b) ** 2
        for i, a in enumerate(classes) for b in classes[i + 1:]
    ]
    assert min(discs) < disc_low and max(discs) > disc_high
    report = assert_lattice_report_matches_oracle(DIAG3, classes)
    assert {f.condition for f in report.failures} == {"I", "II", "III"}


def bulk_lattice_family(seed, rank, size):
    """``size`` seeded classes of a scrambled I_{1,rank-1}, duplicates
    allowed: the first, the last and every tenth class are time-like or
    null, so (I) fails for them; the rest are negative."""
    rng = np.random.default_rng(seed)
    u = np.eye(rank, dtype=np.int64) + np.triu(rng.integers(-2, 3, (rank, rank)), 1)
    gram = u.T @ np.diag([1] + [-1] * (rank - 1)) @ u
    classes = []
    while len(classes) < size:
        c = rng.integers(-3, 4, rank)
        k = len(classes)
        negative = k % 10 != 9 and 0 < k < size - 1
        if c.any() and (int(c @ gram @ c) < 0) == negative:
            classes.append(c.tolist())
    return CurveFamily(QuadraticLattice(gram.tolist()), classes)


# sha256 of validate_family(bulk_lattice_family(...)).to_json_dict() as
# recorded when the builder sorted its records by a Python key
LATTICE_REPORT_GOLDEN = [
    # (seed, rank, size, sha256)
    (301, 3, 40, "e2128eaf154604786f4e1747b7a3499da5a75bd0e7ae15db515e87bd402948a1"),
    (302, 4, 120, "285d623aed508cfc7d7cbce41e8951e82e27cf08c4b23add19c92cc5e4f4f0ec"),
    (303, 6, 200, "0651f0234727f06ade50fe6cfeec4912e0073ed4e59c5d55fcaa1c11bd4c684a"),
]


@pytest.mark.parametrize(
    "seed, rank, size, sha", LATTICE_REPORT_GOLDEN,
    ids=[f"seed{g[0]}" for g in LATTICE_REPORT_GOLDEN],
)
def test_validate_lattice_report_golden(seed, rank, size, sha):
    report = validate_family(bulk_lattice_family(seed, rank, size))
    assert {f.condition for f in report.failures} == {"I", "II", "III"}
    # element failures at both ends, pair failures in between
    assert report.failures[0].indices == (0,) and report.failures[-1].indices == (size - 1,)
    assert report_digest(report.to_json_dict()) == sha


def sorted_records(names, pairs, elem_margin, elem_ok, margins, ok, checked):
    """Independent oracle for the report builder's record order: the
    element records, then the pair records in (i, j, condition) order,
    then a stable sort by indices."""
    iu, ju = pairs
    bad = np.flatnonzero(~elem_ok)
    records = [((i,), names[0], m) for i, m in zip(bad.tolist(), elem_margin[bad].tolist())]
    p, c = np.divmod(np.flatnonzero(checked & ~ok), 2)
    records += [
        ((i, j), names[1 + col], m)
        for i, j, col, m in zip(iu[p].tolist(), ju[p].tolist(), c.tolist(),
                                margins[p, c].tolist())
    ]
    records.sort(key=lambda r: r[0])
    return records


def test_report_records_match_sorted_oracle(monkeypatch):
    seen = []
    build = conditions._report

    def spy(kind, *args):
        report = build(kind, *args)
        seen.append((kind, report))
        assert report.failures == sorted_records(*args)
        return report

    monkeypatch.setattr(conditions, "_report", spy)
    rng = np.random.default_rng(82)
    families = [
        # no failures
        CurveFamily(BL3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        ModelFamily([CapRep(z=(1.0, 0.0, 0.0), theta=2.0), CapRep(z=(-1.0, 0.0, 0.0), theta=2.5),
                     CapRep(z=(0.0, 1.0, 0.0), theta=1.7)]),
        # only elements fail: time-like classes that pair positively
        CurveFamily(BL3, [(1, 0, 0, 0), (2, 0, 0, 0), (3, 1, 0, 0)]),
        # duplicate classes, with an element failure between them
        CurveFamily(BL3, [(0, 1, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]),
        bulk_lattice_family(83, 5, 60),
    ]
    for _ in range(40):
        rank = int(rng.integers(2, 6))
        classes = rng.integers(-3, 4, (int(rng.integers(1, 30)), rank))
        classes = [c for c in classes.tolist() if any(c)] or [[1] * rank]
        # repeat some classes
        classes += [classes[i] for i in rng.integers(0, len(classes), 3)]
        lat = QuadraticLattice(np.diag([1] + [-1] * (rank - 1)).tolist())
        families.append(CurveFamily(lat, classes))
        families.append(ModelFamily(mixed_caps(rng, int(rng.integers(2, 5)),
                                               int(rng.integers(1, 30)))))
    for fam in families:
        validate_family(fam)
    kinds = [(kind, bool(report.failures)) for kind, report in seen]
    assert {("lattice", False), ("lattice", True), ("model", False), ("model", True)} <= set(kinds)
    assert seen[2][1].failures and {f.condition for f in seen[2][1].failures} == {"I"}
    for _, report in seen:
        for f in report.failures:
            assert type(f.indices) is tuple and all(type(i) is int for i in f.indices)
            assert type(f.condition) is str and type(f.margin) is float


@pytest.mark.parametrize("enabled", [True, False])
def test_record_builders_restore_the_collector_state(enabled):
    # the bulk record builders pause the cyclic collector; the caller's
    # state, on or off, must come back unchanged
    rng = np.random.default_rng(85)
    lattice = bulk_lattice_family(84, 4, 60)
    model = ModelFamily(mixed_caps(rng, 3, 40))
    points = rng.normal(size=(30, 3))
    system = ball_system_from_points(points, rng.uniform(0.1, 2.0, 30))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        calls = [
            lambda: validate_family(lattice).failures,
            lambda: validate_family(model).failures,
            lambda: reduce_ii_star(hemisphere_filter(model)),
            system.check_valid,
        ]
        for call in calls:
            assert call()
            assert gc.isenabled() == enabled
        with conditions._collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() == enabled
        with pytest.raises(ZeroDivisionError):
            with conditions._collector_paused():
                1 / 0
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_verdicts_invariant_under_scaling_and_isometry():
    # scaling classes by positive integers and pushing through a random
    # standardization must not change any verdict
    found = 0
    while found < 20:
        dim = int(RNG.integers(2, 5))
        a = RNG.integers(-4, 5, size=(dim, dim))
        g = (a + a.T).tolist()
        if signature(g) != (1, dim - 1, 0):
            continue
        found += 1
        lat = QuadraticLattice(g)
        c1 = RNG.integers(-4, 5, size=dim)
        c2 = RNG.integers(-4, 5, size=dim)
        if not (np.any(c1) and np.any(c2)):
            continue
        if lat.norm(c1) >= 0 or lat.norm(c2) >= 0:
            continue
        base = set(failed(lattice_report(lat, c1, c2)))
        k, m = int(RNG.integers(1, 7)), int(RNG.integers(1, 7))
        scaled = set(failed(lattice_report(lat, k * c1, m * c2)))
        assert base == scaled
        # model level after standardization agrees on (ii)
        v1 = project(embed_class(lat, c1))
        v2 = project(embed_class(lat, c2))
        if np.allclose(v1.spatial, v2.spatial):
            continue
        model_ii = ((0, 1), "ii") not in failed(model_report(cap_of(v1), cap_of(v2)))
        assert model_ii == (((0, 1), "II") not in base)


# ---------------------------------------------------------------------------
# equivalence probe
# ---------------------------------------------------------------------------

def test_probe_basic_structure():
    report = equivalence_probe(2, 10_000, seed=5)
    assert report.samples == 10_000
    assert set(report.disagreements) == {"I/i", "II/ii", "III/iii"}
    # (I, i) and (II, ii) are identities: no non-boundary disagreements ever
    assert report.disagreements["I/i"] == 0
    assert report.disagreements["II/ii"] == 0
    # the positive-combination condition always implies cap overlap
    assert report.III_without_iii == 0


def test_probe_documents_big_cap_divergence():
    # cap overlap does not imply the positive-combination condition once
    # theta_i + theta_j > pi; every non-boundary disagreement lives there
    report = equivalence_probe(2, 50_000, seed=11)
    assert report.disagreements["III/iii"] == report.big_cap_disagreements
    assert report.iii_without_III >= report.disagreements["III/iii"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_probe_directional_counts_split_the_iii_disagreements(n, seed):
    # every pair whose (III) and (iii) verdicts differ, boundary or not,
    # counts in exactly one direction
    report = equivalence_probe(n, 20_000, seed=seed)
    assert (
        report.iii_without_III + report.III_without_iii
        == report.disagreements["III/iii"] + report.boundary_disagreements["III/iii"]
    )


def test_probe_agrees_in_small_cap_regime():
    # restricted to theta1 + theta2 <= pi the two systems agree exactly;
    # verified pointwise with an independent construction
    for _ in range(2000):
        t1, t2 = RNG.uniform(0.05, math.pi / 2, size=2)
        gap = RNG.uniform(0.05, math.pi)
        c1 = point_of(CapRep(z=(1.0, 0.0), theta=float(t1)))
        c2 = point_of(
            CapRep(z=(math.cos(gap), math.sin(gap)), theta=float(t2))
        )
        v1, v2 = np.array(c1.coords), np.array(c2.coords)
        n1 = v1[0] ** 2 - v1[1] ** 2 - v1[2] ** 2
        n2 = v2[0] ** 2 - v2[1] ** 2 - v2[2] ** 2
        h = v1[0] * v2[0] - v1[1] * v2[1] - v1[2] * v2[2]
        sup = max(n1, n2) if h <= 0 else (n1 * n2 - h * h) / n1
        roman = sup <= 0
        italic = t1 + t2 >= gap
        if abs(t1 + t2 - gap) > 1e-9:
            assert roman == italic


def test_probe_deterministic():
    a = equivalence_probe(3, 5000, seed=42)
    b = equivalence_probe(3, 5000, seed=42)
    assert a.to_json_dict() == b.to_json_dict()


def test_probe_canonical_position_pairing():
    # in canonical position the (II)/(ii) verdicts coincide by the pairing
    # identity H(c_i, c_j) = cos t_i cos t_j - cos delta
    for _ in range(500):
        ti, tj = RNG.uniform(0.05, math.pi - 0.05, size=2)
        d = RNG.uniform(0.05, math.pi - 0.05)
        v1 = np.array([math.cos(ti), 1.0, 0.0])
        v2 = np.array([math.cos(tj), math.cos(d), math.sin(d)])
        h = v1[0] * v2[0] - v1[1] * v2[1] - v1[2] * v2[2]
        model = math.cos(d) - math.cos(ti) * math.cos(tj)
        assert (h >= 0) == (model <= 1e-15) or abs(h) < 1e-12


def test_probe_input_validation():
    with pytest.raises(ValueError):
        equivalence_probe(2, 0)
    with pytest.raises(ValueError):
        equivalence_probe(1, 10)


def test_probe_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        equivalence_probe(2, 10, seed=-1)


def probe_digest(report) -> str:
    blob = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of the probe report as recorded before the probe moved to
# coordinate columns and row blocks; the rewrite must leave every byte.
# Sample counts straddle one block of 2**14 rows; n >= 8 takes numpy's
# pairwise summation over the coordinates.  The example count is
# conditions.PROBE_EXAMPLES, set by the test where it differs from 10.
PROBE_GOLDEN = [
    # (n, samples, seed, examples, sha256)
    (2, 1, 15, 10, "272f00426bc5df3b9c89767154113bbc1792be74de29d7e4782421052d275083"),
    (2, 63, 22, 10, "72cd7c56ad9cf3efa0ec2139fa6e72bd48c00220e7d80faa5dbe8841b348eae8"),
    (2, 16383, 18, 10, "22184f4a381172af78ddcac2c5734bc51fea7e211cef1650a38190f52eb6de47"),
    (2, 16384, 19, 10, "ec6aa2a5d0525eb04000fbecd01de39612f90a240dec10546a19dfdc31faab65"),
    (2, 16385, 20, 10, "28cb8b54e74c1d3010561ac2392882817462568048c7421f70bf2ec326067d5b"),
    (2, 100000, 24, 10, "e2ba290ad6b69ae82e4d9b6017633ba618245c9d0288a527361a10aa1f1b920a"),
    (3, 1, 22, 10, "2ff16fec51b4d783af41c2bb610ab69ecbc50ad95bd160a69b1e825d40daf40a"),
    (3, 63, 29, 10, "0983e4ea61b687dd7f9a64364cdf8591453c14f730735612eed340dbb71717c9"),
    (3, 16383, 25, 10, "0aa015ee68e63a7bfe8a41107e1ee0e5fd8ef2404b2e05a030b4f96934885b7f"),
    (3, 16384, 26, 10, "b2a4989fbb0e8d65d6c9370441e8aa1bbd62c55a7896b655b451faa692880655"),
    (3, 16385, 27, 10, "4dcae8af4554b85218c4ec9238106cbb31760221dff35a383c8c09d80a9a5d60"),
    (3, 100000, 31, 10, "2ecc35a6df5d132482774387878133456931103b077ea8737f7b791dd2900924"),
    (5, 1, 36, 10, "b9bcdbe6cea9a0080d6ad2c6f5858b64eac94ab41964b4a08ae23865ccd0887a"),
    (5, 63, 43, 10, "783a0cf8343d6b7c40d29f852a877c2922d140f661c4aaede379d5b820b000c1"),
    (5, 16383, 39, 10, "3b4f94fe2daebed9ee4ef8930f94e00b5a115d4449715df747acce0dbc07d9a1"),
    (5, 16384, 40, 10, "efd2c479c8545691590d554966d08a559bde1f367441a1207c8f24c8cc1f0927"),
    (5, 16385, 41, 10, "f8ddd221a36bde0a48c9ae29a80602f27332c014c426e7fc12b92f01d69d9bd8"),
    (5, 100000, 45, 10, "8d8c50ed8a83c00efd1e9c668ebc429a348f5eae0b40746b3aa8321a4f4b4924"),
    (7, 1, 50, 10, "73455e74d92c4bb3459ae68c23d5b5477b1c7066f6e07d5861bc068bf1ebfa34"),
    (7, 63, 57, 10, "faf8dbb2dd4e64873dd62edbfd927b87d8ef6efd22498e609c15b27d33e9b79f"),
    (7, 16383, 53, 10, "be2d52f2392eaff5ab6bdcc20e820245c193799f21d7892eb1b5a6de6f1d2d3d"),
    (7, 16384, 54, 10, "dad11d0cc0f243448a302595040227344ee0e3f163fec8f2b1298014d7e397de"),
    (7, 16385, 55, 10, "ac167b8a448dcf3a06ed9c4826fbcd459743b5b17ba77847461d0475ca035fab"),
    (7, 100000, 59, 10, "0201d977627d7df818ad9204411146537e1aca80ff8417212ecf7f8330bd76ab"),
    (8, 1, 57, 10, "9ca0d1b990f410554a1b80af706a64132eb54f1fd160db048245dbb6f91f3f04"),
    (8, 63, 64, 10, "60c3ff848cce3a463b09a04aa482b8b0a8cb72e3fb6ecc3a64927e2aa000deb3"),
    (8, 16383, 60, 10, "62d381746ff3dc416e7a1ab3d20954fd99dfa6501eedd4b036a29eafc4574106"),
    (8, 16384, 61, 10, "e70dd11267a561c13d790e52b638339c74cd4987355cde66fda28f10590648ec"),
    (8, 16385, 62, 10, "3ad1ee4082315899af7298f0980ba49120c263e019b08f112fdc97294e7f5590"),
    (8, 100000, 66, 10, "9d68766c971a952d04b35dff13ecab54a1a56f4c7eb06c0891ec577479f742dc"),
    (12, 1, 85, 10, "77cea4a277a0d89eb8d351490d6bc66989c2c45f1ed999e7d1b4b6243c412dc9"),
    (12, 63, 92, 10, "263b7ec3cfac6153a5b1e07c189d58f18e43ddc956e24b1993ddc20370277e70"),
    (12, 16383, 88, 10, "7d5126c49f3975fa5d12860b6a7313a21185421d82c937c51a328548aff369c2"),
    (12, 16384, 89, 10, "580f4ccb92a5a8cc65b6ef7f43ad7c1d2debb274d6a54defce95c39e75f11e23"),
    (12, 16385, 90, 10, "df3494c0da330af4b5a26d17c16b307455c423ee7076111b71f1255d2f1755e8"),
    (12, 100000, 94, 10, "f227046e97a8c5fe1a68cae51eb18ba01a54b236cb732a1f4003434da8f8b85a"),
    (2, 100000, 24, 0, "05be5115fd63e1f3491e16908adc81086fbefd98161c991b091bd10ef044ac7c"),
    (2, 100000, 24, 1000, "f811d0d504889fc40a416f04bcceee6f0ad7993e82095d9ef90d96de072b027a"),
    (12, 100000, 94, 1000, "964f56a23be703f69cbb7e85cdbf41e6015b417dddf5e034b51e3c73314dad3a"),
]


@pytest.mark.parametrize(
    "n, samples, seed, examples, sha",
    PROBE_GOLDEN,
    ids=[f"n{n}-s{samples}-m{m}" for n, samples, _, m, _ in PROBE_GOLDEN],
)
def test_probe_report_golden(monkeypatch, n, samples, seed, examples, sha):
    monkeypatch.setattr(conditions, "PROBE_EXAMPLES", examples)
    report = equivalence_probe(n, samples, seed=seed)
    assert probe_digest(report) == sha


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize(
    "n, samples, seed, examples",
    [(2, 3000, 1, 0), (2, 3000, 1, 150), (2, 3000, 1, 10_000), (8, 1500, 4, 10)],
)
def test_probe_report_independent_of_block(monkeypatch, block, n, samples, seed, examples):
    # examples keep the global order, and truncation, across block edges
    monkeypatch.setattr(conditions, "PROBE_EXAMPLES", examples)
    expected = equivalence_probe(n, samples, seed=seed)
    monkeypatch.setattr(conditions, "_PROBE_BLOCK", block)
    report = equivalence_probe(n, samples, seed=seed)
    assert report.to_json_dict() == expected.to_json_dict()
    assert probe_digest(report) == probe_digest(expected)


def kept_vectors(chunks):
    """The vectors that :func:`conditions._sample_spacelike` keeps, as one
    (n + 1, count) column array."""
    return np.concatenate([np.take(cols, keep, axis=1) for cols, keep in chunks], axis=1)


def h_norm_bits(cols):
    """The H-norms of the columns of ``cols`` as :func:`conditions._h_norms`
    computes them, viewed as integers for a bitwise comparison."""
    return conditions._h_norms(cols)[2].view(np.int64)


def round_trip_ii(values):
    """The probe's (ii) value as it was computed before it kept the clipped
    cosines: cos(delta) - cos(theta1) cos(theta2), through arccos and back."""
    return np.cos(values["delta"]) - np.cos(values["theta1"]) * np.cos(values["theta2"])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_probe_ii_from_cosines_matches_round_trip(n, seed):
    # the (ii) verdicts and boundary masks equal the round trip's, and the
    # values differ by far less than the guard band
    samples = 100_000
    rng = np.random.default_rng(seed)
    v1 = kept_vectors(conditions._sample_spacelike(rng, samples, n))
    q1 = h_norm_bits(v1)
    worst = 0.0
    lo = 0
    for cols, keep in conditions._sample_spacelike(rng, samples, n):
        rows = slice(lo, lo + len(keep))
        lo = rows.stop
        v2 = np.take(cols, keep, axis=1)
        values, verdicts = conditions._probe_block(v1[:, rows], v2)
        # a block's norms are the bits of the whole held set's and of the
        # gathered second set's
        assert np.array_equal(values["n1"].view(np.int64), q1[rows])
        assert np.array_equal(values["n2"].view(np.int64), h_norm_bits(v2))
        _, verdict = verdicts["II/ii"]
        every = np.arange(len(keep))
        m_II, m_ii = conditions._probe_margins(values, "II/ii", every)
        old = round_trip_ii(values)
        assert np.array_equal(verdict, old <= conditions.TOL_BOUNDARY)
        near = np.minimum(np.abs(m_II), np.abs(m_ii)) <= conditions.TOL_BOUNDARY
        old_near = np.minimum(np.abs(m_II), np.abs(old)) <= conditions.TOL_BOUNDARY
        assert np.array_equal(near, old_near)
        worst = max(worst, float(np.max(np.abs(-m_ii - old))))
    assert lo == samples
    assert worst <= 1e-14


def whole_round_sample(rng, count, n):
    """The sampler as it was before it streamed: each round drawn as one
    (rows, n + 1) batch, the kept rows copied out and the whole set
    transposed at the end.  The reference for the chunked sampler."""
    rows = np.empty((count, n + 1))
    norms = np.empty(count)
    filled = 0
    while filled < count:
        batch = rng.normal(size=(max(count - filled, 64), n + 1))
        q = np.empty(len(batch))
        for lo in range(0, len(batch), conditions._PROBE_BLOCK):
            cols = batch[lo : lo + conditions._PROBE_BLOCK].T
            q[lo : lo + conditions._PROBE_BLOCK] = (
                cols[0] ** 2 - conditions._coordinate_sum(cols[1:] ** 2)
            )
        keep = np.flatnonzero(q < 0)[: count - filled]
        take = len(keep)
        np.take(batch, keep, axis=0, out=rows[filled : filled + take], mode="clip")
        norms[filled : filled + take] = q[keep]
        filled += take
    return np.ascontiguousarray(rows.T), norms


@pytest.mark.parametrize("block", [1, 7, 1000, conditions._PROBE_BLOCK])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 2**14 - 1, 2**14, 2**14 + 1, 50_000])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_chunked_sampler_reads_the_whole_round_stream(monkeypatch, n, count, block):
    # bit-equal vectors and norms, and the generator left in the same state,
    # so that a second set drawn after the first is unchanged too
    seed = 1000 * n + count
    expected_rng = np.random.default_rng(seed)
    expected_v, expected_q = whole_round_sample(expected_rng, count, n)
    monkeypatch.setattr(conditions, "_PROBE_BLOCK", block)
    rng = np.random.default_rng(seed)
    chunks = list(conditions._sample_spacelike(rng, count, n))
    assert all(
        0 < len(keep) <= cols.shape[1] <= block and len(cols) == n + 1
        for cols, keep in chunks
    )
    v = kept_vectors(chunks)
    assert np.array_equal(v.view(np.int64), expected_v.view(np.int64))
    # the norms the probe takes of the kept vectors are the filter's bits
    assert np.array_equal(h_norm_bits(v), expected_q.view(np.int64))
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def normal_round_chunks(rng, count, n):
    """The chunks that :func:`conditions._sample_spacelike` yields, with
    the indices it keeps: each round drawn whole with ``rng.normal`` and
    cut into ``_PROBE_BLOCK`` rows.  The reference for the sampler's
    ``standard_normal`` draw."""
    filled = 0
    while filled < count:
        batch = rng.normal(size=(max(count - filled, 64), n + 1))
        for lo in range(0, len(batch), conditions._PROBE_BLOCK):
            if filled == count:
                break
            chunk = batch[lo : lo + conditions._PROBE_BLOCK]
            q = chunk[:, 0] ** 2 - np.sum(chunk[:, 1:] ** 2, axis=1)
            keep = np.flatnonzero(q < 0)[: count - filled]
            if len(keep):
                filled += len(keep)
                yield chunk, keep


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_sampler_draws_the_normal_stream(n, seed):
    # every yielded chunk, bit for bit, and the generator left in the same state
    count = 40_000
    expected_rng = np.random.default_rng(seed)
    expected = list(normal_round_chunks(expected_rng, count, n))
    rng = np.random.default_rng(seed)
    chunks = list(conditions._sample_spacelike(rng, count, n))
    assert len(chunks) == len(expected) > 2
    for (cols, keep), (want, want_keep) in zip(chunks, expected):
        assert np.array_equal(cols.T.view(np.int64), want.view(np.int64))
        assert np.array_equal(keep, want_keep)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_sampler_turns_negative_zero_positive():
    # rng.normal returns 0.0 + 1.0 * x, which turns a drawn -0.0 into +0.0
    class NegativeZeros:
        def standard_normal(self, size):
            out = np.full(size, -1.0)
            out[:, 0] = -0.0
            out[::2, 1] = -0.0
            return out

    ((cols, keep),) = conditions._sample_spacelike(NegativeZeros(), 100, 2)
    assert np.array_equal(keep, np.arange(100))
    zeros = cols == 0.0
    assert np.count_nonzero(zeros) == 100 + 50
    assert not np.any(np.signbit(cols[zeros]))
    assert np.all(cols[~zeros] == -1.0)


def sampler_failing_at(chunk, error=None):
    """``_sample_spacelike`` that raises ``error``, by default a
    ``MemoryError``, where it would yield its ``chunk``-th chunk, counted
    over both sample sets (never, when ``chunk`` is None); a list with an
    entry per chunk it yielded; and the threads it raised on."""
    sampler = conditions._sample_spacelike
    drawn = []
    raised_on = []

    def failing(rng, count, n):
        for item in sampler(rng, count, n):
            if len(drawn) == chunk:
                raised_on.append(threading.current_thread())
                raise error or MemoryError("Unable to allocate the next chunk")
            drawn.append(None)
            yield item

    return failing, drawn, raised_on


def probe_block_failing_at(block):
    """``_probe_block`` that raises on its ``block``-th call, after a pause
    in which the worker thread draws as far ahead as it may."""
    evaluate = conditions._probe_block
    calls = []

    def failing(*args):
        if len(calls) == block:
            time.sleep(0.05)
            raise RuntimeError("evaluation failed")
        calls.append(None)
        return evaluate(*args)

    return failing


def probe_joining_its_thread(n, samples, seed):
    """``equivalence_probe``, checked to leave no thread running the moment
    it returns or raises."""
    before = threading.active_count()
    try:
        return equivalence_probe(n, samples, seed=seed)
    finally:
        assert threading.active_count() == before


def test_probe_joins_its_thread_on_return():
    (report,) = finished_within(60, lambda: probe_joining_its_thread(3, 50_000, 1))
    assert report.samples == 50_000


@pytest.mark.parametrize("chunk", [0, 1, 9])
def test_probe_raises_a_background_memory_error(monkeypatch, chunk):
    # the first set has 9 chunks: its first, its second, and the second
    # set's first
    failing, _, raised_on = sampler_failing_at(chunk)
    monkeypatch.setattr(conditions, "_sample_spacelike", failing)
    caller = []

    def probe():
        caller.append(threading.current_thread())
        return probe_joining_its_thread(3, 50_000, 1)

    with pytest.raises(MemoryError, match="next chunk"):
        finished_within(60, probe)
    assert len(raised_on) == 1 and raised_on[0] is not caller[0]


class Halt(BaseException):
    """Not an ``Exception``: a relay that caught only those would lose it,
    and leave the caller waiting."""


def test_probe_raises_a_background_base_exception(monkeypatch):
    failing, _, raised_on = sampler_failing_at(1, Halt("halted on the worker"))
    monkeypatch.setattr(conditions, "_sample_spacelike", failing)
    caller = []

    def probe():
        caller.append(threading.current_thread())
        return probe_joining_its_thread(3, 50_000, 1)

    with pytest.raises(Halt, match="halted on the worker"):
        finished_within(60, probe)
    assert len(raised_on) == 1 and raised_on[0] is not caller[0]


@pytest.mark.parametrize("block", [0, 2])
def test_probe_joins_its_thread_when_evaluation_raises(monkeypatch, block):
    first_set = len(list(conditions._sample_spacelike(np.random.default_rng(1), 50_000, 3)))
    counting, drawn, _ = sampler_failing_at(None)
    monkeypatch.setattr(conditions, "_sample_spacelike", counting)
    monkeypatch.setattr(conditions, "_probe_block", probe_block_failing_at(block))
    with pytest.raises(RuntimeError, match="evaluation failed"):
        finished_within(60, lambda: probe_joining_its_thread(3, 50_000, 1))
    # the caller took the first set and the second set's chunks up to
    # ``block``; the worker, during the pause, drew at most one more
    assert first_set + block + 1 <= len(drawn) <= first_set + block + 2


@pytest.mark.parametrize("n", [2, 3, 8])
def test_probe_report_independent_of_scheduling(n):
    # two probes at once, each with its own background thread, while the
    # interpreter switches threads as often as it can; 40k samples span
    # three blocks
    samples, seeds = 40_000, (7, 8)
    serial = [probe_digest(equivalence_probe(n, samples, seed=seed)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = finished_within(
            120, *(lambda seed=seed: equivalence_probe(n, samples, seed=seed) for seed in seeds)
        )
    finally:
        sys.setswitchinterval(interval)
    assert [probe_digest(report) for report in reports] == serial


def test_probe_memory_holds_one_sample_set():
    # one (n + 1, samples) set, plus block temporaries; its norms are
    # computed again per block, and the second set is evaluated as it is
    # drawn and never held whole
    n, samples = 3, 10**6
    tracemalloc.start()
    try:
        equivalence_probe(n, samples, seed=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n + 1) * samples * 8 + 8 * 2**20


BENCH_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs.json"


@pytest.mark.parametrize("variant", [0, 15])
def test_probe_matches_the_benchmark_digest(variant):
    # the benchmark's pairs workload checks each probe report against these
    # digests (n = 3, 10^6 samples, seed 5000 + variant)
    refs = json.loads(BENCH_REFS.read_text())["pairs"]
    report = equivalence_probe(3, 10**6, seed=5000 + variant)
    assert probe_digest(report) == refs[str(variant)]["probe_sha256"]


@pytest.mark.parametrize("rows", [1, 5, 1000])
def test_coordinate_sum_matches_numpy_rows(rows):
    # the probe's coordinate sums round exactly as numpy's row sums; a numpy
    # release that changes its summation order fails here first
    rng = np.random.default_rng(rows)
    for width in range(1, 34):
        x = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, width))
        x[0, 0] = -0.0
        got = conditions._coordinate_sum(np.ascontiguousarray(x.T))
        assert np.array_equal(got.view(np.int64), np.sum(x, axis=1).view(np.int64)), width
