import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from negcurve import conditions
from negcurve.conditions import (
    CurveFamily,
    ModelFamily,
    cap_arrays,
    equivalence_probe,
    max_norm_on_ray,
    pair_margins,
    positive_combination_witness,
    validate_family,
)
from negcurve.errors import DegenerateCapPairError
from negcurve.klein import CapRep, Region, cap_of, point_of, project
from negcurve.lorentz import QuadraticLattice, embed_class, signature
from negcurve.search import SearchParams, _compatibility_matrix, candidate_caps, compatible

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
    kind, (a, b), val = positive_combination_witness(DIAG3, c1, c2)
    assert kind == "integer" and (a, b) == (1, 1) and val == 2

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
    with pytest.raises(ValueError):
        positive_combination_witness(DIAG3, (1, 0, 0), (0, 1, 0))


def test_witness_real_maximizer():
    # (III) fails, but only on a ratio a/b near sqrt(2) that no a, b <= 50
    # reach, so the witness is the exact real maximizer ray
    n1, n2, h = -(10**8), -2 * 10**8, 141421357
    lat = QuadraticLattice([[n1, h], [h, n2]])
    assert failed(lattice_report(lat, (1, 0), (0, 1)))[(0, 1), "III"] < 0
    assert positive_combination_witness(lat, (1, 0), (0, 1)) == (
        "real", (Fraction(141421357, 10**8), Fraction(1)), Fraction(215721449, 10**8)
    )
    assert positive_combination_witness(lat, (0, 1), (1, 0)) == (
        "real", (Fraction(141421357, 2 * 10**8), Fraction(1)), Fraction(215721449, 2 * 10**8)
    )


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
        if holds:
            assert not positive, (n1, n2, h)
        else:
            witness = positive_combination_witness(lat, c1, c2)
            assert witness is not None and witness[2] > 0


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
    adj = _compatibility_matrix(caps)
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
        v1, v2 = c1.array(), c2.array()
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
