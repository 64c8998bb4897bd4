import math

import numpy as np
import pytest

from negcurve.conditions import (
    CurveFamily,
    ModelFamily,
    check_I,
    check_II,
    check_III,
    check_i,
    check_ii,
    check_iii,
    cap_arrays,
    equivalence_probe,
    max_norm_on_ray,
    pair_margins,
    positive_combination_witness,
    validate_family,
)
from negcurve.errors import DegenerateCapPairError
from negcurve.klein import CapRep, cap_of, point_of, project
from negcurve.lorentz import QuadraticLattice, embed_class, signature
from negcurve.search import SearchParams, candidate_caps

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


# ---------------------------------------------------------------------------
# exact lattice-level checks
# ---------------------------------------------------------------------------

def test_check_I_examples():
    lat = QuadraticLattice([[1, 0], [0, -1]])
    assert check_I(lat, (0, 1)).holds
    assert check_I(lat, (0, 1)).margin == 1
    assert not check_I(lat, (1, 0)).holds
    assert check_I(DIAG3, (1, -1, -1)).holds
    assert check_I(DIAG3, (1, -1, -1)).value == -1
    with pytest.raises(ValueError):
        check_I(lat, (0, 0))


def test_check_II_examples():
    v = check_II(DIAG3, (0, 1, 0), (0, 0, 1))
    assert v.holds and v.value == 0
    dup = check_II(DIAG3, (0, 1, 0), (0, 1, 0))
    assert not dup.holds and dup.value == -1
    assert check_II(DIAG3, (1, -1, 0), (1, 0, -1)).value == 1


def test_check_III_examples():
    # orthogonal (-1)-classes
    v = check_III(DIAG3, (0, 1, 0), (0, 0, 1))
    assert v.holds and v.value == -1

    # norms -1, -1 with pairing 2: fails, (C1 + C2)^2 = 2 > 0
    c1, c2 = (0, 1, 0), (2, -2, 1)
    assert DIAG3.norm(c1) == -1 and DIAG3.norm(c2) == -1
    assert DIAG3.pairing(c1, c2) == 2
    v = check_III(DIAG3, c1, c2)
    assert not v.holds
    assert v.value == 3  # (n1 n2 - h^2)/n1 = (1 - 4)/(-1)
    assert grid_has_positive(-1, -1, 2)
    kind, (a, b), val = positive_combination_witness(DIAG3, c1, c2)
    assert kind == "integer" and (a, b) == (1, 1) and val == 2

    # boundary case: norms -2, -2, pairing 2 -> supremum exactly 0
    c1, c2 = (0, 1, 1), (0, -1, -1)
    assert DIAG3.norm(c1) == -2 and DIAG3.pairing(c1, c2) == 2
    v = check_III(DIAG3, c1, c2)
    assert v.holds and v.value == 0
    assert not grid_has_positive(-2, -2, 2)


def test_check_III_negative_pairing_branch():
    # large negative pairing: every positive combination stays negative even
    # though the Gram determinant is negative
    c1, c2 = (0, 1, 0), (3, 3, 1)
    n1, n2, h = DIAG3.norm(c1), DIAG3.norm(c2), DIAG3.pairing(c1, c2)
    assert (n1, n2, h) == (-1, -1, -3)
    assert h * h > n1 * n2
    v = check_III(DIAG3, c1, c2)
    assert v.holds
    assert not grid_has_positive(n1, n2, h)


def test_check_III_requires_negative_classes():
    with pytest.raises(ValueError):
        check_III(DIAG3, (1, 0, 0), (0, 1, 0))


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
        holds = check_III(lat, c1, c2).holds
        positive = grid_has_positive(n1, n2, h)
        if holds:
            assert not positive, (n1, n2, h)
        else:
            witness = positive_combination_witness(lat, c1, c2)
            assert witness is not None and witness[2] > 0


# ---------------------------------------------------------------------------
# model-level checks
# ---------------------------------------------------------------------------

def test_check_i():
    assert check_i(project((0, 1, 0))).holds
    assert not check_i(project((2, 0, 0))).holds
    # a (-1)-class embeds onto the cylinder
    lat = QuadraticLattice([[1, 0], [0, -1]])
    assert check_I(lat, (0, 1)).holds
    assert check_i(project(embed_class(lat, (0, 1)))).holds
    assert check_i(CapRep(z=(1.0, 0.0), theta=0.4)).holds


def test_check_ii_examples():
    half = math.pi / 2
    e1 = CapRep(z=(1.0, 0.0), theta=half)
    e2 = CapRep(z=(0.0, 1.0), theta=half)
    v = check_ii(e1, e2)
    assert v.holds and abs(v.value) < 1e-15

    close = CapRep(z=(math.cos(math.pi / 4), math.sin(math.pi / 4)), theta=half)
    assert not check_ii(e1, close).holds

    third = math.pi / 3
    a = CapRep(z=(1.0, 0.0), theta=third)
    b = CapRep(z=(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)), theta=third)
    v = check_ii(a, b)
    assert v.holds
    assert v.value == pytest.approx(-0.5 - 0.25, abs=1e-12)


def test_check_iii_examples():
    half = math.pi / 2
    v = check_iii(
        CapRep(z=(1.0, 0.0), theta=half), CapRep(z=(-1.0, 0.0), theta=half)
    )
    assert v.holds and abs(v.value) < 1e-12  # boundary

    quarter = math.pi / 4
    v = check_iii(
        CapRep(z=(1.0, 0.0), theta=quarter), CapRep(z=(0.0, 1.0), theta=quarter)
    )
    assert v.holds and abs(v.value) < 1e-12  # equality

    sixth = math.pi / 6
    v = check_iii(
        CapRep(z=(1.0, 0.0), theta=sixth), CapRep(z=(0.0, 1.0), theta=sixth)
    )
    assert not v.holds
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
        verdict = check_iii(a, b).holds
        margin = abs(t1 + t2 - gap)
        if margin > 2 * math.pi / 4096:
            assert verdict == sampled


def test_degenerate_pair_rejected():
    a = CapRep(z=(1.0, 0.0), theta=0.3)
    b = CapRep(z=(1.0, 0.0), theta=0.7)
    with pytest.raises(DegenerateCapPairError):
        check_ii(a, b)
    with pytest.raises(DegenerateCapPairError):
        check_iii(a, b)


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
    """The (indices, condition, holds) records of a model validation, in
    report order: elements first, then pairs row-major with ii before iii."""
    out = [((i,), "i", True) for i in range(len(caps))]
    for i in range(len(caps)):
        for j in range(i + 1, len(caps)):
            _, ii, iii = scalar_pair(caps[i], caps[j], tol)
            out.append(((i, j), "ii", ii[0]))
            out.append(((i, j), "iii", iii[0]))
    return out


def mixed_caps(rng, n, k):
    """Random caps with theta across (0, pi): many pairs have theta > pi/2
    and theta_i + theta_j > pi."""
    z = rng.normal(size=(k, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    theta = rng.uniform(0.05, math.pi - 0.05, size=k)
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
    expected = [r for r in scalar_records(caps) if not r[2]]
    assert [(f.indices, f.condition, f.holds) for f in report.failures] == expected


def test_pair_kernel_matches_oracle_on_large_caps():
    caps = mixed_caps(np.random.default_rng(8), 3, 60)
    thetas = [c.theta for c in caps]
    assert max(thetas) > math.pi / 2
    assert any(a + b > math.pi for a in thetas for b in thetas)
    assert_kernel_matches_oracle(caps)


def test_validate_model_record_order_matches_oracle():
    caps = mixed_caps(np.random.default_rng(9), 4, 25)
    report = validate_family(ModelFamily(caps), collect_all=True)
    records = list(report.verdicts)
    expected = scalar_records(caps)
    assert [(r.indices, r.condition, r.holds) for r in records] == expected
    assert [(f.indices, f.condition, f.holds) for f in report.failures] == [
        r for r in expected if not r[2]
    ]
    assert report.checked == {"i": 25, "ii": 300, "iii": 300}
    assert all(type(r.margin) is float and type(r.holds) is bool for r in records)
    for cond in ("i", "ii", "iii"):
        assert report.min_margins[cond] == min(
            r.margin for r in records if r.condition == cond
        )
    blob = report.to_json_dict()
    assert len(blob["verdicts"]) == 25 + 600


def test_validate_model_degenerate_pair_raises():
    caps = [
        CapRep(z=(0.0, 1.0), theta=1.0),
        CapRep(z=(1.0, 0.0), theta=0.3),
        CapRep(z=(1.0, 0.0), theta=0.7),
    ]
    with pytest.raises(DegenerateCapPairError):
        validate_family(ModelFamily(caps))
    with pytest.raises(DegenerateCapPairError):
        validate_family(ModelFamily(caps), collect_all=True)


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


def test_validate_collect_all_records():
    fam = CurveFamily(BL3, [(0, 1, 0, 0), (0, 0, 1, 0)])
    report = validate_family(fam, collect_all=True)
    records = list(report.verdicts)
    # 2 x I, 1 x II, 1 x III
    assert len(records) == 4
    assert all(r.holds for r in records)
    blob = report.to_json_dict()
    assert len(blob["verdicts"]) == 4


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
        base = (
            check_I(lat, c1).holds,
            check_II(lat, c1, c2).holds,
            check_III(lat, c1, c2).holds,
        )
        k, m = int(RNG.integers(1, 7)), int(RNG.integers(1, 7))
        scaled = (
            check_I(lat, tuple(k * x for x in c1)).holds,
            check_II(lat, tuple(k * x for x in c1), tuple(m * x for x in c2)).holds,
            check_III(lat, tuple(k * x for x in c1), tuple(m * x for x in c2)).holds,
        )
        assert base == scaled
        # model level after standardization agrees on (ii)
        v1 = project(embed_class(lat, c1))
        v2 = project(embed_class(lat, c2))
        if np.allclose(v1.spatial, v2.spatial):
            continue
        model_ii = check_ii(cap_of(v1), cap_of(v2)).holds
        assert model_ii == base[1]


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
