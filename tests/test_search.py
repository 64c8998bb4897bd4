import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import del_pezzo_lines
from negcurve import search
from negcurve.cli import main
from negcurve.conditions import ModelFamily, PairVerdict, cap_arrays
from negcurve.counting import total_bound
from negcurve.errors import NumericalError
from negcurve.klein import CapRep, cap_of, project
from negcurve.search import (
    MAX_GRID_DIRECTIONS,
    SearchParams,
    _adjacency,
    _grid_directions,
    _grid_size,
    _greedy_clique,
    _greedy_order,
    _max_clique_bitset,
    candidate_caps,
    certify,
    compatible,
    exact_max,
    greedy_max,
)

RNG = np.random.default_rng(555)

HALF = math.pi / 2


def circle_cap(angle, theta=HALF):
    return CapRep(z=(math.cos(angle), math.sin(angle)), theta=theta)


def square_caps():
    # exact feet: the cross-polytope directions on the circle
    return [
        CapRep(z=(1.0, 0.0), theta=HALF),
        CapRep(z=(0.0, 1.0), theta=HALF),
        CapRep(z=(-1.0, 0.0), theta=HALF),
        CapRep(z=(0.0, -1.0), theta=HALF),
    ]


def octahedron_caps():
    out = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            z = [0.0, 0.0, 0.0]
            z[axis] = sign
            out.append(CapRep(z=tuple(z), theta=HALF))
    return out


def brute_force_max_clique(caps):
    """Independent oracle: enumerate every feasible subset recursively."""
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


def test_compatible_examples():
    a, b = circle_cap(0.0), circle_cap(HALF)
    assert compatible(a, b)  # delta = pi/2: both boundary conditions hold

    antipodal = circle_cap(math.pi)
    assert compatible(a, antipodal)  # delta = pi boundary of (iii)

    close = circle_cap(math.pi / 4)
    assert not compatible(a, close)  # fails (ii)

    same_foot = CapRep(z=(1.0, 0.0), theta=0.3)
    assert not compatible(a, same_foot)  # degenerate pair is incompatible


def test_certify_square():
    cert = certify(ModelFamily(square_caps()))
    assert cert.valid
    # boundary pairs: margins are numerically zero
    assert abs(cert.min_margin) < 1e-30 or cert.min_margin >= 0


def test_certify_perturbed_square_fails():
    caps = square_caps()
    # moving z0 by +0.01 rad toward z1 shrinks delta(0,1) below pi/2
    caps[0] = circle_cap(0.01)
    cert = certify(ModelFamily(caps))
    assert not cert.valid
    assert any(
        v.condition == "ii" and set(v.indices) == {0, 1} for v in cert.violations
    )


def test_certify_empty_and_single():
    assert certify(ModelFamily([])).valid
    assert certify(ModelFamily([circle_cap(0.5)])).valid


def _certify_oracle(caps: ModelFamily) -> search.Certificate:
    """:func:`certify` as one mpmath evaluation per pair, each dot product
    a sum of rounded products."""
    import mpmath

    k = len(caps)
    entries = []
    with mpmath.workdps(search.CERTIFY_DPS):
        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        zs = [[mpmath.mpf(x) for x in cap.z] for cap in caps.caps]
        thetas = [
            mpmath.pi / 2 if cap.theta == search.RIGHT_ANGLE else mpmath.mpf(cap.theta)
            for cap in caps.caps
        ]
        cos_t = [mpmath.cos(t) for t in thetas]
        for i in range(k):
            for j in range(i + 1, k):
                dot = mpmath.fsum(a * b for a, b in zip(zs[i], zs[j]))
                dot = max(lo, min(hi, dot))
                delta = mpmath.acos(dot)
                m_ii = cos_t[i] * cos_t[j] - mpmath.cos(delta)
                m_iii = thetas[i] + thetas[j] - delta
                entries.append(PairVerdict((i, j), "ii", float(m_ii)))
                entries.append(PairVerdict((i, j), "iii", float(m_iii)))
    violations = tuple(e for e in entries if e.margin < search.CERTIFY_FLOOR)
    worst = min(entries, key=lambda e: e.margin)
    return search.Certificate(
        valid=not violations,
        digits=search.CERTIFY_DPS,
        min_margin=worst.margin,
        worst=worst,
        violations=violations,
    )


def cross_polytope_caps(n):
    return [CapRep(z=z, theta=search.RIGHT_ANGLE) for z in search._cross_polytope(n)]


def random_feet(rng, k, n):
    z = rng.normal(size=(k, n))
    return [tuple(row) for row in (z / np.linalg.norm(z, axis=1, keepdims=True)).tolist()]


def random_caps(rng, k, n):
    """k caps with random feet and radii in (0.05, pi - 0.05)."""
    thetas = rng.uniform(0.05, math.pi - 0.05, size=k).tolist()
    return [CapRep(z=z, theta=t) for z, t in zip(random_feet(rng, k, n), thetas)]


def _oracle_families():
    rng = np.random.default_rng(2718)
    for n in range(2, 9):
        yield f"cross-polytope-{n}", cross_polytope_caps(n)
    for n, k in ((2, 9), (3, 12), (5, 10), (8, 14)):
        yield f"random-{n}-{k}", random_caps(rng, k, n)
    z = random_feet(rng, 4, 4)
    minus = [tuple(-x for x in f) for f in z]
    yield "repeated-and-antipodal-feet", [
        CapRep(z=z[0], theta=1.1), CapRep(z=z[0], theta=1.1), CapRep(z=z[0], theta=0.4),
        CapRep(z=minus[0], theta=1.1), CapRep(z=z[1], theta=2.0),
        CapRep(z=minus[1], theta=2.0), CapRep(z=minus[1], theta=0.7),
        CapRep(z=z[2], theta=search.RIGHT_ANGLE), CapRep(z=minus[2], theta=search.RIGHT_ANGLE),
    ]
    yield "equal-radii", [CapRep(z=f, theta=0.9) for f in random_feet(rng, 8, 3)] + [
        CapRep(z=f, theta=2.3) for f in random_feet(rng, 5, 3)
    ]
    yield "tiny-component", [
        CapRep(z=(1.0, 1e-200, 0.0), theta=1.2),
        CapRep(z=(0.0, 1.0, 1e-200), theta=1.2),
        CapRep(z=(1e-200, 0.0, -1.0), theta=0.8),
        CapRep(z=(-1.0, -1e-200, 1e-200), theta=search.RIGHT_ANGLE),
    ]
    failing = square_caps()
    failing[0] = circle_cap(0.01)
    yield "perturbed-square", failing
    for n in (3, 5, 8):
        feet = past_unit_feet(rng, n, 3)
        yield f"dots-past-one-{n}", [
            CapRep(z=z, theta=t) for f in feet
            for z, t in ((f, 1.1), (f, 0.7), (tuple(-x for x in f), 2.0))
        ]
    for n in (3, 6):
        yield f"tiny-coordinate-{n}", [
            CapRep(z=f, theta=t)
            for f, t in zip(tiny_last_feet(rng, 10, n), rng.uniform(0.05, 3.0, size=10).tolist())
        ]


def past_unit_feet(rng, n, count):
    """Random unit feet whose dot product with themselves, summed in
    doubles, rounds above 1."""
    feet = []
    while len(feet) < count:
        (z,) = random_feet(rng, 1, n)
        if sum(x * x for x in z) > 1.0:
            feet.append(z)
    return feet


def tiny_last_feet(rng, k, n):
    """Random unit feet whose last coordinate is about 1e-200, too small
    to move the norm of the others."""
    head = random_feet(rng, k, n - 1)
    tail = (rng.normal(size=k) * 1e-200).tolist()
    return [(*f, t) for f, t in zip(head, tail)]


ORACLE_FAMILIES = dict(_oracle_families())


@pytest.mark.parametrize("caps", ORACLE_FAMILIES.values(), ids=ORACLE_FAMILIES.keys())
def test_certify_matches_the_per_pair_oracle(caps):
    fam = ModelFamily(caps)
    cert, expected = certify(fam), _certify_oracle(fam)
    assert cert.to_json_dict() == expected.to_json_dict()
    assert repr(cert) == repr(expected)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_certify_oracle_reaches_the_exact_clamp(n):
    # the exact dots of a foot with itself and with its antipode lie
    # beyond +-1, so certify's clamp of the exact sum is compared
    caps = ORACLE_FAMILIES[f"dots-past-one-{n}"]
    exact = [sum(Fraction(x) * Fraction(y) for x, y in zip(a.z, b.z)) for a, b in zip(caps, caps[1:])]
    assert exact[0] > 1 and exact[1] < -1


def test_certify_precision_makes_every_foot_product_exact():
    # certify rounds each exact dot once, which the oracle's sum of
    # rounded products equals only while the product of two doubles
    # (106 bits) is exact
    import mpmath

    with mpmath.workdps(search.CERTIFY_DPS):
        assert mpmath.mp.prec >= 2 * 53


def _count_trig(monkeypatch):
    import mpmath

    calls = {"acos": 0, "cos": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(mpmath, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(mpmath, name, counted)
    return calls


def test_certify_evaluates_each_pair_geometry_once(monkeypatch):
    calls = _count_trig(monkeypatch)
    cert = certify(ModelFamily(cross_polytope_caps(8)))
    assert cert.valid
    # 120 pairs: dots 0 and -1 at one radius
    assert calls["acos"] <= 2 and calls["cos"] <= 3


@pytest.mark.parametrize("k, n", [(2, 2), (9, 3), (20, 8)])
def test_certify_skips_no_distinct_pair_geometry(monkeypatch, k, n):
    caps = random_caps(np.random.default_rng(k), k, n)
    calls = _count_trig(monkeypatch)
    certify(ModelFamily(caps))
    assert calls["acos"] == k * (k - 1) // 2


def test_greedy_square_bound_n2():
    params = SearchParams(n=2, seed=1, restarts=4, candidate_grid=math.pi / 180)
    result = greedy_max(params)
    assert result.size >= 4
    assert result.best.certificate.valid
    assert result.method == "greedy"
    assert result.size <= total_bound(2).total


def test_greedy_octahedron_bound_n3():
    params = SearchParams(n=3, seed=1, restarts=4)
    result = greedy_max(params)
    assert result.size >= 6
    assert result.best.certificate.valid
    assert result.size <= total_bound(3).total


def test_greedy_deterministic():
    params = SearchParams(n=2, seed=99, restarts=3)
    a = greedy_max(params)
    b = greedy_max(params)
    assert a.to_json_dict() == b.to_json_dict()


def test_greedy_monotone_in_restarts():
    sizes = []
    for restarts in (1, 2, 4, 8):
        params = SearchParams(n=3, seed=7, restarts=restarts)
        sizes.append(greedy_max(params).size)
    assert sizes == sorted(sizes)


def test_greedy_above_counting_bound_is_numerical_error(monkeypatch):
    monkeypatch.setattr(search, "total_bound", lambda n: SimpleNamespace(total=1))
    with pytest.raises(NumericalError, match="above the counting bound 1"):
        greedy_max(SearchParams(n=2, seed=5, restarts=1))
    assert main(["search", "--n", "2", "--restarts", "1"]) == 3


def test_exact_max_square_with_blocker():
    caps = square_caps() + [circle_cap(0.7)]  # within pi/2 of the first cap
    params = SearchParams(n=2)
    result = exact_max(params, caps)
    assert result.size == 4
    assert result.best.certificate.valid
    assert result.size == brute_force_max_clique(caps)


def test_exact_max_octahedron():
    params = SearchParams(n=3)
    result = exact_max(params, octahedron_caps())
    assert result.size == 6


def test_exact_max_single_candidate():
    params = SearchParams(n=2)
    assert exact_max(params, [circle_cap(0.0)]).size == 1


def test_exact_max_cutoff():
    caps = [circle_cap(2 * math.pi * t / 256) for t in range(256)]
    assert exact_max(SearchParams(n=2), caps).size == 4
    with pytest.raises(ValueError, match="257 candidates exceed .* 256; use greedy_max"):
        exact_max(SearchParams(n=2), caps + [circle_cap(0.01)])


def random_candidates(rng, n, count):
    caps = []
    for _ in range(count):
        z = rng.normal(size=n)
        z /= np.linalg.norm(z)
        theta = HALF if rng.random() < 0.5 else float(rng.uniform(0.2, HALF))
        caps.append(CapRep(z=tuple(z), theta=theta))
    return caps


def test_exact_max_matches_brute_force():
    params = SearchParams(n=3)
    for trial in range(25):
        count = int(RNG.integers(4, 15))
        caps = random_candidates(RNG, 3, count)
        assert exact_max(params, caps).size == brute_force_max_clique(caps)


def test_candidate_caps_include_cross_polytope():
    params = SearchParams(n=4, seed=3)
    caps = candidate_caps(params, np.random.default_rng(3))
    axes = {tuple(c.z) for c in caps if c.theta == HALF}
    for axis in range(4):
        for sign in (1.0, -1.0):
            z = [0.0] * 4
            z[axis] = sign
            assert tuple(z) in axes


def test_search_result_json_excludes_elapsed():
    # no timing field, in the result or its report: reruns with the same
    # inputs and seed give the same bytes
    params = SearchParams(n=2, seed=1, restarts=1)
    result = greedy_max(params)
    assert [f.name for f in fields(result)] == ["best", "size", "method"]
    blob = result.to_json_dict()
    assert sorted(blob) == ["caps", "certificate", "method", "size"]
    assert blob["size"] == len(blob["caps"])


# ---------------------------------------------------------------------------
# the compatibility graph against a scalar oracle
# ---------------------------------------------------------------------------

def scalar_compatible(a, b, tol=1e-9):
    """Independent oracle: (ii) and (iii) from one dot product, in plain
    floats; coincident feet are incompatible."""
    dot = sum(x * y for x, y in zip(a.z, b.z))
    delta = math.acos(min(1.0, max(-1.0, dot)))
    if delta <= 1e-12:
        return False
    ok_ii = math.cos(delta) - math.cos(a.theta) * math.cos(b.theta) <= tol
    ok_iii = a.theta + b.theta - delta >= -tol
    return ok_ii and ok_iii


def scalar_graph(caps):
    k = len(caps)
    compat = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            compat[i][j] = compat[j][i] = scalar_compatible(caps[i], caps[j])
    return compat


def adjacency(caps):
    return _adjacency(*cap_arrays(caps))


#: equal radii, and feet that differ only by the sign of a zero
#: coordinate: the greedy order ties them and keeps their index order
SIGNED_ZERO_TIES = [
    CapRep(z=(-0.0, 1.0), theta=0.5), CapRep(z=(1.0, 0.0), theta=0.5),
    CapRep(z=(0.0, 1.0), theta=0.5), CapRep(z=(1.0, -0.0), theta=HALF),
    CapRep(z=(1.0, 0.0), theta=HALF), CapRep(z=(0.0, -1.0), theta=0.5),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", [math.pi / 12, math.pi / 10, math.pi / 8, 0.3])
def test_adjacency_and_greedy_match_scalar_oracle(n, grid):
    params = SearchParams(n=n, candidate_grid=grid)
    for caps in (candidate_caps(params, np.random.default_rng(17)), SIGNED_ZERO_TIES):
        compat = scalar_graph(caps)
        adj = adjacency(caps)
        assert adj.dtype == bool and adj.tolist() == compat

        # the array order is the sort by decreasing radius, then foot
        order = _greedy_order(*cap_arrays(caps))
        assert order == sorted(range(len(caps)), key=lambda i: (-caps[i].theta, caps[i].z))
        chosen = []
        for idx in order:
            if all(compat[idx][j] for j in chosen):
                chosen.append(idx)
        assert _greedy_clique(adj.__getitem__, order) == chosen
    # the last list is SIGNED_ZERO_TIES
    assert order == [3, 4, 5, 0, 2, 1]


def test_max_clique_bitset_past_bit_63():
    # the first cap faces feet 64..69 across the circle, so its row reaches
    # past column 63 (foot 35 coincides with it)
    caps = [circle_cap(math.pi)] + [circle_cap(2 * math.pi * t / 70) for t in range(1, 70)]
    adj = adjacency(caps)
    compat = scalar_graph(caps)
    assert all(compat[0][j] for j in range(64, 70)) and not compat[0][35]
    assert adj.tolist() == compat

    # K_{32,32} on 0..63 (cliques of 2) and the only maximum clique, a K_6
    # on 64..69, whose vertices also come last in degree order, so both its
    # bitset rows and its renumbered bits lie past bit 63
    masks = [0] * 70
    for a, b in itertools.chain(
        ((a, b) for a in range(0, 64, 2) for b in range(1, 64, 2)),
        itertools.combinations(range(64, 70), 2),
    ):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    assert sorted(_max_clique_bitset(as_matrix(masks))) == list(range(64, 70))


def test_compatible_agrees_with_the_matrix_on_a_bench_style_set():
    # the one-pair block and the whole matrix decide every pair alike
    caps = candidate_caps(
        SearchParams(n=3, candidate_grid=0.3, random_candidates=64),
        np.random.default_rng(101),
    )[:256:2]
    adj = adjacency(caps)
    for i, j in itertools.combinations(range(len(caps)), 2):
        assert compatible(caps[i], caps[j]) == adj[i, j]


def random_feet_caps(n, count, seed):
    """``count`` random feet at n, half the radii at pi/2 and the rest
    uniform in (0.2, pi/2)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    theta = np.where(rng.random(count) < 0.5, HALF, rng.uniform(0.2, HALF, count))
    return [CapRep(z=tuple(row), theta=t) for row, t in zip(z.tolist(), theta.tolist())]


def _row_sets():
    for n in (2, 3):
        for grid in (math.pi / 12, math.pi / 10, math.pi / 8, 0.3):
            params = SearchParams(n=n, candidate_grid=grid)
            yield f"grid-{n}-{grid:.3f}", candidate_caps(params, np.random.default_rng(17))
    rng = np.random.default_rng(0)
    yield "bench-3", candidate_caps(
        SearchParams(n=3, candidate_grid=math.pi / 12, random_candidates=64), rng
    )[:256]
    yield "bench-8", candidate_caps(SearchParams(n=8, random_candidates=240), rng)[:256]
    for n, count, seed in ((5, 120, 2), (8, 220, 4)):
        yield f"random-feet-{n}", random_feet_caps(n, count, seed)
    yield "signed-zero-ties", SIGNED_ZERO_TIES
    for n in (4, 5, 6, 7):
        yield f"del-pezzo-{n}", [cap_of(project(c)) for c in del_pezzo_lines(n)]


ROW_SETS = dict(_row_sets())


@pytest.mark.parametrize("caps", ROW_SETS.values(), ids=ROW_SETS.keys())
def test_rows_and_the_matrix_give_the_same_verdicts(caps):
    # greedy_max asks for one row at a time, exact_max reads the matrix:
    # their delta bits may differ in the last ulp, their verdicts may not
    z, theta = cap_arrays(caps)
    adj = _adjacency(z, theta)
    for i in range(len(caps)):
        row = search._compatible(z[i:i + 1], theta[i:i + 1], z, theta)[0]
        assert row.dtype == bool and np.array_equal(row, adj[i]), i


@pytest.mark.parametrize("n, grid, count, seed, restarts", [
    pytest.param(n, grid, count, n + count, 3, id=f"{n}-{grid}-{count}")
    for n, grid, count in [
        (2, math.pi / 12, 0), (2, 0.3, 1), (3, math.pi / 12, 64), (3, 0.3, 0),
        (3, math.pi / 10, 1), (5, math.pi / 12, 64), (8, 0.3, 240),
    ]
] + [
    # the bench's greedy searches
    pytest.param(3, math.pi / 12, 64, 3000, 8, id="bench-3"),
    pytest.param(6, math.pi / 12, 64, 3015, 8, id="bench-6"),
])
def test_greedy_max_assembles_the_whole_compatibility_matrix(
    monkeypatch, n, grid, count, seed, restarts
):
    # greedy_max must return what the whole compatibility matrix of each
    # restart's candidates gives, while it asks only for the rows of the
    # caps it takes: each restart's clique must be the greedy clique of
    # the matrix of the list candidate_caps draws from the restart's seed,
    # and the result the best of those cliques by size, ties by the
    # larger key
    taken = []

    def clique(row, order):
        rows = []

        def asked(v):
            rows.append((v, row(v)))
            return rows[-1][1]

        chosen = _greedy_clique(asked, order)
        taken.append((chosen, rows))
        return chosen

    monkeypatch.setattr(search, "_greedy_clique", clique)
    params = SearchParams(n=n, seed=seed, restarts=restarts, candidate_grid=grid, random_candidates=count)
    result = greedy_max(params)
    assert len(taken) == restarts
    outcomes = []
    for (chosen, rows), seq in zip(taken, np.random.SeedSequence(seed).spawn(restarts)):
        z, theta = cap_arrays(candidate_caps(params, np.random.default_rng(seq)))
        adj = _adjacency(z, theta)
        assert chosen == _greedy_clique(adj.__getitem__, _greedy_order(z, theta))
        assert [v for v, _ in rows] == chosen
        assert all(np.array_equal(row, adj[v]) for v, row in rows)
        z, theta = z[chosen], theta[chosen]
        outcomes.append((len(chosen), search._config_key(z, theta), z, theta))
    _, _, z, theta = max(outcomes, key=lambda o: o[:2])
    assert result.to_json_dict()["caps"] == [
        {"z": foot, "theta": t} for foot, t in zip(z.tolist(), theta.tolist())
    ]


def test_greedy_max_breaks_ties_by_the_larger_key(monkeypatch):
    # each restart takes one stratum cap, a different one each time: all
    # tie at size 1, and the cap of the largest key wins, not the first
    picks = [4, 3, 2, 1, 0]
    taken = iter(picks)
    monkeypatch.setattr(search, "_greedy_clique", lambda row, order: [next(taken)])
    params = SearchParams(n=2, seed=1, restarts=len(picks), random_candidates=0)
    z, theta = search._stratum(params)
    best = max(picks, key=lambda i: search._config_key(z[i:i + 1], theta[i:i + 1]))
    assert best != picks[0]
    assert greedy_max(params).to_json_dict()["caps"] == [
        {"z": z[best].tolist(), "theta": theta[best]}
    ]


def test_mixed_dimensions_are_refused_plainly():
    caps = [circle_cap(0.0), CapRep(z=(0.0, 1.0, 0.0), theta=HALF)]
    with pytest.raises(ValueError, match=r"caps of mixed dimension \[2, 3\]"):
        exact_max(SearchParams(n=2), caps)
    with pytest.raises(ValueError, match="caps of mixed dimension"):
        compatible(*caps)


def test_compatibility_excludes_coincident_feet():
    caps = [circle_cap(0.0), circle_cap(HALF), CapRep(z=(1.0, 0.0), theta=0.3)]
    adj = adjacency(caps)
    assert not adj[0, 2] and not adj[2, 0]
    assert adj[0, 1] and adj[1, 0]


# ---------------------------------------------------------------------------
# the grid limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", [math.pi / 12, math.pi / 10, 0.3, 0.05, 2.0, math.inf])
def test_grid_size_counts_grid_directions(n, grid):
    assert _grid_size(n, grid) == len(_grid_directions(n, grid))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("grid", [math.pi / 12, math.pi / 10, 0.3])
def test_default_and_bench_grids_are_accepted(n, grid):
    assert SearchParams(n=n, candidate_grid=grid).candidate_grid == grid


@pytest.mark.parametrize("field", ["seed", "random_candidates"])
def test_search_params_reject_negative_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        SearchParams(n=3, **{field: -1})
    assert getattr(SearchParams(n=3, **{field: 0}), field) == 0


def test_grid_limit_rejects_oversized_grids_without_building_them():
    # 2*pi/grid rounds to the limit and one past it at n = 2
    assert SearchParams(n=2, candidate_grid=2 * math.pi / MAX_GRID_DIRECTIONS)
    for n, grid in [(2, 2 * math.pi / (MAX_GRID_DIRECTIONS + 1)), (2, 1e-320),
                    (3, 0.01), (3, 1e-320), (3, 1e-300)]:
        with pytest.raises(ValueError, match=f"too fine at n={n}: .* {MAX_GRID_DIRECTIONS}"):
            SearchParams(n=n, candidate_grid=grid)
    # n >= 4 draws no grid
    assert _grid_size(4, 1e-320) == 0
    assert SearchParams(n=4, candidate_grid=1e-320)


# ---------------------------------------------------------------------------
# the clique engine
# ---------------------------------------------------------------------------

def random_graph(rng, k, density):
    masks = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < density:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def as_matrix(masks):
    """The boolean adjacency matrix whose row i has the bits of masks[i]."""
    k = len(masks)
    return np.array([[m >> j & 1 for j in range(k)] for m in masks], dtype=bool).reshape(k, k)


def is_clique(masks, vertices):
    return all(masks[a] >> b & 1 for a, b in itertools.combinations(vertices, 2))


def brute_force_clique_size(masks):
    """Independent oracle: every vertex in or out, keeping only common
    neighbours as candidates."""
    best = 0

    def extend(size, cands):
        nonlocal best
        if size + cands.bit_count() <= best:
            return
        if not cands:
            best = size
            return
        low = cands & -cands
        v = low.bit_length() - 1
        extend(size + 1, cands & masks[v])
        extend(size, cands ^ low)

    extend(0, (1 << len(masks)) - 1)
    return best


def color_order_max_clique(masks):
    """Size oracle: the index-order greedy-coloring branch and bound the
    exact search used before its degree-ordered rewrite."""
    k = len(masks)
    best: list[int] = []

    def color_order(p):
        order = []
        color = 0
        while p:
            color += 1
            avail = p
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail & ~masks[v] & ~(1 << v)
                p &= ~(1 << v)
                order.append((v, color))
        return order

    def expand(r, p):
        nonlocal best
        for v, bound in reversed(color_order(p)):
            if len(r) + bound <= len(best):
                return
            r.append(v)
            np_ = p & masks[v]
            if np_:
                expand(r, np_)
            elif len(r) > len(best):
                best = list(r)
            r.pop()
            p &= ~(1 << v)

    expand([], (1 << k) - 1)
    return best


def test_max_clique_bitset_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(4242)
    for k in range(19):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
            masks = random_graph(rng, k, density)
            clique = _max_clique_bitset(as_matrix(masks))
            assert len(set(clique)) == len(clique) and is_clique(masks, clique)
            assert all(0 <= v < k for v in clique)
            assert len(clique) == brute_force_clique_size(masks), (k, density)


def test_max_clique_bitset_maps_back_from_degree_order():
    # K_{8,8} on 0..15 (degree 8, cliques of 2), a hub 20 joined to all of
    # them (degree 16, cliques of 3) and the only 4-clique on 16..19, whose
    # vertices have the lowest degree, 3
    masks = [0] * 21
    for a, b in itertools.chain(
        ((a, b) for a in range(0, 16, 2) for b in range(1, 16, 2)),
        ((20, b) for b in range(16)),
        itertools.combinations(range(16, 20), 2),
    ):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    assert sorted(_max_clique_bitset(as_matrix(masks))) == [16, 17, 18, 19]
    rng = np.random.default_rng(9)
    for _ in range(20):
        perm = rng.permutation(21)
        relabeled = [0] * 21
        for v, row in enumerate(masks):
            relabeled[perm[v]] = sum(1 << int(perm[u]) for u in range(21) if row >> u & 1)
        assert sorted(_max_clique_bitset(as_matrix(relabeled))) == sorted(int(perm[v]) for v in range(16, 20))


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximum_cliques(masks):
    """Independent oracle: every maximum clique, as sorted vertex lists,
    by Bron-Kerbosch with a pivot."""
    found = []

    def extend(r, p, x):
        if not p and not x:
            found.append(sorted(r))
            return
        pivot = max(iter_bits(p | x), key=lambda u: (p & masks[u]).bit_count())
        for v in iter_bits(p & ~masks[pivot]):
            extend(r + [v], p & masks[v], x & masks[v])
            p &= ~(1 << v)
            x |= 1 << v

    extend([], (1 << len(masks)) - 1, 0)
    omega = max(len(c) for c in found)
    return [c for c in found if len(c) == omega]


def planted_graph(rng):
    """A sparse random graph with a few planted cliques of one size, so
    that most graphs have several maximum cliques."""
    k = int(rng.integers(12, 41))
    adj = np.triu(rng.random((k, k)) < rng.uniform(0.2, 0.6), 1)
    size = int(rng.integers(3, 8))
    for _ in range(int(rng.integers(2, 5))):
        vs = rng.choice(k, size=min(size, k), replace=False)
        adj[np.ix_(vs, vs)] = True
    adj = np.triu(adj, 1)
    return adj | adj.T


def test_known_clique_is_the_incumbent_on_random_graphs():
    # the digest of the plain results was recorded when the engine started
    # from the empty clique without a known one
    rng = np.random.default_rng(2024)
    plain, several = [], 0
    for _ in range(240):
        adj = planted_graph(rng)
        masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adj]
        ref = _max_clique_bitset(adj)
        plain.append(ref)
        maxima = maximum_cliques(masks)
        assert sorted(ref) in maxima
        several += len(maxima) > 1
        for clique in maxima:
            for ordered in (clique, clique[::-1]):
                # every prefix of every size from 0 to omega
                for size in range(len(clique) + 1):
                    assert sorted(_max_clique_bitset(adj, ordered[:size])) in maxima
                # a maximum clique is the incumbent, and nothing larger
                # exists, so it comes back
                assert sorted(_max_clique_bitset(adj, ordered)) == clique
    assert several >= 120
    assert sha(plain) == "a2140b3cf480caa0debb8ed23f34002fade1940973ea7d875ce809c084077a85"


@pytest.mark.parametrize("seed", [0, 1])
def test_known_clique_keeps_the_maximum_size_on_candidate_sets(seed):
    rng = np.random.default_rng(seed)
    cand3 = candidate_caps(
        SearchParams(n=3, candidate_grid=0.3, random_candidates=64), rng
    )[:256]
    cand8 = candidate_caps(SearchParams(n=8, random_candidates=240), rng)[:256]
    lines = [cap_of(project(c)) for c in del_pezzo_lines(4 + seed)]
    for caps in (cand3, cand8, lines):
        adj = adjacency(caps)
        masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adj]
        ref = _max_clique_bitset(adj)
        greedy = _greedy_clique(adj.__getitem__, _greedy_order(*cap_arrays(caps)))
        for clique in (greedy, ref[::-1]):
            for size in range(len(clique) + 1):
                found = _max_clique_bitset(adj, clique[:size])
                assert len(found) == len(ref) and is_clique(masks, found)


def test_known_must_be_a_clique():
    masks = [0b0110, 0b0101, 0b0011, 0b0000]  # a triangle on 0..2 and vertex 3
    adj = as_matrix(masks)
    assert sorted(_max_clique_bitset(adj, [2, 0, 1])) == [0, 1, 2]
    for known in ([0, 3], [1, 1], [4], [-1], [0, 1, 3]):
        with pytest.raises(ValueError, match="not a clique"):
            _max_clique_bitset(adj, known)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_clique_bitset_matches_color_order_oracle_on_candidate_sets(seed):
    rng = np.random.default_rng(seed)
    cand3 = candidate_caps(
        SearchParams(n=3, candidate_grid=0.3, random_candidates=64), rng
    )[:256]
    cand8 = candidate_caps(SearchParams(n=8, random_candidates=240), rng)[:256]
    for caps in (cand3, cand8):
        assert len(caps) == 256
        adj = adjacency(caps)
        masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adj]
        clique = _max_clique_bitset(adj)
        assert is_clique(masks, clique)
        assert len(clique) == len(color_order_max_clique(masks))


# ---------------------------------------------------------------------------
# del Pezzo (-1)-curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, size", [(4, 10), (5, 16), (6, 27)])
def test_exact_max_takes_every_del_pezzo_line(n, size):
    caps = [cap_of(project(c)) for c in del_pezzo_lines(n)]
    result = exact_max(SearchParams(n=n), caps)
    assert result.size == len(caps) == size
    assert result.best.certificate.valid


def test_exact_max_on_the_56_del_pezzo_lines_at_n7():
    # the 28 pairs of lines meeting twice are incompatible; which 28 lines
    # come back depends on the engine
    caps = [cap_of(project(c)) for c in del_pezzo_lines(7)]
    assert exact_max(SearchParams(n=7), caps).size == 28


# ---------------------------------------------------------------------------
# goldens: sha256 of candidate lists and search reports, recorded before the
# candidate, graph and greedy code paths were merged
# ---------------------------------------------------------------------------

def sha(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def caps_payload(caps):
    return [[list(c.z), c.theta] for c in caps]


@pytest.mark.parametrize("n, grid, count, seed, digest", [
    (2, math.pi / 12, 64, 0, "a4a7617d0288251116bdf946c2456250f1292a212171fe9e98711bbd836ecb7c"),
    (2, 0.3, 0, 1, "a734275e2ec748f5eaa27443ca20d03eda0b4aa1a358aac554c08c260177711d"),
    (2, math.pi / 180, 1, 2, "73e4b34015cb9cb9fc481b12adbfe8786760999f47af3ed27298009b8db27104"),
    (2, 2.0, 240, 3, "38d532b2c7fcba282cacbc4929f08bced8e2afdccb4b725bd3c2b951c5286047"),
    (3, math.pi / 12, 64, 0, "e518787bbe610e7a5ea8295f0f1c50d63f7daea5967f72af22c366e81b17778c"),
    (3, 0.3, 64, 4, "d2588affac1bcfef69909248b5b6dea72628a1a3edf9919c8d00bf0d82cf2541"),
    (3, math.pi / 10, 1, 5, "081c3445647f77e76a096e4e18ab86d56c36cd8477a317297fd0f2cc2b65e03e"),
    (3, math.pi / 12, 0, 6, "3a088dbff70a89ed6097e9462979a61e0becbd69b7f8bbe805086a2007452938"),
    (3, math.pi / 8, 240, 7, "010ff019e96d0ed74a94dc108e7a839376abc1e644a955c13bf1b05a3b586898"),
    (3, 0.1, 64, 8, "5aad40b9dde9997203991e799f495b8eb6b2560cad115c80ba6e709d5f100dc8"),
    (4, math.pi / 12, 64, 0, "1b365f7c464f6bdd83601884c13ac1281317286a7e27aa82521681465e51bea8"),
    (4, 0.3, 1, 1, "e3a11ed00bd6f3d4a081ed24a6732de5df2bb0b6e4a610bc03a9c9cdbbb04315"),
    (6, math.pi / 12, 240, 3, "b4b953ab822db02ba83443ccfb83249ca4a549be5b058aef811e40f4465b4691"),
    (6, 0.3, 0, 2, "0d029dc4e9c1125a17e27e904b06ffeccb306618290e53b67c07015504f59e40"),
    (8, math.pi / 12, 240, 4, "fd8639e5dea53608e0d6f3988786f3d7bd12bd45d4f7c1a2568d9dcbca6da84c"),
    (8, 0.3, 64, 5, "10d655983e115d7f046e4412ba40b27e689fce6daaae74c5d07b413c99cc3be8"),
])
def test_candidate_caps_golden(n, grid, count, seed, digest):
    params = SearchParams(n=n, candidate_grid=grid, random_candidates=count)
    rng = np.random.default_rng(seed)
    # two draws from one generator also pin how much of its stream a draw uses
    first = candidate_caps(params, rng)
    second = candidate_caps(params, rng)
    assert sha([caps_payload(first), caps_payload(second)]) == digest


@pytest.mark.parametrize("n, grid, seed, restarts, digest", [
    (2, math.pi / 12, 1, 4, "64148557a6ac8532023613457c82ddfd331a105edf5b9aad7b687802890ea4aa"),
    (2, 0.3, 99, 3, "64148557a6ac8532023613457c82ddfd331a105edf5b9aad7b687802890ea4aa"),
    (2, math.pi / 180, 5, 2, "64148557a6ac8532023613457c82ddfd331a105edf5b9aad7b687802890ea4aa"),
    (3, math.pi / 12, 7, 8, "d44725fb8e07d2c84e9a09a31f58540c6cd6dba2906bcd17e742c62f8d011560"),
    (3, 0.3, 11, 2, "d44725fb8e07d2c84e9a09a31f58540c6cd6dba2906bcd17e742c62f8d011560"),
    (3, math.pi / 10, 12, 3, "d44725fb8e07d2c84e9a09a31f58540c6cd6dba2906bcd17e742c62f8d011560"),
    (4, math.pi / 12, 3, 2, "aa4ff9dd0fefc153f2cb6720fcc14fd243bdb2650e4bec920ae3e29b2f2d27b3"),
    (6, math.pi / 12, 5, 2, "e711ebe04692f1a533a1a12ccceaafd39aa12cfe75c149b687b779014484ba1f"),
    (8, 0.3, 2, 1, "f5e2f5905e6c4ec9e673b26528d2a2fa511d38d5bf0c44634bc6905c10746e32"),
])
def test_greedy_max_golden(n, grid, seed, restarts, digest):
    params = SearchParams(n=n, seed=seed, restarts=restarts, candidate_grid=grid)
    assert sha(greedy_max(params).to_json_dict()) == digest


def test_greedy_max_on_a_fine_grid(capsys):
    # 3962 grid directions: the whole compatibility matrix of a restart
    # would peak near 400 MiB, the rows of the caps it takes need little
    argv = ["search", "--n", "3", "--grid", "0.07", "--restarts", "2"]
    assert main(argv) == 0  # loads the modules the search imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "03a5a1d0a118721dd29f3eaa0d4d001fe8effaf5871cb2a6a09f00020a217b0e"
    )
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n, count, seed, digest", [
    (2, 0, 31, "64148557a6ac8532023613457c82ddfd331a105edf5b9aad7b687802890ea4aa"),
    (2, 1, 32, "64148557a6ac8532023613457c82ddfd331a105edf5b9aad7b687802890ea4aa"),
    (3, 0, 33, "d44725fb8e07d2c84e9a09a31f58540c6cd6dba2906bcd17e742c62f8d011560"),
    (3, 1, 34, "d44725fb8e07d2c84e9a09a31f58540c6cd6dba2906bcd17e742c62f8d011560"),
    (5, 0, 35, "e4c3aac1a84feb52b8907f0f2381de1b76540bbb23d8e8a9ab3425862460cdfd"),
    (5, 1, 36, "e4c3aac1a84feb52b8907f0f2381de1b76540bbb23d8e8a9ab3425862460cdfd"),
])
def test_greedy_max_golden_with_few_random_candidates(n, count, seed, digest):
    # recorded before the stratum block was built once per search
    params = SearchParams(n=n, seed=seed, restarts=1, random_candidates=count)
    assert sha(greedy_max(params).to_json_dict()) == digest


@pytest.mark.parametrize("grid, seed", [(math.pi / 12, 0), (0.3, 1), (0.3, 2)])
def test_exact_max_golden_on_bench_style_sets(grid, seed):
    # an n = 3 grid set and an n = 8 draw from one generator, each cut at
    # the exact-search limit; the cross-polytope is the maximum clique of all
    rng = np.random.default_rng(seed)
    cand3 = candidate_caps(
        SearchParams(n=3, candidate_grid=grid, random_candidates=64), rng
    )[:256]
    cand8 = candidate_caps(SearchParams(n=8, random_candidates=240), rng)[:256]
    assert sha([
        exact_max(SearchParams(n=3), cand3).to_json_dict(),
        exact_max(SearchParams(n=8), cand8).to_json_dict(),
    ]) == "4cc523804a6e3bff3c057ff1925d1ef7fbde572f3c8c8758aa9450aaa5f55687"


@pytest.mark.parametrize("n, count, seed, digest, size", [
    (3, 60, 0, "444da42f3210632bc260d50591c286d1a5b23ec1e1242e16bf7cc80b7b0d2778", 4),
    (4, 90, 1, "c1b8c3d74ad0fa603dce20c72cf91c195d917ec0025255212e5fe2d8938dc06e", 5),
    (5, 120, 2, "0146e2787a85f52ebd6587d12fa5c61efba63990a0ec6fb32ac5e578bcc7dcb5", 6),
    (6, 160, 3, "740a9ce71667485134e28fa717fb04d5d25648107c2c870153a7e5562b8123be", 7),
    (8, 220, 4, "a16bfb1cd937467f3df63c861ec71e074dad0fd2c8a754810a770a01a84e013b", 9),
])
def test_exact_max_golden_on_random_feet(n, count, seed, digest, size):
    # random feet only, half the radii at pi/2: many maximum cliques, so the
    # digest pins which one the engine returns, and the size and the
    # certificate pin what a re-recorded digest must keep
    result = exact_max(SearchParams(n=n), random_feet_caps(n, count, seed))
    assert result.size == size
    assert result.best.certificate.valid
    assert sha(result.to_json_dict()) == digest


@pytest.mark.parametrize("n, digest", [
    (4, "ce2027eddd7c28f75c066ce4179780cf8393996cafbd920325e9a88ef838600f"),
    (5, "e2daf0936a1deced29f2dc557ab122cd45d8209fe890d59f8c128ed26f598037"),
    (6, "a68a68b38b025136826cea1b9ced14eeefbd5a97a00ca9952ee442d08129d7c0"),
    (7, "fe777f9eaa4bf10d842082885dd517e41333946b7106d58c54adf6e285fc0485"),
])
def test_exact_max_golden_on_del_pezzo_lines(n, digest):
    caps = [cap_of(project(c)) for c in del_pezzo_lines(n)]
    assert sha(exact_max(SearchParams(n=n), caps).to_json_dict()) == digest
