import math
from types import SimpleNamespace

import numpy as np
import pytest

from negcurve import search
from negcurve.cli import main
from negcurve.conditions import ModelFamily
from negcurve.errors import NumericalError
from negcurve.klein import CapRep
from negcurve.packing import total_bound
from negcurve.search import (
    SearchParams,
    _adjacency_masks,
    _greedy_clique,
    _greedy_order,
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
    caps[0] = circle_cap(0.01)  # slide one foot toward its neighbour? no:
    # moving z0 by +0.01 rad toward z1 shrinks delta(0,1) below pi/2
    cert = certify(ModelFamily(caps))
    assert not cert.valid
    assert any(
        v.condition == "ii" and set(v.indices) == {0, 1} for v in cert.violations
    )


def test_certify_empty_and_single():
    assert certify(ModelFamily([])).valid
    assert certify(ModelFamily([circle_cap(0.5)])).valid


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
    params = SearchParams(n=2, seed=1, restarts=1)
    blob = greedy_max(params).to_json_dict()
    assert "elapsed" not in blob
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", [math.pi / 12, math.pi / 10, math.pi / 8, 0.3])
def test_adjacency_and_greedy_match_scalar_oracle(n, grid):
    params = SearchParams(n=n, candidate_grid=grid)
    caps = candidate_caps(params, np.random.default_rng(17))
    compat = scalar_graph(caps)
    masks = _adjacency_masks(caps)
    k = len(caps)
    for i in range(k):
        assert masks[i] == sum(1 << j for j in range(k) if compat[i][j])

    chosen = []
    for idx in _greedy_order(caps):
        if all(compat[idx][j] for j in chosen):
            chosen.append(idx)
    assert _greedy_clique(caps) == chosen


def test_adjacency_masks_past_bit_63():
    # the first cap faces feet 64..69 across the circle, so its row needs
    # bits past 63 (foot 35 coincides with it)
    caps = [circle_cap(math.pi)] + [circle_cap(2 * math.pi * t / 70) for t in range(1, 70)]
    masks = _adjacency_masks(caps)
    compat = scalar_graph(caps)
    assert all(compat[0][j] for j in range(64, 70)) and not compat[0][35]
    for i in range(70):
        assert masks[i] == sum(1 << j for j in range(70) if compat[i][j])
        assert masks[i] < 1 << 70


def test_compatibility_excludes_coincident_feet():
    caps = [circle_cap(0.0), circle_cap(HALF), CapRep(z=(1.0, 0.0), theta=0.3)]
    masks = _adjacency_masks(caps)
    assert masks[0] >> 2 & 1 == 0 and masks[2] & 1 == 0
    assert masks[0] >> 1 & 1 == 1
