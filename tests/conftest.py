import itertools
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from negcurve.packing import Ball, BallSystem


def pytest_configure(config):
    # the `pythonpath` setting reaches only this process; the child
    # processes some tests start (cold CLI calls, import checks) get the
    # same source tree through PYTHONPATH
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


@pytest.fixture(autouse=True)
def no_thread_left_running():
    # a test that starts a thread, directly or through the package, joins it
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    assert left <= 0, f"{left} more live thread(s) after the test than before it"


def finished_within(seconds, *calls):
    """Run each call on its own thread, all at once, and return their
    results in order; fail if one has not returned within ``seconds``, so
    that a hang fails the test instead of stalling the suite.  The first
    exception a call raised is raised again here."""
    outcomes = [None] * len(calls)

    def run(k):
        try:
            outcomes[k] = (calls[k](), None)
        except BaseException as exc:
            outcomes[k] = (None, exc)

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds)
        assert not thread.is_alive(), f"still running after {seconds} s"
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def del_pezzo_lines(r):
    """The (-1)-curves d*H - sum m_i E_i of P^2 blown up in r <= 7 points,
    c^2 = K.c = -1, as classes of I_{1,r} in the basis (H, E_1, ..., E_r)."""
    lines = []
    for d in range(4):
        for m in itertools.product(range(-1, d + 1), repeat=r):
            if d * d - sum(x * x for x in m) == -1 and 3 * d - sum(m) == 1:
                lines.append([d, *(-x for x in m)])
    return lines


def lowest_bit_max_clique(adj: np.ndarray, known=()) -> list[int]:
    """Reference for the exact clique engine: `search._max_clique_bitset`
    as it was with renumbered vertex i as bit i, each set's lowest-numbered
    vertex taken as its lowest bit.  The engine must walk the same tree.

    A maximum clique of the graph with the symmetric boolean adjacency
    matrix ``adj`` (false diagonal), as a list of vertex indices.

    BBMC (San Segundo et al. 2011, after MCS, Tomita et al. 2010): the
    vertices are renumbered by non-increasing degree, the incumbent starts
    as ``known``, a clique the caller already has (ValueError if it is
    not; the empty clique by default), and each node colors its candidates
    greedily and branches, highest color first, only on those whose color
    can still beat the incumbent.  The incumbent comes back unless a
    larger clique exists.  Rows are Python-int bitsets, since numpy shifts
    overflow past bit 63.
    """
    k = len(adj)
    known = np.asarray(known, dtype=int)
    if (
        ((known < 0) | (known >= k)).any()
        or not (adj[np.ix_(known, known)] | np.eye(len(known), dtype=bool)).all()
    ):
        raise ValueError(f"known vertices {known.tolist()} are not a clique")
    # renumber by non-increasing degree, ties by index: vertex i of the
    # renumbered graph is vertex order[i]
    order = np.argsort(-adj.sum(axis=1), kind="stable")
    adj = adj[np.ix_(order, order)]
    best = np.argsort(order)[known].tolist()
    adj = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(adj, axis=1, bitorder="little")
    ]

    def expand(r: list[int], p: int):
        nonlocal best
        # a vertex of color <= floor cannot lift r past the incumbent: it is
        # colored, stays in p for the subtrees, but is never branched on
        floor = len(best) - len(r)
        branch = []
        color = 0
        uncolored = p
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~adj[v] ^ low
                uncolored ^= low
                if color > floor:
                    branch.append((low, v, color))
        for low, v, bound in reversed(branch):
            if len(r) + bound <= len(best):
                return
            r.append(v)
            sub = p & adj[v]
            if sub:
                expand(r, sub)
            elif len(r) > len(best):
                best = list(r)
            r.pop()
            p ^= low

    expand([], (1 << k) - 1)
    return [int(order[v]) for v in best]


def iii_witness(n1, n2, h):
    """The closed-form witness that (III) fails for negative norms n1, n2
    and pairing h: the integer point (a, b) = (h, -n1)/gcd on the ray of
    the real maximizer t* = -h/n1, and its square (a C1 + b C2)^2, in
    plain integers.  Before the division the square is
    (-n1)(h^2 - n1 n2), so it is positive when h^2 > n1 n2; with h > 0,
    a and b are positive too, and (III) fails."""
    g = math.gcd(h, n1)
    a, b = h // g, -n1 // g
    return (a, b), a * a * n1 + 2 * a * b * h + b * b * n2


@dataclass(frozen=True)
class RayMax:
    """Maximum of f(a) = |a c_i + c_j|_H^2 along a ray, in canonical position
    c_i = (0, 1, 0, ..., 0), c_j = (cos theta_j, cos delta, sin delta, 0, ...).

    ``a_star = -cos(delta)`` is the unconstrained maximizer with value
    cos^2(theta_j) - sin^2(delta).  When a_star <= 0 the supremum over
    a > 0 is instead cos^2(theta_j) - 1, approached as a -> 0+;
    ``sup_positive`` always reports the supremum over the open ray.
    """

    a_star: float
    value: float
    sup_positive: float


def max_norm_on_ray(theta_j: float, delta: float) -> RayMax:
    """The model's ray lemma in closed form: the oracle that the grid
    tests and the criterion-3 acceptance test check."""
    if not 0.0 < theta_j < math.pi:
        raise ValueError(f"theta_j must lie in (0, pi), got {theta_j!r}")
    if not 0.0 < delta <= math.pi:
        raise ValueError(f"delta must lie in (0, pi], got {delta!r}")
    a_star = -math.cos(delta)
    cos_tj = math.cos(theta_j)
    value = cos_tj * cos_tj - math.sin(delta) ** 2
    sup_positive = value if a_star > 0 else cos_tj * cos_tj - 1.0
    return RayMax(a_star=a_star, value=value, sup_positive=sup_positive)


def ball_system_from_points(points, radii):
    """A plain Euclidean ball system: distances computed from the coordinates."""
    pts = np.asarray(points, dtype=float)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    balls = tuple(
        Ball(center=tuple(map(float, p)), radius=float(r))
        for p, r in zip(pts, radii, strict=True)
    )
    return BallSystem(balls=balls, dist=dist, n=pts.shape[1])


def modules_loaded_by(code: str) -> set[str]:
    """The package submodules, numpy, mpmath, concurrent.futures and
    dataclasses that a fresh interpreter has loaded after it runs
    ``code``."""
    script = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('negcurve.')\n"
        "                  or m in ('numpy', 'mpmath', 'concurrent.futures',\n"
        "                           'dataclasses')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))
