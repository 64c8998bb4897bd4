"""Search for large cap families satisfying the pairwise conditions.

A family of caps is valid when every pair passes the angular conditions
(ii) and (iii); valid families are exactly the cliques of the
compatibility graph over a candidate set.  The searches here produce
certified configurations whose size is a lower bound for the largest
valid family in dimension n (the pi/2-separation kissing count of the
model): the greedy search, which builds the 2n cross-polytope caps at
theta = pi/2 that the greedy clique provably takes from any candidate
set :func:`candidate_caps` draws, and an exact branch-and-bound maximum
clique for explicit candidate sets small enough to afford it.

Candidate generation always includes the 2n cross-polytope directions
with theta = pi/2, the natural extremal stratum: those caps are pairwise
compatible, so every exact search over such a set certifies at least 2n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations, cycle

import numpy as np

from .conditions import (
    TOL_BOUNDARY,
    ModelFamily,
    PairVerdict,
    _block_margins,
    _verdicts,
    cap_arrays,
    coincident_feet,
)
from .counting import total_bound
from .errors import InputError, NumericalError
from .klein import CapRep

# mpmath costs a cold process ~30 ms, so only certify imports it

#: decimal digits used when re-verifying certificates
CERTIFY_DPS = 60

#: certificates reject margins below this (absorbs working-precision
#: residue on exact-boundary pairs)
CERTIFY_FLOOR = -1e-30

#: the double closest to pi/2; certificates read it as the exact right
#: angle, since the extremal stratum theta = pi/2 is exact by construction
#: and no double can represent it
RIGHT_ANGLE = math.pi / 2

#: largest candidate set :func:`exact_max` accepts
MAX_CLIQUE_CUTOFF = 256

#: most grid directions a :class:`SearchParams` may ask for
MAX_GRID_DIRECTIONS = 4096


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the configuration search.

    :func:`greedy_max` reads only ``n``.  :func:`candidate_caps` reads
    ``n``, ``candidate_grid`` and ``random_candidates``, and draws from
    the generator its caller seeds, with ``seed`` by convention.
    ``restarts`` reaches nothing, since no restart can change the greedy
    result; it stays only because ``bench/inputs.py`` passes
    ``--restarts 2`` and ``bench/refs.json`` pins the echoed parameters.
    """

    n: int
    seed: int = 20240601
    restarts: int = 8
    candidate_grid: float = math.pi / 12
    random_candidates: int = 64

    def __post_init__(self):
        if self.n < 2:
            raise InputError("search requires n >= 2")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.restarts < 1:
            raise InputError("restarts must be >= 1")
        if self.random_candidates < 0:
            raise InputError("random_candidates must be >= 0")
        if not self.candidate_grid > 0:
            raise InputError("candidate_grid must be positive")
        if _grid_size(self.n, self.candidate_grid) > MAX_GRID_DIRECTIONS:
            raise InputError(
                f"candidate_grid {self.candidate_grid!r} is too fine at "
                f"n={self.n}: it asks for more than {MAX_GRID_DIRECTIONS} "
                "grid directions"
            )


@dataclass(frozen=True)
class Certificate:
    """High-precision re-verification of a configuration.

    All pair margins are recomputed at ``digits`` (CERTIFY_DPS)
    significant digits from the stored coordinates, each distinct
    (theta_i, theta_j, z_i . z_j) once, and every pair is reported; the
    certificate is valid when no margin falls below the tiny negative
    floor reserved for exact-boundary pairs.
    """

    valid: bool
    digits: int
    min_margin: float
    worst: PairVerdict | None
    violations: tuple[PairVerdict, ...]

    def to_json_dict(self) -> dict:
        # not asdict, which would keep the records named tuples, and json
        # writes a tuple as a list
        return {
            "valid": self.valid,
            "digits": self.digits,
            "min_margin": self.min_margin,
            "worst": None if self.worst is None else self.worst._asdict(),
            "violations": [v._asdict() for v in self.violations],
        }


@dataclass(frozen=True)
class Configuration:
    """A cap family together with its certificate."""

    caps: ModelFamily
    certificate: Certificate

    def __len__(self) -> int:
        return len(self.caps)


@dataclass(frozen=True)
class SearchResult:
    best: Configuration
    size: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "method": self.method,
            "caps": [
                {"z": [float(x) for x in cap.z], "theta": float(cap.theta)}
                for cap in self.best.caps.caps
            ],
            "certificate": self.best.certificate.to_json_dict(),
        }


def _certified_result(caps: list[CapRep], method: str) -> SearchResult:
    """The result of a search that found ``caps``, with their certificate."""
    family = ModelFamily(caps)
    return SearchResult(
        best=Configuration(caps=family, certificate=certify(family)),
        size=len(caps),
        method=method,
    )


def compatible(c1: CapRep, c2: CapRep) -> bool:
    """Pairwise compatibility: conditions (ii) and (iii) both hold within
    TOL_BOUNDARY.

    Caps with coincident feet are never compatible here (the pair checks
    reject them as degenerate, but a total relation is needed to build
    the compatibility graph).
    """
    z, theta = cap_arrays([c1, c2])
    return bool(_compatible(z[:1], theta[:1], z[1:], theta[1:])[0, 0])


def _compatible(z1, t1, z2, t2) -> np.ndarray:
    """The (k1, k2) boolean matrix of :func:`compatible` verdicts of each
    cap (z1[i], t1[i]) against each cap (z2[j], t2[j])."""
    _, m_ii, m_iii = _block_margins(z1, t1, z2, t2)
    return ~coincident_feet(z1, z2) & (m_ii >= -TOL_BOUNDARY) & (m_iii >= -TOL_BOUNDARY)


def _adjacency(z, theta) -> np.ndarray:
    """:func:`compatible` over all pairs of the caps (z[i], theta[i]), as a
    symmetric (k, k) boolean matrix with a false diagonal; the verdict of
    the pair i < j decides both entries."""
    ok = np.triu(_compatible(z, theta, z, theta), 1)
    return ok | ok.T


def certify(caps: ModelFamily) -> Certificate:
    """Recompute every pair margin at CERTIFY_DPS digits.

    The margins of a pair depend only on its geometry (theta_i, theta_j,
    z_i . z_j), so each distinct geometry is evaluated once and every
    pair still gets its two records, in (i, j, condition) order.  An
    empty or single-cap family certifies vacuously.  Fails when any
    margin drops below the floor, naming the pair and the condition.
    """
    k = len(caps)
    if k < 2:
        return Certificate(
            valid=True, digits=CERTIFY_DPS, min_margin=math.inf, worst=None,
            violations=(),
        )
    import mpmath

    thetas = [cap.theta for cap in caps.caps]
    pairs = list(combinations(range(k), 2))
    # every foot as integers over one power of two, so that a pair's dot
    # product is an exact integer sum over ``one``, and its clamp exact
    ratios = [[float(x).as_integer_ratio() for x in cap.z] for cap in caps.caps]
    den = max(d for foot in ratios for _, d in foot)
    feet = [[num * (den // d) for num, d in foot] for foot in ratios]
    one = den * den
    margins: list[float] = []
    with mpmath.workdps(CERTIFY_DPS):
        # theta and cos(theta) at working precision, once per radius
        radius = {}
        for t in set(thetas):
            mp_t = mpmath.pi / 2 if t == RIGHT_ANGLE else mpmath.mpf(t)
            radius[t] = (mp_t, mpmath.cos(mp_t))
        # the (ii) and (iii) margins of each (theta_i, theta_j, dot): keyed
        # on the float radii and the dot's exact numerator
        geometry: dict[tuple, tuple[float, float]] = {}
        for i, j in pairs:
            dot = max(-one, min(one, sum(map(operator.mul, feet[i], feet[j]))))
            key = (thetas[i], thetas[j], dot)
            m = geometry.get(key)
            if m is None:
                (t_i, cos_i), (t_j, cos_j) = radius[thetas[i]], radius[thetas[j]]
                # the exact dot rounded once, as mpmath.fdot rounds it:
                # dividing by a power of two is exact
                delta = mpmath.acos(mpmath.mpf(dot) / one)
                m = geometry[key] = (
                    float(cos_i * cos_j - mpmath.cos(delta)),
                    float(t_i + t_j - delta),
                )
            margins += m
    entries = _verdicts(
        chain.from_iterable(zip(pairs, pairs)), cycle(("ii", "iii")), margins,
    )
    violations = tuple(e for e in entries if e.margin < CERTIFY_FLOOR)
    worst = min(entries, key=lambda e: e.margin)
    return Certificate(
        valid=not violations,
        digits=CERTIFY_DPS,
        min_margin=worst.margin,
        worst=worst,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _snap_direction(z) -> tuple[float, ...]:
    """Canonicalize grid directions: trig residue near 0 or +/-1 becomes
    exact, so symmetry-axis points dedupe onto their exact forms."""
    out = []
    for x in z:
        if abs(x) < 1e-12:
            x = 0.0
        elif abs(abs(x) - 1.0) < 1e-12:
            x = math.copysign(1.0, x)
        out.append(float(x))
    norm = math.sqrt(sum(x * x for x in out))
    return tuple(x / norm for x in out)


def _cross_polytope(n: int) -> list[tuple[float, ...]]:
    dirs = []
    for axis in range(n):
        for sign in (1.0, -1.0):
            z = [0.0] * n
            z[axis] = sign
            dirs.append(tuple(z))
    return dirs


def _grid_steps(grid: float) -> tuple[int, int]:
    """Polar and azimuthal step counts of the grid at spacing ``grid``."""
    return max(2, int(round(math.pi / grid))), max(4, int(round(2.0 * math.pi / grid)))


def _grid_size(n: int, grid: float) -> float:
    """How many directions ``_grid_directions(n, grid)`` returns, counted
    without building them; inf when 2*pi/grid overflows a double."""
    if n > 3:
        return 0
    if math.isinf(2.0 * math.pi / grid):
        return math.inf
    n_polar, n_azim = _grid_steps(grid)
    return n_azim if n == 2 else 2 + (n_polar - 1) * n_azim


def _grid_directions(n: int, grid: float) -> list[tuple[float, ...]]:
    if n == 2:
        _, count = _grid_steps(grid)
        return [
            _snap_direction(
                (math.cos(2.0 * math.pi * k / count),
                 math.sin(2.0 * math.pi * k / count))
            )
            for k in range(count)
        ]
    if n == 3:
        out = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        n_polar, n_azim = _grid_steps(grid)
        for a in range(1, n_polar):
            phi = math.pi * a / n_polar
            for b in range(n_azim):
                psi = 2.0 * math.pi * b / n_azim
                out.append(
                    _snap_direction(
                        (
                            math.sin(phi) * math.cos(psi),
                            math.sin(phi) * math.sin(psi),
                            math.cos(phi),
                        )
                    )
                )
        return out
    # higher dimensions: grids explode, rely on axes plus random augmentation
    return []


def _stratum(params: SearchParams) -> tuple[np.ndarray, np.ndarray]:
    """The feet and radii of the fixed candidates: cross-polytope axes and
    the snapped grid, at theta = pi/2.  The grid holds some axes exactly,
    so exact comparison dedupes them."""
    n = params.n
    feet = list(dict.fromkeys(_cross_polytope(n) + _grid_directions(n, params.candidate_grid)))
    return np.array(feet, dtype=float), np.full(len(feet), math.pi / 2)


def _random_feet(params: SearchParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``random_candidates`` uniform random feet, as a (count, n) array,
    and their radii: half pi/2 and half uniform in (0, pi/2].  Not
    deduped: coincident feet are never compatible, so a repeated foot
    cannot enter a clique twice."""
    count, n = params.random_candidates, params.n
    pts = rng.normal(size=(count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    half = count // 2
    thetas = np.concatenate(
        [np.full(half, math.pi / 2), rng.uniform(0.0, math.pi / 2, size=count - half)]
    )
    return pts, np.clip(thetas, 1e-6, math.pi / 2)


def _caps(z: np.ndarray, theta: np.ndarray) -> list[CapRep]:
    return [CapRep(z=tuple(foot), theta=t) for foot, t in zip(z.tolist(), theta.tolist())]


def candidate_caps(params: SearchParams, rng: np.random.Generator) -> list[CapRep]:
    """Cross-polytope axes and a uniform grid at theta = pi/2, plus random
    directions paired with random radii in (0, pi/2]."""
    return _caps(*_stratum(params)) + _caps(*_random_feet(params, rng))


def _greedy_order(z: np.ndarray, theta: np.ndarray) -> list[int]:
    # larger caps constrain most, so place them first; feet break ties,
    # first coordinate first, and equal keys keep their index order
    return np.lexsort((*z.T[::-1], -theta)).tolist()


def _greedy_clique(adj: np.ndarray, order) -> list[int]:
    """The clique that takes each vertex of ``order``, a permutation of
    the vertices, adjacent to every vertex taken before it, read from the
    rows of the boolean adjacency matrix ``adj``."""
    # vertices adjacent to every vertex chosen so far
    open_ = np.ones(len(order), dtype=bool)
    chosen: list[int] = []
    for idx in order:
        if open_[idx]:
            chosen.append(idx)
            open_ &= adj[idx]
    return chosen


def greedy_max(params: SearchParams) -> SearchResult:
    """The 2n cross-polytope caps -e1, ..., -en, +en, ..., +e1, all at
    theta = pi/2, certified; only ``params.n`` is read.

    This is the greedy clique, in :func:`_greedy_order`, of every
    candidate set :func:`candidate_caps` draws.  The order takes -e1
    first.  A cap of any radius is compatible with it only if its foot is
    at least pi/2 away, so only feet whose first coordinate is at least
    about -TOL_BOUNDARY stay open; those with first coordinate exactly 0
    come next, and the same argument inside e1^perp takes -e2, ..., -en,
    +en, ..., +e2 and then +e1.  After the 2n axes no cap of any radius
    is open: condition (ii) against both e_i and -e_i needs
    |z_i| <= ~TOL_BOUNDARY for every i, which no unit foot meets.  The
    one caveat is a random foot within TOL_BOUNDARY of a coordinate
    hyperplane, which a draw hits with probability about 1e-9 per
    coordinate; grid feet are snapped to exact zeros, so grids are
    covered exactly.  The zeros are +0.0, as in the candidates: a report
    would print a -0.0.

    Raises :class:`NumericalError` if the result exceeds the counting
    bound ``total_bound(n).total``, which no valid family can, and before
    any search if ``total_bound(n)`` does.
    """
    limit = total_bound(params.n).total
    d = _cross_polytope(params.n)
    feet = d[1::2] + d[-2::-2]
    if len(feet) > limit:
        raise NumericalError(
            f"search produced {len(feet)} caps, above the counting bound {limit}"
        )
    return _certified_result([CapRep(z=foot, theta=math.pi / 2) for foot in feet], "greedy")


# ---------------------------------------------------------------------------
# exact maximum clique
# ---------------------------------------------------------------------------

def _max_clique_bitset(adj: np.ndarray, known=()) -> list[int]:
    """A maximum clique of the graph with the symmetric boolean adjacency
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


def exact_max(params: SearchParams, candidates: list[CapRep]) -> SearchResult:
    """True maximum clique over an explicit candidate set.

    Refuses candidate sets above MAX_CLIQUE_CUTOFF.  The candidates alone
    decide the result; ``params`` is not read.  The whole compatibility
    matrix is built once; the greedy clique in :func:`_greedy_order`,
    read from its rows, is the engine's incumbent, and comes back unless
    a larger clique exists.
    """
    if len(candidates) > MAX_CLIQUE_CUTOFF:
        raise ValueError(
            f"{len(candidates)} candidates exceed the exact-search cutoff "
            f"{MAX_CLIQUE_CUTOFF}"
        )
    z, theta = cap_arrays(candidates)
    adj = _adjacency(z, theta)
    known = _greedy_clique(adj, _greedy_order(z, theta))
    chosen = sorted(_max_clique_bitset(adj, known))
    return _certified_result([candidates[i] for i in chosen], "exact")
